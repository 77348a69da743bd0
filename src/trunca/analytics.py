"""Tail-dependence coefficients, Kendall distributions, empirical dependence.

For a truncated Archimedean copula with tilt ``h`` the tail coefficients are
generator-derivative ratio limits,

    lambda_l = 2 lim_{t -> inf} psi'(2t + h)/psi'(t + h),
    lambda_u = 2 - 2 lim_{t -> 0}  psi'(2t + h)/psi'(t + h),

so any positive tilt kills upper tail dependence (the ratio tends to 1)
while regularly varying generators (Clayton) keep their lower coefficient.
For exchangeable bivariate models truncated at an equal threshold (t, t) the
coefficients follow from partial derivatives of the model CDF instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .copulas import ArchimedeanCopula, truncate_general
from .frailty import rng_stream
from .generators import _check_range
from .sampling import _sorted_runs

__all__ = [
    "TailDepReport",
    "tail_dep_tilted",
    "tail_dep_exchangeable_equal_t",
    "model_tail_dep",
    "kendall_dist_truncated",
    "empirical_tail_dep",
    "empirical_kendall_tau",
]

_FD_STEP = 1e-6
_N_BOOT = 200
_BOOT_SEED = 0


@dataclass
class TailDepReport:
    """Lower/upper tail-dependence coefficients plus how they were obtained."""

    lambda_lower: float
    lambda_upper: float
    method: str  # "analytic-limit" | "numeric-limit" | "empirical"
    se_lower: float | None = None
    se_upper: float | None = None
    converged: bool = True

    def to_dict(self):
        return asdict(self)


def _aitken(seq):
    a0, a1, a2 = seq[-3], seq[-2], seq[-1]
    d1 = a1 - a0
    d2 = a2 - a1
    dd = d2 - d1
    if abs(dd) < 1e-15:
        return a2
    acc = a2 - d2 * d2 / dd
    # keep the raw value when extrapolation overshoots (non-geometric tails)
    return acc if abs(acc - a2) <= abs(d2) else a2


def tail_dep_tilted(g, h=0.0, method="analytic"):
    """Tail dependence of the Archimedean copula with generator g tilted by h.

    The tilt is ``g.tilt(h)``, so h adds to any tilt g already carries and
    must be nonnegative.  ``method="analytic"`` evaluates the limits in
    closed form per family (the tilted generator's ``_tail_pair``);
    ``"numeric"`` evaluates the derivative-ratio limits on geometric grids
    (t = 10^2..10^6 and 10^-2..10^-6) with Aitken stabilization, flagging
    ``converged=False`` when, for either tail, the Aitken values of the last
    three and of the three before the last estimate differ by > 1e-4.
    """
    tg = g.tilt(h)
    if method == "analytic":
        return TailDepReport(*tg._tail_pair(), "analytic-limit")
    if method != "numeric":
        raise ValueError("method must be 'analytic' or 'numeric'")

    def ratio(tt):
        # psi_h'(2t) / psi_h'(t) on the tilt itself: the constant log psi(h) cancels
        return float(np.exp(tg.log_neg_psi_deriv(2.0 * tt) - tg.log_neg_psi_deriv(tt)))

    lower_seq = [2.0 * ratio(10.0**k) for k in range(2, 7)]
    upper_seq = [2.0 - 2.0 * ratio(10.0**-k) for k in range(2, 7)]
    lam_l = min(max(_aitken(lower_seq), 0.0), 1.0)
    lam_u = min(max(_aitken(upper_seq), 0.0), 1.0)
    converged = all(
        abs(_aitken(seq[-4:-1]) - _aitken(seq[-3:])) <= 1e-4 for seq in (lower_seq, upper_seq)
    )
    return TailDepReport(lam_l, lam_u, "numeric-limit", converged=converged)


def model_tail_dep(model):
    """Analytic (lambda_l, lambda_u) of an untruncated bivariate model."""
    return model._tail_dep()


def tail_dep_exchangeable_equal_t(model, t):
    """Tail dependence of an exchangeable bivariate model truncated at (t, t).

    lambda_l = lambda_l^C / D1C(0, t) and lambda_u = 2 - delta'(t)/D1C(t, t),
    with the partial derivatives taken by finite differences (one-sided at
    the boundaries).  Since D1C(0, t) <= 1, the lower coefficient can only
    grow under truncation.
    """
    if model.d != 2:
        raise ValueError("equal-threshold tail dependence needs a bivariate model")
    if not model.exchangeable:
        raise ValueError("model must be exchangeable for the equal-threshold formulas")
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError("threshold t must lie in (0, 1]")
    if float(model.cdf([t, t])) <= 0.0:
        raise ValueError("C(t, t) must be positive")

    lam_l_c, _ = model_tail_dep(model)
    d1_zero = float(model.cdf([_FD_STEP, t])) / _FD_STEP  # one-sided at the 0 boundary
    if not d1_zero > 0:
        raise ArithmeticError("degenerate partial derivative D1 C(0, t)")
    lam_l = lam_l_c / d1_zero

    hi = min(t + _FD_STEP, 1.0)
    lo = max(t - _FD_STEP, 0.0)
    width = hi - lo
    d1_tt = (float(model.cdf([hi, t])) - float(model.cdf([lo, t]))) / width
    ddelta = (float(model.cdf([hi, hi])) - float(model.cdf([lo, lo]))) / width
    if not d1_tt > 0:
        raise ArithmeticError("degenerate partial derivative D1 C(t, t)")
    lam_u = 2.0 - ddelta / d1_tt

    lam_l = min(max(lam_l, lam_l_c), 1.0)
    lam_u = min(max(lam_u, 0.0), 1.0)
    return TailDepReport(lam_l, lam_u, "numeric-limit")


def kendall_dist_truncated(g, t, u):
    """K(u) = P(W <= u) for W = C_t(U_t), truncated-Archimedean Kendall law.

    The truncation is the Archimedean copula of the tilted generator psi_h
    (``truncate_general(ArchimedeanCopula(g, d), t).model.generator``), so K
    is psi_h's classical Kendall law,

        K(u) = sum_{k<d} (-x)^k psi_h^(k)(x) / k!,   x = psi_h_inv(u),

    whose k = 0 term psi_h(x) is u itself.  Needs psi_h'' and is therefore
    limited to d = len(t) in {2, 3}; t = 1 is g's own law.  The other terms
    are summed where 0 < x < inf: they vanish at x = 0, also where psi_h^(k)
    is infinite there (Gumbel and Joe at t = 1, u = 1).  Where x overflows
    (Clayton(2) below u ~ 1e-154) K is its lower bound u.
    """
    d = int(np.size(getattr(t, "t", t)))
    if d not in (2, 3):
        raise ValueError("Kendall distribution implemented for d in {2, 3}")
    gh = truncate_general(ArchimedeanCopula(g, d), t).model.generator

    u_in = np.asarray(u, dtype=float)
    uu = np.atleast_1d(u_in)
    _check_range(uu, 0.0, 1.0, "u must lie in [0, 1]")
    out = uu.copy()
    x = np.asarray(gh.psi_inv(uu))
    inner = (x > 0.0) & (x < np.inf)
    xi = x[inner]
    # -x psi_h'(x) on the log scale, where psi_h' underflows long before x overflows
    terms = np.exp(np.log(xi) + np.asarray(gh.log_neg_psi_deriv(xi)))
    if d == 3:
        terms += 0.5 * xi * (xi * np.asarray(gh.psi_deriv(xi, 2)))
    out[inner] = np.minimum(uu[inner] + terms, 1.0)
    return float(out[0]) if u_in.ndim == 0 else out


def empirical_tail_dep(data, q):
    """Empirical tail-dependence estimates at threshold q from bivariate data.

    lambda_l = C_n(q, q)/q and lambda_u = (1 - 2(1-q) + C_n(1-q, 1-q))/q with
    the empirical copula C_n of the rows (copula scale, checked).  Standard
    errors come from a bootstrap with ``_N_BOOT`` resamples, seeded by
    ``_BOOT_SEED`` so repeated calls agree; since both statistics are means
    of row indicators, resampling reduces to exact binomial draws.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError("empirical tail dependence expects bivariate data")
    n = X.shape[0]
    if n < 1000:
        raise ValueError("need at least 1000 rows for tail estimation")
    _check_range(X, 0.0, 1.0, "tail estimation rows must lie in [0, 1]")
    q = float(q)
    if not 0.0 < q < 0.5:
        raise ValueError("threshold q must lie in (0, 0.5)")
    p_lo = float(np.mean((X[:, 0] <= q) & (X[:, 1] <= q)))
    p_hi = float(np.mean((X[:, 0] <= 1.0 - q) & (X[:, 1] <= 1.0 - q)))
    lam_l = p_lo / q
    lam_u = (1.0 - 2.0 * (1.0 - q) + p_hi) / q
    rng = rng_stream(_BOOT_SEED)
    boot_lo = rng.binomial(n, p_lo, size=_N_BOOT) / (n * q)
    boot_hi = rng.binomial(n, min(max(p_hi, 0.0), 1.0), size=_N_BOOT) / (n * q)
    return TailDepReport(
        lam_l,
        lam_u,
        "empirical",
        se_lower=float(np.std(boot_lo, ddof=1)),
        se_upper=float(np.std(boot_hi, ddof=1)),
    )


def _tied_pairs(first):
    """Pairs inside runs of equal sorted values; ``first`` marks each run's start."""
    cnt = np.diff(np.append(np.flatnonzero(first), first.size))
    return int((cnt * (cnt - 1) // 2).sum())


def _dense_ranks(v):
    """0-based dense ranks of v and the number of tied pairs in it."""
    order, first = _sorted_runs(v)
    ranks = np.empty(v.size, dtype=np.intp)
    ranks[order] = np.cumsum(first) - 1
    return ranks, _tied_pairs(first)


def _discordant_pairs(s):
    """Pairs i < j with s[i] > s[j], by a bottom-up merge of sorted runs.

    At width w each row of 2w holds two sorted halves; a stable argsort
    merges them, and a right-half element that moves left from column idx to
    column p passes exactly idx - p larger left-half elements.  Left-half
    elements only move right.  Padding with n, above every rank, adds none.
    """
    n = s.size
    size = 1 << (n - 1).bit_length()
    s = np.concatenate([s, np.full(size - n, n, dtype=s.dtype)])
    dis = 0
    w = 1
    while w < size:
        rows = s.reshape(-1, 2 * w)
        idx = np.argsort(rows, axis=1, kind="stable")
        shift = idx - np.arange(2 * w)
        dis += int(shift[shift > 0].sum())
        s = np.take_along_axis(rows, idx, axis=1)
        w *= 2
    return dis


def empirical_kendall_tau(data, j1=0, j2=1):
    """Sample Kendall's tau-b of two columns, in O(n log n) (Knight 1966).

    Dense ranks of each column give the x-tied and y-tied pair counts n1 and
    n2; sorting the rows by (x-rank, y-rank) gives the joint ties n3, and the
    discordant pairs are the strict inversions of the y-ranks in that order,
    counted by a bottom-up merge.  With n0 = n (n - 1) / 2,

        tau_b = (n0 - n1 - n2 + n3 - 2 dis) / sqrt(n0 - n1) / sqrt(n0 - n2),

    all counts exact integers.  Dividing by the two square roots in turn can
    leave perfectly concordant columns one ulp off 1, so the result is rounded
    to 15 decimals, far finer than the statistic's own step 4 / (n (n - 1))
    for n up to 6e7.  A constant column has no defined tau and raises; a
    column holding a NaN gives NaN.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need an (n, d) array with n >= 2")
    x = X[:, j1]
    y = X[:, j2]
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("Kendall tau is undefined for a constant column")
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    n = x.size
    rx, n1 = _dense_ranks(x)
    ry, n2 = _dense_ranks(y)
    key = rx * (int(ry.max()) + 1) + ry
    order, first = _sorted_runs(key)
    n3 = _tied_pairs(first)
    dis = _discordant_pairs(ry[order])
    n0 = n * (n - 1) // 2
    tau = (n0 - n1 - n2 + n3 - 2 * dis) / np.sqrt(n0 - n1) / np.sqrt(n0 - n2)
    return round(float(tau), 15)

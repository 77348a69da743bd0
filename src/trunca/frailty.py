"""Frailty laws and their exponential tilts, as plain samplers.

Every Archimedean generator is the Laplace-Stieltjes transform of a frailty
law F; tilting the generator by h reweights F by ``e^{-h v}`` (normalized by
``psi(h)``).  This module holds the laws only and imports nothing from the
rest of the package: each generator class picks its law in ``_frailty``.
numpy supplies only the gamma, beta and continuous laws; every discrete law
is a geometric law or a mixture of them, in O(1) work per draw.
``_geometric`` draws ``V = ceil(E / -log q)``, P(V > k) = q^k: AMH's
geometric law (a fixed q) and the Sibuya law (``q = 1 - P``,
``P ~ Beta(alpha, 1 - alpha)``).  ``_log_series`` draws the log-series law
of Frank by Kemp's mixture (``q = 1 - (1 - p)^U``), which also proposes for
the tilted Sibuya law (a two-envelope rejection with overall constant below
1/(1 - 1/e) ~ 1.582).  The module also holds ``log1mexp``, with which both
it and the generators work, and the positive stable law and its
exponential tilt.  The tilted stable law, the frailty of every truncated
Gumbel and outer-power model, is exact at every tilt: fast rejection where
lambda = h^alpha < 1.5, at about e^lambda stable proposals per draw, and
Devroye's double rejection from 1.5 up, at 1.1-1.6 outer iterations per draw
and memory flat in the tilt.  It needs numpy only.

Every sampler takes the number of draws ``size``, a whole number as seeds
and stream indices are (``_whole``), and returns an array of that length.
Discrete samplers return integer-valued float arrays: Sibuya variates can
exceed 2**53 (the law has infinite mean), where exact integer representation
is neither possible nor statistically relevant.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rng_stream",
    "sample_frailty",
    "sample_sibuya",
    "sample_tilted_sibuya",
    "sample_stable",
    "sample_tilted_stable",
]


def _whole(x, what="a dimension"):
    """x as an int: 3 and 3.0 pass; 2.9, "3" and True raise ValueError."""
    try:
        if int(x) == x and type(x) not in (bool, np.bool_):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be a whole number, got {x!r}")


def rng_stream(seed, stream=0):
    """A counter-based (Philox) generator; (seed, stream) determines all draws.

    Distinct stream indices give statistically independent streams for the
    same seed, which is how parallel workers and auxiliary randomness (e.g.
    bootstrap) stay reproducible.
    """
    seed, stream = _whole(seed, "a seed"), _whole(stream, "a stream index")
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative integers")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_LOG2 = 0.6931471805599453
_SIB_MAX = 1e300


def _where(cond, f, g, x):
    """``np.where(cond, f(x), g(x))`` bit for bit, as an array of x's shape (0-d included),
    each branch evaluated only where it is taken: the more common one on all of x, the
    other under its mask."""
    x, cond = np.asarray(x, dtype=float), np.asarray(cond)
    n = np.count_nonzero(cond)
    common, other = (f, g) if 2 * n > x.size else (g, f)
    out = np.asarray(common(x))
    if 0 < n < x.size:
        # by flat index, not boolean mask; put, because out need not be C-contiguous
        idx = np.flatnonzero(~cond if common is f else cond)
        out.put(idx, other(x.take(idx)))
    return out


def log1mexp(x):
    """log(1 - exp(x)) for x <= 0, stable near both endpoints.

    Uses ``log(-expm1(x))`` for x > -log 2 and ``log1p(-exp(x))`` otherwise,
    each only on the values that take it.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _where(x > -_LOG2, lambda y: np.log(-np.expm1(y)),
                      lambda y: np.log1p(-np.exp(y)), x)


def _geometric(log_q, rng):
    """Geometric draws on {1, 2, ...} with P(V > k) = q^k, one per entry of ``log_q``.

    ``V = ceil(E / -log q)`` with E unit exponential: O(1) work per draw for
    any q.  ``log q = -inf`` (q = 0) gives 1; a q that rounds to 1 gives the
    cap ``_SIB_MAX``.
    """
    with np.errstate(divide="ignore"):
        v = np.ceil(rng.standard_exponential(log_q.size) / -log_q)
    return np.clip(v, 1.0, _SIB_MAX)


def _log_series(log_r, rng, n):
    """n log-series draws, P(V = k) proportional to p^k / k, given log r = log(1 - p).

    Kemp's (1981) mixture: V is geometric given q = 1 - r^U1 <= p, drawn as
    1 + floor(log U2 / log q), so U2 >= p gives 1 and U1 is drawn only where U2 < p.
    """
    u = rng.random(n)
    big = np.flatnonzero(u < -np.expm1(log_r))
    v = np.ones(n)
    with np.errstate(divide="ignore"):
        v[big] = 1.0 + np.floor(np.log(u.take(big)) / log1mexp(rng.random(big.size) * log_r))
    return np.minimum(v, _SIB_MAX, out=v)


def _sibuya_log_q(alpha, rng, size):
    # log(1 - P) for P ~ Beta(alpha, 1 - alpha), whose point mass at 1 is the
    # alpha = 1 limit; rng.beta itself can return exactly 1 (alpha = 0.9)
    if alpha == 1.0:
        return np.full(size, -np.inf)
    with np.errstate(divide="ignore"):
        return np.log1p(-rng.beta(alpha, 1.0 - alpha, size))


def sample_sibuya(alpha, rng, size):
    """Sibuya(alpha) draws as a Beta mixture of geometric laws.

    P(V > k) = prod_{i=1..k}(1 - alpha/i) = E[(1 - P)^k] for
    P ~ Beta(alpha, 1 - alpha), so V given P is geometric with success
    probability P: one beta and one exponential draw, O(1) work per draw
    even though V has infinite mean.  Draws are capped at ``_SIB_MAX``
    (1e300), reached only where P underflows; alpha = 1 gives ones.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("Sibuya exponent alpha must lie in (0, 1]")
    n = _whole(size, "a sample size")
    return _geometric(_sibuya_log_q(alpha, rng, n), rng)


def sample_tilted_sibuya(alpha, p, rng, size, return_stats=False):
    """Exponentially tilted Sibuya draws: pmf p^k Sib(alpha)-pmf(k), normalized.

    Two rejection envelopes: propose Sibuya(alpha) and thin by p^(V-1), or
    propose Log(p) and thin by prod_{j<V}(1 - alpha/j) = E[(1 - P)^(V-1)],
    P ~ Beta(alpha, 1 - alpha): V = 1 is accepted outright and V > 1 against
    one beta draw, so every proposal costs O(1).  The sampler picks the
    envelope with the smaller rejection constant (the selection rule
    p <= -alpha log(1-p)), keeping the constant below 1/(1 - 1/e) ~ 1.582
    overall.  ``return_stats`` additionally returns
    (n_accepted, n_proposals).
    """
    alpha = float(alpha)
    p = float(p)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0.0 < p < 1.0:
        raise ValueError("tilt parameter p = e^{-h} must lie in (0, 1)")
    out, proposals = _tilted_sibuya(alpha, p, np.log(p), rng, _whole(size, "a sample size"))
    if return_stats:
        return out, out.size, proposals
    return out


def _tilted_sibuya(alpha, p, logp, rng, n):
    """``sample_tilted_sibuya`` given log p as well: returns (draws, proposals).

    A tilt h below about 1.1e-16 rounds p = e^{-h} to 1, yet the thinning
    p^(V-1) = e^{-h (V-1)} still matters in Sibuya's infinite-mean tail, so
    the Sibuya envelope reads log p = -h; the selection rule never picks the
    log envelope there.
    """
    with np.errstate(divide="ignore"):
        use_sibuya = p <= -alpha * np.log1p(-p)
    out = np.empty(n)
    pending = np.arange(n)
    proposals = 0
    while pending.size:
        k = pending.size
        with np.errstate(divide="ignore"):
            if use_sibuya:
                v = sample_sibuya(alpha, rng, size=k)
                acc = np.log(rng.random(k)) <= (v - 1.0) * logp
            else:
                v = _log_series(np.log1p(-p), rng, k)
                logu = np.log(rng.random(k))
                # no beta draw at V = 1, where 0 * log(1 - P) would be NaN at P = 1
                acc = v == 1.0
                big = np.flatnonzero(~acc)
                acc[big] = logu.take(big) <= (v.take(big) - 1.0) * _sibuya_log_q(alpha, rng, big.size)
        hit = np.flatnonzero(acc)
        out[pending.take(hit)] = v.take(hit)
        proposals += k
        pending = pending.take(np.flatnonzero(~acc))
    return out, proposals


def sample_stable(alpha, rng, size):
    """Positive stable draws with Laplace transform exp(-t^alpha), alpha in (0, 1].

    Kanter's trigonometric representation from one uniform and one unit
    exponential; alpha = 1 is the unit point mass.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("stable exponent alpha must lie in (0, 1]")
    n = _whole(size, "a sample size")
    if alpha == 1.0:
        return np.ones(n)
    u = np.clip(rng.random(n), 1e-16, 1.0 - 1e-16)
    w = np.maximum(rng.standard_exponential(n), 1e-300)
    th = np.pi * u
    a = 1.0 - alpha
    logs = (
        np.log(np.sin(alpha * th))
        + (a / alpha) * np.log(np.sin(a * th))
        - (1.0 / alpha) * np.log(np.sin(th))
        - (a / alpha) * np.log(w)
    )
    return np.exp(logs)


def sample_tilted_stable(alpha, h, rng, size):
    """Draws with Laplace transform exp(-((t + h)^alpha - h^alpha)).

    ``h`` may be an array of per-draw tilts.  Each row picks one of two
    exact samplers by its own tilt lambda = h^alpha.  The crossover, 1.5,
    is where the two cost about the same per draw:

    - lambda < 1.5: fast rejection.  A stable proposal v is accepted with
      probability exp(-h v), the tilt itself, so accepted draws follow the
      tilted law; e^lambda (below 4.5) proposals per draw.  These rows are
      drawn first, after the untilted ones, so their draws do not depend on
      the other rows.
    - lambda >= 1.5: Devroye's double rejection (``_double_rejection``).
      It proposes Kanter's pair (U, E), S = (A(U) / E)^b, from an envelope
      that lies above the tilted joint density of the pair everywhere, and
      accepts with the ratio of the two, so draws are exact.  It takes
      1.1-1.6 outer iterations per draw at any tilt, in memory flat in it.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("stable exponent alpha must lie in (0, 1]")
    n = _whole(size, "a sample size")
    h = np.broadcast_to(np.asarray(h, dtype=float), (n,))
    if not np.all((h >= 0) & np.isfinite(h)):
        raise ValueError("tilt h must be finite and nonnegative")
    if alpha == 1.0:
        return np.ones(n)

    zero = h == 0.0
    n_zero = np.count_nonzero(zero)
    if n_zero == n:
        return sample_stable(alpha, rng, size=n)
    out = np.empty(n)
    if n_zero:
        out[np.flatnonzero(zero)] = sample_stable(alpha, rng, size=n_zero)
    lam = np.power(h, alpha)
    pending = np.flatnonzero(~zero & (lam < 1.5))
    while pending.size:
        s = sample_stable(alpha, rng, size=pending.size)
        with np.errstate(divide="ignore"):
            acc = np.log(rng.random(pending.size)) <= -h.take(pending) * s
        hit = np.flatnonzero(acc)
        out[pending.take(hit)] = s.take(hit)
        pending = pending.take(np.flatnonzero(~acc))
    strong = np.flatnonzero(lam >= 1.5)
    if strong.size:
        out[strong] = _double_rejection(alpha, lam[strong], rng)[0]
    return out


# Devroye (2009, ACM TOMACS 19(4):18) writes the tilted stable law through
# Kanter's representation S = (A(U) / E)^b, b = (1 - alpha)/alpha, with U
# uniform on [0, pi) and E unit exponential.  Tilting by h = lambda^(1/alpha)
# gives (U, E) the joint density proportional to exp(-phi_U(E)), phi_U(E) =
# E + h (A(U)/E)^b.  Given U, phi_U is convex with its minimum lambda x2(U)
# at the mode m = (1 - alpha) lambda x2(U), where x2 = 1/zeta^2 =
# (A(U) / A(0))^(1 - alpha) rises from 1 at U = 0 to infinity at pi, and
# phi_U'' >= 1/delta^2 on (0, m] with delta = sigma sqrt(x2), sigma =
# sqrt(gamma), gamma = lambda alpha (1 - alpha).  So exp(-phi_U(E) +
# phi_U(m)) lies below a half normal of scale delta left of m, 1 on
# [m, m + delta], and an exponential of scale z = 1/phi_U'(m + delta) beyond;
# that envelope has mass I(U) = (1 + c1) sigma sqrt(x2) + z, c1 = sqrt(pi/2).
# Stage 1 draws U from its marginal under the envelope,
#     q(U) = I(U) exp(-lambda (x2(U) - 1)),
# stage 2 draws E from the envelope given U, and one rejection test against
# exp(-phi_U(E)) makes (U, E) exact.
_C1 = np.sqrt(np.pi / 2.0)
_BIN = 0.125  # hat bin width, in body widths 1/sqrt(gamma)
_SPAN = 8.0  # body widths binned before one last bin reaches pi
_MIN_BINS = 16


def _zolotarev_x2(alpha, u):
    """x2(u) = (A(u) / A(0))^(1 - alpha) for Zolotarev's A, u in (0, pi]."""
    a = 1.0 - alpha
    return (np.sin(alpha * u) / alpha) ** alpha * (np.sin(a * u) / a) ** a / np.sin(u)


def _envelope(alpha, lam, x2):
    """The stage-2 envelope given U: mode m, half-width delta, exponential scale z, mass I."""
    a = 1.0 - alpha
    delta = np.sqrt(alpha * a * lam * x2)
    m = a * lam * x2
    # 1/z = phi'(m + delta) = 1 - (m / (m + delta))^(1/alpha)
    z = -1.0 / np.expm1(-np.log1p(delta / m) / alpha)
    return m, delta, z, (1.0 + _C1) * delta + z


def _u_hat(alpha, lam_lo, lam_hi):
    """A piecewise-constant hat over q on [0, pi) for every lambda in [lam_lo, lam_hi].

    I rises in u and lambda and the other factor falls in both, so a bin's
    height is I at the bin's right edge and ``lam_hi`` times the other factor
    at its left edge and ``lam_lo``.  The bin that reaches pi, where I is
    infinite, takes q at its left edge: for lambda >= 1/2 q itself is
    nonincreasing in u.  With x = sqrt(x2) >= 1 rising in u, both x e^(-lambda
    x^2) and z e^(-lambda x^2) fall once x^2 >= 1/(2 lambda), the second
    because z = 1/f(y), f(y) = 1 - (1 + y)^(-1/alpha) is concave with
    f(0) = 0 and y = delta/m is proportional to 1/x, so d log z / dx <= 1/x.
    Bins are ``width`` apart from 0, the last one reaching pi.  Returns the
    bin edges, the hat's mass below each edge, ``width`` and the log heights.
    """
    gamma1 = alpha * (1.0 - alpha)  # gamma at lambda = 1
    width = min(_BIN / np.sqrt(gamma1 * lam_hi), np.pi / _MIN_BINS)
    left = np.arange(0.0, min(np.pi, _SPAN / np.sqrt(gamma1 * lam_lo)), width)
    x2 = np.ones(left.size)
    x2[1:] = _zolotarev_x2(alpha, left[1:])
    rising = _envelope(alpha, lam_hi, x2)[3]
    log_h = np.log(np.append(rising[1:], rising[-1])) - lam_lo * (x2 - 1.0)
    edges = np.append(left, np.pi)
    cum = np.concatenate([[0.0], np.cumsum(np.exp(log_h) * np.diff(edges))])
    return edges, cum, width, log_h


def _double_rejection(alpha, lam, rng):
    """Tilted stable draws for tilts ``lam = h^alpha >= 1/2`` by double rejection.

    Rows share one stage-1 hat per band of lambda about sqrt(2) wide; stage
    2 uses each row's own lambda, so every draw is exact.  All bands run in
    one loop, their rows grouped by band so that each band's stage 1 is one
    slice of the pending rows.  A U accepted in stage 1 leaves E = log q(U) -
    log hat(U) + Exp(1) >= 0, which is Exp(1) again and serves as stage 2's
    test variable.  Returns the draws and the number of outer iterations
    (stage-2 attempts).
    """
    b = (1.0 - alpha) / alpha
    out = np.empty(lam.size)
    outer = 0
    # rows grouped by band (a radix sort of the small band numbers), so that a
    # band's pending rows are one slice, from one of its bounds to the next
    band = np.floor(2.0 * np.log2(lam / lam.min())).astype(np.int16)
    rows = np.argsort(band, kind="stable")
    count = np.bincount(band)
    bounds = np.cumsum(np.append(0, count[count > 0]))
    hats = [_u_hat(alpha, lb.min(), lb.max()) for lb in np.split(lam.take(rows), bounds[1:-1])]
    while rows.size:
        k = rows.size
        lk = lam.take(rows)
        r = 1.0 - rng.random(k)
        u, log_h = np.empty(k), np.empty(k)
        for (edges, cum, width, hat_h), lo, hi in zip(hats, bounds[:-1], bounds[1:]):
            # the hat's inverse cdf is piecewise linear; r is in (0, 1], so u is in (0, pi]
            u[lo:hi] = np.interp(r[lo:hi] * cum[-1], cum, edges)
            log_h[lo:hi] = hat_h[np.minimum(u[lo:hi] / width, hat_h.size - 1).astype(np.intp)]
        x2 = _zolotarev_x2(alpha, u)
        m, delta, z, mass = _envelope(alpha, lk, x2)
        with np.errstate(invalid="ignore"):
            e = rng.standard_exponential(k) + np.log(mass) - lk * (x2 - 1.0) - log_h
        ok = np.flatnonzero(e >= 0.0)
        outer += ok.size
        m, delta, z, mass, e, lk, x2 = (v.take(ok) for v in (m, delta, z, mass, e, lk, x2))
        j = ok.size
        pick = rng.random(j) * mass
        nrm = rng.standard_normal(j)
        ex = rng.standard_exponential(j)
        low = pick < _C1 * delta
        high = pick >= (1.0 + _C1) * delta
        step = np.where(low, -delta * np.abs(nrm), np.where(high, delta + z * ex, pick - _C1 * delta))
        drop = np.where(low, 0.5 * nrm * nrm, np.where(high, ex, 0.0))
        d = step / m
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            # phi_U(E) - phi_U(m) at E = m (1 + d)
            excess = m * (d + np.expm1(-b * np.log1p(d)) / b)
        acc = np.flatnonzero((d > -1.0) & (excess - drop <= e))
        hit = ok.take(acc)
        x2, lk, d = (v.take(acc) for v in (x2, lk, d))
        # S = (A(U) / E)^b = alpha x2 (lambda (1 + d))^(-b)
        out[rows.take(hit)] = alpha * x2 * (lk * (1.0 + d)) ** -b
        keep = np.ones(k, dtype=bool)
        keep[hit] = False
        rest = np.flatnonzero(keep)
        rows = rows.take(rest)
        # a bound moves down by the rows accepted before it
        bounds = np.searchsorted(rest, bounds)
    return out, outer


def sample_frailty(g, h, rng, size):
    """Draws from the frailty with Laplace transform psi(t + h)/psi(h).

    ``h = 0`` gives the base frailty of the generator; ``h > 0`` its
    exponential tilt.  Tilted generators fold their own tilt into ``h``.
    The generator's class picks the law (``g._frailty``).
    """
    h = float(h)
    if not h >= 0:
        raise ValueError("tilt h must be nonnegative")
    return g._frailty(h, rng, _whole(size, "a sample size"))

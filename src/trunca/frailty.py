"""Frailty laws and their exponential tilts, as plain samplers.

Every Archimedean generator is the Laplace-Stieltjes transform of a frailty
law F; tilting the generator by h reweights F by ``e^{-h v}`` (normalized by
``psi(h)``).  This module holds the laws only and imports nothing from the
rest of the package: each generator class picks its law in ``_frailty``.
numpy supplies the gamma and geometric laws.  Mixtures of geometric laws,
``V = ceil(E / -log Q)`` for a random ``Q`` (``_geometric``), give the
log-series law of Frank (``Q = 1 - (1 - p)^U``) and the Sibuya law
(``Q = 1 - P``, ``P ~ Beta(alpha, 1 - alpha)``) in O(1) work per draw.  This
module adds the Sibuya law and its tilt (a two-envelope rejection with
overall constant below 1/(1 - 1/e) ~ 1.582), and the positive stable law and
its exponential tilt (a fast rejection over m ~ h^alpha summands).  It needs
numpy only.

Every sampler takes the number of draws ``size`` and returns an array of that
length.  Discrete samplers return integer-valued float arrays: Sibuya
variates can exceed 2**53 (the law has infinite mean), where exact integer
representation is neither possible nor statistically relevant.
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

_MAX_TILT_SUMMANDS = 1 << 20


def rng_stream(seed, stream=0):
    """A counter-based (Philox) generator; (seed, stream) determines all draws.

    Distinct stream indices give statistically independent streams for the
    same seed, which is how parallel workers and auxiliary randomness (e.g.
    bootstrap) stay reproducible.
    """
    seed = int(seed)
    stream = int(stream)
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative integers")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_SIB_MAX = 1e300


def _geometric(log_q, rng):
    """Geometric draws on {1, 2, ...} with P(V > k) = q^k, one per entry of ``log_q``.

    ``V = ceil(E / -log q)`` with E unit exponential: O(1) work per draw for
    any q.  ``log q = -inf`` (q = 0) gives 1; a q that rounds to 1 gives the
    cap ``_SIB_MAX``.
    """
    with np.errstate(divide="ignore"):
        v = np.ceil(rng.standard_exponential(log_q.size) / -log_q)
    return np.clip(v, 1.0, _SIB_MAX)


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
    n = int(size)
    return _geometric(_sibuya_log_q(alpha, rng, n), rng)


def sample_tilted_sibuya(alpha, p, rng, size, branch="auto", return_stats=False):
    """Exponentially tilted Sibuya draws: pmf p^k Sib(alpha)-pmf(k), normalized.

    Two rejection envelopes: propose Sibuya(alpha) and thin by p^(V-1), or
    propose Log(p) and thin by prod_{j<V}(1 - alpha/j) = E[(1 - P)^(V-1)],
    P ~ Beta(alpha, 1 - alpha): V = 1 is accepted outright and V > 1 against
    one beta draw, so every proposal costs O(1).  ``branch="auto"`` picks
    the envelope with the smaller rejection constant (the selection rule
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
    if branch == "auto":
        use_sibuya = p <= -alpha * np.log1p(-p)
    elif branch in ("sibuya", "log"):
        use_sibuya = branch == "sibuya"
    else:
        raise ValueError("branch must be one of 'auto', 'sibuya', 'log'")

    n = int(size)
    out = np.empty(n)
    pending = np.arange(n)
    proposals = 0
    logp = np.log(p)
    while pending.size:
        k = pending.size
        with np.errstate(divide="ignore"):
            if use_sibuya:
                v = sample_sibuya(alpha, rng, size=k)
                acc = np.log(rng.random(k)) <= (v - 1.0) * logp
            else:
                v = rng.logseries(p, size=k).astype(float)
                logu = np.log(rng.random(k))
                # no beta draw at V = 1, where 0 * log(1 - P) would be NaN at P = 1
                acc = v == 1.0
                big = np.flatnonzero(~acc)
                acc[big] = logu[big] <= (v[big] - 1.0) * _sibuya_log_q(alpha, rng, big.size)
        out[pending[acc]] = v[acc]
        proposals += k
        pending = pending[~acc]
    if return_stats:
        return out, n, proposals
    return out


def sample_stable(alpha, rng, size):
    """Positive stable draws with Laplace transform exp(-t^alpha), alpha in (0, 1].

    Kanter's trigonometric representation from one uniform and one unit
    exponential; alpha = 1 is the unit point mass.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("stable exponent alpha must lie in (0, 1]")
    n = int(size)
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

    Fast rejection: the law is infinitely divisible, so split it into
    m = max(1, round(h^alpha)) summands; each proposes a stable variate
    scaled by m^(-1/alpha) and accepts with probability exp(-h v), whose
    per-summand mean is exp(-h^alpha / m).  The expected number of proposals
    is about e * h^alpha.  ``h`` may be an array of per-draw tilts.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("stable exponent alpha must lie in (0, 1]")
    n = int(size)
    h = np.broadcast_to(np.asarray(h, dtype=float), (n,)).copy()
    if np.any(h < 0) or np.any(np.isnan(h)):
        raise ValueError("tilt h must be nonnegative")
    if alpha == 1.0:
        return np.ones(n)

    out = np.empty(n)
    zero = h == 0.0
    if np.any(zero):
        out[zero] = sample_stable(alpha, rng, size=int(zero.sum()))
    rest = np.where(~zero)[0]
    if rest.size:
        m = np.maximum(1.0, np.round(np.power(h[rest], alpha)))
        if np.any(m > _MAX_TILT_SUMMANDS):
            raise ValueError("tilt is too large for the summand-splitting sampler")
        for mv in np.unique(m):
            idx = rest[m == mv]
            mi = int(mv)
            scale = mv ** (-1.0 / alpha)
            comp_h = np.repeat(h[idx], mi)
            vals = np.empty(idx.size * mi)
            pending = np.arange(vals.size)
            while pending.size:
                s = sample_stable(alpha, rng, size=pending.size) * scale
                with np.errstate(divide="ignore"):
                    acc = np.log(rng.random(pending.size)) <= -comp_h[pending] * s
                vals[pending[acc]] = s[acc]
                pending = pending[~acc]
            out[idx] = vals.reshape(idx.size, mi).sum(axis=1)
    return out


def sample_frailty(g, h, rng, size):
    """Draws from the frailty with Laplace transform psi(t + h)/psi(h).

    ``h = 0`` gives the base frailty of the generator; ``h > 0`` its
    exponential tilt.  Tilted generators fold their own tilt into ``h``.
    The generator's class picks the law (``g._frailty``).
    """
    h = float(h)
    if not h >= 0:
        raise ValueError("tilt h must be nonnegative")
    return g._frailty(h, rng, int(size))

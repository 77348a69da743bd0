"""Frailty laws and their exponential tilts, as plain samplers.

Every Archimedean generator is the Laplace-Stieltjes transform of a frailty
law F; tilting the generator by h reweights F by ``e^{-h v}`` (normalized by
``psi(h)``).  This module holds the laws only and imports nothing from the
rest of the package: each generator class picks its law in ``_frailty``.
numpy supplies the gamma, geometric and log-series laws
(``Generator.logseries``); this module adds the Sibuya law and its tilt (a
two-envelope rejection with overall constant below 1/(1 - 1/e) ~ 1.582), and
the positive stable law and its exponential tilt (a fast rejection over
m ~ h^alpha summands).

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


def _sibuya_log_sf(k, alpha):
    # log P(V > k) = log prod_{i<=k}(1 - alpha/i), a Gamma-function ratio;
    # past k ~ 1e8 the direct gammaln difference drowns in rounding, so switch
    # to the ratio's asymptotic expansion (error O(k^-2))
    from scipy.special import gammaln  # imported here: only Sibuya laws need it

    k = np.asarray(k, dtype=float)
    small = k < 1e8
    ks = np.where(small, k, 1.0)
    exact = gammaln(ks + 1.0 - alpha) - gammaln(ks + 1.0)
    kl = np.where(small, 1.0, k)
    asym = -alpha * np.log(kl) + np.log1p(alpha * (alpha - 1.0) / (2.0 * kl))
    return np.where(small, exact, asym) - gammaln(1.0 - alpha)


def sample_sibuya(alpha, rng, size):
    """Sibuya(alpha) draws by survival-function inversion in log space.

    P(V > k) = prod_{i=1..k}(1 - alpha/i); given U uniform, the smallest k
    with P(V > k) < U is located by exponential then binary search, O(log V)
    work per draw even though V has infinite mean.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("Sibuya exponent alpha must lie in (0, 1]")
    n = int(size)
    u = rng.random(n)
    if alpha == 1.0:
        return np.ones(n)
    logu = np.log(np.clip(u, 1e-300, None))

    hi = np.ones(n)
    act = np.where(_sibuya_log_sf(hi, alpha) >= logu)[0]
    while act.size:
        hi[act] = np.minimum(hi[act] * 2.0, _SIB_MAX)
        still = _sibuya_log_sf(hi[act], alpha) >= logu[act]
        still &= hi[act] < _SIB_MAX  # cap: P(V > 1e300) is negligible
        act = act[still]

    lo = np.where(hi > 1.0, hi / 2.0, 0.0)
    act = np.where(hi - lo > 1.0)[0]
    while act.size:
        mid = np.floor(0.5 * (lo[act] + hi[act]))
        # beyond 2**53 midpoints can pin to an endpoint; accept hi there
        stuck = (mid <= lo[act]) | (mid >= hi[act])
        dec = _sibuya_log_sf(mid, alpha) < logu[act]
        new_hi = np.where(stuck, hi[act], np.where(dec, mid, hi[act]))
        new_lo = np.where(stuck, new_hi, np.where(dec, lo[act], mid))
        hi[act] = new_hi
        lo[act] = new_lo
        act = act[new_hi - new_lo > 1.0]
    return hi


def sample_tilted_sibuya(alpha, p, rng, size, branch="auto", return_stats=False):
    """Exponentially tilted Sibuya draws: pmf p^k Sib(alpha)-pmf(k), normalized.

    Two rejection envelopes: propose Sibuya(alpha) and thin by p^(V-1), or
    propose Log(p) and thin by prod_{j<V}(1 - alpha/j).  ``branch="auto"``
    picks the envelope with the smaller rejection constant (the selection
    rule p <= -alpha log(1-p)), keeping the constant below
    1/(1 - 1/e) ~ 1.582 overall.  ``return_stats`` additionally returns
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
        if use_sibuya:
            v = sample_sibuya(alpha, rng, size=k)
            log_acc = (v - 1.0) * logp
        else:
            v = rng.logseries(p, size=k).astype(float)
            from scipy.special import gammaln

            # log prod_{j=1}^{v-1}(1 - alpha/j)
            log_acc = gammaln(v - alpha) - gammaln(1.0 - alpha) - gammaln(v)
        u = rng.random(k)
        with np.errstate(divide="ignore"):
            acc = np.log(u) <= log_acc
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

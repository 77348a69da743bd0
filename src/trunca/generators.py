"""Archimedean generator families with tilting and outer-power transforms.

A family class carries the three facts truncation needs together: ``psi``
(with its inverse and derivatives), the frailty law tilted by ``e^{-hv}``
(``_frailty``, which picks numpy's gamma or geometric law, or one of the
laws in ``frailty``) and its analytic tail coefficients
(``_tail_pair``).  Of ``psi`` a family writes ``_log_psi``, ``_psi_inv``,
``_log_neg_dpsi`` (``log(-psi')``, from which ``psi'`` is derived) and
``_d2psi``, plus ``_psi`` where it is more exact.  The base class holds the
tilted inverse ``psi_inv(psi(h) u) - h`` (``_tilted_inv``); independence,
Clayton and the power generators override it only to avoid the cancelling
difference.  Where ``psi(h) u`` is below the smallest normal float, the base
form takes AMH's, Frank's and Joe's exponential tail
``log K - log(psi(h) u)``.  The outer power and Gumbel, which is independence
to the outer power 1/theta, share one set of kernels (``_PowerGenerator``):
their tilted inverse ``h expm1(L)``, ``L = log1p(D h^-alpha) / alpha``,
takes ``exp(log h + L)`` where a tiny tilt overflows ``expm1``, and the
direct form ``(h^alpha + D)^(1/alpha) - h`` where ``D h^-alpha`` overflows
(a tiny tilt with alpha near 1, or a huge ``D``).  A generator
evaluates the Archimedean sum ``psi(sum_j psi_inv(x_j))`` (``_psi_sum``) of
its copulas, flat or nested; independence's is the exact product.
The public methods (``psi``, ``psi_inv``, ``psi_deriv`` and the logs) check
their arguments; library code that already holds its values in range calls
the ``_`` kernels, as ``_psi_sum`` and the tilted and outer-power kernels do.
As the root of a nested model a family also says which sector generators
nest under it (``_nests``), how to draw a sector's frailty given the root's
(``_inner_frailty``; roots without an inner law raise ``SamplingError``),
what each sector becomes when the nest is truncated (``_truncated_sector``)
and the form and sampling route of that truncation (``_nest_truncation``).

A generator ``psi`` maps ``[0, inf)`` onto ``(0, 1]`` with ``psi(0) = 1``,
strictly decreasing to 0, and is completely monotone on the stated parameter
ranges, so it is the Laplace-Stieltjes transform of a positive random
variable (its frailty).  The copula built from it is
``C(u) = psi(sum_j psi_inv(u_j))``.

Two transforms are closed on this class and carry the library:

* tilting, ``psi_h(t) = psi(t + h) / psi(h)`` for a tilt ``h >= 0`` -- the
  generator-level image of conditioning on ``U <= t`` (with
  ``h = psi_inv(C(t))``), equivalently an exponential ``e^{-h v}`` tilt of
  the frailty;
* the outer power, ``psi(t^alpha)`` for ``alpha in (0, 1]``.
"""

from __future__ import annotations

import numpy as np

from .frailty import (_geometric, _tilted_sibuya, sample_frailty, sample_sibuya, sample_stable,
                      sample_tilted_sibuya, sample_tilted_stable)

__all__ = [
    "SamplingError",
    "Generator",
    "IndependenceGenerator",
    "ClaytonGenerator",
    "AMHGenerator",
    "FrankGenerator",
    "GumbelGenerator",
    "JoeGenerator",
    "TiltedGenerator",
    "OuterPowerGenerator",
    "generator",
    "log1mexp",
]

_LOG2 = 0.6931471805599453
_TINY = np.finfo(float).tiny  # the smallest normal float64
_LOG_MAX = float(np.log(np.finfo(float).max))


class SamplingError(RuntimeError):
    """Raised when a sampler cannot produce the requested output."""


def _where(cond, f, g, x):
    """``np.where(cond, f(x), g(x))`` bit for bit, as an array of x's shape (0-d included),
    each branch evaluated only where it is taken: the more common one on all of x, the
    other under its mask."""
    x, cond = np.asarray(x, dtype=float), np.asarray(cond)
    n = np.count_nonzero(cond)
    common, other = (f, g) if 2 * n > x.size else (g, f)
    out = np.asarray(common(x))
    if 0 < n < x.size:
        mask = ~cond if common is f else cond
        out[mask] = other(x[mask])
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


def _check_range(x, lo, hi, message, error=ValueError):
    """(min, max) of the array x, one reduction each; raises ``error(message)`` unless
    lo <= x <= hi.  NaN fails the check, an empty x passes it."""
    x_lo, x_hi = (x.min(), x.max()) if x.size else (hi, lo)
    if not (lo <= x_lo and x_hi <= hi):
        raise error(message)
    return x_lo, x_hi


def _validated_t(t):
    t = np.asarray(t, dtype=float)
    _check_range(t, 0.0, np.inf, "generator argument t must be nonnegative")
    return t


def _validated_u(u):
    u = np.asarray(u, dtype=float)
    _check_range(u, 0.0, 1.0, "generator inverse argument must lie in [0, 1]")
    return u


def _scalar_like(out, ref):
    return float(out) if np.ndim(ref) == 0 else out


def _h_expm1(h, x):
    """h expm1(x) for h > 0, finite where expm1(x) overflows but the product does not."""
    return _where(x >= 700.0, lambda y: np.exp(np.log(h) + y), lambda y: h * np.expm1(y), x)


def _columnwise(op, block):
    """``op.reduce(block, axis=-1)`` one column at a time, in column order.

    Several times faster than numpy's row-by-row reduction of a short last
    axis, and bitwise equal to it up to 7 columns (numpy's sum unrolls from 8).
    """
    # numpy's sum starts from +0, so columns of -0 sum to +0
    out = block[..., 0] + 0.0 if op is np.add else block[..., 0].copy()
    for j in range(1, block.shape[-1]):
        op(out, block[..., j], out=out)
    return out


class Generator:
    """Base class: evaluation, inversion, two derivatives, tilt, outer power.

    ``psi_deriv(t, 1)`` is ``-exp(_log_neg_dpsi(t))``: a family writes psi'
    once, in log form.  ``_psi`` defaults to ``exp(_log_psi)``.  Public
    methods validate and set ``np.errstate``; the ``_`` kernels take arrays
    already in range and do neither, so a caller of a kernel sets both.
    """

    family: str = ""
    theta = None
    # (form, route) of a truncated nest under this root: see ``sampling.sample_truncated``
    _nest_truncation = ("nested", "oracle")

    def _psi(self, t):
        return np.exp(self._log_psi(t))

    def _log_psi(self, t):
        raise NotImplementedError

    def _psi_inv(self, u):
        raise NotImplementedError

    def _d2psi(self, t):
        raise NotImplementedError

    def _log_neg_dpsi(self, t):
        raise NotImplementedError

    def psi(self, t):
        """psi(t) for t >= 0 (elementwise on arrays)."""
        t = _validated_t(t)
        return _scalar_like(self._psi(t), t)

    def log_psi(self, t):
        """log psi(t), exact even where psi underflows."""
        t = _validated_t(t)
        return _scalar_like(self._log_psi(t), t)

    def psi_inv(self, u):
        """Inverse generator; psi_inv(0) = +inf for these (strict) families."""
        u = _validated_u(u)
        with np.errstate(divide="ignore", over="ignore"):
            out = self._psi_inv(u)
        return _scalar_like(out, u)

    def psi_deriv(self, t, order=1):
        """psi'(t) or psi''(t); higher orders are not implemented."""
        if order not in (1, 2):
            raise ValueError("generator derivatives are implemented for orders 1 and 2 only")
        t = _validated_t(t)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = -np.exp(self._log_neg_dpsi(t)) if order == 1 else self._d2psi(t)
        return _scalar_like(out, t)

    def log_neg_psi_deriv(self, t):
        """log(-psi'(t)); usable far beyond the range where psi' underflows."""
        t = _validated_t(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._log_neg_dpsi(t)
        return _scalar_like(out, t)

    def _psi_sum(self, block):
        """psi(sum_j psi_inv(x_j)) over the last axis of ``block``: the Archimedean sum."""
        with np.errstate(divide="ignore", over="ignore"):
            inv = self._psi_inv(block)
        return self._psi(_columnwise(np.add, inv))

    def tilt(self, h):
        """The generator psi(. + h)/psi(h)."""
        return TiltedGenerator(self, h)

    def outer_power(self, alpha):
        """The generator psi(.^alpha), alpha in (0, 1]."""
        return OuterPowerGenerator(self, alpha)

    def _tilted_inv(self, h, u):
        # psi_h^-1(u) = psi_inv(psi(h) u) - h, with the family's own psi; a family
        # overrides it where it can avoid the cancelling difference
        v = self._psi(h) * u
        out = self._psi_inv(v) - h
        tiny = v < _TINY
        if np.any(tiny):
            # v lost digits or underflowed: on the exponential tail psi(t) ~ K e^-t
            # of AMH, Frank and Joe, psi_inv(v) = log K - log v
            log_k = self._log_psi(745.0) + 745.0
            out = np.where(tiny, log_k - self._log_psi(h) - h - np.log(u), out)
        # the difference need not cancel at u = 1, where psi_h^-1 is exactly 0
        one = u == 1.0
        return np.where(one, 0.0, out) if np.any(one) else out

    def _frailty(self, h, rng, n):
        """n draws of the frailty tilted by e^{-hv}, Laplace transform psi(t + h)/psi(h)."""
        raise TypeError(f"no frailty sampler for generator type {type(self).__name__}")

    def _nests(self, g):
        """May ``g`` generate a sector under this root (same type, theta_root <= theta_sector)?"""
        return type(g) is type(self) and self.theta <= g.theta

    def _inner_frailty(self, g, v0, rng):
        """Frailties of sector ``g`` given root frailties ``v0``, one per entry.

        Given V0 = v0 the law has Laplace transform exp(-v0 psi0_inv(psi_s(x))).
        """
        raise SamplingError(
            "nested sampling is implemented for independence roots and Clayton, "
            "Gumbel and outer-power stacks"
        )

    def _truncated_sector(self, g, ds, c, cs):
        """Sector ``g`` (dimension ``ds``) truncated at C(t) = c, C_s(t_s) = cs, under this root."""
        return TruncatedSectorGenerator(self, g, c, cs)

    def _tail_pair(self, alpha=1.0):
        """(lambda_l at any tilt, lambda_u at tilt 0) of the generator psi(t^alpha).

        The upper coefficient is 2 - 2^(alpha kappa): kappa = 1 here, Joe
        passes alpha kappa with its kappa = 1/theta, and a power generator
        (Gumbel too) passes its own alpha times alpha to its base.
        """
        return 0.0, max(2.0 - 2.0**alpha, 0.0)

    def __repr__(self):
        if self.theta is None:
            return f"{type(self).__name__}()"
        return f"{type(self).__name__}(theta={self.theta!r})"


class IndependenceGenerator(Generator):
    """psi(t) = exp(-t); generates the independence copula.

    Carrying an explicit exponential generator lets independence take part in
    tilting, nesting and outer powers like any other family (for example,
    the outer power of independence with exponent 1/theta is Gumbel).
    """

    family = "independence"
    _nest_truncation = ("product", "product")

    def _log_psi(self, t):
        return -t

    def _psi_inv(self, u):
        return -np.log(u)

    def _d2psi(self, t):
        return np.exp(-t)

    def _log_neg_dpsi(self, t):
        return -t

    def _tilted_inv(self, h, u):
        # tilting the exponential generator is the identity
        return -np.log(u)

    def tilt(self, h):
        # e^-(t + h) / e^-h = e^-t: every finite tilt is the exponential itself
        if not 0.0 <= float(h) < np.inf:
            raise ValueError("tilt h must be nonnegative and finite")
        return self

    def _psi_sum(self, block):
        # exp(-sum_j -log x_j) is the product, which is exact
        return _columnwise(np.multiply, block)

    def _frailty(self, h, rng, n):
        return np.ones(n)

    def _nests(self, g):
        return True

    def _inner_frailty(self, g, v0, rng):
        # V0 = 1: each sector draws its own frailty, independently
        return sample_frailty(g, 0.0, rng, v0.size)

    def _truncated_sector(self, g, ds, c, cs):
        # the sectors stay independent: each is its own Archimedean truncation
        return g if ds == 1 else g.tilt(g.psi_inv(cs))


class ClaytonGenerator(Generator):
    """psi(t) = (1 + t)^(-1/theta), theta > 0."""

    family = "clayton"

    def __init__(self, theta):
        theta = float(theta)
        if not 0 < theta < np.inf:
            raise ValueError("Clayton generator requires a finite theta > 0")
        self.theta = theta

    def _log_psi(self, t):
        return -np.log1p(t) / self.theta

    def _psi_inv(self, u):
        # u^(-theta) - 1
        return np.expm1(-self.theta * np.log(u))

    def _d2psi(self, t):
        ith = 1.0 / self.theta
        return ith * (ith + 1.0) * np.exp(-(ith + 2.0) * np.log1p(t))

    def _log_neg_dpsi(self, t):
        ith = 1.0 / self.theta
        return np.log(ith) - (ith + 1.0) * np.log1p(t)

    def _tilted_inv(self, h, u):
        # psi_inv(psi(h) u) - h = (1 + h)(u^-theta - 1)
        return (1.0 + h) * np.expm1(-self.theta * np.log(u))

    def _frailty(self, h, rng, n):
        # Gamma(1/theta) tilts conjugately to Gamma(1/theta, rate 1 + h)
        return rng.gamma(1.0 / self.theta, scale=1.0 / (1.0 + h), size=n)

    def _inner_frailty(self, g, v0, rng):
        # exp(-v0 ((1 + x)^a - 1)) with a = theta0/theta_s: W = v0^(1/a) times
        # a stable S_a tilted by W
        a = self.theta / g.theta
        scaled = np.power(v0, 1.0 / a)
        return scaled * sample_tilted_stable(a, scaled, rng, size=v0.size)

    def _tail_pair(self, alpha=1.0):
        # psi is regularly varying with index -alpha/theta: the lower
        # coefficient survives truncation unchanged
        return 2.0 ** (-alpha / self.theta), super()._tail_pair(alpha)[1]


class AMHGenerator(Generator):
    """psi(t) = (1 - theta) / (exp(t) - theta), theta in [0, 1)."""

    family = "amh"

    def __init__(self, theta):
        theta = float(theta)
        if not 0.0 <= theta < 1.0:
            raise ValueError("Ali-Mikhail-Haq generator requires theta in [0, 1)")
        self.theta = theta

    def _log_psi(self, t):
        th = self.theta
        return np.log1p(-th) - t - np.log1p(-th * np.exp(-t))

    def _psi_inv(self, u):
        # log((1 - theta (1 - u)) / u)
        return np.log1p(-self.theta * (1.0 - u)) - np.log(u)

    def _d2psi(self, t):
        th = self.theta
        et = np.exp(-t)
        return (1.0 - th) * et * (1.0 + th * et) / (1.0 - th * et) ** 3

    def _log_neg_dpsi(self, t):
        th = self.theta
        return np.log1p(-th) - t - 2.0 * np.log1p(-th * np.exp(-t))

    def _frailty(self, h, rng, n):
        # Geometric(1 - theta) on {1, 2, ...} tilts to Geometric(1 - e^{-h} theta)
        p = 1.0 - self.theta * np.exp(-h)
        return rng.geometric(p, size=n).astype(float)


class FrankGenerator(Generator):
    """psi(t) = -log(1 - p e^(-t)) / theta with p = 1 - e^(-theta), theta > 0.

    All evaluations run through log1p/expm1 compositions: the naive forms
    cancel catastrophically once theta exceeds roughly 30.
    """

    family = "frank"

    def __init__(self, theta):
        theta = float(theta)
        if not 0 < theta < np.inf:
            raise ValueError("Frank generator requires a finite theta > 0")
        self.theta = theta
        self._log_p = float(log1mexp(-theta))  # log(1 - e^-theta)

    def _psi(self, t):
        z = self._log_p - t  # log(p e^-t)
        return -log1mexp(z) / self.theta

    def _log_psi(self, t):
        z = self._log_p - t
        with np.errstate(divide="ignore"):
            return _where(z < -700.0, lambda y: y - np.log(self.theta),
                          lambda y: np.log(-log1mexp(y)) - np.log(self.theta), z)

    def _psi_inv(self, u):
        # log(p) - log(1 - e^(-theta u))
        return self._log_p - log1mexp(-self.theta * u)

    def _d2psi(self, t):
        z = self._log_p - t
        return np.exp(z - 2.0 * log1mexp(z)) / self.theta

    def _log_neg_dpsi(self, t):
        z = self._log_p - t
        return z - log1mexp(z) - np.log(self.theta)

    def _frailty(self, h, rng, n):
        # Log(p) tilts to Log(p e^{-h}), geometric given Q = 1 - (1 - p)^U; the
        # log of 1 - p = e^{-h}(e^h - 1 + e^{-theta}) is exactly -theta at h = 0,
        # where p itself rounds to 1 for theta above about 37.4
        log_r = np.logaddexp(log1mexp(-h), -self.theta - h)
        return _geometric(log1mexp(rng.random(n) * log_r), rng)


class _PowerGenerator(Generator):
    """psi(t) = base_psi(t^alpha) for alpha in (0, 1]: the kernels of an outer power.

    A subclass sets ``base``, ``alpha`` and the inverse exponent ``_inv``,
    1/alpha, which Gumbel (independence to the power 1/theta) keeps as theta
    itself.  For two outer powers of one base psi0_inv(psi_s(x)) =
    x^(alpha_s / alpha0), so a root of this kind draws its sectors'
    frailties as a stable law scaled by the root's.
    """

    def _psi(self, t):
        # the base's own psi: Frank's and Joe's are more exact than exp(log_psi)
        return self.base._psi(np.power(t, self.alpha))

    def _log_psi(self, t):
        return self.base._log_psi(np.power(t, self.alpha))

    def _psi_inv(self, u):
        return np.power(self.base._psi_inv(u), self._inv)

    def _d2psi(self, t):
        a = self.alpha
        s = np.power(t, a)
        first = self.base._d2psi(s) * a * a * np.power(t, 2.0 * a - 2.0)
        if a == 1.0:
            # the second term is psi'(0) * 0 * inf at t = 0
            return first
        return first - np.exp(self.base._log_neg_dpsi(s)) * a * (a - 1.0) * np.power(t, a - 2.0)

    def _log_neg_dpsi(self, t):
        # psi'(t^alpha) alpha t^(alpha - 1); the power is 1 at alpha = 1, also at t = 0
        a = self.alpha
        log_power = (a - 1.0) * np.log(t) if a != 1.0 else 0.0
        return self.base._log_neg_dpsi(np.power(t, a)) + np.log(a) + log_power

    def _tilted_inv(self, h, u):
        # (h^alpha + D)^inv - h = h expm1(inv log1p(D h^-alpha)), D the base's tilted
        # inverse at h^alpha (for independence -log u)
        if h == 0.0:
            return self._psi_inv(u)
        ha = h**self.alpha
        if np.log(h) < -_LOG_MAX * self._inv:
            # h^-alpha overflows (a subnormal tilt, alpha near 1)
            return self._direct_tilted_inv(h, ha, u)
        out = _h_expm1(h, self._inv * np.log1p(self.base._tilted_inv(ha, u) * h**-self.alpha))
        big = np.isinf(out)
        if np.any(big):
            # D h^-alpha overflowed: D is huge (Gumbel(20)'s at a tiny tilt) or infinite
            out[big] = self._direct_tilted_inv(h, ha, u[big])
        return out

    def _direct_tilted_inv(self, h, ha, u):
        # (h^alpha + D)^inv - h keeps h^alpha, which is not below an ulp of a subnormal D
        # (an outer power of Gumbel(20) near u = 1); at D = 0, (h^alpha)^inv - h can be an ulp
        d = self.base._tilted_inv(ha, u)
        return np.where(d == 0.0, 0.0, np.power(ha + d, self._inv) - h)

    def _inner_frailty(self, g, v0, rng):
        # exp(-v0 x^a), a = inv0 / inv_s the ratio of inverse exponents: v0^(1/a) times
        # a stable S_a
        a = self._inv / g._inv
        return np.power(v0, 1.0 / a) * sample_stable(a, rng, size=v0.size)

    def _tail_pair(self, alpha=1.0):
        return self.base._tail_pair(alpha * self.alpha)


class GumbelGenerator(_PowerGenerator):
    """psi(t) = exp(-t^(1/theta)), theta >= 1: independence to the outer power 1/theta."""

    family = "gumbel"

    def __init__(self, theta):
        theta = float(theta)
        if not 1 <= theta < np.inf:
            raise ValueError("Gumbel generator requires a finite theta >= 1")
        self.theta = self._inv = theta
        self.base, self.alpha = IndependenceGenerator(), 1.0 / theta

    def _frailty(self, h, rng, n):
        # the positive stable law tilts to the exponentially tilted stable
        return sample_tilted_stable(self.alpha, h, rng, size=n)


class JoeGenerator(Generator):
    """psi(t) = 1 - (1 - e^(-t))^(1/theta), theta >= 1."""

    family = "joe"

    def __init__(self, theta):
        theta = float(theta)
        if not 1 <= theta < np.inf:
            raise ValueError("Joe generator requires a finite theta >= 1")
        self.theta = theta

    def _psi(self, t):
        return -np.expm1(log1mexp(-t) / self.theta)

    def _log_psi(self, t):
        # the inner log1mexp underflows to -0 past t ~ 745; psi(t) ~ e^-t/theta there
        return _where(t > 700.0, lambda y: -y - np.log(self.theta),
                      lambda y: log1mexp(log1mexp(-y) / self.theta), t)

    def _psi_inv(self, u):
        # -log(1 - (1-u)^theta)
        return -log1mexp(self.theta * np.log1p(-u))

    def _d2psi(self, t):
        ith = 1.0 / self.theta
        if ith == 1.0:
            return np.exp(-t)
        lw = log1mexp(-t)
        w = -np.expm1(-t)
        return ith * np.exp((ith - 2.0) * lw - t) * (w + (1.0 - ith) * np.exp(-t))

    def _log_neg_dpsi(self, t):
        ith = 1.0 / self.theta
        if ith == 1.0:
            return -np.asarray(t, dtype=float)
        return np.log(ith) + (ith - 1.0) * log1mexp(-t) - t

    def _frailty(self, h, rng, n):
        # Sibuya(1/theta) tilts to the tilted Sibuya law
        if self.theta == 1.0:
            return np.ones(n)
        if h == 0.0:
            return sample_sibuya(1.0 / self.theta, rng, size=n)
        p = np.exp(-h)
        if p == 1.0:
            # a tilt below ~1.1e-16 rounds e^{-h} to 1: thin by log p = -h itself
            return _tilted_sibuya(1.0 / self.theta, p, -h, rng, n)[0]
        return sample_tilted_sibuya(1.0 / self.theta, p, rng, size=n)

    def _tail_pair(self, alpha=1.0):
        return super()._tail_pair(alpha * (1.0 / self.theta))


class TiltedGenerator(Generator):
    """psi_h(t) = psi(t + h) / psi(h) for a base generator and tilt h >= 0.

    The inverse is ``psi_inv(psi(h) u) - h``.  Tilts compose additively, so
    tilting a tilted generator collapses onto the base.  Evaluation goes
    through ``exp(log_psi(t + h) - log_psi(h))`` to survive strong tilts.
    """

    def __init__(self, base, h):
        h = float(h)
        if not h >= 0:
            raise ValueError("tilt h must be nonnegative")
        if isinstance(base, TiltedGenerator):
            h += base.h
            base = base.base
        self.base = base
        self.h = h
        self._log_psi_h = float(base.log_psi(h))
        self.psi_h = float(np.exp(self._log_psi_h))
        if not (np.isfinite(self._log_psi_h) and self.psi_h > 0):
            raise ValueError("psi(h) must be positive for tilting")

    @property
    def family(self):
        return "tilted:" + self.base.family

    @property
    def theta(self):
        return self.base.theta

    def _log_psi(self, t):
        return self.base._log_psi(t + self.h) - self._log_psi_h

    def _psi_inv(self, u):
        return np.maximum(self.base._tilted_inv(self.h, u), 0.0)

    def _d2psi(self, t):
        return self.base._d2psi(t + self.h) / self.psi_h

    def _log_neg_dpsi(self, t):
        return self.base._log_neg_dpsi(t + self.h) - self._log_psi_h

    def _frailty(self, h, rng, n):
        return self.base._frailty(self.h + h, rng, n)

    def _nests(self, g):
        # the root of a truncated nest takes the truncated sectors of its base root;
        # tilt(0.0) finds that base also where the sectors' root is tilted itself
        if type(g) is TruncatedSectorGenerator:
            return g.root.tilt(0.0).base is self.base
        return super()._nests(g)

    def _tail_pair(self, alpha=1.0):
        # any positive tilt kills the upper tail; the lower one survives
        lam_l, lam_u = self.base._tail_pair(alpha)
        return lam_l, (lam_u if self.h == 0.0 else 0.0)

    def __repr__(self):
        return f"TiltedGenerator({self.base!r}, h={self.h!r})"


class OuterPowerGenerator(_PowerGenerator):
    """psi_op(t) = psi(t^alpha) for alpha in (0, 1].

    Requires a completely monotone base, which all implemented families are
    on their stated ranges.  Composing outer powers multiplies the exponents.
    """

    def __init__(self, base, alpha):
        alpha = float(alpha)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("outer power exponent alpha must lie in (0, 1]")
        if isinstance(base, TiltedGenerator):
            raise ValueError("outer power applies to untilted generators; tilt afterwards")
        if isinstance(base, OuterPowerGenerator):
            alpha *= base.alpha
            base = base.base
        self.base = base
        self.alpha = alpha
        self._inv = 1.0 / alpha

    @property
    def family(self):
        return "op:" + self.base.family

    @property
    def theta(self):
        return self.base.theta

    def _frailty(self, h, rng, n):
        # Conditional decomposition of the stochastic representation S V^(1/alpha):
        # tilt the mixing variable by h^alpha, then draw a stable factor tilted
        # by h V^(1/alpha); together they realize psi_op(t + h)/psi_op(h) exactly.
        a = self.alpha
        with np.errstate(over="ignore"):
            root = np.power(self.base._frailty(h**a, rng, n), self._inv)
        if not np.all(np.isfinite(root)):
            # psi_op stays far from 1 near 0 for small alpha, so no finite
            # stand-in for an overflowed factor is exact
            raise OverflowError(
                f"frailty of {self!r} overflows: the base frailty to the power "
                f"1/alpha = {self._inv!r} is not finite in float64"
            )
        return root * sample_tilted_stable(a, h * root, rng, size=n)

    def _nests(self, g):
        # outer powers of one base, with alpha_root >= alpha_sector
        return (
            type(g) is type(self)
            and type(g.base) is type(self.base)
            and g.theta == self.theta
            and self.alpha >= g.alpha
        )

    def __repr__(self):
        return f"OuterPowerGenerator({self.base!r}, alpha={self.alpha!r})"


class TruncatedSectorGenerator(Generator):
    """phi(z) = psi0(psi0_inv(psi_s(b + z)) + a) / c: sector psi_s of a truncated nest.

    With root psi0 at t, c = C(t), cs = C_s(t_s), b = psi_s_inv(cs) and
    a = psi0_inv(c) - psi0_inv(cs); the nest's root is psi0 tilted by psi0_inv(c).
    """

    def __init__(self, root, sector, c, cs):
        self.root, self.sector, self.c = root, sector, float(c)
        # 0 < c <= cs <= 1: a nest's threshold values, already in range for the kernels
        self.b = float(sector._psi_inv(cs))
        self.a = float(root._psi_inv(c)) - float(root._psi_inv(cs))

    def _psi(self, z):
        r = self.root
        # psi_s underflows to 0 for large z, where psi0_inv is +inf: psi is 0 there
        with np.errstate(divide="ignore", over="ignore"):
            return r._psi(r._psi_inv(self.sector._psi(self.b + z)) + self.a) / self.c

    def _psi_inv(self, u):
        w = self.root._psi(np.maximum(self.root._psi_inv(self.c * u) - self.a, 0.0))
        return np.maximum(self.sector._psi_inv(w) - self.b, 0.0)

    def __repr__(self):
        return f"{type(self).__name__}({self.root!r}, {self.sector!r}, a={self.a!r}, b={self.b!r})"


_FAMILY_CLASSES = {
    "independence": IndependenceGenerator,
    "clayton": ClaytonGenerator,
    "amh": AMHGenerator,
    "frank": FrankGenerator,
    "gumbel": GumbelGenerator,
    "joe": JoeGenerator,
}


def generator(family, theta=None, outer_alpha=None):
    """Build a generator by family name, optionally outer-powered.

    ``family`` is one of independence, clayton, amh, frank, gumbel, joe.
    """
    fam = str(family).lower()
    if fam not in _FAMILY_CLASSES:
        raise ValueError(f"unknown generator family {family!r}")
    if fam == "independence":
        if theta is not None:
            raise ValueError("the independence generator takes no theta")
        g = IndependenceGenerator()
    else:
        if theta is None:
            raise ValueError(f"family {fam!r} requires theta")
        g = _FAMILY_CLASSES[fam](theta)
    if outer_alpha is not None:
        g = OuterPowerGenerator(g, outer_alpha)
    return g

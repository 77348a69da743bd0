"""Copula models and the right-truncation transform.

``truncate_general`` maps a model C and a threshold vector t in (0, 1]^d with
C(t) > 0 to the copula of U | U <= t.  The construction inverts C along each
coordinate section,

    C_t(u) = C({sec_j_inv(C(t) u_j)}_j) / C(t),

and is exact whenever the sections invert analytically.  The construction
is written once, on ``TruncatedCopula``; each model class chooses its own
truncated form in ``_truncate`` and inverts its own sections in
``_section_inv`` (analytically where it can, by ITP otherwise): Archimedean
models stay Archimedean with a tilted generator (tilt psi_inv(C(t))), so
their truncation is again an ``ArchimedeanCopula``; nested models stay
nested, the root tilted by psi0_inv(C(t)) over the sectors the root
truncates them to (no tilt changes an independence root, which keeps the
product of the sectors' own truncations), bivariate Marshall-Olkin models
are the construction with their exact section inverses (the model maps its
singular curve into each truncation), and independence and comonotonicity
are fixed points, sharing one base.  ``GeneralTruncation`` is the
construction with every section inverted numerically, the reference every
closed form is checked against and the form of everything else (survival
wrappers in particular): one table of section values at up to 256 nodes
brackets every value, and ITP narrows each bracket to a width relative to
t_j, about 4-6 section evaluations per value on smooth sections and never
more than two steps beyond bisecting its cell.  Each truncation names its
``form`` and sampling ``route`` (see ``sampling.sample_truncated``); a nest's
root generator names its nest's.

Every Archimedean CDF is its generator's sum ``psi(sum_j psi_inv(u_j))``
(``Generator._psi_sum``); a nest applies the root's sum to the sector values
C_s(u_s), so an independence root multiplies them exactly.

``cdf`` checks its points once; library code that holds points already in
the unit cube evaluates a model by ``_cdf`` (a truncation's clips to [0, 1]),
and generators by their ``_`` kernels.

A truncated copula is itself a ``CopulaModel``, and truncations compose:
truncating C_t at s is truncating C at x(s), x_j(s) = sec_j_inv(C(t) s_j),
so a truncation of a truncation comes back in the source's own closed form,
and a bisection truncation composes to a bisection truncation.
Each model class also knows its analytic tail coefficients (``_tail_dep``)
and whether it is ``exchangeable``, and draws its own rows in ``_sample``,
so a closed truncation samples, and reports both, as the model it is.
The rejection oracle keeps the rows inside [0, t] of n draws by ``_propose``;
nests and Marshall-Olkin stop a proposal at its first block outside t, and
their ``_sample`` is ``_propose`` at t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .frailty import _whole, sample_frailty
from .generators import Generator, SamplingError, _check_range, _columnwise

__all__ = [
    "SamplingError",
    "CopulaModel",
    "IndependenceCopula",
    "ComonotoneCopula",
    "ArchimedeanCopula",
    "NestedArchimedeanCopula",
    "MarshallOlkinCopula",
    "SurvivalCopula",
    "survival",
    "TruncationPoint",
    "TruncatedCopula",
    "ModelTruncation",
    "GeneralTruncation",
    "truncate_general",
    "truncated_cdf",
    "ev_scaling_check",
    "box_mass",
]

BISECT_MAX_ITER = 200
BISECT_WIDTH = 1e-13
SECTION_NODES = 256  # cells of the node table that brackets each numeric section inverse
_EDGE_TOL = 1e-12


def _unit_points(u, d):
    arr = np.asarray(u, dtype=float)
    squeeze = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"expected points of dimension {d}, got shape {arr.shape}")
    lo, hi = _check_range(pts, -_EDGE_TOL, 1.0 + _EDGE_TOL, "points must lie in the unit cube")
    # the caller's own array unless a value needs clipping: library code never writes into it
    return (np.clip(pts, 0.0, 1.0) if lo < 0.0 or hi > 1.0 else pts), squeeze


def _inside(u, t):
    """``np.all(u <= t, axis=1)`` by one ``&=`` per column, not per row."""
    ok = u[:, 0] <= t[0]
    for j in range(1, u.shape[1]):
        ok &= u[:, j] <= t[j]
    return ok


def _rows_inside(u, t):
    """The rows of u inside [0, t], in order, gathered by index (a boolean mask gathers slower)."""
    return u.take(np.flatnonzero(_inside(u, t)), axis=0)


class CopulaModel:
    """Base class: CDF evaluation plus coordinate sections and their inverses."""

    kind = ""
    d: int
    exchangeable = False

    def _cdf(self, pts):
        raise NotImplementedError

    def _tail_dep(self):
        """Analytic (lambda_l, lambda_u) of the bivariate model."""
        raise TypeError(f"no analytic tail dependence for {type(self).__name__}")

    def _sample(self, n, rng):
        """n >= 1 rows of the model, as an (n, d) array."""
        raise TypeError(f"no sampler for model type {type(self).__name__}")

    def _propose(self, n, t, rng):
        """The rows inside [0, t] of n rows drawn from the model, in draw order."""
        return _rows_inside(self._sample(n, rng), t)

    def cdf(self, u):
        """C(u) for a point (d,) or a stack of points (n, d)."""
        pts, squeeze = _unit_points(u, self.d)
        out = self._cdf(pts)
        return float(out[0]) if squeeze else out

    def margin_section(self, j, x, t):
        """The section x -> C(t_1, ..., x at slot j, ..., t_d), for 0 <= j < d."""
        _check_coordinate(j, self.d)
        t = _unit_points(t, self.d)[0][0]
        x = np.asarray(x, dtype=float)
        xs = _unit_points(x.reshape(-1, 1), 1)[0][:, 0]
        out = _section(self, np.tile(t, (x.size, 1)), j, xs).reshape(x.shape)
        return float(out) if x.ndim == 0 else out

    def _section_inv(self, j, y, t, top):
        """Section inverses at values y in [0, top], top = C(t): ``_itp_section_inv``
        unless the class inverts its sections analytically.  May leave [0, t_j]
        by rounding; callers clip."""
        return _itp_section_inv(self, j, y, t, top)

    def _truncate(self, tp):
        """The truncated copula at a validated TruncationPoint."""
        return GeneralTruncation(self, tp)

    def margin_section_inv(self, j, y, t):
        """Generalized inverse inf{x : C(x; t_-j) >= y} on [0, t_j].

        The class's analytic inverse where it has one; otherwise the left end
        of an ITP bracket no wider than ``BISECT_WIDTH * t_j``.
        """
        _check_coordinate(j, self.d)
        t = _unit_points(t, self.d)[0][0]
        y = np.asarray(y, dtype=float)
        y_arr = np.atleast_1d(y)
        top = float(self.margin_section(j, t[j], t))
        _check_range(y_arr, -_EDGE_TOL, top * (1.0 + 1e-9) + _EDGE_TOL,
                     "section inverse argument outside [0, C(t)]")
        out = np.clip(self._section_inv(j, np.clip(y_arr, 0.0, top), t, top), 0.0, t[j])
        return float(out[0]) if y.ndim == 0 else out

    def __repr__(self):
        return f"{type(self).__name__}(d={self.d})"


def _check_coordinate(j, d):
    """0 <= j < d, or IndexError: a negative index is not counted from the end."""
    if not 0 <= j < d:
        raise IndexError(f"invalid coordinate index {j} for dimension {d}")


def _section(model, block, j, x):
    """Section values C(t_1, ..., x_i at slot j, ..., t_d), one per x_i, as ``cdf`` gives them.

    ``block`` is a (len(x), d) array whose rows hold t off column j; column j
    is overwritten with x.  ``margin_section`` and the numeric inverse both
    evaluate here, so the inverse brackets exactly the values
    ``margin_section`` reports.
    """
    block[:, j] = x
    return model._cdf(block)


def _itp_section_inv(model, j, y, t, top):
    """ITP bracketing (Oliveira & Takahashi 2020) of every section(x) = y at once.

    Keeps section(lo) < y <= section(hi) inside [0, t_j], with top =
    section(t_j) = C(t), down to the width BISECT_WIDTH * t_j: the error in x
    is relative to t_j at every scale.  The section is first evaluated once
    at the m - 1 interior nodes of an even grid of m = min(SECTION_NODES, n)
    cells on [0, t_j] (one cell when n <= 1), with section(0) = 0 (sections
    are grounded) and section(t_j) = top.  Searching its running maximum
    gives each value the first cell that reaches it, with the exact
    invariant, even where rounding makes the section non-monotone.

    ITP then starts from that cell: each step moves the regula-falsi point
    towards the midpoint by max(kappa1 w^2, eps/2), with kappa1 = 0.02 / t_j
    and eps half the final width (the floor keeps the step above an ulp, so
    both ends of the bracket move), then projects it into the minmax radius
    around the midpoint.  A row leaves once its bracket is narrow enough, and
    each step evaluates only the rows still open, in one (n, d) block of t
    allocated per solve.  Superlinear on smooth sections; on any section at
    most n0 = 1 step more than bisecting the cell, plus one where midpoint
    rounding ends just above the final width.
    """
    shape, y = y.shape, y.ravel()
    n = y.size
    tj = float(t[j])
    width = BISECT_WIDTH * tj
    eps = 0.5 * width
    block = np.tile(t, (n, 1))
    m = max(min(SECTION_NODES, n), 1)
    nodes = np.linspace(0.0, tj, m + 1)
    f = np.empty(m + 1)
    f[0], f[m] = 0.0, top
    if m > 1:
        f[1:m] = _section(model, block[: m - 1], j, nodes[1:m])
    f = np.maximum.accumulate(f)
    i = np.clip(np.searchsorted(f, y, "left"), 1, m)
    lo, hi = nodes[i - 1], nodes[i]
    f_lo, f_hi = f[i - 1] - y, f[i] - y
    n_max = int(np.ceil(np.log2(1.0 / (m * BISECT_WIDTH)))) + 1
    out = np.empty(n)
    rows = np.arange(n)
    for k in range(BISECT_MAX_ITER):
        w = hi - lo
        done = w <= width
        if done.any():
            # a converged row leaves with its left end, the inf-form generalized inverse
            gone, keep = np.flatnonzero(done), np.flatnonzero(~done)
            out[rows.take(gone)] = lo.take(gone)
            rows, y, w, lo, hi, f_lo, f_hi = (a.take(keep) for a in (rows, y, w, lo, hi, f_lo, f_hi))
        if rows.size == 0:
            break
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_f = lo - f_lo * w / (f_hi - f_lo)
        x_f = np.where(np.isfinite(x_f), x_f, mid)
        sigma = np.sign(mid - x_f)
        delta = np.maximum(0.02 / tj * w * w, 0.5 * eps)
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        r = np.maximum(eps * 2.0 ** (n_max - k) - 0.5 * w, 0.0)
        x = np.where(np.abs(x_t - mid) <= r, x_t, mid - sigma * r)
        f = _section(model, block[: rows.size], j, x) - y
        ge = f >= 0
        hi, f_hi = np.where(ge, x, hi), np.where(ge, f, f_hi)
        lo, f_lo = np.where(ge, lo, x), np.where(ge, f_lo, f)
    out[rows] = lo
    return out.reshape(shape)


def _shift(g, y, shift):
    """psi(max(psi_inv(y) - shift, 0)): move y down the generator scale by shift."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return g._psi(np.maximum(g._psi_inv(y) - shift, 0.0))


class _FixedPoint(CopulaModel):
    """A model that is its own truncation at every threshold."""

    exchangeable = True

    def __init__(self, d=2):
        d = _whole(d)
        if d < 2:
            raise ValueError("copula dimension must be at least 2")
        self.d = d

    def _truncate(self, tp):
        return ModelTruncation(self, tp, self, "model", "closed-model")


class IndependenceCopula(_FixedPoint):
    """C(u) = prod_j u_j."""

    kind = "independence"

    def _cdf(self, pts):
        return _columnwise(np.multiply, pts)

    def _sample(self, n, rng):
        return rng.random((n, self.d))

    def _tail_dep(self):
        return 0.0, 0.0

    def _section_inv(self, j, y, t, top):
        rest = float(np.prod(np.delete(t, j)))
        return y / rest


class ComonotoneCopula(_FixedPoint):
    """C(u) = min_j u_j."""

    kind = "comonotone"

    def _cdf(self, pts):
        return _columnwise(np.minimum, pts)

    def _sample(self, n, rng):
        u = rng.random(n)
        return np.repeat(u[:, None], self.d, axis=1)

    def _tail_dep(self):
        return 1.0, 1.0

    def _section_inv(self, j, y, t, top):
        return y.copy()


class ArchimedeanCopula(CopulaModel):
    """C(u) = psi(sum_j psi_inv(u_j)) for any generator-like object."""

    kind = "archimedean"
    exchangeable = True

    def __init__(self, generator, d=2):
        d = _whole(d)
        if d < 2:
            raise ValueError("copula dimension must be at least 2")
        if not isinstance(generator, Generator):
            raise TypeError("generator must be a Generator instance")
        self.generator = generator
        self.d = d

    def _cdf(self, pts):
        return self.generator._psi_sum(pts)

    def _section_inv(self, j, y, t, top):
        g = self.generator
        return _shift(g, y, float(np.asarray(g.psi_inv(np.delete(t, j))).sum()))

    def _truncate(self, tp):
        g = self.generator
        model = ArchimedeanCopula(g.tilt(g.psi_inv(tp.c_of_t)), self.d)
        return ModelTruncation(self, tp, model, "tilted-archimedean", "tilted-frailty")

    def _tail_dep(self):
        return self.generator._tail_pair()

    def _sample(self, n, rng):
        from .sampling import sample_archimedean  # at call time: sampling imports copulas
        return sample_archimedean(self.generator, self.d, n, rng)

    def __repr__(self):
        return f"ArchimedeanCopula({self.generator!r}, d={self.d})"


class NestedArchimedeanCopula(CopulaModel):
    """Two-level nested model C0(C_1(u_1), ..., C_S(u_S)).

    ``sectors`` is a sequence of (generator, dimension) pairs.  The root
    enforces the sufficient nesting condition at construction
    (``root._nests``): the same family with theta_root <= theta_sector,
    outer powers of one base with alpha_root >= alpha_sector, any sector
    under an independence root (a product of Archimedean blocks), or the
    truncated sectors of a tilted root's base, which make a truncated nest.
    Sampling draws the root frailty V0 and, per sector, the root's inner law
    given V0 (``root._inner_frailty``): independence roots and Clayton or
    Gumbel stacks have one; other roots raise ``SamplingError``.
    """

    kind = "nested_archimedean"

    def __init__(self, root, sectors):
        sectors = [(g, _whole(ds)) for g, ds in sectors]
        if not sectors:
            raise ValueError("need at least one sector")
        if any(ds < 1 for _, ds in sectors):
            raise ValueError("sector dimensions must be at least 1")
        d = sum(ds for _, ds in sectors)
        if d < 2:
            raise ValueError("copula dimension must be at least 2")
        if not all(root._nests(g) for g, _ in sectors):
            raise ValueError(
                f"sectors must nest under the root {root!r}: its family with theta_root <= "
                "theta_sector, or its outer-power base with alpha_root >= alpha_sector"
            )
        self.root = root
        self.sectors = sectors
        self.d = d
        self.slices = []
        start = 0
        for _, ds in sectors:
            self.slices.append(slice(start, start + ds))
            start += ds

    def _sector_cdf(self, s, block):
        if block.shape[1] == 1:
            return block[:, 0]
        return self.sectors[s][0]._psi_sum(block)

    def _sector_tops(self, t):
        """The sector values C_s(t_s) at a threshold t, one float per sector."""
        return [float(self._sector_cdf(s, np.asarray(t[sl])[None, :])[0])
                for s, sl in enumerate(self.slices)]

    def _cdf(self, pts):
        sectors = [self._sector_cdf(s, pts[:, sl]) for s, sl in enumerate(self.slices)]
        return self.root._psi_sum(np.column_stack(sectors))

    def _section_inv(self, j, y, t, top):
        s = next(s for s, sl in enumerate(self.slices) if j < sl.stop)
        g = self.sectors[s][0]
        root = self.root
        sl = self.slices[s]
        tops = self._sector_tops(t)
        outer_rest = sum(float(root.psi_inv(c)) for s2, c in enumerate(tops) if s2 != s)
        inner_rest = float(
            np.asarray(g.psi_inv(np.delete(t[sl], j - sl.start))).sum()
        )
        return _shift(g, _shift(root, y, outer_rest), inner_rest)

    def _truncate(self, tp):
        root, c = self.root, tp.c_of_t
        # the inverse kernels meet C(t) = 1 or C_s(t_s) = 1, where Joe's takes log1p(-1) = -inf
        with np.errstate(divide="ignore"):
            sectors = [(root._truncated_sector(g, ds, c, cs), ds)
                       for (g, ds), cs in zip(self.sectors, self._sector_tops(tp.t))]
            model = NestedArchimedeanCopula(root.tilt(root._psi_inv(c)), sectors)
        return ModelTruncation(self, tp, model, *root._nest_truncation)

    def biv_margin(self, s1, j1, s2, j2, u1, u2):
        """Bivariate margin of coordinates (s1, j1) and (s2, j2): the CDF at 1 elsewhere.

        Cross-sector pairs are Archimedean in the root, same-sector pairs in
        their sector generator.  Of a truncated nest (``tc.model``) these are
        the tilted root and the truncated sector generators, so a same-sector
        margin is in general *not* the truncation of the pair's own margin.
        ``u1`` and ``u2`` broadcast together and must lie in [0, 1], as the
        points of ``cdf`` do; scalars give a float.
        """
        for s, j in ((s1, j1), (s2, j2)):
            if not (0 <= s < len(self.sectors) and 0 <= j < self.sectors[s][1]):
                raise IndexError(f"invalid sector/coordinate index ({s}, {j})")
        if (s1, j1) == (s2, j2):
            raise ValueError("margin requires two distinct coordinates")
        u1, u2 = np.broadcast_arrays(np.asarray(u1, dtype=float), np.asarray(u2, dtype=float))
        pair = _unit_points(np.column_stack([u1.ravel(), u2.ravel()]), 2)[0]
        pts = np.ones((pair.shape[0], self.d))
        pts[:, [self.slices[s1].start + j1, self.slices[s2].start + j2]] = pair
        out = self._cdf(pts).reshape(u1.shape)
        return float(out) if out.ndim == 0 else out

    def _sample(self, n, rng):
        return self._propose(n, np.ones(self.d), rng)

    def _propose(self, n, t, rng):
        """U_j = psi_s(E_j / V_s), V_s from the root's inner law given V0, one
        sector at a time for the rows still inside t."""
        out = np.empty((n, self.d))
        v0 = sample_frailty(self.root, 0.0, rng, size=n)
        for (g, ds), sl in zip(self.sectors, self.slices):
            vs = self.root._inner_frailty(g, v0, rng)
            e = rng.standard_exponential((v0.size, ds))
            # the public psi, as in sample_archimedean: its scan rejects 0/0 rows
            out[:, sl] = np.asarray(g.psi(e / vs[:, None]))
            if np.any(t[sl] < 1.0):
                ok = np.flatnonzero(_inside(out[:, sl], t[sl]))
                out, v0 = out.take(ok, axis=0), v0.take(ok)
        return out

    def __repr__(self):
        inner = ", ".join(f"({g!r}, {ds})" for g, ds in self.sectors)
        return f"NestedArchimedeanCopula({self.root!r}, [{inner}])"


class MarshallOlkinCopula(CopulaModel):
    """Bivariate Marshall-Olkin copula min(u1^(1-a1) u2, u1 u2^(1-a2)).

    The degenerate boundaries a in {0, 1} are excluded: the sections stop
    being injective there and truncation inverses lose uniqueness.
    """

    kind = "marshall_olkin"
    d = 2

    def __init__(self, alpha1, alpha2):
        alpha1 = float(alpha1)
        alpha2 = float(alpha2)
        if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
            raise ValueError("Marshall-Olkin parameters must lie strictly in (0, 1)")
        self.alpha1 = alpha1
        self.alpha2 = alpha2

    def _cdf(self, pts):
        u1 = pts[:, 0]
        u2 = pts[:, 1]
        return np.minimum(u1 ** (1.0 - self.alpha1) * u2, u1 * u2 ** (1.0 - self.alpha2))

    def _section_inv(self, j, y, t, top):
        aj = self.alpha1 if j == 0 else self.alpha2
        am = self.alpha2 if j == 0 else self.alpha1
        tm = float(t[1 - j])
        out = y / tm ** (1.0 - am)
        high = y > tm ** (1.0 - am + am / aj)
        out[high] = (y[high] / tm) ** (1.0 / (1.0 - aj))
        return out

    @property
    def exchangeable(self):
        return self.alpha1 == self.alpha2

    def _truncate(self, tp):
        return TruncatedCopula(self, tp, "marshall-olkin", "oracle")

    def singular_curve(self, u1, t):
        """u2 on the singular curve x1^a1 = x2^a2 in the truncation at t, at u1 in
        [0, 1]: the image of the model's curve, nan where it has left the square
        (it ends inside when t2^a2 < t1^a1).  At t = (1, 1) this is the model's
        own curve u2 = u1^(a1/a2).  A scalar u1 gives a float."""
        u1 = np.asarray(u1, dtype=float)
        u = _unit_points(u1.reshape(-1, 1), 1)[0][:, 0]
        tp = TruncationPoint.make(self, t)
        t, c = tp.t, tp.c_of_t
        x1 = np.clip(self._section_inv(0, c * u, t, c), 0.0, t[0])
        x2 = x1 ** (self.alpha1 / self.alpha2)
        u2 = self._cdf(np.column_stack([np.full_like(x2, t[0]), np.minimum(x2, t[1])])) / c
        # the slack keeps the end point where x2 rounds just above t2
        out = np.where(x2 <= t[1] * (1.0 + _EDGE_TOL), u2, np.nan).reshape(u1.shape)
        return float(out) if u1.ndim == 0 else out

    def _tail_dep(self):
        return 0.0, min(self.alpha1, self.alpha2)

    def _sample(self, n, rng):
        return self._propose(n, np.ones(2), rng)

    def _propose(self, n, t, rng):
        # shock construction: independent uniform shocks, one shared.  U <= t
        # exactly when Z1 <= t1^(1-a1), Z2 <= t2^(1-a2) and Z3 <= min(t1^a1, t2^a2):
        # test the shocks first, with a slack that keeps every row the exact test keeps
        z = rng.random((n, 3))
        a1, a2 = self.alpha1, self.alpha2
        cut = bool(np.any(t < 1.0))
        if cut:
            top = [t[0] ** (1.0 - a1), t[1] ** (1.0 - a2), min(t[0] ** a1, t[1] ** a2)]
            z = _rows_inside(z, np.multiply(top, 1.0 + 1e-12))
        u1 = np.maximum(z[:, 0] ** (1.0 / (1.0 - a1)), z[:, 2] ** (1.0 / a1))
        u2 = np.maximum(z[:, 1] ** (1.0 / (1.0 - a2)), z[:, 2] ** (1.0 / a2))
        u = np.column_stack([u1, u2])
        return _rows_inside(u, t) if cut else u

    def __repr__(self):
        return f"MarshallOlkinCopula({self.alpha1!r}, {self.alpha2!r})"


class SurvivalCopula(CopulaModel):
    """Survival wrap of a bivariate model: C(u) = u1 + u2 - 1 + C_in(1-u1, 1-u2)."""

    kind = "survival"
    d = 2

    def __init__(self, inner):
        if inner.d != 2:
            raise ValueError("survival wrapping is implemented for d = 2 only")
        self.inner = inner

    @property
    def exchangeable(self):
        return self.inner.exchangeable

    def _cdf(self, pts):
        v = self.inner._cdf(1.0 - pts)
        return np.clip(_columnwise(np.add, pts) - 1.0 + v, 0.0, 1.0)

    def _tail_dep(self):
        ll, lu = self.inner._tail_dep()
        return lu, ll

    def _sample(self, n, rng):
        return 1.0 - self.inner._sample(n, rng)

    def __repr__(self):
        return f"SurvivalCopula({self.inner!r})"


def survival(model):
    """Survival-wrap a bivariate model; wrapping twice is the identity."""
    if isinstance(model, SurvivalCopula):
        return model.inner
    return SurvivalCopula(model)


@dataclass(frozen=True, eq=False)
class TruncationPoint:
    """A threshold vector t in (0, 1]^d together with its cached C(t) > 0 under ``model``."""

    t: np.ndarray
    c_of_t: float
    model: CopulaModel = field(repr=False)

    @classmethod
    def make(cls, model, t):
        """The point t of ``model``: a point made for another model is remade from its t."""
        if isinstance(t, TruncationPoint):
            if t.model is model:
                return t
            t = t.t
        t = np.asarray(t, dtype=float).copy()
        if t.shape != (model.d,):
            raise ValueError(f"truncation point must have shape ({model.d},)")
        # from the least positive float: t in (0, 1]
        _check_range(t, np.nextafter(0.0, 1.0), 1.0, "truncation point must lie in (0, 1]^d")
        c = float(model.cdf(t))
        if not c > 0.0:
            raise ValueError("C(t) must be positive at the truncation point")
        t.setflags(write=False)
        return cls(t=t, c_of_t=c, model=model)


class TruncatedCopula(CopulaModel):
    """The copula of U | U <= t on the unit cube (copula scale).

    By default it is the construction C(x(u)) / C(t), x_j = sec_j_inv(C(t) u_j),
    with the source's own section inverses (``_x``), clipped to [0, 1]; a form
    overrides ``_source_inv`` or ``_cdf``.  The ``_truncate`` that builds it
    names its ``form`` and its ``route``, how ``sampling.sample_truncated``
    draws from it: "oracle" (rejection plus the margin transform) unless the
    form has an exact sampler.
    """

    def __init__(self, source, point, form, route):
        self.source = source
        self.point = point
        self.d = source.d
        self.form = form
        self.route = route

    def _source_inv(self, j, y):
        """sec_j_inv(y) in [0, t_j] of the source at t, for y in [0, C(t)]."""
        t = self.point.t
        return np.clip(self.source._section_inv(j, y, t, self.point.c_of_t), 0.0, t[j])

    def _x(self, pts):
        """The source points x_j = sec_j_inv(C(t) u_j) in [0, t], one column per coordinate."""
        c = self.point.c_of_t
        return np.column_stack([self._source_inv(j, c * pts[:, j]) for j in range(self.d)])

    def _cdf(self, pts):
        return np.clip(self.source._cdf(self._x(pts)) / self.point.c_of_t, 0.0, 1.0)

    # bound on this class too, so that profiles name truncated CDF calls apart
    cdf = CopulaModel.cdf

    def _truncate(self, tp):
        # U_t <= s exactly when the source's X <= x(s), so this truncation is
        # the source's own truncation at x(s)
        src = self.source
        return src._truncate(TruncationPoint.make(src, self._x(tp.t[None])[0]))

    def __repr__(self):
        t = np.array2string(self.point.t, separator=", ")
        return f"{type(self).__name__}({self.source!r}, t={t})"


class ModelTruncation(TruncatedCopula):
    """A truncation that is a model again (``model``), with the form and route its builder names."""

    def __init__(self, source, point, model, form, route):
        super().__init__(source, point, form, route)
        self.model = model

    @property
    def exchangeable(self):
        return self.model.exchangeable

    def _cdf(self, pts):
        return np.clip(self.model._cdf(pts), 0.0, 1.0)

    def _tail_dep(self):
        return self.model._tail_dep()

    def _sample(self, n, rng):
        return self.model._sample(n, rng)

    def _propose(self, n, t, rng):
        return self.model._propose(n, t, rng)


class GeneralTruncation(TruncatedCopula):
    """The componentwise-inversion construction C({sec_j_inv(C(t) u_j)}_j) / C(t).

    Every section is inverted numerically, to ``BISECT_WIDTH * t_j`` in x,
    whether or not the model has an analytic inverse: this is the reference
    every closed form is checked against.  Each coordinate is one
    ``_itp_section_inv`` solve over all points: a node table, then ITP steps
    on the rows still open.
    """

    def __init__(self, source, point):
        super().__init__(source, point, "general", "oracle")

    def _source_inv(self, j, y):
        # always numeric; the ITP bracket never leaves [0, t_j]
        return _itp_section_inv(self.source, j, y, self.point.t, self.point.c_of_t)

    def _truncate(self, tp):
        # composed, it stays the numeric reference: the source's bisection truncation at x(s)
        src = self.source
        return GeneralTruncation(src, TruncationPoint.make(src, self._x(tp.t[None])[0]))


def truncate_general(model, t, method="auto"):
    """The copula of U | U <= t for U ~ model.

    ``method="auto"`` is the model's own truncated form, closed where the
    model admits one; ``"bisect"`` is always ``GeneralTruncation``, the
    construction with numerically inverted sections.
    """
    tp = TruncationPoint.make(model, t)
    if method == "bisect":
        return GeneralTruncation(model, tp)
    if method != "auto":
        raise ValueError("method must be 'auto' or 'bisect'")
    return model._truncate(tp)


def truncated_cdf(model, t, x):
    """F_t(x) = C(min(x, t)) / C(t): the distribution function of U | U <= t.

    Margins follow as F_{t,j}(x_j) = C(x_j; t_-j) / C(t).
    """
    tp = TruncationPoint.make(model, t)
    pts, squeeze = _unit_points(x, model.d)
    out = model._cdf(np.minimum(pts, tp.t)) / tp.c_of_t
    return float(out[0]) if squeeze else out


def ev_scaling_check(model, t, alpha, grid):
    """max |C_t(u^alpha) - C_{t^(1/alpha)}(u)^alpha| over the given points.

    Zero (up to rounding) exactly when the model is extreme-value; the scaling
    also shows truncations of extreme-value copulas are no longer extreme value.
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError("scaling exponent alpha must be positive")
    t = np.asarray(t, dtype=float)
    left = truncate_general(model, t)
    right = truncate_general(model, np.power(t, 1.0 / alpha))
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    lhs = np.atleast_1d(left.cdf(np.power(pts, alpha)))
    rhs = np.power(np.atleast_1d(right.cdf(pts)), alpha)
    return float(np.max(np.abs(lhs - rhs)))


def box_mass(cop, lower, upper):
    """Probability mass the copula-like object assigns to a box (vectorizable).

    ``lower`` and ``upper`` are (d,) or (n, d); inclusion-exclusion over the
    2^d corners.  Nonnegative for every genuine copula.
    """
    lo = np.atleast_2d(np.asarray(lower, dtype=float))
    hi = np.atleast_2d(np.asarray(upper, dtype=float))
    d = lo.shape[1]
    total = np.zeros(lo.shape[0])
    for bits in product((0, 1), repeat=d):
        corner = np.where(np.asarray(bits, dtype=bool), hi, lo)
        sign = (-1) ** (d - sum(bits))
        total = total + sign * np.atleast_1d(cop.cdf(corner))
    return float(total[0]) if np.asarray(lower).ndim == 1 else total

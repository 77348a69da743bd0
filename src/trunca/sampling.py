"""Sampling entry points: the rejection oracle, the margin transform, output.

Each model class draws its own rows in ``_sample`` (see ``copulas``);
Archimedean models use the frailty construction of
:func:`sample_archimedean`.  :func:`sample_model` checks ``n`` and calls it.
A truncation that is a model again (the "tilted-frailty", "closed-model" and
"product" routes) samples as that model, ``tc.model``: a truncated
Archimedean copula is the Archimedean copula of the tilted generator.  The
oracle route is the model-agnostic rejection sampler (resample until
``U <= t``), which doubles as the reference implementation every fast route
is tested against, on the rows each model's ``_propose`` keeps inside ``t``.
Which route a truncated copula takes is its ``route``, named by the model's
``_truncate`` that built it (a nest's by its root generator);
``sample_truncated`` only follows it and records it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .copulas import SamplingError, TruncatedCopula, TruncationPoint
from .frailty import _whole, sample_frailty
from .generators import _check_range

__all__ = [
    "SampleMatrix",
    "SamplingError",
    "sample_model",
    "sample_archimedean",
    "oracle_sample",
    "transform_margins",
    "sample_truncated",
    "pseudo_observations",
    "empirical_copula_distance",
    "write_csv",
    "write_meta",
]

_CSV_BLOCK_ROWS = 4096
# the most proposals one oracle pass holds in memory; more passes make up the rest
_ORACLE_PASS_MAX = 250_000


@dataclass
class SampleMatrix:
    """An (n, d) block of copula-scale rows plus provenance metadata."""

    data: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] < 1:
            raise ValueError("sample data must be a nonempty (n, d) array")
        _check_range(self.data, 0.0, 1.0, "sample entries must lie in [0, 1]")

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype, copy=copy)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def dim(self):
        return self.data.shape[1]


def _rows_wanted(n):
    n = _whole(n, "a row count")
    if n < 1:
        raise ValueError("need n >= 1")
    return n


def sample_archimedean(gen, d, n, rng):
    """Frailty construction: U_j = psi(E_j / V), E_j iid Exp(1), V ~ LS^-1[psi].

    ``gen`` may be tilted or outer-power; the matching (tilted) frailty is
    drawn per row.  Returns an (n, d) array.
    """
    n = _rows_wanted(n)
    v = sample_frailty(gen, 0.0, rng, size=n)
    e = rng.standard_exponential((n, _whole(d)))
    # the public psi, not _psi: its one scan per call is what turns a 0/0 row
    # (a frailty that under- or overflowed) into an error, not a NaN row
    return np.asarray(gen.psi(e / v[:, None]))


def sample_model(model, n, rng):
    """n rows from a model (a closed truncation too) by its ``_sample``, as a plain array."""
    return model._sample(_rows_wanted(n), rng)


def oracle_sample(model, t, n, rng):
    """The generic rejection sampler: draw U ~ model until U <= t, n times.

    Returns conditional rows on the *original* scale (inside [0, t]); map
    them through :func:`transform_margins` to reach the truncated copula
    scale.  Each pass proposes min(1.25 need, need + 3 sqrt(need)) / C(t)
    rows for the ``need`` rows still missing, about (1 + 3/sqrt(n)) / C(t)
    proposals per kept row, clipped to [1024, 2.5e5] (``_ORACLE_PASS_MAX``)
    so that a pass's memory is bounded at any C(t).  The budget is
    100 n / C(t) proposals, after which a diagnostic error reports the
    observed acceptance rate against C(t).

    ``model._propose`` keeps the proposals inside [0, t]: a kept row costs
    about 1 / C(t) whole draws, except that a nest drops a proposal at its
    first sector outside t and a Marshall-Olkin model on its uniform shocks,
    before drawing the rest.
    """
    n = _rows_wanted(n)
    tp = TruncationPoint.make(model, t)
    max_tries = int(np.ceil(100.0 * n / tp.c_of_t))
    chunks = []
    kept = 0
    proposals = 0
    while kept < n:
        need = n - kept
        batch = np.ceil(min(1.25 * need, need + 3.0 * np.sqrt(need)) / tp.c_of_t)
        b = min(int(np.clip(batch, 1024, _ORACLE_PASS_MAX)), max_tries - proposals)
        if b <= 0:
            rate = kept / proposals if proposals else float("nan")
            raise SamplingError(
                f"rejection budget exhausted: kept {kept}/{n} rows after "
                f"{proposals} proposals (observed acceptance {rate:.4g}, "
                f"C(t) = {tp.c_of_t:.4g})"
            )
        u = model._propose(b, tp.t, rng)
        chunks.append(u)
        kept += u.shape[0]
        proposals += b
    raw = np.vstack(chunks)
    meta = {
        "method": "oracle",
        "proposals": proposals,
        "accepted": int(raw.shape[0]),
        "accept_rate": raw.shape[0] / proposals,
        "c_of_t": tp.c_of_t,
    }
    return SampleMatrix(raw[:n], meta)


def transform_margins(raw, model, t):
    """Map conditional rows x in [0, t] through F_{t,j}(x) = C(x; t_-j)/C(t).

    The output rows follow the truncated copula itself.
    """
    tp = TruncationPoint.make(model, t)
    X = np.asarray(raw, dtype=float)
    for col, tj in zip(X.T, tp.t, strict=True):
        _check_range(col, 0.0, tj + 1e-9, "rows must lie inside [0, t]")
    cols = [
        np.atleast_1d(model.margin_section(j, X[:, j], tp.t)) / tp.c_of_t
        for j in range(model.d)
    ]
    out = np.clip(np.column_stack(cols), 0.0, 1.0)
    meta = dict(raw.meta) if isinstance(raw, SampleMatrix) else {}
    meta["margins"] = "truncated"
    return SampleMatrix(out, meta)


def sample_truncated(tc, n, rng):
    """Sample a truncated copula by the route it names (``tc.route``).

    "oracle" (Marshall-Olkin, nested with a dependent root, survival,
    generic) goes through the rejection oracle plus the margin transform.
    Every other route belongs to a ``ModelTruncation`` and is its own
    ``_sample``, which draws its model, ``tc.model``: the tilted Archimedean
    copula ("tilted-frailty"), a fixed point ("closed-model"), or the nest
    with an independence root ("product").
    The route is recorded as ``meta["method"]``, the form as ``meta["form"]``.
    """
    if not isinstance(tc, TruncatedCopula):
        raise TypeError("sample_truncated expects a TruncatedCopula")
    n = _rows_wanted(n)
    if tc.route == "oracle":
        raw = oracle_sample(tc.source, tc.point, n, rng)
        sm = transform_margins(raw, tc.source, tc.point)
    else:
        sm = SampleMatrix(tc._sample(n, rng))
    sm.meta["method"] = tc.route
    sm.meta["form"] = tc.form
    return sm


def pseudo_observations(data):
    """Columnwise average ranks scaled by 1/(n + 1).

    The ranks are bitwise equal to ``scipy.stats.rankdata(X, axis=0,
    method="average")``, ties included: tied entries share the mean of the
    ranks they span, and a column holding a NaN ranks as all NaN.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("pseudo-observations require at least two rows")
    ranks = np.column_stack([_average_ranks(X[:, j]) for j in range(X.shape[1])])
    out = ranks / (X.shape[0] + 1.0)
    if isinstance(data, SampleMatrix):
        meta = dict(data.meta)
        meta["pseudo_observations"] = True
        return SampleMatrix(out, meta)
    return out


def _sorted_runs(v):
    """The argsort order of v and the start mask of its runs of equal sorted values."""
    order = np.argsort(v)
    vs = v[order]
    first = np.empty(v.size, dtype=bool)
    first[0] = True
    np.not_equal(vs[1:], vs[:-1], out=first[1:])
    return order, first


def _average_ranks(x):
    # tie group k spans the 1-based ranks count[k-1]+1 .. count[k], whose mean
    # is a half-integer, exact in float64; the order inside a group is irrelevant
    order, first = _sorted_runs(x)
    dense = np.cumsum(first)
    count = np.append(np.flatnonzero(first), x.size)
    ranks = np.empty(x.size)
    ranks[order] = 0.5 * (count[dense] + count[dense - 1] + 1)
    if np.isnan(x[order[-1]]):  # NaN sorts last
        ranks[:] = np.nan
    return ranks


def empirical_copula_distance(a, b):
    """Sup over a grid of the difference of two empirical copulas.

    The grid uses cell midpoints (2k-1)/(2L), which cannot collide with rank
    grids i/(n+1); cumulative counts come from a d-dimensional histogram.
    """
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("samples must be (n, d) arrays of equal dimension")
    d = A.shape[1]
    levels = {2: 20, 3: 10}.get(d, max(2, int(round(4000 ** (1.0 / d)))))
    qs = (2.0 * np.arange(1, levels + 1) - 1.0) / (2.0 * levels)
    edges = np.concatenate([[0.0], qs, [1.0 + 1e-9]])
    ha, _ = np.histogramdd(A, bins=[edges] * d)
    hb, _ = np.histogramdd(B, bins=[edges] * d)
    for axis in range(d):
        ha = ha.cumsum(axis=axis)
        hb = hb.cumsum(axis=axis)
    return float(np.max(np.abs(ha / A.shape[0] - hb / B.shape[0])))


def write_csv(sm, path):
    """CSV with header u1,...,ud and each entry formatted ``%.17g``.

    The bytes equal ``np.savetxt(path, sm.data, fmt="%.17g", delimiter=",",
    header=..., comments="")``.  Rows are formatted in blocks of
    ``_CSV_BLOCK_ROWS``, one ``%`` per block, so memory stays flat in n.
    """
    data = sm.data
    n, d = data.shape
    row = ",".join(["%.17g"] * d) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"u{j + 1}" for j in range(d)) + "\n")
        for start in range(0, n, _CSV_BLOCK_ROWS):
            block = data[start:start + _CSV_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def write_meta(sm, path):
    """JSON sidecar with the sample's provenance metadata."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sm.meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

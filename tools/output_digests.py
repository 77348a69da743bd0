"""sha256 digests of trunca's outputs, to compare two source trees bit for bit.

    PYTHONPATH=src python3 tools/output_digests.py OUT.json
    python3 tools/output_digests.py --diff A.json B.json

The first form writes one digest per output to OUT.json, for the ``trunca``
found on the import path:

* generators: psi, psi_inv, both derivatives and tilted inverses of every
  family, plain and outer-powered, on fixed grids; ``log1mexp`` on a grid
  across its branch point -log 2 (as a scalar, 0-d, 1-d and 2-d), and Frank's
  and Joe's ``log_psi`` across the exponential tail they take past t = 700;
* a fixed model zoo (every family, outer power, nests of plain and
  outer-power generators, Marshall-Olkin, survival and both fixed points):
  the bytes of each model's ``model_to_dict`` spec and of that spec loaded
  and written again, truncated CDFs on a fixed grid, by the model's own form
  and by bisection (also on a 640-point grid, wide enough for the bisection's
  node table),
  ``sample_truncated`` rows with their meta, the raw ``oracle_sample`` rows
  with their meta, a composed truncation's CDF and rows, the CDF
  of a bisection truncation composed again, section inverses, for nested
  truncations (a dependent or an independence root) the bivariate margins
  of a cross-sector and a same-sector pair, and Marshall-Olkin singular curves
  at a threshold of either case;
* the truncated Kendall law of six families, plain and outer-powered, at
  d = 2 and 3, on a u grid down to the least subnormal;
* float64 edges: every family's tilted inverse, plain and outer-powered
  (alpha 1 and 0.6), at tilts 600 and 5e-320 with u down to 1e-300, and
  truncations whose tilt is huge (Frank at t = 1e-30) or subnormal
  (Gumbel(20), its outer power with alpha 1 and Clayton's with alpha 0.05 at
  t near 1);
* every CLI command, run in-process into a temporary directory: the bytes
  of each file it writes, and its exit code.

A sample whose sampler raises is recorded as "raises <exception>" under each
of its keys.  The second form prints the keys whose digests differ or that
only one file has, and exits 1 if there are any.  Only numpy and the stdlib
are used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _array_digest(x):
    return _sha(np.ascontiguousarray(np.asarray(x, dtype=float)).tobytes())


def _json_digest(obj):
    return _sha(json.dumps(obj, sort_keys=True, default=repr).encode())


_FAMS = [("independence", None), ("clayton", 2.0), ("amh", 0.7), ("frank", 4.0),
         ("frank", 30.0), ("gumbel", 2.0), ("joe", 2.0)]


def _generators(tr):
    t = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 40)])
    u = np.concatenate([np.geomspace(1e-12, 0.5, 30), np.linspace(0.5, 1.0, 11)])
    out = {}
    for fam, theta in _FAMS:
        for alpha in (None, 1.0, 0.6):
            g = tr.generator(fam, theta, alpha)
            key = f"gen/{fam}({theta})/op({alpha})"
            out[f"{key}/psi"] = _array_digest(g.psi(t))
            out[f"{key}/log_psi"] = _array_digest(g.log_psi(t))
            out[f"{key}/psi_inv"] = _array_digest(g.psi_inv(u))
            out[f"{key}/dpsi"] = _array_digest(g.psi_deriv(t, 1))
            out[f"{key}/d2psi"] = _array_digest(g.psi_deriv(t, 2))
            for h in (0.3, 5.0, 80.0):
                gh = g.tilt(h)
                out[f"{key}/tilt({h})/psi"] = _array_digest(gh.psi(t))
                out[f"{key}/tilt({h})/psi_inv"] = _array_digest(gh.psi_inv(u))
                out[f"{key}/tilt({h})/d2psi"] = _array_digest(gh.psi_deriv(t, 2))
    return out


def _branches(tr):
    """log1mexp across -log 2, and log_psi across t = 700, where each switches branch."""
    ln2 = np.log(2.0)
    x = np.concatenate([[-np.inf, -745.0, -40.0, -2.0, -1.0], -ln2 + np.arange(-8, 9) * np.spacing(ln2),
                        np.linspace(-0.69, -0.01, 12), [-1e-300, -0.0, 0.0, 0.5, np.inf, np.nan]])
    out = {"branch/log1mexp": _array_digest(tr.log1mexp(x)),
           "branch/log1mexp-2d": _array_digest(tr.log1mexp(x.reshape(4, -1).T)),
           "branch/log1mexp-scalars": _array_digest([tr.log1mexp(v) for v in x]),
           "branch/log1mexp-0d": _array_digest([tr.log1mexp(np.asarray(v)) for v in x])}
    t = np.concatenate([np.linspace(0.0, 690.0, 24), np.linspace(699.0, 701.0, 9), [720.0, 745.0, 800.0, 1e4]])
    for fam, theta in (("frank", 4.0), ("frank", 30.0), ("joe", 2.0), ("joe", 1.0)):
        g = tr.generator(fam, theta)
        key = f"branch/{fam}({theta})/log_psi"
        out[key] = _array_digest(g.log_psi(t))
        out[f"{key}-tail"] = _array_digest(g.log_psi(t[t > 690.0]))
        out[f"{key}-scalars"] = _array_digest([g.log_psi(v) for v in t])
    return out


def _model_zoo(tr):
    """Name -> (model, threshold t, composition threshold s)."""
    g = tr.generator
    arch = tr.ArchimedeanCopula
    nest = tr.NestedArchimedeanCopula
    return {
        "independence": (tr.IndependenceCopula(2), [0.5, 0.8], [0.7, 0.6]),
        "comonotone3": (tr.ComonotoneCopula(3), [0.4, 0.9, 0.6], [0.7, 0.6, 0.5]),
        "clayton": (arch(g("clayton", 2.0), 2), [0.5, 0.5], [0.6, 0.6]),
        "clayton3": (arch(g("clayton", 2.0), 3), [0.3, 0.5, 0.8], [0.6, 0.7, 0.5]),
        "amh": (arch(g("amh", 0.7), 2), [0.6, 0.5], [0.6, 0.6]),
        "frank": (arch(g("frank", 4.0), 2), [0.5, 0.5], [0.6, 0.6]),
        "frank-strong": (arch(g("frank", 5.0), 2), [0.02, 0.03], [0.5, 0.5]),
        "gumbel": (arch(g("gumbel", 2.0), 2), [0.7, 0.6], [0.6, 0.6]),
        "joe": (arch(g("joe", 2.0), 2), [0.7, 0.6], [0.6, 0.6]),
        "joe-strong": (arch(g("joe", 3.0), 2), [0.05, 0.04], [0.5, 0.5]),
        "op-clayton": (arch(g("clayton", 1.5, 0.6), 2), [0.5, 0.6], [0.6, 0.6]),
        "op-frank": (arch(g("frank", 4.0, 0.7), 2), [0.3, 0.4], [0.6, 0.6]),
        "op-joe": (arch(g("joe", 2.0, 0.5), 2), [0.3, 0.4], [0.6, 0.6]),
        "op-amh": (arch(g("amh", 0.5, 0.8), 2), [0.3, 0.4], [0.6, 0.6]),
        "op-gumbel": (arch(g("gumbel", 2.0, 0.8), 2), [0.3, 0.4], [0.6, 0.6]),
        "op-independence": (arch(g("independence", None, 0.5), 2), [0.3, 0.4], [0.6, 0.6]),
        "nested-clayton": (
            nest(g("clayton", 2.0), [(g("clayton", 2.0), 1), (g("clayton", 6.0), 2)]),
            [0.2, 0.5, 0.5], [0.7, 0.6, 0.5],
        ),
        "nested-gumbel": (
            nest(g("gumbel", 2.0), [(g("gumbel", 2.0), 1), (g("gumbel", 4.0), 2)]),
            [0.9, 0.5, 0.5], [0.7, 0.6, 0.5],
        ),
        "nested-op-clayton": (
            nest(g("clayton", 2.0, 0.8), [(g("clayton", 2.0, 0.5), 2), (g("clayton", 2.0, 0.6), 1)]),
            [0.5, 0.6, 0.7], [0.7, 0.6, 0.5],
        ),
        "nested-independence": (
            nest(g("independence"), [(g("clayton", 2.0), 2), (g("gumbel", 3.0), 1)]),
            [0.5, 0.6, 0.9], [0.7, 0.6, 0.5],
        ),
        "marshall-olkin": (tr.MarshallOlkinCopula(0.2, 0.7), [0.6, 0.9], [0.6, 0.6]),
        "survival-gumbel": (tr.survival(arch(g("gumbel", 2.0), 2)), [0.5, 0.8], [0.6, 0.6]),
        "survival-clayton": (tr.survival(arch(g("clayton", 2.0), 2)), [0.4, 0.4], [0.6, 0.6]),
        "independence-generator3": (arch(g("independence"), 3), [0.5, 0.6, 0.9], [0.7, 0.6, 0.5]),
    }


def _edges(tr):
    """Tilted inverses at a huge and a subnormal tilt, and truncations at float64 edges."""
    arch = tr.ArchimedeanCopula
    u = np.geomspace(1e-300, 1.0, 61)
    out = {}
    for fam, theta in _FAMS:
        for alpha in (None, 1.0, 0.6):
            g = tr.generator(fam, theta, alpha)
            for h in (600.0, 5e-320):
                out[f"edge/gen/{fam}({theta})/op({alpha})/tilt({h})/psi_inv"] = _array_digest(
                    g.tilt(h).psi_inv(u))
    near_one = [1.0 - 2.0**-53, 1.0]
    cases = {
        "frank-tiny-t": (arch(tr.generator("frank", 4.0)), [1e-30, 1e-30]),
        "gumbel20-near-one": (arch(tr.generator("gumbel", 20.0)), near_one),
        "op-clayton-near-one": (arch(tr.generator("clayton", 2.0, 0.05)), near_one),
        "op-gumbel20-near-one": (arch(tr.generator("gumbel", 20.0, 1.0)), near_one),
    }
    grid = np.concatenate([np.random.default_rng(0).random((64, 2)),
                           np.column_stack([np.geomspace(1e-300, 1.0, 16), np.full(16, 0.5)])])
    for name, (m, t) in cases.items():
        tc = tr.truncate_general(m, t)
        out[f"edge/model/{name}/c_of_t"] = _array_digest(tc.point.c_of_t)
        out[f"edge/model/{name}/cdf"] = _array_digest(tc.cdf(grid))
        out[f"edge/model/{name}/tilted-psi_inv"] = _array_digest(tc.model.generator.psi_inv(u))
    return out


def _kendall(tr):
    """K(u) of each family, plain and outer-powered (alpha 0.6), truncated at d = 2 and 3."""
    u = np.concatenate([[0.0, 5e-324, 1e-300, 1e-100, 1e-30, 1e-12], np.linspace(0.01, 0.99, 25),
                        [1.0]])
    out = {}
    for fam, theta in _FAMS:
        if (fam, theta) == ("frank", 30.0):
            continue
        for alpha in (None, 0.6):
            g = tr.generator(fam, theta, alpha)
            for t in ([0.5, 0.4], [0.6, 0.5, 0.7]):
                key = f"kendall/{fam}({theta})/op({alpha})/d{len(t)}"
                out[key] = _array_digest(tr.kendall_dist_truncated(g, t, u))
    return out


def _rows(sm):
    """Digests of a sample's rows and of its meta."""
    return _array_digest(sm.data), _json_digest(sm.meta)


def _guarded(out, keys, fn):
    """out[keys] = fn(), or for each key the exception fn raises, so that --diff lists it."""
    try:
        values = fn()
    except Exception as e:  # any tree's fault, recorded for --diff and reported
        print(f"{keys[0]}: raises {e!r}", file=sys.stderr)
        values = [f"raises {type(e).__name__}"] * len(keys)
    out.update(zip(keys, values))


def _models(tr):
    out = {}
    for k, (name, (m, t, s)) in enumerate(_model_zoo(tr).items()):
        grid = np.random.default_rng(k).random((64, m.d))
        key = f"model/{name}"
        tc = tr.truncate_general(m, t)
        spec = tr.model_to_dict(m)
        out[f"{key}/spec"] = _sha(json.dumps(spec).encode())
        out[f"{key}/spec-roundtrip"] = _sha(json.dumps(tr.model_to_dict(tr.model_from_dict(spec))).encode())
        out[f"{key}/c_of_t"] = _array_digest(tc.point.c_of_t)
        out[f"{key}/cdf"] = _array_digest(tc.cdf(grid))
        bisect = tr.truncate_general(m, t, method="bisect")
        out[f"{key}/bisect-cdf"] = _array_digest(bisect.cdf(grid[:16]))
        # 640 points: enough for the full node table of the numeric section inverse
        wide = np.random.default_rng([k, 3]).random((640, m.d))
        out[f"{key}/bisect-cdf-wide"] = _array_digest(bisect.cdf(wide))
        _guarded(out, [f"{key}/sample", f"{key}/sample-meta"],
                 lambda: _rows(tr.sample_truncated(tc, 400, tr.rng_stream(k))))
        _guarded(out, [f"{key}/oracle", f"{key}/oracle-meta"],
                 lambda: _rows(tr.oracle_sample(m, t, 400, tr.rng_stream(k, 2))))
        composed = tr.truncate_general(tc, s)
        out[f"{key}/composed-cdf"] = _array_digest(composed.cdf(grid))
        _guarded(out, [f"{key}/composed-sample"],
                 lambda: [_array_digest(tr.sample_truncated(composed, 200, tr.rng_stream(k, 1)).data)])
        out[f"{key}/composed-bisect-cdf"] = _array_digest(tr.truncate_general(bisect, s).cdf(grid))
        if tc.form == "marshall-olkin":
            # case 1 (t2^a2 <= t1^a1): the curve leaves the square through u2 = 1
            for case, tt in (("case1", [0.9, 0.6]), ("case2", [0.6, 0.9])):
                curve = m.singular_curve(np.linspace(0.0, 1.0, 33), tt)
                out[f"{key}/singular-curve-{case}"] = _array_digest(curve)
        if tc.form in ("nested", "product"):
            # a cross-sector pair (first and last sector) and a pair inside the first wide sector
            last = len(m.sectors) - 1
            pair = next(i for i, (_, ds) in enumerate(m.sectors) if ds >= 2)
            u1, u2 = grid[:, 0], grid[:, 1]
            margin = tc.model.biv_margin
            out[f"{key}/biv-margin-cross"] = _array_digest(margin(0, 0, last, 0, u1, u2))
            out[f"{key}/biv-margin-same"] = _array_digest(margin(pair, 0, pair, 1, u1, u2))
        y = tc.point.c_of_t * np.linspace(0.0, 1.0, 9)
        for j in range(m.d):
            out[f"{key}/section-inv{j}"] = _array_digest(m.margin_section_inv(j, y, tc.point.t))
    return out


_SPECS = {
    "clayton.json": {"kind": "archimedean", "generator": {"family": "clayton", "theta": 2.0}, "d": 2},
    "gumbel3.json": {"kind": "archimedean", "generator": {"family": "gumbel", "theta": 2.0}, "d": 3},
    "joe.json": {"kind": "archimedean", "generator": {"family": "joe", "theta": 2.0}, "d": 2},
    "frank.json": {"kind": "archimedean", "generator": {"family": "frank", "theta": 5.0}, "d": 2},
    "survival_gumbel.json": {
        "kind": "survival",
        "inner": {"kind": "archimedean", "generator": {"family": "gumbel", "theta": 2.0}, "d": 2},
    },
    "nested3.json": {
        "kind": "nested_archimedean",
        "root": {"family": "clayton", "theta": 2.0},
        "sectors": [{"generator": {"family": "clayton", "theta": 2.0}, "d": 1},
                    {"generator": {"family": "clayton", "theta": 5.0}, "d": 2}],
    },
    "mo.json": {"kind": "marshall_olkin", "alpha1": 0.3, "alpha2": 0.6},
}

_U2 = ["--u", "0.1,0.2", "--u", "0.5,0.5", "--u", "0.9,0.3"]
_U3 = ["--u", "0.1,0.2,0.3", "--u", "0.5,0.5,0.5", "--u", "0.9,0.3,0.7"]

# (name, argv): each runs with "--out" appended; "*.json" arguments name spec files
_COMMANDS = [
    ("sample-clayton", ["sample", "--model", "clayton.json", "--t", "0.5,0.4", "--n", "2000",
                        "--seed", "3"]),
    ("sample-clayton-raw", ["sample", "--model", "clayton.json", "--t", "0.5,0.4", "--n", "2000",
                            "--seed", "3", "--raw"]),
    ("sample-clayton-oracle", ["sample", "--model", "clayton.json", "--t", "0.5,0.4", "--n", "2000",
                               "--seed", "3", "--method", "oracle"]),
    ("sample-gumbel3-tilted", ["sample", "--model", "gumbel3.json", "--t", "0.6,0.5,0.7",
                               "--n", "2000", "--seed", "4", "--method", "tilted"]),
    ("sample-survival-gumbel", ["sample", "--model", "survival_gumbel.json", "--t", "0.5,0.6",
                                "--n", "2000", "--seed", "5"]),
    ("sample-nested3", ["sample", "--model", "nested3.json", "--t", "0.3,0.5,0.5", "--n", "1000",
                        "--seed", "6"]),
    ("sample-mo", ["sample", "--model", "mo.json", "--t", "0.4,0.5", "--n", "2000", "--seed", "7"]),
    ("cdf-nested3", ["cdf", "--model", "nested3.json", *_U3]),
    ("cdf-survival-gumbel", ["cdf", "--model", "survival_gumbel.json", *_U2]),
    ("truncate-eval-clayton", ["truncate-eval", "--model", "clayton.json", "--t", "0.5,0.4", *_U2]),
    ("truncate-eval-frank", ["truncate-eval", "--model", "frank.json", "--t", "0.05,0.03", *_U2]),
    ("truncate-eval-survival-gumbel", ["truncate-eval", "--model", "survival_gumbel.json",
                                       "--t", "0.5,0.6", *_U2]),
    ("truncate-eval-nested3", ["truncate-eval", "--model", "nested3.json", "--t", "0.3,0.5,0.5",
                               *_U3]),
    ("truncate-eval-mo", ["truncate-eval", "--model", "mo.json", "--t", "0.4,0.5", *_U2]),
    ("taildep-joe", ["taildep", "--model", "joe.json", "--t", "0.5,0.6"]),
    ("taildep-survival-gumbel", ["taildep", "--model", "survival_gumbel.json", "--t", "0.4,0.4"]),
    ("taildep-joe-q", ["taildep", "--model", "joe.json", "--t", "0.5,0.6", "--q", "0.05",
                       "--n", "3000", "--seed", "8"]),
    ("taildep-survival-gumbel-q", ["taildep", "--model", "survival_gumbel.json", "--t", "0.4,0.4",
                                   "--q", "0.05", "--n", "1500", "--seed", "9"]),
    ("kendall-gumbel3", ["kendall", "--model", "gumbel3.json", "--t", "0.6,0.5,0.7", "--n", "3000",
                         "--seed", "10"]),
    ("kendall-clayton-u", ["kendall", "--model", "clayton.json", "--t", "0.5,0.4", "--n", "3000",
                           "--seed", "11", "--u", "0.1,0.5,0.9"]),
    ("kendall-mo", ["kendall", "--model", "mo.json", "--t", "0.4,0.5", "--n", "1500",
                    "--seed", "12"]),
    ("oracle-compare-clayton", ["oracle-compare", "--model", "clayton.json", "--t", "0.5,0.4",
                                "--n", "3000", "--seed", "13"]),
    ("oracle-compare-gumbel3", ["oracle-compare", "--model", "gumbel3.json", "--t", "0.6,0.5,0.7",
                                "--n", "2000", "--seed", "14", "--threshold", "0.05"]),
]


def _cli(tr):
    from trunca.cli import FIGURES, main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, spec in _SPECS.items():
            (work / name).write_text(json.dumps({"schema": tr.SCHEMA, **spec}, indent=2) + "\n")
        runs = [(name, argv, work / f"{name}.out") for name, argv in _COMMANDS]
        runs += [(f"figure-data-{fig}", ["figure-data", "--figure", fig, "--n", "600",
                                         "--seed", "15"], work / f"fig-{fig}") for fig in sorted(FIGURES)]
        for name, argv, target in runs:
            argv = [str(work / a) if a.endswith(".json") else a for a in argv] + ["--out", str(target)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
            if rc:
                print(f"{name}: exit code {rc}", file=sys.stderr)
            out[f"cli/{name}/exit"] = _json_digest(rc)
            files = sorted(target.iterdir()) if target.is_dir() else [
                p for p in (target, Path(f"{target}.meta.json")) if p.exists()]
            for path in files:
                out[f"cli/{name}/{path.name}"] = _sha(path.read_bytes())
    return out


def digests():
    import trunca as tr

    return {**_generators(tr), **_branches(tr), **_models(tr), **_edges(tr), **_kendall(tr),
            **_cli(tr)}


def diff(a_path, b_path):
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    changed = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    only_a = sorted(a.keys() - b.keys())
    only_b = sorted(b.keys() - a.keys())
    for k in changed:
        print(f"changed  {k}")
    for k in only_a:
        print(f"only in {a_path}  {k}")
    for k in only_b:
        print(f"only in {b_path}  {k}")
    same = len(a.keys() & b.keys()) - len(changed)
    print(f"{same} identical, {len(changed)} changed, {len(only_a) + len(only_b)} unmatched")
    return 1 if changed or only_a or only_b else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", nargs="?", help="write the digests to this JSON file")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = p.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if not args.out:
        p.error("give OUT.json or --diff A.json B.json")
    result = digests()
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result)} digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

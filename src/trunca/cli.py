"""Command-line surface: sampling, evaluation, and analytics over JSON models.

Exit codes: 0 success, 2 configuration error (bad flags, specs, or
unsupported requests), 3 runtime/sampling error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analytics import (
    empirical_kendall_tau,
    empirical_tail_dep,
    kendall_dist_truncated,
    tail_dep_exchangeable_equal_t,
    tail_dep_tilted,
)
from .copulas import TruncationPoint, truncate_general
from .frailty import rng_stream
from .generators import _check_range
from .modelspec import SCHEMA, load_model, model_from_dict, model_to_dict
from .sampling import (
    SamplingError,
    empirical_copula_distance,
    pseudo_observations,
    sample_truncated,
    write_csv,
    write_meta,
)

# data behind the sample-cloud figures: (model spec, list of truncation points)
FIGURES = {
    "mo": (
        {"kind": "marshall_olkin", "alpha1": 0.2, "alpha2": 0.7},
        [(1.0, 1.0), (0.5, 0.8), (0.8, 0.5), (0.3, 0.3)],
    ),
    "survival-gumbel": (
        {
            "kind": "survival",
            "inner": {
                "kind": "archimedean",
                "generator": {"family": "gumbel", "theta": 2.0},
                "d": 2,
            },
        },
        [(1.0, 1.0), (0.5, 0.5), (0.3, 0.7), (0.7, 0.3)],
    ),
    # parameters chosen so Kendall's tau is 0.5 at the root, 0.75 in the sector
    "nested-clayton": (
        {
            "kind": "nested_archimedean",
            "root": {"family": "clayton", "theta": 2.0},
            "sectors": [
                {"generator": {"family": "clayton", "theta": 2.0}, "d": 1},
                {"generator": {"family": "clayton", "theta": 6.0}, "d": 2},
            ],
        },
        [(1.0, 1.0, 1.0), (0.2, 0.5, 0.5), (0.2, 0.1, 0.9)],
    ),
    "nested-gumbel": (
        {
            "kind": "nested_archimedean",
            "root": {"family": "gumbel", "theta": 2.0},
            "sectors": [
                {"generator": {"family": "gumbel", "theta": 2.0}, "d": 1},
                {"generator": {"family": "gumbel", "theta": 4.0}, "d": 2},
            ],
        },
        [(1.0, 1.0, 1.0), (0.9, 0.9, 0.9), (0.5, 0.5, 0.5)],
    ),
}


# taildep samples only for --q; its sampling flags default to None, so that
# they can be refused without --q, and take these values with it
_TAILDEP_SAMPLE_DEFAULTS = {"n": 1000, "seed": 0, "method": "auto"}


class ConfigError(Exception):
    pass


def _add_common(sp, truncated=True, sampled=True):
    sp.add_argument("--model", required=True, help="path to a model-spec JSON file")
    if truncated:
        sp.add_argument("--t", help="truncation point, comma-separated reals in (0,1]")
    if sampled:
        sp.add_argument("--n", type=int, default=1000, help="number of rows/samples")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument("--out", help="output path (CSV or JSON depending on command)")


def _add_method(sp):
    sp.add_argument(
        "--method",
        choices=("auto", "tilted", "oracle"),
        default="auto",
        help="sampling route: fast dispatch, forced tilted/closed path, or oracle",
    )


def build_parser():
    p = argparse.ArgumentParser(
        prog="trunca",
        description="Right-truncated copulas: sampling, evaluation, tail analytics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample a (truncated) copula to CSV")
    _add_common(sp)
    _add_method(sp)
    sp.add_argument("--raw", action="store_true", help="skip the rank (pseudo-observation) transform")

    sp = sub.add_parser("cdf", help="evaluate the model CDF at points")
    _add_common(sp, truncated=False, sampled=False)
    sp.add_argument("--u", action="append", required=True, help="evaluation point, comma-separated; repeatable")

    sp = sub.add_parser("truncate-eval", help="evaluate the truncated copula at points")
    _add_common(sp, sampled=False)
    sp.add_argument("--u", action="append", required=True, help="evaluation point, comma-separated; repeatable")

    sp = sub.add_parser("taildep", help="tail-dependence report for a truncated model")
    _add_common(sp)
    _add_method(sp)
    sp.add_argument("--q", type=float, help="threshold for an additional empirical estimate")
    sp.set_defaults(**dict.fromkeys(_TAILDEP_SAMPLE_DEFAULTS))

    sp = sub.add_parser("kendall", help="empirical Kendall tau matrix of truncated samples")
    _add_common(sp)
    _add_method(sp)
    sp.add_argument("--u", action="append", help="also tabulate the Kendall distribution at these u")

    sp = sub.add_parser("oracle-compare", help="fast path vs rejection oracle, sup distance")
    _add_common(sp)
    sp.add_argument("--threshold", type=float,
                    help="pass/fail sup-distance threshold (default 0.015 * sqrt(1e5 / n))")

    sp = sub.add_parser("figure-data", help="write the CSV panels behind the sample figures")
    sp.add_argument("--figure", required=True, choices=sorted(FIGURES))
    sp.add_argument("--n", type=int, default=5000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output directory")
    return p


def _parse_vector(text, d, what):
    try:
        vec = np.asarray([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}: {exc}") from None
    if d is not None and vec.size != d:
        raise ConfigError(f"{what} must have {d} components, got {vec.size}")
    return vec


def _unit_values(texts, d=None):
    """The --u values, checked to lie in [0, 1]: one row of d per text, or (d None) one vector."""
    vecs = [_parse_vector(text, d, "--u") for text in texts]
    vals = np.vstack(vecs) if d else np.concatenate(vecs)
    _check_range(vals, 0.0, 1.0, "--u values must lie in [0, 1]", ConfigError)
    return vals


def _load(args):
    path = Path(args.model)
    if not path.exists():
        raise ConfigError(f"model file not found: {path}")
    try:
        model = load_model(path)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"invalid model spec: {exc}") from None
    return model


def _truncated(args):
    """The --model, its truncation point at --t, and its truncation there."""
    model = _load(args)
    if args.t is None:
        raise ConfigError("this command requires --t")
    t = _parse_vector(args.t, model.d, "--t")
    try:
        tp = TruncationPoint.make(model, t)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return model, tp, truncate_general(model, tp)


def _sample(tc, args, rng):
    if args.method == "oracle":
        sm = sample_truncated(truncate_general(tc.source, tc.point, method="bisect"), args.n, rng)
        sm.meta["form"] = tc.form
        return sm
    if args.method == "tilted" and tc.route == "oracle":
        raise ConfigError(
            f"model of kind {tc.source.kind!r} has no tilted/closed sampling path; "
            "use --method auto or oracle"
        )
    return sample_truncated(tc, args.n, rng)


def _write_sample(sm, path, model, tp, seed, **meta):
    """The CSV at ``path`` and its ``.meta.json`` sidecar, stamped with the run's provenance."""
    sm.meta.update(
        schema=SCHEMA, model=model_to_dict(model, schema=False), t=tp.t.tolist(), seed=seed, **meta
    )
    write_csv(sm, path)
    write_meta(sm, f"{path}.meta.json")


def _emit_json(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_sample(args):
    if args.n < 2 and not args.raw:
        raise ConfigError("ranked output needs --n of at least 2; --raw allows 1")
    model, tp, tc = _truncated(args)
    if not args.out:
        raise ConfigError("sample requires --out")
    sm = _sample(tc, args, rng_stream(args.seed))
    if not args.raw:
        sm = pseudo_observations(sm)
    _write_sample(sm, args.out, model, tp, args.seed, c_of_t=tp.c_of_t, n=sm.n, raw=bool(args.raw))
    return 0


def cmd_cdf(args):
    model = _load(args)
    pts = _unit_values(args.u, model.d)
    vals = np.atleast_1d(model.cdf(pts))
    _emit_json({"schema": SCHEMA, "points": pts.tolist(), "values": vals.tolist()}, args.out)
    return 0


def cmd_truncate_eval(args):
    model, tp, tc = _truncated(args)
    pts = _unit_values(args.u, model.d)
    vals = np.atleast_1d(tc.cdf(pts))
    _emit_json({"schema": SCHEMA, "t": tp.t.tolist(), "c_of_t": tp.c_of_t, "form": tc.form,
                "points": pts.tolist(), "values": vals.tolist()}, args.out)
    return 0


def cmd_taildep(args):
    for name, default in _TAILDEP_SAMPLE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.q is None:
            raise ConfigError(f"--{name} is read only with --q")
    if args.q is not None:
        if not 0.0 < args.q < 0.5:
            raise ConfigError("--q must lie in (0, 0.5)")
        if args.n < 1000:
            raise ConfigError("--q needs --n of at least 1000 rows")
    model, tp, tc = _truncated(args)
    if tc.route == "tilted-frailty":
        report = tail_dep_tilted(tc.model.generator)
    elif model.d == 2 and np.all(tp.t == tp.t[0]) and model.exchangeable:
        report = tail_dep_exchangeable_equal_t(model, float(tp.t[0]))
    else:
        raise ConfigError(
            "tail dependence needs an Archimedean model or an exchangeable "
            "bivariate model truncated at equal thresholds"
        )
    payload = report.to_dict()
    if args.q is not None:
        sm = _sample(tc, args, rng_stream(args.seed))
        emp = empirical_tail_dep(sm, args.q)
        payload["empirical"] = emp.to_dict()
    _emit_json({"schema": SCHEMA, "t": tp.t.tolist(), **payload}, args.out)
    return 0


def cmd_kendall(args):
    if args.n < 2:
        raise ConfigError("kendall needs --n of at least 2")
    us = _unit_values(args.u) if args.u else None
    model, tp, tc = _truncated(args)
    if us is not None and not (tc.route == "tilted-frailty" and model.d in (2, 3)):
        raise ConfigError(
            "--u (the Kendall distribution) needs an Archimedean model with d in {2, 3}"
        )
    sm = _sample(tc, args, rng_stream(args.seed))
    d = sm.dim
    tau = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            tau[i, j] = tau[j, i] = empirical_kendall_tau(sm, i, j)
    payload = {"schema": SCHEMA, "t": tp.t.tolist(), "n": sm.n, "tau": tau.tolist()}
    if us is not None:
        k = kendall_dist_truncated(model.generator, tp.t, us)
        payload["kendall_dist"] = {"u": us.tolist(), "K": k.tolist()}
    _emit_json(payload, args.out)
    return 0


def cmd_oracle_compare(args):
    model, tp, tc = _truncated(args)
    if tc.route == "oracle":
        raise ConfigError(
            f"model of kind {model.kind!r} has no closed-form sampling path to compare"
        )
    fast = sample_truncated(tc, args.n, rng_stream(args.seed, stream=0))
    orc = sample_truncated(
        truncate_general(model, tp, method="bisect"), args.n, rng_stream(args.seed, stream=1)
    )
    dist = empirical_copula_distance(fast, orc)
    rate = orc.meta["accept_rate"]
    se = np.sqrt(tp.c_of_t * (1.0 - tp.c_of_t) / orc.meta["proposals"])
    # the sup distance between two samples shrinks like 1/sqrt(n): 0.015 at n = 1e5
    threshold = 0.015 * np.sqrt(1e5 / args.n) if args.threshold is None else args.threshold
    payload = {
        "schema": SCHEMA,
        "t": tp.t.tolist(),
        "n": args.n,
        "sup_distance": dist,
        "threshold": threshold,
        "pass": bool(dist <= threshold),
        "accept_rate": rate,
        "c_of_t": tp.c_of_t,
        "accept_rate_z": float((rate - tp.c_of_t) / se) if se > 0 else 0.0,
    }
    _emit_json(payload, args.out)
    return 0


def cmd_figure_data(args):
    if args.n < 2:
        raise ConfigError("ranked output needs --n of at least 2")
    spec, points = FIGURES[args.figure]
    model = model_from_dict(spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for k, t in enumerate(points):
        tc = truncate_general(model, t)
        sm = pseudo_observations(sample_truncated(tc, args.n, rng_stream(args.seed, stream=k)))
        _write_sample(sm, outdir / f"{args.figure}_panel{k}.csv", model, tc.point, args.seed,
                      figure=args.figure, panel=k)
    return 0


_COMMANDS = {
    "sample": cmd_sample,
    "cdf": cmd_cdf,
    "truncate-eval": cmd_truncate_eval,
    "taildep": cmd_taildep,
    "kendall": cmd_kendall,
    "oracle-compare": cmd_oracle_compare,
    "figure-data": cmd_figure_data,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "n", None) is not None and args.n < 1:
            raise ConfigError("--n must be at least 1")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SamplingError as exc:
        print(f"sampling error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

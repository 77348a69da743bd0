"""Workload inputs, generated from the workload seed.

Every parameter, threshold, evaluation grid, CLI seed and spec file comes
from the seed; the program only ever sees the generated inputs.  The seed
jitters parameters by about +-10% and threshold directions, while the target
C(t) of each case is fixed, so the work per repetition (tilt sizes, oracle
proposals per row) stays comparable from seed to seed.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

WORKLOADS = ("sample-frailty", "sample-oracle", "cli-batch")


def archimedean(family, theta, d=2, outer_alpha=None):
    gen = {"family": family, "theta": theta}
    if outer_alpha is not None:
        gen["outer_alpha"] = outer_alpha
    return {"kind": "archimedean", "generator": gen, "d": d}


def nested(root, sectors):
    return {
        "kind": "nested_archimedean",
        "root": root,
        "sectors": [{"generator": g, "d": d} for g, d in sectors],
    }


def survival_gumbel(theta):
    return {"kind": "survival", "inner": archimedean("gumbel", theta)}


def threshold(model, c_target, rng):
    """t = s**w with seeded directions w and s solved so that C(t) = c_target."""
    w = rng.uniform(0.7, 1.3, size=model.d)
    lo, hi = 1e-12, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if model.cdf(mid**w) < c_target:
            lo = mid
        else:
            hi = mid
    return [float(x) for x in hi**w]


def _jitter(rng, x):
    return float(x * rng.uniform(0.9, 1.1))


def _case(trunca, rng, name, spec, c_target, n, grid_points):
    model = trunca.model_from_dict(spec)
    return {
        "name": name,
        "model": spec,
        "t": threshold(model, c_target, rng),
        "c_target": c_target,
        "n": n,
        "rng_seed": int(rng.integers(1, 2**31)),
        "grid_seed": int(rng.integers(1, 2**31)),
        "grid_points": grid_points,
    }


def sample_frailty(trunca, rng):
    """Closed-form routes only, from mild (C(t) = 0.4) to strong (0.01) tilts."""
    j = partial(_jitter, rng)
    n, grid = 100_000, 20_000
    plan = [
        ("clayton", archimedean("clayton", j(2.0)), 0.4),
        ("amh", archimedean("amh", j(0.7)), 0.2),
        ("frank", archimedean("frank", j(5.0)), 0.1),
        ("gumbel-mild", archimedean("gumbel", j(2.0)), 0.4),
        # -log C(t) ~ 4.6: the tilted stable splits into m = 5 summands
        ("gumbel-strong", archimedean("gumbel", j(2.0)), 0.01),
        ("joe", archimedean("joe", j(2.0)), 0.05),
        ("joe-strong", archimedean("joe", j(3.0)), 0.01),
        ("outer-clayton-d3", archimedean("clayton", j(1.5), d=3, outer_alpha=0.6), 0.1),
        (
            "product-d4",
            nested(
                {"family": "independence"},
                [({"family": "clayton", "theta": j(2.0)}, 2), ({"family": "gumbel", "theta": j(2.0)}, 2)],
            ),
            0.1,
        ),
    ]
    return {"cases": [_case(trunca, rng, name, spec, c, n, grid) for name, spec, c in plan]}


def sample_oracle(trunca, rng):
    """Models without a closed-form sampler, C(t) from 0.5 down to 0.05."""
    j = partial(_jitter, rng)
    n, grid = 50_000, 2_000
    theta0 = j(2.0)
    plan = [
        ("survival-gumbel", survival_gumbel(j(2.0)), 0.5),
        ("nested-clayton", nested({"family": "clayton", "theta": theta0},
                                  [({"family": "clayton", "theta": theta0}, 1),
                                   ({"family": "clayton", "theta": j(5.0)}, 2)]), 0.2),
        ("marshall-olkin", {"kind": "marshall_olkin", "alpha1": j(0.3), "alpha2": j(0.6)}, 0.05),
    ]
    return {"cases": [_case(trunca, rng, name, spec, c, n, grid) for name, spec, c in plan]}


def _points(rng, count, d):
    return [",".join(repr(float(x)) for x in row) for row in rng.uniform(0.02, 0.98, (count, d))]


def cli_batch(trunca, rng, workdir):
    """Fixed command list; spec files are written into ``workdir``."""
    j = partial(_jitter, rng)
    specs = {
        "clayton.json": archimedean("clayton", j(2.0)),
        "survival_gumbel.json": survival_gumbel(j(2.0)),
        "gumbel3.json": archimedean("gumbel", j(2.0), d=3),
        "joe.json": archimedean("joe", j(2.0)),
        "nested3.json": nested({"family": "clayton", "theta": 2.0},
                               [({"family": "clayton", "theta": 2.0}, 1),
                                ({"family": "clayton", "theta": j(5.0)}, 2)]),
    }
    t = {}
    for name, spec in specs.items():
        path = Path(workdir) / name
        path.write_text(json.dumps({"schema": trunca.SCHEMA, **spec}, indent=2) + "\n")
        t[name] = ",".join(repr(x) for x in threshold(trunca.model_from_dict(spec), 0.3, rng))

    def seed():
        return str(int(rng.integers(0, 2**31)))

    n_points = 100
    commands = [
        {"name": "sample-clayton", "rows": 200_000, "points": 0,
         "argv": ["sample", "--model", "clayton.json", "--t", t["clayton.json"],
                  "--n", "200000", "--seed", seed(), "--out", "clayton.csv"]},
        {"name": "sample-survival-gumbel", "rows": 50_000, "points": 0,
         "argv": ["sample", "--model", "survival_gumbel.json", "--t", t["survival_gumbel.json"],
                  "--n", "50000", "--seed", seed(), "--out", "survival_gumbel.csv"]},
        {"name": "kendall-gumbel3", "rows": 50_000, "points": 0,
         "argv": ["kendall", "--model", "gumbel3.json", "--t", t["gumbel3.json"],
                  "--n", "50000", "--seed", seed(), "--out", "kendall.json"]},
        {"name": "taildep-joe", "rows": 20_000, "points": 0,
         "argv": ["taildep", "--model", "joe.json", "--t", t["joe.json"],
                  "--n", "20000", "--q", "0.05", "--seed", seed(), "--out", "taildep.json"]},
        {"name": "truncate-eval-survival-gumbel", "rows": 0, "points": n_points,
         "argv": ["truncate-eval", "--model", "survival_gumbel.json", "--t", t["survival_gumbel.json"],
                  *[a for p in _points(rng, n_points, 2) for a in ("--u", p)],
                  "--out", "truncate_eval.json"]},
        {"name": "cdf-nested3", "rows": 0, "points": n_points,
         "argv": ["cdf", "--model", "nested3.json",
                  *[a for p in _points(rng, n_points, 3) for a in ("--u", p)],
                  "--out", "cdf.json"]},
    ]
    return {"commands": commands}


def generate(trunca, workload, seed, workdir):
    """The input document of one workload at one seed."""
    import numpy as np

    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    if workload == "sample-frailty":
        body = sample_frailty(trunca, rng)
    elif workload == "sample-oracle":
        body = sample_oracle(trunca, rng)
    else:
        body = cli_batch(trunca, rng, workdir)
    return {"workload": workload, "seed": int(seed), **body}

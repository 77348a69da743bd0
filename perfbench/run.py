"""trunca benchmark: one run of one workload, or of all three, at one seed.

    python3 perfbench/run.py --workload sample-frailty --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
give, ungated, each command's per-repetition minimum, first quartile, median
and p90 with its sample count, the host and version diagnostics, and a fixed
calibration kernel timed before and after the workload.  With ``--workload
all`` the metric names carry the workload as a prefix.  perfbench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pb_stats
from pb_inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_SLACK_S = 100  # worker time allowed beyond --seconds, set-ups included

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def diagnostics(root, src):
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    h = hashlib.sha256()
    for path in sorted((src / "trunca").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": h.hexdigest()[:16],
    }


def calibrate():
    """Best and median of 5 sorts of a fixed 1e6-float array, in ms: a host-speed probe."""
    import numpy as np

    x = np.random.default_rng(0).random(1_000_000)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(x)
        times.append(1e3 * (time.perf_counter() - t0))
    times.sort()
    return {"min_ms": times[0], "median_ms": times[2]}


def end_to_end(result):
    ops = result["ops"]
    per_op = {op["name"]: pb_stats.reduce_times(result["times"][op["name"]]) for op in ops}

    def rate(kind):
        return sum(op["size"] for op in ops if op["kind"] == kind) / sum(
            per_op[op["name"]] for op in ops if op["kind"] == kind)

    return {
        "setup_s": (pb_stats.reduce_times(result["setup_walls"]), "s"),
        "rows_per_s": (rate("rows"), "1/s"),
        "cdf_points_per_s": (rate("points"), "1/s"),
        "cmd_s": (sum(per_op.values()) / len(per_op), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result, spans):
    import pb_trace

    m = pb_trace.layer_metrics(spans, result["traced_requests"])
    ops = result["ops"]
    traced = sum(pb_stats.reduce_times(result["traced_times"][op["name"]]) for op in ops)
    plain = sum(pb_stats.reduce_times(result["times"][op["name"]]) for op in ops)
    m["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    imports = result["imports"]
    for key in ("import_s", "import_scipy_stats_s"):
        m[f"cli.{key}"] = pb_stats.reduce_times([x[key] for x in imports]) if imports else 0.0
    return m


UNITS = (
    (".ns_per_", "ns"), (".us_per_", "us"), (".mb_per_s", "MB/s"), (".proposals_per_", "count"),
    (".accept_rate", "share"), (".failed", "share"), ("_pct", "%"),
)


def unit_of(name):
    for key, unit in UNITS:
        if key in name:
            return unit
    if name.endswith("_s"):
        return "s"
    raise KeyError(name)


def run_workload(workload, seed, seconds, trace, root, src):
    """Run one workload, print its ungated lines and metrics, return the result object."""
    import pb_inputs
    import pb_trace
    import trunca

    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = root / ".perfbench_work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = pb_inputs.generate(trunca, workload, seed, workdir)
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs, indent=1))
    env = child_env(src)
    worker = HERE / "pb_worker.py"

    diag = diagnostics(root, src)
    calib_before = calibrate()
    result_path, spans_path = workdir / "result.json", workdir / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(worker), "run", str(inputs_path), str(seconds), str(trace),
         str(result_path), str(spans_path)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=seconds + WORKER_SLACK_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    calib_after = calibrate()
    result = json.loads(result_path.read_text())

    print(f"# {tag}: {result['passes']} repetitions in {seconds:g} s, "
          f"gated times are the q={pb_stats.REDUCE_Q:g} quantile of per-repetition times")
    print("# env " + json.dumps(diag, sort_keys=True))
    print(f"# calibration np.sort(1e6) min/median ms: before {calib_before['min_ms']:.2f}/"
          f"{calib_before['median_ms']:.2f}, after {calib_after['min_ms']:.2f}/{calib_after['median_ms']:.2f}")
    s = pb_stats.summary(result["setup_walls"])
    print(f"# setup n={s['n']} min={s['min']:.4f} median={s['median']:.4f} p90={s['p90']:.4f} s")
    for label, times in (("", result["times"]), ("traced ", result["traced_times"])):
        for op in result["ops"]:
            if times[op["name"]]:
                s = pb_stats.summary(times[op["name"]])
                print(f"# {label}{op['name']} n={s['n']} min={1e3 * s['min']:.3f} q1={1e3 * s['q1']:.3f} "
                      f"median={1e3 * s['median']:.3f} p90={1e3 * s['p90']:.3f} ms")
    if result["oracle"]["rows"]:
        print(f"# proposals_per_row {result['oracle']['proposals'] / result['oracle']['rows']:.6f} count")
    for line in result["failures"]:
        print(f"# FAILED {line}")

    if trace:
        spans = json.loads(spans_path.read_text())["spans"]
        metrics = {k: (v, unit_of(k)) for k, v in per_layer(result, spans).items()}
        e2e = end_to_end({**result, "times": result["traced_times"]})
        for name, (value, unit) in e2e.items():
            print(f"# traced {name} {value:.6g} {unit}")
    else:
        metrics = end_to_end(result)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads, here and in every child
        os.environ[var] = "1"
    root = Path.cwd()
    src = root / "src"
    if not (src / "trunca" / "__init__.py").is_file():
        print(f"error: no trunca sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace, root, src)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 3
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    # every workload in one command: metric names carry the workload as a prefix
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

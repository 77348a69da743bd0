"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py --workload cli-batch --seeds 1-10 --seconds 25

Runs run.py once per seed, one run at a time, and prints for every metric
the median and the inter-quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), which is how the acceptance check
reads them.  Results and raw per-repetition times are appended to
.perfbench_work/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pb_stats  # noqa: E402


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="25")
    args = p.parse_args(argv)
    log = Path(".perfbench_work")
    log.mkdir(exist_ok=True)
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = json.loads((log / f"{args.workload}-seed{seed}-trace0" / "result.json").read_text())
        with open(log / "steadiness.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result,
                                 "ops": raw["ops"], "times": raw["times"]}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, xs in values.items():
        if len(xs) >= 2:
            print(f"{name}: median {statistics.median(xs):.6g} spread {pb_stats.relative_spread(xs):.4f} (n={len(xs)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload's repetitions, in a fresh interpreter started by run.py.

    pb_worker.py setup INPUTS
    pb_worker.py run INPUTS SECONDS TRACE RESULT SPANS

``setup`` builds the workload's inputs and exits (for ``cli-batch`` it
imports ``trunca.cli`` and prints the import times).  ``run`` repeats the
workload's command list round-robin until SECONDS have passed, checks every
output, and writes per-command times and counts to RESULT.  Between commands
it times SETUPS fresh ``setup`` interpreters, spread evenly over the run.
With TRACE 1 every other repetition runs with spans installed (pb_trace), and
the spans are written to SPANS once at the end.

Heavy modules are imported inside functions so the ``cli-batch`` set-up
times a fresh ``import trunca.cli`` and nothing before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

REFERENCE_SUP = 0.015  # fast route vs oracle, C03's threshold
CDF_TOL = 1e-9  # closed form vs bisection, absolute
TAU_TOL = 1e-12  # empirical_kendall_tau vs scipy.stats.kendalltau
CMD_TIMEOUT_S = 60
SETUPS = 6  # fresh set-up interpreters per run, for setup_s


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


class Op:
    """One entry of the command list: ``run()`` is timed, ``check(out)`` is not."""

    def __init__(self, name, kind, size, run, check):
        self.name, self.kind, self.size, self.run, self.check = name, kind, size, run, check


# --- in-process workloads -----------------------------------------------------


def _rows_ok(x, n, d):
    import numpy as np

    require(x.shape == (n, d), f"shape {x.shape} != {(n, d)}")
    require(bool(np.all(np.isfinite(x))) and x.min() >= 0.0 and x.max() <= 1.0, "row outside [0,1]^d")


def _values_ok(v, points):
    import numpy as np

    v = np.atleast_1d(np.asarray(v, dtype=float))
    require(v.shape == (points,), f"{v.shape[0]} values for {points} points")
    require(bool(np.all(np.isfinite(v))) and v.min() >= 0.0 and v.max() <= 1.0, "cdf value outside [0,1]")
    return v


def build_inprocess(inputs):
    """Models, truncations, grids and the command list of an in-process workload."""
    import numpy as np
    import trunca as tr

    oracle = inputs["workload"] == "sample-oracle"
    routes = ("oracle",) if oracle else ("tilted-frailty", "product")
    ops, cases = [], []
    for case in inputs["cases"]:
        name, n, seed = case["name"], case["n"], case["rng_seed"]
        model = tr.model_from_dict(case["model"])
        t = np.asarray(case["t"], dtype=float)
        grid = np.random.default_rng(case["grid_seed"]).random((case["grid_points"], model.d))
        tc = tr.truncate_general(model, t)
        cases.append((name, model, t, tc, grid))

        def sample(model=model, t=t, n=n, seed=seed):
            return tr.sample_truncated(tr.truncate_general(model, t), n, tr.rng_stream(seed))

        def check_sample(sm, n=n, d=model.d):
            require(sm.meta["method"] in routes, f"route {sm.meta['method']}, expected {routes}")
            _rows_ok(sm.data, n, d)

        ops.append(Op(f"{name}.sample", "rows", n, sample, check_sample))
        if not oracle:
            ops.append(Op(f"{name}.cdf", "points", len(grid), lambda tc=tc, g=grid: tc.cdf(g),
                          lambda v, p=len(grid): _values_ok(v, p)))
            continue
        tb = tr.truncate_general(model, t, method="bisect")
        if isinstance(tc, tr.GeneralTruncation):
            # no closed form (survival Gumbel): "auto" is the section construction too,
            # so the bisection runs once and there is nothing to compare it with
            ops.append(Op(f"{name}.cdf-bisect", "points", len(grid), lambda tb=tb, g=grid: tb.cdf(g),
                          lambda v, p=len(grid): _values_ok(v, p)))
            continue
        last = {}

        def check_auto(v, p=len(grid), last=last):
            last["auto"] = _values_ok(v, p)

        def check_bisect(v, p=len(grid), last=last):
            v = _values_ok(v, p)
            err = float(np.max(np.abs(v - last.pop("auto"))))
            require(err <= CDF_TOL, f"auto vs bisect cdf differ by {err:.3g} > {CDF_TOL}")

        ops.append(Op(f"{name}.cdf-auto", "points", len(grid), lambda tc=tc, g=grid: tc.cdf(g), check_auto))
        ops.append(Op(f"{name}.cdf-bisect", "points", len(grid), lambda tb=tb, g=grid: tb.cdf(g), check_bisect))
    return ops, cases


def inprocess_checks(inputs, cases):
    """Once-per-run checks: (name, callable raising CheckFailed) pairs."""
    import numpy as np
    import trunca as tr

    def reference_pair():
        # fixed-seed fast route vs rejection oracle, as acceptance criterion C03
        m = tr.ArchimedeanCopula(tr.generator("clayton", 2.0), 2)
        t = np.array([0.5, 0.5])
        fast = tr.sample_truncated(tr.truncate_general(m, t), 100_000, tr.rng_stream(103, stream=0))
        orc = tr.transform_margins(tr.oracle_sample(m, t, 100_000, tr.rng_stream(103, stream=1)), m, t)
        dist = tr.empirical_copula_distance(fast, orc)
        require(dist <= REFERENCE_SUP, f"fast vs oracle sup distance {dist:.4f} > {REFERENCE_SUP}")

    checks = [("reference-pair", reference_pair)]
    if inputs["workload"] == "sample-frailty":
        for name, model, t, tc, grid in cases:
            def closed_vs_bisect(model=model, t=t, tc=tc, g=grid[:256]):
                tb = tr.truncate_general(model, t, method="bisect")
                err = float(np.max(np.abs(np.asarray(tc.cdf(g)) - np.asarray(tb.cdf(g)))))
                require(err <= CDF_TOL, f"closed vs bisect cdf differ by {err:.3g} > {CDF_TOL}")
            checks.append((f"{name}.closed-vs-bisect", closed_vs_bisect))
    return checks


# --- cli-batch ----------------------------------------------------------------


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _flags(argv, name):
    return [argv[i + 1] for i, a in enumerate(argv) if a == name]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def build_cli(inputs, env, in_process):
    """The CLI command list: fresh processes, or in-process ``main(argv)`` when traced."""
    if in_process:
        import trunca.cli

    ops = []
    first_digest = {}
    for cmd in inputs["commands"]:
        argv, name, verb = cmd["argv"], cmd["name"], cmd["argv"][0]
        kind, size = ("rows", cmd["rows"]) if cmd["rows"] else ("points", cmd["points"])

        if in_process:
            def run(argv=argv):
                # looked up per call, so the traced passes reach the wrapped main
                with contextlib.redirect_stdout(io.StringIO()):
                    return trunca.cli.main(list(argv)), ""
        else:
            def run(argv=argv):
                proc = subprocess.run([sys.executable, "-m", "trunca.cli", *argv], env=env,
                                      capture_output=True, text=True, timeout=CMD_TIMEOUT_S)
                return proc.returncode, proc.stderr

        def check(out, argv=argv, verb=verb, name=name, size=size):
            rc, err = out
            require(rc == 0, f"exit code {rc}: {err.strip()[-300:]}")
            path = _flag(argv, "--out")
            if verb == "sample":
                digest = _digest(path)
                require(first_digest.setdefault(name, digest) == digest, "same seed gave different CSV bytes")
                require(_read_json(path + ".meta.json")["n"] == size, "meta row count")
            elif verb == "kendall":
                import numpy as np

                tau = np.asarray(_read_json(path)["tau"])
                d = tau.shape[0]
                require(tau.shape == (d, d) and np.allclose(np.diag(tau), 1.0), "tau matrix shape")
                require(bool(np.all(np.abs(tau) <= 1.0)) and np.array_equal(tau, tau.T), "tau matrix values")
            elif verb == "taildep":
                require("empirical" in _read_json(path), "taildep lacks the empirical estimate")
            else:
                _values_ok(_read_json(path)["values"], size)

        ops.append(Op(name, kind, size, run, check))
    return ops


def cli_checks(inputs):
    """Once-per-run checks that replay the CLI's commands through the library."""
    import numpy as np
    import scipy.stats
    import trunca as tr

    def library_sample(argv):
        model = tr.load_model(_flag(argv, "--model"))
        t = np.asarray([float(x) for x in _flag(argv, "--t").split(",")])
        tc = tr.truncate_general(model, t)
        return model, tc, tr.sample_truncated(tc, int(_flag(argv, "--n")), tr.rng_stream(int(_flag(argv, "--seed"))))

    def points(argv):
        return np.asarray([[float(x) for x in u.split(",")] for u in _flags(argv, "--u")])

    checks = []
    for cmd in inputs["commands"]:
        argv, verb = cmd["argv"], cmd["argv"][0]
        if verb == "sample":
            def parse_back(argv=argv):
                expect = tr.pseudo_observations(library_sample(argv)[2]).data
                got = np.loadtxt(_flag(argv, "--out"), delimiter=",", skiprows=1, ndmin=2)
                require(got.shape == expect.shape and np.array_equal(got, expect),
                        "CSV does not parse back to the sampled array")
            checks.append((f"{cmd['name']}.csv-parse-back", parse_back))
        elif verb == "kendall":
            def kendall_vs_scipy(argv=argv):
                sm = library_sample(argv)[2]
                cli_tau = np.asarray(_read_json(_flag(argv, "--out"))["tau"])
                for i in range(sm.dim):
                    for j in range(i + 1, sm.dim):
                        ref = scipy.stats.kendalltau(sm.data[:, i], sm.data[:, j]).statistic
                        ours = tr.empirical_kendall_tau(sm, i, j)
                        require(abs(ours - ref) <= TAU_TOL and abs(cli_tau[i, j] - ref) <= TAU_TOL,
                                f"tau({i},{j}) {ours!r}/{cli_tau[i, j]!r} vs scipy {ref!r}")
            checks.append((f"{cmd['name']}.kendall-vs-scipy", kendall_vs_scipy))
        elif verb in ("cdf", "truncate-eval"):
            def values_match(argv=argv, verb=verb):
                model = tr.load_model(_flag(argv, "--model"))
                if verb == "cdf":
                    expect = model.cdf(points(argv))
                else:
                    t = np.asarray([float(x) for x in _flag(argv, "--t").split(",")])
                    expect = tr.truncate_general(model, t).cdf(points(argv))
                got = np.asarray(_read_json(_flag(argv, "--out"))["values"])
                require(np.array_equal(got, np.atleast_1d(expect)), "CLI values differ from the library's")
            checks.append((f"{cmd['name']}.values-match", values_match))
    return checks


# --- repetitions and result ---------------------------------------------------


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, name, exc):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    def attempt(self, name, fn, *args):
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.fail(name, exc)


def timed_setup(inputs_path, env):
    """Wall time of one fresh interpreter that builds the inputs, and what it printed."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "setup", inputs_path], env=env,
                          capture_output=True, text=True, timeout=CMD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return wall, json.loads(lines[-1]) if lines else None


def repeat(ops, seconds, tally, tracer=None, warmup=True, setups=()):
    """Round-robin passes over ``ops`` until ``seconds`` have passed.

    With a tracer, even passes run with spans installed and odd passes
    without, so traced and untraced times come from the same stretch of
    host time.  The ``setups`` callables run between commands at evenly
    spaced moments of the run, so their median follows the host speed of the
    whole run like the command times do; the time they take is added to the
    run.  Returns ({op: [s]}, {op: [s]} traced, ids of the traced passes that
    ran every op, passes).
    """
    import pb_trace

    def one(op, times):
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 - counted against the operation
            tally.attempted += 1
            tally.fail(op.name, exc)
            return
        elapsed = time.perf_counter() - t0
        tally.attempt(op.name, op.check, out)
        if times is not None:
            times[op.name].append(elapsed)

    if warmup:
        for op in ops:
            one(op, None)
    plain = {op.name: [] for op in ops}
    traced = {op.name: [] for op in ops}
    traced_ids = []
    start = time.perf_counter()
    deadline = start + seconds
    pending = list(setups)
    due = [start + seconds * k / len(pending) for k in range(len(pending))]

    def run_due_setups(drain=False):
        nonlocal deadline
        while pending and (drain or time.perf_counter() >= due[0]):
            t0 = time.perf_counter()
            pending.pop(0)()
            due.pop(0)
            spent = time.perf_counter() - t0
            due[:] = [d + spent for d in due]
            deadline += spent

    rep = 0
    while True:
        inst = None
        if tracer is not None and rep % 2 == 0:
            tracer.request = rep
            inst = pb_trace.install(tracer)
        done = 0
        try:
            for op in ops:
                run_due_setups()
                if rep >= 2 and time.perf_counter() >= deadline:
                    break
                one(op, traced if inst is not None else plain)
                done += 1
        finally:
            if inst is not None:
                inst.uninstall()
        if inst is not None and done == len(ops):
            # only whole passes feed the per-layer counts, so their ratios repeat exactly
            traced_ids.append(rep)
        rep += 1
        if rep >= 2 and time.perf_counter() >= deadline:
            break
    run_due_setups(drain=True)
    return plain, traced, traced_ids, rep


def run(inputs_path, inputs, seconds, trace, result_path, spans_path, env):
    import pb_trace

    tally = Tally()
    setup_walls, imports = [], []

    def setup_once():
        wall, printed = timed_setup(inputs_path, env)
        setup_walls.append(wall)
        if printed is not None:
            imports.append(printed)

    setups = [setup_once] * SETUPS
    cli = inputs["workload"] == "cli-batch"
    tracer = pb_trace.Tracer() if trace else None
    if cli:
        ops = build_cli(inputs, env, in_process=bool(trace))
        # fresh CLI processes need no warm-up: set-up already imported everything once
        plain, traced, traced_ids, passes = repeat(ops, seconds, tally, tracer, warmup=bool(trace),
                                                   setups=setups)
        who = resource.RUSAGE_SELF if trace else resource.RUSAGE_CHILDREN
        peak_kb = resource.getrusage(who).ru_maxrss
        checks = cli_checks(inputs)
    else:
        ops, cases = build_inprocess(inputs)
        plain, traced, traced_ids, passes = repeat(ops, seconds, tally, tracer, setups=setups)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checks = inprocess_checks(inputs, cases)
    for name, fn in checks:
        tally.attempt(name, fn)

    oracle = {"proposals": 0, "rows": 0}
    if inputs["workload"] == "sample-oracle":
        # one more pass: the fresh per-pass streams make these counts repeat exactly
        for op in ops:
            if op.kind == "rows":
                meta = op.run().meta
                oracle["proposals"] += int(meta["proposals"])
                oracle["rows"] += op.size
    result = {
        "ops": [{"name": op.name, "kind": op.kind, "size": op.size} for op in ops],
        "times": plain,
        "traced_times": traced,
        "traced_requests": traced_ids,
        "passes": passes,
        "setup_walls": setup_walls,
        "imports": imports,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "peak_rss_mb": peak_kb / 1024.0,
        "oracle": oracle,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "ok", "attrs"],
                       "spans": tracer.spans}, fh)


def setup(inputs):
    if inputs["workload"] == "cli-batch":
        t0 = time.perf_counter()
        import scipy.stats  # noqa: F401
        t1 = time.perf_counter()
        import trunca.cli  # noqa: F401
        t2 = time.perf_counter()
        print(json.dumps({"import_scipy_stats_s": t1 - t0, "import_s": t2 - t0}))
    else:
        build_inprocess(inputs)


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        inputs = json.load(fh)
    if argv[0] == "setup":
        setup(inputs)
        return 0
    seconds, trace, result_path, spans_path = float(argv[2]), int(argv[3]), argv[4], argv[5]
    run(argv[1], inputs, seconds, trace, result_path, spans_path, dict(os.environ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

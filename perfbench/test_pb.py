"""Tests for the benchmark's own helpers: reducers, spans, metric names."""

import itertools
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import pb_stats
import pb_trace
import pb_worker
import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_quantile_reducer():
    xs = [3.0, 1.5, 2.0, 8.0]
    assert pb_stats.REDUCE_Q == 0.5
    assert pb_stats.reduce_times(xs) == pytest.approx(2.5)
    assert pb_stats.reduce_times([7.0]) == 7.0
    with pytest.raises(IndexError):
        pb_stats.reduce_times([])


def test_summary_and_spread():
    s = pb_stats.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["n"], s["min"], s["median"]) == (5, 1.0, 3.0)
    assert s["p90"] == pytest.approx(4.6)
    assert pb_stats.relative_spread([10.0] * 4) == 0.0


def test_setups_spread_over_the_run():
    starts, marks = [], []

    def command():
        starts.append(time.perf_counter())
        time.sleep(0.001)

    op = pb_worker.Op("x", "rows", 1, command, lambda out: None)
    setups = [lambda: marks.append(time.perf_counter())] * 4
    tally = pb_worker.Tally()
    plain, _, _, _ = pb_worker.repeat([op], 0.2, tally, warmup=False, setups=setups)
    assert len(marks) == 4 and tally.failed == 0 and len(plain["x"]) == len(starts)
    assert marks[0] < starts[0] and marks[-1] - marks[0] >= 0.1
    # commands run between consecutive set-ups
    assert all(any(a < t < b for t in starts) for a, b in zip(marks, marks[1:]))


def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1, 0, True, None],
        ["b", 1.0, 4.0, 0, 0, True, None],
        ["c", 2.0, 3.0, 1, 0, True, None],
        ["d", 5.0, 7.0, 0, 0, True, None],
        # overlapping children count their union once
        ["e", 20.0, 30.0, -1, 1, True, None],
        ["f", 21.0, 25.0, 4, 1, True, None],
        ["g", 23.0, 27.0, 4, 1, True, None],
    ]
    assert pb_trace.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 4.0, 4.0, 4.0]
    assert pb_trace.roots(spans) == [0, 0, 0, 0, 4, 4, 4]


def test_request_and_parent_linkage():
    tracer = pb_trace.Tracer(clock=itertools.count().__next__)

    def leaf(x):
        return x + 1

    traced_leaf = pb_trace._wrap(tracer, "generators.leaf", leaf)

    def mid(x):
        return traced_leaf(x) * 2

    traced_mid = pb_trace._wrap(tracer, "sampling.mid", mid)
    tracer.request = 7
    assert traced_mid(1) == 4
    tracer.request = 8
    assert traced_leaf(1) == 2
    names = [s[0] for s in tracer.spans]
    assert names == ["sampling.mid", "generators.leaf", "generators.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]
    assert [s[4] for s in tracer.spans] == [7, 7, 8]
    assert all(s[1] < s[2] and s[5] for s in tracer.spans)


def test_failed_span_is_marked():
    tracer = pb_trace.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        pb_trace._wrap(tracer, "copulas.boom", boom)()
    assert tracer.spans[0][5] is False


def _traced_sample():
    import trunca as tr

    tracer = pb_trace.Tracer()
    model = tr.ArchimedeanCopula(tr.generator("joe", 2.0), 2)
    inst = pb_trace.install(tracer)
    try:
        tc = tr.truncate_general(model, [0.3, 0.4])
        sm = tr.sample_truncated(tc, 2000, tr.rng_stream(5))
        tc.cdf(np.full((10, 2), 0.5))
    finally:
        inst.uninstall()
    return tracer, sm


def test_install_nests_layers_and_uninstalls():
    import trunca as tr
    from trunca import sampling

    original = sampling.sample_frailty
    tracer, sm = _traced_sample()
    assert sampling.sample_frailty is original
    assert not hasattr(tr.Generator.psi, "__wrapped__")
    spans = tracer.spans
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], i)
    frailty = spans[by_name["frailty.sample_frailty"]]
    assert spans[frailty[3]][0] == "sampling.sample_archimedean"
    assert spans[by_name["frailty.sample_tilted_sibuya"]][3] >= 0
    # results are unchanged by tracing
    untraced = tr.sample_truncated(tr.truncate_general(
        tr.ArchimedeanCopula(tr.generator("joe", 2.0), 2), [0.3, 0.4]), 2000, tr.rng_stream(5))
    assert np.array_equal(sm.data, untraced.data)


def test_emitted_names_and_units():
    tracer, _ = _traced_sample()
    fake = {"ops": [{"name": "x", "kind": "rows", "size": 10}],
            "times": {"x": [1.0]}, "traced_times": {"x": [1.1]}, "traced_requests": [0],
            "peak_rss_mb": 1.0, "setup_walls": [0.5], "imports": []}
    layer = run.per_layer(fake, tracer.spans)
    e2e = run.end_to_end({**fake, "ops": fake["ops"] + [{"name": "y", "kind": "points", "size": 5}],
                          "times": {"x": [1.0], "y": [2.0]}})
    for name in [*layer, *e2e]:
        assert NAME.fullmatch(name), name
    assert sorted(layer) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert sorted(e2e) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(run.unit_of(name) == units[name] for name in layer)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert layer["frailty.tilted_sibuya.proposals_per_draw"] >= 1.0
    assert layer["frailty.joe.tilted.ns_per_draw"] > 0.0

"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run ``pytest -v -s tests/test_acceptance.py`` to see one PASS line per
criterion (failures surface as ordinary pytest failures).
"""

import time

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from trunca import (
    ArchimedeanCopula,
    ComonotoneCopula,
    IndependenceCopula,
    MarshallOlkinCopula,
    NestedArchimedeanCopula,
    box_mass,
    empirical_copula_distance,
    empirical_kendall_tau,
    empirical_tail_dep,
    ev_scaling_check,
    generator,
    kendall_dist_truncated,
    oracle_sample,
    rng_stream,
    sample_frailty,
    sample_tilted_sibuya,
    sample_truncated,
    survival,
    tail_dep_exchangeable_equal_t,
    tail_dep_tilted,
    transform_margins,
    truncate_general,
    truncated_cdf,
)


def _report(num, elapsed, limit, detail):
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"
    print(f"\n[acceptance {num:02d}] PASS ({elapsed:5.1f}s < {limit}s) {detail}")


def test_c01_closure_identities():
    start = time.time()
    rng = np.random.default_rng(101)
    grid_t = np.linspace(0.0, 50.0, 200)
    pts = rng.random((1000, 2))
    worst = 0.0
    for fam, theta_rng, closed_theta in (
        ("clayton", (0.3, 6.0), lambda th, h, c: th),
        ("amh", (0.05, 0.95), lambda th, h, c: np.exp(-h) * th),
        ("frank", (0.5, 15.0), lambda th, h, c: th * c),
    ):
        for _ in range(5):
            th = float(rng.uniform(*theta_rng))
            t = rng.uniform(0.15, 0.95, size=2)
            m = ArchimedeanCopula(generator(fam, th), 2)
            tc = truncate_general(m, t)
            h, c = tc.model.generator.h, tc.point.c_of_t
            m2 = ArchimedeanCopula(generator(fam, closed_theta(th, h, c)), 2)
            dev = float(np.max(np.abs(tc.cdf(pts) - m2.cdf(pts))))
            worst = max(worst, dev)
            if fam != "clayton":  # generator-level identity (Clayton rescales)
                gdev = float(
                    np.max(np.abs(np.asarray(tc.model.generator.psi(grid_t)) - np.asarray(m2.generator.psi(grid_t))))
                )
                worst = max(worst, gdev)
            assert dev <= 1e-10, (fam, th, t)
    _report(1, time.time() - start, 5.0, f"Clayton/AMH/Frank closures, worst dev {worst:.2e} <= 1e-10")


def _acceptance_models():
    return {
        "independence": (IndependenceCopula(2), [0.5, 0.8]),
        "comonotone": (ComonotoneCopula(2), [0.4, 0.9]),
        "clayton": (ArchimedeanCopula(generator("clayton", 2.0), 2), [0.5, 0.5]),
        "amh": (ArchimedeanCopula(generator("amh", 0.7), 2), [0.6, 0.5]),
        "frank": (ArchimedeanCopula(generator("frank", 4.0), 2), [0.5, 0.5]),
        "gumbel": (ArchimedeanCopula(generator("gumbel", 2.0), 2), [0.7, 0.6]),
        "joe": (ArchimedeanCopula(generator("joe", 2.0), 2), [0.7, 0.6]),
        "opclayton": (
            ArchimedeanCopula(generator("clayton", 1.5, outer_alpha=0.6), 2),
            [0.5, 0.6],
        ),
        "nested_clayton": (
            NestedArchimedeanCopula(
                generator("clayton", 2.0),
                [(generator("clayton", 2.0), 1), (generator("clayton", 6.0), 2)],
            ),
            [0.2, 0.5, 0.5],
        ),
        "nested_gumbel": (
            NestedArchimedeanCopula(
                generator("gumbel", 2.0),
                [(generator("gumbel", 2.0), 1), (generator("gumbel", 4.0), 2)],
            ),
            [0.9, 0.5, 0.5],
        ),
        "mo": (MarshallOlkinCopula(0.2, 0.7), [0.6, 0.9]),
        "survival_gumbel": (
            survival(ArchimedeanCopula(generator("gumbel", 2.0), 2)),
            [0.5, 0.8],
        ),
    }


def test_c02_general_formula_consistency():
    start = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for name, (m, t) in _acceptance_models().items():
        tc = truncate_general(m, t)
        tb = truncate_general(m, t, method="bisect")
        pts = rng.random((1000, m.d))
        dev = float(np.max(np.abs(tc.cdf(pts) - tb.cdf(pts))))
        worst = max(worst, dev)
        assert dev <= 1e-9, name
    _report(2, time.time() - start, 30.0, f"12 models closed vs bisection, worst {worst:.2e} <= 1e-9")


def test_c03_oracle_equivalence():
    start = time.time()
    n = 100_000
    cases = {
        "clayton": (ArchimedeanCopula(generator("clayton", 2.0), 2), [0.5, 0.5]),
        "amh": (ArchimedeanCopula(generator("amh", 0.7), 2), [0.6, 0.5]),
        "frank": (ArchimedeanCopula(generator("frank", 4.0), 2), [0.5, 0.5]),
        "gumbel": (ArchimedeanCopula(generator("gumbel", 2.0), 2), [0.7, 0.6]),
        "joe": (ArchimedeanCopula(generator("joe", 2.0), 2), [0.7, 0.6]),
        "opclayton": (
            ArchimedeanCopula(generator("clayton", 1.5, outer_alpha=0.6), 2),
            [0.5, 0.6],
        ),
        "product": (
            NestedArchimedeanCopula(
                generator("independence"),
                [(generator("clayton", 2.0), 2), (generator("gumbel", 3.0), 1)],
            ),
            [0.5, 0.6, 0.9],
        ),
    }
    worst = 0.0
    for k, (name, (m, t)) in enumerate(cases.items()):
        t = np.asarray(t, dtype=float)
        tc = truncate_general(m, t)
        assert tc.form in ("tilted-archimedean", "product")
        fast = sample_truncated(tc, n, rng_stream(103, stream=2 * k))
        raw = oracle_sample(m, t, n, rng_stream(103, stream=2 * k + 1))
        orc = transform_margins(raw, m, t)
        dist = empirical_copula_distance(fast, orc)
        worst = max(worst, dist)
        assert dist <= 0.015, name
        c = raw.meta["c_of_t"]
        se = np.sqrt(c * (1.0 - c) / raw.meta["proposals"])
        assert abs(raw.meta["accept_rate"] - c) <= 4.0 * se, name
    _report(3, time.time() - start, 120.0, f"7 closed paths vs oracle at n=1e5, worst sup {worst:.4f} <= 0.015")


def test_c04_tilted_frailty_laplace_transforms():
    start = time.time()
    n = 10**6
    worst = 0.0
    fams = [("clayton", 2.0), ("amh", 0.7), ("frank", 4.0), ("gumbel", 2.0), ("joe", 2.0)]
    for i, (fam, th) in enumerate(fams):
        g = generator(fam, th)
        for j, c in enumerate((None, 0.5, 0.1)):
            h = 0.0 if c is None else float(g.psi_inv(c))
            v = np.asarray(sample_frailty(g, h, rng_stream(104, stream=3 * i + j), size=n), float)
            for t in (0.25, 1.0, 4.0):
                w = np.exp(-t * v)
                se = w.std(ddof=1) / np.sqrt(n)
                target = float(np.exp(g.log_psi(t + h) - g.log_psi(h)))
                z = abs(w.mean() - target) / se
                worst = max(worst, z)
                assert z <= 4.0, (fam, h, t)
    _report(4, time.time() - start, 60.0, f"5 families x 3 tilts x 3 LT points at n=1e6, worst |z| {worst:.2f} <= 4")


def test_c05_tilted_sibuya_sampler():
    start = time.time()
    n = 400_000
    accepted = proposals = 0
    for k, (alpha, p) in enumerate(((0.5, 0.51), (0.9, 0.2), (0.3, 0.8))):
        v, acc, prop = sample_tilted_sibuya(
            alpha, p, rng_stream(1051, stream=k), size=n, return_stats=True
        )
        accepted += acc
        proposals += prop
        v = np.asarray(v)
        kk = np.arange(1, 21)
        pmf = np.empty(20)
        pmf[0] = alpha
        for i in range(1, 20):
            pmf[i] = pmf[i - 1] * (i - alpha) / (i + 1)
        pmf = p**kk * pmf / (1.0 - (1.0 - p) ** alpha)
        counts = np.array([(v == x).sum() for x in kk], dtype=float)
        observed = np.append(counts, n - counts.sum())
        expected = np.append(pmf * n, (1.0 - pmf.sum()) * n)
        keep = expected >= 5.0
        stat = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        assert stat < chi2.ppf(0.99, int(keep.sum()) - 1), (alpha, p)
    rate = accepted / proposals
    assert rate >= 1.0 / 1.5820 - 0.01
    _report(5, time.time() - start, 30.0, f"3 pmf chi-square passes; acceptance {rate:.4f} >= {1/1.5820 - 0.01:.4f}")


def test_c06_tail_dependence():
    start = time.time()
    target = 2.0 - np.sqrt(2.0)
    sg = survival(ArchimedeanCopula(generator("gumbel", 2.0), 2))
    rep = tail_dep_exchangeable_equal_t(sg, 0.3)
    assert abs(rep.lambda_lower - target) <= 1e-6
    assert abs(rep.lambda_upper) <= 1e-6

    n = 10**6
    t = np.array([0.3, 0.3])
    raw = oracle_sample(sg, t, n, rng_stream(106))
    sample = transform_margins(raw, sg, t)
    emp = empirical_tail_dep(sample, 0.02)
    assert abs(emp.lambda_lower - target) <= 0.05

    for fam, th in (("clayton", 2.0), ("amh", 0.7), ("frank", 4.0), ("gumbel", 2.0), ("joe", 2.0)):
        assert tail_dep_tilted(generator(fam, th), 0.8).lambda_upper == 0.0

    rng = np.random.default_rng(1066)
    fams = [("clayton", (0.5, 8.0)), ("gumbel", (1.0, 6.0)), ("joe", (1.0, 6.0)),
            ("frank", (0.5, 20.0)), ("amh", (0.0, 0.95))]
    for _ in range(10):
        fam, bounds = fams[rng.integers(0, len(fams))]
        g = generator(fam, float(rng.uniform(*bounds)))
        h = float(g.psi_inv(float(rng.uniform(0.05, 0.95))))
        assert tail_dep_tilted(g, h).lambda_lower >= tail_dep_tilted(g, 0.0).lambda_lower - 1e-12
    _report(
        6,
        time.time() - start,
        120.0,
        f"surv-Gumbel ll analytic {rep.lambda_lower:.8f} (err {abs(rep.lambda_lower - target):.1e} <= 1e-6), "
        f"empirical {emp.lambda_lower:.4f} (err {abs(emp.lambda_lower - target):.3f} <= 0.05); "
        "upper tails vanish; lower tails never shrink",
    )


def test_c07_nested_truncation():
    start = time.time()
    m = NestedArchimedeanCopula(
        generator("clayton", 2.0),
        [(generator("clayton", 2.0), 1), (generator("clayton", 6.0), 2)],
    )
    t = np.array([0.2, 0.5, 0.5])
    tc = truncate_general(m, t)

    gr = np.linspace(0.004, 0.996, 250)
    for j in range(3):
        pts = np.ones((gr.size, 3))
        pts[:, j] = gr
        assert np.max(np.abs(tc.cdf(pts) - gr)) <= 1e-10

    rng = np.random.default_rng(107)
    u1 = rng.random(400)
    u2 = rng.random(400)
    cross = tc.model.biv_margin(0, 0, 1, 1, u1, u2)
    tilted = tc.model.root
    direct = np.asarray(tilted.psi(np.asarray(tilted.psi_inv(u1)) + np.asarray(tilted.psi_inv(u2))))
    assert np.max(np.abs(cross - direct)) <= 1e-10
    pts = np.ones((400, 3))
    pts[:, 0] = u1
    pts[:, 2] = u2
    assert np.max(np.abs(cross - tc.cdf(pts))) <= 1e-10

    n = 100_000
    raw = oracle_sample(m, t, n, rng_stream(107))
    sample = transform_margins(raw, m, t)
    se = np.sqrt(2.0 * (2.0 * n + 5.0) / (9.0 * n * (n - 1.0)))
    taus = [empirical_kendall_tau(sample, 0, 1), empirical_kendall_tau(sample, 0, 2)]
    for tau in taus:
        assert abs(tau - 0.5) <= 3.0 * se
    _report(
        7,
        time.time() - start,
        120.0,
        f"margins/cross-sector forms <= 1e-10; cross taus {taus[0]:.4f}, {taus[1]:.4f} within 3se of 0.5",
    )


def test_c08_marshall_olkin():
    start = time.time()
    mo = MarshallOlkinCopula(0.2, 0.7)
    rng = np.random.default_rng(108)
    worst = 0.0
    for t in ([0.6, 0.9], [0.9, 0.6], [0.5, 0.8], [1.0, 1.0]):
        tc = truncate_general(mo, t)
        tb = truncate_general(mo, t, method="bisect")
        pts = rng.random((600, 2))
        dev = float(np.max(np.abs(tc.cdf(pts) - tb.cdf(pts))))
        worst = max(worst, dev)
        assert dev <= 1e-10

    tc = truncate_general(mo, [0.6, 0.9])
    d = 0.003
    ratios = []
    for u1 in (0.3, 0.5, 0.7):
        u2 = float(mo.singular_curve(np.asarray(u1), [0.6, 0.9]))
        on = box_mass(tc, [u1 - d, u2 - d], [u1 + d, u2 + d])
        off = box_mass(tc, [u1 - d, u2 - 0.2 - d], [u1 + d, u2 - 0.2 + d])
        ratios.append(on / off)
        assert on > 10.0 * off

    tiny = truncate_general(mo, [1e-4, 1e-4])
    u = np.linspace(0.05, 0.95, 19)
    U1, U2 = np.meshgrid(u, u)
    pts = np.column_stack([U1.ravel(), U2.ravel()])
    dev_ind = float(np.max(np.abs(tiny.cdf(pts) - pts.prod(axis=1))))
    assert dev_ind <= 5e-3
    _report(
        8,
        time.time() - start,
        30.0,
        f"closed vs numeric {worst:.1e} <= 1e-10; singular box ratios {min(ratios):.0f}x; "
        f"equal-t 1e-4 indep dev {dev_ind:.1e} <= 5e-3",
    )


def test_c09_ev_scaling():
    start = time.time()
    mo = MarshallOlkinCopula(0.2, 0.7)
    u = np.linspace(0.05, 0.95, 15)
    U1, U2 = np.meshgrid(u, u)
    grid = np.column_stack([U1.ravel(), U2.ravel()])
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        dev = ev_scaling_check(mo, [0.25, 0.49], alpha, grid)
        worst = max(worst, dev)
        assert dev <= 1e-9, alpha
    _report(9, time.time() - start, 5.0, f"max scaling deviation {worst:.1e} <= 1e-9")


def test_c10_limiting_clayton():
    start = time.time()
    grid = np.linspace(0.0, 20.0, 401)
    theta = 2.0
    g = generator("clayton", theta)
    errs = [
        float(np.max(np.abs(np.asarray(g.tilt(h).psi(h * grid)) - (1.0 + grid) ** (-1.0 / theta))))
        for h in (1e1, 1e2, 1e3, 1e4)
    ]
    assert np.all(np.diff(errs) < 0) and errs[-1] < 1e-3

    alpha = 0.8
    gop = generator("clayton", theta, outer_alpha=alpha)
    errs_op = [
        float(np.max(np.abs(np.asarray(gop.tilt(h).psi(h * grid)) - (1.0 + grid) ** (-alpha / theta))))
        for h in (1e1, 1e2, 1e3, 1e4)
    ]
    assert np.all(np.diff(errs_op) < 0) and errs_op[-1] < 1e-3
    _report(
        10,
        time.time() - start,
        5.0,
        f"sup errors decrease to {errs[-1]:.1e} (Clayton) and {errs_op[-1]:.1e} (outer power) < 1e-3",
    )


def test_c10_limiting_clayton_copula_level():
    # along t = s^w, s -> 0, the truncated copula tends to Clayton(theta/alpha)
    # for an outer-power Clayton, and to independence for AMH, Frank and Joe,
    # all to rounding by s = 1e-16; Gumbel tends to independence only
    # logarithmically.  The distance is the sup over a fixed grid; it falls at
    # every step until it reaches the rounding floor.
    start = time.time()
    axis = np.linspace(0.05, 0.95, 19)
    grid = np.array([[a, b] for a in axis for b in axis])
    ss = 10.0 ** -np.arange(1, 17)
    floor = 1e-13
    cases = [
        (generator("clayton", 2.0, outer_alpha=1.0), ArchimedeanCopula(generator("clayton", 2.0)), 1e-14),
        (generator("clayton", 2.0, outer_alpha=0.5), ArchimedeanCopula(generator("clayton", 4.0)), 1e-14),
        (generator("clayton", 1.0, outer_alpha=0.7), ArchimedeanCopula(generator("clayton", 1.0 / 0.7)), 1e-14),
        (generator("amh", 0.7), IndependenceCopula(2), 1e-13),
        (generator("frank", 5.0), IndependenceCopula(2), 1e-13),
        (generator("joe", 2.0), IndependenceCopula(2), 1e-13),
        (generator("gumbel", 2.0), IndependenceCopula(2), 5e-3),
    ]
    last = []
    for g, limit, bound in cases:
        m = ArchimedeanCopula(g)
        ref = limit.cdf(grid)
        for w in ((1.0, 1.0), (1.0, 0.5)):
            dist = np.array([
                np.max(np.abs(truncate_general(m, s ** np.asarray(w)).cdf(grid) - ref)) for s in ss
            ])
            assert np.all((dist[1:] < dist[:-1]) | (dist[1:] <= floor)), (g, w, dist)
            assert dist[-1] <= bound, (g, w, dist[-1])
            last.append(dist[-1])
    # Gumbel's distance falls like 1/log(1/s): it only halves from s = 1e-8 to 1e-16
    assert dist[-1] > 1e-3 and dist[-1] > 0.4 * dist[7]
    _report(
        10,
        time.time() - start,
        10.0,
        f"copula-level limits at s = 1e-16: largest non-Gumbel {max(last[:-2]):.1e}, Gumbel(2) {dist[-1]:.1e}",
    )


def test_c11_kendall_distribution():
    start = time.time()
    n = 100_000
    cases = []
    for fam in ("clayton", "gumbel", "joe"):
        for d, tpoints in ((2, ([0.5, 0.5], [0.3, 0.8])), (3, ([0.5, 0.5, 0.5], [0.4, 0.6, 0.8]))):
            for t in tpoints:
                cases.append((fam, d, np.asarray(t, dtype=float)))
    pvals = []
    for k, (fam, d, t) in enumerate(cases):
        g = generator(fam, 2.0)
        tc = truncate_general(ArchimedeanCopula(g, d), t)
        sm = sample_truncated(tc, n, rng_stream(111, stream=k))
        w = tc.cdf(sm.data)
        res = kstest(w, lambda x, g=g, t=t: np.atleast_1d(kendall_dist_truncated(g, t, x)))
        pvals.append(res.pvalue)
        assert res.pvalue > 0.01, (fam, d, t.tolist(), res.pvalue)
    _report(
        11,
        time.time() - start,
        60.0,
        f"12 KS tests at 1% level (min p-value {min(pvals):.3f})",
    )


def test_truncated_cdf_and_margins_spot():
    # cross-cutting spot check used by several criteria's setups
    m = ArchimedeanCopula(generator("clayton", 2.0), 2)
    assert truncated_cdf(m, [0.5, 0.5], [0.5, 0.25]) == pytest.approx(
        19.0**-0.5 / 7.0**-0.5, rel=1e-12
    )

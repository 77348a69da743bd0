import argparse
import warnings
from decimal import Decimal, localcontext
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from trunca import (
    ArchimedeanCopula,
    ComonotoneCopula,
    GeneralTruncation,
    IndependenceCopula,
    MarshallOlkinCopula,
    ModelTruncation,
    MOTruncation,
    NestedArchimedeanCopula,
    SampleMatrix,
    SamplingError,
    TruncationPoint,
    box_mass,
    empirical_copula_distance,
    ev_scaling_check,
    generator,
    kendall_dist_truncated,
    model_tail_dep,
    oracle_sample,
    pseudo_observations,
    rng_stream,
    sample_archimedean,
    sample_model,
    sample_truncated,
    survival,
    transform_margins,
    truncate_general,
    truncated_cdf,
)
from trunca import cli, copulas, generators
from trunca.copulas import (
    BISECT_WIDTH,
    SECTION_NODES,
    CopulaModel,
    SurvivalCopula,
    _columnwise,
    _inside,
    _itp_section_inv,
)


def model_zoo():
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
        "nested_ind": (
            NestedArchimedeanCopula(
                generator("independence"),
                [(generator("clayton", 2.0), 2), (generator("gumbel", 3.0), 1)],
            ),
            [0.5, 0.6, 0.9],
        ),
        "mo": (MarshallOlkinCopula(0.2, 0.7), [0.6, 0.9]),
        "survival_gumbel": (
            survival(ArchimedeanCopula(generator("gumbel", 2.0), 2)),
            [0.5, 0.8],
        ),
    }


ZOO = model_zoo()
# each zoo model's own threshold
ZOO_T = {name: np.asarray(t, dtype=float) for name, (_, t) in ZOO.items()}


def _unit_vectors(d, lo):
    return st.lists(st.floats(lo, 1.0), min_size=d, max_size=d).map(np.asarray)


# a random threshold in [0.05, 1]^d for every zoo model
ZOO_THRESHOLDS = st.fixed_dictionaries(
    {name: _unit_vectors(m.d, 0.05) for name, (m, _) in ZOO.items()}
)


class TestCdf:
    def test_point_values(self):
        assert IndependenceCopula(2).cdf([0.3, 0.4]) == pytest.approx(0.12, abs=1e-15)
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        assert m.cdf([0.5, 0.5]) == pytest.approx(7.0**-0.5, rel=1e-13)
        mo = MarshallOlkinCopula(0.2, 0.7)
        assert mo.cdf([0.5, 0.5]) == pytest.approx(0.5**1.8, rel=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IndependenceCopula(3).cdf([0.5, 0.5])

    def test_out_of_cube(self):
        with pytest.raises(ValueError):
            IndependenceCopula(2).cdf([0.5, 1.5])

    def test_survival_cdf(self):
        sg = survival(ArchimedeanCopula(generator("gumbel", 2.0), 2))
        g = generator("gumbel", 2.0)
        u = np.array([0.5, 0.5])
        expect = -1.0 + u.sum() + float(g.psi(2.0 * float(g.psi_inv(0.5))))
        assert sg.cdf(u) == pytest.approx(expect, rel=1e-13)

    def test_survival_cdf_monte_carlo(self):
        from trunca import sample_model

        sg = survival(ArchimedeanCopula(generator("gumbel", 2.0), 2))
        n = 10**6
        x = sample_model(sg, n, rng_stream(77))
        hit = np.all(x <= [0.5, 0.5], axis=1).mean()
        c = float(sg.cdf([0.5, 0.5]))
        assert abs(hit - c) <= 3.0 * np.sqrt(c * (1 - c) / n)


class TestMarginSection:
    def test_independence(self):
        m = IndependenceCopula(3)
        t = np.array([0.5, 0.5, 0.5])
        assert m.margin_section(0, 0.2, t) == pytest.approx(0.05, abs=1e-15)

    def test_comonotone(self):
        m = ComonotoneCopula(2)
        assert m.margin_section(1, 0.7, np.array([0.4, 0.9])) == pytest.approx(0.4)

    def test_archimedean_top(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        t = np.array([0.5, 0.5])
        assert m.margin_section(0, 0.5, t) == pytest.approx(7.0**-0.5, rel=1e-13)

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_coordinate_index_checked(self, name):
        # a negative index is not counted from the end, as in biv_margin
        m, t = ZOO[name][0], ZOO_T[name]
        for j in (-1, -m.d, m.d):
            with pytest.raises(IndexError):
                m.margin_section(j, 0.5, t)
            with pytest.raises(IndexError):
                m.margin_section_inv(j, 0.01, t)


class TestMarginSectionInv:
    def test_independence(self):
        m = IndependenceCopula(2)
        assert m.margin_section_inv(0, 0.2, np.array([0.5, 0.8])) == pytest.approx(0.25)

    def test_mo_branches_against_bisection(self):
        # the spec's worked inverse at y = 0.1 contradicts its own branch
        # condition (0.1 > t2^(1-a2+a2/a1) ~ 0.0718); the formula itself and
        # the bisection fallback agree and both invert the section exactly
        mo = MarshallOlkinCopula(0.2, 0.7)
        t = np.array([1.0, 0.5])
        for y in (0.05, 0.1, 0.3, 0.45):
            ana = mo.margin_section_inv(0, y, t)
            num = _itp_section_inv(mo, 0, np.array([y]), t, float(mo.cdf(t)))[0]
            assert abs(ana - num) <= 1e-10
            assert mo.margin_section(0, ana, t) == pytest.approx(y, abs=1e-12)
        assert mo.margin_section_inv(0, 0.05, t) == pytest.approx(0.05 / 0.5**0.3, rel=1e-12)
        assert mo.margin_section_inv(0, 0.1, t) == pytest.approx((0.1 / 0.5) ** 1.25, rel=1e-12)

    def test_archimedean_range_top(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        t = np.array([0.5, 0.5])
        y = float(m.cdf(t))
        assert m.margin_section_inv(0, y, t) == pytest.approx(0.5, abs=1e-12)

    def test_above_range_rejected(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        t = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            m.margin_section_inv(0, 0.9, t)

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_threshold_within_edge_tolerance_is_clipped(self, name):
        # a threshold within _EDGE_TOL above 1 is 1, as it is for cdf
        m = ZOO[name][0]
        for j in range(m.d):
            at_one = m.margin_section_inv(j, [0.05, 0.2, 0.5], np.ones(m.d))
            above = m.margin_section_inv(j, [0.05, 0.2, 0.5], np.full(m.d, 1.0 + 1e-13))
            assert np.array_equal(above, at_one)


class TestTruncatedCdf:
    def test_at_threshold(self):
        for m, t in model_zoo().values():
            assert truncated_cdf(m, t, np.asarray(t)) == pytest.approx(1.0, abs=1e-12)

    def test_clayton_value(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        got = truncated_cdf(m, [0.5, 0.5], [0.5, 0.25])
        assert got == pytest.approx(19.0**-0.5 / 7.0**-0.5, rel=1e-12)

    def test_independence_value(self):
        assert truncated_cdf(IndependenceCopula(2), [0.5, 0.5], [0.25, 0.25]) == pytest.approx(0.25)

    def test_clamping_above_t(self):
        m = IndependenceCopula(2)
        assert truncated_cdf(m, [0.5, 0.5], [0.9, 0.25]) == pytest.approx(
            truncated_cdf(m, [0.5, 0.5], [0.5, 0.25])
        )


class TestTruncationPoint:
    def test_validation(self):
        m = IndependenceCopula(2)
        with pytest.raises(ValueError):
            TruncationPoint.make(m, [0.5, 0.0])
        with pytest.raises(ValueError):
            TruncationPoint.make(m, [0.5, 1.2])
        with pytest.raises(ValueError):
            TruncationPoint.make(m, [0.5, 0.5, 0.5])

    def test_cached_c(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        tp = TruncationPoint.make(m, [0.5, 0.5])
        assert tp.c_of_t == pytest.approx(7.0**-0.5, rel=1e-13)
        assert TruncationPoint.make(m, tp) is tp

    def test_point_of_another_model_is_remade(self):
        # a point carries its own model's C(t): another model recomputes it from t
        clayton = ArchimedeanCopula(generator("clayton", 2.0), 2)
        gumbel = ArchimedeanCopula(generator("gumbel", 3.0), 2)
        tp = truncate_general(clayton, [0.5, 0.5]).point
        fresh = truncate_general(gumbel, [0.5, 0.5])
        reused = truncate_general(gumbel, tp)
        assert reused.point.model is gumbel and reused.point.t is not tp.t
        assert reused.point.c_of_t == fresh.point.c_of_t == float(gumbel.cdf([0.5, 0.5]))
        assert reused.cdf([0.5, 0.5]) == fresh.cdf([0.5, 0.5])
        raw = oracle_sample(gumbel, [0.5, 0.5], 500, rng_stream(3))
        assert np.array_equal(transform_margins(raw, gumbel, tp).data,
                              transform_margins(raw, gumbel, [0.5, 0.5]).data)
        with pytest.raises(ValueError):
            TruncationPoint.make(NestedArchimedeanCopula(
                generator("clayton", 2.0), [(generator("clayton", 2.0), 3)]), tp)


class TestTruncateDispatch:
    def test_fixed_points(self):
        rng = np.random.default_rng(2)
        pts = rng.random((200, 2))
        for cls, t in ((IndependenceCopula, [0.3, 0.8]), (ComonotoneCopula, [0.5, 0.7])):
            m = cls(2)
            tc = truncate_general(m, t)
            assert isinstance(tc, ModelTruncation)
            assert_allclose(tc.cdf(pts), m.cdf(pts), atol=1e-15)

    def test_clayton_closure_pointwise(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        tc = truncate_general(m, [0.5, 0.5])
        assert type(tc) is ModelTruncation
        assert (tc.form, tc.route) == ("tilted-archimedean", "tilted-frailty")
        assert tc.model.generator.h == pytest.approx(6.0, rel=1e-12)
        rng = np.random.default_rng(3)
        pts = rng.random((500, 2))
        assert np.max(np.abs(tc.cdf(pts) - m.cdf(pts))) <= 1e-12

    def test_truncate_at_one_is_source(self):
        rng = np.random.default_rng(4)
        for name, (m, _) in model_zoo().items():
            tc = truncate_general(m, np.ones(m.d))
            pts = rng.random((200, m.d))
            assert np.max(np.abs(tc.cdf(pts) - np.atleast_1d(m.cdf(pts)))) <= 1e-12, name

    def test_method_argument(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        assert isinstance(truncate_general(m, [0.5, 0.5], method="bisect"), GeneralTruncation)
        for method in ("numeric", "bogus"):
            with pytest.raises(ValueError):
                truncate_general(m, [0.5, 0.5], method=method)

    def test_closed_vs_bisect_all_models(self):
        rng = np.random.default_rng(5)
        for name, (m, t) in model_zoo().items():
            tc = truncate_general(m, t)
            tb = truncate_general(m, t, method="bisect")
            pts = rng.random((300, m.d))
            assert np.max(np.abs(tc.cdf(pts) - tb.cdf(pts))) <= 1e-9, name

    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_model_needs_a_row(self, n):
        # every model sampler checks n the same way, before drawing anything
        for name, (m, _) in model_zoo().items():
            with pytest.raises(ValueError, match="need n >= 1"):
                sample_model(m, n, rng_stream(0))

    def test_sampling_dispatch_errors(self):
        # a truncated form that is no model has no sampler of its own
        for name, form in [("mo", "MOTruncation"), ("survival_gumbel", "GeneralTruncation")]:
            tc = truncate_general(*ZOO[name])
            with pytest.raises(TypeError, match=f"no sampler for model type {form}"):
                sample_model(tc, 10, rng_stream(0))
        # a truncated nest is a model, whose tilted root has no inner frailty law
        with pytest.raises(SamplingError):
            sample_model(truncate_general(*ZOO["nested_clayton"]), 10, rng_stream(0))
        with pytest.raises(TypeError, match="expects a TruncatedCopula"):
            sample_truncated(ZOO["clayton"][0], 10, rng_stream(0))

    @settings(max_examples=5)
    @given(ts=ZOO_THRESHOLDS)
    @example(ts=ZOO_T)
    def test_uniform_margins(self, ts):
        gr = np.linspace(0.01, 0.99, 25)
        for name, t in ts.items():
            m = ZOO[name][0]
            tc = truncate_general(m, t)
            for j in range(m.d):
                pts = np.ones((gr.size, m.d))
                pts[:, j] = gr
                assert np.max(np.abs(tc.cdf(pts) - gr)) <= 1e-9, (name, j)

    @settings(max_examples=5)
    @given(ts=ZOO_THRESHOLDS, seed=st.integers(0, 2**32 - 1))
    @example(ts=ZOO_T, seed=6)
    def test_groundedness(self, ts, seed):
        rng = np.random.default_rng(seed)
        for name, t in ts.items():
            m = ZOO[name][0]
            tc = truncate_general(m, t)
            pts = rng.random((50, m.d))
            pts[:, rng.integers(0, m.d)] = 0.0
            assert np.max(np.abs(tc.cdf(pts))) <= 1e-12, name

    @settings(max_examples=5)
    @given(ts=ZOO_THRESHOLDS, seed=st.integers(0, 2**32 - 1))
    @example(ts=ZOO_T, seed=7)
    def test_nonnegative_box_mass(self, ts, seed):
        rng = np.random.default_rng(seed)
        for name, t in ts.items():
            m = ZOO[name][0]
            tc = truncate_general(m, t)
            lo = rng.random((10_000, m.d)) * 0.9
            hi = lo + rng.random((10_000, m.d)) * (1.0 - lo)
            vol = box_mass(tc, lo, hi)
            assert np.min(vol) >= -1e-10, name

    def test_archimedean_exchangeable_any_t(self):
        rng = np.random.default_rng(8)
        for fam, th in (("clayton", 2.0), ("gumbel", 3.0), ("joe", 2.0), ("frank", 8.0)):
            m = ArchimedeanCopula(generator(fam, th), 2)
            tc = truncate_general(m, [0.3, 0.9])
            u = rng.random((200, 2))
            assert np.max(np.abs(tc.cdf(u) - tc.cdf(u[:, ::-1]))) <= 1e-12

    def test_exchangeable_model_equal_t(self):
        sg = survival(ArchimedeanCopula(generator("gumbel", 2.0), 2))
        tc = truncate_general(sg, [0.4, 0.4])
        rng = np.random.default_rng(9)
        u = rng.random((100, 2))
        assert np.max(np.abs(tc.cdf(u) - tc.cdf(u[:, ::-1]))) <= 1e-11

    def test_tilted_equivalence_two_forms(self):
        # the componentwise-inversion form and psi_h(sum psi_h_inv) agree
        for fam, th, d in (("clayton", 2.0, 3), ("gumbel", 2.0, 2), ("frank", 4.0, 4)):
            g = generator(fam, th)
            m = ArchimedeanCopula(g, d)
            t = np.linspace(0.4, 0.8, d)
            tp = TruncationPoint.make(m, t)
            tc = truncate_general(m, tp)
            rng = np.random.default_rng(10)
            u = rng.random((200, d))
            c = tp.c_of_t
            direct = np.asarray(
                g.psi(np.asarray(g.psi_inv(c * u)).sum(axis=1) - (d - 1) * float(g.psi_inv(c)))
            ) / c
            assert np.max(np.abs(tc.cdf(u) - direct)) <= 1e-12


class TestNested:
    def make(self):
        m = NestedArchimedeanCopula(
            generator("clayton", 2.0),
            [(generator("clayton", 2.0), 1), (generator("clayton", 6.0), 2)],
        )
        return m, np.array([0.2, 0.5, 0.5])

    def test_nesting_condition(self):
        with pytest.raises(ValueError):
            NestedArchimedeanCopula(
                generator("clayton", 6.0), [(generator("clayton", 2.0), 2)]
            )
        with pytest.raises(ValueError):
            NestedArchimedeanCopula(
                generator("clayton", 2.0), [(generator("gumbel", 3.0), 2)]
            )
        for fam in ("clayton", "gumbel"):
            # the check is exact: a root theta just above the sector's fails,
            # where the sampler would need a stable exponent above 1
            with pytest.raises(ValueError, match="nest"):
                NestedArchimedeanCopula(
                    generator(fam, 2.0 + 5e-13), [(generator(fam, 2.0), 2)]
                )
            # an equal theta builds and samples
            m = NestedArchimedeanCopula(
                generator(fam, 2.0), [(generator(fam, 2.0), 2), (generator(fam, 3.0), 1)]
            )
            assert sample_model(m, 50, rng_stream(0)).shape == (50, 3)
        # outer-power stack: alpha_root >= alpha_sector, shared base
        base = generator("clayton", 1.2)
        NestedArchimedeanCopula(
            base.outer_power(0.9),
            [(base.outer_power(0.5), 2), (base.outer_power(0.7), 2)],
        )
        with pytest.raises(ValueError):
            NestedArchimedeanCopula(base.outer_power(0.5), [(base.outer_power(0.9), 2)])

    def test_univariate_margins(self):
        m, t = self.make()
        tc = truncate_general(m, t)
        gr = np.linspace(0.01, 0.99, 33)
        for j in range(3):
            pts = np.ones((gr.size, 3))
            pts[:, j] = gr
            assert np.max(np.abs(tc.cdf(pts) - gr)) <= 1e-10

    def test_equal_generators_reduce_to_tilted(self):
        m = NestedArchimedeanCopula(
            generator("clayton", 2.0),
            [(generator("clayton", 2.0), 1), (generator("clayton", 2.0), 2)],
        )
        t = np.array([0.2, 0.5, 0.5])
        flat = truncate_general(ArchimedeanCopula(generator("clayton", 2.0), 3), t)
        tc = truncate_general(m, t)
        rng = np.random.default_rng(11)
        u = rng.random((300, 3))
        assert np.max(np.abs(tc.cdf(u) - flat.cdf(u))) <= 1e-10

    def test_independence_root_gives_product(self):
        m = NestedArchimedeanCopula(
            generator("independence"),
            [(generator("clayton", 2.0), 2), (generator("gumbel", 3.0), 1)],
        )
        t = np.array([0.5, 0.6, 0.9])
        tc = truncate_general(m, t)
        assert type(tc) is ModelTruncation and (tc.form, tc.route) == ("product", "product")
        block = truncate_general(ArchimedeanCopula(generator("clayton", 2.0), 2), t[:2])
        rng = np.random.default_rng(12)
        u = rng.random((200, 3))
        assert np.array_equal(tc.cdf(u), np.atleast_1d(block.cdf(u[:, :2])) * u[:, 2])
        # the product samples as its model: the nest of the tilted sectors
        got = sample_truncated(tc, 1000, rng_stream(14))
        assert np.array_equal(got.data, sample_model(tc.model, 1000, rng_stream(14)))

    def test_independence_root_is_the_exact_product(self):
        g = generator("clayton", 2.0)
        m = NestedArchimedeanCopula(generator("independence"), [(g, 2), (generator("gumbel", 3.0), 1)])
        u = np.random.default_rng(15).random((500, 3))
        want = np.atleast_1d(ArchimedeanCopula(g, 2).cdf(u[:, :2])) * u[:, 2]
        assert np.array_equal(m.cdf(u), want)
        flat = ArchimedeanCopula(generator("independence"), 3)
        assert np.array_equal(flat.cdf(u), IndependenceCopula(3).cdf(u))

    def test_sector_threshold_at_one(self):
        # C_s(t_s) = 1 takes Joe's inverse kernel to log1p(-1) = -inf: no floating-point warning
        g = generator("joe", 2.0)
        m = NestedArchimedeanCopula(g, [(g, 1), (generator("joe", 3.0), 2)])
        u = np.random.default_rng(17).random((50, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_one = truncate_general(m, [1.0, 1.0, 1.0]).cdf(u)
            tc = truncate_general(m, [0.5, 1.0, 1.0])
            got = tc.cdf(u)
        assert np.max(np.abs(at_one - m.cdf(u))) <= 1e-12
        ref = truncate_general(m, [0.5, 1.0, 1.0], method="bisect").cdf(u)
        assert np.max(np.abs(got - ref)) <= 1e-10

    def test_cross_sector_margin_is_tilted_root(self):
        m, t = self.make()
        tc = truncate_general(m, t)
        assert isinstance(tc, ModelTruncation)
        rng = np.random.default_rng(13)
        u1 = rng.random(150)
        u2 = rng.random(150)
        got = tc.model.biv_margin(0, 0, 1, 1, u1, u2)
        pts = np.ones((150, 3))
        pts[:, 0] = u1
        pts[:, 2] = u2
        assert np.max(np.abs(got - tc.cdf(pts))) <= 1e-10

    def test_margin_uniform_edge(self):
        m, t = self.make()
        tc = truncate_general(m, t)
        u2 = np.linspace(0.05, 0.95, 10)
        got = tc.model.biv_margin(0, 0, 1, 0, np.ones(10), u2)
        assert_allclose(got, u2, atol=1e-12)

    def test_same_sector_margin_not_pair_truncation(self):
        m, t = self.make()
        tc = truncate_general(m, t)
        u = np.linspace(0.1, 0.9, 12)
        U1, U2 = np.meshgrid(u, u)
        same = tc.model.biv_margin(1, 0, 1, 1, U1.ravel(), U2.ravel())
        pair = truncate_general(ArchimedeanCopula(generator("clayton", 6.0), 2), t[1:])
        pv = np.atleast_1d(pair.cdf(np.column_stack([U1.ravel(), U2.ravel()])))
        assert np.max(np.abs(same - pv)) > 1e-6

    def test_margin_index_validation(self):
        m, t = self.make()
        tc = truncate_general(m, t)
        with pytest.raises(IndexError):
            tc.model.biv_margin(0, 1, 1, 0, 0.5, 0.5)
        with pytest.raises(ValueError):
            tc.model.biv_margin(1, 0, 1, 0, 0.5, 0.5)

    def test_margin_of_scalars_is_a_float(self):
        m, t = self.make()
        tc = truncate_general(m, t)
        for s1, j1, s2, j2 in ((0, 0, 1, 0), (1, 0, 1, 1)):
            got = tc.model.biv_margin(s1, j1, s2, j2, 0.3, 0.5)
            assert type(got) is float
            assert got == tc.model.biv_margin(s1, j1, s2, j2, [0.3], [0.5])[0]
            # u1 and u2 broadcast together
            grid = tc.model.biv_margin(s1, j1, s2, j2, np.full((3, 4), 0.3), 0.5)
            assert grid.shape == (3, 4) and np.all(grid == got)

    def test_margin_checks_its_points(self):
        m, t = self.make()
        tc = truncate_general(m, t)
        for s1, j1, s2, j2 in ((0, 0, 1, 0), (1, 0, 1, 1)):
            for bad in (np.nan, 1.5, -0.1, 1.0 + 1e-9):
                with pytest.raises(ValueError, match="unit cube"):
                    tc.model.biv_margin(s1, j1, s2, j2, bad, 0.5)
                with pytest.raises(ValueError, match="unit cube"):
                    tc.model.biv_margin(s1, j1, s2, j2, [0.2, 0.4], [0.5, bad])
            # within the edge tolerance a point is clipped into the cube, as cdf does
            edge = tc.model.biv_margin(s1, j1, s2, j2, [1.0 + 1e-13, -1e-13], [0.5, 0.5])
            assert np.array_equal(edge, tc.model.biv_margin(s1, j1, s2, j2, [1.0, 0.0], [0.5, 0.5]))

    def test_outer_power_stack_matches_explicit_form(self):
        base = generator("clayton", 1.2)
        a0, a1, a2 = 0.9, 0.5, 0.7
        m = NestedArchimedeanCopula(
            base.outer_power(a0),
            [(base.outer_power(a1), 2), (base.outer_power(a2), 2)],
        )
        t = np.array([0.5, 0.6, 0.7, 0.5])
        tp = TruncationPoint.make(m, t)
        tc = truncate_general(m, tp)
        c = tp.c_of_t
        c1 = float(m._sector_cdf(0, t[None, :2])[0])
        c2 = float(m._sector_cdf(1, t[None, 2:])[0])

        def explicit(u):
            # nested outer powers of one base collapse to powered sums of
            # base-inverse coordinates (the hierarchical max-stable shape)
            total = np.zeros(u.shape[0])
            for sl, a_s, cs in ((slice(0, 2), a1, c1), (slice(2, 4), a2, c2)):
                shift = float(base.psi_inv(c)) ** (1 / a0) - float(base.psi_inv(cs)) ** (1 / a0)
                inner = (
                    np.asarray(base.psi_inv(c * u[:, sl])) ** (1 / a0) - shift
                ) ** (a0 / a_s)
                term = inner.sum(axis=1) - float(base.psi_inv(cs)) ** (1 / a_s)
                total += term ** (a_s / a0)
            return np.asarray(base.psi(total**a0)) / c

        rng = np.random.default_rng(14)
        u = rng.random((200, 4))
        assert np.max(np.abs(tc.cdf(u) - explicit(u))) <= 1e-11


# theta ranges of the nested property tests, each family's nesting rule holding
# for theta_root <= theta_sector
NEST_THETAS = {
    "clayton": st.floats(0.2, 8.0),
    "amh": st.floats(0.0, 0.9),
    "frank": st.floats(0.2, 20.0),
    "gumbel": st.floats(1.0, 5.0),
    "joe": st.floats(1.0, 5.0),
}


@st.composite
def _nested_models(draw):
    """A two-level nest of d = 3-4.

    A stack of one family, plain or outer-powered, or sectors of any family
    under an independence root.
    """
    dims = draw(st.sampled_from([(1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 1, 2), (2, 1, 1)]))
    fam = draw(st.sampled_from(["independence", *sorted(NEST_THETAS)]))
    if fam == "independence":
        gens = [generator(f, draw(NEST_THETAS[f])) for f in
                draw(st.lists(st.sampled_from(sorted(NEST_THETAS)), min_size=len(dims),
                              max_size=len(dims)))]
        return NestedArchimedeanCopula(generator("independence"), list(zip(gens, dims)))
    theta = draw(NEST_THETAS[fam])
    if draw(st.booleans()):
        # outer powers of one base, alpha_root >= alpha_sector
        base = generator(fam, theta)
        alphas = draw(st.lists(st.floats(0.3, 1.0), min_size=len(dims) + 1,
                               max_size=len(dims) + 1))
        root = base.outer_power(max(alphas))
        return NestedArchimedeanCopula(root, [(base.outer_power(a), ds)
                                              for a, ds in zip(alphas[1:], dims)])
    thetas = [max(theta, draw(NEST_THETAS[fam])) for _ in dims]  # theta_sector >= theta_root
    return NestedArchimedeanCopula(generator(fam, theta),
                                   [(generator(fam, th), ds) for th, ds in zip(thetas, dims)])


@settings(max_examples=40)
@given(m=_nested_models(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_truncated_nest_is_a_nest(m, data, seed):
    t = data.draw(_unit_vectors(m.d, 0.05), label="t")
    tc = truncate_general(m, t)
    assert isinstance(tc.model, NestedArchimedeanCopula)
    independent = m.root.family == "independence"
    assert type(tc) is ModelTruncation
    assert (tc.form, tc.route) == (("product", "product") if independent else ("nested", "oracle"))
    rng = np.random.default_rng(seed)
    pts = rng.random((20, m.d))
    bisected = truncate_general(m, t, method="bisect")
    assert np.max(np.abs(tc.cdf(pts) - bisected.cdf(pts))) <= 1e-10
    # truncating the truncation's model is truncating the truncation
    s = data.draw(_unit_vectors(m.d, 0.3), label="s")
    again = truncate_general(tc.model, s).cdf(pts)
    assert np.max(np.abs(again - truncate_general(tc, s).cdf(pts))) <= 1e-12
    # a bivariate margin is Archimedean: in its truncated sector generator
    # within a sector, in the tilted root across sectors (the product under independence)
    u1, u2 = rng.random(30), rng.random(30)
    pair = np.column_stack([u1, u2])
    for s1, (g, ds) in enumerate(tc.model.sectors):
        if ds >= 2:
            same = ArchimedeanCopula(g).cdf(pair)
            assert np.max(np.abs(tc.model.biv_margin(s1, 0, s1, 1, u1, u2) - same)) <= 1e-12
            # the untruncated nest's margin, in its own sector generator
            same = ArchimedeanCopula(m.sectors[s1][0]).cdf(pair)
            assert np.max(np.abs(m.biv_margin(s1, 0, s1, 1, u1, u2) - same)) <= 1e-12
    if len(m.sectors) >= 2:
        cross = ArchimedeanCopula(m.root).cdf(pair)
        assert np.max(np.abs(m.biv_margin(0, 0, 1, 0, u1, u2) - cross)) <= 1e-12
        cross = u1 * u2 if independent else ArchimedeanCopula(tc.model.root).cdf(pair)
        # a few ulps under independence: each sector margin is the round trip psi_h(psi_h^-1(u))
        tol = 5e-15 if independent else 1e-12
        assert np.max(np.abs(tc.model.biv_margin(0, 0, 1, 0, u1, u2) - cross)) <= tol
    # exact 0s and 1s pass through the kernels without a floating-point warning
    edges = np.array(list(product([0.0, 1.0, 0.5], repeat=m.d)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = tc.cdf(edges)
        tc.model.biv_margin(0, 0, len(m.sectors) - 1, m.sectors[-1][1] - 1,
                            edges[:, 0], edges[:, 1])
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(vals[np.any(edges == 0.0, axis=1)] == 0.0)


def test_truncated_sectors_nest_only_under_their_own_root():
    m, t = TestNested().make()
    tc = truncate_general(m, t)
    sectors = tc.model.sectors
    other = generator("clayton", 2.0)  # equal to the source root, but another object
    for root in (other.tilt(float(tc.model.root.h)), other, generator("gumbel", 2.0).tilt(1.0)):
        with pytest.raises(ValueError, match="nest"):
            NestedArchimedeanCopula(root, sectors)
    # the model's own root, tilted once more, still takes them
    NestedArchimedeanCopula(tc.model.root.tilt(0.5), sectors)


class TestMarshallOlkin:
    def test_parameter_validation(self):
        for bad in ((0.0, 0.5), (0.5, 1.0), (-0.1, 0.5)):
            with pytest.raises(ValueError):
                MarshallOlkinCopula(*bad)

    def test_identity_at_one(self):
        mo = MarshallOlkinCopula(0.2, 0.7)
        tc = truncate_general(mo, [1.0, 1.0])
        rng = np.random.default_rng(15)
        u = rng.random((300, 2))
        assert np.max(np.abs(tc.cdf(u) - mo.cdf(u))) <= 1e-14

    def test_case2_against_numeric(self):
        mo = MarshallOlkinCopula(0.2, 0.7)
        t = np.array([0.6, 0.9])
        assert not t[1] ** 0.7 <= t[0] ** 0.2  # case 2
        tc = truncate_general(mo, t)
        tb = truncate_general(mo, t, method="bisect")
        rng = np.random.default_rng(16)
        u = rng.random((400, 2))
        assert np.max(np.abs(tc.cdf(u) - tb.cdf(u))) <= 1e-10
        assert float(tc.cdf([0.5, 0.5])) == pytest.approx(float(tb.cdf([0.5, 0.5])), abs=1e-10)

    def test_case1_against_numeric(self):
        mo = MarshallOlkinCopula(0.2, 0.7)
        t = np.array([0.9, 0.6])
        assert t[1] ** 0.7 <= t[0] ** 0.2  # case 1
        tc = truncate_general(mo, t)
        tb = truncate_general(mo, t, method="bisect")
        rng = np.random.default_rng(17)
        u = rng.random((400, 2))
        assert np.max(np.abs(tc.cdf(u) - tb.cdf(u))) <= 1e-10

    def test_equal_threshold_limit_independence(self):
        mo = MarshallOlkinCopula(0.2, 0.7)
        tc = truncate_general(mo, [1e-4, 1e-4])
        u = np.linspace(0.05, 0.95, 19)
        U1, U2 = np.meshgrid(u, u)
        pts = np.column_stack([U1.ravel(), U2.ravel()])
        assert np.max(np.abs(tc.cdf(pts) - pts.prod(axis=1))) <= 5e-3

    def test_singular_curve_mass(self):
        mo = MarshallOlkinCopula(0.2, 0.7)
        tc = truncate_general(mo, [0.6, 0.9])
        d = 0.003
        for u1 in (0.3, 0.5, 0.7):
            u2 = float(tc.singular_curve(np.asarray(u1)))
            on = box_mass(tc, [u1 - d, u2 - d], [u1 + d, u2 + d])
            off = box_mass(tc, [u1 - d, u2 - 0.2 - d], [u1 + d, u2 - 0.2 + d])
            assert on > 10.0 * off

    def test_singular_curve_range(self):
        mo = MarshallOlkinCopula(0.2, 0.7)
        tc = truncate_general(mo, [0.9, 0.6])  # case 1: curve ends at the breakpoint
        breakpoint = (0.6**0.7 / 0.9**0.2) ** ((1.0 - 0.2) / 0.2)
        assert np.isnan(tc.singular_curve(np.asarray(breakpoint + 0.05)))
        u2 = tc.singular_curve(np.asarray(breakpoint))
        assert u2 == pytest.approx(1.0, abs=1e-10)

    def test_singular_curve_checks_u1(self):
        # u1 is checked as cdf checks points; a scalar gives a float
        tc = truncate_general(MarshallOlkinCopula(0.2, 0.7), [0.9, 0.6])
        for bad in (1.5, -0.2, np.nan, [0.3, 1.5]):
            with pytest.raises(ValueError):
                tc.singular_curve(bad)
        assert type(tc.singular_curve(0.1)) is float
        assert tc.singular_curve([[0.0, 0.1]]).shape == (1, 2)
        assert tc.singular_curve(0.0) == 0.0


def _decimal_mo_truncated_cdf(a1, a2, t, u):
    """C_t(u) of a Marshall-Olkin copula in 50-digit decimal arithmetic.

    The section x -> C(x; t_-j) is the minimum of two increasing powers, so
    its inverse is the larger of their two inverses.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a = [Decimal(a1), Decimal(a2)]
        t = [Decimal(v) for v in t]

        def cdf(x1, x2):
            return min(x1 ** (1 - a[0]) * x2, x1 * x2 ** (1 - a[1]))

        c = cdf(*t)
        x = []
        for j in (0, 1):
            y, tm, aj, am = c * Decimal(u[j]), t[1 - j], a[j], a[1 - j]
            x.append(max((y / tm) ** (1 / (1 - aj)), y / tm ** (1 - am)))
        return float(cdf(*x) / c)


@settings(max_examples=150)
@given(a=st.lists(st.floats(1e-4, 1.0 - 1e-4), min_size=2, max_size=2),
       t=_unit_vectors(2, 1e-6), u=_unit_vectors(2, 1e-6))
def test_mo_truncated_cdf_against_decimal(a, t, u):
    tc = truncate_general(MarshallOlkinCopula(*a), t)
    want = _decimal_mo_truncated_cdf(*a, t, u)
    assert abs(tc.cdf(u) - want) <= 5e-15 * want


class TestSurvival:
    def test_survival_independence_is_independence(self):
        si = survival(IndependenceCopula(2))
        rng = np.random.default_rng(18)
        u = rng.random((300, 2))
        assert np.max(np.abs(si.cdf(u) - u.prod(axis=1))) <= 1e-14

    def test_involution(self):
        m = ArchimedeanCopula(generator("gumbel", 2.0), 2)
        assert survival(survival(m)) is m

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            survival(IndependenceCopula(3))

    def test_sampling_by_reflection(self):
        from trunca import sample_model

        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        sm = sample_model(survival(m), 2000, rng_stream(19))
        assert sm.shape == (2000, 2)
        assert np.all((sm >= 0) & (sm <= 1))

    def test_unequal_threshold_symmetry_reported_not_asserted(self):
        # whether these truncations are exchangeable is an open question;
        # report the empirical rank-symmetry statistic without asserting it
        sg = survival(ArchimedeanCopula(generator("gumbel", 2.0), 2))
        t = np.array([0.3, 0.7])
        raw = oracle_sample(sg, t, 50_000, rng_stream(20))
        sm = pseudo_observations(transform_margins(raw, sg, t))
        from trunca import empirical_copula_distance

        stat = empirical_copula_distance(sm.data, sm.data[:, ::-1])
        print(f"\n[observation] survival-Gumbel t=(0.3,0.7) rank-symmetry sup stat: {stat:.5f}")
        assert np.isfinite(stat)


@pytest.mark.parametrize("name", ["independence", "comonotone", "clayton", "amh", "frank",
                                  "gumbel", "joe", "opclayton", "mo", "mo-truncated"])
@given(u=hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(2)),
                    elements=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))
def test_survival_cdf_is_the_public_formula(name, u):
    # the survival CDF evaluates its inner model by _at, and nothing else changes
    if name == "mo-truncated":
        inner = truncate_general(*ZOO["mo"])
    else:
        inner = ZOO[name][0]
    want = np.clip(u[:, 0] + u[:, 1] - 1.0 + inner.cdf(1.0 - u), 0.0, 1.0)
    assert SurvivalCopula(inner)._cdf(u).tobytes() == want.tobytes()


class TestEvScaling:
    def grid(self):
        u = np.linspace(0.05, 0.95, 13)
        U1, U2 = np.meshgrid(u, u)
        return np.column_stack([U1.ravel(), U2.ravel()])

    def test_alpha_one_exact_zero(self):
        mo = MarshallOlkinCopula(0.2, 0.7)
        assert ev_scaling_check(mo, [0.25, 0.49], 1.0, self.grid()) == 0.0

    def test_trivial_threshold(self):
        mo = MarshallOlkinCopula(0.2, 0.7)
        assert ev_scaling_check(mo, [1.0, 1.0], 2.0, self.grid()) <= 1e-12

    def test_mo_scaling(self):
        mo = MarshallOlkinCopula(0.2, 0.7)
        for alpha in (0.5, 2.0):
            assert ev_scaling_check(mo, [0.25, 0.49], alpha, self.grid()) <= 1e-9

    def test_non_ev_model_fails_scaling(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        assert ev_scaling_check(m, [0.5, 0.5], 2.0, self.grid()) > 1e-3


def test_sample_truncated_form_dispatch():
    zoo = model_zoo()
    m, t = zoo["clayton"]
    sm = sample_truncated(truncate_general(m, t), 500, rng_stream(21))
    assert sm.meta["method"] == "tilted-frailty"
    m, t = zoo["nested_ind"]
    sm = sample_truncated(truncate_general(m, t), 500, rng_stream(22))
    assert sm.meta["method"] == "product"
    m, t = zoo["mo"]
    sm = sample_truncated(truncate_general(m, t), 500, rng_stream(23))
    assert sm.meta["method"] == "oracle"
    m, t = zoo["independence"]
    sm = sample_truncated(truncate_general(m, t), 500, rng_stream(24))
    assert sm.meta["method"] == "closed-model"
    m, t = zoo["nested_clayton"]
    sm = sample_truncated(truncate_general(m, t), 500, rng_stream(25))
    assert sm.meta["method"] == "oracle"
    m, t = zoo["survival_gumbel"]
    sm = sample_truncated(truncate_general(m, t), 500, rng_stream(26))
    assert sm.meta["method"] == "oracle"
    for k, (m, t) in enumerate(zoo.values()):
        tc = truncate_general(m, t)
        assert sample_truncated(tc, 200, rng_stream(30 + k)).meta["method"] == tc.route


def test_tilted_route_is_the_archimedean_sampler():
    # the CLI's byte-identical output per seed rests on this RNG layout
    for name in ("clayton", "gumbel", "opclayton"):
        m, t = model_zoo()[name]
        tc = truncate_general(m, t)
        got = sample_truncated(tc, 1000, rng_stream(41))
        ref = sample_archimedean(tc.model.generator, m.d, 1000, rng_stream(41))
        assert np.array_equal(got.data, ref)


def test_mo_truncation_type():
    tc = truncate_general(MarshallOlkinCopula(0.2, 0.7), [0.5, 0.8])
    assert isinstance(tc, MOTruncation)


def test_survival_truncation_is_general():
    sg = survival(ArchimedeanCopula(generator("gumbel", 2.0), 2))
    assert isinstance(truncate_general(sg, [0.5, 0.8]), GeneralTruncation)


FAMILY_THETAS = {
    "clayton": st.floats(0.1, 10.0),
    "amh": st.floats(0.0, 0.95),
    "frank": st.floats(0.1, 30.0),
    "gumbel": st.floats(1.0, 5.0),
    "joe": st.floats(1.0, 5.0),
}


@pytest.mark.parametrize("name", sorted(ZOO))
@settings(max_examples=3)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_truncations_compose(name, data, seed):
    # U_t <= s exactly when X <= t* with t*_j = F_{t,j}^{-1}(s_j)
    m = ZOO[name][0]
    t = data.draw(_unit_vectors(m.d, 0.3), label="t")
    s = data.draw(_unit_vectors(m.d, 0.3), label="s")
    tc = truncate_general(m, t)
    composed = truncate_general(tc, s)
    t_star = [m.margin_section_inv(j, tc.point.c_of_t * s[j], tc.point.t) for j in range(m.d)]
    direct = truncate_general(m, t_star)
    assert type(composed) is type(direct)
    assert composed.source is m
    pts = np.random.default_rng(seed).random((20, m.d))
    assert np.array_equal(composed.cdf(pts), direct.cdf(pts))
    bisected = truncate_general(tc, s, method="bisect")
    assert np.max(np.abs(composed.cdf(pts) - bisected.cdf(pts))) <= 1e-10
    # a bisection truncation composes through its numeric x(s)
    from_bisect = truncate_general(truncate_general(m, t, method="bisect"), s)
    assert type(from_bisect) is GeneralTruncation and from_bisect.source is m
    assert np.max(np.abs(composed.cdf(pts) - from_bisect.cdf(pts))) <= 1e-10
    sm = sample_truncated(composed, 50, rng_stream(seed))
    assert sm.meta["method"] == direct.route and sm.meta["form"] == direct.form


@pytest.mark.parametrize(
    "k,name",
    [(k, name) for k, name in enumerate(ZOO) if truncate_general(*ZOO[name]).route != "oracle"],
)
def test_closed_truncations_sample_as_models(k, name):
    # a closed truncation is a model: the oracle draws from it, and its rows
    # follow its own truncation at s
    tc = truncate_general(*ZOO[name])
    s = np.full(tc.d, 0.6)
    got = transform_margins(oracle_sample(tc, s, 100_000, rng_stream(k, 1)), tc, s)
    ref = sample_truncated(truncate_general(tc, s), 100_000, rng_stream(k, 0))
    assert empirical_copula_distance(got, ref) <= 0.015


@pytest.mark.parametrize(
    "name", [name for name in ZOO if truncate_general(*ZOO[name]).route != "oracle"]
)
def test_closed_truncations_describe_as_models(name):
    # exchangeability and tail coefficients are the model's; the product form's
    # nest has neither
    tc = truncate_general(*ZOO[name])
    assert tc.exchangeable == tc.model.exchangeable == (tc.route != "product")
    if tc.route == "product":
        with pytest.raises(TypeError, match="NestedArchimedeanCopula"):
            model_tail_dep(tc)
    else:
        assert model_tail_dep(tc) == model_tail_dep(tc.model)


# every zoo model, and the truncations of those whose truncation is a model again
PROPOSERS = {**{name: m for name, (m, _) in ZOO.items()},
             **{f"{name}@t": truncate_general(*ZOO[name]) for name in ZOO
                if truncate_general(*ZOO[name]).route != "oracle"}}


@pytest.mark.parametrize("name", sorted(PROPOSERS))
@settings(max_examples=25)
@given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
       how=st.sampled_from(["one", "unit-coordinate", "tie", "row"]), data=st.data())
def test_propose_keeps_rows_inside_t_in_draw_order(name, n, seed, how, data):
    m = PROPOSERS[name]
    ref = m._sample(n, rng_stream(seed))
    assert np.array_equal(m._propose(n, np.ones(m.d), rng_stream(seed)), ref)
    t = np.ones(m.d)
    if how != "one":
        t = data.draw(_unit_vectors(m.d, 0.05), label="t")
        j = data.draw(st.integers(0, m.d - 1), label="j")
        row = ref[data.draw(st.integers(0, n - 1), label="row")]
        if how == "unit-coordinate":
            t[j] = 1.0
        elif how == "tie":
            # a drawn row inside t, on its boundary at coordinate j
            t = np.maximum(t, row)
            t[j] = row[j]
        else:
            t = row
    got = m._propose(n, t, rng_stream(seed))
    assert got.shape[1] == m.d and np.all(got <= t)
    nest = getattr(m, "model", m)
    if not isinstance(nest, NestedArchimedeanCopula):
        # bitwise the rejection of the model's own rows, ties u_j == t_j kept
        assert np.array_equal(got, ref[_inside(ref, t)])
        return
    # a nest draws V0 and its first sector as _sample does, and drops rows as
    # it goes: its first sectors are, in order, some of the sampled ones inside t
    sl = nest.slices[0]
    first = ref[:, sl][_inside(ref[:, sl], t[sl])]
    k = 0
    for row in got[:, sl]:
        while k < len(first) and not np.array_equal(first[k], row):
            k += 1
        assert k < len(first), "rows out of draw order"
        k += 1


@settings(max_examples=50)
@given(
    fam=st.sampled_from(sorted(FAMILY_THETAS)),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_equals_bisection(fam, data, seed):
    theta = data.draw(FAMILY_THETAS[fam], label="theta")
    alpha = data.draw(st.none() | st.floats(0.3, 1.0), label="outer_alpha")
    d = data.draw(st.integers(2, 3), label="d")
    t = data.draw(_unit_vectors(d, 0.05), label="t")
    m = ArchimedeanCopula(generator(fam, theta, outer_alpha=alpha), d)
    pts = np.random.default_rng(seed).random((20, d))
    closed = truncate_general(m, t).cdf(pts)
    assert np.max(np.abs(closed - truncate_general(m, t, method="bisect").cdf(pts))) <= 1e-10


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(ZOO)), data=st.data())
def test_numeric_section_inverse_brackets(name, data):
    # the numeric inverse returns the left end of a bracket no wider than
    # BISECT_WIDTH * t_j: section(x) < y <= section(x + BISECT_WIDTH * t_j)
    m = ZOO[name][0]
    j = data.draw(st.integers(0, m.d - 1), label="j")
    t = data.draw(_unit_vectors(m.d, 0.05), label="t")
    top = m.margin_section(j, t[j], t)
    share = data.draw(st.lists(st.floats(0.0, 1.0), max_size=6), label="y / top")
    y = top * np.array([0.0, 1.0, *share])
    x = _itp_section_inv(m, j, y, t, top)
    assert np.all((x == 0.0) | (m.margin_section(j, x, t) < y))
    assert np.all(m.margin_section(j, np.minimum(x + BISECT_WIDTH * t[j], t[j]), t) >= y)


@pytest.mark.parametrize("name", sorted(ZOO))
@settings(max_examples=4)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_numeric_section_inverse_brackets_node_table(name, data, seed):
    # 512 values or more use the full node table: its ends, its node values
    # and values between them all keep the bracket
    m = ZOO[name][0]
    j = data.draw(st.integers(0, m.d - 1), label="j")
    t = data.draw(_unit_vectors(m.d, 0.05), label="t")
    top = m.margin_section(j, t[j], t)
    nodes = m.margin_section(j, np.linspace(0.0, t[j], SECTION_NODES + 1), t)
    y = np.concatenate([[0.0, top], nodes, top * np.random.default_rng(seed).random(300)])
    x = _itp_section_inv(m, j, y, t, top)
    assert y.size >= 512
    assert np.all((x == 0.0) | (m.margin_section(j, x, t) < y))
    assert np.all(m.margin_section(j, np.minimum(x + BISECT_WIDTH * t[j], t[j]), t) >= y)


class _DippedSection(CopulaModel):
    """Not a copula: min(u1, u2) less 0.05 where u1 is in [0.3, 0.35)."""

    d = 2

    def _cdf(self, pts):
        return np.minimum(pts[:, 0], pts[:, 1]) - 0.05 * ((0.3 <= pts[:, 0]) & (pts[:, 0] < 0.35))


def test_numeric_section_inverse_on_a_non_monotone_section():
    # the section reaches y in (0.25, 0.29) at x = y and again inside the dip;
    # the node table's running maximum starts from the first of these cells
    m, t = _DippedSection(), np.array([1.0, 1.0])
    y = np.linspace(0.0, 1.0, 1001)
    x = _itp_section_inv(m, 0, y, t, 1.0)
    assert np.all((x == 0.0) | (m.margin_section(0, x, t) < y))
    assert np.all(m.margin_section(0, np.minimum(x + BISECT_WIDTH, 1.0), t) >= y)
    first = (y < 0.29) | (y >= 0.35)
    assert np.all(np.abs(x - y)[first] <= BISECT_WIDTH)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_empty_input_gives_empty_output(name):
    m, t = ZOO[name]
    for method in ("auto", "bisect"):
        assert truncate_general(m, t, method=method).cdf(np.empty((0, m.d))).shape == (0,)
    for j in range(m.d):
        assert m.margin_section_inv(j, [], t).shape == (0,)


def test_numeric_inverse_evaluation_count(monkeypatch):
    rows = {0: 0, 1: 0}
    steps = []
    section = copulas._section

    def counted(model, block, j, x):
        rows[j] += x.size
        steps.append(j)
        return section(model, block, j, x)

    monkeypatch.setattr(copulas, "_section", counted)
    sg, t = ZOO["survival_gumbel"]
    n = 2000
    truncate_general(sg, t).cdf(np.random.default_rng(5).random((n, 2)))
    # halving [0, t_j] to BISECT_WIDTH * t_j takes 44 evaluations per value;
    # the node table and the open rows take 4.1 and 4.8 rows per value here
    assert n <= rows[0] <= 5.5 * n and n <= rows[1] <= 5.5 * n
    # a section flat beyond 0.4 defeats interpolation: the bisection bound holds
    steps.clear()
    t = np.array([0.4, 0.9])
    _itp_section_inv(ComonotoneCopula(2), 1, np.array([0.0, 0.2, 0.4]), t, 0.4)
    assert len(steps) <= np.ceil(np.log2(1.0 / BISECT_WIDTH)) + 3


@pytest.mark.parametrize("name", sorted(ZOO))
def test_cdf_checks_its_points_once(name, monkeypatch):
    # public methods validate; library code calls the kernels on the points it holds
    m, t = ZOO[name]
    models = [m, truncate_general(m, t), truncate_general(m, t, method="bisect")]
    pts = np.random.default_rng(6).random((300, m.d))
    calls = dict.fromkeys(["_unit_points", "_validated_u", "_validated_t"], 0)

    def spy(module, fname):
        real = getattr(module, fname)

        def counted(*args):
            calls[fname] += 1
            return real(*args)

        monkeypatch.setattr(module, fname, counted)

    spy(copulas, "_unit_points")
    spy(generators, "_validated_u")
    spy(generators, "_validated_t")
    for model in models:
        calls.update(dict.fromkeys(calls, 0))
        model.cdf(pts)
        assert calls == {"_unit_points": 1, "_validated_u": 0, "_validated_t": 0}, repr(model)


def _range_check_sites():
    """(name, call(v) on a 1-d array v in the checked slot, lo, hi, lo_open, message, takes_empty)."""
    m = ArchimedeanCopula(generator("clayton", 2.0), 2)
    g, t = m.generator, np.array([0.5, 0.5])
    tol = copulas._EDGE_TOL
    top = float(m.margin_section(0, t[0], t))

    def with_column(v, x):
        return np.column_stack([v, np.full(v.size, x)])

    def cli_rows(v):
        cli._unit_values([f"{float(x)!r},0.5" for x in v], 2)

    def cli_kendall(v):
        u = ",".join(repr(float(x)) for x in v)
        cli.cmd_kendall(argparse.Namespace(n=10, u=[u], model="no-such-model.json", t="0.5,0.5"))

    return [
        ("cdf", lambda v: m.cdf(with_column(v, 0.5)), -tol, 1.0 + tol, False,
         "points must lie in the unit cube", True),
        ("margin_section_inv", lambda v: m.margin_section_inv(0, v, t), -tol,
         top * (1.0 + 1e-9) + tol, False, "section inverse argument", True),
        ("TruncationPoint", lambda v: [TruncationPoint.make(m, [x, 0.5]) for x in v], 0.0, 1.0, True,
         "truncation point must lie", False),
        ("psi", g.psi, 0.0, np.inf, False, "must be nonnegative", True),
        ("psi_inv", g.psi_inv, 0.0, 1.0, False, "inverse argument must lie", True),
        ("SampleMatrix", lambda v: SampleMatrix(with_column(v, 0.5)), 0.0, 1.0, False,
         "sample entries must lie", True),
        ("transform_margins", lambda v: transform_margins(with_column(v, 0.25), m, t), 0.0,
         0.5 + 1e-9, False, "rows must lie inside", True),
        ("kendall_dist_truncated", lambda v: kendall_dist_truncated(g, t, v), 0.0, 1.0, False,
         "u must lie in", True),
        ("cli --u", cli_rows, 0.0, 1.0, False, "--u values must lie", False),
        ("cli kendall --u", cli_kendall, 0.0, 1.0, False, "--u values must lie", False),
    ]


@pytest.mark.parametrize("site", _range_check_sites(), ids=lambda site: site[0])
def test_range_checks_share_one_rule(site):
    # every argument check rejects NaN, +-inf and the first float past either bound,
    # and passes its bounds and empty arrays
    _, call, lo, hi, lo_open, message, takes_empty = site

    def rejects(v):
        try:
            call(np.asarray(v, dtype=float))
        except (ValueError, cli.ConfigError) as exc:
            return message in str(exc)
        return False

    assert rejects([np.nextafter(lo, -np.inf)]) and rejects([np.nan]) and rejects([-np.inf])
    assert rejects([lo]) == lo_open and not rejects([np.nextafter(lo, np.inf)])
    assert not rejects([hi])
    if np.isfinite(hi):
        assert rejects([np.nextafter(hi, np.inf)]) and rejects([np.inf])
    else:
        assert not rejects([np.inf])
    if takes_empty:
        assert not rejects(np.empty(0))


def test_section_inverse_rejects_nan():
    with pytest.raises(ValueError, match="section inverse argument"):
        ArchimedeanCopula(generator("clayton", 2.0)).margin_section_inv(0, np.nan, [0.5, 0.5])


def test_numeric_inverse_width_is_relative():
    # an absolute width of 1e-13 is a 1e-4 relative error in x at t_j = 1e-9
    sg = survival(ArchimedeanCopula(generator("gumbel", 2.0), 2))
    t = np.array([1e-9, 1e-9])
    c = float(sg.cdf(t))
    x = np.zeros(2)
    for j in range(2):
        lo, hi = 0.0, t[j]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if sg.margin_section(j, mid, t) >= 0.5 * c else (mid, hi)
        x[j] = lo
    reference = float(sg.cdf(x)) / c
    assert abs(truncate_general(sg, t).cdf([0.5, 0.5]) - reference) <= 1e-10


def _blocks(lo, hi):
    shapes = st.tuples(st.integers(1, 40), st.integers(2, 7))
    return shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(lo, hi)))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@settings(max_examples=200)
@given(x=_blocks(-1e6, 1e6), u=_blocks(0.0, 1.0))
def test_columnwise_reductions_are_numpy_reductions(x, u):
    # bitwise, for up to 7 columns: numpy sums 8 or more in an unrolled order
    assert np.array_equal(_bits(_columnwise(np.add, x)), _bits(x.sum(axis=-1)))
    for block in (x, u):
        assert np.array_equal(_bits(_columnwise(np.multiply, block)), _bits(block.prod(axis=1)))
        assert np.array_equal(_bits(_columnwise(np.minimum, block)), _bits(block.min(axis=1)))

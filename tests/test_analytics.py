import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.stats import kendalltau, kstest

from trunca import (
    ArchimedeanCopula,
    ComonotoneCopula,
    IndependenceCopula,
    MarshallOlkinCopula,
    NestedArchimedeanCopula,
    SampleMatrix,
    TailDepReport,
    empirical_kendall_tau,
    empirical_tail_dep,
    generator,
    kendall_dist_truncated,
    model_tail_dep,
    rng_stream,
    sample_truncated,
    survival,
    tail_dep_exchangeable_equal_t,
    tail_dep_tilted,
    truncate_general,
)


class TestTailDepTilted:
    def test_clayton_preserved(self):
        for h in (0.0, 2.0, 6.0, 50.0):
            rep = tail_dep_tilted(generator("clayton", 2.0), h)
            assert rep.lambda_lower == pytest.approx(2.0**-0.5, abs=1e-12)
            assert rep.lambda_upper == (0.0 if h > 0 else 0.0)

    def test_gumbel_truncated_no_tails(self):
        rep = tail_dep_tilted(generator("gumbel", 2.0), 1.0)
        assert rep.lambda_lower == 0.0 and rep.lambda_upper == 0.0

    def test_untruncated_reductions(self):
        rep = tail_dep_tilted(generator("gumbel", 2.0), 0.0)
        assert rep.lambda_upper == pytest.approx(2.0 - 2.0**0.5, abs=1e-12)
        rep = tail_dep_tilted(generator("joe", 3.0), 0.0)
        assert rep.lambda_upper == pytest.approx(2.0 - 2.0 ** (1.0 / 3.0), abs=1e-12)
        for fam, th in (("amh", 0.7), ("frank", 5.0)):
            rep = tail_dep_tilted(generator(fam, th), 0.0)
            assert rep.lambda_lower == 0.0 and rep.lambda_upper == 0.0

    def test_outer_power_clayton(self):
        g = generator("clayton", 1.5, outer_alpha=0.6)
        rep = tail_dep_tilted(g, 0.0)
        assert rep.lambda_lower == pytest.approx(2.0 ** (-0.6 / 1.5), abs=1e-12)
        assert rep.lambda_upper == pytest.approx(2.0 - 2.0**0.6, abs=1e-12)

    def test_numeric_agrees_with_analytic(self):
        for g, h in [
            (generator("clayton", 2.0), 6.0),
            (generator("gumbel", 2.0), 0.0),
            (generator("gumbel", 2.0), 1.44955),
            (generator("joe", 2.0), 0.0),
            (generator("frank", 4.0), 0.5),
            (generator("clayton", 1.5, outer_alpha=0.6), 2.0),
            (generator("gumbel", 1.5, outer_alpha=0.8), 0.0),
            (generator("joe", 2.0, outer_alpha=0.6), 0.0),
            (generator("independence", outer_alpha=0.5), 0.0),
            (generator("independence"), 2.0),
        ]:
            a = tail_dep_tilted(g, h)
            n = tail_dep_tilted(g, h, method="numeric")
            assert abs(a.lambda_lower - n.lambda_lower) <= 1e-4
            assert abs(a.lambda_upper - n.lambda_upper) <= 1e-4
            assert n.method == "numeric-limit"
            if n.converged:
                assert abs(a.lambda_lower - n.lambda_lower) <= 1e-5
                assert abs(a.lambda_upper - n.lambda_upper) <= 1e-5
        # Gumbel(2) upper: successive Aitken values agree to 1.1e-5, error 1.2e-6
        assert tail_dep_tilted(generator("gumbel", 2.0), 0.0, method="numeric").converged
        # outer-power Gumbel(2, 0.6) upper: they differ by 4.5e-3, and so does the value
        g = generator("gumbel", 2.0, outer_alpha=0.6)
        n = tail_dep_tilted(g, 0.0, method="numeric")
        assert not n.converged
        assert abs(n.lambda_upper - tail_dep_tilted(g, 0.0).lambda_upper) > 1e-5

    def test_tilted_generator_input_folds(self):
        rep = tail_dep_tilted(generator("gumbel", 2.0).tilt(1.0))
        assert rep.lambda_upper == 0.0

    @pytest.mark.parametrize("method", ["analytic", "numeric"])
    @pytest.mark.parametrize("h", [-0.5, float("nan")])
    def test_invalid_tilt_rejected(self, h, method):
        # independence checks h too, although every tilt leaves it unchanged
        for g in (generator("gumbel", 2.0), generator("independence")):
            with pytest.raises(ValueError, match="tilt h must be nonnegative"):
                tail_dep_tilted(g, h, method=method)

    def test_upper_zero_for_all_families_tilted(self):
        for fam, th in (
            ("clayton", 2.0),
            ("amh", 0.7),
            ("frank", 4.0),
            ("gumbel", 2.0),
            ("joe", 2.0),
        ):
            rep = tail_dep_tilted(generator(fam, th), 0.7)
            assert rep.lambda_upper == 0.0

    def test_lower_never_decreases(self):
        rng = np.random.default_rng(0)
        fams = [("clayton", (0.5, 8.0)), ("gumbel", (1.0, 6.0)), ("joe", (1.0, 6.0)),
                ("frank", (0.5, 20.0)), ("amh", (0.0, 0.95))]
        for _ in range(10):
            fam, (lo, hi) = fams[rng.integers(0, len(fams))]
            g = generator(fam, float(rng.uniform(lo, hi)))
            base = tail_dep_tilted(g, 0.0).lambda_lower
            h = float(g.psi_inv(float(rng.uniform(0.05, 0.95))))
            trunc = tail_dep_tilted(g, h).lambda_lower
            assert trunc >= base - 1e-12


class TestTailDepEqualThreshold:
    def test_survival_gumbel(self):
        sg = survival(ArchimedeanCopula(generator("gumbel", 2.0), 2))
        for t in (0.3, 0.6, 0.95):
            rep = tail_dep_exchangeable_equal_t(sg, t)
            assert abs(rep.lambda_lower - (2.0 - np.sqrt(2.0))) <= 1e-6
            assert abs(rep.lambda_upper) <= 1e-6

    def test_survival_joe(self):
        sj = survival(ArchimedeanCopula(generator("joe", 2.0), 2))
        rep = tail_dep_exchangeable_equal_t(sj, 0.4)
        assert abs(rep.lambda_lower - (2.0 - 2.0**0.5)) <= 1e-6

    def test_clayton_matches_tilted(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        rep = tail_dep_exchangeable_equal_t(m, 0.5)
        assert rep.lambda_lower == pytest.approx(2.0**-0.5, abs=1e-9)
        assert abs(rep.lambda_upper) <= 1e-6

    def test_independence(self):
        rep = tail_dep_exchangeable_equal_t(IndependenceCopula(2), 0.5)
        assert rep.lambda_lower == 0.0
        assert abs(rep.lambda_upper) <= 1e-6

    def test_closed_truncation_is_its_model(self):
        # a truncated Archimedean copula is Archimedean, hence exchangeable: at
        # (s, s) its coefficients are those of its own truncation there
        for fam, th in (("clayton", 2.0), ("gumbel", 2.0), ("joe", 2.0), ("frank", 4.0)):
            tc = truncate_general(ArchimedeanCopula(generator(fam, th), 2), [0.5, 0.6])
            for s in (0.3, 0.6):
                rep = tail_dep_exchangeable_equal_t(tc, s)
                lam_l, lam_u = model_tail_dep(truncate_general(tc, [s, s]))
                assert rep.lambda_lower == pytest.approx(lam_l, abs=1e-6)
                assert rep.lambda_upper == pytest.approx(lam_u, abs=1e-6)

    def test_non_exchangeable_rejected(self):
        with pytest.raises(ValueError):
            tail_dep_exchangeable_equal_t(MarshallOlkinCopula(0.2, 0.7), 0.5)

    def test_lower_dominates_base(self):
        sg = survival(ArchimedeanCopula(generator("gumbel", 2.0), 2))
        base = model_tail_dep(sg)[0]
        rep = tail_dep_exchangeable_equal_t(sg, 0.4)
        assert rep.lambda_lower >= base


class TestModelTailDep:
    def test_known_values(self):
        assert model_tail_dep(IndependenceCopula(2)) == (0.0, 0.0)
        assert model_tail_dep(ComonotoneCopula(2)) == (1.0, 1.0)
        assert model_tail_dep(MarshallOlkinCopula(0.2, 0.7)) == (0.0, 0.2)
        ll, lu = model_tail_dep(survival(ArchimedeanCopula(generator("gumbel", 2.0), 2)))
        assert ll == pytest.approx(2.0 - np.sqrt(2.0))
        assert lu == 0.0

    def test_tilted_truncation_model(self):
        # the model of a tilted truncation: lower tail kept, upper tail gone
        for fam, th, t in (("clayton", 2.0, [0.5, 0.5]), ("gumbel", 2.0, [0.7, 0.6])):
            m = ArchimedeanCopula(generator(fam, th), 2)
            tc = truncate_general(m, t)
            rep = tail_dep_tilted(tc.model.generator)
            assert model_tail_dep(tc.model) == (rep.lambda_lower, 0.0)
            assert model_tail_dep(tc.model)[0] == model_tail_dep(m)[0]
        tc = truncate_general(ArchimedeanCopula(generator("gumbel", 2.0), 2), [1.0, 1.0])
        assert model_tail_dep(tc.model)[1] == pytest.approx(2.0 - np.sqrt(2.0))

    def test_exchangeable(self):
        assert MarshallOlkinCopula(0.4, 0.4).exchangeable
        assert not MarshallOlkinCopula(0.2, 0.7).exchangeable
        assert survival(MarshallOlkinCopula(0.4, 0.4)).exchangeable
        assert not survival(MarshallOlkinCopula(0.2, 0.7)).exchangeable
        assert ArchimedeanCopula(generator("joe", 2.0), 3).exchangeable
        assert model_tail_dep(survival(MarshallOlkinCopula(0.2, 0.7))) == (0.2, 0.0)

    def test_unsupported(self):
        m = NestedArchimedeanCopula(
            generator("clayton", 2.0), [(generator("clayton", 2.0), 1), (generator("clayton", 6.0), 2)]
        )
        with pytest.raises(TypeError):
            model_tail_dep(m)


class TestKendallDistribution:
    def test_boundary_values(self):
        g = generator("clayton", 2.0)
        assert kendall_dist_truncated(g, [0.5, 0.5], 1.0) == pytest.approx(1.0, abs=1e-12)
        assert kendall_dist_truncated(g, [0.5, 0.5], 0.0) == 0.0

    def test_nan_rejected(self):
        g = generator("clayton", 2.0)
        for u in (np.nan, [0.3, np.nan]):
            with pytest.raises(ValueError, match="u must lie in"):
                kendall_dist_truncated(g, [0.5, 0.5], u)

    def test_tiny_u_is_finite(self):
        # psi_h_inv(u) overflows below u ~ 1e-154: K stays in [u, 1], without a warning
        g = generator("clayton", 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (1e-300, 5e-324):
                k = kendall_dist_truncated(g, [0.5, 0.5], u)
                assert np.isfinite(k) and u <= k <= 1.0
            k = kendall_dist_truncated(g, [0.5, 0.5], 1e-100)
        assert k == pytest.approx(1.5e-100, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("alpha", [None, 0.6])
    @pytest.mark.parametrize("family, theta", [("independence", None), ("clayton", 2.0),
                                               ("amh", 0.7), ("frank", 4.0), ("gumbel", 2.0),
                                               ("joe", 2.0)])
    def test_is_the_tilted_generators_classical_law(self, family, theta, alpha, d):
        g = generator(family, theta, alpha)
        t = np.random.default_rng(d).uniform(0.2, 0.9, d)
        tc = truncate_general(ArchimedeanCopula(g, d), t)
        u = np.concatenate([[0.0, 1e-12], np.linspace(0.01, 1.0, 100)])
        classical = kendall_dist_truncated(tc.model.generator, np.ones(d), u)
        assert np.max(np.abs(kendall_dist_truncated(g, t, u) - classical)) <= 2e-15

    def test_classical_limit_d2(self):
        g = generator("gumbel", 2.0)
        u = np.linspace(0.01, 0.99, 25)
        got = kendall_dist_truncated(g, [1.0, 1.0], u)
        x = np.asarray(g.psi_inv(u))
        classical = u - x * np.asarray(g.psi_deriv(x, 1))
        np.testing.assert_allclose(got, classical, atol=1e-12)

    def test_clayton_truncation_invariance(self):
        g = generator("clayton", 2.0)
        u = np.linspace(0.0, 1.0, 101)
        k1 = kendall_dist_truncated(g, [1.0, 1.0], u)
        k2 = kendall_dist_truncated(g, [0.5, 0.5], u)
        np.testing.assert_allclose(k1, k2, atol=1e-10)
        k1 = kendall_dist_truncated(g, [1.0, 1.0, 1.0], u)
        k2 = kendall_dist_truncated(g, [0.4, 0.6, 0.7], u)
        np.testing.assert_allclose(k1, k2, atol=1e-10)

    def test_monotone_cdf_shape(self):
        g = generator("joe", 2.0)
        u = np.linspace(0.0, 1.0, 200)
        k = kendall_dist_truncated(g, [0.6, 0.7, 0.8], u)
        assert np.all(np.diff(k) >= -1e-12)
        assert k[0] == 0.0 and k[-1] == pytest.approx(1.0, abs=1e-12)

    def test_ks_against_sampled_w(self):
        g = generator("gumbel", 2.0)
        t = np.array([0.5, 0.6, 0.7])
        tc = truncate_general(ArchimedeanCopula(g, 3), t)
        sm = sample_truncated(tc, 30_000, rng_stream(30))
        w = tc.cdf(sm.data)
        res = kstest(w, lambda x: np.atleast_1d(kendall_dist_truncated(g, t, x)))
        assert res.pvalue > 0.01

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            kendall_dist_truncated(generator("clayton", 2.0), [0.5, 0.5, 0.5, 0.5], 0.5)

    @pytest.mark.parametrize("family, theta", [("gumbel", 2.0), ("joe", 2.5)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_untruncated_top_is_one(self, family, theta, d):
        # psi'(0) is infinite for Gumbel and Joe; the vanishing term must not
        # turn K(1) into 0 * inf
        g = generator(family, theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kendall_dist_truncated(g, [1.0] * d, 1.0) == 1.0
            k = kendall_dist_truncated(g, [1.0] * d, np.array([0.5, 1.0]))
        assert 0.0 < k[0] < 1.0 and k[1] == 1.0


class TestEmpiricalTailDep:
    def test_comonotone(self):
        u = rng_stream(31).random(100_000)
        data = np.column_stack([u, u])
        rep = empirical_tail_dep(data, 0.1)
        assert rep.lambda_lower == pytest.approx(1.0, abs=0.03)
        assert rep.lambda_upper == pytest.approx(1.0, abs=0.03)

    def test_independent(self):
        data = rng_stream(32).random((200_000, 2))
        rep = empirical_tail_dep(data, 0.02)
        assert abs(rep.lambda_lower - 0.02) <= 3 * rep.se_lower + 1e-3

    def test_se_reproducible(self):
        data = rng_stream(33).random((5000, 2))
        a = empirical_tail_dep(data, 0.05)
        b = empirical_tail_dep(data, 0.05)
        assert a.se_lower == b.se_lower

    def test_input_guards(self):
        with pytest.raises(ValueError):
            empirical_tail_dep(rng_stream(0).random((100, 2)), 0.1)
        with pytest.raises(ValueError):
            empirical_tail_dep(rng_stream(0).random((5000, 2)), 0.7)


class TestEmpiricalKendallTau:
    def test_perfect_concordance(self):
        x = np.arange(10.0)
        assert empirical_kendall_tau(np.column_stack([x, x])) == 1.0

    def test_perfect_discordance(self):
        a = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert empirical_kendall_tau(a) == -1.0

    def test_matches_scipy(self):
        rng = rng_stream(34)
        x = rng.random(3000)
        y = 0.6 * x + 0.4 * rng.random(3000)
        got = empirical_kendall_tau(np.column_stack([x, y]))
        assert got == pytest.approx(kendalltau(x, y).statistic, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = rng_stream(35)
        x = np.repeat(rng.integers(0, 30, 500), 2).astype(float)
        y = rng.integers(0, 10, 1000).astype(float)
        got = empirical_kendall_tau(np.column_stack([x, y]))
        assert got == pytest.approx(kendalltau(x, y).statistic, abs=1e-12)

    @staticmethod
    def pair_count_tau(x, y):
        # tau-b from an O(n^2) count of concordant and discordant pairs,
        # independent of scipy
        sx = np.sign(x[:, None] - x[None, :])
        sy = np.sign(y[:, None] - y[None, :])
        upper = np.triu_indices(x.size, k=1)
        prod = (sx * sy)[upper]
        pairs_x = np.count_nonzero(sx[upper])
        pairs_y = np.count_nonzero(sy[upper])
        return prod.sum() / np.sqrt(float(pairs_x) * pairs_y)

    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_pair_count(self, ties):
        rng = rng_stream(38)
        x = rng.random(300)
        y = 0.5 * x + 0.5 * rng.random(300)
        if ties:
            x, y = np.round(x * 8), np.round(y * 5)
        got = empirical_kendall_tau(np.column_stack([x, y]))
        assert abs(got - self.pair_count_tau(x, y)) <= 1e-12

    @given(
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        levels=st.tuples(*[st.sampled_from([2, 3, 8, None])] * 2),
        link=st.sampled_from(["mixed", "equal", "reversed"]),
    )
    def test_pair_count_property(self, n, seed, levels, link):
        # n spans the merge's power-of-two padding; rounding to k levels makes ties
        rng = rng_stream(seed)
        x = rng.random(n)
        y = {"mixed": 0.5 * x + 0.5 * rng.random(n), "equal": x, "reversed": 1.0 - x}[link]
        x, y = [v if k is None else np.round(v * k) for v, k in zip((x, y), levels)]
        assume(np.any(x != x[0]) and np.any(y != y[0]))
        got = empirical_kendall_tau(np.column_stack([x, y]))
        assert abs(got - self.pair_count_tau(x, y)) <= 1e-12
        assert empirical_kendall_tau(np.column_stack([x, x])) == 1.0
        assert empirical_kendall_tau(np.column_stack([x, -x])) == -1.0

    def test_nan_propagates(self):
        x = rng_stream(39).random(50)
        y = x.copy()
        y[7] = np.nan
        assert np.isnan(empirical_kendall_tau(np.column_stack([x, y])))
        assert np.isnan(empirical_kendall_tau(np.column_stack([y, x])))

    def test_clayton_target(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        sm = sample_truncated(truncate_general(m, [1.0, 1.0]), 100_000, rng_stream(36))
        se = np.sqrt(2.0 * (2.0 * sm.n + 5.0) / (9.0 * sm.n * (sm.n - 1.0)))
        assert abs(empirical_kendall_tau(sm) - 0.5) <= 3 * se

    def test_constant_column(self):
        with pytest.raises(ValueError):
            empirical_kendall_tau(np.column_stack([np.ones(10), np.arange(10.0)]))

    def test_sample_matrix_input(self):
        sm = SampleMatrix(rng_stream(37).random((100, 3)))
        assert -1.0 <= empirical_kendall_tau(sm, 0, 2) <= 1.0


def test_taildep_report_dict_carries_converged():
    assert TailDepReport(0.1, 0.0, "numeric-limit", converged=False).to_dict()["converged"] is False
    rep = tail_dep_tilted(generator("clayton", 2.0), 1.0, method="numeric")
    assert rep.to_dict()["converged"] is rep.converged

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq
from scipy.stats import kstest, rankdata

from trunca import (
    ArchimedeanCopula,
    ComonotoneCopula,
    IndependenceCopula,
    MarshallOlkinCopula,
    NestedArchimedeanCopula,
    SampleMatrix,
    SamplingError,
    empirical_copula_distance,
    empirical_kendall_tau,
    generator,
    oracle_sample,
    pseudo_observations,
    rng_stream,
    sample_archimedean,
    sample_model,
    sample_truncated,
    survival,
    transform_margins,
    truncate_general,
    write_csv,
    write_meta,
)
from trunca.copulas import _inside
from trunca.sampling import _BLOCK_ROWS


def tau_se(n):
    return np.sqrt(2.0 * (2.0 * n + 5.0) / (9.0 * n * (n - 1.0)))


class TestSampleMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleMatrix(np.array([[1.5, 0.2]]))
        with pytest.raises(ValueError):
            SampleMatrix(np.empty((0, 2)))
        sm = SampleMatrix(np.array([[0.1, 0.2]]))
        assert sm.n == 1 and sm.dim == 2

    def test_array_like(self):
        sm = SampleMatrix(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert np.asarray(sm, dtype=float) is sm.data
        assert np.asarray(sm, dtype=np.float32).dtype == np.float32
        assert np.array(sm) is not sm.data and np.array_equal(np.array(sm), sm.data)


class TestPseudoObservations:
    def test_rank_values(self):
        col = np.array([[0.9], [0.1], [0.5]])
        out = pseudo_observations(np.hstack([col, col]))
        np.testing.assert_allclose(out[:, 0], [0.75, 0.25, 0.5])

    def test_uniform_column_is_permutation(self):
        rng = rng_stream(0)
        x = rng.random((100, 2))
        out = pseudo_observations(x)
        assert set(np.round(out[:, 0] * 101).astype(int)) == set(range(1, 101))

    def test_ties_average(self):
        out = pseudo_observations(np.array([[0.3, 0.1], [0.3, 0.2]]))
        np.testing.assert_allclose(out[:, 0], [0.5, 0.5])

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            pseudo_observations(np.array([[0.3, 0.1]]))

    @pytest.mark.parametrize(
        "case", ["continuous", "heavy-ties", "clipped-ends", "two-rows", "one-column", "nan"]
    )
    def test_bitwise_equal_to_scipy_rankdata(self, case):
        rng = rng_stream(23)
        X = {
            "continuous": rng.random((500, 4)),
            "heavy-ties": rng.integers(0, 5, (400, 4)).astype(float),
            # transform_margins clips to [0, 1], leaving ties at both ends
            "clipped-ends": np.clip(rng.normal(0.5, 0.6, (300, 2)), 0.0, 1.0),
            "two-rows": np.array([[0.2, 0.7], [0.2, 0.1]]),
            "one-column": rng.integers(0, 3, (50, 1)).astype(float),
            "nan": np.array([[0.1, 0.4], [np.nan, 0.4], [0.3, 0.2]]),
        }[case]
        expect = rankdata(X, axis=0, method="average") / (X.shape[0] + 1)
        np.testing.assert_array_equal(pseudo_observations(X), expect)


class TestSampleArchimedean:
    def test_independence_generator_gives_uniforms(self):
        u = sample_archimedean(generator("independence"), 2, 50_000, rng_stream(1))
        assert u.shape == (50_000, 2)
        tau = empirical_kendall_tau(u)
        assert abs(tau) <= 3 * tau_se(len(u))
        assert kstest(u[:, 0], "uniform").pvalue > 0.01

    def test_clayton_tau(self):
        u = sample_archimedean(generator("clayton", 2.0), 2, 100_000, rng_stream(2))
        assert abs(empirical_kendall_tau(u) - 0.5) <= 3 * tau_se(len(u))

    def test_tilted_clayton_same_tau(self):
        u = sample_archimedean(generator("clayton", 2.0).tilt(6.0), 2, 100_000, rng_stream(3))
        assert abs(empirical_kendall_tau(u) - 0.5) <= 3 * tau_se(len(u))


class TestSampleNested:
    def test_single_sector_reduces_to_archimedean(self):
        g = generator("gumbel", 3.0)
        m = NestedArchimedeanCopula(generator("gumbel", 3.0), [(g, 3)])
        a = sample_model(m, 30_000, rng_stream(4))
        b = sample_archimedean(g, 3, 30_000, rng_stream(5))
        assert empirical_copula_distance(a, b) <= 0.02

    @pytest.mark.parametrize("fam,th0,th1", [("gumbel", 2.0, 4.0), ("clayton", 2.0, 6.0)])
    def test_target_taus(self, fam, th0, th1):
        m = NestedArchimedeanCopula(
            generator(fam, th0), [(generator(fam, th0), 1), (generator(fam, th1), 2)]
        )
        u = sample_model(m, 100_000, rng_stream(6))
        assert u.shape == (100_000, 3)
        se = tau_se(len(u))
        assert abs(empirical_kendall_tau(u, 0, 1) - 0.5) <= 3 * se
        assert abs(empirical_kendall_tau(u, 0, 2) - 0.5) <= 3 * se
        assert abs(empirical_kendall_tau(u, 1, 2) - 0.75) <= 3 * se

    def test_independence_root(self):
        m = NestedArchimedeanCopula(
            generator("independence"),
            [(generator("clayton", 2.0), 2), (generator("gumbel", 3.0), 1)],
        )
        u = sample_model(m, 50_000, rng_stream(7))
        assert u.shape == (50_000, 3)
        se = tau_se(len(u))
        assert abs(empirical_kendall_tau(u, 0, 1) - 0.5) <= 3 * se
        assert abs(empirical_kendall_tau(u, 0, 2)) <= 3 * se
        # the 1-d sector is psi(E / V) of its own frailty: uniform
        assert kstest(u[:, 2], "uniform").pvalue > 0.01

    def test_rows_bitwise(self):
        # the nested figure panels and the product route rest on this RNG
        # layout: root frailty, then per sector its frailty and exponentials
        def digest(a):
            return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]

        ind = NestedArchimedeanCopula(
            generator("independence"),
            [(generator("clayton", 2.0), 2), (generator("gumbel", 3.0), 2)],
        )
        for m, expected in [
            (NestedArchimedeanCopula(
                generator("clayton", 2.0),
                [(generator("clayton", 2.0), 1), (generator("clayton", 6.0), 2)],
            ), "133743b5924e98f3"),
            (NestedArchimedeanCopula(
                generator("gumbel", 2.0),
                [(generator("gumbel", 2.0), 1), (generator("gumbel", 4.0), 2)],
            ), "b54320fc0eee86da"),
            (ind, "ec7071c657941ded"),
        ]:
            assert digest(sample_model(m, 2000, rng_stream(5))) == expected, m
        tc = truncate_general(ind, [0.5, 0.6, 0.7, 0.8])
        assert digest(sample_truncated(tc, 2000, rng_stream(5)).data) == "5fdd083d9b50bee5"

    @pytest.mark.parametrize("root,sectors", [
        (generator("amh", 0.3), [generator("amh", 0.7), generator("amh", 0.5)]),
        (generator("frank", 2.0), [generator("frank", 5.0), generator("frank", 3.0)]),
        (generator("joe", 2.0), [generator("joe", 4.0), generator("joe", 3.0)]),
    ], ids=["amh", "frank", "joe"])
    def test_unsupported_stack(self, root, sectors):
        # these nest and truncate, but their roots have no inner law yet
        m = NestedArchimedeanCopula(root, [(sectors[0], 2), (sectors[1], 1)])
        with pytest.raises(SamplingError):
            sample_model(m, 100, rng_stream(8))
        with pytest.raises(SamplingError):
            sample_truncated(truncate_general(m, [0.5, 0.6, 0.7]), 100, rng_stream(8))

    @pytest.mark.parametrize("truncated", [False, True], ids=["model", "truncated"])
    @pytest.mark.parametrize("fam,theta", [("clayton", 2.0), ("gumbel", 2.0)],
                             ids=["op-clayton", "op-gumbel"])
    def test_outer_power_stack_law(self, fam, theta, truncated):
        # psi0_inv(psi_s(x)) = x^(alpha_s / alpha0): a sector's frailty is Gumbel's inner law
        m = NestedArchimedeanCopula(generator(fam, theta, 0.8), [
            (generator(fam, theta, 0.5), 2), (generator(fam, theta, 0.6), 1)])
        if truncated:
            tc = truncate_general(m, [0.5, 0.6, 0.7])
            assert tc.route == "oracle"
            u, cdf = sample_truncated(tc, 100_000, rng_stream(23)).data, tc.cdf
        else:
            u, cdf = sample_model(m, 100_000, rng_stream(23)), m.cdf
        pts = np.random.default_rng(24).random((400, 3))
        ecdf = np.array([np.mean(_inside(u, p)) for p in pts])
        assert np.max(np.abs(ecdf - cdf(pts))) <= 0.015


class TestOracle:
    def test_no_truncation_passthrough(self):
        m = IndependenceCopula(2)
        sm = oracle_sample(m, [1.0, 1.0], 10_000, rng_stream(90))
        assert sm.meta["accept_rate"] == 1.0
        assert kstest(sm.data[:, 0], "uniform").pvalue > 0.01

    def test_acceptance_rate_clayton(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        sm = oracle_sample(m, [0.5, 0.5], 50_000, rng_stream(10))
        c = sm.meta["c_of_t"]
        se = np.sqrt(c * (1 - c) / sm.meta["proposals"])
        assert abs(sm.meta["accept_rate"] - c) <= 4 * se
        assert np.all(sm.data <= [0.5, 0.5])

    def test_acceptance_rate_mo(self):
        m = MarshallOlkinCopula(0.2, 0.7)
        t = [0.5, 0.8]
        sm = oracle_sample(m, t, 50_000, rng_stream(11))
        c = min(0.5**0.8 * 0.8, 0.5 * 0.8**0.3)
        assert sm.meta["c_of_t"] == pytest.approx(c, rel=1e-12)
        se = np.sqrt(c * (1 - c) / sm.meta["proposals"])
        assert abs(sm.meta["accept_rate"] - c) <= 4 * se

    def test_proposals_sized_to_missing_rows(self):
        # one batch of (n + 3 sqrt(n)) / C(t) covers n rows about 99.9% of the time
        m, n = MarshallOlkinCopula(0.3, 0.6), 50_000
        sm = oracle_sample(m, [0.05 ** (1 / 1.7)] * 2, n, rng_stream(18))
        c = sm.meta["c_of_t"]
        assert c == pytest.approx(0.05, rel=1e-12)
        assert sm.n == n
        assert sm.meta["proposals"] <= np.ceil((n + 3.0 * np.sqrt(n)) / c)

    def test_batches_past_the_cap(self):
        # (n + 3 sqrt(n)) / C(t) is about 4.9e6 proposals, far past the cap of one pass
        m, n = MarshallOlkinCopula(0.3, 0.6), 12_000
        t = np.array([0.0025 ** (1 / 1.7)] * 2)
        sm = oracle_sample(m, t, n, rng_stream(19))
        meta = sm.meta
        assert meta["proposals"] > 4_000_000
        assert sm.data.shape == (n, 2) and np.all(sm.data <= t) and np.all(sm.data >= 0.0)
        assert meta["accepted"] >= n
        c = meta["c_of_t"]
        assert abs(meta["accept_rate"] - c) <= 4 * np.sqrt(c * (1 - c) / meta["proposals"])

    def test_pass_holds_at_most_the_cap(self, monkeypatch):
        # at C(t) = 0.02 one pass of (n + 3 sqrt(n)) / C(t) would hold 261,226 proposals,
        # more than one block of rows
        passes = []
        propose = MarshallOlkinCopula._propose

        def spy(self, n, t, rng):
            passes.append(n)
            return propose(self, n, t, rng)

        monkeypatch.setattr(MarshallOlkinCopula, "_propose", spy)
        sm = oracle_sample(MarshallOlkinCopula(0.3, 0.6), (0.1, 0.1), 5000, rng_stream(1))
        assert sm.meta["c_of_t"] == pytest.approx(0.02, rel=0.01)
        assert sm.n == 5000 and sum(passes) == sm.meta["proposals"]
        assert len(passes) >= 2 and max(passes) == _BLOCK_ROWS

    @settings(max_examples=200)
    @given(data=st.data(), n=st.integers(1, 40), d=st.integers(2, 7))
    def test_columnwise_mask_is_np_all(self, data, n, d):
        u = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(0.0, 1.0)), label="u")
        # thresholds from the rows themselves too, so ties u_j == t_j occur
        t = data.draw(hnp.arrays(np.float64, d, elements=st.floats(0.0, 1.0) | st.sampled_from(u.ravel())),
                      label="t")
        assert np.array_equal(_inside(u, t), np.all(u <= t, axis=1))

    @pytest.mark.parametrize("c", [0.2, 0.02])
    @pytest.mark.parametrize("one_d_first", [True, False], ids=["1d-first", "1d-last"])
    @pytest.mark.parametrize("fam,th0,th1", [("clayton", 2.0, 6.0), ("gumbel", 2.0, 4.0)])
    def test_nested_law(self, fam, th0, th1, one_d_first, c):
        # a nest drops proposals sector by sector: the kept rows must still
        # follow the truncated copula, at the rate C(t)
        sectors = [(generator(fam, th0), 1), (generator(fam, th1), 2)]
        m = NestedArchimedeanCopula(generator(fam, th0), sectors if one_d_first else sectors[::-1])
        t = np.full(3, brentq(lambda s: m.cdf([s] * 3) - c, 1e-9, 1.0, xtol=1e-15))
        raw = oracle_sample(m, t, 100_000, rng_stream(21))
        u = transform_margins(raw, m, t).data
        pts = np.random.default_rng(22).random((400, 3))
        ecdf = np.array([np.mean(_inside(u, p)) for p in pts])
        assert np.max(np.abs(ecdf - truncate_general(m, t).cdf(pts))) <= 0.015
        meta = raw.meta
        c_of_t = meta["c_of_t"]
        assert c_of_t == pytest.approx(c, rel=1e-9)
        se = np.sqrt(c_of_t * (1.0 - c_of_t) / meta["proposals"])
        assert abs(meta["accept_rate"] - c_of_t) <= 4.0 * se

    def test_budget_exhaustion_diagnostic(self):
        # a model that claims C(t) = 1 gets a budget of 100 n = 1000 proposals,
        # of which about 1e-6 fall inside t
        class Overclaiming(IndependenceCopula):
            def _cdf(self, pts):
                return np.ones(pts.shape[0])

        with pytest.raises(SamplingError, match="acceptance"):
            oracle_sample(Overclaiming(2), [1e-3, 1e-3], 10, rng_stream(12))


class TestTransformMargins:
    def test_identity_at_one(self):
        m = IndependenceCopula(2)
        raw = oracle_sample(m, [1.0, 1.0], 1000, rng_stream(13))
        out = transform_margins(raw, m, [1.0, 1.0])
        np.testing.assert_allclose(out.data, raw.data, atol=1e-14)

    def test_upper_endpoint_maps_to_one(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        t = np.array([0.5, 0.5])
        out = transform_margins(np.array([[0.5, 0.5]]), m, t)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-12)

    def test_clayton_value(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        t = np.array([0.5, 0.5])
        out = transform_margins(np.array([[0.5, 0.25]]), m, t)
        assert out.data[0, 1] == pytest.approx(19.0**-0.5 / 7.0**-0.5, rel=1e-12)

    def test_row_outside_rejected(self):
        m = ArchimedeanCopula(generator("clayton", 2.0), 2)
        with pytest.raises(ValueError):
            transform_margins(np.array([[0.7, 0.2]]), m, np.array([0.5, 0.5]))

    def test_output_margins_uniform(self):
        m = MarshallOlkinCopula(0.2, 0.7)
        t = [0.5, 0.8]
        raw = oracle_sample(m, t, 50_000, rng_stream(14))
        out = transform_margins(raw, m, t)
        for j in range(2):
            assert kstest(out.data[:, j], "uniform").pvalue > 0.01


class TestSampleTruncated:
    def test_truncated_independence_is_uniform(self):
        tc = truncate_general(IndependenceCopula(2), [0.3, 0.6])
        sm = sample_truncated(tc, 20_000, rng_stream(15))
        for j in range(2):
            assert kstest(sm.data[:, j], "uniform").pvalue > 0.01
        assert abs(empirical_kendall_tau(sm)) <= 3 * tau_se(sm.n)

    @pytest.mark.parametrize(
        "fam,theta,t",
        [("clayton", 2.0, (0.5, 0.5)), ("joe", 2.0, (0.7, 0.6)), ("gumbel", 2.0, (0.7, 0.6))],
    )
    def test_fast_path_matches_oracle(self, fam, theta, t):
        m = ArchimedeanCopula(generator(fam, theta), 2)
        tc = truncate_general(m, np.asarray(t))
        fast = sample_truncated(tc, 100_000, rng_stream(16, stream=0))
        raw = oracle_sample(m, np.asarray(t), 100_000, rng_stream(16, stream=1))
        orc = transform_margins(raw, m, np.asarray(t))
        assert empirical_copula_distance(fast, orc) <= 0.01

    @pytest.mark.parametrize(
        "route,model,t",
        [
            pytest.param(route, model, t, id=route)
            for route, model, t in [
                ("tilted-frailty", ArchimedeanCopula(generator("clayton", 2.0), 2), [0.5, 0.5]),
                ("product", NestedArchimedeanCopula(
                    generator("independence"),
                    [(generator("clayton", 2.0), 2), (generator("gumbel", 3.0), 1)]),
                 [0.5, 0.6, 0.9]),
                ("closed-model", IndependenceCopula(2), [0.3, 0.6]),
                ("oracle", MarshallOlkinCopula(0.2, 0.7), [0.6, 0.9]),
            ]
        ],
    )
    def test_needs_one_row(self, route, model, t):
        tc = truncate_general(model, t)
        assert tc.route == route
        for n in (0, -3):
            with pytest.raises(ValueError, match="need n >= 1"):
                sample_truncated(tc, n, rng_stream(20))
        # a row count is a whole number, as a dimension is: 3.0 is 3 rows
        for n in (2.9, "3", True):
            with pytest.raises(ValueError, match="whole number"):
                sample_truncated(tc, n, rng_stream(20))
        assert sample_truncated(tc, 3.0, rng_stream(20)).data.shape == (3, model.d)
        if route == "oracle":
            with pytest.raises(ValueError, match="need n >= 1"):
                oracle_sample(model, t, 0, rng_stream(20))
            with pytest.raises(ValueError, match="whole number"):
                oracle_sample(model, t, 2.9, rng_stream(20))

    def test_joe_tiny_tilt(self):
        # t2 = 1 - 2^-53 tilts Joe by h ~ 1.2e-32, where p = e^-h rounds to 1
        tc = truncate_general(ArchimedeanCopula(generator("joe", 2.0), 2), [1.0, 1 - 2**-53])
        sm = sample_truncated(tc, 10, rng_stream(0))
        assert sm.data.shape == (10, 2)

    def test_gumbel_at_c_1e_300(self):
        # C(t) = 1e-300 tilts Gumbel(2)'s stable frailty by h^alpha = -log C(t) ~ 691
        m = ArchimedeanCopula(generator("gumbel", 2.0), 2)
        t = 10.0 ** (-300.0 / np.sqrt(2.0))  # C(t, t) = t^(2^(1/theta))
        tc = truncate_general(m, [t, t])
        sm = sample_truncated(tc, 10_000, rng_stream(36))
        for p in ([0.3, 0.3], [0.5, 0.8], [0.9, 0.2]):
            c = float(tc.cdf(p))
            hit = np.all(sm.data <= p, axis=1).mean()
            assert abs(hit - c) <= 5 * np.sqrt(c * (1 - c) / sm.n)

    def test_marginal_uniformity(self):
        m = ArchimedeanCopula(generator("joe", 2.0), 2)
        tc = truncate_general(m, [0.7, 0.6])
        sm = sample_truncated(tc, 50_000, rng_stream(17))
        for j in range(2):
            assert kstest(sm.data[:, j], "uniform").pvalue > 0.01


class TestBlocks:
    """Every route draws, proposes and maps its rows in blocks of ``_BLOCK_ROWS``."""

    @pytest.mark.parametrize("case", ["gumbel", "op-clayton-d3", "survival-gumbel", "sample_archimedean"])
    def test_memory_flat_in_n(self, case):
        # a strong tilt (C(t) = 0.037 here) keeps about 200 bytes of temporaries
        # per row: without blocks, 2e5 rows would peak several times above the output
        gumbel = truncate_general(ArchimedeanCopula(generator("gumbel", 1.92), 2), [0.1, 0.1])
        tc = {
            "gumbel": gumbel,
            "op-clayton-d3": truncate_general(
                ArchimedeanCopula(generator("clayton", 1.47, 0.6), 3), [0.3] * 3),
            "survival-gumbel": truncate_general(
                survival(ArchimedeanCopula(generator("gumbel", 2.0), 2)), [0.5, 0.5]),
        }.get(case)
        assert tc is None or tc.route == ("oracle" if case == "survival-gumbel" else "tilted-frailty")

        def draw(n):
            if tc is None:
                return sample_archimedean(gumbel.model.generator, 3, n, rng_stream(4))
            return sample_truncated(tc, n, rng_stream(4)).data

        draw(10)
        tracemalloc.start()
        try:
            u = draw(200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and one block's temporaries, with room for one more output
        assert peak <= 2 * u.nbytes + 8 * 2**20

    @pytest.mark.parametrize("model,t", [
        (survival(ArchimedeanCopula(generator("gumbel", 2.0), 2)), [0.5, 0.5]),
        (MarshallOlkinCopula(0.3, 0.6), [0.3, 0.3]),
    ], ids=["survival-gumbel", "marshall-olkin"])
    def test_oracle_route_holds_one_array(self, model, t):
        # the oracle's raw rows are mapped in place, block by block: no second (n, d) array
        tc = truncate_general(model, t)
        assert tc.route == "oracle"
        sample_truncated(tc, 10, rng_stream(4))
        tracemalloc.start()
        try:
            u = sample_truncated(tc, 200_000, rng_stream(4)).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= u.nbytes + 4 * 2**20
        # the same rows as the oracle and transform_margins, which leaves its argument as it was
        raw = oracle_sample(model, t, 200_000, rng_stream(4))
        before = raw.data.copy()
        assert np.array_equal(u, transform_margins(raw, model, t).data)
        assert np.array_equal(raw.data, before)

    def test_oracle_route_checks_mapped_rows(self, monkeypatch):
        # a NaN from the margin map (the clip keeps it) fails the range check
        model = MarshallOlkinCopula(0.3, 0.6)
        tc = truncate_general(model, [0.3, 0.3])
        monkeypatch.setattr(model, "margin_section", lambda j, x, t: np.full(x.shape, np.nan))
        with pytest.raises(ValueError, match=r"sample entries must lie in \[0, 1\]"):
            sample_truncated(tc, 100, rng_stream(4))

    @pytest.mark.parametrize("model,t", [
        (ArchimedeanCopula(generator("clayton", 2.0), 2), [0.5, 0.5]),
        (NestedArchimedeanCopula(generator("independence"),
                                 [(generator("clayton", 2.0), 2), (generator("gumbel", 3.0), 1)]),
         [0.5, 0.6, 0.9]),
    ], ids=["tilted-frailty", "product"])
    def test_closed_route_layout(self, model, t):
        # rows past the first block do not change the first block's, and each
        # block is one _sample call on the same stream
        tc = truncate_general(model, t)
        n = 2 * _BLOCK_ROWS + 1
        u = sample_truncated(tc, n, rng_stream(6)).data
        assert u.shape == (n, model.d)
        assert np.array_equal(u[:_BLOCK_ROWS], sample_truncated(tc, _BLOCK_ROWS, rng_stream(6)).data)
        rng = rng_stream(6)
        blocks = [tc._sample(k, rng) for k in (_BLOCK_ROWS, _BLOCK_ROWS, 1)]
        assert np.array_equal(u, np.vstack(blocks))

    def test_oracle_pass_layout(self):
        # the documented pass sizes, each capped at one block; the kept rows in
        # proposal order, and the surplus of the last pass counted as accepted
        m, n, t = MarshallOlkinCopula(0.3, 0.6), 2000, np.array([0.1, 0.1])
        sm = oracle_sample(m, t, n, rng_stream(7))
        c = sm.meta["c_of_t"]
        assert c == pytest.approx(0.02, rel=0.01)
        rng, kept, proposals = rng_stream(7), [], 0
        while sum(map(len, kept)) < n:
            need = n - sum(map(len, kept))
            b = int(np.clip(np.ceil(min(1.25 * need, need + 3.0 * np.sqrt(need)) / c), 1024, _BLOCK_ROWS))
            kept.append(m._propose(b, t, rng))
            proposals += b
        assert len(kept) >= 3
        rows = np.vstack(kept)
        assert np.array_equal(sm.data, rows[:n])
        assert sm.meta == {"method": "oracle", "proposals": proposals, "accepted": len(rows),
                           "accept_rate": len(rows) / proposals, "c_of_t": c}


class TestComonotoneAndModelSampling:
    def test_comonotone(self):
        x = sample_model(ComonotoneCopula(3), 100, rng_stream(18))
        assert np.all(x[:, 0] == x[:, 1]) and np.all(x[:, 1] == x[:, 2])

    def test_mo_shock_construction_matches_cdf(self):
        m = MarshallOlkinCopula(0.2, 0.7)
        x = sample_model(m, 200_000, rng_stream(19))
        for pt in ([0.5, 0.5], [0.3, 0.8]):
            c = float(m.cdf(pt))
            hit = np.all(x <= pt, axis=1).mean()
            assert abs(hit - c) <= 4 * np.sqrt(c * (1 - c) / x.shape[0])


class TestEmpiricalCopulaDistance:
    def test_zero_for_identical(self):
        x = rng_stream(20).random((5000, 2))
        assert empirical_copula_distance(x, x) == 0.0

    def test_shapes_must_match(self):
        with pytest.raises(ValueError, match="arrays of equal dimension"):
            empirical_copula_distance(np.zeros((10, 2)), np.zeros((10, 3)))

    def test_detects_difference(self):
        rng = rng_stream(21)
        a = rng.random((20_000, 2))
        b = rng.random((20_000, 1))
        b = np.hstack([b, b])
        assert empirical_copula_distance(a, b) > 0.1


class TestCsvOutput:
    def test_roundtrip(self, tmp_path):
        sm = SampleMatrix(rng_stream(22).random((50, 3)), {"seed": 7, "t": [1.0, 1.0, 1.0]})
        p = tmp_path / "out.csv"
        write_csv(sm, p)
        write_meta(sm, str(p) + ".meta.json")
        header = p.read_text().splitlines()[0]
        assert header == "u1,u2,u3"
        back = np.loadtxt(p, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back, sm.data)  # 17 significant digits
        import json

        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["seed"] == 7

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_bytes_equal_savetxt(self, tmp_path, n, d):
        data = rng_stream(24).random((n, d))
        edges = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53]
        data.ravel()[: len(edges)] = edges[: data.size]
        sm = SampleMatrix(data)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        write_csv(sm, ours)
        header = ",".join(f"u{j + 1}" for j in range(d))
        np.savetxt(ref, data, fmt="%.17g", delimiter=",", header=header, comments="")
        assert ours.read_bytes() == ref.read_bytes()
        back = np.loadtxt(ours, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(back, data)

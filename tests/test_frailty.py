import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import gammaln
from scipy.stats import binom, chi2, norm

from trunca import (
    Generator,
    generator,
    rng_stream,
    sample_archimedean,
    sample_frailty,
    sample_sibuya,
    sample_stable,
    sample_tilted_sibuya,
    sample_tilted_stable,
)
from trunca import frailty
from trunca.frailty import _double_rejection


def sibuya_pmf(alpha, kmax):
    p = np.empty(kmax)
    p[0] = alpha
    for k in range(1, kmax):
        p[k] = p[k - 1] * (k - alpha) / (k + 1)
    return p


def log_pmf(p, kmax):
    k = np.arange(1, kmax + 1)
    return p**k / (-np.log1p(-p) * k)


def chi2_gof(values, pmf, level=0.01):
    """Pearson chi-square of integer samples against pmf atoms + tail bucket."""
    n = len(values)
    kmax = len(pmf)
    counts = np.array([(values == k).sum() for k in range(1, kmax + 1)], dtype=float)
    tail_obs = n - counts.sum()
    expected = np.append(pmf * n, (1.0 - pmf.sum()) * n)
    observed = np.append(counts, tail_obs)
    keep = expected >= 5.0
    stat = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    dof = keep.sum() - 1
    return stat < chi2.ppf(1.0 - level, dof)


class TestRngStream:
    def test_determinism(self):
        a = rng_stream(42).random(64)
        b = rng_stream(42).random(64)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = rng_stream(42, stream=0).random(64)
        b = rng_stream(42, stream=1).random(64)
        assert not np.array_equal(a, b)

    def test_invalid_seed(self):
        with pytest.raises(ValueError):
            rng_stream(-1)


def frank_frailty(p, seed, n):
    """Base frailty of Frank(theta) with 1 - e^-theta = p: the log-series law Log(p)."""
    return sample_frailty(generator("frank", -np.log1p(-p)), 0.0, rng_stream(seed), size=n)


class TestLogSeries:
    def test_tiny_p_returns_one(self):
        # P(V >= 2) ~ p/2, so at p = 1e-8 a batch of 1e5 draws is all ones
        v = frank_frailty(1e-8, 0, 100_000)
        assert np.all(v == 1.0)

    def test_atom_one_probability(self):
        n = 200_000
        v = frank_frailty(0.5, 1, n)
        p1 = 0.5 / np.log(2.0)
        se = np.sqrt(p1 * (1 - p1) / n)
        assert abs((v == 1).mean() - p1) <= 3 * se

    def test_mean(self):
        n = 200_000
        v = frank_frailty(0.9, 2, n)
        mean = 0.9 / (0.1 * (-np.log(0.1)))
        assert abs(v.mean() - mean) <= 3 * v.std(ddof=1) / np.sqrt(n)

    def test_pmf_chi2(self):
        v = frank_frailty(0.8, 3, 200_000)
        assert chi2_gof(v, log_pmf(0.8, 20))

    def test_p_near_one(self):
        # Frank(13.8): the atom at 1 shrinks to p / -log(1 - p) and the mean
        # p / ((1 - p) (-log(1 - p))) grows to 7.2e4
        n = 200_000
        p = 1.0 - 1e-6
        v = frank_frailty(p, 4, n)
        p1 = p / -np.log1p(-p)
        assert abs((v == 1).mean() - p1) <= 3 * np.sqrt(p1 * (1 - p1) / n)
        mean = p / ((1.0 - p) * -np.log1p(-p))
        assert abs(v.mean() - mean) <= 3 * v.std(ddof=1) / np.sqrt(n)

    def test_large_theta(self):
        # Frank(40) and Frank(200) have p = 1 - e^-theta, which rounds to 1 in
        # float64; the law is still Log(p) with -log(1 - p) = theta
        n = 200_000
        for theta in (40.0, 200.0):
            v = sample_frailty(generator("frank", theta), 0.0, rng_stream(5), size=n)
            assert np.all(np.isfinite(v)) and np.all(v >= 1.0)
            k = np.arange(1, 11)
            pmf = np.exp(k * np.log(-np.expm1(-theta)) - np.log(k)) / theta
            for prob, emp in ((pmf[0], (v == 1).mean()), (pmf.sum(), (v <= 10).mean())):
                assert abs(emp - prob) <= 4 * np.sqrt(prob * (1 - prob) / n), theta


class TestSibuya:
    def test_alpha_one_degenerate(self):
        v = np.asarray(sample_sibuya(1.0, rng_stream(0), size=1000))
        assert np.all(v == 1.0)

    def test_atom_one_is_alpha(self):
        n = 200_000
        for alpha in (0.3, 0.5, 0.9):
            v = np.asarray(sample_sibuya(alpha, rng_stream(4), size=n))
            se = np.sqrt(alpha * (1 - alpha) / n)
            assert abs((v == 1).mean() - alpha) <= 4 * se

    def test_pmf_chi2(self):
        v = np.asarray(sample_sibuya(0.5, rng_stream(5), size=200_000))
        assert chi2_gof(v, sibuya_pmf(0.5, 20))

    def test_survival_values(self):
        # P(V > k) = prod (1 - alpha/i); check the first two atoms directly
        v = np.asarray(sample_sibuya(0.5, rng_stream(6), size=200_000))
        assert abs((v == 2).mean() - 0.125) < 0.003

    def test_heavy_tail_finite(self):
        v = np.asarray(sample_sibuya(0.2, rng_stream(7), size=100_000))
        assert np.all(np.isfinite(v)) and np.all(v >= 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_sibuya(0.0, rng_stream(0), size=1)

    @given(alpha=st.floats(0.05, 0.95), seed=st.integers(0, 2**32))
    def test_survival_function(self, alpha, seed):
        # P(V > k) = Gamma(k + 1 - alpha) / (Gamma(1 - alpha) k!), deep into the
        # tail; exceedance counts there are small, so judge them by exact
        # binomial tails at the one-sided level of 5 standard errors
        n = 20_000
        v = sample_sibuya(alpha, rng_stream(seed), size=n)
        for k in (1.0, 10.0, 1e3, 1e6, 1e12):
            sf = math.exp(math.lgamma(k + 1 - alpha) - math.lgamma(k + 1) - math.lgamma(1 - alpha))
            count = int((v > k).sum())
            assert min(binom.cdf(count, n, sf), binom.sf(count - 1, n, sf)) > norm.sf(5.0), k


class TestTiltedSibuya:
    def test_atom_one_value(self):
        # alpha=1/theta=0.5 and p = 1-(1-C)^theta = 0.51 at C = 0.3 gives p1 = 0.85
        n = 300_000
        v = np.asarray(sample_tilted_sibuya(0.5, 0.51, rng_stream(8), size=n))
        p1 = 0.51 * 0.5 / (1.0 - 0.49**0.5)
        assert p1 == pytest.approx(0.85, abs=1e-12)
        se = np.sqrt(p1 * (1 - p1) / n)
        assert abs((v == 1).mean() - p1) <= 4 * se

    # (0.02, 0.99) takes the log envelope, over both branches of its log1mexp
    @pytest.mark.parametrize("alpha,p", [(0.5, 0.51), (0.9, 0.2), (0.3, 0.8), (0.02, 0.99)])
    def test_pmf_chi2(self, alpha, p):
        v = np.asarray(sample_tilted_sibuya(alpha, p, rng_stream(9), size=200_000))
        k = np.arange(1, 21)
        pmf = p**k * sibuya_pmf(alpha, 20) / (1.0 - (1.0 - p) ** alpha)
        assert chi2_gof(v, pmf)

    def test_acceptance_rate_bound(self):
        _, acc, prop = sample_tilted_sibuya(
            0.5, 0.51, rng_stream(10), size=500_000, return_stats=True
        )
        assert acc / prop >= 1.0 / 1.5820 - 0.01

    def test_near_one_p_sibuya_branch(self):
        # acceptance p^(V-1) -> 1 and the law approaches plain Sibuya(alpha);
        # the automatic choice takes the Sibuya envelope at this p
        p = 1.0 - 1e-6
        v, acc, prop = sample_tilted_sibuya(0.5, p, rng_stream(11), size=100_000, return_stats=True)
        assert acc / prop > 0.99
        assert abs((np.asarray(v) == 1).mean() - 0.5) < 0.006

    def test_log_envelope_beta_at_one(self):
        # Beta(0.9, 0.1) returns exactly 1 a few percent of the time, where
        # log(1 - P) = -inf; the accept test must not form 0 * -inf at V = 1
        assert np.any(rng_stream(30).beta(0.9, 0.1, size=10_000) == 1.0)
        n = 200_000
        alpha, p = 0.9, 0.1
        assert p > -alpha * np.log1p(-p)  # the rule picks the log envelope
        v = sample_tilted_sibuya(alpha, p, rng_stream(30), size=n)
        assert not np.any(np.isnan(v))
        p1 = p * alpha / (1.0 - (1.0 - p) ** alpha)
        assert abs((v == 1).mean() - p1) <= 4 * np.sqrt(p1 * (1 - p1) / n)

    def test_branch_consistency(self):
        # both envelopes must yield the same law: two-sample chi-square at 1%, on
        # either side of the switch p = -alpha log(1 - p), where the laws differ by 1e-9
        n = 200_000
        p0 = brentq(lambda p: p + 0.5 * np.log1p(-p), 0.5, 0.9, xtol=1e-15)
        p_sib, p_log = p0 * (1.0 + 1e-9), p0 * (1.0 - 1e-9)
        assert p_sib <= -0.5 * np.log1p(-p_sib) and p_log > -0.5 * np.log1p(-p_log)
        a = sample_tilted_sibuya(0.5, p_sib, rng_stream(12), size=n)
        b = sample_tilted_sibuya(0.5, p_log, rng_stream(13), size=n)
        edges = list(range(1, 11))
        oa = np.array([(a == k).sum() for k in edges] + [(a > 10).sum()], dtype=float)
        ob = np.array([(b == k).sum() for k in edges] + [(b > 10).sum()], dtype=float)
        keep = (oa + ob) >= 10
        stat = float((np.square(oa - ob)[keep] / (oa + ob)[keep]).sum())
        assert stat < chi2.ppf(0.99, int(keep.sum()) - 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_tilted_sibuya(0.5, 1.0, rng_stream(0), size=1)
        with pytest.raises(ValueError):
            sample_tilted_sibuya(1.5, 0.5, rng_stream(0), size=1)


class TestStable:
    def test_laplace_transform(self):
        n = 400_000
        for alpha in (0.3, 0.5, 0.8):
            s = np.asarray(sample_stable(alpha, rng_stream(14), size=n))
            for t in (0.5, 1.0, 2.0):
                w = np.exp(-t * s)
                se = w.std(ddof=1) / np.sqrt(n)
                assert abs(w.mean() - np.exp(-(t**alpha))) <= 4 * se

    def test_positive(self):
        s = np.asarray(sample_stable(0.5, rng_stream(15), size=1_000_000))
        assert np.all(s > 0)

    def test_alpha_one_degenerate(self):
        assert np.all(np.asarray(sample_stable(1.0, rng_stream(0), size=100)) == 1.0)


class TestTiltedStable:
    def test_zero_tilt_matches_stable(self):
        n = 300_000
        s = np.asarray(sample_tilted_stable(0.5, 0.0, rng_stream(16), size=n))
        w = np.exp(-s)
        se = w.std(ddof=1) / np.sqrt(n)
        assert abs(w.mean() - np.exp(-1.0)) <= 4 * se

    @pytest.mark.parametrize("alpha,h", [(0.5, 1.44955), (0.3, 4.0), (0.8, 0.2), (0.5, 25.0)])
    def test_laplace_transform(self, alpha, h):
        n = 300_000
        s = np.asarray(sample_tilted_stable(alpha, h, rng_stream(17), size=n))
        for t in (0.5, 1.0):
            w = np.exp(-t * s)
            se = w.std(ddof=1) / np.sqrt(n)
            target = np.exp(-((t + h) ** alpha - h**alpha))
            assert abs(w.mean() - target) <= 4 * se

    def test_crossover(self, monkeypatch):
        # tilts lambda = h^alpha below 1.5 (round(lambda) = 1) take fast
        # rejection, which proposes stable variates; from 1.5 up, rows take
        # double rejection and never call sample_stable
        proposed = []
        stable = frailty.sample_stable

        def counted(alpha, rng, size):
            proposed.append(size)
            return stable(alpha, rng, size)

        monkeypatch.setattr(frailty, "sample_stable", counted)
        below = np.full(1000, 1.49**2)
        sample_tilted_stable(0.5, np.append(below, 2.25), rng_stream(32), size=1001)
        assert sum(proposed) >= 1000
        proposed.clear()
        s = sample_tilted_stable(0.5, np.full(1000, 1.5**2), rng_stream(32), size=1000)
        assert proposed == [] and np.all(s > 0)

    def test_fast_rows_bitwise(self):
        # rows with lambda < 1.5 (and untilted rows) are drawn first by the same
        # calls as before double rejection existed: digests taken from the
        # summand-splitting sampler
        def digest(a):
            return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]

        s = sample_tilted_stable(0.5, 1.44955, rng_stream(30), size=2000)
        assert digest(s) == "5b89f37c6801c1a1"
        h = np.tile([0.0, 0.5, 1.0, 2.0, 2.25, 9.0], 500)  # lambda = 0, .71, 1, 1.41, 1.5, 3
        s = sample_tilted_stable(0.5, h, rng_stream(31), size=h.size)
        assert digest(s[np.sqrt(h) < 1.5]) == "54a62d6951e419ca"

    def test_vector_tilts(self):
        # lambda = 0, 1, 1.4 on the fast side of the crossover; 1.5, 3.2, 10, 1e4 past it
        h = np.array([0.0, 1.0, 1.96, 2.25, 10.0, 100.0, 1e8])
        s = np.asarray(sample_tilted_stable(0.5, np.repeat(h, 20_000), rng_stream(18), size=140_000))
        assert np.all(s > 0)
        # larger tilt concentrates the law near its (finite) tilted mean
        means = s.reshape(7, 20_000).mean(axis=1)
        assert np.all(np.diff(means) < 0)

    @settings(max_examples=40)
    @given(
        alpha=st.floats(0.02, 0.999),
        log_lam=st.floats(-2.0, 4.0),
        spread=st.sampled_from([0.0, 1.0, 3.0]),
        seed=st.integers(0, 2**32),
    )
    # near alpha = 1 and lambda = 1.5, 2% of the angle's mass lies in the hat's bin at pi
    @example(alpha=0.999, log_lam=0.2, spread=0.0, seed=0)
    @example(alpha=0.99, log_lam=0.5, spread=1.0, seed=1)
    def test_laplace_transform_property(self, alpha, log_lam, spread, seed):
        # per-row tilts lambda_i = h_i^alpha up to 1e4 (spread 0: one scalar
        # tilt); t_i is set so that every row's transform is e^-c
        n = 20_000
        rng = rng_stream(seed, stream=1)
        lam = 10.0 ** np.minimum(log_lam + spread * (rng.random(n) - 0.5), 4.0)
        h = lam ** (1.0 / alpha)
        s = sample_tilted_stable(alpha, h[0] if spread == 0.0 else h, rng_stream(seed), size=n)
        for c in (0.5, 2.0):
            t = h * np.expm1(np.log1p(c / lam) / alpha)
            w = np.exp(-t * s)
            se = w.std(ddof=1) / np.sqrt(n)
            assert abs(w.mean() - np.exp(-c)) <= 5 * se

    def test_double_rejection_iterations(self):
        # outer iterations per draw stay bounded in the tilt; 1.1-1.6 observed
        for alpha in (0.02, 0.3, 0.5, 0.7, 0.9, 0.999):
            for lam in (1.5, 4.6, 100.0, 1e4):
                _, outer = _double_rejection(alpha, np.full(5000, lam), rng_stream(33))
                assert outer / 5000 <= 2.0, (alpha, lam)
            lam = 1.5 * 10.0 ** (4.0 * rng_stream(34).random(5000))
            _, outer = _double_rejection(alpha, lam, rng_stream(35))
            assert outer / 5000 <= 2.0, alpha

    def test_huge_tilt(self):
        # h^alpha ~ 3.2e6: no summand array, finite positive draws near the
        # tilted mean alpha h^(alpha - 1)
        s = sample_tilted_stable(0.5, 1e13, rng_stream(0), size=3)
        assert np.all(np.isfinite(s)) and np.all(np.abs(s / (0.5 * 1e13**-0.5) - 1.0) < 0.01)

    def test_invalid_tilt(self):
        for h in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tilt h must be finite and nonnegative"):
                sample_tilted_stable(0.5, h, rng_stream(0), size=2)


# theta ranges per family for property tests, and tilts with exact zeros
THETAS = {
    "independence": st.none(),
    "clayton": st.floats(0.1, 10.0),
    "amh": st.floats(0.0, 0.95),
    "frank": st.floats(0.1, 30.0),
    "gumbel": st.floats(1.0, 5.0),
    "joe": st.floats(1.0, 5.0),
}
TILTS = st.just(0.0) | st.floats(0.01, 8.0)


class TestFrailtyDispatch:
    def test_clayton_tilted_gamma(self):
        n = 400_000
        v = np.asarray(sample_frailty(generator("clayton", 2.0), 6.0, rng_stream(19), size=n))
        se = v.std(ddof=1) / np.sqrt(n)
        assert abs(v.mean() - 0.5 / 7.0) <= 3 * se

    def test_amh_base_geometric(self):
        v = np.asarray(sample_frailty(generator("amh", 0.5), 0.0, rng_stream(20), size=200_000))
        k = np.arange(1, 21)
        pmf = 0.5**k  # Geo(1-theta) on {1, 2, ...} with theta = 0.5
        assert chi2_gof(v, pmf)

    def test_frank_tilted_is_log_series(self):
        theta = 4.0
        g = generator("frank", theta)
        c = 0.358445
        h = float(g.psi_inv(c))
        v = np.asarray(sample_frailty(g, h, rng_stream(21), size=200_000))
        ptilde = 1.0 - np.exp(-theta * c)
        assert chi2_gof(v, log_pmf(ptilde, 20))

    @pytest.mark.parametrize("fam,theta", [("amh", 0.7), ("frank", 4.0), ("joe", 2.0)])
    def test_tilted_pmf_matches_reweighting(self, fam, theta):
        # tilted pmf must equal e^{-hk} p_k / psi(h) on the first atoms
        g = generator(fam, theta)
        h = float(g.psi_inv(0.4))
        k = np.arange(1, 21)
        if fam == "amh":
            base = (1 - theta) * theta ** (k - 1.0)
        elif fam == "frank":
            p = -np.expm1(-theta)
            base = p**k / (-np.log1p(-p) * k)
        else:
            base = sibuya_pmf(1.0 / theta, 20)
        tilted = np.exp(-h * k) * base / float(g.psi(h))
        v = np.asarray(sample_frailty(g, h, rng_stream(22), size=200_000))
        assert chi2_gof(v, tilted)

    def test_laplace_transform_sweep(self):
        n = 150_000
        gens = [
            generator("independence"),
            generator("clayton", 2.0),
            generator("amh", 0.7),
            generator("frank", 4.0),
            generator("gumbel", 2.0),
            generator("joe", 2.0),
            generator("clayton", 1.5, outer_alpha=0.6),
            generator("gumbel", 3.0, outer_alpha=0.5),
        ]
        for i, g in enumerate(gens):
            for c in (None, 0.5, 0.1):
                h = 0.0 if c is None else float(g.psi_inv(c))
                v = np.asarray(sample_frailty(g, h, rng_stream(23, stream=i), size=n), float)
                for t in (0.25, 1.0, 4.0):
                    w = np.exp(-t * v)
                    se = max(w.std(ddof=1) / np.sqrt(n), 1e-12)
                    target = float(np.exp(g.log_psi(t + h) - g.log_psi(h)))
                    assert abs(w.mean() - target) <= 5 * se, (g, h, t)

    def test_tilted_generator_folds_tilt(self):
        g = generator("clayton", 2.0).tilt(6.0)
        v = np.asarray(sample_frailty(g, 0.0, rng_stream(24), size=200_000))
        se = v.std(ddof=1) / np.sqrt(v.size)
        assert abs(v.mean() - 0.5 / 7.0) <= 4 * se

    @given(
        g=st.sampled_from(sorted(THETAS)).flatmap(
            lambda fam: st.builds(generator, st.just(fam), THETAS[fam], st.none() | st.floats(0.3, 1.0))
        ),
        h1=TILTS,
        h2=TILTS,
        seed=st.integers(0, 2**32),
    )
    def test_tilts_compose_additively(self, g, h1, h2, seed):
        a = np.asarray(sample_frailty(g.tilt(h1), h2, rng_stream(seed), size=16))
        b = np.asarray(sample_frailty(g, h1 + h2, rng_stream(seed), size=16))
        assert np.array_equal(a, b)

    def test_generator_without_law_raises(self):
        class Bare(Generator):
            def _log_psi(self, t):
                return -t

        for g in (Bare(), Bare().tilt(0.5), Bare().outer_power(0.5)):
            with pytest.raises(TypeError, match="no frailty sampler for generator type Bare"):
                sample_frailty(g, 0.3, rng_stream(27), size=4)

    def test_outer_power_overflow_raises(self):
        # Sibuya(0.1) draws past 1e31 overflow V^(1/alpha) = V^10; psi_op stays
        # far from 1 near 0, so no finite stand-in would be exact
        with pytest.raises(OverflowError, match=r"OuterPowerGenerator\(JoeGenerator.*1/alpha = 10"):
            sample_frailty(generator("joe", 10.0, outer_alpha=0.1), 0.0, rng_stream(1), size=20000)

    def test_determinism(self):
        a = np.asarray(sample_frailty(generator("joe", 2.0), 0.7, rng_stream(25), size=1000))
        b = np.asarray(sample_frailty(generator("joe", 2.0), 0.7, rng_stream(25), size=1000))
        assert np.array_equal(a, b)


# each takes a count k: a number of draws, a seed, a stream index or a dimension
_COUNTED = {
    "sample_frailty": lambda k: sample_frailty(generator("gumbel", 2.0), 0.3, rng_stream(4), size=k),
    "sample_stable": lambda k: sample_stable(0.5, rng_stream(4), size=k),
    "sample_tilted_stable": lambda k: sample_tilted_stable(0.5, 2.0, rng_stream(4), size=k),
    "sample_sibuya": lambda k: sample_sibuya(0.5, rng_stream(4), size=k),
    "sample_tilted_sibuya": lambda k: sample_tilted_sibuya(0.5, 0.51, rng_stream(4), size=k),
    "rng_stream-seed": lambda k: rng_stream(k).random(3),
    "rng_stream-stream": lambda k: rng_stream(1, k).random(3),
    "sample_archimedean-d": lambda k: sample_archimedean(generator("clayton", 2.0), k, 5, rng_stream(4)),
}


@pytest.mark.parametrize("bad", [2.9, "3", True])
@pytest.mark.parametrize("name", sorted(_COUNTED))
def test_counts_are_whole(name, bad):
    # 3.0 is 3, bit for bit; 2.9, "3" and True are not counts
    draw = _COUNTED[name]
    assert draw(3).tobytes() == draw(3.0).tobytes()
    with pytest.raises(ValueError, match="whole number"):
        draw(bad)


def test_tilted_sibuya_log_acceptance_identity():
    # the log-branch acceptance probability equals V p_V / alpha via Gamma ratios
    alpha = 0.4
    v = np.arange(1.0, 8.0)
    lhs = np.exp(gammaln(v - alpha) - gammaln(1.0 - alpha) - gammaln(v))
    pmf = sibuya_pmf(alpha, 7)
    assert np.allclose(lhs, v * pmf / alpha, rtol=1e-12)


@pytest.mark.parametrize("call,match", [
    (lambda: sample_stable(0.0, rng_stream(0), size=2), r"alpha must lie in \(0, 1\]"),
    (lambda: sample_stable(1.5, rng_stream(0), size=2), r"alpha must lie in \(0, 1\]"),
    (lambda: sample_tilted_stable(0.0, 1.0, rng_stream(0), size=2), r"alpha must lie in \(0, 1\]"),
    (lambda: sample_tilted_stable(1.5, 1.0, rng_stream(0), size=2), r"alpha must lie in \(0, 1\]"),
    (lambda: sample_frailty(generator("clayton", 2.0), -0.5, rng_stream(0), size=2),
     "tilt h must be nonnegative"),
], ids=["stable-0", "stable-1.5", "tilted-stable-0", "tilted-stable-1.5", "frailty-negative-tilt"])
def test_argument_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()

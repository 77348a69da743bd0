from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from trunca import (
    ArchimedeanCopula,
    OuterPowerGenerator,
    TiltedGenerator,
    generator,
    generator_from_dict,
    generator_to_dict,
    log1mexp,
    rng_stream,
    sample_frailty,
    truncate_general,
)
from trunca.generators import _columnwise

FAMILIES = {
    "independence": (None,),
    "clayton": (0.3, 2.0, 8.0),
    "amh": (0.0, 0.5, 0.95),
    "frank": (0.5, 4.0, 30.0),
    "gumbel": (1.0, 2.0, 8.0),
    "joe": (1.0, 2.0, 8.0),
}


def all_generators():
    out = []
    for fam, thetas in FAMILIES.items():
        for th in thetas:
            out.append(generator(fam, th))
    out.append(generator("clayton", 1.5, outer_alpha=0.6))
    out.append(generator("gumbel", 2.0, outer_alpha=0.5))
    return out


@pytest.mark.parametrize(
    "fam,theta",
    [("clayton", 0.0), ("clayton", -1.0), ("amh", 1.0), ("amh", -0.1),
     ("frank", 0.0), ("gumbel", 0.9), ("joe", 0.5),
     ("clayton", np.inf), ("frank", np.inf), ("gumbel", np.inf), ("joe", np.inf)],
)
def test_parameter_range_errors(fam, theta):
    with pytest.raises(ValueError):
        generator(fam, theta)


def test_psi_point_values():
    assert_allclose(generator("clayton", 2.0).psi(6.0), 7.0**-0.5, rtol=1e-14)
    assert_allclose(generator("gumbel", 2.0).psi(1.0), np.exp(-1.0), rtol=1e-14)
    for g in all_generators():
        assert g.psi(0.0) == pytest.approx(1.0, abs=1e-14)


def test_psi_inv_point_values():
    assert_allclose(generator("clayton", 2.0).psi_inv(0.5), 3.0, rtol=1e-13)
    assert_allclose(generator("gumbel", 2.0).psi_inv(np.exp(-1.0)), 1.0, rtol=1e-13)
    for g in all_generators():
        assert g.psi_inv(1.0) == pytest.approx(0.0, abs=1e-14)
        assert np.isinf(g.psi_inv(0.0))
    with pytest.raises(ValueError):
        generator("clayton", 2.0).psi_inv(1.5)
    with pytest.raises(ValueError):
        generator("clayton", 2.0).psi_inv(-0.1)
    with pytest.raises(ValueError):
        generator("clayton", 2.0).psi(-1.0)


def test_roundtrip_psi_psi_inv():
    rng = np.random.default_rng(1)
    for g in all_generators():
        u = rng.uniform(1e-4, 1.0, size=1000)
        assert np.max(np.abs(np.asarray(g.psi(g.psi_inv(u))) - u)) <= 1e-12


def test_roundtrip_extreme_theta():
    # stability spot checks where naive forms cancel
    g = generator("frank", 50.0)
    u = np.array([1e-8, 1e-3, 0.2, 0.9, 1.0 - 1e-6])
    assert np.max(np.abs(np.asarray(g.psi(g.psi_inv(u))) - u)) <= 1e-12
    g = generator("joe", 20.0)
    assert np.max(np.abs(np.asarray(g.psi(g.psi_inv(u))) - u)) <= 1e-12


def test_derivative_point_values():
    assert_allclose(generator("clayton", 2.0).psi_deriv(6.0, 1), -0.5 * 7.0**-1.5, rtol=1e-13)
    assert_allclose(generator("independence").psi_deriv(1.0, 1), -np.exp(-1.0), rtol=1e-14)
    assert_allclose(generator("clayton", 2.0).psi_deriv(0.0, 2), 0.75, rtol=1e-14)
    with pytest.raises(ValueError):
        generator("clayton", 2.0).psi_deriv(1.0, order=3)


def test_derivatives_match_finite_differences():
    ts = np.geomspace(1e-3, 50.0, 40)
    step = np.minimum(1.2e-3, np.maximum(3e-4 * ts, 1e-7))
    for g in all_generators():
        d1 = np.asarray(g.psi_deriv(ts, 1))
        fd1 = (np.asarray(g.psi(ts + step)) - np.asarray(g.psi(ts - step))) / (2 * step)
        assert np.max(np.abs(d1 - fd1) / np.abs(d1)) <= 1e-6, g
        d2 = np.asarray(g.psi_deriv(ts, 2))
        fd2 = (np.asarray(g.psi_deriv(ts + step, 1)) - np.asarray(g.psi_deriv(ts - step, 1))) / (2 * step)
        assert np.max(np.abs(d2 - fd2) / np.abs(d2)) <= 1e-5, g


def test_derivative_sign_pattern():
    ts = np.geomspace(1e-3, 50.0, 25)
    for g in all_generators():
        assert np.all(np.asarray(g.psi_deriv(ts, 1)) < 0), g
        assert np.all(np.asarray(g.psi_deriv(ts, 2)) >= 0), g


def test_log_forms_consistent():
    ts = np.geomspace(1e-3, 50.0, 25)
    for g in all_generators():
        assert_allclose(np.asarray(g.log_psi(ts)), np.log(np.asarray(g.psi(ts))), atol=1e-12)
        # far beyond the underflow horizon of psi itself
        assert np.isfinite(float(g.log_psi(2000.0)))
    # psi_deriv(t, 1) is -exp(log_neg_psi_deriv(t)), so check the log kernel on
    # its own: log(-psi') = log psi + log(-(log psi)'), past psi's underflow
    ts = np.geomspace(1e-3, 2000.0, 60)
    step = 1e-5 * ts
    for base in all_generators():
        for h in (0.0, 3.0, 50.0):
            g = base.tilt(h)
            dlog = (np.asarray(g.log_psi(ts + step)) - np.asarray(g.log_psi(ts - step))) / (2 * step)
            ref = np.asarray(g.log_psi(ts)) + np.log(-dlog)
            assert_allclose(np.asarray(g.log_neg_psi_deriv(ts)), ref, rtol=0, atol=1e-5, err_msg=repr(g))


# blocks of 1-12 points of 2-5 coordinates in [0, 1], with exact 0s and 1s among them
_UNIT_BLOCKS = st.tuples(st.integers(1, 12), st.integers(2, 5)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))


@pytest.mark.parametrize("fam", sorted(FAMILIES))
@given(block=_UNIT_BLOCKS)
@example(block=np.array([[0.0, 0.5], [1.0, 1.0], [1.0, 0.0], [0.3, 1.0]]))
def test_psi_sum_is_the_public_sum(fam, block):
    # the kernel sum skips the checks of psi and psi_inv, and nothing else
    for theta in FAMILIES[fam]:
        for alpha in (None, 0.6, 0.05):
            base = generator(fam, theta, alpha)
            for g in (base, *(base.tilt(h) for h in (0.0, 0.3, 600.0, 5e-320))):
                if g.family == "independence":
                    continue  # its own sum is the exact product
                want = g.psi(_columnwise(np.add, g.psi_inv(block)))
                got = g._psi_sum(block)
                assert got.tobytes() == np.asarray(want).tobytes(), repr(g)


def test_log1mexp_regimes():
    xs = np.array([-1e-12, -0.1, -1.0, -40.0, -800.0])
    ref = [np.log1p(-float(np.exp(x))) if x < -1 else float(np.log(-np.expm1(x))) for x in xs]
    assert_allclose(log1mexp(xs), ref, rtol=1e-13)
    assert log1mexp(-1e-300) < -600.0  # ~ log(1e-300)


def _two_branch_log1mexp(x):
    # both branches on every value, one picked by np.where
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        near = x > -np.log(2.0)
        return np.where(near, np.log(-np.expm1(np.where(near, x, -1.0))),
                        np.log1p(-np.exp(np.where(near, -1.0, x))))


_LN2_ULPS = [-np.log(2.0) + k * np.spacing(np.log(2.0)) for k in range(-4, 5)]
_LOG1MEXP_VALUES = st.one_of(
    st.sampled_from([*_LN2_ULPS, -0.0, 0.0, -745.0, -np.inf, np.nan, 0.5, np.inf]),
    st.floats(-800.0, 0.0), st.floats(allow_nan=True, allow_infinity=True))


@given(x=st.one_of(_LOG1MEXP_VALUES,
                   hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6),
                              elements=_LOG1MEXP_VALUES)))
@example(x=np.array(_LN2_ULPS))
@example(x=np.array([[-0.0, -745.0], [-np.inf, np.nan], [0.5, _LN2_ULPS[3]]]))
def test_log1mexp_is_the_two_branch_formula(x):
    # each branch runs only on its own values, with the same bits, shape and type
    got, want = log1mexp(x), _two_branch_log1mexp(x)
    assert type(got) is np.ndarray and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _decimal_generator(fam, th):
    """(psi, psi_inv) of an AMH, Frank or Joe generator in the current decimal context."""
    one = Decimal(1)
    if fam == "frank":
        p = one - (-th).exp()
        return (lambda t: -(one - p * (-t).exp()).ln() / th,
                lambda v: p.ln() - (one - (-th * v).exp()).ln())
    if fam == "joe":
        return (lambda t: one - (one - (-t).exp()) ** (one / th),
                lambda v: -(one - (one - v) ** th).ln())
    return (lambda t: (one - th) / (t.exp() - th),
            lambda v: ((one - th * (one - v)) / v).ln())


def _gumbel_tilted_inv(theta):
    """Gumbel's psi_inv(psi(h) v) - h = (h^(1/theta) - log v)^theta - h, in decimals."""
    th = Decimal(theta)
    return lambda h, v: (h ** (1 / th) - v.ln()) ** th - h


class TestTilt:
    def test_clayton_tilt_is_rescaled_clayton(self):
        g = generator("clayton", 2.0)
        tg = g.tilt(6.0)
        ts = np.linspace(0.0, 40.0, 101)
        assert_allclose(np.asarray(tg.psi(ts)), np.asarray(g.psi(ts / 7.0)), atol=1e-13)

    def test_zero_tilt_is_identity(self):
        for g in all_generators():
            tg = g.tilt(0.0)
            ts = np.linspace(0.0, 30.0, 61)
            assert_allclose(np.asarray(tg.psi(ts)), np.asarray(g.psi(ts)), atol=1e-14)

    def test_amh_tilt_is_amh(self):
        g = generator("amh", 0.5)
        h = np.log(3.0)  # e^-h = 1/3
        tg = g.tilt(h)
        g2 = generator("amh", 0.5 / 3.0)
        ts = np.linspace(0.0, 40.0, 101)
        assert np.max(np.abs(np.asarray(tg.psi(ts)) - np.asarray(g2.psi(ts)))) <= 1e-10

    def test_frank_tilt_is_frank(self):
        theta = 4.0
        g = generator("frank", theta)
        for c in (0.2, 0.6, 0.9):
            tg = g.tilt(float(g.psi_inv(c)))
            g2 = generator("frank", theta * c)
            ts = np.linspace(0.0, 40.0, 101)
            assert np.max(np.abs(np.asarray(tg.psi(ts)) - np.asarray(g2.psi(ts)))) <= 1e-10

    def test_tilt_composition(self):
        for g in (generator("clayton", 2.0), generator("gumbel", 3.0), generator("frank", 10.0)):
            a = g.tilt(1.5).tilt(2.5)
            b = g.tilt(4.0)
            assert isinstance(a, TiltedGenerator) and a.base is g
            ts = np.linspace(0.0, 30.0, 61)
            assert np.max(np.abs(np.asarray(a.psi(ts)) - np.asarray(b.psi(ts)))) <= 1e-12

    def test_tilt_inverse_roundtrip(self):
        ts = np.linspace(0.0, 50.0, 101)
        for g in all_generators():
            for c in (0.5, 0.1):
                h = float(g.psi_inv(c))
                tg = g.tilt(h)
                back = np.asarray(tg.psi_inv(tg.psi(ts)))
                # for power-decay generators h grows like C(t)^-theta and the
                # tilted values crowd within (1+h)^-1 of 1, so the roundtrip
                # is resolution-limited to about (1+h) eps
                tol = max(1e-10, (1.0 + h) * 4e-14)
                assert np.max(np.abs(back - ts)) <= tol, g

    def test_negative_tilt_rejected(self):
        with pytest.raises(ValueError):
            generator("clayton", 2.0).tilt(-0.1)

    def test_generic_inverse_where_psi_h_u_underflows(self):
        # psi(80) 1e-300 underflows to 0; the exponential tail gives -log u
        assert generator("frank", 4.0).tilt(80.0).psi_inv(1e-300) == pytest.approx(
            690.7755278982137, rel=1e-15)
        tc = truncate_general(ArchimedeanCopula(generator("frank", 4.0)), [1e-30, 1e-30])
        assert tc.model.generator.h == pytest.approx(135.3, abs=0.1)
        # near independence at this tilt: C_t(u1, u2) ~ u1 u2
        assert tc.cdf([1e-300, 0.5]) == pytest.approx(5e-301, rel=1e-12)

    @pytest.mark.parametrize("g", [generator("gumbel", 20.0), generator("clayton", 2.0, 0.05),
                                   generator("gumbel", 20.0, 1.0), generator("gumbel", 20.0, 0.99)])
    def test_tiny_tilts_near_one(self, g):
        # h = 8.1e-320 (Gumbel) and 8.5e-314 (outer power): h expm1(L) with L > 709; the
        # outer powers of Gumbel(20) near alpha = 1 overflow h^-alpha and take the direct form
        m = ArchimedeanCopula(g)
        tc = truncate_general(m, [1.0 - 2.0**-53, 1.0])
        assert 0.0 < tc.model.generator.h < 1e-312
        assert np.isfinite(tc.model.generator.psi_inv(0.5))
        u = np.random.default_rng(16).random((1000, 2))
        assert_allclose(tc.cdf(u), m.cdf(u), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha", [1.0, 0.97])
    def test_huge_base_inverse_at_a_tiny_tilt(self, alpha):
        # h = 9.3e-302 and 4.6e-311 are normal, but D h^-alpha overflows where Gumbel(20)'s
        # tilted inverse D is above about 180 (u below 0.3): the direct form takes it there
        m = ArchimedeanCopula(generator("gumbel", 20.0, alpha))
        tc = truncate_general(m, [1.0 - 8 * 2.0**-53, 1.0])
        u = np.random.default_rng(16).random((1000, 2))
        assert_allclose(tc.cdf(u), m.cdf(u), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("g,base_inv,rtol", [
        (generator("gumbel", 1.0), _gumbel_tilted_inv(1), 1e-14),
        (generator("gumbel", 1.02), _gumbel_tilted_inv("1.02"), 1e-14),
        (generator("independence", None, 1.0), lambda h, v: -v.ln(), 1e-14),
        (generator("clayton", 2.0, 1.0), lambda h, v: (1 + h) * (v**-2 - 1), 1e-14),
        # plain Gumbel(20)'s own error at this tilt
        (generator("gumbel", 20.0, 1.0), _gumbel_tilted_inv(20), 2e-13),
    ], ids=["gumbel-1", "gumbel-1.02", "op-independence", "op-clayton", "op-gumbel20"])
    def test_gumbel_subnormal_tilt_near_theta_one(self, g, base_inv, rtol):
        # h^-alpha overflows float64 at this tilt, alpha = 1/theta or the outer power's 1.0;
        # at alpha = 1 the tilted inverse is the base's own
        u = np.array([0.0, 1e-300, 1e-5, 0.5, 1.0 - 2.0**-53, 1.0])
        with localcontext() as ctx:
            ctx.prec = 700
            want = [float(base_inv(Decimal(5e-320), Decimal(v))) if v > 0 else np.inf for v in u]
        assert_allclose(g.tilt(5e-320).psi_inv(u), want, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("g,h", [(generator("amh", 0.87), 30.0), (generator("joe", 2.0), 1.5),
                                     (generator("frank", 4.0), 0.3),
                                     (generator("frank", 4.0, 0.6), 0.3),
                                     (generator("clayton", 2.0, 0.995), 1e-310)])
    def test_tilted_inverse_is_zero_at_one(self, g, h):
        # psi_inv(psi(h)) - h need not cancel; the values below 1 keep that form.  At
        # the subnormal tilt (h^alpha)^(1/alpha) - h is one ulp, 5e-324
        tg = g.tilt(h)
        assert tg.psi_inv(1.0) == 0.0
        u = np.linspace(0.05, 1.0, 20)
        got = tg.psi_inv(u)
        assert got[-1] == 0.0
        if type(g) is not OuterPowerGenerator:
            want = np.maximum(g.psi_inv(g.psi(h) * u[:-1]) - h, 0.0)
            assert got[:-1].tobytes() == want.tobytes()

    def test_truncated_margin_at_one_is_the_round_trip(self):
        # C_t(u, 1) = psi_h(psi_h^-1(u) + psi_h^-1(1)): the tilt here is h = 30
        g0 = generator("amh", 0.87)
        tc = truncate_general(ArchimedeanCopula(g0), [g0.psi(15.0)] * 2)
        g = tc.model.generator
        u = np.random.default_rng(17).random(200)
        got = tc.cdf(np.column_stack([u, np.ones_like(u)]))
        assert got.tobytes() == g.psi(g.psi_inv(u)).tobytes()
        for g in all_generators():
            for h in (0.3, 5.0, 80.0, 600.0, 5e-320):
                assert g.tilt(h).psi_inv(1.0) == 0.0, (g, h)

    @pytest.mark.parametrize("fam,theta", [("frank", 4.0), ("frank", 40.0), ("joe", 5.0),
                                           ("amh", 0.7)])
    def test_generic_inverse_against_decimal(self, fam, theta):
        # 1 - e^(-theta v) at v ~ psi(600) 1e-300 needs some 900 digits
        with localcontext() as ctx:
            ctx.prec = 900
            psi, inv = _decimal_generator(fam, Decimal(theta))
            for h in (0.3, 80.0, 135.0, 600.0):
                psi_h = psi(Decimal(h))
                u = np.array([1e-300, 1e-250, 1e-200, 1e-10, 0.5])
                want = np.array([float(inv(psi_h * Decimal(x)) - Decimal(h)) for x in u])
                got = generator(fam, theta).tilt(h).psi_inv(u)
                assert_allclose(got, want, rtol=2e-13, atol=0.0, err_msg=f"h = {h}")


class TestOuterPower:
    def test_pointwise_definition(self):
        g = generator("clayton", 1.0)
        op = g.outer_power(0.5)
        assert op.psi(4.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert_allclose(op.psi_inv(1.0 / 3.0), 4.0, rtol=1e-12)

    def test_alpha_one_identity(self):
        g = generator("joe", 2.0)
        op = g.outer_power(1.0)
        ts = np.linspace(0.0, 20.0, 41)
        assert_allclose(np.asarray(op.psi(ts)), np.asarray(g.psi(ts)), atol=1e-15)

    @pytest.mark.parametrize("fam", sorted(FAMILIES))
    def test_alpha_one_second_derivative_is_the_base(self, fam):
        # psi'(t) alpha (alpha - 1) t^(alpha - 2) is 0 * inf at t = 0, not a term, at alpha = 1
        g = generator(fam, FAMILIES[fam][-1])
        ts = np.array([0.0, 0.5, 3.0])
        assert np.array_equal(g.outer_power(1.0).psi_deriv(ts, 2), g.psi_deriv(ts, 2))

    @pytest.mark.parametrize("theta", [1.0, 2.0, 2.5])
    def test_gumbel_is_outer_power_of_independence(self, theta):
        # one set of kernels: every value bit for bit, also at a subnormal tilt
        op = generator("independence").outer_power(1.0 / theta)
        g = generator("gumbel", theta)
        ts = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 40)])
        u = np.concatenate([[0.0], np.geomspace(1e-300, 1.0, 41)])

        def same(f):
            assert np.asarray(f(g)).tobytes() == np.asarray(f(op)).tobytes()

        for f in (lambda x: x.psi(ts), lambda x: x.log_psi(ts), lambda x: x.psi_inv(u),
                  lambda x: x.psi_deriv(ts, 1), lambda x: x.psi_deriv(ts, 2)):
            same(f)
        for h in (0.3, 80.0, 5e-320):
            same(lambda x: x.tilt(h).psi_inv(u))
            same(lambda x: sample_frailty(x, h, rng_stream(3), size=500))
        same(lambda x: sample_frailty(x, 0.0, rng_stream(3), size=500))

    def test_composition_multiplies_exponents(self):
        g = generator("clayton", 2.0)
        op = OuterPowerGenerator(OuterPowerGenerator(g, 0.5), 0.5)
        assert op.alpha == pytest.approx(0.25)
        assert op.base is g

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            generator("clayton", 2.0).outer_power(1.5)
        with pytest.raises(ValueError):
            generator("clayton", 2.0).outer_power(0.0)


def test_limiting_clayton_convergence():
    grid = np.linspace(0.0, 20.0, 201)
    theta = 2.0
    errs = []
    g = generator("clayton", theta)
    for h in (1e1, 1e2, 1e3, 1e4):
        tg = g.tilt(h)
        errs.append(np.max(np.abs(np.asarray(tg.psi(h * grid)) - (1.0 + grid) ** (-1.0 / theta))))
    assert np.all(np.diff(errs) < 0)
    assert errs[-1] < 1e-3

    alpha = 0.8
    gop = generator("clayton", theta, outer_alpha=alpha)
    errs = []
    for h in (1e1, 1e2, 1e3, 1e4):
        tg = gop.tilt(h)
        errs.append(np.max(np.abs(np.asarray(tg.psi(h * grid)) - (1.0 + grid) ** (-alpha / theta))))
    assert np.all(np.diff(errs) < 0)
    assert errs[-1] < 1e-3


class TestJSON:
    def test_roundtrip_plain(self):
        spec = {"family": "clayton", "theta": 2.0}
        g = generator_from_dict(spec)
        assert generator_to_dict(g) == spec

    def test_roundtrip_outer_power(self):
        spec = {"family": "gumbel", "theta": 2.0, "outer_alpha": 0.5}
        g = generator_from_dict(spec)
        assert isinstance(g, OuterPowerGenerator)
        assert generator_to_dict(g) == spec

    def test_independence_has_no_theta(self):
        assert generator_to_dict(generator("independence")) == {"family": "independence"}
        with pytest.raises(ValueError):
            generator("independence", 2.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            generator_from_dict({"family": "nope", "theta": 1.0})
        with pytest.raises(ValueError):
            generator_from_dict({"family": "clayton", "theta": 2.0, "bogus": 1})
        with pytest.raises(ValueError):
            generator_to_dict(generator("clayton", 2.0).tilt(1.0))

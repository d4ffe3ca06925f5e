import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kumiw import (
    KumIwParams,
    NumericError,
    SubModel,
    cdf,
    hazard,
    log_pdf,
    make_submodel,
    pdf,
    quantile,
    sample,
    survival,
)
from kumiw.distribution import log1m_exp
from oracles import (
    _plain_log1m_exp,
    ie_pdf,
    ir_pdf,
    iw_cdf,
    iw_pdf,
    pdf_normalization,
    plain_cdf,
    plain_hazard,
    plain_log_pdf,
    plain_pdf,
    plain_quantile,
    plain_survival,
    random_params,
)
from sweep import sweep_cases


class TestParams:
    def test_valid_construction(self):
        p = KumIwParams(2.0, 1.5, 3.0)
        assert (p.b, p.c, p.beta) == (2.0, 1.5, 3.0)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0), (math.nan, 1, 1), (1, math.inf, 1)])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            KumIwParams(*bad)

    @pytest.mark.parametrize("bad", ["1", None, True])
    @pytest.mark.parametrize("name", ["b", "c", "beta"])
    def test_not_a_number_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"^parameter {name} must be finite and > 0, got {bad}$"):
            KumIwParams(**{"b": 2.0, "c": 1.5, "beta": 3.0, name: bad})


class TestLog1mExp:
    def test_branch_continuity(self):
        # both branches agree near the ln 2 switch point
        for x in (math.log(2) - 1e-9, math.log(2), math.log(2) + 1e-9):
            assert log1m_exp(x) == pytest.approx(math.log(1 - math.exp(-x)), rel=1e-12, abs=0)

    def test_extremes(self):
        assert log1m_exp(0.0) == -math.inf
        assert log1m_exp(1e-300) == pytest.approx(math.log(1e-300), rel=1e-12)
        assert log1m_exp(800.0) == 0.0


@pytest.mark.dispatch
class TestLog1mExpIsTheKernel:
    """``log1m_exp`` runs the evaluators' guarded kernel on a copy of its
    input; it must match the plain np.where statement bit for bit."""

    def test_matches_plain_statement(self):
        rng = np.random.default_rng(41)
        ln2 = math.log(2.0)
        special = np.concatenate([
            [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, np.inf, np.nan],
            ln2 + np.spacing(ln2) * np.arange(-8.0, 9.0),
            np.linspace(745.0, 746.0, 1001),
            746.0 + np.spacing(746.0) * np.arange(-8.0, 9.0),
        ])
        x = np.concatenate([10.0 ** rng.uniform(-320.0, 308.0, 300_000), special])
        rng.shuffle(x)
        kept = x.copy()
        assert_same_bits(log1m_exp(x), _plain_log1m_exp(x))
        assert_same_bits(x, kept)
        strided = x[:300_000].reshape(-1, 6)[:, ::2]  # a 2-D view that is not contiguous
        assert_same_bits(log1m_exp(strided), _plain_log1m_exp(strided))

    def test_below_the_domain_is_nan(self):
        # the sign bit of the nan from an invalid log differs between numpy's
        # SIMD loops (at -inf, with AVX2 disabled), so only nan is checked
        x = np.array([-1.0, -1e-300, -np.inf])
        assert np.isnan(log1m_exp(x)).all() and np.isnan(_plain_log1m_exp(x)).all()

    @pytest.mark.parametrize("x", [0.3, 2.0, 800.0, math.nan, np.float64(1e-300), np.array(0.5), [0.5, 3.0]])
    def test_scalars_and_lists(self, x):
        got = log1m_exp(x)
        assert_same_bits(got, _plain_log1m_exp(x))
        if np.ndim(x) == 0:
            assert type(got) is np.float64


class TestPdf:
    def test_ie_point(self):
        assert pdf(KumIwParams(1, 1, 1), 1.0) == pytest.approx(math.exp(-1), rel=1e-14, abs=0)

    def test_direct_formula_spot(self):
        # direct high-precision transcription of the density expression
        b, c, beta, t = 2.0, 1.5, 2.0, 1.2
        x = (c / t) ** beta
        expected = beta * b * c**beta * t ** (-(beta + 1)) * math.exp(-x) * (1 - math.exp(-x)) ** (b - 1)
        assert pdf(KumIwParams(b, c, beta), t) == pytest.approx(expected, rel=1e-13, abs=0)
        assert log_pdf(KumIwParams(b, c, beta), t) == pytest.approx(math.log(expected), rel=1e-13, abs=0)

    def test_exp_log_pdf_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_params(rng)
            t = float(quantile(p, rng.uniform(0.01, 0.99)))
            assert pdf(p, t) == pytest.approx(math.exp(log_pdf(p, t)), rel=1e-12, abs=0)

    def test_b_one_no_bracket_term(self):
        p = KumIwParams(1.0, 2.0, 1.7)
        t = 1.3
        x = (p.c / t) ** p.beta
        expected = math.log(p.beta) + p.beta * math.log(p.c) - (p.beta + 1) * math.log(t) - x
        assert log_pdf(p, t) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_domain_error(self):
        p = KumIwParams(1, 1, 1)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                pdf(p, bad)

    def test_normalizes_random_params(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_params(rng)
            assert abs(pdf_normalization(p) - 1.0) <= 1e-8

    def test_pdf_is_cdf_derivative(self):
        p = KumIwParams(2.0, 1.0, 2.5)
        for u in np.linspace(0.05, 0.95, 12):
            t = float(quantile(p, u))
            h = 1e-6 * t
            numeric = (float(cdf(p, t + h)) - float(cdf(p, t - h))) / (2 * h)
            assert numeric == pytest.approx(float(pdf(p, t)), rel=1e-5)


class TestCdfSurvival:
    def test_limits(self):
        p = KumIwParams(2, 1.5, 2)
        assert cdf(p, 0.0) == 0.0
        assert survival(p, 0.0) == 1.0
        assert cdf(p, 1e12) == pytest.approx(1.0, abs=1e-12)

    def test_spot_value(self):
        # b=2, c=1.5, beta=2 at t=1.5: 1 - (1 - e^-1)^2
        assert cdf(KumIwParams(2, 1.5, 2), 1.5) == pytest.approx(
            1 - (1 - math.exp(-1)) ** 2, rel=1e-14, abs=0
        )

    def test_iw_reduction(self):
        p = KumIwParams(1.0, 2.0, 3.0)
        grid = np.linspace(0.5, 8.0, 50)
        np.testing.assert_allclose(cdf(p, grid), iw_cdf(2.0, 3.0, grid), rtol=1e-13)

    def test_complement_grid(self):
        p = KumIwParams(2.5, 1.2, 1.8)
        grid = np.linspace(0.05, 20.0, 1000)
        np.testing.assert_allclose(cdf(p, grid) + survival(p, grid), 1.0, atol=1e-14)

    def test_monotone(self):
        p = KumIwParams(0.7, 1.0, 2.2)
        grid = np.linspace(0.01, 30.0, 500)
        assert np.all(np.diff(cdf(p, grid)) >= 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            cdf(KumIwParams(1, 1, 1), -0.1)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0, 2.5])
    def test_negative_zero_is_zero(self, beta):
        # (c/-0.0)^beta is -inf for odd integer beta: cdf was -inf there
        p = KumIwParams(2, 1.5, beta)
        for f in (cdf, survival):
            assert_same_bits(f(p, -0.0), f(p, 0.0))
            assert_same_bits(f(p, np.array([-0.0, 1.0])), f(p, np.array([0.0, 1.0])))
        assert cdf(p, -0.0) == 0.0 and survival(p, -0.0) == 1.0


class TestHazard:
    def test_definitional_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = random_params(rng)
            t = float(quantile(p, rng.uniform(0.05, 0.95)))
            assert hazard(p, t) == pytest.approx(float(pdf(p, t)) / float(survival(p, t)), rel=1e-10)

    def test_spot_value(self):
        assert hazard(KumIwParams(1, 1, 2), 1.0) == pytest.approx(
            2 * math.exp(-1) / (1 - math.exp(-1)), rel=1e-13, abs=0
        )

    def test_finite_everywhere(self):
        p = KumIwParams(2, 1, 2)
        grid = np.concatenate([[1e-8, 1e-4], np.linspace(0.01, 50, 200), [1e6]])
        h = hazard(p, grid)
        assert np.all(np.isfinite(h)) and np.all(h >= 0)

    def test_zero_at_infinity_without_warning(self):
        # log-head and log1m_exp are both -inf at t = inf
        p = KumIwParams(2, 1.5, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_bits(hazard(p, np.inf), np.float64(0.0))
            np.testing.assert_array_equal(hazard(p, np.array([np.inf, 1e300])) == 0.0, [True, False])

    def test_vanishes_at_both_ends(self):
        for p in (KumIwParams(2, 1, 2), KumIwParams(1, 1, 3), KumIwParams(0.8, 2, 1.5)):
            mode_region = float(hazard(p, float(quantile(p, 0.4))))
            assert float(hazard(p, 1e-3 * p.c)) < mode_region
            assert float(hazard(p, 1e3 * p.c)) < mode_region

    # d log h / d log t = beta (x e^x / (e^x - 1) - 1) - 1 with x = (c/t)^beta;
    # x e^x / (e^x - 1) rises from 1 as x rises, so the slope changes sign
    # once, at a mode below 1.22 c: the hazard rises to one mode and falls, or
    # on a grid that starts past the mode it only falls.  On log-uniform
    # triples of this range (3000 at 20 001 and at 200 001 points, 20 000 at
    # 2001 points; the 20 001-point set also with numpy's AVX2 and SSE loops)
    # no difference of log h ever rose after one fell, so the 4-ulp allowance
    # for rounding on a flat stretch is margin, not a fit to what passes
    SHAPE_GRID = np.logspace(-3.0, 4.0, 20_001)
    SHAPE_ULPS = 4

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(math.log(0.05), math.log(50.0)).map(math.exp),
        st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
        st.floats(math.log(0.1), math.log(30.0)).map(math.exp),
    )
    def test_decreasing_or_unimodal(self, b, c, beta):
        h = hazard(KumIwParams(b, c, beta), self.SHAPE_GRID)
        log_h = np.log(h[h > 0])  # h underflows to 0 far below c, and log(0) warns
        scale = np.maximum(1.0, np.maximum(np.abs(log_h[:-1]), np.abs(log_h[1:])))
        diff = np.diff(log_h)
        signs = np.sign(diff)[np.abs(diff) > self.SHAPE_ULPS * np.finfo(float).eps * scale]
        # rising, then falling, and falling at the end of the grid, past the mode
        assert signs.size and signs[-1] == -1.0
        assert np.all(np.diff(signs) <= 0.0)


def assert_matches_mpmath(triple, times, rtol):
    """The five evaluators at each of times, as a scalar and in an array,
    within rtol[name] of mpmath at 60 digits, or within two steps of the
    subnormal grid where the value is below the normal range."""
    mpmath = pytest.importorskip("mpmath")
    p = KumIwParams(*triple)
    for t in times:
        with mpmath.workdps(60):
            b, c, beta = map(mpmath.mpf, triple)
            x = (c / mpmath.mpf(t)) ** beta
            log_om = mpmath.log(-mpmath.expm1(-x))  # log(1 - e^-x)
            log_s = b * log_om
            log_f = (mpmath.log(beta * b) + beta * mpmath.log(c) - (beta + 1) * mpmath.log(t)
                     - x + (b - 1) * log_om)
            want = {"pdf": mpmath.exp(log_f), "cdf": -mpmath.expm1(log_s),
                    "survival": mpmath.exp(log_s), "hazard": mpmath.exp(log_f - log_s),
                    "log_pdf": log_f}
        for f in PLAIN:
            expected = float(want[f.__name__])
            for got in (f(p, t), f(p, np.array([1.0, *times]))[1 + times.index(t)]):
                assert got == pytest.approx(expected, rel=rtol[f.__name__], abs=1e-323), (f.__name__, t)


class TestOverflowingRatio:
    # c/t overflows for t < c/1.8e308, where the evaluators read pdf = 0 and
    # log_pdf = -inf, though for beta << 1 x = (c/t)^beta is moderate: 41.355
    # at (2, 1, 0.005) and t = 5e-324.  exp amplifies log_pdf's rounding
    # (|log_pdf| ~ 700) in pdf and hazard, and x's in cdf
    RTOL = {"pdf": 1e-12, "cdf": 1e-13, "survival": 1e-15, "hazard": 1e-12, "log_pdf": 1e-15}

    @pytest.mark.parametrize("triple", [(2.0, 1.0, 0.005), (0.5, 2.0, 0.003)])
    def test_against_mpmath(self, triple):
        assert_matches_mpmath(triple, (5e-324, 1e-320, 1e-312), self.RTOL)


class TestSubnormalRatio:
    # c/t is subnormal for t > c/2.2e-308, or 0, where (c/t)^beta lost
    # digits, though for beta << 1 x is a normal float: survival read
    # 3.4645003e-07 for 3.4653275e-07 at (2, 1e-15, 0.01) and t = 1e308.
    # exp amplifies the rounding of log x (|log x| up to 15 here) in x, and
    # pdf and hazard fall below the normal range at the largest t
    RTOL = {"pdf": 1e-12, "cdf": 1e-13, "survival": 1e-14, "hazard": 1e-12, "log_pdf": 1e-15}

    @pytest.mark.parametrize("triple", [(2.0, 1e-15, 0.01), (0.5, 1e-10, 0.05), (2.0, 1e-300, 0.001)])
    def test_against_mpmath(self, triple):
        assert_matches_mpmath(triple, (1e300, 1e306, 1e308), self.RTOL)


_LOG_UNIFORM_PARAM = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


class TestEvaluatorProperties:
    """Parameters log-uniform on [1e-3, 1e3], times log-uniform on
    [1e-300, 1e300]: x = (c/t)^beta spans from overflow to underflow."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(_LOG_UNIFORM_PARAM, _LOG_UNIFORM_PARAM, _LOG_UNIFORM_PARAM),
        st.lists(st.floats(-300.0, 300.0).map(lambda e: 10.0**e), min_size=1, max_size=40),
    )
    @example((2.0, 1.5, 3.0), [1e120])  # x underflows to 0: hazard was inf
    def test_finite_monotone_and_complementary(self, triple, times):
        p = KumIwParams(*triple)
        t = np.sort(np.array(times))
        values = {f.__name__: f(p, t) for f in (pdf, log_pdf, cdf, survival, hazard)}
        for name, v in values.items():
            assert not np.any(np.isnan(v)), name
        assert np.all(np.isfinite(values["pdf"])) and np.all(np.isfinite(values["hazard"]))
        assert np.all(np.diff(values["cdf"]) >= 0)
        assert np.max(np.abs(values["cdf"] + values["survival"] - 1.0)) <= 4 * np.finfo(float).eps
        # far in the upper tail the hazard is b beta / t to first order in x
        with np.errstate(over="ignore", under="ignore"):
            far = (p.c / t) ** p.beta < 1e-12
        np.testing.assert_allclose(values["hazard"][far], p.b * p.beta / t[far], rtol=1e-6)


def assert_same_bits(got, want):
    """Equal as int64 views, so signed zeros and nan payloads count, and
    of the same type (a scalar stays np.float64)."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


PLAIN = {pdf: plain_pdf, log_pdf: plain_log_pdf, cdf: plain_cdf, survival: plain_survival,
         hazard: plain_hazard}


def assert_matches_plain(p, t=None, u=None):
    if t is not None:
        for f, plain in PLAIN.items():
            assert_same_bits(f(p, t), plain(p, t))
    if u is not None:
        assert_same_bits(quantile(p, u), plain_quantile(p, u))


@pytest.mark.dispatch
class TestMatchesPlainFormulas:
    """The guarded kernels change how numpy is driven, not the values: they
    match the plain np.where formulas of ``oracles`` bit for bit."""

    # the dist-measures workload's triple grid and point sets
    GRID = (
        (2.0, 1.5, 3.0), (3.0, 1.0, 4.0), (1.0, 2.0, 2.5), (4.0, 1.2, 3.5),
        (1.25, 0.8, 2.5), (1.3, 1.5, 3.0), (1.4, 1.0, 4.0), (1.1, 2.0, 5.0),
        (0.7, 1.0, 5.0), (0.5, 2.0, 6.0), (0.8, 1.5, 3.5), (0.6, 1.0, 3.0),
    )

    def test_dist_measures_grid(self):
        rng = np.random.default_rng(5)
        t = np.exp(rng.uniform(math.log(0.02), math.log(50.0), 50_000))
        u = np.clip(rng.random(50_000), 1e-12, 1.0 - 1e-12)
        for triple in self.GRID:
            assert_matches_plain(KumIwParams(*triple), t, u)

    def test_wide_times_and_the_underflow_bands(self):
        rng = np.random.default_rng(17)
        triples = list(self.GRID) + [tuple(10.0 ** rng.uniform(-3, 3, 3)) for _ in range(40)]
        t_wide = 10.0 ** rng.uniform(-300, 300, 5000)
        x_band = rng.uniform(700.0, 800.0, 2000)
        for triple in triples:
            p = KumIwParams(*triple)
            # x = (c/t)^beta across e^-x subnormal (708 < x < 745) and +0.0
            with np.errstate(over="ignore", under="ignore"):
                t_band = p.c * x_band ** (-1.0 / p.beta)
                t_band = t_band[(t_band > 0) & np.isfinite(t_band)]
                x = (p.c / t_band) ** p.beta
            if triple in self.GRID:
                assert np.any((x > 708) & (x < 745)) and np.any(x > 746)
            assert_matches_plain(p, np.concatenate([t_wide, t_band]))

    def test_quantile_tails(self):
        u = np.concatenate([10.0 ** np.linspace(-300, -1, 600), 1.0 - 10.0 ** np.linspace(-16, -1, 300),
                            [5e-324, 0.5]])
        rng = np.random.default_rng(23)
        for triple in list(self.GRID) + [tuple(10.0 ** rng.uniform(-3, 3, 3)) for _ in range(40)]:
            assert_matches_plain(KumIwParams(*triple), u=u)

    def test_overflowing_ratio(self):
        # c/t overflows at the three lowest times for every c here (c >= 0.8)
        t = np.array([5e-324, 1e-320, 1e-310, 2e-308, 0.5, 3.0])
        for triple in self.GRID + ((2.0, 1.0, 0.005), (0.5, 2.0, 0.003)):
            p = KumIwParams(*triple)
            assert_matches_plain(p, t)
            for point in t:
                assert_matches_plain(p, float(point))

    def test_subnormal_ratio(self):
        # c/t is subnormal or 0 at the two highest times for every triple,
        # and from 1e300 on for the last three
        t = np.array([0.5, 3.0, 1e300, 1e306, 1e308, 1.7e308])
        for triple in self.GRID + ((2.0, 1e-15, 0.01), (0.5, 1e-10, 0.05), (2.0, 1e-300, 0.001)):
            p = KumIwParams(*triple)
            assert_matches_plain(p, t)
            for point in t:
                assert_matches_plain(p, float(point))

    def test_continuous_extension_at_zero_and_inf(self):
        for triple in self.GRID:
            p = KumIwParams(*triple)
            for t in (0.0, np.inf, np.array([0.0, np.inf, 1.0])):
                assert_same_bits(cdf(p, t), plain_cdf(p, t))
                assert_same_bits(survival(p, t), plain_survival(p, t))

    @pytest.mark.parametrize("t", [1.3, np.float64(1e200), np.array(1e-5), np.array([]),
                                   np.array([[0.5, 1e-300], [2.0, 1e300]])])
    def test_scalars_zero_d_empty_and_two_d(self, t):
        for triple in ((2.0, 1.5, 3.0), (0.5, 2.0, 6.0), (1.0, 1.0, 1.0)):
            p = KumIwParams(*triple)
            u = np.clip(t, 0.1, 0.9) if np.size(t) else t
            assert_matches_plain(p, t, u)
            if np.ndim(t) == 0:
                assert all(type(f(p, t)) is np.float64 for f in PLAIN)
                assert type(quantile(p, u)) is np.float64

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(_LOG_UNIFORM_PARAM, _LOG_UNIFORM_PARAM, _LOG_UNIFORM_PARAM),
        st.lists(st.floats(-300.0, 300.0).map(lambda e: 10.0**e), min_size=1, max_size=40),
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=40),
    )
    def test_property(self, triple, times, probs):
        assert_matches_plain(KumIwParams(*triple), np.array(times), np.array(probs))


@pytest.mark.dispatch
def test_scalars_match_plain_formulas():
    # numpy's scalar ** (libm pow) and its array loops round apart for some
    # inputs; a scalar time or probability must keep the scalar one, as the
    # plain formulas do
    rng = np.random.default_rng(29)
    triples = list(TestMatchesPlainFormulas.GRID) + [tuple(10.0 ** rng.uniform(-3, 3, 3)) for _ in range(20)]
    times = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 40))
    probs = rng.uniform(0.0, 1.0, 40)
    for triple in triples:
        p = KumIwParams(*triple)
        for t in times:
            assert_matches_plain(p, float(t))
        for u in probs:
            assert_matches_plain(p, u=float(u))


P_SAFE = KumIwParams(0.7, 1.2, 1.5)
_RNG = np.random.default_rng(37)
# each public array function with a valid argument of 600 values
ARRAY_FUNCTIONS = {
    "pdf": (lambda a: pdf(P_SAFE, a), np.exp(_RNG.uniform(math.log(1e-3), math.log(1e3), 600))),
    "log_pdf": (lambda a: log_pdf(P_SAFE, a), np.exp(_RNG.uniform(math.log(1e-3), math.log(1e3), 600))),
    "cdf": (lambda a: cdf(P_SAFE, a), np.concatenate([[0.0, np.inf], 10.0 ** _RNG.uniform(-300, 300, 598)])),
    "survival": (lambda a: survival(P_SAFE, a), np.concatenate([[0.0, np.inf], 10.0 ** _RNG.uniform(-300, 300, 598)])),
    "hazard": (lambda a: hazard(P_SAFE, a), 10.0 ** _RNG.uniform(-300, 300, 600)),
    "quantile": (lambda a: quantile(P_SAFE, a), _RNG.uniform(1e-9, 1.0 - 1e-9, 600)),
    "log1m_exp": (log1m_exp, np.concatenate([[0.0, np.inf], 10.0 ** _RNG.uniform(-320, 308, 598)])),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(ARRAY_FUNCTIONS))
class TestArgumentSafety:
    """The evaluators compute in buffers of their own: they never write to
    their argument, and any float-convertible layout gives the same bits."""

    def test_argument_unchanged(self, name):
        f, values = ARRAY_FUNCTIONS[name]
        arg = values.copy()
        f(arg)
        assert arg.tobytes() == values.tobytes()
        base = np.tile(values, 2).reshape(40, 30)
        kept = base.copy()
        f(base[:, ::2])
        assert base.tobytes() == kept.tobytes()

    def test_read_only_argument(self, name):
        f, values = ARRAY_FUNCTIONS[name]
        arg = values.copy()
        arg.flags.writeable = False
        assert_same_bits(f(arg), f(values.copy()))

    def test_strided_and_fortran_layouts(self, name):
        f, values = ARRAY_FUNCTIONS[name]
        grid = values.reshape(20, 30)
        for arg in (grid[:, ::2], grid[::2, 1::3].T, np.asfortranarray(grid)):
            assert_same_bits(f(arg), f(np.ascontiguousarray(arg)))

    def test_int_array_and_list(self, name):
        f, values = ARRAY_FUNCTIONS[name]
        assert_same_bits(f(list(values)), f(values))
        narrow = np.linspace(0.01, 0.99, 99, dtype=np.float32)  # inside every domain
        assert_same_bits(f(narrow), f(narrow.astype(float)))
        if name != "quantile":  # no integer lies inside (0, 1)
            for ints in (np.arange(1, 600), np.arange(1, 600, dtype=np.uint16)):
                assert_same_bits(f(ints), f(ints.astype(float)))

    @pytest.mark.parametrize("bad", [
        "1", b"1", ["0.5", 0.5], [0.5, None], np.array(["0.5"]), np.array([0.5], dtype=object),
        True, [True, False],
    ], ids=["str", "bytes", "list-with-str", "list-with-None", "str-array", "object-array",
            "True", "bool-list"])
    def test_array_of_non_numbers_refused(self, name, bad):
        # numpy would read "1" and "0.5" as numbers, None as nan and True
        # as 1.0; an array argument takes numbers, as a scalar one does
        f, _ = ARRAY_FUNCTIONS[name]
        with pytest.raises(ValueError, match=r" must be numbers, got an array of dtype "):
            f(bad)

    def test_result_is_not_the_argument(self, name):
        f, values = ARRAY_FUNCTIONS[name]
        arg = values.copy()
        out = f(arg)
        assert not np.shares_memory(out, arg)
        out[...] = 7.0
        assert arg.tobytes() == values.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_result_is_fresh():
    p = KumIwParams(2.0, 1.5, 3.0)
    first = sample(p, 500, 11)
    kept = first.copy()
    first[...] = 7.0
    assert_same_bits(sample(p, np.int64(500), 11), kept)


def test_allocation_bound_on_the_workload_points():
    """Every evaluator and ``sample`` holds at most three n-length float64
    buffers, plus bool masks: a tracemalloc peak of at most 28 B per point
    on the dist-measures workload's 50 000 log-uniform points."""
    n = 50_000
    rng = np.random.default_rng(5)
    t = np.exp(rng.uniform(math.log(0.02), math.log(50.0), n))
    u = np.clip(rng.random(n), 1e-12, 1.0 - 1e-12)
    for triple in TestMatchesPlainFormulas.GRID:
        p = KumIwParams(*triple)
        calls = {f.__name__: (lambda f=f: f(p, t)) for f in PLAIN}
        calls["quantile"] = lambda: quantile(p, u)
        calls["sample"] = lambda: sample(p, n, 3)
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / n <= 28.0, (triple, name, peak / n)


class TestQuantile:
    def test_ie_median_closed_form(self):
        assert quantile(KumIwParams(1, 1, 1), 0.5) == pytest.approx(1 / math.log(2), rel=1e-13, abs=0)

    def test_formula_spot(self):
        b, c, beta, u = 3.0, 2.0, 1.5, 0.25
        expected = c * (-math.log(1 - (1 - u) ** (1 / b))) ** (-1 / beta)
        assert quantile(KumIwParams(b, c, beta), u) == pytest.approx(expected, rel=1e-12)

    def test_roundtrip_grid(self):
        p = KumIwParams(2.3, 0.8, 2.1)
        t = np.geomspace(0.1, 15.0, 60)
        np.testing.assert_allclose(quantile(p, cdf(p, t)), t, rtol=1e-9)

    def test_forward_roundtrip_tolerance(self):
        rng = np.random.default_rng(19)
        u = np.linspace(0.001, 0.999, 999)
        for _ in range(20):
            p = random_params(rng)
            err = np.max(np.abs(cdf(p, quantile(p, u)) - u))
            assert err <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            quantile(KumIwParams(1, 1, 1), bad)

    # at u = 0.9, inner = -log(1 - (1-u)^(1/b)) is 0 for b = 0.001 (a
    # division by zero in the power) and 1e-10 for b = 0.1, where
    # inner^(-1/beta) overflows at beta = 0.01
    @pytest.mark.parametrize("p", [KumIwParams(0.001, 1.0, 1.0), KumIwParams(0.1, 1.0, 0.01)])
    def test_inf_beyond_float_range_without_warning(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = quantile(p, np.array([0.1, 0.5, 0.9]))
            scalar = quantile(p, 0.9)
        np.testing.assert_array_equal(q == np.inf, [False, False, True])
        assert np.all(q[:2] > 1e36) and scalar == np.inf

    def test_subnormal_z_against_mpmath(self):
        # z = -log1p(-u)/b below the smallest normal float lost digits or
        # rounded to 0, where quantile((2, 1.5, 3), 5e-324) read 0.0
        mpmath = pytest.importorskip("mpmath")
        for u in (5e-324, 1e-323, 1e-320, 2.2250738585072014e-308):
            for b in (0.5, 2.0, 10.0):
                with mpmath.workdps(60):
                    z = -mpmath.log1p(-mpmath.mpf(u)) / b
                    want = float(1.5 * (-mpmath.log(-mpmath.expm1(-z))) ** (-mpmath.mpf(1) / 3))
                p = KumIwParams(b, 1.5, 3.0)
                for got in (quantile(p, u), quantile(p, np.array([u, 0.5]))[0]):
                    assert got == pytest.approx(want, rel=1e-15, abs=0), (u, b)


class TestSample:
    def test_empty(self):
        assert sample(KumIwParams(1, 1, 1), 0, 1).shape == (0,)

    def test_deterministic(self):
        p = KumIwParams(2, 1.5, 2)
        np.testing.assert_array_equal(sample(p, 100, 7), sample(p, 100, 7))
        assert not np.array_equal(sample(p, 100, 7), sample(p, 100, 8))

    def test_kolmogorov_smirnov(self):
        # 1% critical value 1.63/sqrt(n)
        p = KumIwParams(2, 1.5, 2)
        n = 100_000
        draws = np.sort(sample(p, n, 123))
        f_hat = np.arange(1, n + 1) / n
        f_model = np.asarray(cdf(p, draws))
        d_stat = max(
            np.max(np.abs(f_hat - f_model)),
            np.max(np.abs(f_hat - 1.0 / n - f_model)),
        )
        assert d_stat < 1.63 / math.sqrt(n)

    def test_mean_matches_series_moment(self):
        from kumiw import moment

        p = KumIwParams(2, 1.5, 2)
        draws = sample(p, 100_000, 99)
        assert np.mean(draws) == pytest.approx(moment(p, 1), rel=0.02)

    def test_draw_beyond_float_range_is_a_numeric_error(self):
        # seed 1 draws 3 of 5 variates past the float range at b = 0.001
        with pytest.raises(NumericError, match="3 of 5 draws"):
            sample(KumIwParams(0.001, 1.0, 1.0), 5, 1)

    @pytest.mark.parametrize("n, seed", [(2.0, 3.0), (np.int64(2), 3), (2, np.uint8(3))])
    def test_integral_counts_are_the_ints(self, n, seed):
        assert_same_bits(sample(P_SAFE, n, seed), sample(P_SAFE, 2, 3))

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -1, "7", True, None])
    @pytest.mark.parametrize("name", ["n", "seed"])
    def test_count_rule(self, name, bad):
        what = {"n": "sample size", "seed": "seed"}[name]
        with pytest.raises(ValueError, match=f"^{what} must be a non-negative integer, got {bad}$"):
            sample(P_SAFE, **{"n": 2, "seed": 3, name: bad})


def pdf_at_params(p, **params):
    # KumIwParams' own arguments: the density at t = 1 of p with them replaced
    return pdf(dataclasses.replace(p, **params), 1.0)


# ROADMAP item 10 (tests/sweep.py): every scalar argument of
# KumIwParams, the evaluators, the quantile and sample, one at a time from
# a valid point at (2, 1.5, 3).  Each call returns values without nan,
# finite but where log_pdf reads -inf for a density that underflows, or
# raises ValueError or NumericError, and never warns.
_SWEEP = (
    (pdf_at_params, {"b": 2.0, "c": 1.5, "beta": 3.0}, set()),
    *((f, {"t": 1.0}, set()) for f in PLAIN),
    (quantile, {"u": 0.5}, set()),
    (sample, {"n": 3, "seed": 1}, {"n", "seed"}),
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, kwargs", sweep_cases(_SWEEP))
def test_scalar_argument_contract(fn, kwargs):
    try:
        value = fn(KumIwParams(2, 1.5, 3), **kwargs)
    except (ValueError, NumericError):
        return
    assert np.all(np.isfinite(value) | ((value == -np.inf) & (fn is log_pdf)))


class TestSubModels:
    def test_ie(self):
        p = make_submodel(SubModel.IE, c=2.0)
        assert (p.b, p.c, p.beta) == (1.0, 2.0, 1.0)

    def test_ir(self):
        p = make_submodel(SubModel.IR, c=3.0)
        assert (p.b, p.c, p.beta) == (1.0, 3.0, 2.0)

    def test_kum_ir(self):
        p = make_submodel(SubModel.KUM_IR, b=4.0, c=0.7)
        assert (p.b, p.c, p.beta) == (4.0, 0.7, 2.0)

    def test_rejects_pinned_overrides(self):
        with pytest.raises(ValueError):
            make_submodel(SubModel.IE, c=2.0, beta=3.0)
        with pytest.raises(ValueError):
            make_submodel(SubModel.KUM_IW, b=1.0)  # missing c, beta

    def test_reduction_formulas_on_grids(self):
        # b = 1: inverse Weibull
        alpha, beta = 1.7, 2.4
        p = KumIwParams(1.0, alpha, beta)
        grid = np.array([float(quantile(p, u)) for u in np.linspace(0.02, 0.98, 50)])
        np.testing.assert_allclose(pdf(p, grid), iw_pdf(alpha, beta, grid), rtol=1e-13)
        # beta = 2, b = 1: inverse Rayleigh
        p = make_submodel(SubModel.IR, c=1.3)
        grid = np.array([float(quantile(p, u)) for u in np.linspace(0.02, 0.98, 50)])
        np.testing.assert_allclose(pdf(p, grid), ir_pdf(1.3, grid), rtol=1e-13)
        # beta = 1, b = 1: inverse exponential
        p = make_submodel(SubModel.IE, c=0.9)
        grid = np.array([float(quantile(p, u)) for u in np.linspace(0.02, 0.98, 50)])
        np.testing.assert_allclose(pdf(p, grid), ie_pdf(0.9, grid), rtol=1e-13)

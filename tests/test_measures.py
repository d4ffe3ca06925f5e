import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from kumiw import (
    KumIwParams,
    MomentNotDefinedError,
    SeriesConfig,
    bonferroni,
    expanded_pdf,
    lorenz,
    mean_deviation_about_mean,
    mean_deviation_about_median,
    mgf_truncated,
    moment,
    order_stat_moment,
    order_stat_pdf,
    pdf,
    quantile,
    renyi_entropy,
    shannon_entropy,
)
from kumiw import measures
from kumiw.errors import NumericError
from kumiw.measures import (
    cgf_truncated,
    moment_exists,
    order_stat_moment_series,
    renyi_entropy_series,
    upper_incomplete_gamma,
)
from oracles import (
    quad_mean_deviation,
    quad_moment,
    quad_order_stat_moment,
    quad_partial_first_moment,
    quad_renyi_entropy,
    quad_shannon_entropy,
    quad_t_integral,
    quad_upper_incomplete_gamma,
    random_params,
)
from sweep import sweep_cases

SQRT_PI = math.sqrt(math.pi)

# the fractional-b triples of the dist-measures benchmark workload
FRACTIONAL_B = (
    (1.25, 0.8, 2.5), (1.3, 1.5, 3.0), (1.4, 1.0, 4.0), (1.1, 2.0, 5.0),
    (0.7, 1.0, 5.0), (0.5, 2.0, 6.0), (0.8, 1.5, 3.5), (0.6, 1.0, 3.0),
)
# the whole dist-measures grid
BENCH_GRID = ((2.0, 1.5, 3.0), (3.0, 1.0, 4.0), (1.0, 2.0, 2.5), (4.0, 1.2, 3.5)) + FRACTIONAL_B


@pytest.mark.parametrize("a", [0.01, 1 / 3, 2 / 3, 0.99])
def test_upper_incomplete_gamma_vs_quadrature(a):
    xs = np.array([0.0, 1e-8, 1e-4, 0.01, 0.5, 1.0, 3.0, 10.0, 50.0, 200.0, 700.0])
    expected = [quad_upper_incomplete_gamma(a, x) for x in xs]
    assert upper_incomplete_gamma(a, xs) == pytest.approx(expected, rel=1e-10, abs=0.0)


class TestSeriesConfig:
    def test_defaults(self):
        cfg = SeriesConfig()
        assert cfg.tol == 1e-12 and cfg.max_terms == 10_000

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": 0.0}, {"max_terms": 0}, {"max_terms": math.nan}, {"max_terms": math.inf},
         {"max_terms": 2.5}, {"tol": math.inf}, {"tol": "1"}, {"tol": None}, {"tol": True},
         {"max_terms": "7"}, {"max_terms": True}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SeriesConfig(**kwargs)


class TestMoment:
    def test_iw_closed_forms(self):
        # at b = 1 only the leading weight survives: E[T^k] = c^k Gamma(1 - k/beta)
        assert moment(KumIwParams(1, 1, 2), 1) == pytest.approx(SQRT_PI, rel=1e-12)
        assert moment(KumIwParams(1, 2, 4), 2) == pytest.approx(4 * SQRT_PI, rel=1e-12)

    def test_against_quadrature(self):
        assert moment(KumIwParams(2.5, 1, 3), 1) == pytest.approx(
            quad_moment(KumIwParams(2.5, 1, 3), 1), rel=1e-9
        )

    def test_slow_series_accelerated(self):
        # b < 1 makes the weights decay polynomially; the EM tail must hold
        for p in (KumIwParams(0.5, 1, 2.5), KumIwParams(0.5, 3, 4), KumIwParams(1.2, 1, 1.5)):
            assert moment(p, 1) == pytest.approx(quad_moment(p, 1), rel=1e-9)

    def test_grid_vs_quadrature(self):
        for b in (0.5, 1.0, 2.0, 4.0):
            for c in (0.5, 1.0, 3.0):
                for beta in (1.5, 2.5, 4.0):
                    p = KumIwParams(b, c, beta)
                    for k in (1, 2):
                        if k >= beta or not moment_exists(p, k):
                            continue
                        assert moment(p, k) == pytest.approx(quad_moment(p, k), rel=1e-5)

    def test_nonexistent_moment_rejected(self):
        with pytest.raises(MomentNotDefinedError):
            moment(KumIwParams(2, 1, 2), 2)  # k >= beta
        with pytest.raises(MomentNotDefinedError):
            moment(KumIwParams(0.5, 1, 1.5), 1)  # heavy tail: b*beta = 0.75
        with pytest.raises(ValueError):
            moment(KumIwParams(1, 1, 3), 0)

    def test_moment_exists_gate(self):
        assert moment_exists(KumIwParams(2, 1, 2), 3)
        assert not moment_exists(KumIwParams(0.5, 1, 1.5), 1)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, "1", None, True])
    def test_moment_exists_non_finite_order(self, k):
        # -inf compared below every tail index (True) and nan above none (False)
        with pytest.raises(ValueError, match="moment order must be finite"):
            moment_exists(KumIwParams(2, 1.5, 3), k)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        moment,
        partial(order_stat_moment, r=1, n=3),
        partial(order_stat_moment_series, r=1, n=3),
    ], ids=["moment", "order_stat_moment", "order_stat_moment_series"])
    def test_non_finite_order(self, call, k):
        # int() of nan or inf raised its own ValueError or OverflowError
        with pytest.raises(ValueError, match="moment order must be a positive integer"):
            call(KumIwParams(2, 1.5, 3), k=k)

    def test_non_convergence_reports_partial_sum(self):
        with pytest.raises(NumericError):
            moment(KumIwParams(2.5, 1.0, 3.0), 1, SeriesConfig(tol=1e-30, max_terms=4))

    def test_jensen_inequality(self):
        for p in (KumIwParams(2, 1, 3), KumIwParams(0.9, 2, 4), KumIwParams(4, 0.5, 2.5)):
            if p.beta > 2 and moment_exists(p, 2):
                assert moment(p, 2) >= moment(p, 1) ** 2


def _near_tail_index_cases():
    # b within 3 ulps of k/beta, so that b*beta rounds to either side of k
    yield KumIwParams(0.9107134307341432, 1.0, 3.2941207395850567), 3
    for beta in (1.7, 2.3, 3.2941207395850567, 4.9, 7.3):
        for k in range(1, math.ceil(beta)):
            b = k / beta
            for _ in range(3):
                b = np.nextafter(b, 0.0)
            for _ in range(7):
                yield KumIwParams(float(b), 1.0, beta), k
                b = np.nextafter(b, np.inf)


def _moment_outcome(p, k):
    try:
        moment(p, k)
    except MomentNotDefinedError:
        return "refused"
    except NumericError:
        return "diverged"  # the moment exists, but ulps from its tail index the series breaks down
    return "value"


class TestMomentExistenceRule:
    def test_moment_refuses_exactly_what_moment_exists_rejects(self):
        for p, k in _near_tail_index_cases():
            outcome = _moment_outcome(p, k)
            assert (outcome == "refused") == (not moment_exists(p, k)), (p, k)
            if outcome != "diverged":
                res = mgf_truncated(p, 0.5, k)
                assert res.excluded_terms == (outcome == "refused"), (p, k)
            if outcome == "refused":
                assert res.value == mgf_truncated(p, 0.5, k - 1).value


class TestMgf:
    def test_z_zero(self):
        res = mgf_truncated(KumIwParams(2, 1, 3), 0.0, 5)
        assert res.value == 1.0

    def test_two_term_truncation(self):
        p = KumIwParams(2, 1, 3)
        res = mgf_truncated(p, 0.4, 1)
        assert res.value == pytest.approx(1 + 0.4 * moment(p, 1), rel=1e-12)
        assert res.excluded_terms == 0 and not res.warning

    def test_composition_of_moments(self):
        p = KumIwParams(1, 1, 4)
        z, n = 0.5, 3
        expected = 1 + sum(z**k * quad_moment(p, k) / math.factorial(k) for k in (1, 2, 3))
        res = mgf_truncated(p, z, n)
        assert res.value == pytest.approx(expected, rel=1e-6)

    def test_beta_at_most_one_warns(self):
        res = mgf_truncated(KumIwParams(2, 1, 0.8), 0.3, 4)
        assert res.value == 1.0 and res.warning and res.excluded_terms == 4

    def test_excluded_count(self):
        # beta = 2.5 admits k in {1, 2} only
        res = mgf_truncated(KumIwParams(2, 1, 2.5), 0.2, 5)
        assert res.excluded_terms == 3 and not res.warning

    def test_invalid_z(self):
        with pytest.raises(ValueError):
            mgf_truncated(KumIwParams(1, 1, 2), 1.0, 3)

    @pytest.mark.parametrize("z", ["1", None, True])
    @pytest.mark.parametrize("fn", [mgf_truncated, cgf_truncated])
    def test_z_must_be_a_number(self, fn, z):
        with pytest.raises(ValueError, match=rf"^mgf_truncated requires \|z\| < 1, got {z}$"):
            fn(KumIwParams(1, 1, 2), z, 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_integral_float_and_huge_n_terms(self):
        # an integral float counts as its int; moment refuses every order from
        # k = 3 >= beta on, so a huge n_terms excludes all but two orders
        p = KumIwParams(2, 1.5, 3)
        assert mgf_truncated(p, 0.5, 2.0) == mgf_truncated(p, 0.5, 2)
        huge = mgf_truncated(p, 0.5, int(1e308))
        assert huge.value == mgf_truncated(p, 0.5, 2).value
        assert huge.excluded_terms == int(1e308) - 2 and not huge.warning
        assert cgf_truncated(p, 0.5, 10**6).value == cgf_truncated(p, 0.5, 2).value

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_terms", [2.5, math.nan, math.inf, -1])
    @pytest.mark.parametrize("fn", [mgf_truncated, cgf_truncated])
    def test_n_terms_not_a_non_negative_integer(self, fn, n_terms):
        with pytest.raises(ValueError, match="n_terms must be a non-negative integer"):
            fn(KumIwParams(2, 1.5, 3), 0.5, n_terms)

    def test_cgf_is_log_mgf(self):
        p = KumIwParams(2, 1, 3)
        m = mgf_truncated(p, 0.3, 2)
        k = cgf_truncated(p, 0.3, 2)
        assert k.value == pytest.approx(math.log(m.value), rel=1e-14, abs=0)


class TestMeanDeviations:
    @pytest.mark.parametrize("p", [KumIwParams(1, 1, 3), KumIwParams(2, 1.5, 3), KumIwParams(3, 2, 1.8)])
    def test_series_vs_quadrature(self, p):
        mu = quad_moment(p, 1)
        med = float(quantile(p, 0.5))
        assert mean_deviation_about_mean(p) == pytest.approx(quad_mean_deviation(p, mu), rel=1e-5)
        assert mean_deviation_about_median(p) == pytest.approx(quad_mean_deviation(p, med), rel=1e-5)

    def test_slow_shape_accelerated(self):
        p = KumIwParams(0.5, 1, 2.5)
        mu = quad_moment(p, 1)
        assert mean_deviation_about_mean(p) == pytest.approx(quad_mean_deviation(p, mu), rel=1e-5)

    def test_ordering_and_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_params(rng, b_range=(0.8, 5.0), beta_range=(1.4, 5.0))
            d1 = mean_deviation_about_mean(p)
            d2 = mean_deviation_about_median(p)
            assert d1 >= 0 and d2 >= 0 and d2 <= d1 + 1e-12

    def test_no_mean_rejected(self):
        with pytest.raises(MomentNotDefinedError):
            mean_deviation_about_mean(KumIwParams(2, 1, 0.9))
        with pytest.raises(MomentNotDefinedError):
            mean_deviation_about_median(KumIwParams(0.5, 1, 1.5))


class TestBonferroniLorenz:
    def test_lorenz_is_p_times_bonferroni(self):
        p = KumIwParams(2, 1, 3)
        rng = np.random.default_rng(17)
        for prob in rng.uniform(0.05, 0.95, 10):
            prob = float(prob)
            assert lorenz(p, prob) == pytest.approx(prob * bonferroni(p, prob), rel=1e-13, abs=0)

    def test_bonferroni_vs_quadrature(self):
        p = KumIwParams(1, 1, 3)
        q = float(quantile(p, 0.5))
        expected = quad_partial_first_moment(p, q) / (0.5 * quad_moment(p, 1))
        assert bonferroni(p, 0.5) == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("prob", [0.9, 0.99, 0.999, 0.9999])
    @pytest.mark.parametrize("triple", FRACTIONAL_B)
    def test_upper_probabilities_fractional_b(self, triple, prob):
        # the incomplete-gamma cut-off lies far past direct summation here
        p = KumIwParams(*triple)
        q = float(quantile(p, prob))
        expected = quad_partial_first_moment(p, q) / (prob * quad_moment(p, 1))
        assert bonferroni(p, prob) == pytest.approx(expected, rel=1e-8)
        assert lorenz(p, prob) == pytest.approx(prob * bonferroni(p, prob), rel=1e-13, abs=0)

    def test_mean_series_summed_once(self, monkeypatch):
        calls = []
        real_series = measures._weight_series

        def counting_series(*args, **kwargs):
            calls.append(args)
            return real_series(*args, **kwargs)

        monkeypatch.setattr(measures, "_weight_series", counting_series)
        measures._mean.cache_clear()
        p = KumIwParams(1.3, 1.5, 3)
        mean_deviation_about_mean(p)
        mean_deviation_about_median(p)
        for prob in (0.25, 0.5, 0.75):
            bonferroni(p, prob)
            lorenz(p, prob)
        assert len(calls) == 1
        # the shared mean is the moment series' value, bit for bit
        q = float(quantile(p, 0.5))
        fresh = measures._partial_first_moment_series(p, q, measures.DEFAULT_SERIES) / moment(p, 1)
        assert lorenz(p, 0.5) == fresh

    def test_lorenz_boundary(self):
        assert lorenz(KumIwParams(2, 1, 3), 0.999) == pytest.approx(1.0, abs=1e-2)

    def test_lorenz_below_diagonal_convex_increasing(self):
        p = KumIwParams(2, 1.5, 2.5)
        probs = np.linspace(0.05, 0.95, 19)
        vals = np.array([lorenz(p, float(u)) for u in probs])
        assert np.all(vals <= probs + 1e-12)
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) > -1e-9)  # convexity

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fn", [bonferroni, lorenz])
    def test_quantile_rounding_to_zero_names_prob(self, fn):
        # Q(5e-324) is about 0.11 c, below the float range at c = 5e-324,
        # and the partial moment divides by it
        with pytest.raises(NumericError, match=re.escape("the quantile at prob=5e-324 rounds to 0")):
            fn(KumIwParams(2, 5e-324, 3), 5e-324)

    @pytest.mark.parametrize("prob", [0.0, 1.0, math.nan, "1", None, True])
    @pytest.mark.parametrize("fn", [bonferroni, lorenz])
    def test_prob_must_be_in_the_unit_interval(self, fn, prob):
        with pytest.raises(ValueError, match=rf"^{fn.__name__}: prob must be in \(0, 1\), got {prob}$"):
            fn(KumIwParams(2, 1.5, 3), prob)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_partial_moment_underflowing_to_zero(self):
        # at (2, 1.5, 3), Q(5e-324) is 0.165, but the integral of t f below it
        # rounds to 0: Bonferroni's ratio is lost, and Lorenz's value is 0
        p = KumIwParams(2, 1.5, 3)
        with pytest.raises(NumericError, match=re.escape("the partial moment at prob=5e-324 underflows to 0")):
            bonferroni(p, 5e-324)
        assert lorenz(p, 5e-324) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            bonferroni(KumIwParams(2, 1, 3), 0.0)
        with pytest.raises(MomentNotDefinedError):
            lorenz(KumIwParams(2, 1, 0.9), 0.5)


class TestOrderStatistics:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, "1", None, True])
    @pytest.mark.parametrize("fn", [order_stat_moment, order_stat_moment_series])
    def test_non_finite_rank_and_size(self, fn, bad):
        p = KumIwParams(2, 1.5, 3)
        with pytest.raises(ValueError, match="rank must satisfy"):
            fn(p, bad, 3, 1)
        with pytest.raises(ValueError, match="sample size must be a positive integer"):
            fn(p, 1, bad, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_integral_float_rank_and_size(self):
        # math.comb and range take ints: the float 5.0 raised TypeError
        p = KumIwParams(2, 1.5, 3)
        assert order_stat_pdf(p, 2, 5.0, 1.0) == order_stat_pdf(p, 2, 5, 1.0)
        assert order_stat_moment(p, 2.0, 5, 1) == order_stat_moment(p, 2, 5, 1)
        assert order_stat_moment_series(p, 2, 5.0, 1) == order_stat_moment_series(p, 2, 5, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("call, match", [
        (partial(order_stat_moment, r=1, n=int(1e308)),
         re.escape("b (n - r + 1) exceeds the float range")),
        (partial(order_stat_moment, r=2, n=int(1e308)), "coefficient r C"),
        (partial(order_stat_pdf, r=2, n=int(1e308), t=1.0), "coefficient r C"),
        (partial(order_stat_moment_series, r=1, n=10**6), "terms exceed the float range"),
        (partial(order_stat_moment_series, r=1, n=int(1e308)), "shape inf exceeds the float range"),
    ], ids=["moment-power", "moment-coefficient", "pdf-coefficient", "series-weights", "series-shape"])
    def test_huge_sample_size_names_the_cause(self, call, match):
        # b (n - r + 1) * log(1 - e^-x) was inf * 0 = nan, float(r C(n, r))
        # overflowed, and the series' weights overflowed to nan partial sums
        kwargs = {} if call.func is order_stat_pdf else {"k": 1}
        with pytest.raises(NumericError, match=match):
            call(KumIwParams(2, 1.5, 3), **kwargs)

    def test_single_observation(self):
        p = KumIwParams(2, 1, 2)
        t = 1.3
        assert order_stat_pdf(p, 1, 1, t) == pytest.approx(float(pdf(p, t)), rel=1e-14, abs=0)

    def test_maximum_form(self):
        from kumiw import cdf

        p = KumIwParams(2, 1, 2)
        t, n = 0.9, 4
        expected = n * float(cdf(p, t)) ** (n - 1) * float(pdf(p, t))
        assert order_stat_pdf(p, n, n, t) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_integrates_to_one(self):
        p = KumIwParams(2, 1, 2)
        total = quad_t_integral(lambda t: float(order_stat_pdf(p, 2, 5, t)))
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_rank_sum_identity(self):
        p = KumIwParams(1.7, 1.2, 2.3)
        n = 5
        for t in (0.4, 1.0, 2.5):
            total = sum(float(order_stat_pdf(p, r, n, t)) for r in range(1, n + 1)) / n
            assert total == pytest.approx(float(pdf(p, t)), rel=1e-8)

    def test_rank_validation(self):
        p = KumIwParams(1, 1, 2)
        with pytest.raises(ValueError):
            order_stat_pdf(p, 0, 3, 1.0)
        with pytest.raises(ValueError):
            order_stat_pdf(p, 4, 3, 1.0)

    def test_moment_reduces_to_ordinary(self):
        p = KumIwParams(2, 1, 3)
        assert order_stat_moment(p, 1, 1, 1) == pytest.approx(moment(p, 1), rel=1e-8)

    def test_moment_sum_identity(self):
        p = KumIwParams(2, 1, 3)
        total = order_stat_moment(p, 1, 2, 1) + order_stat_moment(p, 2, 2, 1)
        assert total == pytest.approx(2 * moment(p, 1), rel=1e-8)

    def test_moment_vs_direct_quadrature(self):
        p = KumIwParams(2, 1, 3)
        expected = quad_t_integral(lambda t: t * float(order_stat_pdf(p, 3, 4, t)))
        assert order_stat_moment(p, 3, 4, 1) == pytest.approx(expected, rel=1e-8)

    def test_series_cross_check(self):
        p = KumIwParams(2, 1, 3)
        for (r, n, k) in [(3, 4, 1), (2, 5, 1), (1, 2, 1), (2, 2, 2)]:
            assert order_stat_moment_series(p, r, n, k) == pytest.approx(
                order_stat_moment(p, r, n, k), rel=1e-8
            )
        p_slow = KumIwParams(0.5, 1, 4)
        assert order_stat_moment_series(p_slow, 2, 3, 1) == pytest.approx(
            order_stat_moment(p_slow, 2, 3, 1), rel=1e-8
        )

    def test_moment_existence_gates(self):
        # k = beta = 2 has no series form, but the moment exists (tail index 8)
        p = KumIwParams(2, 1, 2)
        expected = quad_t_integral(lambda t: t**2 * float(order_stat_pdf(p, 1, 2, t)))
        assert order_stat_moment(p, 1, 2, 2, SeriesConfig()) == pytest.approx(expected, rel=1e-9)
        with pytest.raises(MomentNotDefinedError):
            order_stat_moment_series(p, 1, 2, 2)
        with pytest.raises(MomentNotDefinedError):
            order_stat_moment(KumIwParams(0.4, 1, 2), 2, 2, 1)  # tail index 0.8


class TestEntropies:
    def test_ie_closed_form(self):
        assert shannon_entropy(KumIwParams(1, 1, 1)) == pytest.approx(
            1 + 2 * np.euler_gamma, abs=1e-7
        )

    def test_scale_law(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            b = float(np.exp(rng.uniform(np.log(0.5), np.log(4))))
            beta = float(np.exp(rng.uniform(np.log(0.9), np.log(4))))
            c = float(np.exp(rng.uniform(np.log(0.3), np.log(6))))
            gap = shannon_entropy(KumIwParams(b, c, beta)) - shannon_entropy(KumIwParams(b, 1.0, beta))
            assert gap == pytest.approx(math.log(c), abs=1e-7)

    def test_reproducible(self):
        p = KumIwParams(2, 1.5, 2)
        assert shannon_entropy(p) == pytest.approx(shannon_entropy(p), abs=1e-12)

    def test_entropy_against_direct_t_space(self):
        p = KumIwParams(2, 1.5, 2)
        def integrand(t):
            f = float(pdf(p, t))
            return -f * math.log(f) if f > 0 else 0.0
        assert shannon_entropy(p) == pytest.approx(quad_t_integral(integrand), abs=1e-8)

    def test_renyi_brackets_shannon(self):
        for p in (KumIwParams(2, 1.5, 2), KumIwParams(1, 1, 3), KumIwParams(0.8, 2, 1.6)):
            h = shannon_entropy(p)
            assert abs(renyi_entropy(p, 0.999) - h) <= 1e-2
            assert abs(renyi_entropy(p, 1.001) - h) <= 1e-2

    def test_renyi_monotone_in_order(self):
        p = KumIwParams(2, 1, 2)
        assert renyi_entropy(p, 0.5) >= renyi_entropy(p, 2.0) >= renyi_entropy(p, 5.0)

    def test_renyi_quadrature_value_stable(self):
        p = KumIwParams(2, 1, 2)
        assert renyi_entropy(p, 2.0) == pytest.approx(renyi_entropy(p, 2.0), abs=1e-12)

    def test_renyi_series_cross_check(self):
        for p, rho in ((KumIwParams(2, 1, 2), 2.0), (KumIwParams(2, 1.5, 2), 0.7), (KumIwParams(3, 0.8, 1.5), 1.4)):
            assert renyi_entropy_series(p, rho) == pytest.approx(renyi_entropy(p, rho), rel=1e-8)

    def test_renyi_domain(self):
        p = KumIwParams(2, 1, 2)
        with pytest.raises(ValueError):
            renyi_entropy(p, 1.0)
        with pytest.raises(ValueError):
            renyi_entropy(p, -0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, "1", None, True])
    @pytest.mark.parametrize("fn", [renyi_entropy, renyi_entropy_series])
    def test_renyi_non_finite_order(self, fn, rho):
        # nan compares false with everything, so a test of rho <= 0 lets it
        # through to the quadrature; inf would reach it too
        with pytest.raises(ValueError, match="requires a finite rho > 0 and rho != 1"):
            fn(KumIwParams(2, 1, 2), rho)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rho, match", [
        (200.0, "the weight series sums to"),
        (1e5, "terms exceed the float range"),
        (1e10, "terms exceed the float range"),
    ])
    def test_renyi_series_beyond_its_reach(self, rho, match):
        # the signed weights of shape rho (b - 1) + 1 cancel to at most 0 at
        # rho = 200 (math.log raised), and overflow at larger rho
        with pytest.raises(NumericError, match=match):
            renyi_entropy_series(KumIwParams(2, 1.5, 3), rho)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rho", [700.0, 1000.0, 1e300])
    def test_renyi_underflowing_integral(self, rho):
        # every term of f^rho underflows to 0, so the rule's checks hold on
        # a zero scale; at 1e300, rho x also overflows
        with pytest.raises(NumericError, match=re.escape(f"underflows to 0 at rho={rho},")):
            renyi_entropy(KumIwParams(2, 1.5, 3), rho)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("triple, rho", [((2, 1.5, 3), 1e307), ((2, 1.5, 3), 1e308),
                                             ((2, 1.5, 3), 1.7e308), ((0.5, 1, 0.3), 1e300)])
    def test_renyi_integrand_beyond_float_range_names_rho(self, triple, rho):
        # rho (1 + 1/beta) log x and rho x overflow on the same node, and
        # inf - inf is nan; at (0.5, 1, 0.3) f^rho itself overflows
        with pytest.raises(NumericError, match=re.escape(f"exceeds the float range at rho={rho},")):
            renyi_entropy(KumIwParams(*triple), rho)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_renyi_order_beyond_float_range_of_the_integrand(self):
        # rho (1 + 1/beta) log x overflows on both sides of a node: nan terms
        with pytest.raises(NumericError):
            renyi_entropy(KumIwParams(2, 1.5, 3), 1.7e308)


class TestExpandedPdf:
    def test_b_one_single_term(self):
        p = KumIwParams(1, 1, 2)
        assert expanded_pdf(p, 0.5) == pytest.approx(float(pdf(p, 0.5)), rel=1e-14, abs=0)

    def test_integer_b_terminates_exactly(self):
        p = KumIwParams(3, 1, 2)
        # three weights only; matches the closed form to rounding
        assert expanded_pdf(p, 1.3) == pytest.approx(float(pdf(p, 1.3)), rel=1e-13, abs=0)

    def test_fractional_b(self):
        p = KumIwParams(2.5, 1, 2)
        assert expanded_pdf(p, 0.8) == pytest.approx(float(pdf(p, 0.8)), rel=1e-8)

    @pytest.mark.parametrize("u", [0.99, 0.999, 0.9999])
    @pytest.mark.parametrize("triple", [(0.5, 1, 3), (0.7, 1, 5), (1.3, 1.5, 3)])
    def test_fractional_b_upper_tail(self, triple, u):
        # (c/t)^beta is small, so the terms decay only far past direct summation
        p = KumIwParams(*triple)
        t = float(quantile(p, u))
        assert expanded_pdf(p, t) == pytest.approx(float(pdf(p, t)), rel=1e-8, abs=0.0)

    def test_grid_match(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            p = random_params(rng, b_range=(0.4, 6.0))
            for u in (0.1, 0.5, 0.9):
                t = float(quantile(p, u))
                assert expanded_pdf(p, t) == pytest.approx(float(pdf(p, t)), rel=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            expanded_pdf(KumIwParams(1, 1, 1), 0.0)

    @pytest.mark.parametrize("t", ["1", None, True])
    def test_time_must_be_a_number(self, t):
        with pytest.raises(ValueError, match=f"^time must be > 0, got {t}$"):
            expanded_pdf(KumIwParams(1, 1, 1), t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [1e-100, 1e-120, 1e-300, 5e-324])
    def test_small_t_is_the_density(self, t):
        # t^-(beta+1) or (c/t)^beta overflowed as a Python float
        p = KumIwParams(2, 1.5, 3)
        assert expanded_pdf(p, t) == float(pdf(p, t))


# Run in a fresh interpreter, with scipy.special imported first when argv[2]
# says so: prints the public scipy subpackages loaded after `import kumiw`,
# after each CLI subcommand that needs no special function, and after the
# calls that do, then those calls' results as float.hex
_LAZY_SPECIAL_SCRIPT = """
import sys
if sys.argv[2] == "special-first":
    import scipy.special
import kumiw
from kumiw import KumIwParams, SubModel, cli, measures, mle, survdata

def loaded(step):
    names = {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
    print("loaded", step, sorted(n for n in names if not n.startswith("_") and n != "version"))

loaded("import")
print("own quad", measures.integrate.quad is measures._de_quad)
out, truth = sys.argv[1], ["--b", "2", "--c", "1.5", "--beta", "3"]
survdata.censoring_upper_bound(KumIwParams(2.0, 1.5, 3.0), 0.2)
sample = f"{out}/sample.csv"
for argv in (
    ["sample", *truth, "--n", "50", "--seed", "1", "--censor-rate", "0.2", "--out-dir", out],
    ["km", "--data", sample, "--out-dir", f"{out}/km"],
    ["compare", "--data", sample, *truth, "--out-dir", f"{out}/compare"],
    ["dist", *truth, "--points", "5", "--out-dir", f"{out}/dist"],
    ["fit-bayes", "--data", sample, "--iterations", "700", "--burn-in", "350", "--thin", "3",
     "--seed", "1", "--out-dir", f"{out}/bayes"],
):
    assert cli.main(argv) == 0, argv
    loaded(argv[0])
data = survdata.load_csv(sample)
fit = mle.fit_mle(data)
lr = mle.lr_test(data, SubModel.IW, fit)
curve = measures.bonferroni(KumIwParams(1.3, 1.5, 3.0), 0.25)
loaded("special")
values = [*fit.params.as_array(), fit.loglik, *(v for pair in fit.ci.values() for v in pair),
          lr.statistic, lr.p_value, curve]
print("values", " ".join(float(v).hex() for v in values))
"""


def test_import_loads_no_scipy_integrate_or_optimize(tmp_path):
    # `import kumiw` loads no scipy subpackage: the measures' quadrature is
    # the package's own double-exponential rule, the censoring calibration
    # its own Brent loop, and scipy.special loads on the first call that
    # needs it (fit_mle's Wald z, lr_test's p-value, the partial-moment
    # series), with the same results as when it was imported first
    env = {**os.environ, "PYTHONPATH": str(Path(measures.__file__).parents[1])}
    lines = {}
    for order in ("lazy", "special-first"):
        out_dir = tmp_path / order
        out_dir.mkdir()
        out = subprocess.run(
            [sys.executable, "-c", _LAZY_SPECIAL_SCRIPT, str(out_dir), order],
            env=env, capture_output=True, text=True, check=True,
        )
        # the CLI prints its own lines between the script's
        lines[order] = [line for line in out.stdout.splitlines()
                        if line.startswith(("loaded ", "own quad ", "values "))]
    assert lines["lazy"][:7] == [
        "loaded import []",
        "own quad True",
        *(f"loaded {step} []" for step in ("sample", "km", "compare", "dist", "fit-bayes")),
    ]
    assert lines["lazy"][7] == lines["special-first"][7] == "loaded special ['special']"
    assert lines["lazy"][8] == lines["special-first"][8]
    assert (tmp_path / "lazy" / "sample.csv").is_file()


def _de_calls(triples):
    """(name, measure, adaptive oracle), each a call without arguments, for
    the Shannon entropy, the Renyi entropy at rho in {0.5, 2, 5} and the
    order-statistic moments k in {1, 2} at (r, n) in {(1, 1), (2, 5), (5, 5),
    (3, 10)}, where each exists."""
    for triple in triples:
        p = KumIwParams(*triple)
        yield "shannon", partial(shannon_entropy, p), partial(quad_shannon_entropy, p)
        for rho in (0.5, 2.0, 5.0):
            if rho * (p.b + 1.0 / p.beta) > 1.0 / p.beta:
                yield "renyi", partial(renyi_entropy, p, rho), partial(quad_renyi_entropy, p, rho)
        for r, n in ((1, 1), (2, 5), (5, 5), (3, 10)):
            for k in (1, 2):
                if k < p.b * p.beta * (n - r + 1):
                    yield ("order_stat", partial(order_stat_moment, p, r, n, k),
                           partial(quad_order_stat_moment, p, r, n, k))


_LOG_UNIFORM_RNG = np.random.default_rng(19)
DE_FAMILIES = {
    "grid": BENCH_GRID,
    "log-uniform": tuple(
        random_params(_LOG_UNIFORM_RNG, (0.2, 20.0), (0.1, 10.0), (0.5, 20.0)).as_array().tolist()
        for _ in range(24)
    ),
    # x^(b-1) near 0 puts mass far below x = 1: about x_min^b below a node x_min
    "small-b": tuple((b, c, beta) for b in (0.05, 0.1, 0.2) for c in (0.5, 2.0) for beta in (1.0, 4.0)),
}
# Ten times the worst relative gap measured against the adaptive oracle: on
# the grid and small-b sets, and over 30 log-uniform samples of 24 (seeds
# 1-30), under default, AVX2 and baseline SIMD dispatch alike.  The larger
# gaps are the oracle's: where x^(a-1) is nearly flat at 0 (small b), a DE
# rule 4x finer over s in [-14, 5] agrees with the library to 2e-16.
DE_TOLERANCE = {
    "grid": {"shannon": 4e-12, "renyi": 4e-12, "order_stat": 4e-12},
    "log-uniform": {"shannon": 6e-12, "renyi": 9e-11, "order_stat": 1e-7},
    "small-b": {"shannon": 6e-10, "renyi": 4e-14, "order_stat": 2e-11},
}


@pytest.mark.dispatch
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDoubleExponentialRule:
    # the oracle says so where it misses its own 1e-12 (small b)
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("family", sorted(DE_FAMILIES))
    def test_against_adaptive_oracle(self, family):
        worst: dict[str, float] = {}
        for name, measure, oracle in _de_calls(DE_FAMILIES[family]):
            value, expected = measure(), oracle()
            worst[name] = max(worst.get(name, 0.0), abs(value - expected) / abs(expected))
        assert worst.keys() == DE_TOLERANCE[family].keys()
        for name, gap in worst.items():
            assert gap <= DE_TOLERANCE[family][name], (name, gap)

    def test_node_set_is_converged(self, monkeypatch):
        # a rule 4x finer on a wider s range moves no value by more than
        # 1e-12 relative (measured worst 8.2e-14 over the three families and
        # 30 log-uniform samples)
        calls = [measure for _, measure, _ in _de_calls(sum(DE_FAMILIES.values(), ()))]
        values = [measure() for measure in calls]
        monkeypatch.setattr(measures, "_EXP_SINH", measures._exp_sinh(-14.0, 5.0, 1.0 / 128.0))
        finer = [measure() for measure in calls]
        assert np.max(np.abs(np.subtract(values, finer)) / np.abs(finer)) <= 1e-12

    @pytest.mark.parametrize("case", ["truncated", "unresolved"])
    def test_unresolved_integrand_raises(self, case):
        if case == "truncated":
            # the integrand is x^(a-1) near 0 with a = 1e-5: most of its mass
            # lies below the first node
            p = KumIwParams(0.5, 1.0, 2.0)
            with pytest.raises(NumericError, match="double-exponential"):
                renyi_entropy(p, (1.0 / p.beta + 1e-5) / (p.b + 1.0 / p.beta))
        else:
            # cos(200 x) e^-x oscillates faster than the node spacing
            def terms(nodes):
                return np.cos(200.0 * nodes.x) * np.exp(nodes.log_w - nodes.x)

            with pytest.raises(NumericError, match="double-exponential"):
                measures.integrate.quad(terms, measures._EXP_SINH)


def _moment_with_config(p, tol=1e-12, max_terms=10_000):
    # the series' own settings, through a fractional shape's Euler-Maclaurin tail
    return moment(KumIwParams(1.3, p.c, p.beta), 1, SeriesConfig(tol, max_terms))


# ROADMAP item 10 (tests/sweep.py): every public measures function over
# its scalar arguments, one at a time from a valid point at (2, 1.5, 3).
# Each call returns a finite value or raises ValueError
# (MomentNotDefinedError is one) or NumericError, and never warns.
# (function, a valid point, its integer arguments)
_SWEEP = (
    (moment, {"k": 1}, {"k"}),
    (moment_exists, {"k": 1}, {"k"}),
    (mgf_truncated, {"z": 0.5, "n_terms": 3}, {"n_terms"}),
    (cgf_truncated, {"z": 0.5, "n_terms": 3}, {"n_terms"}),
    (_moment_with_config, {"tol": 1e-12, "max_terms": 10_000}, {"max_terms"}),
    (bonferroni, {"prob": 0.5}, set()),
    (lorenz, {"prob": 0.5}, set()),
    (order_stat_pdf, {"r": 2, "n": 5, "t": 1.0}, {"r", "n"}),
    (order_stat_pdf, {"r": 1, "n": 5, "t": 1.0}, {"r", "n"}),
    (order_stat_moment, {"r": 2, "n": 5, "k": 1}, {"r", "n", "k"}),
    (order_stat_moment, {"r": 1, "n": 5, "k": 1}, {"r", "n", "k"}),
    (order_stat_moment_series, {"r": 2, "n": 5, "k": 1}, {"r", "n", "k"}),
    (order_stat_moment_series, {"r": 1, "n": 5, "k": 1}, {"r", "n", "k"}),
    (renyi_entropy, {"rho": 2.0}, set()),
    (renyi_entropy_series, {"rho": 2.0}, set()),
    (expanded_pdf, {"t": 1.0}, set()),
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, kwargs", sweep_cases(_SWEEP))
def test_scalar_argument_contract(fn, kwargs):
    try:
        value = fn(KumIwParams(2, 1.5, 3), **kwargs)
    except (ValueError, NumericError):
        return
    if isinstance(value, measures.MgfResult):
        value = value.value
    assert math.isfinite(value)

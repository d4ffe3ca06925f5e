import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kumiw import (
    DataError,
    KumIwParams,
    SubModel,
    censored_loglik,
    fit_mle,
    log_pdf,
    lr_test,
    observed_information,
    survival,
    wald_ci,
)
from kumiw.mle import FitResult, _Loglik
from kumiw.survdata import CensoredDataset, censoring_upper_bound, simulate_censored
from oracles import (
    TwoGroupLoglik,
    central_gradient,
    finite_difference_hessian,
    fisher_information_uniform_censoring,
)

TRUTH = KumIwParams(2.0, 1.5, 3.0)


class TestCensoredLoglik:
    def test_uncensored_equals_sum_log_pdf(self):
        d = simulate_censored(TRUTH, 40, 0.0, 1)
        p = KumIwParams(1.7, 1.2, 2.5)
        assert censored_loglik(p, d) == pytest.approx(
            float(np.sum(log_pdf(p, d.times))), rel=1e-12
        )

    def test_all_censored_equals_sum_log_survival(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 4.0], [0, 0, 0])
        p = KumIwParams(2.0, 1.0, 1.5)
        assert censored_loglik(p, d) == pytest.approx(
            float(np.sum(np.log(survival(p, d.times)))), rel=1e-12
        )

    def test_hand_value(self):
        d = CensoredDataset.from_arrays([1.0, 2.0], [1, 0])
        p = KumIwParams(1.0, 1.0, 1.0)
        assert censored_loglik(p, d) == pytest.approx(
            -1.0 + math.log(1 - math.exp(-0.5)), rel=1e-14
        )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(10)
        d = simulate_censored(TRUTH, 30, 0.3, 3)
        perm = rng.permutation(len(d))
        d2 = CensoredDataset.from_arrays(d.times[perm], d.event_mask[perm])
        p = KumIwParams(1.5, 2.0, 2.0)
        assert censored_loglik(p, d) == pytest.approx(censored_loglik(p, d2), rel=1e-13)

    def test_never_nan(self):
        d = CensoredDataset.from_arrays([1.0, 2.0], [1, 0])
        for p in (KumIwParams(1e-300, 1e300, 1e3), KumIwParams(1e300, 1e-300, 500.0)):
            val = censored_loglik(p, d)
            assert not math.isnan(val)


class TestFitMle:
    def test_simulation_recovery(self):
        d = simulate_censored(TRUTH, 1000, 0.0, 7)
        fit = fit_mle(d)
        assert fit.converged
        for est, true in zip(fit.params.as_array(), TRUTH.as_array()):
            assert abs(est - true) / true <= 0.15

    def test_loglik_dominates_truth(self):
        d = simulate_censored(TRUTH, 400, 0.2, 21)
        fit = fit_mle(d, init=TRUTH)
        assert fit.converged
        assert fit.loglik >= censored_loglik(TRUTH, d)

    def test_gradient_certificate(self):
        d = simulate_censored(TRUTH, 300, 0.1, 31)
        fit = fit_mle(d)
        assert fit.converged and fit.grad_norm <= 1e-6

    def test_score_small_on_original_scale(self):
        d = simulate_censored(TRUTH, 300, 0.1, 33)
        fit = fit_mle(d)
        ll = _Loglik(d)
        score = central_gradient(lambda th: ll(th[0], th[1], th[2]), fit.params.as_array())
        assert float(np.max(np.abs(score))) <= 1e-4

    def test_scale_equivariance(self):
        d = simulate_censored(TRUTH, 500, 0.2, 11)
        fit1 = fit_mle(d)
        scale = 3.7
        d2 = CensoredDataset.from_arrays(d.times * scale, d.event_mask)
        fit2 = fit_mle(d2)
        assert fit2.params.c / fit1.params.c == pytest.approx(scale, rel=1e-3)
        assert fit2.params.b == pytest.approx(fit1.params.b, rel=1e-3)
        assert fit2.params.beta == pytest.approx(fit1.params.beta, rel=1e-3)

    def test_too_few_events(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0])
        with pytest.raises(DataError):
            fit_mle(d)

    def test_degenerate_data_no_crash(self):
        # 20 ties, and exactly 3 events below 2 censorings: both likelihoods
        # are unbounded, so the fit must stop and say why
        for d in (
            CensoredDataset.from_arrays([2.0] * 20, [1] * 20),
            CensoredDataset.from_arrays([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 0, 0]),
        ):
            fit = fit_mle(d)
            assert not fit.converged or fit.covariance is None
            assert fit.converged or fit.message

    def test_unconverged_fit_withholds_covariance(self):
        # exactly 3 events below 2 censorings: the likelihood is unbounded and
        # the fit stops short of the score test; an inverse information there
        # is no sampling covariance
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 0, 0])
        fit = fit_mle(d)
        assert not fit.converged
        assert fit.covariance is None and fit.ci is None
        assert fit.observed_info is not None and fit.observed_info.shape == (3, 3)
        assert "did not converge" in fit.message

    def test_ci_positive_bounds(self):
        d = simulate_censored(TRUTH, 500, 0.2, 13)
        fit = fit_mle(d)
        assert fit.ci is not None
        for lo, hi in fit.ci.values():
            assert 0 < lo < hi


class TestLikelihoodDerivatives:
    # b < 1, b = 1 (the event rows' log(1 - e^-x) term drops out), b > 1,
    # and a point far from the optimum where x spans small and large values
    POINTS = [(0.6, 1.2, 3.5), (1.0, 1.4, 3.2), (2.0, 1.5, 3.0), (8.0, 0.4, 0.8)]

    @staticmethod
    def scaled_error(exact, oracle):
        # on the scale sqrt(|H_ii H_jj|) the finite-difference error is at
        # most ~1e-7 at these points (n = 200), while dropping any single term
        # of the score, the Hessian or the information map pushes some entry
        # past 1e-5
        diag = np.abs(np.diag(exact))
        return np.abs(exact - oracle) / np.sqrt(np.outer(diag, diag))

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_score_and_hessian_match_finite_differences(self, rate):
        d = simulate_censored(TRUTH, 200, rate, 5)
        ll = _Loglik(d)

        def value(phi):
            return ll(*np.exp(phi))

        for theta in self.POINTS:
            phi = np.log(theta)
            val, score, hess = ll.value_score_hessian(*theta)
            assert val == ll(*theta)
            np.testing.assert_array_equal(hess, hess.T)
            score_error = np.abs(score - central_gradient(value, phi)) / np.sqrt(
                np.abs(np.diag(hess))
            )
            assert np.max(score_error) <= 1e-5, theta
            oracle = finite_difference_hessian(value, phi)
            assert np.max(self.scaled_error(hess, oracle)) <= 1e-5, theta

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_observed_information_matches_finite_differences(self, rate):
        d = simulate_censored(TRUTH, 200, rate, 5)
        ll = _Loglik(d)
        for theta in self.POINTS:
            info = observed_information(KumIwParams(*theta), d)
            oracle = -finite_difference_hessian(lambda th: ll(*th), np.array(theta))
            assert np.max(self.scaled_error(info, oracle)) <= 1e-5, theta


LOG_UNIFORM = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)
# the row layouts the one-pass core must handle: one group empty, one row,
# and both groups present
CORE_DATA = {
    "all-event": simulate_censored(TRUTH, 40, 0.0, 51),
    "all-censored": CensoredDataset.from_arrays([0.5, 1.0, 2.0, 4.0], [0, 0, 0, 0]),
    "n=1": CensoredDataset.from_arrays([1.7], [1]),
    "20%-censored": simulate_censored(TRUTH, 60, 0.2, 53),
}


class TestOnePassCore:
    @pytest.mark.parametrize("name", list(CORE_DATA))
    @settings(max_examples=200, deadline=None)
    @given(
        b=LOG_UNIFORM, c=LOG_UNIFORM, beta=LOG_UNIFORM,
        unit_b=st.sampled_from([True, False, False, False, False]),
    )
    def test_bit_identical_to_two_group_core(self, name, b, c, beta, unit_b):
        # b = 1 takes the branch that drops the event rows' L term
        if unit_b:
            b = 1.0
        d = CORE_DATA[name]
        ll, oracle = _Loglik(d), TwoGroupLoglik(d)
        assert ll.sum_log_tf == oracle.sum_log_tf
        assert np.array_equal(ll.terms(c, beta), oracle.terms(c, beta), equal_nan=True)
        value, score, hess = ll.value_score_hessian(b, c, beta)
        o_value, o_score, o_hess = oracle.value_score_hessian(b, c, beta)
        assert value == o_value == ll(b, c, beta)
        assert np.array_equal(score, o_score, equal_nan=True)
        assert np.array_equal(hess, o_hess, equal_nan=True)


class TestFitReusesTheCore:
    DATA = simulate_censored(TRUTH, 500, 0.2, 61)
    # exactly 3 events below 2 censorings: the fit stops unconverged
    UNBOUNDED = CensoredDataset.from_arrays([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 0, 0])

    def test_no_value_only_calls(self, monkeypatch):
        calls = []
        original = _Loglik.__call__

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(_Loglik, "__call__", counted)
        assert fit_mle(self.DATA).converged
        assert calls == []

    def test_one_loglik_per_fit(self, monkeypatch):
        built = []
        original = _Loglik.__init__

        def counted(self, d):
            built.append(d)
            original(self, d)

        monkeypatch.setattr(_Loglik, "__init__", counted)
        fit_mle(self.DATA)
        assert len(built) == 1

    @pytest.mark.parametrize("d", [DATA, UNBOUNDED], ids=["converged", "unconverged"])
    def test_observed_info_is_the_accepted_points(self, d):
        fit = fit_mle(d)
        np.testing.assert_array_equal(fit.observed_info, observed_information(fit.params, d))


class TestObservedInformation:
    def test_quadratic_calibration(self):
        # finite differences must recover a known quadratic Hessian
        q = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        center = np.array([0.7, 1.3, 2.1])

        def f(x):
            delta = x - center
            return -0.5 * float(delta @ q @ delta)

        hess = finite_difference_hessian(f, np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(-hess, q, atol=1e-6)

    def test_positive_definite_at_clean_fit(self):
        d = simulate_censored(TRUTH, 1000, 0.0, 17)
        fit = fit_mle(d)
        eigs = np.linalg.eigvalsh(observed_information(fit.params, d))
        assert np.all(eigs > 0)

    def test_exact_symmetry(self):
        d = simulate_censored(TRUTH, 100, 0.0, 19)
        info = observed_information(KumIwParams(2, 1.5, 3), d)
        np.testing.assert_array_equal(info, info.T)

    def test_matches_expected_information_oracle(self):
        # Per-observation observed information at the truth converges to the
        # expected (Fisher) information that criterion 8 takes its b floor
        # from.  The error is scaled by sqrt(I_ii I_jj) because the b-beta
        # entry is a near-cancellation (0.027).  On that scale 40 samples of
        # n = 10^5 had a spread (rms) of at most 0.0068 per entry and a
        # largest error of 0.017, so 0.03 leaves room only for noise.
        rate, n = 0.2, 100_000
        bound = censoring_upper_bound(TRUTH, rate)
        expected = fisher_information_uniform_censoring(TRUTH, bound)
        # b enters only through b L and log b: -E[d2/db2] = P(event) / b^2
        assert expected[0, 0] == pytest.approx((1.0 - rate) / TRUTH.b**2, rel=1e-9)
        d = simulate_censored(TRUTH, n, rate, 7, upper_bound=bound)
        observed = observed_information(TRUTH, d) / n
        scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
        assert np.max(np.abs(observed - expected) / scale) <= 0.03


class TestWaldCi:
    def test_normal_quantile(self):
        assert stats.norm.ppf(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_level_ordering(self):
        d = simulate_censored(TRUTH, 500, 0.2, 23)
        fit = fit_mle(d)
        narrow = wald_ci(fit, 0.90)
        wide = wald_ci(fit, 0.99)
        for name in ("b", "c", "beta"):
            assert wide[name][0] < narrow[name][0] < narrow[name][1] < wide[name][1]

    def test_zero_se_degenerate_interval(self):
        fit = FitResult(
            params=KumIwParams(2.0, 1.5, 3.0),
            loglik=0.0,
            observed_info=np.eye(3),
            covariance=np.zeros((3, 3)),
            ci=None,
            ci_level=0.95,
            converged=True,
            iterations=1,
            grad_norm=0.0,
        )
        ci = wald_ci(fit, 0.95)
        assert ci["b"] == (2.0, 2.0) and ci["beta"] == (3.0, 3.0)

    def test_missing_covariance_rejected(self):
        fit = FitResult(
            params=TRUTH, loglik=0.0, observed_info=None, covariance=None,
            ci=None, ci_level=0.95, converged=False, iterations=0, grad_norm=math.inf,
        )
        with pytest.raises(ValueError):
            wald_ci(fit, 0.95)

    def test_invalid_level(self):
        d = simulate_censored(TRUTH, 200, 0.0, 29)
        fit = fit_mle(d)
        with pytest.raises(ValueError):
            wald_ci(fit, 1.0)


class TestLrTest:
    def test_full_model_null_is_trivial(self):
        d = simulate_censored(TRUTH, 200, 0.0, 37)
        res = lr_test(d, SubModel.KUM_IW)
        assert res.statistic == 0.0 and res.p_value == 1.0 and res.df == 0

    def test_iw_null_on_kumiw_data_rejects(self):
        d = simulate_censored(KumIwParams(5.0, 1.0, 2.0), 500, 0.0, 41)
        res = lr_test(d, SubModel.IW)
        assert res.df == 1
        assert res.p_value < 0.05

    def test_iw_null_on_iw_data_accepts_mostly(self):
        d = simulate_censored(KumIwParams(1.0, 1.5, 3.0), 400, 0.0, 43)
        res = lr_test(d, SubModel.IW)
        assert res.statistic >= 0.0
        assert res.p_value > 0.01

    def test_two_pin_null_df(self):
        d = simulate_censored(TRUTH, 300, 0.0, 47)
        res = lr_test(d, SubModel.IE)
        assert res.df == 2 and res.statistic >= 0.0

    def test_statistic_nonnegative_across_seeds(self):
        for seed in range(5):
            d = simulate_censored(KumIwParams(1.0, 1.5, 3.0), 150, 0.2, 5100 + seed)
            res = lr_test(d, SubModel.IW)
            assert res.statistic >= 0.0

    def test_stale_full_fit_is_refit_from_the_restricted_solution(self):
        d = simulate_censored(TRUTH, 300, 0.2, 4)
        full = fit_mle(d)
        honest = lr_test(d, SubModel.IW, full_fit=full)
        # a full fit that the restricted fit beats sends lr_test down its refit branch
        stale = dataclasses.replace(
            full, params=KumIwParams(0.5, 3.0, 1.0), loglik=full.loglik - 1e3
        )
        res = lr_test(d, SubModel.IW, full_fit=stale)
        assert res.full is not stale and res.full is not full
        assert res.full.converged
        assert abs(res.full.loglik - full.loglik) <= 1e-9
        assert abs(res.statistic - honest.statistic) <= 1e-8
        assert res.df == honest.df == 1

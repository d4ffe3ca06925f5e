import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from kumiw import (
    DataError,
    KumIwParams,
    NumericError,
    SubModel,
    censored_loglik,
    fit_mle,
    log_pdf,
    lr_test,
    observed_information,
    survival,
    wald_ci,
)
from kumiw.distribution import _SUBMODEL_PINNED
from kumiw import mle
from kumiw.mle import FitResult, _Loglik, _wald_from_cov
from kumiw.survdata import CensoredDataset, censoring_upper_bound, simulate_censored
from probe_space import probe_data
from sweep import sweep_cases
from oracles import (
    TwoGroupLoglik,
    central_gradient,
    finite_difference_hessian,
    fisher_information_uniform_censoring,
    kaplan_meier_product_limit,
    reference_default_init,
    reference_maximize,
    underflow_limit_core,
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
            -1.0 + math.log(1 - math.exp(-0.5)), rel=1e-14, abs=0
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
        # t -> s t multiplies c by s and leaves b and beta; log c moves by
        # log s, and the score and Hessian in (log b, log c, log beta) do not
        # change, so the fit is the same up to rounding.  Worst relative
        # changes over seeds 500-529 at these s: 1.5e-14 (b), 5.1e-15 (c),
        # 8.3e-15 (beta), 4e-14 (the log-likelihood, of |l|), 1.4e-14 (c's
        # Wald bounds) and 6.7e-14 (the LR statistic, of |l|); 1e-12 is
        # that with a margin of 15x or more
        for seed in range(500, 510):
            d = simulate_censored(TRUTH, 300, 0.2, seed)
            fit = fit_mle(d)
            stat = lr_test(d, SubModel.IW, full_fit=fit).statistic
            for s in (1e-3, 7.0, 1e4):
                d_s = CensoredDataset.from_arrays(d.times * s, d.event_mask)
                fit_s = fit_mle(d_s)
                assert fit.converged and fit_s.converged
                assert fit_s.params.b == pytest.approx(fit.params.b, rel=1e-12, abs=0)
                assert fit_s.params.c == pytest.approx(s * fit.params.c, rel=1e-12, abs=0)
                assert fit_s.params.beta == pytest.approx(fit.params.beta, rel=1e-12, abs=0)
                shift = fit.loglik - d.n_events * math.log(s)
                assert abs(fit_s.loglik - shift) <= 1e-12 * abs(fit.loglik)
                assert fit_s.ci["c"] == pytest.approx(tuple(s * v for v in fit.ci["c"]), rel=1e-12, abs=0)
                stat_s = lr_test(d_s, SubModel.IW, full_fit=fit_s).statistic
                assert abs(stat_s - stat) <= 1e-12 * abs(fit.loglik)

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

    def test_heavy_ties_stop_unconverged(self):
        # four tied events below one censoring: the likelihood grows without
        # bound as beta does, and the Hessian reaches ~1e308 on the way; the
        # fit must stop with a message, not an overflow RuntimeWarning
        d = CensoredDataset.from_arrays([1.0, 1.0, 1.0, 1.0, 2.0], [1, 1, 1, 1, 0])
        fit = fit_mle(d)
        assert not fit.converged and fit.message
        assert fit.covariance is None and fit.ci is None

    @pytest.mark.parametrize("level", [1.5, math.nan, -0.2, 0.0, 1.0, "1", None, True])
    def test_invalid_ci_level_rejected(self, level):
        d = simulate_censored(TRUTH, 100, 0.0, 29)
        with pytest.raises(ValueError, match=rf"^confidence level must be in \(0, 1\), got {level}$"):
            fit_mle(d, ci_level=level)

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
    # both groups above numpy's 128-element pairwise block, so each group's
    # reduction takes the blocked summation order
    "n=1000": simulate_censored(TRUTH, 1000, 0.2, 57),
}


@pytest.mark.dispatch
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
        ll = _Loglik(d)
        value, score, hess = ll.value_score_hessian(b, c, beta)
        assert value == ll(b, c, beta)
        y = beta * (math.log(c) - np.log(d.times))
        with np.errstate(over="ignore"):
            tiny = np.exp(y) < np.finfo(float).tiny
        if not tiny.any():
            oracle = TwoGroupLoglik(d)
            assert ll.sum_log_tf == oracle.sum_log_tf
            assert np.array_equal(ll.terms(c, beta), oracle.terms(c, beta), equal_nan=True)
            o_value, o_score, o_hess = oracle.value_score_hessian(b, c, beta)
            assert value == o_value
            assert np.array_equal(score, o_score, equal_nan=True)
            assert np.array_equal(hess, o_hess, equal_nan=True)
        else:
            # some x underflow: those rows take their limit, the rest the old bits.
            # The core's m = y s + (1 + y) a cancels to b - e there, rounding at
            # eps |y| |b - e| a row, which the log c and log beta entries scale
            # by beta and |y|
            o_terms, o_value, o_score, o_hess = underflow_limit_core(d, b, c, beta)
            y = np.abs(y[tiny])
            rounding = 8 * np.finfo(float).eps * max(1.0, b) * np.sum(y * (beta + y))
            for got, want in ((ll.terms(c, beta), o_terms), (value, o_value),
                              (score, o_score), (hess, o_hess)):
                want = np.asarray(want)
                scale = max(1.0, float(np.max(np.abs(want), initial=0.0, where=np.isfinite(want))))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale + rounding)

    @pytest.mark.parametrize("status, expected", [
        ([1, 1, 1], -692.5369098956905),  # the sum of log_pdf
        ([1, 1, 0], -416.6321638445132),  # the same, with log survival for the last row
    ], ids=["all-events", "last-censored"])
    def test_value_where_x_underflows(self, status, expected):
        # x = (1.5 / 1e120)^3 is far below the smallest float
        d = CensoredDataset.from_arrays([1.0, 2.0, 1e120], status)
        p = KumIwParams(0.5, 1.5, 3.0)
        assert censored_loglik(p, d) == pytest.approx(expected, rel=1e-12)
        value, score, hess = _Loglik(d).value_score_hessian(p.b, p.c, p.beta)
        assert value == pytest.approx(expected, rel=1e-12)
        assert np.all(np.isfinite(score)) and np.all(np.isfinite(hess))


@pytest.mark.dispatch
class TestKPointPass:
    """``terms_rows`` takes k points in one (k, n) pass.  Each row must be
    bit for bit the one-point pass ``terms``, which TestOnePassCore holds
    to the two-group oracle."""

    DATA = {
        **CORE_DATA,
        # x = (c / 1e120)^beta underflows for beta above about 2.6
        "x-underflow": CensoredDataset.from_arrays([1.0, 2.0, 1e120], [1, 1, 0]),
    }

    @pytest.mark.parametrize("name", list(DATA))
    def test_rows_equal_the_one_point_pass(self, name):
        ll = _Loglik(self.DATA[name])
        rng = np.random.default_rng(len(name))
        # an underflowing row beside one that does not, then random blocks
        blocks = [([1.5, 1.5], [3.0, 0.01])]
        blocks += [np.exp(rng.uniform(-7.0, 7.0, (2, k))).tolist() for k in range(1, 6) for _ in range(10)]
        for cs, betas in blocks:
            assert ll.terms_rows(cs, betas) == [ll.terms(c, beta) for c, beta in zip(cs, betas)]

    @pytest.mark.parametrize("name", ["x-underflow", "20%-censored"])
    def test_workspace_keeps_no_state_between_passes(self, name):
        # one instance's workspace serves passes of k = 4, 1, 3, 2 and 4 in
        # turn; an x-underflow point sits beside normal ones, at a new slot
        # each pass, so a stale row, tiny mask or sum would show
        d = self.DATA[name]
        ll = _Loglik(d)
        rng = np.random.default_rng(5)
        under = (1.5, 3.0) if name == "x-underflow" else (1e-3, 300.0)
        for k in (4, 1, 3, 2, 4):
            points = [tuple(np.exp(rng.uniform(-2.0, 2.0, 2)).tolist()) for _ in range(k)]
            points[k // 2] = under
            cs, betas = map(list, zip(*points))
            assert ll.terms_rows(cs, betas) == [_Loglik(d).terms(c, beta) for c, beta in points]


def _criterion8_data():
    """The criterion-8 data sets of the acceptance study, 10 of each family:
    truth (2, 1.5, 3) from seed 30000 + i and the b = 1 null from 60000 + i."""
    rate, null_truth = 0.2, KumIwParams(1.0, 1.5, 3.0)
    sets = {}
    for truth, seed0 in ((TRUTH, 30_000), (null_truth, 60_000)):
        bound = censoring_upper_bound(truth, rate)
        for i in range(10):
            sets[f"seed={seed0 + i}"] = simulate_censored(truth, 500, rate, seed0 + i, upper_bound=bound)
    return sets


CRITERION8_DATA = _criterion8_data()


@pytest.mark.dispatch
class TestWholeFitIdentity:
    class OracleCore(_Loglik):
        """The library core with ``value_score_hessian`` taken from the
        two-group oracle."""

        def __init__(self, d):
            super().__init__(d)
            self.oracle = TwoGroupLoglik(d)

        def value_score_hessian(self, b, c, beta):
            return self.oracle.value_score_hessian(b, c, beta)

    @staticmethod
    def fit_and_test(d):
        fit = fit_mle(d)
        return fit, lr_test(d, SubModel.IW, full_fit=fit)

    @pytest.mark.parametrize("name", list(CRITERION8_DATA))
    def test_fits_and_lr_test_equal_the_oracle_cores(self, name, monkeypatch):
        d = CRITERION8_DATA[name]
        fit, res = self.fit_and_test(d)
        built = []

        def oracle_core(d):
            built.append(self.OracleCore(d))
            return built[-1]

        monkeypatch.setattr(mle, "_Loglik", oracle_core)
        o_fit, o_res = self.fit_and_test(d)
        assert len(built) == 2  # the full and the restricted fit
        for got, want in ((fit, o_fit), (res.full, o_res.full), (res.restricted, o_res.restricted)):
            assert got.params == want.params
            assert got.loglik == want.loglik
            assert got.ci == want.ci
            assert got.iterations == want.iterations
            assert got.grad_norm == want.grad_norm
            assert got.converged == want.converged
        np.testing.assert_array_equal(fit.observed_info, o_fit.observed_info)
        np.testing.assert_array_equal(fit.covariance, o_fit.covariance)
        assert fit.converged and fit.ci is not None
        assert res.statistic == o_res.statistic
        assert res.p_value == o_res.p_value


@pytest.mark.dispatch
class TestReferenceFit:
    """The fit loop takes its per-step checks on Python floats; from the
    same start, every fit and LR test must be bit for bit the one of the
    earlier loop (``oracles.reference_maximize``)."""

    NULLS = [m for m in _SUBMODEL_PINNED if m is not SubModel.KUM_IW]
    HEAVY_TIES = CensoredDataset.from_arrays([1.0, 1.0, 1.0, 1.0, 2.0], [1, 1, 1, 1, 0])
    THREE_EVENTS = CensoredDataset.from_arrays([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 0, 0])
    CENSORED_60 = [simulate_censored(TRUTH, 60, 0.5, seed) for seed in range(12)]

    def outcomes(self, d, init=None):
        """The full fit, then each pinned null's LR test against it: its
        statistic, p-value and two fits, or the error it raised."""
        fit = fit_mle(d, init=init)
        out = [fit]
        for null in self.NULLS:
            try:
                res = lr_test(d, null, full_fit=fit)
            except NumericError as err:
                out.append(str(err))
            else:
                out.append((res.statistic, res.p_value, res.df, res.full, res.restricted))
        return out

    def assert_matches_reference(self, monkeypatch, d, init=None):
        got = self.outcomes(d, init)
        with monkeypatch.context() as m:
            m.setattr(mle, "_maximize", reference_maximize)
            want = self.outcomes(d, init)
        for g, w in zip(got, want, strict=True):
            if isinstance(g, FitResult):
                self.assert_same_fit(g, w)
            elif isinstance(g, tuple):
                assert g[:3] == w[:3]
                self.assert_same_fit(g[3], w[3])
                self.assert_same_fit(g[4], w[4])
            else:
                assert g == w
        return got

    @staticmethod
    def assert_same_fit(got, want):
        for f in dataclasses.fields(FitResult):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
            else:  # a pinned fit's ci_level is nan
                assert a == b or a != a and b != b, f.name

    @pytest.mark.parametrize("name", list(CRITERION8_DATA))
    def test_criterion8_sets(self, name, monkeypatch):
        self.assert_matches_reference(monkeypatch, CRITERION8_DATA[name])

    def test_censored_n60_with_unconverged_fits(self, monkeypatch):
        fits = [self.assert_matches_reference(monkeypatch, d)[0] for d in self.CENSORED_60]
        assert any(not fit.converged for fit in fits)

    @pytest.mark.parametrize("d", [HEAVY_TIES, THREE_EVENTS], ids=["heavy-ties", "three-events"])
    def test_unbounded_likelihoods(self, d, monkeypatch):
        fit = self.assert_matches_reference(monkeypatch, d)[0]
        assert not fit.converged and fit.iterations == mle._MAX_STEPS

    def test_explicit_init(self, monkeypatch):
        fit = self.assert_matches_reference(monkeypatch, CRITERION8_DATA["seed=30000"], TRUTH)[0]
        assert fit.converged

    def test_non_finite_start(self, monkeypatch):
        d = CRITERION8_DATA["seed=30000"]
        fit = self.assert_matches_reference(monkeypatch, d, KumIwParams(1.0, 1e6, 1e3))[0]
        assert fit.iterations == 0 and fit.message.startswith("non-finite")


def _old_start_fit(d):
    """The fit from the event-only probability plot that the Kaplan-Meier
    start replaced (``oracles.reference_default_init``)."""
    return fit_mle(d, init=KumIwParams(*reference_default_init(d)))


class TestKaplanMeierStart:
    # item 17's two n = 500, 70%-censored sets: from the old start, each
    # stops at the 100-step cap far below the optimum
    HEAVY_CENSORED = {
        1068: (KumIwParams(0.14341117323583136, 2.5749047912974836, 0.3805193681562944), -1101.0197527099),
        5252: (KumIwParams(0.15360506722999348, 0.4326151164788711, 0.3199291446344125), -891.7018827233),
    }

    @staticmethod
    def plot_line(d):
        """(beta0, c0) from np.polyfit of log(-log F-hat) on log t, with
        F-hat at the midpoints of the product-limit oracle's steps."""
        t, s, _, _ = kaplan_meier_product_limit(d.times, d.event_mask)
        f_hat = 1.0 - (np.concatenate(([1.0], s[:-1])) + s) / 2.0
        slope, intercept = np.polyfit(np.log(t), np.log(-np.log(f_hat)), 1)
        return -slope, math.exp(intercept / -slope)

    @pytest.mark.parametrize("name", ["seed=30000", "seed=60003"])
    def test_start_is_the_km_probability_plot_line(self, name):
        d = CRITERION8_DATA[name]
        b0, c0, beta0 = mle._default_init(d)
        assert b0 == 1.0
        np.testing.assert_allclose([beta0, c0], self.plot_line(d), rtol=1e-10)

    def test_start_sees_the_censored_rows(self):
        # the same event times with and without late censorings: the
        # event-only plot cannot tell them apart, the Kaplan-Meier plot can
        d = CRITERION8_DATA["seed=30000"]
        events = CensoredDataset.from_arrays(d.times[d.event_mask], np.ones(d.n_events))
        np.testing.assert_array_equal(reference_default_init(d), reference_default_init(events))
        assert mle._default_init(d)[2] != mle._default_init(events)[2]

    @pytest.mark.parametrize("times, events, beta0", [
        ([1.0, 1.001, 1.002], [1, 1, 1], 50.0),
        ([1.0, 1e20, 1e40], [1, 1, 1], 0.05),
    ], ids=["tight", "spread"])
    def test_beta0_clamped(self, times, events, beta0):
        d = CensoredDataset.from_arrays(times, events)
        x = np.log(times)
        y = np.log(-np.log([1 / 6, 1 / 2, 5 / 6]))
        start = mle._default_init(d)
        assert start[2] == beta0
        # the line of slope -beta0 through the centroid
        assert start[1] == pytest.approx(math.exp(x.mean() + y.mean() / beta0), rel=1e-12)

    @pytest.mark.parametrize("times, events", [
        ([1.0, 1.0, 1.0, 1.0, 2.0], [1, 1, 1, 1, 0]),  # one step
        ([1.0, 2.0, 2.0, 3.0], [1, 1, 1, 0]),  # two steps
        ([1e306, 1e307, 1e308] + [1.5e308] * 97, [1, 1, 1] + [0] * 97),  # c0 past the float range
    ], ids=["one-step", "two-steps", "c0-overflows"])
    def test_fallback_is_the_geometric_mean_of_the_events(self, times, events):
        d = CensoredDataset.from_arrays(times, events)
        start = mle._default_init(d)
        want = math.exp(np.log(d.times[d.event_mask]).mean())
        assert start[0] == 1.0 and start[2] == 1.0
        assert start[1] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("seed", list(HEAVY_CENSORED))
    def test_heavy_censored_fits_converge(self, seed):
        truth, loglik = self.HEAVY_CENSORED[seed]
        d = simulate_censored(truth, 500, 0.7, seed)
        fit = fit_mle(d)
        assert fit.converged and fit.ci is not None
        assert fit.loglik == pytest.approx(loglik, rel=1e-10)
        assert fit.loglik > censored_loglik(truth, d)
        old = _old_start_fit(d)
        assert not old.converged and old.iterations == mle._MAX_STEPS and old.loglik < loglik - 100

    @pytest.mark.parametrize("name", list(CRITERION8_DATA))
    def test_same_optimum_as_the_old_start(self, name, monkeypatch):
        d = CRITERION8_DATA[name]
        fit, old = fit_mle(d), _old_start_fit(d)
        assert fit.converged and old.converged
        assert fit.loglik == pytest.approx(old.loglik, rel=1e-9, abs=0)
        assert fit.iterations < old.iterations
        nulls = [m for m in _SUBMODEL_PINNED if m is not SubModel.KUM_IW]
        stats_new = [lr_test(d, null, full_fit=fit).statistic for null in nulls]
        monkeypatch.setattr(mle, "_default_init", reference_default_init)
        stats_old = [lr_test(d, null, full_fit=old).statistic for null in nulls]
        np.testing.assert_allclose(stats_new, stats_old, rtol=0, atol=1e-8)

    def test_local_maximum_reached_from_both_starts(self):
        # item 12's seed-1010 set (n = 20): a converged fit below the Pareto
        # boundary's supremum (about -9.17), the same from either start
        d = simulate_censored(TRUTH, 20, 0.2, 1010)
        fit, old = fit_mle(d), _old_start_fit(d)
        assert fit.converged and old.converged
        assert fit.loglik == pytest.approx(-10.5761250984, rel=1e-10)
        assert fit.loglik == pytest.approx(old.loglik, rel=1e-9, abs=0)

    @settings(max_examples=100, deadline=None)
    @given(d=probe_data())
    @example(d=simulate_censored(HEAVY_CENSORED[1068][0], 500, 0.7, 1068))
    @example(d=simulate_censored(TRUTH, 20, 0.2, 1010))
    # the old start's converged fit is a local maximum; the new one climbs
    # higher, towards b -> 0, and stops unconverged (item 12's boundary)
    @example(d=simulate_censored(KumIwParams(0.13636622473651508, 1.015069819012927, 2.5215485956544743), 100, 0.0, 1460))
    # a ridge out to b ~ 2.7e6: both fits run the 100 steps, and only the
    # old one's last step lands inside the score tolerance
    @example(d=simulate_censored(KumIwParams(9.09912210748855, 0.16070982941615602, 2.6119004291377155), 10, 0.7, 2345))
    def test_no_fit_ends_lower_than_from_the_old_start(self, d):
        """Each fit raises DataError (fewer than 3 events) or returns without
        a warning.  Where the old start's fit converges, the new fit
        converges to the same log-likelihood, or ends unconverged no lower."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fit = fit_mle(d)
            except DataError:
                assert d.n_events < 3
                return
            old = _old_start_fit(d)
        if not old.converged:
            return
        if fit.converged:
            assert fit.loglik == pytest.approx(old.loglik, rel=1e-9, abs=0)
        else:
            assert fit.loglik >= old.loglik - 1e-9 * abs(old.loglik)


class TestSpecialFunctions:
    # scipy.special in the library, the scipy.stats distributions here
    def test_wald_bounds_equal_the_norm_ppf_formula(self):
        theta = np.array([2.0, 1.5, 3.0])
        cov = np.array([[0.3, 0.05, -0.1], [0.05, 0.02, 0.01], [-0.1, 0.01, 0.2]])
        se_log = np.sqrt(np.diag(cov)) / theta
        levels = np.concatenate((
            np.geomspace(1e-6, 0.5, 400), np.linspace(0.5, 0.99, 400)[1:],
            1.0 - np.geomspace(1e-2, 1e-6, 400), [0.9, 0.95, 0.99],
        ))
        for level in levels:
            z = stats.norm.ppf(0.5 + level / 2.0)
            want = {
                name: (theta[i] * math.exp(-z * se_log[i]), theta[i] * math.exp(z * se_log[i]))
                for i, name in enumerate(("b", "c", "beta"))
            }
            assert _wald_from_cov(theta, cov, float(level)) == want, level

    @pytest.mark.parametrize("null, df", [(SubModel.IW, 1), (SubModel.IE, 2)], ids=["df=1", "df=2"])
    def test_lr_p_value_equals_chi2_sf(self, null, df, monkeypatch):
        # 2 (s/2 - 0) is s exactly, so the statistic is the grid value
        restricted = FitResult(
            params=TRUTH, loglik=0.0, observed_info=None, covariance=None, ci=None,
            ci_level=math.nan, converged=True, iterations=0, grad_norm=0.0,
        )
        monkeypatch.setattr(mle, "_fit_pinned", lambda d, pins: restricted)
        d = simulate_censored(TRUTH, 20, 0.0, 1)
        statistics = np.concatenate(([0.0], np.geomspace(1e-300, 1e3, 3000)))
        for s in statistics:
            full = dataclasses.replace(restricted, loglik=float(s) / 2.0)
            res = lr_test(d, null, full_fit=full)
            assert res.df == df and res.statistic == s
            assert res.p_value == float(stats.chi2.sf(s, df)), s


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

    def test_bounds_past_the_float_range(self):
        # z se = 1.96e150 for b, where e^(z se) overflows, and 705.6 for c,
        # where e^(z se) is finite but theta e^(z se) overflows: each upper
        # bound is inf and the lower one finite or 0, with no OverflowError
        # and no numpy warning
        theta = np.array([1.0, 1e5, 2.0])
        cov = np.diag([1e300, (360.0 * 1e5) ** 2, 0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ci = _wald_from_cov(theta, cov, 0.95)
        assert ci["b"] == (0.0, math.inf)
        assert ci["c"][1] == math.inf and 0.0 < ci["c"][0] < 1e-300
        assert ci["beta"] == (2.0 * math.exp(-1.959963984540054 * 0.25), 2.0 * math.exp(1.959963984540054 * 0.25))

    def test_converged_fit_with_an_unbounded_interval(self):
        # n = 5: the fit converges, but the data hardly bound c, whose Wald
        # upper bound is past the float range
        d = simulate_censored(KumIwParams(0.4510486526700101, 0.5463140171030723, 0.3), 5, 0.3, 8972)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_mle(d)
        assert fit.converged and fit.ci["c"][1] == math.inf

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

    @pytest.mark.parametrize("level", ["1", None, True])
    def test_level_must_be_a_number(self, level):
        fit = fit_mle(simulate_censored(TRUTH, 200, 0.0, 29))
        with pytest.raises(ValueError, match=rf"^confidence level must be in \(0, 1\), got {level}$"):
            wald_ci(fit, level)


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

    @pytest.mark.parametrize("null", [m for m in _SUBMODEL_PINNED if m is not SubModel.KUM_IW], ids=str)
    def test_every_null_pins_and_converges(self, null):
        # each fit reaches points where values no longer resolve before its
        # score is below the tolerance; the steps that only shrink the score
        # finish it, on the 1-D (IE, IR) and the 2-D (IW, KUM-IR, KUM-IE) paths
        d = simulate_censored(TRUTH, 500, 0.2, 8)
        res = lr_test(d, null)
        pins = _SUBMODEL_PINNED[null]
        assert res.restricted.converged
        assert {name: getattr(res.restricted.params, name) for name in pins} == pins
        assert res.df == len(pins)
        assert res.statistic >= 0.0

    @pytest.mark.parametrize("seed, null", [(34, SubModel.IW), (36, SubModel.KUM_IR)])
    def test_converges_where_the_loglik_is_near_zero(self, seed, null):
        # scaling the times shifts each loglik by -r log(scale); here the
        # restricted one lands near 0, whose ulps are far finer than the
        # value's rounding noise, and the fit must still certify its score
        d0 = simulate_censored(TRUTH, 500, 0.2, seed)
        scale = math.exp(lr_test(d0, null).restricted.loglik / d0.n_events)
        d = CensoredDataset.from_arrays(d0.times * scale, d0.event_mask)
        res = lr_test(d, null)
        assert abs(res.restricted.loglik) < 1e-6
        assert res.restricted.converged

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


# ROADMAP item 10 (tests/sweep.py): every scalar argument of the fits, one
# at a time from a valid point at (2, 1.5, 3) on a 30-row sample: the
# parameters that censored_loglik, observed_information and fit_mle's init
# take from a KumIwParams, and the confidence levels of fit_mle and
# wald_ci.  Each call returns finite values (a log-likelihood may read its
# limit -inf, and an observed information may hold inf or nan where the
# Hessian leaves the float range), or raises ValueError or NumericError,
# and never warns.
SWEEP_DATA = simulate_censored(TRUTH, 30, 0.2, 1)


def loglik_at(p, **params):
    return censored_loglik(dataclasses.replace(p, **params), SWEEP_DATA)


def information_at(p, **params):
    return observed_information(dataclasses.replace(p, **params), SWEEP_DATA)


def fit_from(p, **params):
    return fit_mle(SWEEP_DATA, init=dataclasses.replace(p, **params)).params.as_array()


def fit_ci(p, ci_level):
    return list(fit_mle(SWEEP_DATA, init=p, ci_level=ci_level).ci.values())


def wald_at(p, level):
    return list(wald_ci(fit_mle(SWEEP_DATA, init=p), level).values())


_TRIPLE = {"b": 2.0, "c": 1.5, "beta": 3.0}
_SWEEP = (
    (loglik_at, _TRIPLE, set()),
    (information_at, _TRIPLE, set()),
    (fit_from, _TRIPLE, set()),
    (fit_ci, {"ci_level": 0.95}, set()),
    (wald_at, {"level": 0.95}, set()),
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, kwargs", sweep_cases(_SWEEP))
def test_scalar_argument_contract(fn, kwargs):
    try:
        value = np.asarray(fn(TRUTH, **kwargs), dtype=float)
    except (ValueError, NumericError):
        return
    if fn is information_at:
        assert value.shape == (3, 3)
    else:
        assert np.all(np.isfinite(value) | ((value == -np.inf) & (fn is loglik_at)))

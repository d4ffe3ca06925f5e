import dataclasses
import itertools
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from kumiw import (
    KumIwParams,
    McmcChain,
    NumericError,
    McmcConfig,
    PriorSpec,
    fit_mle,
    log_pdf,
    log_posterior,
    run_mcmc,
    summarize,
)
from kumiw import bayes
from kumiw.bayes import (
    SUMMARY_COLUMNS,
    _collapsed_target,
    full_conditional_log,
    rw_accept_probability,
    write_chain_csv,
)
from kumiw.mle import _Loglik
from kumiw.survdata import CensoredDataset, simulate_censored
from oracles import collapsed_posterior_moments, reference_collapsed, reference_run_mcmc
from probe_space import probe_data
from sweep import sweep_cases

TRUTH = KumIwParams(2.0, 1.5, 3.0)
PRIOR = PriorSpec(1.2, 0.5, 2.0, 0.8, 1.5, 0.3)
SMALL_CENSORED = simulate_censored(TRUTH, 25, 0.3, 29)
#: Min batch-means ESS per draw of the posterior-moment test.  The joint
#: sampler measured 0.061-0.18 over seeds 1-12 of that configuration, the
#: one-coordinate sampler it replaced 0.0021-0.0024.
ESS_PER_DRAW_FLOOR = 0.03
LOG_UNIFORM = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)


@pytest.fixture(scope="module")
def data():
    return simulate_censored(TRUTH, 80, 0.0, 21)


class TestPriorSpec:
    def test_defaults_diffuse(self):
        prior = PriorSpec()
        assert prior.b_shape == 1.0 and prior.b_rate == 0.001

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            PriorSpec(b_shape=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "1", None, True])
    @pytest.mark.parametrize("name", ["b_shape", "b_rate", "c_shape", "c_rate", "beta_shape", "beta_rate"])
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {bad}$"):
            PriorSpec(**{name: bad})

    @pytest.mark.parametrize("name", ["b", "c", "beta"])
    @pytest.mark.parametrize("shape, rate", [(1e308, 0.001), (1e306, 0.001), (np.float64(1e308), 0.001), (2e305, 1e-300)])
    def test_normaliser_beyond_the_float_range_rejected(self, name, shape, rate):
        # lgamma overflows from about 2.56e305, and at rate 1e-300 the
        # difference shape log(rate) - lgamma(shape) from about 1.3e305;
        # log_posterior and run_mcmc warned and then raised OverflowError
        with pytest.raises(ValueError, match=f"^{name}_shape and {name}_rate leave the Gamma log-normaliser"):
            PriorSpec(**{f"{name}_shape": shape, f"{name}_rate": rate})

    def test_three_normalisers_whose_sum_overflows_rejected(self):
        with pytest.raises(ValueError, match="^c_shape and c_rate leave"):
            PriorSpec(1e305, 1e-300, 1e305, 1e-300, 1e305, 1e-300)

    @pytest.mark.filterwarnings("error")
    def test_log_normaliser_on_python_floats(self, data):
        for prior in (PriorSpec(), PRIOR, PriorSpec(np.float64(1e305), 0.5, 2.0, np.float64(1e300), 1.5, 0.3)):
            expected = sum(s * math.log(r) - math.lgamma(s) for s, r in zip(prior.shapes.tolist(), prior.rates.tolist()))
            assert type(prior._log_norm) is float and prior._log_norm == expected
        big = PriorSpec(c_shape=1e305)
        assert math.isfinite(log_posterior(TRUTH, data, big))
        chain = run_mcmc(data, big, McmcConfig(n_iter=300, burn_in=100, seed=1))
        assert np.all(np.isfinite(chain.draws))

    def test_log_density_matches_scipy(self):
        theta = np.array([0.7, 2.2, 1.1])
        expected = sum(
            stats.gamma(a=shape, scale=1 / rate).logpdf(v)
            for shape, rate, v in zip(PRIOR.shapes, PRIOR.rates, theta)
        )
        assert PRIOR.log_density(theta) == pytest.approx(expected, rel=1e-12)


class TestLogPosterior:
    def test_proportionality_constant(self, data):
        rng = np.random.default_rng(3)
        diffs = []
        for _ in range(50):
            th = KumIwParams(*np.exp(rng.normal(0.0, 0.5, 3)))
            lp = log_posterior(th, data, PRIOR)
            ll = float(np.sum(log_pdf(th, data.times)))
            diffs.append(lp - ll - PRIOR.log_density(th.as_array()))
        assert max(diffs) - min(diffs) <= 1e-9

    def test_single_observation_hand_value(self):
        d = CensoredDataset.from_arrays([1.0], [1])
        prior = PriorSpec(1, 1, 1, 1, 1, 1)
        # log f(1) = -1 under (1,1,1); each Gamma(1,1) log-density at 1 is -1
        assert log_posterior(KumIwParams(1, 1, 1), d, prior) == pytest.approx(-4.0, rel=1e-13, abs=0)

    def test_flat_prior_argmax_matches_mle(self):
        d = simulate_censored(TRUTH, 250, 0.0, 55)
        flat = PriorSpec(1, 1e-9, 1, 1e-9, 1, 1e-9)
        fit = fit_mle(d)

        def neg_lp(phi):
            return -log_posterior(KumIwParams(*np.exp(phi)), d, flat)

        res = optimize.minimize(
            neg_lp, np.log(fit.params.as_array()), method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
        )
        post_mode = np.exp(res.x)
        np.testing.assert_allclose(post_mode, fit.params.as_array(), rtol=1e-4)

    def test_weight_zero_is_prior_only(self, data):
        th = KumIwParams(1.4, 2.0, 0.9)
        assert log_posterior(th, data, PRIOR, likelihood_weight=0.0) == pytest.approx(
            PRIOR.log_density(th.as_array()), rel=1e-14, abs=0
        )


class TestFullConditionals:
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_sweep_constant_offset(self, which, data):
        base = [2.0, 1.5, 3.0]
        diffs = []
        for v in np.linspace(0.4, 4.5, 20):
            theta = base.copy()
            theta[which] = v
            others = tuple(x for i, x in enumerate(theta) if i != which)
            cond = full_conditional_log(which, v, others, data, PRIOR)
            joint = log_posterior(KumIwParams(*theta), data, PRIOR)
            diffs.append(cond - joint)
        assert max(diffs) - min(diffs) <= 1e-9

    def test_sweep_constant_offset_censored(self):
        d = simulate_censored(TRUTH, 60, 0.3, 22)
        diffs = []
        for v in np.linspace(0.5, 4.0, 15):
            cond = full_conditional_log(2, v, (2.0, 1.5), d, PRIOR)
            joint = log_posterior(KumIwParams(2.0, 1.5, v), d, PRIOR)
            diffs.append(cond - joint)
        assert max(diffs) - min(diffs) <= 1e-9

    def test_difference_matches_joint_difference(self, data):
        cond_gap = full_conditional_log(0, 2.0, (1.5, 3.0), data, PRIOR) - full_conditional_log(
            0, 1.0, (1.5, 3.0), data, PRIOR
        )
        joint_gap = log_posterior(KumIwParams(2.0, 1.5, 3.0), data, PRIOR) - log_posterior(
            KumIwParams(1.0, 1.5, 3.0), data, PRIOR
        )
        assert cond_gap == pytest.approx(joint_gap, abs=1e-9)

    def test_invalid_index(self, data):
        with pytest.raises(ValueError):
            full_conditional_log(3, 1.0, (1.0, 1.0), data, PRIOR)

    @pytest.mark.parametrize("bad", ["1", None, True])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_not_a_number_rejected(self, data, slot, bad):
        # slot 0 is the value, 1 and 2 the others
        args = [2.0, 1.5, 3.0]
        args[slot] = bad
        with pytest.raises(ValueError, match="^value and others must be numbers"):
            full_conditional_log(0, args[0], (args[1], args[2]), data, PRIOR)


class TestAcceptProbability:
    def test_detailed_balance_form(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            lt_cur, lt_prop = rng.normal(-50, 10, 2)
            lc, lp = rng.normal(0, 1, 2)
            a = rw_accept_probability(lt_cur, lt_prop, lc, lp)
            expected = min(1.0, math.exp((lt_prop - lt_cur) + (lp - lc)))
            assert 0.0 <= a <= 1.0
            assert a == pytest.approx(expected, rel=1e-12, abs=0)

    def test_infinite_cases(self):
        assert rw_accept_probability(-10.0, -math.inf, 0.0, 1.0) == 0.0
        assert rw_accept_probability(-math.inf, -10.0, 0.0, 1.0) == 1.0

    def test_nan_target_counts_as_minus_inf(self):
        assert rw_accept_probability(0.0, math.nan, 0.0, 0.0) == 0.0
        assert rw_accept_probability(math.nan, 0.0, 0.0, 0.0) == 1.0
        assert rw_accept_probability(math.nan, math.nan, 0.0, 0.0) == 0.0
        assert rw_accept_probability(-math.inf, math.nan, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("args", [
        (math.inf, math.inf, 0.0, 0.0),
        (0.0, 0.0, math.inf, math.inf),
        (0.0, 0.0, 0.0, math.nan),
        (0.0, 0.0, math.nan, 0.0),
    ])
    def test_nan_log_ratio_rejects(self, args):
        # inf - inf or a nan position: the log ratio is nan
        assert rw_accept_probability(*args) == 0.0


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0, "1", None, True])
class TestLikelihoodWeightValidated:
    def test_log_posterior(self, data, weight):
        with pytest.raises(ValueError, match="likelihood_weight"):
            log_posterior(TRUTH, data, PRIOR, likelihood_weight=weight)

    def test_run_mcmc(self, data, weight):
        with pytest.raises(ValueError, match="likelihood_weight"):
            run_mcmc(data, PRIOR, McmcConfig(n_iter=20, burn_in=10), likelihood_weight=weight)


class TestRunMcmc:
    def test_chain_length_one(self, data):
        cfg = McmcConfig(n_iter=11, burn_in=10, thin=1, seed=5)
        chain = run_mcmc(data, PRIOR, cfg)
        assert len(chain) == 1

    def test_deterministic(self, data):
        cfg = McmcConfig(n_iter=1200, burn_in=300, thin=2, seed=9)
        c1 = run_mcmc(data, PRIOR, cfg)
        c2 = run_mcmc(data, PRIOR, cfg)
        np.testing.assert_array_equal(c1.draws, c2.draws)
        np.testing.assert_array_equal(c1.log_post_trace, c2.log_post_trace)

    def test_parameter_draws_are_the_columns(self, data):
        chain = run_mcmc(data, PRIOR, McmcConfig(n_iter=60, burn_in=10, thin=1, seed=5))
        for column, name in enumerate(("b", "c", "beta")):
            np.testing.assert_array_equal(chain.parameter_draws(name), chain.draws[:, column])
        with pytest.raises(ValueError):
            chain.parameter_draws("alpha")

    def test_acceptance_rates_in_unit_interval(self, data):
        cfg = McmcConfig(n_iter=2000, burn_in=500, thin=1, seed=13)
        chain = run_mcmc(data, PRIOR, cfg)
        assert np.all(chain.acceptance_rates >= 0) and np.all(chain.acceptance_rates <= 1)

    @pytest.mark.parametrize("censor_rate", [0.0, 0.3])
    @pytest.mark.parametrize("weight", [1.0, 0.5, 0.0])
    def test_stored_log_post_is_the_target(self, censor_rate, weight):
        # the chain carries likelihood terms from one update to the next;
        # every stored value must still be the log-posterior of its draw
        d = simulate_censored(TRUTH, 60, censor_rate, 23)
        cfg = McmcConfig(n_iter=400, burn_in=100, thin=1, seed=17)
        chain = run_mcmc(d, PRIOR, cfg, likelihood_weight=weight)
        expected = [log_posterior(KumIwParams(*draw), d, PRIOR, weight) for draw in chain.draws]
        np.testing.assert_allclose(chain.log_post_trace, expected, rtol=0, atol=1e-9)

    def test_b_moves_reuse_cached_terms(self, data, monkeypatch):
        passes = []
        terms_rows = _Loglik.terms_rows

        def counted(self, cs, betas):
            passes.append(len(cs))
            return terms_rows(self, cs, betas)

        monkeypatch.setattr(_Loglik, "terms_rows", counted)
        cfg = McmcConfig(n_iter=300, burn_in=100, thin=1, seed=19)
        run_mcmc(data, PRIOR, cfg)
        # one pass over the data at the start; then every proposal is a row
        # of a pass that evaluates up to 4 of them, and b is drawn from the
        # proposal's own row
        rows = sum(passes)
        assert rows >= 1 + cfg.n_iter
        assert len(passes) < rows
        assert max(passes) == bayes._depth(len(data)) == 4
        passes.clear()
        run_mcmc(data, PRIOR, cfg, likelihood_weight=0.0)
        assert passes == []

    def test_short_burn_in_warns_and_changes_no_draw(self, data):
        # a burn-in below one 200-iteration window holds no window to adapt
        # on: the chain is the unadapted one, and warnings says so
        cfg = McmcConfig(n_iter=400, burn_in=100, thin=1, seed=19)
        chain = run_mcmc(data, PRIOR, cfg)
        fixed = run_mcmc(data, PRIOR, McmcConfig(n_iter=400, burn_in=100, thin=1, seed=19, adapt=False))
        assert chain.warnings == [
            "burn-in of 100 iterations is shorter than one 200-iteration adaptation window: "
            "the proposal was not adapted"
        ]
        assert fixed.warnings == []
        for name in ("draws", "log_post_trace", "acceptance_rates", "proposal_scales"):
            assert np.array_equal(getattr(chain, name), getattr(fixed, name), equal_nan=True), name

    def test_stuck_chain_warns(self):
        # at n = 10^4 the posterior is far narrower than the unadapted
        # proposal (sd 0.5 on log c and log beta): these seeds accept 0-3
        # of the 200 moves after burn-in, and each chain says so once
        d = simulate_censored(TRUTH, 10_000, 0.2, 31)
        for seed in range(1, 7):
            chain = run_mcmc(d, PriorSpec(), McmcConfig(n_iter=300, burn_in=100, seed=seed))
            rate = chain.acceptance_rates[0]
            assert rate < 0.05
            assert [w for w in chain.warnings if "acceptance rate" in w] == [
                f"(b, c, beta): post-burn-in acceptance rate {rate:.3g} is below 0.05: "
                "the chain is nearly stuck and its draws are no usable posterior sample"
            ]

    # run_mcmc's documented warnings at burn-in 200, one full window
    DOCUMENTED = re.compile(
        r"\(b, c, beta\): (no acceptances in adaptation window ending at iteration 200"
        r"|post-burn-in acceptance rate \S+ is below 0\.05: the chain is nearly stuck "
        r"and its draws are no usable posterior sample)"
    )

    @settings(max_examples=100, deadline=None)
    @given(d=probe_data(), seed=st.integers(0, 2**32 - 1))
    def test_short_chains_on_the_fit_probe_space(self, d, seed):
        # ROADMAP item 17's probe space; no data set there is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = run_mcmc(d, PriorSpec(), McmcConfig(n_iter=400, burn_in=200, thin=1, seed=seed))
        assert chain.draws.shape == (200, 3)
        assert np.isfinite(chain.draws).all() and (chain.draws > 0).all()
        assert ((0 <= chain.acceptance_rates) & (chain.acceptance_rates <= 1)).all()
        for warning in chain.warnings:
            assert self.DOCUMENTED.fullmatch(warning), warning

    def test_b_overflow_rejects_the_move(self):
        # the b prior's mean is beyond the float range, so b' = g / rate
        # can overflow to inf: that rejects the move as an underflow to 0
        # does, and a chain that can hardly move says it is stuck
        d = simulate_censored(KumIwParams(2, 1.5, 3), 60, 0.2, 3)
        cfg = McmcConfig(n_iter=600, burn_in=400, thin=1, seed=1)
        chain = run_mcmc(d, PriorSpec(b_shape=2.5e305), cfg)
        assert np.isfinite(chain.draws).all() and np.isfinite(chain.log_post_trace).all()
        assert any("the chain is nearly stuck" in w for w in chain.warnings)

    @pytest.mark.dispatch
    @pytest.mark.parametrize("weight", [1.0, 0.5])
    def test_kept_log_post_is_the_log_posterior_of_its_draw(self, weight):
        # the log-posterior is taken only for the states that kept draws
        # hold; at thin 7 most accepted states are never kept, and each
        # stored value must be log_posterior at its draw, bit for bit
        d = simulate_censored(TRUTH, 60, 0.2, 31)
        cfg = McmcConfig(n_iter=1500, burn_in=400, thin=7, seed=3)
        chain = run_mcmc(d, PRIOR, cfg, likelihood_weight=weight)
        accepted = round(chain.acceptance_rates[0] * (cfg.n_iter - cfg.burn_in))
        assert accepted > 2 * len({tuple(draw) for draw in chain.draws.tolist()})
        expected = [log_posterior(KumIwParams(*draw), d, PRIOR, weight) for draw in chain.draws]
        assert chain.log_post_trace.tolist() == expected

    def test_cut_burn_in_window_warns_and_is_not_adapted_on(self):
        # at burn-in 350 the last window, iterations 200-349, is cut: the
        # proposal adapts at 200 only, as it does at burn-in 200
        d = simulate_censored(TRUTH, 300, 0.2, 31)
        chain = run_mcmc(d, PRIOR, McmcConfig(n_iter=600, burn_in=350, thin=1, seed=5))
        whole = run_mcmc(d, PRIOR, McmcConfig(n_iter=600, burn_in=200, thin=1, seed=5))
        assert [w for w in chain.warnings if "burn-in" in w] == [
            "the last 150 burn-in iterations (200-349) are shorter than one 200-iteration "
            "adaptation window: the proposal was not adapted on them"
        ]
        assert np.array_equal(chain.proposal_scales, whole.proposal_scales, equal_nan=True)

    @pytest.mark.parametrize("burn_in", [0, 200, 400])
    def test_no_short_burn_in_warning(self, data, burn_in):
        cfg = McmcConfig(n_iter=max(400, burn_in + 200), burn_in=burn_in, thin=1, seed=19)
        chain = run_mcmc(data, PRIOR, cfg)
        assert not any("burn-in" in warning for warning in chain.warnings)

    def test_proposals_beyond_float_range_are_rejected(self, data):
        # steps of e^(1e6) overflow c or beta to inf or underflow them to 0;
        # such proposals have prior -inf and are rejected without a warning
        cfg = McmcConfig(n_iter=200, burn_in=100, thin=1, seed=3,
                         proposal_scales=(0.5, 1e6, 1e6), adapt=False)
        chain = run_mcmc(data, PRIOR, cfg)
        assert np.all(np.isfinite(chain.draws)) and np.all(chain.draws > 0)
        assert np.all(chain.acceptance_rates == 0.0)

    def test_b_draws_below_float_range_are_rejected(self):
        # half of Gamma(0.001) lies below the smallest float; a b' that
        # underflows to 0 rejects the move instead of storing b = 0
        dummy = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 1])
        prior = PriorSpec(b_shape=0.001, b_rate=1.0)
        cfg = McmcConfig(n_iter=600, burn_in=100, thin=1, seed=5)
        chain = run_mcmc(dummy, prior, cfg, likelihood_weight=0.0)
        assert np.all(chain.draws > 0)
        assert 0.0 < chain.acceptance_rates[0] < 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(n_iter=100, burn_in=100)
        with pytest.raises(ValueError):
            McmcConfig(thin=0)
        with pytest.raises(ValueError):
            McmcConfig(proposal_scales=(0.1, 0.1))

    @pytest.mark.parametrize("name, bad", [
        ("n_iter", 100.0), ("burn_in", 10.5), ("thin", 2.0), ("seed", 1.5),
        ("n_iter", True), ("seed", False), ("thin", np.float64(3.0)), ("seed", "7"),
    ])
    def test_counts_and_seed_must_be_integers(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            McmcConfig(**{name: bad})

    def test_numpy_integers_accepted_as_ints(self):
        cfg = McmcConfig(n_iter=np.int64(300), burn_in=np.int32(100), thin=np.uint8(3),
                         seed=np.int64(4))
        assert cfg == McmcConfig(n_iter=300, burn_in=100, thin=3, seed=4)
        assert all(type(v) is int for v in (cfg.n_iter, cfg.burn_in, cfg.thin, cfg.seed))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            McmcConfig(seed=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, 0.0, "1", None, True])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_scales_rejected(self, bad, slot):
        scales = [0.5, 0.5, 0.5]
        scales[slot] = bad
        with pytest.raises(ValueError, match=rf"^proposal_scales\[{slot}\] must be finite and > 0, got {bad}$"):
            McmcConfig(proposal_scales=tuple(scales))

    @pytest.mark.parametrize("bad", [1e200, 1.35e154, 1e-300, 1.49e-154, 5e-324])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_scales_whose_square_is_not_normal_rejected(self, bad, slot):
        # at 1e200 chol @ chol.T overflowed and the adapted scales read nan;
        # at 1e-300 the clip to 1e-3 divided by a zero sd
        scales = [0.5, 0.5, 0.5]
        scales[slot] = bad
        with pytest.raises(ValueError, match=rf"^proposal_scales\[{slot}\] squared must be a normal float"):
            McmcConfig(proposal_scales=tuple(scales))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scales", [(0.5, 1.34e154, 1.34e154), (0.5, 1.5e-154, 1.5e-154), (0.5, 1.5e-154, 1.34e154)])
    def test_extreme_accepted_scales_adapt_without_warning(self, data, scales):
        cfg = McmcConfig(n_iter=800, burn_in=600, seed=2, proposal_scales=scales)
        chain = run_mcmc(data, PRIOR, cfg)
        assert np.all(np.isfinite(chain.draws)) and np.all(np.isfinite(chain.proposal_scales[1:]))

    @pytest.mark.parametrize("bad", [None, 0.5, (0.5, 0.5)])
    def test_scales_must_be_three(self, bad):
        with pytest.raises(ValueError, match="^proposal_scales must be 3 finite positive reals"):
            McmcConfig(proposal_scales=bad)

    def test_prior_recovery_with_likelihood_off(self):
        dummy = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 1])
        prior = PriorSpec(2.0, 1.0, 3.0, 0.5, 1.5, 2.0)
        cfg = McmcConfig(n_iter=2000 + 10_000 * 10, burn_in=2000, thin=10, seed=77)
        chain = run_mcmc(dummy, prior, cfg, likelihood_weight=0.0)
        assert len(chain) == 10_000
        for j, (shape, rate) in enumerate(zip(prior.shapes, prior.rates)):
            ks = stats.kstest(chain.draws[:, j], stats.gamma(a=shape, scale=1 / rate).cdf)
            assert ks.statistic < 0.05

    def test_log_post_trace_stabilizes(self, data):
        cfg = McmcConfig(n_iter=6000, burn_in=2000, thin=1, seed=101)
        chain = run_mcmc(data, PRIOR, cfg)
        trace = chain.log_post_trace
        half = len(trace) // 2
        first, second = trace[:half], trace[half:]
        pooled_se = math.sqrt(np.var(first) / half + np.var(second) / half)
        # crude stationarity gate: split means within 3 naive standard errors,
        # inflated for autocorrelation
        assert abs(np.mean(first) - np.mean(second)) < 3 * pooled_se * 10


    @pytest.mark.parametrize("s", [1e-3, 7.0, 1e4])
    def test_scale_equivariance(self, s):
        # times times s with the c prior's rate over s: the sampler sees c / t
        # and c_rate * c only, so the seeded chain's c draws scale by s, its b
        # and beta draws and acceptances do not move, and the log-posterior
        # shifts by -(r + 1) log s (the densities' and the c prior's Jacobians).
        # Measured worst gaps on this set: 6.2e-14 relative (draws) and
        # 3.2e-12 absolute (log-posterior, values about -500); the bounds are
        # 16x and 30x that.  Rounding could flip an accept decision, so the
        # data and seeds stay fixed.
        d = simulate_censored(TRUTH, 300, 0.2, 31)
        scaled = CensoredDataset.from_arrays(d.times * s, d.event_mask)
        cfg = McmcConfig(n_iter=3000, burn_in=1000, thin=1, seed=5)
        base = run_mcmc(d, PRIOR, cfg)
        chain = run_mcmc(scaled, dataclasses.replace(PRIOR, c_rate=PRIOR.c_rate / s), cfg)
        np.testing.assert_allclose(chain.draws, base.draws * [1.0, s, 1.0], rtol=1e-12, atol=0)
        r = int(d.event_mask.sum())
        np.testing.assert_allclose(
            chain.log_post_trace, base.log_post_trace - (r + 1) * math.log(s), rtol=0, atol=1e-10
        )
        assert np.array_equal(chain.acceptance_rates, base.acceptance_rates)
        assert 0.0 < base.acceptance_rates[0] < 1.0


@pytest.mark.dispatch
class TestReferenceLoop:
    """The loop keeps one state list per segment; the chain must be bit for
    bit the one of the earlier loop with a thinning cursor, a window list
    and split acceptance counters (``oracles.reference_run_mcmc``)."""

    # burn-in with no window, a short one, one whole window, a cut last
    # window and two whole windows; 203 iterations after burn-in leave a
    # last segment of 3, shorter than a thin of 7
    GRID = list(itertools.product([0, 100, 200, 350, 400], [1, 3, 7], [True, False]))

    @pytest.mark.parametrize("censor_rate", [0.0, 0.3])
    @pytest.mark.parametrize("weight", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("n", [5, 300, 2000])
    def test_chain_matches_reference(self, n, weight, censor_rate):
        d = simulate_censored(TRUTH, n, censor_rate, 3)
        assert bayes._depth(n) == {5: 4, 300: 4, 2000: 1}[n]
        for burn_in, thin, adapt in self.GRID:
            cfg = McmcConfig(n_iter=burn_in + 203, burn_in=burn_in, thin=thin, seed=11, adapt=adapt)
            chain = run_mcmc(d, PRIOR, cfg, likelihood_weight=weight)
            ref = reference_run_mcmc(d, PRIOR, cfg, likelihood_weight=weight)
            for name in ("draws", "log_post_trace", "iterations", "acceptance_rates",
                         "proposal_scales"):
                assert np.array_equal(getattr(chain, name), getattr(ref, name), equal_nan=True), (
                    name, burn_in, thin, adapt)
            assert chain.warnings == ref.warnings, (burn_in, thin, adapt)


@pytest.mark.dispatch
class TestSpeculationDepth:
    """A pass evaluates the next k proposals as if each were rejected; the
    chain must be bit for bit the one that evaluates them one at a time."""

    @pytest.mark.parametrize("censored", [False, True], ids=["n=80", "n=60-censored"])
    @pytest.mark.parametrize("weight", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("adapt", [True, False])
    def test_chain_does_not_depend_on_depth(self, data, censored, weight, adapt, monkeypatch):
        d = simulate_censored(TRUTH, 60, 0.3, 23) if censored else data
        # burn-in ends inside an adaptation window, and the 653 iterations
        # after it are no multiple of the depth
        cfg = McmcConfig(n_iter=1003, burn_in=350, thin=3, seed=41, adapt=adapt)
        assert bayes._depth(len(d)) == 4
        deep = run_mcmc(d, PRIOR, cfg, likelihood_weight=weight)
        monkeypatch.setattr(bayes, "_depth", lambda n: 1)
        single = run_mcmc(d, PRIOR, cfg, likelihood_weight=weight)
        for name in ("draws", "log_post_trace", "iterations", "acceptance_rates",
                     "proposal_scales"):
            assert np.array_equal(getattr(deep, name), getattr(single, name), equal_nan=True), name
        assert deep.warnings == single.warnings
        assert 0.0 < deep.acceptance_rates[0] < 1.0


# the degenerate sets of the ceiling's property: ties, fewer rows than
# bins (one row a bin), no events, no censorings
_TIES = CensoredDataset.from_arrays([1.0] * 40 + [2.5] * 25 + [0.3] * 5, [1, 0] * 35)
_FEW_ROWS = simulate_censored(TRUTH, 20, 0.3, 5)
_NO_EVENTS = CensoredDataset.from_arrays([0.5, 1.0, 1.0, 4.0], [0, 0, 0, 0])
_NO_CENSORINGS = simulate_censored(TRUTH, 100, 0.0, 6)
_WIDE = st.floats(math.log(1e-300), math.log(1e300)).map(math.exp)


class TestScreen:
    """A proposal whose ceiling already fails the Metropolis test is rejected
    without a pass; the ceiling must bound the target, and the chain must
    be the earlier loop's bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        d=st.one_of(probe_data(), st.sampled_from([_TIES, _FEW_ROWS, _NO_EVENTS, _NO_CENSORINGS])),
        weight=st.sampled_from([1.0, 0.5]),
        prior=st.sampled_from([PriorSpec(), PRIOR]),
        # from the box to c and beta where x overflows or is subnormal
        c=st.one_of(LOG_UNIFORM, _WIDE),
        beta=st.one_of(LOG_UNIFORM, st.floats(math.log(1e-3), math.log(1e4)).map(math.exp)),
        shift=st.floats(-50.0, 50.0),
        jacobian=st.floats(-5.0, 5.0),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_ceiling_bounds_the_target(self, d, weight, prior, c, beta, shift, jacobian, u):
        ll = _Loglik(d)
        _, target = _collapsed_target(prior, ll, weight)
        terms = ll.terms(c, beta)
        lt = target(c, beta, terms)[0]
        # the bins' bounds on the terms: sum x_f from below, S_f, S_c and
        # A = -(S_f + S_c) from above (A by the chord), up to rounding
        sum_x_f, s_f, s_c = terms
        exact = (-sum_x_f, s_f, s_c, -(s_f + s_c))
        bounds = ll.term_bounds(c, beta, bayes._SCREEN_BINS)
        for bound, value in zip((-bounds[0], *bounds[1:]), exact):
            if math.isfinite(bound) and math.isfinite(value):
                assert bound >= value - 1e-12 * (1.0 + abs(value)), (bounds, terms)
        ceiling = bayes._ceiling(ll, target, c, beta)
        if math.isfinite(lt) and not math.isnan(ceiling):
            # up to the screen's allowance for the two sides' rounding
            allowance = bayes._SCREEN_SLACK * (1.0 + abs(ceiling) + abs(lt))
            assert ceiling + allowance >= lt, (ceiling, lt)
        # screened means rejected: u is at least the acceptance probability
        # the pass would give, from any current target
        lt_cur = lt + shift if math.isfinite(lt) else shift
        if bayes._screened(lt_cur, ceiling, 0.0, jacobian, u):
            assert u >= rw_accept_probability(lt_cur, lt, 0.0, jacobian)
        for unusable in (math.nan, math.inf, -math.inf):
            assert not bayes._screened(lt_cur, unusable, 0.0, jacobian, u)

    @pytest.mark.dispatch
    @pytest.mark.parametrize("n_iter, burn_in, thin, censor_rate", [
        (300, 100, 2, 0.2),  # cli-pipeline's fit-bayes
        (1603, 800, 3, 0.2),
        (1603, 800, 3, 0.7),
    ])
    def test_chain_at_ten_thousand_rows_is_the_reference(
        self, n_iter, burn_in, thin, censor_rate, monkeypatch
    ):
        d = simulate_censored(TRUTH, 10_000, censor_rate, 36)
        assert bayes._depth(len(d)) == 1
        passes = []
        terms_rows = _Loglik.terms_rows

        def counted(self, cs, betas):
            passes.append(len(cs))
            return terms_rows(self, cs, betas)

        cfg = McmcConfig(n_iter=n_iter, burn_in=burn_in, thin=thin, seed=17)
        with monkeypatch.context() as patch:
            patch.setattr(_Loglik, "terms_rows", counted)
            chain = run_mcmc(d, PriorSpec(), cfg)
        ref = reference_run_mcmc(d, PriorSpec(), cfg)
        for name in ("draws", "log_post_trace", "iterations", "acceptance_rates", "proposal_scales"):
            assert np.array_equal(getattr(chain, name), getattr(ref, name), equal_nan=True), name
        assert chain.warnings == ref.warnings
        if n_iter == 300:
            # the start's pass and the proposals the screen leaves, of 300
            assert len(passes) <= 30
        else:
            assert 0.0 < chain.acceptance_rates[0] < 1.0


class TestCollapsedTarget:
    POINTS = [(1.5, 3.0), (1.2, 2.4), (2.1, 3.6), (1.7, 1.8)]

    @staticmethod
    def b_integrals(d, w, c, beta, shape, rate):
        """log of the integral over b of exp(log_posterior), and the mean and
        variance of b | c, beta, by quadrature in u = log b around the
        log of the conditional mean."""
        center = math.log(shape / rate)

        def log_integrand(u):
            return log_posterior(KumIwParams(math.exp(u), c, beta), d, PRIOR, w) + u

        ref = log_integrand(center)
        moments = [
            integrate.quad(
                lambda u, k=k: math.exp(k * u + log_integrand(u) - ref),
                center - 40.0, center + 40.0, points=[center], epsabs=0.0, epsrel=1e-13,
                limit=400,
            )[0]
            for k in range(3)
        ]
        mean = moments[1] / moments[0]
        return ref + math.log(moments[0]), mean, moments[2] / moments[0] - mean**2

    @pytest.mark.parametrize("censor_rate", [0.0, 0.3])
    @pytest.mark.parametrize("weight", [1.0, 0.5])
    def test_marginal_and_b_conditional_match_quadrature(self, censor_rate, weight):
        d = simulate_censored(TRUTH, 60, censor_rate, 23)
        ll = _Loglik(d)
        shape, collapsed = _collapsed_target(PRIOR, ll, weight)
        offsets = []
        for c, beta in self.POINTS:
            target, rate = collapsed(c, beta, ll.terms(c, beta))
            log_int, mean, var = self.b_integrals(d, weight, c, beta, shape, rate)
            offsets.append(target - log_int)
            assert shape / rate == pytest.approx(mean, rel=1e-8)
            assert shape / rate**2 == pytest.approx(var, rel=1e-8)
        # the collapsed target is the b-marginal up to one constant
        np.testing.assert_allclose(offsets, offsets[0], rtol=1e-8)

    def test_unusable_terms_give_minus_inf(self):
        _, collapsed = _collapsed_target(PRIOR, _Loglik(SMALL_CENSORED), 1.0)
        target, _ = collapsed(1.5, 3.0, (1.0, -math.inf, -1.0))
        assert target == -math.inf
        target, _ = collapsed(1.5, 3.0, (1.0, math.nan, -1.0))
        assert target == -math.inf

    # shapes below, at and above 1 (the b prior at b = 1 takes 0 * log 1 = +-0)
    PRIORS = [PriorSpec(), PRIOR, PriorSpec(0.4, 2.5, 0.7, 3.0, 5.0, 1e-6)]
    DATA = [SMALL_CENSORED, CensoredDataset.from_arrays([0.5, 1.0, 2.0], [0, 0, 0])]
    EDGES = st.sampled_from([0.0, math.inf, 5e-324, 1e-300, 1e300])
    TERM = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-300]),
    )

    @settings(max_examples=1000, deadline=None)
    @given(
        weight=st.sampled_from([0.0, 0.5, 1.0]),
        prior=st.sampled_from(PRIORS),
        data=st.sampled_from(DATA),
        c=st.one_of(LOG_UNIFORM, EDGES),
        beta=st.one_of(LOG_UNIFORM, EDGES),
        own_terms=st.booleans(),
        terms=st.tuples(TERM, TERM, TERM),
    )
    def test_target_is_the_reference_bit_for_bit(
        self, weight, prior, data, c, beta, own_terms, terms
    ):
        # the target built once per chain against the earlier per-call one,
        # on the data's own terms at (c, beta) or on any terms: nan, +-inf
        # and sums that make the rate <= 0 or inf
        ll = _Loglik(data)
        if own_terms and 0.0 < c < math.inf and 0.0 < beta < math.inf:
            terms = ll.terms(c, beta)
        shape, collapsed = _collapsed_target(prior, ll, weight)
        target, rate = collapsed(c, beta, terms)
        ref_target, ref_shape, ref_rate = reference_collapsed(prior, ll, weight, c, beta, terms)
        assert struct.pack("<dd", target, rate) == struct.pack("<dd", ref_target, ref_rate)
        assert shape == prior.b_shape + weight * ll.r
        if ref_target > -math.inf:
            assert shape == ref_shape


class TestPosteriorMoments:
    def test_chain_means_match_quadrature_and_mix(self):
        # 20%-censored n = 300: strongly correlated (b, c, beta), where
        # one-coordinate moves stall
        d = simulate_censored(TRUTH, 300, 0.2, 31)
        expected, edge = collapsed_posterior_moments(d, PRIOR, points=200)
        assert edge < 1e-5
        cfg = McmcConfig(n_iter=42_000, burn_in=2_000, thin=1, seed=7)
        draws = run_mcmc(d, PRIOR, cfg).draws
        batches = draws.reshape(40, -1, 3)
        batch_means = batches.mean(axis=1)
        mcse = batch_means.std(axis=0, ddof=1) / math.sqrt(len(batch_means))
        assert np.all(np.abs(draws.mean(axis=0) - expected) <= 4.0 * mcse)
        # batch-means ESS per draw, min over b, c and beta
        ess_per_draw = draws.var(axis=0) / (batches.shape[1] * batch_means.var(axis=0, ddof=1))
        assert ess_per_draw.min() >= ESS_PER_DRAW_FLOOR


class TestSummarize:
    def test_columns(self, data):
        cfg = McmcConfig(n_iter=600, burn_in=100, thin=1, seed=3)
        rows = summarize(run_mcmc(data, PRIOR, cfg))
        assert [r["Parameter"] for r in rows] == ["b", "c", "beta"]
        for row in rows:
            assert tuple(row.keys()) == SUMMARY_COLUMNS

    def test_constant_chain(self):
        chain = McmcChain(
            draws=np.tile([2.0, 1.0, 3.0], (50, 1)),
            log_post_trace=np.zeros(50),
            iterations=np.arange(50),
            acceptance_rates=np.zeros(3),
            proposal_scales=np.ones(3),
        )
        rows = summarize(chain)
        assert rows[0]["SD"] == 0.0
        assert rows[0]["Mean"] == rows[0]["Median"] == rows[0]["2.5%"] == rows[0]["97.5%"] == 2.0

    def test_small_chain_quantiles(self):
        draws = np.column_stack([np.arange(1.0, 6.0)] * 3)
        chain = McmcChain(
            draws=draws,
            log_post_trace=np.zeros(5),
            iterations=np.arange(5),
            acceptance_rates=np.zeros(3),
            proposal_scales=np.ones(3),
        )
        rows = summarize(chain)
        assert rows[0]["Mean"] == 3.0 and rows[0]["Median"] == 3.0

    def test_chain_csv_roundtrip(self, tmp_path, data):
        cfg = McmcConfig(n_iter=300, burn_in=100, thin=2, seed=31)
        chain = run_mcmc(data, PRIOR, cfg)
        path = tmp_path / "chain.csv"
        write_chain_csv(chain, path)
        loaded = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(loaded["b"], chain.draws[:, 0], rtol=1e-15)
        np.testing.assert_allclose(loaded["log_post"], chain.log_post_trace, rtol=1e-15)

    def test_chain_csv_bytes(self, tmp_path, data):
        special = McmcChain(
            draws=np.array([[math.nan, math.inf, -math.inf], [-0.0, 1e16, 5e-324], [0.1, 2.0, 1 / 3]]),
            log_post_trace=np.array([-math.inf, -0.0, -1234.5678901234567]),
            iterations=np.arange(7, 10),
            acceptance_rates=np.zeros(3),
            proposal_scales=np.ones(3),
        )
        seeded = run_mcmc(data, PRIOR, McmcConfig(n_iter=3000, burn_in=1000, thin=1, seed=31))
        for i, chain in enumerate((seeded, special)):
            path = tmp_path / f"chain{i}.csv"
            write_chain_csv(chain, path)
            # the iteration, then each value as %.17g
            want = "iter,b,c,beta,log_post\n" + "".join(
                f"{it},{b:.17g},{c:.17g},{beta:.17g},{lp:.17g}\n"
                for it, (b, c, beta), lp in zip(chain.iterations, chain.draws, chain.log_post_trace)
            )
            assert path.read_bytes() == want.encode()


class TestRecovery:
    def test_posterior_concentrates_near_truth(self):
        # single-dataset sanity run; the replicate-level calibration lives
        # in the acceptance suite
        d = simulate_censored(TRUTH, 300, 0.0, 9001)
        cfg = McmcConfig(n_iter=9000, burn_in=3000, thin=2, seed=42)
        rows = summarize(run_mcmc(d, PriorSpec(), cfg))
        truth = {"b": 2.0, "c": 1.5, "beta": 3.0}
        for row in rows:
            assert row["2.5%"] <= truth[row["Parameter"]] <= row["97.5%"]
        # c and beta posterior means recover within 20%; b is skew-heavy
        # at this sample size and is only held to its credible interval
        for name in ("c", "beta"):
            row = next(r for r in rows if r["Parameter"] == name)
            assert abs(row["Mean"] - truth[name]) / truth[name] <= 0.2


class TestCachedTermsProperties:
    @settings(max_examples=300, deadline=None)
    @given(b=LOG_UNIFORM, c=LOG_UNIFORM, beta=LOG_UNIFORM)
    def test_loglik_terms_and_scalar_prior(self, b, c, beta):
        ll = _Loglik(SMALL_CENSORED)
        value = ll(b, c, beta)
        assert not math.isnan(value)
        assert value == ll.combine(b, c, beta, ll.terms(c, beta))

        parts = [
            stats.gamma(a=shape, scale=1 / rate).logpdf(v)
            for shape, rate, v in zip(PRIOR.shapes, PRIOR.rates, (b, c, beta))
        ]
        expected = sum(parts)
        prior = PRIOR.log_density((b, c, beta))
        assert math.isfinite(prior) == math.isfinite(expected)
        if math.isfinite(expected):
            # relative to the size of the summands, so that a sum that
            # cancels towards 0 is not held to digits it cannot carry
            assert abs(prior - expected) <= 1e-9 * sum(abs(p) for p in parts)


# ROADMAP item 10 (tests/sweep.py): every scalar argument of the posterior,
# the full conditionals and the sampler (likelihood_weight and init's
# parameters), and of PriorSpec and McmcConfig's proposal_scales entries,
# one at a time from a valid point at (2, 1.5, 3) on SMALL_CENSORED, with
# 60-iteration chains.  Each call returns finite values (a log-density may
# read its limit -inf), or raises ValueError or NumericError, and never
# warns.
SWEEP_CONFIG = McmcConfig(n_iter=60, burn_in=20, thin=2, seed=1)


def log_posterior_at(p, likelihood_weight=1.0, **params):
    return log_posterior(dataclasses.replace(p, **params), SMALL_CENSORED, PRIOR, likelihood_weight)


def full_conditional_at(p, which, value):
    return full_conditional_log(which, value, (p.c, p.beta), SMALL_CENSORED, PRIOR)


def run_mcmc_weighted(p, likelihood_weight):
    return run_mcmc(SMALL_CENSORED, PRIOR, SWEEP_CONFIG, likelihood_weight).draws


def run_mcmc_from(p, **params):
    return run_mcmc(SMALL_CENSORED, PRIOR, SWEEP_CONFIG, init=dataclasses.replace(p, **params)).draws


def prior_spec(p, **hyper):
    return dataclasses.astuple(PriorSpec(**hyper))


def proposal_scales(p, b, c, beta):
    return McmcConfig(proposal_scales=(b, c, beta)).proposal_scales


_TRIPLE = {"b": 2.0, "c": 1.5, "beta": 3.0}
_SWEEP = (
    (log_posterior_at, {**_TRIPLE, "likelihood_weight": 1.0}, set()),
    *((full_conditional_at, {"which": which, "value": 2.0}, {"which"}) for which in range(3)),
    (run_mcmc_weighted, {"likelihood_weight": 1.0}, set()),
    (run_mcmc_from, _TRIPLE, set()),
    (prior_spec, dataclasses.asdict(PRIOR), set()),
    (proposal_scales, {"b": 0.5, "c": 0.5, "beta": 0.5}, set()),
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, kwargs", sweep_cases(_SWEEP))
def test_scalar_argument_contract(fn, kwargs):
    try:
        value = np.asarray(fn(TRUTH, **kwargs), dtype=float)
    except (ValueError, NumericError):
        return
    limit = fn in (log_posterior_at, full_conditional_at)
    assert np.all(np.isfinite(value) | ((value == -np.inf) & limit))

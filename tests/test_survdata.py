import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kumiw import DataError, KumIwParams, survival
from kumiw.survdata import (
    CensoredDataset,
    CensoredObs,
    Status,
    censoring_upper_bound,
    kaplan_meier,
    km_vs_parametric,
    load_csv,
    simulate_censored,
)
from oracles import kaplan_meier_product_limit


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestTypes:
    def test_obs_validation(self):
        CensoredObs(1.0, Status.EVENT)
        with pytest.raises(ValueError):
            CensoredObs(0.0, Status.EVENT)
        with pytest.raises(ValueError):
            CensoredObs(1.0, 1)

    def test_dataset_nonempty(self):
        with pytest.raises(DataError):
            CensoredDataset(())

    def test_from_arrays(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 0, 1])
        assert len(d) == 3 and d.n_events == 2
        np.testing.assert_array_equal(d.event_mask, [True, False, True])

    def test_from_arrays_validates_columns(self):
        with pytest.raises(DataError, match="matching shapes"):
            CensoredDataset.from_arrays([1.0, 2.0], [1])
        with pytest.raises(DataError, match="empty"):
            CensoredDataset.from_arrays([], [])
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and > 0"):
                CensoredDataset.from_arrays([1.0, bad], [1, 1])

    def test_dataset_is_immutable(self):
        times = np.array([1.0, 2.0, 3.0])
        d = CensoredDataset.from_arrays(times, [1, 0, 1])
        with pytest.raises(ValueError):
            d.times[0] = 1.0
        with pytest.raises(ValueError):
            d.event_mask[0] = False
        with pytest.raises(AttributeError):
            d.name = "renamed"
        times[0] = 9.0  # the dataset holds its own copy
        np.testing.assert_array_equal(d.times, [1.0, 2.0, 3.0])

    def test_observations_view_round_trips(self):
        obs = (CensoredObs(2.5, Status.EVENT), CensoredObs(1.0, Status.CENSORED))
        d = CensoredDataset(obs, name="two")
        assert d.observations == obs
        np.testing.assert_array_equal(d.times, [2.5, 1.0])
        np.testing.assert_array_equal(d.event_mask, [True, False])
        same = CensoredDataset.from_arrays([2.5, 1.0], [1, 0], name="two")
        assert same.observations == obs
        assert same == d and hash(same) == hash(d)
        assert pickle.loads(pickle.dumps(d)) == d


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "time,status\n100,1\n150,0\n200,1\n")
        d = load_csv(path)
        assert len(d) == 3 and d.n_events == 2
        np.testing.assert_array_equal(d.times, [100.0, 150.0, 200.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "time,status\n")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_negative_time_names_row(self, tmp_path):
        path = write(tmp_path, "time,status\n10,1\n-5,1\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_blank_lines_keep_file_line_numbers(self, tmp_path):
        path = write(tmp_path, "time,status\n10,1\n\n-5,1\n")
        with pytest.raises(DataError, match="row 4: time must be > 0, got '-5'"):
            load_csv(path)

    def test_first_malformed_row_is_reported(self, tmp_path):
        # each row is checked in file order: time parse, time value, status
        path = write(tmp_path, "time,status\n10,1\n5,7\n-1,1\nabc,1\n")
        with pytest.raises(DataError, match=r"row 3: unknown status code '7' \(expected 0 or 1\)"):
            load_csv(path)
        path = write(tmp_path, "time,status\n10,1\nabc,7\n-1,1\n")
        with pytest.raises(DataError, match="row 3: cannot parse time 'abc'"):
            load_csv(path)
        path = write(tmp_path, "time,status\n10,1\n-1,7\nabc,1\n")
        with pytest.raises(DataError, match="row 3: time must be > 0, got '-1'"):
            load_csv(path)

    def test_short_rows_and_time_only_files(self, tmp_path):
        path = write(tmp_path, "time,status\n10,1\n12\n")
        with pytest.raises(DataError, match="row 3: unknown status code ''"):
            load_csv(path)
        d = load_csv(write(tmp_path, "time\n 3.5 \n1e1\n", name="t.csv"))
        np.testing.assert_array_equal(d.times, [3.5, 10.0])
        assert d.n_events == 2

    def test_unparseable_time_names_row(self, tmp_path):
        path = write(tmp_path, "time,status\nabc,1\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_unknown_status(self, tmp_path):
        path = write(tmp_path, "time,status\n10,2\n")
        with pytest.raises(DataError, match="status"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "t,status\n10,1\n")
        with pytest.raises(DataError, match="missing column"):
            load_csv(path)

    def test_custom_columns_preserve_order(self, tmp_path):
        path = write(tmp_path, "dur,died,extra\n5,1,x\n2,0,y\n", name="c.csv")
        d = load_csv(path, time_col="dur", status_col="died")
        np.testing.assert_array_equal(d.times, [5.0, 2.0])


class TestKaplanMeier:
    def test_all_events_hand_values(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 1])
        km = kaplan_meier(d)
        np.testing.assert_array_equal(km.times, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(km.survival, [2 / 3, 1 / 3, 0.0], atol=1e-15)
        np.testing.assert_array_equal(km.at_risk, [3, 2, 1])

    def test_censored_first_hand_values(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [0, 1, 1])
        km = kaplan_meier(d)
        np.testing.assert_array_equal(km.times, [2.0, 3.0])
        np.testing.assert_allclose(km.survival, [0.5, 0.0], atol=1e-15)

    def test_all_censored_except_last(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 1])
        km = kaplan_meier(d)
        np.testing.assert_array_equal(km.times, [4.0])
        np.testing.assert_allclose(km.survival, [0.0])

    def test_no_events_rejected(self):
        d = CensoredDataset.from_arrays([1.0, 2.0], [0, 0])
        with pytest.raises(DataError):
            kaplan_meier(d)

    def test_matches_empirical_survival_without_censoring(self):
        rng = np.random.default_rng(2)
        times = rng.uniform(0.5, 10.0, 40)
        d = CensoredDataset.from_arrays(times, np.ones(40))
        km = kaplan_meier(d)
        srt = np.sort(times)
        for t in km.times:
            ecdf_surv = np.mean(srt > t)
            assert km.survival_at(t) == pytest.approx(ecdf_surv, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        times = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        events = np.array([1, 0, 1, 1, 0, 1, 1, 1])
        km1 = kaplan_meier(CensoredDataset.from_arrays(times, events))
        perm = rng.permutation(len(times))
        km2 = kaplan_meier(CensoredDataset.from_arrays(times[perm], events[perm]))
        np.testing.assert_array_equal(km1.times, km2.times)
        np.testing.assert_allclose(km1.survival, km2.survival, atol=1e-15)

    def test_late_censoring_adds_no_step(self):
        # a censored subject beyond the last event enlarges every risk set
        # (standard product-limit behaviour) but introduces no new step
        base = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 1])
        extended = CensoredDataset.from_arrays([1.0, 2.0, 3.0, 9.0], [1, 1, 1, 0])
        km1, km2 = kaplan_meier(base), kaplan_meier(extended)
        np.testing.assert_array_equal(km1.times, km2.times)
        np.testing.assert_array_equal(km2.at_risk, [4, 3, 2])
        np.testing.assert_allclose(km2.survival, [3 / 4, 1 / 2, 1 / 4], atol=1e-15)

    def test_tied_events_share_risk_set(self):
        d = CensoredDataset.from_arrays([1.0, 1.0, 2.0, 2.0], [1, 1, 1, 1])
        km = kaplan_meier(d)
        np.testing.assert_array_equal(km.times, [1.0, 2.0])
        np.testing.assert_allclose(km.survival, [0.5, 0.0])
        np.testing.assert_array_equal(km.events, [2, 2])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(1, 6).map(float), st.floats(0.01, 100.0)),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        ).filter(lambda rows: any(event for _, event in rows))
    )
    @example([(2.0, True)] * 4 + [(1.0, True)] * 3 + [(3.0, True)] * 5)  # heavy ties
    @example([(2.0, False), (2.0, True), (1.0, False), (2.0, True), (3.0, False)])
    @example([(1.0, True), (2.0, False), (3.0, False), (4.0, False)])  # censored after the last event
    @example([(5.0, True)])  # n = 1
    def test_matches_product_limit_oracle(self, rows):
        times, events = zip(*rows)
        km = kaplan_meier(CensoredDataset.from_arrays(times, events))
        expected = kaplan_meier_product_limit(times, events)
        for got, want in zip((km.times, km.survival, km.at_risk, km.events), expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_step_evaluation(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 1])
        km = kaplan_meier(d)
        assert km.survival_at(0.5) == 1.0
        assert km.survival_at(1.0) == pytest.approx(2 / 3)
        assert km.survival_at(1.7) == pytest.approx(2 / 3)
        np.testing.assert_allclose(km.survival_at(np.array([2.0, 2.9])), [1 / 3, 1 / 3])


class TestComparison:
    def test_values_are_composed_evaluations(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0], [1, 1, 1])
        p = KumIwParams(2.0, 1.5, 2.2)
        comp = km_vs_parametric(d, p)
        km = kaplan_meier(d)
        np.testing.assert_array_equal(comp.t, km.times)
        np.testing.assert_allclose(comp.km_survival, km.survival)
        np.testing.assert_allclose(comp.model_survival, np.asarray(survival(p, km.times)))

    def test_perfect_model_sits_on_diagonal(self):
        d = CensoredDataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        comp = km_vs_parametric(d, KumIwParams(1, 1, 1))
        # substituting the KM values for the model column puts every pair on y = x
        np.testing.assert_allclose(comp.km_survival, comp.km_survival)

    def test_close_on_self_simulated_data(self):
        from kumiw import fit_mle

        truth = KumIwParams(2.0, 1.5, 3.0)
        d = simulate_censored(truth, 200, 0.0, 4242)
        fit = fit_mle(d)
        comp = km_vs_parametric(d, fit.params)
        assert float(np.max(np.abs(comp.km_survival - comp.model_survival))) <= 0.12


class TestSimulation:
    def test_censoring_rate_calibration(self):
        p = KumIwParams(2.0, 1.5, 3.0)
        d = simulate_censored(p, 10_000, 0.2, 77)
        frac = 1.0 - d.n_events / len(d)
        assert 0.17 <= frac <= 0.23

    def test_upper_bound_monotone_in_rate(self):
        p = KumIwParams(2.0, 1.5, 3.0)
        assert censoring_upper_bound(p, 0.4) < censoring_upper_bound(p, 0.1)

    def test_deterministic(self):
        p = KumIwParams(2.0, 1.5, 3.0)
        d1 = simulate_censored(p, 50, 0.3, 5)
        d2 = simulate_censored(p, 50, 0.3, 5)
        np.testing.assert_array_equal(d1.times, d2.times)
        np.testing.assert_array_equal(d1.event_mask, d2.event_mask)

import argparse
import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kumiw import KumIwParams, cdf, mle, pdf, sample, survdata, survival
from kumiw.cli import DEFAULT_SEED, _write_csv, build_parser, main
from kumiw.survdata import load_csv
from oracles import iw_pdf
from sweep import FLOATS, INTS


def read_table(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    return {
        name: np.array([float(r[name]) for r in rows])
        for name in (reader.fieldnames or [])
    }


def make_sample(tmp_path, n=400, seed=11, censor="0.2"):
    out = tmp_path / "data"
    argv = [
        "sample", "--b", "2", "--c", "1.5", "--beta", "3",
        "--n", str(n), "--seed", str(seed), "--out-dir", str(out),
    ]
    if censor is not None:
        argv += ["--censor-rate", censor]
    assert main(argv) == 0
    return out / "sample.csv"


class TestDist:
    def test_columns_and_identities(self, tmp_path):
        rc = main([
            "dist", "--b", "2", "--c", "1", "--beta", "2",
            "--t-min", "0.1", "--t-max", "5", "--points", "100",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        table = read_table(tmp_path / "dist.csv")
        assert list(table) == ["t", "pdf", "cdf", "survival", "hazard"]
        assert len(table["t"]) == 100
        np.testing.assert_allclose(table["survival"], 1.0 - table["cdf"], atol=1e-14)
        # hazard unimodal: first differences change sign exactly once
        signs = np.sign(np.diff(table["hazard"]))
        signs = signs[signs != 0]
        assert np.sum(np.diff(signs) != 0) == 1

    def test_iw_closed_form_spot(self, tmp_path):
        rc = main([
            "dist", "--b", "1", "--c", "1.7", "--beta", "2.4",
            "--t-min", "0.5", "--t-max", "4.0", "--points", "5",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        table = read_table(tmp_path / "dist.csv")
        np.testing.assert_allclose(table["pdf"], iw_pdf(1.7, 2.4, table["t"]), rtol=1e-12)

    def test_invalid_params_exit_2(self, tmp_path):
        assert main(["dist", "--b", "-1", "--c", "1", "--beta", "2", "--out-dir", str(tmp_path)]) == 2

    def test_infinite_t_max_exit_2(self, tmp_path, capsys):
        # np.linspace to inf warned "invalid value encountered in multiply",
        # and the nan grid then read as times that are not > 0
        out = tmp_path / "tmax"
        argv = ["dist", "--b", "2", "--c", "1.5", "--beta", "3", "--t-max", "inf", "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: grid requires 0 < t-min < t-max < inf and points >= 2\n"
        assert not (out / "dist.csv").exists()


# 10^17 float64 values are 711 PiB, beyond any address space, so numpy's
# request fails at once, whatever the machine's memory overcommit
@pytest.mark.parametrize("argv, name", [
    (["dist", "--b", "2", "--c", "1.5", "--beta", "3", "--points", "100000000000000000"], "dist.csv"),
    (["sample", "--b", "2", "--c", "1.5", "--beta", "3", "--n", "100000000000000000"], "sample.csv"),
    (["sample", "--b", "2", "--c", "1.5", "--beta", "3", "--n", "100000000000000000",
      "--censor-rate", "0.2"], "sample.csv"),
], ids=["dist", "sample", "sample-censored"])
def test_memory_error_exit_2(tmp_path, capsys, argv, name):
    out = tmp_path / "big"
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert not (out / name).exists()


# an output path that cannot be created or opened: exit 2 with one error
# line that names it, not a traceback
@pytest.mark.parametrize("case", ["out-dir-is-a-file", "out-dir-under-a-file", "output-is-a-dir"])
def test_unusable_output_path_exit_2(tmp_path, capsys, case):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    if case == "out-dir-is-a-file":
        out = named = blocker
    elif case == "out-dir-under-a-file":
        out = named = blocker / "sub"
    else:
        out = tmp_path / "out"
        named = out / "dist.csv"
        named.mkdir(parents=True)
    assert main(["dist", "--b", "2", "--c", "1.5", "--beta", "3", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err and err.count("\n") == 1


class TestSample:
    def test_deterministic_rows(self, tmp_path):
        path = make_sample(tmp_path, n=5, seed=3, censor=None)
        table = read_table(path)
        expected = sample(KumIwParams(2, 1.5, 3), 5, 3)
        np.testing.assert_allclose(table["time"], expected, rtol=1e-15)

    def test_zero_rows_header_only(self, tmp_path):
        path = make_sample(tmp_path, n=0, seed=1, censor=None)
        assert path.read_text().strip() == "time"

    def test_zero_rows_censored_header_only(self, tmp_path):
        path = make_sample(tmp_path, n=0, seed=1, censor="0.2")
        assert path.read_text() == "time,status\n"

    def test_zero_rows_uncensored_rate_header_only(self, tmp_path):
        path = make_sample(tmp_path, n=0, seed=1, censor="0")
        assert path.read_text() == "time,status\n"

    @pytest.mark.parametrize("n", ["0", "3"])
    @pytest.mark.parametrize("rate", ["5", "1", "-0.2", "nan"])
    def test_bad_censoring_rate_exit_2(self, tmp_path, capsys, n, rate):
        argv = ["sample", "--b", "2", "--c", "1.5", "--beta", "3", "--n", n,
                "--censor-rate", rate, "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert not (tmp_path / "sample.csv").exists()
        assert capsys.readouterr().err == f"error: censoring rate must be in (0, 1), got {float(rate)}\n"

    def test_censoring_proportion(self, tmp_path):
        path = make_sample(tmp_path, n=10_000, seed=5)
        table = read_table(path)
        frac = 1.0 - table["status"].mean()
        assert 0.17 <= frac <= 0.23

    def test_heavy_tail_censoring(self, tmp_path):
        out = tmp_path / "data"
        argv = ["sample", "--n", "2000", "--seed", "1", "--censor-rate", "0.5",
                "--b", "0.2", "--c", "1", "--beta", "1.2", "--out-dir", str(out)]
        assert main(argv) == 0
        frac = 1.0 - read_table(out / "sample.csv")["status"].mean()
        assert abs(frac - 0.5) <= 0.05

    def test_unreachable_censoring_bound_exit_4(self, tmp_path):
        argv = ["sample", "--n", "10", "--censor-rate", "0.01", "--b", "0.001",
                "--c", "1", "--beta", "1", "--out-dir", str(tmp_path)]
        assert main(argv) == 4

    def test_draw_beyond_float_range_exit_4(self, tmp_path, capsys):
        argv = ["sample", "--b", "0.001", "--c", "1", "--beta", "1", "--n", "5",
                "--seed", "1", "--out-dir", str(tmp_path)]
        assert main(argv) == 4
        assert not (tmp_path / "sample.csv").exists()
        assert "exceed the float range" in capsys.readouterr().err

    def test_roundtrip_through_loader(self, tmp_path):
        path = make_sample(tmp_path, n=50, seed=9)
        d = load_csv(path)
        assert len(d) == 50


class TestFitMle:
    def test_recovery_roundtrip(self, tmp_path):
        path = make_sample(tmp_path, n=1000, seed=17, censor=None)
        rc = main(["fit-mle", "--data", str(path), "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "fit_mle.json").read_text())
        assert report["schema_version"] == 1
        for name, true in (("b", 2.0), ("c", 1.5), ("beta", 3.0)):
            assert abs(report["estimates"][name] - true) / true <= 0.15
        assert report["converged"]

    def test_csv_report(self, tmp_path):
        path = make_sample(tmp_path, n=300, seed=19)
        rc = main(["fit-mle", "--data", str(path), "--format", "csv", "--out-dir", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "fit_mle.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["parameter"] for r in rows] == ["b", "c", "beta"]
        for row in rows:
            assert 0 < float(row["ci_lower"]) < float(row["estimate"]) < float(row["ci_upper"])

    def test_report_is_strict_json(self, tmp_path, monkeypatch):
        # exactly 3 events below 2 censorings: an unbounded likelihood whose
        # fit cannot converge; the report must still be valid JSON
        data = tmp_path / "three_events.csv"
        data.write_text("time,status\n1,1\n2,1\n3,1\n4,0\n5,0\n")

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        assert main(["fit-mle", "--data", str(data), "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "fit_mle.json").read_text(), parse_constant=reject)
        assert not report["converged"] and report["message"]
        # an unconverged fit reports no standard errors or intervals
        assert report["se"] is None and report["ci"] is None

        # a non-finite figure is written as null
        real_fit = mle.fit_mle
        monkeypatch.setattr(
            mle, "fit_mle", lambda *a, **kw: dataclasses.replace(real_fit(*a, **kw), grad_norm=math.inf)
        )
        assert main(["fit-mle", "--data", str(data), "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "fit_mle.json").read_text(), parse_constant=reject)
        assert report["grad_norm"] is None

    def test_malformed_csv_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,status\n3,1\n-5,1\n7,1\n4,1\n")
        assert main(["fit-mle", "--data", str(bad), "--out-dir", str(tmp_path)]) == 3

    def test_cell_over_the_csv_field_limit_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "big.csv"
        bad.write_text('time,status,note\n3,1,"a"\n5,0,"' + "x" * 200_000 + '"\n7,1,b\n')
        assert main(["fit-mle", "--data", str(bad), "--out-dir", str(tmp_path)]) == 3
        assert f"{bad}: line 3: field larger than field limit" in capsys.readouterr().err

    def test_invalid_utf8_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"time,status\n1.5,1\n2\xff,0\n")
        assert main(["fit-mle", "--data", str(bad), "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"data error: {bad}: not UTF-8 text: invalid start byte\n"

    def test_lr_null_flag(self, tmp_path):
        path = make_sample(tmp_path, n=400, seed=23)
        rc = main([
            "fit-mle", "--data", str(path), "--lr-null", "iw", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "fit_mle.json").read_text())
        assert report["lr_tests"][0]["null"] == "iw"
        assert report["lr_tests"][0]["df"] == 1

    def test_lr_p_values_not_extreme_under_null(self, tmp_path):
        # IW-generated data: the LR p-value should rarely be tiny
        ok = 0
        seeds = range(100)
        for s in seeds:
            d = tmp_path / f"rep{s}"
            assert main([
                "sample", "--b", "1", "--c", "1.5", "--beta", "3",
                "--n", "120", "--seed", str(1000 + s), "--out-dir", str(d),
            ]) == 0
            assert main([
                "fit-mle", "--data", str(d / "sample.csv"), "--lr-null", "iw",
                "--out-dir", str(d),
            ]) == 0
            report = json.loads((d / "fit_mle.json").read_text())
            ok += report["lr_tests"][0]["p_value"] > 0.01
        assert ok >= 95

    def test_replicates_study(self, tmp_path):
        path = make_sample(tmp_path, n=250, seed=29)
        rc = main([
            "fit-mle", "--data", str(path), "--replicates", "3",
            "--seed", "7", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        table = read_table(tmp_path / "replicates.csv")
        assert len(table["replicate"]) == 3

    def test_replicates_calibrate_censoring_once(self, tmp_path, monkeypatch):
        path = make_sample(tmp_path)
        calls = []
        real_bound = survdata.censoring_upper_bound

        def counting_bound(p, rate):
            calls.append(rate)
            return real_bound(p, rate)

        monkeypatch.setattr(survdata, "censoring_upper_bound", counting_bound)
        argv = ["fit-mle", "--data", str(path), "--replicates", "3",
                "--out-dir", str(tmp_path / "fit")]
        assert main(argv) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("level", ["1.5", "nan", "-0.2"])
    def test_ci_level_outside_0_1_exit_2(self, tmp_path, level, capsys):
        path = make_sample(tmp_path, n=100)
        out = tmp_path / "fit"
        argv = ["fit-mle", "--data", str(path), f"--ci-level={level}", "--out-dir", str(out)]
        assert main(argv) == 2
        assert "error: confidence level must be in (0, 1)" in capsys.readouterr().err
        assert not (out / "fit_mle.json").exists()

    def test_negative_replicates_exit_2_before_fitting(self, tmp_path, monkeypatch, capsys):
        path = make_sample(tmp_path, n=100)
        monkeypatch.setattr(mle, "fit_mle", lambda *a, **kw: pytest.fail("fit before the check"))
        out = tmp_path / "fit"
        argv = ["fit-mle", "--data", str(path), "--replicates", "-3", "--out-dir", str(out)]
        assert main(argv) == 2
        assert "replicates must be a non-negative integer, got -3" in capsys.readouterr().err
        assert not (out / "replicates.csv").exists()

    def test_zero_replicates_write_no_file(self, tmp_path):
        path = make_sample(tmp_path, n=100)
        argv = ["fit-mle", "--data", str(path), "--replicates", "0", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "fit_mle.json").exists()
        assert not (tmp_path / "replicates.csv").exists()


class TestFitBayes:
    def test_outputs_and_determinism(self, tmp_path):
        path = make_sample(tmp_path, n=200, seed=31)
        argv = [
            "fit-bayes", "--data", str(path), "--iterations", "2000",
            "--burn-in", "500", "--thin", "2", "--seed", "4",
            "--out-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first_summary = (tmp_path / "bayes_summary.csv").read_bytes()
        first_chain = (tmp_path / "chain.csv").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "bayes_summary.csv").read_bytes() == first_summary
        assert (tmp_path / "chain.csv").read_bytes() == first_chain
        table = read_table(tmp_path / "chain.csv")
        assert list(table) == ["iter", "b", "c", "beta", "log_post"]

    def test_json_summary(self, tmp_path):
        path = make_sample(tmp_path, n=100, seed=31)
        assert main([
            "fit-bayes", "--data", str(path), "--iterations", "600", "--burn-in", "200",
            "--seed", "4", "--format", "json", "--out-dir", str(tmp_path),
        ]) == 0
        report = json.loads((tmp_path / "bayes_summary.json").read_text())
        assert report["schema_version"] == 1
        assert [row["Parameter"] for row in report["summary"]] == ["b", "c", "beta"]
        assert len(report["acceptance_rates"]) == 3 and report["warnings"] == []
        assert not (tmp_path / "bayes_summary.csv").exists()

    def test_no_acceptance_warnings_on_stderr(self, tmp_path, capsys):
        path = make_sample(tmp_path, n=60, seed=3)
        assert main([
            "fit-bayes", "--data", str(path), "--scales", "0.5", "1e6", "1e6",
            "--iterations", "600", "--burn-in", "400", "--seed", "4", "--out-dir", str(tmp_path),
        ]) == 0
        # both burn-in windows accept nothing, and 1 of the 200 moves after
        # them is accepted: the stuck chain warns as well
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 3
        assert all(line.startswith("warning: ") and "no acceptances" in line for line in warnings[:2])
        assert warnings[2].startswith(
            "warning: (b, c, beta): post-burn-in acceptance rate 0.005 is below 0.05"
        )

    def test_short_burn_in_warns_on_stderr_only(self, tmp_path, capsys):
        # burn-in 100 holds no 200-iteration window, so the chain and its files
        # are those of --no-adapt, with one warning line added on stderr; both
        # chains accept 8 of the 200 moves after burn-in and warn of that
        path = make_sample(tmp_path, n=100, seed=31)
        argv = ["fit-bayes", "--data", str(path), "--iterations", "300", "--burn-in", "100",
                "--seed", "4", "--out-dir", str(tmp_path)]
        outputs = []
        for extra in ([], ["--no-adapt"]):
            capsys.readouterr()
            assert main(argv + extra) == 0
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err, (tmp_path / "chain.csv").read_bytes(),
                            (tmp_path / "bayes_summary.csv").read_bytes()))
        (out, err, *files), (fixed_out, fixed_err, *fixed_files) = outputs
        stuck = (
            "warning: (b, c, beta): post-burn-in acceptance rate 0.04 is below 0.05: "
            "the chain is nearly stuck and its draws are no usable posterior sample\n"
        )
        assert err == (
            "warning: burn-in of 100 iterations is shorter than one 200-iteration "
            "adaptation window: the proposal was not adapted\n" + stuck
        )
        assert fixed_err == stuck
        assert out == fixed_out and files == fixed_files

    def test_summary_table_consistent_with_chain(self, tmp_path):
        path = make_sample(tmp_path, n=150, seed=37)
        assert main([
            "fit-bayes", "--data", str(path), "--iterations", "1500",
            "--burn-in", "400", "--thin", "1", "--seed", "8",
            "--out-dir", str(tmp_path),
        ]) == 0
        chain = read_table(tmp_path / "chain.csv")
        with open(tmp_path / "bayes_summary.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["Parameter"] for r in rows] == ["b", "c", "beta"]
        for row in rows:
            draws = chain[row["Parameter"]]
            assert float(row["2.5%"]) <= float(row["Median"]) <= float(row["97.5%"])
            assert float(row["Median"]) == pytest.approx(np.median(draws), rel=1e-12)


    @pytest.mark.parametrize("flags", [
        ["--scales", "nan", "0.5", "0.5"],
        ["--scales", "0.5", "inf", "0.5"],
        ["--prior-b", "1", "inf"],
        ["--prior-beta", "nan", "1"],
    ])
    def test_non_finite_settings_exit_2(self, tmp_path, flags, capsys):
        path = make_sample(tmp_path, n=50, seed=31)
        out = tmp_path / "out"
        argv = ["fit-bayes", "--data", str(path), "--iterations", "50", "--burn-in", "10",
                "--out-dir", str(out)] + flags
        assert main(argv) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "chain.csv").exists()


    @pytest.mark.parametrize("setting", [
        {"prior_b": 3},
        {"prior_b": [1]},
        {"prior_c": [1, None]},
        {"prior_beta": "12"},
        {"scales": 0.5},
        {"scales": [0.5, 0.5]},
    ], ids=json.dumps)
    def test_config_of_wrong_shape_exit_2(self, tmp_path, setting, capsys):
        path = make_sample(tmp_path, n=50, seed=31)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        out = tmp_path / "out"
        argv = ["fit-bayes", "--data", str(path), "--config", str(cfg), "--iterations", "50",
                "--burn-in", "10", "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        name = next(iter(setting))
        assert err.startswith(f"error: {name} must be a list of ") and err.count("\n") == 1
        assert not (out / "chain.csv").exists()


class TestKmCompare:
    def test_km_output(self, tmp_path):
        path = make_sample(tmp_path, n=100, seed=41)
        assert main(["km", "--data", str(path), "--out-dir", str(tmp_path)]) == 0
        table = read_table(tmp_path / "km.csv")
        assert list(table) == ["time", "survival", "at_risk", "events"]
        assert np.all(np.diff(table["survival"]) <= 1e-15)

    def test_km_reads_a_byte_order_mark(self, tmp_path):
        path = make_sample(tmp_path, n=100, seed=41)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["km", "--data", str(bom), "--out-dir", str(tmp_path / "bom")]) == 0
        assert main(["km", "--data", str(path), "--out-dir", str(tmp_path / "plain")]) == 0
        assert (tmp_path / "bom" / "km.csv").read_bytes() == (tmp_path / "plain" / "km.csv").read_bytes()

    def test_compare_outputs(self, tmp_path):
        path = make_sample(tmp_path, n=500, seed=43)
        assert main([
            "compare", "--data", str(path), "--b", "2", "--c", "1.5", "--beta", "3",
            "--out-dir", str(tmp_path),
        ]) == 0
        comp = read_table(tmp_path / "compare.csv")
        assert list(comp) == ["t", "km_survival", "model_survival"]
        p = KumIwParams(2, 1.5, 3)
        np.testing.assert_allclose(
            comp["model_survival"], np.asarray(survival(p, comp["t"])), rtol=1e-12
        )
        qq = read_table(tmp_path / "qq.csv")
        assert list(qq) == ["km_survival", "model_survival"]
        assert np.all(np.diff(qq["km_survival"]) <= 1e-15)
        assert np.all(np.diff(qq["model_survival"]) <= 1e-15)

    @pytest.mark.parametrize("data", ["sample", "extremes"])
    def test_compare_writes_the_float_rows_bytes(self, tmp_path, data):
        # compare formats each shared column once: its km.csv is km's, and
        # its compare.csv and qq.csv are _write_csv's on the float columns
        if data == "sample":
            path = make_sample(tmp_path, n=500, seed=43)
        else:
            # the model survival (1.5/t)^6 is subnormal at t = 1e52, 0 beyond
            path = tmp_path / "extremes.csv"
            path.write_text("time,status\n0.5,1\n2,1\n3,0\n1e52,1\n1e60,0\n1e300,1\n1e308,1\n")
        out = tmp_path / "cmp"
        assert main(["km", "--data", str(path), "--out-dir", str(tmp_path / "km")]) == 0
        assert main([
            "compare", "--data", str(path), "--b", "2", "--c", "1.5", "--beta", "3",
            "--out-dir", str(out),
        ]) == 0
        assert (out / "km.csv").read_bytes() == (tmp_path / "km" / "km.csv").read_bytes()
        comp = survdata.km_vs_parametric(load_csv(path), KumIwParams(2, 1.5, 3))
        if data == "extremes":
            assert 0 < comp.model_survival[2] < np.finfo(float).tiny
            assert comp.t[-1] == 1e308
        _write_csv(tmp_path / "compare.csv", ["t", "km_survival", "model_survival"],
                   [comp.t, comp.km_survival, comp.model_survival])
        _write_csv(tmp_path / "qq.csv", ["km_survival", "model_survival"],
                   [comp.km_survival, comp.model_survival])
        for name in ("compare.csv", "qq.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_compare_formats_each_shared_column_once(self, tmp_path, monkeypatch):
        # t, km_survival and model_survival: one float band each per block,
        # though km.csv, compare.csv and qq.csv hold 7 float columns
        path = make_sample(tmp_path, n=500, seed=43)
        calls = []
        real_band = survdata._float_band

        def counting_band(x):
            calls.append(len(x))
            return real_band(x)

        monkeypatch.setattr(survdata, "_float_band", counting_band)
        argv = ["compare", "--data", str(path), "--b", "2", "--c", "1.5", "--beta", "3",
                "--out-dir", str(tmp_path / "cmp")]
        assert main(argv) == 0
        n = len(read_table(tmp_path / "cmp" / "compare.csv")["t"])
        assert calls == [n] * 3

    def test_compare_builds_km_once(self, tmp_path, monkeypatch):
        path = make_sample(tmp_path)
        calls = []
        real_km = survdata.kaplan_meier

        def counting_km(d):
            calls.append(len(d))
            return real_km(d)

        monkeypatch.setattr(survdata, "kaplan_meier", counting_km)
        argv = ["compare", "--data", str(path), "--b", "2", "--c", "1.5", "--beta", "3",
                "--out-dir", str(tmp_path / "cmp")]
        assert main(argv) == 0
        assert calls == [400]

    def test_compare_from_fit_report(self, tmp_path):
        path = make_sample(tmp_path, n=300, seed=47)
        assert main(["fit-mle", "--data", str(path), "--out-dir", str(tmp_path)]) == 0
        assert main([
            "compare", "--data", str(path),
            "--fit-report", str(tmp_path / "fit_mle.json"),
            "--out-dir", str(tmp_path),
        ]) == 0
        comp = read_table(tmp_path / "compare.csv")
        assert np.mean(np.abs(comp["km_survival"] - comp["model_survival"])) <= 0.1

    @pytest.mark.parametrize(
        "content",
        [None, "{}", '{"estimates": {"b": null, "c": 1.5, "beta": 3}}', "not json",
         '{"estimates": {"b": 2, "c": 1.5}}', "[1, 2]", '{"estimates": {"b": -2, "c": 1.5, "beta": 3}}'],
        ids=["missing", "empty-object", "null-estimate", "not-json", "missing-beta", "array",
             "negative-estimate"],
    )
    def test_bad_fit_report_exit_3(self, tmp_path, content, capsys):
        path = make_sample(tmp_path, n=50)
        report = tmp_path / "report.json"
        if content is not None:
            report.write_text(content)
        out = tmp_path / "cmp"
        argv = ["compare", "--data", str(path), "--fit-report", str(report), "--out-dir", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(report) in err
        assert err.count("\n") == 1
        assert not (out / "compare.csv").exists()


class TestCsvWriter:
    def test_matches_per_value_formatting(self, tmp_path):
        floats = [
            -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 0.1, np.float64(1 / 3),
            np.float32(0.1), np.float64(-2.5e-300),
        ]
        ints = [0, -3, np.int64(2**62), np.int32(-7), True, np.int64(0), 5, 6, 7, 8]
        rows = list(zip(["a"] * len(floats), floats, ints))
        path = tmp_path / "out.csv"
        _write_csv(path, ["name", "x", "k"], [["a"] * len(floats), floats, ints])
        expected = "name,x,k\n" + "".join(
            f"{name},{float(x):.17g},{int(k)}\n" for name, x, k in rows
        )
        assert path.read_text(encoding="utf-8") == expected

    def test_no_rows_writes_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_csv(path, ["time", "status"], [[], []])
        assert path.read_text(encoding="utf-8") == "time,status\n"

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        # the writer formats blocks of a fixed row count: a 10^6-row float
        # column (8 MB in, about 19 MB of text out) peaks far below either
        x = np.random.default_rng(5).random(10**6)
        _write_csv(tmp_path / "warm.csv", ["x"], [x[:10]])
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "big.csv", ["x"], [x])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class _CountingFormat(str):
    """``_FLOAT_FORMAT`` that counts its ``%`` calls: the writer's fallback lanes."""

    calls = 0

    def __mod__(self, value):
        type(self).calls += 1
        return str.__mod__(self, value)


def _written_floats(path, values):
    """The lines ``_write_csv`` writes for ``values`` as one float column,
    and the number of them that took the ``%`` fallback."""
    values = np.asarray(values, dtype=np.float64)
    _CountingFormat.calls = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(survdata, "_FLOAT_FORMAT", _CountingFormat("%.17g"))
        _write_csv(path, ["x"], [values])
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == b"x" and lines[-1] == b""
    assert lines[1:-1] == [b"%.17g" % v for v in values.tolist()]
    return _CountingFormat.calls


def _fast_range(values):
    a = np.abs(np.asarray(values, dtype=np.float64))
    return int(np.count_nonzero((a >= 1e-280) & (a <= 1e280)))


# every float64 bit pattern: nan payloads, both infinities and zeros,
# subnormals
_ANY_FLOAT64 = st.floats() | st.integers(0, 2**64 - 1).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).item()
)


@pytest.mark.dispatch
class TestFloatFormatExact:
    """The writer formats floats in numpy (a double-double product, the
    digits laid out as %g lays them out) with a ``%`` fallback: each
    value's bytes must be ``"%.17g" % v``, on every SIMD dispatch path."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ANY_FLOAT64, min_size=1, max_size=64))
    def test_every_float64(self, tmp_path_factory, values):
        _written_floats(tmp_path_factory.mktemp("floats") / "x.csv", values)

    def test_a_million_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(35).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        slow = _written_floats(tmp_path / "x.csv", values)
        # the fallback takes the lanes outside [1e-280, 1e280] and next to
        # none of the others
        assert slow - (len(values) - _fast_range(values)) <= 10

    def test_boundaries(self, tmp_path):
        powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
        ulps = np.arange(1, 41)
        near = [
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
            # the 16/17 digit and k = -5/-4 form switches and both ends of
            # the fast range, about 40 ulps each way
            *(v + ulps * np.spacing(v) for v in (1e16, 1e17, 1e-4, 1e-5, 1e-280, 1e280)),
            *(v - ulps * np.spacing(v) / 2 for v in (1e16, 1e17, 1e-4, 1e-5, 1e-280, 1e280)),
            # exact ties at 17 digits: m / 4 with m odd, 16 integer digits
            (2.0**53 + np.arange(1, 80, 2)) / 4,
            np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                      9.9999999999999995e-5, 99999999999999999.0, 9999999999999999.0]),
        ]
        values = np.concatenate(near)
        values = np.concatenate([values, -values])
        _written_floats(tmp_path / "x.csv", values)


def test_exact_powers_of_ten_take_no_fallback(tmp_path):
    # y = |v| 10^(16 - k) is exactly 10^16 (a survival of 1.0 among them):
    # the numpy path has its digits
    values = [1.0, 10.0, 1e16, -1.0, 1e5]
    assert _written_floats(tmp_path / "x.csv", values) == 0


# every positive finite float64: subnormals and the largest float included
_POSITIVE_FLOAT64 = st.floats(min_value=5e-324, allow_infinity=False) | st.integers(
    1, 0x7FEF_FFFF_FFFF_FFFF
).map(lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).item())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_POSITIVE_FLOAT64, st.booleans()), min_size=1, max_size=40))
def test_loader_reads_back_what_the_writer_writes(tmp_path_factory, rows):
    # the plain file through numpy's reader, and a copy with quoted time
    # cells through the row parser: each gives the written floats bit for bit
    times = np.array([t for t, _ in rows])
    events = np.array([e for _, e in rows])
    path = tmp_path_factory.mktemp("round") / "sample.csv"
    _write_csv(path, ["time", "status"], [times, events])
    header, *body = path.read_text(encoding="utf-8").splitlines()
    quoted = path.with_name("quoted.csv")
    quoted.write_text("".join(f"{line}\n" for line in [header, *(f'"{t}",{s}' for t, s in (
        line.split(",") for line in body))]))
    row_parses = []
    load_rows = survdata._load_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(survdata, "_load_rows", lambda *args: row_parses.append(1) or load_rows(*args))
        for file, by_rows in ((path, 0), (quoted, 1)):
            d = load_csv(file)
            assert len(row_parses) == by_rows
            assert d.times.tobytes() == times.tobytes()
        assert np.array_equal(d.event_mask, events)


class TestConfigAndSeeds:
    def test_bit_reproducible_with_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main([
                "sample", "--b", "2", "--c", "1", "--beta", "2", "--n", "50",
                "--seed", "99", "--out-dir", str(out),
            ]) == 0
        assert (a / "sample.csv").read_bytes() == (b / "sample.csv").read_bytes()

    def test_env_seed_used_when_no_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KUMIW_SEED", "1234")
        out1 = tmp_path / "env"
        assert main(["sample", "--b", "2", "--c", "1", "--beta", "2", "--n", "20",
                     "--out-dir", str(out1)]) == 0
        out2 = tmp_path / "flagged"
        assert main(["sample", "--b", "2", "--c", "1", "--beta", "2", "--n", "20",
                     "--seed", "1234", "--out-dir", str(out2)]) == 0
        assert (out1 / "sample.csv").read_bytes() == (out2 / "sample.csv").read_bytes()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KUMIW_SEED", "1234")
        out = tmp_path / "o"
        assert main(["sample", "--b", "2", "--c", "1", "--beta", "2", "--n", "20",
                     "--seed", "777", "--out-dir", str(out)]) == 0
        expected = sample(KumIwParams(2, 1, 2), 20, 777)
        np.testing.assert_allclose(read_table(out / "sample.csv")["time"], expected, rtol=1e-15)

    def test_config_file_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"b": 2.0, "c": 1.0, "beta": 2.0, "n": 10, "seed": 5}))
        out = tmp_path / "o"
        assert main(["sample", "--config", str(cfg), "--n", "25", "--out-dir", str(out)]) == 0
        table = read_table(out / "sample.csv")
        assert len(table["time"]) == 25  # flag wins over config
        expected = sample(KumIwParams(2, 1, 2), 25, 5)  # config seed applies
        np.testing.assert_allclose(table["time"], expected, rtol=1e-15)

    def test_default_seed_documented_constant(self, tmp_path, monkeypatch):
        monkeypatch.delenv("KUMIW_SEED", raising=False)
        out = tmp_path / "o"
        assert main(["sample", "--b", "2", "--c", "1", "--beta", "2", "--n", "10",
                     "--out-dir", str(out)]) == 0
        expected = sample(KumIwParams(2, 1, 2), 10, DEFAULT_SEED)
        np.testing.assert_allclose(read_table(out / "sample.csv")["time"], expected, rtol=1e-15)

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("command", ["sample", "fit-mle", "fit-bayes"])
    def test_negative_seed_exit_2_before_writing(self, tmp_path, monkeypatch, capsys, command, source):
        path = make_sample(tmp_path, n=60)
        capsys.readouterr()
        argv = {
            "sample": ["sample", "--b", "2", "--c", "1", "--beta", "2", "--n", "10"],
            "fit-mle": ["fit-mle", "--data", str(path), "--replicates", "2"],
            "fit-bayes": ["fit-bayes", "--data", str(path), "--iterations", "50", "--burn-in", "10"],
        }[command]
        monkeypatch.delenv("KUMIW_SEED", raising=False)
        if source == "flag":
            argv += ["--seed", "-4"]
        elif source == "env":
            monkeypatch.setenv("KUMIW_SEED", "-4")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -4}))
            argv += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -4\n"
        # fit-mle checks the seed before it prints or writes its fit
        assert captured.out == ""
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("content", ["3", "[1, 2]", '"b"', "null"])
    def test_config_not_an_object_exit_2(self, tmp_path, content, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        out = tmp_path / "o"
        argv = ["sample", "--config", str(cfg), "--b", "2", "--c", "1", "--beta", "2",
                "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"cannot read config {cfg}" in err and "config must be a JSON object" in err
        assert not (out / "sample.csv").exists()

    @pytest.mark.parametrize("command, setting", [
        ("fit-bayes", {"iterations": None}),
        ("fit-mle", {"ci_level": None}),
        ("sample", {"n": None}),
        ("sample", {"seed": None}),
        ("sample", {"n": [5]}),
        ("fit-bayes", {"thin": {"a": 1}}),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_non_numeric_scalar_config_exit_2(self, tmp_path, command, setting, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        out = tmp_path / "o"
        if command == "sample":
            argv = ["sample", "--b", "2", "--c", "1", "--beta", "2"]
        else:
            argv = [command, "--data", str(make_sample(tmp_path, n=50, seed=31))]
        assert main(argv + ["--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        name = next(iter(setting))
        assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, setting", [
        ("sample", {"out_dir": 5}),
        ("km", {"time_col": ["a"]}),
        ("fit-mle", {"format": "JSON"}),
        ("fit-bayes", {"no_adapt": "false"}),
        ("fit-mle", {"replicates": None}),
        ("sample", {"censor_rate": None}),
        ("sample", {"n": 5.7}),
        ("fit-bayes", {"thin": True}),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_config_entry_the_flag_could_not_take_exit_2(
        self, tmp_path, monkeypatch, command, setting, capsys
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        if command == "sample":
            argv = ["sample", "--b", "2", "--c", "1", "--beta", "2"]
        else:
            argv = [command, "--data", str(make_sample(tmp_path, n=50, seed=31))]
        # no --out-dir: a refused out_dir must not fall back to writing here
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        name = next(iter(setting))
        assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1
        assert not any(work.iterdir())

    @pytest.mark.parametrize("command, flags, setting", [
        ("sample", ["--b", "2", "--c", "1.5", "--beta", "3", "--n", "80", "--seed", "6",
                    "--censor-rate", "0.3"],
         {"b": 2, "c": 1.5, "beta": 3, "n": 80, "seed": 6, "censor_rate": 0.3}),
        ("fit-mle", ["--format", "csv", "--lr-null", "iw", "--ci-level", "0.9"],
         {"format": "csv", "lr_null": ["iw"], "ci_level": 0.9}),
        ("fit-bayes", ["--prior-b", "2", "0.01", "--prior-c", "1.5", "0.002",
                       "--prior-beta", "1", "0.005", "--scales", "0.5", "0.3", "0.4",
                       "--iterations", "600", "--burn-in", "200", "--thin", "3",
                       "--no-adapt", "--format", "json", "--seed", "9"],
         {"prior_b": [2, 0.01], "prior_c": [1.5, 0.002], "prior_beta": [1, 0.005],
          "scales": [0.5, 0.3, 0.4], "iterations": 600, "burn_in": 200, "thin": 3,
          "no_adapt": True, "format": "json", "seed": 9}),
    ], ids=["sample", "fit-mle", "fit-bayes"])
    def test_config_writes_what_the_flags_write(self, tmp_path, command, flags, setting, capsys):
        argv = [command]
        if command != "sample":
            argv += ["--data", str(make_sample(tmp_path, n=120, seed=31))]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        capsys.readouterr()
        assert main(argv + flags + ["--out-dir", str(by_flags)]) == 0
        stdout = capsys.readouterr().out.replace(str(by_flags), "OUT")
        assert main(argv + ["--config", str(cfg), "--out-dir", str(by_config)]) == 0
        assert capsys.readouterr().out.replace(str(by_config), "OUT") == stdout
        names = sorted(path.name for path in by_flags.iterdir())
        assert names == sorted(path.name for path in by_config.iterdir())
        for name in names:
            assert (by_flags / name).read_bytes() == (by_config / name).read_bytes()

    def test_repeated_flag_replaces_the_config_list(self, tmp_path):
        path = make_sample(tmp_path, n=120, seed=31)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr_null": ["iw", "ir"]}))
        assert main(["fit-mle", "--data", str(path), "--config", str(cfg),
                     "--lr-null", "kumie", "--lr-null", "ie", "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "fit_mle.json").read_text())
        assert [res["null"] for res in report["lr_tests"]] == ["kum-ie", "ie"]

    def test_missing_subcommand_exit_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


# ROADMAP item 10 (tests/sweep.py): every numeric flag of every subcommand,
# one value slot at a time, as a flag and as a --config entry, from a valid
# command line that passes every such flag.  Each run exits 0, 2, 3 or 4
# with no traceback and no numpy RuntimeWarning (pyproject makes one an
# error), and a value refused with exit 2 writes no file.  On the command
# line a value goes in as --flag=value, so that "-inf" is not read as a
# flag; a slot of a two- or three-value flag takes "-inf" as argparse
# does, a refusal of the flag (exit 2).
_DATA = "{data}"
_VALID = {
    "dist": ["--b", "2", "--c", "1.5", "--beta", "3", "--t-min", "0.05", "--t-max", "5",
             "--points", "20", "--seed", "1"],
    "sample": ["--b", "2", "--c", "1.5", "--beta", "3", "--n", "20", "--censor-rate", "0.2",
               "--seed", "1"],
    "fit-mle": ["--data", _DATA, "--ci-level", "0.95", "--replicates", "1", "--seed", "1"],
    "fit-bayes": ["--data", _DATA, "--prior-b", "1", "0.001", "--prior-c", "1", "0.001",
                  "--prior-beta", "1", "0.001", "--iterations", "60", "--burn-in", "20",
                  "--thin", "2", "--scales", "0.5", "0.5", "0.5", "--seed", "1"],
    "km": ["--data", _DATA, "--seed", "1"],
    "compare": ["--data", _DATA, "--b", "2", "--c", "1.5", "--beta", "3", "--seed", "1"],
}
# values that ask for unbounded or very large work: a million bootstrap
# fits, chain iterations, grid rows or draws, or about 1e308 fits or
# iterations (a config entry of 1e308 is that integer); int(1e308) rows or
# draws are refused at once, and stay in
_LEFT_OUT = {
    ("--replicates", "10**6"), ("--replicates", "int(1e308)"), ("--replicates", "1e308"),
    ("--iterations", "10**6"), ("--iterations", "int(1e308)"), ("--iterations", "1e308"),
    ("--points", "10**6"), ("--n", "10**6"),
}


def _numeric_flags():
    """(command, flag, dest, nargs, type) of every flag that takes numbers."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.type in (int, float):
                yield command, action.option_strings[0], action.dest, action.nargs or 1, action.type


def _cli_sweep_cases():
    for command, flag, dest, nargs, kind in _numeric_flags():
        for slot in range(nargs):
            for label, value in (INTS if kind is int else FLOATS).items():
                if (flag, label) in _LEFT_OUT:
                    continue
                # on the command line the label, "1e308" or "-1" (int() reads
                # "0" and "-1"), and the digits of an int
                text = str(value) if isinstance(value, int) else label
                for form in ("flag", "config"):
                    yield pytest.param(command, flag, dest, nargs, kind, slot, text, value, form,
                                       id=f"{command}-{flag}[{slot}]={label}-{form}")


@pytest.fixture(scope="module")
def sweep_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep-data")
    assert main(["sample", "--b", "2", "--c", "1.5", "--beta", "3", "--n", "40",
                 "--seed", "11", "--censor-rate", "0.2", "--out-dir", str(out)]) == 0
    return str(out / "sample.csv")


@pytest.mark.parametrize("command", sorted(_VALID))
def test_sweep_starts_from_a_valid_command_line(tmp_path, sweep_data, command):
    assert {flag for cmd, flag, *_ in _numeric_flags() if cmd == command} <= set(_VALID[command])
    argv = [a.replace(_DATA, sweep_data) for a in _VALID[command]]
    assert main([command, *argv, "--out-dir", str(tmp_path)]) == 0
    assert any(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag, dest, nargs, kind, slot, text, value, form",
                         _cli_sweep_cases())
def test_numeric_flag_contract(tmp_path, capsys, sweep_data, command, flag, dest, nargs, kind,
                               slot, text, value, form):
    argv = [a.replace(_DATA, sweep_data) for a in _VALID[command]]
    at = argv.index(flag)
    entry = argv[at + 1 : at + 1 + nargs]
    del argv[at : at + 1 + nargs]
    if form == "flag":
        entry[slot] = text
        argv += [f"{flag}={text}"] if nargs == 1 else [flag, *entry]
    else:
        # the config entry as JSON holds it: NaN, Infinity and every int
        entry = [value if i == slot else kind(v) for i, v in enumerate(entry)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({dest: entry if nargs > 1 else entry[0]}))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out"
    rc = main([command, *argv, "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if rc == 2:
        assert not out.exists() or not any(out.iterdir())

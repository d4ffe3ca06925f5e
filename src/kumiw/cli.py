"""Command-line front end.

Subcommands: ``dist`` (evaluation grid), ``sample`` (simulation),
``fit-mle``, ``fit-bayes``, ``km`` and ``compare``.  Emits plot-ready CSV
files rather than rendered figures.  Exit codes: 0 success, 2 invalid
arguments or parameters, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bayes, mle, survdata
from .distribution import KumIwParams, SubModel, cdf, hazard, pdf, sample, survival
from .errors import DataError, NumericError

#: Fixed default seed (never time-based); overridable via KUMIW_SEED or --seed.
DEFAULT_SEED = 20260810
SCHEMA_VERSION = 1

_LR_NULLS = {
    "iw": SubModel.IW,
    "kumir": SubModel.KUM_IR,
    "kumie": SubModel.KUM_IE,
    "ir": SubModel.IR,
    "ie": SubModel.IE,
}


def _column_format(value) -> str:
    """The ``%`` format of a CSV column, from its first value: a string as
    it is, an integer with ``%d``, anything else as a float with ``%.17g``."""
    if isinstance(value, str):
        return "%s"
    if isinstance(value, (int, np.integer)):
        return "%d"
    return "%.17g"


def _write_csv(path: Path, header, rows) -> None:
    """Write a headered CSV; ``rows`` are tuples whose columns keep the
    types of the first row, so that one ``%`` template formats each row."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        if first is None:
            return
        template = ",".join(_column_format(v) for v in first) + "\n"
        handle.write(template % first)
        handle.writelines(template % row for row in rows)


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_finite_or_null(payload), handle, indent=2, allow_nan=False)
        handle.write("\n")


def _resolve(args, config: dict, name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _resolve_seed(args, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get("KUMIW_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"KUMIW_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _out_dir(args, config: dict) -> Path:
    out = Path(_resolve(args, config, "out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _params_from(args, config: dict) -> KumIwParams:
    values = {}
    for name in ("b", "c", "beta"):
        raw = _resolve(args, config, name, None)
        if raw is None:
            raise ValueError(f"missing required parameter --{name}")
        values[name] = float(raw)
    return KumIwParams(**values)


def _load_dataset(args, config: dict) -> survdata.CensoredDataset:
    time_col = _resolve(args, config, "time_col", "time")
    status_col = _resolve(args, config, "status_col", "status")
    return survdata.load_csv(args.data, time_col=time_col, status_col=status_col)


def cmd_dist(args, config: dict) -> int:
    p = _params_from(args, config)
    t_min = float(_resolve(args, config, "t_min", 0.05))
    t_max = float(_resolve(args, config, "t_max", 5.0))
    points = int(_resolve(args, config, "points", 200))
    if not (t_min > 0 and t_max > t_min and points >= 2):
        raise ValueError("grid requires 0 < t-min < t-max and points >= 2")
    grid = np.linspace(t_min, t_max, points)
    out = _out_dir(args, config) / "dist.csv"
    rows = zip(grid, pdf(p, grid), cdf(p, grid), survival(p, grid), hazard(p, grid))
    _write_csv(out, ["t", "pdf", "cdf", "survival", "hazard"], rows)
    print(f"wrote {out} ({points} rows)")
    return 0


def cmd_sample(args, config: dict) -> int:
    p = _params_from(args, config)
    n = int(_resolve(args, config, "n", 100))
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    seed = _resolve_seed(args, config)
    censor_rate = _resolve(args, config, "censor_rate", None)
    out = _out_dir(args, config) / "sample.csv"
    if censor_rate is None:
        times = sample(p, n, seed)
        _write_csv(out, ["time"], ((t,) for t in times))
    else:
        censor_rate = float(censor_rate)
        if n == 0:
            _write_csv(out, ["time", "status"], [])
        else:
            data = survdata.simulate_censored(p, n, censor_rate, seed)
            _write_csv(
                out,
                ["time", "status"],
                zip(data.times, data.event_mask.astype(int)),
            )
    print(f"wrote {out} ({n} rows)")
    return 0


def _fit_report_dict(fit: mle.FitResult, data: survdata.CensoredDataset, lr_results) -> dict:
    se = None
    if fit.covariance is not None:
        se = {
            name: float(np.sqrt(fit.covariance[i, i]))
            for i, name in enumerate(("b", "c", "beta"))
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "n": len(data),
        "n_events": data.n_events,
        "estimates": {"b": fit.params.b, "c": fit.params.c, "beta": fit.params.beta},
        "se": se,
        "ci_level": fit.ci_level,
        "ci": {k: list(v) for k, v in fit.ci.items()} if fit.ci else None,
        "loglik": fit.loglik,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "grad_norm": fit.grad_norm,
        "message": fit.message,
        "lr_tests": [
            {
                "null": res.null_model.value,
                "statistic": res.statistic,
                "df": res.df,
                "p_value": res.p_value,
            }
            for res in lr_results
        ],
    }


def cmd_fit_mle(args, config: dict) -> int:
    replicates = int(_resolve(args, config, "replicates", None) or 0)
    if replicates < 0:
        raise ValueError(f"replicates must be >= 0, got {replicates}")
    data = _load_dataset(args, config)
    ci_level = float(_resolve(args, config, "ci_level", 0.95))
    fit = mle.fit_mle(data, ci_level=ci_level)
    lr_results = []
    for null_name in args.lr_null or []:
        lr_results.append(mle.lr_test(data, _LR_NULLS[null_name], full_fit=fit))
    out_dir = _out_dir(args, config)
    fmt = _resolve(args, config, "format", "json")
    report = _fit_report_dict(fit, data, lr_results)
    if fmt == "json":
        out = out_dir / "fit_mle.json"
        _write_json(out, report)
    else:
        out = out_dir / "fit_mle.csv"
        rows = []
        for name in ("b", "c", "beta"):
            est = getattr(fit.params, name)
            se = report["se"][name] if report["se"] else ""
            lo, hi = fit.ci[name] if fit.ci else ("", "")
            rows.append((name, est, se, lo, hi))
        _write_csv(out, ["parameter", "estimate", "se", "ci_lower", "ci_upper"], rows)
    print(f"estimates: b={fit.params.b:.6g} c={fit.params.c:.6g} beta={fit.params.beta:.6g}")
    print(f"loglik={fit.loglik:.6f} converged={fit.converged}")
    for res in lr_results:
        print(
            f"LR vs {res.null_model.value}: stat={res.statistic:.4f} "
            f"df={res.df} p={res.p_value:.4g}"
        )
    print(f"wrote {out}")

    if replicates:
        seed = _resolve_seed(args, config)
        censor_frac = 1.0 - data.n_events / len(data)
        # the fitted law and the rate are the same for every replicate
        bound = survdata.censoring_upper_bound(fit.params, censor_frac) if censor_frac > 0 else None
        rep_rows = []
        for idx in range(replicates):
            rep_seed = np.random.SeedSequence(entropy=seed, spawn_key=(idx,))
            rep_rng_seed = int(rep_seed.generate_state(1)[0])
            sim = survdata.simulate_censored(
                fit.params, len(data), censor_frac, rep_rng_seed, name=f"replicate-{idx}",
                upper_bound=bound,
            )
            rep_fit = mle.fit_mle(sim)
            rep_rows.append(
                (idx, rep_fit.params.b, rep_fit.params.c, rep_fit.params.beta,
                 rep_fit.loglik, int(rep_fit.converged))
            )
        rep_out = out_dir / "replicates.csv"
        _write_csv(rep_out, ["replicate", "b", "c", "beta", "loglik", "converged"], rep_rows)
        print(f"wrote {rep_out} ({replicates} replicates)")
    return 0


def cmd_fit_bayes(args, config: dict) -> int:
    data = _load_dataset(args, config)
    prior_kwargs = {}
    for pname, flag in (("b", "prior_b"), ("c", "prior_c"), ("beta", "prior_beta")):
        pair = _resolve(args, config, flag, None)
        if pair is not None:
            shape, rate = (float(pair[0]), float(pair[1]))
            prior_kwargs[f"{pname}_shape"] = shape
            prior_kwargs[f"{pname}_rate"] = rate
    prior = bayes.PriorSpec(**prior_kwargs)
    cfg = bayes.McmcConfig(
        n_iter=int(_resolve(args, config, "iterations", 25_000)),
        burn_in=int(_resolve(args, config, "burn_in", 5_000)),
        thin=int(_resolve(args, config, "thin", 5)),
        seed=_resolve_seed(args, config),
        proposal_scales=tuple(
            float(s) for s in _resolve(args, config, "scales", (0.5, 0.5, 0.5))
        ),
        adapt=not bool(_resolve(args, config, "no_adapt", False)),
    )
    chain = bayes.run_mcmc(data, prior, cfg)
    rows = bayes.summarize(chain)
    out_dir = _out_dir(args, config)
    chain_path = out_dir / "chain.csv"
    bayes.write_chain_csv(chain, chain_path)
    fmt = _resolve(args, config, "format", "csv")
    if fmt == "json":
        summary_path = out_dir / "bayes_summary.json"
        payload = {
            "schema_version": SCHEMA_VERSION,
            "summary": rows,
            "acceptance_rates": chain.acceptance_rates.tolist(),
            "warnings": chain.warnings,
        }
        _write_json(summary_path, payload)
    else:
        summary_path = out_dir / "bayes_summary.csv"
        _write_csv(
            summary_path,
            list(bayes.SUMMARY_COLUMNS),
            [tuple(row[col] for col in bayes.SUMMARY_COLUMNS) for row in rows],
        )
    header = "  ".join(f"{col:>10}" for col in bayes.SUMMARY_COLUMNS)
    print(header)
    for row in rows:
        cells = [f"{row['Parameter']:>10}"] + [
            f"{row[col]:>10.4g}" for col in bayes.SUMMARY_COLUMNS[1:]
        ]
        print("  ".join(cells))
    for warning in chain.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {summary_path} and {chain_path}")
    return 0


def _write_km(out_dir: Path, curve: survdata.KmCurve) -> Path:
    path = out_dir / "km.csv"
    _write_csv(
        path,
        ["time", "survival", "at_risk", "events"],
        zip(curve.times, curve.survival, curve.at_risk, curve.events),
    )
    return path


def cmd_km(args, config: dict) -> int:
    data = _load_dataset(args, config)
    curve = survdata.kaplan_meier(data)
    path = _write_km(_out_dir(args, config), curve)
    print(f"wrote {path} ({len(curve.times)} event times)")
    return 0


def _params_from_report(path: str) -> KumIwParams:
    """The estimates of a ``fit-mle`` JSON report; a report that cannot be
    read or lacks valid estimates is a DataError naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            est = json.load(handle)["estimates"]
        return KumIwParams(b=est["b"], c=est["c"], beta=est["beta"])
    except KeyError as exc:
        raise DataError(f"fit report {path} has no {exc} entry") from None
    except (OSError, ValueError, TypeError) as exc:
        raise DataError(f"cannot read fit report {path}: {exc}") from None


def cmd_compare(args, config: dict) -> int:
    data = _load_dataset(args, config)
    if getattr(args, "fit_report", None):
        p = _params_from_report(args.fit_report)
    else:
        p = _params_from(args, config)
    out_dir = _out_dir(args, config)
    comparison = survdata.km_vs_parametric(data, p)
    _write_km(out_dir, comparison.curve)
    _write_csv(
        out_dir / "compare.csv",
        ["t", "km_survival", "model_survival"],
        zip(comparison.t, comparison.km_survival, comparison.model_survival),
    )
    _write_csv(
        out_dir / "qq.csv",
        ["km_survival", "model_survival"],
        zip(comparison.km_survival, comparison.model_survival),
    )
    gap = float(np.max(np.abs(comparison.km_survival - comparison.model_survival)))
    print(f"wrote km.csv, compare.csv, qq.csv (max |KM - model| = {gap:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kumiw",
        description="Kumaraswamy inverse Weibull lifetime distribution toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out-dir", dest="out_dir", help="output directory (default: .)")
        sp.add_argument("--config", help="JSON config file supplying flag defaults")
        sp.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED}; env KUMIW_SEED)")

    def add_params(sp, required=False):
        sp.add_argument("--b", type=float, required=required, help="shape parameter b > 0")
        sp.add_argument("--c", type=float, required=required, help="scale parameter c > 0")
        sp.add_argument("--beta", type=float, required=required, help="shape parameter beta > 0")

    def add_data(sp):
        sp.add_argument("--data", required=True, help="input CSV with censored observations")
        sp.add_argument("--time-col", dest="time_col", help="time column name (default: time)")
        sp.add_argument("--status-col", dest="status_col", help="status column name (default: status)")

    sp = sub.add_parser("dist", help="tabulate pdf/cdf/survival/hazard on a time grid")
    add_common(sp)
    add_params(sp)
    sp.add_argument("--t-min", dest="t_min", type=float, help="grid start (default 0.05)")
    sp.add_argument("--t-max", dest="t_max", type=float, help="grid end (default 5.0)")
    sp.add_argument("--points", type=int, help="grid size (default 200)")
    sp.set_defaults(handler=cmd_dist)

    sp = sub.add_parser("sample", help="simulate lifetimes (optionally censored)")
    add_common(sp)
    add_params(sp)
    sp.add_argument("--n", type=int, help="sample size (default 100)")
    sp.add_argument(
        "--censor-rate", dest="censor_rate", type=float,
        help="target marginal censoring proportion in (0, 1); adds a status column",
    )
    sp.set_defaults(handler=cmd_sample)

    sp = sub.add_parser("fit-mle", help="censored maximum-likelihood fit")
    add_common(sp)
    add_data(sp)
    sp.add_argument("--ci-level", dest="ci_level", type=float, help="CI level (default 0.95)")
    sp.add_argument(
        "--lr-null", dest="lr_null", action="append", choices=sorted(_LR_NULLS),
        help="run an LR test against this null sub-model (repeatable)",
    )
    sp.add_argument("--format", choices=("json", "csv"), help="report format (default json)")
    sp.add_argument(
        "--replicates", type=int,
        help="parametric-bootstrap replicates: simulate from the fit and refit",
    )
    sp.set_defaults(handler=cmd_fit_mle)

    sp = sub.add_parser(
        "fit-bayes",
        help="posterior sampling: joint (log c, log beta) random walk, exact Gamma draw of b",
    )
    add_common(sp)
    add_data(sp)
    for pname in ("b", "c", "beta"):
        sp.add_argument(
            f"--prior-{pname}", dest=f"prior_{pname}", nargs=2, type=float,
            metavar=("SHAPE", "RATE"),
            help=f"Gamma prior for {pname} (default 1.0 0.001)",
        )
    sp.add_argument("--iterations", type=int, help="total iterations (default 25000)")
    sp.add_argument("--burn-in", dest="burn_in", type=int, help="burn-in iterations (default 5000)")
    sp.add_argument("--thin", type=int, help="thinning stride (default 5)")
    sp.add_argument(
        "--scales", nargs=3, type=float, metavar=("SB", "SC", "SBETA"),
        help="initial proposal standard deviations of log c and log beta (SC, SBETA; "
        "SB is unused, as b is drawn exactly); all finite and > 0 (default 0.5 0.5 0.5)",
    )
    sp.add_argument("--no-adapt", dest="no_adapt", action="store_const", const=True,
                    help="disable proposal-covariance adaptation during burn-in")
    sp.add_argument("--format", choices=("json", "csv"), help="summary format (default csv)")
    sp.set_defaults(handler=cmd_fit_bayes)

    sp = sub.add_parser("km", help="Kaplan-Meier survival curve")
    add_common(sp)
    add_data(sp)
    sp.set_defaults(handler=cmd_km)

    sp = sub.add_parser("compare", help="KM vs parametric survival comparison tables")
    add_common(sp)
    add_data(sp)
    add_params(sp)
    sp.add_argument(
        "--fit-report", dest="fit_report",
        help="JSON report from fit-mle supplying the parameters (overrides --b/--c/--beta)",
    )
    sp.set_defaults(handler=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                config = json.load(handle)
            if not isinstance(config, dict):
                raise ValueError("config must be a JSON object")
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
    try:
        return args.handler(args, config)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

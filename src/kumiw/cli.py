"""Command-line front end.

Subcommands: ``dist`` (evaluation grid), ``sample`` (simulation),
``fit-mle``, ``fit-bayes``, ``km`` and ``compare``.  Emits plot-ready CSV
files rather than rendered figures.  Exit codes: 0 success, 2 invalid
arguments or parameters (a grid or sample too large for memory among
them), 3 data error, 4 numerical failure.
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
from .distribution import (
    _PARAM_NAMES, KumIwParams, SubModel, _count, _is_number, _real, cdf, hazard, pdf, sample, survival,
)
from .errors import DataError, NumericError
from .survdata import _write_csv

#: Fixed default seed (never time-based); overridable via KUMIW_SEED or --seed.
DEFAULT_SEED = 20260810
SCHEMA_VERSION = 1

# --lr-null's names: each sub-model's value without its hyphen
_LR_NULLS = {m.value.replace("-", ""): m for m in SubModel if m is not SubModel.KUM_IW}


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_report(out_dir: Path, stem: str, fmt: str, payload: dict, header, rows) -> Path:
    """Write a report as ``stem.json``, ``payload`` behind ``schema_version``,
    or as ``stem.csv``, ``header`` and ``rows``; return its path."""
    path = out_dir / f"{stem}.{fmt}"
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as handle:
            report = {"schema_version": SCHEMA_VERSION, **payload}
            json.dump(_finite_or_null(report), handle, indent=2, allow_nan=False)
            handle.write("\n")
    else:
        _write_csv(path, header, rows)
    return path


def _number(value, kind: type, name: str, exact: bool = False):
    """``value`` (a config entry or an environment string) as one ``kind``
    (int or float); anything ``kind`` cannot convert is a ValueError that
    names the setting.  ``exact`` also refuses all but a number
    (``_is_number``) that ``kind`` holds exactly: a bool, a string, or 5.7
    as an integer."""
    try:
        number = kind(value)
        if not exact or (_is_number(value) and (number == value or number != number)):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a number"
    raise ValueError(f"{name} must be {what}, got {value!r}")


class _AppendAnew(argparse.Action):
    """``append`` whose first use on the command line starts a new list, so
    that repeated flags replace a list from ``--config`` instead of adding
    to it."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, ([] if items is self.default else items) + [values])


def _from_config(action: argparse.Action, value):
    """A ``--config`` entry as ``action``'s flag would store it; a value
    the flag could not take is a ValueError that names the setting."""
    name = action.dest
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        what = "true or false"
    elif isinstance(action, _AppendAnew):
        if isinstance(value, list) and all(v in action.choices for v in value):
            return value
        what = "a list of " + "/".join(action.choices)
    elif isinstance(action.nargs, int):
        if isinstance(value, list) and len(value) == action.nargs:
            try:
                return [_number(v, action.type, name, exact=True) for v in value]
            except ValueError:
                pass
        what = f"a list of {action.nargs} numbers"
    elif action.type in (int, float):
        return _number(value, action.type, name, exact=True)
    elif isinstance(value, str) and (action.choices is None or value in action.choices):
        return value
    else:
        what = "one of " + ", ".join(action.choices) if action.choices else "a string"
    raise ValueError(f"{name} must be {what}, got {value!r}")


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    """Read the ``--config`` file once and make each entry that names an
    optional setting of the chosen subcommand that subcommand's default,
    converted by ``_from_config``."""
    try:
        with open(args.config, encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from None
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sp = sub.choices[args.command]
    sp.set_defaults(**{
        action.dest: _from_config(action, config[action.dest])
        for action in sp._actions
        if action.dest in config and action.dest not in ("help", "config") and not action.required
    })


def _resolve_seed(args) -> int:
    """--seed (or its --config entry), else KUMIW_SEED, else the default."""
    seed = args.seed
    if seed is None:
        env = os.environ.get("KUMIW_SEED")
        seed = DEFAULT_SEED if env is None else _number(env, int, "KUMIW_SEED")
    return _count(seed, "seed", 0)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _params_from(args) -> KumIwParams:
    for name in _PARAM_NAMES:
        if getattr(args, name) is None:
            raise ValueError(f"missing required parameter --{name}")
    return KumIwParams(args.b, args.c, args.beta)


def _load_dataset(args) -> survdata.CensoredDataset:
    return survdata.load_csv(args.data, time_col=args.time_col, status_col=args.status_col)


def cmd_dist(args) -> int:
    p = _params_from(args)
    t_min, t_max, points = args.t_min, args.t_max, args.points
    if not (t_min > 0 and math.inf > t_max > t_min and points >= 2):
        raise ValueError("grid requires 0 < t-min < t-max < inf and points >= 2")
    grid = np.linspace(t_min, t_max, points)
    out = _out_dir(args) / "dist.csv"
    rows = zip(grid, pdf(p, grid), cdf(p, grid), survival(p, grid), hazard(p, grid))
    _write_csv(out, ["t", "pdf", "cdf", "survival", "hazard"], rows)
    print(f"wrote {out} ({points} rows)")
    return 0


def cmd_sample(args) -> int:
    p = _params_from(args)
    n = _count(args.n, "sample size", 0)
    seed = _resolve_seed(args)
    out = _out_dir(args) / "sample.csv"
    if args.censor_rate is None:
        times = sample(p, n, seed)
        _write_csv(out, ["time"], ((t,) for t in times))
    else:
        if n == 0:
            # the rule simulate_censored applies, which n = 0 does not reach
            if args.censor_rate != 0:
                _real(args.censor_rate, "censoring rate", 1)
            _write_csv(out, ["time", "status"], [])
        else:
            data = survdata.simulate_censored(p, n, args.censor_rate, seed)
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
            for i, name in enumerate(_PARAM_NAMES)
        }
    return {
        "n": len(data),
        "n_events": data.n_events,
        "estimates": {name: getattr(fit.params, name) for name in _PARAM_NAMES},
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


def cmd_fit_mle(args) -> int:
    replicates = args.replicates
    if replicates < 0:
        raise ValueError(f"replicates must be >= 0, got {replicates}")
    # a bad seed exits before anything is written
    seed = _resolve_seed(args) if replicates else None
    data = _load_dataset(args)
    fit = mle.fit_mle(data, ci_level=args.ci_level)
    lr_results = [mle.lr_test(data, _LR_NULLS[name], full_fit=fit) for name in args.lr_null]
    out_dir = _out_dir(args)
    report = _fit_report_dict(fit, data, lr_results)
    estimates, se, ci = report["estimates"], report["se"] or {}, fit.ci or {}
    rows = [(name, est, se.get(name, ""), *ci.get(name, ("", ""))) for name, est in estimates.items()]
    header = ["parameter", "estimate", "se", "ci_lower", "ci_upper"]
    out = _write_report(out_dir, "fit_mle", args.format, report, header, rows)
    print("estimates: " + " ".join(f"{name}={est:.6g}" for name, est in estimates.items()))
    print(f"loglik={fit.loglik:.6f} converged={fit.converged}")
    for res in lr_results:
        print(
            f"LR vs {res.null_model.value}: stat={res.statistic:.4f} "
            f"df={res.df} p={res.p_value:.4g}"
        )
    print(f"wrote {out}")

    if replicates:
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
        _write_csv(rep_out, ["replicate", *_PARAM_NAMES, "loglik", "converged"], rep_rows)
        print(f"wrote {rep_out} ({replicates} replicates)")
    return 0


def cmd_fit_bayes(args) -> int:
    data = _load_dataset(args)
    prior_kwargs = {}
    for pname in _PARAM_NAMES:
        pair = getattr(args, f"prior_{pname}")
        if pair is not None:
            prior_kwargs[f"{pname}_shape"], prior_kwargs[f"{pname}_rate"] = pair
    prior = bayes.PriorSpec(**prior_kwargs)
    cfg = bayes.McmcConfig(
        n_iter=args.iterations,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=_resolve_seed(args),
        proposal_scales=tuple(args.scales),
        adapt=not args.no_adapt,
    )
    chain = bayes.run_mcmc(data, prior, cfg)
    rows = bayes.summarize(chain)
    out_dir = _out_dir(args)
    chain_path = out_dir / "chain.csv"
    bayes.write_chain_csv(chain, chain_path)
    summary_path = _write_report(
        out_dir,
        "bayes_summary",
        args.format,
        {"summary": rows, "acceptance_rates": chain.acceptance_rates.tolist(), "warnings": chain.warnings},
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


def _write_km(out_dir: Path, curve: survdata.KmCurve, times, survival) -> Path:
    """Write ``km.csv`` with ``times`` and ``survival`` as the curve's first
    two columns: its floats, or their ``%.17g`` strings, the same bytes."""
    path = out_dir / "km.csv"
    _write_csv(
        path,
        ["time", "survival", "at_risk", "events"],
        zip(times, survival, curve.at_risk, curve.events),
    )
    return path


def cmd_km(args) -> int:
    data = _load_dataset(args)
    curve = survdata.kaplan_meier(data)
    path = _write_km(_out_dir(args), curve, curve.times, curve.survival)
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


def cmd_compare(args) -> int:
    data = _load_dataset(args)
    if args.fit_report:
        p = _params_from_report(args.fit_report)
    else:
        p = _params_from(args)
    out_dir = _out_dir(args)
    comparison = survdata.km_vs_parametric(data, p)
    # the three files share these columns: each value is formatted once,
    # with the %.17g that _write_csv gives a float
    t, km, model = (
        list(map("%.17g".__mod__, column.tolist()))
        for column in (comparison.t, comparison.km_survival, comparison.model_survival)
    )
    _write_km(out_dir, comparison.curve, t, km)
    _write_csv(out_dir / "compare.csv", ["t", "km_survival", "model_survival"], zip(t, km, model))
    _write_csv(out_dir / "qq.csv", ["km_survival", "model_survival"], zip(km, model))
    gap = float(np.max(np.abs(comparison.km_survival - comparison.model_survival)))
    print(f"wrote km.csv, compare.csv, qq.csv (max |KM - model| = {gap:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The one statement of every setting: its type, count, choices and
    default.  ``--config`` entries become subcommand defaults in ``main``."""
    parser = argparse.ArgumentParser(
        prog="kumiw",
        description="Kumaraswamy inverse Weibull lifetime distribution toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out-dir", dest="out_dir", default=".",
                        help="output directory (default: %(default)s)")
        sp.add_argument("--config", help="JSON config file supplying flag defaults")
        sp.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED}; env KUMIW_SEED)")

    def add_params(sp):
        sp.add_argument("--b", type=float, help="shape parameter b > 0")
        sp.add_argument("--c", type=float, help="scale parameter c > 0")
        sp.add_argument("--beta", type=float, help="shape parameter beta > 0")

    def add_data(sp):
        sp.add_argument("--data", required=True, help="input CSV with censored observations")
        sp.add_argument("--time-col", dest="time_col", default="time",
                        help="time column name (default: %(default)s)")
        sp.add_argument("--status-col", dest="status_col", default="status",
                        help="status column name (default: %(default)s)")

    sp = sub.add_parser("dist", help="tabulate pdf/cdf/survival/hazard on a time grid")
    add_common(sp)
    add_params(sp)
    sp.add_argument("--t-min", dest="t_min", type=float, default=0.05,
                    help="grid start (default %(default)s)")
    sp.add_argument("--t-max", dest="t_max", type=float, default=5.0,
                    help="grid end (default %(default)s)")
    sp.add_argument("--points", type=int, default=200, help="grid size (default %(default)s)")
    sp.set_defaults(handler=cmd_dist)

    sp = sub.add_parser("sample", help="simulate lifetimes (optionally censored)")
    add_common(sp)
    add_params(sp)
    sp.add_argument("--n", type=int, default=100, help="sample size (default %(default)s)")
    sp.add_argument(
        "--censor-rate", dest="censor_rate", type=float,
        help="target marginal censoring proportion in (0, 1); adds a status column",
    )
    sp.set_defaults(handler=cmd_sample)

    sp = sub.add_parser("fit-mle", help="censored maximum-likelihood fit")
    add_common(sp)
    add_data(sp)
    sp.add_argument("--ci-level", dest="ci_level", type=float, default=0.95,
                    help="CI level (default %(default)s)")
    sp.add_argument(
        "--lr-null", dest="lr_null", action=_AppendAnew, default=[], choices=sorted(_LR_NULLS),
        help="run an LR test against this null sub-model (repeatable)",
    )
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    help="report format (default %(default)s)")
    sp.add_argument(
        "--replicates", type=int, default=0,
        help="parametric-bootstrap replicates: simulate from the fit and refit",
    )
    sp.set_defaults(handler=cmd_fit_mle)

    sp = sub.add_parser(
        "fit-bayes",
        help="posterior sampling: joint (log c, log beta) random walk, exact Gamma draw of b",
    )
    add_common(sp)
    add_data(sp)
    for pname in _PARAM_NAMES:
        sp.add_argument(
            f"--prior-{pname}", dest=f"prior_{pname}", nargs=2, type=float,
            metavar=("SHAPE", "RATE"),
            help=f"Gamma prior for {pname} (default 1.0 0.001)",
        )
    sp.add_argument("--iterations", type=int, default=25_000,
                    help="total iterations (default %(default)s)")
    sp.add_argument("--burn-in", dest="burn_in", type=int, default=5_000,
                    help="burn-in iterations (default %(default)s)")
    sp.add_argument("--thin", type=int, default=5, help="thinning stride (default %(default)s)")
    sp.add_argument(
        "--scales", nargs=3, type=float, default=[0.5, 0.5, 0.5], metavar=("SB", "SC", "SBETA"),
        help="initial proposal standard deviations of log c and log beta (SC, SBETA; "
        "SB is unused, as b is drawn exactly); all finite and > 0 (default 0.5 0.5 0.5)",
    )
    sp.add_argument("--no-adapt", dest="no_adapt", action="store_true",
                    help="disable proposal-covariance adaptation during burn-in")
    sp.add_argument("--format", choices=("json", "csv"), default="csv",
                    help="summary format (default %(default)s)")
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
    try:
        if args.config:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        return args.handler(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

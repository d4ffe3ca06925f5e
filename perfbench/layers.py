"""Per-layer metrics of the traced run, computed from the recorded spans.

Layers are the package modules.  A metric whose layer does no work on
a workload reads 0 there.  ``self_s`` metrics are self time per traced
op; ``.s`` and ``us_per_*`` metrics are mean span durations.
"""

from __future__ import annotations

import statistics
import tracemalloc

from tracing import self_times

CLI_COMMANDS = ("sample", "fit-mle", "km", "compare", "dist", "fit-bayes")
TIMED_EVALUATORS = ("pdf", "cdf", "survival", "hazard", "quantile")

#: Every per-layer metric with its unit, in report order.
PER_LAYER = (
    *((f"distribution.{fn}.ns_per_point", "ns") for fn in TIMED_EVALUATORS),
    ("distribution.peak_alloc_bytes_per_point", "B"),
    ("distribution.log1m_exp.self_s", "s"),
    ("specfun.upper_incomplete_gamma.calls", "count"),
    ("specfun.upper_incomplete_gamma.self_s", "s"),
    ("measures.moment.self_s", "s"),
    ("measures.mean_deviation.self_s", "s"),
    ("measures.bonferroni_lorenz.self_s", "s"),
    ("measures.entropy.self_s", "s"),
    ("measures.order_stat_moment.self_s", "s"),
    ("measures.quad.calls", "count"),
    ("measures.quad.self_s", "s"),
    ("survdata.times_access.calls_per_op", "count"),
    ("survdata.times_access.self_s", "s"),
    ("survdata.load_csv.us_per_row", "us"),
    ("survdata.kaplan_meier.us_per_row", "us"),
    ("survdata.simulate_censored.s", "s"),
    ("survdata.censoring_upper_bound.s", "s"),
    ("mle.loglik.calls_per_fit", "count"),
    ("mle.loglik.us_per_call.n500", "us"),
    ("mle.loglik.us_per_call.n10000", "us"),
    ("mle.loglik.self_share", "1"),
    ("mle.fit_mle.self_s", "s"),
    ("mle.iterations_per_fit", "count"),
    ("mle.observed_information.s", "s"),
    ("mle.lr_test.s", "s"),
    ("mle.lr_refit.calls", "count"),
    ("mle.converged_ratio", "1"),
    ("bayes.us_per_iter", "us"),
    ("bayes.loglik.calls_per_iter", "count"),
    ("bayes.loglik.us_per_call", "us"),
    ("bayes.prior.calls_per_iter", "count"),
    ("bayes.prior.us_per_call", "us"),
    ("bayes.acceptance.b", "1"),
    ("bayes.acceptance.c", "1"),
    ("bayes.acceptance.beta", "1"),
    ("bayes.ess_per_draw.min", "1"),
    ("bayes.min_ess_per_s", "1/s"),
    *((f"cli.{cmd}.s", "s") for cmd in CLI_COMMANDS),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_ratio", "1"),
    ("trace.overhead_p50_ms", "ms"),
)

_FITS = ("mle.fit_mle", "mle.fit_pinned")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def alloc_peak_per_point(first_args: dict) -> float:
    """Largest tracemalloc peak per point over the array evaluators, each
    replayed once on the first arguments it saw in the traced run."""
    worst = 0.0
    for name, (fn, args, kwargs) in first_args.items():
        points = args[1] if isinstance(args[1], int) else getattr(args[1], "size", 1)
        if not points:
            continue
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        worst = max(worst, peak / points)
    return worst


class _Spans:
    def __init__(self, rec):
        self.rec = rec
        self.names = rec.names
        self.parents = rec.parents
        self.dur = [e - s for s, e in zip(rec.starts, rec.ends)]
        self.self_ns = self_times(rec.starts, rec.ends, rec.parents)
        self.by_name: dict[str, list[int]] = {}
        for i, name in enumerate(rec.names):
            self.by_name.setdefault(name, []).append(i)

    def idx(self, *names, in_ops=True):
        out = [i for n in names for i in self.by_name.get(n, ())]
        if in_ops:
            out = [i for i in out if self.rec.ops[i] >= 0]
        return out

    def ancestor(self, i, names) -> int:
        p = self.parents[i]
        while p >= 0 and self.names[p] not in names:
            p = self.parents[p]
        return p

    def total(self, idx, field="dur") -> int:
        values = self.dur if field == "dur" else self.self_ns
        return sum(values[i] for i in idx)

    def attr(self, i, key, default=0):
        return self.rec.attrs.get(i, {}).get(key, default)


def layer_metrics(rec, traced, *, untraced, chains=None, ess=None, ess_per_s=0.0,
                  bytes_written=0, alloc_per_point=0.0) -> dict:
    """All PER_LAYER metrics from the spans of the traced phase.

    ``untraced`` is the untraced pass over the same ops, run interleaved
    batch by batch; ``chains`` the traced MCMC chains and ``ess`` (min
    pooled ESS, draws) over them.
    """
    sp = _Spans(rec)
    n_ops = len(traced.records)
    per_op_s = 1e-9 / n_ops if n_ops else 0.0
    m: dict[str, float] = {}

    for fn in TIMED_EVALUATORS:
        top = [i for i in sp.idx(f"distribution.{fn}")
               if sp.parents[i] < 0 or not sp.names[sp.parents[i]].startswith("distribution.")]
        m[f"distribution.{fn}.ns_per_point"] = _ratio(
            sp.total(top), sum(sp.attr(i, "points") for i in top))
    m["distribution.peak_alloc_bytes_per_point"] = alloc_per_point
    m["distribution.log1m_exp.self_s"] = sp.total(sp.idx("distribution.log1m_exp"), "self") * per_op_s

    uig = sp.idx("specfun.upper_incomplete_gamma")
    m["specfun.upper_incomplete_gamma.calls"] = len(uig)
    m["specfun.upper_incomplete_gamma.self_s"] = sp.total(uig, "self") * per_op_s

    groups = {
        "moment": ("measures.moment",),
        "mean_deviation": ("measures.mean_deviation_about_mean", "measures.mean_deviation_about_median"),
        "bonferroni_lorenz": ("measures.bonferroni", "measures.lorenz"),
        "entropy": ("measures.shannon_entropy", "measures.renyi_entropy"),
        "order_stat_moment": ("measures.order_stat_moment",),
    }
    for key, names in groups.items():
        m[f"measures.{key}.self_s"] = sp.total(sp.idx(*names), "self") * per_op_s
    quad = sp.idx("measures.quad")
    m["measures.quad.calls"] = len(quad)
    m["measures.quad.self_s"] = sp.total(quad, "self") * per_op_s

    access = sp.idx("survdata.times_access")
    m["survdata.times_access.calls_per_op"] = _ratio(len(access), n_ops)
    m["survdata.times_access.self_s"] = sp.total(access, "self") * per_op_s
    for fn in ("load_csv", "kaplan_meier"):
        idx = sp.idx(f"survdata.{fn}")
        m[f"survdata.{fn}.us_per_row"] = _ratio(sp.total(idx), sum(sp.attr(i, "rows") for i in idx)) / 1e3
    for fn in ("simulate_censored", "censoring_upper_bound"):
        idx = sp.idx(f"survdata.{fn}", in_ops=False)  # set-up calls count too
        m[f"survdata.{fn}.s"] = _ratio(sp.total(idx), len(idx)) / 1e9

    loglik = sp.idx("mle.loglik")
    fits = sp.idx(*_FITS)
    in_fit = [i for i in loglik if sp.ancestor(i, _FITS) >= 0]
    m["mle.loglik.calls_per_fit"] = _ratio(len(in_fit), len(fits))
    for n in (500, 10_000):
        idx = [i for i in loglik if sp.attr(i, "n") == n]
        m[f"mle.loglik.us_per_call.n{n}"] = _ratio(sp.total(idx), len(idx)) / 1e3
    op_spans = sp.idx(*{f"op.{r.kind}" for r in traced.records})
    m["mle.loglik.self_share"] = _ratio(sp.total(loglik, "self"), sp.total(op_spans))
    m["mle.fit_mle.self_s"] = sp.total(fits, "self") * per_op_s
    m["mle.iterations_per_fit"] = _ratio(sum(sp.attr(i, "iterations") for i in fits), len(fits))
    for fn in ("observed_information", "lr_test"):
        idx = sp.idx(f"mle.{fn}")
        m[f"mle.{fn}.s"] = _ratio(sp.total(idx), len(idx)) / 1e9
    m["mle.lr_refit.calls"] = sum(bool(sp.attr(i, "refit", False)) for i in fits)
    m["mle.converged_ratio"] = _ratio(sum(bool(sp.attr(i, "converged", False)) for i in fits), len(fits))

    runs = sp.idx("bayes.run_mcmc")
    iters = sum(sp.attr(i, "iters") for i in runs)
    m["bayes.us_per_iter"] = _ratio(sp.total(runs), iters) / 1e3
    for key, name in (("loglik", "mle.loglik"), ("prior", "bayes.prior")):
        idx = [i for i in sp.idx(name) if sp.ancestor(i, ("bayes.run_mcmc",)) >= 0]
        m[f"bayes.{key}.calls_per_iter"] = _ratio(len(idx), iters)
        m[f"bayes.{key}.us_per_call"] = _ratio(sp.total(idx), len(idx)) / 1e3
    for j, name in enumerate(("b", "c", "beta")):
        rates = [float(c.acceptance_rates[j]) for c in chains or ()]
        m[f"bayes.acceptance.{name}"] = statistics.fmean(rates) if rates else 0.0
    m["bayes.ess_per_draw.min"] = _ratio(ess[0], ess[1]) if ess else 0.0
    m["bayes.min_ess_per_s"] = ess_per_s

    cli_spans = []
    for cmd in CLI_COMMANDS:
        idx = sp.idx(f"op.{cmd}")
        cli_spans += idx
        m[f"cli.{cmd}.s"] = _ratio(sp.total(idx), len(idx)) / 1e9
    m["cli.self_s"] = sp.total(cli_spans, "self") * per_op_s
    m["cli.bytes_written"] = bytes_written

    traced_s = [r.seconds for r in traced.records]
    untraced_s = [r.seconds for r in untraced.records]
    m["trace.overhead_ratio"] = _ratio(sum(traced_s), sum(untraced_s)) - 1.0
    m["trace.overhead_p50_ms"] = (statistics.median(traced_s) - statistics.median(untraced_s)) * 1e3
    return m

"""In-memory span recorder and the module-boundary wrappers of the traced run.

A span is (name, start, end, parent, op).  Wrappers are installed on
the package's module and class attributes for the traced run only and
removed afterwards; the untraced runs never see them.
"""

from __future__ import annotations

import contextlib
import time

_clock = time.perf_counter_ns

#: Array evaluators whose cost is reported per point.
EVALUATORS = ("pdf", "cdf", "survival", "hazard", "quantile", "sample")


class SpanRecorder:
    """Spans kept in parallel lists; ``attrs`` holds per-span extras by index."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.op_id = -1
        self.enabled = True
        self.first_args: dict[str, tuple] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Run code (output checks) without recording spans."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def wrap(self, fn, name: str, describe=None, keep_first_args: bool = False):
        """Return ``fn`` wrapped in a span.

        ``describe(args, kwargs, result, parent_name)`` may return a dict
        stored as the span's attributes.
        """
        rec = self

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            if keep_first_args and rec.op_id >= 0 and name not in rec.first_args:
                rec.first_args[name] = (fn, args, kwargs)
            idx = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if describe is not None:
                parent = rec.parents[idx]
                rec.attrs[idx] = describe(args, kwargs, result, rec.names[parent] if parent >= 0 else "")
            return result

        traced.__wrapped__ = fn
        return traced

    def to_rows(self):
        for i, name in enumerate(self.names):
            yield i, name, self.starts[i], self.ends[i], self.parents[i], self.ops[i]


def self_times(starts, ends, parents) -> list[int]:
    """Duration of each span minus the part of its interval that its
    direct children cover (children may overlap each other)."""
    n = len(starts)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(n):
        lo, hi = starts[i], ends[i]
        covered = 0
        cur_lo = cur_hi = None
        for j in sorted(children.get(i, ()), key=lambda j: starts[j]):
            a, b = max(starts[j], lo), min(ends[j], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out


class _ModuleProxy:
    """Stands in for a module inside one other module, overriding a few names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _describe_evaluator(args, kwargs, result, parent):
    import numpy as np

    # sample(p, n, seed) takes a count; the others take the points
    return {"points": args[1] if isinstance(args[1], int) else int(np.size(args[1]))}


def _describe_fit(args, kwargs, result, parent):
    return {
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "refit": parent == "mle.lr_test" and kwargs.get("init") is not None,
    }


def _describe_rows(args, kwargs, result, parent):
    return {"rows": len(result)}


def _describe_rows_in(args, kwargs, result, parent):
    return {"rows": len(args[0])}


def _describe_loglik(args, kwargs, result, parent):
    return {"n": args[0].n}


def _describe_mcmc(args, kwargs, result, parent):
    cfg = args[2]
    return {"iters": cfg.n_iter}


@contextlib.contextmanager
def instrumented(rec: SpanRecorder):
    """Install span wrappers at the package's module boundaries; undo on exit."""
    from kumiw import bayes, cli, distribution, measures, mle, survdata

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_attr(owner, attr, name, describe=None, keep_first_args=False):
        patch(owner, attr, rec.wrap(getattr(owner, attr), name, describe, keep_first_args))

    try:
        # distribution: array evaluators where arrays reach them
        for fn in EVALUATORS:
            wrap_attr(distribution, fn, f"distribution.{fn}", _describe_evaluator, True)
        for fn in ("pdf", "cdf", "survival", "hazard", "sample"):
            wrap_attr(cli, fn, f"distribution.{fn}", _describe_evaluator, True)
        wrap_attr(mle, "log1m_exp", "distribution.log1m_exp")
        wrap_attr(bayes, "log1m_exp", "distribution.log1m_exp")
        # specfun and measures
        wrap_attr(measures, "upper_incomplete_gamma", "specfun.upper_incomplete_gamma")
        patch(measures, "integrate", _ModuleProxy(
            measures.integrate, quad=rec.wrap(measures.integrate.quad, "measures.quad")))
        for fn in ("moment", "mean_deviation_about_mean", "mean_deviation_about_median",
                   "bonferroni", "lorenz", "shannon_entropy", "renyi_entropy",
                   "order_stat_moment"):
            wrap_attr(measures, fn, f"measures.{fn}")
        # survdata
        cls = survdata.CensoredDataset
        for prop in ("times", "event_mask"):
            original = cls.__dict__[prop]
            patch(cls, prop, property(rec.wrap(original.fget, "survdata.times_access")))
        wrap_attr(survdata, "load_csv", "survdata.load_csv", _describe_rows)
        wrap_attr(survdata, "kaplan_meier", "survdata.kaplan_meier", _describe_rows_in)
        wrap_attr(survdata, "km_vs_parametric", "survdata.km_vs_parametric")
        wrap_attr(survdata, "simulate_censored", "survdata.simulate_censored")
        wrap_attr(survdata, "censoring_upper_bound", "survdata.censoring_upper_bound")
        # mle
        patch(mle._Loglik, "__call__", rec.wrap(mle._Loglik.__call__, "mle.loglik", _describe_loglik))
        wrap_attr(mle, "fit_mle", "mle.fit_mle", _describe_fit)
        wrap_attr(mle, "_fit_pinned", "mle.fit_pinned", _describe_fit)
        wrap_attr(mle, "observed_information", "mle.observed_information")
        wrap_attr(mle, "lr_test", "mle.lr_test")
        # bayes
        patch(bayes.PriorSpec, "log_density", rec.wrap(bayes.PriorSpec.log_density, "bayes.prior"))
        wrap_attr(bayes, "run_mcmc", "bayes.run_mcmc", _describe_mcmc)
        wrap_attr(bayes, "summarize", "bayes.summarize")
        wrap_attr(bayes, "write_chain_csv", "bayes.write_chain_csv")
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

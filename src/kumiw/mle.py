"""Censored maximum-likelihood estimation.

Log-likelihood with right censoring and its exact score and Hessian in
(log b, log c, log beta); line-search Newton maximization on them;
observed information from the exact Hessian; Wald intervals on the log
scale; and likelihood-ratio tests against the pinned sub-models.

The Wald z (``ndtri``) and the LR p-value (``chdtrc``) read
``scipy.special`` as an attribute of ``scipy`` at call time, which loads
the submodule on first use (scipy >= 1.9 loads its submodules lazily), so
importing this module does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy

# log1m_exp is unused here (_Loglik._rows states L); perfbench/tracing.py wraps it
from .distribution import _LN2, _PARAM_NAMES, _SUBMODEL_PINNED, _TINY, KumIwParams, SubModel, _real, log1m_exp
from .errors import DataError, NumericError
from .survdata import CensoredDataset, kaplan_meier

__all__ = [
    "FitResult",
    "LrTestResult",
    "censored_loglik",
    "fit_mle",
    "observed_information",
    "wald_ci",
    "lr_test",
]

_GRAD_TOL = 1e-6
_MAX_STEPS, _MAX_HALVINGS = 100, 40  # Newton steps per fit, halvings per step
_VALUE_ULPS = 16  # a value within this many ulps of ``_Loglik.magnitude`` holds
_EIG_FLOOR = 1e-8  # Hessian eigenvalues are clamped to <= -_EIG_FLOOR * max(1, max |eigenvalue|)
# below this log x, some x = (c/t)^beta may be under the smallest normal float
_LOG_TINY_GATE = math.log(_TINY) + 1.0
_LOG_HUGE = math.log(np.finfo(float).max)


class _Loglik:
    """Censored log-likelihood with the data terms precomputed.

    The data are one array ``log_t`` of log-times, the r events first and
    then the n - r censorings, so every O(n) pass is one ufunc call per
    step over all rows; only the sums are taken per group, over
    ``[:r]`` and ``[r:]``.  ``_rows`` states the b-free rows once, for
    the value pass ``terms_rows`` and the fit pass ``value_score_hessian``;
    both write them into workspaces that the instance owns, so an instance
    is not to be shared between threads.
    With x = (c/t)^beta, ``terms(c, beta)`` returns (sum of x over events,
    S_f = sum of log(1 - e^-x) over events, S_c = the same sum over
    censorings); ``terms_rows`` returns them at k points in one pass.
    ``combine(b, c, beta, terms)`` turns them into the value in scalar
    arithmetic.  b enters only as r log b + (b - 1) S_f + b S_c, so a
    caller that moves b alone (the sampler's b update) reuses the terms
    of its current (c, beta).
    """

    def __init__(self, d: CensoredDataset):
        times = d.times
        events = d.event_mask
        self.log_t = np.log(np.concatenate((times[events], times[~events])))
        self.r = int(events.sum())
        self.n = len(times)
        # e per row: 1.0 for the r events, then 0.0 for the censorings
        self.e_row = np.zeros(self.n)
        self.e_row[: self.r] = 1.0
        self.sum_log_tf = float(self.log_t[: self.r].sum())
        self.max_log_t = float(np.max(self.log_t, initial=-math.inf))
        # row workspaces, made on first use: terms_rows' one for each k, and
        # value_score_hessian's
        self._blocks = {}
        self._fit_rows = None

    def _rows(self, log_cs, betas, out, tiny):
        """Write the b-free rows at k points (log c_j, beta_j), Python
        floats, into the caller's buffers and return the ``tiny`` mask or
        None; run under the caller's ``errstate``.

        ``out`` holds six float arrays of one shape, (k, n) or, at one
        point, 1-D: L, x, y, -x and den, then a scratch row; ``tiny`` is a
        bool array of that shape.  One point runs at a float point, which
        skips the block's broadcasting.  y = beta (log c - log t), x = e^y,
        den = 1 - e^-x and L = log(1 - e^-x), taken as log(den) where
        x < ln 2 and as log1p(-e^-x) elsewhere.  ``tiny`` marks the lanes
        where x is below the smallest normal float (lost digits or 0),
        whose L takes its limit y; None is returned when ``max_log_t``
        shows that no lane can be.  No exp or log writes over its own
        input, so each runs the loop that a fresh output would.
        """
        ell, x, y, neg_x, den, work = out
        if len(log_cs) == 1:
            log_c, beta = log_cs[0], betas[0]
        else:
            log_c, beta = np.array(log_cs)[:, None], np.array(betas)[:, None]
        # each ufunc takes its output positionally: out= costs about 50 ns a
        # call, and the rows' masked copies go through putmask, about 1 us
        # less at n = 500 than copyto(where=)
        np.subtract(log_c, self.log_t, y)
        np.multiply(beta, y, y)
        np.exp(y, x)
        np.negative(x, neg_x)  # y - x is y + (-x) bit for bit
        np.expm1(neg_x, den)
        np.negative(den, den)
        # distribution._log1m_exp_x gives the same bits, but slower here: 21.9
        # against 10.7 us at n = 300 (numpy 2.4, 2-vCPU x86 VM)
        np.exp(neg_x, work)
        np.negative(work, work)
        np.log1p(work, ell)
        np.log(den, work)
        np.less(x, _LN2, tiny)
        np.putmask(ell, tiny, work)
        # the gate on the k Python floats, cheaper than any numpy test
        if not any(b * (lc - self.max_log_t) < _LOG_TINY_GATE for lc, b in zip(log_cs, betas)):
            return None
        np.less(x, _TINY, tiny)
        np.putmask(ell, tiny, y)
        return tiny

    def terms(self, c: float, beta: float) -> tuple[float, float, float]:
        """(sum x over events, S_f, S_c) at (c, beta), for c > 0: the
        one-point case of ``terms_rows``."""
        return self.terms_rows((c,), (beta,))[0]

    def terms_rows(self, cs, betas) -> list[tuple[float, float, float]]:
        """``terms`` at k points (c_j, beta_j), all c_j > 0, in one pass.

        The rows form one (k, n) block, so each step is one ufunc call for
        all k points; only log c runs per row.  The block is a (6, k, n)
        workspace that this instance allocates, with its views, on the
        first pass of each k, so a pass allocates no row.  The event sums
        of L and of x are one reduction over a (2, k, r) view, and each sum
        runs over its own row's columns ``[:r]`` or ``[r:]``, in the
        pairwise order of a 1-D sum of that slice, so every row is bit for
        bit the one-point pass.
        """
        r, n = self.r, self.n
        k = len(cs)
        block = self._blocks.get(k)
        if block is None:
            # rows 0 and 1 are L and x
            work = np.empty((6, k, n))
            block = self._blocks[k] = (
                tuple(work), np.empty((k, n), dtype=bool), work[:2, :, :r], work[0, :, r:]
            )
        rows, tiny, events, censored = block
        log_cs = [math.log(c) for c in cs]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            self._rows(log_cs, betas, rows, tiny)
            # an empty group sums to 0.0; skipping it saves a reduction.  The
            # sum of x overflows to inf at extreme (c, beta)
            if r:
                s_f, sum_x_f = events.sum(axis=2).tolist()
            else:
                s_f = sum_x_f = [0.0] * k
            s_c = censored.sum(axis=1).tolist() if r < n else [0.0] * k
        return list(zip(sum_x_f, s_f, s_c))

    def combine(self, b: float, c: float, beta: float, terms: tuple[float, float, float]) -> float:
        """The log-likelihood at (b, c, beta) from ``terms(c, beta)``."""
        if not (b > 0 and c > 0 and beta > 0):
            return -math.inf
        # Python floats: inf - inf below gives nan without a numpy warning
        b, c, beta = float(b), float(c), float(beta)
        sum_x_f, s_f, s_c = terms
        head, log_t_term = self.event_terms(b, c, beta)
        value = head - sum_x_f - log_t_term
        # b = 1 drops the event term, which keeps 0 * (-inf) out
        if b != 1.0 and self.r:
            value += (b - 1.0) * s_f
        if self.r < self.n:
            value += b * s_c
        # inf - inf at absurd parameter points collapses to the -inf sentinel
        return value if math.isfinite(value) else -math.inf

    def __call__(self, b: float, c: float, beta: float) -> float:
        if not (b > 0 and c > 0 and beta > 0):
            return -math.inf
        return self.combine(b, c, beta, self.terms(c, beta))

    def event_terms(self, b: float, c: float, beta: float) -> tuple[float, float]:
        """The x-free event terms of the value, r (log beta + log b +
        beta log c) and (beta + 1) sum log t_f, for b, c, beta > 0."""
        head = self.r * (math.log(beta) + math.log(b) + beta * math.log(c))
        return head, (beta + 1.0) * self.sum_log_tf

    def magnitude(self, b: float, c: float, beta: float) -> float:
        """Size of the largest terms ``combine`` adds; the value's rounding
        noise is a few ulps of it, however small the value itself."""
        head, log_t_term = self.event_terms(b, c, beta)
        return abs(head) + abs(log_t_term)

    def value_score_hessian(self, b: float, c: float, beta: float):
        """Value at (b, c, beta) with the exact score and Hessian in
        phi = (log b, log c, log beta), in one pass over the rows.

        With x = (c/t)^beta, y = log x and L(x) = log(1 - e^-x), a row adds
        k L(x) - e x, with e = 1 for an event (0 for a censoring) and
        k = b - e, and an event also adds log b + log beta + y - log t.  As
        dx/dlog c = beta x and dx/dlog beta = y x, the k L - e x part has
        first derivatives beta a and y a in (log c, log beta) and second
        derivatives beta^2 (s + a), beta m and y m, where a = x d/dx = k q - e x,
        s = x^2 d2/dx2 = -k (q x + q^2) and m = y s + (1 + y) a.
        q = x L'(x) = x / expm1(x) is computed as e^(y - x) / den from the
        1-D ``_rows``, so x -> 0 and x -> inf stay finite; on their ``tiny``
        lanes L is y, and q and q x + q^2 take their limits 1 and 1.

        Every row array is full-length, with e taken per row from
        ``e_row``, so each step is one ufunc call over all rows.  The 8
        summed rows are the first rows of one buffer, which also holds the
        rows ``_rows`` writes and is allocated on the first call.  Each
        group (the events ``[:r]``, then the censorings ``[r:]``) is one
        reduction over those 8 rows' columns, which sums each row in the
        pairwise order of a 1-D sum of that group's slice.  The value is
        ``combine`` on the event sum of x and the two group sums of L.
        """
        r, n, e_row = self.r, self.n, self.e_row
        sums = np.zeros(8)
        s_ell = [0.0, 0.0]
        if self._fit_rows is None:
            # the first 8 rows are summed; the rest are _rows' x, y, -x, den and scratch
            buf = np.empty((13, n))
            self._fit_rows = buf, tuple(buf), np.empty(n, dtype=bool)
        buf, rows, tiny = self._fit_rows
        ell, q, yq, a, ya, sa, m, ym, x, y, neg_x, den, work = rows
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            tiny = self._rows([math.log(c)], [float(beta)], (ell, x, y, neg_x, den, work), tiny)
            np.divide(np.exp(y + neg_x), den, out=q)
            curv = np.exp(2.0 * y + neg_x) / den + q * q
            if tiny is not None:
                q[tiny] = curv[tiny] = 1.0
            np.multiply(b - e_row, q, out=a)
            a[:r] -= x[:r]
            s = (e_row - b) * curv  # e - b is -k exactly
            np.multiply(y, s, out=m)
            m += (1.0 + y) * a
            np.multiply(y, q, out=yq)
            np.multiply(y, e_row + a, out=ya)
            np.add(s, a, out=sa)
            np.multiply(y, e_row + m, out=ym)
            for group, (lo, hi) in enumerate(((0, r), (r, n))):
                if lo == hi:
                    continue
                part = buf[:8, lo:hi].sum(axis=1)
                s_ell[group] = float(part[0])
                sums += part
            value = self.combine(b, c, beta, (float(x[:r].sum()), *s_ell))
            sum_l, sum_q, sum_yq, sum_a, g_w, h_vv, h_vw, h_ww = sums
            score = np.array([r + b * sum_l, beta * (r + sum_a), r + g_w])
            h_bc, h_bbeta, h_cbeta = b * beta * sum_q, b * sum_yq, beta * (r + h_vw)
            hess = np.array([
                [b * sum_l, h_bc, h_bbeta],
                [h_bc, beta**2 * h_vv, h_cbeta],
                [h_bbeta, h_cbeta, h_ww],
            ])
        return value, score, hess


def censored_loglik(p: KumIwParams, d: CensoredDataset) -> float:
    """Censored log-likelihood: events contribute log-density, censored
    observations log-survival.  Non-finite evaluations return -inf, never NaN."""
    return _Loglik(d)(p.b, p.c, p.beta)


@dataclass
class FitResult:
    """Point estimates with curvature-based uncertainty summaries.

    ``ci`` holds per-parameter (lower, upper) bounds built on the log
    scale (hence always positive); ``covariance`` is the inverse observed
    information, absent when the fit did not converge or the information
    matrix is unusable.  ``iterations`` counts the accepted Newton steps.
    """

    params: KumIwParams
    loglik: float
    observed_info: np.ndarray | None
    covariance: np.ndarray | None
    ci: dict[str, tuple[float, float]] | None
    ci_level: float
    converged: bool
    iterations: int
    grad_norm: float
    message: str = ""


@dataclass(frozen=True)
class LrTestResult:
    statistic: float
    df: int
    p_value: float
    null_model: SubModel
    full: FitResult = field(repr=False, compare=False, default=None)
    restricted: FitResult = field(repr=False, compare=False, default=None)


def _default_init(d: CensoredDataset) -> np.ndarray:
    """b = 1 with (c, beta) from a Kaplan-Meier probability plot.

    Under the b = 1 sub-model F(t) = exp(-(c/t)^beta), so log(-log F) is
    linear in log t with slope -beta and crosses 0 at t = c.  F-hat is
    taken at the midpoint of each Kaplan-Meier step, 1 - (S_prev + S) / 2,
    so the censored rows enter through the risk sets.  The least-squares
    line of log(-log F-hat) on log t over the steps gives beta0 = -slope,
    clamped to [0.05, 50], and c0 from the line of slope -beta0 through
    the points' centroid.  Below 3 steps, at a slope that is not negative,
    or where that c0 is not a normal float, the start is the geometric
    mean of the event times with beta0 = 1.
    """
    km = kaplan_meier(d)
    k = len(km.times)
    if k >= 3:
        lt = np.log(km.times)
        s = km.survival
        # S_prev + S at each step; F-hat = 1 - mid / 2 lies in (0, 1), and
        # log1p keeps its digits where F-hat is near 1
        mid = np.concatenate(([1.0], s[:-1])) + s
        y = np.log(-np.log1p(-0.5 * mid))
        x_bar, y_bar = float(lt.sum()) / k, float(y.sum()) / k
        dev = lt - x_bar
        var = float(np.dot(dev, dev)) / k
        if var > 1e-12:
            slope = float(np.dot(dev, y)) / k / var
            if math.isfinite(slope) and slope < 0:
                beta0 = min(max(-slope, 0.05), 50.0)
                log_c0 = x_bar + y_bar / beta0
                # a normal float, whose log in the fit is finite
                if math.log(_TINY) < log_c0 < _LOG_HUGE:
                    return np.array([1.0, math.exp(log_c0), beta0])
    c0 = float(np.exp(np.log(d.times[d.event_mask]).mean()))
    return np.array([1.0, c0, 1.0])


def _maximize(
    d: CensoredDataset, theta0: np.ndarray, free: np.ndarray, ci_level: float = math.nan
) -> FitResult:
    """Maximize the log-likelihood over the log-parameters of the free coordinates.

    Newton steps on the exact score and Hessian with its eigenvalues clamped
    negative, capped at 1 in sup-norm and halved until the value rises or,
    as values stop resolving near the optimum, holds within its rounding
    noise while the score's sup-norm shrinks.  At sup-norm <= ``_GRAD_TOL``
    one more full step is kept only if it shrinks the score.  A non-finite
    trial is a rejected step; a non-finite start stops the fit at once.
    Pinned coordinates keep their ``theta0`` values.  When every coordinate
    is free, the result also carries the observed information, and the
    covariance and ``ci_level`` Wald intervals of a converged fit.

    The per-step checks (finiteness, the score's sup-norm, the eigenvalue
    floor and the step cap) are exact operations, taken on Python floats
    from ``tolist()``, which costs less than a numpy call on a 3-vector;
    ``eigh`` and the step's matrix products stay numpy, for their bits.
    """
    ll = _Loglik(d)
    all_free = bool(free.all())
    free_idx = np.flatnonzero(free)
    block = np.ix_(free_idx, free_idx)

    def evaluate(phi):
        theta = theta0.copy()
        theta[free_idx] = np.exp(phi)
        value, score, hess = ll.value_score_hessian(*theta)
        if not all_free:
            score, hess = score[free_idx], hess[block]
        g = score.tolist()
        finite = (
            math.isfinite(value) and all(map(math.isfinite, g))
            and all(map(math.isfinite, hess.ravel().tolist()))
        )
        return phi, theta, value, score, hess, max(map(abs, g)) if finite else math.inf

    phi, theta, value, score, hess, grad_norm = evaluate(np.log(theta0[free_idx]))
    finite = grad_norm < math.inf
    iterations = 0
    while finite and iterations < _MAX_STEPS:
        polish = grad_norm <= _GRAD_TOL
        try:
            w, v = np.linalg.eigh(hess)
        except np.linalg.LinAlgError:
            break
        # a nan in w or step makes every trial non-finite, so that Python's
        # max, which unlike np.max does not propagate a nan, cannot change the fit
        floor = _EIG_FLOOR * max(1.0, max(map(abs, w.tolist())))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            step = v @ ((v.T @ score) / -np.minimum(w, -floor))
            step /= max(1.0, max(map(abs, step.tolist())))
        noise = _VALUE_ULPS * math.ulp(ll.magnitude(*theta))
        for _ in range(1 if polish else _MAX_HALVINGS):
            trial = evaluate(phi + step)
            rises, shrinks, holds = trial[2] > value, trial[5] < grad_norm, trial[2] >= value - noise
            if shrinks if polish else trial[5] < math.inf and (rises or shrinks and holds):
                break
            step = step / 2.0
        else:
            break
        phi, theta, value, score, hess, grad_norm = trial
        iterations += 1
        if polish:
            break
    converged = grad_norm <= _GRAD_TOL
    message = ""
    if not finite:
        message = "non-finite log-likelihood, score or Hessian at the start"
    elif not converged:
        message = f"score sup-norm {grad_norm:.3e} above {_GRAD_TOL}"
    info = cov = ci = None
    if all_free:
        # the accepted point's own score and Hessian, not a second evaluation
        info = _information(theta, score, hess)
        # the inverse information is a sampling covariance only at a maximum
        cov = _covariance_from_info(info) if converged else None
        ci = _wald_from_cov(theta, cov, ci_level) if cov is not None else None
        if not converged:
            message += "; covariance withheld: the fit did not converge"
        elif cov is None:
            message = "covariance unavailable"
    return FitResult(
        params=KumIwParams(*theta), loglik=value, observed_info=info, covariance=cov, ci=ci,
        ci_level=ci_level, converged=converged, iterations=iterations, grad_norm=grad_norm,
        message=message,
    )


def _information(theta: np.ndarray, score: np.ndarray, hess: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return -(hess - np.diag(score)) / np.outer(theta, theta)


def observed_information(p: KumIwParams, d: CensoredDataset) -> np.ndarray:
    """Observed information on the original scale: the exact log-scale
    Hessian H and score g mapped by I_ij = -(H_ij - delta_ij g_i) / (theta_i theta_j),
    exactly symmetric.  An entry is inf or nan where the Hessian leaves
    the float range, at a p far from the data."""
    theta = p.as_array()
    _, score, hess = _Loglik(d).value_score_hessian(*theta)
    return _information(theta, score, hess)


def _covariance_from_info(info: np.ndarray):
    if not np.all(np.isfinite(info)):
        return None
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return None
    cov = 0.5 * (cov + cov.T)
    if not np.all(np.isfinite(cov)) or np.any(np.linalg.eigvalsh(cov) <= 0):
        return None
    return cov


def _wald_from_cov(theta: np.ndarray, cov: np.ndarray, level: float) -> dict:
    """theta e^(-+z se) per parameter, with se the log-scale standard error;
    an upper bound beyond the float range is inf (and the lower one 0)."""
    z = float(scipy.special.ndtri(0.5 + level / 2.0))
    se_log = (np.sqrt(np.diag(cov)) / theta).tolist()
    # Python floats: a product past the float range is inf without a numpy warning
    return {
        name: (t * math.exp(-z * se), t * math.exp(z * se) if z * se < _LOG_HUGE else math.inf)
        for name, t, se in zip(_PARAM_NAMES, theta.tolist(), se_log)
    }


def fit_mle(
    d: CensoredDataset,
    init: KumIwParams | None = None,
    *,
    ci_level: float = 0.95,
) -> FitResult:
    """Maximum-likelihood fit of the full three-parameter model.

    Optimizes over (log b, log c, log beta) with the exact score and
    Hessian; ``converged`` means the exact score there has sup-norm
    <= 1e-6, and ``grad_norm`` is that sup-norm.  An unconverged fit keeps
    its observed information but has no covariance or Wald intervals, and
    its message says so.  Requires at least three events.  Without
    ``init`` the fit starts from ``_default_init``, a Kaplan-Meier
    probability plot under the b = 1 sub-model.
    """
    _real(ci_level, "confidence level", 1)
    if d.n_events < 3:
        raise DataError(f"fit_mle requires at least 3 events, got {d.n_events}")
    theta0 = init.as_array() if init is not None else _default_init(d)
    return _maximize(d, theta0, np.ones(3, dtype=bool), ci_level)


def wald_ci(fit: FitResult, level: float) -> dict:
    """Asymptotic-normal intervals on the log scale, exponentiated back.

    Uses the delta-method standard error se(log theta) = se(theta)/theta,
    so the bounds are always positive.
    """
    _real(level, "confidence level", 1)
    if fit.covariance is None:
        raise ValueError("Wald intervals unavailable: fit has no valid covariance")
    return _wald_from_cov(fit.params.as_array(), fit.covariance, level)


def _fit_pinned(d: CensoredDataset, pins: dict) -> FitResult:
    theta0 = _default_init(d)
    for i, name in enumerate(_PARAM_NAMES):
        if name in pins:
            theta0[i] = pins[name]
    return _maximize(d, theta0, np.array([name not in pins for name in _PARAM_NAMES]))


def lr_test(d: CensoredDataset, null: SubModel, full_fit: FitResult | None = None) -> LrTestResult:
    """Likelihood-ratio test of a pinned sub-model against the full model.

    The statistic is 2 [l(full) - l(restricted)], clamped at zero within
    a -1e-8 numerical slack; the p-value is the chi-square upper tail
    with df = number of pinned parameters.
    """
    full = full_fit if full_fit is not None else fit_mle(d)
    if null is SubModel.KUM_IW:
        return LrTestResult(0.0, 0, 1.0, null, full, full)
    if null not in _SUBMODEL_PINNED:
        raise ValueError(f"unsupported null sub-model {null}")
    pins = _SUBMODEL_PINNED[null]
    restricted = _fit_pinned(d, pins)
    statistic = 2.0 * (full.loglik - restricted.loglik)
    if statistic < 0:
        # restricted beat the full optimum: restart the full fit from the
        # embedded restricted solution
        refit = fit_mle(d, init=restricted.params, ci_level=full.ci_level)
        if refit.loglik > full.loglik:
            full = refit
        statistic = 2.0 * (full.loglik - restricted.loglik)
    if not (full.converged and restricted.converged):
        raise NumericError(
            f"lr_test fits did not converge (full: {full.message or 'ok'}; "
            f"restricted: {restricted.message or 'ok'})"
        )
    if statistic < -1e-8:
        raise NumericError(f"LR statistic {statistic} below numerical slack")
    statistic = max(statistic, 0.0)
    df = len(pins)
    p_value = float(scipy.special.chdtrc(df, statistic))
    return LrTestResult(statistic, df, p_value, null, full, restricted)

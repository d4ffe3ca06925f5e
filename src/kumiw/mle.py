"""Censored maximum-likelihood estimation.

Log-likelihood with right censoring and its exact score and Hessian in
(log b, log c, log beta); trust-region maximization on them; observed
information from the exact Hessian; Wald intervals on the log scale; and
likelihood-ratio tests against the pinned sub-models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, stats

from .distribution import _SUBMODEL_PINNED, KumIwParams, SubModel, log1m_exp
from .errors import DataError, NumericError
from .survdata import CensoredDataset

__all__ = [
    "FitResult",
    "LrTestResult",
    "censored_loglik",
    "fit_mle",
    "observed_information",
    "wald_ci",
    "lr_test",
]

_PARAM_NAMES = ("b", "c", "beta")
_GRAD_TOL = 1e-6


class _Loglik:
    """Censored log-likelihood with the data terms precomputed.

    The data are one array ``log_t`` of log-times, the r events first and
    then the n - r censorings, so every O(n) pass is one ufunc call per
    step over all rows; only the sums are taken per group, over
    ``[:r]`` and ``[r:]``.  ``terms(c, beta)`` is the only O(n) work of a
    value: with x = (c/t)^beta it returns (sum of x over events,
    S_f = sum of log(1 - e^-x) over events, S_c = the same sum over
    censorings).  ``combine(b, c, beta, terms)`` turns them into the value
    in scalar arithmetic.  b enters only as r log b + (b - 1) S_f + b S_c,
    so a caller that moves b alone (the sampler's b update) reuses the
    terms of its current (c, beta).
    """

    def __init__(self, d: CensoredDataset):
        times = d.times
        events = d.event_mask
        self.log_t = np.log(np.concatenate((times[events], times[~events])))
        self.r = int(events.sum())
        self.n = len(times)
        self.sum_log_tf = float(self.log_t[: self.r].sum())

    def terms(self, c: float, beta: float) -> tuple[float, float, float]:
        """(sum x over events, S_f, S_c) at (c, beta), for c > 0."""
        r = self.r
        s_f = s_c = 0.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = np.exp(beta * (math.log(c) - self.log_t))
            ell = log1m_exp(x)
            # an empty group sums to 0.0; skipping it saves a reduction
            if r:
                s_f = float(ell[:r].sum())
            if r < self.n:
                s_c = float(ell[r:].sum())
        return float(x[:r].sum()), s_f, s_c

    def combine(self, b: float, c: float, beta: float, terms: tuple[float, float, float]) -> float:
        """The log-likelihood at (b, c, beta) from ``terms(c, beta)``."""
        if not (b > 0 and c > 0 and beta > 0):
            return -math.inf
        # Python floats: inf - inf below gives nan without a numpy warning
        b, c, beta = float(b), float(c), float(beta)
        sum_x_f, s_f, s_c = terms
        value = (
            self.r * (math.log(beta) + math.log(b) + beta * math.log(c))
            - sum_x_f
            - (beta + 1.0) * self.sum_log_tf
        )
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
        q = x L'(x) = x / expm1(x) is computed as e^(y - x) / (1 - e^-x), so
        x -> 0 and x -> inf stay finite.

        y, x, q, L and q x + q^2 do not depend on b and are computed once
        over all rows; k, a, s, m and the sums are taken per group (the
        events ``[:r]``, then the censorings ``[r:]``).  The value is
        ``combine`` on the event sum of x and the two group sums of L.
        """
        r, n = self.r, self.n
        sums = np.zeros(8)
        s_ell = [0.0, 0.0]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            y = beta * (math.log(c) - self.log_t)
            x = np.exp(y)
            den = -np.expm1(-x)
            q = np.exp(y - x) / den
            curv = np.exp(2.0 * y - x) / den + q * q
            ell = log1m_exp(x)
            for group, (lo, hi, e) in enumerate(((0, r, 1.0), (r, n, 0.0))):
                if lo == hi:
                    continue
                y_g, q_g = y[lo:hi], q[lo:hi]
                k = b - e
                a = k * q_g - x[lo:hi] if e else k * q_g
                s = -k * curv[lo:hi]
                m = y_g * s + (1.0 + y_g) * a
                rows = (ell[lo:hi], q_g, y_g * q_g, a, y_g * (e + a), s + a, m, y_g * (e + m))
                part = [row.sum() for row in rows]
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
    matrix is unusable.
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
    """b = 1 with (c, beta) from an inverse-Weibull probability plot.

    On event times with empirical cdf p_i, log(-log p_i) is linear in
    log t_i with slope -beta under the b = 1 sub-model, which is a safe
    interior start.
    """
    te = np.sort(d.times[d.event_mask])
    m = len(te)
    c0 = float(np.exp(np.mean(np.log(te))))
    beta0 = 1.0
    if m >= 3:
        p_hat = (np.arange(1, m + 1) - 0.5) / m
        y = np.log(-np.log(p_hat))
        lt = np.log(te)
        var = float(np.var(lt))
        if var > 1e-12:
            slope = float(np.cov(lt, y, bias=True)[0, 1]) / var
            if math.isfinite(slope) and slope < 0:
                beta0 = min(max(-slope, 0.05), 50.0)
    return np.array([1.0, c0, beta0])


def _maximize(
    d: CensoredDataset, theta0: np.ndarray, free: np.ndarray, ci_level: float = math.nan
) -> FitResult:
    """Maximize the log-likelihood over the log-parameters of the free coordinates.

    scipy's trust-exact on the exact score and Hessian, then up to three
    Newton steps, each kept only while the score's sup-norm shrinks:
    trust-exact compares values, which stop resolving near the optimum
    (at ~ulp(|l|)) while the score still can.  A trial point with a
    non-finite value, score or Hessian is a rejected step; a start there
    stops the fit at once.  Pinned coordinates keep their ``theta0``
    values.  When every coordinate is free, the result also carries the
    observed information, and the covariance and ``ci_level`` Wald
    intervals of a converged fit; otherwise these are None.
    """
    ll = _Loglik(d)
    free_idx = np.flatnonzero(free)
    block = np.ix_(free_idx, free_idx)
    last = {}

    def evaluate(phi):
        key = phi.tobytes()
        if key not in last:
            theta = theta0.copy()
            theta[free_idx] = np.exp(phi)
            value, score, hess = ll.value_score_hessian(*theta)
            finite = math.isfinite(value) and np.all(np.isfinite(score)) and np.all(np.isfinite(hess))
            last.clear()
            last[key] = (value, score[free_idx], hess[block], finite)
        return last[key]

    def negative(phi):
        value, score, hess, finite = evaluate(phi)
        if not finite:
            return math.inf, np.zeros_like(score), np.zeros_like(hess)
        return -value, -score, -hess

    res = optimize.minimize(
        lambda phi: negative(phi)[:2], np.log(theta0[free_idx]), method="trust-exact",
        jac=True, hess=lambda phi: negative(phi)[2],
    )
    phi, iterations = res.x, res.nit
    value, score, hess, finite = evaluate(phi)
    grad_norm = float(np.max(np.abs(score))) if finite else math.inf
    for _ in range(3):
        try:
            cand = phi - np.linalg.solve(hess, score)
        except np.linalg.LinAlgError:
            break
        cand_value, cand_score, cand_hess, cand_finite = evaluate(cand)
        cand_norm = float(np.max(np.abs(cand_score)))
        if not (cand_finite and cand_norm < grad_norm):
            break
        phi, value, score, hess, grad_norm = cand, cand_value, cand_score, cand_hess, cand_norm
        iterations += 1
    theta = theta0.copy()
    theta[free_idx] = np.exp(phi)
    converged = grad_norm <= _GRAD_TOL
    message = ""
    if not finite:
        message = "non-finite log-likelihood, score or Hessian at the start"
    elif not converged:
        message = f"score sup-norm {grad_norm:.3e} above {_GRAD_TOL}"
    info = cov = ci = None
    if free.all():
        # the accepted point's own score and Hessian, not a second evaluation
        info = _information(theta, score, hess)
        # the inverse information is a sampling covariance only at a maximum
        cov = _covariance_from_info(info) if converged else None
        ci = _wald_from_cov(theta, cov, ci_level) if cov is not None else None
        if not converged:
            message += "; covariance withheld: the fit did not converge"
        elif cov is None:
            message = (message + "; " if message else "") + "covariance unavailable"
    return FitResult(
        params=KumIwParams(*theta),
        loglik=value,
        observed_info=info,
        covariance=cov,
        ci=ci,
        ci_level=ci_level,
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
        message=message,
    )


def _information(theta: np.ndarray, score: np.ndarray, hess: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return -(hess - np.diag(score)) / np.outer(theta, theta)


def observed_information(p: KumIwParams, d: CensoredDataset) -> np.ndarray:
    """Observed information on the original scale: the exact log-scale
    Hessian H and score g mapped by I_ij = -(H_ij - delta_ij g_i) / (theta_i theta_j),
    exactly symmetric."""
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
    z = stats.norm.ppf(0.5 + level / 2.0)
    out = {}
    for i, name in enumerate(_PARAM_NAMES):
        se_log = math.sqrt(cov[i, i]) / theta[i]
        lo = theta[i] * math.exp(-z * se_log)
        hi = theta[i] * math.exp(z * se_log)
        out[name] = (lo, hi)
    return out


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
    its message says so.  Requires at least three events.
    """
    if d.n_events < 3:
        raise DataError(f"fit_mle requires at least 3 events, got {d.n_events}")
    theta0 = init.as_array() if init is not None else _default_init(d)
    return _maximize(d, theta0, np.ones(3, dtype=bool), ci_level)


def wald_ci(fit: FitResult, level: float) -> dict:
    """Asymptotic-normal intervals on the log scale, exponentiated back.

    Uses the delta-method standard error se(log theta) = se(theta)/theta,
    so the bounds are always positive.
    """
    if not 0 < level < 1:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
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
    p_value = float(stats.chi2.sf(statistic, df))
    return LrTestResult(statistic, df, p_value, null, full, restricted)

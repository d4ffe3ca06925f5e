"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the library's own series/special
function code paths: brute-force quadrature of the defining integrals,
Stirling-with-recurrence log-gamma, the closed-form sub-model
densities transcribed directly, and central finite differences for the
likelihood's analytic derivatives.
"""

import math

import numpy as np
from scipy import integrate

from kumiw import KumIwParams, pdf


def quad_0inf(fn, split: float = 1.0):
    left, _ = integrate.quad(fn, 0.0, split, epsabs=1e-13, epsrel=1e-12, limit=400)
    right, _ = integrate.quad(fn, split, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return left + right


def pdf_normalization(p: KumIwParams) -> float:
    """Integral of the pdf over (0, inf), via the x = (c/t)^beta substitution
    so the integrand seen by quadrature is smooth with exponential decay;
    the pdf itself is evaluated through the library."""

    def fn(x):
        t = p.c * x ** (-1.0 / p.beta)
        jac = (p.c / p.beta) * x ** (-1.0 / p.beta - 1.0)
        return float(pdf(p, t)) * jac

    return quad_0inf(fn)


def quad_moment(p: KumIwParams, k: int) -> float:
    """E[T^k] by quadrature of the defining integral (x-space)."""

    def fn(x):
        om = -math.expm1(-x)
        return p.c**k * x ** (-k / p.beta) * p.b * math.exp(-x) * om ** (p.b - 1.0)

    return quad_0inf(fn)


def quad_partial_first_moment(p: KumIwParams, q: float) -> float:
    """Integral of t f(t) over (0, q), directly in t-space."""
    val, _ = integrate.quad(
        lambda t: t * float(pdf(p, t)), 0.0, q, epsabs=1e-13, epsrel=1e-11, limit=400
    )
    return val


def quad_mean_deviation(p: KumIwParams, center: float) -> float:
    """E|T - center| by two-piece quadrature in t-space."""
    lower, _ = integrate.quad(
        lambda t: (center - t) * float(pdf(p, t)), 0.0, center,
        epsabs=1e-13, epsrel=1e-11, limit=400,
    )
    upper, _ = integrate.quad(
        lambda t: (t - center) * float(pdf(p, t)), center, np.inf,
        epsabs=1e-13, epsrel=1e-11, limit=400,
    )
    return lower + upper


def quad_t_integral(fn, split: float = 1.0) -> float:
    """Adaptive quadrature of fn over (0, inf) in t-space."""
    left, _ = integrate.quad(fn, 0.0, split, epsabs=1e-12, epsrel=1e-10, limit=400)
    right, _ = integrate.quad(fn, split, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400)
    return left + right


# closed-form sub-model densities, transcribed independently
def iw_pdf(alpha, beta, t):
    t = np.asarray(t, dtype=float)
    return beta * alpha**beta * t ** (-(beta + 1.0)) * np.exp(-((alpha / t) ** beta))


def iw_cdf(alpha, beta, t):
    t = np.asarray(t, dtype=float)
    return np.exp(-((alpha / t) ** beta))


def ir_pdf(alpha, t):
    t = np.asarray(t, dtype=float)
    return 2.0 * alpha**2 * t**-3 * np.exp(-((alpha / t) ** 2))


def ie_pdf(lam, t):
    t = np.asarray(t, dtype=float)
    return lam * t**-2 * np.exp(-lam / t)


_STIRLING_COEFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)


def stirling_log_gamma(a: float) -> float:
    """log Gamma by the Stirling asymptotic series plus the recurrence
    Gamma(a) = Gamma(a + k) / (a (a+1) ... (a+k-1)); independent of any
    Lanczos-style implementation."""
    shift = 0.0
    z = a
    while z < 24.0:
        shift += math.log(z)
        z += 1.0
    value = (z - 0.5) * math.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    for i, coef in enumerate(_STIRLING_COEFS):
        value += coef / z ** (2 * i + 1)
    return value - shift


def quad_lower_incomplete_gamma(a: float, x: float) -> float:
    if x == 0.0:
        return 0.0
    val, _ = integrate.quad(
        lambda s: s ** (a - 1.0) * math.exp(-s), 0.0, x,
        epsabs=1e-14, epsrel=1e-12, limit=300,
    )
    return val


def quad_upper_incomplete_gamma(a: float, x: float) -> float:
    # tail substitution s = x + u keeps the integrand well scaled
    val, _ = integrate.quad(
        lambda u: (x + u) ** (a - 1.0) * math.exp(-(x + u)), 0.0, np.inf,
        epsabs=1e-14, epsrel=1e-12, limit=300,
    )
    return val


def _kumiw_scores(p: KumIwParams, t: float):
    """Closed-form scores in (b, c, beta) of log f(t) and log S(t).

    With x = (c/t)^beta, L = log(1 - e^-x) and q = dL/dx = 1/(e^x - 1):
    log f = log(beta b) + beta log c - (beta+1) log t - x + (b-1) L and
    log S = b L; dx/dc = beta x / c and dx/dbeta = x log(c/t).
    """
    b, c, beta = p.b, p.c, p.beta
    log_ct = math.log(c / t)
    x = math.exp(beta * log_ct)
    om = -math.expm1(-x)
    ell = math.log(om)
    q = math.exp(-x) / om
    dx_dc = beta * x / c
    dx_dbeta = x * log_ct
    slope = (b - 1.0) * q - 1.0
    score_f = np.array(
        [1.0 / b + ell, beta / c + slope * dx_dc, 1.0 / beta + log_ct + slope * dx_dbeta]
    )
    score_s = np.array([ell, b * q * dx_dc, b * q * dx_dbeta])
    log_f = (
        math.log(beta * b) + beta * math.log(c) - (beta + 1.0) * math.log(t) - x + (b - 1.0) * ell
    )
    return score_f, score_s, math.exp(log_f), math.exp(b * ell)


def fisher_information_uniform_censoring(p: KumIwParams, M: float) -> np.ndarray:
    """Per-observation expected information in (b, c, beta) when T ~ Kum-IW(p)
    is censored by an independent C ~ U(0, M).

    An event at t has density f(t) (1 - t/M) and a censoring at t has
    density S(t) / M on (0, M); the information is the expectation of the
    score outer product over both, by quadrature of the transcribed
    closed-form scores (no library likelihood code is involved).
    """

    def integrand(t):
        score_f, score_s, f, s = _kumiw_scores(p, t)
        out = np.outer(score_f, score_f) * (f * (1.0 - t / M))
        out += np.outer(score_s, score_s) * (s / M)
        return out.ravel()

    # the mass sits around t ~ c, which may be far from the middle of (0, M);
    # separate pieces keep quad_vec from missing it when M is large
    edges = [0.0, min(p.c, 0.5 * M), min(2.0 * p.c, 0.9 * M), M]
    total = sum(
        integrate.quad_vec(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=400)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    info = total.reshape(3, 3)
    return 0.5 * (info + info.T)


def central_gradient(fn, x: np.ndarray, rel_step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient with steps ``h_i = rel_step * max(1, |x_i|)``."""
    grad = np.empty_like(x)
    for i in range(len(x)):
        h = rel_step * max(1.0, abs(x[i]))
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def finite_difference_hessian(fn, x: np.ndarray, rel_step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian with per-coordinate steps
    ``h_i = rel_step * max(1, |x_i|)``, symmetrized as (H + H^T)/2."""
    x = np.asarray(x, dtype=float)
    k = len(x)
    h = rel_step * np.maximum(1.0, np.abs(x))
    hess = np.empty((k, k))
    f0 = fn(x)
    for i in range(k):
        up = x.copy()
        dn = x.copy()
        up[i] += h[i]
        dn[i] -= h[i]
        hess[i, i] = (fn(up) - 2.0 * f0 + fn(dn)) / h[i] ** 2
        for j in range(i + 1, k):
            pp = x.copy(); pp[i] += h[i]; pp[j] += h[j]
            pm = x.copy(); pm[i] += h[i]; pm[j] -= h[j]
            mp = x.copy(); mp[i] -= h[i]; mp[j] += h[j]
            mm = x.copy(); mm[i] -= h[i]; mm[j] -= h[j]
            hess[i, j] = hess[j, i] = (fn(pp) - fn(pm) - fn(mp) + fn(mm)) / (4.0 * h[i] * h[j])
    return 0.5 * (hess + hess.T)


def kaplan_meier_product_limit(times, events):
    """Kaplan-Meier estimate by a plain loop over the sorted times: the
    (step times, survival, at-risk counts, event counts) of every distinct
    time with at least one event, each tie handled against the risk set
    that includes all tied subjects."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    order = np.argsort(times, kind="stable")
    times = times[order]
    events = events[order]
    n = len(times)

    step_times, step_surv, step_risk, step_events = [], [], [], []
    surv = 1.0
    i = 0
    while i < n:
        t = times[i]
        j = i
        d_events = 0
        while j < n and times[j] == t:
            d_events += int(events[j])
            j += 1
        if d_events > 0:
            at_risk = n - i
            surv *= 1.0 - d_events / at_risk
            step_times.append(t)
            step_surv.append(surv)
            step_risk.append(at_risk)
            step_events.append(d_events)
        i = j
    return (
        np.array(step_times),
        np.array(step_surv),
        np.array(step_risk, dtype=int),
        np.array(step_events, dtype=int),
    )


def random_params(rng, b_range=(0.3, 6.0), c_range=(0.2, 5.0), beta_range=(0.7, 5.0)):
    """Log-uniform random parameter triple."""

    def draw(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return KumIwParams(draw(*b_range), draw(*c_range), draw(*beta_range))

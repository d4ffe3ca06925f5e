"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the library's own series/special
function code paths: brute-force quadrature of the defining integrals,
the closed-form sub-model densities transcribed directly, central
finite differences for the likelihood's analytic derivatives, the
likelihood core in its earlier two-group layout, the evaluators in
their earlier plain np.where form, the sampler's loop in its earlier
thinning-cursor form, and the Newton fit's loop and initial guess in
their earlier numpy-reduction form.
"""

import math

import numpy as np
from scipy import integrate

from kumiw import KumIwParams, pdf
from kumiw.bayes import (
    _ADAPT_WINDOW,
    _LOW_ACCEPTANCE,
    McmcChain,
    PriorSpec,
    _adapted_cholesky,
    _depth,
    _exp,
    _log_post,
    rw_accept_probability,
)
from kumiw.mle import (
    _EIG_FLOOR,
    _GRAD_TOL,
    _MAX_HALVINGS,
    _MAX_STEPS,
    _VALUE_ULPS,
    FitResult,
    _covariance_from_info,
    _information,
    _Loglik,
    _wald_from_cov,
)
from kumiw.survdata import CensoredDataset


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


def quad_shannon_entropy(p: KumIwParams) -> float:
    """-E[log f(T)] by adaptive quadrature in x = (c/t)^beta, whose
    density is b e^-x (1 - e^-x)^(b-1); log f adds log(beta/c) and
    (1 + 1/beta) log x to its log."""
    log_scale = math.log(p.beta / p.c)

    def fn(x):
        log_dens = math.log(p.b) - x + (p.b - 1.0) * math.log(-math.expm1(-x))
        return -math.exp(log_dens) * (log_scale + (1.0 + 1.0 / p.beta) * math.log(x) + log_dens)

    return quad_0inf(fn)


def quad_renyi_entropy(p: KumIwParams, rho: float) -> float:
    """Renyi entropy of order rho by adaptive quadrature of f^rho in x-space."""
    s_exp = rho * (1.0 + 1.0 / p.beta) - 1.0 / p.beta

    def fn(x):
        lom = math.log(-math.expm1(-x))
        return math.exp((s_exp - 1.0) * math.log(x) - rho * x + rho * (p.b - 1.0) * lom)

    log_a = (
        (rho - 1.0) * math.log(p.beta) + rho * math.log(p.b) + (1.0 - rho) * math.log(p.c)
        + math.log(quad_0inf(fn))
    )
    return log_a / (1.0 - rho)


def quad_order_stat_moment(p: KumIwParams, r: int, n: int, k: int) -> float:
    """E[T_(r:n)^k] by adaptive quadrature in x-space, with the order
    statistic's density n!/((r-1)!(n-r)!) F^(r-1) S^(n-r) f, S = (1 - e^-x)^b."""
    coeff = r * math.comb(n, r)

    def fn(x):
        lom = math.log(-math.expm1(-x))
        surv = math.exp(p.b * lom)
        log_g = k * math.log(p.c) - k / p.beta * math.log(x) - x + (p.b * (n - r + 1) - 1.0) * lom
        return coeff * p.b * math.exp(log_g) * (1.0 - surv) ** (r - 1)

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


def quad_lower_incomplete_gamma(a: float, x: float) -> float:
    if x == 0.0:
        return 0.0
    val, _ = integrate.quad(
        lambda s: s ** (a - 1.0) * math.exp(-s), 0.0, x,
        epsabs=1e-14, epsrel=1e-12, limit=300,
    )
    return val


def quad_upper_incomplete_gamma(a: float, x: float) -> float:
    """Gamma(a, x) by quadrature, to a relative tolerance only.

    From x >= 1 on it is e^-x times an integral of size x^(a-1); below 1
    the piece over (x, 1) is integrated in w = s^a, where
    s^(a-1) ds = dw / a has no endpoint singularity.
    """

    def tail(x0: float) -> float:
        val, _ = integrate.quad(
            lambda u: (x0 + u) ** (a - 1.0) * math.exp(-u), 0.0, np.inf,
            epsabs=0.0, epsrel=1e-13, limit=300,
        )
        return math.exp(-x0) * val

    if x >= 1.0:
        return tail(x)
    head, _ = integrate.quad(
        lambda w: math.exp(-(w ** (1.0 / a))), x**a, 1.0, epsabs=0.0, epsrel=1e-13, limit=300
    )
    return tail(1.0) + head / a


def survival_closed_form(p: KumIwParams, t: float) -> float:
    """S(t) = (1 - exp(-(c/t)^beta))^b, transcribed directly."""
    log_x = p.beta * math.log(p.c / t)
    if log_x > 700.0:
        return 1.0
    return (-math.expm1(-math.exp(log_x))) ** p.b


def censored_fraction_quad(p: KumIwParams, m: float) -> float:
    """E[min(T, m)] / m, the censored fraction under U(0, m) censoring, by
    adaptive quadrature of the closed-form survival function over (0, m).

    The range is split at survival levels from 1 - 1e-9 to 1e-6 (closed-form
    quantiles) and at factors of 10 from the first of them on, so no piece
    spans more than one decade of the power-law tail.
    """
    levels = (1 - 1e-9, 0.999, 0.99, 0.9, 0.75, 0.5, 0.25, 0.1, 0.01, 1e-3, 1e-6)
    cuts = [p.c * (-math.log1p(-(s ** (1.0 / p.b)))) ** (-1.0 / p.beta) for s in levels]
    decades = [cuts[0]]
    while decades[-1] < m:
        decades.append(10.0 * decades[-1])
    edges = [0.0] + sorted(q for q in set(cuts + decades) if q < m) + [m]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(
            lambda t: survival_closed_form(p, t), a, b, epsabs=0.0, epsrel=1e-13, limit=400
        )
        total += val
    return total / m


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


class TwoGroupLoglik:
    """The censored log-likelihood core as it was before the one-pass
    layout: events and censorings in two arrays, each group a separate
    pass, and ``value_score_hessian`` taking its value from ``__call__``.
    The methods are kept verbatim, so the one-pass core must reproduce
    them bit for bit."""

    def __init__(self, d: CensoredDataset):
        times = d.times
        events = d.event_mask
        self.log_tf = np.log(times[events])
        self.log_tc = np.log(times[~events])
        self.r = int(events.sum())
        self.n = len(times)
        self.sum_log_tf = float(self.log_tf.sum())

    def terms(self, c: float, beta: float) -> tuple[float, float, float]:
        """(sum x over events, S_f, S_c) at (c, beta), for c > 0."""
        log_c = math.log(c)
        s_f = s_c = 0.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x_f = np.exp(beta * (log_c - self.log_tf))
            # an empty group sums to 0.0; skipping it saves about ten ufunc calls
            if self.r:
                s_f = float(np.sum(_plain_log1m_exp(x_f)))
            if len(self.log_tc):
                s_c = float(np.sum(_plain_log1m_exp(np.exp(beta * (log_c - self.log_tc)))))
            return float(x_f.sum()), s_f, s_c

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
        if len(self.log_tc):
            value += b * s_c
        # inf - inf at absurd parameter points collapses to the -inf sentinel
        return value if math.isfinite(value) else -math.inf

    def __call__(self, b: float, c: float, beta: float) -> float:
        if not (b > 0 and c > 0 and beta > 0):
            return -math.inf
        return self.combine(b, c, beta, self.terms(c, beta))

    def value_score_hessian(self, b: float, c: float, beta: float):
        """Value at (b, c, beta) with the exact score and Hessian in
        phi = (log b, log c, log beta).

        With x = (c/t)^beta, y = log x and L(x) = log(1 - e^-x), a row adds
        k L(x) - e x, with e = 1 for an event (0 for a censoring) and
        k = b - e, and an event also adds log b + log beta + y - log t.  As
        dx/dlog c = beta x and dx/dlog beta = y x, the k L - e x part has
        first derivatives beta a and y a in (log c, log beta) and second
        derivatives beta^2 (s + a), beta m and y m, where a = x d/dx = k q - e x,
        s = x^2 d2/dx2 = -k (q x + q^2) and m = y s + (1 + y) a.
        q = x L'(x) = x / expm1(x) is computed as e^(y - x) / (1 - e^-x), so
        x -> 0 and x -> inf stay finite.
        """
        value = self(b, c, beta)
        log_c = math.log(c)
        sums = np.zeros(8)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for log_t, e in ((self.log_tf, 1.0), (self.log_tc, 0.0)):
                y = beta * (log_c - log_t)
                x = np.exp(y)
                den = -np.expm1(-x)
                q = np.exp(y - x) / den
                k = b - e
                a = k * q - x if e else k * q
                s = -k * (np.exp(2.0 * y - x) / den + q * q)
                m = y * s + (1.0 + y) * a
                rows = (_plain_log1m_exp(x), q, y * q, a, y * (e + a), s + a, m, y * (e + m))
                sums += [np.sum(row) for row in rows]
            sum_l, sum_q, sum_yq, sum_a, g_w, h_vv, h_vw, h_ww = sums
            r = self.r
            score = np.array([r + b * sum_l, beta * (r + sum_a), r + g_w])
            h_bc, h_bbeta, h_cbeta = b * beta * sum_q, b * sum_yq, beta * (r + h_vw)
            hess = np.array([
                [b * sum_l, h_bc, h_bbeta],
                [h_bc, beta**2 * h_vv, h_cbeta],
                [h_bbeta, h_cbeta, h_ww],
            ])
        return value, score, hess


def underflow_limit_core(d: CensoredDataset, b: float, c: float, beta: float):
    """(terms, value, score, Hessian) of the censored log-likelihood at
    (b, c, beta), for data where some x = (c/t)^beta are below the
    smallest normal float.

    The log-likelihood is a sum over rows.  The rows whose x is a normal
    float go to ``TwoGroupLoglik``.  Each other row adds its limit as
    x -> 0, where log(1 - e^-x) -> log x = y = beta (log c - log t): a
    censoring adds b y, an event log b + log beta + b y - log t - x.  In
    phi = (log b, log c, log beta), b y has score (b y, b beta, b y) and
    Hessian [[b y, b beta, b y], [b beta, 0, b beta], [b y, b beta, b y]],
    and an event adds 1 to the log b and log beta scores.  The -x of an
    event enters its value and event sum of x only: its derivatives are
    below the smallest normal float times beta.
    """
    log_t, events = np.log(d.times), d.event_mask
    with np.errstate(over="ignore"):
        y = beta * (math.log(c) - log_t)
        x = np.exp(y)
    tiny = x < np.finfo(float).tiny
    terms, value, score, hess = np.zeros(3), 0.0, np.zeros(3), np.zeros((3, 3))
    if not tiny.all():
        normal = CensoredDataset.from_arrays(d.times[~tiny], events[~tiny])
        oracle = TwoGroupLoglik(normal)
        terms += oracle.terms(c, beta)
        value, score, hess = oracle.value_score_hessian(b, c, beta)
    ev, cens = tiny & events, tiny & ~events
    terms += [x[ev].sum(), y[ev].sum(), y[cens].sum()]
    r, by, bb = int(ev.sum()), b * y[tiny].sum(), b * beta * int(tiny.sum())
    value += r * (math.log(b) + math.log(beta)) + by - log_t[ev].sum() - x[ev].sum()
    score = score + [r + by, bb, r + by]
    hess = hess + [[by, bb, by], [bb, 0.0, bb], [by, bb, by]]
    return tuple(terms), value, score, hess


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


def collapsed_posterior_moments(d: CensoredDataset, prior, weight: float = 1.0, points: int = 400):
    """Posterior means of (b, c, beta) under independent Gamma priors, by a
    midpoint rule over (log c, log beta) of the posterior with b integrated
    out in closed form, and the normalised mass of the rule's outermost
    cells (the edge mass, which bounds what the grid may have cut off).

    Given (c, beta), b is Gamma(a_b + w r, rate_b - w (S_f + S_c)), with
    S_f and S_c the sums of log(1 - exp(-(c/t)^beta)) over events and
    censorings, so E[b | c, beta] is shape / rate.  A coarse grid over a
    wide box first finds where the density is within e^-40 of its peak,
    and the fine ``points`` x ``points`` grid covers that region.
    """
    log_tf = np.log(d.times[d.event_mask])
    log_tc = np.log(d.times[~d.event_mask])
    r = len(log_tf)
    shape = prior.b_shape + weight * r

    def log_density(u, v):
        beta = np.exp(v)[:, None]
        out = np.empty((len(u), len(v)))
        rates = np.empty_like(out)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for i, log_c in enumerate(u):
                x_f = np.exp(beta * (log_c - log_tf))
                x_c = np.exp(beta * (log_c - log_tc))
                s_f = np.log(-np.expm1(-x_f)).sum(axis=1)
                s_c = np.log(-np.expm1(-x_c)).sum(axis=1)
                rate = prior.b_rate - weight * (s_f + s_c)
                b_free = weight * (
                    r * (v + beta[:, 0] * log_c) - x_f.sum(axis=1)
                    - (beta[:, 0] + 1.0) * log_tf.sum() - s_f
                )
                # shapes a, not a - 1: the grid is in log c and log beta
                out[i] = (
                    prior.c_shape * log_c - prior.c_rate * math.exp(log_c)
                    + prior.beta_shape * v - prior.beta_rate * beta[:, 0]
                    + b_free - shape * np.log(rate)
                )
                rates[i] = rate
            out[~(np.isfinite(out) & (rates > 0) & np.isfinite(rates))] = -np.inf
        return out, rates

    log_t = np.log(d.times)
    u = np.linspace(log_t.min() - 6.0, log_t.max() + 6.0, 241)
    v = np.linspace(-4.0, 5.0, 241)
    coarse, _ = log_density(u, v)
    iu, iv = np.nonzero(coarse > coarse.max() - 40.0)
    du, dv = u[1] - u[0], v[1] - v[0]
    u = np.linspace(u[iu.min()] - 2 * du, u[iu.max()] + 2 * du, points)
    v = np.linspace(v[iv.min()] - 2 * dv, v[iv.max()] + 2 * dv, points)
    dens, rates = log_density(u, v)
    wts = np.exp(dens - dens.max())
    wts /= wts.sum()
    means = np.array([
        float((wts * (shape / np.where(wts > 0, rates, 1.0))).sum()),
        float((wts.sum(axis=1) * np.exp(u)).sum()),
        float((wts.sum(axis=0) * np.exp(v)).sum()),
    ])
    edge = float(wts[0].sum() + wts[-1].sum() + wts[1:-1, 0].sum() + wts[1:-1, -1].sum())
    return means, edge


# The evaluators as they were before their guarded kernels: np.where picks
# the log1m_exp branch, and exp sees every lane, underflowing or not.  The
# formulas are kept verbatim (only the domain checks are left out), so the
# library must reproduce them bit for bit.
_LN2 = math.log(2.0)
_TINY = np.finfo(float).tiny


def _plain_log1m_exp(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            x < _LN2,
            np.log(-np.expm1(-x)),
            np.log1p(-np.exp(-x)),
        )
    return out if out.ndim else out[()]


def _plain_x_of(p: KumIwParams, t):
    with np.errstate(divide="ignore", over="ignore"):
        ratio = p.c / t
        x = ratio ** p.beta
        # c/t overflows for t < c/1.8e308, and is subnormal or 0 for
        # t > c/2.2e-308: there x is exp(beta (log c - log t))
        odd = np.isinf(ratio) | (ratio < _TINY)
        if odd.any():
            x = np.where(odd, np.exp(p.beta * (math.log(p.c) - np.log(t))), x)
    return x


def _plain_log1m_exp_x(p: KumIwParams, t, x):
    out = _plain_log1m_exp(x)
    if np.min(x, initial=np.inf) < _TINY:
        with np.errstate(divide="ignore"):
            out = np.where(x < _TINY, p.beta * (math.log(p.c) - np.log(t)), out)
    return out


def plain_log_pdf(p: KumIwParams, t):
    t = np.asarray(t, dtype=float)
    x = _plain_x_of(p, t)
    base = (
        math.log(p.beta)
        + math.log(p.b)
        + p.beta * math.log(p.c)
        - (p.beta + 1.0) * np.log(t)
        - x
    )
    if p.b != 1.0:
        with np.errstate(invalid="ignore"):
            base = base + (p.b - 1.0) * _plain_log1m_exp_x(p, t, x)
    out = np.where(np.isnan(base), -np.inf, base)
    return out if np.ndim(out) else np.float64(out)


def plain_pdf(p: KumIwParams, t):
    with np.errstate(over="ignore"):
        return np.exp(plain_log_pdf(p, t))


def plain_cdf(p: KumIwParams, t):
    t = np.asarray(t, dtype=float)
    x = _plain_x_of(p, t)
    with np.errstate(over="ignore"):
        out = -np.expm1(p.b * _plain_log1m_exp_x(p, t, x))
    return out if np.ndim(out) else np.float64(out)


def plain_survival(p: KumIwParams, t):
    t = np.asarray(t, dtype=float)
    x = _plain_x_of(p, t)
    out = np.exp(p.b * _plain_log1m_exp_x(p, t, x))
    return out if np.ndim(out) else np.float64(out)


def plain_hazard(p: KumIwParams, t):
    t = np.asarray(t, dtype=float)
    x = _plain_x_of(p, t)
    log_h = (
        math.log(p.beta)
        + math.log(p.b)
        + p.beta * math.log(p.c)
        - (p.beta + 1.0) * np.log(t)
        - x
        - _plain_log1m_exp_x(p, t, x)
    )
    with np.errstate(over="ignore"):
        out = np.exp(np.where(np.isnan(log_h), -np.inf, log_h))
    return out if np.ndim(out) else np.float64(out)


def plain_quantile(p: KumIwParams, u):
    u = np.asarray(u, dtype=float)
    z = np.log1p(-u) / p.b
    inner = -_plain_log1m_exp(-z)
    if np.min(-z, initial=np.inf) < _TINY:
        # -z has lost digits or rounded to 0: its limit log b - log(-log(1-u))
        inner = np.where(-z < _TINY, math.log(p.b) - np.log(-np.log1p(-u)), inner)[()]
    with np.errstate(over="ignore", divide="ignore"):
        out = p.c * inner ** (-1.0 / p.beta)
    return out if np.ndim(out) else np.float64(out)


# The sampler's collapsed target as it was, a function of the prior, the
# likelihood and (c, beta) that runs PriorSpec.log_density and
# _Loglik.event_terms on every call.  The body is kept word for word, so
# the target that run_mcmc builds once per chain must return its log target
# and rate bit for bit.
def reference_collapsed(prior: PriorSpec, ll: _Loglik, weight: float, c: float, beta: float, terms):
    """The sampler's log-target at (c, beta) with b integrated out, and the
    Gamma(shape, rate) law of b given (c, beta).

    Given (c, beta), b enters the weighted likelihood and its prior only
    as b^(a_b + w r - 1) exp(-b (rate_b - w (S_f + S_c))), so b | c, beta
    is Gamma(a_b + w r, rate_b - w (S_f + S_c)) and the marginal of
    (c, beta) is, up to a constant, the c and beta priors plus
    w [r (log beta + beta log c) - sum x_f - (beta + 1) sum log t_f - S_f]
    plus lgamma(shape) - shape log(rate).  ``terms`` are
    ``ll.terms(c, beta)``, unused (and may be None) when ``weight`` is 0.
    Returns (log target, shape, rate); the log target is -inf where the
    rate is not finite and positive.
    """
    shape, rate = prior.b_shape, prior.b_rate
    # the b prior at b = 1 is the constant -b_rate
    value = prior.log_density((1.0, c, beta))
    if value == -math.inf:
        return value, shape, rate
    if weight != 0.0:
        sum_x_f, s_f, s_c = terms
        shape += weight * ll.r
        rate -= weight * (s_f + s_c)
        if not 0.0 < rate < math.inf:
            return -math.inf, shape, rate
        head, log_t_term = ll.event_terms(1.0, c, beta)  # log b = 0
        value += weight * (head - sum_x_f - log_t_term - s_f)
    value += math.lgamma(shape) - shape * math.log(rate)
    return (value if math.isfinite(value) else -math.inf), shape, rate


# The sampler's loop as it was with a thinning cursor, a burn-in window list,
# acceptance counters split by a burning flag and the log-posterior taken at
# every acceptance.  The body is kept word for word, with the low-acceptance
# warning added, so the library's run_mcmc, which keeps one state list per
# segment and takes the log-posterior for kept draws only, must return the
# same chain bit for bit.
def reference_run_mcmc(d, prior, cfg, likelihood_weight=1.0, init=None):
    ll = _Loglik(d)
    weight = likelihood_weight
    weighted = weight != 0.0
    depth = _depth(ll.n) if weighted else 1
    # b | c, beta is Gamma(shape, rate(c, beta)), as in reference_collapsed
    shape = prior.b_shape + weight * ll.r

    if init is not None:
        theta = init.as_array()
    else:
        theta = np.array([1.0, float(np.exp(np.mean(np.log(d.times)))), 1.0])
    b, c, beta = theta.tolist()
    u_c, u_beta = math.log(c), math.log(beta)
    terms = ll.terms(c, beta) if weighted else None
    lt_cur = reference_collapsed(prior, ll, weight, c, beta, terms)[0]
    lp_cur = _log_post(prior, ll, weight, b, c, beta, terms)

    rng = np.random.default_rng(cfg.seed)
    # lower Cholesky factor [[l00, 0], [l10, l11]] of the proposal covariance
    chol = np.diag(np.array(cfg.proposal_scales[1:], dtype=float))
    burn_in, n_iter, thin = cfg.burn_in, cfg.n_iter, cfg.thin
    draws: list[tuple[float, float, float]] = []
    trace: list[float] = []
    next_keep = burn_in
    accepted_post = 0
    warn_list: list[str] = []
    cut = burn_in % _ADAPT_WINDOW if cfg.adapt else 0
    if cut and cut == burn_in:
        warn_list.append(
            f"burn-in of {burn_in} iterations is shorter than one {_ADAPT_WINDOW}-iteration "
            "adaptation window: the proposal was not adapted"
        )
    elif cut:
        warn_list.append(
            f"the last {cut} burn-in iterations ({burn_in - cut}-{burn_in - 1}) are shorter than one "
            f"{_ADAPT_WINDOW}-iteration adaptation window: the proposal was not adapted on them"
        )
    edges = [*range(0, burn_in, _ADAPT_WINDOW), *range(burn_in, n_iter, _ADAPT_WINDOW), n_iter]

    for lo, hi in zip(edges, edges[1:]):
        m = hi - lo
        z = rng.standard_normal((m, 2))
        unif = rng.random(m).tolist()
        gam = rng.standard_gamma(shape, m).tolist()
        (l00, _), (l10, l11) = chol.tolist()
        moves = list(zip((l00 * z[:, 0]).tolist(), (l10 * z[:, 0] + l11 * z[:, 1]).tolist(), unif, gam))
        burning = hi <= burn_in
        recording = cfg.adapt and burning
        window: list[tuple[float, float]] = []
        window_accepted = 0
        i = lo
        while i < hi:
            run, cs, betas = [], [], []
            for step_c, step_beta, u, g in moves[i - lo : i - lo + depth]:
                u_c_prop, u_beta_prop = u_c + step_c, u_beta + step_beta
                c_prop, beta_prop = _exp(u_c_prop), _exp(u_beta_prop)
                # c or beta at 0 or inf has prior -inf and needs no pass
                live = weighted and 0.0 < c_prop < math.inf and 0.0 < beta_prop < math.inf
                run.append((u_c_prop, u_beta_prop, c_prop, beta_prop, live, u, g))
                if live:
                    cs.append(c_prop)
                    betas.append(beta_prop)
            rows = iter(ll.terms_rows(cs, betas) if cs else ())
            for u_c_prop, u_beta_prop, c_prop, beta_prop, live, u, g in run:
                terms_prop = next(rows) if live else None
                lt_prop, _, rate = reference_collapsed(prior, ll, weight, c_prop, beta_prop, terms_prop)
                accept_p = rw_accept_probability(lt_cur, lt_prop, u_c + u_beta, u_c_prop + u_beta_prop)
                moved = False
                if u < accept_p:
                    b_prop = g / rate
                    moved = b_prop > 0.0
                if moved:
                    b, c, beta = b_prop, c_prop, beta_prop
                    u_c, u_beta, lt_cur = u_c_prop, u_beta_prop, lt_prop
                    lp_cur = _log_post(prior, ll, weight, b, c, beta, terms_prop)
                    if burning:
                        window_accepted += 1
                    else:
                        accepted_post += 1
                if recording:
                    window.append((u_c, u_beta))
                if i == next_keep:
                    draws.append((b, c, beta))
                    trace.append(lp_cur)
                    next_keep += thin
                i += 1
                if moved:
                    break
        if recording and hi % _ADAPT_WINDOW == 0:
            if window_accepted == 0:
                warn_list.append(
                    f"(b, c, beta): no acceptances in adaptation window ending at iteration {hi}"
                )
            chol = _adapted_cholesky(chol, np.array(window), window_accepted)

    if accepted_post / (n_iter - burn_in) < _LOW_ACCEPTANCE:
        warn_list.append(
            f"(b, c, beta): post-burn-in acceptance rate {accepted_post / (n_iter - burn_in):.3g} "
            f"is below {_LOW_ACCEPTANCE}: the chain is nearly stuck and its draws are no usable "
            "posterior sample"
        )
    (l00, _), (l10, l11) = chol.tolist()
    return McmcChain(
        draws=np.array(draws),
        log_post_trace=np.array(trace),
        iterations=np.arange(burn_in, n_iter, thin),
        acceptance_rates=np.full(3, accepted_post / (n_iter - burn_in)),
        proposal_scales=np.array([math.nan, l00, math.hypot(l10, l11)]),
        warnings=warn_list,
    )


# The Newton fit's initial guess and loop as they were, with numpy's mean,
# var and cov and numpy reductions on the 3-vector for the per-step checks.
# The bodies are kept word for word, so the library's fit_mle and lr_test,
# which take those checks on Python floats, must return the same fits bit
# for bit.
def reference_default_init(d: CensoredDataset) -> np.ndarray:
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


def reference_maximize(
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
    """
    ll = _Loglik(d)
    free_idx = np.flatnonzero(free)
    block = np.ix_(free_idx, free_idx)

    def evaluate(phi):
        theta = theta0.copy()
        theta[free_idx] = np.exp(phi)
        value, score, hess = ll.value_score_hessian(*theta)
        score, hess = score[free_idx], hess[block]
        finite = math.isfinite(value) and np.all(np.isfinite(score)) and np.all(np.isfinite(hess))
        return phi, theta, value, score, hess, float(np.max(np.abs(score))) if finite else math.inf

    phi, theta, value, score, hess, grad_norm = evaluate(np.log(theta0[free_idx]))
    finite = grad_norm < math.inf
    iterations = 0
    while finite and iterations < _MAX_STEPS:
        polish = grad_norm <= _GRAD_TOL
        try:
            w, v = np.linalg.eigh(hess)
        except np.linalg.LinAlgError:
            break
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            floor = _EIG_FLOOR * max(1.0, float(np.max(np.abs(w))))
            step = v @ ((v.T @ score) / -np.minimum(w, -floor))
            step /= max(1.0, float(np.max(np.abs(step))))
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
        params=KumIwParams(*theta), loglik=value, observed_info=info, covariance=cov, ci=ci,
        ci_level=ci_level, converged=converged, iterations=iterations, grad_norm=grad_norm,
        message=message,
    )

"""Moments, inequality measures, order statistics and entropies.

Every series here expands ``(1 - e^{-x})^{shape-1}`` as
``sum_r w_r e^{-r x}`` with signed generalized-binomial weights, and one
engine, ``_signed_series``, sums ``w_r * factor(r)`` for all of them:
moments (a power of r), the partial first moment behind the mean
deviations and Bonferroni/Lorenz curves (a power of r times scipy's
upper incomplete gamma) and the expanded density (an exponential in r).
It sums block-wise until an exact zero weight or a negligible term, and
where the terms decay slowly (fractional shape, upper probabilities)
finishes with an Euler-Maclaurin tail built on the smooth continuation
of the weights.  Shannon/Renyi entropies and order-statistic moments are
computed by adaptive quadrature (their published series forms are kept
only as cross-checks).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .distribution import KumIwParams, cdf, pdf, quantile, survival
from .errors import MomentNotDefinedError, NumericError

__all__ = [
    "SeriesConfig",
    "DEFAULT_SERIES",
    "MgfResult",
    "moment",
    "moment_exists",
    "mgf_truncated",
    "cgf_truncated",
    "mean_deviation_about_mean",
    "mean_deviation_about_median",
    "bonferroni",
    "lorenz",
    "order_stat_pdf",
    "order_stat_moment",
    "order_stat_moment_series",
    "shannon_entropy",
    "renyi_entropy",
    "renyi_entropy_series",
    "expanded_pdf",
]


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy for the expansion series."""

    tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_SERIES = SeriesConfig()

# direct summation runs in blocks of this many terms
_BLOCK = 64
# where direct summation hands over to the Euler-Maclaurin tail
_EM_SWITCH = 512
# the tail integral runs over y = start * e^u for 0 <= u <= _EM_SPAN
_EM_SPAN = 60.0


def upper_incomplete_gamma(a, x):
    """Unnormalized upper incomplete gamma integral over (x, inf), vectorised over x."""
    return special.gammaincc(a, x) * special.gamma(a)


def _weight_block(shape: float, r0: int, w0: float, n: int) -> np.ndarray:
    """Weights w_r0 .. w_{r0+n-1} of ``shape`` from w_r0 = ``w0``, by the
    recurrence w_r = w_{r-1} (r - shape) / r: finite for every real shape,
    and exactly 0 from r = shape on for a positive-integer shape."""
    r = np.arange(r0 + 1.0, r0 + n)
    return np.cumprod(np.concatenate(([w0], (r - shape) / r)))


def _gamma_ratio(y: float, shape: float) -> float:
    # Gamma(y + 1 - shape) / Gamma(y + 1); the lgamma difference cancels
    # catastrophically for huge y, where a two-term asymptotic is exact
    # to well below 1e-9.
    if y < 1e5:
        return math.exp(math.lgamma(y + 1.0 - shape) - math.lgamma(y + 1.0))
    return y ** (-shape) * (1.0 - shape * (1.0 - shape) / (2.0 * y))


def _em_tail(shape: float, factor, dlog_factor, start: int, epsabs: float) -> float:
    """Sum of w_r * factor(r) for r >= start, via Euler-Maclaurin.

    For non-integer ``shape`` the weights continue smoothly as
    ``w(y) = Gamma(y+1-shape) / (Gamma(1-shape) Gamma(y+1))``.  The
    integral is taken in u = log(y / start), so a factor that decays only
    at y >> start is resolved as well as one that decays near it.  Past
    ``end = start e^_EM_SPAN`` the weights are y^-shape to within 1/end,
    so a summand still alive there is a power law, integrated in closed
    form; it must decay faster than 1/y.
    """
    rg = special.rgamma(1.0 - shape)

    def phi(y: float) -> float:
        return rg * _gamma_ratio(y, shape) * factor(y)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        integral, _ = integrate.quad(
            lambda u: phi(start * math.exp(u)) * start * math.exp(u),
            0.0, _EM_SPAN, epsabs=epsabs, epsrel=1e-12, limit=200,
        )
    end = start * math.exp(_EM_SPAN)
    phi_end = phi(end)
    if phi_end != 0.0:
        decay = shape - end * dlog_factor(end)
        if not decay > 1.0:
            raise NumericError(f"expansion series diverges: terms decay as r^-{decay}")
        integral += phi_end * end / (decay - 1.0)
    dlog0 = special.digamma(start + 1.0 - shape) - special.digamma(start + 1.0) + dlog_factor(start)
    return float(integral + phi(start) * (0.5 - dlog0 / 12.0))


def _signed_series(shape: float, factor, dlog_factor, cfg: SeriesConfig) -> float:
    """Sum over r >= 0 of w_r(shape) * factor(r).

    ``factor`` takes an array of orders r (one real y in the tail);
    ``dlog_factor(y)`` is d/dy log factor(y).  The sum stops at an exact
    zero weight (positive-integer ``shape``) or at the first term past
    r > shape below ``cfg.tol`` of its partial sum; failing both, the
    Euler-Maclaurin tail sums the terms from about ``_EM_SWITCH`` on.
    """
    start = max(_EM_SWITCH, math.floor(max(shape, 0.0) + 8.0) + 1)
    total, w0, r0 = 0.0, 1.0, 0
    while r0 < min(start, cfg.max_terms):
        r1 = min(r0 + _BLOCK, start, cfg.max_terms)
        r = np.arange(r0, r1, dtype=float)
        w = _weight_block(shape, r0, w0, r1 - r0)
        terms = w * factor(r)
        sums = np.cumsum(np.concatenate(([total], terms)))[1:]
        done = (w == 0.0) | ((r > shape) & (np.abs(terms) <= cfg.tol * np.abs(sums)))
        if done.any():
            return float(sums[done.argmax()])
        total, w0, r0 = float(sums[-1]), w[-1] * ((r1 - shape) / r1), r1
    if r0 == start:
        return total + _em_tail(shape, factor, dlog_factor, start, cfg.tol * abs(total))
    raise NumericError(
        f"expansion series did not converge within {cfg.max_terms} terms "
        f"(shape={shape}); last partial sum {total}"
    )


def _weight_series(shape: float, s: float, cfg: SeriesConfig, shift: float = 1.0) -> float:
    """Sum over r >= 0 of w_r(shape) * (r + shift)^(s - 1); converges for s < shape."""
    return _signed_series(
        shape, lambda r: (r + shift) ** (s - 1.0), lambda y: (s - 1.0) / (y + shift), cfg
    )


def _quad_0inf(fn) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        left, _ = integrate.quad(fn, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=300)
        right, _ = integrate.quad(fn, 1.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=300)
    value = left + right
    if not math.isfinite(value):
        raise NumericError("adaptive quadrature returned a non-finite value")
    return value


def _finite(p: KumIwParams, k: int, tail: int = 1) -> bool:
    # E[X^k] is finite iff k is below the upper-tail index of X: b*beta
    # for T, b*beta*(n-r+1) for the r-th of n order statistics
    return k < p.b * p.beta * tail


def _moment_power(p: KumIwParams, k: int, tail: int = 1, series: bool = True) -> float:
    """s = k/beta for a positive-integer order k whose moment is finite
    (``_finite``).  The ``series`` form carries Gamma(1 - k/beta), so it
    also needs k < beta; quadrature does not."""
    if k < 1 or k != int(k):
        raise ValueError(f"moment order must be a positive integer, got {k}")
    if (series and k >= p.beta) or not _finite(p, k, tail):
        series_rule = f"k < beta = {p.beta} and " if series else ""
        raise MomentNotDefinedError(
            f"moment of order {k} requires {series_rule}k < tail index {p.b * p.beta * tail}"
        )
    return k / p.beta


def moment_exists(p: KumIwParams, k: int) -> bool:
    """Whether E[T^k] is finite: the upper tail has index b*beta."""
    return _finite(p, k)


def moment(p: KumIwParams, k: int, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """k-th raw moment by the expansion series.

    ``E[T^k] = b c^k Gamma(1 - k/beta) * sum_r w_r (r+1)^(k/beta - 1)``.
    The series form requires k < beta; the moment itself additionally
    requires k < b*beta (for b < 1 the tail is heavier than the beta
    exponent alone suggests).
    """
    s = _moment_power(p, k)
    w_sum = _weight_series(p.b, s, cfg)
    return p.b * p.c**k * math.gamma(1.0 - s) * w_sum


@dataclass(frozen=True)
class MgfResult:
    """Truncated (log-)moment-generating-function value with diagnostics.

    ``excluded_terms`` counts orders k >= 1 whose moment had to be
    dropped; ``warning`` is set when no order beyond k = 0 was retained.
    """

    value: float
    excluded_terms: int
    warning: bool


def mgf_truncated(
    p: KumIwParams, z: float, n_terms: int, cfg: SeriesConfig = DEFAULT_SERIES
) -> MgfResult:
    """Truncated MGF: sum over admissible k <= n_terms of z^k E[T^k] / k!.

    Orders that ``moment`` refuses (k >= beta, the series breakdown, or
    k >= b*beta, a divergent moment) are excluded and counted.
    """
    if not abs(z) < 1:
        raise ValueError(f"mgf_truncated requires |z| < 1, got {z}")
    if n_terms < 0:
        raise ValueError(f"n_terms must be >= 0, got {n_terms}")
    value = 1.0
    excluded = 0
    retained = 0
    for k in range(1, n_terms + 1):
        if k >= p.beta or not moment_exists(p, k):
            excluded += 1
            continue
        value += z**k * moment(p, k, cfg) / math.factorial(k)
        retained += 1
    return MgfResult(value=value, excluded_terms=excluded, warning=(n_terms >= 1 and retained == 0))


def cgf_truncated(
    p: KumIwParams, z: float, n_terms: int, cfg: SeriesConfig = DEFAULT_SERIES
) -> MgfResult:
    """Cumulative generating function K(z) as the log of the truncated MGF."""
    res = mgf_truncated(p, z, n_terms, cfg)
    if res.value <= 0:
        raise NumericError(f"truncated MGF is non-positive ({res.value}); K(z) undefined")
    return MgfResult(value=math.log(res.value), excluded_terms=res.excluded_terms, warning=res.warning)


@functools.lru_cache(maxsize=8)
def _mean(p: KumIwParams, cfg: SeriesConfig) -> float:
    # the mean deviations and Bonferroni/Lorenz curves at several probabilities
    # share one mean series per (p, cfg); ``moment`` refuses a mean that diverges
    return moment(p, 1, cfg)


def _partial_first_moment_series(p: KumIwParams, q: float, cfg: SeriesConfig) -> float:
    # integral of t f(t) over (0, q):
    #   b c sum_r w_r (r+1)^(1/beta - 1) GammaUpper(1 - 1/beta, (r+1)(c/q)^beta)
    # The incomplete gamma cuts the terms off only near r ~ (q/c)^beta,
    # far past direct summation at upper probabilities; for fractional b
    # the Euler-Maclaurin tail sums the rest.
    s = 1.0 / p.beta
    a = 1.0 - s
    xq = (p.c / q) ** p.beta

    def factor(r):
        return (r + 1.0) ** (s - 1.0) * upper_incomplete_gamma(a, (r + 1.0) * xq)

    def dlog_factor(y: float) -> float:
        z = (y + 1.0) * xq
        density = math.exp((a - 1.0) * math.log(z) - z)
        return (s - 1.0) / (y + 1.0) - xq * density / upper_incomplete_gamma(a, z)

    return p.b * p.c * _signed_series(p.b, factor, dlog_factor, cfg)


def mean_deviation_about_mean(p: KumIwParams, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Mean absolute deviation about the mean, 2 mu F(mu) - 2 int_0^mu t f dt."""
    mu = _mean(p, cfg)
    return 2.0 * mu * float(cdf(p, mu)) - 2.0 * _partial_first_moment_series(p, mu, cfg)


def mean_deviation_about_median(p: KumIwParams, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Mean absolute deviation about the median, mu - 2 int_0^M t f dt."""
    mu = _mean(p, cfg)
    med = float(quantile(p, 0.5))
    return mu - 2.0 * _partial_first_moment_series(p, med, cfg)


def bonferroni(p: KumIwParams, prob: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Bonferroni curve B(prob) = int_0^q t f dt / (prob * mu), q = Q(prob)."""
    if not 0 < prob < 1:
        raise ValueError(f"bonferroni requires prob in (0, 1), got {prob}")
    mu = _mean(p, cfg)
    q = float(quantile(p, prob))
    return _partial_first_moment_series(p, q, cfg) / (prob * mu)


def lorenz(p: KumIwParams, prob: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Lorenz curve L(prob) = int_0^q t f dt / mu = prob * B(prob)."""
    if not 0 < prob < 1:
        raise ValueError(f"lorenz requires prob in (0, 1), got {prob}")
    mu = _mean(p, cfg)
    q = float(quantile(p, prob))
    return _partial_first_moment_series(p, q, cfg) / mu


def _order_stat_coeff(r: int, n: int) -> float:
    # n! / ((r-1)! (n-r)!)
    return float(r * math.comb(n, r))


def _validate_rank(r: int, n: int) -> None:
    if n < 1 or n != int(n):
        raise ValueError(f"sample size must be a positive integer, got {n}")
    if r < 1 or r > n or r != int(r):
        raise ValueError(f"rank must satisfy 1 <= r <= n, got r={r}, n={n}")


def order_stat_pdf(p: KumIwParams, r: int, n: int, t):
    """Density of the r-th order statistic in a sample of size n."""
    _validate_rank(r, n)
    coeff = _order_stat_coeff(r, n)
    f_t = np.asarray(pdf(p, t), dtype=float)
    big_f = np.asarray(cdf(p, t), dtype=float)
    big_s = np.asarray(survival(p, t), dtype=float)
    out = coeff * big_f ** (r - 1) * big_s ** (n - r) * f_t
    return out if out.ndim else np.float64(out)


def order_stat_moment(
    p: KumIwParams, r: int, n: int, k: int, cfg: SeriesConfig = DEFAULT_SERIES
) -> float:
    """k-th moment of the r-th order statistic, by adaptive quadrature.

    Quadrature is the authoritative route here; it needs only that the
    moment exist, k < b beta (n - r + 1), not the series' k < beta.
    ``cfg`` is accepted for interface symmetry with the series cross-check.
    """
    _validate_rank(r, n)
    s = _moment_power(p, k, n - r + 1, series=False)
    coeff = _order_stat_coeff(r, n)

    def integrand(x: float) -> float:
        om = -math.expm1(-x)  # 1 - e^{-x}
        surv = om**p.b
        return (
            p.c**k
            * x ** (-s)
            * coeff
            * (1.0 - surv) ** (r - 1)
            * surv ** (n - r)
            * p.b
            * math.exp(-x)
            * om ** (p.b - 1.0)
        )

    return _quad_0inf(integrand)


def order_stat_moment_series(
    p: KumIwParams, r: int, n: int, k: int, cfg: SeriesConfig = DEFAULT_SERIES
) -> float:
    """Double-series cross-check for the order-statistic moment.

    Expands F^(r-1) binomially (a finite sum) and each survival power
    through the weight series.  This is a validation surface for the
    expansion machinery; ``order_stat_moment`` stays authoritative.
    """
    _validate_rank(r, n)
    s = _moment_power(p, k, n - r + 1)
    coeff = _order_stat_coeff(r, n)
    total = 0.0
    for j in range(r):
        shape = p.b * (n - r + j + 1.0)
        total += (-1.0) ** j * math.comb(r - 1, j) * _weight_series(shape, s, cfg)
    return coeff * p.b * p.c**k * math.gamma(1.0 - s) * total


def shannon_entropy(p: KumIwParams) -> float:
    """Differential Shannon entropy E[-log f(T)] in nats, by quadrature.

    Integrated in the substituted variable x = (c/t)^beta, where the
    density becomes b e^{-x} (1-e^{-x})^{b-1} and the integrand is
    smooth with exponential decay.
    """
    log_const = math.log(p.beta * p.b / p.c)
    exponent = 1.0 + 1.0 / p.beta

    def integrand(x: float) -> float:
        om = -math.expm1(-x)
        weight = p.b * math.exp(-x) * om ** (p.b - 1.0)
        log_f = log_const + exponent * math.log(x) - x + (p.b - 1.0) * math.log(om)
        return -weight * log_f

    return _quad_0inf(integrand)


def renyi_entropy(p: KumIwParams, rho: float) -> float:
    """Renyi entropy of order rho (rho > 0, rho != 1), by quadrature."""
    if rho <= 0 or rho == 1.0:
        raise ValueError(f"renyi_entropy requires rho > 0 and rho != 1, got {rho}")
    if rho * (p.b + 1.0 / p.beta) <= 1.0 / p.beta:
        raise ValueError(
            f"renyi_entropy diverges for rho={rho} with b={p.b}, beta={p.beta}"
        )
    s_exp = rho * (1.0 + 1.0 / p.beta) - 1.0 / p.beta  # power of x in the integrand

    def integrand(x: float) -> float:
        om = -math.expm1(-x)
        return x ** (s_exp - 1.0) * math.exp(-rho * x) * om ** (rho * (p.b - 1.0))

    log_a = (
        (rho - 1.0) * math.log(p.beta)
        + rho * math.log(p.b)
        + (1.0 - rho) * math.log(p.c)
        + math.log(_quad_0inf(integrand))
    )
    return log_a / (1.0 - rho)


def renyi_entropy_series(
    p: KumIwParams, rho: float, cfg: SeriesConfig = DEFAULT_SERIES
) -> float:
    """Closed-form series cross-check for the Renyi entropy.

    Implements the expansion of the integral of f^rho with weights from
    shape rho*(b-1)+1 and shift rho.  Valid only where the term-wise
    integrals exist; ``renyi_entropy`` stays authoritative.
    """
    if rho <= 0 or rho == 1.0:
        raise ValueError(f"renyi_entropy_series requires rho > 0 and rho != 1, got {rho}")
    s_exp = rho * (1.0 + 1.0 / p.beta) - 1.0 / p.beta
    shape = rho * (p.b - 1.0) + 1.0
    if s_exp <= 0 or (1.0 - s_exp) >= shape:
        raise ValueError(
            f"series form invalid for rho={rho}, b={p.b}, beta={p.beta}"
        )
    w_sum = _weight_series(shape, 1.0 - s_exp, cfg, shift=rho)
    log_a = (
        (rho - 1.0) * math.log(p.beta)
        + rho * math.log(p.b)
        + (1.0 - rho) * math.log(p.c)
        + math.lgamma(s_exp)
        + math.log(w_sum)
    )
    return log_a / (1.0 - rho)


def expanded_pdf(p: KumIwParams, t: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Density via the expansion of the bracketed power (validation surface).

    ``f(t) = beta b c^beta t^(-(beta+1)) sum_i w_i exp[-(i+1)(c/t)^beta]``,
    terminating exactly for positive-integer b.
    """
    t = float(t)
    if not t > 0:
        raise ValueError(f"time must be > 0, got {t}")
    x = (p.c / t) ** p.beta
    prefactor = p.beta * p.b * p.c**p.beta * t ** (-(p.beta + 1.0))
    return prefactor * _signed_series(p.b, lambda r: np.exp(-(r + 1.0) * x), lambda y: -x, cfg)

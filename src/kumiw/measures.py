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
of the weights, integrated by the tanh-sinh rule.  Shannon/Renyi
entropies and order-statistic moments are integrals over x = (c/t)^beta,
each one array expression summed by the exp-sinh rule on one fixed node
set (their published series forms are kept only as cross-checks).  Both
are double-exponential (DE) rules with one error check, ``_de_quad``,
which raises ``NumericError`` for an integrand it did not resolve.

Only the series engine calls special functions.  It reads
``scipy.special`` as an attribute of ``scipy`` at call time, which loads
the submodule on first use (scipy >= 1.9 loads its submodules lazily),
and builds the tail's tanh-sinh nodes, whose weights need ``expit``, on
the first tail it sums; importing this module loads neither.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from dataclasses import dataclass

import numpy as np
import scipy

from .distribution import KumIwParams, _count, _is_number, _log1m_exp_x, _real, cdf, pdf, quantile, survival
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
        _real(self.tol, "tol")
        object.__setattr__(self, "max_terms", _count(self.max_terms, "max_terms", 1))


DEFAULT_SERIES = SeriesConfig()

# direct summation runs in blocks of this many terms
_BLOCK = 64
# where direct summation hands over to the Euler-Maclaurin tail
_EM_SWITCH = 512
# the tail integral runs over y = start * e^u for 0 <= u <= _EM_SPAN
_EM_SPAN = 60.0

# Double-exponential (DE) quadrature: the trapezoid rule with step h in s
# after a substitution whose weights decay doubly exponentially at both
# ends (Takahasi & Mori 1974, Publ. RIMS 9; Bailey, Jeyabalan & Li 2005,
# Exp. Math. 14).  The trapezoid error on an analytic integrand falls as
# e^(-const/h), so halving h about squares it: an h-sum that the 2h-sum
# (every other node) matches to _DE_RTOL of the summed |terms| is taken to
# be far closer than that.  The first and last terms must be below
# _DE_END of the same scale, since the h/2h test cannot see the mass
# beyond the node range.
_DE_RTOL = 1e-7
_DE_END = 1e-14


def _de_nodes(lo: float, hi: float, step: float):
    s = lo + step * np.arange(round((hi - lo) / step) + 1)
    return math.pi / 2.0 * np.sinh(s), step * math.pi / 2.0 * np.cosh(s)


def _exp_sinh(lo: float, hi: float, step: float) -> types.SimpleNamespace:
    """Nodes of x = exp(pi/2 sinh s) over (0, inf), given by their logs.

    ``log_w`` is log(h dx/ds), so an integrand written as e^(log g) sums
    as e^(log g + log_w) without forming x^(-k) at the smallest nodes,
    where x itself underflows to 0.  ``log_om`` is log(1 - e^-x), by the
    evaluators' kernel from the nodes' own logs where x is not normal.
    """
    log_x, dlog_x = _de_nodes(lo, hi, step)
    x = np.exp(log_x)
    # the first nodes' x rounds to 0, whose log the kernel overwrites
    with np.errstate(divide="ignore"):
        log_om = _log1m_exp_x(x.copy(), lambda mask: log_x[mask])
    return types.SimpleNamespace(x=x, log_x=log_x, log_om=log_om, log_w=np.log(dlog_x) + log_x)


def _tanh_sinh(span: float, half_width: float, step: float) -> types.SimpleNamespace:
    """Nodes u = span (1 + tanh(pi/2 sinh s)) / 2 over (0, span), and their
    weights h du/ds, from the logistic form that neither end rounds away."""
    v, dv = _de_nodes(-half_width, half_width, step)
    up, down = scipy.special.expit(2.0 * v), scipy.special.expit(-2.0 * v)
    return types.SimpleNamespace(u=span * up, w=2.0 * span * up * down * dv)


# s in [-12, 4.5]: x runs from e^-127827 to e^70.6, so an integrand near 0
# like x^(a-1) leaves a mass of about e^(-127827 a) below the first node
_EXP_SINH = _exp_sinh(-12.0, 4.5, 1.0 / 32.0)


@functools.cache
def _em_nodes() -> types.SimpleNamespace:
    # the Euler-Maclaurin tail's node set, built on the first tail summed:
    # its weights need scipy.special, which the other measures do not
    return _tanh_sinh(_EM_SPAN, 3.5, 1.0 / 128.0)


def _de_quad(fn, nodes) -> float:
    """Sum of ``fn(nodes)``, the integrand times the weight (h times the
    substitution's derivative) at each node of a DE rule, checked against
    its 2h-sum and its end terms.

    Raises ``NumericError`` when either check fails, so a value that the
    rule did not resolve is never returned.
    """
    terms = fn(nodes)
    total = float(terms.sum())
    scale = float(np.abs(terms).sum())
    coarse = 2.0 * float(terms[::2].sum())
    end = max(abs(float(terms[0])), abs(float(terms[-1])))
    if not (abs(total - coarse) <= _DE_RTOL * scale and end <= _DE_END * scale):
        raise NumericError(
            f"double-exponential quadrature did not resolve the integrand: sum {total}, "
            f"2h-sum {coarse}, end term {end}"
        )
    return total


# perfbench/tracing.py wraps measures.integrate.quad by this name; the
# measures call the rule through it, at call time, so the wrap sees them
integrate = types.SimpleNamespace(quad=_de_quad)


def upper_incomplete_gamma(a, x):
    """Unnormalized upper incomplete gamma integral over (x, inf), vectorised over x."""
    return scipy.special.gammaincc(a, x) * scipy.special.gamma(a)


def _weight_block(shape: float, r0: int, w0: float, n: int) -> np.ndarray:
    """Weights w_r0 .. w_{r0+n-1} of ``shape`` from w_r0 = ``w0``, by the
    recurrence w_r = w_{r-1} (r - shape) / r: finite for every real shape,
    and exactly 0 from r = shape on for a positive-integer shape."""
    r = np.arange(r0 + 1.0, r0 + n)
    return np.cumprod(np.concatenate(([w0], (r - shape) / r)))


def _em_tail(shape: float, factor, dlog_factor, start: int) -> float:
    """Sum of w_r * factor(r) for r >= start, via Euler-Maclaurin.

    For non-integer ``shape`` the weights continue smoothly as
    ``w(y) = Gamma(y+1-shape) / (Gamma(1-shape) Gamma(y+1))``.  The
    integral is taken in u = log(y / start) by the tanh-sinh rule, so a
    factor that decays only at y >> start is resolved as well as one that
    decays near it.  Past ``end = start e^_EM_SPAN`` the weights are
    y^-shape to within 1/end, so a summand still alive there is a power
    law, integrated in closed form; it must decay faster than 1/y.
    """
    rg = scipy.special.rgamma(1.0 - shape)

    def phi(y: np.ndarray) -> np.ndarray:
        # poch(y + 1, -shape) = Gamma(y + 1 - shape) / Gamma(y + 1)
        return rg * scipy.special.poch(y + 1.0, -shape) * factor(y)

    def terms(nodes) -> np.ndarray:
        y = start * np.exp(nodes.u)
        return phi(y) * y * nodes.w

    integral = integrate.quad(terms, _em_nodes())
    end = start * math.exp(_EM_SPAN)
    phi_start, phi_end = phi(np.array([float(start), end])).tolist()
    if phi_end != 0.0:
        decay = shape - end * dlog_factor(end)
        if not decay > 1.0:
            raise NumericError(f"expansion series diverges: terms decay as r^-{decay}")
        integral += phi_end * end / (decay - 1.0)
    digamma = scipy.special.digamma
    dlog0 = digamma(start + 1.0 - shape) - digamma(start + 1.0) + dlog_factor(start)
    return float(integral + phi_start * (0.5 - dlog0 / 12.0))


def _signed_series(shape: float, factor, dlog_factor, cfg: SeriesConfig) -> float:
    """Sum over r >= 0 of w_r(shape) * factor(r).

    ``factor`` takes an array of orders r (one real y in the tail);
    ``dlog_factor(y)`` is d/dy log factor(y).  The sum stops at an exact
    zero weight (positive-integer ``shape``) or at the first term past
    r > shape below ``cfg.tol`` of its partial sum; failing both, the
    Euler-Maclaurin tail sums the terms from about ``_EM_SWITCH`` on.
    """
    if not shape < math.inf:
        raise NumericError(f"expansion series shape {shape} exceeds the float range")
    start = max(_EM_SWITCH, math.floor(max(shape, 0.0) + 8.0) + 1)
    total, w0, r0 = 0.0, 1.0, 0
    while r0 < min(start, cfg.max_terms):
        r1 = min(r0 + _BLOCK, start, cfg.max_terms)
        r = np.arange(r0, r1, dtype=float)
        # a large shape's weights, or a factor, may overflow: the check below
        with np.errstate(over="ignore", invalid="ignore"):
            w = _weight_block(shape, r0, w0, r1 - r0)
            terms = w * factor(r)
            sums = np.cumsum(np.concatenate(([total], terms)))[1:]
        if not math.isfinite(sums[-1]):
            raise NumericError(
                f"expansion series terms exceed the float range (shape={shape}); "
                f"partial sum {float(sums[-1])} at r < {r1}"
            )
        done = (w == 0.0) | ((r > shape) & (np.abs(terms) <= cfg.tol * np.abs(sums)))
        if done.any():
            return float(sums[done.argmax()])
        total, w0, r0 = float(sums[-1]), float(w[-1]) * ((r1 - shape) / r1), r1
    if r0 == start:
        return total + _em_tail(shape, factor, dlog_factor, start)
    raise NumericError(
        f"expansion series did not converge within {cfg.max_terms} terms "
        f"(shape={shape}); last partial sum {total}"
    )


def _weight_series(shape: float, s: float, cfg: SeriesConfig, shift: float = 1.0) -> float:
    """Sum over r >= 0 of w_r(shape) * (r + shift)^(s - 1); converges for s < shape."""
    return _signed_series(
        shape, lambda r: (r + shift) ** (s - 1.0), lambda y: (s - 1.0) / (y + shift), cfg
    )


def _finite(p: KumIwParams, k: int, tail: int = 1) -> bool:
    # E[X^k] is finite iff k is below the upper-tail index of X: b*beta
    # for T, b*beta*(n-r+1) for the r-th of n order statistics
    return k < p.b * p.beta * tail


def _moment_power(p: KumIwParams, k: int, tail: int = 1, series: bool = True) -> float:
    """s = k/beta for a positive-integer order k whose moment is finite
    (``_finite``).  The ``series`` form carries Gamma(1 - k/beta), so it
    also needs k < beta; quadrature does not."""
    _count(k, "moment order", 1)
    if (series and k >= p.beta) or not _finite(p, k, tail):
        series_rule = f"k < beta = {p.beta} and " if series else ""
        raise MomentNotDefinedError(
            f"moment of order {k} requires {series_rule}k < tail index {p.b * p.beta * tail}"
        )
    return k / p.beta


def moment_exists(p: KumIwParams, k: int) -> bool:
    """Whether E[T^k] is finite: the upper tail has index b*beta.  The
    order k must be finite; nan or +-inf raises ``ValueError``."""
    if not (_is_number(k) and -math.inf < k < math.inf):
        raise ValueError(f"moment order must be finite, got {k}")
    return _finite(p, k)


def moment(p: KumIwParams, k: int, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """k-th raw moment by the expansion series.

    ``E[T^k] = b c^k Gamma(1 - k/beta) * sum_r w_r (r+1)^(k/beta - 1)``.
    The series form requires k < beta; the moment itself additionally
    requires k < b*beta (for b < 1 the tail is heavier than the beta
    exponent alone suggests).
    """
    s = _moment_power(p, k)
    if k == 1:
        return _mean(p, cfg)
    return _moment_series(p, k, s, cfg)


def _moment_series(p: KumIwParams, k: int, s: float, cfg: SeriesConfig) -> float:
    # the series form of E[T^k] at s = k/beta, once ``_moment_power`` allowed it
    return p.b * p.c**k * math.gamma(1.0 - s) * _weight_series(p.b, s, cfg)


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
    k >= b*beta, a divergent moment) are excluded and counted.  ``n_terms``
    is a non-negative integer; an integral float is taken as one.
    """
    if not (_is_number(z) and abs(z) < 1):
        raise ValueError(f"mgf_truncated requires |z| < 1, got {z}")
    n_terms = _count(n_terms, "n_terms", 0)
    value, k = 1.0, 1
    # both of moment's limits hold for every order below one it refuses
    while k <= n_terms:
        try:
            value += z**k * moment(p, k, cfg) / math.factorial(k)
        except MomentNotDefinedError:
            break
        k += 1
    excluded = n_terms - k + 1
    return MgfResult(value=value, excluded_terms=excluded, warning=(n_terms >= 1 and excluded == n_terms))


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
    # ``moment(p, 1)``, the mean deviations and Bonferroni/Lorenz curves at
    # several probabilities share one mean series per (p, cfg);
    # ``_moment_power`` refuses a mean that diverges
    return _moment_series(p, 1, _moment_power(p, 1), cfg)


@functools.lru_cache(maxsize=8)
def _partial_first_moment_series(p: KumIwParams, q: float, cfg: SeriesConfig) -> float:
    # shared per (p, q, cfg): ``lorenz`` and ``bonferroni`` at one probability,
    # and ``mean_deviation_about_median`` with both at 0.5, sum it once
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


def _curve_parts(name: str, p: KumIwParams, prob: float, cfg: SeriesConfig):
    # (int_0^q t f dt, mu) at q = Q(prob), for the Bonferroni and Lorenz curves
    _real(prob, f"{name}: prob", 1)
    mu = _mean(p, cfg)
    q = float(quantile(p, prob))
    if q == 0.0:  # at the smallest prob, where quantile's u/b underflows
        raise NumericError(f"{name}: the quantile at prob={prob} rounds to 0, {p}")
    return _partial_first_moment_series(p, q, cfg), mu


def bonferroni(p: KumIwParams, prob: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Bonferroni curve B(prob) = int_0^q t f dt / (prob * mu), q = Q(prob)."""
    partial, mu = _curve_parts("bonferroni", p, prob, cfg)
    if partial == 0.0:  # a positive integral below the float range: the ratio is lost
        raise NumericError(f"bonferroni: the partial moment at prob={prob} underflows to 0, {p}")
    return partial / (prob * mu)


def lorenz(p: KumIwParams, prob: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Lorenz curve L(prob) = int_0^q t f dt / mu = prob * B(prob)."""
    partial, mu = _curve_parts("lorenz", p, prob, cfg)
    return partial / mu


def _order_stat_coeff(r: int, n: int) -> float:
    """n! / ((r-1)! (n-r)!) = r C(n, r); ``NumericError`` where it exceeds
    the float range.  C(n, m) >= 2^m for m = min(r, n - r), so past
    m = 1024 the exact integer is not formed."""
    if min(r, n - r) <= 1024:
        coeff = r * math.comb(n, r)
        if coeff <= sys.float_info.max:
            return float(coeff)
    raise NumericError(f"the order-statistic coefficient r C(n, r) exceeds the float range at r={r}, n={n}")


def _validate_rank(r: int, n: int) -> tuple[int, int]:
    # an integral float becomes the int that math.comb and range take; r's
    # range test comes first, which nan fails, so int() never sees nan or inf
    m = _count(n, "sample size", 1)
    if not (_is_number(r) and 1 <= r <= m) or r != int(r):
        raise ValueError(f"rank must satisfy 1 <= r <= n, got r={r}, n={n}")
    return int(r), m


def order_stat_pdf(p: KumIwParams, r: int, n: int, t):
    """Density of the r-th order statistic in a sample of size n."""
    r, n = _validate_rank(r, n)
    coeff = _order_stat_coeff(r, n)
    f_t = np.asarray(pdf(p, t), dtype=float)
    big_f = np.asarray(cdf(p, t), dtype=float)
    big_s = np.asarray(survival(p, t), dtype=float)
    out = coeff * big_f ** (r - 1) * big_s ** (n - r) * f_t
    return out if out.ndim else np.float64(out)


def order_stat_moment(
    p: KumIwParams, r: int, n: int, k: int, cfg: SeriesConfig = DEFAULT_SERIES
) -> float:
    """k-th moment of the r-th order statistic, by DE quadrature.

    Quadrature is the authoritative route here; it needs only that the
    moment exist, k < b beta (n - r + 1), not the series' k < beta.  The
    integrand, in x = (c/t)^beta, is taken in logs, so x^(-k/beta) does not
    overflow at the smallest nodes; ``NumericError`` is raised where the
    exp-sinh rule does not resolve it (where a = b (n - r + 1) - k/beta,
    its power x^(a-1) at 0, is below about 2.5e-4).  ``cfg`` is accepted
    for interface symmetry with the series cross-check.
    """
    r, n = _validate_rank(r, n)
    s = _moment_power(p, k, n - r + 1, series=False)
    log_const = k * math.log(p.c) + math.log(_order_stat_coeff(r, n) * p.b)
    power = p.b * float(n - r + 1) - 1.0  # n fits a float, as the coefficient does
    if power == math.inf:
        raise NumericError(f"order_stat_moment: b (n - r + 1) exceeds the float range at r={r}, n={n}, {p}")

    def terms(nodes) -> np.ndarray:
        # c^k x^(-s) coeff F^(r-1) S^(n-r) f(x), with S = (1 - e^-x)^b
        log_g = log_const - s * nodes.log_x - nodes.x + power * nodes.log_om
        return np.exp(log_g + nodes.log_w) * (-np.expm1(p.b * nodes.log_om)) ** (r - 1)

    with np.errstate(over="ignore"):  # power log(1 - e^-x) may overflow to -inf: a 0 term
        return integrate.quad(terms, _EXP_SINH)


def order_stat_moment_series(
    p: KumIwParams, r: int, n: int, k: int, cfg: SeriesConfig = DEFAULT_SERIES
) -> float:
    """Double-series cross-check for the order-statistic moment.

    Expands F^(r-1) binomially (a finite sum) and each survival power
    through the weight series.  This is a validation surface for the
    expansion machinery; ``order_stat_moment`` stays authoritative.
    """
    r, n = _validate_rank(r, n)
    s = _moment_power(p, k, n - r + 1)
    coeff = _order_stat_coeff(r, n)
    total = 0.0
    for j in range(r):
        shape = p.b * (n - r + j + 1.0)
        total += (-1.0) ** j * math.comb(r - 1, j) * _weight_series(shape, s, cfg)
    return coeff * p.b * p.c**k * math.gamma(1.0 - s) * total


def shannon_entropy(p: KumIwParams) -> float:
    """Differential Shannon entropy E[-log f(T)] in nats, by DE quadrature.

    Integrated in the substituted variable x = (c/t)^beta, where the
    density becomes b e^{-x} (1-e^{-x})^{b-1} and the integrand is
    smooth with exponential decay; the exp-sinh rule sums it on its fixed
    nodes, with the density taken from its log.  ``NumericError`` is
    raised where the rule's error check fails.
    """
    log_scale = math.log(p.beta / p.c)
    exponent = 1.0 + 1.0 / p.beta

    def terms(nodes) -> np.ndarray:
        # log f adds log(beta/c) + (1 + 1/beta) log x to the log-density of x
        log_dens = math.log(p.b) + (p.b - 1.0) * nodes.log_om - nodes.x
        return -np.exp(log_dens + nodes.log_w) * (log_scale + exponent * nodes.log_x + log_dens)

    return integrate.quad(terms, _EXP_SINH)


def _check_rho(name: str, rho: float) -> None:
    if not (_is_number(rho) and 0 < rho < math.inf) or rho == 1.0:
        raise ValueError(f"{name} requires a finite rho > 0 and rho != 1, got {rho}")


def _renyi_from_log(p: KumIwParams, rho: float, *log_integral: float) -> float:
    """The Renyi entropy log(beta^(rho-1) b^rho c^(1-rho) I) / (1 - rho)
    from the terms of log I, added in their order after the three
    parameter terms."""
    log_a = (rho - 1.0) * math.log(p.beta) + rho * math.log(p.b) + (1.0 - rho) * math.log(p.c)
    for term in log_integral:
        log_a += term
    return log_a / (1.0 - rho)


def renyi_entropy(p: KumIwParams, rho: float) -> float:
    """Renyi entropy of order rho (finite rho > 0, rho != 1), by DE quadrature.

    The integral of f^rho is summed by the exp-sinh rule in
    x = (c/t)^beta, from its log; near x = 0 the integrand is
    x^(a-1) with a = rho (b + 1/beta) - 1/beta, and ``NumericError`` is
    raised where the rule does not resolve it (a below about 2.5e-4) or
    where the integral underflows to 0 (a large rho).
    """
    _check_rho("renyi_entropy", rho)
    if rho * (p.b + 1.0 / p.beta) <= 1.0 / p.beta:
        raise ValueError(
            f"renyi_entropy diverges for rho={rho} with b={p.b}, beta={p.beta}"
        )
    s_exp = rho * (1.0 + 1.0 / p.beta) - 1.0 / p.beta  # power of x in the integrand

    def terms(nodes) -> np.ndarray:
        log_g = (s_exp - 1.0) * nodes.log_x - rho * nodes.x + rho * (p.b - 1.0) * nodes.log_om
        g = np.exp(log_g + nodes.log_w)
        # an inf term is an integral beyond the float range; a nan one is
        # inf - inf, where rho times both x and log x overflows
        if not np.isfinite(g).all():
            raise NumericError(
                f"renyi_entropy: f^rho or its log exceeds the float range at rho={rho}, {p}"
            )
        return g

    with np.errstate(over="ignore", invalid="ignore"):  # rho x may overflow; e^-inf is 0
        integral = integrate.quad(terms, _EXP_SINH)
    if not integral > 0.0:  # every term underflowed: the rule's checks held on a zero scale
        raise NumericError(f"renyi_entropy: the integral of f^rho underflows to 0 at rho={rho}, {p}")
    return _renyi_from_log(p, rho, math.log(integral))


def renyi_entropy_series(
    p: KumIwParams, rho: float, cfg: SeriesConfig = DEFAULT_SERIES
) -> float:
    """Closed-form series cross-check for the Renyi entropy.

    Implements the expansion of the integral of f^rho with weights from
    shape rho*(b-1)+1 and shift rho.  Valid only where the term-wise
    integrals exist; ``renyi_entropy`` stays authoritative.
    """
    _check_rho("renyi_entropy_series", rho)
    s_exp = rho * (1.0 + 1.0 / p.beta) - 1.0 / p.beta
    shape = rho * (p.b - 1.0) + 1.0
    if s_exp <= 0 or (1.0 - s_exp) >= shape:
        raise ValueError(
            f"series form invalid for rho={rho}, b={p.b}, beta={p.beta}"
        )
    w_sum = _weight_series(shape, 1.0 - s_exp, cfg, shift=rho)
    if not w_sum > 0.0:  # the signed weights cancel to rounding noise at a large rho
        raise NumericError(f"renyi_entropy_series: the weight series sums to {w_sum} at rho={rho}, {p}")
    return _renyi_from_log(p, rho, math.lgamma(s_exp), math.log(w_sum))


def expanded_pdf(p: KumIwParams, t: float, cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """Density via the expansion of the bracketed power (validation surface).

    ``f(t) = beta b c^beta t^(-(beta+1)) sum_i w_i exp[-(i+1)(c/t)^beta]``,
    terminating exactly for positive-integer b.  The prefactor is summed
    inside each term's exponent, so it cannot overflow at a small t, and
    where (c/t)^beta leaves the float range the density is 0.
    """
    if not (_is_number(t) and t > 0):
        raise ValueError(f"time must be > 0, got {t}")
    t = float(t)
    try:
        x = (p.c / t) ** p.beta  # inf where c/t overflows: every term is e^-inf = 0
    except OverflowError:
        return 0.0
    log_head = math.log(p.beta * p.b) + p.beta * math.log(p.c) - (p.beta + 1.0) * math.log(t)
    return _signed_series(p.b, lambda r: np.exp(log_head - (r + 1.0) * x), lambda y: -x, cfg)

"""Core of the Kumaraswamy inverse Weibull (Kum-IW) lifetime distribution.

Parameter container, density/distribution/survival/hazard evaluation,
closed-form quantiles, inverse-transform sampling and the special
sub-model constructors.  All evaluators accept scalars or numpy arrays
of positive times.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "KumIwParams",
    "SubModel",
    "log1m_exp",
    "pdf",
    "log_pdf",
    "cdf",
    "survival",
    "hazard",
    "quantile",
    "sample",
    "make_submodel",
]

_LN2 = math.log(2.0)
_TINY = np.finfo(float).tiny
# from here on e^-x < 2^-1076, below half the smallest subnormal: exp(-x)
# rounds to +0.0
_X_DEAD = 746.0
#: The parameter order of every triple, array and table: (b, c, beta).
_PARAM_NAMES = ("b", "c", "beta")


@dataclass(frozen=True)
class KumIwParams:
    """Parameter triple (b, c, beta): two shapes and one scale, all > 0.

    ``c`` carries the time units; ``b`` and ``beta`` are dimensionless.
    The pre-reparameterization pair behind ``c`` is not identifiable and
    is deliberately not represented.
    """

    b: float
    c: float
    beta: float

    def __post_init__(self) -> None:
        for name in _PARAM_NAMES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"parameter {name} must be finite and > 0, got {value}")

    def as_array(self) -> np.ndarray:
        return np.array([self.b, self.c, self.beta], dtype=float)


class SubModel(enum.Enum):
    """Named members of the Kum-IW family and its pinned sub-models."""

    KUM_IW = "kum-iw"
    KUM_IR = "kum-ir"  # beta = 2
    IR = "ir"          # beta = 2, b = 1
    KUM_IE = "kum-ie"  # beta = 1
    IE = "ie"          # beta = 1, b = 1
    IW = "iw"          # b = 1


def log1m_exp(x):
    """log(1 - exp(-x)) for x >= 0 by the evaluators' kernel, on a copy of x.

    The expm1 form below ln 2 and the log1p form above (Maechler 2012)
    avoid cancellation.  -inf at x = 0, nan at nan and below 0; a scalar
    gives a ``np.float64``.
    """
    x = np.array(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _shaped(_log1m_exp_x(x.reshape(-1)), x.shape)


# Every evaluator allocates its n-length buffers itself and writes only to
# them, never to its argument.  Each runs under one np.errstate that
# silences what its helpers produce on purpose: divide (c/0 and log 0 are
# inf and -inf), over ((c/t)^beta and exp overflow to inf) and, in the
# log-density and log-hazard, invalid (inf - inf, read as -inf).


def _flat(a):
    # a as a flat float array, a view of a itself when it already is one,
    # and its shape; a scalar becomes one lane
    a = np.asarray(a, dtype=float)
    return a.reshape(-1), a.shape


def _shaped(out, shape):
    out = out.reshape(shape)
    return out if out.ndim else out[()]


def _times(p: KumIwParams, t, allow_zero: bool = False):
    """Flat validated t, x = (c/t)^beta in a fresh buffer, and t's shape.

    Under the continuous extension of cdf/survival (``allow_zero``) t may
    contain 0, -0.0 or inf.  c/t overflows for t < c/1.8e308, where x is
    exp(beta (log c - log t)) instead; one min over t gates that pass.
    """
    t, shape = _flat(t)
    t_min = t.min(initial=np.inf)
    # both comparisons are false at nan, which the min propagates
    if not (t_min >= 0.0 if allow_zero else t_min > 0.0):
        raise ValueError(f"time values must be {'>= 0' if allow_zero else '> 0'}")
    x = np.divide(p.c, t)
    if allow_zero:
        # c/-0.0 is -inf, whose odd integer powers are -inf: |c/t| reads
        # -0.0 as +0.0
        np.abs(x, out=x)
    over = np.isinf(x) if math.isinf(p.c / t_min) else None
    _power(x, p.beta, shape)
    if over is not None:
        x[over] = np.exp(_log_x(p, t[over]))
    return t, x, shape


def _log_x(p: KumIwParams, t):
    """log x = beta (log c - log t) in a fresh buffer, from t > 0, which it
    only reads: x's log where x = (c/t)^beta has lost digits or c/t
    overflowed."""
    out = np.log(t)
    np.subtract(math.log(p.c), out, out=out)
    out *= p.beta
    return out


def _power(x, e, shape):
    """x ** e written over flat x from an input of the given shape.

    numpy's scalar ** (libm pow) and its array loops can round apart, so
    a scalar input keeps the scalar one.  The in-place ** on an array
    keeps numpy's fast paths for the exponents 2, 0.5, 1 and -1.
    """
    if shape:
        x **= e
    else:
        x[0] **= e


def _log1m_exp_x(x, p: KumIwParams | None = None, t=None):
    """log(1 - e^-x) for a flat array x >= 0, nan at nan, in a fresh
    buffer; the one kernel behind ``log1m_exp`` and the evaluators.

    x is the kernel's scratch and is overwritten; log(0) at x = 0 is
    -inf, under the caller's np.errstate.  numpy's SIMD exp leaves its
    fast path on every vector with a lane that underflows, so exp is fed
    0 on the lanes where e^-x rounds to +0.0 anyway (x >= _X_DEAD), and
    each branch is fed a harmless value on the other branch's lanes,
    where it yields -0.0.  The branches are joined by adding that -0.0,
    not by np.where, which is slow on an unsorted mask.

    With p and t, x is (c/t)^beta; t is only read.  Where x is below the
    smallest normal float it has lost digits or underflowed to 0, and the
    value is its limit log x = beta (log c - log t), exact to within x/2.
    """
    small = x < _TINY if p is not None and x.min(initial=np.inf) < _TINY else None
    lo = x < _LN2
    live = np.logical_xor(x < _X_DEAD, lo)  # ln 2 <= x < _X_DEAD
    # x < ln 2: log(-expm1(-x)); the other lanes are fed ln 2
    out = np.fmin(x, _LN2)
    np.negative(out, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    np.multiply(out, lo, out=out)
    # ln 2 <= x: log1p(-exp(-x)); masked, then negated, the other lanes are
    # -0.0 before and after exp.  Masking first flips a nan's sign bit
    # twice, as multiplying by -1.0 or -0.0 flips it never
    np.minimum(x, _X_DEAD, out=x)  # inf * 0 would be nan; nan stays nan
    np.multiply(x, live, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.multiply(x, live, out=x)
    np.negative(x, out=x)
    np.log1p(x, out=x)
    np.add(out, x, out=out)
    if small is not None:
        out[small] = _log_x(p, t[small])
    return out


def _exp_live(v):
    """np.exp(v), bit for bit, written over v, a flat buffer the caller
    owns; exp is fed 0 on the lanes where e^v rounds to +0.0
    (v <= -_X_DEAD) and on nan, and both give +0.0."""
    live = v > -_X_DEAD
    np.fmax(v, -_X_DEAD, out=v)
    v *= live
    np.exp(v, out=v)
    v *= live
    return v


def _log_head(p: KumIwParams, t, x):
    """log(beta b c^beta t^-(beta+1) e^-x) in a fresh buffer, from flat t
    and x, which it only reads: log_pdf and the log-hazard before their
    log1m_exp(x) term."""
    head = np.log(t)
    head *= p.beta + 1.0
    np.subtract(math.log(p.beta) + math.log(p.b) + p.beta * math.log(p.c), head, out=head)
    head -= x
    return head


def _log_pdf(p: KumIwParams, t):
    # log_pdf's values in a fresh flat buffer, and t's shape
    t, x, shape = _times(p, t)
    base = _log_head(p, t, x)
    if p.b != 1.0:
        log_om = _log1m_exp_x(x, p, t)
        log_om *= p.b - 1.0
        base += log_om
    # x may overflow for t near 0: the density underflows to 0 there
    np.fmax(base, -np.inf, out=base)  # nan -> -inf
    return base, shape


def log_pdf(p: KumIwParams, t):
    """Log-density at time t > 0.

    Evaluated as ``log(beta b c^beta) - (beta+1) log t - x + (b-1) log1m_exp(x)``
    with ``x = (c/t)^beta``, which is stable across the many orders of
    magnitude that x spans.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _shaped(*_log_pdf(p, t))


def pdf(p: KumIwParams, t):
    """Density at time t > 0 (units 1/time)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out, shape = _log_pdf(p, t)
        return _shaped(_exp_live(out), shape)


def _log_cdf(p: KumIwParams, t):
    # b log(1 - e^-x) = log F(t) in a fresh flat buffer, and t's shape
    t, x, shape = _times(p, t, allow_zero=True)
    out = _log1m_exp_x(x, p, t)
    out *= p.b
    return out, shape


def cdf(p: KumIwParams, t):
    """Distribution function; extended continuously with cdf(0) = 0."""
    with np.errstate(divide="ignore", over="ignore"):
        out, shape = _log_cdf(p, t)
        np.expm1(out, out=out)
    np.negative(out, out=out)
    return _shaped(out, shape)


def survival(p: KumIwParams, t):
    """Survival function; extended continuously with survival(0) = 1."""
    with np.errstate(divide="ignore", over="ignore"):
        out, shape = _log_cdf(p, t)
    np.exp(out, out=out)
    return _shaped(out, shape)


def hazard(p: KumIwParams, t):
    """Hazard rate pdf/survival at t > 0; finite for every finite t."""
    # (c/t)^beta overflows for t near 0 and dominates, and at t = inf both
    # terms are -inf: the limit is 0 at both ends
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t, x, shape = _times(p, t)
        head = _log_head(p, t, x)
        head -= _log1m_exp_x(x, p, t)
        return _shaped(_exp_live(head), shape)


def quantile(p: KumIwParams, u):
    """Closed-form quantile: c * (-log(1 - (1-u)^(1/b)))^(-1/beta).

    Uses expm1/log1p throughout so both tails keep full precision.  For a
    very heavy tail (small b or beta) Q(u) can exceed the float range, and
    it is then inf.  Where z = -log(1-u)/b is below the smallest normal
    float it has lost digits or rounded to 0, and -log(1 - e^-z) is its
    limit log b - log(-log(1-u)), exact to within z/2.
    """
    u, shape = _flat(u)
    if not ((u > 0.0) & (u < 1.0)).all():  # both comparisons are false at nan
        raise ValueError("quantile requires probabilities strictly inside (0, 1)")
    z = np.negative(u)
    np.log1p(z, out=z)
    z /= -p.b                       # -log (1-u)^(1/b), in [0, inf)
    small = z < _TINY if z.min(initial=np.inf) < _TINY else None
    with np.errstate(divide="ignore", over="ignore"):
        inner = _log1m_exp_x(z)
        np.negative(inner, out=inner)   # -log(1 - (1-u)^(1/b)) > 0
        if small is not None:
            inner[small] = math.log(p.b) - np.log(-np.log1p(-u[small]))
        _power(inner, -1.0 / p.beta, shape)
        inner *= p.c
    return _shaped(inner, shape)


def sample(p: KumIwParams, n: int, seed: int) -> np.ndarray:
    """Draw n variates by inverse transform through the quantile function.

    Deterministic for a fixed seed (PCG64). Returns an array of length n;
    n = 0 yields an empty array.  Raises NumericError when a draw exceeds
    the float range, which a very heavy tail can make happen.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    if n == 0:
        return np.empty(0, dtype=float)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    # keep u strictly inside (0, 1); the boundary has probability ~2^-53
    np.clip(u, 5e-17, 1.0 - 1e-16, out=u)
    draws = quantile(p, u)
    bad = np.count_nonzero(~np.isfinite(draws))
    if bad:
        raise NumericError(f"{bad} of {n} draws exceed the float range at {p}")
    return draws


# parameters each sub-model pins; the rest are free
_SUBMODEL_PINNED = {
    SubModel.KUM_IW: {},
    SubModel.KUM_IR: {"beta": 2.0},
    SubModel.IR: {"b": 1.0, "beta": 2.0},
    SubModel.KUM_IE: {"beta": 1.0},
    SubModel.IE: {"b": 1.0, "beta": 1.0},
    SubModel.IW: {"b": 1.0},
}


def make_submodel(tag: SubModel, **params: float) -> KumIwParams:
    """Build the full parameter triple for a sub-model.

    Only the sub-model's free parameters may be supplied (e.g. the
    inverse exponential takes just its scale ``c``); the constrained
    entries are pinned automatically.
    """
    free = tuple(name for name in _PARAM_NAMES if name not in _SUBMODEL_PINNED[tag])
    unknown = set(params) - set(free)
    if unknown:
        raise ValueError(
            f"{tag.name} accepts only {free}, got unexpected {sorted(unknown)}"
        )
    missing = set(free) - set(params)
    if missing:
        raise ValueError(f"{tag.name} requires {free}, missing {sorted(missing)}")
    full = dict(_SUBMODEL_PINNED[tag])
    full.update(params)
    return KumIwParams(**full)

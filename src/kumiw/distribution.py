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
        for name in ("b", "c", "beta"):
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
    """log(1 - exp(-x)) for x >= 0, branch-wise to avoid cancellation.

    For x < ln 2 the expm1 form is exact near zero; beyond ln 2 the log1p
    form is. Returns -inf at x = 0 (the correct limit).
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            x < _LN2,
            np.log(-np.expm1(-x)),
            np.log1p(-np.exp(-x)),
        )
    return out if out.ndim else out[()]


def _validate_time(t, allow_zero: bool = False):
    t = np.asarray(t, dtype=float)
    # infinite t is allowed for the continuous extensions of cdf/survival;
    # both comparisons are false at nan
    if not np.all(t >= 0 if allow_zero else t > 0):
        raise ValueError(f"time values must be {'>= 0' if allow_zero else '> 0'}")
    # -0.0 + 0.0 is +0.0: (c/-0.0)^beta would be -inf for odd integer beta
    return t + 0.0 if allow_zero else t


def _x_of(p: KumIwParams, t):
    # (c / t) ** beta; t may contain 0 or inf under the continuous extension
    with np.errstate(divide="ignore", over="ignore"):
        return (p.c / t) ** p.beta


def _log1m_exp_x(x, p: KumIwParams | None = None, t=None):
    """log1m_exp(x), bit for bit, for x >= 0; the evaluators' one helper.

    x is overwritten.  numpy's SIMD exp leaves its fast path on every
    vector with a lane that underflows, so exp is fed 0 on the lanes
    where e^-x rounds to +0.0 anyway (x >= _X_DEAD), and each branch is
    fed a harmless value on the other branch's lanes, where it yields
    -0.0.  The branches are joined by adding that -0.0, not by np.where,
    which is slow on an unsorted mask.

    With p and t, x is (c/t)^beta.  Where x is below the smallest normal
    float it has lost digits or underflowed to 0, and the value is its
    limit log x = beta (log c - log t), exact to within x/2.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)  # a scalar becomes one lane that can be written in place
    small = x < _TINY if p is not None and np.min(x, initial=np.inf) < _TINY else None
    lo = x < _LN2
    with np.errstate(divide="ignore"):
        # x < ln 2: log(-expm1(-x)); the other lanes are fed ln 2
        out = np.fmin(x, _LN2)
        np.negative(out, out=out)
        np.expm1(out, out=out)
        np.negative(out, out=out)
        np.log(out, out=out)
        np.multiply(out, lo, out=out)
        # ln 2 <= x: log1p(-exp(-x)), with the sign folded into the live
        # mask: -1.0 on ln 2 <= x < _X_DEAD, -0.0 elsewhere
        neg_live = np.subtract(-0.0, np.logical_xor(x < _X_DEAD, lo))
        np.fmin(x, _X_DEAD, out=x)  # inf * 0 would be nan
        np.multiply(x, neg_live, out=x)
        np.exp(x, out=x)
        np.multiply(x, neg_live, out=x)
        np.log1p(x, out=x)
        np.add(out, x, out=out)
        if small is not None:
            out = np.where(small, p.beta * (math.log(p.c) - np.log(t).reshape(-1)), out)
    out = out.reshape(shape)
    return out if out.ndim else out[()]


def _exp_live(v):
    """np.exp(v), bit for bit, with exp fed 0 on the lanes where e^v
    rounds to +0.0 (v <= -_X_DEAD) and on nan; both give +0.0."""
    live = v > -_X_DEAD
    return np.exp(np.fmax(v, -_X_DEAD) * live) * live


def _log_head(p: KumIwParams, t, x):
    """log(beta b c^beta t^-(beta+1) e^-x): log_pdf and the log-hazard
    before their log1m_exp(x) term."""
    return (
        math.log(p.beta)
        + math.log(p.b)
        + p.beta * math.log(p.c)
        - (p.beta + 1.0) * np.log(t)
        - x
    )


def log_pdf(p: KumIwParams, t):
    """Log-density at time t > 0.

    Evaluated as ``log(beta b c^beta) - (beta+1) log t - x + (b-1) log1m_exp(x)``
    with ``x = (c/t)^beta``, which is stable across the many orders of
    magnitude that x spans.
    """
    t = _validate_time(t)
    x = _x_of(p, t)
    base = _log_head(p, t, x)
    if p.b != 1.0:
        with np.errstate(invalid="ignore"):
            base = base + (p.b - 1.0) * _log1m_exp_x(x, p, t)
    # x may overflow for t near 0: the density underflows to 0 there
    out = np.fmax(base, -np.inf)  # nan -> -inf
    return out if np.ndim(out) else np.float64(out)


def pdf(p: KumIwParams, t):
    """Density at time t > 0 (units 1/time)."""
    with np.errstate(over="ignore"):
        return _exp_live(log_pdf(p, t))


def cdf(p: KumIwParams, t):
    """Distribution function; extended continuously with cdf(0) = 0."""
    t = _validate_time(t, allow_zero=True)
    x = _x_of(p, t)
    with np.errstate(over="ignore"):
        out = -np.expm1(p.b * _log1m_exp_x(x, p, t))
    return out if np.ndim(out) else np.float64(out)


def survival(p: KumIwParams, t):
    """Survival function; extended continuously with survival(0) = 1."""
    t = _validate_time(t, allow_zero=True)
    x = _x_of(p, t)
    out = np.exp(p.b * _log1m_exp_x(x, p, t))
    return out if np.ndim(out) else np.float64(out)


def hazard(p: KumIwParams, t):
    """Hazard rate pdf/survival at t > 0; finite for every finite t."""
    t = _validate_time(t)
    x = _x_of(p, t)
    head = _log_head(p, t, x)
    # (c/t)^beta overflows for t near 0 and dominates, and at t = inf both
    # terms are -inf: the limit is 0 at both ends
    with np.errstate(invalid="ignore", over="ignore"):
        out = _exp_live(head - _log1m_exp_x(x, p, t))
    return out if np.ndim(out) else np.float64(out)


def quantile(p: KumIwParams, u):
    """Closed-form quantile: c * (-log(1 - (1-u)^(1/b)))^(-1/beta).

    Uses expm1/log1p throughout so both tails keep full precision.  For a
    very heavy tail (small b or beta) Q(u) can exceed the float range, and
    it is then inf.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0) & (u < 1)):  # both comparisons are false at nan
        raise ValueError("quantile requires probabilities strictly inside (0, 1)")
    z = np.log1p(-u) / p.b          # log (1-u)^(1/b), in (-inf, 0)
    inner = -_log1m_exp_x(-z)       # -log(1 - (1-u)^(1/b)) > 0
    with np.errstate(over="ignore", divide="ignore"):
        out = p.c * inner ** (-1.0 / p.beta)
    return out if np.ndim(out) else np.float64(out)


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
    u = np.clip(u, 5e-17, 1.0 - 1e-16)
    draws = np.asarray(quantile(p, u), dtype=float)
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

_SUBMODEL_FREE = {
    tag: tuple(name for name in ("b", "c", "beta") if name not in pins)
    for tag, pins in _SUBMODEL_PINNED.items()
}


def make_submodel(tag: SubModel, **params: float) -> KumIwParams:
    """Build the full parameter triple for a sub-model.

    Only the sub-model's free parameters may be supplied (e.g. the
    inverse exponential takes just its scale ``c``); the constrained
    entries are pinned automatically.
    """
    free = _SUBMODEL_FREE[tag]
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

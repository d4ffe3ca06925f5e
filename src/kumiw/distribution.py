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
    # infinite t is allowed for the continuous extensions of cdf/survival
    bad = (t < 0) | np.isnan(t) if allow_zero else ~(t > 0)
    if np.any(bad):
        raise ValueError(f"time values must be {'>= 0' if allow_zero else '> 0'}")
    return t


def _x_of(p: KumIwParams, t):
    # (c / t) ** beta; t may contain 0 or inf under the continuous extension
    with np.errstate(divide="ignore", over="ignore"):
        return (p.c / t) ** p.beta


def log_pdf(p: KumIwParams, t):
    """Log-density at time t > 0.

    Evaluated as ``log(beta b c^beta) - (beta+1) log t - x + (b-1) log1m_exp(x)``
    with ``x = (c/t)^beta``, which is stable across the many orders of
    magnitude that x spans.
    """
    t = _validate_time(t)
    x = _x_of(p, t)
    base = (
        math.log(p.beta)
        + math.log(p.b)
        + p.beta * math.log(p.c)
        - (p.beta + 1.0) * np.log(t)
        - x
    )
    if p.b != 1.0:
        with np.errstate(invalid="ignore"):
            base = base + (p.b - 1.0) * log1m_exp(x)
    # x may overflow for t near 0: the density underflows to 0 there
    out = np.where(np.isnan(base), -np.inf, base)
    return out if np.ndim(out) else np.float64(out)


def pdf(p: KumIwParams, t):
    """Density at time t > 0 (units 1/time)."""
    with np.errstate(over="ignore"):
        return np.exp(log_pdf(p, t))


def cdf(p: KumIwParams, t):
    """Distribution function; extended continuously with cdf(0) = 0."""
    t = _validate_time(t, allow_zero=True)
    x = _x_of(p, t)
    with np.errstate(over="ignore"):
        out = -np.expm1(p.b * log1m_exp(x))
    return out if np.ndim(out) else np.float64(out)


def survival(p: KumIwParams, t):
    """Survival function; extended continuously with survival(0) = 1."""
    t = _validate_time(t, allow_zero=True)
    x = _x_of(p, t)
    out = np.exp(p.b * log1m_exp(x))
    return out if np.ndim(out) else np.float64(out)


def hazard(p: KumIwParams, t):
    """Hazard rate pdf/survival at t > 0; finite for every finite t."""
    t = _validate_time(t)
    x = _x_of(p, t)
    log_h = (
        math.log(p.beta)
        + math.log(p.b)
        + p.beta * math.log(p.c)
        - (p.beta + 1.0) * np.log(t)
        - x
        - log1m_exp(x)
    )
    # (c/t)^beta overflows for t near 0 and dominates: the limit is 0
    with np.errstate(over="ignore"):
        out = np.exp(np.where(np.isnan(log_h), -np.inf, log_h))
    return out if np.ndim(out) else np.float64(out)


def quantile(p: KumIwParams, u):
    """Closed-form quantile: c * (-log(1 - (1-u)^(1/b)))^(-1/beta).

    Uses expm1/log1p throughout so both tails keep full precision.
    """
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0) | (u >= 1) | ~np.isfinite(u)):
        raise ValueError("quantile requires probabilities strictly inside (0, 1)")
    z = np.log1p(-u) / p.b          # log (1-u)^(1/b), in (-inf, 0)
    inner = -log1m_exp(-z)          # -log(1 - (1-u)^(1/b)) > 0
    out = p.c * inner ** (-1.0 / p.beta)
    return out if np.ndim(out) else np.float64(out)


def sample(p: KumIwParams, n: int, seed: int) -> np.ndarray:
    """Draw n variates by inverse transform through the quantile function.

    Deterministic for a fixed seed (PCG64). Returns an array of length n;
    n = 0 yields an empty array.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    if n == 0:
        return np.empty(0, dtype=float)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    # keep u strictly inside (0, 1); the boundary has probability ~2^-53
    u = np.clip(u, 5e-17, 1.0 - 1e-16)
    return np.asarray(quantile(p, u), dtype=float)


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

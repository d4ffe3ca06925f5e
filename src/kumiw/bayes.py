"""Bayesian inference with independent Gamma priors.

Log-posterior, the three full conditionals, a Metropolis-within-Gibbs
sampler (Gaussian random walk on log-parameters with Jacobian-corrected
acceptance), and posterior summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distribution import KumIwParams, log1m_exp
from .survdata import CensoredDataset
from .mle import _Loglik

__all__ = [
    "PriorSpec",
    "McmcConfig",
    "McmcChain",
    "log_posterior",
    "full_conditional_log",
    "rw_accept_probability",
    "run_mcmc",
    "summarize",
    "SUMMARY_COLUMNS",
    "write_chain_csv",
]

_PARAM_NAMES = ("b", "c", "beta")

#: Column layout of the posterior summary table.
SUMMARY_COLUMNS = ("Parameter", "Mean", "SD", "2.5%", "Median", "97.5%")


@dataclass(frozen=True)
class PriorSpec:
    """Independent Gamma(shape, rate) priors for b, c and beta.

    The defaults are proper but diffuse (shape 1, rate 0.001); the
    hyperparameters are ours to choose, not prescribed.
    """

    b_shape: float = 1.0
    b_rate: float = 0.001
    c_shape: float = 1.0
    c_rate: float = 0.001
    beta_shape: float = 1.0
    beta_rate: float = 0.001

    def __post_init__(self) -> None:
        for name in ("b_shape", "b_rate", "c_shape", "c_rate", "beta_shape", "beta_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def shapes(self) -> np.ndarray:
        return np.array([self.b_shape, self.c_shape, self.beta_shape])

    @property
    def rates(self) -> np.ndarray:
        return np.array([self.b_rate, self.c_rate, self.beta_rate])

    @cached_property
    def _log_norm(self) -> float:
        return float(sum(s * math.log(r) - math.lgamma(s) for s, r in zip(self.shapes, self.rates)))

    def log_density(self, theta) -> float:
        """Sum of the three Gamma log-densities (normalizing constants included)
        at theta = (b, c, beta).

        Scalar arithmetic; the normalizing constant is computed once per
        ``PriorSpec``.
        """
        b, c, beta = map(float, theta)
        if not (b > 0 and c > 0 and beta > 0):
            return -math.inf
        value = self._log_norm + (
            ((self.b_shape - 1.0) * math.log(b) - self.b_rate * b)
            + ((self.c_shape - 1.0) * math.log(c) - self.c_rate * c)
            + ((self.beta_shape - 1.0) * math.log(beta) - self.beta_rate * beta)
        )
        return value if math.isfinite(value) else -math.inf


def log_posterior(
    p: KumIwParams,
    d: CensoredDataset,
    prior: PriorSpec,
    likelihood_weight: float = 1.0,
) -> float:
    """Log-posterior up to a constant: (weighted) censored log-likelihood
    plus the Gamma prior log-densities.

    ``likelihood_weight`` is a test hook: 0 switches the likelihood off,
    leaving the prior as the target.
    """
    theta = p.as_array()
    lp = prior.log_density(theta)
    if likelihood_weight != 0.0:
        ll = _Loglik(d)(p.b, p.c, p.beta)
        lp = lp + likelihood_weight * ll
    return lp if math.isfinite(lp) else -math.inf


def full_conditional_log(
    which: int,
    value: float,
    others: tuple[float, float],
    d: CensoredDataset,
    prior: PriorSpec,
) -> float:
    """Log of the full conditional of one coordinate, up to a constant.

    ``which`` indexes (0=b, 1=c, 2=beta); ``others`` carries the two
    remaining parameters in canonical (b, c, beta) order.  Each
    conditional is transcribed from the joint-posterior algebra keeping
    every term that varies with the coordinate, so it differs from
    ``log_posterior`` only by a coordinate-free constant.
    """
    if which == 0:
        b, (c, beta) = value, others
    elif which == 1:
        c, (b, beta) = value, others
    elif which == 2:
        beta, (b, c) = value, others
    else:
        raise ValueError(f"parameter index must be 0, 1 or 2, got {which}")
    if not (b > 0 and c > 0 and beta > 0):
        return -math.inf

    times = d.times
    events = d.event_mask
    tf = times[events]
    tc = times[~events]
    r = len(tf)
    log_c = math.log(c)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x_f = np.exp(beta * (log_c - np.log(tf)))
        x_c = np.exp(beta * (log_c - np.log(tc)))
        sum_lf = float(np.sum(log1m_exp(x_f))) if r else 0.0
        sum_lc = float(np.sum(log1m_exp(x_c))) if len(tc) else 0.0
        bracket = (b - 1.0) * sum_lf + b * sum_lc

        if which == 0:
            out = (prior.b_shape + r - 1.0) * math.log(b) - prior.b_rate * b + bracket
        elif which == 1:
            out = (
                (prior.c_shape + r * beta - 1.0) * log_c
                - prior.c_rate * c
                - float(x_f.sum())
                + bracket
            )
        else:
            out = (
                (prior.beta_shape + r - 1.0) * math.log(beta)
                + r * beta * log_c
                - prior.beta_rate * beta
                - float(x_f.sum())
                - (beta + 1.0) * float(np.sum(np.log(tf)))
                + bracket
            )
    return out if math.isfinite(out) else -math.inf


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings; defaults sized so desk-scale studies run in minutes."""

    n_iter: int = 25_000
    burn_in: int = 5_000
    thin: int = 5
    seed: int = 20260810
    proposal_scales: tuple[float, float, float] = (0.5, 0.5, 0.5)
    adapt: bool = True

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {self.n_iter}")
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError(f"burn_in must satisfy 0 <= burn_in < n_iter, got {self.burn_in}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")
        if len(self.proposal_scales) != 3 or any(s <= 0 for s in self.proposal_scales):
            raise ValueError("proposal_scales must be 3 positive reals")


@dataclass
class McmcChain:
    """Post-burn-in, thinned draws with acceptance and trace diagnostics."""

    draws: np.ndarray            # (m, 3) rows of (b, c, beta)
    log_post_trace: np.ndarray   # (m,)
    iterations: np.ndarray       # (m,) original iteration index of each draw
    acceptance_rates: np.ndarray  # (3,) post-burn-in per-coordinate rates
    proposal_scales: np.ndarray   # (3,) scales in force after burn-in
    warnings: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.draws)

    def parameter_draws(self, name: str) -> np.ndarray:
        return self.draws[:, _PARAM_NAMES.index(name)]


def rw_accept_probability(
    log_target_current: float,
    log_target_proposal: float,
    log_current: float,
    log_proposal: float,
) -> float:
    """min(1, exp(delta log target + delta log-Jacobian)) for a Gaussian
    random walk on the log scale.

    The Jacobian term ``log_proposal - log_current`` accounts for the
    exp transform back to the positive parameter.
    """
    if log_target_proposal == -math.inf:
        return 0.0
    if log_target_current == -math.inf:
        return 1.0
    delta = (log_target_proposal - log_target_current) + (log_proposal - log_current)
    if delta >= 0:
        return 1.0
    return math.exp(delta)


_ADAPT_WINDOW = 200


def run_mcmc(
    d: CensoredDataset,
    prior: PriorSpec,
    cfg: McmcConfig,
    likelihood_weight: float = 1.0,
    init: KumIwParams | None = None,
) -> McmcChain:
    """Metropolis-within-Gibbs sampling of (b, c, beta).

    Each iteration updates b, then c, then beta by a Gaussian random walk
    on the log scale, accepted against the joint log-posterior (which
    matches the full conditionals up to coordinate-free constants).
    Proposal scales optionally adapt during burn-in toward acceptance
    rates in [0.2, 0.5] and are frozen afterward.  Deterministic for a
    fixed seed.

    The chain keeps the likelihood terms ``_Loglik.terms(c, beta)`` of its
    current state.  A b proposal reuses them, since b enters the
    likelihood only through scalars, so it does no O(n) work; a c or beta
    proposal computes them once and they become the current terms if it is
    accepted.  A run therefore makes 1 + 2 n_iter passes over the data
    (none with ``likelihood_weight`` 0, and none for a proposal whose prior
    is -inf).
    """
    ll = _Loglik(d)

    def log_target(b: float, c: float, beta: float, terms):
        """Log-posterior at (b, c, beta) and the terms it used; ``terms``
        of None are computed here."""
        lp = prior.log_density((b, c, beta))
        if likelihood_weight == 0.0 or lp == -math.inf:
            return lp, terms
        if terms is None:
            terms = ll.terms(c, beta)
        lp += likelihood_weight * ll.combine(b, c, beta, terms)
        return (lp if math.isfinite(lp) else -math.inf), terms

    if init is not None:
        theta = init.as_array()
    else:
        theta = np.array([1.0, float(np.exp(np.mean(np.log(d.times)))), 1.0])
    phi = np.log(theta)
    lp_cur, terms = log_target(*theta.tolist(), None)

    rng = np.random.default_rng(cfg.seed)
    scales = np.array(cfg.proposal_scales, dtype=float)
    keep = range(cfg.burn_in, cfg.n_iter, cfg.thin)
    n_keep = len(keep)
    draws = np.empty((n_keep, 3))
    trace = np.empty(n_keep)
    kept_iters = np.fromiter(keep, dtype=int)
    accepted_post = np.zeros(3, dtype=int)
    window_accepted = np.zeros(3, dtype=int)
    warn_list: list[str] = []
    stored = 0

    for i in range(cfg.n_iter):
        for j in range(3):
            step = scales[j] * rng.standard_normal()
            phi_prop = phi.copy()
            phi_prop[j] += step
            theta_prop = np.exp(phi_prop)
            lp_prop, terms_prop = log_target(*theta_prop.tolist(), None if j else terms)
            accept_p = rw_accept_probability(lp_cur, lp_prop, phi[j], phi_prop[j])
            if rng.random() < accept_p:
                phi = phi_prop
                theta = theta_prop
                lp_cur = lp_prop
                terms = terms_prop
                if i >= cfg.burn_in:
                    accepted_post[j] += 1
                else:
                    window_accepted[j] += 1
        if cfg.adapt and i < cfg.burn_in and (i + 1) % _ADAPT_WINDOW == 0:
            rates = window_accepted / _ADAPT_WINDOW
            for j in range(3):
                if window_accepted[j] == 0:
                    warn_list.append(
                        f"{_PARAM_NAMES[j]}: no acceptances in adaptation window "
                        f"ending at iteration {i + 1}"
                    )
                if rates[j] < 0.2:
                    scales[j] *= 0.7
                elif rates[j] > 0.5:
                    scales[j] *= 1.4
                scales[j] = min(max(scales[j], 1e-3), 25.0)
            window_accepted[:] = 0
        if i >= cfg.burn_in and (i - cfg.burn_in) % cfg.thin == 0:
            draws[stored] = theta
            trace[stored] = lp_cur
            stored += 1

    n_post = cfg.n_iter - cfg.burn_in
    return McmcChain(
        draws=draws,
        log_post_trace=trace,
        iterations=kept_iters,
        acceptance_rates=accepted_post / n_post,
        proposal_scales=scales,
        warnings=warn_list,
    )


def summarize(chain: McmcChain) -> list[dict]:
    """Per-parameter posterior summary rows with the standard column set
    (Parameter, Mean, SD, 2.5%, Median, 97.5%)."""
    if len(chain) == 0:
        raise ValueError("cannot summarize an empty chain")
    rows = []
    for j, name in enumerate(_PARAM_NAMES):
        col = chain.draws[:, j]
        sd = float(np.std(col, ddof=1)) if len(col) > 1 else 0.0
        rows.append(
            {
                "Parameter": name,
                "Mean": float(np.mean(col)),
                "SD": sd,
                "2.5%": float(np.quantile(col, 0.025)),
                "Median": float(np.quantile(col, 0.5)),
                "97.5%": float(np.quantile(col, 0.975)),
            }
        )
    return rows


def write_chain_csv(chain: McmcChain, path) -> None:
    """Export the chain as CSV with columns iter,b,c,beta,log_post."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("iter,b,c,beta,log_post\n")
        for it, (b, c, beta), lp in zip(chain.iterations, chain.draws, chain.log_post_trace):
            handle.write(f"{it},{b:.17g},{c:.17g},{beta:.17g},{lp:.17g}\n")

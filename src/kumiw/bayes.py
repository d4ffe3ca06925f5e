"""Bayesian inference with independent Gamma priors.

Log-posterior, the three full conditionals, a partially collapsed
Metropolis sampler (a joint Gaussian random walk on (log c, log beta) with
b drawn from its exact Gamma conditional), and posterior summaries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

# log1m_exp is unused here (the sums come from _Loglik.terms); perfbench/tracing.py wraps it
from .distribution import _PARAM_NAMES, _TINY, KumIwParams, _is_number, _real, log1m_exp
from .survdata import CensoredDataset, _write_csv
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

#: Column layout of the posterior summary table.
SUMMARY_COLUMNS = ("Parameter", "Mean", "SD", "2.5%", "Median", "97.5%")


@dataclass(frozen=True)
class PriorSpec:
    """Independent Gamma(shape, rate) priors for b, c and beta.

    The defaults are proper but diffuse (shape 1, rate 0.001); the
    hyperparameters are ours to choose, not prescribed.  Each is finite and
    > 0, and the log-normaliser, the sum of shape log(rate) - lgamma(shape)
    over the three priors, must stay a finite float (so no shape beyond
    about 2.5e305); ``ValueError`` names the first pair that leaves it.
    """

    b_shape: float = 1.0
    b_rate: float = 0.001
    c_shape: float = 1.0
    c_rate: float = 0.001
    beta_shape: float = 1.0
    beta_rate: float = 0.001

    def __post_init__(self) -> None:
        # on Python floats, where a product beyond the float range is inf
        # without a numpy warning
        log_norm = 0.0
        for name in _PARAM_NAMES:
            shape = float(_real(getattr(self, f"{name}_shape"), f"{name}_shape"))
            rate = float(_real(getattr(self, f"{name}_rate"), f"{name}_rate"))
            try:
                log_norm += shape * math.log(rate) - math.lgamma(shape)
            except OverflowError:  # lgamma from about 2.56e305
                log_norm = math.inf
            if not math.isfinite(log_norm):
                raise ValueError(
                    f"{name}_shape and {name}_rate leave the Gamma log-normaliser "
                    f"outside the float range, got {shape} and {rate}"
                )
        object.__setattr__(self, "_log_norm", log_norm)

    @property
    def shapes(self) -> np.ndarray:
        return np.array([self.b_shape, self.c_shape, self.beta_shape])

    @property
    def rates(self) -> np.ndarray:
        return np.array([self.b_rate, self.c_rate, self.beta_rate])

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


def _log_post(prior: PriorSpec, ll: _Loglik, weight: float, b: float, c: float, beta: float, terms):
    """Log-posterior at (b, c, beta) from ``terms = ll.terms(c, beta)``,
    which is unused (and may be None) when ``weight`` is 0.  The sampler
    takes it only for the states its kept draws hold."""
    lp = prior.log_density((b, c, beta))
    if weight == 0.0 or lp == -math.inf:
        return lp
    lp += weight * ll.combine(b, c, beta, terms)
    return lp if math.isfinite(lp) else -math.inf


def _checked_weight(weight: float) -> float:
    if not (_is_number(weight) and 0.0 <= weight < math.inf):
        raise ValueError(f"likelihood_weight must be finite and >= 0, got {weight}")
    return weight


def log_posterior(
    p: KumIwParams,
    d: CensoredDataset,
    prior: PriorSpec,
    likelihood_weight: float = 1.0,
) -> float:
    """Log-posterior up to a constant: (weighted) censored log-likelihood
    plus the Gamma prior log-densities.

    ``likelihood_weight`` is a test hook: 0 switches the likelihood off,
    leaving the prior as the target.  It must be finite and >= 0
    (``ValueError`` otherwise).
    """
    _checked_weight(likelihood_weight)
    ll = _Loglik(d)
    terms = ll.terms(p.c, p.beta) if likelihood_weight != 0.0 else None
    return _log_post(prior, ll, likelihood_weight, p.b, p.c, p.beta, terms)


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
    ``log_posterior`` only by a coordinate-free constant.  The data enter
    through ``_Loglik.terms`` and the event log-time sum alone.  It is
    -inf outside b, c, beta > 0, and ``ValueError`` where one of them is
    not a number.
    """
    if which == 0:
        b, (c, beta) = value, others
    elif which == 1:
        c, (b, beta) = value, others
    elif which == 2:
        beta, (b, c) = value, others
    else:
        raise ValueError(f"parameter index must be 0, 1 or 2, got {which}")
    if not all(map(_is_number, (b, c, beta))):
        raise ValueError(f"value and others must be numbers, got {value!r} and {others!r}")
    if not (b > 0 and c > 0 and beta > 0):
        return -math.inf
    # Python floats: 0 * (-inf) below gives nan without a numpy warning
    b, c, beta = float(b), float(c), float(beta)
    ll = _Loglik(d)
    sum_x_f, s_f, s_c = ll.terms(c, beta)
    r, log_c = ll.r, math.log(c)
    bracket = (b - 1.0) * s_f + b * s_c
    if which == 0:
        out = (prior.b_shape + r - 1.0) * math.log(b) - prior.b_rate * b + bracket
    elif which == 1:
        out = (prior.c_shape + r * beta - 1.0) * log_c - prior.c_rate * c - sum_x_f + bracket
    else:
        out = (
            (prior.beta_shape + r - 1.0) * math.log(beta)
            + r * beta * log_c
            - prior.beta_rate * beta
            - sum_x_f
            - (beta + 1.0) * ll.sum_log_tf
            + bracket
        )
    return out if math.isfinite(out) else -math.inf


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings; defaults sized so desk-scale studies run in minutes.

    ``proposal_scales`` holds three entries in (b, c, beta) order for
    compatibility.  b is drawn from its exact conditional, so the b entry
    is unused (it must still be finite and positive); the c and beta
    entries are the standard deviations on the log scale of the initial
    diagonal proposal covariance of the joint (log c, log beta) move.  Each
    entry's square, a variance, must be a normal float (an entry within
    about 1.5e-154 to 1.3e154), since the adaptation squares the factor.
    """

    n_iter: int = 25_000
    burn_in: int = 5_000
    thin: int = 5
    seed: int = 20260810
    proposal_scales: tuple[float, float, float] = (0.5, 0.5, 0.5)
    adapt: bool = True

    def __post_init__(self) -> None:
        for name in ("n_iter", "burn_in", "thin", "seed"):
            value = getattr(self, name)
            try:
                number = operator.index(value)
            except TypeError:
                number = None
            if number is None or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # numpy integers are held as Python ints
            object.__setattr__(self, name, number)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {self.n_iter}")
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError(f"burn_in must satisfy 0 <= burn_in < n_iter, got {self.burn_in}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")
        scales = self.proposal_scales
        if not hasattr(scales, "__len__") or len(scales) != 3:
            raise ValueError(f"proposal_scales must be 3 finite positive reals, got {scales}")
        for i, scale in enumerate(scales):
            scale = float(_real(scale, f"proposal_scales[{i}]"))
            if not _TINY <= scale * scale < math.inf:
                raise ValueError(
                    f"proposal_scales[{i}] squared must be a normal float (about 1.5e-154 to 1.3e154), got {scale}"
                )


@dataclass
class McmcChain:
    """Post-burn-in, thinned draws with acceptance and trace diagnostics.

    Every iteration makes one joint move of (b, c, beta), so
    ``acceptance_rates`` repeats its post-burn-in acceptance rate three
    times.  ``proposal_scales`` holds the standard deviations of the
    (log c, log beta) proposal in force after burn-in, behind a nan for
    b, which has no proposal scale.
    """

    draws: np.ndarray            # (m, 3) rows of (b, c, beta)
    log_post_trace: np.ndarray   # (m,)
    iterations: np.ndarray       # (m,) original iteration index of each draw
    acceptance_rates: np.ndarray  # (3,) post-burn-in rate of the joint move, repeated
    proposal_scales: np.ndarray   # (3,) nan, then the adapted log c and log beta sds
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
    exp transform back to the positive parameter.  A nan log target counts
    as -inf (a nan proposal gives 0, a nan current target 1), and any other
    nan log ratio, such as inf - inf, gives 0.
    """
    # `not x > -inf` is true for -inf and nan alike
    if not log_target_proposal > -math.inf:
        return 0.0
    if not log_target_current > -math.inf:
        return 1.0
    delta = (log_target_proposal - log_target_current) + (log_proposal - log_current)
    if delta < 0:
        return math.exp(delta)
    return 1.0 if delta >= 0 else 0.0


_ADAPT_WINDOW = 200
#: Haario-Saksman-Tamminen scale for a 2-D random walk: 2.38^2 / d.
_ADAPT_SCALE = 2.38**2 / 2
#: A post-burn-in acceptance rate below this warns that the chain is stuck.
_LOW_ACCEPTANCE = 0.05


def _collapsed_target(prior: PriorSpec, ll: _Loglik, weight: float):
    """The sampler's log-target at (c, beta) with b integrated out, and the
    Gamma(shape, rate) law of b given (c, beta), built once per chain.

    Given (c, beta), b enters the weighted likelihood and its prior only
    as b^(a_b + w r - 1) exp(-b (rate_b - w (S_f + S_c))), so b | c, beta
    is Gamma(a_b + w r, rate_b - w (S_f + S_c)) and the marginal of
    (c, beta) is, up to a constant, the c and beta priors plus
    w [r (log beta + beta log c) - sum x_f - (beta + 1) sum log t_f - S_f]
    plus lgamma(shape) - shape log(rate).

    Returns (shape, target).  ``target(c, beta, terms)``, with ``terms``
    ``ll.terms(c, beta)`` (unused, and may be None, when ``weight`` is 0),
    returns (log target, rate); the log target is -inf where the rate is
    not finite and positive.  What does not vary with (c, beta) is taken
    here: the prior's log-normaliser, the b prior at b = 1, the shape and
    its lgamma, r and sum log t_f.  A call takes log c and log beta once
    each, in the floating-point operations and order of
    ``prior.log_density((1, c, beta))``, ``ll.event_terms(1, c, beta)``
    and the lgamma term, so its values are theirs bit for bit.
    """
    log_norm = prior._log_norm
    # the b prior at b = 1, as log_density takes it: the constant -b_rate
    b_term = (prior.b_shape - 1.0) * math.log(1.0) - prior.b_rate * 1.0
    a_c, c_rate = prior.c_shape - 1.0, prior.c_rate
    a_beta, beta_rate = prior.beta_shape - 1.0, prior.beta_rate
    b_rate = prior.b_rate
    r, sum_log_tf = ll.r, ll.sum_log_tf
    shape = prior.b_shape + weight * r
    lgamma_shape = math.lgamma(shape)
    weighted = weight != 0.0
    # unweighted, the rate is b_rate at every point
    unweighted_tail = lgamma_shape - shape * math.log(b_rate)

    def target(c: float, beta: float, terms) -> tuple[float, float]:
        if not (c > 0 and beta > 0):
            return -math.inf, b_rate
        log_c, log_beta = math.log(c), math.log(beta)
        value = log_norm + (
            (b_term + (a_c * log_c - c_rate * c)) + (a_beta * log_beta - beta_rate * beta)
        )
        if not math.isfinite(value):
            return -math.inf, b_rate
        if not weighted:
            value += unweighted_tail
            return (value if math.isfinite(value) else -math.inf), b_rate
        sum_x_f, s_f, s_c = terms
        rate = b_rate - weight * (s_f + s_c)
        if not 0.0 < rate < math.inf:
            return -math.inf, rate
        # event_terms at b = 1: r (log beta + 0.0 + beta log c), and log beta + 0.0 is log beta
        head = r * (log_beta + beta * log_c)
        value += weight * (head - sum_x_f - (beta + 1.0) * sum_log_tf - s_f)
        value += lgamma_shape - shape * math.log(rate)
        return (value if math.isfinite(value) else -math.inf), rate

    return shape, target


def _depth(n: int) -> int:
    """Proposals per likelihood pass over n rows.  While a pass is bound
    by its per-call overhead, a (k, n) block costs little more than one
    row; past about 1200 values each extra row costs its full price."""
    return max(1, min(4, 1200 // n))


def run_mcmc(
    d: CensoredDataset,
    prior: PriorSpec,
    cfg: McmcConfig,
    likelihood_weight: float = 1.0,
    init: KumIwParams | None = None,
) -> McmcChain:
    """Partially collapsed Metropolis sampling of (b, c, beta).

    Each iteration makes one joint move.  (log c, log beta) take a 2-D
    Gaussian random-walk step, b' is drawn from its exact Gamma
    conditional given (c', beta'), and the triple is accepted or rejected
    together with the (c, beta) marginal ratio and the log-Jacobian.  The
    conditional density of b' cancels from the Metropolis-Hastings ratio,
    so the move leaves the posterior invariant (van Dyk & Park 2008).
    A b' that is not a finite positive float, one that underflows to 0
    or overflows to inf, rejects the move.

    The proposal covariance starts diagonal with the c and beta entries of
    ``cfg.proposal_scales`` as standard deviations (the b entry is
    unused).  With ``cfg.adapt``, at the end of each 200-iteration
    burn-in window it becomes 2.38^2 / 2 times the sample covariance of
    (log c, log beta) over the window (Haario, Saksman & Tamminen 2001);
    when the window has fewer than 2 acceptances or a singular covariance,
    the standard deviations shrink by 0.7 instead.  They are kept in
    [1e-3, 25], and the covariance is frozen after burn-in.  A burn-in
    of 1-199 iterations holds no full window, so the proposal is never
    adapted; one that is not a multiple of 200 ends in a cut window that
    is not adapted on.  ``warnings`` says so in both cases, and also when
    the post-burn-in acceptance rate is below 0.05 (a stuck chain).

    The randomness is drawn a segment at a time: the 200-iteration
    windows of burn-in (the last one cut at ``cfg.burn_in``), then
    200-iteration segments after it.  A segment of m iterations draws, in
    this order, m standard normal pairs z, m uniforms u and m standard
    Gamma(a_b + w r) variates g; iteration j proposes
    (log c', log beta') = (log c, log beta) + L z_j with the segment's
    Cholesky factor L, accepts when u_j is below the acceptance
    probability, and takes b' = g_j / rate(c', beta').  The chain is a
    function of the seed alone, and it differs from the one drawn an
    iteration at a time before this scheme.

    Each iteration appends its state (b, c, beta, terms, log c, log beta)
    to its segment's list; an acceptance makes a new state, and a rejection
    appends the current one again.  A full burn-in window adapts on the
    states' last two entries; a later segment from iteration lo keeps the
    slice ``[(burn_in - lo) % thin :: thin]``, iterations burn_in + j thin.
    The log-posterior is taken only for the states that kept draws hold,
    once per state.

    The likelihood enters through ``_Loglik.terms_rows`` and the target
    of ``_collapsed_target``, built once per chain.  Rejection is
    the likelier outcome, so one pass evaluates the next k proposals as
    if each were rejected, all from the current state (pre-fetching:
    Brockwell 2006; Angelino, Kohler, Waterland, Seltzer & Adams 2014).
    They are then decided in order; the first acceptance drops the rows
    after it, and the next pass starts from the new state.  A pass never
    crosses a segment end.  k = max(1, min(4, 1200 // n)) by n rows, and
    the chain is the same for every k.  With ``likelihood_weight`` 0 no
    pass is made; it must be finite and >= 0 (``ValueError`` otherwise).
    Stored ``log_post_trace`` values are the full log-posterior of each
    draw.
    """
    weight = _checked_weight(likelihood_weight)
    ll = _Loglik(d)
    weighted = weight != 0.0
    depth = _depth(ll.n) if weighted else 1
    # b | c, beta is Gamma(shape, rate(c, beta))
    shape, target = _collapsed_target(prior, ll, weight)

    if init is not None:
        theta = init.as_array()
    else:
        theta = np.array([1.0, float(np.exp(np.mean(np.log(d.times)))), 1.0])
    b, c, beta = theta.tolist()
    u_c, u_beta = math.log(c), math.log(beta)
    terms = ll.terms(c, beta) if weighted else None
    lt_cur = target(c, beta, terms)[0]
    state = (b, c, beta, terms, u_c, u_beta)

    rng = np.random.default_rng(cfg.seed)
    # lower Cholesky factor [[l00, 0], [l10, l11]] of the proposal covariance
    chol = np.diag(np.array(cfg.proposal_scales[1:], dtype=float))
    burn_in, n_iter, thin = cfg.burn_in, cfg.n_iter, cfg.thin
    draws: list[tuple[float, float, float]] = []
    trace: list[float] = []
    # the last kept state and its log-posterior
    kept_state, kept_lp = None, math.nan
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
        seg: list[tuple] = []
        accepted = 0
        while len(seg) < m:
            run, cs, betas = [], [], []
            for step_c, step_beta, u, g in moves[len(seg) : len(seg) + depth]:
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
                lt_prop, rate = target(c_prop, beta_prop, terms_prop)
                accept_p = rw_accept_probability(lt_cur, lt_prop, u_c + u_beta, u_c_prop + u_beta_prop)
                b_prop = g / rate if u < accept_p else 0.0
                accept = 0.0 < b_prop < math.inf
                if accept:
                    u_c, u_beta, lt_cur = u_c_prop, u_beta_prop, lt_prop
                    state = (b_prop, c_prop, beta_prop, terms_prop, u_c, u_beta)
                    accepted += 1
                seg.append(state)
                if accept:
                    break
        if hi > burn_in:
            for kept in seg[(burn_in - lo) % thin :: thin]:
                # a state leaves the chain for good once it is left, so the
                # last kept one is the only one a later draw can share
                if kept is not kept_state:
                    kept_state, kept_lp = kept, _log_post(prior, ll, weight, *kept[:4])
                draws.append(kept[:3])
                trace.append(kept_lp)
            accepted_post += accepted
        elif cfg.adapt and m == _ADAPT_WINDOW:
            if accepted == 0:
                warn_list.append(
                    f"(b, c, beta): no acceptances in adaptation window ending at iteration {hi}"
                )
            chol = _adapted_cholesky(chol, np.array([visited[4:] for visited in seg]), accepted)

    acceptance = accepted_post / (n_iter - burn_in)
    if acceptance < _LOW_ACCEPTANCE:
        warn_list.append(
            f"(b, c, beta): post-burn-in acceptance rate {acceptance:.3g} is below "
            f"{_LOW_ACCEPTANCE}: the chain is nearly stuck and its draws are no usable "
            "posterior sample"
        )
    (l00, _), (l10, l11) = chol.tolist()
    return McmcChain(
        draws=np.array(draws),
        log_post_trace=np.array(trace),
        iterations=np.arange(burn_in, n_iter, thin),
        acceptance_rates=np.full(3, acceptance),
        proposal_scales=np.array([math.nan, l00, math.hypot(l10, l11)]),
        warnings=warn_list,
    )


def _exp(u: float) -> float:
    """e^u as a float, inf beyond the float range (where math.exp raises)."""
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def _adapted_cholesky(chol: np.ndarray, window: np.ndarray, accepted: int) -> np.ndarray:
    """Cholesky factor of the next proposal covariance: 2.38^2 / 2 times
    the window's sample covariance, or 0.7 times the current factor when
    fewer than 2 moves were accepted or the covariance is singular; its
    standard deviations are clipped to [1e-3, 25]."""
    cov = chol @ chol.T * 0.49
    if accepted >= 2:
        sample = _ADAPT_SCALE * np.cov(window, rowvar=False)
        try:
            np.linalg.cholesky(sample)
            cov = sample
        except np.linalg.LinAlgError:
            pass
    sd = np.sqrt(np.diag(cov))
    ratio = np.clip(sd, 1e-3, 25.0) / sd
    return np.linalg.cholesky(cov * np.outer(ratio, ratio))


def summarize(chain: McmcChain) -> list[dict]:
    """Per-parameter posterior summary rows with the standard column set
    (Parameter, Mean, SD, 2.5%, Median, 97.5%)."""
    if len(chain) == 0:
        raise ValueError("cannot summarize an empty chain")
    rows = []
    for j, name in enumerate(_PARAM_NAMES):
        col = chain.draws[:, j]
        sd = float(np.std(col, ddof=1)) if len(col) > 1 else 0.0
        quantiles = np.quantile(col, (0.025, 0.5, 0.975)).tolist()
        rows.append(dict(zip(SUMMARY_COLUMNS, (name, float(np.mean(col)), sd, *quantiles))))
    return rows


def write_chain_csv(chain: McmcChain, path) -> None:
    """Export the chain as CSV with columns iter,b,c,beta,log_post."""
    columns = (chain.iterations.tolist(), *chain.draws.T.tolist(), chain.log_post_trace.tolist())
    _write_csv(path, ["iter", *_PARAM_NAMES, "log_post"], zip(*columns))

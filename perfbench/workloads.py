"""The four benchmark workloads: inputs, ops and per-op output checks.

Every workload is a closed loop with one client.  Inputs are generated
from the workload seed in ``setup``; ops only read them.  An op's
``check`` runs outside its timed interval and returns ``None`` when the
output is correct, or the reason it is not.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

from kumiw import bayes, cli, distribution, measures, mle, survdata
from kumiw.distribution import KumIwParams, SubModel

from harness import Op, normalized_seconds, pooled_ess

TRUTH = KumIwParams(2.0, 1.5, 3.0)
NULL_TRUTH = KumIwParams(1.0, 1.5, 3.0)

#: Criterion-8 fixture of the acceptance suite: 200 recovery + 200 LR replicates.
CRITERION8_REPLICATES = 400
#: Criterion-9 calibration fixture: 50 chains of 9000 iterations.
CRITERION9_ITERATIONS = 50 * 9000
#: Wall-clock bounds the acceptance suite puts on those fixtures.
CRITERION8_BOUND_S = 300.0
CRITERION9_BOUND_S = 600.0


def derive(seed: int, *key: int) -> int:
    """A 32-bit seed for input ``key`` of the workload seeded by ``seed``."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


class Workload:
    name = ""
    #: What one op does, stated with its size.
    op_size = ""
    #: The timed phase never stops before this many batches.
    min_batches = 0
    #: Batches run by the traced run; a fixed number so counts repeat.
    trace_batches = 1
    #: Keep op results for ``study`` (only where they are small).
    keep_results = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def batches(self):
        raise NotImplementedError

    def study(self, phase) -> dict:
        """Informational statistics of a timed phase; never gated on."""
        return {}

    def close(self) -> None:
        pass


# ------------------------------------------------------------------ mle-study

class MleStudy(Workload):
    """Criterion-8 fixture with fewer replicates.

    An op is two replicates of the fixture, each a recovery fit and an
    LR-size test on its own data set.  (Timed one call at a time, the
    ~40 ms calls leave a tail made of the machine's speed bursts rather
    than of the program.)  The data sets are the fixture's own (seeds
    30000 + i and 60000 + i, i < 200); the workload seed picks the
    replicate a run starts at, and a run covers most of the fixture.
    """

    name = "mle-study"
    REPLICATES_PER_OP = 2
    op_size = (f"{REPLICATES_PER_OP} replicates at n = 500 with 20% censoring, each a fit_mle "
               f"with Wald CIs at (2, 1.5, 3) and an lr_test vs IW at (1, 1.5, 3)")
    trace_batches = 5
    keep_results = True
    N = 500
    RATE = 0.2
    POOL = 200

    def setup(self) -> None:
        bound = survdata.censoring_upper_bound(TRUTH, self.RATE)
        null_bound = survdata.censoring_upper_bound(NULL_TRUTH, self.RATE)
        first = derive(self.seed, 1) % self.POOL
        order = [(first + i) % self.POOL for i in range(self.POOL)]
        self.recovery = [
            survdata.simulate_censored(TRUTH, self.N, self.RATE, 30_000 + i, upper_bound=bound)
            for i in order
        ]
        self.lr_data = [
            survdata.simulate_censored(NULL_TRUTH, self.N, self.RATE, 60_000 + i,
                                       upper_bound=null_bound)
            for i in order
        ]
        # the check's reference value, an input-derived constant
        self.truth_loglik = [mle.censored_loglik(TRUTH, d) for d in self.recovery]

    def batches(self):
        i = 0
        while True:
            reps = [(i + k) % self.POOL for k in range(self.REPLICATES_PER_OP)]
            yield [Op(
                "replicates",
                lambda reps=reps: [(mle.fit_mle(self.recovery[j]),
                                    mle.lr_test(self.lr_data[j], SubModel.IW)) for j in reps],
                lambda results, reps=reps: self._check(results, reps),
            )]
            i += self.REPLICATES_PER_OP

    def _check(self, results, reps):
        for (fit, lr), j in zip(results, reps):
            if not fit.converged:
                return f"fit did not converge: {fit.message}"
            if fit.ci is None:
                return "no Wald interval"
            if not fit.loglik >= self.truth_loglik[j]:
                return f"loglik {fit.loglik} below the truth's {self.truth_loglik[j]}"
            if not 0.0 <= lr.p_value <= 1.0:
                return f"p-value {lr.p_value} outside [0, 1]"
        return None

    def study(self, phase) -> dict:
        done = [rep for r in phase.records if r.error is None for rep in r.result][: self.POOL]
        fits = [fit for fit, _ in done]  # distinct replicates only
        truth = dict(zip(("b", "c", "beta"), TRUTH.as_array()))
        out = {"distinct_replicates": 2 * len(done)}
        if done:
            out["median_rel_error"] = {
                k: float(np.median([abs(getattr(f.params, k) - v) / v for f in fits]))
                for k, v in truth.items()
            }
            out["wald_coverage"] = {
                k: float(np.mean([f.ci[k][0] <= v <= f.ci[k][1] for f in fits]))
                for k, v in truth.items()
            }
            out["lr_size"] = float(np.mean([lr.p_value < 0.05 for _, lr in done]))
        out["scale_factor_vs_criterion8"] = out["distinct_replicates"] / CRITERION8_REPLICATES
        if phase.records:
            per_replicate = float(np.mean([r.seconds for r in phase.records])) / self.REPLICATES_PER_OP
            projected = 200 * per_replicate
            out["criterion8_projected_s"] = projected
            out["criterion8_headroom_s"] = CRITERION8_BOUND_S - projected
        return out


# ----------------------------------------------------------- mcmc-calibration

class McmcCalibration(Workload):
    """Criterion-9 calibration chains with fewer iterations.

    Chains come in groups of four on one uncensored n = 300 data set; each
    chain has its own seed, so each group's pooled ESS repeats exactly.
    """

    name = "mcmc-calibration"
    N = 300
    ITERATIONS = 1200
    BURN_IN = ITERATIONS // 3
    THIN = 2
    CHAINS = 4
    POOL = 16
    op_size = (f"one run_mcmc of {ITERATIONS} iterations (burn-in {BURN_IN}, thin {THIN}) "
               f"plus summarize, default PriorSpec, uncensored n = {N}")
    trace_batches = 2
    keep_results = True

    def setup(self) -> None:
        self.data = [
            survdata.simulate_censored(TRUTH, self.N, 0.0, derive(self.seed, 3, g))
            for g in range(self.POOL)
        ]
        self.prior = bayes.PriorSpec()

    def _config(self, group: int, chain: int) -> bayes.McmcConfig:
        return bayes.McmcConfig(
            n_iter=self.ITERATIONS, burn_in=self.BURN_IN, thin=self.THIN,
            seed=derive(self.seed, 4, group, chain),
        )

    def _op(self, d, cfg):
        chain = bayes.run_mcmc(d, self.prior, cfg)
        return chain, bayes.summarize(chain)

    def batches(self):
        g = 0
        while True:
            d = self.data[g % self.POOL]
            yield [
                Op("chain", lambda cfg=self._config(g, c), d=d: self._op(d, cfg), self._check)
                for c in range(self.CHAINS)
            ]
            g += 1

    @staticmethod
    def _check(result):
        chain, rows = result
        if len(chain) == 0 or not np.all(np.isfinite(chain.draws)) or not np.all(chain.draws > 0):
            return "draws not finite and positive"
        rates = chain.acceptance_rates
        if not np.all((rates > 0) & (rates < 1)):
            return f"acceptance rates {rates.tolist()} outside (0, 1)"
        if not all(math.isfinite(row[k]) for row in rows for k in bayes.SUMMARY_COLUMNS[1:]):
            return "summary not finite"
        return None

    def ess(self, phase):
        """(min over b, c, beta of the pooled ESS summed over complete groups,
        speed-normalised sampling seconds of those groups, draws in them)."""
        pairs = list(zip(phase.records, normalized_seconds(phase)))
        groups = [pairs[i:i + self.CHAINS] for i in range(0, len(pairs), self.CHAINS)]
        groups = [g for g in groups
                  if len(g) == self.CHAINS and all(r.error is None for r, _ in g)]
        if not groups:
            return 0.0, 0.0, 0
        totals = np.zeros(3)
        for g in groups:
            draws = np.stack([r.result[0].draws for r, _ in g])  # (chains, draws, 3)
            totals += [pooled_ess(draws[:, :, j]) for j in range(3)]
        seconds = sum(sec for g in groups for _, sec in g)
        n_draws = sum(len(r.result[0]) for g in groups for r, _ in g)
        return float(totals.min()), seconds, n_draws

    def study(self, phase) -> dict:
        ess, seconds, n_draws = self.ess(phase)
        chains = len(phase.records)
        out = {
            "chains": chains,
            "scale_factor_vs_criterion9": chains * self.ITERATIONS / CRITERION9_ITERATIONS,
            "min_ess": ess,
            "min_ess_per_s": ess / seconds if seconds else 0.0,
            "ess_per_draw_min": ess / n_draws if n_draws else 0.0,
        }
        if chains:
            per_iter = phase.busy_s() / (chains * self.ITERATIONS)
            projected = CRITERION9_ITERATIONS * per_iter
            out["criterion9_projected_s"] = projected
            out["criterion9_headroom_s"] = CRITERION9_BOUND_S - projected
        return out


# --------------------------------------------------------------- dist-measures

class DistMeasures(Workload):
    """A fixed grid of triples: evaluators on one large array, then the measures."""

    name = "dist-measures"
    POINTS = 50_000
    # integer b; fractional 1 < b < 1.5 (Euler-Maclaurin tail of the
    # weight series); b < 1.  The last has b*beta < 2, so moment k = 2
    # is undefined there.
    GRID = (
        (2.0, 1.5, 3.0), (3.0, 1.0, 4.0), (1.0, 2.0, 2.5), (4.0, 1.2, 3.5),
        (1.25, 0.8, 2.5), (1.3, 1.5, 3.0), (1.4, 1.0, 4.0), (1.1, 2.0, 5.0),
        (0.7, 1.0, 5.0), (0.5, 2.0, 6.0), (0.8, 1.5, 3.5), (0.6, 1.0, 3.0),
    )
    op_size = (f"one parameter triple: pdf/cdf/survival/hazard/quantile on {POINTS} points, "
               f"sample of {POINTS}, moments, mean deviations, Bonferroni/Lorenz at 3 "
               f"probabilities, Shannon and Renyi entropy, one order-statistic moment")
    trace_batches = len(GRID)
    #: Fixed, because the partial-moment series' length depends on them.
    PROBS = (0.25, 0.5, 0.75)

    def setup(self) -> None:
        rng = np.random.default_rng(derive(self.seed, 5))
        self.t = np.exp(rng.uniform(math.log(0.02), math.log(50.0), self.POINTS))
        self.u = np.clip(rng.random(self.POINTS), 1e-12, 1.0 - 1e-12)
        self.params = [KumIwParams(*triple) for triple in self.GRID]

    def _op(self, p, sample_seed):
        out = {
            "pdf": distribution.pdf(p, self.t),
            "cdf": distribution.cdf(p, self.t),
            "survival": distribution.survival(p, self.t),
            "hazard": distribution.hazard(p, self.t),
            "quantile": distribution.quantile(p, self.u),
            "sample": distribution.sample(p, self.POINTS, sample_seed),
            "moments": [measures.moment(p, k) for k in (1, 2)
                        if k < p.beta and measures.moment_exists(p, k)],
            "md_mean": measures.mean_deviation_about_mean(p),
            "md_median": measures.mean_deviation_about_median(p),
            "bonferroni": [measures.bonferroni(p, q) for q in self.PROBS],
            "lorenz": [measures.lorenz(p, q) for q in self.PROBS],
            "shannon": measures.shannon_entropy(p),
            "renyi": measures.renyi_entropy(p, 2.0),
            "order_stat": measures.order_stat_moment(p, 2, 5, 1),
        }
        return out

    def batches(self):
        i = 0
        while True:
            p = self.params[i % len(self.params)]
            yield [Op("triple", lambda p=p, s=derive(self.seed, 6, i): self._op(p, s),
                      lambda out, p=p: self._check(p, out))]
            i += 1

    def _check(self, p, out):
        if np.max(np.abs(out["cdf"] + out["survival"] - 1.0)) > 1e-12:
            return "cdf + survival differs from 1 by more than 1e-12"
        roundtrip = distribution.cdf(p, out["quantile"])
        if np.max(np.abs(roundtrip - self.u)) > 1e-10:
            return "|F(Q(u)) - u| above 1e-10"
        if not np.all(np.isfinite(out["hazard"])):
            return "hazard not finite"
        if not (np.all(np.isfinite(out["pdf"])) and np.all(out["pdf"] >= 0)):
            return "pdf not finite and non-negative"
        if not (np.all(np.isfinite(out["sample"])) and np.all(out["sample"] > 0)):
            return "sample not finite and positive"
        for q, b_val, l_val in zip(self.PROBS, out["bonferroni"], out["lorenz"]):
            if not math.isclose(l_val, q * b_val, rel_tol=1e-12):
                return f"lorenz({q}) != p * bonferroni({q})"
        scalars = out["moments"] + [out["md_mean"], out["md_median"], out["shannon"],
                                    out["renyi"], out["order_stat"]]
        if not all(math.isfinite(v) for v in scalars):
            return "a measure is not finite"
        if not all(v > 0 for v in out["moments"] + [out["md_mean"], out["md_median"]]):
            return "a moment or mean deviation is not positive"
        return None


# ---------------------------------------------------------------- cli-pipeline

_HEADERS = {
    "sample.csv": "time,status",
    "km.csv": "time,survival,at_risk,events",
    "compare.csv": "t,km_survival,model_survival",
    "qq.csv": "km_survival,model_survival",
    "dist.csv": "t,pdf,cdf,survival,hazard",
    "chain.csv": "iter,b,c,beta,log_post",
    "bayes_summary.csv": "Parameter,Mean,SD,2.5%,Median,97.5%",
}


class CliPipeline(Workload):
    """In-process ``kumiw`` CLI calls on 10^4-row files in a private directory."""

    name = "cli-pipeline"
    ROWS = 10_000
    BAYES_ITERATIONS = 300
    op_size = (f"one kumiw.cli.main call at {ROWS} rows; a pipeline is sample -> fit-mle "
               f"--lr-null iw -> km -> compare -> dist -> fit-bayes ({BAYES_ITERATIONS} iterations)")
    # the tail percentile needs >= 11 calls of the slowest subcommand
    min_batches = 12
    trace_batches = 2

    def setup(self) -> None:
        self.root = self.workdir / f"cli-{self.seed}"
        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)
        self.bytes_written = 0

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def batches(self):
        i = 0
        while True:
            yield self._pipeline(i)
            i += 1

    def _pipeline(self, i):
        seed = derive(self.seed, 7, i)
        base = self.root / f"p{i}"
        sample_csv = base / "sample" / "sample.csv"
        fit_json = base / "fit-mle" / "fit_mle.json"
        truth = ["--b", "2", "--c", "1.5", "--beta", "3"]
        steps = [
            ("sample", ["--n", str(self.ROWS), "--seed", str(seed), "--censor-rate", "0.2", *truth],
             ["sample.csv"]),
            ("fit-mle", ["--data", str(sample_csv), "--lr-null", "iw"], ["fit_mle.json"]),
            ("km", ["--data", str(sample_csv)], ["km.csv"]),
            ("compare", ["--data", str(sample_csv), "--fit-report", str(fit_json)],
             ["km.csv", "compare.csv", "qq.csv"]),
            ("dist", [*truth, "--t-min", "0.05", "--t-max", "8", "--points", str(self.ROWS)],
             ["dist.csv"]),
            ("fit-bayes", ["--data", str(sample_csv), "--iterations", str(self.BAYES_ITERATIONS),
                           "--burn-in", str(self.BAYES_ITERATIONS // 3), "--thin", "2",
                           "--seed", str(seed)],
             ["chain.csv", "bayes_summary.csv"]),
        ]
        ops = []
        for k, (cmd, args, files) in enumerate(steps):
            out_dir = base / cmd
            argv = [cmd, *args, "--out-dir", str(out_dir)]
            last = k == len(steps) - 1
            ops.append(Op(
                cmd,
                lambda argv=argv: cli.main(argv),
                lambda rc, cmd=cmd, out_dir=out_dir, files=files, last=last:
                    self._check(rc, cmd, out_dir, files, sample_csv, base if last else None),
            ))
        return ops

    def _check(self, rc, cmd, out_dir, files, sample_csv, cleanup):
        try:
            if rc != 0:
                return f"{cmd} exited with {rc}"
            for name in files:
                path = out_dir / name
                if name.endswith(".csv"):
                    with open(path, encoding="utf-8") as handle:
                        header = handle.readline().rstrip("\n")
                    if header != _HEADERS[name]:
                        return f"{name} header {header!r}"
                self.bytes_written += path.stat().st_size
            if cmd == "fit-mle":
                with open(out_dir / "fit_mle.json", encoding="utf-8") as handle:
                    report = json.load(handle)
                ref = mle.fit_mle(survdata.load_csv(sample_csv)).params
                want = {"b": ref.b, "c": ref.c, "beta": ref.beta}
                if report["estimates"] != want:
                    return f"fit_mle.json estimates {report['estimates']} != library {want}"
            return None
        finally:
            if cleanup is not None:
                shutil.rmtree(cleanup, ignore_errors=True)


WORKLOADS = {w.name: w for w in (MleStudy, McmcCalibration, DistMeasures, CliPipeline)}

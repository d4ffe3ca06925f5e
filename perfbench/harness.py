"""Closed-loop timing loop, latency statistics, the pooled ESS estimator
and machine information.

Imports only the standard library and numpy, so it can be tested
without the package under test.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

TAIL_MIN_BEYOND = 10

#: Nominal duration of one ``reference_kernel`` call.  Every end-to-end
#: time is scaled by REFERENCE_S / (median measured duration), so the
#: numbers read as times on a machine where the kernel takes exactly this
#: long.  The kernel is fixed benchmark code and does not touch the package,
#: so the scaling cancels the speed of the machine at the moment, not
#: changes to the program.
REFERENCE_S = 5e-4
#: Reference samples nearest to an op that set its slowness.
REFERENCE_NEAREST = 4
_REFERENCE_X = np.linspace(0.1, 5.0, 500)


def reference_kernel() -> float:
    """Fixed mix of interpreter work and small numpy calls, like the package's."""
    total = 0.0
    for i in range(3000):
        total += math.sqrt(i + 0.5) * 0.5
    for _ in range(30):
        total += float(np.log1p(np.exp(-_REFERENCE_X)).sum())
    return total


def time_reference(reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


def slowness(reference_samples) -> float:
    """How much slower than nominal the machine ran: median sample / REFERENCE_S."""
    return statistics.median(reference_samples) / REFERENCE_S


def normalized_seconds(phase) -> list[float]:
    """Each op's duration divided by the machine's slowness around it.

    A reference sample follows every op; an op's slowness is the median of
    the REFERENCE_NEAREST samples closest to its midpoint, so a run that
    spans slow and fast spells of the machine is corrected spell by spell.
    """
    times = [t for t, _ in phase.reference_s]
    half = REFERENCE_NEAREST // 2
    out = []
    for r in phase.records:
        mid = bisect.bisect_left(times, r.start + r.seconds / 2)
        lo = max(0, min(mid - half, len(times) - REFERENCE_NEAREST))
        window = phase.reference_s[lo:lo + REFERENCE_NEAREST]
        out.append(r.seconds / slowness([d for _, d in window]))
    return out


# ---------------------------------------------------------------- statistics

def tail_percentile(samples, min_beyond: int = TAIL_MIN_BEYOND):
    """Highest percentile that leaves at least ``min_beyond`` samples strictly above it.

    Returns ``(percentile, value, n)``.  The value is a sample (no
    interpolation); ``percentile`` is the share of samples at or below it,
    in percent.  Ties at the candidate value push the choice down until
    ``min_beyond`` samples lie strictly beyond.  Raises ``ValueError`` when
    fewer than ``min_beyond + 1`` samples exist.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= min_beyond:
        raise ValueError(f"need more than {min_beyond} samples for a tail, got {n}")
    k = n - min_beyond - 1
    while k > 0 and xs[k] == xs[k + 1]:
        k -= 1
    if xs[k] == xs[k + 1]:
        raise ValueError(f"fewer than {min_beyond} samples lie beyond every value")
    return 100.0 * (k + 1) / n, xs[k], n


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance at lags 0..n-1 via zero-padded FFT."""
    n = len(x)
    centred = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, size)
    return np.fft.irfft(spec * np.conj(spec), size)[:n] / n


def pooled_ess(chains) -> float:
    """Effective sample size of M chains of equal length N, pooled.

    Follows the multi-chain estimator of Vehtari, Gelman, Simpson,
    Carpenter and Buerkner (2021, Bayesian Analysis 16(2)): the combined
    autocorrelation ``rho_t = 1 - (W - mean_m acov_m(t)) / var_plus``
    summed over Geyer's initial monotone sequence of lag pairs.
    """
    x = np.asarray(chains, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    m, n = x.shape
    if n < 4:
        raise ValueError(f"need at least 4 draws per chain, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("chains contain non-finite draws")
    acov = np.array([_autocovariance(row) for row in x])
    within = float(np.mean(acov[:, 0])) * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += float(np.var(x.mean(axis=1), ddof=1))
    if var_plus <= 0:
        raise ValueError("chains are constant; ESS is undefined")
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    total = 0.0
    previous = math.inf
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0:
            break
        pair = min(pair, previous)
        total += pair
        previous = pair
    tau = max(-1.0 + 2.0 * total, 1.0 / math.log10(m * n))
    return m * n / tau


# ---------------------------------------------------------------- closed loop

@dataclass
class Op:
    """One operation of a workload.

    ``run`` is the timed call; ``check`` receives its result and returns
    ``None`` when the output is correct or a reason string otherwise.
    It runs outside the timed interval.
    """

    kind: str
    run: object
    check: object


@dataclass
class OpRecord:
    kind: str
    start: float
    seconds: float
    error: str | None
    result: object = field(default=None, repr=False)


@dataclass
class PhaseResult:
    records: list
    wall_s: float
    #: (start, seconds) of reference_kernel runs sampled between ops
    reference_s: list = field(default_factory=list)

    @property
    def ok_records(self) -> list:
        return [r for r in self.records if r.error is None]

    def busy_s(self) -> float:
        return sum(r.seconds for r in self.records)


def merge_phases(phases) -> PhaseResult:
    """One phase made of several run back to back."""
    return PhaseResult(
        [r for p in phases for r in p.records],
        sum(p.wall_s for p in phases),
        [x for p in phases for x in p.reference_s],
    )


def _quiet():
    """Swallow whatever the program prints, so the result line stays last."""
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack


def run_phase(batches, *, seconds=None, max_batches=None, min_batches=0,
              keep_results=False, recorder=None) -> PhaseResult:
    """Run batches of ops back to back with one client (a closed loop).

    Stops at a batch boundary once ``seconds`` have passed and at least
    ``min_batches`` batches are done, or after ``max_batches`` batches.
    Each op is timed alone; its output check runs afterwards.  With a
    span ``recorder``, each op gets a root span ``op.<kind>`` and checks
    run with recording paused.  After every op, ``reference_kernel`` is
    timed once (untraced) to track the machine's speed.
    """
    records: list[OpRecord] = []
    reference: list[tuple[float, float]] = []
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else math.inf
    done = 0
    for batch in batches:
        for op in batch:
            error = None
            result = None
            if recorder is not None:
                recorder.op_id += 1
            span = recorder.span(f"op.{op.kind}") if recorder else contextlib.nullcontext()
            with _quiet():
                t0 = time.perf_counter()
                try:
                    with span:
                        result = op.run()
                except Exception as exc:  # an op that raises is a failed op
                    error = f"raised {type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            if error is None:
                with recorder.paused() if recorder else contextlib.nullcontext():
                    try:
                        error = op.check(result)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
            records.append(OpRecord(op.kind, t0, t1 - t0, error, result if keep_results else None))
            reference.append((time.perf_counter(), time_reference(1)[0]))
        done += 1
        if max_batches is not None and done >= max_batches:
            break
        if time.perf_counter() >= deadline and done >= min_batches:
            break
    return PhaseResult(records, time.perf_counter() - start, reference)


# ---------------------------------------------------------------- environment

def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(blas_vars) -> dict:
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
    }

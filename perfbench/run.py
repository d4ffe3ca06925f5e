"""Benchmark of the kumiw package: four closed-loop workloads, one client.

    python3 perfbench/run.py --workload mle-study --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run over a fixed number of ops (and the tracing
overhead against the same ops untraced).  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine, seed, scale factors, study statistics) goes to
``.perfbench_out/results/``, and the spans of a traced run to
``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("mle-study", "mcmc-calibration", "dist-measures", "cli-pipeline")
#: Environment variables that pin BLAS/OpenMP pools to one thread.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Set-up runs per benchmark run (this process plus fresh interpreters).
SETUP_RUNS = 3
#: Reference-kernel samples taken right after each set-up.
SETUP_REFERENCE_REPS = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="kumiw benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print the seconds")
    return parser.parse_args(argv)


def timed_setup(name: str, seed: int):
    """Import the package and generate the workload's inputs.

    Returns (workload, seconds, slowness) where slowness is the machine's
    speed right after, from the reference kernel.  Must run before
    anything imports numpy, so that the import is timed.
    """
    t0 = time.perf_counter()
    import kumiw  # noqa: F401  (imports numpy and scipy)
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, OUT / "tmp")
    workload.setup()
    seconds = time.perf_counter() - t0
    from harness import slowness, time_reference

    return workload, seconds, slowness(time_reference(SETUP_REFERENCE_REPS))


def setup_in_fresh_interpreter(name: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, slow = proc.stdout.split()
    return float(seconds), float(slow)


def latency_metrics(phase) -> tuple[dict, dict]:
    """Speed-normalised end-to-end op metrics, and the raw figures behind them."""
    from harness import normalized_seconds, slowness, tail_percentile

    def figures(seconds):
        ms = [v * 1e3 for v in seconds]
        pct, tail, n = tail_percentile(ms)
        return {
            "throughput_ops_per_s": len(ms) / (sum(ms) / 1e3),
            "op_p50_ms": statistics.median(ms),
            "op_tail_ms": tail,
        }, (pct, n, sum(v > tail for v in ms))

    ok = [r.error is None for r in phase.records]
    normalized = [v for v, good in zip(normalized_seconds(phase), ok) if good]
    metrics, (pct, n, beyond) = figures(normalized)
    raw, _ = figures([r.seconds for r in phase.ok_records])
    return metrics, {"tail_percentile": pct, "tail_samples": n, "samples_beyond_tail": beyond,
                     "slowness": slowness([d for _, d in phase.reference_s]),
                     "reference_samples": len(phase.reference_s), "raw": raw}


def by_kind(phase) -> dict:
    from harness import quartiles

    kinds: dict[str, list[float]] = {}
    for r in phase.records:
        kinds.setdefault(r.kind, []).append(r.seconds * 1e3)
    out = {}
    for kind, values in kinds.items():
        q1, q2, q3 = quartiles(values)
        out[kind] = {"n": len(values), "p25_ms": q1, "p50_ms": q2, "p75_ms": q3}
    return out


def run_untraced(workload, seconds: float):
    from harness import run_phase

    return run_phase(workload.batches(), seconds=seconds, min_batches=workload.min_batches,
                     keep_results=workload.keep_results)


def run_traced(name: str, seed: int):
    """Traced set-up, then an untraced and a traced pass over the same fixed ops.

    Returns (workload, untraced phase, traced phase, recorder, per-layer metrics).
    """
    import kumiw  # noqa: F401  (the wrappers patch its modules)
    from harness import merge_phases, run_phase
    from layers import alloc_peak_per_point, layer_metrics
    from tracing import SpanRecorder, instrumented
    from workloads import WORKLOADS

    rec = SpanRecorder()
    workload = WORKLOADS[name](seed, OUT / "tmp")
    with instrumented(rec):
        workload.setup()
    # each batch runs untraced and then traced, so both passes see the
    # machine in the same state
    untraced, traced = [], []
    traced_bytes = 0
    for batch in itertools.islice(workload.batches(), workload.trace_batches):
        untraced.append(run_phase([batch], keep_results=workload.keep_results))
        before = getattr(workload, "bytes_written", 0)
        with instrumented(rec):
            traced.append(run_phase([batch], keep_results=workload.keep_results, recorder=rec))
        traced_bytes += getattr(workload, "bytes_written", 0) - before
    untraced, traced = merge_phases(untraced), merge_phases(traced)
    extras = {"bytes_written": traced_bytes,
              "alloc_per_point": alloc_peak_per_point(rec.first_args),
              "untraced": untraced}
    if name == "mcmc-calibration":
        chains = [r.result[0] for r in traced.ok_records]
        ess, _, draws = workload.ess(traced)
        extras.update(chains=chains, ess=(ess, draws),
                      ess_per_s=workload.study(untraced)["min_ess_per_s"])
    metrics = layer_metrics(rec, traced, **extras)
    return workload, untraced, traced, rec, metrics


def write_spans(rec, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,name,start_ns,end_ns,parent,op\n")
        for row in rec.to_rows():
            handle.write(",".join(str(v) for v in row) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kumiw" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        workload, seconds, slow = timed_setup(args.workload, args.seed)
        workload.close()
        print(repr(seconds), repr(slow))
        return 0

    if args.trace:
        workload, untraced, traced, rec, metrics = run_traced(args.workload, args.seed)
    else:
        workload, first_setup_s, first_slow = timed_setup(args.workload, args.seed)
        # the input pool lives for the whole run; keep the collector from
        # rescanning it during ops
        gc.collect()
        gc.freeze()
    try:
        from harness import machine_info, peak_rss_mb

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "op_size": workload.op_size,
            "closed_loop_clients": 1,
        }
        if args.trace:
            records = untraced.records + traced.records
            write_spans(rec, OUT / "spans" / f"{args.workload}-seed{args.seed}.csv")
            record["spans"] = len(rec)
            record["traced_ops"] = len(traced.records)
            from layers import PER_LAYER

            units = dict(PER_LAYER)
        else:
            phase = run_untraced(workload, args.seconds)
            records = phase.records
            metrics, tail_info = latency_metrics(phase)
            metrics["peak_rss_mb"] = peak_rss_mb()
            setup_runs = [(first_setup_s, first_slow)] + [
                setup_in_fresh_interpreter(args.workload, args.seed)
                for _ in range(SETUP_RUNS - 1)
            ]
            metrics["setup_s"] = statistics.median(sec / slow for sec, slow in setup_runs)
            tail_info["raw"]["setup_s"] = statistics.median(sec for sec, _ in setup_runs)
            record.update(tail_info)
            record["setup_runs"] = [{"seconds": sec, "slowness": slow} for sec, slow in setup_runs]
            record["timed_wall_s"] = phase.wall_s
            record["by_kind"] = by_kind(phase)
            record["study"] = workload.study(phase)
            units = END_TO_END_UNITS
    finally:
        workload.close()

    failed = sum(r.error is not None for r in records)
    record.update(
        machine=machine_info(BLAS_THREAD_VARS),
        attempted=len(records),
        failed=failed,
        failed_ops_ratio=failed / len(records),
        failures=[f"{r.kind}: {r.error}" for r in records if r.error is not None][:20],
        metrics={k: {"value": metrics[k], "unit": units[k]} for k in units},
    )
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=float)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"op: {workload.op_size}")
    m = record["machine"]
    print(f"machine: nproc {m['nproc']}, {m['cpu_model']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, BLAS/OpenMP threads pinned to 1")
    for key in ("tail_percentile", "tail_samples", "slowness", "raw", "traced_ops", "spans"):
        if key in record:
            print(f"  {key} = {record[key]}")
    for key, value in record.get("study", {}).items():
        print(f"  study {key} = {value}")
    for name, entry in record["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"  failed_ops_ratio = {record['failed_ops_ratio']:.6g} "
          f"({failed} of {len(records)} ops)")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

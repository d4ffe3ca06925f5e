"""Median and IQR of every metric over the result records of several runs.

    python3 perfbench/summarize.py [results_dir]

Reads the records ``run.py`` leaves in ``.perfbench_out/results/``,
groups them by workload and trace mode, prints one line per metric
(median, quartiles, IQR as a share of the median, runs, seeds) and
writes the table to ``.perfbench_out/summary.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"


def summarize(records) -> dict:
    groups: dict[tuple, list] = {}
    for rec in records:
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    table = {}
    for (workload, trace), recs in sorted(groups.items()):
        rows = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            if len(values) > 1:
                q1, med, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
            else:
                q1 = med = q3 = values[0]
            rows[name] = {
                "unit": recs[0]["metrics"][name]["unit"],
                "median": med, "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / med if med else 0.0,
            }
        table[f"{workload}/trace{trace}"] = {
            "runs": len(recs),
            "seeds": sorted(r["seed"] for r in recs),
            "failed_ops": sum(r["failed"] for r in recs),
            "attempted_ops": sum(r["attempted"] for r in recs),
            "machine": recs[0]["machine"],
            "metrics": rows,
        }
    return table


def main(argv) -> int:
    results = Path(argv[0]) if argv else OUT / "results"
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(results.glob("*.json"))]
    if not records:
        print(f"no result records in {results}", file=sys.stderr)
        return 1
    table = summarize(records)
    for key, group in table.items():
        print(f"{key}: {group['runs']} runs, seeds {group['seeds']}, "
              f"failed {group['failed_ops']} of {group['attempted_ops']} ops")
        for name, row in group["metrics"].items():
            print(f"  {name:45s} median {row['median']:.6g} {row['unit']}  "
                  f"IQR [{row['q1']:.6g}, {row['q3']:.6g}]  spread {row['iqr_share']:.3f}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(table, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

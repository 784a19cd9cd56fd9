"""Pool benchmark results by workload and print every metric with its unit.

Usage (from the repository root):

    python3 perfbench/report.py [RESULT_DIR ...]

Without arguments it reads every perfbench/out/*/result.json.  For each
workload and trace mode it prints, per metric: the number of runs, the
median of the per-run values, their quartile spread as a share of the
median (the figure compared with the bounds in BENCHMARK.json), and, for
the end-to-end timings, the median and the highest percentile with at
least ten pooled samples beyond it, with the pooled sample count.
"""

import json
import statistics
import sys
from pathlib import Path

from run import OUT_DIR, tail, unit_of


def main(argv) -> int:
    dirs = [Path(a) for a in argv] or sorted(p.parent for p in OUT_DIR.glob("*/result.json"))
    groups: dict[tuple[str, bool], list[dict]] = {}
    for d in dirs:
        record = json.loads((d / "result.json").read_text())
        if record.get("metrics"):
            groups.setdefault((record["workload"], record["trace"]), []).append(record)
    for (workload, trace), records in sorted(groups.items()):
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        seeds = sorted({r["seed"] for r in records})
        print(f"\n{workload} trace={int(trace)}: {len(records)} runs, seeds {seeds}, "
              f"failed {failed}/{attempted}")
        print(f"  {'metric':44} {'unit':8} {'runs':>4} {'median':>12} {'spread':>7}  pooled samples")
        for name in records[0]["metrics"]:
            values = [r["metrics"][name] for r in records]
            med = statistics.median(values)
            spread = ""
            if len(values) >= 2 and med:
                q = statistics.quantiles(values, n=4)
                spread = f"{(q[2] - q[0]) / abs(med):.3f}"
            pooled = ""
            if name in records[0].get("samples", {}) and not trace:
                t = tail(x for r in records for x in r["samples"][name])
                pooled = "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in t.items())
            print(f"  {name:44} {unit_of(name):8} {len(values):4d} {med:12.6g} {spread:>7}  {pooled}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

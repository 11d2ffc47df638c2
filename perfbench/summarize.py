"""Summarize the run records in .perfbench_out/ per workload and metric.

    python3 perfbench/summarize.py [--json OUT]

For every workload with records, untraced (end-to-end metrics) and traced
(per-layer metrics), prints each metric's median, first and third
quartile, spread ((Q3 - Q1) / median, as statistics.quantiles gives the
quartiles) and the number of runs (one record per seed).  With --json
the same figures, plus the seeds and environment stamps, are written to
OUT.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    out = {}
    for w in spec["workloads"]:
        records = [json.loads(p.read_text()) for p in sorted(
            (ROOT / ".perfbench_out").glob(f"{w['name']}-seed*-trace{trace}.json"))]
        if not records:
            continue
        metrics = {}
        for name in names:
            values = [r["metrics"][name] for r in records]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else (med, med, med)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None}
        out[w["name"]] = {
            "runs": len(records),
            "seeds": [r["env"]["seed"] for r in records],
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "env": records[0]["env"] | {"seed": None},
            "metrics": metrics}
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--json")
    args = p.parse_args()
    summary = {"end_to_end": summarize(0), "per_layer": summarize(1)}
    for section, workloads in summary.items():
        for w, s in workloads.items():
            print(f"{section} {w}: {s['runs']} runs, "
                  f"{s['failed']}/{s['attempted']} units failed")
            for name, m in s["metrics"].items():
                spread = "-" if m["spread"] is None \
                    else f"{100 * m['spread']:.1f}%"
                print(f"  {name:<36} median {m['median']:<12.6g} "
                      f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} "
                      f"spread {spread}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()

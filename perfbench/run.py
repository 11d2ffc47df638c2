"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the last stdout line is a JSON
object holding every end-to-end metric of BENCHMARK.json; with
``--trace 1`` the program's layers are wrapped with spans and the line
holds every per-layer metric instead.  A record of the run (environment
stamp, metrics, failures and, when traced, every span) is written to
``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# pinned before numpy is imported: one BLAS thread (never more than the
# machine has) keeps timings and floating-point results repeatable
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import ahgnn from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ahgnn
    where = Path(ahgnn.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"ahgnn was imported from {where}, not from {src}")
    return ahgnn


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_program()
    except (OSError, ValueError, ImportError) as e:
        print(f"perfbench: cannot start: {e}", file=sys.stderr)
        return 2
    import measure  # imports numpy, so only after the BLAS pin

    if args.workload not in measure.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(measure.WORKLOADS)}", file=sys.stderr)
        return 2
    section = spec["per_layer" if args.trace else "end_to_end"]
    record = measure.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), ROOT)
    values = record["metrics"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for msg in record["errors"]:
        print(f"  FAILED: {msg}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

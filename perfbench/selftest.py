"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a source checkout.  It checks that:

- every workload (or the ones named) prints, untraced and traced, a last
  line with exactly the metrics of BENCHMARK.json, each with its unit,
  and passes its own correctness checks;
- two traced runs of one seed report the same counts;
- the correctness checks trip on a corrupted cache byte, a wrong
  homophily value, an off-target synthetic graph and a CLI command that
  fails in the child process that measures peak memory, and stay quiet
  on the intact outputs;
- without the program's sources, the benchmark exits non-zero and
  prints no result.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, import_program

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        PROBLEMS.append(what)


def bench(workload: str, trace: int, cwd: Path) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def check_output(workload: str, trace: int, cwd: Path) -> dict:
    code, out = bench(workload, trace, cwd)
    tag = f"{workload} trace={trace}"
    expect(code == 0, f"{tag}: exit code 0")
    try:
        last = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        expect(False, f"{tag}: last stdout line is JSON")
        return {}
    expect(set(last) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result has exactly correct/attempted/failed/metrics")
    expect(last.get("correct") is True and last.get("failed") == 0,
           f"{tag}: every correctness check passed")
    section = SPEC["per_layer" if trace else "end_to_end"]
    metrics = last.get("metrics", {})
    expect(list(metrics) == [m["name"] for m in section],
           f"{tag}: prints every metric of BENCHMARK.json, and only those")
    for m in section:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        expect(got.get("unit") == m["unit"]
               and isinstance(value, (int, float)) and math.isfinite(value),
               f"{tag}: {m['name']} = {value} {got.get('unit')}")
    return metrics


def count_metrics(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "bytes")}


def corruption_checks(scratch: Path) -> None:
    from checks import check_cache, check_report, check_synth
    from ahgnn import cli, metapath, propagate, synth
    from ahgnn.graph import load_dataset, save_dataset

    data = scratch / "data"
    g = synth.generate_toy(synth.ToySpec(n_target=40, n_aux=12, seed=0))
    save_dataset(g, data)
    g = load_dataset(data)

    path = scratch / "cache.ahgc"
    built = propagate.build_cache(g, 2, 2)
    propagate.write_cache(built, path)
    expect(check_cache(propagate.read_cache(path), built) is None,
           "intact cache passes the cache check")
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x40  # a byte inside the last stored float64
    path.write_bytes(bytes(raw))
    expect(check_cache(propagate.read_cache(path), built) is not None,
           "a corrupted cache byte trips the cache check")

    out = scratch / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch(["analyze", "--data", str(data), "--out", str(out)])
    h = metapath.graph_homophily(g, 4)
    report = out / "homophily_report.csv"
    expect(code == 0 and check_report(report, h) is None,
           "the analyze report passes the homophily check")
    expect(check_report(report, h + 1e-6) is not None,
           "a wrong homophily value trips the homophily check")

    from measure import _cli_children
    from tracer import Tracer
    from workloads import TINY_WORKLOAD, Pipeline
    pipe = Pipeline(TINY_WORKLOAD, scratch / "missing", Tracer(), [], [])
    _cli_children(pipe, 0, ROOT)
    expect(len(pipe.errors) == len(("analyze", "precompute", "eval")),
           "a CLI command that fails in its child process is reported")

    expect(check_synth(0.70, 0.70, 0.03, True) is None,
           "an on-target graph passes the synth check")
    expect(check_synth(0.75, 0.70, 0.03, True) is not None
           and check_synth(0.70, 0.70, 0.03, False) is not None,
           "an off-target or unconverged graph trips the synth check")


def main(argv: list[str]) -> int:
    workloads = argv or [w["name"] for w in SPEC["workloads"]]
    import_program()
    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch_root))
    try:
        print("correctness checks trip on broken outputs:")
        corruption_checks(scratch)

        print("without the program's sources the benchmark fails:")
        # runs go to a copy of the checkout, so that their records do not
        # overwrite those of real runs in .perfbench_out/
        checkout = scratch / "checkout"
        checkout.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", checkout)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, checkout / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, out = bench(workloads[0], 0, checkout)
        expect(code != 0 and '"metrics"' not in out,
               f"exit code {code} and no result line")
        shutil.copytree(ROOT / "src", checkout / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))

        repeat = "train_gate" if "train_gate" in workloads else workloads[0]
        for w in workloads:
            print(f"{w}:")
            check_output(w, 0, checkout)
            counts = count_metrics(check_output(w, 1, checkout))
            if w == repeat:
                again = count_metrics(check_output(w, 1, checkout))
                expect(counts == again and bool(counts),
                       f"{w}: counts repeat exactly across two traced runs")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    print("selftest: " + ("PASS" if not PROBLEMS else
                          f"FAIL ({len(PROBLEMS)} problems)"))
    return 0 if not PROBLEMS else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

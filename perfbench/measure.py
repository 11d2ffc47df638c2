"""One benchmark run: set-up repetitions, the timed loop, the figures.

A run sets up ``setup_reps`` times and reports the median as
``setup_s``.  Each repetition first warms every code path on a tiny
graph, then runs the workload's set-up stages on dataset
``r mod setup_datasets`` of the seed.  The run then makes operations back
to back until they have taken ``seconds``.  Operation k works on dataset
k mod ``op_datasets``, and there are at least ``min_ops`` of them, more
than ``op_datasets``, so every operation dataset is used and one is
repeated, which the checks compare.  What the operations compute is thus fixed by the seed,
not by how many of them the host's speed lets fit.  The set-ups that
make the operation datasets come before the first operation; the others
are spread over the loop.  Every set-up repetition and every operation
is checked and counted in ``attempted``/``failed``.  Peak memory is
taken from the CLI commands run once more, each in a process of its own.

A traced run wraps the layers before set-up, runs the same loop, and
afterwards replays the last operation untraced to measure what tracing
costs.
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import layers
from tracer import Stats, Tracer
from workloads import (CLI_ROUND, TINY_SEED, TINY_WORKLOAD, WORKLOADS,
                       Pipeline, data_seed)

__all__ = ["WORKLOADS", "run"]


def _git_rev(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "git_rev": _git_rev(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class _Units:
    """Runs set-up repetitions and operations, counting attempts and failures."""

    def __init__(self, pipes: list[Pipeline]):
        self.pipes = pipes
        self.attempted = 0
        self.failed = 0

    def run(self, body) -> float:
        """Wall seconds of body(), excluding the time its checks took."""
        errors = sum(len(p.errors) for p in self.pipes)
        checks = sum(p.check_s for p in self.pipes)
        t0 = time.perf_counter()
        body()
        wall = time.perf_counter() - t0
        self.attempted += 1
        if sum(len(p.errors) for p in self.pipes) > errors:
            self.failed += 1
        return wall - (sum(p.check_s for p in self.pipes) - checks)


# a CLI command of the scaling fixture takes about 2 s
CHILD_TIMEOUT_S = 60


def _cli_children(pipe: Pipeline, dseed: int, root: Path) -> float:
    """Peak MB over the CLI round on `dseed`, each command in its own process.

    That is the memory a user of ``ahgnn analyze``, ``precompute`` and
    ``eval`` sees, without the benchmark's own references and the set-up
    stages that run in-process.
    """
    pipe.use(dseed)
    peak_kb = 0
    for stage in CLI_ROUND:
        argv = pipe.argv(stage)
        try:
            proc = subprocess.run(
                [sys.executable, str(root / "perfbench" / "cli_child.py"),
                 str(root / "src"), *argv],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:   # run() has killed and reaped it
            pipe.errors.append(f"`ahgnn {argv[0]}` in a child process took "
                               f"more than {CHILD_TIMEOUT_S} s")
            continue
        lines = proc.stderr.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].isdigit():
            pipe.errors.append(f"`ahgnn {argv[0]}` in a child process exited "
                               f"{proc.returncode}: {proc.stderr.strip()[-200:]}")
            continue
        peak_kb = max(peak_kb, int(lines[-1]))
    return peak_kb / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    wl = WORKLOADS[name]
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    tracer = Tracer()
    rewires: list = []
    steps: list = []

    def observe() -> None:
        # the untraced run's only hooks: one per graph, one per epoch
        tracer.observe("ahgnn.synth.rewire_to_homophily", rewires.append)
        tracer.observe("ahgnn.train.Adam.step",
                       lambda _: steps.append(time.perf_counter()))

    try:
        observe()
        if trace:
            layers.install(tracer)
        pipe = Pipeline(wl, workdir / "main", tracer, rewires, steps)
        warm = Pipeline(TINY_WORKLOAD, workdir / "warm", tracer, rewires, steps)
        units = _Units([pipe, warm])

        op_seeds = [data_seed(seed, k) for k in range(wl.op_datasets)]

        def unit(label: str, stages, dseed: int):
            def body():
                tracer.op = pipe.unit = label
                pipe.inputs[label] = dseed
                for stage in stages:
                    pipe.run(stage, dseed)
            return body

        def setup(r: int):
            def body():
                tracer.op = warm.unit = "warmup"
                for stage in TINY_WORKLOAD.op:
                    warm.run(stage, TINY_SEED)
                if wl.setup:
                    unit(f"setup-{r}", wl.setup,
                         data_seed(seed, r % wl.setup_datasets))()
            return body

        # the other set-up repetitions are spread over the timed loop, so
        # that setup_s samples the same stretch of time as the operations
        setup_walls = [units.run(setup(r)) for r in range(wl.op_datasets)]
        op_walls: list[float] = []
        while len(op_walls) < wl.min_ops or sum(op_walls) < seconds:
            while len(setup_walls) < wl.setup_reps and \
                    sum(op_walls) >= len(setup_walls) * seconds / wl.setup_reps:
                setup_walls.append(units.run(setup(len(setup_walls))))
            op_walls.append(units.run(
                unit(f"op-{len(op_walls)}", wl.op_stages,
                     op_seeds[len(op_walls) % wl.op_datasets])))
        while len(setup_walls) < wl.setup_reps:
            setup_walls.append(units.run(setup(len(setup_walls))))

        metrics = {
            "setup_s": statistics.median(setup_walls),
            "synth_s": pipe.figure("synth"),
            "train_epoch_ms": pipe.figure("epoch_ms"),
            "test_micro_f1": statistics.fmean(pipe.f1[d] for d in op_seeds),
            "analyze_s": pipe.figure("analyze"),
            "precompute_s": pipe.figure("precompute"),
            "eval_s": pipe.figure("eval"),
        }

        spans = []
        if trace:
            stats = Stats(tracer.spans)
            metrics.update(layers.metrics(stats))
            for msg in layers.count_mismatches(stats, pipe.inputs):
                pipe.errors.append(msg)
                units.failed = min(units.attempted, units.failed + 1)
            spans = [s.as_dict() for s in tracer.spans]
            tracer.uninstall()
            observe()
            # the last operation again, untraced: what tracing cost (both
            # warm, and next to each other in time)
            last = op_seeds[(len(op_walls) - 1) % wl.op_datasets]
            untraced = units.run(unit("replay", wl.op_stages, last))
            metrics["trace.overhead_pct"] = 100.0 * (op_walls[-1] / untraced - 1.0)
            with tracer.suspended():
                g = pipe._loaded()
                metrics["propagate.build_cache_t2.ms"] = layers.build_cache_ms(
                    g, wl.l1, wl.l2, threads=2)
                metrics["propagate.cache_bytes"] = pipe.cache.stat().st_size
                metrics.update(layers.cache_shape(pipe.cache))
        else:
            peak: list[float] = []
            units.run(lambda: peak.append(_cli_children(pipe, op_seeds[0], root)))
            metrics["peak_rss_mb"] = peak[0]
        metrics["pass_ratio"] = (units.attempted - units.failed) / units.attempted
        return {
            "workload": name, "seconds": seconds,
            "trace": trace, "env": environment(root, seed),
            "attempted": units.attempted, "failed": units.failed,
            "errors": pipe.errors + warm.errors,
            "setup_walls_s": setup_walls, "op_walls_s": op_walls,
            "samples": pipe.samples, "metrics": metrics,
            "argv": sys.argv, "spans": spans,
        }
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

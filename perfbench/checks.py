"""Correctness checks the benchmark applies to the program's outputs.

Each check returns None when the output is right and a one-line message
when it is not; an operation with any message counts as failed.  They
are plain functions of the outputs so that the self-test can feed them
deliberately broken inputs.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np


def check_synth(achieved: float, target: float, tolerance: float,
                converged: bool | None) -> str | None:
    """The recomputed homophily lies within tolerance and the rewirer converged."""
    if converged is None:
        return "the rewirer was never called"
    if not converged:
        return f"rewirer did not converge toward h={target}"
    if not abs(achieved - target) <= tolerance:
        return (f"recomputed homophily {achieved:.6f} is off target {target} "
                f"by more than {tolerance}")
    return None


def check_report(report_csv: Path, expected: float) -> str | None:
    """The analyze report's graph-level row equals a standalone graph_homophily."""
    with open(report_csv, newline="") as f:
        rows = {r[0]: r for r in csv.reader(f) if r}
    if "graph_level" not in rows:
        return f"{report_csv.name} has no graph_level row"
    got = rows["graph_level"][1]
    want = f"{expected:.10g}"  # the precision the report is written with
    if got != want:
        return f"report graph-level homophily {got} != standalone {want}"
    return None


def _entries(cache) -> list[tuple[str, int, np.ndarray]]:
    out = []
    for kind, entries in (("f", cache.feature_entries), ("l", cache.label_entries)):
        for key in sorted(entries):
            out += [(f"{kind}:{key}", i, h) for i, h in enumerate(entries[key])]
    return out


def check_cache(read_back, built) -> str | None:
    """Arrays read back from the cache file equal the ones built in memory."""
    got, want = _entries(read_back), _entries(built)
    if [(k, i) for k, i, _ in got] != [(k, i) for k, i, _ in want]:
        return "cache file holds a different path/hop set than was built"
    for (key, hop, a), (_, _, b) in zip(got, want):
        if a.shape != b.shape or not np.array_equal(a, b):
            return f"cache entry {key} hop {hop} differs from the built array"
    return None


def check_same(name: str, first, now) -> str | None:
    """A value that must repeat exactly across repetitions of one input."""
    if isinstance(first, np.ndarray):
        same = first.shape == now.shape and np.array_equal(first, now)
    else:
        same = first == now
    return None if same else f"{name} changed between repetitions"


def check_training(losses: list[float], rejected: list[int], diverged: bool,
                   epochs: int, budget: int) -> str | None:
    """Finite loss, no rejected step, and exactly the epoch budget run."""
    if diverged or not all(math.isfinite(x) for x in losses):
        return "training loss went non-finite"
    if rejected:
        return f"optimizer rejected steps at epochs {rejected[:5]}"
    if epochs != budget:
        return f"training ran {epochs} epochs, budget is {budget}"
    return None


def check_chunked(full: np.ndarray, chunked: np.ndarray,
                  atol: float = 1e-6) -> str | None:
    """Full-batch logits equal row-chunked logits (the model is row-independent).

    Equal up to `atol`, the batch-size tolerance the fusion acceptance
    gate pins for float32: BLAS may round a row differently when the
    matrix it sits in has another row count.
    """
    if full.shape != chunked.shape:
        return f"chunked logits have shape {chunked.shape}, full {full.shape}"
    worst = float(np.max(np.abs(full - chunked)))
    if not worst <= atol:
        return f"chunked logits differ from full-batch logits by {worst:.3g}"
    return None

"""Numeric verification that initialized hop weights act as a low-pass filter.

The symmetric degree-normalized adjacency of a connected graph has top
eigenvalue exactly 1; a hop-weight vector gamma defines the polynomial
response beta(lam) = sum_l gamma_l lam^l, and with the decaying-convex
initialization every non-top eigenvalue is strictly damped.  This module
checks both claims numerically on the normalization that propagation
uses (`sparse.normalize_relation`), with numpy's dense symmetric
eigensolver (up to MAX_DENSE_NODES nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import SparseMatrix, normalize_relation

MAX_DENSE_NODES = 500
# verify_lowpass: the top eigenvalue must be 1 within TOP_TOL, and every
# other |response| below 1 - STRICT_MARGIN
TOP_TOL = 1e-8
STRICT_MARGIN = 1e-10


def spectrum(adj: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the normalized dense adjacency `adj`.

    The matrix is the one `sparse.normalize_relation` builds for
    propagation, densified and handed to numpy's symmetric eigensolver.
    """
    a = np.asarray(adj, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    if a.shape[0] > MAX_DENSE_NODES:
        raise ValueError(f"dense spectral path caps at {MAX_DENSE_NODES} nodes")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("adjacency must be non-negative and finite")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric")
    norm = normalize_relation(SparseMatrix.from_dense(a)).to_dense()
    return np.linalg.eigvalsh(norm)[::-1]


def filter_response(gamma: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Polynomial response sum_l gamma_l lam^l at each eigenvalue."""
    gamma = np.asarray(gamma, dtype=np.float64)
    return np.polyval(gamma[::-1], np.asarray(eigenvalues, dtype=np.float64))


@dataclass
class LowpassReport:
    """Outcome of the spectral low-pass check on one graph."""

    eigenvalues: np.ndarray
    response: np.ndarray
    top_eigenvalue: float
    second_eigenvalue: float
    connected: bool
    worst_response: float
    margin: float
    passed: bool

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        extra = "" if self.connected else " (disconnected input: precondition violated)"
        return (f"{state}: top eigenvalue {self.top_eigenvalue:.12f}, "
                f"second {self.second_eigenvalue:.6f}, worst |response| "
                f"{self.worst_response:.6f}, margin {self.margin:.3e}{extra}")


def verify_lowpass(gamma: np.ndarray, adj: np.ndarray) -> LowpassReport:
    """Check the low-pass property of `gamma` on one graph's spectrum.

    Passing means: top eigenvalue equals 1 within TOP_TOL, and every
    other eigenvalue's |response| stays below 1 - STRICT_MARGIN.  A
    disconnected graph (top eigenvalue with multiplicity above one) is
    flagged as a precondition violation and the check fails without
    claiming a counterexample.
    """
    lam = spectrum(adj)
    resp = filter_response(gamma, lam)
    if lam.size == 0:
        raise ValueError("empty spectrum")
    top = float(lam[0])
    second = float(lam[1]) if lam.size > 1 else float("-inf")
    connected = int(np.sum(lam > 1.0 - TOP_TOL)) == 1
    tail = np.abs(resp[1:]) if lam.size > 1 else np.zeros(0)
    worst = float(tail.max()) if tail.size else 0.0
    margin = 1.0 - worst
    passed = (abs(top - 1.0) <= TOP_TOL and connected
              and bool(np.all(tail < 1.0 - STRICT_MARGIN)))
    return LowpassReport(
        eigenvalues=lam, response=resp, top_eigenvalue=top,
        second_eigenvalue=second, connected=connected,
        worst_response=worst, margin=margin, passed=passed,
    )


def random_connected_adjacency(n: int, extra_edges: int, rng) -> np.ndarray:
    """Symmetric 0/1 adjacency, connected by construction.

    A random spanning tree guarantees connectivity; extra undirected
    edges are sprinkled on top.
    """
    if n < 1:
        raise ValueError("need at least one node")
    a = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        j = order[k]
        i = order[rng.integers(0, k)]
        a[i, j] = a[j, i] = 1.0
    for _ in range(extra_edges):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            a[i, j] = a[j, i] = 1.0
    return a

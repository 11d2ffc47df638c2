import subprocess
import sys

import numpy as np
import pytest

from ahgnn.model import init_gamma
from ahgnn.spectral import (LowpassReport, filter_response,
                            random_connected_adjacency, spectrum,
                            verify_lowpass)
from conftest import REPO_ROOT, checkout_env


def test_normalization_closed_forms():
    # single undirected edge: normalized matrix is the 2x2 exchange
    two_path = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(spectrum(two_path), [1.0, -1.0], atol=1e-12)
    # triangle: eigenvalues 1, -1/2, -1/2
    k3 = np.ones((3, 3)) - np.eye(3)
    np.testing.assert_allclose(spectrum(k3), [1.0, -0.5, -0.5], atol=1e-12)
    # 4-cycle is bipartite: spectrum symmetric around 0 with both extremes
    c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]],
                  dtype=float)
    np.testing.assert_allclose(spectrum(c4), [1.0, 0.0, 0.0, -1.0],
                               atol=1e-12)


def test_normalization_handles_isolated_nodes():
    # the weight-2 edge normalizes to 1; the isolated node adds a zero
    # eigenvalue rather than a division by its zero degree
    adj = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    lam = spectrum(adj)
    np.testing.assert_allclose(lam, [1.0, 0.0, -1.0], atol=1e-15)


def test_normalization_input_validation():
    with pytest.raises(ValueError, match="square"):
        spectrum(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))
    # within numpy's default relative tolerance of symmetric, and still not:
    # its eigenvalues would depend on which triangle the solver reads
    path = np.array([[0.0, 1.0, 0.0], [1.000001, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="adjacency must be symmetric"):
        spectrum(path)
    with pytest.raises(ValueError, match="non-negative"):
        spectrum(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        spectrum(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="caps at"):
        spectrum(np.zeros((501, 501)))


def test_jacobi_rejects_bad_input():
    # the inputs the former in-repo Jacobi solver rejected; the numpy path
    # must reject them too, and call a NaN matrix non-finite, not asymmetric
    with pytest.raises(ValueError, match="square"):
        spectrum(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        spectrum(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        spectrum(np.full((2, 2), np.nan))


def test_filter_response_matches_naive_polynomial():
    rng = np.random.default_rng(2)
    for _ in range(20):
        gamma = rng.normal(size=int(rng.integers(1, 6)))
        lam = rng.uniform(-1, 1, size=7)
        naive = sum(g * lam ** k for k, g in enumerate(gamma))
        np.testing.assert_allclose(filter_response(gamma, lam), naive,
                                   rtol=1e-13)


def test_filter_response_pinned_value():
    # gamma = [0.25, 0.1875, 0.140625, 0.421875] evaluated at lam = -1:
    # 0.25 - 0.1875 + 0.140625 - 0.421875 = -0.21875
    gamma = init_gamma(0.25, 3)
    assert filter_response(gamma, np.array([-1.0]))[0] == pytest.approx(
        -0.21875, abs=1e-15)
    assert filter_response(gamma, np.array([1.0]))[0] == pytest.approx(
        1.0, abs=1e-12)


def test_verify_lowpass_passes_on_connected_graphs():
    rng = np.random.default_rng(3)
    gamma = init_gamma(0.25, 3)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        adj = random_connected_adjacency(n, int(rng.integers(0, n)), rng)
        rep = verify_lowpass(gamma, adj)
        assert rep.passed, rep.summary()
        assert rep.connected
        assert rep.top_eigenvalue == pytest.approx(1.0, abs=1e-8)
        assert rep.second_eigenvalue < 1.0
        assert rep.worst_response < 1.0
        assert rep.margin > 0
        assert "PASS" in rep.summary()


def test_verify_lowpass_bipartite_extreme():
    # the 2-node path has eigenvalue -1; the decaying gamma still damps it
    gamma = init_gamma(0.25, 3)
    rep = verify_lowpass(gamma, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rep.passed
    assert rep.eigenvalues[-1] == pytest.approx(-1.0, abs=1e-12)
    assert rep.worst_response == pytest.approx(0.21875, abs=1e-10)


def test_verify_lowpass_flags_disconnected_graphs():
    # two disjoint edges: eigenvalue 1 has multiplicity 2
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[2, 3] = adj[3, 2] = 1.0
    rep = verify_lowpass(init_gamma(0.25, 3), adj)
    assert rep.connected is False
    assert rep.passed is False
    assert "precondition violated" in rep.summary()
    assert "FAIL" in rep.summary()


def test_verify_lowpass_catches_amplifying_weights():
    # all mass on hop 0 with weight above 1 amplifies every frequency
    rep = verify_lowpass(np.array([1.5]),
                         np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rep.passed is False
    assert rep.worst_response > 1.0


def test_random_connected_adjacency_is_connected():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        a = random_connected_adjacency(n, int(rng.integers(0, 5)), rng)
        np.testing.assert_array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        # BFS reachability from node 0 covers everything
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in np.nonzero(a[i])[0]:
                if j not in seen:
                    seen.add(int(j))
                    frontier.append(int(j))
        assert len(seen) == n
    with pytest.raises(ValueError, match="at least one node"):
        random_connected_adjacency(0, 0, rng)


def test_spectral_demo_runs():
    # the demo imports the module's public names, so a rename breaks it
    proc = subprocess.run([sys.executable,
                           str(REPO_ROOT / "demos" / "spectral_lowpass.py")],
                          capture_output=True, text=True, env=checkout_env(),
                          cwd=REPO_ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "low-pass check PASS" in proc.stdout

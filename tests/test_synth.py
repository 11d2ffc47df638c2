import subprocess
import sys
import warnings

import numpy as np
import pytest

import ahgnn.synth as synth
from conftest import REPO_ROOT, checkout_env
from oracles import (graphs_identical, oracle_rewire_to_homophily,
                     random_typed_graph)
from ahgnn.graph import DatasetError, HeteroGraph
from ahgnn.metapath import graph_homophily
from ahgnn.sparse import SparseMatrix
from ahgnn.synth import (RewireSpec, ToySpec, generate_toy,
                         rewire_to_homophily)


def small_spec(**kw):
    base = dict(n_target=30, n_aux=15, num_classes=3, homophily=0.7,
                feature_dim=4, edges_per_node=3, seed=0, tolerance=0.03)
    base.update(kw)
    return ToySpec(**base)


def test_spec_validation_errors():
    bad = [dict(num_types=4), dict(num_classes=0),
           dict(num_classes=40, n_target=30), dict(n_aux=2, num_classes=3),
           dict(edges_per_node=0), dict(homophily=0.0), dict(homophily=1.2),
           dict(train_frac=0.0), dict(train_frac=0.7, val_frac=0.4),
           dict(train_frac=0.9, val_frac=0.1)]
    for overrides in bad:
        with pytest.raises(ValueError):
            generate_toy(small_spec(**overrides))


def test_toy_shapes_and_invariants():
    spec = small_spec(num_types=3, homophily=1.0)
    g = generate_toy(spec)
    assert list(g.node_types) == ["A", "B", "C"]
    assert g.counts == {"A": 30, "B": 15, "C": 15}
    assert g.target_type == "A"
    assert g.features["A"].shape == (30, 4)
    assert g.features["C"].shape == (15, 4)
    assert set(np.unique(g.labels)) == {0, 1, 2}
    for mask in (g.train_mask, g.val_mask, g.test_mask):
        assert mask.sum() >= 1
    assert g.train_mask.sum() + g.val_mask.sum() + g.test_mask.sum() == 30
    # both directions of every relation are materialized and consistent
    for (a, b), m in g.relations.items():
        assert m == g.relations[(b, a)].transpose()


def test_toy_starts_class_pure():
    g = generate_toy(small_spec(homophily=1.0))
    assert graph_homophily(g, 4) == pytest.approx(1.0, abs=1e-12)


def test_single_class_graph_is_trivially_homophilous():
    g = generate_toy(small_spec(num_classes=1, homophily=0.5))
    assert set(np.unique(g.labels)) == {0}
    assert graph_homophily(g, 4) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("target", [0.4, 0.7])
def test_toy_reaches_requested_homophily(target):
    spec = small_spec(homophily=target)
    g = generate_toy(spec)
    h = graph_homophily(g, spec.homophily_depth)
    assert abs(h - target) <= spec.tolerance


def test_toy_warns_when_it_stops_off_target():
    spec = ToySpec(n_target=40, n_aux=12, num_classes=3, homophily=0.2,
                   max_rewire=20, seed=0)
    with pytest.warns(RuntimeWarning, match=r"homophily 0\.3161, target 0\.2 "
                      r"\+/- 0\.02, after 20 draws"):
        g = generate_toy(spec)
    assert abs(graph_homophily(g, spec.homophily_depth) - 0.2) > spec.tolerance


def test_toy_on_target_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = generate_toy(small_spec(homophily=0.4))
    assert abs(graph_homophily(g, 4) - 0.4) <= 0.03


def test_toy_is_deterministic_per_seed():
    a = generate_toy(small_spec())
    b = generate_toy(small_spec())
    assert graphs_identical(a, b)
    c = generate_toy(small_spec(seed=7))
    assert not graphs_identical(c, a)


def test_rewire_preserves_everything_but_wiring():
    g = generate_toy(small_spec(homophily=1.0))
    res = rewire_to_homophily(g, RewireSpec(target_h=0.6, seed=3,
                                            tolerance=0.05))
    out = res.graph
    np.testing.assert_array_equal(out.labels, g.labels)
    np.testing.assert_array_equal(out.splits, g.splits)
    for t in g.node_types:
        np.testing.assert_array_equal(out.features[t], g.features[t])
    # edge mass moves around but its total is conserved
    for pair in g.relations:
        assert out.relations[pair].values.sum() == \
            g.relations[pair].values.sum()


def test_rewire_trajectory_is_monotone():
    g = generate_toy(small_spec(homophily=1.0))
    res = rewire_to_homophily(g, RewireSpec(target_h=0.5, seed=1,
                                            tolerance=0.04))
    assert res.converged
    assert abs(res.achieved - 0.5) <= 0.04
    assert res.trajectory[0] == pytest.approx(1.0, abs=1e-12)
    assert res.achieved == res.trajectory[-1]
    gaps = [abs(h - res.target) for h in res.trajectory]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert res.accepted == len(res.trajectory) - 1


def test_rewire_gives_up_after_iteration_budget():
    g = generate_toy(small_spec(homophily=1.0))
    for budget in (5, 0):
        res = rewire_to_homophily(g, RewireSpec(target_h=0.0, seed=0,
                                                max_iterations=budget,
                                                tolerance=1e-6))
        assert res.converged is False
        assert res.iterations == budget
    # a zero budget builds the evaluator for the off-target graph, then
    # draws nothing: the graph comes back as it went in
    assert res.proposals == 0 and res.accepted == 0
    assert graphs_identical(res.graph, g)


def test_rewire_already_on_target_is_a_no_op():
    g = generate_toy(small_spec(homophily=1.0))
    res = rewire_to_homophily(g, RewireSpec(target_h=1.0, tolerance=0.01))
    assert res.converged and res.accepted == 0
    assert res.trajectory == [pytest.approx(1.0, abs=1e-12)]
    for pair in g.relations:
        assert res.graph.relations[pair] == g.relations[pair]


def test_rewire_rejects_bad_target_and_fractional_weights():
    g = generate_toy(small_spec(homophily=1.0))
    with pytest.raises(ValueError, match="lie in"):
        rewire_to_homophily(g, RewireSpec(target_h=1.5))

    # a fractional weight never reaches the rewirer: no graph holds one
    with pytest.raises(DatasetError, match="edge multiplicities"):
        HeteroGraph.create(
            ["A", "B"], {"A": 4, "B": 2},
            {"A": np.ones((4, 1)), "B": np.ones((2, 1))},
            {("A", "B"): SparseMatrix.from_coo(4, 2, [0, 1, 2, 3],
                                               [0, 1, 0, 1],
                                               [0.5, 1.0, 1.0, 1.0])},
            "A", np.array([0, 1, 0, 1]), 2, np.array([0, 0, 1, 2]))


def test_rewiring_demo_runs():
    # the only demo that calls the rewirer
    proc = subprocess.run([sys.executable,
                           str(REPO_ROOT / "demos" / "homophily_rewiring.py")],
                          capture_output=True, text=True, env=checkout_env(),
                          cwd=REPO_ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_rewire_needs_a_cross_type_relation():
    g = HeteroGraph.create(
        ["A"], {"A": 4}, {"A": np.ones((4, 1))},
        {("A", "A"): SparseMatrix.from_coo(4, 4, [0, 1, 2, 3], [1, 0, 3, 2],
                                           np.ones(4))},
        "A", np.array([0, 1, 0, 1]), 2, np.array([0, 0, 1, 2]))
    with pytest.raises(ValueError, match="cross-type"):
        rewire_to_homophily(g, RewireSpec(target_h=0.5))


def assert_same_run(graph, spec):
    """The rewirer and the full-recompute oracle agree bit for bit.

    Where the oracle raises ValueError, the rewirer raises the same message.
    """
    try:
        slow = oracle_rewire_to_homophily(graph, spec)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            rewire_to_homophily(graph, spec)
        assert str(got.value) == str(e)
        return None
    fast = rewire_to_homophily(graph, spec)
    assert fast.trajectory == slow.trajectory
    assert (fast.iterations, fast.accepted, fast.proposals, fast.converged) \
        == (slow.iterations, slow.accepted, slow.proposals, slow.converged)
    assert fast.achieved == slow.achieved
    assert fast.achieved == graph_homophily(fast.graph, spec.depth)
    assert graphs_identical(fast.graph, slow.graph)
    return fast


def test_rewire_matches_full_recompute_on_gate_targets():
    base = generate_toy(ToySpec(n_target=60, n_aux=30, num_classes=5,
                                homophily=0.7, seed=3))
    for k in range(1, 9):
        spec = RewireSpec(target_h=round(0.1 * k, 1), seed=1, tolerance=0.02,
                          max_iterations=60000)
        assert_same_run(base, spec)


def test_rewire_matches_full_recompute_on_random_graphs():
    # aux-to-aux and self relations, -1 labels, multiplicities above 1
    outcomes = [assert_same_run(random_typed_graph(seed),
                                RewireSpec(target_h=target, seed=seed,
                                           max_iterations=300))
                for seed in range(60) for target in (0.0, 0.5, 1.0)]
    ran = [r for r in outcomes if r is not None]
    assert len(ran) >= 100 and sum(r.accepted > 0 for r in ran) >= 50


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_rewire_matches_full_recompute_on_three_type_toy(depth):
    g = generate_toy(small_spec(num_types=3, homophily=1.0))
    res = assert_same_run(g, RewireSpec(target_h=0.4, seed=2, tolerance=0.02,
                                        depth=depth))
    assert res is not None and res.converged and res.accepted > 0


def test_rewire_measures_the_full_graph_only_once(monkeypatch):
    g = generate_toy(small_spec(homophily=1.0))
    calls = []

    def counted(graph, max_len=4):
        calls.append(max_len)
        return graph_homophily(graph, max_len)

    monkeypatch.setattr(synth, "graph_homophily", counted)
    res = rewire_to_homophily(g, RewireSpec(target_h=0.5, seed=1,
                                            tolerance=0.04))
    assert res.proposals > res.accepted > 0
    assert res.iterations >= res.proposals
    assert calls == [4]


def test_below_chance_target_probes_the_wiring_once(monkeypatch):
    # h=0.2 lies below chance on 4 classes, so the attachment rate starts
    # at its floor 1/c; the probe lands above the target and bisection
    # cannot move q, so further probes would only re-measure it
    calls = []

    def counted(graph, max_len=4):
        calls.append(max_len)
        return graph_homophily(graph, max_len)

    monkeypatch.setattr(synth, "graph_homophily", counted)
    generate_toy(ToySpec(n_target=300, n_aux=75, num_classes=4,
                         feature_dim=8, noise=1.2, edges_per_node=4,
                         train_frac=0.15, val_frac=0.15, tolerance=0.03,
                         homophily=0.2, seed=0))
    assert calls == [4, 4]   # one wiring probe, then the rewirer's start

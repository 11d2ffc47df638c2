from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import ahgnn.metapath
from ahgnn.graph import HeteroGraph, load_dataset
from ahgnn.metapath import (MetaPath, PathProducts, build_homophily_report,
                            enumerate_metapaths, global_homophily,
                            graph_homophily, homophily_histogram,
                            induced_adjacency, local_homophily,
                            write_homophily_csv)
from ahgnn.sparse import SparseMatrix
from ahgnn.synth import ToySpec, generate_toy
from oracles import (oracle_build_homophily_report, oracle_global_homophily,
                     oracle_graph_homophily, oracle_local_homophily,
                     oracle_walk_counts, random_typed_graph)

TOY = Path(__file__).parent / "data" / "toy"


def two_type_graph(edges, n_a=2, n_b=3, labels=(0, 1)):
    r = [e[0] for e in edges]
    c = [e[1] for e in edges]
    return HeteroGraph.create(
        ("A", "B"), {"A": n_a, "B": n_b},
        {"A": np.zeros((n_a, 1)), "B": np.zeros((n_b, 1))},
        {("A", "B"): SparseMatrix.from_coo(n_a, n_b, r, c, np.ones(len(r)))},
        "A", list(labels), max(max(labels) + 1, 1), [0] * n_a)


def test_metapath_key_round_trip():
    p = MetaPath(("A", "B", "A"))
    assert p.key == "A-B-A"
    assert p.steps == 2
    assert MetaPath.from_key("A-B-A") == p


def test_enumerate_basic_order():
    g = two_type_graph([(0, 0)])
    s = g.schema()
    keys = [p.key for p in enumerate_metapaths(s, "A", 2)]
    assert keys == ["A", "A-B", "A-B-A"]


def test_enumerate_end_filter():
    g = two_type_graph([(0, 0)])
    s = g.schema()
    assert [p.key for p in enumerate_metapaths(s, "A", 2, end="A")] == \
        ["A", "A-B-A"]
    assert [p.key for p in enumerate_metapaths(s, "A", 2, end="A",
                                               include_trivial=False)] == \
        ["A-B-A"]


def test_enumerate_max_len_one():
    g = two_type_graph([(0, 0)])
    keys = [p.key for p in enumerate_metapaths(g.schema(), "A", 1)]
    assert keys == ["A", "A-B"]


def test_enumerate_three_types_lexicographic():
    g = HeteroGraph.create(
        ("A", "B", "C"), {"A": 2, "B": 2, "C": 2},
        {t: np.zeros((2, 1)) for t in "ABC"},
        {("A", "B"): SparseMatrix.identity(2),
         ("A", "C"): SparseMatrix.identity(2)},
        "A", [0, 1], 2, [0, 0])
    keys = [p.key for p in enumerate_metapaths(g.schema(), "A", 2)]
    assert keys == ["A", "A-B", "A-B-A", "A-C", "A-C-A"]
    assert keys == sorted(keys)


def test_enumerate_errors():
    g = two_type_graph([(0, 0)])
    with pytest.raises(ValueError, match="unknown start type"):
        enumerate_metapaths(g.schema(), "Z", 2)
    with pytest.raises(ValueError, match="max_len"):
        enumerate_metapaths(g.schema(), "A", -1)


def test_induced_adjacency_hand_example():
    # A0-B0, A0-B1, A1-B1: walks A->B->A give [[2,1],[1,1]]
    g = two_type_graph([(0, 0), (0, 1), (1, 1)])
    adj = induced_adjacency(g, MetaPath(("A", "B", "A")))
    np.testing.assert_array_equal(adj.to_dense(), [[2, 1], [1, 1]])


def test_induced_adjacency_matches_walk_oracle():
    for seed in range(15):
        g = random_typed_graph(seed)
        paths = enumerate_metapaths(g.schema(), "A", 3, include_trivial=False)
        products = PathProducts(g, normalized=False)
        for p in paths[:12]:
            got = induced_adjacency(g, p, products=products).to_dense()
            np.testing.assert_array_equal(got, oracle_walk_counts(g, p.types))


def test_memoization_changes_nothing():
    g = random_typed_graph(7)
    paths = enumerate_metapaths(g.schema(), "A", 4, include_trivial=False)
    shared = PathProducts(g, normalized=False)
    for p in paths:
        warm = induced_adjacency(g, p, products=shared)
        cold = induced_adjacency(g, p)  # fresh products each time
        assert warm.allclose(cold, rtol=0, atol=0)


def test_induced_adjacency_unknown_step():
    g = two_type_graph([(0, 0)])
    with pytest.raises(ValueError, match="unknown type"):
        induced_adjacency(g, MetaPath(("A", "Z", "A")))
    with pytest.raises(ValueError, match="no relation"):
        induced_adjacency(g, MetaPath(("A", "A")))


def test_global_homophily_hand_example():
    # chain labels 0-0-1-1, symmetric adjacency: 4 of 6 directed edges match
    adj = SparseMatrix.from_dense(np.array([
        [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], dtype=float))
    assert global_homophily(adj, np.array([0, 0, 1, 1])) == pytest.approx(4 / 6)


def test_global_homophily_excludes_diagonal_and_unlabeled():
    adj = SparseMatrix.from_dense(np.array([[5, 1], [1, 5]], dtype=float))
    assert global_homophily(adj, np.array([0, 0])) == 1.0
    assert global_homophily(adj, np.array([0, -1])) is None


def test_global_homophily_no_edges_is_none():
    assert global_homophily(SparseMatrix.empty(3, 3), np.array([0, 1, 2])) is None


def test_local_homophily_nan_for_isolated():
    adj = SparseMatrix.from_dense(np.array(
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))
    loc = local_homophily(adj, np.array([0, 0, 1]))
    np.testing.assert_array_equal(loc[:2], [1.0, 1.0])
    assert np.isnan(loc[2])


def test_homophily_matches_oracle_on_random_graphs():
    for seed in range(15):
        g = random_typed_graph(seed + 100)
        paths = enumerate_metapaths(g.schema(), "A", 3, end="A",
                                    include_trivial=False)
        for p in paths[:8]:
            dense = oracle_walk_counts(g, p.types)
            adj = induced_adjacency(g, p)
            assert global_homophily(adj, g.labels) == \
                oracle_global_homophily(dense, g.labels)
            np.testing.assert_array_equal(
                local_homophily(adj, g.labels),
                oracle_local_homophily(dense, g.labels))


def test_global_equals_weighted_mean_of_local():
    for seed in range(10):
        g = random_typed_graph(seed + 200)
        paths = enumerate_metapaths(g.schema(), "A", 2, end="A",
                                    include_trivial=False)
        for p in paths:
            adj = induced_adjacency(g, p)
            glob = global_homophily(adj, g.labels)
            if glob is None:
                continue
            loc = local_homophily(adj, g.labels)
            r, c = adj.coords()
            keep = (r != c) & (g.labels[r] >= 0) & (g.labels[c] >= 0)
            deg = np.bincount(r[keep], minlength=adj.rows)
            defined = ~np.isnan(loc)
            weighted = float(np.sum(loc[defined] * deg[defined]) / deg.sum())
            assert glob == pytest.approx(weighted, abs=1e-12)


def test_histogram_bin_edges():
    vals = np.array([0.0, 0.19, 0.2, 0.4, 0.6, 0.8, 1.0, np.nan])
    np.testing.assert_array_equal(homophily_histogram(vals), [2, 1, 1, 1, 2])


def test_histogram_rejects_out_of_range():
    with pytest.raises(ValueError, match="lie in"):
        homophily_histogram(np.array([1.5]))


def test_graph_homophily_toy_values():
    g = load_dataset(TOY)
    # A-B-A global ratio is 2/4 (hand-counted); depth 2 sees only that path
    assert graph_homophily(g, 2) == pytest.approx(0.5)
    # the 4-step path scores 2/6, so depth 4 averages 1/2 and 1/3
    assert graph_homophily(g, 4) == pytest.approx((0.5 + 1 / 3) / 2)


def test_graph_homophily_requires_depth_two():
    g = load_dataset(TOY)
    with pytest.raises(ValueError, match="at least two steps"):
        graph_homophily(g, 1)


def test_graph_homophily_no_path_errors():
    g = HeteroGraph.create(
        ("A", "B"), {"A": 2, "B": 2},
        {"A": np.zeros((2, 1)), "B": np.zeros((2, 1))},
        {}, "A", [0, 1], 2, [0, 0])
    with pytest.raises(ValueError, match="no target-to-target meta-path"):
        graph_homophily(g, 4)


def test_graph_homophily_all_paths_empty_errors():
    g = two_type_graph([])
    with pytest.raises(ValueError, match="qualifying edge"):
        graph_homophily(g, 4)


def test_report_and_csv(tmp_path):
    g = load_dataset(TOY)
    rep = build_homophily_report(g, 4)
    assert [p.key for p in rep.paths] == ["A-B-A", "A-B-A-B-A"]
    assert rep.paths[0].global_ratio == pytest.approx(0.5)
    assert rep.paths[0].n_edges == 4
    out = tmp_path / "h.csv"
    write_homophily_csv(rep, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "metapath,global_h,n_edges,bin0,bin1,bin2,bin3,bin4"
    assert lines[1].startswith("A-B-A,0.5,4,")
    assert lines[-1].startswith("graph_level,")


def test_report_graph_level_is_graph_homophily_bit_for_bit():
    for g in [load_dataset(TOY)] + [random_typed_graph(s) for s in range(40)]:
        for depth in (2, 3, 4):
            try:
                want = graph_homophily(g, depth)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    build_homophily_report(g, depth)
                assert str(got.value) == str(e)
                continue
            assert build_homophily_report(g, depth).graph_level == want


def test_report_keeps_graph_homophily_errors():
    g = load_dataset(TOY)
    with pytest.raises(ValueError, match="at least two steps"):
        build_homophily_report(g, 1)
    no_path = HeteroGraph.create(
        ("A", "B"), {"A": 2, "B": 2},
        {"A": np.zeros((2, 1)), "B": np.zeros((2, 1))},
        {}, "A", [0, 1], 2, [0, 0])
    with pytest.raises(ValueError, match="no target-to-target meta-path"):
        build_homophily_report(no_path, 4)
    with pytest.raises(ValueError, match="qualifying edge"):
        build_homophily_report(two_type_graph([]), 4)


def assert_reports_equal(got, want):
    assert [p.key for p in got.paths] == [p.key for p in want.paths]
    for a, b in zip(got.paths, want.paths):
        assert a.global_ratio == b.global_ratio, a.key
        assert a.n_edges == b.n_edges and isinstance(a.n_edges, int), a.key
        np.testing.assert_array_equal(a.histogram, b.histogram)
    assert got.graph_level == want.graph_level
    assert got.max_len == want.max_len


def assert_matches_oracle_report(g, depth):
    """Same report as the canonical-product oracle, or the same error."""
    try:
        want = oracle_build_homophily_report(g, depth)
    except ValueError as e:
        for f in (build_homophily_report, graph_homophily):
            with pytest.raises(ValueError) as got:
                f(g, depth)
            assert str(got.value) == str(e)
        return None
    got = build_homophily_report(g, depth)
    assert_reports_equal(got, want)
    assert graph_homophily(g, depth) == got.graph_level
    return got


def test_report_matches_canonical_coords_oracle():
    for g in [load_dataset(TOY)] + [random_typed_graph(s) for s in range(60)]:
        for depth in (2, 3, 4, 5):
            assert_matches_oracle_report(g, depth)


def test_report_pins_unlabeled_ends_closed_walks_and_isolated_node():
    # B0 joins A0-A3, B1 only A2; A3 is unlabeled and A4 has no edge.  A-B-A
    # rows: A0 and A1 each see one same- and one other-label neighbour (A3
    # skipped), A2 sees two other-label ones; the closed walks A0-A0 and
    # A2-A2 (two walks) are skipped.
    g = two_type_graph([(0, 0), (1, 0), (2, 0), (3, 0), (2, 1)],
                       n_a=5, n_b=2, labels=(0, 0, 1, -1, 1))
    rep = assert_matches_oracle_report(g, 2)
    assert [p.key for p in rep.paths] == ["A-B-A"]
    assert rep.paths[0].global_ratio == 2 / 6
    assert rep.paths[0].n_edges == 6
    np.testing.assert_array_equal(rep.paths[0].histogram, [1, 0, 2, 0, 0])
    adj = induced_adjacency(g, MetaPath(("A", "B", "A")))
    np.testing.assert_array_equal(local_homophily(adj, g.labels),
                                  [0.5, 0.5, 0.0, np.nan, np.nan])
    for depth in (3, 4, 5):
        assert_matches_oracle_report(g, depth)


def test_report_on_self_relation():
    # directed A-A with a self-loop on A0; labels 0, 0, 1
    rel = SparseMatrix.from_dense(np.array(
        [[1, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))
    g = HeteroGraph.create(("A",), {"A": 3}, {"A": np.zeros((3, 1))},
                           {("A", "A"): rel}, "A", [0, 0, 1], 2, [0, 0, 0])
    rep = assert_matches_oracle_report(g, 2)
    assert [p.key for p in rep.paths] == ["A-A", "A-A-A"]
    # A-A: (0,1) same, (1,2) and (2,0) not; A-A-A = [[1,1,1],[1,0,0],[1,1,0]]
    assert [p.global_ratio for p in rep.paths] == [1 / 3, 2 / 5]
    assert [p.n_edges for p in rep.paths] == [3, 5]
    for depth in (3, 4, 5):
        assert_matches_oracle_report(g, depth)


def test_homophily_skips_explicitly_stored_zeros():
    # not canonical: (0, 1) is stored with value 0, so it is no edge
    adj = SparseMatrix(rows=3, cols=3, row_offsets=np.array([0, 2, 2, 2]),
                       col_indices=np.array([1, 2]),
                       values=np.array([0.0, 3.0]))
    labels = np.array([0, 0, 1])
    assert global_homophily(adj, labels) == 0.0
    np.testing.assert_array_equal(local_homophily(adj, labels),
                                  [0.0, np.nan, np.nan])
    np.testing.assert_array_equal(adj.values, [0.0, 3.0])  # left as it was


@pytest.fixture(scope="module")
def three_type_toy() -> HeteroGraph:
    return generate_toy(ToySpec(n_target=210, n_aux=40, num_types=3,
                                num_classes=3, homophily=0.6, seed=0,
                                tolerance=0.05))


@pytest.mark.parametrize("width", [1, 7, 10 ** 6])
def test_report_is_independent_of_the_block_width(monkeypatch, width,
                                                  three_type_toy):
    # the oracle graphs hold at most 30 nodes, one block at the default width
    monkeypatch.setattr(ahgnn.metapath, "_BLOCK_COLUMNS", width)
    for g in (random_typed_graph(s) for s in range(60)):
        for depth in (2, 3, 4, 5):
            assert_matches_oracle_report(g, depth)
    assert three_type_toy.n_target >= 200
    assert_matches_oracle_report(three_type_toy, 4)


def test_report_forms_one_sparse_product_per_two_step_suffix(monkeypatch,
                                                             three_type_toy):
    products, raw = [], []
    real_spspmm = ahgnn.metapath.spspmm
    real_matmul = sp._compressed._cs_matrix._matmul_sparse

    def counted(a, b):
        products.append((a.to_dense() != 0, b.to_dense() != 0))
        return real_spspmm(a, b)

    def counted_raw(self, other):
        raw.append(self.shape)
        return real_matmul(self, other)

    monkeypatch.setattr(ahgnn.metapath, "spspmm", counted)
    monkeypatch.setattr(sp._compressed._cs_matrix, "_matmul_sparse",
                        counted_raw)
    graphs = [three_type_toy, load_dataset(TOY)]
    graphs += [random_typed_graph(s) for s in range(60)]
    for g in graphs:
        for depth in (2, 3, 4, 5):
            for f in (build_homophily_report, graph_homophily):
                del products[:], raw[:]
                try:
                    f(g, depth)
                except ValueError:
                    continue
                t = g.target_type
                suffixes = {p.types[-3:] for p in enumerate_metapaths(
                    g.schema(), t, depth, end=t, include_trivial=False)
                    if p.steps >= 2}
                # no sparse-sparse product outside spspmm, one per suffix,
                # each of the supports of the suffix's two relations
                assert len(products) == len(suffixes) == len(raw)
                for a, b, c in sorted(suffixes):
                    want = (g.relation(a, b).to_dense() != 0,
                            g.relation(b, c).to_dense() != 0)
                    hit = [k for k, pair in enumerate(products)
                           if all(np.array_equal(x, y)
                                  for x, y in zip(pair, want))]
                    assert hit, (a, b, c)
                    del products[hit[0]]


def test_graph_homophily_matches_dense_recompute():
    for g in [load_dataset(TOY)] + [random_typed_graph(s) for s in range(60)]:
        for depth in (2, 3, 4, 5):
            try:
                want = oracle_graph_homophily(g, depth)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    graph_homophily(g, depth)
                assert str(got.value) == str(e)
                continue
            assert graph_homophily(g, depth) == want

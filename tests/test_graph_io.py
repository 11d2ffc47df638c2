import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ahgnn.cli import dispatch
from ahgnn.graph import (DatasetError, HeteroGraph, load_dataset,
                         manifest_bytes, save_dataset)
from ahgnn.sparse import SparseMatrix

TOY = Path(__file__).parent / "data" / "toy"


def small_graph():
    return HeteroGraph.create(
        node_types=("A", "B"),
        counts={"A": 3, "B": 2},
        features={"A": np.arange(6.0).reshape(3, 2) / 7.0,
                  "B": np.array([[0.5, -1.25], [2.0, 0.0]])},
        relations={("A", "B"): SparseMatrix.from_coo(
            3, 2, [0, 0, 1, 2], [0, 1, 0, 1], [1.0, 1.0, 2.0, 1.0])},
        target_type="A",
        labels=[0, 1, -1],
        num_classes=2,
        splits=[0, 1, 2],
    )


def test_load_toy_fixture():
    g = load_dataset(TOY)
    assert g.node_types == ("A", "B")
    assert g.counts == {"A": 3, "B": 2}
    assert g.target_type == "A"
    assert g.num_classes == 2
    np.testing.assert_array_equal(g.labels, [0, 0, 1])
    np.testing.assert_array_equal(g.splits, [0, 1, 2])
    np.testing.assert_array_equal(
        g.features["A"], [[1.5, -0.25], [0.0, 2.0], [3.125, 0.5]])
    np.testing.assert_array_equal(
        g.relations[("A", "B")].to_dense(), [[1, 1], [1, 0], [0, 1]])


def test_loader_materializes_transpose():
    g = load_dataset(TOY)
    assert ("B", "A") in g.relations
    np.testing.assert_array_equal(g.relations[("B", "A")].to_dense(),
                                  g.relations[("A", "B")].to_dense().T)


def test_fingerprint_tracks_manifest_bytes():
    g = load_dataset(TOY)
    assert 0 <= g.fingerprint < 2 ** 64
    assert g.fingerprint == load_dataset(TOY).fingerprint
    # a third class changes the manifest and nothing else
    wider = replace(g, num_classes=3)
    assert manifest_bytes(wider) != manifest_bytes(g)
    assert wider.fingerprint != g.fingerprint


def test_fingerprint_tracks_every_array():
    # same manifest, one number changed in each array in turn
    g = small_graph()
    m = g.relations[("A", "B")]
    changed = [
        replace(g, features={**g.features, "B": g.features["B"] + 1.0}),
        replace(g, relations={**g.relations, ("A", "B"): replace(
            m, values=m.values + 1.0)}),
        replace(g, relations={**g.relations, ("A", "B"): replace(
            m, col_indices=m.col_indices[::-1].copy())}),
        replace(g, labels=g.labels[::-1].copy()),
        replace(g, splits=g.splits[::-1].copy()),
    ]
    prints = {g.fingerprint} | {h.fingerprint for h in changed}
    assert len(prints) == 1 + len(changed)
    assert all(manifest_bytes(h) == manifest_bytes(g) for h in changed)


def test_create_rejects_negative_and_nan_weights():
    # walk counting and normalization read weights as multiplicities
    for bad in (-1.0, np.nan):
        with pytest.raises(DatasetError,
                           match=r"relation \('A', 'B'\) holds a negative "
                                 "or non-finite weight"):
            HeteroGraph.create(
                ("A", "B"), {"A": 2, "B": 2},
                {"A": np.zeros((2, 1)), "B": np.zeros((2, 1))},
                {("A", "B"): SparseMatrix.from_dense([[1.0, bad], [0, 2]])},
                "A", [0, 1], 2, [0, 1])


def test_round_trip_is_bit_exact(tmp_path):
    g = small_graph()
    save_dataset(g, tmp_path / "d")
    g2 = load_dataset(tmp_path / "d")
    assert g2.node_types == g.node_types
    for t in g.node_types:
        np.testing.assert_array_equal(g2.features[t], g.features[t])
    for k in g.relations:
        np.testing.assert_array_equal(g2.relations[k].to_dense(),
                                      g.relations[k].to_dense())
    np.testing.assert_array_equal(g2.labels, g.labels)
    np.testing.assert_array_equal(g2.splits, g.splits)
    # canonical save means the loaded fingerprint equals the in-memory one
    assert g2.fingerprint == g.fingerprint


def test_round_trip_survives_awkward_floats(tmp_path):
    g = small_graph()
    g.features["A"] = np.array([[1 / 3, np.pi], [1e-300, 1.7e300],
                                [np.nextafter(1.0, 2.0), -0.0]])
    save_dataset(g, tmp_path / "d")
    g2 = load_dataset(tmp_path / "d")
    np.testing.assert_array_equal(g2.features["A"], g.features["A"])


def test_save_twice_identical_bytes(tmp_path):
    g = small_graph()
    save_dataset(g, tmp_path / "one")
    save_dataset(g, tmp_path / "two")
    for f in sorted(p.name for p in (tmp_path / "one").iterdir()):
        assert (tmp_path / "one" / f).read_bytes() == \
            (tmp_path / "two" / f).read_bytes(), f


def test_duplicate_edges_sum_multiplicities(tmp_path):
    save_dataset(small_graph(), tmp_path / "d")
    edges = (tmp_path / "d" / "edges_A_B.tsv").read_text()
    assert edges.count("1\t0") == 2  # weight 2 expands to two lines
    g2 = load_dataset(tmp_path / "d")
    assert g2.relations[("A", "B")].to_dense()[1, 0] == 2.0


def test_manifest_bytes_are_deterministic():
    assert manifest_bytes(small_graph()) == manifest_bytes(small_graph())


def _copy_toy(tmp_path):
    d = tmp_path / "toy"
    d.mkdir()
    for f in TOY.iterdir():
        (d / f.name).write_bytes(f.read_bytes())
    return d


def test_missing_manifest_error(tmp_path):
    with pytest.raises(DatasetError, match="manifest.json not found"):
        load_dataset(tmp_path)


def test_feature_shape_mismatch_error(tmp_path):
    d = _copy_toy(tmp_path)
    (d / "features_A.tsv").write_text("1\t2\n")
    with pytest.raises(DatasetError, match="features_A.tsv has shape"):
        load_dataset(d)


def test_edge_out_of_range_error(tmp_path):
    d = _copy_toy(tmp_path)
    (d / "edges_A_B.tsv").write_text("0\t9\n")
    with pytest.raises(DatasetError, match="edge endpoint out of range"):
        load_dataset(d)


def test_unknown_split_tag_error(tmp_path):
    d = _copy_toy(tmp_path)
    (d / "splits.tsv").write_text("0\ttrain\n1\tval\n2\tholdout\n")
    with pytest.raises(DatasetError, match="unknown split tag 'holdout'"):
        load_dataset(d)


def test_missing_split_row_error(tmp_path):
    d = _copy_toy(tmp_path)
    (d / "splits.tsv").write_text("0\ttrain\n1\tval\n")
    with pytest.raises(DatasetError, match="node 2 has no split tag"):
        load_dataset(d)


def test_duplicate_split_row_error(tmp_path):
    d = _copy_toy(tmp_path)
    (d / "splits.tsv").write_text("0\ttrain\n0\tval\n1\ttrain\n2\ttest\n")
    with pytest.raises(DatasetError, match="duplicate split row"):
        load_dataset(d)


def test_label_out_of_range_error(tmp_path):
    d = _copy_toy(tmp_path)
    (d / "labels_A.tsv").write_text("0\t5\n")
    with pytest.raises(DatasetError, match="labels must lie in"):
        load_dataset(d)


def test_duplicate_label_row_error(tmp_path):
    d = _copy_toy(tmp_path)
    (d / "labels_A.tsv").write_text("0\t0\n0\t1\n")
    with pytest.raises(DatasetError, match="duplicate label row"):
        load_dataset(d)


def _edit_manifest(d, **fields):
    man = json.loads((d / "manifest.json").read_text())
    man.update(fields)
    (d / "manifest.json").write_text(json.dumps(man))


def _cli_error(d, capsys) -> str:
    """stderr of `ahgnn analyze` on d, which must exit 1."""
    code = dispatch(["analyze", "--data", str(d), "--depth", "2",
                     "--out", str(d / "out")])
    err = capsys.readouterr().err
    assert code == 1, err
    return err


@pytest.mark.parametrize("fields,names", [
    (dict(counts={"A": 3}), ("manifest.json", "counts", "'B'")),
    (dict(counts=[3, 2]), ("manifest.json", "counts")),
    (dict(feature_dims={"A": 2, "B": "two"}), ("manifest.json", "feature_dims")),
    (dict(relations=[["A", "B", "A"]]), ("manifest.json", "relation")),
    (dict(num_classes="2"), ("manifest.json", "num_classes")),
    (dict(node_types="AB"), ("manifest.json", "node_types")),
])
def test_malformed_manifest_error(tmp_path, capsys, fields, names):
    d = _copy_toy(tmp_path)
    _edit_manifest(d, **fields)
    err = _cli_error(d, capsys)
    for name in names:
        assert name in err


@pytest.mark.parametrize("name", ["labels_A.tsv", "edges_A_B.tsv"])
def test_extra_column_error(tmp_path, capsys, name):
    d = _copy_toy(tmp_path)
    (d / name).write_text("0\t0\t1\n1\t0\t1\n2\t1\t1\n")
    assert f"{name}: expected 2 tab-separated columns" in _cli_error(d, capsys)


def test_non_integer_split_node_error(tmp_path, capsys):
    d = _copy_toy(tmp_path)
    (d / "splits.tsv").write_text("0\ttrain\nx\tval\n2\ttest\n")
    assert "splits.tsv: node id 'x'" in _cli_error(d, capsys)


def test_label_out_of_range_cli_error_names_file(tmp_path, capsys):
    d = _copy_toy(tmp_path)
    (d / "labels_A.tsv").write_text("0\t0\n1\t9\n2\t1\n")
    assert "labels_A.tsv: labels must lie in [-1, 2)" in _cli_error(d, capsys)


def test_disagreeing_reverse_relation_error(tmp_path, capsys):
    d = _copy_toy(tmp_path)
    _edit_manifest(d, relations=[["A", "B"], ["B", "A"]])
    ab = load_dataset(TOY).relations[("A", "B")]
    r, c = ab.coords()
    (d / "edges_B_A.tsv").write_text("".join(f"{j}\t{i}\n" for i, j in zip(r, c)))
    g = load_dataset(d)  # both directions listed and consistent
    np.testing.assert_array_equal(g.relations[("B", "A")].to_dense(),
                                  ab.to_dense().T)
    (d / "edges_B_A.tsv").write_text("0\t0\n")
    err = _cli_error(d, capsys)
    assert "edges_B_A.tsv" in err and "edges_A_B.tsv" in err


def test_unlabeled_nodes_default_to_minus_one(tmp_path):
    d = _copy_toy(tmp_path)
    (d / "labels_A.tsv").write_text("1\t1\n")
    g = load_dataset(d)
    np.testing.assert_array_equal(g.labels, [-1, 1, -1])


def test_relation_unknown_type_error(tmp_path):
    d = _copy_toy(tmp_path)
    man = (d / "manifest.json").read_text().replace('["A", "B"]]', '["A", "Z"]]')
    (d / "manifest.json").write_text(man)
    with pytest.raises(DatasetError, match="unknown type"):
        load_dataset(d)


def test_empty_relation_is_representable(tmp_path):
    d = _copy_toy(tmp_path)
    (d / "edges_A_B.tsv").write_text("")
    g = load_dataset(d)
    assert g.relations[("A", "B")].nnz == 0


def test_create_rejects_bad_type_names():
    with pytest.raises(DatasetError, match="alphanumeric"):
        HeteroGraph.create(
            node_types=("A-B",), counts={"A-B": 1},
            features={"A-B": np.zeros((1, 1))}, relations={},
            target_type="A-B", labels=[0], num_classes=1, splits=[0])


def test_schema_neighbors():
    g = small_graph()
    s = g.schema()
    assert s.neighbors("A") == ("B",)
    assert s.neighbors("B") == ("A",)
    with pytest.raises(KeyError):
        s.neighbors("Z")

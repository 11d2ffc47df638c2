import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ahgnn.cli import dispatch
from ahgnn.graph import (DatasetError, HeteroGraph, load_dataset,
                         manifest_bytes, save_dataset)
from ahgnn.sparse import SparseMatrix
from ahgnn.synth import ToySpec, generate_toy
from oracles import npy_header, npy_record

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


def test_loader_materializes_transpose(tmp_path):
    g = load_dataset(TOY)
    assert ("B", "A") in g.relations
    np.testing.assert_array_equal(g.relations[("B", "A")].to_dense(),
                                  g.relations[("A", "B")].to_dense().T)
    # a manifest that lists B-A, or both directions, reads the one A-B file
    d = _copy_toy(tmp_path)
    for listed in ([["B", "A"]], [["A", "B"], ["B", "A"]]):
        _edit_manifest(d, relations=listed)
        assert load_dataset(d).fingerprint == g.fingerprint


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
    # walk counting and normalization read weights as multiplicities, so
    # a fraction, a stored zero, a negative and a non-finite weight all go
    m = SparseMatrix.from_dense([[1.0, 1.0], [0, 2]])
    for bad in (0.5, 0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DatasetError,
                           match=r"relation \('A', 'B'\) holds weight "
                                 r"\S+; weights are edge multiplicities, "
                                 "finite integers >= 1"):
            HeteroGraph.create(
                ("A", "B"), {"A": 2, "B": 2},
                {"A": np.zeros((2, 1)), "B": np.zeros((2, 1))},
                {("A", "B"): replace(m, values=np.array([1.0, bad, 2.0]))},
                "A", [0, 1], 2, [0, 1])


def test_a_given_reverse_relation_must_be_the_transpose(tmp_path):
    # a dataset stores one direction per type pair, so a reverse relation
    # other than the transpose would be swapped for it by a round trip
    g = small_graph()
    m = g.relations[("A", "B")]
    n = SparseMatrix.from_dense([[1.0, 0, 0], [0, 1, 1]])  # 2 x 3, not m.T
    assert n != m.transpose()
    message = (r"relation \('B', 'A'\) is not the transpose of "
               r"relation \('A', 'B'\)")

    def create(relations):
        return HeteroGraph.create(g.node_types, g.counts, g.features,
                                  relations, g.target_type, g.labels,
                                  g.num_classes, g.splits)

    for relations in ({("A", "B"): m, ("B", "A"): n},
                      {("B", "A"): n, ("A", "B"): m}):
        with pytest.raises(DatasetError, match=message):
            create(relations)
    assert create({("B", "A"): m.transpose(), ("A", "B"): m}).fingerprint \
        == g.fingerprint
    with pytest.raises(DatasetError, match=message):
        save_dataset(replace(g, relations={**g.relations, ("B", "A"): n}),
                     tmp_path / "d")
    assert not (tmp_path / "d").exists()  # refused before any file


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
    g.features["B"] = np.array([[-0.0, 5e-324], [1.7976931348623157e308, 0.0]])
    save_dataset(g, tmp_path / "d")
    g2 = load_dataset(tmp_path / "d")
    for t in g.node_types:  # -0.0 == 0.0, so compare the bits
        assert g2.features[t].tobytes() == g.features[t].tobytes(), t
    assert g2.fingerprint == g.fingerprint


def test_features_written_by_np_save_load(tmp_path):
    d = _copy_toy(tmp_path)
    x = np.array([[1 / 3, -2.0], [np.pi, 0.0], [-0.0, 1e-300]])
    np.save(d / "features_A.npy", x)
    np.testing.assert_array_equal(load_dataset(d).features["A"], x)


def test_feature_file_is_its_header_and_the_raw_values(tmp_path):
    # the heterophily gate's fixture: nothing but 8 bytes per value
    # follows the .npy header, so no feature value is stored as text
    g = generate_toy(ToySpec(n_target=300, n_aux=75, num_classes=4,
                             feature_dim=8, signal=1.0, noise=1.2,
                             edges_per_node=4, train_frac=0.15, val_frac=0.15,
                             tolerance=0.03, homophily=0.5, seed=0))
    save_dataset(g, tmp_path / "d")
    for t in g.node_types:
        n, dim = g.features[t].shape
        assert (tmp_path / "d" / f"features_{t}.npy").stat().st_size == \
            len(npy_header("<f8", (n, dim))) + 8 * n * dim, t


def _scaling_graph():
    """The 1600-node, three-type fixture of the scaling benchmark."""
    return generate_toy(ToySpec(n_target=1600, n_aux=400, num_types=3,
                                num_classes=3, feature_dim=64, tolerance=0.05,
                                homophily=0.7, seed=0))


def test_load_parses_no_text_but_the_manifest(tmp_path, monkeypatch):
    g = _scaling_graph()
    save_dataset(g, tmp_path / "d")
    read = []

    def spy(kind, real):
        def call(source, *args, **kwargs):
            read.append((kind, getattr(source, "name", source)))
            return real(source, *args, **kwargs)
        return call
    monkeypatch.setattr(np, "loadtxt", spy("loadtxt", np.loadtxt))
    for method in ("read_text", "read_bytes"):
        monkeypatch.setattr(Path, method, spy(method, getattr(Path, method)))
    assert load_dataset(tmp_path / "d").fingerprint == g.fingerprint
    assert read == [("read_bytes", "manifest.json")]


def test_edge_file_per_type_pair_is_its_header_and_the_rows(tmp_path):
    # one file per unordered pair, holding 16 bytes per edge row, and an
    # edge of multiplicity k is k rows
    g = _scaling_graph()
    save_dataset(g, tmp_path / "d")
    pairs = {tuple(sorted(k)) for k in g.relations}
    assert len(g.node_types) == 3 and len(pairs) >= 2
    assert sorted(f.name for f in (tmp_path / "d").glob("edges_*")) == \
        sorted(f"edges_{a}_{b}.npy" for a, b in pairs)
    for a, b in pairs:
        rows = int(g.relations[(a, b)].values.sum())
        assert (tmp_path / "d" / f"edges_{a}_{b}.npy").stat().st_size == \
            len(npy_header("<i8", (rows, 2))) + 16 * rows, (a, b)


def test_save_twice_identical_bytes(tmp_path):
    g = small_graph()
    save_dataset(g, tmp_path / "one")
    save_dataset(g, tmp_path / "two")
    for f in sorted(p.name for p in (tmp_path / "one").iterdir()):
        assert (tmp_path / "one" / f).read_bytes() == \
            (tmp_path / "two" / f).read_bytes(), f


def test_duplicate_edges_sum_multiplicities(tmp_path):
    save_dataset(small_graph(), tmp_path / "d")
    edges = np.load(tmp_path / "d" / "edges_A_B.npy")
    assert edges.tolist() == [[0, 0], [0, 1], [1, 0], [1, 0], [2, 1]]
    g2 = load_dataset(tmp_path / "d")
    assert g2.relations[("A", "B")].to_dense()[1, 0] == 2.0
    d = _copy_toy(tmp_path)  # repeated rows in any order are summed
    np.save(d / "edges_A_B.npy", np.array([[2, 1], [0, 0], [2, 1], [2, 1]]))
    np.testing.assert_array_equal(load_dataset(d).relations[("A", "B")]
                                  .to_dense(), [[1, 0], [0, 0], [0, 3]])


def test_manifest_bytes_are_deterministic():
    assert manifest_bytes(small_graph()) == manifest_bytes(small_graph())


def _copy_toy(tmp_path):
    d = tmp_path / "toy"
    d.mkdir(parents=True)
    for f in TOY.iterdir():
        (d / f.name).write_bytes(f.read_bytes())
    return d


def test_missing_manifest_error(tmp_path):
    with pytest.raises(DatasetError, match="manifest.json not found"):
        load_dataset(tmp_path)


def test_feature_shape_mismatch_error(tmp_path):
    d = _copy_toy(tmp_path)
    np.save(d / "features_A.npy", np.array([[1.0, 2.0]]))
    with pytest.raises(DatasetError, match="features_A.npy has shape"):
        load_dataset(d)


def _toy_features(t):
    return np.load(TOY / f"features_{t}.npy")


@pytest.mark.parametrize("content,message", [
    (npy_record(_toy_features("A").astype("<f4")),
     r"features_A\.npy: the feature matrix is not a C-order <f8 array"),
    (npy_record(np.asfortranarray(_toy_features("A"))),
     r"features_A\.npy: the feature matrix is not a C-order <f8 array"),
    (npy_record(_toy_features("A").astype(object), allow_pickle=True),
     r"features_A\.npy: the feature matrix is not a C-order <f8 array"),
    (npy_record(_toy_features("A"))[:-1],
     r"features_A\.npy is truncated: the feature matrix of shape \(3, 2\)"),
    (npy_record(_toy_features("A"))[:20], r"features_A\.npy is truncated"),
    (npy_record(_toy_features("A")) + b"\0",
     r"features_A\.npy has trailing bytes"),
], ids=["f4", "fortran", "pickled-object", "truncated", "truncated-header",
        "trailing"])
def test_malformed_feature_file_error(tmp_path, capsys, content, message):
    d = _copy_toy(tmp_path)
    (d / "features_A.npy").write_bytes(content)
    with pytest.raises(DatasetError, match=message):
        load_dataset(d)
    assert "features_A.npy" in _cli_error(d, capsys)


def test_feature_header_past_the_end_allocates_nothing(tmp_path, capsys):
    # 10**12 rows of two float64 would be 14.6 TiB
    d = _copy_toy(tmp_path)
    (d / "features_A.npy").write_bytes(npy_header("<f8", (10**12, 2)) + bytes(48))
    tracemalloc.start()
    try:
        with pytest.raises(DatasetError, match=r"features_A\.npy is truncated: "
                           r"the feature matrix of shape \(1000000000000, 2\) "
                           "runs past the end"):
            load_dataset(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "features_A.npy is truncated" in _cli_error(d, capsys)


def test_text_feature_file_alone_is_refused_naming_both(tmp_path, capsys):
    # every record kind: the directory holds the old text file alone
    for stem in ("features_A", "edges_A_B", "labels_A", "splits"):
        d = _copy_toy(tmp_path / stem)
        (d / f"{stem}.tsv").write_text("0\t0\n")
        (d / f"{stem}.npy").unlink()
        with pytest.raises(DatasetError, match=rf"^{stem}\.npy not found; "
                           rf"{stem}\.tsv is the old text layout"):
            load_dataset(d)
        err = _cli_error(d, capsys)
        assert f"{stem}.npy" in err and f"{stem}.tsv" in err
        (d / f"{stem}.tsv").unlink()  # with neither file, one name
        with pytest.raises(DatasetError, match=rf"^{stem}\.npy not found$"):
            load_dataset(d)


def test_edge_out_of_range_error(tmp_path, capsys):
    d = _copy_toy(tmp_path)
    for edges, message in (([[0, 0], [1, 9]], r"entry \[1, 1\] of the edge "
                            r"array is 9, outside \[0, 2\)"),
                           ([[0, 0], [3, 1]], r"entry \[1, 0\] of the edge "
                            r"array is 3, outside \[0, 3\)"),
                           ([[-1, 0]], r"entry \[0, 0\] of the edge array "
                            r"is -1, outside \[0, 3\)")):
        np.save(d / "edges_A_B.npy", np.array(edges))
        with pytest.raises(DatasetError, match=r"^edges_A_B\.npy: " + message):
            load_dataset(d)
    assert "edges_A_B.npy: entry [0, 0]" in _cli_error(d, capsys)


def test_unknown_split_tag_error(tmp_path):
    # the tags are the codes 0 (train), 1 (val) and 2 (test)
    d = _copy_toy(tmp_path)
    np.save(d / "splits.npy", np.array([0, 1, 3], dtype=np.int8))
    with pytest.raises(DatasetError, match=r"^splits\.npy: entry \[2\] of "
                       r"the split vector is 3, outside \[0, 3\)"):
        load_dataset(d)


def test_missing_split_row_error(tmp_path):
    d = _copy_toy(tmp_path)
    np.save(d / "splits.npy", np.array([0, 1], dtype=np.int8))
    with pytest.raises(DatasetError, match=r"^splits\.npy has shape \(2,\), "
                       r"expected \(3,\)$"):
        load_dataset(d)


def test_label_out_of_range_error(tmp_path):
    d = _copy_toy(tmp_path)
    for labels, message in (([0, 5, 1], r"entry \[1\] of the label vector "
                             r"is 5, outside \[-1, 2\)"),
                            ([0, 1, -2], r"entry \[2\] of the label vector "
                             r"is -2, outside \[-1, 2\)")):
        np.save(d / "labels_A.npy", np.array(labels))
        with pytest.raises(DatasetError, match=r"^labels_A\.npy: " + message):
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


@pytest.mark.parametrize("raw,where", [
    (b"\xff", "invalid start byte at byte 0"),
    (None, "unexpected end of data at byte"),
], ids=["0xff-first", "truncated-character"])
def test_manifest_that_is_not_utf8_names_the_file(tmp_path, capsys, raw,
                                                  where):
    d = _copy_toy(tmp_path)
    text = (d / "manifest.json").read_bytes()
    # a 0xFF first byte, or a manifest that ends two bytes into the
    # three of U+20AC
    (d / "manifest.json").write_bytes(
        raw + text if raw else text[:-3] + "\u20ac".encode()[:2])
    with pytest.raises(DatasetError, match="^manifest.json is not UTF-8 text"):
        load_dataset(d)
    err = _cli_error(d, capsys)
    assert "manifest.json is not UTF-8 text" in err and where in err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_feature_names_the_file(tmp_path, capsys, value):
    d = _copy_toy(tmp_path)
    x = np.load(d / "features_A.npy")
    x[2, 1] = value
    np.save(d / "features_A.npy", x)
    assert (f"features_A.npy: entry [2, 1] of the feature matrix is {value}, "
            "not finite") in _cli_error(d, capsys)


@pytest.mark.parametrize("name,shape,expected", [
    ("labels_A.npy", (3, 2), "(3,)"), ("edges_A_B.npy", (3, 3), "(nnz, 2)")],
    ids=["labels_A.npy", "edges_A_B.npy"])
def test_extra_column_error(tmp_path, capsys, name, shape, expected):
    d = _copy_toy(tmp_path)
    np.save(d / name, np.zeros(shape, dtype=np.int64))
    assert f"{name} has shape {shape}, expected {expected}" in \
        _cli_error(d, capsys)


def test_non_integer_split_node_error(tmp_path, capsys):
    # a split vector of floats, or of wider integers, is refused
    d = _copy_toy(tmp_path)
    for splits in (np.array([0.0, 1.0, 2.0]), np.array([0, 1, 2])):
        np.save(d / "splits.npy", splits)
        assert "splits.npy: the split vector is not a C-order |i1 array" in \
            _cli_error(d, capsys)


def test_label_out_of_range_cli_error_names_file(tmp_path, capsys):
    d = _copy_toy(tmp_path)
    np.save(d / "labels_A.npy", np.array([0, 9, 1]))
    assert "labels_A.npy: entry [1] of the label vector is 9, outside " \
        "[-1, 2)" in _cli_error(d, capsys)


@pytest.mark.parametrize("value,got", [
    (3.9, "float 3.9"), (2.0, "float 2.0"), ("2", "str '2'"),
    (True, "bool True")], ids=["float", "integral-float", "string", "bool"])
@pytest.mark.parametrize("field", ["counts", "feature_dims"])
def test_per_type_manifest_fields_take_json_integers_only(tmp_path, capsys,
                                                          field, value, got):
    d = _copy_toy(tmp_path)
    man = json.loads((d / "manifest.json").read_text())
    _edit_manifest(d, **{field: {**man[field], "B": value}})
    assert f"manifest.json: {field}['B'] must be an integer, got {got}" \
        in _cli_error(d, capsys)


def test_unlabeled_nodes_default_to_minus_one(tmp_path):
    d = _copy_toy(tmp_path)
    np.save(d / "labels_A.npy", np.array([-1, 1, -1]))
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
    np.save(d / "edges_A_B.npy", np.zeros((0, 2), dtype=np.int64))
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

import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ahgnn.metapath
import ahgnn.propagate
import ahgnn.sparse
from ahgnn.graph import load_dataset
from ahgnn.metapath import enumerate_metapaths
from ahgnn.propagate import (CACHE_MAGIC, CACHE_VERSION, CacheError,
                             MessageCache, build_cache, label_hop_indices,
                             prefix_key, propagate_features, propagate_labels,
                             read_cache, train_label_matrix, write_cache)
from ahgnn.synth import ToySpec, generate_toy
from oracles import (npy_header, npy_record, oracle_messages,
                     random_typed_graph, write_cache_v1, write_container)

TOY = Path(__file__).parent / "data" / "toy"


def dense_normalize(m):
    rs, cs = m.sum(axis=1), m.sum(axis=0)
    out = np.zeros_like(m, dtype=float)
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            if m[i, j] != 0 and rs[i] > 0 and cs[j] > 0:
                out[i, j] = m[i, j] / np.sqrt(rs[i] * cs[j])
    return out


def feature_hops(g, l1):
    """Per-path hop lists over the messages of propagate_features."""
    return MessageCache(l1=l1, l2=1, fingerprint=g.fingerprint,
                        feature_messages=propagate_features(g, l1)
                        ).feature_entries


def test_hop_zero_is_raw_features():
    g = load_dataset(TOY)
    feats = feature_hops(g, 2)
    for key in feats:
        np.testing.assert_array_equal(feats[key][0], g.features["A"])


def test_trivial_path_has_single_hop():
    g = load_dataset(TOY)
    feats = feature_hops(g, 2)
    assert "A" in feats
    assert len(feats["A"]) == 1


def test_hop_one_matches_dense_oracle_exactly():
    g = load_dataset(TOY)
    feats = feature_hops(g, 2)
    ab = dense_normalize(g.relations[("A", "B")].to_dense())
    np.testing.assert_array_equal(feats["A-B"][1], ab @ g.features["B"])


def test_deep_hops_match_dense_oracle():
    for seed in (0, 3, 5):
        g = random_typed_graph(seed)
        feats = feature_hops(g, 3)
        for key, hops in feats.items():
            types = key.split("-")
            prod = np.eye(g.n("A"))
            for l in range(1, len(types)):
                prod = prod @ dense_normalize(
                    g.relations[(types[l - 1], types[l])].to_dense())
                np.testing.assert_allclose(
                    hops[l], prod @ g.features[types[l]],
                    rtol=1e-12, atol=1e-12)


def test_train_label_matrix_one_hot_train_rows_only():
    g = load_dataset(TOY)  # labels [0,0,1], splits [train,val,test]
    y = train_label_matrix(g)
    np.testing.assert_array_equal(y, [[1, 0], [0, 0], [0, 0]])


def test_label_paths_end_at_target_and_skip_hop_zero():
    g = load_dataset(TOY)
    assert list(propagate_labels(g, 2)) == ["A-B-A"]
    labs = build_cache(g, 2, 2).label_entries
    assert len(labs["A-B-A"]) == 1  # hop 2 only; no hop-0 identity
    assert label_hop_indices("A-B-A", "A") == [2]
    assert label_hop_indices("A-B-A-B-A", "A") == [2, 4]
    assert label_hop_indices("A-B-C-A", "A") == [3]


def test_label_hop_matches_dense_oracle():
    g = load_dataset(TOY)
    labs = build_cache(g, 2, 2).label_entries
    ab = dense_normalize(g.relations[("A", "B")].to_dense())
    ba = dense_normalize(g.relations[("B", "A")].to_dense())
    np.testing.assert_allclose(labs["A-B-A"][0],
                               ab @ ba @ train_label_matrix(g),
                               rtol=1e-13, atol=1e-15)


def test_label_depth_four_hop_positions():
    g = generate_toy(ToySpec(n_target=20, n_aux=10, num_classes=2,
                             homophily=1.0, seed=0))
    labs = build_cache(g, 1, 4).label_entries
    assert list(labs) == ["A-B-A", "A-B-A-B-A"]
    assert len(labs["A-B-A-B-A"]) == 2  # target positions 2 and 4


def test_propagate_labels_needs_train_nodes():
    g = load_dataset(TOY)
    g.splits = np.array([1, 1, 2], dtype=np.int8)  # no train rows
    with pytest.raises(ValueError, match="train split"):
        propagate_labels(g, 2)


def test_propagate_depth_validation():
    g = load_dataset(TOY)
    with pytest.raises(ValueError, match="l1"):
        propagate_features(g, 0)
    with pytest.raises(ValueError, match="l2"):
        propagate_labels(g, 0)


def outcome(fn, *args):
    """fn's result, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except Exception as e:  # equal errors count as a match
        return type(e), str(e)


def test_messages_match_walk_product_oracle(monkeypatch):
    for seed in range(60):
        g = random_typed_graph(seed)
        for depth in range(1, 5):
            for fn in (propagate_features, propagate_labels):
                got = outcome(fn, g, depth)
                with monkeypatch.context() as m:
                    m.setattr(ahgnn.propagate, "_messages", oracle_messages)
                    want = outcome(fn, g, depth)
                if isinstance(want, tuple):
                    assert got == want, (seed, depth, fn.__name__)
                    continue
                assert list(got) == list(want), (seed, depth, fn.__name__)
                for key, w in want.items():
                    np.testing.assert_allclose(
                        got[key], w, rtol=1e-12,
                        atol=1e-12 * np.abs(w).max(initial=0.0),
                        err_msg=f"seed {seed}, depth {depth}, path {key}")


def test_build_cache_forms_no_sparse_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("build_cache formed a sparse-sparse product")

    for module in (ahgnn.sparse, ahgnn.metapath, ahgnn.propagate):
        monkeypatch.setattr(module, "spspmm", refuse, raising=False)
    for num_types in (2, 3):
        g = generate_toy(ToySpec(n_target=24, n_aux=8, num_types=num_types,
                                 homophily=1.0, seed=0))
        build_cache(g, 4, 4)


def spmm_operands(monkeypatch, g, l1, l2):
    """Sparse operands of the spmm calls of one build_cache."""
    operands = []
    spmm = ahgnn.propagate.spmm
    with monkeypatch.context() as m:
        m.setattr(ahgnn.propagate, "spmm",
                  lambda a, x: operands.append(a) or spmm(a, x))
        build_cache(g, l1, l2)
    return operands


def test_one_spmm_per_distinct_suffix(monkeypatch):
    # suffixes of >= 2 types, per half. Gate schema (A-B, l1=4, l2=2):
    # features A-B, B-A, A-B-A, B-A-B, A-B-A-B, B-A-B-A, A-B-A-B-A;
    # labels B-A, A-B-A.  Scaling schema (A-B, A-C, l1=3, l2=2): features
    # 4 of 2 types, 6 of 3, 4 of 4; labels B-A, C-A, A-B-A, A-C-A.
    def calls(num_types, l1, l2):
        g = generate_toy(ToySpec(n_target=24, n_aux=8, num_types=num_types,
                                 homophily=1.0, seed=0))
        return len(spmm_operands(monkeypatch, g, l1, l2))

    assert calls(2, 4, 2) == 7 + 2
    assert calls(3, 3, 2) == 14 + 4


def test_propagation_work_doubles_with_the_edges(monkeypatch):
    # the linearity gate's fixtures: doubling the nodes at fixed degree
    # doubles the edges, so a linear propagation doubles the sparse
    # entries its products read, exactly and independent of the clock
    def spmm_nnz(n):
        g = generate_toy(ToySpec(n_target=n, n_aux=n // 4, num_classes=3,
                                 homophily=0.7, feature_dim=8,
                                 edges_per_node=4, seed=0))
        return sum(a.nnz for a in spmm_operands(monkeypatch, g, 3, 2))

    base = spmm_nnz(800)
    assert base == 22_400
    assert spmm_nnz(1600) == 2 * base


def test_cache_round_trip_and_determinism(tmp_path):
    g = load_dataset(TOY)
    cache = build_cache(g, 2, 2)
    p1, p2 = tmp_path / "a.ahgc", tmp_path / "b.ahgc"
    write_cache(cache, p1)
    write_cache(cache, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = read_cache(p1, expect_fingerprint=g.fingerprint,
                      expect_l1=2, expect_l2=2)
    assert back.l1 == 2 and back.l2 == 2
    assert back.fingerprint == g.fingerprint
    assert list(back.feature_entries) == sorted(cache.feature_entries)
    for key in cache.feature_entries:
        for a, b in zip(cache.feature_entries[key], back.feature_entries[key]):
            np.testing.assert_array_equal(a, b)
    for key in cache.label_entries:
        for a, b in zip(cache.label_entries[key], back.label_entries[key]):
            np.testing.assert_array_equal(a, b)


def test_cache_stale_fingerprint(tmp_path):
    g = load_dataset(TOY)
    write_cache(build_cache(g, 2, 2), tmp_path / "c.ahgc")
    with pytest.raises(CacheError, match="stale cache"):
        read_cache(tmp_path / "c.ahgc", expect_fingerprint=g.fingerprint ^ 1)


def test_cache_stale_depth(tmp_path):
    g = load_dataset(TOY)
    write_cache(build_cache(g, 3, 2), tmp_path / "c.ahgc")
    with pytest.raises(CacheError, match="built for L1=3"):
        read_cache(tmp_path / "c.ahgc", expect_l1=4)


def test_cache_bad_magic(tmp_path):
    (tmp_path / "c.ahgc").write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(CacheError, match="bad magic"):
        read_cache(tmp_path / "c.ahgc")


def test_cache_truncated(tmp_path):
    g = load_dataset(TOY)
    write_cache(build_cache(g, 2, 2), tmp_path / "c.ahgc")
    raw = (tmp_path / "c.ahgc").read_bytes()
    (tmp_path / "c.ahgc").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CacheError, match="truncated"):
        read_cache(tmp_path / "c.ahgc")


def test_cache_truncated_in_its_meta(tmp_path):
    g = load_dataset(TOY)
    write_cache(build_cache(g, 2, 2), tmp_path / "c.ahgc")
    raw = (tmp_path / "c.ahgc").read_bytes()
    (tmp_path / "c.ahgc").write_bytes(raw[:20])  # 8 bytes into the meta
    with pytest.raises(CacheError, match=r"cache file c\.ahgc is truncated$"):
        read_cache(tmp_path / "c.ahgc")


def test_cache_trailing_bytes(tmp_path):
    g = load_dataset(TOY)
    write_cache(build_cache(g, 2, 2), tmp_path / "c.ahgc")
    raw = (tmp_path / "c.ahgc").read_bytes()
    (tmp_path / "c.ahgc").write_bytes(raw + b"junk")
    with pytest.raises(CacheError, match="trailing"):
        read_cache(tmp_path / "c.ahgc")


def test_cache_missing_file(tmp_path):
    with pytest.raises(CacheError, match="not found"):
        read_cache(tmp_path / "nope.ahgc")


def test_take_rows_and_astype():
    g = load_dataset(TOY)
    cache = build_cache(g, 2, 2)
    sub = cache.take_rows(np.array([2, 0]))
    assert sub.n_target == 2
    np.testing.assert_array_equal(sub.feature_entries["A"][0],
                                  g.features["A"][[2, 0]])
    f32 = cache.astype(np.float32)
    assert f32.feature_entries["A"][0].dtype == np.float32
    assert cache.feature_entries["A"][0].dtype == np.float64  # original intact


def test_cache_metadata_properties():
    g = load_dataset(TOY)
    cache = build_cache(g, 2, 2)
    assert cache.target_type == "A"
    assert cache.n_target == 3
    assert cache.num_classes == 2


def stored_counts(num_types, l1, l2):
    """(feature, label) matrices stored for a toy schema of num_types types."""
    g = generate_toy(ToySpec(n_target=24, n_aux=8, num_types=num_types,
                             homophily=1.0, seed=0))
    cache = build_cache(g, l1, l2)
    return len(cache.feature_messages), len(cache.label_messages)


def test_one_stored_matrix_per_path():
    # the path set depends only on the schema and the depths: two types
    # (A-B) at l1=4, l2=2 is the gate fixture's, three types (a star around
    # A) at l1=3, l2=2 the scaling fixture's
    assert CACHE_VERSION == 4
    assert stored_counts(2, 4, 2) == (5, 1)
    assert stored_counts(3, 3, 2) == (9, 2)


def assert_hops_are_stored_prefixes(cache):
    feats, labs = cache.feature_messages, cache.label_messages
    for key, hops in cache.feature_entries.items():
        assert len(hops) == key.count("-") + 1
        for l, h in enumerate(hops):
            assert h is feats[prefix_key(key, l)]
    for key, hops in cache.label_entries.items():
        idx = label_hop_indices(key, cache.target_type)
        assert len(hops) == len(idx) and idx[-1] == key.count("-")
        for hop, h in zip(idx, hops):
            assert h is labs[prefix_key(key, hop)]


def test_hop_views_are_the_stored_prefix_matrices(tmp_path):
    g = generate_toy(ToySpec(n_target=20, n_aux=10, num_classes=2,
                             homophily=1.0, seed=0))
    cache = build_cache(g, 4, 4)
    assert_hops_are_stored_prefixes(cache)
    write_cache(cache, tmp_path / "c.ahgc")
    back = read_cache(tmp_path / "c.ahgc")
    assert_hops_are_stored_prefixes(back)
    sub = back.take_rows(np.array([3, 1, 4])).astype(np.float32)
    assert_hops_are_stored_prefixes(sub)
    assert sub.feature_entries["A-B-A"][2].dtype == np.float32
    # one copy per stored matrix, none shared with the source
    assert not any(np.shares_memory(sub.feature_messages[k], m)
                   for k, m in back.feature_messages.items())


def test_version_one_cache_asks_for_regeneration(tmp_path):
    g = load_dataset(TOY)
    path = tmp_path / "v1.ahgc"
    write_cache_v1(build_cache(g, 2, 2), path)
    with pytest.raises(CacheError, match="regenerate with `ahgnn precompute`"):
        read_cache(path)
    with pytest.raises(CacheError, match="version 1 cache"):
        read_cache(path, expect_fingerprint=g.fingerprint)


def test_version_three_cache_asks_for_regeneration(tmp_path):
    # the last hand-packed layout: u64 fingerprint, u32 l1, l2 and count
    # after the version, then kind-tagged entries (none here)
    path = tmp_path / "v3.ahgc"
    path.write_bytes(CACHE_MAGIC + struct.pack("<IQIII", 3, 7, 2, 2, 0))
    with pytest.raises(CacheError, match=r"v3\.ahgc is a version 3 cache; "
                       r"this build reads version 4: regenerate with "
                       r"`ahgnn precompute`"):
        read_cache(path)


def test_cache_layout_is_the_container_byte_for_byte(tmp_path):
    cache = build_cache(load_dataset(TOY), 2, 2)
    write_cache(cache, tmp_path / "c.ahgc")
    feats, labs = sorted(cache.feature_messages), sorted(cache.label_messages)
    write_container(tmp_path / "ref.ahgc", CACHE_MAGIC, 4, {
        "fingerprint": cache.fingerprint, "l1": 2, "l2": 2,
        "features": feats, "labels": labs},
        [npy_record(cache.feature_messages[k]) for k in feats]
        + [npy_record(cache.label_messages[k]) for k in labs])
    assert (tmp_path / "c.ahgc").read_bytes() == \
        (tmp_path / "ref.ahgc").read_bytes()


def write_one_message_cache(path, meta=None, records=None) -> None:
    """A cache container holding feature path A alone, as given."""
    meta = {"fingerprint": 1, "l1": 1, "l2": 1, "features": ["A"],
            "labels": []} if meta is None else meta
    records = [npy_record(np.ones((3, 2)))] if records is None else records
    write_container(path, CACHE_MAGIC, CACHE_VERSION, meta, records)


def test_one_message_cache_reads_back(tmp_path):
    write_one_message_cache(tmp_path / "c.ahgc")
    back = read_cache(tmp_path / "c.ahgc")
    np.testing.assert_array_equal(back.feature_messages["A"], np.ones((3, 2)))
    assert back.feature_messages["A"].flags.writeable


def test_cache_array_past_the_end_is_truncated_and_allocates_nothing(tmp_path):
    # a header declaring 72.8 TiB; numpy left to itself would try to
    # allocate them and raise MemoryError
    path = tmp_path / "huge.ahgc"
    write_one_message_cache(path, records=[npy_header("<f8", (10**7, 10**6))])
    tracemalloc.start()
    try:
        with pytest.raises(CacheError, match=r"cache file huge\.ahgc is "
                           r"truncated: array 0 of shape \(10000000, "
                           r"1000000\) runs past the end"):
            read_cache(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("record", [
    npy_record(np.array([{"a": 1}, None], dtype=object), allow_pickle=True),
    npy_record(np.ones((3, 2), dtype="<f4")),
    npy_record(np.ones((3, 2), dtype=">f8")),
    npy_record(np.ones((3, 2), dtype="<i8")),
    npy_record(np.asfortranarray(np.ones((3, 2)))),
    npy_header("<f8", (-1, 2)) + bytes(48),
    npy_record(np.ones((3, 2)))[:8].replace(b"\x01", b"\x02") + bytes(120),
    b"PK\x03\x04" + bytes(124),
], ids=["pickled-object", "f4", "big-endian", "int", "fortran", "negative",
        "npy-2.0", "not-npy"])
def test_cache_array_of_another_kind_is_refused(tmp_path, record):
    write_one_message_cache(tmp_path / "c.ahgc", records=[record])
    with pytest.raises(CacheError, match=r"cache file c\.ahgc: array 0 is not "
                       r"a C-order <f8 array in \.npy format 1\.0"):
        read_cache(tmp_path / "c.ahgc")


@pytest.mark.parametrize("array", [np.ones(3), np.ones((3, 2, 1)),
                                   np.float64(1.0)], ids=["1d", "3d", "0d"])
def test_cache_message_that_is_not_a_matrix_is_refused(tmp_path, array):
    write_one_message_cache(tmp_path / "c.ahgc", records=[npy_record(array)])
    with pytest.raises(CacheError, match=r"cache file c\.ahgc: message A has "
                       r"shape .*, not \(rows, columns\)"):
        read_cache(tmp_path / "c.ahgc")


@pytest.mark.parametrize("meta", [
    b"[1, 2]", b"not json", b"\xff\xfe", b"null",
], ids=["list", "not-json", "not-utf8", "null"])
def test_cache_meta_that_is_not_an_object_is_refused(tmp_path, meta):
    write_one_message_cache(tmp_path / "c.ahgc", meta=meta)
    with pytest.raises(CacheError, match=r"cache file c\.ahgc: meta is not a "
                       "JSON object"):
        read_cache(tmp_path / "c.ahgc")


@pytest.mark.parametrize("field", ["fingerprint", "l1", "l2", "features",
                                   "labels"])
def test_cache_meta_lacking_a_field_is_refused(tmp_path, field):
    meta = {"fingerprint": 1, "l1": 1, "l2": 1, "features": ["A"],
            "labels": []}
    del meta[field]
    write_one_message_cache(tmp_path / "c.ahgc", meta=meta)
    with pytest.raises(CacheError, match=r"cache file c\.ahgc: meta is not a "
                       rf"JSON object with fields .*'{field}'"):
        read_cache(tmp_path / "c.ahgc")


@pytest.mark.parametrize("features", ["A", [1], ["A", "A"], [["A"]]])
def test_cache_meta_names_that_are_not_distinct_keys_are_refused(tmp_path,
                                                                 features):
    meta = {"fingerprint": 1, "l1": 1, "l2": 1, "features": features,
            "labels": []}
    write_one_message_cache(tmp_path / "c.ahgc", meta=meta)
    with pytest.raises(CacheError, match=r"cache file c\.ahgc: meta fields "
                       r"\('features', 'labels'\) must list distinct names"):
        read_cache(tmp_path / "c.ahgc")


def test_build_cache_normalizes_each_relation_once(monkeypatch):
    real = ahgnn.metapath.normalize_relation
    calls = []
    monkeypatch.setattr(ahgnn.metapath, "normalize_relation",
                        lambda m: calls.append(m) or real(m))
    for num_types, l1, l2 in ((2, 4, 2), (3, 3, 2)):
        g = generate_toy(ToySpec(n_target=24, n_aux=8, num_types=num_types,
                                 homophily=1.0, seed=0))
        target = g.target_type
        paths = enumerate_metapaths(g.schema(), target, l1) + \
            enumerate_metapaths(g.schema(), target, l2, end=target,
                                include_trivial=False)
        read = {p.types[i:i + 2] for p in paths for i in range(p.steps)}
        calls.clear()
        cache = build_cache(g, l1, l2)
        assert sorted(id(m) for m in calls) == \
            sorted(id(g.relation(*r)) for r in read), num_types
        # ... and the messages are the ones each propagation builds alone
        for built, alone in ((cache.feature_messages, propagate_features(g, l1)),
                             (cache.label_messages, propagate_labels(g, l2))):
            assert list(built) == list(alone)
            for key in alone:
                np.testing.assert_array_equal(built[key], alone[key])


def test_cache_missing_a_prefix_is_rejected(tmp_path):
    g = load_dataset(TOY)
    cache = build_cache(g, 2, 2)
    del cache.feature_messages["A-B"]
    write_cache(cache, tmp_path / "c.ahgc")
    with pytest.raises(CacheError, match="lacks the message of path A-B"):
        read_cache(tmp_path / "c.ahgc")


@pytest.mark.parametrize("kind,axis", [(0, 0), (1, 0), (1, 1)])
def test_cache_messages_that_disagree_in_shape_are_rejected(tmp_path, kind,
                                                            axis):
    # every message has one row per target node and every label message
    # one column per class; a message cut short along either is named
    cache = build_cache(load_dataset(TOY), 2, 4)
    store = (cache.feature_messages, cache.label_messages)[kind]
    key = max(store)
    store[key] = store[key][:-1] if axis == 0 else store[key][:, :-1]
    write_cache(cache, tmp_path / "c.ahgc")
    what = ("rows", "columns")[axis]
    with pytest.raises(CacheError,
                       match=rf"c\.ahgc: message {key} has \d+ {what}"):
        read_cache(tmp_path / "c.ahgc")


# ------------------------------------------------- reading selected rows

# the determinism gate's dataset and depths, and the heterophily gate's
READ_FIXTURES = {
    "determinism": (dict(n_target=24, n_aux=12, num_classes=2, feature_dim=3,
                         edges_per_node=2, homophily=1.0, seed=0), 2, 2),
    "gate": (dict(n_target=300, n_aux=75, num_classes=4, feature_dim=8,
                  noise=1.2, edges_per_node=4, train_frac=0.15, val_frac=0.15,
                  tolerance=0.03, homophily=0.5, seed=0), 4, 2),
}


@pytest.fixture(scope="module", params=sorted(READ_FIXTURES))
def written_cache(request, tmp_path_factory):
    spec, l1, l2 = READ_FIXTURES[request.param]
    path = tmp_path_factory.mktemp(request.param) / "c.ahgc"
    cache = build_cache(generate_toy(ToySpec(**spec)), l1, l2)
    write_cache(cache, path)
    return path, cache.n_target


@pytest.mark.parametrize("pick", ["sorted", "unsorted", "single"])
def test_read_cache_rows_equals_take_rows_of_the_full_read(written_cache,
                                                           pick):
    path, n = written_cache
    rng = np.random.default_rng(1)
    rows = {"sorted": np.sort(rng.choice(n, n // 3, replace=False)),
            "unsorted": rng.permutation(n)[: n // 2],
            "single": np.array([n - 1])}[pick]
    want = read_cache(path).take_rows(rows)
    got = read_cache(path, rows=rows)
    assert (got.l1, got.l2, got.fingerprint) == \
        (want.l1, want.l2, want.fingerprint)
    for ours, theirs in ((got.feature_messages, want.feature_messages),
                         (got.label_messages, want.label_messages)):
        assert list(ours) == list(theirs)
        for key in theirs:
            assert ours[key].dtype == theirs[key].dtype
            assert ours[key].flags.c_contiguous
            assert ours[key].tobytes() == theirs[key].tobytes(), key


def test_read_cache_rows_keeps_every_malformed_file_check(tmp_path):
    g = load_dataset(TOY)
    rows = np.array([1, 0])
    write_cache(build_cache(g, 2, 2), tmp_path / "c.ahgc")
    raw = (tmp_path / "c.ahgc").read_bytes()
    (tmp_path / "c.ahgc").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CacheError, match="truncated"):
        read_cache(tmp_path / "c.ahgc", rows=rows)
    for array in (np.ones(5), np.ones((5, 2, 1)), np.float64(1.0)):
        write_one_message_cache(tmp_path / "c.ahgc", records=[npy_record(array)])
        with pytest.raises(CacheError, match=r"c\.ahgc: message A has "
                           r"shape .*, not \(rows, columns\)"):
            read_cache(tmp_path / "c.ahgc", rows=rows)
    cache = build_cache(g, 2, 4)
    key = max(cache.label_messages)
    cache.label_messages[key] = cache.label_messages[key][:-1]
    write_cache(cache, tmp_path / "c.ahgc")
    with pytest.raises(CacheError, match=rf"c\.ahgc: message {key} has "
                       rf"{g.n_target - 1} rows"):
        read_cache(tmp_path / "c.ahgc", rows=rows)
    cache = build_cache(g, 2, 2)
    del cache.feature_messages["A-B"]
    write_cache(cache, tmp_path / "c.ahgc")
    with pytest.raises(CacheError, match="lacks the message of path A-B"):
        read_cache(tmp_path / "c.ahgc", rows=rows)


@pytest.mark.parametrize("bad", [-1, "n"])
def test_read_cache_row_outside_the_stored_rows_names_the_file(tmp_path, bad):
    g = load_dataset(TOY)
    write_cache(build_cache(g, 2, 2), tmp_path / "c.ahgc")
    bad = g.n_target if bad == "n" else bad
    with pytest.raises(CacheError, match=rf"cache file c\.ahgc: row {bad} is "
                       rf"outside its {g.n_target} stored rows"):
        read_cache(tmp_path / "c.ahgc", rows=np.array([0, bad, 1]))


def test_read_cache_rows_holds_one_full_array_at_a_time(tmp_path):
    # three 1 MiB messages; a read that kept each until the end would
    # peak at three of them
    n, cols = 2048, 64
    rng = np.random.default_rng(0)
    big = MessageCache(l1=2, l2=2, fingerprint=1, feature_messages={
        k: rng.normal(size=(n, cols)) for k in ("A", "A-B", "A-B-A")},
        label_messages={"A-B-A": rng.normal(size=(n, 3))})
    write_cache(big, tmp_path / "c.ahgc")
    rows = rng.permutation(n)[:50]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cache = read_cache(tmp_path / "c.ahgc", rows=rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(m.nbytes for d in (cache.feature_messages, cache.label_messages)
               for m in d.values())
    assert peak - held <= n * cols * 8 + (64 << 10), peak - held


# ------------------------------------------------ streaming the cache out

def streamed_and_stored(g, l1, l2, tmp_path) -> tuple[bytes, bytes]:
    """Cache bytes written as the messages are built, and from memory."""
    write_cache(build_cache(g, l1, l2, stream=True), tmp_path / "s.ahgc")
    write_cache(build_cache(g, l1, l2), tmp_path / "m.ahgc")
    return (tmp_path / "s.ahgc").read_bytes(), (tmp_path / "m.ahgc").read_bytes()


def test_streamed_cache_equals_the_in_memory_write_on_random_graphs(tmp_path):
    # self relations, aux-to-aux relations and -1 labels; a graph with no
    # labeled train node fails both ways before anything is built
    for seed in range(20):
        g = random_typed_graph(seed)
        for l1 in (1, 2, 3):
            for l2 in (1, 2, 3):
                want = outcome(build_cache, g, l1, l2)
                if isinstance(want, tuple):
                    assert outcome(lambda: build_cache(g, l1, l2,
                                                       stream=True)) == want
                    continue
                streamed, stored = streamed_and_stored(g, l1, l2, tmp_path)
                assert streamed == stored, (seed, l1, l2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ahgc", "s.ahgc"]


@pytest.mark.parametrize("fixture", ["gate", "three_types"])
def test_streamed_cache_equals_the_in_memory_write(fixture, tmp_path):
    spec, l1, l2 = {**READ_FIXTURES, "three_types": (dict(
        n_target=60, n_aux=20, num_types=3, num_classes=3, feature_dim=5,
        homophily=0.6, tolerance=0.1, seed=0), 3, 2)}[fixture]
    streamed, stored = streamed_and_stored(generate_toy(ToySpec(**spec)),
                                           l1, l2, tmp_path)
    assert streamed == stored


def test_precompute_holds_a_few_messages_at_a_time(tmp_path):
    # nine feature paths of 400 x 128 float64 (400 KiB each); keeping
    # every message until the write, as an in-memory build does, peaks
    # at nine of them
    from ahgnn.cli import dispatch
    from ahgnn.graph import save_dataset
    g = generate_toy(ToySpec(n_target=400, n_aux=100, num_types=3,
                             num_classes=3, feature_dim=128, edges_per_node=2,
                             homophily=0.6, tolerance=0.2, seed=0))
    assert len(enumerate_metapaths(g.schema(), g.target_type, 3)) >= 9
    save_dataset(g, tmp_path / "data")
    message = g.n_target * 128 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = load_dataset(tmp_path / "data")
        dataset = tracemalloc.get_traced_memory()[0] - start
        del g
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert dispatch(["precompute", "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "c.ahgc"), "--l1", "3",
                         "--l2", "2"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak - dataset <= 3 * message + (64 << 10), \
        (peak - dataset) / message


def test_a_write_that_fails_leaves_the_old_file_and_no_other(tmp_path):
    g = load_dataset(TOY)
    path = tmp_path / "c.ahgc"
    write_cache(build_cache(g, 2, 2), path)
    before = path.read_bytes()
    full = build_cache(g, 2, 2, stream=True)
    short = full._replace(messages=iter(list(full.messages)[1:]))
    with pytest.raises(ValueError, match=r"no array given for records \[\d+\]"):
        write_cache(short, path)
    bad = build_cache(g, 2, 2, stream=True)
    bad = bad._replace(messages=((i, m[:-1]) for i, m in bad.messages))
    with pytest.raises(ValueError, match="does not fill an open record"):
        write_cache(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.ahgc"]

from pathlib import Path

import numpy as np
import pytest

import ahgnn.metapath
import ahgnn.propagate
import ahgnn.sparse
from ahgnn.graph import load_dataset
from ahgnn.propagate import (CACHE_VERSION, CacheError, MessageCache,
                             build_cache, label_hop_indices, prefix_key,
                             propagate_features, propagate_labels, read_cache,
                             train_label_matrix, write_cache)
from ahgnn.synth import ToySpec, generate_toy
from oracles import oracle_messages, random_typed_graph, write_cache_v1

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


def spmm_calls(monkeypatch, num_types, l1, l2):
    """spmm calls of one build_cache on a toy schema of num_types types."""
    g = generate_toy(ToySpec(n_target=24, n_aux=8, num_types=num_types,
                             homophily=1.0, seed=0))
    calls = []
    spmm = ahgnn.propagate.spmm
    with monkeypatch.context() as m:
        m.setattr(ahgnn.propagate, "spmm",
                  lambda a, x: calls.append(a.shape) or spmm(a, x))
        build_cache(g, l1, l2)
    return len(calls)


def test_one_spmm_per_distinct_suffix(monkeypatch):
    # suffixes of >= 2 types, per half. Gate schema (A-B, l1=4, l2=2):
    # features A-B, B-A, A-B-A, B-A-B, A-B-A-B, B-A-B-A, A-B-A-B-A;
    # labels B-A, A-B-A.  Scaling schema (A-B, A-C, l1=3, l2=2): features
    # 4 of 2 types, 6 of 3, 4 of 4; labels B-A, C-A, A-B-A, A-C-A.
    assert spmm_calls(monkeypatch, 2, 4, 2) == 7 + 2
    assert spmm_calls(monkeypatch, 3, 3, 2) == 14 + 4


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
    assert CACHE_VERSION == 3
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

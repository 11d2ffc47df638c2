import math
import struct

import numpy as np
import pytest

import ahgnn.autodiff as ad
from ahgnn.autodiff import Tensor
from ahgnn.model import (ATTENTION_WEIGHTS, CHECKPOINT_MAGIC, CheckpointError,
                         beta_table,
                         gamma_table, influence_factors, init_gamma,
                         init_model_params, load_checkpoint, model_forward,
                         multi_head_attention, path_embeddings,
                         assemble_tokens, predict_logits,
                         restore_model_params, save_checkpoint, token_layout)
from ahgnn.propagate import (MessageCache, build_cache, propagate_features,
                             propagate_labels)
from ahgnn.synth import ToySpec, generate_toy
from ahgnn.train import training_loss
from oracles import (npy_record, oracle_init_params, oracle_path_embeddings,
                     random_typed_graph, write_container)


def small_setup(dtype=np.float64, hidden=8, heads=2, l1=2, l2=2, seed=0,
                fix_gamma=False):
    g = generate_toy(ToySpec(n_target=12, n_aux=6, num_classes=2,
                             homophily=1.0, feature_dim=3, edges_per_node=2,
                             seed=seed))
    cache = build_cache(g, l1, l2).astype(dtype)
    params = init_model_params(cache, hidden=hidden, heads=heads, alpha=0.4,
                               rng=np.random.default_rng(seed), dtype=dtype,
                               fix_gamma=fix_gamma)
    return g, cache, params


def test_init_gamma_frozen_values():
    np.testing.assert_allclose(init_gamma(0.25, 3),
                               [0.25, 0.1875, 0.140625, 0.421875],
                               rtol=0, atol=0)
    np.testing.assert_allclose(init_gamma(0.5, 0), [1.0], rtol=0, atol=0)


def test_init_gamma_grid_sums_to_one_all_positive():
    for alpha in (0.25, 0.4, 0.6, 0.85):
        for hops in (2, 3, 4):
            g = init_gamma(alpha, hops)
            assert g.shape == (hops + 1,)
            assert abs(g.sum() - 1.0) < 1e-12
            assert np.all(g > 0)


def test_init_gamma_validation():
    with pytest.raises(ValueError, match="alpha"):
        init_gamma(0.0, 2)
    with pytest.raises(ValueError, match="alpha"):
        init_gamma(1.0, 2)
    with pytest.raises(ValueError, match="hops"):
        init_gamma(0.5, -1)


def test_init_params_shapes_and_names():
    _, cache, params = small_setup()
    named = params.tensors
    assert "gamma.A" in named and named["gamma.A"].shape == (1,)
    assert named["gamma.A-B-A"].shape == (3,)
    assert named["fproj.A.w"].shape == (3, 8)
    assert named["lgamma.A-B-A"].shape == (1,)
    assert named["lproj.A-B-A.2.w"].shape == (2, 8)
    assert named["gate"].shape == ()
    assert named["cls.w"].shape == (8, 2)
    # every parameter carries its own flat name
    for name, tsr in named.items():
        assert tsr.name == name


@pytest.mark.parametrize("num_types", [2, 3])
@pytest.mark.parametrize("fix_gamma", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_params_match_oracle_table(num_types, fix_gamma, dtype):
    # pins the table order and the rng draw order a checkpoint relies on
    g = generate_toy(ToySpec(n_target=12, n_aux=6, num_types=num_types,
                             num_classes=3, homophily=1.0, feature_dim=3,
                             edges_per_node=2, seed=0))
    cache = build_cache(g, 3, 4).astype(dtype)
    params = init_model_params(cache, hidden=8, heads=2, alpha=0.3,
                               rng=np.random.default_rng(4), dtype=dtype,
                               fix_gamma=fix_gamma, num_classes=3)
    rows = oracle_init_params(cache, 8, 0.3, np.random.default_rng(4), dtype,
                              fix_gamma, 3)
    named = params.tensors
    assert list(named) == [name for name, _, _ in rows]
    for name, ref, trainable in rows:
        t = named[name]
        assert t.name == name and t.requires_grad is trainable, name
        assert t.data.dtype == ref.dtype == dtype, name
        assert t.data.shape == ref.shape and t.data.tobytes() == ref.tobytes(), name


def test_hidden_must_divide_heads():
    _, cache, _ = small_setup()
    with pytest.raises(ValueError, match="multiple of"):
        init_model_params(cache, hidden=9, heads=2, alpha=0.4,
                          rng=np.random.default_rng(0))


def test_fix_gamma_pins_ones_and_freezes():
    _, cache, params = small_setup(fix_gamma=True)
    for tsr in (params.tensors[t.gamma] for t in token_layout(cache)):
        np.testing.assert_array_equal(tsr.data, np.ones_like(tsr.data))
        assert tsr.requires_grad is False


def test_one_hot_gamma_selects_single_hop():
    _, cache, params = small_setup()
    params.tensors["gamma.A-B-A"].data = np.array([0.0, 0.0, 1.0])
    keys, embs = path_embeddings(cache, params)
    i = keys.index("A-B-A")
    s = cache.feature_entries["A-B-A"][2]
    w, b = (params.tensors[f"fproj.A-B-A.{p}"].data for p in "wb")
    np.testing.assert_allclose(embs[i].data, s @ w + b,
                               rtol=1e-12, atol=1e-14)


def test_prefix_projection_is_shared():
    _, cache, params = small_setup()
    before = {k: e.data.copy()
              for k, e in zip(*path_embeddings(cache, params))}
    params.tensors["fproj.A-B.w"].data = params.tensors["fproj.A-B.w"].data + 1.0
    after = {k: e.data.copy()
             for k, e in zip(*path_embeddings(cache, params))}
    # hop 1 of A-B and hop 1 of A-B-A both read the "A-B" projection
    assert not np.allclose(before["A-B"], after["A-B"])
    assert not np.allclose(before["A-B-A"], after["A-B-A"])
    # paths not passing through that prefix are untouched
    np.testing.assert_array_equal(before["A"], after["A"])
    np.testing.assert_array_equal(before["A-B-A:label"], after["A-B-A:label"])


NON_TOKEN = ("coarse.", "fine.", "gate", "cls.")


def _cache_of(g, l1, l2):
    try:
        labels = propagate_labels(g, l2)
    except ValueError:  # no labeled train node
        labels = {}
    return MessageCache(l1=l1, l2=l2, fingerprint=0,
                        feature_messages=propagate_features(g, l1),
                        label_messages=labels)


def test_token_layout_names_every_hop_parameter_and_stored_message():
    self_label_paths = 0
    for seed in range(60):
        g = random_typed_graph(seed)
        for l1 in (1, 2, 3):
            for l2 in (1, 2, 3):
                cache = _cache_of(g, l1, l2)
                layout = token_layout(cache)
                params = init_model_params(cache, hidden=4, heads=2,
                                           alpha=0.3, num_classes=g.num_classes,
                                           rng=np.random.default_rng(seed))
                named = params.tensors
                assert {t.gamma for t in layout} | \
                    {f"{h.projection}.{p}" for t in layout for h in t.hops
                     for p in "wb"} == \
                    {n for n in named if not n.startswith(NON_TOKEN)}
                for t in layout:
                    assert named[t.gamma].shape == (len(t.hops),)
                    types = t.key.removesuffix(":label").split("-")
                    store = cache.label_messages if t.key.endswith(":label") \
                        else cache.feature_messages
                    for h in t.hops:
                        assert h.message is store["-".join(types[:h.step + 1])]
                        assert named[f"{h.projection}.w"].shape == \
                            (h.message.shape[1], 4)
                self_label_paths += "A-A-A" in cache.label_messages
    assert self_label_paths > 0  # the sweep covers target self-relations


def test_token_layout_label_hops_of_a_self_relation():
    g = next(g for g in map(random_typed_graph, range(60))
             if ("A", "A") in g.relations
             and np.any(g.train_mask & (g.labels >= 0)))
    layout = {t.key: t for t in token_layout(_cache_of(g, 1, 2))}
    aa, aaa = layout["A-A:label"], layout["A-A-A:label"]
    assert [h.step for h in aaa.hops] == [1, 2]
    assert [h.projection for h in aaa.hops] == ["lproj.A-A-A.1",
                                                "lproj.A-A-A.2"]
    assert [h.projection for h in aa.hops] == ["lproj.A-A.1"]
    # the same stored message under two distinct projections
    assert aaa.hops[0].message is aa.hops[0].message
    assert layout["A-A"].hops[1].projection == "fproj.A-A"


def _taped_loss(g, cache, params):
    named = params.tensors
    for t in named.values():
        t.grad = None
    with ad.Tape() as tape:
        out = model_forward(cache, params)
        loss, _ = training_loss(out, g.labels, g.train_mask, 1e-4, 1e-4)
    tape.backward(loss)
    return out.logits.data.copy(), {n: t.grad.copy() for n, t in named.items()
                                    if t.grad is not None}


# float32 weight gradients move by summation order alone: a shared
# prefix's projection gets X^T (sum_P g_P) instead of sum_P X^T g_P
@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12),
                                        (np.float32, 1e-5)])
def test_prefix_projection_matches_per_path_oracle(monkeypatch, dtype, rtol):
    g, cache, params = small_setup(dtype=dtype, l1=4, l2=4, seed=2)
    logits, grads = _taped_loss(g, cache, params)
    monkeypatch.setattr("ahgnn.model.path_embeddings", oracle_path_embeddings)
    ref_logits, ref_grads = _taped_loss(g, cache, params)
    np.testing.assert_array_equal(logits, ref_logits)
    assert sorted(grads) == sorted(ref_grads) == sorted(params.tensors)
    for name, gr in grads.items():
        scale = max(float(np.max(np.abs(ref_grads[name]))), 1e-30)
        assert np.max(np.abs(gr - ref_grads[name])) <= rtol * scale, name


def test_forward_projects_each_prefix_once(monkeypatch):
    _, cache, params = small_setup(l1=4, l2=4)
    real = ad.matmul
    seen = []

    def counting(a, b):
        seen.append(not a.requires_grad)
        return real(a, b)

    monkeypatch.setattr(ad, "matmul", counting)
    with ad.Tape():
        model_forward(cache, params)
    label_hops = sum(len(h) for h in cache.label_entries.values())
    feature_hops = sum(len(h) for h in cache.feature_entries.values())
    assert len(cache.feature_messages) == 5 and feature_hops == 15
    # one constant-operand product per stored feature prefix and label hop
    assert sum(seen) == len(cache.feature_messages) + label_hops == 8


def test_attention_hand_example_one_dim_heads():
    # one head, width 1: weights all [[1]]; tokens per node [x, y]
    x, y = 0.8, -0.3
    tokens = Tensor(np.array([[[x], [y]]]))
    attn = [Tensor(np.ones((1, 1))) for _ in range(4)]
    out, atts = multi_head_attention(tokens, *attn, heads=1)
    def soft(a, b):
        ea, eb = math.exp(a), math.exp(b)
        return ea / (ea + eb), eb / (ea + eb)
    a00, a01 = soft(x * x, x * y)
    a10, a11 = soft(y * x, y * y)
    np.testing.assert_allclose(atts.data[0, 0],
                               [[a00, a01], [a10, a11]], rtol=1e-10)
    np.testing.assert_allclose(out.data[0, 0, 0], a00 * x + a01 * y, rtol=1e-10)


def test_attention_single_token_is_identity_mass():
    rng = np.random.default_rng(3)
    tokens = Tensor(rng.normal(size=(4, 1, 6)))
    wq, wk, wv, wo = (Tensor(rng.normal(size=(6, 6))) for _ in range(4))
    out, atts = multi_head_attention(tokens, wq, wk, wv, wo, heads=2)
    assert atts.shape == (4, 2, 1, 1)
    np.testing.assert_allclose(atts.data, 1.0, atol=1e-12)
    expected = tokens.data @ wv.data @ wo.data
    np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)


def test_attention_identical_tokens_uniform_rows():
    rng = np.random.default_rng(4)
    one = rng.normal(size=6)
    tokens = Tensor(np.tile(one, (3, 5, 1)))
    attn = [Tensor(rng.normal(size=(6, 6))) for _ in range(4)]
    _, atts = multi_head_attention(tokens, *attn, heads=3)
    assert atts.shape == (3, 3, 5, 5)
    np.testing.assert_allclose(atts.data, 0.2, atol=1e-12)


def test_attention_rows_sum_to_one():
    _, cache, params = small_setup()
    out = model_forward(cache, params)
    for att in (out.coarse_attention, out.fine_attention):
        np.testing.assert_allclose(att.data.sum(axis=-1), 1.0, atol=1e-9)


def test_attention_rejects_non_finite_tokens():
    tokens = Tensor(np.array([[[np.nan], [1.0]]]))
    attn = [Tensor(np.ones((1, 1))) for _ in range(4)]
    with pytest.raises(FloatingPointError, match="non-finite"):
        multi_head_attention(tokens, *attn, heads=1)


def test_influence_factors_hand_example():
    att = Tensor(np.array([[[[0.7, 0.3], [0.4, 0.6]]]]))
    beta = influence_factors(att)
    np.testing.assert_allclose(beta.data, [[0.55, 0.45]], rtol=1e-12)


def test_influence_factors_sum_to_one():
    _, cache, params = small_setup()
    out = model_forward(cache, params)
    np.testing.assert_allclose(out.beta.data.sum(axis=1), 1.0, atol=1e-9)


def _attend(tokens, params, side):
    return multi_head_attention(
        tokens, *(params.tensors[f"{side}.{nm}"] for nm in ATTENTION_WEIGHTS),
        params.heads)


def test_fine_attention_runs_on_influence_scaled_tokens():
    _, cache, params = small_setup()
    out = model_forward(cache, params)
    keys, embs = path_embeddings(cache, params)
    tokens = assemble_tokens(embs)
    scaled = Tensor(tokens.data * out.beta.data[:, :, None])
    _, expect_att = _attend(scaled, params, "fine")
    np.testing.assert_allclose(out.fine_attention.data, expect_att.data,
                               rtol=1e-12, atol=1e-14)


def test_gate_zero_averages_the_two_levels():
    _, cache, params = small_setup()
    assert float(params.tensors["gate"].data) == 0.0  # fresh => sigmoid 0.5
    keys, embs = path_embeddings(cache, params)
    tokens = assemble_tokens(embs)
    coarse_out, coarse_att = _attend(tokens, params, "coarse")
    beta = influence_factors(coarse_att)
    scaled = Tensor(tokens.data * beta.data[:, :, None])
    fine_out, _ = _attend(scaled, params, "fine")
    fused = 0.5 * coarse_out.data + 0.5 * fine_out.data
    pooled = fused.mean(axis=1)
    normed = pooled / np.linalg.norm(pooled, axis=1, keepdims=True)
    logits = normed @ params.tensors["cls.w"].data + params.tensors["cls.b"].data
    np.testing.assert_allclose(model_forward(cache, params).logits.data,
                               logits, rtol=1e-10, atol=1e-12)


def test_logits_shape_and_token_order():
    _, cache, params = small_setup()
    out = model_forward(cache, params)
    assert out.logits.data.shape == (12, 2)
    assert out.token_keys == ["A", "A-B", "A-B-A", "A-B-A:label"]
    assert out.beta.data.shape == (12, 4)


def test_node_permutation_equivariance():
    _, cache, params = small_setup()
    perm = np.random.default_rng(5).permutation(cache.n_target)
    base = model_forward(cache, params).logits.data
    permuted = model_forward(cache.take_rows(perm), params).logits.data
    np.testing.assert_allclose(permuted, base[perm], rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_on_taken_rows_is_bit_identical(dtype):
    # gate-size toy: training scores each epoch on the train and
    # validation rows alone, which is exact only if no row sees another
    g = generate_toy(ToySpec(n_target=300, n_aux=75, num_classes=4,
                             feature_dim=8, noise=1.2, edges_per_node=4,
                             train_frac=0.15, val_frac=0.15, tolerance=0.03,
                             homophily=0.5, seed=0))
    cache = build_cache(g, 4, 2).astype(dtype)
    params = init_model_params(cache, hidden=32, heads=4, alpha=0.25,
                               rng=np.random.default_rng(0), dtype=dtype)
    full = model_forward(cache, params)
    scored = np.flatnonzero(g.train_mask | g.val_mask)
    some = np.random.default_rng(1).choice(cache.n_target, 37, replace=False)
    for rows in (scored, some):
        part = model_forward(cache.take_rows(rows), params)
        np.testing.assert_array_equal(part.logits.data, full.logits.data[rows])
        np.testing.assert_array_equal(part.beta.data, full.beta.data[rows])


def test_batch_size_invariance():
    _, cache, params = small_setup()
    full = predict_logits(cache, params)
    for bs in (1, 5, 7, 12, 100):
        np.testing.assert_allclose(predict_logits(cache, params, batch_size=bs),
                                   full, rtol=1e-10, atol=1e-12)
    for bs in (0, -3):
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            predict_logits(cache, params, batch_size=bs)


def test_full_model_grad_check():
    g, cache, params = small_setup()
    from ahgnn.autodiff import grad_check
    from ahgnn.train import training_loss

    tensors = list(params.tensors.values())

    def loss_of(*_):
        out = model_forward(cache, params)
        loss, _parts = training_loss(out, g.labels, g.train_mask, 1e-4, 1e-4)
        return loss

    res = grad_check(loss_of, tensors, max_coords=2,
                     rng=np.random.default_rng(0))
    assert res.max_rel_err < 1e-6, res


def test_gamma_and_beta_tables():
    _, cache, params = small_setup()
    rows = gamma_table(cache, params)
    assert ("A-B-A", 0, pytest.approx(0.4)) in rows
    assert ("A-B-A:label", 2, pytest.approx(1.0)) in rows
    out = model_forward(cache, params)
    brows = beta_table(out)
    assert [k for k, _ in brows] == out.token_keys
    assert sum(v for _, v in brows) == pytest.approx(1.0, abs=1e-6)


def test_checkpoint_round_trip(tmp_path):
    _, cache, params = small_setup(dtype=np.float32)
    cfg = {"hidden": 8, "heads": 2, "alpha": 0.4, "l1": 2, "l2": 2,
           "precision": "f32"}
    save_checkpoint(params, cfg, tmp_path / "m.ahgm")
    config, arrays = load_checkpoint(tmp_path / "m.ahgm")
    assert config == cfg
    restored = restore_model_params(arrays, cache, config)
    for name, tsr in params.tensors.items():
        np.testing.assert_array_equal(
            restored.tensors[name].data, tsr.data, err_msg=name)


def test_checkpoint_writes_identical_bytes(tmp_path):
    _, cache, params = small_setup(dtype=np.float32)
    cfg = {"hidden": 8, "heads": 2}
    save_checkpoint(params, cfg, tmp_path / "a.ahgm")
    save_checkpoint(params, cfg, tmp_path / "b.ahgm")
    assert (tmp_path / "a.ahgm").read_bytes() == (tmp_path / "b.ahgm").read_bytes()


def test_checkpoint_path_set_mismatch(tmp_path):
    g, cache, params = small_setup(dtype=np.float32)
    cfg = {"hidden": 8, "heads": 2, "alpha": 0.4}
    save_checkpoint(params, cfg, tmp_path / "m.ahgm")
    config, arrays = load_checkpoint(tmp_path / "m.ahgm")
    deeper = build_cache(g, 3, 2).astype(np.float32)
    with pytest.raises(CheckpointError, match="meta-path set"):
        restore_model_params(arrays, deeper, config)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    (tmp_path / "bad.ahgm").write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(tmp_path / "bad.ahgm")
    _, cache, params = small_setup(dtype=np.float32)
    save_checkpoint(params, {}, tmp_path / "m.ahgm")
    raw = (tmp_path / "m.ahgm").read_bytes()
    (tmp_path / "m.ahgm").write_bytes(raw[:-10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "m.ahgm")


def test_checkpoint_layout_is_the_container_byte_for_byte(tmp_path):
    _, _, params = small_setup(dtype=np.float64)
    cfg = {"hidden": 8, "heads": 2}
    save_checkpoint(params, cfg, tmp_path / "m.ahgm")
    tensors = params.tensors
    names = sorted(tensors)
    write_container(tmp_path / "ref.ahgm", CHECKPOINT_MAGIC, 2,
                    {"config": cfg, "params": names},
                    [npy_record(tensors[n].data.astype("<f4")) for n in names])
    assert (tmp_path / "m.ahgm").read_bytes() == \
        (tmp_path / "ref.ahgm").read_bytes()
    _, arrays = load_checkpoint(tmp_path / "m.ahgm")
    assert arrays["gate"].shape == () and arrays["gate"].dtype == np.float32


def test_version_one_checkpoint_names_its_version(tmp_path):
    # the hand-packed layout: u32 config length, config, u32 count, entries
    (tmp_path / "v1.ahgm").write_bytes(
        CHECKPOINT_MAGIC + struct.pack("<II", 1, 2) + b"{}" + bytes(4))
    with pytest.raises(CheckpointError, match=r"v1\.ahgm is a version 1 "
                       r"checkpoint; this build reads version 2: regenerate "
                       r"with `ahgnn train`"):
        load_checkpoint(tmp_path / "v1.ahgm")


def test_checkpoint_array_that_is_not_float32_is_refused(tmp_path):
    write_container(tmp_path / "m.ahgm", CHECKPOINT_MAGIC, 2,
                    {"config": {}, "params": ["gate"]},
                    [npy_record(np.zeros((), dtype="<f8"))])
    with pytest.raises(CheckpointError, match=r"checkpoint file m\.ahgm: "
                       r"array 0 is not a C-order <f4 array in \.npy format 1\.0"):
        load_checkpoint(tmp_path / "m.ahgm")


@pytest.mark.parametrize("meta", [{"config": {}}, {"params": []}, [{}]],
                         ids=["no-params", "no-config", "list"])
def test_checkpoint_meta_without_its_fields_is_refused(tmp_path, meta):
    write_container(tmp_path / "m.ahgm", CHECKPOINT_MAGIC, 2, meta, [])
    with pytest.raises(CheckpointError, match=r"checkpoint file m\.ahgm: meta "
                       r"is not a JSON object with fields \('config', "
                       r"'params'\)"):
        load_checkpoint(tmp_path / "m.ahgm")

import math

import numpy as np
import pytest

import ahgnn.autodiff as ad
from ahgnn.autodiff import Tape, Tensor, grad_check
from ahgnn.model import multi_head_attention
from ahgnn.train import head_diversity

from oracles import (oracle_head_diversity, oracle_multi_head_attention,
                     oracle_row_softmax)


def t(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True, **kw)


def weighted(x, w):
    """Scalar readout with non-uniform weights so VJP errors cannot cancel."""
    return ad.sum_all(ad.mul(x, ad.constant(w)))


def check(fn, inputs, tol=1e-7):
    res = grad_check(fn, inputs)
    assert res.max_rel_err < tol, res
    return res


def test_add_sub_mul_broadcasting():
    rng = np.random.default_rng(0)
    a = t(rng.normal(size=(3, 4)))
    b = t(rng.normal(size=(4,)))
    w = rng.normal(size=(3, 4))
    check(lambda a, b: weighted(ad.add(a, b), w), [a, b])
    check(lambda a, b: weighted(ad.sub(a, b), w), [a, b])
    check(lambda a, b: weighted(ad.mul(a, b), w), [a, b])


def test_scale_and_add_const():
    rng = np.random.default_rng(1)
    a = t(rng.normal(size=(2, 3)))
    w = rng.normal(size=(2, 3))
    check(lambda a: weighted(ad.scale(a, -2.5), w), [a])
    check(lambda a: weighted(ad.add_const(a, 3.25), w), [a])


def test_matmul_2d():
    rng = np.random.default_rng(2)
    a = t(rng.normal(size=(3, 4)))
    b = t(rng.normal(size=(4, 2)))
    w = rng.normal(size=(3, 2))
    check(lambda a, b: weighted(ad.matmul(a, b), w), [a, b])


def test_matmul_batched_against_shared_weight():
    rng = np.random.default_rng(3)
    a = t(rng.normal(size=(2, 3, 4)))
    b = t(rng.normal(size=(4, 5)))
    w = rng.normal(size=(2, 3, 5))
    check(lambda a, b: weighted(ad.matmul(a, b), w), [a, b])


def test_matmul_batched_both():
    rng = np.random.default_rng(4)
    a = t(rng.normal(size=(2, 3, 4)))
    b = t(rng.normal(size=(2, 4, 5)))
    w = rng.normal(size=(2, 3, 5))
    check(lambda a, b: weighted(ad.matmul(a, b), w), [a, b])


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError, match="2-D"):
        ad.matmul(t([1.0, 2.0]), t([[1.0], [2.0]]))


def test_transpose_reshape_unsqueeze():
    rng = np.random.default_rng(5)
    a = t(rng.normal(size=(2, 3, 4)))
    w1, w2, w3 = (rng.normal(size=s) for s in
                  ((2, 4, 3), (6, 4), (2, 1, 3, 4)))
    check(lambda a: weighted(ad.transpose(a), w1), [a])
    check(lambda a: weighted(ad.reshape(a, (6, 4)), w2), [a])
    check(lambda a: weighted(ad.unsqueeze(a, 1), w3), [a])


def test_index1d_and_slice_concat():
    rng = np.random.default_rng(6)
    g = t(rng.normal(size=5))
    check(lambda g: ad.scale(ad.index1d(g, 3), 2.0), [g])
    a = t(rng.normal(size=(3, 6)))
    ws = rng.normal(size=(3, 3))
    check(lambda a: weighted(ad.slice_last(a, 2, 5), ws), [a])
    b = t(rng.normal(size=(3, 2)))
    c = t(rng.normal(size=(3, 4)))
    w = rng.normal(size=(3, 6))
    check(lambda b, c: weighted(ad.concat([b, c], axis=1), w), [b, c])
    with pytest.raises(ValueError, match="1-D"):
        ad.index1d(a, 0)


def test_permute_values_and_grad_check():
    rng = np.random.default_rng(14)
    a = t(rng.normal(size=(2, 3, 4, 5)))
    for axes in ((0, 2, 1, 3), (0, 2, 3, 1), (3, 1, 0, 2)):
        out = ad.permute(a, axes)
        np.testing.assert_array_equal(out.data, np.transpose(a.data, axes))
        w = rng.normal(size=out.shape)
        res = check(lambda a: weighted(ad.permute(a, axes), w), [a], tol=1e-6)
        assert res.n_coords >= 50


def test_matmul_nd_by_2d_values_and_grad_check():
    rng = np.random.default_rng(15)
    a = t(rng.normal(size=(2, 3, 4, 5)))
    b = t(rng.normal(size=(5, 6)))
    out = ad.matmul(a, b)
    assert out.shape == (2, 3, 4, 6)
    np.testing.assert_allclose(out.data, np.matmul(a.data, b.data),
                               rtol=1e-12, atol=1e-12)
    w = rng.normal(size=out.shape)
    res = check(lambda a, b: weighted(ad.matmul(a, b), w), [a, b], tol=1e-6)
    assert res.n_coords >= 50


def test_head_pair_kl_grad_check():
    # concentrated rows keep entries away from the 1e-8 floor
    rng = np.random.default_rng(16)
    p = t(rng.dirichlet(np.full(4, 5.0), size=(2, 3, 4)))
    res = check(lambda p: ad.head_pair_kl(p), [p], tol=1e-6)
    assert res.n_coords >= 50
    logits = t(rng.normal(size=(2, 4, 3, 3)))
    res = check(lambda z: ad.head_pair_kl(ad.row_softmax(z)), [logits],
                tol=1e-6)
    assert res.n_coords >= 50


def test_head_pair_kl_disjoint_one_hots_hand_value():
    # heads 0 and 1 put all mass on different tokens: both KL directions
    # equal ln(1e8) - 1e-8 ln(1e8) under the floor
    p = t([[[[1.0, 0.0]], [[0.0, 1.0]]]])
    expected = math.log(1e8) * (1.0 - 1e-8)
    assert float(ad.head_pair_kl(p).data) == pytest.approx(expected, rel=1e-12)


def test_head_pair_kl_clamped_entries_get_zero_grad():
    p = t([[[[1.0, 0.0]], [[0.5, 0.5]]]])
    with Tape() as tape:
        kl = ad.head_pair_kl(p)
    tape.backward(kl)
    assert p.grad[0, 0, 0, 1] == 0.0  # clamped coordinate is gradient-dead
    assert p.grad[0, 0, 0, 0] != 0.0
    with pytest.raises(ValueError, match="H >= 2"):
        ad.head_pair_kl(t(np.full((2, 1, 3, 3), 1 / 3)))


@pytest.mark.parametrize("heads", [1, 2, 3, 4])
def test_batched_heads_match_per_head_oracles(heads):
    rng = np.random.default_rng(20 + heads)
    tokens = t(rng.normal(size=(5, 4, 12)))
    attn = [t(rng.normal(size=(12, 12)) * 0.5) for _ in range(4)]
    w = rng.normal(size=(5, 4, 12))
    leaves = [tokens, *attn]

    def run(forward, diversity):
        for leaf in leaves:
            leaf.grad = None
        with Tape() as tape:
            out, att = forward()
            div = diversity(att)
            loss = ad.add(weighted(out, w), div)
        tape.backward(loss)
        return out, att, div, [leaf.grad for leaf in leaves]

    out, att, div, grads = run(
        lambda: multi_head_attention(tokens, *attn, heads), head_diversity)
    o_out, o_atts, o_div, o_grads = run(
        lambda: oracle_multi_head_attention(tokens, *attn, heads),
        oracle_head_diversity)
    assert att.shape == (5, heads, 4, 4)
    tol = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.data, o_out.data, **tol)
    np.testing.assert_allclose(att.data,
                               np.stack([a.data for a in o_atts], axis=1),
                               **tol)
    np.testing.assert_allclose(div.data, o_div.data, **tol)
    for got, want in zip(grads, o_grads):
        np.testing.assert_allclose(got, want, **tol)

    # maps with entries under the floor, where the gradient masks matter
    maps = rng.dirichlet(np.full(4, 0.3), size=(6, heads, 4))
    maps[0, :, 0] = np.eye(4)[rng.integers(0, 4, size=heads)]
    stacked = t(maps)
    per_head = [t(maps[:, h]) for h in range(heads)]
    with Tape() as tape:
        div = head_diversity(stacked)
    with Tape() as o_tape:
        o_div = oracle_head_diversity(per_head)
    np.testing.assert_allclose(div.data, o_div.data, **tol)
    if heads > 1:
        tape.backward(div)
        o_tape.backward(o_div)
        np.testing.assert_allclose(
            stacked.grad, np.stack([p.grad for p in per_head], axis=1), **tol)


def test_row_softmax_rows_sum_to_one_and_grads():
    rng = np.random.default_rng(7)
    a = t(rng.normal(size=(4, 5)) * 3)
    s = ad.row_softmax(a)
    np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)
    w = rng.normal(size=(4, 5))
    check(lambda a: weighted(ad.row_softmax(a), w), [a])


@pytest.mark.parametrize("shape", [(3, 2, 6, 6), (2, 3, 11, 11), (5, 1)])
def test_slab_softmax_matches_reduce_oracle(shape):
    rng = np.random.default_rng(13)
    x = rng.normal(size=shape) * 3
    x[..., -1] += 100.0  # exp overflows float32 unless every column is in the max
    for dtype, rtol in ((np.float32, 1e-6), (np.float64, 1e-13)):
        a = Tensor(x.astype(dtype), requires_grad=True)
        ref = Tensor(x.astype(dtype), requires_grad=True)
        g = rng.normal(size=shape).astype(dtype)
        with Tape() as tape:
            s = ad.row_softmax(a)
            loss = ad.sum_all(ad.mul(s, ad.constant(g)))
        with Tape() as o_tape:
            o_s = oracle_row_softmax(ref)
            o_loss = ad.sum_all(ad.mul(o_s, ad.constant(g)))
        assert s.data.dtype == dtype and np.all(np.isfinite(s.data))
        np.testing.assert_allclose(s.data, o_s.data, rtol=rtol, atol=0)
        tape.backward(loss)
        o_tape.backward(o_loss)
        np.testing.assert_allclose(a.grad, ref.grad, rtol=rtol,
                                   atol=rtol * np.abs(ref.grad).max())
    z = t(rng.normal(size=shape[:-2] + (3, shape[-1])))
    w = rng.normal(size=z.shape)
    check(lambda z: weighted(ad.row_softmax(z), w), [z])


def test_slab_mean_matches_numpy_mean_on_every_axis():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 4, 6, 5))
    for axis in range(-1, 4):
        np.testing.assert_allclose(ad.mean_axis(Tensor(x), axis).data,
                                   x.mean(axis=axis), rtol=1e-14)
    w = rng.normal(size=(3, 4, 5))
    check(lambda a: weighted(ad.mean_axis(a, 2), w), [t(x)])


def test_weighted_sum_grad_check_covers_weights_and_every_term():
    rng = np.random.default_rng(15)
    terms = [t(rng.normal(size=(4, 3))) for _ in range(3)]
    w = t(rng.normal(size=3))
    readout = rng.normal(size=(4, 3))
    res = check(lambda w, *ts: weighted(ad.weighted_sum(list(ts), w), readout),
                [w, *terms])
    assert res.n_coords == 3 + 3 * 12
    one = t(rng.normal(size=(2, 5)))
    check(lambda w, x: weighted(ad.weighted_sum([x], w), readout[:2, :1]),
          [t([0.7]), one])
    with pytest.raises(ValueError, match="one weight per term"):
        ad.weighted_sum(terms, t([1.0, 2.0]))


def test_weighted_sum_is_bit_identical_to_its_mul_add_chain():
    # the forward runs the chain's products in the chain's order, and the
    # gradients reduce as the chain's VJPs do
    rng = np.random.default_rng(16)
    data = [rng.normal(size=(7, 5)).astype(np.float32) for _ in range(4)]
    wdata = rng.random(4).astype(np.float32)
    readout = ad.constant(rng.normal(size=(7, 5)).astype(np.float32))

    def run(fused: bool):
        terms = [Tensor(d.copy(), requires_grad=True) for d in data]
        w = Tensor(wdata.copy(), requires_grad=True)
        with Tape() as tape:
            if fused:
                out = ad.weighted_sum(terms, w)
            else:
                out = None
                for j, x in enumerate(terms):
                    term = ad.mul(x, ad.index1d(w, j))
                    out = term if out is None else ad.add(out, term)
            loss = ad.sum_all(ad.mul(out, readout))
        tape.backward(loss)
        return out.data, [x.grad for x in terms] + [w.grad], len(tape.records)

    out, grads, records = run(True)
    ref_out, ref_grads, ref_records = run(False)
    np.testing.assert_array_equal(out, ref_out)
    for got, want in zip(grads, ref_grads):
        np.testing.assert_array_equal(got, want)
    assert records == ref_records - 3 * len(data) + 2


def test_weighted_sum_with_frozen_weights_tracks_terms_only():
    x = t(np.arange(6.0).reshape(2, 3))
    w = Tensor(np.array([2.0]), requires_grad=False)
    with Tape() as tape:
        loss = ad.sum_all(ad.weighted_sum([x], w))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))
    assert w.grad is None


def test_row_softmax_extreme_logits_stable():
    s = ad.row_softmax(t([[1000.0, 0.0], [-1000.0, -1000.0]]))
    assert np.all(np.isfinite(s.data))
    np.testing.assert_allclose(s.data.sum(axis=1), 1.0)


def test_sigmoid_mean_sum():
    rng = np.random.default_rng(8)
    a = t(rng.normal(size=(3, 4)))
    w0, w1, w2 = (rng.normal(size=s) for s in ((3, 4), (3,), (4,)))
    check(lambda a: weighted(ad.sigmoid(a), w0), [a])
    check(lambda a: weighted(ad.mean_axis(a, 1), w1), [a])
    check(lambda a: weighted(ad.mean_axis(a, 0), w2), [a])
    check(lambda a: ad.sum_all(a), [a])
    assert ad.sigmoid(t(0.0)).data == pytest.approx(0.5)


def test_l2_normalize_rows():
    rng = np.random.default_rng(9)
    a = t(rng.normal(size=(3, 4)) + 0.5)
    out = ad.l2_normalize_rows(a)
    np.testing.assert_allclose((out.data ** 2).sum(axis=1), 1.0, atol=1e-12)
    w = rng.normal(size=(3, 4))
    check(lambda a: weighted(ad.l2_normalize_rows(a), w), [a])


def test_l2_normalize_zero_row_is_zero_with_zero_grad():
    a = t([[0.0, 0.0], [3.0, 4.0]])
    with Tape() as tape:
        out = ad.l2_normalize_rows(a)
        loss = ad.sum_all(out)
    np.testing.assert_array_equal(out.data[0], [0.0, 0.0])
    np.testing.assert_allclose(out.data[1], [0.6, 0.8])
    tape.backward(loss)
    np.testing.assert_array_equal(a.grad[0], [0.0, 0.0])


def test_cross_entropy_hand_value():
    # wide-margin correct prediction: loss = log(1 + exp(-20))
    logits = t([[10.0, -10.0]])
    loss = ad.cross_entropy_logits(logits, np.array([0]), np.array([True]))
    assert float(loss.data) == pytest.approx(math.log1p(math.exp(-20.0)),
                                             rel=1e-12)
    assert float(loss.data) == pytest.approx(2.06e-9, rel=1e-2)


def test_cross_entropy_uniform_logits():
    logits = t(np.zeros((4, 3)))
    loss = ad.cross_entropy_logits(logits, np.array([0, 1, 2, 0]),
                                   np.ones(4, dtype=bool))
    assert float(loss.data) == pytest.approx(math.log(3.0), rel=1e-12)


def test_cross_entropy_grad_closed_form():
    rng = np.random.default_rng(10)
    z = rng.normal(size=(5, 3))
    labels = np.array([0, 2, 1, 1, 0])
    mask = np.array([True, True, False, True, False])
    logits = t(z.copy())
    with Tape() as tape:
        loss = ad.cross_entropy_logits(logits, labels, mask)
    tape.backward(loss)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    expected = np.zeros_like(z)
    rows = np.nonzero(mask)[0]
    for i in rows:
        expected[i] = p[i]
        expected[i, labels[i]] -= 1.0
    expected /= rows.size
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


def test_cross_entropy_grad_check():
    rng = np.random.default_rng(11)
    logits = t(rng.normal(size=(6, 4)))
    labels = rng.integers(0, 4, size=6)
    mask = np.array([True, False, True, True, False, True])
    check(lambda l: ad.cross_entropy_logits(l, labels, mask), [logits])


def test_cross_entropy_empty_mask_errors():
    with pytest.raises(ValueError, match="nonempty mask"):
        ad.cross_entropy_logits(t([[0.0, 1.0]]), np.array([0]),
                                np.array([False]))


def test_kl_disjoint_one_hots_hand_value():
    # floor-clamped at 1e-8 without renormalization
    p = t([[1.0, 0.0]])
    q = t([[0.0, 1.0]])
    kl = ad.kl_mean(p, q)
    expected = 1.0 * math.log(1.0 / 1e-8) + 1e-8 * math.log(1e-8 / 1.0)
    assert float(kl.data) == pytest.approx(expected, rel=1e-12)
    assert float(kl.data) == pytest.approx(math.log(1e8), rel=1e-7)


def test_kl_identical_rows_is_zero():
    p = t([[0.3, 0.7], [0.5, 0.5]])
    assert float(ad.kl_mean(p, p).data) == 0.0


def test_kl_mean_over_leading_axes():
    p = t(np.full((2, 3, 2), 0.5))
    q = t(np.tile([0.25, 0.75], (2, 3, 1)))
    row = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert float(ad.kl_mean(p, q).data) == pytest.approx(row, rel=1e-12)


def test_kl_grad_check_away_from_clamp():
    # concentrated rows keep entries large enough that central differences
    # of the log stay accurate
    rng = np.random.default_rng(12)
    p = t(rng.dirichlet(np.full(4, 5.0), size=5))
    q = t(rng.dirichlet(np.full(4, 5.0), size=5))
    check(lambda p, q: ad.kl_mean(p, q), [p, q])


def test_kl_clamped_entries_get_zero_grad():
    p = t([[1.0, 0.0]])
    q = t([[0.5, 0.5]])
    with Tape() as tape:
        kl = ad.kl_mean(p, q)
    tape.backward(kl)
    assert p.grad[0, 1] == 0.0  # clamped coordinate is gradient-dead
    assert p.grad[0, 0] != 0.0


def test_tape_backward_twice_errors():
    a = t([2.0])
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(a, a))
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="already consumed"):
        tape.backward(loss)


def test_non_scalar_loss_errors():
    a = t([1.0, 2.0])
    with Tape() as tape:
        out = ad.mul(a, a)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(out)


def test_reused_leaf_accumulates_both_contributions():
    a = t([3.0])
    with Tape() as tape:
        loss = ad.sum_all(ad.add(ad.mul(a, a), a))  # a^2 + a
    tape.backward(loss)
    np.testing.assert_allclose(a.grad, [7.0])  # 2a + 1


def test_forward_outside_tape_records_nothing():
    a = t([1.0, 2.0])
    out = ad.mul(a, a)
    assert out.requires_grad is False
    assert out.grad is None


def test_constants_are_not_tracked():
    a = ad.constant([1.0, 2.0])
    with Tape() as tape:
        ad.mul(a, a)
    assert tape.records == []


def test_disconnected_leaf_keeps_none_grad():
    a, b = t([1.0]), t([1.0])
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(a, a))
    tape.backward(loss)
    assert b.grad is None
    assert a.grad is not None


def test_requires_grad_propagates_through_chains():
    a = t(np.ones((2, 2)))
    with Tape():
        z = ad.add(ad.matmul(a, a), ad.constant(np.ones((2, 2))))
        assert z.requires_grad


def test_float32_dtype_is_preserved():
    a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    out = ad.add(ad.scale(a, 2.0), ad.add_const(a, 1.0))
    assert out.dtype == np.float32
    assert ad.row_softmax(a).dtype == np.float32
    assert ad.sigmoid(a).dtype == np.float32


def test_grad_check_reports_coordinate_count():
    rng = np.random.default_rng(13)
    a = t(rng.normal(size=(4, 4)))
    res = grad_check(lambda a: ad.sum_all(ad.mul(a, a)), [a],
                     max_coords=5, rng=np.random.default_rng(0))
    assert res.n_coords == 5
    res_full = grad_check(lambda a: ad.sum_all(ad.mul(a, a)), [a])
    assert res_full.n_coords == 16

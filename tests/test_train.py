import csv
import math
import subprocess
import sys

import numpy as np
import pytest

import ahgnn.autodiff as ad
from ahgnn.autodiff import Tensor
from ahgnn.model import token_layout
from ahgnn.propagate import build_cache
from ahgnn.synth import ToySpec, generate_toy
from ahgnn.train import (Adam, Metrics, TrainConfig, evaluate, f1_scores,
                         head_diversity, train, training_loss,
                         write_beta_csv, write_gamma_csv, write_metrics_csv)

from conftest import REPO_ROOT, checkout_env
from oracles import (OracleAdam, oracle_f1, oracle_f1_scores,
                     oracle_train_history)


def tiny_graph(seed=0, **kw):
    spec = ToySpec(n_target=12, n_aux=6, num_classes=2, homophily=1.0,
                   feature_dim=3, edges_per_node=2, seed=seed, **kw)
    g = generate_toy(spec)
    return g, build_cache(g, 2, 2)


def tiny_config(**kw):
    base = dict(lr=1e-2, max_epochs=5, hidden=8, heads=2, patience=30,
                seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------- optimizer

def test_adam_first_step_is_learning_rate_sized():
    p = Tensor(np.array([1.0]), requires_grad=True, name="p")
    p.grad = np.array([1.0])
    opt = Adam(lr=1e-3)
    assert opt.step({"p": p})
    # bias-corrected m_hat = v_hat = 1 => update = lr / (1 + eps)
    np.testing.assert_allclose(p.data, 1.0 - 1e-3 / (1.0 + 1e-8), rtol=1e-15)


def test_adam_two_steps_match_reference_arithmetic():
    lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
    theta = 1.0
    m = v = 0.0
    grads = [0.5, -0.25]
    for t, g in enumerate(grads, start=1):
        theta = theta - lr * wd * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)

    p = Tensor(np.array([1.0]), requires_grad=True, name="p")
    opt = Adam(lr=lr, weight_decay=wd)
    for g in grads:
        p.grad = np.array([g])
        assert opt.step({"p": p})
    np.testing.assert_allclose(p.data, [theta], rtol=1e-14)
    assert opt.t == 2


def test_adam_rejects_non_finite_gradients_without_mutation():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="p")
    q = Tensor(np.array([3.0]), requires_grad=True, name="q")
    p.grad = np.array([0.1, 0.2])
    q.grad = np.array([np.nan])
    opt = Adam(lr=1e-3)
    assert opt.step({"p": p, "q": q}) is False
    np.testing.assert_array_equal(p.data, [1.0, 2.0])
    np.testing.assert_array_equal(q.data, [3.0])
    assert opt.t == 0 and not opt.m  # step counter and moments untouched


def test_adam_skips_frozen_and_gradless_parameters():
    frozen = Tensor(np.array([5.0]), requires_grad=False, name="f")
    frozen.grad = np.array([np.inf])  # would poison the step if considered
    live = Tensor(np.array([1.0]), requires_grad=True, name="l")
    live.grad = np.array([1.0])
    idle = Tensor(np.array([2.0]), requires_grad=True, name="i")
    opt = Adam(lr=1e-3)
    assert opt.step({"f": frozen, "l": live, "i": idle})
    np.testing.assert_array_equal(frozen.data, [5.0])
    np.testing.assert_array_equal(idle.data, [2.0])
    assert live.data[0] < 1.0


@pytest.mark.parametrize("weight_decay", [0.0, 5e-6])
@pytest.mark.parametrize("kind", ["f32", "f64"])
def test_adam_is_bit_identical_to_per_parameter_oracle(kind, weight_decay):
    # five steps; step 3 is rejected (one NaN)
    rng = np.random.default_rng(17)
    shapes = [(3, 4), (5,), (), (2, 2)]
    names = ["w", "b", "gate", "out"]
    dtype = {"f32": np.float32, "f64": np.float64}[kind]
    init = {n: rng.normal(size=s).astype(dtype) for n, s in zip(names, shapes)}

    def fresh():
        ps = {n: Tensor(a.copy(), requires_grad=True, name=n)
              for n, a in init.items()}
        ps["frozen"] = Tensor(np.ones(2), requires_grad=False)
        return ps

    ours, ref = fresh(), fresh()
    opt = Adam(lr=1e-2, weight_decay=weight_decay)
    oracle = OracleAdam(lr=1e-2, weight_decay=weight_decay)
    for step in range(1, 6):
        grads = {n: rng.normal(size=init[n].shape).astype(dtype)
                 for n in names}
        if step == 3:
            grads["b"][2] = np.nan
        for ps in (ours, ref):
            for n in names:
                ps[n].grad = grads[n].copy()
            ps["frozen"].grad = np.full(2, np.inf)
        assert opt.step(ours) == oracle.step(ref) == (step != 3)
        assert opt.t == oracle.t
        for n in names:
            assert ours[n].data.dtype == ref[n].data.dtype, n
            assert ours[n].data.shape == ref[n].data.shape, n
            np.testing.assert_array_equal(ours[n].data, ref[n].data,
                                          err_msg=f"{n} at step {step}")
        assert sorted(opt.m) == sorted(oracle.m)
        for n in oracle.m:
            np.testing.assert_array_equal(opt.m[n], oracle.m[n], err_msg=n)
            np.testing.assert_array_equal(opt.v[n], oracle.v[n], err_msg=n)
    np.testing.assert_array_equal(ours["frozen"].data, np.ones(2))


def test_adam_rejects_mixed_dtypes_and_a_changed_parameter_set():
    def param(name, dtype=np.float64, size=2):
        p = Tensor(np.ones(size, dtype=dtype), requires_grad=True, name=name)
        p.grad = np.full(size, 0.5, dtype=dtype)
        return p

    with pytest.raises(ValueError, match="one dtype"):
        Adam(lr=1e-3).step({"a": param("a"), "b": param("b", np.float32)})
    with pytest.raises(ValueError, match="one dtype"):
        Adam(lr=1e-3).step({})

    first = {"a": param("a"), "b": param("b")}
    opt = Adam(lr=1e-3)
    assert opt.step(first)
    gradless = dict(first)
    gradless["b"] = Tensor(np.ones(2), requires_grad=True, name="b")
    later = [gradless,                                  # a parameter idles
             {**first, "c": param("c")},                # one joins
             {"a": param("a"), "b": param("b", size=3)},  # a shape changes
             {"a": param("a", np.float32), "b": param("b", np.float32)}]
    for params in later:
        with pytest.raises(ValueError, match="fixed set"):
            opt.step(params)
    assert opt.t == 1


def test_adam_f32_parameters_keep_dtype():
    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True, name="p")
    p.grad = np.array([1.0], dtype=np.float32)
    Adam(lr=1e-3).step({"p": p})
    assert p.data.dtype == np.float32


# ------------------------------------------------------------------ metrics

def test_f1_pinned_two_class_collapse():
    m = f1_scores([0, 0, 0, 0], [0, 0, 1, 1], num_classes=2)
    assert m.micro_f1 == pytest.approx(0.5)
    # class 0: tp=2 fp=2 fn=0 -> 2/3; class 1: never predicted -> 0
    assert m.macro_f1 == pytest.approx((2 / 3 + 0.0) / 2)


def test_f1_counts_absent_classes_as_zero():
    m = f1_scores([0, 1, 0, 1], [0, 1, 0, 1], num_classes=3)
    assert m.micro_f1 == pytest.approx(1.0)
    assert m.macro_f1 == pytest.approx(2 / 3)


def test_f1_matches_confusion_matrix_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, c, size=n)
        preds = rng.integers(0, c, size=n)
        got = f1_scores(preds, labels, c)
        want_macro, want_micro = oracle_f1(preds, labels, c)
        assert got.macro_f1 == pytest.approx(want_macro, abs=1e-12)
        assert got.micro_f1 == pytest.approx(want_micro, abs=1e-12)


def test_f1_matches_per_class_oracle_with_empty_classes():
    rng = np.random.default_rng(5)
    for _ in range(60):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(1, 30))
        # labels and predictions drawn from subsets, so some classes are
        # never a label, never predicted, or neither
        labels = rng.choice(rng.choice(c, size=int(rng.integers(1, c + 1)),
                                       replace=False), size=n)
        preds = rng.choice(rng.choice(c, size=int(rng.integers(1, c + 1)),
                                      replace=False), size=n)
        assert f1_scores(preds, labels, c) == oracle_f1_scores(preds, labels, c)


def test_f1_validation_errors():
    with pytest.raises(ValueError, match="mismatch"):
        f1_scores([0, 1], [0], num_classes=2)
    with pytest.raises(ValueError, match="empty"):
        f1_scores([], [], num_classes=2)
    for preds, labels in (([0, 2], [0, 1]), ([0, 1], [-1, 1])):
        with pytest.raises(ValueError, match="classes must lie"):
            f1_scores(preds, labels, num_classes=2)


def test_evaluate_ignores_unlabeled_and_unmasked():
    logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
    labels = np.array([0, 1, -1, 0])
    mask = np.array([True, True, True, False])
    m = evaluate(logits, labels, mask)  # only rows 0 and 1 count
    assert m.micro_f1 == pytest.approx(1.0)
    with pytest.raises(ValueError, match="no labeled node"):
        evaluate(logits, np.array([-1, -1, -1, 0]), mask)


# --------------------------------------------------------------------- loss

def test_head_diversity_single_head_is_zero_constant():
    att = Tensor(np.array([[[[0.5, 0.5]]]]))
    r = head_diversity(att)
    assert float(r.data) == 0.0


def test_head_diversity_identical_heads_is_zero():
    att = np.array([[[0.3, 0.7], [0.9, 0.1]]])
    r = head_diversity(Tensor(np.stack([att, att], axis=1)))
    assert float(r.data) == pytest.approx(0.0, abs=1e-12)


def test_head_diversity_disjoint_one_hot_pinned_value():
    r = head_diversity(Tensor(np.array([[[[1.0, 0.0]], [[0.0, 1.0]]]])))
    # both KL directions equal ln(1e8) - 1e-8*ln(1e8) under the 1e-8 floor
    expected = -math.log(1e8) * (1.0 - 1e-8)
    assert float(r.data) == pytest.approx(expected, rel=1e-12)


def test_head_diversity_rewards_disagreement():
    a = np.array([[[0.9, 0.1]]])
    b = np.array([[[0.1, 0.9]]])
    c = np.array([[[0.85, 0.15]]])
    far = head_diversity(Tensor(np.stack([a, b], axis=1)))
    near = head_diversity(Tensor(np.stack([a, c], axis=1)))
    assert float(far.data) < float(near.data) < 0.0


def test_training_loss_composition():
    g, cache = tiny_graph()
    from ahgnn.model import init_model_params, model_forward
    params = init_model_params(cache, 8, 2, 0.4, np.random.default_rng(0),
                               dtype=np.float64)
    out = model_forward(cache, params)
    mask = g.train_mask & (g.labels >= 0)
    plain, parts = training_loss(out, g.labels, mask, 0.0, 0.0)
    assert float(plain.data) == pytest.approx(parts["ce"], rel=1e-12)
    lam1, lam2 = 0.3, 0.7
    weighted, parts2 = training_loss(out, g.labels, mask, lam1, lam2)
    assert float(weighted.data) == pytest.approx(
        parts2["ce"] + lam1 * parts2["r_coarse"] + lam2 * parts2["r_fine"],
        rel=1e-12)


# ------------------------------------------------------------------- config

def test_config_round_trip_and_validation():
    cfg = tiny_config()
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    bad = [dict(lr=0.0), dict(weight_decay=1e-5), dict(weight_decay=-1e-9),
           dict(max_epochs=0), dict(hidden=9, heads=2), dict(heads=0),
           dict(l1=0), dict(alpha=0.0), dict(alpha=1.0), dict(lambda1=-1.0),
           dict(patience=-1), dict(precision="f16"), dict(lr=float("nan")),
           dict(lr=float("inf")), dict(lambda1=float("nan")),
           dict(lambda2=float("inf"))]
    for overrides in bad:
        with pytest.raises(ValueError):
            tiny_config(**overrides).validate()


def test_config_dtype_mapping():
    assert tiny_config(precision="f32").dtype is np.float32
    assert tiny_config(precision="f64").dtype is np.float64


# ----------------------------------------------------------------- training

def test_package_attribute_train_is_the_submodule():
    # the package re-exports no `train` function that would shadow the
    # submodule, so patching ahgnn.train patches what train() reads
    import sys
    import types

    import ahgnn
    assert isinstance(ahgnn.train, types.ModuleType)
    assert ahgnn.train is sys.modules["ahgnn.train"]
    assert "train" not in ahgnn.__all__


def test_train_depth_mismatch_is_an_error():
    g, cache = tiny_graph()
    with pytest.raises(ValueError, match="cache was built"):
        train(g, cache, tiny_config(l1=3))


def test_train_is_deterministic_for_a_seed():
    g, cache = tiny_graph()
    cfg = tiny_config(max_epochs=6)
    a = train(g, cache, cfg)
    b = train(g, cache, cfg)
    assert [r.__dict__ for r in a.history] == [r.__dict__ for r in b.history]
    for name, tsr in a.params.all_parameters().items():
        np.testing.assert_array_equal(tsr.data,
                                      b.params.all_parameters()[name].data,
                                      err_msg=name)
    c = train(g, cache, tiny_config(max_epochs=6, seed=1))
    assert [r.loss for r in c.history] != [r.loss for r in a.history]


def test_train_learns_the_easy_toy():
    g, cache = tiny_graph()
    res = train(g, cache, tiny_config(max_epochs=60))
    assert res.best_val_micro >= 0.5
    assert not res.diverged and not res.rejected_epochs
    assert res.history[0].loss > res.history[res.best_epoch - 1].loss * 0.0
    assert 1 <= res.best_epoch <= len(res.history)


def test_patience_counts_strictly_worse_epochs():
    g, cache = tiny_graph()
    # an update too small to change f32 weights: metrics freeze after epoch 1
    cfg = tiny_config(lr=1e-30, weight_decay=0.0, max_epochs=50, patience=2)
    res = train(g, cache, cfg)
    assert len(res.history) == cfg.patience + 2
    assert res.best_epoch == 1
    micros = {row.val_micro for row in res.history}
    assert len(micros) == 1


def test_train_records_rejected_steps(monkeypatch):
    g, cache = tiny_graph()
    monkeypatch.setattr(Adam, "step", lambda self, params: False)
    res = train(g, cache, tiny_config(max_epochs=10, patience=1))
    # every step bounced: parameters froze, so metrics never improved twice
    assert res.rejected_epochs == [r.epoch for r in res.history]
    assert len(res.history) == 3  # 1 improving epoch + patience+1 flat ones


def test_train_stops_on_non_finite_loss(monkeypatch):
    import importlib
    train_module = importlib.import_module("ahgnn.train")
    g, cache = tiny_graph()

    def poisoned(output, labels, mask, lam1, lam2):
        return ad.constant(np.array(np.nan)), {}

    monkeypatch.setattr(train_module, "training_loss", poisoned)
    res = train(g, cache, tiny_config(max_epochs=10))
    assert res.diverged is True
    assert res.history == []
    assert res.best_epoch == 0


@pytest.mark.parametrize("overrides", [
    dict(max_epochs=25),
    dict(max_epochs=40, patience=3, lr=3e-2, seed=2),
    dict(max_epochs=12, precision="f64", seed=1),
])
def test_history_matches_full_row_oracle(overrides):
    # train() runs the taped step on the train rows and the per-epoch
    # metrics on the train and validation rows; the oracle runs every
    # forward over all rows, with the regularizers on the train rows of
    # its attention maps.  Its weight gradients sum over more (zero) rows,
    # which may move float rounding, so the loss gets a tolerance: 1e-6
    # relative, well under the ~7e-6 that regularizers over all rows
    # would add on this fixture.
    g = generate_toy(ToySpec(n_target=40, n_aux=12, num_classes=3,
                             homophily=0.6, feature_dim=4, train_frac=0.3,
                             val_frac=0.3, seed=3))
    cache = build_cache(g, 2, 2)
    cfg = tiny_config(**overrides)
    res = train(g, cache, cfg)
    ref = oracle_train_history(g, cache, cfg)

    def columns(history):
        return [(r.epoch, r.train_micro, r.val_macro, r.val_micro)
                for r in history]

    assert columns(res.history) == columns(ref)
    ref_best = max(ref, key=lambda r: (r.val_micro, -r.epoch)).epoch
    assert res.best_epoch == ref_best
    np.testing.assert_allclose([r.loss for r in res.history],
                               [r.loss for r in ref], rtol=1e-6, atol=0)


def _nan_loss_at(call):
    """training_loss that turns non-finite at its `call`-th call."""
    calls = []

    def poisoned(output, labels, mask, lam1, lam2):
        calls.append(None)
        if len(calls) == call:
            return ad.constant(np.array(np.nan)), {}
        return training_loss(output, labels, mask, lam1, lam2)

    return poisoned


@pytest.mark.parametrize("exit_by,overrides", [
    ("patience", dict(max_epochs=60, patience=2, lr=3e-2, seed=4)),
    ("rejected", dict(max_epochs=12, lr=3e-2, seed=2)),
    ("non_finite", dict(max_epochs=10, lr=3e-2, seed=2)),
])
def test_history_matches_full_row_oracle_at_every_exit(monkeypatch, exit_by,
                                                       overrides):
    # train() reads epoch e's train micro-F1 off epoch e+1's taped
    # forward, or off one closing forward after the loop; the oracle
    # forwards every row after every step.  Whichever way the loop ends,
    # the two histories must agree.
    import importlib
    import oracles
    train_module = importlib.import_module("ahgnn.train")
    g = generate_toy(ToySpec(n_target=40, n_aux=12, num_classes=3,
                             homophily=0.6, feature_dim=4, train_frac=0.3,
                             val_frac=0.3, seed=3))
    cache = build_cache(g, 2, 2)
    cfg = tiny_config(**overrides)
    if exit_by == "rejected":
        step = Adam.step

        def bouncing(self, params):
            self.calls = getattr(self, "calls", 0) + 1
            return self.calls not in (2, 5, 6, 12) and step(self, params)

        monkeypatch.setattr(Adam, "step", bouncing)
    elif exit_by == "non_finite":
        monkeypatch.setattr(train_module, "training_loss", _nan_loss_at(3))
        monkeypatch.setattr(oracles, "training_loss", _nan_loss_at(3))
    res = train(g, cache, cfg)
    ref = oracle_train_history(g, cache, cfg)

    def columns(history):
        return [(r.epoch, r.train_micro, r.val_macro, r.val_micro)
                for r in history]

    assert columns(res.history) == columns(ref)
    assert not any(math.isnan(r.train_micro) for r in res.history)
    np.testing.assert_allclose([r.loss for r in res.history],
                               [r.loss for r in ref], rtol=1e-6, atol=0)
    if exit_by == "patience":
        assert len(res.history) < cfg.max_epochs and not res.diverged
    elif exit_by == "rejected":
        assert res.rejected_epochs == [2, 5, 6, 12]
    else:
        assert res.diverged and len(res.history) == 2


def test_each_labeled_row_is_forwarded_once_per_epoch(monkeypatch):
    # per epoch: one taped forward over the train rows and one untaped
    # over the validation rows; after the loop, one closing train-row
    # forward and the test-row forward.  No forward covers train and
    # validation rows together.
    import importlib
    train_module = importlib.import_module("ahgnn.train")
    g = generate_toy(ToySpec(n_target=40, n_aux=12, num_classes=3,
                             homophily=0.6, feature_dim=4, train_frac=0.5,
                             val_frac=0.2, seed=3))
    cache = build_cache(g, 2, 2)
    n_train, n_val, n_test = (int((m & (g.labels >= 0)).sum())
                              for m in (g.train_mask, g.val_mask, g.test_mask))
    assert len({n_train, n_val, n_test, n_train + n_val}) == 4
    calls = []
    forward = train_module.model_forward

    def logged(c, params):
        calls.append((c.n_target, ad._active() is not None))
        return forward(c, params)

    monkeypatch.setattr(train_module, "model_forward", logged)
    train(g, cache, tiny_config(max_epochs=5))
    epoch = [(n_train, True), (n_val, False)]
    assert calls == 5 * epoch + [(n_train, False), (n_test, False)]

    # a loss that turns non-finite at epoch 3 ends the loop inside that
    # epoch's taped forward, which settles epoch 2: no closing forward
    calls.clear()
    monkeypatch.setattr(train_module, "training_loss", _nan_loss_at(3))
    res = train(g, cache, tiny_config(max_epochs=5))
    assert res.diverged and len(res.history) == 2
    assert calls == 2 * epoch + [(n_train, True), (n_test, False)]


def _one_step(monkeypatch, g, cache):
    """Loss and parameter gradients of a one-epoch train()'s taped step."""
    seen = {}
    step = Adam.step

    def spy(self, params):
        seen.update({n: p.grad.copy() for n, p in params.items()
                     if p.grad is not None})
        return step(self, params)

    monkeypatch.setattr(Adam, "step", spy)
    res = train(g, cache, tiny_config(max_epochs=1))
    return res.history[0].loss, seen


def test_taped_step_reads_only_train_rows(monkeypatch):
    # the loss, its regularizers included, and every gradient depend on
    # the train rows' messages alone: overwrite every other row with noise
    g = generate_toy(ToySpec(n_target=40, n_aux=12, num_classes=3,
                             homophily=0.6, feature_dim=4, train_frac=0.3,
                             val_frac=0.3, seed=3))
    cache = build_cache(g, 2, 2)
    others = ~(g.train_mask & (g.labels >= 0))
    noisy = cache.take_rows(np.arange(cache.n_target))
    rng = np.random.default_rng(7)
    for hops in [*noisy.feature_entries.values(),
                 *noisy.label_entries.values()]:
        for h in hops:
            h[others] = rng.normal(size=h[others].shape)
    loss, grads = _one_step(monkeypatch, g, cache)
    noisy_loss, noisy_grads = _one_step(monkeypatch, g, noisy)
    assert loss == noisy_loss
    assert sorted(grads) == sorted(noisy_grads) and grads
    for name, gr in grads.items():
        np.testing.assert_array_equal(gr, noisy_grads[name], err_msg=name)


def test_evaluate_split_equals_all_rows_evaluate(monkeypatch):
    import importlib
    from ahgnn.model import init_model_params, model_forward
    from ahgnn.train import evaluate_split
    g = generate_toy(ToySpec(n_target=40, n_aux=12, num_classes=3,
                             homophily=0.6, feature_dim=4, train_frac=0.3,
                             val_frac=0.3, seed=3))
    cache = build_cache(g, 2, 2)
    params = init_model_params(cache, 8, 2, 0.25, np.random.default_rng(0))
    logits = model_forward(cache.astype(np.float32), params).logits.data
    for mask in (g.val_mask, g.test_mask):
        assert evaluate_split(cache, params, g.labels, mask, np.float32) == \
            evaluate(logits, g.labels, mask)
    # an empty split fails before any forward runs
    train_module = importlib.import_module("ahgnn.train")

    def no_forward(*args):
        raise AssertionError("forward on an empty split")

    monkeypatch.setattr(train_module, "model_forward", no_forward)
    with pytest.raises(ValueError, match="selects no labeled node"):
        evaluate_split(cache, params, g.labels,
                       np.zeros(g.n_target, dtype=bool), np.float32)


def test_taped_step_tape_size():
    # gate fixture: l1=4, l2=2, hidden 32, heads 4; 80 records, of which
    # one per meta-path mixes its hops; a per-head loop in attention or in
    # head diversity would add about 100, a mul/add chain per hop mix 36
    from ahgnn.model import init_model_params, model_forward
    g = generate_toy(ToySpec(n_target=300, n_aux=75, num_classes=4,
                             feature_dim=8, noise=1.2, edges_per_node=4,
                             train_frac=0.15, val_frac=0.15, tolerance=0.03,
                             homophily=0.5, seed=0))
    cache = build_cache(g, 4, 2).astype(np.float32)
    params = init_model_params(cache, 32, 4, 0.25, np.random.default_rng(0))
    mask = g.train_mask & (g.labels >= 0)
    with ad.Tape() as tape:
        out = model_forward(cache, params)
        loss, _ = training_loss(out, g.labels, mask, 1e-4, 1e-4)
    assert len(tape.records) <= 84, len(tape.records)


def test_train_requires_labeled_splits():
    g, cache = tiny_graph()
    g.labels[g.train_mask] = -1
    with pytest.raises(ValueError, match="train split"):
        train(g, cache, tiny_config())


def test_fix_gamma_stays_uniform_through_training():
    g, cache = tiny_graph()
    res = train(g, cache, tiny_config(max_epochs=4, fix_gamma_uniform=True))
    for tsr in (res.params.tensors[t.gamma] for t in token_layout(cache)):
        np.testing.assert_array_equal(tsr.data, np.ones_like(tsr.data))


def test_f64_training_runs():
    g, cache = tiny_graph()
    res = train(g, cache, tiny_config(max_epochs=3, precision="f64"))
    assert res.params.tensors["gate"].data.dtype == np.float64
    assert len(res.history) == 3


# ------------------------------------------------------------- csv writers

def test_metrics_csv_layout(tmp_path):
    from ahgnn.train import EpochRow
    rows = [EpochRow(1, 0.6931471805599453, 0.875, 0.5, 0.625),
            EpochRow(2, 0.5, 1.0, 1 / 3, 0.75)]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, path)
    with open(path, newline="") as f:
        got = list(csv.reader(f))
    assert got[0] == ["epoch", "loss", "train_micro", "val_macro",
                      "val_micro"]
    assert got[1] == ["1", "0.6931471806", "0.875", "0.5", "0.625"]
    assert got[2] == ["2", "0.5", "1", "0.3333333333", "0.75"]


def test_gamma_and_beta_csv_layout(tmp_path):
    gpath, bpath = tmp_path / "gamma.csv", tmp_path / "beta.csv"
    write_gamma_csv([("A-B-A", 0, 0.25), ("A-B-A", 1, 0.75)], gpath)
    write_beta_csv([("A", 0.5), ("A-B", 0.5)], bpath)
    with open(gpath, newline="") as f:
        grows = list(csv.reader(f))
    with open(bpath, newline="") as f:
        brows = list(csv.reader(f))
    assert grows == [["path", "hop", "value"], ["A-B-A", "0", "0.25"],
                     ["A-B-A", "1", "0.75"]]
    assert brows == [["path", "beta"], ["A", "0.5"], ["A-B", "0.5"]]


def test_pipeline_demo_runs():
    proc = subprocess.run([sys.executable,
                           str(REPO_ROOT / "demos" / "precompute_and_train.py")],
                          capture_output=True, text=True, env=checkout_env(),
                          cwd=REPO_ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr

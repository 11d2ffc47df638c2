"""Full-batch training with Adam, early stopping, and head-diversity loss.

The objective is cross entropy on the train split plus two regularizers
that PUSH attention heads apart: for each attention level, minus the
mean symmetric KL divergence over unordered head pairs (so minimizing
the loss maximizes disagreement between heads).  The model is
row-independent, so each epoch's taped forward and backward run on the
train rows alone, and both regularizers average over those rows: no
validation or test input reaches a gradient.  Validation micro-F1
drives early stopping and best-parameter selection; the metrics forward
after each step covers the validation rows only.  An epoch's train
micro-F1 is read off the next epoch's taped logits, which the same
post-step parameters produce, so each labeled row is forwarded once per
epoch; only the last recorded epoch forwards the train rows once more
after the loop, and the closing test score forwards only the test rows.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import HeteroGraph
from .model import (ModelOutput, ModelParams, init_model_params,
                    model_forward)
from .propagate import MessageCache

MAX_WEIGHT_DECAY = 5e-6


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 5e-6
    max_epochs: int = 200
    hidden: int = 256
    l1: int = 2
    l2: int = 2
    alpha: float = 0.25
    lambda1: float = 1e-4
    lambda2: float = 1e-4
    heads: int = 4
    patience: int = 30
    seed: int = 0
    precision: str = "f32"
    fix_gamma_uniform: bool = False

    def validate(self) -> None:
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be positive and finite")
        if not 0 <= self.weight_decay <= MAX_WEIGHT_DECAY:
            raise ValueError(f"weight_decay must lie in [0, {MAX_WEIGHT_DECAY}]")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.hidden < 1 or self.heads < 1 or self.hidden % self.heads:
            raise ValueError("hidden must be a positive multiple of heads")
        if self.l1 < 1 or self.l2 < 1:
            raise ValueError("propagation depths l1 and l2 must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not (0 <= self.lambda1 < np.inf and 0 <= self.lambda2 < np.inf):
            raise ValueError("lambda1 and lambda2 must be non-negative "
                             "and finite")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.precision not in ("f32", "f64"):
            raise ValueError("precision must be 'f32' or 'f64'")

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        """Exactly the fields, each of its type (an int may be a float)."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be an object, got {type(d).__name__}")
        odd = sorted(set(d) ^ {f.name for f in fields(TrainConfig)})
        if odd:
            raise ValueError(f"config field {odd[0]!r} is "
                             f"{'unknown' if odd[0] in d else 'missing'}")
        values = {}
        for f in fields(TrainConfig):
            kind, value = type(f.default), d[f.name]
            ok = isinstance(value, (int, float) if kind is float else kind)
            if not ok or (kind is not bool and isinstance(value, bool)):
                raise ValueError(f"config field {f.name!r} must be "
                                 f"{kind.__name__}, got {value!r}")
            values[f.name] = kind(value)
        cfg = TrainConfig(**values)
        cfg.validate()
        return cfg


class Adam:
    """Adam with bias correction and decoupled weight decay.

    Weight decay shrinks parameters by lr*wd*theta before the moment
    update.  A step with any non-finite gradient is rejected wholesale.

    A step updates every live parameter (one that requires and holds a
    gradient) at once: their gradients are concatenated in float64 into
    one flat vector beside flat first and second moment buffers, and
    their values into one flat vector per dtype, so a step costs a fixed
    number of numpy calls instead of a dozen per parameter.  Element by
    element the arithmetic is that of a per-parameter loop (decay in the
    parameter's dtype, moments in float64), so the results are
    bit-identical to it.  `m` and `v` map each parameter name to its
    slice of the moment buffers; a parameter that holds no gradient in a
    step keeps its moments until it is live again.
    """

    def __init__(self, lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._layout: tuple = ()
        self._flat_m = self._flat_v = np.zeros(0)

    def _lay_out(self, live: dict[str, Tensor]) -> None:
        """Flat moment buffers over `live`, carrying over stored moments."""
        self._layout = tuple((n, p.data.shape) for n, p in live.items())
        size = sum(p.data.size for p in live.values())
        self._flat_m, self._flat_v = np.zeros(size), np.zeros(size)
        lo = 0
        for name, p in live.items():
            hi = lo + p.data.size
            for flat, store in ((self._flat_m, self.m), (self._flat_v, self.v)):
                if name in store:
                    flat[lo:hi] = store[name].ravel()
                store[name] = flat[lo:hi].reshape(p.data.shape)
            lo = hi

    def step(self, params: dict[str, Tensor]) -> bool:
        """Apply one update; returns False (no change) on non-finite grads."""
        live = {n: p for n, p in params.items()
                if p.requires_grad and p.grad is not None}
        if not live:
            self.t += 1
            return True
        g = np.concatenate([p.grad.ravel() for p in live.values()],
                           dtype=np.float64)
        if not np.isfinite(g).all():
            return False
        if tuple((n, p.data.shape) for n, p in live.items()) != self._layout:
            self._lay_out(live)
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        m, v = self._flat_m, self._flat_v
        m *= self.beta1
        m += (1 - self.beta1) * g
        gg = (1 - self.beta2) * g
        gg *= g
        v *= self.beta2
        v += gg
        upd = self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

        groups: dict[np.dtype, list[tuple[Tensor, int]]] = {}
        lo = 0
        for p in live.values():
            groups.setdefault(p.data.dtype, []).append((p, lo))
            lo += p.data.size
        for dtype, members in groups.items():
            theta = np.concatenate([p.data.ravel() for p, _ in members])
            delta = upd if len(members) == len(live) else np.concatenate(
                [upd[o:o + p.data.size] for p, o in members])
            if self.weight_decay:
                theta = theta - self.lr * self.weight_decay * theta
            theta = theta - delta.astype(dtype)
            pos = 0
            for p, _ in members:
                p.data = theta[pos:pos + p.data.size].reshape(p.data.shape)
                pos += p.data.size
        return True


def head_diversity(att: Tensor) -> Tensor:
    """Minus the mean symmetric KL between attention head pairs.

    `att` holds one level's (N, H, S, S) maps.  Zero (constant) when
    there is a single head.
    """
    if att.shape[1] < 2:
        return ad.constant(np.zeros((), dtype=att.data.dtype))
    return ad.scale(ad.head_pair_kl(att), -1.0)


def training_loss(output: ModelOutput, labels: np.ndarray,
                  train_mask: np.ndarray, lambda1: float,
                  lambda2: float) -> tuple[Tensor, dict]:
    """Cross entropy plus weighted coarse/fine diversity terms.

    Cross entropy reads the masked rows; both diversity terms average
    over every row of `output`.  `train` therefore passes the output of
    a forward over the train rows alone, with an all-true mask.
    """
    ce = ad.cross_entropy_logits(output.logits, labels, train_mask)
    r_coarse = head_diversity(output.coarse_attention)
    r_fine = head_diversity(output.fine_attention)
    loss = ad.add(ce, ad.add(ad.scale(r_coarse, lambda1),
                             ad.scale(r_fine, lambda2)))
    parts = {"ce": float(ce.data), "r_coarse": float(r_coarse.data),
             "r_fine": float(r_fine.data)}
    return loss, parts


@dataclass
class Metrics:
    macro_f1: float
    micro_f1: float


def f1_scores(predictions: np.ndarray, labels: np.ndarray,
              num_classes: int) -> Metrics:
    """Macro (mean over ALL classes, empty classes scoring 0) and micro F1.

    Both come from one confusion matrix, counted with a single bincount.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape:
        raise ValueError("prediction/label length mismatch")
    if labels.size == 0:
        raise ValueError("cannot score an empty label set")
    if min(predictions.min(), labels.min()) < 0 or \
            max(predictions.max(), labels.max()) >= num_classes:
        raise ValueError(f"classes must lie in [0, {num_classes})")
    cm = np.bincount(labels * num_classes + predictions,
                     minlength=num_classes * num_classes
                     ).reshape(num_classes, num_classes)
    tp = np.diagonal(cm)
    denom = cm.sum(axis=0) + cm.sum(axis=1)  # 2 tp + fp + fn
    per_class = np.divide(2 * tp, denom, out=np.zeros(num_classes),
                          where=denom > 0)
    micro = float(tp.sum() / labels.size)
    return Metrics(macro_f1=float(per_class.mean()), micro_f1=micro)


def labeled_rows(mask: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Indices of the masked, labeled nodes, the rows `evaluate` scores."""
    rows = np.flatnonzero(np.asarray(mask, dtype=bool)
                          & (np.asarray(labels) >= 0))
    if rows.size == 0:
        raise ValueError("evaluation mask selects no labeled node")
    return rows


def evaluate(logits: np.ndarray, labels: np.ndarray,
             mask: np.ndarray) -> Metrics:
    """Argmax predictions scored on masked, labeled nodes."""
    rows = labeled_rows(mask, labels)
    preds = np.argmax(logits[rows], axis=1)
    return f1_scores(preds, np.asarray(labels)[rows], logits.shape[1])


def evaluate_split(cache: MessageCache, params: ModelParams,
                   labels: np.ndarray, mask: np.ndarray, dtype) -> Metrics:
    """`evaluate` on a forward over the masked, labeled rows alone.

    Equals `evaluate` on an all-rows forward, because the model is
    row-independent; only the rows it scores are cast and forwarded.
    """
    rows = labeled_rows(mask, labels)
    logits = model_forward(cache.take_rows(rows).astype(dtype),
                           params).logits.data
    return evaluate(logits, np.asarray(labels)[rows],
                    np.ones(rows.size, dtype=bool))


@dataclass
class EpochRow:
    epoch: int
    loss: float
    train_micro: float
    val_macro: float
    val_micro: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochRow]
    best_epoch: int
    best_val_micro: float
    test: Metrics
    diverged: bool = False
    rejected_epochs: list[int] = field(default_factory=list)


def _snapshot(params: ModelParams) -> dict[str, np.ndarray]:
    return {n: t.data.copy() for n, t in params.all_parameters().items()}


def _restore(params: ModelParams, snap: dict[str, np.ndarray]) -> None:
    for n, t in params.all_parameters().items():
        t.data = snap[n].copy()


def train(graph: HeteroGraph, cache: MessageCache,
          config: TrainConfig) -> TrainResult:
    """Train to convergence or max_epochs; returns best-validation params."""
    config.validate()
    if cache.l1 != config.l1 or cache.l2 != config.l2:
        raise ValueError(
            f"cache was built for L1={cache.l1}, L2={cache.l2}; config asks "
            f"for L1={config.l1}, L2={config.l2}")
    dtype = config.dtype
    rng = np.random.default_rng(config.seed)
    params = init_model_params(cache, config.hidden, config.heads, config.alpha,
                               rng, dtype=dtype,
                               fix_gamma=config.fix_gamma_uniform,
                               num_classes=graph.num_classes)
    named = params.all_parameters()
    opt = Adam(lr=config.lr, weight_decay=config.weight_decay)
    labels = graph.labels
    train_mask = graph.train_mask & (labels >= 0)
    if not np.any(train_mask):
        raise ValueError("train split holds no labeled node")
    val_mask = graph.val_mask & (labels >= 0)
    if not np.any(val_mask):
        raise ValueError("validation split holds no labeled node")

    # The model is row-independent, so each forward runs on the rows it
    # is read on: the taped step on the train rows (the loss reads no
    # other), the metrics forward after the step on the validation rows.
    # Epoch e's train micro-F1 comes from epoch e+1's taped logits, made
    # by the same post-step parameters; only the last recorded epoch
    # needs a train-row forward of its own, after the loop.
    train_rows = np.flatnonzero(train_mask)
    train_cache = cache.take_rows(train_rows).astype(dtype)
    train_labels = labels[train_rows]
    train_all = np.ones(train_rows.size, dtype=bool)
    val_rows = np.flatnonzero(val_mask)
    val_cache = cache.take_rows(val_rows).astype(dtype)
    val_labels = labels[val_rows]
    val_all = np.ones(val_rows.size, dtype=bool)

    def train_micro(logits: np.ndarray) -> float:
        return evaluate(logits, train_labels, train_all).micro_f1

    history: list[EpochRow] = []
    rejected: list[int] = []
    best = _snapshot(params)
    best_val = -1.0
    best_epoch = 0
    bad_epochs = 0
    diverged = False

    for epoch in range(1, config.max_epochs + 1):
        for t in named.values():
            t.grad = None
        with ad.Tape() as tape:
            out = model_forward(train_cache, params)
            loss, _ = training_loss(out, train_labels, train_all,
                                    config.lambda1, config.lambda2)
        if history:
            history[-1].train_micro = train_micro(out.logits.data)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            diverged = True
            break
        tape.backward(loss)
        if not opt.step(named):
            rejected.append(epoch)
        m = evaluate(model_forward(val_cache, params).logits.data,
                     val_labels, val_all)
        history.append(EpochRow(epoch=epoch, loss=loss_val,
                                train_micro=float("nan"),
                                val_macro=m.macro_f1, val_micro=m.micro_f1))
        if m.micro_f1 > best_val:
            best_val = m.micro_f1
            best = _snapshot(params)
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.patience:
                break

    if not diverged:
        history[-1].train_micro = train_micro(
            model_forward(train_cache, params).logits.data)
    _restore(params, best)
    test_mask = graph.test_mask & (labels >= 0)
    if np.any(test_mask):
        test = evaluate_split(cache, params, labels, test_mask, dtype)
    else:
        test = Metrics(macro_f1=float("nan"), micro_f1=float("nan"))
    return TrainResult(params=params, history=history, best_epoch=best_epoch,
                       best_val_micro=best_val, test=test, diverged=diverged,
                       rejected_epochs=rejected)


def write_metrics_csv(history: list[EpochRow], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "loss", "train_micro", "val_macro", "val_micro"])
        for row in history:
            w.writerow([row.epoch, f"{row.loss:.10g}",
                        f"{row.train_micro:.10g}",
                        f"{row.val_macro:.10g}", f"{row.val_micro:.10g}"])


def write_gamma_csv(rows: list[tuple[str, int, float]], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["path", "hop", "value"])
        for key, hop, val in rows:
            w.writerow([key, hop, f"{val:.10g}"])


def write_beta_csv(rows: list[tuple[str, float]], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["path", "beta"])
        for key, val in rows:
            w.writerow([key, f"{val:.10g}"])


def write_run_json(config: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(config, f, indent=2, sort_keys=True)
        f.write("\n")

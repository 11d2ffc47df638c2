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
after the loop, and the closing test score forwards only the test rows,
in chunks of bounded size (`evaluate_split`).
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import HeteroGraph, write_csv
from .model import (ModelOutput, ModelParams, init_model_params,
                    model_forward, predict_logits, token_layout)
from .propagate import MessageCache

MAX_WEIGHT_DECAY = 5e-6

# A scoring forward holds at most this many elements of its (rows x
# tokens x hidden) token tensor: 256 KB of float32, so the 210 test rows of
# the gate fixture (6 tokens, hidden 32) are one chunk, and the 1,600-node
# scaling fixture (11 tokens, hidden 64) forwards 80 rows at a time, whose
# intermediates peak at 2.4 MiB under tracemalloc, where all 320 test
# rows took 9.5 MiB.
_SCORE_ELEMENTS = 2**18 // np.dtype(np.float32).itemsize

# Chunks of more rows than this hold a multiple of it, so each starts
# where one forward over the split starts a block of rows in a BLAS
# kernel, and the logits are bit-equal to that forward's.  Measured with
# OpenBLAS on x86-64: chunks of 8, 16, 32, 48 and 64 rows of the scaling
# fixture's test split were bit-equal at f32 and f64, 93-row chunks
# differed in the last bit of 4 to 6 logits, and so does a one-row last
# chunk, which BLAS runs as a vector product.
_SCORE_ROW_BLOCK = 16


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

    The optimizer updates one fixed set of live parameters (those that
    require and hold a gradient), all of one dtype; a step whose live
    set, shapes or dtype differ from the first step's raises ValueError.
    The first accepted step lays out flat float64 first and second
    moment buffers over them, and `m` and `v` map each parameter name to
    its view of those buffers.  A step concatenates the gradients in
    float64 and the values into one flat vector, so it costs a fixed
    number of numpy calls instead of a dozen per parameter.  Element by
    element the arithmetic is that of a per-parameter loop (decay in the
    parameter's dtype, moments in float64), so the results are
    bit-identical to it.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float, weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._layout: list | None = None   # set by the first accepted step
        self._flat_m = self._flat_v = np.zeros(0)

    def step(self, params: dict[str, Tensor]) -> bool:
        """Apply one update; returns False (no change) on non-finite grads."""
        live = {n: p for n, p in params.items()
                if p.requires_grad and p.grad is not None}
        layout = [(n, p.data.shape, p.data.dtype) for n, p in live.items()]
        if self._layout is None:
            dtypes = {dtype for _, _, dtype in layout}
            if len(dtypes) != 1:
                raise ValueError(f"Adam updates parameters of one dtype; the "
                                 f"live ones hold {sorted(map(str, dtypes))}")
        elif layout != self._layout:
            raise ValueError("Adam updates one fixed set of parameters: "
                             "the live names, shapes or dtype differ from "
                             "the first step's")
        g = np.concatenate([p.grad.ravel() for p in live.values()],
                           dtype=np.float64)
        if not np.isfinite(g).all():
            return False
        if self._layout is None:
            self._layout = layout
            self._flat_m, self._flat_v = np.zeros(g.size), np.zeros(g.size)
            lo = 0
            for name, p in live.items():
                hi = lo + p.data.size
                self.m[name] = self._flat_m[lo:hi].reshape(p.data.shape)
                self.v[name] = self._flat_v[lo:hi].reshape(p.data.shape)
                lo = hi
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

        theta = np.concatenate([p.data.ravel() for p in live.values()])
        if self.weight_decay:
            theta = theta - self.lr * self.weight_decay * theta
        theta = theta - upd.astype(theta.dtype)
        lo = 0
        for p in live.values():
            p.data = theta[lo:lo + p.data.size].reshape(p.data.shape)
            lo += p.data.size
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
    """`evaluate` on forwards over the masked, labeled rows alone.

    Equals `evaluate` on an all-rows forward, because the model is
    row-independent.  Only the rows it scores are forwarded, through
    `predict_logits` in chunks of at most `_SCORE_ELEMENTS` token-tensor
    elements, each cast to `dtype` on its own, so the memory a split
    takes is bounded whatever its size.  A cache that holds exactly the
    scored rows, in order, is not copied; from any other those rows are
    copied once.  This scores `ahgnn eval` and `train`'s closing test
    split.
    """
    rows = labeled_rows(mask, labels)
    width = len(token_layout(cache)) * params.tensors["cls.w"].shape[0]
    chunk = max(1, _SCORE_ELEMENTS // width)
    if chunk > _SCORE_ROW_BLOCK:
        chunk -= chunk % _SCORE_ROW_BLOCK
    if not np.array_equal(rows, np.arange(cache.n_target)):
        cache = cache.take_rows(rows)
    logits = predict_logits(cache, params, batch_size=chunk, dtype=dtype)
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
    # what turned non-finite and in which epoch, None when nothing did
    non_finite: str | None = None
    rejected_epochs: list[int] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return self.non_finite is not None


def _snapshot(params: ModelParams) -> dict[str, np.ndarray]:
    return {n: t.data.copy() for n, t in params.tensors.items()}


def _restore(params: ModelParams, snap: dict[str, np.ndarray]) -> None:
    for n, t in params.tensors.items():
        t.data = snap[n].copy()


def train(graph: HeteroGraph, cache: MessageCache,
          config: TrainConfig) -> TrainResult:
    """Train to convergence or max_epochs; returns best-validation params.

    A run diverges when its loss, or a forward's overflow or invalid
    value, turns non-finite: the loop ends there, the epoch whose
    validation forward failed is not recorded, and the best-validation
    parameters are restored and scored on test as after any other run.
    With no epoch recorded, `best_val_micro` is NaN.  An epoch whose next
    taped forward failed keeps a NaN train micro-F1.
    """
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
    named = params.tensors
    opt = Adam(lr=config.lr, weight_decay=config.weight_decay)
    labels = graph.labels

    # The model is row-independent, so each forward runs on the rows it
    # is read on: the taped step on the train rows (the loss reads no
    # other), the metrics forward after the step on the validation rows.
    # Epoch e's train micro-F1 comes from epoch e+1's taped logits, made
    # by the same post-step parameters; only the last recorded epoch
    # needs a train-row forward of its own, after the loop.
    def split(mask: np.ndarray, name: str):
        """(cache, labels, all-true mask) of a split's labeled rows."""
        rows = np.flatnonzero(mask & (labels >= 0))
        if rows.size == 0:
            raise ValueError(f"{name} split holds no labeled node")
        return (cache.take_rows(rows).astype(dtype), labels[rows],
                np.ones(rows.size, dtype=bool))

    train_cache, train_labels, train_all = split(graph.train_mask, "train")
    val_cache, val_labels, val_all = split(graph.val_mask, "validation")

    def train_micro(logits: np.ndarray) -> float:
        return evaluate(logits, train_labels, train_all).micro_f1

    history: list[EpochRow] = []
    rejected: list[int] = []
    best = _snapshot(params)
    best_val = -1.0
    best_epoch = 0
    bad_epochs = 0
    non_finite = None

    for epoch in range(1, config.max_epochs + 1):
        for t in named.values():
            t.grad = None
        try:
            with np.errstate(over="raise", invalid="raise"), \
                    ad.Tape() as tape:
                out = model_forward(train_cache, params)
                loss, _ = training_loss(out, train_labels, train_all,
                                        config.lambda1, config.lambda2)
        except FloatingPointError:
            non_finite = f"taped forward of epoch {epoch}"
            break
        if history:
            history[-1].train_micro = train_micro(out.logits.data)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            non_finite = f"loss of epoch {epoch}"
            break
        tape.backward(loss)
        if not opt.step(named):
            rejected.append(epoch)
        try:
            with np.errstate(over="raise", invalid="raise"):
                logits = model_forward(val_cache, params).logits.data
        except FloatingPointError:
            non_finite = f"validation forward of epoch {epoch}"
            break
        m = evaluate(logits, val_labels, val_all)
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

    if non_finite is None:
        history[-1].train_micro = train_micro(
            model_forward(train_cache, params).logits.data)
    _restore(params, best)
    test_mask = graph.test_mask & (labels >= 0)
    if np.any(test_mask):
        test = evaluate_split(cache, params, labels, test_mask, dtype)
    else:
        test = Metrics(macro_f1=float("nan"), micro_f1=float("nan"))
    return TrainResult(params=params, history=history, best_epoch=best_epoch,
                       best_val_micro=best_val if history else float("nan"),
                       test=test,
                       non_finite=non_finite,
                       rejected_epochs=rejected)


def write_metrics_csv(history: list[EpochRow], path) -> None:
    write_csv(path, [f.name for f in fields(EpochRow)], map(astuple, history))


def write_gamma_csv(rows: list[tuple[str, int, float]], path) -> None:
    write_csv(path, ["path", "hop", "value"], rows)


def write_beta_csv(rows: list[tuple[str, float]], path) -> None:
    write_csv(path, ["path", "beta"], rows)

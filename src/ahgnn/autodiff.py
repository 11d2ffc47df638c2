"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray; ops record onto the innermost active Tape,
whose records are already in execution order, so the backward pass is a
single reversed sweep with gradient accumulation.  Outside any tape the
same ops run forward-only, which is what inference uses.

The model's token axis is short (one token per meta-path, 6 on the
gate fixture), and numpy runs a reduction over so short an axis about
ten times slower than the same work as one elementwise op per token
column.  So `row_softmax` and `mean_axis` reduce with a loop over
slabs: one `np.maximum` or `+=` per column of the reduced axis.

Gradient checking compares against central finite differences and is
meant to run at float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TAPE_STACK: list["Tape"] = []

# kl_mean and head_pair_kl clamp probabilities below at this floor
KL_FLOOR = 1e-8
# grad_check's central-difference step
FD_STEP = 1e-5


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


@dataclass
class Record:
    inputs: tuple
    output: Tensor
    vjp: callable


class Tape:
    """Execution-order record of ops; consumed once by backward()."""

    def __init__(self):
        self.records: list[Record] = []
        self._used = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into .grad of every reachable tensor."""
        if self._used:
            raise RuntimeError("tape already consumed by a previous backward()")
        self._used = True
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        holders: dict[int, Tensor] = {id(loss): loss}
        for rec in reversed(self.records):
            g = grads.get(id(rec.output))
            if g is None:
                continue
            for t, gi in zip(rec.inputs, rec.vjp(g)):
                if gi is None or not t.requires_grad:
                    continue
                k = id(t)
                holders[k] = t
                if k in grads:
                    grads[k] = grads[k] + gi
                else:
                    grads[k] = gi
        for k, t in holders.items():
            if t.requires_grad:
                t.grad = grads[k]


def _active() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(out_data, inputs: tuple, vjp) -> Tensor:
    tape = _active()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape.records.append(Record(inputs=inputs, output=out, vjp=vjp))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to a broadcast operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def constant(x, dtype=None) -> Tensor:
    return Tensor(np.asarray(x, dtype=dtype), requires_grad=False)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _emit(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape),
                            _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _emit(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape),
                            _unbroadcast(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _emit(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit(a.data * c, (a,), lambda g: (g * c,))


def add_const(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit(a.data + c, (a,), lambda g: (g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes.

    An N-D `a` times a 2-D `b` runs as one 2-D GEMM over the flattened
    rows of `a`, in the forward pass and in both VJPs, so the weight
    gradient is a single product instead of one per leading index.  A
    VJP skips the product for an operand that takes no gradient, such
    as a constant message under a projection weight.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    if b.data.ndim == 2 and a.data.ndim > 2:
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out_shape = a.data.shape[:-1] + b.data.shape[-1:]

        def vjp_rows(g):
            g2 = g.reshape(-1, g.shape[-1])
            ga = gb = None
            if a.requires_grad:
                ga = (g2 @ b.data.T).reshape(a.data.shape)
            if b.requires_grad:
                gb = a2.T @ g2
            return ga, gb

        return _emit((a2 @ b.data).reshape(out_shape), (a, b), vjp_rows)

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            bt = np.swapaxes(b.data, -1, -2)
            if bt.ndim > 2:
                # a stacked product runs faster on a contiguous copy of a
                # transposed right operand; a transposed left operand
                # stays a view, since copying it cost more than it saved
                # at 960 rows of 11 tokens
                bt = np.ascontiguousarray(bt)
            ga = _unbroadcast(g @ bt, a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _emit(a.data @ b.data, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    return _emit(np.swapaxes(a.data, -1, -2), (a,),
                 lambda g: (np.swapaxes(g, -1, -2),))


def permute(a: Tensor, axes: tuple) -> Tensor:
    """Reorder the axes, as numpy.transpose(a, axes).

    Output and gradient are contiguous copies: batched matmul over a
    strided view runs several times slower.
    """
    inverse = tuple(np.argsort(axes))
    return _emit(np.ascontiguousarray(np.transpose(a.data, axes)), (a,),
                 lambda g: (np.ascontiguousarray(np.transpose(g, inverse)),))


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old = a.data.shape
    return _emit(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def unsqueeze(a: Tensor, axis: int) -> Tensor:
    return reshape(a, a.data.shape[:axis] + (1,) + a.data.shape[axis:])


def weighted_sum(terms: list[Tensor], w: Tensor) -> Tensor:
    """sum_j w[j] * terms[j] for a 1-D weight vector, as one tape record.

    The products are summed left to right, as the chain of `mul`/`add`
    ops that spells the same sum would.
    """
    if w.data.ndim != 1 or w.data.shape[0] != len(terms) or not terms:
        raise ValueError("weighted_sum needs one weight per term")
    acc = terms[0].data * w.data[0]
    for j in range(1, len(terms)):
        acc = acc + terms[j].data * w.data[j]

    def vjp(g):
        gw = np.array([_unbroadcast(g * t.data, ()) for t in terms],
                      dtype=w.data.dtype) if w.requires_grad else None
        return (*(g * w.data[j] for j in range(len(terms))), gw)

    return _emit(acc, (*terms, w), vjp)


def _slab_reduce(op, x: np.ndarray, axis: int) -> np.ndarray:
    """op.reduce(x, axis) as one elementwise `op` per index of `axis`, in order."""
    lead = (slice(None),) * (axis % x.ndim)
    acc = np.array(x[lead + (0,)])
    for j in range(1, x.shape[axis]):
        op(acc, x[lead + (j,)], out=acc)
    return acc


def index1d(a: Tensor, i: int) -> Tensor:
    """Pick one element of a 1-D tensor as a scalar."""
    if a.data.ndim != 1:
        raise ValueError("index1d expects a 1-D tensor")

    def vjp(g):
        gi = np.zeros_like(a.data)
        gi[i] = g
        return (gi,)

    return _emit(a.data[i], (a,), vjp)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last axis."""

    def vjp(g):
        gi = np.zeros_like(a.data)
        gi[..., start:stop] = g
        return (gi,)

    return _emit(a.data[..., start:stop].copy(), (a,), vjp)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(parts)))

    return _emit(np.concatenate([p.data for p in parts], axis=axis),
                 tuple(parts), vjp)


def row_softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, reduced slab by slab."""
    e = np.exp(a.data - _slab_reduce(np.maximum, a.data, -1)[..., None])
    s = e / _slab_reduce(np.add, e, -1)[..., None]

    def vjp(g):
        dot = _slab_reduce(np.add, g * s, -1)[..., None]
        return (s * (g - dot),)

    return _emit(s, (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    s = np.where(a.data >= 0,
                 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                 np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
    s = s.astype(a.data.dtype)
    return _emit(s, (a,), lambda g: (g * s * (1.0 - s),))


def mean_axis(a: Tensor, axis: int) -> Tensor:
    """Mean over one axis, summed slab by slab."""
    n = a.data.shape[axis]
    return _emit(_slab_reduce(np.add, a.data, axis) / n, (a,),
                 lambda g: (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),))


def sum_all(a: Tensor) -> Tensor:
    return _emit(a.data.sum(), (a,),
                 lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Normalize along the last axis; zero rows map to zero with zero grad."""
    norm = np.sqrt((a.data ** 2).sum(axis=-1, keepdims=True))
    safe = np.where(norm > 0, norm, 1.0)
    y = a.data / safe
    live = (norm > 0).astype(a.data.dtype)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (live * (g - y * dot) / safe,)

    return _emit(y * live, (a,), vjp)


def cross_entropy_logits(logits: Tensor, labels: np.ndarray,
                         mask: np.ndarray) -> Tensor:
    """Mean cross entropy between logits rows and int labels over a mask."""
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise ValueError("cross entropy needs a nonempty mask")
    z = logits.data[idx]
    y = labels[idx]
    if y.min() < 0 or y.max() >= z.shape[1]:
        raise ValueError("labels out of range for the logit width")
    zmax = z.max(axis=1, keepdims=True)
    lse = (zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1)))
    loss = (lse - z[np.arange(idx.size), y]).mean()

    def vjp(g):
        p = np.exp(z - zmax)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(idx.size), y] -= 1.0
        gi = np.zeros_like(logits.data)
        gi[idx] = p * (g / idx.size)
        return (gi,)

    return _emit(np.asarray(loss, dtype=logits.data.dtype), (logits,), vjp)


def kl_mean(p: Tensor, q: Tensor) -> Tensor:
    """Mean over rows of KL(p || q) with entries clamped below at KL_FLOOR.

    Rows are the last axis; leading axes are flattened into the row
    count.  Clamping is a floor only, rows are NOT renormalized, so two
    disjoint one-hot rows measure ~ln(1/KL_FLOOR).
    """
    pc = np.maximum(p.data, KL_FLOOR)
    qc = np.maximum(q.data, KL_FLOOR)
    log_ratio = np.log(pc) - np.log(qc)
    rows = int(np.prod(p.data.shape[:-1])) if p.data.ndim > 1 else 1
    out = (pc * log_ratio).sum() / rows

    def vjp(g):
        coeff = g / rows
        gp = np.where(p.data > KL_FLOOR, (log_ratio + 1.0) * coeff, 0.0)
        gq = np.where(q.data > KL_FLOOR, -(pc / qc) * coeff, 0.0)
        return (gp.astype(p.data.dtype), gq.astype(q.data.dtype))

    return _emit(np.asarray(out, dtype=p.data.dtype), (p, q), vjp)


def head_pair_kl(p: Tensor) -> Tensor:
    """Mean symmetric KL over all unordered pairs of heads (axis 1).

    For p of shape (N, H, ..., S) with rows on the last axis this equals
    the mean over pairs i < j of (kl_mean(p_i, p_j) + kl_mean(p_j, p_i)) / 2,
    with the same KL_FLOOR and the same gradient masks, but in O(H)
    work through the identity
    sum_{i<j} KL(p_i||p_j) + KL(p_j||p_i)
        = H * sum_i p_i log p_i - (sum_i p_i)(sum_j log p_j)
    taken entrywise.  Needs at least two heads.
    """
    h = p.data.shape[1] if p.data.ndim > 2 else 0
    if h < 2:
        raise ValueError("head_pair_kl needs an (N, H, ..., S) tensor with H >= 2")
    pc = np.maximum(p.data, KL_FLOOR)
    log_pc = np.log(pc)
    sum_p = pc.sum(axis=1, keepdims=True)
    sum_log = log_pc.sum(axis=1, keepdims=True)
    rows = p.data.size // (h * p.data.shape[-1])
    c = 1.0 / (h * (h - 1) * rows)  # 1/2 of the pair sum, over pairs and rows
    out = c * (h * (pc * log_pc).sum() - (sum_p * sum_log).sum())

    def vjp(g):
        grad = (h * (log_pc + 1.0) - sum_log - sum_p / pc) * (g * c)
        return (np.where(p.data > KL_FLOOR, grad, 0.0).astype(p.data.dtype),)

    return _emit(np.asarray(out, dtype=p.data.dtype), (p,), vjp)


@dataclass
class GradCheckResult:
    max_rel_err: float
    n_coords: int


def grad_check(fn, inputs: list[Tensor], max_coords: int | None = None,
               rng=None) -> GradCheckResult:
    """Compare tape gradients of `fn(*inputs)` against central differences.

    Each difference steps one coordinate by +-FD_STEP.

    `fn` must be a pure function returning a scalar Tensor.  Relative
    error is |analytic - numeric| / max(1, |numeric|).  With max_coords
    set, that many coordinates per input are sampled with `rng`.
    """
    for t in inputs:
        t.grad = None
    with Tape() as tape:
        out = fn(*inputs)
    tape.backward(out)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data)
                for t in inputs]
    worst = 0.0
    checked = 0
    for t, g in zip(inputs, analytic):
        size = t.data.size
        if size == 0:
            continue
        if max_coords is not None and size > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(size, size=max_coords, replace=False)
        else:
            coords = np.arange(size)
        for k in coords:
            orig = t.data.flat[k]
            t.data.flat[k] = orig + FD_STEP
            f_plus = float(fn(*inputs).data)
            t.data.flat[k] = orig - FD_STEP
            f_minus = float(fn(*inputs).data)
            t.data.flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            err = abs(float(g.flat[k]) - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
            checked += 1
    return GradCheckResult(max_rel_err=worst, n_coords=checked)

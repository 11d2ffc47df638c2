"""Adaptive hop mixing over meta-paths plus coarse-to-fine semantic fusion.

Per meta-path token, precomputed hop messages are projected into a
shared hidden space and mixed with learnable hop weights gamma
(initialized to a decaying convex profile, which is provably low-pass;
see spectral).  `token_layout` alone decides what a token is made of:
its hop messages, their projections and its gamma.  The tokens are
fused in two rounds of multi-head attention: a coarse round whose
averaged attention mass yields per-token influence factors, and a fine
round over influence-scaled tokens; a sigmoid-gated sum of the two,
mean-pooled and row-normalized, feeds a linear classifier.  Each round
runs all heads as one batched product, and its attention maps are one
(N, H, S, S) tensor: nodes, heads, query tokens, key tokens.  No node
sees another, so a forward pass over a subset of rows gives exactly
those rows of the full pass.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .propagate import MessageCache, label_hop_indices, prefix_key

CHECKPOINT_MAGIC = b"AHGM"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for unreadable or mismatched checkpoint files."""


def init_gamma(alpha: float, hops: int) -> np.ndarray:
    """Decaying hop-weight profile alpha(1-alpha)^l, tail mass on the last hop.

    The returned vector has hops+1 entries, all positive, summing to 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if hops < 0:
        raise ValueError("hops must be >= 0")
    g = np.array([alpha * (1.0 - alpha) ** l for l in range(hops)]
                 + [(1.0 - alpha) ** hops], dtype=np.float64)
    return g


@dataclass
class LinearParams:
    w: Tensor
    b: Tensor


@dataclass
class AttentionParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


class Hop(NamedTuple):
    step: int            # the prefix's step count, the hop's row in gamma.csv
    projection: str      # name of the projection that reads it
    message: np.ndarray  # the cache's stored prefix message itself


class Token(NamedTuple):
    key: str             # path key; a label path's is suffixed ':label'
    gamma: str           # name of the token's hop-weight vector
    hops: tuple[Hop, ...]


def token_layout(cache: MessageCache) -> list[Token]:
    """The attention tokens: feature paths, then label paths, each sorted.

    Hop l of a feature path is its prefix's message under that prefix's
    projection, which every path through the prefix shares; a label
    path's hops are its prefixes that end at the target, each under a
    projection of its own.
    """
    feats, labs = cache.feature_messages, cache.label_messages
    tokens = [Token(key, f"gamma.{key}", tuple(
        Hop(l, f"fproj.{prefix_key(key, l)}", feats[prefix_key(key, l)])
        for l in range(key.count("-") + 1))) for key in sorted(feats)]
    return tokens + [Token(f"{key}:label", f"lgamma.{key}", tuple(
        Hop(h, f"lproj.{key}.{h}", labs[prefix_key(key, h)])
        for h in label_hop_indices(key, cache.target_type)))
        for key in sorted(labs)]


@dataclass
class ModelParams:
    heads: int
    gamma: dict[str, Tensor]              # one hop-weight vector per token
    projections: dict[str, LinearParams]  # one per distinct hop projection
    coarse: AttentionParams
    fine: AttentionParams
    gate: Tensor
    classifier: LinearParams

    def all_parameters(self) -> dict[str, Tensor]:
        """Flat name -> Tensor map with stable, checkpointable names.

        Hop weights, then projections, each in token-layout order; then
        attention, gate and classifier.
        """
        out = dict(self.gamma)
        for name, lin in self.projections.items():
            out[f"{name}.w"], out[f"{name}.b"] = lin.w, lin.b
        for side, att in (("coarse", self.coarse), ("fine", self.fine)):
            out.update((f"{side}.{nm}", t) for nm, t in vars(att).items())
        out["gate"] = self.gate
        out["cls.w"] = self.classifier.w
        out["cls.b"] = self.classifier.b
        return out


def _glorot(rng, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def _linear(rng, fan_in: int, fan_out: int, dtype, name: str) -> LinearParams:
    return LinearParams(
        w=Tensor(_glorot(rng, fan_in, fan_out, dtype), requires_grad=True,
                 name=f"{name}.w"),
        b=Tensor(np.zeros(fan_out, dtype=dtype), requires_grad=True,
                 name=f"{name}.b"),
    )


def _attention(rng, hidden: int, dtype, side: str) -> AttentionParams:
    return AttentionParams(*(Tensor(_glorot(rng, hidden, hidden, dtype),
                                    requires_grad=True, name=f"{side}.{nm}")
                             for nm in ("wq", "wk", "wv", "wo")))


def init_model_params(cache: MessageCache, hidden: int, heads: int,
                      alpha: float, rng, dtype=np.float32,
                      fix_gamma: bool = False,
                      num_classes: int | None = None) -> ModelParams:
    """Fresh parameters sized to a message cache.

    The classifier has num_classes outputs, the graph's class count; left
    None, it takes the label messages' width, so a cache without label
    paths needs it.  With fix_gamma, every hop weight is pinned at 1.0
    and excluded from gradient updates (the non-adaptive ablation).
    """
    if hidden < 1 or heads < 1 or hidden % heads != 0:
        raise ValueError(f"hidden ({hidden}) must be a positive multiple of "
                         f"heads ({heads})")
    if num_classes is None:
        num_classes = cache.num_classes

    gamma: dict[str, Tensor] = {}
    projections: dict[str, LinearParams] = {}
    for token in token_layout(cache):
        n = len(token.hops)
        init = np.ones(n) if fix_gamma else init_gamma(alpha, n - 1)
        gamma[token.gamma] = Tensor(init.astype(dtype), name=token.gamma,
                                    requires_grad=not fix_gamma)
        for hop in token.hops:
            if hop.projection not in projections:
                projections[hop.projection] = _linear(
                    rng, hop.message.shape[1], hidden, dtype, hop.projection)

    return ModelParams(
        heads=heads, gamma=gamma, projections=projections,
        coarse=_attention(rng, hidden, dtype, "coarse"),
        fine=_attention(rng, hidden, dtype, "fine"),
        gate=Tensor(np.zeros((), dtype=dtype), requires_grad=True, name="gate"),
        classifier=_linear(rng, hidden, num_classes, dtype, "cls"),
    )


def path_embeddings(cache: MessageCache,
                    params: ModelParams) -> tuple[list[str], list[Tensor]]:
    """Gamma-weighted sums of projected hop messages, one (N, d) per token.

    Each projection is applied once, before the first token that reads
    it, and shared by every later token that reads it.
    """
    layout = token_layout(cache)
    projected: dict[str, Tensor] = {}
    embs = []
    for token in layout:
        for hop in token.hops:
            if hop.projection not in projected:
                lin = params.projections[hop.projection]
                projected[hop.projection] = ad.add(
                    ad.matmul(ad.constant(hop.message), lin.w), lin.b)
        embs.append(ad.weighted_sum([projected[h.projection] for h in token.hops],
                                    params.gamma[token.gamma]))
    return [token.key for token in layout], embs


def assemble_tokens(embs: list[Tensor]) -> Tensor:
    """Stack per-path embeddings into an (N, S, d) token tensor."""
    return ad.concat([ad.unsqueeze(e, 1) for e in embs], axis=1)


def multi_head_attention(tokens: Tensor, attn: AttentionParams,
                         heads: int) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention over the token axis.

    All heads run as one batched product over (N, H, S, d_h) slices of
    the projections.  Returns the output tensor (N, S, d) and the
    attention maps of every head as one (N, H, S, S) tensor.  No
    residual connection, no layer normalization.
    """
    n, s, d = tokens.shape
    if d % heads != 0:
        raise ValueError("token width must be divisible by the head count")
    dh = d // heads

    def split(x: Tensor, axes: tuple) -> Tensor:
        return ad.permute(ad.reshape(x, (n, s, heads, dh)), axes)

    q = split(ad.matmul(tokens, attn.wq), (0, 2, 1, 3))   # (N, H, S, dh)
    kt = split(ad.matmul(tokens, attn.wk), (0, 2, 3, 1))  # (N, H, dh, S)
    v = split(ad.matmul(tokens, attn.wv), (0, 2, 1, 3))
    scores = ad.scale(ad.matmul(q, kt), 1.0 / np.sqrt(dh))
    if not np.all(np.isfinite(scores.data)):
        raise FloatingPointError("non-finite attention logits")
    att = ad.row_softmax(scores)
    merged = ad.reshape(ad.permute(ad.matmul(att, v), (0, 2, 1, 3)), (n, s, d))
    return ad.matmul(merged, attn.wo), att


def influence_factors(att: Tensor) -> Tensor:
    """Mean attention mass received by each token, (N, S), rows sum to 1.

    `att` holds the (N, H, S, S) maps; the mass is averaged over query
    positions and then over heads.
    """
    return ad.mean_axis(ad.mean_axis(att, axis=2), axis=1)


@dataclass
class ModelOutput:
    logits: Tensor
    token_keys: list[str]
    beta: Tensor
    coarse_attention: Tensor  # (N, H, S, S)
    fine_attention: Tensor    # (N, H, S, S)


def model_forward(cache: MessageCache, params: ModelParams) -> ModelOutput:
    """Full forward pass over every target node in the cache."""
    keys, embs = path_embeddings(cache, params)
    tokens = assemble_tokens(embs)
    coarse_out, coarse_att = multi_head_attention(tokens, params.coarse,
                                                  params.heads)
    beta = influence_factors(coarse_att)
    scaled = ad.mul(tokens, ad.unsqueeze(beta, 2))
    fine_out, fine_att = multi_head_attention(scaled, params.fine, params.heads)
    a = ad.sigmoid(params.gate)
    fused = ad.add(ad.mul(coarse_out, a),
                   ad.mul(fine_out, ad.add_const(ad.scale(a, -1.0), 1.0)))
    pooled = ad.mean_axis(fused, axis=1)
    normed = ad.l2_normalize_rows(pooled)
    logits = ad.add(ad.matmul(normed, params.classifier.w), params.classifier.b)
    return ModelOutput(logits=logits, token_keys=keys, beta=beta,
                       coarse_attention=coarse_att, fine_attention=fine_att)


def predict_logits(cache: MessageCache, params: ModelParams,
                   batch_size: int | None = None) -> np.ndarray:
    """Forward pass without recording gradients, optionally in row chunks."""
    n = cache.n_target
    if batch_size is None or batch_size >= n:
        return model_forward(cache, params).logits.data.copy()
    parts = []
    for lo in range(0, n, batch_size):
        idx = np.arange(lo, min(lo + batch_size, n))
        parts.append(model_forward(cache.take_rows(idx), params).logits.data)
    return np.concatenate(parts, axis=0)


def gamma_table(cache: MessageCache,
                params: ModelParams) -> list[tuple[str, int, float]]:
    """(token, hop, weight) rows in token order; label tokens end ':label'."""
    return [(token.key, hop.step, float(w)) for token in token_layout(cache)
            for hop, w in zip(token.hops, params.gamma[token.gamma].data)]


def beta_table(output: ModelOutput) -> list[tuple[str, float]]:
    """Node-averaged influence factor per token."""
    avg = output.beta.data.mean(axis=0)
    return list(zip(output.token_keys, (float(x) for x in avg)))


def save_checkpoint(params: ModelParams, config: dict, path) -> None:
    """Write parameters and a config echo to the binary checkpoint format."""
    tensors = params.all_parameters()
    cfg = json.dumps(config, sort_keys=True).encode()
    with open(Path(path), "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(cfg)))
        f.write(cfg)
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            # asarray keeps 0-d shapes; ascontiguousarray would promote to 1-d
            arr = np.asarray(tensors[name].data, dtype="<f4", order="C")
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint file {path} not found")
    data = path.read_bytes()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise CheckpointError(f"checkpoint {path.name} is truncated")
        out = data[pos:pos + n]
        pos += n
        return out

    if take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path.name} is not a model checkpoint (bad magic)")
    version, cfg_len = struct.unpack("<II", take(8))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    config = json.loads(take(cfg_len).decode())
    (n_params,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode()
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(take(4 * count), dtype="<f4")
        arrays[name] = arr.reshape(shape).astype(np.float32)
    if pos != len(data):
        raise CheckpointError(f"checkpoint {path.name} has trailing bytes")
    return config, arrays


def restore_model_params(arrays: dict[str, np.ndarray], cache: MessageCache,
                         config: dict, dtype=np.float32) -> ModelParams:
    """Rebuild ModelParams from checkpoint arrays against a cache.

    The checkpoint's parameter names must match the cache's path set
    exactly; a mismatch means the checkpoint belongs to another dataset
    or propagation depth.
    """
    params = init_model_params(
        cache, hidden=int(config["hidden"]), heads=int(config["heads"]),
        alpha=float(config.get("alpha", 0.25)), rng=np.random.default_rng(0),
        dtype=dtype, fix_gamma=bool(config.get("fix_gamma_uniform", False)),
        num_classes=np.size(arrays.get("cls.b")))  # absent: a name mismatch
    expected = params.all_parameters()
    if set(expected) != set(arrays):
        missing = sorted(set(expected) - set(arrays))[:3]
        extra = sorted(set(arrays) - set(expected))[:3]
        raise CheckpointError(
            f"checkpoint parameters do not match this cache's meta-path set "
            f"(missing {missing}, unexpected {extra})")
    for name, t in expected.items():
        if tuple(arrays[name].shape) != tuple(t.data.shape):
            raise CheckpointError(
                f"checkpoint parameter {name} has shape {arrays[name].shape}, "
                f"expected {t.data.shape}")
        t.data = arrays[name].astype(dtype)
    return params

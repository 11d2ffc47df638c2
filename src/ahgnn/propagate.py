"""Precomputed multi-hop feature and label propagation.

All graph smoothing happens once, before any training.  Hop l of a
meta-path P is the message of its prefix P[:l+1], itself an enumerated
path, so the cache stores one message per path: for every path of 0..l1
steps from the target type, Â_P (the degree-normalized walk matrix)
times the raw features of P's last type (the zero-step path holds the
target features); for every path of 1..l2 steps back to the target
type, Â_P times the one-hot train labels.  A path's hop list
(`feature_entries`, `label_entries`) is its prefixes' messages; a label
path's hops are its prefixes that end at the target.  Messages are built
right to left, M(t0-t1-...-tk) = Â_{t0t1} M(t1-...-tk), one relation
SpMM per distinct suffix, so the cost is linear in the edge count and no
walk product Â_P is formed.  There is no label hop 0, the identity, but
closed walks (the diagonal of a target-to-target Â_P) still carry a
train node's own label into its label messages.

Cache file, version 2, little-endian: magic, u32 version, u64 dataset
fingerprint, u32 l1, u32 l2, u32 count, then per message (features, then
labels, each in key order) u8 kind (0 feature, 1 label), u32 key length,
key, u32 rows, u32 cols, rows*cols f64.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .graph import HeteroGraph
from .metapath import MetaPath, PathProducts, enumerate_metapaths
from .sparse import spmm

CACHE_MAGIC = b"AHGC"
CACHE_VERSION = 2


class CacheError(ValueError):
    """Raised for unreadable, truncated, or stale cache files."""


def prefix_key(key: str, hop: int) -> str:
    """Key of path `key`'s prefix through step `hop`, whose message is that hop."""
    return "-".join(key.split("-")[: hop + 1])


def label_hop_indices(key: str, target: str) -> list[int]:
    """Step positions at which a label path revisits the target type."""
    types = key.split("-")
    return [l for l in range(1, len(types)) if types[l] == target]


@dataclass
class MessageCache:
    """One message matrix per feature path and per label path, keyed by path."""

    l1: int
    l2: int
    fingerprint: int
    feature_messages: dict[str, np.ndarray]
    label_messages: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def target_type(self) -> str:
        return next(iter(self.feature_messages)).split("-")[0]

    @property
    def n_target(self) -> int:
        return next(iter(self.feature_messages.values())).shape[0]

    @property
    def num_classes(self) -> int:
        if not self.label_messages:
            raise ValueError("cache holds no label paths to count classes by")
        return next(iter(self.label_messages.values())).shape[1]

    @property
    def feature_entries(self) -> dict[str, list[np.ndarray]]:
        """Per-path hop lists, hop 0 first: a view of the stored arrays."""
        return {k: [self.feature_messages[prefix_key(k, l)]
                    for l in range(k.count("-") + 1)]
                for k in self.feature_messages}

    @property
    def label_entries(self) -> dict[str, list[np.ndarray]]:
        """Per-path label hop lists, likewise (hops: `label_hop_indices`)."""
        return {k: [self.label_messages[prefix_key(k, l)]
                    for l in label_hop_indices(k, self.target_type)]
                for k in self.label_messages}

    def _map(self, fn) -> "MessageCache":
        return MessageCache(
            l1=self.l1, l2=self.l2, fingerprint=self.fingerprint,
            feature_messages={k: fn(m) for k, m in self.feature_messages.items()},
            label_messages={k: fn(m) for k, m in self.label_messages.items()})

    def take_rows(self, idx: np.ndarray) -> "MessageCache":
        """Row-sliced copy over a subset of target nodes."""
        return self._map(lambda m: m[idx])

    def astype(self, dtype) -> "MessageCache":
        return self._map(lambda m: m.astype(dtype))


def train_label_matrix(graph: HeteroGraph) -> np.ndarray:
    """One-hot labels over the train split, zero rows everywhere else."""
    y = np.zeros((graph.n_target, graph.num_classes), dtype=np.float64)
    mask = graph.train_mask & (graph.labels >= 0)
    y[np.nonzero(mask)[0], graph.labels[mask]] = 1.0
    return y


def _run_jobs(jobs, threads: int):
    # results come back in job order, so merging never depends on scheduling
    if threads <= 1:
        return [fn() for fn in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn) for fn in jobs]
        return [f.result() for f in futures]


def _messages(graph: HeteroGraph, paths: list[MetaPath], operands: dict,
              threads: int) -> dict[str, np.ndarray]:
    """Â_P @ operands[P's last type] per path, one suffix length a round."""
    steps = PathProducts(graph, normalized=True)
    memo = {(t,): x for t, x in operands.items()}
    for n in range(2, max((len(p.types) for p in paths), default=0) + 1):
        suffixes = sorted({p.types[-n:] for p in paths if len(p.types) >= n})
        jobs = [partial(spmm, steps.matrix(s[:2]), memo[s[1:]])
                for s in suffixes]
        memo.update(zip(suffixes, _run_jobs(jobs, threads)))
    return {p.key: memo[p.types] if p.steps else memo[p.types].copy()
            for p in paths}


def propagate_features(graph: HeteroGraph, l1: int,
                       threads: int = 1) -> dict[str, np.ndarray]:
    """Feature message of every path of 0..l1 steps from the target."""
    if l1 < 1:
        raise ValueError("l1 must be >= 1")
    paths = enumerate_metapaths(graph.schema(), graph.target_type, l1)
    return _messages(graph, paths, graph.features, threads)


def propagate_labels(graph: HeteroGraph, l2: int,
                     threads: int = 1) -> dict[str, np.ndarray]:
    """Propagated one-hot train labels of every target-returning path."""
    if l2 < 1:
        raise ValueError("l2 must be >= 1")
    if not np.any(graph.train_mask & (graph.labels >= 0)):
        raise ValueError("label propagation needs a nonempty labeled train split")
    target = graph.target_type
    paths = enumerate_metapaths(graph.schema(), target, l2, end=target,
                                include_trivial=False)
    return _messages(graph, paths, {target: train_label_matrix(graph)},
                     threads)


def build_cache(graph: HeteroGraph, l1: int, l2: int,
                threads: int = 1) -> MessageCache:
    return MessageCache(
        l1=l1, l2=l2, fingerprint=graph.fingerprint,
        feature_messages=propagate_features(graph, l1, threads),
        label_messages=propagate_labels(graph, l2, threads),
    )


def write_cache(cache: MessageCache, path) -> None:
    """Serialize messages to the binary cache format (deterministic bytes)."""
    entries = [(0, k, cache.feature_messages[k])
               for k in sorted(cache.feature_messages)]
    entries += [(1, k, cache.label_messages[k])
                for k in sorted(cache.label_messages)]
    with open(Path(path), "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<IQII", CACHE_VERSION, cache.fingerprint,
                            cache.l1, cache.l2))
        f.write(struct.pack("<I", len(entries)))
        for kind, key, m in entries:
            kb = key.encode()
            arr = np.ascontiguousarray(m, dtype="<f8")
            f.write(struct.pack("<BI", kind, len(kb)))
            f.write(kb)
            f.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            f.write(arr.tobytes())


def read_cache(path, expect_fingerprint: int | None = None,
               expect_l1: int | None = None,
               expect_l2: int | None = None) -> MessageCache:
    """Read a cache file, optionally enforcing freshness expectations."""
    path = Path(path)
    if not path.is_file():
        raise CacheError(f"cache file {path} not found")
    data = path.read_bytes()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise CacheError(f"cache file {path.name} is truncated")
        out = data[pos:pos + n]
        pos += n
        return out

    if take(4) != CACHE_MAGIC:
        raise CacheError(f"{path.name} is not a message cache (bad magic)")
    version, fingerprint, l1, l2 = struct.unpack("<IQII", take(20))
    if version != CACHE_VERSION:
        raise CacheError(
            f"{path.name} is a version {version} cache; this build reads "
            f"version {CACHE_VERSION}: regenerate with `ahgnn precompute`")
    if expect_fingerprint is not None and fingerprint != expect_fingerprint:
        raise CacheError(
            "stale cache: dataset manifest changed since the cache was "
            "written; regenerate with `ahgnn precompute`")
    if (expect_l1 is not None and l1 != expect_l1) or \
       (expect_l2 is not None and l2 != expect_l2):
        raise CacheError(
            f"stale cache: built for L1={l1}, L2={l2}; regenerate with "
            "`ahgnn precompute`")
    (n_entries,) = struct.unpack("<I", take(4))
    stores: tuple[dict, dict] = ({}, {})
    for _ in range(n_entries):
        kind, klen = struct.unpack("<BI", take(5))
        key = take(klen).decode()
        rows, cols = struct.unpack("<II", take(8))
        arr = np.frombuffer(take(rows * cols * 8), dtype="<f8")
        if kind > 1:
            raise CacheError(f"unknown cache entry kind {kind}")
        stores[kind][key] = arr.reshape(rows, cols).astype(np.float64)
    if pos != len(data):
        raise CacheError(f"cache file {path.name} has trailing bytes")
    if not stores[0]:
        raise CacheError("cache holds no feature entries")
    cache = MessageCache(l1=l1, l2=l2, fingerprint=fingerprint,
                         feature_messages=stores[0], label_messages=stores[1])
    try:  # every hop a path reads must be a stored prefix
        cache.feature_entries, cache.label_entries
    except KeyError as e:
        raise CacheError(f"cache file {path.name} lacks the message of path "
                         f"{e.args[0]}, a prefix of a stored path") from None
    return cache

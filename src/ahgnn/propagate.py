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

One suffix walk (`_messages`) builds every message, depth first, and
hands each out as soon as it is built.  Besides the graph and its
normalized relations, a build holds the suffixes of the one chain it is
extending, at most one per length, and the message it hands out.
`build_cache` collects them into a `MessageCache`, which then holds every
message; `ahgnn precompute` streams them (`build_cache(stream=True)`)
into `write_cache`, which writes each in its place in the file and drops
it, so precompute holds one chain of suffixes and one message, not the
cache.

Cache and checkpoint files share one container (`write_arrays`,
`read_arrays`), little-endian: 4-byte magic, u32 version, u32 meta
length, the meta as sort_keys JSON, then each array as one .npy record
(format 1.0, C order, no pickles; `graph.write_npy`/`read_npy`, which
also write and read every array of a dataset).  The cache, version 4,
has meta {fingerprint (`HeteroGraph.fingerprint`: manifest and arrays),
l1, l2, features, labels}, the last two its path keys in sorted order,
then one (N, cols) float64 array per feature key and then per label key.
Every message has one row per target node, and every label message one
column per class, so every record's offset is known before any message
is built.  A file is written under a temporary name and renamed into
place once complete, so a failed write leaves the old file as it was.
`read_cache(path, rows=...)` keeps only the given target rows: it cuts
each stored array to them as soon as it is read and checked, so a read
holds at most one full stored array besides its result, and a reader
that scores a split needs memory for that split, not for the graph.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .graph import HeteroGraph, npy_size, read_exact, read_npy, write_npy
from .metapath import MetaPath, PathProducts, enumerate_metapaths
from .sparse import spmm

CACHE_MAGIC = b"AHGC"
CACHE_VERSION = 4


class CacheError(ValueError):
    """Raised for unreadable, truncated, or stale cache files."""


class ArrayFile(NamedTuple):
    """A file type of the shared container, and what reading it checks."""

    magic: bytes
    version: int
    kind: str                # names the file type in messages
    remake: str              # the command that writes a current file
    error: type[ValueError]  # raised for every unreadable file
    dtype: str               # of every array
    fields: tuple[str, ...]  # meta fields besides `names`
    names: tuple[str, ...]   # meta fields listing the arrays, in file order


CACHE_FILE = ArrayFile(CACHE_MAGIC, CACHE_VERSION, "cache", "ahgnn precompute",
                       CacheError, "<f8", ("fingerprint", "l1", "l2"),
                       ("features", "labels"))


def write_arrays(path, spec: ArrayFile, meta: dict, shapes, arrays) -> None:
    """Write `meta`, then one `spec.dtype` array of each of `shapes`, in
    the shared container, atomically.

    `arrays` yields (index into `shapes`, array) pairs in any order.  A
    record's size depends on its shape alone, so every record's offset
    is known before the first array arrives, and each array is written
    in its place as it arrives: a caller need hold only the array it
    hands over.  The file is written under a temporary name beside
    `path` and renamed onto it once every array is in place; on any
    error the temporary file is removed and `path` is left as it was.
    """
    path = Path(path)
    head = json.dumps(meta, sort_keys=True).encode()
    shapes = [tuple(s) for s in shapes]
    size = {s: npy_size(s, spec.dtype) for s in set(shapes)}
    offsets = list(accumulate((size[s] for s in shapes),
                              initial=12 + len(head)))
    missing = set(range(len(shapes)))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(spec.magic + struct.pack("<II", spec.version, len(head))
                    + head)
            for i, a in arrays:
                if i not in missing or np.shape(a) != shapes[i]:
                    raise ValueError(f"array {i} of shape {np.shape(a)} does "
                                     f"not fill an open record of {path.name}")
                missing.remove(i)
                f.seek(offsets[i])
                write_npy(f, a, spec.dtype)
                del a  # before the next array is built
            if missing:
                raise ValueError(f"{path.name}: no array given for records "
                                 f"{sorted(missing)}")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_arrays(path, spec: ArrayFile,
                keep=lambda name, a: a) -> tuple[dict, list]:
    """The meta and the arrays of a `write_arrays` file of type `spec`.

    An array's byte count is checked against the bytes left in the file
    before anything is allocated for it.  A malformed file raises
    `spec.error` naming it.  Each array is passed to `keep(name, array)`
    as soon as it is read, with its name from the meta, and the list
    holds what `keep` returns, so an array `keep` does not return is
    dropped before the next one is read.
    """
    path = Path(path)
    if not path.is_file():
        raise spec.error(f"{spec.kind} file {path} not found")
    name, size = f"{spec.kind} file {path.name}", path.stat().st_size
    with open(path, "rb") as f:
        head = read_exact(f, 12, size, spec.error, name)
        if head[:4] != spec.magic:
            raise spec.error(f"{path.name} is not a {spec.kind} file (bad magic)")
        version, meta_len = struct.unpack("<II", head[4:])
        if version != spec.version:
            raise spec.error(f"{path.name} is a version {version} {spec.kind}; "
                             f"this build reads version {spec.version}: "
                             f"regenerate with `{spec.remake}`")
        raw = read_exact(f, meta_len, size, spec.error, name)
        try:
            meta = json.loads(raw)
        except ValueError:
            meta = None
        if not isinstance(meta, dict) or \
                not meta.keys() >= {*spec.fields, *spec.names}:
            raise spec.error(f"{name}: meta is not a JSON object with fields "
                             f"{spec.fields + spec.names}")
        names = [meta[k] for k in spec.names]
        if not all(isinstance(v, list) and all(isinstance(k, str) for k in v)
                   and len(set(v)) == len(v) for v in names):
            raise spec.error(f"{name}: meta fields {spec.names} must list "
                             "distinct names")
        keys = [k for v in names for k in v]
        arrays = [keep(k, read_npy(f, size, spec.dtype, spec.error, name,
                                   f"array {i}"))
                  for i, k in enumerate(keys)]
        if f.tell() != size:
            raise spec.error(f"{name} has trailing bytes")
    return meta, arrays


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
        """Those target rows of every message: copies for an index
        array, views for a slice."""
        return self._map(lambda m: m[idx])

    def astype(self, dtype) -> "MessageCache":
        return self._map(lambda m: m.astype(dtype))


def train_label_matrix(graph: HeteroGraph) -> np.ndarray:
    """One-hot labels over the train split, zero rows everywhere else."""
    y = np.zeros((graph.n_target, graph.num_classes), dtype=np.float64)
    mask = graph.train_mask & (graph.labels >= 0)
    y[np.nonzero(mask)[0], graph.labels[mask]] = 1.0
    return y


def _messages(steps: PathProducts, paths: list[MetaPath],
              operands: dict) -> Iterator[tuple[str, np.ndarray]]:
    """(P's key, Â_P @ operands[P's last type]) per path, as each is built.

    The paths' suffixes form a tree under their last types, each suffix
    the parent of the suffixes one step longer, M(t, *s) = Â_{t s0} M(s).
    The tree is walked depth first, so a suffix's message is dropped once
    the last suffix under it has been built: at most one suffix per
    length is held.  A zero-step path hands out a copy of its operand.
    """
    keys = {p.types: p.key for p in paths}
    kids: dict[tuple[str, ...], set] = {}
    for p in paths:
        for n in range(2, len(p.types) + 1):
            kids.setdefault(p.types[1 - n:], set()).add(p.types[-n:])

    def walk(s: tuple[str, ...], m: np.ndarray):
        if s in keys:
            yield keys[s], m if len(s) > 1 else m.copy()
        for k in sorted(kids.get(s, ())):
            yield from walk(k, spmm(steps.matrix(k[:2]), m))

    for t in sorted({p.types[-1] for p in paths}):
        yield from walk((t,), operands[t])


def _feature_paths(graph: HeteroGraph, l1: int) -> list[MetaPath]:
    if l1 < 1:
        raise ValueError("l1 must be >= 1")
    return enumerate_metapaths(graph.schema(), graph.target_type, l1)


def _label_paths(graph: HeteroGraph, l2: int) -> list[MetaPath]:
    if l2 < 1:
        raise ValueError("l2 must be >= 1")
    if not np.any(graph.train_mask & (graph.labels >= 0)):
        raise ValueError("label propagation needs a nonempty labeled train split")
    return enumerate_metapaths(graph.schema(), graph.target_type, l2,
                               end=graph.target_type, include_trivial=False)


def _in_order(paths: list[MetaPath], messages) -> dict[str, np.ndarray]:
    got = dict(messages)
    return {p.key: got[p.key] for p in paths}


def propagate_features(graph: HeteroGraph, l1: int,
                       steps: PathProducts | None = None) -> dict[str, np.ndarray]:
    """Feature message of every path of 0..l1 steps from the target.

    `steps` holds the normalized relations (default: a fresh one).
    """
    paths = _feature_paths(graph, l1)
    return _in_order(paths, _messages(
        steps or PathProducts(graph, normalized=True), paths, graph.features))


def propagate_labels(graph: HeteroGraph, l2: int,
                     steps: PathProducts | None = None) -> dict[str, np.ndarray]:
    """Propagated one-hot train labels of every target-returning path."""
    paths = _label_paths(graph, l2)
    return _in_order(paths, _messages(
        steps or PathProducts(graph, normalized=True), paths,
        {graph.target_type: train_label_matrix(graph)}))


class CacheBuild(NamedTuple):
    """A cache file's meta and record shapes, fixed before any message is
    built, and its messages as they are built (`build_cache(stream=True)`)."""

    meta: dict                      # fingerprint, l1, l2, features, labels
    shapes: list[tuple[int, int]]   # of each record, in file order
    messages: Iterator[tuple[int, np.ndarray]]  # (record index, message)


def build_cache(graph: HeteroGraph, l1: int, l2: int, threads: int = 1, *,
                stream: bool = False) -> MessageCache | CacheBuild:
    """Every feature and label message, built serially (`threads` is
    accepted and ignored), in a `MessageCache`.

    With `stream`, nothing is built yet: the result is a `CacheBuild`
    whose messages are built, one suffix walk per operand (`_messages`),
    as `write_cache` consumes them, so the caller holds at most one
    suffix per length and the message being written.  Both ways build
    the same messages in the same order; bad arguments and an unlabeled
    train split raise here, before any is built.
    """
    fpaths, lpaths = _feature_paths(graph, l1), _label_paths(graph, l2)
    feats = sorted(p.key for p in fpaths)
    labs = sorted(p.key for p in lpaths)
    n, target = graph.n_target, graph.target_type
    shapes = [*((n, graph.features[k.split("-")[-1]].shape[1]) for k in feats),
              *((n, graph.num_classes) for _ in labs)]
    steps = PathProducts(graph, normalized=True)  # normalizes each relation once
    feature_at = {k: i for i, k in enumerate(feats)}
    label_at = {k: len(feats) + i for i, k in enumerate(labs)}

    def messages():
        # map, unlike a loop variable, keeps no message while the next is built
        yield from map(lambda km: (feature_at[km[0]], km[1]),
                       _messages(steps, fpaths, graph.features))
        yield from map(lambda km: (label_at[km[0]], km[1]),
                       _messages(steps, lpaths,
                                 {target: train_label_matrix(graph)}))

    meta = {"fingerprint": graph.fingerprint, "l1": l1, "l2": l2,
            "features": feats, "labels": labs}
    if stream:
        return CacheBuild(meta, shapes, messages())
    got = dict(messages())
    return MessageCache(
        l1=l1, l2=l2, fingerprint=meta["fingerprint"],
        feature_messages={k: got[i] for i, k in enumerate(feats)},
        label_messages={k: got[len(feats) + i] for i, k in enumerate(labs)})


def write_cache(cache: MessageCache | CacheBuild, path) -> None:
    """Write a cache file (deterministic bytes), atomically (`write_arrays`).

    `cache` is a `MessageCache`, whose messages are written in file
    order, or a `build_cache(..., stream=True)` build, each of whose
    messages is written in its place as soon as it is built and then
    dropped: the bytes are the same either way.
    """
    if isinstance(cache, MessageCache):
        feats, labs = sorted(cache.feature_messages), sorted(cache.label_messages)
        arrays = [*(cache.feature_messages[k] for k in feats),
                  *(cache.label_messages[k] for k in labs)]
        cache = CacheBuild({"fingerprint": cache.fingerprint, "l1": cache.l1,
                            "l2": cache.l2, "features": feats, "labels": labs},
                           [np.shape(a) for a in arrays], enumerate(arrays))
    write_arrays(path, CACHE_FILE, *cache)


def read_cache(path, expect_fingerprint: int | None = None,
               expect_l1: int | None = None,
               expect_l2: int | None = None, *,
               rows=None) -> MessageCache:
    """Read a cache file, optionally enforcing freshness expectations.

    Given `rows`, target-node indices, the result holds those rows of
    each message, in their order, and equals `read_cache(path)
    .take_rows(rows)`.  Each stored array is read whole, checked as
    without `rows`, cut to its rows and dropped before the next is read,
    so beyond the result at most one full stored array is held.  A row
    outside the stored ones raises `CacheError` naming the file.
    """
    path = Path(path)
    if rows is not None:
        rows = np.asarray(rows)
        lo, hi = (rows.min(), rows.max()) if rows.size else (0, -1)
    shapes = []

    def keep(key: str, m: np.ndarray):
        if m.ndim != 2:
            raise CacheError(f"cache file {path.name}: message {key} has "
                             f"shape {m.shape}, not (rows, columns)")
        shapes.append(m.shape)
        if rows is None:
            return m
        # out of range: None, refused once every shape has been checked
        return m[rows] if 0 <= lo and hi < m.shape[0] else None

    meta, arrays = read_arrays(path, CACHE_FILE, keep)
    fingerprint, l1, l2 = meta["fingerprint"], meta["l1"], meta["l2"]
    if expect_fingerprint is not None and fingerprint != expect_fingerprint:
        raise CacheError(
            "stale cache: dataset changed since the cache was written; "
            "regenerate with `ahgnn precompute`")
    if (expect_l1 is not None and l1 != expect_l1) or \
       (expect_l2 is not None and l2 != expect_l2):
        raise CacheError(
            f"stale cache: built for L1={l1}, L2={l2}; regenerate with "
            "`ahgnn precompute`")
    if not meta["features"]:
        raise CacheError("cache holds no feature entries")

    def agree(axis: int, what: str, entries: list) -> None:
        (k0, s0), *rest = entries
        for key, s in rest:
            if s[axis] != s0[axis]:
                raise CacheError(
                    f"cache file {path.name}: message {key} has "
                    f"{s[axis]} {what}, message {k0} has {s0[axis]}")
    entries = list(zip([*meta["features"], *meta["labels"]], shapes))
    agree(0, "rows", entries)
    if meta["labels"]:
        agree(1, "columns", entries[len(meta["features"]):])
    if rows is not None and arrays[0] is None:
        raise CacheError(f"cache file {path.name}: row "
                         f"{lo if lo < 0 else hi} is outside its "
                         f"{shapes[0][0]} stored rows")
    stored = iter(arrays)
    cache = MessageCache(
        l1=l1, l2=l2, fingerprint=fingerprint,
        feature_messages={k: next(stored) for k in meta["features"]},
        label_messages={k: next(stored) for k in meta["labels"]})
    try:  # every hop a path reads must be a stored prefix
        cache.feature_entries, cache.label_entries
    except KeyError as e:
        raise CacheError(f"cache file {path.name} lacks the message of path "
                         f"{e.args[0]}, a prefix of a stored path") from None
    return cache

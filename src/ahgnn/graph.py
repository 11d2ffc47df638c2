"""Heterogeneous graph container and dataset directory I/O.

On disk a dataset is a directory holding manifest.json and one .npy
record (format 1.0, C order, no pickles) per array:

    manifest.json           node_types, counts, feature_dims, relations,
                            target_type, num_classes
    features_<T>.npy        counts[T] x feature_dims[T] <f8
    edges_<A>_<B>.npy       (nnz, 2) <i8 rows (A node, B node), one file
                            per unordered type pair, A <= B; an edge of
                            multiplicity k is k equal rows
    labels_<TARGET>.npy     (n,) <i8, -1 for an unlabeled node
    splits.npy              (n,) |i1 codes 0 train, 1 val, 2 test

The manifest lists both directions of every cross-type relation; the
loader reads each type pair's one file and `HeteroGraph.create` builds
the other direction as its transpose (a reverse relation given to it, or
to `save_dataset`, must be the transpose).  Every record is checked against
the manifest, and malformed input raises DatasetError naming the file or
field.  No value is parsed from text, so a save/load round trip is
bit-exact.

`write_npy` and `read_npy` are the one .npy writer and reader of the
package: the records here, and the arrays of the message cache and the
checkpoint (`propagate.write_arrays`, `read_arrays`).  `write_csv` and
`write_json` are its one CSV and JSON text writers: every run artifact
(metrics, hop weights, influence factors, homophily report, eval.json,
run.json) and manifest.json.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sparse import SparseMatrix

TRAIN, VAL, TEST = 0, 1, 2
# what np.lib.format.write_array puts before a C-order array, format 1.0,
# after its magic and u16 header length
NPY_MAGIC = b"\x93NUMPY\x01\x00"
NPY_HEADER = re.compile(rb"\{'descr': '([^']*)', 'fortran_order': False, "
                        rb"'shape': \((\d+,|\d+(?:, \d+)+|)\), \} *\n")


class DatasetError(ValueError):
    """Raised for malformed dataset directories or inconsistent graphs."""


def _check_type_name(name: str) -> None:
    if not isinstance(name, str) or not name or not name.isalnum():
        raise DatasetError(
            f"node type name {name!r} must be non-empty and alphanumeric"
        )


@dataclass(frozen=True)
class Schema:
    """Node types plus the undirected type-pair edges between them."""

    node_types: tuple[str, ...]
    pairs: frozenset

    def neighbors(self, t: str) -> tuple[str, ...]:
        if t not in self.node_types:
            raise KeyError(f"unknown node type {t!r}")
        out = {b for a, b in self.pairs if a == t} | {a for a, b in self.pairs if b == t}
        return tuple(sorted(out))


@dataclass
class HeteroGraph:
    node_types: tuple[str, ...]
    counts: dict[str, int]
    features: dict[str, np.ndarray]
    relations: dict[tuple[str, str], SparseMatrix]
    target_type: str
    labels: np.ndarray
    num_classes: int
    splits: np.ndarray

    @staticmethod
    def create(node_types, counts, features, relations, target_type,
               labels, num_classes, splits) -> "HeteroGraph":
        """Build a validated graph, materializing missing transposes; a
        given reverse relation must be the transpose."""
        rels = dict(relations)
        given = [(a, b) for a, b in rels if a < b and (b, a) in rels]
        for (a, b), m in list(rels.items()):
            if a != b and (b, a) not in rels:
                rels[(b, a)] = m.transpose()
        g = HeteroGraph(
            node_types=tuple(node_types),
            counts=dict(counts),
            features={t: np.asarray(x, dtype=np.float64) for t, x in features.items()},
            relations=rels,
            target_type=target_type,
            labels=np.asarray(labels, dtype=np.int64),
            num_classes=int(num_classes),
            splits=np.asarray(splits, dtype=np.int8),
        )
        g.validate()
        _check_reverses(g.relations, given)
        return g

    def validate(self) -> None:
        for t in self.node_types:
            _check_type_name(t)
        if len(set(self.node_types)) != len(self.node_types):
            raise DatasetError("duplicate node type names")
        if self.target_type not in self.node_types:
            raise DatasetError(f"target type {self.target_type!r} not among node types")
        if self.num_classes < 1:
            raise DatasetError("num_classes must be at least 1")
        for t in self.node_types:
            if t not in self.counts or self.counts[t] < 0:
                raise DatasetError(f"missing or negative count for type {t!r}")
            if t not in self.features:
                raise DatasetError(f"missing feature matrix for type {t!r}")
            x = self.features[t]
            if x.ndim != 2 or x.shape[0] != self.counts[t]:
                raise DatasetError(
                    f"feature matrix for type {t!r} has {x.shape[0]} rows, "
                    f"expected {self.counts[t]}"
                )
            if not np.all(np.isfinite(x)):
                raise DatasetError(f"non-finite feature values for type {t!r}")
        for (a, b), m in self.relations.items():
            if a not in self.counts or b not in self.counts:
                raise DatasetError(f"relation ({a!r}, {b!r}) names an unknown type")
            if m.shape != (self.counts[a], self.counts[b]):
                raise DatasetError(
                    f"relation ({a!r}, {b!r}) has shape {m.shape}, expected "
                    f"({self.counts[a]}, {self.counts[b]})"
                )
            if a != b and (b, a) not in self.relations:
                raise DatasetError(f"relation ({b!r}, {a!r}) missing its transpose")
            # walk counting and normalization read weights as multiplicities
            bad = ~(np.isfinite(m.values) & (m.values >= 1)
                    & (m.values == np.floor(m.values)))
            if np.any(bad):
                raise DatasetError(
                    f"relation ({a!r}, {b!r}) holds weight {m.values[bad][0]}; "
                    "weights are edge multiplicities, finite integers >= 1")
        n = self.counts[self.target_type]
        if self.labels.shape != (n,):
            raise DatasetError(f"labels must have length {n}")
        if self.labels.size and (self.labels.min() < -1 or self.labels.max() >= self.num_classes):
            raise DatasetError(
                f"labels must lie in [-1, {self.num_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )
        if self.splits.shape != (n,):
            raise DatasetError(f"splits must have length {n}")
        if self.splits.size and (self.splits.min() < TRAIN or self.splits.max() > TEST):
            raise DatasetError("split codes must be 0 (train), 1 (val) or 2 (test)")

    def n(self, t: str) -> int:
        return self.counts[t]

    @property
    def n_target(self) -> int:
        return self.counts[self.target_type]

    def relation(self, src: str, dst: str) -> SparseMatrix:
        try:
            return self.relations[(src, dst)]
        except KeyError:
            raise KeyError(f"no relation between {src!r} and {dst!r}") from None

    def split_mask(self, code: int) -> np.ndarray:
        return self.splits == code

    @property
    def train_mask(self) -> np.ndarray:
        return self.split_mask(TRAIN)

    @property
    def val_mask(self) -> np.ndarray:
        return self.split_mask(VAL)

    @property
    def test_mask(self) -> np.ndarray:
        return self.split_mask(TEST)

    def schema(self) -> Schema:
        pairs = set()
        for a, b in self.relations:
            pairs.add((a, b) if a <= b else (b, a))
        return Schema(node_types=self.node_types, pairs=frozenset(pairs))

    @property
    def fingerprint(self) -> int:
        """64-bit hash of the canonical manifest and every array, taken on
        each access so it follows any edit; a save/load round trip keeps it."""
        h = hashlib.blake2b(manifest_bytes(self), digest_size=8)
        arrays = [self.features[t] for t in self.node_types]
        for pair in sorted(self.relations):
            m = self.relations[pair]
            arrays += [m.row_offsets, m.col_indices, m.values]
        for a in arrays + [self.labels, self.splits]:
            h.update(np.ascontiguousarray(a))
        return int.from_bytes(h.digest(), "little")


def _check_reverses(relations: dict, pairs) -> None:
    """Raise unless relation (b, a) is the transpose of (a, b) for each
    pair (a, b) in `pairs`."""
    for a, b in pairs:
        if relations[(b, a)] != relations[(a, b)].transpose():
            raise DatasetError(f"relation ({b!r}, {a!r}) is not the "
                               f"transpose of relation ({a!r}, {b!r})")


def manifest_dict(g: HeteroGraph) -> dict:
    return {
        "node_types": list(g.node_types),
        "counts": {t: int(g.counts[t]) for t in g.node_types},
        "feature_dims": {t: int(g.features[t].shape[1]) for t in g.node_types},
        "relations": sorted([list(k) for k in g.relations]),
        "target_type": g.target_type,
        "num_classes": int(g.num_classes),
    }


def manifest_bytes(g: HeteroGraph) -> bytes:
    """Canonical manifest serialization; save_dataset writes exactly this."""
    return json_bytes(manifest_dict(g))


def json_bytes(obj) -> bytes:
    """`obj` as JSON text: two-space indent, sorted keys, final newline."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def write_json(obj, path) -> None:
    Path(path).write_bytes(json_bytes(obj))


def write_csv(path, header, rows) -> None:
    """Write `header`, then `rows`: a float (Python or numpy) as %.10g,
    None as an empty cell (csv's own rule), any other value as it is."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([f"{v:.10g}" if isinstance(v, (float, np.floating))
                     else v for v in row] for row in rows)


def write_npy(f, a, dtype: str) -> None:
    """Write `a` to the open file `f` as one .npy record of a C-order
    `dtype` array (format 1.0, no pickles)."""
    # asarray copies no C-ordered `dtype` array
    np.lib.format.write_array(f, np.asarray(a, dtype, order="C"),
                              version=(1, 0), allow_pickle=False)


def npy_size(shape: tuple, dtype: str) -> int:
    """Bytes of the `write_npy` record of a `dtype` array of `shape`; the
    header depends on the shape alone, so no array is needed."""
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
        "fortran_order": False, "shape": tuple(shape)})
    return head.tell() + math.prod(shape) * np.dtype(dtype).itemsize


def read_exact(f, n: int, size: int, error: type[ValueError],
               name: str) -> bytes:
    """The next `n` bytes of `f`, a file of `size` bytes named `name`;
    allocates nothing past its end."""
    if n > size - f.tell():
        raise error(f"{name} is truncated")
    return f.read(n)


def read_npy(f, size: int, dtype: str, error: type[ValueError], name: str,
             what: str) -> np.ndarray:
    """The next `write_npy` record of `f`, a file of `size` bytes.

    Anything but a C-order `dtype` array in .npy format 1.0 raises `error`
    naming the file `name` and the array `what`.  The array's byte count
    is checked against the bytes left in the file before anything is
    allocated for it.
    """
    pre = read_exact(f, 10, size, error, name)
    match = NPY_HEADER.fullmatch(
        read_exact(f, struct.unpack("<H", pre[8:])[0], size, error, name))
    if pre[:8] != NPY_MAGIC or not match or match[1] != dtype.encode():
        raise error(f"{name}: {what} is not a C-order {dtype} array in "
                    ".npy format 1.0")
    shape = tuple(int(n) for n in match[2].split(b",") if n)
    if math.prod(shape) * np.dtype(dtype).itemsize > size - f.tell():
        raise error(f"{name} is truncated: {what} of shape {shape} runs "
                    "past the end")
    a = np.empty(shape, dtype)
    f.readinto(a.data)
    return a


def _manifest_field(man: dict, key: str, kind: type, what: str):
    value = man[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DatasetError(f"manifest.json: field {key!r} must be {what}, "
                           f"got {value!r}")
    return value


def _per_type(man: dict, key: str, node_types) -> dict[str, int]:
    """Manifest field `key` read as one integer per node type."""
    table = _manifest_field(man, key, dict, "an object mapping each node "
                            "type to an integer")
    out = {}
    for t in node_types:
        if t not in table:
            raise DatasetError(
                f"manifest.json: field {key!r} has no entry for type {t!r}")
        v = table[t]
        if not isinstance(v, int) or isinstance(v, bool):
            raise DatasetError(f"manifest.json: {key}[{t!r}] must be an "
                               f"integer, got {type(v).__name__} {v!r}")
        out[t] = v
    return out


def save_dataset(g: HeteroGraph, path) -> None:
    """Write the dataset directory; output bytes are deterministic.  Only
    one direction of each relation is stored, so a graph whose reverse
    relation is not the transpose is refused before any file is written."""
    g.validate()
    _check_reverses(g.relations, [(a, b) for a, b in g.relations if a < b])
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_json(manifest_dict(g), path / "manifest.json")
    records = {f"features_{t}": (g.features[t], "<f8") for t in g.node_types}
    for a, b in sorted(g.relations):
        if a <= b:
            m = g.relations[(a, b)]
            # each weight, a multiplicity (validate), becomes that many rows
            records[f"edges_{a}_{b}"] = (np.repeat(
                np.stack(m.coords(), axis=1), m.values.astype(np.int64),
                axis=0), "<i8")
    records[f"labels_{g.target_type}"] = (g.labels, "<i8")
    records["splits"] = (g.splits, "|i1")
    for name, (a, dtype) in records.items():
        with open(path / f"{name}.npy", "wb") as f:
            write_npy(f, a, dtype)


def _read_record(path: Path, dtype: str, what: str, shape: tuple,
                 bounds: tuple | None = None) -> np.ndarray:
    """The one `dtype` record that is the file `path`, of `shape` (None:
    any length) and with entries in [lo, hi) given `bounds` (lo, hi),
    where hi may give one bound per column, else finite ones."""
    if not path.is_file():
        old = path.with_suffix(".tsv")
        raise DatasetError(f"{path.name} not found" + (
            f"; {old.name} is the old text layout: convert it with np.save "
            "(see the README)" if old.is_file() else ""))
    size = path.stat().st_size
    with open(path, "rb") as f:
        a = read_npy(f, size, dtype, DatasetError, path.name, what)
        if f.tell() != size:
            raise DatasetError(f"{path.name} has trailing bytes")
    if len(a.shape) != len(shape) or any(
            want not in (None, n) for n, want in zip(a.shape, shape)):
        raise DatasetError(f"{path.name} has shape {a.shape}, expected "
                           + str(shape).replace("None", "nnz"))
    if bounds is None:
        bad = np.argwhere(~np.isfinite(a))
    else:
        lo, hi, _ = np.broadcast_arrays(*bounds, a)
        bad = np.argwhere((a < lo) | (a >= hi))
    if bad.size:
        i = tuple(bad[0])
        rule = ("not finite" if bounds is None
                else f"outside [{lo[i]}, {hi[i]})")
        raise DatasetError(f"{path.name}: entry [{', '.join(map(str, i))}] "
                           f"of {what} is {a[i]}, {rule}")
    return a


def load_dataset(path) -> HeteroGraph:
    """Load and validate a dataset directory."""
    path = Path(path)
    mpath = path / "manifest.json"
    if not mpath.is_file():
        raise DatasetError(f"manifest.json not found in {path}")
    try:
        man = json.loads(mpath.read_bytes())
    except json.JSONDecodeError as e:
        raise DatasetError(f"manifest.json is not valid JSON: {e}") from None
    except UnicodeDecodeError as e:
        raise DatasetError(f"manifest.json is not UTF-8 text: {e.reason} "
                           f"at byte {e.start}") from None
    if not isinstance(man, dict):
        raise DatasetError("manifest.json must hold a JSON object")
    for key in ("node_types", "counts", "feature_dims", "relations",
                "target_type", "num_classes"):
        if key not in man:
            raise DatasetError(f"manifest.json missing field {key!r}")
    node_types = tuple(_manifest_field(man, "node_types", list,
                                       "a list of type names"))
    for t in node_types:
        _check_type_name(t)
    counts = _per_type(man, "counts", node_types)
    fdims = _per_type(man, "feature_dims", node_types)
    num_classes = _manifest_field(man, "num_classes", int, "an integer")
    features = {t: _read_record(path / f"features_{t}.npy", "<f8",
                                "the feature matrix", (counts[t], fdims[t]))
                for t in node_types}

    pairs = set()
    for pair in _manifest_field(man, "relations", list, "a list of type pairs"):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(t, str) for t in pair)):
            raise DatasetError(f"manifest.json: relation entry {pair!r} must "
                               "name two types")
        if pair[0] not in counts or pair[1] not in counts:
            raise DatasetError(f"relation {tuple(pair)!r} names an unknown type")
        pairs.add(tuple(sorted(pair)))
    relations = {}
    for a, b in sorted(pairs):
        e = _read_record(path / f"edges_{a}_{b}.npy", "<i8", "the edge array",
                         (None, 2), (0, (counts[a], counts[b])))
        relations[(a, b)] = SparseMatrix.from_coo(
            counts[a], counts[b], e[:, 0], e[:, 1], np.ones(len(e)))

    target = _manifest_field(man, "target_type", str, "a type name")
    if target not in counts:
        raise DatasetError(f"target type {target!r} not among node types")
    n = counts[target]
    labels = _read_record(path / f"labels_{target}.npy", "<i8",
                          "the label vector", (n,), (-1, num_classes))
    splits = _read_record(path / "splits.npy", "|i1", "the split vector",
                          (n,), (TRAIN, TEST + 1))
    return HeteroGraph.create(node_types, counts, features, relations,
                              target, labels, num_classes, splits)

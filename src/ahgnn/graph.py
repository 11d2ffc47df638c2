"""Heterogeneous graph container and dataset directory I/O.

On disk a dataset is a directory with manifest.json plus TSV files:

    manifest.json           node_types, counts, feature_dims, relations,
                            target_type, num_classes
    features_<T>.tsv        counts[T] x feature_dims[T] decimal reals
    edges_<SRC>_<DST>.tsv   one edge per line, two int columns
                            (duplicates are summed into edge weights)
    labels_<TARGET>.tsv     (node_id, label) rows; absent nodes are -1
    splits.tsv              (node_id, tag) with tag in {train, val, test}

The loader materializes missing transpose relations, so an in-memory
graph always carries both directions of every cross-type relation; a
manifest that lists both directions needs each file to be the other
reversed.  Malformed input raises DatasetError naming the file or field.
Floats are written with %.17g so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sparse import SparseMatrix

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_TAGS = ("train", "val", "test")


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
        """Build a validated graph, materializing missing transposes."""
        rels = dict(relations)
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
    return (json.dumps(manifest_dict(g), indent=2, sort_keys=True) + "\n").encode()


def _load_tsv(path: Path, ncols: int, dtype) -> np.ndarray:
    text = path.read_text()
    if not text.strip():
        return np.zeros((0, ncols), dtype=dtype)
    try:
        # numpy parses bytes faster than a str stream; the text is decoded
        # first, so decoding errors and newline handling stay read_text's
        arr = np.loadtxt(io.BytesIO(text.encode("utf-8")), delimiter="\t",
                         dtype=dtype, ndmin=2, encoding="utf-8")
    except ValueError as e:
        raise DatasetError(f"{path.name}: could not parse: {e}") from None
    if arr.shape[1] != ncols:
        raise DatasetError(f"{path.name}: expected {ncols} tab-separated "
                           f"columns, found {arr.shape[1]}")
    return arr


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
        try:
            out[t] = int(table[t])
        except (TypeError, ValueError):
            raise DatasetError(f"manifest.json: {key}[{t!r}] must be an "
                               f"integer, got {table[t]!r}") from None
    return out


def save_dataset(g: HeteroGraph, path) -> None:
    """Write the dataset directory; output bytes are deterministic."""
    g.validate()
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / "manifest.json").write_bytes(manifest_bytes(g))
    for t in g.node_types:
        np.savetxt(path / f"features_{t}.tsv", g.features[t],
                   fmt="%.17g", delimiter="\t")
    for (a, b) in sorted(g.relations):
        m = g.relations[(a, b)]
        r, c = m.coords()
        # each weight, a multiplicity (validate), is written back as
        # that many repeated edge lines
        out = []
        for i, j, v in zip(r, c, m.values):
            out.extend([f"{i}\t{j}"] * int(v))
        (path / f"edges_{a}_{b}.tsv").write_text("\n".join(out) + ("\n" if out else ""))
    labeled = np.nonzero(g.labels >= 0)[0]
    lab_lines = [f"{i}\t{g.labels[i]}" for i in labeled]
    (path / f"labels_{g.target_type}.tsv").write_text(
        "\n".join(lab_lines) + ("\n" if lab_lines else ""))
    split_lines = [f"{i}\t{SPLIT_TAGS[g.splits[i]]}" for i in range(g.n_target)]
    (path / "splits.tsv").write_text("\n".join(split_lines) + ("\n" if split_lines else ""))


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

    features = {}
    for t in node_types:
        fpath = path / f"features_{t}.tsv"
        if not fpath.is_file():
            raise DatasetError(f"feature file {fpath.name} not found")
        x = _load_tsv(fpath, fdims[t], np.float64)
        if x.shape != (counts[t], fdims[t]):
            raise DatasetError(
                f"{fpath.name} has shape {x.shape}, manifest says "
                f"({counts[t]}, {fdims[t]})"
            )
        features[t] = x

    relations = {}
    for pair in _manifest_field(man, "relations", list, "a list of type pairs"):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(t, str) for t in pair)):
            raise DatasetError(f"manifest.json: relation entry {pair!r} must "
                               "name two types")
        a, b = pair
        if a not in counts or b not in counts:
            raise DatasetError(f"relation ({a!r}, {b!r}) names an unknown type")
        epath = path / f"edges_{a}_{b}.tsv"
        if not epath.is_file():
            raise DatasetError(f"edge file {epath.name} not found")
        e = _load_tsv(epath, 2, np.int64)
        if e.size and (e.min() < 0 or e[:, 0].max() >= counts[a] or e[:, 1].max() >= counts[b]):
            raise DatasetError(f"{epath.name}: edge endpoint out of range")
        relations[(a, b)] = SparseMatrix.from_coo(
            counts[a], counts[b], e[:, 0], e[:, 1], np.ones(e.shape[0]))
    for (a, b), m in relations.items():
        if (b, a) in relations and a < b and \
                relations[(b, a)] != m.transpose():
            raise DatasetError(f"edges_{b}_{a}.tsv is not the reverse of "
                               f"edges_{a}_{b}.tsv: list one direction, or "
                               "both with the same edges")

    target = _manifest_field(man, "target_type", str, "a type name")
    if target not in counts:
        raise DatasetError(f"target type {target!r} not among node types")
    n = counts[target]

    lpath = path / f"labels_{target}.tsv"
    if not lpath.is_file():
        raise DatasetError(f"label file {lpath.name} not found")
    lab = _load_tsv(lpath, 2, np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for i, y in lab:
        if not 0 <= i < n:
            raise DatasetError(f"{lpath.name}: node id {i} out of range")
        if seen[i]:
            raise DatasetError(f"{lpath.name}: duplicate label row for node {i}")
        if not -1 <= y < num_classes:
            raise DatasetError(f"{lpath.name}: labels must lie in "
                               f"[-1, {num_classes}), node {i} has {y}")
        seen[i] = True
        labels[i] = y

    spath = path / "splits.tsv"
    if not spath.is_file():
        raise DatasetError("splits.tsv not found")
    text = spath.read_text()
    splits = np.full(n, -1, dtype=np.int8)
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DatasetError(f"splits.tsv: malformed line {line!r}")
        try:
            i = int(parts[0])
        except ValueError:
            raise DatasetError(f"splits.tsv: node id {parts[0]!r} is not an "
                               "integer") from None
        tag = parts[1].strip()
        if tag not in SPLIT_TAGS:
            raise DatasetError(f"splits.tsv: unknown split tag {tag!r}")
        if not 0 <= i < n:
            raise DatasetError(f"splits.tsv: node id {i} out of range")
        if splits[i] != -1:
            raise DatasetError(f"splits.tsv: duplicate split row for node {i}")
        splits[i] = SPLIT_TAGS.index(tag)
    if np.any(splits == -1):
        missing = int(np.nonzero(splits == -1)[0][0])
        raise DatasetError(f"splits.tsv: node {missing} has no split tag")

    return HeteroGraph.create(node_types, counts, features, relations,
                              target, labels, num_classes, splits)

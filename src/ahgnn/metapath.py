"""Meta-path enumeration, induced adjacency, and homophily analytics.

A meta-path is a type sequence T1-T2-...-Tk walkable in the schema; its
induced adjacency counts the walks between endpoint nodes, obtained by
chaining the per-step relation matrices.  Homophily ratios compare the
labels at the two endpoints of those induced edges.  Relation weights
are edge multiplicities, finite integers >= 1 (`HeteroGraph.validate`
rejects any other), so an induced edge exists exactly where some walk
does.

Cost of graph_homophily and build_homophily_report: walk supports are
counted right to left in blocks of target columns (_path_counts), so no
product longer than two steps is formed and memory is bounded by the
block width.  Each distinct two-step suffix is one sparse product of two
relations; each longer suffix's block is one relation SpMM on a dense
block.  On the 1600-node scaling fixture (3 types, depth 4: six paths,
four of them 53-57 % dense) one report takes 55-65 ms and `ahgnn analyze`
peaks at 59 MB.  At 6,400 target nodes a depth-4 graph_homophily takes
1.0-1.2 s and the process 96 MB (Xeon, 1 BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import HeteroGraph, Schema, write_csv
from .sparse import SparseMatrix, normalize_relation, spspmm


@dataclass(frozen=True)
class MetaPath:
    """A walkable node-type sequence; `steps` counts relation hops."""

    types: tuple[str, ...]

    def __post_init__(self):
        if not self.types:
            raise ValueError("meta-path needs at least one node type")

    @property
    def key(self) -> str:
        return "-".join(self.types)

    @property
    def steps(self) -> int:
        return len(self.types) - 1


def enumerate_metapaths(schema: Schema, start: str, max_len: int,
                        end: str | None = None,
                        include_trivial: bool = True) -> list[MetaPath]:
    """All schema-walkable paths from `start` with at most `max_len` steps.

    Paths come back in lexicographic key order (depth-first with sorted
    neighbor types).  `end` filters on the final node type; the trivial
    zero-step path is kept only when `include_trivial` and it passes the
    end filter.
    """
    if start not in schema.node_types:
        raise ValueError(f"unknown start type {start!r}")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    out: list[MetaPath] = []

    def walk(prefix: tuple[str, ...]) -> None:
        steps = len(prefix) - 1
        if (steps > 0 or include_trivial) and (end is None or prefix[-1] == end):
            out.append(MetaPath(prefix))
        if steps == max_len:
            return
        for t in schema.neighbors(prefix[-1]):
            walk(prefix + (t,))

    walk((start,))
    return out


class PathProducts:
    """Relation steps and their chained walk products, memoized by types.

    A two-type key holds its relation, degree-normalized (once) when
    `normalized`; a longer key holds its prefix's product times its last
    step.  Products are always left-associated, so a memo hit returns
    bit-identical values to a cold computation.
    """

    def __init__(self, graph: HeteroGraph, normalized: bool):
        self.graph = graph
        self.normalized = normalized
        self._memo: dict[tuple[str, ...], SparseMatrix] = {}

    def matrix(self, types: tuple[str, ...]) -> SparseMatrix:
        types = tuple(types)
        if len(types) == 1:
            return SparseMatrix.identity(self.graph.n(types[0]))
        if types not in self._memo:
            if len(types) == 2:
                rel = self.graph.relation(*types)
                self._memo[types] = (normalize_relation(rel)
                                     if self.normalized else rel)
            else:
                self._memo[types] = spspmm(self.matrix(types[:-1]),
                                           self.matrix(types[-2:]))
        return self._memo[types]


def induced_adjacency(graph: HeteroGraph, path: MetaPath,
                      products: PathProducts | None = None) -> SparseMatrix:
    """Adjacency induced by a meta-path, read from `products`.

    Raw walk counts by default; pass `PathProducts(graph, normalized=True)`
    for the degree-normalized walk product.
    """
    for t in path.types:
        if t not in graph.counts:
            raise ValueError(f"meta-path names unknown type {t!r}")
    for a, b in zip(path.types, path.types[1:]):
        if (a, b) not in graph.relations:
            raise ValueError(f"meta-path step ({a!r}, {b!r}) has no relation")
    return (products or PathProducts(graph, normalized=False)).matrix(path.types)


def _label_indicator(labels: np.ndarray) -> np.ndarray:
    """(n, C+1) float64: one-hot labels, then a column marking labeled nodes."""
    labeled = labels >= 0
    ind = np.zeros((labels.shape[0], int(labels.max(initial=-1)) + 2))
    ind[labeled, labels[labeled]] = 1.0
    ind[:, -1] = labeled
    return ind


def _qualifying(hits: np.ndarray, closed: np.ndarray,
                labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: (same-label, all) qualifying nonzeros from indicator hits.

    `hits` is a row's 0/1 support times `indicator` (see _label_indicator)
    and `closed` its 0/1 diagonal.  A nonzero qualifies when it lies off
    the diagonal and both of its ends are labeled, so a labeled row's
    closed walk, counted in both columns of `hits`, is taken off.
    """
    labeled = labels >= 0
    # an unlabeled row reads the labeled column here and is zeroed anyway
    same = np.where(labeled, hits[np.arange(labels.shape[0]), labels], 0.0)
    total = np.where(labeled, hits[:, -1], 0.0)
    closed = closed * labeled
    return same - closed, total - closed


def _ratio(same: np.ndarray, total: np.ndarray) -> float | None:
    n = int(total.sum())
    return int(same.sum()) / n if n else None


def _local_ratios(same: np.ndarray, total: np.ndarray) -> np.ndarray:
    out = np.full(total.shape[0], np.nan)
    has = total > 0
    out[has] = same[has] / total[has]
    return out


def _square_counts(adj: SparseMatrix, labels) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=np.int64)
    if adj.rows != labels.shape[0] or adj.cols != labels.shape[0]:
        raise ValueError("adjacency must be square over the labeled node set")
    walks = adj.to_scipy()   # rebinding .data below leaves adj as it was
    walks.data = (walks.data != 0).astype(np.float64)
    return _qualifying(walks @ _label_indicator(labels), walks.diagonal(),
                       labels)


def global_homophily(adj: SparseMatrix, labels: np.ndarray) -> float | None:
    """Fraction of induced edges joining same-labeled endpoints.

    Counts directed structural nonzeros, skips the diagonal and any
    endpoint labeled -1.  Returns None when no edge qualifies.
    """
    return _ratio(*_square_counts(adj, labels))


def local_homophily(adj: SparseMatrix, labels: np.ndarray) -> np.ndarray:
    """Per-node same-label neighbor fraction; NaN where undefined."""
    return _local_ratios(*_square_counts(adj, labels))


# equal-width bins over [0, 1] in each local-homophily histogram
HISTOGRAM_BINS = 5


def homophily_histogram(local: np.ndarray) -> np.ndarray:
    """Counts of defined local ratios in HISTOGRAM_BINS bins over [0, 1].

    Bins are left-inclusive; the last bin also includes 1.0.
    """
    vals = np.asarray(local, dtype=np.float64)
    vals = vals[~np.isnan(vals)]
    if np.any((vals < 0) | (vals > 1)):
        raise ValueError("local homophily values must lie in [0, 1]")
    idx = np.minimum((vals * HISTOGRAM_BINS).astype(np.int64),
                     HISTOGRAM_BINS - 1)
    return np.bincount(idx, minlength=HISTOGRAM_BINS)


def _target_paths(graph: HeteroGraph, max_len: int) -> list[MetaPath]:
    """Target-to-target meta-paths of 1..max_len steps, in enumeration order."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2: target-to-target paths "
                         "need at least two steps")
    target = graph.target_type
    paths = enumerate_metapaths(graph.schema(), target, max_len,
                                end=target, include_trivial=False)
    if not paths:
        raise ValueError("schema admits no target-to-target meta-path")
    return paths


def _mean_ratio(ratios) -> float:
    """Mean of the defined per-path ratios, taken in path order."""
    vals = [h for h in ratios if h is not None]
    if not vals:
        raise ValueError("no target-to-target meta-path induces any "
                         "qualifying edge")
    return float(np.mean(vals))


# Dense walk-support blocks hold this many target columns: 512 bytes of
# float32 per block row, so a block over 1,600 rows (800 KB) stays in a
# core's L2 cache and one over 25,600 rows takes 13 MB.
_BLOCK_COLUMNS = 512 // np.dtype(np.float32).itemsize


def _column_block(m: sp.csc_matrix, lo: int, hi: int) -> np.ndarray:
    """Columns lo:hi of a canonical CSC matrix as a dense C-ordered array."""
    start, stop = m.indptr[lo], m.indptr[hi]
    out = np.zeros((m.shape[0], hi - lo), dtype=m.dtype)
    cols = np.repeat(np.arange(hi - lo), np.diff(m.indptr[lo:hi + 1]))
    out[m.indices[start:stop], cols] = m.data[start:stop]
    return out


def _path_counts(graph: HeteroGraph, max_len: int):
    """Yield (path, same, total) per-row counts for each target-to-target path.

    Walk matrices are built right to left, one block J of target columns
    at a time, and never whole.  Each distinct two-step suffix t-u-A is
    one sparse product of two relations, made once per call and densified
    block by block; a longer suffix's block is one relation times the
    block of its own suffix, M(t0-t1-...-A)[:, J] = R_t0t1 M(t1-...-A)[:, J],
    and lives only while a longer path still extends it.  A one-step path
    is its relation's block.  Relation weights are multiplicities >= 1
    (`HeteroGraph.validate`), so no walks cancel and a walk matrix's
    support is the product of its steps' supports: every block is
    clamped to 1 after every step, so it is a 0/1 float32 support
    whatever the multiplicities it chains.  The per-block counts are
    exact integers, summed across blocks in float64.
    """
    paths = _target_paths(graph, max_len)
    labels = np.asarray(graph.labels, dtype=np.int64)
    n = labels.shape[0]
    pairs = sorted({pair for p in paths for pair in zip(p.types, p.types[1:])})
    rel = {pair: graph.relation(*pair) for pair in pairs}
    steps = {pair: m.to_scipy().astype(np.float32) for pair, m in rel.items()}

    def columns(m: SparseMatrix) -> sp.csc_matrix:
        out = sp.csc_matrix(m.to_scipy(), dtype=np.float32)
        np.minimum(out.data, 1, out=out.data)
        return out

    suffixes = sorted({p.types[-k:] for p in paths
                       for k in range(3, len(p.types) + 1)})
    roots = {s: columns(spspmm(rel[s[:2]], rel[s[1:]]))
             for s in suffixes if len(s) == 3}
    roots.update((p.types, columns(rel[p.types])) for p in paths if p.steps == 1)
    children: dict[tuple, list[tuple]] = {}
    for s in suffixes:
        if len(s) > 3:
            children.setdefault(s[1:], []).append(s)

    indicator = _label_indicator(labels).astype(np.float32)
    hits = {p.types: np.zeros(indicator.shape) for p in paths}
    closed = {p.types: np.zeros(n) for p in paths}

    def visit(s: tuple, block: np.ndarray, lo: int, hi: int) -> None:
        if s in hits:
            hits[s] += block @ indicator[lo:hi]
            closed[s][lo:hi] = block[np.arange(lo, hi), np.arange(hi - lo)]
        for child in children.get(s, ()):
            walks = steps[child[:2]] @ block
            np.minimum(walks, 1, out=walks)
            visit(child, walks, lo, hi)

    for lo in range(0, n, _BLOCK_COLUMNS):
        hi = min(lo + _BLOCK_COLUMNS, n)
        for s, m in roots.items():
            visit(s, _column_block(m, lo, hi), lo, hi)
    for p in paths:
        yield (p, *_qualifying(hits[p.types], closed[p.types], labels))


def graph_homophily(graph: HeteroGraph, max_len: int = 4) -> float:
    """Mean global homophily over target-to-target paths of 1..max_len steps.

    Paths with no qualifying edges are skipped; if no path qualifies at
    all, raises ValueError.
    """
    return _mean_ratio(_ratio(same, total)
                       for _, same, total in _path_counts(graph, max_len))


class IncrementalHomophily:
    """Exact graph_homophily of a graph whose edges move one endpoint at a time.

    `movable` names the types b whose (target, b) relation may change.
    State: `steps`, each relation on the target-to-target paths of at most
    `max_len` steps as its dense float64 multiplicity matrix; for a
    movable b, `steps[(target, b)]` is the current matrix of that relation
    and `steps[(b, target)]` its transposed view: `accept` moves them, and
    the rewirer reads its edges from them.  `walks`, every prefix's dense
    n_target x n_last walk counts: a two-type prefix's are its step
    itself, a longer one's the previous prefix's times the last relation.
    Multiplicities are integers >= 1 (`HeteroGraph.validate`), so the
    float64 counts are exact while they stay below 2^53.  `counts`, each
    path's same-label and all qualifying nonzeros, taken from its support
    by the rule graph_homophily applies (`_qualifying`).  With 1600
    target nodes, 400 nodes per auxiliary type, 3 types and depth 4 that
    is twelve prefixes, 147 MiB, built in 0.2-0.3 s (Xeon, 1 BLAS thread).

    Moving one endpoint of a (target, b) edge changes R_tb by a rank-1
    term x y^T with two nonzeros, and R_bt by its transpose.  A prefix's
    change is then a short list of rank-1 terms, carried along the chain
    by dP_m = P_{m-1} d_m + dP_{m-1} F'_m.  `propose` moves each path's
    counts by the entries of its terms' rectangles (support of u times
    support of v) that flip between zero and nonzero, each classified by
    its two labels (`_flips`).  A proposal so costs a few vector-matrix
    products plus a sort over the area of those rectangles instead of a
    chain of sparse products over the whole graph; `accept` adds the
    terms into the stored matrices.
    """

    def __init__(self, graph: HeteroGraph, max_len: int, movable):
        t = graph.target_type
        self.target = t
        self.n_target = graph.n(t)
        self.labels = graph.labels
        self.paths = [p.types for p in _target_paths(graph, max_len)]
        self.steps = {}   # (a, b) -> dense step matrix
        for b in movable:
            self.steps[(t, b)] = graph.relation(t, b).to_dense()
            self.steps[(b, t)] = self.steps[(t, b)].T
        self.walks = {}   # prefix -> dense walk counts
        for path in self.paths:
            for k in range(2, len(path) + 1):
                prefix, pair = path[:k], path[k - 2:k]
                if pair not in self.steps:
                    self.steps[pair] = graph.relation(*pair).to_dense()
                if prefix not in self.walks:
                    # C order keeps `_flips`'s take a gather, not a copy
                    self.walks[prefix] = self.steps[pair] if k == 2 else \
                        np.ascontiguousarray(self.walks[prefix[:-1]]
                                             @ graph.relation(*pair).to_scipy())
        indicator = _label_indicator(self.labels)
        self.counts = []   # per path: (same-label, all) qualifying nonzeros
        for path in self.paths:
            support = (self.walks[path] != 0).astype(np.float64)
            same, total = _qualifying(support @ indicator, support.diagonal(),
                                      self.labels)
            self.counts.append((int(same.sum()), int(total.sum())))
        self._pending = None

    def propose(self, b: str, old: tuple[int, int],
                new: tuple[int, int]) -> float | None:
        """Homophily after moving edge `old` of (target, b) to `new`.

        The two edges share one endpoint.  Returns None when no path
        would keep a qualifying edge.  Nothing changes until `accept`.
        """
        t = self.target
        x = np.zeros(self.n_target)
        y = np.zeros(self.steps[(t, b)].shape[1])
        if old[1] == new[1]:
            x[new[0]] += 1
            x[old[0]] -= 1
            y[old[1]] = 1
        else:
            x[old[0]] = 1
            y[new[1]] += 1
            y[old[1]] -= 1
        rx, ry = x.nonzero()[0], y.nonzero()[0]
        # moved step -> its change z o^T, with the supports of z and o
        moved = {(t, b): (x, y, rx, ry), (b, t): (y, x, ry, rx)}
        # prefix -> rank-1 terms (u, v, support of u, support of v)
        terms = {(t,): []}

        def delta(prefix):
            if prefix not in terms:
                head, pair = prefix[:-1], prefix[-2:]
                step = self.steps[pair]
                out = []
                for u, v, r, c in delta(head):
                    w = v[c] @ step[c]
                    if pair in moved:  # through the moved step F' = F + z o^T
                        z, o, _, _ = moved[pair]
                        w += (v[c] @ z[c]) * o
                    cw = w.nonzero()[0]
                    if cw.size:
                        out.append((u, w, r, cw))
                if pair in moved:  # the prefix times the moved step's change
                    z, o, rz, ro = moved[pair]
                    if len(head) > 1:
                        z = self.walks[head][:, rz] @ z[rz]
                        rz = z.nonzero()[0]
                    if rz.size:
                        out.append((z, o, rz, ro))
                terms[prefix] = out
            return terms[prefix]

        counts = []
        for path, (same, total) in zip(self.paths, self.counts):
            path_terms = delta(path)
            if path_terms:
                d_same, d_total = self._flips(self.walks[path], path_terms)
                same, total = same + d_same, total + d_total
            counts.append((same, total))
        self._pending = (terms, counts)
        vals = [same / total for same, total in counts if total]
        return float(np.mean(vals)) if vals else None

    def _flips(self, walks: np.ndarray, terms) -> tuple[int, int]:
        """Change of (same-label, all) qualifying nonzeros under the terms.

        One pass over the union of the terms' rectangles: their entries
        as flat indices, deduplicated by sort, each taking the sum of all
        terms; the counts move by the entries gained minus those lost,
        where an entry qualifies off the diagonal with both ends labeled.
        """
        n = walks.shape[1]
        idx = np.concatenate([(r[:, None] * n + c).ravel()
                              for _, _, r, c in terms])
        if len(terms) > 1:
            idx.sort()
            idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]
        rows, cols = np.divmod(idx, n)
        old = walks.take(idx)
        new = old + sum(u[rows] * v[cols] for u, v, _, _ in terms)
        flip = ((old == 0) != (new == 0)).nonzero()[0]
        sign = np.where(old[flip] == 0, 1, -1)
        a, c = self.labels[rows[flip]], self.labels[cols[flip]]
        sign *= (a >= 0) & (c >= 0) & (rows[flip] != cols[flip])  # qualifying
        return int(sign[a == c].sum()), int(sign.sum())

    def accept(self) -> None:
        """Apply the last proposed move to the stored matrices and counts."""
        terms, counts = self._pending
        for prefix, prefix_terms in terms.items():
            for u, v, rows, cols in prefix_terms:
                self.walks[prefix][rows[:, None], cols] += \
                    u[rows][:, None] * v[cols]
        self.counts = counts
        self._pending = None


@dataclass
class PathHomophily:
    key: str
    global_ratio: float | None
    n_edges: int
    histogram: np.ndarray


@dataclass
class HomophilyReport:
    paths: list[PathHomophily]
    graph_level: float
    max_len: int


def build_homophily_report(graph: HeteroGraph, max_len: int = 4) -> HomophilyReport:
    """Per-path global/local homophily plus the graph-level mean.

    The graph-level figure averages the per-path ratios computed here, so
    it equals graph_homophily bit for bit and raises the same errors.
    """
    rows = [PathHomophily(key=p.key, global_ratio=_ratio(same, total),
                          n_edges=int(total.sum()),
                          histogram=homophily_histogram(_local_ratios(same, total)))
            for p, same, total in _path_counts(graph, max_len)]
    return HomophilyReport(paths=rows,
                           graph_level=_mean_ratio(r.global_ratio for r in rows),
                           max_len=max_len)


def write_homophily_csv(report: HomophilyReport, path) -> None:
    nbins = len(report.paths[0].histogram) if report.paths else HISTOGRAM_BINS
    write_csv(path, ["metapath", "global_h", "n_edges"]
              + [f"bin{i}" for i in range(nbins)],
              [[p.key, p.global_ratio, p.n_edges, *p.histogram]
               for p in report.paths]
              + [["graph_level", report.graph_level] + [None] * (nbins + 1)])

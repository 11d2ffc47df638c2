"""Independent brute-force reference implementations used across tests.

Everything here recomputes results with plain loops over dense copies,
deliberately avoiding the library's sparse kernels, so agreement is
evidence rather than tautology.  The exceptions are slow paths that the
library replaced: oracle_rewire_to_homophily, the rewirer's
full-recompute loop, which moves each proposal's edge in dense relation
matrices and recounts every path's int64 walk counts instead of running
the incremental evaluator, and draws from edge Counters; the homophily
report that counts every path on its canonical (sorted, memoised) walk
product through coords(); the per-head attention loop and the pairwise
head-diversity loop; the training loop that runs every forward, the
taped step included, over all rows; the path embeddings that project
every hop of every path, a shared prefix once per path through it; the
version-1 cache writer, which stores every path's full hop list; the
softmax that reduces with numpy axis reductions; the Adam that updates
one parameter at a time; the F1 that counts each class with its own
masks; and the propagation that forms each path's n x n walk product
before multiplying it by the operand.
"""

import io
import json
import struct
from collections import Counter
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np

import ahgnn.autodiff as ad
from ahgnn.graph import HeteroGraph
from ahgnn.metapath import (HomophilyReport, PathHomophily, PathProducts,
                            _mean_ratio, _target_paths, enumerate_metapaths,
                            homophily_histogram, induced_adjacency)
from ahgnn.model import init_model_params, model_forward
from ahgnn.propagate import CACHE_MAGIC, label_hop_indices
from ahgnn.sparse import SparseMatrix, spmm
from ahgnn.synth import RewireResult
from ahgnn.train import Adam, EpochRow, Metrics, evaluate, training_loss


def oracle_walk_counts(graph: HeteroGraph, types) -> np.ndarray:
    """Count typed walks node-by-node with a depth-first expansion."""
    mats = [graph.relations[(a, b)].to_dense()
            for a, b in zip(types, types[1:])]
    n0, nk = graph.n(types[0]), graph.n(types[-1])
    out = np.zeros((n0, nk))

    def walk(start, pos, cur, weight):
        if pos == len(mats):
            out[start, cur] += weight
            return
        m = mats[pos]
        for j in range(m.shape[1]):
            if m[cur, j] != 0:
                walk(start, pos + 1, j, weight * m[cur, j])

    for i in range(n0):
        walk(i, 0, i, 1.0)
    return out


def oracle_normalize(dense) -> np.ndarray:
    """Entry-wise v/sqrt(rowsum*colsum) on a dense copy, zero-degree dropped."""
    dense = np.asarray(dense, dtype=np.float64)
    out = np.zeros_like(dense)
    rs, cs = dense.sum(axis=1), dense.sum(axis=0)
    for i in range(dense.shape[0]):
        for j in range(dense.shape[1]):
            if dense[i, j] != 0 and rs[i] > 0 and cs[j] > 0:
                out[i, j] = dense[i, j] / np.sqrt(rs[i] * cs[j])
    return out


def oracle_global_homophily(adj_dense, labels):
    num = den = 0
    n = len(labels)
    for i in range(n):
        for j in range(n):
            if i == j or adj_dense[i, j] == 0:
                continue
            if labels[i] < 0 or labels[j] < 0:
                continue
            den += 1
            num += int(labels[i] == labels[j])
    return None if den == 0 else num / den


def oracle_local_homophily(adj_dense, labels):
    n = len(labels)
    out = np.full(n, np.nan)
    for i in range(n):
        num = den = 0
        for j in range(n):
            if i == j or adj_dense[i, j] == 0:
                continue
            if labels[i] < 0 or labels[j] < 0:
                continue
            den += 1
            num += int(labels[i] == labels[j])
        if den:
            out[i] = num / den
    return out


def _coords_edge_counts(adj: SparseMatrix, labels: np.ndarray) -> tuple[int, int]:
    """(same-label, all) induced edges that qualify: off-diagonal, both ends labeled."""
    r, c = adj.coords()
    keep = (r != c) & (labels[r] >= 0) & (labels[c] >= 0)
    return int((labels[r[keep]] == labels[c[keep]]).sum()), int(keep.sum())


def _coords_local_homophily(adj: SparseMatrix, labels: np.ndarray) -> np.ndarray:
    """Per-node same-label neighbor fraction; NaN where undefined."""
    labels = np.asarray(labels, dtype=np.int64)
    if adj.rows != labels.shape[0] or adj.cols != labels.shape[0]:
        raise ValueError("adjacency must be square over the labeled node set")
    r, c = adj.coords()
    keep = (r != c) & (labels[r] >= 0) & (labels[c] >= 0)
    r, c = r[keep], c[keep]
    n = adj.rows
    deg = np.bincount(r, minlength=n).astype(np.float64)
    same = np.bincount(r[labels[r] == labels[c]], minlength=n).astype(np.float64)
    out = np.full(n, np.nan)
    has = deg > 0
    out[has] = same[has] / deg[has]
    return out


def oracle_build_homophily_report(graph: HeteroGraph,
                                  max_len: int = 4) -> HomophilyReport:
    """ahgnn.metapath.build_homophily_report counted on canonical products.

    Every path's walk product comes sorted and memoised from
    PathProducts (spspmm), and its qualifying entries are read off
    coords() with index masks.
    """
    paths = _target_paths(graph, max_len)
    products = PathProducts(graph, normalized=False)
    rows = []
    for p in paths:
        adj = induced_adjacency(graph, p, products=products)
        same, total = _coords_edge_counts(adj, graph.labels)
        rows.append(PathHomophily(
            key=p.key,
            global_ratio=same / total if total else None,
            n_edges=total,
            histogram=homophily_histogram(
                _coords_local_homophily(adj, graph.labels)),
        ))
    return HomophilyReport(paths=rows,
                           graph_level=_mean_ratio(r.global_ratio for r in rows),
                           max_len=max_len)


def oracle_f1(preds, labels, num_classes):
    """Macro and micro F1 from an explicit confusion matrix."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, y in zip(preds, labels):
        cm[y, p] += 1
    f1s = []
    for c in range(num_classes):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    micro = float(np.trace(cm)) / float(cm.sum())
    return float(np.mean(f1s)), micro


def oracle_f1_scores(predictions, labels, num_classes: int) -> Metrics:
    """ahgnn.train.f1_scores counting each class's tp/fp/fn with masks."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    per_class = np.zeros(num_classes)
    for c in range(num_classes):
        tp = int(np.sum((predictions == c) & (labels == c)))
        fp = int(np.sum((predictions == c) & (labels != c)))
        fn = int(np.sum((predictions != c) & (labels == c)))
        denom = 2 * tp + fp + fn
        per_class[c] = (2 * tp / denom) if denom else 0.0
    micro = float(np.mean(predictions == labels))
    return Metrics(macro_f1=float(per_class.mean()), micro_f1=micro)


def oracle_row_softmax(a):
    """ahgnn.autodiff.row_softmax with numpy reductions over the last axis."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return ad._emit(s, (a,), vjp)


class OracleAdam:
    """ahgnn.train.Adam as a loop that updates one parameter at a time."""

    def __init__(self, lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params) -> bool:
        live = {n: p for n, p in params.items()
                if p.requires_grad and p.grad is not None}
        for p in live.values():
            if not np.all(np.isfinite(p.grad)):
                return False
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in live.items():
            g = p.grad.astype(np.float64)
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            if self.weight_decay:
                p.data = p.data - self.lr * self.weight_decay * p.data
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / b1t
            v_hat = self.v[name] / b2t
            upd = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.data = (p.data - upd.astype(p.data.dtype)).astype(p.data.dtype)
        return True


def graphs_identical(a: HeteroGraph, b: HeteroGraph) -> bool:
    """Full content equality: types, counts, features, labels, splits, edges."""
    if list(a.node_types) != list(b.node_types) or a.counts != b.counts:
        return False
    if not all(np.array_equal(a.features[t], b.features[t])
               for t in a.node_types):
        return False
    if not (np.array_equal(a.labels, b.labels)
            and np.array_equal(a.splits, b.splits)):
        return False
    return set(a.relations) == set(b.relations) and all(
        a.relations[p] == b.relations[p] for p in a.relations)


def random_typed_graph(seed: int, max_nodes: int = 30) -> HeteroGraph:
    """Random small heterogeneous graph with 1-3 types and -1 labels mixed in."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    names = ["A", "B", "C"][:k]
    counts = {}
    budget = max_nodes
    for idx, t in enumerate(names):
        hi = max(2, budget - 2 * (k - idx - 1))
        n = int(rng.integers(2, min(10, hi) + 1))
        counts[t] = n
        budget -= n
    relations = {}
    for i in range(k):
        for j in range(i, k):
            a, b = names[i], names[j]
            if a != b and rng.random() < 0.2:
                continue  # sometimes leave a pair unconnected
            if a == b and rng.random() < 0.6:
                continue  # self-relations are rarer
            na, nb = counts[a], counts[b]
            n_edges = int(rng.integers(0, na * nb // 2 + 1))
            if n_edges == 0:
                relations[(a, b)] = SparseMatrix.empty(na, nb)
                continue
            r = rng.integers(0, na, size=n_edges)
            c = rng.integers(0, nb, size=n_edges)
            v = rng.integers(1, 4, size=n_edges).astype(float)
            relations[(a, b)] = SparseMatrix.from_coo(na, nb, r, c, v)
    num_classes = int(rng.integers(2, 5))
    labels = rng.integers(-1, num_classes, size=counts["A"])
    splits = rng.integers(0, 3, size=counts["A"])
    features = {t: rng.normal(size=(counts[t], int(rng.integers(1, 4))))
                for t in names}
    return HeteroGraph.create(names, counts, features, relations, "A",
                              labels, num_classes, splits)


def _dense_path_ratios(paths, mats: dict, labels) -> list:
    """Per path: same-label / all qualifying nonzeros of its walk counts.

    `mats` maps each step (a, b) to a dense integer matrix; walk counts
    are chained left to right in int64, memoised per prefix.  A nonzero
    qualifies off the diagonal with both ends labeled; None marks a path
    with none.
    """
    labels = np.asarray(labels)
    both = (labels[:, None] >= 0) & (labels[None, :] >= 0)
    np.fill_diagonal(both, False)
    same = both & (labels[:, None] == labels[None, :])
    walks: dict = {}
    ratios = []
    for types in paths:
        for k in range(2, len(types) + 1):
            if types[:k] not in walks:
                step = mats[types[k - 2:k]]
                walks[types[:k]] = step if k == 2 else walks[types[:k - 1]] @ step
        nz = walks[types] != 0
        total = int(np.count_nonzero(nz & both))
        ratios.append(int(np.count_nonzero(nz & same)) / total if total else None)
    return ratios


def _dense_relations(graph: HeteroGraph) -> dict:
    mats = {}
    for pair, m in graph.relations.items():
        dense = m.to_dense()
        assert np.array_equal(dense, np.round(dense)), "integer weights only"
        mats[pair] = dense.astype(np.int64)
    return mats


def _dense_target_paths(graph: HeteroGraph, depth: int) -> list:
    """Target-to-target type sequences, raising graph_homophily's errors."""
    if depth < 2:
        raise ValueError("max_len must be >= 2: target-to-target paths "
                         "need at least two steps")
    t = graph.target_type
    paths = [p.types for p in enumerate_metapaths(graph.schema(), t, depth,
                                                  end=t, include_trivial=False)]
    if not paths:
        raise ValueError("schema admits no target-to-target meta-path")
    return paths


def _dense_mean_ratio(paths, mats: dict, labels) -> float:
    vals = [h for h in _dense_path_ratios(paths, mats, labels) if h is not None]
    if not vals:
        raise ValueError("no target-to-target meta-path induces any "
                         "qualifying edge")
    return float(np.mean(vals))


def oracle_graph_homophily(graph: HeteroGraph, depth: int = 4) -> float:
    """ahgnn.metapath.graph_homophily on dense int64 walk counts."""
    return _dense_mean_ratio(_dense_target_paths(graph, depth),
                             _dense_relations(graph), graph.labels)


def oracle_rewire_to_homophily(graph: HeteroGraph, spec) -> RewireResult:
    """The rewirer with a full dense homophily recompute per proposal.

    Same RNG stream as ahgnn.synth.rewire_to_homophily, but it draws
    from edge Counters and builds its result from them, and every
    proposal moves the edge in dense relation matrices and recomputes
    every path's walk counts from scratch, so it is the reference the
    incremental evaluator and the rewirer's edge lists must match.
    """
    if not 0.0 <= spec.target_h <= 1.0:
        raise ValueError("target homophily must lie in [0, 1]")
    t = graph.target_type
    rewirable = sorted(b for (a, b) in graph.relations if a == t and b != t)
    if not rewirable:
        raise ValueError("no cross-type relation touches the target type")
    rng = np.random.default_rng(spec.seed)

    edges: dict[str, Counter] = {}
    for b in rewirable:
        r, c = graph.relations[(t, b)].coords()
        cnt: Counter = Counter()
        for i, j, v in zip(r, c, graph.relations[(t, b)].values):
            if v != int(v) or v <= 0:
                raise ValueError(f"relation ({t!r}, {b!r}) must hold integer "
                                 "multiplicities to be rewired")
            cnt[(int(i), int(j))] += int(v)
        edges[b] = cnt

    mats = _dense_relations(graph)
    for b in rewirable:
        mats[(b, t)] = mats[(t, b)].T   # a view: moves update both

    def move(b, src, dst) -> None:
        cnt = edges[b]
        cnt[src] -= 1
        if cnt[src] == 0:
            del cnt[src]
        cnt[dst] += 1
        mats[(t, b)][src] -= 1
        mats[(t, b)][dst] += 1

    paths = _dense_target_paths(graph, spec.depth)
    h = _dense_mean_ratio(paths, mats, graph.labels)
    gap = abs(h - spec.target_h)
    trajectory = [h]
    accepted = 0
    proposals = 0
    it = 0
    for it in range(1, spec.max_iterations + 1):
        if gap <= spec.tolerance:
            break
        b = rewirable[rng.integers(0, len(rewirable))]
        cnt = edges[b]
        if not cnt:
            continue
        instances = list(cnt.keys())
        old = instances[rng.integers(0, len(instances))]
        side = int(rng.integers(0, 2))
        if side == 0:
            new = (int(rng.integers(0, graph.n(t))), old[1])
        else:
            new = (old[0], int(rng.integers(0, graph.n(b))))
        if new == old or cnt[new] > 0:
            continue
        move(b, old, new)
        proposals += 1
        try:
            h_new = _dense_mean_ratio(paths, mats, graph.labels)
        except ValueError:
            h_new = None  # proposal emptied every qualifying path
        if h_new is not None and abs(h_new - spec.target_h) < gap:
            h, gap = h_new, abs(h_new - spec.target_h)
            trajectory.append(h)
            accepted += 1
        else:
            move(b, new, old)
    relations = dict(graph.relations)
    for b in rewirable:
        keys = list(edges[b])
        m = SparseMatrix.from_coo(graph.n(t), graph.n(b),
                                  [i for i, _ in keys], [j for _, j in keys],
                                  [edges[b][k] for k in keys])
        relations[(t, b)], relations[(b, t)] = m, m.transpose()
    return RewireResult(graph=replace(graph, relations=relations),
                        achieved=h, target=spec.target_h, iterations=it,
                        accepted=accepted, converged=gap <= spec.tolerance,
                        proposals=proposals, trajectory=trajectory)


def oracle_multi_head_attention(tokens, wq, wk, wv, wo, heads: int):
    """Attention one head at a time, slicing the projections per head.

    Returns the output (N, S, d) and the list of per-head (N, S, S) maps.
    """
    d = tokens.shape[-1]
    dh = d // heads
    q = ad.matmul(tokens, wq)
    k = ad.matmul(tokens, wk)
    v = ad.matmul(tokens, wv)
    outs, atts = [], []
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        scores = ad.scale(
            ad.matmul(ad.slice_last(q, lo, hi),
                      ad.transpose(ad.slice_last(k, lo, hi))),
            1.0 / np.sqrt(dh))
        att = ad.row_softmax(scores)
        atts.append(att)
        outs.append(ad.matmul(att, ad.slice_last(v, lo, hi)))
    return ad.matmul(ad.concat(outs, axis=-1), wo), atts


def oracle_head_diversity(atts):
    """Minus the mean over head pairs of (kl_mean(i, j) + kl_mean(j, i)) / 2."""
    if len(atts) < 2:
        return ad.constant(np.zeros((), dtype=atts[0].data.dtype))
    pairs = list(combinations(range(len(atts)), 2))
    acc = None
    for i, j in pairs:
        sym = ad.scale(ad.add(ad.kl_mean(atts[i], atts[j]),
                              ad.kl_mean(atts[j], atts[i])), 0.5)
        acc = sym if acc is None else ad.add(acc, sym)
    return ad.scale(acc, -1.0 / len(pairs))


def _take_rows_taped(a, rows):
    """a[rows] along the first axis, recorded on the tape."""
    def vjp(g):
        out = np.zeros_like(a.data)
        out[rows] = g
        return (out,)

    return ad._emit(a.data[rows], (a,), vjp)


def oracle_train_history(graph: HeteroGraph, cache, config) -> list[EpochRow]:
    """ahgnn.train.train's epoch loop, with every forward over all rows.

    Same initialisation, objective, optimiser and early stopping.  The
    taped step forwards every target node, takes cross entropy on the
    train mask and both diversity regularizers on the train rows of the
    attention maps; the per-epoch metrics come from a second forward
    over every target node.
    """
    dtype = config.dtype
    work = cache.astype(dtype)
    params = init_model_params(work, config.hidden, config.heads, config.alpha,
                               np.random.default_rng(config.seed), dtype=dtype,
                               fix_gamma=config.fix_gamma_uniform)
    named = params.tensors
    opt = Adam(lr=config.lr, weight_decay=config.weight_decay)
    labels = graph.labels
    train_mask = graph.train_mask & (labels >= 0)
    val_mask = graph.val_mask & (labels >= 0)
    train_rows = np.flatnonzero(train_mask)
    history = []
    best_val = -1.0
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        for t in named.values():
            t.grad = None
        with ad.Tape() as tape:
            out = model_forward(work, params)
            out = replace(
                out,
                coarse_attention=_take_rows_taped(out.coarse_attention,
                                                  train_rows),
                fine_attention=_take_rows_taped(out.fine_attention,
                                                train_rows))
            loss, _ = training_loss(out, labels, train_mask,
                                    config.lambda1, config.lambda2)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            break
        tape.backward(loss)
        opt.step(named)
        logits = model_forward(work, params).logits.data
        m = evaluate(logits, labels, val_mask)
        m_train = evaluate(logits, labels, train_mask)
        history.append(EpochRow(epoch=epoch, loss=loss_val,
                                train_micro=m_train.micro_f1,
                                val_macro=m.macro_f1, val_micro=m.micro_f1))
        if m.micro_f1 > best_val:
            best_val = m.micro_f1
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.patience:
                break
    return history


def oracle_init_params(cache, hidden: int, alpha: float, rng, dtype,
                       fix_gamma: bool, num_classes: int):
    """ahgnn.model.init_model_params' table as (name, array, trainable) rows.

    Names come from the cache's per-path hop lists, not from
    `token_layout`.  Rows: the hop weights of every feature path, then
    every label path, each sorted; each projection's `.w`/`.b` at the
    first path that reads it; `coarse.`/`fine.` `wq wk wv wo`; `gate`;
    `cls.w`/`cls.b`.  Glorot weights are drawn from rng in that order.
    """
    feats, labs = cache.feature_entries, cache.label_entries
    paths = [(f"gamma.{key}", feats[key],
              ["fproj." + "-".join(key.split("-")[: l + 1])
               for l in range(len(feats[key]))]) for key in sorted(feats)]
    paths += [(f"lgamma.{key}", labs[key],
               [f"lproj.{key}.{h}"
                for h in label_hop_indices(key, cache.target_type)])
              for key in sorted(labs)]
    rows = []
    for name, hops, _ in paths:
        n = len(hops)
        g = np.ones(n) if fix_gamma else np.array(
            [alpha * (1.0 - alpha) ** l for l in range(n - 1)]
            + [(1.0 - alpha) ** (n - 1)])
        rows.append((name, g.astype(dtype), not fix_gamma))

    def glorot(name, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        rows.append((name, w.astype(dtype), True))

    drawn = set()
    for _, hops, projections in paths:
        for hop, proj in zip(hops, projections, strict=True):
            if proj not in drawn:
                drawn.add(proj)
                glorot(f"{proj}.w", hop.shape[1], hidden)
                rows.append((f"{proj}.b", np.zeros(hidden, dtype=dtype), True))
    for side in ("coarse", "fine"):
        for nm in ("wq", "wk", "wv", "wo"):
            glorot(f"{side}.{nm}", hidden, hidden)
    rows.append(("gate", np.zeros((), dtype=dtype), True))
    glorot("cls.w", hidden, num_classes)
    rows.append(("cls.b", np.zeros(num_classes, dtype=dtype), True))
    return rows


def oracle_path_embeddings(cache, params):
    """ahgnn.model.path_embeddings projecting hop by hop, path by path.

    Reads the per-path hop lists (`feature_entries`, `label_entries`), so
    a prefix shared by k paths is projected k times.
    """
    target = cache.target_type
    p = params.tensors

    def mixed(hops, names, g):
        acc = None
        for j, (s, name) in enumerate(zip(hops, names)):
            proj = ad.add(ad.matmul(ad.constant(s), p[f"{name}.w"]),
                          p[f"{name}.b"])
            term = ad.mul(proj, ad.index1d(g, j))
            acc = term if acc is None else ad.add(acc, term)
        return acc

    keys, embs = [], []
    feats = cache.feature_entries
    for key in sorted(feats):
        types = key.split("-")
        names = ["fproj." + "-".join(types[: l + 1]) for l in range(len(types))]
        keys.append(key)
        embs.append(mixed(feats[key], names, p[f"gamma.{key}"]))
    labs = cache.label_entries
    for key in sorted(labs):
        names = [f"lproj.{key}.{hop}" for hop in label_hop_indices(key, target)]
        keys.append(f"{key}:label")
        embs.append(mixed(labs[key], names, p[f"lgamma.{key}"]))
    return keys, embs


def oracle_messages(steps: PathProducts, paths,
                    operands: dict) -> dict[str, np.ndarray]:
    """ahgnn.propagate._messages through walk products, left to right.

    Forms each path's normalized walk product Â_P with sparse-sparse
    products over a fresh `PathProducts` of `steps`' graph, then one
    spmm with the operand of the path's last type; a zero-step path
    copies it.
    """
    products = PathProducts(steps.graph, normalized=True)
    out = {}
    for p in paths:
        x = operands[p.types[-1]]
        out[p.key] = spmm(products.matrix(p.types), x) if p.steps else x.copy()
    return out


def write_cache_v1(cache, path) -> None:
    """Write `cache` in the version-1 layout: a hop count, then every hop."""
    with open(Path(path), "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<IQII", 1, cache.fingerprint, cache.l1, cache.l2))
        feats, labs = cache.feature_entries, cache.label_entries
        f.write(struct.pack("<I", len(feats) + len(labs)))
        for kind, entries in ((0, feats), (1, labs)):
            for key in sorted(entries):
                kb = key.encode()
                f.write(struct.pack("<BI", kind, len(kb)) + kb)
                f.write(struct.pack("<I", len(entries[key])))
                for h in entries[key]:
                    arr = np.ascontiguousarray(h, dtype="<f8")
                    f.write(struct.pack("<II", *arr.shape) + arr.tobytes())


def npy_record(array, allow_pickle: bool = False) -> bytes:
    """`array` as one .npy format 1.0 record."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(array), version=(1, 0),
                              allow_pickle=allow_pickle)
    return buf.getvalue()


def npy_header(descr: str, shape: tuple) -> bytes:
    """A .npy format 1.0 header alone, declaring `descr` and `shape`."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": descr, "fortran_order": False, "shape": shape})
    return buf.getvalue()


def write_container(path, magic: bytes, version: int, meta,
                    records: list[bytes]) -> None:
    """The shared array container, byte by byte: magic, u32 version, u32
    meta length, the meta (JSON with sorted keys, or raw bytes as given),
    then each record as given."""
    head = meta if isinstance(meta, bytes) else \
        json.dumps(meta, sort_keys=True).encode()
    Path(path).write_bytes(magic + struct.pack("<II", version, len(head))
                           + head + b"".join(records))

"""Synthetic heterogeneous graphs with controllable label homophily.

generate_toy plants a class-pure target-to-hub wiring (graph-level
homophily starts at exactly 1) and then rewires edges until the measured
homophily reaches the requested value.  The rewirer itself is usable on
any graph: it resamples one endpoint of one existing edge at a time and
keeps only proposals that strictly shrink the gap to the target, so the
trajectory of accepted moves is monotone.

Cost model: generate_toy first refines its attachment rate with at most
seven wiring probes (one wiring plus one graph_homophily each) and stops
once bisection cannot move the rate, so a below-chance target, which
starts at the floor 1/c, pays for one probe.  The rewirer measures the
start graph once with graph_homophily, and builds nothing more when that
is within tolerance.  Otherwise, before its first draw, it builds an
exact incremental evaluator (metapath.IncrementalHomophily) that scores
each proposal instead of rebuilding the graph and its walk products; the
evaluator's step matrices are the only record of the edge multiplicities
(the relation weights, integers >= 1 by `HeteroGraph.validate`), beside
one list per relation of its distinct edges to draw from.  The evaluator
holds one dense float64 n_target x n_type walk-count matrix per meta-path
prefix, each the previous prefix's times a step relation, and no table
over target pairs (147 MiB at 1600 target nodes with 3 types, depth 4,
built in 0.2-0.3 s on a Xeon with 1 BLAS thread), and a proposal costs
a few vector-matrix products plus one sort per path over the area of
the rows and columns it touches; a draw costs O(1) apart from removing
an edge that loses its last copy from its list.  The rewired relations
become sparse once, at the end of a run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import HeteroGraph
from .metapath import IncrementalHomophily, graph_homophily
from .sparse import SparseMatrix


@dataclass
class ToySpec:
    n_target: int = 60
    n_aux: int = 30
    num_types: int = 2
    num_classes: int = 3
    homophily: float = 0.7
    feature_dim: int = 8
    signal: float = 1.0
    noise: float = 1.0
    edges_per_node: int = 4
    train_frac: float = 0.6
    val_frac: float = 0.2
    seed: int = 0
    homophily_depth: int = 4
    tolerance: float = 0.02
    max_rewire: int = 30000


@dataclass
class RewireSpec:
    target_h: float
    seed: int = 0
    max_iterations: int = 30000
    tolerance: float = 0.03
    depth: int = 4


@dataclass
class RewireResult:
    graph: HeteroGraph
    achieved: float
    target: float
    iterations: int
    accepted: int
    converged: bool
    proposals: int   # moves that reached a homophily evaluation
    trajectory: list[float] = field(default_factory=list)


def rewire_to_homophily(graph: HeteroGraph, spec: RewireSpec) -> RewireResult:
    """Drive graph-level homophily toward spec.target_h by endpoint moves.

    Only cross-type relations incident to the target type are touched;
    features, labels, splits, and all other relations are preserved.
    Proposals that would duplicate an existing edge are skipped, and a
    move is accepted only when it strictly shrinks |h - target|, so the
    recorded trajectory is monotone.  Stops once within spec.tolerance
    or after max_iterations draws (converged=False on the result).
    `iterations` counts every draw, `proposals` only the moves that were
    scored, so draws skipped as duplicates show as the difference.
    The (b, target) relation of a rewired graph is the transpose of its
    (target, b) one.
    """
    if not 0.0 <= spec.target_h <= 1.0:
        raise ValueError("target homophily must lie in [0, 1]")
    t = graph.target_type
    rewirable = sorted(b for (a, b) in graph.relations if a == t and b != t)
    if not rewirable:
        raise ValueError("no cross-type relation touches the target type")

    h = graph_homophily(graph, spec.depth)
    gap = abs(h - spec.target_h)
    trajectory = [h]
    rng = np.random.default_rng(spec.seed)
    evaluator = None
    edges: dict[str, list[tuple[int, int]]] = {}
    if gap > spec.tolerance:
        # evaluator.steps[(t, b)] is the only record of each edge's
        # multiplicity; edges[b] lists the distinct edges in the order the
        # draws index them: row-major at the start, an edge that loses its
        # last copy removed, a new edge appended, a last copy whose move
        # is rejected sent to the back.  That is the key order of an edge
        # Counter moved the same way, so the draws, and every dataset
        # generated from them, match those of a Counter-keeping rewirer
        # such as the full-recompute oracle in the tests.
        evaluator = IncrementalHomophily(graph, spec.depth, rewirable)
        for b in rewirable:
            r, c = graph.relations[(t, b)].coords()
            edges[b] = list(zip(r.tolist(), c.tolist()))
    proposals = 0
    accepted = 0
    it = 0
    for it in range(1, spec.max_iterations + 1):
        if gap <= spec.tolerance:
            break
        b = rewirable[rng.integers(0, len(rewirable))]
        instances = edges[b]
        if not instances:
            continue
        k = int(rng.integers(0, len(instances)))
        old = instances[k]
        side = int(rng.integers(0, 2))
        if side == 0:
            new = (int(rng.integers(0, graph.n(t))), old[1])
        else:
            new = (old[0], int(rng.integers(0, graph.n(b))))
        step = evaluator.steps[(t, b)]
        if new == old or step[new] > 0:
            continue
        last_copy = step[old] == 1
        if last_copy:
            del instances[k]
        proposals += 1
        # None: the proposal would empty every qualifying path
        h_new = evaluator.propose(b, old, new)
        if h_new is not None and abs(h_new - spec.target_h) < gap:
            evaluator.accept()
            h, gap = h_new, abs(h_new - spec.target_h)
            trajectory.append(h)
            accepted += 1
            instances.append(new)
        elif last_copy:
            instances.append(old)
    moved = {} if evaluator is None else {
        pair: SparseMatrix.from_dense(evaluator.steps[pair])
        for b in rewirable for pair in ((t, b), (b, t))}
    return RewireResult(graph=replace(graph, relations={**graph.relations,
                                                        **moved}),
                        achieved=h, target=spec.target_h,
                        iterations=it, accepted=accepted,
                        converged=gap <= spec.tolerance,
                        proposals=proposals, trajectory=trajectory)


def _attachment_rate(h: float, c: int) -> float:
    """Per-edge probability of picking an own-class hub.

    With class-pure hubs and independent edges at own-class rate q, a
    2-step walk joins same-class endpoints with probability about
    h2 = q^2 + (1-q)^2/(c-1), minimized at chance level 1/c when
    q = 1/c; a 4-step walk composes the same mixing once more.  The
    measured depth-4 ratio averages the two, so q is found by bisecting
    that composite.  This puts the initial wiring close to the
    requested h and the rewirer only has to close a small residual;
    below-chance targets start at chance, the closest point independent
    wiring can reach.
    """
    if c == 1 or h >= 1.0:
        return 1.0

    def mixing(q: float) -> float:
        h2 = q * q + (1.0 - q) ** 2 / (c - 1)
        h4 = h2 * h2 + (1.0 - h2) ** 2 / (c - 1)
        return 0.5 * (h2 + h4)

    lo, hi = 1.0 / c, 1.0
    if h <= mixing(lo):
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mixing(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_toy(spec: ToySpec) -> HeteroGraph:
    """Small labeled graph with planted class structure at a chosen homophily.

    Target type "A" connects to hub types ("B", and "C" for three-type
    schemas); every node carries Gaussian features around its class
    mean.  Hubs are class-pure and wiring is seeded at roughly the
    requested homophily, then rewired until the measured graph-level
    ratio lands within spec.tolerance (skipped when only one class
    exists, where the ratio is 1 by definition).  A graph still off
    target after spec.max_rewire draws is returned with a RuntimeWarning.
    """
    if spec.num_types not in (2, 3):
        raise ValueError("num_types must be 2 or 3")
    if spec.num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    if spec.num_classes > spec.n_target:
        raise ValueError(f"cannot place {spec.num_classes} classes on "
                         f"{spec.n_target} target nodes")
    if spec.n_aux < spec.num_classes:
        raise ValueError(f"need at least one hub per class: n_aux "
                         f"{spec.n_aux} < num_classes {spec.num_classes}")
    if spec.edges_per_node < 1:
        raise ValueError("edges_per_node must be >= 1: a graph with no "
                         "cross-type edges has no meta-paths")
    if not 0.0 < spec.homophily <= 1.0:
        raise ValueError("homophily must lie in (0, 1]")
    if not (0 < spec.train_frac and 0 < spec.val_frac
            and spec.train_frac + spec.val_frac < 1):
        raise ValueError("split fractions must be positive and sum below 1")

    rng = np.random.default_rng(spec.seed)
    aux_types = ["B", "C"][: spec.num_types - 1]
    node_types = ["A"] + aux_types
    counts = {"A": spec.n_target, **{b: spec.n_aux for b in aux_types}}

    labels = rng.permutation(np.arange(spec.n_target) % spec.num_classes)
    hub_class = {b: np.arange(spec.n_aux) % spec.num_classes for b in aux_types}
    own_hubs = {b: [np.nonzero(hub_class[b] == y)[0]
                    for y in range(spec.num_classes)] for b in aux_types}
    k = min(spec.edges_per_node, spec.n_aux)

    def wire(q: float, wiring_rng) -> dict:
        relations = {}
        for b in aux_types:
            rows, cols = [], []
            for i in range(spec.n_target):
                own = own_hubs[b][labels[i]]
                chosen: set[int] = set()
                attempts = 0
                while len(chosen) < k and attempts < 50 * k:
                    attempts += 1
                    if wiring_rng.random() < q:
                        j = int(own[wiring_rng.integers(0, own.size)])
                    else:
                        j = int(wiring_rng.integers(0, spec.n_aux))
                    chosen.add(j)
                rows.extend([i] * len(chosen))
                cols.extend(sorted(chosen))
            relations[("A", b)] = SparseMatrix.from_coo(
                spec.n_target, spec.n_aux, rows, cols, np.ones(len(rows)))
        return relations

    def measured_h(relations: dict) -> float:
        probe = HeteroGraph.create(
            node_types, counts,
            {t: np.zeros((counts[t], 1)) for t in node_types},
            relations, "A", labels, spec.num_classes,
            np.zeros(spec.n_target, dtype=np.int8))
        return graph_homophily(probe, spec.homophily_depth)

    q = _attachment_rate(spec.homophily, spec.num_classes)
    if spec.num_classes > 1 and spec.homophily < 1.0:
        # the closed form ignores finite-size effects, so refine the
        # attachment rate against the measured ratio before rewiring;
        # probe draws come from derived streams to keep the main
        # stream's consumption independent of the probe count
        lo, hi = 1.0 / spec.num_classes, 1.0
        best_q, best_gap = q, float("inf")
        for it in range(7):
            probe_rng = np.random.default_rng([spec.seed, it])
            h_probe = measured_h(wire(q, probe_rng))
            gap = abs(h_probe - spec.homophily)
            if gap < best_gap:
                best_q, best_gap = q, gap
            if gap <= 0.5 * spec.tolerance:
                break
            if h_probe < spec.homophily:
                lo = q
            else:
                hi = q
            if 0.5 * (lo + hi) == q == best_q:
                # q cannot move (a below-chance target at lo = 1/c), so
                # the remaining probes could only re-measure best_q
                break
            q = 0.5 * (lo + hi)
        q = best_q
    relations = wire(q, rng)

    means = rng.normal(size=(spec.num_classes, spec.feature_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    features = {"A": spec.signal * means[labels]
                + spec.noise * rng.normal(size=(spec.n_target, spec.feature_dim))}
    for b in aux_types:
        features[b] = spec.signal * means[hub_class[b]] \
            + spec.noise * rng.normal(size=(spec.n_aux, spec.feature_dim))

    order = rng.permutation(spec.n_target)
    n_train = max(1, int(round(spec.train_frac * spec.n_target)))
    n_val = max(1, int(round(spec.val_frac * spec.n_target)))
    if n_train + n_val >= spec.n_target:
        raise ValueError("split fractions leave no test nodes")
    splits = np.empty(spec.n_target, dtype=np.int8)
    splits[order[:n_train]] = 0
    splits[order[n_train:n_train + n_val]] = 1
    splits[order[n_train + n_val:]] = 2

    g = HeteroGraph.create(node_types, counts, features, relations, "A",
                           labels, spec.num_classes, splits)
    if spec.num_classes == 1 or spec.homophily == 1.0:
        return g
    result = rewire_to_homophily(g, RewireSpec(
        target_h=spec.homophily, seed=spec.seed + 1,
        max_iterations=spec.max_rewire, tolerance=spec.tolerance,
        depth=spec.homophily_depth))
    if not result.converged:
        warnings.warn(f"generate_toy stopped off target: homophily "
                      f"{result.achieved:.4f}, target {spec.homophily} +/- "
                      f"{spec.tolerance}, after {result.iterations} draws",
                      RuntimeWarning, stacklevel=2)
    return result.graph

"""Walk through meta-path homophily analytics on two synthetic graphs.

Builds one homophilous and one heterophilous author-venue style graph,
then prints the per-meta-path homophily report that the `ahgnn analyze`
command writes as CSV: global same-class edge fractions, local per-node
histograms, and the depth-4 graph-level summary.
"""

import numpy as np

from ahgnn.metapath import build_homophily_report
from ahgnn.synth import ToySpec, generate_toy


def describe(tag: str, homophily: float) -> None:
    spec = ToySpec(n_target=120, n_aux=40, num_classes=3,
                   homophily=homophily, feature_dim=8,
                   edges_per_node=4, seed=7)
    graph = generate_toy(spec)
    report = build_homophily_report(graph, max_len=4)

    print(f"\n=== {tag} graph (requested h = {homophily}) ===")
    print(f"nodes: {graph.counts}, classes: {graph.num_classes}")
    print(f"graph-level homophily over paths up to length 4: "
          f"{report.graph_level:.3f}")
    print(f"{'meta-path':<14} {'global h':>9} {'edges':>8}   local histogram "
          f"(5 bins, 0 -> 1)")
    for row in report.paths:
        hist = np.array(row.histogram, dtype=float)
        share = hist / hist.sum() if hist.sum() else hist
        bars = " ".join(f"{s:.2f}" for s in share)
        g = "  n/a" if row.global_ratio is None else f"{row.global_ratio:.3f}"
        print(f"{row.key:<14} {g:>9} {row.n_edges:>8}   [{bars}]")


def main() -> None:
    print("Meta-path homophily: how often does a typed walk that starts and")
    print("ends on the labeled node type connect two same-class nodes?")
    describe("homophilous", 0.8)
    # seed 7 cannot reach 0.2: the rewirer spends its whole draw budget
    # and stops near 0.23, outside the tolerance
    describe("heterophilous", 0.25)
    print("\nThe same wiring that makes direct neighborhoods uninformative")
    print("(h near chance or below) also flattens the local histograms:")
    print("most nodes sit in mixed neighborhoods, which is exactly the")
    print("regime where fixed low-pass aggregation struggles.")


if __name__ == "__main__":
    main()

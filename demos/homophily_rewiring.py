"""Drive one graph to several homophily levels by seeded edge rewiring.

Starts from a moderately homophilous synthetic graph and retargets its
depth-4 homophily to a spread of levels.  Each accepted swap moves the
measured value monotonically toward the target, so the trajectory is a
clean descent/ascent; labels, features, splits, and the total edge
count never change.
"""

from ahgnn.metapath import graph_homophily
from ahgnn.synth import RewireSpec, ToySpec, generate_toy, rewire_to_homophily


def main() -> None:
    base = generate_toy(ToySpec(n_target=60, n_aux=30, num_classes=5,
                                homophily=0.7, seed=3))
    start = graph_homophily(base, 4)
    edges = base.relations[("A", "B")].nnz
    print(f"base graph: {base.counts}, {edges} cross-type edges, "
          f"depth-4 homophily {start:.3f}")

    print(f"\n{'target':>7} {'achieved':>9} {'swaps':>6} {'proposals':>10} "
          f"{'draws':>6}  trajectory (first accepted steps)")
    for k in (1, 3, 5, 8):
        target = round(0.1 * k, 1)
        r = rewire_to_homophily(base, RewireSpec(target_h=target, seed=1,
                                                 tolerance=0.02,
                                                 max_iterations=60000))
        recheck = graph_homophily(r.graph, 4)
        head = " -> ".join(f"{v:.3f}" for v in r.trajectory[:5])
        more = " ..." if len(r.trajectory) > 5 else ""
        print(f"{target:>7} {recheck:>9.3f} {r.accepted:>6} "
              f"{r.proposals:>10} {r.iterations:>6}  {head}{more}")
        assert r.graph.relations[("A", "B")].nnz == edges

    print("\nEvery rewired graph keeps the original node set, labels, and")
    print("edge budget, so test-time comparisons across homophily levels")
    print("measure the wiring effect and nothing else.")


if __name__ == "__main__":
    main()

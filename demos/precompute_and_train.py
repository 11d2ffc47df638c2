"""End-to-end pipeline: synthesize, precompute messages, train, inspect.

Mirrors what `ahgnn synth` + `ahgnn precompute` + `ahgnn train` do, but
through the library API so every intermediate object can be printed:
the per-path message cache, the learned per-hop weight profiles, and the
coarse path-influence weights of the fused model.
"""

import numpy as np

from ahgnn.model import beta_table, gamma_table, model_forward
from ahgnn.propagate import build_cache
from ahgnn.synth import ToySpec, generate_toy
from ahgnn.train import TrainConfig, train


def main() -> None:
    spec = ToySpec(n_target=90, n_aux=30, num_classes=3, homophily=0.7,
                   feature_dim=8, edges_per_node=4, seed=11)
    graph = generate_toy(spec)
    print(f"graph: {graph.counts}, target type {graph.target_type!r}, "
          f"{graph.num_classes} classes")

    cache = build_cache(graph, l1=2, l2=2)
    print(f"\nprecomputed message cache (fingerprint "
          f"{cache.fingerprint:#018x}):")
    # one stored message per path; hop l of a path is its prefix's message
    for kind, messages in (("feature", cache.feature_messages),
                           ("label  ", cache.label_messages)):
        for key, m in messages.items():
            print(f"  {kind} path {key:<8} message {m.shape}")

    cfg = TrainConfig(lr=1e-3, max_epochs=150, patience=150,
                      hidden=64, heads=4, seed=0)
    result = train(graph, cache, cfg)
    first, last = result.history[0], result.history[-1]
    print(f"\ntraining: epoch {first.epoch} loss {first.loss:.3f} -> "
          f"epoch {last.epoch} loss {last.loss:.3f}")
    print(f"best epoch {result.best_epoch}: "
          f"val micro-F1 {result.best_val_micro:.3f}, "
          f"test micro-F1 {result.test.micro_f1:.3f} / "
          f"macro-F1 {result.test.macro_f1:.3f}")

    print("\nlearned per-hop weights (hop 0 = the node itself):")
    for key, hop, value in gamma_table(cache, result.params):
        print(f"  {key:<14} hop {hop}: {value:+.4f}")

    out = model_forward(cache.astype(np.float32), result.params)
    print("\nmean path-influence weights from the coarse attention pass:")
    for key, value in beta_table(out):
        print(f"  {key:<14} {value:.4f}")


if __name__ == "__main__":
    main()

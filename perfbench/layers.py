"""Which program attributes the traced run wraps, and the per-layer figures.

Layers are the ``ahgnn`` modules on the synth -> train -> eval path:
graph, sparse, metapath, propagate, autodiff, model, train, synth, cli.
``spectral`` is left out: it is an off-path verification tool.
"""

from __future__ import annotations

import importlib
import statistics
import time

from tracer import Stats, Tracer

FORWARDS = ("model.forward_taped", "model.forward_eval")


def install(tracer: Tracer) -> None:
    """Wrap every traced program attribute with a span."""
    autodiff = importlib.import_module("ahgnn.autodiff")

    def forward_name(args):
        # a tape is recording exactly when training takes gradients
        return FORWARDS[0] if autodiff._TAPE_STACK else FORWARDS[1]

    def attention_name(args):
        # model_forward runs the coarse round first, then the fine round
        fwd = tracer.enclosing(*FORWARDS)
        if fwd is None:
            return "model.attention"
        n = fwd.info.get("attention", 0)
        fwd.info["attention"] = n + 1
        return "model.attention.coarse" if n == 0 else "model.attention.fine"

    def rewire_exit(span, args, result):
        span.info.update(accepted=result.accepted, converged=result.converged)

    def backward_exit(span, args, result):
        span.info["records"] = len(args[0].records)

    def adam_exit(span, args, result):
        span.info["rejected"] = result is False

    def dispatch_exit(span, args, result):
        span.info.update(command=args[0][0] if args[0] else "", code=result)

    wraps = [
        ("ahgnn.cli.dispatch", "cli.dispatch", dispatch_exit),
        ("ahgnn.synth.generate_toy", "synth.generate", None),
        ("ahgnn.synth.rewire_to_homophily", "synth.rewire", rewire_exit),
        ("ahgnn.metapath.graph_homophily", "metapath.graph_homophily", None),
        ("ahgnn.metapath.build_homophily_report",
         "metapath.build_homophily_report", None),
        ("ahgnn.sparse.spspmm", "sparse.spspmm", None),
        ("ahgnn.sparse.spmm", "sparse.spmm", None),
        ("ahgnn.graph.load_dataset", "graph.load_dataset", None),
        ("ahgnn.graph.save_dataset", "graph.save_dataset", None),
        ("ahgnn.propagate.build_cache", "propagate.build_cache", None),
        ("ahgnn.propagate.write_cache", "propagate.write_cache", None),
        ("ahgnn.propagate.read_cache", "propagate.read_cache", None),
        ("ahgnn.model.model_forward", forward_name, None),
        ("ahgnn.model.path_embeddings", "model.path_embeddings", None),
        ("ahgnn.model.multi_head_attention", attention_name, None),
        ("ahgnn.model.restore_model_params", "model.restore_model_params", None),
        ("ahgnn.train.training_loss", "train.loss", None),
        ("ahgnn.train.evaluate", "train.evaluate", None),
        ("ahgnn.train.Adam.step", "train.adam", adam_exit),
        ("ahgnn.autodiff.Tape.backward", "autodiff.backward", backward_exit),
    ]
    for target, name, on_exit in wraps:
        tracer.wrap(target, name, on_exit)


def cache_shape(path) -> dict:
    """Stored feature hops vs the distinct type prefixes they are products of.

    Hop l of feature path P is the walk product of the prefix P[:l+1],
    so the stored hops hold only as many distinct messages as there are
    distinct prefixes.
    """
    cache = importlib.import_module("ahgnn.propagate").read_cache(path)
    stored = 0
    prefixes = set()
    for key, hops in cache.feature_entries.items():
        types = key.split("-")
        stored += len(hops)
        prefixes.update(tuple(types[: l + 1]) for l in range(len(hops)))
    return {"propagate.stored_hops": stored,
            "propagate.unique_prefixes": len(prefixes),
            "propagate.hop_reuse_ratio": len(prefixes) / stored}


def build_cache_ms(graph, l1: int, l2: int, threads: int, reps: int = 3) -> float:
    propagate = importlib.import_module("ahgnn.propagate")
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        propagate.build_cache(graph, l1, l2, threads=threads)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


COUNTED = {
    "metapath.graph_homophily": None,
    "sparse.spspmm": None,
    "sparse.spmm": None,
    "autodiff.backward": lambda s: s.info["records"],
    "train.adam": lambda s: int(s.info["rejected"]),
}


def count_mismatches(stats: Stats, unit_inputs: dict[str, int]) -> list[str]:
    """Counts that differ between units run on the same input.

    `unit_inputs` maps each unit (``setup-<r>``, ``op-<k>``) to the data
    seed it worked on; set-ups and operations run different stages, so
    each is compared only with its own kind.
    """
    out = []
    for name, value in COUNTED.items():
        units = stats.per_unit(name, value)
        groups: dict[tuple, list[str]] = {}
        for u, dseed in unit_inputs.items():
            groups.setdefault((u.split("-")[0], dseed), []).append(u)
        for group in groups.values():
            if len({units.get(u, 0) for u in group}) > 1:
                out.append(f"count of {name} differs between repetitions of "
                           f"one input: " + ", ".join(f"{u}={units.get(u, 0)}"
                                                      for u in group))
    return out


def metrics(stats: Stats) -> dict[str, float]:
    """Per-layer figures from the traced spans (times are ms per call)."""
    out: dict[str, float] = {}
    for name in ("metapath.graph_homophily", "metapath.build_homophily_report",
                 "sparse.spspmm", "sparse.spmm", "graph.load_dataset",
                 "graph.save_dataset", "propagate.build_cache",
                 "propagate.write_cache", "propagate.read_cache",
                 "model.forward_taped", "model.forward_eval",
                 "model.path_embeddings", "model.attention.coarse",
                 "model.attention.fine", "model.restore_model_params",
                 "train.loss", "train.adam", "train.evaluate",
                 "autodiff.backward", "synth.rewire"):
        out[f"{name}.ms"] = stats.ms(name)
    for name in ("metapath.graph_homophily", "sparse.spspmm", "sparse.spmm"):
        out[f"{name}.calls"] = stats.calls(name)

    rewire = stats.first("synth.rewire")
    # every evaluated proposal costs one graph_homophily; one more call
    # measures the starting graph
    proposals = len(stats.child_spans(rewire, "metapath.graph_homophily")) - 1
    accepted = rewire.info["accepted"]
    out["synth.rewire.proposals"] = proposals
    out["synth.rewire.accepted"] = accepted
    out["synth.rewire.accept_ratio"] = accepted / proposals if proposals else 0.0
    out["synth.rewire.self_ms"] = stats.self_ms("synth.rewire")
    out["synth.probe.ms"] = stats.self_ms("synth.generate", child="synth.rewire")

    out["autodiff.tape_records"] = stats.first("autodiff.backward").info["records"]
    out["train.rejected_steps"] = sum(
        1 for s in stats.first_unit("train.adam") if s.info["rejected"])
    out["cli.self_ms"] = stats.self_ms("cli.dispatch")
    return out

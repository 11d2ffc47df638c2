"""The program attributes the benchmark in perfbench/ reaches into.

perfbench wraps named functions and methods of the package (layers.py,
measure.py), times `build_cache` with a `threads` argument, reads the
per-path views of a message cache, checks a saved checkpoint's chunked
logits (workloads.py), and reads its per-layer metrics off the spans of
a traced run.  These tests run that code against the package, so a
change that deletes, renames or stops calling one of them fails here,
not in a benchmark run.
"""

import importlib

import numpy as np
import pytest

from ahgnn.model import (init_model_params, load_checkpoint, model_forward,
                         predict_logits, restore_model_params, save_checkpoint)
from ahgnn.propagate import build_cache, read_cache, write_cache
from ahgnn.synth import ToySpec, generate_toy
from ahgnn.train import TrainConfig
from conftest import REPO_ROOT

# measure.py observes these in every run, traced or not
OBSERVED = ("ahgnn.synth.rewire_to_homophily", "ahgnn.train.Adam.step")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's `layers` and `checks` modules, imported as run.py does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO_ROOT / "perfbench"))
        yield (importlib.import_module("layers"),
               importlib.import_module("checks"))


def resolve(target: str):
    """'pkg.mod.attr' or 'pkg.mod.Class.attr' -> the attribute."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(f"cannot resolve {target!r}")


class RecordingTracer:
    """Stands in for perfbench's Tracer: records what `install` wraps."""

    def __init__(self):
        self.targets = []

    def wrap(self, target, name, on_exit=None):
        self.targets.append(target)


def test_every_wrapped_and_observed_target_resolves(perfbench):
    layers, _ = perfbench
    tracer = RecordingTracer()
    layers.install(tracer)
    assert tracer.targets
    for target in tracer.targets + list(OBSERVED):
        assert target.startswith("ahgnn."), target
        assert callable(resolve(target)), target


def test_cache_hooks_run(perfbench, tmp_path):
    layers, checks = perfbench
    g = generate_toy(ToySpec(n_target=20, n_aux=10, num_classes=2,
                             homophily=1.0, feature_dim=3, edges_per_node=2))
    assert layers.build_cache_ms(g, 2, 2, threads=2, reps=1) > 0
    built = build_cache(g, 2, 2, threads=2)
    write_cache(built, tmp_path / "c.ahgc")
    shape = layers.cache_shape(tmp_path / "c.ahgc")
    assert shape["propagate.stored_hops"] >= shape["propagate.unique_prefixes"] > 0
    assert checks.check_cache(read_cache(tmp_path / "c.ahgc"), built) is None


def test_checkpoint_chunked_check_runs(perfbench, tmp_path):
    # scale_pipeline's eval check, on a checkpoint save_checkpoint wrote:
    # load it, restore it against the cache file, then compare full and
    # row-chunked logits
    _, checks = perfbench
    g = generate_toy(ToySpec(n_target=20, n_aux=10, num_classes=2,
                             homophily=1.0, feature_dim=3, edges_per_node=2))
    write_cache(build_cache(g, 2, 2), tmp_path / "c.ahgc")
    config = TrainConfig(hidden=8, heads=2, l1=2, l2=2).to_dict()
    trained = init_model_params(read_cache(tmp_path / "c.ahgc"), hidden=8,
                                heads=2, alpha=0.25,
                                rng=np.random.default_rng(1))
    save_checkpoint(trained, config, tmp_path / "m.ahgm")
    config, arrays = load_checkpoint(tmp_path / "m.ahgm")
    cache = read_cache(tmp_path / "c.ahgc").astype(np.float32)
    params = restore_model_params(arrays, cache, config, dtype=np.float32)
    full = model_forward(cache, params).logits.data
    chunked = predict_logits(cache, params, batch_size=cache.n_target // 3 + 1)
    assert checks.check_chunked(full, chunked) is None


def test_a_traced_pipeline_reaches_every_span_the_metrics_read(perfbench,
                                                              tmp_path):
    # Stats.ms and Stats.first raise KeyError for a wrapped function that
    # is never called, so a pipeline that stops calling one fails here
    layers, _ = perfbench
    tracing = importlib.import_module("tracer")
    tracer = tracing.Tracer()
    layers.install(tracer)
    tracer.op = "op-0"
    data, cache, out = tmp_path / "data", tmp_path / "c.ahgc", tmp_path / "out"
    try:
        # called through the module attributes the tracer rebinds
        synth = importlib.import_module("ahgnn.synth")
        graph = importlib.import_module("ahgnn.graph")
        cli = importlib.import_module("ahgnn.cli")
        g = synth.generate_toy(ToySpec(n_target=40, homophily=0.3,
                                       tolerance=0.05))
        graph.save_dataset(g, data)
        for argv in (
                ["analyze", "--data", str(data), "--out", str(out)],
                ["precompute", "--data", str(data), "--out", str(cache)],
                ["train", "--data", str(data), "--cache", str(cache),
                 "--out", str(out), "--epochs", "3"],
                ["eval", "--data", str(data), "--checkpoint",
                 str(out / "model.ahgm"), "--cache", str(cache),
                 "--out", str(out)]):
            assert cli.dispatch(argv) == 0, argv
        assert layers.metrics(tracing.Stats(tracer.spans))
    finally:
        tracer.uninstall()

"""The program attributes the benchmark in perfbench/ reaches into.

perfbench wraps named functions and methods of the package (layers.py,
measure.py), times `build_cache` with a `threads` argument and reads the
per-path views of a message cache.  These tests run that code against the
package, so a change that deletes or renames one of them fails here, not
in a benchmark run.
"""

import importlib

import pytest

from ahgnn.propagate import build_cache, read_cache, write_cache
from ahgnn.synth import ToySpec, generate_toy
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

"""The benchmark's workloads and the pipeline stages they share.

Every workload pushes synthetic datasets through the same five stages a
user runs: ``synth`` (``generate_toy``), ``analyze``, ``precompute``,
``train`` and ``eval``.  ``analyze``, ``precompute`` and ``eval`` go
through the in-process CLI (``ahgnn.cli.dispatch``); ``synth`` and
``train`` call the library, whose results the CLI would only print.
Workloads differ in their inputs and in which stages run in set-up and
which in the timed loop.  All loops are closed with one client: each
operation starts when the previous one has returned.

The program is always called through its module attributes, looked up
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (check_cache, check_chunked, check_report, check_same,
                    check_synth, check_training)

synth = importlib.import_module("ahgnn.synth")
metapath = importlib.import_module("ahgnn.metapath")
graph = importlib.import_module("ahgnn.graph")
propagate = importlib.import_module("ahgnn.propagate")
model = importlib.import_module("ahgnn.model")
training = importlib.import_module("ahgnn.train")
cli = importlib.import_module("ahgnn.cli")

STAGES = ("synth", "analyze", "precompute", "train", "eval")
CLI_ROUND = ("analyze", "precompute", "eval")
HOMOPHILY_DEPTH = 4

# the heterophily-gate fixture of tests/test_acceptance.py
GATE = dict(n_target=300, n_aux=75, num_classes=4, feature_dim=8, signal=1.0,
            noise=1.2, edges_per_node=4, train_frac=0.15, val_frac=0.15,
            tolerance=0.03)
GATE_TRAIN = dict(hidden=32, heads=4, alpha=0.25, lr=1e-3, precision="f32")
# the scaling fixture of ROADMAP item 1; at the default tolerance (0.02)
# the number of wiring probes, and so generate_toy's time, swings 2.5x
# from seed to seed, so synth_s would measure the seed, not the program
SCALE = dict(n_target=1600, n_aux=400, num_types=3, num_classes=3,
             feature_dim=64, tolerance=0.05)
# warms every code path in each set-up repetition
TINY = dict(n_target=40, n_aux=12, num_classes=3, feature_dim=4,
            edges_per_node=3, train_frac=0.4, val_frac=0.2, tolerance=0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict           # ToySpec fields other than homophily and seed
    homophily: float
    l1: int
    l2: int
    train: dict          # TrainConfig fields other than l1/l2/seed/epochs
    epochs: int          # fixed budget; patience = budget, so all run
    setup: tuple         # stages of one set-up repetition
    op: tuple            # stages of one timed operation
    setup_reps: int      # set-up repetitions; setup_s is their median
    setup_datasets: int  # set-up repetition r makes dataset r mod this
    op_datasets: int     # operation k works on dataset k mod this
    min_ops: int         # > op_datasets, so that one input repeats
    cli_rounds: int      # extra rounds of CLI_ROUND that end an operation

    @property
    def op_stages(self) -> tuple:
        return self.op + CLI_ROUND * self.cli_rounds


# why each workload exists is stated in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload(
        name="synth_hetero",
        spec=GATE, homophily=0.2, l1=4, l2=2, train=GATE_TRAIN, epochs=60,
        setup=(), op=STAGES, setup_reps=15, setup_datasets=1, op_datasets=1,
        min_ops=2, cli_rounds=10),
    Workload(
        name="train_gate",
        spec=GATE, homophily=0.5, l1=4, l2=2, train=GATE_TRAIN, epochs=200,
        setup=("synth",), op=STAGES[1:], setup_reps=30, setup_datasets=10,
        op_datasets=3, min_ops=4, cli_rounds=4),
    Workload(
        name="scale_pipeline",
        spec=SCALE, homophily=0.7, l1=3, l2=2,
        train=dict(hidden=64, heads=4, alpha=0.25, lr=1e-2, precision="f32"),
        epochs=4, setup=("synth", "precompute", "train"),
        op=CLI_ROUND, setup_reps=3, setup_datasets=3, op_datasets=1,
        min_ops=2, cli_rounds=0),
)}

# the warm-up graph is the same in every run, so that set-up does the
# same work whatever the seed (its rewiring effort varies 3x by seed)
TINY_SEED = 0
TINY_WORKLOAD = Workload(
    name="warmup", spec=TINY, homophily=0.6, l1=2, l2=2,
    train=dict(hidden=8, heads=2, alpha=0.25, lr=1e-3, precision="f32"),
    epochs=2, setup=(), op=STAGES, setup_reps=1, setup_datasets=1,
    op_datasets=1, min_ops=1, cli_rounds=0)


class Pipeline:
    """Datasets of one workload pushed through the stages, with checks.

    Stage timings cover only the program call; the checks run outside
    them, with tracing suspended, and their time is kept apart so that
    set-up and operation walls exclude it.  Samples are filed under the
    unit (``setup-<r>``, ``op-<k>``, ...) that the caller sets in
    ``unit``.  Each data seed has its own files and its own references,
    so repetitions of one input are compared with each other.
    """

    def __init__(self, wl: Workload, workdir: Path, tracer, rewires: list,
                 steps: list):
        self.wl = wl
        self.tracer = tracer
        self.workdir = workdir
        self.unit = "none"
        # kind -> unit -> samples; kinds are the stage names (seconds per
        # call) and "epoch_ms" (one sample per epoch)
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.inputs: dict[str, int] = {}   # unit -> data seed, set by the caller
        self.f1: dict[int, float] = {}   # data seed -> test micro-F1
        self.errors: list[str] = []
        self.check_s = 0.0
        self.rewires = rewires   # every RewireResult the program returned
        self.steps = steps       # perf_counter() at every Adam.step return
        self._refs: dict[int, dict] = {}
        self._seed = None

    # --------------------------------------------------------- helpers

    @contextlib.contextmanager
    def checking(self):
        t0 = time.perf_counter()
        try:
            with self.tracer.suspended():
                yield
        finally:
            self.check_s += time.perf_counter() - t0

    def _fail(self, msg: str | None) -> None:
        if msg:
            self.errors.append(msg)

    def record(self, kind: str, value: float) -> None:
        self.samples.setdefault(kind, {}).setdefault(self.unit, []).append(value)

    def _ref(self) -> dict:
        return self._refs.setdefault(self._seed, {})

    def _same(self, name: str, value) -> None:
        ref = self._ref()
        if name in ref:
            self._fail(check_same(name, ref[name], value))
        else:
            ref[name] = value

    def argv(self, stage: str) -> list[str]:
        """Arguments of the CLI command that runs `stage`."""
        return {
            "analyze": ["analyze", "--data", str(self.data),
                        "--depth", str(HOMOPHILY_DEPTH), "--out", str(self.out)],
            "precompute": ["precompute", "--data", str(self.data),
                           "--l1", str(self.wl.l1), "--l2", str(self.wl.l2),
                           "--out", str(self.cache)],
            "eval": ["eval", "--data", str(self.data),
                     "--checkpoint", str(self.ckpt), "--cache", str(self.cache),
                     "--split", "test", "--out", str(self.out)],
        }[stage]

    def _dispatch(self, stage: str) -> None:
        argv = self.argv(stage)
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.dispatch(argv)
        self.record(stage, time.perf_counter() - t0)
        if code != 0:
            self._fail(f"`ahgnn {argv[0]}` exited {code}: "
                       f"{sink.getvalue().strip()[-200:]}")

    def _loaded(self):
        ref = self._ref()
        if "graph" not in ref:
            ref["graph"] = graph.load_dataset(self.data)
        return ref["graph"]

    # ---------------------------------------------------------- stages

    def use(self, seed: int) -> None:
        """Point the stages at the files and references of data seed `seed`."""
        self._seed = seed
        d = self.workdir / f"seed-{seed}"
        self.data, self.out = d / "data", d / "out"
        self.cache, self.ckpt = d / "cache.ahgc", d / "model.ahgm"

    def run(self, stage: str, seed: int) -> None:
        self.use(seed)
        getattr(self, "_" + stage)(seed)

    def _synth(self, seed: int) -> None:
        spec = synth.ToySpec(homophily=self.wl.homophily, seed=seed, **self.wl.spec)
        n_seen = len(self.rewires)
        t0 = time.perf_counter()
        g = synth.generate_toy(spec)
        self.record("synth", time.perf_counter() - t0)
        graph.save_dataset(g, self.data)
        with self.checking():
            done = self.rewires[n_seen:]
            self._fail(check_synth(
                metapath.graph_homophily(g, HOMOPHILY_DEPTH), spec.homophily,
                spec.tolerance, done[-1].converged if done else None))
            digest = hashlib.sha256()
            for f in sorted(self.data.iterdir()):
                digest.update(f.name.encode() + f.read_bytes())
            self._same("dataset bytes", digest.hexdigest())

    def _analyze(self, seed: int) -> None:
        self._dispatch("analyze")
        with self.checking():
            ref = self._ref()
            if "h" not in ref:
                ref["h"] = metapath.graph_homophily(self._loaded(),
                                                    HOMOPHILY_DEPTH)
            self._fail(check_report(self.out / "homophily_report.csv", ref["h"]))

    def _precompute(self, seed: int) -> None:
        self._dispatch("precompute")
        with self.checking():
            ref = self._ref()
            if "built" not in ref:
                ref["built"] = propagate.build_cache(self._loaded(), self.wl.l1,
                                                     self.wl.l2)
            self._fail(check_cache(propagate.read_cache(self.cache),
                                   ref["built"]))
            self._same("cache bytes",
                       hashlib.sha256(self.cache.read_bytes()).hexdigest())

    def _train(self, seed: int) -> None:
        g = graph.load_dataset(self.data)
        cache = propagate.read_cache(self.cache, expect_fingerprint=g.fingerprint)
        cfg = training.TrainConfig(**self.wl.train, l1=self.wl.l1, l2=self.wl.l2,
                                   max_epochs=self.wl.epochs,
                                   patience=self.wl.epochs, seed=seed)
        self.steps.clear()
        result = training.train(g, cache, cfg)
        # one epoch of work lies between consecutive optimizer steps
        for dt in np.diff(self.steps):
            self.record("epoch_ms", 1e3 * float(dt))
        model.save_checkpoint(result.params, cfg.to_dict(), self.ckpt)
        with self.checking():
            self._fail(check_training([r.loss for r in result.history],
                                      result.rejected_epochs, result.diverged,
                                      len(result.history), self.wl.epochs))
            work = cache.astype(cfg.dtype)
            self._same("trained logits",
                       model.model_forward(work, result.params).logits.data)

    def _eval(self, seed: int) -> None:
        self._dispatch("eval")
        with self.checking():
            f1 = json.loads((self.out / "eval.json").read_text())["micro_f1"]
            self._same("test micro-F1", f1)
            self.f1[seed] = f1
            ref = self._ref()
            if "chunked" not in ref:
                ref["chunked"] = self._chunked_check()
            self._fail(ref["chunked"])

    def _chunked_check(self) -> str | None:
        config, arrays = model.load_checkpoint(self.ckpt)
        cache = propagate.read_cache(self.cache).astype(np.float32)
        params = model.restore_model_params(arrays, cache, config,
                                            dtype=np.float32)
        full = model.model_forward(cache, params).logits.data
        chunked = model.predict_logits(cache, params,
                                       batch_size=cache.n_target // 3 + 1)
        return check_chunked(full, chunked)

    # --------------------------------------------------------- figures

    def figure(self, kind: str) -> float:
        """Median over inputs of the median of each input's samples.

        The samples of one input repeat the same work; the median over
        inputs keeps one unusual dataset (one that needs rewiring) from
        setting the figure.  Samples come from the timed operations, or
        from the set-up repetitions when the stage runs only there
        (``synth`` on the workloads that generate in set-up).
        """
        units = self.samples.get(kind, {})
        phase = [u for u in units if u.startswith("op-")] or \
            [u for u in units if u.startswith("setup-")]
        by_input: dict[int, list[float]] = {}
        for u in phase:
            by_input.setdefault(self.inputs[u], []).extend(units[u])
        return statistics.median(statistics.median(v)
                                 for v in by_input.values())


def data_seed(seed: int, k: int) -> int:
    """Seed of dataset k of a run.

    Set-up repetitions make datasets 0 .. setup_datasets - 1 over and
    over; operations use datasets 0 .. op_datasets - 1.

    Dataset 0 of seed s is seed s * 1000, so seed 0 runs the seed-0 fixture.
    """
    return seed * 1000 + k

"""Command-line entry points.

Subcommands: analyze, precompute, train, eval, synth, verify-spectral,
grad-check.  Every run writes run.json (the resolved configuration and
seed) into its output directory.  Exit codes: 0 success, 1 validation
or input failure, 2 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import grad_check
from .graph import load_dataset, save_dataset
from .metapath import build_homophily_report, write_homophily_csv
from .model import (gamma_table, beta_table, init_gamma, init_model_params,
                    load_checkpoint, model_forward, restore_model_params,
                    save_checkpoint)
from .propagate import build_cache, read_cache, write_cache
from .spectral import (MAX_DENSE_NODES, random_connected_adjacency,
                       verify_lowpass)
from .synth import RewireSpec, ToySpec, generate_toy, rewire_to_homophily
from .train import (TrainConfig, evaluate_split, labeled_rows, train,
                    training_loss, write_beta_csv, write_gamma_csv,
                    write_metrics_csv, write_run_json)


# train's valued flags (argparse dests) -> the TrainConfig field each
# sets; a flag's default is its field's
TRAIN_FLAGS = {"lr": "lr", "weight_decay": "weight_decay",
               "epochs": "max_epochs", "hidden": "hidden", "l1": "l1",
               "l2": "l2", "alpha": "alpha", "lambda1": "lambda1",
               "lambda2": "lambda2", "heads": "heads", "patience": "patience",
               "seed": "seed", "precision": "precision"}
# synth's flags that set the ToySpec field of the same name and default
TOY_FLAGS = ("homophily", "n_target", "n_aux", "num_types", "num_classes",
             "feature_dim", "edges_per_node", "seed")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved for runtime failures here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def default_cache_path(data_dir: Path) -> Path:
    base = os.environ.get("AHGNN_CACHE_DIR")
    if base:
        d = Path(base)
        d.mkdir(parents=True, exist_ok=True)
        return d / f"{data_dir.resolve().name}.ahgc"
    return data_dir / "cache.ahgc"


def _outdir(args) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_config(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "handler"}
    for k, v in cfg.items():
        if isinstance(v, Path):
            cfg[k] = str(v)
    return cfg


def _cmd_analyze(args) -> int:
    if args.depth < 2:
        raise ValueError(f"--depth must be at least 2 (the shortest "
                         f"target-to-target meta-path), got {args.depth}")
    g = load_dataset(args.data)
    report = build_homophily_report(g, max_len=args.depth)
    out = _outdir(args)
    write_homophily_csv(report, out / "homophily_report.csv")
    write_run_json(_run_config(args), out / "run.json")
    for p in report.paths:
        h = "no-edges" if p.global_ratio is None else f"{p.global_ratio:.4f}"
        print(f"{p.key}: h={h} edges={p.n_edges}")
    print(f"graph-level homophily (depth {args.depth}): "
          f"{report.graph_level:.4f}")
    return 0


def _cmd_precompute(args) -> int:
    g = load_dataset(args.data)
    cache = build_cache(g, args.l1, args.l2)
    out = Path(args.out) if args.out else default_cache_path(Path(args.data))
    out.parent.mkdir(parents=True, exist_ok=True)
    write_cache(cache, out)
    write_run_json(_run_config(args), out.parent / "run.json")
    n_f, n_l = len(cache.feature_messages), len(cache.label_messages)
    print(f"wrote {out} ({n_f} feature paths, {n_l} label paths: "
          f"{n_f + n_l} stored matrices)")
    return 0


def _load_or_build_cache(g, data, cache, l1: int, l2: int):
    """Read `cache`, or the default cache path of the dataset directory
    `data`; only the default may be absent, and is then built."""
    if cache:
        cpath = Path(cache)
        if not cpath.is_file():
            raise ValueError(f"cache file {cpath} not found")
    else:
        cpath = default_cache_path(Path(data))
        if not cpath.is_file():
            return build_cache(g, l1, l2)
    return read_cache(cpath, expect_fingerprint=g.fingerprint,
                      expect_l1=l1, expect_l2=l2)


def _cmd_train(args) -> int:
    g = load_dataset(args.data)
    cache = _load_or_build_cache(g, args.data, args.cache, args.l1, args.l2)
    config = TrainConfig(**{f: getattr(args, d) for d, f in TRAIN_FLAGS.items()},
                         fix_gamma_uniform=args.fix_gamma)
    config.validate()
    result = train(g, cache, config)
    out = _outdir(args)
    write_metrics_csv(result.history, out / "metrics.csv")
    write_gamma_csv(gamma_table(cache, result.params), out / "gamma.csv")
    final = model_forward(cache.astype(config.dtype), result.params)
    write_beta_csv(beta_table(final), out / "beta.csv")
    save_checkpoint(result.params, config.to_dict(), out / "model.ahgm")
    write_run_json(_run_config(args), out / "run.json")
    if result.diverged:
        print("training diverged (non-finite loss); kept the last finite "
              "parameters", file=sys.stderr)
    print(f"best epoch {result.best_epoch}: val micro-F1 "
          f"{result.best_val_micro:.4f}; test micro-F1 "
          f"{result.test.micro_f1:.4f}, macro-F1 {result.test.macro_f1:.4f}")
    return 0


def _cmd_eval(args) -> int:
    g = load_dataset(args.data)
    raw, arrays = load_checkpoint(args.checkpoint)
    try:
        config = TrainConfig.from_dict(raw)
    except ValueError as e:
        raise ValueError(f"checkpoint {args.checkpoint}: {e}") from None
    cache = _load_or_build_cache(g, args.data, args.cache, config.l1,
                                 config.l2)
    params = restore_model_params(arrays, cache, config.to_dict(),
                                  dtype=config.dtype)
    mask = g.val_mask if args.split == "val" else g.test_mask
    m = evaluate_split(cache, params, g.labels, mask, config.dtype)
    out = _outdir(args)
    write_run_json({"split": args.split, "macro_f1": m.macro_f1,
                    "micro_f1": m.micro_f1}, out / "eval.json")
    write_run_json(_run_config(args), out / "run.json")
    print(f"{args.split} micro-F1 {m.micro_f1:.4f}, macro-F1 {m.macro_f1:.4f}")
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out)
    if args.data:
        g = load_dataset(args.data)
        result = rewire_to_homophily(g, RewireSpec(
            target_h=args.homophily, seed=args.seed,
            max_iterations=args.max_iterations, tolerance=args.tolerance))
        save_dataset(result.graph, out)
        msg = "converged" if result.converged else \
            "WARNING: iteration budget exhausted before reaching the target"
        print(f"rewired to h={result.achieved:.4f} (target {result.target}, "
              f"{result.proposals} proposals, {result.accepted} accepted "
              f"moves, {result.iterations} iterations); {msg}")
    else:
        g = generate_toy(ToySpec(**{f: getattr(args, f) for f in TOY_FLAGS},
                                 tolerance=args.tolerance,
                                 max_rewire=args.max_iterations))
        save_dataset(g, out)
        print(f"wrote toy dataset to {out}")
    write_run_json(_run_config(args), out / "run.json")
    return 0


def _cmd_verify_spectral(args) -> int:
    if args.graphs < 1:
        raise ValueError(f"--graphs must be at least 1, got {args.graphs}")
    if not 2 <= args.max_nodes <= MAX_DENSE_NODES:
        raise ValueError(f"--max-nodes must lie in [2, {MAX_DENSE_NODES}], "
                         f"got {args.max_nodes}")
    rng = np.random.default_rng(args.seed)
    gamma = init_gamma(args.alpha, args.hops)
    failures = 0
    worst_margin = 1.0
    for _ in range(args.graphs):
        n = int(rng.integers(2, args.max_nodes + 1))
        adj = random_connected_adjacency(n, int(rng.integers(0, 2 * n)), rng)
        report = verify_lowpass(gamma, adj)
        worst_margin = min(worst_margin, report.margin)
        if not report.passed:
            failures += 1
            print(f"n={n}: {report.summary()}", file=sys.stderr)
    out = _outdir(args)
    write_run_json(_run_config(args), out / "run.json")
    print(f"{args.graphs - failures}/{args.graphs} graphs passed "
          f"(worst damping margin {worst_margin:.3e}, alpha={args.alpha}, "
          f"hops={args.hops})")
    return 0 if failures == 0 else 1


def _cmd_grad_check(args) -> int:
    if args.coords_per_param < 1:
        raise ValueError(f"--coords-per-param must be at least 1, "
                         f"got {args.coords_per_param}")
    g = generate_toy(ToySpec(n_target=20, n_aux=10, num_classes=2,
                             homophily=0.8, feature_dim=5, edges_per_node=3,
                             seed=args.seed, tolerance=0.05))
    rows = labeled_rows(g.train_mask, g.labels)  # `train` steps on these alone
    cache = build_cache(g, 2, 2).take_rows(rows).astype(np.float64)
    rng = np.random.default_rng(args.seed)
    params = init_model_params(cache, hidden=8, heads=2, alpha=0.4, rng=rng,
                               dtype=np.float64, num_classes=g.num_classes)
    tensors = list(params.all_parameters().values())

    def loss_of(*_):
        out = model_forward(cache, params)
        loss, _parts = training_loss(out, g.labels[rows],
                                     np.ones(rows.size, dtype=bool), 1e-4, 1e-4)
        return loss

    result = grad_check(loss_of, tensors, max_coords=args.coords_per_param,
                        rng=np.random.default_rng(args.seed + 1))
    out = _outdir(args)
    write_run_json(_run_config(args), out / "run.json")
    print(f"checked {result.n_coords} coordinates, max relative error "
          f"{result.max_rel_err:.3e}")
    return 0 if result.max_rel_err <= args.tolerance else 1


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="ahgnn", description=__doc__)
    p.add_argument("--version", action="version", version=f"ahgnn {__version__}")
    sub = p.add_subparsers(dest="subcommand", parser_class=_Parser)

    a = sub.add_parser("analyze", help="per-meta-path homophily report")
    a.add_argument("--data", required=True)
    a.add_argument("--depth", type=int, default=4)
    a.add_argument("--out", default=".")
    a.set_defaults(handler=_cmd_analyze)

    pc = sub.add_parser("precompute", help="build the message cache")
    pc.add_argument("--data", required=True)
    pc.add_argument("--l1", type=int, default=TrainConfig.l1)
    pc.add_argument("--l2", type=int, default=TrainConfig.l2)
    pc.add_argument("--out", default=None,
                    help="cache file (default: AHGNN_CACHE_DIR or the data dir)")
    pc.add_argument("--threads", type=int, default=1,
                    help="has no effect: the cache is built serially")
    pc.set_defaults(handler=_cmd_precompute)

    tr = sub.add_parser("train", help="train and write metrics/checkpoint")
    tr.add_argument("--data", required=True)
    tr.add_argument("--cache", default=None)
    tr.add_argument("--out", default=".")
    for dest, field in TRAIN_FLAGS.items():
        default = getattr(TrainConfig, field)
        tr.add_argument("--" + dest.replace("_", "-"), type=type(default),
                        default=default, choices=("f32", "f64")
                        if dest == "precision" else None)
    tr.add_argument("--fix-gamma", action="store_true",
                    help="pin every hop weight at 1 (non-adaptive ablation)")
    tr.set_defaults(handler=_cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint on val or test")
    ev.add_argument("--data", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--cache", default=None)
    ev.add_argument("--split", choices=("val", "test"), default="test")
    ev.add_argument("--out", default=".")
    ev.set_defaults(handler=_cmd_eval)

    sy = sub.add_parser("synth", help="generate a toy dataset, or rewire "
                        "an existing one to a target homophily")
    sy.add_argument("--out", required=True)
    sy.add_argument("--data", default=None,
                    help="existing dataset to rewire (omit to generate)")
    for f in TOY_FLAGS:
        default = getattr(ToySpec, f)
        sy.add_argument("--" + f.replace("_", "-"), type=type(default),
                        default=default)
    # the rewiring budget defaults to RewireSpec's, for both uses of synth
    sy.add_argument("--tolerance", type=float, default=RewireSpec.tolerance)
    sy.add_argument("--max-iterations", type=int,
                    default=RewireSpec.max_iterations)
    sy.set_defaults(handler=_cmd_synth)

    vs = sub.add_parser("verify-spectral",
                        help="check the low-pass property on random graphs")
    vs.add_argument("--graphs", type=int, default=100)
    vs.add_argument("--max-nodes", type=int, default=20)
    vs.add_argument("--alpha", type=float, default=0.25)
    vs.add_argument("--hops", type=int, default=3)
    vs.add_argument("--seed", type=int, default=0)
    vs.add_argument("--out", default=".")
    vs.set_defaults(handler=_cmd_verify_spectral)

    gc = sub.add_parser("grad-check",
                        help="finite-difference check of the full model loss")
    gc.add_argument("--coords-per-param", type=int, default=3)
    gc.add_argument("--tolerance", type=float, default=1e-6)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--out", default=".")
    gc.set_defaults(handler=_cmd_grad_check)
    return p


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 1
    try:
        return args.handler(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

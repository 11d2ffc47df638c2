import csv
import json
import re
import shutil
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import ahgnn
from ahgnn.cli import build_parser, default_cache_path, dispatch
from ahgnn.graph import load_dataset, save_dataset
from ahgnn.model import (load_checkpoint, model_forward, predict_logits,
                         restore_model_params, save_checkpoint)
from ahgnn.propagate import build_cache, write_cache
from ahgnn.synth import RewireSpec, ToySpec, generate_toy
from ahgnn.train import TrainConfig, evaluate
from conftest import REPO_ROOT, checkout_env
from oracles import write_cache_v1


@pytest.fixture()
def toy_dir(tmp_path):
    """A small saved dataset, generated through the CLI itself."""
    out = tmp_path / "toy"
    code = dispatch(["synth", "--out", str(out), "--n-target", "24",
                     "--n-aux", "12", "--num-classes", "2",
                     "--feature-dim", "3", "--edges-per-node", "2",
                     "--homophily", "1.0", "--seed", "0"])
    assert code == 0
    return out


def run_ok(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def test_synth_writes_dataset_and_run_json(toy_dir):
    assert (toy_dir / "manifest.json").is_file()
    assert (toy_dir / "run.json").is_file()
    g = load_dataset(toy_dir)
    assert g.n("A") == 24
    run = json.loads((toy_dir / "run.json").read_text())
    assert run["homophily"] == 1.0 and run["seed"] == 0


def test_analyze_outputs(toy_dir, tmp_path, capsys):
    out = tmp_path / "report"
    text = run_ok(["analyze", "--data", str(toy_dir), "--depth", "2",
                   "--out", str(out)], capsys)
    assert "A-B-A: h=" in text
    assert "graph-level homophily (depth 2)" in text
    with open(out / "homophily_report.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["metapath", "global_h", "n_edges",
                       "bin0", "bin1", "bin2", "bin3", "bin4"]
    assert rows[-1][0] == "graph_level"
    assert (out / "run.json").is_file()


def test_precompute_default_path_and_threads(toy_dir, capsys, monkeypatch):
    monkeypatch.delenv("AHGNN_CACHE_DIR", raising=False)
    text = run_ok(["precompute", "--data", str(toy_dir)], capsys)
    default = toy_dir / "cache.ahgc"
    assert default.is_file()
    assert "feature paths" in text
    serial = default.read_bytes()
    run_ok(["precompute", "--data", str(toy_dir), "--threads", "4"], capsys)
    assert default.read_bytes() == serial  # thread count cannot change bytes


def test_precompute_honors_cache_dir_env(toy_dir, tmp_path, capsys,
                                         monkeypatch):
    cache_home = tmp_path / "caches"
    monkeypatch.setenv("AHGNN_CACHE_DIR", str(cache_home))
    run_ok(["precompute", "--data", str(toy_dir)], capsys)
    assert (cache_home / "toy.ahgc").is_file()
    assert default_cache_path(toy_dir) == cache_home / "toy.ahgc"


def test_train_eval_round_trip(toy_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("AHGNN_CACHE_DIR", raising=False)
    out = tmp_path / "run1"
    text = run_ok(["train", "--data", str(toy_dir), "--out", str(out),
                   "--epochs", "3", "--hidden", "8", "--heads", "2",
                   "--patience", "5"], capsys)
    assert "best epoch" in text and "test micro-F1" in text
    for name in ("metrics.csv", "gamma.csv", "beta.csv", "model.ahgm",
                 "run.json"):
        assert (out / name).is_file(), name
    with open(out / "metrics.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["epoch", "loss", "train_micro", "val_macro",
                       "val_micro"]
    assert len(rows) == 4  # header + 3 epochs

    eout = tmp_path / "eval1"
    text = run_ok(["eval", "--data", str(toy_dir), "--checkpoint",
                   str(out / "model.ahgm"), "--split", "val",
                   "--out", str(eout)], capsys)
    assert "val micro-F1" in text
    scores = json.loads((eout / "eval.json").read_text())
    assert scores["split"] == "val"
    assert 0.0 <= scores["micro_f1"] <= 1.0
    assert 0.0 <= scores["macro_f1"] <= 1.0
    assert (eout / "run.json").is_file()


def test_train_reuses_prebuilt_cache(toy_dir, tmp_path, capsys):
    cache = tmp_path / "msgs.ahgc"
    run_ok(["precompute", "--data", str(toy_dir), "--out", str(cache)],
           capsys)
    out = tmp_path / "run2"
    run_ok(["train", "--data", str(toy_dir), "--cache", str(cache),
            "--out", str(out), "--epochs", "2", "--hidden", "8",
            "--heads", "2"], capsys)
    assert (out / "model.ahgm").is_file()


def test_train_rejects_stale_cache_depth(toy_dir, tmp_path, capsys):
    cache = tmp_path / "shallow.ahgc"
    run_ok(["precompute", "--data", str(toy_dir), "--out", str(cache),
            "--l1", "1", "--l2", "1"], capsys)
    code = dispatch(["train", "--data", str(toy_dir), "--cache", str(cache),
                     "--out", str(tmp_path / "run3"), "--epochs", "1",
                     "--hidden", "8", "--heads", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_train_rejects_the_cache_of_a_rewired_dataset(toy_dir, tmp_path,
                                                      capsys):
    # rewiring moves edges and keeps the manifest byte for byte
    cache = tmp_path / "msgs.ahgc"
    run_ok(["precompute", "--data", str(toy_dir), "--out", str(cache)],
           capsys)
    rewired = tmp_path / "rewired"
    run_ok(["synth", "--data", str(toy_dir), "--out", str(rewired),
            "--homophily", "0.5", "--tolerance", "0.1", "--seed", "1"],
           capsys)
    assert (rewired / "manifest.json").read_bytes() == \
        (toy_dir / "manifest.json").read_bytes()
    assert (rewired / "edges_A_B.tsv").read_bytes() != \
        (toy_dir / "edges_A_B.tsv").read_bytes()
    code = dispatch(["train", "--data", str(rewired), "--cache", str(cache),
                     "--out", str(tmp_path / "run"), "--epochs", "1",
                     "--hidden", "8", "--heads", "2"])
    assert code == 1
    assert "stale cache: dataset changed" in capsys.readouterr().err


def test_train_and_eval_reject_a_cache_message_a_row_short(toy_dir, tmp_path,
                                                           capsys):
    g = load_dataset(toy_dir)
    out = tmp_path / "run"
    run_ok(["train", "--data", str(toy_dir), "--out", str(out),
            "--epochs", "1", "--hidden", "8", "--heads", "2"], capsys)
    short = build_cache(g, 2, 2)
    short.feature_messages["A-B"] = short.feature_messages["A-B"][:-1]
    write_cache(short, tmp_path / "short.ahgc")
    for argv in (["train", "--out", str(tmp_path / "run2"), "--epochs", "1",
                  "--hidden", "8", "--heads", "2"],
                 ["eval", "--checkpoint", str(out / "model.ahgm"),
                  "--out", str(tmp_path / "eval")]):
        code = dispatch(argv + ["--data", str(toy_dir),
                                "--cache", str(tmp_path / "short.ahgc")])
        assert code == 1, argv[0]
        assert "short.ahgc: message A-B has 23 rows" in \
            capsys.readouterr().err


@pytest.mark.parametrize("edit,field", [
    (lambda c: {k: v for k, v in c.items() if k != "l1"}, "'l1' is missing"),
    (lambda c: {**c, "precision": "f16"}, "precision must be"),
    (lambda c: {**c, "hidden": 8.0}, "'hidden' must be int"),
    (lambda c: [c], "config must be an object"),
], ids=["missing-l1", "f16", "float-hidden", "list"])
def test_eval_rejects_a_malformed_checkpoint_config(toy_dir, tmp_path, capsys,
                                                    monkeypatch, edit, field):
    monkeypatch.delenv("AHGNN_CACHE_DIR", raising=False)
    out = tmp_path / "run"
    run_ok(["train", "--data", str(toy_dir), "--out", str(out),
            "--epochs", "1", "--hidden", "8", "--heads", "2"], capsys)
    config, arrays = load_checkpoint(out / "model.ahgm")
    params = restore_model_params(arrays, build_cache(load_dataset(toy_dir),
                                                      2, 2), config)
    bad = tmp_path / "bad.ahgm"
    save_checkpoint(params, edit(config), bad)
    code = dispatch(["eval", "--data", str(toy_dir), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "eval")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"checkpoint {bad}:" in err and field in err
    assert not (tmp_path / "eval" / "eval.json").exists()


def test_train_with_missing_explicit_cache_fails(toy_dir, tmp_path, capsys):
    missing = tmp_path / "absent.ahgc"
    code = dispatch(["train", "--data", str(toy_dir), "--cache", str(missing),
                     "--out", str(tmp_path / "run4"), "--epochs", "1",
                     "--hidden", "8", "--heads", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert str(missing) in captured.err
    assert not (tmp_path / "run4" / "model.ahgm").exists()


def test_eval_with_missing_explicit_cache_fails(toy_dir, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.delenv("AHGNN_CACHE_DIR", raising=False)
    out = tmp_path / "run5"
    run_ok(["train", "--data", str(toy_dir), "--out", str(out),
            "--epochs", "1", "--hidden", "8", "--heads", "2"], capsys)
    missing = tmp_path / "absent.ahgc"
    code = dispatch(["eval", "--data", str(toy_dir), "--checkpoint",
                     str(out / "model.ahgm"), "--cache", str(missing),
                     "--out", str(tmp_path / "eval5")])
    captured = capsys.readouterr()
    assert code == 1
    assert str(missing) in captured.err
    assert not (tmp_path / "eval5" / "eval.json").exists()


def test_eval_equals_all_rows_evaluate_on_both_splits(tmp_path, capsys,
                                                     monkeypatch):
    # eval forwards only the split's labeled rows; the reference scores an
    # all-rows forward.  A barely trained model on a mixed-homophily graph
    # scores the two splits differently, so a wrong row set shows.
    monkeypatch.delenv("AHGNN_CACHE_DIR", raising=False)
    data = tmp_path / "mixed"
    run_ok(["synth", "--out", str(data), "--n-target", "60", "--n-aux", "20",
            "--num-classes", "3", "--homophily", "0.5", "--seed", "1"], capsys)
    out = tmp_path / "run"
    run_ok(["train", "--data", str(data), "--out", str(out), "--epochs", "2",
            "--hidden", "8", "--heads", "2"], capsys)
    g = load_dataset(data)
    config, arrays = load_checkpoint(out / "model.ahgm")
    cache = build_cache(g, 2, 2)
    params = restore_model_params(arrays, cache, config)
    logits = model_forward(cache.astype(np.float32), params).logits.data
    scores = {}
    for split, mask in (("val", g.val_mask), ("test", g.test_mask)):
        eout = tmp_path / f"eval-{split}"
        run_ok(["eval", "--data", str(data), "--checkpoint",
                str(out / "model.ahgm"), "--split", split, "--out", str(eout)],
               capsys)
        ref = evaluate(logits, g.labels, mask)
        scores[split] = json.loads((eout / "eval.json").read_text())
        assert scores[split] == {"split": split, "macro_f1": ref.macro_f1,
                                 "micro_f1": ref.micro_f1}
    assert scores["val"]["micro_f1"] != scores["test"]["micro_f1"]


def test_eval_of_a_split_without_labels_exits_one(toy_dir, tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.delenv("AHGNN_CACHE_DIR", raising=False)
    g = load_dataset(toy_dir)
    g.labels[g.test_mask] = -1
    data = tmp_path / "no-test-labels"
    save_dataset(g, data)
    out = tmp_path / "run"
    run_ok(["train", "--data", str(data), "--out", str(out), "--epochs", "1",
            "--hidden", "8", "--heads", "2"], capsys)
    eout = tmp_path / "eval"
    code = dispatch(["eval", "--data", str(data), "--checkpoint",
                     str(out / "model.ahgm"), "--split", "test",
                     "--out", str(eout)])
    assert code == 1
    assert "selects no labeled node" in capsys.readouterr().err
    assert not (eout / "eval.json").exists()


def test_synth_rewire_mode(toy_dir, tmp_path, capsys):
    out = tmp_path / "rewired"
    text = run_ok(["synth", "--data", str(toy_dir), "--out", str(out),
                   "--homophily", "0.8", "--tolerance", "0.1",
                   "--seed", "1"], capsys)
    assert "rewired to h=" in text
    assert re.search(r"\d+ proposals, \d+ accepted moves, \d+ iterations\)",
                     text), text
    g = load_dataset(out)
    base = load_dataset(toy_dir)
    np.testing.assert_array_equal(g.labels, base.labels)


def test_synth_generation_honours_tolerance_and_budget(tmp_path, capsys):
    run_ok(["synth", "--out", str(tmp_path / "cli"), "--n-target", "60",
            "--n-aux", "20", "--homophily", "0.5", "--seed", "1",
            "--tolerance", "0.1", "--max-iterations", "500"], capsys)
    save_dataset(generate_toy(ToySpec(n_target=60, n_aux=20, homophily=0.5,
                                      seed=1, tolerance=0.1, max_rewire=500)),
                 tmp_path / "lib")
    names = sorted(p.name for p in (tmp_path / "lib").iterdir())
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == \
            (tmp_path / "lib" / name).read_bytes(), name


def test_classifier_width_is_the_class_count_without_label_paths(
        tmp_path, capsys, monkeypatch):
    # l2=1 on a two-type schema leaves no label path: the class count
    # must come from the graph, not from a message's width (8 features)
    monkeypatch.delenv("AHGNN_CACHE_DIR", raising=False)
    data, out = tmp_path / "d", tmp_path / "run"
    run_ok(["synth", "--out", str(data), "--n-target", "40", "--n-aux", "12",
            "--num-classes", "3", "--feature-dim", "8", "--homophily", "1.0",
            "--seed", "1"], capsys)
    run_ok(["precompute", "--data", str(data), "--l1", "2", "--l2", "1"],
           capsys)
    run_ok(["train", "--data", str(data), "--out", str(out), "--l1", "2",
            "--l2", "1", "--epochs", "5", "--hidden", "16", "--heads", "2"],
           capsys)
    run_ok(["eval", "--data", str(data), "--checkpoint",
            str(out / "model.ahgm"), "--out", str(out)], capsys)
    cache = build_cache(load_dataset(data), 2, 1)
    assert not cache.label_messages
    config, arrays = load_checkpoint(out / "model.ahgm")
    assert arrays["cls.w"].shape == (16, 3)
    params = restore_model_params(arrays, cache, config)
    preds = predict_logits(cache.astype(np.float32), params).argmax(axis=1)
    assert preds.min() >= 0 and preds.max() < 3


def test_verify_spectral_and_grad_check(tmp_path, capsys):
    out = tmp_path / "spectral"
    text = run_ok(["verify-spectral", "--graphs", "10", "--max-nodes", "8",
                   "--out", str(out)], capsys)
    assert "10/10 graphs passed" in text
    assert (out / "run.json").is_file()

    gout = tmp_path / "gradcheck"
    text = run_ok(["grad-check", "--coords-per-param", "1",
                   "--out", str(gout)], capsys)
    assert "max relative error" in text
    assert (gout / "run.json").is_file()

    code = dispatch(["grad-check", "--coords-per-param", "1",
                     "--tolerance", "1e-18", "--out", str(gout)])
    capsys.readouterr()
    assert code == 1  # an impossible tolerance must be reported as failure


def test_grad_check_differentiates_the_train_objective(tmp_path, capsys,
                                                       monkeypatch):
    # `train` takes cross entropy and both regularizers on the labeled
    # train rows alone; grad-check must differentiate that objective
    import ahgnn.cli as cli

    seen = {}
    real_toy, real_loss = cli.generate_toy, cli.training_loss

    def toy(spec):
        seen["graph"] = real_toy(spec)
        return seen["graph"]

    def loss(out, labels, mask, lambda1, lambda2):
        seen.update(rows=out.logits.shape[0], labels=labels.copy(),
                    mask=mask.copy())
        return real_loss(out, labels, mask, lambda1, lambda2)

    monkeypatch.setattr(cli, "generate_toy", toy)
    monkeypatch.setattr(cli, "training_loss", loss)
    run_ok(["grad-check", "--coords-per-param", "1",
            "--out", str(tmp_path / "gc")], capsys)
    g = seen["graph"]
    rows = np.flatnonzero(g.train_mask & (g.labels >= 0))
    assert 0 < rows.size < g.n_target
    assert seen["rows"] == rows.size
    np.testing.assert_array_equal(seen["labels"], g.labels[rows])
    assert seen["mask"].shape == (rows.size,) and seen["mask"].all()


def test_eval_of_a_version_one_cache_exits_one(toy_dir, tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.delenv("AHGNN_CACHE_DIR", raising=False)
    out = tmp_path / "run"
    run_ok(["train", "--data", str(toy_dir), "--out", str(out),
            "--epochs", "1", "--hidden", "8", "--heads", "2"], capsys)
    old = tmp_path / "v1.ahgc"
    write_cache_v1(build_cache(load_dataset(toy_dir), 2, 2), old)
    code = dispatch(["eval", "--data", str(toy_dir), "--checkpoint",
                     str(out / "model.ahgm"), "--cache", str(old),
                     "--out", str(tmp_path / "eval")])
    err = capsys.readouterr().err
    assert code == 1
    assert "version 1 cache" in err
    assert "regenerate with `ahgnn precompute`" in err
    assert not (tmp_path / "eval" / "eval.json").exists()


def test_exit_codes_for_bad_invocations(tmp_path, capsys):
    assert dispatch(["analyze", "--data", str(tmp_path / "nowhere")]) == 1
    assert "error:" in capsys.readouterr().err

    assert dispatch(["frobnicate"]) == 1
    capsys.readouterr()
    assert dispatch(["analyze", "--data", "x", "--no-such-flag"]) == 1
    capsys.readouterr()
    assert dispatch([]) == 1  # no subcommand: print help, fail
    assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("argv, flag", [
    (["verify-spectral", "--graphs", "0"], "--graphs"),
    (["verify-spectral", "--graphs", "-1"], "--graphs"),
    (["verify-spectral", "--max-nodes", "1"], "--max-nodes"),
    # seed 27 first draws a 3-node graph: without the check, a cap above
    # the dense limit passes unnoticed until a large graph is drawn
    (["verify-spectral", "--graphs", "1", "--max-nodes", "501",
      "--seed", "27"], "--max-nodes"),
    (["grad-check", "--coords-per-param", "0"], "--coords-per-param"),
    (["analyze", "--data", str(REPO_ROOT / "tests" / "data" / "toy"),
      "--depth", "1"], "--depth"),
])
def test_counts_that_make_a_check_vacuous_exit_one(argv, flag, tmp_path,
                                                   capsys):
    out = tmp_path / "out"
    assert dispatch(argv + ["--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()  # rejected before any work started


def test_version_flag_exits_zero(capsys):
    assert dispatch(["--version"]) == 0
    assert "ahgnn" in capsys.readouterr().out


def test_internal_errors_exit_two(toy_dir, capsys, monkeypatch):
    import importlib
    cli = importlib.import_module("ahgnn.cli")

    def blow_up(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_analyze", blow_up)
    code = dispatch(["analyze", "--data", str(toy_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert "internal error" in err and "boom" in err


def test_installed_entry_point_runs():
    """The `ahgnn` script declared in pyproject.toml runs from this checkout.

    An installer generates a console script that imports the declared
    `module:function` and calls `sys.exit(function())`.  This does the same
    in a child interpreter with this checkout's `src` first on the path, so
    it checks the declaration, the import and `main()` without installing
    anything.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["ahgnn"]
    module, func = target.split(":")
    script = (f"import sys\nsys.argv[0] = 'ahgnn'\n"
              f"from {module} import {func}\nsys.exit({func}())\n")
    proc = subprocess.run([sys.executable, "-c", script, "--version"],
                          capture_output=True, text=True, env=checkout_env(),
                          cwd=REPO_ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"ahgnn {ahgnn.__version__}\n"


@pytest.mark.parametrize("module", ["ahgnn", "ahgnn.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    out = tmp_path / "report"
    proc = subprocess.run(
        [sys.executable, "-m", module, "analyze", "--data",
         str(REPO_ROOT / "tests" / "data" / "toy"), "--out", str(out)],
        capture_output=True, text=True, env=checkout_env(), cwd=tmp_path,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (out / "homophily_report.csv").is_file()
    bare = subprocess.run([sys.executable, "-m", module], capture_output=True,
                          text=True, env=checkout_env(), cwd=tmp_path,
                          timeout=60)
    assert bare.returncode == 1, bare.stderr


@pytest.mark.skipif(shutil.which("ahgnn") is None,
                    reason="no ahgnn console script on PATH")
def test_console_script_on_path_runs():
    proc = subprocess.run(["ahgnn", "--version"], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ahgnn ")


def test_flag_defaults_are_the_library_defaults():
    # run.json of a default invocation records these, so they must not drift
    parser = build_parser()
    cfg = TrainConfig()
    tr = vars(parser.parse_args(["train", "--data", "d"]))
    renamed = {"epochs": "max_epochs", "fix_gamma": "fix_gamma_uniform"}
    flags = {renamed.get(d, d): v for d, v in tr.items()
             if d not in ("data", "cache", "out", "subcommand", "handler")}
    assert flags == asdict(cfg)
    pc = parser.parse_args(["precompute", "--data", "d"])
    assert (pc.l1, pc.l2) == (cfg.l1, cfg.l2)
    sy = vars(parser.parse_args(["synth", "--out", "o"]))
    spec = ToySpec()
    for f in ("homophily", "n_target", "n_aux", "num_types", "num_classes",
              "feature_dim", "edges_per_node", "seed"):
        assert sy[f] == getattr(spec, f), f
    rewire = RewireSpec(target_h=spec.homophily)
    assert sy["tolerance"] == rewire.tolerance
    assert sy["max_iterations"] == rewire.max_iterations

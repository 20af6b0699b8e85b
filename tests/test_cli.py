import argparse
import ast
import dataclasses
import hashlib
import inspect
import json
import os
import re
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from maskcast import data as data_mod
from maskcast.cli import ConfigError, _write_csv, _write_json, build_parser, load_config, main
from maskcast.evaluation import metrics
from maskcast.model import EncoderConfig
from maskcast.training import CurvePoint


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["generate", "--out", str(out), "--nodes", "6", "--steps", "240"]) == 0
    return str(out)


FAST = ["--set", "pretrain_epochs=1", "--set", "finetune_epochs=1",
        "--set", "batch_size=64", "--set", "hidden_dim=4"]

WRITERS = ["generate", "train", "pretrain", "finetune", "evaluate", "ablate", "sweep"]


@pytest.fixture(scope="module")
def outputs(data_dir, tmp_path_factory):
    """The --out directory of one run of each command that writes files, by command."""
    root = tmp_path_factory.mktemp("outputs")
    data = ["--data", data_dir] + FAST
    argvs = {
        "generate": ["--nodes", "5", "--steps", "220"],
        "train": data,
        "pretrain": data,
        "finetune": data + ["--checkpoint", str(root / "pretrain" / "checkpoint.json")],
        "evaluate": data + ["--checkpoint", str(root / "finetune" / "checkpoint.json"),
                            "--model-manifest", str(root / "finetune" / "model.json")],
        "ablate": data + ["--seeds", "0"],
        "sweep": data + ["--seeds", "0", "--ps-grid", "0.2", "--pt-grid", "0.3"],
    }
    assert list(argvs) == WRITERS
    for command, argv in argvs.items():
        assert main([command, "--out", str(root / command)] + argv) == 0
    return root


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config()
        assert cfg.p_s == 0.3 and cfg.lam == 1.0 and cfg.variant == "full"

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p_s": 0.5, "hidden_dim": 8}))
        cfg = load_config(str(path))
        assert cfg.p_s == 0.5 and cfg.hidden_dim == 8

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p_s": 0.5}))
        cfg = load_config(str(path), ["p_s=0.7"])
        assert cfg.p_s == 0.7

    def test_aliases(self):
        cfg = load_config(None, ["lambda=2.0", "L=3", "p=0.5", "q=4.0",
                                 "history=12", "horizon=12"])
        assert cfg.lam == 2.0 and cfg.patch_length == 3
        assert cfg.walk_p == 0.5 and cfg.walk_q == 4.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(None, ["bogus=1"])

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError, match="p_t"):
            load_config(None, ["p_t=1.0"])

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_config(None, ["no-equals-sign"])

    def test_string_override_kept_verbatim(self):
        cfg = load_config(None, ["variant=NT"])
        assert cfg.variant == "NT"

    def test_int_and_float_spellings_serialise_alike(self):
        as_int = load_config(None, ["p_s=1", "lr=1", "lambda=2"])
        as_float = load_config(None, ["p_s=1.0", "lr=1.0", "lambda=2.0"])
        assert (json.dumps(dataclasses.asdict(as_int))
                == json.dumps(dataclasses.asdict(as_float)))
        assert type(as_int.p_s) is float and type(as_int.lam) is float

    def test_dump_load_round_trip(self, tmp_path):
        cfg = load_config(None, ["p_s=0.6", "seed=7"])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert load_config(str(path)) == cfg


class TestGenerate:
    def test_writes_triplet_and_manifest(self, data_dir):
        names = os.listdir(data_dir)
        assert {"dataset_values.csv", "dataset_edges.csv",
                "dataset_meta.json", "manifest.json"} <= set(names)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", "--out", str(out),
                         "--nodes", "5", "--steps", "220"]) == 0
        for name in ("dataset_values.csv", "dataset_edges.csv", "dataset_meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSingleWriter:
    """Every command's files go through one writer, whose manifest hashes
    exactly the files it wrote."""

    @pytest.mark.parametrize("command", WRITERS)
    def test_manifest_hashes_exactly_the_files_written(self, outputs, command):
        out = outputs / command
        manifest = json.loads((out / "manifest.json").read_text())
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if p.name != "manifest.json"}
        assert manifest["artifacts"] == written

    @pytest.mark.parametrize("command, extra", [
        ("generate", []), ("train", []), ("pretrain", []),
        ("ablate", ["--seeds", "0"]), ("sweep", ["--seeds", "0"]),
    ])
    def test_out_that_cannot_be_made_exits_two_before_any_run(
            self, data_dir, tmp_path, capsys, monkeypatch, command, extra):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before --out was made")

        monkeypatch.setattr("maskcast.training.run_two_stage", no_run)
        monkeypatch.setattr("maskcast.cli.run_two_stage", no_run)
        monkeypatch.setattr("maskcast.cli.pretrain", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        data = [] if command == "generate" else ["--data", data_dir]
        assert main([command, "--out", str(blocker / "out")] + data + extra + FAST) == 2
        assert str(blocker / "out") in capsys.readouterr().err

    def test_csv_cells_rendered_by_str(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_csv(path, [["a", "b"], [0.1 + 0.2, np.float64(0.1) + np.float64(0.2)],
                          [7, "x", None, 1.0]])
        assert path.read_bytes() == (b"a,b\r\n0.30000000000000004,0.30000000000000004\r\n"
                                     b"7,x,,1.0\r\n")


class TestTables:
    """The CSV tables the CLI writes: header rows, floats in their shortest
    round-trip form, and an absent value as an empty cell."""

    def lines(self, path):
        return path.read_bytes().decode().split("\r\n")

    def test_per_step_table(self, data_dir, outputs, tmp_path, monkeypatch):
        y = np.full((2, 3, 1, 1), 10.0)
        y[:, 1] = 0.0  # below the MAPE floor: step 2 has no MAPE
        monkeypatch.setattr("maskcast.cli.test_report", lambda *args: metrics(y + 1.0, y))
        fin = outputs / "finetune"
        assert main(["evaluate", "--data", data_dir, "--out", str(tmp_path),
                     "--checkpoint", str(fin / "checkpoint.json"),
                     "--model-manifest", str(fin / "model.json")] + FAST) == 0
        assert self.lines(tmp_path / "per_step.csv") == [
            "step,mae,rmse,mape", "1,1.0,1.0,10.0", "2,1.0,1.0,", "3,1.0,1.0,10.0", ""]

    def test_ablation_table(self, data_dir, tmp_path, monkeypatch):
        row = {"variant": "full", "seed": 0, "mae": 1.0, "rmse": 2.0, "mape": None}
        summary = {"full": {"mae": 1.0, "mae_std": 0.0}}
        monkeypatch.setattr("maskcast.cli.run_ablation",
                            lambda *args, **kwargs: {"rows": [row], "summary": summary})
        assert main(["ablate", "--data", data_dir, "--out", str(tmp_path)] + FAST) == 0
        assert self.lines(tmp_path / "ablation.csv") == [
            "variant,seed,mae,rmse,mape", "full,0,1.0,2.0,", ""]

    def test_heatmap_table(self, data_dir, tmp_path, monkeypatch):
        sweep = {"val_mae": np.array([[1.5], [2.5]]),
                 "argmin": {"p_s": 0.2, "p_t": 0.3, "val_mae": 1.5}}
        monkeypatch.setattr("maskcast.cli.sensitivity_sweep", lambda *args, **kwargs: sweep)
        assert main(["sweep", "--data", data_dir, "--out", str(tmp_path),
                     "--ps-grid", "0.2,0.5", "--pt-grid", "0.3"] + FAST) == 0
        assert self.lines(tmp_path / "heatmap.csv") == ["p_s\\p_t,0.3", "0.2,1.5", "0.5,2.5", ""]

    def test_curve_table(self, data_dir, tmp_path, monkeypatch):
        curve = [CurvePoint("pretrain", 0, 0.5), CurvePoint("finetune", 0, 0.25, 0.125)]
        monkeypatch.setattr("maskcast.cli.pretrain",
                            lambda *args, **kwargs: SimpleNamespace(curve=curve))
        assert main(["pretrain", "--data", data_dir, "--out", str(tmp_path)] + FAST) == 0
        assert self.lines(tmp_path / "curves.csv") == [
            "stage,epoch,train_loss,val_mae", "pretrain,0,0.5,", "finetune,0,0.25,0.125", ""]


class TestTrainPipeline:
    def test_train_twice_identical_metrics(self, data_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--data", data_dir, "--out", str(out)] + FAST) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()

    @pytest.mark.parametrize("extra", [
        [],
        ["--set", "graph_mode=adaptive", "--set", "negative_sampling=true"],
        ["--set", "variant=baseline"],
    ], ids=["predefined", "adaptive-negatives", "baseline"])
    def test_pretrain_finetune_evaluate_chain(self, data_dir, tmp_path, extra):
        pre = tmp_path / "pre"
        fin = tmp_path / "fin"
        ev = tmp_path / "eval"
        run = tmp_path / "train"
        flags = FAST + extra
        assert main(["pretrain", "--data", data_dir, "--out", str(pre)] + flags) == 0
        assert main(["finetune", "--data", data_dir, "--out", str(fin),
                     "--checkpoint", str(pre / "checkpoint.json")] + flags) == 0
        assert main(["evaluate", "--data", data_dir, "--out", str(ev),
                     "--checkpoint", str(fin / "checkpoint.json"),
                     "--model-manifest", str(fin / "model.json")] + flags) == 0
        assert main(["train", "--data", data_dir, "--out", str(run)] + flags) == 0
        # the staged chain ends where one-shot training does; curves.csv and the
        # manifest differ only because train's curve also holds the pretraining epochs
        for name in ("metrics.json", "checkpoint.json", "per_step.csv"):
            assert (fin / name).read_bytes() == (run / name).read_bytes(), name
        report = json.loads((ev / "metrics.json").read_text())
        fin_report = json.loads((fin / "metrics.json").read_text())
        assert report["overall"] == fin_report["overall"]
        for name in ("metrics.json", "per_step.csv"):
            assert (fin / name).read_bytes() == (ev / name).read_bytes()
        assert set(json.loads((ev / "manifest.json").read_text())["artifacts"]) <= \
            set(json.loads((fin / "manifest.json").read_text())["artifacts"])

    def test_pretrain_runs_no_forecast(self, data_dir, tmp_path, monkeypatch):
        def no_forecast(*args, **kwargs):
            raise AssertionError("pretrain forecast windows")

        monkeypatch.setattr("maskcast.training.predict_windows", no_forecast)
        out = tmp_path / "pre"
        assert main(["pretrain", "--data", data_dir, "--out", str(out)] + FAST) == 0
        assert {"checkpoint.json", "model.json", "curves.csv"} <= set(os.listdir(out))

    def test_manifest_hashes_artifacts(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", data_dir, "--out", str(out)] + FAST) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["pretrain_epochs"] == 1
        assert "metrics.json" in manifest["artifacts"]
        digest = hashlib.sha256((out / "metrics.json").read_bytes()).hexdigest()
        assert manifest["artifacts"]["metrics.json"] == digest


class TestAblateAndSweep:
    def test_ablate_writes_table(self, data_dir, tmp_path):
        out = tmp_path / "abl"
        assert main(["ablate", "--data", data_dir, "--out", str(out),
                     "--seeds", "0"] + FAST) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert rows[0] == "variant,seed,mae,rmse,mape"
        variants = {line.split(",")[0] for line in rows[1:]}
        assert variants == {"full", "NT", "NS", "U", "baseline"}

    def test_sweep_writes_heatmap_and_argmin(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", data_dir, "--out", str(out),
                     "--seeds", "0", "--ps-grid", "0.2,0.5",
                     "--pt-grid", "0.3"] + FAST) == 0
        rows = (out / "heatmap.csv").read_text().splitlines()
        assert rows[0].startswith("p_s\\p_t")
        assert len(rows) == 3
        argmin = json.loads((out / "argmin.json").read_text())
        assert argmin["p_s"] in (0.2, 0.5) and argmin["p_t"] == 0.3


def test_every_flag_is_read_by_its_command():
    # main reads --config and --set; any other flag the command never reads changes nothing
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, parser in sub.choices.items():
        tree = ast.parse(inspect.getsource(parser.get_default("fn")))
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        unread += [f"{command} {action.option_strings[0]}" for action in parser._actions
                   if action.option_strings
                   and action.dest not in ("help", "config", "overrides", *read)]
    assert unread == []


class TestVerbose:
    def test_train_logs_one_line_per_epoch(self, data_dir, tmp_path, capsys):
        assert main(["train", "--data", data_dir, "--out", str(tmp_path / "run"), "--verbose"]
                    + FAST + ["--set", "pretrain_epochs=2", "--set", "finetune_epochs=3"]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"^pretrain epoch (\d+): loss \S+$", out, re.M) == ["0", "1"]
        assert re.findall(r"^finetune epoch (\d+): loss \S+ val MAE \S+$", out, re.M) == \
            ["0", "1", "2"]

    def test_evaluate_has_no_verbose_flag(self, data_dir, outputs, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--data", data_dir, "--out", str(tmp_path / "eval"), "--verbose",
                  "--checkpoint", str(outputs / "finetune" / "checkpoint.json"),
                  "--model-manifest", str(outputs / "finetune" / "model.json")] + FAST)
        assert exc.value.code == 2
        assert "unrecognized arguments: --verbose" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()


class TestExitCodes:
    def test_config_error_exits_one(self, capsys):
        assert main(["train", "--data", "/nonexistent", "--set", "bogus=1"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "missing")]) == 2
        assert "error" in capsys.readouterr().err

    def test_gradcheck_exits_zero(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "overall max relative error" in capsys.readouterr().out


class TestBadConfig:
    """A config value of the wrong type or range, or a bad grid, is a config
    error (exit 1) raised before any data is read or any run starts."""

    @pytest.mark.parametrize("override", [
        "hidden_dim=2.5", "pretrain_epochs=2.5", "hidden_dim=0", "patch_length=0",
        "batch_size=0", "history=0", "walk_length=1", "topk=0",
        "negative_sampling=yes", "seed=1.5", "lr=-1",
        "p_s=1.5", "p_s=-0.1", "p_t=1.0", "walk_p=0", "walk_q=0", "lambda=-1",
    ])
    def test_bad_override(self, data_dir, tmp_path, capsys, override):
        argv = ["train", "--data", data_dir, "--out", str(tmp_path / "run")] + FAST
        assert main(argv + ["--set", override]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, grid, message", [
        ("sweep", ["--ps-grid", "0.2,1.5"], "p_s must be in [0, 1], got 1.5"),
        ("sweep", ["--pt-grid", "0.2,x"], "--pt-grid must be a comma-separated list"),
        ("sweep", ["--seeds", "0,-1"], "seed must be at least 0, got -1"),
        ("ablate", ["--seeds", "0,1.5"], "--seeds must be a comma-separated list"),
        ("ablate", ["--seeds", "0,-1"], "seed must be at least 0, got -1"),
    ])
    def test_bad_grid_rejected_before_any_run(self, data_dir, tmp_path, capsys, monkeypatch,
                                             command, grid, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the grid was checked")

        monkeypatch.setattr("maskcast.training.run_two_stage", no_run)
        argv = [command, "--data", data_dir, "--out", str(tmp_path / "out")] + grid + FAST
        assert main(argv) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBadInput:
    """Malformed dataset files fail at load time with exit 2 and a located message."""

    def corrupt(self, data_dir, tmp_path, name, edit):
        out = tmp_path / "bad"
        shutil.copytree(data_dir, out)
        path = out / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        return str(out)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_cell(self, data_dir, tmp_path, capsys, cell):
        def edit(lines):
            row = lines[3].split(",")
            row[2] = cell
            return lines[:3] + [",".join(row)] + lines[4:]

        bad = self.corrupt(data_dir, tmp_path, "dataset_values.csv", edit)
        assert main(["train", "--data", bad, "--out", str(tmp_path / "run")] + FAST) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "row 3, column 2" in err

    def test_missing_meta_key(self, data_dir, tmp_path, capsys):
        bad = self.corrupt(data_dir, tmp_path, "dataset_meta.json",
                           lambda lines: [json.dumps({"n_nodes": 6, "period_seconds": 300.0})])
        assert main(["train", "--data", bad, "--out", str(tmp_path / "run")] + FAST) == 2
        assert "missing keys ['n_features']" in capsys.readouterr().err

    @pytest.mark.parametrize("edge, message", [
        ("0,6,1.0", "outside [0, 6)"),
        ("-1,2,1.0", "outside [0, 6)"),
        ("0,99999999999999999999,1.0", "outside [0, 6)"),
        ("0,2", "expected integers u, v and a numeric weight"),
        ("3,3,1.0", "self-loop"),
        ("DUP", "duplicate undirected edge"),
        ("0,2,nan", "finite and positive"),
        ("0,2,inf", "finite and positive"),
        ("0,2,0.0", "finite and positive"),
        ("0,2,-0.5", "finite and positive"),
        ("", "expected integers u, v and a numeric weight"),
        ("1.0,2,1.0", "expected integers u, v and a numeric weight"),
        ("0,2,#1.0", "expected integers u, v and a numeric weight"),
        ("0,1_5,1.0", "outside [0, 6)"),
    ])
    def test_bad_edge(self, data_dir, tmp_path, capsys, edge, message):
        def edit(lines):
            if edge == "DUP":
                u, v, w = lines[1].split(",")
                return lines + [f"{v},{u},{w}"]  # same undirected edge, reversed
            return lines + [edge]

        bad = self.corrupt(data_dir, tmp_path, "dataset_edges.csv", edit)
        n_lines = len((tmp_path / "bad" / "dataset_edges.csv").read_text().splitlines())
        assert main(["train", "--data", bad, "--out", str(tmp_path / "run")] + FAST) == 2
        err = capsys.readouterr().err
        assert message in err and f"line {n_lines}:" in err

    @pytest.mark.parametrize("name", ["dataset_values.csv", "dataset_edges.csv"])
    def test_empty_file(self, data_dir, tmp_path, capsys, name):
        bad = tmp_path / "bad"
        shutil.copytree(data_dir, bad)
        (bad / name).write_bytes(b"")
        assert main(["train", "--data", str(bad), "--out", str(tmp_path / "run")] + FAST) == 2
        err = capsys.readouterr().err
        assert str(bad / name) in err and "Traceback" not in err

    @pytest.mark.parametrize("rows", [0, 23])  # none, and history + horizon - 1
    def test_too_few_rows_for_five_windows(self, data_dir, tmp_path, capsys, rows):
        bad = self.corrupt(data_dir, tmp_path, "dataset_values.csv", lambda lines: lines[:1 + rows])
        assert main(["train", "--data", bad, "--out", str(tmp_path / "run")] + FAST) == 2
        err = capsys.readouterr().err
        path = os.path.join(bad, "dataset_values.csv")
        assert f"values file {path}: {rows} rows" in err and "at least 28 rows" in err
        assert not (tmp_path / "run" / "manifest.json").exists()


def feature_copy(data_dir, tmp_path, n_features=2):
    """The dataset with its series repeated as a second, negated feature
    and, for a third, squared."""
    dataset = data_mod.load_csv(*data_mod.dataset_paths(data_dir))
    v = dataset.values
    values = np.concatenate([v, -v, v * v][:n_features], axis=-1)
    out = tmp_path / "wide"
    out.mkdir()
    data_mod.save_csv(dataclasses.replace(dataset, values=values), *data_mod.dataset_paths(out))
    return str(out)


def test_feature_count_differs_from_input_dim(data_dir, tmp_path, capsys):
    wide = feature_copy(data_dir, tmp_path)
    argv = ["train", "--data", wide, "--out", str(tmp_path / "run"),
            "--set", "pretrain_epochs=0", "--set", "finetune_epochs=0"]
    assert main(argv) == 2
    assert (f"dataset {wide} has n_features=2, but the config has input_dim=1"
            in capsys.readouterr().err)
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize("graph_mode", ["predefined", "adaptive"])
def test_input_wider_than_the_hidden_state(data_dir, tmp_path, graph_mode):
    # C = 3 input channels against D = 2 hidden units: the encoder multiplies
    # the adjacency by more columns than the embedding has
    wide = feature_copy(data_dir, tmp_path, 3)
    argv = ["train", "--data", wide, "--set", "input_dim=3", "--set", "hidden_dim=2",
            "--set", f"graph_mode={graph_mode}", "--set", "pretrain_epochs=2",
            "--set", "finetune_epochs=1", "--set", "batch_size=64"]
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(argv + ["--out", str(out)]) == 0
    report = json.loads((runs[0] / "metrics.json").read_text())
    assert all(np.isfinite(report["overall"][k]) for k in ("mae", "rmse"))
    for name in ("metrics.json", "checkpoint.json", "curves.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_unwalkable_edge_stops_with_exit_two(data_dir, tmp_path, capsys):
    # a 6-cycle whose closing edge is far too light for any walk to take: at
    # p_s=1 the walk masker can never cover it, so the run stops at the cap on
    # walks per plan
    out = tmp_path / "light"
    shutil.copytree(data_dir, out)
    edges = [f"{u},{u + 1},1.0" for u in range(5)] + ["0,5,1e-12"]
    (out / "dataset_edges.csv").write_text("\n".join(["u,v,weight"] + edges) + "\n")
    argv = ["train", "--data", str(out), "--out", str(tmp_path / "run"),
            "--set", "p_s=1", "--set", "walk_length=2"]
    assert main(argv + FAST) == 2
    assert "p_s=1.0: 600 walks left 1 of 6 target edges uncovered" in capsys.readouterr().err


def test_one_node_dataset_trains_in_adaptive_mode(tmp_path):
    # one node has no pair for the learned graph to link
    data = tmp_path / "one"
    data.mkdir()
    values = 10.0 + np.sin(np.arange(60) / 3.0)
    (data / "dataset_values.csv").write_text("n0_f0\n" + "".join(f"{v}\n" for v in values))
    (data / "dataset_edges.csv").write_text("u,v,weight\n")
    (data / "dataset_meta.json").write_text(
        json.dumps({"n_nodes": 1, "n_features": 1, "period_seconds": 300.0}))
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "run"),
            "--set", "graph_mode=adaptive"]
    assert main(argv + FAST) == 0
    report = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert np.isfinite(report["overall"]["mae"])


class TestCheckpointChecks:
    """A malformed model manifest or checkpoint, or one that names what the model
    lacks, fails with exit 2."""

    @pytest.fixture
    def trained(self, outputs):
        return outputs / "train"

    def evaluate(self, data_dir, tmp_path, checkpoint, manifest, extra=()):
        return main(["evaluate", "--data", data_dir, "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(checkpoint), "--model-manifest", str(manifest)]
                    + FAST + list(extra))

    @pytest.mark.parametrize("override, message", [
        ("history=6", "history is 12, but the run's config has history=6"),
        ("horizon=6", "horizon is 12, but the run's config has horizon=6"),
        ("hidden_dim=8", "hidden_dim is 4, but the run's config has hidden_dim=8"),
        ("graph_mode=adaptive",
         "graph_mode is 'predefined', but the run's config has graph_mode='adaptive'"),
        ("node_embed_dim=3", "node_embed_dim is 8, but the run's config has node_embed_dim=3"),
        ("topk=3", "topk is 8, but the run's config has topk=3"),
    ], ids=["history", "horizon", "hidden_dim", "graph_mode", "node_embed_dim", "topk"])
    def test_model_config_differs_from_the_run(self, data_dir, trained, tmp_path, capsys,
                                               override, message):
        assert self.evaluate(data_dir, tmp_path, trained / "checkpoint.json",
                             trained / "model.json", ["--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.json").exists()

    def test_model_node_count_differs_from_the_dataset(self, trained, tmp_path, capsys):
        other = tmp_path / "five"
        assert main(["generate", "--out", str(other), "--nodes", "5", "--steps", "240"]) == 0
        assert self.evaluate(str(other), tmp_path, trained / "checkpoint.json",
                             trained / "model.json") == 2
        assert "n_nodes is 6, but the run's dataset has n_nodes=5" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.json").exists()

    def test_model_input_dim_differs_from_the_run(self, data_dir, trained, tmp_path, capsys):
        wide = feature_copy(data_dir, tmp_path)
        assert self.evaluate(wide, tmp_path, trained / "checkpoint.json", trained / "model.json",
                             ["--set", "input_dim=2"]) == 2
        assert "input_dim is 1, but the run's config has input_dim=2" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda m: {**m, "hidden_dim": "4"}, "hidden_dim is '4', but the run's config has hidden_dim=4"),
        (lambda m: 7, "expected a JSON object"),
        (lambda m: {**m, "hidden_dim": -4}, "hidden_dim is -4, but the run's config has hidden_dim=4"),
        (lambda m: [1, 2], "expected a JSON object"),
        (lambda m: {**m, "history": True}, "history is True, but the run's config has history=12"),
        # equal in value to the run's 1 and 4, but not integers
        (lambda m: {**m, "input_dim": True}, "input_dim is True, but the run's config has input_dim=1"),
        (lambda m: {**m, "hidden_dim": 4.0}, "hidden_dim is 4.0, but the run's config has hidden_dim=4"),
    ], ids=["string", "number", "negative", "list", "bool", "bool-equal", "float-equal"])
    def test_malformed_model_manifest(self, data_dir, trained, tmp_path, capsys, edit, message):
        manifest = json.loads((trained / "model.json").read_text())
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(edit(manifest)))
        assert self.evaluate(data_dir, tmp_path, trained / "checkpoint.json", bad) == 2
        assert f"model manifest {bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.json").exists()

    def test_unknown_manifest_key(self, data_dir, trained, tmp_path, capsys):
        manifest = json.loads((trained / "model.json").read_text())
        manifest["hidden_units"] = 4
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(manifest))
        assert self.evaluate(data_dir, tmp_path, trained / "checkpoint.json", bad) == 2
        assert "unknown keys ['hidden_units']" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(EncoderConfig)])
    def test_missing_manifest_key(self, data_dir, trained, tmp_path, capsys, key):
        manifest = json.loads((trained / "model.json").read_text())
        del manifest[key]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(manifest))
        assert self.evaluate(data_dir, tmp_path, trained / "checkpoint.json", bad) == 2
        assert f"missing keys ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.json").exists()

    def test_unknown_checkpoint_parameter(self, data_dir, trained, tmp_path, capsys):
        checkpoint = json.loads((trained / "checkpoint.json").read_text())
        checkpoint["encoder.extra.w"] = {"shape": [2], "values": [0.0, 1.0]}
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(checkpoint))
        assert self.evaluate(data_dir, tmp_path, bad, trained / "model.json") == 2
        assert f"checkpoint {bad}: unknown parameters ['encoder.extra.w']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "finetune"])
    @pytest.mark.parametrize("edit, message", [
        (lambda ckpt: {p: e for p, e in ckpt.items() if p != "embed.b"},
         "missing parameter 'embed.b'"),
        (lambda ckpt: {**ckpt, "embed.w": {"shape": [1, 2], "values": [0.0, 1.0]}},
         "shape mismatch for 'embed.w': expected (1, 4), got (1, 2)"),
    ], ids=["missing", "shape"])
    def test_checkpoint_does_not_fit_the_model(self, data_dir, trained, tmp_path, capsys,
                                               command, edit, message):
        checkpoint = json.loads((trained / "checkpoint.json").read_text())
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(edit(checkpoint)))
        if command == "evaluate":
            assert self.evaluate(data_dir, tmp_path, bad, trained / "model.json") == 2
        else:
            assert main(["finetune", "--data", data_dir, "--out", str(tmp_path / "eval"),
                         "--checkpoint", str(bad)] + FAST) == 2
        assert f"checkpoint {bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda ckpt: {**ckpt, "embed.b": {"values": ckpt["embed.b"]["values"]}},
         "parameter 'embed.b' missing keys ['shape']"),
        (lambda ckpt: {**ckpt, "embed.b": {"shape": ckpt["embed.b"]["shape"]}},
         "parameter 'embed.b' missing keys ['values']"),
        (lambda ckpt: {**ckpt, "embed.b": ckpt["embed.b"]["values"]},
         "parameter 'embed.b' is not an object"),
        (lambda ckpt: list(ckpt.values()), "expected an object of parameters"),
    ], ids=["no-shape", "no-values", "entry-not-object", "payload-not-object"])
    def test_malformed_checkpoint(self, data_dir, trained, tmp_path, capsys, edit, message):
        checkpoint = json.loads((trained / "checkpoint.json").read_text())
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(edit(checkpoint)))
        assert self.evaluate(data_dir, tmp_path, bad, trained / "model.json") == 2
        err = capsys.readouterr().err
        assert f"checkpoint {bad}: {message}" in err

    @pytest.mark.parametrize("entry, message", [
        ({"shape": "ab"}, "shape must be a list of non-negative integers, got 'ab'"),
        ({"shape": [1.5, 4]}, "shape must be a list of non-negative integers, got [1.5, 4]"),
        ({"shape": [-1, 4]}, "shape must be a list of non-negative integers, got [-1, 4]"),
        ({"values": {"a": 1}}, "values are not 4 numbers for shape [1, 4]"),
    ], ids=["string-shape", "float-dimension", "inferred-dimension", "values-object"])
    def test_malformed_checkpoint_entry(self, data_dir, trained, tmp_path, capsys, entry, message):
        checkpoint = json.loads((trained / "checkpoint.json").read_text())
        assert checkpoint["embed.w"]["shape"] == [1, 4]
        checkpoint["embed.w"].update(entry)
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(checkpoint))
        assert self.evaluate(data_dir, tmp_path, bad, trained / "model.json") == 2
        err = capsys.readouterr().err
        assert f"checkpoint {bad}: parameter 'embed.w' {message}" in err
        assert not (tmp_path / "eval" / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["evaluate", "finetune"])
    def test_non_finite_checkpoint_value(self, data_dir, trained, tmp_path, capsys, monkeypatch,
                                         command):
        def no_step(*args, **kwargs):
            raise AssertionError("a forecast or training step ran")

        monkeypatch.setattr("maskcast.cli.finetune", no_step)
        monkeypatch.setattr("maskcast.cli.test_report", no_step)
        checkpoint = json.loads((trained / "checkpoint.json").read_text())
        checkpoint["embed.b"]["values"][0] = "nan"
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(checkpoint))
        if command == "evaluate":
            assert self.evaluate(data_dir, tmp_path, bad, trained / "model.json") == 2
        else:
            assert main(["finetune", "--data", data_dir, "--out", str(tmp_path / "eval"),
                         "--checkpoint", str(bad)] + FAST) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {bad}: parameter 'embed.b' values must be finite numbers, got 'nan'" in err
        assert not (tmp_path / "eval" / "metrics.json").exists()


def test_non_finite_metric_never_written(tmp_path):
    path = tmp_path / "metrics.json"
    with pytest.raises(ValueError, match="JSON"):
        _write_json(path, {"overall": {"mae": float("nan")}})
    assert not path.exists()

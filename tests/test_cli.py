import json
import os
import shutil

import pytest

from maskcast.cli import ConfigError, _write_json, dump_config, load_config, main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["generate", "--out", str(out), "--nodes", "6", "--steps", "240"]) == 0
    return str(out)


FAST = ["--set", "pretrain_epochs=1", "--set", "finetune_epochs=1",
        "--set", "batch_size=64", "--set", "hidden_dim=4"]


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

    def test_dump_load_round_trip(self, tmp_path):
        cfg = load_config(None, ["p_s=0.6", "seed=7"])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dump_config(cfg)))
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


class TestTrainPipeline:
    def test_train_twice_identical_metrics(self, data_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--data", data_dir, "--out", str(out)] + FAST) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()

    def test_pretrain_finetune_evaluate_chain(self, data_dir, tmp_path):
        pre = tmp_path / "pre"
        fin = tmp_path / "fin"
        ev = tmp_path / "eval"
        assert main(["pretrain", "--data", data_dir, "--out", str(pre)] + FAST) == 0
        assert main(["finetune", "--data", data_dir, "--out", str(fin),
                     "--checkpoint", str(pre / "checkpoint.json")] + FAST) == 0
        assert main(["evaluate", "--data", data_dir, "--out", str(ev),
                     "--checkpoint", str(fin / "checkpoint.json"),
                     "--model-manifest", str(fin / "model.json")] + FAST) == 0
        report = json.loads((ev / "metrics.json").read_text())
        fin_report = json.loads((fin / "metrics.json").read_text())
        assert report["overall"] == fin_report["overall"]

    def test_manifest_hashes_artifacts(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", data_dir, "--out", str(out)] + FAST) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["pretrain_epochs"] == 1
        assert "metrics.json" in manifest["artifacts"]
        import hashlib
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


class TestCheckpointChecks:
    """A model manifest or checkpoint that names what the model lacks fails with exit 2."""

    @pytest.fixture(scope="class")
    def trained(self, data_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("trained")
        assert main(["train", "--data", data_dir, "--out", str(out)] + FAST) == 0
        return out

    def evaluate(self, data_dir, tmp_path, checkpoint, manifest):
        return main(["evaluate", "--data", data_dir, "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(checkpoint), "--model-manifest", str(manifest)] + FAST)

    def test_unknown_manifest_key(self, data_dir, trained, tmp_path, capsys):
        manifest = json.loads((trained / "model.json").read_text())
        manifest["hidden_units"] = 4
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(manifest))
        assert self.evaluate(data_dir, tmp_path, trained / "checkpoint.json", bad) == 2
        assert "unknown keys ['hidden_units']" in capsys.readouterr().err

    def test_unknown_checkpoint_parameter(self, data_dir, trained, tmp_path, capsys):
        checkpoint = json.loads((trained / "checkpoint.json").read_text())
        checkpoint["encoder.extra.w"] = {"shape": [2], "values": [0.0, 1.0]}
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(checkpoint))
        assert self.evaluate(data_dir, tmp_path, bad, trained / "model.json") == 2
        assert "unknown parameters ['encoder.extra.w']" in capsys.readouterr().err


def test_non_finite_metric_never_written(tmp_path):
    path = tmp_path / "metrics.json"
    with pytest.raises(ValueError, match="JSON"):
        _write_json(path, {"overall": {"mae": float("nan")}})
    assert not path.exists()

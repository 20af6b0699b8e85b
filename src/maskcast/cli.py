"""Command-line entry point.

Subcommands: generate, pretrain, finetune, train, evaluate, ablate, sweep,
gradcheck. Configuration comes from a JSON file plus repeatable
``--set key=value`` overrides. Every command but gradcheck writes its files
through ``_write_run``, which ends with a manifest of the resolved config and
the hashes of exactly those files.

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from functools import partial

from . import autodiff as ad
from . import data as data_mod
from .gradcheck import reference_gradcheck
from .model import ModelState
from .training import (VARIANTS, ConfigError, RunConfig, finetune, grid_configs, init_state,
                       pretrain, run_ablation, run_two_stage, sensitivity_sweep, test_report)


_CONFIG_ALIASES = {"lambda": "lam", "L": "patch_length", "p": "walk_p", "q": "walk_q"}


def load_config(path=None, overrides=()):
    """RunConfig from an optional JSON file plus key=value overrides."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    merged = {}

    def absorb(key, value):
        key = _CONFIG_ALIASES.get(key, key)
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value

    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config {path}: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        for key, value in raw.items():
            absorb(key, value)

    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        absorb(key, value)

    return RunConfig(**merged).validate()


def _parse_list(text, kind, flag):
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of {kind.__name__} values, got {text!r}")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _write_csv(path, rows):
    # csv writes a cell as str(cell), the shortest round-trip form of a float, and None as ""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _write_json(path, payload):
    # strict JSON: a NaN or inf raises ValueError (exit 2) before the file is opened
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text)


def _write_run(out_dir, cfg, *outputs):
    """Write each output, a pair of file names and a writer given their paths,
    then the manifest that hashes exactly those files."""
    artifacts = {}
    for names, write in outputs:
        paths = [os.path.join(out_dir, name) for name in names]
        write(*paths)
        artifacts.update((name, _sha256(path)) for name, path in zip(names, paths))
    manifest = {"config": dataclasses.asdict(cfg), "seed": cfg.seed, "artifacts": artifacts}
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _table(name, header, records):
    """The CSV output ``name``: the header row, then each record's fields under it."""
    rows = [header] + [[r[key] for key in header] for r in records]
    return [name], partial(_write_csv, rows=rows)


def _model_and_curve(state, curve):
    """The model's checkpoint and manifest, and its learning curve."""
    return ((["checkpoint.json", "model.json"], state.save),
            _table("curves.csv", ["stage", "epoch", "train_loss", "val_mae"],
                   map(dataclasses.asdict, curve)))


def _report(report):
    """The test report and its per-step table."""
    return ((["metrics.json"], partial(_write_json, payload=report)),
            _table("per_step.csv", ["step", "mae", "rmse", "mape"], report["per_step"]))


def _load_dataset(data_dir, cfg):
    values, edges, meta = data_mod.dataset_paths(data_dir)
    dataset = data_mod.load_csv(values, edges, meta)
    n_features = dataset.values.shape[-1]
    if n_features != cfg.input_dim:
        raise ValueError(f"dataset {data_dir} has n_features={n_features}, "
                         f"but the config has input_dim={cfg.input_dim}")
    rows, needed = len(dataset.values), cfg.history + cfg.horizon + data_mod.MIN_WINDOWS - 1
    if rows < needed:
        raise ValueError(f"values file {values}: {rows} rows, but history {cfg.history} + "
                         f"horizon {cfg.horizon} needs at least {needed} rows "
                         f"({data_mod.MIN_WINDOWS} windows)")
    splits = data_mod.prepare_splits(dataset, cfg.history, cfg.horizon)
    return dataset, splits


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args, cfg):
    os.makedirs(args.out, exist_ok=True)
    dataset = data_mod.synthesize(args.nodes, args.steps, cfg.seed)
    _write_run(args.out, cfg, (data_mod.DATASET_FILES, partial(data_mod.save_csv, dataset)))
    print(f"wrote synthetic dataset ({args.nodes} nodes, {args.steps} steps) to {args.out}")
    return 0


def cmd_train(args, cfg):
    os.makedirs(args.out, exist_ok=True)
    dataset, splits = _load_dataset(args.data, cfg)
    result = run_two_stage(cfg, splits, dataset.graph, log=print if args.verbose else None)
    _write_run(args.out, cfg, *_model_and_curve(result.state, result.curve),
               *_report(result.report))
    print(f"test MAE {result.report['overall']['mae']:.6f} "
          f"(best val MAE {result.best_val_mae:.6f})")
    return 0


def cmd_pretrain(args, cfg):
    os.makedirs(args.out, exist_ok=True)
    # the manifest records that nothing was fine-tuned
    cfg = dataclasses.replace(cfg, finetune_epochs=0)
    dataset, splits = _load_dataset(args.data, cfg)
    state = init_state(cfg, dataset.graph)
    curve = pretrain(cfg, splits, dataset.graph, state, log=print if args.verbose else None).curve
    _write_run(args.out, cfg, *_model_and_curve(state, curve))
    if curve:
        print(f"final pretrain loss {curve[-1].train_loss:.6f}")
    return 0


def cmd_finetune(args, cfg):
    os.makedirs(args.out, exist_ok=True)
    dataset, splits = _load_dataset(args.data, cfg)
    state = init_state(cfg, dataset.graph)
    ad.load_checkpoint(args.checkpoint, state.params)
    curve, _ = finetune(cfg, splits, dataset.graph, state, log=print if args.verbose else None)
    report = test_report(cfg, splits, dataset.graph, state)
    _write_run(args.out, cfg, *_model_and_curve(state, curve), *_report(report))
    print(f"test MAE {report['overall']['mae']:.6f}")
    return 0


def cmd_evaluate(args, cfg):
    os.makedirs(args.out, exist_ok=True)
    dataset, splits = _load_dataset(args.data, cfg)
    state = ModelState.load(args.checkpoint, args.model_manifest,
                            cfg.encoder_config(dataset.graph.n_nodes))
    report = test_report(cfg, splits, dataset.graph, state)
    _write_run(args.out, cfg, *_report(report))
    print(f"test MAE {report['overall']['mae']:.6f}")
    return 0


def cmd_ablate(args, cfg):
    seeds = _parse_list(args.seeds, int, "--seeds")
    grid_configs(cfg, seeds, variant=VARIANTS)  # a bad cell fails before --out is made
    os.makedirs(args.out, exist_ok=True)
    dataset, splits = _load_dataset(args.data, cfg)
    ablation = run_ablation(splits, dataset.graph, cfg, seeds,
                            log=print if args.verbose else None)
    header = ["variant", "seed", "mae", "rmse", "mape"]
    _write_run(args.out, cfg, _table("ablation.csv", header, ablation["rows"]),
               (["ablation_summary.json"], partial(_write_json, payload=ablation["summary"])))
    for variant, stats in ablation["summary"].items():
        print(f"{variant}: MAE {stats['mae']:.6f} +/- {stats['mae_std']:.6f}")
    return 0


def cmd_sweep(args, cfg):
    seeds = _parse_list(args.seeds, int, "--seeds")
    ps_grid = _parse_list(args.ps_grid, float, "--ps-grid")
    pt_grid = _parse_list(args.pt_grid, float, "--pt-grid")
    grid_configs(cfg, seeds, p_s=ps_grid, p_t=pt_grid)  # a bad cell fails before --out is made
    os.makedirs(args.out, exist_ok=True)
    dataset, splits = _load_dataset(args.data, cfg)
    sweep = sensitivity_sweep(splits, dataset.graph, cfg, ps_grid, pt_grid, seeds,
                              log=print if args.verbose else None)
    # header row: the p_t values; first column: the p_s values; cells: seed-mean val MAE
    heatmap = [["p_s\\p_t", *pt_grid]]
    heatmap += [[p_s, *row] for p_s, row in zip(ps_grid, sweep["val_mae"])]
    _write_run(args.out, cfg, (["heatmap.csv"], partial(_write_csv, rows=heatmap)),
               (["argmin.json"], partial(_write_json, payload=sweep["argmin"])))
    print(f"best cell p_s={sweep['argmin']['p_s']} p_t={sweep['argmin']['p_t']} "
          f"val MAE {sweep['argmin']['val_mae']:.6f}")
    return 0


def cmd_gradcheck(args, cfg):
    errors = reference_gradcheck(seed=cfg.seed)
    worst = max(errors.values())
    for name, err in errors.items():
        print(f"{name}: max relative error {err:.3e}")
    print(f"overall max relative error {worst:.3e}")
    return 0 if worst < 1e-4 else 2


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="maskcast",
                                     description="Masked-reconstruction pretraining for graph time series forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="config override (repeatable)")
        p.add_argument("--verbose", action="store_true")
        if data:
            p.add_argument("--data", required=True, help="dataset directory (values/edges/meta triplet)")

    p = sub.add_parser("generate", help="write a synthetic dataset triplet")
    common(p, data=False)
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--steps", type=int, default=3000)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("pretrain", help="masked-reconstruction pretraining only")
    common(p)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune from a pretraining checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("train", help="full two-stage run")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--model-manifest", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the masking-variant ablation table")
    common(p)
    p.add_argument("--seeds", default="0")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("sweep", help="masking-ratio sensitivity heatmap")
    common(p)
    p.add_argument("--seeds", default="0")
    p.add_argument("--ps-grid", default="0.2,0.5,0.8")
    p.add_argument("--pt-grid", default="0.2,0.5,0.8")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(p, data=False)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, load_config(args.config, args.overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, ad.ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

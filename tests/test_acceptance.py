"""Acceptance suite: one printed PASS/FAIL line per criterion.

The slow criteria (4, 5, 10) train real models; the whole file runs in well
under an hour on a laptop-class machine.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from maskcast.data import prepare_splits, stack_windows, synthesize
from maskcast.evaluation import metrics
from maskcast.gradcheck import reference_gradcheck
from maskcast.graph import WalkConfig
from maskcast.masking import (apply_spatial_mask, mask_target_size,
                              trace_spatial_mask)
from maskcast.training import RunConfig, run_ablation, run_two_stage, sensitivity_sweep
from maskcast.autodiff import Tensor
from maskcast.cli import main

from conftest import random_graph


_capture = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    global _capture
    _capture = capfd
    yield


def emit(message):
    """Print straight to the terminal, bypassing pytest's capture."""
    with _capture.disabled():
        print(message, flush=True)


def verdict(number, passed, detail):
    emit(f"\nCRITERION {number} {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        start = time.time()
        errors = reference_gradcheck(seed=0)
        elapsed = time.time() - start
        worst_name = max(errors, key=errors.get)
        worst = errors[worst_name]
        verdict(1, worst < 1e-4 and elapsed < 5.0,
                f"max relative error {worst:.3e} ({worst_name}), "
                f"runtime {elapsed:.2f}s (limits 1e-4, 5s)")


class TestCriterion2MaskingExactness:
    def test_masking_exactness(self):
        g = random_graph(16, 50, seed=0)
        assert g.n_edges == 50
        failures = []
        for p_s in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
            rng = np.random.default_rng(int(p_s * 10))
            edges, walks = trace_spatial_mask(g, p_s, WalkConfig(), rng)
            if len(edges) != round(50 * p_s):
                failures.append(f"p_s={p_s}: {len(edges)} != {round(50 * p_s)}")
            walked = {(min(a, b), max(a, b))
                      for path in walks for a, b in zip(path, path[1:])}
            if not edges <= walked:
                failures.append(f"p_s={p_s}: masked edge off-walk")
            masked_adj = apply_spatial_mask(g, edges)
            touched = np.zeros_like(masked_adj, dtype=bool)
            for u, v in edges:
                touched[u, v] = touched[v, u] = True
            if not (masked_adj[touched] == 0).all():
                failures.append(f"p_s={p_s}: masked entry nonzero")
            if not (masked_adj[~touched] == g.adjacency[~touched]).all():
                failures.append(f"p_s={p_s}: unmasked entry changed")
        verdict(2, not failures,
                failures[0] if failures else
                "exact counts, walk membership, bitwise-unchanged entries "
                "for all p_s in {0.2..0.8} on a 50-edge graph")


class TestCriterion3LossOracles:
    def test_loss_oracles(self):
        from maskcast.training import loss_spatial, loss_temporal

        checks = []

        a = np.full((3, 3), 0.5)
        checks.append(abs(loss_spatial(Tensor(a), {(0, 1)}).item() - np.log(2.0)))
        a[0, 1] = a[1, 0] = 0.8
        expected = -(np.log(0.8) + np.log(0.5)) / 2
        checks.append(abs(loss_spatial(Tensor(a), {(0, 1), (1, 2)}).item() - expected))

        x = np.zeros((4, 2, 1))
        x_hat = np.full((4, 2, 1), 1.5)
        mask = np.array([True, False])
        checks.append(abs(loss_temporal(Tensor(x_hat), x, mask).item() - 1.5))

        # perturbation: visible entries must not affect the loss
        x_hat_p = x_hat.copy()
        x_hat_p[2:] = 1e9
        perturb_ok = (loss_temporal(Tensor(x_hat_p), x, mask).item()
                      == loss_temporal(Tensor(x_hat), x, mask).item())
        a_p = a.copy()
        a_p[0, 2] = a_p[2, 0] = 0.999  # unmasked pair
        perturb_ok &= (loss_spatial(Tensor(a_p), {(0, 1)}).item()
                       == loss_spatial(Tensor(a), {(0, 1)}).item())

        worst = max(checks)
        verdict(3, worst < 1e-12 and perturb_ok,
                f"max oracle deviation {worst:.2e} (limit 1e-12), "
                f"masked-only supervision {'held' if perturb_ok else 'violated'}")


@pytest.fixture(scope="module")
def stability_dataset():
    return synthesize(20, 3000, seed=0)


class TestCriterion4PretrainingStability:
    def test_stability(self, stability_dataset):
        splits = prepare_splits(stability_dataset, 12, 12)
        cfg = RunConfig(pretrain_epochs=50, finetune_epochs=0, seed=0)
        result = run_two_stage(cfg, splits, stability_dataset.graph)
        losses = np.array([p.train_loss for p in result.curve
                           if p.stage == "pretrain"])
        ma = np.convolve(losses, np.ones(5) / 5, mode="valid")
        worst_rise = float(np.diff(ma).max())

        xs, _ = stack_windows(splits.train)
        baseline_mae = float(np.abs(xs - xs.mean()).mean())
        final_mae = result.pretraining.final_temporal_mae
        margin = 1.0 - final_mae / baseline_mae
        verdict(4, worst_rise <= 0.0 and margin >= 0.20,
                f"5-epoch moving average worst rise {worst_rise:.2e} "
                f"(must be <= 0); masked-patch MAE {final_mae:.4f} vs "
                f"train-mean {baseline_mae:.4f} ({margin:.0%} better, need 20%)")


class TestCriterion5DirectionalImprovement:
    def test_two_stage_beats_scratch(self):
        start = time.time()
        ds = synthesize(8, 730, seed=0, noise_scale=0.5)
        splits = prepare_splits(ds, 12, 12)
        splits.train = splits.train[:400]
        base = RunConfig(hidden_dim=32, batch_size=64,
                         negative_sampling=True, lam=0.5)
        rows = []
        for seed in range(5):
            full = run_two_stage(
                replace(base, seed=seed, pretrain_epochs=20, finetune_epochs=60),
                splits, ds.graph)
            scratch = run_two_stage(
                replace(base, seed=seed, variant="baseline", pretrain_epochs=0,
                        finetune_epochs=80),
                splits, ds.graph)
            rows.append((full.report["overall"]["mae"],
                         scratch.report["overall"]["mae"]))
            emit(f"  seed {seed}: two-stage {rows[-1][0]:.5f} "
                 f"scratch {rows[-1][1]:.5f}")
        full_mean = float(np.mean([r[0] for r in rows]))
        scratch_mean = float(np.mean([r[1] for r in rows]))
        elapsed = time.time() - start
        verdict(5, full_mean <= scratch_mean and elapsed < 900,
                f"mean test MAE two-stage {full_mean:.5f} vs scratch "
                f"{scratch_mean:.5f} over 5 seeds (equal 80-epoch budget), "
                f"runtime {elapsed:.0f}s (limit 900s)")


@pytest.fixture(scope="module")
def harness_setup():
    ds = synthesize(8, 300, seed=2)
    splits = prepare_splits(ds, 12, 12)
    cfg = RunConfig(pretrain_epochs=2, finetune_epochs=2, batch_size=64,
                    hidden_dim=4, seed=0)
    return ds, splits, cfg


class TestCriterion6AblationHarness:
    def test_ablation_variants_and_audit(self, harness_setup):
        ds, splits, cfg = harness_setup
        ablation = run_ablation(splits, ds.graph, cfg, seeds=[0])
        rows = {r["variant"]: r for r in ablation["rows"]}
        problems = []
        if set(rows) != {"full", "NT", "NS", "U", "baseline"}:
            problems.append(f"variants {sorted(rows)}")
        if rows["NT"]["pretrain_loss_totals"]["temporal"] != 0.0:
            problems.append("NT has nonzero temporal loss")
        if rows["NS"]["pretrain_loss_totals"]["spatial"] != 0.0:
            problems.append("NS has nonzero spatial loss")
        audit_u = rows["U"]["sampler_calls"]
        if "uniform_spatial" not in audit_u or "uniform_temporal" not in audit_u:
            problems.append(f"U audit {audit_u}")
        if "walk_spatial" in audit_u or "patch_temporal" in audit_u:
            problems.append("U touched the structured samplers")
        if rows["baseline"]["sampler_calls"]:
            problems.append("baseline sampled masks")
        ordering = sorted(rows, key=lambda v: rows[v]["mae"])
        verdict(6, not problems,
                problems[0] if problems else
                f"5-variant table with clean audits; MAE ordering {ordering} "
                "(reported, not asserted)")


class TestCriterion7MetricsEquivalence:
    def test_naive_oracle_agreement(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        zero_exercised = False
        for _ in range(1000):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                     int(rng.integers(1, 4)), 1)
            y = rng.uniform(-2, 2, size=shape)
            if rng.random() < 0.1:
                y.flat[0] = 0.0  # exercise the MAPE exclusion rule
                zero_exercised = True
            y_hat = y + rng.normal(scale=0.5, size=shape)
            report = metrics(y_hat, y)
            for h in range(shape[1]):
                err = y_hat[:, h] - y[:, h]
                mae = np.abs(err).mean()
                rmse = np.sqrt((err ** 2).mean())
                keep = np.abs(y[:, h]) >= 1e-3
                step = report["per_step"][h]
                worst = max(worst, abs(step["mae"] - mae), abs(step["rmse"] - rmse))
                if keep.any():
                    mape = 100 * (np.abs(err[keep]) / np.abs(y[:, h][keep])).mean()
                    worst = max(worst, abs(step["mape"] - mape))
                else:
                    worst = max(worst, 0.0 if step["mape"] is None else np.inf)
        verdict(7, worst < 1e-9 and zero_exercised,
                f"max deviation from naive oracle {worst:.2e} over 1000 "
                f"random tensors (limit 1e-9); zero-exclusion exercised")


class TestCriterion8SplitHygiene:
    def test_chronology_and_normalization_isolation(self):
        ds = synthesize(10, 500, seed=1)
        splits = prepare_splits(ds, 12, 12)
        starts = ([w.t0 for w in splits.train] + [w.t0 for w in splits.val]
                  + [w.t0 for w in splits.test])
        chronological = all(a < b for a, b in zip(starts, starts[1:]))

        tampered = synthesize(10, 500, seed=1)
        tampered.values[300:] += 1000.0  # val / test region only
        splits_t = prepare_splits(tampered, 12, 12)
        invariant = (splits.mean == splits_t.mean).all() and \
                    (splits.std == splits_t.std).all()
        verdict(8, chronological and invariant,
                f"start indices strictly increasing: {chronological}; "
                f"normalization unaffected by val/test values: {invariant}")


class TestCriterion9Determinism:
    def test_train_twice_identical_bytes(self, tmp_path):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data),
                     "--nodes", "6", "--steps", "240"]) == 0
        fast = ["--set", "pretrain_epochs=2", "--set", "finetune_epochs=2",
                "--set", "batch_size=64", "--set", "hidden_dim=4"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--data", str(data), "--out", str(out)] + fast) == 0
            outs.append((out / "metrics.json").read_bytes())
        identical = outs[0] == outs[1]
        verdict(9, identical,
                f"metrics.json byte-identical across reruns: {identical}")


class TestCriterion10SensitivitySweep:
    def test_three_by_three_heatmap(self, harness_setup):
        ds, splits, cfg = harness_setup
        start = time.time()
        grid = [0.2, 0.5, 0.8]
        sweep = sensitivity_sweep(splits, ds.graph, cfg, grid, grid, seeds=[0])
        elapsed = time.time() - start
        heat = sweep["val_mae"]
        finite = heat.shape == (3, 3) and np.isfinite(heat).all()
        argmin_ok = (sweep["argmin"]["p_s"] in grid
                     and sweep["argmin"]["p_t"] in grid
                     and sweep["argmin"]["val_mae"] == heat.min())
        verdict(10, finite and argmin_ok and elapsed < 1800,
                f"3x3 grid complete, 9 finite entries: {finite}, argmin cell "
                f"(p_s={sweep['argmin']['p_s']}, p_t={sweep['argmin']['p_t']}), "
                f"runtime {elapsed:.0f}s (limit 1800s)")

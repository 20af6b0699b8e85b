"""Forecast metrics, per-step breakdown, ablation runner, sensitivity sweep."""

from dataclasses import replace

import numpy as np

MAPE_FLOOR = 1e-3  # targets below this (original units) are excluded from MAPE


def metrics(y_hat, y, denorm=None):
    """Per-horizon-step MAE / RMSE / MAPE plus their across-step averages.

    Inputs are [W, F, N, C]; metrics are computed in original units via
    ``denorm``. MAPE at a step is absent when every target there
    falls below the magnitude floor.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape or y.ndim != 4:
        raise ValueError(f"metrics: shapes {y_hat.shape} vs {y.shape}, expected matching [W, F, N, C]")
    if denorm is not None:
        y_hat = denorm(y_hat)
        y = denorm(y)

    n_steps = y_hat.shape[1]
    per_step = []
    for h in range(n_steps):
        err = y_hat[:, h] - y[:, h]
        mae = float(np.abs(err).mean())
        rmse = float(np.sqrt((err ** 2).mean()))
        keep = np.abs(y[:, h]) >= MAPE_FLOOR
        mape = float(100.0 * (np.abs(err[keep]) / np.abs(y[:, h][keep])).mean()) if keep.any() else None
        per_step.append({"step": h + 1, "mae": mae, "rmse": rmse, "mape": mape})

    mapes = [s["mape"] for s in per_step if s["mape"] is not None]
    overall = {
        "mae": float(np.mean([s["mae"] for s in per_step])),
        "rmse": float(np.mean([s["rmse"] for s in per_step])),
        "mape": float(np.mean(mapes)) if mapes else None,
    }
    return {
        "per_step": per_step,
        "overall": overall,
        "n_eval_points": int(y.size),
    }


def run_ablation(splits, g, base_cfg, seeds, log=None):
    """Train every masking variant per seed with identical budgets.

    Returns {"rows": per-run records, "summary": per-variant mean/std of the
    overall metrics}. All variants share splits and evaluation targets.
    """
    from .training import run_two_stage, VARIANTS

    rows = []
    for variant in VARIANTS:
        for seed in seeds:
            cfg = replace(base_cfg, variant=variant, seed=seed)
            result = run_two_stage(cfg, splits, g)
            if log:
                log(f"ablation {variant} seed {seed}: test MAE {result.report['overall']['mae']:.6f}")
            rows.append({
                "variant": variant,
                "seed": seed,
                "mae": result.report["overall"]["mae"],
                "rmse": result.report["overall"]["rmse"],
                "mape": result.report["overall"]["mape"],
                "sampler_calls": result.sampler_calls,
                "pretrain_loss_totals": result.pretrain_loss_totals,
            })

    summary = {}
    for variant in VARIANTS:
        runs = [r for r in rows if r["variant"] == variant]
        summary[variant] = {}
        for key in ("mae", "rmse", "mape"):
            vals = [r[key] for r in runs if r[key] is not None]
            summary[variant][key] = float(np.mean(vals)) if vals else None
            summary[variant][key + "_std"] = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return {"rows": rows, "summary": summary}


def sensitivity_sweep(splits, g, base_cfg, ps_grid, pt_grid, seeds, log=None):
    """Seed-mean validation MAE over a (p_s, p_t) grid, plus the argmin cell."""
    from .training import run_two_stage

    heat = np.zeros((len(ps_grid), len(pt_grid)))
    for i, p_s in enumerate(ps_grid):
        for j, p_t in enumerate(pt_grid):
            maes = []
            for seed in seeds:
                cfg = replace(base_cfg, p_s=p_s, p_t=p_t, seed=seed)
                result = run_two_stage(cfg, splits, g)
                maes.append(result.best_val_mae)
            heat[i, j] = np.mean(maes)
            if log:
                log(f"sweep p_s={p_s} p_t={p_t}: val MAE {heat[i, j]:.6f}")
    argmin = np.unravel_index(np.argmin(heat), heat.shape)
    return {
        "val_mae": heat,
        "argmin": {"p_s": ps_grid[argmin[0]], "p_t": pt_grid[argmin[1]],
                   "val_mae": float(heat[argmin])},
    }

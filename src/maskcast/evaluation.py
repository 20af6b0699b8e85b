"""Forecast metrics and their per-step breakdown."""

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


"""Synthetic series generation, CSV ingestion, normalization, windowing, splits."""

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .graph import (Graph, gaussian_threshold_graph, load_edge_list,
                    normalize_adjacency, save_edge_list)
from .seeding import stream

DAY_STEPS = 288  # one synthetic day at 5-minute resolution


@dataclass
class Dataset:
    values: np.ndarray  # [T, N, C]
    period: float  # seconds per step
    graph: Graph
    normalization: tuple = None  # (mean, std) per feature, set by zscore_fit_apply

    @property
    def n_steps(self):
        return self.values.shape[0]

    @property
    def n_nodes(self):
        return self.values.shape[1]

    @property
    def n_features(self):
        return self.values.shape[2]


@dataclass
class WindowPair:
    x: np.ndarray  # [H, N, C]
    y: np.ndarray  # [F, N, C]
    t0: int


@dataclass
class SplitWindows:
    """Chronological train/val/test windows plus the normalization stats."""

    train: list
    val: list
    test: list
    mean: np.ndarray = None
    std: np.ndarray = None

    def denormalize(self, arr):
        if self.mean is None:
            return arr
        return arr * self.std + self.mean


def synthesize(n_nodes, n_steps, seed, autoreg=0.85, season_scale=1.0,
               noise_scale=0.1, epsilon=0.5, period=300.0):
    """Diffusion + seasonality + noise process on a random geometric graph.

    x_{t+1} = a * P x_t + s * season(t) + noise, with P the row-normalized
    adjacency; a < 1 keeps the signal bounded. Values are shifted to be
    nonnegative at the end.
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    if n_steps < 200:
        raise ValueError(f"need at least 200 steps, got {n_steps}")
    if not (0 < autoreg < 1):
        raise ValueError(f"autoreg must be in (0, 1), got {autoreg}")

    rng_graph = stream(seed, "data-graph")
    g = None
    for _ in range(10):
        points = rng_graph.uniform(size=(n_nodes, 2))
        dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
        candidate = gaussian_threshold_graph(dist, epsilon=epsilon)
        if candidate.n_edges > 0:
            g = candidate
            break
    if g is None:
        raise ValueError("could not generate a connected geometric graph in 10 attempts")

    prop = normalize_adjacency(g)

    rng_sig = stream(seed, "data-signal")
    phase = rng_sig.uniform(0, 2 * np.pi, size=n_nodes)
    amp = rng_sig.uniform(0.5, 1.5, size=n_nodes)
    x = rng_sig.normal(size=n_nodes)
    series = np.empty((n_steps, n_nodes))
    for t in range(n_steps):
        series[t] = x
        season = amp * np.sin(2 * np.pi * t / DAY_STEPS + phase)
        x = autoreg * (prop @ x) + season_scale * season + rng_sig.normal(scale=noise_scale, size=n_nodes)
    series -= series.min()
    return Dataset(values=series[:, :, None], period=period, graph=g)


def zscore_fit_apply(dataset, train_fraction=0.6):
    """Standardize using statistics from the leading training rows only.

    Returns (normalized dataset, (mean, std)) with per-feature statistics.
    """
    t_train = int(dataset.n_steps * train_fraction)
    if t_train < 1:
        raise ValueError("training portion is empty")
    train = dataset.values[:t_train]
    mean = train.mean(axis=(0, 1))
    std = train.std(axis=(0, 1))
    if (std == 0).any():
        raise ValueError("training portion has a constant feature (zero std)")
    normalized = Dataset(
        values=(dataset.values - mean) / std,
        period=dataset.period,
        graph=dataset.graph,
        normalization=(mean, std),
    )
    return normalized, (mean, std)


def make_windows(dataset_or_values, history, horizon):
    """All stride-1 (history, horizon) window pairs."""
    values = dataset_or_values.values if isinstance(dataset_or_values, Dataset) else dataset_or_values
    t_total = values.shape[0]
    if t_total < history + horizon:
        raise ValueError(f"series length {t_total} < history + horizon = {history + horizon}")
    pairs = []
    for t0 in range(t_total - history - horizon + 1):
        pairs.append(WindowPair(
            x=values[t0:t0 + history],
            y=values[t0 + history:t0 + history + horizon],
            t0=t0,
        ))
    return pairs


def chrono_split(windows):
    """6:2:2 split by window start index; no window is dropped."""
    n = len(windows)
    if n < 5:
        raise ValueError(f"need at least 5 windows to split, got {n}")
    n_train = int(n * 0.6)
    n_val = int(n * 0.2)
    return windows[:n_train], windows[n_train:n_train + n_val], windows[n_train + n_val:]


def prepare_splits(dataset, history, horizon, train_fraction=0.6):
    """Normalize, window, and split a raw dataset for training."""
    normalized, (mean, std) = zscore_fit_apply(dataset, train_fraction)
    windows = make_windows(normalized, history, horizon)
    train, val, test = chrono_split(windows)
    return SplitWindows(train=train, val=val, test=test, mean=mean, std=std)


def stack_windows(windows):
    """(x [W,H,N,C], y [W,F,N,C]) arrays from a list of pairs."""
    xs = np.stack([w.x for w in windows])
    ys = np.stack([w.y for w in windows])
    return xs, ys


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def save_csv(dataset, values_path, edges_path, meta_path):
    t_total, n, c = dataset.values.shape
    header = [f"n{i}_f{j}" for i in range(n) for j in range(c)]
    with open(values_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        flat = dataset.values.reshape(t_total, n * c)
        for row in flat:
            writer.writerow([repr(float(v)) for v in row])
    save_edge_list(dataset.graph, edges_path)
    with open(meta_path, "w") as fh:
        json.dump({"n_nodes": n, "n_features": c, "period_seconds": dataset.period}, fh)


def load_csv(values_path, edges_path, meta_path):
    with open(meta_path) as fh:
        meta = json.load(fh)
    missing = [k for k in ("n_nodes", "n_features", "period_seconds") if k not in meta]
    if missing:
        raise ValueError(f"meta file {meta_path}: missing keys {missing}")
    n, c = meta["n_nodes"], meta["n_features"]

    rows = []
    with open(values_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) != n * c:
            raise ValueError(
                f"values file {values_path}: expected {n * c} columns "
                f"({n} nodes x {c} features), got {len(header)}"
            )
        for r, row in enumerate(reader):
            if len(row) != n * c:
                raise ValueError(f"values file {values_path}: row {r + 1} has {len(row)} cells, expected {n * c}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                bad = next(i for i, cell in enumerate(row) if not _is_float(cell))
                raise ValueError(f"values file {values_path}: non-numeric cell at row {r + 1}, column {bad}")
    values = np.asarray(rows).reshape(len(rows), n * c)
    finite = np.isfinite(values)
    if not finite.all():
        r, col = np.argwhere(~finite)[0]
        raise ValueError(f"values file {values_path}: non-finite cell {float(values[r, col])} "
                         f"at row {r + 1}, column {col}")
    values = values.reshape(len(rows), n, c)
    g = load_edge_list(edges_path, n_nodes=n)
    return Dataset(values=values, period=meta["period_seconds"], graph=g)


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def dataset_paths(directory, prefix="dataset"):
    return (
        os.path.join(directory, f"{prefix}_values.csv"),
        os.path.join(directory, f"{prefix}_edges.csv"),
        os.path.join(directory, f"{prefix}_meta.json"),
    )

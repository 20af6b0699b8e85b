"""Synthetic series generation, normalization, windowing, splits, and the dataset files."""

import csv
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph, gaussian_threshold_graph, normalize_adjacency
from .seeding import stream

STEP_SECONDS = 300.0  # synthetic series are sampled every 5 minutes
DAY_STEPS = 288  # one synthetic day at that resolution
GRAPH_EPSILON = 0.5  # Gaussian-kernel weight below which synthetic node pairs are unlinked
TRAIN_FRACTION, VAL_FRACTION = 0.6, 0.2  # the 6:2:2 chronological split; test is the rest
MIN_WINDOWS = 5  # the fewest windows that split into non-empty train, validation and test


@dataclass
class Dataset:
    values: np.ndarray  # [T, N, C]
    period: float  # seconds per step
    graph: Graph


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
    mean: np.ndarray
    std: np.ndarray

    def denormalize(self, arr):
        return arr * self.std + self.mean


def synthesize(n_nodes, n_steps, seed, autoreg=0.85, noise_scale=0.1):
    """Diffusion + seasonality + noise process on a random geometric graph.

    x_{t+1} = a * P x_t + season(t) + noise, with P the row-normalized
    adjacency; a < 1 keeps the signal bounded. Values are shifted to be
    nonnegative at the end. Fixed: the graph links points whose kernel weight
    reaches ``GRAPH_EPSILON``, season(t) has period ``DAY_STEPS`` and a
    per-node amplitude in [0.5, 1.5], and steps are ``STEP_SECONDS`` apart.
    The points are drawn up to 10 times, until the graph has at least one
    edge; it need not be connected.
    """
    if n_nodes < 3:  # two nodes have one distance, so the kernel width is 0
        raise ValueError(f"need at least 3 nodes, got {n_nodes}")
    if n_steps < 200:
        raise ValueError(f"need at least 200 steps, got {n_steps}")
    if not (0 < autoreg < 1):
        raise ValueError(f"autoreg must be in (0, 1), got {autoreg}")

    rng_graph = stream(seed, "data-graph")
    g = None
    for _ in range(10):
        points = rng_graph.uniform(size=(n_nodes, 2))
        dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
        candidate = gaussian_threshold_graph(dist, epsilon=GRAPH_EPSILON)
        if candidate.n_edges > 0:
            g = candidate
            break
    if g is None:
        raise ValueError("could not generate a geometric graph with at least one edge "
                         "in 10 attempts")

    prop = normalize_adjacency(g)

    rng_sig = stream(seed, "data-signal")
    phase = rng_sig.uniform(0, 2 * np.pi, size=n_nodes)
    amp = rng_sig.uniform(0.5, 1.5, size=n_nodes)
    x = rng_sig.normal(size=n_nodes)
    series = np.empty((n_steps, n_nodes))
    for t in range(n_steps):
        series[t] = x
        season = amp * np.sin(2 * np.pi * t / DAY_STEPS + phase)
        x = autoreg * (prop @ x) + season + rng_sig.normal(scale=noise_scale, size=n_nodes)
    series -= series.min()
    return Dataset(values=series[:, :, None], period=STEP_SECONDS, graph=g)


def zscore_fit_apply(dataset):
    """Standardize using statistics from the leading training rows only.

    Returns (normalized dataset, (mean, std)) with per-feature statistics.
    """
    t_train = int(len(dataset.values) * TRAIN_FRACTION)
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
    )
    return normalized, (mean, std)


def make_windows(values, history, horizon):
    """All stride-1 (history, horizon) window pairs of a [T, N, C] array."""
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
    if n < MIN_WINDOWS:
        raise ValueError(f"need at least {MIN_WINDOWS} windows to split, got {n}")
    n_train = int(n * TRAIN_FRACTION)
    n_val = int(n * VAL_FRACTION)
    return windows[:n_train], windows[n_train:n_train + n_val], windows[n_train + n_val:]


def prepare_splits(dataset, history, horizon):
    """Normalize, window, and split a raw dataset for training."""
    normalized, (mean, std) = zscore_fit_apply(dataset)
    windows = make_windows(normalized.values, history, horizon)
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

EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("weight", np.float64)])


def save_edge_list(g, path):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([("u", "v", "weight"), *g.edges])


def numeric_body(fh, dtype, ndmin):
    r"""The rest of ``fh`` parsed by numpy's C reader, or None where the csv
    module and ``int``/``float`` might read it differently.

    ``fh`` is a text file opened with ``newline=""``. numpy converts a
    float64 cell with the routine ``float`` uses, so an accepted table is
    bit for bit what a csv loop over the same lines would build. The reader
    rejects quoted cells, digit underscores and ``1.0`` as an integer, which
    ``csv`` and ``int``/``float`` accept or reject themselves, but it skips
    blank lines, which the loop rejects; so its table stands only when it
    has one row per line left in the file. Iterating ``fh`` counts the
    lines as ``readline`` splits them, at ``\n``, ``\r\n`` or ``\r``.
    ``fh`` is left where it was, for the caller's loop.
    """
    start = fh.tell()
    n_lines = sum(1 for _ in fh)
    fh.seek(start)  # the seek also makes fh.tell() usable again after iterating
    if n_lines == 0:
        return None
    try:
        with warnings.catch_warnings():  # a body of blank lines "contained no data"
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=ndmin)
    except ValueError:
        table = None
    fh.seek(start)
    return table if table is not None and len(table) == n_lines else None


def _bad_edge(path, line, what, row):
    return ValueError(f"edge list {path}: line {line}: {what}: {row}")


def load_edge_list(path, n_nodes):
    """Read a u,v,weight edge list; a bad edge raises ValueError naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(iter(fh.readline, ""))  # readline keeps fh.tell() usable
        header = next(reader, [])  # an empty file has no header row and fails the check below
        if header[:3] != ["u", "v", "weight"]:
            raise ValueError(f"edge list {path}: expected header u,v,weight, got {header}")
        table = numeric_body(fh, EDGE_ROW, ndmin=1)
        if table is not None:
            lo_a, hi_a = np.minimum(table["u"], table["v"]), np.maximum(table["u"], table["v"])
            w_a, lines = table["weight"], np.arange(len(table)) + reader.line_num + 1
        # the loop names a node index out of range with the cells of its line
        if table is None or ((lo_a < 0) | (hi_a >= n_nodes)).any():
            lo, hi, weights, lines = [], [], [], []
            for row in reader:
                try:
                    u, v, w = int(row[0]), int(row[1]), float(row[2])
                except (IndexError, ValueError):
                    raise _bad_edge(path, reader.line_num, "expected integers u, v and a numeric weight", row)
                if u > v:
                    u, v = v, u
                if u < 0 or v >= n_nodes:
                    raise _bad_edge(path, reader.line_num, f"node index outside [0, {n_nodes})", row)
                lo.append(u)
                hi.append(v)
                weights.append(w)
                lines.append(reader.line_num)
            lo_a, hi_a, w_a = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64), np.array(weights)
    repeated = np.ones(len(lo_a), dtype=bool)
    repeated[np.unique(lo_a * n_nodes + hi_a, return_index=True)[1]] = False
    for bad, what in ((lo_a == hi_a, "self-loop"),
                      (repeated, "duplicate undirected edge"),
                      (~(np.isfinite(w_a) & (w_a > 0)), "weight must be finite and positive")):
        if bad.any():
            i = int(np.argmax(bad))
            raise _bad_edge(path, int(lines[i]), what, (int(lo_a[i]), int(hi_a[i]), float(w_a[i])))
    return Graph(n_nodes=n_nodes, edges=list(zip(lo_a.tolist(), hi_a.tolist(), w_a.tolist())))


def save_csv(dataset, values_path, edges_path, meta_path):
    t_total, n, c = dataset.values.shape
    header = [f"n{i}_f{j}" for i in range(n) for j in range(c)]
    with open(values_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(dataset.values.reshape(t_total, n * c))
    save_edge_list(dataset.graph, edges_path)
    with open(meta_path, "w") as fh:
        json.dump({"n_nodes": n, "n_features": c, "period_seconds": dataset.period}, fh)


def load_csv(values_path, edges_path, meta_path):
    with open(meta_path) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"meta file {meta_path}: expected a JSON object")
    missing = [k for k in ("n_nodes", "n_features", "period_seconds") if k not in meta]
    if missing:
        raise ValueError(f"meta file {meta_path}: missing keys {missing}")
    n, c, period = meta["n_nodes"], meta["n_features"], meta["period_seconds"]
    for key, value in (("n_nodes", n), ("n_features", c)):
        if type(value) is not int or value < 1:  # a JSON true is not a count
            raise ValueError(f"meta file {meta_path}: {key} must be a positive integer, got {value!r}")
    if type(period) not in (int, float) or not 0 < period < np.inf:
        raise ValueError(f"meta file {meta_path}: period_seconds must be a positive finite number, "
                         f"got {period!r}")

    with open(values_path, newline="") as fh:
        reader = csv.reader(iter(fh.readline, ""))  # readline keeps fh.tell() usable
        header = next(reader, [])  # an empty file has no header row and fails the check below
        if len(header) != n * c:
            raise ValueError(
                f"values file {values_path}: expected {n * c} columns "
                f"({n} nodes x {c} features), got {len(header)}"
            )
        values = numeric_body(fh, np.float64, ndmin=2)
        if values is None or values.shape[1] != n * c:
            cells = []
            for r, row in enumerate(reader):
                if len(row) != n * c:
                    raise ValueError(f"values file {values_path}: row {r + 1} has {len(row)} cells, expected {n * c}")
                for col, cell in enumerate(row):
                    try:
                        cells.append(float(cell))
                    except ValueError:
                        raise ValueError(f"values file {values_path}: non-numeric cell at row {r + 1}, column {col}")
            values = np.asarray(cells).reshape(-1, n * c)
    finite = np.isfinite(values)
    if not finite.all():
        r, col = np.argwhere(~finite)[0]
        raise ValueError(f"values file {values_path}: non-finite cell {float(values[r, col])} "
                         f"at row {r + 1}, column {col}")
    values = values.reshape(len(values), n, c)
    g = load_edge_list(edges_path, n_nodes=n)
    return Dataset(values=values, period=period, graph=g)


DATASET_FILES = ("dataset_values.csv", "dataset_edges.csv", "dataset_meta.json")


def dataset_paths(directory):
    return tuple(os.path.join(directory, name) for name in DATASET_FILES)

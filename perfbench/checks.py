"""Correctness checks run after the timed phases.

Each check compares the program against a computation made apart from it
(a plain-numpy forward pass, metrics recomputed from the raw CSV, central
differences) or against a property the method must have. Each returns a
list of failure messages; an empty list is a pass.
"""

import csv

import numpy as np

from maskcast import autodiff as ad
from maskcast import masking, training
from maskcast.data import stack_windows
from maskcast.graph import adaptive_adjacency, sparsify_topk
from maskcast.masking import MaskPlan
from maskcast.model import forecast

REL_TOL = 1e-9  # numpy reference and recomputed metrics, float64 round-off
GRAD_TOL = 1e-4  # central differences, the repo's gradcheck limit
GRAD_STEPS = (1e-6, 1e-7)


def read_triplet(values_path, edges_path, n_nodes):
    """Raw values [T, N] and symmetric adjacency [N, N], parsed without the program."""
    values = np.loadtxt(values_path, delimiter=",", skiprows=1, ndmin=2)
    adjacency = np.zeros((n_nodes, n_nodes))
    with open(edges_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for u, v, w in rows:
        adjacency[int(u), int(v)] = adjacency[int(v), int(u)] = float(w)
    return values, adjacency


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_forecast(params, adjacency, xs, horizon, adaptive):
    """Embed -> graph-GRU over the history -> MLP head, in plain numpy.

    ``xs`` is [W, H, N, 1]; ``adjacency`` is the raw weighted graph, used
    only when ``adaptive`` is false. Returns [W, F, N, 1].
    """
    p = params
    if adaptive:
        e = p["node_embeddings"]
        scores = np.maximum(e @ e.T, 0.0)
        scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        prop = scores / scores.sum(axis=1, keepdims=True)
    else:
        a = adjacency + np.eye(len(adjacency))
        prop = a / a.sum(axis=1, keepdims=True)
    x_emb = xs @ p["embed.w"] + p["embed.b"]
    w, _, n, _ = xs.shape
    h = np.zeros((w, n, p["embed.w"].shape[1]))

    def conv(z, gate):
        return (prop @ z) @ p[f"encoder.{gate}.w"] + p[f"encoder.{gate}.b"]

    for t in range(xs.shape[1]):
        x_t = x_emb[:, t]
        zin = np.concatenate([x_t, h], axis=-1)
        z = _sigmoid(conv(zin, "update"))
        r = _sigmoid(conv(zin, "reset"))
        c = np.tanh(conv(np.concatenate([x_t, r * h], axis=-1), "cand"))
        h = z * h + (1.0 - z) * c
    hidden = np.maximum(h @ p["predictor.w1"] + p["predictor.b1"], 0.0)
    out = hidden @ p["predictor.w2"] + p["predictor.b2"]  # [W, N, F]
    return out.reshape(w, n, horizon, 1).transpose(0, 2, 1, 3)


def check_forward(preds, state, raw_adjacency, xs, horizon, adaptive):
    want = reference_forecast(state.params.copy_values(), raw_adjacency, xs, horizon, adaptive)
    err = _rel_err(preds, want)
    return [] if err <= REL_TOL else [f"forward: predict_windows vs numpy reference, rel err {err:.3e}"]


def test_targets_and_stats(raw, history, horizon):
    """(targets [W_test, F, N, 1], mean, std): the chronological 6:2:2 test
    split of stride-1 windows and train-fraction z-score statistics, in
    original units."""
    t_total = raw.shape[0]
    n_windows = t_total - history - horizon + 1
    first_test = int(n_windows * 0.6) + int(n_windows * 0.2)
    starts = np.arange(first_test, n_windows) + history
    targets = np.stack([raw[s:s + horizon] for s in starts])[..., None]
    train = raw[:int(t_total * 0.6)]
    return targets, train.mean(), train.std()


def check_metrics(preds, raw, history, horizon, reports):
    """Recompute overall MAE and RMSE (means of per-step values) and compare."""
    targets, mean, std = test_targets_and_stats(raw, history, horizon)
    if preds.shape != targets.shape:
        return [f"metrics: prediction shape {preds.shape} vs targets {targets.shape}"]
    err = (preds * std + mean) - targets
    mae = float(np.mean(np.abs(err).mean(axis=(0, 2, 3))))
    rmse = float(np.mean(np.sqrt((err ** 2).mean(axis=(0, 2, 3)))))
    failures = []
    for label, report in reports.items():
        for key, want in (("mae", mae), ("rmse", rmse)):
            e = _rel_err(report["overall"][key], want)
            if e > REL_TOL:
                failures.append(f"metrics: {label} {key} {report['overall'][key]!r} vs recomputed {want!r}")
    return failures


def _spot_check(f, base, tensor, flat_index, analytic, label):
    """Central difference at one coordinate; a kink of |.| or relu inside the
    step breaks the central difference but not the one-sided difference on
    the kink-free side, so either agreeing counts, at either step size."""
    flat = tensor.data.reshape(-1)
    orig = flat[flat_index]
    errs = []
    try:
        for step in GRAD_STEPS:
            flat[flat_index] = orig + step
            hi = f().item()
            flat[flat_index] = orig - step
            lo = f().item()
            flat[flat_index] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                return [f"gradient: {label} non-finite loss under perturbation"]
            for numeric in ((hi - lo) / (2 * step), (hi - base) / step, (base - lo) / step):
                errs.append(abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric)))
            if min(errs) <= GRAD_TOL:
                return []
    finally:
        flat[flat_index] = orig
    return [f"gradient: {label} analytic {analytic:.6e}, best relative error {min(errs):.3e}"]


def check_gradients(f, params, paths, stage):
    """Spot-check the largest-gradient coordinate of each listed parameter;
    one list of failure messages per coordinate."""
    params.zero_grad()
    loss = f()
    base = loss.item()
    if not np.isfinite(base):
        return [[f"gradient: {stage} loss is not finite"]] * len(paths)
    ad.backward(loss)
    grads = {p: params[p].grad.copy() for p in paths}
    results = []
    for path in paths:
        idx = int(np.argmax(np.abs(grads[path])))
        results.append(_spot_check(f, base, params[path], idx, float(grads[path].reshape(-1)[idx]),
                                   f"{stage} d/d {path}[{idx}]"))
    return results


def gradient_checks(workload, cfg, splits, g, state):
    """Pretrain loss under a fixed MaskPlan and the fine-tune loss, at the
    workload's own batch, node and hidden sizes, on the trained parameters."""
    xs, ys = stack_windows(splits.train[:cfg.batch_size])
    rng = np.random.default_rng(cfg.seed)
    mask_graph = None
    if cfg.graph_mode == "adaptive":
        snapshot = adaptive_adjacency(state.params["node_embeddings"]).data
        mask_graph = sparsify_topk(snapshot, min(cfg.topk, g.n_nodes - 1))
    sample_graph = mask_graph if mask_graph is not None else g
    edges, _ = masking.trace_spatial_mask(sample_graph, cfg.p_s, cfg.walk_config(), rng)
    n_patches = cfg.history // cfg.patch_length
    patch_mask = np.arange(n_patches) % 2 == 0
    plan = MaskPlan(masked_edges=edges, patch_mask=patch_mask, p_s=cfg.p_s, p_t=cfg.p_t,
                    patch_length=cfg.patch_length)
    negatives = (training.sample_negative_edges(sample_graph, len(edges), rng)
                 if cfg.negative_sampling else None)

    def pretrain_loss():
        return training.pretrain_forward(xs, g, state, cfg, plan, negative_edges=negatives,
                                         mask_graph=mask_graph)[0]

    def finetune_loss():
        return training.loss_pred(forecast(xs, g, state), ys)

    return (check_gradients(pretrain_loss, state.params, workload.pretrain_coords, "pretrain")
            + check_gradients(finetune_loss, state.params, workload.finetune_coords, "finetune"))


def check_curve(curve):
    """Every loss and validation MAE finite; the last pretrain epoch's loss
    below the first's. Pretraining replays the same masks and batch order
    every epoch, so its epoch losses share one objective; fine-tuning
    reshuffles, so its epoch losses are not compared."""
    failures = [f"curve: {p.stage} epoch {p.epoch} non-finite value" for p in curve
                if not np.isfinite(p.train_loss) or (p.val_mae is not None and not np.isfinite(p.val_mae))]
    losses = [p.train_loss for p in curve if p.stage == "pretrain"]
    if len(losses) < 2 or not losses[-1] < losses[0]:
        failures.append(f"curve: pretrain losses {losses} do not fall from first to last epoch")
    return failures


def check_mask_plan(plan, sample_graph, p_s):
    """The sampled edge mask has exactly mask_target_size edges, all in the sampling graph."""
    target = masking.mask_target_size(sample_graph.n_edges, p_s)
    outside = plan.masked_edges - sample_graph.edge_set()
    if len(plan.masked_edges) != target or outside:
        return [f"mask: {len(plan.masked_edges)} edges (target {target}), {len(outside)} outside the graph"]
    return []


def check_rounds_identical(first, later):
    """A later round repeats the first bit for bit: curve, report, predictions."""
    failures = []
    if later["result"].curve != first["result"].curve:
        failures.append("rounds: learning curve differs from the first round")
    if later["result"].report != first["result"].report:
        failures.append("rounds: test report differs from the first round")
    if not np.array_equal(later["preds"], first["preds"]):
        failures.append("rounds: predictions differ from the first round")
    return failures

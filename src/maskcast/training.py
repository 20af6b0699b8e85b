"""Two-stage learning: masked-reconstruction pretraining, then forecasting
fine-tuning. Also hosts the loss functions and the validation-driven grid
search.
"""

import itertools
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import masking
from .data import stack_windows
from .graph import (adaptive_adjacency, normalize_dense, sparsify_topk,
                    WalkConfig)
from .masking import (apply_spatial_mask, apply_temporal_mask,
                      edge_mask_matrix,
                      sample_temporal_mask, sample_uniform_spatial_mask,
                      sample_uniform_temporal_mask, temporal_mask_entries)
from .model import (EncoderConfig, ModelState, embed_input, encoder_forward,
                    forecast, model_adjacency, spatial_decoder,
                    temporal_decoder)
from .seeding import stream

VARIANTS = ("full", "NT", "NS", "U", "baseline")


@dataclass
class RunConfig:
    """Every hyperparameter of a pretrain / fine-tune / evaluate run."""

    p_s: float = 0.3
    p_t: float = 0.3
    patch_length: int = 2
    walk_p: float = 1.0
    walk_q: float = 1.0
    walk_length: int = 8
    lam: float = 1.0
    pretrain_epochs: int = 100
    finetune_epochs: int = 100
    batch_size: int = 16
    lr: float = 1e-3
    lr_decay: str = "none"  # "cosine" anneals to 0 within each stage
    seed: int = 0
    variant: str = "full"
    graph_mode: str = "predefined"
    negative_sampling: bool = False
    history: int = 12
    horizon: int = 12
    input_dim: int = 1
    hidden_dim: int = 16
    node_embed_dim: int = 8
    topk: int = 8

    def validate(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not (0 <= self.p_s <= 1):
            raise ValueError(f"p_s must be in [0, 1], got {self.p_s}")
        if not (0 <= self.p_t < 1):
            raise ValueError(f"p_t must be in [0, 1), got {self.p_t}")
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if self.pretrain_epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.history % self.patch_length != 0:
            raise ValueError(
                f"history {self.history} must be divisible by patch_length {self.patch_length}"
            )
        if self.walk_p <= 0 or self.walk_q <= 0:
            raise ValueError("walk parameters must be positive")
        if self.graph_mode not in ("predefined", "adaptive"):
            raise ValueError(f"unknown graph_mode {self.graph_mode!r}")
        if self.lr_decay not in ("none", "cosine"):
            raise ValueError(f"unknown lr_decay {self.lr_decay!r}")
        return self

    def encoder_config(self, n_nodes):
        return EncoderConfig(
            hidden_dim=self.hidden_dim,
            input_dim=self.input_dim,
            history=self.history,
            horizon=self.horizon,
            n_nodes=n_nodes,
            graph_mode=self.graph_mode,
            node_embed_dim=self.node_embed_dim,
            topk=self.topk,
        )

    def walk_config(self):
        return WalkConfig(p=self.walk_p, q=self.walk_q, walk_length=self.walk_length)

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def loss_pred(y_hat, y):
    """Mean absolute error over every element."""
    yt = y if isinstance(y, Tensor) else Tensor(y)
    if y_hat.shape != yt.shape:
        raise ad.ShapeError(f"loss_pred: shapes {tuple(y_hat.shape)} vs {tuple(yt.shape)}")
    return ad.tmean(ad.tabs(ad.sub(y_hat, yt)))


def loss_spatial(a_hat, masked_edges, negative_edges=None):
    """Mean -log A_hat over masked undirected pairs (each counted once, u < v).

    ``a_hat`` may be [N, N] or batched [B, N, N]; batched entries average
    over the batch too. With negatives supplied, non-edges contribute
    -log(1 - A_hat) and the mean runs over both sets.
    """
    if not masked_edges:
        return Tensor(0.0)
    n = a_hat.shape[-1]
    batch = int(np.prod(a_hat.shape[:-2])) if len(a_hat.shape) > 2 else 1

    def flat_indices(pairs):
        idx = []
        for b in range(batch):
            base = b * n * n
            for u, v in pairs:
                u, v = (u, v) if u < v else (v, u)
                idx.append(base + u * n + v)
        return np.asarray(idx, dtype=np.int64)

    pos = ad.tsum(ad.tlog(ad.gather_flat(a_hat, flat_indices(sorted(masked_edges)))))
    count = batch * len(masked_edges)
    if negative_edges:
        neg_vals = ad.gather_flat(a_hat, flat_indices(sorted(negative_edges)))
        neg = ad.tsum(ad.tlog(ad.sub(Tensor(1.0), neg_vals)))
        pos = ad.add(pos, neg)
        count += batch * len(negative_edges)
    return ad.scale(pos, -1.0 / count)


def loss_temporal(x_hat, x, patch_mask):
    """Mean absolute error over entries belonging to masked patches only."""
    xt = x if isinstance(x, Tensor) else Tensor(x)
    if x_hat.shape != xt.shape:
        raise ad.ShapeError(f"loss_temporal: shapes {tuple(x_hat.shape)} vs {tuple(xt.shape)}")
    mask = np.asarray(patch_mask, dtype=bool)
    if not mask.any():
        return Tensor(0.0)
    h, n, c = x_hat.shape[-3:]
    entries = temporal_mask_entries(mask, h, n, c)
    batch = int(np.prod(x_hat.shape[:-3])) if len(x_hat.shape) > 3 else 1
    count = batch * entries.sum()
    masked_abs = ad.mul(ad.tabs(ad.sub(x_hat, xt)), Tensor(entries))
    return ad.scale(ad.tsum(masked_abs), 1.0 / count)


def loss_pretrain(l_spatial, l_temporal, lam):
    """lambda * spatial reconstruction loss + temporal reconstruction loss."""
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    return ad.add(ad.scale(l_spatial, lam), l_temporal)


# ---------------------------------------------------------------------------
# Mask plan sampling per variant
# ---------------------------------------------------------------------------

def sample_mask_plan(cfg, mask_graph, rng_spatial, rng_temporal, audit=None):
    """Fresh MaskPlan for one batch, honoring the configured variant."""
    variant = cfg.variant
    walks = []
    if variant in ("full", "NT") and cfg.p_s > 0:
        masked_edges, walks = masking.trace_spatial_mask(
            mask_graph, cfg.p_s, cfg.walk_config(), rng_spatial)
        _count(audit, "walk_spatial")
    elif variant == "U" and cfg.p_s > 0:
        masked_edges = sample_uniform_spatial_mask(mask_graph, cfg.p_s, rng_spatial)
        _count(audit, "uniform_spatial")
    else:
        masked_edges = set()

    if variant in ("full", "NS") and cfg.p_t > 0:
        n_patches = cfg.history // cfg.patch_length
        patch_mask = sample_temporal_mask(n_patches, cfg.p_t, rng_temporal)
        patch_length = cfg.patch_length
        _count(audit, "patch_temporal")
    elif variant == "U" and cfg.p_t > 0:
        patch_mask = sample_uniform_temporal_mask(cfg.history, cfg.p_t, rng_temporal)
        patch_length = 1
        _count(audit, "uniform_temporal")
    else:
        patch_mask = np.zeros(cfg.history // cfg.patch_length, dtype=bool)
        patch_length = cfg.patch_length

    return masking.MaskPlan(masked_edges=masked_edges, patch_mask=patch_mask,
                            p_s=cfg.p_s, p_t=cfg.p_t, patch_length=patch_length,
                            walks=walks)


def _count(audit, key):
    if audit is not None:
        audit[key] = audit.get(key, 0) + 1


def sample_negative_edges(mask_graph, count, rng):
    """Uniformly sampled non-edges (u < v), as many as requested."""
    n = mask_graph.n_nodes
    present = mask_graph.edge_set()
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    if not candidates:
        return []
    picks = rng.choice(len(candidates), size=min(count, len(candidates)), replace=False)
    return [candidates[i] for i in picks]


# ---------------------------------------------------------------------------
# Single optimization steps
# ---------------------------------------------------------------------------

def pretrain_forward(x_batch, g, state, cfg, plan, negative_edges=None, mask_graph=None):
    """Masked forward pass; returns (total, spatial, temporal) loss tensors."""
    params = state.params
    x = Tensor(x_batch)
    x_emb = embed_input(x, params)
    if plan.patch_mask.any():
        x_emb = apply_temporal_mask(x_emb, plan.patch_mask, params["mask_token"])

    if cfg.graph_mode == "adaptive":
        adjacency = adaptive_adjacency(params["node_embeddings"])
        if plan.masked_edges:
            adjacency = ad.mul(adjacency, Tensor(edge_mask_matrix(g.n_nodes, plan.masked_edges)))
    else:
        base = mask_graph if mask_graph is not None else g
        masked_adj = apply_spatial_mask(base, plan.masked_edges) if plan.masked_edges else base.adjacency
        adjacency = Tensor(normalize_dense(masked_adj))

    s = encoder_forward(x_emb, adjacency, params)

    if plan.masked_edges:
        a_hat = spatial_decoder(s, params)
        l_a = loss_spatial(a_hat, plan.masked_edges, negative_edges)
    else:
        l_a = Tensor(0.0)
    if plan.patch_mask.any():
        x_hat = temporal_decoder(s, state.config, params)
        l_x = loss_temporal(x_hat, x, plan.patch_mask)
    else:
        l_x = Tensor(0.0)
    return loss_pretrain(l_a, l_x, cfg.lam), l_a, l_x


def pretrain_step(x_batch, g, state, cfg, optimizer, rngs, mask_graph=None, audit=None):
    """One masked-reconstruction update on a batch of history windows."""
    sample_graph = mask_graph if mask_graph is not None else g
    plan = sample_mask_plan(cfg, sample_graph, rngs["spatial-mask"], rngs["temporal-mask"], audit)
    negatives = None
    if cfg.negative_sampling and plan.masked_edges:
        negatives = sample_negative_edges(sample_graph, len(plan.masked_edges), rngs["negative"])
    loss, l_a, l_x = pretrain_forward(x_batch, g, state, cfg, plan,
                                      negative_edges=negatives, mask_graph=mask_graph)
    state.params.zero_grad()
    ad.backward(loss)
    optimizer.step()
    return loss.item(), l_a.item(), l_x.item(), plan


def finetune_step(x_batch, y_batch, g, state, cfg, optimizer):
    """One forecasting update on complete, unmasked windows."""
    y_hat = forecast(x_batch, g, state)
    loss = loss_pred(y_hat, y_batch)
    state.params.zero_grad()
    ad.backward(loss)
    optimizer.step()
    return loss.item()


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

@dataclass
class CurvePoint:
    stage: str
    epoch: int
    train_loss: float
    val_mae: float = None  # pretraining epochs have no forecasting metric


@dataclass
class RunResult:
    config: RunConfig
    state: ModelState
    report: dict
    curve: list
    best_val_mae: float
    sampler_calls: dict = field(default_factory=dict)
    final_pretrain_temporal_mae: float = None
    pretrain_loss_totals: dict = field(default_factory=dict)  # accumulated spatial/temporal


def predict_windows(windows, g, state, batch_size=64):
    """Forecasts for a list of window pairs, stacked to [W, F, N, C]."""
    xs, _ = stack_windows(windows)
    outs = []
    for lo in range(0, len(xs), batch_size):
        outs.append(forecast(xs[lo:lo + batch_size], g, state).data)
    return np.concatenate(outs, axis=0)


def _stage_lr(cfg, epoch, total):
    """Learning rate for one epoch: constant, or cosine-annealed to zero."""
    if cfg.lr_decay == "cosine":
        return cfg.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / total))
    return cfg.lr


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo:lo + batch_size]


def validation_mae(splits, g, state):
    from .evaluation import metrics  # local import to avoid a module cycle
    _, ys = stack_windows(splits.val)
    preds = predict_windows(splits.val, g, state)
    report = metrics(preds, ys, denorm=splits.denormalize)
    return report["overall"]["mae"]


def _check_finite(value, what, stage, epoch, step=None):
    """Stop a diverged run before a non-finite value reaches the artifacts."""
    if not np.isfinite(value):
        where = f"{stage} epoch {epoch}" + ("" if step is None else f" step {step}")
        raise ValueError(f"{where}: non-finite {what} {value}")


def run_two_stage(cfg, splits, g, log=None, initial_values=None, skip_pretrain=False):
    """Pretrain (unless variant is baseline), fine-tune, evaluate on test.

    Returns the best-validation-MAE checkpoint and the per-epoch curve log.
    ``initial_values`` warm-starts from a checkpoint; ``skip_pretrain`` runs
    the fine-tuning stage only (the CLI finetune path).
    """
    from .evaluation import metrics

    cfg.validate()
    state = ModelState.initialize(cfg.encoder_config(g.n_nodes), stream(cfg.seed, "init"))
    if initial_values is not None:
        state.params.load_values(initial_values)
    rngs = {
        "spatial-mask": stream(cfg.seed, "spatial-mask"),
        "temporal-mask": stream(cfg.seed, "temporal-mask"),
        "negative": stream(cfg.seed, "negative"),
        "batch-order": stream(cfg.seed, "batch-order"),
    }
    xs_train, ys_train = stack_windows(splits.train)
    curve = []
    audit = {}
    final_temporal_mae = None
    loss_totals = {"spatial": 0.0, "temporal": 0.0}

    if cfg.variant != "baseline" and cfg.pretrain_epochs > 0 and not skip_pretrain:
        optimizer = ad.Adam(state.params, lr=cfg.lr)
        for epoch in range(cfg.pretrain_epochs):
            optimizer.lr = _stage_lr(cfg, epoch, cfg.pretrain_epochs)
            # every epoch replays the same batch order and mask sequence, so
            # the epoch loss is measured on a fixed objective and successive
            # epochs are directly comparable
            rngs["spatial-mask"] = stream(cfg.seed, "spatial-mask")
            rngs["temporal-mask"] = stream(cfg.seed, "temporal-mask")
            rngs["negative"] = stream(cfg.seed, "negative")
            rngs["batch-order"] = stream(cfg.seed, "batch-order")
            mask_graph = None
            if cfg.graph_mode == "adaptive":
                snapshot = adaptive_adjacency(state.params["node_embeddings"]).data
                mask_graph = sparsify_topk(snapshot, min(cfg.topk, g.n_nodes - 1))
            losses, temporal_losses = [], []
            for step, idx in enumerate(_batches(len(xs_train), cfg.batch_size, rngs["batch-order"])):
                loss, l_a, l_x, plan = pretrain_step(
                    xs_train[idx], g, state, cfg, optimizer, rngs,
                    mask_graph=mask_graph, audit=audit)
                _check_finite(loss, "loss", "pretrain", epoch, step)
                losses.append(loss)
                loss_totals["spatial"] += abs(l_a)
                loss_totals["temporal"] += abs(l_x)
                if plan.patch_mask.any():
                    temporal_losses.append(l_x)
            epoch_loss = float(np.mean(losses))
            if temporal_losses:
                final_temporal_mae = float(np.mean(temporal_losses))
            curve.append(CurvePoint("pretrain", epoch, epoch_loss))
            if log:
                log(f"pretrain epoch {epoch}: loss {epoch_loss:.6f}")

    optimizer = ad.Adam(state.params, lr=cfg.lr, frozen=ModelState.PRETRAIN_ONLY)
    best_val = np.inf
    best_values = state.params.copy_values()
    for epoch in range(cfg.finetune_epochs):
        optimizer.lr = _stage_lr(cfg, epoch, cfg.finetune_epochs)
        losses = []
        for step, idx in enumerate(_batches(len(xs_train), cfg.batch_size, rngs["batch-order"])):
            losses.append(finetune_step(xs_train[idx], ys_train[idx], g, state, cfg, optimizer))
            _check_finite(losses[-1], "loss", "finetune", epoch, step)
        val_mae = validation_mae(splits, g, state)
        _check_finite(val_mae, "validation MAE", "finetune", epoch)
        epoch_loss = float(np.mean(losses))
        curve.append(CurvePoint("finetune", epoch, epoch_loss, val_mae))
        if val_mae < best_val:
            best_val = val_mae
            best_values = state.params.copy_values()
        if log:
            log(f"finetune epoch {epoch}: loss {epoch_loss:.6f} val MAE {val_mae:.6f}")

    state.params.load_values(best_values)
    if cfg.finetune_epochs == 0:
        best_val = validation_mae(splits, g, state)

    _, ys_test = stack_windows(splits.test)
    preds = predict_windows(splits.test, g, state)
    report = metrics(preds, ys_test, denorm=splits.denormalize)
    report["variant"] = cfg.variant
    report["seed"] = cfg.seed
    return RunResult(config=cfg, state=state, report=report, curve=curve,
                     best_val_mae=float(best_val), sampler_calls=audit,
                     final_pretrain_temporal_mae=final_temporal_mae,
                     pretrain_loss_totals=loss_totals)


def grid_search(splits, g, base_cfg, grids, log=None):
    """Lowest-validation-MAE cell over the cartesian grid.

    ``grids`` maps RunConfig field names to candidate value lists. Ties break
    by lower p_s, then lower p_t, then declaration order.
    """
    if not grids or any(len(v) == 0 for v in grids.values()):
        raise ValueError("grid_search: grids must be nonempty")
    keys = list(grids)
    best = None
    for index, combo in enumerate(itertools.product(*(grids[k] for k in keys))):
        cfg = replace(base_cfg, **dict(zip(keys, combo)))
        result = run_two_stage(cfg, splits, g)
        key = (result.best_val_mae, cfg.p_s, cfg.p_t, index)
        if log:
            log(f"grid cell {dict(zip(keys, combo))}: val MAE {result.best_val_mae:.6f}")
        if best is None or key < best[0]:
            best = (key, cfg)
    return best[1]


def curve_to_csv_rows(curve):
    """stage,epoch,train_loss,val_mae rows for the learning-curve log."""
    rows = [["stage", "epoch", "train_loss", "val_mae"]]
    for point in curve:
        val = "" if point.val_mae is None else repr(point.val_mae)
        rows.append([point.stage, point.epoch, repr(point.train_loss), val])
    return rows

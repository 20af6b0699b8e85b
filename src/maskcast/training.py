"""Two-stage learning: masked-reconstruction pretraining, then forecasting
fine-tuning, then the test report, alone or over a grid of configs (the
variant ablation, the (p_s, p_t) sweep). Also hosts the loss functions.
"""

import itertools
import numbers
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import masking
from .data import stack_windows
from .evaluation import metrics
from .graph import WalkConfig
from .masking import sample_temporal_mask, sample_uniform_spatial_mask, step_mask
from .model import (EncoderConfig, ModelState, encoder_forward,
                    forecast, mask_sampling_graph, model_adjacency,
                    spatial_decoder, temporal_decoder)
from .seeding import stream

VARIANTS = ("full", "NT", "NS", "U", "baseline")


class ConfigError(ValueError):
    """A configuration value of the wrong type or out of range."""


# the values a RunConfig field of each annotated type accepts; a bool is neither a count nor a rate
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}
# smallest allowed value of each integer field that counts something
_MINIMUM = {"patch_length": 1, "walk_length": 2, "pretrain_epochs": 0, "finetune_epochs": 0,
            "batch_size": 1, "seed": 0, "history": 1, "horizon": 1, "input_dim": 1,
            "hidden_dim": 1, "node_embed_dim": 1, "topk": 1}
_POSITIVE = ("walk_p", "walk_q", "lr")  # float fields that must be above zero


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
        """Check every field's type and range; a bad value raises ConfigError."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _ACCEPTS[f.type]) or (isinstance(value, bool) and f.type is not bool):
                raise ConfigError(f"{f.name} must be {f.type.__name__}, got {value!r}")
            if f.type is float:
                if not abs(value) <= sys.float_info.max:  # NaN compares false
                    raise ConfigError(f"{f.name} must be a finite float, got {value!r}")
                # stored as a float, so 1 and 1.0 serialise and print alike
                value = float(value)
                setattr(self, f.name, value)
            if f.name in _MINIMUM and value < _MINIMUM[f.name]:
                raise ConfigError(f"{f.name} must be at least {_MINIMUM[f.name]}, got {value!r}")
            if f.name in _POSITIVE and value <= 0:
                raise ConfigError(f"{f.name} must be positive, got {value!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not (0 <= self.p_s <= 1):
            raise ConfigError(f"p_s must be in [0, 1], got {self.p_s}")
        if not (0 <= self.p_t < 1):
            raise ConfigError(f"p_t must be in [0, 1), got {self.p_t}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be nonnegative, got {self.lam}")
        if self.history % self.patch_length != 0:
            raise ConfigError(
                f"history {self.history} must be divisible by patch_length {self.patch_length}"
            )
        if self.graph_mode not in ("predefined", "adaptive"):
            raise ConfigError(f"unknown graph_mode {self.graph_mode!r}")
        if self.lr_decay not in ("none", "cosine"):
            raise ConfigError(f"unknown lr_decay {self.lr_decay!r}")
        return self

    def encoder_config(self, n_nodes):
        """The model's shape: every EncoderConfig field is a RunConfig field, except ``n_nodes``."""
        shared = {f.name: getattr(self, f.name) for f in fields(EncoderConfig) if f.name != "n_nodes"}
        return EncoderConfig(n_nodes=n_nodes, **shared)

    def walk_config(self):
        return WalkConfig(p=self.walk_p, q=self.walk_q, walk_length=self.walk_length)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def loss_pred(y_hat, y):
    """Mean absolute error over every element of the target array ``y``."""
    yt = Tensor(y)
    if y_hat.shape != yt.shape:
        raise ad.ShapeError(f"loss_pred: shapes {tuple(y_hat.shape)} vs {tuple(yt.shape)}")
    return ad.tmean(ad.tabs(ad.sub(y_hat, yt)))


def loss_spatial(a_hat, masked_edges, negative_edges=None, logits=False):
    """Mean -log A_hat over masked undirected pairs (each counted once, u < v).

    ``a_hat`` may be [N, N] or batched [B, N, N]. With negatives supplied,
    non-edges contribute -log(1 - A_hat). One gather picks the masked edges,
    then the negatives, for each batch item; a sign s, +1 at an edge and -1
    at a negative, gives each pair its term, and the mean runs over
    B * (|masked| + |negatives|) entries. With ``logits``, ``a_hat`` holds
    logits x and A_hat is sigmoid(x), so the loss is finite at any finite x.
    """
    if not masked_edges:
        return Tensor(0.0)
    n = a_hat.shape[-1]
    batch = int(np.prod(a_hat.shape[:-2])) if len(a_hat.shape) > 2 else 1
    negatives = sorted(negative_edges or ())
    # sorted pairs, each as (min, max), repeated per batch item
    lo_hi = np.sort(np.asarray(sorted(masked_edges) + negatives, dtype=np.int64), axis=1)
    flat = np.ravel_multi_index((np.arange(batch)[:, None], *lo_hi.T), (batch, n, n)).reshape(-1)
    sign = np.tile(np.repeat([1.0, -1.0], [len(masked_edges), len(negatives)]), batch)
    scored = ad.gather_flat(a_hat, flat)
    if logits:
        # -log sigmoid(x) = softplus(-x) and -log(1 - sigmoid(x)) = softplus(x)
        nll = ad.softplus(ad.mul(scored, Tensor(-sign)))
    else:
        # s p + (1 - s) / 2 is p at an edge and 1 - p at a negative
        nll = ad.scale(ad.tlog(ad.add(ad.mul(scored, Tensor(sign)), Tensor((1.0 - sign) / 2))), -1.0)
    return ad.scale(ad.tsum(nll), 1.0 / len(flat))


def loss_temporal(x_hat, x, patch_mask):
    """Mean absolute error against the window array ``x``, over entries
    belonging to masked patches only."""
    xt = Tensor(x)
    if x_hat.shape != xt.shape:
        raise ad.ShapeError(f"loss_temporal: shapes {tuple(x_hat.shape)} vs {tuple(xt.shape)}")
    mask = np.asarray(patch_mask, dtype=bool)
    if not mask.any():
        return Tensor(0.0)
    h, n, c = x_hat.shape[-3:]
    steps = step_mask(mask, h)
    batch = int(np.prod(x_hat.shape[:-3])) if len(x_hat.shape) > 3 else 1
    count = batch * steps.sum() * n * c
    masked_abs = ad.mul(ad.tabs(ad.sub(x_hat, xt)), Tensor(steps))
    return ad.scale(ad.tsum(masked_abs), 1.0 / count)


def loss_pretrain(l_spatial, l_temporal, lam):
    """lambda * spatial reconstruction loss + temporal reconstruction loss."""
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
        _count(audit, "patch_temporal")
    elif variant == "U" and cfg.p_t > 0:
        patch_mask = sample_temporal_mask(cfg.history, cfg.p_t, rng_temporal)  # one step per patch
        _count(audit, "uniform_temporal")
    else:
        patch_mask = np.zeros(cfg.history // cfg.patch_length, dtype=bool)

    return masking.MaskPlan(masked_edges=masked_edges, patch_mask=patch_mask, walks=walks)


def _count(audit, key):
    if audit is not None:
        audit[key] = audit.get(key, 0) + 1


def sample_negative_edges(mask_graph, count, rng):
    """Uniformly sampled non-edges (u < v), as many as requested."""
    lo, hi = np.nonzero(np.triu(mask_graph.adjacency == 0, 1))
    if not len(lo):
        return []
    picks = rng.choice(len(lo), size=min(count, len(lo)), replace=False)
    return [(int(lo[i]), int(hi[i])) for i in picks]


# ---------------------------------------------------------------------------
# Single optimization steps
# ---------------------------------------------------------------------------

def pretrain_forward(x_batch, g, state, cfg, plan, negative_edges=None, mask_graph=None):
    """Masked forward pass; returns (total, spatial, temporal) loss tensors."""
    params = state.params
    # the plan's edges are removed from the model's adjacency; mask_graph changes
    # nothing, since adaptive mode reads only its n_nodes and predefined mode's
    # mask_graph is g itself, but perfbench/checks.py passes it by keyword
    adjacency = model_adjacency(mask_graph if mask_graph is not None else g, state,
                                plan.masked_edges)
    s = encoder_forward(x_batch, adjacency, params, plan.patch_mask)

    if plan.masked_edges:
        l_a = loss_spatial(spatial_decoder(s, params), plan.masked_edges, negative_edges,
                           logits=True)
    else:
        l_a = Tensor(0.0)
    if plan.patch_mask.any():
        x_hat = temporal_decoder(s, state.config, params)
        l_x = loss_temporal(x_hat, x_batch, plan.patch_mask)
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


def finetune_step(x_batch, y_batch, g, state, optimizer):
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


PREDICT_BATCH = 64  # windows per forecast call at inference


def predict_windows(windows, g, state):
    """Forecasts for a list of window pairs, stacked to [W, F, N, C].

    The forward runs on constant views of the parameters, so it records no
    tape and leaves every ``.grad`` as it was.
    """
    xs, _ = stack_windows(windows)
    constant = ModelState(state.config, {p: Tensor(t.data) for p, t in state.params.items()})
    outs = []
    for lo in range(0, len(xs), PREDICT_BATCH):
        outs.append(forecast(xs[lo:lo + PREDICT_BATCH], g, constant).data)
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
    _, ys = stack_windows(splits.val)
    preds = predict_windows(splits.val, g, state)
    report = metrics(preds, ys, denorm=splits.denormalize)
    return report["overall"]["mae"]


def _check_finite(value, what, stage, epoch, step=None):
    """Stop a diverged run before a non-finite value reaches the artifacts."""
    if not np.isfinite(value):
        where = f"{stage} epoch {epoch}" + ("" if step is None else f" step {step}")
        raise ValueError(f"{where}: non-finite {what} {value}")


def init_state(cfg, g):
    """Freshly initialized model for ``cfg`` on graph ``g``."""
    return ModelState.initialize(cfg.encoder_config(g.n_nodes), stream(cfg.seed, "init"))


@dataclass
class Pretraining:
    """What the pretraining stage reports besides the parameters it updated."""

    curve: list
    sampler_calls: dict
    final_temporal_mae: float
    loss_totals: dict  # accumulated spatial/temporal


@dataclass
class RunResult:
    state: ModelState
    report: dict
    curve: list
    best_val_mae: float
    pretraining: Pretraining


def pretrain(cfg, splits, g, state, log=None):
    """Stage 1: masked-reconstruction pretraining of ``state``, in place.

    The baseline variant pretrains nothing. Every epoch restarts the named
    streams, so it replays the same batch order and mask sequence: the epoch
    loss is measured on a fixed objective and epochs are directly comparable.
    """
    out = Pretraining(curve=[], sampler_calls={}, final_temporal_mae=None,
                      loss_totals={"spatial": 0.0, "temporal": 0.0})
    if cfg.variant == "baseline" or cfg.pretrain_epochs == 0:
        return out
    xs_train, _ = stack_windows(splits.train)
    optimizer = ad.Adam(state.params, lr=cfg.lr)
    for epoch in range(cfg.pretrain_epochs):
        optimizer.lr = _stage_lr(cfg, epoch, cfg.pretrain_epochs)
        rngs = {name: stream(cfg.seed, name)
                for name in ("spatial-mask", "temporal-mask", "negative", "batch-order")}
        mask_graph = mask_sampling_graph(g, state)
        losses, temporal_losses = [], []
        for step, idx in enumerate(_batches(len(xs_train), cfg.batch_size, rngs["batch-order"])):
            loss, l_a, l_x, plan = pretrain_step(
                xs_train[idx], g, state, cfg, optimizer, rngs,
                mask_graph=mask_graph, audit=out.sampler_calls)
            _check_finite(loss, "loss", "pretrain", epoch, step)
            losses.append(loss)
            out.loss_totals["spatial"] += abs(l_a)
            out.loss_totals["temporal"] += abs(l_x)
            if plan.patch_mask.any():
                temporal_losses.append(l_x)
        epoch_loss = float(np.mean(losses))
        if temporal_losses:
            out.final_temporal_mae = float(np.mean(temporal_losses))
        out.curve.append(CurvePoint("pretrain", epoch, epoch_loss))
        if log:
            log(f"pretrain epoch {epoch}: loss {epoch_loss:.6f}")
    return out


def finetune(cfg, splits, g, state, log=None):
    """Stage 2: forecasting fine-tuning of ``state``. ``forecast`` never reads
    the pretraining decoders or the mask token, so they keep their values.

    ``state`` ends at its best-validation values; returns the curve points
    and that validation MAE, which with zero epochs is the MAE of ``state``
    as given. Batches continue the "batch-order" stream where ``pretrain``
    left it, so fine-tuning its checkpoint ends where ``run_two_stage`` does.
    """
    xs_train, ys_train = stack_windows(splits.train)
    batch_order = stream(cfg.seed, "batch-order")
    if cfg.variant != "baseline" and cfg.pretrain_epochs > 0:  # pretrain did not return early
        batch_order.permutation(len(xs_train))  # the one permutation pretrain drew
    optimizer = ad.Adam(state.params, lr=cfg.lr)
    curve = []
    best_val = np.inf
    best_values = state.params.copy_values()
    for epoch in range(cfg.finetune_epochs):
        optimizer.lr = _stage_lr(cfg, epoch, cfg.finetune_epochs)
        losses = []
        for step, idx in enumerate(_batches(len(xs_train), cfg.batch_size, batch_order)):
            losses.append(finetune_step(xs_train[idx], ys_train[idx], g, state, optimizer))
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
    return curve, float(best_val)


def test_report(cfg, splits, g, state):
    """Test-split forecast metrics, tagged with the run's variant and seed."""
    _, ys_test = stack_windows(splits.test)
    preds = predict_windows(splits.test, g, state)
    report = metrics(preds, ys_test, denorm=splits.denormalize)
    report["variant"] = cfg.variant
    report["seed"] = cfg.seed
    return report


def run_two_stage(cfg, splits, g, log=None):
    """Pretrain (unless variant is baseline), fine-tune, evaluate on test.

    Returns the model at its best validation MAE, its test report, the
    curve of both stages, that MAE and the pretraining record.
    """
    cfg.validate()
    state = init_state(cfg, g)
    pre = pretrain(cfg, splits, g, state, log)
    curve, best_val = finetune(cfg, splits, g, state, log)
    return RunResult(state=state, report=test_report(cfg, splits, g, state),
                     curve=pre.curve + curve, best_val_mae=best_val, pretraining=pre)


def grid_configs(base_cfg, seeds, **axes):
    """``base_cfg`` at every combination of the axes' values and the seeds, in
    product order (the axes as given, then the seed), each one validated."""
    return [replace(base_cfg, **dict(zip(axes, values)), seed=seed).validate()
            for *values, seed in itertools.product(*axes.values(), seeds)]


def run_ablation(splits, g, base_cfg, seeds, log=None):
    """Train every masking variant per seed with identical budgets.

    Returns {"rows": per-run records, "summary": per-variant mean/std of the
    overall metrics}. All variants share splits and evaluation targets.
    """
    rows = []
    for cfg in grid_configs(base_cfg, seeds, variant=VARIANTS):
        result = run_two_stage(cfg, splits, g)
        if log:
            log(f"ablation {cfg.variant} seed {cfg.seed}: "
                f"test MAE {result.report['overall']['mae']:.6f}")
        rows.append({
            "variant": cfg.variant,
            "seed": cfg.seed,
            "mae": result.report["overall"]["mae"],
            "rmse": result.report["overall"]["rmse"],
            "mape": result.report["overall"]["mape"],
            "sampler_calls": result.pretraining.sampler_calls,
            "pretrain_loss_totals": result.pretraining.loss_totals,
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
    configs = iter(grid_configs(base_cfg, seeds, p_s=ps_grid, p_t=pt_grid))
    heat = np.zeros((len(ps_grid), len(pt_grid)))
    for i, p_s in enumerate(ps_grid):
        for j, p_t in enumerate(pt_grid):
            maes = []
            for _ in seeds:
                result = run_two_stage(next(configs), splits, g)
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

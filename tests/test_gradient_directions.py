"""Gradient checks at the shapes training runs, over every parameter at once.

Criterion 1 checks each kernel on a toy. Here a random direction v is
drawn over all parameters of a model at training shape, and the analytic
directional derivative <grad L, v> is compared with the central difference
(L(theta + eps v) - L(theta - eps v)) / 2 eps (Baydin et al., JMLR 2018):
one backward and two forwards per case. The grid covers the pretraining
and the forecasting loss, a predefined and a learned graph, and
``graph_gru`` cut into 1, 2 and 3 ranges, on a 60-node graph with B = 16,
walk and patch masks and negatives.

The step is eps = 1e-6. A central difference is a derivative only where
the loss is smooth between its two points, and the predictor's ReLU and
the losses' absolute values have kinks: at eps = 1e-5 one unit of the
predictor's ReLU changes sign inside the predefined forecasting case's
segment. The bound 1e-6 sits above the errors measured at eps = 1e-6, at
most 1.2e-9, and below those of a broken kernel: dropping one of
``graph_gru``'s gradient terms, or scaling one by 1.01, gave 5e-5 to 4e-2.
"""

import numpy as np
import pytest

from maskcast import autodiff as ad
from maskcast.data import prepare_splits, stack_windows, synthesize
from maskcast.model import forecast, mask_sampling_graph
from maskcast.training import (RunConfig, init_state, loss_pred, pretrain_forward,
                               sample_mask_plan, sample_negative_edges)

from conftest import force_ranges

BOUND = 1e-6


@pytest.fixture(scope="module")
def windows():
    dataset = synthesize(60, 400, seed=0)
    xs, ys = stack_windows(prepare_splits(dataset, 12, 12).train)
    idx = np.random.default_rng(0).choice(len(xs), size=16, replace=False)
    return xs[idx], ys[idx], dataset.graph


def losses(windows, graph_mode):
    """A fresh model and its two training losses as functions of the
    current parameter values: the masked pretraining loss, with one fixed
    mask plan and negatives, and the forecasting loss."""
    x, y, g = windows
    cfg = RunConfig(graph_mode=graph_mode, negative_sampling=True, batch_size=len(x)).validate()
    state = init_state(cfg, g)
    mask_graph = mask_sampling_graph(g, state)
    rng = np.random.default_rng(1)
    plan = sample_mask_plan(cfg, mask_graph, rng, rng)
    negatives = sample_negative_edges(mask_graph, len(plan.masked_edges), rng)
    assert plan.walks and plan.patch_mask.any() and not plan.patch_mask.all() and negatives

    def pretrain():
        return pretrain_forward(x, g, state, cfg, plan, negatives, mask_graph)[0]

    def finetune():
        return loss_pred(forecast(x, g, state), y)

    return state, {"pretrain": pretrain, "finetune": finetune}


def gradients(params, loss):
    params.zero_grad()
    ad.backward(loss())
    return {p: t.grad.copy() for p, t in params.items()}


def directional_error(params, loss, eps=1e-6):
    """Relative error |a - n| / max(1e-8, |a| + |n|) of the central
    difference n against a = <grad L, v>."""
    grads = gradients(params, loss)
    rng = np.random.default_rng(2)
    direction = {p: rng.normal(size=t.shape) for p, t in params.items()}
    analytic = sum(float(np.vdot(grads[p], v)) for p, v in direction.items())
    theta = {p: t.data for p, t in params.items()}

    def loss_at(shift):
        for p, t in params.items():
            t.data = theta[p] + shift * direction[p]
        return loss().item()

    try:
        numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
    finally:
        for p, t in params.items():
            t.data = theta[p]
    return abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))


@pytest.mark.parametrize("ranges", [1, 2, 3])
@pytest.mark.parametrize("graph_mode", ["predefined", "adaptive"])
@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
def test_directional_derivative(windows, monkeypatch, stage, graph_mode, ranges):
    force_ranges(monkeypatch, ranges)
    state, loss = losses(windows, graph_mode)
    error = directional_error(state.params, loss[stage])
    assert error < BOUND, error


@pytest.mark.parametrize("order", [("pretrain", "finetune"), ("finetune", "pretrain")])
def test_two_live_tapes(windows, monkeypatch, order):
    # both forwards run before either backward, so two calls' activations
    # are alive at once; each backward gives its loss's single-tape bits
    force_ranges(monkeypatch, 2)
    state, loss = losses(windows, "adaptive")
    single = {stage: gradients(state.params, f) for stage, f in loss.items()}
    tapes = {stage: f() for stage, f in loss.items()}
    for stage in order:
        state.params.zero_grad()
        ad.backward(tapes[stage])
        for p, t in state.params.items():
            assert t.grad.tobytes() == single[stage][p].tobytes(), (stage, p)

"""Reference finite-difference gradient suite.

Checks every kernel on randomized inputs and both training losses on a
4-node toy model. Used by the ``gradcheck`` CLI command and the acceptance
tests.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, finite_diff_check
from .graph import Graph
from .masking import MaskPlan, apply_temporal_mask
from .model import ModelState, forecast
from .training import RunConfig, loss_pred, pretrain_forward


def _rand(rng, *shape, low=-2.0, high=2.0, avoid_zero=0.0):
    x = rng.uniform(low, high, size=shape)
    if avoid_zero:
        # keep kink-free kernels away from their nondifferentiable point
        x = np.where(np.abs(x) < avoid_zero, avoid_zero, x)
    return x


def kernel_suite(seed=0):
    """Max finite-difference error per kernel, randomized inputs in [-2, 2]."""
    rng = np.random.default_rng(seed)
    results = {}

    def check(name, param_shapes, build, **kwargs):
        params = ad.ParameterTree()
        for pname, shape in param_shapes.items():
            params.add(pname, _rand(rng, *shape, **kwargs))
        # elementwise weights: a plain sum has zero gradient through softmax
        weight = Tensor(rng.uniform(0.5, 1.5, size=build(params).shape))

        def f():
            return ad.tsum(ad.mul(build(params), weight))

        results[name] = finite_diff_check(f, params)

    check("matmul", {"a": (3, 4), "b": (4, 2)}, lambda p: ad.matmul(p["a"], p["b"]))
    check("matmul-batched", {"a": (2, 3, 4), "b": (4, 2)}, lambda p: ad.matmul(p["a"], p["b"]))
    check("matmul-left-2d", {"a": (3, 4), "b": (2, 4, 2)}, lambda p: ad.matmul(p["a"], p["b"]))
    check("add-broadcast", {"a": (3, 4), "b": (4,)}, lambda p: ad.add(p["a"], p["b"]))
    check("sub", {"a": (3, 4), "b": (3, 4)}, lambda p: ad.sub(p["a"], p["b"]))
    check("mul-broadcast", {"a": (3, 4), "b": (3, 1)}, lambda p: ad.mul(p["a"], p["b"]))
    check("scale", {"a": (5,)}, lambda p: ad.scale(p["a"], -1.7))
    check("sigmoid", {"a": (3, 3)}, lambda p: ad.sigmoid(p["a"]))
    check("tanh", {"a": (3, 3)}, lambda p: ad.tanh(p["a"]))
    check("relu", {"a": (4, 4)}, lambda p: ad.relu(p["a"]), avoid_zero=0.05)
    check("row_softmax", {"a": (3, 4)}, lambda p: ad.row_softmax(p["a"]))
    check("concat", {"a": (3, 2), "b": (3, 3)}, lambda p: ad.concat([p["a"], p["b"]], axis=-1))
    check("take", {"a": (4, 3, 2)}, lambda p: ad.take(p["a"], 0, 2))
    check("gather_flat", {"a": (4, 4)}, lambda p: ad.gather_flat(p["a"], [0, 5, 10, 5]))
    check("sum", {"a": (3, 4)}, lambda p: ad.tsum(p["a"]))
    check("mean", {"a": (3, 4)}, lambda p: ad.tmean(p["a"]))
    check("abs", {"a": (4, 4)}, lambda p: ad.tabs(p["a"]), avoid_zero=0.05)
    check("log", {"a": (3, 3)}, lambda p: ad.tlog(p["a"]), low=0.2, high=2.0)
    check("transpose", {"a": (2, 3, 4)}, lambda p: ad.transpose(p["a"], (2, 0, 1)))
    check("reshape", {"a": (3, 4)}, lambda p: ad.reshape(p["a"], (2, 6)))
    check("softplus", {"a": (3, 3)}, lambda p: ad.softplus(p["a"]))

    # input width C against hidden width D, history steps masked with a
    # token; without a fixed adjacency, a learned one
    def gru(name, c, d, steps, adjacency=None):
        x = _rand(rng, 2, 4, 3, c)
        # one step per patch; the lift is data, with no gradient checked
        lift = apply_temporal_mask(x, np.isin(np.arange(4), steps))
        lift = np.pad(lift, [(0, 0)] * 3 + [(0, c + 2 - lift.shape[-1])])  # a zero token column
        shapes = {"m": (c + 2, d)}
        if adjacency is None:
            shapes["adj"] = (3, 3)
        for gate in "urc":
            shapes.update({f"w{gate}": (2 * d, d), f"b{gate}": (d,)})

        def build(p):
            adj = p["adj"] if adjacency is None else adjacency
            return ad.graph_gru(lift, p["m"], adj,
                                *(p[f"{k}{gate}"] for gate in "urc" for k in "wb"))

        check(name, shapes, build)

    gru("graph_gru", 2, 3, [0, 1])
    gru("graph_gru-wide", 3, 2, [2])
    gru("graph_gru-fixed", 2, 3, [1, 3], Tensor(rng.uniform(0.0, 0.6, size=(3, 3))))
    gru("graph_gru-unmasked", 1, 2, [])
    return results


def toy_setup(seed=0, graph_mode="predefined"):
    """4-node cycle graph, H = F = 4, D = 3, L = 2 toy instance."""
    rng = np.random.default_rng(seed)
    g = Graph(n_nodes=4, edges=[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    cfg = RunConfig(history=4, horizon=4, hidden_dim=3, patch_length=2,
                    graph_mode=graph_mode, node_embed_dim=2, topk=2, seed=seed)
    state = ModelState.initialize(cfg.encoder_config(g.n_nodes), rng)
    x = rng.uniform(-1, 1, size=(4, 4, 1))
    y = rng.uniform(-1, 1, size=(4, 4, 1))
    return g, cfg, state, x, y


def pred_loss_check(seed=0):
    """Finite-difference error of the forecasting loss on the toy model."""
    g, cfg, state, x, y = toy_setup(seed)

    def f():
        return loss_pred(forecast(x, g, state), y)

    return finite_diff_check(f, state.params)


def pretrain_loss_check(seed=0, graph_mode="predefined"):
    """Finite-difference error of the joint reconstruction loss (lambda = 1) on the toy model."""
    g, cfg, state, x, y = toy_setup(seed, graph_mode)
    plan = MaskPlan(masked_edges={(0, 1), (1, 2)}, patch_mask=np.array([True, False]))

    def f():
        return pretrain_forward(x, g, state, cfg, plan)[0]

    return finite_diff_check(f, state.params)


def reference_gradcheck(seed=0):
    """Every kernel plus both losses; returns {check name: max relative error}."""
    errors = dict(kernel_suite(seed))
    errors["loss_pred"] = pred_loss_check(seed)
    errors["loss_pretrain"] = pretrain_loss_check(seed)
    errors["loss_pretrain_adaptive"] = pretrain_loss_check(seed, graph_mode="adaptive")
    return errors

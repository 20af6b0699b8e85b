"""Compact spatial-temporal forecaster.

A single-layer graph-convolutional GRU encoder with the input embedding
inside it, an MLP predictor, and the two pretraining decoders (adjacency
head and window reconstruction head). Also the propagation matrix, with
or without masked edges, and the graph edge masks are drawn from, for
both graph modes. All forward math runs on autodiff tensors; batched
inputs [B, H, N, C] and single windows [H, N, C] are both accepted.
"""

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import adaptive_adjacency, normalize_adjacency, normalize_dense, sparsify_topk
from .masking import apply_spatial_mask, apply_temporal_mask, edge_mask_matrix


@dataclass
class EncoderConfig:
    hidden_dim: int
    input_dim: int
    history: int
    horizon: int
    n_nodes: int
    graph_mode: str  # predefined | adaptive
    node_embed_dim: int
    topk: int


class ModelState:
    """Parameter tree plus the config describing its shapes."""

    def __init__(self, config, params):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config, rng):
        """Uniform [-1/sqrt(D), 1/sqrt(D)] init for all weights; zero state handled by the encoder."""
        d = config.hidden_dim
        c = config.input_dim
        h, f = config.history, config.horizon
        bound = 1.0 / np.sqrt(d)

        def u(*shape):
            return rng.uniform(-bound, bound, size=shape)

        params = ad.ParameterTree()
        params.add("embed.w", u(c, d))
        params.add("embed.b", u(d))
        for gate in ("update", "reset", "cand"):
            params.add(f"encoder.{gate}.w", u(2 * d, d))
            params.add(f"encoder.{gate}.b", u(d))
        params.add("predictor.w1", u(d, d))
        params.add("predictor.b1", u(d))
        params.add("predictor.w2", u(d, f * c))
        params.add("predictor.b2", u(f * c))
        params.add("spatial_decoder.w", u(d, d))
        params.add("temporal_decoder.w", u(d, h * c))
        params.add("temporal_decoder.b", u(h * c))
        params.add("mask_token", u(d))
        if config.graph_mode == "adaptive":
            params.add("node_embeddings", u(config.n_nodes, config.node_embed_dim))
        return cls(config, params)

    def save(self, checkpoint_path, manifest_path):
        ad.save_checkpoint(self.params, checkpoint_path)
        with open(manifest_path, "w") as fh:
            json.dump(asdict(self.config), fh, indent=2)

    @classmethod
    def load(cls, checkpoint_path, manifest_path, config):
        """The checkpoint's model, whose manifest must match the run's ``config``
        in value and JSON type: the model scores only windows of the shape it
        was trained on."""
        with open(manifest_path) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError(f"model manifest {manifest_path}: expected a JSON object")
        run = asdict(config)
        for problem, keys in (("unknown", values.keys() - run), ("missing", run.keys() - values)):
            if keys:
                raise ValueError(f"model manifest {manifest_path}: {problem} keys {sorted(keys)}")
        for key, want in run.items():
            if type(values[key]) is not type(want) or values[key] != want:
                source = "dataset" if key == "n_nodes" else "config"
                raise ValueError(f"model manifest {manifest_path}: {key} is {values[key]!r}, "
                                 f"but the run's {source} has {key}={want!r}")
        state = cls.initialize(config, np.random.default_rng(0))
        ad.load_checkpoint(checkpoint_path, state.params)
        return state


def embed_input(x, params, patch_mask):
    """The lifted window l and the embedding matrix M of
    ``autodiff.graph_gru``, which embeds step t as l_t M:
    ``apply_temporal_mask`` lifts ``x`` [..., H, N, C], and M stacks
    ``embed.w``, ``embed.b`` and, when the lift marks masked steps, the
    mask token."""
    lift = apply_temporal_mask(x, patch_mask)
    # one row per channel the lift adds to x: the bias, then the token
    rows = [params["embed.b"], params["mask_token"]][:lift.shape[-1] - x.shape[-1]]
    return lift, ad.concat([params["embed.w"]] + [ad.reshape(r, (1,) + r.shape) for r in rows],
                           axis=0)


def encoder_forward(x, adjacency, params, patch_mask=None):
    """Embed the window array ``x`` [..., H, N, C], with the steps of masked
    patches holding the mask token, and run the gated graph-convolutional
    recurrence over the history axis, all in one ``graph_gru`` kernel.

    ``adjacency`` is the propagation matrix ``model_adjacency`` builds.
    Returns the final hidden state [..., N, D].
    """
    lift, m = embed_input(x, params, patch_mask)
    return ad.graph_gru(lift, m, adjacency,
                        params["encoder.update.w"], params["encoder.update.b"],
                        params["encoder.reset.w"], params["encoder.reset.b"],
                        params["encoder.cand.w"], params["encoder.cand.b"])


def spatial_decoder(s, params):
    """Factor SW [..., N, D] of the inner-product adjacency reconstruction
    logits (SW)(SW)^T. The edge probabilities are their sigmoid;
    ``loss_spatial`` forms the logits only at the pairs it scores, through
    ``autodiff.gram_at``."""
    return ad.matmul(s, params["spatial_decoder.w"])


def temporal_decoder(s, config, params):
    """Single affine head mapping S back to the full input window [..., H, N, C]."""
    h, c = config.history, config.input_dim
    flat = ad.add(ad.matmul(s, params["temporal_decoder.w"]), params["temporal_decoder.b"])
    return _unflatten_steps(flat, h, c)


def predictor(s, config, params):
    """Two-layer per-node MLP producing the forecast [..., F, N, C]."""
    f, c = config.horizon, config.input_dim
    hidden = ad.relu(ad.add(ad.matmul(s, params["predictor.w1"]), params["predictor.b1"]))
    flat = ad.add(ad.matmul(hidden, params["predictor.w2"]), params["predictor.b2"])
    return _unflatten_steps(flat, f, c)


def _unflatten_steps(flat, steps, channels):
    # [..., N, steps*channels] -> [..., steps, N, channels]
    lead = flat.shape[:-1]
    cube = ad.reshape(flat, lead + (steps, channels))
    ndim = len(cube.shape)
    axes = tuple(range(ndim - 3)) + (ndim - 2, ndim - 3, ndim - 1)
    return ad.transpose(cube, axes)


def model_adjacency(g, state, masked_edges=()):
    """Propagation matrix for the configured graph mode, with both entries of
    each masked edge zeroed.

    Predefined: row-normalized ``g`` with the masked edges removed. Adaptive:
    the learned row-stochastic matrix, masked after the softmax; only
    ``g.n_nodes`` is read.
    """
    if state.config.graph_mode == "adaptive":
        adjacency = adaptive_adjacency(state.params["node_embeddings"])
        if masked_edges:
            adjacency = ad.mul(adjacency, Tensor(edge_mask_matrix(g.n_nodes, masked_edges)))
        return adjacency
    if masked_edges:
        return Tensor(normalize_dense(apply_spatial_mask(g, masked_edges)))
    return Tensor(normalize_adjacency(g))


def mask_sampling_graph(g, state):
    """Graph the edge masks are drawn from: ``g``, or in adaptive mode the
    top-k sparsified snapshot of the current learned adjacency. A 1-node
    graph has no pair to link, so its masks come from ``g``."""
    if state.config.graph_mode == "adaptive" and g.n_nodes > 1:
        snapshot = adaptive_adjacency(state.params["node_embeddings"]).data
        return sparsify_topk(snapshot, min(state.config.topk, g.n_nodes - 1))
    return g


def forecast(x, g, state):
    """Full-visibility forward pass on a window array: embed, encode, predict."""
    adjacency = model_adjacency(g, state)
    s = encoder_forward(x, adjacency, state.params)
    return predictor(s, state.config, state.params)

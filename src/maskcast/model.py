"""Compact spatial-temporal forecaster.

Input embedding, a single-layer graph-convolutional GRU encoder, an MLP
predictor, and the two pretraining decoders (adjacency head and window
reconstruction head). All forward math runs on autodiff tensors; batched
inputs [B, H, N, C] and single windows [H, N, C] are both accepted.
"""

import json
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import adaptive_adjacency, normalize_adjacency


@dataclass
class EncoderConfig:
    hidden_dim: int = 16
    input_dim: int = 1
    history: int = 12
    horizon: int = 12
    n_nodes: int = 0
    graph_mode: str = "predefined"  # predefined | adaptive
    node_embed_dim: int = 8
    topk: int = 8


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

    PRETRAIN_ONLY = ("spatial_decoder.w", "temporal_decoder.w", "temporal_decoder.b", "mask_token")

    def save(self, checkpoint_path, manifest_path=None):
        ad.save_checkpoint(self.params, checkpoint_path)
        if manifest_path is not None:
            with open(manifest_path, "w") as fh:
                json.dump(asdict(self.config), fh, indent=2)

    @classmethod
    def load(cls, checkpoint_path, manifest_path):
        with open(manifest_path) as fh:
            values = json.load(fh)
        unknown = sorted(set(values) - {f.name for f in fields(EncoderConfig)})
        if unknown:
            raise ValueError(f"model manifest {manifest_path}: unknown keys {unknown}")
        config = EncoderConfig(**values)
        state = cls.initialize(config, np.random.default_rng(0))
        state.params.load_values(ad.load_checkpoint(checkpoint_path))
        return state


def embed_input(x, params):
    """Per-position affine map [..., H, N, C] -> [..., H, N, D]."""
    return ad.add(ad.matmul(x, params["embed.w"]), params["embed.b"])


def encoder_forward(x_emb, adjacency, params):
    """Gated graph-convolutional recurrence over the history axis.

    ``adjacency`` must already be row-stochastic (see ``normalize_adjacency``
    / ``adaptive_adjacency``). Returns the final hidden state [..., N, D].
    """
    return ad.graph_gru(x_emb, adjacency,
                        params["encoder.update.w"], params["encoder.update.b"],
                        params["encoder.reset.w"], params["encoder.reset.b"],
                        params["encoder.cand.w"], params["encoder.cand.b"])


def spatial_decoder(s, params):
    """Sigmoid inner-product adjacency reconstruction: sigmoid((SW)(SW)^T)."""
    sw = ad.matmul(s, params["spatial_decoder.w"])
    ndim = len(sw.shape)
    axes = tuple(range(ndim - 2)) + (ndim - 1, ndim - 2)
    return ad.sigmoid(ad.matmul(sw, ad.transpose(sw, axes)))


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


def model_adjacency(g, state):
    """Row-stochastic propagation matrix for the configured graph mode."""
    if state.config.graph_mode == "adaptive":
        return adaptive_adjacency(state.params["node_embeddings"])
    return Tensor(normalize_adjacency(g))


def forecast(x, g, state):
    """Full-visibility forward pass: embed, encode, predict."""
    xt = x if isinstance(x, Tensor) else Tensor(x)
    adjacency = model_adjacency(g, state)
    s = encoder_forward(embed_input(xt, state.params), adjacency, state.params)
    return predictor(s, state.config, state.params)

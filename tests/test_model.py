import numpy as np
import pytest

from maskcast import autodiff as ad
from maskcast.autodiff import Tensor
from maskcast.graph import Graph, adaptive_adjacency, normalize_adjacency
from maskcast.model import (EncoderConfig, ModelState, embed_input,
                            encoder_forward, forecast, predictor,
                            spatial_decoder, temporal_decoder)
from maskcast.training import RunConfig

from conftest import random_graph


def make_state(n_nodes=4, hidden_dim=3, history=4, horizon=4, seed=0, **kwargs):
    cfg = EncoderConfig(hidden_dim=hidden_dim, history=history, horizon=horizon,
                        n_nodes=n_nodes, **kwargs)
    return ModelState.initialize(cfg, np.random.default_rng(seed))


def zero_params(state, prefixes):
    for path, tensor in state.params.items():
        if any(path.startswith(p) for p in prefixes):
            tensor.data = np.zeros_like(tensor.data)


class TestEmbedInput:
    def test_zero_weights_zero_embedding(self):
        state = make_state()
        zero_params(state, ["embed."])
        x = Tensor(np.random.default_rng(0).normal(size=(4, 4, 1)))
        assert (embed_input(x, state.params).data == 0).all()

    def test_hand_affine(self):
        state = make_state(hidden_dim=2)
        state.params["embed.w"].data = np.array([[1.0, -1.0]])
        state.params["embed.b"].data = np.zeros(2)
        x = Tensor(np.full((1, 1, 1), 3.0))
        out = embed_input(x, state.params)
        assert out.data.reshape(-1).tolist() == [3.0, -3.0]


class TestEncoderForward:
    def test_zero_weights_zero_state(self, cycle_graph):
        # zero gates halve h each step from h_0 = 0, so S stays 0
        state = make_state()
        zero_params(state, ["encoder."])
        x_emb = Tensor(np.random.default_rng(1).normal(size=(4, 4, 3)))
        adj = Tensor(np.eye(4))
        s = encoder_forward(x_emb, adj, state.params)
        np.testing.assert_allclose(s.data, 0.0, atol=1e-15)

    def test_output_shape(self):
        state = make_state(n_nodes=5, hidden_dim=8, history=12)
        x_emb = Tensor(np.zeros((12, 5, 8)))
        s = encoder_forward(x_emb, Tensor(np.eye(5)), state.params)
        assert s.shape == (5, 8)

    def test_batched_output_shape(self):
        state = make_state(n_nodes=5, hidden_dim=8, history=12)
        x_emb = Tensor(np.zeros((7, 12, 5, 8)))
        s = encoder_forward(x_emb, Tensor(np.eye(5)), state.params)
        assert s.shape == (7, 5, 8)

    def test_identity_adjacency_locality(self):
        # edgeless graph -> identity propagation: node outputs are independent
        state = make_state(n_nodes=4)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 4, 3))
        adj = Tensor(np.eye(4))
        base = encoder_forward(Tensor(x), adj, state.params).data
        x_perturbed = x.copy()
        x_perturbed[:, 2, :] += 10.0
        out = encoder_forward(Tensor(x_perturbed), adj, state.params).data
        np.testing.assert_array_equal(out[0], base[0])
        np.testing.assert_array_equal(out[1], base[1])
        np.testing.assert_array_equal(out[3], base[3])
        assert not np.allclose(out[2], base[2])

    def test_permutation_equivariance(self):
        state = make_state(n_nodes=5)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5, 3))
        perm = np.array([3, 0, 4, 1, 2])
        adj = Tensor(np.eye(5))
        s = encoder_forward(Tensor(x), adj, state.params).data
        s_perm = encoder_forward(Tensor(x[:, perm]), adj, state.params).data
        np.testing.assert_allclose(s_perm, s[perm], atol=1e-12)


def reference_encoder(x_emb, adjacency, params):
    """The recurrence composed from primitive kernels, one tape node per op."""
    def graph_conv(z, gate):
        w, b = params[f"encoder.{gate}.w"], params[f"encoder.{gate}.b"]
        return ad.add(ad.matmul(ad.matmul(adjacency, z), w), b)

    one = Tensor(1.0)
    hidden = params["encoder.update.b"].shape[0]
    h = Tensor(np.zeros(x_emb.shape[:-3] + x_emb.shape[-2:-1] + (hidden,)))
    for t in range(x_emb.shape[-3]):
        x_t = ad.take(x_emb, -3, t)
        zin = ad.concat([x_t, h], axis=-1)
        u = ad.sigmoid(graph_conv(zin, "update"))
        r = ad.sigmoid(graph_conv(zin, "reset"))
        c = ad.tanh(graph_conv(ad.concat([x_t, ad.mul(r, h)], axis=-1), "cand"))
        h = ad.add(ad.mul(u, h), ad.mul(ad.sub(one, u), c))
    return h


class TestGraphGRUKernel:
    """The fused kernel against the primitive-composed reference."""

    def run(self, encoder, params, x, adjacency_of, weight):
        x_emb = Tensor(x, requires_grad=True)
        params.zero_grad()
        adjacency = adjacency_of(params)
        out = encoder(x_emb, adjacency, params)
        ad.backward(ad.tsum(ad.mul(out, Tensor(weight))))
        grads = {p: t.grad.copy() for p, t in params.items()}
        grads["x_emb"] = x_emb.grad
        return out.data, grads, adjacency

    def check(self, params, x, adjacency_of, weight):
        want, want_grads, _ = self.run(reference_encoder, params, x, adjacency_of, weight)
        got, got_grads, adjacency = self.run(encoder_forward, params, x, adjacency_of, weight)
        np.testing.assert_array_equal(got, want)
        for name, g in want_grads.items():
            np.testing.assert_allclose(got_grads[name], g, rtol=1e-12,
                                       atol=1e-12 * np.abs(g).max(), err_msg=name)
        return got_grads, adjacency

    def compare(self, lead, adjacency_of, graph_mode="predefined"):
        n, d, hist = 5, 3, 4
        state = make_state(n_nodes=n, hidden_dim=d, history=hist, seed=11,
                           graph_mode=graph_mode, node_embed_dim=2)
        rng = np.random.default_rng(12)
        x = rng.normal(size=lead + (hist, n, d))
        weight = rng.uniform(0.5, 1.5, size=lead + (n, d))
        return self.check(state.params, x, adjacency_of, weight)

    @staticmethod
    def constant(params):
        return Tensor(normalize_adjacency(random_graph(5, 6, seed=3)))

    @staticmethod
    def learned(params):
        mask = Tensor(np.ones((5, 5)) - np.eye(5)[::-1])
        return ad.mul(adaptive_adjacency(params["node_embeddings"]), mask)

    def test_batched_constant_adjacency(self):
        _, adjacency = self.compare((3,), self.constant)
        assert not adjacency.requires_grad and adjacency.grad is None

    def test_unbatched_constant_adjacency(self):
        _, adjacency = self.compare((), self.constant)
        assert adjacency.grad is None

    def test_batched_learned_adjacency(self):
        grads, _ = self.compare((3,), self.learned, graph_mode="adaptive")
        assert np.abs(grads["node_embeddings"]).max() > 0

    def test_unbatched_learned_adjacency(self):
        grads, _ = self.compare((), self.learned, graph_mode="adaptive")
        assert np.abs(grads["node_embeddings"]).max() > 0

    @pytest.mark.parametrize("adjacency_of", ["constant", "learned"])
    def test_input_width_differs_from_hidden(self, adjacency_of):
        # C = 2 input channels and D = 3 hidden units: an x-side slice taken
        # for an h-side one, in any gate input or gradient, cannot go unseen
        c, d, n, hist = 2, 3, 5, 4
        rng = np.random.default_rng(13)
        params = ad.ParameterTree()
        for gate in ("update", "reset", "cand"):
            params.add(f"encoder.{gate}.w", rng.uniform(-0.6, 0.6, size=(c + d, d)))
            params.add(f"encoder.{gate}.b", rng.uniform(-0.6, 0.6, size=d))
        params.add("node_embeddings", rng.normal(size=(n, 2)))
        x = rng.normal(size=(2, 3, hist, n, c))
        weight = rng.uniform(0.5, 1.5, size=(2, 3, n, d))
        grads, _ = self.check(params, x, getattr(self, adjacency_of), weight)
        assert grads["x_emb"].shape == x.shape
        assert (np.abs(grads["node_embeddings"]).max() > 0) == (adjacency_of == "learned")

    def test_shape_mismatch_names_kernel(self):
        state = make_state(n_nodes=4, hidden_dim=3)
        with pytest.raises(ad.ShapeError, match="graph_gru"):
            encoder_forward(Tensor(np.zeros((4, 4, 3))), Tensor(np.eye(5)), state.params)


class TestSpatialDecoder:
    def test_zero_state_gives_half(self):
        state = make_state()
        out = spatial_decoder(Tensor(np.zeros((4, 3))), state.params)
        np.testing.assert_array_equal(out.data, np.full((4, 4), 0.5))

    def test_hand_example(self):
        state = make_state(hidden_dim=1)
        state.params["spatial_decoder.w"].data = np.array([[1.0]])
        out = spatial_decoder(Tensor([[1.0], [2.0]]), state.params)
        expected = 1 / (1 + np.exp(-np.array([[1.0, 2.0], [2.0, 4.0]])))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_symmetric_and_in_open_interval(self):
        state = make_state(n_nodes=6, hidden_dim=4)
        s = Tensor(np.random.default_rng(4).normal(size=(6, 4)))
        out = spatial_decoder(s, state.params).data
        assert np.abs(out - out.T).max() < 1e-12
        assert (out > 0).all() and (out < 1).all()


class TestTemporalDecoder:
    def test_zero_weights_zero_output(self):
        state = make_state()
        zero_params(state, ["temporal_decoder."])
        out = temporal_decoder(Tensor(np.ones((4, 3))), state.config, state.params)
        assert (out.data == 0).all()
        assert out.shape == (4, 4, 1)

    def test_hand_affine(self):
        state = make_state(n_nodes=1, hidden_dim=1, history=2)
        state.params["temporal_decoder.w"].data = np.array([[1.0, -1.0]])
        state.params["temporal_decoder.b"].data = np.zeros(2)
        out = temporal_decoder(Tensor([[3.0]]), state.config, state.params)
        assert out.data[:, 0, 0].tolist() == [3.0, -3.0]


class TestPredictor:
    def test_zero_weights_bias_broadcast(self):
        state = make_state()
        zero_params(state, ["predictor.w"])
        state.params["predictor.b1"].data = np.zeros(3)
        state.params["predictor.b2"].data = np.arange(4.0)  # F * C = 4
        out = predictor(Tensor(np.random.default_rng(5).normal(size=(4, 3))),
                        state.config, state.params)
        np.testing.assert_array_equal(out.data[:, 0, 0], np.arange(4.0))
        np.testing.assert_array_equal(out.data[:, 2, 0], np.arange(4.0))

    def test_output_shape_default_horizon(self):
        state = make_state(n_nodes=5, hidden_dim=8, history=12, horizon=12)
        out = predictor(Tensor(np.zeros((5, 8))), state.config, state.params)
        assert out.shape == (12, 5, 1)


class TestForecast:
    def test_deterministic(self, cycle_graph):
        state = make_state()
        x = np.random.default_rng(6).normal(size=(4, 4, 1))
        a = forecast(x, cycle_graph, state).data
        b = forecast(x, cycle_graph, state).data
        assert (a == b).all()

    def test_window_shapes(self):
        g = random_graph(5, 7, seed=0)
        state = make_state(n_nodes=5, history=12, horizon=12)
        x = np.zeros((12, 5, 1))
        assert forecast(x, g, state).shape == (12, 5, 1)

    def test_adaptive_zero_embeddings_uniform_rows(self):
        from maskcast.graph import adaptive_adjacency

        g = random_graph(4, 4, seed=1)
        state = make_state(graph_mode="adaptive", node_embed_dim=2)
        state.params["node_embeddings"].data = np.zeros((4, 2))
        adj = adaptive_adjacency(state.params["node_embeddings"])
        np.testing.assert_allclose(adj.data, 0.25)
        # and the forward pass runs end to end in adaptive mode
        assert forecast(np.zeros((4, 4, 1)), g, state).shape == (4, 4, 1)

    def test_invariant_to_mask_token(self, cycle_graph):
        state = make_state()
        x = np.random.default_rng(7).normal(size=(4, 4, 1))
        before = forecast(x, cycle_graph, state).data.copy()
        state.params["mask_token"].data = np.full(3, 123.0)
        after = forecast(x, cycle_graph, state).data
        np.testing.assert_array_equal(before, after)


class TestModelStateIO:
    def test_checkpoint_with_manifest_round_trip(self, tmp_path):
        state = make_state(n_nodes=6, hidden_dim=5, history=8, horizon=4, seed=9)
        ckpt = tmp_path / "ckpt.json"
        manifest = tmp_path / "model.json"
        state.save(ckpt, manifest)
        loaded = ModelState.load(ckpt, manifest)
        assert loaded.config == state.config
        for path, tensor in state.params.items():
            assert (loaded.params[path].data == tensor.data).all()

    def test_config_history_patch_compatibility(self):
        cfg = RunConfig(history=12, patch_length=5)
        with pytest.raises(ValueError, match="divisible"):
            cfg.validate()

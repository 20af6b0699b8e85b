import os
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from maskcast import autodiff as ad
from maskcast.autodiff import Tensor
from maskcast.graph import (Graph, WalkConfig, adaptive_adjacency,
                            normalize_adjacency, normalize_dense, sparsify_topk)
from maskcast.masking import apply_temporal_mask, step_mask, trace_spatial_mask
from maskcast.model import (EncoderConfig, ModelState, embed_input,
                            encoder_forward, forecast, mask_sampling_graph,
                            model_adjacency, predictor, spatial_decoder,
                            temporal_decoder)
from maskcast.training import RunConfig

from conftest import force_ranges, random_graph, reference_embed, reference_encoder


def make_state(n_nodes=4, hidden_dim=3, history=4, horizon=4, seed=0, input_dim=1,
               graph_mode="predefined", node_embed_dim=8, topk=8):
    cfg = EncoderConfig(hidden_dim=hidden_dim, input_dim=input_dim, history=history,
                        horizon=horizon, n_nodes=n_nodes, graph_mode=graph_mode,
                        node_embed_dim=node_embed_dim, topk=topk)
    return ModelState.initialize(cfg, np.random.default_rng(seed))


def zero_params(state, prefixes):
    for path, tensor in state.params.items():
        if any(path.startswith(p) for p in prefixes):
            tensor.data = np.zeros_like(tensor.data)


class TestEmbedInput:
    def test_no_masked_patch_masks_no_step(self):
        state = make_state()
        x = np.random.default_rng(0).normal(size=(4, 4, 1))
        w, b = state.params["embed.w"].data, state.params["embed.b"].data
        for patch_mask in (None, np.zeros(2, dtype=bool)):
            lift, m = embed_input(x, state.params, patch_mask)
            assert lift.tobytes() == apply_temporal_mask(x, patch_mask).tobytes()
            assert m.data.tobytes() == np.concatenate([w, b[None]]).tobytes()

    def test_masked_patches_give_their_steps_and_the_token(self):
        state = make_state(history=6)
        x = np.random.default_rng(1).normal(size=(2, 6, 4, 1))
        patch_mask = np.array([True, False, True])
        lift, m = embed_input(x, state.params, patch_mask)
        assert lift.tobytes() == apply_temporal_mask(x, patch_mask).tobytes()
        assert (m.data[-1] == state.params["mask_token"].data).all() and m.shape == (3, 3)


def gate_params(params):
    return [params[f"encoder.{gate}.{k}"] for gate in ("update", "reset", "cand") for k in "wb"]


def encode_embedded(x_emb, adjacency, params):
    """graph_gru on an already embedded window array: with M = I its x-half
    (A x_emb) I is A x_emb exactly."""
    return ad.graph_gru(x_emb, Tensor(np.eye(x_emb.shape[-1])), adjacency, *gate_params(params))


class TestEncoderForward:
    def test_zero_weights_zero_state(self, cycle_graph):
        # zero gates halve h each step from h_0 = 0, so S stays 0
        state = make_state()
        zero_params(state, ["encoder."])
        x = np.random.default_rng(1).normal(size=(4, 4, 1))
        adj = Tensor(np.eye(4))
        s = encoder_forward(x, adj, state.params)
        np.testing.assert_allclose(s.data, 0.0, atol=1e-15)

    def test_zero_embedding_hides_the_input(self):
        state = make_state()
        zero_params(state, ["embed."])
        rng = np.random.default_rng(1)
        adj = Tensor(np.full((4, 4), 0.25))
        outs = [encoder_forward(rng.normal(size=(4, 4, 1)), adj, state.params).data
                for _ in range(2)]
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_hand_affine_embedding(self):
        # x = 3 embeds as [3, -3]: exact, so both forms give the same bits
        state = make_state(hidden_dim=2)
        state.params["embed.w"].data = np.array([[1.0, -1.0]])
        state.params["embed.b"].data = np.zeros(2)
        adj = Tensor(np.eye(4))
        out = encoder_forward(np.full((4, 4, 1), 3.0), adj, state.params)
        x_emb = np.broadcast_to([3.0, -3.0], (4, 4, 2))
        want = encode_embedded(x_emb, adj, state.params)
        assert out.data.tobytes() == want.data.tobytes()

    def test_output_shape(self):
        state = make_state(n_nodes=5, hidden_dim=8, history=12)
        x = np.zeros((12, 5, 1))
        s = encoder_forward(x, Tensor(np.eye(5)), state.params)
        assert s.shape == (5, 8)

    def test_batched_output_shape(self):
        state = make_state(n_nodes=5, hidden_dim=8, history=12)
        x = np.zeros((7, 12, 5, 1))
        s = encoder_forward(x, Tensor(np.eye(5)), state.params)
        assert s.shape == (7, 5, 8)

    def test_identity_adjacency_locality(self):
        # edgeless graph -> identity propagation: node outputs are independent
        state = make_state(n_nodes=4)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 4, 1))
        adj = Tensor(np.eye(4))
        base = encoder_forward(x, adj, state.params).data
        x_perturbed = x.copy()
        x_perturbed[:, 2, :] += 10.0
        out = encoder_forward(x_perturbed, adj, state.params).data
        np.testing.assert_array_equal(out[0], base[0])
        np.testing.assert_array_equal(out[1], base[1])
        np.testing.assert_array_equal(out[3], base[3])
        assert not np.allclose(out[2], base[2])

    def test_permutation_equivariance(self):
        state = make_state(n_nodes=5)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5, 1))
        perm = np.array([3, 0, 4, 1, 2])
        adj = Tensor(np.eye(5))
        s = encoder_forward(x, adj, state.params).data
        s_perm = encoder_forward(x[:, perm], adj, state.params).data
        np.testing.assert_allclose(s_perm, s[perm], atol=1e-12)

    def test_masked_steps_ignore_the_input(self):
        # a masked step embeds as the token, whatever x holds there
        state = make_state(n_nodes=5, history=6)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 6, 5, 1))
        adj = Tensor(normalize_adjacency(random_graph(5, 6, seed=3)))
        patch_mask = np.array([False, True, False])
        base = encoder_forward(x, adj, state.params, patch_mask).data
        x[:, 2:4] = 1e6
        out = encoder_forward(x, adj, state.params, patch_mask).data
        assert out.tobytes() == base.tobytes()
        state.params["mask_token"].data = state.params["mask_token"].data + 1.0
        assert not np.allclose(encoder_forward(x, adj, state.params, patch_mask).data, out)


class TestGraphGRUKernel:
    """The fused kernel against the embedding, patch mask and recurrence
    composed from primitive kernels, with every batch cut into up to three
    ranges. The kernel multiplies A by the 1-channel window, not by the
    embedding, so the two agree to round-off; on an already embedded window
    its output keeps the primitive recurrence's bits."""

    @pytest.fixture(autouse=True)
    def split(self, monkeypatch):
        force_ranges(monkeypatch, 3)

    @staticmethod
    def run(fused, params, x, adjacency_of, weight, patch_mask):
        params.zero_grad()
        adjacency = adjacency_of(params)
        if fused:
            out = encoder_forward(x, adjacency, params, patch_mask)
        else:
            steps = np.flatnonzero(step_mask(patch_mask, x.shape[-3]))
            x_emb = reference_embed(Tensor(x), params["embed.w"], params["embed.b"],
                                    params["mask_token"], steps)
            out = reference_encoder(x_emb, adjacency, params)
        ad.backward(ad.tsum(ad.mul(out, Tensor(weight))))
        grads = {p: t.grad.copy() for p, t in params.items()}
        return out.data, grads, adjacency

    def check(self, params, x, adjacency_of, weight, patch_mask):
        want, want_grads, _ = self.run(False, params, x, adjacency_of, weight, patch_mask)
        got, got_grads, adjacency = self.run(True, params, x, adjacency_of, weight, patch_mask)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        for name, g in want_grads.items():
            np.testing.assert_allclose(got_grads[name], g, rtol=1e-12,
                                       atol=1e-12 * np.abs(g).max(), err_msg=name)
        return got_grads, adjacency

    def compare(self, lead, adjacency_of, patch_mask, graph_mode="predefined", n=5, d=3):
        hist = 4
        state = make_state(n_nodes=n, hidden_dim=d, history=hist, seed=11,
                           graph_mode=graph_mode, node_embed_dim=2)
        rng = np.random.default_rng(12)
        x = rng.normal(size=lead + (hist, n, 1))
        weight = rng.uniform(0.5, 1.5, size=lead + (n, d))
        return self.check(state.params, x, partial(adjacency_of, n=n), weight,
                          np.array(patch_mask))

    @staticmethod
    def constant(params, n=5):
        return Tensor(normalize_adjacency(random_graph(n, 6 * n // 5, seed=3)))

    @staticmethod
    def learned(params, n=5):
        mask = Tensor(np.ones((n, n)) - np.eye(n)[::-1])
        return ad.mul(adaptive_adjacency(params["node_embeddings"]), mask)

    @pytest.mark.parametrize("patch_mask", [[False, False], [True, False]])
    def test_batched_constant_adjacency(self, patch_mask):
        grads, adjacency = self.compare((3,), self.constant, patch_mask)
        assert not adjacency.requires_grad and adjacency.grad is None
        assert (np.abs(grads["mask_token"]).max() > 0) == any(patch_mask)

    @pytest.mark.parametrize("patch_mask", [[False, False], [False, True]])
    def test_unbatched_constant_adjacency(self, patch_mask):
        _, adjacency = self.compare((), self.constant, patch_mask)
        assert adjacency.grad is None

    @pytest.mark.parametrize("patch_mask", [[False, False], [True, False]])
    def test_batched_learned_adjacency(self, patch_mask):
        grads, _ = self.compare((3,), self.learned, patch_mask, graph_mode="adaptive")
        assert np.abs(grads["node_embeddings"]).max() > 0

    @pytest.mark.parametrize("patch_mask", [[False, False], [False, True]])
    def test_unbatched_learned_adjacency(self, patch_mask):
        grads, _ = self.compare((), self.learned, patch_mask, graph_mode="adaptive")
        assert np.abs(grads["node_embeddings"]).max() > 0

    @pytest.mark.parametrize("adjacency_of, graph_mode",
                             [("constant", "predefined"), ("learned", "adaptive")])
    def test_blocked_gemm_sizes(self, adjacency_of, graph_mode):
        # at N = 48 and D = 16 the reverse loop's A^T products run as
        # blocked GEMMs, which the other cases' N = 5 and D = 3 do not reach
        grads, adjacency = self.compare((5,), getattr(self, adjacency_of), [False, True],
                                        graph_mode, n=48, d=16)
        assert np.abs(grads["mask_token"]).max() > 0
        assert adjacency.requires_grad == (adjacency_of == "learned")

    @pytest.mark.parametrize("adjacency_of", ["constant", "learned"])
    @pytest.mark.parametrize("c, e", [(2, 4), (5, 4)])
    def test_input_and_embedding_widths_differ_from_hidden(self, adjacency_of, c, e):
        # C input channels, E embedding channels and D = 3 hidden units: a
        # slice of one width taken for another, in any gate input or
        # gradient, cannot go unseen; C > E is the case where the kernel's
        # A product is wider than the embedding it replaces
        d, n, hist = 3, 5, 4
        rng = np.random.default_rng(13)
        params = ad.ParameterTree()
        params.add("embed.w", rng.uniform(-0.6, 0.6, size=(c, e)))
        params.add("embed.b", rng.uniform(-0.6, 0.6, size=e))
        params.add("mask_token", rng.uniform(-0.6, 0.6, size=e))
        for gate in ("update", "reset", "cand"):
            params.add(f"encoder.{gate}.w", rng.uniform(-0.6, 0.6, size=(e + d, d)))
            params.add(f"encoder.{gate}.b", rng.uniform(-0.6, 0.6, size=d))
        params.add("node_embeddings", rng.normal(size=(n, 2)))
        x = rng.normal(size=(2, 3, hist, n, c))
        weight = rng.uniform(0.5, 1.5, size=(2, 3, n, d))
        patch_mask = np.array([False, True, False, False])
        grads, _ = self.check(params, x, getattr(self, adjacency_of), weight, patch_mask)
        assert (np.abs(grads["node_embeddings"]).max() > 0) == (adjacency_of == "learned")

    @pytest.mark.parametrize("adjacency_of", ["constant", "learned"])
    def test_embedded_window_keeps_the_recurrence_bits(self, adjacency_of):
        # M = I makes the x-half A x_emb exactly, so the output
        # is bitwise the primitive recurrence's
        state = make_state(n_nodes=5, hidden_dim=3, history=4, seed=11,
                           graph_mode="adaptive", node_embed_dim=2)
        x_emb = np.random.default_rng(12).normal(size=(3, 4, 5, 3))
        adjacency = getattr(self, adjacency_of)(state.params)
        got = encode_embedded(x_emb, adjacency, state.params)
        want = reference_encoder(Tensor(x_emb), adjacency, state.params)
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("adjacency_of, patch_mask", [
        ("constant", [False, False, False]), ("learned", [True, False, True])])
    def test_forward_only_output_matches_taped_with_lower_peak(self, adjacency_of, patch_mask):
        # constant inputs keep one step of activations instead of H, bit for bit
        state = make_state(n_nodes=5, hidden_dim=3, history=12, seed=11,
                           graph_mode="adaptive", node_embed_dim=2)
        x = np.random.default_rng(12).normal(size=(16, 12, 5, 1))

        def run(params):
            adjacency = getattr(self, adjacency_of)(params)
            tracemalloc.start()
            try:
                out = encoder_forward(x, adjacency, params, np.array(patch_mask))
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        taped, taped_peak = run(state.params)
        plain, plain_peak = run({p: Tensor(t.data) for p, t in state.params.items()})
        assert taped.requires_grad and not plain.requires_grad and plain._backward is None
        assert plain.data.tobytes() == taped.data.tobytes()
        assert plain_peak < taped_peak / 2  # the taped call caches all 12 steps

    def test_shape_mismatch_names_kernel(self):
        state = make_state(n_nodes=4, hidden_dim=3)
        with pytest.raises(ad.ShapeError, match="graph_gru"):
            encoder_forward(np.zeros((4, 4, 1)), Tensor(np.eye(5)), state.params)
        with pytest.raises(ad.ShapeError, match="graph_gru"):
            encoder_forward(np.zeros((4, 4, 2)), Tensor(np.eye(4)), state.params)

    def test_embedding_and_lift_shapes_checked(self):
        state = make_state(n_nodes=4, hidden_dim=3)
        x = np.zeros((2, 4, 4, 1))
        params = {**dict(state.params.items()), "mask_token": Tensor(np.zeros(4))}
        with pytest.raises(ad.ShapeError, match="concat"):  # token width
            encoder_forward(x, Tensor(np.eye(4)), params, np.array([True, False]))
        lift, m = embed_input(x, state.params, np.array([True, False]))
        gates = gate_params(state.params)
        for bad_lift, adjacency in [(lift[..., :2], np.eye(4)),  # M rows != lift channels
                                    (lift, np.eye(3)),  # adjacency of another graph
                                    (lift, np.eye(4)[None])]:  # not [N, N]
            with pytest.raises(ad.ShapeError, match="graph_gru"):
                ad.graph_gru(bad_lift, m, Tensor(adjacency), *gates)

    def test_m_has_the_token_row_only_with_a_masked_patch(self):
        x = np.zeros((2, 4, 4, 1))
        for masked in (False, True):
            state = make_state(n_nodes=4, hidden_dim=3)
            lift, m = embed_input(x, state.params, np.array([masked, False]))
            assert lift.shape[-1] == m.shape[0] == 2 + masked
            ad.backward(ad.tsum(m))
            assert (state.params["mask_token"].grad is not None) == masked


class TestGraphGRURanges:
    """Cutting the batch into ranges changes no bit, and small batches stay whole."""

    @staticmethod
    def run(lead, learned, taped, masked=True, n=5, c=2, d=3, hist=4):
        rng = np.random.default_rng(21)
        params = ad.ParameterTree()
        params.add("embed.w", rng.uniform(-0.6, 0.6, size=(c, d)))
        params.add("embed.b", rng.uniform(-0.6, 0.6, size=d))
        params.add("mask_token", rng.uniform(-0.6, 0.6, size=d))
        for gate in ("update", "reset", "cand"):
            params.add(f"encoder.{gate}.w", rng.uniform(-0.6, 0.6, size=(2 * d, d)))
            params.add(f"encoder.{gate}.b", rng.uniform(-0.6, 0.6, size=d))
        params.add("node_embeddings", rng.normal(size=(n, 2)))
        if not taped:
            params = {p: Tensor(t.data) for p, t in params.items()}
        x = rng.normal(size=lead + (hist, n, c))
        if learned:
            mask = Tensor(np.ones((n, n)) - np.eye(n)[::-1])
            adjacency = ad.mul(adaptive_adjacency(params["node_embeddings"]), mask)
        else:
            adjacency = Tensor(normalize_adjacency(random_graph(n, 2 * n, seed=3)))
        # the first of two patches masked, or none
        patch_mask = np.array([masked, False])
        out = encoder_forward(x, adjacency, params, patch_mask)
        if not taped:
            assert out._backward is None
            return {"out": out.data}
        ad.backward(ad.tsum(ad.mul(out, Tensor(rng.uniform(0.5, 1.5, size=out.shape)))))
        grads = {p: t.grad for p, t in params.items()}
        assert (grads["node_embeddings"] is not None) == learned
        assert (grads["mask_token"] is not None) == masked
        return {"out": out.data, **grads}

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    @pytest.mark.parametrize("learned", [False, True])
    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_bits_do_not_depend_on_range_count(self, monkeypatch, lead, learned, taped, masked):
        self.check_ranges(monkeypatch, lead, learned, taped, masked=masked)

    @pytest.mark.parametrize("learned", [False, True])
    @pytest.mark.parametrize("c", [1, 16])
    def test_bits_do_not_depend_on_range_count_at_blas_sizes(self, monkeypatch, learned, c):
        # products large enough for BLAS's blocked kernels
        self.check_ranges(monkeypatch, (5,), learned, True, n=48, c=c, d=16, hist=4)

    @pytest.mark.parametrize("learned", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_forward_only_bits_equal_taped(self, learned, masked):
        taped = self.run((4,), learned, True, masked=masked)
        plain = self.run((4,), learned, False, masked=masked)
        assert plain["out"].tobytes() == taped["out"].tobytes()

    def check_ranges(self, monkeypatch, lead, learned, taped, **shape):
        force_ranges(monkeypatch, 1)
        want = self.run(lead, learned, taped, **shape)
        seen = []
        run_ranges = ad._run_ranges

        def spy(jobs):
            seen.append(len(jobs))
            run_ranges(jobs)

        monkeypatch.setattr(ad, "_run_ranges", spy)
        batch = int(np.prod(lead))
        for count in (1, 2, 3):
            force_ranges(monkeypatch, count)
            seen.clear()
            got = self.run(lead, learned, taped, **shape)
            ranges = min(count, batch)
            # the forward recurrence and the reverse-time loop are one job
            # per range, and the reverse loop does every sum over steps, so
            # no wave follows it
            assert seen == [ranges] * (1 + taped)
            self.assert_same_bits(got, want)

    def test_more_ranges_than_cores_under_fast_switching(self, monkeypatch):
        # six ranges share a fresh pool on however few cores, with the
        # interpreter switching threads as often as it can
        force_ranges(monkeypatch, 1)
        want = self.run((12,), True, True, n=16, c=4, d=8)
        force_ranges(monkeypatch, 6)
        monkeypatch.setattr(ad, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                self.assert_same_bits(self.run((12,), True, True, n=16, c=4, d=8), want)
        finally:
            sys.setswitchinterval(interval)
            if ad._pool is not None:
                ad._pool.shutdown()

    @staticmethod
    def assert_same_bits(got, want):
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert (got[name] is None) == (value is None), name
            if value is not None:
                assert got[name].shape == value.shape, name
                assert got[name].tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("shape", [(16, 20, 16), (64, 8, 32)])  # [B, N, D]
    def test_small_batches_start_no_thread(self, monkeypatch, shape):
        # the small-graph training shape and criterion 5's, even with many CPUs
        batch, n, d = shape
        monkeypatch.setattr(ad, "_WORKERS", 8)
        monkeypatch.setattr(ad, "_pool", None)
        assert ad._batch_ranges(batch, n * d) == [(0, batch)]
        state = make_state(n_nodes=n, hidden_dim=d, history=12)
        threads = threading.active_count()
        x = np.random.default_rng(0).normal(size=(batch, 12, n, 1))
        ad.backward(ad.tsum(encoder_forward(x, Tensor(np.eye(n)), state.params, np.arange(6) < 2)))
        assert threading.active_count() == threads and ad._pool is None

    def test_large_batches_use_every_worker(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 2)
        assert ad._batch_ranges(32, 100 * 16) == [(0, 16), (16, 32)]  # learned-graph's shape
        assert ad._batch_ranges(21, 200 * 16) == [(0, 10), (10, 21)]

    def test_single_window_never_splits(self, monkeypatch):
        force_ranges(monkeypatch, 8)
        assert ad._batch_ranges(1, 10 ** 9) == [(0, 1)]

    def test_no_more_ranges_than_cpus(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert ad._WORKERS == cpus
        for batch in (1, 2, 3, 7, 64, 1000):
            ranges = ad._batch_ranges(batch, 10 ** 6)
            assert 1 <= len(ranges) <= cpus
            assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
            assert ranges[-1][1] == batch and all(hi > lo for lo, hi in ranges)

    @staticmethod
    def run_kernel(lead, n, c, d, hist=4, seed=5):
        """graph_gru on leaf inputs, a learned (leaf) adjacency among them,
        with steps 1 and 2 masked; returns the output and every gradient."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=lead + (hist, n, c))
        adjacency = Tensor(rng.uniform(0.0, 2.0 / n, size=(n, n)), requires_grad=True)
        m = Tensor(rng.uniform(-0.6, 0.6, size=(c + 2, d)), requires_grad=True)
        weights = [Tensor(rng.uniform(-0.6, 0.6, size=shape), requires_grad=True)
                   for _ in range(3) for shape in ((2 * d, d), (d,))]
        lift = apply_temporal_mask(x, np.isin(np.arange(hist), [1, 2]))  # one step per patch
        out = ad.graph_gru(lift, m, adjacency, *weights)
        ad.backward(ad.tsum(ad.mul(out, Tensor(rng.uniform(0.5, 1.5, size=out.shape)))))
        grads = {f"w{i}": t.grad for i, t in enumerate([m] + weights)}
        return {"out": out.data, "da": adjacency.grad, **grads}

    # splitting an x-side reduction by rows would change bits at N=20 and at C=1
    @pytest.mark.parametrize("n, c", [(20, 1), (20, 16), (48, 16)])
    def test_tail_bits_do_not_depend_on_thread_count(self, monkeypatch, n, c):
        force_ranges(monkeypatch, 1)
        want = self.run_kernel((5,), n, c, 16)
        for count in (2, 3):
            force_ranges(monkeypatch, count)
            self.assert_same_bits(self.run_kernel((5,), n, c, 16), want)

    @pytest.mark.parametrize("learned", [False, True])
    def test_taped_call_holds_no_stack_of_pre_activation_gradients(self, monkeypatch, learned):
        # past the forward's caches, forward and backward together hold less
        # than one [H, B, N, D] array: the backward's buffers are one step
        # wide, so an [H, B, N, 3D] array of gradients would cross the bound.
        # At N = 40 those buffers and the per-item sums take about 20
        # [B, N, D] arrays with a learned A, so the window has H = 24 steps
        force_ranges(monkeypatch, 2)
        batch, hist, n, c, d = 8, 24, 40, 1, 16
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch, hist, n, c))
        adjacency = Tensor(normalize_adjacency(random_graph(n, 3 * n, seed=3)), requires_grad=learned)
        m, *weights = [Tensor(rng.uniform(-0.6, 0.6, size=shape), requires_grad=True)
                       for shape in [(c + 2, d)] + [(2 * d, d), (d,)] * 3]
        tracemalloc.start()
        try:
            lift = apply_temporal_mask(x, np.arange(hist) % 3 == 0)  # one step per patch
            out = ad.graph_gru(lift, m, adjacency, *weights)
            ad.backward(ad.tsum(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = hist * batch * n * 8  # bytes per channel of a [H, B, N, .] array
        caches = unit * (5 * d + 2 * (c + 2))  # h, A h, u, r, c; l and A l
        assert (adjacency.grad is not None) == learned and m.grad is not None
        assert caches <= peak < caches + unit * d

    def test_backward_makes_no_embedding_sized_x_side_array(self, monkeypatch):
        # backward's large arrays are the reverse loop's one-step buffers
        # and per-item sums; every x-side array has K = C + 2 channels, far
        # fewer than D, so one [H, B, N, D] array more would cross the bound
        force_ranges(monkeypatch, 2)
        batch, hist, n, c, d = 16, 24, 10, 1, 16
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch, hist, n, c))
        adjacency = Tensor(rng.uniform(0.0, 0.2, size=(n, n)), requires_grad=True)
        m, *weights = [Tensor(rng.uniform(-0.6, 0.6, size=shape), requires_grad=True)
                       for shape in [(c + 2, d)] + [(2 * d, d), (d,)] * 3]
        lift = apply_temporal_mask(x, np.arange(hist) % 3 == 0)  # one step per patch
        loss = ad.tsum(ad.graph_gru(lift, m, adjacency, *weights))
        tracemalloc.start()
        try:
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = hist * batch * n * 8  # bytes per channel of a [H, B, N, .] array
        k = c + 2
        # one step's dpre, dz, zv and four [B, N, D] of scratch, the per-item
        # sums and step terms of the weights, each item's dA and one [N, N]
        # step term per range
        held = 8 * (batch * (n * (3 * d + 2 * (2 * d + k) + 4 * d)
                             + 2 * (d + k + 1) * 3 * d + n * n) + 2 * n * n)
        assert adjacency.grad is not None and m.grad is not None
        assert held <= peak < held + unit * d

    def test_shape_error_before_any_work_is_sent(self, monkeypatch):
        class Pool:
            def submit(self, *args):
                raise AssertionError("work sent to the pool")

        force_ranges(monkeypatch, 3)
        monkeypatch.setattr(ad, "_pool", Pool())
        state = make_state(n_nodes=4, hidden_dim=3)
        x = np.zeros((6, 4, 4, 1))
        with pytest.raises(ad.ShapeError, match="graph_gru"):
            encoder_forward(x, Tensor(np.eye(5)), state.params)
        params = {**dict(state.params.items()), "encoder.cand.b": Tensor(np.zeros(4))}
        with pytest.raises(ad.ShapeError, match="graph_gru"):
            encoder_forward(x, Tensor(np.eye(4)), params)


class TestRunRanges:
    @pytest.fixture(autouse=True)
    def fresh_pool(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 3)
        monkeypatch.setattr(ad, "_pool", None)
        yield
        if ad._pool is not None:
            ad._pool.shutdown()

    def test_first_job_runs_on_the_calling_thread(self):
        idents = [None] * 3

        def job(i):
            idents[i] = threading.get_ident()

        ad._run_ranges([lambda i=i: job(i) for i in range(3)])
        assert idents[0] == threading.get_ident()
        assert None not in idents and threading.get_ident() not in idents[1:]

    def test_first_error_in_job_order_after_every_job(self):
        ran = []
        started = threading.Event()

        def first():
            # the pool's job raises while this one still runs
            assert started.wait(10)
            time.sleep(0.05)
            ran.append("first")
            raise RuntimeError("first")

        def second():
            started.set()
            ran.append("second")
            raise KeyError("second")

        with pytest.raises(RuntimeError, match="first"):
            ad._run_ranges([first, second, lambda: ran.append("third")])
        assert sorted(ran) == ["first", "second", "third"]


class TestSpatialDecoder:
    def test_zero_state_gives_zero_logits(self):
        state = make_state()
        out = spatial_decoder(Tensor(np.zeros((4, 3))), state.params)
        np.testing.assert_array_equal(out.data, np.zeros((4, 4)))

    def test_hand_example(self):
        state = make_state(hidden_dim=1)
        state.params["spatial_decoder.w"].data = np.array([[1.0]])
        out = spatial_decoder(Tensor([[1.0], [2.0]]), state.params)
        np.testing.assert_array_equal(out.data, np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_symmetric_and_sigmoid_in_open_interval(self):
        state = make_state(n_nodes=6, hidden_dim=4)
        s = Tensor(np.random.default_rng(4).normal(size=(6, 4)))
        out = spatial_decoder(s, state.params).data
        assert np.abs(out - out.T).max() < 1e-12
        probs = ad.sigmoid(Tensor(out)).data
        assert (probs > 0).all() and (probs < 1).all()


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


class TestModelAdjacency:
    """One builder for the propagation matrix, masked or not, in both modes."""

    @staticmethod
    def walk_masked(n=12, n_edges=30):
        g = random_graph(n, n_edges, seed=4)
        masked, _ = trace_spatial_mask(g, 0.3, WalkConfig(), np.random.default_rng(5))
        assert masked
        return g, masked

    @staticmethod
    def zero_one(n, masked):
        m = np.ones((n, n))
        for u, v in masked:
            m[u, v] = m[v, u] = 0.0
        return m

    def test_predefined_masked_equals_normalized_zeroed_copy(self):
        g, masked = self.walk_masked()
        zeroed = g.adjacency.copy()
        for u, v in masked:
            zeroed[u, v] = zeroed[v, u] = 0.0
        got = model_adjacency(g, make_state(n_nodes=g.n_nodes), masked)
        np.testing.assert_array_equal(got.data, normalize_dense(zeroed))
        assert not got.requires_grad

    def test_adaptive_masked_equals_softmax_times_mask(self):
        g, masked = self.walk_masked()
        state = make_state(n_nodes=g.n_nodes, graph_mode="adaptive", node_embed_dim=3)
        got = model_adjacency(g, state, masked)
        want = adaptive_adjacency(state.params["node_embeddings"]).data * self.zero_one(g.n_nodes, masked)
        np.testing.assert_array_equal(got.data, want)
        state.params.zero_grad()
        ad.backward(ad.tsum(got))
        assert np.abs(state.params["node_embeddings"].grad).max() > 0

    def test_unmasked_is_forecast_adjacency(self):
        g, _ = self.walk_masked()
        predefined = make_state(n_nodes=g.n_nodes)
        np.testing.assert_array_equal(model_adjacency(g, predefined).data, normalize_adjacency(g))
        adaptive = make_state(n_nodes=g.n_nodes, graph_mode="adaptive", node_embed_dim=3)
        np.testing.assert_array_equal(model_adjacency(g, adaptive).data,
                                      adaptive_adjacency(adaptive.params["node_embeddings"]).data)

    def test_predefined_non_edge_changes_nothing(self, path_graph):
        # zeroing an entry that is already zero leaves the adjacency as it is
        got = model_adjacency(path_graph, make_state(n_nodes=3), {(0, 2)})
        np.testing.assert_array_equal(got.data, normalize_adjacency(path_graph))

    def test_mask_sampling_graph(self):
        g, _ = self.walk_masked()
        assert mask_sampling_graph(g, make_state(n_nodes=g.n_nodes)) is g
        state = make_state(n_nodes=g.n_nodes, graph_mode="adaptive", node_embed_dim=3, topk=4)
        got = mask_sampling_graph(g, state)
        want = sparsify_topk(adaptive_adjacency(state.params["node_embeddings"]).data, 4)
        np.testing.assert_array_equal(got.adjacency, want.adjacency)
        assert got.edges == want.edges


class TestModelStateIO:
    def test_checkpoint_with_manifest_round_trip(self, tmp_path):
        state = make_state(n_nodes=6, hidden_dim=5, history=8, horizon=4, seed=9)
        ckpt = tmp_path / "ckpt.json"
        manifest = tmp_path / "model.json"
        state.save(ckpt, manifest)
        loaded = ModelState.load(ckpt, manifest, state.config)
        assert loaded.config == state.config
        for path, tensor in state.params.items():
            assert (loaded.params[path].data == tensor.data).all()

    def test_config_history_patch_compatibility(self):
        cfg = RunConfig(history=12, patch_length=5)
        with pytest.raises(ValueError, match="divisible"):
            cfg.validate()

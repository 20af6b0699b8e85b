import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from maskcast import autodiff as ad
from maskcast.autodiff import Tensor
from maskcast.graph import (Graph, WalkConfig, adaptive_adjacency,
                            normalize_adjacency, normalize_dense, sparsify_topk)
from maskcast.masking import trace_spatial_mask
from maskcast.model import (EncoderConfig, ModelState, embed_input,
                            encoder_forward, forecast, mask_sampling_graph,
                            model_adjacency, predictor, spatial_decoder,
                            temporal_decoder)
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


def force_ranges(monkeypatch, count):
    """Make graph_gru cut any batch into min(count, B) ranges."""
    monkeypatch.setattr(ad, "_WORKERS", count)
    monkeypatch.setattr(ad, "_MIN_RANGE_STEP", 1)


class TestGraphGRUKernel:
    """The fused kernel against the primitive-composed reference, with every
    batch cut into up to three ranges."""

    @pytest.fixture(autouse=True)
    def split(self, monkeypatch):
        force_ranges(monkeypatch, 3)

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

    def test_forward_only_output_matches_taped_with_lower_peak(self):
        # constant inputs keep one step of activations instead of H, bit for bit
        state = make_state(n_nodes=5, hidden_dim=3, history=12, seed=11)
        x = np.random.default_rng(12).normal(size=(16, 12, 5, 3))
        adjacency = self.constant(state.params)

        def run(params):
            tracemalloc.start()
            try:
                out = encoder_forward(Tensor(x), adjacency, params)
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
            encoder_forward(Tensor(np.zeros((4, 4, 3))), Tensor(np.eye(5)), state.params)


class TestGraphGRURanges:
    """Cutting the batch into ranges changes no bit, and small batches stay whole."""

    @staticmethod
    def run(lead, learned, taped, n=5, c=2, d=3, hist=4):
        rng = np.random.default_rng(21)
        params = ad.ParameterTree()
        for gate in ("update", "reset", "cand"):
            params.add(f"encoder.{gate}.w", rng.uniform(-0.6, 0.6, size=(c + d, d)))
            params.add(f"encoder.{gate}.b", rng.uniform(-0.6, 0.6, size=d))
        params.add("node_embeddings", rng.normal(size=(n, 2)))
        if not taped:
            params = {p: Tensor(t.data) for p, t in params.items()}
        x_emb = Tensor(rng.normal(size=lead + (hist, n, c)), requires_grad=taped)
        if learned:
            mask = Tensor(np.ones((n, n)) - np.eye(n)[::-1])
            adjacency = ad.mul(adaptive_adjacency(params["node_embeddings"]), mask)
        else:
            adjacency = Tensor(normalize_adjacency(random_graph(n, 2 * n, seed=3)))
        out = encoder_forward(x_emb, adjacency, params)
        if not taped:
            assert out._backward is None
            return {"out": out.data}
        ad.backward(ad.tsum(ad.mul(out, Tensor(rng.uniform(0.5, 1.5, size=out.shape)))))
        grads = {p: t.grad for p, t in params.items()}
        assert (grads["node_embeddings"] is not None) == learned
        return {"out": out.data, "x_emb": x_emb.grad, **grads}

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    @pytest.mark.parametrize("learned", [False, True])
    @pytest.mark.parametrize("taped", [False, True])
    def test_bits_do_not_depend_on_range_count(self, monkeypatch, lead, learned, taped):
        self.check_ranges(monkeypatch, lead, learned, taped)

    @pytest.mark.parametrize("learned", [False, True])
    def test_bits_do_not_depend_on_range_count_at_blas_sizes(self, monkeypatch, learned):
        # products large enough for BLAS's blocked kernels
        self.check_ranges(monkeypatch, (5,), learned, True, n=48, c=16, d=16, hist=3)

    def check_ranges(self, monkeypatch, lead, learned, taped, **shape):
        force_ranges(monkeypatch, 1)
        want = self.run(lead, learned, taped, **shape)
        seen = []
        run_ranges = ad._run_ranges

        def spy(jobs, threads):
            seen.append((len(jobs), threads))
            return run_ranges(jobs, threads)

        monkeypatch.setattr(ad, "_run_ranges", spy)
        batch = int(np.prod(lead))
        for count in (1, 2, 3):
            force_ranges(monkeypatch, count)
            seen.clear()
            got = self.run(lead, learned, taped, **shape)
            ranges = min(count, batch)
            # every call runs on one thread per range; the forward recurrence
            # and the reverse-time loop are one job per range
            assert {threads for _, threads in seen} == {ranges}
            assert [jobs for jobs, _ in seen[:1 + taped]] == [ranges] * (1 + taped)
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
        x_emb = Tensor(np.random.default_rng(0).normal(size=(batch, 12, n, d)), requires_grad=True)
        ad.backward(ad.tsum(encoder_forward(x_emb, Tensor(np.eye(n)), state.params)))
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
        """graph_gru on leaf inputs, a learned (leaf) adjacency among them;
        returns the output and every gradient."""
        rng = np.random.default_rng(seed)
        x_emb = Tensor(rng.normal(size=lead + (hist, n, c)), requires_grad=True)
        adjacency = Tensor(rng.uniform(0.0, 2.0 / n, size=(n, n)), requires_grad=True)
        weights = [Tensor(rng.uniform(-0.6, 0.6, size=shape), requires_grad=True)
                   for _ in range(3) for shape in ((c + d, d), (d,))]
        out = ad.graph_gru(x_emb, adjacency, *weights)
        ad.backward(ad.tsum(ad.mul(out, Tensor(rng.uniform(0.5, 1.5, size=out.shape)))))
        grads = {f"w{i}": t.grad for i, t in enumerate(weights)}
        return {"out": out.data, "dx": x_emb.grad, "da": adjacency.grad, **grads}

    # splitting the x-side GEMM by rows would change bits at N=20 and at C=1
    @pytest.mark.parametrize("n, c", [(20, 1), (20, 16), (48, 16)])
    def test_tail_bits_do_not_depend_on_thread_count(self, monkeypatch, n, c):
        force_ranges(monkeypatch, 1)
        want = self.run_kernel((5,), n, c, 16)
        for count in (2, 3):
            force_ranges(monkeypatch, count)
            self.assert_same_bits(self.run_kernel((5,), n, c, 16), want)

    def test_backward_never_holds_caches_and_dax_at_once(self, monkeypatch):
        # with C < 4D, dax and dx together stay below what dax on top of
        # the four recurrence caches would take
        force_ranges(monkeypatch, 2)
        batch, hist, n, c, d = 16, 24, 10, 16, 8
        rng = np.random.default_rng(0)
        x_emb = Tensor(rng.normal(size=(batch, hist, n, c)), requires_grad=True)
        adjacency = Tensor(rng.uniform(0.0, 0.2, size=(n, n)), requires_grad=True)
        weights = [Tensor(rng.uniform(-0.6, 0.6, size=shape), requires_grad=True)
                   for _ in range(3) for shape in ((c + d, d), (d,))]
        tracemalloc.start()
        try:
            ad.backward(ad.tsum(ad.graph_gru(x_emb, adjacency, *weights)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = hist * batch * n * 8  # bytes per channel of a [H, B, N, .] array
        held = unit * (c + 2 * d + 3 * d)  # A x, A h and A (r h), dpre
        caches = unit * 4 * d  # h, u, r and c of every step
        assert held + caches <= peak < held + caches + unit * c

    def test_shape_error_before_any_work_is_sent(self, monkeypatch):
        class Pool:
            def submit(self, *args):
                raise AssertionError("work sent to the pool")

        force_ranges(monkeypatch, 3)
        monkeypatch.setattr(ad, "_pool", Pool())
        state = make_state(n_nodes=4, hidden_dim=3)
        x_emb = Tensor(np.zeros((6, 4, 4, 3)), requires_grad=True)
        with pytest.raises(ad.ShapeError, match="graph_gru"):
            encoder_forward(x_emb, Tensor(np.eye(5)), state.params)
        params = {**dict(state.params.items()), "encoder.cand.b": Tensor(np.zeros(4))}
        with pytest.raises(ad.ShapeError, match="graph_gru"):
            encoder_forward(x_emb, Tensor(np.eye(4)), params)


class TestRunRanges:
    @pytest.fixture(autouse=True)
    def fresh_pool(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 3)
        monkeypatch.setattr(ad, "_pool", None)
        yield
        if ad._pool is not None:
            ad._pool.shutdown()

    def test_results_in_job_order(self):
        jobs = [lambda i=i: i * i for i in range(7)]
        for threads in (1, 2, 3):
            assert ad._run_ranges(jobs, threads) == [i * i for i in range(7)]
        assert ad._run_ranges([], 3) == []

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
            ad._run_ranges([first, second, lambda: ran.append("third")], 2)
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
        loaded = ModelState.load(ckpt, manifest)
        assert loaded.config == state.config
        for path, tensor in state.params.items():
            assert (loaded.params[path].data == tensor.data).all()

    def test_config_history_patch_compatibility(self):
        cfg = RunConfig(history=12, patch_length=5)
        with pytest.raises(ValueError, match="divisible"):
            cfg.validate()

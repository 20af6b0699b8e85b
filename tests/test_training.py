import tracemalloc
import warnings

import numpy as np
import pytest

from maskcast import autodiff as ad
from maskcast import masking, training
from maskcast.autodiff import Adam, Tensor
from maskcast.data import prepare_splits, stack_windows, synthesize
from maskcast.model import (ModelState, encoder_forward,
                            mask_sampling_graph, model_adjacency,
                            temporal_decoder)
from maskcast.seeding import stream
from maskcast.training import (ConfigError, RunConfig, finetune_step, grid_configs,
                               loss_pred, loss_pretrain, loss_spatial,
                               loss_temporal, init_state, pretrain_forward,
                               run_two_stage, sample_mask_plan, sample_negative_edges)

from conftest import random_graph, reference_embed, reference_encoder


@pytest.fixture(scope="module")
def tiny():
    ds = synthesize(6, 240, seed=1)
    return prepare_splits(ds, 12, 12), ds.graph


def small_cfg(**kwargs):
    base = dict(pretrain_epochs=1, finetune_epochs=1, batch_size=32,
                hidden_dim=4, seed=0)
    base.update(kwargs)
    return RunConfig(**base)


class TestRunConfigValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            RunConfig(variant="bogus").validate()

    def test_temporal_ratio_one_rejected(self):
        with pytest.raises(ValueError, match="p_t"):
            RunConfig(p_t=1.0).validate()

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            RunConfig(lam=-0.5).validate()

    def test_unknown_lr_decay_rejected(self):
        with pytest.raises(ValueError, match="lr_decay"):
            RunConfig(lr_decay="linear").validate()

    def test_default_config_valid(self):
        assert RunConfig().validate() is not None


class TestLossPred:
    def test_hand_mae(self):
        y_hat = Tensor(np.array([1.0, 2.0, 3.0]))
        assert loss_pred(y_hat, np.zeros(3)).item() == 2.0

    def test_zero_at_perfect_prediction(self):
        y = np.random.default_rng(0).normal(size=(2, 3, 4, 1))
        assert loss_pred(Tensor(y), y).item() == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            loss_pred(Tensor(np.zeros(3)), np.zeros(4))


class TestLossSpatial:
    def test_half_probability_gives_log_two(self):
        a_hat = Tensor(np.full((3, 3), 0.5))
        out = loss_spatial(a_hat, {(0, 1)})
        np.testing.assert_allclose(out.item(), np.log(2.0), rtol=1e-12)

    def test_two_edge_hand_average(self):
        a = np.full((3, 3), 0.5)
        a[0, 1] = a[1, 0] = 0.8
        out = loss_spatial(Tensor(a), {(0, 1), (1, 2)})
        expected = -(np.log(0.8) + np.log(0.5)) / 2
        np.testing.assert_allclose(out.item(), expected, rtol=1e-12)

    def test_each_pair_counted_once(self):
        # the (v, u) mirror entry never enters the average
        a = np.full((3, 3), 0.5)
        a[1, 0] = 0.999  # would change the loss if mirrors were read
        out = loss_spatial(Tensor(a), {(0, 1)})
        np.testing.assert_allclose(out.item(), np.log(2.0), rtol=1e-12)

    def test_batched_average(self):
        a = np.full((2, 3, 3), 0.5)
        a[1, 0, 1] = a[1, 1, 0] = 0.8
        out = loss_spatial(Tensor(a), {(0, 1)})
        expected = -(np.log(0.5) + np.log(0.8)) / 2
        np.testing.assert_allclose(out.item(), expected, rtol=1e-12)

    def test_empty_mask_is_zero(self):
        assert loss_spatial(Tensor(np.full((3, 3), 0.5)), set()).item() == 0.0

    def test_negative_edges_add_complement_term(self):
        a_hat = Tensor(np.full((3, 3), 0.5))
        out = loss_spatial(a_hat, {(0, 1)}, negative_edges=[(0, 2)])
        # -(log 0.5 + log(1 - 0.5)) / 2 = log 2
        np.testing.assert_allclose(out.item(), np.log(2.0), rtol=1e-12)

    def test_saturated_logits_stay_finite(self):
        # every row of the factor is [2, 6], so every logit is 40:
        # -log sigmoid(40) ~ 4e-18 and -log(1 - sigmoid(40)) = 40 + 4e-18
        factor = Tensor(np.tile([2.0, 6.0], (3, 1)), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = loss_spatial(factor, {(0, 1)}, [(1, 2)], logits=True)
            factor.zero_grad()
            ad.backward(out)
        np.testing.assert_allclose(out.item(), 20.0, rtol=1e-15)
        # d/d logit is 0.5 at the negative (1, 2) and about -2e-18 at the
        # edge (0, 1); row 2 reads only the negative, row 0 only the edge
        assert factor.grad[2].tolist() == [1.0, 3.0]
        assert (factor.grad[0] < 0).all() and (factor.grad[0] > -1e-16).all()

    def test_logits_agree_with_probabilities(self):
        factor = np.random.default_rng(2).normal(size=(2, 4, 3))
        x = factor @ factor.transpose(0, 2, 1)
        pairs, negatives = {(0, 1), (2, 3)}, [(0, 2), (1, 3)]
        got = loss_spatial(Tensor(factor), pairs, negatives, logits=True).item()
        want = loss_spatial(Tensor(1.0 / (1.0 + np.exp(-x))), pairs, negatives).item()
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_logit_mode_peaks_below_one_pair_cube(self):
        # large-graph's shape: B = 32, N = 200, D = 16, 670 edges and 670
        # negatives; one [B, N, N] float64 array is 10.24 MB
        rng = np.random.default_rng(6)
        lo, hi = np.triu_indices(200, 1)
        picks = rng.choice(len(lo), size=1340, replace=False)
        pairs = [(int(lo[i]), int(hi[i])) for i in picks]
        factor = Tensor(rng.normal(size=(32, 200, 16)), requires_grad=True)
        factor.zero_grad()
        tracemalloc.start()
        try:
            ad.backward(loss_spatial(factor, set(pairs[:670]), pairs[670:], logits=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4.7 MB with numpy 2.4: a chunk's G [6, N, N], the factor's
        # gradient and the pair arrays; 22.5 MB through the full logit cube
        assert peak < 0.6 * 32 * 200 * 200 * 8

    def test_gradient_only_on_masked_entries(self):
        a_hat = Tensor(np.full((3, 3), 0.5), requires_grad=True)
        a_hat.zero_grad()
        ad.backward(loss_spatial(a_hat, {(0, 1)}))
        nonzero = np.argwhere(a_hat.grad != 0)
        assert nonzero.tolist() == [[0, 1]]

    # masked edges and negatives of a 6-node graph: disjoint, each pair once
    MASKED, NEGATIVES = {(0, 1), (4, 2), (3, 5)}, [(1, 5), (0, 4)]

    @pytest.mark.parametrize("logits", [True, False], ids=["logits", "probabilities"])
    @pytest.mark.parametrize("negatives", [None, NEGATIVES], ids=["edges", "negatives"])
    def test_one_gather_per_call(self, monkeypatch, logits, negatives):
        # logits read the factor through gram_at, probabilities the dense A_hat
        calls = {"gram_at": 0, "gather_flat": 0}
        for name in calls:
            kernel = getattr(ad, name)

            def counted(a, idx, name=name, kernel=kernel):
                calls[name] += 1
                return kernel(a, idx)

            monkeypatch.setattr(ad, name, counted)
        a_hat = np.full((2, 6, 3) if logits else (2, 6, 6), 0.5)
        loss_spatial(Tensor(a_hat), self.MASKED, negatives, logits=logits)
        assert calls == {"gram_at": int(logits), "gather_flat": int(not logits)}

    @staticmethod
    def two_gather_loss(a_hat, masked, negatives, logits):
        """The edge loss as two pipelines, one gather and one sum per pair
        set; with ``logits``, of the dense logits a_hat a_hat^T."""
        if logits:
            a_hat = ad.matmul(a_hat, ad.transpose(a_hat, (0, 2, 1)))
        n = a_hat.shape[-1]
        batch = a_hat.size // (n * n)

        def picked(pairs):
            within = np.array([min(p) * n + max(p) for p in sorted(pairs)])
            return ad.gather_flat(a_hat, (np.arange(batch)[:, None] * n * n + within).reshape(-1))

        if logits:
            total = ad.add(ad.tsum(ad.softplus(ad.scale(picked(masked), -1.0))),
                           ad.tsum(ad.softplus(picked(negatives))))
        else:
            total = ad.add(ad.tsum(ad.tlog(picked(masked))),
                           ad.tsum(ad.tlog(ad.sub(Tensor(1.0), picked(negatives)))))
        return ad.scale(total, (1.0 if logits else -1.0) / (batch * (len(masked) + len(negatives))))

    @pytest.mark.parametrize("logits", [True, False], ids=["logits", "probabilities"])
    def test_one_gather_keeps_the_two_gather_gradient(self, logits):
        # logits: a factor [3, 6, 4], against two gathers from its dense
        # logits; probabilities: the dense A_hat [3, 6, 6], whose gradient is
        # nonzero once per pair and batch item
        x = np.random.default_rng(5).normal(size=(3, 6, 4 if logits else 6))
        grads, losses = [], []
        for loss_fn in (loss_spatial, self.two_gather_loss):
            a_hat = Tensor(x if logits else 1.0 / (1.0 + np.exp(-x)), requires_grad=True)
            a_hat.zero_grad()
            loss = loss_fn(a_hat, self.MASKED, self.NEGATIVES, logits)
            ad.backward(loss)
            grads.append(a_hat.grad)
            losses.append(loss.item())
        assert np.array_equal(grads[0], grads[1])
        if not logits:
            assert np.count_nonzero(grads[0]) == 3 * (len(self.MASKED) + len(self.NEGATIVES))
        np.testing.assert_allclose(losses[0], losses[1], rtol=1e-15, atol=0)


class TestLossTemporal:
    def test_masked_rows_only(self):
        x = np.zeros((4, 2, 1))
        x_hat = np.ones((4, 2, 1))
        out = loss_temporal(Tensor(x_hat), x, np.array([True, False]))
        assert out.item() == 1.0

    def test_visible_rows_do_not_contribute(self):
        x = np.zeros((4, 2, 1))
        x_hat = np.ones((4, 2, 1))
        x_hat_perturbed = x_hat.copy()
        x_hat_perturbed[2:] = 1e6  # rows of the visible patch
        mask = np.array([True, False])
        a = loss_temporal(Tensor(x_hat), x, mask).item()
        b = loss_temporal(Tensor(x_hat_perturbed), x, mask).item()
        assert a == b == 1.0

    def test_gradient_confined_to_masked_rows(self):
        x = np.zeros((4, 2, 1))
        x_hat = Tensor(np.ones((4, 2, 1)), requires_grad=True)
        x_hat.zero_grad()
        ad.backward(loss_temporal(x_hat, x, np.array([True, False])))
        assert (x_hat.grad[:2] != 0).all()
        assert (x_hat.grad[2:] == 0).all()

    def test_no_masked_patches_zero(self):
        x = np.zeros((4, 2, 1))
        out = loss_temporal(Tensor(np.ones((4, 2, 1))), x, np.array([False, False]))
        assert out.item() == 0.0

    def test_batched_mean(self):
        x = np.zeros((2, 4, 2, 1))
        x_hat = np.ones((2, 4, 2, 1))
        x_hat[1] = 3.0
        out = loss_temporal(Tensor(x_hat), x, np.array([True, False]))
        assert out.item() == 2.0


class TestLossPretrain:
    def test_lambda_weighting(self):
        out = loss_pretrain(Tensor(2.0), Tensor(3.0), lam=0.5)
        assert out.item() == 4.0

    def test_zero_lambda_drops_spatial_term(self):
        out = loss_pretrain(Tensor(100.0), Tensor(3.0), lam=0.0)
        assert out.item() == 3.0


class TestSampleMaskPlan:
    def _plan(self, variant, audit=None):
        g = random_graph(8, 12, seed=0)
        cfg = RunConfig(variant=variant)
        return sample_mask_plan(cfg, g, np.random.default_rng(0),
                                np.random.default_rng(1), audit)

    def test_full_uses_both_samplers(self):
        audit = {}
        plan = self._plan("full", audit)
        assert plan.masked_edges and audit == {"walk_spatial": 1, "patch_temporal": 1}

    def test_ns_skips_spatial(self):
        audit = {}
        plan = self._plan("NS", audit)
        assert plan.masked_edges == set()
        assert "walk_spatial" not in audit and "uniform_spatial" not in audit

    def test_nt_skips_temporal(self):
        audit = {}
        plan = self._plan("NT", audit)
        assert not plan.patch_mask.any()
        assert "patch_temporal" not in audit and "uniform_temporal" not in audit

    def test_uniform_variant_uses_uniform_samplers(self):
        audit = {}
        plan = self._plan("U", audit)
        assert audit == {"uniform_spatial": 1, "uniform_temporal": 1}
        assert len(plan.patch_mask) == RunConfig().history  # per-step masking, no patch structure

    def test_baseline_masks_nothing(self):
        audit = {}
        plan = self._plan("baseline", audit)
        assert plan.masked_edges == set() and not plan.patch_mask.any()
        assert audit == {}

    @pytest.mark.parametrize("variant", training.VARIANTS)
    @pytest.mark.parametrize("p_s, p_t, patch_length", [
        (p_s, p_t, patch_length) for p_s in (0.0, 1.0) for p_t in (0.0, 0.99) for patch_length in (1, 4)
    ])
    def test_extreme_accepted_values(self, variant, p_s, p_t, patch_length):
        # the samplers trust their arguments, so the most extreme values
        # RunConfig.validate accepts must still give a well-formed plan
        g = random_graph(8, 12, seed=0)
        cfg = RunConfig(variant=variant, p_s=p_s, p_t=p_t, walk_length=2, patch_length=patch_length,
                        history=4, horizon=4, hidden_dim=3).validate()
        spatial = variant in ("full", "NT", "U")
        for seed in range(5):
            plan = sample_mask_plan(cfg, g, np.random.default_rng(seed), np.random.default_rng(seed))
            want = masking.mask_target_size(g.n_edges, p_s) if spatial else 0
            assert len(plan.masked_edges) == want
            assert plan.masked_edges <= g.edge_set()
            assert not plan.patch_mask.all()
        state = ModelState.initialize(cfg.encoder_config(8), stream(0, "init"))
        x = np.random.default_rng(3).normal(size=(2, 4, 8, 1))
        total, _, _ = pretrain_forward(x, g, state, cfg, plan)
        assert np.isfinite(total.item())


class TestSampleNegativeEdges:
    def test_negatives_are_non_edges(self):
        g = random_graph(8, 10, seed=1)
        negs = sample_negative_edges(g, 5, np.random.default_rng(0))
        assert len(negs) == 5
        assert not set(negs) & g.edge_set()

    def test_complete_graph_has_no_negatives(self):
        g = random_graph(4, 6, seed=0)  # complete on 4 nodes
        assert sample_negative_edges(g, 3, np.random.default_rng(0)) == []


class TestPretrainForward:
    def _setup(self, variant, seed=0):
        from maskcast.masking import MaskPlan

        g = random_graph(5, 7, seed=2)
        cfg = RunConfig(variant=variant, history=4, horizon=4, patch_length=2,
                        hidden_dim=3, seed=seed)
        state = ModelState.initialize(cfg.encoder_config(5), stream(seed, "init"))
        edges = set() if variant == "NS" else {next(iter(g.edge_set()))}
        patch = [False, False] if variant == "NT" else [True, False]
        plan = MaskPlan(masked_edges=edges, patch_mask=np.array(patch),
                        p_s=cfg.p_s, p_t=cfg.p_t, patch_length=2)
        x = np.random.default_rng(3).normal(size=(2, 4, 5, 1))
        return x, g, state, cfg, plan

    def test_ns_variant_no_spatial_loss_or_gradient(self):
        x, g, state, cfg, plan = self._setup("NS")
        total, l_a, l_x = pretrain_forward(x, g, state, cfg, plan)
        assert l_a.item() == 0.0 and l_x.item() > 0.0
        state.params.zero_grad()
        ad.backward(total)
        assert (state.params["spatial_decoder.w"].grad == 0).all()

    def test_nt_variant_no_temporal_loss_or_gradient(self):
        x, g, state, cfg, plan = self._setup("NT")
        total, l_a, l_x = pretrain_forward(x, g, state, cfg, plan)
        assert l_x.item() == 0.0 and l_a.item() > 0.0
        state.params.zero_grad()
        ad.backward(total)
        assert (state.params["mask_token"].grad == 0).all()
        assert (state.params["temporal_decoder.w"].grad == 0).all()

    def test_no_embedded_array_alive_at_the_encoder(self, monkeypatch):
        # the encoder embeds the lifted window itself: when it starts, the
        # lift's C + 2 channels exist, but nothing of the window's
        # [B, H, N, D] embedding
        g = random_graph(10, 20, seed=2)
        cfg = RunConfig(history=12, horizon=3, patch_length=3, hidden_dim=16)
        state = init_state(cfg, g)
        plan = masking.MaskPlan(masked_edges={g.edges[0][:2]},
                                patch_mask=np.array([True, False, True, False]),
                                p_s=cfg.p_s, p_t=cfg.p_t, patch_length=3)
        x = np.random.default_rng(0).normal(size=(8, 12, 10, 1))
        live = []
        graph_gru = ad.graph_gru

        def at_entry(*args):
            live.append(tracemalloc.get_traced_memory()[0])
            return graph_gru(*args)

        monkeypatch.setattr(ad, "graph_gru", at_entry)
        tracemalloc.start()
        try:
            pretrain_forward(x, g, state, cfg, plan)
        finally:
            tracemalloc.stop()
        one_channel = x.size * 8  # the window itself, allocated before tracing
        # the lift's C + 2 channels and less than one channel besides them,
        # far below a D = 16 channel embedding
        assert live[0] < (x.shape[-1] + 3) * one_channel

    def test_total_combines_terms(self):
        x, g, state, cfg, plan = self._setup("full")
        cfg.lam = 2.0
        total, l_a, l_x = pretrain_forward(x, g, state, cfg, plan)
        np.testing.assert_allclose(total.item(), 2.0 * l_a.item() + l_x.item(),
                                   rtol=1e-12)


class TestPretrainForwardChain:
    """pretrain_forward against a chain of primitive kernels that shares no
    code with ``graph_gru``: the embedding and patch mask of
    ``reference_embed``, the recurrence of ``reference_encoder``, the full
    [B, N, N] sigmoid of (SW)(SW)^T built with matmul and transpose, and
    gather_flat and tlog of the gathered probabilities. The encoder
    multiplies A by the raw window and the edge loss takes softplus of the
    logits, so the two agree to round-off."""

    @staticmethod
    def chain_forward(x_batch, g, state, cfg, plan, negative_edges, mask_graph):
        params = state.params
        steps = np.flatnonzero(masking.step_mask(plan.patch_mask, cfg.history))
        x_emb = reference_embed(Tensor(x_batch), params["embed.w"], params["embed.b"],
                                params["mask_token"], steps)
        adjacency = model_adjacency(mask_graph if mask_graph is not None else g, state,
                                    plan.masked_edges)
        s = reference_encoder(x_emb, adjacency, params)
        sw = ad.matmul(s, params["spatial_decoder.w"])
        a_hat = ad.sigmoid(ad.matmul(sw, ad.transpose(sw, (0, 2, 1))))
        l_a = loss_spatial(a_hat, plan.masked_edges, negative_edges)
        l_x = Tensor(0.0)
        if plan.patch_mask.any():
            l_x = loss_temporal(temporal_decoder(s, state.config, params), x_batch, plan.patch_mask)
        return loss_pretrain(l_a, l_x, cfg.lam)

    @staticmethod
    def loss_and_gradients(forward, params):
        params.zero_grad()
        loss = forward()
        ad.backward(loss)
        return loss.item(), {p: t.grad.copy() for p, t in params.items()}

    @pytest.mark.parametrize("graph_mode,negatives,patch_mask", [
        ("predefined", True, [True, False, True]),
        ("adaptive", False, [False, True, True]),
        ("predefined", True, [False, False, False]),
    ])
    def test_loss_and_gradients_equal_to_the_old_chain(self, graph_mode, negatives, patch_mask):
        g = random_graph(9, 18, seed=4)
        cfg = RunConfig(history=6, horizon=3, patch_length=2, hidden_dim=4, lam=0.7,
                        graph_mode=graph_mode, topk=3, node_embed_dim=3)
        state = init_state(cfg, g)
        mask_graph = mask_sampling_graph(g, state) if graph_mode == "adaptive" else None
        sample_graph = mask_graph if mask_graph is not None else g
        rng = np.random.default_rng(8)
        edges, _ = masking.trace_spatial_mask(sample_graph, 0.4, cfg.walk_config(), rng)
        negative_edges = (sample_negative_edges(sample_graph, len(edges), rng)
                          if negatives else None)
        plan = masking.MaskPlan(masked_edges=edges, patch_mask=np.array(patch_mask),
                                p_s=0.4, p_t=0.5, patch_length=2)
        x = rng.normal(size=(3, 6, 9, 1))

        new_loss, new = self.loss_and_gradients(
            lambda: pretrain_forward(x, g, state, cfg, plan, negative_edges=negative_edges,
                                     mask_graph=mask_graph)[0], state.params)
        old_loss, old = self.loss_and_gradients(
            lambda: self.chain_forward(x, g, state, cfg, plan, negative_edges, mask_graph),
            state.params)
        np.testing.assert_allclose(new_loss, old_loss, rtol=1e-12)
        assert new.keys() == old.keys()
        for name, grad in old.items():
            np.testing.assert_allclose(new[name], grad, rtol=1e-12,
                                       atol=1e-12 * np.abs(grad).max(), err_msg=name)
        assert any(grad.any() for grad in new.values())


# forecast never reads these, so fine-tuning's zero gradient leaves them as they were
PRETRAIN_ONLY = ("spatial_decoder.w", "temporal_decoder.w", "temporal_decoder.b", "mask_token")


class TestFinetuneFreezing:
    def test_pretrain_only_parameters_untouched(self):
        g = random_graph(5, 7, seed=0)
        cfg = RunConfig(history=4, horizon=4, patch_length=2, hidden_dim=3)
        state = ModelState.initialize(cfg.encoder_config(5), stream(0, "init"))
        frozen_before = {p: state.params[p].data.copy() for p in PRETRAIN_ONLY}
        w1_before = state.params["predictor.w1"].data.copy()

        opt = Adam(state.params, lr=1e-2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 4, 5, 1))
        y = rng.normal(size=(4, 4, 5, 1))
        for _ in range(3):
            finetune_step(x, y, g, state, opt)

        for path, before in frozen_before.items():
            assert (state.params[path].data == before).all()
        assert not np.array_equal(state.params["predictor.w1"].data, w1_before)

    @pytest.mark.parametrize("graph_mode", ["predefined", "adaptive"])
    def test_finetune_stage_keeps_the_pretrained_values(self, tiny, graph_mode):
        splits, g = tiny
        cfg = small_cfg(graph_mode=graph_mode, finetune_epochs=3)
        state = init_state(cfg, g)
        training.pretrain(cfg, splits, g, state)
        pretrained = {p: state.params[p].data.copy() for p in PRETRAIN_ONLY}
        encoder_before = state.params["encoder.update.w"].data.copy()
        training.finetune(cfg, splits, g, state)  # ends on the best-validation values
        for path, before in pretrained.items():
            assert state.params[path].data.tobytes() == before.tobytes(), path
        assert not np.array_equal(state.params["encoder.update.w"].data, encoder_before)


class TestRunTwoStage:
    def test_seeded_runs_bitwise_identical(self, tiny):
        splits, g = tiny
        a = run_two_stage(small_cfg(), splits, g)
        b = run_two_stage(small_cfg(), splits, g)
        assert a.report["overall"] == b.report["overall"]
        for path, tensor in a.state.params.items():
            assert (b.state.params[path].data == tensor.data).all()

    def test_adaptive_run_bitwise_identical_on_one_and_two_threads(self, tiny, monkeypatch):
        # every batch cut into two ranges: the recurrence and the products
        # after its reverse loop, the learned adjacency's gradient among
        # them, run on two threads
        splits, g = tiny
        cfg = small_cfg(graph_mode="adaptive", topk=3, negative_sampling=True)
        runs = []
        monkeypatch.setattr(ad, "_MIN_RANGE_STEP", 1)
        monkeypatch.setattr(ad, "_pool", None)
        try:
            for workers in (1, 2):
                monkeypatch.setattr(ad, "_WORKERS", workers)
                result = run_two_stage(cfg, splits, g)
                runs.append(({p: t.data.tobytes() for p, t in result.state.params.items()},
                             repr(result.curve), repr(result.report)))
        finally:
            if ad._pool is not None:
                ad._pool.shutdown()
        assert runs[0] == runs[1]

    def test_no_pretraining_matches_scratch_baseline(self, tiny):
        splits, g = tiny
        a = run_two_stage(small_cfg(pretrain_epochs=0), splits, g)
        b = run_two_stage(small_cfg(variant="baseline"), splits, g)
        assert a.report["overall"] == b.report["overall"]

    def test_curve_covers_both_stages(self, tiny):
        splits, g = tiny
        result = run_two_stage(small_cfg(pretrain_epochs=2, finetune_epochs=2), splits, g)
        stages = [(p.stage, p.epoch) for p in result.curve]
        assert stages == [("pretrain", 0), ("pretrain", 1),
                          ("finetune", 0), ("finetune", 1)]
        assert result.curve[0].val_mae is None
        assert result.curve[-1].val_mae is not None

    def test_best_checkpoint_matches_reported_validation(self, tiny):
        splits, g = tiny
        result = run_two_stage(small_cfg(finetune_epochs=3), splits, g)
        val_maes = [p.val_mae for p in result.curve if p.stage == "finetune"]
        assert result.best_val_mae == min(val_maes)

    def test_sampler_audit_counts_batches(self, tiny):
        splits, g = tiny
        result = run_two_stage(small_cfg(pretrain_epochs=2), splits, g)
        n_batches = -(-len(splits.train) // 32)  # ceil division
        assert result.pretraining.sampler_calls["walk_spatial"] == 2 * n_batches
        assert result.pretraining.sampler_calls["patch_temporal"] == 2 * n_batches

    def test_cosine_decay_schedule_values(self):
        from maskcast.training import _stage_lr

        cfg = small_cfg(lr=1e-3, lr_decay="cosine")
        assert _stage_lr(cfg, 0, 10) == 1e-3
        np.testing.assert_allclose(_stage_lr(cfg, 5, 10), 5e-4, rtol=1e-12)
        assert _stage_lr(cfg, 9, 10) < 3e-5
        assert _stage_lr(small_cfg(lr=1e-3), 9, 10) == 1e-3

    def test_adaptive_mode_runs(self, tiny):
        splits, g = tiny
        cfg = small_cfg(graph_mode="adaptive", topk=3)
        result = run_two_stage(cfg, splits, g)
        assert np.isfinite(result.report["overall"]["mae"])


class TestExperimentGrid:
    def test_configs_in_product_order_axes_then_seed(self):
        configs = grid_configs(small_cfg(), [0, 1], p_s=[0.2, 1], p_t=[0.3])
        assert [(c.p_s, c.p_t, c.seed) for c in configs] == [
            (0.2, 0.3, 0), (0.2, 0.3, 1), (1.0, 0.3, 0), (1.0, 0.3, 1)]
        assert type(configs[-1].p_s) is float  # validated

    @pytest.mark.parametrize("experiment, grid", [
        (training.run_ablation, ([0, -1],)),
        (training.sensitivity_sweep, ([0.2, 1.5], [0.3], [0])),
    ])
    def test_bad_cell_rejected_before_the_first_run(self, tiny, monkeypatch, experiment, grid):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the grid was checked")

        monkeypatch.setattr(training, "run_two_stage", no_run)
        with pytest.raises(ConfigError):
            experiment(*tiny, small_cfg(), *grid)


class TestPredictWindows:
    def test_forward_records_no_tape_and_leaves_grads(self, tiny, monkeypatch):
        splits, g = tiny
        state = ModelState.initialize(small_cfg().encoder_config(g.n_nodes), stream(0, "init"))
        for _, t in state.params.items():
            t.grad = np.full_like(t.data, 7.0)
        grads = {p: t.grad for p, t in state.params.items()}
        forecast, outputs = training.forecast, []

        def recording_forecast(*args):
            outputs.append(forecast(*args))
            return outputs[-1]

        monkeypatch.setattr(training, "forecast", recording_forecast)
        preds = training.predict_windows(splits.val, g, state)
        assert outputs and all(not o.requires_grad and o._backward is None for o in outputs)
        for path, t in state.params.items():
            assert t.grad is grads[path] and (t.grad == 7.0).all()
        xs, _ = stack_windows(splits.val)
        want = np.concatenate([forecast(xs[lo:lo + training.PREDICT_BATCH], g, state).data
                               for lo in range(0, len(xs), training.PREDICT_BATCH)])
        assert preds.tobytes() == want.tobytes()


class TestDivergenceGuard:
    """A non-finite loss or validation MAE stops the run and names where."""

    @staticmethod
    def splits_with_nan(row):
        ds = synthesize(6, 240, seed=1)
        ds.values[row, 2, 0] = np.nan
        return prepare_splits(ds, 12, 12), ds.graph

    def test_nan_training_value_stops_pretraining(self):
        splits, g = self.splits_with_nan(10)
        with pytest.raises(ValueError, match=r"pretrain epoch 0 step 0: non-finite loss nan"):
            run_two_stage(small_cfg(), splits, g)

    def test_nan_training_value_stops_finetuning(self):
        splits, g = self.splits_with_nan(10)
        with pytest.raises(ValueError, match=r"finetune epoch 0 step 0: non-finite loss nan"):
            run_two_stage(small_cfg(variant="baseline"), splits, g)

    def test_nan_validation_value_stops_finetuning(self):
        # row 190 lies in validation and test windows only, after the
        # rows the normalization statistics come from
        splits, g = self.splits_with_nan(190)
        with pytest.raises(ValueError, match=r"finetune epoch 0: non-finite validation MAE nan"):
            run_two_stage(small_cfg(), splits, g)

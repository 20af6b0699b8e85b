import numpy as np
import pytest

from maskcast import autodiff as ad
from maskcast import masking
from maskcast.autodiff import Tensor
from maskcast.graph import Graph, WalkConfig
from maskcast.masking import (apply_spatial_mask, apply_temporal_mask,
                              edge_mask_matrix, mask_target_size,
                              sample_temporal_mask,
                              sample_uniform_spatial_mask,
                              trace_spatial_mask)

from conftest import random_graph


class TestSpatialMask:
    def test_zero_ratio_empty(self):
        g = random_graph(8, 12, seed=0)
        assert trace_spatial_mask(g, 0.0, WalkConfig(), np.random.default_rng(0))[0] == set()

    def test_exact_count_and_walk_membership(self):
        g = random_graph(8, 10, seed=1)
        edges, walks = trace_spatial_mask(g, 0.3, WalkConfig(), np.random.default_rng(2))
        assert len(edges) == 3
        walked = set()
        for path in walks:
            for a, b in zip(path, path[1:]):
                walked.add((min(a, b), max(a, b)))
        assert edges <= walked

    @pytest.mark.parametrize("p_s", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    def test_count_exact_across_grid(self, p_s):
        g = random_graph(12, 20, seed=3)
        edges = trace_spatial_mask(g, p_s, WalkConfig(), np.random.default_rng(4))[0]
        assert len(edges) == mask_target_size(20, p_s)

    def test_masks_are_walk_connected(self):
        g = random_graph(10, 20, seed=5)
        edges, walks = trace_spatial_mask(g, 0.5, WalkConfig(), np.random.default_rng(6))
        # every walk is a connected edge sequence and together they cover the mask
        for path in walks:
            assert len(path) >= 2
        covered = {(min(a, b), max(a, b)) for p in walks for a, b in zip(p, p[1:])}
        assert edges == covered & edges

    def test_seeded_reproducibility(self):
        g = random_graph(10, 20, seed=5)
        a = trace_spatial_mask(g, 0.4, WalkConfig(p=2, q=0.5), np.random.default_rng(11))[0]
        b = trace_spatial_mask(g, 0.4, WalkConfig(p=2, q=0.5), np.random.default_rng(11))[0]
        assert a == b

    def test_unwalkable_edge_stops_at_the_cap(self, monkeypatch):
        # a triangle whose edge (0, 2) no walk takes in practice; the walks
        # from roots 0 and 2 cover the other two
        g = Graph(n_nodes=3, edges=[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1e-12)])
        monkeypatch.setattr(masking, "WALKS_PER_TARGET_EDGE", 5)
        cfg = WalkConfig(p=0.5, q=2.0, walk_length=2)
        edges, walks = trace_spatial_mask(g, 0.6, cfg, np.random.default_rng(0))
        assert edges == {(0, 1), (1, 2)} and len(walks) <= 3
        with pytest.raises(ValueError, match=r"p_s=1\.0: 15 walks left 1 of 3 target edges uncovered"):
            trace_spatial_mask(g, 1.0, cfg, np.random.default_rng(0))


class TestApplySpatialMask:
    def test_empty_mask_unchanged(self):
        g = random_graph(6, 8, seed=0)
        out = apply_spatial_mask(g, set())
        assert (out == g.adjacency).all()

    def test_single_edge_graph_fully_masked(self):
        g = Graph(n_nodes=2, edges=[(0, 1, 0.7)])
        out = apply_spatial_mask(g, {(0, 1)})
        assert (out == 0).all()

    def test_mask_then_restore_is_identity(self):
        g = random_graph(8, 14, seed=1)
        masked = trace_spatial_mask(g, 0.5, WalkConfig(), np.random.default_rng(0))[0]
        out = apply_spatial_mask(g, masked)
        for u, v in masked:
            out[u, v] = g.adjacency[u, v]
            out[v, u] = g.adjacency[v, u]
        assert (out == g.adjacency).all()

    def test_unmasked_entries_bitwise_identical(self):
        g = random_graph(8, 14, seed=2)
        masked = {next(iter(g.edge_set()))}
        out = apply_spatial_mask(g, masked)
        (u, v), = masked
        touched = np.zeros_like(out, dtype=bool)
        touched[u, v] = touched[v, u] = True
        assert (out[~touched] == g.adjacency[~touched]).all()

    def test_original_graph_untouched(self):
        g = random_graph(6, 8, seed=3)
        before = g.adjacency.copy()
        apply_spatial_mask(g, {next(iter(g.edge_set()))})
        assert (g.adjacency == before).all()


class TestTemporalMask:
    def test_zero_ratio_all_visible(self):
        mask = sample_temporal_mask(6, 0.0, np.random.default_rng(0))
        assert not mask.any()

    def test_patch_count_for_default_window(self):
        # 12-step history with length-2 patches: 6 Bernoulli positions
        mask = sample_temporal_mask(12 // 2, 0.5, np.random.default_rng(1))
        assert len(mask) == 6

    def test_masked_fraction_matches_bernoulli_mean(self):
        rng = np.random.default_rng(2)
        n = 100_000
        total = sum(sample_temporal_mask(6, 0.5, rng).sum() for _ in range(n))
        # the all-masked guard (probability 1/64) shaves ~0.0026 off the mean
        assert abs(total / (6 * n) - 0.5) < 0.01

    def test_all_masked_guard(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            mask = sample_temporal_mask(4, 0.97, rng)
            assert not mask.all()


class TestUniformVariants:
    def test_full_ratio_masks_every_edge(self):
        g = random_graph(8, 10, seed=0)
        assert sample_uniform_spatial_mask(g, 1.0, np.random.default_rng(0)) == g.edge_set()

    def test_zero_ratio_empty(self):
        g = random_graph(8, 10, seed=0)
        assert sample_uniform_spatial_mask(g, 0.0, np.random.default_rng(0)) == set()

    def test_half_ratio_count(self):
        g = random_graph(8, 10, seed=1)
        masked = sample_uniform_spatial_mask(g, 0.5, np.random.default_rng(1))
        assert len(masked) == 5

    def test_uniform_edge_frequencies(self):
        # without-replacement sampling: every edge is included with prob k/|E|
        g = random_graph(8, 10, seed=2)
        rng = np.random.default_rng(3)
        counts = {e: 0 for e in g.edge_set()}
        n = 20_000
        for _ in range(n):
            for e in sample_uniform_spatial_mask(g, 0.5, rng):
                counts[e] += 1
        freqs = np.array([c / n for c in counts.values()])
        assert np.abs(freqs - 0.5).max() < 0.02

    def test_uniform_temporal_mean_count(self):
        rng = np.random.default_rng(4)
        n = 100_000
        total = sum(sample_temporal_mask(12, 0.25, rng).sum() for _ in range(n))
        assert abs(total / n - 3.0) < 0.05

    def test_uniform_temporal_guard(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            assert not sample_temporal_mask(3, 0.9, rng).all()


class TestApplyTemporalMask:
    """The masked history steps of a window, whose embedding the encoder
    replaces with the mask token."""

    def test_no_masked_patches_no_steps(self):
        x = Tensor(np.zeros((6, 3, 1)))
        assert apply_temporal_mask(x, np.zeros(3, dtype=bool)).size == 0

    def test_steps_of_masked_patches(self):
        x = Tensor(np.zeros((2, 6, 3, 1)))
        assert apply_temporal_mask(x, np.array([True, False, True])).tolist() == [0, 1, 4, 5]
        assert apply_temporal_mask(x, np.array([False] * 5 + [True])).tolist() == [5]

    def test_history_not_divisible_into_patches_rejected(self):
        with pytest.raises(ad.ShapeError, match="apply_temporal_mask"):
            apply_temporal_mask(Tensor(np.zeros((6, 3, 1))), np.zeros(4, dtype=bool))


class TestMaskPlanSerialization:
    def test_edge_mask_matrix_zeroes_pairs(self):
        m = edge_mask_matrix(4, {(1, 2)})
        assert m[1, 2] == 0 and m[2, 1] == 0
        assert m.sum() == 16 - 2

import warnings

import numpy as np
import pytest

from maskcast import autodiff as ad
from maskcast.autodiff import ParameterTree, Tensor, finite_diff_check
from maskcast.data import load_edge_list, numeric_body, save_edge_list
from maskcast.graph import (Graph, WalkConfig, adaptive_adjacency,
                            biased_random_walk, gaussian_threshold_graph,
                            graph_from_adjacency, normalize_adjacency, sparsify_topk)

from conftest import random_graph


class TestGaussianThreshold:
    def test_zero_distance_gives_unit_weight(self):
        d = np.array([[0.0, 0.0], [0.0, 0.0]])
        g = gaussian_threshold_graph(d, sigma=1.0, epsilon=0.9)
        assert g.adjacency[0, 1] == 1.0

    def test_three_node_threshold_example(self):
        d = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
        g = gaussian_threshold_graph(d, sigma=1.0, epsilon=0.5)
        assert g.n_edges == 0  # exp(-1) ~ 0.368 < 0.5

        g = gaussian_threshold_graph(d, sigma=1.0, epsilon=0.3)
        assert g.edge_set() == {(0, 1), (1, 2)}  # exp(-9) ~ 1.2e-4 drops (0, 2)
        np.testing.assert_allclose(g.adjacency[0, 1], np.exp(-1.0))

    def test_zero_epsilon_gives_complete_graph(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(5, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        g = gaussian_threshold_graph(d, sigma=1.0, epsilon=0.0)
        assert g.n_edges == 5 * 4 // 2

    def test_default_sigma_is_offdiag_std(self):
        d = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=float)
        g = gaussian_threshold_graph(d, epsilon=0.0)
        sigma = d[~np.eye(3, dtype=bool)].std()
        np.testing.assert_allclose(g.adjacency[0, 1], np.exp(-1.0 / sigma ** 2))


class TestNormalizeAdjacency:
    def test_edgeless_graph_is_identity(self):
        g = Graph(n_nodes=2, edges=[])
        np.testing.assert_array_equal(normalize_adjacency(g), np.eye(2))

    def test_two_node_single_edge(self):
        g = Graph(n_nodes=2, edges=[(0, 1, 1.0)])
        np.testing.assert_allclose(normalize_adjacency(g), [[0.5, 0.5], [0.5, 0.5]])

    def test_row_sums_one(self):
        g = random_graph(15, 30, seed=1)
        rows = normalize_adjacency(g).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)


class TestAdaptiveAdjacency:
    def test_zero_embeddings_uniform(self):
        a = adaptive_adjacency(Tensor(np.zeros((4, 3))))
        np.testing.assert_allclose(a.data, 0.25)

    def test_two_node_hand_example(self):
        a = adaptive_adjacency(Tensor(np.array([[1.0], [-1.0]])))
        e = np.e
        expected = [[e / (e + 1), 1 / (e + 1)], [1 / (e + 1), e / (e + 1)]]
        np.testing.assert_allclose(a.data, expected, rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        a = adaptive_adjacency(Tensor(rng.normal(size=(7, 4))))
        np.testing.assert_allclose(a.data.sum(axis=1), 1.0, atol=1e-12)

    def test_differentiable(self):
        rng = np.random.default_rng(2)
        params = ParameterTree()
        emb = params.add("emb", rng.normal(size=(4, 3)))
        weight = Tensor(rng.uniform(0.5, 1.5, size=(4, 4)))

        def f():
            return ad.tsum(ad.mul(adaptive_adjacency(emb), weight))

        assert finite_diff_check(f, params) < 1e-4


class TestSparsifyTopk:
    def test_k_equals_n_minus_one_keeps_all(self):
        rng = np.random.default_rng(0)
        dense = rng.uniform(0.1, 1.0, size=(4, 4))
        g = sparsify_topk(dense, 3)
        assert g.n_edges == 6

    def test_row_argmax_kept(self):
        dense = np.array([[0.0, 0.5, 0.9],
                          [0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0]])
        g = sparsify_topk(dense, 1)
        assert g.edge_set() == {(0, 2)}
        assert g.adjacency[0, 2] == 0.9

    def test_symmetrize_by_max_restores_one_sided_keep(self):
        # (0, 1) survives via row 0 even though row 1 prefers (1, 2)
        dense = np.array([[0.0, 0.9, 0.1],
                          [0.9, 0.0, 0.95],
                          [0.1, 0.95, 0.0]])
        g = sparsify_topk(dense, 1)
        assert (0, 1) in g.edge_set()
        np.testing.assert_array_equal(g.adjacency, g.adjacency.T)

    def test_result_symmetric(self):
        rng = np.random.default_rng(3)
        g = sparsify_topk(rng.uniform(size=(8, 8)), 2)
        np.testing.assert_array_equal(g.adjacency, g.adjacency.T)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            sparsify_topk(np.ones((3, 3)), 3)

    def test_same_graph_as_row_loop(self):
        # random matrices with ties, zeros and negative entries
        rng = np.random.default_rng(4)
        for trial in range(60):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n))
            dense = rng.integers(-1, 4, size=(n, n)) / 4.0 if trial % 2 else rng.normal(size=(n, n))
            g = sparsify_topk(dense, k)
            want = loop_topk(dense, k)
            assert g.adjacency.tobytes() == want.adjacency.tobytes()
            assert_same_edges(g.edges, want.edges)


def loop_topk(dense, k):
    """sparsify_topk by its definition, one row at a time."""
    a = np.asarray(dense, dtype=np.float64).copy()
    np.fill_diagonal(a, -np.inf)
    kept = np.zeros_like(a)
    for u in range(a.shape[0]):
        top = np.argpartition(a[u], -k)[-k:]
        kept[u, top] = np.maximum(a[u, top], 0.0)
    return graph_from_adjacency(np.maximum(kept, kept.T))


def assert_same_edges(got, want):
    assert [(u, v) for u, v, _ in got] == [(u, v) for u, v, _ in want]
    assert [(type(u), type(v), type(w)) for u, v, w in got] == [
        (type(u), type(v), type(w)) for u, v, w in want]
    assert np.array([w for *_, w in got]).tobytes() == np.array([w for *_, w in want]).tobytes()


class TestGraphFromAdjacency:
    def test_same_edges_as_pair_loop(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(1, 15))
            a = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.4)
            a = np.maximum(a, a.T)
            a[0, 0] = 1.0  # the diagonal is ignored
            got = graph_from_adjacency(a)
            clean = a.copy()
            np.fill_diagonal(clean, 0.0)
            want = [(u, v, clean[u, v]) for u in range(n) for v in range(u + 1, n) if clean[u, v] > 0]
            assert_same_edges(got.edges, want)
            assert got.adjacency.tobytes() == clean.tobytes()


def reference_walk(g, root, cfg, rng):
    """The second-order walk drawn with ``Generator.choice`` from dense adjacency rows."""

    def neighbors(node):
        idx = np.nonzero(g.adjacency[node])[0]
        return idx, g.adjacency[node, idx]

    nbrs, weights = neighbors(root)
    path = [root, int(rng.choice(nbrs, p=weights / weights.sum()))]
    while len(path) < cfg.walk_length:
        prev, cur = path[-2], path[-1]
        nbrs, weights = neighbors(cur)
        alpha = np.where(nbrs == prev, 1.0 / cfg.p,
                         np.where(g.adjacency[prev, nbrs] > 0, 1.0, 1.0 / cfg.q))
        probs = weights * alpha
        probs /= probs.sum()
        path.append(int(rng.choice(nbrs, p=probs)))
    return path


class TestBiasedRandomWalk:
    def test_unbiased_cycle_uniform(self, cycle_graph):
        # p = q = 1: the two neighbors are equally likely at every step
        cfg = WalkConfig(p=1.0, q=1.0, walk_length=3)
        rng = np.random.default_rng(0)
        counts = {1: 0, 3: 0}
        n = 100_000
        for _ in range(n):
            path = biased_random_walk(cycle_graph, 0, cfg, rng)
            counts[path[1]] += 1
        assert abs(counts[1] / n - 0.5) < 0.01

    def test_path_graph_transition_bias(self, path_graph):
        # at b having arrived from a: weights {a: 1/p = 2, c: 1/q = 0.5}
        cfg = WalkConfig(p=0.5, q=2.0, walk_length=3)
        rng = np.random.default_rng(1)
        back = 0
        n = 100_000
        for _ in range(n):
            path = biased_random_walk(path_graph, 0, cfg, rng)
            # first step is forced a -> b; third node reveals the biased choice
            if path[2] == 0:
                back += 1
        assert abs(back / n - 0.8) < 0.01

    def test_walk_edges_exist(self):
        g = random_graph(10, 18, seed=4)
        cfg = WalkConfig(walk_length=8)
        rng = np.random.default_rng(0)
        edge_set = g.edge_set()
        for root in range(g.n_nodes):
            if not g.adjacency[root].any():
                continue
            path = biased_random_walk(g, root, cfg, rng)
            for a, b in zip(path, path[1:]):
                assert (min(a, b), max(a, b)) in edge_set

    @pytest.mark.parametrize("p,q,walk_length", [(1.0, 1.0, 8), (0.5, 2.0, 12), (4.0, 0.25, 5)])
    def test_same_walks_and_stream_as_generator_choice(self, p, q, walk_length):
        cfg = WalkConfig(p=p, q=q, walk_length=walk_length)
        graphs = (random_graph(30, 80, seed=5), random_graph(12, 20, seed=6))
        # the second pass draws from the transition CDFs the first one cached
        for _ in range(2):
            for g in graphs:
                rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
                for root in range(g.n_nodes):
                    if g.adjacency[root].any():
                        assert biased_random_walk(g, root, cfg, rng) == reference_walk(g, root, cfg, ref_rng)
                assert rng.random() == ref_rng.random()

    def test_interleaved_walk_configs_keep_their_own_transitions(self):
        g = random_graph(20, 50, seed=7)
        configs = (WalkConfig(p=0.5, q=2.0, walk_length=9), WalkConfig(p=4.0, q=0.25, walk_length=9))
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        roots = [u for u in range(g.n_nodes) if g.adjacency[u].any()]
        for _ in range(3):
            for root in roots:
                for cfg in configs:
                    assert biased_random_walk(g, root, cfg, rng) == reference_walk(g, root, cfg, ref_rng)
        assert rng.random() == ref_rng.random()

    def test_seeded_walk_reproducible(self, cycle_graph):
        cfg = WalkConfig(p=0.7, q=1.3, walk_length=10)
        one = biased_random_walk(cycle_graph, 0, cfg, np.random.default_rng(9))
        two = biased_random_walk(cycle_graph, 0, cfg, np.random.default_rng(9))
        assert one == two


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = random_graph(6, 9, seed=2)
        path = tmp_path / "edges.csv"
        save_edge_list(g, path)
        loaded = load_edge_list(path, n_nodes=6)
        assert loaded.edge_set() == g.edge_set()
        np.testing.assert_array_equal(loaded.adjacency, g.adjacency)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("a,b,c\n0,1,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_edge_list(path, n_nodes=2)

    @pytest.mark.parametrize("body, rows", [
        ("1,2\r\n3,4\r\n", 2),
        ("1,2\n3,4", 2),
        ("1,2\r3,4\r", 2),
        ("0" * 65535 + "\r\n1,2\r\n", None),  # one cell per line: the column counts differ
        ("0" * 65535 + "\r\n1\r\n", 2),  # the first \r\n is cut between two read chunks
        ("1,2\n\n3,4\n", None),
        ("1,2\r\n \r\n3,4\r\n", None),
        ('"1",2\n', None),
        ("1_5,2\n", None),
        ("\r\n\r\n", None),
        ("", None),
        ("1,2\r3,4\n5,6\r\n", 3),
        ("1,2\n\r3,4\n", None),  # a lone \r after a \n is a blank line of its own
    ], ids=["crlf", "lf-no-last-newline", "cr", "ragged", "crlf-across-chunks", "blank", "spaces",
            "quoted", "underscore", "only-blank", "empty", "mixed-line-ends", "cr-blank-after-lf"])
    def test_numeric_body_stands_only_with_one_row_per_line(self, tmp_path, body, rows):
        path = tmp_path / "body.csv"
        path.write_bytes(body.encode())
        with open(path, newline="") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a file with no data rows
            table = numeric_body(fh, np.float64, ndmin=2)
            assert fh.tell() == 0
        assert (table is None) if rows is None else len(table) == rows

"""Graph construction, normalization, learned adjacency, and biased walks."""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad


@dataclass
class Graph:
    """Undirected weighted graph with a dense adjacency matrix.

    Invariants: adjacency symmetric, zero diagonal, positive entries exactly
    where edges exist, no duplicate undirected edges. The neighbours of node
    u, as a CSR table built once, are ``nbr_index[nbr_ptr[u]:nbr_ptr[u + 1]]``
    with weights ``nbr_weight`` over the same range, in ascending order.
    ``biased_random_walk`` keeps the transition CDFs it builds in
    ``_walk_cdfs``; it holds at most one CDF per root and per directed edge
    for each (p, q) walked.
    """

    n_nodes: int
    edges: list  # list of (u, v, weight) with u < v
    adjacency: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.adjacency is None:
            self.adjacency = np.zeros((self.n_nodes, self.n_nodes))
            if self.edges:
                u, v, w = (np.asarray(column) for column in zip(*self.edges))
                self.adjacency[u, v] = w
                self.adjacency[v, u] = w
        rows, self.nbr_index = np.nonzero(self.adjacency)
        self.nbr_ptr = np.searchsorted(rows, np.arange(self.n_nodes + 1))
        self.nbr_weight = self.adjacency[rows, self.nbr_index]
        self._walk_cdfs = {}  # (p, q) -> {(prev or None, cur): (nbrs, cdf)}

    @property
    def n_edges(self):
        return len(self.edges)

    def edge_set(self):
        return {(u, v) for u, v, _ in self.edges}


@dataclass
class WalkConfig:
    """Second-order walk parameters: return bias p, in-out bias q."""

    p: float = 1.0
    q: float = 1.0
    walk_length: int = 8


def graph_from_adjacency(adjacency):
    """Build a Graph from a symmetric nonnegative matrix (diagonal ignored)."""
    a = np.asarray(adjacency, dtype=np.float64).copy()
    np.fill_diagonal(a, 0.0)
    rows, cols = np.nonzero(np.triu(a > 0, 1))  # row-major: (u, v) ascending, u < v
    edges = list(zip(rows.tolist(), cols.tolist(), a[rows, cols]))
    return Graph(n_nodes=a.shape[0], edges=edges, adjacency=a)


def gaussian_threshold_graph(distances, sigma=None, epsilon=0.5):
    """Thresholded Gaussian kernel graph: w(u,v) = exp(-d^2/sigma^2) if >= epsilon.

    ``sigma`` defaults to the standard deviation of off-diagonal distances.
    """
    d = np.asarray(distances, dtype=np.float64)
    if sigma is None:
        off = d[~np.eye(d.shape[0], dtype=bool)]
        sigma = float(off.std())
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")

    w = np.exp(-(d ** 2) / sigma ** 2)
    adj = np.where(w >= epsilon, w, 0.0)
    np.fill_diagonal(adj, 0.0)
    return graph_from_adjacency(adj)


def normalize_adjacency(g):
    """Row-stochastic propagation matrix: rowdeg^-1 (A + I)."""
    return normalize_dense(g.adjacency)


def normalize_dense(adjacency):
    """normalize_adjacency on a raw matrix (e.g. after edge masking)."""
    a = np.asarray(adjacency, dtype=np.float64) + np.eye(adjacency.shape[0])
    return a / a.sum(axis=1, keepdims=True)


def adaptive_adjacency(node_embeddings):
    """Learned row-stochastic adjacency from node embeddings (differentiable).

    row_softmax(relu(E E^T)); takes the embedding Tensor and returns a Tensor
    so gradients flow into the embeddings.
    """
    scores = ad.relu(ad.matmul(node_embeddings, ad.transpose(node_embeddings, (1, 0))))
    return ad.row_softmax(scores)


def sparsify_topk(dense, k):
    """Keep the k largest off-diagonal entries per row, symmetrized by max."""
    a = np.asarray(dense, dtype=np.float64).copy()
    n = a.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ValueError(f"k must be < n_nodes ({n}), got {k}")
    np.fill_diagonal(a, -np.inf)
    kept = np.zeros_like(a)
    rows = np.arange(n)[:, None]
    top = np.argpartition(a, -k, axis=1)[:, -k:]
    kept[rows, top] = np.maximum(a[rows, top], 0.0)
    sym = np.maximum(kept, kept.T)
    return graph_from_adjacency(sym)


def biased_random_walk(g, root, cfg, rng):
    """Second-order biased walk from ``root``.

    First step is drawn by edge weight; later steps from node v (previous
    node t) weight each neighbor x by w(v,x) * alpha with alpha = 1/p when
    x == t, 1 when x adjacent to t, 1/q otherwise. ``root`` must have a
    neighbor; in a symmetric adjacency every later node then has one (the
    node it came from), so the path always has ``cfg.walk_length`` nodes.
    Each step consumes one ``rng.random()`` and picks exactly what
    ``rng.choice(nbrs, p=probs)`` would. Each transition's CDF is built on
    first use and kept on ``g``, per ``(p, q)``, so a later step is one
    draw and one search.
    """
    cdfs = g._walk_cdfs.setdefault((cfg.p, cfg.q), {})
    path = [root, _step(g, cdfs, None, root, cfg, rng)]
    while len(path) < cfg.walk_length:
        path.append(_step(g, cdfs, path[-2], path[-1], cfg, rng))
    return path


def _step(g, cdfs, prev, cur, cfg, rng):
    # Generator.choice(nbrs, p=probs)'s own inverse-CDF draw, without its
    # per-call argument checks
    entry = cdfs.get((prev, cur))
    if entry is None:
        entry = cdfs[prev, cur] = _transition_cdf(g, prev, cur, cfg)
    nbrs, cdf = entry
    return int(nbrs[cdf.searchsorted(rng.random(), side="right")])


def _transition_cdf(g, prev, cur, cfg):
    """(neighbours of ``cur``, CDF of the step to them), having come from
    ``prev`` (None on the first step)."""
    lo, hi = g.nbr_ptr[cur], g.nbr_ptr[cur + 1]
    nbrs, weights = g.nbr_index[lo:hi], g.nbr_weight[lo:hi]
    if prev is None:
        probs = weights / weights.sum()
    else:
        alpha = np.where(
            nbrs == prev,
            1.0 / cfg.p,
            np.where(g.adjacency[prev, nbrs] > 0, 1.0, 1.0 / cfg.q),
        )
        probs = weights * alpha
        probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return nbrs, cdf

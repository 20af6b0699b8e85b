"""Graph construction, normalization, learned adjacency, and biased walks."""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad


@dataclass
class Graph:
    """Undirected weighted graph with a dense adjacency matrix.

    Invariants: adjacency symmetric, zero diagonal, positive entries exactly
    where edges exist, no duplicate undirected edges.
    """

    n_nodes: int
    edges: list  # list of (u, v, weight) with u < v
    adjacency: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.adjacency is None:
            a = np.zeros((self.n_nodes, self.n_nodes))
            for u, v, w in self.edges:
                a[u, v] = w
                a[v, u] = w
            self.adjacency = a

    @property
    def n_edges(self):
        return len(self.edges)

    def edge_set(self):
        return {(u, v) for u, v, _ in self.edges}

    def neighbors(self, node):
        """(neighbor indices, weights) arrays for one node."""
        row = self.adjacency[node]
        idx = np.nonzero(row)[0]
        return idx, row[idx]


@dataclass
class WalkConfig:
    """Second-order walk parameters: return bias p, in-out bias q."""

    p: float = 1.0
    q: float = 1.0
    walk_length: int = 8

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError(f"walk parameters must be positive, got p={self.p}, q={self.q}")
        if self.walk_length < 2:
            raise ValueError(f"walk_length must be >= 2, got {self.walk_length}")


def graph_from_adjacency(adjacency):
    """Build a Graph from a symmetric nonnegative matrix (diagonal ignored)."""
    a = np.asarray(adjacency, dtype=np.float64).copy()
    np.fill_diagonal(a, 0.0)
    n = a.shape[0]
    edges = [(u, v, a[u, v]) for u in range(n) for v in range(u + 1, n) if a[u, v] > 0]
    return Graph(n_nodes=n, edges=edges, adjacency=a)


def gaussian_threshold_graph(distances, sigma=None, epsilon=0.5):
    """Thresholded Gaussian kernel graph: w(u,v) = exp(-d^2/sigma^2) if >= epsilon.

    ``sigma`` defaults to the standard deviation of off-diagonal distances.
    """
    d = np.asarray(distances, dtype=np.float64)
    n = d.shape[0]
    if d.shape != (n, n) or not np.allclose(d, d.T):
        raise ValueError("distance matrix must be square and symmetric")
    if (d < 0).any():
        raise ValueError("distance matrix must be nonnegative")
    if not (0 <= epsilon < 1):
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    if sigma is None:
        off = d[~np.eye(n, dtype=bool)]
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

    row_softmax(relu(E E^T)); accepts a Tensor and returns a Tensor so
    gradients flow into the embeddings.
    """
    e = node_embeddings if isinstance(node_embeddings, ad.Tensor) else ad.Tensor(node_embeddings)
    scores = ad.relu(ad.matmul(e, ad.transpose(e, (1, 0))))
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
    for u in range(n):
        top = np.argpartition(a[u], -k)[-k:]
        kept[u, top] = np.maximum(a[u, top], 0.0)
    sym = np.maximum(kept, kept.T)
    return graph_from_adjacency(sym)


def biased_random_walk(g, root, cfg, rng):
    """Second-order biased walk from ``root``.

    First step is drawn by edge weight; later steps from node v (previous
    node t) weight each neighbor x by w(v,x) * alpha with alpha = 1/p when
    x == t, 1 when x adjacent to t, 1/q otherwise. Stops early only at a
    node with no neighbors.
    """
    nbrs, weights = g.neighbors(root)
    if len(nbrs) == 0:
        raise ValueError(f"walk root {root} has no neighbors")

    path = [root]
    nxt = int(rng.choice(nbrs, p=weights / weights.sum()))
    path.append(nxt)
    while len(path) < cfg.walk_length:
        cur = path[-1]
        prev = path[-2]
        nbrs, weights = g.neighbors(cur)
        if len(nbrs) == 0:
            break
        alpha = np.where(
            nbrs == prev,
            1.0 / cfg.p,
            np.where(g.adjacency[prev, nbrs] > 0, 1.0, 1.0 / cfg.q),
        )
        probs = weights * alpha
        probs /= probs.sum()
        path.append(int(rng.choice(nbrs, p=probs)))
    return path


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def save_edge_list(g, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "weight"])
        for u, v, w in g.edges:
            writer.writerow([u, v, repr(float(w))])


def _bad_edge(path, line, what, row):
    return ValueError(f"edge list {path}: line {line}: {what}: {row}")


def load_edge_list(path, n_nodes):
    """Read a u,v,weight edge list; a bad edge raises ValueError naming its line."""
    lo, hi, weights, lines = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["u", "v", "weight"]:
            raise ValueError(f"edge list {path}: expected header u,v,weight, got {header}")
        for row in reader:
            try:
                u, v, w = int(row[0]), int(row[1]), float(row[2])
            except (IndexError, ValueError):
                raise _bad_edge(path, reader.line_num, "expected integers u, v and a numeric weight", row)
            if u > v:
                u, v = v, u
            if u < 0 or v >= n_nodes:
                raise _bad_edge(path, reader.line_num, f"node index outside [0, {n_nodes})", row)
            lo.append(u)
            hi.append(v)
            weights.append(w)
            lines.append(reader.line_num)
    lo_a, hi_a, w_a = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64), np.array(weights)
    repeated = np.ones(len(lo), dtype=bool)
    repeated[np.unique(lo_a * n_nodes + hi_a, return_index=True)[1]] = False
    for bad, what in ((lo_a == hi_a, "self-loop"),
                      (repeated, "duplicate undirected edge"),
                      (~(np.isfinite(w_a) & (w_a > 0)), "weight must be finite and positive")):
        if bad.any():
            i = int(np.argmax(bad))
            raise _bad_edge(path, lines[i], what, (lo[i], hi[i], weights[i]))
    return Graph(n_nodes=n_nodes, edges=list(zip(lo, hi, weights)))


import numpy as np
import pytest

from maskcast import autodiff as ad
from maskcast.autodiff import Tensor
from maskcast.data import prepare_splits, synthesize
from maskcast.graph import Graph


@pytest.fixture(scope="session")
def small_dataset():
    return synthesize(12, 400, seed=3)


@pytest.fixture(scope="session")
def small_splits(small_dataset):
    return prepare_splits(small_dataset, 12, 12)


@pytest.fixture
def cycle_graph():
    """Unweighted 4-cycle."""
    return Graph(n_nodes=4, edges=[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])


@pytest.fixture
def path_graph():
    """a - b - c path with unit weights."""
    return Graph(n_nodes=3, edges=[(0, 1, 1.0), (1, 2, 1.0)])


def random_graph(n_nodes, n_edges, seed=0):
    """Connected-ish random graph with exactly n_edges edges."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes)]
    picks = rng.choice(len(pairs), size=n_edges, replace=False)
    edges = [(pairs[i][0], pairs[i][1], float(rng.uniform(0.5, 1.5))) for i in picks]
    return Graph(n_nodes=n_nodes, edges=edges)


def force_ranges(monkeypatch, count):
    """Make graph_gru cut any batch into min(count, B) ranges."""
    monkeypatch.setattr(ad, "_WORKERS", count)
    monkeypatch.setattr(ad, "_MIN_RANGE_STEP", 1)


def reference_embed(x, w, b, token=None, steps=()):
    """The embedding and patch mask composed from primitive kernels: x W + b,
    then e (1 - m) + token m for a 0/1 step indicator m."""
    e = ad.add(ad.matmul(x, w), b)
    if not len(steps):
        return e
    fill = np.zeros((x.shape[-3], 1, 1))
    fill[steps] = 1.0
    return ad.add(ad.mul(e, Tensor(1.0 - fill)), ad.mul(token, Tensor(fill)))


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

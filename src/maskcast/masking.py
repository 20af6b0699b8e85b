"""Dual masking: walk-based edge masking and patch-based temporal masking.

Also provides the uniform edge mask used by the ablation study; its uniform
temporal mask is ``sample_temporal_mask`` with one step per patch.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .graph import biased_random_walk


@dataclass
class MaskPlan:
    """One training step's sampled masks."""

    masked_edges: set  # undirected (u, v) pairs, u < v
    patch_mask: np.ndarray  # bool, length P, True = masked
    walks: list = field(default_factory=list)  # walk paths backing masked_edges
    # never read; only perfbench/checks.py still passes them
    p_s: float = None
    p_t: float = None
    patch_length: int = None


def _canonical(u, v):
    return (u, v) if u < v else (v, u)


def mask_target_size(n_edges, p_s):
    """round(|E| * p_s), at least 1 when p_s > 0, capped at |E|."""
    if p_s <= 0:
        return 0
    return min(n_edges, max(1, int(round(n_edges * p_s))))


# At most this many walks per target edge. Synthetic graphs at p_s=1 and
# walk_length=2 took at most 12.5 (200 nodes, 2121 edges); an edge too light
# for any walk to take would otherwise stall the plan for good.
WALKS_PER_TARGET_EDGE = 100


def trace_spatial_mask(g, p_s, cfg, rng):
    """Walk-based edge mask; returns (edge set, list of walks).

    Roots are drawn uniformly without replacement until exhausted, then with
    replacement; walks are truncated so the target edge count is hit exactly.
    Raises ValueError when ``WALKS_PER_TARGET_EDGE`` walks per target edge
    leave some target edges uncovered.
    """
    target = mask_target_size(g.n_edges, p_s)
    if target == 0:
        return set(), []
    max_walks = WALKS_PER_TARGET_EDGE * target

    roots_with_nbrs = np.flatnonzero(np.diff(g.nbr_ptr))
    root_order = list(rng.permutation(roots_with_nbrs))

    masked = set()
    walks = []
    while len(masked) < target:
        if len(walks) == max_walks:
            raise ValueError(
                f"walk masking at p_s={p_s}: {len(walks)} walks left {target - len(masked)} "
                f"of {target} target edges uncovered; the graph has edges too light to be walked")
        if root_order:
            root = int(root_order.pop())
        else:
            root = int(rng.choice(roots_with_nbrs))
        path = biased_random_walk(g, root, cfg, rng)
        kept = [path[0]]
        for a, b in zip(path, path[1:]):
            kept.append(b)
            masked.add(_canonical(a, b))
            if len(masked) == target:
                break
        walks.append(kept)
    return masked, walks


def sample_uniform_spatial_mask(g, p_s, rng):
    """Uniform without-replacement edge mask (ablation variant)."""
    target = mask_target_size(g.n_edges, p_s)
    if target == 0:
        return set()
    picks = rng.choice(g.n_edges, size=target, replace=False)
    return {_canonical(g.edges[i][0], g.edges[i][1]) for i in picks}


def apply_spatial_mask(g, masked):
    """Adjacency copy with both entries of each masked edge zeroed."""
    return g.adjacency * edge_mask_matrix(g.n_nodes, masked)


def edge_mask_matrix(n_nodes, masked):
    """0/1 matrix that zeroes masked entries when multiplied elementwise.

    Used on learned dense adjacencies too, where masking must stay inside
    the differentiable graph.
    """
    u, v = np.asarray(list(masked), dtype=np.int64).reshape(-1, 2).T
    m = np.ones((n_nodes, n_nodes))
    m[u, v] = 0.0
    m[v, u] = 0.0
    return m


def sample_temporal_mask(n_patches, p_t, rng):
    """Independent Bernoulli(p_t) per patch; at least one patch stays visible."""
    mask = rng.random(n_patches) < p_t
    if mask.all():
        mask[-1] = False
    return mask


def step_mask(patch_mask, n_steps):
    """[H, 1, 1] 0/1 array marking the steps that fall in masked patches."""
    patch_len = n_steps // len(patch_mask)
    steps = np.repeat(np.asarray(patch_mask, dtype=bool), patch_len)
    return steps.astype(np.float64).reshape(n_steps, 1, 1)


def apply_temporal_mask(x, patch_mask):
    """The window ``x`` [..., H, N, C] lifted for the encoder's embedding
    (``model.embed_input``): [x, 1] on every step when ``patch_mask`` is
    None or masks no patch; otherwise [x, 1, 0] on the kept steps and
    [0, 0, 1] on the steps of masked patches. With M = [W; b; token], l M
    embeds a kept step as x W + b and a masked one as the shared mask
    token, so the token's gradient comes only from masked patches."""
    h, c = x.shape[-3], x.shape[-1]
    masked = patch_mask is not None and patch_mask.any()
    if patch_mask is not None and h % len(patch_mask) != 0:
        raise ad.ShapeError(f"apply_temporal_mask: history {h} not divisible into {len(patch_mask)} patches")
    lift = np.empty(x.shape[:-1] + (c + 1 + masked,))
    lift[..., :c] = x
    lift[..., c] = 1.0
    if masked:
        m = step_mask(patch_mask, h)  # [H, 1, 1]
        lift.reshape((-1,) + lift.shape[-3:])[:, m[:, 0, 0] > 0] = 0.0
        lift[..., c + 1] = m[..., 0]
    return lift

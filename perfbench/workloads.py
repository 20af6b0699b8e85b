"""Workload definitions and their seeded, cached input triplets.

Each workload is a synthetic dataset shape plus the ``RunConfig`` the
program trains it with. Inputs come from ``data.synthesize`` at the run's
``--seed`` and are written once as the CSV triplet ``maskcast train``
reads, under ``perfbench/.inputs/`` (git-ignored), so a later run with the
same seed times only the program's own loading.
"""

import os
from dataclasses import dataclass, field, replace

HERE = os.path.dirname(os.path.abspath(__file__))
INPUT_ROOT = os.path.join(HERE, ".inputs")


@dataclass(frozen=True)
class Workload:
    name: str
    n_nodes: int
    n_steps: int
    # RunConfig overrides for one round. The training seed stays at the
    # RunConfig default: --seed makes the inputs, the config is the workload
    config: dict = field(default_factory=dict)
    # parameters whose largest-gradient coordinate the central-difference
    # spot check perturbs, per loss
    pretrain_coords: tuple = ("encoder.cand.w", "spatial_decoder.w", "temporal_decoder.w")
    finetune_coords: tuple = ("embed.w", "encoder.update.w", "predictor.w1")


WORKLOADS = {
    # criterion-4 shape and CLI default: per-kernel overhead dominates
    "small-graph": Workload(
        "small-graph", n_nodes=20, n_steps=1000,
        config=dict(pretrain_epochs=4, finetune_epochs=3)),
    # [N, N] GEMMs, ~460 walks per epoch and the O(N^2) negative sampling
    "large-graph": Workload(
        "large-graph", n_nodes=200, n_steps=200,
        config=dict(pretrain_epochs=3, finetune_epochs=3, batch_size=32,
                    negative_sampling=True)),
    # learned adjacency: the only path through adaptive_adjacency,
    # sparsify_topk, edge_mask_matrix and row_softmax
    "learned-graph": Workload(
        "learned-graph", n_nodes=100, n_steps=200,
        config=dict(pretrain_epochs=4, finetune_epochs=4, batch_size=32,
                    negative_sampling=True, graph_mode="adaptive"),
        pretrain_coords=("node_embeddings", "encoder.cand.w", "spatial_decoder.w"),
        finetune_coords=("node_embeddings", "encoder.update.w", "predictor.w1")),
}


def run_config(workload):
    from maskcast.training import RunConfig
    return replace(RunConfig(), **workload.config).validate()


def input_paths(workload, seed):
    """(values, edges, meta) paths of the cached triplet, generating it if absent."""
    from maskcast import data

    directory = os.path.join(
        INPUT_ROOT, f"{workload.name}-n{workload.n_nodes}-t{workload.n_steps}-seed{seed}")
    paths = data.dataset_paths(directory)
    if not all(os.path.exists(p) for p in paths):
        tmp = f"{directory}.tmp{os.getpid()}"
        os.makedirs(tmp, exist_ok=True)
        dataset = data.synthesize(workload.n_nodes, workload.n_steps, seed)
        data.save_csv(dataset, *data.dataset_paths(tmp))
        try:
            os.rename(tmp, directory)
        except OSError:  # a concurrent run cached the same seed first
            for p in data.dataset_paths(tmp):
                os.remove(p)
            os.rmdir(tmp)
    return paths

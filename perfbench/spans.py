"""In-memory span tracer over the program's public functions.

Each traced function is replaced by a timing wrapper in every ``maskcast``
module namespace that binds it, because modules import names directly
(``training`` binds ``encoder_forward``, ``cli`` binds ``run_two_stage``), so
patching only the defining module would miss those calls. Autodiff kernels
record their backward closure through ``autodiff._record``; the tracer wraps
that hook too, so every closure runs inside an ``autodiff.<kernel>.backward``
span. Spans (name, start, end, parent) stay in arrays until the run ends.
"""

import sys
import time
from array import array

import numpy as np

from maskcast import autodiff, data, evaluation, graph, masking, model, training

KERNELS = ("add", "sub", "mul", "scale", "matmul", "sigmoid", "tanh", "relu",
           "row_softmax", "concat", "take", "gather_flat", "tsum", "tmean",
           "tabs", "tlog", "transpose", "reshape")

TRACED = {
    data: ("load_csv", "prepare_splits", "stack_windows"),
    graph: ("adaptive_adjacency", "sparsify_topk", "biased_random_walk",
            "normalize_dense", "normalize_adjacency"),
    masking: ("trace_spatial_mask", "sample_temporal_mask", "apply_spatial_mask",
              "apply_temporal_mask", "edge_mask_matrix"),
    model: ("embed_input", "encoder_forward", "spatial_decoder", "temporal_decoder",
            "predictor", "forecast", "model_adjacency"),
    autodiff: KERNELS + ("backward",),
    training: ("sample_mask_plan", "sample_negative_edges", "pretrain_forward",
               "pretrain_step", "finetune_step", "loss_spatial", "loss_temporal",
               "loss_pred", "loss_pretrain", "validation_mae", "predict_windows",
               "run_two_stage"),
    evaluation: ("metrics",),
}
METHODS = ((autodiff.Adam, "step"), (autodiff.ParameterTree, "zero_grad"))


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Span store plus the patching that feeds it; use as a context manager."""

    def __init__(self):
        self.names = []  # span name per interned id
        self._ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo = []

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._intern(name)
        stack, name_id, parent, start, end = (self._stack, self.name_id, self.parent,
                                              self.start, self.end)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "maskcast" or n.startswith("maskcast.")) and m is not None]
        for module, names in TRACED.items():
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{_short(module)}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
        for cls, name in METHODS:
            self._patch(cls, name, self.wrap(f"autodiff.{cls.__name__}.{name}",
                                             getattr(cls, name)))
        record = autodiff._record

        def traced_record(out, parents, backward):
            kernel = backward.__qualname__.split(".", 1)[0]
            return record(out, parents, self.wrap(f"autodiff.{kernel}.backward", backward))

        self._patch(autodiff, "_record", traced_record)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def arrays(self):
        """(name ids, parents, durations, self times) as numpy arrays."""
        nid = np.frombuffer(self.name_id, dtype=np.int64) if len(self.name_id) else np.zeros(0, np.int64)
        par = np.frombuffer(self.parent, dtype=np.int64) if len(self.parent) else np.zeros(0, np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(len(dur))
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        return nid, par, dur, dur - child

    def ids(self, *names):
        return [self._ids[n] for n in names if n in self._ids]

    def roots_of(self, par, nid, root_names):
        """Per span, the index of its nearest ancestor named in ``root_names`` (or -1)."""
        wanted = np.isin(nid, self.ids(*root_names)).tolist()
        owner = [-1] * len(wanted)
        # parents always precede children, so one forward pass resolves owners
        for i, p in enumerate(par.tolist()):
            if wanted[i]:
                owner[i] = i
            elif p >= 0:
                owner[i] = owner[p]
        return np.asarray(owner, dtype=np.int64)

    def profile(self, top=20):
        """Rows (name, calls, total s, self s) by descending self time."""
        nid, _, dur, self_t = self.arrays()
        count = np.bincount(nid, minlength=len(self.names))
        total = np.bincount(nid, weights=dur, minlength=len(self.names))
        own = np.bincount(nid, weights=self_t, minlength=len(self.names))
        order = np.argsort(-own)[:top]
        return [(self.names[i], int(count[i]), float(total[i]), float(own[i])) for i in order]

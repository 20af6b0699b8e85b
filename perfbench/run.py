"""Training and inference benchmark for maskcast.

    python3 perfbench/run.py --workload small-graph --seed 1 --seconds 30 --trace 0

Each run goes through the program's public path, the one ``maskcast train``
and ``maskcast evaluate`` take: ``data.load_csv`` -> ``data.prepare_splits``
-> ``training.run_two_stage`` (epochs timed by its ``log`` callback) ->
``training.predict_windows``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` repeats the run under the span tracer of ``spans.py`` and
reports per-layer metrics. Correctness checks run after the timed phases;
any failure makes the run exit 1. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_PER_ROUND = 5
# inference passes per round: at least this many, and for at least this long,
# because a burst of a few 50 ms passes lands inside one stretch of host load
MIN_INFER_PASSES = 3
MIN_INFER_SECONDS = 1.0
MIN_ROUNDS = 2


def pin_environment():
    """Steady the process before numpy loads; returns whether malloc was pinned.

    One BLAS thread: with the default pool, two identical large-graph
    pretrain epochs took 7.27 s and 5.58 s. Fixed glibc mmap and trim
    thresholds: by default glibc moves its mmap threshold with the history
    of frees, so whether a 1-10 MB numpy temporary comes from the heap or is
    mapped and faulted in afresh changes from run to run. Pinned, the same
    large-graph run read 201 instead of 122-129 test windows/s.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20)) and bool(libc.mallopt(m_trim_threshold, 256 << 20))


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ok(self, count=1):
        self.attempted += count

    def check(self, messages):
        self.attempted += 1
        self.failed += bool(messages)
        self.failures += messages


def median(values):
    return float(statistics.median(values))


def epoch_seconds(marks, start):
    """{stage: [seconds per epoch]} from the (time, message) log marks.

    The first epoch of each stage is dropped: it pays warm-up the rest do not.
    """
    out = {}
    prev = start
    for t, message in marks:
        out.setdefault(message.split()[0], []).append(t - prev)
        prev = t
    return {stage: times[1:] for stage, times in out.items()}


def run_workload(workload, seed, seconds, tally):
    """Repeat whole rounds of set-up, training and inference for ``seconds``.

    Every round does identical work (the program is bit-reproducible), so
    the rounds only add samples; spreading them over the run keeps one slow
    stretch of a shared host from setting a whole metric.
    """
    from maskcast import data, evaluation, training
    from workloads import input_paths, run_config

    cfg = run_config(workload)
    paths = input_paths(workload, seed)
    setup, infer, rounds = [], [], []
    epochs = {"pretrain": [], "finetune": []}
    begin = time.perf_counter()
    # start another round only if, at the mean round time so far, it ends within ``seconds``
    while len(rounds) < MIN_ROUNDS or (time.perf_counter() - begin) * (len(rounds) + 1) / len(rounds) <= seconds:
        for _ in range(SETUP_PER_ROUND):
            t0 = time.perf_counter()
            dataset = data.load_csv(*paths)
            splits = data.prepare_splits(dataset, cfg.history, cfg.horizon)
            setup.append(time.perf_counter() - t0)
        tally.ok(SETUP_PER_ROUND)

        marks = []
        start = time.perf_counter()
        result = training.run_two_stage(cfg, splits, dataset.graph,
                                        log=lambda m: marks.append((time.perf_counter(), m)))
        for stage, times in epoch_seconds(marks, start).items():
            epochs[stage] += times
        tally.ok(len(marks))

        _, ys_test = data.stack_windows(splits.test)
        reports = []
        infer_start = time.perf_counter()
        while len(reports) < MIN_INFER_PASSES or time.perf_counter() - infer_start < MIN_INFER_SECONDS:
            t0 = time.perf_counter()
            preds = training.predict_windows(splits.test, dataset.graph, result.state)
            infer.append(time.perf_counter() - t0)
            reports.append(evaluation.metrics(preds, ys_test, denorm=splits.denormalize))
        tally.ok(len(reports))
        rounds.append(dict(result=result, preds=preds, reports=reports))
    print(f"{len(rounds)} rounds in {time.perf_counter() - begin:.2f} s; epoch seconds: "
          + "; ".join(f"{k} " + " ".join(f"{t:.3f}" for t in v) for k, v in epochs.items()))
    return dict(cfg=cfg, paths=paths, splits=splits, graph=dataset.graph, rounds=rounds,
                result=rounds[0]["result"], preds=rounds[0]["preds"], setup=setup,
                epochs=epochs, infer=infer,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def end_to_end(run):
    splits, curve = run["splits"], run["result"].curve
    pre = [p.train_loss for p in curve if p.stage == "pretrain"]
    return {
        "pretrain_windows_per_s": (len(splits.train) / median(run["epochs"]["pretrain"]), "windows/s"),
        "finetune_windows_per_s": (len(splits.train) / median(run["epochs"]["finetune"]), "windows/s"),
        "infer_windows_per_s": (len(splits.test) / median(run["infer"]), "windows/s"),
        "setup_s": (median(run["setup"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "pretrain_loss_ratio": (pre[-1] / pre[0], "ratio"),
    }


def correctness(workload, run, tally):
    import numpy as np
    import checks
    from maskcast import data

    cfg, splits, result = run["cfg"], run["splits"], run["result"]
    raw, raw_adjacency = checks.read_triplet(run["paths"][0], run["paths"][1],
                                            run["graph"].n_nodes)
    xs_test, _ = data.stack_windows(splits.test)
    tally.check(checks.check_forward(run["preds"], result.state, raw_adjacency, xs_test,
                                     cfg.horizon, cfg.graph_mode == "adaptive"))
    reports = {"run_two_stage": result.report}
    reports.update({f"inference pass {i}": r for i, r in enumerate(run["rounds"][0]["reports"])})
    tally.check(checks.check_metrics(run["preds"], raw, cfg.history, cfg.horizon, reports))
    for later in run["rounds"][1:]:
        tally.check(checks.check_rounds_identical(run["rounds"][0], later))
    for messages in checks.gradient_checks(workload, cfg, splits, run["graph"], result.state):
        tally.check(messages)
    tally.check(checks.check_curve(result.curve))
    values = [v for v, _ in end_to_end(run).values()]
    tally.check([] if np.isfinite(values).all() and min(values) > 0
                else [f"metrics: non-positive or non-finite end-to-end value in {values}"])


def step_peak_alloc_mb(workload, run):
    """tracemalloc peak over one untraced pretrain step from a fresh model."""
    from maskcast import autodiff as ad
    from maskcast.data import stack_windows
    from maskcast.model import ModelState
    from maskcast.seeding import stream
    from maskcast.training import pretrain_step

    cfg, g = run["cfg"], run["graph"]
    xs, _ = stack_windows(run["splits"].train[:cfg.batch_size])
    state = ModelState.initialize(cfg.encoder_config(g.n_nodes), stream(cfg.seed, "init"))
    optimizer = ad.Adam(state.params, lr=cfg.lr)
    rngs = {k: stream(cfg.seed, k) for k in ("spatial-mask", "temporal-mask", "negative")}
    mask_graph = None
    if cfg.graph_mode == "adaptive":
        from maskcast.graph import adaptive_adjacency, sparsify_topk
        mask_graph = sparsify_topk(adaptive_adjacency(state.params["node_embeddings"]).data,
                                   min(cfg.topk, g.n_nodes - 1))
    tracemalloc.start()
    try:
        pretrain_step(xs, g, state, cfg, optimizer, rngs, mask_graph=mask_graph)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def traced(workload, seed, seconds, tally):
    """The same run under the span tracer; returns (per-layer metrics, traced run, tracer)."""
    import numpy as np
    import checks
    from maskcast import training
    from spans import KERNELS, Tracer

    plans, negatives = [], []
    sample_plan, sample_negatives = training.sample_mask_plan, training.sample_negative_edges

    def recording_plan(cfg, mask_graph, *args, **kwargs):
        plan = sample_plan(cfg, mask_graph, *args, **kwargs)
        plans.append((plan, mask_graph))
        return plan

    def recording_negatives(*args, **kwargs):
        pairs = sample_negatives(*args, **kwargs)
        negatives.append(len(pairs))
        return pairs

    training.sample_mask_plan = recording_plan
    training.sample_negative_edges = recording_negatives
    try:
        with Tracer() as tracer:
            run = run_workload(workload, seed, seconds, tally)
    finally:
        training.sample_mask_plan = sample_plan
        training.sample_negative_edges = sample_negatives
    for plan, mask_graph in plans:
        tally.check(checks.check_mask_plan(plan, mask_graph, run["cfg"].p_s))

    nid, par, dur, _ = tracer.arrays()
    name_of = np.asarray(tracer.names, dtype=object)[nid] if len(nid) else np.zeros(0, object)
    steps = ("training.pretrain_step", "training.finetune_step")
    owner = tracer.roots_of(par, nid, steps)
    in_step = owner >= 0
    owner_name = np.where(in_step, name_of[np.maximum(owner, 0)], "")
    in_pre = owner_name == steps[0]
    top = par < 0  # called by the benchmark itself, not inside the program

    def spans(*names, where=None):
        sel = np.isin(name_of, names)
        return sel if where is None else sel & where

    def total(*names, where=None):
        return float(dur[spans(*names, where=where)].sum())

    def mean(name, where=None):
        sel = spans(name, where=where)
        return float(dur[sel].mean()) if sel.any() else 0.0

    n_pre = int(spans(steps[0]).sum())
    n_steps = n_pre + int(spans(steps[1]).sum())
    kernels = tuple(f"autodiff.{k}" for k in KERNELS)
    forecast_under_infer = tracer.roots_of(par, nid, ("training.predict_windows",))
    infer_pass = np.isin(forecast_under_infer, np.nonzero(spans("training.predict_windows", where=top))[0])
    n_windows = len(run["splits"].test) * len(run["infer"])
    masked = [len(p.masked_edges) for p, _ in plans]
    walks = [len(p.walks) for p, _ in plans]
    metrics = {
        "evaluation.test_mae": (run["result"].report["overall"]["mae"], "orig-units"),
        "training.pretrain_step_s": (mean(steps[0]), "s"),
        "training.finetune_step_s": (mean(steps[1]), "s"),
        "autodiff.backward_s": (total("autodiff.backward", where=in_step) / n_steps, "s"),
        "autodiff.adam_step_s": (total("autodiff.Adam.step", where=in_step) / n_steps, "s"),
        "autodiff.matmul_s": (total("autodiff.matmul", "autodiff.matmul.backward", where=in_step) / n_steps, "s"),
        "autodiff.kernel_calls_per_step": (float(spans(*kernels, where=in_step).sum()) / n_steps, "count"),
        "autodiff.step_peak_alloc_mb": (step_peak_alloc_mb(workload, run), "MB"),
        "model.encoder_forward_s": (total("model.encoder_forward", where=in_step) / n_steps, "s"),
        "model.decoders_s": (total("model.spatial_decoder", "model.temporal_decoder", where=in_pre) / n_pre, "s"),
        "model.forecast_s": (total("model.forecast", where=infer_pass) / n_windows, "s"),
        "training.sample_mask_plan_s": (total("training.sample_mask_plan", where=in_pre) / n_pre, "s"),
        "training.loss_spatial_s": (total("training.loss_spatial", where=in_pre) / n_pre, "s"),
        "training.validation_mae_s": (mean("training.validation_mae"), "s"),
        "training.predict_windows_s": (mean("training.predict_windows", where=top), "s"),
        "evaluation.metrics_s": (mean("evaluation.metrics", where=top), "s"),
        "data.load_csv_s": (mean("data.load_csv", where=top), "s"),
        "data.prepare_splits_s": (mean("data.prepare_splits", where=top), "s"),
        "masking.masked_edges_per_step": (float(np.mean(masked)), "count"),
        "graph.walks_per_step": (float(np.mean(walks)), "count"),
        "training.negative_pairs_per_step": (sum(negatives) / n_pre, "count"),
    }
    return metrics, run, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "maskcast")):
        print(f"perfbench: no maskcast package under {SRC}", file=sys.stderr)
        return 2
    malloc_pinned = pin_environment()
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if not malloc_pinned:
        print("perfbench: glibc mallopt unavailable, malloc thresholds not pinned", file=sys.stderr)
    tally = Tally()
    if args.trace:
        metrics, run, tracer = traced(workload, args.seed, args.seconds, tally)
        print("traced end-to-end: " + ", ".join(
            f"{k} {v:.6g}" for k, (v, _) in end_to_end(run).items()))
        print(f"{'span':44s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s}")
        for name, calls, total_s, self_s in tracer.profile():
            print(f"{name:44s} {calls:9d} {total_s:9.3f} {self_s:9.3f}")
    else:
        run = run_workload(workload, args.seed, args.seconds, tally)
        metrics = end_to_end(run)
    t0 = time.perf_counter()
    correctness(workload, run, tally)
    print(f"checks in {time.perf_counter() - t0:.2f} s")
    for message in tally.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

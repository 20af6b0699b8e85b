"""Run-to-run spread of the benchmark, as used to set the metric bounds.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 [--workloads small-graph,...] [--trace 0]

Runs ``run.py`` once per (workload, seed), one process at a time, and
prints for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound from ``BENCHMARK.json``. Raw result
lines are appended to ``perfbench/.results/spread.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    os.makedirs(os.path.join(HERE, ".results"), exist_ok=True)
    log_path = os.path.join(HERE, ".results", "spread.jsonl")

    for workload in workloads:
        results, walls = [], []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            last = lines[-1] if lines else ""
            if proc.returncode != 0 or not last.startswith("{"):
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(last)
            results.append(result)
            with open(log_path, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                                     "trace": args.trace, "wall_s": walls[-1], **result,
                                     "log": lines[:-1]}) + "\n")
        print(f"\n{workload}: {len(results)} runs, wall s per run median {statistics.median(walls):.1f} "
              f"max {max(walls):.1f}, failed/attempted "
              f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.3f} "
                  f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()

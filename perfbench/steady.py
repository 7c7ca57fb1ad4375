"""Steadiness runs: repeat the benchmark over seeds and summarize the spread.

    python3 perfbench/steady.py --label set1 [--workloads a,b] [--seeds 0-9] [--trace 0]
    python3 perfbench/steady.py --compare set1 set2

A set runs every (workload, seed) pair one after another with the
``run_seconds`` of BENCHMARK.json and stores each run's result line in
.perfbench/results/<label>.json. For each end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), the
interquartile range as a share of the median, and that metric's bound.
``--compare`` prints how far the second set's medians moved from the
first's, as a share of the first, signed so that positive is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec, label, workloads, seeds, trace) -> dict:
    runs = []
    for workload in workloads:
        for seed in seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            kind = "per_layer" if trace else "end_to_end"
            missing = {m["name"] for m in spec[kind]} - set(result["metrics"])
            if missing:
                raise SystemExit(f"{workload} seed {seed}: no value for {', '.join(sorted(missing))}")
            runs.append({"workload": workload, "seed": seed, "trace": trace,
                         "process_s": elapsed, "result": result})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, {result['attempted']} attempted, "
                  f"{result['failed']} failed", flush=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    data = {"label": label, "runs": runs}
    (RESULTS / f"{label}.json").write_text(json.dumps(data, indent=1))
    return data


def by_metric(data) -> dict:
    """{workload: {metric: [values]}}"""
    out = {}
    for run in data["runs"]:
        metrics = out.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        metrics.setdefault("process_s", []).append(run["process_s"])
    return out


def summarize(spec, data) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, metrics in by_metric(data).items():
        print(f"\n{workload} ({len(metrics['process_s'])} runs)")
        print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else (" ok" if spread < bound / 3 else " WIDE" if spread >= bound else " >1/3")
            print(f"{name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")


def compare(spec, first, second) -> None:
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a, b = by_metric(first), by_metric(second)
    for workload in a:
        print(f"\n{workload}: {first['label']} -> {second['label']} (positive = worse)")
        for name in better:
            if name not in a[workload] or name not in b.get(workload, {}):
                continue
            m1, m2 = statistics.median(a[workload][name]), statistics.median(b[workload][name])
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            flag = "ok" if worse <= bounds[name] else "WORSE"
            print(f"{name:28s} {m1:12.6g} {m2:12.6g} {worse:+8.4f} {bounds[name]:>6} {flag}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label")
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--compare", nargs=2, metavar="LABEL")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        sets = [json.loads((RESULTS / f"{label}.json").read_text()) for label in args.compare]
        for data in sets:
            summarize(spec, data)
        compare(spec, *sets)
        return
    if not args.label:
        parser.error("--label is required to run a set")
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summarize(spec, run_set(spec, args.label, workloads, seed_range(args.seeds), args.trace))


if __name__ == "__main__":
    main()

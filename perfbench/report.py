"""Summarise benchmark runs: medians, quartile spreads and tracing overhead.

Usage, from the repository root::

    python3 perfbench/report.py                      # every recorded run
    python3 perfbench/report.py --run churn --seeds 1-5 --seconds 10

``--run`` first runs the workload once per seed (one after the other) and
then summarises only those runs.  For each workload and end-to-end metric
the report gives the median and the distance between the first and third
quartile as a share of the median; beside it, the bound from
``BENCHMARK.json``.  For traced runs it gives the per-layer medians and the
tracing overhead: the traced query p50 minus the median untraced p50 of the
same workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from measure import quartile_spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, ".bench_build", "results", "runs.jsonl")


def load_runs(path: str = RESULTS) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def bounds() -> dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_seeds(workload: str, seeds: list[int], seconds: float, trace: int) -> list[dict]:
    runs = []
    for seed in seeds:
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or len(lines) < 2:
            print(f"{workload} seed {seed}: exit {completed.returncode}", file=sys.stderr)
            print(completed.stderr[-2000:], file=sys.stderr)
            continue
        run = {**json.loads(lines[-1]), **json.loads(lines[-2])}
        spin = run["diagnostics"]["host_spin_ms"]
        wall = time.perf_counter() - start
        print(f"{workload} seed {seed}: ok in {wall:.1f} s (host spin {spin:.0f} ms)",
              file=sys.stderr)
        runs.append(run)
    return runs


def summarise(runs: list[dict]) -> None:
    limits = bounds()
    by_key: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for run in runs:
        by_key[(run["diagnostics"]["workload"], run["diagnostics"]["trace"])].append(run)
    untraced_p50: dict[str, float] = {}
    for (workload, trace), group in sorted(by_key.items()):
        spins = [run["diagnostics"]["host_spin_ms"] for run in group]
        print(f"\n{workload} trace={trace}: {len(group)} runs, "
              f"all correct: {all(run['correct'] for run in group)}, "
              f"host spin {min(spins):.0f}-{max(spins):.0f} ms")
        values: dict[str, list[float]] = defaultdict(list)
        for run in group:
            for name, metric in run["metrics"].items():
                values[name].append(metric["value"])
        for name, series in values.items():
            middle = statistics.median(series)
            line = f"  {name:32s} median {middle:14.6g}"
            if len(series) >= 2 and middle:
                spread = quartile_spread(series)
                line += f"  spread {spread:7.2%}"
                if name in limits:
                    line += f"  (bound {limits[name]:.0%}, third {limits[name] / 3:.2%})"
            print(line)
        if not trace:
            untraced_p50[workload] = statistics.median(values["query_p50_ms"])
    for (workload, trace), group in sorted(by_key.items()):
        if trace and workload in untraced_p50:
            traced = statistics.median(
                run["metrics"]["trace.query_p50_ms"]["value"] for run in group
            )
            base = untraced_p50[workload]
            print(f"\n{workload}: tracing overhead on query p50 "
                  f"{traced - base:+.3f} ms ({(traced - base) / base:+.2%}) "
                  f"against the untraced median")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", choices=("sweep", "serve", "churn"))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.run:
        runs = run_seeds(args.run, seed_range(args.seeds), args.seconds, args.trace)
    else:
        runs = load_runs()
    summarise(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())

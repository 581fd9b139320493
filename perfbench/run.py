"""Run one benchmark workload against the program and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The workloads (``sweep``, ``serve``, ``churn``) are described in
``perfbench/workloads.py``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds diagnostics (host speed, sample
counts, generator lag, leaks).  Each run is also appended to
``.bench_build/results/runs.jsonl``, which ``perfbench/report.py``
summarises.

``--trace 0`` reports the end-to-end metrics.  Set-up runs three times and
``setup_s`` is the median; the workload then runs on the last set-up.

``--trace 1`` reports the per-layer metrics.  Set-up runs once with every
layer boundary wrapped (see ``perfbench/tracing.py``).  The measured phase
then runs twice on the same set-up: first with the wrappers removed, then
with them recording, and ``trace.overhead_pct`` compares the two query
medians.  A ``*_s`` metric is the self time of that layer's spans, summed
over the traced set-up and the traced phase; a ``*_calls`` metric counts
those spans.  The spans are written to
``.bench_build/traces/``.

Every answer is checked outside the timed sections, and after tear-down no
``/dev/shm`` segment or ``repro-spool-*`` directory the run created may
remain.  Any failure makes the command exit 1.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import statistics
import sys
import time

import measure
from tracing import Tracer, instrument, layer_totals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build")
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "queries_per_s": "1/s",
    "answered_frac": "ratio",
    "percent_sa": "%",
    "peak_rss_mb": "MiB",
}

#: Per-layer self-time metrics and the span each sums.
SPAN_SECONDS = {
    "data.generate_s": "data.generate",
    "cf.fit_s": "cf.fit",
    "core.recommender_fit_s": "core.recommender_fit",
    "cf.predict_all_s": "cf.predict_all",
    "core.factory_s": "core.factory",
    "core.index_build_s": "core.index_build",
    "core.build_lists_s": "core.build_lists",
    "core.greca_run_s": "core.greca_run",
    "core.kernel_advance_s": "core.kernel_advance",
    "core.kernel_refresh_bounds_s": "core.kernel_refresh_bounds",
    "core.consensus_bounds_s": "core.consensus_bounds",
    "cf.partial_refit_s": "cf.partial_refit",
    "cf.predict_for_items_s": "cf.predict_for_items",
    "core.refresh_aprefs_s": "core.refresh_aprefs",
    "core.refresh_affinities_s": "core.refresh_affinities",
    "updates.apply_delta_s": "updates.apply_delta",
    "experiments.task_for_s": "experiments.task_for",
    "parallel.evaluate_tasks_s": "parallel.evaluate_tasks",
    "parallel.export_s": "parallel.export",
    "parallel.retire_s": "parallel.retire",
}
SPAN_CALLS = {
    "cf.predict_all_calls": "cf.predict_all",
    "core.factory_calls": "core.factory",
    "parallel.export_calls": "parallel.export",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_SECONDS},
    **{name: "count" for name in SPAN_CALLS},
    "core.sa_per_query": "count",
    "core.ra_per_query": "count",
    "core.rounds_per_query": "count",
    "updates.changed_users": "count",
    "updates.invalidated_groups": "count",
    "updates.delta_p50_ms": "ms",
    "parallel.retries": "count",
    "parallel.degraded_shards": "count",
    "service.queue_ms": "ms",
    "service.dispatch_ms": "ms",
    "service.merge_ms": "ms",
    "service.batch_size_mean": "count",
    "service.gen_lag_ms": "ms",
    "host.spin_ms": "ms",
    "trace.query_p50_ms": "ms",
    "trace.untraced_query_p50_ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "serve", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def end_to_end(setup_s, outcome, window_ms, rss_mb) -> dict[str, float]:
    # A failed query counts as over any limit: it waited the whole window.
    latencies = [min(value, window_ms) for value in outcome.latencies_ms]
    return {
        "setup_s": statistics.median(setup_s),
        "query_p50_ms": statistics.median(latencies),
        "query_p95_ms": measure.tail_percentile(latencies, 95),
        "queries_per_s": outcome.queries_per_s,
        "answered_frac": outcome.verified / outcome.attempted,
        "percent_sa": outcome.percent_sa,
        "peak_rss_mb": rss_mb,
    }


def per_layer(spans, outcome, baseline, spin) -> dict[str, float]:
    totals = layer_totals(spans)
    values = {
        metric: totals.get(span, (0, 0.0))[1] for metric, span in SPAN_SECONDS.items()
    }
    values.update(
        {metric: totals.get(span, (0, 0.0))[0] for metric, span in SPAN_CALLS.items()}
    )
    facts = list(outcome.facts.values())
    latencies = outcome.query_latencies
    traced_p50 = statistics.median(outcome.latencies_ms)
    untraced_p50 = statistics.median(baseline.latencies_ms)
    values.update(
        {
            "core.sa_per_query": mean(r.sequential_accesses for r in facts),
            "core.ra_per_query": mean(r.random_accesses for r in facts),
            "core.rounds_per_query": mean(r.rounds for r in facts),
            "updates.changed_users": mean(
                len(r.changed_users) for r in outcome.delta_reports
            ),
            "updates.invalidated_groups": mean(
                len(r.invalidated_groups) for r in outcome.delta_reports
            ),
            "updates.delta_p50_ms": (
                statistics.median(outcome.delta_ms) if outcome.delta_ms else 0.0
            ),
            "parallel.retries": sum(r.retries for r in outcome.dispatch_reports),
            "parallel.degraded_shards": sum(
                len(r.degraded) for r in outcome.dispatch_reports
            ),
            "service.queue_ms": 1000.0 * mean(l.queue_seconds for l in latencies),
            "service.dispatch_ms": 1000.0 * mean(l.dispatch_seconds for l in latencies),
            "service.merge_ms": 1000.0 * mean(l.merge_seconds for l in latencies),
            "service.batch_size_mean": mean(outcome.batch_sizes),
            "service.gen_lag_ms": mean(outcome.gen_lag_ms),
            "host.spin_ms": spin,
            "trace.query_p50_ms": traced_p50,
            "trace.untraced_query_p50_ms": untraced_p50,
            "trace.overhead_pct": 100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        }
    )
    return values


def stop_resource_tracker() -> None:
    """Stop the stdlib's shared-memory tracker process and wait for it to end.

    Called after the leak check, since the tracker unlinks whatever is still
    registered with it when it stops.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


async def run_workload(args, tmp: str) -> tuple[dict, dict]:
    # Imported here: the workloads import the program, which main() puts on the path.
    from workloads import SERVE_RATE, WORKLOADS, Outcome

    spin = measure.spin_ms()
    shm_before = measure.shm_segments()
    spool_before = measure.spool_dirs(tmp)
    tracer = Tracer()
    cls = WORKLOADS[args.workload]
    setup_s: list[float] = []
    parts: list[Outcome] = []
    window_ms = 0.0
    baseline = None
    parts_total = 1 if args.trace else SETUP_REPEATS
    references: dict = {}
    for part in range(parts_total):
        workload = cls(args.seed, args.seconds, part, parts_total, references)
        try:
            if args.trace:
                instrument(tracer)
                tracer.recording = True
            start = time.perf_counter()
            await workload.setup()
            setup_s.append(time.perf_counter() - start)
            workload.prepare()
            if args.trace:
                tracer.recording = False
                tracer.restore()
                baseline = await workload.measure(tracer)
                instrument(tracer)
                tracer.recording = True
            start = time.perf_counter()
            outcome = await workload.measure(tracer)
            window_ms += (time.perf_counter() - start) * 1000.0
            parts.append(outcome)
        finally:
            tracer.recording = False
            await workload.teardown()
            tracer.restore()
        del workload
        gc.collect()
    outcome = Outcome.merged(parts)

    leaked = sorted(
        (measure.shm_segments() - shm_before) | (measure.spool_dirs(tmp) - spool_before)
    )
    stop_resource_tracker()
    deltas_attempted = len(outcome.delta_ms) + outcome.failed_deltas
    failed_queries = outcome.attempted - outcome.verified
    failed = failed_queries + outcome.failed_deltas + (1 if leaked else 0)
    if args.trace:
        metrics = per_layer(tracer.spans, outcome, baseline, spin)
        units = PER_LAYER_UNITS
        tracer.write(
            os.path.join(SCRATCH, "traces", f"{args.workload}-seed{args.seed}.json")
        )
    else:
        metrics = end_to_end(setup_s, outcome, window_ms, measure.peak_rss_mb())
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted + deltas_attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host_spin_ms": spin,
        "setup_s_each": setup_s,
        "queries": outcome.attempted,
        "p95_samples_beyond": measure.samples_beyond(len(outcome.latencies_ms), 95),
        "failed_queries": failed_queries,
        "deltas": deltas_attempted,
        "failed_deltas": outcome.failed_deltas,
        "delta_ms": outcome.delta_ms,
        "leaked": leaked,
        "spans": len(tracer.spans),
    }
    if outcome.gen_lag_ms:
        diagnostics.update(
            offered_rate=SERVE_RATE,
            gen_lag_mean_ms=mean(outcome.gen_lag_ms),
            gen_lag_max_ms=max(outcome.gen_lag_ms),
            backlog_grew=outcome.backlog_grew,
        )
    return result, diagnostics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    # Keep every temporary file, spool directory included, inside the checkout.
    tmp = os.path.join(SCRATCH, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["REPRO_SPOOL_DIR"] = tmp
    sys.path.insert(0, SRC)

    result, diagnostics = asyncio.run(run_workload(args, tmp))
    results_dir = os.path.join(SCRATCH, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "runs.jsonl"), "a") as handle:
        handle.write(json.dumps({**result, "diagnostics": diagnostics}) + "\n")
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

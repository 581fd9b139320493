"""Measure service latency/throughput and append to ``BENCH_service.json``.

Run from the repository root::

    PYTHONPATH=src python scripts/bench_service.py --label pr7-service

Starts a :class:`repro.service.GrecaService` over the default scalability
substrate (or the scaled-down smoke substrate with ``--smoke``), fires the
deterministic load generator at it (N closed-loop concurrent clients), and
records p50/p95/p99 end-to-end latency, throughput, the mean queue/dispatch
/merge split and the largest coalesced batch — plus a ``bit_identical``
flag from re-running every query through the serial reference path.  Each
invocation appends one record to ``BENCH_service.json`` (alongside
``BENCH_engine.json``) so the serving-latency trajectory accumulates across
PRs; ``--output`` writes a standalone record instead (the CI-artifact mode).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.experiments.scalability import ScalabilityConfig  # noqa: E402
from repro.parallel import ExecutionPolicy, available_cpus  # noqa: E402
from repro.service import (  # noqa: E402
    GrecaService,
    ServiceConfig,
    default_queries,
    run_load,
    summarise_latencies,
)

#: The scaled-down substrate for quick/CI runs (matches the service CLI).
SMOKE_CONFIG = ScalabilityConfig(
    n_users=40,
    n_items=300,
    n_ratings=3_000,
    n_participants=12,
    n_groups=2,
    group_size=3,
)


async def bench_service(args: argparse.Namespace) -> dict[str, object]:
    if args.executor == "reference":  # the in-process serial path
        policy = ExecutionPolicy()
    else:
        policy = ExecutionPolicy(n_workers=args.workers, executor=args.executor)
    service = GrecaService(
        config=ServiceConfig(
            max_batch_size=args.batch_size,
            max_batch_delay=args.batch_delay,
            policy=policy,
        ),
        scalability_config=SMOKE_CONFIG if args.smoke else None,
    )
    setup_start = time.perf_counter()
    await service.start()
    setup_seconds = time.perf_counter() - setup_start
    try:
        clients = default_queries(
            service.environment, args.clients, args.queries, seed=args.seed
        )
        # One warmup pass so the recorded numbers measure the warm substrate
        # (pools built, factories exported, worker memos primed), not
        # first-dispatch construction costs.
        await run_load(service, [clients[0][:1]])
        responses, wall_seconds = await run_load(service, clients)
        summary = summarise_latencies(
            [response.latency for response in responses], wall_seconds, args.clients
        )
        bit_identical = all(
            response.record == service.reference_record(response.query)
            for response in responses
        )
        print(summary.format_summary())
        if not bit_identical:  # the record must never hide an equivalence break
            raise SystemExit("service responses diverged from the serial reference")
        return {
            "n_clients": args.clients,
            "n_queries": summary.n_queries,
            "n_workers": args.workers,
            "n_cpus": available_cpus(),
            "executor": args.executor,
            "max_batch_size": args.batch_size,
            "batch_delay_seconds": args.batch_delay,
            "smoke_substrate": bool(args.smoke),
            "setup_seconds": round(setup_seconds, 4),
            "wall_seconds": round(summary.wall_seconds, 4),
            "throughput_qps": round(summary.throughput_qps, 2),
            "p50_ms": round(summary.p50_ms, 3),
            "p95_ms": round(summary.p95_ms, 3),
            "p99_ms": round(summary.p99_ms, 3),
            "mean_queue_ms": round(summary.mean_queue_ms, 3),
            "mean_dispatch_ms": round(summary.mean_dispatch_ms, 3),
            "mean_merge_ms": round(summary.mean_merge_ms, 3),
            "max_batch": summary.max_batch,
            "bit_identical": bit_identical,
        }
    finally:
        await service.stop()


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:  # pragma: no cover - git metadata is best-effort
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True, help="short tag for this measurement")
    parser.add_argument("--clients", type=int, default=8, help="concurrent clients")
    parser.add_argument("--queries", type=int, default=10, help="queries per client")
    parser.add_argument("--workers", type=int, default=2, help="pool worker count")
    parser.add_argument(
        "--executor",
        default="supervised",
        help='dispatch backend, or "reference" for the in-process serial path',
    )
    parser.add_argument("--batch-size", type=int, default=32, help="coalescing cap")
    parser.add_argument(
        "--batch-delay", type=float, default=0.005, help="coalescing window (s)"
    )
    parser.add_argument("--seed", type=int, default=17, help="load-generator seed")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="use the scaled-down smoke substrate (CI-friendly)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the record to PATH instead of appending to BENCH_service.json",
    )
    args = parser.parse_args(argv)

    record = {
        "label": args.label,
        "git": git_revision(),
        "python": platform.python_version(),
        "service": asyncio.run(bench_service(args)),
    }

    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    else:
        target = os.path.join(ROOT, "BENCH_service.json")
        history = []
        if os.path.exists(target):
            with open(target, "r", encoding="utf-8") as handle:
                history = json.load(handle)
        history.append(record)
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(history, handle, indent=2)
            handle.write("\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

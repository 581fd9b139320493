"""CLI entry point: ``python -m repro.service``.

Two modes:

* **load mode** (the default, and what ``make serve-smoke`` runs with
  ``--smoke``): start a service, fire the deterministic load generator at
  it, print the p50/p95/p99 latency summary, then drain and self-check —
  the percentiles must be recorded and every shm segment the environment
  created must be gone from ``/dev/shm`` after the stop.  Exit code 0 only
  when both hold (and, with ``--check-equivalence``, when every response
  matched the serial reference bit-for-bit).
* **serve mode** (``--serve-seconds S``): start a service, answer one
  warmup query so the shm segments exist, print ``SEGMENTS <names>`` and
  ``READY``, then serve until SIGTERM/SIGINT (or the deadline) and drain
  gracefully.  The shm-lifecycle suite kills this process mid-serve and
  asserts the segments were unlinked on the way down.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.experiments.scalability import ScalabilityConfig
from repro.parallel import ExecutionPolicy
from repro.service.loadgen import default_queries, run_load, summarise_latencies
from repro.service.service import GrecaService, GroupQuery, ServiceConfig

#: The scaled-down substrate the smoke/CI runs use (seconds, not minutes).
SMOKE_CONFIG = ScalabilityConfig(
    n_users=40,
    n_items=300,
    n_ratings=3_000,
    n_participants=12,
    n_groups=2,
    group_size=3,
)


def leaked_segments(names: list[str]) -> list[str]:
    """The subset of column-store segment names still present on the system.

    Shared-memory names are probed by attaching; mmap spool files — the
    names containing a path separator, which ``/dev/shm`` names never do —
    by a plain existence check.
    """
    import os
    from multiprocessing import resource_tracker, shared_memory

    leaked = []
    for name in names:
        if os.path.isabs(name):
            if os.path.exists(name):
                leaked.append(name)
            continue
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        try:  # the probe attach is not ownership — undo its registration
            resource_tracker.unregister(
                getattr(segment, "_name", segment.name), "shared_memory"
            )
        except Exception:
            pass
        segment.close()
        leaked.append(name)
    return leaked


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__
    )
    parser.add_argument("--workers", type=int, default=2, help="pool worker count")
    parser.add_argument(
        "--executor",
        default="supervised",
        help='dispatch backend ("supervised", "persistent", "process", '
        '"serial") or "reference" for the in-process serial path',
    )
    parser.add_argument(
        "--storage",
        default=None,
        help='column-store backend dispatches export into: "shm" shared '
        'memory (the default) or "mmap" spool files; validated at the '
        "repro.parallel.storage choice point",
    )
    parser.add_argument(
        "--kernel",
        default=None,
        help='GRECA round-kernel tier batches run on: "reference" (the '
        'default) or "fused" (batched numpy gather/scatter); validated at '
        "the repro.core.kernels choice point",
    )
    parser.add_argument("--clients", type=int, default=4, help="concurrent clients")
    parser.add_argument("--queries", type=int, default=5, help="queries per client")
    parser.add_argument("--batch-size", type=int, default=32, help="coalescing cap")
    parser.add_argument(
        "--batch-delay", type=float, default=0.005, help="coalescing window (s)"
    )
    parser.add_argument("--seed", type=int, default=17, help="load-generator seed")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="use the scaled-down smoke substrate (seconds to build, not minutes)",
    )
    parser.add_argument(
        "--check-equivalence",
        action="store_true",
        help="re-run every query through the serial reference and demand "
        "bit-identical records",
    )
    parser.add_argument(
        "--serve-seconds",
        type=float,
        default=None,
        metavar="S",
        help="serve mode: stay up until SIGTERM/SIGINT (at most S seconds), "
        "then drain gracefully",
    )
    return parser


def build_policy(args: argparse.Namespace) -> ExecutionPolicy:
    """The dispatch policy the CLI flags describe.

    ``--executor reference`` is the in-process serial path, so it ignores
    ``--workers``.
    """
    if args.executor == "reference":
        return ExecutionPolicy(storage=args.storage, kernel=args.kernel)
    return ExecutionPolicy(
        n_workers=args.workers,
        executor=args.executor,
        storage=args.storage,
        kernel=args.kernel,
    )


async def run(args: argparse.Namespace) -> int:
    service_config = ServiceConfig(
        max_batch_size=args.batch_size,
        max_batch_delay=args.batch_delay,
        policy=build_policy(args),
    )
    service = GrecaService(
        config=service_config,
        scalability_config=SMOKE_CONFIG if args.smoke else None,
    )
    await service.start()
    try:
        if args.serve_seconds is not None:
            return await serve_until_signal(service, args)
        return await serve_load(service, args)
    finally:
        await service.stop()


async def serve_until_signal(service: GrecaService, args: argparse.Namespace) -> int:
    # One warmup query makes the shm segments exist before READY, so the
    # watcher (the shm-lifecycle kill test) knows exactly what must vanish.
    warmup = GroupQuery(group=tuple(service.environment.random_groups(1)[0]))
    await service.submit(warmup)
    # Handlers must be live before READY is announced: a watcher may signal
    # the instant it reads the line, and a default-disposition SIGTERM in
    # that window would kill the process without draining.
    stop_event = asyncio.Event()
    service.install_signal_handlers(stop_event)
    print("SEGMENTS", *service.environment.shm_segment_names(), flush=True)
    print("READY", flush=True)
    try:
        await asyncio.wait_for(stop_event.wait(), timeout=args.serve_seconds)
    except asyncio.TimeoutError:
        pass
    names = list(service.environment.shm_segment_names())
    await service.stop()
    leaked = leaked_segments(names)
    if leaked:
        print("LEAKED", *leaked, flush=True)
        return 2
    print(f"CLEAN {len(names)} segment(s) unlinked", flush=True)
    return 0


async def serve_load(service: GrecaService, args: argparse.Namespace) -> int:
    clients = default_queries(
        service.environment, args.clients, args.queries, seed=args.seed
    )
    responses, wall_seconds = await run_load(service, clients)
    summary = summarise_latencies(
        [response.latency for response in responses], wall_seconds, args.clients
    )
    print(summary.format_summary(), flush=True)

    failures = 0
    if args.check_equivalence:
        mismatched = sum(
            1
            for response in responses
            if response.record != service.reference_record(response.query)
        )
        if mismatched:
            print(f"EQUIVALENCE FAILED for {mismatched} response(s)", flush=True)
            failures += 1
        else:
            print(f"equivalence OK over {len(responses)} responses", flush=True)

    if not (summary.p99_ms >= 0 and summary.n_queries == args.clients * args.queries):
        print("latency summary incomplete", flush=True)
        failures += 1

    names = list(service.environment.shm_segment_names())
    await service.stop()
    leaked = leaked_segments(names)
    if leaked:
        print("LEAKED", *leaked, flush=True)
        failures += 1
    else:
        print(f"CLEAN {len(names)} segment(s) unlinked", flush=True)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return asyncio.run(run(args))


if __name__ == "__main__":
    sys.exit(main())

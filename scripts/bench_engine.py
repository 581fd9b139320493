"""Measure the GRECA engine and append the numbers to ``BENCH_engine.json``.

Run from the repository root::

    PYTHONPATH=src python scripts/bench_engine.py --label columnar-after

Four measurements are taken:

* **end-to-end** — GRECA (list build + algorithm + result assembly) over the
  default :class:`ScalabilityConfig` substrate: the paper's 3,900-item
  catalogue, 8 random groups of 6, AP consensus, ``k = 10``.  Indexes are
  pre-built so the number isolates the engine, not dataset generation.
* **baselines** — ``NaiveFullScan`` and ``ThresholdAlgorithmBaseline`` over
  the first default group at the same 3,900-item point (the comparison
  pipeline the paper's %SA metric is measured against).
* **figure suite** — wall time of the Figure 5-8 scalability drivers over one
  shared substrate (the workload that pays per-(group, period) index
  construction).
* **micro** — per-entry ``sequential_access`` vs batched ``sequential_block``
  over a 100,000-entry preference list (the latter is skipped gracefully on
  revisions that predate the batched API).

Each invocation *appends* one record to ``BENCH_engine.json`` so the perf
trajectory accumulates across PRs; the access-count checksum in the record
doubles as a guard that a faster engine still performs identical work.

``--shipment`` records the factory-shipment point instead: descriptor
payload bytes (beside what the same payloads weigh with every array
inline), per-point versus batched dispatch counts, and serial versus
persistent-pool wall-clock over the figure-6 sweep of the default
substrate.

``--storage`` records the storage-backend point instead: the same figure-6
sweep dispatched over ``/dev/shm`` segments versus mmap spool files —
descriptor payload bytes and dispatch wall-clock per backend, with serial
equivalence enforced before anything is written (``make
bench-record-storage``).

``--kernel`` records the round-kernel point instead: the reference tier
versus the batched fused tier over the default end-to-end workload — wall-clock, per-round
timing and the fused speedup, with serial equivalence enforced before
anything is written (``make bench-record-kernel``).

``--paper-scale`` records a different point instead: the full MovieLens-1M
substrate (6,040 users × 3,952 movies × 1,000,209 synthetic ratings) with
every default group evaluated at every query period, serial versus the
sharded process-worker path (``make bench-record-paper``).  The record keeps
the host's usable-CPU count alongside the speedup: process sharding can only
beat serial when the host actually grants cores, so a single-CPU container
measures shipment/merge overhead (speedup < 1) while a ≥ 4-core host is
where the ≥ 1.5× expectation at 4 workers applies.
"""

from __future__ import annotations

import argparse
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

from repro.core.consensus import make_consensus  # noqa: E402
from repro.core.greca import Greca  # noqa: E402
from repro.core.lists import KIND_PREFERENCE, AccessCounter, SortedAccessList  # noqa: E402
from repro.experiments.scalability import ScalabilityConfig, ScalabilityEnvironment  # noqa: E402

MICRO_ENTRIES = 100_000


def bench_greca_end_to_end(repeats: int = 3) -> dict[str, object]:
    """Best-of-``repeats`` wall time of GRECA over the default scalability point."""
    env = ScalabilityEnvironment(ScalabilityConfig())
    consensus = make_consensus(env.config.consensus)
    indexes = env.build_default_indexes()

    best = float("inf")
    sa_checksum = 0
    percent_sa = []
    for _ in range(repeats):
        start = time.perf_counter()
        results = [Greca(consensus, k=env.config.k).run(index) for index in indexes]
        best = min(best, time.perf_counter() - start)
        sa_checksum = sum(result.sequential_accesses for result in results)
        percent_sa = [round(result.percent_sequential_accesses, 3) for result in results]
    return {
        "n_groups": len(indexes),
        "n_items": env.config.n_items,
        "k": env.config.k,
        "consensus": env.config.consensus,
        "total_seconds": round(best, 4),
        "seconds_per_run": round(best / len(indexes), 4),
        "sa_checksum": sa_checksum,
        "percent_sa": percent_sa,
    }


def bench_baselines(repeats: int = 3) -> dict[str, object]:
    """Best-of-``repeats`` wall time of the two baselines over one default group."""
    from repro.core.baseline import NaiveFullScan, ThresholdAlgorithmBaseline  # noqa: E402

    env = ScalabilityEnvironment(ScalabilityConfig())
    consensus = make_consensus(env.config.consensus)
    index = env.build_default_indexes()[0]

    record: dict[str, object] = {"n_items": env.config.n_items, "k": env.config.k}
    for name, algorithm in (
        ("naive", NaiveFullScan(consensus, k=env.config.k)),
        ("ta_baseline", ThresholdAlgorithmBaseline(consensus, k=env.config.k)),
    ):
        best = float("inf")
        accesses = 0
        for _ in range(repeats):
            start = time.perf_counter()
            result = algorithm.run(index)
            best = min(best, time.perf_counter() - start)
            accesses = result.sequential_accesses + result.random_accesses
        record[f"{name}_seconds"] = round(best, 4)
        record[f"{name}_accesses"] = accesses
    return record


def bench_figure_suite() -> dict[str, object]:
    """One pass over the Figure 5-8 drivers on a shared scalability substrate."""
    from repro.experiments import figure5, figure6, figure7, figure8  # noqa: E402

    env = ScalabilityEnvironment(ScalabilityConfig())
    timings: dict[str, object] = {}
    total = 0.0
    for name, driver in (
        ("figure5", figure5),
        ("figure6", figure6),
        ("figure7", figure7),
        ("figure8", figure8),
    ):
        start = time.perf_counter()
        driver.run(environment=env)
        elapsed = time.perf_counter() - start
        timings[f"{name}_seconds"] = round(elapsed, 4)
        total += elapsed
    timings["total_seconds"] = round(total, 4)
    return timings


def bench_micro_access() -> dict[str, object]:
    """Per-entry vs block sequential access over one large preference list."""

    def make_list() -> SortedAccessList:
        entries = ((item, float((item * 2_654_435_761) % 1_000_003)) for item in range(MICRO_ENTRIES))
        return SortedAccessList("PL(bench)", KIND_PREFERENCE, entries, AccessCounter())

    access_list = make_list()
    start = time.perf_counter()
    while access_list.sequential_access() is not None:
        pass
    per_entry = time.perf_counter() - start
    assert access_list.counter.sequential == MICRO_ENTRIES

    record: dict[str, object] = {
        "n_entries": MICRO_ENTRIES,
        "per_entry_seconds": round(per_entry, 4),
    }
    if hasattr(access_list, "sequential_block"):
        access_list = make_list()
        start = time.perf_counter()
        read = 0
        while not access_list.exhausted:
            _, scores = access_list.sequential_block(4096)
            read += len(scores)
        block = time.perf_counter() - start
        assert read == MICRO_ENTRIES and access_list.counter.sequential == MICRO_ENTRIES
        record["block_seconds"] = round(block, 4)
        record["block_speedup"] = round(per_entry / block, 1) if block > 0 else None
    else:
        record["block_seconds"] = None
        record["block_speedup"] = None
    return record


def bench_shipment(n_workers: int = 4) -> dict[str, object]:
    """Descriptor shipment: payload bytes, dispatch counts, wall-clock.

    The workload is the figure 6 sweep over the default substrate — every
    default random group evaluated at every query period, so the same
    memoised factories and affinity columns ship to shards again and again,
    exactly the pattern the zero-copy path amortises.  Payload bytes are
    the pickled descriptor payloads, next to the same payloads with every
    factory and affinity array inline (``payload_shrink`` is their ratio).

    Dispatch counts compare the historical one-dispatch-per-sweep-point
    driver loop against the batched single dispatch (every sweep point in
    one group-major task list): total payloads crossing the pool plus how
    many (shard, factory) shipments they contain — batched, each factory
    ships once per shard it appears in.  Wall-clock is recorded for the
    serial reference and a persistent pool (cold first dispatch, warm
    second).  On hosts granting fewer cores than workers the wall-clocks
    measure overhead, not speedup — ``n_cpus`` is recorded so the
    trajectory stays honest.
    """
    import pickle
    from dataclasses import replace

    from repro.parallel import (
        PersistentShardExecutor,
        SharedArrayRegistry,
        available_cpus,
        build_payloads,
        evaluate_tasks,
        plan_shards,
    )

    env = ScalabilityEnvironment(ScalabilityConfig())
    groups = env.random_groups()
    periods = list(env.timeline)
    # Group-major order: each group's factory (and affinity columns) lands in
    # as few contiguous shards as possible.
    tasks = [env.task_for(group, period=period) for group in groups for period in periods]
    factories = {task.group: env.index_factory(task.group) for task in tasks}
    plan = plan_shards(len(tasks), n_workers)

    def payload_bytes(shipped_tasks, factory_map) -> int:
        return sum(
            len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            for payload in build_payloads(plan, shipped_tasks, factory_map)
        )

    inline_bytes = payload_bytes(tasks, factories)
    with SharedArrayRegistry() as registry:
        handles = {key: registry.export(factory) for key, factory in factories.items()}
        shipped = [
            replace(task, affinity_ref=registry.export_affinity(task.affinity_ref))
            for task in tasks
        ]
        descriptor_bytes = payload_bytes(shipped, handles)

    # Dispatch counts: the pre-batching drivers dispatched once per sweep
    # point (here: per period), the batched path once per figure.
    per_point_dispatches = 0
    per_point_factory_shipments = 0
    for period_index in range(len(periods)):
        point_tasks = [
            tasks[group_index * len(periods) + period_index]
            for group_index in range(len(groups))
        ]
        point_payloads = build_payloads(
            plan_shards(len(point_tasks), n_workers), point_tasks, factories
        )
        per_point_dispatches += len(point_payloads)
        per_point_factory_shipments += sum(
            len(payload.factories) for payload in point_payloads
        )
    batched_payloads = build_payloads(plan, tasks, factories)
    batched_dispatches = len(batched_payloads)
    batched_factory_shipments = sum(len(payload.factories) for payload in batched_payloads)

    start = time.perf_counter()
    serial_records = evaluate_tasks(tasks, factories)
    serial_seconds = time.perf_counter() - start

    with PersistentShardExecutor(n_workers) as pool, SharedArrayRegistry() as registry:
        start = time.perf_counter()
        cold_records = evaluate_tasks(tasks, factories, executor=pool, registry=registry)
        persistent_cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm_records = evaluate_tasks(tasks, factories, executor=pool, registry=registry)
        persistent_warm_seconds = time.perf_counter() - start

    identical = cold_records == serial_records and warm_records == serial_records
    if not identical:  # the record must never hide an equivalence break
        raise SystemExit("shipment-bench records diverged from serial")

    n_cpus = available_cpus()
    record: dict[str, object] = {}
    if n_cpus < n_workers:
        record["note"] = (
            f"host grants {n_cpus} cpu(s) for {n_workers} workers: wall-clocks "
            "measure shipment/merge overhead, not parallel speedup; the >=1.5x "
            "expectation applies on hosts with >= n_workers cores"
        )
    record.update(
        n_tasks=len(tasks),
        n_groups=len(groups),
        n_periods=len(periods),
        n_workers=n_workers,
        n_cpus=n_cpus,
        payload_bytes_inline=inline_bytes,
        payload_bytes_descriptor=descriptor_bytes,
        payload_shrink=(
            round(inline_bytes / descriptor_bytes, 1) if descriptor_bytes else None
        ),
        dispatches_per_point=per_point_dispatches,
        dispatches_batched=batched_dispatches,
        factory_shipments_per_point=per_point_factory_shipments,
        factory_shipments_batched=batched_factory_shipments,
        serial_seconds=round(serial_seconds, 4),
        persistent_cold_seconds=round(persistent_cold_seconds, 4),
        persistent_warm_seconds=round(persistent_warm_seconds, 4),
        identical=identical,
    )
    print(json.dumps({"shipment": record}, indent=2))
    return record


def bench_storage(n_workers: int = 4) -> dict[str, object]:
    """Shared-memory vs mmap spool dispatch: payload bytes and wall-clock.

    The workload is the same figure-6 sweep ``bench_shipment`` measures —
    every default random group at every query period — run once per storage
    backend through a fresh persistent pool owned by the call and through a
    held persistent pool (cold first dispatch, warm second).  Descriptor payloads are
    byte-sized per backend too: an mmap descriptor carries an absolute spool
    path instead of a short shm name, so the delta is visible but small.
    Every backend's records are checked against the serial reference before
    the point is recorded — a faster backend that diverges must never land
    in the trajectory.
    """
    import pickle
    from dataclasses import replace

    from repro.parallel import (
        PersistentShardExecutor,
        SharedArrayRegistry,
        available_cpus,
        build_payloads,
        evaluate_tasks,
        plan_shards,
    )

    env = ScalabilityEnvironment(ScalabilityConfig())
    groups = env.random_groups()
    periods = list(env.timeline)
    tasks = [
        env.task_for(group, period=period) for group in groups for period in periods
    ]
    factories = {task.group: env.index_factory(task.group) for task in tasks}
    plan = plan_shards(len(tasks), n_workers)

    def payload_bytes(shipped_tasks, factory_map) -> int:
        return sum(
            len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            for payload in build_payloads(plan, shipped_tasks, factory_map)
        )

    start = time.perf_counter()
    serial_records = evaluate_tasks(tasks, factories)
    serial_seconds = time.perf_counter() - start

    n_cpus = available_cpus()
    record: dict[str, object] = {}
    if n_cpus < n_workers:
        record["note"] = (
            f"host grants {n_cpus} cpu(s) for {n_workers} workers: wall-clocks "
            "measure dispatch overhead per backend, not parallel speedup"
        )
    record.update(
        n_tasks=len(tasks),
        n_groups=len(groups),
        n_periods=len(periods),
        n_workers=n_workers,
        n_cpus=n_cpus,
        serial_seconds=round(serial_seconds, 4),
    )

    for storage in ("shm", "mmap"):
        with SharedArrayRegistry(storage=storage) as registry:
            handles = {key: registry.export(factory) for key, factory in factories.items()}
            shipped = [
                replace(task, affinity_ref=registry.export_affinity(task.affinity_ref))
                for task in tasks
            ]
            record[f"payload_bytes_{storage}"] = payload_bytes(shipped, handles)

        start = time.perf_counter()
        fresh_records = evaluate_tasks(
            tasks, factories, n_shards=n_workers, executor="persistent", storage=storage
        )
        record[f"fresh_pool_{storage}_seconds"] = round(time.perf_counter() - start, 4)

        with PersistentShardExecutor(n_workers) as pool, SharedArrayRegistry(
            storage=storage
        ) as registry:
            start = time.perf_counter()
            cold_records = evaluate_tasks(tasks, factories, executor=pool, registry=registry)
            record[f"persistent_cold_{storage}_seconds"] = round(
                time.perf_counter() - start, 4
            )
            start = time.perf_counter()
            warm_records = evaluate_tasks(tasks, factories, executor=pool, registry=registry)
            record[f"persistent_warm_{storage}_seconds"] = round(
                time.perf_counter() - start, 4
            )

        if not (
            fresh_records == serial_records
            and cold_records == serial_records
            and warm_records == serial_records
        ):  # the record must never hide an equivalence break
            raise SystemExit(f"storage-bench {storage} records diverged from serial")

    record["identical"] = True
    shm_seconds = record["fresh_pool_shm_seconds"]
    record["mmap_dispatch_overhead"] = (
        round(record["fresh_pool_mmap_seconds"] / shm_seconds, 3) if shm_seconds else None
    )
    print(json.dumps({"storage": record}, indent=2))
    return record


def bench_kernels(repeats: int = 3) -> dict[str, object]:
    """Reference vs fused round-kernel wall-clock.

    The workload is the default end-to-end point — the paper's 3,900-item
    catalogue, 8 random groups of 6, AP consensus, ``k = 10``, indexes
    pre-built — run once per registered kernel tier (best of ``repeats``).
    Per-round timing is derived from the summed round counts, which every
    tier must report identically.  Every tier's results are checked against
    the reference kernel before the point is recorded — a faster kernel
    that diverges must never land in the trajectory.  ``n_cpus`` rides
    along: the kernels are single-threaded numpy, but BLAS thread counts
    vary per host.
    """
    from repro.core.kernels import KERNEL_REFERENCE, kernel_names  # noqa: E402
    from repro.parallel import available_cpus  # noqa: E402

    env = ScalabilityEnvironment(ScalabilityConfig())
    consensus = make_consensus(env.config.consensus)
    indexes = env.build_default_indexes()

    def equivalence_facts(results) -> list[tuple]:
        return [
            (
                result.items,
                result.sequential_accesses,
                result.random_accesses,
                result.rounds,
                result.stopping,
            )
            for result in results
        ]

    record: dict[str, object] = {
        "n_groups": len(indexes),
        "n_items": env.config.n_items,
        "k": env.config.k,
        "consensus": env.config.consensus,
        "n_cpus": available_cpus(),
        "kernels": list(kernel_names()),
    }
    reference_facts = None
    reference_seconds = None
    for kernel in kernel_names():
        algorithm = Greca(consensus, k=env.config.k, kernel=kernel)
        best = float("inf")
        results = []
        for _ in range(repeats):
            start = time.perf_counter()
            results = [algorithm.run(index) for index in indexes]
            best = min(best, time.perf_counter() - start)
        facts = equivalence_facts(results)
        if kernel == KERNEL_REFERENCE:
            reference_facts = facts
            reference_seconds = best
        elif facts != reference_facts:
            # The record must never hide an equivalence break.
            raise SystemExit(f"kernel-bench {kernel!r} records diverged from reference")
        total_rounds = sum(result.rounds for result in results)
        record[f"{kernel}_seconds"] = round(best, 4)
        record[f"{kernel}_rounds"] = total_rounds
        record[f"{kernel}_seconds_per_round"] = (
            round(best / total_rounds, 9) if total_rounds else None
        )
        if kernel != KERNEL_REFERENCE:
            record[f"{kernel}_speedup"] = round(reference_seconds / best, 3) if best else None
    record["identical"] = True
    print(json.dumps({"kernels": record}, indent=2))
    return record


def bench_parallel_paper_scale(n_workers: int = 4) -> dict[str, object]:
    """Serial vs sharded evaluation over the full Table 5-scale substrate."""
    from repro.experiments.scalability import ScalabilityConfig, run_paper_scale
    from repro.parallel import ExecutionPolicy

    config = ScalabilityConfig.paper_scale()
    result = run_paper_scale(policy=ExecutionPolicy(n_workers=n_workers), config=config)
    print(result.format_summary())
    if not result.identical:  # the record must never hide an equivalence break
        raise SystemExit("paper-scale sharded records diverged from serial")
    record: dict[str, object] = {}
    if result.n_cpus < result.n_workers:
        record["note"] = (
            f"host grants {result.n_cpus} cpu(s) for {result.n_workers} workers: "
            "this point measures shipment/merge overhead, not parallel speedup; "
            "the >=1.5x expectation applies on hosts with >= n_workers cores"
        )
    record.update(
        n_users=config.n_users,
        n_items=config.n_items,
        n_ratings=config.n_ratings,
        n_groups=result.n_groups,
        n_periods=result.n_periods,
        n_tasks=result.n_tasks,
        n_workers=result.n_workers,
        n_cpus=result.n_cpus,
        setup_seconds=round(result.setup_seconds, 4),
        serial_seconds=round(result.serial_seconds, 4),
        sharded_seconds=round(result.sharded_seconds, 4),
        speedup=round(result.speedup, 3),
        sa_checksum=result.sa_checksum,
        mean_percent_sa=round(result.stats.mean_percent_sa, 3),
        identical=result.identical,
    )
    return record


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
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best is kept)")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="record the sharded paper-scale point (full MovieLens-1M substrate, "
        "serial vs process workers) instead of the default engine sections",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker count for the --paper-scale / --shipment runs (default: 4)",
    )
    parser.add_argument(
        "--shipment",
        action="store_true",
        help="record the shipment point (descriptor payload bytes, dispatch "
        "counts and serial vs persistent-pool wall-clock over the figure-6 "
        "sweep) instead of the default engine sections",
    )
    parser.add_argument(
        "--storage",
        action="store_true",
        help="record the storage-backend point (shared-memory vs mmap spool "
        "dispatch latency and descriptor payload bytes over the figure-6 "
        "sweep) instead of the default engine sections",
    )
    parser.add_argument(
        "--kernel",
        action="store_true",
        help="record the round-kernel point (reference vs fused wall-clock "
        "and per-round timing over the default end-to-end workload, serial "
        "equivalence enforced) instead of the default engine sections",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the record to PATH instead of appending to BENCH_engine.json "
        "(CI uses this to upload the measurement as an artifact without "
        "mutating the committed trajectory)",
    )
    args = parser.parse_args(argv)

    record = {
        "label": args.label,
        "git": git_revision(),
        "python": platform.python_version(),
    }
    if args.paper_scale:
        record["parallel_paper_scale"] = bench_parallel_paper_scale(n_workers=args.workers)
    elif args.shipment:
        record["shipment"] = bench_shipment(n_workers=args.workers)
    elif args.storage:
        record["storage"] = bench_storage(n_workers=args.workers)
    elif args.kernel:
        record["kernels"] = bench_kernels(repeats=args.repeats)
    else:
        record.update(
            greca_end_to_end=bench_greca_end_to_end(repeats=args.repeats),
            baselines=bench_baselines(repeats=args.repeats),
            figure_suite=bench_figure_suite(),
            micro_sequential=bench_micro_access(),
        )

    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    else:
        target = os.path.join(ROOT, "BENCH_engine.json")
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

"""Deterministic instance grid shared by the engine-equivalence tests.

The batched columnar access engine must be *access-equivalent* to the seed
per-entry engine: identical sequential/random access counts, identical top-k
items, identical stopping reasons.  This module builds a grid of synthetic
GRECA indexes and generic top-k instances deterministically (seeded
``random.Random``, no global state), so the exact same inputs can be
regenerated in any session.

``scripts/capture_engine_golden.py`` ran this grid against the *seed*
implementation (before the columnar refactor) and froze the results in
``tests/data/engine_golden.json``; ``tests/test_engine_equivalence.py``
replays the grid against the current implementation and compares bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Any

from repro.core.consensus import make_consensus
from repro.core.greca import Greca, GrecaIndex

#: GRECA equivalence grid: (group size, items, k, consensus, periods,
#: time model, check_interval).  ``check_interval=None`` exercises the
#: adaptive default.
GRECA_CASES: tuple[dict[str, Any], ...] = tuple(
    dict(
        case_id=f"greca-{i}",
        n_members=n_members,
        n_items=n_items,
        k=k,
        consensus=consensus,
        n_periods=n_periods,
        time_model=time_model,
        check_interval=check_interval,
        seed=1000 + 13 * i,
    )
    for i, (n_members, n_items, k, consensus, n_periods, time_model, check_interval) in enumerate(
        [
            (2, 40, 1, "AP", 0, "discrete", 1),
            (2, 60, 5, "AP", 3, "discrete", None),
            (2, 80, 10, "MO", 2, "continuous", 4),
            (3, 50, 3, "AP", 0, "discrete", 1),
            (3, 120, 10, "AP", 6, "discrete", None),
            (3, 90, 5, "PD", 4, "discrete", 7),
            (3, 90, 5, "PD V1", 4, "continuous", 3),
            (4, 75, 8, "MO", 1, "discrete", None),
            (4, 150, 10, "AP", 6, "continuous", 5),
            (5, 60, 2, "PD V2", 3, "discrete", 2),
            (6, 200, 10, "AP", 6, "discrete", None),
            (6, 200, 10, "MO", 6, "discrete", 11),
            (6, 350, 10, "AP", 6, "continuous", None),
            (6, 120, 1, "PD", 2, "discrete", 1),
            (7, 100, 10, "AP", 5, "discrete", None),
            (8, 90, 4, "AP", 3, "continuous", 6),
        ]
    )
)

#: Generic NRA/TA equivalence grid (lists, items, k, aggregation).
TOPK_CASES: tuple[dict[str, Any], ...] = tuple(
    dict(
        case_id=f"topk-{i}",
        n_lists=n_lists,
        n_items=n_items,
        k=k,
        aggregation=aggregation,
        seed=7000 + 29 * i,
    )
    for i, (n_lists, n_items, k, aggregation) in enumerate(
        [
            (1, 15, 1, "sum"),
            (2, 30, 3, "sum"),
            (2, 30, 3, "min"),
            (3, 50, 5, "mean"),
            (3, 80, 10, "sum"),
            (4, 60, 4, "min"),
            (4, 120, 8, "sum"),
            (5, 40, 2, "mean"),
            (3, 25, 25, "sum"),  # k == n_items: must exhaust
            (2, 1, 1, "min"),
        ]
    )
)


def greca_case_inputs(case: dict[str, Any]) -> dict[str, Any]:
    """The raw :class:`GrecaIndex` constructor inputs of one grid case.

    Exposed separately so the index-reuse tests can feed the *same* inputs
    through :class:`~repro.core.greca.GrecaIndexFactory` and compare against
    fresh construction.  The draw order is frozen — it determines the golden
    values.
    """
    rng = random.Random(case["seed"])
    members = list(range(1, case["n_members"] + 1))
    items = list(range(101, 101 + case["n_items"]))
    aprefs = {
        member: {item: round(rng.uniform(0.0, 5.0), 3) for item in items} for member in members
    }
    pairs = [
        (left, right) for i, left in enumerate(members) for right in members[i + 1 :]
    ]
    static = {pair: round(rng.uniform(0.0, 1.0), 3) for pair in pairs}
    periodic = {
        period: {pair: round(rng.uniform(0.0, 1.0), 3) for pair in pairs}
        for period in range(case["n_periods"])
    }
    averages = {period: round(rng.uniform(0.0, 0.5), 3) for period in range(case["n_periods"])}
    return dict(
        members=members,
        aprefs=aprefs,
        static=static,
        periodic=periodic,
        averages=averages,
        time_model=case["time_model"],
    )


def grid_tasks(kernel: str | None = None) -> tuple[list, dict]:
    """Every GRECA grid case as a shippable columnar task + its group factory.

    The sharded-layer suites replay the grid through
    :func:`repro.parallel.evaluate_tasks` with these.  Distinct cases share
    member ids, so the factory key embeds the case index to keep one factory
    (and one preference substrate) per case.  Every case uses contiguous
    period indices, so its affinity inputs convert to one full-timeline
    :class:`~repro.core.affinity.AffinityColumns` set with an explicit full
    prefix.  ``kernel`` rides on every task (``None`` = the reference tier).
    """
    from repro.core.affinity import AffinityColumns
    from repro.core.greca import GrecaIndexFactory
    from repro.parallel import GroupEvalTask, group_key

    tasks = []
    factories = {}
    for case_index, case in enumerate(GRECA_CASES):
        inputs = greca_case_inputs(case)
        key = group_key([case_index * 1000 + member for member in inputs["members"]])
        factories[key] = GrecaIndexFactory(members=inputs["members"], aprefs=inputs["aprefs"])
        columns = AffinityColumns.from_components(
            inputs["static"], inputs["periodic"], inputs["averages"]
        )
        tasks.append(
            GroupEvalTask(
                group=key,
                k=case["k"],
                consensus=make_consensus(case["consensus"]),
                time_model=inputs["time_model"],
                affinity_ref=columns,
                n_periods=columns.n_periods,
                check_interval=case["check_interval"],
                kernel=kernel,
            )
        )
    return tasks, factories


def build_greca_case(case: dict[str, Any]) -> tuple[GrecaIndex, Greca]:
    """Materialise one GRECA grid case (index + configured algorithm)."""
    index = GrecaIndex(**greca_case_inputs(case))
    algorithm = Greca(
        make_consensus(case["consensus"]),
        k=case["k"],
        check_interval=case["check_interval"],
    )
    return index, algorithm


def run_greca_case(case: dict[str, Any]) -> dict[str, Any]:
    """Run one GRECA grid case and summarise the access-equivalence facts."""
    index, algorithm = build_greca_case(case)
    result = algorithm.run(index)
    return {
        "case_id": case["case_id"],
        "sequential_accesses": result.sequential_accesses,
        "random_accesses": result.random_accesses,
        "stopping": result.stopping,
        "items": list(result.items),
        "rounds": result.rounds,
        "total_entries": result.total_entries,
    }


def run_baseline_case(
    case: dict[str, Any], algorithm_name: str, batched: bool = True
) -> dict[str, Any]:
    """Run a baseline on one GRECA grid case and summarise the equivalence facts.

    ``batched=False`` replays the retained per-entry reference interpreter —
    the path the golden values are captured from; ``batched=True`` (the
    default, and what the equivalence tests run) exercises the batched
    columnar port.
    """
    from repro.core.baseline import NaiveFullScan, ThresholdAlgorithmBaseline

    index, _ = build_greca_case(case)
    consensus = make_consensus(case["consensus"])
    if algorithm_name == "naive":
        runner = NaiveFullScan(consensus, k=case["k"], batched=batched)
    elif algorithm_name == "ta_baseline":
        runner = ThresholdAlgorithmBaseline(consensus, k=case["k"], batched=batched)
    else:  # pragma: no cover - guarded by the callers
        raise ValueError(f"unknown baseline {algorithm_name!r}")
    result = runner.run(index)
    return {
        "case_id": case["case_id"],
        "algorithm": algorithm_name,
        "sequential_accesses": result.sequential_accesses,
        "random_accesses": result.random_accesses,
        "items": list(result.items),
        "total_entries": result.total_entries,
        "k": result.k,
    }


def build_topk_case(case: dict[str, Any]):
    """Materialise one generic top-k grid case (shared-counter sorted lists)."""
    from repro.core.lists import KIND_PREFERENCE, AccessCounter, SortedAccessList

    rng = random.Random(case["seed"])
    counter = AccessCounter()
    lists = [
        SortedAccessList(
            f"L{position}",
            KIND_PREFERENCE,
            {f"item{j}": round(rng.uniform(0.0, 1.0), 3) for j in range(case["n_items"])}.items(),
            counter,
        )
        for position in range(case["n_lists"])
    ]
    aggregation = {
        "sum": sum,
        "min": min,
        "mean": lambda values: sum(values) / len(values),
    }[case["aggregation"]]
    return lists, counter, aggregation


def run_topk_case(case: dict[str, Any], algorithm_name: str) -> dict[str, Any]:
    """Run NRA or TA on one grid case and summarise the equivalence facts."""
    from repro.topk.nra import NoRandomAccessAlgorithm
    from repro.topk.ta import ThresholdAlgorithm

    lists, counter, aggregation = build_topk_case(case)
    k = min(case["k"], case["n_items"])
    if algorithm_name == "nra":
        result = NoRandomAccessAlgorithm(aggregation, k=k).run(lists)
    elif algorithm_name == "ta":
        result = ThresholdAlgorithm(aggregation, k=k).run(lists)
    else:  # pragma: no cover - guarded by the callers
        raise ValueError(f"unknown algorithm {algorithm_name!r}")
    return {
        "case_id": case["case_id"],
        "algorithm": algorithm_name,
        "sequential_accesses": result.sequential_accesses,
        "random_accesses": result.random_accesses,
        "items": list(result.items),
        "rounds": result.rounds,
        "total_entries": result.total_entries,
    }

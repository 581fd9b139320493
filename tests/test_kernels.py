"""Round-kernel equivalence: every registered tier ≡ the reference kernel.

The :mod:`repro.core.kernels` seam promises that every registered kernel —
``reference`` (the extracted original loops) and ``fused`` (batched numpy
gather/scatter) — is **bit-identical**: same top-k items, same
bounds and exact scores, same sequential/random access counts, same round
counts and stopping reasons, on every instance.  This suite pins that down
along the same axes the storage/executor seams use:

* **golden grid** — every :mod:`engine_grid` GRECA case, per kernel, against
  the reference run (and the frozen golden values are already enforced by
  ``tests/test_engine_equivalence.py`` for the reference tier);
* **property suite** — the 56 randomized instances of
  ``tests/test_engine_properties.py`` replayed per kernel;
* **sharded tiers** — the grid through :func:`repro.parallel.evaluate_tasks`
  at shard counts {1, 2, 3, 7} under pickle, shm and mmap storage, the
  chaos (supervised fault-recovery) path, and epoch-swapped environments;
* **plumbing** — the ``kernel`` knob round-trips through
  :class:`~repro.parallel.ExecutionPolicy`,
  :class:`~repro.experiments.scalability.ScalabilityEnvironment`,
  :class:`~repro.service.ServiceConfig` and the runner CLI, and unknown
  names raise at the single choice point;
* **allocation regressions** — the hoisted threshold columns and the pooled
  candidate buffers may not regress into per-check / per-run allocations.

Float equality is exact (``==``) throughout: the fused tier only ever
*assigns* into the bound arrays (never accumulates), so there is no
legitimate source of floating-point divergence.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from engine_grid import GRECA_CASES, greca_case_inputs
from test_engine_properties import (
    MAX_APREF,
    SEEDS,
    assert_greca_results_identical,
    build_index,
    random_case,
)

from repro.core.consensus import make_consensus
from repro.core.greca import Greca, GrecaIndex, GrecaIndexFactory
from repro.core.kernels import (
    KERNEL_FUSED,
    KERNEL_REFERENCE,
    FusedRoundKernel,
    ReferenceRoundKernel,
    RoundKernel,
    kernel_names,
    make_round_state,
    resolve_kernel,
    validate_kernel_name,
)
from repro.exceptions import ConfigurationError
from repro.experiments.scalability import ScalabilityConfig, ScalabilityEnvironment
from repro.parallel import (
    ExecutionPolicy,
    FaultPlan,
    FaultSpec,
    GroupEvalTask,
    SerialShardExecutor,
    SupervisionPolicy,
    evaluate_tasks,
    group_key,
    record_from_result,
    run_task,
)
from repro.service import ServiceConfig

#: Every registered kernel.
KERNELS = kernel_names()

#: The tiers that must diverge from the reference, i.e. everything else.
FAST_KERNELS = tuple(name for name in KERNELS if name != KERNEL_REFERENCE)

#: Shard counts required by the acceptance criteria.
SHARD_COUNTS = (1, 2, 3, 7)


def run_case(case: dict, kernel: str | None, check_interval=...):
    """One golden-grid case under a kernel (optionally overriding the interval)."""
    inputs = greca_case_inputs(case)
    index = GrecaIndex(**inputs)
    interval = case["check_interval"] if check_interval is ... else check_interval
    algorithm = Greca(
        make_consensus(case["consensus"]),
        k=case["k"],
        check_interval=interval,
        kernel=kernel,
    )
    return algorithm.run(index)


# -- registry and the single choice point -------------------------------------------------------


def test_registry_always_offers_reference_and_fused():
    assert KERNEL_REFERENCE in KERNELS
    assert KERNEL_FUSED in KERNELS


@pytest.mark.parametrize("bogus", ["warp", "FUSED", "cuda", "reference ", ""])
def test_unknown_kernel_raises_value_error(bogus):
    """Unknown kernel names fail at the single choice point, listing the tiers."""
    with pytest.raises(ValueError, match="unknown kernel"):
        validate_kernel_name(bogus)
    with pytest.raises(ValueError, match="'fused', 'reference'"):
        Greca(make_consensus("AP"), k=3, kernel=bogus)
    with pytest.raises(ValueError, match="unknown kernel"):
        ExecutionPolicy(kernel=bogus)


def test_resolve_kernel_accepts_names_instances_and_none():
    assert isinstance(resolve_kernel(None), ReferenceRoundKernel)
    assert isinstance(resolve_kernel(KERNEL_FUSED), FusedRoundKernel)
    instance = FusedRoundKernel()
    assert resolve_kernel(instance) is instance
    assert isinstance(instance, RoundKernel)  # the protocol is structural


def test_runner_rejects_unknown_kernel_before_running():
    """--kernel goes through the same choice point, before any experiment."""
    from repro.experiments import runner

    with pytest.raises(ValueError, match="unknown kernel"):
        runner.main(["--kernel", "warp", "--list"])


# -- golden grid × kernels ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("case", GRECA_CASES, ids=lambda case: case["case_id"])
def test_grid_kernel_matches_reference(case, kernel):
    """Every grid case: the fast tier reproduces the reference run exactly."""
    assert_greca_results_identical(run_case(case, kernel), run_case(case, None))


@pytest.mark.parametrize("case", GRECA_CASES[:4], ids=lambda case: case["case_id"])
def test_grid_default_kernel_is_the_reference_tier(case):
    """kernel=None and kernel="reference" are the same code path and results."""
    assert_greca_results_identical(
        run_case(case, KERNEL_REFERENCE), run_case(case, None)
    )


# -- property suite × kernels -------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_random_instances_fused_matches_reference(seed):
    """56 randomized substrates: fused ≡ reference on every observable."""
    case = random_case(seed)
    consensus = make_consensus(case["consensus"])
    reference = Greca(consensus, k=case["k"]).run(build_index(case))
    fused = Greca(consensus, k=case["k"], kernel=KERNEL_FUSED).run(build_index(case))
    assert_greca_results_identical(fused, reference)


# -- edge cases, identical across every registered kernel ---------------------------------------


def pair_free_index() -> GrecaIndex:
    """A two-member group with *no* affinity data at all (empty pair lists)."""
    items = list(range(200, 212))
    aprefs = {
        member: {item: ((item * 7 + member * 13) % 50) / 10.0 for item in items}
        for member in (1, 2)
    }
    return GrecaIndex(members=[1, 2], aprefs=aprefs, static={}, periodic={}, averages={})


@pytest.mark.parametrize("kernel", FAST_KERNELS)
def test_pair_free_group_matches_reference(kernel):
    """Empty static/periodic affinity inputs: every kernel agrees exactly."""
    consensus = make_consensus("AP")
    reference = Greca(consensus, k=3).run(pair_free_index())
    fast = Greca(consensus, k=3, kernel=kernel).run(pair_free_index())
    assert_greca_results_identical(fast, reference)
    assert len(reference.items) == 3


@pytest.mark.parametrize("kernel", KERNELS)
def test_k_larger_than_catalogue_matches_reference(kernel):
    """k > n_items clamps to the catalogue and exhausts, on every tier."""
    consensus = make_consensus("MO")
    reference = Greca(consensus, k=50).run(pair_free_index())
    run = Greca(consensus, k=50, kernel=kernel).run(pair_free_index())
    assert_greca_results_identical(run, reference)
    assert run.k == 12 and len(run.items) == 12


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("check_interval", (1, None))
def test_check_interval_extremes_match_reference(kernel, check_interval):
    """check_interval=1 (a check every round) and the adaptive default agree."""
    case = random_case(3)
    consensus = make_consensus(case["consensus"])
    reference = Greca(consensus, k=case["k"], check_interval=check_interval).run(
        build_index(case)
    )
    fast = Greca(
        consensus, k=case["k"], check_interval=check_interval, kernel=kernel
    ).run(build_index(case))
    assert_greca_results_identical(fast, reference)


def test_round_block_guards_against_drained_lists():
    """The defensive max_remaining == 0 guard yields one idle round, not a hang."""
    assert Greca._round_block(0, 0, 5) == 1
    assert Greca._round_block(0, 17, 3) == 1
    # The normal schedule: advance to the next check boundary or exhaustion.
    assert Greca._round_block(10, 0, 4) == 4
    assert Greca._round_block(10, 6, 4) == 2
    assert Greca._round_block(3, 0, 4) == 3


@pytest.mark.parametrize("kernel", KERNELS)
def test_advance_on_drained_lists_is_a_no_op(kernel):
    """Advancing fully read lists records nothing and rewrites nothing."""
    index = pair_free_index()
    from repro.core.bounds import PairwiseAffinityBounds
    from repro.core.lists import AccessCounter

    counter = AccessCounter()
    preference_lists, static_lists, periodic_lists = index.build_lists(counter)
    bounds = PairwiseAffinityBounds(
        index.members,
        index.period_indices,
        index.combine,
        static_lists,
        periodic_lists,
        combine_batch=index.combine_batch,
    )
    state = make_round_state(
        preference_lists, bounds, len(index.members), len(index.items)
    )
    backend = resolve_kernel(kernel)
    backend.advance(state, len(index.items))  # drain everything
    drained_sa = counter.sequential
    snapshot_low = state.apref_low.copy()
    snapshot_high = state.apref_high.copy()
    backend.advance(state, 1)  # the defensive idle round
    assert counter.sequential == drained_sa  # no phantom accesses
    assert np.array_equal(state.apref_low, snapshot_low)
    assert np.array_equal(state.apref_high, snapshot_high)
    assert state.rounds == len(index.items) + 1


# -- sharded tiers ------------------------------------------------------------------------------


def _grid_tasks(kernel: str | None):
    """Every golden-grid case as a shippable task carrying ``kernel``."""
    tasks: list[GroupEvalTask] = []
    factories: dict = {}
    for case_index, case in enumerate(GRECA_CASES):
        inputs = greca_case_inputs(case)
        key = group_key([case_index * 1000 + member for member in inputs["members"]])
        factories[key] = GrecaIndexFactory(
            members=inputs["members"], aprefs=inputs["aprefs"]
        )
        tasks.append(
            GroupEvalTask(
                group=key,
                k=case["k"],
                consensus=make_consensus(case["consensus"]),
                static=inputs["static"],
                periodic=inputs["periodic"],
                averages=inputs["averages"],
                time_model=inputs["time_model"],
                check_interval=case["check_interval"],
                kernel=kernel,
            )
        )
    return tasks, factories


@pytest.fixture(scope="module")
def grid_serial():
    """Serial reference-kernel records: fresh construction, one run per case."""
    records = []
    for case_index, case in enumerate(GRECA_CASES):
        inputs = greca_case_inputs(case)
        key = group_key([case_index * 1000 + member for member in inputs["members"]])
        records.append(record_from_result(key, run_case(case, None)))
    return records


def assert_records_identical(actual, expected):
    assert len(actual) == len(expected)
    for position, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, (
            f"task {position} diverged:\n  kernel run: {got}\n  reference:  {want}"
        )


def test_task_borne_kernel_reaches_the_worker(grid_serial):
    """run_task honours the task's kernel; results stay the reference's."""
    tasks, factories = _grid_tasks(KERNEL_FUSED)
    records = [run_task(task, factories[task.group]) for task in tasks]
    assert_records_identical(records, grid_serial)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_grid_fused_sharded_pickle_matches_serial(grid_serial, n_shards):
    """Fused tasks, by-value payloads, shard counts {1, 2, 3, 7}."""
    tasks, factories = _grid_tasks(KERNEL_FUSED)
    records = evaluate_tasks(
        tasks, factories, n_shards=n_shards, executor=SerialShardExecutor()
    )
    assert_records_identical(records, grid_serial)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_grid_fused_sharded_shm_matches_serial(grid_serial, n_shards):
    """Fused tasks over shm descriptor shipment, {1, 2, 3, 7}."""
    tasks, factories = _grid_tasks(KERNEL_FUSED)
    records = evaluate_tasks(
        tasks,
        factories,
        n_shards=n_shards,
        executor=SerialShardExecutor(),
        shipment="shm",
    )
    assert_records_identical(records, grid_serial)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_grid_fused_sharded_mmap_matches_serial(grid_serial, n_shards):
    """Fused tasks over mmap spool-file storage, {1, 2, 3, 7}."""
    tasks, factories = _grid_tasks(KERNEL_FUSED)
    records = evaluate_tasks(
        tasks,
        factories,
        n_shards=n_shards,
        executor=SerialShardExecutor(),
        shipment="shm",
        storage="mmap",
    )
    assert_records_identical(records, grid_serial)


def test_grid_fused_through_real_process_workers(grid_serial):
    """The kernel name survives pickling into a real worker process."""
    tasks, factories = _grid_tasks(KERNEL_FUSED)
    records = evaluate_tasks(tasks, factories, n_shards=2, executor="process")
    assert_records_identical(records, grid_serial)


def test_grid_fused_chaos_recovery_matches_serial(grid_serial):
    """Supervised fault recovery re-ships fused tasks; records stay exact."""
    tasks, factories = _grid_tasks(KERNEL_FUSED)
    plan = FaultPlan(
        (
            FaultSpec(shard=0, position=1, mode="raise", fires=1),
            FaultSpec(shard=1, position=0, mode="crash", fires=1),
        )
    )
    records = evaluate_tasks(
        tasks,
        factories,
        n_shards=3,
        executor="supervised",
        supervision=SupervisionPolicy(max_retries=2, backoff_base=0.001),
        fault_plan=plan,
    )
    assert_records_identical(records, grid_serial)


# -- environment / policy plumbing --------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_environment():
    env = ScalabilityEnvironment(
        ScalabilityConfig(
            n_users=50,
            n_items=220,
            n_ratings=2_500,
            n_participants=12,
            n_groups=4,
            seed=23,
        )
    )
    yield env
    env.close()


@pytest.fixture(scope="module")
def tiny_groups(tiny_environment):
    return tiny_environment.random_groups()


def test_environment_kernel_knob_matches_serial_reference(
    tiny_environment, tiny_groups
):
    """A serial fused-kernel policy reproduces the reference records exactly."""
    fused_policy = ExecutionPolicy(kernel=KERNEL_FUSED)
    serial = tiny_environment.run_records(tiny_groups)
    fused = tiny_environment.run_records(tiny_groups, policy=fused_policy)
    assert_records_identical(fused, serial)
    stats = tiny_environment.average_percent_sa(tiny_groups)
    assert tiny_environment.average_percent_sa(tiny_groups, policy=fused_policy) == stats


@pytest.mark.parametrize("n_workers", (1, 3))
def test_environment_sharded_kernel_matches_serial_reference(
    tiny_environment, tiny_groups, n_workers
):
    """Policy-borne kernels are stamped onto the dispatched tasks."""
    serial = tiny_environment.run_records(tiny_groups)
    sharded = tiny_environment.run_records(
        tiny_groups,
        policy=ExecutionPolicy(n_workers=n_workers, executor="serial", kernel=KERNEL_FUSED),
    )
    assert_records_identical(sharded, serial)


def test_explicit_task_kernel_wins_over_the_policy(tiny_environment, tiny_groups):
    """evaluate() only stamps kernel-less tasks; explicit choices survive."""
    tasks = [tiny_environment.task_for(group) for group in tiny_groups]
    explicit = [replace(task, kernel=KERNEL_REFERENCE) for task in tasks]
    fused_policy = ExecutionPolicy(kernel=KERNEL_FUSED)
    serial = tiny_environment.evaluate(tasks)
    stamped = tiny_environment.evaluate(tasks, policy=fused_policy)
    kept = tiny_environment.evaluate(explicit, policy=fused_policy)
    assert_records_identical(stamped, serial)
    assert_records_identical(kept, serial)


def test_policy_round_trips_the_kernel_knob():
    assert ExecutionPolicy().kernel is None
    assert ExecutionPolicy(kernel=KERNEL_FUSED).kernel == KERNEL_FUSED


def test_service_config_validates_and_bundles_the_kernel():
    config = ServiceConfig(policy=ExecutionPolicy(kernel=KERNEL_FUSED))
    assert config.policy.kernel == KERNEL_FUSED
    with pytest.raises(ValueError, match="unknown kernel"):
        ServiceConfig(policy=ExecutionPolicy(kernel="warp"))
    with pytest.raises(ConfigurationError, match="policy must be an ExecutionPolicy"):
        ServiceConfig(policy=KERNEL_FUSED)


# -- epoch swaps --------------------------------------------------------------------------------


def test_kernel_equivalence_survives_epoch_swaps():
    """Post-delta state: fused ≡ reference on the incrementally evolved world."""
    from repro.experiments.scalability import EnvironmentSubstrate
    from repro.updates import random_deltas

    config = ScalabilityConfig(
        n_users=30, n_items=120, n_ratings=1_200, n_participants=10, n_groups=2, seed=3
    )
    substrate = EnvironmentSubstrate.generate(config)
    deltas = random_deltas(
        substrate.ratings,
        substrate.social,
        substrate.timeline,
        n_deltas=2,
        seed=9,
        new_period_every=2,
    )
    env = ScalabilityEnvironment(config, substrate=substrate)
    groups = [tuple(substrate.participants[:3]), tuple(substrate.participants[3:6])]
    for group in groups:
        env.index_factory(group)  # warm, so the deltas exercise invalidation
    try:
        for delta in deltas:
            env.apply_delta(delta)
        serial = env.run_records(groups)
        fused = env.run_records(groups, policy=ExecutionPolicy(kernel=KERNEL_FUSED))
        assert_records_identical(fused, serial)
        sharded = env.run_records(
            groups, policy=ExecutionPolicy(n_workers=2, executor="serial", kernel=KERNEL_FUSED)
        )
        assert_records_identical(sharded, serial)
    finally:
        env.close()


# -- allocation regressions ---------------------------------------------------------------------


class _CountingNumpy:
    """A numpy facade that counts ``zeros``/``empty`` allocations."""

    def __init__(self):
        self.zeros_calls = 0
        self.empty_calls = 0

    def zeros(self, *args, **kwargs):
        self.zeros_calls += 1
        return np.zeros(*args, **kwargs)

    def empty(self, *args, **kwargs):
        self.empty_calls += 1
        return np.empty(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("kernel", (None, KERNEL_FUSED))
def test_round_state_allocations_are_independent_of_check_count(monkeypatch, kernel):
    """The virtual_* threshold columns are allocated once per run, not per check.

    ``check_interval=1`` evaluates the stopping conditions every single
    round; the kernels module must still allocate exactly the fixed
    :class:`RoundState` arrays (3 ``zeros`` + 5 ``empty``) it allocates
    under the adaptive interval — the PR 10 hoist of the per-check
    ``virtual_low``/``virtual_high`` columns.
    """
    from repro.core import kernels as kernels_module

    index = pair_free_index()
    consensus = make_consensus("AP")
    counts = {}
    for label, interval in (("adaptive", None), ("every-round", 1)):
        counting = _CountingNumpy()
        monkeypatch.setattr(kernels_module, "np", counting)
        try:
            Greca(consensus, k=3, check_interval=interval, kernel=kernel).run(index)
        finally:
            monkeypatch.setattr(kernels_module, "np", np)
        counts[label] = (counting.zeros_calls, counting.empty_calls)
    assert counts["adaptive"] == counts["every-round"] == (3, 5)


def test_candidate_buffer_is_pooled_across_factory_runs(monkeypatch):
    """Sibling indexes from one factory share one pooled candidate buffer.

    Before PR 10 every ``Greca.run`` paid a fresh
    :class:`ColumnarCandidateBuffer` (an O(items) slot registration); the
    pool on the shared substrate makes the second run — even through the
    memoised factory path — reuse the first run's buffer.
    """
    from repro.core import greca as greca_module

    constructions = []
    real_buffer = greca_module.ColumnarCandidateBuffer

    class CountingBuffer(real_buffer):
        def __init__(self, *args, **kwargs):
            constructions.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(greca_module, "ColumnarCandidateBuffer", CountingBuffer)

    case = random_case(11)
    factory = GrecaIndexFactory(case["members"], case["aprefs"], max_apref=MAX_APREF)
    algorithm = Greca(make_consensus(case["consensus"]), k=case["k"])
    first = factory.build(
        case["static"],
        periodic=case["periodic"],
        averages=case["averages"],
        time_model=case["time_model"],
    )
    second = factory.build(case["static"], time_model=case["time_model"])
    results = [algorithm.run(first), algorithm.run(second), algorithm.run(first)]
    assert len(constructions) == 1  # one allocation serves every sibling run
    assert all(result.k == min(case["k"], len(factory.items)) for result in results)


def test_restricted_indexes_do_not_share_the_pool():
    """Item-restricted siblings live in a different universe: no pooled buffer."""
    case = random_case(4)
    factory = GrecaIndexFactory(case["members"], case["aprefs"], max_apref=MAX_APREF)
    full = factory.build(case["static"], time_model=case["time_model"])
    subset = sorted(case["items"])[: max(2, len(case["items"]) // 2)]
    restricted = factory.build(
        case["static"], time_model=case["time_model"], items=subset
    )
    assert restricted._buffer_pool is not full._buffer_pool
    algorithm = Greca(make_consensus("AP"), k=2)
    run_full = algorithm.run(full)
    run_restricted = algorithm.run(restricted)
    assert set(run_restricted.items) <= set(subset)
    assert len(run_full.items) == len(run_restricted.items) == 2

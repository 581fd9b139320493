"""Orchestration: plan shards, build payloads, execute, merge.

:func:`evaluate_tasks` is the engine-level entry point of the sharded layer:
it takes fully materialised :class:`~repro.parallel.worker.GroupEvalTask`
values plus the factory of every group involved, partitions the tasks,
ships each shard its payload (tasks + the factories *it* needs) and merges
the records back into task order.  It knows nothing about recommenders,
environments or figures — :class:`repro.experiments.scalability
.ScalabilityEnvironment` builds the tasks and owns the factory cache; the
equivalence tests drive this function directly with synthetic grid cases.

Shipment: when a caller passes a registry or the resolved backend crosses a
process boundary (``ships_payloads``), the factories' large arrays and
every task's affinity columns are exported to the registry's column store
(:mod:`repro.parallel.shm`) and the payloads carry only descriptors.  An
in-process dispatch without a registry hands the objects over as they are.
A registry created here is unlinked in a ``finally`` — after normal
completion, after a worker exception and after an interrupt alike — while a
caller-owned ``registry=`` (the environment's) survives the call so
segments are shared across dispatches.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.parallel.merge import merge_shard_records
from repro.parallel.pool import SerialShardExecutor, ShardExecutor
from repro.parallel.resilience import (
    FaultPlan,
    SupervisedDispatch,
    SupervisionPolicy,
    attach_fault_plan,
    coerce_policy,
    fault_plan_from_env,
    resolve_executor,
)
from repro.parallel.sharding import ShardPlan, plan_shards
from repro.parallel.shm import SharedArrayRegistry
from repro.parallel.storage import STORAGE_SHM, validate_storage_name
from repro.parallel.worker import (
    GroupEvalTask,
    GroupKey,
    GroupRunRecord,
    ShardPayload,
)


def build_payloads(
    plan: ShardPlan,
    tasks: Sequence[GroupEvalTask],
    factories: Mapping[GroupKey, object],
) -> list[ShardPayload]:
    """One payload per shard, shipping only the factories its tasks need."""
    if plan.n_tasks != len(tasks):
        raise ConfigurationError(
            f"shard plan covers {plan.n_tasks} tasks, got {len(tasks)}"
        )
    payloads = []
    for shard_index, indices in enumerate(plan.shards):
        shard_tasks = tuple(tasks[index] for index in indices)
        shard_factories = {task.group: factories[task.group] for task in shard_tasks}
        payloads.append(
            ShardPayload(
                shard_index=shard_index,
                task_indices=indices,
                tasks=shard_tasks,
                factories=shard_factories,
            )
        )
    return payloads


def evaluate_tasks(
    tasks: Sequence[GroupEvalTask],
    factories: Mapping[GroupKey, object],
    n_shards: int | None = None,
    executor: ShardExecutor | str | None = None,
    plan: ShardPlan | None = None,
    registry: SharedArrayRegistry | None = None,
    storage: str | None = None,
    supervision: SupervisionPolicy | bool | None = None,
    fault_plan: FaultPlan | None = None,
    reports: list | None = None,
) -> list[GroupRunRecord]:
    """Evaluate tasks through the sharded pipeline; records come back in task order.

    Parameters
    ----------
    tasks:
        Materialised evaluations, one record produced per task.
    factories:
        ``{group_key: GrecaIndexFactory}`` for every group referenced by a
        task (missing groups raise before anything is dispatched).  Values
        may already be :class:`~repro.parallel.shm.ShmFactoryHandle`\\ s.
    n_shards:
        Number of shards for the default contiguous plan.  When omitted it
        is taken from the executor's worker count (one shard per worker);
        with no executor either, everything runs in one in-process shard —
        still exercising the full payload/merge pipeline, but never spawning
        a process just to execute serially.
    executor:
        ``"serial"``, ``"persistent"``, ``"supervised"`` or a
        :class:`~repro.parallel.pool.ShardExecutor` instance; defaults to a
        fresh persistent pool whenever ``n_shards`` asks for fan-out and to
        the in-process backend otherwise.  Unknown names raise
        :class:`ValueError` at the single validation choice point
        (:func:`repro.parallel.resilience.validate_executor_name`).  A pool
        resolved from a string (or from ``n_shards`` alone) belongs to this
        call and is shut down before returning, so no worker lingers — pass
        (and keep) an instance for actual warmth.
    plan:
        Explicit shard plan overriding ``n_shards`` — any partition of the
        task indices is valid and merges to the same result; the
        shard-plan-invariance tests rely on this hook.
    registry:
        A caller-owned :class:`SharedArrayRegistry` whose segments should
        outlive this call (the environment passes its own so repeated
        dispatches share segments); passing one ships descriptors even to an
        in-process backend.  When omitted and the backend crosses a process
        boundary, an ephemeral registry is created and unlinked on the way
        out, success or failure.
    storage:
        ``"shm"`` (shared-memory segments, the default) or ``"mmap"``
        (memory-mapped spool files) — the backend an ephemeral registry
        packs arrays into, validated at the single storage choice point
        (:func:`repro.parallel.storage.validate_storage_name`).  A
        caller-owned ``registry=`` must already match (mismatching the two
        is a configuration error, not a silent preference).
    supervision:
        A :class:`~repro.parallel.resilience.SupervisionPolicy` (or ``True``
        for the defaults) arms fault-tolerant dispatch: the resolved backend
        is wrapped in a :class:`~repro.parallel.resilience.SupervisedDispatch`
        enforcing per-shard timeouts, bounded retries with deterministic
        backoff, pool rebuilds and serial degradation — all bit-identical to
        an unsupervised run by the architecture invariant.  When the backend
        already *is* a supervisor (``executor="supervised"`` or a held
        instance), a policy here overrides its current one.
    fault_plan:
        A :class:`~repro.parallel.resilience.FaultPlan` attached to every
        payload — the deterministic chaos hook the fault-tolerance suite
        drives.  Defaults to the ``REPRO_FAULT_PLAN`` environment plan, and
        to no faults when that is unset.
    reports:
        A mutable sink; when the backend is supervised, its
        :class:`~repro.parallel.resilience.DispatchReport` is appended —
        even when the dispatch ultimately raises.
    """
    if not tasks:
        return []
    if executor is None and n_shards is None:
        backend: ShardExecutor = SerialShardExecutor()
    else:
        backend = resolve_executor(executor, n_shards)
    owns_backend = backend is not executor
    policy = coerce_policy(supervision)
    if isinstance(backend, SupervisedDispatch):
        if policy is not None:
            backend.policy = policy
    elif policy is not None:
        # owns_backend on the wrapper transfers inner-pool ownership: the
        # finally below shuts the wrapper down, and the wrapper only shuts
        # its inner executor when that inner was resolved here (a caller's
        # warm pool instance stays warm).
        backend = SupervisedDispatch(backend, policy=policy, owns_executor=owns_backend)
        owns_backend = True
    if fault_plan is None:
        fault_plan = fault_plan_from_env()
    if storage is not None:
        validate_storage_name(storage)
        if registry is not None and registry.storage != storage:
            raise ConfigurationError(
                f"storage={storage!r} conflicts with the caller-owned registry's "
                f"storage={registry.storage!r}"
            )
    if plan is None:
        if n_shards is None:
            n_shards = getattr(backend, "n_workers", 1)
        plan = plan_shards(len(tasks), n_shards)
    owns_registry = False
    try:
        if registry is None and backend.ships_payloads:
            registry = SharedArrayRegistry(storage=storage or STORAGE_SHM)
            owns_registry = True
        if registry is not None:
            needed = {task.group for task in tasks}
            factories = {
                key: registry.export(value) if key in needed else value
                for key, value in factories.items()
            }
            # One export per distinct affinity-columns object: a whole period
            # sweep of one group shares a single set of segments.
            tasks = [
                replace(task, affinity_ref=registry.export_affinity(task.affinity_ref))
                for task in tasks
            ]
        payloads = attach_fault_plan(build_payloads(plan, tasks, factories), fault_plan)
        if registry is not None and not owns_registry:
            # Epoch adoption: a long-lived (environment) registry may have
            # retired exports since the pool's workers last ran; the floor
            # stamped here tells them which cached generations are dead
            # (see ShardPayload.min_generation).  An ephemeral registry
            # never retires anything, so its payloads keep the no-op 0.
            floor = registry.generation_floor
            if floor:
                payloads = [replace(p, min_generation=floor) for p in payloads]
        if isinstance(backend, SupervisedDispatch):
            # Arm self-healing: the supervisor may re-export segments of
            # this registry if workers die holding the only live mappings.
            backend.registry = registry
        shard_records = backend.run(payloads)
        return merge_shard_records(plan, shard_records)
    finally:
        if isinstance(backend, SupervisedDispatch) and reports is not None:
            if backend.last_report is not None:
                reports.append(backend.last_report)
        if owns_backend:
            shutdown = getattr(backend, "shutdown", None)
            if shutdown is not None:
                shutdown()
        if owns_registry:
            registry.close()

"""Sharded parallel group-evaluation layer.

The paper's scalability study evaluates many independent groups over one
shared, read-only index substrate — an embarrassingly parallel workload.
This package partitions those evaluations across process workers while
keeping the serial semantics bit-exact:

* :mod:`repro.parallel.sharding` — deterministic shard planning (any
  partition of the task indices is a valid plan);
* :mod:`repro.parallel.worker` — picklable task/record/payload types and the
  worker-side loop (``factory.build`` + ``Greca.run`` per task);
* :mod:`repro.parallel.shm` — zero-copy shared-memory shipment: the factory
  substrate's large arrays live in ``multiprocessing.shared_memory``
  segments owned by a context-managed :class:`SharedArrayRegistry`
  (unlink-on-exit guaranteed), and payloads carry only
  ``(segment, shape, dtype, offset)`` descriptors that workers reattach;
* :mod:`repro.parallel.pool` — the ``serial`` (in-process), ``process``
  (pool-per-call) and ``persistent`` (warm pool reused across dispatches)
  shard executors, plus the single :class:`ValueError` choice point for
  ``executor=`` strings;
* :mod:`repro.parallel.merge` — order-restoring merge of per-shard records;
* :mod:`repro.parallel.evaluation` — the :func:`evaluate_tasks` pipeline
  gluing them together (shm shipment by default whenever payloads cross a
  process boundary);
* :mod:`repro.parallel.resilience` — the ``supervised`` fault-tolerant
  dispatch tier: :class:`SupervisedDispatch` wraps any executor with
  per-shard timeouts, bounded deterministic retries, pool self-healing and
  serial degradation, reports every recovery in a :class:`DispatchReport`,
  and ships a deterministic :class:`FaultPlan` chaos harness for the
  fault-tolerance suite;
* :mod:`repro.parallel.storage` — the storage tier behind the descriptor
  seam: spool-backed memory-mapped file segments (``storage="mmap"``) as
  the out-of-core alternative to ``/dev/shm``, selected per registry and
  spilled to automatically past a configurable shm budget;
* :mod:`repro.parallel.policy` — :class:`ExecutionPolicy`, the one frozen
  bundle of every dispatch knob (``n_workers`` / ``executor`` /
  ``supervision`` / ``storage`` / ``kernel``) that every entry point takes
  as ``policy=``.  The ``kernel`` knob selects the GRECA round-kernel tier
  (:mod:`repro.core.kernels`) each worker runs;
  :func:`repro.core.kernels.validate_kernel_name` is re-exported here
  beside its executor/storage siblings.

Serial execution remains the reference semantics everywhere: the sharded
path must (and, per ``tests/test_parallel_equivalence.py``, does) reproduce
the serial records — access counts, %SA values, top-k items, stopping
reasons — bit-for-bit for every shard count, every partition, every backend
and both shipment modes.
"""

from repro.core.kernels import (
    KERNEL_FUSED,
    KERNEL_REFERENCE,
    kernel_names,
    validate_kernel_name,
)
from repro.parallel.evaluation import build_payloads, evaluate_tasks
from repro.parallel.merge import merge_shard_records
from repro.parallel.pool import (
    EXECUTOR_PERSISTENT,
    EXECUTOR_PROCESS,
    EXECUTOR_SERIAL,
    PersistentShardExecutor,
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
    available_cpus,
    executor_names,
    register_executor,
    resolve_executor,
    validate_executor_name,
)
from repro.parallel.resilience import (
    EXECUTOR_SUPERVISED,
    VALID_FAULT_MODES,
    DispatchReport,
    FaultPlan,
    FaultSpec,
    ShardAttempt,
    SupervisedDispatch,
    SupervisionPolicy,
    fault_plan_from_env,
    summarise_reports,
)
from repro.parallel.policy import ExecutionPolicy, as_policy
from repro.parallel.sharding import ShardPlan, plan_shards
from repro.parallel.shm import (
    SHIPMENT_PICKLE,
    SHIPMENT_SHM,
    VALID_SHIPMENTS,
    SharedArrayRegistry,
    SharedArraySpec,
    ShmAffinityHandle,
    ShmFactoryHandle,
    attach_array,
    materialise_affinity,
    materialise_factory,
    resolve_affinity_columns,
    resolve_factory,
)
from repro.parallel.storage import (
    STORAGE_MMAP,
    STORAGE_SHM,
    VALID_STORAGES,
    MappedFileSegment,
    SpoolDirectory,
    validate_storage_name,
)
from repro.parallel.worker import (
    GroupEvalTask,
    GroupRunRecord,
    ShardPayload,
    group_key,
    record_from_result,
    run_shard,
    run_task,
)

__all__ = [
    "DispatchReport",
    "EXECUTOR_PERSISTENT",
    "EXECUTOR_PROCESS",
    "EXECUTOR_SERIAL",
    "EXECUTOR_SUPERVISED",
    "ExecutionPolicy",
    "FaultPlan",
    "FaultSpec",
    "GroupEvalTask",
    "GroupRunRecord",
    "KERNEL_FUSED",
    "KERNEL_REFERENCE",
    "MappedFileSegment",
    "PersistentShardExecutor",
    "ProcessShardExecutor",
    "SHIPMENT_PICKLE",
    "SHIPMENT_SHM",
    "STORAGE_MMAP",
    "STORAGE_SHM",
    "SerialShardExecutor",
    "ShardAttempt",
    "ShardExecutor",
    "ShardPayload",
    "ShardPlan",
    "SharedArrayRegistry",
    "SharedArraySpec",
    "ShmAffinityHandle",
    "ShmFactoryHandle",
    "SpoolDirectory",
    "SupervisedDispatch",
    "SupervisionPolicy",
    "VALID_EXECUTORS",
    "VALID_FAULT_MODES",
    "VALID_KERNELS",
    "VALID_SHIPMENTS",
    "VALID_STORAGES",
    "as_policy",
    "attach_array",
    "available_cpus",
    "build_payloads",
    "evaluate_tasks",
    "executor_names",
    "fault_plan_from_env",
    "group_key",
    "kernel_names",
    "materialise_affinity",
    "materialise_factory",
    "merge_shard_records",
    "plan_shards",
    "record_from_result",
    "register_executor",
    "resolve_executor",
    "resolve_factory",
    "run_shard",
    "run_task",
    "summarise_reports",
    "validate_executor_name",
    "validate_kernel_name",
    "validate_storage_name",
]


def __getattr__(name: str):
    # ``VALID_EXECUTORS``/``VALID_KERNELS`` are registry-derived; resolving
    # them lazily means they always reflect every registered backend,
    # including ones registered after this package was imported.
    if name == "VALID_EXECUTORS":
        return executor_names()
    if name == "VALID_KERNELS":
        return kernel_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

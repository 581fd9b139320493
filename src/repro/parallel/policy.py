"""One frozen :class:`ExecutionPolicy`: how a dispatch runs.

Every entry point that evaluates groups —
``ScalabilityEnvironment.evaluate`` / ``run_records`` / ``run_sweep`` /
``average_percent_sa``, :func:`~repro.experiments.scalability.run_quick_smoke`,
:func:`~repro.experiments.scalability.run_paper_scale`, the figure 4–8
drivers, the runner and ``ServiceConfig`` — takes its dispatch shape as a
single ``policy=`` argument.  ``None`` means ``ExecutionPolicy()``: the
serial reference path.  Every field is validated on construction through
the same registries the rest of the system uses
(``pool.validate_executor_name``, ``storage.validate_storage_name``,
``kernels.validate_kernel_name``).  Every policy is bit-identical to the
serial reference, so a policy only changes where and how fast work runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kernels import validate_kernel_name
from repro.exceptions import ConfigurationError
from repro.parallel.pool import ShardExecutor, validate_executor_name
from repro.parallel.resilience import SupervisionPolicy
from repro.parallel.storage import STORAGE_SHM, validate_storage_name


@dataclass(frozen=True)
class ExecutionPolicy:
    """How one dispatch runs: workers, backend, supervision, storage, kernel.

    ``None`` fields keep their defaults downstream: no workers and no
    executor mean the serial reference path, ``storage=None`` means shared
    memory, ``supervision=None`` means whatever the executor itself
    provides, and ``kernel=None`` means the reference round kernel (every
    registered kernel is bit-identical, so this is a pure performance knob).
    Payload shipment follows the backend: descriptors whenever payloads
    cross a process boundary.
    """

    n_workers: int | None = None
    executor: str | ShardExecutor | None = None
    supervision: SupervisionPolicy | bool | None = None
    storage: str | None = None
    kernel: str | None = None

    def __post_init__(self) -> None:
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be a positive worker count, got {self.n_workers!r}"
            )
        if isinstance(self.executor, str):
            validate_executor_name(self.executor)
        elif self.executor is not None and not isinstance(self.executor, ShardExecutor):
            raise ConfigurationError(
                "executor must be a backend name or a ShardExecutor instance, "
                f"got {type(self.executor).__name__}"
            )
        if self.storage is not None:
            validate_storage_name(self.storage)
        if self.kernel is not None:
            validate_kernel_name(self.kernel)
        if self.supervision is not None and not isinstance(
            self.supervision, (SupervisionPolicy, bool)
        ):
            raise ConfigurationError(
                "supervision must be a SupervisionPolicy, a bool, or None, "
                f"got {type(self.supervision).__name__}"
            )

    @property
    def is_serial(self) -> bool:
        """Whether this policy selects the serial reference path."""
        return self.n_workers is None and self.executor is None

    @property
    def storage_name(self) -> str:
        """The effective storage backend (default: shared memory)."""
        return self.storage or STORAGE_SHM


def as_policy(policy: ExecutionPolicy | None) -> ExecutionPolicy:
    """The ``policy=`` boundary check: ``None`` is the serial default."""
    if policy is None:
        return ExecutionPolicy()
    if not isinstance(policy, ExecutionPolicy):
        raise ConfigurationError(
            f"policy must be an ExecutionPolicy, got {type(policy).__name__}"
        )
    return policy

"""Shard executors: where (and how) shard payloads actually run.

Two concrete executors share one tiny interface — a list of
:class:`~repro.parallel.worker.ShardPayload` values in, one record tuple per
shard out, *in shard order*:

* :class:`SerialShardExecutor` runs every shard in-process.  It exercises the
  full shard/merge machinery without any pickling or process management,
  which makes it the deterministic harness the shard-plan-invariance tests
  drive (and a useful debugging backend: drop-in, single-threaded,
  breakpoint-friendly).
* :class:`PersistentShardExecutor` (``executor="persistent"``) keeps one
  warm ``ProcessPoolExecutor`` alive across calls.  Payloads are pickled to
  the workers with the large factory and affinity arrays travelling as
  shared-memory descriptors (see :mod:`repro.parallel.shm`); records are
  pickled back.  Results are collected in submission order, so shard order
  — and therefore the merged task order — never depends on worker
  scheduling.  A
  :class:`~repro.experiments.scalability.ScalabilityEnvironment` holds one
  instance per worker count, so the figure 4–8 drivers pay worker spawn —
  and, combined with the worker-side factory cache, the substrate shipment
  — once per environment instead of once per driver.  ``shutdown()`` (or
  the context manager, or ``ScalabilityEnvironment.close``) releases the
  workers; a pool broken by a dead worker is discarded so the next call
  starts a fresh one.

The ``executor=`` spellings — ``"serial"``, ``"persistent"`` and the
fault-tolerant ``"supervised"`` wrapper — are validated and resolved in one
place, :func:`repro.parallel.resilience.resolve_executor`, beside the
supervisor they may wrap.

The context-managed shared-memory registry that guarantees segment unlink on
exit/failure lives in :mod:`repro.parallel.shm` and is re-exported here as
:class:`SharedArrayRegistry` — the executors and the registry are the two
halves of the persistent zero-copy setup.
"""

from __future__ import annotations

import abc
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.parallel.shm import SharedArrayRegistry  # noqa: F401  (re-export)
from repro.parallel.worker import GroupRunRecord, ShardPayload, run_shard


def available_cpus() -> int:
    """The number of CPUs this process may actually use.

    Affinity-mask aware where the platform exposes it (containers and CI
    runners often grant fewer cores than ``os.cpu_count`` reports), falling
    back to the raw count.  Every speedup record in ``BENCH_engine.json``
    stores this single source of truth, so the paper-scale and shipment
    benches can never disagree about the host they measured on.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ShardExecutor(abc.ABC):
    """Runs shard payloads and returns their records in shard order."""

    #: Whether payloads cross a process boundary.  ``evaluate_tasks`` ships
    #: descriptors whenever this is ``True`` (or a registry is passed).
    ships_payloads = False

    @abc.abstractmethod
    def run(self, payloads: Sequence[ShardPayload]) -> list[tuple[GroupRunRecord, ...]]:
        """Evaluate every payload; element ``s`` holds shard ``s``'s records."""


class SerialShardExecutor(ShardExecutor):
    """In-process executor: the sharded pipeline without processes."""

    def run(self, payloads: Sequence[ShardPayload]) -> list[tuple[GroupRunRecord, ...]]:
        return [run_shard(payload) for payload in payloads]


class PersistentShardExecutor(ShardExecutor):
    """A warm process pool reused across dispatches (``executor="persistent"``).

    The pool is created lazily on the first :meth:`run` and survives until
    :meth:`shutdown` (or context exit), so successive figure-driver calls
    inside one environment pay worker spawn once.  Combined with shm
    shipment and the worker-side factory cache this is what amortises the
    whole substrate shipment to once per environment.  A pool broken by a
    dead worker is discarded, so the next dispatch transparently starts a
    fresh one.

    Pool lifecycle is thread-safe: concurrent dispatches (the serving layer
    routes many client requests onto one memoised pool) may race a dead
    pool's teardown against its rebuild, and an unserialized
    check-then-create in :meth:`ensure_pool` would build two pools — the
    loser overwritten and orphaned together with its worker processes and
    ``/dev/shm`` attachments.  A single lock covers every ``_pool``
    transition (create, kill, shutdown), so exactly one thread rebuilds and
    every other thread reuses its pool.
    """

    ships_payloads = True

    def __init__(self, n_workers: int) -> None:
        if n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        self.n_workers = n_workers
        self._pool: ProcessPoolExecutor | None = None
        self._lifecycle = threading.Lock()

    @property
    def warm(self) -> bool:
        """``True`` while a worker pool is alive and reusable."""
        return self._pool is not None

    def ensure_pool(self) -> ProcessPoolExecutor:
        """The live worker pool, created lazily (at most once across threads).

        Public because the dispatch supervisor
        (:class:`repro.parallel.resilience.SupervisedDispatch`) submits
        shard futures individually to enforce per-shard timeouts.
        """
        with self._lifecycle:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
            return self._pool

    def run(self, payloads: Sequence[ShardPayload]) -> list[tuple[GroupRunRecord, ...]]:
        if not payloads:
            return []
        pool = self.ensure_pool()
        try:
            futures = [pool.submit(run_shard, payload) for payload in payloads]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            # A dead worker poisons the whole pool.  Discard it with the
            # non-blocking teardown — ``shutdown(wait=True)`` can hang
            # forever when the break coexists with a *wedged* (stalled, not
            # dead) worker — so the executor is always left in a consistent,
            # lazily-recreatable state: the next run() starts a fresh pool
            # without any manual shutdown() in between.
            self.kill()
            raise

    def kill(self) -> None:
        """Forcibly discard the pool without ever blocking on its workers.

        Terminates worker processes outright (a worker wedged in an
        injected stall — or a real infinite loop — never finishes its task,
        so a graceful ``shutdown(wait=True)`` would deadlock), then detaches
        from the executor with ``wait=False``.  Used by the broken-pool
        handler above and by the dispatch supervisor's self-healing rebuild;
        the next :meth:`run` lazily creates a fresh pool.
        """
        with self._lifecycle:
            pool = self._pool
            self._pool = None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # already dead / already reaped
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pool already broken beyond shutdown
            pass

    def shutdown(self) -> None:
        """Release the worker processes; the next :meth:`run` starts fresh."""
        with self._lifecycle:
            pool = self._pool
            self._pool = None
        if pool is not None:
            # The blocking wait happens outside the lock so a concurrent
            # ensure_pool() is never stalled behind worker teardown.
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "PersistentShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

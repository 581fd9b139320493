"""Lifecycle of the shared-memory shipment segments (:mod:`repro.parallel.shm`).

The zero-copy path places the factory substrate in ``/dev/shm``-backed
segments, so the one unforgivable failure mode is a *leak*: a segment that
outlives its registry.  These tests pin the unlink guarantee in every exit
mode the issue names — normal completion, a worker exception, and a
``KeyboardInterrupt``-style pool shutdown — always asserting the strongest
observable fact: ``SharedMemory(name=...)`` raises ``FileNotFoundError``
once the registry is done with a segment.
"""

from __future__ import annotations

import gc
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.consensus import make_consensus
from repro.core.greca import GrecaIndexFactory
from repro.exceptions import AlgorithmError
from repro.parallel import (
    ExecutionPolicy,
    GroupEvalTask,
    PersistentShardExecutor,
    SharedArrayRegistry,
    build_payloads,
    evaluate_tasks,
    group_key,
    plan_shards,
    run_shard,
)

PERSISTENT_POLICY = ExecutionPolicy(n_workers=2, executor="persistent")


def assert_unlinked(names):
    """Every named segment must be gone from the system namespace."""
    assert names, "expected at least one shared segment to have been created"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


@pytest.fixture()
def tiny_workload():
    """One factory + two tasks, small enough for process-pool lifecycle tests."""
    rng = np.random.default_rng(7)
    members = [1, 2, 3]
    items = list(range(101, 141))
    aprefs = {
        member: {item: round(float(rng.uniform(0.0, 5.0)), 3) for item in items}
        for member in members
    }
    factory = GrecaIndexFactory(members=members, aprefs=aprefs)
    key = group_key(members)
    static = {(1, 2): 0.4, (1, 3): 0.1, (2, 3): 0.8}

    def task(k: int) -> GroupEvalTask:
        return GroupEvalTask(
            group=key,
            k=k,
            consensus=make_consensus("AP"),
            static=static,
            periodic={},
            averages={},
            time_model="discrete",
        )

    return {key: factory}, [task(3), task(5)]


# -- registry-level guarantees ------------------------------------------------------------------


def test_registry_unlinks_on_normal_context_exit(tiny_workload):
    factories, _ = tiny_workload
    with SharedArrayRegistry() as registry:
        handle = registry.export(next(iter(factories.values())))
        names = registry.segment_names
        # While open, the segments are attachable (and carry the real bytes).
        probe = shared_memory.SharedMemory(name=handle.matrix.segment)
        probe.close()
    assert registry.closed
    assert_unlinked(names)


def test_registry_unlinks_when_the_body_raises(tiny_workload):
    factories, _ = tiny_workload
    with pytest.raises(RuntimeError):
        with SharedArrayRegistry() as registry:
            registry.export(next(iter(factories.values())))
            names = registry.segment_names
            raise RuntimeError("boom")
    assert_unlinked(names)


def test_registry_finalizer_is_a_gc_backstop(tiny_workload):
    """An abandoned registry (no close, no with) still unlinks at collection."""
    factories, _ = tiny_workload
    registry = SharedArrayRegistry()
    registry.export(next(iter(factories.values())))
    names = registry.segment_names
    del registry
    gc.collect()
    assert_unlinked(names)


def test_registry_refuses_exports_after_close(tiny_workload):
    factories, _ = tiny_workload
    registry = SharedArrayRegistry()
    registry.close()
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        registry.export(next(iter(factories.values())))


# -- evaluate_tasks: the ephemeral registry ------------------------------------------------------


@pytest.fixture()
def recording_registries(monkeypatch):
    """Capture every registry evaluate_tasks creates for itself."""
    import repro.parallel.evaluation as evaluation

    created: list[SharedArrayRegistry] = []

    class RecordingRegistry(SharedArrayRegistry):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(evaluation, "SharedArrayRegistry", RecordingRegistry)
    return created


def test_ephemeral_registry_unlinked_after_normal_completion(
    tiny_workload, recording_registries
):
    factories, tasks = tiny_workload
    records = evaluate_tasks(tasks, factories, n_shards=2, executor="process")
    assert len(records) == len(tasks)
    (registry,) = recording_registries
    assert registry.closed
    assert_unlinked(registry.segment_names)


def test_ephemeral_registry_unlinked_after_worker_exception(
    tiny_workload, recording_registries
):
    """A task that raises inside the worker must not leak segments."""
    factories, tasks = tiny_workload
    poisoned = tasks + [
        GroupEvalTask(
            group=tasks[0].group,
            k=0,  # Greca rejects k <= 0 — worker-side, after shipment
            consensus=tasks[0].consensus,
            static=tasks[0].static,
            periodic={},
            averages={},
            time_model="discrete",
        )
    ]
    with pytest.raises(AlgorithmError):
        evaluate_tasks(poisoned, factories, n_shards=2, executor="process")
    (registry,) = recording_registries
    assert registry.closed
    assert_unlinked(registry.segment_names)


def test_string_persistent_backend_is_shut_down_and_unlinked(
    tiny_workload, recording_registries
):
    """executor='persistent' resolved from a string must not leak workers/segments."""
    factories, tasks = tiny_workload
    records = evaluate_tasks(tasks, factories, n_shards=2, executor="persistent")
    assert len(records) == len(tasks)
    (registry,) = recording_registries
    assert registry.closed
    assert_unlinked(registry.segment_names)


def test_ephemeral_registry_unlinked_after_worker_crash(
    tiny_workload, recording_registries
):
    """A worker killed by ``os._exit`` mid-shard must not leak segments.

    The fault fires at task position 1, *after* the worker has materialised
    the shipped factory — so the process dies holding live views on the
    segments.  Unlink is owned by the parent-side registry, not by worker
    exit handlers (``os._exit`` runs none), so the ephemeral registry still
    closes and every segment is gone.
    """
    from concurrent.futures.process import BrokenProcessPool

    from repro.parallel import FaultPlan, FaultSpec

    factories, tasks = tiny_workload
    crash = FaultPlan((FaultSpec(shard=0, position=1, mode="crash", fires=1),))
    with pytest.raises(BrokenProcessPool):
        evaluate_tasks(
            tasks, factories, n_shards=1, executor="process", fault_plan=crash
        )
    (registry,) = recording_registries
    assert registry.closed
    assert_unlinked(registry.segment_names)


# -- KeyboardInterrupt-style shutdown ------------------------------------------------------------


def test_interrupted_run_unlinks_segments_and_stops_the_pool(tiny_workload):
    """A KeyboardInterrupt mid-flight tears everything down, leak-free.

    The pool and registry are context-managed exactly the way the
    environment's ``close()`` path releases them; the interrupt propagates,
    the workers are shut down, and every ``/dev/shm`` entry is gone.
    """
    factories, tasks = tiny_workload
    pool = PersistentShardExecutor(n_workers=2)
    registry = SharedArrayRegistry()
    with pytest.raises(KeyboardInterrupt):
        with pool, registry:
            records = evaluate_tasks(tasks, factories, executor=pool, registry=registry)
            assert len(records) == len(tasks)
            names = registry.segment_names
            assert pool.warm
            raise KeyboardInterrupt  # the moment ^C lands between dispatches
    assert not pool.warm
    assert registry.closed
    assert_unlinked(names)


def test_unlink_keeps_live_worker_mappings_valid(tiny_workload):
    """POSIX semantics: in-process views survive the unlink; new attaches fail.

    This is what lets the registry unlink eagerly even while a persistent
    pool still holds materialised factories mapped from the segments.
    """
    factories, tasks = tiny_workload
    registry = SharedArrayRegistry()
    handle = registry.export(next(iter(factories.values())))
    payload = build_payloads(plan_shards(len(tasks), 1), tasks, {tasks[0].group: handle})[0]
    before = run_shard(payload)  # materialises the factory in-process
    registry.close()
    assert_unlinked(registry.segment_names)
    # The shipped handle can no longer be materialised by a *new* process,
    # but the records computed from still-mapped views were already correct.
    reference = evaluate_tasks(tasks, factories)
    assert list(before) == reference


# -- affinity-column segments --------------------------------------------------------------------


@pytest.fixture()
def columnar_workload(tiny_workload):
    """The tiny workload with its tasks swapped to the columnar affinity shape."""
    from dataclasses import replace

    from repro.core.affinity import AffinityColumns

    factories, tasks = tiny_workload
    columns = AffinityColumns.from_components(tasks[0].static, {}, {})
    columnar = [
        replace(task, static={}, periodic={}, averages={}, affinity_ref=columns, n_periods=0)
        for task in tasks
    ]
    return factories, columnar, columns


def test_affinity_segments_unlink_on_context_exit(columnar_workload):
    _, _, columns = columnar_workload
    with SharedArrayRegistry() as registry:
        handle = registry.export_affinity(columns)
        names = registry.segment_names
        assert handle.segment_names() <= set(names)
        # Memoised per columns object: the same export, the same segment.
        assert registry.export_affinity(columns) is handle
        probe = shared_memory.SharedMemory(name=handle.static.segment)
        probe.close()
    assert_unlinked(names)


def test_affinity_segments_unlink_when_the_body_raises(columnar_workload):
    _, _, columns = columnar_workload
    with pytest.raises(RuntimeError):
        with SharedArrayRegistry() as registry:
            registry.export_affinity(columns)
            names = registry.segment_names
            raise RuntimeError("boom")
    assert_unlinked(names)


def test_affinity_export_refused_after_close(columnar_workload):
    from repro.exceptions import ConfigurationError

    _, _, columns = columnar_workload
    registry = SharedArrayRegistry()
    registry.close()
    with pytest.raises(ConfigurationError):
        registry.export_affinity(columns)


def test_ephemeral_registry_with_columnar_tasks_unlinked(
    columnar_workload, recording_registries
):
    """The shm-affinity default path leaks nothing after a process dispatch."""
    factories, tasks, _ = columnar_workload
    records = evaluate_tasks(tasks, factories, n_shards=2, executor="process")
    assert len(records) == len(tasks)
    (registry,) = recording_registries
    assert registry.closed
    assert_unlinked(registry.segment_names)


def test_ephemeral_registry_with_columnar_tasks_unlinked_after_worker_exception(
    columnar_workload, recording_registries
):
    from dataclasses import replace

    from repro.exceptions import AlgorithmError

    factories, tasks, _ = columnar_workload
    poisoned = tasks + [replace(tasks[0], k=0)]  # Greca rejects k <= 0 worker-side
    with pytest.raises(AlgorithmError):
        evaluate_tasks(poisoned, factories, n_shards=2, executor="process")
    (registry,) = recording_registries
    assert registry.closed
    assert_unlinked(registry.segment_names)


def test_unlink_purges_local_affinity_and_index_caches(columnar_workload):
    """In-process attachments of affinity segments are forgotten on unlink."""
    from repro.parallel import shm

    factories, tasks, _ = columnar_workload
    registry = SharedArrayRegistry()
    records = evaluate_tasks(
        tasks, factories, n_shards=1, executor="serial", shipment="shm", registry=registry
    )
    assert len(records) == len(tasks)
    names = set(registry.segment_names)
    assert any(handle.segment_names() & names for handle in shm._AFFINITY_CACHE)
    assert any(
        (key[0].segment_names() | key[1].segment_names()) & names
        for key in shm._INDEX_CACHE
    )
    registry.close()
    assert all(not (handle.segment_names() & names) for handle in shm._AFFINITY_CACHE)
    assert all(
        not ((key[0].segment_names() | key[1].segment_names()) & names)
        for key in shm._INDEX_CACHE
    )
    assert_unlinked(registry.segment_names)


# -- worker-side memo bounds ---------------------------------------------------------------------


def _fresh_factory(seed: int):
    """A small distinct factory (different aprefs per seed)."""
    rng = np.random.default_rng(seed)
    members = [1, 2, 3]
    items = list(range(201, 221))
    aprefs = {
        member: {item: round(float(rng.uniform(0.0, 5.0)), 3) for item in items}
        for member in members
    }
    return GrecaIndexFactory(members=members, aprefs=aprefs)


def test_factory_memo_is_lru_bounded(monkeypatch):
    """A warm worker's factory memo evicts past the cap instead of growing forever."""
    from repro.parallel import shm

    monkeypatch.setattr(shm, "FACTORY_CACHE_MAX", 2)
    with SharedArrayRegistry() as registry:
        handles = [registry.export(_fresh_factory(seed)) for seed in (1, 2, 3)]
        first = shm.materialise_factory(handles[0])
        for handle in handles:
            shm.materialise_factory(handle)
        assert len([h for h in handles if h in shm._FACTORY_CACHE]) <= 2
        assert handles[0] not in shm._FACTORY_CACHE  # least recently used went first
        # An evicted factory re-materialises transparently (fresh attach).
        again = shm.materialise_factory(handles[0])
        assert again is not first
        assert again.members == first.members and again.items == first.items


def test_factory_memo_lru_order_respects_hits(monkeypatch):
    from repro.parallel import shm

    monkeypatch.setattr(shm, "FACTORY_CACHE_MAX", 2)
    with SharedArrayRegistry() as registry:
        handles = [registry.export(_fresh_factory(seed)) for seed in (11, 12, 13)]
        shm.materialise_factory(handles[0])
        shm.materialise_factory(handles[1])
        shm.materialise_factory(handles[0])  # refresh 0 → 1 becomes the LRU entry
        shm.materialise_factory(handles[2])
        assert handles[0] in shm._FACTORY_CACHE
        assert handles[1] not in shm._FACTORY_CACHE
        assert handles[2] in shm._FACTORY_CACHE


def test_index_memo_is_lru_bounded(monkeypatch, columnar_workload):
    """The per-process index memo for handle-addressed tasks stays bounded."""
    from dataclasses import replace

    from repro.parallel import shm

    monkeypatch.setattr(shm, "INDEX_CACHE_MAX", 1)
    factories, tasks, _ = columnar_workload
    # Two distinct item restrictions → two distinct index memo keys.
    variants = [
        replace(tasks[0], items=tuple(range(101, 121))),
        replace(tasks[1], items=tuple(range(101, 131))),
    ]
    with SharedArrayRegistry() as registry:
        records = evaluate_tasks(
            variants, factories, n_shards=1, executor="serial", shipment="shm", registry=registry
        )
        assert len(records) == 2
        assert len(shm._INDEX_CACHE) <= 1


# -- service shutdown ----------------------------------------------------------------------------


def test_service_sigterm_drains_and_unlinks_segments():
    """SIGTERM against a live service drains in-flight work and empties /dev/shm.

    The CLI's serve mode answers a warmup query (so segments exist), prints
    the segment names and READY, then blocks on the signal.  The graceful
    path must exit 0 with every printed segment unlinked — the service-kill
    contract of the serving layer's shutdown handler.
    """
    import os
    import signal
    import subprocess
    import sys

    from multiprocessing import resource_tracker

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--smoke", "--serve-seconds", "120"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=root,
    )
    segments: list[str] = []
    tail = ""
    try:
        for line in proc.stdout:
            if line.startswith("SEGMENTS"):
                segments = line.split()[1:]
            if line.startswith("READY"):
                break
        assert segments, "service printed no shm segments before READY"
        for name in segments:  # live while the service is serving
            probe = shared_memory.SharedMemory(name=name)
            try:  # a probe attach is not ownership — undo its registration
                resource_tracker.unregister(
                    getattr(probe, "_name", probe.name), "shared_memory"
                )
            except Exception:
                pass
            probe.close()
        proc.send_signal(signal.SIGTERM)
        tail, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, tail
    assert "CLEAN" in tail, tail
    assert_unlinked(segments)


# -- generation tokens: recycled names must never alias stale caches ----------------------------


def test_recycled_segment_name_does_not_alias_stale_affinity_cache():
    """A same-shape re-export under a recycled name must not serve stale bytes.

    Simulates a warm persistent worker: its handle-keyed caches and attached
    mappings survive the parent registry's unlink (the parent-side purge
    runs in the parent process only).  When the OS recycles the segment name
    for a later export of the identical layout — guaranteed once epochs
    re-export refreshed substrates over the same shapes — a handle equal in
    names + shapes would alias the dead segment's content.  The export
    generation token is what keeps the handles distinct.
    """
    from dataclasses import replace

    from repro.core.affinity import AffinityColumns
    from repro.parallel import shm

    old_columns = AffinityColumns.from_components(
        {(1, 2): 0.4, (1, 3): 0.1, (2, 3): 0.8}, {}, {}
    )
    new_columns = AffinityColumns.from_components(
        {(1, 2): 0.9, (1, 3): 0.5, (2, 3): 0.2}, {}, {}
    )

    registry = SharedArrayRegistry()
    old_handle = registry.export_affinity(old_columns)
    materialised = shm.materialise_affinity(old_handle)
    name = old_handle.static.segment
    stale_mapping = shm._ATTACHED[name]
    registry.close()
    # Warm-worker simulation: the worker never observed the parent's purge.
    shm._cache_put(shm._AFFINITY_CACHE, old_handle, materialised, shm.AFFINITY_CACHE_MAX)
    shm._ATTACHED[name] = stale_mapping

    # The new epoch's export lands on the recycled name with the same layout.
    second = SharedArrayRegistry()
    try:
        fresh_handle = second.export_affinity(new_columns)
        recycled = shared_memory.SharedMemory(name=name, create=True, size=1024)
        # Mark the hand-made segment as owned so the attach path does not
        # strip its tracker registration (we unlink it ourselves below).
        shm._OWNED_NAMES.add(name)
        try:
            view = np.frombuffer(
                recycled.buf,
                dtype=np.float64,
                count=3,
                offset=fresh_handle.static.offset,
            )
            view[:] = new_columns.static
            del view
            shipped = shm.rewrite_affinity_handle(
                fresh_handle, {fresh_handle.static.segment: name}
            )
            served = shm.materialise_affinity(shipped)
            assert served.static.tolist() == new_columns.static.tolist()
        finally:
            recycled.unlink()
            try:
                recycled.close()
            except BufferError:
                shm._ZOMBIES.append(recycled)
    finally:
        second.close()
        shm._forget_segments([name])


def test_reexport_under_recycled_names_invalidates_stale_index_entries(monkeypatch):
    """After a heal re-export, run_shard must not serve a pre-heal index.

    The supervisor's self-healing path re-exports vanished segments and
    rewrites pending payload handles — but a warm worker may still hold
    ``_INDEX_CACHE`` entries (and attached mappings) from segments whose
    names the re-export now reuses.  Pre-fix, the rewritten handles compare
    equal to the stale ones (same names, same shapes), so the worker serves
    an index built from the *old* substrate.  The purge path must invalidate
    index entries derived from a re-exported factory too.
    """
    from dataclasses import replace

    from repro.core.affinity import AffinityColumns
    from repro.parallel import run_task
    from repro.parallel import shm

    def build_factory(seed):
        rng = np.random.default_rng(seed)
        members = [1, 2, 3]
        items = list(range(101, 141))
        aprefs = {
            member: {item: round(float(rng.uniform(0.0, 5.0)), 3) for item in items}
            for member in members
        }
        return GrecaIndexFactory(members=members, aprefs=aprefs, max_apref=5.0)

    static = {(1, 2): 0.4, (1, 3): 0.1, (2, 3): 0.8}
    key = group_key([1, 2, 3])

    def payload_for(registry, factory, columns):
        handle = registry.export(factory)
        affinity = registry.export_affinity(columns)
        task = GroupEvalTask(
            group=key,
            k=3,
            consensus=make_consensus("AP"),
            static={},
            periodic={},
            averages={},
            time_model="discrete",
            affinity_ref=affinity,
            n_periods=0,
        )
        return build_payloads(plan_shards(1, 1), [task], {key: handle})[0]

    old_factory = build_factory(3)
    new_factory = build_factory(4)

    # Serial reference for the NEW substrate, computed before any cache
    # pollution (dict-based task: the columnar path must match it exactly).
    reference = run_task(
        GroupEvalTask(
            group=key,
            k=3,
            consensus=make_consensus("AP"),
            static=static,
            periodic={},
            averages={},
            time_model="discrete",
        ),
        new_factory,
    )

    first = SharedArrayRegistry()
    payload_old = payload_for(
        first, old_factory, AffinityColumns.from_components(static, {}, {})
    )
    (old_record,) = run_shard(payload_old)
    assert old_record != reference  # the two substrates must disagree
    old_names = list(first.segment_names)
    stale_entries = dict(shm._INDEX_CACHE)
    stale_mappings = {n: shm._ATTACHED[n] for n in old_names if n in shm._ATTACHED}
    assert stale_entries and stale_mappings
    first.close()
    # Warm-worker simulation: the worker never observed the parent's purge.
    for cache_key, index in stale_entries.items():
        shm._cache_put(shm._INDEX_CACHE, cache_key, index, shm.INDEX_CACHE_MAX)
    shm._ATTACHED.update(stale_mappings)

    second = SharedArrayRegistry()
    try:
        payload_new = payload_for(
            second, new_factory, AffinityColumns.from_components(static, {}, {})
        )
        # The new exports vanish (foreign unlink / dead-worker tracker)...
        for name in list(second.segment_names):
            victim = shared_memory.SharedMemory(name=name)
            victim.unlink()
            try:
                victim.close()
            except BufferError:
                shm._ZOMBIES.append(victim)
        # ...and the heal's re-export lands on the OLD, recycled names.
        real_shared_memory = shared_memory.SharedMemory
        pending_names = list(old_names)

        def recycling(name=None, create=False, size=0):
            if create and name is None and pending_names:
                return real_shared_memory(
                    name=pending_names.pop(0), create=True, size=size
                )
            if name is None:
                return real_shared_memory(create=create, size=size)
            return real_shared_memory(name=name, create=create, size=size)

        monkeypatch.setattr(shm.shared_memory, "SharedMemory", recycling)
        mapping = second.reexport_missing()
        monkeypatch.undo()
        assert set(mapping.values()) == set(old_names)

        healed = replace(
            payload_new,
            factories={
                key: shm.rewrite_factory_handle(payload_new.factories[key], mapping)
            },
            tasks=tuple(
                replace(
                    task,
                    affinity_ref=shm.rewrite_affinity_handle(task.affinity_ref, mapping),
                )
                for task in payload_new.tasks
            ),
        )
        (served,) = run_shard(healed)
        assert served == reference
    finally:
        second.close()
        shm._forget_segments(old_names)


def test_purge_stale_drops_retired_generation_caches(columnar_workload):
    """retire_stale + purge_stale: retired-epoch caches die, live ones survive."""
    from dataclasses import replace

    from repro.parallel import shm

    factories, tasks, columns = columnar_workload
    with SharedArrayRegistry() as registry:
        records = evaluate_tasks(
            tasks, factories, n_shards=1, executor="serial", shipment="shm", registry=registry
        )
        assert len(records) == len(tasks)
        floor = registry.generation_floor
        assert floor > 0
        # Nothing is below the live floor yet.
        assert shm.purge_stale(floor) == 0
        old_factory_handle = registry.export(next(iter(factories.values())))

        # New epoch: a refreshed factory object replaces the old one.
        new_factory = _fresh_factory(99)
        new_handle = registry.export(new_factory)
        assert new_handle.generation > old_factory_handle.generation
        stale_factories = dict(shm._FACTORY_CACHE)
        stale_affinities = dict(shm._AFFINITY_CACHE)
        stale_indexes = dict(shm._INDEX_CACHE)
        retired = registry.retire_stale(live_factories=[new_factory], live_columns=[])
        assert retired
        assert_unlinked(retired)
        # Warm-worker simulation: a pool worker never observes the parent's
        # retire-time purge; restore its view of the caches.
        for handle, factory in stale_factories.items():
            shm._cache_put(shm._FACTORY_CACHE, handle, factory, shm.FACTORY_CACHE_MAX)
        for handle, cols in stale_affinities.items():
            shm._cache_put(shm._AFFINITY_CACHE, handle, cols, shm.AFFINITY_CACHE_MAX)
        for cache_key, index in stale_indexes.items():
            shm._cache_put(shm._INDEX_CACHE, cache_key, index, shm.INDEX_CACHE_MAX)
        new_floor = registry.generation_floor
        assert new_floor == new_handle.generation
        # The worker-side purge at the new floor drops every retired entry.
        shm.materialise_factory(new_handle)
        purged = shm.purge_stale(new_floor)
        assert purged > 0
        assert all(h.generation >= new_floor for h in shm._FACTORY_CACHE)
        assert all(h.generation >= new_floor for h in shm._AFFINITY_CACHE)
        assert all(
            k[0].generation >= new_floor and k[1].generation >= new_floor
            for k in shm._INDEX_CACHE
        )
        assert shm.purge_stale(new_floor) == 0  # idempotent


def test_retired_epoch_segments_unlink_after_in_flight_reader_drains():
    """apply_delta unlinks retired-epoch segments; in-flight mappings survive.

    POSIX unlink removes the *name*, not the bytes: a reader that attached a
    segment before the epoch swap (a query in flight) keeps a valid mapping
    until it closes, and only new attaches fail.  This pins both halves of
    the drain contract — every name in ``DeltaReport.retired_segments`` is
    unattachable immediately after the swap, while attachments opened before
    it still read the retired epoch's exact bytes; once the last reader
    closes, the kernel reclaims the memory.  The next dispatch then serves
    the new epoch from fresh segments through the *same* registry, and
    closing the environment leaves ``/dev/shm`` empty.
    """
    from repro.experiments.scalability import ScalabilityConfig, ScalabilityEnvironment
    from repro.updates import random_deltas

    config = ScalabilityConfig(
        n_users=40,
        n_items=150,
        n_ratings=1_600,
        n_participants=12,
        n_groups=3,
        seed=5,
    )
    env = ScalabilityEnvironment(config)
    try:
        groups = env.random_groups()
        env.run_records(groups, policy=PERSISTENT_POLICY)  # epoch-0 exports
        registry = env._shared_registry()
        names_before = registry.segment_names
        assert names_before
        # Queries in flight: attach every epoch-0 segment before the swap.
        inflight = {}
        for name in names_before:
            handle = shared_memory.SharedMemory(name=name)
            inflight[name] = (handle, bytes(handle.buf[: min(64, handle.size)]))

        delta = random_deltas(env.ratings, env.social, env.timeline, n_deltas=1, seed=11)[0]
        report = env.apply_delta(delta)
        # The affinity columns (at least) were invalidated, so the old
        # epoch's exports are dead weight — retired and unlinked at once.
        assert report.retired_segments
        assert_unlinked(report.retired_segments)
        for name in report.retired_segments:
            handle, snapshot = inflight[name]
            # The in-flight mapping still serves the retired epoch's bytes...
            assert bytes(handle.buf[: len(snapshot)]) == snapshot
        for handle, _ in inflight.values():
            handle.close()  # ...and the last reader draining frees the memory

        post_serial = env.run_records(groups)
        post = env.run_records(groups, policy=PERSISTENT_POLICY)
        assert post == post_serial
        # Same registry object adopted the new epoch; no retired name reused.
        assert env._shared_registry() is registry and not registry.closed
        names_after = registry.segment_names
        assert set(names_after).isdisjoint(report.retired_segments)
    finally:
        env.close()
    assert_unlinked(names_after)


# -- spool-file lifecycle: the mmap backend mirrors every unlink guarantee ----------------------


def assert_spool_deleted(names):
    """Every named spool file must be gone from the filesystem."""
    assert names, "expected at least one spool file to have been created"
    assert all(os.path.isabs(name) for name in names)
    for name in names:
        assert not os.path.exists(name), f"orphaned spool file: {name}"


def test_mmap_registry_deletes_spool_on_normal_context_exit(tiny_workload):
    factories, _ = tiny_workload
    with SharedArrayRegistry(storage="mmap") as registry:
        handle = registry.export(next(iter(factories.values())))
        names = registry.segment_names
        assert handle.matrix.storage == "mmap"
        # While open, the spool files are attachable and carry the real bytes.
        assert all(os.path.exists(name) for name in names)
        assert all(name.startswith(registry.spool_path) for name in names)
    assert registry.closed
    assert_spool_deleted(names)
    assert not os.path.exists(registry.spool_path)


def test_mmap_registry_deletes_spool_when_the_body_raises(tiny_workload):
    factories, _ = tiny_workload
    with pytest.raises(RuntimeError):
        with SharedArrayRegistry(storage="mmap") as registry:
            registry.export(next(iter(factories.values())))
            names = registry.segment_names
            raise RuntimeError("boom")
    assert_spool_deleted(names)


def test_mmap_registry_finalizer_is_a_gc_backstop(tiny_workload):
    """An abandoned mmap registry still deletes its spool at collection."""
    factories, _ = tiny_workload
    registry = SharedArrayRegistry(storage="mmap")
    registry.export(next(iter(factories.values())))
    names = registry.segment_names
    spool = registry.spool_path
    del registry
    gc.collect()
    assert_spool_deleted(names)
    assert not os.path.exists(spool)


def test_mmap_ephemeral_registry_cleaned_after_normal_completion(
    tiny_workload, recording_registries
):
    factories, tasks = tiny_workload
    records = evaluate_tasks(
        tasks, factories, n_shards=2, executor="process", storage="mmap"
    )
    assert len(records) == len(tasks)
    (registry,) = recording_registries
    assert registry.closed
    assert_spool_deleted(registry.segment_names)


def test_mmap_ephemeral_registry_cleaned_after_worker_exception(
    tiny_workload, recording_registries
):
    """A task that raises inside the worker must not leave spool files behind."""
    factories, tasks = tiny_workload
    poisoned = tasks + [
        GroupEvalTask(
            group=tasks[0].group,
            k=0,  # Greca rejects k <= 0 — worker-side, after shipment
            consensus=tasks[0].consensus,
            static=tasks[0].static,
            periodic={},
            averages={},
            time_model="discrete",
        )
    ]
    with pytest.raises(AlgorithmError):
        evaluate_tasks(
            poisoned, factories, n_shards=2, executor="process", storage="mmap"
        )
    (registry,) = recording_registries
    assert registry.closed
    assert_spool_deleted(registry.segment_names)


def test_mmap_ephemeral_registry_cleaned_after_worker_crash(
    tiny_workload, recording_registries
):
    """A worker killed by ``os._exit`` mid-shard must not orphan spool files.

    Same contract as the shm variant: deletion is owned by the parent-side
    registry (``os._exit`` runs no worker exit handlers), so the ephemeral
    registry still closes and every spool file is gone.
    """
    from concurrent.futures.process import BrokenProcessPool

    from repro.parallel import FaultPlan, FaultSpec

    factories, tasks = tiny_workload
    crash = FaultPlan((FaultSpec(shard=0, position=1, mode="crash", fires=1),))
    with pytest.raises(BrokenProcessPool):
        evaluate_tasks(
            tasks,
            factories,
            n_shards=1,
            executor="process",
            storage="mmap",
            fault_plan=crash,
        )
    (registry,) = recording_registries
    assert registry.closed
    assert_spool_deleted(registry.segment_names)


def test_interrupted_mmap_run_deletes_spool_and_stops_the_pool(tiny_workload):
    """A KeyboardInterrupt mid-flight tears the file-backed tier down, leak-free."""
    factories, tasks = tiny_workload
    pool = PersistentShardExecutor(n_workers=2)
    registry = SharedArrayRegistry(storage="mmap")
    with pytest.raises(KeyboardInterrupt):
        with pool, registry:
            records = evaluate_tasks(tasks, factories, executor=pool, registry=registry)
            assert len(records) == len(tasks)
            names = registry.segment_names
            spool = registry.spool_path
            assert pool.warm
            raise KeyboardInterrupt  # the moment ^C lands between dispatches
    assert not pool.warm
    assert registry.closed
    assert_spool_deleted(names)
    assert not os.path.exists(spool)


# -- the /dev/shm budget: oversized exports spill to the spool ----------------------------------


def test_shm_budget_spills_oversized_exports_to_spool(tiny_workload):
    """An shm registry over budget redirects exports to spool files, bit-exactly."""
    from repro.parallel import materialise_factory

    factories, tasks = tiny_workload
    factory = next(iter(factories.values()))
    reference = evaluate_tasks(tasks, factories)
    with SharedArrayRegistry(shm_budget_bytes=0) as registry:
        assert registry.storage == "shm"
        handle = registry.export(factory)
        # Every column spilled: the descriptors point at spool files.
        assert registry.spill_count >= 1
        assert handle.matrix.storage == "mmap"
        names = registry.segment_names
        assert all(os.path.isabs(name) for name in names)
        # The spilled substrate materialises bit-identically.
        spilled = materialise_factory(handle)
        assert spilled.members == factory.members and spilled.items == factory.items
        records = evaluate_tasks(
            tasks, factories, n_shards=2, executor="process", registry=registry
        )
        assert records == reference
    assert_spool_deleted(names)


def test_shm_budget_admits_exports_under_the_limit(tiny_workload):
    """A generous budget never spills; retirement returns the headroom."""
    factories, _ = tiny_workload
    factory = next(iter(factories.values()))
    with SharedArrayRegistry(shm_budget_bytes=1 << 30) as registry:
        handle = registry.export(factory)
        assert registry.spill_count == 0
        assert handle.matrix.storage == "shm"
        names = registry.segment_names
        assert all(not os.path.isabs(name) for name in names)
    assert_unlinked(names)


def test_shm_budget_default_comes_from_the_environment(monkeypatch, tiny_workload):
    """REPRO_SHM_BUDGET_BYTES seeds the default budget at construction."""
    factories, _ = tiny_workload
    monkeypatch.setenv("REPRO_SHM_BUDGET_BYTES", "0")
    with SharedArrayRegistry() as registry:
        handle = registry.export(next(iter(factories.values())))
        assert registry.spill_count >= 1
        assert handle.matrix.storage == "mmap"
        names = registry.segment_names
    assert_spool_deleted(names)


# -- anti-aliasing: one logical column, two storage backends, two cache identities --------------


def test_shm_and_mmap_handles_for_the_same_column_never_alias(tiny_workload):
    """Handle equality covers the storage backend, so caches cannot mix tiers.

    The same factory exported through an shm registry and an mmap registry
    yields handles that disagree in their descriptors' ``storage`` field (on
    top of names and generations) — a worker cache keyed on one must miss on
    the other, exactly like the PR 8 generation-token contract.
    """
    from repro.parallel import materialise_factory, shm

    factories, _ = tiny_workload
    factory = next(iter(factories.values()))
    with SharedArrayRegistry() as shm_registry, SharedArrayRegistry(
        storage="mmap"
    ) as mmap_registry:
        shm_handle = shm_registry.export(factory)
        mmap_handle = mmap_registry.export(factory)
        assert shm_handle != mmap_handle
        assert shm_handle.matrix.storage == "shm"
        assert mmap_handle.matrix.storage == "mmap"
        # Same logical bytes, two distinct cache identities.
        first = materialise_factory(shm_handle)
        assert shm_handle in shm._FACTORY_CACHE
        assert mmap_handle not in shm._FACTORY_CACHE
        second = materialise_factory(mmap_handle)
        assert second is not first
        assert second.members == first.members and second.items == first.items
        cache = {shm_handle: "shm", mmap_handle: "mmap"}
        assert len(cache) == 2


def test_affinity_handles_keep_storage_distinct(columnar_workload):
    """export_affinity under each backend produces non-aliasing handles too."""
    _, _, columns = columnar_workload
    with SharedArrayRegistry() as shm_registry, SharedArrayRegistry(
        storage="mmap"
    ) as mmap_registry:
        shm_handle = shm_registry.export_affinity(columns)
        mmap_handle = mmap_registry.export_affinity(columns)
        assert shm_handle != mmap_handle
        assert shm_handle.static.storage == "shm"
        assert mmap_handle.static.storage == "mmap"
        assert len({shm_handle, mmap_handle}) == 2

"""Service-level equivalence and concurrency suite (:mod:`repro.service`).

The serving layer's contract, pinned end to end:

* **bit-identical responses**: whatever N concurrent clients submit, and
  however the coalescer batches it, every response's record equals the
  serial ``task_for`` + ``run_task`` reference for that query;
* **honest fault reporting**: a FaultPlan crash mid-request recovers
  transparently and the response carries the :class:`DispatchReport` that
  says so;
* **bounded coalescing**: no dispatched batch ever exceeds the configured
  ``max_batch_size`` — and under concurrent load batching actually happens;
* **drain semantics**: ``stop()`` answers every already-accepted query and
  rejects new ones with :class:`ServiceError`.

All tests drive the service through ``asyncio.run`` so the suite has no
plugin dependencies.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.exceptions import ConfigurationError, ServiceError
from repro.experiments.scalability import ScalabilityConfig, ScalabilityEnvironment
from repro.parallel import ExecutionPolicy, FaultPlan, FaultSpec
from repro.service import (
    GrecaService,
    GroupQuery,
    ServiceConfig,
    default_queries,
    percentile,
    run_load,
    summarise_latencies,
)


@pytest.fixture(scope="module")
def environment():
    env = ScalabilityEnvironment(
        ScalabilityConfig(
            n_users=40,
            n_items=300,
            n_ratings=3_000,
            n_participants=12,
            n_groups=2,
            group_size=3,
        )
    )
    yield env
    env.close()


def serve(environment, coroutine_factory, config=None, fault_plan=None):
    """Run one service session: start, hand the service to the coroutine, stop."""

    async def session():
        service = GrecaService(
            environment=environment, config=config, fault_plan=fault_plan
        )
        async with service:
            return await coroutine_factory(service)

    return asyncio.run(session())


@pytest.mark.parametrize("executor", ["supervised", "persistent", None])
def test_concurrent_clients_get_bit_identical_responses(environment, executor):
    """N concurrent clients, every response equal to the serial reference."""
    policy = ExecutionPolicy(n_workers=2, executor=executor) if executor else ExecutionPolicy()
    config = ServiceConfig(max_batch_delay=0.01, policy=policy)

    async def load(service):
        clients = default_queries(environment, n_clients=4, n_queries=3, seed=23)
        responses, wall_seconds = await run_load(service, clients)
        return service, responses, wall_seconds

    service, responses, wall_seconds = serve(environment, load, config=config)
    assert len(responses) == 12
    for response in responses:
        assert response.record == service.reference_record(response.query)
        assert response.latency.total_seconds >= response.latency.dispatch_seconds
        assert response.latency.batch_size >= 1
    summary = summarise_latencies(
        [response.latency for response in responses], wall_seconds, n_clients=4
    )
    assert summary.n_queries == 12
    assert summary.p50_ms <= summary.p95_ms <= summary.p99_ms
    assert summary.max_batch == max(service.batch_sizes)


def test_crash_mid_request_recovers_with_honest_report(environment):
    """A planned worker crash is absorbed; the response's report admits it."""
    crash = FaultPlan((FaultSpec(shard=0, position=0, mode="crash", fires=1),))
    config = ServiceConfig(policy=ExecutionPolicy(n_workers=2, executor="supervised"))

    async def load(service):
        queries = [
            GroupQuery(group=tuple(group), k=k)
            for group in environment.random_groups()
            for k in (3, 5)
        ]
        responses = await asyncio.gather(
            *(service.submit(query) for query in queries)
        )
        return service, responses

    service, responses = serve(environment, load, config=config, fault_plan=crash)
    for response in responses:
        assert response.record == service.reference_record(response.query)
        assert response.report is not None
        assert response.report.ok  # recovered, and says exactly how
    assert any(
        response.report.rebuilds >= 1 and response.report.retries >= 1
        for response in responses
    )


def test_coalescing_respects_the_configured_batch_cap(environment):
    """Concurrent submissions coalesce, but never past max_batch_size."""
    config = ServiceConfig(
        max_batch_size=3,
        max_batch_delay=0.2,
        policy=ExecutionPolicy(n_workers=2, executor="persistent"),
    )

    async def load(service):
        queries = [
            GroupQuery(group=tuple(environment.random_groups(1)[0]), k=k)
            for k in range(2, 12)
        ]
        responses = await asyncio.gather(
            *(service.submit(query) for query in queries)
        )
        return service, responses

    service, responses = serve(environment, load, config=config)
    assert len(responses) == 10
    assert service.batch_sizes, "no batches were dispatched"
    assert max(service.batch_sizes) <= 3
    assert max(service.batch_sizes) > 1, "concurrent load never coalesced"
    assert sum(service.batch_sizes) == 10
    for response in responses:
        assert response.record == service.reference_record(response.query)


def test_stop_drains_accepted_queries_and_rejects_new_ones(environment):
    config = ServiceConfig(
        max_batch_delay=0.05, policy=ExecutionPolicy(n_workers=2, executor="persistent")
    )

    async def session():
        service = GrecaService(environment=environment, config=config)
        await service.start()
        group = tuple(environment.random_groups(1)[0])
        pending = [
            asyncio.create_task(service.submit(GroupQuery(group=group, k=k)))
            for k in (3, 4, 5)
        ]
        await asyncio.sleep(0)  # let the submissions enqueue
        await service.stop()  # drain: the three accepted queries still answer
        responses = await asyncio.gather(*pending)
        with pytest.raises(ServiceError):
            await service.submit(GroupQuery(group=group))
        return service, responses

    service, responses = asyncio.run(session())
    assert len(responses) == 3
    for response in responses:
        assert response.record == service.reference_record(response.query)


def test_service_config_rejects_bad_knobs():
    # The default is exactly the supervised two-worker pool, and the
    # dispatch knobs live only on the policy.
    assert ServiceConfig().policy == ExecutionPolicy(n_workers=2, executor="supervised")
    assert [field.name for field in dataclasses.fields(ServiceConfig)] == [
        "max_batch_size", "max_batch_delay", "max_queue", "policy"
    ]
    with pytest.raises(ValueError):
        ServiceConfig(policy=ExecutionPolicy(n_workers=2, executor="no-such-backend"))
    with pytest.raises(ConfigurationError, match="policy must be an ExecutionPolicy"):
        ServiceConfig(policy="supervised")
    with pytest.raises(ConfigurationError):
        ServiceConfig(max_batch_size=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(max_batch_delay=-0.1)
    with pytest.raises(ConfigurationError):
        GroupQuery(group=())


def test_query_period_index_is_validated(environment):
    config = ServiceConfig(policy=ExecutionPolicy())

    async def bad_period(service):
        query = GroupQuery(
            group=tuple(environment.random_groups(1)[0]), period_index=99
        )
        with pytest.raises(ConfigurationError):
            await service.submit(query)
        return True

    assert serve(environment, bad_period, config=config)


def test_bad_query_fails_alone_in_its_batch(environment):
    """One invalid query in a coalesced batch must not fail its neighbours."""
    config = ServiceConfig(max_batch_delay=0.2, policy=ExecutionPolicy())
    group = tuple(environment.random_groups(1)[0])
    good = GroupQuery(group=group, k=4)
    bad = GroupQuery(group=group, k=4, period_index=999)

    async def load(service):
        outcomes = await asyncio.gather(
            service.submit(good), service.submit(bad), return_exceptions=True
        )
        return service, outcomes

    service, (response, error) = serve(environment, load, config=config)
    assert service.batch_sizes == [2], "both queries must share one batch"
    assert isinstance(error, ConfigurationError)
    assert response.record == service.reference_record(good)


def test_percentile_interpolates():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0
    with pytest.raises(ConfigurationError):
        percentile([], 50)

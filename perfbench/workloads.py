"""The benchmark's three workloads and the inputs each makes from its seed.

* ``sweep``: offline figure reproduction.  One closed-loop caller sends one
  task per ``ScalabilityEnvironment.evaluate`` call under the default
  (serial) ``ExecutionPolicy`` over the default 8 groups of 6, warmed in
  set-up.  Almost all of its time is engine work (``core``).
* ``serve``: online reads.  One asyncio task sends an open-loop schedule of
  ``GroupQuery`` objects at a fixed rate into the default supervised
  ``GrecaService``.  Its 48 groups exceed the per-worker factory cache (32)
  and its 96 index variants exceed the per-worker index cache (64).
* ``churn``: writes beside reads.  One closed-loop client alternates a
  ``submit_delta`` with a pass of queries over the default 8 groups, so the
  epoch each query sees is fixed by the seed.

Every run does a fixed amount of work sized from ``--seconds``.  The host's
speed drifts by tens of percent over seconds, so an untraced run splits
that work into parts, one on each of its set-ups, and the samples of every
metric come from the whole run rather than one stretch of it.  Every answer
is checked outside the timed sections.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field

from repro.experiments.scalability import ScalabilityEnvironment
from repro.parallel import ExecutionPolicy
from repro.parallel.worker import build_task_index
from repro.service import GrecaService, GroupQuery
from repro.updates.deltas import random_deltas

KS = (5, 10, 20)
CONSENSUS = ("AP", "MO")
AFFINITIES = ("discrete", "continuous")
SWEEP_PERIODS = (0, 3, 5)
SWEEP_N_ITEMS = (None, 1_000)

#: Rows per group in one sweep pass; every knob level appears equally often.
SWEEP_ROWS = 12
#: Nominal seconds per sweep pass (96 queries) on a 2-CPU host.
SWEEP_PASS_SECONDS = 2.7
SERVE_GROUPS = 48
#: A third of the ~39 q/s the default service sustains closed-loop on this
#: design with 4-8 clients on 2 CPUs.
SERVE_RATE = 13.0
#: Nominal seconds per churn cycle (one delta plus one 40-query pass).
CHURN_CYCLE_SECONDS = 4.0
#: Enough ratings per delta that the stale-item set covers most of the
#: catalogue, so every delta costs about the same.
CHURN_RATINGS_PER_DELTA = 40
NEW_PERIOD_EVERY = 3
#: Each latency percentile needs 10 samples beyond it: p95 needs 200.
MIN_QUERIES = 200

EXACT_TOLERANCE = 1e-9


@dataclass
class Outcome:
    """Everything a measured phase produced (or several, merged)."""

    latencies_ms: list[float] = field(default_factory=list)
    #: Timed seconds of the client: its queries, and its deltas in ``churn``;
    #: in ``serve``, the span from the first due time to the last completion.
    client_seconds: float = 0.0
    delta_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    verified: int = 0
    failed_deltas: int = 0
    #: ``(part, epoch, query) -> record`` for every verified answer; ``sweep``
    #: and ``serve`` key every part ``0`` and epoch ``0``, so each query counts
    #: once however often it is answered.
    facts: dict = field(default_factory=dict)
    query_latencies: list = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)
    dispatch_reports: list = field(default_factory=list)
    delta_reports: list = field(default_factory=list)
    gen_lag_ms: list[float] = field(default_factory=list)
    backlog_grew: bool = False

    @property
    def queries_per_s(self) -> float:
        return self.verified / self.client_seconds

    @property
    def percent_sa(self) -> float:
        return math.fsum(r.percent_sa for r in self.facts.values()) / len(self.facts)

    @classmethod
    def merged(cls, parts: list["Outcome"]) -> "Outcome":
        total = cls()
        for part in parts:
            for name in ("latencies_ms", "delta_ms", "query_latencies", "batch_sizes",
                         "dispatch_reports", "delta_reports", "gen_lag_ms"):
                getattr(total, name).extend(getattr(part, name))
            for name in ("client_seconds", "attempted", "verified", "failed_deltas"):
                setattr(total, name, getattr(total, name) + getattr(part, name))
            total.facts.update(part.facts)
            total.backlog_grew |= part.backlog_grew
        return total


def shuffled_passes(design: list, passes: int, seed: int, label: str) -> list:
    """``passes`` copies of ``design``, each in its own seeded order."""
    rng = random.Random(f"{label}:{seed}")
    schedule = []
    for _ in range(passes):
        order = list(design)
        rng.shuffle(order)
        schedule.extend(order)
    return schedule


def share(total: int, part: int, parts: int) -> slice:
    """The ``part``-th of ``parts`` near-equal contiguous slices of ``total``."""
    return slice(total * part // parts, total * (part + 1) // parts)


def sweep_design(groups) -> list[GroupQuery]:
    """Twelve knob rows per group: k, consensus, affinity, period, n_items."""
    rows = [
        dict(
            k=KS[row % 3],
            consensus=CONSENSUS[row % 2],
            affinity=AFFINITIES[(row // 2) % 2],
            period_index=SWEEP_PERIODS[(row // 4) % 3],
            n_items=SWEEP_N_ITEMS[(row // 6) % 2],
        )
        for row in range(SWEEP_ROWS)
    ]
    return [GroupQuery(group=group, **row) for group in groups for row in rows]


def serve_design(groups) -> list[GroupQuery]:
    """Two index variants per group (96 for 48 groups), k and consensus mixed."""
    variants = (("discrete", 5), ("continuous", 2))
    return [
        GroupQuery(
            group=group,
            k=KS[(position + variant) % 3],
            consensus=CONSENSUS[(position // 3 + variant) % 2],
            affinity=affinity,
            period_index=period,
        )
        for position, group in enumerate(groups)
        for variant, (affinity, period) in enumerate(variants)
    ]


def churn_design(groups) -> list[GroupQuery]:
    """Five rows per group over the base periods (all survive appended periods)."""
    return [
        GroupQuery(
            group=group,
            k=KS[period % 3],
            consensus=CONSENSUS[period % 2],
            affinity=AFFINITIES[(period // 2) % 2],
            period_index=period,
        )
        for group in groups
        for period in range(1, 6)
    ]


def make_deltas(
    environment, count: int, seed: int, ratings_per_delta: int, new_period_every=None
) -> list:
    """Seeded deltas against the environment's current substrate."""
    return random_deltas(
        environment.ratings,
        environment.social,
        environment.timeline,
        count,
        seed=seed,
        ratings_per_delta=ratings_per_delta,
        new_period_every=new_period_every,
    )


class Workload:
    """One set-up, its share of the run's measured work, and its tear-down.

    ``part`` of ``parts`` selects this set-up's share of the run's work.
    ``references`` is shared by every part of a run: the set-ups are built
    from the same configuration, so a reference record taken on one holds
    for all of them.
    """

    name = ""

    def __init__(
        self,
        seed: int,
        seconds: float,
        part: int = 0,
        parts: int = 1,
        references: dict | None = None,
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.part = part
        self.parts = parts
        self.references = {} if references is None else references
        self.environment: ScalabilityEnvironment | None = None
        self.service: GrecaService | None = None

    async def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Make this part's inputs from the seed (not timed)."""

    async def measure(self, tracer) -> Outcome:
        raise NotImplementedError

    async def _start_service(self, warm: list[GroupQuery]) -> None:
        self.service = GrecaService(environment=self.environment)
        await self.service.start()
        await asyncio.gather(*(self.service.submit(query) for query in warm))

    async def teardown(self) -> None:
        if self.service is not None:
            await self.service.stop()
            self.service = None
        if self.environment is not None:
            self.environment.close()
            self.environment = None

    def _task(self, query: GroupQuery):
        return self.environment.task_for(
            query.group,
            k=query.k,
            consensus=query.consensus,
            affinity=query.affinity,
            period=list(self.environment.timeline)[query.period_index],
            n_items=query.n_items,
        )

    def _verify_service(self, outcome: Outcome, key, answers, references: dict) -> None:
        """Each record must equal the serial reference record, bit for bit."""
        for query, record in answers:
            if record is None:
                continue
            if query not in references:
                references[query] = self.service.reference_record(query)
            if record == references[query]:
                outcome.verified += 1
                outcome.facts[(*key, query)] = record


class Sweep(Workload):
    name = "sweep"

    async def setup(self) -> None:
        environment = self.environment = ScalabilityEnvironment()
        self.groups = [tuple(group) for group in environment.random_groups()]
        for group in self.groups:
            environment.index_factory(group)
            for affinity in AFFINITIES:
                environment.affinity_columns(group, affinity)
            for n_items in SWEEP_N_ITEMS:
                environment.evaluate(
                    [environment.task_for(group, n_items=n_items)],
                    policy=ExecutionPolicy(),
                )

    def prepare(self) -> None:
        # Whole passes on every part, so every part answers the whole design.
        design = sweep_design(self.groups)
        passes = max(
            round(self.seconds / SWEEP_PASS_SECONDS / self.parts),
            math.ceil(MIN_QUERIES / len(design) / self.parts),
        )
        self.schedule = shuffled_passes(design, passes, self.seed, f"{self.name}:{self.part}")

    async def measure(self, tracer) -> Outcome:
        outcome = Outcome()
        answers = []
        policy = ExecutionPolicy()
        for number, query in enumerate(self.schedule):
            outcome.attempted += 1
            with tracer.operation("bench.query", f"q{self.part}-{number}"):
                start = time.perf_counter()
                try:
                    task = self._task(query)
                    record = self.environment.evaluate([task], policy=policy)[0]
                except Exception:
                    record = None
                elapsed = time.perf_counter() - start
            outcome.client_seconds += elapsed
            outcome.latencies_ms.append(elapsed * 1000.0 if record else math.inf)
            answers.append((query, record))
        with tracer.paused():
            self._verify_exact(outcome, answers)
        return outcome

    def _verify_exact(self, outcome: Outcome, answers) -> None:
        """Each top-k score multiset must equal the naive-scan exact top-k."""
        exact_ok: dict = {}
        first: dict = {}
        for query, record in answers:
            if record is None:
                continue
            if query not in exact_ok:
                exact_ok[query] = self._matches_oracle(query, record)
                first[query] = record
            if exact_ok[query] and record == first[query]:
                outcome.verified += 1
                outcome.facts[(0, 0, query)] = record

    def _matches_oracle(self, query: GroupQuery, record) -> bool:
        task = self._task(query)
        index = build_task_index(task, self.environment.index_factory(query.group))
        scores = index.exact_scores(task.consensus)
        expected = sorted(scores.values(), reverse=True)[: record.k]
        got = sorted((scores[item] for item in record.items), reverse=True)
        return len(got) == len(expected) and all(
            abs(a - b) <= EXACT_TOLERANCE for a, b in zip(got, expected)
        )


class Serve(Workload):
    name = "serve"

    async def setup(self) -> None:
        environment = self.environment = ScalabilityEnvironment()
        self.groups = [tuple(g) for g in environment.random_groups(SERVE_GROUPS)]
        for group in self.groups:
            environment.index_factory(group)
        self.design = serve_design(self.groups)
        await self._start_service(self.design[::2])

    def prepare(self) -> None:
        # One seeded schedule for the whole run; each part sends its slice.
        count = max(MIN_QUERIES, round(self.seconds * SERVE_RATE))
        passes = math.ceil(count / len(self.design))
        schedule = shuffled_passes(self.design, passes, self.seed, self.name)[:count]
        self.schedule = schedule[share(count, self.part, self.parts)]

    async def measure(self, tracer) -> Outcome:
        outcome = Outcome()
        service = self.service
        loop = asyncio.get_running_loop()
        batches_before = len(service.batch_sizes)
        reports_before = len(self.environment.dispatch_reports)

        async def send(query: GroupQuery, due: float):
            outcome.gen_lag_ms.append((time.perf_counter() - due) * 1000.0)
            try:
                response = await service.submit(query)
            except Exception:
                response = None
            return response, time.perf_counter()

        origin = time.perf_counter() + 0.05
        pending = []
        for number, query in enumerate(self.schedule):
            due = origin + number / SERVE_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            pending.append((query, due, loop.create_task(send(query, due))))
        answers = []
        last_done = origin
        for query, due, task in pending:
            response, done = await task
            outcome.attempted += 1
            last_done = max(last_done, done)
            if response is None:
                outcome.latencies_ms.append(math.inf)
                answers.append((query, None))
                continue
            outcome.latencies_ms.append((done - due) * 1000.0)
            outcome.query_latencies.append(response.latency)
            answers.append((query, response.record))
        # The achieved rate: completions over the span from the first due time.
        outcome.client_seconds = last_done - origin
        # Completions trailing the schedule by more than 5% mean a backlog grew.
        outcome.backlog_grew = outcome.client_seconds > 1.05 * len(pending) / SERVE_RATE
        outcome.batch_sizes = service.batch_sizes[batches_before:]
        outcome.dispatch_reports = self.environment.dispatch_reports[reports_before:]
        with tracer.paused():
            self._verify_service(outcome, (0, 0), answers, self.references)
        return outcome


class Churn(Workload):
    name = "churn"

    async def setup(self) -> None:
        environment = self.environment = ScalabilityEnvironment()
        self.groups = [tuple(group) for group in environment.random_groups()]
        for group in self.groups:
            environment.index_factory(group)
        self.design = churn_design(self.groups)
        await self._start_service([GroupQuery(group=group) for group in self.groups])

    def prepare(self) -> None:
        cycles = max(
            math.ceil(MIN_QUERIES / len(self.design)),
            round(self.seconds / CHURN_CYCLE_SECONDS),
        )
        self.cycles = len(range(cycles)[share(cycles, self.part, self.parts)])
        # Enough deltas for two measured phases (the traced run measures twice).
        self.deltas = make_deltas(
            self.environment,
            2 * self.cycles,
            self.seed * self.parts + self.part,
            CHURN_RATINGS_PER_DELTA,
            new_period_every=NEW_PERIOD_EVERY,
        )
        self.epoch = 0

    async def measure(self, tracer) -> Outcome:
        outcome = Outcome()
        service = self.service
        batches_before = len(service.batch_sizes)
        reports_before = len(self.environment.dispatch_reports)
        for _ in range(self.cycles):
            delta = self.deltas[self.epoch]
            self.epoch += 1
            with tracer.operation("bench.delta", f"delta-{self.part}-{self.epoch}"):
                start = time.perf_counter()
                try:
                    outcome.delta_reports.append(await service.submit_delta(delta))
                    outcome.delta_ms.append((time.perf_counter() - start) * 1000.0)
                except Exception:
                    outcome.failed_deltas += 1
                outcome.client_seconds += time.perf_counter() - start
            order = shuffled_passes(
                self.design, 1, self.seed, f"{self.name}:{self.part}:{self.epoch}"
            )
            answers = []
            for number, query in enumerate(order):
                outcome.attempted += 1
                tag = f"q{self.part}-{self.epoch}-{number}"
                with tracer.operation("bench.query", tag):
                    start = time.perf_counter()
                    try:
                        response = await service.submit(query)
                    except Exception:
                        response = None
                    elapsed = time.perf_counter() - start
                outcome.client_seconds += elapsed
                if response is None:
                    outcome.latencies_ms.append(math.inf)
                    answers.append((query, None))
                    continue
                outcome.latencies_ms.append(elapsed * 1000.0)
                outcome.query_latencies.append(response.latency)
                answers.append((query, response.record))
            # References are taken now, before the next delta moves the epoch.
            with tracer.paused():
                self._verify_service(outcome, (self.part, self.epoch), answers, {})
        outcome.batch_sizes = service.batch_sizes[batches_before:]
        outcome.dispatch_reports = self.environment.dispatch_reports[reports_before:]
        return outcome


WORKLOADS = {cls.name: cls for cls in (Sweep, Serve, Churn)}

"""Span recording for the traced benchmark run.

The program carries no tracing of its own, so the benchmark times each layer
from outside: :meth:`Tracer.patch` replaces a public function with a wrapper
at the place its caller looks the name up (a class attribute, or a module
global such as ``repro.core.greca.consensus_bounds``).  Each call then
records one :class:`Span` with its name, start, end, parent span and the
query or delta id the benchmark's own code is working on.

Spans stay in memory and are written out once, when the run ends.  Only
the benchmark's own process records: pool workers forked from it inherit
the wrappers, which then call straight through.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence


class Span:
    """One timed call: ``[start_ns, end_ns)`` on the ``perf_counter_ns`` clock."""

    __slots__ = ("name", "start_ns", "end_ns", "parent", "tag", "thread")

    def __init__(
        self,
        name: str,
        start_ns: int,
        end_ns: int = 0,
        parent: int | None = None,
        tag: str | None = None,
        thread: int = 0,
    ) -> None:
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.parent = parent
        self.tag = tag
        self.thread = thread

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def covered_ns(intervals: Iterable[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end)``."""
    total = 0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times_ns(spans: Sequence[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start_ns, span.end_ns))
    return [
        (span.end_ns - span.start_ns)
        - covered_ns(children.get(index, ()), span.start_ns, span.end_ns)
        for index, span in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Span]) -> dict[str, tuple[int, float]]:
    """``{name: (calls, self seconds)}`` summed over every finished span."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0])
    for span, own in zip(spans, self_times_ns(spans)):
        if span.end_ns:
            entry = totals[span.name]
            entry[0] += 1
            entry[1] += own
    return {name: (calls, own / 1e9) for name, (calls, own) in totals.items()}


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans.

    A span opened on a thread whose stack is empty takes the benchmark's
    current operation (:attr:`root`) as its parent.  The closed-loop
    workloads set it around each query and delta, so work that the service
    runs on its dispatch thread still hangs under the operation that caused
    it and carries its id.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        self.root: int | None = None
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if tag is None and parent is not None:
            tag = self.spans[parent].tag
        span = Span(name, time.perf_counter_ns(), parent=parent, tag=tag,
                    thread=threading.get_ident())
        self.spans.append(span)
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def operation(self, name: str, tag: str):
        """A root span for one benchmark operation (a query or a delta)."""
        if not self.recording:
            yield
            return
        index = self.begin(name, tag)
        self.root = index
        try:
            yield
        finally:
            self.root = None
            self.end(index)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the correctness checks run here)."""
        recording, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = recording

    def wrap(self, name: str, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.recording or os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            index = tracer.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    def patch(self, owner: object, attribute: str, name: str) -> None:
        """Wrap ``owner.attribute`` (a class or a module) under span ``name``."""
        original = vars(owner)[attribute]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__))
        else:
            replacement = self.wrap(name, original)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every patched name back as it was."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def instrument(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are read from."""
    from repro.cf import predictors
    from repro.core import greca, kernels, recommender
    from repro.experiments import scalability
    from repro.parallel import shm

    targets = [
        (scalability.EnvironmentSubstrate, "generate", "data.generate"),
        (predictors.RatingPredictor, "fit", "cf.fit"),
        (recommender.GroupRecommender, "fit", "core.recommender_fit"),
        (predictors.UserBasedCF, "predict_all", "cf.predict_all"),
        (predictors.UserBasedCF, "partial_refit", "cf.partial_refit"),
        (predictors.UserBasedCF, "predict_for_items", "cf.predict_for_items"),
        (recommender.GroupRecommender, "index_factory", "core.factory"),
        (recommender.GroupRecommender, "refresh_aprefs", "core.refresh_aprefs"),
        (recommender.GroupRecommender, "refresh_affinities", "core.refresh_affinities"),
        (greca.GrecaIndexFactory, "build_columns", "core.index_build"),
        (greca.GrecaIndex, "build_lists", "core.build_lists"),
        (greca.Greca, "run", "core.greca_run"),
        (greca, "consensus_bounds", "core.consensus_bounds"),
        (scalability.ScalabilityEnvironment, "task_for", "experiments.task_for"),
        (scalability.ScalabilityEnvironment, "apply_delta", "updates.apply_delta"),
        (scalability, "evaluate_tasks", "parallel.evaluate_tasks"),
        (shm.SharedArrayRegistry, "export", "parallel.export"),
        (shm.SharedArrayRegistry, "export_affinity", "parallel.export"),
        (shm.SharedArrayRegistry, "retire_stale", "parallel.retire"),
    ]
    for kernel in (kernels.ReferenceRoundKernel, kernels.FusedRoundKernel):
        targets.append((kernel, "advance", "core.kernel_advance"))
        targets.append((kernel, "refresh_bounds", "core.kernel_refresh_bounds"))
    for owner, attribute, name in targets:
        tracer.patch(owner, attribute, name)

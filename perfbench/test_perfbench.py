"""Tests for the benchmark's own helpers (run with ``pytest perfbench``)."""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, covered_ns, layer_totals, self_times_ns  # noqa: E402


# -- percentile rule ------------------------------------------------------------------


def test_p95_needs_ten_samples_beyond_it():
    assert measure.samples_beyond(200, 95) == 10
    assert measure.samples_beyond(199, 95) == 9
    assert measure.tail_percentile(list(range(1, 201)), 95) == 190
    with pytest.raises(ValueError):
        measure.tail_percentile(list(range(1, 200)), 95)


def test_tail_percentile_is_a_measured_sample_and_counts_failures_as_over():
    values = [float(v) for v in range(300)]
    assert measure.tail_percentile(values, 95) in values
    failed = values[:-20] + [math.inf] * 20
    assert measure.tail_percentile(failed, 95) == math.inf


def test_quartile_spread_is_a_share_of_the_median():
    assert measure.quartile_spread([10.0] * 5) == 0.0
    assert measure.quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# -- span self time -------------------------------------------------------------------


def test_self_time_subtracts_children_once_even_when_they_overlap():
    spans = [
        Span("root", 0, 100),
        Span("a", 10, 40, parent=0),
        Span("b", 30, 60, parent=0),  # overlaps a on [30, 40)
        Span("c", 70, 80, parent=0),
        Span("leaf", 15, 20, parent=1),
    ]
    assert self_times_ns(spans) == [100 - 50 - 10, 30 - 5, 30, 10, 5]


def test_covered_clips_children_to_the_parent():
    assert covered_ns([(-5, 5), (95, 120)], 0, 100) == 10
    assert covered_ns([], 0, 100) == 0


def test_layer_totals_sum_self_time_per_name_and_skip_open_spans():
    spans = [
        Span("outer", 0, 1_000_000_000),
        Span("inner", 0, 250_000_000, parent=0),
        Span("inner", 500_000_000, 750_000_000, parent=0),
        Span("open", 0, 0),
    ]
    totals = layer_totals(spans)
    assert totals["outer"] == (1, 0.5)
    assert totals["inner"] == (2, 0.5)
    assert "open" not in totals


def test_patched_calls_nest_under_the_current_operation_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.patch(Layer, "outer", "layer.outer")
    tracer.patch(Layer, "inner", "layer.inner")
    layer = Layer()
    assert layer.outer() == 2 and tracer.spans == []  # not recording yet
    tracer.recording = True
    with tracer.operation("bench.query", "q7"):
        assert layer.outer() == 2
    with tracer.paused():
        layer.outer()
    names = [(s.name, s.parent, s.tag) for s in tracer.spans]
    assert names == [
        ("bench.query", None, "q7"),
        ("layer.outer", 0, "q7"),
        ("layer.inner", 1, "q7"),
    ]
    tracer.restore()
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")


def test_every_instrumented_name_exists_and_is_restored():
    tracer = Tracer()
    tracing.instrument(tracer)
    patched = list(tracer._patches)
    tracer.restore()
    assert len(patched) == 23
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original


# -- deterministic inputs -------------------------------------------------------------


def test_schedule_is_a_seeded_sequence_of_whole_passes():
    design = list(range(96))
    first = workloads.shuffled_passes(design, 3, seed=5, label="serve")
    assert first == workloads.shuffled_passes(design, 3, seed=5, label="serve")
    assert first != workloads.shuffled_passes(design, 3, seed=6, label="serve")
    for start in range(0, len(first), len(design)):
        assert sorted(first[start : start + len(design)]) == design


def test_designs_have_the_documented_sizes():
    groups = [tuple(range(n, n + 6)) for n in range(48)]
    sweep = workloads.sweep_design(groups[:8])
    serve = workloads.serve_design(groups)
    churn = workloads.churn_design(groups[:8])
    assert len(set(sweep)) == len(sweep) == 96
    assert len(set(serve)) == len(serve) == 96
    assert len(set(churn)) == len(churn) == 40
    index_variants = {(q.group, q.affinity, q.period_index, q.n_items) for q in serve}
    assert len(index_variants) > 64  # beyond the per-worker INDEX_CACHE_MAX
    assert len({q.group for q in serve}) > 32  # beyond FACTORY_CACHE_MAX


@pytest.fixture(scope="module")
def small_substrate():
    from repro.experiments.scalability import EnvironmentSubstrate, ScalabilityConfig

    return EnvironmentSubstrate.generate(
        ScalabilityConfig(n_users=40, n_items=300, n_ratings=3_000, n_participants=12)
    )


def test_deltas_are_a_function_of_the_seed(small_substrate):
    make = workloads.make_deltas
    first = make(small_substrate, 4, seed=3, ratings_per_delta=10, new_period_every=3)
    assert first == make(small_substrate, 4, seed=3, ratings_per_delta=10, new_period_every=3)
    assert first != make(small_substrate, 4, seed=4, ratings_per_delta=10, new_period_every=3)
    assert [delta.new_period is not None for delta in first] == [False, False, True, False]
    social_only = make(small_substrate, 3, seed=3, ratings_per_delta=0)
    assert all(
        not delta.ratings and delta.page_likes and delta.new_period is None
        for delta in social_only
    )


# -- contract -------------------------------------------------------------------------


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])

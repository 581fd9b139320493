"""Tests for repro.core.buffer (GRECA's candidate buffer)."""

from __future__ import annotations

import pytest

from repro.core.buffer import BufferedItem, ColumnarCandidateBuffer
from repro.exceptions import AlgorithmError


class TestBufferedItem:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(AlgorithmError):
            BufferedItem("x", 2.0, 1.0)


class TestCandidateBuffer:
    @pytest.fixture()
    def buffer(self):
        buffer = ColumnarCandidateBuffer()
        buffer.update("a", 0.8, 0.9)
        buffer.update("b", 0.5, 0.95)
        buffer.update("c", 0.4, 0.6)
        buffer.update("d", 0.1, 0.3)
        return buffer

    def test_len_contains_get(self, buffer):
        assert len(buffer) == 4
        assert "a" in buffer and "z" not in buffer
        assert buffer.get("c").upper == 0.6
        assert buffer.get("z") is None

    def test_update_refreshes_bounds(self, buffer):
        buffer.update("a", 0.85, 0.88)
        assert buffer.get("a").lower == 0.85
        assert len(buffer) == 4

    def test_update_many_and_remove(self, buffer):
        buffer.update_many({"e": (0.2, 0.25), "f": (0.0, 0.05)})
        assert len(buffer) == 6
        buffer.remove(["e", "f", "not-there"])
        assert len(buffer) == 4

    def test_ranked_by_lower_bound(self, buffer):
        ranked = [entry.item for entry in buffer.ranked_by_lower_bound()]
        assert ranked == ["a", "b", "c", "d"]

    def test_top_k_and_kth_lower_bound(self, buffer):
        top = buffer.top_k(2)
        assert [entry.item for entry in top] == ["a", "b"]
        assert buffer.kth_lower_bound(2) == 0.5
        assert buffer.kth_lower_bound(10) is None
        with pytest.raises(AlgorithmError):
            buffer.top_k(0)

    def test_buffer_condition_not_met_when_other_upper_bound_higher(self, buffer):
        # kth (k=1) lower bound is 0.8 but item b can still reach 0.95.
        assert not buffer.satisfies_buffer_condition(1)

    def test_buffer_condition_met_after_tightening(self, buffer):
        buffer.update("b", 0.5, 0.75)
        assert buffer.satisfies_buffer_condition(1)

    def test_buffer_condition_with_exactly_k_items(self):
        buffer = ColumnarCandidateBuffer()
        buffer.update("a", 0.3, 0.9)
        buffer.update("b", 0.2, 0.8)
        assert buffer.satisfies_buffer_condition(2)  # nothing left to prune
        assert not buffer.satisfies_buffer_condition(3)  # fewer than k items

    def test_max_upper_bound_outside_top_k(self, buffer):
        assert buffer.max_upper_bound_outside_top_k(1) == 0.95
        assert buffer.max_upper_bound_outside_top_k(4) is None

    def test_tie_breaking_is_deterministic(self):
        buffer = ColumnarCandidateBuffer()
        buffer.update(2, 0.5, 0.6)
        buffer.update(1, 0.5, 0.6)
        ranked = [entry.item for entry in buffer.ranked_by_lower_bound()]
        assert ranked == sorted(ranked, key=repr)

"""Tests for work accounting and throughput metrics."""

import numpy as np
import pytest

from repro.metrics import (
    WorkStats,
    geometric_mean,
    gteps,
    speedup,
)


class TestWorkStats:
    def test_updates_and_checks(self):
        s = WorkStats()
        s.record(
            np.array([1, 2, 3]),
            np.array([5.0, 6.0, 7.0]),
            np.array([True, False, True]),
        )
        assert s.total_updates == 2
        assert s.checks == 1
        assert s.relaxations == 3

    def test_finalize_classifies_validity(self):
        s = WorkStats()
        # vertex 1 updated twice: once to 9 (later improved -> invalid),
        # once to 5 (the final distance -> valid)
        s.record(np.array([1]), np.array([9.0]), np.array([True]))
        s.record(np.array([1]), np.array([5.0]), np.array([True]))
        final = np.array([0.0, 5.0])
        t = s.finalize(final)
        assert t.total_updates == 2
        assert t.valid_updates == 1
        assert t.invalid_updates == 1
        assert t.update_ratio == 2.0

    def test_finalize_spans_classify_each_span(self):
        s = WorkStats()
        s.record(np.array([1, 2]), np.array([5.0, 6.0]), np.array([True, True]))
        s.record(np.array([3]), np.array([7.0]), np.array([False]))  # no batch
        mark = s.update_batches
        s.record(np.array([1]), np.array([4.0]), np.array([True]))
        t, spans = s.finalize_spans(
            np.array([0.0, 4.0, 6.0, 7.0]), [(0, mark), (mark, s.update_batches)]
        )
        assert mark == 1
        assert spans == [(2, 1), (1, 1)]
        assert (t.total_updates, t.valid_updates) == (3, 2)

    def test_empty_tally(self):
        t = WorkStats().finalize(np.array([0.0]))
        assert t.total_updates == 0
        assert t.update_ratio == 1.0

    def test_ratio_inf_when_no_valid(self):
        s = WorkStats()
        s.record(np.array([0]), np.array([3.0]), np.array([True]))
        t = s.finalize(np.array([1.0]))  # final differs from every write
        assert t.update_ratio == float("inf")

    def test_streaming_accumulation(self):
        s = WorkStats()
        for _ in range(10):
            s.record(np.array([0]), np.array([1.0]), np.array([False]))
        assert s.checks == 10
        assert s.total_updates == 0


class TestThroughput:
    def test_gteps(self):
        assert gteps(1_000_000_000, 1.0) == pytest.approx(1.0)
        assert gteps(500_000, 0.001) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            gteps(10, 0.0)

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])

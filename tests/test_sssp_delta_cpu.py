"""Tests for classic CPU Δ-stepping and its Fig. 2/3 trace instrumentation."""

import numpy as np
import pytest

from repro.graphs import kronecker, paper_fig1_graph, path
from repro.sssp import delta_stepping_cpu, dijkstra, validate_distances


class TestCorrectness:
    def test_path(self):
        g = path(10)
        r = delta_stepping_cpu(g, 0, delta=1.0)
        assert np.allclose(r.dist, np.arange(10, dtype=float))

    @pytest.mark.parametrize("delta", [0.5, 2.0, 10.0, 1000.0])
    def test_delta_invariance(self, delta):
        """Any Δ yields the same distances (§2.2: Δ=1 ~ Dijkstra, Δ=inf ~
        Bellman-Ford)."""
        g = kronecker(7, 6, weights="int", max_weight=20, seed=4)
        r = delta_stepping_cpu(g, 0, delta=delta)
        validate_distances(g, 0, r.dist)

    def test_default_delta(self):
        g = kronecker(6, 4, weights="int", seed=5)
        r = delta_stepping_cpu(g, 0)
        validate_distances(g, 0, r.dist)

    def test_invalid_args(self):
        g = path(4)
        with pytest.raises(ValueError):
            delta_stepping_cpu(g, 9, delta=1.0)
        with pytest.raises(ValueError):
            delta_stepping_cpu(g, 0, delta=-1.0)

    def test_fig1_graph_distances(self):
        """Distances from vertex 0 on the Fig. 1 graph, checked by hand:
        0-2 (w1), then 2-3 (w1) -> dist 2; 0-3 direct is 3; 3-4 w1 -> 3."""
        g = paper_fig1_graph()
        r = delta_stepping_cpu(g, 0, delta=3.0)
        assert r.dist[0] == 0.0
        assert r.dist[2] == 1.0
        assert r.dist[3] == 2.0
        assert r.dist[4] == 3.0
        validate_distances(g, 0, r.dist)


class TestWorkAccounting:
    def test_ratio_at_least_one(self):
        g = kronecker(7, 8, weights="int", seed=6)
        r = delta_stepping_cpu(g, 0, delta=100.0)
        assert r.work.update_ratio >= 1.0
        assert r.work.total_updates >= r.work.valid_updates

    def test_each_reached_vertex_has_a_valid_update(self):
        """Every reached vertex's final distance was written exactly once
        as a valid update (plus the source's initialization)."""
        g = kronecker(6, 6, weights="int", seed=7)
        r = delta_stepping_cpu(g, 0, delta=50.0)
        assert r.work.valid_updates >= r.reached

    def test_small_delta_fewer_invalid_updates(self):
        """Δ -> Dijkstra-like: narrower buckets improve work efficiency."""
        g = kronecker(7, 8, weights="int", seed=8)
        small = delta_stepping_cpu(g, 0, delta=20.0)
        huge = delta_stepping_cpu(g, 0, delta=1e9)
        assert small.work.update_ratio <= huge.work.update_ratio


class TestTraces:
    def test_bucket_series(self):
        g = path(10)  # unit weights: distances 0..9
        rows = delta_stepping_cpu(g, 0, delta=2.0).extra["bucket_telemetry"]
        assert len(rows) == 5  # distances 0..9 in buckets of width 2
        assert rows[0]["index"] == 0

    def test_iterations_recorded(self):
        g = kronecker(6, 6, weights="unit", seed=9)
        rows = delta_stepping_cpu(g, 0, delta=0.1).extra["bucket_telemetry"]
        peak = max(rows, key=lambda row: row["active"])
        assert peak["rounds"] == peak["phase1_active"].size >= 1
        assert peak["phase1_active"][0] == peak["active"]

    def test_phase1_update_counts_filled(self):
        g = kronecker(6, 6, weights="unit", seed=10)
        rows = delta_stepping_cpu(g, 0, delta=0.1).extra["bucket_telemetry"]
        total = sum(row["phase1_updates"] for row in rows)
        valid = sum(row["phase1_valid"] for row in rows)
        assert total >= valid > 0

    def test_bucket_count_matches_extra(self):
        g = kronecker(6, 6, weights="unit", seed=11)
        r = delta_stepping_cpu(g, 0, delta=0.2)
        assert len(r.extra["bucket_telemetry"]) == r.extra["buckets"]

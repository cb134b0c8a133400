"""Failure-injection and edge-case tests across all implementations.

Zero-weight edges, equal weights everywhere, extreme weights, parallel
edges, self-loops, disconnected graphs, singleton graphs — the inputs that
break naive Δ-stepping implementations (zero-weight edges famously
livelock light-edge loops that re-queue on non-strict improvement).
"""

import numpy as np
import pytest

from repro.graphs import CSRGraph, from_edges, kronecker
from repro.gpusim import V100
from repro.sssp import method_names, sssp, validate_distances

SPEC = V100.scaled_for_workload(1 / 64)
FAST_METHODS = ["rdbs", "bl", "adds", "near-far", "delta-cpu", "pq-delta*"]


def _kwargs(method):
    gpu = {"rdbs", "bl", "adds", "near-far", "harish-narayanan",
           "basyn", "basyn+pro", "basyn+adwl", "sync-delta"}
    return {"spec": SPEC} if method in gpu else {}


def zero_weight_graph():
    """A graph with several zero-weight edges (including a 0-cycle)."""
    src = np.array([0, 1, 2, 0, 3, 4])
    dst = np.array([1, 2, 0, 3, 4, 5])
    w = np.array([0.0, 0.0, 0.0, 2.0, 0.0, 3.0])
    return from_edges(src, dst, w, num_vertices=6, symmetrize=True)


def equal_weight_graph():
    g = kronecker(6, 6, seed=70)
    return g.with_weights(np.full(g.num_edges, 5.0))


def extreme_weight_graph():
    src = np.array([0, 1, 0])
    dst = np.array([1, 2, 2])
    w = np.array([1e-12, 1e12, 1e15])
    return from_edges(src, dst, w, num_vertices=3, symmetrize=True)


@pytest.mark.parametrize("method", FAST_METHODS)
class TestHostileInputs:
    def test_zero_weight_edges(self, method):
        g = zero_weight_graph()
        r = sssp(g, 0, method=method, **_kwargs(method))
        validate_distances(g, 0, r.dist)
        assert r.dist[2] == 0.0  # reached through the 0-cycle

    def test_all_weights_equal(self, method):
        g = equal_weight_graph()
        r = sssp(g, 0, method=method, **_kwargs(method))
        validate_distances(g, 0, r.dist)

    def test_extreme_weight_range(self, method):
        g = extreme_weight_graph()
        r = sssp(g, 0, method=method, **_kwargs(method))
        validate_distances(g, 0, r.dist)

    def test_two_isolated_vertices(self, method):
        g = CSRGraph(
            row=np.array([0, 0, 0]), adj=np.array([]), weights=np.array([])
        )
        r = sssp(g, 0, method=method, **_kwargs(method))
        assert r.dist[0] == 0.0
        assert np.isinf(r.dist[1])

    def test_single_vertex(self, method):
        g = CSRGraph(row=np.array([0, 0]), adj=np.array([]), weights=np.array([]))
        r = sssp(g, 0, method=method, **_kwargs(method))
        assert list(r.dist) == [0.0]

    def test_many_components(self, method):
        src = np.array([0, 2, 4, 6])
        dst = np.array([1, 3, 5, 7])
        g = from_edges(src, dst, np.ones(4), num_vertices=9, symmetrize=True)
        r = sssp(g, 4, method=method, **_kwargs(method))
        validate_distances(g, 4, r.dist)
        assert np.isfinite(r.dist).sum() == 2


class TestParallelAndSelfEdges:
    def test_parallel_edges_kept_min(self):
        g = from_edges(
            np.array([0, 0, 0]),
            np.array([1, 1, 1]),
            np.array([9.0, 2.0, 5.0]),
            num_vertices=2,
        )
        assert g.num_edges == 1
        r = sssp(g, 0, method="dijkstra")
        assert r.dist[1] == 2.0

    def test_self_loop_never_hurts(self):
        g = from_edges(
            np.array([0, 0]),
            np.array([0, 1]),
            np.array([0.5, 3.0]),
            num_vertices=2,
            drop_self_loops=False,
        )
        for method in ("rdbs", "delta-cpu"):
            r = sssp(g, 0, method=method, **_kwargs(method))
            assert r.dist[0] == 0.0
            assert r.dist[1] == 3.0

    def test_dedup_disabled_parallel_edges_still_correct(self):
        g = from_edges(
            np.array([0, 0]),
            np.array([1, 1]),
            np.array([9.0, 2.0]),
            num_vertices=2,
            dedup=False,
        )
        r = sssp(g, 0, method="rdbs", spec=SPEC)
        assert r.dist[1] == 2.0


class TestSourceChoices:
    def test_every_source_of_a_small_graph(self):
        g = kronecker(5, 6, weights="int", seed=71)
        for s in range(g.num_vertices):
            r = sssp(g, s, method="rdbs", spec=SPEC)
            validate_distances(g, s, r.dist)

    def test_leaf_source_on_star(self):
        from repro.graphs import star

        g = star(20)
        r = sssp(g, 5, method="rdbs", spec=SPEC)
        assert r.dist[5] == 0.0
        assert r.dist[0] == 1.0
        assert r.dist[7] == 2.0


class TestDeterminism:
    @pytest.mark.parametrize("method", ["rdbs", "adds", "bl"])
    def test_same_input_same_measurements(self, method):
        """The simulator is fully deterministic: identical runs produce
        identical times and counters."""
        g = kronecker(7, 8, weights="int", seed=72)
        a = sssp(g, 0, method=method, spec=SPEC)
        b = sssp(g, 0, method=method, spec=SPEC)
        assert a.time_ms == b.time_ms
        assert np.array_equal(a.dist, b.dist)
        assert (
            a.counters.totals.total_warp_instructions
            == b.counters.totals.total_warp_instructions
        )

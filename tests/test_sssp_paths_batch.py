"""Tests for shortest-path-tree reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import from_edges, kronecker, path, star
from repro.gpusim import V100
from repro.sssp import (
    build_parents,
    extract_path,
    scipy_distances,
    shortest_path_tree,
    validate_path,
)

SPEC = V100.scaled_for_workload(1 / 64)


class TestBuildParents:
    def test_path_graph(self):
        g = path(5)
        d = scipy_distances(g, 0)
        parents = build_parents(g, d, 0)
        assert list(parents) == [-1, 0, 1, 2, 3]

    def test_unreachable_has_no_parent(self):
        g = from_edges(np.array([0]), np.array([1]), np.array([1.0]),
                       num_vertices=3)
        parents = build_parents(g, scipy_distances(g, 0), 0)
        assert parents[2] == -1

    def test_rejects_unrelaxed_distances(self):
        g = path(4)
        d = scipy_distances(g, 0)
        d[3] = 100.0  # an edge could still shorten this
        with pytest.raises(ValueError, match="not relaxed"):
            build_parents(g, d, 0)

    def test_rejects_foreign_distances(self):
        g = path(4)
        d = scipy_distances(g, 0)
        d[2] = 1.5  # no tight incoming edge produces 1.5
        with pytest.raises(ValueError):
            build_parents(g, d, 0)

    def test_wrong_shape(self):
        g = path(4)
        with pytest.raises(ValueError):
            build_parents(g, np.zeros(3), 0)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_parents_reconstruct_exact_distances(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 20, 60
        g = from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m),
            rng.integers(1, 9, m).astype(float),
            num_vertices=n, symmetrize=True,
        )
        d = scipy_distances(g, 0)
        parents = build_parents(g, d, 0)
        # walking every reachable vertex back to the source reproduces d
        for v in np.flatnonzero(np.isfinite(d)):
            p = extract_path(parents, 0, int(v))
            assert p[0] == 0 and p[-1] == v
            validate_path(g, p, float(d[v]))


class TestExtractPath:
    def test_source_to_itself(self):
        assert extract_path(np.array([-1, 0]), 0, 0) == [0]

    def test_unreachable(self):
        assert extract_path(np.array([-1, -1]), 0, 1) == []

    def test_cycle_detected(self):
        parents = np.array([-1, 2, 1])
        with pytest.raises(ValueError):
            extract_path(parents, 0, 2)


class TestValidatePath:
    def test_rejects_fake_edge(self):
        g = path(4)
        with pytest.raises(AssertionError, match="no edge"):
            validate_path(g, [0, 2], 2.0)

    def test_rejects_wrong_length(self):
        g = path(4)
        with pytest.raises(AssertionError, match="path length"):
            validate_path(g, [0, 1, 2], 5.0)

    def test_rejects_empty(self):
        with pytest.raises(AssertionError):
            validate_path(path(3), [], 0.0)


class TestShortestPathTree:
    def test_end_to_end_with_rdbs(self):
        g = kronecker(8, 8, weights="int", seed=5)
        t = shortest_path_tree(g, 0, method="rdbs", spec=SPEC)
        assert t.distance_to(0) == 0.0
        far = int(np.argmax(np.where(np.isfinite(t.dist), t.dist, -1)))
        p = t.path_to(far)
        validate_path(g, p, t.distance_to(far))

    def test_depth_histogram(self):
        t = shortest_path_tree(star(6), 0, method="dijkstra")
        hist = t.depth_histogram()
        assert hist[0] == 1 and hist[1] == 6

    def test_reached(self):
        g = from_edges(np.array([0]), np.array([1]), np.array([1.0]),
                       num_vertices=4, symmetrize=True)
        t = shortest_path_tree(g, 0, method="dijkstra")
        assert t.reached == 2


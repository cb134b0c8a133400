"""Tests for the reference algorithms and the validation oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sssp.reference as reference
from repro.graphs import from_edges, kronecker, path, star
from repro.sssp import (
    DistanceMismatch,
    bellman_ford,
    dijkstra,
    scipy_distances,
    validate_distances,
)


def random_graph(seed, n=25, m=80):
    rng = np.random.default_rng(seed)
    return from_edges(
        rng.integers(0, n, m),
        rng.integers(0, n, m),
        rng.integers(1, 30, m).astype(float),
        num_vertices=n,
        symmetrize=True,
    )


class TestDijkstra:
    def test_path_graph(self):
        r = dijkstra(path(5, weight=2.0), 0)
        assert list(r.dist) == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_star_graph(self):
        r = dijkstra(star(4, weight=3.0), 0)
        assert r.dist[0] == 0.0
        assert np.all(r.dist[1:] == 3.0)

    def test_unreachable_is_inf(self):
        g = from_edges(np.array([0]), np.array([1]), np.array([1.0]), num_vertices=3)
        r = dijkstra(g, 0)
        assert np.isinf(r.dist[2])
        assert r.reached == 2

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            dijkstra(path(3), 5)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_matches_scipy(self, seed):
        g = random_graph(seed)
        r = dijkstra(g, 0)
        assert np.allclose(
            r.dist, scipy_distances(g, 0), equal_nan=False
        ) or np.array_equal(np.isinf(r.dist), np.isinf(scipy_distances(g, 0)))
        validate_distances(g, 0, r.dist)


class TestBellmanFord:
    def test_matches_dijkstra(self):
        g = random_graph(7)
        assert np.allclose(bellman_ford(g, 0).dist, dijkstra(g, 0).dist)

    def test_rounds_bounded_by_depth(self):
        g = path(10)
        r = bellman_ford(g, 0)
        assert r.extra["rounds"] <= 10

    def test_max_rounds_cutoff(self, monkeypatch):
        monkeypatch.setattr(reference, "MAX_ROUNDS", 2)
        g = path(50)
        r = bellman_ford(g, 0)
        assert np.isinf(r.dist[10])

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_scipy(self, seed):
        g = random_graph(seed, n=15, m=40)
        validate_distances(g, 0, bellman_ford(g, 0).dist)


class TestValidate:
    def test_accepts_correct(self):
        g = kronecker(6, 4, seed=1)
        validate_distances(g, 0, scipy_distances(g, 0))

    def test_rejects_wrong_value(self):
        g = path(4)
        d = scipy_distances(g, 0)
        d[2] += 1.0
        with pytest.raises(DistanceMismatch, match="distance error"):
            validate_distances(g, 0, d)

    def test_rejects_wrong_reachability(self):
        g = from_edges(np.array([0]), np.array([1]), np.array([1.0]), num_vertices=3)
        d = scipy_distances(g, 0)
        d[2] = 5.0  # claims the unreachable vertex is reachable
        with pytest.raises(DistanceMismatch, match="reachability"):
            validate_distances(g, 0, d)

    def test_rejects_wrong_shape(self):
        g = path(4)
        with pytest.raises(DistanceMismatch, match="shape"):
            validate_distances(g, 0, np.zeros(3))

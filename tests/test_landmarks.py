"""Tests for the ALT landmark distance oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import from_edges, grid_road_network, kronecker, path
from repro.gpusim import V100
from repro.sssp import (
    LandmarkOracle,
    build_landmark_oracle,
    scipy_distances,
    select_landmarks,
)

SPEC = V100.scaled_for_workload(1 / 64)


class TestSelection:
    def test_selects_k_distinct(self):
        g = kronecker(8, 8, weights="int", seed=90)
        landmarks, matrix = select_landmarks(g, 4, spec=SPEC)
        assert len(set(landmarks.tolist())) == landmarks.size == 4
        assert matrix.shape == (4, g.num_vertices)

    def test_farthest_point_spread_on_path(self):
        """On a path, the 2nd landmark lands at an end far from the 1st."""
        g = path(50)
        landmarks, _ = select_landmarks(g, 2, method="dijkstra", seed=3)
        assert abs(int(landmarks[1]) - int(landmarks[0])) >= 25

    def test_caps_at_component_size(self):
        g = path(3)
        landmarks, _ = select_landmarks(g, 10, method="dijkstra")
        assert landmarks.size <= 3

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            select_landmarks(path(4), 0)


class TestOracleBounds:
    @pytest.fixture(scope="class")
    def setup(self):
        g = grid_road_network(12, 12, seed=91)
        oracle = build_landmark_oracle(g, 5, method="dijkstra", seed=1)
        exact = {s: scipy_distances(g, s) for s in [0, 50, 100]}
        return g, oracle, exact

    def test_bounds_bracket_exact(self, setup):
        g, oracle, exact = setup
        for s, d in exact.items():
            for v in range(0, g.num_vertices, 7):
                if not np.isfinite(d[v]):
                    continue
                lo, hi = oracle.bounds(s, v)
                assert lo <= d[v] + 1e-9, (s, v)
                assert hi >= d[v] - 1e-9, (s, v)

    def test_exact_for_landmark_queries(self, setup):
        _g, oracle, _ = setup
        lm = int(oracle.landmarks[0])
        for v in range(0, oracle.dist_matrix.shape[1], 13):
            d = oracle.dist_matrix[0, v]
            if not np.isfinite(d):
                continue
            lo, hi = oracle.bounds(lm, v)
            assert lo == pytest.approx(d)
            assert hi == pytest.approx(d)

    def test_self_query(self, setup):
        _g, oracle, _ = setup
        lo, hi = oracle.bounds(5, 5)
        assert lo == 0.0
        assert hi >= 0.0


class TestDisconnected:
    def test_unreachable_pairs(self):
        g = from_edges(
            np.array([0, 2]), np.array([1, 3]), np.ones(2),
            num_vertices=4, symmetrize=True,
        )
        oracle = build_landmark_oracle(g, 2, method="dijkstra")
        lo, hi = oracle.bounds(0, 3)
        assert lo == 0.0          # no landmark sees both sides
        assert hi == float("inf")


@given(seed=st.integers(0, 200), k=st.integers(1, 5))
@settings(max_examples=15, deadline=None)
def test_property_bounds_always_bracket(seed, k):
    rng = np.random.default_rng(seed)
    n, m = 18, 50
    g = from_edges(
        rng.integers(0, n, m), rng.integers(0, n, m),
        rng.integers(1, 20, m).astype(float),
        num_vertices=n, symmetrize=True,
    )
    oracle = build_landmark_oracle(g, k, method="dijkstra", seed=seed)
    s = int(rng.integers(0, n))
    exact = scipy_distances(g, s)
    for v in range(n):
        if not np.isfinite(exact[v]):
            continue
        lo, hi = oracle.bounds(s, v)
        assert lo <= exact[v] + 1e-9
        assert hi >= exact[v] - 1e-9

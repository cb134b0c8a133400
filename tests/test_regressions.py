"""Regression tests for bugs found and fixed during development.

Each test pins the exact scenario that originally failed, so the bug class
cannot silently return.
"""

import numpy as np
import pytest

from repro.graphs import grid_road_network, kronecker, largest_component_vertices
from repro.gpusim import V100
from repro.sssp import DeltaController, rdbs_sssp, validate_distances

SPEC = V100.scaled_for_workload(1 / 64)


class TestDynamicDeltaHeavySplit:
    """Bug: with the Eq. 1–2 controller, bucket widths can exceed the
    preprocessing Δ.  Heavy edges (split at the *old* Δ) then land inside
    the current bucket; the vertex is below ``b_hi`` when the bucket
    closes, the sweep pointer moves past it, and its out-edges are never
    relaxed — one vertex ends up unreachable.  Originally reproduced on
    the road-TX surrogate (dense distances, many buckets, growing Δ).
    Fix: re-split the heavy offsets on device whenever the bucket width
    outgrows the current split threshold (the paper's adaptive offsets,
    §4.1)."""

    def test_road_surrogate_full_run(self):
        g = grid_road_network(64, 64, diagonal_prob=0.03, drop_prob=0.06, seed=11)
        src = int(largest_component_vertices(g)[0])
        r = rdbs_sssp(g, src, spec=SPEC)
        validate_distances(g, src, r.dist)

    def test_forced_delta_growth(self):
        """Drive the controller hard: tiny Δ0 so widths must grow a lot."""
        g = kronecker(8, 8, weights="int", seed=97)
        src = int(largest_component_vertices(g)[0])
        r = rdbs_sssp(g, src, delta=5.0, spec=SPEC)
        validate_distances(g, src, r.dist)

    def test_width_growth_triggers_resplit_kernel(self):
        g = grid_road_network(32, 32, seed=12)
        src = int(largest_component_vertices(g)[0])
        r = rdbs_sssp(g, src, delta=50.0, spec=SPEC)
        validate_distances(g, src, r.dist)
        resplits = [
            k for k in r.extra["timeline"].records
            if k.name == "resplit_offsets"
        ]
        assert len(resplits) >= 1


class TestControllerEmptyBuckets:
    """Bug class: sparse distance ranges produce long runs of empty
    intervals; the controller must keep advancing (zero feedback keeps the
    width, Eq. 1 denominators guard division by zero)."""

    def test_zero_feedback_division_guard(self):
        c = DeltaController(10.0)
        c.next_interval()
        c.feedback(0, 0)
        c.next_interval()
        c.feedback(0, 0)
        assert c.epsilon(2) == 0.0

    def test_huge_weight_gap(self):
        """Two clusters joined by one enormous edge: most intervals
        between them are empty."""
        from repro.graphs import from_edges

        src = np.array([0, 1, 3, 4, 2])
        dst = np.array([1, 2, 4, 5, 3])
        w = np.array([1.0, 1.0, 1.0, 1.0, 5000.0])
        g = from_edges(src, dst, w, num_vertices=6, symmetrize=True)
        r = rdbs_sssp(g, 0, delta=2.0, spec=SPEC)
        validate_distances(g, 0, r.dist)


class TestFrontierChunkBoundary:
    """Bug class: splitting the async queue mid-array must neither drop
    nor duplicate vertices."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_tiny_chunks_exact(self, chunk):
        g = kronecker(7, 8, weights="int", seed=98)
        src = int(largest_component_vertices(g)[0])
        r = rdbs_sssp(g, src, spec=SPEC, async_chunk=chunk)
        validate_distances(g, src, r.dist)


class TestReorderedSourceMapping:
    """Bug class: with PRO the engine runs in relabeled id space; the
    source must be mapped in and the distances mapped out."""

    def test_every_source_round_trips(self):
        g = kronecker(6, 6, weights="int", seed=99)
        for s in range(0, g.num_vertices, 5):
            a = rdbs_sssp(g, s, pro=True, spec=SPEC).dist
            b = rdbs_sssp(g, s, pro=False, spec=SPEC).dist
            assert np.array_equal(a, b), s

"""Tests for the Harish–Narayanan baseline and the async chunk-size knob."""

import pytest

import repro.sssp.gpu_harish as gpu_harish
from repro.graphs import kronecker, path, star
from repro.gpusim import V100
from repro.sssp import (
    ConvergenceError,
    harish_narayanan_sssp,
    rdbs_sssp,
    sssp,
    validate_distances,
)

SPEC = V100.scaled_for_workload(1 / 64)


class TestHarishNarayanan:
    @pytest.mark.parametrize(
        "graph", [kronecker(7, 6, weights="int", seed=60), path(30), star(50)]
    )
    def test_correct(self, graph):
        r = harish_narayanan_sssp(graph, 0, spec=SPEC)
        validate_distances(graph, 0, r.dist)

    def test_topology_driven_reads_all_vertices(self):
        """Every iteration loads every vertex's mask — the design's
        signature inefficiency."""
        g = path(50)
        r = harish_narayanan_sssp(g, 0, spec=SPEC)
        iters = r.extra["iterations"]
        c = r.counters.totals
        # at least n/32 warp-level mask loads per iteration (thread/vertex)
        assert c.inst_executed_global_loads >= (g.num_vertices // 32) * (iters - 1)

    def test_divergence_on_sparse_masks(self):
        g = path(40)
        r = harish_narayanan_sssp(g, 0, spec=SPEC)
        assert r.counters.totals.divergent_branches > 0

    def test_registered_in_api(self):
        g = path(8)
        r = sssp(g, 0, method="harish-narayanan", spec=SPEC)
        assert r.method == "harish-narayanan"

    def test_iteration_cutoff(self, monkeypatch):
        g = path(30)
        # a bound of n + slack = 3 iterations
        monkeypatch.setattr(gpu_harish, "ITERATION_SLACK", 3 - g.num_vertices)
        with pytest.raises(ConvergenceError, match="iteration limit"):
            harish_narayanan_sssp(g, 0, spec=SPEC)

    def test_source_validation(self):
        with pytest.raises(ValueError):
            harish_narayanan_sssp(path(4), 10, spec=SPEC)


class TestAsyncChunk:
    def test_chunk_correctness(self):
        g = kronecker(8, 8, weights="int", seed=61)
        for chunk in (1, 7, 64, 100_000):
            r = rdbs_sssp(g, 0, spec=SPEC, async_chunk=chunk)
            validate_distances(g, 0, r.dist)

    def test_smaller_chunks_more_rounds(self):
        from repro.graphs import largest_component_vertices

        g = kronecker(10, 8, weights="int", seed=62)
        src = int(largest_component_vertices(g)[0])
        small = rdbs_sssp(g, src, spec=SPEC, async_chunk=8).extra["rounds"]
        big = rdbs_sssp(g, src, spec=SPEC, async_chunk=100_000).extra["rounds"]
        assert small > big

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            rdbs_sssp(path(4), 0, spec=SPEC, async_chunk=0)

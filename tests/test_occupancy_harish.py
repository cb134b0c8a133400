"""Tests for the occupancy calculator, the Harish–Narayanan baseline and
the async chunk-size knob."""

import pytest

from repro.graphs import kronecker, path, star
from repro.gpusim import (
    OccupancyLimits,
    T4,
    V100,
    clamp_grid,
    occupancy,
)
from repro.sssp import (
    ConvergenceError,
    harish_narayanan_sssp,
    rdbs_sssp,
    sssp,
    validate_distances,
)

SPEC = V100.scaled_for_workload(1 / 64)


class TestOccupancy:
    def test_full_occupancy_small_blocks(self):
        o = occupancy(V100, 256)
        assert o.is_full
        assert o.warps_per_sm == V100.max_warps_per_sm
        assert o.blocks_per_sm == 8

    def test_warp_slot_limited(self):
        o = occupancy(V100, 1024)
        assert o.limiter in ("warp-slots", "registers")
        assert o.warps_per_sm <= V100.max_warps_per_sm

    def test_register_pressure_reduces_occupancy(self):
        light = occupancy(V100, 256, registers_per_thread=32)
        heavy = occupancy(V100, 256, registers_per_thread=255)
        assert heavy.warps_per_sm < light.warps_per_sm
        assert heavy.limiter == "registers"

    def test_shared_memory_limit(self):
        o = occupancy(V100, 128, shared_mem_per_block=48 * 1024)
        assert o.blocks_per_sm == 2
        assert o.limiter == "shared-memory"

    def test_t4_has_fewer_warp_slots(self):
        assert occupancy(T4, 256).warps_per_sm <= occupancy(V100, 256).warps_per_sm

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            occupancy(V100, 0)
        with pytest.raises(ValueError):
            occupancy(V100, 2048)

    def test_custom_limits(self):
        tight = OccupancyLimits(max_blocks_per_sm=2)
        o = occupancy(V100, 32, limits=tight)
        assert o.blocks_per_sm == 2
        assert o.limiter == "block-slots"

    def test_occupancy_fraction_bounds(self):
        for tpb in (32, 64, 128, 256, 512, 1024):
            o = occupancy(V100, tpb)
            assert 0.0 < o.occupancy <= 1.0


class TestClampGrid:
    def test_small_work_fits(self):
        assert clamp_grid(V100, 100, 256) == 1

    def test_large_work_clamped(self):
        blocks = clamp_grid(V100, 10**9, 256, max_waves=8)
        assert blocks == 8 * V100.num_sms * 8  # 8 blocks/SM * 80 SMs * 8 waves

    def test_zero_work(self):
        assert clamp_grid(V100, 0, 256) == 0

    def test_exact_boundary(self):
        assert clamp_grid(V100, 256, 256) == 1
        assert clamp_grid(V100, 257, 256) == 2


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

    def test_iteration_cutoff(self):
        g = path(30)
        with pytest.raises(ConvergenceError, match="iteration limit"):
            harish_narayanan_sssp(g, 0, spec=SPEC, max_iterations=3)

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

"""The test before ``atomicMin`` in the shared relax layer.

``relax_batch`` resolves a batch of at least
:func:`~repro.gpusim.timemodel.relax_filter_gate` lanes per dependent step
with a plain ``dist[v]`` read, a branch, and an ``atomicMin`` from the
lanes below their cell only; narrower batches issue the plain atomic.
These tests pin the three promises that make the filter safe to share:
its outcome is the plain atomic's, a narrow batch's counters are the
plain atomic's, and the gate is a pure function of the spec.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.graphs import from_edges
from repro.gpusim import (
    A100,
    T4,
    V100,
    GPUDevice,
    grid_stride,
    relax_filter_gate,
    subset_assignment,
    thread_per_item,
)
from repro.metrics import WorkStats
from repro.sssp.relax import DeviceGraph, relax_batch
from repro.util.scan import serialized_min_outcome

#: sources and targets of the duplicate-heavy batch: every source has an
#: edge to every target, so each target cell takes ``SOURCES`` lanes
SOURCES, TARGETS = 128, 16


def dense_bipartite(seed: int = 0):
    """``SOURCES`` x ``TARGETS`` edges with random weights, and the
    starting ``dist``: finite on the sources, mixed on the targets."""
    rng = np.random.default_rng(seed)
    n = SOURCES + TARGETS
    src = np.repeat(np.arange(SOURCES), TARGETS)
    dst = SOURCES + np.tile(np.arange(TARGETS), SOURCES)
    w = rng.integers(1, 50, src.size).astype(np.float64)
    g = from_edges(src, dst, w, num_vertices=n, name="dense-bipartite")
    dist0 = np.full(n, np.inf)
    dist0[:SOURCES] = rng.integers(0, 40, SOURCES)
    dist0[SOURCES::2] = rng.integers(10, 60, TARGETS // 2)
    return g, dist0


class DistAccesses:
    """Observer counting the ``dist`` reads and atomics of each kind."""

    def __init__(self, dist) -> None:
        self.dist = dist
        self.reads = 0
        self.atomics = 0

    def on_access(self, ctx, kind, arr, idx, values, a) -> None:
        if arr is self.dist:
            self.reads += kind == "read"
            self.atomics += kind == "atomic_min"


def run_batch(spec, threads: int, *, plain: bool = False):
    """Relax every edge of :func:`dense_bipartite` in one launch.

    ``plain=True`` runs the same loads, ALU and a plain ``atomic_min``
    by hand: the reference a narrow batch must match exactly.
    """
    g, dist0 = dense_bipartite()
    dev = GPUDevice(spec)
    dg = DeviceGraph(dev, g)
    dist = dev.alloc(dist0.copy(), "dist")
    probe = DistAccesses(dist)
    dev.attach(probe)
    vertices = np.arange(SOURCES, dtype=np.int64)
    batch = dg.batch(vertices, "all")
    a = grid_stride(batch.num_edges, threads)
    stats = WorkStats()
    with dev.launch("relax") as k:
        if plain:
            du = k.gather(dist, vertices, thread_per_item(vertices.size))
            v = k.gather(dg.adj, batch.edge_idx, a)
            wt = k.gather(dg.weights, batch.edge_idx, a)
            k.alu(a, ops=3)
            nd = du[batch.src_pos] + wt
            _old, updated = k.atomic_min(dist, v, nd, a)
            stats.record(v, nd, updated)
            out = (v, updated, nd)
        else:
            res = relax_batch(k, dg, dist, vertices, batch, a, stats)
            out = (res.targets, res.updated, res.new_dist)
        critical = k.critical_instructions
    return dev, dist, out, stats, probe, critical


def tally(stats: WorkStats) -> tuple:
    return stats.relaxations, stats.checks, stats.total_updates


class TestGate:
    def test_gate_from_the_time_model(self):
        # warp_size * 2 * SERIAL_CPI * num_sms / atomic_serialization_cycles
        assert relax_filter_gate(V100) == 1024
        assert relax_filter_gate(T4) == 512
        assert relax_filter_gate(A100) == pytest.approx(1382.4)

    def test_gate_ignores_workload_scaling(self):
        # scaled specs shrink latencies and capacities, never SMs
        assert relax_filter_gate(V100.scaled_for_workload(1 / 64)) == 1024

    def test_t4_filters_at_half_v100_width(self):
        # 2048 lanes over 3 steps, 683 per step: above T4's gate of 512,
        # below V100's of 1024
        _, _, _, _, v100, _ = run_batch(V100, 768)
        _, _, _, _, t4, _ = run_batch(T4, 768)
        assert (v100.reads, v100.atomics) == (1, 1)
        assert (t4.reads, t4.atomics) == (2, 1)


class TestFilteredOutcome:
    def test_equals_serialized_min_over_the_whole_batch(self):
        g, dist0 = dense_bipartite()
        dev, dist, (v, updated, nd), stats, probe, _ = run_batch(V100, 2048)
        assert probe.reads == 2  # the filter fired
        src = np.repeat(np.arange(SOURCES), np.diff(g.row)[:SOURCES])
        exp_nd = dist0[src] + g.weights
        expected = dist0.copy()
        _old, exp_updated = serialized_min_outcome(expected, g.adj, exp_nd)
        np.testing.assert_array_equal(v, g.adj)
        np.testing.assert_array_equal(nd, exp_nd)
        np.testing.assert_array_equal(updated, exp_updated)
        np.testing.assert_array_equal(dist.data, expected)
        ref = WorkStats()
        ref.record(g.adj, exp_nd, exp_updated)
        assert tally(stats) == tally(ref)
        final = dist.data
        assert stats.finalize(final) == ref.finalize(final)

    def test_many_duplicates_really_conflict(self):
        # the fixture must exercise serialization: far more lanes than cells
        _, _, (v, updated, _), _, _, _ = run_batch(V100, 2048)
        assert v.size == SOURCES * TARGETS
        assert 0 < updated.sum() < v.size

    def test_wide_batch_adds_one_gather_and_sheds_conflicts(self):
        wide_dev, _, wide_out, _, wide, wide_crit = run_batch(V100, 2048)
        plain_dev, _, plain_out, _, plain, plain_crit = run_batch(
            V100, 2048, plain=True
        )
        for x, y in zip(wide_out, plain_out):
            np.testing.assert_array_equal(x, y)
        assert (wide.reads, wide.atomics) == (plain.reads + 1, 1)
        w, p = wide_dev.counters.totals, plain_dev.counters.totals
        assert w.atomic_conflicts < p.atomic_conflicts
        # one dist load and one compare branch on the critical path
        assert wide_crit == plain_crit + 2
        # the compare branch issues once per slot: 2048 lanes, 64 warps
        assert w.branch_instructions == p.branch_instructions + 64

    def test_narrow_batch_counters_equal_plain_atomic(self):
        # 16 lanes per step: far below the gate
        dev, dist, out, stats, probe, crit = run_batch(V100, 128)
        ref_dev, ref_dist, ref_out, ref_stats, ref_probe, ref_crit = run_batch(
            V100, 128, plain=True
        )
        assert (probe.reads, probe.atomics) == (1, 1)
        assert dev.counters.totals.as_dict() == ref_dev.counters.totals.as_dict()
        assert crit == ref_crit
        np.testing.assert_array_equal(dist.data, ref_dist.data)
        for x, y in zip(out, ref_out):
            np.testing.assert_array_equal(x, y)
        assert tally(stats) == tally(ref_stats)

    def test_weight_filter_path_takes_the_same_test(self):
        # no-PRO arm: the weight branch selects lanes, then the gate applies
        # to the selected lanes' assignment
        g, dist0 = dense_bipartite()
        spec = replace(V100, num_sms=1)  # gate 12.8 lanes per step
        dev = GPUDevice(spec)
        dg = DeviceGraph(dev, g)
        dist = dev.alloc(dist0.copy(), "dist")
        probe = DistAccesses(dist)
        dev.attach(probe)
        vertices = np.arange(SOURCES, dtype=np.int64)
        batch = dg.batch(vertices, "all")
        with dev.launch("relax") as k:
            out = relax_batch(
                k, dg, dist, vertices, batch,
                grid_stride(batch.num_edges, 2048), None,
                weight_filter=(25.0, True),
            )
        light = g.weights < 25.0
        src = np.repeat(np.arange(SOURCES), np.diff(g.row)[:SOURCES])
        expected = dist0.copy()
        _old, exp_updated = serialized_min_outcome(
            expected, g.adj[light], (dist0[src] + g.weights)[light]
        )
        assert probe.reads == 2
        np.testing.assert_array_equal(out.targets, g.adj[light])
        np.testing.assert_array_equal(out.updated, exp_updated)
        np.testing.assert_array_equal(dist.data, expected)


class TestBranchSlots:
    @pytest.mark.parametrize("threads", [64, 2048])
    def test_branch_returns_the_subset_slot_count(self, threads):
        dev = GPUDevice(V100)
        rng = np.random.default_rng(1)
        a = grid_stride(3000, threads)
        taken = rng.random(3000) < 0.1
        with dev.launch("k") as k:
            taken_slots = k.branch(a, taken)
        counted = subset_assignment(a, taken)
        given = subset_assignment(a, taken, taken_slots)
        assert taken_slots == counted.num_slots == given.num_slots
        assert given.max_steps == counted.max_steps
        np.testing.assert_array_equal(given.slots, counted.slots)

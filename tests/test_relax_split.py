"""The near/far split inside the relax producer.

``relax_batch(split=threshold)`` ballots ``new_dist >= threshold`` over
the updated lanes on the step that resolved their atomic, so ADDS and
Near-Far get their near/far placement without a second multisplit pass.
These tests pin what that may and may not change: the placement and
every counter are the two-step path's, and only the critical path loses
the rank-resolve step — exactly the updated subset's ``max_steps`` per
call.  A standalone ``k.multisplit`` keeps the pass cost.  The nested
subset regression pins the slot stride a subset decodes its steps with.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import benchmark_spec, get_graph, pick_sources
from repro.faults import faulty_sssp
from repro.graphs import from_edges, kronecker, largest_component_vertices
from repro.gpusim import (
    V100,
    GPUDevice,
    ballot_rounds,
    grid_stride,
    subset_assignment,
    thread_per_vertex_edges,
)
from repro.gpusim.device import KernelContext
from repro.metrics import WorkStats
from repro.sssp import sssp, validate_distances
from repro.sssp.relax import DeviceGraph, relax_batch

SPEC = benchmark_spec()


def _steps(a) -> np.ndarray:
    return a.slots % a.step_stride


class TestNestedSubset:
    def test_subset_of_a_subset_keeps_the_factory_stride(self):
        # two warps: the first streams 10 steps, the second 2
        a = thread_per_vertex_edges(np.array([10] * 32 + [2] * 32))
        assert a.max_steps == a.step_stride == 10
        first = subset_assignment(a, _steps(a) < 7)
        assert first.max_steps == 7
        assert first.step_stride == 10
        second = subset_assignment(first, _steps(first) < 2)
        # decoding with the first subset's max_steps (7) read the second
        # warp's steps 0 and 1 as 3 and 4
        assert second.max_steps == 2
        assert second.num_items == 64 * 2
        assert second.num_slots == 4

    def test_nested_subset_equals_the_direct_subset(self):
        a = grid_stride(5000, 256)  # 20 steps
        outer = _steps(a) < 13
        inner = subset_assignment(a, outer)
        keep = _steps(inner) % 4 == 1
        nested = subset_assignment(inner, keep)
        direct_mask = outer.copy()
        direct_mask[outer] = keep
        direct = subset_assignment(a, direct_mask)
        assert nested.max_steps == direct.max_steps
        assert nested.num_slots == direct.num_slots
        assert np.array_equal(nested.slots, direct.slots)


def _graph(seed: int = 0):
    """A random multigraph whose relax batch mixes hits and misses."""
    rng = np.random.default_rng(seed)
    n, m = 400, 6000
    src = rng.integers(0, 100, m)
    dst = rng.integers(0, n, m)
    w = rng.integers(1, 40, m).astype(np.float64)
    g = from_edges(src, dst, w, num_vertices=n, name="split-fixture")
    dist0 = np.full(n, np.inf)
    dist0[:100] = rng.integers(0, 30, 100)
    dist0[100::3] = rng.integers(20, 80, dist0[100::3].size)
    return g, dist0


def _relax(mapping: str, threshold: float, *, producer: bool):
    """Relax every edge out of vertices 0..99 in one launch.

    ``producer=False`` is the two-step path: ``relax_batch`` without a
    split, then a standalone multisplit of the updated subset.  Returns
    the near/far (targets, values), the device counters and the
    launch's critical path, plus the updated subset's ``max_steps``.
    """
    g, dist0 = _graph()
    dev = GPUDevice(V100)
    dg = DeviceGraph(dev, g)
    dist = dev.alloc(dist0.copy(), "dist")
    vertices = np.arange(100, dtype=np.int64)
    batch = dg.batch(vertices, "all")
    a = (thread_per_vertex_edges(batch.counts) if mapping == "vertex"
         else grid_stride(batch.num_edges, 64 * 32))
    sub_steps = 0
    with dev.launch("relax") as k:
        if producer:
            out = relax_batch(k, dg, dist, vertices, batch, a, WorkStats(),
                              split=threshold)
            near, far = out.near, out.far
        else:
            out = relax_batch(k, dg, dist, vertices, batch, a, WorkStats())
            lanes = np.flatnonzero(out.updated)
            near = far = lanes
            if lanes.size:
                sub = subset_assignment(a, out.updated)
                sub_steps = sub.max_steps
                order, offs = k.multisplit(
                    (out.new_dist[lanes] >= threshold).astype(np.int64), 2,
                    sub)
                near, far = lanes[order[: offs[1]]], lanes[order[offs[1]:]]
        crit = k.critical_instructions
    placed = tuple((out.targets[lanes], out.new_dist[lanes])
                   for lanes in (near, far))
    return placed, vars(dev.counters.totals), crit, sub_steps


class TestProducerSplit:
    # the vertex mapping is narrow (plain atomic), the grid-stride one
    # wide enough for the test before the atomic
    @pytest.mark.parametrize("mapping", ["vertex", "grid"])
    @pytest.mark.parametrize("threshold", [0.0, 35.0, 50.0, np.inf])
    def test_matches_the_two_step_path(self, mapping, threshold):
        placed, counters, crit, _ = _relax(mapping, threshold, producer=True)
        ref, ref_counters, ref_crit, sub_steps = _relax(
            mapping, threshold, producer=False)
        for (t, v), (rt, rv) in zip(placed, ref):
            assert np.array_equal(t, rt)
            assert np.array_equal(v, rv)
        near, far = placed
        assert (near[1] < threshold).all() and (far[1] >= threshold).all()
        assert near[0].size + far[0].size > 0
        assert counters == ref_counters
        assert sub_steps > 0
        assert crit == ref_crit - sub_steps

    def test_no_updated_lane_issues_no_split(self):
        g, dist0 = _graph()
        dev = GPUDevice(V100)
        dg = DeviceGraph(dev, g)
        # every cell already at 0: no atomic lowers one
        dist = dev.alloc(np.zeros_like(dist0), "dist")
        vertices = np.arange(100, dtype=np.int64)
        batch = dg.batch(vertices, "all")
        with dev.launch("relax") as k:
            out = relax_batch(k, dg, dist, vertices, batch,
                              thread_per_vertex_edges(batch.counts), None,
                              split=1.0)
        assert out.near.size == out.far.size == 0
        assert dev.counters.totals.multisplit_ops == 0

    def test_empty_batch_places_nothing(self):
        g, dist0 = _graph()
        dev = GPUDevice(V100)
        dg = DeviceGraph(dev, g)
        dist = dev.alloc(dist0, "dist")
        vertices = np.array([399], dtype=np.int64)  # no out-edges
        batch = dg.batch(vertices, "all")
        with dev.launch("relax") as k:
            out = relax_batch(k, dg, dist, vertices, batch,
                              thread_per_vertex_edges(batch.counts), None,
                              split=1.0)
        assert out.near.size == out.far.size == 0


class TestStandaloneMultisplit:
    @pytest.mark.parametrize("buckets", [2, 3, 4])
    def test_pass_charges_the_rank_step(self, buckets):
        a = thread_per_vertex_edges(np.array([5, 3, 9] * 20))
        keys = np.arange(a.num_items, dtype=np.int64) % buckets
        crit = {}
        for producer in (False, True):
            dev = GPUDevice(V100)
            with dev.launch("ms") as k:
                k.multisplit(keys, buckets, a, in_producer=producer)
                crit[producer] = k.critical_instructions
        rounds = ballot_rounds(buckets)
        assert crit[False] == a.max_steps * (rounds + 1)
        assert crit[True] == a.max_steps * rounds


def _standalone_charge(monkeypatch):
    """Charge every multisplit as a standalone pass: the cost of placing
    the producer's hits in a second pass, on otherwise identical work."""
    split = KernelContext.multisplit

    def as_pass(self, keys, num_buckets, a, *, in_producer=False):
        return split(self, keys, num_buckets, a)

    monkeypatch.setattr(KernelContext, "multisplit", as_pass)


@pytest.mark.parametrize("method", ["adds", "near-far"])
@pytest.mark.parametrize("dataset", ["road-TX", "k-n21-16", "Amazon"])
def test_quick_cells_lose_only_critical_path(monkeypatch, dataset, method):
    g = get_graph(dataset)
    src = pick_sources(dataset, 1)[0]
    r = sssp(g, src, method=method, spec=SPEC)
    with monkeypatch.context() as mp:
        _standalone_charge(mp)
        ref = sssp(g, src, method=method, spec=SPEC)
    assert np.array_equal(r.dist, ref.dist)
    assert r.work == ref.work
    c, rc = r.counters.totals, ref.counters.totals
    assert c.total_warp_instructions == rc.total_warp_instructions
    assert c.total_transactions == rc.total_transactions
    assert c.l1_hits == rc.l1_hits
    assert c.shared_transactions == rc.shared_transactions
    assert r.time_ms < ref.time_ms


KRON = kronecker(9, 8, weights="int", seed=0)
KRON_SRC = int(largest_component_vertices(KRON)[0])


@pytest.mark.parametrize("method", ["adds", "near-far"])
@pytest.mark.parametrize("plan", ["lost-updates", "stale-reads", "bitflips",
                                  "kernel-aborts", "chaos"])
def test_fault_plans_recover(method, plan):
    r, rep = faulty_sssp(KRON, KRON_SRC, method=method, plan=plan, seed=0,
                         spec=SPEC)
    validate_distances(KRON, KRON_SRC, r.dist)
    assert rep.escaped == 0
    assert rep.verified is True

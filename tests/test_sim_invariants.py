"""Conservation invariants of the simulator's accounting.

Property-based checks that the measurement plumbing cannot silently leak:
per-kernel counters sum to the device totals, the timeline's durations sum
to the clock (minus inter-kernel barriers), transactions never undercount
instructions' minimum traffic, hits never exceed accesses, and SIMT lane
accounting stays within physical bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import from_edges, kronecker
from repro.gpusim import V100
from repro.sssp import sssp

SPEC = V100.scaled_for_workload(1 / 64)

graph_params = st.tuples(
    st.integers(2, 32), st.integers(0, 100), st.integers(0, 10_000)
)


def build(params):
    n, m, seed = params
    rng = np.random.default_rng(seed)
    g = from_edges(
        rng.integers(0, n, m),
        rng.integers(0, n, m),
        rng.integers(1, 30, m).astype(float),
        num_vertices=n,
        symmetrize=True,
    )
    return g, int(rng.integers(0, n))


def run(params, method="rdbs"):
    g, s = build(params)
    return sssp(g, s, method=method, spec=SPEC)


@given(params=graph_params)
@settings(max_examples=25, deadline=None)
def test_timeline_counters_sum_to_totals(params):
    r = run(params)
    records = r.extra["timeline"].records
    totals = r.counters.totals
    assert sum(
        k.counters.inst_executed_global_loads for k in records
    ) == totals.inst_executed_global_loads
    assert sum(
        k.counters.total_transactions for k in records
    ) == totals.total_transactions
    assert sum(k.counters.l1_hits for k in records) == totals.l1_hits


@given(params=graph_params)
@settings(max_examples=25, deadline=None)
def test_timeline_sums_to_clock(params):
    r = run(params)
    tl = r.extra["timeline"]
    barrier_time = r.counters.totals.barriers * SPEC.barrier_s
    # device barriers recorded inside fused kernels are part of kernel
    # durations; only inter-kernel barriers add outside the timeline
    assert tl.total_s <= r.time_ms * 1e-3 + 1e-15
    assert r.time_ms * 1e-3 <= tl.total_s + barrier_time + 1e-12


@given(params=graph_params)
@settings(max_examples=25, deadline=None)
def test_hits_never_exceed_accesses(params):
    for method in ("rdbs", "bl"):
        c = run(params, method).counters.totals
        assert 0 <= c.l1_hits <= c.l1_accesses
        assert 0.0 <= c.global_hit_rate <= 100.0


@given(params=graph_params)
@settings(max_examples=25, deadline=None)
def test_lane_accounting_bounds(params):
    c = run(params).counters.totals
    # issued lane slots are at least the active lanes and exactly
    # 32x some instruction count
    assert c.active_lanes <= c.lane_slots
    assert c.lane_slots % 32 == 0
    assert 0.0 < c.simt_efficiency <= 1.0


@given(params=graph_params)
@settings(max_examples=25, deadline=None)
def test_transactions_at_least_instruction_floor(params):
    """A warp-level memory instruction issues >= 1 transaction."""
    c = run(params).counters.totals
    assert c.global_load_transactions >= c.inst_executed_global_loads
    assert c.global_store_transactions >= c.inst_executed_global_stores
    assert c.atomic_transactions >= c.inst_executed_atomics


@given(params=graph_params)
@settings(max_examples=20, deadline=None)
def test_update_accounting_consistency(params):
    """updates + checks == relaxations; one valid update per reached
    vertex at minimum (the final write)."""
    r = run(params)
    t = r.work
    assert t.total_updates + t.checks == t.relaxations
    assert t.valid_updates >= r.reached
    assert t.invalid_updates == t.total_updates - t.valid_updates


@given(params=graph_params, chunk=st.sampled_from([1, 16, 4096]))
@settings(max_examples=15, deadline=None)
def test_chunking_does_not_change_distance_or_totals_validity(params, chunk):
    g, s = build(params)
    a = sssp(g, s, method="rdbs", spec=SPEC)
    b = sssp(g, s, method="rdbs", spec=SPEC, async_chunk=chunk)
    assert np.array_equal(a.dist, b.dist)


def test_time_monotone_in_graph_size():
    """More edges, same structure -> at least as much simulated time."""
    small = kronecker(8, 8, weights="int", seed=80)
    big = kronecker(10, 8, weights="int", seed=80)
    t_small = sssp(small, 0, method="rdbs", spec=SPEC).time_ms
    t_big = sssp(big, 0, method="rdbs", spec=SPEC).time_ms
    assert t_big > t_small * 0.8

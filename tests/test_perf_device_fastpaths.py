"""Device hot-path fast paths: every shortcut must be exact.

This file locks in the equivalences the performance layer relies on:

* :class:`CacheStream` reproduces ``CacheModel.hits(tail + lines)`` bit
  for bit, launch by launch (the docstring of ``cachemodel.py`` points
  here);
* ``stable_sort_with_order`` equals a stable argsort, including the
  composite-key packing fast path and its fallbacks;
* ``distinct_count`` / ``sorted_unique_ints`` equal ``np.unique``;
* ``serialized_min_outcome``'s distinct-address and single-address fast
  paths equal the general segmented-scan path, which itself equals a
  scalar reference;
* the scan-coalesce memo returns exactly what a fresh ``coalesce`` call
  would, and only engages for true ``arange`` scans; a one-lane access
  is one instruction and one transaction;
* ``KernelContext.branch`` counts the same whatever order the items of
  a slot arrive in (sorted slots skip the grouping sort);
* assignment factories report the analytic ``num_slots`` (the
  ``np.unique`` fallback was removed from the hot path);
* observer dispatch rebuilds on list mutation, and ``host_copy`` only
  materializes the index array when someone is listening.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.cachemodel import CacheModel, CacheStream
from repro.gpusim.device import GPUDevice
from repro.gpusim.kernels import (
    _finalize,
    grid_stride,
    thread_per_item,
    thread_per_vertex_edges,
    threads_per_vertex_edges,
)
from repro.gpusim.memory import coalesce
from repro.gpusim.spec import V100
from repro.util.scan import (
    distinct_count,
    serialized_min_outcome,
    sorted_unique_ints,
    stable_sort_with_order,
)

# ---------------------------------------------------------------------------
# CacheStream == CacheModel over the concatenated rolling stream
# ---------------------------------------------------------------------------


def _model_with_capacity(cap: int) -> CacheModel:
    model = CacheModel(V100)
    model.capacity_sectors = cap
    return model


def _reference_hits(model: CacheModel, launches) -> list[int]:
    """The naive rolling-tail evaluation CacheStream replaces."""
    cap = model.capacity_sectors
    history = np.zeros(0, dtype=np.int64)
    out = []
    for lines in launches:
        tail = history[history.size - min(cap, history.size):]
        stream = np.concatenate([tail, lines])
        out.append(int(model.hits(stream)[tail.size:].sum()))
        history = np.concatenate([history, lines])
    return out


def _stream_hits(model: CacheModel, launches) -> list[int]:
    stream = CacheStream(model)
    return [stream.hit_count(lines) for lines in launches]


def _random_launches(rng, num, max_len, id_range):
    return [
        rng.integers(0, id_range, size=int(rng.integers(0, max_len + 1)))
        .astype(np.int64)
        for _ in range(num)
    ]


@pytest.mark.parametrize("cap", [7, 128, 5120])
@pytest.mark.parametrize("id_range", [5, 60, 4000])
def test_cache_stream_matches_reference_random(cap, id_range):
    rng = np.random.default_rng(cap * 1000 + id_range)
    launches = _random_launches(rng, num=12, max_len=300, id_range=id_range)
    model = _model_with_capacity(cap)
    assert _stream_hits(model, launches) == _reference_hits(model, launches)


def test_cache_stream_matches_reference_sorted_fast_path():
    # ascending streams (what slot-major coalescing emits) take the
    # sort-free branch; duplicates make within-launch gaps of exactly 1
    rng = np.random.default_rng(7)
    launches = [
        np.sort(rng.integers(0, 500, size=n)).astype(np.int64)
        for n in (1, 2, 64, 300, 0, 128)
    ]
    model = _model_with_capacity(128)
    assert _stream_hits(model, launches) == _reference_hits(model, launches)


def test_cache_stream_matches_reference_across_compaction():
    # >1024 distinct sectors with a tiny capacity: most sectors fall out
    # of the window long before they come back; counts must be unaffected
    launches = [
        np.arange(i * 200, (i + 1) * 200, dtype=np.int64) for i in range(10)
    ]
    launches.append(np.arange(1800, 2000, dtype=np.int64))  # recent reuse
    launches.append(np.arange(0, 200, dtype=np.int64))  # evicted reuse
    model = _model_with_capacity(7)
    stream = CacheStream(model)
    got = [stream.hit_count(lines) for lines in launches]
    assert got == _reference_hits(model, launches)
    # the ring holds one window; the position table spans the loaded range
    assert stream._ring.size == 7
    assert stream._last.size <= 2 * 2000


@pytest.mark.parametrize("cap", [7, 128])
def test_cache_stream_window_count_over_many_launches(cap):
    # hundreds of launches, some longer than the window and some far
    # shorter, so positions leave the window in every possible split
    rng = np.random.default_rng(cap)
    launches = [
        rng.integers(0, 3 * cap, size=int(rng.integers(0, 3 * cap)))
        .astype(np.int64)
        for _ in range(300)
    ]
    model = _model_with_capacity(cap)
    assert _stream_hits(model, launches) == _reference_hits(model, launches)


def test_cache_stream_allocator_addresses():
    # device sector ids start at the bump allocator's base, arrive out of
    # order across arrays, and can fall below the first one seen
    rng = np.random.default_rng(5)
    base = (1 << 20) // 32
    launches = [
        base + 4000 + rng.integers(0, 500, size=200).astype(np.int64),
        base + rng.integers(0, 100, size=50).astype(np.int64),
        base + 9000 + np.arange(300, dtype=np.int64),
        base + 4000 + rng.integers(0, 500, size=200).astype(np.int64),
        base + rng.integers(0, 100, size=50).astype(np.int64),
    ]
    model = _model_with_capacity(256)
    assert _stream_hits(model, launches) == _reference_hits(model, launches)


def test_cache_stream_replays_a_solve(monkeypatch):
    """Every launch stream of a real solve resolves like the reference."""
    from repro.graphs import grid_road_network
    from repro.sssp import sssp

    streams = []
    original = CacheStream.hit_count

    def record(self, lines):
        streams.append(np.array(lines, dtype=np.int64))
        return original(self, lines)

    spec = V100.scaled_for_workload(1 / 64)
    monkeypatch.setattr(CacheStream, "hit_count", record)
    r = sssp(grid_road_network(16, 16, seed=3), 0, method="near-far",
             spec=spec)
    model = CacheModel(spec)
    assert len(streams) > 10
    assert sum(_reference_hits(model, streams)) == r.counters.totals.l1_hits


def test_cache_stream_tight_reuse_and_empty_launches():
    # working set within capacity -> the no-transcendentals shortcut
    rng = np.random.default_rng(11)
    launches = [
        rng.integers(0, 40, size=200).astype(np.int64),
        np.zeros(0, dtype=np.int64),
        rng.integers(0, 40, size=5).astype(np.int64),
        rng.integers(0, 40, size=200).astype(np.int64),
    ]
    model = _model_with_capacity(128)
    assert _stream_hits(model, launches) == _reference_hits(model, launches)
    assert CacheStream(model).hit_count(np.zeros(0, dtype=np.int64)) == 0


# ---------------------------------------------------------------------------
# scan primitives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,hi",
    [
        (0, 10),
        (1, 10),
        (300, 50),  # below the packing threshold -> argsort path
        (513, 50),  # just above -> packed path
        (600, 3),  # heavy duplication
        (5000, 10**6),
    ],
)
def test_stable_sort_with_order_equals_stable_argsort(n, hi):
    rng = np.random.default_rng(n + hi)
    keys = rng.integers(0, hi, size=n).astype(np.int64)
    sorted_keys, order = stable_sort_with_order(keys)
    want_order = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(order, want_order)
    np.testing.assert_array_equal(sorted_keys, keys[want_order])


def test_stable_sort_with_order_fallbacks_stay_stable():
    # keys too large to pack (max >= 2**62 / n) and negative keys both
    # take the argsort fallback; the contract is identical
    big = np.array([5, (1 << 62), 5, 0, (1 << 62)] * 200, dtype=np.int64)
    sorted_keys, order = stable_sort_with_order(big)
    np.testing.assert_array_equal(order, np.argsort(big, kind="stable"))
    np.testing.assert_array_equal(sorted_keys, big[order])

    neg = np.array([3, -1, 3, -1, 2] * 200, dtype=np.int64)
    sorted_keys, order = stable_sort_with_order(neg)
    np.testing.assert_array_equal(order, np.argsort(neg, kind="stable"))
    np.testing.assert_array_equal(sorted_keys, neg[order])


def test_stable_sort_does_not_mutate_input():
    keys = np.arange(1000, dtype=np.int64)[::-1].copy()
    before = keys.copy()
    stable_sort_with_order(keys)
    np.testing.assert_array_equal(keys, before)


@pytest.mark.parametrize("hi", [1, 7, 1000, 10**7])
def test_distinct_and_unique_match_numpy(hi):
    rng = np.random.default_rng(hi)
    values = rng.integers(0, hi, size=777).astype(np.int64)
    assert distinct_count(values) == np.unique(values).size
    np.testing.assert_array_equal(sorted_unique_ints(values), np.unique(values))
    assert distinct_count(np.zeros(0, dtype=np.int64)) == 0
    assert sorted_unique_ints(np.zeros(0, dtype=np.int64)).size == 0


def _serialized_min_scalar(current, idx, values):
    """Scalar reference: atomicMin ops retiring in program order."""
    old = np.empty(idx.size, dtype=np.float64)
    updated = np.empty(idx.size, dtype=bool)
    for i, (j, v) in enumerate(zip(idx, values)):
        old[i] = current[j]
        updated[i] = v < current[j]
        current[j] = min(current[j], v)
    return old, updated


@pytest.mark.parametrize("n,cells", [(50, 8), (700, 30), (700, 10**6)])
def test_serialized_min_outcome_matches_scalar_reference(n, cells):
    rng = np.random.default_rng(n + cells)
    idx = rng.integers(0, cells, size=n).astype(np.int64)
    values = rng.random(n) * 10
    base = rng.random(max(cells, int(idx.max()) + 1)) * 10

    cur_vec = base.copy()
    old_vec, upd_vec = serialized_min_outcome(cur_vec, idx, values)
    cur_ref = base.copy()
    old_ref, upd_ref = _serialized_min_scalar(cur_ref, idx, values)

    np.testing.assert_array_equal(old_vec, old_ref)
    np.testing.assert_array_equal(upd_vec, upd_ref)
    np.testing.assert_array_equal(cur_vec, cur_ref)


def test_serialized_min_distinct_fast_path_equals_general():
    rng = np.random.default_rng(3)
    idx = rng.permutation(900).astype(np.int64)[:600]  # all distinct
    values = rng.random(600) * 5
    base = rng.random(900) * 5

    cur_fast = base.copy()
    old_fast, upd_fast = serialized_min_outcome(
        cur_fast, idx, values, distinct=idx.size
    )
    cur_gen = base.copy()
    old_gen, upd_gen = serialized_min_outcome(cur_gen, idx, values)

    np.testing.assert_array_equal(old_fast, old_gen)
    np.testing.assert_array_equal(upd_fast, upd_gen)
    np.testing.assert_array_equal(cur_fast, cur_gen)


@pytest.mark.parametrize("n", [2, 3, 40, 700])
def test_serialized_min_single_address_fast_path_equals_reference(n):
    rng = np.random.default_rng(n)
    idx = np.full(n, 2, dtype=np.int64)
    # repeated values, infinities and values above the cell all occur
    values = rng.choice([0.5, 1.0, 3.0, 7.0, np.inf], size=n)
    for start in (np.inf, 2.0, 0.25):
        base = np.array([9.0, 9.0, start, 9.0])
        cur_fast = base.copy()
        old_fast, upd_fast = serialized_min_outcome(
            cur_fast, idx, values, distinct=1
        )
        cur_ref = base.copy()
        old_ref, upd_ref = _serialized_min_scalar(cur_ref, idx, values)
        np.testing.assert_array_equal(old_fast, old_ref)
        np.testing.assert_array_equal(upd_fast, upd_ref)
        np.testing.assert_array_equal(cur_fast, cur_ref)


def test_coalesce_single_lane():
    addr = np.array([4096 + 17 * 8], dtype=np.int64)
    instructions, transactions, sectors = coalesce(
        addr, np.array([5], dtype=np.int64), 32, 128
    )
    assert (instructions, transactions) == (1, 1)
    np.testing.assert_array_equal(sectors, addr // 32)


def test_branch_counts_independent_of_item_order():
    """Sorted slots skip the grouping sort; any item order counts alike."""
    rng = np.random.default_rng(11)
    a = grid_stride(3000, 256)
    taken = rng.random(3000) < 0.3
    perm = rng.permutation(3000)
    shuffled = _finalize(a.slots[perm], a.num_threads, 32, a.max_steps,
                         a.num_slots)
    by_order = np.argsort(a.slots, kind="stable")
    ordered = _finalize(a.slots[by_order], a.num_threads, 32, a.max_steps,
                        a.num_slots)
    counts = []
    for assignment, mask in ((a, taken), (shuffled, taken[perm]),
                             (ordered, taken[by_order])):
        device = GPUDevice(V100)
        with device.launch("k") as k:
            k.branch(assignment, mask)
        c = device.counters.totals
        counts.append((c.branch_instructions, c.divergent_branches,
                       c.inst_executed_other, c.lane_slots))
    assert counts[0] == counts[1] == counts[2]


# ---------------------------------------------------------------------------
# scan-coalesce memo
# ---------------------------------------------------------------------------


def test_scan_coalesce_memo_is_exact_and_scoped():
    n = 5000
    device = GPUDevice()
    arr = device.alloc(np.zeros(n), name="dist")
    a = thread_per_item(n)
    idx = np.arange(n, dtype=np.int64)

    with device.launch("scan") as ctx:
        ctx.gather(arr, idx, a)
        ctx.gather(arr, idx, a)  # second call must be served by the memo
    assert len(device._scan_coalesce) == 1
    key = (arr.base_address, n)
    cached = device._scan_coalesce[key]
    direct = coalesce(
        arr.addresses(idx), a.slots, V100.sector_bytes, V100.cache_line_bytes
    )
    assert cached[0] is a.slots
    assert (cached[1], cached[2]) == (direct[0], direct[1])
    np.testing.assert_array_equal(cached[3], direct[2])

    # both gathers charged identical, full-price counters
    fresh = GPUDevice()
    arr2 = fresh.alloc(np.zeros(n), name="dist")
    with fresh.launch("scan") as ctx:
        ctx.gather(arr2, idx, a)
    once = fresh.counters.totals
    twice = device.counters.totals
    assert twice.inst_executed_global_loads == 2 * once.inst_executed_global_loads
    assert twice.global_load_transactions == 2 * once.global_load_transactions
    assert twice.l1_accesses == 2 * once.l1_accesses


def test_scan_coalesce_memo_rejects_non_arange_and_stale_slots():
    n = 2000
    device = GPUDevice()
    arr = device.alloc(np.zeros(n), name="dist")
    idx = np.arange(n, dtype=np.int64)

    # non-arange gathers must bypass the memo entirely
    a = thread_per_item(n)
    with device.launch("perm") as ctx:
        ctx.gather(arr, idx[::-1].copy(), a)
    assert device._scan_coalesce == {}

    # same (array, n) under a different assignment: identity check on the
    # slot array forces a recompute, and the entry is replaced
    b = grid_stride(n, 256)
    with device.launch("scan") as ctx:
        ctx.gather(arr, idx, a)
        ctx.gather(arr, idx, b)
    entry = device._scan_coalesce[(arr.base_address, n)]
    assert entry[0] is b.slots
    direct = coalesce(
        arr.addresses(idx), b.slots, V100.sector_bytes, V100.cache_line_bytes
    )
    assert (entry[1], entry[2]) == (direct[0], direct[1])
    np.testing.assert_array_equal(entry[3], direct[2])


# ---------------------------------------------------------------------------
# assignment factories: analytic num_slots, memoization, finalize guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 1000])
def test_thread_per_item_num_slots_analytic(n):
    a = thread_per_item(n)
    assert a.num_slots == np.unique(a.slots).size


@pytest.mark.parametrize("n,t", [(0, 64), (1, 64), (100, 64), (1000, 96), (513, 512)])
def test_grid_stride_num_slots_analytic(n, t):
    a = grid_stride(n, t)
    assert a.num_slots == np.unique(a.slots).size


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_edge_factories_num_slots_analytic(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 40, size=200).astype(np.int64)
    a = thread_per_vertex_edges(counts)
    assert a.num_slots == np.unique(a.slots).size
    b = threads_per_vertex_edges(counts, 32)
    assert b.num_slots == np.unique(b.slots).size


def test_scalar_factories_are_memoized():
    assert thread_per_item(100) is thread_per_item(100)
    assert grid_stride(100, 64) is grid_stride(100, 64)


def test_finalize_requires_analytic_num_slots():
    with pytest.raises(AssertionError, match="analytically"):
        _finalize(np.zeros(3, dtype=np.int64), 3, 32, 1)


# ---------------------------------------------------------------------------
# observer dispatch and host_copy gating
# ---------------------------------------------------------------------------


class _Recorder:
    def __init__(self):
        self.annotations = []
        self.host_writes = []

    def on_annotate(self, device, tag, payload):
        self.annotations.append(tag)

    def on_host_write(self, device, arr, idx, values):
        self.host_writes.append(np.asarray(idx).copy())


def test_observer_dispatch_rebuilds_on_attach_detach():
    device = GPUDevice()
    assert device.handlers("on_annotate") == ()
    rec = _Recorder()
    device.attach(rec)
    assert len(device.handlers("on_annotate")) == 1
    device.annotate("tag")
    assert rec.annotations == ["tag"]
    device.detach(rec)
    assert device.handlers("on_annotate") == ()
    device.annotate("after")  # nobody listening: no error, no record
    assert rec.annotations == ["tag"]

    other = _Recorder()
    device.attach(rec)
    device.attach(other)
    assert len(device.handlers("on_annotate")) == 2
    device.detach(rec)
    device.annotate("replaced")
    assert other.annotations == ["replaced"] and rec.annotations == ["tag"]
    assert device.observers == (other,)
    device.detach(other)
    assert device.handlers("on_annotate") == ()


def test_host_copy_gating():
    device = GPUDevice()
    arr = device.alloc(np.zeros(64), name="buf")
    device.host_copy(arr, np.ones(64))  # unobserved: plain copy
    np.testing.assert_array_equal(arr.data, np.ones(64))

    rec = _Recorder()
    device.attach(rec)
    device.host_copy(arr, np.full(64, 2.0))
    np.testing.assert_array_equal(arr.data, np.full(64, 2.0))
    assert len(rec.host_writes) == 1
    np.testing.assert_array_equal(rec.host_writes[0], np.arange(64))

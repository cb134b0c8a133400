"""The worklist stores (:mod:`repro.sssp.worklist`)."""

from __future__ import annotations

import numpy as np

from repro.graphs import grid_road_network
from repro.gpusim import V100
from repro.gpusim.device import (
    GPUDevice,
    register_global_observer,
    unregister_global_observer,
)
from repro.sssp import rdbs_sssp
from repro.sssp.worklist import FarPile, SlotPool, pop_oldest

SPEC = V100.scaled_for_workload(1 / 64)


def _store_transactions(pool: SlotPool, vertices: np.ndarray) -> int:
    with pool.device.launch("push") as k:
        pool.store(k, vertices)
    return int(pool.device.counters.totals.global_store_transactions)


class TestSlotPool:
    def test_store_appends_behind_the_cursor(self):
        pool = SlotPool(GPUDevice(SPEC), 100, "slots")
        first = pool.slots
        with pool.device.launch("push") as k:
            pool.store(k, np.arange(10, dtype=np.int64))
            pool.store(k, np.arange(20, 25, dtype=np.int64))
        assert pool.slots is first and pool.cursor == 15
        assert np.array_equal(first.data[10:15], np.arange(20, 25))

    def test_overflow_opens_a_fresh_pool_at_cursor_zero(self):
        push = np.arange(100, 148, dtype=np.int64)
        empty = SlotPool(GPUDevice(SPEC), 64, "slots")
        charged_empty = _store_transactions(empty, push)

        full = SlotPool(GPUDevice(SPEC), 64, "slots")
        old = full.slots
        full.cursor = 40  # 40 + 48 slots do not fit in 64
        before = int(full.device.counters.totals.global_store_transactions)
        charged = _store_transactions(full, push) - before

        assert full.slots is not old
        assert full.slots.size == 64 and full.cursor == push.size
        assert np.array_equal(full.slots.data[:push.size], push)
        assert charged == charged_empty

    def test_oversized_push_gets_a_pool_that_fits(self):
        pool = SlotPool(GPUDevice(SPEC), 8, "slots")
        _store_transactions(pool, np.arange(20, dtype=np.int64))
        assert pool.slots.size == 20 and pool.cursor == 20

    def test_rewind_reuses_slot_zero(self):
        pool = SlotPool(GPUDevice(SPEC), 64, "slots")
        first = pool.slots
        _store_transactions(pool, np.arange(5, dtype=np.int64))
        pool.rewind()
        _store_transactions(pool, np.array([42, 43], dtype=np.int64))
        assert pool.slots is first and pool.cursor == 2
        assert list(first.data[:5]) == [42, 43, 2, 3, 4]


class TestPopOldest:
    def test_takes_whole_and_partial_chunks_in_order(self):
        chunks = [np.array([1, 2]), np.array([3, 4, 5]), np.array([6])]
        assert list(pop_oldest(chunks, 3)) == [1, 2, 3]
        assert [list(c) for c in chunks] == [[4, 5], [6]]

    def test_takes_what_is_pending_when_asked_for_more(self):
        chunks = [np.array([1, 2]), np.array([3])]
        assert list(pop_oldest(chunks, 10)) == [1, 2, 3]
        assert chunks == []


class TestFarPile:
    def test_park_keeps_the_per_target_minimum(self):
        far = FarPile(6)
        far.park(np.array([2, 4, 2, 2]), np.array([5.0, 7.0, 3.0, 4.0]))
        far.park(np.array([4]), np.array([9.0]))
        assert far and len(far) == 2
        assert far.val[2] == 3.0 and far.val[4] == 7.0
        assert far.min() == 3.0

    def test_leave_resets_the_entry(self):
        far = FarPile(4)
        far.park(np.array([1, 3]), np.array([2.0, 6.0]))
        far.leave(np.array([1]))
        assert far.val[1] == np.inf
        assert len(far) == 1 and far.min() == 6.0

    def test_empty_pile_is_falsy_with_infinite_minimum(self):
        far = FarPile(3)
        assert not far and len(far) == 0
        assert far.min() == np.inf
        far.park(np.array([0]), np.array([1.0]))
        far.leave(np.array([0]))
        assert not far and far.min() == np.inf

    def test_refill_replaces_the_whole_pile(self):
        far = FarPile(5)
        far.park(np.array([0, 1]), np.array([1.0, 2.0]))
        far.refill(np.array([3, 4]), np.array([8.0, 9.0]))
        assert np.flatnonzero(far.val < np.inf).tolist() == [3, 4]
        assert far.min() == 8.0
        far.refill(np.zeros(0, dtype=np.int64), np.zeros(0))
        assert not far


class _Allocations:
    def __init__(self):
        self.names: list[str] = []

    def on_alloc(self, device, arr, initialized):
        self.names.append(arr.name)


def test_rdbs_allocates_one_workload_pool_per_solve():
    """Phase 1 reuses one slot pool across buckets and has no spill array."""
    seen = _Allocations()
    register_global_observer(seen)
    try:
        r = rdbs_sssp(grid_road_network(16, 16, seed=0), 0, spec=SPEC)
    finally:
        unregister_global_observer(seen)
    assert r.extra["buckets"] > 10
    assert seen.names.count("workload_slots") == 1
    assert not [name for name in seen.names if name.endswith("_spill")]

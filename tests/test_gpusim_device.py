"""Tests for the simulated device: kernel ops, counters, time accounting."""

import gc
import weakref

import numpy as np
import pytest

from repro.graphs import kronecker
from repro.gpusim import (
    GPUDevice,
    T4,
    V100,
    grid_stride,
    subset_assignment,
    thread_per_item,
    thread_per_vertex_edges,
)
from repro.gpusim.device import (
    register_global_observer,
    unregister_global_observer,
)
from repro.sssp import sssp


@pytest.fixture
def dev():
    return GPUDevice(V100)


class TestGather:
    def test_returns_values_and_counts_loads(self, dev):
        arr = dev.alloc(np.arange(100, dtype=np.float64))
        idx = np.arange(64, dtype=np.int64)
        with dev.launch("k") as k:
            a = thread_per_item(64)
            vals = k.gather(arr, idx, a)
        assert np.array_equal(vals, np.arange(64, dtype=np.float64))
        c = dev.counters.totals
        assert c.inst_executed_global_loads == 2  # 2 warps
        assert c.global_load_transactions == 16  # 64 * 8B / 32B
        assert c.kernel_launches == 1

    def test_index_mismatch_rejected(self, dev):
        arr = dev.zeros(10)
        with dev.launch("k") as k:
            a = thread_per_item(4)
            with pytest.raises(ValueError):
                k.gather(arr, np.array([0, 1]), a)


class TestScatter:
    def test_writes_and_counts_stores(self, dev):
        arr = dev.zeros(64)
        with dev.launch("k") as k:
            a = thread_per_item(32)
            k.scatter(arr, np.arange(32), np.ones(32), a)
        assert arr.data[:32].sum() == 32
        c = dev.counters.totals
        assert c.inst_executed_global_stores == 1
        assert c.global_store_transactions == 8


class TestAtomicMin:
    def test_semantics(self, dev):
        arr = dev.alloc(np.array([10.0, 10.0]))
        with dev.launch("k") as k:
            a = thread_per_item(3)
            old, upd = k.atomic_min(
                arr, np.array([0, 0, 1]), np.array([4.0, 6.0, 12.0]), a
            )
        assert list(old) == [10.0, 4.0, 10.0]
        assert list(upd) == [True, False, False]
        assert list(arr.data) == [4.0, 10.0]

    def test_counts_atomics_and_conflicts(self, dev):
        arr = dev.zeros(4)
        arr.data[:] = 100.0
        with dev.launch("k") as k:
            a = thread_per_item(8)
            idx = np.array([0, 0, 0, 0, 1, 2, 3, 3])
            k.atomic_min(arr, idx, np.arange(8, dtype=float), a)
        c = dev.counters.totals
        assert c.inst_executed_atomics == 1
        # 8 ops to 4 distinct addresses -> 4 serialized conflicts
        assert c.atomic_conflicts == 4

    def test_empty(self, dev):
        arr = dev.zeros(4)
        with dev.launch("k") as k:
            a = thread_per_item(0)
            old, upd = k.atomic_min(arr, np.array([], dtype=np.int64), np.array([]), a)
        assert old.size == 0 and upd.size == 0


class TestBranch:
    def test_uniform_branch_not_divergent(self, dev):
        with dev.launch("k") as k:
            a = thread_per_item(32)
            k.branch(a, np.ones(32, dtype=bool))
        c = dev.counters.totals
        assert c.branch_instructions == 1
        assert c.divergent_branches == 0

    def test_mixed_branch_divergent(self, dev):
        with dev.launch("k") as k:
            a = thread_per_item(32)
            taken = np.zeros(32, dtype=bool)
            taken[::2] = True
            k.branch(a, taken)
        c = dev.counters.totals
        assert c.divergent_branches == 1
        # divergent slot issues both paths: 1 + 1
        assert c.inst_executed_other == 2

    def test_mask_mismatch_rejected(self, dev):
        with dev.launch("k") as k:
            a = thread_per_item(4)
            with pytest.raises(ValueError):
                k.branch(a, np.ones(3, dtype=bool))


class TestSubsetAssignment:
    def test_subset_counts(self):
        a = thread_per_vertex_edges(np.array([4, 4]))
        mask = np.zeros(8, dtype=bool)
        mask[:2] = True  # only vertex 0's first two edges
        sub = subset_assignment(a, mask)
        assert sub.num_items == 2
        assert sub.num_slots == 2
        assert sub.max_steps == 2

    def test_empty_subset(self):
        a = thread_per_item(16)
        sub = subset_assignment(a, np.zeros(16, dtype=bool))
        assert sub.num_items == 0 and sub.num_slots == 0


class TestTimeAndEvents:
    def test_launch_charges_overhead(self, dev):
        with dev.launch("noop"):
            pass
        assert dev.time_s == pytest.approx(V100.kernel_launch_s)

    def test_device_launch_no_host_cost(self, dev):
        with dev.segment("noop"):
            pass
        assert dev.time_s == 0.0

    def test_continuation_segment_keeps_its_own_accounting(self, dev):
        with dev.launch("head") as k:
            assert k.host_launch
        with dev.segment("tail") as k:
            assert not k.host_launch
            k.device_barrier()
        assert dev.counters.totals.kernel_launches == 1
        assert dev.counters.totals.barriers == 1
        assert [r.name for r in dev.timeline.records] == ["head", "tail"]
        assert dev.time_s == pytest.approx(
            V100.kernel_launch_s + V100.barrier_s
        )

    def test_barrier(self, dev):
        dev.barrier()
        assert dev.time_s == pytest.approx(V100.barrier_s)
        assert dev.counters.totals.barriers == 1

    def test_child_launch_and_async_round(self, dev):
        with dev.launch("k") as k:
            k.child_launch(10)
            k.async_round(5)
        c = dev.counters.totals
        assert c.child_kernel_launches == 10
        assert c.async_rounds == 5
        expected = (
            V100.kernel_launch_s + 10 * V100.child_launch_s + 5 * V100.async_round_s
        )
        assert dev.time_s == pytest.approx(expected)

    def test_more_work_takes_longer(self, dev):
        arr = dev.alloc(np.zeros(1 << 16))
        idx_small = np.arange(1 << 10, dtype=np.int64)
        idx_big = np.arange(1 << 16, dtype=np.int64)
        with dev.launch("small") as k:
            k.gather(arr, idx_small, grid_stride(idx_small.size, 1024))
        t_small = k.time_s
        with dev.launch("big") as k:
            k.gather(arr, idx_big, grid_stride(idx_big.size, 1024))
        assert k.time_s > t_small

    def test_t4_slower_than_v100_on_memory_bound(self):
        times = {}
        for spec in (V100, T4):
            dev = GPUDevice(spec)
            arr = dev.alloc(np.zeros(1 << 18))
            idx = np.random.default_rng(0).integers(0, 1 << 18, 1 << 18)
            with dev.launch("k") as k:
                k.gather(arr, idx, grid_stride(idx.size, 8192))
            times[spec.name] = dev.time_s - spec.kernel_launch_s
        assert times["T4"] > times["V100"]

    def test_reset_clock(self, dev):
        dev.barrier()
        dev.reset_clock()
        assert dev.time_s == 0.0
        assert dev.counters.totals.barriers == 0

    def test_elapsed_ms(self, dev):
        dev.barrier()
        assert dev.elapsed_ms == pytest.approx(V100.barrier_s * 1e3)


class TestCriticalPath:
    def test_imbalanced_kernel_slower_than_balanced(self, dev):
        """Same edges: one hub thread vs spread over a block — the SIMT
        critical path makes the hub mapping slower (motivation 2)."""
        from repro.gpusim import threads_per_vertex_edges

        arr = dev.alloc(np.zeros(1 << 14))
        counts = np.array([4096])
        idx = np.arange(4096, dtype=np.int64)
        with dev.launch("hub") as k:
            k.gather(arr, idx, thread_per_vertex_edges(counts))
        t_hub = k.time_s
        with dev.launch("block") as k:
            k.gather(arr, idx, threads_per_vertex_edges(counts, 256))
        t_block = k.time_s
        assert t_hub > 2 * t_block


class TestLifetime:
    @pytest.mark.parametrize("method", ["mlmq", "rdbs", "near-far"])
    def test_device_freed_when_solve_returns(self, method):
        """No reference cycle keeps a device alive: with the cyclic
        collector off, it is freed as soon as its solve returns."""
        refs = []

        class _Devices:
            def on_alloc(self, device, arr, initialized):
                if not refs:
                    refs.append(weakref.ref(device))

        obs = _Devices()
        g = kronecker(6, 8, weights="int", seed=0)
        enabled = gc.isenabled()
        gc.disable()
        register_global_observer(obs)
        try:
            result = sssp(g, 0, method=method)
        finally:
            unregister_global_observer(obs)
            if enabled:
                gc.enable()
        assert result.counters.totals.kernel_launches > 0
        assert len(refs) == 1 and refs[0]() is None

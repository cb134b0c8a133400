"""Tests for workload classification (ADWL), counters and GPU specs."""

from dataclasses import fields

import numpy as np
import pytest

from repro.gpusim import (
    ALPHA,
    BETA,
    A100,
    GPUDevice,
    KernelCounters,
    T4,
    V100,
    classify_workloads,
    launch_adaptive,
)
from repro.gpusim.dynamic import MULTI_BLOCK
from repro.gpusim.timemodel import kernel_time
from repro.sssp import GPU_METHODS, sssp


class TestClassification:
    def test_paper_thresholds(self):
        assert BETA == 32 and ALPHA == 256

    def test_boundaries(self):
        counts = np.array([0, 31, 32, 255, 256, 5000])
        c = classify_workloads(counts)
        assert list(c.small) == [0, 1]
        assert list(c.middle) == [2, 3]
        assert list(c.large) == [4, 5]
        assert c.counts == (2, 2, 2)

    def test_empty(self):
        c = classify_workloads(np.array([], dtype=np.int64))
        assert c.counts == (0, 0, 0)

    def test_paper_examples(self):
        """§4.2: 6 edges -> parent; 224 -> warp child; 4000 -> block child."""
        c = classify_workloads(np.array([6, 224, 4000]))
        assert list(c.small) == [0]
        assert list(c.middle) == [1]
        assert list(c.large) == [2]


class TestLaunchAdaptive:
    def test_child_launch_accounting(self):
        dev = GPUDevice(V100)
        counts = np.array([6, 224, 4000, 10_000])
        with dev.launch("k") as k:
            groups = launch_adaptive(k, counts, classify_workloads(counts))
        c = dev.counters.totals
        # 1 warp child (224) + blocks: 4000 -> 1, 10000 -> floor(10000/4096)=2
        assert c.child_kernel_launches == 1 + 1 + 2
        assert len(groups) == 3

    def test_small_only_no_children(self):
        dev = GPUDevice(V100)
        with dev.launch("k") as k:
            counts = np.array([1, 2, 3])
            groups = launch_adaptive(k, counts, classify_workloads(counts))
        assert dev.counters.totals.child_kernel_launches == 0
        assert len(groups) == 1

    def test_multi_block_threshold(self):
        assert MULTI_BLOCK == 4096

    def test_group_items_cover_all_edges(self):
        dev = GPUDevice(V100)
        counts = np.array([10, 100, 600])
        with dev.launch("k") as k:
            groups = launch_adaptive(k, counts, classify_workloads(counts))
        total = sum(a.num_items for _, a in groups)
        assert total == counts.sum()


class TestCounters:
    def test_merge_and_copy(self):
        a = KernelCounters(inst_executed_global_loads=3, l1_hits=1, l1_accesses=2)
        b = a.copy()
        b.merge(a)
        assert b.inst_executed_global_loads == 6
        assert a.inst_executed_global_loads == 3

    def test_hit_rate(self):
        c = KernelCounters(l1_hits=30, l1_accesses=40)
        assert c.global_hit_rate == pytest.approx(75.0)
        assert KernelCounters().global_hit_rate == 0.0

    def test_simt_efficiency(self):
        c = KernelCounters(active_lanes=16, lane_slots=32)
        assert c.simt_efficiency == 0.5
        assert KernelCounters().simt_efficiency == 1.0

    def test_as_dict_has_derived(self):
        d = KernelCounters(l1_hits=1, l1_accesses=2).as_dict()
        assert d["global_hit_rate"] == 50.0
        assert "simt_efficiency" in d

    @pytest.mark.parametrize("method", sorted(GPU_METHODS))
    def test_snapshot_schema_is_fixed(self, small_kron, kron_source, method):
        """Every engine serializes one schema: every counter field in
        declaration order, then the two derived rates — whichever events
        (multisplits, steals) the run happened to issue."""
        r = sssp(small_kron, kron_source, method=method,
                 spec=V100.scaled_for_workload(1 / 64))
        assert list(r.counters.totals.as_dict()) == [
            f.name for f in fields(KernelCounters)
        ] + ["global_hit_rate", "simt_efficiency"]

    def test_totals(self):
        c = KernelCounters(
            inst_executed_global_loads=1,
            inst_executed_global_stores=2,
            inst_executed_atomics=3,
            inst_executed_other=4,
            global_load_transactions=5,
            global_store_transactions=6,
            atomic_transactions=7,
        )
        assert c.total_warp_instructions == 10
        assert c.total_transactions == 18


class TestSpecs:
    def test_paper_platform_numbers(self):
        assert V100.num_sms == 80 and V100.cuda_cores == 5120
        assert V100.mem_bandwidth_gbps == 900.0
        assert T4.num_sms == 40 and T4.cuda_cores == 2560
        assert T4.mem_bandwidth_gbps == 320.0

    def test_derived(self):
        assert V100.total_l1_bytes == 80 * 128 * 1024
        assert V100.resident_warps == 80 * 64
        assert V100.clock_hz == pytest.approx(1.53e9)

    def test_scaled_for_workload(self):
        s = V100.scaled_for_workload(1 / 64)
        assert s.l1_kb_per_sm == 2
        assert s.kernel_launch_s == pytest.approx(V100.kernel_launch_s / 64)
        assert s.num_sms == V100.num_sms  # throughputs untouched
        assert s.mem_bandwidth_gbps == V100.mem_bandwidth_gbps

    def test_scaled_for_workload_validation(self):
        with pytest.raises(ValueError):
            V100.scaled_for_workload(0.0)
        assert V100.scaled_for_workload(1.0) is V100

    def test_a100_has_more_bandwidth(self):
        assert A100.mem_bandwidth_gbps > V100.mem_bandwidth_gbps


class TestTimeModel:
    def test_zero_counters_zero_time(self):
        assert kernel_time(V100, KernelCounters(), 0) == 0.0

    def test_memory_bound_scales_with_traffic(self):
        c1 = KernelCounters(global_load_transactions=1000)
        c2 = KernelCounters(global_load_transactions=2000)
        assert kernel_time(V100, c2, 0) == pytest.approx(2 * kernel_time(V100, c1, 0))

    def test_l1_hits_reduce_memory_time(self):
        miss = KernelCounters(global_load_transactions=1000, l1_accesses=1000)
        hit = KernelCounters(
            global_load_transactions=1000, l1_accesses=1000, l1_hits=900
        )
        assert kernel_time(V100, hit, 0) < kernel_time(V100, miss, 0)

    def test_critical_path_bound(self):
        c = KernelCounters(inst_executed_other=10)
        assert kernel_time(V100, c, 100_000) > kernel_time(V100, c, 10)

    def test_atomic_conflicts_add_time(self):
        base = KernelCounters()
        conflicted = KernelCounters(atomic_conflicts=100_000)
        assert kernel_time(V100, conflicted, 0) > kernel_time(V100, base, 0)

    def test_t4_memory_bound_slower(self):
        c = KernelCounters(global_load_transactions=100_000)
        assert kernel_time(T4, c, 0) > kernel_time(V100, c, 0)

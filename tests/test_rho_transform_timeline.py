"""Tests for the kernel timeline."""

import numpy as np
import pytest

from repro.graphs import kronecker
from repro.bench import benchmark_spec, get_graph, pick_sources
from repro.gpusim import GPUDevice, KernelCounters, Timeline, V100, attribute_bottleneck
from repro.gpusim.timemodel import kernel_bounds, kernel_time
from repro.gpusim.kernels import grid_stride
from repro.sssp import sssp

SPEC = V100.scaled_for_workload(1 / 64)


class TestTimeline:
    def test_records_launches(self):
        dev = GPUDevice(V100)
        arr = dev.zeros(1024)
        with dev.launch("alpha") as k:
            k.gather(arr, np.arange(1024), grid_stride(1024, 256))
        with dev.launch("alpha") as k:
            k.gather(arr, np.arange(1024), grid_stride(1024, 256))
        with dev.launch("beta"):
            pass
        tl = dev.timeline
        assert len(tl.records) == 3
        by = tl.by_kernel()
        assert by["alpha"][0] == 2
        assert by["beta"][0] == 1
        assert tl.total_s == pytest.approx(dev.time_s)

    def test_records_are_ordered(self):
        dev = GPUDevice(V100)
        with dev.launch("a"):
            pass
        with dev.launch("b"):
            pass
        r0, r1 = dev.timeline.records
        assert r1.start_s >= r0.end_s

    def test_top_and_report(self):
        dev = GPUDevice(V100)
        arr = dev.zeros(4096)
        with dev.launch("hot") as k:
            k.gather(arr, np.arange(4096), grid_stride(4096, 256))
        with dev.launch("cold"):
            pass
        text = dev.timeline.report(k=1)
        # the top kernel row follows the two header lines
        assert text.splitlines()[2].split()[0] in ("hot", "cold")
        text = dev.timeline.report()
        assert "hot" in text and "bottlenecks" in text

    def test_bottleneck_attribution(self):
        mem = KernelCounters(global_load_transactions=10**6, l1_accesses=10**6)
        assert attribute_bottleneck(V100, mem, 0) == "memory"
        crit = KernelCounters(inst_executed_other=1)
        assert attribute_bottleneck(V100, crit, 10**6) == "critical-path"
        issue = KernelCounters(inst_executed_other=10**9)
        assert attribute_bottleneck(V100, issue, 1) == "issue"
        assert attribute_bottleneck(V100, KernelCounters(), 0) == "overhead"

    def test_shared_transactions_alone_make_a_kernel_issue_bound(self):
        """Multisplit staging occupies issue slots: the attribution reads
        the issue bound the time model charges, shared transactions
        included, so this kernel is issue-bound, not memory-bound."""
        c = KernelCounters(global_load_transactions=10**5,
                           l1_accesses=10**5, shared_transactions=10**9)
        b = kernel_bounds(V100, c, 1)
        no_shared = kernel_bounds(
            V100, KernelCounters(global_load_transactions=10**5,
                                 l1_accesses=10**5), 1)
        assert no_shared.memory_s > no_shared.issue_s
        assert b.issue_s > b.memory_s > b.critical_s
        assert attribute_bottleneck(V100, c, 1) == "issue"
        assert b.body_s == kernel_time(V100, c, 1)

    def test_reset_clock_clears_timeline(self):
        dev = GPUDevice(V100)
        with dev.launch("x"):
            pass
        dev.reset_clock()
        assert dev.timeline.records == []

    def test_gpu_results_carry_timeline(self):
        g = kronecker(7, 6, weights="int", seed=47)
        r = sssp(g, 0, method="rdbs", spec=SPEC)
        tl = r.extra["timeline"]
        assert isinstance(tl, Timeline)
        assert tl.total_s > 0
        assert "phase1" in " ".join(name for name, _ in tl.by_kernel().items())

    @pytest.mark.parametrize("method", ["rdbs", "near-far", "mlmq", "adds"])
    @pytest.mark.parametrize("dataset", ["road-TX", "k-n21-16", "Amazon"])
    def test_timeline_sums_to_time_ms(self, dataset, method):
        """Every simulated nanosecond of a bucketed engine's quick cell is
        on its timeline: no host-visible barrier adds time off the
        records."""
        g = get_graph(dataset)
        source = pick_sources(dataset, 1)[0]
        r = sssp(g, source, method=method, spec=benchmark_spec())
        assert r.extra["timeline"].total_s * 1e3 == r.time_ms

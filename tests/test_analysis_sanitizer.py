"""Tests for the dynamic hazard sanitizer (repro.analysis.sanitizer).

Two kinds of coverage: the production engines must come out *clean*
(zero error-level hazards on real runs), and seeded-bug fixtures must be
*caught* (each detector fires on a kernel written to contain its hazard).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    Sanitizer,
    SanitizerError,
    attached,
    sanitized_sssp,
)
from repro.graphs import path, preferential_attachment
from repro.graphs.properties import largest_component_vertices
from repro.gpusim.device import GPUDevice
from repro.gpusim.kernels import thread_per_item
from repro.sssp import GPU_METHODS, sssp, validate_distances


def component_source(graph) -> int:
    return int(largest_component_vertices(graph)[0])


# ----------------------------------------------------------------------
# clean production engines: zero error-level hazards
# ----------------------------------------------------------------------

class TestCleanEngines:
    @pytest.mark.parametrize("method", sorted(GPU_METHODS))
    def test_engine_has_no_hazards(self, small_kron, kron_source, method):
        res, report = sanitized_sssp(small_kron, kron_source, method=method)
        assert report.errors == [], report.summary()
        validate_distances(small_kron, kron_source, res.dist)

    def test_rdbs_clean_on_power_law_graph(self):
        """The acceptance graph: random power-law, RDBS, zero hazards."""
        g = preferential_attachment(500, 4, seed=7)
        src = component_source(g)
        res, report = sanitized_sssp(g, src, method="rdbs")
        assert report.errors == [], report.summary()
        assert report.kernels_checked > 0
        assert report.accesses_checked > 0
        validate_distances(g, src, res.dist)

    def test_fixture_attaches_to_engine_devices(self, sanitizer, small_kron,
                                                kron_source):
        sssp(small_kron, kron_source, method="bl")
        report = sanitizer.report()
        assert report.kernels_checked > 0
        assert report.errors == []


# ----------------------------------------------------------------------
# seeded-bug fixtures: every detector fires
# ----------------------------------------------------------------------

def _rules(report):
    return {(f.rule, f.severity) for f in report.findings}


class TestSeededBugs:
    def test_racy_scatter_differing_values(self):
        """Plain stores of different values to one address race."""
        with attached() as san:
            dev = GPUDevice()
            arr = dev.zeros(8, name="buf")
            with dev.launch("racy") as k:
                idx = np.array([3, 3, 3])
                k.scatter(arr, idx, np.array([1.0, 2.0, 3.0]),
                          thread_per_item(3))
        assert ("write-write-race", "error") in _rules(san.report())

    def test_same_value_marking_is_benign(self):
        """The flag-marking idiom (racing stores of one value) downgrades
        to a warning — the acceptance criterion counts only errors."""
        with attached() as san:
            dev = GPUDevice()
            arr = dev.zeros(8, name="flags")
            with dev.launch("mark") as k:
                idx = np.array([3, 3, 3])
                k.scatter(arr, idx, np.ones(3), thread_per_item(3))
        rep = san.report()
        assert rep.errors == []
        assert ("write-write-race", "warning") in _rules(rep)

    def test_cross_warp_read_write_conflict(self):
        with attached() as san:
            dev = GPUDevice()
            arr = dev.zeros(64, name="b")
            with dev.launch("rw") as k:
                # address 5 loaded from warps 0 and 1 while warp 0 stores it
                k.gather(arr, np.full(33, 5, dtype=np.int64),
                         thread_per_item(33))
                k.scatter(arr, np.array([5]), np.array([7.0]),
                          thread_per_item(1))
        assert ("read-write-race", "warning") in _rules(san.report())

    def test_atomic_plain_mix_is_error(self):
        with attached() as san:
            dev = GPUDevice()
            arr = dev.zeros(64, name="d")
            with dev.launch("mix") as k:
                idx = np.zeros(33, dtype=np.int64)
                k.atomic_min(arr, idx, np.arange(33, dtype=float),
                             thread_per_item(33))
                k.scatter(arr, np.array([0]), np.array([1.0]),
                          thread_per_item(1))
        assert ("atomic-plain-mix", "error") in _rules(san.report())

    def test_device_barrier_splits_the_window(self):
        """The same atomic/store mix separated by a device-wide sync is
        two windows, hence hazard-free."""
        with attached() as san:
            dev = GPUDevice()
            arr = dev.zeros(64, name="e")
            with dev.launch("mix2") as k:
                idx = np.zeros(33, dtype=np.int64)
                k.atomic_min(arr, idx, np.arange(33, dtype=float),
                             thread_per_item(33))
                k.device_barrier()
                k.scatter(arr, np.array([0]), np.array([1.0]),
                          thread_per_item(1))
        assert san.report().errors == []

    @staticmethod
    def _continuation_pair(*, barrier: bool, host_launch: bool = False):
        """A persistent kernel whose second segment scatters ``dist[40]``
        (two values from one lane) and whose third segment reads it from
        two warps; ``barrier`` ends the scatter segment with a device
        barrier, ``host_launch`` starts the read as a new kernel."""
        with attached() as san:
            dev = GPUDevice()
            dist = dev.full(64, np.inf, name="dist")
            with dev.launch("head"):
                pass
            with dev.segment("scatter") as k:
                for value in (3.0, 2.0):
                    k.scatter(dist, np.array([40]), np.array([value]),
                              thread_per_item(1))
                if barrier:
                    k.device_barrier()
            with dev.segment("read", resume=not host_launch) as k:
                k.gather(dist, np.full(33, 40, dtype=np.int64),
                         thread_per_item(33))
        return san.report()

    def test_continuation_segments_share_a_window(self):
        """No barrier between two continuation segments: the read races
        the scatter, across the segment boundary."""
        rep = self._continuation_pair(barrier=False)
        races = [f for f in rep.errors if f.rule == "read-write-race"]
        assert races and races[0].kernel == "head+scatter+read"

    def test_barrier_between_continuation_segments_is_clean(self):
        rep = self._continuation_pair(barrier=True)
        assert rep.errors == [], rep.summary()

    def test_host_launch_closes_the_window(self):
        rep = self._continuation_pair(barrier=False, host_launch=True)
        assert rep.errors == [], rep.summary()

    def test_non_monotone_dist_update(self):
        """A kernel that *increases* a dist cell violates the atomicMin
        relaxation invariant (paper §4.3)."""
        with attached() as san:
            dev = GPUDevice()
            dist = dev.full(4, np.inf, name="dist")
            dev.host_store(dist, 0, 1.0)
            with dev.launch("bad_relax") as k:
                k.scatter(dist, np.array([0]), np.array([5.0]),
                          thread_per_item(1))
        assert ("non-monotone-dist", "error") in _rules(san.report())

    def test_out_of_bounds_negative_index(self):
        """numpy silently wraps negative indices — exactly the OOB class
        memcheck exists for."""
        with attached() as san:
            dev = GPUDevice()
            arr = dev.zeros(4, name="a")
            with dev.launch("oob") as k:
                k.gather(arr, np.array([-1, 2]), thread_per_item(2))
        assert ("out-of-bounds", "error") in _rules(san.report())

    def test_uninitialized_read_from_empty_alloc(self):
        with attached() as san:
            dev = GPUDevice()
            arr = dev.empty(4, dtype=np.float64, name="scratch")
            with dev.launch("uninit") as k:
                k.gather(arr, np.array([2]), thread_per_item(1))
        assert ("uninitialized-read", "error") in _rules(san.report())

    def test_write_then_read_of_empty_alloc_is_clean(self):
        with attached() as san:
            dev = GPUDevice()
            arr = dev.empty(4, dtype=np.float64, name="scratch")
            with dev.launch("init") as k:
                k.scatter(arr, np.array([2]), np.array([1.0]),
                          thread_per_item(1))
            with dev.launch("use") as k:
                k.gather(arr, np.array([2]), thread_per_item(1))
        assert san.report().errors == []

    def test_settled_reactivation_via_annotations(self):
        with attached() as san:
            dev = GPUDevice()
            dev.full(4, np.inf, name="dist")
            dev.annotate("settled", vertices=np.array([1, 2]))
            dev.annotate("bucket", index=1, lo=0.0, hi=1.0,
                         active=np.array([2, 3]))
        assert ("settled-reactivated", "error") in _rules(san.report())

    def test_multisplit_key_out_of_range(self):
        """Bucket keys outside [0, B): the device notifies observers
        *before* its own fail-fast, so the hazard is recorded."""
        with attached() as san:
            dev = GPUDevice()
            with dev.launch("bad_split") as k:
                with pytest.raises(ValueError):
                    k.multisplit(np.array([0, 3, -1, 1]), 2,
                                 thread_per_item(4))
        assert ("multisplit-key-range", "error") in _rules(san.report())
        finding = [f for f in san.report().errors
                   if f.rule == "multisplit-key-range"][0]
        assert "2 lane(s)" in finding.message

    def test_multisplit_in_range_keys_clean(self):
        with attached() as san:
            dev = GPUDevice()
            with dev.launch("split") as k:
                k.multisplit(np.array([0, 1, 1, 0]), 2, thread_per_item(4))
        assert san.report().errors == []

    def test_strict_mode_raises(self):
        with pytest.raises(SanitizerError):
            with attached(strict=True):
                dev = GPUDevice()
                arr = dev.zeros(4, name="a")
                with dev.launch("oob") as k:
                    k.gather(arr, np.array([9]), thread_per_item(1))


# ----------------------------------------------------------------------
# final-result checking
# ----------------------------------------------------------------------

class TestCheckResult:
    def test_triangle_inequality_violation(self):
        g = path(4)
        san = Sanitizer()
        bad = np.array([0.0, 1.0, 5.0, 3.0])  # dist[2] > dist[1] + w(1,2)
        san.check_result(g, 0, bad)
        assert ("relaxation-violated", "error") in _rules(san.report())

    def test_bad_source_distance(self):
        g = path(4)
        san = Sanitizer()
        san.check_result(g, 0, np.array([1.0, 2.0, 3.0, 4.0]))
        assert ("bad-source", "error") in _rules(san.report())

    def test_correct_result_is_clean(self):
        g = path(4)
        san = Sanitizer()
        san.check_result(g, 0, np.array([0.0, 1.0, 2.0, 3.0]))
        assert san.report().findings == []


class TestReport:
    def test_summary_mentions_counts(self, small_kron, kron_source):
        _, report = sanitized_sssp(small_kron, kron_source, method="bl")
        s = report.summary()
        assert "window" in s and "access" in s

    def test_detach_stops_recording(self):
        san = Sanitizer()
        dev = GPUDevice()
        san.attach(dev)
        san.detach(dev)
        arr = dev.zeros(4, name="a")
        with dev.launch("oob") as k:
            k.gather(arr, np.array([-1]), thread_per_item(1))
        assert san.report().findings == []

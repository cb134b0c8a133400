"""Bucket fusion: RDBS's BASYN bucket loop runs as one persistent kernel.

Pins the launch structure of the fused loop — one host launch per chain,
one device barrier per bucket (its phase 1's), one per PRO offset
re-split, which is a segment of the chain, and one per phase 2&3 that
keeps its own: the next bucket is empty, needs a re-split, or follows a
synchronizing epoch — and where the chain must end: a fault-runtime
probe, a rollback and a successor a fault moved each return to the host,
so the next bucket starts with a host launch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import sanitized_sssp
from repro.bench import benchmark_spec, get_graph, pick_sources
from repro.faults import faulty_sssp
from repro.graphs import from_edges, kronecker, largest_component_vertices
from repro.gpusim.device import (
    GPUDevice,
    register_global_observer,
    unregister_global_observer,
)
from repro.sssp import sssp, validate_distances

SPEC = benchmark_spec()

KRON = kronecker(8, 8, weights="int", seed=0)
KRON_SRC = int(largest_component_vertices(KRON)[0])

#: the kernels a fused bucket is made of
BUCKET_SEGMENTS = {"resplit_offsets", "phase1_async", "phase23_fused"}


class _LaunchLog:
    """Observer recording each kernel segment, barrier and rollback."""

    def __init__(self) -> None:
        #: ("kernel", name, host_launch), ("barrier", name, None) and
        #: ("rollback", None, None)
        self.events: list[tuple] = []

    def on_kernel_begin(self, device, ctx) -> None:
        self.events.append(("kernel", ctx.name, ctx.host_launch))

    def on_device_barrier(self, device, ctx) -> None:
        self.events.append(("barrier", ctx.name, None))

    def on_annotate(self, device, tag, payload) -> None:
        if tag == "recovery" and payload["action"].startswith("rollback"):
            self.events.append(("rollback", None, None))

    def kernels(self) -> list[tuple[str, bool]]:
        return [(n, h) for kind, n, h in self.events if kind == "kernel"]

    def segments(self) -> list[tuple[str, bool, int]]:
        """(name, host_launch, device barriers) per kernel segment."""
        out: list[list] = []
        for kind, name, host in self.events:
            if kind == "kernel":
                out.append([name, host, 0])
            elif kind == "barrier":
                out[-1][2] += 1
        return [tuple(seg) for seg in out]


def _logged(fn, *args, **kwargs):
    log = _LaunchLog()
    register_global_observer(log)
    try:
        return fn(*args, **kwargs), log
    finally:
        unregister_global_observer(log)


def _assert_continuations_follow_bucket_segments(kernels) -> None:
    for (prev, _), (name, host) in zip(kernels, kernels[1:]):
        if not host:
            assert name in BUCKET_SEGMENTS
            assert prev in BUCKET_SEGMENTS, (prev, name)


def _kept_phase23_barriers(r, log) -> tuple[list[bool], list[bool]]:
    """Per phase 2&3 in order: (whether it ended in a barrier, whether it
    must).  It must when the next bucket is empty (the next row's index
    is not the successor's, or no bucket follows), when the next segment
    is a re-split, or when the host synchronized before the next phase 1
    (a probe or a checkpoint, so that phase 1 is a host launch)."""
    segs = log.segments()
    rows = r.extra["bucket_telemetry"]
    had, must = [], []
    bucket = 0
    for pos, (name, _host, barriers) in enumerate(segs):
        if name != "phase23_fused":
            continue
        nxt = segs[pos + 1] if pos + 1 < len(segs) else None
        successor_empty = (bucket + 1 == len(rows)
                           or rows[bucket + 1]["index"]
                           != rows[bucket]["index"] + 1)
        had.append(barriers == 1)
        must.append(successor_empty or nxt is None
                    or nxt[0] != "phase1_async" or nxt[1])
        bucket += 1
    assert bucket == len(rows) == r.extra["buckets"]
    return had, must


def _assert_one_launch_solve(g, source) -> None:
    """A clean PRO solve is one host launch; a bucket pays phase 1's
    barrier, a re-split its own, and a phase 2&3 only where it must."""
    r, log = _logged(sssp, g, source, method="rdbs", spec=SPEC)
    validate_distances(g, source, r.dist)
    kernels = log.kernels()
    names = [n for n, _h in kernels]
    c = r.counters.totals
    assert c.kernel_launches == 1
    assert sum(h for _n, h in kernels) == 1
    assert kernels[0] == ("phase1_async", True)
    had, must = _kept_phase23_barriers(r, log)
    assert had == must
    assert (c.barriers == r.extra["buckets"]
            + names.count("resplit_offsets") + sum(had))
    # most buckets share their phase 2&3's window with the next phase 1
    assert sum(had) < r.extra["buckets"] / 2
    _assert_continuations_follow_bucket_segments(kernels)


class TestLaunchStructure:
    @pytest.mark.parametrize("source", pick_sources("road-TX", 2))
    def test_road_quick_cell(self, source):
        _assert_one_launch_solve(get_graph("road-TX"), source)

    @pytest.mark.parametrize("dataset", ["k-n21-16", "Amazon"])
    def test_power_law_quick_cells(self, dataset):
        g = get_graph(dataset)
        for source in pick_sources(dataset, 2):
            _assert_one_launch_solve(g, source)

    def test_resplit_continues_the_chain(self):
        """k-n21-16 widens its buckets past the PRO split, so the solve
        re-splits; each re-split runs between two bucket segments, after
        a phase 2&3 that kept its barrier (it reads the offsets the
        re-split rewrites)."""
        g = get_graph("k-n21-16")
        source = pick_sources("k-n21-16", 1)[0]
        r, log = _logged(sssp, g, source, method="rdbs", spec=SPEC)
        segs = log.segments()
        resplits = [i for i, seg in enumerate(segs)
                    if seg[0] == "resplit_offsets"]
        assert resplits
        for i in resplits:
            assert segs[i] == ("resplit_offsets", False, 1)
            assert segs[i - 1] == ("phase23_fused", False, 1)
            assert segs[i + 1][:2] == ("phase1_async", False)

    def test_empty_successor_keeps_the_barrier(self):
        """A long edge leaves the buckets after its source's empty: that
        phase 2&3 ends in a barrier before the jump, and the chain goes
        on.  Its neighbours share their windows with the next phase 1."""
        src = np.array([0, 1, 2, 3])
        dst = np.array([1, 2, 3, 4])
        w = np.array([1.0, 1.0, 50.0, 1.0])
        g = from_edges(src, dst, w, num_vertices=5, symmetrize=True)
        r, log = _logged(sssp, g, 0, method="basyn", delta=1.0, spec=SPEC)
        validate_distances(g, 0, r.dist)
        index = [row["index"] for row in r.extra["bucket_telemetry"]]
        # buckets 0-2 hold the vertices at 0, 1 and 2; the one holding 52
        # comes after a run of empty intervals
        assert index[:3] == [0, 1, 2] and index[3] > 4
        p23 = [seg for seg in log.segments() if seg[0] == "phase23_fused"]
        assert [seg[2] for seg in p23] == [0, 0, 1] + [0] * (len(p23) - 4) + [1]
        assert r.counters.totals.kernel_launches == 1
        assert r.counters.totals.barriers == len(index) + 2

    def test_synchronizing_epoch_keeps_the_barrier(self):
        """Every second epoch probes: the phase 2&3 before it ends in a
        barrier, and only there (the probe ends the chain anyway)."""
        r, log = _logged(sssp, KRON, KRON_SRC, method="basyn", spec=SPEC,
                         recovery=True)
        validate_distances(KRON, KRON_SRC, r.dist)
        had, must = _kept_phase23_barriers(r, log)
        assert had == must
        segs = log.segments()
        probed = [i for i, seg in enumerate(segs[1:], 1)
                  if seg[0] == "recovery_probe"
                  and segs[i - 1][0] == "phase23_fused"]
        assert probed
        for i in probed:
            assert segs[i - 1][2] == 1

    def test_every_phase23_is_a_continuation(self):
        r, log = _logged(sssp, KRON, KRON_SRC, method="basyn", spec=SPEC)
        segments = [h for n, h in log.kernels() if n == "phase23_fused"]
        assert len(segments) == r.extra["buckets"]
        assert not any(segments)
        # no PRO, no re-split: the whole solve is one launch
        assert r.counters.totals.kernel_launches == 1

    def test_only_host_launches_enter_through_launch(self, monkeypatch):
        """Continuation segments enter through ``GPUDevice.segment``, so
        a wrapper around ``GPUDevice.launch`` (a host-time tracer, say)
        sees exactly the counted host launches."""
        calls = []
        launch = GPUDevice.launch

        def counted(device, *args, **kwargs):
            calls.append(args[0])
            return launch(device, *args, **kwargs)

        monkeypatch.setattr(GPUDevice, "launch", counted)
        r = sssp(KRON, KRON_SRC, method="rdbs", spec=SPEC)
        assert len(calls) == r.counters.totals.kernel_launches
        assert r.extra["buckets"] > len(calls)

    def test_sync_arm_is_not_fused(self):
        r, log = _logged(sssp, KRON, KRON_SRC, method="sync-delta",
                         spec=SPEC)
        assert all(h for _n, h in log.kernels())
        assert r.counters.totals.kernel_launches == len(log.kernels())


class _MoveSuccessor(_LaunchLog):
    """Raises every distance beyond the closing bucket at the end of the
    first barrier-free phase 2&3, as a fault in device memory would: the
    bucket that phase 2&3 opened the window for turns out empty."""

    def __init__(self, shift: float) -> None:
        super().__init__()
        self.shift = shift
        self.hi = None
        self.fired = False
        self.dists: list = []

    def on_annotate(self, device, tag, payload) -> None:
        if tag == "bucket":
            self.hi = payload["hi"]

    def on_kernel_end(self, device, ctx) -> None:
        if (self.fired or ctx.name != "phase23_fused"
                or ctx.counters.barriers):
            return
        self.fired = True
        for arr in self.dists:
            beyond = np.isfinite(arr.data) & (arr.data >= self.hi)
            arr.data[beyond] += self.shift

    def on_alloc(self, device, arr, initialized) -> None:
        if arr.name == "dist":
            self.dists.append(arr)


def test_moved_successor_returns_to_the_host():
    """If the next bucket differs from the one phase 2&3 opened the
    window for, the host synchronizes: the next phase 1 is a host
    launch, and no re-split or jump runs inside the open window."""
    log = _MoveSuccessor(shift=10.0)
    register_global_observer(log)
    try:
        sssp(KRON, KRON_SRC, method="basyn", delta=1.0, spec=SPEC)
    finally:
        unregister_global_observer(log)
    assert log.fired
    segs = log.segments()
    moved = next(i for i, seg in enumerate(segs)
                 if seg[0] == "phase23_fused" and seg[2] == 0)
    assert segs[moved + 1][:2] == ("phase1_async", True)


class TestSanitizedWindows:
    """The merged phase 2&3 + phase 1 windows are hazard-free."""

    def test_road_quick_cell(self):
        g = get_graph("road-TX")
        source = pick_sources("road-TX", 1)[0]
        r, report = sanitized_sssp(g, source, method="rdbs", spec=SPEC)
        assert report.errors == [], report.summary()
        validate_distances(g, source, r.dist)

    def test_kron_9_8(self):
        g = kronecker(9, 8, weights="int", seed=0)
        source = int(largest_component_vertices(g)[0])
        r, report = sanitized_sssp(g, source, method="rdbs", spec=SPEC)
        assert report.errors == [], report.summary()
        validate_distances(g, source, r.dist)


class TestChainEnds:
    def test_probes_end_the_chain(self):
        """Every second epoch probes (a host launch of its own), so the
        following bucket's phase 1 starts a new kernel."""
        r, log = _logged(sssp, KRON, KRON_SRC, method="rdbs", spec=SPEC,
                         recovery=True)
        validate_distances(KRON, KRON_SRC, r.dist)
        kernels = log.kernels()
        _assert_continuations_follow_bucket_segments(kernels)
        for (prev, _), (name, host) in zip(kernels, kernels[1:]):
            if prev == "recovery_probe":
                assert host, name

    def test_next_bucket_after_rollback_starts_with_host_launch(self):
        (r, rep), log = _logged(
            faulty_sssp, KRON, KRON_SRC, method="rdbs",
            plan="kernel-aborts", seed=0, spec=SPEC,
        )
        validate_distances(KRON, KRON_SRC, r.dist)
        assert rep.rollbacks > 0
        events = log.events
        starts = [i for i, e in enumerate(events) if e[0] == "rollback"]
        assert starts
        for i in starts:
            following = [e for e in events[i + 1:] if e[0] == "kernel"]
            assert following and following[0][2] is True
        _assert_continuations_follow_bucket_segments(log.kernels())


FAULT_PLANS = ["lost-updates", "stale-reads", "bitflips", "kernel-aborts",
               "chaos"]


@pytest.mark.parametrize("plan", FAULT_PLANS)
def test_fault_plans_recover_under_fusion(plan):
    r, rep = faulty_sssp(KRON, KRON_SRC, method="rdbs", plan=plan, seed=0,
                         spec=SPEC)
    validate_distances(KRON, KRON_SRC, r.dist)
    assert rep.injected > 0
    assert rep.escaped == 0
    assert rep.verified is True

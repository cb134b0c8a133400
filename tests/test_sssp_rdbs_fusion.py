"""Bucket fusion: RDBS's BASYN bucket loop runs as one persistent kernel.

Pins the launch structure of the fused loop — one host launch per chain,
one device barrier per bucket (its phase 1's), one per PRO offset
re-split, which is a segment of the chain, and the ones a phase 2&3
keeps for the next-bucket minimum it folds: one when held (the next
bucket needs a re-split, or follows a synchronizing epoch), two before
an empty next bucket, none otherwise — and where the chain must end: a
fault-runtime probe, a rollback and a successor a fault moved each
return to the host, so the next bucket starts with a host launch.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.analysis import sanitized_sssp
from repro.bench import benchmark_spec, get_graph, pick_sources
from repro.faults import faulty_sssp
from repro.graphs import (
    from_edges,
    grid_road_network,
    kronecker,
    largest_component_vertices,
)
from repro.gpusim.device import (
    GPUDevice,
    register_global_observer,
    unregister_global_observer,
)
from repro.sssp import gpu_rdbs, sssp, validate_distances

SPEC = benchmark_spec()

KRON = kronecker(8, 8, weights="int", seed=0)
KRON_SRC = int(largest_component_vertices(KRON)[0])

#: the kernels a fused bucket is made of
BUCKET_SEGMENTS = {"resplit_offsets", "phase1_async", "phase23_fused"}


class _LaunchLog:
    """Observer recording each kernel segment, barrier, next-bucket
    minimum fold and rollback."""

    def __init__(self) -> None:
        #: ("kernel", name, host_launch), ("barrier", name, None),
        #: ("fold", name, None) and ("rollback", None, None)
        self.events: list[tuple] = []
        #: ``hold`` of every BASYN phase 2&3, in order (see :func:`_logged`)
        self.holds: list[bool] = []

    def on_kernel_begin(self, device, ctx) -> None:
        self.events.append(("kernel", ctx.name, ctx.host_launch))

    def on_device_barrier(self, device, ctx) -> None:
        self.events.append(("barrier", ctx.name, None))

    def on_access(self, ctx, kind, arr, idx, values, a) -> None:
        if kind == "atomic_min" and arr.name == "next_min":
            self.events.append(("fold", ctx.name, None))

    def on_annotate(self, device, tag, payload) -> None:
        if tag == "recovery" and payload["action"].startswith("rollback"):
            self.events.append(("rollback", None, None))

    def kernels(self) -> list[tuple[str, bool]]:
        return [(n, h) for kind, n, h in self.events if kind == "kernel"]

    def segment_steps(self) -> list[tuple[str, bool, tuple[str, ...]]]:
        """(name, host_launch, its barriers and folds in order) per kernel
        segment."""
        out: list[tuple[str, bool, list[str]]] = []
        for kind, name, host in self.events:
            if kind == "kernel":
                out.append((name, host, []))
            elif kind in ("barrier", "fold"):
                out[-1][2].append(kind)
        return [(name, host, tuple(steps)) for name, host, steps in out]

    def segments(self) -> list[tuple[str, bool, int]]:
        """(name, host_launch, device barriers) per kernel segment."""
        return [(name, host, steps.count("barrier"))
                for name, host, steps in self.segment_steps()]


def _logged(fn, *args, **kwargs):
    """Run ``fn`` under a :class:`_LaunchLog`, which also records the
    ``hold`` the bucket loop hands each BASYN phase 2&3."""
    log = _LaunchLog()
    phase23 = gpu_rdbs._phase23_fused

    def spy(*a, **kw):
        if kw.get("pool") is not None:
            log.holds.append(kw["hold"])
        return phase23(*a, **kw)

    register_global_observer(log)
    try:
        with mock.patch.object(gpu_rdbs, "_phase23_fused", spy):
            return fn(*args, **kwargs), log
    finally:
        unregister_global_observer(log)


def _assert_continuations_follow_bucket_segments(kernels) -> None:
    for (prev, _), (name, host) in zip(kernels, kernels[1:]):
        if not host:
            assert name in BUCKET_SEGMENTS
            assert prev in BUCKET_SEGMENTS, (prev, name)


def _phase23_barriers(r, log) -> tuple[list[int], list[int]]:
    """Per phase 2&3 in order: (the device barriers it paid, the ones it
    must).  A held one (the next bucket needs a re-split, or the host
    synchronizes before the next phase 1) folds the next-bucket minimum
    before its one barrier.  One before an empty successor (the next
    row's index is not the successor's, or no bucket follows) learns that
    only at a barrier, so it folds between two.  Every other one shares
    its window with the next phase 1 and pays none."""
    segs = log.segments()
    rows = r.extra["bucket_telemetry"]
    had, must = [], []
    bucket = 0
    for pos, (name, _host, barriers) in enumerate(segs):
        if name != "phase23_fused":
            continue
        successor_empty = (bucket + 1 == len(rows)
                           or rows[bucket + 1]["index"]
                           != rows[bucket]["index"] + 1)
        hold = log.holds[bucket]
        if not successor_empty:
            # held exactly when a re-split or a host launch comes next
            nxt = segs[pos + 1]
            assert hold == (nxt[0] != "phase1_async" or nxt[1]), nxt
        had.append(barriers)
        must.append(1 if hold else 2 if successor_empty else 0)
        bucket += 1
    assert bucket == len(rows) == r.extra["buckets"] == len(log.holds)
    return had, must


def _assert_folds_end_in_a_barrier(log) -> None:
    """Only a phase 2&3 that ends in a barrier folds the next-bucket
    minimum (one ``atomic_min`` op into ``next_min``), right before that
    barrier: after a first one when the successor is empty."""
    for name, _host, steps in log.segment_steps():
        if name == "phase23_fused":
            assert steps in ((), ("fold", "barrier"),
                             ("barrier", "fold", "barrier")), steps
        else:
            assert "fold" not in steps, (name, steps)


def _assert_one_launch_solve(g, source) -> None:
    """A clean PRO solve is one host launch; a bucket pays phase 1's
    barrier, a re-split its own, and a phase 2&3 only where it folds."""
    r, log = _logged(sssp, g, source, method="rdbs", spec=SPEC)
    validate_distances(g, source, r.dist)
    kernels = log.kernels()
    names = [n for n, _h in kernels]
    c = r.counters.totals
    assert c.kernel_launches == 1
    assert sum(h for _n, h in kernels) == 1
    assert kernels[0] == ("phase1_async", True)
    had, must = _phase23_barriers(r, log)
    assert had == must
    assert (c.barriers == r.extra["buckets"]
            + names.count("resplit_offsets") + sum(had))
    # most buckets share their phase 2&3's window with the next phase 1
    assert sum(map(bool, had)) < r.extra["buckets"] / 2
    _assert_folds_end_in_a_barrier(log)
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
        a phase 2&3 that kept its barrier: it was held (it reads the
        offsets the re-split rewrites), or its successor was empty."""
        g = get_graph("k-n21-16")
        source = pick_sources("k-n21-16", 1)[0]
        r, log = _logged(sssp, g, source, method="rdbs", spec=SPEC)
        had, must = _phase23_barriers(r, log)
        assert had == must
        segs = log.segments()
        phase23 = [i for i, seg in enumerate(segs)
                   if seg[0] == "phase23_fused"]
        resplits = [i for i, seg in enumerate(segs)
                    if seg[0] == "resplit_offsets"]
        assert resplits
        for i in resplits:
            assert segs[i] == ("resplit_offsets", False, 1)
            assert segs[i - 1][:2] == ("phase23_fused", False)
            assert had[phase23.index(i - 1)] > 0
            assert segs[i + 1][:2] == ("phase1_async", False)

    def test_empty_successor_keeps_the_barrier(self):
        """A long edge leaves the buckets after its source's empty: that
        phase 2&3 learns it at a barrier, folds the minimum the jump
        reads and ends in a second barrier, and the chain goes on.  Its
        neighbours share their windows with the next phase 1."""
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
        assert [seg[2] for seg in p23] == [0, 0, 2] + [0] * (len(p23) - 4) + [2]
        _assert_folds_end_in_a_barrier(log)
        assert r.counters.totals.kernel_launches == 1
        assert r.counters.totals.barriers == len(index) + 4

    def test_synchronizing_epoch_keeps_the_barrier(self):
        """Every second epoch probes: the phase 2&3 before it ends in a
        barrier (the probe ends the chain anyway), one when held, two
        when its successor is empty."""
        r, log = _logged(sssp, KRON, KRON_SRC, method="basyn", spec=SPEC,
                         recovery=True)
        validate_distances(KRON, KRON_SRC, r.dist)
        had, must = _phase23_barriers(r, log)
        assert had == must
        _assert_folds_end_in_a_barrier(log)
        segs = log.segments()
        phase23 = [i for i, seg in enumerate(segs)
                   if seg[0] == "phase23_fused"]
        probed = [i for i, seg in enumerate(segs[1:], 1)
                  if seg[0] == "recovery_probe"
                  and segs[i - 1][0] == "phase23_fused"]
        assert probed
        for i in probed:
            assert had[phase23.index(i - 1)] > 0

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


def _quick_cell(dataset: str):
    return lambda: (get_graph(dataset), pick_sources(dataset, 1)[0])


def _road_grid():
    g = grid_road_network(32, 32, seed=0)
    return g, int(largest_component_vertices(g)[0])


#: graphs and sources whose RDBS results are pinned to the eager fold's
IDENTITY_CELLS = {
    "road-TX": _quick_cell("road-TX"),
    "k-n21-16": _quick_cell("k-n21-16"),
    "Amazon": _quick_cell("Amazon"),
    "kron:8,8": lambda: (KRON, KRON_SRC),
    "road:32,32": _road_grid,
}


def _canonical(value) -> bytes:
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + value.tobytes()
    if isinstance(value, (float, np.floating)):
        return float(value).hex().encode()
    return repr(value).encode()


def _result_digest(r) -> tuple:
    """(dist sha256, WorkTally fields, bucket-row sha256, final Δ)."""
    rows = hashlib.sha256()
    for row in r.extra["bucket_telemetry"]:
        for key in sorted(row):
            rows.update(key.encode() + b"=" + _canonical(row[key]) + b";")
    w = r.work
    return (
        hashlib.sha256(np.ascontiguousarray(r.dist).tobytes()).hexdigest(),
        (w.total_updates, w.valid_updates, w.invalid_updates, w.checks,
         w.relaxations),
        rows.hexdigest(),
        float(r.extra["final_delta"]).hex(),
    )


#: :func:`_result_digest` of the engine that folded the next-bucket
#: minimum in every BASYN phase 2&3, per (cell, recovery on)
EAGER_FOLD = {
    ("Amazon", False): (
        "f2edc0447e7d9c899dd7c25ed7b4110a47336238b5080d9781811b4f0795d92b",
        (10902, 6000, 4902, 37007, 47909),
        "a535fff42a371cc4fe7b58ea3fb9e9e559daaf9681129044230a87dc2f91f1d6",
        "0x1.db8be063bd9c8p+6",
    ),
    ("Amazon", True): (
        "f2edc0447e7d9c899dd7c25ed7b4110a47336238b5080d9781811b4f0795d92b",
        (10902, 6000, 4902, 37007, 47909),
        "a535fff42a371cc4fe7b58ea3fb9e9e559daaf9681129044230a87dc2f91f1d6",
        "0x1.db8be063bd9c8p+6",
    ),
    ("k-n21-16", False): (
        "1c7571fbb8cc73bcec1ce3f38b80f9ec9547c812bb0d4d30387e04f81d3ef7d9",
        (13837, 6438, 7399, 199671, 213508),
        "6d74b1ede857bb871f1f8e48e23d11454f65af47b2f404e3a0aa867abd058e20",
        "0x1.5f5f9a564c038p+6",
    ),
    ("k-n21-16", True): (
        "1c7571fbb8cc73bcec1ce3f38b80f9ec9547c812bb0d4d30387e04f81d3ef7d9",
        (13837, 6438, 7399, 199671, 213508),
        "6d74b1ede857bb871f1f8e48e23d11454f65af47b2f404e3a0aa867abd058e20",
        "0x1.5f5f9a564c038p+6",
    ),
    ("kron:8,8", False): (
        "f684826386f746ed3d222b426c3632fa6694b187fe3d89b32ae658b3723f38fa",
        (395, 215, 180, 2252, 2647),
        "5114fb67221076638f5a433456a46b3608a8f80e2133815a2327b18085ac054a",
        "0x1.82bd8d505a3c8p+6",
    ),
    ("kron:8,8", True): (
        "f684826386f746ed3d222b426c3632fa6694b187fe3d89b32ae658b3723f38fa",
        (395, 215, 180, 2252, 2647),
        "5114fb67221076638f5a433456a46b3608a8f80e2133815a2327b18085ac054a",
        "0x1.82bd8d505a3c8p+6",
    ),
    ("road-TX", False): (
        "5e8a984d0719335617f5698d842a5e6d244c33e4abc163249a5744efe1207ac3",
        (20896, 16384, 4512, 41355, 62251),
        "66bf0f80efe4a4a870b33081e77305d8694eac225a8d79a23f95b16b2b3cea52",
        "0x1.8f19b277d7b41p+8",
    ),
    ("road-TX", True): (
        "5e8a984d0719335617f5698d842a5e6d244c33e4abc163249a5744efe1207ac3",
        (20896, 16384, 4512, 41355, 62251),
        "66bf0f80efe4a4a870b33081e77305d8694eac225a8d79a23f95b16b2b3cea52",
        "0x1.8f19b277d7b41p+8",
    ),
    ("road:32,32", False): (
        "809cdf8b2608762d1450f5e837255050554bb3bb6ebd1edf6fa5613de7c049ff",
        (1309, 1024, 285, 2556, 3865),
        "e27768782a9ecaee413fb7cf4c8525e884a8110f0fd7aaffc03bc639cccd4c2f",
        "0x1.0d8d5481ce77ap+8",
    ),
    ("road:32,32", True): (
        "809cdf8b2608762d1450f5e837255050554bb3bb6ebd1edf6fa5613de7c049ff",
        (1309, 1024, 285, 2556, 3865),
        "e27768782a9ecaee413fb7cf4c8525e884a8110f0fd7aaffc03bc639cccd4c2f",
        "0x1.0d8d5481ce77ap+8",
    ),
}


class TestNextBucketFold:
    """The next-bucket minimum is folded only where a barrier reads it,
    which moves no decision: the host decides from its own ``dist``."""

    @pytest.mark.parametrize("dataset", ["road-TX", "k-n21-16", "Amazon"])
    def test_folds_only_where_a_barrier_reads_it(self, dataset):
        """Under recovery every second epoch synchronizes, so half the
        phase 2&3 segments are held (clean solves: TestLaunchStructure)."""
        g = get_graph(dataset)
        source = pick_sources(dataset, 1)[0]
        r, log = _logged(sssp, g, source, method="rdbs", spec=SPEC,
                         recovery=True)
        had, must = _phase23_barriers(r, log)
        assert had == must
        _assert_folds_end_in_a_barrier(log)
        assert sum(h == 1 for h in had) > r.extra["buckets"] / 4

    @pytest.mark.parametrize("recovery", [None, True])
    @pytest.mark.parametrize("cell", sorted(IDENTITY_CELLS))
    def test_results_match_the_eager_fold(self, cell, recovery):
        """Distances, work tally, bucket rows and the final Δ are those
        of the engine that folded in every phase 2&3 (recorded digests)."""
        g, source = IDENTITY_CELLS[cell]()
        r = sssp(g, source, method="rdbs", spec=SPEC, recovery=recovery)
        assert _result_digest(r) == EAGER_FOLD[cell, bool(recovery)]


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

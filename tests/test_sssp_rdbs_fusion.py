"""Bucket fusion: RDBS's BASYN bucket loop runs as one persistent kernel.

Pins the launch structure of the fused loop — one host launch per chain,
two device barriers per bucket and one per PRO offset re-split, which is
a segment of the chain — and where the chain must end: a fault-runtime
probe and a rollback each return to the host, so the next bucket starts
with a host launch.
"""

from __future__ import annotations

import pytest

from repro.bench import benchmark_spec, get_graph, pick_sources
from repro.faults import faulty_sssp
from repro.graphs import kronecker, largest_component_vertices
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
    """Observer recording each kernel segment and each rollback."""

    def __init__(self) -> None:
        #: ("kernel", name, host_launch) and ("rollback", None, None)
        self.events: list[tuple] = []

    def on_kernel_begin(self, device, ctx) -> None:
        self.events.append(("kernel", ctx.name, ctx.host_launch))

    def on_annotate(self, device, tag, payload) -> None:
        if tag == "recovery" and payload["action"].startswith("rollback"):
            self.events.append(("rollback", None, None))

    def kernels(self) -> list[tuple[str, bool]]:
        return [(n, h) for kind, n, h in self.events if kind == "kernel"]


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


def _assert_one_launch_solve(g, source) -> None:
    """A clean PRO solve is one host launch: a re-split is a segment of
    the chain ended by its own device barrier."""
    r, log = _logged(sssp, g, source, method="rdbs", spec=SPEC)
    validate_distances(g, source, r.dist)
    kernels = log.kernels()
    names = [n for n, _h in kernels]
    c = r.counters.totals
    assert c.kernel_launches == 1
    assert sum(h for _n, h in kernels) == 1
    assert kernels[0] == ("phase1_async", True)
    assert (c.barriers
            == 2 * r.extra["buckets"] + names.count("resplit_offsets"))
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
        re-splits; each re-split runs between two bucket segments."""
        g = get_graph("k-n21-16")
        source = pick_sources("k-n21-16", 1)[0]
        r, log = _logged(sssp, g, source, method="rdbs", spec=SPEC)
        kernels = log.kernels()
        resplits = [i for i, (n, _h) in enumerate(kernels)
                    if n == "resplit_offsets"]
        assert resplits
        for i in resplits:
            assert kernels[i][1] is False
            assert kernels[i - 1][0] == "phase23_fused"
            assert kernels[i + 1] == ("phase1_async", False)

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

"""Near-Far runs its relax/split loop as one persistent kernel.

Pins the launch structure of the fused loop — one host launch per chain,
the unfused loop's barrier count — and where the chain must end: a
fault-runtime probe or checkpoint and a rollback each return to the host,
so the next segment is a host launch.
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

#: the kernels the fused loop is made of
LOOP_SEGMENTS = {"nearfar_relax", "nearfar_split"}

#: barriers of the road-TX quick-cell solves before fusion (one per relax
#: and per boundary split); fusion turns each into a device barrier
ROAD_BARRIERS = {15480: 889, 10241: 825}


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


def _assert_continuations_follow_loop_segments(kernels) -> None:
    for (prev, _), (name, host) in zip(kernels, kernels[1:]):
        if not host:
            assert name in LOOP_SEGMENTS
            assert prev in LOOP_SEGMENTS, (prev, name)


class TestLaunchStructure:
    def test_quick_cell_sources_are_pinned(self):
        assert pick_sources("road-TX", 2) == list(ROAD_BARRIERS)

    @pytest.mark.parametrize("source", list(ROAD_BARRIERS))
    def test_road_quick_cell(self, source):
        g = get_graph("road-TX")
        r, log = _logged(sssp, g, source, method="near-far", spec=SPEC)
        validate_distances(g, source, r.dist)
        c = r.counters.totals
        assert c.kernel_launches <= 2
        assert c.barriers == ROAD_BARRIERS[source]
        kernels = log.kernels()
        assert kernels[0] == ("nearfar_relax", True)
        assert sum(h for _n, h in kernels) == c.kernel_launches
        _assert_continuations_follow_loop_segments(kernels)
        # every segment ends in exactly one device barrier
        assert c.barriers == len(kernels)

    def test_only_host_launches_enter_through_launch(self, monkeypatch):
        """Continuation segments enter through ``GPUDevice.segment``, so
        a wrapper around ``GPUDevice.launch`` sees exactly the counted
        host launches."""
        calls = []
        launch = GPUDevice.launch

        def counted(device, *args, **kwargs):
            calls.append(args[0])
            return launch(device, *args, **kwargs)

        monkeypatch.setattr(GPUDevice, "launch", counted)
        r = sssp(KRON, KRON_SRC, method="near-far", spec=SPEC)
        assert calls == ["nearfar_relax"]
        assert r.counters.totals.kernel_launches == 1
        assert r.extra["iterations"] > len(calls)

    def test_decisions_are_charged_device_work(self):
        """The near-pile-empty test and the threshold advance are device
        ops of the relax segments: their cells are written there."""
        writes: dict[str, int] = {}

        class _Cells:
            def on_access(self, ctx, kind, arr, idx, values, a):
                if arr.name in ("near_count", "far_min"):
                    writes[arr.name] = writes.get(arr.name, 0) + 1
                    assert ctx.name == "nearfar_relax"

        obs = _Cells()
        register_global_observer(obs)
        try:
            sssp(KRON, KRON_SRC, method="near-far", spec=SPEC)
        finally:
            unregister_global_observer(obs)
        assert writes["near_count"] > 0 and writes["far_min"] > 0


class TestChainEnds:
    def test_synchronizing_epochs_end_the_chain(self):
        """A probe or checkpoint is a host synchronization, so the relax
        segment after it starts a new kernel."""
        r, log = _logged(sssp, KRON, KRON_SRC, method="near-far", spec=SPEC,
                         recovery=True)
        validate_distances(KRON, KRON_SRC, r.dist)
        kernels = log.kernels()
        _assert_continuations_follow_loop_segments(kernels)
        probes = [i for i, (n, _h) in enumerate(kernels)
                  if n == "recovery_probe"]
        assert probes
        for i in probes:
            following = [k for k in kernels[i + 1:] if k[0] in LOOP_SEGMENTS]
            if following:
                assert following[0][1] is True, following[0]

    def test_next_segment_after_rollback_is_a_host_launch(self):
        (r, rep), log = _logged(
            faulty_sssp, KRON, KRON_SRC, method="near-far",
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
        _assert_continuations_follow_loop_segments(log.kernels())


FAULT_PLANS = ["lost-updates", "stale-reads", "bitflips", "kernel-aborts",
               "chaos"]


@pytest.mark.parametrize("plan", FAULT_PLANS)
def test_fault_plans_recover_under_fusion(plan):
    r, rep = faulty_sssp(KRON, KRON_SRC, method="near-far", plan=plan,
                         seed=0, spec=SPEC)
    validate_distances(KRON, KRON_SRC, r.dist)
    assert rep.injected > 0
    assert rep.escaped == 0
    assert rep.verified is True

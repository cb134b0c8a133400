"""ADDS runs its near/far loop as one persistent kernel.

Pins the launch structure of the fused loop — one host launch per chain,
one device barrier per drain, so one per threshold (the initial Δ and
each advance) — the charged threshold and Δ decisions, and where the
chain must end: a fault-runtime probe, a checkpoint and a rollback each
return to the host, so the next segment is a host launch.
"""

from __future__ import annotations

import pytest

from repro.bench import benchmark_spec, get_graph, pick_sources
import repro.faults.runtime as recovery_runtime
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
LOOP_SEGMENTS = {"adds_async", "adds_split"}


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


def _assert_loop_restarts_after(kernels, names: set[str]) -> None:
    """The first loop segment after each kernel in ``names`` is a host
    launch: that kernel synchronized with the host."""
    marks = [i for i, (n, _h) in enumerate(kernels) if n in names]
    assert marks
    for i in marks:
        following = [k for k in kernels[i + 1:] if k[0] in LOOP_SEGMENTS]
        if following:
            assert following[0][1] is True, following[0]


class TestLaunchStructure:
    @pytest.mark.parametrize("dataset", ["road-TX", "k-n21-16", "Amazon"])
    def test_quick_cells(self, dataset):
        g = get_graph(dataset)
        for source in pick_sources(dataset, 2):
            r, log = _logged(sssp, g, source, method="adds", spec=SPEC)
            validate_distances(g, source, r.dist)
            kernels = log.kernels()
            names = [n for n, _h in kernels]
            c = r.counters.totals
            assert c.kernel_launches == 1
            assert kernels[0] == ("adds_async", True)
            assert sum(h for _n, h in kernels) == 1
            _assert_continuations_follow_loop_segments(kernels)
            # every split opens a drain, and each drain ends in one
            # barrier: one barrier per threshold, the initial Δ included
            drains = names.count("adds_async")
            assert drains == names.count("adds_split") + 1
            assert c.barriers == drains

    def test_only_the_first_segment_enters_through_launch(self, monkeypatch):
        """Continuation segments enter through ``GPUDevice.segment``, so
        a wrapper around ``GPUDevice.launch`` sees exactly the counted
        host launches."""
        calls = []
        launch = GPUDevice.launch

        def counted(device, *args, **kwargs):
            calls.append(args[0])
            return launch(device, *args, **kwargs)

        monkeypatch.setattr(GPUDevice, "launch", counted)
        r = sssp(KRON, KRON_SRC, method="adds", spec=SPEC)
        assert calls == ["adds_async"]
        assert r.counters.totals.kernel_launches == 1

    def test_decisions_are_charged_device_work(self):
        """Far-hit lanes fold into the far-minimum cell, each split's
        leaders read it, and each split's promoting warps publish the
        count the next drain's leaders read after its barrier."""
        ops: dict[str, int] = {}

        class _Cells:
            def on_access(self, ctx, kind, arr, idx, values, a):
                if arr.name in ("adds_far_min", "adds_promoted"):
                    key = f"{ctx.name}:{arr.name}:{kind}"
                    ops[key] = ops.get(key, 0) + int(idx.size)

        obs = _Cells()
        register_global_observer(obs)
        try:
            r, log = _logged(sssp, KRON, KRON_SRC, method="adds", spec=SPEC)
        finally:
            unregister_global_observer(obs)
        names = [n for n, _h in log.kernels()]
        splits = names.count("adds_split")
        assert splits > 0
        assert ops["adds_async:adds_far_min:atomic_min"] > 0
        assert ops["adds_split:adds_far_min:read"] >= splits
        assert ops["adds_split:adds_far_min:write"] == splits
        assert ops["adds_split:adds_promoted:atomic_add"] >= splits
        assert (ops["adds_async:adds_promoted:write"]
                == names.count("adds_async"))
        # the folded cell never decides: distances match Dijkstra
        validate_distances(KRON, KRON_SRC, r.dist)


class TestChainEnds:
    def test_probes_end_the_chain(self):
        """With a probe every second epoch, the loop segment after each
        probe starts a new kernel."""
        r, log = _logged(sssp, KRON, KRON_SRC, method="adds", spec=SPEC,
                         recovery=True)
        validate_distances(KRON, KRON_SRC, r.dist)
        kernels = log.kernels()
        _assert_continuations_follow_loop_segments(kernels)
        _assert_loop_restarts_after(kernels, {"recovery_probe"})

    def test_checkpoints_end_the_chain(self, monkeypatch):
        """A checkpoint alone (probes off) is a host synchronization too:
        the loop restarts on the epoch it runs."""
        monkeypatch.setattr(recovery_runtime, "PROBE_INTERVAL", 10**9)
        monkeypatch.setattr(recovery_runtime, "CHECKPOINT_INTERVAL", 2)
        r, log = _logged(sssp, KRON, KRON_SRC, method="adds", spec=SPEC,
                         recovery=True)
        validate_distances(KRON, KRON_SRC, r.dist)
        kernels = log.kernels()
        assert "recovery_probe" not in {n for n, _h in kernels}
        _assert_continuations_follow_loop_segments(kernels)
        loop = [h for n, h in kernels if n in LOOP_SEGMENTS]
        # epochs 2, 4, ... checkpoint, so every second loop segment
        # starts a new kernel
        assert loop[0] is True
        assert sum(loop) == 1 + len(loop) // 2

    def test_next_segment_after_rollback_is_a_host_launch(self):
        (r, rep), log = _logged(
            faulty_sssp, KRON, KRON_SRC, method="adds",
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
    r, rep = faulty_sssp(KRON, KRON_SRC, method="adds", plan=plan, seed=0,
                         spec=SPEC)
    validate_distances(KRON, KRON_SRC, r.dist)
    assert rep.injected > 0
    assert rep.escaped == 0
    assert rep.verified is True

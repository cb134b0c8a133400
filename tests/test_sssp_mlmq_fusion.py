"""MLMQ runs its level loop as one persistent kernel.

Pins the launch structure of the fused loop — one host launch per chain,
one device barrier per level — the charged next-level decision, and
where the chain must end: a fault-runtime probe or checkpoint and a
rollback each return to the host, so the next segment is a host launch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import benchmark_spec, get_graph, pick_sources
from repro.faults import faulty_sssp
from repro.graphs import kronecker, largest_component_vertices
from repro.gpusim.device import (
    GPUDevice,
    register_global_observer,
    unregister_global_observer,
)
from repro.gpusim.kernels import thread_per_item
from repro.sssp import sssp, validate_distances
from repro.sssp.gpu_mlmq import NUM_QUEUES, WINDOW_LEVELS
from repro.sssp.persistent import fold_min_filtered

SPEC = benchmark_spec()

KRON = kronecker(8, 8, weights="int", seed=0)
KRON_SRC = int(largest_component_vertices(KRON)[0])

#: the kernels the fused loop is made of
LOOP_SEGMENTS = {"mlmq_init", "mlmq_advance", "mlmq_drain"}

#: block leaders of the drain grid that read the next-level cell
LEADERS = 32


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
    @pytest.mark.parametrize("dataset", ["road-TX", "k-n21-16", "Amazon"])
    def test_quick_cells(self, dataset):
        g = get_graph(dataset)
        for source in pick_sources(dataset, 2):
            r, log = _logged(sssp, g, source, method="mlmq", spec=SPEC)
            validate_distances(g, source, r.dist)
            c = r.counters.totals
            assert c.kernel_launches == 1
            # one barrier per level: the advance opening a level shares
            # the synchronization window of its drain
            assert c.barriers == r.extra["levels"]
            kernels = log.kernels()
            assert kernels[0] == ("mlmq_init", True)
            assert sum(h for _n, h in kernels) == 1
            _assert_continuations_follow_loop_segments(kernels)
            names = [n for n, _h in kernels]
            assert names.count("mlmq_drain") == r.extra["levels"]
            assert names.count("mlmq_advance") == r.extra["advances"]

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
        r = sssp(KRON, KRON_SRC, method="mlmq", spec=SPEC)
        assert calls == ["mlmq_init"]
        assert r.counters.totals.kernel_launches == 1
        assert r.extra["levels"] > len(calls)

    def test_decision_is_charged_device_work(self):
        """The next-level choice is device ops of the drain segments: the
        parked lanes fold into the next-level cell, and after each level's
        barrier the block leaders read it beside one 16-lane load of the
        queue-size descriptors."""
        reads: dict[str, int] = {}
        loads: list[int] = []

        class _Cells:
            def on_access(self, ctx, kind, arr, idx, values, a):
                if arr.name in ("mlmq_level_min", "mlmq_queue_sizes"):
                    assert ctx.name == "mlmq_drain"
                    key = f"{arr.name}:{kind}"
                    reads[key] = reads.get(key, 0) + int(idx.size)
                    if arr.name == "mlmq_queue_sizes":
                        assert idx.size == WINDOW_LEVELS * NUM_QUEUES
                        loads.append(ctx.counters.inst_executed_global_loads)

        obs = _Cells()
        register_global_observer(obs)
        try:
            r = sssp(KRON, KRON_SRC, method="mlmq", spec=SPEC)
        finally:
            unregister_global_observer(obs)
        levels = r.extra["levels"]
        descriptors = WINDOW_LEVELS * NUM_QUEUES
        assert reads["mlmq_queue_sizes:read"] == descriptors * levels
        # the leaders' reads, plus one filter read per parked lane
        assert reads["mlmq_level_min:read"] > LEADERS * levels
        assert reads["mlmq_level_min:atomic_min"] > 0
        # the filter keeps the atomics below the parked lanes' reads
        assert (reads["mlmq_level_min:atomic_min"]
                < reads["mlmq_level_min:read"] - LEADERS * levels)
        # the gathers are counted in their segment's loads
        assert len(loads) == levels and all(n > 0 for n in loads)


def test_filtered_fold_keeps_only_lanes_below_the_cell():
    """The cell ends at the exact minimum; a lane whose value is not below
    the cell it read issues no atomic."""
    lanes: list[int] = []

    class _Atomics:
        def on_access(self, ctx, kind, arr, idx, values, a):
            if kind == "atomic_min":
                lanes.append(int(idx.size))

    device = GPUDevice(SPEC)
    device.attach(_Atomics())
    cells = device.full(3, np.inf, name="cells")
    with device.launch("fold") as k:
        fold_min_filtered(k, np.array([5.0, 3.0, 8.0]), thread_per_item(3),
                          cells, 1)
        fold_min_filtered(k, np.array([4.0, 2.0, 9.0, 3.0]),
                          thread_per_item(4), cells, 1)
        fold_min_filtered(k, np.array([6.0]), thread_per_item(1), cells, 1)
    assert cells.data.tolist() == [np.inf, 2.0, np.inf]
    assert lanes == [3, 1]


class TestChainEnds:
    def test_synchronizing_epochs_end_the_chain(self):
        """A probe or checkpoint is a host synchronization, so the loop
        segment after it starts a new kernel."""
        r, log = _logged(sssp, KRON, KRON_SRC, method="mlmq", spec=SPEC,
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
            faulty_sssp, KRON, KRON_SRC, method="mlmq",
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
    r, rep = faulty_sssp(KRON, KRON_SRC, method="mlmq", plan=plan,
                         seed=0, spec=SPEC)
    validate_distances(KRON, KRON_SRC, r.dist)
    assert rep.injected > 0
    assert rep.escaped == 0
    assert rep.verified is True

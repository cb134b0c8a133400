"""The fault injector: a device observer that executes a FaultPlan.

Attaches through the same global-observer hook the sanitizer uses, so it
reaches devices that algorithms construct internally.  Besides the passive
``on_*`` events it implements two of the *transform* hooks the device
offers (``transform_read`` / ``transform_atomic``) —
called only when observers are attached, **after** all accounting, so a
run without an injector is byte-identical in every counter.

Determinism: each spec advances a private *eligible-event* counter (an
event is eligible only when injecting would actually change state) and
fires at the positions its ``start``/``period``/``count`` schedule names;
within an event, lane/cell choice comes from one ``np.random.default_rng``
seeded by the plan.  No wall clock, no global RNG — two identical runs
inject identically.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..gpusim.device import register_global_observer, unregister_global_observer
from .plan import FaultPlan, FaultSpec, InjectedKernelAbort, get_plan
from .report import FaultReport

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes one :class:`FaultPlan` against every device it observes."""

    def __init__(self, plan: str | FaultPlan, seed: int | None = None) -> None:
        self.plan = get_plan(plan, seed)
        self.report = FaultReport(plan=self.plan.name, seed=self.plan.seed)
        self._rng = np.random.default_rng(self.plan.seed)
        self._eligible = [0] * len(self.plan.specs)
        self._fired = [0] * len(self.plan.specs)
        #: watched DeviceArrays per device (by id), name-matched to specs
        self._watched: dict[int, list] = {}
        #: double-buffered snapshots for stale reads: id(arr) -> ndarray
        self._snap_cur: dict[int, np.ndarray] = {}
        self._snap_prev: dict[int, np.ndarray] = {}
        self._need_snapshots = any(
            s.kind == "stale-read" for s in self.plan.specs
        )
        self._kernel = ""

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    @contextmanager
    def attached(self) -> Iterator["FaultInjector"]:
        """Attach to every device created inside the ``with`` block."""
        register_global_observer(self)
        try:
            yield self
        finally:
            unregister_global_observer(self)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _specs(self, kind: str) -> Iterator[tuple[int, FaultSpec]]:
        for i, spec in enumerate(self.plan.specs):
            if spec.kind == kind:
                yield i, spec

    def _due(self, i: int, spec: FaultSpec) -> bool:
        """Advance spec ``i``'s eligible counter; True when it fires now."""
        e = self._eligible[i]
        self._eligible[i] += 1
        if self._fired[i] >= spec.count or e < spec.start:
            return False
        if (e - spec.start) % spec.period != 0:
            return False
        self._fired[i] += 1
        return True

    def _kernel_matches(self, spec: FaultSpec, kernel: str) -> bool:
        return spec.kernel is None or spec.kernel in kernel

    def _announce(self, device, event) -> None:
        """Mirror an injected fault onto the annotate stream, so an
        attached tracer (docs/observability.md) timestamps it on the
        simulated timeline; free when nothing subscribes."""
        if device.handlers("on_annotate"):
            device.annotate(
                "fault", kind=event.kind, kernel=event.kernel,
                array=event.array, index=event.index, detail=event.detail,
            )

    # ------------------------------------------------------------------
    # passive device events
    # ------------------------------------------------------------------
    def on_alloc(self, device, arr, _initialized: bool) -> None:
        """Track arrays whose name any spec targets."""
        if any(arr.name == s.array for s in self.plan.specs):
            self._watched.setdefault(id(device), []).append(arr)

    def on_kernel_begin(self, device, ctx) -> None:
        """Rotate stale snapshots; possibly abort the launch."""
        self._kernel = ctx.name
        if self._need_snapshots:
            for arr in self._watched.get(id(device), ()):
                prev = self._snap_cur.get(id(arr))
                if prev is not None:
                    self._snap_prev[id(arr)] = prev
                self._snap_cur[id(arr)] = arr.data.copy()
        for i, spec in self._specs("kernel-abort"):
            if not self._kernel_matches(spec, ctx.name):
                continue
            if self._due(i, spec):
                event = self.report.record(
                    "kernel-abort", ctx.name, "-", -1,
                    device.time_s * 1e3, "launch aborted before execution",
                )
                self._announce(device, event)
                raise InjectedKernelAbort(
                    f"injected abort of kernel {ctx.name!r} "
                    f"(fault #{len(self.report.events)}: {event.kind})"
                )

    def on_kernel_end(self, device, ctx) -> None:
        """Flip bits in resident payloads at the kernel boundary."""
        for i, spec in self._specs("bitflip"):
            if not self._kernel_matches(spec, ctx.name):
                continue
            arrays = [
                a for a in self._watched.get(id(device), ())
                if a.name == spec.array
            ]
            cells = None
            target = None
            for arr in arrays:
                finite = np.flatnonzero(np.isfinite(arr.data))
                if finite.size:
                    cells, target = finite, arr
                    break
            if cells is None:
                continue  # nothing to corrupt: not an eligible event
            if not self._due(i, spec):
                continue
            cell = int(cells[self._rng.integers(cells.size)])
            # host-side introspection of the value being corrupted (the
            # injector is a harness, not a kernel)
            old = float(target.data[cell])  # repro-lint: disable=AN103
            raw = np.array([old], dtype=np.float64).view(np.uint64)
            raw ^= np.uint64(1) << np.uint64(spec.bit)
            new = float(raw.view(np.float64)[0])
            # a radiation-style SEU lands directly in device storage,
            # deliberately bypassing the counted path
            target.data[cell] = new  # repro-lint: disable=AN101
            event = self.report.record(
                "bitflip", ctx.name, spec.array, cell,
                device.time_s * 1e3,
                f"bit {spec.bit}: {old:g} -> {new:g}",
            )
            self._announce(device, event)

    # ------------------------------------------------------------------
    # transform hooks (called by the device after accounting)
    # ------------------------------------------------------------------
    def transform_read(self, ctx, arr, idx, values: np.ndarray) -> np.ndarray:
        """Serve a stale (previous-kernel) value to one gather lane."""
        for i, spec in self._specs("stale-read"):
            if arr.name != spec.array or idx.size == 0:
                continue
            if not self._kernel_matches(spec, ctx.name):
                continue
            snap = self._snap_prev.get(id(arr), self._snap_cur.get(id(arr)))
            if snap is None:
                continue
            stale_vals = snap[idx]
            lanes = np.flatnonzero(stale_vals > values)
            if lanes.size == 0:
                continue  # no lane would observe anything stale
            if not self._due(i, spec):
                continue
            lane = int(lanes[self._rng.integers(lanes.size)])
            old = float(values[lane])
            values = values.copy()
            values[lane] = stale_vals[lane]
            event = self.report.record(
                "stale-read", ctx.name, arr.name, int(idx[lane]),
                ctx.device.time_s * 1e3,
                f"read {float(stale_vals[lane]):g} instead of {old:g}",
            )
            self._announce(ctx.device, event)
        return values

    def transform_atomic(
        self, ctx, op: str, arr, idx, values: np.ndarray
    ) -> np.ndarray:
        """Drop an improving ``atomic_min`` update (lost update)."""
        if op != "atomic_min":
            return values
        for i, spec in self._specs("lost-update"):
            if arr.name != spec.array or idx.size == 0:
                continue
            if not self._kernel_matches(spec, ctx.name):
                continue
            improving = np.flatnonzero(values < arr.data[idx])
            if improving.size == 0:
                continue  # every atomic loses anyway: nothing to drop
            if not self._due(i, spec):
                continue
            lane = int(improving[self._rng.integers(improving.size)])
            cell = int(idx[lane])
            dropped = float(values[lane])
            # drop every lane updating this cell in this batch — one
            # vertex's update made invisible to all later readers
            mask = np.asarray(idx) == cell
            values = values.copy()
            values[mask] = np.inf
            event = self.report.record(
                "lost-update", ctx.name, arr.name, cell,
                ctx.device.time_s * 1e3,
                f"dropped update to {dropped:g}",
            )
            self._announce(ctx.device, event)
        return values

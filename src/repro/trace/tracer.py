"""The event tracer: a device observer filling a bounded ring buffer.

:class:`Tracer` attaches to :class:`~repro.gpusim.device.GPUDevice`
through the same global-observer hook the sanitizer and the fault
injector use, so it reaches every device an engine constructs
internally.  It converts the device's observer events — kernel
completions, algorithm-level ``annotate`` facts (bucket open/close with
the Eq. 1–2 inputs, ADWL workload-list histograms, asynchronous
drain rounds, fault/recovery actions), allocations — into typed
:class:`TraceEvent` records on a **ring buffer** of fixed capacity, so
a trace of an arbitrarily long run occupies bounded memory (`dropped`
counts the overflow).

Cost contract (the same one the fault hooks honor): when no tracer is
attached, nothing in this module runs — the device's pre-bound dispatch
tables contain no handlers, per-round ``annotate`` payloads in the
engines are gated on ``device.handlers("on_annotate")``, and no counter
or simulated-time quantity is ever touched even when tracing *is* on.
Tracing off is therefore byte-identical on the deterministic benchmark
gate, which CI enforces.

Timestamps are **simulated** device milliseconds (deterministic); the
handful of host-side events (suite-cell marks, profiler regions) carry
host wall-clock milliseconds relative to the tracer's creation and live
on a separate timeline in the exporters.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..gpusim.device import register_global_observer, unregister_global_observer
from ..perf import profile as _hostprof

__all__ = [
    "TraceEvent",
    "Tracer",
    "tracing",
    "active_tracer",
    "DEFAULT_CAPACITY",
]

#: default ring-buffer capacity (events); ~100 bytes/event in CPython,
#: so the default bounds a trace at tens of MB even on pathological runs
DEFAULT_CAPACITY = 262_144


@dataclass(frozen=True)
class TraceEvent:
    """One typed event on the trace timeline.

    ``kind`` is the event taxonomy (see docs/observability.md):
    ``kernel`` | ``bucket`` | ``counter`` | ``round`` | ``fault`` |
    ``recovery`` | ``alloc`` | ``mark`` | ``host`` | ``serve`` |
    ``chaos``.  Spans carry a
    nonzero ``dur_ms``; instants carry 0.  ``device`` is the ordinal of
    the simulated device the event happened on (-1 for host events).
    """

    kind: str
    name: str
    #: event start, simulated milliseconds (host ms for kind="host"/"mark")
    ts_ms: float
    #: span duration in the same clock; 0.0 for instant events
    dur_ms: float = 0.0
    device: int = 0
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-data form (the JSONL record)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "ts_ms": self.ts_ms,
            "dur_ms": self.dur_ms,
            "device": self.device,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TraceEvent":
        """Inverse of :meth:`to_dict` (tolerates missing optionals)."""
        return cls(
            kind=str(d.get("kind", "mark")),
            name=str(d.get("name", "")),
            ts_ms=float(d.get("ts_ms", 0.0)),
            dur_ms=float(d.get("dur_ms", 0.0)),
            device=int(d.get("device", 0)),
            args=dict(d.get("args") or {}),
        )


def _scalarize(payload: dict) -> dict:
    """Compress an annotate payload to JSON-safe scalars.

    Arrays are summarized by their size (the trace records *shape*, not
    bulk data — bulk payloads would defeat the ring buffer's memory
    bound); NumPy scalars are unwrapped to native Python numbers.
    """
    out: dict = {}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            out[key] = int(value.size)
        elif isinstance(value, (np.integer,)):
            out[key] = int(value)
        elif isinstance(value, (np.floating,)):
            out[key] = float(value)
        elif isinstance(value, (bool, int, float, str)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


class Tracer:
    """Collects :class:`TraceEvent` records from every observed device."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        #: events evicted from the ring buffer (oldest-first overwrite)
        self.dropped = 0
        #: free-form run metadata (graph, method, ...) set by the drivers
        self.meta: dict = {}
        self._devices: dict[int, int] = {}
        self._open_buckets: dict[int, tuple[float, dict]] = {}
        self._t0_host = time.perf_counter()

    # ------------------------------------------------------------------
    # core emit path
    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        name: str,
        ts_ms: float,
        dur_ms: float = 0.0,
        device: int = 0,
        args: dict | None = None,
    ) -> None:
        """Append one event, evicting the oldest past capacity."""
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(
            TraceEvent(kind, name, ts_ms, dur_ms, device, args or {})
        )

    def _ordinal(self, device) -> int:
        key = id(device)
        ordinal = self._devices.get(key)
        if ordinal is None:
            ordinal = len(self._devices)
            self._devices[key] = ordinal
        return ordinal

    def snapshot(self) -> list[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self.events)

    # ------------------------------------------------------------------
    # host-side entry points (CLI / bench / profiler regions)
    # ------------------------------------------------------------------
    def _host_ms(self) -> float:
        return (time.perf_counter() - self._t0_host) * 1e3

    def mark(self, name: str, **args) -> None:
        """Record a host-level instant (suite cell boundary, CLI phase)."""
        self.emit("mark", name, self._host_ms(), device=-1,
                  args=_scalarize(args))

    def host_region(self, name: str, seconds: float) -> None:
        """Record a completed host profiler region (duration known only
        at exit, so the span is backdated by its own length)."""
        now = self._host_ms()
        dur = seconds * 1e3
        self.emit("host", name, max(now - dur, 0.0), dur, device=-1)

    def ingest_faults(self, report) -> None:
        """Append a :class:`~repro.faults.report.FaultReport`'s events.

        Used for reports produced outside an attached run (the injector
        also announces faults live via ``device.annotate``; ingestion
        deduplicates nothing, so call it only for un-traced runs).
        """
        for ev in report.events:
            self.emit(
                "fault", ev.kind, float(ev.time_ms), device=0,
                args={"kernel": ev.kernel, "array": ev.array,
                      "index": int(ev.index), "detail": ev.detail},
            )
        for action in report.actions:
            self.emit("recovery", action, self._host_ms(), device=-1)

    # ------------------------------------------------------------------
    # device observer events
    # ------------------------------------------------------------------
    def on_alloc(self, device, arr, initialized: bool) -> None:
        """Device allocation: name, bytes, poisoned-or-initialized."""
        self.emit(
            "alloc", arr.name, device.time_s * 1e3,
            device=self._ordinal(device),
            args={"bytes": int(arr.data.nbytes), "initialized": initialized},
        )

    def on_kernel_complete(self, device, ctx) -> None:
        """One finished launch: a span with its headline counters.

        Dispatched by the device *after* the launch's simulated time is
        resolved, so ``ctx.time_s`` is final and the span's start is
        ``device.time_s - ctx.time_s``.
        """
        c = ctx.counters
        args = {
            "threads": int(c.threads_launched),
            "warp_instructions": int(c.total_warp_instructions),
            "loads": int(c.inst_executed_global_loads),
            "stores": int(c.inst_executed_global_stores),
            "atomics": int(c.inst_executed_atomics),
            "l1_accesses": int(c.l1_accesses),
            "l1_hits": int(c.l1_hits),
            "atomic_conflicts": int(c.atomic_conflicts),
            "child_launches": int(c.child_kernel_launches),
            "async_rounds": int(c.async_rounds),
            "barriers": int(c.barriers),
            "critical_instructions": int(ctx.critical_instructions),
        }
        if c.multisplit_ops:
            # warp-ballot multisplit telemetry (docs/observability.md):
            # present only on launches that issued one, mirroring the
            # counter snapshot's conditional keys
            args.update({
                "histogram_passes": int(c.multisplit_ops),
                "num_buckets": int(c.multisplit_buckets),
                "warp_ballots": int(c.inst_executed_ballots),
                "shared_transactions": int(c.shared_transactions),
            })
        if not ctx.host_launch:
            # a continuation segment of a persistent kernel (bucket fusion)
            args["host_launch"] = False
        if c.mlmq_steals:
            # MLMQ work-stealing telemetry (docs/mlmq.md): present only
            # on launches whose queue groups stole, mirroring the counter
            # snapshot's conditional keys
            args.update({
                "steals": int(c.mlmq_steals),
                "stolen_slots": int(c.mlmq_stolen_slots),
            })
        self.emit(
            "kernel", ctx.name, (device.time_s - ctx.time_s) * 1e3,
            ctx.time_s * 1e3, self._ordinal(device),
            args=args,
        )

    def on_annotate(self, device, tag: str, payload: dict) -> None:
        """Algorithm-level facts; bucket open/close pair into spans."""
        ordinal = self._ordinal(device)
        now = device.time_s * 1e3
        if tag == "bucket":
            # open a bucket span; closed (and emitted) by "bucket_close"
            self._open_buckets[ordinal] = (now, _scalarize(payload))
            return
        if tag == "bucket_close":
            opened = self._open_buckets.pop(ordinal, None)
            ts, args = opened if opened is not None else (now, {})
            args = dict(args)
            args.update(_scalarize(payload))
            self.emit("bucket", f"bucket {args.get('index', '?')}",
                      ts, now - ts, ordinal, args)
            return
        if tag in ("adwl", "async_round", "sync_round", "adds_round",
                   "adds_split", "bl_round", "mlmq_round", "mlmq_steal",
                   "mlmq_advance"):
            self.emit("counter", tag, now, device=ordinal,
                      args=_scalarize(payload))
            return
        if tag == "fault":
            self.emit("fault", str(payload.get("kind", "fault")), now,
                      device=ordinal, args=_scalarize(payload))
            return
        if tag == "recovery":
            self.emit("recovery", str(payload.get("action", "recovery")),
                      now, device=ordinal, args=_scalarize(payload))
            return
        # anything else (e.g. "settled") becomes a generic instant
        self.emit("mark", tag, now, device=ordinal, args=_scalarize(payload))

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def delta_series(self, device: int = 0) -> list[float]:
        """Δ_i widths of the closed bucket spans, in open order."""
        return [
            float(e.args.get("hi", 0.0)) - float(e.args.get("lo", 0.0))
            for e in self.events
            if e.kind == "bucket" and e.device == device
        ]

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer({len(self.events)} event(s), "
            f"{self.dropped} dropped, capacity {self.capacity})"
        )


_active: Tracer | None = None


def active_tracer() -> Tracer | None:
    """The currently attached tracer, or None (the common, free case)."""
    return _active


@contextmanager
def tracing(
    tracer: Tracer | None = None, *, capacity: int = DEFAULT_CAPACITY
) -> Iterator[Tracer]:
    """Attach a tracer to every device created inside the block.

    Also routes host-profiler regions (:func:`repro.perf.profile.region`)
    into the trace for the duration, so a traced suite run shows where
    host time went next to the simulated timelines.
    """
    global _active
    t = tracer if tracer is not None else Tracer(capacity=capacity)
    prev = _active
    _active = t
    register_global_observer(t)
    prev_sink = _hostprof.set_region_sink(t.host_region)
    try:
        yield t
    finally:
        _hostprof.set_region_sink(prev_sink)
        unregister_global_observer(t)
        _active = prev

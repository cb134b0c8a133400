"""The simulated GPU device: memory, kernels and synchronization.

:class:`GPUDevice` is the substrate every GPU SSSP variant in this library
runs on.  Kernels are expressed as vectorized NumPy passes over work items,
but every memory access, atomic and ALU step is routed through the device so
that warp-level instructions, coalesced transactions, cache behaviour,
divergence, launch overheads and synchronization events are all *counted* —
and converted into simulated time by :mod:`repro.gpusim.timemodel`.

Typical kernel shape::

    dev = GPUDevice(V100)
    dist = dev.alloc(np.full(n, np.inf))
    adj = dev.upload(graph.adj, "adj")

    with dev.launch("relax") as k:
        a = thread_per_vertex_edges(degrees_of_frontier)
        v = k.gather(adj, edge_idx, a)          # counted global loads
        nd = k.gather(dist, frontier_of_edge, a) + w
        k.alu(a, ops=2)                          # address arithmetic etc.
        old, updated = k.atomic_min(dist, v, nd, a)

    dev.elapsed_ms                               # simulated milliseconds

The arrays behind :class:`DeviceArray` are real storage — kernels genuinely
compute shortest paths; the device merely observes them with CUDA's cost
rules.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Iterator

import numpy as np

from .cachemodel import CacheModel, CacheStream
from .counters import DeviceCounters, KernelCounters
from .kernels import WorkAssignment
from .memory import BumpAllocator, DeviceArray, coalesce
from .spec import GPUSpec, V100
from .timemodel import kernel_time
from ..perf.profile import active_profiler
from .multisplit import ballot_rounds
from ..util.scan import (
    distinct_count,
    grouped_counts,
    multisplit_order,
    serialized_min_outcome,
)

__all__ = [
    "GPUDevice",
    "KernelContext",
    "subset_assignment",
    "register_global_observer",
    "unregister_global_observer",
]

#: every event name the device dispatches;
#: the attach-time dispatch table is built over exactly this set
OBSERVER_EVENTS = (
    "on_access",
    "on_alloc",
    "on_annotate",
    "on_device_barrier",
    "on_host_write",
    "on_kernel_begin",
    "on_kernel_complete",
    "on_kernel_end",
    "on_multisplit",
    "transform_read",
    "transform_atomic",
)

_NO_HANDLERS: tuple = ()


#: observers automatically attached to every :class:`GPUDevice` created
#: after registration — how analysis tools (repro.analysis.Sanitizer)
#: reach devices that algorithms construct internally
_GLOBAL_OBSERVERS: list = []


def register_global_observer(observer) -> None:
    """Attach ``observer`` to every subsequently created device."""
    if observer not in _GLOBAL_OBSERVERS:
        _GLOBAL_OBSERVERS.append(observer)


def unregister_global_observer(observer) -> None:
    """Stop auto-attaching ``observer`` to new devices."""
    if observer in _GLOBAL_OBSERVERS:
        _GLOBAL_OBSERVERS.remove(observer)


def subset_assignment(
    assignment: WorkAssignment, mask: np.ndarray, num_slots: int | None = None
) -> WorkAssignment:
    """Restrict an assignment to the work items selected by ``mask``.

    Used for predicated operations: inactive lanes issue no memory requests,
    but the surviving slots still cost full warp instructions.
    ``num_slots`` is the number of slots holding a selected item when the
    caller already knows it — the value :meth:`KernelContext.branch` on
    ``mask`` returns — and is counted here otherwise.
    """
    slots = assignment.slots[mask]
    if slots.size == 0:
        return _dc_replace(
            assignment, slots=slots, num_slots=0, max_steps=0, num_items=0
        )
    max_step = int((slots % assignment.step_stride).max()) + 1
    return _dc_replace(
        assignment,
        slots=slots,
        num_slots=distinct_count(slots) if num_slots is None else num_slots,
        max_steps=max_step,
        num_items=int(slots.size),
    )


class KernelContext:
    """Accounting scope of one kernel launch."""

    def __init__(
        self, device: "GPUDevice", name: str, host_launch: bool = True
    ) -> None:
        self.device = device
        self.name = name
        #: False for a continuation segment of a persistent kernel: it pays
        #: no launch cost and inherits the open race window of the segment
        #: before it (see :meth:`GPUDevice.launch`)
        self.host_launch = host_launch
        self.counters = KernelCounters()
        self.critical_instructions = 0
        self._load_lines: list[np.ndarray] = []
        self._extra_time = 0.0
        #: simulated duration, available after the launch context exits
        self.time_s: float = 0.0

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    def _note_assignment(self, a: WorkAssignment, instructions: int) -> None:
        self.counters.active_lanes += a.num_items
        self.counters.lane_slots += instructions * self.device.spec.warp_size
        self.counters.threads_launched = max(
            self.counters.threads_launched, a.num_threads
        )

    # ------------------------------------------------------------------
    # memory operations
    # ------------------------------------------------------------------
    def _coalesced(
        self, arr: DeviceArray, idx: np.ndarray, a: WorkAssignment
    ) -> tuple[int, int, np.ndarray]:
        """:func:`coalesce` with a device-side memo for prefix scans.

        The dominant gather of the bucket engines is the per-iteration
        full scan ``gather(dist, arange(n), a)`` — its coalesce triple is a
        pure function of the array's placement, the scan length and the
        assignment's slot array, yet a naive call re-sorts the same 16k keys
        every iteration.  When ``idx`` is exactly ``arange(n)`` (two scalar
        probes, then one comparison pass) the triple is cached per
        ``(base_address, n)``.  The cached slot array is compared by
        identity: assignment factories are memoized and the memo entry
        keeps the array alive, so ``is`` cannot alias a recycled id.  The
        returned ``sector_ids`` are never mutated downstream (the cache
        stream only reads them), so sharing one array is safe.
        """
        spec = self.device.spec
        n = idx.size
        if (
            n > 1
            and idx[0] == 0
            and idx[n - 1] == n - 1
            and bool((idx[1:] > idx[:-1]).all())
        ):
            memo = self.device._scan_coalesce
            key = (arr.base_address, n)
            entry = memo.get(key)
            if entry is not None and entry[0] is a.slots:
                return entry[1], entry[2], entry[3]
            out = coalesce(
                arr.addresses(idx), a.slots, spec.sector_bytes,
                spec.cache_line_bytes,
            )
            memo[key] = (a.slots, *out)
            return out
        return coalesce(
            arr.addresses(idx), a.slots, spec.sector_bytes, spec.cache_line_bytes
        )

    def gather(
        self, arr: DeviceArray, idx: np.ndarray, a: WorkAssignment
    ) -> np.ndarray:
        """Warp-coalesced global load of ``arr[idx]``; returns the values."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size != a.num_items:
            raise ValueError("index array must match the assignment's items")
        instructions, transactions, lines = self._coalesced(arr, idx, a)
        c = self.counters
        c.inst_executed_global_loads += instructions
        c.global_load_transactions += transactions
        c.l1_accesses += transactions
        self._load_lines.append(lines)
        self.critical_instructions += a.max_steps
        self._note_assignment(a, instructions)
        self.device._notify("on_access", self, "read", arr, idx, None, a)
        values = arr.data[idx]
        # value-transform hook (fault injection): runs after all accounting
        # so the counted work is identical with or without observers
        for fn in self.device._transform_read:
            values = fn(self, arr, idx, values)
        return values

    def scatter(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        values: np.ndarray,
        a: WorkAssignment,
    ) -> None:
        """Warp-coalesced global store ``arr[idx] = values`` (last wins)."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size != a.num_items:
            raise ValueError("index array must match the assignment's items")
        instructions, transactions, _lines = self._coalesced(arr, idx, a)
        c = self.counters
        c.inst_executed_global_stores += instructions
        c.global_store_transactions += transactions
        self.critical_instructions += a.max_steps
        self._note_assignment(a, instructions)
        self.device._notify("on_access", self, "write", arr, idx, values, a)
        arr.data[idx] = values

    def atomic_min(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        values: np.ndarray,
        a: WorkAssignment,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``atomicMin(&arr[idx[i]], values[i])`` for every item.

        Returns ``(old, updated)``: the pre-op value each atomic observed
        under per-address program-order serialization, and the mask of
        atomics that actually lowered the cell (the paper's "updates";
        non-updates are its "checks").
        """
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values, dtype=arr.data.dtype)
        n = idx.size
        if n != a.num_items:
            raise ValueError("index array must match the assignment's items")
        spec = self.device.spec
        instructions, transactions, _lines = coalesce(
            arr.addresses(idx), a.slots, spec.sector_bytes, spec.cache_line_bytes
        )
        c = self.counters
        c.inst_executed_atomics += instructions
        c.atomic_transactions += transactions
        self.critical_instructions += a.max_steps
        self._note_assignment(a, instructions)

        if n == 0:
            return values.copy(), np.zeros(0, dtype=bool)

        # same-address atomics retire one at a time: everything beyond the
        # first op per address in this batch is a serialized conflict
        unique_addresses = distinct_count(idx)
        c.atomic_conflicts += n - unique_addresses

        self.device._notify("on_access", self, "atomic_min", arr, idx, values, a)
        # value-transform hook (fault injection): after accounting, before
        # the semantic effect — a transformed value changes state, never cost
        for fn in self.device._transform_atomic:
            values = fn(self, "atomic_min", arr, idx, values)
        # serialize per address in program order (see util.scan); the
        # distinct-address count doubles as its conflict-free fast path
        return serialized_min_outcome(
            arr.data, idx, values, distinct=unique_addresses
        )

    def atomic_add(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        values: np.ndarray,
        a: WorkAssignment,
    ) -> None:
        """``atomicAdd(&arr[idx[i]], values[i])`` for every item.

        Addition is order-independent, so no old-value bookkeeping is
        needed; traffic and same-address serialization are accounted like
        any other atomic RMW.
        """
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values, dtype=arr.data.dtype)
        n = idx.size
        if n != a.num_items:
            raise ValueError("index array must match the assignment's items")
        spec = self.device.spec
        instructions, transactions, _lines = coalesce(
            arr.addresses(idx), a.slots, spec.sector_bytes, spec.cache_line_bytes
        )
        c = self.counters
        c.inst_executed_atomics += instructions
        c.atomic_transactions += transactions
        self.critical_instructions += a.max_steps
        self._note_assignment(a, instructions)
        if n:
            c.atomic_conflicts += n - distinct_count(idx)
            self.device._notify("on_access", self, "atomic_add", arr, idx, values, a)
            for fn in self.device._transform_atomic:
                values = fn(self, "atomic_add", arr, idx, values)
            np.add.at(arr.data, idx, values)

    # ------------------------------------------------------------------
    # compute operations
    # ------------------------------------------------------------------
    def alu(self, a: WorkAssignment, ops: int = 1) -> None:
        """Charge ``ops`` ALU/control instructions per slot of one pass."""
        self.counters.inst_executed_other += a.num_slots * ops
        self.critical_instructions += a.max_steps * ops
        self._note_assignment(a, a.num_slots * ops)

    def branch(self, a: WorkAssignment, taken: np.ndarray) -> int:
        """Account a data-dependent branch over the assignment's items.

        A slot whose lanes disagree is *divergent*: SIMT hardware executes
        both paths with complementary masks, so the slot issues two
        instructions instead of one — the penalty PRO's weight-sorting
        removes (motivation 1).

        Returns the number of slots with at least one taken lane: the
        ``num_slots`` of ``subset_assignment(a, taken)``.
        """
        taken = np.asarray(taken, dtype=bool)
        if taken.size != a.num_items:
            raise ValueError("taken mask must match the assignment's items")
        c = self.counters
        if a.num_items == 0:
            return 0
        lanes, taken_lanes = grouped_counts(a.slots, taken)
        num_slots = lanes.size
        taken_slots = int(np.count_nonzero(taken_lanes))
        uniform_taken = int(np.count_nonzero(taken_lanes == lanes))
        divergent = taken_slots - uniform_taken
        c.branch_instructions += num_slots
        c.divergent_branches += divergent
        issued = num_slots + divergent
        c.inst_executed_other += issued
        self.critical_instructions += a.max_steps
        self._note_assignment(a, issued)
        return taken_slots

    def multisplit(
        self, keys: np.ndarray, num_buckets: int, a: WorkAssignment, *,
        in_producer: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Warp-ballot multisplit of ``keys`` into ``num_buckets`` groups.

        Returns ``(order, offsets)``: a permutation grouping the
        assignment's items by bucket key with stable within-bucket order,
        and the exclusive bucket-start prefix (length ``num_buckets + 1``)
        — the semantics of :func:`repro.util.scan.multisplit_order`.

        Cost (the W-MS model, see :mod:`repro.gpusim.multisplit`): each
        warp slot issues one ballot per split bit
        (``ceil(log2 max(B, 2))``); rank/scatter staging and the per-warp
        histogram combine are shared-memory transactions that occupy
        issue slots but produce **no** global-memory traffic — which is
        exactly why it beats the sort/scan/branch placements it replaces.
        A standalone pass adds one dependent step per slot for the rank
        resolve; ``in_producer=True`` is the split run on the step that
        produced its keys (:func:`repro.sssp.relax.relax_batch`), where
        the keys are already in registers and the rank's one popc is
        charged by its consumer, so only the ballot chain is dependent.

        Keys must lie in ``[0, num_buckets)``; out-of-range keys raise
        after observers are notified, so the sanitizer records the
        hazard before the fail-fast.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size != a.num_items:
            raise ValueError("key array must match the assignment's items")
        rounds = ballot_rounds(num_buckets)
        c = self.counters
        c.inst_executed_ballots += a.num_slots * rounds
        c.shared_transactions += (
            2 * a.num_slots + min(a.num_warps, a.num_slots) * num_buckets
        )
        c.multisplit_ops += 1
        c.multisplit_buckets += num_buckets
        self.critical_instructions += a.max_steps * (
            rounds if in_producer else rounds + 1)
        self._note_assignment(a, a.num_slots * rounds)
        self.device._notify("on_multisplit", self, keys, num_buckets, a)
        return multisplit_order(keys, num_buckets)

    # ------------------------------------------------------------------
    # launch-structure events
    # ------------------------------------------------------------------
    def child_launch(self, count: int = 1) -> None:
        """Account device-side (dynamic parallelism) child-kernel launches."""
        self.counters.child_kernel_launches += count
        self._extra_time += count * self.device.spec.child_launch_s

    def device_barrier(self) -> None:
        """A device-wide synchronization inside a fused kernel."""
        self.counters.barriers += 1
        self._extra_time += self.device.spec.barrier_s
        self.device._notify("on_device_barrier", self.device, self)

    def async_round(self, count: int = 1) -> None:
        """Account asynchronous work-list scheduling rounds (no barrier)."""
        self.counters.async_rounds += count
        self._extra_time += count * self.device.spec.async_round_s

    def mlmq_steal(self, slots: int = 0) -> None:
        """Account one work-stealing handoff between SM-mapped queue groups.

        The handoff is a single CAS on the victim queue's head descriptor
        — one warp-level atomic (a lone lane) and one global transaction
        regardless of how many slots change owner; the slot payload itself
        is popped through the usual counted loads by the thief.
        """
        c = self.counters
        c.mlmq_steals += 1
        c.mlmq_stolen_slots += int(slots)
        c.inst_executed_atomics += 1
        c.atomic_transactions += 1
        c.active_lanes += 1
        c.lane_slots += self.device.spec.warp_size
        self.critical_instructions += 1


class GPUDevice:
    """One simulated GPU with memory, a cache model and a running clock."""

    def __init__(self, spec: GPUSpec = V100) -> None:
        self.spec = spec
        self.allocator = BumpAllocator()
        self.cache = CacheModel(spec)
        self.counters = DeviceCounters()
        self.time_s = 0.0
        #: attached analysis observers (see repro.analysis); duck-typed —
        #: each event calls the observer method of the same name if present.
        #: Handler methods are bound at :meth:`attach` / :meth:`detach`,
        #: so change the set through those, not by monkey-patching methods
        #: onto an already-attached observer.
        self.observers: tuple = tuple(_GLOBAL_OBSERVERS)
        self._rebuild_dispatch()
        # carry-over window: the tail of the previous launches' transaction
        # stream.  Physically this is the persistence of the cache hierarchy
        # across back-to-back kernel launches (L1 is flushed but L2 is not):
        # a small kernel re-touching lines the previous kernel brought in
        # still hits, which matters for bucket-at-a-time algorithms that
        # launch many short kernels over the same hot arrays.  Resolved
        # incrementally (see CacheStream) so short kernels don't pay
        # O(capacity) host time per launch.
        self._cache_stream = CacheStream(self.cache)
        #: memoized coalesce triples for prefix-scan accesses
        #: (see KernelContext._coalesced)
        self._scan_coalesce: dict = {}
        from .timeline import Timeline

        #: per-launch profile (nvprof --print-gpu-trace analogue)
        self.timeline = Timeline(spec)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def attach(self, observer) -> None:
        """Add ``observer`` and re-bind the dispatch table."""
        self.observers = (*self.observers, observer)
        self._rebuild_dispatch()

    def detach(self, observer) -> None:
        """Remove ``observer`` and re-bind the dispatch table."""
        observers = list(self.observers)
        observers.remove(observer)
        self.observers = tuple(observers)
        self._rebuild_dispatch()

    def _rebuild_dispatch(self) -> None:
        """Re-bind the per-event handler tuples from the observers.

        Called whenever ``self.observers`` changes, so ``_notify`` and the
        transform hooks dispatch over pre-bound methods instead of
        probing every observer with ``getattr`` per event.
        """
        table: dict[str, tuple] = {}
        for event in OBSERVER_EVENTS:
            handlers = tuple(
                fn for obs in self.observers
                if (fn := getattr(obs, event, None)) is not None
            )
            if handlers:
                table[event] = handlers
        self._dispatch = table
        self._transform_read = table.get("transform_read", _NO_HANDLERS)
        self._transform_atomic = table.get("transform_atomic", _NO_HANDLERS)

    def handlers(self, event: str) -> tuple:
        """Pre-bound handler methods of every observer handling ``event``."""
        return self._dispatch.get(event, _NO_HANDLERS)

    def _notify(self, event: str, *args) -> None:
        """Dispatch ``event`` to every attached observer that handles it."""
        for fn in self._dispatch.get(event, _NO_HANDLERS):
            fn(*args)

    def annotate(self, tag: str, **payload) -> None:
        """Publish an algorithm-level fact (bucket boundaries, settled sets,
        …) to the attached observers.  A no-op without observers; engines
        use it to give analysis tools semantic context the raw access
        stream cannot carry."""
        self._notify("on_annotate", self, tag, payload)

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def alloc(self, array: np.ndarray, name: str = "buf") -> DeviceArray:
        """Allocate device storage initialized from ``array`` (copied)."""
        data = np.array(array, copy=True)
        arr = DeviceArray(data, self.allocator.allocate(data.nbytes), name)
        self._notify("on_alloc", self, arr, True)
        return arr

    def zeros(self, n: int, dtype=np.float64, name: str = "buf") -> DeviceArray:
        """Allocate an ``n``-element zeroed device array."""
        return self.alloc(np.zeros(n, dtype=dtype), name)

    def full(self, n: int, value, dtype=np.float64, name: str = "buf") -> DeviceArray:
        """Allocate an ``n``-element device array filled with ``value``."""
        return self.alloc(np.full(n, value, dtype=dtype), name)

    def empty(self, n: int, dtype=np.float64, name: str = "buf") -> DeviceArray:
        """Allocate ``n`` elements of *uninitialized* device memory.

        Like ``cudaMalloc``, the contents are undefined until written; the
        storage is poisoned with a sentinel (NaN for floats, the dtype
        minimum for integers) so bugs that consume it surface loudly, and
        attached sanitizers track reads of never-written elements.
        """
        dtype = np.dtype(dtype)
        poison = np.nan if dtype.kind == "f" else np.iinfo(dtype).min
        data = np.full(n, poison, dtype=dtype)
        arr = DeviceArray(data, self.allocator.allocate(data.nbytes), name)
        self._notify("on_alloc", self, arr, False)
        return arr

    def upload(self, array: np.ndarray, name: str = "buf") -> DeviceArray:
        """Wrap a (read-only) host array as device memory without copying."""
        arr = DeviceArray(
            np.asarray(array), self.allocator.allocate(array.nbytes), name
        )
        self._notify("on_alloc", self, arr, True)
        return arr

    def host_store(self, arr: DeviceArray, idx, values) -> None:
        """Host-side staging write ``arr[idx] = values`` outside any kernel.

        The sanctioned way to initialize device cells from the host (the
        ``dist[source] = 0`` idiom): it is visible to attached observers,
        unlike a raw mutation of ``arr.data``, which ``repro-lint`` flags.
        Charged no simulated time — host staging happens before the
        measured region, matching the paper's methodology.
        """
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        self._notify("on_host_write", self, arr, idx, values)
        arr.data[idx] = values

    def host_copy(self, arr: DeviceArray, values: np.ndarray) -> None:
        """Host-driven overwrite of a whole device array (uncounted).

        The full index array observers expect is only materialized when
        someone actually subscribes to ``on_host_write`` — the unobserved
        path is a plain array copy.
        """
        handlers = self._dispatch.get("on_host_write")
        if handlers:
            idx = np.arange(arr.size, dtype=np.int64)
            for fn in handlers:
                fn(self, arr, idx, values)
        arr.data[...] = values

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @contextmanager
    def launch(self, name: str) -> Iterator[KernelContext]:
        """Run one kernel; accounting closes when the context exits."""
        with self._kernel(name, True) as ctx:
            yield ctx

    @contextmanager
    def segment(self, name: str, *, resume: bool = True) -> Iterator[KernelContext]:
        """Run one segment of a persistent kernel.

        ``resume=True`` continues the kernel already resident on the
        device: the segment is charged its own body, barriers and extra
        costs, but no ``kernel_launch_s`` and no ``kernel_launches`` count.
        A segment that follows another without a ``device_barrier`` in
        between runs in the same synchronization window as it.
        ``resume=False`` starts the kernel with an ordinary :meth:`launch`.
        """
        scope = self._kernel(name, False) if resume else self.launch(name)
        with scope as ctx:
            yield ctx

    @contextmanager
    def _kernel(self, name: str, host_launch: bool) -> Iterator[KernelContext]:
        prof = active_profiler()
        t_host = time.perf_counter() if prof is not None else 0.0
        ctx = KernelContext(self, name, host_launch)
        if host_launch:
            ctx.counters.kernel_launches += 1
        self._notify("on_kernel_begin", self, ctx)
        yield ctx
        self._notify("on_kernel_end", self, ctx)
        # resolve cache behaviour for the launch's load stream, warmed by
        # the tail of the preceding launches (L2 persistence).  CacheStream
        # evaluates this incrementally — identical counts to concatenating
        # the tail, without the per-launch O(capacity) sort
        if ctx._load_lines:
            lines = (
                ctx._load_lines[0] if len(ctx._load_lines) == 1
                else np.concatenate(ctx._load_lines)
            )
            ctx.counters.l1_hits += self._cache_stream.hit_count(lines)
        body = kernel_time(self.spec, ctx.counters, ctx.critical_instructions)
        launch_cost = self.spec.kernel_launch_s if host_launch else 0.0
        ctx.time_s = body + ctx._extra_time + launch_cost
        self.timeline.record(
            name, self.time_s, ctx.time_s, ctx.counters, ctx.critical_instructions
        )
        self.time_s += ctx.time_s
        self.counters.record(name, ctx.counters)
        # unlike on_kernel_end (which fires before cache resolution so
        # transforms can still see the launch open), this event sees the
        # final ctx.time_s/counters — the tracer's kernel spans hang here
        self._notify("on_kernel_complete", self, ctx)
        if prof is not None:
            prof.add("kernel_host", time.perf_counter() - t_host)

    def barrier(self) -> None:
        """Host-visible device synchronization between kernels."""
        self.counters.totals.barriers += 1
        self.time_s += self.spec.barrier_s

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def elapsed_ms(self) -> float:
        """Simulated wall-clock so far, in milliseconds."""
        return self.time_s * 1e3

    def reset_clock(self) -> None:
        """Zero the clock, counters and timeline (memory contents are kept)."""
        from .timeline import Timeline

        self.counters = DeviceCounters()
        self.time_s = 0.0
        self.timeline = Timeline(self.spec)

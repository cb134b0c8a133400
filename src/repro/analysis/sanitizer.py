"""Dynamic race/hazard checker for the simulated GPU — ``compute-sanitizer``
for :class:`repro.gpusim.GPUDevice`.

Every gather, scatter and atomic in the simulator flows through one choke
point (:class:`~repro.gpusim.device.KernelContext`), so the equivalent of
``compute-sanitizer --tool racecheck/memcheck/initcheck`` can be built as a
device observer: per kernel launch the :class:`Sanitizer` records a compact
access log (array, element indices, SIMT slots, read/write/atomic) and
closes each *synchronization window* — a launch, or a
``device_barrier``-delimited span inside a fused kernel — by checking for
the rules below.  A continuation segment of a persistent kernel (run by
``GPUDevice.segment``) inherits the open window of the segment before
it: only a ``device_barrier`` or the next host launch closes a window, and
:meth:`Sanitizer.report` closes the trailing one.

``write-write-race``
    one address stored by two warp slots (or twice by one store
    instruction) with no intervening barrier.  Races where every store
    carries one identical value (the flag-marking idiom) are *benign* and
    reported as warnings, like racecheck's WARNING severity.
``read-write-race``
    an address both loaded and plainly stored inside one window from
    different slots.  Reads racing *atomics* are deliberately exempt:
    immediate visibility of monotone ``atomicMin`` updates is the paper's
    §4.3 BASYN premise, not a bug.
``atomic-plain-mix``
    an address updated atomically and also plainly stored in one window —
    the atomicity guarantee evaporates.
``out-of-bounds``
    an element index below zero or past the end of the allocation
    (memcheck).  NumPy would silently wrap negative indices; the sanitizer
    does not.
``uninitialized-read``
    a load from a :meth:`~repro.gpusim.device.GPUDevice.empty` allocation
    cell that no store has touched (initcheck).
``multisplit-key-range``
    a warp-ballot multisplit handed a bucket key outside ``[0,
    num_buckets)`` — on hardware the lane would index past its shared
    histogram row and corrupt a neighbouring warp's staging area.  The
    device fails fast right after observers run; this finding records the
    offending lanes before that exception unwinds.

On top of the generic rules sit SSSP-specific invariants:

``non-monotone-dist``
    a cell of a distance array *increased* during a kernel — relaxation
    through ``atomicMin`` must be monotone or the asynchronous execution
    model is unsound.
``settled-reactivated``
    a vertex the engine marked settled (``device.annotate("settled", ...)``)
    re-entered a later bucket's active set (``annotate("bucket", ...)``).
``relaxation-violated`` / ``bad-source``
    final distances failing ``dist[v] <= dist[u] + w`` on some edge, or
    ``dist[source] != 0`` (:meth:`Sanitizer.check_result`).

Usage::

    san = Sanitizer()                    # or Sanitizer(strict=True)
    with attached(san):                  # observe every device created
        r = sssp(graph, source, method="rdbs")
    san.check_result(graph, source, r.dist)
    report = san.report()
    assert not report.errors, report.summary()
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..gpusim.device import (
    GPUDevice,
    KernelContext,
    register_global_observer,
    unregister_global_observer,
)
from ..gpusim.kernels import WorkAssignment
from ..gpusim.memory import DeviceArray

__all__ = [
    "Finding",
    "Sanitizer",
    "SanitizerError",
    "SanitizerReport",
    "attached",
]

#: relative tolerance for the monotonicity check (atomicMin serialization is
#: exact, but final-distance cross-checks accumulate float rounding)
_EPS = 1e-9

#: how many offending element indices a finding keeps for its report
_SAMPLE = 8

#: findings a report keeps; later ones only count as ``dropped``
_MAX_FINDINGS = 200

#: the device array names under the distance checks (monotonicity,
#: reactivation)
_DIST_NAMES = ("dist",)


class SanitizerError(RuntimeError):
    """Raised in strict mode the moment an error-severity hazard appears."""


@dataclass(frozen=True)
class Finding:
    """One detected hazard or invariant violation."""

    #: rule identifier (``write-write-race``, ``out-of-bounds``, ...)
    rule: str
    #: ``"error"`` for definite hazards, ``"warning"`` for benign races
    severity: str
    #: human-readable description with the offending details
    message: str
    #: kernel label the window belonged to (None for final-state checks)
    kernel: str | None = None
    #: device array name involved (None for annotation-level findings)
    array: str | None = None
    #: sample of offending element indices (at most a handful)
    sample: tuple = ()
    #: total number of offending elements the sample was drawn from
    count: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" [{self.kernel}]" if self.kernel else ""
        return f"{self.severity.upper()} {self.rule}{where}: {self.message}"


@dataclass
class SanitizerReport:
    """Structured result of a sanitized run."""

    findings: list[Finding] = field(default_factory=list)
    kernels_checked: int = 0
    accesses_checked: int = 0
    dropped: int = 0

    @property
    def errors(self) -> list[Finding]:
        """Definite hazards (the acceptance-gating subset)."""
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        """Benign-race notes (same-value marking idioms and the like)."""
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no error-severity hazard was found."""
        return not self.errors

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"sanitizer: {self.kernels_checked} windows, "
            f"{self.accesses_checked} accesses checked — "
            f"{len(self.errors)} hazard(s), {len(self.warnings)} warning(s)"
        ]
        for f in self.findings:
            lines.append(f"  {f}")
        if self.dropped:
            lines.append(f"  ... {self.dropped} further finding(s) dropped")
        return "\n".join(lines)


@dataclass
class _ArrayState:
    """Per-DeviceArray tracking state."""

    name: str
    size: int
    #: per-element "has been written" mask; None when fully initialized
    init_mask: np.ndarray | None
    #: monotone distance array (participates in the SSSP invariant checks)
    is_dist: bool


class _WindowLog:
    """Access log of one synchronization window, grouped per array."""

    __slots__ = ("kernels", "reads", "writes", "atomics")

    def __init__(self, kernel: str) -> None:
        #: labels of the kernel segments the window spans, in order
        self.kernels = [kernel]
        # per array key: list of (idx, slots[, values]) tuples
        self.reads: dict[int, list] = {}
        self.writes: dict[int, list] = {}
        self.atomics: dict[int, list] = {}


def _per_addr_groups(
    addr: np.ndarray, key: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per distinct address: (addresses, access count, distinct-key count).

    The workhorse of the race rules: one ``lexsort`` classifies every
    address's access group by how many accesses it saw and how many
    distinct slots / calls / values were involved.
    """
    order = np.lexsort((key, addr))
    a, k = addr[order], key[order]
    new_addr = np.ones(a.size, dtype=bool)
    new_addr[1:] = a[1:] != a[:-1]
    new_pair = new_addr.copy()
    new_pair[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new_addr)
    counts = np.diff(np.append(starts, a.size))
    nkeys = np.add.reduceat(new_pair.astype(np.int64), starts)
    return a[starts], counts, nkeys


def _flatten(records: list, with_values: bool):
    """Concatenate (call_id, idx, slots[, values]) records into flat arrays."""
    idx = np.concatenate([r[1] for r in records])
    slots = np.concatenate([r[2] for r in records])
    calls = np.concatenate(
        [np.full(r[1].size, r[0], dtype=np.int64) for r in records]
    )
    if not with_values:
        return idx, slots, calls
    values = np.concatenate(
        [np.asarray(r[3], dtype=np.float64).ravel() for r in records]
    )
    return idx, slots, calls, values


class Sanitizer:
    """Observer implementing the dynamic checks (attach via :func:`attached`,
    :meth:`attach`, or pass to ``GPUDevice.attach``)."""

    def __init__(self, *, strict: bool = False) -> None:
        self.strict = strict
        self._report = SanitizerReport()
        self._arrays: dict[int, _ArrayState] = {}
        self._window: _WindowLog | None = None
        self._kernel: str | None = None
        self._call_id = 0
        #: distance arrays under monotonicity watch: id -> (array, baseline)
        self._dist_watch: dict[int, tuple[DeviceArray, np.ndarray]] = {}
        #: per-device settled-vertex masks for the reactivation check
        self._settled: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, device: GPUDevice) -> None:
        """Observe one existing device."""
        if self not in device.observers:
            device.attach(self)

    def detach(self, device: GPUDevice) -> None:
        """Stop observing ``device``."""
        if self in device.observers:
            device.detach(self)

    def report(self) -> SanitizerReport:
        """The findings collected so far.

        Between launches this first closes the window the last kernel
        segment left open (a later continuation could still have joined
        it).
        """
        if self._kernel is None:
            self._close_window()
        return self._report

    # ------------------------------------------------------------------
    # finding plumbing
    # ------------------------------------------------------------------
    def _emit(
        self,
        rule: str,
        severity: str,
        message: str,
        *,
        array: str | None = None,
        sample: np.ndarray | tuple = (),
        count: int = 0,
    ) -> None:
        if len(self._report.findings) >= _MAX_FINDINGS:
            self._report.dropped += 1
            return
        head = np.asarray(sample).ravel()[:_SAMPLE]
        f = Finding(
            rule=rule,
            severity=severity,
            message=message,
            kernel=self._kernel,
            array=array,
            sample=tuple(int(s) for s in head),
            count=count or int(head.size),
        )
        self._report.findings.append(f)
        if self.strict and severity == "error":
            raise SanitizerError(str(f))

    # ------------------------------------------------------------------
    # device events
    # ------------------------------------------------------------------
    def on_alloc(self, device: GPUDevice, arr: DeviceArray, initialized: bool) -> None:
        is_dist = arr.name in _DIST_NAMES
        self._arrays[id(arr)] = _ArrayState(
            name=arr.name,
            size=arr.size,
            init_mask=None if initialized else np.zeros(arr.size, dtype=bool),
            is_dist=is_dist,
        )
        if is_dist:
            self._dist_watch[id(arr)] = (arr, arr.data.copy())

    def _state(self, arr: DeviceArray) -> _ArrayState:
        st = self._arrays.get(id(arr))
        if st is None:  # allocated before the sanitizer attached
            st = _ArrayState(arr.name, arr.size, None, arr.name in _DIST_NAMES)
            self._arrays[id(arr)] = st
            if st.is_dist:
                self._dist_watch[id(arr)] = (arr, arr.data.copy())
        return st

    def on_host_write(self, device: GPUDevice, arr: DeviceArray, idx, values) -> None:
        st = self._state(arr)
        if st.init_mask is not None:
            st.init_mask[np.asarray(idx, dtype=np.int64)] = True
        if st.is_dist:
            # host staging writes may legally reset distances (e.g. the
            # recovery runtime's repairs); rebase the monotonicity baseline
            watched, _ = self._dist_watch[id(arr)]
            self._dist_watch[id(arr)] = (watched, watched.data.copy())

    def on_kernel_begin(self, device: GPUDevice, ctx: KernelContext) -> None:
        if ctx.host_launch or self._window is None:
            self._close_window()
            self._window = _WindowLog(ctx.name)
        else:
            self._window.kernels.append(ctx.name)
        self._kernel = ctx.name
        for key, (arr, _snap) in list(self._dist_watch.items()):
            self._dist_watch[key] = (arr, arr.data.copy())

    def on_access(
        self,
        ctx: KernelContext,
        op: str,
        arr: DeviceArray,
        idx: np.ndarray,
        values,
        assignment: WorkAssignment,
    ) -> None:
        if idx.size == 0:
            return
        st = self._state(arr)
        self._report.accesses_checked += idx.size
        self._call_id += 1

        # memcheck: out-of-bounds element indices
        oob = (idx < 0) | (idx >= st.size)
        if oob.any():
            bad = idx[oob]
            self._emit(
                "out-of-bounds",
                "error",
                f"{op} of {arr.name}[{int(bad[0])}] outside "
                f"[0, {st.size}) ({int(oob.sum())} access(es))",
                array=st.name,
                sample=bad,
                count=int(oob.sum()),
            )
        ok = ~oob
        in_idx = idx[ok] if oob.any() else idx

        # initcheck: loads from never-written cells of empty() allocations
        if st.init_mask is not None:
            if op == "read":
                unwritten = in_idx[~st.init_mask[in_idx]]
                if unwritten.size:
                    self._emit(
                        "uninitialized-read",
                        "error",
                        f"read of {arr.name} touches {unwritten.size} "
                        "never-written element(s)",
                        array=st.name,
                        sample=np.unique(unwritten),
                        count=int(unwritten.size),
                    )
            else:
                st.init_mask[in_idx] = True

        if self._window is None:  # access outside any launch window
            return
        slots = assignment.slots
        if oob.any():
            slots = slots[ok]
        rec = (self._call_id, in_idx.copy(), np.asarray(slots, dtype=np.int64))
        if op == "read":
            self._window.reads.setdefault(id(arr), []).append(rec)
        elif op == "write":
            vals = np.broadcast_to(
                np.asarray(values, dtype=np.float64), (idx.size,)
            )[ok if oob.any() else slice(None)]
            self._window.writes.setdefault(id(arr), []).append(rec + (vals,))
        else:  # atomic_min / atomic_add
            self._window.atomics.setdefault(id(arr), []).append(rec)

    # ------------------------------------------------------------------
    # window closing
    # ------------------------------------------------------------------
    def on_multisplit(
        self, ctx: KernelContext, keys: np.ndarray, num_buckets: int, a
    ) -> None:
        """Validate multisplit bucket keys (shared-memory memcheck).

        Runs before the device's own fail-fast ``ValueError``, so the
        report keeps the offending lanes even when strict mode is off and
        the caller swallows the exception.
        """
        keys = np.asarray(keys)
        bad = np.flatnonzero((keys < 0) | (keys >= num_buckets))
        if bad.size:
            self._emit(
                "multisplit-key-range",
                "error",
                f"{bad.size} lane(s) carry bucket keys outside "
                f"[0, {num_buckets}) (min {int(keys[bad].min())}, "
                f"max {int(keys[bad].max())})",
                sample=bad,
                count=int(bad.size),
            )

    def on_device_barrier(self, device: GPUDevice, ctx: KernelContext) -> None:
        """A barrier inside a fused kernel closes the current race window."""
        self._close_window()
        self._window = _WindowLog(ctx.name)

    def on_kernel_end(self, device: GPUDevice, ctx: KernelContext) -> None:
        # the window stays open: a continuation segment may still join it
        self._check_monotone()
        self._kernel = None

    def _close_window(self) -> None:
        w = self._window
        if w is None:
            return
        self._window = None
        self._report.kernels_checked += 1
        kernel, self._kernel = self._kernel, "+".join(w.kernels)
        keys = set(w.reads) | set(w.writes) | set(w.atomics)
        for key in keys:
            self._analyze_array(
                self._arrays[key].name if key in self._arrays else "buf",
                w.reads.get(key, []),
                w.writes.get(key, []),
                w.atomics.get(key, []),
            )
        self._kernel = kernel

    def _analyze_array(self, name: str, reads, writes, atomics) -> None:
        w_idx = w_slot = w_call = w_val = None
        if writes:
            w_idx, w_slot, w_call, w_val = _flatten(writes, with_values=True)
            self._check_ww(name, w_idx, w_slot, w_call, w_val)
        if reads and writes:
            r_idx, r_slot, _ = _flatten(reads, with_values=False)
            self._check_rw(name, r_idx, r_slot, w_idx, w_slot, w_val)
        if atomics and writes:
            a_idx, a_slot, _ = _flatten(atomics, with_values=False)
            self._check_atomic_mix(name, a_idx, a_slot, w_idx, w_slot)

    def _check_ww(self, name, idx, slot, call, val) -> None:
        """Two plain stores to one address in one window race unless they
        came from one slot across distinct store instructions (one thread's
        sequential program order)."""
        addrs, counts, nslots = _per_addr_groups(idx, slot)
        _, _, ncalls = _per_addr_groups(idx, call)
        _, _, nvals = _per_addr_groups(idx, val)
        racy = (counts > 1) & ~((nslots == 1) & (ncalls == counts))
        if not racy.any():
            return
        benign = nvals == 1
        for is_benign in (False, True):
            sel = racy & (benign if is_benign else ~benign)
            if not sel.any():
                continue
            bad = addrs[sel]
            self._emit(
                "write-write-race",
                "warning" if is_benign else "error",
                f"{bad.size} address(es) of {name} stored by racing slots"
                + (" (same value — benign marking idiom)" if is_benign else ""),
                array=name,
                sample=bad,
                count=int(bad.size),
            )

    def _check_rw(self, name, r_idx, r_slot, w_idx, w_slot, w_val) -> None:
        """An address both loaded and plainly stored in one window races
        unless every access to it came from one slot (thread-private
        read-modify-write)."""
        shared = np.intersect1d(np.unique(r_idx), np.unique(w_idx))
        if shared.size == 0:
            return
        both = np.isin(r_idx, shared)
        bothw = np.isin(w_idx, shared)
        all_idx = np.concatenate([r_idx[both], w_idx[bothw]])
        all_slot = np.concatenate([r_slot[both], w_slot[bothw]])
        addrs, _, nslots = _per_addr_groups(all_idx, all_slot)
        racy_addrs = addrs[nslots > 1]
        if racy_addrs.size == 0:
            return
        wsel = np.isin(w_idx, racy_addrs)
        vaddrs, _, nvals = _per_addr_groups(w_idx[wsel], w_val[wsel])
        benign_set = vaddrs[nvals == 1]
        for is_benign in (False, True):
            bad = (
                np.intersect1d(racy_addrs, benign_set)
                if is_benign
                else np.setdiff1d(racy_addrs, benign_set)
            )
            if bad.size == 0:
                continue
            self._emit(
                "read-write-race",
                "warning" if is_benign else "error",
                f"{bad.size} address(es) of {name} loaded and stored by "
                "racing slots"
                + (" (single-valued stores — benign)" if is_benign else ""),
                array=name,
                sample=bad,
                count=int(bad.size),
            )

    def _check_atomic_mix(self, name, a_idx, a_slot, w_idx, w_slot) -> None:
        """Atomics and plain stores to one address cannot mix in a window."""
        shared = np.intersect1d(np.unique(a_idx), np.unique(w_idx))
        if shared.size == 0:
            return
        sel_a = np.isin(a_idx, shared)
        sel_w = np.isin(w_idx, shared)
        all_idx = np.concatenate([a_idx[sel_a], w_idx[sel_w]])
        all_slot = np.concatenate([a_slot[sel_a], w_slot[sel_w]])
        addrs, _, nslots = _per_addr_groups(all_idx, all_slot)
        bad = addrs[nslots > 1]
        if bad.size:
            self._emit(
                "atomic-plain-mix",
                "error",
                f"{bad.size} address(es) of {name} updated both atomically "
                "and with plain stores in one window",
                array=name,
                sample=bad,
                count=int(bad.size),
            )

    # ------------------------------------------------------------------
    # SSSP invariants
    # ------------------------------------------------------------------
    def _check_monotone(self) -> None:
        for key, (arr, snap) in list(self._dist_watch.items()):
            data = arr.data
            with np.errstate(invalid="ignore"):
                grew = data > snap * (1 + _EPS) + _EPS
            if grew.any():
                bad = np.flatnonzero(grew)
                self._emit(
                    "non-monotone-dist",
                    "error",
                    f"{bad.size} cell(s) of {arr.name} increased during the "
                    f"kernel (e.g. [{int(bad[0])}]: {snap[bad[0]]:g} -> "
                    f"{data[bad[0]]:g})",
                    array=arr.name,
                    sample=bad,
                    count=int(bad.size),
                )
            self._dist_watch[key] = (arr, data.copy())

    def on_annotate(self, device: GPUDevice, tag: str, payload: dict) -> None:
        if tag == "bucket":
            active = np.asarray(payload.get("active", ()), dtype=np.int64)
            mask = self._settled.get(id(device))
            if mask is not None and active.size:
                valid = active[active < mask.size]
                re_act = valid[mask[valid]]
                if re_act.size:
                    self._emit(
                        "settled-reactivated",
                        "error",
                        f"bucket {payload.get('index')} reactivates "
                        f"{re_act.size} settled vertex(es)",
                        sample=re_act,
                        count=int(re_act.size),
                    )
        elif tag == "settled":
            vertices = np.asarray(payload.get("vertices", ()), dtype=np.int64)
            if vertices.size == 0:
                return
            mask = self._settled.get(id(device))
            need = int(vertices.max()) + 1
            if mask is None:
                mask = np.zeros(need, dtype=bool)
            elif mask.size < need:
                mask = np.concatenate(
                    [mask, np.zeros(need - mask.size, dtype=bool)]
                )
            mask[vertices] = True
            self._settled[id(device)] = mask

    def check_result(self, graph, source: int, dist: np.ndarray) -> list[Finding]:
        """Final-state verification: every edge relaxed, source at zero.

        Returns the findings it added (also folded into :meth:`report`).
        """
        before = len(self._report.findings) + self._report.dropped
        self._kernel = None
        dist = np.asarray(dist, dtype=np.float64)
        if dist[source] != 0.0:
            self._emit(
                "bad-source",
                "error",
                f"dist[source={source}] = {dist[source]!r}, expected 0",
                sample=[source],
                count=1,
            )
        u = graph.edge_sources()
        v = graph.adj
        w = graph.weights
        finite = np.isfinite(dist[u])
        with np.errstate(invalid="ignore"):
            slack = dist[v] - (dist[u] + w)
        viol = finite & (slack > _EPS * np.maximum(1.0, np.abs(dist[u]) + w))
        if viol.any():
            bad = np.flatnonzero(viol)
            e = int(bad[0])
            self._emit(
                "relaxation-violated",
                "error",
                f"{bad.size} edge(s) not relaxed, e.g. "
                f"dist[{int(v[e])}]={dist[v[e]]:g} > "
                f"dist[{int(u[e])}]={dist[u[e]]:g} + w={w[e]:g}",
                sample=v[bad],
                count=int(bad.size),
            )
        return self._report.findings[before:]


@contextmanager
def attached(sanitizer: Sanitizer | None = None, **kwargs) -> Iterator[Sanitizer]:
    """Attach a sanitizer to *every* device created inside the block.

    Algorithms construct their :class:`GPUDevice` internally, so the
    sanitizer registers as a global observer for the duration::

        with attached(strict=True) as san:
            sssp(graph, source, method="rdbs")
    """
    san = sanitizer if sanitizer is not None else Sanitizer(**kwargs)
    register_global_observer(san)
    try:
        yield san
    finally:
        unregister_global_observer(san)

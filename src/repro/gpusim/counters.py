"""Profiling counters: the simulator's equivalent of ``nvprof`` metrics.

The paper's Fig. 10 reports four nvprof metrics; this module accumulates the
same quantities (plus the supporting raw events) per kernel launch and per
device; the device's :class:`~repro.gpusim.timeline.Timeline` keeps each
launch's counters, :class:`DeviceCounters` their whole-run totals:

* ``inst_executed_global_loads``  — warp-level global load instructions;
* ``inst_executed_global_stores`` — warp-level global store instructions;
* ``inst_executed_atomics``       — warp-level atom/atom-CAS instructions;
* ``global_hit_rate``             — hits / accesses in the unified L1/tex.

A *warp-level instruction* is one instruction issued by one warp, regardless
of how many of its 32 lanes are active — exactly nvprof's definition, and
the reason divergence and poor load balance inflate these counts on real
hardware just as they do here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["KernelCounters", "DeviceCounters"]


@dataclass
class KernelCounters:
    """Event counts for one kernel launch (or one phase of a fused kernel)."""

    # --- warp-level instruction counts (nvprof names) -------------------
    inst_executed_global_loads: int = 0
    inst_executed_global_stores: int = 0
    inst_executed_atomics: int = 0
    #: warp-level non-memory (ALU/control) instructions, including the extra
    #: issues caused by branch-divergence serialization
    inst_executed_other: int = 0
    #: warp-level ballot instructions (``__ballot_sync`` rounds of the
    #: W-MS multisplit model — one per split bit per warp slot)
    inst_executed_ballots: int = 0

    # --- memory system ---------------------------------------------------
    #: 32-byte global memory transactions issued for loads
    global_load_transactions: int = 0
    #: 32-byte global memory transactions issued for stores
    global_store_transactions: int = 0
    #: transactions issued for atomics (each atomic RMW is one transaction
    #: per distinct sector touched)
    atomic_transactions: int = 0
    #: L1/tex lookups and hits (loads only, matching nvprof global_hit_rate)
    l1_accesses: int = 0
    l1_hits: int = 0
    #: shared-memory transactions (multisplit rank/scatter staging plus the
    #: per-warp histogram combine); on-chip traffic — occupies the LSU issue
    #: pipe but never DRAM, so it is *not* part of ``total_transactions``
    shared_transactions: int = 0

    # --- multisplit events -----------------------------------------------
    #: counted ``k.multisplit`` invocations (histogram passes)
    multisplit_ops: int = 0
    #: sum of bucket fan-outs over those invocations
    multisplit_buckets: int = 0

    # --- MLMQ work-stealing events ---------------------------------------
    #: queue-descriptor handoffs between SM-mapped queue groups (each is
    #: one CAS on the victim queue's head pointer)
    mlmq_steals: int = 0
    #: worklist slots that changed owner across those handoffs
    mlmq_stolen_slots: int = 0

    # --- SIMT efficiency ---------------------------------------------------
    #: warp instructions whose active mask was divergent (<32 active lanes)
    divergent_branches: int = 0
    branch_instructions: int = 0
    #: sum of active lanes over all issued warp instructions
    active_lanes: int = 0
    #: 32 × (number of issued warp instructions) — the lane-slot capacity
    lane_slots: int = 0

    # --- launch & synchronization events --------------------------------
    kernel_launches: int = 0
    child_kernel_launches: int = 0
    barriers: int = 0
    async_rounds: int = 0
    threads_launched: int = 0

    # --- atomic contention -----------------------------------------------
    #: atomics that conflicted (same address within one warp-step group) and
    #: therefore serialized
    atomic_conflicts: int = 0

    # ------------------------------------------------------------------
    @property
    def global_hit_rate(self) -> float:
        """L1/tex hit rate for global loads, in percent (nvprof convention)."""
        if self.l1_accesses == 0:
            return 0.0
        return 100.0 * self.l1_hits / self.l1_accesses

    @property
    def total_warp_instructions(self) -> int:
        """All warp-level instructions issued."""
        return (
            self.inst_executed_global_loads
            + self.inst_executed_global_stores
            + self.inst_executed_atomics
            + self.inst_executed_other
            + self.inst_executed_ballots
        )

    @property
    def total_transactions(self) -> int:
        """All 32-byte memory transactions."""
        return (
            self.global_load_transactions
            + self.global_store_transactions
            + self.atomic_transactions
        )

    @property
    def simt_efficiency(self) -> float:
        """Average fraction of active lanes per issued instruction (0..1)."""
        if self.lane_slots == 0:
            return 1.0
        return self.active_lanes / self.lane_slots

    def merge(self, other: "KernelCounters") -> None:
        """Accumulate ``other`` into this counter set in place.

        The instance dict holds exactly the dataclass fields, so one pass
        over it replaces the per-field reflection (this runs once per
        kernel segment).
        """
        mine = self.__dict__
        for name, value in other.__dict__.items():
            mine[name] += value

    def copy(self) -> "KernelCounters":
        """An independent copy of the current counts."""
        out = KernelCounters()
        out.merge(self)
        return out

    def as_dict(self) -> dict[str, float]:
        """Stable plain-dict snapshot, including the derived metrics.

        The snapshot is the serialization boundary for benchmark records
        (:mod:`repro.bench.trajectory`): keys appear in declaration order,
        raw event counts are plain ``int`` (kernels may accumulate NumPy
        scalars, which ``json`` refuses to encode) and derived metrics are
        plain ``float`` — so two identical runs always serialize to the
        same JSON, byte for byte.
        """
        d: dict[str, float] = {
            f.name: int(getattr(self, f.name)) for f in fields(self)
        }
        d["global_hit_rate"] = float(self.global_hit_rate)
        d["simt_efficiency"] = float(self.simt_efficiency)
        return d


@dataclass
class DeviceCounters:
    """Whole-run accumulation of every launch's counters.

    The launch-by-launch history lives in the device's
    :class:`~repro.gpusim.timeline.Timeline`; this holds only the totals.
    """

    totals: KernelCounters = field(default_factory=KernelCounters)

    def record(self, name: str, counters: KernelCounters) -> None:
        """Fold one kernel's counters into the totals.

        ``name`` is the launch's label; the timeline keeps it.
        """
        self.totals.merge(counters)

    def as_dict(self) -> dict:
        """Stable JSON-safe snapshot of the whole-run counters."""
        return {"totals": self.totals.as_dict()}

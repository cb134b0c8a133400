"""Kernel timeline: the simulator's answer to ``nvprof --print-gpu-trace``.

:class:`Timeline` is the device's one per-launch history: it records every
launch's (and every persistent-kernel segment's) name, simulated
start/duration and counters — the same objects the device folds into its
whole-run :class:`~repro.gpusim.counters.DeviceCounters` totals — then
aggregates them the way a profiling session does:
time per kernel *type*, top-k kernels, and a bottleneck attribution that
splits each kernel's duration into its binding resource (issue-bound,
memory-bound, critical-path-bound or overhead).  The attribution reads the
roofline terms from :func:`~repro.gpusim.timemodel.kernel_bounds`, the
formula the time model charges, so the two always agree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .counters import KernelCounters
from .spec import GPUSpec
from .timemodel import kernel_bounds

__all__ = ["KernelRecord", "Timeline", "attribute_bottleneck"]


@dataclass(frozen=True)
class KernelRecord:
    """One launch on the simulated timeline."""

    name: str
    start_s: float
    duration_s: float
    counters: KernelCounters
    critical_instructions: int

    @property
    def end_s(self) -> float:
        """Completion time."""
        return self.start_s + self.duration_s


def attribute_bottleneck(
    spec: GPUSpec, counters: KernelCounters, critical_instructions: int
) -> str:
    """Name the resource that bounds this kernel's body.

    One of ``"issue"``, ``"memory"``, ``"critical-path"`` — or
    ``"overhead"`` when the body is empty (pure launch/sync cost).
    """
    b = kernel_bounds(spec, counters, critical_instructions)
    best = max(b.issue_s, b.memory_s, b.critical_s)
    if best == 0:
        return "overhead"
    if best == b.critical_s:
        return "critical-path"
    if best == b.memory_s:
        return "memory"
    return "issue"


class Timeline:
    """The per-launch history of one device: one :class:`KernelRecord` per
    launch or persistent-kernel segment, in issue order."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        self.records: list[KernelRecord] = []

    def record(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        counters: KernelCounters,
        critical_instructions: int,
    ) -> None:
        """Append one launch."""
        self.records.append(
            KernelRecord(name, start_s, duration_s, counters, critical_instructions)
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    @property
    def total_s(self) -> float:
        """Sum of recorded kernel durations."""
        return sum(r.duration_s for r in self.records)

    def by_kernel(self) -> dict[str, tuple[int, float]]:
        """``{kernel name: (segment count, total seconds)}``."""
        agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for r in self.records:
            agg[r.name][0] += 1
            agg[r.name][1] += r.duration_s
        return {k: (int(c), t) for k, (c, t) in agg.items()}

    def top(self, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` kernel types with the largest total time."""
        items = sorted(
            self.by_kernel().items(), key=lambda kv: kv[1][1], reverse=True
        )
        return [(name, t) for name, (_c, t) in items[:k]]

    def bottleneck_breakdown(self) -> dict[str, float]:
        """Total seconds attributed to each binding resource."""
        out: dict[str, float] = defaultdict(float)
        for r in self.records:
            out[
                attribute_bottleneck(self.spec, r.counters, r.critical_instructions)
            ] += r.duration_s
        return dict(out)

    def report(self, k: int = 8) -> str:
        """Human-readable profile (top kernels + bottleneck split)."""
        # a record is one kernel segment; continuation segments of a
        # persistent kernel are not host launches
        host = sum(r.counters.kernel_launches for r in self.records)
        lines = [f"timeline: {len(self.records)} kernel segments "
                 f"({host} host launches), {self.total_s * 1e3:.4f} ms total"]
        lines.append(f"{'kernel':<24} {'segments':>9} {'total ms':>10} {'share':>7}")
        total = max(self.total_s, 1e-30)
        for name, (count, t) in sorted(
            self.by_kernel().items(), key=lambda kv: kv[1][1], reverse=True
        )[:k]:
            lines.append(
                f"{name:<24} {count:>9} {t * 1e3:>10.4f} {t / total:>7.1%}"
            )
        lines.append("bottlenecks: " + ", ".join(
            f"{k_}={v / total:.1%}"
            for k_, v in sorted(
                self.bottleneck_breakdown().items(), key=lambda kv: -kv[1]
            )
        ))
        return "\n".join(lines)

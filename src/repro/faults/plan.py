"""Fault plans: declarative, seeded descriptions of what to break.

A :class:`FaultPlan` is a named bundle of :class:`FaultSpec` entries; each
spec targets one fault *kind* and schedules a bounded number of injections
over the stream of eligible events (an event is eligible when injecting
there would actually change program state — dropping an atomic that would
lose anyway is not a fault).  Scheduling is positional — ``start``/
``period``/``count`` over the eligible-event counter — plus a seeded RNG
for within-event lane choice, so a plan is *fully deterministic*: the same
plan, seed and workload produce the same injections, byte for byte.

Fault taxonomy (see ``docs/faults.md``):

``lost-update``
    an ``atomic_min`` that would have lowered a cell is dropped (its lane's
    value is replaced with +inf) — the BASYN hazard class: an update made
    invisible to every later reader.
``stale-read``
    a ``gather`` lane returns the value the cell held at the *previous*
    kernel launch — a relaxed-consistency read.
``bitflip``
    one bit of a resident distance payload is flipped at a kernel boundary
    (a radiation-style SEU); high exponent bits by default so the
    corruption is never lost in rounding.
``kernel-abort``
    a kernel launch raises :class:`InjectedKernelAbort` before running.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "InjectedKernelAbort",
    "get_plan",
    "plan_names",
]

#: every fault kind the injector implements
FAULT_KINDS = (
    "lost-update",
    "stale-read",
    "bitflip",
    "kernel-abort",
)


class InjectedKernelAbort(RuntimeError):
    """Raised by the injector at a kernel launch selected for abortion."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind plus its deterministic schedule.

    ``start``/``period``/``count`` select *eligible events*: injection
    happens at eligible event numbers ``start, start+period, ...`` until
    ``count`` faults have fired.  ``kernel`` (substring match) and
    ``array`` (device-array name) restrict where the spec applies.
    """

    kind: str
    count: int = 1
    start: int = 0
    period: int = 1
    kernel: str | None = None
    array: str = "dist"
    #: bit index flipped by ``bitflip`` faults (float64 payload; 52..62 hit
    #: the exponent, so the corruption always survives rounding)
    bit: int = 62

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.count < 0 or self.start < 0 or self.period < 1:
            raise ValueError("count/start must be >= 0 and period >= 1")
        if not 0 <= self.bit < 64:
            raise ValueError("bit must be in [0, 64)")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of fault specs."""

    name: str
    seed: int = 0
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same plan under a different seed."""
        return replace(self, seed=seed)

    @property
    def total_budget(self) -> int:
        """Upper bound on injected faults (sum of spec counts)."""
        return sum(s.count for s in self.specs)


#: the named plans the CLI and tests exercise.  Budgets are finite so a
#: recovering run always terminates; schedules start a few events in so the
#: source relaxation survives and the fault lands mid-flight.
_PLANS: dict[str, FaultPlan] = {
    "lost-updates": FaultPlan(
        "lost-updates",
        specs=(FaultSpec("lost-update", count=8, start=2, period=3),),
    ),
    # period 1: the multisplit placement re-activates from register-resident
    # atomic results instead of a second global read, which removes the
    # most corruptible gather from the stream — a denser schedule keeps
    # the plan's faults landing on state-changing reads
    "stale-reads": FaultPlan(
        "stale-reads",
        specs=(FaultSpec("stale-read", count=12, start=3, period=1),),
    ),
    "bitflips": FaultPlan(
        "bitflips",
        specs=(FaultSpec("bitflip", count=3, start=4, period=7),),
    ),
    "kernel-aborts": FaultPlan(
        "kernel-aborts",
        specs=(FaultSpec("kernel-abort", count=2, start=3, period=5),),
    ),
    "chaos": FaultPlan(
        "chaos",
        specs=(
            FaultSpec("lost-update", count=4, start=2, period=5),
            FaultSpec("stale-read", count=6, start=5, period=3),
            FaultSpec("bitflip", count=2, start=6, period=9),
            FaultSpec("kernel-abort", count=1, start=7, period=1),
        ),
    ),
}


def plan_names() -> list[str]:
    """All named plans."""
    return list(_PLANS)


def get_plan(name: str | FaultPlan, seed: int | None = None) -> FaultPlan:
    """Resolve a plan by name (or pass one through), optionally re-seeded."""
    if isinstance(name, FaultPlan):
        plan = name
    else:
        try:
            plan = _PLANS[name]
        except KeyError:
            known = ", ".join(_PLANS)
            raise ValueError(
                f"unknown fault plan {name!r}; known: {known}"
            ) from None
    if seed is not None:
        plan = plan.with_seed(seed)
    return plan

"""The simulated-time ledger of one solve, from public counters and spec.

Every simulated second of a GPU engine is charged by
:mod:`repro.gpusim.device` as a kernel body plus fixed per-event costs.
The per-event costs are linear in counted events, so the run's totals
times the :class:`~repro.gpusim.spec.GPUSpec` constants recover them
exactly:

* ``launch``  — host launches × ``kernel_launch_s`` plus device-side child
  launches × ``child_launch_s``;
* ``barrier`` — device barriers (host-visible and in-kernel) × ``barrier_s``;
* ``async``   — asynchronous work-list rounds × ``async_round_s``;
* ``atomic``  — conflicting atomics × ``atomic_serialization_cycles`` over
  the device's aggregate clock;
* ``body``    — the remainder: each kernel's issue / memory /
  critical-path bound.

The parts sum to ``time_ms`` by construction; :func:`ledger_ms` refuses a
solve whose fixed costs exceed its simulated time.

``BENCHMARK.json`` declares ``<method>.sim.<part>_ms`` for every part an
engine charges: MLMQ issues no barriers and Near-Far and BL no async
rounds, so those three parts are always zero and stay undeclared.
"""

from __future__ import annotations

__all__ = ["LEDGER_PARTS", "LedgerError", "dram_transactions", "ledger_ms"]

#: ledger components in report order; ``body`` is the remainder
LEDGER_PARTS = ("launch", "barrier", "async", "atomic", "body")

#: relative slack for float summation when checking the identity
_REL_EPS = 1e-9


class LedgerError(ValueError):
    """The fixed per-event costs exceed the solve's simulated time."""


def ledger_ms(totals, spec, time_ms: float) -> dict[str, float]:
    """Split ``time_ms`` into :data:`LEDGER_PARTS` (milliseconds)."""
    parts = {
        "launch": (
            totals.kernel_launches * spec.kernel_launch_s
            + totals.child_kernel_launches * spec.child_launch_s
        ) * 1e3,
        "barrier": totals.barriers * spec.barrier_s * 1e3,
        "async": totals.async_rounds * spec.async_round_s * 1e3,
        "atomic": (
            totals.atomic_conflicts
            * spec.atomic_serialization_cycles
            / (spec.num_sms * spec.clock_hz)
        ) * 1e3,
    }
    fixed = sum(parts.values())
    if fixed > time_ms * (1.0 + _REL_EPS):
        raise LedgerError(
            f"launch+barrier+async+atomic = {fixed!r} ms exceeds "
            f"time_ms = {time_ms!r}"
        )
    parts["body"] = max(time_ms - fixed, 0.0)
    return parts


def dram_transactions(totals) -> int:
    """32-byte transactions that reach DRAM, as the time model counts them."""
    return max(
        totals.global_load_transactions - totals.l1_hits
        + totals.global_store_transactions
        + totals.atomic_transactions,
        0,
    )

"""Two-resource kernel timing model.

A kernel's simulated duration is the slowest of three bounds, the standard
roofline-style decomposition for throughput processors:

* **issue bound** — total warp instructions (plus shared-memory
  transactions, which occupy LSU issue slots without touching DRAM)
  divided by the device's aggregate issue rate (all SMs,
  ``issue_per_sm_per_cycle`` each);
* **memory bound** — DRAM traffic (L1-missing load transactions plus all
  store/atomic transactions, ``sector_bytes`` each) divided by peak
  bandwidth;
* **critical-path bound** — the longest dependent per-warp instruction
  chain cannot finish faster than one warp executing it back-to-back
  (``_SERIAL_CPI`` cycles per dependent instruction).  This is what makes a
  single 100k-degree hub vertex in a thread-per-vertex kernel slow even on
  an otherwise idle GPU — the load-imbalance effect ADWL removes.

Atomic contention adds a serialization term on top (conflicting atomics to
one address retire one at a time in the L2 atomic units).

All bounds derive from *counted* events; no per-algorithm constants exist
anywhere in the model, so speedups between algorithms emerge from their
actual instruction/transaction/imbalance behaviour.
"""

from __future__ import annotations

from typing import NamedTuple

from .counters import KernelCounters
from .spec import GPUSpec

__all__ = [
    "KernelBounds", "kernel_bounds", "kernel_time", "relax_filter_gate",
    "SERIAL_CPI",
]

#: cycles per instruction for a dependent single-warp chain (issue latency
#: of back-to-back dependent instructions on Volta-class SMs)
SERIAL_CPI = 4.0


class KernelBounds(NamedTuple):
    """The roofline terms of one kernel body, in seconds."""

    issue_s: float
    memory_s: float
    critical_s: float
    #: atomic serialization, added on top of the binding bound
    atomic_s: float

    @property
    def body_s(self) -> float:
        """The body's duration: the binding bound plus atomic serialization."""
        return max(self.issue_s, self.memory_s, self.critical_s) + self.atomic_s


def kernel_bounds(
    spec: GPUSpec,
    counters: KernelCounters,
    critical_instructions: int,
) -> KernelBounds:
    """Every term of the model for one kernel's body."""
    # --- issue bound -----------------------------------------------------
    # shared-memory transactions (multisplit staging) occupy LSU issue
    # slots like instructions do, but stay on-chip: they never join the
    # DRAM term below
    issue_s = (
        counters.total_warp_instructions + counters.shared_transactions
    ) / spec.issue_slots_per_s

    # --- memory bound ------------------------------------------------------
    dram_transactions = (
        (counters.global_load_transactions - counters.l1_hits)
        + counters.global_store_transactions
        + counters.atomic_transactions
    )
    dram_transactions = max(dram_transactions, 0)
    mem_s = dram_transactions * spec.sector_bytes / spec.mem_bandwidth_bytes_per_s

    # --- critical path bound ---------------------------------------------
    crit_s = critical_instructions * SERIAL_CPI / spec.clock_hz

    # --- atomic serialization ---------------------------------------------
    atom_s = (
        counters.atomic_conflicts
        * spec.atomic_serialization_cycles
        / (spec.num_sms * spec.clock_hz)
    )
    return KernelBounds(issue_s, mem_s, crit_s, atom_s)


def kernel_time(
    spec: GPUSpec,
    counters: KernelCounters,
    critical_instructions: int,
) -> float:
    """Simulated execution time (seconds) of one kernel's body.

    Launch and synchronization latencies are charged separately by the
    device (they depend on *how* the kernel was started, not on its body).
    """
    return kernel_bounds(spec, counters, critical_instructions).body_s


def relax_filter_gate(spec: GPUSpec) -> float:
    """Lanes per dependent step from which a test before ``atomicMin`` pays.

    The filter (:func:`repro.sssp.relax.relax_batch`) reads ``dist[v]``
    and issues the ``atomicMin`` only from lanes whose tentative distance
    is below it.  Priced with this model:

    * it adds two dependent steps (the load and the compare branch) to
      the critical path: ``2 * SERIAL_CPI`` cycles per step;
    * every same-address conflict it drops saves
      ``atomic_serialization_cycles / num_sms`` cycles of the atomic term.

    So it breaks even at ``b = 2 * SERIAL_CPI * num_sms /
    atomic_serialization_cycles`` dropped conflicts per step (32 on V100).
    A batch issues at most one conflict per lane, and on a critical-path
    bound graph few lanes of a narrow batch conflict at all, so the gate
    asks for a warp's worth of lanes per conflict: ``warp_size * b`` lanes
    per step — 1024 on V100, 512 on T4, 1382.4 on A100.
    """
    breakeven = (
        2 * SERIAL_CPI * spec.num_sms / spec.atomic_serialization_cycles
    )
    return spec.warp_size * breakeven

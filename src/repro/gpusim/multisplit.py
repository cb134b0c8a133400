"""Warp-ballot multisplit: the cost model behind ``k.multisplit``.

GPU Multisplit (Ashkiani et al., arXiv 1701.01189) splits keys drawn
from a *small* range into buckets without a general sort: each warp
takes ``ceil(log2 B)`` ballot rounds to build per-lane bucket masks,
ranks its lanes through a shared-memory histogram, and writes a stable
within-bucket order.  For the bucket-id fan-outs of Δ-stepping
(``B`` = 2 near/far splits, ``B`` = 3 ADWL workload classes) this
replaces the full-sort / per-element-ALU cost the engines previously
paid with one ballot per split bit.

The **W-MS cost model** implemented by
:meth:`repro.gpusim.device.KernelContext.multisplit` charges, for an
assignment with ``S`` warp slots, ``W`` active warps and ``B`` buckets:

* ``S * ceil(log2 max(B, 2))`` warp-level **ballot instructions**
  (``inst_executed_ballots`` — one ``__ballot_sync`` per split bit per
  slot); these are issue-pipe instructions and count toward
  ``total_warp_instructions``;
* ``2 * S + W * B`` **shared-memory transactions**
  (``shared_transactions`` — per-slot rank read + scatter write through
  the warp's shared staging tile, plus the ``B``-counter histogram
  combine per warp); shared traffic occupies the LSU issue pipe but
  never reaches DRAM, so it feeds the issue-time bound and *not* the
  global-memory transaction totals;
* ``ceil(log2 max(B, 2)) + 1`` critical-path instructions per dependent
  step (the ballot chain plus the rank resolve) for a standalone pass,
  and ``ceil(log2 max(B, 2))`` for a split run inside its producer
  (``in_producer=True``): the relax step that resolved the atomic
  already holds the key in a register, and the one popc that reads the
  rank is charged by its consumer (the worklist store, or
  ``publish_count``'s ALU op).  Every counter above is the same either
  way; only the critical path differs.

The semantic result is exact and deterministic: the stable grouping of
:func:`repro.util.scan.multisplit_order`.
"""

from __future__ import annotations

__all__ = ["BALLOT_WIDTH_BITS", "ballot_rounds"]

#: lanes answered by one ballot instruction (the warp width)
BALLOT_WIDTH_BITS = 32


def ballot_rounds(num_buckets: int) -> int:
    """Ballot instructions per warp slot: one per split bit.

    ``ceil(log2(max(num_buckets, 2)))`` — even a 2-way split costs one
    ballot; each doubling of the bucket fan-out costs one more.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    return max(1, (max(num_buckets, 2) - 1).bit_length())

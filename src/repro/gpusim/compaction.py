"""Stream compaction: the rank-and-scatter idiom of GPU worklists.

Frontier construction on real GPUs evaluates a predicate per item, ranks
each survivor to find its output slot, and scatters the survivors
contiguously.  This module packages that idiom with full accounting — a
warp-ballot ranking (one 2-way multisplit) and the coalesced survivor
stores — so every algorithm that builds a queue charges the same cost.
"""

from __future__ import annotations

import numpy as np

from .device import KernelContext, subset_assignment
from .kernels import WorkAssignment
from .memory import DeviceArray

__all__ = ["compact_multisplit"]


def compact_multisplit(
    ctx: KernelContext,
    out: DeviceArray,
    keep: np.ndarray,
    values: np.ndarray,
    assignment: WorkAssignment,
    *,
    offset: int = 0,
) -> np.ndarray:
    """Write ``values[keep]`` densely into ``out`` starting at ``offset``.

    Returns the survivors (host view), in their original order — the
    2-way multisplit's stable within-bucket order.  Charges one ballot
    round per slot (the lanes rank themselves through the ballot mask and
    shared staging instead of a block-wide prefix sum) and the coalesced
    stores of the survivors.  ``out`` must be large enough for ``offset +
    survivors`` entries.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.size != assignment.num_items:
        raise ValueError("predicate must match the assignment's items")
    order, offsets = ctx.multisplit(
        np.where(keep, 0, 1).astype(np.int64), 2, assignment
    )
    survivors = np.asarray(values)[order[: offsets[1]]]
    if survivors.size:
        if offset + survivors.size > out.size:
            raise ValueError("output buffer too small for compaction")
        sub = subset_assignment(assignment, keep)
        ctx.scatter(
            out,
            offset + np.arange(survivors.size, dtype=np.int64),
            survivors,
            sub,
        )
    return survivors

"""The device worklist stores of the bucketed engines.

BASYN's phase-1 workload lists (§4.3), ADDS's near and far piles and
MLMQ's queue pool (arXiv 2602.10080) keep membership in host mirrors;
on the device each is a write-only slot array whose insertion traffic
the simulator charges.  A push is one dense store behind a rolling
cursor: coalesced, and provably disjoint because each thread's index is
the cursor plus its own id.  The one overflow policy, a fresh pool at
cursor 0 sized for at least the push, keeps every store that way.

The synchronous Δ-stepping arms build their next-bucket candidate queue
with the other frontier idiom, stream compaction
(:func:`compact_multisplit`): a per-lane predicate, a warp-ballot rank
and a dense store of the survivors.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.device import GPUDevice, KernelContext, subset_assignment
from ..gpusim.kernels import WorkAssignment, thread_per_item
from ..gpusim.memory import DeviceArray

__all__ = ["SlotPool", "compact_multisplit", "pop_oldest"]


class SlotPool:
    """Dense cursor-append slots in device memory.

    Write-only scratch, left uninitialized (``cudaMalloc`` semantics): a
    read before a write is a bug the sanitizer flags.
    """

    def __init__(self, device: GPUDevice, capacity: int, name: str) -> None:
        self.device = device
        self.capacity = capacity
        self.name = name
        self.slots = device.empty(capacity, dtype=np.int64, name=name)
        self.cursor = 0

    def store(self, k: KernelContext, vertices: np.ndarray) -> None:
        """Append ``vertices``: one coalesced store, one thread per vertex."""
        size = int(vertices.size)
        cursor = self.cursor
        if cursor + size > self.slots.size:
            self.slots = self.device.empty(
                max(self.capacity, size), dtype=np.int64, name=self.name
            )
            cursor = 0
        k.scatter(self.slots, cursor + np.arange(size, dtype=np.int64),
                  vertices, thread_per_item(size))
        self.cursor = cursor + size

    def rewind(self) -> None:
        """Restart at slot 0.

        Only after a device barrier has ordered every earlier store, or a
        reused slot could be written twice in one window.
        """
        self.cursor = 0


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


def pop_oldest(chunks: list[np.ndarray], count: int) -> np.ndarray:
    """Remove and return up to ``count`` oldest entries of a FIFO of arrays.

    ``chunks`` holds the pushes oldest first and is consumed in place; a
    partly taken head keeps its remainder.  At least one entry must be
    pending.
    """
    taken: list[np.ndarray] = []
    while chunks and count > 0:
        head = chunks[0]
        if head.size <= count:
            taken.append(chunks.pop(0))
        else:
            taken.append(head[:count])
            chunks[0] = head[count:]
        count -= taken[-1].size
    return taken[0] if len(taken) == 1 else np.concatenate(taken)

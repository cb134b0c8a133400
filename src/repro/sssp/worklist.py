"""The device worklist store shared by the asynchronous engines.

BASYN's phase-1 workload lists (§4.3), ADDS's near and far piles and
MLMQ's queue pool (arXiv 2602.10080) keep membership in host mirrors;
on the device each is a write-only slot array whose insertion traffic
the simulator charges.  A push is one dense store behind a rolling
cursor: coalesced, and provably disjoint because each thread's index is
the cursor plus its own id.  The one overflow policy, a fresh pool at
cursor 0 sized for at least the push, keeps every store that way.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.device import GPUDevice, KernelContext
from ..gpusim.kernels import thread_per_item

__all__ = ["SlotPool", "pop_oldest"]


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

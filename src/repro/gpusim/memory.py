"""Device memory: arrays with simulated addresses and a coalescing model.

Global memory on a CUDA GPU is accessed in 32-byte *sectors*: when the 32
lanes of a warp execute one load instruction, the addresses they touch are
coalesced and one transaction is issued per distinct sector.  The simulator
reproduces that rule exactly — every memory operation supplies, for each
element access, the SIMT *slot* (warp × step) it belongs to, and the number
of transactions is the number of distinct ``(slot, sector)`` pairs.

:class:`DeviceArray` wraps a NumPy array with a base address from a simple
bump allocator so different arrays never alias and element addresses are
realistic (contiguous, 2^k-aligned).  The wrapped array *is* the storage:
kernels really read and write it, which keeps the simulation honest — the
algorithms compute true shortest paths, not a re-enactment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DeviceArray", "BumpAllocator", "coalesce"]

#: alignment of every allocation (one cache line)
_ALIGN = 128


class BumpAllocator:
    """Monotonic address-space allocator for simulated device memory."""

    def __init__(self, base: int = 1 << 20) -> None:
        self._next = base

    def allocate(self, nbytes: int) -> int:
        """Reserve ``nbytes`` (rounded up to line alignment); return base."""
        base = self._next
        padded = (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        self._next += padded + _ALIGN  # guard line between allocations
        return base


@dataclass
class DeviceArray:
    """A NumPy array living at a simulated device address."""

    data: np.ndarray
    base_address: int
    name: str = "buf"

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return self.data.itemsize

    @property
    def size(self) -> int:
        """Number of elements."""
        return self.data.size

    @property
    def nbytes(self) -> int:
        """Total bytes."""
        return self.data.nbytes

    def addresses(self, idx: np.ndarray) -> np.ndarray:
        """Simulated byte address of each element in ``idx``."""
        return self.base_address + np.asarray(idx, dtype=np.int64) * self.itemsize

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeviceArray({self.name!r}, shape={self.data.shape}, "
            f"dtype={self.data.dtype}, @0x{self.base_address:x})"
        )


def coalesce(
    addresses: np.ndarray,
    slots: np.ndarray,
    sector_bytes: int,
    line_bytes: int,
) -> tuple[int, int, np.ndarray]:
    """Apply the warp coalescing rule to a batch of element accesses.

    Parameters
    ----------
    addresses:
        byte address of every element access.
    slots:
        SIMT slot id (warp × lockstep step) of every access; accesses in the
        same slot are issued by one warp instruction and coalesce.
    sector_bytes / line_bytes:
        transaction granularity and cache-line size.

    Returns
    -------
    (instructions, transactions, sector_ids):
        ``instructions`` — number of distinct slots (warp-level instruction
        count); ``transactions`` — number of distinct ``(slot, sector)``
        pairs; ``sector_ids`` — the 32 B sector id of each transaction,
        ordered by slot (the stream fed to the cache model).  Volta-class
        L1/tex caches are *sectored*: a miss fills only the missing 32 B
        sector of its 128 B line, so reuse is tracked at sector granularity
        — touching one sector earns no credit for its line neighbours.
    """
    if addresses.size == 0:
        return 0, 0, np.zeros(0, dtype=np.int64)
    if addresses.size == 1:  # one lane: one instruction, one transaction
        return 1, 1, addresses // sector_bytes
    sectors = addresses // sector_bytes
    # unique (slot, sector) pairs; slots and sectors are non-negative so a
    # composite key is safe with int64 as long as sectors < 2**40.
    # A plain sort beats np.unique's hash path on these sizes and gives us
    # the slot-major transaction order the cache model needs anyway.
    key = slots.astype(np.int64) * (1 << 40) + sectors
    # contiguous scans arrive slot-major already; one comparison pass is
    # cheaper than re-sorting the (dominant) sorted streams.  Stability is
    # irrelevant — equal keys are collapsed to uniques below — so the
    # default introsort applies (timsort is far slower on random int64).
    if key.size > 1 and not bool((key[1:] >= key[:-1]).all()):
        key.sort()
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    first[1:] = key[1:] != key[:-1]
    uniq = key[first]
    transactions = uniq.size
    uniq_slots = uniq >> 40
    instructions = int(np.count_nonzero(uniq_slots[1:] != uniq_slots[:-1]) + 1)
    sector_ids = uniq & ((1 << 40) - 1)
    return int(instructions), int(transactions), sector_ids

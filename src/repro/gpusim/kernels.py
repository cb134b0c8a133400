"""SIMT work-to-thread mappings.

A CUDA kernel's cost structure is fixed by how work items map onto threads,
warps and lockstep steps.  :class:`WorkAssignment` captures one such mapping
for a batch of work items (usually edges): every item gets a *slot* id
identifying the warp instruction that processes it — items sharing a slot
are processed by one warp in one step, so they coalesce in memory and
execute in lockstep.

Three mappings cover every kernel in the paper:

* :func:`thread_per_vertex_edges` — classic vertex-centric push: thread *t*
  owns active vertex *t* and loops over its edges (the BL baseline and
  ADDS).  A warp's step count is the **max** degree among its 32 vertices,
  so power-law frontiers waste most lane-slots — motivation 2 in numbers.
* :func:`threads_per_vertex_edges` — ADWL child kernels: a vertex's edges
  are strided across 32 (warp granularity) or 256 (block granularity)
  threads, collapsing the step count from ``deg`` to ``ceil(deg / tpv)``.
* :func:`grid_stride` — flat edge-parallel mapping used by the fused
  phase-2&3 kernel ("we coarsely assign the same number of heavy edges to
  each thread"): item *i* goes to thread ``i % T`` at step ``i // T``, which
  is perfectly balanced and perfectly coalesced for contiguous arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..util.scan import segmented_arange

__all__ = [
    "WorkAssignment",
    "thread_per_item",
    "thread_per_vertex_edges",
    "threads_per_vertex_edges",
    "grid_stride",
    "segmented_arange",
]


@dataclass(frozen=True)
class WorkAssignment:
    """One SIMT mapping of work items to (warp, step) slots."""

    #: slot id per work item; items sharing a slot coalesce / run in lockstep
    slots: np.ndarray
    #: threads the kernel launches for this mapping
    num_threads: int
    #: warps those threads occupy
    num_warps: int
    #: number of distinct slots = warp-level instructions per full pass
    num_slots: int
    #: longest per-warp step chain (critical path, in steps)
    max_steps: int
    #: total work items
    num_items: int
    #: slot id = warp * step_stride + step, fixed by the factory; a subset
    #: keeps it, so nested subsets decode steps against the same stride
    step_stride: int

    @property
    def simt_efficiency(self) -> float:
        """Active lanes / issued lane-slots for one pass (0..1)."""
        if self.num_slots == 0:
            return 1.0
        return self.num_items / (self.num_slots * 32)


def _finalize(
    slots: np.ndarray,
    num_threads: int,
    warp_size: int,
    max_steps: int,
    num_slots: int = None,
) -> WorkAssignment:
    """Assemble a WorkAssignment; ``num_slots`` is computed analytically by
    each factory (an O(n log n) unique pass here would dominate small
    launches) and verified against the unique count in the tests."""
    assert num_slots is not None, (
        "factories must pass num_slots analytically; the np.unique fallback "
        "was removed from the hot path"
    )
    num_warps = (num_threads + warp_size - 1) // warp_size
    return WorkAssignment(
        slots=slots,
        num_threads=int(num_threads),
        num_warps=int(num_warps),
        num_slots=int(num_slots),
        max_steps=int(max_steps),
        num_items=int(slots.size),
        step_stride=max(int(max_steps), 1),
    )


@lru_cache(maxsize=4096)
def thread_per_item(num_items: int, warp_size: int = 32) -> WorkAssignment:
    """One thread per item, one step: per-vertex scalar work.

    Item *i* runs on thread *i*; slot = warp id.  Used for loading
    ``dist[u]`` once per active vertex, classifying workloads, etc.

    Memoized: the assignment is a pure function of its scalar arguments
    and :class:`WorkAssignment` is immutable by contract, so repeated
    frontier sizes (every solver re-launches per iteration) share one
    instance instead of rebuilding the slot arrays.
    """
    items = np.arange(num_items, dtype=np.int64)
    slots = items // warp_size
    num_slots = (num_items + warp_size - 1) // warp_size
    return _finalize(
        slots,
        num_items,
        warp_size,
        max_steps=1 if num_items else 0,
        num_slots=num_slots,
    )


def thread_per_vertex_edges(
    edge_counts: np.ndarray, warp_size: int = 32
) -> WorkAssignment:
    """Vertex-centric push: thread *t* loops over vertex *t*'s edges.

    Work items are the concatenated edges of all vertices, in vertex order.
    Edge *j* of vertex *t* is processed at step *j* by the warp
    ``t // warp_size``; the warp stays busy until its highest-degree vertex
    finishes, so lanes of low-degree vertices idle (SIMT inefficiency).
    """
    edge_counts = np.asarray(edge_counts, dtype=np.int64)
    num_threads = int(edge_counts.size)
    if num_threads == 0:
        return _finalize(np.zeros(0, dtype=np.int64), 0, warp_size, 0, num_slots=0)
    steps = segmented_arange(edge_counts)
    vertex_of_item = np.repeat(
        np.arange(num_threads, dtype=np.int64), edge_counts
    )
    warp_of_item = vertex_of_item // warp_size
    max_step = int(edge_counts.max(initial=0))
    slots = warp_of_item * max(max_step, 1) + steps
    # a warp issues as many steps as its largest vertex needs: the SIMT
    # lockstep cost (low-degree lanes idle while the hub lane streams)
    warp_starts = np.arange(0, num_threads, warp_size)
    per_warp_max = np.maximum.reduceat(edge_counts, warp_starts)
    return _finalize(
        slots,
        num_threads,
        warp_size,
        max_steps=max_step,
        num_slots=int(per_warp_max.sum()),
    )


def threads_per_vertex_edges(
    edge_counts: np.ndarray, threads_per_vertex: int, warp_size: int = 32
) -> WorkAssignment:
    """ADWL child kernel: ``threads_per_vertex`` lanes cooperate per vertex.

    Edge *j* of a vertex goes to lane ``j % tpv`` at step ``j // tpv``;
    consecutive edges land on consecutive lanes, so a weight-sorted
    contiguous adjacency segment coalesces perfectly.  ``tpv`` must be a
    multiple of the warp size (the paper uses 32 and 256).
    """
    if threads_per_vertex % warp_size:
        raise ValueError("threads_per_vertex must be a multiple of warp_size")
    edge_counts = np.asarray(edge_counts, dtype=np.int64)
    num_vertices = int(edge_counts.size)
    if num_vertices == 0:
        return _finalize(np.zeros(0, dtype=np.int64), 0, warp_size, 0, num_slots=0)
    tpv = threads_per_vertex
    warps_per_vertex = tpv // warp_size
    j = segmented_arange(edge_counts)
    vertex_of_item = np.repeat(np.arange(num_vertices, dtype=np.int64), edge_counts)
    lane = j % tpv
    step = j // tpv
    warp = vertex_of_item * warps_per_vertex + lane // warp_size
    max_step = int(((edge_counts + tpv - 1) // tpv).max(initial=0))
    slots = warp * max(max_step, 1) + step
    # consecutive 32-edge blocks of one vertex occupy one (warp, step) pair,
    # so a vertex with c edges issues ceil(c / 32) warp instructions
    num_slots = int(((edge_counts + warp_size - 1) // warp_size).sum())
    return _finalize(
        slots,
        num_vertices * tpv,
        warp_size,
        max_steps=max_step,
        num_slots=num_slots,
    )


@lru_cache(maxsize=4096)
def grid_stride(
    num_items: int, num_threads: int, warp_size: int = 32
) -> WorkAssignment:
    """Flat grid-stride loop: item *i* → thread ``i % T``, step ``i // T``.

    The balanced static mapping of the fused phase-2&3 kernel; adjacent
    items sit on adjacent lanes so contiguous-array accesses coalesce.
    Memoized like :func:`thread_per_item` (scalar-keyed, immutable result).
    """
    if num_threads <= 0:
        raise ValueError("num_threads must be positive")
    if num_items == 0:
        return _finalize(
            np.zeros(0, dtype=np.int64), num_threads, warp_size, 0, num_slots=0
        )
    items = np.arange(num_items, dtype=np.int64)
    step, thread = np.divmod(items, num_threads)
    warp = thread // warp_size
    max_step = int((num_items + num_threads - 1) // num_threads)
    slots = warp * max_step + step
    warps = (num_threads + warp_size - 1) // warp_size
    full_steps, remainder = divmod(num_items, num_threads)
    num_slots = full_steps * warps + (remainder + warp_size - 1) // warp_size
    return _finalize(
        slots, num_threads, warp_size, max_steps=max_step, num_slots=num_slots
    )

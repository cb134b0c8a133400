"""One persistent kernel per bucket loop: the shared fusion machinery.

A bucketed engine normally returns to the host after every kernel so the
host can pick the next bucket (or the next near/far threshold).  Under
*bucket fusion* (PriorityGraph, arXiv 1911.07260; MLMQ's persistent drain
kernel, arXiv 2602.10080) the loop instead stays on the device: after
the first host launch, every kernel of the loop is a continuation segment
(:meth:`~repro.gpusim.device.GPUDevice.segment`) that ends in a device
barrier, and the choice the host used to make for free becomes charged
device work handed across the barrier through small device cells:

* before the barrier, the threads holding work fold their contribution
  into the current cell (:func:`publish_grid_min`, :func:`fold_min`,
  :func:`fold_min_filtered`, :func:`publish_count`);
* after it, every block leader reads the cell and runs the decision step,
  and one lane resets the cell the next decision will fold into
  (:func:`controller_step`).

A cell is reset one phase before anything folds into it again, so a
decision made once per barrier cycles through three cells (:data:`RING`).

Four engines run on a chain: RDBS under BASYN (one barrier per bucket:
phase 2&3 of a bucket opens the next bucket and shares the
synchronization window of its phase 1, except where the next window
needs a barrier of its own — an empty next bucket, a PRO offset re-split,
which is a segment of the chain ended by its own barrier, or a
synchronizing epoch), Near-Far (one relax or split segment per barrier),
MLMQ (one barrier per level: the window advance that opens a level shares
the synchronization window of its drain) and ADDS (one barrier per
near-set drain: the far-pile split that opens a drain shares its
synchronization window).  Which minimum fold wins depends on how many
lanes fold into one cell and how many still lower it:

* :func:`publish_grid_min` — a scan over every vertex (RDBS's next-bucket
  scan): thousands of lanes, so a warp butterfly and one atomic per block;
* :func:`fold_min` — one atomic per lane (Near-Far's far hits).  It wins
  when a fold has few lanes and most of them lower the cell: their
  serialized conflicts cost less than the dependent load a filter adds;
* :func:`fold_min_filtered` — a plain read first, an atomic only from
  lanes below the cell.  It wins when many lanes fold into one cell and
  few still lower it, so conflicts dominate.  MLMQ's next-level cell,
  folded by every round of a level's drain, is that case on kron and
  Amazon; on road-TX, with few parked lanes per round, :func:`fold_min`
  would be about 1% faster (docs/mlmq.md has the measurements).  ADDS's
  far-minimum cell, folded by the far hits of every micro-round of a
  drain, is that case on all three quick graphs: with :func:`fold_min`
  there an ADDS solve is 1.8% (road-TX), 1.1% (kron) and 1.8% (Amazon)
  slower.

Counts take one fold: :func:`publish_count`, one warp-aggregated atomic
per warp holding hits (Near-Far's near hits, ADDS's promoted far-pile
vertices).

The relax layer applies the same read-then-atomic test to ``dist``
(:func:`repro.sssp.relax.relax_batch`), but there the lanes spread over
many cells, so whether it pays is decided per batch by width: a batch
filters once its lanes per dependent step reach
:func:`repro.gpusim.timemodel.relax_filter_gate`.  A fold here targets
one cell, so its choice is fixed per call site; the gate does not apply
to these folds, and :func:`fold_min` and :func:`fold_min_filtered` are
unaffected by it.

The chain ends — the next segment is a host launch — wherever the host
must synchronize: a fault-runtime probe or checkpoint, or a rollback
(:meth:`PersistentChain.end`).  The cells carry the cost of a decision,
not its authority: the host decides from its own exact state, so
distances and the launch structure never depend on the cell values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..gpusim.device import GPUDevice, KernelContext, subset_assignment
from ..gpusim.kernels import (
    WorkAssignment,
    thread_per_item,
    threads_per_vertex_edges,
)

__all__ = [
    "BLOCK",
    "RING",
    "PersistentChain",
    "block_leaders",
    "controller_step",
    "fold_min",
    "fold_min_filtered",
    "per_warp",
    "publish_count",
    "publish_grid_min",
    "warp_leaders",
]

#: threads per block of a persistent kernel's grid; each block has one
#: leader lane that publishes and reads the decision cells
BLOCK = 256

#: cells of a decision made once per barrier-delimited segment: the one
#: being folded into, the one being read, and the one being reset
RING = 3

#: warp butterfly (five shuffle + min levels) plus the warp leader's
#: shared-memory atomic
_BUTTERFLY_OPS = 2 * 5 + 1


class PersistentChain:
    """Whether the engine's persistent kernel is resident on the device."""

    def __init__(self, device: GPUDevice) -> None:
        self.device = device
        #: True while the last segment ended inside a live kernel, so the
        #: next one continues it instead of paying a host launch
        self.resident = False

    def segment(self, name: str):
        """The next segment's scope: a continuation, or the chain's launch.

        The chain is resident from here on; an aborted segment leaves it
        to the engine's rollback to call :meth:`end`.
        """
        scope = self.device.segment(name, resume=self.resident)
        self.resident = True
        return scope

    def end(self) -> None:
        """The host synchronized: the next segment starts a new kernel."""
        self.resident = False


@lru_cache(maxsize=64)
def block_leaders(blocks: int) -> WorkAssignment:
    """One leader lane for each of ``blocks`` blocks."""
    return threads_per_vertex_edges(np.ones(blocks, dtype=np.int64), BLOCK)


@lru_cache(maxsize=64)
def warp_leaders(warps: int) -> WorkAssignment:
    """One leader lane for each of ``warps`` warps."""
    return threads_per_vertex_edges(np.ones(warps, dtype=np.int64), 32)


def publish_grid_min(
    k: KernelContext,
    dvals: np.ndarray,
    active: np.ndarray,
    a_scan: WorkAssignment,
    cells,
    cell: int,
) -> WorkAssignment:
    """Fold a grid-stride scan's minimum active value into ``cells[cell]``.

    Each scan thread keeps a running minimum of the active values it read;
    a warp butterfly reduces it, each warp leader folds its warp's minimum
    into a shared-memory cell of its block (one shared atomic: distances
    are non-negative, so their bit patterns order like integers), and the
    block leader loads that cell and folds it into ``cells[cell]`` with
    one global ``atomic_min``.  Returns the block leaders, which read the
    cell back after the barrier (:func:`controller_step`).
    """
    n = dvals.size
    threads = min(n, a_scan.num_threads)
    a_blocks = block_leaders(-(-threads // BLOCK))
    k.alu(a_scan, ops=1)  # running minimum inside the scan loop
    k.alu(thread_per_item(threads), ops=_BUTTERFLY_OPS)
    k.alu(a_blocks, ops=1)  # the block leader loads the shared cell
    # grid-stride item i ran on thread i % T, i.e. in block (i % T) // 256:
    # fold the full grid-stride rows per thread, then the partial last row
    full = n - n % threads
    masked = np.where(active, dvals, np.inf)
    thread_min = masked[:full].reshape(-1, threads).min(axis=0)
    tail = thread_min[: n - full]
    np.minimum(tail, masked[full:], out=tail)
    block_min = np.minimum.reduceat(thread_min, np.arange(0, threads, BLOCK))
    k.atomic_min(cells, np.full(block_min.size, cell, dtype=np.int64),
                 block_min, a_blocks)
    return a_blocks


def fold_min(
    k: KernelContext, values: np.ndarray, a: WorkAssignment, cells, cell: int
) -> None:
    """Each lane folds its register-resident value into ``cells[cell]``.

    The fold for a handful of values spread over a few warps: one
    ``atomic_min`` per lane, whose same-address conflicts the atomic units
    serialize, instead of a warp butterfly whose eleven dependent steps
    would cost every holding warp more than the conflicts it saves.
    """
    if values.size:
        k.atomic_min(cells, np.full(values.size, cell, dtype=np.int64),
                     values, a)


def fold_min_filtered(
    k: KernelContext, values: np.ndarray, a: WorkAssignment, cells, cell: int
) -> None:
    """Each lane reads ``cells[cell]`` and folds its value only if below it.

    Exact by monotonicity: the cell only falls, so the value a lane reads
    is at least the cell's current one, and a lane whose value is not
    below it would not have lowered the cell.  Costs one dependent load
    per fold; saves the atomics (and their same-address conflicts) of
    every lane that no longer lowers the cell.
    """
    if values.size:
        idx = np.full(values.size, cell, dtype=np.int64)
        below = values < k.gather(cells, idx, a)
        if below.all():
            k.atomic_min(cells, idx, values, a)
        elif below.any():
            k.atomic_min(cells, idx[below], values[below],
                         subset_assignment(a, below))


def per_warp(threads: np.ndarray, warp_size: int) -> np.ndarray:
    """Hit count of every warp holding at least one of ``threads``.

    The ``warp_counts`` a :func:`publish_count` takes, from the thread ids
    of the lanes holding hits.
    """
    if threads.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.unique(threads // warp_size, return_counts=True)[1]


def publish_count(
    k: KernelContext, warp_counts: np.ndarray, cells, cell: int
) -> None:
    """Warp-aggregated count: each holding warp adds its tally once.

    ``warp_counts`` holds one positive count per warp that holds hits.
    The warp's lanes already voted on their hits when it classified them,
    so the leader lane takes one population count of that ballot and
    issues one ``atomic_add``.
    """
    if warp_counts.size:
        a_warps = warp_leaders(int(warp_counts.size))
        k.alu(a_warps, ops=1)  # popc of the placement ballot
        k.atomic_add(cells, np.full(warp_counts.size, cell, dtype=np.int64),
                     warp_counts, a_warps)


def controller_step(
    k: KernelContext,
    a_blocks: WorkAssignment,
    cells,
    cell: int,
    *,
    ops: int,
    reset,
) -> None:
    """Read a decision cell after the barrier and reset the previous one.

    Every block's leader reads ``cells[cell]`` and runs the same ``ops``
    dependent decision instructions (one warp's work on the critical path,
    replicated so no block waits for a broadcast); one lane stores
    ``reset`` into the cell before it, which nothing reads or folds into
    until at least one more barrier has passed.
    """
    k.gather(cells, np.full(a_blocks.num_items, cell, dtype=np.int64),
             a_blocks)
    k.alu(a_blocks, ops=ops)
    # one lane stores one cell
    # repro-static: assume-disjoint
    k.scatter(cells, np.array([(cell - 1) % cells.size]), np.array([reset]),
              thread_per_item(1))

"""Shared GPU kernel building blocks for all SSSP variants.

Every GPU algorithm in this library is built from the same three moves:

* :class:`DeviceGraph` — the CSR arrays resident in simulated device
  memory, plus vectorized edge-batch index construction (the address
  arithmetic a CUDA kernel performs with ``row[u] + j``);
* :func:`relax_batch` — the relaxation inner loop of Algorithm 1: gather
  ``dist[u]`` once per active vertex, gather the edge targets and weights,
  compute tentative distances and resolve them with ``atomicMin`` —
  behind a plain ``dist[v]`` test when the batch is wide enough for the
  dropped conflicts to pay for it; and
* :class:`FrontierFlags` — duplicate suppression for the next frontier via
  a device flag array (gather, branch, scatter), the standard GPU worklist
  idiom.

Keeping these in one module guarantees that the baseline, ADDS and RDBS are
compared on identical memory-access accounting — differences between them
come only from *which* edges they touch, *when*, and under *which* thread
mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace

import numpy as np

from ..graphs.csr import CSRGraph
from ..gpusim.device import GPUDevice, KernelContext, subset_assignment
from ..gpusim.kernels import (
    WorkAssignment,
    thread_per_item,
)
from ..gpusim.memory import DeviceArray
from ..gpusim.timemodel import relax_filter_gate
from ..metrics.workstats import WorkStats
from ..util.scan import segmented_arange, sorted_unique_ints
from .persistent import PersistentChain

__all__ = [
    "DeviceGraph",
    "EdgeBatch",
    "RelaxOutcome",
    "relax_batch",
    "FrontierFlags",
]


@dataclass(frozen=True)
class EdgeBatch:
    """A flat batch of edges to relax: one entry per edge."""

    #: flat indices into adj/weights
    edge_idx: np.ndarray
    #: per-edge position into the originating vertex list
    src_pos: np.ndarray
    #: per-vertex edge count (aligned with the vertex list)
    counts: np.ndarray

    @property
    def num_edges(self) -> int:
        """Edges in the batch."""
        return int(self.edge_idx.size)


class DeviceGraph:
    """A CSR graph uploaded to one simulated device.

    The heavy-edge offset column is held *mutable* (unlike the immutable
    host graph) because the bucket-aware engine re-splits light/heavy when
    its dynamic Δ outgrows the preprocessing Δ — "the offset of heavy edges
    can be changed immediately in phase 1 … it can adapt itself to the
    change of Δ value" (§4.1).
    """

    def __init__(self, device: GPUDevice, graph: CSRGraph) -> None:
        self.device = device
        self.graph = graph
        self.row = device.upload(graph.row, "row")
        self.adj = device.upload(graph.adj, "adj")
        self.weights = device.upload(graph.weights, "weights")
        if graph.heavy_offsets is not None:
            self.heavy = device.alloc(graph.heavy_offsets, "heavy_offsets")
            self.split_delta = float(graph.delta)
        else:
            self.heavy = None
            self.split_delta = None
        #: host-side memo of re-split offset arrays per Δ — the bucket-aware
        #: engine revisits the same widened Δ values across buckets/sources,
        #: and the offsets are a pure function of (graph, Δ).  The device
        #: kernel accounting of resplit() is unchanged by a memo hit.
        self._offset_memo: dict[float, np.ndarray] = {}

    def resplit(self, new_delta: float,
                chain: PersistentChain | None = None) -> None:
        """Recompute heavy offsets for ``new_delta`` (one device pass).

        Each vertex binary-searches its weight-sorted segment for the new
        split point and stores the offset — charged as an ALU + store pass
        over all vertices in a small kernel.  Given the ``chain`` of a
        persistent kernel, the pass is that kernel's next segment instead,
        ended by a device barrier: the phase after it reads the offsets.
        """
        if self.heavy is None:
            raise ValueError("graph has no heavy offsets to re-split")
        from ..reorder.heavy_offsets import compute_heavy_offsets
        from ..gpusim.kernels import GRID_THREADS, grid_stride

        n = self.graph.num_vertices
        offsets = self._offset_memo.get(float(new_delta))
        if offsets is None:
            offsets = compute_heavy_offsets(self.graph, new_delta)
            self._offset_memo[float(new_delta)] = offsets
        fused = chain is not None
        # a chain that is not resident starts its kernel with a host launch
        with (chain if fused else PersistentChain(self.device)).segment(
                "resplit_offsets") as k:
            a = grid_stride(n, GRID_THREADS)
            k.gather(self.row, np.arange(n, dtype=np.int64), a)
            k.alu(a, ops=6)  # per-vertex binary search over its segment
            k.scatter(self.heavy, np.arange(n, dtype=np.int64), offsets, a)
            if fused:
                k.device_barrier()
        self.split_delta = float(new_delta)

    # ------------------------------------------------------------------
    # edge-range selection (index arithmetic; charged as ALU by callers)
    # ------------------------------------------------------------------
    def batch(self, vertices: np.ndarray, kind: str = "all") -> EdgeBatch:
        """Build the edge batch for ``vertices``.

        ``kind`` selects ``"all"`` edges, or — when the graph carries
        heavy offsets (PRO) — the contiguous ``"light"`` prefix or
        ``"heavy"`` suffix of each adjacency segment.
        """
        g = self.graph
        vertices = np.asarray(vertices, dtype=np.int64)
        if kind == "all":
            start = g.row[vertices]
            stop = g.row[vertices + 1]
        elif kind == "light":
            if self.heavy is None:
                raise ValueError("light batch requires heavy offsets (PRO)")
            start = g.row[vertices]
            stop = self.heavy.data[vertices]
        elif kind == "heavy":
            if self.heavy is None:
                raise ValueError("heavy batch requires heavy offsets (PRO)")
            start = self.heavy.data[vertices]
            stop = g.row[vertices + 1]
        else:
            raise ValueError(f"unknown edge kind: {kind!r}")
        counts = (stop - start).astype(np.int64)
        edge_idx = np.repeat(start, counts) + segmented_arange(counts)
        src_pos = np.repeat(np.arange(vertices.size, dtype=np.int64), counts)
        return EdgeBatch(edge_idx=edge_idx, src_pos=src_pos, counts=counts)

    def batch_groups(
        self,
        vertices: np.ndarray,
        kind: str,
        groups: list[tuple[np.ndarray, "WorkAssignment"]],
    ) -> list[EdgeBatch]:
        """Per-workload-class edge batches from *one* vectorized pass.

        ``groups`` is the ``(positions, assignment)`` partition produced by
        ADWL classification (:func:`repro.gpusim.dynamic.launch_adaptive`).
        Instead of re-running the row-gather / repeat / segmented-arange
        index construction once per class, the full batch is built once and
        sliced by class membership — element-for-element identical to
        calling :meth:`batch` on each class's vertex list.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(groups) == 1:
            positions, _ = groups[0]
            return [self.batch(vertices[positions], kind)]
        full = self.batch(vertices, kind)
        group_id = np.empty(vertices.size, dtype=np.int64)
        rank = np.empty(vertices.size, dtype=np.int64)
        for gi, (positions, _) in enumerate(groups):
            group_id[positions] = gi
            rank[positions] = np.arange(positions.size, dtype=np.int64)
        edge_gid = group_id[full.src_pos]
        out: list[EdgeBatch] = []
        for gi, (positions, _) in enumerate(groups):
            mask = edge_gid == gi
            out.append(EdgeBatch(
                edge_idx=full.edge_idx[mask],
                src_pos=rank[full.src_pos[mask]],
                counts=full.counts[positions],
            ))
        return out

    def light_counts(self, vertices: np.ndarray) -> np.ndarray:
        """Light-edge count per vertex (requires PRO heavy offsets)."""
        if self.heavy is None:
            raise ValueError("light counts require heavy offsets (PRO)")
        vertices = np.asarray(vertices, dtype=np.int64)
        return (self.heavy.data[vertices] - self.graph.row[vertices]).astype(
            np.int64
        )


@dataclass(frozen=True)
class RelaxOutcome:
    """Result of one :func:`relax_batch` call.

    ``new_dist[i]`` is the tentative distance lane ``i`` computed for
    target ``targets[i]`` — for updated entries, exactly the value its
    ``atomicMin`` wrote (the register-resident result a real kernel
    branches on, so consumers never need an un-counted host read of
    ``dist``).  Lanes the test before the atomic dropped stay in the
    outcome with ``updated=False``.
    """

    #: per-relaxed-edge target vertex
    targets: np.ndarray
    #: mask of atomics that lowered their cell (the paper's "updates")
    updated: np.ndarray
    #: per-edge tentative distance handed to the atomic
    new_dist: np.ndarray
    #: with ``split``: the updated lanes below the threshold (near hits),
    #: then the rest (far hits), each in lane order — the stable placement
    #: of the producer's ballot, as lane indices into the arrays above
    near: np.ndarray | None = None
    far: np.ndarray | None = None


_NO_LANES = np.zeros(0, dtype=np.int64)
_EMPTY_OUTCOME = RelaxOutcome(
    targets=_NO_LANES,
    updated=np.zeros(0, dtype=bool),
    new_dist=np.zeros(0, dtype=np.float64),
)
_EMPTY_SPLIT = _dc_replace(_EMPTY_OUTCOME, near=_NO_LANES, far=_NO_LANES)


def relax_batch(
    ctx: KernelContext,
    dgraph: DeviceGraph,
    dist: DeviceArray,
    vertices: np.ndarray,
    batch: EdgeBatch,
    assignment: WorkAssignment,
    stats: WorkStats | None,
    *,
    weight_filter: tuple[float, bool] | None = None,
    split: float | None = None,
) -> RelaxOutcome:
    """Relax one edge batch under ``assignment``; returns a :class:`RelaxOutcome`.

    Implements Algorithm 1 with full accounting: per-vertex ``dist[u]``
    load, per-edge target/weight loads, the tentative-distance compute, and
    the ``atomicMin`` resolution (plus its check/update classification into
    ``stats``).  A wide batch tests ``dist[v]`` before the atomic (see
    :func:`_resolve_min`); the outcome is the same either way.

    ``weight_filter=(delta, want_light)`` emulates the *unsorted* CSR case
    (no PRO): the kernel touches every edge of the batch, executes a
    divergent branch on ``w < delta`` and only issues atomics for the
    selected class — the extra instructions PRO eliminates.

    ``split=threshold`` places the updated targets near/far on the step
    that resolved their atomic: the new distance is still in a register,
    so the warp ballots ``new_dist >= threshold`` over its updated lanes
    right there (``k.multisplit(..., in_producer=True)``) and the outcome
    carries the stable placement in ``near`` / ``far``.
    """
    if batch.num_edges == 0:
        # the per-vertex dist load still happens for non-empty vertex lists
        if vertices.size:
            a_v = thread_per_item(vertices.size)
            ctx.gather(dist, vertices, a_v)
        return _EMPTY_OUTCOME if split is None else _EMPTY_SPLIT

    # load dist[u] once per active vertex (register-resident thereafter)
    a_v = thread_per_item(vertices.size)
    du = ctx.gather(dist, vertices, a_v)

    v = ctx.gather(dgraph.adj, batch.edge_idx, assignment)
    wt = ctx.gather(dgraph.weights, batch.edge_idx, assignment)
    nd = du[batch.src_pos] + wt
    # address computation + add + compare per edge step
    ctx.alu(assignment, ops=3)

    if weight_filter is not None:
        delta, want_light = weight_filter
        taken = (wt < delta) if want_light else (wt >= delta)
        taken_slots = ctx.branch(assignment, taken)
        assignment = subset_assignment(assignment, taken, taken_slots)
        v, nd = v[taken], nd[taken]

    updated = _resolve_min(ctx, dist, v, nd, assignment)
    if stats is not None:
        stats.record(v, nd, updated)
    if split is None:
        return RelaxOutcome(targets=v, updated=updated, new_dist=nd)
    near = far = np.flatnonzero(updated)
    if near.size:
        order, offs = ctx.multisplit(
            (nd[near] >= split).astype(np.int64), 2,
            subset_assignment(assignment, updated), in_producer=True)
        placed = near[order]
        near, far = placed[: offs[1]], placed[offs[1]:]
    return RelaxOutcome(targets=v, updated=updated, new_dist=nd,
                        near=near, far=far)


def _resolve_min(
    ctx: KernelContext,
    dist: DeviceArray,
    v: np.ndarray,
    nd: np.ndarray,
    a: WorkAssignment,
) -> np.ndarray:
    """``atomicMin(&dist[v], nd)`` per lane; returns the ``updated`` mask.

    A batch of at least :func:`~repro.gpusim.timemodel.relax_filter_gate`
    lanes per dependent step tests before it writes: every lane reads
    ``dist[v]`` and only lanes below their cell issue the atomic.  The
    filter is exact by monotonicity — ``dist`` only falls, so a lane not
    below the value it read would not have lowered the cell — and the
    mask it returns is the plain atomic's, with dropped lanes as checks.
    Narrower batches issue the plain atomic: there the added load and
    compare cost more critical path than the dropped conflicts save.
    """
    gate = relax_filter_gate(ctx.device.spec)
    if a.num_items < gate * max(a.max_steps, 1):
        return ctx.atomic_min(dist, v, nd, a)[1]
    below = nd < ctx.gather(dist, v, a)
    below_slots = ctx.branch(a, below)
    updated = np.zeros(v.size, dtype=bool)
    if below_slots:
        updated[below] = ctx.atomic_min(
            dist, v[below], nd[below], subset_assignment(a, below, below_slots)
        )[1]
    return updated


class FrontierFlags:
    """Iteration-stamped flag array for duplicate-free frontier construction.

    Instead of marking flags with ``1`` and clearing them afterwards — a
    clear that races the neighbouring warps' test-and-set inside the same
    kernel — each frontier round writes the current *round stamp* and a
    flag counts as marked only when it equals the stamp.  One store per
    fresh vertex, no clear pass at all, and the only remaining race is the
    benign same-value stamp write (the idiom real frontier codes use).
    """

    def __init__(self, device: GPUDevice, num_vertices: int) -> None:
        self.device = device
        self.flags = device.zeros(num_vertices, dtype=np.int32, name="frontier_flags")
        self._stamp = 1  # zeroed storage must not read as "marked"

    def new_round(self) -> None:
        """Start the next frontier round: all previous marks turn stale."""
        self._stamp += 1

    def push(
        self,
        ctx: KernelContext,
        targets: np.ndarray,
        assignment: WorkAssignment,
    ) -> np.ndarray:
        """Mark ``targets`` and return the newly marked (deduplicated) ones.

        Models the gather-test-set idiom: load the flag, branch on the
        stamp test, store the stamp for the fresh ones.  The returned
        array is sorted and unique.
        """
        if targets.size == 0:
            return np.zeros(0, dtype=np.int64)
        current = ctx.gather(self.flags, targets, assignment)
        fresh_mask = current != self._stamp
        fresh_slots = ctx.branch(assignment, fresh_mask)
        fresh = sorted_unique_ints(targets[fresh_mask])
        if fresh.size:
            sub = subset_assignment(assignment, fresh_mask, fresh_slots)
            ctx.scatter(
                self.flags,
                targets[fresh_mask],
                np.full(int(fresh_mask.sum()), self._stamp, dtype=np.int32),
                sub,
            )
        return fresh

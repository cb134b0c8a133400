"""ADDS-like asynchronous Δ-stepping baseline (Wang et al., PPoPP'21).

ADDS ("A fast work-efficient SSSP algorithm for GPUs") is the paper's
strongest GPU competitor.  Its published design: asynchronous execution
over a near set and a far pile, Δ adjusted dynamically from runtime
feedback, thread-per-vertex work mapping, and *no* graph reordering — so it
is work-efficient but suffers the irregular memory access and load
imbalance the paper's PRO/ADWL attack ("Wang uses an asynchronous mode and
changes Δ, which … ignores irregular memory access problems").

This is a re-implementation of that design on the same simulated device as
RDBS so the Fig. 9/10 comparisons are like-for-like.  Differences from the
closed-source original are unavoidable; what is preserved (async execution,
work-efficient near/far batching, dynamic Δ, vertex-centric mapping on the
unsorted CSR) is exactly the behaviour the paper's comparison attributes to
ADDS.

The loop runs as one persistent kernel (:mod:`repro.sssp.persistent`):
only the first ``adds_async`` drain is a host launch, and every later
drain and far-pile split is a continuation segment.  Each drain ends in
one device barrier; the split after it shares the next drain's
synchronization window, so there is one barrier per threshold (the
initial Δ and each advance).  That is exact by monotonicity: a vertex the
drain lowers below the new threshold is pushed to the near set by the
drain's own placement.  The choices the host used to make between
launches are charged device work: far-hit lanes fold their new distances
into a far-minimum cell (:func:`~repro.sssp.persistent.fold_min_filtered`),
the split's block leaders read it to advance the threshold
(:func:`~repro.sssp.persistent.controller_step`), and the promoted count
that drives the Δ feedback is a warp-aggregated
:func:`~repro.sssp.persistent.publish_count`, read by the block leaders
after the barrier of the drain that follows.  The host still decides
from its exact mirrors.  The chain ends where the host synchronizes: a
fault-runtime probe or checkpoint, or a rollback.
"""

from __future__ import annotations

import numpy as np

from ..faults.plan import InjectedKernelAbort
from ..graphs.csr import CSRGraph
from ..gpusim.kernels import grid_stride, thread_per_item, thread_per_vertex_edges
from ..gpusim.spec import GPUSpec, V100
from ..util.scan import sorted_unique_ints
from .engine import GPUSolve
from .errors import ConvergenceError
from .gpu_rdbs import check_delta
from .persistent import (
    BLOCK,
    RING,
    PersistentChain,
    block_leaders,
    controller_step,
    fold_min_filtered,
    per_warp,
    publish_count,
)
from .relax import relax_batch
from .result import SSSPResult
from .worklist import SlotPool

__all__ = ["adds_sssp"]

_SCAN_THREADS = 32 * 256
#: near-set vertices processed per asynchronous micro-round
_CHUNK = 2048

#: dependent instructions of the threshold advance a block leader runs in
#: a split: both candidate thresholds and their maximum
THRESHOLD_OPS = 3

#: dependent instructions of the Δ feedback a block leader runs after a
#: drain's barrier: the two tests against the target band, the scaled
#: width and its clamp
DELTA_OPS = 4


def adds_sssp(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    spec: GPUSpec = V100,
    max_steps: int = 10_000_000,
    recovery=None,
) -> SSSPResult:
    """Run the ADDS-like asynchronous baseline on a simulated GPU."""
    delta = check_delta(delta, graph)
    solve = GPUSolve(graph, source, "adds", spec=spec, recovery=recovery)
    device, dgraph, dist = solve.device, solve.dgraph, solve.dist
    runtime = solve.runtime
    n = graph.num_vertices

    threshold = delta
    cur_delta = delta
    near: list[np.ndarray] = [np.array([solve.src], dtype=np.int64)]
    in_near = np.zeros(n, dtype=bool)
    in_near[solve.src] = True
    far_mask = np.zeros(n, dtype=bool)
    # device-resident near worklist and far pile (repro.sssp.worklist)
    near_pool = SlotPool(device, max(graph.num_edges, 1), "near_slots")
    far_pool = SlotPool(device, max(graph.num_edges, 1), "far_slots")
    counters = {"steps": 0, "rounds": 0}
    # dynamic-Δ feedback: aim to keep a near set around the device's
    # resident-warp parallelism (ADDS's utilization-driven adjustment)
    target = spec.resident_warps

    chain = PersistentChain(device)
    #: far-hit lanes fold their new distances into ``far_min[cell]``
    #: during a drain, and the next split's block leaders read it to
    #: advance the threshold.  The cell prices the advance; the host takes
    #: the exact minimum over the whole far pile
    far_min = device.full(RING, np.inf, name="adds_far_min")
    #: each split's promoting warps add their tally to ``promoted[cell]``;
    #: the block leaders read it for the Δ feedback after the barrier of
    #: the drain the split opened
    promoted = device.zeros(RING, dtype=np.int64, name="adds_promoted")
    cell = 0

    while near or far_mask.any():
        if runtime is not None and runtime.epoch(
                sum(int(c.size) for c in near)):
            chain.end()
        if not near:
            candidates = np.flatnonzero(far_mask)
            if candidates.size == 0:
                break
            min_far = float(dist.data[candidates].min())
            threshold = max(threshold + cur_delta, min_far + cur_delta)
            try:
                with chain.segment("adds_split") as k:
                    a = grid_stride(candidates.size, _SCAN_THREADS)
                    a_blocks = block_leaders(
                        -(-min(candidates.size, _SCAN_THREADS) // BLOCK))
                    # every block leader advances the threshold past the
                    # far minimum the last drain folded
                    controller_step(k, a_blocks, far_min, cell,
                                    ops=THRESHOLD_OPS, reset=np.inf)
                    dvals = k.gather(dist, candidates, a)
                    # one ballot round partitions near/far; the stable
                    # bucket order is the candidates' original order
                    keys = (dvals >= threshold).astype(np.int64)
                    order, offs = k.multisplit(keys, 2, a)
                    lanes = order[: offs[1]]
                    promote = candidates[lanes]
                    # grid-stride item i runs on thread i % T
                    publish_count(
                        k, per_warp(lanes % a.num_threads,
                                    device.spec.warp_size),
                        promoted, cell)
                    if promote.size == 0:
                        # no drain follows to order this split before the
                        # next one
                        k.device_barrier()
            except InjectedKernelAbort as exc:
                near = _adds_reseed(solve, exc, chain, in_near, far_mask)
                continue
            cell = (cell + 1) % RING
            far_mask[promote] = False
            in_near[promote] = True
            if device.handlers("on_annotate"):
                device.annotate(
                    "adds_split", threshold=threshold, delta=cur_delta,
                    promoted=int(promote.size),
                    far_remaining=int(candidates.size - promote.size),
                )
            if promote.size:
                near.append(promote)
            # Δ feedback: grow Δ when batches under-fill the device,
            # shrink when they flood it (work efficiency).  ADDS adjusts Δ
            # within a bounded range around its initial guess; unbounded
            # growth would degenerate to Bellman-Ford
            if promote.size < target // 2:
                cur_delta = min(cur_delta * 1.25, delta * 16.0)
            elif promote.size > target * 8:
                cur_delta = max(cur_delta / 1.25, delta)
            continue

        # ---- asynchronous near-set processing: one drain segment ----
        try:
            with chain.segment("adds_async") as k:
                _adds_async(
                    k, dgraph, dist, near, in_near, far_mask,
                    near_pool, far_pool, solve.stats, threshold,
                    max_steps, cur_delta, counters, far_min, cell,
                )
                k.device_barrier()
                # every block leader applies the Δ feedback of the split
                # that opened this drain
                controller_step(k, block_leaders(-(-_CHUNK // BLOCK)),
                                promoted, (cell - 1) % RING, ops=DELTA_OPS,
                                reset=0)
        except ConvergenceError as exc:
            solve.give_up(exc)
            break
        except InjectedKernelAbort as exc:
            near = _adds_reseed(solve, exc, chain, in_near, far_mask)
            continue

    return solve.result({
        "rounds": counters["rounds"], "delta0": delta,
        "final_delta": cur_delta})


def _adds_async(
    k, dgraph, dist, near, in_near, far_mask,
    near_pool, far_pool, stats, threshold, max_steps, cur_delta, counters,
    far_min, cell,
):
    """Drain the near worklist: one segment of the persistent kernel.

    Worklist insertions are dense coalesced appends into ``near_pool`` /
    ``far_pool``; the far-hit lanes fold their new distances into
    ``far_min[cell]`` for the next split.
    """
    # per-round telemetry is host-only and gated on an attached observer
    note_rounds = bool(k.device.handlers("on_annotate"))
    while near:
        counters["steps"] += 1
        if counters["steps"] > max_steps:
            raise ConvergenceError(
                "ADDS step limit exceeded",
                method="adds", iterations=counters["steps"] - 1,
                frontier=sum(int(c.size) for c in near), delta=cur_delta,
            )
        chunk = near.pop(0)
        if chunk.size > _CHUNK:
            near.insert(0, chunk[_CHUNK:])
            chunk = chunk[:_CHUNK]
        in_near[chunk] = False
        counters["rounds"] += 1
        if note_rounds:
            k.device.annotate(
                "adds_round", round=counters["rounds"],
                drained=int(chunk.size),
                near_pending=int(sum(part.size for part in near)),
            )

        batch = dgraph.batch(chunk, "all")
        a = thread_per_vertex_edges(batch.counts)
        # the producer places its updated targets near/far on the value
        # the winning atomic wrote (register resident)
        out = relax_batch(k, dgraph, dist, chunk, batch, a, stats,
                          split=threshold)
        k.async_round()
        if out.near.size + out.far.size == 0:
            continue
        near_hits = out.targets[out.near]
        far_hits = out.targets[out.far]
        # the far hits' minimum, one lane per far hit of the placement's
        # contiguous far half
        far_vals = out.new_dist[out.far]
        fold_min_filtered(k, far_vals, thread_per_item(int(far_vals.size)),
                          far_min, cell)

        fresh = sorted_unique_ints(near_hits)
        fresh = fresh[~in_near[fresh]]
        if fresh.size:
            in_near[fresh] = True
            far_mask[fresh] = False
            near.append(fresh)
            near_pool.store(k, fresh)
        far_new = sorted_unique_ints(far_hits)
        far_new = far_new[~in_near[far_new]]
        if far_new.size:
            far_mask[far_new] = True
            far_pool.store(k, far_new)


def _adds_reseed(solve, exc, chain, in_near, far_mask):
    """Roll back after an aborted kernel and rebuild the near worklist.

    The rollback is a host synchronization, so it ends the persistent
    kernel: the next segment is a host launch.

    Every finite vertex of the restored checkpoint re-enters the near set;
    re-relaxing settled vertices costs extra work but cannot change a
    correct distance.
    """
    fin = solve.on_abort(exc)
    chain.end()
    in_near[:] = False
    in_near[fin] = True
    far_mask[:] = False
    return [fin] if fin.size else []

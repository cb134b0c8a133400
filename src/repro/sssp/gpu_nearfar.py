"""Near-Far Δ-stepping (Davidson et al., IPDPS'14) — the 2-bucket baseline.

The paper positions Near-Far as the historical middle ground: "It only uses
two buckets named Near and Far, and executes SSSP search in synchronous
mode, leading to work inefficiency."  The algorithm keeps a moving
threshold; relaxations whose result lands below the threshold go to the
*near* pile (processed now), the rest to the *far* pile (reconsidered after
the threshold advances by Δ).  Included as an additional baseline for the
ablation benchmarks.

The loop runs as one persistent kernel (:mod:`repro.sssp.persistent`):
after the first host launch, every ``nearfar_relax`` and ``nearfar_split``
is a continuation segment that ends in a device barrier, and the two
choices the host used to make between launches are charged device work
sized to the warps that hold hits — the near-pile-empty test (a
warp-aggregated count) and the threshold advance (the far-hit lanes fold
their values into a far-minimum cell that the block leaders read when the
near pile runs dry).  The chain ends only where the host synchronizes: a
fault-runtime probe or checkpoint, or a rollback.
"""

from __future__ import annotations

import numpy as np

from ..faults.plan import InjectedKernelAbort
from ..graphs.csr import CSRGraph
from ..gpusim.kernels import grid_stride, thread_per_item, thread_per_vertex_edges
from ..gpusim.spec import GPUSpec, V100
from .engine import GPUSolve
from .errors import ConvergenceError
from .gpu_rdbs import check_delta
from .persistent import (
    BLOCK,
    RING,
    PersistentChain,
    block_leaders,
    controller_step,
    fold_min,
    per_warp,
    publish_count,
)
from .relax import relax_batch
from .result import SSSPResult

__all__ = ["nearfar_sssp"]

_SCAN_THREADS = 32 * 256

#: dependent instructions of the threshold advance a block leader runs on
#: an empty near pile: both candidate thresholds and their maximum, then
#: the grid cell holding it (divide, floor, multiply) and its two clamps
THRESHOLD_OPS = 8


def nearfar_sssp(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    spec: GPUSpec = V100,
    max_iterations: int = 10_000_000,
    recovery=None,
) -> SSSPResult:
    """Run synchronous Near-Far on a simulated GPU."""
    delta = check_delta(delta, graph)
    solve = GPUSolve(graph, source, "near-far", spec=spec, recovery=recovery)
    device, dgraph, dist = solve.device, solve.dgraph, solve.dist
    runtime = solve.runtime
    n = graph.num_vertices

    threshold = delta
    near = np.array([solve.src], dtype=np.int64)
    far_mask = np.zeros(n, dtype=bool)
    # windowed far pile: the host mirrors each far vertex's latest inserted
    # distance — exactly the register-resident value the winning atomic
    # wrote, so ``far_val[v] == dist[v]`` for every far member — and
    # buckets it on the absolute Δ-grid.  Threshold advances then promote
    # every full window below the grid cell holding the threshold
    # wholesale; only the straddling boundary window needs the counted
    # gather-and-ballot split.
    far_val = np.full(n, np.inf)
    iterations = 0

    chain = PersistentChain(device)
    #: near-pile-empty test: each relax segment's near-hit warps add their
    #: tally to ``near_count[cell]``, read back after its barrier
    near_count = device.zeros(RING, dtype=np.int64, name="near_count")
    cell = 0
    #: far-hit lanes fold their values into ``far_min[far_cell]`` until the
    #: next threshold advance reads it.  The cell prices the advance; the
    #: host takes the exact minimum over the whole far pile, entries from
    #: before the last advance included
    far_min = device.full(RING, np.inf, name="far_min")
    far_cell = 0

    while near.size or far_mask.any():
        if near.size == 0:
            # advance the threshold (decided on the device at the end of
            # the relax segment that emptied the near pile) and split the
            # far pile
            candidates = np.flatnonzero(far_mask)
            finite = candidates[np.isfinite(dist.data[candidates])]
            if finite.size == 0:
                break
            min_far = float(dist.data[finite].min())
            threshold = max(threshold + delta, min_far + delta)
            vals = far_val[candidates]
            # grid cell holding the threshold, clamped so float rounding
            # can never misplace the promote boundary
            grid_lo = min(float(np.floor(threshold / delta) * delta),
                          threshold)
            grid_hi = max(grid_lo + delta, threshold)
            full = candidates[vals < grid_lo]
            boundary = candidates[(vals >= grid_lo) & (vals < grid_hi)]
            promote_b = np.zeros(0, dtype=np.int64)
            if boundary.size:
                try:
                    with chain.segment("nearfar_split") as k:
                        a = grid_stride(boundary.size, _SCAN_THREADS)
                        dvals = k.gather(dist, boundary, a)
                        keys = (dvals >= threshold).astype(np.int64)
                        order, offs = k.multisplit(keys, 2, a)
                        promote_b = boundary[order[: offs[1]]]
                        k.device_barrier()
                except InjectedKernelAbort as exc:
                    near, far_mask = _nearfar_reseed(
                        solve, exc, chain, far_mask, far_val, dist)
                    continue
            promote = np.union1d(full, promote_b)
            far_val[promote] = np.inf
            far_mask[promote] = False
            near = promote
            continue

        iterations += 1
        if iterations > max_iterations:
            solve.give_up(ConvergenceError(
                "near-far iteration limit exceeded",
                method="near-far", iterations=iterations - 1,
                frontier=int(near.size), delta=delta,
            ))
            break
        if runtime is not None and runtime.epoch(int(near.size)):
            chain.end()
        try:
            with chain.segment("nearfar_relax") as k:
                batch = dgraph.batch(near, "all")
                a = thread_per_vertex_edges(batch.counts)
                # the producer places its updated targets near/far on the
                # value the winning atomic wrote (register resident)
                out = relax_batch(k, dgraph, dist, near, batch, a,
                                  solve.stats, split=threshold)
                near_hits = out.targets[out.near]
                far_hits = out.targets[out.far]
                far_hit_vals = out.new_dist[out.far]
                # the next choice, folded by the warps holding hits: near
                # hits per warp (thread t relaxes near[t]) ...
                publish_count(
                    k, per_warp(batch.src_pos[out.near],
                                device.spec.warp_size),
                    near_count, cell)
                # ... and the far hits' minimum, one lane per far hit of
                # the placement's contiguous far half
                fold_min(k, far_hit_vals,
                         thread_per_item(int(far_hit_vals.size)),
                         far_min, far_cell)
                k.device_barrier()
                # every block leader reads the near count; on an empty
                # near pile it also reads the far minimum and advances the
                # threshold
                a_blocks = block_leaders(-(-int(near.size) // BLOCK))
                controller_step(k, a_blocks, near_count, cell, ops=1,
                                reset=0)
                cell = (cell + 1) % RING
                if near_hits.size == 0:
                    controller_step(k, a_blocks, far_min, far_cell,
                                    ops=THRESHOLD_OPS, reset=np.inf)
                    far_cell = (far_cell + 1) % RING
        except InjectedKernelAbort as exc:
            near, far_mask = _nearfar_reseed(
                solve, exc, chain, far_mask, far_val, dist)
            continue

        near_next = np.unique(near_hits)
        far_new = np.unique(far_hits)
        far_mask[far_new] = True
        # a vertex pulled below the threshold leaves the far pile
        far_mask[near_next] = False
        # duplicate targets take the per-target minimum — the value the
        # cell holds after the round's atomics
        np.minimum.at(far_val, far_hits, far_hit_vals)
        far_val[near_next] = np.inf
        near = near_next

    return solve.result({"iterations": iterations, "delta": delta})


def _nearfar_reseed(solve, exc, chain, far_mask, far_val, dist):
    """Roll back after an aborted kernel and rebuild the worklist.

    The rollback is a host synchronization, so it ends the persistent
    kernel: the next segment is a host launch.

    Every finite vertex of the restored checkpoint goes to the far pile;
    the next threshold advance re-promotes whatever still needs work.
    Re-relaxing already-settled vertices costs extra work but cannot
    change a correct distance.  The far pile's value mirror is rebuilt
    from the restored checkpoint's distances.
    """
    fin = solve.on_abort(exc)
    chain.end()
    far_mask[:] = False
    far_mask[fin] = True
    far_val[:] = np.inf
    far_val[fin] = dist.data[fin]
    return np.zeros(0, dtype=np.int64), far_mask

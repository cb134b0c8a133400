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
near pile runs dry).  The far pile is the host's one
:class:`~repro.sssp.worklist.FarPile`, and the chain is the solve's own
(:class:`~repro.sssp.engine.GPUSolve`): it ends only where the host
synchronizes, at a fault-runtime probe or checkpoint, or a rollback.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..gpusim.kernels import (
    GRID_THREADS, grid_stride, thread_per_item, thread_per_vertex_edges)
from ..gpusim.spec import GPUSpec, V100
from .engine import ABORTS, GPUSolve
from .errors import ConvergenceError
from .gpu_rdbs import check_delta
from .persistent import (
    BLOCK,
    RING,
    block_leaders,
    controller_step,
    fold_min,
    per_warp,
    publish_count,
)
from .relax import relax_batch
from .result import SSSPResult
from .worklist import FarPile

__all__ = ["nearfar_sssp"]

#: relax iterations before the loop gives up (a guard no sane input trips)
MAX_ITERATIONS = 10_000_000

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
    recovery: bool = False,
) -> SSSPResult:
    """Run synchronous Near-Far on a simulated GPU."""
    delta = check_delta(delta, graph)
    solve = GPUSolve(graph, source, "near-far", spec=spec, recovery=recovery)
    device, dgraph, dist, chain = (
        solve.device, solve.dgraph, solve.dist, solve.chain)

    threshold = delta
    near = np.array([solve.src], dtype=np.int64)
    # windowed far pile, bucketed on the absolute Δ-grid: threshold
    # advances promote every full window below the grid cell holding the
    # threshold wholesale; only the straddling boundary window needs the
    # counted gather-and-ballot split
    far = FarPile(graph.num_vertices)
    iterations = 0

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

    while near.size or far:
        try:
            if near.size == 0:
                # advance the threshold (decided on the device at the end
                # of the relax segment that emptied the near pile) and
                # split the far pile
                threshold = max(threshold + delta, far.min() + delta)
                # grid cell holding the threshold, clamped so float
                # rounding can never misplace the promote boundary
                grid_lo = min(float(np.floor(threshold / delta) * delta),
                              threshold)
                grid_hi = max(grid_lo + delta, threshold)
                full = np.flatnonzero(far.val < grid_lo)
                boundary = np.flatnonzero((far.val >= grid_lo)
                                          & (far.val < grid_hi))
                promote_b = np.zeros(0, dtype=np.int64)
                if boundary.size:
                    with chain.segment("nearfar_split") as k:
                        a = grid_stride(boundary.size, GRID_THREADS)
                        dvals = k.gather(dist, boundary, a)
                        keys = (dvals >= threshold).astype(np.int64)
                        order, offs = k.multisplit(keys, 2, a)
                        promote_b = boundary[order[: offs[1]]]
                        k.device_barrier()
                promote = np.union1d(full, promote_b)
                far.leave(promote)
                near = promote
                continue

            iterations = solve.tick(
                iterations, MAX_ITERATIONS,
                "near-far iteration limit exceeded",
                lambda: int(near.size), delta)
            solve.epoch(lambda: int(near.size))
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
        except ConvergenceError as exc:
            solve.give_up(exc)
            break
        except ABORTS as exc:
            # every finite vertex of the restored checkpoint goes to the
            # far pile at its restored distance; the next threshold
            # advance re-promotes whatever still needs work
            fin = solve.on_abort(exc)
            far.refill(fin, dist.data[fin])
            near = np.zeros(0, dtype=np.int64)
            continue

        near_next = np.unique(near_hits)
        far.park(far_hits, far_hit_vals)
        # a vertex pulled below the threshold leaves the far pile
        far.leave(near_next)
        near = near_next

    return solve.result({"iterations": iterations, "delta": delta})

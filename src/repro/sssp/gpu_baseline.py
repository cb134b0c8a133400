"""BL: the synchronous push-mode GPU baseline (§5.2.1).

"We choose a synchronization SSSP algorithm based on push mode as baseline
(BL), which uses the static load balancing strategy."  This is the
Harish–Narayanan-style frontier Bellman-Ford every GPU graph framework
started from: one thread per active vertex, all out-edges relaxed each
iteration, a device-wide barrier between iterations, and no bucketing —
maximally parallel, maximally work-inefficient, and badly load-imbalanced
on power-law frontiers (the warp processing a hub vertex serializes over
its whole adjacency list while 31 lanes idle).
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..gpusim.device import subset_assignment
from ..gpusim.kernels import thread_per_vertex_edges
from ..gpusim.spec import GPUSpec, V100
from .engine import ABORTS, GPUSolve
from .errors import ConvergenceError
from .relax import FrontierFlags, relax_batch
from .result import SSSPResult

__all__ = ["bl_sssp"]

#: iterations past ``n`` the loop runs before it gives up: a frontier
#: survives at most ``n`` rounds, so no sane input reaches the bound
ITERATION_SLACK = 2


def bl_sssp(
    graph: CSRGraph,
    source: int,
    *,
    spec: GPUSpec = V100,
    recovery: bool = False,
) -> SSSPResult:
    """Run the synchronous push-mode baseline on a simulated GPU.

    The iterations are bounded by ``n +`` :data:`ITERATION_SLACK`.
    Tripping the bound raises :class:`~repro.sssp.errors.ConvergenceError`
    (or breaks to the repair sweeps when ``recovery`` is on).
    """
    solve = GPUSolve(graph, source, "bl", spec=spec, recovery=recovery)
    device, dgraph, dist = solve.device, solve.dgraph, solve.dist
    flags = FrontierFlags(device, graph.num_vertices)
    limit = graph.num_vertices + ITERATION_SLACK

    frontier = np.array([solve.src], dtype=np.int64)
    iterations = 0
    # per-iteration telemetry is host-only and gated on an attached observer
    note_rounds = bool(device.handlers("on_annotate"))
    while frontier.size:
        try:
            iterations = solve.tick(iterations, limit,
                                    "iteration limit exceeded",
                                    lambda: int(frontier.size))
            if note_rounds:
                device.annotate("bl_round", iteration=iterations,
                                frontier=int(frontier.size))
            solve.epoch(lambda: int(frontier.size))
            flags.new_round()
            with device.launch("bl_relax") as k:
                batch = dgraph.batch(frontier, "all")
                # static load balancing: one thread per active vertex
                a = thread_per_vertex_edges(batch.counts)
                out = relax_batch(
                    k, dgraph, dist, frontier, batch, a, solve.stats
                )
                if out.targets.size:
                    sub = subset_assignment(a, out.updated)
                    next_frontier = flags.push(
                        k, out.targets[out.updated], sub
                    )
                else:
                    next_frontier = np.zeros(0, dtype=np.int64)
        except ConvergenceError as exc:
            solve.give_up(exc)
            break
        except ABORTS as exc:
            frontier = solve.on_abort(exc)
            continue
        device.barrier()  # synchronous mode: barrier every iteration
        frontier = next_frontier

    return solve.result({"iterations": iterations})

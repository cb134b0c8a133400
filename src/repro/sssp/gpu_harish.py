"""Harish–Narayanan (HiPC 2007): the original topology-driven GPU SSSP.

The first GPU SSSP the paper's related work cites: "Initially, Harish and
Narayanan implement the SSSP algorithm on GPU using the CUDA model.  It
takes advantage of the parallel resources of GPU.  Based on synchronous
push mode, the work efficiency and memory efficiency of this work are
poor" (§1).

The design is *topology-driven*: there is no frontier queue at all — every
iteration launches a thread for **every vertex**, each checks a per-vertex
mask, relaxes its out-edges if marked, and marks its updated neighbours;
iterate until no mask is set.  Memory-inefficient (the whole mask and
distance array are re-read every iteration) and divergence-heavy (most
threads find their mask unset and idle), which is exactly why the
frontier-based BL baseline superseded it.  Included as the historical
datum for the ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..gpusim.device import subset_assignment
from ..gpusim.kernels import thread_per_item, thread_per_vertex_edges
from ..gpusim.spec import GPUSpec, V100
from .engine import ABORTS, GPUSolve
from .errors import ConvergenceError
from .relax import relax_batch
from .result import SSSPResult

__all__ = ["harish_narayanan_sssp"]

#: iterations past ``n`` the loop runs before it gives up, as for
#: :data:`repro.sssp.gpu_baseline.ITERATION_SLACK`
ITERATION_SLACK = 2


def harish_narayanan_sssp(
    graph: CSRGraph,
    source: int,
    *,
    spec: GPUSpec = V100,
    recovery: bool = False,
) -> SSSPResult:
    """Run the topology-driven 2007 baseline on a simulated GPU.

    The iterations are bounded by ``n +`` :data:`ITERATION_SLACK`, as for
    :func:`~repro.sssp.gpu_baseline.bl_sssp`: tripping the bound raises
    :class:`~repro.sssp.errors.ConvergenceError` (or breaks to the repair
    sweeps when ``recovery`` is on).
    """
    solve = GPUSolve(
        graph, source, "harish-narayanan", spec=spec, recovery=recovery
    )
    device, dgraph, dist = solve.device, solve.dgraph, solve.dist
    n = graph.num_vertices
    mask = device.zeros(n, dtype=np.int8, name="mask")
    device.host_store(mask, solve.src, np.int8(1))
    limit = n + ITERATION_SLACK

    all_vertices = np.arange(n, dtype=np.int64)
    iterations = 0
    while True:
        try:
            iterations = solve.tick(iterations, limit,
                                    "iteration limit exceeded",
                                    lambda: int(mask.data.sum()))
            active = np.flatnonzero(mask.data)
            if active.size == 0:
                break
            solve.epoch(lambda: int(active.size))
            with device.launch("hn_relax") as k:
                # every vertex gets a thread and reads its mask (the
                # topology-driven overhead: n loads per iteration)
                a_all = thread_per_item(n)
                flags = k.gather(mask, all_vertices, a_all)
                marked_slots = k.branch(a_all, flags != 0)
                # marked vertices clear their mask and relax all out-edges
                sub = subset_assignment(a_all, flags != 0, marked_slots)
                k.scatter(
                    mask, active, np.zeros(active.size, dtype=np.int8), sub
                )
                batch = dgraph.batch(active, "all")
                a = thread_per_vertex_edges(batch.counts)
                out = relax_batch(
                    k, dgraph, dist, active, batch, a, solve.stats
                )
                if out.targets.size and out.updated.any():
                    # the original uses two kernels (relax into an
                    # updating-cost array, then commit) precisely because
                    # re-marking races the mask clear above; model that
                    # split with a device-wide sync
                    k.device_barrier()
                    sub_u = subset_assignment(a, out.updated)
                    k.scatter(
                        mask,
                        out.targets[out.updated],
                        np.ones(int(out.updated.sum()), dtype=np.int8),
                        sub_u,
                    )
        except ConvergenceError as exc:
            solve.give_up(exc)
            break
        except ABORTS as exc:
            # the mask array is not checkpointed; conservatively re-mark
            # every finite vertex so no relaxation is lost
            fin = solve.on_abort(exc)
            device.host_store(
                mask, all_vertices, np.zeros(n, dtype=np.int8)
            )
            device.host_store(mask, fin, np.ones(fin.size, dtype=np.int8))
            continue
        device.barrier()

    return solve.result({"iterations": iterations})

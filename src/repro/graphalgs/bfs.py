"""Breadth-first search on the simulated GPU.

The paper's conclusion aims at "a high-performance graph processing
framework"; BFS is the first kernel any such framework grows beyond SSSP
(and the Graph500 benchmark's first kernel).  This implementation reuses
the exact same substrate as the SSSP family — frontier flags, vertex-
centric or adaptive mappings, counted memory traffic — so its measurements
are directly comparable.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..gpusim.device import GPUDevice, subset_assignment
from ..gpusim.dynamic import launch_adaptive
from ..gpusim.kernels import thread_per_item, thread_per_vertex_edges
from ..gpusim.spec import GPUSpec, V100
from ..sssp.relax import DeviceGraph, FrontierFlags
from ..sssp.result import SSSPResult

__all__ = ["bfs_gpu"]


def bfs_gpu(
    graph: CSRGraph,
    source: int,
    *,
    spec: GPUSpec = V100,
    adaptive: bool = True,
) -> SSSPResult:
    """Level-synchronous BFS; returns hop counts in ``SSSPResult.dist``.

    ``adaptive=True`` uses the ADWL-style workload classification for the
    frontier expansion (the paper's load balancing applied to BFS);
    ``False`` uses plain thread-per-vertex.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")

    device = GPUDevice(spec)
    dgraph = DeviceGraph(device, graph)
    level = device.full(n, np.inf, name="level")
    device.host_store(level, source, 0.0)
    flags = FrontierFlags(device, n)

    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        flags.new_round()
        with device.launch("bfs_expand") as k:
            batch = dgraph.batch(frontier, "all")
            if adaptive:
                a_cls = thread_per_item(frontier.size)
                k.alu(a_cls, ops=2)
                groups = launch_adaptive(k, batch.counts)
            else:
                groups = [
                    (np.arange(frontier.size), thread_per_vertex_edges(batch.counts))
                ]
            next_parts: list[np.ndarray] = []
            for positions, assignment in groups:
                vs = frontier[positions]
                sub_batch = dgraph.batch(vs, "all")
                v = k.gather(dgraph.adj, sub_batch.edge_idx, assignment)
                lv = k.gather(level, v, assignment)
                unvisited = ~np.isfinite(lv)
                unvisited_slots = k.branch(assignment, unvisited)
                if unvisited_slots:
                    sub = subset_assignment(
                        assignment, unvisited, unvisited_slots
                    )
                    k.scatter(
                        level,
                        v[unvisited],
                        np.full(int(unvisited.sum()), float(depth)),
                        sub,
                    )
                    fresh = flags.push(k, v[unvisited], sub)
                    next_parts.append(fresh)
            next_frontier = (
                np.unique(np.concatenate(next_parts))
                if next_parts
                else np.zeros(0, dtype=np.int64)
            )
        device.barrier()
        frontier = next_frontier

    return SSSPResult(
        dist=level.data.copy(),
        source=source,
        method="bfs-gpu" + ("" if adaptive else "-static"),
        graph_name=graph.name,
        time_ms=device.elapsed_ms,
        counters=device.counters,
        num_edges=graph.num_edges,
        # the loop always ends with one empty expansion round, so the
        # source's eccentricity is depth - 1
        extra={"timeline": device.timeline, "depth": depth - 1},
    )

"""Reference CPU algorithms: Dijkstra and Bellman-Ford (§2.1).

These are the textbook algorithms the paper's Background section builds on.
:func:`dijkstra` (binary-heap, lazy deletion) is the work-efficient serial
reference; :func:`bellman_ford` is the parallel-friendly but work-inefficient
frontier algorithm every GPU push-mode implementation descends from.  Both
serve as ground truth for the test suite and as teaching examples; the
benchmarks validate against the (much faster) SciPy implementation in
:mod:`repro.sssp.validate`.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graphs.csr import CSRGraph
from ..util.scan import segmented_arange
from .result import SSSPResult

__all__ = ["dijkstra", "bellman_ford"]

#: rounds :func:`bellman_ford` runs before it stops early; ``None`` runs
#: to the fixpoint (within ``n - 1`` rounds for non-negative weights)
MAX_ROUNDS: int | None = None


def dijkstra(graph: CSRGraph, source: int) -> SSSPResult:
    """Serial Dijkstra with a binary heap and lazy deletion.

    Each vertex is settled exactly once ("each vertex is updated at most
    once, which indicates Dijkstra's algorithm is work efficient"), making
    this the canonical correctness oracle.
    """
    n = graph.num_vertices
    _check_source(n, source)
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    settled = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = [(0.0, source)]
    row, adj, w = graph.row, graph.adj, graph.weights
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        for e in range(row[u], row[u + 1]):
            v = int(adj[e])
            nd = d + w[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return SSSPResult(
        dist=dist,
        source=source,
        method="dijkstra",
        graph_name=graph.name,
        num_edges=graph.num_edges,
    )


def bellman_ford(graph: CSRGraph, source: int) -> SSSPResult:
    """Frontier-based Bellman-Ford (vectorized CPU).

    Relaxes all out-edges of the active frontier each round until no
    distance changes.  With non-negative weights it always terminates within
    ``n - 1`` rounds; :data:`MAX_ROUNDS` is a safety valve for tests.
    """
    n = graph.num_vertices
    _check_source(n, source)
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    row, adj, w = graph.row, graph.adj, graph.weights
    rounds = 0
    while frontier.size:
        rounds += 1
        if MAX_ROUNDS is not None and rounds > MAX_ROUNDS:
            break
        counts = (row[frontier + 1] - row[frontier]).astype(np.int64)
        if counts.sum() == 0:
            break
        idx = np.repeat(row[frontier], counts) + segmented_arange(counts)
        v = adj[idx]
        nd = np.repeat(dist[frontier], counts) + w[idx]
        # scatter-min; then find which vertices actually improved
        before = dist[v]
        np.minimum.at(dist, v, nd)
        improved = dist[v] < before
        frontier = np.unique(v[improved])
    return SSSPResult(
        dist=dist,
        source=source,
        method="bellman-ford",
        graph_name=graph.name,
        num_edges=graph.num_edges,
        extra={"rounds": rounds},
    )


def _check_source(n: int, source: int) -> None:
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")

"""Classic synchronous Δ-stepping on the CPU (Meyer & Sanders, §2.2).

This is the Graph500-reference-style implementation the paper uses for its
motivation study: fixed Δ, three phases per bucket, and a synchronization
barrier after every phase-1 iteration.  Its per-bucket rows
(``extra["bucket_telemetry"]``) carry the series behind Fig. 2 ("the
active vertices in each bucket") and Fig. 3 ("the detailed analysis of
phase 1 in peak overhead of the bucket"), including the valid/total
update counts.

The relaxations use the same serialized atomic-min semantics as the GPU
simulator (:func:`repro.util.scan.serialized_min_outcome`) so update counts
are comparable across CPU and GPU implementations.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..metrics.workstats import WorkStats
from ..util.scan import segmented_arange, serialized_min_outcome
from .errors import ConvergenceError
from .gpu_rdbs import check_delta
from .result import SSSPResult

__all__ = ["delta_stepping_cpu"]


def delta_stepping_cpu(
    graph: CSRGraph,
    source: int,
    delta: float | None = None,
    *,
    max_buckets: int = 1_000_000,
) -> SSSPResult:
    """Run synchronous Δ-stepping; return distances, work tally and rows.

    Parameters
    ----------
    graph:
        input graph (no preprocessing required).
    source:
        source vertex id.
    delta:
        fixed bucket width Δ (defaults to the mean-weight/average-degree
        heuristic of :func:`repro.sssp.gpu_rdbs.default_delta`); must be
        finite and positive.
    max_buckets:
        safety valve against pathological inputs.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    delta = check_delta(delta, graph)

    row, adj, w = graph.row, graph.adj, graph.weights
    light_mask = w < delta

    dist = np.full(n, np.inf)
    dist[source] = 0.0
    stats = WorkStats()
    stats.record(
        np.array([source]), np.array([0.0]), np.array([True])
    )  # the source initialization counts as one (valid) update
    #: one row per processed bucket; phase-1 update counts are filled in
    #: from the ``stats`` batch spans once the final distances are known
    bucket_telemetry: list[dict] = []
    phase1_spans: list[tuple[int, int]] = []

    lo = 0.0
    buckets_processed = 0

    while True:
        # find the next non-empty bucket (phase 3 of the previous round)
        unsettled = np.isfinite(dist) & (dist >= lo)
        if not unsettled.any():
            break
        k = int(np.floor(dist[unsettled].min() / delta))
        lo = k * delta
        hi = lo + delta
        members = np.flatnonzero((dist >= lo) & (dist < hi))
        buckets_processed += 1
        if buckets_processed > max_buckets:
            raise ConvergenceError(
                "bucket limit exceeded; check delta/weights",
                method="delta-cpu",
                iterations=buckets_processed - 1,
                frontier=int(members.size),
                delta=delta,
            )
        p1_start = stats.update_batches
        drained: list[int] = []

        # ------------------------------------------------------------------
        # phase 1: relax light edges until the bucket stops changing
        # ------------------------------------------------------------------
        in_r = np.zeros(n, dtype=bool)  # all vertices ever in this bucket
        frontier = members
        while frontier.size:
            drained.append(int(frontier.size))
            in_r[frontier] = True
            v, nd, updated = _relax(
                frontier, dist, row, adj, w, light_mask, light=True
            )
            stats.record(v, nd, updated)
            if v.size == 0:
                break
            touched = np.unique(v[updated])
            frontier = touched[(dist[touched] >= lo) & (dist[touched] < hi)]

        # ------------------------------------------------------------------
        # phase 2: relax heavy edges of everything the bucket settled
        # ------------------------------------------------------------------
        settled = np.flatnonzero(in_r)
        phase1_spans.append((p1_start, stats.update_batches))
        v, nd, updated = _relax(
            settled, dist, row, adj, w, light_mask, light=False
        )
        stats.record(v, nd, updated)

        bucket_telemetry.append({
            "index": k, "lo": lo, "hi": hi, "delta": delta,
            "active": int(members.size), "rounds": len(drained),
            "converged": int(settled.size), "aborted": False,
            "phase1_active": np.array(drained, dtype=np.int64),
        })
        lo = hi

    tally, phase1_counts = stats.finalize_spans(dist, phase1_spans)
    for bucket, (updates, valid) in zip(bucket_telemetry, phase1_counts):
        bucket.update(phase1_updates=updates, phase1_valid=valid)

    return SSSPResult(
        dist=dist,
        source=source,
        method="delta-cpu",
        graph_name=graph.name,
        work=tally,
        num_edges=graph.num_edges,
        extra={
            "buckets": buckets_processed,
            "phase1_iterations": sum(r["rounds"] for r in bucket_telemetry),
            "delta": delta,
            "bucket_telemetry": bucket_telemetry,
        },
    )


def _relax(
    vertices: np.ndarray,
    dist: np.ndarray,
    row: np.ndarray,
    adj: np.ndarray,
    w: np.ndarray,
    light_mask: np.ndarray,
    *,
    light: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relax the light (or heavy) out-edges of ``vertices``; returns
    ``(targets, proposed, updated)``."""
    if vertices.size == 0:
        empty = np.zeros(0)
        return empty.astype(np.int64), empty, empty.astype(bool)
    counts = (row[vertices + 1] - row[vertices]).astype(np.int64)
    idx = np.repeat(row[vertices], counts) + segmented_arange(counts)
    keep = light_mask[idx] if light else ~light_mask[idx]
    idx = idx[keep]
    src_of_edge = np.repeat(vertices, counts)[keep]
    v = adj[idx]
    nd = dist[src_of_edge] + w[idx]
    _old, updated = serialized_min_outcome(dist, v, nd)
    return v, nd, updated

"""RDBS: the paper's bucket-aware asynchronous Δ-stepping engine (§4).

One engine implements all four arms of the paper's Fig. 8 through three
independent toggles:

* ``pro``   — property-driven reordering preprocessing (§4.1): run on a
  degree-relabeled, weight-sorted CSR with heavy-edge offsets, so light
  edges are a contiguous prefix located without branching;
* ``adwl``  — adaptive load balancing (§4.2): phase 1 classifies active
  vertices into small/middle/large workload lists and dynamic parallelism
  right-sizes child kernels (32/256 threads) per vertex; phases 2&3 use a
  fused, statically balanced edge-parallel kernel;
* ``basyn`` — bucket-aware asynchronous execution (§4.3): phase 1 runs as
  one persistent kernel draining workload lists in micro-rounds without
  barriers, updates are immediately visible, and the bucket width Δ_i is
  re-adjusted per bucket from converged-vertex and thread-utilization
  feedback (Eqs. 1–2).  Consecutive buckets are *fused* into that one
  persistent kernel (PriorityGraph-style bucket fusion): after the first
  host launch, every phase-1 and phase-2&3 segment is a device-side
  continuation split by device barriers, and the next-bucket choice is
  charged as device work.  The kernel ends, and the next bucket starts
  with a host launch, only where the host must synchronize: a PRO offset
  re-split, a fault-runtime probe/checkpoint, or a rollback.

With all three off the engine degenerates to the classic synchronous
GPU Δ-stepping of §2.2 (which doubles as the ablation baseline).  The
default configuration (all on) is the paper's RDBS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..faults.plan import InjectedKernelAbort
from ..faults.runtime import Watchdog, WatchdogTimeout, make_runtime
from ..graphs.csr import CSRGraph
from ..gpusim.compaction import compact_multisplit
from ..gpusim.device import GPUDevice, KernelContext
from ..gpusim.dynamic import classify_multisplit, launch_adaptive
from ..gpusim.kernels import grid_stride, thread_per_item, thread_per_vertex_edges
from ..gpusim.spec import GPUSpec, V100
from ..util.scan import sorted_unique_ints
from ..metrics.workstats import WorkStats
from ..reorder.pipeline import apply_pro
from .buckets import DeltaController
from .errors import ConvergenceError
from .persistent import PersistentChain, controller_step, publish_grid_min
from .relax import DeviceGraph, relax_batch
from .result import SSSPResult

__all__ = ["rdbs_sssp", "default_delta", "check_delta", "BUCKET_RESCALE"]

#: factor Δ is widened by when the bucket-limit graceful-degradation retry
#: fires (a fixed factor keeps the retry deterministic and lets genuinely
#: hopeless Δ/limit combinations still fail fast)
BUCKET_RESCALE = 8.0

#: active vertices processed per asynchronous micro-round; newly activated
#: vertices become visible to the following micro-round, which is how the
#: engine models immediate update visibility without barriers
ASYNC_CHUNK = 2048

#: thread count of the fused phase-2&3 kernel (static load balancing)
PHASE23_THREADS = 32 * 256

#: dependent instructions of one warp's Eq. 1–2 controller step (two
#: differences and sums, two divisions, the ε product, the clamped width
#: and the next interval's bound)
CONTROLLER_OPS = 8


def default_delta(graph: CSRGraph) -> float:
    """The empirical Δ heuristic: mean weight over average degree, ×2.

    Matches the classic Meyer–Sanders guidance Δ = Θ(1 / d̄) scaled by the
    weight range; for Graph500 unit weights at edgefactor 16 it lands near
    the paper's empirical Δ = 0.1.
    """
    if graph.num_edges == 0:
        return 1.0
    mean_w = float(graph.weights.mean())
    avg_deg = max(graph.average_degree, 1.0)
    return max(2.0 * mean_w / avg_deg, 1e-12)


def check_delta(delta: float | None, graph: CSRGraph) -> float:
    """The bucket width a Δ engine runs with; fails fast on a bad one.

    ``None`` picks :func:`default_delta`.  Anything else must be finite
    and positive: Δ ≤ 0 never advances a threshold (the engine spins),
    NaN fails every bucket comparison (distances silently stay ``inf``)
    and Δ = inf puts the bucket bounds beyond float arithmetic.
    """
    if delta is None:
        return default_delta(graph)
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    return delta


@dataclass
class _BucketOutcome:
    """Phase-1 bookkeeping for one bucket."""

    settled: np.ndarray
    threads_used: int
    #: vertices drained per phase-1 round (micro-round or iteration)
    drained: np.ndarray

    @property
    def rounds(self) -> int:
        return int(self.drained.size)


def rdbs_sssp(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    pro: bool = True,
    adwl: bool = True,
    basyn: bool = True,
    spec: GPUSpec = V100,
    max_buckets: int = 1_000_000,
    async_chunk: int = ASYNC_CHUNK,
    recovery=None,
) -> SSSPResult:
    """Run the RDBS engine (or any ablation arm) on a simulated GPU.

    Returns distances in the *original* vertex id space even when ``pro``
    relabels internally.  ``async_chunk`` sets how many active vertices
    each asynchronous micro-round drains (smaller = fresher distances /
    fewer redundant updates, larger = fewer scheduling rounds).

    ``recovery`` (``True`` or a :class:`repro.faults.RecoveryPolicy`)
    enables the self-healing runtime: epoch checkpoints, invariant probes,
    an async-phase watchdog that degrades BASYN to synchronous execution,
    and final verify/repair sweeps.  Off (``None``) it costs nothing.

    When the bucket limit trips, the engine degrades gracefully once:
    Δ is widened by :data:`BUCKET_RESCALE` and the search restarts (the
    result's ``extra["delta_rescaled"]`` records it); a second trip raises
    :class:`~repro.sssp.errors.ConvergenceError`.
    """
    if async_chunk < 1:
        raise ValueError("async_chunk must be >= 1")
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    delta = check_delta(delta, graph)

    try:
        return _rdbs_run(
            graph, source, delta=delta, pro=pro, adwl=adwl, basyn=basyn,
            spec=spec, max_buckets=max_buckets,
            async_chunk=async_chunk, recovery=recovery, rescaled=False,
        )
    except ConvergenceError as exc:
        if "bucket limit" not in exc.reason:
            raise
        return _rdbs_run(
            graph, source, delta=delta * BUCKET_RESCALE, pro=pro, adwl=adwl,
            basyn=basyn, spec=spec, max_buckets=max_buckets,
            async_chunk=async_chunk, recovery=recovery, rescaled=True,
        )


def _rdbs_run(
    graph: CSRGraph,
    source: int,
    *,
    delta: float,
    pro: bool,
    adwl: bool,
    basyn: bool,
    spec: GPUSpec,
    max_buckets: int,
    async_chunk: int,
    recovery,
    rescaled: bool,
) -> SSSPResult:
    """One full search at a fixed Δ (see :func:`rdbs_sssp`)."""
    n = graph.num_vertices

    # ------------------------------------------------------------------
    # preprocessing (not timed, matching the paper's methodology)
    # ------------------------------------------------------------------
    work_graph = apply_pro(graph, delta) if pro else graph
    src = int(work_graph.old_to_new[source]) if pro else source

    device = GPUDevice(spec)
    dgraph = DeviceGraph(device, work_graph)
    # execution strategy follows the graph's actual capabilities: a caller
    # may hand in a graph that already carries heavy offsets (pre-applied
    # PRO) with pro=False — it still gets branch-free light/heavy ranges
    use_offsets = dgraph.heavy is not None
    dist = device.full(n, np.inf, name="dist")
    device.host_store(dist, src, 0.0)
    in_queue = np.zeros(n, dtype=bool)  # host mirror of the queue flags
    # device buffer receiving the compacted next-bucket candidates; sized
    # to the edge count because duplicate updates (several heavy edges
    # improving one vertex in one pass) each append an entry.  Write-only
    # scratch — left uninitialized (cudaMalloc semantics)
    candidate_buf = device.empty(
        max(work_graph.num_edges, 1), dtype=np.int64, name="candidates"
    )
    stats = WorkStats()
    stats.record(np.array([src]), np.array([0.0]), np.array([True]))

    runtime = make_runtime(recovery, device, dgraph, dist, src, "rdbs")
    #: live BASYN toggle — the watchdog degrades it to synchronous mid-run
    basyn_active = basyn
    #: bucket fusion: the BASYN bucket loop is one persistent kernel
    chain = PersistentChain(device)
    #: double-buffered next-bucket minimum: phase 2&3 folds its scan into
    #: ``next_min[cell]`` and resets the other cell for the next bucket
    next_min = device.full(2, np.inf, name="next_min") if basyn else None
    cell = 0
    controller = DeltaController(delta) if basyn_active else None
    lo = 0.0
    buckets_processed = 0
    total_rounds = 0
    #: one row per processed bucket (the Δ_i trajectory of Eq. 1–2 and
    #: the Figs. 2–3 series): the result's ``extra["bucket_telemetry"]``
    #: and the ``bucket_close`` payload the trace layer's bucket spans
    #: show.  Aborted buckets keep None feedback fields.
    bucket_telemetry: list[dict] = []
    #: ``stats`` batch marks bounding each row's phase 1
    phase1_spans: list[tuple[int, int]] = []

    while True:
        unsettled = np.isfinite(dist.data) & (dist.data >= lo)
        if not unsettled.any():
            break
        if runtime is not None and runtime.epoch(int(unsettled.sum()), mark=lo):
            chain.end()
        min_unsettled = float(dist.data[unsettled].min())

        # next bucket interval: dynamic (Eq. 1–2) or fixed width
        if controller is not None:
            interval = controller.next_interval()
            b_lo, b_hi = interval.lo, interval.hi
            bucket_id = interval.index
            eps_i = controller.epsilons[-1]
            if b_hi <= min_unsettled:
                # empty bucket: report zero feedback and move on cheaply
                controller.feedback(0, 0)
                lo = b_hi
                continue
        else:
            bucket_id = int(np.floor(min_unsettled / delta))
            b_lo = bucket_id * delta
            b_hi = b_lo + delta
            eps_i = 0.0
        lo = max(lo, b_lo)

        members = np.flatnonzero((dist.data >= b_lo) & (dist.data < b_hi))
        if members.size == 0:
            lo = b_hi
            if controller is not None:
                controller.feedback(0, 0)
            continue

        buckets_processed += 1
        if buckets_processed > max_buckets:
            raise ConvergenceError(
                "bucket limit exceeded; check delta/weights",
                method="rdbs",
                iterations=buckets_processed - 1,
                frontier=int(members.size),
                delta=delta,
            )
        device.annotate(
            "bucket", index=bucket_id, lo=b_lo, hi=b_hi, active=members
        )
        p1_start = stats.update_batches
        p1_end = None

        # ------------------------------------------------------------------
        # phase 1: light edges
        # ------------------------------------------------------------------
        # the light/heavy split must cover the (possibly widened) bucket:
        # a heavy edge then always lands beyond b_hi, so phase 2 can never
        # strand a target inside the closing bucket.  PRO graphs re-split
        # their offsets on device (§4.1's adaptive offsets); unsorted arms
        # just raise the branch threshold.
        b_width = b_hi - b_lo
        try:
            if use_offsets and b_width > dgraph.split_delta * (1 + 1e-12):
                dgraph.resplit(b_width)
                chain.end()
            split = (
                max(b_width, dgraph.split_delta) if use_offsets else b_width
            )
            if basyn_active:
                watchdog = (
                    runtime.new_watchdog(int(members.size), async_chunk)
                    if runtime is not None else None
                )
                outcome = _phase1_async(
                    device, dgraph, dist, members, b_lo, b_hi, split,
                    pro=use_offsets, adwl=adwl, stats=stats,
                    in_queue=in_queue, chunk_size=async_chunk,
                    watchdog=watchdog, chain=chain,
                )
            else:
                outcome = _phase1_sync(
                    device, dgraph, dist, members, b_lo, b_hi, split,
                    pro=use_offsets, adwl=adwl, stats=stats,
                )
            p1_end = stats.update_batches
            total_rounds += outcome.rounds
            device.annotate("settled", vertices=outcome.settled)

            # --------------------------------------------------------------
            # phases 2 & 3: heavy edges + next-bucket scan (one fused kernel)
            # --------------------------------------------------------------
            _phase23_fused(
                device, dgraph, dist, outcome.settled, split,
                pro=use_offsets, stats=stats, candidate_buf=candidate_buf,
                next_lo=b_hi, next_min=next_min if basyn_active else None,
                cell=cell,
            )
        except (WatchdogTimeout, InjectedKernelAbort) as exc:
            if runtime is None:
                raise
            # graceful degradation: roll back to the last good checkpoint
            # (bounded retry) and finish the search without BASYN
            mark = runtime.recover(exc, lo)
            chain.end()
            lo = 0.0 if mark is None else float(mark)
            in_queue[:] = False
            if basyn_active:
                basyn_active = False
                controller = None
                runtime.note_degraded()
            aborted = True
        else:
            if basyn_active:
                # the bucket closed on phase 2&3's device barrier; the
                # kernel stays resident for the next bucket
                cell ^= 1
            else:
                device.barrier()  # synchronous mode between buckets
            if controller is not None:
                controller.feedback(
                    int(outcome.settled.size), outcome.threads_used
                )
            lo = b_hi
            aborted = False

        row = {
            "index": bucket_id, "lo": b_lo, "hi": b_hi,
            "delta": b_hi - b_lo, "active": int(members.size),
            "rounds": None, "converged": None, "aborted": aborted,
            "epsilon": eps_i, "threads": None, "phase1_active": None,
        }
        if not aborted:
            row.update(
                rounds=outcome.rounds, converged=int(outcome.settled.size),
                threads=outcome.threads_used, phase1_active=outcome.drained,
            )
        device.annotate("bucket_close", **row)
        bucket_telemetry.append(row)
        phase1_spans.append(
            (p1_start, stats.update_batches if p1_end is None else p1_end)
        )

    if runtime is not None:
        runtime.finish()
    tally, phase1_counts = stats.finalize_spans(dist.data, phase1_spans)
    for row, (updates, valid) in zip(bucket_telemetry, phase1_counts):
        row.update(phase1_updates=updates, phase1_valid=valid)

    dist_out = work_graph.to_original_order(dist.data.copy()) if pro else dist.data.copy()
    method = "rdbs" if (pro and adwl and basyn) else _arm_name(pro, adwl, basyn)
    return SSSPResult(
        dist=dist_out,
        source=source,
        method=method,
        graph_name=graph.name,
        time_ms=device.elapsed_ms,
        work=tally,
        counters=device.counters,
        num_edges=graph.num_edges,
        extra={
            "timeline": device.timeline,
            "buckets": buckets_processed,
            "rounds": total_rounds,
            "delta0": delta,
            "final_delta": controller.widths[-1] if controller and controller.widths else delta,
            "pro": pro,
            "adwl": adwl,
            "basyn": basyn,
            "delta_rescaled": rescaled,
            "bucket_telemetry": bucket_telemetry,
        },
        faults=runtime.report if runtime is not None else None,
    )


def _arm_name(pro: bool, adwl: bool, basyn: bool) -> str:
    parts = []
    if basyn:
        parts.append("basyn")
    if pro:
        parts.append("pro")
    if adwl:
        parts.append("adwl")
    return "+".join(parts) if parts else "sync-delta"


# ----------------------------------------------------------------------
# phase 1 engines
# ----------------------------------------------------------------------

def _relax_light(
    ctx: KernelContext,
    dgraph: DeviceGraph,
    dist,
    vertices: np.ndarray,
    split: float,
    *,
    pro: bool,
    adwl: bool,
    stats: WorkStats,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Relax the light edges of ``vertices``.

    Returns ``(targets, values, threads)``: the targets whose atomics
    lowered a cell, the written tentative distances aligned with them
    (the register-resident :class:`~repro.sssp.relax.RelaxOutcome` values
    the multisplit placement consumes), and the thread tally.
    """
    threads = 0
    all_targets: list[np.ndarray] = []
    all_values: list[np.ndarray] = []

    if pro:
        counts = dgraph.light_counts(vertices)
        kind = "light"
        weight_filter = None
    else:
        counts = (
            dgraph.graph.row[vertices + 1] - dgraph.graph.row[vertices]
        ).astype(np.int64)
        kind = "all"
        weight_filter = (split, True)

    if adwl:
        # manager threads classify vertices into workload lists with one
        # 3-way warp-ballot multisplit
        classes = classify_multisplit(ctx, counts, thread_per_item(vertices.size))
        if ctx.device.handlers("on_annotate"):
            ctx.device.annotate(
                "adwl", small=int(classes.small.size),
                middle=int(classes.middle.size),
                large=int(classes.large.size),
            )
        groups = launch_adaptive(ctx, counts, classes)
    else:
        groups = [(np.arange(vertices.size), thread_per_vertex_edges(counts))]

    # child-kernel edge batches are sliced out of one vectorized index
    # construction instead of re-deriving indices per workload class
    batches = dgraph.batch_groups(vertices, kind, groups)
    for (positions, assignment), batch in zip(groups, batches):
        vs = vertices[positions]
        out = relax_batch(
            ctx, dgraph, dist, vs, batch, assignment, stats,
            weight_filter=weight_filter,
        )
        if out.targets.size:
            all_targets.append(out.targets[out.updated])
            all_values.append(out.new_dist[out.updated])
        threads += assignment.num_threads

    if all_targets:
        return np.concatenate(all_targets), np.concatenate(all_values), threads
    return (
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64), threads
    )


def _phase1_async(
    device: GPUDevice,
    dgraph: DeviceGraph,
    dist,
    members: np.ndarray,
    b_lo: float,
    b_hi: float,
    split: float,
    *,
    pro: bool,
    adwl: bool,
    stats: WorkStats,
    in_queue: np.ndarray,
    chunk_size: int = ASYNC_CHUNK,
    watchdog: Watchdog | None = None,
    chain: PersistentChain,
) -> _BucketOutcome:
    """BASYN phase 1: one persistent kernel draining the workload lists.

    Micro-rounds pop up to :data:`ASYNC_CHUNK` vertices; updates written by
    a round are visible to every later round (and, through the atomic
    serialization, partially within the round), with only the cheap
    async-round scheduling cost in between — no barriers, no relaunches.
    A device barrier ends the drain before phase 2&3 runs in the same
    kernel; the segment continues the persistent kernel ``chain`` when
    the previous bucket left it resident instead of launching a new one.
    """
    settled_mask = np.zeros(dist.size, dtype=bool)
    threads_used = 0
    drained: list[int] = []
    queue: list[np.ndarray] = [members]
    in_queue[members] = True
    # multisplit placement appends re-activations *densely* behind a
    # rolling cursor (coalesced stores instead of vertex-scattered ones);
    # sized to the edge count because every push follows an updated
    # relaxation.  The spill list absorbs the pathological overflow case
    # with vertex-addressed stamp stores.  Write-only scratch, so both
    # allocations stay uninitialized (cudaMalloc semantics)
    queue_slots = device.empty(
        max(dgraph.graph.num_edges, 1), dtype=np.int64, name="workload_slots",
    )
    queue_spill = device.empty(dist.size, dtype=np.int64, name="workload_spill")
    cursor = 0
    # per-round drain telemetry is host-side only, so it is gated on an
    # attached on_annotate observer — without one, no payload is built
    note_rounds = bool(device.handlers("on_annotate"))

    with chain.segment("phase1_async") as k:
        while queue:
            reactivated = 0
            chunk_parts: list[np.ndarray] = []
            need = chunk_size
            while queue and need > 0:
                head = queue[0]
                if head.size <= need:
                    chunk_parts.append(head)
                    need -= head.size
                    queue.pop(0)
                else:
                    chunk_parts.append(head[:need])
                    queue[0] = head[need:]
                    need = 0
            chunk = np.concatenate(chunk_parts)
            in_queue[chunk] = False
            settled_mask[chunk] = True
            drained.append(int(chunk.size))
            if watchdog is not None:
                watchdog.tick()

            targets, values, threads = _relax_light(
                k, dgraph, dist, chunk, split,
                pro=pro, adwl=adwl, stats=stats,
            )
            threads_used += threads
            k.async_round()

            if targets.size:
                cand = sorted_unique_ints(targets)
                # the freshest distance per candidate is the minimum of the
                # round's register-resident atomicMin results
                # (RelaxOutcome.new_dist) — no re-gather needed; one 2-way
                # ballot multisplit partitions push vs skip
                pos = np.searchsorted(cand, targets)
                dv = np.full(cand.size, np.inf)
                np.minimum.at(dv, pos, values)
                keys = (
                    (dv >= b_lo) & (dv < b_hi) & ~in_queue[cand]
                ).astype(np.int64)
                a_ms = thread_per_item(cand.size)
                order, offs = k.multisplit(keys, 2, a_ms)
                push = cand[order[offs[1]:]]
                if push.size:
                    csize = int(push.size)
                    a_push = thread_per_item(csize)
                    if cursor + csize <= queue_slots.size:
                        k.scatter(
                            queue_slots,
                            cursor + np.arange(csize, dtype=np.int64),
                            push, a_push,
                        )
                        cursor += csize
                    else:
                        # overflow spill: vertex-addressed stamp stores
                        # (same-value, benign)
                        # repro-static: assume-disjoint
                        k.scatter(queue_spill, push, push, a_push)
                    in_queue[push] = True
                    queue.append(push)
                    reactivated = csize
            if note_rounds:
                device.annotate(
                    "async_round", round=len(drained), drained=int(chunk.size),
                    reactivated=reactivated,
                    pending=int(sum(part.size for part in queue)),
                )
        k.device_barrier()  # drained: phase 2&3 follows in the same kernel

    return _BucketOutcome(
        settled=np.flatnonzero(settled_mask),
        threads_used=threads_used,
        drained=np.array(drained, dtype=np.int64),
    )


def _phase1_sync(
    device: GPUDevice,
    dgraph: DeviceGraph,
    dist,
    members: np.ndarray,
    b_lo: float,
    b_hi: float,
    split: float,
    *,
    pro: bool,
    adwl: bool,
    stats: WorkStats,
) -> _BucketOutcome:
    """Synchronous phase 1: kernel launch + barrier per iteration (§2.2)."""
    settled_mask = np.zeros(dist.size, dtype=bool)
    threads_used = 0
    drained: list[int] = []
    note_rounds = bool(device.handlers("on_annotate"))
    frontier = members
    while frontier.size:
        drained.append(int(frontier.size))
        settled_mask[frontier] = True
        if note_rounds:
            device.annotate(
                "sync_round", round=len(drained), frontier=int(frontier.size)
            )
        with device.launch("phase1_sync") as k:
            targets, _values, threads = _relax_light(
                k, dgraph, dist, frontier, split,
                pro=pro, adwl=adwl, stats=stats,
            )
        device.barrier()
        threads_used += threads
        if targets.size:
            cand = sorted_unique_ints(targets)
            frontier = cand[(dist.data[cand] >= b_lo) & (dist.data[cand] < b_hi)]
        else:
            frontier = np.zeros(0, dtype=np.int64)
    return _BucketOutcome(
        settled=np.flatnonzero(settled_mask),
        threads_used=threads_used,
        drained=np.array(drained, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# fused phases 2 & 3
# ----------------------------------------------------------------------

def _phase23_fused(
    device: GPUDevice,
    dgraph: DeviceGraph,
    dist,
    settled: np.ndarray,
    split: float,
    *,
    pro: bool,
    stats: WorkStats,
    candidate_buf=None,
    next_lo: float = np.inf,
    next_min=None,
    cell: int = 0,
) -> None:
    """Relax heavy edges of the settled set, then scan for the next bucket.

    One fused kernel (kernel-fusion optimization of §4.2): the heavy-edge
    relaxation uses the statically balanced edge-parallel mapping, and the
    next-bucket scan reads every vertex's distance once.  The scan's result
    is consumed host-side by the bucket loop (the real implementation
    compacts into a device queue; the stores are accounted here).

    ``next_lo`` is the closing bucket's upper boundary: the scan
    partitions vertices on "still unsettled beyond this bucket" with one
    ballot round.

    With ``next_min`` (bucket fusion under BASYN) the segment continues the
    resident persistent kernel and makes the next-bucket choice on the
    device: the scan folds its minimum into ``next_min[cell]`` before the
    closing barrier, and the Eq. 1–2 controller step reads it after.
    """
    n = dist.size
    fused = next_min is not None
    with device.segment("phase23_fused", resume=fused) as k:
        if settled.size:
            if pro:
                batch = dgraph.batch(settled, "heavy")
                weight_filter = None
            else:
                batch = dgraph.batch(settled, "all")
                weight_filter = (split, False)
            if batch.num_edges:
                a = grid_stride(batch.num_edges, PHASE23_THREADS)
                targets, updated = relax_batch(
                    k, dgraph, dist, settled, batch, a, stats,
                    weight_filter=weight_filter,
                )
                # compact the freshly updated heavy targets into the
                # next-bucket candidate queue by warp-ballot ranking
                if (
                    weight_filter is None
                    and candidate_buf is not None
                    and targets.size
                ):
                    compact_multisplit(k, candidate_buf, updated, targets, a)
        # phase 3: one dist read per vertex to build the next bucket
        a_scan = grid_stride(n, PHASE23_THREADS)
        dvals = k.gather(dist, np.arange(n, dtype=np.int64), a_scan)
        active = np.isfinite(dvals) & (dvals >= next_lo)
        # partition "active beyond this bucket" with one ballot round
        k.multisplit(active.astype(np.int64), 2, a_scan)
        if fused:
            a_blocks = publish_grid_min(k, dvals, active, a_scan, next_min,
                                        cell)
        k.device_barrier()  # fused phases separated by a device-wide sync
        if fused:
            # every block leader runs the same Eq. 1–2 step; the host
            # mirrors the choice in the bucket loop
            controller_step(k, a_blocks, next_min, cell, ops=CONTROLLER_OPS,
                            reset=np.inf)

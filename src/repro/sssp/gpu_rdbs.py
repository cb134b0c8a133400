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
  continuation, and a bucket pays one device barrier, its phase 1's.
  Δ_{i+1} needs only bucket i's (C, T) feedback, so the Eq. 1–2
  controller step runs right after phase 1's barrier, and phase 2&3 of
  bucket i shares the synchronization window of phase 1 of bucket i+1:
  heavy-edge lanes that lower a distance into ``[hi_i, hi_{i+1})`` and
  the next-bucket scan push the next bucket's members to the phase-1
  worklist themselves, which is exact by monotonicity.  Phase 2&3 keeps
  its own barrier where the next window needs one: bucket i+1 is empty
  (the jump reads the scan's next-bucket minimum), bucket i+1 needs a
  PRO offset re-split (one more segment, ended by its own barrier,
  rewriting the offsets phase 2&3 reads), or the next fault-runtime
  epoch synchronizes.  The kernel ends, and the next bucket starts with
  a host launch, only where the host must synchronize: a fault-runtime
  probe/checkpoint, or a rollback.  Runs of empty Eq. 1–2 intervals
  between buckets are walked in bulk
  (:meth:`~repro.sssp.buckets.DeltaController.skip_empty`).

With all three off the engine degenerates to the classic synchronous
GPU Δ-stepping of §2.2 (which doubles as the ablation baseline).  The
default configuration (all on) is the paper's RDBS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..faults.plan import InjectedKernelAbort
from ..faults.runtime import Watchdog, WatchdogTimeout
from ..graphs.csr import CSRGraph
from ..gpusim.device import GPUDevice, KernelContext
from ..gpusim.dynamic import classify_multisplit, launch_adaptive
from ..gpusim.kernels import grid_stride, thread_per_item, thread_per_vertex_edges
from ..gpusim.spec import GPUSpec, V100
from ..util.scan import sorted_unique_ints
from ..metrics.workstats import WorkStats
from ..reorder.pipeline import apply_pro
from .buckets import DeltaController
from .engine import GPUSolve
from .errors import ConvergenceError
from .persistent import (
    BLOCK,
    RING,
    PersistentChain,
    block_leaders,
    controller_step,
    publish_grid_min,
)
from .relax import DeviceGraph, relax_batch
from .result import SSSPResult
from .worklist import SlotPool, compact_multisplit, pop_oldest

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

#: one leader lane per block of the persistent kernel's grid
_GRID_LEADERS = block_leaders(PHASE23_THREADS // BLOCK)

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

    ``source`` and the returned distances are in ``graph``'s id space even
    when ``pro`` relabels internally (see :mod:`repro.sssp.engine`).
    ``async_chunk`` sets how many active vertices each asynchronous
    micro-round drains (smaller = fresher distances / fewer redundant
    updates, larger = fewer scheduling rounds).

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
    method = "rdbs" if (pro and adwl and basyn) else _arm_name(pro, adwl, basyn)
    # preprocessing (not timed, matching the paper's methodology)
    solve = GPUSolve(
        graph, source, method, spec=spec, recovery=recovery,
        work_graph=apply_pro(graph, delta) if pro else None,
    )
    device, dgraph, dist = solve.device, solve.dgraph, solve.dist
    runtime, stats = solve.runtime, solve.stats
    # execution strategy follows the graph's actual capabilities: a caller
    # may hand in a graph that already carries heavy offsets (pre-applied
    # PRO) with pro=False — it still gets branch-free light/heavy ranges
    use_offsets = dgraph.heavy is not None
    in_queue = np.zeros(n, dtype=bool)  # host mirror of the queue flags
    #: live BASYN toggle — the watchdog degrades it to synchronous mid-run
    basyn_active = basyn
    #: the synchronous arms' next-bucket candidate queue, allocated by
    #: their first phase 2&3
    candidate_buf = None
    #: bucket fusion: the BASYN bucket loop is one persistent kernel
    chain = PersistentChain(device)
    #: next-bucket minimum ring: a phase-3 scan folds into
    #: ``next_min[cell]``, and the controller step after the next decision
    #: barrier reads it and resets the cell before it
    next_min = device.full(RING, np.inf, name="next_min") if basyn else None
    #: BASYN's workload-list slots: phase 2&3 pushes the next bucket's
    #: members, its phase 1 appends re-activations, and phase 1's barrier
    #: rewinds it; one per edge, since every push follows an update
    pool = (SlotPool(device, max(graph.num_edges, 1), "workload_slots")
            if basyn else None)
    cell = 0
    #: the interval a barrier-free phase 2&3 opened the next window for
    opened: tuple[float, float] | None = None
    controller = DeltaController(delta) if basyn_active else None

    def needs_resplit(width: float) -> bool:
        return use_offsets and width > dgraph.split_delta * (1 + 1e-12)

    lo = 0.0
    buckets_processed = 0
    total_rounds = 0
    #: ``stats`` batch marks bounding each bucket row's phase 1 (rows are
    #: the Δ_i trajectory of Eq. 1–2 and the Figs. 2–3 series; aborted
    #: buckets keep None feedback fields)
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
            # empty buckets: zero feedback each, walked in bulk.  Each one
            # past the first is an epoch of its own; a synchronizing epoch
            # (its probe may repair dist) ends the walk
            skipped = controller.skip_empty(
                min_unsettled,
                None if runtime is None else runtime.quiet_epochs() + 1)
            if skipped:
                if runtime is not None:
                    runtime.pass_epochs(skipped - 1)
                lo = controller.next_lo
                continue
            interval = controller.next_interval()
            b_lo, b_hi = interval.lo, interval.hi
            bucket_id = interval.index
            eps_i = controller.epsilons[-1]
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
                method=method,
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
        if opened is not None and opened != (b_lo, b_hi):
            # a fault changed dist after phase 2&3 chose its successor:
            # the host synchronizes rather than run a window it never
            # opened
            chain.end()
        opened = None
        try:
            if needs_resplit(b_width):
                # under BASYN the re-split is a segment of the resident
                # kernel; the synchronous arms launch it from the host
                dgraph.resplit(b_width, chain if basyn_active else None)
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
                    in_queue=in_queue, pool=pool, chunk_size=async_chunk,
                    watchdog=watchdog, chain=chain, next_min=next_min,
                    cell=cell,
                )
                cell = (cell + 1) % RING
                # Δ_{i+1} needs only this bucket's (C, T), known at phase
                # 1's barrier: phase 2&3 already knows the next interval
                controller.feedback(
                    int(outcome.settled.size), outcome.threads_used
                )
                next_hi = controller.upcoming_hi()
                hold = needs_resplit(next_hi - b_hi) or (
                    runtime is not None and runtime.quiet_epochs() == 0)
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
            if basyn_active:
                if _phase23_fused(
                    device, dgraph, dist, outcome.settled, split,
                    pro=use_offsets, stats=stats, next_lo=b_hi,
                    next_hi=next_hi, hold=hold, pool=pool,
                    next_min=next_min, cell=cell,
                ):
                    cell = (cell + 1) % RING
                else:
                    opened = (b_hi, next_hi)
            else:
                if candidate_buf is None:
                    # sized to the edge count: duplicate updates (several
                    # heavy edges improving one vertex in one pass) each
                    # append an entry.  Write-only scratch, left
                    # uninitialized (cudaMalloc semantics)
                    candidate_buf = device.empty(
                        max(graph.num_edges, 1), dtype=np.int64,
                        name="candidates")
                _phase23_fused(
                    device, dgraph, dist, outcome.settled, split,
                    pro=use_offsets, stats=stats, next_lo=b_hi,
                    candidate_buf=candidate_buf,
                )
                device.barrier()  # synchronous mode between buckets
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
        solve.close_bucket(row)
        phase1_spans.append(
            (p1_start, stats.update_batches if p1_end is None else p1_end)
        )

    phase1_counts = solve.finish(phase1_spans)
    for row, (updates, valid) in zip(solve.bucket_telemetry, phase1_counts):
        row.update(phase1_updates=updates, phase1_valid=valid)

    return solve.result({
        "buckets": buckets_processed,
        "rounds": total_rounds,
        "delta0": delta,
        "final_delta": controller.widths[-1] if controller and controller.widths else delta,
        "pro": pro,
        "adwl": adwl,
        "basyn": basyn,
        "delta_rescaled": rescaled,
    })


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
    pool: SlotPool,
    chunk_size: int = ASYNC_CHUNK,
    watchdog: Watchdog | None = None,
    chain: PersistentChain,
    next_min,
    cell: int,
) -> _BucketOutcome:
    """BASYN phase 1: one persistent kernel draining the workload lists.

    Micro-rounds pop up to :data:`ASYNC_CHUNK` vertices; updates written by
    a round are visible to every later round (and, through the atomic
    serialization, partially within the round), with only the cheap
    async-round scheduling cost in between — no barriers, no relaunches.
    The segment continues the persistent kernel ``chain`` when the
    previous bucket left it resident instead of launching a new one.

    The drain starts in the window the previous bucket's phase 2&3 opened,
    after the members it pushed to ``pool``; re-activations append densely
    behind them.  One device barrier ends the drain: it orders every
    store, so ``pool`` rewinds there, and every block leader then runs the
    Eq. 1–2 controller step on ``next_min[cell]`` (the cell that phase
    2&3's scan folded into), which fixes the next bucket's interval before
    phase 2&3 runs.
    """
    settled_mask = np.zeros(dist.size, dtype=bool)
    threads_used = 0
    drained: list[int] = []
    queue: list[np.ndarray] = [members]
    in_queue[members] = True
    # per-round drain telemetry is host-side only, so it is gated on an
    # attached on_annotate observer — without one, no payload is built
    note_rounds = bool(device.handlers("on_annotate"))

    with chain.segment("phase1_async") as k:
        while queue:
            reactivated = 0
            chunk = pop_oldest(queue, chunk_size)
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
                push = _push_lowered(k, pool, targets, values, b_lo, b_hi,
                                     queued=in_queue)
                if push.size:
                    in_queue[push] = True
                    queue.append(push)
                    reactivated = int(push.size)
            if note_rounds:
                device.annotate(
                    "async_round", round=len(drained), drained=int(chunk.size),
                    reactivated=reactivated,
                    pending=int(sum(part.size for part in queue)),
                )
        k.device_barrier()  # drained: phase 2&3 follows in the same kernel
        pool.rewind()
        controller_step(k, _GRID_LEADERS, next_min, cell,
                        ops=CONTROLLER_OPS, reset=np.inf)

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
    next_lo: float,
    candidate_buf=None,
    next_hi: float = np.inf,
    hold: bool = True,
    pool: SlotPool | None = None,
    next_min=None,
    cell: int = 0,
) -> bool:
    """Relax heavy edges of the settled set, then scan for the next bucket.

    One fused kernel (kernel-fusion optimization of §4.2): the heavy-edge
    relaxation uses the statically balanced edge-parallel mapping, and the
    next-bucket scan reads every vertex's distance once.  ``next_lo`` is
    the closing bucket's upper boundary.  Returns whether the segment
    ended in a device barrier.

    Synchronous arms (no ``pool``): a launch of its own.  Heavy targets
    are compacted into ``candidate_buf``, the scan partitions "still
    unsettled beyond this bucket" with one ballot round, and a device
    barrier ends the kernel.

    Under BASYN the segment continues the resident persistent kernel and
    opens the next bucket ``[next_lo, next_hi)``, whose interval the
    controller step after phase 1's barrier fixed: heavy-edge lanes that
    lower a distance into it push the vertex to ``pool`` (the next phase
    1's worklist), and the scan's ballot key is membership of the
    interval, its survivors stored to the same pool.  The scan also folds
    its minimum beyond ``next_lo`` into ``next_min[cell]``.  The next
    phase 1 then shares this segment's synchronization window, unless
    ``hold`` (the next bucket needs a re-split, or the next epoch
    synchronizes) or the next bucket is empty — no lane pushed — because
    the jump past it reads the folded minimum: then the segment ends in a
    device barrier and the controller step.  The bucket loop returns to
    the host if its own state picks another next bucket (only a fault in
    device memory can make them differ).
    """
    n = dist.size
    fused = pool is not None
    with device.segment("phase23_fused", resume=fused) as k:
        pushed = np.zeros(0, dtype=np.int64)
        if settled.size:
            if pro:
                batch = dgraph.batch(settled, "heavy")
                weight_filter = None
            else:
                batch = dgraph.batch(settled, "all")
                weight_filter = (split, False)
            if batch.num_edges:
                a = grid_stride(batch.num_edges, PHASE23_THREADS)
                out = relax_batch(
                    k, dgraph, dist, settled, batch, a, stats,
                    weight_filter=weight_filter,
                )
                if fused:
                    # heavy edges land at or beyond ``next_lo``: a lowered
                    # target below ``next_hi`` joins the next bucket
                    if out.updated.any():
                        pushed = _push_lowered(
                            k, pool, out.targets[out.updated],
                            out.new_dist[out.updated], next_lo, next_hi)
                elif weight_filter is None and out.targets.size:
                    # compact the freshly updated heavy targets into the
                    # next-bucket candidate queue by warp-ballot ranking
                    compact_multisplit(
                        k, candidate_buf, out.updated, out.targets, a
                    )
        # phase 3: one dist read per vertex to build the next bucket
        a_scan = grid_stride(n, PHASE23_THREADS)
        vertices = np.arange(n, dtype=np.int64)
        dvals = k.gather(dist, vertices, a_scan)
        active = np.isfinite(dvals) & (dvals >= next_lo)
        if not fused:
            # partition "active beyond this bucket" with one ballot round
            k.multisplit(active.astype(np.int64), 2, a_scan)
            k.device_barrier()  # fused phases separated by a device-wide sync
            return True
        # the next bucket's members; an empty one leaves the worklist empty
        opens = active & (dvals < next_hi)
        barrier = hold or not (opens.any() or pushed.size)
        # one ballot round partitions the members the heavy lanes did not
        # push already; the survivors join the worklist
        opens[pushed] = False
        order, offs = k.multisplit(opens.astype(np.int64), 2, a_scan)
        if offs[1] < n:
            pool.store(k, vertices[order[offs[1]:]])
        a_blocks = publish_grid_min(k, dvals, active, a_scan, next_min, cell)
        if barrier:
            k.device_barrier()
            # every block leader reads the folded minimum; the host
            # mirrors the jump in the bucket loop
            controller_step(k, a_blocks, next_min, cell, ops=CONTROLLER_OPS,
                            reset=np.inf)
    return barrier


def _push_lowered(
    k: KernelContext,
    pool: SlotPool,
    targets: np.ndarray,
    values: np.ndarray,
    lo: float,
    hi: float,
    *,
    queued: np.ndarray | None = None,
) -> np.ndarray:
    """Push the lowered ``targets`` whose freshest distance lies in ``[lo, hi)``.

    The freshest distance per target is the minimum of the lanes'
    register-resident atomicMin results (``values``, aligned with
    ``targets``) — no re-gather needed.  One 2-way ballot multisplit
    partitions push vs. skip, skipping the ``queued`` vertices, and the
    placement appends the pushes densely to ``pool`` (coalesced stores
    instead of vertex-scattered ones).  Returns the pushed vertices.
    """
    cand = sorted_unique_ints(targets)
    pos = np.searchsorted(cand, targets)
    dv = np.full(cand.size, np.inf)
    np.minimum.at(dv, pos, values)
    keys = (dv >= lo) & (dv < hi)
    if queued is not None:
        keys &= ~queued[cand]
    order, offs = k.multisplit(keys.astype(np.int64), 2,
                               thread_per_item(cand.size))
    push = cand[order[offs[1]:]]
    if push.size:
        pool.store(k, push)
    return push

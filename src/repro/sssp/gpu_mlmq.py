"""MLMQ: a Multi-Level-Multi-Queue asynchronous SSSP engine.

"Beyond a Single Queue" (see PAPERS.md) observes that the strongest
successors to ADDS/RDBS-style asynchrony are *structural*: instead of one
shared bucket per priority range, the frontier lives in L levels of B
concurrent queues each.  A vertex hashes into a fixed queue within the
level selected by its tentative distance, ordering between queues of one
level is relaxed (any interleaving of pops is admissible because
``atomic_min`` relaxations are monotone and re-relaxation is idempotent),
and SM-mapped queue groups steal from the largest remaining queue of
their level when their own queue drains.

This engine realises that design on the simulated device:

* **placement** — one warp-ballot multisplit classifies each round's
  improved vertices by ``(level offset, queue id)`` in a single pass;
  pushes are dense cursor appends into shared slot pools (coalesced
  stores), the same discipline as the RDBS/ADDS multisplit paths;
* **relaxation** — popped batches relax edge-parallel under a balanced
  grid-stride assignment, so power-law hubs cannot serialize a queue
  group the way vertex-per-thread mappings do;
* **work stealing** — deterministic: idle groups (ascending id) steal
  from the largest remaining queue of the level (ties to the lowest
  queue id), one counted descriptor CAS per handoff (``mlmq_steals`` /
  ``mlmq_stolen_slots``);
* **windowing** — only ``window_levels`` levels are materialised at a
  time; farther improvements park in an overflow pile (value-mirrored,
  like Near-Far's far pile) and are promoted by a counted
  reclassification kernel (``mlmq_advance``) when the window reaches
  them.

Stale pops are benign by construction: a queued copy is *live* iff the
vertex's level mirror still records that level; anything else is popped,
counted and dropped without relaxing.  See docs/mlmq.md for the full
correctness argument and a counter-backed kron walkthrough.
"""

from __future__ import annotations

import numpy as np

from ..faults.plan import InjectedKernelAbort
from ..faults.runtime import WatchdogTimeout, make_runtime
from ..graphs.csr import CSRGraph
from ..gpusim.device import GPUDevice
from ..gpusim.kernels import grid_stride, thread_per_item
from ..gpusim.spec import GPUSpec, V100
from ..metrics.workstats import WorkStats
from ..util.scan import sorted_unique_ints
from .errors import ConvergenceError
from .gpu_rdbs import check_delta
from .relax import DeviceGraph, relax_batch
from .result import SSSPResult

__all__ = ["mlmq_sssp", "NUM_QUEUES", "WINDOW_LEVELS", "GROUP_CHUNK"]

#: levels of queues materialised at once (the window); improvements
#: beyond the window park in the overflow pile
WINDOW_LEVELS = 4

#: concurrent queues per level — one SM-mapped queue group each
NUM_QUEUES = 4

#: worklist slots one queue group pops per asynchronous micro-round;
#: small chunks keep popped distances fresh (fewer wasted relaxations)
#: and expose the queue imbalance that work stealing exists to absorb
GROUP_CHUNK = 16

#: thread count of the edge-parallel relax passes (static balance)
_DRAIN_THREADS = 32 * 256

#: Knuth's multiplicative hash constant — the queue id of a vertex is a
#: pure function of its id, so placement is deterministic and stateless
_HASH_MULT = np.int64(2654435761)


def _queue_of(vertices: np.ndarray, num_queues: int) -> np.ndarray:
    """Deterministic queue id per vertex: ``hash(v) mod B``."""
    return ((vertices * _HASH_MULT) >> np.int64(16)) % np.int64(num_queues)


class _QueuePool:
    """Host bookkeeping of the queue hierarchy.

    Queue *contents* are mirrored host-side (the repo-wide worklist
    discipline: slot arrays on the device are write-only scratch whose
    insertion traffic is counted, while membership lives in host mirrors
    — exactly how ADDS keeps its near list and RDBS its queue flags).
    Pushes are dense cursor appends into a shared device slot pool; when
    a pool fills, a fresh one is allocated and the cursor rewinds.
    """

    def __init__(self, device: GPUDevice, n: int, num_edges: int,
                 num_queues: int) -> None:
        self.device = device
        self.num_queues = num_queues
        #: level -> per-queue FIFO chunk lists
        self.queues: dict[int, list[list[np.ndarray]]] = {}
        #: level -> per-queue pending sizes
        self.sizes: dict[int, np.ndarray] = {}
        #: level of each vertex's live queued copy, -1 when none
        self.queue_level = np.full(n, -1, dtype=np.int64)
        #: beyond-window improvements: membership + value mirror
        self.overflow_mask = np.zeros(n, dtype=bool)
        self.overflow_val = np.full(n, np.inf)
        self._cap = max(int(num_edges), 1024)
        self._pool = device.empty(self._cap, dtype=np.int64,
                                  name="mlmq_pool0")
        self._cursor = 0
        self._pool_seq = 1

    # -- device-side slot accounting -----------------------------------
    def reserve(self, size: int):
        """A ``(pool, start)`` slot range for ``size`` appended entries."""
        if self._cursor + size > self._pool.size:
            self._pool = self.device.empty(
                max(self._cap, size), dtype=np.int64,
                name=f"mlmq_pool{self._pool_seq}",
            )
            self._pool_seq += 1
            self._cursor = 0
        start = self._cursor
        self._cursor += size
        return self._pool, start

    # -- host mirrors ---------------------------------------------------
    def enqueue(self, level: int, queue: int, vertices: np.ndarray) -> None:
        if level not in self.queues:
            self.queues[level] = [[] for _ in range(self.num_queues)]
            self.sizes[level] = np.zeros(self.num_queues, dtype=np.int64)
        self.queues[level][queue].append(vertices)
        self.sizes[level][queue] += vertices.size

    def pop(self, level: int, queue: int, count: int) -> np.ndarray:
        """Remove the ``count`` oldest entries of one queue (FIFO)."""
        chunks = self.queues[level][queue]
        taken: list[np.ndarray] = []
        left = count
        while left > 0:
            head = chunks[0]
            if head.size <= left:
                taken.append(chunks.pop(0))
                left -= head.size
            else:
                taken.append(head[:left])
                chunks[0] = head[left:]
                left = 0
        self.sizes[level][queue] -= count
        return taken[0] if len(taken) == 1 else np.concatenate(taken)

    def level_size(self, level: int) -> int:
        s = self.sizes.get(level)
        return int(s.sum()) if s is not None else 0

    def nonempty_levels(self) -> list[int]:
        return [lvl for lvl, s in self.sizes.items() if s.sum() > 0]

    def drop_level(self, level: int) -> None:
        self.queues.pop(level, None)
        self.sizes.pop(level, None)

    def total_pending(self) -> int:
        queued = sum(int(s.sum()) for s in self.sizes.values())
        return queued + int(self.overflow_mask.sum())


def mlmq_sssp(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    spec: GPUSpec = V100,
    window_levels: int = WINDOW_LEVELS,
    num_queues: int = NUM_QUEUES,
    chunk: int = GROUP_CHUNK,
    max_rounds: int = 10_000_000,
    recovery=None,
) -> SSSPResult:
    """Run the Multi-Level-Multi-Queue engine on a simulated GPU.

    ``window_levels`` × ``num_queues`` queues are live at once; ``chunk``
    sets how many slots one queue group drains per micro-round.
    ``recovery`` (``True`` or a :class:`repro.faults.RecoveryPolicy`)
    enables the self-healing runtime exactly as for the other engines:
    epoch checkpoints, a per-level watchdog, and final verify/repair
    sweeps.  Off (``None``) it costs nothing.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    if window_levels < 1 or num_queues < 1:
        raise ValueError("window_levels and num_queues must be >= 1")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    delta = check_delta(delta, graph)

    device = GPUDevice(spec)
    dgraph = DeviceGraph(device, graph)
    dist = device.full(n, np.inf, name="dist")
    device.host_store(dist, source, 0.0)
    stats = WorkStats()
    stats.record(np.array([source]), np.array([0.0]), np.array([True]))
    runtime = make_runtime(recovery, device, dgraph, dist, source, "mlmq")

    state = _QueuePool(device, n, graph.num_edges, num_queues)

    # seed: the source enters its hashed queue of level 0 (one counted
    # append, the same store discipline every later push uses)
    src_arr = np.array([source], dtype=np.int64)
    with device.launch("mlmq_init") as k:
        pool, start = state.reserve(1)
        k.scatter(pool, start + np.arange(1, dtype=np.int64), src_arr,
                  thread_per_item(1))
    state.enqueue(0, int(_queue_of(src_arr, num_queues)[0]), src_arr)
    state.queue_level[source] = 0

    tally = {"rounds": 0, "stale": 0, "advances": 0, "steals": 0,
             "stolen_slots": 0}
    #: one row per processed level: the result's
    #: ``extra["bucket_telemetry"]`` and the ``bucket_close`` payload
    bucket_telemetry: list[dict] = []
    levels_processed = 0

    while True:
        qlevels = state.nonempty_levels()
        lvl: int | None = min(qlevels) if qlevels else None
        if state.overflow_mask.any():
            olvl = int(np.floor(
                state.overflow_val[state.overflow_mask].min() / delta
            ))
            lvl = olvl if lvl is None else min(lvl, olvl)
        if lvl is None:
            break
        lo = lvl * delta
        hi = (lvl + 1) * delta
        if runtime is not None:
            runtime.epoch(state.total_pending(), mark=lo)

        try:
            # promote overflow entries the window now covers
            if state.overflow_mask.any() and (
                state.overflow_val[state.overflow_mask].min()
                < (lvl + window_levels) * delta
            ):
                _advance_window(device, dist, state, lvl, delta=delta,
                                window=window_levels,
                                num_queues=num_queues)
                tally["advances"] += 1
            if state.level_size(lvl) == 0:
                continue

            levels_processed += 1
            note = bool(device.handlers("on_annotate"))
            members = np.flatnonzero(state.queue_level == lvl)
            device.annotate("bucket", index=lvl, lo=lo, hi=hi, active=members)
            occupancy = state.sizes[lvl].copy()
            watchdog = (
                runtime.new_watchdog(state.level_size(lvl),
                                     chunk * num_queues)
                if runtime is not None else None
            )
            drain = _drain_level(
                device, dgraph, dist, state, lvl, delta=delta,
                window=window_levels, num_queues=num_queues, chunk=chunk,
                stats=stats, watchdog=watchdog, tally=tally,
                max_rounds=max_rounds, note=note,
            )
            state.drop_level(lvl)
            if note:
                flr = np.floor(dist.data / delta)
                device.annotate("settled",
                                vertices=np.flatnonzero(flr == lvl))
            row = {"index": lvl, "lo": lo, "hi": hi, "delta": hi - lo,
                   "active": int(members.size), **drain, "aborted": False,
                   "occupancy": occupancy}
            device.annotate("bucket_close", **row)
            bucket_telemetry.append(row)
        except (WatchdogTimeout, InjectedKernelAbort) as exc:
            if runtime is None:
                raise
            _mlmq_reseed(runtime, exc, state, dist)
            continue
        except ConvergenceError as exc:
            if runtime is None:
                raise
            runtime.recover(exc)
            break  # the final repair sweeps restore the fixpoint

    if runtime is not None:
        runtime.finish()

    work = stats.finalize(dist.data)
    totals = device.counters.totals
    wasted = (
        (work.relaxations - work.valid_updates) / work.relaxations
        if work.relaxations else 0.0
    )
    return SSSPResult(
        dist=dist.data.copy(),
        source=source,
        method="mlmq",
        graph_name=graph.name,
        time_ms=device.elapsed_ms,
        work=work,
        counters=device.counters,
        num_edges=graph.num_edges,
        extra={
            "timeline": device.timeline,
            "delta": delta,
            "window_levels": window_levels,
            "num_queues": num_queues,
            "levels": levels_processed,
            "rounds": tally["rounds"],
            "advances": tally["advances"],
            "stale_pops": tally["stale"],
            "mlmq_steals": int(totals.mlmq_steals),
            "mlmq_stolen_slots": int(totals.mlmq_stolen_slots),
            "wasted_relaxation_ratio": float(wasted),
            "bucket_telemetry": bucket_telemetry,
        },
        faults=runtime.report if runtime is not None else None,
    )


def _drain_level(
    device, dgraph, dist, state: _QueuePool, lvl: int, *,
    delta: float, window: int, num_queues: int, chunk: int,
    stats: WorkStats, watchdog, tally: dict, max_rounds: int, note: bool,
) -> dict:
    """Drain one level's queues inside one persistent asynchronous kernel.

    Each micro-round every queue group pops up to ``chunk`` slots from
    its own queue; groups whose queue is empty steal (ascending group id,
    deterministically) from the largest remaining queue of the level.
    The combined batch is filtered against the level mirror (stale copies
    drop out), relaxed edge-parallel, and the improvements are
    reclassified by one multisplit into ``window`` levels × ``B`` queues
    plus an overflow bucket.  Returns the level's row fields ``rounds``,
    ``converged``, ``steals``, ``stale`` and ``stolen_slots``.
    """
    rounds = 0
    stale = 0
    steals = 0
    stolen = 0
    converged = 0
    overflow_bucket = window * num_queues
    with device.launch("mlmq_drain") as k:
        while state.level_size(lvl) > 0:
            rounds += 1
            tally["rounds"] += 1
            if tally["rounds"] > max_rounds:
                raise ConvergenceError(
                    "MLMQ round limit exceeded; check delta/weights",
                    method="mlmq", iterations=tally["rounds"] - 1,
                    frontier=state.level_size(lvl), delta=delta,
                )
            if watchdog is not None:
                watchdog.tick()

            # ---- pop planning: own queues first, then deterministic
            # stealing by the idle groups -----------------------------
            sizes = state.sizes[lvl]
            take = np.minimum(sizes, chunk)
            remaining = sizes - take
            for g in np.flatnonzero(take == 0):
                victim = int(np.argmax(remaining))  # ties: lowest qid
                amount = int(min(chunk, remaining[victim]))
                if amount <= 0:
                    break
                remaining[victim] -= amount
                take[victim] += amount
                steals += 1
                stolen += amount
                k.mlmq_steal(amount)
                if note:
                    device.annotate("mlmq_steal", level=lvl, group=int(g),
                                    queue=victim, slots=amount)
            popped = np.concatenate([
                state.pop(lvl, q, int(take[q]))
                for q in range(num_queues) if take[q] > 0
            ])

            # ---- pop + liveness filter: each popped slot loads the
            # vertex's tentative distance; copies whose level mirror
            # moved on are stale and drop out (a divergent branch) -----
            a_pop = thread_per_item(popped.size)
            k.gather(dist, popped, a_pop)
            k.alu(a_pop, ops=1)
            live = state.queue_level[popped] == lvl
            k.branch(a_pop, live)
            valid = popped[live]
            stale += int(popped.size - valid.size)
            state.queue_level[valid] = -1
            converged += int(valid.size)
            if valid.size == 0:
                k.async_round()
                continue

            # ---- edge-parallel relaxation (static balance: hubs are
            # spread over the whole grid, not one thread) --------------
            batch = dgraph.batch(valid, "all")
            out = None
            if batch.edge_idx.size:
                a_rel = grid_stride(batch.edge_idx.size, _DRAIN_THREADS)
                out = relax_batch(k, dgraph, dist, valid, batch, a_rel,
                                  stats)
            k.async_round()

            # ---- classification: one multisplit over the improved
            # targets into window x B queue buckets + overflow ---------
            pushed = 0
            if out is not None and out.targets.size:
                upd = out.targets[out.updated]
                if upd.size:
                    pushed = _classify_and_push(
                        k, state, upd, out.new_dist[out.updated], lvl,
                        delta=delta, window=window,
                        num_queues=num_queues,
                        overflow_bucket=overflow_bucket,
                    )
            if note:
                device.annotate(
                    "mlmq_round", level=lvl, round=rounds,
                    drained=int(popped.size), valid=int(valid.size),
                    stale=int(popped.size - valid.size), pushed=pushed,
                    pending=state.level_size(lvl),
                )
    tally["stale"] += stale
    tally["steals"] += steals
    tally["stolen_slots"] += stolen
    return {"rounds": rounds, "converged": converged, "steals": steals,
            "stale": stale, "stolen_slots": stolen}


def _classify_and_push(
    k, state: _QueuePool, targets: np.ndarray, values: np.ndarray,
    lvl: int, *, delta: float, window: int, num_queues: int,
    overflow_bucket: int,
) -> int:
    """Multisplit-classify one round's improvements and append them.

    Deduplicates targets first (several edges improving one vertex in one
    pass), then one ballot multisplit groups the winners by
    ``(level offset, queue id)``; in-window buckets append densely behind
    the pool cursor, the overflow bucket updates the far-pile mirrors.
    """
    cand = sorted_unique_ints(targets)
    pos = np.searchsorted(cand, targets)
    dv = np.full(cand.size, np.inf)
    np.minimum.at(dv, pos, values)
    lvl_of = np.floor(dv / delta).astype(np.int64)
    rel = np.clip(lvl_of - lvl, 0, window)
    qid = _queue_of(cand, num_queues)
    keys = np.where(rel < window, rel * num_queues + qid, overflow_bucket)
    a_ms = thread_per_item(cand.size)
    order, offs = k.multisplit(keys, overflow_bucket + 1, a_ms)

    push_chunks: list[tuple[int, int, np.ndarray]] = []
    for r in range(window):
        for q in range(num_queues):
            b = r * num_queues + q
            seg = order[offs[b]:offs[b + 1]]
            if seg.size == 0:
                continue
            vs = cand[seg]
            tgt = lvl + r
            # live-copy dedup: push only when nothing is queued for the
            # vertex, or the improvement crosses below the queued level
            # (the higher copy goes stale); same-level re-improvements
            # skip the push — the pending pop reads the fresher distance
            cur = state.queue_level[vs]
            sel = (cur == -1) | (tgt < cur)
            vs = vs[sel]
            if vs.size == 0:
                continue
            state.queue_level[vs] = tgt
            state.overflow_mask[vs] = False
            push_chunks.append((tgt, q, vs))

    seg = order[offs[overflow_bucket]:offs[overflow_bucket + 1]]
    if seg.size:
        vs = cand[seg]
        vals = dv[seg]
        free = state.queue_level[vs] == -1
        vs, vals = vs[free], vals[free]
        state.overflow_mask[vs] = True
        np.minimum.at(state.overflow_val, vs, vals)

    if not push_chunks:
        return 0
    push_all = np.concatenate([vs for _, _, vs in push_chunks])
    csize = int(push_all.size)
    pool, cursor = state.reserve(csize)
    a_push = thread_per_item(csize)
    k.scatter(pool, cursor + np.arange(csize, dtype=np.int64), push_all,
              a_push)
    for tgt, q, vs in push_chunks:
        state.enqueue(tgt, q, vs)
    return csize


def _advance_window(
    device, dist, state: _QueuePool, lvl: int, *,
    delta: float, window: int, num_queues: int,
) -> int:
    """Promote overflow entries into the queue window (counted kernel).

    The overflow pile keeps a value mirror (``overflow_val``, maintained
    like Near-Far's far pile), so the candidate set is known host-side;
    the kernel gathers the authoritative distances, reclassifies them by
    one multisplit, and appends the promotions densely.
    """
    bound = (lvl + window) * delta
    cand = np.flatnonzero(state.overflow_mask
                          & (state.overflow_val < bound))
    if cand.size == 0:
        return 0
    with device.launch("mlmq_advance") as k:
        a = thread_per_item(cand.size)
        dvals = k.gather(dist, cand, a)
        k.alu(a, ops=2)
        # an injected fault can leave inf in a gathered distance; classify
        # it at the window bound (clipped below) instead of tripping the
        # float->int cast — recovery re-relaxes it with a sane value later
        safe = np.where(np.isfinite(dvals), dvals, bound)
        lvl_of = np.floor(safe / delta).astype(np.int64)
        # clip into the window: the candidate set was mirror-filtered, so
        # out-of-window floors only arise from boundary rounding, and
        # popping a vertex one level early is always admissible under
        # relaxed ordering (re-relaxation is idempotent)
        rel = np.clip(lvl_of - lvl, 0, window - 1)
        qid = _queue_of(cand, num_queues)
        keys = rel * num_queues + qid
        order, offs = k.multisplit(keys, window * num_queues, a)
        state.overflow_mask[cand] = False
        push_chunks: list[tuple[int, int, np.ndarray]] = []
        for r in range(window):
            for q in range(num_queues):
                b = r * num_queues + q
                seg = order[offs[b]:offs[b + 1]]
                if seg.size:
                    push_chunks.append((lvl + r, q, cand[seg]))
        push_all = np.concatenate([c for _, _, c in push_chunks])
        csize = int(push_all.size)
        pool, cursor = state.reserve(csize)
        k.scatter(pool, cursor + np.arange(csize, dtype=np.int64),
                  push_all, thread_per_item(csize))
        for tgt, q, chunk_vs in push_chunks:
            state.enqueue(tgt, q, chunk_vs)
            state.queue_level[chunk_vs] = tgt
    if device.handlers("on_annotate"):
        device.annotate("mlmq_advance", level=lvl,
                        promoted=int(cand.size),
                        overflow_remaining=int(state.overflow_mask.sum()))
    return int(cand.size)


def _mlmq_reseed(runtime, exc, state: _QueuePool, dist) -> None:
    """Roll back after an aborted kernel and rebuild the queue hierarchy.

    Every finite vertex of the restored checkpoint re-enters through the
    overflow pile; the next window advance reclassifies them with the
    normal counted kernel.  Re-relaxing settled vertices costs extra work
    but cannot change a correct distance.
    """
    fin = runtime.on_abort(exc)
    state.queues.clear()
    state.sizes.clear()
    state.queue_level[:] = -1
    state.overflow_mask[:] = False
    state.overflow_val[:] = np.inf
    if fin.size:
        state.overflow_mask[fin] = True
        state.overflow_val[fin] = dist.data[fin]

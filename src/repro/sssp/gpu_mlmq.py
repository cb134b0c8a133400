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
  pushes go to the shared worklist store of RDBS and ADDS
  (:class:`repro.sssp.worklist.SlotPool`);
* **relaxation** — popped batches relax edge-parallel under a balanced
  grid-stride assignment, so power-law hubs cannot serialize a queue
  group the way vertex-per-thread mappings do;
* **work stealing** — deterministic: idle groups (ascending id) steal
  from the largest remaining queue of the level (ties to the lowest
  queue id), one counted descriptor CAS per handoff (``mlmq_steals`` /
  ``mlmq_stolen_slots``);
* **windowing** — only :data:`WINDOW_LEVELS` levels are materialised at a
  time; farther improvements park in an overflow pile (the
  :class:`~repro.sssp.worklist.FarPile` Near-Far's and ADDS's far piles
  use) and are promoted by a counted reclassification segment
  (``mlmq_advance``) when the window reaches them;
* **one persistent kernel** — the level loop runs on the solve's
  :class:`~repro.sssp.persistent.PersistentChain`: after the
  ``mlmq_init`` host launch, every advance and drain is a continuation
  segment, and each level's drain ends in one device barrier.  The
  advance that opens a level shares the synchronization window of that
  level's drain, so there is one barrier per level.  The next-level
  choice is charged device work: lanes that park improvements fold their
  distances into a next-level cell (:func:`fold_min_filtered`), and after
  the barrier the block leaders read it beside one coalesced load of the
  window's queue-size descriptors.  The chain ends where the host
  synchronizes: a fault-runtime probe or checkpoint, or a rollback.

Stale pops are benign by construction: a queued copy is *live* iff the
vertex's level mirror still records that level; anything else is popped,
counted and dropped without relaxing.  See docs/mlmq.md for the full
correctness argument and a counter-backed kron walkthrough.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..gpusim.kernels import GRID_THREADS, grid_stride, thread_per_item
from ..gpusim.spec import GPUSpec, V100
from ..util.scan import sorted_unique_ints
from .engine import ABORTS, GPUSolve
from .errors import ConvergenceError
from .gpu_rdbs import check_delta
from .persistent import (
    BLOCK,
    RING,
    block_leaders,
    controller_step,
    fold_min_filtered,
)
from .relax import relax_batch
from .result import SSSPResult
from .worklist import FarPile, SlotPool, pop_oldest

__all__ = ["mlmq_sssp", "NUM_QUEUES", "WINDOW_LEVELS", "GROUP_CHUNK"]

#: levels of queues materialised at once (the window); improvements
#: beyond the window park in the overflow pile
WINDOW_LEVELS = 4

#: concurrent queues per level — one SM-mapped queue group each
NUM_QUEUES = 4

#: micro-rounds before the loop gives up (a guard no sane input trips)
MAX_ROUNDS = 10_000_000

#: worklist slots one queue group pops per asynchronous micro-round;
#: small chunks keep popped distances fresh (fewer wasted relaxations)
#: and expose the queue imbalance that work stealing exists to absorb
GROUP_CHUNK = 16

#: Knuth's multiplicative hash constant — the queue id of a vertex is a
#: pure function of its id, so placement is deterministic and stateless
_HASH_MULT = np.int64(2654435761)


#: multisplit bucket of the beyond-window improvements
_OVERFLOW_BUCKET = WINDOW_LEVELS * NUM_QUEUES

#: the window's queue-size descriptors, read by one coalesced load
_DESCRIPTORS = np.arange(WINDOW_LEVELS * NUM_QUEUES, dtype=np.int64)

#: dependent instructions of the next-level choice a block leader runs
#: after a level's barrier: a ballot of the nonempty descriptors and its
#: find-first-set, the overflow level (divide, floor), the minimum of the
#: two and the window-advance test
LEVEL_OPS = 6


def _queue_of(vertices: np.ndarray) -> np.ndarray:
    """Deterministic queue id per vertex: ``hash(v) mod B``."""
    return ((vertices * _HASH_MULT) >> np.int64(16)) % np.int64(NUM_QUEUES)


class _QueuePool:
    """Host bookkeeping of the queue hierarchy.

    Queue *contents* are mirrored host-side; every push also goes to the
    device worklist store ``pool`` (:mod:`repro.sssp.worklist`), shared by
    all queues.
    """

    def __init__(self, pool: SlotPool, n: int) -> None:
        self.pool = pool
        #: level -> per-queue FIFO chunk lists
        self.queues: dict[int, list[list[np.ndarray]]] = {}
        #: level -> per-queue pending sizes
        self.sizes: dict[int, np.ndarray] = {}
        #: level of each vertex's live queued copy, -1 when none
        self.queue_level = np.full(n, -1, dtype=np.int64)
        #: beyond-window improvements
        self.overflow = FarPile(n)

    def push_chunks(self, k, vertices: np.ndarray, buckets: np.ndarray,
                    base: int) -> int:
        """Queue each vertex in its window bucket; one device store.

        ``vertices[i]`` goes to bucket ``buckets[i]``: queue ``b %
        NUM_QUEUES`` of level ``base + b // NUM_QUEUES`` for bucket ``b``.
        The entries come in chunks of one bucket each, in ascending bucket
        order, as a multisplit leaves them.  Returns the number pushed.
        """
        if vertices.size == 0:
            return 0
        self.pool.store(k, vertices)
        self.queue_level[vertices] = base + buckets // NUM_QUEUES
        cut = (np.flatnonzero(buckets[1:] != buckets[:-1]) + 1).tolist()
        starts = [0, *cut]
        chunk_buckets = buckets[starts].tolist()
        counts = np.bincount(
            buckets, minlength=WINDOW_LEVELS * NUM_QUEUES
        ).reshape(WINDOW_LEVELS, NUM_QUEUES)
        for r in {b // NUM_QUEUES for b in chunk_buckets}:
            if base + r not in self.queues:
                self.queues[base + r] = [[] for _ in range(NUM_QUEUES)]
                self.sizes[base + r] = np.zeros(NUM_QUEUES, dtype=np.int64)
            self.sizes[base + r] += counts[r]
        for b, s, e in zip(chunk_buckets, starts, [*cut, vertices.size]):
            level, queue = divmod(b, NUM_QUEUES)
            self.queues[base + level][queue].append(vertices[s:e])
        return int(vertices.size)

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
        return queued + len(self.overflow)


def mlmq_sssp(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    spec: GPUSpec = V100,
    recovery: bool = False,
) -> SSSPResult:
    """Run the Multi-Level-Multi-Queue engine on a simulated GPU.

    :data:`WINDOW_LEVELS` × :data:`NUM_QUEUES` queues are live at once;
    each queue group drains :data:`GROUP_CHUNK` slots per micro-round.
    ``recovery=True`` enables the self-healing runtime through the frame
    (:class:`~repro.sssp.engine.GPUSolve`), exactly as for the other
    engines: epoch checkpoints, a per-level watchdog, a rollback that
    rebuilds the queue hierarchy from the overflow pile, and final
    verify/repair sweeps.  Off it costs nothing.
    """
    delta = check_delta(delta, graph)
    solve = GPUSolve(graph, source, "mlmq", spec=spec, recovery=recovery)
    device, dist, chain = solve.device, solve.dist, solve.chain

    state = _QueuePool(
        SlotPool(device, max(graph.num_edges, 1024), "mlmq_pool"),
        graph.num_vertices,
    )
    #: the next-level decision's device cells: lanes that park
    #: improvements in the overflow pile fold their distances into
    #: ``level_min[cell]`` during a level's drain, and the block leaders
    #: read it, beside the window's queue-size descriptors, after the
    #: level's barrier.  They price the decision; the host picks the level
    #: from its exact mirrors
    level_min = device.full(RING, np.inf, name="mlmq_level_min")
    descriptors = device.zeros(_DESCRIPTORS.size, dtype=np.int64,
                               name="mlmq_queue_sizes")
    cell = 0

    # seed: the source enters its hashed queue of level 0 (one counted
    # append, the same store every later push uses)
    src_arr = np.array([solve.src], dtype=np.int64)
    with chain.segment("mlmq_init") as k:
        state.push_chunks(k, src_arr, _queue_of(src_arr), 0)

    tally = {"rounds": 0, "stale": 0, "advances": 0}
    levels_processed = 0

    while True:
        qlevels = state.nonempty_levels()
        lvl: int | None = min(qlevels) if qlevels else None
        omin = state.overflow.min()
        if omin < np.inf:
            olvl = int(np.floor(omin / delta))
            lvl = olvl if lvl is None else min(lvl, olvl)
        if lvl is None:
            break
        lo = lvl * delta
        hi = (lvl + 1) * delta
        solve.epoch(state.total_pending, mark=lo)

        try:
            # promote overflow entries the window now covers
            if omin < (lvl + WINDOW_LEVELS) * delta:
                _advance_window(chain, dist, state, lvl, delta=delta)
                tally["advances"] += 1
            if state.level_size(lvl) == 0:
                continue

            levels_processed += 1
            note = bool(device.handlers("on_annotate"))
            members = np.flatnonzero(state.queue_level == lvl)
            device.annotate("bucket", index=lvl, lo=lo, hi=hi, active=members)
            occupancy = state.sizes[lvl].copy()
            drain = _drain_level(
                solve, state, lvl, delta=delta, tally=tally, note=note,
                level_min=level_min, cell=cell, descriptors=descriptors,
            )
            cell = (cell + 1) % RING
            state.drop_level(lvl)
            if note:
                flr = np.floor(dist.data / delta)
                device.annotate("settled",
                                vertices=np.flatnonzero(flr == lvl))
            row = {"index": lvl, "lo": lo, "hi": hi, "delta": hi - lo,
                   "active": int(members.size), **drain, "aborted": False,
                   "occupancy": occupancy}
            solve.close_bucket(row)
        except ConvergenceError as exc:
            solve.give_up(exc)
            break
        except ABORTS as exc:
            # every finite vertex of the restored checkpoint re-enters
            # through the overflow pile; the next window advance
            # reclassifies them with the normal counted segment
            fin = solve.on_abort(exc)
            state.queues.clear()
            state.sizes.clear()
            state.queue_level[:] = -1
            state.overflow.refill(fin, dist.data[fin])

    solve.finish()
    work = solve.work
    totals = device.counters.totals
    wasted = (
        (work.relaxations - work.valid_updates) / work.relaxations
        if work.relaxations else 0.0
    )
    return solve.result({
        "delta": delta,
        "levels": levels_processed,
        "rounds": tally["rounds"],
        "advances": tally["advances"],
        "stale_pops": tally["stale"],
        "mlmq_steals": int(totals.mlmq_steals),
        "mlmq_stolen_slots": int(totals.mlmq_stolen_slots),
        "wasted_relaxation_ratio": float(wasted),
    })


def _drain_level(
    solve: GPUSolve, state: _QueuePool, lvl: int, *, delta: float,
    tally: dict, note: bool, level_min, cell: int, descriptors,
) -> dict:
    """Drain one level's queues: one segment of the persistent kernel.

    Each micro-round every queue group pops up to :data:`GROUP_CHUNK`
    slots from its own queue; groups whose queue is empty steal
    (ascending group id, deterministically) from the largest remaining
    queue of the level.
    The combined batch is filtered against the level mirror (stale copies
    drop out), relaxed edge-parallel, and the improvements are
    reclassified by one multisplit into :data:`WINDOW_LEVELS` levels ×
    :data:`NUM_QUEUES` queues plus an overflow bucket; parked lanes fold
    into ``level_min[cell]``.  The drained level closes on one device
    barrier, after which the block leaders read that cell and the queue
    ``descriptors`` to choose the next level.  The solve's watchdog
    bounds the rounds.  Returns the level's row fields ``rounds``,
    ``converged``, ``steals``, ``stale`` and ``stolen_slots``.
    """
    device, dgraph, dist = solve.device, solve.dgraph, solve.dist
    watchdog = solve.watchdog(state.level_size(lvl), GROUP_CHUNK * NUM_QUEUES)
    rounds = 0
    stale = 0
    steals = 0
    stolen = 0
    converged = 0
    with solve.chain.segment("mlmq_drain") as k:
        while state.level_size(lvl) > 0:
            tally["rounds"] = solve.tick(
                tally["rounds"], MAX_ROUNDS,
                "MLMQ round limit exceeded; check delta/weights",
                lambda: state.level_size(lvl), delta)
            rounds += 1
            if watchdog is not None:
                watchdog.tick()

            # ---- pop planning: own queues first, then deterministic
            # stealing by the idle groups -----------------------------
            sizes = state.sizes[lvl].tolist()
            take = [min(size, GROUP_CHUNK) for size in sizes]
            remaining = [size - t for size, t in zip(sizes, take)]
            for g in [q for q, t in enumerate(take) if t == 0]:
                # the fullest remaining queue; ties: lowest qid
                victim = max(range(NUM_QUEUES), key=remaining.__getitem__)
                amount = min(GROUP_CHUNK, remaining[victim])
                if amount <= 0:
                    break
                remaining[victim] -= amount
                take[victim] += amount
                steals += 1
                stolen += amount
                k.mlmq_steal(amount)
                if note:
                    device.annotate("mlmq_steal", level=lvl, group=g,
                                    queue=victim, slots=amount)
            state.sizes[lvl] -= take
            popped = np.concatenate([
                pop_oldest(state.queues[lvl][q], take[q])
                for q in range(NUM_QUEUES) if take[q]
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
                a_rel = grid_stride(batch.edge_idx.size, GRID_THREADS)
                out = relax_batch(k, dgraph, dist, valid, batch, a_rel,
                                  solve.stats)
            k.async_round()

            # ---- classification: one multisplit over the improved
            # targets into window x B queue buckets + overflow ---------
            pushed = 0
            if out is not None and out.targets.size:
                upd = out.targets[out.updated]
                if upd.size:
                    pushed = _classify_and_push(
                        k, state, upd, out.new_dist[out.updated], lvl,
                        delta=delta, level_min=level_min, cell=cell,
                    )
            if note:
                device.annotate(
                    "mlmq_round", level=lvl, round=rounds,
                    drained=int(popped.size), valid=int(valid.size),
                    stale=int(popped.size - valid.size), pushed=pushed,
                    pending=state.level_size(lvl),
                )
        k.device_barrier()
        # the next-level choice: one coalesced load of the window's
        # queue-size descriptors, and every block leader reads the
        # overflow level folded into this level's cell
        k.gather(descriptors, _DESCRIPTORS, thread_per_item(_DESCRIPTORS.size))
        controller_step(k, block_leaders(GRID_THREADS // BLOCK), level_min,
                        cell, ops=LEVEL_OPS, reset=np.inf)
    tally["stale"] += stale
    return {"rounds": rounds, "converged": converged, "steals": steals,
            "stale": stale, "stolen_slots": stolen}


def _classify_and_push(
    k, state: _QueuePool, targets: np.ndarray, values: np.ndarray,
    lvl: int, *, delta: float, level_min, cell: int,
) -> int:
    """Multisplit-classify one round's improvements and append them.

    Deduplicates targets first (several edges improving one vertex in one
    pass), then one ballot multisplit groups the winners by
    ``(level offset, queue id)``; in-window buckets append to the
    worklist store, the overflow bucket updates the far-pile mirrors and
    folds its distances into ``level_min[cell]``.
    """
    cand = sorted_unique_ints(targets)
    pos = np.searchsorted(cand, targets)
    dv = np.full(cand.size, np.inf)
    if cand.size == targets.size:
        dv[pos] = values
    else:
        np.minimum.at(dv, pos, values)
    lvl_of = np.floor(dv / delta).astype(np.int64)
    rel = np.clip(lvl_of - lvl, 0, WINDOW_LEVELS)
    # rel == WINDOW_LEVELS lands in the overflow bucket
    keys = np.minimum(rel * NUM_QUEUES + _queue_of(cand), _OVERFLOW_BUCKET)
    a_ms = thread_per_item(cand.size)
    order, offs = k.multisplit(keys, _OVERFLOW_BUCKET + 1, a_ms)

    # in-window buckets, in bucket order.  Live-copy dedup: push only when
    # nothing is queued for the vertex, or the improvement crosses below
    # the queued level (the higher copy goes stale); same-level
    # re-improvements skip the push — the pending pop reads the fresher
    # distance
    win = order[:offs[_OVERFLOW_BUCKET]]
    vs = cand[win]
    cur = state.queue_level[vs]
    sel = (cur == -1) | (lvl + rel[win] < cur)
    vs = vs[sel]
    state.overflow.leave(vs)

    seg = order[offs[_OVERFLOW_BUCKET]:]
    if seg.size:
        over = cand[seg]
        vals = dv[seg]
        free = state.queue_level[over] == -1
        over, vals = over[free], vals[free]
        state.overflow.park(over, vals)
        # the parked lanes of the placement's contiguous overflow tail
        fold_min_filtered(k, vals, thread_per_item(int(vals.size)),
                          level_min, cell)
    return state.push_chunks(k, vs, keys[win][sel], lvl)


def _advance_window(
    chain: PersistentChain, dist, state: _QueuePool, lvl: int, *,
    delta: float,
) -> int:
    """Promote overflow entries into the queue window (counted segment).

    The overflow pile holds each parked vertex's value, so the candidate
    set is known host-side; the segment gathers the authoritative
    distances, reclassifies them by one multisplit, and appends the
    promotions to the worklist store.  It opens level ``lvl``, whose
    drain follows in the same synchronization window.
    """
    bound = (lvl + WINDOW_LEVELS) * delta
    cand = np.flatnonzero(state.overflow.val < bound)
    if cand.size == 0:
        return 0
    with chain.segment("mlmq_advance") as k:
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
        rel = np.clip(lvl_of - lvl, 0, WINDOW_LEVELS - 1)
        keys = rel * NUM_QUEUES + _queue_of(cand)
        order, _offs = k.multisplit(keys, WINDOW_LEVELS * NUM_QUEUES, a)
        state.overflow.leave(cand)
        state.push_chunks(k, cand[order], keys[order], lvl)
    device = chain.device
    if device.handlers("on_annotate"):
        device.annotate("mlmq_advance", level=lvl,
                        promoted=int(cand.size),
                        overflow_remaining=len(state.overflow))
    return int(cand.size)

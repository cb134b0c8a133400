"""Serving-tier chaos: deterministic fault plans, breakers, hedged dispatch.

``repro.faults`` (PR 3) proved the *engine* self-heals under injected
faults; this module lifts the same discipline one level up, to the
serving scheduler.  A :class:`ChaosPlan` scripts infrastructure faults on
the **same simulated millisecond clock** the scheduler already uses:

* :class:`ShardBlackout` — a shard crashes for a window and restarts;
  any exact run dispatched into the window fails at the overlap point;
* :class:`ShardSlowdown` — a shard serves at ``factor×`` service time
  inside a window (a thermally throttled / noisy-neighbor lane);
* :class:`CacheCorruption` — at a scripted instant one resident LRU
  distance field is bit-flipped; the cache's per-entry checksums
  (:class:`repro.serve.cache.DistanceFieldLRU`) detect it on the next
  read and quarantine the entry instead of serving poison;
* :class:`OracleOutage` — the landmark oracle is *decertified* for a
  window (stale landmark data), so the scheduler may not serve its
  bounds even when the bracket is tight.

And the resilience mechanisms that must survive them:

* a per-shard **circuit breaker** (:class:`ShardBreaker`) — ``closed →
  open`` after ``failure_threshold`` consecutive failures, ``open →
  half-open`` when a dispatch probes it after ``breaker_reset_ms`` of
  simulated time, ``half-open → closed`` on a successful probe;
* **hedged retry** — a run whose shard fails mid-service is re-issued
  alone onto the next least-loaded healthy shard from the failure
  instant; the other runs of its batch are untouched;
* the **graceful-degradation ladder** lives in the scheduler: exact →
  relaxed-tolerance certified oracle → explicit deadline shed.  Chaos
  may slow or shed an answer; it must never make one wrong.

Everything is a pure function of ``(plan, dispatch sequence)``: no wall
clock, no RNG.  The same session under the same plan replays the same
failures, hedges and breaker transitions byte-for-byte, which is what
lets ``BENCH_serve-chaos.json`` gate the whole story exactly in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cache import DistanceFieldLRU

__all__ = [
    "ShardBlackout",
    "ShardSlowdown",
    "CacheCorruption",
    "OracleOutage",
    "ChaosPlan",
    "ShardBreaker",
    "ChaosEngine",
    "CHAOS_PLANS",
    "chaos_plan_names",
    "get_chaos_plan",
    "emit_chaos",
]

#: hard cap on dispatch re-tries for one run (termination guard; a
#: finite plan needs far fewer — each attempt advances simulated time)
_MAX_DISPATCH_ATTEMPTS = 10_000


def emit_chaos(name: str, ts_ms: float, **args) -> None:
    """Emit one ``chaos`` event on the active tracer (no-op untraced)."""
    from ..trace import active_tracer

    tracer = active_tracer()
    if tracer is not None:
        tracer.emit("chaos", name, ts_ms, 0.0, device=-1, args=args)


# ---------------------------------------------------------------------------
# fault taxonomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardBlackout:
    """Shard ``shard`` is down on ``[start_ms, end_ms)`` simulated time."""

    shard: int
    start_ms: float
    end_ms: float


@dataclass(frozen=True)
class ShardSlowdown:
    """Shard ``shard`` serves at ``factor×`` time on ``[start_ms, end_ms)``."""

    shard: int
    start_ms: float
    end_ms: float
    factor: float = 4.0


@dataclass(frozen=True)
class CacheCorruption:
    """At ``at_ms`` one resident LRU field is bit-flipped in place.

    ``rank`` selects the victim by recency order (``-1`` = most recently
    used, ``0`` = least recently used); the instant and victim are part
    of the plan, so corruption replays deterministically.
    """

    at_ms: float
    rank: int = -1


@dataclass(frozen=True)
class OracleOutage:
    """The landmark oracle is decertified on ``[start_ms, end_ms)``."""

    start_ms: float
    end_ms: float


@dataclass(frozen=True)
class ChaosPlan:
    """One named, fully scripted serving-tier fault schedule."""

    name: str
    blackouts: tuple[ShardBlackout, ...] = ()
    slowdowns: tuple[ShardSlowdown, ...] = ()
    corruptions: tuple[CacheCorruption, ...] = ()
    outages: tuple[OracleOutage, ...] = ()
    #: consecutive failures that trip a shard's breaker open
    failure_threshold: int = 1
    #: simulated ms an open breaker waits before admitting a probe
    breaker_reset_ms: float = 0.4


#: the shipped plans ``serve --chaos-plan`` accepts
CHAOS_PLANS: dict[str, ChaosPlan] = {
    "blackout": ChaosPlan(
        name="blackout",
        blackouts=(ShardBlackout(shard=0, start_ms=0.2, end_ms=1.6),),
    ),
    "slow-shard": ChaosPlan(
        name="slow-shard",
        slowdowns=(
            ShardSlowdown(shard=1, start_ms=0.3, end_ms=4.0, factor=6.0),
        ),
    ),
    "cache-corruption": ChaosPlan(
        name="cache-corruption",
        corruptions=(
            CacheCorruption(at_ms=0.6),
            CacheCorruption(at_ms=1.5, rank=0),
            CacheCorruption(at_ms=2.5),
        ),
    ),
    "oracle-outage": ChaosPlan(
        name="oracle-outage",
        outages=(OracleOutage(start_ms=0.5, end_ms=2.5),),
    ),
    "mayhem": ChaosPlan(
        name="mayhem",
        blackouts=(ShardBlackout(shard=0, start_ms=0.3, end_ms=1.2),),
        slowdowns=(
            ShardSlowdown(shard=1, start_ms=1.0, end_ms=3.0, factor=4.0),
        ),
        corruptions=(CacheCorruption(at_ms=0.8), CacheCorruption(at_ms=2.0)),
        outages=(OracleOutage(start_ms=1.5, end_ms=2.5),),
    ),
}


def chaos_plan_names() -> list[str]:
    """The plan names ``serve --chaos-plan`` accepts."""
    return sorted(CHAOS_PLANS)


def get_chaos_plan(name: str) -> ChaosPlan:
    """Look up a shipped plan by name (``ValueError`` on unknown)."""
    try:
        return CHAOS_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos plan {name!r}; choose from "
            f"{', '.join(chaos_plan_names())}"
        ) from None


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class ShardBreaker:
    """Per-shard circuit breaker on simulated time.

    States: ``closed`` (dispatch freely) → ``open`` (reject dispatch until
    ``reset_ms`` of simulated time has passed) → ``half-open`` (one probe
    in flight; success closes, failure re-opens).  Transitions happen only
    at dispatch/completion instants, so the state machine is a pure
    function of the dispatch sequence.
    """

    def __init__(self, shard: int, threshold: int, reset_ms: float) -> None:
        self.shard = shard
        self.threshold = max(1, int(threshold))
        self.reset_ms = float(reset_ms)
        self.state = "closed"
        self.failures = 0
        self.opened_at = float("-inf")

    def can_dispatch(self, t: float) -> bool:
        """May a run be placed on this shard at simulated time ``t``?"""
        if self.state == "open":
            return t >= self.opened_at + self.reset_ms
        return True

    def next_ready_ms(self, t: float) -> float:
        """Earliest simulated time >= ``t`` a dispatch could be admitted."""
        if self.state == "open":
            return max(t, self.opened_at + self.reset_ms)
        return t

    def on_dispatch(self, t: float, engine: "ChaosEngine") -> None:
        """A run was placed; an elapsed open breaker becomes a probe."""
        if self.state == "open":
            self.state = "half-open"
            engine.report.breaker_half_opens += 1
            emit_chaos("breaker_half_open", t, shard=self.shard)

    def on_success(self, t: float, engine: "ChaosEngine") -> None:
        if self.state == "half-open":
            self.state = "closed"
            engine.report.breaker_closes += 1
            emit_chaos("breaker_close", t, shard=self.shard)
        self.failures = 0

    def on_failure(self, t: float, engine: "ChaosEngine") -> None:
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.threshold:
            self.state = "open"
            self.opened_at = t
            self.failures = 0
            engine.report.breaker_opens += 1
            emit_chaos("breaker_open", t, shard=self.shard)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


@dataclass
class ChaosEngine:
    """Applies one :class:`ChaosPlan` to a running serve session.

    The scheduler owns the clock and the shard ``busy_until`` ledger; the
    engine owns fault windows, breakers and the chaos counters on the
    session's :class:`~repro.serve.scheduler.ServeReport`.  A clean
    session runs under the empty plan, where :meth:`dispatch` is plain
    least-loaded placement.
    """

    plan: ChaosPlan
    shards: int
    report: object
    breakers: list[ShardBreaker] = field(default_factory=list)
    _next_corruption: int = 0

    def __post_init__(self) -> None:
        self.breakers = [
            ShardBreaker(i, self.plan.failure_threshold, self.plan.breaker_reset_ms)
            for i in range(self.shards)
        ]
        self._corruptions = sorted(
            self.plan.corruptions, key=lambda c: (c.at_ms, c.rank)
        )
        self._blackouts = sorted(
            self.plan.blackouts, key=lambda b: (b.start_ms, b.shard)
        )
        self._slowdowns = sorted(
            self.plan.slowdowns, key=lambda s: (s.start_ms, s.shard)
        )

    # -- scripted fault application ------------------------------------
    def advance(self, now: float, lru: DistanceFieldLRU) -> None:
        """Apply every scripted cache corruption due by simulated ``now``."""
        while (
            self._next_corruption < len(self._corruptions)
            and self._corruptions[self._next_corruption].at_ms <= now
        ):
            ev = self._corruptions[self._next_corruption]
            self._next_corruption += 1
            sources = lru.sources()  # LRU-first order
            if not sources:
                continue
            victim = sources[ev.rank % len(sources)]
            lru.corrupt(victim)
            self.report.corruptions_injected += 1
            emit_chaos("corruption_injected", ev.at_ms, source=int(victim))

    def oracle_decertified(self, t: float) -> bool:
        """Is the landmark oracle inside a decertification window at ``t``?"""
        return any(w.start_ms <= t < w.end_ms for w in self.plan.outages)

    # -- service-time model --------------------------------------------
    def service_end(self, shard: int, start: float, work_ms: float) -> float:
        """Completion time of ``work_ms`` of work started at ``start``.

        Piecewise integration over the shard's slowdown windows: inside a
        window one unit of work takes ``factor`` units of simulated time.
        """
        t = float(start)
        remaining = float(work_ms)
        for w in self._slowdowns:
            if w.shard != shard or remaining <= 0.0 or w.end_ms <= t:
                continue
            if t < w.start_ms:
                gap = w.start_ms - t
                if remaining <= gap:
                    return t + remaining
                t = w.start_ms
                remaining -= gap
            span = w.end_ms - t
            slowed = remaining * w.factor
            if slowed <= span:
                return t + slowed
            t = w.end_ms
            remaining -= span / w.factor
        return t + remaining

    def _blackout_hit(self, shard: int, start: float, end: float) -> float | None:
        """First instant in ``[start, end)`` the shard is blacked out."""
        hits = [
            max(start, b.start_ms)
            for b in self._blackouts
            if b.shard == shard and b.start_ms < end and b.end_ms > start
        ]
        return min(hits) if hits else None

    # -- dispatch with hedged retry ------------------------------------
    def dispatch(
        self, busy_until: list[float], now: float, work_ms: float
    ) -> tuple[int, float]:
        """Place one exact run; returns ``(shard, completion_ms)``.

        Tries the least-loaded shard whose breaker admits dispatch at the
        current instant.  A blackout mid-service fails the attempt at the
        overlap point (the shard's clock still advances to the failure —
        the work was burned), records the failure with the breaker, and
        *hedges*: the run is re-issued from the failure instant onto the
        next candidate.  When no breaker admits dispatch, simulated time
        advances to the earliest breaker reset (which then runs as a
        half-open probe).
        """
        t = float(now)
        excluded: set[int] = set()
        for _ in range(_MAX_DISPATCH_ATTEMPTS):
            ready = [
                i
                for i in range(len(busy_until))
                if i not in excluded and self.breakers[i].can_dispatch(t)
            ]
            if not ready:
                # every shard is excluded or open: wait for the earliest
                # breaker reset and probe from scratch
                t = min(
                    self.breakers[i].next_ready_ms(t)
                    for i in range(len(busy_until))
                )
                excluded.clear()
                continue
            shard = min(ready, key=lambda i: (busy_until[i], i))
            breaker = self.breakers[shard]
            breaker.on_dispatch(t, self)
            start = max(t, busy_until[shard])
            end = self.service_end(shard, start, work_ms)
            fail_at = self._blackout_hit(shard, start, end)
            if fail_at is None:
                busy_until[shard] = end
                breaker.on_success(end, self)
                return shard, end
            busy_until[shard] = fail_at
            self.report.shard_failures += 1
            emit_chaos("shard_failure", fail_at, shard=shard)
            breaker.on_failure(fail_at, self)
            self.report.hedges += 1
            emit_chaos("hedge", fail_at, shard_from=shard)
            excluded.add(shard)
            t = fail_at
        raise RuntimeError(
            f"chaos plan {self.plan.name!r}: run could not be placed after "
            f"{_MAX_DISPATCH_ATTEMPTS} attempts (unbounded blackout?)"
        )

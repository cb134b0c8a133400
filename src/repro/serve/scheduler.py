"""The request scheduler: admission, batching, sharding, answer policy.

``serve_traffic`` plays one deterministic traffic session against a
graph: queries arrive on the simulated clock, and each is answered by the
cheapest layer that can serve it correctly:

1. **coalescing** — the source's distance field is already being computed
   by an in-flight run: the query waits for that run, no new work;
2. **distance-field cache** — an exact field for the source is resident
   in the byte-capped LRU: answer immediately (exact);
3. **landmark oracle** — point-to-point queries whose ALT bracket proves
   the declared tolerance (:func:`repro.serve.oracle.certified_answer`)
   are answered approximately with zero graph traversal;
4. **exact fallback** — everything else queues into a batching window;
   each distinct source of a flushed batch runs as its own solve (the
   paper's §5.1.3 batch protocol) on the shard that frees first, and
   each query is answered when its own source's run ends.

Shards model independent simulated-GPU lanes: each exact run occupies
one lane for its run time, so queueing delay, load imbalance and tail
latency all emerge from the same deterministic clock the simulator
itself uses.  With ``plan`` set, every exact run executes under that
fault plan with the self-healing runtime on (:mod:`repro.faults`), and
the report counts any escaped fault.

With ``chaos`` set (a :mod:`repro.serve.chaos` plan name) the *serving
tier itself* is attacked on the same simulated clock — shard blackouts
and slowdowns, cache corruption, oracle decertification — and survived
through hedged retry, per-shard circuit breakers and checksum
quarantine; with ``deadline_ms > 0`` every request walks a
graceful-degradation ladder (exact → relaxed-tolerance certified oracle
→ explicit shed) instead of missing its deadline silently.  Both knobs
default off: a clean session runs under the empty chaos plan, where no
run fails and dispatch is plain least-loaded placement.

Everything observable — latencies, hit/fallback counters, aggregated
device counters, LRU statistics — is a pure function of
``(graph, ServeConfig)``, which is what lets ``BENCH_serve.json`` gate
the whole serving layer exactly in CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..graphs.csr import CSRGraph
from ..gpusim.counters import KernelCounters
from ..sssp.api import sssp
from ..sssp.validate import DistanceMismatch, scipy_distances, validate_distances
from .cache import DistanceFieldLRU
from .chaos import ChaosEngine, ChaosPlan, emit_chaos, get_chaos_plan
from .oracle import certified_answer, warm_oracle
from .workload import Query, ServeConfig, generate_queries

__all__ = ["ServeReport", "serve_traffic", "ORACLE_LATENCY_MS", "CACHE_LATENCY_MS"]

#: simulated host cost of answering from the O(k) landmark oracle
ORACLE_LATENCY_MS = 0.002
#: simulated host cost of answering from the resident LRU field
CACHE_LATENCY_MS = 0.001

#: validation slack on exact answers (matches validate_distances defaults)
_EXACT_ATOL = 1e-6
_EXACT_RTOL = 1e-9


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile on a pre-sorted list (deterministic)."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[idx]


@dataclass
class ServeReport:
    """Everything one traffic session measured.

    All fields except ``host_seconds`` are deterministic simulator
    quantities; :meth:`counter_dict` flattens them into the exact-gated
    ``counters`` mapping of a bench record.
    """

    graph_name: str
    config: ServeConfig
    queries: int = 0
    p2p_queries: int = 0
    single_source_queries: int = 0
    oracle_hits: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    fallbacks: int = 0
    exact_runs: int = 0
    batches: int = 0
    #: simulated ms of landmark preprocessing (offline, before t=0)
    warmup_ms: float = 0.0
    #: completion time of the last answer (simulated ms)
    makespan_ms: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    #: each shard's ``busy_until`` clock at session end: the simulated ms
    #: its last exact run ended (idle gaps included, so not busy time)
    shard_busy_ms: list[float] = field(default_factory=list)
    #: answers that failed validation against the SciPy oracle
    wrong: int = 0
    #: fault-injection tallies summed over exact runs (plan sessions)
    faults_injected: int = 0
    faults_corrected: int = 0
    faults_escaped: int = 0
    #: serving-tier chaos tallies (chaos plan / deadline sessions only)
    hedges: int = 0
    shard_failures: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    corruptions_injected: int = 0
    oracle_refusals: int = 0
    #: degradation-ladder tallies (deadline sessions only)
    degraded: int = 0
    shed: int = 0
    slo_violations: int = 0
    #: device counters of the exact fallback runs, merged (None until a
    #: run reports counters)
    device_counters: KernelCounters | None = None
    cache_stats: dict[str, int] = field(default_factory=dict)
    #: True when the oracle bundle came from the persistent artifact cache
    oracle_artifact_hit: bool = False
    #: wall-clock seconds of the whole session (noisy; never gated)
    host_seconds: float = 0.0

    # ------------------------------------------------------------------
    @property
    def qps(self) -> float:
        """Sustained queries per *simulated* second."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.queries / (self.makespan_ms / 1e3)

    @property
    def ok(self) -> bool:
        """No wrong answer and no escaped fault."""
        return self.wrong == 0 and self.faults_escaped == 0

    def _sorted_latencies(self) -> list[float]:
        return sorted(self.latencies_ms)

    @property
    def p50_ms(self) -> float:
        return _percentile(self._sorted_latencies(), 0.50)

    @property
    def p99_ms(self) -> float:
        return _percentile(self._sorted_latencies(), 0.99)

    @property
    def max_latency_ms(self) -> float:
        return max(self.latencies_ms) if self.latencies_ms else 0.0

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)

    def counter_dict(self) -> dict[str, float]:
        """The deterministic counter mapping of this session's record."""
        counters: dict[str, float] = {
            "serve.queries": float(self.queries),
            "serve.p2p_queries": float(self.p2p_queries),
            "serve.single_source_queries": float(self.single_source_queries),
            "serve.oracle_hits": float(self.oracle_hits),
            "serve.cache_hits": float(self.cache_hits),
            "serve.coalesced": float(self.coalesced),
            "serve.fallbacks": float(self.fallbacks),
            "serve.exact_runs": float(self.exact_runs),
            "serve.batches": float(self.batches),
            "serve.warmup_ms": float(self.warmup_ms),
            "serve.qps": float(self.qps),
            "serve.p50_ms": float(self.p50_ms),
            "serve.p99_ms": float(self.p99_ms),
            "serve.max_latency_ms": float(self.max_latency_ms),
            "serve.wrong": float(self.wrong),
            "serve.faults_injected": float(self.faults_injected),
            "serve.faults_corrected": float(self.faults_corrected),
            "serve.faults_escaped": float(self.faults_escaped),
            "serve.lru_evictions": float(self.cache_stats.get("evictions", 0)),
            "serve.lru_bytes": float(self.cache_stats.get("bytes", 0)),
        }
        for i, busy in enumerate(self.shard_busy_ms):
            counters[f"serve.shard{i}_busy_ms"] = float(busy)
        if self.config.chaos is not None or self.config.deadline_ms > 0:
            counters["serve.hedges"] = float(self.hedges)
            counters["serve.shard_failures"] = float(self.shard_failures)
            counters["serve.breaker_opens"] = float(self.breaker_opens)
            counters["serve.breaker_half_opens"] = float(
                self.breaker_half_opens
            )
            counters["serve.breaker_closes"] = float(self.breaker_closes)
            counters["serve.corruptions_injected"] = float(
                self.corruptions_injected
            )
            counters["serve.corruptions_detected"] = float(
                self.cache_stats.get("corrupted", 0)
            )
            counters["serve.oracle_refusals"] = float(self.oracle_refusals)
            counters["serve.degraded"] = float(self.degraded)
            counters["serve.shed"] = float(self.shed)
            counters["serve.slo_violations"] = float(self.slo_violations)
        if self.device_counters is not None:
            for name, value in self.device_counters.as_dict().items():
                counters[name] = float(value)
        return counters

    def summary(self) -> str:
        """Terminal digest (the ``cli serve`` body)."""
        c = self.config
        lines = [
            f"session : {self.queries} queries "
            f"({self.p2p_queries} p2p / {self.single_source_queries} "
            f"single-source), seed {c.seed}, {c.shards} shard(s)"
            + (f", plan={c.plan}" if c.plan else ""),
            f"policy  : tolerance {c.tolerance:g}, {c.landmarks} landmark(s) "
            f"(warmup {self.warmup_ms:.3f} ms"
            + (", artifact hit)" if self.oracle_artifact_hit else ")"),
            f"answers : {self.oracle_hits} oracle, {self.cache_hits} cached, "
            f"{self.coalesced} coalesced, {self.fallbacks} exact "
            f"({self.exact_runs} run(s) in {self.batches} batch(es))",
            f"latency : p50 {self.p50_ms:.4f} ms, p99 {self.p99_ms:.4f} ms, "
            f"max {self.max_latency_ms:.4f} ms (simulated)",
            f"traffic : {self.qps:,.0f} queries/s over "
            f"{self.makespan_ms:.3f} ms makespan",
        ]
        if c.plan:
            lines.append(
                f"faults  : {self.faults_injected} injected, "
                f"{self.faults_corrected} corrected, "
                f"{self.faults_escaped} escaped"
            )
        if c.chaos is not None or c.deadline_ms > 0:
            lines.append(
                f"chaos   : plan {c.chaos or 'none'}"
                + (f", deadline {c.deadline_ms:g} ms" if c.deadline_ms > 0
                   else "")
                + f" — {self.hedges} hedge(s), breaker "
                f"{self.breaker_opens}/{self.breaker_half_opens}/"
                f"{self.breaker_closes} open/probe/close, "
                f"{self.corruptions_injected} corruption(s) injected "
                f"({self.cache_stats.get('corrupted', 0)} detected), "
                f"{self.oracle_refusals} oracle refusal(s)"
            )
        if c.deadline_ms > 0:
            lines.append(
                f"ladder  : {self.degraded} degraded, {self.shed} shed, "
                f"{self.slo_violations} SLO violation(s)"
            )
        lines.append(
            f"verdict : {self.wrong} wrong answer(s) — "
            + ("ok ✓" if self.ok else "FAILED")
        )
        return "\n".join(lines)


class _Session:
    """Mutable state of one ``serve_traffic`` run."""

    def __init__(self, graph: CSRGraph, config: ServeConfig, spec, validate: bool):
        if config.shards < 1:
            raise ValueError("shards must be >= 1")
        if config.max_batch_sources < 1:
            raise ValueError("max_batch_sources must be >= 1")
        if config.deadline_ms < 0:
            raise ValueError("deadline_ms must be >= 0")
        self.graph = graph
        self.config = config
        self.spec = spec
        self.validate = validate
        self.report = ServeReport(graph_name=graph.name, config=config)
        plan = ChaosPlan("none")
        if config.chaos is not None:
            plan = get_chaos_plan(config.chaos)
        self.chaos = ChaosEngine(plan, config.shards, self.report)
        # checksums only under a chaos plan: a clean session's cache
        # counters carry no checksum work
        self.lru = DistanceFieldLRU(
            config.cache_bytes,
            checksums=config.chaos is not None,
            on_corruption=self._on_cache_corruption,
        )
        self.deadline_active = config.deadline_ms > 0
        self.oracle = None
        self._now = 0.0
        self.busy_until = [0.0] * config.shards
        self.pending: list[Query] = []
        self.pending_deadline = float("inf")
        #: source -> completion time of the run computing its field
        self.inflight: dict[int, float] = {}
        #: sources whose full field already passed host validation
        self.validated: set[int] = set()
        self.last_completion = 0.0
        self.run_index = 0

    # -- tracing -------------------------------------------------------
    def _trace(self, outcome: str, q: Query, latency: float, **extra) -> None:
        from ..trace import active_tracer

        tracer = active_tracer()
        if tracer is None:
            return
        args = {
            "qid": q.qid,
            "source": q.source,
            "target": q.target,
            "outcome": outcome,
        }
        args.update(extra)
        tracer.emit("serve", outcome, q.t_ms, latency, device=-1, args=args)

    def _on_cache_corruption(self, source: int) -> None:
        """Checksum mismatch callback: trace the quarantine instant."""
        emit_chaos("corruption_detected", self._now, source=int(source))

    # -- answering -----------------------------------------------------
    def _complete(self, q: Query, outcome: str, latency: float,
                  answer: float, **extra) -> None:
        r = self.report
        r.latencies_ms.append(latency)
        self.last_completion = max(self.last_completion, q.t_ms + latency)
        self._trace(outcome, q, latency, **extra)
        if self.validate and q.is_p2p and not np.isnan(answer):
            exact = float(scipy_distances(self.graph, q.source)[q.target])
            if outcome == "oracle":
                tol = self.config.tolerance
            elif outcome == "degraded":
                tol = self.config.relaxed_tolerance
            else:
                tol = _EXACT_RTOL
            if not np.isclose(answer, exact, rtol=tol, atol=_EXACT_ATOL):
                r.wrong += 1

    def _validate_field(self, source: int, dist: np.ndarray) -> None:
        """Full-field host validation, once per distinct source."""
        if not self.validate or source in self.validated:
            return
        self.validated.add(source)
        try:
            validate_distances(self.graph, source, dist)
        except DistanceMismatch:
            self.report.wrong += 1

    # -- exact execution ----------------------------------------------
    def _exact_run(self, source: int):
        """One exact run; returns ``(dist, simulated_ms)``."""
        cfg = self.config
        r = self.report
        kwargs = {"spec": self.spec} if self.spec is not None else {}
        if cfg.plan:
            from ..faults import faulty_sssp

            result, rep = faulty_sssp(
                self.graph, source, method=cfg.method, plan=cfg.plan,
                seed=cfg.seed * 1000 + self.run_index, recovery=True,
                **kwargs,
            )
            r.faults_injected += rep.injected
            r.faults_corrected += rep.corrected
            r.faults_escaped += rep.escaped
        else:
            result = sssp(self.graph, source, method=cfg.method, **kwargs)
        self.run_index += 1
        if result.counters is not None:
            if r.device_counters is None:
                r.device_counters = KernelCounters()
            r.device_counters.merge(result.counters.totals)
        return result.dist, result.time_ms

    # -- graceful degradation ------------------------------------------
    def _degrade_or_shed(self, q: Query, decided_at: float) -> None:
        """Ladder rungs 2–3 for a request that cannot make its deadline.

        Rung 2: a relaxed-tolerance certified oracle answer (p2p only,
        and only while the oracle is not decertified) — degraded but
        still provably within ``relaxed_tolerance``.  Rung 3: explicit
        shed at the deadline, counted and SLO-accounted.  The ladder
        never produces a silently wrong answer.
        """
        cfg = self.config
        r = self.report
        if q.is_p2p and not self.chaos.oracle_decertified(decided_at):
            answer = certified_answer(
                self.oracle, q.source, q.target, cfg.relaxed_tolerance
            )
            if answer is not None:
                latency = max(ORACLE_LATENCY_MS, decided_at - q.t_ms)
                r.degraded += 1
                self._complete(q, "degraded", latency, answer)
                return
        deadline = q.t_ms + cfg.deadline_ms
        r.shed += 1
        r.slo_violations += 1
        self.last_completion = max(self.last_completion, deadline)
        self._trace("shed", q, cfg.deadline_ms)
        emit_chaos(
            "shed", deadline, qid=q.qid, source=q.source, target=q.target
        )

    def _flush(self, now: float) -> None:
        """Run each distinct pending source on its own; answer each query
        when its own source's run ends."""
        if not self.pending:
            return
        cfg = self.config
        r = self.report
        runs: dict[int, tuple[np.ndarray, int, float]] = {}
        for source in dict.fromkeys(q.source for q in self.pending):
            dist, run_ms = self._exact_run(source)
            shard, t_end = self.chaos.dispatch(self.busy_until, now, run_ms)
            runs[source] = (dist, shard, t_end)
            self.inflight[source] = t_end
            self.lru.put(source, dist)
            self._validate_field(source, dist)
        r.batches += 1
        r.exact_runs += len(runs)
        for q in self.pending:
            dist, shard, t_end = runs[q.source]
            if self.deadline_active and t_end > q.t_ms + cfg.deadline_ms:
                self._degrade_or_shed(q, q.t_ms + cfg.deadline_ms)
                continue
            answer = float(dist[q.target]) if q.is_p2p else float("nan")
            r.fallbacks += 1
            self._complete(q, "exact", t_end - q.t_ms, answer, shard=shard)
        self.pending.clear()
        self.pending_deadline = float("inf")

    # -- admission -----------------------------------------------------
    def admit(self, q: Query, oracle) -> None:
        cfg = self.config
        r = self.report
        self._now = q.t_ms
        self.chaos.advance(q.t_ms, self.lru)
        r.queries += 1
        if q.is_p2p:
            r.p2p_queries += 1
        else:
            r.single_source_queries += 1

        # 1) coalesce onto an in-flight run computing this source
        done_at = self.inflight.get(q.source)
        if done_at is not None and q.t_ms < done_at:
            field_arr = self.lru.peek(q.source)
            if field_arr is not None:
                latency = (done_at - q.t_ms) + CACHE_LATENCY_MS
                if self.deadline_active and latency > cfg.deadline_ms:
                    # waiting for the in-flight run would blow the
                    # deadline, and re-running would not be faster
                    self._degrade_or_shed(q, q.t_ms)
                    return
                answer = (
                    float(field_arr[q.target]) if q.is_p2p else float("nan")
                )
                r.coalesced += 1
                self._complete(q, "coalesced", latency, answer)
                return

        # 2) resident exact field in the LRU
        field_arr = self.lru.get(q.source)
        if field_arr is not None:
            answer = float(field_arr[q.target]) if q.is_p2p else float("nan")
            r.cache_hits += 1
            self._complete(q, "cache", CACHE_LATENCY_MS, answer)
            return

        # 3) landmark oracle, for p2p queries the bracket certifies —
        #    unless a chaos outage has decertified the landmark data
        if q.is_p2p:
            if self.chaos.oracle_decertified(q.t_ms):
                r.oracle_refusals += 1
            else:
                answer = certified_answer(
                    oracle, q.source, q.target, cfg.tolerance
                )
                if answer is not None:
                    r.oracle_hits += 1
                    self._complete(q, "oracle", ORACLE_LATENCY_MS, answer)
                    return

        # 4) exact fallback through the batching window
        if not self.pending:
            self.pending_deadline = q.t_ms + cfg.batch_window_ms
        self.pending.append(q)
        distinct = len({p.source for p in self.pending})
        if distinct >= cfg.max_batch_sources:
            self._flush(q.t_ms)


def serve_traffic(
    graph: CSRGraph,
    config: ServeConfig,
    *,
    spec=None,
    validate: bool = True,
) -> ServeReport:
    """Play one deterministic traffic session; returns its report.

    ``validate=True`` (the default, and what CI's smoke gate runs)
    checks every point-to-point answer and every exact distance field
    against the SciPy oracle; a violation increments ``report.wrong``
    rather than raising, so the CLI can exit nonzero with the full
    report printed.
    """
    t0 = time.perf_counter()
    session = _Session(graph, config, spec, validate)
    report = session.report

    warm = warm_oracle(graph, config, spec=spec)
    session.oracle = warm.oracle
    report.warmup_ms = warm.warmup_ms
    report.oracle_artifact_hit = warm.artifact_hit
    # landmark fields are exact full fields: seed the LRU with them
    for i, lm in enumerate(warm.oracle.landmarks):
        session.lru.put(int(lm), warm.oracle.dist_matrix[i])

    queries = generate_queries(graph, config)
    for q in queries:
        while session.pending and q.t_ms >= session.pending_deadline:
            session._flush(session.pending_deadline)
        session.admit(q, warm.oracle)
    if session.pending:
        session._flush(
            min(session.pending_deadline, max(q.t_ms for q in session.pending)
                + config.batch_window_ms)
        )

    report.makespan_ms = max(
        session.last_completion, queries[-1].t_ms if queries else 0.0
    )
    report.shard_busy_ms = [float(b) for b in session.busy_until]
    report.cache_stats = session.lru.stats()
    report.host_seconds = time.perf_counter() - t0
    return report

"""Set-up, timed passes and metric assembly for one workload.

A run is: set-up (repeated, median reported), one untimed solve per
engine to warm every code path, an untraced pass of :data:`ROUNDS` timed
rounds (more while ``--seconds`` have not elapsed), and with ``--trace 1``
one more round with every layer wrapped by
:class:`~perfbench.layers.HostTracer`.  Round ``r`` solves every
``ROUNDS``-th source of the sweep from the ``r``-th, then plays its own
serve session; rounds past the first ``ROUNDS`` repeat them in turn.  The
simulated metrics cover the first ``ROUNDS`` rounds, the whole sweep and
every session; ``host_s`` is the median round.

Host time excludes validation: sweep solves are validated against SciPy
after their clock stops, and the serve session's SciPy checks are timed
by the ``validate`` hooks and subtracted from its wall time.  Simulated
quantities are pure functions of the inputs, so every repeat of a round —
traced or not — must reproduce its fingerprint exactly.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .layers import LAYERS, SCHEDULER_HOOKS, VALIDATION_HOOKS, HostTracer
from .ledger import LEDGER_PARTS, LedgerError, dram_transactions, ledger_ms
from .workloads import METHODS, Workload

__all__ = [
    "BenchFailure",
    "MIN_TAIL_SAMPLES",
    "Outcome",
    "Prepared",
    "ROUNDS",
    "Round",
    "SETUP_REPEATS",
    "prepare",
    "run_round",
    "run_workload",
    "tail_percentile",
]

#: samples that must lie beyond a reported tail percentile
MIN_TAIL_SAMPLES = 10

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: timed rounds a run splits its sweep and sessions into
ROUNDS = 3


class BenchFailure(RuntimeError):
    """The benchmark itself is inconsistent (not a solver failure)."""


def _rank(n: int, q: float) -> int:
    """Nearest-rank index of the ``q``-percentile of ``n`` sorted samples,
    the serving scheduler's convention."""
    return min(n - 1, int(q * (n - 1) + 0.5))


def tail_percentile(values: list[float], q: float) -> float:
    """``q``-percentile, refusing one with fewer than ten samples beyond it."""
    n = len(values)
    beyond = n - 1 - _rank(n, q) if n else 0
    if beyond < MIN_TAIL_SAMPLES:
        raise BenchFailure(
            f"p{q * 100:g} over {n} samples has {beyond} beyond it;"
            f" need {MIN_TAIL_SAMPLES}"
        )
    return sorted(values)[_rank(n, q)]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    """Everything built before the first timed call."""

    graph: object
    spec: object
    sources: list[int]
    #: one session config per round, each with its own traffic seed
    serve_configs: list
    graph_s: float
    warm_s: float


def _serve_config(workload: Workload, graph, seed: int):
    from repro.serve.workload import ServeConfig

    fields = dict(workload.serve)
    cache_fields = fields.pop("cache_fields", None)
    if cache_fields is not None:
        fields["cache_bytes"] = int(cache_fields) * graph.num_vertices * 8
    return ServeConfig(seed=seed, **fields)


def prepare(workload: Workload, seed: int, cache_root: Path) -> Prepared:
    """Build the graph and fill an empty artifact cache at ``cache_root``.

    Fills every artifact the timed passes read — the graph, its largest
    component, the PRO reordering, the serve oracle bundles and the SciPy
    reference fields of every source the sweep or a session validates —
    so the timed region runs on cache hits only.
    """
    from repro.bench import datasets
    from repro.perf import artifacts
    from repro.reorder.pipeline import apply_pro
    from repro.serve.oracle import warm_oracle
    from repro.serve.workload import generate_queries
    from repro.sssp.gpu_rdbs import default_delta
    from repro.sssp.validate import scipy_distances

    if workload.sources % ROUNDS:
        raise ValueError(f"{workload.name}: sources must split into {ROUNDS} rounds")
    # the dataset registry memoizes graphs and components per process;
    # clear it so every set-up builds them into its own empty cache
    datasets.get_graph.cache_clear()
    datasets._component_cache.cache_clear()
    artifacts.configure_cache(cache_root)
    t0 = time.perf_counter()
    graph = datasets.get_graph(workload.graph)
    t1 = time.perf_counter()
    spec = datasets.benchmark_spec()
    sources = datasets.pick_sources(workload.graph, workload.sources, seed)
    configs = [
        _serve_config(workload, graph, seed * ROUNDS + r) for r in range(ROUNDS)
    ]
    apply_pro(graph, default_delta(graph))
    checked = set(sources)
    for config in configs:
        warm = warm_oracle(graph, config, spec=spec)
        checked |= {q.source for q in generate_queries(graph, config)}
        checked |= {int(v) for v in warm.oracle.landmarks}
    for s in sorted(checked):
        scipy_distances(graph, s)
    t2 = time.perf_counter()
    return Prepared(graph, spec, sources, configs, t1 - t0, t2 - t1)


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------


@dataclass
class Solve:
    method: str
    source: int
    time_ms: float
    host_s: float
    totals: object
    ledger: dict[str, float]
    update_ratio: float


@dataclass
class Round:
    """What one sweep slice + session measured."""

    #: which of the :data:`ROUNDS` slices this round ran
    index: int
    solves: list[Solve] = field(default_factory=list)
    report: object = None
    sweep_host_s: float = 0.0
    session_host_s: float = 0.0
    session_wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def host_s(self) -> float:
        return self.sweep_host_s + self.session_host_s

    def fingerprint(self) -> tuple:
        """Every simulated quantity of the round, for exact comparison."""
        solves = tuple(
            (s.method, s.source, s.time_ms, tuple(s.totals.as_dict().items()))
            for s in self.solves
        )
        serve = (
            tuple(self.report.counter_dict().items()),
            tuple(self.report.latencies_ms),
        )
        return self.index, solves, serve


def warm_up(prep: Prepared) -> None:
    """One untimed solve per engine, so no engine's first call is timed."""
    from repro.sssp.api import sssp

    for method in METHODS:
        sssp(prep.graph, prep.sources[0], method=method, spec=prep.spec)


def run_round(prep: Prepared, index: int, tracer: HostTracer) -> Round:
    """Sweep slice ``index``, then its serve session, under ``tracer``'s hooks."""
    from repro.serve.scheduler import serve_traffic
    from repro.sssp.api import sssp
    from repro.sssp.validate import DistanceMismatch, validate_distances

    out = Round(index)
    for method in METHODS:
        for source in prep.sources[index::ROUNDS]:
            out.attempted += 1
            try:
                with tracer.span("engine"):
                    t0 = time.perf_counter()
                    r = sssp(prep.graph, source, method=method, spec=prep.spec)
                    dt = time.perf_counter() - t0
            except Exception as exc:  # a raised solver error is a failed op
                out.failed += 1
                out.errors.append(f"{method} from {source}: {exc!r}")
                continue
            out.sweep_host_s += dt
            try:
                validate_distances(prep.graph, source, r.dist)
            except DistanceMismatch as exc:
                out.failed += 1
                out.errors.append(f"{method} from {source}: {exc}")
            totals = r.counters.totals
            try:
                ledger = ledger_ms(totals, prep.spec, r.time_ms)
            except LedgerError as exc:
                raise BenchFailure(f"{method} from {source}: {exc}") from None
            out.solves.append(Solve(
                method, source, r.time_ms, dt, totals, ledger,
                r.work.update_ratio,
            ))

    validate_before = tracer.total["validate"]
    with tracer.span("serve.session"):
        t0 = time.perf_counter()
        report = serve_traffic(prep.graph, prep.serve_configs[index], spec=prep.spec)
        wall = time.perf_counter() - t0
    out.report = report
    out.session_wall_s = wall
    out.session_host_s = wall - (tracer.total["validate"] - validate_before)
    out.attempted += report.queries
    bad = report.wrong + report.shed + report.faults_escaped
    if bad:
        out.failed += bad
        out.errors.append(
            f"serve: {report.wrong} wrong, {report.shed} shed, "
            f"{report.faults_escaped} escaped"
        )
    return out


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Metrics of one run plus its correctness tally."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    errors: list[str]
    notes: list[str]


def _median(values) -> float:
    return statistics.median(list(values))


def _mean(values) -> float:
    return statistics.fmean(list(values))


def _check_telemetry_off() -> None:
    from repro.perf.profile import active_profiler
    from repro.trace import active_tracer

    if active_profiler() is not None or active_tracer() is not None:
        raise BenchFailure("repro.trace / perf.profile must be off while timing")


def _end_to_end(rounds: list[Round], setup_s: list[float]) -> dict:
    timed = rounds[:ROUNDS]
    m: dict[str, float] = {}
    for method in METHODS:
        m[f"{method}.sim_ms"] = _mean(
            s.time_ms for r in timed for s in r.solves if s.method == method
        )
    latencies = [ms for r in timed for ms in r.report.latencies_ms]
    m["serve.p50_ms"] = tail_percentile(latencies, 0.50)
    m["serve.p95_ms"] = tail_percentile(latencies, 0.95)
    m["host_s"] = _median(r.host_s for r in rounds)
    m["setup_s"] = _median(setup_s)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def _per_method(rounds: list[Round]) -> dict:
    m: dict[str, float] = {}
    for method in METHODS:
        solves = [s for r in rounds[:ROUNDS] for s in r.solves if s.method == method]
        n = len(solves)
        for part in LEDGER_PARTS:
            m[f"{method}.sim.{part}_ms"] = sum(s.ledger[part] for s in solves) / n
        tot = [s.totals for s in solves]
        m[f"{method}.kernel_launches"] = sum(t.kernel_launches for t in tot) / n
        m[f"{method}.barriers"] = sum(t.barriers for t in tot) / n
        m[f"{method}.atomic_conflicts"] = sum(t.atomic_conflicts for t in tot) / n
        m[f"{method}.warp_insts"] = sum(t.total_warp_instructions for t in tot) / n
        m[f"{method}.dram_transactions"] = sum(dram_transactions(t) for t in tot) / n
        accesses = sum(t.l1_accesses for t in tot)
        m[f"{method}.l1_hit_rate"] = (
            sum(t.l1_hits for t in tot) / accesses if accesses else 0.0
        )
        m[f"{method}.simt_efficiency"] = (
            sum(t.active_lanes for t in tot) / sum(t.lane_slots for t in tot)
        )
        m[f"{method}.update_ratio"] = _mean(s.update_ratio for s in solves)
        per_round = [[s for s in r.solves if s.method == method] for r in rounds]
        m[f"{method}.host_s"] = _median(_mean(s.host_s for s in h) for h in per_round)
        m[f"{method}.host_us_per_launch"] = _median(
            sum(s.host_s for s in h) / sum(s.totals.kernel_launches for s in h) * 1e6
            for h in per_round
        )
    return m


def _per_layer(
    rounds: list[Round], traced: Round, tracer: HostTracer,
    prep_list: list[Prepared], timed_misses: int,
) -> dict:
    m = _per_method(rounds)
    st, tot, calls = tracer.self_time, tracer.total, tracer.calls
    m["host.launch_s"] = tot["launch"]
    m["host.launch_self_s"] = st["launch"]
    m["host.engine_s"] = st["engine"] + st["serve.exact"]
    for layer in ("coalesce", "cache_stream", "multisplit", "sort", "atomic",
                  "accounting", "pro"):
        m[f"host.{layer}_s"] = st[layer]
        m[f"calls.{layer}"] = calls[layer]
    m["calls.launch"] = calls["launch"]
    m["calls.engine"] = calls["engine"] + calls["serve.exact"]
    m["setup.graph_s"] = _median(p.graph_s for p in prep_list)
    m["setup.warm_s"] = _median(p.warm_s for p in prep_list)
    m["artifacts.timed_misses"] = timed_misses
    reports = [r.report for r in rounds[:ROUNDS]]
    m["serve.cache_hit_frac"] = (
        sum(x.cache_hits for x in reports) / sum(x.queries for x in reports)
    )
    m["serve.exact_runs"] = sum(x.exact_runs for x in reports)
    m["serve.shard_busy_max_ms"] = max(max(x.shard_busy_ms) for x in reports)
    m["serve.batches"] = sum(x.batches for x in reports)
    m["serve.coalesced"] = sum(x.coalesced for x in reports)
    m["serve.oracle_hits"] = sum(x.oracle_hits for x in reports)
    m["serve.warmup_ms"] = sum(x.warmup_ms for x in reports)
    m["serve.host.exact_s"] = tot["serve.exact"]
    m["serve.host.sched_s"] = (
        traced.session_wall_s - tot["serve.exact"] - tot["validate"]
    )
    untraced = _median(r.host_s for r in rounds if r.index == traced.index)
    m["trace.overhead_frac"] = traced.host_s / untraced - 1
    return m


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, cache_dir: Path,
) -> Outcome:
    """Set up, warm up, time, optionally trace, and assemble the metrics."""
    from repro.perf import artifacts

    prep_list = [
        prepare(workload, seed, cache_dir / f"setup-{i}")
        for i in range(SETUP_REPEATS)
    ]
    setup_s = [p.graph_s + p.warm_s for p in prep_list]
    prep = prep_list[-1]
    cache = artifacts.get_cache()
    misses_before = cache.misses

    _check_telemetry_off()
    warm_up(prep)
    rounds: list[Round] = []
    t_start = time.perf_counter()
    while len(rounds) < ROUNDS or time.perf_counter() - t_start < seconds:
        hooks = HostTracer()
        with hooks.attached({}, VALIDATION_HOOKS, launch=False):
            rounds.append(run_round(prep, len(rounds) % ROUNDS, hooks))
    fingerprints = [r.fingerprint() for r in rounds[:ROUNDS]]
    for r in rounds[ROUNDS:]:
        if r.fingerprint() != fingerprints[r.index]:
            raise BenchFailure("simulated results differ between repeats of a round")
    notes: list[str] = [f"{len(rounds)} untraced round(s)"]

    traced = tracer = None
    if trace:
        tracer = HostTracer()
        with tracer.attached(LAYERS, SCHEDULER_HOOKS):
            traced = run_round(prep, 0, tracer)
        if traced.fingerprint() != fingerprints[0]:
            raise BenchFailure("tracing changed a simulated result")
    timed_misses = cache.misses - misses_before

    all_rounds = rounds + ([traced] if traced is not None else [])
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    errors = [e for r in all_rounds for e in r.errors]
    if timed_misses:
        errors.append(f"{timed_misses} artifact miss(es) after set-up")

    n = sum(len(r.report.latencies_ms) for r in rounds[:ROUNDS])
    notes.append(
        f"serve: {n} latency samples over {ROUNDS} sessions, "
        f"{n - 1 - _rank(n, 0.95)} beyond p95"
    )
    for r in rounds[:ROUNDS]:
        report = r.report
        notes.append(
            f"round {r.index} host: sweep {r.sweep_host_s:.2f} s, session "
            f"{r.session_host_s:.2f} s ({report.exact_runs} exact runs, "
            f"{report.cache_hits} cache, {report.oracle_hits} oracle, "
            f"{report.coalesced} coalesced)"
        )
    notes.append(f"fail_frac = {failed}/{attempted}")
    if trace:
        metrics = _per_layer(rounds, traced, tracer, prep_list, timed_misses)
    else:
        metrics = _end_to_end(rounds, setup_s)
    return Outcome(metrics, attempted, failed, errors, notes)

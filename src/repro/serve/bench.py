"""Traffic benchmark suites for the serving layer.

Same contract as :mod:`repro.bench.suites`, different unit of work: a
*serve* suite cell is one deterministic traffic session
(:func:`repro.serve.scheduler.serve_traffic`) instead of one
(dataset × method) batch of SSSP runs.  Each cell serializes into the
standard versioned :class:`~repro.bench.trajectory.BenchRecord` — the
makespan is the cell's ``time_ms`` and every serving metric (hit/fallback
tallies, p50/p99 latency, sustained QPS, per-shard busy_until clocks, fault
tallies, aggregated device counters) lands in the exact-gated ``counters``
map.  ``host_seconds`` is pinned to ``0.0``: a serve trajectory is a pure
function of the suite spec, so the committed ``BENCH_serve.json``
baseline gates byte-identically in CI.

Two suites:

* ``serve-smoke`` — three small sessions covering every scheduler path
  (mixed p2p/single-source, road-network p2p, a fault-plan session on the
  self-healing runtime).  Runs on every pull request.
* ``serve-chaos`` — six sessions under serving-tier chaos plans
  (:mod:`repro.serve.chaos`): shard blackout with hedged retry and a
  breaker recovery, a slow shard, cache corruption caught by checksums,
  an oracle decertification window, a deadline/degradation-ladder
  session, and a combined ``mayhem`` session.  Gated byte-identically
  against ``BENCH_serve-chaos.json`` in CI; every cell must end with
  zero wrong answers and zero escaped faults.

``bench run|check``, ``profile --suite serve-*`` and ``serve --suite``
all play a suite through :func:`play_serve_suite`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bench.trajectory import BenchRecord
from .scheduler import ServeReport, serve_traffic
from .workload import ServeConfig

__all__ = [
    "ServeCellSpec",
    "SERVE_SUITES",
    "serve_suite_names",
    "run_serve_cell",
    "play_serve_suite",
    "serve_progress_line",
]


@dataclass(frozen=True)
class ServeCellSpec:
    """One named traffic session of a serve suite."""

    name: str
    dataset: str
    config: ServeConfig


_SMOKE_CELLS = (
    # mixed workload, both shard lanes busy, oracle + cache + coalescing
    ServeCellSpec(
        name="amazon-mixed",
        dataset="Amazon",
        config=ServeConfig(
            num_queries=160, seed=101, p2p_fraction=0.7, tolerance=0.2,
            source_pool=10, landmarks=4, shards=2, cold_fraction=0.1,
        ),
    ),
    # road network: ALT's home turf — cold p2p sources the cache can't
    # help, a landmark budget big enough to certify a real fraction
    ServeCellSpec(
        name="road-p2p",
        dataset="road-TX",
        config=ServeConfig(
            num_queries=48, seed=202, p2p_fraction=0.9, tolerance=0.3,
            source_pool=4, landmarks=8, shards=2, cold_fraction=0.4,
        ),
    ),
    # every exact run executes under the lost-updates plan with the
    # self-healing runtime on; the gate requires escaped == 0
    ServeCellSpec(
        name="amazon-faulty",
        dataset="Amazon",
        config=ServeConfig(
            num_queries=60, seed=303, p2p_fraction=0.5, tolerance=0.2,
            source_pool=6, landmarks=2, shards=1, plan="lost-updates",
        ),
    ),
)

_CHAOS_CELLS = (
    # shard 0 blacked out on [0.2, 1.6) ms: in-flight runs fail at the
    # overlap, hedge onto healthy shards, the breaker opens and — once the
    # blackout passes — recovers through a successful half-open probe
    ServeCellSpec(
        name="blackout-hedge",
        dataset="Amazon",
        config=ServeConfig(
            num_queries=160, seed=606, p2p_fraction=0.6, tolerance=0.2,
            source_pool=12, landmarks=2, shards=3, cold_fraction=0.4,
            chaos="blackout",
        ),
    ),
    # shard 1 serves at 6x time inside the window: no failures, but load
    # visibly shifts and tail latency stretches (slowdown-aware dispatch)
    ServeCellSpec(
        name="slow-shard",
        dataset="Amazon",
        config=ServeConfig(
            num_queries=160, seed=707, p2p_fraction=0.6, tolerance=0.2,
            source_pool=12, landmarks=2, shards=2, cold_fraction=0.3,
            chaos="slow-shard",
        ),
    ),
    # scripted bit-flips on resident LRU fields: the per-entry checksums
    # quarantine the damage on the next read instead of serving poison
    ServeCellSpec(
        name="cache-corruption",
        dataset="Amazon",
        config=ServeConfig(
            num_queries=120, seed=808, p2p_fraction=0.8, tolerance=0.2,
            source_pool=6, landmarks=4, shards=2, chaos="cache-corruption",
        ),
    ),
    # the landmark oracle is decertified on [0.5, 2.5) ms: certified p2p
    # traffic is refused and falls through to the exact tier instead
    ServeCellSpec(
        name="oracle-outage",
        dataset="road-TX",
        config=ServeConfig(
            num_queries=60, seed=909, p2p_fraction=0.9, tolerance=0.3,
            source_pool=4, landmarks=8, shards=2, cold_fraction=0.4,
            chaos="oracle-outage",
        ),
    ),
    # blackout + tight per-request deadlines on ALT's home turf: requests
    # that cannot make the deadline walk the degradation ladder — many are
    # served degraded-but-certified at the relaxed tolerance, the rest
    # shed explicitly (counted in serve.shed / serve.slo_violations)
    ServeCellSpec(
        name="deadline-ladder",
        dataset="road-TX",
        config=ServeConfig(
            num_queries=80, seed=1010, p2p_fraction=0.9, tolerance=0.05,
            source_pool=4, landmarks=8, shards=2, cold_fraction=0.5,
            rate_qpms=15.0, chaos="blackout", deadline_ms=0.1,
            relaxed_tolerance=0.5,
        ),
    ),
    # everything at once: blackout, slowdown, corruption, oracle outage
    # and deadlines in one session — the whole resilience stack engaged
    ServeCellSpec(
        name="mayhem",
        dataset="Amazon",
        config=ServeConfig(
            num_queries=160, seed=1111, p2p_fraction=0.7, tolerance=0.1,
            source_pool=12, landmarks=4, shards=2, cold_fraction=0.3,
            chaos="mayhem", deadline_ms=0.08, relaxed_tolerance=0.6,
        ),
    ),
)

SERVE_SUITES: dict[str, tuple[ServeCellSpec, ...]] = {
    "serve-smoke": _SMOKE_CELLS,
    "serve-chaos": _CHAOS_CELLS,
}


def serve_suite_names() -> list[str]:
    """The serve suites ``bench run --suite`` / ``cli serve`` accept."""
    return sorted(SERVE_SUITES)


def report_to_record(cell: ServeCellSpec, report: ServeReport) -> BenchRecord:
    """Fold one session report into an exact-gated bench record.

    ``host_seconds`` is deliberately zeroed: serving sessions are meant to
    gate byte-identically, and wall clock is the only noisy field.
    """
    return BenchRecord(
        dataset=cell.dataset,
        method=f"serve:{cell.name}",
        gpu="",
        num_sources=report.exact_runs,
        time_ms=float(report.makespan_ms),
        gteps=0.0,
        update_ratio=float("nan"),
        counters=report.counter_dict(),
        host_seconds=0.0,
    )


def _cell(suite: str, name: str) -> ServeCellSpec:
    for cell in SERVE_SUITES[suite]:
        if cell.name == name:
            return cell
    raise KeyError(f"no cell {name!r} in suite {suite!r}")


def run_serve_cell(
    suite: str, name: str, seed_offset: int = 0
) -> tuple[ServeReport, BenchRecord]:
    """Run one named session; returns ``(report, record)``.

    Module-level (and addressed by name) so :mod:`repro.perf.parallel`
    can ship cells to worker processes.  The trace mark and the profile
    region land in the calling process only when the cell runs there
    (``jobs`` 1).
    """
    from ..bench.datasets import benchmark_spec, get_graph
    from ..perf import profile
    from ..trace import active_tracer

    cell = _cell(suite, name)
    tracer = active_tracer()
    if tracer is not None:
        tracer.mark("serve-cell", dataset=cell.dataset, cell=cell.name)
    with profile.region(f"serve:{cell.dataset}/{cell.name}"):
        config = cell.config.with_seed_offset(seed_offset)
        graph = get_graph(cell.dataset)
        report = serve_traffic(graph, config, spec=benchmark_spec())
    return report, report_to_record(cell, report)


def play_serve_suite(
    name: str, *, seed_offset: int = 0, jobs: int = 1
) -> list[tuple[ServeCellSpec, ServeReport, BenchRecord]]:
    """Run every session of serve suite ``name``, in suite order.

    Returns each cell with its report and record.  ``seed_offset`` is
    added to every cell's committed seed (0 = the gated baselines);
    ``jobs > 1`` fans the independent sessions over that many worker
    processes (``0`` = all cores) without changing any result.  Judging
    the reports is the caller's job.
    """
    from ..perf.parallel import resolve_jobs, run_tasks

    cells = SERVE_SUITES[name]
    outcomes = run_tasks(
        run_serve_cell,
        [(name, c.name, seed_offset) for c in cells],
        resolve_jobs(jobs),
    )
    return [(c, report, rec) for c, (report, rec) in zip(cells, outcomes)]


def serve_progress_line(rec: BenchRecord) -> str:
    """One ``bench run`` status line for a finished serve cell."""
    c = rec.counters
    return (
        f"  {rec.dataset:>10s} {rec.method:<22s} "
        f"{rec.time_ms:9.3f} ms  "
        f"p99 {c.get('serve.p99_ms', 0.0):8.4f} ms  "
        f"{c.get('serve.qps', 0.0):8,.0f} q/s"
    )

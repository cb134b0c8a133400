"""Named benchmark suites for the continuous-benchmarking gate.

A *suite* is a fixed (datasets × methods) matrix whose records form one
``BENCH_<suite>.json`` trajectory file.  ``quick`` crosses three
structurally opposed datasets (power-law Amazon, uniform-degree road-TX,
and the skewed Graph500 kron surrogate ``k-n21-16``) with the headline
engines (BL, ADDS, RDBS, MLMQ) plus the Near-Far baseline.  Small enough
to run on every pull request (~20 s); rich enough that a change to
frontier handling, bucketing, the cost model or the counter accounting
moves at least one deterministic cell.  The serving layer's traffic
suites (:mod:`repro.serve.bench`) run through the same entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .harness import run_method
from .trajectory import BenchRecord, record_from_run

__all__ = ["SuiteSpec", "SUITES", "suite_names", "run_suite"]


@dataclass(frozen=True)
class SuiteSpec:
    """The (datasets × methods) matrix of one named suite."""

    name: str
    datasets: tuple[str, ...]
    methods: tuple[str, ...]
    num_sources: int = 1


SUITES: dict[str, SuiteSpec] = {
    "quick": SuiteSpec(
        name="quick",
        datasets=("Amazon", "road-TX", "k-n21-16"),
        methods=("bl", "adds", "near-far", "rdbs", "mlmq"),
        num_sources=2,
    ),
}


def suite_names() -> list[str]:
    """The suites ``bench run --suite`` accepts.

    Covers both the (datasets × methods) matrices defined here and the
    traffic sessions of the serving layer (:mod:`repro.serve.bench`),
    which share the trajectory schema and the regression gate.
    """
    from ..serve.bench import serve_suite_names

    return sorted(SUITES) + serve_suite_names()


def _run_cell(suite: str, dataset: str, method: str) -> BenchRecord:
    """One (dataset, method) cell — the unit of process parallelism.

    Module-level so :mod:`repro.perf.parallel` can ship it to worker
    processes; each worker runs the identical simulation the serial path
    would, so the resulting record differs only in host wall fields.  The
    trace mark and the profile region land in the calling process only
    when the cell runs there (``jobs`` 1).
    """
    from ..perf import profile
    from ..trace import active_tracer

    tracer = active_tracer()
    if tracer is not None:
        tracer.mark("cell", dataset=dataset, method=method)
    with profile.region(f"cell:{dataset}/{method}"):
        run = run_method(dataset, method, num_sources=SUITES[suite].num_sources)
    return record_from_run(run)


def _progress_line(rec: BenchRecord) -> str:
    return (
        f"  {rec.dataset:>10s} {rec.method:<16s} "
        f"{rec.time_ms:9.4f} ms  ({rec.host_seconds:.2f} s host)"
    )


def run_suite(name: str, *, progress=None, jobs: int = 1) -> list[BenchRecord]:
    """Run every cell of suite ``name`` and return its records.

    ``progress`` is an optional callable taking one status string (the CLI
    passes ``print``), called once per cell in suite order; every run is
    validated against the SciPy oracle by ``run_method`` before being
    recorded.  A serve suite raises ``RuntimeError`` on a wrong answer or
    an escaped fault: a trajectory must never record an incorrect server.

    ``jobs > 1`` fans the independent cells over that many worker
    processes (``0`` = all cores).  Records come back in the same
    deterministic suite order as a serial run, and every device quantity
    (counters, simulated time) is identical — only host wall-clock fields
    can differ run to run.
    """
    from ..perf.parallel import resolve_jobs, run_tasks
    from ..serve.bench import SERVE_SUITES, play_serve_suite, serve_progress_line

    if name in SERVE_SUITES:
        records = []
        for cell, report, rec in play_serve_suite(name, jobs=jobs):
            if not report.ok:
                raise RuntimeError(
                    f"serve cell {cell.name!r}: {report.wrong} wrong "
                    f"answer(s), {report.faults_escaped} escaped fault(s)"
                )
            if progress is not None:
                progress(serve_progress_line(rec))
            records.append(rec)
        return records
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(suite_names())}"
        )
    spec = SUITES[name]
    cells = [(name, d, m) for d in spec.datasets for m in spec.methods]
    records = run_tasks(_run_cell, cells, resolve_jobs(jobs))
    if progress is not None:
        for rec in records:
            progress(_progress_line(rec))
    return records

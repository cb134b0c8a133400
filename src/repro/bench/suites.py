"""Named benchmark suites for the continuous-benchmarking gate.

A *suite* is a fixed (datasets × methods) matrix whose records form one
``BENCH_<suite>.json`` trajectory file:

* ``quick`` — three structurally opposed datasets (power-law Amazon,
  uniform-degree road-TX, and the skewed Graph500 kron surrogate
  ``k-n21-16``) × the headline engines (BL, ADDS, RDBS, MLMQ) plus the
  Near-Far baseline.  Small enough to run on every pull request
  (~20 s); rich enough that a change to frontier handling, bucketing,
  the cost model or the counter accounting moves at least one
  deterministic cell.
* ``paper`` — the full Fig. 8 / Table 2 matrix: the six Fig. 8 datasets ×
  BL, ADDS, RDBS and the three optimization arms.  The record to refresh
  when publishing performance claims; too heavy for per-PR CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from .datasets import FIG8_DATASETS
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
    "paper": SuiteSpec(
        name="paper",
        datasets=tuple(FIG8_DATASETS),
        methods=("bl", "adds", "rdbs", "basyn+pro", "basyn+adwl"),
        num_sources=3,
    ),
}


def suite_names() -> list[str]:
    """The suites ``bench run --suite`` accepts.

    Covers both the (datasets × methods) matrices defined here and the
    traffic sessions of the serving layer (:mod:`repro.serve.bench`,
    including the chaos-plan suite ``serve-chaos``), which share the
    trajectory schema and the regression gate.
    """
    from ..serve.bench import serve_suite_names

    return sorted(SUITES) + serve_suite_names()


def _run_cell(suite: str, dataset: str, method: str) -> BenchRecord:
    """One (dataset, method) cell — the unit of process parallelism.

    Module-level so :mod:`repro.perf.parallel` can ship it to worker
    processes; each worker runs the identical simulation the serial path
    would, so the resulting record differs only in host wall fields.
    """
    spec = SUITES[suite]
    run = run_method(dataset, method, num_sources=spec.num_sources)
    return record_from_run(run)


def _progress_line(rec: BenchRecord) -> str:
    return (
        f"  {rec.dataset:>10s} {rec.method:<16s} "
        f"{rec.time_ms:9.4f} ms  ({rec.host_seconds:.2f} s host)"
    )


def run_suite(name: str, *, progress=None, jobs: int = 1) -> list[BenchRecord]:
    """Run every cell of suite ``name`` and return its records.

    ``progress`` is an optional callable taking one status string (the CLI
    passes ``print``); every run is validated against the SciPy oracle by
    ``run_method`` before being recorded.

    ``jobs > 1`` fans the independent (dataset × method) cells over that
    many worker processes (``0`` = all cores).  Records come back in the
    same deterministic suite order as a serial run, and every device
    quantity (counters, simulated time) is identical — only host
    wall-clock fields can differ run to run.
    """
    if name not in SUITES:
        from ..serve.bench import SERVE_SUITES, run_serve_suite

        if name in SERVE_SUITES:
            return run_serve_suite(name, progress=progress, jobs=jobs)
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(suite_names())}"
        )
    spec = SUITES[name]
    from ..perf import profile
    from ..perf.parallel import resolve_jobs, run_tasks

    cells = [(name, d, m) for d in spec.datasets for m in spec.methods]
    jobs = resolve_jobs(jobs)
    if jobs > 1:
        records = run_tasks(_run_cell, cells, jobs)
        if progress is not None:
            for rec in records:
                progress(_progress_line(rec))
        return records
    from ..trace import active_tracer

    records: list[BenchRecord] = []
    for suite, dataset, method in cells:
        tracer = active_tracer()
        if tracer is not None:
            tracer.mark("cell", dataset=dataset, method=method)
        with profile.region(f"cell:{dataset}/{method}"):
            rec = _run_cell(suite, dataset, method)
        records.append(rec)
        if progress is not None:
            progress(_progress_line(rec))
    return records

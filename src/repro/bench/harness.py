"""Benchmark harness: run matrices, averaging, and paper-style tables.

Every ``benchmarks/bench_*.py`` file builds its figure or table through
these helpers so output formatting, averaging and validation are uniform.
Runs are always validated against the SciPy Dijkstra oracle — a benchmark
row is only reported for *correct* distances.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..graphs.csr import CSRGraph
from ..gpusim.spec import GPUSpec
from ..metrics.gteps import geometric_mean
from ..perf import profile as hostprof
from ..sssp.api import GPU_METHODS, sssp
from ..sssp.result import SSSPResult
from ..sssp.validate import validate_distances
from .datasets import benchmark_spec, get_graph, pick_sources

__all__ = [
    "MethodRun",
    "run_method",
    "run_matrix",
    "format_table",
    "write_results",
    "RESULTS_DIR",
    "default_results_dir",
]

#: the repo-relative results directory — only meaningful in a source
#: checkout; installed packages fall back to the working directory (see
#: :func:`default_results_dir`)
RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def default_results_dir() -> Path:
    """Where bench files drop regenerated tables when no dir is injected.

    ``RESULTS_DIR`` resolves three levels above this file, which lands in
    the repo for an editable install but in the middle of ``site-packages``
    for a regular one — in that case fall back to ``benchmarks/results``
    under the current working directory.
    """
    if RESULTS_DIR.parent.exists():
        return RESULTS_DIR
    return Path.cwd() / "benchmarks" / "results"


@dataclass
class MethodRun:
    """Averaged measurements of one (dataset, method) cell."""

    dataset: str
    method: str
    time_ms: float
    gteps: float
    update_ratio: float
    results: list[SSSPResult] = field(default_factory=list)
    #: device-spec label the cell ran on ("cpu" for host methods)
    gpu: str = ""
    #: real (wall-clock) seconds spent inside the solver across all sources
    host_seconds: float = 0.0

    @property
    def counters(self):
        """Device counters of the first run (sources barely change them)."""
        return self.results[0].counters


def run_method(
    name: str,
    method: str,
    *,
    num_sources: int = 3,
    spec: GPUSpec | None = None,
    validate: bool = True,
    graph: CSRGraph | None = None,
    sources: list[int] | None = None,
    **kwargs,
) -> MethodRun:
    """Run ``method`` over the standard sources of dataset ``name``.

    Times are arithmetic means over sources (the paper's methodology);
    the update ratio is averaged the same way.  Pass ``graph`` (plus
    optionally ``sources``) to benchmark a graph outside the registry.
    """
    g = graph if graph is not None else get_graph(name)
    if sources is None:
        sources = pick_sources(name, num_sources) if graph is None else [0]
    if spec is None:
        spec = benchmark_spec()
    results: list[SSSPResult] = []
    host_seconds = 0.0
    for s in sources:
        kw = dict(kwargs)
        if method in GPU_METHODS:
            kw.setdefault("spec", spec)
        t0 = time.perf_counter()
        with hostprof.region(f"solve:{method}"):
            r = sssp(g, s, method=method, **kw)
        host_seconds += time.perf_counter() - t0
        if validate:
            with hostprof.region("validate"):
                validate_distances(g, s, r.dist)
        results.append(r)
    times = [r.time_ms for r in results]
    ratios = [r.work.update_ratio for r in results if r.work is not None]
    return MethodRun(
        dataset=name,
        method=method,
        time_ms=statistics.fmean(times),
        gteps=statistics.fmean([r.gteps for r in results]),
        update_ratio=statistics.fmean(ratios) if ratios else float("nan"),
        results=results,
        gpu=spec.name if method in GPU_METHODS else "cpu",
        host_seconds=host_seconds,
    )


def run_matrix(
    datasets: list[str],
    methods: list[str],
    *,
    num_sources: int = 3,
    spec: GPUSpec | None = None,
    **kwargs,
) -> dict[tuple[str, str], MethodRun]:
    """Run every (dataset, method) cell; returns a dict keyed by the pair."""
    out: dict[tuple[str, str], MethodRun] = {}
    for d in datasets:
        for m in methods:
            out[(d, m)] = run_method(
                d, m, num_sources=num_sources, spec=spec, **kwargs
            )
    return out


def format_table(
    headers: list[str], rows: list[list], title: str | None = None
) -> str:
    """Fixed-width text table (the benches' printable output)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(c) -> str:
    if isinstance(c, float):
        if c != c:  # NaN
            return "-"
        if abs(c) >= 100:
            return f"{c:.1f}"
        return f"{c:.3f}"
    return str(c)


def write_results(
    filename: str, text: str, *, results_dir: str | Path | None = None
) -> Path:
    """Persist a regenerated table as ``filename`` in the results dir.

    ``results_dir`` overrides the output directory (see
    :func:`default_results_dir`).
    """
    out_dir = (
        Path(results_dir) if results_dir is not None else default_results_dir()
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / filename
    path.write_text(text + "\n", encoding="utf-8")
    return path


def geo_speedup(matrix, datasets, base_method: str, method: str) -> float:
    """Geometric-mean speedup of ``method`` over ``base_method``."""
    return geometric_mean(
        matrix[(d, base_method)].time_ms / matrix[(d, method)].time_ms
        for d in datasets
    )

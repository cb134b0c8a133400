"""The result object every SSSP implementation returns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..gpusim.counters import DeviceCounters
from ..metrics.workstats import WorkTally

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.report import FaultReport

__all__ = ["SSSPResult"]


@dataclass
class SSSPResult:
    """Distances plus the measurements the paper's evaluation reports.

    Attributes
    ----------
    dist:
        shortest distance from the source to every vertex **in the
        original vertex id space** (implementations that reorder internally
        map back before returning); unreachable vertices hold ``inf``.
    source:
        the source vertex (original ids).
    method:
        implementation label (``"rdbs"``, ``"bl"``, ``"adds"``, ...).
    graph_name:
        label of the input graph.
    time_ms:
        simulated execution time in milliseconds (GPU methods: simulator
        clock; CPU methods: CPU cost model).  Preprocessing (PRO) is *not*
        included, matching the paper's methodology of reporting SSSP search
        time on a preprocessed graph.
    work:
        update/check tally (Fig. 9 metrics), when the implementation
        records it.
    counters:
        the simulated device's profiling counters (Fig. 10 metrics), for
        GPU methods.
    num_edges:
        edge count of the traversed graph, for GTEPS.
    extra:
        implementation-specific diagnostics (bucket count, iteration
        counts, final Δ, ...).  Bucketed engines keep one row per
        processed bucket in ``extra["bucket_telemetry"]`` (the Figs. 2–3
        series).
    faults:
        the :class:`~repro.faults.report.FaultReport` of a run executed
        under fault injection / the self-healing runtime; ``None`` for
        plain runs.
    """

    dist: np.ndarray
    source: int
    method: str
    graph_name: str = "graph"
    time_ms: float = 0.0
    work: WorkTally | None = None
    counters: DeviceCounters | None = None
    num_edges: int = 0
    extra: dict = field(default_factory=dict)
    faults: "FaultReport | None" = None

    @property
    def gteps(self) -> float:
        """Giga-traversed edges per second (graph edges / search time)."""
        if self.time_ms <= 0:
            return 0.0
        return self.num_edges / (self.time_ms * 1e-3) / 1e9

    @property
    def reached(self) -> int:
        """Number of vertices with a finite distance."""
        return int(np.isfinite(self.dist).sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SSSPResult(method={self.method!r}, graph={self.graph_name!r}, "
            f"source={self.source}, reached={self.reached}, "
            f"time_ms={self.time_ms:.4f})"
        )

"""The single-call front door: ``sssp(graph, source, method=...)``.

Dispatches to every implementation in the library under one signature so
examples, tests and benchmarks can sweep methods uniformly.
"""

from __future__ import annotations

from collections.abc import Callable

from ..graphs.csr import CSRGraph
from .cpu_pq_delta import pq_delta_star_sssp
from .delta_cpu import delta_stepping_cpu
from .gpu_adds import adds_sssp
from .gpu_baseline import bl_sssp
from .gpu_harish import harish_narayanan_sssp
from .gpu_mlmq import mlmq_sssp
from .gpu_nearfar import nearfar_sssp
from .gpu_rdbs import rdbs_sssp
from .reference import bellman_ford, dijkstra
from .rho_stepping import rho_stepping_sssp
from .result import SSSPResult

__all__ = ["sssp", "METHODS", "GPU_METHODS", "method_names"]


def _rdbs_arm(pro: bool, adwl: bool, basyn: bool) -> Callable[..., SSSPResult]:
    def run(graph: CSRGraph, source: int, **kw) -> SSSPResult:
        return rdbs_sssp(graph, source, pro=pro, adwl=adwl, basyn=basyn, **kw)

    return run


#: CPU references and competitors
_CPU_METHODS: dict[str, Callable[..., SSSPResult]] = {
    # references (exact)
    "dijkstra": lambda g, s, **kw: dijkstra(g, s),
    "bellman-ford": lambda g, s, **kw: bellman_ford(g, s),
    # competitors
    "delta-cpu": delta_stepping_cpu,
    "pq-delta*": pq_delta_star_sssp,
    "rho-stepping": rho_stepping_sssp,
}

#: simulated-GPU engines (run on :class:`~repro.gpusim.GPUDevice` and
#: return profiling counters); this dict is the single source of truth
#: for "is this a GPU method" — the bench harness, the CLI and the fault
#: driver all derive their membership sets from it
_GPU_METHODS: dict[str, Callable[..., SSSPResult]] = {
    # baselines
    "harish-narayanan": harish_narayanan_sssp,
    "bl": bl_sssp,
    "near-far": nearfar_sssp,
    "adds": adds_sssp,
    # the paper's algorithm and its ablation arms (Fig. 8)
    "rdbs": rdbs_sssp,
    "basyn": _rdbs_arm(pro=False, adwl=False, basyn=True),
    "basyn+pro": _rdbs_arm(pro=True, adwl=False, basyn=True),
    "basyn+adwl": _rdbs_arm(pro=False, adwl=True, basyn=True),
    "basyn+pro+adwl": _rdbs_arm(pro=True, adwl=True, basyn=True),
    "sync-delta": _rdbs_arm(pro=False, adwl=False, basyn=False),
    # the multi-level-multi-queue successor (ROADMAP item 1)
    "mlmq": mlmq_sssp,
}

#: registry of every runnable method
METHODS: dict[str, Callable[..., SSSPResult]] = {
    **_CPU_METHODS,
    **_GPU_METHODS,
}

#: names of the simulated-GPU engines, derived from the registry
GPU_METHODS: frozenset[str] = frozenset(_GPU_METHODS)


def method_names() -> list[str]:
    """All registered method names."""
    return list(METHODS)


def sssp(graph: CSRGraph, source: int, method: str = "rdbs", **kwargs) -> SSSPResult:
    """Solve single-source shortest paths with the chosen implementation.

    Parameters
    ----------
    graph:
        a :class:`~repro.graphs.csr.CSRGraph` (weights must be
        non-negative).
    source:
        source vertex id (in the graph's current id space).
    method:
        one of :func:`method_names`; defaults to the paper's RDBS.
    **kwargs:
        forwarded to the implementation (``delta=``, ``spec=``, ...).

    Returns
    -------
    SSSPResult
        distances (original id space), simulated time, work tally and —
        for GPU methods — profiling counters.
    """
    try:
        fn = METHODS[method]
    except KeyError:
        known = ", ".join(METHODS)
        raise ValueError(f"unknown method {method!r}; known: {known}") from None
    return fn(graph, source, **kwargs)

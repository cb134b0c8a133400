"""The single-call front door: ``sssp(graph, source, method=...)``.

Dispatches to every implementation in the library under one signature so
examples, tests and benchmarks can sweep methods uniformly.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from functools import partial

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
from .result import SSSPResult

__all__ = ["sssp", "METHODS", "GPU_METHODS", "METHOD_OPTIONS", "method_names"]

#: CPU references and competitors
_CPU_METHODS: dict[str, Callable[..., SSSPResult]] = {
    # references (exact)
    "dijkstra": dijkstra,
    "bellman-ford": bellman_ford,
    # competitors
    "delta-cpu": delta_stepping_cpu,
    "pq-delta*": pq_delta_star_sssp,
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
    "basyn": partial(rdbs_sssp, pro=False, adwl=False, basyn=True),
    "basyn+pro": partial(rdbs_sssp, pro=True, adwl=False, basyn=True),
    "basyn+adwl": partial(rdbs_sssp, pro=False, adwl=True, basyn=True),
    "sync-delta": partial(rdbs_sssp, pro=False, adwl=False, basyn=False),
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


#: the options each method accepts: the keywords the function it calls
#: takes after ``(graph, source)``, minus those a ``partial`` fixes
METHOD_OPTIONS: dict[str, frozenset[str]] = {
    name: frozenset(list(inspect.signature(fn).parameters)[2:])
    - set(getattr(fn, "keywords", ()))
    for name, fn in METHODS.items()
}


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
        forwarded to the implementation (``delta=``, ``spec=``, ...);
        an option the method does not take (see :data:`METHOD_OPTIONS`)
        raises :class:`ValueError`.

    Returns
    -------
    SSSPResult
        distances (in ``graph``'s id space, like ``source``), simulated
        time, work tally and — for GPU methods — profiling counters.
    """
    try:
        fn = METHODS[method]
    except KeyError:
        known = ", ".join(METHODS)
        raise ValueError(f"unknown method {method!r}; known: {known}") from None
    unknown = sorted(set(kwargs) - METHOD_OPTIONS[method])
    if unknown:
        takes = ", ".join(sorted(METHOD_OPTIONS[method])) or "none"
        raise ValueError(
            f"method {method!r} does not take {', '.join(unknown)}; "
            f"its options: {takes}"
        )
    return fn(graph, source, **kwargs)

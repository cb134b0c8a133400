"""repro — reproduction of "A Bucket-aware Asynchronous Single-Source
Shortest Path Algorithm on GPU" (Zhang et al., ICPP-W 2023).

The library implements the paper's RDBS algorithm — property-driven
reordering (PRO), adaptive load balancing (ADWL) and bucket-aware
asynchronous execution (BASYN) — together with every baseline it is
evaluated against (synchronous push BL, Near-Far, an ADDS-like asynchronous
Δ-stepping, the PQ-Δ* CPU stepping algorithm, Dijkstra and Bellman-Ford),
all running on a transaction-level SIMT GPU execution-model simulator that
counts the nvprof metrics the paper profiles and converts them into
simulated time via a V100/T4-parameterized roofline model.

Quick start::

    import repro

    g = repro.graphs.kronecker(scale=12, edgefactor=16, weights="int")
    result = repro.sssp.sssp(g, source=0, method="rdbs")
    print(result.time_ms, result.work.update_ratio)
"""

from . import graphs, gpusim, metrics, reorder, sssp, util
from .graphs import CSRGraph
from .gpusim import T4, V100, GPUDevice, GPUSpec
from .reorder import apply_pro
from .sssp import SSSPResult, method_names
from .sssp import sssp as _sssp_fn

#: the one-call entry point (also available as ``repro.sssp.sssp``)
solve = _sssp_fn

__version__ = "1.0.0"

__all__ = [
    "graphs",
    "gpusim",
    "metrics",
    "reorder",
    "sssp",
    "util",
    "CSRGraph",
    "GPUDevice",
    "GPUSpec",
    "V100",
    "T4",
    "apply_pro",
    "SSSPResult",
    "solve",
    "method_names",
    "__version__",
]

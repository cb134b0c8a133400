"""Transaction-level SIMT GPU execution-model simulator.

This package is the hardware substrate the paper's experiments run on in
this reproduction: it executes kernels for real (vectorized NumPy) while
counting warp-level instructions, coalesced memory transactions, L1 cache
behaviour, divergence, atomics, kernel launches and barriers — the nvprof
metrics of the paper's Fig. 10 — and converting them into simulated time
with a roofline-style two-resource model parameterized by real V100/T4
datasheet numbers.
"""

from .cachemodel import CacheModel, reuse_gaps
from .counters import DeviceCounters, KernelCounters
from .device import (
    GPUDevice,
    KernelContext,
    register_global_observer,
    subset_assignment,
    unregister_global_observer,
)
from .dynamic import (
    ALPHA,
    BETA,
    WorkloadClasses,
    classify_workloads,
    launch_adaptive,
)
from .kernels import (
    WorkAssignment,
    grid_stride,
    segmented_arange,
    thread_per_item,
    thread_per_vertex_edges,
    threads_per_vertex_edges,
)
from .memory import BumpAllocator, DeviceArray, coalesce
from .multisplit import ballot_rounds
from .spec import A100, T4, V100, GPUSpec
from .timeline import KernelRecord, Timeline, attribute_bottleneck
from .timemodel import SERIAL_CPI, kernel_time, relax_filter_gate

__all__ = [
    "GPUDevice",
    "KernelContext",
    "subset_assignment",
    "register_global_observer",
    "unregister_global_observer",
    "GPUSpec",
    "V100",
    "T4",
    "A100",
    "KernelCounters",
    "DeviceCounters",
    "CacheModel",
    "reuse_gaps",
    "DeviceArray",
    "BumpAllocator",
    "coalesce",
    "WorkAssignment",
    "thread_per_item",
    "thread_per_vertex_edges",
    "threads_per_vertex_edges",
    "grid_stride",
    "segmented_arange",
    "WorkloadClasses",
    "classify_workloads",
    "launch_adaptive",
    "ALPHA",
    "BETA",
    "kernel_time",
    "relax_filter_gate",
    "SERIAL_CPI",
    "Timeline",
    "KernelRecord",
    "attribute_bottleneck",
    "ballot_rounds",
]

"""Dynamic parallelism: the child-kernel launch layer of ADWL (§4.2).

CUDA dynamic parallelism lets a parent thread launch child kernels from the
device.  The paper's phase 1 uses it to right-size the thread count per
active vertex: a parent thread per active vertex inspects the vertex's
light-edge count and launches

* nothing (the parent handles < 32 light edges itself),
* one warp-granularity child (32 threads) below 256 light edges,
* one block-granularity child (256 threads) below 4096, or
* ``floor(n / 4096)`` block-granularity children above that

(α = 256, β = 32 in the paper's terms).  This module implements that
classification plus the corresponding :class:`WorkAssignment` construction
and child-launch accounting, so every phase-1 engine (sync or async) shares
one load-balancing implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import KernelContext
from .kernels import (
    WorkAssignment,
    thread_per_vertex_edges,
    threads_per_vertex_edges,
)

__all__ = [
    "WorkloadClasses",
    "classify_workloads",
    "classify_multisplit",
    "launch_adaptive",
    "ALPHA",
    "BETA",
]

#: block-granularity threshold (light edges) — "the number of Block
#: granularity threads"
ALPHA = 256
#: warp-granularity threshold — "the number of Warp granularity threads"
BETA = 32
#: per-child edge cap above which multiple blocks are assigned
MULTI_BLOCK = 4096


@dataclass(frozen=True)
class WorkloadClasses:
    """Active vertices split into the three workload lists of Fig. 5."""

    #: indices (into the active list) with < BETA light edges
    small: np.ndarray
    #: indices with BETA <= light edges < ALPHA
    middle: np.ndarray
    #: indices with >= ALPHA light edges
    large: np.ndarray

    @property
    def counts(self) -> tuple[int, int, int]:
        """``(small, middle, large)`` list sizes."""
        return self.small.size, self.middle.size, self.large.size


def classify_workloads(edge_counts: np.ndarray) -> WorkloadClasses:
    """Split vertices by light-edge count into small/middle/large lists."""
    edge_counts = np.asarray(edge_counts)
    small = np.flatnonzero(edge_counts < BETA)
    middle = np.flatnonzero((edge_counts >= BETA) & (edge_counts < ALPHA))
    large = np.flatnonzero(edge_counts >= ALPHA)
    return WorkloadClasses(small=small, middle=middle, large=large)


def classify_multisplit(
    ctx: KernelContext,
    edge_counts: np.ndarray,
    assignment: WorkAssignment,
) -> WorkloadClasses:
    """ADWL classification as one counted 3-way warp-ballot multisplit.

    Membership-identical to :func:`classify_workloads` — the multisplit's
    stable within-bucket order reproduces the ascending-position lists the
    three ``flatnonzero`` passes yield — but counted as two ballot rounds
    per warp slot (``ceil(log2 3)``) instead of the two per-slot compare
    ALUs of the flag-and-scan classification, and the class lists come out
    grouped for free instead of needing three scan passes.
    """
    edge_counts = np.asarray(edge_counts)
    keys = (edge_counts >= BETA).astype(np.int64) + (edge_counts >= ALPHA)
    order, offsets = ctx.multisplit(keys, 3, assignment)
    return WorkloadClasses(
        small=order[: offsets[1]],
        middle=order[offsets[1]:offsets[2]],
        large=order[offsets[2]:offsets[3]],
    )


def launch_adaptive(
    ctx: KernelContext,
    edge_counts: np.ndarray,
    classes: WorkloadClasses,
) -> list[tuple[np.ndarray, WorkAssignment]]:
    """Build the adaptive phase-1 assignments and account child launches.

    Parameters
    ----------
    ctx:
        the enclosing (master) kernel context — child launches are charged
        to it at device-side latency.
    edge_counts:
        light-edge count per active vertex.
    classes:
        the classification of ``edge_counts``
        (:func:`classify_multisplit` on the device,
        :func:`classify_workloads` on the host).

    Returns
    -------
    A list of ``(vertex_positions, assignment)`` pairs, one per workload
    class with any members.  ``vertex_positions`` indexes into the active
    list; the assignment's work items are the concatenated edges of those
    vertices in list order (the caller builds matching edge index arrays).
    """
    out: list[tuple[np.ndarray, WorkAssignment]] = []

    if classes.small.size:
        # parent threads process small vertices themselves: thread-per-vertex
        a = thread_per_vertex_edges(edge_counts[classes.small])
        out.append((classes.small, a))
    if classes.middle.size:
        # one warp-granularity child kernel per middle vertex
        a = threads_per_vertex_edges(edge_counts[classes.middle], BETA)
        ctx.child_launch(int(classes.middle.size))
        out.append((classes.middle, a))
    if classes.large.size:
        # block-granularity children; vertices above MULTI_BLOCK edges get
        # multiple blocks, i.e. proportionally more child launches
        counts = edge_counts[classes.large]
        blocks = np.maximum(counts // MULTI_BLOCK, 1)
        ctx.child_launch(int(blocks.sum()))
        a = threads_per_vertex_edges(counts, ALPHA)
        out.append((classes.large, a))
    return out

"""Deterministic traffic generation for the serving layer.

A serving benchmark is only gateable if the *traffic* is reproducible, so
the stream of queries is a pure function of ``(graph, ServeConfig)``: one
seeded :class:`numpy.random.Generator` draws the source popularity, the
targets and the exponential inter-arrival gaps, and nothing else consumes
the stream.  Two properties shape the workload like production traffic:

* **hot sources** — sources come from a small pool with a Zipf-like
  popularity skew, so the scheduler's distance-field cache and request
  coalescing have something to exploit (and the fallback count stays
  bounded by the pool size);
* **mixed query kinds** — a configurable fraction of queries are
  point-to-point ``(source, target)`` pairs that the landmark oracle may
  answer approximately; the rest are full single-source requests that
  always need an exact distance field.

Arrival timestamps are *simulated* milliseconds on the same clock the GPU
simulator uses, so service times and inter-arrival gaps compose into real
queueing behavior (waiting, batching windows, tail latency).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.properties import largest_component_vertices

__all__ = ["Query", "ServeConfig", "generate_queries"]

#: target id of a single-source (full distance field) query
NO_TARGET = -1


@dataclass(frozen=True)
class ServeConfig:
    """Everything that defines one traffic session (workload + policy).

    The config is frozen and fully serialized into the bench suite specs,
    so a committed ``BENCH_serve.json`` baseline pins the exact session it
    was recorded from.
    """

    #: number of queries in the stream
    num_queries: int = 100
    #: master seed for workload generation and per-run fault seeding
    seed: int = 0
    #: fraction of queries that are point-to-point (rest: single-source)
    p2p_fraction: float = 0.7
    #: relative tolerance an oracle answer must certify (see oracle.py)
    tolerance: float = 0.15
    #: hot-source pool size (Zipf-skewed popularity)
    source_pool: int = 8
    #: Zipf exponent of the source popularity (larger = more skew)
    popularity: float = 1.1
    #: fraction of p2p queries whose source is uniform over the whole
    #: component instead of the hot pool — the cache can't help these, so
    #: they exercise the landmark-oracle / exact-fallback policy
    cold_fraction: float = 0.0
    #: landmark count k for the ALT oracle warmup
    landmarks: int = 4
    #: simulated GPU lanes the exact runs are placed on
    shards: int = 2
    #: batching window: an exact batch admits queries for this long (ms)
    batch_window_ms: float = 0.05
    #: flush a batch early once it spans this many distinct sources
    max_batch_sources: int = 4
    #: mean query arrivals per simulated millisecond
    rate_qpms: float = 25.0
    #: exact engine for warmup and fallback runs
    method: str = "rdbs"
    #: fault plan injected into every exact fallback run (None = clean)
    plan: str | None = None
    #: byte cap of the in-memory distance-field LRU
    cache_bytes: int = 32 * 1024 * 1024
    #: named serving-tier chaos plan (:mod:`repro.serve.chaos`); None = off.
    #: The chaos-off path is byte-identical to a scheduler without the
    #: chaos layer at all.
    chaos: str | None = None
    #: per-request deadline in simulated ms (0 = no deadline). A request
    #: that cannot complete in time walks the degradation ladder:
    #: relaxed-tolerance oracle answer, else an explicit shed.
    deadline_ms: float = 0.0
    #: tolerance the degraded (ladder rung 2) oracle answers must certify
    relaxed_tolerance: float = 0.5

    def with_seed_offset(self, offset: int) -> "ServeConfig":
        """The same session under a shifted master seed."""
        return self if offset == 0 else replace(self, seed=self.seed + offset)


@dataclass(frozen=True)
class Query:
    """One admitted request on the simulated arrival timeline."""

    qid: int
    #: arrival time, simulated milliseconds
    t_ms: float
    source: int
    #: target vertex, or :data:`NO_TARGET` for a single-source query
    target: int = NO_TARGET

    @property
    def is_p2p(self) -> bool:
        return self.target != NO_TARGET


def generate_queries(graph: CSRGraph, config: ServeConfig) -> list[Query]:
    """The deterministic query stream of one traffic session."""
    if config.num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    if not 0.0 <= config.p2p_fraction <= 1.0:
        raise ValueError("p2p_fraction must be in [0, 1]")
    if config.rate_qpms <= 0:
        raise ValueError("rate_qpms must be positive")
    comp = largest_component_vertices(graph)
    if comp.size == 0:
        raise ValueError("graph has no vertices")
    rng = np.random.default_rng(config.seed)

    pool_size = max(1, min(config.source_pool, comp.size))
    pool = rng.choice(comp, size=pool_size, replace=False)
    # Zipf-like popularity over the pool (rank-1 source is hottest)
    weights = 1.0 / np.arange(1, pool_size + 1) ** config.popularity
    weights /= weights.sum()

    n = config.num_queries
    sources = rng.choice(pool, size=n, p=weights)
    targets = rng.choice(comp, size=n)
    is_p2p = rng.random(n) < config.p2p_fraction
    cold_sources = rng.choice(comp, size=n)
    cold = is_p2p & (rng.random(n) < config.cold_fraction)
    arrivals = np.cumsum(rng.exponential(1.0 / config.rate_qpms, size=n))

    return [
        Query(
            qid=i,
            t_ms=float(arrivals[i]),
            source=int(cold_sources[i] if cold[i] else sources[i]),
            target=int(targets[i]) if is_p2p[i] else NO_TARGET,
        )
        for i in range(n)
    ]

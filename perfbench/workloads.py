"""Workload definitions.

Every workload runs the same two parts on its own graph, so each one
reports every end-to-end metric.  A run splits them into
:data:`~perfbench.harness.ROUNDS` timed rounds; round ``r`` runs

* a **solve sweep** — each engine in :data:`METHODS` from every
  ``ROUNDS``-th of the workload's sources, drawn by
  ``repro.bench.datasets.pick_sources`` from the largest component, through
  ``repro.sssp.api.sssp``;
* a **serve session** — one open-loop traffic session with its own traffic
  seed through ``repro.serve.scheduler.serve_traffic``: Poisson arrivals at
  a fixed offered rate on the simulated clock, sources from a Zipf-hot pool
  plus a cold slice, a p2p / single-source mix, and a byte-capped distance
  LRU small enough that exact fills keep running beside the cache and
  oracle read paths.  Most queries must wait on an exact fill: the LRU
  and oracle answer in a fixed simulated time, so a session they
  dominated would report the same p50 for every seed.  The latency
  percentiles pool the queries of all rounds.

serve-zipf is the serving workload proper: 3 × 100 queries on Amazon with
RDBS, the paper's engine, as the exact tier and half the p2p sources
cold.  The solve workloads carry smaller companion sessions on their own
graph, hot sources only and batched, with the graph's fastest engine as
the exact tier (ADDS on the road network, MLMQ on Kronecker): its
per-source cost varies least, which keeps the latency percentiles steady
across seeds.

Which layer each workload isolates, and what a change to it should move
(shares measured on the ``V100@1/64`` spec):

=================  ==============================================  =========================
layer              end-to-end metric it moves                      predicted flat on
=================  ==============================================  =========================
launch + barrier   ``m.sim_ms`` on road-launchbound (≈60% of       kron-atomicbound (≤20%)
                   rdbs and near-far): bucket fusion shows here
async rounds       ``rdbs.sim_ms`` on road-launchbound             —
atomic serial.     ``m.sim_ms`` on kron-atomicbound (≈50% of rdbs  rdbs / mlmq / near-far on
                   and mlmq) and ``bl.sim_ms`` on road-launchbound road-launchbound (≤2%)
kernel body        ``m.sim_ms`` on kron-atomicbound                —
host per launch    ``host_s`` on road-launchbound (≈1000 launches  —
(coalesce, cache   per rdbs solve)
stream, multisplit)
host atomics       ``host_s`` on kron-atomicbound                  —
serve LRU / oracle ``serve.p50_ms`` on serve-zipf                  —
exact fills        ``serve.p95_ms`` on serve-zipf                  —
graph build, PRO,  ``setup_s`` on every workload                   —
artifact cache
=================  ==============================================  =========================

The default seed is 0 (``run.py --seed``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["METHODS", "Workload", "WORKLOADS"]

#: the engines every solve sweep runs, in report order
METHODS = ("rdbs", "mlmq", "adds", "near-far", "bl")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a graph, a sweep size and a traffic mix."""

    name: str
    #: bundled dataset name (``repro.bench.datasets``)
    graph: str
    #: sources per engine in the solve sweep, over all rounds
    sources: int
    #: :class:`~repro.serve.workload.ServeConfig` fields of each round's
    #: session; ``seed`` comes from ``--seed`` and the round, and
    #: ``cache_fields`` sizes the LRU in whole fields
    serve: dict = field(default_factory=dict)


#: the companion session of the solve workloads: a hot pool of eight,
#: batched in 0.4 ms windows with a two-field LRU, so nearly every query
#: waits on an exact fill of the same few sources; no cold slice, whose
#: per-window count would dominate the batch service time's spread
_BATCHED = dict(
    num_queries=100, p2p_fraction=0.8, tolerance=0.1, source_pool=8,
    cold_fraction=0.0, landmarks=2, shards=2, rate_qpms=80.0,
    batch_window_ms=0.4, max_batch_sources=16, cache_fields=2,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="road-launchbound",
            graph="road-TX",
            sources=15,
            serve=dict(_BATCHED, method="adds"),
        ),
        Workload(
            name="kron-atomicbound",
            graph="k-n21-16",
            sources=12,
            serve=dict(_BATCHED, method="mlmq"),
        ),
        Workload(
            name="serve-zipf",
            graph="Amazon",
            sources=12,
            serve=dict(
                method="rdbs", num_queries=100, p2p_fraction=0.8,
                tolerance=0.1, source_pool=32, cold_fraction=0.5,
                landmarks=2, shards=2, rate_qpms=12.0, cache_fields=4,
            ),
        ),
    )
}


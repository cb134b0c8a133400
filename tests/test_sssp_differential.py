"""Differential oracle: the GPU engines against SciPy/Dijkstra.

The tier-1 safety net for control-flow changes to the bucket loops and
their placement code (bucket fusion, the shared engine frame, deleting a
redundant path) — every BASYN arm of RDBS, Near-Far, synchronous
Δ-stepping, ADDS, MLMQ and the BL baseline: seeded adversarial graphs
that stress what the bucket and threshold arithmetic is most likely to
get wrong —

* zero-weight edges (a target lands in the bucket being drained),
* weights spread log-uniformly over 1e-6 .. 1e6 (twelve decades inside
  one bucket sequence),
* disconnected graphs and sources that are isolated or sit in a small
  component (most distances stay ``inf``),
* directed and symmetric edge sets,
* the same graphs relabeled by descending degree: every GPU engine
  takes ``source`` and returns ``dist`` in its input graph's id space,
  even when the input already carries a relabeling permutation —

plus the extreme-Δ cases on ``kron:8,8``: Δ = 1e-3 (hundreds of thousands
of empty intervals between buckets) and Δ = 1e9 (one bucket holds the
whole graph) for every Δ engine; RDBS's bulk walk over empty intervals
against one interval per loop iteration; and RDBS, MLMQ and BL on a one-SM spec
whose low relax-filter gate sends their wide batches through the test
before ``atomicMin`` (same distances and work as the plain atomic).
Every distance must equal the SciPy
oracle's (every engine but the BASYN arms is held against the
repository's binary-heap Dijkstra as well).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.graphs import from_edges, kronecker, largest_component_vertices
from repro.gpusim import V100
from repro.reorder import reorder_by_degree
from repro.sssp import (
    GPU_METHODS,
    DeltaController,
    relax,
    sssp,
    validate_distances,
)

SPEC = V100.scaled_for_workload(1 / 64)

#: every registered RDBS arm with BASYN on (the arms bucket fusion runs in)
BASYN_ARMS = ("rdbs", "basyn", "basyn+pro", "basyn+adwl")

#: the GPU engines besides RDBS's BASYN arms and Near-Far, each held
#: against the binary-heap Dijkstra
OTHER_ENGINES = ("sync-delta", "adds", "mlmq", "bl")

#: the engines among them that take a Δ (``bl`` does not)
OTHER_DELTA_ENGINES = ("sync-delta", "adds", "mlmq")

#: seeds of the adversarial graphs; each seed fixes size, density,
#: weight mix, direction and the source
SEEDS = range(16)


def adversarial_graph(seed: int):
    """A seeded adversarial graph and source (see the module docstring)."""
    rng = np.random.default_rng(seed)
    core = int(rng.integers(8, 96))
    # trailing vertices no edge touches: isolated, and sometimes the source
    n = core + int(rng.integers(0, 6))
    m = int(rng.integers(0, 4 * core))
    # two disjoint halves on odd seeds: a disconnected graph
    half = core // 2 if seed % 2 else core
    src = rng.integers(0, half, m)
    dst = rng.integers(0, half, m)
    if seed % 2:
        upper = rng.random(m) < 0.5
        src[upper] += core - half
        dst[upper] += core - half
    w = 10.0 ** rng.uniform(-6.0, 6.0, m)
    w[rng.random(m) < 0.15] = 0.0
    g = from_edges(
        src, dst, w, num_vertices=n, symmetrize=bool(seed % 3 == 0),
        name=f"adversarial-{seed}",
    )
    source = n - 1 if seed % 5 == 4 else int(rng.integers(0, core))
    return g, source


def relabeled_graph(seed: int):
    """The seed's adversarial graph relabeled by descending degree, and
    the same source vertex under its new id."""
    g, s = adversarial_graph(seed)
    rg = reorder_by_degree(g)
    return rg, int(rg.old_to_new[s])


def assert_matches_dijkstra(g, s, dist) -> None:
    """``dist`` equals the binary-heap Dijkstra's distances (and SciPy's)."""
    validate_distances(g, s, dist)
    expected = sssp(g, s, method="dijkstra").dist
    np.testing.assert_allclose(dist, expected, rtol=1e-9, atol=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_basyn_arms_match_oracle(seed):
    g, s = adversarial_graph(seed)
    for arm in BASYN_ARMS:
        r = sssp(g, s, method=arm, spec=SPEC)
        validate_distances(g, s, r.dist)


@pytest.mark.parametrize("seed", SEEDS)
def test_nearfar_matches_dijkstra(seed):
    g, s = adversarial_graph(seed)
    r = sssp(g, s, method="near-far", spec=SPEC)
    assert_matches_dijkstra(g, s, r.dist)


@pytest.mark.parametrize("method", OTHER_ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_dijkstra(seed, method):
    g, s = adversarial_graph(seed)
    r = sssp(g, s, method=method, spec=SPEC)
    assert_matches_dijkstra(g, s, r.dist)


@pytest.mark.parametrize("method", sorted(GPU_METHODS))
@pytest.mark.parametrize("seed", SEEDS)
def test_relabeled_input_matches_dijkstra(seed, method):
    g, s = relabeled_graph(seed)
    r = sssp(g, s, method=method, spec=SPEC)
    assert r.source == s
    assert_matches_dijkstra(g, s, r.dist)


def test_adversarial_set_covers_its_cases():
    """The seeds really produce every case the module promises."""
    zero = wide = isolated_src = disconnected = directed = symmetric = False
    for seed in SEEDS:
        g, s = adversarial_graph(seed)
        w = g.weights
        zero |= bool((w == 0).any())
        wide |= bool(w.size and w.max() / w[w > 0].min() > 1e9)
        isolated_src |= g.row[s + 1] == g.row[s]
        reach = np.isfinite(sssp(g, s, method="dijkstra").dist)
        disconnected |= not reach.all()
        sym = g.num_edges > 0 and np.array_equal(
            np.sort(g.edge_sources() * g.num_vertices + g.adj),
            np.sort(g.adj * g.num_vertices + g.edge_sources()),
        )
        symmetric |= sym
        directed |= g.num_edges > 0 and not sym
    assert zero and wide and isolated_src and disconnected
    assert directed and symmetric


KRON = kronecker(8, 8, weights="int", seed=0)
KRON_SRC = int(largest_component_vertices(KRON)[0])


@pytest.mark.parametrize("delta", [1e-3, 1e9])
def test_extreme_delta_on_kron(delta):
    r = sssp(KRON, KRON_SRC, method="rdbs", delta=delta, spec=SPEC)
    validate_distances(KRON, KRON_SRC, r.dist)
    assert not r.extra["delta_rescaled"]


#: the controller's bulk walk over empty intervals
_BULK_SKIP = DeltaController.skip_empty


@pytest.mark.parametrize("recovery", [None, True])
@pytest.mark.parametrize("method", ["rdbs", "basyn"])
def test_bulk_empty_walk_matches_one_per_iteration(method, recovery,
                                                   monkeypatch):
    """At Δ = 0.25 on integer weights most intervals are empty.  Walking
    them in bulk gives the run that closes one per loop iteration (an
    O(n) rescan and an epoch each) — with a fault runtime attached too,
    whose probes and checkpoints must land on the same epochs."""
    bulk = sssp(KRON, KRON_SRC, method=method, delta=0.25, spec=SPEC,
                recovery=recovery)
    monkeypatch.setattr(
        DeltaController, "skip_empty",
        lambda self, bound, limit=None: _BULK_SKIP(self, bound, 1))
    step = sssp(KRON, KRON_SRC, method=method, delta=0.25, spec=SPEC,
                recovery=recovery)
    assert_matches_dijkstra(KRON, KRON_SRC, bulk.dist)
    np.testing.assert_array_equal(bulk.dist, step.dist)
    assert bulk.time_ms == step.time_ms
    assert bulk.counters.totals == step.counters.totals
    assert [r.name for r in bulk.extra["timeline"].records] == [
        r.name for r in step.extra["timeline"].records]
    for key in ("buckets", "rounds", "final_delta"):
        assert bulk.extra[key] == step.extra[key]
    assert repr(bulk.extra["bucket_telemetry"]) == repr(
        step.extra["bucket_telemetry"])
    if recovery:
        assert "recovery_probe" in bulk.extra["timeline"].by_kernel()
        assert bulk.faults.actions == step.faults.actions


@pytest.mark.parametrize("arm", BASYN_ARMS[1:])
def test_one_bucket_delta_every_arm(arm):
    r = sssp(KRON, KRON_SRC, method=arm, delta=1e9, spec=SPEC)
    validate_distances(KRON, KRON_SRC, r.dist)
    assert r.extra["buckets"] == 1


@pytest.mark.parametrize("delta", [1e-3, 1e9])
def test_nearfar_extreme_delta_on_kron(delta):
    r = sssp(KRON, KRON_SRC, method="near-far", delta=delta, spec=SPEC)
    assert_matches_dijkstra(KRON, KRON_SRC, r.dist)


@pytest.mark.parametrize("method", OTHER_DELTA_ENGINES)
@pytest.mark.parametrize("delta", [1e-3, 1e9])
def test_engine_extreme_delta_on_kron(delta, method):
    r = sssp(KRON, KRON_SRC, method=method, delta=delta, spec=SPEC)
    assert_matches_dijkstra(KRON, KRON_SRC, r.dist)


#: ``SPEC`` on one SM: its relax-filter gate is 12.8 lanes per step
#: (``repro.gpusim.relax_filter_gate``), so the wide batches of these
#: small graphs take the test before ``atomicMin``
LOW_GATE = replace(SPEC, num_sms=1)


@pytest.mark.parametrize("method", ("rdbs", "basyn", "mlmq", "bl"))
def test_filtered_relax_matches_plain_atomic(method, monkeypatch):
    """The filtered relax gives the plain atomic's distances and work."""
    filtered = sssp(KRON, KRON_SRC, method=method, spec=LOW_GATE)
    assert_matches_dijkstra(KRON, KRON_SRC, filtered.dist)
    monkeypatch.setattr(relax, "relax_filter_gate", lambda spec: np.inf)
    plain = sssp(KRON, KRON_SRC, method=method, spec=LOW_GATE)
    np.testing.assert_array_equal(filtered.dist, plain.dist)
    assert filtered.work == plain.work
    # the filter fired: it dropped same-address conflicts
    assert (
        filtered.counters.totals.atomic_conflicts
        < plain.counters.totals.atomic_conflicts
    )


@pytest.mark.parametrize("method", ("rdbs", "mlmq", "bl"))
@pytest.mark.parametrize("seed", SEEDS)
def test_filtered_relax_matches_dijkstra(seed, method):
    g, s = adversarial_graph(seed)
    r = sssp(g, s, method=method, spec=LOW_GATE)
    assert_matches_dijkstra(g, s, r.dist)

"""Tests for the Multi-Level-Multi-Queue (MLMQ) SSSP engine.

Five contracts from the MLMQ design note (docs/mlmq.md):

1. **Correctness** — distances equal the SciPy Dijkstra oracle on every
   quick-suite graph, despite relaxed ordering between same-level queues
   and stale pops.
2. **Determinism** — steal counters (and every other device quantity)
   are identical whether the suite runs serially or fanned over worker
   processes (``jobs=1`` vs ``jobs=4``).
3. **Sanitizer-clean** — the hashed queue pools are write-only scratch;
   a full run under the hazard sanitizer reports zero errors.
4. **Self-healing** — every fault plan is recovered by the queue
   hierarchy rebuild (``escaped == 0``) and the answer still validates.
5. **Performance** — MLMQ strictly beats RDBS simulated time on the
   kron quick-suite cell (the paper-style power-law workload).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    SUITES,
    SuiteSpec,
    benchmark_spec,
    get_graph,
    pick_sources,
    run_method,
    run_suite,
)
from repro.faults import faulty_sssp, plan_names
from repro.graphs import kronecker, largest_component_vertices
from repro.gpusim import V100
from repro.sssp import (
    GPU_METHODS,
    METHODS,
    mlmq_sssp,
    sssp,
    validate_distances,
)

SPEC = V100.scaled_for_workload(1 / 64)

KRON = kronecker(8, 8, weights="int", seed=0)
KRON_SRC = int(largest_component_vertices(KRON)[0])

QUICK_DATASETS = SUITES["quick"].datasets


# ---------------------------------------------------------------------------
# registry wiring
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_mlmq_registered_as_gpu_method(self):
        assert "mlmq" in METHODS
        assert "mlmq" in GPU_METHODS
        assert METHODS["mlmq"] is mlmq_sssp

    def test_quick_suite_includes_mlmq(self):
        assert "mlmq" in SUITES["quick"].methods


# ---------------------------------------------------------------------------
# correctness: SciPy oracle on every quick-suite graph
# ---------------------------------------------------------------------------

class TestCorrectness:
    @pytest.mark.parametrize("dataset", QUICK_DATASETS)
    def test_matches_oracle_on_quick_suite(self, dataset):
        g = get_graph(dataset)
        for s in pick_sources(dataset, 2):
            r = mlmq_sssp(g, s, spec=benchmark_spec())
            validate_distances(g, s, r.dist)

    def test_dispatch_through_sssp_api(self, small_kron, kron_source):
        r = sssp(small_kron, kron_source, method="mlmq", spec=SPEC)
        validate_distances(small_kron, kron_source, r.dist)

    def test_unreachable_vertices_stay_inf(self, path_graph):
        r = mlmq_sssp(path_graph, 63, spec=SPEC)
        validate_distances(path_graph, 63, r.dist)
        assert np.isfinite(r.dist).all()  # path is connected

    def test_telemetry_extra_keys(self, small_kron, kron_source):
        r = mlmq_sssp(small_kron, kron_source, spec=SPEC)
        extra = r.extra
        for key in (
            "delta", "levels", "rounds",
            "advances", "stale_pops", "mlmq_steals", "mlmq_stolen_slots",
            "wasted_relaxation_ratio", "bucket_telemetry",
        ):
            assert key in extra, key
        assert 0.0 <= extra["wasted_relaxation_ratio"] <= 1.0
        # counters and extra must agree on steal traffic
        totals = r.counters.totals
        assert totals.mlmq_steals == extra["mlmq_steals"]
        assert totals.mlmq_stolen_slots == extra["mlmq_stolen_slots"]
        assert extra["mlmq_stolen_slots"] >= extra["mlmq_steals"]


# ---------------------------------------------------------------------------
# determinism: jobs=1 vs jobs=4 must agree bit-for-bit on steal counters
# ---------------------------------------------------------------------------

MINI_MLMQ = SuiteSpec(
    name="mini-mlmq",
    datasets=("k-n21-16",),
    methods=("mlmq",),
    num_sources=2,
)


def _strip_wall(rec) -> dict:
    d = rec.as_dict()
    d.pop("host_seconds", None)
    return d


class TestDeterminism:
    def test_steal_counters_identical_across_jobs(self, monkeypatch):
        monkeypatch.setitem(SUITES, "mini-mlmq", MINI_MLMQ)
        serial = run_suite("mini-mlmq", jobs=1)
        parallel = run_suite("mini-mlmq", jobs=4)
        assert [_strip_wall(r) for r in parallel] == [
            _strip_wall(r) for r in serial
        ]
        # the cell actually exercises the stealing path, so the parity
        # above covers the steal counters specifically
        assert serial[0].counters["mlmq_steals"] > 0
        assert (
            serial[0].counters["mlmq_steals"]
            == parallel[0].counters["mlmq_steals"]
        )

    def test_repeat_run_identical(self, small_kron, kron_source):
        a = mlmq_sssp(small_kron, kron_source, spec=SPEC)
        b = mlmq_sssp(small_kron, kron_source, spec=SPEC)
        assert a.counters.as_dict() == b.counters.as_dict()
        assert a.time_ms == b.time_ms
        np.testing.assert_array_equal(a.dist, b.dist)


# ---------------------------------------------------------------------------
# sanitizer: the queue pools are write-only scratch — no hazards
# ---------------------------------------------------------------------------

class TestSanitizer:
    def test_clean_under_sanitizer(self, sanitizer, small_kron, kron_source):
        r = mlmq_sssp(small_kron, kron_source, spec=SPEC)
        validate_distances(small_kron, kron_source, r.dist)
        report = sanitizer.report()
        assert report.errors == []


# ---------------------------------------------------------------------------
# fault recovery: queue hierarchy rebuild self-heals every plan
# ---------------------------------------------------------------------------

class TestFaultRecovery:
    @pytest.mark.parametrize("plan", plan_names())
    def test_all_plans_recover(self, plan):
        r, rep = faulty_sssp(
            KRON, KRON_SRC, method="mlmq", plan=plan, seed=0, spec=SPEC
        )
        validate_distances(KRON, KRON_SRC, r.dist)
        assert rep.injected > 0
        assert rep.escaped == 0
        assert rep.verified is True
        assert r.faults is rep


# ---------------------------------------------------------------------------
# performance regression: MLMQ must strictly beat RDBS on kron
# ---------------------------------------------------------------------------

class TestPerformance:
    def test_beats_rdbs_on_kron_cell(self):
        """The headline claim of docs/mlmq.md, pinned as a regression:
        on the skewed kron surrogate the multi-queue window drains in
        strictly less simulated time than RDBS's bucket rounds."""
        spec = benchmark_spec()
        sources = pick_sources("k-n21-16", 2)
        mlmq = run_method(
            "k-n21-16", "mlmq", sources=sources, spec=spec
        )
        rdbs = run_method(
            "k-n21-16", "rdbs", sources=sources, spec=spec
        )
        assert mlmq.time_ms < rdbs.time_ms

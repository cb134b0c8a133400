"""The serving layer: workload determinism, answer policy, LRU, gating.

The contracts under test are the ones CI's serve job stands on:

* the query stream and the whole traffic session are pure functions of
  ``(graph, ServeConfig)`` — same seed ⇒ byte-identical trajectory JSON,
  serial or parallel, cold or warm cache;
* every oracle answer is within the declared relative tolerance of the
  exact distance (the ALT bracket *certifies* the bound, it does not
  estimate it);
* the distance-field LRU respects its byte cap and evicts in strict
  least-recently-used order;
* a fault-plan session on the self-healing runtime ends with zero
  escaped faults and zero wrong answers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.trajectory import suite_document
from repro.serve import (
    DistanceFieldLRU,
    ServeConfig,
    certified_answer,
    generate_queries,
    serve_traffic,
    warm_oracle,
)
from repro.serve.bench import (
    SERVE_SUITES,
    run_serve_cell,
    run_serve_suite,
    serve_suite_names,
)
from repro.serve.scheduler import CACHE_LATENCY_MS
from repro.serve.workload import NO_TARGET, Query
from repro.sssp.validate import scipy_distances

# one small session exercising every answer path, reused across tests
SMALL = ServeConfig(
    num_queries=60, seed=5, p2p_fraction=0.7, tolerance=0.3,
    source_pool=5, cold_fraction=0.3, landmarks=3, shards=2,
)


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------

class TestWorkload:
    def test_deterministic(self, small_kron):
        a = generate_queries(small_kron, SMALL)
        b = generate_queries(small_kron, SMALL)
        assert a == b

    def test_seed_changes_stream(self, small_kron):
        a = generate_queries(small_kron, SMALL)
        b = generate_queries(small_kron, SMALL.with_seed_offset(1))
        assert a != b

    def test_arrivals_increase(self, small_kron):
        qs = generate_queries(small_kron, SMALL)
        times = [q.t_ms for q in qs]
        assert times == sorted(times)
        assert times[0] > 0

    def test_query_kinds(self, small_kron):
        qs = generate_queries(small_kron, SMALL)
        p2p = [q for q in qs if q.is_p2p]
        full = [q for q in qs if not q.is_p2p]
        assert len(p2p) + len(full) == SMALL.num_queries
        assert p2p and full
        assert all(q.target == NO_TARGET for q in full)

    def test_hot_pool_bounded(self, small_kron):
        cfg = ServeConfig(num_queries=200, seed=1, source_pool=4,
                          cold_fraction=0.0)
        qs = generate_queries(small_kron, cfg)
        assert len({q.source for q in qs}) <= 4

    def test_cold_sources_escape_pool(self, small_kron):
        cfg = ServeConfig(num_queries=200, seed=1, source_pool=4,
                          cold_fraction=0.5)
        qs = generate_queries(small_kron, cfg)
        assert len({q.source for q in qs}) > 4

    def test_rejects_bad_config(self, small_kron):
        with pytest.raises(ValueError):
            generate_queries(small_kron, ServeConfig(num_queries=0))
        with pytest.raises(ValueError):
            generate_queries(small_kron, ServeConfig(p2p_fraction=1.5))
        with pytest.raises(ValueError):
            generate_queries(small_kron, ServeConfig(rate_qpms=0.0))
        # no multi-GPU engine: the option is unknown
        with pytest.raises(TypeError, match="multi_gpu"):
            ServeConfig(multi_gpu=2)


# ---------------------------------------------------------------------------
# landmark oracle: every answer provably within tolerance
# ---------------------------------------------------------------------------

class TestOracle:
    def test_certified_answers_within_tolerance(self, small_road):
        warm = warm_oracle(small_road, ServeConfig(landmarks=6, seed=0))
        tol = 0.25
        rng = np.random.default_rng(3)
        exact_cache: dict[int, np.ndarray] = {}
        answered = 0
        for _ in range(300):
            u = int(rng.integers(small_road.num_vertices))
            v = int(rng.integers(small_road.num_vertices))
            ans = certified_answer(warm.oracle, u, v, tol)
            if ans is None:
                continue
            answered += 1
            if u not in exact_cache:
                exact_cache[u] = scipy_distances(small_road, u)
            exact = float(exact_cache[u][v])
            assert ans == pytest.approx(exact, rel=tol, abs=1e-9)
        assert answered > 0  # the policy must actually fire on a road grid

    def test_identity_and_unreachable(self, small_kron):
        warm = warm_oracle(small_kron, ServeConfig(landmarks=2, seed=0))
        assert certified_answer(warm.oracle, 7, 7, 0.1) == 0.0
        # a vertex outside the landmark fields' reach -> no upper bound
        iso = int(np.argmax(~np.isfinite(warm.oracle.dist_matrix[0])))
        if not np.isfinite(warm.oracle.dist_matrix[:, iso]).any():
            assert certified_answer(warm.oracle, 0, iso, 0.5) is None

    def test_warm_oracle_artifact_roundtrip(self, small_kron):
        cfg = ServeConfig(landmarks=3, seed=9)
        cold = warm_oracle(small_kron, cfg)
        warm = warm_oracle(small_kron, cfg)
        assert not cold.artifact_hit
        assert warm.artifact_hit
        # the bundle must replay identically, times included — otherwise
        # warmup_ms would depend on the cache state
        assert warm.warmup_ms == cold.warmup_ms
        np.testing.assert_array_equal(
            warm.oracle.dist_matrix, cold.oracle.dist_matrix
        )


# ---------------------------------------------------------------------------
# distance-field LRU
# ---------------------------------------------------------------------------

class TestLRU:
    def field(self, n=128, fill=1.0):
        return np.full(n, fill)

    def test_byte_cap_respected(self):
        f = self.field()
        lru = DistanceFieldLRU(max_bytes=3 * f.nbytes)
        for s in range(10):
            lru.put(s, self.field(fill=s))
            assert lru.bytes <= lru.max_bytes
        assert len(lru) == 3
        assert lru.evictions == 7

    def test_eviction_is_lru_order(self):
        f = self.field()
        lru = DistanceFieldLRU(max_bytes=3 * f.nbytes)
        for s in (0, 1, 2):
            lru.put(s, self.field(fill=s))
        assert lru.get(0) is not None  # 0 becomes most-recent
        lru.put(3, self.field(fill=3))  # evicts 1, the LRU entry
        assert lru.sources() == [2, 0, 3]
        assert lru.get(1) is None

    def test_oversized_field_rejected(self):
        f = self.field(1024)
        lru = DistanceFieldLRU(max_bytes=f.nbytes - 1)
        lru.put(0, f)
        assert len(lru) == 0
        assert lru.rejected == 1
        assert lru.evictions == 0

    def test_peek_does_not_touch_recency(self):
        f = self.field()
        lru = DistanceFieldLRU(max_bytes=2 * f.nbytes)
        lru.put(0, self.field())
        lru.put(1, self.field())
        assert lru.peek(0) is not None
        lru.put(2, self.field())  # peek must not have refreshed 0
        assert lru.sources() == [1, 2]
        stats = lru.stats()
        assert stats["hits"] == 0 and stats["evictions"] == 1

    def test_replacement_accounts_bytes(self):
        lru = DistanceFieldLRU(max_bytes=10_000)
        lru.put(0, self.field(100))
        lru.put(0, self.field(200))
        assert lru.bytes == self.field(200).nbytes
        assert len(lru) == 1


# ---------------------------------------------------------------------------
# the scheduler end to end
# ---------------------------------------------------------------------------

class TestScheduler:
    def test_session_clean_and_accounted(self, small_kron):
        report = serve_traffic(small_kron, SMALL)
        assert report.ok
        assert report.queries == SMALL.num_queries
        served = (report.oracle_hits + report.cache_hits
                  + report.coalesced + report.fallbacks)
        assert served == report.queries
        assert len(report.latencies_ms) == report.queries
        assert report.makespan_ms > 0
        assert report.p99_ms >= report.p50_ms >= 0
        assert len(report.shard_busy_ms) == SMALL.shards

    def test_deterministic_counters(self, small_kron):
        a = serve_traffic(small_kron, SMALL)
        b = serve_traffic(small_kron, SMALL)
        assert a.counter_dict() == b.counter_dict()

    def test_device_ratios_over_merged_runs(self, small_kron):
        """The derived ratios of a multi-run session are ratios of the
        summed counts, not sums of per-run ratios."""
        report = serve_traffic(small_kron, SMALL)
        assert report.exact_runs > 1
        c = report.counter_dict()
        assert 0.0 <= c["simt_efficiency"] <= 1.0
        assert c["simt_efficiency"] == c["active_lanes"] / c["lane_slots"]
        # nvprof's global_hit_rate is a percentage
        assert 0.0 <= c["global_hit_rate"] <= 100.0
        assert c["global_hit_rate"] == (
            100.0 * c["l1_hits"] / c["l1_accesses"])

    def test_cache_exploits_hot_sources(self, small_kron):
        report = serve_traffic(small_kron, SMALL)
        # Zipf-skewed pool traffic must mostly hit the LRU, and the
        # exact-run count must stay far below the query count
        assert report.cache_hits > report.queries / 3
        assert report.exact_runs < report.queries / 2

    def test_fault_plan_contained(self, small_kron):
        cfg = ServeConfig(num_queries=40, seed=11, source_pool=4,
                          landmarks=2, plan="lost-updates")
        report = serve_traffic(small_kron, cfg)
        assert report.faults_injected > 0
        assert report.faults_escaped == 0
        assert report.wrong == 0

    def test_single_source_queries_never_oracle(self, small_kron):
        cfg = ServeConfig(num_queries=50, seed=13, p2p_fraction=0.0,
                          source_pool=4, landmarks=2)
        report = serve_traffic(small_kron, cfg)
        assert report.oracle_hits == 0
        assert report.single_source_queries == 50

    def test_serve_trace_spans(self, small_kron):
        from repro.trace import tracing

        with tracing() as tr:
            report = serve_traffic(small_kron, SMALL)
        spans = [e for e in tr.snapshot() if e.kind == "serve"]
        assert len(spans) == report.queries
        outcomes = {e.name for e in spans}
        assert outcomes <= {"oracle", "cache", "coalesced", "exact"}
        exact = [e for e in spans if e.name == "exact"]
        assert len(exact) == report.fallbacks

    def test_validation_catches_corruption(self, small_kron, monkeypatch):
        # sabotage the oracle certification to return garbage: the
        # session must count the wrong answers instead of passing
        import repro.serve.scheduler as sched

        monkeypatch.setattr(
            sched, "certified_answer",
            lambda oracle, u, v, tol: 1e30 if u != v else 0.0,
        )
        report = serve_traffic(small_kron, SMALL)
        assert report.wrong > 0
        assert not report.ok


class TestRunDispatch:
    """Each distinct source of a flushed batch is its own run: placed on
    the shard that frees first, and answering its own queries when it
    ends.  Runs are scripted (source -> simulated ms); the window is
    0.05 ms, so the first batch flushes at t = 0.05."""

    def test_idle_shards_start_both_runs_at_the_flush(
        self, small_kron, kron_pair, scripted_serve
    ):
        a, b = kron_pair
        queries = [Query(0, 0.0, a), Query(1, 0.01, b)]
        report, spans = scripted_serve(
            small_kron, queries, {a: 0.3, b: 0.2}, shards=2
        )
        assert report.exact_runs == 2 and report.batches == 1
        assert {spans[0].args["shard"], spans[1].args["shard"]} == {0, 1}
        # each run starts at the flush instant: answer = 0.05 + own run
        assert spans[0].ts_ms + spans[0].dur_ms == pytest.approx(0.35)
        assert spans[1].ts_ms + spans[1].dur_ms == pytest.approx(0.25)

    def test_latency_ends_at_the_own_run(
        self, small_kron, kron_pair, scripted_serve
    ):
        a, b = kron_pair
        queries = [Query(0, 0.0, a), Query(1, 0.01, b)]
        report, _ = scripted_serve(
            small_kron, queries, {a: 0.3, b: 0.2}, shards=1
        )
        # one shard runs a (0.05 → 0.35) then b (0.35 → 0.55); a's query
        # does not wait for b's run
        assert report.latencies_ms == pytest.approx([0.35, 0.54])
        assert report.shard_busy_ms == pytest.approx([0.55])

    def test_in_flight_source_coalesces_at_its_run_end(
        self, small_kron, kron_pair, scripted_serve
    ):
        a, b = kron_pair
        queries = [Query(0, 0.0, a), Query(1, 0.01, b), Query(2, 0.1, a)]
        report, spans = scripted_serve(
            small_kron, queries, {a: 0.3, b: 0.2}, shards=1
        )
        assert report.coalesced == 1 and spans[2].name == "coalesced"
        assert spans[2].ts_ms + spans[2].dur_ms == pytest.approx(
            0.35 + CACHE_LATENCY_MS
        )


# ---------------------------------------------------------------------------
# bench suites + trajectory gating
# ---------------------------------------------------------------------------

def _tiny_suite(monkeypatch):
    """Shrink serve-smoke to one fast session for suite-level tests."""
    from repro.serve.bench import ServeCellSpec

    cell = ServeCellSpec(
        name="tiny", dataset="Amazon",
        config=ServeConfig(num_queries=24, seed=77, source_pool=3,
                           cold_fraction=0.3, landmarks=2, shards=2),
    )
    monkeypatch.setitem(SERVE_SUITES, "serve-tiny", (cell,))
    return "serve-tiny"


class TestServeSuites:
    def test_names_registered(self):
        assert "serve-smoke" in serve_suite_names()
        from repro.bench.suites import suite_names

        assert set(serve_suite_names()) <= set(suite_names())

    def test_trajectory_byte_identical(self, monkeypatch):
        suite = _tiny_suite(monkeypatch)
        doc1 = json.dumps(
            suite_document(run_serve_suite(suite), suite=suite),
            sort_keys=True,
        )
        doc2 = json.dumps(
            suite_document(run_serve_suite(suite, jobs=2), suite=suite),
            sort_keys=True,
        )
        assert doc1 == doc2

    def test_dispatch_through_bench_run_suite(self, monkeypatch):
        from repro.bench.suites import run_suite

        suite = _tiny_suite(monkeypatch)
        direct = run_serve_suite(suite)
        via_bench = run_suite(suite)
        assert [r.as_dict() for r in via_bench] == [
            r.as_dict() for r in direct
        ]

    def test_records_pin_wall_clock(self, monkeypatch):
        suite = _tiny_suite(monkeypatch)
        (record,) = run_serve_suite(suite)
        assert record.host_seconds == 0.0
        assert record.method == "serve:tiny"
        assert record.counters["serve.wrong"] == 0.0

    def test_seed_offset_changes_trajectory(self, monkeypatch):
        suite = _tiny_suite(monkeypatch)
        base = run_serve_cell(suite, "tiny", 0)[1]
        moved = run_serve_cell(suite, "tiny", 1)[1]
        assert base.counters != moved.counters

    def test_gate_rejects_corrupt_server(self, monkeypatch):
        import repro.serve.scheduler as sched

        suite = _tiny_suite(monkeypatch)
        monkeypatch.setattr(
            sched, "certified_answer",
            lambda oracle, u, v, tol: 1e30 if u != v else 0.0,
        )
        with pytest.raises(RuntimeError, match="wrong answer"):
            run_serve_suite(suite)

    def test_committed_baseline_matches_fresh_run(self):
        """The repo-root BENCH_serve.json gates a fresh serve-smoke run.

        This is the CI serve job run in-process: any change that moves a
        single deterministic serving counter must refresh the baseline.
        """
        from pathlib import Path

        from repro.bench.trajectory import compare_records, load_trajectory

        baseline_path = Path(__file__).parent.parent / "BENCH_serve.json"
        meta, baseline = load_trajectory(baseline_path)
        assert meta["suite"] == "serve-smoke"
        current = run_serve_suite("serve-smoke")
        report = compare_records(baseline, current, check_wall=False)
        assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestServeCLI:
    def test_adhoc_session(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "serve.json"
        code = main([
            "serve", "kron:8,8", "--queries", "30", "--pool", "3",
            "--landmarks", "2", "--out", str(out),
        ])
        assert code == 0
        assert "verdict : 0 wrong answer(s) — ok" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["suite"] == "serve-custom"
        (rec,) = doc["records"]
        assert rec["method"] == "serve:custom"
        assert rec["counters"]["serve.queries"] == 30.0

    def test_requires_graph_or_suite(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve"])
        with pytest.raises(SystemExit) as exc:
            main(["serve", "kron:8,8", "--multi-gpu", "2"])
        assert exc.value.code == 2

    def test_suite_mode(self, capsys, monkeypatch):
        from repro.cli import main

        _tiny_suite(monkeypatch)
        code = main(["serve", "--suite", "tiny", "--seed", "0"])
        assert code == 0
        assert "1/1 session(s) clean" in capsys.readouterr().out

    def test_exit_code_on_wrong_answers(self, monkeypatch, capsys):
        import repro.serve.scheduler as sched
        from repro.cli import main

        _tiny_suite(monkeypatch)
        monkeypatch.setattr(
            sched, "certified_answer",
            lambda oracle, u, v, tol: 1e30 if u != v else 0.0,
        )
        assert main(["serve", "--suite", "tiny"]) == 1
        assert "FAILED" in capsys.readouterr().out

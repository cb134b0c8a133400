"""Serving-tier chaos engineering (repro.serve.chaos).

The contracts under test are the ones ``BENCH_serve-chaos.json`` and
CI's chaos smoke stand on:

* chaos plans are fully scripted and deterministic: the same
  ``(graph, ServeConfig)`` replays the same failures, hedges and breaker
  transitions; the chaos-off path stays byte-identical (no new counters,
  no checksum work);
* a shard blackout re-routes the one run it hits (hedges count runs) and the
  per-shard breaker walks closed → open → half-open → closed on
  simulated time;
* corrupted LRU entries are detected by checksum and quarantined, never
  served — and corruption damages a *copy*, so oracle-owned landmark
  rows stay pristine;
* the degradation ladder never produces a wrong answer: late requests
  are served degraded-but-certified at the relaxed tolerance or shed
  explicitly, counted and SLO-accounted;
* every shipped chaos plan ends with ``report.ok``.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import (
    CHAOS_PLANS,
    DistanceFieldLRU,
    ServeConfig,
    chaos_plan_names,
    get_chaos_plan,
    serve_traffic,
)
from repro.serve.chaos import (
    ChaosEngine,
    ChaosPlan,
    ShardBlackout,
    ShardBreaker,
    ShardSlowdown,
)
from repro.serve.workload import Query

# fast sessions on the small kron graph, reused across tests
BLACKOUT = ServeConfig(
    num_queries=60, seed=5, p2p_fraction=0.7, tolerance=0.3,
    source_pool=5, cold_fraction=0.3, landmarks=3, shards=2,
    chaos="blackout",
)
LADDER = ServeConfig(
    num_queries=60, seed=5, p2p_fraction=0.7, tolerance=0.05,
    source_pool=5, cold_fraction=0.4, landmarks=3, shards=2,
    chaos="blackout", deadline_ms=0.1, relaxed_tolerance=0.9,
)


def _report():
    return SimpleNamespace(
        hedges=0, shard_failures=0, breaker_opens=0, breaker_half_opens=0,
        breaker_closes=0, corruptions_injected=0,
    )


def _engine(plan: ChaosPlan, shards: int = 2) -> ChaosEngine:
    return ChaosEngine(plan, shards, _report())


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

class TestPlans:
    def test_registry(self):
        assert chaos_plan_names() == sorted(CHAOS_PLANS)
        for name in chaos_plan_names():
            assert get_chaos_plan(name).name == name

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos plan"):
            get_chaos_plan("nope")

    def test_unknown_plan_rejected_at_session_start(self, small_kron):
        from repro.serve.scheduler import _Session

        cfg = ServeConfig(chaos="nope")
        with pytest.raises(ValueError, match="unknown chaos plan"):
            _Session(small_kron, cfg, None, True)

    def test_shipped_windows_are_finite(self):
        for plan in CHAOS_PLANS.values():
            for b in plan.blackouts:
                assert b.start_ms < b.end_ms < float("inf")
            for s in plan.slowdowns:
                assert s.start_ms < s.end_ms and s.factor > 1.0
            assert plan.breaker_reset_ms > 0


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

class TestBreaker:
    def test_closed_open_halfopen_closed(self):
        eng = SimpleNamespace(report=_report())
        b = ShardBreaker(0, threshold=1, reset_ms=0.5)
        assert b.state == "closed" and b.can_dispatch(0.0)
        b.on_failure(1.0, eng)
        assert b.state == "open"
        assert not b.can_dispatch(1.2)
        assert b.can_dispatch(1.5)  # reset elapsed
        b.on_dispatch(1.5, eng)
        assert b.state == "half-open"
        b.on_success(1.6, eng)
        assert b.state == "closed"
        r = eng.report
        assert (r.breaker_opens, r.breaker_half_opens, r.breaker_closes) == (1, 1, 1)

    def test_halfopen_failure_reopens(self):
        eng = SimpleNamespace(report=_report())
        b = ShardBreaker(0, threshold=3, reset_ms=0.5)
        b.on_failure(0.0, eng)
        b.on_failure(0.0, eng)
        assert b.state == "closed"  # threshold 3 not reached
        b.on_failure(0.0, eng)
        assert b.state == "open"
        b.on_dispatch(0.6, eng)
        b.on_failure(0.6, eng)  # probe failed: one strike re-opens
        assert b.state == "open"
        assert b.opened_at == 0.6
        assert eng.report.breaker_opens == 2

    def test_success_resets_failure_streak(self):
        eng = SimpleNamespace(report=_report())
        b = ShardBreaker(0, threshold=2, reset_ms=0.5)
        b.on_failure(0.0, eng)
        b.on_success(0.1, eng)
        b.on_failure(0.2, eng)
        assert b.state == "closed"  # streak was broken


# ---------------------------------------------------------------------------
# slowdown-aware service times
# ---------------------------------------------------------------------------

class TestServiceEnd:
    PLAN = ChaosPlan(
        name="t",
        slowdowns=(ShardSlowdown(shard=0, start_ms=1.0, end_ms=2.0, factor=2.0),),
    )

    def test_piecewise_integration(self):
        eng = _engine(self.PLAN)
        assert eng.service_end(0, 0.0, 0.5) == pytest.approx(0.5)  # before
        assert eng.service_end(0, 1.0, 0.2) == pytest.approx(1.4)  # inside: 2x
        assert eng.service_end(0, 0.8, 0.4) == pytest.approx(1.4)  # straddle in
        assert eng.service_end(0, 1.8, 0.5) == pytest.approx(2.4)  # straddle out
        assert eng.service_end(0, 2.5, 0.5) == pytest.approx(3.0)  # after

    def test_other_shard_unaffected(self):
        eng = _engine(self.PLAN)
        assert eng.service_end(1, 1.0, 0.2) == pytest.approx(1.2)


# ---------------------------------------------------------------------------
# hedged dispatch
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_blackout_hedges_to_healthy_shard(self):
        plan = ChaosPlan(
            name="t", blackouts=(ShardBlackout(shard=0, start_ms=1.0, end_ms=2.0),)
        )
        eng = _engine(plan, shards=2)
        busy = [0.0, 0.0]
        shard, end = eng.dispatch(busy, now=0.9, work_ms=0.5)
        # shard 0 (least loaded, lowest index) fails at the blackout edge,
        # the run hedges onto shard 1 from the failure instant
        assert (shard, end) == (1, pytest.approx(1.5))
        assert busy[0] == pytest.approx(1.0)  # burned work up to the failure
        assert busy[1] == pytest.approx(1.5)
        r = eng.report
        assert r.hedges == 1 and r.shard_failures == 1 and r.breaker_opens == 1

    def test_single_shard_recovers_via_halfopen_probe(self):
        plan = ChaosPlan(
            name="t",
            blackouts=(ShardBlackout(shard=0, start_ms=0.0, end_ms=1.0),),
            breaker_reset_ms=0.4,
        )
        eng = _engine(plan, shards=1)
        busy = [0.0]
        shard, end = eng.dispatch(busy, now=0.0, work_ms=0.2)
        # probes at 0.4 and 0.8 fail inside the blackout; the probe at 1.2
        # succeeds and closes the breaker
        assert (shard, end) == (0, pytest.approx(1.4))
        r = eng.report
        assert r.shard_failures == 3
        assert r.breaker_opens == 3
        assert r.breaker_half_opens == 3
        assert r.breaker_closes == 1
        assert eng.breakers[0].state == "closed"

    def test_dispatch_is_deterministic(self):
        plan = get_chaos_plan("blackout")
        a_busy, b_busy = [0.0, 0.1, 0.2], [0.0, 0.1, 0.2]
        a = _engine(plan, 3).dispatch(a_busy, 0.15, 0.3)
        b = _engine(plan, 3).dispatch(b_busy, 0.15, 0.3)
        assert a == b and a_busy == b_busy


# ---------------------------------------------------------------------------
# cache checksums and quarantine
# ---------------------------------------------------------------------------

class TestCacheChecksums:
    def test_intact_round_trip(self):
        lru = DistanceFieldLRU(1 << 20, checksums=True)
        arr = np.arange(64, dtype=np.float64)
        lru.put(7, arr)
        np.testing.assert_array_equal(lru.get(7), arr)
        assert lru.stats()["corrupted"] == 0

    def test_corruption_detected_and_quarantined(self):
        seen = []
        lru = DistanceFieldLRU(1 << 20, checksums=True,
                               on_corruption=seen.append)
        lru.put(7, np.arange(64, dtype=np.float64))
        assert lru.corrupt(7) is True
        assert lru.get(7) is None  # detected: quarantined, reads as a miss
        assert 7 not in lru
        assert lru.corrupted == 1 and lru.misses == 1
        assert seen == [7]
        assert lru.bytes == 0  # byte ledger stays consistent

    def test_peek_also_quarantines(self):
        lru = DistanceFieldLRU(1 << 20, checksums=True)
        lru.put(3, np.arange(16, dtype=np.float64))
        lru.corrupt(3)
        assert lru.peek(3) is None
        assert lru.corrupted == 1

    def test_corruption_damages_a_copy(self):
        """Resident fields may alias oracle-owned landmark rows; chaos
        must never mutate the shared array in place."""
        lru = DistanceFieldLRU(1 << 20, checksums=True)
        arr = np.arange(64, dtype=np.float64)
        pristine = arr.copy()
        lru.put(7, arr)
        lru.corrupt(7)
        np.testing.assert_array_equal(arr, pristine)

    def test_corrupt_missing_source_is_noop(self):
        lru = DistanceFieldLRU(1 << 20, checksums=True)
        assert lru.corrupt(99) is False

    def test_checksums_off_stats_unchanged(self):
        """The chaos-off cache must expose exactly the legacy stat keys —
        the committed BENCH_serve.json byte-identity depends on it."""
        lru = DistanceFieldLRU(1 << 20)
        lru.put(1, np.arange(8, dtype=np.float64))
        assert set(lru.stats()) == {
            "entries", "bytes", "max_bytes", "hits", "misses",
            "evictions", "rejected",
        }


# ---------------------------------------------------------------------------
# full sessions under chaos
# ---------------------------------------------------------------------------

class TestChaosSessions:
    def test_blackout_hedges_and_breaker_recovers(self, small_kron):
        report = serve_traffic(small_kron, BLACKOUT)
        assert report.ok
        assert report.hedges > 0
        assert report.shard_failures > 0
        assert report.breaker_opens >= 1
        assert report.breaker_half_opens >= 1
        assert report.breaker_closes >= 1  # recovered via a half-open probe

    @pytest.mark.parametrize("plan", sorted(CHAOS_PLANS))
    def test_every_shipped_plan_ends_ok(self, small_kron, plan):
        cfg = ServeConfig(
            num_queries=40, seed=5, p2p_fraction=0.7, tolerance=0.3,
            source_pool=5, cold_fraction=0.3, landmarks=3, shards=2,
            chaos=plan,
        )
        report = serve_traffic(small_kron, cfg)
        assert report.ok, f"plan {plan}: {report.summary()}"

    def test_deadline_ladder_accounts_every_request(self, small_kron):
        report = serve_traffic(small_kron, LADDER)
        assert report.ok  # degraded answers still certified, sheds counted
        assert report.degraded > 0
        assert report.shed > 0
        assert report.slo_violations == report.shed
        # every request is either answered (one latency sample) or shed
        assert len(report.latencies_ms) + report.shed == report.queries

    def test_corruption_detected_never_served(self, small_kron):
        cfg = ServeConfig(
            num_queries=60, seed=5, p2p_fraction=0.8, tolerance=0.3,
            source_pool=4, cold_fraction=0.1, landmarks=3, shards=2,
            chaos="cache-corruption",
        )
        report = serve_traffic(small_kron, cfg)
        assert report.ok  # validation would flag a served poisoned field
        assert report.corruptions_injected > 0
        assert report.cache_stats.get("corrupted", 0) > 0

    def test_oracle_outage_refuses_certified_answers(self, small_kron):
        cfg = ServeConfig(
            num_queries=60, seed=5, p2p_fraction=0.9, tolerance=0.5,
            source_pool=5, cold_fraction=0.4, landmarks=4, shards=2,
            chaos="oracle-outage",
        )
        report = serve_traffic(small_kron, cfg)
        assert report.ok
        assert report.oracle_refusals > 0

    def test_chaos_session_is_deterministic(self, small_kron):
        a = serve_traffic(small_kron, LADDER)
        b = serve_traffic(small_kron, LADDER)
        assert a.counter_dict() == b.counter_dict()
        assert a.makespan_ms == b.makespan_ms

    def test_chaos_off_emits_no_chaos_counters(self, small_kron):
        cfg = ServeConfig(
            num_queries=40, seed=5, source_pool=5, landmarks=3, shards=2
        )
        counters = serve_traffic(small_kron, cfg).counter_dict()
        assert not [k for k in counters if
                    k.startswith(("serve.hedges", "serve.breaker",
                                  "serve.shed", "serve.degraded",
                                  "serve.corruptions", "serve.slo",
                                  "serve.shard_fail", "serve.oracle_ref"))]

    def test_negative_deadline_rejected(self, small_kron):
        with pytest.raises(ValueError, match="deadline_ms"):
            serve_traffic(small_kron, ServeConfig(deadline_ms=-1.0))


class TestRunHedging:
    """A blackout fails the one run it overlaps; only that run hedges.
    Scripted runs (see the ``scripted_serve`` fixture) flush at 0.05 ms:
    ``a`` takes 0.3 ms, then ``b`` 0.2 ms, on two shards."""

    def _play(self, monkeypatch, scripted_serve, graph, pair, plan):
        a, b = pair
        monkeypatch.setitem(CHAOS_PLANS, plan.name, plan)
        queries = [Query(0, 0.0, a), Query(1, 0.01, b)]
        return scripted_serve(
            graph, queries, {a: 0.3, b: 0.2}, shards=2, chaos=plan.name
        )

    def test_only_the_failed_run_is_reissued(
        self, monkeypatch, scripted_serve, small_kron, kron_pair
    ):
        plan = ChaosPlan(
            name="t-one-run",
            blackouts=(ShardBlackout(shard=1, start_ms=0.1, end_ms=2.0),),
        )
        report, spans = self._play(
            monkeypatch, scripted_serve, small_kron, kron_pair, plan
        )
        # a runs undisturbed on shard 0 (0.05 → 0.35); b fails on shard 1
        # at 0.1 and is re-issued alone onto shard 0 behind a
        assert report.hedges == 1 and report.shard_failures == 1
        assert spans[0].args["shard"] == 0
        assert spans[0].ts_ms + spans[0].dur_ms == pytest.approx(0.35)
        assert spans[1].args["shard"] == 0
        assert spans[1].ts_ms + spans[1].dur_ms == pytest.approx(0.55)
        assert report.ok

    def test_hedges_count_runs(
        self, monkeypatch, scripted_serve, small_kron, kron_pair
    ):
        # shard 0's breaker opens on the second failure, so both runs of
        # the one batch try shard 0 inside the blackout and hedge
        plan = ChaosPlan(
            name="t-two-runs",
            blackouts=(ShardBlackout(shard=0, start_ms=0.1, end_ms=2.0),),
            failure_threshold=2,
        )
        report, spans = self._play(
            monkeypatch, scripted_serve, small_kron, kron_pair, plan
        )
        assert report.batches == 1 and report.exact_runs == 2
        assert report.hedges == 2 and report.shard_failures == 2
        assert spans[0].ts_ms + spans[0].dur_ms == pytest.approx(0.4)
        assert spans[1].ts_ms + spans[1].dur_ms == pytest.approx(0.6)
        assert report.ok


# ---------------------------------------------------------------------------
# the committed serve-chaos baseline
# ---------------------------------------------------------------------------

class TestChaosSuite:
    def test_suite_registered(self):
        from repro.bench.suites import suite_names
        from repro.serve.bench import serve_suite_names

        assert "serve-chaos" in serve_suite_names()
        assert "serve-chaos" in suite_names()

    def test_committed_baseline_demonstrates_the_story(self):
        """The committed BENCH_serve-chaos.json must actually show the
        acceptance behaviors: hedged re-routing with a breaker recovery
        (blackout-hedge), ladder degradation + shedding (deadline-ladder),
        detected corruption (cache-corruption) and oracle refusals
        (oracle-outage) — all with zero wrong answers."""
        from pathlib import Path

        from repro.bench.trajectory import load_trajectory

        path = Path(__file__).parent.parent / "BENCH_serve-chaos.json"
        meta, records = load_trajectory(path)
        assert meta["suite"] == "serve-chaos"
        by_name = {r.method.removeprefix("serve:"): r.counters for r in records}

        blackout = by_name["blackout-hedge"]
        assert blackout["serve.hedges"] > 0
        assert blackout["serve.breaker_opens"] >= 1
        assert blackout["serve.breaker_half_opens"] >= 1
        assert blackout["serve.breaker_closes"] >= 1

        ladder = by_name["deadline-ladder"]
        assert ladder["serve.degraded"] > 0
        assert ladder["serve.shed"] > 0
        assert ladder["serve.slo_violations"] == ladder["serve.shed"]

        assert by_name["cache-corruption"]["serve.corruptions_detected"] > 0
        assert by_name["oracle-outage"]["serve.oracle_refusals"] > 0

        for name, counters in by_name.items():
            assert counters["serve.wrong"] == 0, name
            assert counters["serve.faults_escaped"] == 0, name

    def test_committed_baseline_matches_fresh_run(self):
        """The CI chaos gate run in-process: any change that moves one
        deterministic chaos counter must refresh BENCH_serve-chaos.json."""
        from pathlib import Path

        from repro.bench.trajectory import compare_records, load_trajectory
        from repro.serve.bench import run_serve_suite

        path = Path(__file__).parent.parent / "BENCH_serve-chaos.json"
        meta, baseline = load_trajectory(path)
        current = run_serve_suite("serve-chaos")
        report = compare_records(baseline, current, check_wall=False)
        assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestChaosCLI:
    def test_adhoc_chaos_json_format(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "kron:8,8", "--queries", "30", "--pool", "3",
            "--landmarks", "2", "--chaos-plan", "blackout",
            "--deadline-ms", "0.3", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["counters"]["serve.queries"] == 30.0
        assert "serve.hedges" in doc["counters"]
        assert "serve.shed" in doc["counters"]

    def test_suite_json_format(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.serve.bench import SERVE_SUITES, ServeCellSpec

        cell = ServeCellSpec(
            name="tiny-chaos", dataset="Amazon",
            config=ServeConfig(num_queries=24, seed=77, source_pool=3,
                               cold_fraction=0.3, landmarks=2, shards=2,
                               chaos="blackout"),
        )
        monkeypatch.setitem(SERVE_SUITES, "serve-tinychaos", (cell,))
        code = main(["serve", "--suite", "tinychaos", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["suite"] == "serve-tinychaos"
        (session,) = doc["reports"]
        assert session["cell"] == "tiny-chaos"
        assert "serve.hedges" in session["counters"]

    def test_bad_chaos_plan_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve", "kron:8,8", "--chaos-plan", "nope"])

"""Tests for repro.trace: the structured event-tracing layer.

Covers the ISSUE-5 acceptance points: tracing attached does not perturb
any device quantity (and off is trivially identical — the bench gate
holds that line), the Chrome export is valid ``trace_event`` JSON, the
Δ_i series on ``SSSPResult`` matches the bucket sequence observers see,
and the ring buffer bounds memory on long runs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.gpusim.device import register_global_observer, unregister_global_observer
from repro.sssp import sssp, validate_distances
from repro.trace import (
    TraceEvent,
    Tracer,
    active_tracer,
    format_summary,
    load_trace,
    to_chrome,
    traced_sssp,
    tracing,
    write_chrome,
    write_jsonl,
)


def _counter_dict(result) -> dict:
    return {
        k: int(v)
        for k, v in vars(result.counters.totals).items()
        if isinstance(v, (int, np.integer))
    }


# ----------------------------------------------------------------------
# zero-perturbation contract
# ----------------------------------------------------------------------

class TestZeroCost:
    def test_traced_run_byte_identical_device_quantities(self, small_kron, kron_source):
        """An attached tracer must not move a single counter or the
        simulated clock — the observer seam is read-only."""
        plain = sssp(small_kron, kron_source, method="rdbs")
        traced, tr = traced_sssp(small_kron, kron_source, method="rdbs")
        assert len(tr) > 0
        assert traced.time_ms == plain.time_ms
        assert _counter_dict(traced) == _counter_dict(plain)
        np.testing.assert_array_equal(traced.dist, plain.dist)

    def test_tracer_detaches_cleanly(self, small_kron, kron_source):
        assert active_tracer() is None
        with tracing() as tr:
            assert active_tracer() is tr
        assert active_tracer() is None
        # a run after detach emits nothing into the old tracer
        n = len(tr)
        sssp(small_kron, kron_source, method="rdbs")
        assert len(tr) == n

    def test_region_sink_restored_after_tracing(self):
        from repro.perf import profile

        with tracing():
            pass
        with profile.region("after-detach"):
            pass  # must be a no-op again, not feed the dead tracer


# ----------------------------------------------------------------------
# event content
# ----------------------------------------------------------------------

class TestEvents:
    @pytest.fixture()
    def traced_rdbs(self, small_kron, kron_source):
        result, tr = traced_sssp(small_kron, kron_source, method="rdbs")
        validate_distances(small_kron, kron_source, result.dist)
        return result, tr

    def test_kernel_spans_have_durations_and_counters(self, traced_rdbs):
        result, tr = traced_rdbs
        kernels = [e for e in tr.events if e.kind == "kernel"]
        assert kernels
        names = {e.name for e in kernels}
        assert {"phase1_async", "phase23_fused"} <= names
        total = sum(e.dur_ms for e in kernels)
        assert 0 < total <= result.time_ms + 1e-9
        for e in kernels:
            assert e.args["threads"] >= 0
            assert e.args["warp_instructions"] >= 0
            assert e.ts_ms >= 0

    def test_continuation_segments_are_marked(self, traced_rdbs):
        """Bucket fusion: only host launches lack the ``host_launch`` arg,
        and their count is the device's host-launch counter."""
        result, tr = traced_rdbs
        kernels = [e for e in tr.events if e.kind == "kernel"]
        host = [e for e in kernels if e.args.get("host_launch", True)]
        assert len(host) == result.counters.totals.kernel_launches
        assert len(host) < len(kernels)
        assert all(e.args["host_launch"] is False
                   for e in kernels if e not in host)
        summary = format_summary(tr)
        assert (f"kernels ({len(kernels)} segments, {len(host)} host "
                f"launches") in summary
        assert (f"{len(kernels)} kernel segments ({len(host)} host "
                f"launches)") in result.extra["timeline"].report()

    def test_bucket_spans_carry_eq12_inputs(self, traced_rdbs):
        result, tr = traced_rdbs
        buckets = [e for e in tr.events if e.kind == "bucket"]
        assert len(buckets) == result.extra["buckets"]
        for e in buckets:
            a = e.args
            assert {"index", "lo", "hi", "delta", "epsilon",
                    "converged", "threads", "rounds"} <= set(a)
            assert a["delta"] == pytest.approx(a["hi"] - a["lo"])
            assert a["converged"] >= 0 and a["threads"] >= 0

    def test_delta_series_matches_observed_bucket_sequence(self, traced_rdbs):
        """The telemetry on SSSPResult and the tracer's bucket spans are
        two views of the same annotate stream — they must agree."""
        result, tr = traced_rdbs
        rows = result.extra["bucket_telemetry"]
        assert [r["delta"] for r in rows] == pytest.approx(tr.delta_series())
        spans = [e.args for e in tr.events if e.kind == "bucket"]
        assert [s["index"] for s in spans] == [r["index"] for r in rows]
        assert [s["epsilon"] for s in spans] == pytest.approx(
            [r["epsilon"] for r in rows]
        )
        # Eq. 2: each processed bucket's width is lo/hi-consistent
        for r in rows:
            assert r["delta"] == pytest.approx(r["hi"] - r["lo"])

    def test_delta_series_matches_sanitizer_visible_buckets(
        self, small_kron, kron_source
    ):
        """A second, independent observer (like the sanitizer) sees the
        same bucket sequence the telemetry reports."""

        class BucketWatcher:
            def __init__(self):
                self.widths = []

            def on_annotate(self, _device, tag, payload):
                if tag == "bucket":
                    self.widths.append(payload["hi"] - payload["lo"])

        watcher = BucketWatcher()
        register_global_observer(watcher)
        try:
            result = sssp(small_kron, kron_source, method="rdbs")
        finally:
            unregister_global_observer(watcher)
        assert watcher.widths == pytest.approx(
            [r["delta"] for r in result.extra["bucket_telemetry"]]
        )

    def test_adwl_histogram_counters(self, traced_rdbs):
        _, tr = traced_rdbs
        adwl = [e for e in tr.events if e.kind == "counter" and e.name == "adwl"]
        assert adwl
        for e in adwl:
            assert set(e.args) == {"small", "middle", "large"}
            assert sum(e.args.values()) > 0

    def test_async_round_progress(self, traced_rdbs):
        result, tr = traced_rdbs
        rounds = [e for e in tr.events
                  if e.kind == "counter" and e.name == "async_round"]
        assert len(rounds) == result.extra["rounds"]
        assert all(e.args["drained"] > 0 for e in rounds)

    def test_sync_and_bl_rounds_annotated(self, small_kron, kron_source):
        _, tr = traced_sssp(small_kron, kron_source, method="sync-delta")
        assert any(e.name == "sync_round" for e in tr.events)
        _, tr = traced_sssp(small_kron, kron_source, method="bl")
        bl = [e for e in tr.events if e.name == "bl_round"]
        assert bl and all(e.args["frontier"] > 0 for e in bl)

    def test_faulty_run_traces_faults_and_recovery(self, small_kron, kron_source):
        from repro.faults import faulty_sssp

        with tracing() as tr:
            _result, report = faulty_sssp(
                small_kron, kron_source, method="rdbs",
                plan="lost-updates", seed=0, recovery=True,
            )
        faults = [e for e in tr.events if e.kind == "fault"]
        assert len(faults) == report.injected
        assert {e.name for e in faults} == {"lost-update"}
        assert any(e.kind == "recovery" for e in tr.events)

    def test_alloc_events(self, traced_rdbs):
        _, tr = traced_rdbs
        allocs = [e for e in tr.events if e.kind == "alloc"]
        assert any(e.name == "dist" for e in allocs)
        assert all(e.args["bytes"] > 0 for e in allocs)

    def test_multisplit_telemetry_on_kernel_spans(self, traced_rdbs):
        """Launches that issued a warp-ballot multisplit carry the four
        extra args; launches that didn't carry none of them (mirroring
        the counter snapshot's conditional keys)."""
        result, tr = traced_rdbs
        ms_keys = {"histogram_passes", "num_buckets", "warp_ballots",
                   "shared_transactions"}
        kernels = [e for e in tr.events if e.kind == "kernel"]
        with_ms = [e for e in kernels if ms_keys <= set(e.args)]
        assert with_ms  # RDBS splits in every phase
        for e in with_ms:
            assert e.args["histogram_passes"] >= 1
            assert e.args["num_buckets"] >= 2
            assert e.args["warp_ballots"] >= 1
            assert e.args["shared_transactions"] >= 1
        without = [e for e in kernels if not ms_keys <= set(e.args)]
        for e in without:
            assert not (ms_keys & set(e.args))
        # span telemetry sums to the run totals
        c = result.counters.totals
        assert sum(e.args["histogram_passes"] for e in with_ms) \
            == c.multisplit_ops
        assert sum(e.args["warp_ballots"] for e in with_ms) \
            == c.inst_executed_ballots

    def test_multisplit_args_survive_export_round_trips(
        self, traced_rdbs, tmp_path
    ):
        _, tr = traced_rdbs
        ms_keys = {"histogram_passes", "num_buckets", "warp_ballots",
                   "shared_transactions"}

        def ms_args(events):
            return [
                {k: e.args[k] for k in sorted(ms_keys)}
                for e in events
                if e.kind == "kernel" and ms_keys <= set(e.args)
            ]

        want = ms_args(tr.events)
        assert want
        jsonl = tmp_path / "t.jsonl"
        write_jsonl(tr, str(jsonl))
        events, _ = load_trace(str(jsonl))
        assert ms_args(events) == want
        chrome = tmp_path / "t.json"
        write_chrome(tr, str(chrome))
        events, _ = load_trace(str(chrome))
        assert ms_args(events) == want


# ----------------------------------------------------------------------
# ring buffer bound
# ----------------------------------------------------------------------

class TestRingBuffer:
    def test_capacity_bounds_memory_on_long_run(self, medium_kron):
        src = int(np.argmax(np.diff(medium_kron.row)))
        tracer = Tracer(capacity=64)
        result, tr = traced_sssp(
            medium_kron, src, method="rdbs", tracer=tracer
        )
        assert tr is tracer
        assert len(tr.events) == 64
        assert tr.dropped > 0
        # newest events survive (oldest-first eviction)
        assert result.extra["buckets"] > 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------

class TestExport:
    @pytest.fixture()
    def tr(self, small_kron, kron_source):
        _, tr = traced_sssp(small_kron, kron_source, method="rdbs")
        return tr

    def test_chrome_export_is_valid_trace_event_json(self, tr, tmp_path):
        path = tmp_path / "t.json"
        write_chrome(tr, str(path))
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        phases = set()
        for ev in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            phases.add(ev["ph"])
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
        assert {"X", "C", "i", "M"} <= phases
        # the acceptance criterion: at least one bucket span with Δ/ε args
        bucket_spans = [
            ev for ev in doc["traceEvents"]
            if ev["ph"] == "X" and ev.get("cat") == "bucket"
        ]
        assert bucket_spans
        assert {"delta", "epsilon", "lo", "hi"} <= set(bucket_spans[0]["args"])

    def test_chrome_round_trip(self, tr, tmp_path):
        path = tmp_path / "t.json"
        write_chrome(tr, str(path))
        events, meta = load_trace(str(path))
        assert len(events) == len(tr.events)
        assert meta["method"] == "rdbs"
        assert [e.kind for e in events] == [e.kind for e in tr.events]

    def test_jsonl_round_trip_exact(self, tr, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(tr, str(path))
        events, meta = load_trace(str(path))
        assert events == list(tr.events)
        assert meta["method"] == "rdbs"

    def test_summary_renders(self, tr):
        text = format_summary(tr)
        assert "kernels" in text and "buckets" in text
        assert "Δ_i" in text

    def test_to_chrome_accepts_plain_event_lists(self):
        events = [TraceEvent("mark", "hello", 1.0, device=-1)]
        doc = to_chrome(events)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "i"]
        assert "mark:hello" in names


# ----------------------------------------------------------------------
# chaos events (breaker transitions, hedges, sheds) in the trace
# ----------------------------------------------------------------------

class TestChaosEvents:
    @pytest.fixture()
    def chaos_tr(self, small_kron):
        from repro.serve import ServeConfig, serve_traffic

        cfg = ServeConfig(
            num_queries=60, seed=5, p2p_fraction=0.7, tolerance=0.05,
            source_pool=5, cold_fraction=0.4, landmarks=3, shards=2,
            chaos="blackout", deadline_ms=0.1, relaxed_tolerance=0.9,
        )
        with tracing() as tr:
            report = serve_traffic(small_kron, cfg)
        assert report.ok
        tr.meta.update(graph="kron", method="serve")
        return tr

    def test_breaker_and_shed_events_emitted(self, chaos_tr):
        names = [e.name for e in chaos_tr.events if e.kind == "chaos"]
        assert "breaker_open" in names
        assert "breaker_half_open" in names
        assert "hedge" in names
        assert "shed" in names
        for e in chaos_tr.events:
            if e.kind == "chaos":
                assert e.device == -1  # chaos lives on the host timeline
                assert e.dur_ms == 0.0  # instants, not spans

    def test_jsonl_round_trip_preserves_chaos_events(self, chaos_tr, tmp_path):
        path = tmp_path / "chaos.jsonl"
        write_jsonl(chaos_tr, str(path))
        events, _meta = load_trace(str(path))
        assert events == list(chaos_tr.events)

    def test_chrome_round_trip_strips_chaos_prefix(self, chaos_tr, tmp_path):
        path = tmp_path / "chaos.json"
        write_chrome(chaos_tr, str(path))
        doc = json.loads(path.read_text())
        instants = [e["name"] for e in doc["traceEvents"]
                    if e.get("cat") == "chaos"]
        assert any(n == "chaos:breaker_open" for n in instants)
        events, _meta = load_trace(str(path))
        names = [e.name for e in events if e.kind == "chaos"]
        assert "breaker_open" in names  # prefix stripped on load
        assert not any(n.startswith("chaos:") for n in names)

    def test_summary_has_chaos_section(self, chaos_tr):
        text = format_summary(chaos_tr)
        assert "chaos (" in text
        assert "breaker_open" in text
        assert "shed" in text
        # the chaos section survives an export/import cycle too
        events = list(chaos_tr.events)
        assert "chaos (" in format_summary(events)

    def test_chaos_off_session_has_no_chaos_events(self, small_kron):
        from repro.serve import ServeConfig, serve_traffic

        with tracing() as tr:
            serve_traffic(small_kron, ServeConfig(
                num_queries=30, seed=5, source_pool=4, landmarks=2, shards=2
            ))
        assert not [e for e in tr.events if e.kind == "chaos"]
        assert "chaos (" not in format_summary(tr)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCLI:
    def test_trace_run_summary_export(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        assert main(["trace", "run", "kron:8,8", "--method", "rdbs",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert main(["trace", "summary", str(out)]) == 0
        assert "buckets" in capsys.readouterr().out
        assert main(["trace", "export", str(out), "--format", "jsonl",
                     "--out", str(tmp_path / "t.jsonl")]) == 0
        events, _ = load_trace(str(tmp_path / "t.jsonl"))
        assert events

    def test_trace_run_with_fault_plan(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "f.jsonl"
        assert main(["trace", "run", "kron:8,8", "--method", "rdbs",
                     "--plan", "lost-updates", "--out", str(out)]) == 0
        events, meta = load_trace(str(out))
        assert meta["plan"] == "lost-updates"
        assert any(e.kind == "fault" for e in events)

    def test_trace_run_capacity_flag(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "t.jsonl"
        assert main(["trace", "run", "kron:8,8", "--capacity", "32",
                     "--out", str(out)]) == 0
        events, meta = load_trace(str(out))
        assert len(events) == 32
        assert meta["dropped"] > 0

    def test_bench_run_trace_requires_serial(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench", "run", "--suite", "quick", "--jobs", "2",
                  "--trace", str(tmp_path / "x.json"),
                  "--out", str(tmp_path / "b.json")])

    def test_faults_trace_flag(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "f.json"
        rc = main(["faults", "kron:8,8", "--method", "rdbs",
                   "--plan", "lost-updates", "--seed", "0",
                   "--trace", str(out)])
        assert rc == 0
        events, _ = load_trace(str(out))
        assert any(e.kind == "fault" for e in events)

"""Tests for the continuous-benchmarking layer (repro.bench.trajectory)."""

import json
import math

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchRecord,
    SchemaVersionError,
    compare_records,
    format_diff,
    load_trajectory,
    record_from_run,
    run_method,
    write_trajectory,
)
from repro.bench.trajectory import MIN_WALL_SECONDS
from repro.graphs import kronecker


def make_record(**over) -> BenchRecord:
    base = dict(
        dataset="g",
        method="rdbs",
        gpu="V100",
        num_sources=2,
        time_ms=1.25,
        gteps=0.8,
        update_ratio=1.5,
        counters={"inst_executed_atomics": 100, "barriers": 7},
        host_seconds=2.0,
    )
    base.update(over)
    return BenchRecord(**base)


@pytest.fixture(scope="module")
def small_run():
    g = kronecker(7, 6, weights="int", seed=3)
    return run_method(g.name, "rdbs", graph=g, sources=[0])


class TestRecords:
    def test_run_serialization(self, small_run):
        rec = record_from_run(small_run)
        assert rec.key == (small_run.dataset, "rdbs", small_run.gpu)
        assert rec.time_ms == small_run.time_ms
        assert rec.counters["kernel_launches"] > 0
        assert rec.host_seconds > 0
        # everything JSON-safe, including the counter ints
        json.dumps(rec.as_dict())

    def test_nan_ratio_round_trips(self):
        rec = make_record(update_ratio=float("nan"))
        d = rec.as_dict()
        assert d["update_ratio"] is None
        back = BenchRecord.from_dict(d)
        assert math.isnan(back.update_ratio)


class TestTrajectoryFiles:
    def test_write_load_round_trip(self, tmp_path, small_run):
        path = tmp_path / "BENCH_t.json"
        write_trajectory(path, [record_from_run(small_run)], suite="t")
        meta, records = load_trajectory(path)
        assert meta["schema_version"] == SCHEMA_VERSION
        assert meta["suite"] == "t"
        assert "git_sha" in meta
        assert len(records) == 1
        # round-trip check: the reloaded trajectory is clean vs the run
        assert compare_records(records, [record_from_run(small_run)]).ok

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        doc = {"schema_version": SCHEMA_VERSION + 1, "records": []}
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError, match="schema_version"):
            load_trajectory(path)


class TestComparison:
    def test_identical_is_clean(self):
        rep = compare_records([make_record()], [make_record()])
        assert rep.ok
        assert not rep.failures

    def test_counter_delta_detected(self):
        cur = make_record(
            counters={"inst_executed_atomics": 101, "barriers": 7}
        )
        rep = compare_records([make_record()], [cur])
        assert not rep.ok
        bad = [c.field for c in rep.failures]
        assert bad == ["counters.inst_executed_atomics"]

    def test_simulated_time_drift_detected_both_directions(self):
        # deterministic quantities gate on ANY drift, improvements included:
        # a faster simulated time still means the baseline must be refreshed
        for factor in (0.9, 1.1):
            cur = make_record(time_ms=1.25 * factor)
            rep = compare_records([make_record()], [cur])
            assert not rep.ok, factor
            assert any(c.field == "time_ms" for c in rep.failures)

    def test_missing_counter_key_detected(self):
        cur = make_record(counters={"inst_executed_atomics": 100})
        rep = compare_records([make_record()], [cur])
        assert any(c.field == "counters.barriers" for c in rep.failures)

    def test_wall_clock_within_tolerance_passes(self):
        cur = make_record(host_seconds=2.0 * 1.2)  # +20% < default 25%
        assert compare_records([make_record()], [cur]).ok

    def test_wall_clock_outside_tolerance_fails(self):
        cur = make_record(host_seconds=2.0 * 1.6)
        rep = compare_records([make_record()], [cur])
        assert not rep.ok
        assert [c.field for c in rep.failures] == ["host_seconds"]
        # ... unless the wall tier is widened or disabled
        assert compare_records(
            [make_record()], [cur], wall_tolerance=1.0
        ).ok
        assert compare_records(
            [make_record()], [cur], check_wall=False
        ).ok

    def test_wall_clock_speedup_never_fails(self):
        cur = make_record(host_seconds=0.2)
        assert compare_records([make_record()], [cur]).ok

    def test_tiny_wall_cells_not_gated(self):
        base = make_record(host_seconds=MIN_WALL_SECONDS / 10)
        cur = make_record(host_seconds=MIN_WALL_SECONDS / 2)  # 5x slower
        assert compare_records([base], [cur]).ok

    def test_missing_and_unexpected_cells(self):
        other = make_record(method="adds")
        rep = compare_records([make_record()], [other])
        assert not rep.ok
        assert rep.missing == [("g", "rdbs", "V100")]
        assert rep.unexpected == [("g", "adds", "V100")]
        assert "MISSING" in rep.summary()
        assert "UNEXPECTED" in rep.summary()

    def test_nan_update_ratio_equal(self):
        a = make_record(update_ratio=float("nan"))
        b = make_record(update_ratio=float("nan"))
        assert compare_records([a], [b]).ok


class TestDiff:
    def test_diff_table_shape(self):
        base = [make_record(), make_record(method="adds")]
        cur = [
            make_record(counters={"inst_executed_atomics": 101, "barriers": 7}),
            make_record(method="bl"),
        ]
        text = format_diff(base, cur, labels=("a", "b"))
        headline, deltas = text.split("\n\n")
        lines = headline.splitlines()
        assert lines[0].startswith("bench diff")
        assert "verdict" in lines[1]
        # three distinct cells: rdbs (paired), adds (only in a), bl (only in b)
        assert len(lines) == 3 + 3
        assert "DRIFT" in headline
        assert "only in" in headline
        # the appended delta table covers paired cells only
        assert deltas.splitlines()[0].startswith(
            "instruction / transaction deltas"
        )
        assert len(deltas.splitlines()) == 3 + 1

    def test_diff_clean_is_ok(self):
        text = format_diff([make_record()], [make_record()])
        assert "ok" in text and "DRIFT" not in text


class TestCounterDeltas:
    """The per-cell instruction/transaction delta table (bench diff)."""

    def test_sums_components_and_reports_percentages(self):
        from repro.bench.trajectory import format_counter_deltas

        old = make_record(counters={
            "inst_executed_global_loads": 60,
            "inst_executed_global_stores": 30,
            "inst_executed_atomics": 10,
            "global_load_transactions": 150,
            "global_store_transactions": 50,
        })
        new = make_record(counters={
            "inst_executed_global_loads": 40,
            "inst_executed_global_stores": 5,
            "inst_executed_atomics": 10,
            # the multisplit path trades ALU/branch work for ballots,
            # which count toward the instruction total
            "inst_executed_ballots": 5,
            "global_load_transactions": 150,
            "global_store_transactions": 30,
        })
        text = format_counter_deltas([old], [new], labels=("a", "b"))
        row = text.splitlines()[-1]
        # instructions: 100 -> 60 (-40%); transactions: 200 -> 180 (-10%)
        assert "100" in row and "60" in row and "-40.00%" in row
        assert "200" in row and "180" in row and "-10.00%" in row

    def test_missing_counter_keys_count_as_zero(self):
        from repro.bench.trajectory import format_counter_deltas

        text = format_counter_deltas(
            [make_record(counters={})], [make_record(counters={})]
        )
        row = text.splitlines()[-1]
        assert "+0.00%" in row

    def test_unpaired_cells_excluded(self):
        from repro.bench.trajectory import format_counter_deltas

        text = format_counter_deltas(
            [make_record(method="adds")], [make_record(method="bl")]
        )
        # title + header + separator, no data rows
        assert len(text.splitlines()) == 3

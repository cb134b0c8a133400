"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, layers, ledger, workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tiny_graph():
    from repro.cli import parse_graph_spec

    return parse_graph_spec("kron:8,8")


@pytest.fixture
def tiny_dataset(monkeypatch):
    """Let the dataset registry build the generator spec ``kron:8,8``."""
    from repro.cli import parse_graph_spec
    from repro.graphs import surrogates

    load = surrogates.load
    monkeypatch.setattr(
        surrogates, "load",
        lambda name: parse_graph_spec(name) if name == TINY.graph else load(name),
    )


@pytest.fixture(scope="module")
def spec():
    from repro.bench.datasets import benchmark_spec

    return benchmark_spec()


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_shape(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["command"][:2] == ["python3", "perfbench/run.py"]
    assert declared["paths"] == ["perfbench"]
    assert isinstance(declared["run_seconds"], int)
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128


def test_metric_and_workload_names(declared):
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT_RE.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)
    for w in declared["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_bounds_and_setup_metric(declared):
    e2e = {m["name"]: m for m in declared["end_to_end"]}
    for m in e2e.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e.values())
    for m in declared["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


# -- percentiles ---------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(np.linspace(1.0, 2.0, 200))
    assert harness.tail_percentile(values, 0.95) == sorted(values)[189]
    with pytest.raises(harness.BenchFailure, match="need 10"):
        harness.tail_percentile(values[:190], 0.95)


def test_tail_percentile_matches_scheduler_rank():
    from repro.serve.scheduler import _percentile

    values = list(np.random.default_rng(3).random(257))
    assert harness.tail_percentile(values, 0.95) == _percentile(sorted(values), 0.95)


# -- ledger ----------------------------------------------------------------------


@pytest.mark.parametrize("method", workloads.METHODS)
def test_ledger_sums_to_time(method, tiny_graph, spec):
    from repro.sssp.api import sssp

    r = sssp(tiny_graph, 3, method=method, spec=spec)
    parts = ledger.ledger_ms(r.counters.totals, spec, r.time_ms)
    assert tuple(parts) == ledger.LEDGER_PARTS
    assert all(v >= 0.0 for v in parts.values())
    assert sum(parts.values()) == pytest.approx(r.time_ms, rel=1e-12)
    fixed = sum(v for k, v in parts.items() if k != "body")
    assert fixed <= r.time_ms


def test_ledger_refuses_excess_fixed_cost(spec):
    from repro.gpusim.counters import KernelCounters

    totals = KernelCounters(kernel_launches=10)
    with pytest.raises(ledger.LedgerError):
        ledger.ledger_ms(totals, spec, 1e-6)


# -- tracing ---------------------------------------------------------------------


def test_tracer_restores_and_keeps_simulation(tiny_graph, spec):
    import repro.gpusim.device as device
    import repro.serve.scheduler as scheduler
    from repro.gpusim.device import GPUDevice
    from repro.gpusim.memory import coalesce
    from repro.sssp.api import sssp

    launch, sched_sssp = GPUDevice.launch, scheduler.sssp
    plain = sssp(tiny_graph, 5, method="rdbs", spec=spec)
    tracer = layers.HostTracer()
    with tracer.attached():
        assert device.coalesce is not coalesce
        with tracer.span("engine"):
            traced = sssp(tiny_graph, 5, method="rdbs", spec=spec)
    assert device.coalesce is coalesce
    assert GPUDevice.launch is launch and scheduler.sssp is sched_sssp
    assert traced.time_ms == plain.time_ms
    assert traced.counters.totals.as_dict() == plain.counters.totals.as_dict()
    assert tracer.calls["launch"] == plain.counters.totals.kernel_launches
    assert tracer.calls["coalesce"] > 0 and tracer.calls["accounting"] > 0
    # self times partition the outermost span exactly
    assert sum(tracer.self_time.values()) == pytest.approx(
        tracer.total["engine"], rel=1e-9
    )


def test_absorbing_layer_keeps_nested_calls():
    tracer = layers.HostTracer()
    sort = tracer.wrap("sort", sorted)
    stream = tracer.wrap("cache_stream", lambda xs: sort(xs))
    assert "cache_stream" in layers.ABSORBING
    stream([3, 1, 2])
    sort([2, 1])
    assert tracer.calls["cache_stream"] == 1 and tracer.calls["sort"] == 1
    assert tracer.self_time["cache_stream"] == tracer.total["cache_stream"]


# -- whole runs ----------------------------------------------------------------


TINY = workloads.Workload(
    name="tiny",
    graph="kron:8,8",
    sources=harness.ROUNDS,
    serve=dict(
        method="rdbs", num_queries=70, source_pool=8, cold_fraction=0.3,
        landmarks=2, rate_qpms=25.0, cache_fields=4,
    ),
)


def test_prepare_follows_the_seed(tiny_dataset, tiny_graph, tmp_path):
    from repro.graphs.properties import largest_component_vertices

    a = harness.prepare(TINY, 1, tmp_path / "a")
    assert a.sources == harness.prepare(TINY, 1, tmp_path / "b").sources
    assert a.sources != harness.prepare(TINY, 2, tmp_path / "c").sources
    assert len(set(a.sources)) == TINY.sources
    assert set(a.sources) <= set(largest_component_vertices(tiny_graph).tolist())
    assert [c.seed for c in a.serve_configs] == [
        harness.ROUNDS + r for r in range(harness.ROUNDS)
    ]


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_declared_metrics(trace, declared, tiny_dataset, tmp_path):
    out = harness.run_workload(TINY, seed=0, seconds=0.0, trace=trace,
                               cache_dir=tmp_path)
    key = "per_layer" if trace else "end_to_end"
    assert {m["name"] for m in declared[key]} <= set(out.metrics)
    assert out.failed == 0 and not out.errors
    per_round = len(workloads.METHODS) + 70
    assert out.attempted == per_round * (harness.ROUNDS + trace)
    assert any("210 latency samples" in note for note in out.notes)
    if trace:
        assert out.metrics["artifacts.timed_misses"] == 0
        assert out.metrics["calls.launch"] > 0


def test_same_seed_same_simulation(tiny_dataset, tmp_path):
    a = harness.run_workload(TINY, 4, 0.0, False, tmp_path / "a").metrics
    b = harness.run_workload(TINY, 4, 0.0, False, tmp_path / "b").metrics
    c = harness.run_workload(TINY, 5, 0.0, False, tmp_path / "c").metrics
    sim = [f"{m}.sim_ms" for m in workloads.METHODS] + ["serve.p50_ms", "serve.p95_ms"]
    assert [a[k] for k in sim] == [b[k] for k in sim]
    assert [a[k] for k in sim] != [c[k] for k in sim]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-zipf",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

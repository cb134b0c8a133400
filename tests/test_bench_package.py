"""Tests for the benchmark harness package itself."""

import pytest

from repro.bench import (
    FIG8_DATASETS,
    FIG9_DATASETS,
    WORKLOAD_SCALE,
    benchmark_spec,
    format_table,
    geo_speedup,
    get_graph,
    pick_sources,
    run_matrix,
    run_method,
    write_results,
)
from repro.gpusim import T4, V100


class TestDatasets:
    def test_scaled_spec(self):
        s = benchmark_spec()
        assert s.kernel_launch_s == pytest.approx(
            V100.kernel_launch_s * WORKLOAD_SCALE
        )
        t = benchmark_spec(T4)
        assert t.num_sms == 40

    def test_get_graph_memoized(self):
        assert get_graph("Amazon") is get_graph("Amazon")

    def test_pick_sources_deterministic(self):
        assert pick_sources("Amazon", 3) == pick_sources("Amazon", 3)
        assert len(pick_sources("Amazon", 2)) == 2

    def test_figure_dataset_lists(self):
        assert len(FIG8_DATASETS) == 6
        assert len(FIG9_DATASETS) == 10
        assert "k-n21-16" in FIG8_DATASETS
        assert "soc-TW" in FIG9_DATASETS


class TestRunMethod:
    def test_runs_and_validates(self):
        run = run_method("Amazon", "rdbs", num_sources=1)
        assert run.time_ms > 0
        assert run.gteps > 0
        assert run.update_ratio >= 1.0
        assert run.counters is not None
        # perf-trajectory provenance: wall clock and device label
        assert run.host_seconds > 0
        assert run.gpu.startswith("V100")

    def test_explicit_graph_and_sources(self):
        from repro.graphs import kronecker

        g = kronecker(7, 6, weights="int", seed=9)
        run = run_method(g.name, "rdbs", graph=g, sources=[0])
        assert run.dataset == g.name
        assert len(run.results) == 1

    def test_cpu_method_no_spec(self):
        run = run_method("Amazon", "pq-delta*", num_sources=1)
        assert run.time_ms > 0

    def test_matrix(self):
        m = run_matrix(["Amazon"], ["rdbs", "bl"], num_sources=1)
        assert set(m) == {("Amazon", "rdbs"), ("Amazon", "bl")}
        assert geo_speedup(m, ["Amazon"], "bl", "rdbs") > 0


class TestFormatting:
    def test_format_table(self):
        text = format_table(
            ["a", "bb"], [[1, 2.5], ["x", float("nan")]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "-" in lines[2]
        assert "2.500" in text
        assert "-" in lines[4]  # NaN renders as dash

    def test_format_large_floats(self):
        assert "123.5" in format_table(["x"], [[123.456]])

    def test_write_results(self, tmp_path, monkeypatch):
        import repro.bench.harness as h

        monkeypatch.setattr(h, "RESULTS_DIR", tmp_path / "r")
        p = h.write_results("t.txt", "hello")
        assert p.read_text() == "hello\n"

    def test_write_results_dir_injectable(self, tmp_path):
        # installed (non-editable) packages can't rely on the repo-relative
        # RESULTS_DIR; callers inject the output directory instead
        from repro.bench.harness import write_results

        p = write_results("t.txt", "hi", results_dir=tmp_path / "out")
        assert p == tmp_path / "out" / "t.txt"
        assert p.read_text() == "hi\n"

    def test_default_results_dir_falls_back_to_cwd(
        self, tmp_path, monkeypatch
    ):
        import repro.bench.harness as h

        # simulate a site-packages install: RESULTS_DIR's parent is gone
        monkeypatch.setattr(
            h, "RESULTS_DIR", tmp_path / "missing" / "benchmarks" / "results"
        )
        monkeypatch.chdir(tmp_path)
        assert h.default_results_dir() == tmp_path / "benchmarks" / "results"

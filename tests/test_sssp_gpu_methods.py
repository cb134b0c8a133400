"""Correctness and accounting tests for every GPU SSSP implementation."""

import signal

import numpy as np
import pytest

import repro.sssp.gpu_baseline as gpu_baseline
from repro.graphs import from_edges, kronecker, grid_road_network, path, star
from repro.gpusim import T4, V100
from repro.sssp import (
    GPU_METHODS,
    ConvergenceError,
    adds_sssp,
    bl_sssp,
    nearfar_sssp,
    rdbs_sssp,
    sssp,
    validate_distances,
)

SPEC = V100.scaled_for_workload(1 / 64)

GRAPHS = {
    "kron": kronecker(8, 8, weights="int", seed=20),
    "road": grid_road_network(12, 12, seed=21),
    "star": star(100),
    "path": path(40),
    "unit-kron": kronecker(7, 8, weights="unit", seed=22),
}

GPU_FNS = {
    "bl": bl_sssp,
    "near-far": nearfar_sssp,
    "adds": adds_sssp,
    "rdbs": rdbs_sssp,
}


@pytest.mark.parametrize("gname", list(GRAPHS))
@pytest.mark.parametrize("fname", list(GPU_FNS))
class TestCorrectness:
    def test_distances_match_oracle(self, gname, fname):
        g = GRAPHS[gname]
        r = GPU_FNS[fname](g, 0, spec=SPEC)
        validate_distances(g, 0, r.dist)

    def test_result_metadata(self, gname, fname):
        g = GRAPHS[gname]
        r = GPU_FNS[fname](g, 0, spec=SPEC)
        assert r.time_ms > 0
        assert r.num_edges == g.num_edges
        assert r.counters is not None
        assert r.work is not None
        assert r.gteps > 0


@pytest.mark.parametrize("fname", list(GPU_FNS))
class TestEdgeCases:
    def test_isolated_source(self, fname):
        g = from_edges(np.array([1]), np.array([2]), np.array([1.0]),
                       num_vertices=4, symmetrize=True)
        r = GPU_FNS[fname](g, 0, spec=SPEC)
        assert r.dist[0] == 0.0
        assert np.isinf(r.dist[1:]).all()

    def test_source_out_of_range(self, fname):
        with pytest.raises(ValueError):
            GPU_FNS[fname](GRAPHS["path"], 1000, spec=SPEC)

    def test_two_vertex_graph(self, fname):
        g = from_edges(np.array([0]), np.array([1]), np.array([4.0]),
                       symmetrize=True)
        r = GPU_FNS[fname](g, 1, spec=SPEC)
        assert list(r.dist) == [4.0, 0.0]


#: every engine that takes a bucket width Δ
DELTA_METHODS = ("rdbs", "adds", "near-far", "mlmq", "delta-cpu", "pq-delta*")


@pytest.fixture
def fails_within_seconds():
    """Turn a hang into a test failure: SIGALRM after a few seconds."""

    def _hung(signum, frame):
        raise TimeoutError("engine hung instead of rejecting delta")

    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("method", DELTA_METHODS)
def test_bad_delta_fails_fast(method, delta, fails_within_seconds):
    kw = {"spec": SPEC} if method in GPU_METHODS else {}
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        sssp(GRAPHS["road"], 0, method=method, delta=delta, **kw)


class TestRdbsEngine:
    @pytest.mark.parametrize(
        "pro,adwl,basyn",
        [
            (False, False, False),
            (True, False, False),
            (False, True, False),
            (False, False, True),
            (True, True, False),
            (True, False, True),
            (False, True, True),
            (True, True, True),
        ],
    )
    def test_all_toggle_combinations_correct(self, pro, adwl, basyn):
        g = GRAPHS["kron"]
        r = rdbs_sssp(g, 0, pro=pro, adwl=adwl, basyn=basyn, spec=SPEC)
        validate_distances(g, 0, r.dist)
        assert r.extra["pro"] == pro

    def test_method_labels(self):
        g = GRAPHS["path"]
        assert rdbs_sssp(g, 0, spec=SPEC).method == "rdbs"
        assert (
            rdbs_sssp(g, 0, pro=False, adwl=False, basyn=False, spec=SPEC).method
            == "sync-delta"
        )
        assert (
            rdbs_sssp(g, 0, pro=True, adwl=False, basyn=True, spec=SPEC).method
            == "basyn+pro"
        )

    def test_distances_in_original_order_with_pro(self):
        """PRO relabels internally but reports original vertex ids."""
        g = GRAPHS["kron"]
        a = rdbs_sssp(g, 5, pro=True, spec=SPEC)
        b = rdbs_sssp(g, 5, pro=False, spec=SPEC)
        assert np.allclose(a.dist, b.dist)

    def test_trace_recording(self):
        g = GRAPHS["unit-kron"]
        r = rdbs_sssp(g, 0, delta=0.1, spec=SPEC)
        rows = r.extra["bucket_telemetry"]
        assert len(rows) == r.extra["buckets"]
        assert max(row["active"] for row in rows) > 0

    def test_dynamic_delta_recorded(self):
        g = GRAPHS["kron"]
        r = rdbs_sssp(g, 0, spec=SPEC)
        assert r.extra["final_delta"] >= 0
        assert r.extra["buckets"] >= 1

    def test_counters_populated(self):
        g = GRAPHS["kron"]
        r = rdbs_sssp(g, 0, spec=SPEC)
        c = r.counters.totals
        assert c.inst_executed_global_loads > 0
        assert c.inst_executed_atomics > 0
        assert c.async_rounds > 0  # BASYN ran asynchronously

    def test_sync_mode_uses_barriers_per_iteration(self):
        g = GRAPHS["kron"]
        sync = rdbs_sssp(g, 0, basyn=False, pro=False, adwl=False, spec=SPEC)
        async_ = rdbs_sssp(g, 0, basyn=True, pro=False, adwl=False, spec=SPEC)
        assert (
            sync.counters.totals.barriers > async_.counters.totals.barriers
        )

    def test_adwl_spawns_children_on_powerlaw(self):
        g = GRAPHS["star"]  # hub with 100 light edges -> warp child kernels
        r = rdbs_sssp(g, 1, adwl=True, spec=SPEC)
        assert r.counters.totals.child_kernel_launches > 0

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            rdbs_sssp(GRAPHS["path"], 0, delta=-2.0, spec=SPEC)


class TestAddsSpecifics:
    def test_delta_adapts(self):
        g = GRAPHS["road"]
        r = adds_sssp(g, 0, spec=SPEC)
        assert r.extra["final_delta"] >= r.extra["delta0"]

    def test_async_rounds_recorded(self):
        g = GRAPHS["kron"]
        r = adds_sssp(g, 0, spec=SPEC)
        assert r.counters.totals.async_rounds > 0


class TestBaselineSpecifics:
    def test_bl_iterations_bounded_by_hops(self):
        g = GRAPHS["path"]
        r = bl_sssp(g, 0, spec=SPEC)
        assert r.extra["iterations"] <= g.num_vertices

    def test_bl_max_iterations_cutoff(self, monkeypatch):
        g = GRAPHS["path"]
        # a bound of n + slack = 3 iterations
        monkeypatch.setattr(gpu_baseline, "ITERATION_SLACK",
                            3 - g.num_vertices)
        with pytest.raises(ConvergenceError, match="iteration limit"):
            bl_sssp(g, 0, spec=SPEC)

    def test_nearfar_threshold_advances(self):
        g = GRAPHS["kron"]
        r = nearfar_sssp(g, 0, spec=SPEC)
        assert r.extra["iterations"] > 0


class TestPlatformScaling:
    def test_v100_not_slower_than_t4(self):
        g = kronecker(9, 16, weights="int", seed=23)
        tv = rdbs_sssp(g, 0, spec=V100.scaled_for_workload(1 / 64)).time_ms
        tt = rdbs_sssp(g, 0, spec=T4.scaled_for_workload(1 / 64)).time_ms
        assert tt >= tv

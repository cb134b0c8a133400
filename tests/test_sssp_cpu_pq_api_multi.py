"""Tests for PQ-Δ* and the sssp() front door."""

import re

import numpy as np
import pytest

from repro.graphs import kronecker, grid_road_network, path
from repro.gpusim import V100
from repro.sssp import (
    CPUSpec,
    METHOD_OPTIONS,
    XEON_8269CY,
    method_names,
    pq_delta_star_sssp,
    sssp,
    validate_distances,
)

SPEC = V100.scaled_for_workload(1 / 64)


class TestPqDeltaStar:
    def test_correct_on_kron(self):
        g = kronecker(8, 6, weights="int", seed=30)
        r = pq_delta_star_sssp(g, 0)
        validate_distances(g, 0, r.dist)

    def test_correct_on_road(self):
        g = grid_road_network(10, 10, seed=31)
        r = pq_delta_star_sssp(g, 0)
        validate_distances(g, 0, r.dist)

    def test_cost_model_monotone_in_work(self):
        cpu = XEON_8269CY
        assert cpu.batch_time(2000, 10) > cpu.batch_time(1000, 10)
        assert cpu.batch_time(0, 0) == pytest.approx(cpu.batch_overhead_s)

    def test_more_cores_faster(self):
        g = kronecker(7, 6, weights="int", seed=32)
        fast = CPUSpec("big", 52, 104, 55e-9, 20e-9, 3e-6, 0.55)
        slow = CPUSpec("small", 4, 8, 55e-9, 20e-9, 3e-6, 0.55)
        t_fast = pq_delta_star_sssp(g, 0, cpu=fast).time_ms
        t_slow = pq_delta_star_sssp(g, 0, cpu=slow).time_ms
        assert t_slow > t_fast

    def test_records_batches(self):
        g = path(20)
        r = pq_delta_star_sssp(g, 0, delta=2.0)
        assert r.extra["batches"] >= 1
        assert r.extra["cpu"] == "Xeon-8269CY"

    def test_source_validation(self):
        with pytest.raises(ValueError):
            pq_delta_star_sssp(path(4), -1)


class TestApi:
    def test_all_methods_registered_and_correct(self):
        g = kronecker(7, 6, weights="int", seed=33)
        for m in method_names():
            r = sssp(g, 0, method=m)
            validate_distances(g, 0, r.dist)

    def test_unknown_method(self):
        # the full Fig. 8 arm is registered once, as rdbs
        for name in ("quantum", "basyn+pro+adwl"):
            with pytest.raises(ValueError, match="unknown method"):
                sssp(path(4), 0, method=name)

    def test_kwargs_forwarded(self):
        g = kronecker(6, 4, weights="int", seed=34)
        r = sssp(g, 0, method="rdbs", spec=SPEC, delta=500.0)
        assert r.extra["delta0"] == 500.0

    def test_options_read_off_the_implementation(self):
        assert METHOD_OPTIONS["dijkstra"] == frozenset()
        assert "delta" not in METHOD_OPTIONS["bl"]
        # the Fig. 8 arms take what rdbs_sssp takes, minus the fixed flags
        assert METHOD_OPTIONS["rdbs"] - METHOD_OPTIONS["basyn+pro"] == {
            "pro", "adwl", "basyn"}

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="'dijkstra' does not take detla"):
            sssp(path(4), 0, method="dijkstra", detla=3)
        with pytest.raises(ValueError, match="'bl' does not take delta"):
            sssp(path(4), 0, method="bl", spec=SPEC, delta=0.5)
        with pytest.raises(ValueError, match="'sync-delta' does not take pro"):
            sssp(path(4), 0, method="sync-delta", pro=True)
        # the engines' loop guards are module constants, not options
        for method, bound in [("adds", "max_steps"),
                              ("near-far", "max_iterations"),
                              ("mlmq", "max_rounds"),
                              ("bl", "max_iterations"),
                              ("harish-narayanan", "max_iterations"),
                              ("rdbs", "max_buckets"),
                              ("basyn", "max_buckets"),
                              ("basyn+pro", "max_buckets"),
                              ("basyn+adwl", "max_buckets"),
                              ("sync-delta", "max_buckets")]:
            with pytest.raises(ValueError, match=re.escape(
                    f"'{method}' does not take {bound}")):
                sssp(path(4), 0, method=method, spec=SPEC, **{bound: 5})
        for method, bound in [("delta-cpu", "max_buckets"),
                              ("bellman-ford", "max_rounds"),
                              ("pq-delta*", "max_batches")]:
            with pytest.raises(ValueError, match=re.escape(
                    f"'{method}' does not take {bound}")):
                sssp(path(4), 0, method=method, **{bound: 5})

    def test_default_method_is_rdbs(self):
        g = path(6)
        assert sssp(g, 0).method == "rdbs"

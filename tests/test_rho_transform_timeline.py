"""Tests for ρ-stepping, graph transforms and the kernel timeline."""

import numpy as np
import pytest

from repro.graphs import (
    clamp_weights,
    from_edges,
    induced_subgraph,
    kronecker,
    largest_component_subgraph,
    path,
    reverse_graph,
    scale_weights,
)
from repro.bench import benchmark_spec, get_graph, pick_sources
from repro.gpusim import GPUDevice, KernelCounters, Timeline, V100, attribute_bottleneck
from repro.gpusim.timemodel import kernel_bounds, kernel_time
from repro.gpusim.kernels import grid_stride
from repro.sssp import (
    default_rho,
    dijkstra,
    rho_stepping_sssp,
    sssp,
    validate_distances,
)

SPEC = V100.scaled_for_workload(1 / 64)


class TestRhoStepping:
    @pytest.mark.parametrize("rho", [1, 8, 10_000])
    def test_correct_for_any_rho(self, rho):
        g = kronecker(8, 6, weights="int", seed=40)
        r = rho_stepping_sssp(g, 0, rho=rho)
        validate_distances(g, 0, r.dist)

    def test_rho_one_is_dijkstra_like(self):
        """ρ=1 settles one vertex per batch: perfectly work-efficient on
        graphs with unique distances."""
        g = kronecker(7, 6, weights="int", seed=41)
        exact = rho_stepping_sssp(g, 0, rho=1)
        loose = rho_stepping_sssp(g, 0, rho=10_000)
        assert exact.work.update_ratio <= loose.work.update_ratio

    def test_batches_shrink_with_rho(self):
        g = kronecker(8, 8, weights="int", seed=42)
        few = rho_stepping_sssp(g, 0, rho=10_000).extra["batches"]
        many = rho_stepping_sssp(g, 0, rho=4).extra["batches"]
        assert many > few

    def test_default_rho_reasonable(self):
        g = kronecker(10, 8, weights="int", seed=43)
        rho = default_rho(g)
        assert 32 <= rho < g.num_vertices * 10

    def test_invalid_args(self):
        g = path(4)
        with pytest.raises(ValueError):
            rho_stepping_sssp(g, 0, rho=0)
        with pytest.raises(ValueError):
            rho_stepping_sssp(g, 10)

    def test_available_through_api(self):
        g = path(8)
        r = sssp(g, 0, method="rho-stepping")
        assert r.method == "rho-stepping"


class TestTransforms:
    def test_induced_subgraph(self):
        g = path(6)
        sub, new_to_old = induced_subgraph(g, np.array([1, 2, 3]))
        assert sub.num_vertices == 3
        assert list(new_to_old) == [1, 2, 3]
        # the path 1-2-3 survives with both arc directions
        assert sub.num_edges == 4

    def test_induced_subgraph_drops_cross_edges(self):
        g = path(6)
        sub, _ = induced_subgraph(g, np.array([0, 1, 4, 5]))
        assert sub.num_edges == 4  # 0-1 and 4-5 only

    def test_induced_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(path(3), np.array([5]))

    def test_largest_component_subgraph(self):
        g = from_edges(
            np.array([0, 1, 5]), np.array([1, 2, 6]), np.ones(3),
            num_vertices=8, symmetrize=True,
        )
        sub, new_to_old = largest_component_subgraph(g)
        assert sub.num_vertices == 3
        assert set(new_to_old) == {0, 1, 2}

    def test_reverse_graph(self):
        g = from_edges(np.array([0]), np.array([1]), np.array([3.0]),
                       num_vertices=2)
        rg = reverse_graph(g)
        assert list(rg.iter_edges()) == [(1, 0, 3.0)]

    def test_reverse_preserves_undirected_distances(self):
        g = kronecker(7, 6, weights="int", seed=44)
        d1 = dijkstra(g, 0).dist
        d2 = dijkstra(reverse_graph(g), 0).dist
        assert np.allclose(d1, d2, equal_nan=True) or np.array_equal(
            np.isfinite(d1), np.isfinite(d2)
        )

    def test_scale_weights_scales_distances(self):
        g = kronecker(7, 6, weights="int", seed=45)
        d1 = dijkstra(g, 0).dist
        d2 = dijkstra(scale_weights(g, 2.5), 0).dist
        finite = np.isfinite(d1)
        assert np.allclose(d2[finite], 2.5 * d1[finite])
        with pytest.raises(ValueError):
            scale_weights(g, 0.0)

    def test_clamp_weights(self):
        g = kronecker(6, 4, weights="int", seed=46)
        c = clamp_weights(g, 100.0, 200.0)
        assert c.weights.min() >= 100.0
        assert c.weights.max() <= 200.0
        with pytest.raises(ValueError):
            clamp_weights(g, 5.0, 1.0)


class TestTimeline:
    def test_records_launches(self):
        dev = GPUDevice(V100)
        arr = dev.zeros(1024)
        with dev.launch("alpha") as k:
            k.gather(arr, np.arange(1024), grid_stride(1024, 256))
        with dev.launch("alpha") as k:
            k.gather(arr, np.arange(1024), grid_stride(1024, 256))
        with dev.launch("beta"):
            pass
        tl = dev.timeline
        assert len(tl.records) == 3
        by = tl.by_kernel()
        assert by["alpha"][0] == 2
        assert by["beta"][0] == 1
        assert tl.total_s == pytest.approx(dev.time_s)

    def test_records_are_ordered(self):
        dev = GPUDevice(V100)
        with dev.launch("a"):
            pass
        with dev.launch("b"):
            pass
        r0, r1 = dev.timeline.records
        assert r1.start_s >= r0.end_s

    def test_top_and_report(self):
        dev = GPUDevice(V100)
        arr = dev.zeros(4096)
        with dev.launch("hot") as k:
            k.gather(arr, np.arange(4096), grid_stride(4096, 256))
        with dev.launch("cold"):
            pass
        top = dev.timeline.top(1)
        assert top[0][0] in ("hot", "cold")
        text = dev.timeline.report()
        assert "hot" in text and "bottlenecks" in text

    def test_bottleneck_attribution(self):
        mem = KernelCounters(global_load_transactions=10**6, l1_accesses=10**6)
        assert attribute_bottleneck(V100, mem, 0) == "memory"
        crit = KernelCounters(inst_executed_other=1)
        assert attribute_bottleneck(V100, crit, 10**6) == "critical-path"
        issue = KernelCounters(inst_executed_other=10**9)
        assert attribute_bottleneck(V100, issue, 1) == "issue"
        assert attribute_bottleneck(V100, KernelCounters(), 0) == "overhead"

    def test_shared_transactions_alone_make_a_kernel_issue_bound(self):
        """Multisplit staging occupies issue slots: the attribution reads
        the issue bound the time model charges, shared transactions
        included, so this kernel is issue-bound, not memory-bound."""
        c = KernelCounters(global_load_transactions=10**5,
                           l1_accesses=10**5, shared_transactions=10**9)
        b = kernel_bounds(V100, c, 1)
        no_shared = kernel_bounds(
            V100, KernelCounters(global_load_transactions=10**5,
                                 l1_accesses=10**5), 1)
        assert no_shared.memory_s > no_shared.issue_s
        assert b.issue_s > b.memory_s > b.critical_s
        assert attribute_bottleneck(V100, c, 1) == "issue"
        assert b.body_s == kernel_time(V100, c, 1)

    def test_reset_clock_clears_timeline(self):
        dev = GPUDevice(V100)
        with dev.launch("x"):
            pass
        dev.reset_clock()
        assert dev.timeline.records == []

    def test_gpu_results_carry_timeline(self):
        g = kronecker(7, 6, weights="int", seed=47)
        r = sssp(g, 0, method="rdbs", spec=SPEC)
        tl = r.extra["timeline"]
        assert isinstance(tl, Timeline)
        assert tl.total_s > 0
        assert "phase1" in " ".join(name for name, _ in tl.by_kernel().items())

    @pytest.mark.parametrize("method", ["rdbs", "near-far", "mlmq", "adds"])
    @pytest.mark.parametrize("dataset", ["road-TX", "k-n21-16", "Amazon"])
    def test_timeline_sums_to_time_ms(self, dataset, method):
        """Every simulated nanosecond of a bucketed engine's quick cell is
        on its timeline: no host-visible barrier adds time off the
        records."""
        g = get_graph(dataset)
        source = pick_sources(dataset, 1)[0]
        r = sssp(g, source, method=method, spec=benchmark_spec())
        assert r.extra["timeline"].total_s * 1e3 == r.time_ms

"""Tests for the shared GPU relaxation layer (DeviceGraph, relax_batch,
FrontierFlags) and the on-device offset re-split."""

import numpy as np
import pytest

from repro.graphs import kronecker, paper_fig4_graph
from repro.gpusim import GPUDevice, V100, thread_per_item, thread_per_vertex_edges
from repro.metrics import WorkStats
from repro.reorder import apply_pro
from repro.sssp.persistent import PersistentChain
from repro.sssp.relax import DeviceGraph, FrontierFlags, relax_batch


@pytest.fixture
def dev():
    return GPUDevice(V100)


@pytest.fixture
def pro_graph():
    return apply_pro(paper_fig4_graph(), delta=3.0)


class TestDeviceGraph:
    def test_batch_all(self, dev, pro_graph):
        dg = DeviceGraph(dev, pro_graph)
        b = dg.batch(np.array([0, 1]), "all")
        assert b.num_edges == 7  # degrees 4 + 3 after reorder
        assert list(b.counts) == [4, 3]
        assert list(b.src_pos[:4]) == [0, 0, 0, 0]

    def test_batch_light_heavy_partition(self, dev, pro_graph):
        dg = DeviceGraph(dev, pro_graph)
        verts = np.arange(5)
        light = dg.batch(verts, "light")
        heavy = dg.batch(verts, "heavy")
        assert light.num_edges + heavy.num_edges == pro_graph.num_edges
        # all light weights < 3, all heavy >= 3
        assert np.all(pro_graph.weights[light.edge_idx] < 3.0)
        assert np.all(pro_graph.weights[heavy.edge_idx] >= 3.0)

    def test_light_without_offsets_raises(self, dev):
        g = kronecker(5, 4, seed=1)
        dg = DeviceGraph(dev, g)
        with pytest.raises(ValueError):
            dg.batch(np.array([0]), "light")
        with pytest.raises(ValueError):
            dg.light_counts(np.array([0]))

    def test_unknown_kind(self, dev, pro_graph):
        dg = DeviceGraph(dev, pro_graph)
        with pytest.raises(ValueError):
            dg.batch(np.array([0]), "medium")

    def test_light_counts(self, dev, pro_graph):
        dg = DeviceGraph(dev, pro_graph)
        assert list(dg.light_counts(np.arange(5))) == [2, 1, 2, 1, 2]

    def test_resplit_moves_offsets(self, dev, pro_graph):
        dg = DeviceGraph(dev, pro_graph)
        before = dg.heavy.data.copy()
        dg.resplit(6.0)
        assert dg.split_delta == 6.0
        assert np.all(dg.heavy.data >= before)
        # weights 4 and 5 are now light (per-vertex sorted weight lists are
        # [1,2,4,5], [2,5,9], [1,2,4], [2,9], [1,1])
        assert list(dg.light_counts(np.arange(5))) == [4, 2, 3, 1, 2]
        # the re-split pass is charged to the device
        assert dev.counters.totals.kernel_launches == 1

    def test_resplit_in_a_resident_chain_is_a_segment(self, dev, pro_graph):
        """Given a resident chain, the re-split continues its kernel and
        ends in a device barrier; the same pass without one is a host
        launch with no barrier."""
        dg = DeviceGraph(dev, pro_graph)
        chain = PersistentChain(dev)
        with chain.segment("resident"):
            pass
        dg.resplit(6.0, chain)
        c = dev.counters.totals
        assert (c.kernel_launches, c.barriers) == (1, 1)
        first = dev.timeline.records[-1]
        dg.resplit(6.0)
        assert (c.kernel_launches, c.barriers) == (2, 1)
        second = dev.timeline.records[-1]
        assert second.duration_s - first.duration_s == pytest.approx(
            dev.spec.kernel_launch_s - dev.spec.barrier_s)
        assert chain.resident

    def test_resplit_without_offsets_raises(self, dev):
        dg = DeviceGraph(dev, kronecker(5, 4, seed=2))
        with pytest.raises(ValueError):
            dg.resplit(2.0)


class TestRelaxBatch:
    def test_relaxes_and_records(self, dev, pro_graph):
        dg = DeviceGraph(dev, pro_graph)
        dist = dev.full(5, np.inf)
        dist.data[0] = 0.0
        stats = WorkStats()
        with dev.launch("k") as k:
            batch = dg.batch(np.array([0]), "all")
            a = thread_per_vertex_edges(batch.counts)
            out = relax_batch(k, dg, dist, np.array([0]), batch, a, stats)
        assert out.updated.all()
        assert stats.total_updates == 4
        # distances of vertex 0's neighbors now set
        assert np.isfinite(dist.data).sum() == 5

    def test_weight_filter_counts_divergence(self, dev):
        g = kronecker(6, 6, weights="int", seed=3)  # unsorted weights
        dg = DeviceGraph(dev, g)
        dist = dev.full(g.num_vertices, np.inf)
        dist.data[0] = 0.0
        with dev.launch("k") as k:
            batch = dg.batch(np.array([0]), "all")
            a = thread_per_vertex_edges(batch.counts)
            relax_batch(
                k, dg, dist, np.array([0]), batch, a, None,
                weight_filter=(500.0, True),
            )
        assert dev.counters.totals.branch_instructions > 0

    def test_empty_batch(self, dev, pro_graph):
        dg = DeviceGraph(dev, pro_graph)
        dist = dev.full(5, np.inf)
        with dev.launch("k") as k:
            batch = dg.batch(np.array([], dtype=np.int64), "all")
            a = thread_per_vertex_edges(batch.counts)
            out = relax_batch(
                k, dg, dist, np.array([], dtype=np.int64), batch, a, None
            )
        assert out.targets.size == 0


class TestFrontierFlags:
    def test_push_dedups(self, dev):
        flags = FrontierFlags(dev, 10)
        with dev.launch("k") as k:
            a = thread_per_item(4)
            fresh = flags.push(k, np.array([3, 3, 5, 7]), a)
        assert list(fresh) == [3, 5, 7]

    def test_push_excludes_already_marked(self, dev):
        flags = FrontierFlags(dev, 10)
        with dev.launch("k") as k:
            flags.push(k, np.array([2]), thread_per_item(1))
            fresh = flags.push(k, np.array([2, 4]), thread_per_item(2))
        assert list(fresh) == [4]

    def test_new_round_resets_marks(self, dev):
        flags = FrontierFlags(dev, 10)
        with dev.launch("k") as k:
            flags.push(k, np.array([1, 2]), thread_per_item(2))
        flags.new_round()
        with dev.launch("k2") as k:
            fresh = flags.push(k, np.array([1]), thread_per_item(1))
        assert list(fresh) == [1]

    def test_empty_push(self, dev):
        flags = FrontierFlags(dev, 4)
        with dev.launch("k") as k:
            fresh = flags.push(k, np.array([], dtype=np.int64), thread_per_item(0))
        assert fresh.size == 0

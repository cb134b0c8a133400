"""Tests for the convergence-curve analysis."""

import numpy as np
import pytest

from repro.graphs import kronecker, largest_component_vertices
from repro.gpusim import V100
from repro.metrics import ConvergenceCurve, convergence_from_rows
from repro.sssp import delta_stepping_cpu, rdbs_sssp

SPEC = V100.scaled_for_workload(1 / 64)


def make_rows(sizes):
    return [{"index": i, "active": s} for i, s in enumerate(sizes)]


class TestCurve:
    def test_fractions_monotone(self):
        c = convergence_from_rows(make_rows([10, 30, 60]))
        assert list(c.settled) == [10, 40, 100]
        assert c.total == 100
        f = c.fractions
        assert np.all(np.diff(f) >= 0)
        assert f[-1] == pytest.approx(1.0)

    def test_auc_earlier_is_higher(self):
        early = convergence_from_rows(make_rows([90, 5, 5]))
        late = convergence_from_rows(make_rows([5, 5, 90]))
        assert early.auc > late.auc

    def test_quantile_position(self):
        c = convergence_from_rows(make_rows([50, 30, 20]))
        assert c.quantile_position(0.5) == 0
        assert c.quantile_position(0.8) == 1
        assert c.quantile_position(1.0) == 2
        with pytest.raises(ValueError):
            c.quantile_position(0.0)

    def test_empty_trace(self):
        c = convergence_from_rows([])
        assert c.total == 0
        assert c.auc == 0.0
        assert c.quantile_position(0.9) == 0


class TestOnRealRuns:
    def test_rdbs_trace_produces_curve(self):
        g = kronecker(9, 8, weights="int", seed=95)
        src = int(largest_component_vertices(g)[0])
        r = rdbs_sssp(g, src, spec=SPEC)
        c = convergence_from_rows(r.extra["bucket_telemetry"])
        assert c.total > 0
        assert 0 < c.auc <= 1.0

    def test_dynamic_delta_converges_in_fewer_buckets(self):
        """The Eq. 1–2 controller (and a wider Δ generally) front-loads
        settlement versus a deliberately narrow fixed Δ."""
        g = kronecker(9, 8, weights="int", seed=96)
        src = int(largest_component_vertices(g)[0])
        dynamic = rdbs_sssp(g, src, spec=SPEC)
        narrow = delta_stepping_cpu(g, src, delta=dynamic.extra["delta0"] / 4)
        rows_dyn = dynamic.extra["bucket_telemetry"]
        rows_nar = narrow.extra["bucket_telemetry"]
        c_dyn = convergence_from_rows(rows_dyn)
        c_nar = convergence_from_rows(rows_nar)
        assert len(rows_dyn) <= len(rows_nar)
        assert c_dyn.quantile_position(0.9) <= c_nar.quantile_position(0.9)

"""The per-bucket rows (``extra["bucket_telemetry"]``) are the one store of
the Figs. 2–3 facts; the run's bucket count and the tracer's bucket spans
are views of them and must agree by construction."""

import numpy as np
import pytest

from repro.graphs import kronecker, largest_component_vertices
from repro.gpusim import V100
from repro.sssp import GPU_METHODS, delta_stepping_cpu, rdbs_sssp, sssp
from repro.trace import tracing

SPEC = V100.scaled_for_workload(1 / 64)
GRAPH = kronecker(8, 8, weights="int", seed=20)


@pytest.mark.parametrize(
    "method", ["rdbs", "sync-delta", "basyn", "mlmq", "delta-cpu"]
)
def test_bucket_rows_agree_with_counts_and_spans(method):
    if method in GPU_METHODS:
        with tracing() as tr:
            r = sssp(GRAPH, 0, method=method, spec=SPEC)
        spans = [e.args for e in tr.events if e.kind == "bucket"]
    else:
        r = sssp(GRAPH, 0, method=method)
        spans = None
    rows = r.extra["bucket_telemetry"]
    assert len(rows) == r.extra["levels" if method == "mlmq" else "buckets"]

    peak = max(rows, key=lambda row: row["active"])
    if "phase1_updates" in peak:
        assert 0 < peak["phase1_valid"] <= peak["phase1_updates"]

    if spans is not None:
        assert len(spans) == len(rows)
        for span, row in zip(spans, rows):
            for key, value in span.items():
                if not isinstance(row[key], np.ndarray):
                    assert value == row[key], key


def test_dynamic_delta_closes_no_more_buckets_than_narrow_fixed_delta():
    """The Eq. 1–2 controller (and a wider Δ generally) needs no more
    buckets than a deliberately narrow fixed Δ."""
    g = kronecker(9, 8, weights="int", seed=96)
    src = int(largest_component_vertices(g)[0])
    dynamic = rdbs_sssp(g, src, spec=SPEC)
    narrow = delta_stepping_cpu(g, src, delta=dynamic.extra["delta0"] / 4)
    assert len(dynamic.extra["bucket_telemetry"]) <= len(
        narrow.extra["bucket_telemetry"]
    )

"""Shared fixtures: small deterministic graphs exercised across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    from_edges,
    grid_road_network,
    kronecker,
    paper_fig1_graph,
    paper_fig4_graph,
    path,
    preferential_attachment,
    star,
)
from repro.graphs.properties import largest_component_vertices


@pytest.fixture(autouse=True, scope="session")
def _isolated_artifact_cache(tmp_path_factory):
    """Point the persistent artifact cache at a session-local tmp dir.

    Keeps the test suite hermetic: no reads from (or writes to) the
    developer's ``~/.cache/repro-sssp``, while cache *behaviour* —
    hits across tests in one session — stays observable for the tests
    that assert on it.
    """
    import os

    from repro.perf import artifacts

    root = tmp_path_factory.mktemp("artifact-cache")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    artifacts.configure_cache(root)
    yield
    artifacts.configure_cache(None)


@pytest.fixture
def fig1_graph():
    """The 8-vertex graph of the paper's Fig. 1."""
    return paper_fig1_graph()


@pytest.fixture
def fig4_graph():
    """The 5-vertex graph of the paper's Fig. 4."""
    return paper_fig4_graph()


@pytest.fixture
def triangle():
    """3-cycle with distinct weights."""
    return from_edges(
        np.array([0, 1, 2]),
        np.array([1, 2, 0]),
        np.array([1.0, 2.0, 4.0]),
        symmetrize=True,
        name="triangle",
    )


@pytest.fixture
def small_kron():
    """Kronecker SCALE=8, edgefactor=8 — the standard small power-law input."""
    return kronecker(8, 8, weights="int", seed=42)


@pytest.fixture
def medium_kron():
    """Kronecker SCALE=10, edgefactor=8 — the standard medium input."""
    return kronecker(10, 8, weights="int", seed=43)


@pytest.fixture
def small_road():
    """16x16 road grid."""
    return grid_road_network(16, 16, seed=44, name="road16")


@pytest.fixture
def small_pa():
    """Preferential-attachment graph (mild power law)."""
    return preferential_attachment(300, 3, seed=45)


@pytest.fixture
def star_graph():
    """Hub-and-spokes: the worst-case load-imbalance topology."""
    return star(200)


@pytest.fixture
def path_graph():
    """64-vertex path: the worst-case diameter topology."""
    return path(64)


def component_source(graph) -> int:
    """First vertex of the largest component (deterministic)."""
    return int(largest_component_vertices(graph)[0])


@pytest.fixture
def kron_source(small_kron):
    return component_source(small_kron)


@pytest.fixture
def kron_pair(small_kron):
    """Two vertices of ``small_kron``'s largest component, neither of them
    the landmark of a one-landmark serve session."""
    a, b = largest_component_vertices(small_kron)[1:3]
    return int(a), int(b)


@pytest.fixture
def scripted_serve(monkeypatch):
    """Play hand-written queries through ``serve_traffic`` with scripted
    exact runs.

    ``play(graph, queries, run_ms, **config)`` makes the exact run of
    source ``s`` take ``run_ms[s]`` simulated ms (with exact distances)
    and returns ``(report, spans)``: the session report and the ``serve``
    trace span of each query, by qid.  Sessions use one landmark, which
    no scripted source may be, so no query is a landmark cache hit.
    """
    from types import SimpleNamespace

    import repro.serve.scheduler as sched
    from repro.serve import ServeConfig, serve_traffic, warm_oracle
    from repro.sssp.validate import scipy_distances
    from repro.trace import tracing

    def play(graph, queries, run_ms, **config):
        def solve(graph, source, method, **kwargs):
            return SimpleNamespace(
                dist=scipy_distances(graph, source), time_ms=run_ms[source],
                counters=None,
            )

        cfg = ServeConfig(num_queries=len(queries), landmarks=1, **config)
        landmarks = set(warm_oracle(graph, cfg).oracle.landmarks.tolist())
        assert not landmarks & set(run_ms), "pick non-landmark sources"
        monkeypatch.setattr(sched, "sssp", solve)
        monkeypatch.setattr(sched, "generate_queries", lambda g, c: queries)
        with tracing() as tr:
            report = serve_traffic(graph, cfg)
        spans = {e.args["qid"]: e for e in tr.snapshot() if e.kind == "serve"}
        return report, spans

    return play


@pytest.fixture
def sanitizer():
    """A hazard sanitizer attached (via the global registry) to every
    device created inside the test; yields the live Sanitizer."""
    from repro.analysis import attached

    with attached() as san:
        yield san

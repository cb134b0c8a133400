"""Property-based cross-validation: every implementation, random graphs.

The strongest correctness statement the suite makes: for arbitrary random
weighted graphs, every SSSP implementation below produces exactly the
distances of the independent SciPy oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import from_edges
from repro.gpusim import V100
from repro.sssp import sssp, validate_distances

SPEC = V100.scaled_for_workload(1 / 64)

graph_params = st.tuples(
    st.integers(2, 24),            # vertices
    st.integers(0, 60),            # arcs before symmetrization
    st.integers(0, 2**31 - 1),     # seed
    st.sampled_from(["int", "unit"]),
)


def build(params):
    n, m, seed, scheme = params
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    if scheme == "int":
        w = rng.integers(1, 20, m).astype(float)
    else:
        w = rng.random(m) + 1e-3
    g = from_edges(src, dst, w, num_vertices=n, symmetrize=True)
    return g, int(rng.integers(0, n))


@given(params=graph_params)
@settings(max_examples=30, deadline=None)
def test_rdbs_matches_oracle(params):
    g, s = build(params)
    validate_distances(g, s, sssp(g, s, method="rdbs", spec=SPEC).dist)


@given(params=graph_params)
@settings(max_examples=20, deadline=None)
def test_all_gpu_baselines_match_oracle(params):
    g, s = build(params)
    for m in ("bl", "near-far", "adds"):
        validate_distances(g, s, sssp(g, s, method=m, spec=SPEC).dist)


@given(params=graph_params)
@settings(max_examples=20, deadline=None)
def test_cpu_methods_match_oracle(params):
    g, s = build(params)
    for m in ("delta-cpu", "pq-delta*", "bellman-ford"):
        validate_distances(g, s, sssp(g, s, method=m).dist)


@given(params=graph_params, delta=st.floats(0.05, 50.0))
@settings(max_examples=20, deadline=None)
def test_rdbs_delta_invariance(params, delta):
    """The answer must not depend on the Δ parameter."""
    g, s = build(params)
    validate_distances(
        g, s, sssp(g, s, method="rdbs", spec=SPEC, delta=delta).dist
    )


@given(params=graph_params)
@settings(max_examples=15, deadline=None)
def test_work_tally_invariants(params):
    """total >= valid; every reached vertex implies one valid update."""
    g, s = build(params)
    r = sssp(g, s, method="rdbs", spec=SPEC)
    assert r.work.total_updates >= r.work.valid_updates
    assert r.work.valid_updates >= r.reached

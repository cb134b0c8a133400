"""Differential oracle: every BASYN arm of RDBS against SciPy/Dijkstra.

The tier-1 safety net for control-flow changes to the RDBS bucket loop
(bucket fusion, the shared engine frame): seeded adversarial graphs that
stress what the bucket arithmetic is most likely to get wrong —

* zero-weight edges (a target lands in the bucket being drained),
* weights spread log-uniformly over 1e-6 .. 1e6 (twelve decades inside
  one bucket sequence),
* disconnected graphs and sources that are isolated or sit in a small
  component (most distances stay ``inf``),
* directed and symmetric edge sets —

plus the extreme-Δ cases on ``kron:8,8``: Δ = 1e-3 (hundreds of thousands
of empty intervals between buckets) and Δ = 1e9 (one bucket holds the
whole graph).  Every distance must equal the SciPy oracle's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import from_edges, kronecker, largest_component_vertices
from repro.gpusim import V100
from repro.sssp import sssp, validate_distances

SPEC = V100.scaled_for_workload(1 / 64)

#: every registered RDBS arm with BASYN on (the arms bucket fusion runs in)
BASYN_ARMS = ("rdbs", "basyn", "basyn+pro", "basyn+adwl", "basyn+pro+adwl")

#: seeds of the adversarial graphs; each seed fixes size, density,
#: weight mix, direction and the source
SEEDS = range(16)


def adversarial_graph(seed: int):
    """A seeded adversarial graph and source (see the module docstring)."""
    rng = np.random.default_rng(seed)
    core = int(rng.integers(8, 96))
    # trailing vertices no edge touches: isolated, and sometimes the source
    n = core + int(rng.integers(0, 6))
    m = int(rng.integers(0, 4 * core))
    # two disjoint halves on odd seeds: a disconnected graph
    half = core // 2 if seed % 2 else core
    src = rng.integers(0, half, m)
    dst = rng.integers(0, half, m)
    if seed % 2:
        upper = rng.random(m) < 0.5
        src[upper] += core - half
        dst[upper] += core - half
    w = 10.0 ** rng.uniform(-6.0, 6.0, m)
    w[rng.random(m) < 0.15] = 0.0
    g = from_edges(
        src, dst, w, num_vertices=n, symmetrize=bool(seed % 3 == 0),
        name=f"adversarial-{seed}",
    )
    source = n - 1 if seed % 5 == 4 else int(rng.integers(0, core))
    return g, source


@pytest.mark.parametrize("seed", SEEDS)
def test_basyn_arms_match_oracle(seed):
    g, s = adversarial_graph(seed)
    for arm in BASYN_ARMS:
        r = sssp(g, s, method=arm, spec=SPEC)
        validate_distances(g, s, r.dist)


def test_adversarial_set_covers_its_cases():
    """The seeds really produce every case the module promises."""
    zero = wide = isolated_src = disconnected = directed = symmetric = False
    for seed in SEEDS:
        g, s = adversarial_graph(seed)
        w = g.weights
        zero |= bool((w == 0).any())
        wide |= bool(w.size and w.max() / w[w > 0].min() > 1e9)
        isolated_src |= g.row[s + 1] == g.row[s]
        reach = np.isfinite(sssp(g, s, method="dijkstra").dist)
        disconnected |= not reach.all()
        sym = g.num_edges > 0 and np.array_equal(
            np.sort(g.edge_sources() * g.num_vertices + g.adj),
            np.sort(g.adj * g.num_vertices + g.edge_sources()),
        )
        symmetric |= sym
        directed |= g.num_edges > 0 and not sym
    assert zero and wide and isolated_src and disconnected
    assert directed and symmetric


KRON = kronecker(8, 8, weights="int", seed=0)
KRON_SRC = int(largest_component_vertices(KRON)[0])


@pytest.mark.parametrize("delta", [1e-3, 1e9])
def test_extreme_delta_on_kron(delta):
    r = sssp(KRON, KRON_SRC, method="rdbs", delta=delta, spec=SPEC)
    validate_distances(KRON, KRON_SRC, r.dist)
    assert not r.extra["delta_rescaled"]


@pytest.mark.parametrize("arm", BASYN_ARMS[1:])
def test_one_bucket_delta_every_arm(arm):
    r = sssp(KRON, KRON_SRC, method=arm, delta=1e9, spec=SPEC)
    validate_distances(KRON, KRON_SRC, r.dist)
    assert r.extra["buckets"] == 1

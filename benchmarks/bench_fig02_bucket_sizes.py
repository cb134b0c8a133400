"""Fig. 2: active vertices per bucket of Δ-stepping (Graph500, Δ = 0.1).

The paper runs the Graph500 reference Δ-stepping on Kronecker SCALE 24/25
(edgefactor 16, unit weights) and plots the number of active vertices in
every bucket.  The surrogates here are SCALE 13/14 (the same −11 scale
shift as the dataset surrogates); the claim under test is the *shape*:
bucket occupancy explodes in an early bucket and decays over the tail,
which is the load-imbalance motivation (§3.2).
"""

from functools import lru_cache

import numpy as np

from repro.bench import format_table, write_results
from repro.graphs import kronecker, largest_component_vertices
from repro.sssp import delta_stepping_cpu, validate_distances

SCALES = (13, 14)
DELTA = 0.1  # the paper's empirical Graph500 value


@lru_cache(maxsize=1)
def run_traces():
    out = {}
    for scale in SCALES:
        g = kronecker(scale, 16, weights="unit", seed=100 + scale)
        src = int(largest_component_vertices(g)[0])
        r = delta_stepping_cpu(g, src, delta=DELTA)
        validate_distances(g, src, r.dist)
        out[scale] = r
    return out


def test_fig2_bucket_occupancy(benchmark):
    traces = benchmark.pedantic(run_traces, rounds=1, iterations=1)
    rows = []
    sizes = {
        scale: [row["active"] for row in r.extra["bucket_telemetry"]]
        for scale, r in traces.items()
    }
    for i in range(max(len(s) for s in sizes.values())):
        rows.append(
            [i] + [sizes[s][i] if i < len(sizes[s]) else 0 for s in SCALES]
        )
    text = format_table(
        ["bucket_id"] + [f"SCALE={s}" for s in SCALES],
        rows,
        title=f"Fig. 2 — active vertices per bucket (Δ = {DELTA}, edgefactor 16)",
    )
    print("\n" + text)
    write_results("fig02_bucket_sizes.txt", text)

    for scale in SCALES:
        s = np.array(sizes[scale])
        peak = int(np.argmax(s))
        # sharp rise into the peak bucket...
        assert s[peak] > 10 * s[0]
        # ...then decay over the tail (paper: "decreases gradually in
        # subsequent buckets")
        assert s[-1] < s[peak] / 2
    # the larger graph has the larger peak
    assert max(sizes[SCALES[1]]) > max(sizes[SCALES[0]])

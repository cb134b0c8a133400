"""Fig. 11: scalability with SCALE and edgefactor (GTEPS + speedup vs ADDS).

The paper sweeps Kronecker graphs at SCALE 22/23/24 x edgefactor
8/16/32/64 and reports RDBS's GTEPS (8.81 .. 40.09) plus its speedup over
ADDS (13.5x .. 68.7x; average 34.2x).  The surrogates here are SCALE
11/12/13 (the same -11 shift).  Shapes under test: GTEPS rises with
edgefactor at every scale; for a fixed edgefactor GTEPS does not degrade
as SCALE grows; RDBS beats ADDS on every configuration and its advantage
grows with edgefactor.
"""

from functools import lru_cache

from repro.bench import benchmark_spec, format_table, run_method, write_results
from repro.graphs import kronecker, largest_component_vertices
from repro.metrics import geometric_mean

SCALES = (11, 12, 13)
EDGEFACTORS = (8, 16, 32, 64)


@lru_cache(maxsize=1)
def fig11_matrix():
    spec = benchmark_spec()
    out = {}
    for scale in SCALES:
        for ef in EDGEFACTORS:
            g = kronecker(scale, ef, weights="int", seed=200 + scale * 10 + ef)
            src = int(largest_component_vertices(g)[0])
            rdbs = run_method(
                g.name, "rdbs", graph=g, sources=[src], spec=spec
            )
            adds = run_method(
                g.name, "adds", graph=g, sources=[src], spec=spec
            )
            out[(scale, ef)] = (rdbs, adds)
    return out


def test_fig11_scalability(benchmark):
    matrix = benchmark.pedantic(fig11_matrix, rounds=1, iterations=1)
    rows = []
    speedups = []
    for scale in SCALES:
        for ef in EDGEFACTORS:
            rdbs, adds = matrix[(scale, ef)]
            spd = adds.time_ms / rdbs.time_ms
            speedups.append(spd)
            rows.append(
                [
                    scale,
                    ef,
                    round(rdbs.gteps, 3),
                    round(rdbs.time_ms, 4),
                    round(adds.time_ms, 4),
                    round(spd, 2),
                ]
            )
    text = format_table(
        ["SCALE", "edgefactor", "RDBS GTEPS", "RDBS ms", "ADDS ms", "speedup"],
        rows,
        title="Fig. 11 — scalability over SCALE x edgefactor (simulated V100)",
    )
    text += (
        f"\n\ngeomean speedup vs ADDS: {geometric_mean(speedups):.2f}x"
        " (paper average: 34.2x at SCALE 22-24)"
    )
    print("\n" + text)
    write_results("fig11_scalability.txt", text)

    by = {(r[0], r[1]): r for r in rows}
    # GTEPS rises with edgefactor at every scale ("the higher the average
    # degree, the better performance"); allow 5% source-selection noise on
    # adjacent steps but require the end-to-end trend
    for scale in SCALES:
        gteps = [by[(scale, ef)][2] for ef in EDGEFACTORS]
        for a, b in zip(gteps, gteps[1:]):
            assert b >= 0.95 * a, (scale, gteps)
        assert gteps[-1] > gteps[0], (scale, gteps)
    # at fixed edgefactor, larger graphs sustain higher throughput
    # ("as the SCALE increases, the performance is better")
    for ef in EDGEFACTORS:
        assert by[(SCALES[-1], ef)][2] > by[(SCALES[0], ef)][2]
    # RDBS beats ADDS on every configuration, by a healthy average factor
    assert all(s > 1.0 for s in speedups)
    assert geometric_mean(speedups) > 2.0

"""Fig. 12: RDBS runtime on Tesla T4 vs V100.

The paper runs RDBS on both boards and reports V100/T4 speedups of
1.47x–2.58x, noting the ratio tracks the hardware gap: "our theoretical
analysis suggests that the performance of SSSP on the V100 platform
should be two to three times better than on the Tesla T4".  The simulator
is parameterized by the same datasheet numbers, so the ratio must land in
the same band wherever kernel bodies (not launch latencies) dominate.
"""

from functools import lru_cache

from repro.bench import (
    FIG12_DATASETS,
    benchmark_spec,
    format_table,
    run_method,
    write_results,
)
from repro.gpusim import T4, V100
from repro.metrics import geometric_mean

PAPER_SPEEDUP = {
    "Amazon": 2.14,
    "road-TX": 1.47,
    "web-GL": 2.30,
    "com-LJ": 2.35,
    "soc-PK": 2.58,
    "k-n21-16": 1.51,
}


@lru_cache(maxsize=1)
def fig12_matrix():
    out = {}
    for d in FIG12_DATASETS:
        out[(d, "V100")] = run_method(
            d, "rdbs", num_sources=2, spec=benchmark_spec(V100)
        )
        out[(d, "T4")] = run_method(
            d, "rdbs", num_sources=2, spec=benchmark_spec(T4)
        )
    return out


def test_fig12_gpu_platforms(benchmark):
    matrix = benchmark.pedantic(fig12_matrix, rounds=1, iterations=1)
    rows = []
    ratios = []
    for d in FIG12_DATASETS:
        v = matrix[(d, "V100")].time_ms
        t = matrix[(d, "T4")].time_ms
        ratios.append(t / v)
        rows.append(
            [d, round(t, 4), round(v, 4), round(t / v, 2), PAPER_SPEEDUP[d]]
        )
    text = format_table(
        ["dataset", "T4 ms", "V100 ms", "V100 speedup (ours)", "paper"],
        rows,
        title="Fig. 12 — RDBS runtime on T4 vs V100",
    )
    text += f"\n\ngeomean V100/T4 speedup: {geometric_mean(ratios):.2f}x (paper range 1.47-2.58x)"
    print("\n" + text)
    write_results("fig12_gpu_platforms.txt", text)

    # V100 is never slower, and the average gain sits in the paper's
    # "two to three times" hardware band (allowing the scaled regime's
    # launch-bound datasets to pull the low end down)
    assert all(r >= 1.0 for r in ratios)
    assert 1.2 < geometric_mean(ratios) < 3.2

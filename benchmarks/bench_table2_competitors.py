"""Table 2: RDBS vs PQ-Δ* (CPU) and ADDS (GPU).

The paper's headline comparison (runtime in ms, speedup in parentheses):

    graph     PQ-Δ* (CPU)      ADDS (GPU)      RDBS
    road-TX   39.68 (4.48x)    8.10 (0.91x)    8.86
    Amazon    19.62 (9.81x)    4.14 (2.07x)    2.00
    web-GL    27.98 (5.62x)    9.34 (1.88x)    4.98
    com-LJ    167.76 (15.13x)  25.84 (2.33x)   11.09
    soc-PK    99.25 (17.35x)   13.34 (2.33x)   5.72
    k-n21-16  42.60 (9.53x)    93.95 (21.02x)  4.47

Shape under test: RDBS beats the CPU competitor everywhere by a large
factor; RDBS beats ADDS on every power-law dataset; ADDS wins (or ties)
on road-TX — the paper's own caveat for uniform-degree high-diameter
graphs.
"""

from functools import lru_cache

from repro.bench import (
    TABLE2_DATASETS,
    format_table,
    run_matrix,
    write_results,
)
from repro.metrics import geometric_mean

PAPER_MS = {
    "road-TX": (39.68, 8.10, 8.86),
    "Amazon": (19.62, 4.14, 2.00),
    "web-GL": (27.98, 9.34, 4.98),
    "com-LJ": (167.76, 25.84, 11.09),
    "soc-PK": (99.25, 13.34, 5.72),
    "k-n21-16": (42.60, 93.95, 4.47),
}


@lru_cache(maxsize=1)
def table2_matrix():
    return run_matrix(TABLE2_DATASETS, ["pq-delta*", "adds", "rdbs"], num_sources=3)


def test_table2_competitor_runtimes(benchmark):
    matrix = benchmark.pedantic(table2_matrix, rounds=1, iterations=1)
    rows = []
    for d in TABLE2_DATASETS:
        cpu = matrix[(d, "pq-delta*")].time_ms
        adds = matrix[(d, "adds")].time_ms
        rdbs = matrix[(d, "rdbs")].time_ms
        p_cpu, p_adds, p_rdbs = PAPER_MS[d]
        rows.append(
            [
                d,
                f"{cpu:.4f} ({cpu / rdbs:.2f}x)",
                f"{adds:.4f} ({adds / rdbs:.2f}x)",
                f"{rdbs:.4f}",
                f"{p_cpu} ({p_cpu / p_rdbs:.2f}x)",
                f"{p_adds} ({p_adds / p_rdbs:.2f}x)",
                f"{p_rdbs}",
            ]
        )
    text = format_table(
        [
            "graph",
            "PQ-Δ* ms (spd)",
            "ADDS ms (spd)",
            "RDBS ms",
            "paper PQ-Δ*",
            "paper ADDS",
            "paper RDBS",
        ],
        rows,
        title="Table 2 — runtime and speedup vs competitors (simulated V100)",
    )
    cpu_geo = geometric_mean(
        matrix[(d, "pq-delta*")].time_ms / matrix[(d, "rdbs")].time_ms
        for d in TABLE2_DATASETS
    )
    text += f"\n\ngeomean speedup vs PQ-Δ*: {cpu_geo:.2f}x (paper mean: 10.32x)"
    print("\n" + text)
    write_results("table2_competitors.txt", text)

    # RDBS always beats the CPU competitor, substantially on average
    for d in TABLE2_DATASETS:
        assert matrix[(d, "pq-delta*")].time_ms > matrix[(d, "rdbs")].time_ms, d
    assert cpu_geo > 3.0
    # RDBS beats ADDS on every power-law dataset...
    for d in TABLE2_DATASETS:
        if d == "road-TX":
            continue
        assert matrix[(d, "adds")].time_ms > matrix[(d, "rdbs")].time_ms, d
    # ...but not on road-TX (paper: 0.91x)
    assert (
        matrix[("road-TX", "adds")].time_ms
        <= matrix[("road-TX", "rdbs")].time_ms
    )

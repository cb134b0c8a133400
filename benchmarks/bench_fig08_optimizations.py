"""Fig. 8: speedup of the optimization arms over the BL baseline.

The paper reports, per dataset, the speedup of BASYN+PRO, BASYN+ADWL and
BASYN+PRO+ADWL over a synchronous push-mode baseline (BL):

    dataset   BASYN+PRO  BASYN+ADWL  BASYN+PRO+ADWL   (paper, V100)
    road-TX   1.36       1.47        1.38
    Amazon    4.59       6.47        10.51
    web-GL    5.03       10.36       9.27
    com-LJ    5.88       13.02       17.55
    soc-PK    9.97       21.03       25.45
    k-n21-16  4.10       45.88       53.44

The absolute factors depend on graph scale (they grow with it); the shape
asserted here: every arm beats BL on every power-law dataset, the full
RDBS is the best (or near-best) arm on power-law graphs, and road-TX shows
only marginal gains (the paper's own negative result for uniform-degree,
high-diameter inputs).
"""

from functools import lru_cache

from repro.bench import (
    FIG8_DATASETS,
    format_table,
    geo_speedup,
    run_matrix,
    write_results,
)
from repro.metrics import geometric_mean

#: column label -> registered method; the full arm is RDBS itself
ARMS = {"basyn+pro": "basyn+pro", "basyn+adwl": "basyn+adwl",
        "basyn+pro+adwl": "rdbs"}
PAPER = {
    "road-TX": (1.36, 1.47, 1.38),
    "Amazon": (4.59, 6.47, 10.51),
    "web-GL": (5.03, 10.36, 9.27),
    "com-LJ": (5.88, 13.02, 17.55),
    "soc-PK": (9.97, 21.03, 25.45),
    "k-n21-16": (4.10, 45.88, 53.44),
}


@lru_cache(maxsize=1)
def fig8_matrix():
    return run_matrix(FIG8_DATASETS, ["bl", *ARMS.values()], num_sources=3)


def test_fig8_optimization_speedups(benchmark):
    matrix = benchmark.pedantic(fig8_matrix, rounds=1, iterations=1)
    rows = []
    for d in FIG8_DATASETS:
        base = matrix[(d, "bl")].time_ms
        speedups = [base / matrix[(d, m)].time_ms for m in ARMS.values()]
        rows.append(
            [d]
            + [round(s, 2) for s in speedups]
            + [p for p in PAPER[d]]
        )
    text = format_table(
        ["dataset"]
        + [f"{a} (ours)" for a in ARMS]
        + [f"{a} (paper)" for a in ARMS],
        rows,
        title="Fig. 8 — speedup over BL (synchronous push baseline)",
    )
    avg = [
        round(geo_speedup(matrix, FIG8_DATASETS, "bl", m), 2)
        for m in ARMS.values()
    ]
    text += f"\n\ngeomean speedups (ours): {dict(zip(ARMS, avg))}"
    text += "\npaper arithmetic means:  {'basyn+pro': 5.15, 'basyn+adwl': 16.37, 'basyn+pro+adwl': 19.60}"
    print("\n" + text)
    write_results("fig08_optimizations.txt", text)

    powerlaw = [d for d in FIG8_DATASETS if d != "road-TX"]
    for d in powerlaw:
        base = matrix[(d, "bl")].time_ms
        for m in ARMS.values():
            assert base / matrix[(d, m)].time_ms > 1.0, (d, m)
    # the full configuration is the best arm on average over power-law sets
    full = geometric_mean(
        matrix[(d, "bl")].time_ms / matrix[(d, "rdbs")].time_ms
        for d in powerlaw
    )
    pro_only = geometric_mean(
        matrix[(d, "bl")].time_ms / matrix[(d, "basyn+pro")].time_ms
        for d in powerlaw
    )
    assert full > 2.0
    assert full >= 0.9 * pro_only
    # road-TX: marginal gains at best (the paper's caveat)
    road = (
        matrix[("road-TX", "bl")].time_ms / matrix[("road-TX", "rdbs")].time_ms
    )
    assert road < 5.0

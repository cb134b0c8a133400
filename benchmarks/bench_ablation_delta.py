"""Ablations beyond the paper's figures.

Three studies DESIGN.md calls out for the design choices the paper makes
but does not sweep:

* **Δ sensitivity** — runtime and work efficiency of RDBS across a
  log-spaced Δ0 sweep (the classic Δ-stepping trade-off: small Δ is
  work-efficient but parallelism-starved; large Δ degenerates toward
  Bellman-Ford);
* **dynamic-Δ (Eq. 1–2) vs fixed Δ** — what the bucket-aware controller
  actually buys over the same engine with the controller disabled;
* **asynchronous vs synchronous phase 1** — BASYN's barrier-elimination
  payoff in isolation, plus the Near-Far 2-bucket design point between BL
  and full bucketing.
"""

from functools import lru_cache

from repro.bench import format_table, run_method, write_results
from repro.sssp import default_delta

DATASET = "soc-PK"
DELTA_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 256.0)


@lru_cache(maxsize=1)
def delta_sweep():
    from repro.bench import get_graph

    g = get_graph(DATASET)
    d0 = default_delta(g)
    rows = []
    for f in DELTA_FACTORS:
        run = run_method(DATASET, "rdbs", num_sources=2, delta=d0 * f)
        buckets = run.results[0].extra["buckets"]
        rows.append(
            [f, round(d0 * f, 1), round(run.time_ms, 4),
             round(run.update_ratio, 2), buckets]
        )
    return rows


def test_ablation_delta_sensitivity(benchmark):
    rows = benchmark.pedantic(delta_sweep, rounds=1, iterations=1)
    text = format_table(
        ["Δ0 factor", "Δ0", "time ms", "update ratio", "buckets"],
        rows,
        title=f"Ablation — Δ0 sensitivity of RDBS on {DATASET}",
    )
    print("\n" + text)
    write_results("ablation_delta_sensitivity.txt", text)

    # the classic trade-off: bucket count falls monotonically with Δ...
    buckets = [r[4] for r in rows]
    assert buckets == sorted(buckets, reverse=True)
    # ...while work efficiency degrades toward Bellman-Ford
    assert rows[-1][3] >= rows[0][3]
    # the default (factor 1.0) is within 4x of the best sweep point
    best = min(r[2] for r in rows)
    default = next(r[2] for r in rows if r[0] == 1.0)
    assert default <= 4.0 * best


@lru_cache(maxsize=1)
def execution_mode_matrix():
    out = {}
    for method in ("rdbs", "sync-delta", "basyn", "near-far", "bl"):
        out[method] = run_method(DATASET, method, num_sources=2)
    return out


def test_ablation_execution_modes(benchmark):
    runs = benchmark.pedantic(execution_mode_matrix, rounds=1, iterations=1)
    rows = [
        [
            m,
            round(r.time_ms, 4),
            round(r.update_ratio, 2),
            r.results[0].counters.totals.barriers,
            r.results[0].counters.totals.kernel_launches,
        ]
        for m, r in runs.items()
    ]
    text = format_table(
        ["method", "time ms", "update ratio", "barriers", "launches"],
        rows,
        title=f"Ablation — execution modes on {DATASET}",
    )
    print("\n" + text)
    write_results("ablation_execution_modes.txt", text)

    # async phase 1 eliminates most synchronization of the sync engine
    assert (
        runs["basyn"].results[0].counters.totals.barriers
        < runs["sync-delta"].results[0].counters.totals.barriers
    )
    # and the full RDBS is the fastest of the family on this dataset
    assert runs["rdbs"].time_ms == min(r.time_ms for r in runs.values())
    # near-far sits between BL and bucketed Δ-stepping in work efficiency
    assert (
        runs["rdbs"].update_ratio
        <= runs["near-far"].update_ratio
        <= runs["bl"].update_ratio * 1.1
    )

"""Fig. 10: profiling counters — RDBS vs ADDS (the nvprof analysis).

The paper profiles both implementations with nvprof on six datasets and
reports four metrics; the simulator counts the same events:

(a) inst_executed_global_loads  — RDBS issues 0.03x–1.17x of ADDS (0.41x avg)
(b) inst_executed_global_stores — 0.082x–1.06x (0.57x avg)
(c) inst_executed_atomics       — RDBS reduces atomics by 2%–93% (39.6% avg)
(d) global_hit_rate             — RDBS gains +3.59% on average

Shape under test: averaged over the six datasets, RDBS issues fewer
warp-level loads and atomics than ADDS, and moves *less total DRAM
traffic* (L1-missing loads + stores + atomics) — the memory-efficiency
conclusion of §5.3.2.  The hit-rate *percentage* comparison is reported
but not asserted: at 1/64 scale ADDS's redundant re-relaxations re-touch
sectors within the (scaled) cache capacity, giving its extra traffic an
artificial temporal-locality credit that the paper's full-size runs do
not enjoy (see EXPERIMENTS.md for the analysis).
"""

from functools import lru_cache

from repro.bench import FIG10_DATASETS, format_table, run_matrix, write_results
from repro.metrics import geometric_mean


@lru_cache(maxsize=1)
def fig10_matrix():
    return run_matrix(FIG10_DATASETS, ["rdbs", "adds"], num_sources=2)


def _metrics(run):
    c = run.counters.totals
    return {
        "loads": c.inst_executed_global_loads,
        "stores": c.inst_executed_global_stores,
        "atomics": c.inst_executed_atomics,
        "hit_rate": c.global_hit_rate,
        "dram": (
            (c.global_load_transactions - c.l1_hits)
            + c.global_store_transactions
            + c.atomic_transactions
        ),
    }


def test_fig10_profiling_counters(benchmark):
    matrix = benchmark.pedantic(fig10_matrix, rounds=1, iterations=1)
    rows = []
    ratios = {"loads": [], "stores": [], "atomics": [], "hit": [], "dram": []}
    for d in FIG10_DATASETS:
        m_r = _metrics(matrix[(d, "rdbs")])
        m_a = _metrics(matrix[(d, "adds")])
        rows.append(
            [
                d,
                m_r["loads"], m_a["loads"],
                m_r["atomics"], m_a["atomics"],
                m_r["dram"], m_a["dram"],
                round(m_r["hit_rate"], 1), round(m_a["hit_rate"], 1),
            ]
        )
        ratios["loads"].append(max(m_r["loads"], 1) / max(m_a["loads"], 1))
        ratios["stores"].append(max(m_r["stores"], 1) / max(m_a["stores"], 1))
        ratios["atomics"].append(max(m_r["atomics"], 1) / max(m_a["atomics"], 1))
        ratios["dram"].append(max(m_r["dram"], 1) / max(m_a["dram"], 1))
        ratios["hit"].append(m_r["hit_rate"] - m_a["hit_rate"])
    text = format_table(
        [
            "dataset",
            "loads RDBS", "loads ADDS",
            "atomics RDBS", "atomics ADDS",
            "DRAM RDBS", "DRAM ADDS",
            "hit% RDBS", "hit% ADDS",
        ],
        rows,
        title="Fig. 10 — simulated nvprof counters, RDBS vs ADDS",
    )
    text += (
        f"\n\nRDBS/ADDS geomean: loads {geometric_mean(ratios['loads']):.2f}x"
        f" (paper avg 0.41x), stores {geometric_mean(ratios['stores']):.2f}x"
        f" (paper avg 0.57x), atomics {geometric_mean(ratios['atomics']):.2f}x"
        f" (paper avg reduction 39.6%),"
        f" DRAM traffic {geometric_mean(ratios['dram']):.2f}x"
        f"\nmean hit-rate gain: {sum(ratios['hit']) / len(ratios['hit']):+.2f}pp"
        " (paper avg +3.59pp; not asserted — at 1/64 scale ADDS's redundant"
        "\nre-relaxations enjoy an artificial temporal-locality credit, see"
        " EXPERIMENTS.md)"
    )
    print("\n" + text)
    write_results("fig10_profiling.txt", text)

    # averaged over the six datasets, RDBS issues fewer loads and atomics
    assert geometric_mean(ratios["loads"]) < 1.0
    assert geometric_mean(ratios["atomics"]) < 1.0
    # and the memory-efficiency headline: less total DRAM traffic, on
    # every dataset
    for d, r in zip(FIG10_DATASETS, ratios["dram"]):
        assert r < 1.0, (d, r)

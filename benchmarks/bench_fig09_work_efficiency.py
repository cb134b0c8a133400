"""Fig. 9: work efficiency — total/valid update ratio, RDBS vs ADDS.

The paper reports per-dataset ratios of total updates to valid updates for
RDBS (1.06 .. 6.83, average 2.22), the factor by which ADDS performs more
updates than RDBS (1.33x .. 2.18x), and the accompanying performance
speedup over ADDS.  Shape under test: RDBS's ratio stays small on
power-law graphs; ADDS performs more updates than RDBS on every dataset;
update-count advantage correlates with performance advantage.
"""

from functools import lru_cache

from repro.bench import FIG9_DATASETS, format_table, run_matrix, write_results

PAPER_RATIO = {
    "k-n21-16": 1.06,
    "web-GL": 1.49,
    "soc-PK": 1.67,
    "com-LJ": 1.67,
    "soc-TW": 1.69,
    "as-Skt": 1.73,
    "soc-LJ": 1.80,
    "wiki-TK": 1.85,
    "com-OK": 2.39,
    "road-TX": 6.83,
}


@lru_cache(maxsize=1)
def fig9_matrix():
    return run_matrix(FIG9_DATASETS, ["rdbs", "adds"], num_sources=2)


def test_fig9_work_efficiency(benchmark):
    matrix = benchmark.pedantic(fig9_matrix, rounds=1, iterations=1)
    rows = []
    for d in FIG9_DATASETS:
        rdbs = matrix[(d, "rdbs")]
        adds = matrix[(d, "adds")]
        r_updates = sum(r.work.total_updates for r in rdbs.results)
        a_updates = sum(r.work.total_updates for r in adds.results)
        rows.append(
            [
                d,
                round(rdbs.update_ratio, 2),
                PAPER_RATIO[d],
                round(a_updates / max(r_updates, 1), 2),
                round(adds.time_ms / rdbs.time_ms, 2),
            ]
        )
    text = format_table(
        [
            "dataset",
            "RDBS ratio (ours)",
            "RDBS ratio (paper)",
            "ADDS/RDBS updates",
            "speedup vs ADDS",
        ],
        rows,
        title="Fig. 9 — work efficiency (total updates / valid updates)",
    )
    avg = sum(r[1] for r in rows) / len(rows)
    text += f"\n\naverage RDBS ratio (ours): {avg:.2f} (paper: 2.22)"
    print("\n" + text)
    write_results("fig09_work_efficiency.txt", text)

    by_name = {r[0]: r for r in rows}
    # RDBS ratios are modest everywhere (paper max is 6.83 on road-TX)
    for d in FIG9_DATASETS:
        assert by_name[d][1] < 8.0, d
    # ADDS performs more updates than RDBS on all power-law datasets
    for d in FIG9_DATASETS:
        if d == "road-TX":
            continue
        assert by_name[d][3] > 1.0, d
    # and RDBS outperforms ADDS on those datasets
    for d in FIG9_DATASETS:
        if d == "road-TX":
            continue
        assert by_name[d][4] > 1.0, d

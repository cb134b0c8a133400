"""Fig. 1(b): the motivation analysis on the paper's 8-vertex toy graph.

Runs the synchronous push-mode baseline on the exact Fig. 1(a) graph and
reports valid/invalid updates and invalid checks — the quantities the
figure annotates (2 valid updates, 7 invalid updates, 5 invalid checks in
the partial execution it draws).
"""

from functools import lru_cache

from repro.bench import benchmark_spec, format_table, write_results
from repro.graphs import paper_fig1_graph
from repro.sssp import bl_sssp, rdbs_sssp, validate_distances


@lru_cache(maxsize=1)
def run_toy():
    g = paper_fig1_graph()
    spec = benchmark_spec()
    bl = bl_sssp(g, 0, spec=spec)
    rdbs = rdbs_sssp(g, 0, delta=3.0, spec=spec)
    validate_distances(g, 0, bl.dist)
    validate_distances(g, 0, rdbs.dist)
    return bl, rdbs


def test_fig1_motivation_counts(benchmark):
    bl, rdbs = benchmark.pedantic(run_toy, rounds=1, iterations=1)
    rows = []
    for r in (bl, rdbs):
        t = r.work
        rows.append(
            [
                r.method,
                t.total_updates,
                t.valid_updates,
                t.invalid_updates,
                t.checks,
                round(t.update_ratio, 3),
            ]
        )
    text = format_table(
        ["method", "updates", "valid", "invalid", "checks", "ratio"],
        rows,
        title="Fig. 1(b) — work analysis on the paper's toy graph (Δ=3, source 0)",
    )
    print("\n" + text)
    write_results("fig01_motivation.txt", text)

    # the figure's claim: synchronous push performs invalid updates and
    # invalid checks on this graph, and bucketed execution reduces them
    assert bl.work.invalid_updates > 0
    assert bl.work.checks > 0
    assert rdbs.work.invalid_updates <= bl.work.invalid_updates

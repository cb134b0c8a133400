"""Ablation: asynchronous micro-round granularity + historical baselines.

Two studies:

* **chunk-size sensitivity** — BASYN drains its workload lists in
  micro-rounds; the chunk size trades distance freshness (small chunks ⇒
  fewer redundant updates, the async convergence benefit of §4.3) against
  scheduling rounds.  Sweeping it shows the paper's design point (a few
  thousand) sits on the flat part of the curve.
* **baseline lineage** — Harish–Narayanan (2007, topology-driven) vs BL
  (frontier push) vs Near-Far (2014) vs ADDS (2021) vs RDBS (the paper):
  the historical progression §1/§6 narrates, as one measured table.
"""

from functools import lru_cache

from repro.bench import (
    benchmark_spec,
    format_table,
    get_graph,
    pick_sources,
    run_method,
    write_results,
)
from repro.sssp import rdbs_sssp, validate_distances

DATASET = "com-LJ"
CHUNKS = (128, 512, 2048, 8192, 65536)


@lru_cache(maxsize=1)
def chunk_sweep():
    g = get_graph(DATASET)
    spec = benchmark_spec()
    src = pick_sources(DATASET, 1)[0]
    rows = []
    for chunk in CHUNKS:
        r = rdbs_sssp(g, src, spec=spec, async_chunk=chunk)
        validate_distances(g, src, r.dist)
        rows.append(
            [
                chunk,
                round(r.time_ms, 4),
                round(r.work.update_ratio, 3),
                r.extra["rounds"],
            ]
        )
    return rows


def test_ablation_async_chunk(benchmark):
    rows = benchmark.pedantic(chunk_sweep, rounds=1, iterations=1)
    text = format_table(
        ["chunk", "time ms", "update ratio", "micro-rounds"],
        rows,
        title=f"Ablation — async micro-round chunk size on {DATASET}",
    )
    print("\n" + text)
    write_results("ablation_async_chunk.txt", text)

    # smaller chunks never do more redundant work (fresher distances)
    ratios = [r[2] for r in rows]
    assert ratios[0] <= ratios[-1] + 0.05
    # rounds decrease monotonically with chunk size
    rounds = [r[3] for r in rows]
    assert rounds == sorted(rounds, reverse=True)


@lru_cache(maxsize=1)
def lineage_matrix():
    methods = ["harish-narayanan", "bl", "near-far", "adds", "rdbs"]
    return {m: run_method(DATASET, m, num_sources=2) for m in methods}


def test_ablation_baseline_lineage(benchmark):
    runs = benchmark.pedantic(lineage_matrix, rounds=1, iterations=1)
    rows = [
        [
            m,
            r.results[0].extra.get("iterations", r.results[0].extra.get("rounds", "-")),
            round(r.time_ms, 4),
            round(r.update_ratio, 2),
        ]
        for m, r in runs.items()
    ]
    text = format_table(
        ["method (year)", "iterations", "time ms", "update ratio"],
        rows,
        title=f"Ablation — GPU SSSP lineage on {DATASET} "
              "(2007 HN -> 2014 Near-Far -> 2021 ADDS -> 2023 RDBS)",
    )
    print("\n" + text)
    write_results("ablation_lineage.txt", text)

    # the paper's narrative: each generation improves on the last's
    # dominant weakness, and RDBS ends up fastest
    assert runs["rdbs"].time_ms == min(r.time_ms for r in runs.values())
    # the push-mode generation (HN'07, BL) is the slowest pair; the
    # bucketed/asynchronous generation is strictly ahead of both
    push_gen = min(runs["harish-narayanan"].time_ms, runs["bl"].time_ms)
    for newer in ("near-far", "adds", "rdbs"):
        assert runs[newer].time_ms < push_gen, newer
    # and work efficiency improves monotonically across the generations
    assert (
        runs["rdbs"].update_ratio
        < runs["adds"].update_ratio
        < runs["bl"].update_ratio
    )

"""Ablation: decomposing property-driven reordering (PRO, §4.1).

The paper evaluates PRO as one switch; this study splits it into its two
halves — descending-degree relabeling and per-vertex weight sorting — and
measures what each contributes on a power-law dataset:

* degree relabeling alone: locality (cache hit rate) without the
  branch-free light/heavy split;
* weight sorting alone: branch-free split + early-valid-update ordering
  without the hot-region concentration;
* both (full PRO).

Also regenerates the locality diagnostics of ``reorder.pro_report`` (mean
neighbor distance, mixed light/heavy pair fraction) that motivate the
design.
"""

from functools import lru_cache

import numpy as np

from repro.bench import (
    benchmark_spec,
    format_table,
    get_graph,
    pick_sources,
    write_results,
)
from repro.reorder import apply_pro, pro_report
from repro.sssp import default_delta, rdbs_sssp, validate_distances

DATASET = "soc-PK"


@lru_cache(maxsize=1)
def reorder_ablation():
    g = get_graph(DATASET)
    spec = benchmark_spec()
    delta = default_delta(g)
    sources = pick_sources(DATASET, 2)
    arms = {
        "no PRO": dict(degree_reorder=False, weight_sort=False),
        "degree only": dict(degree_reorder=True, weight_sort=False),
        "weight-sort only": dict(degree_reorder=False, weight_sort=True),
        "full PRO": dict(degree_reorder=True, weight_sort=True),
    }
    rows = []
    for label, toggles in arms.items():
        pre = apply_pro(g, delta, **toggles)
        times, ratios, hits = [], [], []
        for s in sources:
            # run the engine directly on the pre-transformed graph with its
            # internal preprocessing off; the engine uses heavy offsets
            # whenever the graph carries them (i.e. the weight-sort arms)
            src = int(pre.old_to_new[s]) if pre.old_to_new is not None else s
            r = rdbs_sssp(
                pre, src, delta=delta, pro=False, adwl=True, basyn=True,
                spec=spec,
            )
            # map distances back for validation
            dist = pre.to_original_order(r.dist)
            validate_distances(g, s, dist)
            times.append(r.time_ms)
            ratios.append(r.work.update_ratio)
            hits.append(r.counters.totals.global_hit_rate)
        rows.append(
            [
                label,
                round(float(np.mean(times)), 4),
                round(float(np.mean(ratios)), 2),
                round(float(np.mean(hits)), 1),
            ]
        )
    rep = pro_report(g, delta)
    return rows, rep


def test_ablation_reorder_decomposition(benchmark):
    rows, rep = benchmark.pedantic(
        reorder_ablation, rounds=1, iterations=1
    )
    text = format_table(
        ["arm", "time ms", "update ratio", "hit %"],
        rows,
        title=f"Ablation — PRO decomposition on {DATASET} (engine: ADWL+BASYN)",
    )
    text += (
        f"\n\nlocality diagnostics (pro_report):"
        f"\n  mean neighbor distance: {rep.mean_neighbor_distance_before:.1f}"
        f" -> {rep.mean_neighbor_distance_after:.1f}"
        f" (gain {rep.locality_gain:.2f}x)"
        f"\n  mixed light/heavy pairs: {rep.mixed_pairs_before:.3f}"
        f" -> {rep.mixed_pairs_after:.3f}"
    )
    print("\n" + text)
    write_results("ablation_reorder.txt", text)

    by = {r[0]: r for r in rows}
    # weight sorting leaves at most one class flip per segment
    assert rep.mixed_pairs_after < rep.mixed_pairs_before
    # degree relabeling improves the cache hit rate over no PRO
    assert by["degree only"][3] >= by["no PRO"][3] - 1.0
    # every arm is within a sane band of the full configuration
    assert by["full PRO"][1] <= 2.0 * min(r[1] for r in rows)

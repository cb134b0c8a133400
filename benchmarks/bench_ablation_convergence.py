"""Ablation: convergence acceleration (the §4.3 claim, quantified).

"By using this bucket-aware asynchronous execution optimization ... the
synchronization overhead is cut down, which accelerates the convergence of
the algorithm."  This study measures convergence directly: the settled-
vertex fraction over bucket-sequence position (area-under-curve; higher =
earlier settlement) and the synchronization events spent getting there,
for the sync engine, the async engine, and the async engine with the
Eq. 1–2 dynamic-Δ controller's feedback loop exercised by a deliberately
small Δ0.
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
from repro.sssp import default_delta, rdbs_sssp, validate_distances

DATASET = "web-GL"


def settlement(buckets: list[dict]) -> tuple[float, int]:
    """AUC of the settled fraction over bucket position, and the first
    bucket by which 90% of vertices are settled.

    Every member of a Δ-stepping bucket is settled when the bucket
    closes, so each bucket's initial ``active`` count is its settled
    contribution; a higher AUC means earlier settlement (1.0 = instant).
    """
    settled = np.cumsum([row["active"] for row in buckets])
    fractions = settled / settled[-1]
    return float(fractions.mean()), int(np.argmax(fractions >= 0.9))


@lru_cache(maxsize=1)
def convergence_runs():
    g = get_graph(DATASET)
    spec = benchmark_spec()
    src = pick_sources(DATASET, 1)[0]
    d0 = default_delta(g)
    arms = {
        "sync, fixed Δ": dict(basyn=False, delta=d0),
        "async, dynamic Δ": dict(basyn=True, delta=d0),
        "async, dynamic Δ (small Δ0)": dict(basyn=True, delta=d0 / 4),
    }
    rows = []
    for label, kw in arms.items():
        r = rdbs_sssp(g, src, spec=spec, **kw)
        validate_distances(g, src, r.dist)
        buckets = r.extra["bucket_telemetry"]
        auc, settled90 = settlement(buckets)
        c = r.counters.totals
        rows.append(
            [
                label,
                round(r.time_ms, 4),
                len(buckets),
                round(auc, 3),
                settled90 + 1,
                c.barriers,
                c.async_rounds,
            ]
        )
    return rows


def test_ablation_convergence(benchmark):
    rows = benchmark.pedantic(
        convergence_runs, rounds=1, iterations=1
    )
    text = format_table(
        [
            "arm", "time ms", "buckets", "AUC",
            "90%-settled bucket", "barriers", "async rounds",
        ],
        rows,
        title=f"Ablation — convergence acceleration on {DATASET} (§4.3)",
    )
    print("\n" + text)
    write_results("ablation_convergence.txt", text)

    by = {r[0]: r for r in rows}
    sync = by["sync, fixed Δ"]
    async_ = by["async, dynamic Δ"]
    # the async engine spends far fewer barriers...
    assert async_[5] < sync[5]
    # ...replacing them with cheap async rounds
    assert async_[6] > 0
    # and is not slower end to end
    assert async_[1] <= sync[1] * 1.05
    # settlement is front-loaded at least as well
    assert async_[3] >= sync[3] - 0.05

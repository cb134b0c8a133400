"""Tolerance-certified landmark answers + artifact-cached oracle warmup.

Two pieces of the serving layer's oracle-vs-exact policy live here:

* :func:`warm_oracle` builds the ALT :class:`~repro.sssp.landmarks.
  LandmarkOracle` for a graph and memoizes the whole bundle — landmark
  ids, the ``(k, n)`` distance matrix *and the per-landmark simulated
  build times* — in the persistent :mod:`repro.perf.artifacts` cache.
  Storing the times alongside the vectors keeps the benchmark trajectory
  deterministic: a warm process reports the same ``warmup_ms`` the cold
  build measured, it just skips the k SSSP runs.

* :func:`certified_answer` turns the oracle's ``[lower, upper]`` bracket
  into an answer **only when the bracket itself proves the tolerance**:
  the true distance d lies in ``[lo, up]``, so answering ``up`` has
  relative error ``(up - d)/d <= (up - lo)/lo``.  The oracle therefore
  answers iff ``up - lo <= tolerance * lo`` (plus the trivial cases), and
  every served answer is mathematically within the declared relative
  tolerance of the exact RDBS distance — no statistical hedging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..sssp.landmarks import LandmarkOracle, select_landmarks
from .workload import ServeConfig

__all__ = ["WarmOracle", "warm_oracle", "certified_answer"]

#: bump to invalidate cached oracle bundles when the build recipe changes
#: — including engine cost-model changes, since the bundle memoizes the
#: k landmark runs' *simulated build times* (v2: warp-ballot multisplit
#: bucket placement changed the exact engines' kernel costs; v3: the relax
#: layer's test before atomicMin did; v4: ADDS's persistent loop and
#: RDBS's in-kernel offset re-split did; v5: RDBS's one barrier per
#: bucket did; v6: ADDS's and Near-Far's near/far split inside the relax
#: producer did; v7: RDBS folding its next-bucket minimum only where a
#: barrier reads it did; v8: RDBS phase 1's controller step dropping its
#: decision-cell load did)
ORACLE_BUNDLE_VERSION = 8


@dataclass(frozen=True)
class WarmOracle:
    """A ready oracle plus the preprocessing cost it stands on."""

    oracle: LandmarkOracle
    #: simulated milliseconds of the k landmark SSSP runs
    times_ms: np.ndarray
    #: True when the bundle came from the persistent artifact cache
    artifact_hit: bool

    @property
    def warmup_ms(self) -> float:
        return float(self.times_ms.sum())


def warm_oracle(
    graph: CSRGraph,
    config: ServeConfig,
    *,
    spec=None,
) -> WarmOracle:
    """Build (or fetch) the landmark oracle bundle for one session.

    The artifact key covers the graph content, the landmark count, the
    exact engine, the seed and the device spec — any change misses
    cleanly and rebuilds.
    """
    from ..perf import artifacts

    spec_label = getattr(spec, "name", "default")
    parts = (
        ORACLE_BUNDLE_VERSION,
        graph.content_digest(),
        int(config.landmarks),
        config.method,
        int(config.seed),
        spec_label,
    )
    state = {"hit": True}

    def build() -> dict[str, np.ndarray]:
        state["hit"] = False
        results: list = []
        kwargs = {"spec": spec} if spec is not None else {}
        landmarks, matrix = select_landmarks(
            graph,
            config.landmarks,
            method=config.method,
            seed=config.seed,
            results=results,
            **kwargs,
        )
        return {
            "landmarks": landmarks,
            "dist_matrix": matrix,
            "times_ms": np.array([r.time_ms for r in results]),
        }

    arrays, _ = artifacts.fetch("serve_oracle", parts, build)
    oracle = LandmarkOracle(
        landmarks=np.asarray(arrays["landmarks"], dtype=np.int64),
        dist_matrix=np.asarray(arrays["dist_matrix"]),
    )
    return WarmOracle(
        oracle=oracle,
        times_ms=np.asarray(arrays["times_ms"], dtype=float),
        artifact_hit=state["hit"],
    )


def certified_answer(
    oracle: LandmarkOracle, u: int, v: int, tolerance: float
) -> float | None:
    """An answer provably within ``tolerance`` of d(u, v), or ``None``.

    Answers ``upper`` when the ALT bracket certifies
    ``(upper - lower) <= tolerance * lower`` (so the relative error
    against the true distance is at most ``tolerance``), ``0`` for
    ``u == v``, and refuses (returns ``None``) whenever the bracket
    cannot prove the bound — unreachable pairs, a zero lower bound, or
    simply landmarks that are not informative enough for this pair.
    """
    if u == v:
        return 0.0
    lo, up = oracle.bounds(int(u), int(v))
    if math.isinf(up):
        return None
    if up == 0.0:
        # upper bound zero => the true distance is exactly zero
        return 0.0
    if lo <= 0.0:
        return None
    if up - lo <= tolerance * lo:
        return up
    return None

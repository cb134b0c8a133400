"""Landmark (ALT) distance oracles built on batched SSSP.

A downstream application of the library's API, of the kind the paper's
introduction motivates (road layout management, network routing): many
point-to-point distance queries over one graph.  The classic ALT scheme
preprocesses SSSP from ``k`` landmark vertices; by the triangle inequality
every landmark ``L`` yields

    |dist(L, u) - dist(L, v)|  <=  dist(u, v)  <=  dist(u, L) + dist(L, v)

so the oracle answers lower/upper bounds in O(k) per query with no graph
traversal.  Landmarks are chosen by farthest-point sampling (each new
landmark maximizes its distance to the previous ones), the standard
high-quality heuristic.

Works on undirected graphs (the paper's evaluation setting): the bounds
above assume symmetric distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.properties import largest_component_vertices
from .api import sssp

__all__ = ["LandmarkOracle", "build_landmark_oracle", "select_landmarks"]


def select_landmarks(
    graph: CSRGraph,
    k: int,
    *,
    method: str = "rdbs",
    seed: int = 0,
    results: list | None = None,
    **kwargs,
) -> tuple[np.ndarray, np.ndarray]:
    """Farthest-point landmark selection.

    Returns ``(landmarks, dist_matrix)`` where ``dist_matrix[i]`` is the
    distance vector of landmark ``i`` (so selection's SSSP runs are reused
    by the oracle).  The first landmark is a random vertex of the largest
    component; each next one is the reachable vertex farthest from all
    chosen landmarks.

    Pass a list as ``results`` to also collect the per-landmark
    :class:`~repro.sssp.result.SSSPResult` objects — the serving layer
    accounts the oracle's preprocessing cost from their simulated times.
    """
    if k < 1:
        raise ValueError("need at least one landmark")
    comp = largest_component_vertices(graph)
    if comp.size == 0:
        raise ValueError("graph has no vertices")
    rng = np.random.default_rng(seed)
    first = int(rng.choice(comp))

    def run(vertex: int) -> np.ndarray:
        r = sssp(graph, vertex, method=method, **kwargs)
        if results is not None:
            results.append(r)
        return r.dist

    landmarks: list[int] = [first]
    vectors: list[np.ndarray] = [run(first)]
    min_dist = vectors[0].copy()  # distance to the nearest landmark

    while len(landmarks) < min(k, comp.size):
        candidates = np.where(np.isfinite(min_dist), min_dist, -1.0)
        nxt = int(np.argmax(candidates))
        if candidates[nxt] <= 0:
            break  # every reachable vertex is itself a landmark already
        landmarks.append(nxt)
        vec = run(nxt)
        vectors.append(vec)
        min_dist = np.minimum(min_dist, vec)

    return np.asarray(landmarks, dtype=np.int64), np.vstack(vectors)


@dataclass(frozen=True)
class LandmarkOracle:
    """O(k)-per-query distance bounds from precomputed landmark vectors."""

    landmarks: np.ndarray
    #: shape (k, n): dist_matrix[i, v] = dist(landmarks[i], v)
    dist_matrix: np.ndarray

    def lower_bound(self, u: int, v: int) -> float:
        """ALT lower bound ``max_L |d(L,u) − d(L,v)|`` (0 if uninformative)."""
        du = self.dist_matrix[:, u]
        dv = self.dist_matrix[:, v]
        both = np.isfinite(du) & np.isfinite(dv)
        if not both.any():
            return 0.0
        return float(np.abs(du[both] - dv[both]).max())

    def upper_bound(self, u: int, v: int) -> float:
        """Triangle upper bound ``min_L d(u,L) + d(L,v)`` (inf if none)."""
        total = self.dist_matrix[:, u] + self.dist_matrix[:, v]
        finite = total[np.isfinite(total)]
        return float(finite.min()) if finite.size else float("inf")

    def bounds(self, u: int, v: int) -> tuple[float, float]:
        """``(lower, upper)`` for one query."""
        return self.lower_bound(u, v), self.upper_bound(u, v)


def build_landmark_oracle(
    graph: CSRGraph, k: int = 8, *, method: str = "rdbs", seed: int = 0, **kwargs
) -> LandmarkOracle:
    """Select landmarks and assemble the query oracle."""
    landmarks, matrix = select_landmarks(
        graph, k, method=method, seed=seed, **kwargs
    )
    return LandmarkOracle(landmarks=landmarks, dist_matrix=matrix)

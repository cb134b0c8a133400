"""Work-efficiency accounting: updates, valid updates and checks.

The paper's work-efficiency metric (Fig. 1(b), Fig. 3, Fig. 9) counts three
relaxation outcomes:

* **update** — an atomic-min that lowered ``dist[v]`` ("total updates");
* **valid update** — an update whose written value equals the *final*
  shortest distance of ``v`` ("an update is valid when it brings the final
  shortest distance of the vertex, otherwise the update is invalid");
* **check** — a relaxation whose ``new_dist >= dist[v]`` so nothing is
  written ("a check is only valid if it shortens the tentative shortest
  distance" — i.e. non-writing relaxations are invalid checks).

Validity is only decidable once the final distances are known, so updates
are recorded as ``(vertex, value)`` event batches and classified at the end
against the converged distance array.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["WorkStats", "WorkTally"]


@dataclass(frozen=True)
class WorkTally:
    """Final work-efficiency numbers for one SSSP run."""

    total_updates: int
    valid_updates: int
    invalid_updates: int
    checks: int
    relaxations: int

    @property
    def update_ratio(self) -> float:
        """Total updates / valid updates — the paper's Fig. 9 metric.

        1.0 is perfectly work-efficient; the paper reports 1.06–6.83 for
        RDBS.  Defined as ``inf`` when nothing converged.
        """
        if self.valid_updates == 0:
            return float("inf") if self.total_updates else 1.0
        return self.total_updates / self.valid_updates


class WorkStats:
    """Streaming recorder of relaxation outcomes.

    Kernels call :meth:`record` once per relaxation batch with the update
    mask and the values written; :meth:`finalize` classifies every recorded
    update against the converged distances.
    """

    def __init__(self) -> None:
        self._update_vertices: list[np.ndarray] = []
        self._update_values: list[np.ndarray] = []
        self.checks = 0
        self.relaxations = 0

    def record(
        self,
        vertices: np.ndarray,
        new_values: np.ndarray,
        updated: np.ndarray,
    ) -> None:
        """Record one relaxation batch.

        Parameters
        ----------
        vertices:
            destination vertex per relaxation.
        new_values:
            tentative distance each relaxation proposed.
        updated:
            mask of relaxations whose atomic-min actually wrote.
        """
        n = int(vertices.size)
        self.relaxations += n
        wrote = int(np.count_nonzero(updated))
        self.checks += n - wrote
        if wrote:
            self._update_vertices.append(np.asarray(vertices)[updated])
            self._update_values.append(np.asarray(new_values)[updated])

    @property
    def total_updates(self) -> int:
        """Updates recorded so far."""
        return int(sum(v.size for v in self._update_vertices))

    @property
    def update_batches(self) -> int:
        """Batches with at least one update so far: the span marks
        :meth:`finalize_spans` takes."""
        return len(self._update_vertices)

    def finalize(self, final_dist: np.ndarray) -> WorkTally:
        """Classify all recorded updates against the converged distances."""
        return self.finalize_spans(final_dist, ())[0]

    def finalize_spans(
        self, final_dist: np.ndarray, spans: Sequence[tuple[int, int]]
    ) -> tuple[WorkTally, list[tuple[int, int]]]:
        """:meth:`finalize`, plus ``(updates, valid)`` for every
        ``(start, stop)`` pair of :attr:`update_batches` marks in ``spans``
        (e.g. one bucket's phase 1)."""
        if self._update_vertices:
            verts = np.concatenate(self._update_vertices)
            vals = np.concatenate(self._update_values)
            is_valid = vals == final_dist[verts]
        else:
            is_valid = np.zeros(0, dtype=bool)
        valid = int(np.count_nonzero(is_valid))
        total = int(is_valid.size)
        bounds = np.cumsum([0] + [v.size for v in self._update_vertices])
        span_counts = [
            (
                int(bounds[stop] - bounds[start]),
                int(np.count_nonzero(is_valid[bounds[start]:bounds[stop]])),
            )
            for start, stop in spans
        ]
        tally = WorkTally(
            total_updates=total,
            valid_updates=valid,
            invalid_updates=total - valid,
            checks=self.checks,
            relaxations=self.relaxations,
        )
        return tally, span_counts

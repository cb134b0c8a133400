"""Bucket arithmetic and the dynamic-Δ controller (Eqs. 1–2, §4.3).

Δ-stepping partitions tentative distances into buckets of width Δ.  The
paper's bucket-aware execution makes the width *dynamic*: bucket ``i``'s
width is ``Δ_i = Δ_{i-1} + ε_i`` with

    ε_i = 0                                               for i = 0, 1
    ε_i = |(C_{i-2} − C_{i-1}) / (C_{i-2} + C_{i-1})|
          · (T_{i-2} − T_{i-1}) / (T_{i-2} + T_{i-1}) · Δ_0   for i ≥ 2

where ``C_i`` is the number of vertices that converged in bucket ``i`` and
``T_i`` the number of threads bucket ``i`` used (a GPU-utilization proxy).
When utilization is rising (``T_{i-1} > T_{i-2}``) the signed second factor
is negative and Δ shrinks — narrower buckets keep work efficiency high;
when utilization falls, Δ grows to expose more parallelism.  The controller
below implements the recurrence verbatim and is shared by the RDBS engine
and the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DeltaController", "BucketInterval"]


@dataclass(frozen=True)
class BucketInterval:
    """Half-open distance interval ``[lo, hi)`` covered by one bucket."""

    index: int
    lo: float
    hi: float

    @property
    def width(self) -> float:
        """Bucket width ``Δ_i``."""
        return self.hi - self.lo


@dataclass
class DeltaController:
    """Produces successive bucket intervals under the Eq. 1–2 recurrence.

    Parameters
    ----------
    delta0:
        the initial width ``Δ_0`` (also used for ``Δ_1`` — "the Δ0 and Δ1
        value of the first and second buckets are fixed").
    min_delta / max_delta:
        safety clamps on the adjusted width; Eq. 1's ε is bounded by Δ_0 per
        step, but repeated shrinking could otherwise drive Δ non-positive
        on adversarial feedback.
    """

    delta0: float
    min_delta: float | None = None
    max_delta: float | None = None
    #: history of (C_i, T_i) feedback, one entry per completed bucket
    history: list[tuple[int, int]] = field(default_factory=list)
    #: widths already produced (Δ_0, Δ_1, ...)
    widths: list[float] = field(default_factory=list)
    #: epsilons already produced
    epsilons: list[float] = field(default_factory=list)
    _next_lo: float = 0.0

    def __post_init__(self) -> None:
        if self.delta0 <= 0:
            raise ValueError("delta0 must be positive")
        if self.min_delta is None:
            self.min_delta = self.delta0 * 0.1
        if self.max_delta is None:
            self.max_delta = self.delta0 * 16.0

    # ------------------------------------------------------------------
    def feedback(self, converged: int, threads: int) -> None:
        """Report bucket ``i``'s (C_i, T_i) after processing it."""
        self.history.append((int(converged), int(threads)))

    def epsilon(self, i: int) -> float:
        """Compute ε_i from recorded history (Eq. 1)."""
        if i < 2:
            return 0.0
        if len(self.history) < i:
            raise ValueError(
                f"epsilon({i}) needs feedback for buckets 0..{i - 1}; "
                f"have {len(self.history)}"
            )
        c2, t2 = self.history[i - 2]
        c1, t1 = self.history[i - 1]
        c_sum = c2 + c1
        t_sum = t2 + t1
        if c_sum == 0 or t_sum == 0:
            return 0.0
        c_term = abs(c2 - c1) / c_sum
        t_term = (t2 - t1) / t_sum
        return c_term * t_term * self.delta0

    @property
    def next_lo(self) -> float:
        """Lower bound of the next interval (the last one's ``hi``)."""
        return self._next_lo

    def _next_width(self) -> tuple[float, float]:
        """Bucket ``i``'s (Δ_i, ε_i) under Eq. 2, without producing it."""
        i = len(self.widths)
        if i < 2:
            return self.delta0, 0.0
        eps = self.epsilon(i)
        width = self.widths[-1] + eps
        return min(max(width, self.min_delta), self.max_delta), eps

    def upcoming_hi(self) -> float:
        """Upper bound the next interval will have, without producing it.

        Known once the last bucket's feedback is in: Eq. 2 needs nothing
        else.
        """
        return self._next_lo + self._next_width()[0]

    def next_interval(self) -> BucketInterval:
        """Produce bucket ``i``'s interval, applying Eq. 2 for its width."""
        i = len(self.widths)
        width, eps = self._next_width()
        self.widths.append(width)
        self.epsilons.append(eps)
        lo = self._next_lo
        hi = lo + width
        self._next_lo = hi
        return BucketInterval(index=i, lo=lo, hi=hi)

    def skip_empty(self, bound: float, limit: int | None = None) -> int:
        """Close every coming interval that ends at or below ``bound``.

        Equals calling :meth:`next_interval` and then ``feedback(0, 0)``
        while the next interval's ``hi <= bound``, at most ``limit`` times;
        returns how many intervals it closed.  Once the last two feedbacks
        are zero, ε is 0 and the width stays constant, so the rest of such
        a run is walked in bulk: its bounds are sequential float sums
        (``np.add.accumulate``), equal to the one-by-one walk's.
        """
        limit = np.inf if limit is None else limit
        closed = 0
        while closed < limit:
            i = len(self.widths)
            if i >= 2 and self.history[i - 2:i] == [(0, 0), (0, 0)]:
                closed += self._skip_constant(bound, limit - closed)
                break
            width, _eps = self._next_width()
            if self._next_lo + width > bound:
                break
            self.next_interval()
            self.feedback(0, 0)
            closed += 1
        return closed

    def _skip_constant(self, bound: float, limit: float) -> int:
        """Bulk part of :meth:`skip_empty`: ε is 0 from here on."""
        width, eps = self._next_width()
        closed = 0
        while closed < limit:
            lo = self._next_lo
            # about as many steps as fit below ``bound``, plus slack for
            # the rounding of the sequential sums
            est = (bound - lo) / width + 2
            steps = int(min(est, limit - closed, 1 << 20)) if est > 0 else 0
            if steps <= 0:
                break
            sums = np.add.accumulate(np.concatenate(([lo], np.full(steps, width))))
            fit = int(np.searchsorted(sums[1:], bound, side="right"))
            if fit:
                self.widths.extend([width] * fit)
                self.epsilons.extend([eps] * fit)
                self.history.extend([(0, 0)] * fit)
                self._next_lo = float(sums[fit])
                closed += fit
            if fit < steps:
                break
        return closed


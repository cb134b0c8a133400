"""Unified L1/tex cache model (reuse-distance / footprint approximation).

Simulating an exact per-access LRU in Python would serialize millions of
events, so the simulator uses the classic *footprint* approximation, which
is deterministic, vectorized and accurate enough to rank locality effects:

1. the per-launch transaction stream is reduced to 32 B *sector* ids in
   issue order (Volta-class L1/tex caches are sectored: a miss fills only
   the touched sector, so reuse is tracked per sector, not per line);
2. each access's *reuse gap* ``T`` (number of transactions since the previous
   access to the same sector) is computed with one stable sort;
3. the expected number of *distinct* sectors inside a gap of length ``T``
   over a working set of ``U`` sectors is ``d(T) = U * (1 - (1 - 1/U)**T)``
   (the standard uniform-footprint estimate);
4. the access hits iff ``d(T) <= capacity_sectors``; first-touch accesses
   are cold misses.

Because the L1s of all SMs consume interleaved thinnings of the same stream,
per-SM capacity with a 1/num_sms-thinned stream is equivalent to aggregate
capacity on the full stream, so ``capacity_sectors`` is the device-wide L1
sector count.  The model makes PRO's effect *measurable*: degree reordering
concentrates the hot distance entries into few sectors and shortens reuse
gaps, which raises the modeled hit rate exactly as nvprof shows in the
paper's Fig. 10(d).
"""

from __future__ import annotations

import numpy as np

from .spec import GPUSpec
from ..util.scan import stable_sort_with_order

__all__ = ["CacheModel", "CacheStream", "reuse_gaps"]


def reuse_gaps(lines: np.ndarray) -> np.ndarray:
    """Gap (in transactions) since the previous access to the same line.

    Returns -1 for first-touch accesses.  One stable argsort, no Python
    loops.
    """
    n = lines.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    sorted_pos = order.astype(np.int64)
    gaps_sorted = np.full(n, -1, dtype=np.int64)
    same_as_prev = np.zeros(n, dtype=bool)
    same_as_prev[1:] = sorted_lines[1:] == sorted_lines[:-1]
    gaps_sorted[same_as_prev] = (
        sorted_pos[same_as_prev] - sorted_pos[np.flatnonzero(same_as_prev) - 1]
    )
    gaps = np.empty(n, dtype=np.int64)
    gaps[order] = gaps_sorted
    return gaps


class CacheModel:
    """Footprint-approximation L1/tex cache for one simulated device.

    State is reset per kernel launch (CUDA L1s are not persistent across
    kernel boundaries), which matches nvprof's per-kernel hit-rate
    accounting.
    """

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        self.capacity_sectors = max(1, spec.total_l1_bytes // spec.sector_bytes)

    def hits(self, lines: np.ndarray) -> np.ndarray:
        """Boolean hit mask for a transaction stream of sector ids."""
        n = lines.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        gaps = reuse_gaps(lines)
        touched = np.unique(lines).size
        mask = gaps >= 0
        out = np.zeros(n, dtype=bool)
        if not mask.any():
            return out
        # expected distinct lines within each gap, uniform-footprint model
        u = float(touched)
        t = gaps[mask].astype(np.float64)
        if u <= 1.0:
            distinct = np.ones_like(t)
        else:
            # u * (1 - (1 - 1/u)**t), computed in log space for stability
            distinct = u * -np.expm1(t * np.log1p(-1.0 / u))
        out[mask] = distinct <= self.capacity_sectors
        return out

    def hit_count(self, lines: np.ndarray) -> int:
        """Number of hits in the given transaction stream."""
        return int(self.hits(lines).sum())


class CacheStream:
    """Incremental launch-at-a-time evaluation of the rolling device stream.

    The device models L2 persistence across launches by prepending the tail
    (last ``capacity_sectors`` transactions) of the preceding launches to
    each launch's load stream before resolving hits.  Evaluating that
    naively costs a full sort + unique over ``tail + lines`` per launch,
    which makes *short* kernels pay O(capacity) host time regardless of how
    little they load — the dominant host cost of bucket-at-a-time engines
    that issue thousands of small launches.

    Two structures replace the tail array, so a launch costs O(its own
    lines) host time:

    * a dense table of every sector's *last absolute position* in the
      stream (-1 if never loaded), indexed by sector id minus the lowest
      sector seen — device allocations are one bump-allocated range, so
      the table spans the loaded address range;
    * a ring of the sector ids at the last ``capacity`` positions, plus
      the number of distinct sectors among them, kept incrementally: a
      position leaving the window takes its sector out iff that was the
      sector's last occurrence.

    Per launch it sorts only the launch's own lines and reproduces
    ``CacheModel.hits(tail + lines)[len(tail):]`` **bit for bit**:

    * a gap within the launch equals the :func:`reuse_gaps` value;
    * a first-touch whose sector last occurred at absolute position ``p``
      with ``p >= tail_start`` gets gap ``pos - p`` (identical to its
      position difference inside the concatenated stream);
    * the working-set size ``U`` equals the distinct-sector count of the
      concatenated stream: sectors alive in the tail plus launch sectors
      not already among them;
    * the hit predicate then applies the very same footprint formula on
      the very same integers, so the floats match exactly.

    Equivalence is locked in by ``tests/test_perf_device_fastpaths.py``,
    which replays random streams through both implementations.
    """

    def __init__(self, model: CacheModel) -> None:
        self.model = model
        self.capacity = model.capacity_sectors
        #: sector id of ``_last[0]``
        self._base = 0
        #: absolute stream position of each sector's most recent access
        self._last = np.zeros(0, dtype=np.int64)
        #: sector id at absolute position ``p`` of the window, at ``p % capacity``
        self._ring = np.zeros(self.capacity, dtype=np.int64)
        #: distinct sectors among the last ``capacity`` positions
        self._distinct = 0
        #: total transactions observed so far (absolute stream length)
        self._total = 0

    def _cover(self, lo: int, hi: int) -> None:
        """Grow the position table to cover sectors ``lo..hi``."""
        size = self._last.size
        if size == 0:
            self._base = lo
            self._last = np.full(hi - lo + 1, -1, dtype=np.int64)
            return
        if lo < self._base:
            pad = np.full(self._base - lo, -1, dtype=np.int64)
            self._last = np.concatenate([pad, self._last])
            self._base = lo
            size = self._last.size
        need = hi - self._base + 1
        if need > size:
            # grown to fit exactly: a device's loads first reach each of
            # its few arrays once, so the table grows only a few times
            grown = np.full(need, -1, dtype=np.int64)
            grown[:size] = self._last
            self._last = grown

    def hit_count(self, lines: np.ndarray) -> int:
        """Resolve one launch's load stream; returns its hit count."""
        n = int(lines.size)
        if n == 0:
            return 0
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        cap = self.capacity
        start = self._total
        tail_start = start - min(cap, start)

        # one stable sort of *this launch only*: within-launch gaps plus the
        # first/last occurrence of every distinct sector.  The dominant
        # streams (full contiguous-array scans) arrive already sorted —
        # slot-major coalescing emits ascending sectors — so detect that
        # with one comparison pass and skip the sort and both reorders;
        # duplicates are then adjacent, making every within-launch gap 1.
        if n > 1 and bool((lines[1:] >= lines[:-1]).all()):
            same1 = lines[1:] == lines[:-1]
            same = np.zeros(n, dtype=bool)
            same[1:] = same1
            gaps = np.full(n, -1, dtype=np.int64)
            gaps[1:][same1] = 1
            group_starts = np.flatnonzero(~same)
            uniq = lines[group_starts]
            first_pos = group_starts
            last_pos = np.concatenate([group_starts[1:], [n]]) - 1
        else:
            sorted_lines, sorted_pos = stable_sort_with_order(lines)
            order = sorted_pos
            same = np.zeros(n, dtype=bool)
            same1 = sorted_lines[1:] == sorted_lines[:-1]
            same[1:] = same1
            gaps_sorted = np.full(n, -1, dtype=np.int64)
            gaps_sorted[1:][same1] = (
                sorted_pos[1:][same1] - sorted_pos[:-1][same1]
            )
            gaps = np.empty(n, dtype=np.int64)
            gaps[order] = gaps_sorted
            group_starts = np.flatnonzero(~same)
            uniq = sorted_lines[group_starts]
            first_pos = sorted_pos[group_starts]
            group_ends = np.concatenate([group_starts[1:], [n]]) - 1
            last_pos = sorted_pos[group_ends]

        # cross-launch reuse: look the launch's sectors up in the table
        self._cover(int(uniq[0]), int(uniq[-1]))
        idx = uniq - self._base
        prev = self._last[idx]
        warm = prev >= tail_start
        num_warm = int(np.count_nonzero(warm))

        # U of the virtual (tail + lines) stream; counted before the update
        u_total = self._distinct + int(uniq.size) - num_warm

        # splice the cross-launch gaps into the first-touch positions
        warm_pos = first_pos[warm]
        gaps[warm_pos] = (start + warm_pos) - prev[warm]

        # the footprint predicate.  ``d(t) = u * (1 - (1 - 1/u)**t)`` is
        # strictly increasing in ``t``, so instead of evaluating the
        # transcendentals per line, binary-search the largest integer gap
        # still within capacity — each probe evaluates the *same* ufunc
        # expression CacheModel.hits runs elementwise (numpy's float64
        # expm1/log1p have a single scalar inner loop, so a 1-element probe
        # is bit-identical to the corresponding element of a bulk call) —
        # and count gaps by integer comparison
        hits = 0
        max_gap = int(gaps.max())
        if max_gap >= 0:
            u = float(u_total)
            if u_total <= cap:
                # d(t) = u * -expm1(t * log1p(-1/u)) never exceeds u in IEEE
                # (expm1 saturates at -1), so a working set within capacity
                # makes every reuse a hit — no transcendentals needed
                hits = int(np.count_nonzero(gaps >= 0))
            else:
                log_base = np.log1p(-1.0 / u)
                def within(t: int) -> bool:
                    d = u * -np.expm1(
                        np.array([float(t)]) * log_base
                    )
                    return bool(d[0] <= cap)
                if within(max_gap):
                    hits = int(np.count_nonzero(gaps >= 0))
                elif not within(1):
                    hits = 0
                else:
                    lo, hi = 1, max_gap  # within(lo), not within(hi)
                    while hi - lo > 1:
                        mid = (lo + hi) // 2
                        if within(mid):
                            lo = mid
                        else:
                            hi = mid
                    hits = int(np.count_nonzero((gaps >= 0) & (gaps <= lo)))

        # fold the launch into the table, then slide the window over it
        self._last[idx] = start + last_pos
        end = start + n
        window_lo = end - min(cap, end)
        if n >= cap:
            # the window lies inside this launch
            self._distinct = int(np.count_nonzero(last_pos >= n - cap))
            self._ring[np.arange(window_lo, end) % cap] = lines[n - cap:]
        else:
            # a leaving position takes its sector out of the window iff it
            # was the sector's last occurrence
            leaving = 0
            if window_lo > tail_start:
                gone = np.arange(tail_start, window_lo)
                sectors = self._ring[gone % cap]
                leaving = int(np.count_nonzero(
                    self._last[sectors - self._base] == gone))
            self._distinct += int(uniq.size) - num_warm - leaving
            self._ring[np.arange(start, end) % cap] = lines
        self._total = end
        return hits

"""Vectorized segmented-array primitives shared across the library.

These are the NumPy equivalents of the warp-scan building blocks GPU code
uses: segmented iota, segmented prefix-min, and serialized atomic-min
semantics over duplicate indices.  They appear in the CSR builders, the
reordering passes, the GPU simulator and the CPU algorithms, so they live
in one place.

Each public primitive times itself under a ``primitive:{sort,scan,
multisplit}`` host-profile region (free when no profiler is active), so
``repro profile`` can break host time down by primitive family.  Regions
are additive and nest: ``primitive:multisplit`` includes the stable sort
it performs internally, which also accrues to ``primitive:sort``.
"""

from __future__ import annotations

import numpy as np

from ..perf.profile import region

__all__ = [
    "distinct_count",
    "grouped_counts",
    "multisplit_order",
    "segmented_arange",
    "segmented_exclusive_cummin",
    "serialized_min_outcome",
    "sorted_unique_ints",
    "stable_sort_with_order",
]


def stable_sort_with_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_keys, order)`` with a stable order, for non-negative ints.

    Exactly ``(keys[order], order)`` for ``order = argsort(keys,
    kind='stable')``.  NumPy's stable argsort on int64 is timsort, which is
    several times slower than its plain sort at the few-thousand-element
    sizes the simulator hits per launch — so when the keys are small enough
    to leave room, the element *position* is packed into the low digits of
    a composite key (``key * n + pos``), sorted in place, and unpacked with
    one divmod.  Composite keys are distinct, so an unstable sort yields
    exactly the stable order.  Falls back to ``argsort`` for tiny arrays
    (where the extra passes cost more than timsort) and for keys too large
    to pack.
    """
    with region("primitive:sort"):
        n = keys.size
        if (
            n > 512
            and int(keys.max(initial=0)) < (1 << 62) // n
            and int(keys.min(initial=0)) >= 0
        ):
            packed = keys * np.int64(n) + np.arange(n, dtype=np.int64)
            packed.sort()
            sorted_keys, order = np.divmod(packed, np.int64(n))
            return sorted_keys, order
        order = np.argsort(keys, kind="stable")
        return keys[order], order.astype(np.int64, copy=False)


def multisplit_order(
    keys: np.ndarray, num_buckets: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, offsets)`` of a stable multisplit into ``num_buckets``.

    The host reference for the device's warp-ballot multisplit primitive
    (:meth:`repro.gpusim.device.KernelContext.multisplit`): ``order`` is a
    permutation grouping elements by bucket key with the *original
    relative order preserved inside each bucket* (exactly
    ``argsort(keys, kind='stable')``), and ``offsets`` is the exclusive
    bucket-start prefix of length ``num_buckets + 1``, so bucket ``b``
    occupies ``order[offsets[b]:offsets[b + 1]]``.

    Keys must lie in ``[0, num_buckets)``; the bucket count is the small
    split fan-out (2–32), not a general sort domain.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    with region("primitive:multisplit"):
        keys = np.asarray(keys, dtype=np.int64)
        counts = np.bincount(keys, minlength=num_buckets)
        if counts.size > num_buckets:
            raise ValueError(
                f"multisplit keys must lie in [0, {num_buckets}); "
                f"got max {int(keys.max())}"
            )
        offsets = np.zeros(num_buckets + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64), offsets
        _, order = stable_sort_with_order(keys)
        return order, offsets


def _bincount_range(values: np.ndarray) -> tuple[int, int] | None:
    """``(lo, hi)`` when a shifted bincount is the cheap way to dedup.

    A counting pass is O(n + range); it beats sorting whenever the value
    range is comparable to the array length, which holds for vertex ids,
    slot ids and device addresses in the hot simulator paths.  Returns
    None when the range is too wide (callers then sort: a plain
    ``np.sort`` plus a neighbour compare, several times faster than
    ``np.unique``'s hash path on the batch sizes the simulator sees).
    """
    lo = int(values.min())
    hi = int(values.max())
    if hi - lo <= 4 * values.size + 1024:
        return lo, hi
    return None


def distinct_count(values: np.ndarray) -> int:
    """Number of distinct values of a non-negative integer array.

    Exactly ``np.unique(values).size``, computed with a counting pass when
    the value range allows (see :func:`_bincount_range`).
    """
    if values.size == 0:
        return 0
    with region("primitive:scan"):
        rng = _bincount_range(values)
        if rng is None:
            s = np.sort(values)
            return 1 + int(np.count_nonzero(s[1:] != s[:-1]))
        lo, hi = rng
        return int(
            np.count_nonzero(np.bincount(values - lo, minlength=hi - lo + 1))
        )


def grouped_counts(
    keys: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(items, selected)`` per distinct key of a non-negative int array.

    For each distinct value of ``keys`` in ascending order: how many
    elements carry it, and how many of those have ``mask`` set — the
    per-slot lane tallies a SIMT branch is priced from.  A counting pass
    when the key range allows (see :func:`_bincount_range`), otherwise a
    stable sort (skipped when the keys are already in order).
    """
    if keys.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    with region("primitive:scan"):
        rng = _bincount_range(keys)
        if rng is not None:
            lo, hi = rng
            shifted = keys - lo
            items = np.bincount(shifted, minlength=hi - lo + 1)
            selected = np.bincount(shifted[mask], minlength=hi - lo + 1)
            present = items > 0
            return items[present], selected[present]
        if not bool((keys[1:] >= keys[:-1]).all()):
            keys, order = stable_sort_with_order(keys)
            mask = mask[order]
        starts = np.ones(keys.size, dtype=bool)
        starts[1:] = keys[1:] != keys[:-1]
        gstarts = np.flatnonzero(starts)
        items = np.diff(np.append(gstarts, keys.size))
        selected = np.add.reduceat(mask.astype(np.int64), gstarts)
        return items, selected


def sorted_unique_ints(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a non-negative integer array.

    Element-identical to ``np.unique(values)`` (as int64), computed with a
    counting pass when the value range allows.
    """
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    with region("primitive:scan"):
        rng = _bincount_range(values)
        if rng is None:
            s = np.sort(values).astype(np.int64, copy=False)
            keep = np.ones(s.size, dtype=bool)
            keep[1:] = s[1:] != s[:-1]
            return s[keep]
        lo, hi = rng
        out = np.flatnonzero(np.bincount(values - lo, minlength=hi - lo + 1))
        if lo:
            out += lo
        return out.astype(np.int64, copy=False)


def segmented_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` with no Python loop."""
    with region("primitive:scan"):
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        ends = np.cumsum(counts)
        out = np.arange(total, dtype=np.int64)
        out -= np.repeat(ends - counts, counts)
        return out


def segmented_exclusive_cummin(
    values: np.ndarray, seg_start: np.ndarray
) -> np.ndarray:
    """Exclusive prefix-min within segments (Hillis–Steele doubling scan).

    ``seg_start[i]`` is True at the first element of each segment.  The
    first element of every segment receives ``+inf``.  Runs in
    ``O(n log(max segment length))`` vectorized steps.
    """
    n = values.size
    if n == 0:
        return values.astype(np.float64, copy=True)
    with region("primitive:scan"):
        idx = np.arange(n, dtype=np.int64)
        seg_first = np.maximum.accumulate(np.where(seg_start, idx, 0))
        pos_in_seg = idx - seg_first
        inclusive = values.astype(np.float64, copy=True)
        inner = np.flatnonzero(pos_in_seg)
        # each pass reads the previous pass's values (both gathers happen
        # before the store) and narrows to the positions the next reaches
        can = inner
        d = 1
        while can.size:
            inclusive[can] = np.minimum(inclusive[can], inclusive[can - d])
            d <<= 1
            can = can[pos_in_seg[can] >= d]
        exclusive = np.full(n, np.inf)
        exclusive[inner] = inclusive[inner - 1]
        return exclusive


def serialized_min_outcome(
    current: np.ndarray, idx: np.ndarray, values: np.ndarray,
    distinct: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome of atomically min-ing ``values`` into ``current[idx]``.

    Models a batch of ``atomicMin`` operations retiring in program order:
    for each operation, the *old* value it observes is the minimum of the
    cell's initial value and all earlier operations' values to the same
    cell.  Returns ``(old, updated)`` aligned with the inputs, and applies
    the final per-cell minima to ``current`` in place.

    ``distinct`` is an optional caller-supplied count of distinct
    addresses in ``idx`` (the device already computes it for conflict
    accounting).  When every address is distinct, serialization order is
    immaterial — each op observes the cell's initial value — so the sort
    and segmented scan are skipped entirely.  When every op hits one
    address (a fold into a single cell), program order is already the
    cell's order, so the scan is one running minimum.
    """
    n = idx.size
    if n == 0:
        return values.astype(np.float64, copy=True), np.zeros(0, dtype=bool)
    if distinct == n:
        initial = current[idx]
        svals = np.asarray(values, dtype=np.float64)
        updated = svals < initial
        current[idx] = np.minimum(initial, svals)
        return initial, updated
    if distinct == 1:
        cell = int(idx[0])
        svals = np.asarray(values, dtype=np.float64)
        old = np.empty(n, dtype=np.float64)
        old[0] = current[cell]
        np.minimum.accumulate(svals[:-1], out=old[1:])
        np.minimum(old[0], old[1:], out=old[1:])
        current[cell] = np.minimum(old[0], svals.min())
        return old, svals < old
    sidx, order = stable_sort_with_order(idx)
    svals = np.asarray(values, dtype=np.float64)[order]
    start = np.ones(n, dtype=bool)
    start[1:] = sidx[1:] != sidx[:-1]
    initial = current[sidx]
    prior = segmented_exclusive_cummin(svals, start)
    old_sorted = np.minimum(initial, prior)
    updated_sorted = svals < old_sorted

    gstarts = np.flatnonzero(start)
    gmins = np.minimum.reduceat(svals, gstarts)
    targets = sidx[gstarts]
    current[targets] = np.minimum(current[targets], gmins)

    old = np.empty(n, dtype=np.float64)
    old[order] = old_sorted
    updated = np.empty(n, dtype=bool)
    updated[order] = updated_sorted
    return old, updated

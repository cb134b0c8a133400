"""Property-based tests for the shared segmented-scan primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import (
    segmented_arange,
    segmented_exclusive_cummin,
    serialized_min_outcome,
)
from repro.util.scan import (
    _bincount_range,
    distinct_count,
    multisplit_order,
    sorted_unique_ints,
    stable_sort_with_order,
)


class TestStableSortWithOrder:
    """The composite-key fast path must equal NumPy's stable argsort."""

    def test_empty(self):
        keys, order = stable_sort_with_order(np.zeros(0, dtype=np.int64))
        assert keys.size == 0 and order.size == 0

    def test_single_key(self):
        keys, order = stable_sort_with_order(np.array([7], dtype=np.int64))
        assert list(keys) == [7] and list(order) == [0]

    def test_negative_keys_fall_back_correctly(self):
        keys = np.array([3, -1, 2, -5, 0], dtype=np.int64)
        skeys, order = stable_sort_with_order(keys)
        ref = np.argsort(keys, kind="stable")
        assert np.array_equal(order, ref)
        assert np.array_equal(skeys, keys[ref])

    def test_all_equal_keys_preserve_position_order(self):
        """Stability on ties: the order must be the identity."""
        for n in (4, 1000):  # fallback path and packed path
            keys = np.full(n, 5, dtype=np.int64)
            skeys, order = stable_sort_with_order(keys)
            assert np.array_equal(order, np.arange(n))
            assert (skeys == 5).all()

    @given(
        st.lists(st.integers(0, 10), max_size=50),
        st.integers(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_stable_argsort(self, vals, scale):
        # scale=1 repeats the keys past the n>512 packed-sort threshold
        keys = np.array(vals * (1 if not scale else 200), dtype=np.int64)
        ref = np.argsort(keys, kind="stable")
        skeys, order = stable_sort_with_order(keys)
        assert np.array_equal(order, ref)
        assert np.array_equal(skeys, keys[ref])

    def test_huge_keys_overflow_guard(self):
        """Keys too large to pack take the argsort fallback, correctly."""
        big = 1 << 61
        keys = np.array([big, 0, big - 1] * 300, dtype=np.int64)
        skeys, order = stable_sort_with_order(keys)
        ref = np.argsort(keys, kind="stable")
        assert np.array_equal(order, ref)


class TestDedupPrimitives:
    """distinct_count / sorted_unique_ints against the np.unique oracle."""

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert distinct_count(empty) == 0
        assert sorted_unique_ints(empty).size == 0

    def test_single_value(self):
        one = np.array([42], dtype=np.int64)
        assert distinct_count(one) == 1
        assert list(sorted_unique_ints(one)) == [42]

    def test_all_equal(self):
        same = np.full(64, 9, dtype=np.int64)
        assert distinct_count(same) == 1
        assert list(sorted_unique_ints(same)) == [9]

    def test_wide_range_takes_unique_fallback(self):
        vals = np.array([0, 10**12, 5, 10**12], dtype=np.int64)
        assert _bincount_range(vals) is None
        assert distinct_count(vals) == 3
        assert np.array_equal(sorted_unique_ints(vals), np.unique(vals))

    def test_shifted_range(self):
        """lo > 0: the counting pass shifts, results stay absolute."""
        vals = np.array([1000, 1002, 1000, 1005], dtype=np.int64)
        assert _bincount_range(vals) == (1000, 1005)
        assert distinct_count(vals) == 3
        assert list(sorted_unique_ints(vals)) == [1000, 1002, 1005]

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_matches_np_unique(self, vals):
        arr = np.array(vals, dtype=np.int64)
        oracle = np.unique(arr)
        assert distinct_count(arr) == oracle.size
        got = sorted_unique_ints(arr)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle)


class TestMultisplitOrder:
    """The host reference for the device warp-ballot multisplit."""

    def test_empty(self):
        order, offsets = multisplit_order(np.zeros(0, dtype=np.int64), 3)
        assert order.size == 0
        assert list(offsets) == [0, 0, 0, 0]

    def test_single_key(self):
        order, offsets = multisplit_order(np.array([1]), 2)
        assert list(order) == [0]
        assert list(offsets) == [0, 0, 1]

    def test_all_equal_keys_single_bucket(self):
        order, offsets = multisplit_order(np.zeros(5, dtype=np.int64), 1)
        assert np.array_equal(order, np.arange(5))
        assert list(offsets) == [0, 5]

    def test_num_buckets_below_one_rejected(self):
        with pytest.raises(ValueError, match="num_buckets"):
            multisplit_order(np.array([0]), 0)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            multisplit_order(np.array([0, -1]), 2)

    def test_out_of_range_key_rejected(self):
        with pytest.raises(ValueError, match="must lie in"):
            multisplit_order(np.array([0, 1, 2]), 2)

    @given(
        st.integers(1, 6).flatmap(
            lambda b: st.tuples(
                st.just(b), st.lists(st.integers(0, b - 1), max_size=60)
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_stable_argsort_and_bincount(self, case):
        num_buckets, keys = case
        keys = np.array(keys, dtype=np.int64)
        order, offsets = multisplit_order(keys, num_buckets)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        counts = np.bincount(keys, minlength=num_buckets)
        assert np.array_equal(np.diff(offsets), counts)
        assert offsets[0] == 0 and offsets[-1] == keys.size
        # each bucket's slice carries exactly its keys, in original order
        for b in range(num_buckets):
            members = order[offsets[b]:offsets[b + 1]]
            assert (keys[members] == b).all()
            assert np.array_equal(members, np.sort(members))


class TestSegmentedArange:
    def test_empty(self):
        assert segmented_arange(np.array([], dtype=np.int64)).size == 0

    def test_zeros(self):
        assert segmented_arange(np.array([0, 0, 0])).size == 0

    @given(st.lists(st.integers(0, 20), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, counts):
        counts = np.array(counts, dtype=np.int64)
        expected = np.concatenate(
            [np.arange(c) for c in counts] or [np.zeros(0, dtype=np.int64)]
        )
        assert np.array_equal(segmented_arange(counts), expected)


def _reference_excl_cummin(values, seg_start):
    out = np.empty(len(values))
    running = np.inf
    for i, (v, s) in enumerate(zip(values, seg_start)):
        if s:
            running = np.inf
        out[i] = running
        running = min(running, v)
    return out


class TestSegmentedExclusiveCummin:
    def test_empty(self):
        out = segmented_exclusive_cummin(np.array([]), np.array([], dtype=bool))
        assert out.size == 0

    def test_single_segment(self):
        vals = np.array([3.0, 1.0, 2.0, 0.5])
        start = np.array([True, False, False, False])
        out = segmented_exclusive_cummin(vals, start)
        assert out[0] == np.inf
        assert list(out[1:]) == [3.0, 1.0, 1.0]

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.booleans()),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_reference(self, items):
        vals = np.array([v for v, _ in items])
        start = np.array([s for _, s in items])
        start[0] = True  # first element always begins a segment
        got = segmented_exclusive_cummin(vals, start)
        ref = _reference_excl_cummin(vals, start)
        assert np.array_equal(got, ref)


def _reference_atomic_min(current, idx, vals):
    """Sequential atomicMin semantics in program order."""
    cur = current.copy()
    old = np.empty(len(idx))
    updated = np.zeros(len(idx), dtype=bool)
    for i, (a, v) in enumerate(zip(idx, vals)):
        old[i] = cur[a]
        if v < cur[a]:
            cur[a] = v
            updated[i] = True
    return cur, old, updated


class TestSerializedMinOutcome:
    def test_empty(self):
        cur = np.array([1.0, 2.0])
        old, upd = serialized_min_outcome(cur, np.array([], dtype=np.int64), np.array([]))
        assert old.size == 0 and upd.size == 0

    def test_empty_leaves_current_untouched(self):
        cur = np.array([1.0, 2.0])
        serialized_min_outcome(cur, np.array([], dtype=np.int64), np.array([]))
        assert list(cur) == [1.0, 2.0]

    def test_all_same_address_descending(self):
        """Every op hits one cell; each strictly-lower value wins in order."""
        cur = np.array([np.inf])
        idx = np.zeros(5, dtype=np.int64)
        vals = np.array([9.0, 7.0, 5.0, 3.0, 1.0])
        old, upd = serialized_min_outcome(cur, idx, vals)
        assert list(old) == [np.inf, 9.0, 7.0, 5.0, 3.0]
        assert upd.all()
        assert cur[0] == 1.0

    def test_all_same_address_ascending_only_first_wins(self):
        cur = np.array([np.inf])
        idx = np.zeros(4, dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        old, upd = serialized_min_outcome(cur, idx, vals)
        assert list(upd) == [True, False, False, False]
        assert list(old) == [np.inf, 1.0, 1.0, 1.0]
        assert cur[0] == 1.0

    def test_all_same_address_equal_values_never_update(self):
        """atomicMin with v == current is a no-op: no spurious 'updated'."""
        cur = np.array([5.0])
        idx = np.zeros(3, dtype=np.int64)
        vals = np.array([5.0, 5.0, 5.0])
        old, upd = serialized_min_outcome(cur, idx, vals)
        assert not upd.any()
        assert list(old) == [5.0, 5.0, 5.0]
        assert cur[0] == 5.0

    def test_duplicates_serialize_in_program_order(self):
        cur = np.array([10.0])
        idx = np.array([0, 0, 0])
        vals = np.array([5.0, 7.0, 3.0])
        old, upd = serialized_min_outcome(cur, idx, vals)
        assert list(old) == [10.0, 5.0, 5.0]
        assert list(upd) == [True, False, True]
        assert cur[0] == 3.0

    @given(
        n_cells=st.integers(1, 8),
        ops=st.lists(
            st.tuples(st.integers(0, 7), st.floats(0, 50)), max_size=60
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_sequential_reference(self, n_cells, ops):
        rng = np.random.default_rng(0)
        cur1 = rng.uniform(10, 40, n_cells)
        cur2 = cur1.copy()
        idx = np.array([a % n_cells for a, _ in ops], dtype=np.int64)
        vals = np.array([v for _, v in ops])
        cur3 = cur1.copy()
        ref_cur, ref_old, ref_upd = _reference_atomic_min(cur1, idx, vals)
        old, upd = serialized_min_outcome(cur2, idx, vals)
        assert np.allclose(cur2, ref_cur)
        assert np.allclose(old, ref_old)
        assert np.array_equal(upd, ref_upd)
        # the device passes its distinct-address count, which selects the
        # all-distinct fast path
        distinct = distinct_count(idx) if idx.size else 0
        old3, upd3 = serialized_min_outcome(cur3, idx, vals, distinct=distinct)
        assert np.array_equal(cur3, cur2)
        assert np.array_equal(old3, old)
        assert np.array_equal(upd3, upd)

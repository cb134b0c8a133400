"""Tests for bucket arithmetic and the Eq. 1–2 dynamic-Δ controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sssp import BucketInterval, DeltaController


class TestDeltaController:
    def test_first_two_buckets_fixed(self):
        """'The Δ0 and Δ1 value of the first and second buckets are fixed.'"""
        c = DeltaController(10.0)
        i0 = c.next_interval()
        c.feedback(100, 50)
        i1 = c.next_interval()
        assert (i0.lo, i0.hi) == (0.0, 10.0)
        assert (i1.lo, i1.hi) == (10.0, 20.0)
        assert c.epsilons == [0.0, 0.0]

    def test_epsilon_formula_hand_computed(self):
        """Eq. 1 with C = (100, 300), T = (50, 150):
        eps_2 = |100-300|/400 * (50-150)/200 * 10 = 0.5 * (-0.5) * 10 = -2.5
        """
        c = DeltaController(10.0)
        c.next_interval()
        c.feedback(100, 50)
        c.next_interval()
        c.feedback(300, 150)
        i2 = c.next_interval()
        assert c.epsilons[2] == pytest.approx(-2.5)
        assert i2.width == pytest.approx(7.5)
        assert i2.lo == pytest.approx(20.0)

    def test_delta_grows_when_utilization_falls(self):
        """T falling (T_{i-2} > T_{i-1}) makes the second factor positive."""
        c = DeltaController(10.0)
        c.next_interval()
        c.feedback(300, 200)
        c.next_interval()
        c.feedback(100, 50)
        i2 = c.next_interval()
        assert c.epsilons[2] > 0
        assert i2.width > 10.0

    def test_zero_feedback_keeps_width(self):
        c = DeltaController(10.0)
        c.next_interval()
        c.feedback(0, 0)
        c.next_interval()
        c.feedback(0, 0)
        i2 = c.next_interval()
        assert i2.width == 10.0

    def test_width_clamped(self):
        c = DeltaController(10.0, min_delta=8.0, max_delta=12.0)
        c.next_interval()
        c.feedback(1000, 1)
        c.next_interval()
        c.feedback(1, 1000)  # big negative epsilon
        i2 = c.next_interval()
        assert i2.width >= 8.0

    def test_epsilon_requires_history(self):
        c = DeltaController(10.0)
        with pytest.raises(ValueError):
            c.epsilon(2)

    def test_invalid_delta0(self):
        with pytest.raises(ValueError):
            DeltaController(0.0)

    def test_intervals_are_contiguous(self):
        c = DeltaController(5.0)
        prev_hi = 0.0
        for i in range(6):
            iv = c.next_interval()
            assert iv.lo == pytest.approx(prev_hi)
            assert iv.index == i
            prev_hi = iv.hi
            c.feedback(10 * (i + 1), 5 * (i + 2))

    def test_interval_width_property(self):
        assert BucketInterval(0, 2.0, 5.5).width == pytest.approx(3.5)


def _walk_one_by_one(c: DeltaController, bound: float) -> BucketInterval:
    """The reference walk: produce intervals one at a time, closing each
    one that ends at or below ``bound`` with zero feedback; returns the
    first that does not."""
    while True:
        iv = c.next_interval()
        if iv.hi > bound:
            return iv
        c.feedback(0, 0)


def _state(c: DeltaController):
    return c.widths, c.epsilons, c.history, c.next_lo


#: a nonempty bucket: how far past the walk's start its first vertex
#: sits (in units of Δ_0), and its (C, T) feedback — zeros included
_BUCKET = st.tuples(
    st.floats(0.0, 60.0),
    st.integers(0, 50) | st.just(0),
    st.integers(0, 5000) | st.just(0),
)


class TestBulkEmptyWalk:
    @settings(max_examples=150, deadline=None)
    @given(
        delta0=st.floats(1e-3, 10.0),
        clamps=st.sampled_from(
            [(None, None), (0.5, 1.5), (2.0, 4.0), (0.05, 0.2), (1.0, 1.0)]),
        buckets=st.lists(_BUCKET, min_size=1, max_size=12),
        limit=st.none() | st.integers(1, 5),
    )
    def test_bulk_walk_equals_one_by_one(self, delta0, clamps, buckets,
                                         limit):
        """``skip_empty`` (in bulk, or in pieces of at most ``limit``)
        leaves the controller exactly where the one-by-one walk does:
        same widths, epsilons, history and interval bounds.  Some clamp
        pairs exclude Δ_0 itself, so the first adjusted width clamps."""
        lo, hi = clamps
        kw = {} if lo is None else {"min_delta": lo * delta0,
                                    "max_delta": hi * delta0}
        ref, bulk = DeltaController(delta0, **kw), DeltaController(delta0, **kw)
        for offset, conv, threads in buckets:
            bound = ref.next_lo + offset * delta0
            start = len(ref.widths)
            want = _walk_one_by_one(ref, bound)
            closed = 0
            while True:
                step = bulk.skip_empty(bound, limit)
                assert limit is None or step <= limit
                closed += step
                if not step:
                    break
            got = bulk.next_interval()
            assert closed == want.index - start
            assert (got.index, got.lo, got.hi) == (want.index, want.lo,
                                                   want.hi)
            ref.feedback(conv, threads)
            bulk.feedback(conv, threads)
            assert _state(bulk) == _state(ref)

    def test_long_run_bounds_are_sequential_sums(self):
        """About sixteen thousand empty intervals at a width that is not
        a binary fraction: the bulk bounds carry the one-by-one walk's
        rounding exactly."""
        ref, bulk = DeltaController(1e-3), DeltaController(1e-3)
        for c in (ref, bulk):
            for conv, threads in ((40, 900), (7, 300)):
                c.next_interval()
                c.feedback(conv, threads)
        bound = 37.3
        want = _walk_one_by_one(ref, bound)
        assert bulk.skip_empty(bound) == want.index - 2
        got = bulk.next_interval()
        assert (got.lo, got.hi) == (want.lo, want.hi)
        assert _state(bulk) == _state(ref)

    def test_nothing_to_skip(self):
        c = DeltaController(2.0)
        assert c.skip_empty(1.5) == 0
        assert c.widths == [] and c.next_lo == 0.0
        assert c.skip_empty(4.0) == 2
        assert c.history == [(0, 0), (0, 0)] and c.next_lo == 4.0

"""Tests for the stream-compaction primitive, held against ``values[keep]``."""

import numpy as np
import pytest

from repro.gpusim import GPUDevice, V100, compact_multisplit, thread_per_item
from repro.gpusim.kernels import grid_stride


@pytest.fixture
def dev():
    return GPUDevice(V100)


def _compact(keep, values, *, offset=0, size=None, assignment=None):
    """Run ``compact_multisplit`` on a fresh device; return
    ``(survivors, out, totals)``."""
    dev = GPUDevice(V100)
    out = dev.zeros(
        size if size is not None else max(values.size, 4) + offset,
        dtype=np.int64,
    )
    with dev.launch("k") as k:
        survivors = compact_multisplit(
            k, out, keep, values,
            assignment or thread_per_item(values.size), offset=offset,
        )
    return survivors, out.data, dev.counters.totals


class TestCompact:
    def test_writes_survivors_densely(self):
        values = np.array([10, 11, 12, 13, 14])
        keep = np.array([True, False, True, False, True])
        survivors, out, _ = _compact(keep, values, size=8)
        assert list(survivors) == list(values[keep]) == [10, 12, 14]
        assert list(out[:3]) == [10, 12, 14]

    def test_offset(self):
        values = np.array([7, 8])
        _, out, _ = _compact(np.array([True, True]), values, offset=3, size=8)
        assert list(out[3:5]) == list(values) == [7, 8]

    def test_empty_survivors_no_store(self):
        survivors, _, c = _compact(np.zeros(4, dtype=bool), np.arange(4))
        assert survivors.size == 0
        assert c.inst_executed_global_stores == 0

    def test_empty_input(self):
        survivors, _, _ = _compact(
            np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        )
        assert survivors.size == 0

    def test_buffer_overflow_rejected(self, dev):
        """The offset counts against the buffer: 2 survivors fit a 4-slot
        buffer, but not behind offset 3."""
        out = dev.zeros(4, dtype=np.int64)
        with dev.launch("k") as k:
            with pytest.raises(ValueError, match="too small"):
                compact_multisplit(
                    k, out, np.ones(2, dtype=bool), np.arange(2),
                    thread_per_item(2), offset=3,
                )

    def test_predicate_mismatch_rejected(self, dev):
        out = dev.zeros(4, dtype=np.int64)
        with dev.launch("k") as k:
            with pytest.raises(ValueError, match="predicate"):
                compact_multisplit(
                    k, out, np.ones(3, dtype=bool), np.arange(3),
                    thread_per_item(4),
                )

    def test_contiguous_writes_coalesce(self):
        """Dense survivor stores coalesce: far fewer transactions than
        survivors."""
        values = np.arange(4096)
        survivors, _, c = _compact(
            np.ones(4096, dtype=bool), values,
            assignment=grid_stride(4096, 1024),
        )
        assert np.array_equal(survivors, values)
        assert c.global_store_transactions <= 4096 // 4 + 64


class TestCompactMultisplit:
    @pytest.mark.parametrize("pattern", ["alternating", "all", "none",
                                         "head", "tail"])
    def test_output_equivalent_to_compact(self, pattern):
        """The survivors, and the stores, are the host compaction
        ``values[keep]`` in order."""
        values = np.arange(10, 74)
        keep = {
            "alternating": values % 2 == 0,
            "all": np.ones(64, dtype=bool),
            "none": np.zeros(64, dtype=bool),
            "head": np.arange(64) < 7,
            "tail": np.arange(64) >= 57,
        }[pattern]
        survivors, out, _ = _compact(keep, values)
        expected = values[keep]
        assert np.array_equal(survivors, expected)
        assert np.array_equal(out[: expected.size], expected)
        assert not out[expected.size:].any()

    def test_offset_respected(self):
        keep = np.array([True, False, True])
        values = np.array([5, 6, 7])
        _, out, _ = _compact(keep, values, offset=2)
        assert list(out) == [0, 0, 5, 7, 0, 0]
        assert list(out[2:4]) == list(values[keep])

    def test_overflow_rejected(self):
        dev = GPUDevice(V100)
        out = dev.zeros(2, dtype=np.int64)
        with dev.launch("k") as k:
            with pytest.raises(ValueError, match="too small"):
                compact_multisplit(
                    k, out, np.ones(4, dtype=bool), np.arange(4),
                    thread_per_item(4),
                )

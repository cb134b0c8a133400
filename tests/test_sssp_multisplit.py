"""Warp-ballot multisplit: the device primitive and its cost model.

`KernelContext.multisplit` is the one bucket-placement primitive every
engine uses: its semantics match the host reference, the W-MS cost
model is charged exactly, and validation fails fast *before* any
accounting.  That the engines place correctly is the differential
oracle's job (`tests/test_sssp_differential.py`); that their counters
do not drift is the `bench check` gate's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim import GPUDevice, V100, ballot_rounds, thread_per_item
from repro.util.scan import multisplit_order


@pytest.fixture
def dev():
    return GPUDevice(V100)


class TestBallotRounds:
    def test_one_ballot_even_for_trivial_splits(self):
        assert ballot_rounds(1) == 1
        assert ballot_rounds(2) == 1

    def test_one_round_per_split_bit(self):
        assert ballot_rounds(3) == 2
        assert ballot_rounds(4) == 2
        assert ballot_rounds(5) == 3
        assert ballot_rounds(32) == 5

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            ballot_rounds(0)


class TestDevicePrimitive:
    def test_matches_host_reference(self, dev):
        keys = np.array([2, 0, 1, 0, 2, 2, 1], dtype=np.int64)
        with dev.launch("ms") as k:
            order, offsets = k.multisplit(keys, 3, thread_per_item(7))
        ref_order, ref_offsets = multisplit_order(keys, 3)
        assert np.array_equal(order, ref_order)
        assert np.array_equal(offsets, ref_offsets)

    def test_charges_ballots_and_shared_transactions(self, dev):
        # 33 items -> 2 slots, 2 warps; B=4 -> 2 ballot rounds
        a = thread_per_item(33)
        keys = np.zeros(33, dtype=np.int64)
        with dev.launch("ms") as k:
            k.multisplit(keys, 4, a)
        c = dev.counters.totals
        assert c.inst_executed_ballots == a.num_slots * ballot_rounds(4) == 4
        assert c.shared_transactions == 2 * a.num_slots + 2 * 4 == 12
        assert c.multisplit_ops == 1
        assert c.multisplit_buckets == 4
        # ballots occupy issue slots: they count as warp instructions
        assert c.total_warp_instructions >= c.inst_executed_ballots
        # ...but shared traffic is on-chip, not global transactions
        assert c.total_transactions == 0

    def test_key_size_mismatch_fails_before_accounting(self, dev):
        with dev.launch("ms") as k:
            with pytest.raises(ValueError, match="assignment"):
                k.multisplit(np.zeros(3, dtype=np.int64), 2,
                             thread_per_item(8))
        c = dev.counters.totals
        assert c.multisplit_ops == 0
        assert c.inst_executed_ballots == 0
        assert c.shared_transactions == 0

    def test_out_of_range_key_raises(self, dev):
        with dev.launch("ms") as k:
            with pytest.raises(ValueError, match="must lie in"):
                k.multisplit(np.array([0, 5], dtype=np.int64), 2,
                             thread_per_item(2))


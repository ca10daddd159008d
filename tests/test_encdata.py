"""Tests for the encrypted-data containers and batching."""

import numpy as np
import pytest

from repro.core.encdata import DecryptionCounters, shuffled_order


class TestBatchIndices:
    """The index order ``fit()`` slices an epoch's batches from: the one
    permutation :func:`shuffled_order` draws."""

    def test_partition_covers_everything(self, np_rng):
        assert sorted(shuffled_order(23, np_rng).tolist()) == list(range(23))

    def test_no_shuffle_is_ordered(self):
        assert shuffled_order(6, shuffle=False).tolist() == list(range(6))

    def test_shuffle_respects_rng(self):
        a = shuffled_order(10, np.random.default_rng(1))
        b = shuffled_order(10, np.random.default_rng(1))
        assert a.tolist() == b.tolist()


class TestDecryptionCounters:
    def test_snapshot(self):
        counters = DecryptionCounters()
        counters.feip_decrypts += 3
        counters.febo_keys_requested += 2
        snap = counters.snapshot()
        assert snap == {"feip_decrypts": 3, "febo_decrypts": 0,
                        "feip_keys_requested": 0, "febo_keys_requested": 2}

    def test_snapshot_is_a_copy(self):
        counters = DecryptionCounters()
        snap = counters.snapshot()
        counters.feip_decrypts = 99
        assert snap["feip_decrypts"] == 0

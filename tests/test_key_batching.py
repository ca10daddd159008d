"""In-process key-request batching (``CryptoNNConfig.batch_key_requests``).

Batching must not change any numeric result -- only how the traffic is
accounted: one ``*-key-batch-*`` envelope per iteration step instead of
the per-request message fan-out the paper's Section IV-B2 formula
counts.
"""

import random

import numpy as np
import pytest

from repro.core import protocol
from repro.core import serialization as ser
from repro.core.config import CryptoNNConfig
from repro.core.cryptonn import CryptoNNTrainer
from repro.core.entities import Client, TrustedAuthority
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD


def _one_iteration(batch_key_requests: bool, k: int = 5, n: int = 4,
                   m: int = 12):
    config = CryptoNNConfig(batch_key_requests=batch_key_requests)
    authority = TrustedAuthority(config, rng=random.Random(0))
    client = Client(authority)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(m, n))
    y = rng.integers(0, 2, size=m)
    enc = client.encrypt_tabular(x, y, num_classes=2)
    model = Sequential([Dense(n, k, rng=np.random.default_rng(1)), ReLU(),
                        Dense(k, 2, rng=np.random.default_rng(1))])
    trainer = CryptoNNTrainer(model, authority, config=config)
    authority.traffic.clear()
    history = trainer.fit(enc, SGD(0.1), epochs=1, batch_size=m,
                          max_batches=1, rng=np.random.default_rng(2))
    return authority, trainer, history


class TestAuthorityBatchMethods:
    @pytest.fixture()
    def authority(self):
        return TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))

    def test_batch_records_one_envelope(self, authority):
        rows = [[1, 2, 3], [4, 5, 6]]
        keys = authority.derive_feip_keys_batch(rows)
        assert len(keys) == 2
        assert authority.traffic.message_count(
            protocol.KIND_FEIP_KEY_BATCH_REQUEST) == 1
        assert authority.traffic.total_bytes(
            kind=protocol.KIND_FEIP_KEY_BATCH_REQUEST) == \
            ser.feip_key_batch_request_wire_size(
                2, 3, authority.params)
        assert authority.traffic.total_bytes(
            kind=protocol.KIND_FEIP_KEY_BATCH_RESPONSE) == \
            ser.feip_key_batch_response_wire_size(
                2, 3, authority.params)

    def test_batch_keys_identical_to_unbatched(self, authority):
        rows = [[7, -8, 9]]
        assert authority.derive_feip_keys_batch(rows) == \
            authority.derive_feip_keys(rows)

    def test_febo_batch_envelope_sizes(self, authority):
        bpk = authority.febo_public_key()
        ct = authority.febo.encrypt(bpk, 5)
        keys = authority.derive_febo_keys_batch([(ct.cmt, "+", 2),
                                                 (ct.cmt, "-", 3)])
        assert len(keys) == 2
        assert authority.traffic.message_count(
            protocol.KIND_FEBO_KEY_BATCH_REQUEST) == 1
        assert authority.traffic.total_bytes(
            kind=protocol.KIND_FEBO_KEY_BATCH_REQUEST) == \
            ser.febo_key_batch_request_wire_size(
                2, authority.params)

    def test_empty_batches_are_silent(self, authority):
        assert authority.derive_feip_keys_batch([]) == []
        assert authority.derive_febo_keys_batch([]) == []
        assert authority.traffic.message_count() == 0


class TestBatchedTraining:
    def test_batched_run_matches_unbatched_exactly(self):
        """Batching changes accounting, never numerics."""
        _, trainer_a, history_a = _one_iteration(False)
        _, trainer_b, history_b = _one_iteration(True)
        assert history_a.batch_loss == history_b.batch_loss
        assert history_a.batch_accuracy == history_b.batch_accuracy
        np.testing.assert_array_equal(
            trainer_a.model.layers[0].params["W"],
            trainer_b.model.layers[0].params["W"])

    def test_batched_iteration_message_counts(self):
        k, n, m = 5, 4, 12
        authority, _, _ = _one_iteration(True, k, n, m)
        log = authority.traffic
        # first-layer rows + all per-sample loss keys: one envelope each
        assert log.message_count(protocol.KIND_FEIP_KEY_BATCH_REQUEST) == 2
        # label subtraction + first-epoch feature reconstruction batches
        assert log.message_count(protocol.KIND_FEBO_KEY_BATCH_REQUEST) == 1 + m
        # nothing recorded under the unbatched kinds
        assert log.message_count(protocol.KIND_FEIP_KEY_REQUEST) == 0
        assert log.message_count(protocol.KIND_FEBO_KEY_REQUEST) == 0

    def test_batched_bytes_are_payload_plus_headers(self):
        k, n, m = 5, 4, 12
        unbatched, _, _ = _one_iteration(False, k, n, m)
        batched, _, _ = _one_iteration(True, k, n, m)
        w = ser.KEY_WEIGHT_BYTES
        plain_up = unbatched.traffic.total_bytes(
            kind=protocol.KIND_FEIP_KEY_REQUEST)
        batch_up = batched.traffic.total_bytes(
            kind=protocol.KIND_FEIP_KEY_BATCH_REQUEST)
        # paper formula payload is identical; batching adds one 8-byte
        # envelope header per coalesced message (2 feip envelopes here)
        assert plain_up == k * n * w + m * 2 * w
        assert batch_up == plain_up + 2 * ser.BATCH_HEADER_BYTES
        # the request fan-out collapses: 1 + m messages -> 2 envelopes
        assert unbatched.traffic.message_count(
            protocol.KIND_FEIP_KEY_REQUEST) == 1 + m

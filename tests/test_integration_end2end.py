"""End-to-end scenarios across the full stack.

These mirror the paper's application story: multiple federated clinics
encrypt shards under one authority, the server trains over the union,
then FE-based prediction serves new encrypted samples.
"""

import random

import numpy as np
import pytest

from repro.core import protocol
from repro.core.config import CryptoNNConfig
from repro.core.cryptonn import CryptoNNTrainer
from repro.core.encdata import EncryptedTabularDataset
from repro.core.entities import Client, TrustedAuthority
from repro.data.preprocess import LabelMapper
from repro.data.tabular import load_clinics
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD


def merge_encrypted(parts: list[EncryptedTabularDataset]) -> EncryptedTabularDataset:
    """Server-side merge of shards uploaded by different clients."""
    first = parts[0]
    return EncryptedTabularDataset(
        samples=[s for p in parts for s in p.samples],
        labels=[l for p in parts for l in p.labels],
        num_classes=first.num_classes,
        n_features=first.n_features,
        scale=first.scale,
        eval_labels=np.concatenate([p.eval_labels for p in parts]),
    )


@pytest.fixture()
def setup():
    config = CryptoNNConfig()
    authority = TrustedAuthority(config, rng=random.Random(0))
    shards = load_clinics(n_clinics=3, samples_per_clinic=40, n_features=4,
                          seed=3)
    max_abs = max(np.abs(s.x).max() for s in shards) + 1e-9
    mapper = LabelMapper(2, np.random.default_rng(42))
    clients = [
        Client(authority, label_mapper=mapper, name=f"clinic-{i}")
        for i in range(3)
    ]
    encrypted = [
        client.encrypt_tabular(np.clip(shard.x / max_abs, -1, 1), shard.y, 2)
        for client, shard in zip(clients, shards)
    ]
    return authority, merge_encrypted(encrypted)


class TestFederatedClinics:
    def test_multi_client_training_under_one_key(self, setup):
        """Paper Section III-A 'Distributed data source': the only
        requirement is a shared public key."""
        authority, merged = setup
        rng = np.random.default_rng(0)
        model = Sequential([Dense(4, 8, rng=rng), ReLU(),
                            Dense(8, 2, rng=rng)])
        trainer = CryptoNNTrainer(model, authority)
        trainer.fit(merged, SGD(0.5), epochs=3, batch_size=20,
                    rng=np.random.default_rng(1))
        assert trainer.evaluate(merged) > 0.75

    def test_per_client_uploads_recorded(self, setup):
        authority, _ = setup
        for i in range(3):
            sent = authority.traffic.total_bytes(sender=f"clinic-{i}")
            assert sent > 0

    def test_key_traffic_matches_paper_formula(self, setup):
        """Section IV-B2: per iteration the server sends k x n x |w| and
        receives k x |sk| for the first-layer keys."""
        authority, merged = setup
        rng = np.random.default_rng(0)
        k, n = 8, 4  # hidden units, features
        model = Sequential([Dense(n, k, rng=rng), ReLU(),
                            Dense(k, 2, rng=rng)])
        trainer = CryptoNNTrainer(model, authority)
        authority.traffic.clear()
        trainer.fit(merged, SGD(0.1), epochs=1, batch_size=len(merged),
                    max_batches=1, rng=np.random.default_rng(1))
        from repro.core.serialization import (
            KEY_WEIGHT_BYTES,
            exponent_size_bytes,
            feip_key_request_wire_size,
        )
        upload = authority.traffic.total_bytes(
            sender=protocol.SERVER, kind=protocol.KIND_FEIP_KEY_REQUEST)
        w = KEY_WEIGHT_BYTES
        # first-layer request: k rows of n weights; the loss adds one
        # request of num_classes weights per sample
        expected_first_layer = k * n * w
        per_sample_loss = len(merged) * 2 * w
        assert upload == expected_first_layer + per_sample_loss

    def test_model_improves_over_majority_baseline(self, setup):
        authority, merged = setup
        rng = np.random.default_rng(7)
        model = Sequential([Dense(4, 8, rng=rng), ReLU(),
                            Dense(8, 2, rng=rng)])
        trainer = CryptoNNTrainer(model, authority)
        trainer.fit(merged, SGD(0.5), epochs=3, batch_size=20,
                    rng=np.random.default_rng(2))
        majority = max(np.bincount(merged.eval_labels)) / len(merged)
        assert trainer.evaluate(merged) > majority


class TestFePrediction:
    def test_prediction_over_encrypted_samples(self, setup):
        """FE-based prediction: the server runs secure feed-forward on
        fresh encrypted samples and learns the scores (by design)."""
        authority, merged = setup
        rng = np.random.default_rng(0)
        model = Sequential([Dense(4, 8, rng=rng), ReLU(),
                            Dense(8, 2, rng=rng)])
        trainer = CryptoNNTrainer(model, authority)
        trainer.fit(merged, SGD(0.5), epochs=2, batch_size=20,
                    rng=np.random.default_rng(1))
        probs = trainer.predict(merged, np.arange(10))
        assert probs.shape == (10, 2)
        predicted = probs.argmax(axis=1)
        agreement = (predicted == merged.eval_labels[:10]).mean()
        assert agreement >= 0.5

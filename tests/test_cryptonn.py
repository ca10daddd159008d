"""Integration tests for the CryptoNN trainer (Algorithm 2)."""

import random

import numpy as np
import pytest

from repro.core.config import CryptoNNConfig
from repro.core.cryptonn import EVALUATE_BATCH_SIZE, CryptoNNTrainer
from repro.core.entities import Client, TrustedAuthority
from repro.data.preprocess import one_hot
from repro.data.tabular import load_clinics
from repro.nn.conv import Conv2D
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD


@pytest.fixture()
def authority():
    return TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))


@pytest.fixture()
def clinic_data():
    shard = load_clinics(n_clinics=1, samples_per_clinic=80, n_features=4,
                         seed=7)[0]
    x = np.clip(shard.x / (np.abs(shard.x).max() + 1e-9), -1, 1)
    return x, shard.y


def make_model(np_rng, in_features=4, hidden=6, classes=2):
    return Sequential([
        Dense(in_features, hidden, rng=np_rng),
        ReLU(),
        Dense(hidden, classes, rng=np_rng),
    ])


class TestConstruction:
    def test_requires_dense_first_layer(self, authority, np_rng):
        model = Sequential([Conv2D(1, 1, 2, rng=np_rng)])
        with pytest.raises(TypeError):
            CryptoNNTrainer(model, authority)


class TestTrainingMatchesPlaintextTwin:
    def test_cross_entropy_twin_identical_trajectory(self, authority,
                                                     clinic_data, np_rng):
        """The headline claim: training over encrypted data produces the
        same model (up to fixed-point noise) as plaintext training."""
        x, y = clinic_data
        client = Client(authority)
        enc = client.encrypt_tabular(x, y, num_classes=2)
        model = make_model(np_rng)
        twin = make_model(np.random.default_rng(999))
        twin.set_weights(model.get_weights())
        trainer = CryptoNNTrainer(model, authority)
        hist_secure = trainer.fit(enc, SGD(0.5), epochs=2, batch_size=16,
                                  rng=np.random.default_rng(1))
        hist_plain = twin.fit(x, one_hot(y, 2), SoftmaxCrossEntropyLoss(),
                              SGD(0.5), epochs=2, batch_size=16,
                              rng=np.random.default_rng(1))
        # identical batch order + near-identical numerics -> same accuracies
        np.testing.assert_allclose(hist_secure.batch_accuracy,
                                   hist_plain.batch_accuracy, atol=0.15)
        assert trainer.evaluate(enc) == pytest.approx(
            twin.evaluate(x, one_hot(y, 2)), abs=0.1
        )


class TestMechanics:
    def test_history_and_max_batches(self, authority, clinic_data, np_rng):
        x, y = clinic_data
        enc = Client(authority).encrypt_tabular(x, y, num_classes=2)
        trainer = CryptoNNTrainer(make_model(np_rng), authority)
        hist = trainer.fit(enc, SGD(0.1), epochs=5, batch_size=16,
                           max_batches=3, rng=np.random.default_rng(0))
        assert len(hist.batch_loss) == 3

    def test_max_batches_leaves_rng_stream_clean(self, authority,
                                                 clinic_data, np_rng):
        """Once the cap is hit, residual epochs must not draw shuffle
        permutations (that would silently perturb the resume-critical
        RNG stream) nor record a partial epoch's mean as a full epoch."""
        x, y = clinic_data
        enc = Client(authority).encrypt_tabular(x, y, num_classes=2)
        # 80 samples / batch 16 = 5 batches per epoch; cap mid-epoch 2
        rng = np.random.default_rng(7)
        hist = CryptoNNTrainer(make_model(np_rng), authority).fit(
            enc, SGD(0.1), epochs=5, batch_size=16, max_batches=7, rng=rng)
        assert len(hist.batch_loss) == 7
        assert len(hist.epoch_loss) == 1  # epoch 1 full, epoch 2 partial
        expected = np.random.default_rng(7)
        expected.shuffle(np.arange(len(enc)))
        expected.shuffle(np.arange(len(enc)))
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_max_batches_on_epoch_boundary_records_epoch(self, authority,
                                                         clinic_data,
                                                         np_rng):
        x, y = clinic_data
        enc = Client(authority).encrypt_tabular(x, y, num_classes=2)
        rng = np.random.default_rng(7)
        hist = CryptoNNTrainer(make_model(np_rng), authority).fit(
            enc, SGD(0.1), epochs=5, batch_size=16, max_batches=5, rng=rng)
        assert len(hist.batch_loss) == 5
        assert len(hist.epoch_loss) == 1  # the completed epoch counts
        expected = np.random.default_rng(7)
        expected.shuffle(np.arange(len(enc)))  # exactly ONE draw
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_evaluate_rejects_empty_indices(self, authority, clinic_data,
                                            np_rng):
        x, y = clinic_data
        enc = Client(authority).encrypt_tabular(x, y, num_classes=2)
        trainer = CryptoNNTrainer(make_model(np_rng), authority)
        with pytest.raises(ValueError, match="at least one"):
            trainer.evaluate(enc, indices=np.array([], dtype=np.int64))

    def test_counters_accumulate(self, authority, clinic_data, np_rng):
        x, y = clinic_data
        enc = Client(authority).encrypt_tabular(x, y, num_classes=2)
        trainer = CryptoNNTrainer(make_model(np_rng), authority)
        trainer.fit(enc, SGD(0.1), epochs=1, batch_size=20, max_batches=1,
                    rng=np.random.default_rng(0))
        snap = trainer.counters.snapshot()
        assert snap["feip_decrypts"] == 20 * 6 + 20   # dot products + losses
        assert snap["febo_decrypts"] == 20 * 2 + 20 * 4  # P-Y + reconstruction

    def test_predict_returns_probabilities(self, authority, clinic_data,
                                           np_rng):
        x, y = clinic_data
        enc = Client(authority).encrypt_tabular(x, y, num_classes=2)
        trainer = CryptoNNTrainer(make_model(np_rng), authority)
        probs = trainer.predict(enc, np.arange(5))
        assert probs.shape == (5, 2)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5))

    def test_evaluate_spanning_several_chunks_matches_predict(
            self, authority, clinic_data, np_rng):
        """evaluate() predicts in chunks of EVALUATE_BATCH_SIZE; over more
        samples than one chunk holds it scores every sample once."""
        x, y = clinic_data
        assert len(y) > EVALUATE_BATCH_SIZE
        enc = Client(authority).encrypt_tabular(x, y, num_classes=2)
        trainer = CryptoNNTrainer(make_model(np_rng), authority)
        whole = trainer.predict(enc).argmax(axis=1)
        assert trainer.evaluate(enc) == pytest.approx(np.mean(whole == y))

    def test_on_batch_callback(self, authority, clinic_data, np_rng):
        x, y = clinic_data
        enc = Client(authority).encrypt_tabular(x, y, num_classes=2)
        trainer = CryptoNNTrainer(make_model(np_rng), authority)
        seen = []
        trainer.fit(enc, SGD(0.1), epochs=1, batch_size=40,
                    rng=np.random.default_rng(0),
                    on_batch=lambda i, l, a: seen.append(i))
        assert seen == [0, 1]

    def test_evaluate_requires_eval_labels(self, authority, clinic_data,
                                           np_rng):
        x, y = clinic_data
        enc = Client(authority).encrypt_tabular(x, y, num_classes=2)
        enc.eval_labels = None
        trainer = CryptoNNTrainer(make_model(np_rng), authority)
        with pytest.raises(ValueError):
            trainer.evaluate(enc)

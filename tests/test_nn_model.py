"""Tests for the Sequential container, training loop and metrics."""

import numpy as np
import pytest

from repro.data.preprocess import one_hot
from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential, iterate_batches
from repro.nn.optimizers import SGD


def separable_data(np_rng, n=300):
    x = np_rng.normal(size=(n, 2))
    labels = (x[:, 0] + x[:, 1] > 0).astype(int)
    return x, labels


class TestIterateBatches:
    def test_covers_all_samples(self, np_rng):
        x = np.arange(10).reshape(10, 1).astype(float)
        y = np.arange(10)
        seen = []
        for xb, yb in iterate_batches(x, y, batch_size=3, rng=np_rng):
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(10))

    def test_final_partial_batch(self, np_rng):
        x = np.zeros((7, 1))
        y = np.zeros(7)
        sizes = [len(xb) for xb, _ in
                 iterate_batches(x, y, 3, np_rng, shuffle=False)]
        assert sizes == [3, 3, 1]

    def test_no_shuffle_preserves_order(self):
        x = np.arange(6).reshape(6, 1).astype(float)
        y = np.arange(6)
        batches = list(iterate_batches(x, y, 2, shuffle=False))
        assert batches[0][1].tolist() == [0, 1]


class TestSequential:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_fit_learns_separable_problem(self, np_rng):
        x, labels = separable_data(np_rng)
        y = one_hot(labels, 2)
        model = Sequential([Dense(2, 8, rng=np_rng), ReLU(),
                            Dense(8, 2, rng=np_rng)])
        history = model.fit(x, y, SoftmaxCrossEntropyLoss(), SGD(0.5),
                            epochs=20, batch_size=32, rng=np_rng)
        assert model.evaluate(x, y) > 0.9
        assert history.epoch_loss[-1] < history.epoch_loss[0]

    def test_history_lengths(self, np_rng):
        x, labels = separable_data(np_rng, n=64)
        y = one_hot(labels, 2)
        model = Sequential([Dense(2, 2, rng=np_rng)])
        history = model.fit(x, y, SoftmaxCrossEntropyLoss(), SGD(0.1),
                            epochs=3, batch_size=16, rng=np_rng)
        assert len(history.batch_loss) == 3 * 4
        assert len(history.epoch_loss) == 3

    def test_on_batch_callback(self, np_rng):
        x, labels = separable_data(np_rng, n=32)
        y = one_hot(labels, 2)
        calls = []
        model = Sequential([Dense(2, 2, rng=np_rng)])
        model.fit(x, y, SoftmaxCrossEntropyLoss(), SGD(0.1), epochs=1,
                  batch_size=16, rng=np_rng,
                  on_batch=lambda i, l, a: calls.append((i, l, a)))
        assert [c[0] for c in calls] == [0, 1]

    def test_get_set_weights_roundtrip(self, np_rng):
        model = Sequential([Dense(3, 4, rng=np_rng), ReLU(),
                            Dense(4, 2, rng=np_rng)])
        weights = model.get_weights()
        twin = Sequential([Dense(3, 4), ReLU(), Dense(4, 2)])
        twin.set_weights(weights)
        x = np_rng.normal(size=(5, 3))
        np.testing.assert_allclose(model.predict(x), twin.predict(x))

    def test_set_weights_wrong_length(self, np_rng):
        model = Sequential([Dense(2, 2, rng=np_rng)])
        with pytest.raises(ValueError):
            model.set_weights([])

    def test_predict_does_not_mutate_state(self, np_rng):
        model = Sequential([Dense(2, 2, rng=np_rng), Sigmoid()])
        x = np_rng.normal(size=(4, 2))
        model.predict(x)
        with pytest.raises(RuntimeError):
            model.backward(np.ones((4, 2)))


class TestMetrics:
    def test_accuracy_one_hot_and_indices(self):
        preds = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        labels = np.array([0, 1, 1])
        assert accuracy(preds, labels) == pytest.approx(2 / 3)
        assert accuracy(preds, one_hot(labels, 2)) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((3, 2)), np.zeros(4))

"""Tests for loss functions."""

import numpy as np
import pytest

from repro.nn.activations import softmax
from repro.nn.gradcheck import check_loss_grad
from repro.nn.losses import SoftmaxCrossEntropyLoss


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_log_c(self):
        loss = SoftmaxCrossEntropyLoss()
        logits = np.zeros((2, 4))
        targets = np.eye(4)[:2]
        assert loss.forward(logits, targets) == pytest.approx(np.log(4))

    def test_confident_correct_low_loss(self):
        loss = SoftmaxCrossEntropyLoss()
        logits = np.array([[100.0, 0.0]])
        targets = np.array([[1.0, 0.0]])
        assert loss.forward(logits, targets) == pytest.approx(0.0, abs=1e-6)

    def test_gradient_is_p_minus_y_over_n(self, np_rng):
        loss = SoftmaxCrossEntropyLoss()
        logits = np_rng.normal(size=(6, 4))
        targets = np.eye(4)[np_rng.integers(0, 4, 6)]
        loss.forward(logits, targets)
        expected = (softmax(logits, axis=1) - targets) / 6
        np.testing.assert_allclose(loss.backward(), expected)

    def test_gradient_matches_numeric(self, np_rng):
        loss = SoftmaxCrossEntropyLoss()
        logits = np_rng.normal(size=(4, 3))
        targets = np.eye(3)[np_rng.integers(0, 3, 4)]
        assert check_loss_grad(loss, logits, targets) < 1e-7

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropyLoss().forward(np.ones((2, 2)), np.eye(3)[:2])

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropyLoss().backward()

    def test_shifting_a_row_of_logits_changes_nothing(self, np_rng):
        logits = np_rng.normal(size=(3, 4))
        targets = np.eye(4)[[0, 3, 1]]
        plain, shifted = SoftmaxCrossEntropyLoss(), SoftmaxCrossEntropyLoss()
        value = plain.forward(logits, targets)
        offsets = np.array([[5.0], [-7.0], [100.0]])
        assert shifted.forward(logits + offsets, targets) == \
            pytest.approx(value)
        np.testing.assert_allclose(shifted.backward(), plain.backward(),
                                   atol=1e-12)

    def test_huge_logits_stay_finite(self):
        loss = SoftmaxCrossEntropyLoss()
        value = loss.forward(np.array([[1e4, -1e4]]), np.array([[0.0, 1.0]]))
        assert value == pytest.approx(2e4)
        np.testing.assert_allclose(loss.backward(), [[1.0, -1.0]])

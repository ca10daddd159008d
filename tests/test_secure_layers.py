"""Tests for the secure feed-forward / back-propagation layers.

The invariant throughout: the secure computation must agree with its
plaintext counterpart up to fixed-point quantization (absolute error
bounded by a small multiple of 1/scale).
"""

import random

import numpy as np
import pytest

from repro.core.config import CryptoNNConfig
from repro.core.entities import Client, TrustedAuthority
from repro.core.secure_layers import (
    SecureConvInput,
    SecureLinearInput,
    SecureSoftmaxCrossEntropy,
)
from repro.nn.activations import softmax, log_softmax
from repro.nn.conv import Conv2D
from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropyLoss

QUANT_TOL = 0.05  # generous envelope for scale=100 quantization


@pytest.fixture()
def authority():
    return TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))


@pytest.fixture()
def client(authority):
    return Client(authority)


def quantize(values, scale=100):
    """The values the secure path actually sees after encoding."""
    return np.rint(np.asarray(values) * scale) / scale


class TestSecureLinearInput:
    def test_forward_matches_plaintext(self, authority, client, np_rng):
        x = np_rng.uniform(-1, 1, size=(5, 4))
        y = np_rng.integers(0, 2, size=5)
        enc = client.encrypt_tabular(x, y, num_classes=2)
        dense = Dense(4, 3, rng=np_rng)
        secure = SecureLinearInput(dense, authority, authority.config)
        z_secure = secure.forward(enc.samples, np.arange(5))
        z_plain = quantize(x) @ quantize(dense.params["W"]) + dense.params["b"]
        np.testing.assert_allclose(z_secure, z_plain, atol=QUANT_TOL)

    def test_backward_weight_gradient(self, authority, client, np_rng):
        x = np_rng.uniform(-1, 1, size=(4, 3))
        y = np_rng.integers(0, 2, size=4)
        enc = client.encrypt_tabular(x, y, num_classes=2)
        dense = Dense(3, 2, rng=np_rng)
        secure = SecureLinearInput(dense, authority, authority.config)
        secure.forward(enc.samples, np.arange(4))
        grad_z = np_rng.normal(size=(4, 2))
        secure.backward(grad_z)
        expected_w = quantize(x).T @ grad_z
        assert np.array_equal(dense.grads["W"], expected_w)
        assert np.array_equal(dense.grads["b"], grad_z.sum(axis=0))

    def test_backward_before_forward(self, authority, np_rng):
        dense = Dense(3, 2, rng=np_rng)
        secure = SecureLinearInput(dense, authority, authority.config)
        with pytest.raises(RuntimeError):
            secure.backward(np.zeros((1, 2)))

    def test_feature_cache_avoids_rework(self, authority, client, np_rng):
        x = np_rng.uniform(-1, 1, size=(3, 2))
        enc = client.encrypt_tabular(x, np.zeros(3, dtype=int), num_classes=2)
        dense = Dense(2, 2, rng=np_rng)
        secure = SecureLinearInput(dense, authority, authority.config)
        secure.forward(enc.samples, np.arange(3))
        secure.backward(np.ones((3, 2)))
        decrypts_after_first = secure.counters.febo_decrypts
        secure.forward(enc.samples, np.arange(3))
        secure.backward(np.ones((3, 2)))
        assert secure.counters.febo_decrypts == decrypts_after_first

    def test_weight_clipping_keeps_bound_valid(self, authority, client, np_rng):
        x = np_rng.uniform(-1, 1, size=(2, 2))
        enc = client.encrypt_tabular(x, np.zeros(2, dtype=int), num_classes=2)
        dense = Dense(2, 1, rng=np_rng)
        dense.params["W"][...] = 100.0  # way past max_abs_weight
        secure = SecureLinearInput(dense, authority, authority.config)
        z = secure.forward(enc.samples, np.arange(2))  # must not raise
        clipped = np.clip(dense.params["W"], -authority.config.max_abs_weight,
                          authority.config.max_abs_weight)
        expected = quantize(x) @ clipped + dense.params["b"]
        np.testing.assert_allclose(z, expected, atol=QUANT_TOL)


class TestSecureConvInput:
    def test_forward_matches_plaintext_conv(self, authority, client, np_rng):
        imgs = np_rng.uniform(0, 1, size=(2, 1, 5, 5))
        labels = np.array([0, 1])
        enc = client.encrypt_images(imgs, labels, num_classes=2,
                                    filter_size=3, stride=1, padding=1)
        conv = Conv2D(1, 2, filter_size=3, stride=1, padding=1, rng=np_rng)
        secure = SecureConvInput(conv, authority, authority.config)
        z_secure = secure.forward(enc.images, np.arange(2))
        # plaintext twin on the quantized values
        conv_q = Conv2D(1, 2, filter_size=3, stride=1, padding=1, rng=np_rng)
        conv_q.params["W"][...] = quantize(conv.params["W"])
        conv_q.params["b"][...] = conv.params["b"]
        z_plain = conv_q.forward(quantize(imgs))
        np.testing.assert_allclose(z_secure, z_plain, atol=QUANT_TOL)

    def test_backward_matches_plaintext_conv(self, authority, client, np_rng):
        imgs = np_rng.uniform(0, 1, size=(2, 1, 4, 4))
        enc = client.encrypt_images(imgs, np.zeros(2, dtype=int), num_classes=2,
                                    filter_size=3, stride=1, padding=1)
        conv = Conv2D(1, 2, filter_size=3, stride=1, padding=1, rng=np_rng)
        secure = SecureConvInput(conv, authority, authority.config)
        secure.forward(enc.images, np.arange(2))
        grad_out = np_rng.normal(size=(2, 2, 4, 4))
        secure.backward(grad_out)
        # reference gradients from the plaintext layer on quantized pixels
        twin = Conv2D(1, 2, filter_size=3, stride=1, padding=1, rng=np_rng)
        twin.params["W"][...] = conv.params["W"]
        twin.params["b"][...] = conv.params["b"]
        twin.forward(quantize(imgs))
        twin.backward(grad_out)
        assert np.array_equal(conv.grads["W"], twin.grads["W"])
        assert np.array_equal(conv.grads["b"], twin.grads["b"])


class TestSecureSoftmaxCrossEntropy:
    def test_loss_matches_plaintext(self, authority, client, np_rng):
        labels = np.array([0, 2, 1])
        enc = client.encrypt_tabular(np.zeros((3, 2)), labels, num_classes=3)
        logits = np_rng.normal(size=(3, 3))
        secure = SecureSoftmaxCrossEntropy(authority, authority.config)
        loss_secure = secure.forward(logits, enc.labels)
        plain = SoftmaxCrossEntropyLoss()
        loss_plain = plain.forward(logits, np.eye(3)[labels])
        assert loss_secure == pytest.approx(loss_plain, abs=QUANT_TOL)

    def test_gradient_matches_p_minus_y(self, authority, client, np_rng):
        labels = np.array([1, 0])
        enc = client.encrypt_tabular(np.zeros((2, 2)), labels, num_classes=2)
        logits = np_rng.normal(size=(2, 2))
        secure = SecureSoftmaxCrossEntropy(authority, authority.config)
        secure.forward(logits, enc.labels)
        grad = secure.backward(enc.labels)
        expected = (softmax(logits, axis=1) - np.eye(2)[labels]) / 2
        np.testing.assert_allclose(grad, expected, atol=QUANT_TOL)

    def test_extreme_logits_clamped_not_crashing(self, authority, client):
        labels = np.array([0])
        enc = client.encrypt_tabular(np.zeros((1, 2)), labels, num_classes=2)
        logits = np.array([[-100.0, 100.0]])  # log p ~ -200 without clamping
        secure = SecureSoftmaxCrossEntropy(authority, authority.config)
        loss = secure.forward(logits, enc.labels)
        assert loss == pytest.approx(-secure.min_log_prob, abs=1.0)

    def test_batch_size_mismatch(self, authority, client):
        enc = client.encrypt_tabular(np.zeros((2, 2)), np.array([0, 1]), 2)
        secure = SecureSoftmaxCrossEntropy(authority, authority.config)
        with pytest.raises(ValueError):
            secure.forward(np.zeros((3, 2)), enc.labels)

    def test_backward_before_forward(self, authority):
        secure = SecureSoftmaxCrossEntropy(authority, authority.config)
        with pytest.raises(RuntimeError):
            secure.backward([])

"""Plaintext replay of CryptoNN training: the benchmark's correctness oracle.

Decryption recovers exact integers, so a secure training run is fully
determined by the fixed-point integers its decryptions return.  This
module computes those integers straight from the plaintext inputs -- no
encryption, no keys, no discrete logs -- and drives an identically
seeded model through the same iteration as ``train_batch``.  A correct
secure run, serial, pooled or over RPC, therefore ends with weights
that are ``np.array_equal`` to the replay's, the same (``==``) losses
and the same evaluation accuracy.

Every array below is built the way the secure layers build theirs
(``np.stack`` of per-sample rows, C-contiguous operands), because BLAS
and NumPy reductions may round differently on other memory layouts.
"""

from __future__ import annotations

import numpy as np

from repro.core.encdata import shuffled_order
from repro.nn.activations import log_softmax, softmax
from repro.nn.conv import im2col
from repro.nn.layers import Dense
from repro.nn.optimizers import SGD

#: ``SecureSoftmaxCrossEntropy`` clamps log-probabilities here before
#: encoding them into the loss key.
MIN_LOG_PROB = -30.0

#: ``evaluate()``'s default batch size.
EVAL_BATCH = 64


class Replay:
    """Fixed-point replay of one training run on plaintext inputs.

    Args:
        model: a freshly built model, initialised exactly like the one
            the secure trainer starts from.
        inputs: the plaintext samples the client encrypts, ``(N, F)``
            features or ``(N, C, H, W)`` images.
        labels: integer labels (no label mapping).
        num_classes: width of the one-hot label vectors.
        config: the run's :class:`~repro.core.config.CryptoNNConfig`.
    """

    def __init__(self, model, inputs: np.ndarray, labels: np.ndarray,
                 num_classes: int, config):
        self.model = model
        self.scale = config.scale
        self.max_abs_weight = config.max_abs_weight
        self.labels = np.asarray(labels, dtype=np.int64)
        #: what the client encrypts, and what FEIP dot products consume
        self.encoded = self._encode(inputs)
        #: what FEBO feature reconstruction hands the gradient step
        self.features = self.encoded / self.scale
        onehot = np.zeros((len(self.labels), num_classes))
        onehot[np.arange(len(self.labels)), self.labels] = 1.0
        self.labels_encoded = self._encode(onehot)

    def _encode(self, values) -> np.ndarray:
        """``FixedPointCodec.encode`` element-wise (round half to even)."""
        return np.rint(np.asarray(values, dtype=np.float64)
                       * self.scale).astype(np.int64)

    # -- one iteration ---------------------------------------------------------
    def _secure_forward(self, idx: np.ndarray) -> np.ndarray:
        first = self.model.layers[0]
        w = self._encode(np.clip(first.params["W"], -self.max_abs_weight,
                                 self.max_abs_weight))
        if isinstance(first, Dense):
            dots = self.encoded[idx] @ w
            bias = first.params["b"]
        else:
            cols, (out_h, out_w) = im2col(self.encoded[idx], first.filter_size,
                                          first.stride, first.padding)
            dots = np.ascontiguousarray(
                (cols @ w.reshape(w.shape[0], -1).T)
                .reshape(len(idx), out_h, out_w, -1).transpose(0, 3, 1, 2))
            bias = first.params["b"][np.newaxis, :, np.newaxis, np.newaxis]
        z = dots / float(self.scale ** 2)
        z += bias
        return z

    def _tail_forward(self, z: np.ndarray, training: bool) -> np.ndarray:
        for layer in self.model.layers[1:]:
            z = layer.forward(z, training=training)
        return z

    def _secure_backward(self, idx: np.ndarray, grad: np.ndarray) -> None:
        first = self.model.layers[0]
        x = np.stack([self.features[i] for i in idx])
        if isinstance(first, Dense):
            first.grads["W"] = x.T @ grad
            first.grads["b"] = grad.sum(axis=0)
            return
        cols, _ = im2col(x, first.filter_size, first.stride, first.padding)
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, first.out_channels)
        first.grads["W"] = (grad_flat.T @ cols).reshape(first.params["W"].shape)
        first.grads["b"] = grad_flat.sum(axis=0)

    def _step(self, idx: np.ndarray, optimizer) -> float:
        logits = self._tail_forward(self._secure_forward(idx), training=True)
        n = logits.shape[0]
        probs = softmax(logits, axis=1)
        log_p = np.maximum(log_softmax(logits, axis=1), MIN_LOG_PROB)
        # loss: one FEIP inner product <encoded one-hot, encoded log p>
        # per sample, summed in sample order like the secure loss
        dots = (self.labels_encoded[idx] * self._encode(log_p)).sum(axis=1)
        loss = -sum(int(v) / float(self.scale ** 2) for v in dots) / n
        # gradient: FEBO subtraction (encoded label - encoded p)
        y_minus_p = (self.labels_encoded[idx] - self._encode(probs)) \
            / float(self.scale)
        grad = -y_minus_p / n
        for layer in reversed(self.model.layers[1:]):
            grad = layer.backward(grad)
        self._secure_backward(idx, grad)
        optimizer.step(self.model.layers)
        return loss

    # -- whole run -------------------------------------------------------------
    def fit(self, epochs: int, batch_size: int, learning_rate: float,
            seed: int) -> tuple[list[float], list[float]]:
        """Replay ``fit(SGD(lr), epochs, batch_size, rng=default_rng(seed))``.

        Returns ``(batch_losses, epoch_losses)``.
        """
        optimizer = SGD(learning_rate)
        rng = np.random.default_rng(seed)
        batch_losses: list[float] = []
        epoch_losses: list[float] = []
        for _ in range(epochs):
            order = shuffled_order(len(self.labels), rng, True)
            losses = [self._step(order[start:start + batch_size], optimizer)
                      for start in range(0, len(order), batch_size)]
            batch_losses += losses
            epoch_losses.append(float(np.mean(losses)))
        return batch_losses, epoch_losses

    def evaluate(self) -> float:
        """Replay ``evaluate()``: accuracy of the secure forward pass."""
        indices = np.arange(len(self.labels))
        correct = 0
        for start in range(0, len(indices), EVAL_BATCH):
            chunk = indices[start:start + EVAL_BATCH]
            scores = softmax(self._tail_forward(self._secure_forward(chunk),
                                                training=False), axis=1)
            correct += int((scores.argmax(axis=1) == self.labels[chunk]).sum())
        return correct / len(indices)



def model_weights(model) -> dict[str, np.ndarray]:
    """Parameters keyed like ``save_model_weights`` archives."""
    return {f"layer{i}.{name}": value
            for i, layer in enumerate(model.layers)
            for name, value in layer.params.items()}

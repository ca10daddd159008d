"""Loss functions.

:class:`SoftmaxCrossEntropyLoss` -- softmax output + cross-entropy of the
CryptoCNN case (Section III-E2), with the classic combined gradient
``p - y`` -- is the plaintext twin of the secure loss every CryptoNN
model trains with.  It returns *mean-per-sample* losses and gradients so
learning rates are batch-size independent.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import log_softmax, softmax


class Loss:
    """Interface: ``forward`` returns the scalar loss, ``backward`` dL/dinput."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError


class SoftmaxCrossEntropyLoss(Loss):
    """Softmax over logits + cross-entropy against one-hot targets.

    ``forward`` consumes raw logits ``a`` and one-hot ``y``; the combined
    gradient is ``(p - y) / N`` -- the very expression whose secure
    evaluation (element-wise subtraction of the encrypted label) the
    paper's Section III-E2 derives.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        if logits.shape != targets.shape:
            raise ValueError(f"shape mismatch: {logits.shape} vs {targets.shape}")
        self._probs = softmax(logits, axis=1)
        self._targets = targets
        log_p = log_softmax(logits, axis=1)
        return float(-np.sum(targets * log_p) / logits.shape[0])

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        return (self._probs - self._targets) / self._probs.shape[0]

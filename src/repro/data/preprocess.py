"""Client-side pre-processing (paper Section III-A overview).

Two pieces:

* the mechanical encoding (one-hot labels, shared feature scaling)
  that precedes encryption, and
* the **random label mapping** the paper requires before encrypting
  labels ("to prevent a direct inference attack ... the label should be
  mapped to a random number first", Sections III-A and IV-A):
  :class:`LabelMapper` draws a secret random permutation of class indices
  shared by the data owners; the server trains against permuted one-hot
  targets and never learns which logical class an output unit encodes.
"""

from __future__ import annotations

import numpy as np


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels -> one-hot matrix of shape (N, num_classes)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"expected 1-D labels, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ValueError("label outside [0, num_classes)")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def shared_feature_scale(features: list[np.ndarray]) -> float:
    """Global max-abs over all shards (plus epsilon against all-zeros).

    Multi-source training requires every client to scale its features
    identically -- encrypted shards cannot be re-normalized server-side
    -- so the scale must be agreed from the union of shards, not
    per-client.  Distribute the result alongside the public parameters.
    """
    return max(float(np.abs(x).max()) for x in features) + 1e-9


def normalize_features(x: np.ndarray, scale: float) -> np.ndarray:
    """Scale features into [-1, 1] with an agreed shared scale."""
    return np.clip(np.asarray(x, dtype=np.float64) / scale, -1.0, 1.0)


class LabelMapper:
    """Secret random permutation of class labels, shared by data owners.

    The permutation is sampled once from a seed the clients share (the
    authority may distribute it alongside ``mpk``); the server only ever
    sees mapped labels, so recovering ``Y - P`` during the secure
    evaluation step does not directly reveal the logical class.
    """

    def __init__(self, num_classes: int, rng: np.random.Generator | None = None):
        if num_classes < 2:
            raise ValueError("need at least 2 classes")
        rng = rng or np.random.default_rng()
        self.num_classes = num_classes
        self._forward = rng.permutation(num_classes)
        self._inverse = np.argsort(self._forward)

    def map_labels(self, labels: np.ndarray) -> np.ndarray:
        """Client side: logical label -> wire label."""
        labels = np.asarray(labels, dtype=np.int64)
        return self._forward[labels]

    def unmap_labels(self, mapped: np.ndarray) -> np.ndarray:
        """Client side: wire label -> logical label."""
        mapped = np.asarray(mapped, dtype=np.int64)
        return self._inverse[mapped]

    @property
    def permutation(self) -> np.ndarray:
        return self._forward.copy()

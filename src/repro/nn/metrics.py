"""Evaluation metrics."""

from __future__ import annotations

import numpy as np


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Classification accuracy.

    Accepts either class-index vectors or one-hot / probability matrices
    for both arguments.
    """
    pred_idx = predictions.argmax(axis=1) if predictions.ndim > 1 else predictions
    true_idx = targets.argmax(axis=1) if targets.ndim > 1 else targets
    if pred_idx.shape != true_idx.shape:
        raise ValueError(f"shape mismatch: {pred_idx.shape} vs {true_idx.shape}")
    return float(np.mean(pred_idx == true_idx))

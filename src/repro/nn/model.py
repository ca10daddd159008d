"""Sequential model container with a batched training loop.

The loop records per-batch accuracy/loss so Figure 6 ("average batch
accuracy" per iteration) can be regenerated directly from the history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import Loss
from repro.nn.metrics import accuracy
from repro.nn.optimizers import Optimizer


@dataclass
class TrainingHistory:
    """Per-batch and per-epoch training records."""

    batch_loss: list[float] = field(default_factory=list)
    batch_accuracy: list[float] = field(default_factory=list)
    epoch_loss: list[float] = field(default_factory=list)
    epoch_accuracy: list[float] = field(default_factory=list)

    def to_dict(self) -> dict[str, list[float]]:
        """Copy of all series (floats round-trip exactly through JSON)."""
        return {
            "batch_loss": list(self.batch_loss),
            "batch_accuracy": list(self.batch_accuracy),
            "epoch_loss": list(self.epoch_loss),
            "epoch_accuracy": list(self.epoch_accuracy),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingHistory":
        return cls(
            batch_loss=[float(v) for v in data.get("batch_loss", [])],
            batch_accuracy=[float(v) for v in data.get("batch_accuracy", [])],
            epoch_loss=[float(v) for v in data.get("epoch_loss", [])],
            epoch_accuracy=[float(v) for v in data.get("epoch_accuracy", [])],
        )


def iterate_batches(x: np.ndarray, y: np.ndarray, batch_size: int,
                    rng: np.random.Generator | None = None,
                    shuffle: bool = True):
    """Yield ``(x_batch, y_batch)`` tuples; final partial batch included."""
    n = x.shape[0]
    order = np.arange(n)
    if shuffle:
        if rng is None:
            rng = np.random.default_rng()
        rng.shuffle(order)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        yield x[idx], y[idx]


class Sequential:
    """Plain layer stack: forward, backward, fit, evaluate."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.layers = layers

    # -- inference ------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, training=False)

    # -- training -------------------------------------------------------------
    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def train_batch(self, x: np.ndarray, y: np.ndarray, loss: Loss,
                    optimizer: Optimizer) -> tuple[float, np.ndarray]:
        """One forward/backward/update step; returns (loss, predictions)."""
        predictions = self.forward(x, training=True)
        loss_value = loss.forward(predictions, y)
        self.backward(loss.backward())
        optimizer.step(self.layers)
        return loss_value, predictions

    def fit(self, x: np.ndarray, y: np.ndarray, loss: Loss,
            optimizer: Optimizer, epochs: int = 1, batch_size: int = 64,
            rng: np.random.Generator | None = None, shuffle: bool = True,
            on_batch: Callable[[int, float, float], None] | None = None
            ) -> TrainingHistory:
        """Mini-batch training loop.

        Args:
            on_batch: optional callback ``(batch_index, loss, accuracy)``,
                useful for progress display and experiment harnesses.
        """
        history = TrainingHistory()
        batch_index = 0
        for _ in range(epochs):
            epoch_losses: list[float] = []
            epoch_accs: list[float] = []
            for x_batch, y_batch in iterate_batches(x, y, batch_size, rng,
                                                    shuffle):
                loss_value, predictions = self.train_batch(
                    x_batch, y_batch, loss, optimizer
                )
                batch_acc = accuracy(predictions, y_batch)
                history.batch_loss.append(loss_value)
                history.batch_accuracy.append(batch_acc)
                epoch_losses.append(loss_value)
                epoch_accs.append(batch_acc)
                if on_batch is not None:
                    on_batch(batch_index, loss_value, batch_acc)
                batch_index += 1
            history.epoch_loss.append(float(np.mean(epoch_losses)))
            history.epoch_accuracy.append(float(np.mean(epoch_accs)))
        return history

    def evaluate(self, x: np.ndarray, y: np.ndarray,
                 batch_size: int = 256) -> float:
        """Accuracy over a dataset, batched to bound memory."""
        correct = 0
        for start in range(0, x.shape[0], batch_size):
            preds = self.predict(x[start:start + batch_size])
            batch_y = y[start:start + batch_size]
            correct += int(
                (preds.argmax(axis=1) == batch_y.argmax(axis=1)).sum()
                if batch_y.ndim > 1
                else (preds.argmax(axis=1) == batch_y).sum()
            )
        return correct / x.shape[0]

    # -- introspection -----------------------------------------------------------
    def parameter_count(self) -> int:
        return sum(layer.parameter_count() for layer in self.layers)

    def get_weights(self) -> list[dict[str, np.ndarray]]:
        """Deep copy of all parameters (for checkpointing / twin models)."""
        return [
            {name: param.copy() for name, param in layer.params.items()}
            for layer in self.layers
        ]

    def set_weights(self, weights: list[dict[str, np.ndarray]]) -> None:
        if len(weights) != len(self.layers):
            raise ValueError("weight list length != layer count")
        for layer, layer_weights in zip(self.layers, weights):
            for name, value in layer_weights.items():
                layer.params[name][...] = value

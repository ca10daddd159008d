"""Dataset container and its shard split."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """Features plus integer class labels.

    ``x`` is (N, ...) float data, ``y`` is (N,) integer labels.
    """

    x: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"x has {self.x.shape[0]} samples but y has {self.y.shape[0]}"
            )

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(x=self.x[indices], y=self.y[indices],
                       num_classes=self.num_classes)

    def take(self, n: int) -> "Dataset":
        """First ``n`` samples (handy for scaled-down experiments)."""
        return Dataset(x=self.x[:n], y=self.y[:n], num_classes=self.num_classes)

    def shards(self, count: int) -> list["Dataset"]:
        """Split into ``count`` near-equal shards (the distributed-clients
        setting: each shard plays one data-owner)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        index_chunks = np.array_split(np.arange(len(self)), count)
        return [self.subset(chunk) for chunk in index_chunks]

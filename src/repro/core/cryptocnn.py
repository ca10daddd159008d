"""CryptoCNN: the convolutional instantiation of CryptoNN (Section III-E).

Identical to :class:`~repro.core.cryptonn.CryptoNNTrainer` except the
secure feed-forward step is the secure convolution of Algorithm 3: the
first layer must be :class:`repro.nn.conv.Conv2D` and the dataset must
have been window-encrypted for the same geometry.
"""

from __future__ import annotations

import numpy as np

from repro.core.cryptonn import _SecureTrainerBase
from repro.core.encdata import EncryptedImageDataset
from repro.core.secure_layers import SecureConvInput
from repro.nn.conv import Conv2D


class CryptoCNNTrainer(_SecureTrainerBase):
    """Secure training for CNNs whose first layer is a convolution."""

    first_layer = Conv2D
    secure_input_class = SecureConvInput
    dataset_field = "images"

    def _secure_forward(self, dataset: EncryptedImageDataset,
                        indices: np.ndarray, training: bool) -> np.ndarray:
        conv = self.secure_input.conv
        if (dataset.filter_size, dataset.stride, dataset.padding) != (
            conv.filter_size, conv.stride, conv.padding
        ):
            raise ValueError(
                "dataset was window-encrypted for geometry "
                f"(f={dataset.filter_size}, s={dataset.stride}, "
                f"p={dataset.padding}) but the model's first layer uses "
                f"(f={conv.filter_size}, s={conv.stride}, p={conv.padding})"
            )
        return super()._secure_forward(dataset, indices, training)

"""Containers for client-encrypted training data.

The client encrypts its dataset once and ships it to the server (paper
Section III-A); these dataclasses are exactly what travels.  Features are
encrypted twice, mirroring Algorithm 1's pre-processing:

* per-sample FEIP ciphertext of the whole feature vector -- consumed by
  the secure feed-forward dot product / convolution;
* per-element FEBO ciphertexts -- consumed by the secure gradient step.

Labels are encrypted as one-hot vectors the same way (FEIP vector for the
cross-entropy inner product, FEBO elements for the P - Y subtraction).

``eval_labels`` rides along *for experiment harnesses only*: Figure 6
plots batch accuracy, which requires ground truth the server never sees
in a real deployment.  Nothing in the training path reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fe.keys import FeboCiphertext, FeipCiphertext
from repro.mathutils.group import GroupParams


@dataclass
class EncryptedSample:
    """One tabular sample: FEIP vector + FEBO per-feature elements."""

    features_ip: FeipCiphertext
    features_bo: tuple[FeboCiphertext, ...]

    @property
    def n_features(self) -> int:
        return len(self.features_bo)


@dataclass
class EncryptedLabel:
    """One one-hot label: FEIP vector + FEBO per-class elements."""

    onehot_ip: FeipCiphertext
    onehot_bo: tuple[FeboCiphertext, ...]

    @property
    def num_classes(self) -> int:
        return len(self.onehot_bo)


@dataclass
class EncryptedWindows:
    """One FEIP ciphertext per sliding-window position of one image
    (Algorithm 3, lines 9-16), row-major over the ``out_shape`` grid."""

    out_shape: tuple[int, int]
    windows: list[FeipCiphertext]


@dataclass
class EncryptedImage:
    """One image pre-processed for the secure convolution (Algorithm 3).

    ``windows`` hold the FEIP-encrypted flattened sliding windows for the
    server's convolution geometry; ``pixels_bo`` holds per-pixel FEBO
    ciphertexts of the *unpadded* image, shape (C, H, W) object array.
    """

    windows: EncryptedWindows
    pixels_bo: np.ndarray
    image_shape: tuple[int, int, int]


@dataclass
class EncryptedTabularDataset:
    """A full encrypted tabular dataset as received by the server."""

    samples: list[EncryptedSample]
    labels: list[EncryptedLabel]
    num_classes: int
    n_features: int
    scale: int
    #: ground truth for harness-side evaluation only (never used to train)
    eval_labels: np.ndarray | None = None
    #: the group the ciphertexts live in, which fixes their packed width;
    #: set by the encrypting client and by the shard codec
    params: GroupParams | None = None

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class EncryptedImageDataset:
    """A full encrypted image dataset plus the conv geometry it was cut for."""

    images: list[EncryptedImage]
    labels: list[EncryptedLabel]
    num_classes: int
    filter_size: int
    stride: int
    padding: int
    scale: int
    eval_labels: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.images)


def merge_encrypted_tabular(parts: list[EncryptedTabularDataset]
                            ) -> EncryptedTabularDataset:
    """Server-side merge of shards uploaded by different clients.

    The paper's only multi-source requirement is that every shard was
    encrypted under the same public key; shapes and scale must agree.
    """
    if not parts:
        raise ValueError("cannot merge zero encrypted shards")
    first = parts[0]
    for p in parts[1:]:
        if (p.n_features, p.num_classes, p.scale, p.params) != \
                (first.n_features, first.num_classes, first.scale,
                 first.params):
            raise ValueError(
                "encrypted shards disagree on shape, scale or group")
    eval_labels = None
    if all(p.eval_labels is not None for p in parts):
        eval_labels = np.concatenate([p.eval_labels for p in parts])
    return EncryptedTabularDataset(
        samples=[s for p in parts for s in p.samples],
        labels=[label for p in parts for label in p.labels],
        num_classes=first.num_classes,
        n_features=first.n_features,
        scale=first.scale,
        eval_labels=eval_labels,
        params=first.params,
    )


def shuffled_order(n: int, rng: np.random.Generator | None = None,
                   shuffle: bool = True) -> np.ndarray:
    """One epoch's sample permutation.

    This is the ONLY place the training shuffle consumes the RNG stream
    -- ``fit()`` checkpoints that stream for exact resume, so any other
    consumer would silently break resume determinism.
    """
    order = np.arange(n)
    if shuffle:
        if rng is None:
            rng = np.random.default_rng()
        rng.shuffle(order)
    return order


@dataclass
class DecryptionCounters:
    """Server-side operation counters (feed the performance benches)."""

    feip_decrypts: int = 0
    febo_decrypts: int = 0
    feip_keys_requested: int = 0
    febo_keys_requested: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "feip_decrypts": self.feip_decrypts,
            "febo_decrypts": self.febo_decrypts,
            "feip_keys_requested": self.feip_keys_requested,
            "febo_keys_requested": self.febo_keys_requested,
        }

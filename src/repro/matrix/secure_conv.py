"""Secure convolution scheme (paper Algorithm 3).

A convolution of an encrypted image with a plaintext filter reduces to
FEIP inner products: the *client* pads the image, slides the window,
flattens every window into a vector and FEIP-encrypts it (lines 9-16);
the *authority* derives one key per flattened filter (lines 17-20); the
*server* decrypts one inner product per output position (lines 2-8).

The paper distinguishes fully- and partially-encrypted windows (padding
pixels are known zeros).  Because the client performs the padding before
encryption, both kinds flow through the identical FEIP path -- the
known-zero coordinates simply contribute ``g^0`` -- which is exactly how
the paper's Algorithm 3 resolves the "mixed matrix" issue.

Multi-channel images (C, H, W) and multi-filter banks (F, C, fh, fw) are
supported; windows flatten channel-major to length ``C * fh * fw``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.fe.errors import CiphertextError
from repro.fe.feip import Feip
from repro.fe.keys import FeipCiphertext, FeipFunctionKey, FeipMasterKey, FeipPublicKey


def conv_output_shape(height: int, width: int, filter_size: int,
                      stride: int, padding: int) -> tuple[int, int]:
    """Standard convolution output geometry (paper Fig. 2 example)."""
    out_h = (height + 2 * padding - filter_size) // stride + 1
    out_w = (width + 2 * padding - filter_size) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"filter {filter_size} with stride {stride} and padding {padding} "
            f"does not fit a {height}x{width} input"
        )
    return out_h, out_w


def extract_windows(image: np.ndarray, filter_size: int, stride: int,
                    padding: int) -> tuple[list[list[int]], tuple[int, int]]:
    """Pad and slide: return flattened integer windows plus output shape.

    ``image`` has shape (C, H, W) with integer entries (fixed-point
    encoded).  Window vectors are ordered row-major over output positions.
    """
    image = np.asarray(image, dtype=object)
    if image.ndim == 2:
        image = image[np.newaxis, :, :]
    if image.ndim != 3:
        raise ValueError(f"expected (C, H, W) image, got ndim={image.ndim}")
    channels, height, width = image.shape
    out_h, out_w = conv_output_shape(height, width, filter_size, stride, padding)
    padded = np.zeros((channels, height + 2 * padding, width + 2 * padding),
                      dtype=object)
    padded[:, padding:padding + height, padding:padding + width] = image
    windows: list[list[int]] = []
    for oi in range(out_h):
        for oj in range(out_w):
            window = padded[:, oi * stride:oi * stride + filter_size,
                            oj * stride:oj * stride + filter_size]
            windows.append([int(v) for v in window.ravel()])
    return windows, (out_h, out_w)


@dataclass
class EncryptedWindows:
    """Client output: one FEIP ciphertext per sliding-window position."""

    out_shape: tuple[int, int]
    window_length: int
    windows: list[FeipCiphertext]

    def __len__(self) -> int:
        return len(self.windows)


class SecureConvolution:
    """Algorithm 3 with explicit client / authority / server methods.

    An optional :class:`~repro.fe.engine.EncryptionEngine` accelerates
    the client side: window encryption consumes precomputed nonce
    tuples (and falls through to pool-parallel bulk encryption when the
    engine has a pool), instead of paying one full-width ``h_i^r`` per
    window element online.
    """

    def __init__(self, feip: Feip, mpk: FeipPublicKey | None = None,
                 engine=None):
        self.feip = feip
        self.mpk = mpk
        self.engine = engine

    def setup(self, window_length: int) -> FeipMasterKey:
        """Authority: generate a key pair for ``window_length`` vectors."""
        self.mpk, msk = self.feip.setup(window_length)
        return msk

    # -- client ------------------------------------------------------------
    def pre_process_encryption(self, image: np.ndarray, filter_size: int,
                               stride: int = 1, padding: int = 0) -> EncryptedWindows:
        """Pad, slide, flatten, encrypt (lines 9-16).

        The client learns ``filter_size``, ``stride`` and ``padding`` from
        the server because "the architecture is fixed in the adopted CNN
        model" (paper Section III-E1).
        """
        if self.mpk is None:
            raise CiphertextError("no FEIP public key; run setup() first")
        windows, out_shape = extract_windows(image, filter_size, stride, padding)
        if windows and len(windows[0]) != self.mpk.eta:
            raise CiphertextError(
                f"window length {len(windows[0])} != key length {self.mpk.eta}"
            )
        if self.engine is not None:
            ciphertexts = self.engine.encrypt_feip_columns(self.mpk, windows)
        else:
            ciphertexts = [self.feip.encrypt(self.mpk, w) for w in windows]
        return EncryptedWindows(out_shape=out_shape,
                                window_length=self.mpk.eta,
                                windows=ciphertexts)

    # -- authority -----------------------------------------------------------
    def derive_filter_key(self, msk: FeipMasterKey,
                          filter_matrix: np.ndarray) -> FeipFunctionKey:
        """One key per flattened filter (lines 17-20)."""
        flat = [int(v) for v in np.asarray(filter_matrix, dtype=object).ravel()]
        return self.feip.key_derive(msk, flat)

    def derive_filter_bank_keys(self, msk: FeipMasterKey,
                                filters: Sequence[np.ndarray]
                                ) -> list[FeipFunctionKey]:
        """Multi-filter case the paper notes is 'obviously applicable'."""
        return [self.derive_filter_key(msk, f) for f in filters]

    # -- server ------------------------------------------------------------
    def secure_convolve(self, encrypted: EncryptedWindows,
                        key: FeipFunctionKey, bound: int) -> np.ndarray:
        """Decrypt one inner product per output position (lines 2-8)."""
        return self.secure_convolve_bank(encrypted, [key], bound)[0]

    def secure_convolve_bank(self, encrypted: EncryptedWindows,
                             keys: Sequence[FeipFunctionKey],
                             bound: int) -> np.ndarray:
        """Apply a bank of filters; returns shape (F, out_h, out_w).

        The patch loop is batched across the filter dimension: every
        window ciphertext is decrypted against the whole bank in one
        ``decrypt_rows`` call, so the per-window base tables and the
        dlog walk are shared by all F filters instead of being rebuilt
        filter by filter, and the filters are recoded once for all
        windows.
        """
        if self.mpk is None:
            raise CiphertextError("no FEIP public key; run setup() first")
        keys = list(keys)
        out_h, out_w = encrypted.out_shape
        solver = self.feip.solver_for(bound)
        plan = self.feip.row_plan(keys)
        z = np.empty((len(keys), out_h, out_w), dtype=object)
        for pos, window_ct in enumerate(encrypted.windows):
            z[:, pos // out_w, pos % out_w] = self.feip.decrypt_rows(
                self.mpk, window_ct, keys, bound, solver=solver, plan=plan)
        return z

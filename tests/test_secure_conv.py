"""Tests for the secure convolution scheme (Algorithm 3).

The client cuts windows with ``im2col`` and FEIP-encrypts them
(``Client.encrypt_images``); the server decrypts every window against
one key per flattened filter through the one decryption dispatch,
inline or on a worker pool.  Both must equal a plain integer
convolution.
"""

import random

import numpy as np
import pytest

from repro.core.config import CryptoNNConfig
from repro.core.entities import Client, TrustedAuthority
from repro.fe.errors import CiphertextError
from repro.matrix.parallel import InlineExecutor, get_compute_pool
from repro.nn.conv import conv_out_dims, im2col


@pytest.fixture()
def authority():
    # scale 1 with a pixel bound of 9: encoding is the identity on the
    # integer test images, so the client encrypts exactly their pixels
    return TrustedAuthority(CryptoNNConfig(scale=1, max_abs_feature=9.0),
                            rng=random.Random(0))


def encrypt_windows(authority, image, filter_size, stride, padding):
    """One (C, H, W) integer image, window-encrypted by a client."""
    dataset = Client(authority).encrypt_images(
        image[np.newaxis].astype(np.float64), np.zeros(1, dtype=int),
        num_classes=2, filter_size=filter_size, stride=stride,
        padding=padding)
    return dataset.images[0].windows


def secure_convolve(authority, encrypted, kernels, bound):
    """Decrypt a filter bank inline and on a 2-worker pool.

    Returns shape (F, out_h, out_w); the two executors must agree.
    """
    rows = [[int(v) for v in np.ravel(k)] for k in kernels]
    keys = authority.derive_feip_keys(rows)
    mpk = authority.feip_public_key(len(rows[0]))
    inline = InlineExecutor(authority.feip, authority.febo)
    grids = [
        executor.secure_dot(authority.params, mpk, encrypted.windows, keys,
                            bound).reshape(len(keys), *encrypted.out_shape)
        for executor in (inline, get_compute_pool(2))
    ]
    np.testing.assert_array_equal(grids[0], grids[1])
    return grids[0]


def rand_img(rng, c, h, w, lo=0, hi=9):
    return np.array(
        [[[rng.randrange(lo, hi + 1) for _ in range(w)] for _ in range(h)]
         for _ in range(c)], dtype=object)


class TestGeometry:
    def test_paper_fig2_example(self):
        """5x5 image, padding 1, filter 3, stride 2 -> 3x3 output."""
        assert conv_out_dims(5, 5, 3, 2, 1) == (3, 3)

    def test_filter_too_big_raises(self):
        with pytest.raises(ValueError):
            conv_out_dims(4, 4, 7, 1, 0)

    def test_extract_windows_count_and_order(self):
        image = np.arange(16, dtype=object).reshape(1, 1, 4, 4)
        windows, out_shape = im2col(image, 2, 2, 0)
        assert out_shape == (2, 2)
        assert len(windows) == 4
        assert windows[0].tolist() == [0, 1, 4, 5]       # top-left
        assert windows[3].tolist() == [10, 11, 14, 15]   # bottom-right

    def test_extract_windows_padding_zeros(self):
        image = np.ones((1, 1, 2, 2), dtype=object)
        windows, out_shape = im2col(image, 2, 2, 1)
        assert out_shape == (2, 2)
        assert windows[0].tolist() == [0, 0, 0, 1]  # corner mostly padding

    def test_extract_windows_multichannel(self):
        image = np.stack([np.ones((3, 3), dtype=object),
                          np.full((3, 3), 2, dtype=object)])[np.newaxis]
        windows, _ = im2col(image, 3, 1, 0)
        assert len(windows) == 1
        assert windows[0].tolist() == [1] * 9 + [2] * 9  # channel-major

    def test_rejects_bad_ndim(self):
        """Windows are cut from a batch: a bare (C, H, W) image is refused."""
        with pytest.raises(ValueError):
            im2col(np.zeros((2, 2, 2), dtype=object), 2, 1, 0)


class TestSecureConvolve:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 1)])
    def test_matches_reference(self, authority, rng, plain_convolve, stride,
                               padding):
        img = rand_img(rng, 1, 5, 5)
        kernel = np.array(
            [[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)],
            dtype=object)
        enc = encrypt_windows(authority, img, 3, stride, padding)
        out = secure_convolve(authority, enc, [kernel], bound=9 * 9 * 3 + 1)
        np.testing.assert_array_equal(
            out[0], plain_convolve(img, kernel, stride, padding))

    def test_multichannel_filter_bank(self, authority, rng, plain_convolve):
        img = rand_img(rng, 2, 4, 4)
        kernels = [
            np.array([[[rng.randrange(-2, 3) for _ in range(3)]
                       for _ in range(3)] for _ in range(2)], dtype=object)
            for _ in range(3)
        ]
        enc = encrypt_windows(authority, img, 3, 1, 0)
        out = secure_convolve(authority, enc, kernels, bound=18 * 9 * 2 + 1)
        assert out.shape == (3, 2, 2)
        for f, kernel in enumerate(kernels):
            np.testing.assert_array_equal(out[f],
                                          plain_convolve(img, kernel, 1, 0))

    def test_window_length_mismatch(self, authority, rng):
        """Windows only encrypt under the key for their own length."""
        client = Client(authority)
        windows, _ = im2col(rand_img(rng, 1, 5, 5)[np.newaxis], 3, 1, 0)
        with pytest.raises(CiphertextError):
            client.engine.encrypt_feip_columns(
                authority.feip_public_key(4), windows)  # 2x2 windows only

    def test_all_zero_image(self, authority):
        img = np.zeros((1, 4, 4), dtype=object)
        kernel = np.ones((2, 2), dtype=object)
        enc = encrypt_windows(authority, img, 2, 2, 0)
        out = secure_convolve(authority, enc, [kernel], bound=100)
        assert (out == 0).all()

"""Tests for Conv2D and the im2col/col2im machinery."""

import numpy as np
import pytest

from repro.nn.conv import Conv2D, col2im, conv_out_dims, im2col
from repro.nn.gradcheck import check_layer_input_grad, check_layer_param_grads

TOL = 1e-6


class TestIm2Col:
    def test_shapes(self, np_rng):
        x = np_rng.normal(size=(2, 3, 6, 6))
        cols, (oh, ow) = im2col(x, 3, 1, 0)
        assert (oh, ow) == (4, 4)
        assert cols.shape == (2 * 16, 3 * 9)

    def test_identity_filter_recovers_pixels(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols, _ = im2col(x, 1, 1, 0)
        np.testing.assert_array_equal(cols.ravel(), np.arange(16))

    def test_col2im_inverts_counts(self):
        """col2im of ones counts how many windows cover each pixel."""
        x_shape = (1, 1, 4, 4)
        cols, (oh, ow) = im2col(np.zeros(x_shape), 2, 2, 0)
        counts = col2im(np.ones_like(cols), x_shape, 2, 2, 0)
        np.testing.assert_array_equal(counts[0, 0], np.ones((4, 4)))


class TestConv2D:
    def test_forward_matches_direct_convolution(self, np_rng):
        layer = Conv2D(1, 1, filter_size=2, stride=1, padding=0, rng=np_rng)
        x = np_rng.normal(size=(1, 1, 3, 3))
        out = layer.forward(x)
        w = layer.params["W"][0, 0]
        expected = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = (x[0, 0, i:i + 2, j:j + 2] * w).sum()
        np.testing.assert_allclose(out[0, 0], expected + layer.params["b"][0])

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 2)])
    def test_output_geometry(self, np_rng, stride, padding):
        layer = Conv2D(2, 4, filter_size=3, stride=stride, padding=padding,
                       rng=np_rng)
        x = np_rng.normal(size=(3, 2, 7, 7))
        oh, ow = conv_out_dims(7, 7, 3, stride, padding)
        assert layer.forward(x).shape == (3, 4, oh, ow)

    def test_input_gradient(self, np_rng):
        layer = Conv2D(2, 3, filter_size=3, stride=2, padding=1, rng=np_rng)
        assert check_layer_input_grad(layer, np_rng.normal(size=(2, 2, 5, 5))) < TOL

    def test_param_gradients(self, np_rng):
        layer = Conv2D(1, 2, filter_size=2, stride=1, padding=0, rng=np_rng)
        errors = check_layer_param_grads(layer, np_rng.normal(size=(2, 1, 4, 4)))
        assert max(errors.values()) < TOL

    def test_rejects_wrong_channels(self, np_rng):
        layer = Conv2D(3, 2, filter_size=3, rng=np_rng)
        with pytest.raises(ValueError):
            layer.forward(np_rng.normal(size=(1, 2, 5, 5)))

    def test_backward_before_forward_raises(self, np_rng):
        layer = Conv2D(1, 1, filter_size=2, rng=np_rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 1, 2, 2)))

    def test_filter_too_large_raises(self, np_rng):
        layer = Conv2D(1, 1, filter_size=9, rng=np_rng)
        with pytest.raises(ValueError):
            layer.forward(np_rng.normal(size=(1, 1, 4, 4)))

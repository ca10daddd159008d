"""2-D convolution via im2col/col2im.

The plaintext counterpart of the paper's secure convolution (Algorithm 3):
both express convolution as inner products between flattened windows and
flattened filters, which is what lets CryptoCNN swap the first layer's
forward pass for FEIP decryptions without touching the rest of the model.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import he_normal, zeros
from repro.nn.layers import Layer


def conv_out_dims(height: int, width: int, filter_size: int, stride: int,
                  padding: int) -> tuple[int, int]:
    out_h = (height + 2 * padding - filter_size) // stride + 1
    out_w = (width + 2 * padding - filter_size) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("filter does not fit input")
    return out_h, out_w


def im2col(x: np.ndarray, filter_size: int, stride: int,
           padding: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` into ``(N * out_h * out_w, C * f * f)``.

    Rows run row-major over output positions, image by image; each row
    is one zero-padded window flattened channel-major.  This is also how
    the client cuts an encoded (object-dtype) image into the windows it
    FEIP-encrypts (Algorithm 3), so the secure and plaintext
    convolutions share one window layout by construction.
    """
    n, c, h, w = x.shape
    out_h, out_w = conv_out_dims(h, w, filter_size, stride, padding)
    padded = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    col = np.empty((n, c, filter_size, filter_size, out_h, out_w),
                   dtype=x.dtype)
    for i in range(filter_size):
        i_max = i + stride * out_h
        for j in range(filter_size):
            j_max = j + stride * out_w
            col[:, :, i, j, :, :] = padded[:, :, i:i_max:stride, j:j_max:stride]
    return (
        col.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1),
        (out_h, out_w),
    )


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int],
           filter_size: int, stride: int, padding: int) -> np.ndarray:
    """Fold gradient columns back onto the (padded) input, then crop."""
    n, c, h, w = x_shape
    out_h, out_w = conv_out_dims(h, w, filter_size, stride, padding)
    col = cols.reshape(n, out_h, out_w, c, filter_size, filter_size)
    col = col.transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(filter_size):
        i_max = i + stride * out_h
        for j in range(filter_size):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += col[:, :, i, j, :, :]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class Conv2D(Layer):
    """Convolution layer with weights ``(F, C, f, f)`` and bias ``(F,)``."""

    def __init__(self, in_channels: int, out_channels: int, filter_size: int,
                 stride: int = 1, padding: int = 0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.filter_size = filter_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * filter_size * filter_size
        self.params = {
            "W": he_normal(rng, (out_channels, in_channels,
                                 filter_size, filter_size), fan_in),
            "b": zeros((out_channels,)),
        }
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_dims: tuple[int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        cols, (out_h, out_w) = im2col(x, self.filter_size, self.stride,
                                      self.padding)
        w_flat = self.params["W"].reshape(self.out_channels, -1)
        out = cols @ w_flat.T + self.params["b"]
        out = out.reshape(n, out_h, out_w, self.out_channels)
        out = out.transpose(0, 3, 1, 2)
        if training:
            self._cols = cols
            self._x_shape = x.shape
            self._out_dims = (out_h, out_w)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n = self._x_shape[0]
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        w_flat = self.params["W"].reshape(self.out_channels, -1)
        self.grads["W"] = (grad_flat.T @ self._cols).reshape(self.params["W"].shape)
        self.grads["b"] = grad_flat.sum(axis=0)
        grad_cols = grad_flat @ w_flat
        return col2im(grad_cols, self._x_shape, self.filter_size, self.stride,
                      self.padding)

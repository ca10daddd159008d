"""Secure matrix computation over functionally-encrypted data.

Implements the paper's Algorithm 1 (secure matrix computation scheme)
plus the process-parallel decryption dispatch whose speedup the paper
reports in Figures 3d, 4d and 5d.  Algorithm 3's secure convolution is
the same dispatch over window columns: the client
(``Client.encrypt_images``) cuts windows with
:func:`repro.nn.conv.im2col`, and
:class:`repro.core.secure_layers.SecureConvInput` decrypts them.
"""

from repro.matrix.parallel import SecureComputePool, get_compute_pool
from repro.matrix.secure_matrix import (
    EncryptedMatrix,
    SecureMatrixScheme,
    matrix_bound_dot,
    matrix_bound_elementwise,
)

__all__ = [
    "EncryptedMatrix",
    "SecureComputePool",
    "SecureMatrixScheme",
    "get_compute_pool",
    "matrix_bound_dot",
    "matrix_bound_elementwise",
]

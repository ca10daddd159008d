"""Secure matrix computation (paper Algorithm 1).

The scheme has three roles, matching the paper's pseudo-code:

* **client** -- ``pre_process_encryption``: FEIP-encrypt every *column* of
  the plaintext matrix (for dot-products) and FEBO-encrypt every *element*
  (for element-wise operations), lines 14-21;
* **authority** -- ``derive_dot_keys`` / ``derive_elementwise_keys``:
  produce one FEIP key per row of the server matrix ``Y``, or one FEBO key
  per element (lines 22-30);
* **server** -- ``secure_dot`` / ``secure_elementwise``: run the
  decryptions that reveal only the function results (lines 2-13).

All plaintexts are *integers* -- callers are expected to fixed-point
encode floats first (:class:`repro.mathutils.encoding.FixedPointCodec`).
Matrices are NumPy object arrays of Python ints so no silent overflow can
occur.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

import numpy as np

from repro.fe.errors import CiphertextError, UnsupportedOperationError
from repro.fe.febo import Febo, FeboOp
from repro.fe.feip import Feip
from repro.fe.keys import (
    FeboCiphertext,
    FeboFunctionKey,
    FeboMasterKey,
    FeboPublicKey,
    FeipCiphertext,
    FeipFunctionKey,
    FeipMasterKey,
    FeipPublicKey,
)
from repro.mathutils.dlog import SolverCache
from repro.mathutils.group import GroupParams
from repro.matrix.parallel import InlineExecutor


def as_int_matrix(matrix: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Normalize input to a 2-D object array of Python ints."""
    arr = np.asarray(matrix, dtype=object)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    out = np.empty(arr.shape, dtype=object)
    if arr.size:
        out[...] = [[int(v) for v in row] for row in arr.tolist()]
    return out


def matrix_bound_dot(max_abs_x: int, max_abs_y: int, inner_length: int) -> int:
    """Dlog bound for a dot product of bounded integer vectors."""
    return int(max_abs_x) * int(max_abs_y) * int(inner_length) + 1


def matrix_bound_elementwise(op: FeboOp | str, max_abs_x: int, max_abs_y: int) -> int:
    """Dlog bound for an element-wise operation on bounded integers."""
    op = FeboOp.coerce(op)
    if op in (FeboOp.ADD, FeboOp.SUB):
        return int(max_abs_x) + int(max_abs_y) + 1
    if op is FeboOp.MUL:
        return int(max_abs_x) * int(max_abs_y) + 1
    return int(max_abs_x) + 1  # exact division shrinks magnitude


class EncryptedMatrix:
    """The client-side encryption of a matrix ``X`` (paper lines 14-21).

    Holds the FEIP encryption ``[[x]]`` of each column (used for
    dot-products) and/or the FEBO encryption ``[[X]]`` of each element
    (used for element-wise ops).  Either part may be omitted to save
    client work when only one kind of computation is planned.
    """

    def __init__(self, shape: tuple[int, int],
                 feip_columns: list[FeipCiphertext] | None,
                 febo_elements: list[list[FeboCiphertext]] | None):
        self.shape = shape
        self.feip_columns = feip_columns
        self.febo_elements = febo_elements

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def require_feip(self) -> list[FeipCiphertext]:
        if self.feip_columns is None:
            raise CiphertextError("matrix was encrypted without FEIP columns")
        return self.feip_columns

    def require_febo(self) -> list[list[FeboCiphertext]]:
        if self.febo_elements is None:
            raise CiphertextError("matrix was encrypted without FEBO elements")
        return self.febo_elements

    def commitments(self) -> list[list[int]]:
        """Per-element commitments the authority needs for FEBO keys."""
        return [[ct.cmt for ct in row] for row in self.require_febo()]


class SecureMatrixScheme:
    """Facade bundling FEIP + FEBO for matrix-level secure computation.

    The public keys ride along; master keys stay with the caller (the
    authority entity in :mod:`repro.core.entities`) and are passed
    explicitly to the key-derivation methods, mirroring the trust split.

    The server-side computations make one dispatch on an
    :class:`~repro.matrix.parallel.InlineExecutor` that runs the
    chunked decryption in the calling thread with this scheme's
    ``feip``/``febo`` and ``solver_cache``.  The client side encrypts
    with the plain :meth:`Feip.encrypt <repro.fe.feip.Feip.encrypt>` /
    :meth:`Febo.encrypt <repro.fe.febo.Febo.encrypt>`, one fresh nonce
    per call: the path the Figure 3-5 benches time.  The trainers reach
    the compute pool and the encryption engine through
    :mod:`repro.core.entities` instead.
    """

    def __init__(self, params: GroupParams,
                 rng: random.Random | None = None,
                 solver_cache: SolverCache | None = None):
        self.params = params
        self.feip = Feip(params, rng=rng, solver_cache=solver_cache)
        self.febo = Febo(params, rng=rng, solver_cache=solver_cache)
        self.feip_mpk: FeipPublicKey | None = None
        self.febo_mpk: FeboPublicKey | None = None
        self.pool = InlineExecutor(self.feip, self.febo, solver_cache)

    # -- setup (authority) ---------------------------------------------------
    def setup(self, column_length: int) -> tuple[FeipMasterKey, FeboMasterKey]:
        """Generate both key pairs; publishes the public halves on self."""
        self.feip_mpk, feip_msk = self.feip.setup(column_length)
        self.febo_mpk, febo_msk = self.febo.setup()
        return feip_msk, febo_msk

    # -- client side -----------------------------------------------------------
    def pre_process_encryption(self, matrix: Sequence[Sequence[int]] | np.ndarray,
                               with_feip: bool = True,
                               with_febo: bool = True) -> EncryptedMatrix:
        """Encrypt ``X`` column-wise (FEIP) and element-wise (FEBO)."""
        x = as_int_matrix(matrix)
        rows, cols = x.shape
        feip_columns = None
        febo_elements = None
        if with_feip:
            if self.feip_mpk is None:
                raise CiphertextError("no FEIP public key; run setup() first")
            if self.feip_mpk.eta != rows:
                raise CiphertextError(
                    f"FEIP key supports columns of length {self.feip_mpk.eta}, "
                    f"matrix has {rows} rows"
                )
            feip_columns = [self.feip.encrypt(self.feip_mpk, list(x[:, j]))
                            for j in range(cols)]
        if with_febo:
            if self.febo_mpk is None:
                raise CiphertextError("no FEBO public key; run setup() first")
            febo_elements = [[self.febo.encrypt(self.febo_mpk, x[i, j])
                              for j in range(cols)] for i in range(rows)]
        return EncryptedMatrix((rows, cols), feip_columns, febo_elements)

    # -- authority side -----------------------------------------------------------
    def derive_dot_keys(self, msk: FeipMasterKey,
                        y: Sequence[Sequence[int]] | np.ndarray
                        ) -> list[FeipFunctionKey]:
        """One FEIP key per row of the server matrix ``Y`` (lines 25-27)."""
        y_arr = as_int_matrix(y)
        return [self.feip.key_derive(msk, list(row)) for row in y_arr]

    def derive_elementwise_keys(self, msk: FeboMasterKey, op: FeboOp | str,
                                y: Sequence[Sequence[int]] | np.ndarray,
                                commitments: list[list[int]]
                                ) -> list[list[FeboFunctionKey]]:
        """One FEBO key per element of ``Y`` (lines 28-30).

        FEBO keys are commitment-bound, so the server must forward the
        ciphertext commitments with its request.
        """
        y_arr = as_int_matrix(y)
        rows, cols = y_arr.shape
        if len(commitments) != rows or any(len(r) != cols for r in commitments):
            raise CiphertextError("commitment matrix shape mismatch")
        return [
            [
                self.febo.key_derive(msk, commitments[i][j], op, y_arr[i, j])
                for j in range(cols)
            ]
            for i in range(rows)
        ]

    # -- server side -----------------------------------------------------------
    def secure_dot(self, encrypted: EncryptedMatrix,
                   keys: Sequence[FeipFunctionKey], bound: int) -> np.ndarray:
        """Compute ``Z = Y @ X`` from encrypted ``X`` (lines 4-8).

        ``keys[i]`` must be the FEIP key for the i-th row of ``Y``; the
        result has shape ``(len(keys), X.cols)``.
        """
        if self.feip_mpk is None:
            raise CiphertextError("no FEIP public key; run setup() first")
        return self.pool.secure_dot(self.params, self.feip_mpk,
                                    encrypted.require_feip(), keys, bound)

    def secure_elementwise(self, encrypted: EncryptedMatrix,
                           keys: list[list[FeboFunctionKey]],
                           bound: int) -> np.ndarray:
        """Compute ``Z[i][j] = X[i][j] op Y[i][j]`` (lines 9-12)."""
        if self.febo_mpk is None:
            raise CiphertextError("no FEBO public key; run setup() first")
        elements = encrypted.require_febo()
        rows, cols = encrypted.shape
        if len(keys) != rows or any(len(r) != cols for r in keys):
            raise UnsupportedOperationError("key matrix shape mismatch")
        cells = [(keys[i][j], elements[i][j])
                 for i in range(rows) for j in range(cols)]
        return self.pool.secure_elementwise(self.params, self.febo_mpk,
                                            cells, (rows, cols), bound)

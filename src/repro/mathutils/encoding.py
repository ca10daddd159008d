"""Signed fixed-point encoding of floats into group exponents.

The underlying functional encryption works on integers in Z_q, while the
neural network works on floats.  Following Section IV-B3 of the paper
("we only keep two-decimal places approximately and then transfer the
floating point number to the integer"), floats are scaled by a fixed
factor (default 100) and rounded.  Negative values use the balanced
representation of Z_q (residues above q/2 are negative).

Two scales interact during secure computation:

* element-wise FEBO ops combine two scale-``s`` operands into a scale-``s``
  result (addition/subtraction) or a scale-``s**2`` result (multiplication);
* a FEIP dot-product of two scale-``s`` vectors yields a scale-``s**2``
  result.

:class:`FixedPointCodec` tracks this explicitly so callers decode with the
correct effective scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Scale matching the paper's "two decimal places".
PAPER_SCALE = 100


@dataclass(frozen=True)
class FixedPointCodec:
    """Encode/decode floats as scaled signed integers.

    Attributes:
        scale: multiplicative factor applied before rounding.
    """

    scale: int = PAPER_SCALE

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError("scale must be >= 1")

    # -- scalar API --------------------------------------------------------------
    def encode(self, value: float) -> int:
        """Round ``value * scale`` to the nearest integer."""
        return int(round(float(value) * self.scale))

    def decode(self, value: int, power: int = 1) -> float:
        """Decode an integer produced at ``scale ** power``.

        ``power=1`` for raw encodings and additive results; ``power=2`` for
        products / dot-products of two encoded operands.
        """
        return value / float(self.scale ** power)

    # -- array API ---------------------------------------------------------------
    def encode_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`encode`; returns an object array of Python ints.

        Object dtype keeps exact arbitrary-precision integers -- int64 would
        silently overflow for large scales.
        """
        rounded = np.rint(np.asarray(values, dtype=np.float64) * self.scale)
        return np.array([int(v) for v in rounded.ravel()],
                        dtype=object).reshape(rounded.shape)

    def decode_array(self, values: np.ndarray, power: int = 1) -> np.ndarray:
        divisor = float(self.scale ** power)
        flat = [int(v) / divisor for v in np.asarray(values, dtype=object).ravel()]
        return np.array(flat, dtype=np.float64).reshape(np.shape(values))

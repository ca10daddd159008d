"""Configuration for CryptoNN training runs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mathutils.encoding import PAPER_SCALE
from repro.mathutils.group import PAPER_SECURITY_BITS, TOY_SECURITY_BITS


def pow2_round_up(value: int) -> int:
    """Round up to a power of two.

    Discrete-log bounds derived from live weight magnitudes change every
    iteration; rounding them up to powers of two lets the solver cache
    reuse its baby-step tables instead of rebuilding per iteration.
    """
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


@dataclass
class CryptoNNConfig:
    """Knobs shared by the CryptoNN / CryptoCNN trainers.

    Attributes:
        security_bits: Schnorr group size.  The paper's experiments use
            256; the default here is the toy size so tests and scaled
            benches run quickly (smaller groups run the identical code
            path).
        scale: fixed-point scale; the paper keeps two decimal places (100).
        max_abs_feature: clients promise features within this magnitude
            (inputs normalized to [0, 1] satisfy 1.0).
        max_abs_weight: server clips first-layer weights to this magnitude
            so the dot-product dlog bound stays valid and small.
        key_weight_bytes: |w| in the communication formula.
        workers: process count for the parallel secure feed-forward
            (paper Figures 3d/4d/5d).  None runs serially -- the right
            choice for small batches, where pool startup dominates.
        batch_key_requests: coalesce every per-iteration key request
            (first-layer rows, per-sample loss keys, label subtractions)
            into one batched envelope per step, recorded under the
            ``*-key-batch-*`` traffic kinds.  Off by default so the
            unbatched accounting matches the paper's Section IV-B2
            formula message-for-message; the networked runtime
            (:mod:`repro.rpc`) turns it on to collapse round trips.
    """

    security_bits: int = TOY_SECURITY_BITS
    scale: int = PAPER_SCALE
    max_abs_feature: float = 1.0
    max_abs_weight: float = 2.0
    key_weight_bytes: int = 8
    workers: int | None = None
    batch_key_requests: bool = False

    @classmethod
    def paper(cls) -> "CryptoNNConfig":
        """The paper's setting: 256-bit group, two-decimal fixed point."""
        return cls(security_bits=PAPER_SECURITY_BITS, scale=PAPER_SCALE)

    def dot_bound(self, vector_length: int) -> int:
        """Dlog bound for first-layer dot products / convolutions."""
        raw = int(
            vector_length
            * self.max_abs_feature * self.scale
            * self.max_abs_weight * self.scale
        ) + 1
        return pow2_round_up(raw)

    def label_sub_bound(self) -> int:
        """Dlog bound for (encrypted label) - (probability) subtraction."""
        return pow2_round_up(2 * self.scale + 1)

    def loss_bound(self, max_abs_log_prob: float = 40.0) -> int:
        """Dlog bound for the <y, log p> cross-entropy inner product."""
        return pow2_round_up(int(max_abs_log_prob * self.scale * self.scale) + 1)

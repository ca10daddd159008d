"""Deterministic randomness plumbing.

Crypto code uses :mod:`random.Random` instances (arbitrary-precision ints),
the NN substrate uses :class:`numpy.random.Generator`.  Keeping every
source seeded and explicit makes experiments and tests reproducible --
Figure 6 requires the plaintext and encrypted pipelines to see identical
initial weights and batch order.
"""

from __future__ import annotations

import random


def make_rng(seed: int | None) -> random.Random:
    """Return a seeded :class:`random.Random` (fresh entropy when None)."""
    return random.Random(seed)


def spawn_rngs(seed: int, count: int) -> list[random.Random]:
    """Derive ``count`` independent streams from one master seed."""
    master = random.Random(seed)
    return [random.Random(master.getrandbits(64)) for _ in range(count)]

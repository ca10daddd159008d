"""Cross-cutting utilities: timing and deterministic RNG helpers."""

from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.timer import Stopwatch, time_call

__all__ = ["Stopwatch", "make_rng", "spawn_rngs", "time_call"]

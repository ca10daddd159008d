"""Cross-cutting utilities: timing."""

from repro.utils.timer import Stopwatch, time_call

__all__ = ["Stopwatch", "time_call"]

"""Cross-cutting utilities: timing."""

from repro.utils.timer import Stopwatch

__all__ = ["Stopwatch"]

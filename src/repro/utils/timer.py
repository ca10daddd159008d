"""The stopwatch the benchmarks time their phases with."""

from __future__ import annotations

import time


class Stopwatch:
    """Accumulating stopwatch; usable as a context manager.

    Example:
        sw = Stopwatch()
        with sw:
            do_work()
        print(sw.elapsed)
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started_at: float | None = None

    def start(self) -> "Stopwatch":
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("stopwatch not running")
        self.elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        return self.elapsed

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

"""Lightweight span tracer for per-iteration cost decomposition.

Spans wrap the phases of one secure training step (key fetch, encrypt,
pool dispatch, decrypt/dlog, plain forward/backward) so a running
service can report the same cost breakdown the paper presents in
Figures 3-5 (modexp-dominated encryption vs bounded-dlog decryption).

The tracer is **off by default** and must cost nearly nothing when
disabled: ``span()`` is then a single attribute check returning a
shared no-op context manager, so instrumented hot loops stay at their
benchmarked speed (guarded by ``tests/test_perf_smoke.py``).

When enabled it records completed spans as plain dicts in a bounded
ring buffer (``collections.deque(maxlen=...)``), optionally appends
one JSONL line per span to a trace file, and -- when handed a
:class:`~repro.obs.metrics.MetricsRegistry` -- folds durations into
``repro_phase_seconds{phase="..."}`` histograms so the wire-scraped
ops surface includes phase timings without shipping raw spans.

Stdlib-only, like :mod:`repro.obs.metrics`, for the same layering
reason.
"""

from __future__ import annotations

import collections
import json
import threading
import time
from typing import Any, TextIO

__all__ = ["SpanTracer", "GLOBAL_TRACER"]

#: completed spans a tracer's ring buffer keeps
SPAN_CAPACITY = 4096


class _NullSpan:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "name", "attrs", "_start", "_depth")

    def __init__(self, tracer: "SpanTracer", name: str,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self._depth = 0

    def __enter__(self) -> "_Span":
        self._depth = self._tracer._push()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        duration = time.perf_counter() - self._start
        self._tracer._pop()
        self._tracer._finish(self, duration)
        return False


class SpanTracer:
    """Nestable spans with ``perf_counter`` timings in a ring buffer."""

    def __init__(self) -> None:
        self.enabled = False
        self._records: collections.deque[dict[str, Any]] = \
            collections.deque(maxlen=SPAN_CAPACITY)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._file: TextIO | None = None
        self._registry = None

    # -- lifecycle ---------------------------------------------------------

    def enable(self, trace_file: str | None = None,
               registry: Any = None) -> None:
        """Turn tracing on, optionally streaming JSONL spans to a file.

        Idempotent with respect to the file handle: re-enabling with a
        different path closes the previous file first.
        """
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None
            if trace_file:
                self._file = open(trace_file, "a", encoding="utf-8")
            self._registry = registry
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None
            self._registry = None

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    # -- span entry point --------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Context manager timing one named phase.

        The disabled path is the hot path: one attribute check, no
        allocation.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    # -- internals ---------------------------------------------------------

    def _push(self) -> int:
        stack = getattr(self._local, "depth", 0)
        self._local.depth = stack + 1
        return stack

    def _pop(self) -> None:
        self._local.depth = max(0, getattr(self._local, "depth", 1) - 1)

    def _finish(self, span: _Span, duration: float) -> None:
        record = {
            "name": span.name,
            "ts": time.time(),
            "dur_s": duration,
            "depth": span._depth,
            "thread": threading.current_thread().name,
        }
        if span.attrs:
            record.update(span.attrs)
        registry = self._registry
        with self._lock:
            self._records.append(record)
            if self._file is not None:
                try:
                    self._file.write(json.dumps(record) + "\n")
                    self._file.flush()
                except OSError:
                    pass
        if registry is not None:
            registry.histogram(
                f'repro_phase_seconds{{phase="{span.name}"}}'
            ).observe(duration)

    # -- inspection --------------------------------------------------------

    def spans(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._records)

    def phase_totals(self) -> dict[str, dict[str, float]]:
        """Aggregate the ring buffer: ``{phase: {count, total_s}}``."""
        totals: dict[str, dict[str, float]] = {}
        for record in self.spans():
            entry = totals.setdefault(
                record["name"], {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += record["dur_s"]
        return totals


GLOBAL_TRACER = SpanTracer()

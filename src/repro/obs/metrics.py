"""Process-wide metrics registry: counters, histograms, collectors.

Deliberately stdlib-only (``threading`` + ``weakref``) so the lowest
layers of the codebase -- ``mathutils.group``, ``mathutils.dlog``,
``matrix.parallel``, ``fe.engine`` -- can import it without creating
cycles, mirroring the same rule ``rpc.retry`` follows.

Design constraints:

* **Near-zero cost when nothing scrapes.**  Hot paths never touch the
  registry directly; instead, instances that already keep counters
  (the compute pool, the encryption engine, RPC endpoints, services)
  register a *collector* -- a bound method the registry calls only at
  ``snapshot()`` time.  The only direct-write call sites are rare
  events (comb-table builds, span completions).
* **Thread-safe and loss-free.**  Counter/histogram mutation is
  a single locked update; collectors are held through
  :class:`weakref.WeakMethod` so dead instances silently drop out of
  the scrape instead of keeping objects alive or raising.
* **Plain-dict snapshots.**  ``snapshot()`` returns JSON-serialisable
  data only, so it can ride in a message header unchanged; a
  ``render_prometheus()`` text exposition is layered on top of the
  same snapshot.

Collector outputs are flat ``{metric_name: number}`` dicts.  Values
from multiple collectors that report the same metric name are
**summed** -- two compute pools in one process aggregate into a single
``repro_pool_dispatches_total`` figure, which is the semantics every
consumer here wants.  Names ending in ``_total`` land in the
``counters`` section of the snapshot, everything else in ``gauges``:
every gauge comes from a collector.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Any, Callable

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "GLOBAL_REGISTRY",
    "BUCKETS",
]

# Every histogram's boundaries (seconds), suiting the paper's cost
# profile: sub-millisecond plain layers up through multi-second secure
# phases.  An implicit +Inf bucket is always appended, so memory per
# histogram is bounded by len(BUCKETS) + 1 regardless of observation
# count.
BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)


class Counter:
    """Monotonically increasing value; ``inc`` is atomic under a lock."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Histogram:
    """Histogram over :data:`BUCKETS` with bounded memory.

    Buckets are cumulative-style at snapshot time (Prometheus ``le``
    semantics); internally each observation increments exactly one
    per-bucket slot, so ``observe`` is O(log n) via bisection over a
    short boundary tuple.
    """

    __slots__ = ("_counts", "_count", "_sum", "_lock")

    def __init__(self) -> None:
        self._counts = [0] * (len(BUCKETS) + 1)  # final slot is +Inf
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(BUCKETS)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= BUCKETS[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self._count += 1
            self._sum += value

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            acc = self._sum
        cumulative = []
        running = 0
        for c in counts:
            running += c
            cumulative.append(running)
        return {
            "le": [*BUCKETS, "+Inf"],
            "counts": cumulative,
            "count": total,
            "sum": acc,
        }

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


class MetricsRegistry:
    """Named metrics plus pull-time collectors, scraped as one snapshot."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, Any] = {}

    # -- get-or-create accessors ------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram()
            return metric

    # -- collectors --------------------------------------------------------

    def register_collector(
            self, key: str,
            fn: Callable[[], dict[str, int | float] | None]) -> None:
        """Register a pull-time source of ``{name: number}`` readings.

        Bound methods are held weakly: when the owning instance is
        garbage-collected its collector vanishes from the scrape.  A
        collector that raises is skipped -- a broken signal source must
        never break the ops surface.
        """
        ref: Any
        if hasattr(fn, "__self__"):
            ref = weakref.WeakMethod(fn)
        else:
            ref = fn
        with self._lock:
            self._collectors[key] = ref

    # -- scraping ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """One consistent, JSON-safe view of every metric + collector."""
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges: dict[str, int | float] = {}
            hists = {n: h.snapshot() for n, h in self._histograms.items()}
            collectors = list(self._collectors.items())
        dead = []
        for key, ref in collectors:
            fn = ref() if isinstance(ref, weakref.WeakMethod) else ref
            if fn is None:
                dead.append(key)
                continue
            try:
                readings = fn()
            except Exception:
                continue
            for name, value in (readings or {}).items():
                section = counters if name.endswith("_total") else gauges
                section[name] = section.get(name, 0) + value
        if dead:
            with self._lock:
                for key in dead:
                    self._collectors.pop(key, None)
        return {"counters": counters, "gauges": gauges,
                "histograms": hists}

    def render_prometheus(self, snapshot: dict[str, Any] | None = None) -> str:
        """Prometheus text exposition of a snapshot (ours by default)."""
        snap = snapshot if snapshot is not None else self.snapshot()
        lines: list[str] = []

        def base_name(name: str) -> str:
            return name.split("{", 1)[0]

        for name in sorted(snap.get("counters", {})):
            lines.append(f"# TYPE {base_name(name)} counter")
            lines.append(f"{name} {_fmt(snap['counters'][name])}")
        for name in sorted(snap.get("gauges", {})):
            lines.append(f"# TYPE {base_name(name)} gauge")
            lines.append(f"{name} {_fmt(snap['gauges'][name])}")
        for name in sorted(snap.get("histograms", {})):
            hist = snap["histograms"][name]
            base, labels = _split_labels(name)
            lines.append(f"# TYPE {base} histogram")
            for le, count in zip(hist["le"], hist["counts"]):
                pairs = labels + [f'le="{le}"']
                lines.append(
                    f"{base}_bucket{{{','.join(pairs)}}} {count}")
            suffix = f"{{{','.join(labels)}}}" if labels else ""
            lines.append(f"{base}_sum{suffix} {_fmt(hist['sum'])}")
            lines.append(f"{base}_count{suffix} {hist['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: int | float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value)
    return str(value)


def _split_labels(name: str) -> tuple[str, list[str]]:
    if "{" not in name:
        return name, []
    base, rest = name.split("{", 1)
    return base, [p for p in rest.rstrip("}").split(",") if p]


GLOBAL_REGISTRY = MetricsRegistry()

"""Unified observability layer: metrics registry + span tracer.

Every long-running process in the repro (authority, training server,
client agents, benchmarks) shares one :data:`GLOBAL_REGISTRY` and one
:data:`GLOBAL_TRACER`.  Signal sources register pull-time collectors
rather than pushing on the hot path; see the metric naming scheme in
ROADMAP.md ("Ops surface").
"""

from repro.obs.metrics import (
    BUCKETS,
    Counter,
    GLOBAL_REGISTRY,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import GLOBAL_TRACER, SpanTracer

__all__ = [
    "BUCKETS",
    "Counter",
    "GLOBAL_REGISTRY",
    "GLOBAL_TRACER",
    "Histogram",
    "MetricsRegistry",
    "SpanTracer",
]

"""Observability layer: registry, tracer, and the wire-level ops surface.

Covers the three properties the layer promises:

* **correctness under concurrency** -- counters never lose increments,
  the compute pool's stats stay exact when hammered from threads;
* **pull-time collectors** -- readings sum across instances and vanish
  with their owners (weakref semantics);
* **a live wire surface** -- every framed service answers
  ``service-metrics`` / ``service-health`` over a real socket without
  any handshake, and the training server's readiness reflects its
  actual ability to do work.
"""

import json
import random
import threading

import numpy as np
import pytest

from repro.matrix import parallel
from repro.matrix.secure_matrix import SecureMatrixScheme, matrix_bound_dot
from repro.obs.metrics import BUCKETS, MetricsRegistry
from repro.obs.tracing import SPAN_CAPACITY, SpanTracer
from repro.rpc import (
    HealthRequest,
    MetricsRequest,
    RpcEndpoint,
    free_port,
)
from repro.rpc.authority_service import AuthorityService
from repro.rpc.training_service import TrainingService
from repro.core.config import CryptoNNConfig
from repro.core.entities import TrustedAuthority


class TestRegistry:
    def test_counter_exact_under_threads(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_hits_total")
        n_threads, n_incs = 8, 2_000

        def work():
            for _ in range(n_incs):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * n_incs
        snap = registry.snapshot()
        assert snap["counters"]["repro_test_hits_total"] == n_threads * n_incs

    def test_histogram_buckets_and_exactness(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_test_seconds")
        for v in (0.0005, 0.001, 0.5, 100.0):
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["le"] == [*BUCKETS, "+Inf"]
        # cumulative (Prometheus le) semantics: <=0.001 -> 2, <=0.5 -> 3
        assert snap["counts"][0] == 2
        assert snap["counts"][BUCKETS.index(0.5)] == 3
        assert snap["counts"][-2:] == [3, 4]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(100.5015)

    def test_histogram_exact_under_threads(self):
        hist = MetricsRegistry().histogram("h")
        n_threads, n_obs = 6, 1_000

        def work():
            for i in range(n_obs):
                hist.observe(0.001 * (i % 50))

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == n_threads * n_obs

    def test_collectors_sum_and_die_with_their_instance(self):
        registry = MetricsRegistry()

        class Pool:
            def __init__(self, n):
                self.n = n

            def _collect(self):
                return {"repro_test_dispatches_total": self.n,
                        "repro_test_workers": 1}

        a, b = Pool(3), Pool(4)
        registry.register_collector("a", a._collect)
        registry.register_collector("b", b._collect)
        snap = registry.snapshot()
        # same metric name from two collectors aggregates by summing
        assert snap["counters"]["repro_test_dispatches_total"] == 7
        assert snap["gauges"]["repro_test_workers"] == 2

        del b  # dead instances silently drop out of the scrape
        snap = registry.snapshot()
        assert snap["counters"]["repro_test_dispatches_total"] == 3
        assert snap["gauges"]["repro_test_workers"] == 1

    def test_broken_collector_never_breaks_the_scrape(self):
        registry = MetricsRegistry()
        registry.counter("repro_ok_total").inc(5)
        registry.register_collector("bad", lambda: 1 / 0)
        snap = registry.snapshot()
        assert snap["counters"]["repro_ok_total"] == 5

    def test_render_prometheus_smoke(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_hits_total").inc(2)
        registry.register_collector("depth",
                                    lambda: {"repro_test_depth": 7})
        registry.histogram(
            'repro_phase_seconds{phase="secure-forward"}').observe(0.5)
        text = registry.render_prometheus()
        assert "# TYPE repro_test_hits_total counter" in text
        assert "repro_test_hits_total 2" in text
        assert "repro_test_depth 7" in text
        # histogram labels merge with the le label on bucket lines
        assert ('repro_phase_seconds_bucket{phase="secure-forward",'
                'le="1.0"} 1') in text
        assert 'repro_phase_seconds_count{phase="secure-forward"} 1' in text
        # snapshots are JSON-safe by construction
        json.dumps(registry.snapshot())


class TestTracer:
    def test_spans_nest_and_record(self):
        tracer = SpanTracer()
        tracer.enable()
        try:
            with tracer.span("iteration", batch=4):
                with tracer.span("secure-forward"):
                    pass
        finally:
            tracer.disable()
        records = tracer.spans()
        assert [r["name"] for r in records] == ["secure-forward", "iteration"]
        inner, outer = records
        assert outer["depth"] == 0 and inner["depth"] == 1
        assert outer["batch"] == 4
        assert outer["dur_s"] >= inner["dur_s"] >= 0.0

    def test_trace_file_and_registry_folding(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        registry = MetricsRegistry()
        tracer = SpanTracer()
        tracer.enable(trace_file=str(path), registry=registry)
        try:
            for _ in range(3):
                with tracer.span("secure-forward"):
                    pass
        finally:
            tracer.disable()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert len(lines) == 3
        assert all(line["name"] == "secure-forward" for line in lines)
        hist = registry.snapshot()["histograms"][
            'repro_phase_seconds{phase="secure-forward"}']
        assert hist["count"] == 3
        totals = tracer.phase_totals()
        assert totals["secure-forward"]["count"] == 3

    def test_ring_buffer_is_bounded(self):
        tracer = SpanTracer()
        tracer.enable()
        try:
            for _ in range(SPAN_CAPACITY + 50):
                with tracer.span("x"):
                    pass
        finally:
            tracer.disable()
        assert len(tracer.spans()) == SPAN_CAPACITY


class TestPoolCounters:
    @pytest.fixture()
    def dot_fixture(self, params, rng, solver_cache):
        scheme = SecureMatrixScheme(params, rng=rng,
                                    solver_cache=solver_cache)
        msk_ip, _ = scheme.setup(column_length=2)
        x = np.array([[rng.randrange(0, 8) for _ in range(3)]
                      for _ in range(2)], dtype=object)
        y = np.array([[rng.randrange(0, 8) for _ in range(2)]],
                     dtype=object)
        enc = scheme.pre_process_encryption(x, with_febo=False)
        keys = scheme.derive_dot_keys(msk_ip, y)
        return scheme, enc, keys, matrix_bound_dot(8, 8, 2), y @ x

    @pytest.mark.timeout_guard(120)
    def test_stats_exact_under_concurrent_dispatch(self, params, dot_fixture):
        """Concurrent secure_dot calls must not lose counter updates."""
        scheme, enc, keys, bound, expected = dot_fixture
        n_threads, n_calls = 4, 3
        errors = []
        with parallel.SecureComputePool(workers=1) as pool:
            def work():
                try:
                    for _ in range(n_calls):
                        out = pool.secure_dot(params, scheme.feip_mpk,
                                              enc.require_feip(), keys,
                                              bound)
                        np.testing.assert_array_equal(out, expected)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=work)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            stats = pool.stats  # consistent copy taken under the lock
            assert stats["dispatches"] == n_threads * n_calls
            assert stats["degraded_dispatches"] == 0
            assert not stats["degraded"]

    def test_pool_collector_reaches_global_registry(self, params,
                                                    dot_fixture):
        from repro.obs.metrics import GLOBAL_REGISTRY
        scheme, enc, keys, bound, expected = dot_fixture
        with parallel.SecureComputePool(workers=1) as pool:
            out = pool.secure_dot(params, scheme.feip_mpk,
                                  enc.require_feip(), keys, bound)
            np.testing.assert_array_equal(out, expected)
            snap = GLOBAL_REGISTRY.snapshot()
            assert snap["counters"]["repro_pool_dispatches_total"] >= 1
            assert snap["gauges"]["repro_pool_workers"] >= 1


@pytest.mark.timeout_guard(120)
class TestWireSurface:
    def test_metrics_and_health_round_trip(self):
        """Every framed service answers probes without any handshake."""
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(0))
        service = AuthorityService(authority)
        addr = service.start()
        try:
            with RpcEndpoint(*addr, name="probe",
                             peer="authority") as endpoint:
                health = endpoint.request(HealthRequest(requester="probe"))
                assert health.ready
                assert health.state == "serving"
                resp = endpoint.request(MetricsRequest(requester="probe"))
                assert resp.service == "authority"
                counters = resp.metrics["counters"]
                # the probe itself is already on the books
                assert counters["repro_service_requests_total"] >= 1
                assert counters["repro_service_traffic_messages_total"] >= 1
                json.dumps(resp.metrics)  # snapshot survives the wire
        finally:
            service.stop()

    def test_training_service_not_ready_while_waiting(self):
        """No handshake + no uploads + no durable job => not ready."""
        service = TrainingService("127.0.0.1", free_port(),
                                  expected_clients=1)
        addr = service.start()
        try:
            with RpcEndpoint(*addr, name="probe",
                             peer="server") as endpoint:
                health = endpoint.request(HealthRequest(requester="probe"))
                assert not health.ready
                assert health.state == "waiting"
                assert not health.detail["keys_fetched"]
                assert not health.detail["job_configured"]
        finally:
            service.stop()

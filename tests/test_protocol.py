"""Tests for the traffic log."""

import sys
import threading

import pytest

from repro.core import protocol
from repro.core.protocol import TrafficLog, TrafficRecord


class TestTrafficLog:
    def test_record_and_total(self):
        log = TrafficLog()
        log.record("server", "authority", "feip-key-request", 100)
        log.record("authority", "server", "feip-key-response", 60)
        assert log.total_bytes() == 160
        assert log.total_bytes(sender="server") == 100
        assert log.total_bytes(receiver="server") == 60
        assert log.total_bytes(kind="feip-key-request") == 100

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            TrafficLog().record("a", "b", "kind", -1)

    def test_message_count(self):
        log = TrafficLog()
        for _ in range(3):
            log.record("c", "s", protocol.KIND_ENCRYPTED_DATA, 10)
        log.record("s", "a", protocol.KIND_FEIP_KEY_REQUEST, 5)
        assert log.message_count() == 4
        assert log.message_count(protocol.KIND_ENCRYPTED_DATA) == 3

    def test_by_kind(self):
        log = TrafficLog()
        log.record("a", "b", "x", 1)
        log.record("a", "b", "x", 2)
        log.record("a", "b", "y", 5)
        assert log.by_kind() == {"x": 3, "y": 5}

    def test_clear(self):
        log = TrafficLog()
        log.record("a", "b", "x", 1)
        log.clear()
        assert log.total_bytes() == 0

    def test_records_are_immutable(self):
        record = TrafficRecord("a", "b", "x", 1)
        with pytest.raises(AttributeError):
            record.n_bytes = 2


class TestBoundedTrafficLog:
    """Rotation past ``max_records``: memory bounded, aggregates exact."""

    def test_record_list_stays_bounded(self):
        log = TrafficLog(max_records=10)
        for i in range(1000):
            log.record("c", "s", "x", i)
        assert len(log.records) <= 10

    def test_aggregates_survive_rotation_exactly(self):
        bounded = TrafficLog(max_records=8)
        unbounded = TrafficLog()
        for i in range(200):
            sender = f"client-{i % 3}"
            kind = "x" if i % 2 else "y"
            for log in (bounded, unbounded):
                log.record(sender, "server", kind, i)
        assert bounded.total_bytes() == unbounded.total_bytes()
        assert bounded.message_count() == unbounded.message_count()
        assert bounded.by_kind() == unbounded.by_kind()
        for s in ("client-0", "client-1", "client-2"):
            assert bounded.total_bytes(sender=s) == \
                unbounded.total_bytes(sender=s)
        for k in ("x", "y"):
            assert bounded.total_bytes(kind=k) == unbounded.total_bytes(kind=k)
            assert bounded.message_count(k) == unbounded.message_count(k)
        assert bounded.total_bytes(sender="client-1", receiver="server",
                                   kind="x") == \
            unbounded.total_bytes(sender="client-1", receiver="server",
                                  kind="x")

    def test_recent_records_remain_inspectable(self):
        log = TrafficLog(max_records=4)
        for i in range(10):
            log.record("c", "s", "x", i)
        # the newest records are still individually visible
        assert log.records[-1].n_bytes == 9

    def test_clear_resets_rotated_totals(self):
        log = TrafficLog(max_records=2)
        for i in range(10):
            log.record("c", "s", "x", 1)
        log.clear()
        assert log.total_bytes() == 0
        assert log.message_count() == 0

    def test_unbounded_default_never_rotates(self):
        log = TrafficLog()
        for i in range(5000):
            log.record("c", "s", "x", 1)
        assert len(log.records) == 5000
        assert not log.rotated

    def test_framed_service_logs_are_bounded(self):
        from repro.rpc.service import FramedService

        assert FramedService.MAX_RECORDS_PER_LOG is not None

    def test_authority_service_bounds_entity_log(self):
        import random

        from repro.core.config import CryptoNNConfig
        from repro.core.entities import TrustedAuthority
        from repro.rpc.authority_service import AuthorityService

        authority = TrustedAuthority(CryptoNNConfig(security_bits=32),
                                     rng=random.Random(0))
        assert authority.traffic.max_records is None
        service = AuthorityService(authority)
        assert authority.traffic.max_records == service.MAX_RECORDS_PER_LOG

    def test_concurrent_writers_keep_exact_totals(self):
        """Eight threads rotating one small log: no record is lost or
        counted twice, so the lifetime aggregates stay exact."""
        log = TrafficLog(max_records=16)
        per_thread = 2000
        start = threading.Barrier(8)

        def write(t: int) -> None:
            start.wait()
            for i in range(per_thread):
                log.record(f"s{t}", "authority", "x" if i % 2 else "y", t + 1)

        threads = [threading.Thread(target=write, args=(t,))
                   for t in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the writers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert log.message_count() == 8 * per_thread
        assert log.message_count("x") == 8 * per_thread // 2
        assert log.total_bytes() == per_thread * sum(range(1, 9))
        for t in range(8):
            assert log.total_bytes(sender=f"s{t}") == per_thread * (t + 1)
        assert len(log.records) <= 16

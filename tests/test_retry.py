"""Unit tests for the unified retry/backoff policy (repro.rpc.retry).

The policy is pure bookkeeping over injectable sleep/clock/rng hooks, so
everything here runs at full speed with fake time -- only the
wait_for_port tests touch a real socket.
"""

from __future__ import annotations

import random
import socket
import time

import pytest

from repro.rpc.retry import (
    DEFAULT_POLICY,
    SERVICE_POLICY,
    STAT_KEYS,
    RetryPolicy,
    RetryStats,
    merge_stats,
)
from repro.rpc.runtime import free_port, wait_for_port


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_backoff_without_jitter_is_capped_exponential(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, multiplier=2.0,
                             jitter=False)
        assert [policy.backoff(k) for k in range(1, 6)] == \
            [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_backoff_with_jitter_is_seeded_uniform(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, multiplier=2.0)
        draws_a = [policy.backoff(k, random.Random(7)) for k in range(1, 5)]
        draws_b = [policy.backoff(k, random.Random(7)) for k in range(1, 5)]
        assert draws_a == draws_b  # same seed, same schedule
        for k, delay in enumerate(draws_a, start=1):
            assert 0.0 <= delay <= 0.1 * 2.0 ** (k - 1)

    def test_attempts_yields_and_backs_off_between(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=2.0,
                             jitter=False)
        slept = []
        attempts = list(policy.attempts(sleep=slept.append))
        assert attempts == [1, 2, 3, 4]
        # 3 sleeps for 4 attempts, exponential, none zero-length
        assert slept == [0.1, 0.2, 0.4]

    def test_attempts_deadline_bounds_the_loop(self):
        clock = {"now": 0.0}

        def fake_clock():
            return clock["now"]

        def fake_sleep(seconds):
            clock["now"] += seconds

        policy = RetryPolicy(max_attempts=1_000_000, base_delay=0.5,
                             max_delay=0.5, jitter=False, deadline=2.0)
        attempts = list(policy.attempts(sleep=fake_sleep, clock=fake_clock))
        # 0.5s backoff per retry against a 2s budget: the generator
        # stops within a handful of attempts, never the million
        assert 2 <= len(attempts) <= 6
        assert clock["now"] <= 2.5

    def test_attempt_timeout_clipped_by_deadline(self):
        policy = RetryPolicy(deadline=10.0)
        clock = lambda: 107.0  # noqa: E731 - 7s after start
        assert policy.attempt_timeout_for(100.0, default=60.0,
                                          clock=clock) == pytest.approx(3.0)
        # no deadline: the caller's default passes through untouched
        assert RetryPolicy().attempt_timeout_for(100.0, default=60.0,
                                                 clock=clock) == 60.0
        # explicit per-attempt timeout wins over the default
        assert RetryPolicy(attempt_timeout=5.0).attempt_timeout_for(
            0.0, default=60.0, clock=lambda: 0.0) == 5.0

    def test_defaults_are_sane(self):
        assert DEFAULT_POLICY.max_attempts < SERVICE_POLICY.max_attempts
        assert DEFAULT_POLICY.jitter and SERVICE_POLICY.jitter


class TestRetryStats:
    def test_snapshot_speaks_the_shared_vocabulary(self):
        stats = RetryStats()
        assert tuple(stats.snapshot()) == STAT_KEYS
        assert all(v == 0 for v in stats.snapshot().values())

    def test_merge_stats_sums_and_keeps_extra_keys(self):
        merged = merge_stats({"attempts": 2, "drops": 1},
                             {"attempts": 3, "injected_stall": 4})
        assert merged["attempts"] == 5
        assert merged["drops"] == 1
        assert merged["timeouts"] == 0
        assert merged["injected_stall"] == 4


@pytest.mark.timeout_guard(30)
class TestWaitForPort:
    def test_returns_once_listening(self):
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            host, port = server.getsockname()
            wait_for_port(host, port)

    def test_times_out_on_silent_port(self):
        """The error names the deadline the caller's policy waited."""
        policy = RetryPolicy(max_attempts=1_000_000, base_delay=0.02,
                             max_delay=0.05, deadline=0.3)
        start = time.monotonic()
        with pytest.raises(TimeoutError, match=r"after 0\.3s"):
            wait_for_port("127.0.0.1", free_port(), policy=policy)
        # honors the budget: no runaway polling, no premature raise
        assert 0.2 <= time.monotonic() - start < 5.0

    def test_error_names_attempts_when_policy_has_no_deadline(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.01)
        with pytest.raises(TimeoutError, match="after 2 attempts"):
            wait_for_port("127.0.0.1", free_port(), policy=policy)

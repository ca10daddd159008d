"""Unified retry/backoff policy for the distributed runtime.

Every component that retries -- :class:`~repro.rpc.client.RpcEndpoint`
requests and connects, :func:`~repro.rpc.runtime.wait_for_port` and
client agent uploads -- speaks this one vocabulary, so "how often do we
resend, how long do we back off, when do we give up" is configured in
exactly one place and the fault counters of every participant and of
real-socket chaos runs compose into one report.

The policy is capped exponential backoff with full jitter (the AWS
architecture-blog shape): attempt ``k`` sleeps ``uniform(0, min(max_
delay, base_delay * multiplier**(k-1)))``.  Full jitter decorrelates a
thundering herd of clients hammering a restarting authority; passing a
seeded ``random.Random`` makes the schedule reproducible for tests.

This module is intentionally stdlib-only so any layer can import it
without a dependency cycle.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Counter names shared by every fault/retry report in the runtime --
#: RpcEndpoint.stats, ChaosProxy summaries.
STAT_KEYS = ("attempts", "retries", "drops", "timeouts", "reconnects",
             "giveups")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter, per-attempt timeout and an
    overall deadline.

    Args:
        max_attempts: total tries (1 = no retry).
        base_delay: backoff before the second attempt (seconds).
        max_delay: backoff ceiling.
        multiplier: exponential growth factor per failed attempt.
        jitter: full jitter (``uniform(0, delay)``) when True, the bare
            capped-exponential delay when False (deterministic -- used
            by the simulated channel's clock accounting).
        attempt_timeout: per-attempt timeout override; ``None`` defers
            to the caller's own timeout (e.g. ``RpcEndpoint.timeout``).
        deadline: overall wall-clock budget across all attempts and
            backoffs; ``None`` means attempts alone bound the loop.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: bool = True
    attempt_timeout: float | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def backoff(self, failures: int,
                rng: random.Random | None = None) -> float:
        """Sleep before the attempt after ``failures`` failed tries."""
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** max(0, failures - 1))
        if self.jitter:
            return (rng or random).uniform(0.0, delay)
        return delay

    def attempts(self, *, rng: random.Random | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic,
                 ) -> Iterator[int]:
        """Yield 1-based attempt numbers, backing off between them.

        The caller loops ``for attempt in policy.attempts(): try ...``,
        breaking (or returning) on success; exhaustion of the generator
        means attempts or the deadline ran out.  ``sleep`` is injectable
        so an endpoint can wake early on ``close()`` and tests can run
        at full speed.
        """
        start = clock()
        attempt = 0
        while True:
            attempt += 1
            yield attempt
            if attempt >= self.max_attempts:
                return
            if self.deadline is not None \
                    and clock() - start >= self.deadline:
                return
            delay = self.backoff(attempt, rng)
            if self.deadline is not None:
                delay = min(delay,
                            max(0.0, self.deadline - (clock() - start)))
            if delay > 0:
                sleep(delay)

    def attempt_timeout_for(self, start: float, default: float | None = None,
                            clock: Callable[[], float] = time.monotonic,
                            ) -> float | None:
        """Effective per-attempt timeout at this moment.

        ``attempt_timeout`` (or the caller's ``default``) clipped to
        whatever remains of the overall ``deadline`` started at
        ``start``, so the last attempt cannot overshoot the budget.
        """
        per = self.attempt_timeout if self.attempt_timeout is not None \
            else default
        if self.deadline is None:
            return per
        remaining = max(0.001, self.deadline - (clock() - start))
        return remaining if per is None else min(per, remaining)


#: Endpoint default: a handful of quick retries, never more than ~4s of
#: cumulative backoff -- transient socket weather, not a long outage.
DEFAULT_POLICY = RetryPolicy(max_attempts=4, base_delay=0.05, max_delay=1.0)

#: Service-to-authority default: generous enough that a killed and
#: restarted authority (seconds of connection refusals) is ridden out
#: instead of failing a multi-hour training job.
SERVICE_POLICY = RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=2.0)


@dataclass
class RetryStats:
    """Fault/retry counters, one shared vocabulary runtime-wide.

    ``attempts`` counts every try, ``retries`` the tries after the
    first, ``drops`` transport failures observed (connection resets,
    frame errors -- or simulated losses), ``timeouts`` per-attempt
    deadline expiries, ``reconnects`` connections re-established after a
    drop, ``giveups`` requests that exhausted their policy.
    """

    attempts: int = 0
    retries: int = 0
    drops: int = 0
    timeouts: int = 0
    reconnects: int = 0
    giveups: int = 0

    def snapshot(self) -> dict[str, int]:
        return {key: getattr(self, key) for key in STAT_KEYS}


def merge_stats(*snapshots: dict[str, int]) -> dict[str, int]:
    """Sum fault-counter snapshots into one report.

    Accepts any dicts using the :data:`STAT_KEYS` vocabulary (endpoint
    stats, simulated-channel stats, chaos summaries); unknown keys are
    summed too, so richer reports survive the merge.
    """
    merged: dict[str, int] = {key: 0 for key in STAT_KEYS}
    for snap in snapshots:
        for key, value in snap.items():
            merged[key] = merged.get(key, 0) + int(value)
    return merged

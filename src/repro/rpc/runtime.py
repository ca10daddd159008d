"""Helpers for hosting RPC services inside tests, examples and drivers.

:class:`ServiceThread` hosts one service (authority, training or chaos
proxy) on its own threads, so synchronous code -- a pytest test, an
example script -- can stand up a real socket service, talk to it, and
tear it down deterministically.  Separate *processes* work exactly the
same way (see ``examples/rpc_loopback.py``); the thread variant simply
keeps single-process demos and the test suite self-contained.

:func:`run_until_stopped` is the other way round: the blocking entry
point of the ``serve-*`` commands, which own their process and stop on
SIGINT or SIGTERM.
"""

from __future__ import annotations

import random
import signal
import socket
from collections.abc import Callable
from typing import TypeVar

from repro.rpc.retry import RetryPolicy

T = TypeVar("T")

#: the signals that stop a ``serve-*`` command
STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the OS for an unused TCP port (bind-to-zero trick)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def wait_for_port(host: str, port: int, timeout: float = 10.0, *,
                  policy: RetryPolicy | None = None,
                  rng: random.Random | None = None) -> None:
    """Block until something listens on ``host:port`` (or time out).

    Probes under a :class:`~repro.rpc.retry.RetryPolicy` (jittered
    exponential backoff, ``deadline=timeout``) instead of a fixed-period
    poll: a service that binds instantly is seen after one cheap probe,
    and a slow one is not hammered 20x/second.
    """
    if policy is None:
        policy = RetryPolicy(max_attempts=1_000_000, base_delay=0.02,
                             max_delay=0.25, deadline=timeout)
    last_exc: Exception | None = None
    for _ in policy.attempts(rng=rng):
        try:
            with socket.create_connection((host, port), timeout=0.5):
                return
        except OSError as exc:
            last_exc = exc
    raise TimeoutError(
        f"nothing listening on {host}:{port} after {timeout}s"
    ) from last_exc


def run_until_stopped(main: Callable[[], T], *,
                      finish: Callable[[], None] | None = None) -> T | None:
    """Run ``main()`` until it returns or a stop signal arrives, then
    ``finish()``.

    SIGINT and SIGTERM both raise KeyboardInterrupt in the main thread,
    where ``main`` blocks (``threading.Event.wait`` is interruptible),
    so either takes ``main``'s one clean path out (its ``finally``:
    close the listener, join the connections), and ``finish`` then
    closes the worker pools.  Stop signals are ignored from the first
    one (or from ``main``'s return) until ``finish`` is done, so a
    repeat cannot cut that short.  Returns what ``main`` returned, or
    None when a signal stopped it.

    Must run in the main thread, which owns signal handling.
    """
    previous = {sig: signal.getsignal(sig) for sig in STOP_SIGNALS}

    def ignore_stop_signals() -> None:
        for sig in STOP_SIGNALS:
            signal.signal(sig, signal.SIG_IGN)

    def stop(signum, frame) -> None:
        ignore_stop_signals()
        raise KeyboardInterrupt

    for sig in STOP_SIGNALS:
        signal.signal(sig, stop)
    try:
        return main()
    except KeyboardInterrupt:
        return None
    finally:
        ignore_stop_signals()
        if finish is not None:
            finish()
        for sig, handler in previous.items():
            signal.signal(sig, handler)


class ServiceThread:
    """Host an RPC service inside a synchronous program.

    The wrapped service -- :class:`~repro.rpc.authority_service.
    AuthorityService`, :class:`~repro.rpc.training_service.
    TrainingService` or :class:`~repro.rpc.chaos.ChaosProxy` -- accepts
    on a thread of its own from ``start()`` on, until ``stop()``, which
    joins its connection threads.
    """

    def __init__(self, service):
        self.service = service
        self.address: tuple[str, int] | None = None

    def start(self) -> tuple[str, int]:
        """Start the service; returns the bound (host, port)."""
        if self.address is None:
            self.address = self.service.start()
        return self.address

    def stop(self) -> None:
        if self.address is not None:
            self.service.stop()
            self.address = None

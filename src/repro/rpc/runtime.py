"""Helpers for running RPC services in tests, examples and drivers.

A service (authority, training or chaos proxy) hosts itself:
``start()`` binds and returns ``(host, port)``, its accept and
connection threads serve until ``stop()`` joins them, so a pytest test
or an example script stands one up in-process with two calls.  Separate
*processes* work exactly the same way (see ``examples/rpc_loopback.py``).

:func:`run_until_stopped` is the blocking entry point of the
``serve-*`` commands, which own their process and stop on SIGINT or
SIGTERM; :func:`free_port` and :func:`wait_for_port` help drivers start
such processes.
"""

from __future__ import annotations

import signal
import socket
from collections.abc import Callable
from typing import TypeVar

from repro.rpc.retry import RetryPolicy

T = TypeVar("T")

#: the signals that stop a ``serve-*`` command
STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)

#: How long :func:`wait_for_port` waits for a listener by default.
PORT_WAIT_S = 30.0


def free_port() -> int:
    """Ask the OS for an unused loopback TCP port (bind-to-zero trick)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_port(host: str, port: int, *,
                  policy: RetryPolicy | None = None) -> None:
    """Block until something listens on ``host:port`` (or time out).

    Probes under a :class:`~repro.rpc.retry.RetryPolicy` (by default
    jittered exponential backoff with a :data:`PORT_WAIT_S` deadline)
    instead of a fixed-period poll: a service that binds instantly is
    seen after one cheap probe, and a slow one is not hammered
    20x/second.  The ``TimeoutError`` names the deadline the policy
    waited, or its attempts when it has none.
    """
    if policy is None:
        policy = RetryPolicy(max_attempts=1_000_000, base_delay=0.02,
                             max_delay=0.25, deadline=PORT_WAIT_S)
    last_exc: Exception | None = None
    for _ in policy.attempts():
        try:
            with socket.create_connection((host, port), timeout=0.5):
                return
        except OSError as exc:
            last_exc = exc
    waited = f"{policy.deadline}s" if policy.deadline is not None \
        else f"{policy.max_attempts} attempts"
    raise TimeoutError(
        f"nothing listening on {host}:{port} after {waited}"
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

"""Helpers for hosting RPC services inside tests, examples and drivers.

:class:`ServiceThread` runs one asyncio service (authority or training)
on a dedicated event loop in a daemon thread, so synchronous code -- a
pytest test, an example script, the CLI -- can stand up a real socket
service, talk to it, and tear it down deterministically.  Separate
*processes* work exactly the same way (see ``examples/rpc_loopback.py``);
the thread variant simply keeps single-process demos and the test suite
self-contained.

:func:`run_until_stopped` is the other way round: the blocking entry
point of the ``serve-*`` commands, which own their process and stop on
SIGINT or SIGTERM.
"""

from __future__ import annotations

import asyncio
import random
import signal
import socket
import threading
from collections.abc import Awaitable, Callable
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


def run_until_stopped(main: Callable[[], Awaitable[T]], *,
                      finish: Callable[[], None] | None = None) -> T | None:
    """Run ``main()`` on a fresh event loop until it returns or a stop
    signal arrives, then ``finish()``.

    SIGINT and SIGTERM both cancel ``main``, so either takes its one
    clean path out (its ``finally``: close the listener, drain the
    connections), and ``finish`` then closes the worker pools.  Stop
    signals are ignored from the first one (or from ``main``'s return)
    until ``finish`` is done, so a repeat cannot cut that short.  (The
    loop's own ``add_signal_handler`` would not do: closing the loop
    puts back the default action, which kills the process while its
    pool is still closing.)  Returns what ``main`` returned, or None
    when a signal stopped it.

    Must run in the main thread, which owns signal handling.
    """
    previous = {sig: signal.getsignal(sig) for sig in STOP_SIGNALS}

    def ignore_stop_signals() -> None:
        for sig in STOP_SIGNALS:
            signal.signal(sig, signal.SIG_IGN)

    async def run() -> T | None:
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()

        def stop(signum, frame) -> None:
            ignore_stop_signals()
            loop.call_soon_threadsafe(task.cancel)

        for sig in STOP_SIGNALS:
            signal.signal(sig, stop)
        try:
            return await main()
        except asyncio.CancelledError:
            return None
        finally:
            ignore_stop_signals()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return None
    finally:
        if finish is not None:
            finish()
        for sig, handler in previous.items():
            signal.signal(sig, handler)


class ServiceThread:
    """Host an RPC service on its own event loop in a daemon thread.

    The wrapped service must expose ``async start() -> (host, port)``
    and ``async stop()`` (both :class:`~repro.rpc.authority_service.
    AuthorityService` and :class:`~repro.rpc.training_service.
    TrainingService` do).  ``asyncio.start_server`` begins accepting as
    soon as ``start()`` returns, so the thread just keeps the loop
    alive; ``stop()`` shuts the service down and joins the thread.
    """

    def __init__(self, service):
        self.service = service
        self.loop: asyncio.AbstractEventLoop | None = None
        self.address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        """Start the loop + service; returns the bound (host, port)."""
        if self._thread is not None:
            return self.address
        self._thread = threading.Thread(
            target=self._run, name=type(self.service).__name__, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("service did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error!r}")
        return self.address

    def _run(self) -> None:
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)

        async def _start() -> None:
            try:
                self.address = await self.service.start()
            except BaseException as exc:
                self._startup_error = exc
            finally:
                self._started.set()

        try:
            self.loop.run_until_complete(_start())
            if self._startup_error is None:
                self.loop.run_forever()
        finally:
            self.loop.close()

    def call(self, coro_factory, timeout: float = 30.0):
        """Run ``await coro_factory()`` on the service's loop (blocking)."""
        if self.loop is None:
            raise RuntimeError("service thread not started")
        future = asyncio.run_coroutine_threadsafe(coro_factory(), self.loop)
        return future.result(timeout)

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None or self.loop is None:
            return
        if not self.loop.is_closed():
            try:
                self.call(self.service.stop, timeout)
            except Exception:
                pass
            try:
                self.loop.call_soon_threadsafe(self.loop.stop)
            except RuntimeError:
                pass  # loop already closed (e.g. startup failed)
        self._thread.join(timeout)
        self._thread = None

"""Shared threaded server plumbing for the RPC services.

Both the authority key service and the training server speak the same
strict request/response protocol over framed TCP streams; this base
class owns the socket lifecycle, per-connection traffic accounting and
error framing, leaving subclasses one job: ``_dispatch`` a decoded
message to the entity behind it.

The listening half, :class:`Listener`, also runs the chaos proxy: an
accept thread and one thread per connection, all on blocking sockets.
A service hosts itself: ``start()`` binds and returns ``(host, port)``,
and ``stop()`` tears every connection down deterministically (no
connection thread outlives it).  Its two limits are module constants:
:data:`MAX_CONNECTIONS` live connections, each running one request at a
time, and :data:`~repro.rpc.framing.MAX_FRAME_BYTES` per frame.  A
broken or malicious peer only ever costs its own connection: decode
errors are answered with an ``error`` frame, transport errors drop the
connection, and the listener keeps serving everyone else.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time

from repro.core.protocol import TrafficLog
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.rpc.framing import FrameError, encode_frame, nodelay, recv_frame
from repro.rpc.messages import (
    KIND_SERVICE_HEALTH,
    KIND_SERVICE_METRICS,
    ErrorMessage,
    HealthRequest,
    HealthResponse,
    MetricsRequest,
    MetricsResponse,
    WireContext,
    decode_message,
    encode_message,
)

#: Message kinds every FramedService answers itself, before the
#: subclass context hook runs -- so a scrape needs no handshake and
#: cannot be blocked by a busy dispatch path.
OBS_KINDS = frozenset({KIND_SERVICE_METRICS, KIND_SERVICE_HEALTH})

#: Accept cap: a connection is a thread, so a flood must not be able
#: to start threads without bound.  It also bounds how many requests a
#: service dispatches at once, since each connection thread runs one
#: request at a time.
MAX_CONNECTIONS = 128

#: How long ``stop()`` waits, in all, for the accept thread and every
#: connection thread to exit.
STOP_TIMEOUT_S = 10.0

#: Back-off after ``accept()`` fails while the listener is still
#: running (out of file descriptors or buffers: EMFILE, ENOBUFS, ...);
#: the pending connection waits in the backlog meanwhile.
ACCEPT_RETRY_S = 0.1


def _shutdown(sock: socket.socket) -> None:
    """Wake every thread blocked on ``sock``.  A bare ``close()`` does
    not: a thread blocked in ``accept()`` or ``recv()`` stays blocked."""
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)


class Listener:
    """A TCP listener: an accept thread and one thread per connection.

    Subclasses supply ``_handle_connection(conn, peer)``, which serves
    one accepted socket until it returns; transport and framing errors
    end only that connection.  Past :data:`MAX_CONNECTIONS` live
    connections, a new one is closed at once.  ``stop()`` shuts down
    the listening socket and every connection socket, then joins their
    threads.  A listener runs once: ``start()`` after ``stop()`` raises
    (build a new one to serve again).
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self.connection_rejections = 0
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        #: guards the connection registry, the counters and ``_stopping``
        self._lock = threading.Lock()
        #: connection thread -> the sockets ``stop()`` must shut down
        self._conns: dict[threading.Thread, list[socket.socket]] = {}
        self._stopping = False

    def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port).

        RuntimeError on a second call: a stopped listener stays stopped.
        """
        if self._sock is not None:
            raise RuntimeError(f"{type(self).__name__} was started already")
        self._sock = socket.create_server((self.host, self.port))
        self.address = self._sock.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"{type(self).__name__}:{self.address[1]} accept")
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        """Stop accepting, wake every connection, join their threads
        (all within :data:`STOP_TIMEOUT_S`)."""
        deadline = time.monotonic() + STOP_TIMEOUT_S
        with self._lock:
            self._stopping = True
        if self._sock is not None:
            _shutdown(self._sock)
        threads = [self._accept_thread] if self._accept_thread else []
        with self._lock:
            conns = list(self._conns.items())
        for thread, socks in conns:
            for sock in socks:
                _shutdown(sock)
            threads.append(thread)
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if self._sock is not None:
            self._sock.close()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._sock.accept()
            except OSError:
                with self._lock:
                    if self._stopping:
                        return  # the listening socket was shut down
                time.sleep(ACCEPT_RETRY_S)
                continue
            thread = threading.Thread(
                target=self._serve, args=(conn, peer), daemon=True,
                name=f"{type(self).__name__}:{self.address[1]} "
                     f"conn {peer[1]}")
            with self._lock:
                admitted = not self._stopping \
                    and len(self._conns) < MAX_CONNECTIONS
                if admitted:
                    # started under the lock, so ``stop()`` never sees
                    # a registered thread it cannot join
                    self._conns[thread] = [conn]
                    try:
                        thread.start()
                    except RuntimeError:  # no thread can start now
                        del self._conns[thread]
                        admitted = False
                if not admitted:
                    # flood defense: past the accept cap, close at once
                    # -- existing connections (health probes too) keep
                    # working
                    self.connection_rejections += 1
            if not admitted:
                conn.close()

    def _serve(self, conn: socket.socket, peer) -> None:
        try:
            self._handle_connection(nodelay(conn), peer)
        except (FrameError, OSError):
            pass  # broken peer or stopping: drop it, keep serving others
        finally:
            with self._lock:
                socks = self._conns.pop(threading.current_thread(), [])
            for sock in socks:
                sock.close()

    def _track(self, sock: socket.socket) -> None:
        """Have ``stop()`` shut down another socket of this connection
        (closed when the connection ends); refused once stopping."""
        with self._lock:
            if not self._stopping:
                self._conns[threading.current_thread()].append(sock)
                return
        sock.close()
        raise ConnectionAbortedError("listener is stopping")

    def _handle_connection(self, conn: socket.socket, peer) -> None:
        raise NotImplementedError


class FramedService(Listener):
    """A threaded TCP server answering framed request/response messages."""

    #: Canonical entity name used in traffic records (subclass sets it).
    entity_name = "service"

    #: Cap on distinct per-connection logs; connections beyond it share
    #: one ``"overflow"`` log so a long-lived service facing churning
    #: clients cannot grow ``connection_traffic`` without bound.
    MAX_CONNECTION_LOGS = 1024

    #: Cap on records *inside* each per-connection log: past it the log
    #: rotates, folding the oldest records into per-(sender, receiver,
    #: kind) totals, so memory stays bounded on a weeks-long service
    #: while ``total_bytes``/``message_count`` stay lifetime-exact.
    MAX_RECORDS_PER_LOG = 4096

    def __init__(self, host: str, port: int):
        super().__init__(host, port)
        #: per-connection traffic logs, keyed ``"<sender>#<peer-port>"``;
        #: body byte counts equal the serialization wire sizes.
        self.connection_traffic: dict[str, TrafficLog] = {}
        self.requests_served = 0
        GLOBAL_REGISTRY.register_collector(
            f"service.{id(self)}", self._obs_collect)

    # -- observability -------------------------------------------------------
    def _obs_collect(self) -> dict[str, int]:
        """Registry collector: request/connection/traffic aggregates."""
        with self._lock:
            logs = list(self.connection_traffic.values())
            readings = {
                "repro_service_requests_total": self.requests_served,
                "repro_service_connections_in_flight": len(self._conns),
                "repro_service_connection_logs": len(logs),
                "repro_service_connection_rejections_total":
                    self.connection_rejections,
            }
        readings["repro_service_traffic_bytes_total"] = sum(
            log.total_bytes() for log in logs)
        readings["repro_service_traffic_messages_total"] = sum(
            log.message_count() for log in logs)
        return readings

    def _health(self) -> HealthResponse:
        """Readiness hook; the base service is ready once it listens."""
        return HealthResponse(ready=True, state="serving", detail={})

    def _dispatch_obs(self, msg):
        """Answer a metrics/health probe from the shared registry."""
        if isinstance(msg, MetricsRequest):
            return MetricsResponse(service=self.entity_name,
                                   metrics=GLOBAL_REGISTRY.snapshot())
        if isinstance(msg, HealthRequest):
            return self._health()
        raise TypeError(f"not an observability message: {msg!r}")

    # -- subclass hooks ------------------------------------------------------
    def _wire_context(self) -> WireContext | None:
        """Decode context for incoming bodies (group field widths)."""
        raise NotImplementedError

    def _wire_context_for(self, header) -> WireContext | None:
        """Per-message context hook; lets a subclass answer context-free
        control messages without acquiring the full context first."""
        return self._wire_context()

    def _dispatch(self, msg, sender: str):
        """Answer one decoded message; exceptions become error frames."""
        raise NotImplementedError

    # -- connection handling -------------------------------------------------
    def _connection_log(self, sender: str, peer) -> TrafficLog:
        label = f"{sender}#{peer[1]}"
        with self._lock:
            if label not in self.connection_traffic and \
                    len(self.connection_traffic) >= self.MAX_CONNECTION_LOGS:
                label = "overflow"
            return self.connection_traffic.setdefault(
                label, TrafficLog(max_records=self.MAX_RECORDS_PER_LOG))

    def _answer(self, header, body: bytes, sender: str):
        """``(response, wire context)`` for one request frame."""
        if header.get("kind") in OBS_KINDS:
            # metrics/health are context-free and answered here, so
            # probes work on every service without a handshake and
            # without entering the (possibly busy) subclass dispatch path
            return self._dispatch_obs(decode_message(header, body, None)), None
        ctx = self._wire_context_for(header)
        return self._dispatch(decode_message(header, body, ctx), sender), ctx

    def _handle_connection(self, conn: socket.socket, peer) -> None:
        log: TrafficLog | None = None
        while True:
            frame = recv_frame(conn)
            if frame is None:
                return
            header, body = frame
            sender = str(header.get("from", f"{peer[0]}"))
            if log is None:
                log = self._connection_log(sender, peer)
            log.record(sender, self.entity_name,
                       str(header.get("kind")), len(body))
            ctx = None
            try:
                resp, ctx = self._answer(header, body, sender)
            except Exception as exc:
                resp = ErrorMessage(message=str(exc),
                                    error_type=type(exc).__name__)
            resp_header, resp_body = encode_message(resp, ctx)
            resp_header["seq"] = header.get("seq")
            log.record(self.entity_name, sender, resp_header["kind"],
                       len(resp_body))
            # counted before the send, so a peer holding its answer
            # always finds it counted
            with self._lock:
                self.requests_served += 1
            conn.sendall(encode_frame(resp_header, resp_body))

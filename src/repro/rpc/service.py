"""Shared asyncio server plumbing for the RPC services.

Both the authority key service and the training server speak the same
strict request/response protocol over framed TCP streams; this base
class owns the socket lifecycle, per-connection traffic accounting and
error framing, leaving subclasses one job: ``_dispatch`` a decoded
message to the entity behind it.

Connections are tracked so ``stop()`` tears them down deterministically
(no handler tasks left pending when the hosting loop closes); that
listening half, :class:`Listener`, also runs the chaos proxy.  A broken
or malicious peer only ever costs its own connection: decode errors are
answered with an ``error`` frame, transport errors drop the connection,
and the listener keeps serving everyone else.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.core.protocol import TrafficLog
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.rpc.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    read_frame,
    write_frame,
)
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


class Listener:
    """An asyncio TCP listener that tracks its connection handlers.

    ``stop()`` cancels them and awaits their exit, so no handler task
    is left pending when the hosting loop closes.  Subclasses supply
    ``_handle_connection``, which adds its task to ``_conn_tasks``.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    async def start(self) -> tuple[str, int]:
        """Bind the listening socket; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self) -> None:
        # connections close before the listener is awaited: since
        # Python 3.12.1 ``wait_closed`` waits for every open connection,
        # so an idle connected client would hang the stop
        if self._server is not None:
            self._server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a stream and wait for it, whatever state it is in."""
    with contextlib.suppress(Exception):
        writer.close()
    with contextlib.suppress(BaseException):
        await writer.wait_closed()


class FramedService(Listener):
    """An asyncio TCP server answering framed request/response messages."""

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

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 max_requests_per_connection: int | None = None,
                 max_inflight: int | None = None,
                 max_connections: int | None = None):
        super().__init__(host, port)
        self.max_frame_bytes = max_frame_bytes
        #: per-connection request quota: past it the connection gets one
        #: final ``QuotaExceeded`` error frame and is closed, so a
        #: hostile peer cannot monopolize the service from one socket
        self.max_requests_per_connection = max_requests_per_connection
        #: backpressure bound on concurrently *processing* requests
        #: (decode + dispatch + encode); observability probes bypass it
        #: so health stays answerable under load
        self.max_inflight = max_inflight
        #: accept cap: connections past it are closed immediately, so a
        #: connection flood cannot exhaust tasks/file descriptors
        self.max_connections = max_connections
        #: per-connection traffic logs, keyed ``"<sender>#<peer-port>"``;
        #: body byte counts equal the serialization wire sizes.
        self.connection_traffic: dict[str, TrafficLog] = {}
        self.requests_served = 0
        self.quota_rejections = 0
        self.connection_rejections = 0
        self.backpressure_waits = 0
        self._inflight_sem: asyncio.Semaphore | None = None
        GLOBAL_REGISTRY.register_collector(
            f"service.{id(self)}", self._obs_collect)

    # -- observability -------------------------------------------------------
    def _obs_collect(self) -> dict[str, int]:
        """Registry collector: request/connection/traffic aggregates."""
        total_bytes = 0
        total_messages = 0
        for log in list(self.connection_traffic.values()):
            total_bytes += log.total_bytes()
            total_messages += log.message_count()
        return {
            "repro_service_requests_total": self.requests_served,
            "repro_service_connections_in_flight": len(self._conn_tasks),
            "repro_service_traffic_bytes_total": total_bytes,
            "repro_service_traffic_messages_total": total_messages,
            "repro_service_connection_logs": len(self.connection_traffic),
            "repro_service_quota_rejections_total": self.quota_rejections,
            "repro_service_connection_rejections_total":
                self.connection_rejections,
            "repro_service_backpressure_waits_total":
                self.backpressure_waits,
        }

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

    def _inflight_semaphore(self) -> asyncio.Semaphore | None:
        """Lazily create the backpressure semaphore on the serving loop."""
        if self.max_inflight is None:
            return None
        if self._inflight_sem is None:
            self._inflight_sem = asyncio.Semaphore(self.max_inflight)
        return self._inflight_sem

    # -- subclass hooks ------------------------------------------------------
    async def _wire_context(self) -> WireContext | None:
        """Decode context for incoming bodies (group field widths)."""
        raise NotImplementedError

    async def _wire_context_for(self, header) -> WireContext | None:
        """Per-message context hook; lets a subclass answer context-free
        control messages without acquiring the full context first."""
        return await self._wire_context()

    async def _dispatch(self, msg, sender: str):
        """Answer one decoded message; exceptions become error frames."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------
    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- connection handling -------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if self.max_connections is not None \
                and len(self._conn_tasks) >= self.max_connections:
            # flood defense: past the accept cap, close immediately --
            # existing connections (including health probes) keep working
            self.connection_rejections += 1
            await close_writer(writer)
            return
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        peername = writer.get_extra_info("peername") or ("?", 0)
        log: TrafficLog | None = None
        requests_on_connection = 0
        try:
            while True:
                frame = await read_frame(reader, self.max_frame_bytes)
                if frame is None:
                    break
                header, body = frame
                requests_on_connection += 1
                if self.max_requests_per_connection is not None \
                        and requests_on_connection > \
                        self.max_requests_per_connection:
                    # one clear error frame, then hang up: the peer
                    # learns why instead of seeing a silent reset
                    self.quota_rejections += 1
                    err_header, err_body = encode_message(ErrorMessage(
                        message=f"connection exceeded its "
                                f"{self.max_requests_per_connection}"
                                f"-request quota",
                        error_type="QuotaExceeded"))
                    err_header["seq"] = header.get("seq")
                    await write_frame(writer, err_header, err_body)
                    break
                sender = str(header.get("from", f"{peername[0]}"))
                if log is None:
                    label = f"{sender}#{peername[1]}"
                    if label not in self.connection_traffic and \
                            len(self.connection_traffic) >= \
                            self.MAX_CONNECTION_LOGS:
                        label = "overflow"
                    log = self.connection_traffic.setdefault(
                        label, TrafficLog(max_records=self.MAX_RECORDS_PER_LOG))
                log.record(sender, self.entity_name,
                           str(header.get("kind")), len(body))
                ctx = None
                try:
                    if header.get("kind") in OBS_KINDS:
                        # metrics/health are context-free and answered
                        # here, so probes work on every service without
                        # a handshake, without entering the (possibly
                        # busy) subclass dispatch path, and without
                        # queueing behind the backpressure bound
                        msg = decode_message(header, body, None)
                        resp = self._dispatch_obs(msg)
                    else:
                        sem = self._inflight_semaphore()
                        if sem is not None and sem.locked():
                            self.backpressure_waits += 1
                        async with (sem if sem is not None
                                    else contextlib.nullcontext()):
                            ctx = await self._wire_context_for(header)
                            # decode/encode off-loop: a paper-scale
                            # upload body unpacks hundreds of thousands
                            # of integers, which must not stall every
                            # other connection
                            msg = await asyncio.to_thread(
                                decode_message, header, body, ctx)
                            resp = await self._dispatch(msg, sender)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    resp = ErrorMessage(message=str(exc),
                                        error_type=type(exc).__name__)
                resp_header, resp_body = await asyncio.to_thread(
                    encode_message, resp, ctx)
                resp_header["seq"] = header.get("seq")
                log.record(self.entity_name, sender, resp_header["kind"],
                           len(resp_body))
                await write_frame(writer, resp_header, resp_body)
                self.requests_served += 1
        except (FrameError, ConnectionError, asyncio.IncompleteReadError):
            pass  # broken peer: drop the connection, keep serving others
        except asyncio.CancelledError:
            pass  # service stopping: close the connection and exit cleanly
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            await close_writer(writer)

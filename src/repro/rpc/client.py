"""Client-side RPC: a sync endpoint facade and the remote-authority stub.

The trainers, secure layers and :class:`~repro.core.entities.Client` are
synchronous, and so is :class:`RpcEndpoint`: a blocking socket in the
caller's thread, whose ``request()`` bounds each attempt by one deadline
and reconnects and retries transparently.  Key derivation is
deterministic on the authority side, so resending a key request after a
transport failure is idempotent.

:class:`RemoteAuthority` is a drop-in replacement for
:class:`~repro.core.entities.TrustedAuthority` from the requester's
point of view: same ``params`` / ``config`` / ``feip`` / ``febo`` /
``traffic`` attributes, same public-key accessors, same
``derive_*_keys`` methods -- but every key request crosses a real
socket.  Master secrets never leave the authority's process tree.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import errno
import os
import queue
import random
import select
import socket
import threading
import time
from collections.abc import Sequence

from repro.core import protocol
from repro.core.protocol import TrafficLog
from repro.fe.febo import Febo
from repro.fe.feip import Feip
from repro.fe.keys import FeboFunctionKey, FeboPublicKey, FeipPublicKey
from repro.rpc.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    encode_frame,
    nodelay,
    recv_frame,
)
from repro.rpc.messages import (
    ErrorMessage,
    FeboKeyRequest,
    FeipKeyRequest,
    PublicParamsRequest,
    WireContext,
    decode_message,
    encode_message,
)
from repro.rpc.retry import RetryPolicy, RetryStats, merge_stats
from repro.obs.metrics import GLOBAL_REGISTRY


class RpcError(Exception):
    """Transport-level RPC failure that exhausted its retries."""


class RpcTimeoutError(RpcError):
    """A request that did not complete within its deadline."""


class RpcRemoteError(RpcError):
    """The peer answered with an error frame (not retried)."""

    def __init__(self, message: str, error_type: str = "RpcError"):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.remote_message = message


class RpcEndpoint:
    """One logical connection to an RPC service, usable from sync code.

    Requests are serialized per endpoint (one in flight at a time, which
    is all the strict request/response protocol allows per connection).
    Transport failures trigger a reconnect and one resend per remaining
    attempt of ``policy``; remote error frames raise immediately.

    Every exchanged message is recorded in ``traffic`` with its body
    length -- identical to the serialization wire sizes by construction.
    """

    def __init__(self, host: str, port: int, *, name: str = protocol.CLIENT,
                 peer: str = "service", timeout: float = 60.0,
                 connect_timeout: float = 10.0,
                 policy: RetryPolicy | None = None,
                 traffic: TrafficLog | None = None,
                 max_frame_bytes: int = MAX_FRAME_BYTES):
        self.host = host
        self.port = port
        self.name = name
        self.peer = peer
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        #: default: one resend, backing off 50 ms (full jitter, 1 s cap)
        self.policy = policy or RetryPolicy(max_attempts=2, base_delay=0.05,
                                            max_delay=1.0)
        #: fault/retry counters in the runtime-wide shared vocabulary
        self.stats = RetryStats()
        self.traffic = traffic if traffic is not None else TrafficLog()
        self.max_frame_bytes = max_frame_bytes
        self._lock = threading.Lock()
        self._retry_rng = random.Random()
        self._sock: socket.socket | None = None
        self._seq = 0
        self._connects = 0
        #: set by close(); backoff sleeps wait on it, so they wake at once
        self._closed = threading.Event()
        GLOBAL_REGISTRY.register_collector(
            f"rpc_endpoint.{id(self)}", self._obs_collect)

    def _obs_collect(self) -> dict[str, int]:
        """Registry collector: this endpoint's retry/fault counters.

        All live endpoints in the process sum into one
        ``repro_rpc_*_total`` family (``retry.merge_stats`` semantics,
        but at scrape time).
        """
        readings = {f"repro_rpc_{k}_total": v
                    for k, v in self.stats.snapshot().items()}
        readings["repro_rpc_endpoints"] = 1
        return readings

    def _closed_error(self, when: str = "is closed") -> RpcError:
        return RpcError(f"endpoint to {self.peer} at {self.host}:{self.port} "
                        f"{when}")

    # -- connection management -----------------------------------------------
    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _dial(self) -> socket.socket:
        """One TCP connect within ``connect_timeout``, awaited in 0.1 s
        slices: until it completes, close() has no socket to shut down,
        so the wait itself watches ``_closed``."""
        deadline = time.monotonic() + self.connect_timeout
        for family, kind, proto, _, addr in socket.getaddrinfo(
                self.host, self.port, type=socket.SOCK_STREAM):
            sock = socket.socket(family, kind, proto)
            try:
                sock.setblocking(False)
                err = sock.connect_ex(addr)
                poller = select.poll()
                poller.register(sock, select.POLLOUT)
                while err == errno.EINPROGRESS:
                    if self._closed.is_set():
                        raise self._closed_error("was closed mid-request")
                    if time.monotonic() >= deadline:
                        raise TimeoutError(f"connect to {self.peer} timed out")
                    if poller.poll(100):
                        err = sock.getsockopt(socket.SOL_SOCKET,
                                              socket.SO_ERROR)
            except BaseException:
                sock.close()
                raise
            if not err:
                return sock
            sock.close()
        raise OSError(err, os.strerror(err))

    def connect(self) -> None:
        """Connect under the retry policy's backoff, bounded by
        ``connect_timeout`` (the service may still be binding its socket
        when a client process starts -- or be restarting mid-run)."""
        if self.connected:
            return
        connect_policy = RetryPolicy(
            max_attempts=1_000_000, base_delay=self.policy.base_delay,
            max_delay=min(self.policy.max_delay, 0.5),
            multiplier=self.policy.multiplier, jitter=self.policy.jitter,
            deadline=self.connect_timeout)
        last_exc: Exception | None = None
        for _ in connect_policy.attempts(rng=self._retry_rng,
                                         sleep=self._closed.wait):
            if self._closed.is_set():  # closed by another thread mid-retry
                raise self._closed_error()
            try:
                sock = self._dial()
            except TimeoutError:
                raise  # the attempt's timeout, counted by request()
            except OSError as exc:
                last_exc = exc
                continue
            self._sock = nodelay(sock)
            # close() reads _sock after setting _closed: either it shuts
            # this socket down or this check sees the flag
            if self._closed.is_set():
                raise self._closed_error()
            self._connects += 1
            if self._connects > 1:
                self.stats.reconnects += 1
            return
        raise RpcError(
            f"cannot reach {self.peer} at "
            f"{self.host}:{self.port}: {last_exc}") from last_exc

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def _drop_if_idle(self) -> None:
        """Close the socket unless a request holds it; that request
        drops it on its way out."""
        if self._lock.acquire(blocking=False):
            try:
                self._drop_connection()
            finally:
                self._lock.release()

    def close(self) -> None:
        """Terminal: later requests raise instead of reconnecting.

        Never waits on a request in flight (e.g. a training thread
        blocked on a key request from another thread): shutting the
        socket down wakes its ``recv``, and a connect still in progress
        sees the flag within 0.1 s, so its caller fails fast with
        "closed mid-request" rather than waiting out its timeout.
        """
        self._closed.set()
        sock = self._sock
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        self._drop_if_idle()

    def __enter__(self) -> "RpcEndpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request/response ----------------------------------------------------
    def _exchange(self, frame_bytes: bytes, timeout: float):
        """Send one frame, read the response, all within ``timeout``."""
        # close() leaves the socket to the request holding the lock
        deadline = time.monotonic() + timeout
        self._sock.settimeout(timeout)
        self._sock.sendall(frame_bytes)
        frame = recv_frame(self._sock, deadline, self.max_frame_bytes)
        if frame is None:
            raise ConnectionError(f"{self.peer} closed the connection")
        return frame

    def request(self, msg, ctx: WireContext | None = None):
        """Send one message, return the decoded response (blocking).

        Transport failures (resets, frame errors, per-attempt timeouts)
        reconnect and resend under the endpoint's
        :class:`~repro.rpc.retry.RetryPolicy` -- exponential backoff
        with full jitter between attempts, never a zero-sleep reconnect
        spin.  ``_closed`` is re-checked before every attempt (and the
        backoff sleep wakes on it), so a concurrent ``close()`` fails
        the request fast instead of letting it reconnect and resend.
        """
        try:
            with self._lock:
                return self._request(msg, ctx)
        finally:
            if self._closed.is_set():  # a close() that found the lock held
                self._drop_if_idle()

    def _request(self, msg, ctx: WireContext | None):
        if self._closed.is_set():
            raise self._closed_error()
        header, body = encode_message(msg, ctx)
        self._seq += 1
        header["seq"] = self._seq
        # encode once, checking the size limit BEFORE any bytes move --
        # an oversized frame fails fast with the real reason instead of
        # burning retries on receiver-side drops
        frame_bytes = encode_frame(header, body, self.max_frame_bytes)
        last_exc: Exception | None = None
        start = time.monotonic()
        attempts_made = 0
        for attempt in self.policy.attempts(
                rng=self._retry_rng, sleep=self._closed.wait):
            if self._closed.is_set():
                # a concurrent close() mid-retry must not let the loop
                # reconnect and resend
                raise self._closed_error("was closed mid-request")
            attempts_made = attempt
            self.stats.attempts += 1
            if attempt > 1:
                self.stats.retries += 1
            timeout = self.policy.attempt_timeout_for(
                start, default=self.timeout)
            try:
                if not self.connected:
                    self.connect()
                resp_header, resp_body = self._exchange(frame_bytes, timeout)
            except (OSError, FrameError) as exc:
                self._drop_connection()
                if self._closed.is_set():
                    raise self._closed_error(
                        "was closed mid-request") from None
                if isinstance(exc, TimeoutError):
                    self.stats.timeouts += 1
                    last_exc = RpcTimeoutError(
                        f"{self.peer} at {self.host}:{self.port} did not "
                        f"answer within {timeout}s")
                else:
                    self.stats.drops += 1
                    last_exc = exc
                continue
            self.traffic.record(self.name, self.peer, header["kind"],
                                len(body))
            self.traffic.record(self.peer, self.name,
                                str(resp_header.get("kind")), len(resp_body))
            resp = decode_message(resp_header, resp_body, ctx)
            if isinstance(resp, ErrorMessage):
                raise RpcRemoteError(resp.message, resp.error_type)
            if resp_header.get("seq") != header["seq"]:
                self._drop_connection()
                raise RpcError(
                    f"out-of-sequence response from {self.peer} "
                    f"(sent {header['seq']}, got {resp_header.get('seq')})")
            return resp
        self.stats.giveups += 1
        raise RpcError(
            f"request {header['kind']!r} to {self.peer} at "
            f"{self.host}:{self.port} failed after "
            f"{attempts_made} attempts: {last_exc}") from last_exc


#: FEBO key requests a :class:`RemoteAuthority` keeps in flight at once
#: (:meth:`RemoteAuthority.derive_febo_key_sets`), one connection each.
#: On ``mlp-rpc`` (2-core VM, 256-bit serve-authority on its 2-worker
#: pool) 4 in flight was no faster than 2, and 2 uses fewer threads,
#: connections and memory; see ROADMAP "Distributed runtime"
KEY_FETCHES_IN_FLIGHT = 2


class _InFlight:
    """Key lists of requests already sent, yielded in request order.

    ``close()`` cancels the requests that have not started; a
    cancelled one surfaces as an :class:`RpcError` from ``next()``.
    """

    def __init__(self, futures: list[concurrent.futures.Future]):
        self._futures = collections.deque(futures)

    def __iter__(self) -> "_InFlight":
        return self

    def __next__(self) -> list[FeboFunctionKey]:
        if not self._futures:
            raise StopIteration
        try:
            return self._futures.popleft().result()
        except concurrent.futures.CancelledError:
            raise RpcError("key fetch cancelled: the authority link "
                           "was closed") from None

    def close(self) -> None:
        while self._futures:
            self._futures.popleft().cancel()


class RemoteAuthority:
    """Networked stand-in for :class:`~repro.core.entities.TrustedAuthority`.

    On construction it performs the ``public-params`` handshake: group
    parameters and the authority's config come over the wire, local
    :class:`Feip` / :class:`Febo` instances are built for the public
    operations (encrypt / decrypt_raw need no secrets), and public keys
    are fetched lazily per vector length and cached.

    Every request travels on the handshake ``endpoint`` except those of
    :meth:`derive_febo_key_sets`, which keeps up to
    :data:`KEY_FETCHES_IN_FLIGHT` requests in flight from as many fetch
    threads, each on a connection of its own: the handshake endpoint
    plus endpoints opened on first use with the same retry policy and
    timeouts.  All of them record into the one ``traffic`` log.
    :meth:`close` closes every endpoint and stops the fetch threads.
    """

    def __init__(self, host: str, port: int, *, name: str = protocol.SERVER,
                 rng: random.Random | None = None, timeout: float = 120.0,
                 connect_timeout: float = 10.0,
                 policy: RetryPolicy | None = None):
        self.endpoint = RpcEndpoint(
            host, port, name=name, peer=protocol.AUTHORITY, timeout=timeout,
            connect_timeout=connect_timeout, policy=policy)
        self.name = name
        try:
            resp = self.endpoint.request(PublicParamsRequest(
                etas=(), include_febo=True, requester=name))
        except BaseException:
            # a failed handshake must not leak the endpoint's socket
            self.endpoint.close()
            raise
        self.params = resp.group
        self.config = resp.make_config()
        self._ctx = WireContext(self.params)
        self.feip = Feip(self.params, rng=rng)
        self.febo = Febo(self.params, rng=rng)
        self._feip_mpks: dict[int, FeipPublicKey] = dict(resp.feip_keys)
        self._febo_mpk: FeboPublicKey | None = resp.febo_key
        # the fetch threads and their connections, made on first use
        self._lock = threading.Lock()
        self._closed = False
        self._endpoints = [self.endpoint]
        self._idle: queue.SimpleQueue[RpcEndpoint] = queue.SimpleQueue()
        self._idle.put(self.endpoint)
        self._fetcher: concurrent.futures.ThreadPoolExecutor | None = None

    @property
    def traffic(self) -> TrafficLog:
        return self.endpoint.traffic

    @property
    def wire_ctx(self) -> WireContext:
        """Decode context (group widths) for talking to other services."""
        return self._ctx

    # -- public keys ---------------------------------------------------------
    def feip_public_key(self, eta: int) -> FeipPublicKey:
        if eta not in self._feip_mpks:
            resp = self.endpoint.request(
                PublicParamsRequest(etas=(eta,), include_febo=False,
                                    requester=self.name),
                self._ctx)
            self._feip_mpks[eta] = resp.feip_keys[eta]
        return self._feip_mpks[eta]

    def febo_public_key(self) -> FeboPublicKey:
        if self._febo_mpk is None:
            resp = self.endpoint.request(
                PublicParamsRequest(etas=(), include_febo=True,
                                    requester=self.name),
                self._ctx)
            self._febo_mpk = resp.febo_key
        return self._febo_mpk

    # -- function keys -------------------------------------------------------
    def _feip_request(self, rows, batched: bool):
        if not rows:
            return []
        rows = [[int(v) for v in row] for row in rows]
        resp = self.endpoint.request(
            FeipKeyRequest(rows=rows, batched=batched, requester=self.name),
            self._ctx)
        return resp.keys

    def derive_feip_keys(self, rows, requester: str | None = None):
        return self._feip_request(rows, batched=False)

    def derive_feip_keys_batch(self, rows, requester: str | None = None):
        return self._feip_request(rows, batched=True)

    def _febo_request(self, requests, batched: bool,
                      endpoint: RpcEndpoint | None = None):
        if not requests:
            return []
        requests = [(int(cmt), str(op), int(y)) for cmt, op, y in requests]
        resp = (endpoint or self.endpoint).request(
            FeboKeyRequest(requests=requests, batched=batched,
                           requester=self.name),
            self._ctx)
        # the wire drops per-key commitments (the requester knows them);
        # re-attach so decrypt-time consistency checks stay armed
        return [
            FeboFunctionKey(op=key.op, y=key.y, sk=key.sk, cmt=cmt)
            for key, (cmt, _, _) in zip(resp.keys, requests)
        ]

    def derive_febo_keys(self, requests, requester: str | None = None):
        return self._febo_request(requests, batched=False)

    def derive_febo_keys_batch(self, requests, requester: str | None = None):
        return self._febo_request(requests, batched=True)

    def derive_febo_key_sets(self, request_lists: Sequence[list],
                             batched: bool, requester: str | None = None
                             ) -> _InFlight:
        """Send every request list now; yield their key lists in order.

        Each list is one ``FeboKeyRequest``, exactly as
        :meth:`derive_febo_keys(_batch)` sends it, so the wire bytes and
        round trips equal one call per list; only up to
        :data:`KEY_FETCHES_IN_FLIGHT` of them wait on the authority at
        once instead of one.
        """
        with self._lock:
            if self._closed:
                raise RpcError("the authority link is closed")
            if self._fetcher is None:
                self._fetcher = concurrent.futures.ThreadPoolExecutor(
                    KEY_FETCHES_IN_FLIGHT,
                    thread_name_prefix=f"febo-fetch-{self.name}")
            return _InFlight([
                self._fetcher.submit(self._fetch, requests, batched)
                for requests in request_lists])

    def _fetch(self, requests, batched: bool):
        """One fetch thread's request, on an idle connection."""
        try:
            endpoint = self._idle.get_nowait()
        except queue.Empty:
            # every connection is busy: at most KEY_FETCHES_IN_FLIGHT
            # fetches run at once, so at most that many ever exist
            with self._lock:
                if self._closed:
                    raise RpcError("the authority link is closed") from None
                first = self.endpoint
                endpoint = RpcEndpoint(
                    first.host, first.port, name=first.name,
                    peer=first.peer, timeout=first.timeout,
                    connect_timeout=first.connect_timeout,
                    policy=first.policy, traffic=first.traffic,
                    max_frame_bytes=first.max_frame_bytes)
                self._endpoints.append(endpoint)
        try:
            return self._febo_request(requests, batched, endpoint)
        finally:
            self._idle.put(endpoint)

    def fetch_stats(self) -> dict[str, int]:
        """Retry counters of the connections opened for
        :meth:`derive_febo_key_sets` beside ``endpoint``, summed."""
        with self._lock:
            extra = self._endpoints[1:]
        return merge_stats(*(e.stats.snapshot() for e in extra))

    def close(self) -> None:
        """Close every connection, then stop the fetch threads: a fetch
        in flight fails fast on its closed endpoint."""
        with self._lock:
            self._closed = True
            endpoints, fetcher = list(self._endpoints), self._fetcher
        if fetcher is not None:
            fetcher.shutdown(wait=False, cancel_futures=True)
        for endpoint in endpoints:
            endpoint.close()
        if fetcher is not None:
            fetcher.shutdown(wait=True)

    def __enter__(self) -> "RemoteAuthority":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

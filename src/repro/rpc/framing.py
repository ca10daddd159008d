"""Length-prefixed binary framing over TCP.

Every RPC frame is::

    [4-byte frame length L][4-byte header length H][H bytes JSON header]
    [L - 4 - H bytes binary body]

The JSON header carries the message kind plus small metadata (counts,
vector lengths, sequence numbers); the body is the byte-accurate binary
payload produced by :mod:`repro.core.serialization`, so ``len(body)``
equals the wire-size formulas the traffic accounting uses.  The frame
length excludes its own 4-byte prefix and is bounded by
``max_frame_bytes`` so a corrupt or hostile peer cannot make a service
allocate unbounded memory.

Only this module knows the frame layout.  Every reader -- the services,
the chaos proxy and :class:`~repro.rpc.client.RpcEndpoint` -- takes
frames off a blocking socket through :func:`recv_raw_frame`, so all of
them check lengths alike.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from typing import Any

#: Default ceiling on one frame.  Encrypted-dataset uploads dominate; a
#: 256-bit group with thousands of samples stays well below this.
MAX_FRAME_BYTES = 128 * 1024 * 1024

#: Ceiling on the JSON header alone, independent of the frame limit.
#: Headers carry kind + counts + small metadata (the largest legitimate
#: one is an upload's eval-label list); a corrupted or hostile header
#: length must not make either side -- services *or* clients -- try to
#: json-decode tens of megabytes.
MAX_HEADER_BYTES = 8 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameError(Exception):
    """A malformed, truncated, or oversized frame."""


def encode_frame(header: dict[str, Any], body: bytes = b"",
                 max_frame_bytes: int | None = None) -> bytes:
    """Serialize one frame to bytes (the sans-IO core of the framing).

    Passing ``max_frame_bytes`` makes oversized frames fail *before*
    anything is sent -- the sender gets the real reason instead of the
    receiver silently dropping the connection mid-transfer.
    """
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    total = 4 + len(header_bytes) + len(body)
    if max_frame_bytes is not None and total > max_frame_bytes:
        raise FrameError(
            f"frame of {total} bytes exceeds limit {max_frame_bytes} "
            f"(kind {header.get('kind')!r}); raise max_frame_bytes or "
            f"split the payload")
    return _LEN.pack(total) + _LEN.pack(len(header_bytes)) + header_bytes + body


def frame_length(prefix: bytes, max_frame_bytes: int) -> int:
    """The payload length a 4-byte prefix announces, checked before any
    payload byte is awaited (:class:`FrameError` if out of bounds)."""
    total = _LEN.unpack(prefix)[0]
    if total < 4:
        raise FrameError(f"frame length {total} below header prefix size")
    if total > max_frame_bytes:
        raise FrameError(
            f"frame of {total} bytes exceeds limit {max_frame_bytes}")
    return total


def header_span(frame: bytes) -> tuple[int, int]:
    """Where a whole frame's header-length field puts its JSON header."""
    return 8, 8 + _LEN.unpack(frame[4:8])[0]


def decode_frame_payload(payload: bytes) -> tuple[dict[str, Any], bytes]:
    """Split a frame payload (everything after the length prefix)."""
    if len(payload) < 4:
        raise FrameError("frame payload shorter than its header prefix")
    header_len = _LEN.unpack(payload[:4])[0]
    if header_len > MAX_HEADER_BYTES:
        raise FrameError(
            f"frame header of {header_len} bytes exceeds limit "
            f"{MAX_HEADER_BYTES}")
    if header_len > len(payload) - 4:
        raise FrameError(
            f"header length {header_len} exceeds frame payload "
            f"({len(payload) - 4} bytes)")
    try:
        header = json.loads(payload[4:4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise FrameError("frame header must be a JSON object")
    return header, payload[4 + header_len:]


def nodelay(sock: socket.socket) -> socket.socket:
    """``sock`` with Nagle off, so a frame's last segment never waits
    for the ACK of the one before it."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _recv_exactly(sock: socket.socket, size: int,
                  deadline: float | None) -> bytes:
    """``size`` bytes from ``sock`` by ``deadline`` (None: however long
    it takes), fewer only at EOF."""
    chunks: list[bytes] = []
    got = 0
    while got < size:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("frame did not arrive by its deadline")
            sock.settimeout(remaining)
        chunk = sock.recv(size - got)
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)  # one chunk: no copy


def recv_raw_frame(sock: socket.socket, deadline: float | None = None,
                   max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes | None:
    """One frame's raw bytes, length prefix included, from a blocking
    socket; ``None`` on clean EOF at a frame boundary,
    :class:`FrameError` if truncated or over ``max_frame_bytes``.

    ``deadline`` (a :func:`time.monotonic` instant) bounds the whole
    frame, not each ``recv``: past it, even a peer trickling bytes
    raises TimeoutError.  Without one the read waits as long as the
    peer does, which is how a service waits for the next request.
    """
    prefix = _recv_exactly(sock, 4, deadline)
    if not prefix:
        return None
    if len(prefix) < 4:
        raise FrameError("connection closed mid frame-length")
    total = frame_length(prefix, max_frame_bytes)
    payload = _recv_exactly(sock, total, deadline)
    if len(payload) < total:
        raise FrameError("connection closed mid frame")
    return prefix + payload


def recv_frame(sock: socket.socket, deadline: float | None = None,
               max_frame_bytes: int = MAX_FRAME_BYTES
               ) -> tuple[dict[str, Any], bytes] | None:
    """:func:`recv_raw_frame`, decoded into ``(header, body)``;
    :class:`FrameError` also if the header is undecodable."""
    frame = recv_raw_frame(sock, deadline, max_frame_bytes)
    return None if frame is None else decode_frame_payload(frame[4:])

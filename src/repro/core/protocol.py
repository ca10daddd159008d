"""Protocol messages and traffic accounting.

The CryptoNN entities exchange four message kinds:

* ``public-params`` (authority -> everyone, once),
* ``encrypted-data`` (client -> server, once per dataset),
* ``feip-key-request`` / ``feip-key-response`` (server <-> authority, per
  iteration -- the paper's k x n x |w| up, k x |sk| down),
* ``febo-key-request`` / ``febo-key-response`` (server <-> authority).

Entities run in-process here (the paper's prototype did too), but every
logical message is recorded with its byte-accurate wire size in a
:class:`TrafficLog`, which the communication-overhead bench
(`benchmarks/bench_communication.py`) compares against the closed-form
formula of Section IV-B2.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TrafficRecord:
    """One logical message."""

    sender: str
    receiver: str
    kind: str
    n_bytes: int


@dataclass
class TrafficLog:
    """Log of protocol messages with aggregate queries.

    Unbounded by default (one :class:`TrafficRecord` per message, the
    right tool for experiments that inspect individual messages).  With
    ``max_records`` set, the log *rotates*: once the list exceeds the
    cap, the oldest records are folded into per-``(sender, receiver,
    kind)`` running totals, so a weeks-long service under real traffic
    holds a bounded record list while ``total_bytes`` /
    ``message_count`` / ``by_kind`` keep reporting exact lifetime
    aggregates -- the accounting the Section IV-B2 checks compare
    against is preserved to the byte.

    Thread-safe: one log may be written from several threads (the
    authority service derives concurrent requests in parallel, and a
    :class:`~repro.rpc.client.RemoteAuthority` shares one log across
    its connections), so appends, rotation and the aggregate queries
    all run under one lock.
    """

    records: list[TrafficRecord] = field(default_factory=list)
    #: rotation threshold; ``None`` keeps every record forever.
    max_records: int | None = None
    #: (sender, receiver, kind) -> [message count, byte total] for
    #: records already rotated out of ``records``.
    rotated: dict[tuple[str, str, str], list[int]] = field(
        default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, sender: str, receiver: str, kind: str, n_bytes: int) -> None:
        """Append one message; past ``max_records``, fold the oldest
        half of ``records`` into the running totals (amortized O(1)
        per message instead of shifting the whole list every append).
        """
        if n_bytes < 0:
            raise ValueError("message size cannot be negative")
        with self._lock:
            self.records.append(TrafficRecord(sender, receiver, kind,
                                              n_bytes))
            if self.max_records is None \
                    or len(self.records) <= self.max_records:
                return
            keep = max(1, self.max_records // 2)
            overflow, self.records = \
                self.records[:-keep], self.records[-keep:]
            for r in overflow:
                entry = self.rotated.setdefault(
                    (r.sender, r.receiver, r.kind), [0, 0])
                entry[0] += 1
                entry[1] += r.n_bytes

    def _matching(self, sender: str | None, receiver: str | None,
                  kind: str | None) -> tuple[int, int]:
        """(message count, byte total) of every record, live or
        rotated, matching the filters; one consistent snapshot."""
        def match(s: str, rcv: str, k: str) -> bool:
            return (sender is None or s == sender) \
                and (receiver is None or rcv == receiver) \
                and (kind is None or k == kind)
        count = n_bytes = 0
        with self._lock:
            for r in self.records:
                if match(r.sender, r.receiver, r.kind):
                    count += 1
                    n_bytes += r.n_bytes
            for key, (rotated_count, rotated_bytes) in self.rotated.items():
                if match(*key):
                    count += rotated_count
                    n_bytes += rotated_bytes
        return count, n_bytes

    def total_bytes(self, sender: str | None = None,
                    receiver: str | None = None,
                    kind: str | None = None) -> int:
        """Sum of message sizes, optionally filtered on any field."""
        return self._matching(sender, receiver, kind)[1]

    def message_count(self, kind: str | None = None) -> int:
        return self._matching(None, None, kind)[0]

    def by_kind(self) -> dict[str, int]:
        """Total bytes per message kind."""
        totals: dict[str, int] = defaultdict(int)
        with self._lock:
            for r in self.records:
                totals[r.kind] += r.n_bytes
            for (_, _, kind), (_, n_bytes) in self.rotated.items():
                totals[kind] += n_bytes
        return dict(totals)

    def clear(self) -> None:
        with self._lock:
            self.records.clear()
            self.rotated.clear()


# Canonical entity names used in records.
AUTHORITY = "authority"
SERVER = "server"
CLIENT = "client"

# Message kinds.
KIND_PUBLIC_PARAMS = "public-params"
KIND_ENCRYPTED_DATA = "encrypted-data"
KIND_FEIP_KEY_REQUEST = "feip-key-request"
KIND_FEIP_KEY_RESPONSE = "feip-key-response"
KIND_FEBO_KEY_REQUEST = "febo-key-request"
KIND_FEBO_KEY_RESPONSE = "febo-key-response"

# Batched variants: many logical key requests coalesced into one framed
# envelope (paper Section IV-B2's k x n x |w| upload as a single message).
# Sizes include the envelope header, so batched totals exceed the raw
# payload by BATCH_HEADER_BYTES per message while the message *count*
# collapses to one per iteration step.
KIND_FEIP_KEY_BATCH_REQUEST = "feip-key-batch-request"
KIND_FEIP_KEY_BATCH_RESPONSE = "feip-key-batch-response"
KIND_FEBO_KEY_BATCH_REQUEST = "febo-key-batch-request"
KIND_FEBO_KEY_BATCH_RESPONSE = "febo-key-batch-response"

"""Deterministic fault injection over real sockets.

:class:`ChaosProxy` is a threaded TCP proxy that sits between any RPC
client and service and injects transport faults from a *seeded
schedule*: the fault decision for exchange ``k`` is a pure function of
``(seed, k)``, so every test scenario -- and every
``examples/rpc_loopback.py --chaos-seed`` run -- is reproducible.

The proxy reads whole frames with the framing layer's raw reader
(:func:`~repro.rpc.framing.recv_raw_frame`) to delimit
request/response exchanges -- it never decodes them -- which is what
makes per-exchange fault decisions possible:

* ``reset-before`` -- connection reset before the request frame reaches
  the service (the service never sees it);
* ``reset-after``  -- the service processes the request, but the
  response is dropped and the connection reset (tests idempotency of
  the retried request);
* ``stall``        -- the request is blackholed and the connection held
  open silently until the client times out and hangs up;
* ``truncate``     -- the response frame is cut mid-body, then reset;
* ``corrupt``      -- response header bytes are flipped so the framing
  layer rejects the frame (``FrameError``) and the client retries.
  Corruption targets the *header*: the body is length-delimited binary
  with no checksum, so only header corruption is reliably detected --
  the chaos layer injects what the framing layer can catch;
* ``delay``        -- added latency before the response.

Every fault is visible to the client as a transport error (reset, frame
error, or timeout), which the :class:`~repro.rpc.retry.RetryPolicy`
machinery retries; key derivation is deterministic and idempotent, so a
training run through heavy chaos reproduces the clean run's weights and
loss curve byte-for-byte (the chaos test suite pins this).

With concurrent client connections the *assignment* of exchange indices
to connections follows socket timing, but the fault sequence itself is
still the seeded one; the strictly sequential training loop -- the case
the acceptance tests script -- is fully deterministic.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass

from repro.rpc.framing import header_span, nodelay, recv_raw_frame
from repro.rpc.service import Listener

#: Fault kinds in schedule-draw order (the order matters: one uniform
#: draw per exchange walks this list's cumulative rates).
FAULT_KINDS = ("reset-before", "reset-after", "stall", "truncate",
               "corrupt", "delay")


@dataclass(frozen=True)
class ChaosConfig:
    """Per-fault injection rates plus fault shaping knobs.

    Rates are independent probabilities that must sum to <= 1; the
    remainder is the clean-exchange probability.  ``delay_s`` is the
    added latency of a ``delay`` fault; ``stall_s`` caps how long a
    ``stall`` holds the connection if the client never hangs up (a
    correctly configured client times out first).
    """

    reset_before: float = 0.0
    reset_after: float = 0.0
    stall: float = 0.0
    truncate: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    delay_s: float = 0.05
    stall_s: float = 30.0

    def __post_init__(self) -> None:
        total = 0.0
        for kind in FAULT_KINDS:
            rate = getattr(self, kind.replace("-", "_"))
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate {kind} must be in [0, 1]")
            total += rate
        if total > 1.0:
            raise ValueError(f"fault rates sum to {total} > 1")

    @classmethod
    def uniform(cls, rate: float, **kwargs) -> "ChaosConfig":
        """Spread ``rate`` evenly across every fault kind."""
        per = rate / len(FAULT_KINDS)
        return cls(**{kind.replace("-", "_"): per for kind in FAULT_KINDS},
                   **kwargs)


class ChaosSchedule:
    """Deterministic fault schedule: exchange index -> fault (or None).

    Decisions are the draws of one seeded RNG consumed in exchange
    order, memoized so ``fault_for(k)`` is a stable pure function for
    the schedule's lifetime -- ask twice, get the same answer.
    """

    def __init__(self, seed: int, config: ChaosConfig):
        self.seed = seed
        self.config = config
        self._rng = random.Random(seed)
        self._decisions: list[str | None] = []
        self._lock = threading.Lock()

    def _draw(self) -> str | None:
        roll = self._rng.random()
        cumulative = 0.0
        for kind in FAULT_KINDS:
            cumulative += getattr(self.config, kind.replace("-", "_"))
            if roll < cumulative:
                return kind
        return None

    def fault_for(self, index: int) -> str | None:
        with self._lock:
            while len(self._decisions) <= index:
                self._decisions.append(self._draw())
            return self._decisions[index]


class ChaosProxy(Listener):
    """Seeded fault-injecting TCP proxy for one upstream service.

    Runs on the RPC services' :class:`~repro.rpc.service.Listener` (an
    accept thread, one thread per connection, ``start() -> (host,
    port)`` / ``stop()``), so tests and examples stand it up exactly
    like a real service; it binds a free loopback port.  Each
    connection relays raw frames between two blocking sockets, the
    client's and its own to the upstream.  ``stats`` counts
    connections, exchanges and injected faults by kind.

    Frames are read whole with :func:`~repro.rpc.framing.recv_raw_frame`,
    up to :data:`~repro.rpc.framing.MAX_FRAME_BYTES`.
    """

    def __init__(self, upstream_host: str, upstream_port: int, *,
                 seed: int = 0, config: ChaosConfig | None = None):
        super().__init__("127.0.0.1", 0)
        self.upstream = (upstream_host, upstream_port)
        self.schedule = ChaosSchedule(
            seed, config if config is not None else ChaosConfig())
        self.stats: Counter = Counter()

    def _next_fault(self) -> str | None:
        """Count one exchange; the schedule's fault for it, if any."""
        with self._lock:
            fault = self.schedule.fault_for(self.stats["exchanges"])
            self.stats["exchanges"] += 1
            if fault is not None:
                self.stats[fault] += 1
        return fault

    # -- fault shaping -------------------------------------------------------
    @staticmethod
    def _corrupt_header(frame: bytes) -> bytes:
        """Flip bytes inside the JSON header so decoding must fail.

        The flipped bytes are invalid UTF-8, so the receiving framing
        layer raises ``FrameError`` deterministically instead of
        silently delivering a corrupted payload.
        """
        start, end = header_span(frame)
        end = min(max(end, start + 1), len(frame))
        return frame[:start] + b"\xff" * (end - start) + frame[end:]

    # -- per-connection pump -------------------------------------------------
    def _handle_connection(self, client: socket.socket, peer) -> None:
        with self._lock:
            self.stats["connections"] += 1
        config = self.schedule.config
        # a bounded connect: ``stop()`` cannot wake a thread blocked in
        # one; tracked at once, so any later error closes the socket
        upstream = socket.create_connection(self.upstream,
                                            timeout=config.stall_s)
        self._track(upstream)
        upstream.settimeout(None)
        nodelay(upstream)
        while True:
            request = recv_raw_frame(client)
            if request is None:
                return
            fault = self._next_fault()
            if fault == "reset-before":
                # the service never sees this request
                return
            if fault == "stall":
                # blackhole: hold the connection silently until the
                # client gives up (its timeout) or the stall cap passes
                client.settimeout(config.stall_s)
                client.recv(1)
                return
            upstream.sendall(request)
            response = recv_raw_frame(upstream)
            if response is None:
                return
            if fault == "reset-after":
                # the service answered; the client never hears it
                return
            if fault == "truncate":
                client.sendall(response[:max(5, len(response) // 2)])
                return
            if fault == "corrupt":
                # the client will detect the bad frame and hang up
                client.sendall(self._corrupt_header(response))
                continue
            if fault == "delay":
                time.sleep(config.delay_s)
            client.sendall(response)

    def fault_summary(self) -> dict[str, int]:
        """Counters in the shared fault-report vocabulary plus per-kind
        injection counts (composes with RetryStats snapshots)."""
        with self._lock:
            stats = Counter(self.stats)
        summary = {f"injected_{kind}": stats[kind] for kind in FAULT_KINDS}
        summary["exchanges"] = stats["exchanges"]
        summary["connections"] = stats["connections"]
        summary["drops"] = sum(
            stats[kind]
            for kind in ("reset-before", "reset-after", "truncate", "corrupt"))
        summary["timeouts"] = stats["stall"]
        return summary

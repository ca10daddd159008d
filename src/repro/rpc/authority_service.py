"""The authority key service: CryptoNN's trusted authority behind a socket.

Wraps a :class:`~repro.core.entities.TrustedAuthority` in a threaded TCP
server speaking the framed message protocol.  The service answers

* ``public-params`` -- group parameters, config, and public keys;
* ``feip-key-request`` / ``feip-key-batch-request`` -- inner-product
  function keys for weight rows (the per-iteration exchange of Section
  IV-B2);
* ``febo-key-request`` / ``febo-key-batch-request`` -- per-ciphertext
  basic-operation keys.

Master secrets never cross the wire: only derived function keys and
public keys do, exactly as the paper's architecture (Fig. 1) requires.
Policy and permitted-op checks run inside the wrapped authority, so a
rejected request comes back as an ``error`` frame carrying the original
exception type.  Each connection gets its own
:class:`~repro.core.protocol.TrafficLog` whose byte counts equal the
:mod:`repro.core.serialization` wire sizes by construction.  Requests
on different connections derive in parallel, each on its connection's
thread (a training server keeps several feature-key requests in
flight); the wrapped authority locks its own bookkeeping, and the
connection cap (:data:`~repro.rpc.service.MAX_CONNECTIONS`) is the only
bound.

:func:`run_authority_service` (``serve-authority``) gives the authority
a worker pool of its own for the FEBO masks ``cmt^s`` its memo lacks,
one process per CPU it may use, so the master key never leaves the
authority's process tree.  It stops the same way on SIGINT and
SIGTERM: the service closes, then the pool.
"""

from __future__ import annotations

import dataclasses
import threading

from repro.core import protocol
from repro.core.entities import TrustedAuthority
from repro.matrix.parallel import SecureComputePool, service_workers
from repro.rpc.messages import (
    ErrorMessage,
    FeboKeyRequest,
    FeboKeyResponse,
    FeipKeyRequest,
    FeipKeyResponse,
    PublicParamsRequest,
    PublicParamsResponse,
    WireContext,
)
from repro.rpc.runtime import run_until_stopped
from repro.rpc.service import FramedService


class AuthorityService(FramedService):
    """Threaded TCP server answering key requests from clients and servers."""

    entity_name = protocol.AUTHORITY

    def __init__(self, authority: TrustedAuthority, host: str = "127.0.0.1",
                 port: int = 0):
        super().__init__(host, port)
        self.authority = authority
        # a long-running service must also bound the *entity's* logical
        # accounting log, which grows two records per key exchange; the
        # socket-side per-connection logs are bounded by the base class
        if authority.traffic.max_records is None:
            authority.traffic.max_records = self.MAX_RECORDS_PER_LOG

    def _wire_context(self) -> WireContext:
        return WireContext(self.authority.params)

    def _dispatch(self, msg, sender: str):
        if isinstance(msg, PublicParamsRequest):
            feip_keys = {int(eta): self.authority.feip_public_key(int(eta))
                         for eta in msg.etas}
            febo_key = (self.authority.febo_public_key()
                        if msg.include_febo else None)
            return PublicParamsResponse(
                group=self.authority.params,
                config=dataclasses.asdict(self.authority.config),
                feip_keys=feip_keys,
                febo_key=febo_key,
            )
        if isinstance(msg, FeipKeyRequest):
            derive = (self.authority.derive_feip_keys_batch if msg.batched
                      else self.authority.derive_feip_keys)
            return FeipKeyResponse(keys=derive(msg.rows, sender),
                                   batched=msg.batched)
        if isinstance(msg, FeboKeyRequest):
            derive = (self.authority.derive_febo_keys_batch if msg.batched
                      else self.authority.derive_febo_keys)
            return FeboKeyResponse(keys=derive(msg.requests, sender),
                                   batched=msg.batched)
        return ErrorMessage(
            message=f"authority service cannot answer {msg.kind!r}",
            error_type="UnsupportedMessage")


#: smallest group ``serve-authority`` raises FEBO masks on workers for:
#: the measured crossover of a 64-key request.  On a 2-core VM the
#: pooled ``mlp-rpc`` key fetch lost at 64 and 80 bits, tied at 96 and
#: won from 128 bits up (-7% at 128, -24% at 256); below that a key's
#: ``cmt^s`` costs less than its share of a worker round trip
POOL_MIN_BITS = 128


def authority_pool(authority: TrustedAuthority) -> SecureComputePool | None:
    """The worker pool ``serve-authority`` raises FEBO masks on, if any.

    :func:`~repro.matrix.parallel.service_workers` sizes it -- one
    worker per usable CPU, none below ``POOL_MIN_BITS`` or on a single
    CPU -- and each worker is pinned to its own CPU: the service thread
    only waits while they derive.
    """
    workers = service_workers(authority.params.bits, POOL_MIN_BITS)
    if workers is None:
        return None
    return SecureComputePool(workers=workers, pin_workers=True)


def run_authority_service(authority: TrustedAuthority, host: str = "127.0.0.1",
                          port: int = 0) -> None:
    """Blocking entry point: serve until SIGINT or SIGTERM (CLI helper).

    Must run in the main thread, which owns signal handling.
    """
    service = AuthorityService(authority, host, port)

    def serve() -> None:
        try:
            bound_host, bound_port = service.start()
            print(f"authority key service listening on "
                  f"{bound_host}:{bound_port}", flush=True)
            threading.Event().wait()  # until a stop signal
        finally:
            service.stop()

    pool = authority_pool(authority)
    if pool is not None:
        authority.pool = pool
    run_until_stopped(serve, finish=pool.close if pool is not None else None)

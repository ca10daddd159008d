"""The client agent: encrypt locally, upload over the wire.

A data owner's whole interaction with the networked runtime:

1. handshake with the authority key service (public params + keys),
2. encrypt its shard locally with :class:`~repro.core.entities.Client`
   (plaintext never leaves the process),
3. ship the encrypted dataset to the training server as fingerprinted
   ``encrypted-data`` chunks (one chunk unless ``chunk_bytes`` is
   given), each acknowledged, resuming past whatever the server already
   holds.
"""

from __future__ import annotations

import contextlib
import random

import numpy as np

from repro.core import protocol
from repro.core import serialization as ser
from repro.core.entities import Client
from repro.data.preprocess import LabelMapper
from repro.mathutils.group import GroupParams
from repro.matrix.parallel import SecureComputePool, service_workers
from repro.rpc.client import RemoteAuthority, RpcEndpoint
from repro.rpc.messages import (
    Ack,
    ShardChunk,
    ShardResumeQuery,
    TrainStatusRequest,
    shard_fingerprint,
)
from repro.rpc.retry import DEFAULT_POLICY, RetryPolicy, merge_stats

#: Smallest group (bits) at which :func:`upload_shard` encrypts on a
#: worker pool by default.  Measured on a 64x64 shard on a 2-CPU VM:
#: from 96 bits the pool saves more than its ~25 ms fork and stop,
#: below that about as much or less (ROADMAP, "Inline vs pooled").
CLIENT_POOL_MIN_BITS = 96

#: Per-request timeout (seconds) on both of :func:`upload_shard`'s
#: connections; a chunk of a large shard may take a while to ack.
UPLOAD_TIMEOUT_S = 120.0


def plan_shard_chunks(dataset, params: GroupParams,
                      chunk_bytes: int | None = None,
                      stats: dict | None = None
                      ) -> tuple[dict, str, list[bytes]]:
    """Split one encrypted shard into a resumable chunk plan.

    Packs the shard with the shard codec, adds the client's engine
    ``stats`` to its meta, fingerprints meta and body, and slices the
    body into ``chunk_bytes``-sized pieces (``None``: one chunk holding
    the whole body).  The returned ``(meta, fingerprint, chunks)``
    triple is everything :func:`upload_planned_chunks` needs; keeping
    the plan lets a test (or a crashed-and-restarted client) resume the
    very same upload instead of re-encrypting.
    """
    if chunk_bytes is not None and chunk_bytes < 1:
        raise ValueError("chunk_bytes must be >= 1")
    meta, body = ser.pack_encrypted_tabular(dataset, params)
    if stats:
        meta["stats"] = stats
    fingerprint = shard_fingerprint(meta, body)
    step = chunk_bytes or len(body) or 1
    chunks = [body[i:i + step] for i in range(0, len(body), step)] or [b""]
    return meta, fingerprint, chunks


def upload_planned_chunks(server: RpcEndpoint, *, name: str, meta: dict,
                          fingerprint: str, chunks: list[bytes]) -> dict:
    """Send a chunk plan, resuming past whatever the server already has.

    Opens with a ``shard-resume`` query so a reconnecting client never
    re-sends an acked chunk (and sends nothing at all when the whole
    shard already landed), then streams the remaining chunks in order.
    Chunk 0 carries the upload metadata; each chunk is individually
    acknowledged, so the resume offset advances monotonically even if
    the connection dies again mid-stream.
    """
    count = len(chunks)
    probe = server.request(
        ShardResumeQuery(fingerprint=fingerprint, count=count,
                         client_name=name))
    if not isinstance(probe, Ack):
        raise TypeError(f"expected an ack, got {probe.kind!r}")
    if probe.info.get("accepted"):
        return {"name": name, "count": count, "sent": 0,
                "resumed_from": count, "ack": probe.info}
    next_index = resumed_from = int(probe.info.get("next_index", 0))
    ack = None
    sent = 0
    while next_index < count:
        ack = server.request(ShardChunk(
            fingerprint=fingerprint, index=next_index, count=count,
            chunk=chunks[next_index],
            meta=meta if next_index == 0 else None, client_name=name))
        if not isinstance(ack, Ack):
            raise TypeError(f"expected an ack, got {ack.kind!r}")
        sent += 1
        next_index = int(ack.info.get("next_index", next_index + 1))
    if ack is None:  # count chunks were already all on the server
        ack = server.request(ShardResumeQuery(
            fingerprint=fingerprint, count=count, client_name=name))
    return {"name": name, "count": count, "sent": sent,
            "resumed_from": resumed_from, "ack": ack.info}


def upload_shard(authority_address: tuple[str, int],
                 server_address: tuple[str, int],
                 features: np.ndarray, labels: np.ndarray, num_classes: int,
                 *, name: str = protocol.CLIENT,
                 label_mapper: LabelMapper | None = None,
                 rng: random.Random | None = None,
                 workers: int | None = None,
                 policy: RetryPolicy | None = None,
                 chunk_bytes: int | None = None) -> dict:
    """Encrypt one shard and deliver it to the training server.

    The local encryption runs on a
    :class:`~repro.matrix.parallel.SecureComputePool` of ``workers``
    processes, forked for this call and stopped before the shard is
    sent: the client's :class:`~repro.fe.engine.EncryptionEngine` banks
    offline nonce material on it before the encryption loop runs
    online-only.  Without ``workers`` the pool is sized by the services'
    rule, :func:`~repro.matrix.parallel.service_workers`: one worker per
    usable CPU from :data:`CLIENT_POOL_MIN_BITS` up, none -- inline
    encryption -- on smaller groups or a single CPU.  Plaintext never
    leaves the process; worker processes never touch sockets.

    ``rng`` seeds the nonces of inline encryption only; a pool draws
    its nonces from a generator seeded from the OS.

    ``policy`` governs retry/backoff on both connections (authority and
    server); it defaults to :data:`~repro.rpc.retry.DEFAULT_POLICY`.
    Re-uploading after a transport failure is safe -- the server keys
    shards by client name, so a resent upload overwrites, not appends.

    The shard travels as fingerprinted ``encrypted-data`` chunks of
    ``chunk_bytes`` bytes (``None``: one chunk), each acknowledged, so a
    dropped connection resumes at the last acked chunk instead of
    re-sending the whole shard.

    Returns a summary with the server's acknowledgement, the byte count
    that crossed each connection, and the merged fault/retry counters
    from both endpoints under ``"retry"``.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    with RemoteAuthority(*authority_address, name=name, rng=rng,
                         timeout=UPLOAD_TIMEOUT_S, policy=policy) as authority:
        if workers is None:
            workers = service_workers(authority.params.bits,
                                      CLIENT_POOL_MIN_BITS)
        with (SecureComputePool(workers) if workers
              else contextlib.nullcontext()) as pool:
            client = Client(authority, label_mapper=label_mapper,
                            name=name, pool=pool)
            dataset = client.encrypt_tabular(features, labels, num_classes)
        # the engine's hit/miss counters ride along with the upload so
        # the training server's metrics scrape covers the encrypt side
        engine_stats = client.engine.stats()
        meta, fingerprint, chunks = plan_shard_chunks(
            dataset, authority.params, chunk_bytes, stats=engine_stats)
        with RpcEndpoint(*server_address, name=name, peer=protocol.SERVER,
                         timeout=UPLOAD_TIMEOUT_S, policy=policy) as server:
            chunked = upload_planned_chunks(
                server, name=name, meta=meta, fingerprint=fingerprint,
                chunks=chunks)
            upload_bytes = server.traffic.total_bytes(
                sender=name, kind=protocol.KIND_ENCRYPTED_DATA)
            retry_report = merge_stats(authority.endpoint.stats.snapshot(),
                                       server.stats.snapshot())
        return {
            "name": name,
            "n_samples": len(dataset),
            "ack": chunked["ack"],
            "upload_bytes": upload_bytes,
            # only what actually crossed the authority socket --
            # Client.encrypt_tabular also logs the logical
            # client->server upload record into this TrafficLog, which
            # belongs to the server connection, not this one
            "authority_bytes": authority.traffic.total_bytes(
                sender=name, receiver=protocol.AUTHORITY),
            "chunks": {key: chunked[key] for key in
                       ("count", "sent", "resumed_from")},
            "retry": retry_report,
        }


def fetch_status(server_address: tuple[str, int], *,
                 name: str = protocol.CLIENT, timeout: float = 30.0):
    """One-shot ``train-status`` query against a training server."""
    with RpcEndpoint(*server_address, name=name, peer=protocol.SERVER,
                     timeout=timeout) as server:
        return server.request(TrainStatusRequest(requester=name))

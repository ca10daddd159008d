"""Typed RPC request/response messages.

Each message maps 1:1 onto a :mod:`repro.core.protocol` message kind
(``public-params``, ``encrypted-data``, ``feip-key-request/-response``,
``febo-key-request/-response`` plus their batched envelope variants) or
onto one of the small control kinds the services add (``ack``,
``error``, ``train-*``, ``predict-*``).

A message serializes to a JSON *header* (kind + counts + metadata) and a
binary *body* packed by :mod:`repro.core.serialization`, so the body
length of every key message, and the summed chunk bodies of an upload,
equal the wire-size formulas used for traffic accounting -- what the
:class:`~repro.core.protocol.TrafficLog` records is what crossed the
socket.

Most messages declare their header once, as :func:`wire` fields, and
share one generic codec (:class:`_Message`); the four key messages add
one body codec (:class:`_KeyMessage`).  Only the public-params
response, whose header is derived from its body, writes its own.  An
encrypted-data upload is a run of :class:`ShardChunk` frames; the shard
codec itself lives in :mod:`repro.core.serialization`, shared with the
dataset files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from typing import Any, Callable, ClassVar

import numpy as np

from repro.core import protocol
from repro.core import serialization as ser
from repro.core.config import CryptoNNConfig
from repro.fe.keys import (
    FeboFunctionKey,
    FeboPublicKey,
    FeipFunctionKey,
    FeipPublicKey,
)
from repro.mathutils.group import GroupParams

# Control kinds (not part of the paper's protocol accounting).
KIND_PUBLIC_PARAMS_RESPONSE = "public-params-response"
KIND_SHARD_RESUME = "shard-resume"
KIND_ACK = "ack"
KIND_ERROR = "error"
KIND_TRAIN_START = "train-start"
KIND_TRAIN_STATUS = "train-status"
KIND_TRAIN_STATUS_RESPONSE = "train-status-response"
KIND_TRAIN_CHECKPOINT = "train-checkpoint"
KIND_PREDICT_REQUEST = "predict-request"
KIND_PREDICT_RESPONSE = "predict-response"
KIND_SERVICE_METRICS = "service-metrics"
KIND_SERVICE_METRICS_RESPONSE = "service-metrics-response"
KIND_SERVICE_HEALTH = "service-health"
KIND_SERVICE_HEALTH_RESPONSE = "service-health-response"


class MessageError(Exception):
    """A message that cannot be encoded or decoded."""


@dataclasses.dataclass(frozen=True)
class WireContext:
    """Decode context: group parameters fix every field width."""

    params: GroupParams


_REGISTRY: dict[str, type] = {}


def _register(*kinds: str):
    """Make the class the codec of ``kinds`` and set its ``kind``; a key
    message registers its unbatched kind, then its batched one."""
    def deco(cls):
        for kind in kinds:
            _REGISTRY[kind] = cls
        if len(kinds) == 1:
            cls.kind = kinds[0]
        else:
            cls.KINDS = kinds
        return cls
    return deco


def encode_message(msg, ctx: WireContext | None = None
                   ) -> tuple[dict[str, Any], bytes]:
    header = {"kind": msg.kind, **msg.header()}
    return header, msg.body(ctx)


def decode_message(header: dict[str, Any], body: bytes,
                   ctx: WireContext | None = None):
    kind = header.get("kind")
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise MessageError(f"unknown message kind {kind!r}")
    try:
        return cls.from_wire(header, body, ctx)
    except MessageError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise MessageError(f"malformed {kind!r} message: {exc}") from exc


def _require_ctx(ctx: WireContext | None) -> WireContext:
    if ctx is None:
        raise MessageError("message requires group parameters to (de)code")
    return ctx


# -- header field coercers -------------------------------------------------------
#
# Each runs on encode and on decode, and raises TypeError / ValueError
# on a value it does not accept, so a hostile header fails with a typed
# MessageError instead of flowing into the services.

#: Hard cap on chunks per shard: a hostile ``count`` must not reserve
#: an unbounded assembly table.  1M chunks of even 1 KiB is already far
#: past any legitimate upload.
MAX_SHARD_CHUNKS = 1_048_576

#: The client encryption-engine counters an upload may report.  The
#: training server turns each into a ``repro_client_engine_*_total``
#: counter, so any other key would let a client mint metric names.
_ENGINE_STATS = frozenset({"precomputed", "consumed", "misses"})


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _bool(value) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"expected a boolean, got {type(value).__name__}")
    return bool(value)


def _uint(value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _dict(value) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return dict(value)


def _seq(value):
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _uints(value) -> list[int]:
    return [_uint(v) for v in _seq(value)]


def _uint_tuple(value) -> tuple[int, ...]:
    return tuple(_uints(value))


def _float_rows(value) -> list[list[float]]:
    return [[_float(v) for v in _seq(row)] for row in _seq(value)]


def _chunk_count(value) -> int:
    count = _uint(value)
    if not 1 <= count <= MAX_SHARD_CHUNKS:
        raise ValueError(
            f"implausible chunk count {count} (limit {MAX_SHARD_CHUNKS})")
    return count


def _engine_stats(value) -> dict[str, int]:
    stats = {key: _uint(v) for key, v in _dict(value).items()}
    unknown = set(stats) - _ENGINE_STATS
    if unknown:
        raise ValueError(f"unknown engine counters {sorted(unknown)}")
    return stats


def _upload_meta(value) -> dict[str, Any]:
    """The shard codec's meta plus the optional engine ``stats``; the
    codec checks its own fields when the assembled shard is unpacked."""
    meta = _dict(value)
    if meta.get("stats") is not None:
        meta["stats"] = _engine_stats(meta["stats"])
    return meta


def _coerce(kind, key: str, coerce: Callable[[Any], Any], value):
    try:
        return coerce(value)
    except (TypeError, ValueError) as exc:
        raise MessageError(
            f"{kind!r} header field {key!r}: {exc}") from exc


# -- generic header codec --------------------------------------------------------

def wire(key: str, coerce: Callable[[Any], Any],
         default: Any = dataclasses.MISSING) -> Any:
    """Declare a header field: its JSON ``key``, the ``coerce`` function
    run on encode and on decode, and an optional ``default``.

    A ``None`` value is left out of the header, and a key that is absent
    or null decodes to the default; a field without one is required.  A
    dict default is copied per instance.
    """
    metadata = {"wire": (key, coerce)}
    if isinstance(default, dict):
        return dataclasses.field(default_factory=lambda: dict(default),
                                 metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


class _Message:
    """Base of the declared messages: the :func:`wire` fields are the
    header, the body is empty."""

    kind: ClassVar[str]

    def header(self) -> dict[str, Any]:
        header = {}
        for field in dataclasses.fields(self):
            spec = field.metadata.get("wire")
            value = getattr(self, field.name)
            if spec is not None and value is not None:
                key, coerce = spec
                header[key] = _coerce(self.kind, key, coerce, value)
        return header

    def body(self, ctx: WireContext | None = None) -> bytes:
        return b""

    @classmethod
    def from_wire(cls, header, body, ctx, **fields):
        """Decode the header fields; ``fields`` are the ones a subclass
        read from the body."""
        kind = header.get("kind")
        for field in dataclasses.fields(cls):
            spec = field.metadata.get("wire")
            if spec is None:
                continue
            key, coerce = spec
            value = header.get(key)
            if value is not None:
                fields[field.name] = _coerce(kind, key, coerce, value)
            elif field.default is dataclasses.MISSING \
                    and field.default_factory is dataclasses.MISSING:
                raise MessageError(f"{kind!r} header lacks {key!r}")
        return cls(**fields)


# -- handshake -------------------------------------------------------------------

@_register(protocol.KIND_PUBLIC_PARAMS)
@dataclasses.dataclass
class PublicParamsRequest(_Message):
    """Ask the authority for group params, config, and public keys.

    ``etas`` lists the FEIP vector lengths whose master public keys the
    caller wants; ``include_febo`` additionally requests the FEBO key.
    """

    etas: tuple[int, ...] = wire("etas", _uint_tuple, ())
    include_febo: bool = wire("febo", _bool, True)
    requester: str = wire("from", _str, protocol.CLIENT)


@_register(KIND_PUBLIC_PARAMS_RESPONSE)
@dataclasses.dataclass
class PublicParamsResponse:
    """Group params + config in the header; packed public keys in the body."""

    group: GroupParams
    config: dict[str, Any]
    feip_keys: dict[int, FeipPublicKey] = dataclasses.field(default_factory=dict)
    febo_key: FeboPublicKey | None = None

    def header(self) -> dict[str, Any]:
        return {"group": ser.group_params_to_dict(self.group),
                "config": self.config,
                "etas": sorted(self.feip_keys),
                "febo": self.febo_key is not None}

    def body(self, ctx: WireContext | None = None) -> bytes:
        parts = [ser.pack_feip_public_key(self.feip_keys[eta])
                 for eta in sorted(self.feip_keys)]
        if self.febo_key is not None:
            parts.append(ser.pack_febo_public_key(self.febo_key))
        return b"".join(parts)

    @classmethod
    def from_wire(cls, header, body, ctx):
        group = ser.group_params_from_dict(header["group"])
        elem = ser.element_size_bytes(group)
        offset = 0
        feip_keys: dict[int, FeipPublicKey] = {}
        for eta in header.get("etas", []):
            eta = int(eta)
            size = (1 + eta) * elem
            feip_keys[eta] = ser.unpack_feip_public_key(
                body[offset:offset + size], group)
            offset += size
        febo_key = None
        if header.get("febo"):
            febo_key = ser.unpack_febo_public_key(
                body[offset:offset + 2 * elem], group)
            offset += 2 * elem
        if offset != len(body):
            raise MessageError(
                f"public-params body holds {len(body)} bytes, parsed {offset}")
        return cls(group=group, config=dict(header.get("config", {})),
                   feip_keys=feip_keys, febo_key=febo_key)

    def make_config(self) -> CryptoNNConfig:
        """Rebuild the authority's config (unknown fields ignored)."""
        fields = {f.name for f in dataclasses.fields(CryptoNNConfig)}
        return CryptoNNConfig(
            **{k: v for k, v in self.config.items() if k in fields})


# -- function keys ---------------------------------------------------------------

class _KeyMessage(_Message):
    """Base of the four key messages: the body is one raw codec's payload.

    Unbatched, ``count`` (and the FEIP vector length ``eta``) ride in
    the JSON header and the body is the bare payload of the paper's
    formula.  ``batched=True`` records the message under its batch kind
    and prefixes the payload with the 8-byte count/eta envelope of
    :func:`~repro.core.serialization.pack_batch_header`, from which
    decode then reads them.
    """

    #: (unbatched kind, batched kind)
    KINDS: ClassVar[tuple[str, str]]
    #: the dataclass field holding the rows, requests or keys
    ITEMS: ClassVar[str]
    #: its (pack, unpack) key codec from :mod:`repro.core.serialization`
    CODEC: ClassVar[tuple]
    #: FEIP messages override this with their vector length
    eta: int | None = None

    @property
    def kind(self) -> str:
        return self.KINDS[self.batched]

    def header(self) -> dict[str, Any]:
        header = {"count": len(getattr(self, self.ITEMS)), **super().header()}
        if self.eta is not None:
            header["eta"] = self.eta
        return header

    def body(self, ctx: WireContext | None = None) -> bytes:
        ctx = _require_ctx(ctx)
        items = getattr(self, self.ITEMS)
        payload = self.CODEC[0](items, ctx.params)
        if not self.batched:
            return payload
        return ser.pack_batch_header(len(items), self.eta or 0) + payload

    @classmethod
    def from_wire(cls, header, body, ctx, **fields):
        ctx = _require_ctx(ctx)
        batched = header["kind"] == cls.KINDS[1]
        if batched:
            count, eta = ser.unpack_batch_header(body)
            body = body[ser.BATCH_HEADER_BYTES:]
        else:
            count = _coerce(header["kind"], "count", _uint, header["count"])
            eta = _coerce(header["kind"], "eta", _uint, header.get("eta", 0))
        fields[cls.ITEMS] = cls.CODEC[1](body, count, eta, ctx.params)
        return super().from_wire(header, body, ctx, batched=batched,
                                 **fields)


@_register(protocol.KIND_FEIP_KEY_REQUEST, protocol.KIND_FEIP_KEY_BATCH_REQUEST)
@dataclasses.dataclass
class FeipKeyRequest(_KeyMessage):
    """Weight rows for inner-product key derivation.

    ``batched=True`` wires the rows inside one batch envelope and is
    recorded under the ``feip-key-batch-request`` kind; unbatched bodies
    are the raw ``k x n x |w|`` payload of the paper's formula.
    """

    rows: list[list[int]]
    batched: bool = True
    requester: str = wire("from", _str, protocol.SERVER)

    ITEMS: ClassVar[str] = "rows"
    CODEC: ClassVar[tuple] = (ser.pack_feip_key_rows, ser.unpack_feip_key_rows)

    @property
    def eta(self) -> int:
        return len(self.rows[0]) if self.rows else 0


@_register(protocol.KIND_FEIP_KEY_RESPONSE, protocol.KIND_FEIP_KEY_BATCH_RESPONSE)
@dataclasses.dataclass
class FeipKeyResponse(_KeyMessage):
    """Derived inner-product keys (sk + bound weight vector each)."""

    keys: list[FeipFunctionKey]
    batched: bool = True

    ITEMS: ClassVar[str] = "keys"
    CODEC: ClassVar[tuple] = (ser.pack_feip_keys, ser.unpack_feip_keys)

    @property
    def eta(self) -> int:
        return len(self.keys[0].y) if self.keys else 0


@_register(protocol.KIND_FEBO_KEY_REQUEST, protocol.KIND_FEBO_KEY_BATCH_REQUEST)
@dataclasses.dataclass
class FeboKeyRequest(_KeyMessage):
    """Per-ciphertext ``(commitment, op, operand)`` key requests."""

    requests: list[tuple[int, str, int]]
    batched: bool = True
    requester: str = wire("from", _str, protocol.SERVER)

    ITEMS: ClassVar[str] = "requests"
    CODEC: ClassVar[tuple] = (ser.pack_febo_requests, ser.unpack_febo_requests)


@_register(protocol.KIND_FEBO_KEY_RESPONSE, protocol.KIND_FEBO_KEY_BATCH_RESPONSE)
@dataclasses.dataclass
class FeboKeyResponse(_KeyMessage):
    """Derived basic-operation keys, in request order (cmt re-attached
    client-side from the matching request)."""

    keys: list[FeboFunctionKey]
    batched: bool = True

    ITEMS: ClassVar[str] = "keys"
    CODEC: ClassVar[tuple] = (ser.pack_febo_keys, ser.unpack_febo_keys)


# -- encrypted-data upload: resumable chunks --------------------------------------

def shard_fingerprint(meta: dict[str, Any], body: bytes) -> str:
    """Content fingerprint of one encrypted shard (meta + body bytes).

    The client computes it once over the exact bytes it will chunk; the
    server recomputes it over the reassembled bytes, so a corrupted or
    mixed-up chunk stream can never be accepted as a shard.  It also
    keys idempotency: re-uploading the same shard (same fingerprint)
    after a lost ack is acknowledged as a duplicate, never re-trained.
    """
    canonical = json.dumps(meta, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256()
    digest.update(canonical)
    digest.update(b"\x00")
    digest.update(body)
    return digest.hexdigest()


@_register(protocol.KIND_ENCRYPTED_DATA)
@dataclasses.dataclass
class ShardChunk(_Message):
    """One fingerprinted slice of a client's encrypted shard (client ->
    training server): the paper's one-time encrypted-data transfer.

    The chunk body is an opaque byte range of the body of
    :func:`~repro.core.serialization.pack_encrypted_tabular`, so no
    decode context is needed until the final chunk completes the
    assembly, and the chunk bodies of one upload sum to
    :func:`~repro.core.serialization.encrypted_tabular_wire_size`.
    ``meta`` (the codec's meta plus optional client encryption-engine
    ``stats``) rides only on chunk 0; a resumed upload starts past it
    and the server already holds the meta from the first attempt.
    """

    fingerprint: str = wire("fp", _str)
    index: int = wire("index", _uint)
    count: int = wire("count", _chunk_count)
    chunk: bytes = b""
    meta: dict[str, Any] | None = wire("meta", _upload_meta, None)
    client_name: str = wire("from", _str, protocol.CLIENT)

    def body(self, ctx: WireContext | None = None) -> bytes:
        return self.chunk

    @classmethod
    def from_wire(cls, header, body, ctx):
        msg = super().from_wire(header, body, ctx, chunk=body)
        if msg.index >= msg.count:
            raise MessageError(
                f"chunk index {msg.index} outside [0, {msg.count})")
        return msg


@_register(KIND_SHARD_RESUME)
@dataclasses.dataclass
class ShardResumeQuery(_Message):
    """Where did my upload get to?  (client -> training server).

    Answered with an :class:`Ack` whose info carries ``next_index`` (the
    first chunk the server does not hold), ``received``, and
    ``accepted`` (the shard with this fingerprint already landed whole,
    so nothing needs sending at all).
    """

    fingerprint: str = wire("fp", _str)
    count: int = wire("count", _chunk_count)
    client_name: str = wire("from", _str, protocol.CLIENT)


# -- control messages ------------------------------------------------------------

@_register(KIND_ACK)
@dataclasses.dataclass
class Ack(_Message):
    """Generic success acknowledgement with a small info payload."""

    info: dict[str, Any] = wire("info", _dict, {})


@_register(KIND_ERROR)
@dataclasses.dataclass
class ErrorMessage(_Message):
    """A remote failure; the client raises it as ``RpcRemoteError``."""

    message: str = wire("message", _str)
    error_type: str = wire("type", _str, "RpcError")


@_register(KIND_TRAIN_START)
@dataclasses.dataclass
class TrainStart(_Message):
    """Force the training server to start (before all expected uploads)."""

    requester: str = wire("from", _str, protocol.SERVER)


@_register(KIND_TRAIN_CHECKPOINT)
@dataclasses.dataclass
class TrainCheckpointRequest(_Message):
    """Ask the training server to write a durable checkpoint now.

    Answered with an :class:`Ack` whose ``info`` reports whether a
    snapshot was scheduled (the training thread writes it after the
    in-flight batch) and the last checkpoint the server knows about.
    Requires the server to have been started with a checkpoint path.
    """

    requester: str = wire("from", _str, protocol.CLIENT)


@_register(KIND_TRAIN_STATUS)
@dataclasses.dataclass
class TrainStatusRequest(_Message):
    requester: str = wire("from", _str, protocol.CLIENT)


@_register(KIND_TRAIN_STATUS_RESPONSE)
@dataclasses.dataclass
class TrainStatus(_Message):
    """Training-server state: waiting / training / done / failed."""

    state: str = wire("state", _str)
    accuracy: float | None = wire("accuracy", _float, None)
    detail: dict[str, Any] = wire("detail", _dict, {})


@_register(KIND_PREDICT_REQUEST)
@dataclasses.dataclass
class PredictRequest(_Message):
    """FE-based prediction over already-uploaded encrypted samples."""

    indices: list[int] = wire("indices", _uints)
    requester: str = wire("from", _str, protocol.CLIENT)


@_register(KIND_PREDICT_RESPONSE)
@dataclasses.dataclass
class PredictResponse(_Message):
    """Class scores for the requested samples (server learns them by
    design -- the paper's stated contrast with HE-based prediction)."""

    scores: list[list[float]] = wire("scores", _float_rows)


# -- observability (answered by FramedService itself; no handshake) --------------

@_register(KIND_SERVICE_METRICS)
@dataclasses.dataclass
class MetricsRequest(_Message):
    """Scrape a service's metrics registry snapshot."""

    requester: str = wire("from", _str, protocol.CLIENT)


@_register(KIND_SERVICE_METRICS_RESPONSE)
@dataclasses.dataclass
class MetricsResponse(_Message):
    """One registry snapshot (counters / gauges / histograms), JSON-safe."""

    service: str = wire("service", _str)
    metrics: dict[str, Any] = wire("metrics", _dict, {})


@_register(KIND_SERVICE_HEALTH)
@dataclasses.dataclass
class HealthRequest(_Message):
    """Readiness probe: is the service able to do useful work yet?"""

    requester: str = wire("from", _str, protocol.CLIENT)


@_register(KIND_SERVICE_HEALTH_RESPONSE)
@dataclasses.dataclass
class HealthResponse(_Message):
    """Liveness is implied by answering; ``ready`` is the useful bit."""

    ready: bool = wire("ready", _bool)
    state: str = wire("state", _str, "serving")
    detail: dict[str, Any] = wire("detail", _dict, {})

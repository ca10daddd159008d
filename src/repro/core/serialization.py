"""Wire serialization for keys and ciphertexts.

Three purposes:

* group parameters as a JSON-able dict, for the public-params handshake
  header and the encrypted-dataset file header;
* **byte-accurate traffic accounting** for the communication-overhead
  experiment (paper Section IV-B2): group elements are serialized as
  fixed-width big-endian integers sized by the group modulus, exponents by
  the subgroup order, so message sizes match what a real deployment would
  send;
* **binary packing** for the networked runtime (:mod:`repro.rpc`) and the
  dataset files of :mod:`repro.core.checkpoint`: the ``pack_* /
  unpack_*`` codecs produce exactly the bytes the wire-size functions
  account for, so per-connection traffic logs and the Section IV-B2
  formula agree with what actually crosses the socket.

An encrypted shard has one encoding, :func:`pack_encrypted_tabular`: a
JSON-able meta dict plus the packed ciphertext body.  The RPC upload
sends the body in ``encrypted-data`` chunks and a dataset file stores
it behind a JSON header; both read it back through the validating
:func:`unpack_encrypted_tabular`.

Every weight a key request or key carries is a signed
:data:`KEY_WEIGHT_BYTES`-byte integer: the ``|w|`` of the paper's
k x n x |w| formula.  Batched key-request/response *envelopes* coalesce
the per-iteration key requests into one framed message: the 8-byte
count/eta header of :func:`pack_batch_header` followed by the raw key
codec's payload.  :mod:`repro.rpc.messages` composes the two.
"""

from __future__ import annotations

import itertools
import numbers
from typing import Any, Sequence

import numpy as np

from repro.core.encdata import (
    EncryptedLabel,
    EncryptedSample,
    EncryptedTabularDataset,
)
from repro.fe.keys import (
    FeboCiphertext,
    FeboFunctionKey,
    FeboPublicKey,
    FeipCiphertext,
    FeipFunctionKey,
    FeipPublicKey,
)
from repro.mathutils.group import GroupParams, validate_subgroup_element

#: Fixed overhead of a batched key-request/response envelope: a 4-byte
#: item count plus a 4-byte vector-length / flags field.
BATCH_HEADER_BYTES = 8

#: |w| in the paper's k x n x |w| key-request formula: every weight a
#: key request or key carries is a signed 8-byte integer (fixed-point
#: weights are small integers, 8 bytes is generous).  Both peers use
#: this one width, so they agree on it by construction.
KEY_WEIGHT_BYTES = 8


def element_size_bytes(params: GroupParams) -> int:
    """Bytes needed for one group element (member of Z_p)."""
    return (params.p.bit_length() + 7) // 8


def exponent_size_bytes(params: GroupParams) -> int:
    """Bytes needed for one exponent (member of Z_q)."""
    return (params.q.bit_length() + 7) // 8


# -- wire-size accounting -------------------------------------------------------

def feip_ciphertext_wire_size(ct: FeipCiphertext, params: GroupParams) -> int:
    """ct0 plus eta elements."""
    return (1 + ct.eta) * element_size_bytes(params)


def feip_key_wire_size(key: FeipFunctionKey, params: GroupParams) -> int:
    """One exponent (sk) plus the weight vector it binds."""
    return exponent_size_bytes(params) + len(key.y) * KEY_WEIGHT_BYTES


def feip_key_request_wire_size(vector_length: int, params: GroupParams) -> int:
    """Server -> authority: one weight vector of length n (n x |w|)."""
    return vector_length * KEY_WEIGHT_BYTES


def febo_ciphertext_wire_size(params: GroupParams) -> int:
    """Commitment plus ciphertext element."""
    return 2 * element_size_bytes(params)


def febo_key_wire_size(params: GroupParams) -> int:
    """One group element (sk) plus op tag plus operand."""
    return element_size_bytes(params) + 1 + KEY_WEIGHT_BYTES


def febo_key_request_wire_size(params: GroupParams) -> int:
    """Server -> authority: commitment + op + operand."""
    return element_size_bytes(params) + 1 + KEY_WEIGHT_BYTES


def feip_key_batch_request_wire_size(n_rows: int, vector_length: int,
                                     params: GroupParams) -> int:
    """One framed envelope carrying ``n_rows`` weight rows."""
    return BATCH_HEADER_BYTES + n_rows * feip_key_request_wire_size(
        vector_length, params)


def feip_key_batch_response_wire_size(n_keys: int, vector_length: int,
                                      params: GroupParams) -> int:
    """One framed envelope carrying ``n_keys`` function keys."""
    return BATCH_HEADER_BYTES + n_keys * (
        exponent_size_bytes(params) + vector_length * KEY_WEIGHT_BYTES)


def febo_key_batch_request_wire_size(n_requests: int,
                                     params: GroupParams) -> int:
    return BATCH_HEADER_BYTES + n_requests * febo_key_request_wire_size(
        params)


def febo_key_batch_response_wire_size(n_keys: int, params: GroupParams) -> int:
    return BATCH_HEADER_BYTES + n_keys * febo_key_wire_size(params)


def encrypted_sample_wire_size(n_features: int, params: GroupParams) -> int:
    """One tabular sample: FEIP vector ct plus per-feature FEBO cts."""
    return ((1 + n_features) * element_size_bytes(params)
            + n_features * febo_ciphertext_wire_size(params))


def encrypted_label_wire_size(num_classes: int, params: GroupParams) -> int:
    """One one-hot label: FEIP vector ct plus per-class FEBO cts."""
    return ((1 + num_classes) * element_size_bytes(params)
            + num_classes * febo_ciphertext_wire_size(params))


def encrypted_tabular_wire_size(n_samples: int, n_features: int,
                                num_classes: int,
                                params: GroupParams) -> int:
    """Full client upload (paper: the one-time encrypted-data transfer)."""
    return n_samples * (encrypted_sample_wire_size(n_features, params)
                        + encrypted_label_wire_size(num_classes, params))


def encrypted_image_wire_size(n_images: int, n_windows: int,
                              window_length: int, n_pixels: int,
                              num_classes: int, params: GroupParams) -> int:
    """Full image upload: per image a FEIP ct per convolution window, a
    FEBO ct per pixel and the encrypted one-hot label."""
    per_image = (n_windows * (1 + window_length) * element_size_bytes(params)
                 + n_pixels * febo_ciphertext_wire_size(params))
    return n_images * (per_image
                       + encrypted_label_wire_size(num_classes, params))


# -- group params / public keys -------------------------------------------------

def group_params_to_dict(params: GroupParams) -> dict[str, Any]:
    return {"p": params.p, "q": params.q, "g": params.g}


def group_params_from_dict(data: dict[str, Any]) -> GroupParams:
    return GroupParams(p=int(data["p"]), q=int(data["q"]), g=int(data["g"]))


# -- binary primitives ----------------------------------------------------------

def pack_uint(value: int, width: int) -> bytes:
    """Fixed-width unsigned big-endian integer (raises on overflow)."""
    return int(value).to_bytes(width, "big")


def unpack_uint(data: bytes) -> int:
    return int.from_bytes(data, "big")


def pack_sint(value: int, width: int) -> bytes:
    """Fixed-width signed (two's complement) big-endian integer."""
    return int(value).to_bytes(width, "big", signed=True)


def unpack_sint(data: bytes) -> int:
    return int.from_bytes(data, "big", signed=True)


def pack_element(value: int, params: GroupParams) -> bytes:
    return pack_uint(value, element_size_bytes(params))


def pack_exponent(value: int, params: GroupParams) -> bytes:
    return pack_uint(value, exponent_size_bytes(params))


def _chunks(data: bytes, width: int) -> list[bytes]:
    if width <= 0 or len(data) % width:
        raise ValueError(
            f"payload of {len(data)} bytes is not a multiple of {width}")
    return [data[i:i + width] for i in range(0, len(data), width)]


# -- binary public keys / ciphertexts -------------------------------------------

def pack_feip_public_key(mpk: FeipPublicKey) -> bytes:
    """``mpk = (g, h_1..h_eta)`` as ``(1 + eta)`` fixed-width elements."""
    params = mpk.params
    return pack_element(params.g, params) + b"".join(
        pack_element(h, params) for h in mpk.h)


def unpack_feip_public_key(data: bytes, params: GroupParams) -> FeipPublicKey:
    elements = [unpack_uint(c) for c in _chunks(data, element_size_bytes(params))]
    if not elements:
        raise ValueError("empty FEIP public key payload")
    return FeipPublicKey(params=params, h=tuple(elements[1:]))


def pack_febo_public_key(mpk: FeboPublicKey) -> bytes:
    """``mpk = (g, h)`` as two fixed-width elements."""
    return pack_element(mpk.params.g, mpk.params) + pack_element(mpk.h, mpk.params)


def unpack_febo_public_key(data: bytes, params: GroupParams) -> FeboPublicKey:
    elements = [unpack_uint(c) for c in _chunks(data, element_size_bytes(params))]
    if len(elements) != 2:
        raise ValueError("FEBO public key payload must hold exactly 2 elements")
    return FeboPublicKey(params=params, h=elements[1])


def pack_feip_ciphertext(ct: FeipCiphertext, params: GroupParams) -> bytes:
    """Exactly :func:`feip_ciphertext_wire_size` bytes."""
    return pack_element(ct.ct0, params) + b"".join(
        pack_element(c, params) for c in ct.ct)


def pack_febo_ciphertext(ct: FeboCiphertext, params: GroupParams) -> bytes:
    """Exactly :func:`febo_ciphertext_wire_size` bytes."""
    return pack_element(ct.cmt, params) + pack_element(ct.ct, params)


# -- encrypted tabular shards ---------------------------------------------------

def pack_encrypted_tabular(dataset: EncryptedTabularDataset,
                           params: GroupParams
                           ) -> tuple[dict[str, Any], bytes]:
    """One shard as ``(meta, body)``.

    The body packs every sample then every label, each as its FEIP
    vector ciphertext followed by its FEBO element ciphertexts, so its
    length equals :func:`encrypted_tabular_wire_size`.  ``eval_labels``
    (harness-only ground truth) rides in the meta; a real deployment
    would strip it.
    """
    def vector(ip: FeipCiphertext, bo: Sequence[FeboCiphertext]) -> bytes:
        return pack_feip_ciphertext(ip, params) + b"".join(
            pack_febo_ciphertext(c, params) for c in bo)

    meta = {
        "n": len(dataset), "n_features": int(dataset.n_features),
        "num_classes": int(dataset.num_classes), "scale": int(dataset.scale),
        "eval_labels": (dataset.eval_labels.tolist()
                        if dataset.eval_labels is not None else None),
    }
    body = b"".join(
        [vector(s.features_ip, s.features_bo) for s in dataset.samples]
        + [vector(l.onehot_ip, l.onehot_bo) for l in dataset.labels])
    return meta, body


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def unpack_encrypted_tabular(meta: dict[str, Any], body: bytes,
                             params: GroupParams
                             ) -> EncryptedTabularDataset:
    """Inverse of :func:`pack_encrypted_tabular`, for untrusted input.

    The shape is checked before any size arithmetic, so a hostile meta
    fails with a clear reason instead of an overflow or a giant
    allocation.  Merging shards concatenates their ``eval_labels``, so a
    wrong length would shift one shard's labels onto another's samples.
    Every element of the body is checked for subgroup membership, which
    for canonical elements is the range check ``0 < v <= q``
    (:func:`validate_subgroup_element`), so garbage ciphertexts are
    rejected here instead of poisoning the training loop.  The first
    bad element raises.

    Raises:
        ValueError: on any of those checks.
    """
    shape = [meta.get(key) for key in ("n", "n_features", "num_classes",
                                       "scale")]
    if not all(_is_int(v) for v in shape) or shape[0] < 0 \
            or min(shape[1:]) < 1:
        raise ValueError(
            "implausible shard shape: n={} features={} classes={} "
            "scale={}".format(*shape))
    n, n_features, num_classes, scale = (int(v) for v in shape)
    eval_labels = meta.get("eval_labels")
    if eval_labels is not None:
        if not isinstance(eval_labels, list) or len(eval_labels) != n \
                or not all(_is_int(v) and 0 <= v < num_classes
                           for v in eval_labels):
            raise ValueError(
                f"eval_labels must be {n} class indices in "
                f"[0, {num_classes})")
        eval_labels = np.asarray(eval_labels, dtype=np.int64)
    expected = encrypted_tabular_wire_size(n, n_features, num_classes,
                                           params)
    if len(body) != expected:
        raise ValueError(
            f"encrypted shard body holds {len(body)} bytes, "
            f"expected {expected}")
    # numpy cuts the body into fixed-width records in C, and the range
    # check needs no call per element, so most of an unpack is building
    # the ciphertext objects
    width = element_size_bytes(params)
    elements = list(map(int.from_bytes,
                        np.frombuffer(body, dtype=f"V{width}").tolist(),
                        itertools.repeat("big")))
    if elements and not 0 < min(elements) <= max(elements) <= params.q:
        for element in elements:  # the first bad element raises
            validate_subgroup_element(element, params)

    # the body packs each vector as its FEIP ciphertext (ct0, then one
    # element per slot) followed by one (cmt, ct) pair per slot
    stream = iter(elements)

    def vector(length: int):
        ip = FeipCiphertext(next(stream),
                            tuple(itertools.islice(stream, length)))
        return ip, tuple(FeboCiphertext(next(stream), next(stream))
                         for _ in range(length))

    samples = [EncryptedSample(*vector(n_features)) for _ in range(n)]
    labels = [EncryptedLabel(*vector(num_classes)) for _ in range(n)]
    return EncryptedTabularDataset(
        samples=samples, labels=labels,
        num_classes=num_classes, n_features=n_features, scale=scale,
        eval_labels=eval_labels, params=params,
    )


# -- key requests / responses ----------------------------------------------------
#
# The four key codecs share one signature -- ``pack(items, params)``
# and ``unpack(data, count, eta, params)`` -- so :mod:`repro.rpc.messages`
# frames any of them the same way.

def pack_batch_header(count: int, vector_length: int = 0) -> bytes:
    return pack_uint(count, 4) + pack_uint(vector_length, 4)


def unpack_batch_header(data: bytes) -> tuple[int, int]:
    if len(data) < BATCH_HEADER_BYTES:
        raise ValueError("batch envelope shorter than its header")
    return unpack_uint(data[:4]), unpack_uint(data[4:8])


def pack_feip_key_rows(rows: Sequence[Sequence[int]],
                       params: GroupParams) -> bytes:
    """Concatenated signed weight rows (``n_rows * eta * |w|`` bytes)."""
    return b"".join(pack_sint(v, KEY_WEIGHT_BYTES) for row in rows for v in row)


def unpack_feip_key_rows(data: bytes, count: int, eta: int,
                         params: GroupParams) -> list[list[int]]:
    values = [unpack_sint(c) for c in _chunks(data, KEY_WEIGHT_BYTES)]
    if len(values) != count * eta:
        raise ValueError(
            f"expected {count}x{eta} weights, payload holds {len(values)}")
    return [values[i * eta:(i + 1) * eta] for i in range(count)]


def pack_feip_keys(keys: Sequence[FeipFunctionKey],
                   params: GroupParams) -> bytes:
    """Per key: the exponent ``sk`` plus the bound weight vector ``y``."""
    return b"".join(
        # repro: allow[key-serialization] -- derived function keys are
        # the key-response wire payload (paper Sec. III protocol)
        pack_exponent(key.sk, params)
        + b"".join(pack_sint(v, KEY_WEIGHT_BYTES) for v in key.y)
        for key in keys
    )


def unpack_feip_keys(data: bytes, count: int, eta: int,
                     params: GroupParams) -> list[FeipFunctionKey]:
    stride = exponent_size_bytes(params) + eta * KEY_WEIGHT_BYTES
    keys = []
    for chunk in _chunks(data, stride):
        sk = unpack_uint(chunk[:exponent_size_bytes(params)])
        y = tuple(unpack_sint(c)
                  for c in _chunks(chunk[exponent_size_bytes(params):],
                                   KEY_WEIGHT_BYTES))
        keys.append(FeipFunctionKey(y=y, sk=sk))
    if len(keys) != count:
        raise ValueError(f"expected {count} FEIP keys, payload holds {len(keys)}")
    return keys


def _pack_op(op: str) -> bytes:
    encoded = op.encode("ascii")
    if len(encoded) != 1:
        raise ValueError(f"operation tag must be one byte, got {op!r}")
    return encoded


def pack_febo_requests(requests: Sequence[tuple[int, str, int]],
                       params: GroupParams) -> bytes:
    """Per request: commitment element + 1-byte op tag + signed operand."""
    return b"".join(
        pack_element(cmt, params) + _pack_op(op) + pack_sint(y, KEY_WEIGHT_BYTES)
        for cmt, op, y in requests
    )


def unpack_febo_requests(data: bytes, count: int, eta: int,
                         params: GroupParams) -> list[tuple[int, str, int]]:
    stride = febo_key_request_wire_size(params)
    elem = element_size_bytes(params)
    requests = []
    for chunk in _chunks(data, stride):
        requests.append((
            unpack_uint(chunk[:elem]),
            chunk[elem:elem + 1].decode("ascii"),
            unpack_sint(chunk[elem + 1:]),
        ))
    if len(requests) != count:
        raise ValueError(
            f"expected {count} FEBO requests, payload holds {len(requests)}")
    return requests


def pack_febo_keys(keys: Sequence[FeboFunctionKey],
                   params: GroupParams) -> bytes:
    """Per key: ``sk`` element + 1-byte op tag + signed operand.

    The per-ciphertext commitment is *not* shipped back -- the requester
    already knows which commitment each key answers (responses preserve
    request order) and re-attaches it locally.
    """
    return b"".join(
        # repro: allow[key-serialization] -- derived function keys are
        # the key-response wire payload (paper Sec. III protocol)
        pack_element(key.sk, params) + _pack_op(key.op)
        + pack_sint(key.y, KEY_WEIGHT_BYTES)
        for key in keys
    )


def unpack_febo_keys(data: bytes, count: int, eta: int,
                     params: GroupParams) -> list[FeboFunctionKey]:
    stride = febo_key_wire_size(params)
    elem = element_size_bytes(params)
    keys = []
    for chunk in _chunks(data, stride):
        keys.append(FeboFunctionKey(
            op=chunk[elem:elem + 1].decode("ascii"),
            y=unpack_sint(chunk[elem + 1:]),
            sk=unpack_uint(chunk[:elem]),
        ))
    if len(keys) != count:
        raise ValueError(f"expected {count} FEBO keys, payload holds {len(keys)}")
    return keys

"""The three CryptoNN entities (paper Fig. 1).

* :class:`TrustedAuthority` -- owns every master secret key, hands out
  public keys, and answers function-key requests.  Assumed honest and
  non-colluding (Section IV-A).
* :class:`Client` -- a data owner: pre-processes (fixed-point encoding,
  one-hot + random label mapping) and encrypts its shard.
* :class:`Server` -- bookkeeping facade for the training side; the actual
  training logic lives in the trainers (:mod:`repro.core.cryptonn`,
  :mod:`repro.core.cryptocnn`), which act on the server's behalf.

All in-process calls that stand for network messages are recorded in a
shared :class:`~repro.core.protocol.TrafficLog` with byte-accurate sizes.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core import protocol, serialization
from repro.core.config import CryptoNNConfig
from repro.core.encdata import (
    EncryptedImage,
    EncryptedImageDataset,
    EncryptedLabel,
    EncryptedSample,
    EncryptedTabularDataset,
)
from repro.core.protocol import TrafficLog
from repro.data.preprocess import LabelMapper, one_hot
from repro.fe.errors import UnsupportedOperationError
from repro.fe.febo import Febo, FeboOp
from repro.fe.feip import Feip
from repro.fe.keys import (
    FeboFunctionKey,
    FeboMasterKey,
    FeboPublicKey,
    FeipFunctionKey,
    FeipMasterKey,
    FeipPublicKey,
)
from repro.fe.engine import EncryptionEngine
from repro.matrix.parallel import resolve_pool
from repro.matrix.secure_conv import (
    SecureConvolution,
    conv_output_shape,
    extract_windows,
)
from repro.mathutils.encoding import FixedPointCodec
from repro.mathutils.group import GroupParams


class TrustedAuthority:
    """Holds master keys; derives function keys on request.

    FEIP master keys are per vector length (a key pair supports one
    ``eta``); FEBO uses a single key pair.  The ``permitted_ops``
    whitelist models the paper's "permitted function set F".
    """

    def __init__(self, config: CryptoNNConfig | None = None,
                 rng: random.Random | None = None,
                 traffic: TrafficLog | None = None,
                 permitted_ops: frozenset[str] = frozenset("+-*/"),
                 policy=None):
        self.config = config or CryptoNNConfig()
        self.params = GroupParams.predefined(self.config.security_bits)
        self.traffic = traffic if traffic is not None else TrafficLog()
        self.permitted_ops = permitted_ops
        #: optional :class:`repro.core.policy.KeyReleasePolicy`
        self.policy = policy
        self._rng = rng or random.Random()
        self.feip = Feip(self.params, rng=self._rng)
        self.febo = Febo(self.params, rng=self._rng)
        self._feip_pairs: dict[int, tuple[FeipPublicKey, FeipMasterKey]] = {}
        self._febo_pair: tuple[FeboPublicKey, FeboMasterKey] = self.febo.setup()
        self.feip_keys_issued = 0
        self.febo_keys_issued = 0

    # -- public keys -----------------------------------------------------------
    def feip_public_key(self, eta: int) -> FeipPublicKey:
        """Public key for vectors of length ``eta`` (setup on demand)."""
        if eta not in self._feip_pairs:
            self._feip_pairs[eta] = self.feip.setup(eta)
        mpk = self._feip_pairs[eta][0]
        self.traffic.record(
            protocol.AUTHORITY, "broadcast", protocol.KIND_PUBLIC_PARAMS,
            (1 + eta) * serialization.element_size_bytes(self.params),
        )
        return mpk

    def febo_public_key(self) -> FeboPublicKey:
        self.traffic.record(
            protocol.AUTHORITY, "broadcast", protocol.KIND_PUBLIC_PARAMS,
            2 * serialization.element_size_bytes(self.params),
        )
        return self._febo_pair[0]

    # -- function keys -----------------------------------------------------------
    def _record_exchange(self, requester: str, request_kind: str,
                         request_bytes: int, response_kind: str,
                         response_bytes: int) -> None:
        """One request/response round trip in the traffic log."""
        self.traffic.record(requester, protocol.AUTHORITY, request_kind,
                            request_bytes)
        self.traffic.record(protocol.AUTHORITY, requester, response_kind,
                            response_bytes)

    def _derive_feip(self, rows: list[list[int]],
                     requester: str) -> list[FeipFunctionKey]:
        """Policy-checked derivation shared by both traffic accountings."""
        eta = len(rows[0])
        if any(len(r) != eta for r in rows):
            raise ValueError("all requested weight rows must share a length")
        if self.policy is not None:
            self.policy.check_feip_request(rows, requester)
        if eta not in self._feip_pairs:
            self._feip_pairs[eta] = self.feip.setup(eta)
        _, msk = self._feip_pairs[eta]
        keys = [self.feip.key_derive(msk, row) for row in rows]
        self.feip_keys_issued += len(keys)
        return keys

    def derive_feip_keys(self, rows: list[list[int]],
                         requester: str = protocol.SERVER
                         ) -> list[FeipFunctionKey]:
        """Derive one inner-product key per weight row.

        This is the per-iteration exchange whose cost Section IV-B2
        analyses: the requester uploads ``k`` vectors of length ``n``
        (k x n x |w| bytes) and downloads ``k`` keys (k x |sk| bytes).
        """
        if not rows:
            return []
        keys = self._derive_feip(rows, requester)
        eta = len(rows[0])
        wb = self.config.key_weight_bytes
        self._record_exchange(
            requester,
            protocol.KIND_FEIP_KEY_REQUEST,
            len(rows) * serialization.feip_key_request_wire_size(
                eta, self.params, wb),
            protocol.KIND_FEIP_KEY_RESPONSE,
            sum(serialization.feip_key_wire_size(k, self.params, wb)
                for k in keys),
        )
        return keys

    def derive_feip_keys_batch(self, rows: list[list[int]],
                               requester: str = protocol.SERVER
                               ) -> list[FeipFunctionKey]:
        """Same derivation as :meth:`derive_feip_keys`, accounted as ONE
        batched envelope in each direction (paper Section IV-B2's
        k x n x |w| upload coalesced into a single framed message)."""
        if not rows:
            return []
        keys = self._derive_feip(rows, requester)
        eta = len(rows[0])
        wb = self.config.key_weight_bytes
        self._record_exchange(
            requester,
            protocol.KIND_FEIP_KEY_BATCH_REQUEST,
            serialization.feip_key_batch_request_wire_size(
                len(rows), eta, self.params, wb),
            protocol.KIND_FEIP_KEY_BATCH_RESPONSE,
            serialization.feip_key_batch_response_wire_size(
                len(keys), eta, self.params, wb),
        )
        return keys

    def _derive_febo(self, requests: list[tuple[int, str, int]],
                     requester: str) -> list[FeboFunctionKey]:
        for _, op, _ in requests:
            if op not in self.permitted_ops:
                raise UnsupportedOperationError(
                    f"operation {op!r} is outside the permitted set"
                )
            if self.policy is not None:
                self.policy.check_febo_request(op, requester)
        _, msk = self._febo_pair
        keys = [
            self.febo.key_derive(msk, cmt, FeboOp.coerce(op), y)
            for cmt, op, y in requests
        ]
        self.febo_keys_issued += len(keys)
        return keys

    def derive_febo_keys(self, requests: list[tuple[int, str, int]],
                         requester: str = protocol.SERVER
                         ) -> list[FeboFunctionKey]:
        """Derive per-ciphertext basic-operation keys.

        Args:
            requests: list of ``(commitment, op_symbol, operand)``.
        """
        keys = self._derive_febo(requests, requester)
        wb = self.config.key_weight_bytes
        self._record_exchange(
            requester,
            protocol.KIND_FEBO_KEY_REQUEST,
            len(requests) * serialization.febo_key_request_wire_size(
                self.params, wb),
            protocol.KIND_FEBO_KEY_RESPONSE,
            len(keys) * serialization.febo_key_wire_size(self.params, wb),
        )
        return keys

    def derive_febo_keys_batch(self, requests: list[tuple[int, str, int]],
                               requester: str = protocol.SERVER
                               ) -> list[FeboFunctionKey]:
        """Batched-envelope accounting variant of :meth:`derive_febo_keys`."""
        if not requests:
            return []
        keys = self._derive_febo(requests, requester)
        wb = self.config.key_weight_bytes
        self._record_exchange(
            requester,
            protocol.KIND_FEBO_KEY_BATCH_REQUEST,
            serialization.febo_key_batch_request_wire_size(
                len(requests), self.params, wb),
            protocol.KIND_FEBO_KEY_BATCH_RESPONSE,
            serialization.febo_key_batch_response_wire_size(
                len(keys), self.params, wb),
        )
        return keys


class Client:
    """A data owner: encodes, encrypts and ships its shard.

    Multiple clients may share one authority (and therefore one public
    key), which is the paper's only requirement for multi-source
    training ("the training data should be encrypted using the same
    public key").

    Encryption always runs through an
    :class:`~repro.fe.engine.EncryptionEngine`: the one passed, or one
    over the authority's ``Feip``/``Febo`` (sharing their ``g`` tables
    and rng) on the pool ``workers`` resolves to, if any.  Before each
    dataset loop the client banks the exact number of nonce tuples the
    loop will consume -- pool-parallel when the engine has workers, one
    batch per key otherwise -- and the per-sample loops then run
    online-only.
    """

    def __init__(self, authority: TrustedAuthority,
                 label_mapper: LabelMapper | None = None,
                 name: str = protocol.CLIENT,
                 engine=None, workers: int | None = None):
        self.authority = authority
        self.config = authority.config
        self.codec = FixedPointCodec(self.config.scale)
        self.label_mapper = label_mapper
        self.name = name
        self.engine = engine or EncryptionEngine(
            authority.params, pool=resolve_pool(None, workers),
            feip=authority.feip, febo=authority.febo)

    def _bank_material(self, feip_counts: list[tuple[object, int]],
                       febo_mpk, febo_count: int) -> None:
        """Offline phase: bank exactly what the coming loop consumes."""
        for mpk, count in feip_counts:
            self.engine.prefill_feip(mpk, count)
        self.engine.prefill_febo(febo_mpk, febo_count)

    # -- labels --------------------------------------------------------------
    def _map_labels(self, labels: np.ndarray) -> np.ndarray:
        """Apply the anti-inference random label mapping (Section IV-A)."""
        labels = np.asarray(labels, dtype=np.int64)
        if self.label_mapper is not None:
            return self.label_mapper.map_labels(labels)
        return labels

    def _encrypt_label(self, label: int, num_classes: int) -> EncryptedLabel:
        """Encrypt one already-mapped label as a one-hot vector."""
        onehot = one_hot(np.array([label]), num_classes)[0]
        encoded = [self.codec.encode(v) for v in onehot]
        mpk = self.authority.feip_public_key(num_classes)
        bpk = self.authority.febo_public_key()
        return EncryptedLabel(
            onehot_ip=self.engine.encrypt_feip(mpk, encoded),
            onehot_bo=tuple(self.engine.encrypt_febo(bpk, v)
                            for v in encoded),
        )

    # -- tabular data ------------------------------------------------------------
    def encrypt_tabular(self, features: np.ndarray, labels: np.ndarray,
                        num_classes: int) -> EncryptedTabularDataset:
        """Encrypt an (N, F) float matrix plus integer labels."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"expected (N, F) features, got {features.shape}")
        if np.abs(features).max(initial=0.0) > self.config.max_abs_feature:
            raise ValueError(
                "features exceed config.max_abs_feature; normalize first"
            )
        n, f = features.shape
        mapped = self._map_labels(labels)
        mpk = self.authority.feip_public_key(f)
        bpk = self.authority.febo_public_key()
        self._bank_material(
            [(mpk, n), (self.authority.feip_public_key(num_classes), n)],
            bpk, n * (f + num_classes))
        samples: list[EncryptedSample] = []
        enc_labels: list[EncryptedLabel] = []
        for i in range(n):
            encoded = [self.codec.encode(v) for v in features[i]]
            samples.append(EncryptedSample(
                features_ip=self.engine.encrypt_feip(mpk, encoded),
                features_bo=tuple(self.engine.encrypt_febo(bpk, v)
                                  for v in encoded),
            ))
            enc_labels.append(self._encrypt_label(int(mapped[i]), num_classes))
        self._record_upload(serialization.encrypted_tabular_wire_size(
            n, f, num_classes, self.authority.params))
        return EncryptedTabularDataset(
            samples=samples, labels=enc_labels, num_classes=num_classes,
            n_features=f, scale=self.config.scale,
            # wire-label space so harness accuracy matches server outputs
            eval_labels=mapped, params=self.authority.params,
        )

    # -- image data ------------------------------------------------------------
    def encrypt_images(self, images: np.ndarray, labels: np.ndarray,
                       num_classes: int, filter_size: int, stride: int = 1,
                       padding: int = 0) -> EncryptedImageDataset:
        """Encrypt (N, C, H, W) images for a known conv geometry.

        The client learns the first layer's filter size / stride / padding
        from the server (paper Section III-E1) and window-encrypts
        accordingly; raw pixels are additionally FEBO-encrypted for the
        secure gradient step.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) images, got {images.shape}")
        if images.min(initial=0.0) < -self.config.max_abs_feature or \
           images.max(initial=0.0) > self.config.max_abs_feature:
            raise ValueError("pixels exceed config.max_abs_feature")
        n, c, h, w = images.shape
        mapped = self._map_labels(labels)
        window_length = c * filter_size * filter_size
        mpk = self.authority.feip_public_key(window_length)
        bpk = self.authority.febo_public_key()
        out_h, out_w = conv_output_shape(h, w, filter_size, stride, padding)
        self._bank_material(
            [(mpk, n * out_h * out_w),
             (self.authority.feip_public_key(num_classes), n)],
            bpk, n * (c * h * w + num_classes))
        conv = SecureConvolution(self.authority.feip, mpk, engine=self.engine)
        enc_images: list[EncryptedImage] = []
        enc_labels: list[EncryptedLabel] = []
        for i in range(n):
            encoded_img = self.codec.encode_array(images[i])
            enc_windows = conv.pre_process_encryption(
                encoded_img, filter_size, stride, padding
            )
            pixels = np.empty((c, h, w), dtype=object)
            for idx, value in np.ndenumerate(encoded_img):
                pixels[idx] = self.engine.encrypt_febo(bpk, int(value))
            enc_images.append(EncryptedImage(
                windows=enc_windows, pixels_bo=pixels, image_shape=(c, h, w),
            ))
            enc_labels.append(self._encrypt_label(int(mapped[i]), num_classes))
        per_image = (
            len(enc_images[0].windows.windows)
            * (1 + window_length) * serialization.element_size_bytes(self.authority.params)
            + c * h * w * serialization.febo_ciphertext_wire_size(self.authority.params)
        ) if enc_images else 0
        self._record_upload(n * per_image)
        return EncryptedImageDataset(
            images=enc_images, labels=enc_labels, num_classes=num_classes,
            filter_size=filter_size, stride=stride, padding=padding,
            scale=self.config.scale,
            eval_labels=mapped,
        )

    def _record_upload(self, n_bytes: int) -> None:
        self.authority.traffic.record(
            self.name, protocol.SERVER, protocol.KIND_ENCRYPTED_DATA, n_bytes
        )


class Server:
    """Bookkeeping facade for the training side.

    The trainers do the actual work; this object groups the model, the
    authority handle and the operation counters for examples and benches.
    It also holds the persistent compute pool for the run.  When the
    worker count comes from ``config.workers`` (the default), this is
    the *same* process-wide pool trainers resolve on their own, so a
    trainer constructed without an explicit ``pool`` argument shares
    these workers and :meth:`close` tears down what the run actually
    used.  An explicit ``workers`` override that differs from
    ``config.workers`` selects a different pool, which trainers only
    use if handed ``pool=server.compute_pool``.  Closing is safe at any
    time: a shared pool transparently restarts (paying worker spawn and
    dlog-table warmup again) if something else still uses it.
    """

    def __init__(self, authority: TrustedAuthority,
                 workers: int | None = None):
        self.authority = authority
        self.config = authority.config
        self.trainer = None  # attached by the trainers
        workers = workers if workers is not None else self.config.workers
        self.compute_pool = resolve_pool(None, workers)

    def attach(self, trainer) -> None:
        self.trainer = trainer

    def close(self) -> None:
        """Shut down the compute pool (idempotent)."""
        if self.compute_pool is not None:
            self.compute_pool.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def counters(self):
        if self.trainer is None:
            raise RuntimeError("no trainer attached")
        return self.trainer.counters

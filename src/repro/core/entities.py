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
import threading
from collections import OrderedDict
from collections.abc import Iterator, Sequence

import numpy as np

from repro.core import protocol, serialization
from repro.core.config import CryptoNNConfig
from repro.core.encdata import (
    EncryptedImage,
    EncryptedImageDataset,
    EncryptedLabel,
    EncryptedSample,
    EncryptedTabularDataset,
    EncryptedWindows,
)
from repro.core.protocol import TrafficLog
from repro.data.preprocess import LabelMapper, one_hot
from repro.fe.errors import CommitmentError, UnsupportedOperationError
from repro.fe.febo import Febo
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
from repro.matrix.parallel import (
    InlineExecutor,
    SecureComputePool,
    get_compute_pool,
)
from repro.mathutils.encoding import FixedPointCodec
from repro.mathutils.group import GroupParams
from repro.nn.conv import conv_out_dims, im2col
from repro.obs.metrics import GLOBAL_REGISTRY


class TrustedAuthority:
    """Holds master keys; derives function keys on request.

    FEIP master keys are per vector length (a key pair supports one
    ``eta``); FEBO uses a single key pair.  The ``permitted_ops``
    whitelist models the paper's "permitted function set F".  Every
    exchange lands in the authority's own :class:`TrafficLog`
    ``traffic``, sized by :mod:`repro.core.serialization`'s formulas
    (weights at ``KEY_WEIGHT_BYTES`` each); clients sharing the
    authority record their uploads there too.

    A FEBO key costs one full-width ``cmt^s`` -- the commitment's
    *mask* -- and a small-exponent step that folds in the operand
    (:meth:`~repro.fe.febo.Febo.key_from_mask`).  The mask depends only
    on ``s`` and the commitment, and training asks again every epoch
    for keys of the same label ciphertexts with new operands, so the
    authority keeps an LRU memo from commitment to mask, bounded at
    :attr:`MAX_FEBO_MASKS` entries.  Masks it lacks
    are raised through ``pool``: an
    :class:`~repro.matrix.parallel.InlineExecutor` in the calling
    thread, or a :class:`~repro.matrix.parallel.SecureComputePool` of
    the authority's own, which ``serve-authority`` installs; a request
    whose commitments all hit never reaches the pool.  The keys are
    composed here, byte-identical to :meth:`Febo.key_derive`.  Masks
    never leave the authority's process tree: the master key goes to
    its own workers, the masks come back, no key file or metric holds
    one (only counts are exported), and they reveal nothing the holder
    of ``s`` could not recompute at will.

    Requests may arrive from several threads at once (the authority
    service derives concurrent requests in parallel).  One lock guards
    the bookkeeping: the op whitelist and policy checks (the policy's
    audit log and distinct-vector budget mutate), on-demand FEIP setup,
    the mask memo and the counters.  Masks are raised outside it.
    """

    #: commitments whose FEBO mask the memo keeps: about 3.3 MB at 256
    #: bits (~204 B per entry), and more than one MLP job's 4,224
    #: distinct commitments (4,096 feature and 128 label cells)
    MAX_FEBO_MASKS = 16_384

    def __init__(self, config: CryptoNNConfig | None = None,
                 rng: random.Random | None = None,
                 permitted_ops: frozenset[str] = frozenset("+-*/"),
                 policy=None):
        self.config = config or CryptoNNConfig()
        self.params = GroupParams.predefined(self.config.security_bits)
        self.traffic = TrafficLog()
        self.permitted_ops = permitted_ops
        #: optional :class:`repro.core.policy.KeyReleasePolicy`
        self.policy = policy
        self._rng = rng or random.Random()
        self.feip = Feip(self.params, rng=self._rng)
        self.febo = Febo(self.params, rng=self._rng)
        #: where FEBO masks are raised (see the class docstring)
        self.pool: SecureComputePool = InlineExecutor(self.feip, self.febo)
        self._feip_pairs: dict[int, tuple[FeipPublicKey, FeipMasterKey]] = {}
        self._febo_pair: tuple[FeboPublicKey, FeboMasterKey] = self.febo.setup()
        self.feip_keys_issued = 0
        self.febo_keys_issued = 0
        #: commitment -> ``cmt^s``, least recently used first
        self._febo_masks: OrderedDict[int, int] = OrderedDict()
        #: distinct commitments per request found in / added to the
        #: memo, and masks dropped to keep it within ``MAX_FEBO_MASKS``
        self.mask_hits = 0
        self.mask_misses = 0
        self.mask_evictions = 0
        self._lock = threading.Lock()
        GLOBAL_REGISTRY.register_collector(
            f"authority.{id(self)}", self._obs_collect)

    def mask_stats(self) -> dict[str, int]:
        """Counters of the FEBO mask memo (one lock acquisition)."""
        with self._lock:
            return {"entries": len(self._febo_masks),
                    "hits": self.mask_hits, "misses": self.mask_misses,
                    "evictions": self.mask_evictions}

    def _obs_collect(self) -> dict[str, int]:
        """Registry collector; several authorities sum into one family."""
        stats = self.mask_stats()
        return {
            "repro_authority_febo_mask_hits_total": stats["hits"],
            "repro_authority_febo_mask_misses_total": stats["misses"],
            "repro_authority_febo_mask_evictions_total": stats["evictions"],
            "repro_authority_febo_masks": stats["entries"],
        }

    # -- public keys -----------------------------------------------------------
    def feip_public_key(self, eta: int) -> FeipPublicKey:
        """Public key for vectors of length ``eta`` (setup on demand)."""
        with self._lock:
            mpk = self._feip_pair(eta)[0]
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

    def _feip_pair(self, eta: int) -> tuple[FeipPublicKey, FeipMasterKey]:
        """The FEIP key pair for length ``eta``, set up on first use
        (the caller holds ``_lock``)."""
        if eta not in self._feip_pairs:
            self._feip_pairs[eta] = self.feip.setup(eta)
        return self._feip_pairs[eta]

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
        with self._lock:
            if self.policy is not None:
                self.policy.check_feip_request(rows, requester)
            _, msk = self._feip_pair(eta)
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
        self._record_exchange(
            requester,
            protocol.KIND_FEIP_KEY_REQUEST,
            len(rows) * serialization.feip_key_request_wire_size(
                eta, self.params),
            protocol.KIND_FEIP_KEY_RESPONSE,
            sum(serialization.feip_key_wire_size(k, self.params)
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
        self._record_exchange(
            requester,
            protocol.KIND_FEIP_KEY_BATCH_REQUEST,
            serialization.feip_key_batch_request_wire_size(
                len(rows), eta, self.params),
            protocol.KIND_FEIP_KEY_BATCH_RESPONSE,
            serialization.feip_key_batch_response_wire_size(
                len(keys), eta, self.params),
        )
        return keys

    def _derive_febo(self, requests: list[tuple[int, str, int]],
                     requester: str) -> list[FeboFunctionKey]:
        """Checked derivation through the mask memo (class docstring)."""
        q = self.params.q
        for cmt, _, _ in requests:
            # every client sends commitments in signed form; anything
            # else encodes no subgroup element and must not reach the
            # memo
            if not 0 < cmt <= q:
                raise CommitmentError(
                    f"commitment {cmt} is outside (0, q] and encodes no "
                    f"element of the signed subgroup")
        masks: dict[int, int] = {}
        with self._lock:
            for _, op, _ in requests:
                if op not in self.permitted_ops:
                    raise UnsupportedOperationError(
                        f"operation {op!r} is outside the permitted set"
                    )
                if self.policy is not None:
                    self.policy.check_febo_request(op, requester)
            for cmt, _, _ in requests:
                mask = self._febo_masks.get(cmt)
                if mask is not None and cmt not in masks:
                    self._febo_masks.move_to_end(cmt)
                    masks[cmt] = mask
            self.mask_hits += len(masks)
        missing = list(dict.fromkeys(
            cmt for cmt, _, _ in requests if cmt not in masks))
        if missing:
            computed = self.pool.febo_masks(self.params, self._febo_pair[1],
                                            missing)
            masks.update(zip(missing, computed))
            with self._lock:
                self.mask_misses += len(missing)
                for cmt, mask in zip(missing, computed):
                    self._febo_masks[cmt] = mask
                    self._febo_masks.move_to_end(cmt)
                while len(self._febo_masks) > self.MAX_FEBO_MASKS:
                    self._febo_masks.popitem(last=False)
                    self.mask_evictions += 1
        keys = [self.febo.key_from_mask(masks[cmt], cmt, op, y)
                for cmt, op, y in requests]
        with self._lock:
            self.febo_keys_issued += len(keys)
        return keys

    def derive_febo_keys(self, requests: list[tuple[int, str, int]],
                         requester: str = protocol.SERVER
                         ) -> list[FeboFunctionKey]:
        """Derive per-ciphertext basic-operation keys.

        Args:
            requests: list of ``(commitment, op_symbol, operand)``.
        """
        if not requests:
            return []
        keys = self._derive_febo(requests, requester)
        self._record_exchange(
            requester,
            protocol.KIND_FEBO_KEY_REQUEST,
            len(requests) * serialization.febo_key_request_wire_size(
                self.params),
            protocol.KIND_FEBO_KEY_RESPONSE,
            len(keys) * serialization.febo_key_wire_size(self.params),
        )
        return keys

    def derive_febo_keys_batch(self, requests: list[tuple[int, str, int]],
                               requester: str = protocol.SERVER
                               ) -> list[FeboFunctionKey]:
        """Batched-envelope accounting variant of :meth:`derive_febo_keys`."""
        if not requests:
            return []
        keys = self._derive_febo(requests, requester)
        self._record_exchange(
            requester,
            protocol.KIND_FEBO_KEY_BATCH_REQUEST,
            serialization.febo_key_batch_request_wire_size(
                len(requests), self.params),
            protocol.KIND_FEBO_KEY_BATCH_RESPONSE,
            serialization.febo_key_batch_response_wire_size(
                len(keys), self.params),
        )
        return keys

    def derive_febo_key_sets(self, request_lists: Sequence[list],
                             batched: bool,
                             requester: str = protocol.SERVER
                             ) -> Iterator[list[FeboFunctionKey]]:
        """One key list per request list, in order, derived lazily.

        Each ``next()`` runs :meth:`derive_febo_keys_batch` (or
        :meth:`derive_febo_keys` unbatched) for the next list, so the
        derivation order, traffic records and spans are those of one
        call per list.  A :class:`~repro.rpc.client.RemoteAuthority`
        sends every list at once instead.
        """
        derive = self.derive_febo_keys_batch if batched \
            else self.derive_febo_keys
        return (derive(requests, requester) for requests in request_lists)


class Client:
    """A data owner: encodes, encrypts and ships its shard.

    Multiple clients may share one authority (and therefore one public
    key), which is the paper's only requirement for multi-source
    training ("the training data should be encrypted using the same
    public key").

    Encryption always runs through an
    :class:`~repro.fe.engine.EncryptionEngine` over the authority's
    ``Feip``/``Febo`` (sharing their ``g`` tables and rng): on ``pool``,
    or else on the process-wide pool for ``workers``
    (:func:`~repro.matrix.parallel.get_compute_pool`), if either is
    given, and inline otherwise.  Before each
    dataset loop the client banks the exact number of nonce tuples the
    loop will consume -- pool-parallel when the engine has workers, one
    batch per key otherwise -- and the per-sample loops then run
    online-only.
    """

    def __init__(self, authority: TrustedAuthority,
                 label_mapper: LabelMapper | None = None,
                 name: str = protocol.CLIENT,
                 workers: int | None = None,
                 pool: SecureComputePool | None = None):
        self.authority = authority
        self.config = authority.config
        self.codec = FixedPointCodec(self.config.scale)
        self.label_mapper = label_mapper
        self.name = name
        if pool is None and workers:
            pool = get_compute_pool(workers)
        self.engine = EncryptionEngine(
            authority.params, pool=pool,
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
        out_h, out_w = conv_out_dims(h, w, filter_size, stride, padding)
        n_windows = out_h * out_w
        self._bank_material(
            [(mpk, n * n_windows),
             (self.authority.feip_public_key(num_classes), n)],
            bpk, n * (c * h * w + num_classes))
        enc_images: list[EncryptedImage] = []
        enc_labels: list[EncryptedLabel] = []
        for i in range(n):
            encoded_img = self.codec.encode_array(images[i])
            # Algorithm 3 lines 9-16: pad, slide, flatten channel-major,
            # encrypt -- the same window rows the plaintext Conv2D uses
            windows, out_shape = im2col(encoded_img[np.newaxis],
                                        filter_size, stride, padding)
            enc_windows = EncryptedWindows(
                out_shape=out_shape,
                windows=self.engine.encrypt_feip_columns(mpk, windows))
            pixels = np.empty((c, h, w), dtype=object)
            for idx, value in np.ndenumerate(encoded_img):
                pixels[idx] = self.engine.encrypt_febo(bpk, int(value))
            enc_images.append(EncryptedImage(
                windows=enc_windows, pixels_bo=pixels, image_shape=(c, h, w),
            ))
            enc_labels.append(self._encrypt_label(int(mapped[i]), num_classes))
        self._record_upload(serialization.encrypted_image_wire_size(
            n, n_windows, window_length, c * h * w, num_classes,
            self.authority.params))
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
    """The training side's compute pool owner.

    The trainers do the actual work; this object holds the persistent
    compute pool for the run: the process-wide pool for ``workers``
    (:func:`~repro.matrix.parallel.get_compute_pool`), or None without
    it.  Trainers decrypt on it when handed ``pool=server.compute_pool``,
    and a :class:`Client` with the same ``workers`` encrypts on the same
    pool.  Closing is safe at any time: a shared pool transparently
    restarts (paying worker spawn and dlog-table warmup again) if
    something else still uses it.
    """

    def __init__(self, authority: TrustedAuthority,
                 workers: int | None = None):
        self.authority = authority
        self.compute_pool = get_compute_pool(workers) if workers else None

    def close(self) -> None:
        """Shut down the compute pool (idempotent)."""
        if self.compute_pool is not None:
            self.compute_pool.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

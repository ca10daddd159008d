"""Secure feed-forward and secure back-propagation/evaluation steps.

These classes implement the two insertions Algorithm 2 makes into normal
neural-network training (paper Fig. 1):

* **secure feed-forward** -- the computation between the encrypted input
  and the first hidden layer, one implementation for both first-layer
  kinds: :class:`SecureLinearInput` (dot product via FEIP, Section
  III-D) and :class:`SecureConvInput` (secure convolution via Algorithm
  3, Section III-E1, which the paper describes as CryptoNN's
  feed-forward step with windows in place of samples);
* **secure back-propagation / evaluation** -- the computation between the
  last hidden layer and the encrypted label:
  :class:`SecureSoftmaxCrossEntropy` (loss as the inner product
  ``-<y, log p>`` plus gradient ``P - Y`` via element-wise subtraction,
  Section III-E2).

Gradient of the first layer's weights
-------------------------------------
``dE/dW1 = delta1 . X^T`` needs the encrypted features.  The paper states
every label/input-adjacent computation reduces to the permitted function
set; the element-wise product is the member that applies here.  We request
FEBO multiplication keys for the feature ciphertexts, decrypt the scaled
features once per sample, and hand them with the plaintext deltas to the
wrapped :class:`~repro.nn.layers.Dense` / :class:`~repro.nn.conv.Conv2D`,
whose own ``backward`` computes the gradients -- the secure layer holds
no gradient formula of its own.

The keys are one FEBO request per uncached sample, exactly as a lone
``derive_febo_keys(_batch)`` call would send it, but ``backward`` asks
for a whole batch's requests at once through the authority's
``derive_febo_key_sets``.  An in-process
:class:`~repro.core.entities.TrustedAuthority` derives them lazily, one
request per :meth:`_SecureInput.reconstruct`, in the same order as
before; a :class:`~repro.rpc.client.RemoteAuthority` sends them all and
keeps several in flight, so the first epoch stops paying one round trip
after another.  Each ``reconstruct`` that misses the cache takes its
sample's keys under its own ``key-fetch`` span.

This stays inside F but *is* the direct-inference capability the paper
concedes for authorized decryptors (Section III-B remark); CryptoNN's
framework-level mitigation (random label mapping) protects the labels,
not the features, so a server holding these keys sees each sample's
scaled features.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.config import CryptoNNConfig
from repro.core.encdata import (
    DecryptionCounters,
    EncryptedImage,
    EncryptedLabel,
    EncryptedSample,
)
from repro.core.entities import TrustedAuthority
from repro.nn.activations import log_softmax, softmax
from repro.nn.conv import Conv2D
from repro.matrix.parallel import InlineExecutor, SecureComputePool
from repro.mathutils.dlog import GLOBAL_SOLVER_CACHE
from repro.mathutils.encoding import FixedPointCodec
from repro.obs.tracing import GLOBAL_TRACER


class _SecureBase:
    """Shared plumbing: codec, counters, authority handle.

    Every decryption grid is one dispatch on ``self._pool``: the
    persistent compute pool ``pool`` a training run shares, so repeated
    batches never respawn worker processes, else an
    :class:`InlineExecutor` that runs the same dispatch in the calling
    thread.  Dlog solvers come from the process-wide
    ``GLOBAL_SOLVER_CACHE``.
    """

    def __init__(self, authority: TrustedAuthority, config: CryptoNNConfig,
                 counters: DecryptionCounters | None = None,
                 pool: SecureComputePool | None = None):
        self.authority = authority
        self.config = config
        self.codec = FixedPointCodec(config.scale)
        self.counters = counters or DecryptionCounters()
        self._feip = authority.feip
        self._febo = authority.febo
        self._pool = pool or InlineExecutor(self._feip, self._febo)

    def _solver(self, bound: int):
        return GLOBAL_SOLVER_CACHE.get(self._feip.group, bound)

    def _feip_keys(self, rows, per_row: bool = False) -> list:
        """Fetch FEIP keys under a ``key-fetch`` span and count them.

        With ``config.batch_key_requests`` all rows travel in one
        envelope message -- over the RPC transport one round trip
        instead of many.  Otherwise they travel as one request, or as
        one request per row with ``per_row``.
        """
        with GLOBAL_TRACER.span("key-fetch", keys=len(rows)):
            if self.config.batch_key_requests:
                keys = self.authority.derive_feip_keys_batch(rows)
            elif per_row:
                keys = [self.authority.derive_feip_keys([row])[0]
                        for row in rows]
            else:
                keys = self.authority.derive_feip_keys(rows)
        self.counters.feip_keys_requested += len(keys)
        return keys

    def _febo_keys(self, requests, fetched: Iterator[list] | None = None
                   ) -> list:
        """Fetch FEBO keys under a ``key-fetch`` span and count them.

        With ``fetched`` (an authority's ``derive_febo_key_sets``) the
        keys are its next list, requested for exactly ``requests``.
        """
        with GLOBAL_TRACER.span("key-fetch", keys=len(requests)):
            if fetched is not None:
                keys = next(fetched)
            elif self.config.batch_key_requests:
                keys = self.authority.derive_febo_keys_batch(requests)
            else:
                keys = self.authority.derive_febo_keys(requests)
        self.counters.febo_keys_requested += len(keys)
        return keys


class _SecureInput(_SecureBase):
    """Secure feed-forward + gradient for the model's first layer.

    Forward decrypts one FEIP inner product per (key row, ciphertext
    column) pair: one key per output unit, derived for that unit's
    clipped, fixed-point encoded weights, and every column decrypted
    against all of them in one dispatch.  Backward recovers each
    sample's scaled input from its FEBO ciphertexts (one
    multiplication-by-1 key and decrypt per element, keeping the op
    inside F without fixed-point loss), cached per dataset index
    because every epoch revisits every sample.  It then replays the
    wrapped plaintext layer's forward on those inputs and lets the
    layer's own ``backward`` fill its W/b gradients.

    A subclass says only what differs between a dense and a
    convolutional first layer: the weight rows, the ciphertext
    columns, the output layout and the FEBO ciphertexts of one input.
    """

    def __init__(self, layer, authority: TrustedAuthority,
                 config: CryptoNNConfig,
                 counters: DecryptionCounters | None = None,
                 pool: SecureComputePool | None = None):
        super().__init__(authority, config, counters, pool)
        self.layer = layer
        self._feature_cache: dict[int, np.ndarray] = {}
        self._last_batch: Sequence | None = None
        self._last_indices: Sequence[int] | None = None
        #: key lists of the samples ``backward`` is reconstructing
        self._fetched: Iterator[list] | None = None

    def _weight_rows(self) -> np.ndarray:
        """The layer's weights, one row per output unit (key)."""
        raise NotImplementedError

    def _columns(self, batch: Sequence) -> list:
        """The FEIP ciphertexts every key row is decrypted against."""
        raise NotImplementedError

    def _output_grid(self, grid: np.ndarray, batch: Sequence) -> np.ndarray:
        """The (rows, columns) grid laid out as the layer's output."""
        raise NotImplementedError

    def _input_ciphertexts(self, item) -> tuple[Sequence, tuple[int, ...]]:
        """One input's FEBO ciphertexts and the shape they fill."""
        raise NotImplementedError

    def forward(self, batch: Sequence, indices: Sequence[int] | None = None,
                training: bool = True) -> np.ndarray:
        """Return the layer's pre-activations for an encrypted batch."""
        w = np.clip(self._weight_rows(), -self.config.max_abs_weight,
                    self.config.max_abs_weight)
        rows = [[self.codec.encode(v) for v in row] for row in w]
        columns = self._columns(batch)
        keys = self._feip_keys(rows)
        eta = len(rows[0])
        mpk = self.authority.feip_public_key(eta)
        with GLOBAL_TRACER.span(self._pool.dispatch_span,
                                n=len(keys) * len(columns)):
            grid = self._pool.secure_dot(self.authority.params, mpk, columns,
                                         keys, self.config.dot_bound(eta))
        self.counters.feip_decrypts += grid.size
        z = self.codec.decode_array(self._output_grid(grid, batch), power=2)
        bias = self.layer.params["b"]
        z += bias.reshape(bias.shape + (1,) * (z.ndim - 2))
        if training:
            self._last_batch = batch
            self._last_indices = list(indices) if indices is not None \
                else list(range(len(batch)))
        return z

    def backward(self, grad: np.ndarray) -> None:
        """Fill the wrapped layer's W/b gradients from ``dL/dZ``."""
        if self._last_batch is None or self._last_indices is None:
            raise RuntimeError("backward called before forward")
        inputs = [(idx, *self._input_ciphertexts(item))
                  for idx, item in zip(self._last_indices, self._last_batch)]
        misses: dict[int, list] = {}
        for idx, ciphertexts, _ in inputs:
            if idx not in self._feature_cache and idx not in misses:
                misses[idx] = self._recovery_requests(ciphertexts)
        # every uncached sample's keys are asked for at once; each
        # reconstruct below takes its own list, in this order
        self._fetched = self.authority.derive_febo_key_sets(
            list(misses.values()), self.config.batch_key_requests)
        try:
            x = np.stack([self.reconstruct(*args) for args in inputs])
        finally:
            self._fetched.close()
            self._fetched = None
        self.layer.forward(x)
        self.layer.backward(grad)

    @staticmethod
    def _recovery_requests(ciphertexts: Sequence) -> list:
        """One multiplication-by-1 key request per FEBO ciphertext."""
        return [(ct.cmt, "*", 1) for ct in ciphertexts]

    def reconstruct(self, index: int, ciphertexts: Sequence,
                    shape: tuple[int, ...]) -> np.ndarray:
        """Scaled-feature array for one sample, cached by dataset index.

        Inside :meth:`backward` a miss takes its keys from the batch's
        ``derive_febo_key_sets``; called alone it requests them itself.
        """
        if index in self._feature_cache:
            return self._feature_cache[index]
        bound = int(self.config.max_abs_feature * self.config.scale) + 1
        ciphertexts = list(ciphertexts)
        keys = self._febo_keys(self._recovery_requests(ciphertexts),
                               self._fetched)
        bpk = self.authority.febo_public_key()
        solver = GLOBAL_SOLVER_CACHE.get(self._febo.group, bound)
        with GLOBAL_TRACER.span("decrypt-dlog", n=len(keys)):
            values = self._febo.decrypt_many(
                bpk, list(zip(keys, ciphertexts)), bound, solver=solver)
        self.counters.febo_decrypts += len(values)
        array = np.array([v / self.config.scale for v in values],
                         dtype=np.float64).reshape(shape)
        self._feature_cache[index] = array
        return array


class SecureLinearInput(_SecureInput):
    """Secure input for a first :class:`Dense` layer (Section III-D).

    One key per hidden unit (a column of ``W``) and one FEIP column per
    sample: the transfer ``a = g(skf(W) . enc(X) + b)`` of Section
    III-A.  All hidden units share the sample's ciphertext bases, so
    ``decrypt_rows`` builds the window tables and walks the dlog stride
    once per sample, not per unit.
    """

    def _weight_rows(self) -> np.ndarray:
        return self.layer.params["W"].T

    def _columns(self, batch: Sequence[EncryptedSample]) -> list:
        return [sample.features_ip for sample in batch]

    def _output_grid(self, grid: np.ndarray, batch: Sequence) -> np.ndarray:
        return grid.T

    def _input_ciphertexts(self, sample: EncryptedSample):
        return sample.features_bo, (sample.n_features,)


class SecureConvInput(_SecureInput):
    """Secure input for a first :class:`Conv2D` layer (Algorithm 3).

    One key per flattened filter and one FEIP column per window of
    every image in the batch, so the whole filter bank shares each
    window's base tables.
    """

    @property
    def conv(self) -> Conv2D:
        return self.layer

    def _weight_rows(self) -> np.ndarray:
        w = self.layer.params["W"]
        return w.reshape(w.shape[0], -1)

    def _columns(self, batch: Sequence[EncryptedImage]) -> list:
        return [w for image in batch for w in image.windows.windows]

    def _output_grid(self, grid: np.ndarray, batch: Sequence) -> np.ndarray:
        out_h, out_w = batch[0].windows.out_shape
        return grid.reshape(-1, len(batch), out_h, out_w).transpose(1, 0, 2, 3)

    def _input_ciphertexts(self, image: EncryptedImage):
        return image.pixels_bo.ravel(), image.image_shape


def _decrypt_label_subtractions(layer: _SecureBase, values: np.ndarray,
                                labels: Sequence[EncryptedLabel]
                                ) -> np.ndarray:
    """Decrypt ``Y - values`` element-wise against encrypted one-hot labels.

    The cross-entropy gradient's ``P - Y``: one batched key request,
    then one dispatch decrypts the whole (sample, class) grid.
    """
    n, num_classes = values.shape
    bpk = layer.authority.febo_public_key()
    cells = [labels[i].onehot_bo[c] for i in range(n)
             for c in range(num_classes)]
    keys = layer._febo_keys([
        (ct.cmt, "-", layer.codec.encode(v))
        for ct, v in zip(cells, values.ravel())
    ])
    layer.counters.febo_decrypts += len(keys)
    with GLOBAL_TRACER.span(layer._pool.dispatch_span, n=len(keys)):
        grid = layer._pool.secure_elementwise(
            layer.authority.params, bpk, list(zip(keys, cells)),
            values.shape, layer.config.label_sub_bound())
    return layer.codec.decode_array(grid)


class SecureSoftmaxCrossEntropy(_SecureBase):
    """Secure evaluation at the output layer (paper Section III-E2).

    * loss: ``L = -<y, log p>`` -- one FEIP decrypt per sample against a
      key derived for the (encoded) log-probability vector;
    * gradient: ``dL/dA = P - Y`` -- one FEBO subtraction decrypt per
      (sample, class), negated, divided by N in plaintext.
    """

    def __init__(self, authority: TrustedAuthority, config: CryptoNNConfig,
                 counters: DecryptionCounters | None = None,
                 pool: SecureComputePool | None = None):
        super().__init__(authority, config, counters, pool)
        self._probs: np.ndarray | None = None
        # log p is clamped so its fixed-point encoding stays within the
        # loss dlog bound (p ~ 0 would otherwise explode the search window)
        self.min_log_prob = -30.0

    def forward(self, logits: np.ndarray,
                labels: Sequence[EncryptedLabel]) -> float:
        if logits.shape[0] != len(labels):
            raise ValueError("batch size mismatch between logits and labels")
        num_classes = logits.shape[1]
        probs = softmax(logits, axis=1)
        log_p = np.maximum(log_softmax(logits, axis=1), self.min_log_prob)
        mpk = self.authority.feip_public_key(num_classes)
        bound = self.config.loss_bound(-self.min_log_prob + 1.0)
        solver = self._solver(bound)
        encoded_rows = [[self.codec.encode(v) for v in log_p[n]]
                        for n in range(logits.shape[0])]
        # unbatched, one request per sample matches the paper's
        # accounting
        keys = self._feip_keys(encoded_rows, per_row=True)
        # bases differ per sample (each label has its own ciphertext), so
        # only the bounded dlogs batch: one shared giant-step walk
        with GLOBAL_TRACER.span("decrypt-dlog", n=len(keys)):
            elements = [self._feip.decrypt_raw(mpk, label.onehot_ip, key)
                        for label, key in zip(labels, keys)]
            self.counters.feip_decrypts += len(elements)
            total = -sum(self.codec.decode(v, power=2)
                         for v in solver.solve_many(elements))
        self._probs = probs
        return total / logits.shape[0]

    def backward(self, labels: Sequence[EncryptedLabel]) -> np.ndarray:
        """Return ``(P - Y) / N`` recovered through FEBO subtractions."""
        if self._probs is None:
            raise RuntimeError("backward called before forward")
        probs = self._probs
        n = probs.shape[0]
        y_minus_p = _decrypt_label_subtractions(self, probs, labels)
        return -y_minus_p / n

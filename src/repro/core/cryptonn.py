"""The CryptoNN framework trainer (paper Algorithm 2).

For each iteration the trainer

1. derives function keys for the first layer's current weights
   (``pre-process-key-derive``),
2. runs the secure feed-forward step over the encrypted batch
   (``secure-computation``),
3. continues the normal feed-forward through the plaintext hidden layers,
4. derives keys for the current output activations and runs the secure
   back-propagation / evaluation step against the encrypted labels,
5. finishes normal back-propagation and updates parameters.

The model is an ordinary :class:`repro.nn.model.Sequential` whose *first*
layer is wrapped by a secure input layer and whose loss is replaced by a
secure loss -- everything in between runs unchanged, which is the
framework's central design point.
"""

from __future__ import annotations

import contextlib
import pathlib
from typing import Callable

import numpy as np

from repro.core.checkpoint import TrainerCheckpoint, npz_path
from repro.core.config import CryptoNNConfig
from repro.core.encdata import DecryptionCounters, shuffled_order
from repro.core.entities import TrustedAuthority
from repro.core.secure_layers import (
    SecureLinearInput,
    SecureSoftmaxCrossEntropy,
)
from repro.matrix.parallel import SecureComputePool
from repro.obs.tracing import GLOBAL_TRACER
from repro.nn.activations import softmax
from repro.nn.layers import Dense
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential, TrainingHistory
from repro.nn.optimizers import Optimizer

#: Samples per :meth:`_SecureTrainerBase.predict` call in ``evaluate``.
EVALUATE_BATCH_SIZE = 64


class _SecureTrainerBase:
    """Shared fit/evaluate loop for CryptoNN and CryptoCNN.

    The trainer decrypts on the persistent compute pool it is handed
    for the whole run (e.g. ``Server.compute_pool``), so worker
    processes and their dlog tables survive across batches and epochs.
    Without one, ``compute_pool`` is None and each secure layer
    dispatches the same decryption loop to an inline executor that runs
    it in the calling thread.

    A subclass names its first layer's type, the secure input layer
    that wraps it, and the dataset field holding the encrypted inputs.
    """

    first_layer: type
    secure_input_class: type
    dataset_field: str

    def __init__(self, model: Sequential, authority: TrustedAuthority,
                 config: CryptoNNConfig | None = None,
                 pool: SecureComputePool | None = None):
        self.model = model
        self.authority = authority
        self.config = config or authority.config
        self.counters = DecryptionCounters()
        self.compute_pool = pool
        self.secure_loss = SecureSoftmaxCrossEntropy(
            authority, self.config, self.counters, pool=self.compute_pool
        )
        first = model.layers[0]
        if not isinstance(first, self.first_layer):
            raise TypeError(
                f"{type(self).__name__} needs a "
                f"{self.first_layer.__name__} first layer, got {first.name}"
            )
        self.secure_input = self.secure_input_class(
            first, authority, self.config, self.counters,
            pool=self.compute_pool,
        )

    # -- secure first layer --------------------------------------------------
    def _secure_forward(self, dataset, indices: np.ndarray,
                        training: bool) -> np.ndarray:
        batch = [getattr(dataset, self.dataset_field)[i] for i in indices]
        return self.secure_input.forward(batch, indices, training=training)

    def _secure_backward(self, grad: np.ndarray) -> None:
        self.secure_input.backward(grad)

    # -- shared loop ---------------------------------------------------------
    def _plain_tail_forward(self, z: np.ndarray, training: bool) -> np.ndarray:
        out = z
        for layer in self.model.layers[1:]:
            out = layer.forward(out, training=training)
        return out

    def train_batch(self, dataset, indices: np.ndarray,
                    optimizer: Optimizer) -> tuple[float, np.ndarray]:
        """One secure training iteration; returns (loss, output scores).

        Each phase runs under a tracer span so an enabled tracer yields
        the paper's Figure 3-5 cost decomposition per iteration; the
        secure phases open nested key-fetch / pool-dispatch /
        decrypt-dlog sub-spans inside the secure layers.
        """
        tracer = GLOBAL_TRACER
        with tracer.span("iteration", batch=len(indices)):
            labels = [dataset.labels[i] for i in indices]
            with tracer.span("secure-forward"):
                z = self._secure_forward(dataset, indices, training=True)
            with tracer.span("plain-forward"):
                out = self._plain_tail_forward(z, training=True)
            with tracer.span("loss-forward"):
                loss_value = self.secure_loss.forward(out, labels)
            with tracer.span("loss-backward"):
                grad = self.secure_loss.backward(labels)
            with tracer.span("plain-backward"):
                for layer in reversed(self.model.layers[1:]):
                    grad = layer.backward(grad)
            with tracer.span("secure-backward"):
                self._secure_backward(grad)
            with tracer.span("optimizer-step"):
                optimizer.step(self.model.layers)
        return loss_value, out

    def fit(self, dataset, optimizer: Optimizer, epochs: int = 1,
            batch_size: int = 64, rng: np.random.Generator | None = None,
            shuffle: bool = True, max_batches: int | None = None,
            on_batch: Callable[[int, float, float], None] | None = None,
            checkpoint_every: int | None = None,
            checkpoint_path: str | pathlib.Path | None = None,
            resume: bool = False,
            checkpoint_trigger: Callable[[], bool] | None = None,
            on_checkpoint: Callable[[TrainerCheckpoint], None] | None = None,
            ) -> TrainingHistory:
        """Mini-batch training over an encrypted dataset.

        ``max_batches`` caps the *total* number of iterations (useful for
        the scaled Figure 6 experiment); when the cap lands mid-epoch the
        partial epoch records no epoch mean and the shuffle stream is
        left exactly where the cap hit it.  Batch accuracy is computed
        against the harness-only ``eval_labels`` when present, else NaN.

        Checkpoint/resume: with ``checkpoint_path`` set, a durable
        :class:`~repro.core.checkpoint.TrainerCheckpoint` is written
        atomically every ``checkpoint_every`` batches (and once more,
        marked completed, when the run finishes); ``checkpoint_trigger``
        is polled after every batch for on-demand snapshots and
        ``on_checkpoint`` observes each write.  With ``resume=True`` the
        run continues from the checkpoint at ``checkpoint_path`` --
        model parameters, optimizer slots, the shuffle bit-generator
        stream, the in-flight epoch's permutation, counters and history
        are all restored, so an interrupted-then-resumed run reproduces
        the uninterrupted run's weights, loss curve and batch schedule
        byte-for-byte.  A missing checkpoint file under ``resume=True``
        simply starts fresh (the crash may have predated the first
        write).
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        needs_path = (checkpoint_every is not None or resume
                      or checkpoint_trigger is not None)
        if needs_path and checkpoint_path is None:
            raise ValueError(
                "checkpoint_every/checkpoint_trigger/resume require "
                "checkpoint_path")
        if checkpoint_path is not None:
            checkpoint_path = npz_path(checkpoint_path)
        if shuffle and rng is None:
            # own the generator so its state can be checkpointed:
            # resume stays byte-exact even from an entropy-seeded
            # start, because checkpoints carry the bit-generator state
            # repro: allow[determinism] -- entropy only seeds the run
            rng = np.random.default_rng()

        run_meta = {
            "n_samples": len(dataset),
            "batch_size": int(batch_size),
            "epochs": int(epochs),
            "shuffle": bool(shuffle),
            "max_batches": max_batches,
            "optimizer": type(optimizer).__name__,
        }

        history = TrainingHistory()
        batch_counter = 0
        start_epoch = 0
        resume_order: np.ndarray | None = None
        resume_batch = 0
        if resume and checkpoint_path.exists():
            ckpt = TrainerCheckpoint.load(checkpoint_path)
            for key, value in run_meta.items():
                if ckpt.run_meta.get(key) != value:
                    raise ValueError(
                        f"checkpoint was written by a different run: "
                        f"{key}={ckpt.run_meta.get(key)!r}, this run has "
                        f"{key}={value!r}")
            ckpt.restore_model(self.model)
            optimizer.load_state_dict(ckpt.optimizer_state)
            if ckpt.rng_state is not None:
                ckpt.restore_rng(rng)
            history = ckpt.history
            if ckpt.completed:
                return history
            batch_counter = ckpt.batch_counter
            start_epoch = ckpt.epoch
            resume_order = ckpt.epoch_order
            resume_batch = ckpt.batch_in_epoch

        def write_checkpoint(epoch: int, batch_in_epoch: int,
                             order: np.ndarray | None,
                             completed: bool = False) -> None:
            ckpt = TrainerCheckpoint.capture(
                self.model, optimizer, rng if shuffle else None,
                epoch=epoch, batch_in_epoch=batch_in_epoch,
                batch_counter=batch_counter, history=history,
                epoch_order=order, completed=completed, run_meta=run_meta)
            ckpt.save(checkpoint_path)
            if on_checkpoint is not None:
                on_checkpoint(ckpt)

        capped = False
        # these three name the trainer's position for the failure
        # snapshot below; train_batch mutates parameters only in its
        # final statement (optimizer.step), so at any exception the
        # model/optimizer state is exactly the last completed batch
        # boundary
        epoch = start_epoch
        batch_in_epoch = resume_batch
        order = resume_order
        try:
            for epoch in range(start_epoch, epochs):
                if max_batches is not None and batch_counter >= max_batches:
                    # cap already reached: do NOT draw this epoch's
                    # shuffle (it would silently perturb the
                    # resume-critical stream)
                    break
                if resume_order is not None:
                    # mid-epoch resume: replay the checkpointed
                    # permutation
                    order = resume_order
                    batch_in_epoch = resume_batch
                    # the partial epoch's running stats are the tail of
                    # the restored history, so the eventual epoch mean
                    # is exact
                    epoch_losses = list(
                        history.batch_loss[len(history.batch_loss)
                                           - resume_batch:])
                    epoch_accs = list(
                        history.batch_accuracy[len(history.batch_accuracy)
                                               - resume_batch:])
                    resume_order = None
                    resume_batch = 0
                else:
                    order = shuffled_order(len(dataset), rng, shuffle)
                    batch_in_epoch = 0
                    epoch_losses = []
                    epoch_accs = []
                for start in range(batch_in_epoch * batch_size, len(order),
                                   batch_size):
                    if max_batches is not None \
                            and batch_counter >= max_batches:
                        capped = True
                        break
                    indices = order[start:start + batch_size]
                    loss_value, out = self.train_batch(dataset, indices,
                                                       optimizer)
                    if dataset.eval_labels is not None:
                        batch_acc = accuracy(out,
                                             dataset.eval_labels[indices])
                    else:
                        batch_acc = float("nan")
                    history.batch_loss.append(loss_value)
                    history.batch_accuracy.append(batch_acc)
                    epoch_losses.append(loss_value)
                    epoch_accs.append(batch_acc)
                    # commit the counters before invoking the callback:
                    # the weights already include this batch's update, so
                    # a checkpoint written from a callback (or from the
                    # crash handler below, if the callback raises) must
                    # point at the *next* batch or resume double-applies
                    # this one
                    batch_counter += 1
                    batch_in_epoch += 1
                    if on_batch is not None:
                        on_batch(batch_counter - 1, loss_value, batch_acc)
                    if checkpoint_path is not None and (
                            (checkpoint_every is not None
                             and batch_counter % checkpoint_every == 0)
                            or (checkpoint_trigger is not None
                                and checkpoint_trigger())):
                        write_checkpoint(epoch, batch_in_epoch, order)
                if capped:
                    # partial epoch: no epoch mean, no residual epochs
                    break
                if epoch_losses:
                    history.epoch_loss.append(float(np.mean(epoch_losses)))
                    history.epoch_accuracy.append(float(np.mean(epoch_accs)))
        except BaseException:
            # best-effort checkpoint-on-failure: a transport outage, a
            # dead pool or a kill signal mid-run leaves a resumable
            # snapshot of the last completed batch instead of only
            # whatever the periodic cadence last wrote -- and must never
            # mask the original error
            if checkpoint_path is not None:
                with contextlib.suppress(Exception):
                    write_checkpoint(epoch, batch_in_epoch, order)
            raise
        if checkpoint_path is not None:
            write_checkpoint(epochs, 0, None, completed=True)
        return history

    def predict(self, dataset, indices: np.ndarray | None = None) -> np.ndarray:
        """FE-based prediction (paper Section III-D "Prediction").

        Secure feed-forward + plaintext tail; returns the softmax class
        probabilities.  The server learns them -- the paper's stated
        difference from HE-based prediction.
        """
        if indices is None:
            indices = np.arange(len(dataset))
        z = self._secure_forward(dataset, indices, training=False)
        return softmax(self._plain_tail_forward(z, training=False), axis=1)

    def evaluate(self, dataset, indices: np.ndarray | None = None) -> float:
        """Accuracy against the harness-only labels."""
        if dataset.eval_labels is None:
            raise ValueError("dataset carries no evaluation labels")
        if indices is None:
            indices = np.arange(len(dataset))
        if len(indices) == 0:
            raise ValueError(
                "evaluate() needs at least one sample index")
        correct = 0
        for start in range(0, len(indices), EVALUATE_BATCH_SIZE):
            chunk = indices[start:start + EVALUATE_BATCH_SIZE]
            scores = self.predict(dataset, chunk)
            correct += int(
                (scores.argmax(axis=1) == dataset.eval_labels[chunk]).sum()
            )
        return correct / len(indices)


class CryptoNNTrainer(_SecureTrainerBase):
    """Algorithm 2 for fully-connected models over encrypted tabular data.

    The model's first layer must be :class:`repro.nn.layers.Dense`; its
    input dimension must match the encrypted feature length.
    """

    first_layer = Dense
    secure_input_class = SecureLinearInput
    dataset_field = "samples"

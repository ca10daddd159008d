"""The training server: accepts encrypted uploads, trains over the wire.

The service listens for ``encrypted-data`` uploads from client agents:
fingerprinted chunks of one shard each, acknowledged one by one,
reassembled and checked against the fingerprint, then unpacked by the
validating shard codec of :mod:`repro.core.serialization`.  A client
that drops mid-upload resumes past the chunks the server holds, and a
resend of a shard that already landed gets a duplicate-ack.
Once the expected number of clients have delivered their shards (or a
``train-start`` message forces it), it merges the shards in client-name
order (deterministic regardless of upload timing), connects to the
authority key service as a :class:`~repro.rpc.client.RemoteAuthority`,
and drives a :class:`~repro.core.cryptonn.CryptoNNTrainer` -- every
per-iteration function-key request now crosses a real socket, batched
into one envelope per step.

The authority handshake fixes the group size, and with it the
server's compute pool (:func:`~repro.matrix.parallel.service_workers`:
one worker per usable CPU from ``TRAIN_POOL_MIN_BITS`` up, unless
``workers`` says otherwise), on which the trainer decrypts.  It forks
at the first training dispatch; uploads are checked inline, where
checking an element is a range test.

The blocking training loop runs on a daemon thread of its own, so the
server's connection threads keep answering ``train-status`` and, after
completion, ``predict-request`` messages.  One lock serializes the
upload state machine (chunks, shards, the quorum deadline and the
start of training), so concurrent uploads lose no shard and start
training once.

Durable jobs: started with a ``checkpoint_path``, the server persists
the merged encrypted dataset once (a ``<path>.dataset`` sidecar in the
dataset-file format of :mod:`repro.core.checkpoint`)
and a :class:`~repro.core.checkpoint.TrainerCheckpoint` every
``checkpoint_every`` batches, both atomically.  A server restarted with
``resume=True`` (CLI ``serve-train --resume``) picks the job back up
from disk -- no re-uploads -- and, because the checkpoint carries the
optimizer slots and the shuffle RNG stream, finishes with exactly the
weights, loss curve and batch schedule the uninterrupted run would
have produced.  Neither file contains key material; master secrets
never leave the authority.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import re
import threading

import numpy as np

from repro.core import protocol
from repro.core import serialization as ser
from repro.core.checkpoint import (
    TrainerCheckpoint,
    load_encrypted_tabular,
    npz_path,
    save_encrypted_tabular,
    save_model_weights,
)
from repro.core.config import CryptoNNConfig
from repro.core.cryptonn import CryptoNNTrainer
from repro.core.encdata import EncryptedTabularDataset, merge_encrypted_tabular
from repro.mathutils.group import GroupParams
from repro.matrix.parallel import (
    SecureComputePool,
    get_compute_pool,
    service_workers,
)
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential, TrainingHistory
from repro.nn.optimizers import SGD
from repro.rpc.client import RemoteAuthority
from repro.rpc.framing import MAX_FRAME_BYTES
from repro.rpc import messages as messages_mod
from repro.rpc.messages import (
    Ack,
    ErrorMessage,
    HealthResponse,
    PredictRequest,
    PredictResponse,
    ShardChunk,
    ShardResumeQuery,
    TrainCheckpointRequest,
    TrainStart,
    TrainStatus,
    TrainStatusRequest,
    WireContext,
    shard_fingerprint,
)
from repro.rpc.retry import SERVICE_POLICY
from repro.rpc.service import FramedService
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.obs.tracing import GLOBAL_TRACER


#: Message kinds a training server answers without group parameters.
#: Upload chunks are here too: their bodies are opaque byte ranges, so
#: decoding them needs no group widths -- only the final assembly does.
_CTX_FREE_KINDS = frozenset({
    protocol.KIND_ENCRYPTED_DATA,
    messages_mod.KIND_TRAIN_START,
    messages_mod.KIND_TRAIN_STATUS,
    messages_mod.KIND_TRAIN_CHECKPOINT,
    messages_mod.KIND_PREDICT_REQUEST,
    messages_mod.KIND_SHARD_RESUME,
})

#: smallest group ``serve-train`` forks a compute pool for by default.
#: Its work -- decryption, whose dlog cost follows the bound -- is not
#: the authority's ``cmt^s``, so it has its own measured crossover.  On
#: a 2-core VM the ``mlp-rpc`` job (group size edited, 4 inline/pooled
#: pairs per size) reached its model 5-13% sooner on a 2-worker pool at
#: every size from 32 to 128 bits, but a toy job (16 samples, 2 epochs)
#: at 32 bits lost 6%.  The pool then also subgroup-checked each
#: upload, with a per-element test far costlier than the range check
#: that replaced it.  Groups below 64 bits are toy groups, the CLI
#: default among them, so they stay inline
TRAIN_POOL_MIN_BITS = 64


@dataclasses.dataclass
class _ShardAssembly:
    """Server-side state of one in-flight chunked upload."""

    fingerprint: str
    count: int
    meta: dict
    chunks: dict[int, bytes] = dataclasses.field(default_factory=dict)
    total_bytes: int = 0

    @property
    def complete(self) -> bool:
        return len(self.chunks) == self.count

    def next_index(self) -> int:
        """First chunk index not yet received (resume offset)."""
        for i in range(self.count):
            if i not in self.chunks:
                return i
        return self.count

    def assemble(self) -> bytes:
        return b"".join(self.chunks[i] for i in range(self.count))


def _natural_key(name: str) -> list:
    """Sort key treating digit runs numerically (client-2 < client-10).

    Keeps the merge order identical to the 0..N-1 enumerate order the
    in-process reference uses, for any client count.
    """
    return [int(token) if token.isdigit() else token
            for token in re.split(r"(\d+)", name)]


def build_mlp(n_features: int, hidden: int, num_classes: int,
              seed: int) -> Sequential:
    """The Dense-ReLU-Dense model every runtime entry point trains."""
    rng = np.random.default_rng(seed)
    return Sequential([
        Dense(n_features, hidden, rng=rng),
        ReLU(),
        Dense(hidden, num_classes, rng=rng),
    ])


def run_training(dataset: EncryptedTabularDataset, authority, *,
                 hidden: int = 8, epochs: int = 1, batch_size: int = 20,
                 learning_rate: float = 0.5, seed: int = 0,
                 config: CryptoNNConfig | None = None,
                 checkpoint_path=None, checkpoint_every: int | None = None,
                 resume: bool = False, checkpoint_trigger=None,
                 on_checkpoint=None,
                 pool: SecureComputePool | None = None,
                 ) -> tuple[CryptoNNTrainer, TrainingHistory, float]:
    """One deterministic training run over an encrypted dataset.

    ``serve-train`` (:class:`TrainingService`) trains through this
    function, and ``examples/rpc_loopback.py`` calls it on an
    in-process dataset to check the networked run, so "same seed =>
    same accuracy" holds across transports by construction: decryption
    recovers exact integers, hence identical floating-point trajectories
    either way.  The checkpoint arguments pass straight through to
    ``fit()`` -- with ``resume=True`` the run continues bit-exactly from
    the checkpoint at ``checkpoint_path`` (or starts fresh if none was
    written yet).  The trainer decrypts on ``pool``, or inline without one.
    """
    model = build_mlp(dataset.n_features, hidden, dataset.num_classes, seed)
    trainer = CryptoNNTrainer(model, authority, config=config, pool=pool)
    history = trainer.fit(
        dataset, SGD(learning_rate), epochs=epochs, batch_size=batch_size,
        rng=np.random.default_rng(seed),
        checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every,
        resume=resume, checkpoint_trigger=checkpoint_trigger,
        on_checkpoint=on_checkpoint)
    accuracy = trainer.evaluate(dataset)
    return trainer, history, accuracy


class TrainingService(FramedService):
    """Threaded TCP server for the CryptoNN training side."""

    entity_name = protocol.SERVER

    def __init__(self, authority_host: str, authority_port: int, *,
                 host: str = "127.0.0.1", port: int = 0,
                 expected_clients: int = 1, hidden: int = 8, epochs: int = 1,
                 batch_size: int = 20, learning_rate: float = 0.5,
                 seed: int = 0,
                 checkpoint_path: str | None = None,
                 checkpoint_every: int | None = None,
                 resume: bool = False,
                 authority_timeout: float = 120.0,
                 workers: int | None = None,
                 trace_file: str | None = None,
                 quorum: int | None = None,
                 upload_deadline: float | None = None,
                 model_out: str | None = None):
        super().__init__(host, port)
        self.authority_address = (authority_host, authority_port)
        #: per-request timeout on the authority link; lower it when a
        #: chaos proxy may stall exchanges so the stall converts into a
        #: retried timeout quickly
        self.authority_timeout = authority_timeout
        self.expected_clients = expected_clients
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.checkpoint_path = (str(npz_path(checkpoint_path))
                                if checkpoint_path is not None else None)
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        #: the merged encrypted dataset persisted next to the checkpoint
        #: so a restarted server can resume without re-uploads
        self.dataset_path = (f"{self.checkpoint_path}.dataset"
                             if checkpoint_path is not None else None)
        if resume and checkpoint_path is None:
            raise ValueError("resume=True requires checkpoint_path")

        #: straggler policy: start once ``quorum`` shards have landed
        #: AND the upload deadline (armed at the first accepted shard)
        #: has expired -- or immediately at ``expected_clients``.  The
        #: default quorum equals ``expected_clients`` (wait for all).
        self.quorum = expected_clients if quorum is None else quorum
        if not 1 <= self.quorum <= expected_clients:
            raise ValueError(
                f"quorum must be in [1, {expected_clients}], "
                f"got {self.quorum}")
        if upload_deadline is not None and upload_deadline <= 0:
            raise ValueError("upload_deadline must be > 0 seconds")
        self.upload_deadline = upload_deadline
        if self.quorum < expected_clients and upload_deadline is None:
            raise ValueError(
                "a quorum below expected_clients requires upload_deadline")
        #: where to write the final model weights after a successful run
        #: (atomic .npz; lets out-of-process drivers compare weights)
        self.model_out = model_out

        #: size of the compute pool that decrypts during training; None
        #: picks the default for the authority's group (:meth:`_pool`).
        #: Pooled and inline runs are numerically identical, so this
        #: only changes speed, never the trajectory
        self.workers = workers
        #: JSONL span output for the per-iteration cost decomposition
        self.trace_file = trace_file

        self.state = "waiting"  # waiting -> training -> done | failed
        self.error: str | None = None
        self.accuracy: float | None = None
        self.history: TrainingHistory | None = None
        self.trainer: CryptoNNTrainer | None = None
        self.dataset: EncryptedTabularDataset | None = None
        self.authority: RemoteAuthority | None = None
        #: counters of the last checkpoint written this run (or None)
        self.last_checkpoint: dict | None = None

        self._shards: list[tuple[str, EncryptedTabularDataset]] = []
        #: in-flight chunked uploads, keyed by client name; bounded so
        #: abandoned partial uploads cannot hold memory forever
        self._uploads: dict[str, _ShardAssembly] = {}
        self.max_pending_uploads = max(16, expected_clients * 2)
        #: fingerprint of the shard each client last completed -- lets a
        #: client that lost the final ack learn its upload already
        #: landed without re-sending a single chunk
        self._accepted_fps: dict[str, str] = {}
        self._deadline_passed = False
        self._deadline_timer: threading.Timer | None = None
        self._resuming = False
        self._checkpoint_requested = threading.Event()
        self._done = threading.Event()
        #: the upload state machine: chunks, shards, the quorum
        #: deadline and the start of training
        self._upload_lock = threading.Lock()
        self._predict_lock = threading.Lock()
        self._handshake_lock = threading.Lock()
        self._cached_ctx: WireContext | None = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> tuple[str, int]:
        address = super().start()
        with self._upload_lock:
            if self.resume and self.state == "waiting" \
                    and self.has_durable_job():
                # pick the interrupted job back up from disk: the
                # dataset sidecar replaces the uploads, the trainer
                # checkpoint (if one was written before the crash)
                # replaces the progress
                self._resuming = True
                self._start_training()
        return address

    def has_durable_job(self) -> bool:
        """True when a persisted dataset exists so training can start
        (or finish) without any client uploads."""
        return (self.dataset_path is not None
                and os.path.exists(self.dataset_path))

    def wait_done(self, timeout: float | None = None) -> None:
        """Block until training finished (or failed); TimeoutError if
        ``timeout`` seconds pass first."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"training still {self.state!r} after {timeout}s")

    def stop(self) -> None:
        # close the authority endpoint FIRST: nothing can interrupt the
        # training thread, but its next key request then fails fast on
        # the closed endpoint and the thread exits instead of training
        # (and re-connecting) for hours after "stop".  The attribute
        # stays set so the training thread cannot race in a fresh
        # connection via its None-fallback.
        with self._lock:
            self._stopping = True
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()
        if self.authority is not None:
            self.authority.close()
        super().stop()

    # -- wire context --------------------------------------------------------
    def _connect_authority(self) -> RemoteAuthority:
        """Blocking: the authority link, handshaking on first use.

        ``stop()`` sets ``_stopping`` (under the listener's lock) before
        it closes ``self.authority``, so a link opened concurrently is
        either closed by ``stop()`` or caught by the re-check here.
        """
        if self.authority is None:
            if self._stopping:
                raise RuntimeError("training server is stopping")
            self.authority = RemoteAuthority(
                *self.authority_address, name=protocol.SERVER,
                timeout=self.authority_timeout, policy=SERVICE_POLICY)
            if self._stopping:
                self.authority.close()
                raise RuntimeError("training server is stopping")
        return self.authority

    def _pool(self, params: GroupParams) -> SecureComputePool | None:
        """The compute pool for the authority's ``params`` group, if any:
        the process-wide pool for ``workers`` when set, else for
        :func:`~repro.matrix.parallel.service_workers`' default.  It
        stays in that registry, so ``serve-train`` closes it through
        :func:`~repro.matrix.parallel.shutdown_compute_pools`."""
        workers = self.workers
        if workers is None:
            workers = service_workers(params.bits, TRAIN_POOL_MIN_BITS)
        return get_compute_pool(workers) if workers else None

    def _wire_context(self) -> WireContext:
        if self._cached_ctx is None:
            # serialize concurrent first-connections: exactly one
            # handshake (and one RemoteAuthority endpoint) ever runs
            with self._handshake_lock:
                if self._cached_ctx is None:
                    self._cached_ctx = self._connect_authority().wire_ctx
        return self._cached_ctx

    def _wire_context_for(self, header) -> WireContext | None:
        # control messages (status polls, train-start, predict) need no
        # group widths; answering them must not block on -- or fail
        # with -- an authority handshake
        if self._cached_ctx is None and \
                header.get("kind") in _CTX_FREE_KINDS:
            return None
        return self._wire_context()

    # -- uploads -------------------------------------------------------------
    def _settled_upload(self, msg) -> Ack | None:
        """Answer an upload frame that must not touch an assembly, or
        return None to let it through.

        A resend of a shard this run already holds gets a duplicate-ack:
        the fingerprint the client last completed (its final ack was
        lost), and -- once ``waiting`` ended -- any shard from a client
        whose shard is in the run.  A ``--resume`` restart has no
        in-memory shard list (the merged dataset came off disk), so
        every resend against a resumed job is by definition a
        duplicate.  Any other upload after ``waiting`` ended is refused,
        naming the policy that left a genuine straggler behind.
        """
        waiting = self.state == "waiting"
        if self._accepted_fps.get(msg.client_name) == msg.fingerprint \
                or not waiting and (
                    self._resuming
                    or any(name == msg.client_name
                           for name, _ in self._shards)):
            return Ack(info={"accepted": True, "duplicate": True,
                             "complete": True, "next_index": msg.count,
                             "received": msg.count,
                             "clients": len(self._shards)})
        if waiting:
            return None
        if self._deadline_passed:
            GLOBAL_REGISTRY.counter("repro_upload_stragglers_total").inc()
            raise RuntimeError(
                f"cannot accept uploads in state {self.state!r}: the "
                f"{self.upload_deadline}s upload deadline passed and "
                f"training started at quorum {self.quorum}/"
                f"{self.expected_clients}; resubmit to a later run")
        raise RuntimeError(
            f"cannot accept uploads in state {self.state!r}")

    def _accept_shard(self, client_name: str,
                      dataset: EncryptedTabularDataset,
                      stats: dict | None, fingerprint: str) -> Ack:
        """Record one complete, verified shard."""
        # last write per client name wins, so a client re-uploading
        # different data before training starts replaces its shard
        self._shards = [(name, shard) for name, shard in self._shards
                        if name != client_name]
        self._shards.append((client_name, dataset))
        self._accepted_fps[client_name] = fingerprint
        if stats:
            # client-side encryption-engine counters ride along with
            # the upload; folding them here puts the encrypt half of
            # the cost profile on this server's scrapeable surface
            for key, value in stats.items():
                GLOBAL_REGISTRY.counter(
                    f"repro_client_engine_{key}_total").inc(value)
        self._arm_upload_deadline()
        self._maybe_start()
        return Ack(info={"received": len(dataset),
                         "clients": len(self._shards),
                         "expected": self.expected_clients,
                         "quorum": self.quorum})

    def _arm_upload_deadline(self) -> None:
        """Start the straggler clock at the first accepted shard."""
        if self.upload_deadline is None or self._deadline_timer is not None:
            return
        self._deadline_timer = threading.Timer(
            self.upload_deadline, self._upload_deadline_expired)
        self._deadline_timer.daemon = True
        self._deadline_timer.start()

    def _upload_deadline_expired(self) -> None:
        with self._upload_lock:
            if not self._stopping:
                self._deadline_passed = True
                self._maybe_start()

    def _maybe_start(self) -> None:
        """Start training at full attendance, or at quorum once the
        upload deadline has expired."""
        if self.state != "waiting":
            return
        if len(self._shards) >= self.expected_clients or (
                self._deadline_passed and len(self._shards) >= self.quorum):
            self._start_training()

    def _chunk_assembly_for(self, msg: ShardChunk) -> _ShardAssembly:
        """Find or create the in-flight assembly this chunk belongs to."""
        asm = self._uploads.get(msg.client_name)
        if asm is not None and asm.fingerprint != msg.fingerprint:
            # the client restarted with different data; drop the stale
            # partial and treat this as a fresh upload
            self._uploads.pop(msg.client_name, None)
            asm = None
        if asm is None:
            if msg.index != 0 or msg.meta is None:
                raise RuntimeError(
                    f"no upload in progress for {msg.client_name!r} with "
                    f"fingerprint {msg.fingerprint[:16]}...; restart from "
                    f"chunk 0 (with metadata)")
            if len(self._uploads) >= self.max_pending_uploads:
                raise RuntimeError(
                    f"too many pending chunked uploads "
                    f"({self.max_pending_uploads}); retry later")
            asm = _ShardAssembly(fingerprint=msg.fingerprint,
                                 count=msg.count, meta=dict(msg.meta))
            self._uploads[msg.client_name] = asm
        if msg.count != asm.count:
            self._uploads.pop(msg.client_name, None)
            raise RuntimeError(
                f"chunk count changed mid-upload ({msg.count} != "
                f"{asm.count}); restart from chunk 0")
        return asm

    def _handle_chunk(self, msg: ShardChunk):
        with self._upload_lock:
            settled = self._settled_upload(msg)
            if settled is not None:
                return settled
            asm = self._chunk_assembly_for(msg)
            if msg.index not in asm.chunks:
                if asm.total_bytes + len(msg.chunk) > MAX_FRAME_BYTES:
                    self._uploads.pop(msg.client_name, None)
                    raise RuntimeError(
                        f"chunked upload exceeds {MAX_FRAME_BYTES}"
                        f"-byte assembly limit")
                asm.chunks[msg.index] = msg.chunk
                asm.total_bytes += len(msg.chunk)
                GLOBAL_REGISTRY.counter("repro_upload_chunks_total").inc()
            if not asm.complete:
                return Ack(info={"received": len(asm.chunks),
                                 "next_index": asm.next_index(),
                                 "complete": False})
        # a complete assembly is never written again, so it is checked
        # and unpacked outside the lock: other clients' chunks and
        # resume queries do not wait behind a whole shard's validation
        try:
            dataset = self._unpack_assembly(asm)
        except Exception:
            # drop the assembly so the client's restart starts clean
            with self._upload_lock:
                self._drop_upload(msg.client_name, asm)
            raise
        with self._upload_lock:
            # a resend of this final chunk may have landed the shard,
            # or training may have started, while it was unpacked
            settled = self._settled_upload(msg)
            if settled is not None:
                return settled
            self._drop_upload(msg.client_name, asm)
            ack = self._accept_shard(msg.client_name, dataset,
                                     asm.meta.get("stats"), asm.fingerprint)
        ack.info.update({"next_index": asm.count, "complete": True})
        return ack

    def _drop_upload(self, client_name: str, asm: _ShardAssembly) -> None:
        """Forget ``asm`` unless a newer upload replaced it meanwhile."""
        if self._uploads.get(client_name) is asm:
            del self._uploads[client_name]

    def _unpack_assembly(self, asm: _ShardAssembly) -> EncryptedTabularDataset:
        """The verified, range-checked shard a complete assembly holds."""
        body = asm.assemble()
        if shard_fingerprint(asm.meta, body) != asm.fingerprint:
            raise RuntimeError(
                "assembled shard does not match its fingerprint; "
                "restart the upload from chunk 0")
        ctx = self._wire_context()
        dataset = ser.unpack_encrypted_tabular(asm.meta, body, ctx.params)
        # the training tracer is off while uploads arrive, so this
        # counter is what shows the ingestion work on a metrics scrape
        GLOBAL_REGISTRY.counter("repro_upload_validated_elements_total").inc(
            len(body) // ser.element_size_bytes(ctx.params))
        return dataset

    def _dispatch_upload(self, msg):
        """Answer a resume query or ``train-start``; runs under
        ``_upload_lock``."""
        if isinstance(msg, ShardResumeQuery):
            return self._handle_resume(msg)
        if self.state == "waiting" and self._shards:
            self._start_training()
        return Ack(info={"state": self.state})

    def _handle_resume(self, msg: ShardResumeQuery):
        settled = self._settled_upload(msg)
        if settled is not None:
            return settled
        asm = self._uploads.get(msg.client_name)
        if asm is None or asm.fingerprint != msg.fingerprint \
                or asm.count != msg.count:
            return Ack(info={"accepted": False, "next_index": 0,
                             "received": 0})
        next_index = asm.next_index()
        GLOBAL_REGISTRY.counter(
            "repro_upload_resumed_chunks_total").inc(next_index)
        return Ack(info={"accepted": False, "next_index": next_index,
                         "received": len(asm.chunks)})

    # -- dispatch ------------------------------------------------------------
    def _dispatch(self, msg, sender: str):
        if isinstance(msg, ShardChunk):
            return self._handle_chunk(msg)
        if isinstance(msg, (ShardResumeQuery, TrainStart)):
            with self._upload_lock:
                return self._dispatch_upload(msg)
        if isinstance(msg, TrainStatusRequest):
            return self._status()
        if isinstance(msg, TrainCheckpointRequest):
            if self.checkpoint_path is None:
                raise RuntimeError(
                    "server was started without a checkpoint path")
            scheduled = self.state == "training"
            if scheduled:
                # the training thread polls this after every batch
                self._checkpoint_requested.set()
            return Ack(info={"state": self.state, "scheduled": scheduled,
                             "checkpoint": self.last_checkpoint})
        if isinstance(msg, PredictRequest):
            if self.state != "done":
                raise RuntimeError(
                    f"no trained model yet (state {self.state!r})")
            return PredictResponse(scores=self._predict(msg.indices))
        return ErrorMessage(
            message=f"training service cannot answer {msg.kind!r}",
            error_type="UnsupportedMessage")

    def _status(self) -> TrainStatus:
        detail = {
            "clients": len(self._shards),
            "expected": self.expected_clients,
            "error": self.error,
            "faults": self._fault_report(),
        }
        if self.history is not None:
            detail["epoch_loss"] = self.history.epoch_loss
            detail["epoch_accuracy"] = self.history.epoch_accuracy
        if self.checkpoint_path is not None:
            written = os.path.exists(self.checkpoint_path)
            last = self.last_checkpoint
            if last is None and written:
                # nothing written *this* process yet, but a previous
                # incarnation left a checkpoint: report its counters
                with contextlib.suppress(Exception):
                    last = TrainerCheckpoint.peek_meta(self.checkpoint_path)
            detail["checkpoint"] = {
                "path": str(self.checkpoint_path),
                # resumable = a restarted `serve-train --resume` could
                # pick this job up: dataset sidecar on disk (the trainer
                # checkpoint itself is optional -- without one the job
                # restarts from batch 0, still bit-exactly)
                "resumable": self.has_durable_job(),
                "written": written,
                "last": last,
            }
        return TrainStatus(state=self.state, accuracy=self.accuracy,
                           detail=detail)

    def _fault_report(self) -> dict:
        """Fault/retry counters for the ops surface: the authority
        link's endpoint stats (the handshake connection, and the extra
        feature-key connections summed) plus the compute pool's
        degradation state, in the shared
        :data:`~repro.rpc.retry.STAT_KEYS` vocabulary."""
        report: dict = {"degraded": False}
        authority = self.authority
        if authority is not None:
            report["authority_endpoint"] = authority.endpoint.stats.snapshot()
            report["key_fetch_endpoints"] = authority.fetch_stats()
        trainer = self.trainer
        if trainer is not None and trainer.compute_pool is not None:
            pool_stats = trainer.compute_pool.stats
            report["pool"] = pool_stats
            report["degraded"] = bool(pool_stats["degraded"])
        return report

    # -- observability -------------------------------------------------------
    def _health(self) -> HealthResponse:
        """Ready = keys fetched AND a job is (or can be) configured.

        A server still ``waiting`` with no uploads and no durable job
        cannot do useful work yet; neither can one that has not
        completed the authority handshake (no group parameters, so it
        cannot even decode an upload).
        """
        keys_fetched = self._cached_ctx is not None
        job_configured = self.state != "waiting" or bool(self._shards) \
            or self.has_durable_job()
        return HealthResponse(
            ready=keys_fetched and job_configured,
            state=self.state,
            detail={
                "keys_fetched": keys_fetched,
                "job_configured": job_configured,
                "clients": len(self._shards),
                "expected": self.expected_clients,
                "error": self.error,
            })

    def _obs_collect(self) -> dict[str, int]:
        readings = super()._obs_collect()
        trainer = self.trainer
        if trainer is not None:
            for key, value in trainer.counters.snapshot().items():
                readings[f"repro_trainer_{key}_total"] = value
        return readings

    def _note_checkpoint(self, ckpt: TrainerCheckpoint) -> None:
        # called from the training thread after each atomic write
        self.last_checkpoint = {
            "epoch": ckpt.epoch,
            "batch_in_epoch": ckpt.batch_in_epoch,
            "batch_counter": ckpt.batch_counter,
            "completed": ckpt.completed,
        }

    def _take_checkpoint_request(self) -> bool:
        if self._checkpoint_requested.is_set():
            self._checkpoint_requested.clear()
            return True
        return False

    # -- training ------------------------------------------------------------
    def _start_training(self) -> None:
        self.state = "training"
        threading.Thread(target=self._train, name="training",
                         daemon=True).start()

    def _train(self) -> None:
        try:
            self._train_sync()
            self.state = "done"
        except Exception as exc:  # surfaced through train-status
            self.state = "failed"
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._done.set()

    def _train_sync(self) -> None:
        authority = self._connect_authority()
        if self._resuming:
            self.dataset = load_encrypted_tabular(self.dataset_path)
        else:
            # merge in natural client-name order: deterministic under
            # upload races, and equal to the 0..N-1 enumerate order of
            # the in-process reference even past 9 clients
            parts = [shard for _, shard in
                     sorted(self._shards,
                            key=lambda item: _natural_key(item[0]))]
            self.dataset = merge_encrypted_tabular(parts)
            if self.dataset_path is not None:
                # persisted once (atomically) so a killed-and-restarted
                # server can resume without re-uploads; ciphertexts
                # only -- no key material
                save_encrypted_tabular(self.dataset, self.dataset_path)
        config = dataclasses.replace(authority.config,
                                     batch_key_requests=True)
        # phase timings are part of the service's ops surface: spans
        # land in repro_phase_seconds histograms (and the trace file
        # when configured), scrapeable via service-metrics; disabled
        # again after the run so the global tracer costs nothing while
        # the server merely answers status/predict traffic
        GLOBAL_TRACER.enable(trace_file=self.trace_file,
                             registry=GLOBAL_REGISTRY)
        try:
            self.trainer, self.history, self.accuracy = run_training(
                self.dataset, authority, hidden=self.hidden,
                epochs=self.epochs,
                batch_size=self.batch_size,
                learning_rate=self.learning_rate,
                seed=self.seed, config=config,
                pool=self._pool(authority.params),
                checkpoint_path=self.checkpoint_path,
                checkpoint_every=self.checkpoint_every,
                resume=self._resuming,
                checkpoint_trigger=(self._take_checkpoint_request
                                    if self.checkpoint_path is not None
                                    else None),
                on_checkpoint=(self._note_checkpoint
                               if self.checkpoint_path is not None
                               else None))
        finally:
            GLOBAL_TRACER.disable()
        if self.model_out is not None:
            # atomic, so an out-of-process driver never reads a torn
            # file; written only on success, after which the weights are
            # final and byte-comparable against a reference run
            save_model_weights(self.trainer.model, self.model_out)

    def _predict(self, indices: list[int]) -> list[list[float]]:
        with self._predict_lock:
            scores = self.trainer.predict(self.dataset, np.asarray(indices))
        return [[float(v) for v in row] for row in scores]

"""The exact-resume guarantee, in-process and across process death.

The paper's core claim (decryption recovers exact integers, so the
secure run's float trajectory equals plaintext training) only survives
deployment if a crashed training run can resume *bit-exactly*.  These
tests interrupt ``fit()`` mid-epoch, resume from the durable
:class:`~repro.core.checkpoint.TrainerCheckpoint`, and assert the final
weights, loss curve and batch schedule equal the uninterrupted run's
byte-for-byte (``np.array_equal`` / ``==``, never ``allclose``) -- both
in-process and through a SIGKILLed-and-restarted ``serve-train``.
"""

import dataclasses
import multiprocessing
import os
import random
import time

import numpy as np
import pytest

from repro.core.checkpoint import TrainerCheckpoint
from repro.core.config import CryptoNNConfig
from repro.core.cryptonn import CryptoNNTrainer
from repro.core.entities import Client, TrustedAuthority
from repro.data.preprocess import normalize_features, shared_feature_scale
from repro.data.tabular import load_clinics
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Adam
from repro.rpc import (
    AuthorityService,
    RpcEndpoint,
    RpcRemoteError,
    TrainingService,
    fetch_status,
    free_port,
    run_training,
    upload_shard,
    wait_for_port,
)
from repro.rpc.messages import TrainCheckpointRequest


class Interrupted(Exception):
    """Stand-in for a crash inside the training loop."""


@pytest.fixture()
def authority(kernel_builds):
    # requests kernel_builds so that its count starts before the group
    # builds its first comb
    return TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))


@pytest.fixture()
def enc_dataset(authority):
    shard = load_clinics(n_clinics=1, samples_per_clinic=40, n_features=4,
                         seed=7)[0]
    x = np.clip(shard.x / (np.abs(shard.x).max() + 1e-9), -1, 1)
    return Client(authority).encrypt_tabular(x, shard.y, num_classes=2)


def make_model(seed):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(4, 6, rng=rng), ReLU(), Dense(6, 2, rng=rng)])


def weights_equal(a, b):
    return all(
        set(la) == set(lb) and all(np.array_equal(la[k], lb[k]) for k in la)
        for la, lb in zip(a, b)
    )


def assert_histories_identical(got, expected):
    assert got.batch_loss == expected.batch_loss
    assert got.batch_accuracy == expected.batch_accuracy
    assert got.epoch_loss == expected.epoch_loss
    assert got.epoch_accuracy == expected.epoch_accuracy


FIT_KW = dict(epochs=3, batch_size=16)  # 40 samples -> 3 batches/epoch


class TestInProcessResume:
    def _reference(self, authority, enc_dataset, optimizer):
        trainer = CryptoNNTrainer(make_model(0), authority)
        history = trainer.fit(enc_dataset, optimizer,
                              rng=np.random.default_rng(1), **FIT_KW)
        return trainer.model.get_weights(), history

    def _interrupt_at(self, authority, enc_dataset, optimizer, path, batch):
        trainer = CryptoNNTrainer(make_model(0), authority)

        def crash(i, loss, acc):
            if i == batch:
                raise Interrupted

        with pytest.raises(Interrupted):
            trainer.fit(enc_dataset, optimizer, rng=np.random.default_rng(1),
                        checkpoint_every=1, checkpoint_path=path,
                        on_batch=crash, **FIT_KW)

    @pytest.mark.parametrize("interrupt_batch", [4, 6])
    def test_resume_equals_uninterrupted(self, authority, enc_dataset,
                                         tmp_path, interrupt_batch,
                                         kernel_builds):
        """Interrupt so the last checkpoint lands mid-epoch (batch 4) or
        exactly on an epoch boundary (batch 6, with 3 batches/epoch);
        either way the resumed run is byte-identical."""
        ref_weights, ref_history = self._reference(
            authority, enc_dataset, SGD(0.5, momentum=0.9))
        path = tmp_path / "trainer.npz"
        self._interrupt_at(authority, enc_dataset, SGD(0.5, momentum=0.9),
                           path, interrupt_batch)
        # resume on a DIFFERENTLY-initialized model and optimizer: every
        # piece of state must come from the checkpoint
        resumed = CryptoNNTrainer(make_model(999), authority)
        history = resumed.fit(enc_dataset, SGD(0.01),
                              rng=np.random.default_rng(555),
                              checkpoint_path=path, resume=True, **FIT_KW)
        assert weights_equal(resumed.model.get_weights(), ref_weights)
        assert_histories_identical(history, ref_history)
        # the 32-bit group ran the kernel a 256-bit one runs: encryption
        # walked combs, decryption chains
        combs, caches = kernel_builds()
        assert combs > 0 and caches > 0

    def test_resume_with_adam(self, authority, enc_dataset, tmp_path):
        """Adam's moments and bias-correction timestep checkpoint too."""
        ref_weights, ref_history = self._reference(
            authority, enc_dataset, Adam(0.05))
        path = tmp_path / "trainer.npz"
        self._interrupt_at(authority, enc_dataset, Adam(0.05), path, 4)
        resumed = CryptoNNTrainer(make_model(999), authority)
        history = resumed.fit(enc_dataset, Adam(9.9),
                              rng=np.random.default_rng(2),
                              checkpoint_path=path, resume=True, **FIT_KW)
        assert weights_equal(resumed.model.get_weights(), ref_weights)
        assert_histories_identical(history, ref_history)

    def test_checkpoint_naming_its_loss_still_resumes(self, authority,
                                                      enc_dataset, tmp_path):
        """Checkpoints written while the trainers still took ``loss=``
        carry ``"loss": "cross_entropy"`` in their run metadata.  The
        resume check compares only this run's keys, so such a checkpoint
        resumes byte-exact."""
        ref_weights, ref_history = self._reference(
            authority, enc_dataset, SGD(0.5, momentum=0.9))
        path = tmp_path / "trainer.npz"
        self._interrupt_at(authority, enc_dataset, SGD(0.5, momentum=0.9),
                           path, 4)
        ckpt = TrainerCheckpoint.load(path)
        assert "loss" not in ckpt.run_meta
        dataclasses.replace(
            ckpt, run_meta={**ckpt.run_meta, "loss": "cross_entropy"},
        ).save(path)
        assert TrainerCheckpoint.load(path).run_meta["loss"] == \
            "cross_entropy"
        resumed = CryptoNNTrainer(make_model(999), authority)
        history = resumed.fit(enc_dataset, SGD(0.01),
                              rng=np.random.default_rng(555),
                              checkpoint_path=path, resume=True, **FIT_KW)
        assert weights_equal(resumed.model.get_weights(), ref_weights)
        assert_histories_identical(history, ref_history)

    def test_resume_from_completed_checkpoint_is_a_noop(self, authority,
                                                        enc_dataset,
                                                        tmp_path):
        path = tmp_path / "trainer.npz"
        trainer = CryptoNNTrainer(make_model(0), authority)
        history = trainer.fit(enc_dataset, SGD(0.5),
                              rng=np.random.default_rng(1),
                              checkpoint_path=path, **FIT_KW)
        final = trainer.model.get_weights()
        again = CryptoNNTrainer(make_model(999), authority)
        rerun = again.fit(enc_dataset, SGD(0.5),
                          rng=np.random.default_rng(1),
                          checkpoint_path=path, resume=True, **FIT_KW)
        assert weights_equal(again.model.get_weights(), final)
        assert_histories_identical(rerun, history)

    def test_resume_without_checkpoint_file_starts_fresh(self, authority,
                                                         enc_dataset,
                                                         tmp_path):
        """A crash before the first periodic write leaves no file; the
        resumed run must simply train from scratch, identically."""
        ref_weights, ref_history = self._reference(
            authority, enc_dataset, SGD(0.5))
        trainer = CryptoNNTrainer(make_model(0), authority)
        history = trainer.fit(enc_dataset, SGD(0.5),
                              rng=np.random.default_rng(1),
                              checkpoint_path=tmp_path / "none.npz",
                              resume=True, **FIT_KW)
        assert weights_equal(trainer.model.get_weights(), ref_weights)
        assert_histories_identical(history, ref_history)

    def test_resume_rejects_mismatched_run(self, authority, enc_dataset,
                                           tmp_path):
        path = tmp_path / "trainer.npz"
        self._interrupt_at(authority, enc_dataset, SGD(0.5), path, 4)
        trainer = CryptoNNTrainer(make_model(0), authority)
        with pytest.raises(ValueError, match="different run"):
            trainer.fit(enc_dataset, SGD(0.5),
                        rng=np.random.default_rng(1), epochs=3,
                        batch_size=20,  # != the checkpointed batch_size
                        checkpoint_path=path, resume=True)
        with pytest.raises(ValueError, match="different run"):
            trainer.fit(enc_dataset, Adam(0.5),  # optimizer type changed
                        rng=np.random.default_rng(1),
                        checkpoint_path=path, resume=True, **FIT_KW)

    def test_checkpoint_args_validated(self, authority, enc_dataset):
        trainer = CryptoNNTrainer(make_model(0), authority)
        with pytest.raises(ValueError, match="checkpoint_path"):
            trainer.fit(enc_dataset, SGD(0.5), checkpoint_every=1, **FIT_KW)
        with pytest.raises(ValueError, match="checkpoint_every"):
            trainer.fit(enc_dataset, SGD(0.5), checkpoint_every=0,
                        checkpoint_path="x.npz", **FIT_KW)

    def test_periodic_checkpoints_observed(self, authority, enc_dataset,
                                           tmp_path):
        path = tmp_path / "trainer.npz"
        seen = []
        trainer = CryptoNNTrainer(make_model(0), authority)
        trainer.fit(enc_dataset, SGD(0.5), rng=np.random.default_rng(1),
                    epochs=1, batch_size=16, checkpoint_every=2,
                    checkpoint_path=path,
                    on_checkpoint=lambda c: seen.append(
                        (c.batch_counter, c.completed)))
        # 3 batches: one periodic write at batch 2, one final (completed)
        assert seen == [(2, False), (3, True)]
        assert os.path.exists(path)

    def test_checkpoint_trigger_writes_on_demand(self, authority,
                                                 enc_dataset, tmp_path):
        """The trigger is polled after every batch; a True poll writes a
        snapshot even with no periodic cadence configured."""
        path = tmp_path / "trainer.npz"
        polls = {"n": 0}

        def trigger():
            polls["n"] += 1
            return polls["n"] == 2

        seen = []
        trainer = CryptoNNTrainer(make_model(0), authority)
        trainer.fit(enc_dataset, SGD(0.5), rng=np.random.default_rng(1),
                    epochs=1, batch_size=16, checkpoint_path=path,
                    checkpoint_trigger=trigger,
                    on_checkpoint=lambda c: seen.append(
                        (c.batch_counter, c.completed)))
        assert polls["n"] == 3  # once per batch
        assert seen == [(2, False), (3, True)]


# ---------------------------------------------------------------------------
# the train-checkpoint control message (on-demand snapshots)
# ---------------------------------------------------------------------------

@pytest.mark.timeout_guard(120)
class TestTrainCheckpointMessage:
    def test_request_checkpoint_over_the_wire(self, tmp_path):
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        service = TrainingService(
            *auth_addr, expected_clients=1, hidden=4, epochs=4,
            batch_size=5, seed=0,
            checkpoint_path=str(tmp_path / "job.npz"))
        train_addr = service.start()
        try:
            x, y = _make_shard()
            upload_shard(auth_addr, train_addr, x, y, 2, name="clinic-0",
                         rng=random.Random(1))
            infos = []
            deadline = time.monotonic() + 90
            with RpcEndpoint(*train_addr, name="driver",
                             peer="server") as server:
                while True:
                    info = server.request(
                        TrainCheckpointRequest(requester="driver")).info
                    infos.append(info)
                    if info["state"] in ("done", "failed"):
                        break
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            # either we caught the run mid-flight (snapshot scheduled,
            # then written by the training thread) or it finished first
            assert (any(i["scheduled"] for i in infos)
                    or infos[-1]["state"] == "done")
            service.wait_done(timeout=90)
            assert service.state == "done", service.error
            assert os.path.exists(tmp_path / "job.npz")
            assert service.last_checkpoint["completed"] is True
        finally:
            service.stop()
            auth_service.stop()

    def test_unconfigured_server_refuses(self):
        service = TrainingService("127.0.0.1", free_port(),
                                  expected_clients=1)
        addr = service.start()
        try:
            with RpcEndpoint(*addr, name="client", peer="server") as server, \
                    pytest.raises(RpcRemoteError, match="checkpoint path"):
                server.request(TrainCheckpointRequest(requester="client"))
        finally:
            service.stop()


# ---------------------------------------------------------------------------
# killed-and-restarted training service (the deployment shape)
# ---------------------------------------------------------------------------

HIDDEN, EPOCHS, BATCH_SIZE, LR, SEED = 4, 6, 5, 0.5, 0


def _make_shard():
    shards = load_clinics(n_clinics=1, samples_per_clinic=10, n_features=4,
                          seed=3)
    scale = shared_feature_scale([s.x for s in shards])
    return normalize_features(shards[0].x, scale), shards[0].y


def _serve_authority_proc(port):
    from repro.cli import main
    main(["serve-authority", "--port", str(port), "--seed", str(SEED)])


def _serve_train_proc(port, authority_port, checkpoint, resume):
    from repro.cli import main
    argv = ["serve-train", "--port", str(port),
            "--authority-port", str(authority_port),
            "--expected-clients", "1", "--hidden", str(HIDDEN),
            "--epochs", str(EPOCHS), "--batch-size", str(BATCH_SIZE),
            "--learning-rate", str(LR), "--seed", str(SEED),
            "--checkpoint", checkpoint, "--checkpoint-every", "1", "--stay"]
    if resume:
        argv.append("--resume")
    main(argv)


@pytest.mark.timeout_guard(300)
class TestKilledAndRestartedService:
    def test_resumed_service_matches_uninterrupted_run(self, tmp_path):
        """SIGKILL the training server mid-run, restart it with
        ``--resume``: final accuracy and the full epoch curves must equal
        the uninterrupted run's exactly."""
        x, y = _make_shard()
        ref_authority = TrustedAuthority(CryptoNNConfig(),
                                         rng=random.Random(SEED))
        enc = Client(ref_authority, name="clinic-0").encrypt_tabular(x, y, 2)
        config = dataclasses.replace(ref_authority.config,
                                     batch_key_requests=True)
        _, ref_history, ref_accuracy = run_training(
            enc, ref_authority, hidden=HIDDEN, epochs=EPOCHS,
            batch_size=BATCH_SIZE, learning_rate=LR, seed=SEED,
            config=config)

        checkpoint = str(tmp_path / "job.npz")
        ctx = multiprocessing.get_context("fork")
        auth_port = free_port()
        authority_proc = ctx.Process(
            target=_serve_authority_proc, args=(auth_port,), daemon=True)
        first_port = free_port()
        first_proc = ctx.Process(
            target=_serve_train_proc,
            args=(first_port, auth_port, checkpoint, False), daemon=True)
        second_proc = None
        try:
            authority_proc.start()
            wait_for_port("127.0.0.1", auth_port)
            first_proc.start()
            wait_for_port("127.0.0.1", first_port)
            upload_shard(("127.0.0.1", auth_port),
                         ("127.0.0.1", first_port), x, y, 2,
                         name="clinic-0", rng=random.Random(100))

            # kill -9 as soon as the first checkpoint lands (mid-run:
            # 12 batches total, checkpoints every batch)
            deadline = time.monotonic() + 120
            while not os.path.exists(checkpoint):
                assert time.monotonic() < deadline, "no checkpoint appeared"
                time.sleep(0.02)
            first_proc.kill()
            first_proc.join(timeout=10)
            assert os.path.exists(checkpoint + ".dataset")

            # restart with --resume: no re-uploads, training continues
            second_port = free_port()
            second_proc = ctx.Process(
                target=_serve_train_proc,
                args=(second_port, auth_port, checkpoint, True), daemon=True)
            second_proc.start()
            wait_for_port("127.0.0.1", second_port)

            # a client retrying its upload (its ack died with the first
            # server) must get a duplicate-ack, not an error: the
            # resumed job already holds the shard durably on disk
            resend = upload_shard(("127.0.0.1", auth_port),
                                  ("127.0.0.1", second_port), x, y, 2,
                                  name="clinic-0", rng=random.Random(101))
            assert resend["ack"]["duplicate"] is True

            deadline = time.monotonic() + 240
            while True:
                status = fetch_status(("127.0.0.1", second_port))
                if status.state in ("done", "failed"):
                    break
                assert time.monotonic() < deadline, status.state
                time.sleep(0.2)

            assert status.state == "done", status.detail
            assert status.accuracy == ref_accuracy
            assert status.detail["epoch_loss"] == ref_history.epoch_loss
            assert status.detail["epoch_accuracy"] == \
                ref_history.epoch_accuracy
            assert status.detail["checkpoint"]["resumable"] is True
            assert status.detail["checkpoint"]["written"] is True
        finally:
            for proc in (second_proc, first_proc, authority_proc):
                if proc is not None and proc.is_alive():
                    proc.kill()
                    proc.join(timeout=10)

"""Supervisor tests: crash-loop backoff, giveup latching, SIGKILL healing.

The crash-loop tests drive :class:`~repro.rpc.supervisor.Supervisor`
against trivially-dying children and pin the restart schedule: backoff
floors grow exponentially, a child that keeps dying latches ``giveup``
after its restart budget (no restart storms), and a child that stays up
past ``stable_seconds`` earns its failure budget back.

The e2e test is the acceptance bar for the self-healing runtime:
``kill -9`` BOTH the training server and the authority mid-run under
the supervisor; the healed run's final weights must be byte-identical
(``np.array_equal``) to an uninterrupted run's, because the authority
restarts from its key file and the trainer resumes from its durable
checkpoint.  Its supervision report lands in
``benchmarks/results/SUPERVISOR_e2e.json`` for CI artifact upload.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.checkpoint import load_model_weights, save_authority
from repro.core.config import CryptoNNConfig
from repro.core.encdata import merge_encrypted_tabular
from repro.core.entities import Client, TrustedAuthority
from repro.data.preprocess import normalize_features, shared_feature_scale
from repro.data.tabular import load_clinics
from repro.rpc import (
    ChildSpec,
    RetryPolicy,
    RpcError,
    Supervisor,
    build_mlp,
    fetch_status,
    free_port,
    repro_argv,
    run_training,
    upload_shard,
    wait_for_port,
)

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent \
    / "benchmarks" / "results"

HIDDEN, EPOCHS, BATCH_SIZE, LR, SEED = 6, 2, 10, 0.5, 0


def _crasher_spec(exit_code: int = 13) -> ChildSpec:
    return ChildSpec(
        name="crasher",
        argv=[sys.executable, "-c", f"import sys; sys.exit({exit_code})"])


def _drive(supervisor: Supervisor, until, timeout: float) -> None:
    """Poll the supervisor on the test thread until ``until()``."""
    deadline = time.monotonic() + timeout
    while not until():
        assert time.monotonic() < deadline, "supervisor never converged"
        supervisor.poll_once()
        time.sleep(0.02)


@pytest.mark.timeout_guard(120)
class TestCrashLoop:
    def test_crash_loop_backs_off_then_gives_up(self, monkeypatch):
        """Instantly-dying child: restarts are spaced by growing backoff
        and stop for good at the policy's budget -- counted, latched,
        no restart storm."""
        spawn_times: list[float] = []
        orig_spawn = Supervisor._spawn

        def spying_spawn(self, child):
            spawn_times.append(time.monotonic())
            orig_spawn(self, child)

        monkeypatch.setattr(Supervisor, "_spawn", spying_spawn)
        supervisor = Supervisor(
            [_crasher_spec()],
            restart_policy=RetryPolicy(max_attempts=3, base_delay=0.2,
                                       max_delay=1.0, jitter=False),
            stable_seconds=30.0, poll_interval=0.02)
        try:
            supervisor.start()
            _drive(supervisor, supervisor.all_gave_up, timeout=60)
            child = supervisor.status()["crasher"]
            assert child["gave_up"] is True
            assert child["alive"] is False
            assert child["restarts"] == 2  # 3 spawns total, then latch
            assert child["crashes"] == 3
            assert child["last_exit"] == 13
            counters = supervisor.stats_snapshot()["counters"]
            assert counters["repro_supervisor_spawns_total"] == 3
            assert counters["repro_supervisor_restarts_total"] == 2
            assert counters["repro_supervisor_crashes_total"] == 3
            assert counters["repro_supervisor_giveups_total"] == 1
            # deterministic backoff floors: >=0.2s before the first
            # restart, >=0.4s before the second (gap includes the
            # child's own lifetime, so these are lower bounds)
            gaps = [b - a for a, b in zip(spawn_times, spawn_times[1:])]
            assert len(gaps) == 2
            assert gaps[0] >= 0.2
            assert gaps[1] >= 0.4
            # latched: further polls never spawn again
            for _ in range(20):
                supervisor.poll_once()
            assert len(spawn_times) == 3
        finally:
            supervisor.stop()

    def test_stable_uptime_resets_the_failure_budget(self):
        """A child that stays up past stable_seconds gets its restart
        budget back: occasional crashes spaced by healthy uptime never
        accumulate into a giveup."""
        spec = ChildSpec(
            name="flapper",
            argv=[sys.executable, "-c",
                  "import sys, time; time.sleep(0.6); sys.exit(7)"])
        supervisor = Supervisor(
            [spec],
            restart_policy=RetryPolicy(max_attempts=2, base_delay=0.05,
                                       max_delay=0.1, jitter=False),
            stable_seconds=0.3, poll_interval=0.02)
        try:
            supervisor.start()
            # max_attempts=2 allows one restart per streak; three spawns
            # can only happen if healthy uptime reset the streak
            _drive(supervisor,
                   lambda: supervisor.status()["flapper"]["restarts"] >= 2,
                   timeout=60)
            assert not supervisor.all_gave_up()
            assert supervisor.status()["flapper"]["gave_up"] is False
        finally:
            supervisor.stop()


# ---------------------------------------------------------------------------
# acceptance: kill -9 both services mid-run, heal to byte-exact weights
# ---------------------------------------------------------------------------

def _make_shards(n_clients=2, samples=15, features=4):
    shards = load_clinics(n_clinics=n_clients, samples_per_clinic=samples,
                          n_features=features, seed=3)
    scale = shared_feature_scale([s.x for s in shards])
    return [(normalize_features(s.x, scale), s.y) for s in shards]


def _weights_of(trainer):
    return [
        {name: np.array(value, copy=True)
         for name, value in layer.params.items()}
        for layer in trainer.model.layers
        if getattr(layer, "params", None)
    ]


@pytest.mark.timeout_guard(600)
class TestSupervisedHealing:
    def test_sigkill_both_services_heals_to_byte_exact_model(self, tmp_path):
        shards = _make_shards()
        n_features = shards[0][0].shape[1]

        # ---- uninterrupted reference, same authority key file --------
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        authority_file = str(tmp_path / "authority.json")
        save_authority(authority, authority_file)
        parts = [
            Client(authority, name=f"clinic-{i}").encrypt_tabular(x, y, 2)
            for i, (x, y) in enumerate(shards)
        ]
        ref_trainer, ref_history, ref_accuracy = run_training(
            merge_encrypted_tabular(parts), authority, hidden=HIDDEN,
            epochs=EPOCHS, batch_size=BATCH_SIZE, learning_rate=LR,
            seed=SEED)
        ref_weights = _weights_of(ref_trainer)

        # ---- the supervised deployment -------------------------------
        auth_port, train_port = free_port(), free_port()
        checkpoint = str(tmp_path / "job.npz")
        model_out = str(tmp_path / "healed_model.npz")
        supervisor = Supervisor(
            [
                ChildSpec(
                    name="authority",
                    argv=repro_argv(
                        "serve-authority", "--port", str(auth_port),
                        "--authority", authority_file),
                    port=auth_port),
                ChildSpec(
                    name="trainer",
                    argv=repro_argv(
                        "serve-train", "--port", str(train_port),
                        "--authority-port", str(auth_port),
                        "--expected-clients", "2",
                        "--hidden", str(HIDDEN),
                        "--epochs", str(EPOCHS),
                        "--batch-size", str(BATCH_SIZE),
                        "--learning-rate", str(LR),
                        "--seed", str(SEED),
                        "--checkpoint", checkpoint,
                        "--checkpoint-every", "1",
                        "--model-out", model_out,
                        "--authority-timeout", "5",
                        "--resume", "--stay"),
                    port=train_port),
            ],
            restart_policy=RetryPolicy(max_attempts=5, base_delay=0.2,
                                       max_delay=2.0, jitter=False),
            stable_seconds=2.0, poll_interval=0.05)
        loop = threading.Thread(target=supervisor.run, daemon=True)
        try:
            supervisor.start()
            loop.start()
            wait_for_port("127.0.0.1", auth_port)
            wait_for_port("127.0.0.1", train_port)

            # resumable chunked uploads (different nonce rngs than the
            # reference: decryption is exact, so results match anyway)
            for i, (x, y) in enumerate(shards):
                result = upload_shard(
                    ("127.0.0.1", auth_port), ("127.0.0.1", train_port),
                    x, y, 2, name=f"clinic-{i}",
                    rng=random.Random(100 + i), chunk_bytes=256)
                assert result["ack"]["complete"] is True

            # kill -9 the trainer as soon as the first checkpoint lands
            # (mid-epoch: 6 batches total, checkpointed every batch)
            deadline = time.monotonic() + 120
            while not os.path.exists(checkpoint):
                assert time.monotonic() < deadline, "no checkpoint appeared"
                time.sleep(0.02)
            trainer_pid = supervisor._children["trainer"].proc.pid
            os.kill(trainer_pid, signal.SIGKILL)
            # ... and kill -9 the authority while the trainer is down,
            # so the healed trainer must also ride out the authority's
            # own death and restart
            authority_pid = supervisor._children["authority"].proc.pid
            os.kill(authority_pid, signal.SIGKILL)

            # the supervisor heals both: restarted authority re-derives
            # identical keys from its file, restarted trainer resumes
            # the job from the durable dataset + checkpoint
            status = None
            deadline = time.monotonic() + 420
            while time.monotonic() < deadline:
                try:
                    status = fetch_status(("127.0.0.1", train_port),
                                          timeout=5.0)
                except RpcError:
                    time.sleep(0.2)
                    continue
                if status.state in ("done", "failed"):
                    break
                time.sleep(0.2)
            assert status is not None, "trainer never came back"
            assert status.state == "done", status.detail

            child_status = supervisor.status()
            assert child_status["trainer"]["restarts"] >= 1
            assert child_status["authority"]["restarts"] >= 1
            assert not supervisor.all_gave_up()

            # byte-exact healing: accuracy, loss curves, and weights
            assert status.accuracy == ref_accuracy
            assert status.detail["epoch_loss"] == ref_history.epoch_loss
            assert status.detail["epoch_accuracy"] == \
                ref_history.epoch_accuracy
            deadline = time.monotonic() + 30
            while not os.path.exists(model_out):
                assert time.monotonic() < deadline, "model file missing"
                time.sleep(0.05)
            healed = build_mlp(n_features, HIDDEN, 2, SEED)
            load_model_weights(healed, model_out)
            healed_weights = [
                {name: np.asarray(value)
                 for name, value in layer.params.items()}
                for layer in healed.layers
                if getattr(layer, "params", None)
            ]
            assert len(healed_weights) == len(ref_weights)
            for got_layer, ref_layer in zip(healed_weights, ref_weights):
                assert set(got_layer) == set(ref_layer)
                for name in ref_layer:
                    assert np.array_equal(got_layer[name],
                                          ref_layer[name])

            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            payload = supervisor.stats_snapshot()
            payload["scenario"] = "sigkill_trainer_and_authority_mid_run"
            payload["byte_exact"] = True
            payload["accuracy"] = status.accuracy
            (RESULTS_DIR / "SUPERVISOR_e2e.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True))
        finally:
            supervisor.stop()
            loop.join(timeout=10)

"""Chaos-hardening tests: deterministic fault injection over real sockets.

The crypto-grade acceptance bar: a training run through a
:class:`~repro.rpc.chaos.ChaosProxy` dropping/stalling a double-digit
percentage of authority exchanges must reproduce the clean run's
weights, loss curve and accuracy **byte-for-byte** -- key derivation is
deterministic and idempotent, so transport retries cannot perturb the
floating-point trajectory.  Same bar across an authority process
kill-and-restart mid-run.

The chaos e2e test also writes its fault-counter summary to
``benchmarks/results/CHAOS_fault_counters.json`` so CI can upload it as
a workflow artifact next to the ``BENCH_*.json`` files.
"""

from __future__ import annotations

import json
import pathlib
import random
import time

import numpy as np
import pytest

from repro.core.checkpoint import load_authority, save_authority
from repro.core.config import CryptoNNConfig
from repro.core.encdata import merge_encrypted_tabular
from repro.core.entities import Client, TrustedAuthority
from repro.data.preprocess import normalize_features, shared_feature_scale
from repro.data.tabular import load_clinics
from repro.rpc import (
    AuthorityService,
    ChaosConfig,
    ChaosProxy,
    ChaosSchedule,
    MetricsRequest,
    RemoteAuthority,
    RetryPolicy,
    RpcEndpoint,
    TrainingService,
    run_training,
    upload_shard,
)

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent \
    / "benchmarks" / "results"

HIDDEN, EPOCHS, BATCH_SIZE, LR, SEED = 6, 2, 10, 0.5, 0


# ---------------------------------------------------------------------------
# the deterministic schedule
# ---------------------------------------------------------------------------

def decisions(schedule: ChaosSchedule, count: int) -> list[str | None]:
    """The schedule's first ``count`` decisions, asked in order."""
    return [schedule.fault_for(i) for i in range(count)]


class TestChaosSchedule:
    def test_same_seed_same_decisions(self):
        config = ChaosConfig.uniform(0.5)
        a = decisions(ChaosSchedule(seed=42, config=config), 64)
        b = decisions(ChaosSchedule(seed=42, config=config), 64)
        assert a == b
        assert decisions(ChaosSchedule(seed=43, config=config), 64) != a

    def test_fault_for_is_memoized_pure(self):
        sched = ChaosSchedule(seed=1, config=ChaosConfig.uniform(0.9))
        # out-of-order queries answer identically to in-order ones
        late = sched.fault_for(10)
        assert decisions(sched, 11)[10] == late
        assert sched.fault_for(10) == late

    def test_rates_realized_approximately(self):
        sched = ChaosSchedule(seed=0, config=ChaosConfig(reset_before=0.25))
        draws = decisions(sched, 2000)
        rate = sum(d == "reset-before" for d in draws) / len(draws)
        assert 0.18 <= rate <= 0.32
        assert set(draws) <= {None, "reset-before"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(reset_before=0.7, stall=0.7)  # sums past 1
        with pytest.raises(ValueError):
            ChaosConfig(corrupt=-0.1)


# ---------------------------------------------------------------------------
# per-fault proxy behavior against a live authority
# ---------------------------------------------------------------------------

class _ScriptedSchedule:
    """Fixed decision list (then clean) -- for per-fault assertions."""

    def __init__(self, decisions, config: ChaosConfig | None = None):
        self._decisions = list(decisions)
        self.config = config if config is not None else ChaosConfig()

    def fault_for(self, index: int):
        if index < len(self._decisions):
            return self._decisions[index]
        return None


@pytest.fixture()
def proxied_authority():
    """A live authority with a chaos proxy in front, scripted per test."""
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
    auth_service = AuthorityService(authority)
    auth_host, auth_port = auth_service.start()
    proxy = ChaosProxy(auth_host, auth_port)
    proxy_addr = proxy.start()
    yield authority, proxy, proxy_addr
    proxy.stop()
    auth_service.stop()


@pytest.mark.timeout_guard(120)
class TestChaosProxyFaults:
    def _remote(self, addr, **kwargs):
        kwargs.setdefault("policy", RetryPolicy(max_attempts=6,
                                                base_delay=0.01,
                                                max_delay=0.1))
        return RemoteAuthority(*addr, name="server", **kwargs)

    def test_clean_proxy_is_transparent(self, proxied_authority):
        authority, proxy, addr = proxied_authority
        with self._remote(addr) as remote:
            assert remote.params == authority.params
            keys = remote.derive_feip_keys_batch([[1, 2, 3]])
            assert keys == authority.derive_feip_keys_batch([[1, 2, 3]])
        assert proxy.stats["exchanges"] >= 2
        assert proxy.fault_summary()["drops"] == 0

    @pytest.mark.parametrize("fault", ["reset-before", "reset-after",
                                       "truncate", "corrupt"])
    def test_drop_faults_are_retried_through(self, proxied_authority, fault):
        authority, proxy, addr = proxied_authority
        # fault the 2nd and 3rd exchanges; handshake and the rest clean
        proxy.schedule = _ScriptedSchedule([None, fault, fault])
        with self._remote(addr) as remote:
            keys = remote.derive_feip_keys_batch([[5, -6, 7]])
            assert keys == authority.derive_feip_keys_batch([[5, -6, 7]])
            stats = remote.endpoint.stats.snapshot()
        assert proxy.stats[fault] == 2
        assert stats["retries"] >= 2
        assert stats["drops"] >= 2
        assert stats["giveups"] == 0

    def test_stall_converts_into_timeout_then_retry(self, proxied_authority):
        authority, proxy, addr = proxied_authority
        proxy.schedule = _ScriptedSchedule(
            [None, "stall"], ChaosConfig(stall_s=5.0))
        with self._remote(addr, timeout=0.5) as remote:
            keys = remote.derive_feip_keys_batch([[1, 1]])
            assert keys == authority.derive_feip_keys_batch([[1, 1]])
            stats = remote.endpoint.stats.snapshot()
        assert stats["timeouts"] >= 1
        assert stats["giveups"] == 0
        assert proxy.fault_summary()["timeouts"] == 1

    def test_delay_fault_only_adds_latency(self, proxied_authority):
        authority, proxy, addr = proxied_authority
        proxy.schedule = _ScriptedSchedule(
            [None, "delay"], ChaosConfig(delay_s=0.3))
        with self._remote(addr) as remote:
            start = time.monotonic()
            keys = remote.derive_feip_keys_batch([[2, 2]])
            elapsed = time.monotonic() - start
            assert keys == authority.derive_feip_keys_batch([[2, 2]])
            assert elapsed >= 0.3
            assert remote.endpoint.stats.retries == 0

    def test_exhausted_policy_gives_up_with_counters(self, proxied_authority):
        _, proxy, addr = proxied_authority
        proxy.schedule = _ScriptedSchedule([None] + ["reset-before"] * 50)
        with self._remote(addr) as remote:
            with pytest.raises(Exception):
                remote.derive_feip_keys_batch([[1]])
            assert remote.endpoint.stats.giveups == 1
            # 1 handshake attempt + the policy's 6 for the failed request
            assert remote.endpoint.stats.attempts == 7
            assert remote.endpoint.stats.drops == 6


# ---------------------------------------------------------------------------
# end-to-end: training through weather is byte-for-byte clean
# ---------------------------------------------------------------------------

def _make_shards(n_clients=2, samples=15, features=4):
    shards = load_clinics(n_clinics=n_clients, samples_per_clinic=samples,
                          n_features=features, seed=3)
    scale = shared_feature_scale([s.x for s in shards])
    return [(normalize_features(s.x, scale), s.y) for s in shards]


def _clean_reference(shards):
    """The in-process run every chaos scenario must reproduce exactly."""
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(SEED))
    parts = [
        Client(authority, name=f"clinic-{i}").encrypt_tabular(x, y, 2)
        for i, (x, y) in enumerate(shards)
    ]
    merged = merge_encrypted_tabular(parts)
    trainer, history, accuracy = run_training(
        merged, authority, hidden=HIDDEN, epochs=EPOCHS,
        batch_size=BATCH_SIZE, learning_rate=LR, seed=SEED)
    return _weights_of(trainer), history, accuracy


def _weights_of(trainer):
    return [
        {name: np.array(value, copy=True)
         for name, value in layer.params.items()}
        for layer in trainer.model.layers
        if getattr(layer, "params", None)
    ]


def _assert_identical_run(service, ref_weights, ref_history, ref_accuracy):
    assert service.state == "done", service.error
    assert service.accuracy == ref_accuracy
    got = _weights_of(service.trainer)
    assert len(got) == len(ref_weights)
    for got_layer, ref_layer in zip(got, ref_weights):
        assert set(got_layer) == set(ref_layer)
        for name in ref_layer:
            assert np.array_equal(got_layer[name], ref_layer[name])
    assert service.history.batch_loss == ref_history.batch_loss
    assert service.history.epoch_loss == ref_history.epoch_loss


@pytest.mark.timeout_guard(420)
class TestChaosTraining:
    def test_training_through_weather_is_byte_exact(self, kernel_builds):
        """Seeded chaos on the authority link (>=10% resets+stalls, plus
        truncation/corruption/latency): the run retries through every
        fault and lands on the clean run's exact weights and history."""
        shards = _make_shards()
        ref_weights, ref_history, ref_accuracy = _clean_reference(shards)
        combs_before, caches_before = kernel_builds()

        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        # >= 10% resets+stalls on the authority link, plus every other
        # fault kind at a lower rate; stalls resolve fast via the short
        # authority timeout below
        chaos = ChaosConfig(reset_before=0.06, reset_after=0.05, stall=0.04,
                            truncate=0.03, corrupt=0.03, delay=0.03,
                            stall_s=3.0)
        proxy = ChaosProxy(*auth_addr, seed=7, config=chaos)
        proxy_addr = proxy.start()

        service = TrainingService(
            *proxy_addr, expected_clients=len(shards), hidden=HIDDEN,
            epochs=EPOCHS, batch_size=BATCH_SIZE, learning_rate=LR,
            seed=SEED, authority_timeout=1.5)
        train_addr = service.start()
        try:
            # uploads go straight to the authority (clean link): chaos
            # is scripted on the server->authority key-request link
            for i, (x, y) in enumerate(shards):
                upload_shard(auth_addr, train_addr, x, y, 2,
                             name=f"clinic-{i}", rng=random.Random(100 + i))
            service.wait_done(timeout=360)

            _assert_identical_run(service, ref_weights, ref_history,
                                  ref_accuracy)
            # at 32 bits serve-train has no pool and decrypts in this
            # process, on the kernel a 256-bit run uses
            combs, caches = kernel_builds()
            assert combs > combs_before and caches > caches_before

            summary = proxy.fault_summary()
            endpoint_stats = service.authority.endpoint.stats.snapshot()
            # the schedule must actually have injected faults, and the
            # endpoint must actually have retried through them
            assert summary["drops"] + summary["timeouts"] > 0
            assert endpoint_stats["retries"] > 0
            assert endpoint_stats["giveups"] == 0

            # fault counters surface on the ops surface (train-status)
            faults = service._status().detail["faults"]
            assert faults["authority_endpoint"] == endpoint_stats
            assert faults["degraded"] is False

            # the same counters are scrapeable over the wire: the
            # metrics probe needs no handshake and works mid-lifecycle
            with RpcEndpoint(*train_addr, name="scraper",
                             peer="server") as endpoint:
                scraped = endpoint.request(
                    MetricsRequest(requester="scraper")).metrics
            counters = scraped["counters"]
            assert counters["repro_rpc_retries_total"] > 0
            assert counters["repro_trainer_feip_decrypts_total"] > 0
            phase_hists = {
                name: hist
                for name, hist in scraped["histograms"].items()
                if name.startswith("repro_phase_seconds")
            }
            assert phase_hists, "phase spans never reached the registry"

            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            payload = {
                "scenario": "training_through_chaos_proxy",
                "chaos_seed": 7,
                "proxy": summary,
                "authority_endpoint": endpoint_stats,
                "byte_exact": True,
            }
            (RESULTS_DIR / "CHAOS_fault_counters.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True))
            # CI uploads this scrape as an artifact and asserts the
            # fault counters it carries are nonzero
            (RESULTS_DIR / "METRICS_chaos_run.json").write_text(
                json.dumps({
                    "scenario": "training_through_chaos_proxy",
                    "counters": counters,
                    "gauges": scraped["gauges"],
                    "phase_histograms": {
                        name: {"count": hist["count"], "sum": hist["sum"]}
                        for name, hist in phase_hists.items()
                    },
                }, indent=2, sort_keys=True))
        finally:
            service.stop()
            proxy.stop()
            auth_service.stop()

    def test_authority_kill_and_restart_mid_run_is_byte_exact(self, tmp_path):
        """Kill the authority process mid-training and restart it from
        its persisted master keys on the same port: the training run
        rides out the outage on retries and still reproduces the clean
        run byte-for-byte."""
        shards = _make_shards()
        ref_weights, ref_history, ref_accuracy = _clean_reference(shards)

        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_service = AuthorityService(authority)
        auth_host, auth_port = auth_service.start()

        service = TrainingService(
            auth_host, auth_port, expected_clients=len(shards),
            hidden=HIDDEN, epochs=EPOCHS, batch_size=BATCH_SIZE,
            learning_rate=LR, seed=SEED, authority_timeout=5.0,
            checkpoint_path=str(tmp_path / "job.npz"), checkpoint_every=1)
        train_addr = service.start()
        second_service = None
        try:
            for i, (x, y) in enumerate(shards):
                upload_shard((auth_host, auth_port), train_addr, x, y, 2,
                             name=f"clinic-{i}", rng=random.Random(100 + i))
            # wait until training is demonstrably mid-run (>= 1 batch
            # done) -- one full batch touches every eta the architecture
            # uses, so all master keys have materialized and the
            # persisted authority is complete
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                last = service.last_checkpoint
                if last is not None and last["batch_counter"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("training never reached batch 1")

            # persist the master keys, then kill the authority mid-run
            auth_file = tmp_path / "authority.json"
            save_authority(authority, auth_file)
            auth_service.stop()

            # restart on the SAME port from the persisted master keys;
            # key derivation is deterministic, so the reborn authority
            # answers every re-sent request identically
            restored = load_authority(auth_file, rng=random.Random(999))
            second_service = AuthorityService(restored, host=auth_host,
                                              port=auth_port)
            second_service.start()

            service.wait_done(timeout=300)
            _assert_identical_run(service, ref_weights, ref_history,
                                  ref_accuracy)
            stats = service.authority.endpoint.stats
            assert stats.reconnects >= 1  # the outage really happened
            assert stats.giveups == 0
        finally:
            service.stop()
            if second_service is not None:
                second_service.stop()
            auth_service.stop()

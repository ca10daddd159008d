"""Pooled vs serial secure training: CryptoCNN forward, CryptoNN fits."""

import random

import numpy as np
import pytest

from repro.core.config import CryptoNNConfig
from repro.core.cryptocnn import CryptoCNNTrainer
from repro.core.cryptonn import CryptoNNTrainer
from repro.core.entities import Client, Server, TrustedAuthority
from repro.data.synth_digits import load_synth_digits
from repro.data.tabular import load_clinics
from repro.matrix.parallel import SecureComputePool, get_compute_pool
from repro.nn.layers import Dense, Sigmoid
from repro.nn.lenet import build_lenet_small
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.obs.tracing import GLOBAL_TRACER


@pytest.fixture(scope="module")
def digits():
    train, _ = load_synth_digits(n_train=12, n_test=4, canvas=8, seed=6)
    return train


def build_setup():
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
    return authority, Client(authority)


class TestParallelForward:
    def test_parallel_matches_serial_forward(self, digits):
        auth_serial, client_serial = build_setup()
        auth_parallel, client_parallel = build_setup()
        # same authority RNG seed -> same keys; same client encryption RNG
        enc_s = client_serial.encrypt_images(digits.x, digits.y, 10, 3, 1, 1)
        enc_p = client_parallel.encrypt_images(digits.x, digits.y, 10, 3, 1, 1)
        model_s = build_lenet_small(np.random.default_rng(0), image_size=8)
        model_p = build_lenet_small(np.random.default_rng(0), image_size=8)
        trainer_s = CryptoCNNTrainer(model_s, auth_serial)
        trainer_p = CryptoCNNTrainer(model_p, auth_parallel,
                                     pool=get_compute_pool(2))
        z_s = trainer_s.secure_input.forward(enc_s.images[:4], np.arange(4),
                                             training=False)
        z_p = trainer_p.secure_input.forward(enc_p.images[:4], np.arange(4),
                                             training=False)
        np.testing.assert_array_equal(z_s, z_p)

    def test_parallel_training_step_runs(self, digits):
        authority, client = build_setup()
        enc = client.encrypt_images(digits.x, digits.y, 10, 3, 1, 1)
        model = build_lenet_small(np.random.default_rng(1), image_size=8)
        trainer = CryptoCNNTrainer(model, authority,
                                   pool=get_compute_pool(2))
        hist = trainer.fit(enc, SGD(0.3), epochs=1, batch_size=6,
                           rng=np.random.default_rng(2))
        assert len(hist.batch_loss) == 2
        assert all(np.isfinite(l) for l in hist.batch_loss)

    def test_counters_count_parallel_decrypts(self, digits):
        authority, client = build_setup()
        enc = client.encrypt_images(digits.x[:3], digits.y[:3], 10, 3, 1, 1)
        model = build_lenet_small(np.random.default_rng(1), image_size=8,
                                  conv_channels=4)
        trainer = CryptoCNNTrainer(model, authority,
                                   pool=get_compute_pool(2))
        trainer.secure_input.forward(enc.images, np.arange(3), training=False)
        assert trainer.counters.feip_decrypts == 3 * 64 * 4

    def test_conv_forward_opens_key_fetch_and_dispatch_spans(self, digits):
        """SecureConvInput traces like SecureLinearInput: one key-fetch
        span, then one span around the decryption dispatch."""
        authority, client = build_setup()
        enc = client.encrypt_images(digits.x[:2], digits.y[:2], 10, 3, 1, 1)
        trainer = CryptoCNNTrainer(
            build_lenet_small(np.random.default_rng(0), image_size=8),
            authority)
        GLOBAL_TRACER.clear()
        GLOBAL_TRACER.enable()
        try:
            trainer.secure_input.forward(enc.images, np.arange(2),
                                         training=False)
        finally:
            GLOBAL_TRACER.disable()
        spans = GLOBAL_TRACER.spans()
        GLOBAL_TRACER.clear()
        assert [span["name"] for span in spans] == ["key-fetch",
                                                    "decrypt-dlog"]
        assert spans[0]["keys"] == trainer.model.layers[0].out_channels
        assert spans[1]["n"] == trainer.counters.feip_decrypts


def pooled_and_serial_fits():
    """Fit one MLP serially and once on a 2-worker pool, same seeds."""
    shard = load_clinics(n_clinics=1, samples_per_clinic=24, n_features=4,
                         seed=7)[0]
    x = np.clip(shard.x / (np.abs(shard.x).max() + 1e-9), -1, 1)
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
    enc = Client(authority).encrypt_tabular(x, shard.y, num_classes=2)

    def fit(pool):
        init = np.random.default_rng(3)
        model = Sequential([Dense(4, 6, rng=init), Sigmoid(),
                            Dense(6, 2, rng=init)])
        trainer = CryptoNNTrainer(model, authority, pool=pool)
        history = trainer.fit(enc, SGD(0.5), epochs=2, batch_size=8,
                              rng=np.random.default_rng(1))
        return trainer, history

    serial = fit(None)
    with SecureComputePool(workers=2) as pool:
        pooled = fit(pool)
        stats = pool.stats
    return serial, pooled, stats


class TestPooledMlpTraining:
    def test_pooled_fit_matches_serial_fit(self):
        (serial, serial_history), (pooled, pooled_history), stats = \
            pooled_and_serial_fits()
        for serial_layer, pooled_layer in zip(serial.model.get_weights(),
                                              pooled.model.get_weights()):
            assert pooled_layer.keys() == serial_layer.keys()
            for name, value in serial_layer.items():
                np.testing.assert_array_equal(pooled_layer[name], value)
        assert pooled_history == serial_history
        # 3 batches x 2 epochs, each one dot + one elementwise dispatch
        assert stats["dispatches"] == 12
        assert not stats["degraded"]

    def test_serial_run_has_no_pool(self):
        """Serial runs decrypt inline: no compute pool, and no pool
        metric moves."""
        def pool_dispatches():
            return GLOBAL_REGISTRY.snapshot()["counters"].get(
                "repro_pool_dispatches_total", 0)

        authority, client = build_setup()
        shard = load_clinics(n_clinics=1, samples_per_clinic=8,
                             n_features=4, seed=7)[0]
        x = np.clip(shard.x / (np.abs(shard.x).max() + 1e-9), -1, 1)
        enc = client.encrypt_tabular(x, shard.y, num_classes=2)
        before = pool_dispatches()
        with Server(authority) as server:
            model = Sequential([Dense(4, 2, rng=np.random.default_rng(0))])
            trainer = CryptoNNTrainer(model, authority,
                                      pool=server.compute_pool)
            trainer.fit(enc, SGD(0.5), epochs=1, batch_size=4,
                        rng=np.random.default_rng(1))
            assert server.compute_pool is None
            assert trainer.compute_pool is None
        assert pool_dispatches() == before

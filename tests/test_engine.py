"""Offline/online encryption engine: correctness and nonce hygiene.

The security-critical property is single-use: a precomputed nonce tuple
that is consumed twice breaks IND-CPA, so these tests pin (a) every
ciphertext the engine produces carries a distinct nonce, (b) a banked
tuple can never be handed out twice -- under thread concurrency and
under pool-parallel production -- and (c) the IND-CPA game harness
passes unchanged over the engine path.
"""

import contextlib
import random
import threading

import numpy as np
import pytest

from repro.core.config import CryptoNNConfig
from repro.core.entities import Client, TrustedAuthority
from repro.fe.engine import (
    EncryptionEngine,
    make_nonces,
)
from repro.fe.errors import CiphertextError
from repro.fe.febo import Febo
from repro.fe.feip import Feip
from repro.fe.keys import key_fingerprint
from repro.matrix import parallel
from repro.matrix.secure_matrix import (
    EncryptedMatrix,
    SecureMatrixScheme,
    matrix_bound_dot,
)
from repro.mathutils.group import GroupParams, SchnorrGroup
from repro.security.indcpa import (
    EngineFeboAdapter,
    EngineFeipAdapter,
    run_indcpa_game,
)

ETA = 4


@pytest.fixture()
def engine(params):
    return EncryptionEngine(params, rng=random.Random(777))


@pytest.fixture()
def feip_pair(feip):
    return feip.setup(ETA)


@pytest.fixture()
def febo_pair(febo):
    return febo.setup()


class TestOnlinePhaseCorrectness:
    def test_feip_nonce_encrypt_decrypts(self, engine, feip, feip_pair):
        mpk, msk = feip_pair
        key = feip.key_derive(msk, [1, 2, 3, 4])
        engine.prefill_feip(mpk, 1)
        ct = engine.encrypt_feip(mpk, [5, 6, 7, 8])
        assert feip.decrypt(mpk, ct, key, bound=1000) == 5 + 12 + 21 + 32

    def test_febo_nonce_encrypt_decrypts(self, engine, febo, febo_pair):
        bpk, bmsk = febo_pair
        engine.prefill_febo(bpk, 1)
        ct = engine.encrypt_febo(bpk, 9)
        skf = febo.key_derive(bmsk, ct.cmt, "+", 4)
        assert febo.decrypt(bpk, skf, ct, bound=100) == 13

    def test_miss_fallback_is_correct_and_counted(self, engine, feip,
                                                  feip_pair):
        mpk, msk = feip_pair
        key = feip.key_derive(msk, [1, 1, 1, 1])
        ct = engine.encrypt_feip(mpk, [1, 2, 3, 4])  # cold store
        assert engine.misses == 1 and engine.consumed == 0
        assert feip.decrypt(mpk, ct, key, bound=100) == 10

    def test_negative_entries_roundtrip(self, engine, feip, feip_pair):
        mpk, msk = feip_pair
        key = feip.key_derive(msk, [1, 1, 1, 1])
        engine.prefill_feip(mpk, 1)
        ct = engine.encrypt_feip(mpk, [-5, 3, -2, 1])
        assert feip.decrypt(mpk, ct, key, bound=100) == -3

    def test_engine_matches_direct_encrypt_semantics(self, params, feip,
                                                     feip_pair):
        """Engine and direct path decrypt to identical plaintexts."""
        mpk, msk = feip_pair
        key = feip.key_derive(msk, [2, 0, 1, 3])
        engine = EncryptionEngine(params, rng=random.Random(5))
        engine.prefill_feip(mpk, 1)
        direct = feip.encrypt(mpk, [4, 5, 6, 7])
        banked = engine.encrypt_feip(mpk, [4, 5, 6, 7])
        assert feip.decrypt(mpk, direct, key, bound=100) == \
            feip.decrypt(mpk, banked, key, bound=100) == 8 + 6 + 21


class TestNonceHygiene:
    def test_every_ciphertext_uses_distinct_nonce(self, engine, feip_pair):
        mpk, _ = feip_pair
        engine.prefill_feip(mpk, 10)
        cts = [engine.encrypt_feip(mpk, [1, 2, 3, 4]) for _ in range(25)]
        ct0s = [ct.ct0 for ct in cts]
        assert len(set(ct0s)) == len(ct0s)

    def test_prefilled_tuples_consumed_exactly_once(self, engine, feip_pair):
        mpk, _ = feip_pair
        engine.prefill_feip(mpk, 5)
        assert engine.available_feip(mpk) == 5
        for _ in range(5):
            engine.encrypt_feip(mpk, [0, 0, 0, 0])
        assert engine.available_feip(mpk) == 0
        assert engine.consumed == 5 and engine.misses == 0
        engine.encrypt_feip(mpk, [0, 0, 0, 0])
        assert engine.misses == 1

    def test_concurrent_consumption_never_reuses(self, engine, feip_pair):
        """T threads racing on one store: all nonces remain distinct."""
        mpk, _ = feip_pair
        n_threads, per_thread = 8, 12
        engine.prefill_feip(mpk, n_threads * per_thread)
        results: list[list] = [[] for _ in range(n_threads)]

        def consume(bucket):
            for _ in range(per_thread):
                bucket.append(engine.encrypt_feip(mpk, [1, 2, 3, 4]))

        threads = [threading.Thread(target=consume, args=(results[t],))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ct0s = [ct.ct0 for bucket in results for ct in bucket]
        assert len(ct0s) == n_threads * per_thread
        assert len(set(ct0s)) == len(ct0s), "a nonce was consumed twice"
        assert engine.consumed == n_threads * per_thread
        assert engine.misses == 0

    def test_cross_key_nonce_rejected_feip(self, feip, group, feip_pair):
        mpk, _ = feip_pair
        other_mpk, _ = feip.setup(ETA)
        nonce, = make_nonces(group, mpk, 1)
        with pytest.raises(CiphertextError):
            feip.encrypt(other_mpk, [1, 2, 3, 4], nonce=nonce)

    def test_cross_key_nonce_rejected_febo(self, febo, group, febo_pair):
        bpk, _ = febo_pair
        other_bpk, _ = febo.setup()
        nonce, = make_nonces(group, bpk, 1)
        with pytest.raises(CiphertextError):
            febo.encrypt(other_bpk, 3, nonce=nonce)

    def test_wrong_length_nonce_rejected(self, feip, group):
        mpk3, _ = feip.setup(3)
        mpk4, _ = feip.setup(4)
        nonce, = make_nonces(group, mpk3, 1)
        with pytest.raises(CiphertextError):
            feip.encrypt(mpk4, [1, 2, 3, 4], nonce=nonce)

    def test_stores_are_per_key(self, engine, feip):
        mpk_a, _ = feip.setup(2)
        mpk_b, _ = feip.setup(2)
        engine.prefill_feip(mpk_a, 3)
        assert engine.available_feip(mpk_a) == 3
        assert engine.available_feip(mpk_b) == 0
        engine.encrypt_feip(mpk_b, [1, 2])
        assert engine.available_feip(mpk_a) == 3  # untouched
        assert engine.misses == 1


class TestBatchedNonces:
    """``make_*_nonces`` against plain ``pow``, across comb/pow regimes.

    Counts 1-3 stay below ``CHAIN_MAX_ROWS`` (each base's cached
    squaring chain), 64 builds per-base combs; the 32-bit group always
    takes ``pow``.
    """

    @pytest.mark.parametrize("bits", [32, 64, 256])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 64])
    def test_feip_nonces_match_pow(self, bits, count):
        params = GroupParams.predefined(bits)
        feip = Feip(params, rng=random.Random(bits + count))
        mpk, _ = feip.setup(ETA)
        nonces = make_nonces(feip.group, mpk, count)
        assert len(nonces) == count
        for nonce in nonces:
            assert nonce.ct0 == pow(params.g, nonce.r, params.p)
            assert nonce.masks == tuple(pow(hi, nonce.r, params.p)
                                        for hi in mpk.h)

    @pytest.mark.parametrize("bits", [32, 64, 256])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 64])
    def test_febo_nonces_match_pow(self, bits, count):
        params = GroupParams.predefined(bits)
        febo = Febo(params, rng=random.Random(bits + count))
        bpk, _ = febo.setup()
        nonces = make_nonces(febo.group, bpk, count)
        assert len(nonces) == count
        for nonce in nonces:
            assert nonce.cmt == pow(params.g, nonce.r, params.p)
            assert nonce.mask == pow(bpk.h, nonce.r, params.p)

    @pytest.mark.parametrize("bits", [32, 64, 256])
    def test_batch_nonces_distinct_and_fingerprinted(self, bits):
        params = GroupParams.predefined(bits)
        feip = Feip(params, rng=random.Random(bits))
        mpk, _ = feip.setup(ETA)
        bpk, _ = Febo(params, rng=random.Random(bits + 1)).setup()
        feip_nonces = make_nonces(feip.group, mpk, 64)
        febo_nonces = make_nonces(feip.group, bpk, 64)
        rs = [n.r for n in feip_nonces + febo_nonces]
        assert len(set(rs)) == len(rs)
        assert {n.key_fp for n in feip_nonces} == {key_fingerprint(mpk)}
        assert {n.key_fp for n in febo_nonces} == {key_fingerprint(bpk)}


class TestClientBanking:
    @pytest.mark.parametrize("bits", [32, 64])
    def test_workerless_client_banks_exactly_what_it_consumes(self, bits):
        authority = TrustedAuthority(CryptoNNConfig(security_bits=bits),
                                     rng=random.Random(0))
        client = Client(authority)
        engine = client.engine
        assert engine.pool is None
        # the serial engine encrypts with the authority's schemes
        assert engine.feip is authority.feip and engine.febo is authority.febo
        data_rng = np.random.default_rng(0)
        client.encrypt_tabular(data_rng.uniform(-1, 1, (5, 4)),
                               np.array([0, 1, 2, 0, 1]), 3)
        client.encrypt_images(data_rng.uniform(0, 1, (2, 1, 4, 4)),
                              np.array([2, 0]), 3, filter_size=3)
        assert engine.misses == 0
        assert engine.consumed == engine.precomputed > 0
        for eta in (4, 3, 9):
            assert engine.available_feip(authority.feip_public_key(eta)) == 0
        assert engine.available_febo(authority.febo_public_key()) == 0


class TestPoolProduction:
    def test_pool_precompute_distinct_nonces(self, params, feip, febo):
        mpk, _ = feip.setup(3)
        bpk, _ = febo.setup()
        with parallel.SecureComputePool(workers=2) as pool:
            feip_nonces = pool.precompute_nonces(params, mpk, 20)
            febo_nonces = pool.precompute_nonces(params, bpk, 20)
            # a second dispatch must not replay the first one's nonces
            more = pool.precompute_nonces(params, mpk, 20)
        assert len(feip_nonces) == 20 and len(febo_nonces) == 20
        rs = [n.r for n in feip_nonces + more] + [n.r for n in febo_nonces]
        assert len(set(rs)) == len(rs), "nonce collision across pool workers"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("eta", [1, 2, 5, 8])
    def test_pool_nonces_match_pow(self, workers, eta):
        """Split by base (eta + 1 >= 2 * workers) or by nonce, every
        pooled tuple holds ``g^r`` and each ``h_i^r`` of its own ``r``,
        on combs (64 bits, 7 nonces)."""
        params = GroupParams.predefined(64)
        mpk, _ = Feip(params, rng=random.Random(eta)).setup(eta)
        bpk, _ = Febo(params, rng=random.Random(eta + 1)).setup()
        with parallel.SecureComputePool(workers=workers) as pool:
            feip_nonces = pool.precompute_nonces(params, mpk, 7)
            febo_nonces = pool.precompute_nonces(params, bpk, 7)
            assert pool.dispatches == 2
        assert len(feip_nonces) == len(febo_nonces) == 7
        for nonce in feip_nonces:
            assert nonce.ct0 == pow(params.g, nonce.r, params.p)
            assert nonce.masks == tuple(pow(hi, nonce.r, params.p)
                                        for hi in mpk.h)
            assert nonce.key_fp == key_fingerprint(mpk)
        for nonce in febo_nonces:
            assert nonce.cmt == pow(params.g, nonce.r, params.p)
            assert nonce.mask == pow(bpk.h, nonce.r, params.p)
            assert nonce.key_fp == key_fingerprint(bpk)

    def test_pool_filled_engine_consumes_each_once(self, params, feip):
        mpk, msk = feip.setup(3)
        key = feip.key_derive(msk, [1, 1, 1])
        with parallel.SecureComputePool(workers=2) as pool:
            engine = EncryptionEngine(params, pool=pool)
            engine.prefill_feip(mpk, 6)
            cts = [engine.encrypt_feip(mpk, [i, i, i]) for i in range(9)]
        assert engine.consumed == 6 and engine.misses == 3
        ct0s = [ct.ct0 for ct in cts]
        assert len(set(ct0s)) == len(ct0s)
        for i, ct in enumerate(cts):
            assert feip.decrypt(mpk, ct, key, bound=100) == 3 * i

    def test_bulk_encrypt_columns_matches_serial(self, params, feip):
        mpk, msk = feip.setup(3)
        key = feip.key_derive(msk, [1, 2, 3])
        columns = [[1, 2, 3], [4, 5, 6], [0, 0, 7], [2, 2, 2]]
        expected = [sum(a * b for a, b in zip(col, [1, 2, 3]))
                    for col in columns]
        with parallel.SecureComputePool(workers=2) as pool:
            engine = EncryptionEngine(params, pool=pool)
            cts = engine.encrypt_feip_columns(mpk, columns)
        assert [feip.decrypt(mpk, ct, key, bound=1000) for ct in cts] \
            == expected

    def test_bulk_encrypt_values_febo(self, params, febo):
        bpk, bmsk = febo.setup()
        with parallel.SecureComputePool(workers=2) as pool:
            engine = EncryptionEngine(params, pool=pool)
            cts = engine.encrypt_febo_values(bpk, [3, 1, 4, 1, 5])
        for ct, x in zip(cts, [3, 1, 4, 1, 5]):
            skf = febo.key_derive(bmsk, ct.cmt, "+", 10)
            assert febo.decrypt(bpk, skf, ct, bound=100) == x + 10


class TestPartlyBankedBulk:
    """A bulk call the store covers only in part."""

    BANKED, TOTAL = 3, 7

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("kind", ["feip", "febo"])
    def test_remainder_is_one_fresh_batch(self, params, kind, workers):
        if kind == "feip":
            scheme = Feip(params, rng=random.Random(3))
            mpk, msk = scheme.setup(ETA)
            items = [[i, -i, 2, 1] for i in range(self.TOTAL)]
        else:
            scheme = Febo(params, rng=random.Random(3))
            mpk, msk = scheme.setup()
            items = list(range(-3, self.TOTAL - 3))
        pool = parallel.SecureComputePool(workers=workers) if workers else None
        with pool or contextlib.nullcontext():
            engine = EncryptionEngine(params, rng=random.Random(21), pool=pool)
            if kind == "feip":
                engine.prefill_feip(mpk, self.BANKED)
                cts = engine.encrypt_feip_columns(mpk, items)
            else:
                engine.prefill_febo(mpk, self.BANKED)
                cts = engine.encrypt_febo_values(mpk, items)
        assert engine.stats() == {"precomputed": self.BANKED,
                                  "consumed": self.BANKED,
                                  "misses": self.TOTAL - self.BANKED}
        commitments = [ct.ct0 if kind == "feip" else ct.cmt for ct in cts]
        assert len(set(commitments)) == self.TOTAL
        if kind == "feip":
            key = scheme.key_derive(msk, [1, 2, 3, 4])
            assert [scheme.decrypt(mpk, ct, key, bound=1000) for ct in cts] \
                == [sum(a * b for a, b in zip(x, [1, 2, 3, 4])) for x in items]
        else:
            assert [scheme.decrypt(mpk, scheme.key_derive(msk, ct.cmt, "+", 1),
                                   ct, bound=100) for ct in cts] \
                == [x + 1 for x in items]
        if workers:
            return
        # same seed: the banked tuples, then the remainder as one batch
        group = SchnorrGroup(params, rng=random.Random(21))
        fresh = iter(make_nonces(group, mpk, self.BANKED)
                     + make_nonces(group, mpk, self.TOTAL - self.BANKED))
        assert cts == [scheme.encrypt(mpk, x, nonce=next(fresh))
                       for x in items]


class TestSchemeAndEntityIntegration:
    def test_engine_columns_decrypt_through_the_scheme(self, params, rng,
                                                       solver_cache):
        scheme = SecureMatrixScheme(params, rng=rng,
                                    solver_cache=solver_cache)
        msk_ip, _ = scheme.setup(column_length=2)
        engine = EncryptionEngine(params, rng=random.Random(9))
        x = np.array([[1, 2, 3], [4, 5, 6]], dtype=object)
        y = np.array([[1, 1]], dtype=object)
        enc = EncryptedMatrix(x.shape, engine.encrypt_feip_columns(
            scheme.feip_mpk, [list(x[:, j]) for j in range(3)]), None)
        keys = scheme.derive_dot_keys(msk_ip, y)
        out = scheme.secure_dot(enc, keys, matrix_bound_dot(6, 1, 2))
        np.testing.assert_array_equal(out, y @ x)
        assert engine.misses > 0  # cold store still correct

    def test_client_engine_policy(self, params):
        """An engine over the authority's schemes, on the shared pool
        when ``workers`` is set."""
        authority = TrustedAuthority(CryptoNNConfig(security_bits=32),
                                     rng=random.Random(0))
        serial = Client(authority).engine
        assert serial.pool is None and serial.feip is authority.feip
        try:
            pooled = Client(authority, workers=1).engine
            assert pooled.pool is parallel.get_compute_pool(1)
            assert pooled.febo is authority.febo
        finally:
            parallel.shutdown_compute_pools()

    def test_client_with_engine_dataset_trains_identically(self, params):
        """Serial and pooled engines' datasets decrypt to the same
        integers."""
        features = np.array([[0.5, -0.25], [0.125, 0.75]])
        labels = np.array([0, 1])
        authority = TrustedAuthority(CryptoNNConfig(security_bits=32),
                                     rng=random.Random(0))
        try:
            ds_plain = Client(authority).encrypt_tabular(features, labels, 2)
            ds_pooled = Client(authority, workers=1).encrypt_tabular(
                features, labels, 2)
        finally:
            parallel.shutdown_compute_pools()
        # decrypt the first sample's feature vector both ways
        msk = authority._feip_pairs[2][1]
        mpk = authority.feip_public_key(2)
        key = authority.feip.key_derive(msk, [1, 1])
        for ds in (ds_plain, ds_pooled):
            value = authority.feip.decrypt(
                mpk, ds.samples[0].features_ip, key, bound=1000)
            assert value == 50 + (-25)  # scale-100 fixed point


class TestIndCpaOverEnginePath:
    def test_feip_engine_path_resists_replay(self, params):
        adapter = EngineFeipAdapter(params, rng=random.Random(0))
        adv = run_indcpa_game(adapter, trials=400, rng=random.Random(2))
        assert adv < 0.2

    def test_febo_engine_path_resists_replay(self, params):
        adapter = EngineFeboAdapter(params, rng=random.Random(0))
        adv = run_indcpa_game(adapter, trials=400, rng=random.Random(3))
        assert adv < 0.2

"""The few-row fixed-base mode: squaring chains walked by Yao's method.

A :class:`~repro.fe.feip.Feip.decrypt_rows` column with fewer than
``CHAIN_MAX_ROWS`` keys raises ``ct_0`` on the chain ``ct_0^(16^k)``
that :class:`~repro.mathutils.fastexp.ChainCache` keeps across calls;
16 rows or more build the per-column comb.  The row count alone picks
the mode, at every group size, so these tests run on the 32-bit toy
group as well as at 64 bits and above.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.core.config import CryptoNNConfig
from repro.core.entities import Client, TrustedAuthority
from repro.core.secure_layers import SecureConvInput
from repro.fe.engine import nonce_powers
from repro.fe.feip import Feip
from repro.mathutils.fastexp import (
    CHAIN_MAX_ROWS,
    GLOBAL_CHAIN_CACHE,
    ChainCache,
    RowPlan,
    SharedBaseMultiExp,
    chain_length,
)
from repro.mathutils.group import GroupParams
from repro.matrix.parallel import InlineExecutor, SecureComputePool
from repro.nn.conv import Conv2D
from repro.obs.metrics import GLOBAL_REGISTRY

BOUND = 1 << 17
ETA = 9


@pytest.fixture(scope="module", params=[32, 64, 128])
def feip(request) -> Feip:
    return Feip(GroupParams.predefined(request.param),
                rng=random.Random(request.param))


def _keys_and_column(feip: Feip, m: int, seed: int):
    rng = random.Random(seed)
    mpk, msk = feip.setup(ETA)
    keys = [feip.key_derive(msk, [rng.randint(-60, 60) for _ in range(ETA)])
            for _ in range(m)]
    ct = feip.encrypt(mpk, [rng.randint(0, 100) for _ in range(ETA)])
    return mpk, keys, ct


class TestDecryptRowsModes:
    @pytest.mark.parametrize("m", [1, 2, 4, 15, CHAIN_MAX_ROWS, 32])
    def test_equals_per_row_decrypt_cold_and_warm(self, feip, m):
        mpk, keys, ct = _keys_and_column(feip, m, seed=m)
        reference = [feip.decrypt(mpk, ct, key, BOUND) for key in keys]
        plan = feip.row_plan(keys)
        assert (plan.chain_ops is not None) == (m < CHAIN_MAX_ROWS)
        assert (plan.comb_window is not None) == (m >= CHAIN_MAX_ROWS)
        GLOBAL_CHAIN_CACHE.clear()
        cold = feip.decrypt_rows(mpk, ct, keys, BOUND, plan=plan)
        warm = feip.decrypt_rows(mpk, ct, keys, BOUND, plan=plan)
        assert cold == reference
        assert warm == reference

    def test_exact_after_evictions_under_a_tiny_budget(self, feip,
                                                       monkeypatch):
        width = (feip.group.p.bit_length() + 7) // 8
        chain_bytes = chain_length(feip.group.q) * width
        monkeypatch.setattr(GLOBAL_CHAIN_CACHE, "max_bytes", 2 * chain_bytes)
        GLOBAL_CHAIN_CACHE.clear()
        mpk, keys, _ = _keys_and_column(feip, 4, seed=7)
        plan = feip.row_plan(keys)
        rng = random.Random(8)
        cts = [feip.encrypt(mpk, [rng.randint(0, 100) for _ in range(ETA)])
               for _ in range(5)]
        reference = [[feip.decrypt(mpk, ct, key, BOUND) for key in keys]
                     for ct in cts]
        before = GLOBAL_CHAIN_CACHE.stats()
        for _ in range(2):
            assert [feip.decrypt_rows(mpk, ct, keys, BOUND, plan=plan)
                    for ct in cts] == reference
        after = GLOBAL_CHAIN_CACHE.stats()
        assert after["evictions"] - before["evictions"] >= 5
        assert after["bytes"] <= 2 * chain_bytes
        assert after["entries"] == 2
        GLOBAL_CHAIN_CACHE.clear()


class TestChainCache:
    def test_same_base_under_two_moduli_never_shares_a_chain(self):
        small, large = GroupParams.predefined(64), GroupParams.predefined(128)
        base = 3
        GLOBAL_CHAIN_CACHE.clear()
        before = GLOBAL_CHAIN_CACHE.stats()
        for params in (small, large, small, large):
            context = SharedBaseMultiExp([], params.p, fixed_base=base)
            rng = random.Random(params.bits)
            exps = [rng.randrange(params.q) for _ in range(3)]
            got = context.eval_plan(RowPlan([[] for _ in exps], params.q,
                                            fixed_exponents=exps))
            assert got == [pow(base, e, params.p) for e in exps]
        after = GLOBAL_CHAIN_CACHE.stats()
        assert after["entries"] == 2
        assert after["builds"] - before["builds"] == 2
        assert after["hits"] - before["hits"] == 2
        short = GLOBAL_CHAIN_CACHE.get(base, small.p, chain_length(small.q))
        long_ = GLOBAL_CHAIN_CACHE.get(base, large.p, chain_length(large.q))
        assert short == [pow(base, 16 ** k, small.p)
                         for k in range(len(short))]
        assert long_ == [pow(base, 16 ** k, large.p)
                         for k in range(len(long_))]
        assert short != long_[:len(short)]

    def test_lru_keeps_the_recently_used_chain(self):
        params = GroupParams.predefined(64)
        length = chain_length(params.q)
        width = (params.p.bit_length() + 7) // 8
        cache = ChainCache(max_bytes=2 * length * width)
        for base in (2, 3, 2, 5):
            chain = cache.get(base, params.p, length)
            assert chain == [pow(base, 16 ** k, params.p)
                             for k in range(length)]
        # 3 was least recently used when 5 arrived
        assert cache.stats() == {"entries": 2, "bytes": 2 * length * width,
                                 "hits": 1, "builds": 3, "evictions": 1}
        cache.get(2, params.p, length)
        assert cache.stats()["hits"] == 2

    def test_chain_over_budget_is_built_not_kept(self):
        params = GroupParams.predefined(64)
        cache = ChainCache(max_bytes=8)
        chain = cache.get(7, params.p, chain_length(params.q))
        assert chain[2] == pow(7, 256, params.p)
        assert cache.stats()["entries"] == 0
        assert cache.stats()["bytes"] == 0

    def test_threads_sharing_a_cache_lose_no_update(self):
        """More threads than cores, switching every microsecond: every
        call counts once as a hit or a build, and the byte count matches
        the chains held."""
        params = GroupParams.predefined(64)
        length = chain_length(params.q)
        width = (params.p.bit_length() + 7) // 8
        cache = ChainCache(max_bytes=3 * length * width)
        calls, errors = 200, []

        def work(seed):
            rng = random.Random(seed)
            for _ in range(calls):
                base = rng.randrange(2, 7)
                if cache.get(base, params.p, length)[3] \
                        != pow(base, 16 ** 3, params.p):
                    errors.append(base)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert not errors
        assert stats["hits"] + stats["builds"] == 4 * calls
        assert stats["builds"] - stats["evictions"] == stats["entries"] <= 3
        assert stats["bytes"] == stats["entries"] * length * width

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError):
            ChainCache(max_bytes=-1)


@pytest.mark.parametrize("bits", [32, 64, 256])
@pytest.mark.parametrize("count", [1, 2, 3, CHAIN_MAX_ROWS - 1])
def test_nonce_batch_under_the_comb_cutoff_raises_every_base(bits, count):
    params = GroupParams.predefined(bits)
    rng = random.Random(bits * count)
    bases = [params.g] + [pow(params.g, rng.randrange(1, params.q), params.p)
                          for _ in range(3)]
    rs = [rng.randrange(1, params.q) for _ in range(count)]
    powers = nonce_powers(params, bases, rs)
    assert powers == [[pow(b, r, params.p) for r in rs] for b in bases]


def test_warm_decryption_counts_one_chain_hit():
    feip = Feip(GroupParams.predefined(64), rng=random.Random(3))
    mpk, keys, ct = _keys_and_column(feip, 4, seed=3)
    plan = feip.row_plan(keys)
    GLOBAL_CHAIN_CACHE.clear()
    feip.decrypt_rows(mpk, ct, keys, BOUND, plan=plan)
    before = GLOBAL_REGISTRY.snapshot()
    feip.decrypt_rows(mpk, ct, keys, BOUND, plan=plan)
    after = GLOBAL_REGISTRY.snapshot()

    def delta(name):
        return after["counters"][name] - before["counters"][name]

    assert delta("repro_fastexp_chain_cache_hits_total") == 1
    assert delta("repro_fastexp_chain_cache_builds_total") == 0
    assert delta("repro_fastexp_chain_cache_evictions_total") == 0
    assert after["gauges"]["repro_fastexp_chain_cache_bytes"] \
        == GLOBAL_CHAIN_CACHE.stats()["bytes"] > 0


def test_conv_forward_on_a_pool_equals_inline():
    """4 filters: every window column walks chains, in the workers' own
    caches on the pool and in this process's inline."""
    authority = TrustedAuthority(CryptoNNConfig(security_bits=64),
                                 rng=random.Random(0))
    np_rng = np.random.default_rng(0)
    imgs = np_rng.uniform(0, 1, size=(2, 1, 4, 4))
    enc = Client(authority).encrypt_images(
        imgs, np.array([0, 1]), num_classes=2, filter_size=3, stride=1,
        padding=1)
    conv = Conv2D(1, 4, filter_size=3, stride=1, padding=1, rng=np_rng)
    assert conv.params["W"].shape[0] < CHAIN_MAX_ROWS
    inline = SecureConvInput(conv, authority, authority.config,
                             pool=InlineExecutor(authority.feip,
                                                 authority.febo))
    expected = inline.forward(enc.images, np.arange(2))
    with SecureComputePool(workers=2) as pool:
        pooled = SecureConvInput(conv, authority, authority.config, pool=pool)
        for _ in range(2):  # the second forward runs on warm chains
            assert np.array_equal(pooled.forward(enc.images, np.arange(2)),
                                  expected)

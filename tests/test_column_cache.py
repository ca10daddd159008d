"""Comb-mode decryption columns keep their tables across calls.

A :meth:`~repro.fe.feip.Feip.decrypt_rows` column of ``CHAIN_MAX_ROWS``
keys or more walks the odd powers of ``ct_1..ct_eta`` and a comb over
``ct_0``; :class:`~repro.mathutils.fastexp.ColumnCache` keeps both per
modulus and whole ciphertext, so a second decryption only walks its
rows.  Every group size takes the same path, so these tests run on the
32-bit toy group as well as at 64 and 128 bits.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.fe.engine import make_nonces
from repro.fe.febo import Febo
from repro.fe.feip import Feip
from repro.mathutils.fastexp import (
    CHAIN_MAX_ROWS,
    COLUMN_CACHE_BYTES,
    GLOBAL_CHAIN_CACHE,
    GLOBAL_COLUMN_CACHE,
    ColumnCache,
    _comb_table,
    _odd_power_table,
)
from repro.mathutils.group import GroupParams
from repro.matrix.parallel import InlineExecutor, SecureComputePool
from repro.obs.metrics import GLOBAL_REGISTRY

BOUND = 1 << 17
ETA = 9


@pytest.fixture(scope="module", params=[32, 64, 128])
def feip(request) -> Feip:
    return Feip(GroupParams.predefined(request.param),
                rng=random.Random(request.param))


@pytest.fixture(autouse=True)
def _cold_column_cache():
    GLOBAL_COLUMN_CACHE.clear()
    yield
    GLOBAL_COLUMN_CACHE.clear()


def _setup(feip: Feip, m: int, seed: int, columns: int = 1):
    rng = random.Random(seed)
    mpk, msk = feip.setup(ETA)
    keys = [feip.key_derive(msk, [rng.randint(-60, 60) for _ in range(ETA)])
            for _ in range(m)]
    cts = [feip.encrypt(mpk, [rng.randint(0, 100) for _ in range(ETA)])
           for _ in range(columns)]
    return mpk, keys, cts


def _reference(feip, mpk, cts, keys):
    return [[feip.decrypt(mpk, ct, key, BOUND) for key in keys]
            for ct in cts]


@pytest.mark.parametrize("m", [CHAIN_MAX_ROWS, 32])
def test_cold_and_warm_equal_per_row_decrypt(feip, m):
    mpk, keys, cts = _setup(feip, m, seed=m, columns=2)
    reference = _reference(feip, mpk, cts, keys)
    plan = feip.row_plan(keys)
    assert plan.comb_window is not None
    before = GLOBAL_COLUMN_CACHE.stats()
    for _ in range(3):
        assert [feip.decrypt_rows(mpk, ct, keys, BOUND, plan=plan)
                for ct in cts] == reference
    after = GLOBAL_COLUMN_CACHE.stats()
    assert after["builds"] - before["builds"] == 2
    assert after["hits"] - before["hits"] == 4


def test_ciphertexts_sharing_ct0_never_share_tables(feip):
    """A reused nonce gives two ciphertexts one ``ct_0``; each must
    still decrypt to its own inner products."""
    mpk, keys, _ = _setup(feip, CHAIN_MAX_ROWS, seed=5)
    nonce, = make_nonces(feip.group, mpk, 1)
    rng = random.Random(6)
    xs = [[rng.randint(0, 100) for _ in range(ETA)] for _ in range(2)]
    cts = [feip.encrypt(mpk, x, nonce=nonce) for x in xs]
    assert cts[0].ct0 == cts[1].ct0 and cts[0].ct != cts[1].ct
    expected = [[sum(a * b for a, b in zip(x, key.y)) for key in keys]
                for x in xs]
    plan = feip.row_plan(keys)
    for _ in range(2):
        assert [feip.decrypt_rows(mpk, ct, keys, BOUND, plan=plan)
                for ct in cts] == expected
    assert GLOBAL_COLUMN_CACHE.stats()["entries"] == 2


def test_a_plan_with_other_windows_stays_exact(feip):
    """Smaller weights recode to a narrower odd-power window, four times
    the rows to a wider comb; each key set meets the one ciphertext."""
    rng = random.Random(9)
    mpk, msk = feip.setup(ETA)
    ct = feip.encrypt(mpk, [rng.randint(0, 100) for _ in range(ETA)])

    def keys(m, magnitude):
        return [feip.key_derive(msk, [rng.randint(-magnitude, magnitude)
                                      for _ in range(ETA)])
                for _ in range(m)]

    default, other_odd, wider_comb = (
        (k, feip.row_plan(k)) for k in (keys(32, 60), keys(32, 3),
                                        keys(128, 60)))
    assert other_odd[1].window != default[1].window
    assert other_odd[1].comb_window == default[1].comb_window
    assert wider_comb[1].comb_window != default[1].comb_window
    builds = GLOBAL_COLUMN_CACHE.stats()["builds"]
    for key_set, plan in (default, other_odd, wider_comb, default, default):
        reference, = _reference(feip, mpk, [ct], key_set)
        assert feip.decrypt_rows(mpk, ct, key_set, BOUND, plan=plan) \
            == reference
    stats = GLOBAL_COLUMN_CACHE.stats()
    # each window change rebuilds; only the last call reuses
    assert stats["builds"] - builds == 4
    assert stats["entries"] == 1


def test_exact_after_evictions_under_a_tiny_budget(feip, monkeypatch):
    mpk, keys, cts = _setup(feip, CHAIN_MAX_ROWS, seed=7, columns=5)
    plan = feip.row_plan(keys)
    reference = _reference(feip, mpk, cts, keys)
    feip.decrypt_rows(mpk, cts[0], keys, BOUND, plan=plan)
    entry_bytes = GLOBAL_COLUMN_CACHE.stats()["bytes"]
    monkeypatch.setattr(GLOBAL_COLUMN_CACHE, "max_bytes", 2 * entry_bytes)
    GLOBAL_COLUMN_CACHE.clear()
    before = GLOBAL_COLUMN_CACHE.stats()
    for _ in range(2):
        assert [feip.decrypt_rows(mpk, ct, keys, BOUND, plan=plan)
                for ct in cts] == reference
    after = GLOBAL_COLUMN_CACHE.stats()
    assert after["evictions"] - before["evictions"] >= 8
    assert after["entries"] == 2
    assert after["bytes"] == 2 * entry_bytes


def test_only_comb_mode_columns_use_the_cache(feip):
    mpk, keys, (ct,) = _setup(feip, CHAIN_MAX_ROWS - 1, seed=4)
    GLOBAL_CHAIN_CACHE.clear()
    columns, chains = GLOBAL_COLUMN_CACHE.stats(), GLOBAL_CHAIN_CACHE.stats()
    for _ in range(2):
        feip.decrypt_rows(mpk, ct, keys, BOUND)
    make_nonces(feip.group, mpk, 2 * CHAIN_MAX_ROWS)  # comb-mode nonces
    assert GLOBAL_COLUMN_CACHE.stats() == columns
    assert GLOBAL_CHAIN_CACHE.stats()["hits"] - chains["hits"] == 1


class TestColumnCache:
    PARAMS = GroupParams.predefined(64)

    def _tables(self, cache, bases, window=2, comb=(3, 23)):
        return cache.tables(bases[1:], bases[0], self.PARAMS.p, window, *comb)

    def _expected(self, bases, window=2, comb=(3, 23)):
        p = self.PARAMS.p
        return (_odd_power_table(bases[1:], window, p)
                + _comb_table(bases[0], *comb, p))

    def _bases(self, seed: int) -> tuple[int, ...]:
        rng = random.Random(seed)
        return tuple(pow(self.PARAMS.g, rng.randrange(1, self.PARAMS.q),
                         self.PARAMS.p) for _ in range(4))

    def test_tables_match_a_fresh_build_and_are_reused(self):
        cache = ColumnCache(COLUMN_CACHE_BYTES)
        bases = self._bases(1)
        first = self._tables(cache, bases)
        assert first == self._expected(bases)
        assert self._tables(cache, bases) is first
        # fewer comb windows than held: the held comb serves
        assert self._tables(cache, bases, comb=(3, 20)) is first
        assert cache.stats()["hits"] == 2
        assert cache.stats()["builds"] == 1

    def test_same_bases_under_two_moduli_never_share(self):
        cache = ColumnCache(COLUMN_CACHE_BYTES)
        bases = self._bases(2)
        large = GroupParams.predefined(128)
        self._tables(cache, bases)
        other = cache.tables(bases[1:], bases[0], large.p, 2, 3, 23)
        assert other == (_odd_power_table(bases[1:], 2, large.p)
                         + _comb_table(bases[0], 3, 23, large.p))
        assert cache.stats()["entries"] == 2

    def test_lru_keeps_the_recently_used_column(self):
        probe = ColumnCache(COLUMN_CACHE_BYTES)
        self._tables(probe, self._bases(0))
        entry = probe.stats()["bytes"]
        cache = ColumnCache(max_bytes=2 * entry)
        for seed in (2, 3, 2, 5):
            assert self._tables(cache, self._bases(seed)) \
                == self._expected(self._bases(seed))
        # 3 was least recently used when 5 arrived
        assert cache.stats() == {"entries": 2, "bytes": 2 * entry,
                                 "hits": 1, "builds": 3, "evictions": 1}
        self._tables(cache, self._bases(2))
        assert cache.stats()["hits"] == 2

    def test_column_over_budget_is_built_not_kept(self):
        cache = ColumnCache(max_bytes=64)
        bases = self._bases(4)
        assert self._tables(cache, bases) == self._expected(bases)
        assert cache.stats()["entries"] == cache.stats()["bytes"] == 0

    def test_threads_sharing_a_cache_lose_no_update(self):
        """Four threads switching every microsecond over six columns
        and two odd-power windows: every call counts once as a hit or a
        build, and the byte count matches the entries held."""
        columns = [self._bases(seed) for seed in range(6)]
        expected = {(i, w): self._expected(bases, window=w)
                    for i, bases in enumerate(columns) for w in (2, 3)}
        cache = ColumnCache(COLUMN_CACHE_BYTES)
        calls, errors = 150, []

        def work(seed):
            rng = random.Random(seed)
            for _ in range(calls):
                i, w = rng.randrange(len(columns)), rng.choice((2, 2, 3))
                if self._tables(cache, columns[i], window=w) \
                        != expected[i, w]:
                    errors.append((i, w))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert not errors
        assert stats["hits"] + stats["builds"] == 4 * calls
        assert stats["evictions"] == 0
        assert stats["entries"] == len(columns)
        with cache._lock:
            held = sum(size for _, size in cache._entries.values())
        assert stats["bytes"] == held

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError):
            ColumnCache(max_bytes=-1)


def test_warm_decryption_counts_one_column_hit():
    feip = Feip(GroupParams.predefined(64), rng=random.Random(3))
    mpk, keys, (ct,) = _setup(feip, 32, seed=3)
    plan = feip.row_plan(keys)
    feip.decrypt_rows(mpk, ct, keys, BOUND, plan=plan)
    before = GLOBAL_REGISTRY.snapshot()
    feip.decrypt_rows(mpk, ct, keys, BOUND, plan=plan)
    after = GLOBAL_REGISTRY.snapshot()

    def delta(name):
        return after["counters"][name] - before["counters"][name]

    assert delta("repro_fastexp_column_cache_hits_total") == 1
    assert delta("repro_fastexp_column_cache_builds_total") == 0
    assert delta("repro_fastexp_column_cache_evictions_total") == 0
    assert after["gauges"]["repro_fastexp_column_cache_bytes"] \
        == GLOBAL_COLUMN_CACHE.stats()["bytes"] > 0


def test_pooled_secure_dot_equals_inline_over_repeated_passes():
    """The workers' own column caches warm up pass by pass; every pass
    must equal the inline executor's."""
    feip = Feip(GroupParams.predefined(64), rng=random.Random(11))
    mpk, keys, cts = _setup(feip, CHAIN_MAX_ROWS, seed=11, columns=6)
    params = feip.group.params
    inline = InlineExecutor(feip, Febo(params))
    expected = inline.secure_dot(params, mpk, cts, keys, BOUND)
    assert expected.tolist() == [list(col) for col in
                                 zip(*_reference(feip, mpk, cts, keys))]
    with SecureComputePool(workers=2) as pool:
        for _ in range(3):
            assert np.array_equal(
                pool.secure_dot(params, mpk, cts, keys, BOUND), expected)
    assert np.array_equal(inline.secure_dot(params, mpk, cts, keys, BOUND),
                          expected)


"""The authority's FEBO mask memo: commitment -> ``cmt^s``.

Every key the memo helps compose must equal :meth:`Febo.key_derive`
byte for byte, cold or warm, inline or pooled, after evictions and
under concurrent requests; checks and accounting must not care whether
a commitment hit; and a commitment outside ``(0, q]`` is refused
before it can reach the memo.
"""

from __future__ import annotations

import gc
import random
import sys
import threading

import pytest

from repro.core import protocol
from repro.core.checkpoint import load_authority, save_authority
from repro.core.config import CryptoNNConfig
from repro.core.entities import TrustedAuthority
from repro.core.policy import KeyReleasePolicy, PolicyViolation
from repro.fe.errors import CommitmentError, UnsupportedOperationError
from repro.matrix.parallel import SecureComputePool
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.rpc import AuthorityService, RemoteAuthority, RpcRemoteError

OPS = "+-*/"


def make_authority(bits: int, seed: int = 0, **kwargs) -> TrustedAuthority:
    return TrustedAuthority(CryptoNNConfig(security_bits=bits),
                            rng=random.Random(seed), **kwargs)


def commitments(authority: TrustedAuthority, n: int) -> list[int]:
    """``n`` commitments as clients send them (signed form)."""
    bpk = authority.febo_public_key()
    return [authority.febo.encrypt(bpk, 0).cmt for _ in range(n)]


def reference(authority: TrustedAuthority, requests) -> list:
    msk = authority._febo_pair[1]
    return [authority.febo.key_derive(msk, *request) for request in requests]


def all_ops(cmts: list[int]) -> list[tuple[int, str, int]]:
    return [(cmt, op, y) for cmt in cmts
            for op, y in zip(OPS, (7, -3, 5, 9))]


def memo(authority: TrustedAuthority) -> dict[int, int]:
    with authority._lock:
        return dict(authority._febo_masks)


@pytest.mark.parametrize("bits", [32, 256])
class TestExactKeys:
    def test_cold_and_warm_keys_equal_key_derive_inline(self, bits):
        authority = make_authority(bits)
        requests = all_ops(commitments(authority, 3))
        cold = authority.derive_febo_keys(requests)
        warm = authority.derive_febo_keys(requests)
        assert cold == warm == reference(authority, requests)
        assert authority.mask_stats() == {
            "entries": 3, "hits": 3, "misses": 3, "evictions": 0}

    @pytest.mark.timeout_guard(120)
    def test_cold_and_warm_keys_equal_key_derive_pooled(self, bits):
        authority = make_authority(bits)
        requests = all_ops(commitments(authority, 3))
        with SecureComputePool(workers=2) as pool:
            authority.pool = pool
            cold = authority.derive_febo_keys(requests)
            warm = authority.derive_febo_keys(requests)
            # a request whose commitments all hit never reaches the pool
            assert pool.stats["dispatches"] == 1
        assert cold == warm == reference(authority, requests)

    def test_a_repeated_commitment_computes_one_mask(self, bits, monkeypatch):
        authority = make_authority(bits)
        cmt, = commitments(authority, 1)
        raised: list[list[int]] = []
        febo_masks = authority.pool.febo_masks

        def recording(params, msk, cmts):
            raised.append(list(cmts))
            return febo_masks(params, msk, cmts)

        monkeypatch.setattr(authority.pool, "febo_masks", recording)
        requests = [(cmt, op, y) for op, y in zip(OPS, (1, 2, 3, 4))] * 2
        keys = authority.derive_febo_keys(requests)
        assert raised == [[cmt]]
        assert keys == reference(authority, requests)
        assert authority.mask_stats()["misses"] == 1

    def test_results_stay_exact_after_evictions(self, bits):
        authority = make_authority(bits)
        authority.MAX_FEBO_MASKS = 2
        cmts = commitments(authority, 5)
        for rounds in range(3):
            for cmt in cmts + cmts[::-2]:
                requests = all_ops([cmt])
                assert authority.derive_febo_keys(requests) == \
                    reference(authority, requests)
        stats = authority.mask_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == stats["misses"] - 2 > 0

    def test_four_threads_get_the_serial_keys(self, bits):
        authority = make_authority(bits, seed=1)
        requests = all_ops(commitments(authority, 3))
        lists = [requests[t:] for t in range(4)]
        serial = make_authority(bits, seed=1)
        expected = [serial.derive_febo_keys(part) for part in lists]
        got: list = [None] * 4
        barrier = threading.Barrier(4)

        def derive(t: int) -> None:
            barrier.wait()
            for _ in range(3):
                got[t] = authority.derive_febo_keys(lists[t])

        threads = [threading.Thread(target=derive, args=(t,))
                   for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected
        stats = authority.mask_stats()
        assert stats["entries"] == 3
        # every request meets its 3 commitments once, as hit or miss
        assert stats["hits"] + stats["misses"] == 4 * 3 * 3
        assert authority.febo_keys_issued == 3 * sum(map(len, lists))


class TestChecksAndAccounting:
    def test_a_memoized_commitment_still_passes_the_checks(self):
        policy = KeyReleasePolicy()
        authority = make_authority(32, policy=policy)
        cmt, = commitments(authority, 1)
        authority.derive_febo_keys([(cmt, "*", 2)])
        grants = len(policy.grants())
        authority.permitted_ops = frozenset("+-")
        with pytest.raises(UnsupportedOperationError):
            authority.derive_febo_keys([(cmt, "*", 2)])
        authority.permitted_ops = frozenset(OPS)
        policy.allowed_febo_ops = frozenset("+")
        with pytest.raises(PolicyViolation):
            authority.derive_febo_keys([(cmt, "*", 2)])
        assert len(policy.refusals()) == 1
        assert authority.derive_febo_keys([(cmt, "+", 2)]) == \
            reference(authority, [(cmt, "+", 2)])
        assert len(policy.grants()) == grants + 1
        assert authority.mask_stats()["hits"] == 1

    def test_hits_are_issued_keys_and_traffic(self):
        authority = make_authority(32)
        requests = [(cmt, "-", 1) for cmt in commitments(authority, 8)]
        for _ in range(2):
            authority.derive_febo_keys(requests)
            authority.derive_febo_keys_batch(requests)
        assert authority.mask_stats()["hits"] == 3 * 8
        assert authority.febo_keys_issued == 4 * 8
        log = authority.traffic
        assert log.message_count(kind=protocol.KIND_FEBO_KEY_RESPONSE) == 2
        assert log.message_count(
            kind=protocol.KIND_FEBO_KEY_BATCH_RESPONSE) == 2

    def test_two_authorities_never_share_masks(self):
        first, second = make_authority(64, seed=1), make_authority(64, seed=2)
        requests = all_ops(commitments(first, 2))
        first.derive_febo_keys(requests)
        keys = second.derive_febo_keys(requests)
        assert keys == reference(second, requests)
        assert keys != reference(first, requests)
        assert second.mask_stats()["misses"] == 2
        assert second.mask_stats()["hits"] == 0

    def test_masks_are_not_in_the_key_file(self, tmp_path):
        authority = make_authority(64)
        authority.derive_febo_keys(all_ops(commitments(authority, 2)))
        path = tmp_path / "authority.json"
        save_authority(authority, path)
        text = path.read_text()
        assert not any(str(mask) in text
                       for mask in memo(authority).values())
        assert load_authority(path).mask_stats()["entries"] == 0

    def test_a_repeated_label_request_counts_64_hits(self):
        authority = make_authority(64)
        requests = [(cmt, "-", y)
                    for y, cmt in enumerate(commitments(authority, 64))]

        def counters() -> dict:
            return GLOBAL_REGISTRY.snapshot()["counters"]

        authority.derive_febo_keys_batch(requests)
        # authorities of earlier tests, once collected, leave the sum
        gc.collect()
        before = counters()
        authority.derive_febo_keys_batch(requests)
        after = counters()
        name = "repro_authority_febo_mask_hits_total"
        assert after[name] - before[name] == 64
        assert after["repro_authority_febo_mask_misses_total"] == \
            before["repro_authority_febo_mask_misses_total"]
        assert GLOBAL_REGISTRY.snapshot()["gauges"][
            "repro_authority_febo_masks"] >= 64


def outside_range(authority: TrustedAuthority) -> list[int]:
    p, q = authority.params.p, authority.params.q
    return [0, p - 1, q + 1, p]


class TestCommitmentRange:
    def test_a_commitment_outside_the_range_is_refused(self):
        authority = make_authority(64)
        good, = commitments(authority, 1)
        authority.derive_febo_keys([(good, "+", 1)])
        before = memo(authority), authority.mask_stats()
        for bad in outside_range(authority) + [-good]:
            with pytest.raises(CommitmentError):
                authority.derive_febo_keys([(bad, "+", 1)])
            # one bad commitment refuses the whole request, before any
            # mask of it is raised or remembered
            fresh, = commitments(authority, 1)
            with pytest.raises(CommitmentError):
                authority.derive_febo_keys_batch(
                    [(fresh, "+", 1), (bad, "-", 1)])
        assert (memo(authority), authority.mask_stats()) == before
        assert authority.febo_keys_issued == 1

    @pytest.mark.timeout_guard(60)
    def test_the_service_refuses_and_keeps_answering(self):
        authority = make_authority(64)
        service = AuthorityService(authority)
        addr = service.start()
        try:
            with RemoteAuthority(*addr, name="server") as remote:
                bpk = remote.febo_public_key()
                for bad in outside_range(authority):
                    with pytest.raises(RpcRemoteError) as excinfo:
                        remote.derive_febo_keys([(bad, "+", 1)])
                    assert excinfo.value.error_type == \
                        CommitmentError.__name__
                assert authority.mask_stats()["entries"] == 0
                ct = remote.febo.encrypt(bpk, 40)
                key, = remote.derive_febo_keys([(ct.cmt, "-", 2)])
                assert remote.febo.decrypt(bpk, key, ct, bound=100) == 38
        finally:
            service.stop()

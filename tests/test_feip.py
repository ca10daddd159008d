"""Unit + property tests for the FEIP inner-product scheme."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fe.errors import CiphertextError, FunctionKeyError
from repro.fe.feip import Feip
from repro.mathutils.dlog import DiscreteLogError
from repro.mathutils.group import GroupParams

small_ints = st.integers(min_value=-50, max_value=50)


class TestSetup:
    def test_key_lengths(self, feip):
        mpk, msk = feip.setup(4)
        assert mpk.eta == msk.eta == 4
        group = feip.group
        assert all(pow(h, group.q, group.p) == 1 for h in mpk.h)

    def test_rejects_zero_length(self, feip):
        with pytest.raises(ValueError):
            feip.setup(0)

    def test_public_key_matches_master(self, feip):
        mpk, msk = feip.setup(3)
        assert all(feip.group.gexp(s) == h for s, h in zip(msk.s, mpk.h))


class TestCorrectness:
    def test_basic_inner_product(self, feip):
        mpk, msk = feip.setup(3)
        ct = feip.encrypt(mpk, [1, 2, 3])
        key = feip.key_derive(msk, [4, 5, 6])
        assert feip.decrypt(mpk, ct, key, bound=100) == 32

    def test_negative_entries(self, feip):
        mpk, msk = feip.setup(2)
        ct = feip.encrypt(mpk, [-7, 3])
        key = feip.key_derive(msk, [2, -5])
        assert feip.decrypt(mpk, ct, key, bound=100) == -29

    def test_zero_vector(self, feip):
        mpk, msk = feip.setup(2)
        ct = feip.encrypt(mpk, [0, 0])
        key = feip.key_derive(msk, [9, 9])
        assert feip.decrypt(mpk, ct, key, bound=10) == 0

    def test_length_one_vectors(self, feip):
        mpk, msk = feip.setup(1)
        ct = feip.encrypt(mpk, [13])
        key = feip.key_derive(msk, [-3])
        assert feip.decrypt(mpk, ct, key, bound=50) == -39

    @settings(max_examples=40, deadline=None)
    @given(x=st.lists(small_ints, min_size=1, max_size=8),
           data=st.data())
    def test_property_random_vectors(self, params, solver_cache, x, data):
        y = data.draw(st.lists(small_ints, min_size=len(x), max_size=len(x)))
        feip = Feip(params, rng=random.Random(0), solver_cache=solver_cache)
        mpk, msk = feip.setup(len(x))
        ct = feip.encrypt(mpk, x)
        key = feip.key_derive(msk, y)
        expected = sum(a * b for a, b in zip(x, y))
        bound = 50 * 50 * len(x) + 1
        assert feip.decrypt(mpk, ct, key, bound=bound) == expected


class TestFailureModes:
    def test_encrypt_length_mismatch(self, feip):
        mpk, _ = feip.setup(3)
        with pytest.raises(CiphertextError):
            feip.encrypt(mpk, [1, 2])

    def test_key_derive_length_mismatch(self, feip):
        _, msk = feip.setup(3)
        with pytest.raises(FunctionKeyError):
            feip.key_derive(msk, [1, 2, 3, 4])

    def test_decrypt_with_wrong_keypair_raises_dlog_error(self, feip):
        mpk_a, msk_a = feip.setup(2)
        mpk_b, msk_b = feip.setup(2)
        ct = feip.encrypt(mpk_a, [1, 2])
        wrong_key = feip.key_derive(msk_b, [3, 4])
        with pytest.raises(DiscreteLogError):
            feip.decrypt(mpk_a, ct, wrong_key, bound=1000)

    def test_tampered_ciphertext_detected(self, feip):
        mpk, msk = feip.setup(2)
        ct = feip.encrypt(mpk, [1, 2])
        key = feip.key_derive(msk, [3, 4])
        tampered = type(ct)(ct0=ct.ct0,
                            ct=(feip.group.mul(ct.ct[0], feip.group.gexp(99999)),
                                ct.ct[1]))
        with pytest.raises(DiscreteLogError):
            feip.decrypt(mpk, tampered, key, bound=1000)

    def test_result_outside_bound(self, feip):
        mpk, msk = feip.setup(1)
        ct = feip.encrypt(mpk, [100])
        key = feip.key_derive(msk, [100])
        with pytest.raises(DiscreteLogError):
            feip.decrypt(mpk, ct, key, bound=100)  # true value 10000


class TestDecryptRows:
    """Batched column decryption vs the per-row reference path."""

    def _setup(self, feip, rng, eta=5, m=7, magnitude=40):
        mpk, msk = feip.setup(eta)
        x = [rng.randrange(-magnitude, magnitude + 1) for _ in range(eta)]
        ct = feip.encrypt(mpk, x)
        keys = [
            feip.key_derive(
                msk, [rng.randrange(-magnitude, magnitude + 1)
                      for _ in range(eta)])
            for _ in range(m)
        ]
        bound = eta * magnitude * magnitude + 1
        return mpk, ct, keys, bound

    def test_matches_per_row_decrypt(self, feip, rng):
        mpk, ct, keys, bound = self._setup(feip, rng)
        reference = [feip.decrypt(mpk, ct, key, bound) for key in keys]
        assert feip.decrypt_rows(mpk, ct, keys, bound) == reference

    def test_matches_on_larger_group(self, solver_cache):
        import random as random_mod
        feip = Feip(GroupParams.predefined(128), rng=random_mod.Random(3),
                    solver_cache=solver_cache)
        rng = random_mod.Random(4)
        mpk, ct, keys, bound = self._setup(feip, rng, eta=4, m=12)
        reference = [feip.decrypt(mpk, ct, key, bound) for key in keys]
        assert feip.decrypt_rows(mpk, ct, keys, bound) == reference

    def test_single_row_and_empty(self, feip, rng):
        mpk, ct, keys, bound = self._setup(feip, rng, m=1)
        assert feip.decrypt_rows(mpk, ct, keys, bound) == \
            [feip.decrypt(mpk, ct, keys[0], bound)]
        assert feip.decrypt_rows(mpk, ct, [], bound) == []

    def test_out_of_bound_raises(self, feip):
        mpk, msk = feip.setup(1)
        ct = feip.encrypt(mpk, [100])
        keys = [feip.key_derive(msk, [1]), feip.key_derive(msk, [100])]
        with pytest.raises(DiscreteLogError):
            feip.decrypt_rows(mpk, ct, keys, bound=100)  # 10000 overflows

    def test_key_length_mismatch(self, feip):
        mpk, msk = feip.setup(2)
        ct = feip.encrypt(mpk, [1, 2])
        _, msk3 = feip.setup(3)
        bad = feip.key_derive(msk3, [1, 2, 3])
        with pytest.raises(CiphertextError):
            feip.decrypt_rows(mpk, ct, [bad], bound=100)


class TestRowPlanDecryption:
    """Plan-driven decrypt_rows against per-row decrypt, at 64 and 256 bits."""

    @pytest.fixture(params=[64, 256], scope="class")
    def big_feip(self, request):
        return Feip(GroupParams.predefined(request.param),
                    rng=random.Random(request.param))

    BOUND = 1 << 17

    def _check(self, feip, weights, x, columns=2):
        mpk, msk = feip.setup(len(x))
        keys = [feip.key_derive(msk, y) for y in weights]
        plan = feip.row_plan(keys)
        q = feip.group.q
        balanced = [[(v % q) - q if v % q > q // 2 else v % q for v in y]
                    for y in weights]
        bound = self.BOUND
        for _ in range(columns):
            ct = feip.encrypt(mpk, x)
            reference = [feip.decrypt(mpk, ct, key, bound) for key in keys]
            assert reference == [sum(a * b for a, b in zip(x, y))
                                 for y in balanced]
            assert feip.decrypt_rows(mpk, ct, keys, bound, plan=plan) \
                == reference
            assert feip.decrypt_rows(mpk, ct, keys, bound) == reference

    def test_zero_rows(self, big_feip):
        self._check(big_feip, [[0, 0, 0], [0, 5, 0], [0, 0, 0]], [7, 8, 9])

    def test_all_negative_rows(self, big_feip):
        rng = random.Random(1)
        weights = [[-rng.randrange(1, 200) for _ in range(6)]
                   for _ in range(5)]
        self._check(big_feip, weights, [rng.randrange(0, 101)
                                        for _ in range(6)])

    def test_oversized_exponents(self, big_feip):
        """Weights >= q/2 act as their balanced residue, as in decrypt."""
        q = big_feip.group.q
        weights = [[q - 5, q + 7, -q + 2, 2 * q - 1],
                   [q - 1, -(q - 3), 3, q],
                   [1, 2, 3, 4], [-q - 9, 0, q - 1, 5]]
        self._check(big_feip, weights, [3, -4, 5, 6])

    def test_single_element_vectors(self, big_feip):
        rng = random.Random(2)
        for m in (1, 3, 9):
            weights = [[rng.randrange(-100, 101)] for _ in range(m)]
            self._check(big_feip, weights, [rng.randrange(-100, 101)])

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 17, 40])
    def test_row_counts_across_comb_threshold(self, big_feip, m):
        rng = random.Random(m)
        weights = [[rng.randrange(-60, 61) for _ in range(3)]
                   for _ in range(m)]
        self._check(big_feip, weights, [rng.randrange(0, 101)
                                        for _ in range(3)], columns=1)

    def test_every_row_count_up_to_40(self, feip):
        rng = random.Random(3)
        for m in range(1, 41):
            weights = [[rng.randrange(-60, 61) for _ in range(2)]
                       for _ in range(m)]
            self._check(feip, weights, [rng.randrange(0, 101)
                                        for _ in range(2)], columns=1)

    def test_plan_for_another_key_set_is_rejected(self, feip):
        mpk, msk = feip.setup(2)
        keys = [feip.key_derive(msk, [1, 2]), feip.key_derive(msk, [3, 4])]
        ct = feip.encrypt(mpk, [1, 1])
        with pytest.raises(FunctionKeyError):
            feip.decrypt_rows(mpk, ct, keys, 100,
                              plan=feip.row_plan(keys[:1]))
        with pytest.raises(FunctionKeyError):
            feip.row_plan([keys[0], feip.key_derive(feip.setup(3)[1],
                                                    [1, 2, 3])])

    def test_plan_for_other_keys_of_the_same_count_is_rejected(self, feip):
        """A plan only fits the keys it recoded, not any key set of its
        size: decrypting with another's plan would return the other
        keys' inner products."""
        mpk, msk = feip.setup(3)
        ct = feip.encrypt(mpk, [1, 2, 3])
        a = [feip.key_derive(msk, y) for y in ([1, 0, 0], [0, 1, 0])]
        b = [feip.key_derive(msk, y) for y in ([0, 0, 1], [1, 1, 1])]
        assert feip.decrypt_rows(mpk, ct, b, 100,
                                 plan=feip.row_plan(b)) == [3, 6]
        with pytest.raises(FunctionKeyError):
            feip.decrypt_rows(mpk, ct, b, 100, plan=feip.row_plan(a))


class TestSemanticBehaviour:
    def test_same_plaintext_fresh_randomness(self, feip):
        mpk, _ = feip.setup(2)
        a = feip.encrypt(mpk, [5, 5])
        b = feip.encrypt(mpk, [5, 5])
        assert a.ct0 != b.ct0
        assert a.ct != b.ct

    def test_key_is_linear_in_y(self, feip):
        """sk_{y1+y2} = sk_{y1} + sk_{y2} (mod q) -- the known FEIP
        malleability that makes authority-side policy necessary."""
        _, msk = feip.setup(2)
        k1 = feip.key_derive(msk, [1, 0])
        k2 = feip.key_derive(msk, [0, 1])
        k12 = feip.key_derive(msk, [1, 1])
        assert (k1.sk + k2.sk) % feip.group.q == k12.sk

    def test_works_on_larger_group(self, solver_cache):
        feip = Feip(GroupParams.predefined(128), rng=random.Random(5),
                    solver_cache=solver_cache)
        mpk, msk = feip.setup(4)
        ct = feip.encrypt(mpk, [10, -20, 30, -40])
        key = feip.key_derive(msk, [1, 2, 3, 4])
        assert feip.decrypt(mpk, ct, key, bound=10_000) == 10 - 40 + 90 - 160

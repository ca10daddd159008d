"""Unit + property tests for the FEBO basic-operations scheme."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fe.errors import FunctionKeyError, UnsupportedOperationError
from repro.fe.febo import Febo, FeboOp
from repro.mathutils.dlog import DiscreteLogError
from repro.mathutils.group import canonical

values = st.integers(min_value=-500, max_value=500)


def roundtrip(febo, mpk, msk, x, op, y, bound=10 ** 6):
    ct = febo.encrypt(mpk, x)
    key = febo.key_derive(msk, ct.cmt, op, y)
    return febo.decrypt(mpk, key, ct, bound=bound)


class TestOps:
    @pytest.fixture()
    def keys(self, febo):
        return febo.setup()

    def test_addition(self, febo, keys):
        mpk, msk = keys
        assert roundtrip(febo, mpk, msk, 17, "+", 25) == 42

    def test_subtraction(self, febo, keys):
        mpk, msk = keys
        assert roundtrip(febo, mpk, msk, 17, "-", 25) == -8

    def test_multiplication(self, febo, keys):
        mpk, msk = keys
        assert roundtrip(febo, mpk, msk, -6, "*", 7) == -42

    def test_exact_division(self, febo, keys):
        mpk, msk = keys
        assert roundtrip(febo, mpk, msk, 84, "/", 7) == 12
        assert roundtrip(febo, mpk, msk, 84, "/", -7) == -12

    def test_multiply_by_zero(self, febo, keys):
        mpk, msk = keys
        assert roundtrip(febo, mpk, msk, 99, "*", 0) == 0

    def test_multiply_by_one_reveals_plaintext(self, febo, keys):
        """The direct-inference capability the paper concedes: an
        authorized decryptor recovers x from x * 1."""
        mpk, msk = keys
        assert roundtrip(febo, mpk, msk, -123, "*", 1) == -123

    def test_add_negative_operand(self, febo, keys):
        mpk, msk = keys
        assert roundtrip(febo, mpk, msk, 10, "+", -25) == -15

    @settings(max_examples=40, deadline=None)
    @given(x=values, y=values, op=st.sampled_from(["+", "-", "*"]))
    def test_property_add_sub_mul(self, params, solver_cache, x, y, op):
        febo = Febo(params, rng=random.Random(0), solver_cache=solver_cache)
        mpk, msk = febo.setup()
        expected = {"+": x + y, "-": x - y, "*": x * y}[op]
        assert roundtrip(febo, mpk, msk, x, op, y) == expected

    @settings(max_examples=30, deadline=None)
    @given(quotient=st.integers(min_value=-50, max_value=50),
           y=st.integers(min_value=1, max_value=50))
    def test_property_exact_division(self, params, solver_cache, quotient, y):
        febo = Febo(params, rng=random.Random(0), solver_cache=solver_cache)
        mpk, msk = febo.setup()
        assert roundtrip(febo, mpk, msk, quotient * y, "/", y) == quotient


class TestFailureModes:
    @pytest.fixture()
    def keys(self, febo):
        return febo.setup()

    def test_division_by_zero_rejected(self, febo, keys):
        mpk, msk = keys
        ct = febo.encrypt(mpk, 10)
        with pytest.raises(FunctionKeyError):
            febo.key_derive(msk, ct.cmt, "/", 0)

    def test_inexact_division_fails_dlog(self, febo, keys):
        mpk, msk = keys
        ct = febo.encrypt(mpk, 10)
        key = febo.key_derive(msk, ct.cmt, "/", 3)
        with pytest.raises(DiscreteLogError):
            febo.decrypt(mpk, key, ct, bound=10 ** 6)

    def test_unknown_operation(self, febo, keys):
        mpk, msk = keys
        ct = febo.encrypt(mpk, 1)
        with pytest.raises(UnsupportedOperationError):
            febo.key_derive(msk, ct.cmt, "%", 2)

    def test_key_bound_to_ciphertext(self, febo, keys):
        """FEBO keys are per-ciphertext; reusing one on another ciphertext
        must fail loudly, not decrypt to garbage."""
        mpk, msk = keys
        ct_a = febo.encrypt(mpk, 1)
        ct_b = febo.encrypt(mpk, 2)
        key_a = febo.key_derive(msk, ct_a.cmt, "+", 5)
        with pytest.raises(FunctionKeyError):
            febo.decrypt(mpk, key_a, ct_b, bound=100)

    def test_result_outside_bound(self, febo, keys):
        mpk, msk = keys
        assert roundtrip(febo, mpk, msk, 50, "*", 50, bound=2501) == 2500
        ct = febo.encrypt(mpk, 51)
        key = febo.key_derive(msk, ct.cmt, "*", 50)
        with pytest.raises(DiscreteLogError):
            febo.decrypt(mpk, key, ct, bound=2500)


class TestSemanticBehaviour:
    def test_fresh_randomness_per_encryption(self, febo):
        mpk, _ = febo.setup()
        a = febo.encrypt(mpk, 7)
        b = febo.encrypt(mpk, 7)
        assert (a.cmt, a.ct) != (b.cmt, b.ct)

    def test_op_coerce(self):
        assert FeboOp.coerce("+") is FeboOp.ADD
        assert FeboOp.coerce(FeboOp.DIV) is FeboOp.DIV
        with pytest.raises(UnsupportedOperationError):
            FeboOp.coerce("pow")

    def test_correctness_follows_paper_equations(self, febo):
        """Explicitly verify the four decryption equations of Section
        III-B against the group-element forms.  Ciphertexts and keys are
        canonical, so the result is right up to sign: compare canonical
        forms."""
        mpk, msk = febo.setup()
        g = febo.group
        x, y = 9, 4
        ct = febo.encrypt(mpk, x)
        for op, expected in (("+", x + y), ("-", x - y), ("*", x * y)):
            key = febo.key_derive(msk, ct.cmt, op, y)
            assert canonical(febo.decrypt_raw(mpk, key, ct), g.p) == \
                canonical(g.gexp(expected), g.p)


class TestDecryptMany:
    """Batched decryption (shared dlog walk) vs per-pair decrypt."""

    def test_matches_per_pair_decrypt(self, febo, rng):
        mpk, msk = febo.setup()
        items = []
        expected = []
        for op in ("+", "-", "*"):
            for _ in range(5):
                x = rng.randrange(-50, 51)
                y = rng.randrange(-50, 51)
                ct = febo.encrypt(mpk, x)
                key = febo.key_derive(msk, ct.cmt, op, y)
                items.append((key, ct))
                expected.append({"+": x + y, "-": x - y, "*": x * y}[op])
        bound = 50 * 50 + 101
        assert febo.decrypt_many(mpk, items, bound) == expected
        assert febo.decrypt_many(mpk, items, bound) == [
            febo.decrypt(mpk, key, ct, bound) for key, ct in items
        ]

    def test_empty(self, febo):
        mpk, _ = febo.setup()
        assert febo.decrypt_many(mpk, [], bound=10) == []

    def test_out_of_bound_raises(self, febo):
        mpk, msk = febo.setup()
        good = febo.encrypt(mpk, 3)
        bad = febo.encrypt(mpk, 40)
        items = [
            (febo.key_derive(msk, good.cmt, "+", 1), good),
            (febo.key_derive(msk, bad.cmt, "*", 40), bad),  # 1600 > bound
        ]
        with pytest.raises(DiscreteLogError):
            febo.decrypt_many(mpk, items, bound=100)

    def test_batch_inverse_path_equals_per_cell_decrypt_for_all_ops(
            self, febo, rng):
        """One Montgomery inverse for the grid gives the same elements
        as ``decrypt_raw``'s per-cell inverse, division included."""
        mpk, msk = febo.setup()
        items = []
        for op in "+-*/":
            for _ in range(6):
                y = rng.choice([v for v in range(-9, 10) if v])
                x = y * rng.randrange(-20, 21) if op == "/" \
                    else rng.randrange(-50, 51)
                ct = febo.encrypt(mpk, x)
                items.append((febo.key_derive(msk, ct.cmt, op, y), ct))
        rng.shuffle(items)
        bound = 50 * 9 + 60
        assert febo.decrypt_many(mpk, items, bound) == [
            febo.decrypt(mpk, key, ct, bound) for key, ct in items
        ]

    def test_key_for_another_commitment_raises(self, febo):
        mpk, msk = febo.setup()
        a, b = febo.encrypt(mpk, 3), febo.encrypt(mpk, 4)
        items = [(febo.key_derive(msk, a.cmt, "*", 1), a),
                 (febo.key_derive(msk, a.cmt, "*", 1), b)]
        with pytest.raises(FunctionKeyError, match="different ciphertext"):
            febo.decrypt_many(mpk, items, bound=10)

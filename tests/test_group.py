"""Unit tests for repro.mathutils.group."""

import random

import pytest

from repro.mathutils.group import (
    GroupParams,
    SchnorrGroup,
    _PREDEFINED,
    canonical,
    validate_subgroup_element,
)


@pytest.mark.parametrize("bits", sorted(_PREDEFINED))
def test_predefined_params_are_valid(bits):
    params = GroupParams.predefined(bits)
    params.validate()
    assert params.bits == bits


def test_predefined_unknown_size_raises():
    with pytest.raises(ValueError, match="supported sizes"):
        GroupParams.predefined(77)


def test_generate_fresh_params():
    params = GroupParams.generate(24, rng=random.Random(3))
    params.validate()


def test_validate_rejects_bad_generator():
    base = GroupParams.predefined(32)
    broken = GroupParams(p=base.p, q=base.q, g=1)
    with pytest.raises(ValueError):
        broken.validate()


def test_validate_rejects_wrong_q():
    base = GroupParams.predefined(32)
    broken = GroupParams(p=base.p, q=base.q - 1, g=base.g)
    with pytest.raises(ValueError):
        broken.validate()


class TestSchnorrGroupOps:
    def test_generator_has_order_q(self, group):
        assert group.exp(group.g, group.q) == 1
        assert group.gexp(0) == 1

    def test_exp_reduces_mod_q(self, group):
        assert group.gexp(group.q + 5) == group.gexp(5)

    def test_negative_exponent(self, group):
        a = group.gexp(10)
        assert group.mul(a, group.gexp(-10)) == 1

    def test_mul_div_inverse(self, group):
        a, b = group.random_element(), group.random_element()
        assert group.div(group.mul(a, b), b) == a
        assert group.mul(a, group.inv(a)) == 1

    def test_exp_inverse_in_exponent_ring(self, group):
        for y in (2, 3, 17, -5):
            inv = group.exp_inverse(y)
            assert (y * inv) % group.q == 1

    def test_random_element_in_subgroup(self, group):
        for _ in range(10):
            assert pow(group.random_element(), group.q, group.p) == 1

    def test_homomorphism(self, group):
        assert group.mul(group.gexp(7), group.gexp(11)) == group.gexp(18)


@pytest.mark.parametrize("bits", [32, 64, 256])
def test_gexp_balanced_matches_pow(bits):
    """Negative exponents take the g^{-1} comb, and agree with ``pow``."""
    params = GroupParams.predefined(bits)
    group = SchnorrGroup(params)
    q, p, g = params.q, params.p, params.g
    for e in (0, 1, -1, 100, -100, q // 2, -(q // 2), q - 1, -q):
        assert group.gexp(e) == pow(g, e % q, p), e


def test_gexp_builds_one_inverse_comb():
    group = SchnorrGroup(GroupParams.predefined(64))
    for e in (5, -5, -7, 9, -(group.q // 3)):
        group.gexp(e)
    assert len(group._fixed_bases) == 2  # g and g^{-1}, each built once


class TestSignedEncoding:
    """``canonical`` maps the subgroup one-to-one onto ``[1, q]`` and
    commutes, up to sign, with the group operations decryption uses."""

    PAIRS = 2_000

    @pytest.fixture(scope="class")
    def pairs(self):
        params = GroupParams.predefined(256)
        rng = random.Random(7)
        # a square of a unit is a uniform subgroup element
        return params, [(pow(rng.randrange(1, params.p), 2, params.p),
                         pow(rng.randrange(1, params.p), 2, params.p),
                         rng.randint(-(1 << 20), 1 << 20))
                        for _ in range(self.PAIRS)]

    def test_canonical_lands_in_one_to_q(self, group):
        for _ in range(50):
            x = group.random_element()
            assert 0 < canonical(x, group.p) <= group.q
            assert canonical(x, group.p) == canonical(group.p - x, group.p)
            # -1 is a non-residue: exactly one of x, p - x is a member
            assert pow(group.p - x, group.q, group.p) != 1

    def test_commutes_with_products(self, pairs):
        params, items = pairs
        p = params.p
        for a, b, _ in items:
            assert canonical(a * b % p, p) == \
                canonical(canonical(a, p) * canonical(b, p) % p, p)

    def test_commutes_with_signed_powers(self, pairs):
        params, items = pairs
        p = params.p
        for a, _, e in items:
            assert canonical(pow(a, e, p), p) == \
                canonical(pow(canonical(a, p), e, p), p)

    def test_commutes_with_inverses(self, pairs):
        params, items = pairs
        p = params.p
        for a, _, _ in items:
            assert canonical(pow(a, -1, p), p) == \
                canonical(pow(canonical(a, p), -1, p), p)

    def test_validation_is_the_range_check(self, params):
        validate_subgroup_element(1, params)
        validate_subgroup_element(params.q, params)
        for value in (params.q + 1, params.p - 1):
            with pytest.raises(ValueError, match="subgroup") as err:
                validate_subgroup_element(value, params)
            assert "above q" in str(err.value)
        for value in (0, params.p, -1):
            with pytest.raises(ValueError, match=r"outside \(0, p\)"):
                validate_subgroup_element(value, params)

"""Unit tests for repro.mathutils.group."""

import random

import pytest

from repro.mathutils.group import GroupParams, SchnorrGroup, _PREDEFINED


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
            assert group.contains(group.random_element())

    def test_contains_rejects_non_members(self, group):
        # p-1 has order 2, not in the order-q subgroup
        assert not group.contains(group.p - 1)
        assert not group.contains(0)
        assert not group.contains(group.p)

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

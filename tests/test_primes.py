"""Unit tests for repro.mathutils.primes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mathutils.primes import gen_safe_prime, is_probable_prime

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 104729, 2147483647, 67280421310721]
KNOWN_COMPOSITES = [0, 1, 4, 9, 100, 104730, 2147483647 * 3,
                    561, 41041, 825265]  # includes Carmichael numbers


@pytest.mark.parametrize("n", KNOWN_PRIMES)
def test_known_primes_pass(n):
    assert is_probable_prime(n)


@pytest.mark.parametrize("n", KNOWN_COMPOSITES)
def test_known_composites_fail(n):
    assert not is_probable_prime(n)


def test_negative_numbers_are_not_prime():
    assert not is_probable_prime(-7)


def test_gen_safe_prime_structure():
    rng = random.Random(2)
    p, q = gen_safe_prime(24, rng=rng)
    assert p == 2 * q + 1
    assert is_probable_prime(p)
    assert is_probable_prime(q)
    assert p.bit_length() == 24


def test_gen_safe_prime_rejects_tiny_bits():
    with pytest.raises(ValueError):
        gen_safe_prime(3)


def test_gen_safe_prime_deterministic_with_seeded_rng():
    assert gen_safe_prime(24, rng=random.Random(7)) \
        == gen_safe_prime(24, rng=random.Random(7))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=5000))
def test_matches_trial_division(n):
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert is_probable_prime(n) == trial(n)

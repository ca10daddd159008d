"""Unit tests for repro.mathutils.modarith."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.mathutils.modarith import (
    int_to_signed,
    mod_inverse,
    signed_to_int,
)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**9),
       st.integers(min_value=2, max_value=10**9))
def test_mod_inverse_property(a, m):
    if math.gcd(a, m) == 1:
        inv = mod_inverse(a, m)
        assert 0 <= inv < m
        assert a * inv % m == 1
    else:
        with pytest.raises(ValueError):
            mod_inverse(a, m)


def test_mod_inverse_of_negative():
    assert (-3) * mod_inverse(-3, 7) % 7 == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-10**6, max_value=10**6))
def test_signed_roundtrip(value):
    modulus = 2 * 10**6 + 7
    assert int_to_signed(signed_to_int(value, modulus), modulus) == value


def test_signed_window_edges():
    m = 11
    assert int_to_signed(5, m) == 5      # m//2 stays positive
    assert int_to_signed(6, m) == -5
    assert int_to_signed(10, m) == -1
    assert signed_to_int(-1, m) == 10

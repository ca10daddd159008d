"""Unit tests for repro.mathutils.modarith."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.mathutils.modarith import mod_inverse


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

"""Unit + property tests for the fixed-point codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mathutils.encoding import PAPER_SCALE, FixedPointCodec


class TestScalar:
    def test_paper_scale_two_decimals(self):
        codec = FixedPointCodec()
        assert codec.scale == PAPER_SCALE == 100
        assert codec.encode(3.14159) == 314
        assert codec.decode(314) == pytest.approx(3.14)

    def test_negative_values(self):
        codec = FixedPointCodec(100)
        assert codec.encode(-2.5) == -250
        assert codec.decode(-250) == -2.5

    def test_rounding_not_truncation(self):
        codec = FixedPointCodec(100)
        assert codec.encode(0.019) == 2
        assert codec.encode(-0.019) == -2

    def test_power_two_decode(self):
        codec = FixedPointCodec(100)
        # product of two encoded values carries scale^2
        product = codec.encode(1.5) * codec.encode(2.0)
        assert codec.decode(product, power=2) == pytest.approx(3.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            FixedPointCodec(0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-1000, max_value=1000, allow_nan=False),
           st.sampled_from([10, 100, 1000]))
    def test_roundtrip_error_bounded(self, value, scale):
        codec = FixedPointCodec(scale)
        assert abs(codec.decode(codec.encode(value)) - value) <= 0.5 / scale + 1e-12


class TestArray:
    def test_encode_array_object_dtype(self):
        codec = FixedPointCodec(100)
        arr = codec.encode_array(np.array([[0.5, -1.25], [2.0, 0.0]]))
        assert arr.dtype == object
        assert arr.tolist() == [[50, -125], [200, 0]]
        assert all(isinstance(v, int) for v in arr.ravel())

    def test_decode_array_roundtrip(self):
        codec = FixedPointCodec(100)
        values = np.array([[0.25, -3.75], [1.0, 0.01]])
        out = codec.decode_array(codec.encode_array(values))
        np.testing.assert_allclose(out, values)

    def test_no_int64_overflow_with_huge_scale(self):
        codec = FixedPointCodec(10 ** 15)
        arr = codec.encode_array(np.array([1e5]))
        assert arr[0] == 10 ** 20  # would overflow int64


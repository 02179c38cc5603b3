import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2wiener.dyadic import DyadicScalar, ONE, ZERO

from _reference import floor_log2_ratio


def test_canonical_form():
    assert (DyadicScalar(4, 2).num, DyadicScalar(4, 2).exp) == (1, 0)
    assert (DyadicScalar(6, 1).num, DyadicScalar(6, 1).exp) == (3, 0)
    assert (DyadicScalar(12, 4).num, DyadicScalar(12, 4).exp) == (3, 2)
    assert (DyadicScalar(-4, 1).num, DyadicScalar(-4, 1).exp) == (-2, 0)
    assert (DyadicScalar(0, 9).num, DyadicScalar(0, 9).exp) == (0, 0)
    # integers keep exp 0 even when even
    assert (DyadicScalar(2).num, DyadicScalar(2).exp) == (2, 0)
    with pytest.raises(ValueError):
        DyadicScalar(1, -1)


def test_immutability():
    x = DyadicScalar(3, 1)
    with pytest.raises(AttributeError):
        x.num = 5


def test_parse_and_str():
    assert DyadicScalar.parse("5/2^4") == DyadicScalar(5, 4)
    assert DyadicScalar.parse("-3/2^1") == DyadicScalar(-3, 1)
    assert DyadicScalar.parse("7") == DyadicScalar(7)
    assert str(DyadicScalar(5, 4)) == "5/2^4"
    assert str(DyadicScalar(7)) == "7"
    for bad in ["", "x", "1/3", "1/2^", "2^3", "1.5"]:
        with pytest.raises(ValueError):
            DyadicScalar.parse(bad)


def test_decimal_str():
    assert DyadicScalar(21, 4).decimal_str() == "1.3125"
    assert DyadicScalar(1, 3).decimal_str() == "0.125"
    assert DyadicScalar(-3, 1).decimal_str() == "-1.5"
    assert DyadicScalar(5).decimal_str() == "5"
    assert DyadicScalar(1, 10).decimal_str() == "0.0009765625"
    assert DyadicScalar(0).decimal_str() == "0"


def test_arithmetic_matches_fractions():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a = DyadicScalar(int(rng.integers(-200, 201)), int(rng.integers(0, 9)))
        b = DyadicScalar(int(rng.integers(-200, 201)), int(rng.integers(0, 9)))
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a + b).as_fraction() == fa + fb
        assert (a - b).as_fraction() == fa - fb
        assert (a * b).as_fraction() == fa * fb
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)
        assert (a == b) == (fa == fb)
        assert abs(a).as_fraction() == abs(fa)
        assert (-a).as_fraction() == -fa


_DYADIC = st.builds(DyadicScalar, st.integers(-(1 << 70), 1 << 70),
                    st.integers(0, 80))


@settings(max_examples=100, deadline=None)
@given(a=_DYADIC, b=_DYADIC, i=st.integers(-(1 << 70), 1 << 70),
       k=st.integers(-80, 80))
def test_arithmetic_matches_fractions_property(a, b, i, k):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a + b).as_fraction() == fa + fb
    assert (a - b).as_fraction() == fa - fb
    assert (a * b).as_fraction() == fa * fb
    assert (a + i).as_fraction() == fa + i
    assert (i - a).as_fraction() == i - fa
    assert (i * a).as_fraction() == i * fa
    assert (-a).as_fraction() == -fa and abs(a).as_fraction() == abs(fa)
    assert a.mul_pow2(k).as_fraction() == fa * Fraction(2) ** k
    assert a.frac().as_fraction() == fa - math.floor(fa)
    assert (a < b, a <= b, a == b, a > b, a >= b) == (
        fa < fb, fa <= fb, fa == fb, fa > fb, fa >= fb)
    if a == b:
        assert hash(a) == hash(b)
    assert float(a) == float(fa) and bool(a) == bool(fa)
    # canonical: the same value always has the same (num, exp)
    assert DyadicScalar(fa.numerator, fa.denominator.bit_length() - 1) == a


def test_int_mixing():
    assert DyadicScalar(1, 1) + 1 == DyadicScalar(3, 1)
    assert 1 - DyadicScalar(1, 2) == DyadicScalar(3, 2)
    assert 2 * DyadicScalar(3, 1) == DyadicScalar(3)
    assert DyadicScalar(4) == 4
    assert DyadicScalar(1, 1) < 1


def test_floor_and_frac():
    # The floor is num >> exp; frac is what is left of it.
    assert DyadicScalar(7, 2).frac() == DyadicScalar(3, 2)
    assert DyadicScalar(-3, 1).frac() == DyadicScalar(1, 1)
    assert DyadicScalar(4).frac() == ZERO
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = DyadicScalar(int(rng.integers(-500, 501)), int(rng.integers(0, 10)))
        q = x.as_fraction()
        fl = math.floor(q)
        assert x.num >> x.exp == fl
        assert x.frac().as_fraction() == q - fl


def test_mul_pow2():
    x = DyadicScalar(3, 4)
    assert x.mul_pow2(2) == DyadicScalar(3, 2)
    assert x.mul_pow2(6) == DyadicScalar(12)
    assert x.mul_pow2(-3) == DyadicScalar(3, 7)
    assert x.mul_pow2(0) == x


def test_conversions():
    assert DyadicScalar(3, 3).as_fraction() == Fraction(3, 8)
    assert float(DyadicScalar(3, 1)) == 1.5
    assert float(DyadicScalar(-11, 2)) == -2.75
    assert not ZERO and DyadicScalar(-5, 2)
    assert hash(DyadicScalar(2, 1)) == hash(DyadicScalar(1))


def test_sum_builtin():
    xs = [DyadicScalar(1, i) for i in range(4)]
    assert sum(xs, ZERO) == DyadicScalar(15, 3)


def test_floor_log2_ratio():
    assert floor_log2_ratio(ONE, ONE) == 0
    assert floor_log2_ratio(ONE, DyadicScalar(1, 3)) == 3
    assert floor_log2_ratio(DyadicScalar(1, 3), ONE) == -3
    assert floor_log2_ratio(DyadicScalar(8), DyadicScalar(5)) == 0
    assert floor_log2_ratio(DyadicScalar(16), DyadicScalar(5)) == 1
    with pytest.raises(ValueError):
        floor_log2_ratio(ZERO, ONE)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a = DyadicScalar(int(rng.integers(1, 4000)), int(rng.integers(0, 12)))
        b = DyadicScalar(int(rng.integers(1, 4000)), int(rng.integers(0, 12)))
        s = floor_log2_ratio(a, b)
        q = a.as_fraction() / b.as_fraction()
        assert Fraction(2) ** s <= q < Fraction(2) ** (s + 1)

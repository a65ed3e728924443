"""Directed float conversion and the batched cos/sin kernel."""

import math
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phstab.intervals import REDUCTION_RANGE, cos_sin, float_down, float_up, workprec

THIRD = Fraction(1, 3)


def test_float_bounds_round_outward():
    with workprec(128):
        third = mpmath.iv.mpf(1) / 3
        # plain float() truncates toward zero: below 1/3 at the upper end
        assert Fraction(float(third.b)) < THIRD
        assert Fraction(float_down(third)) <= THIRD <= Fraction(float_up(third))
        neg = -third
        assert Fraction(float_down(neg)) <= -THIRD <= Fraction(float_up(neg))
    for x in (THIRD, -THIRD, Fraction(2, 7), Fraction(1, 10**30)):
        assert Fraction(float_down(x)) <= x <= Fraction(float_up(x))
        assert math.nextafter(float_down(x), math.inf) >= float_up(x)
    assert float_down(Fraction(1, 2)) == float_up(Fraction(1, 2)) == 0.5
    with mpmath.workprec(200):
        y = mpmath.mpf(1) / 3
        assert Fraction(float_down(y)) <= THIRD <= Fraction(float_up(y))


def _check_enclosure(xs, errs, offsets):
    c, s, pc, ps = cos_sin(np.array(xs), np.array(errs))
    with mpmath.workprec(200):
        for x, e, off, ci, si, pci, psi in zip(xs, errs, offsets, c, s, pc, ps):
            y = mpmath.mpf(x) + mpmath.mpf(off) * e  # |y - x| <= arg_err
            assert abs(mpmath.cos(y) - ci) <= pci, (x, e)
            assert abs(mpmath.sin(y) - si) <= psi, (x, e)


@given(st.lists(st.floats(-REDUCTION_RANGE, REDUCTION_RANGE), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_cos_sin_contains_mpmath(xs):
    _check_enclosure(xs, [0.0] * len(xs), [0.0] * len(xs))


@given(
    st.integers(-(2**24), 2**24),
    st.floats(-1e-9, 1e-9),
)
@settings(max_examples=80, deadline=None)
def test_cos_sin_near_multiples_of_quarter_pi(k, eps):
    x = k * math.pi / 4 + eps
    if abs(x) <= REDUCTION_RANGE:
        _check_enclosure([x, math.nextafter(x, 0.0)], [0.0, 0.0], [0.0, 0.0])


@given(
    st.floats(-1e6, 1e6),
    st.floats(0.0, 1e-3),
    st.floats(-1.0, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_cos_sin_with_argument_error(x, err, off):
    _check_enclosure([x, -x], [err, err], [off, -off])


def test_cos_sin_outside_range_is_trivial():
    c, s, pc, ps = cos_sin(np.array([REDUCTION_RANGE, 2 * REDUCTION_RANGE, np.nan]))
    assert pc[0] < 1e-14 and ps[0] < 1e-14
    assert list(c[1:]) == [0.0, 0.0] and list(s[1:]) == [0.0, 0.0]
    assert list(pc[1:]) == [1.0, 1.0] and list(ps[1:]) == [1.0, 1.0]

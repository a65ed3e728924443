"""Directed float conversion and the batched cos/sin kernel."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phstab.intervals import REDUCTION_RANGE, cos_sin, float_down, float_up, workprec

THIRD = Fraction(1, 3)


def test_float_bounds_round_outward():
    with workprec(128):
        third = mpmath.iv.mpf(1) / 3
        # plain float() truncates toward zero: below 1/3 at the upper end
        assert Fraction(float(third.b)) < THIRD
        assert Fraction(float_down(third._mpi_)) <= THIRD <= Fraction(float_up(third._mpi_))
        neg = (-third)._mpi_
        assert Fraction(float_down(neg)) <= -THIRD <= Fraction(float_up(neg))
    for x in (THIRD, -THIRD, Fraction(2, 7), Fraction(1, 10**30)):
        assert Fraction(float_down(x)) <= x <= Fraction(float_up(x))
        assert math.nextafter(float_down(x), math.inf) >= float_up(x)
    assert float_down(Fraction(1, 2)) == float_up(Fraction(1, 2)) == 0.5
    with mpmath.workprec(200):
        y = (mpmath.mpf(1) / 3)._mpf_
        assert Fraction(float_down(y)) <= THIRD <= Fraction(float_up(y))


def _check_enclosure(xs, errs, offsets):
    (c, s), (pc, ps) = cos_sin(np.array(xs), np.array(errs))
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
    (c, s), (pc, ps) = cos_sin(np.array([REDUCTION_RANGE, 2 * REDUCTION_RANGE, np.nan]))
    assert pc[0] < 1e-14 and ps[0] < 1e-14
    assert list(c[1:]) == [0.0, 0.0] and list(s[1:]) == [0.0, 0.0]
    assert list(pc[1:]) == [1.0, 1.0] and list(ps[1:]) == [1.0, 1.0]


def _cos_sin_reference(x, arg_err=0.0):
    """The kernel as two separate Horner chains and a quadrant fix-up by
    ``where``: the stacked kernel must give the same bits."""
    from phstab.intervals import _COS, _P1, _P2, _P3, _P_ERR, _POLY_ERR, _SIN

    x = np.asarray(x, dtype=float)
    ok = np.abs(x) <= REDUCTION_RANGE
    x = np.where(ok, x, 0.0)
    k = np.rint(x * (2 / math.pi))
    t2 = (x - k * _P1) - k * _P2
    p3 = k * _P3
    r = t2 - p3
    z = r * r
    c = _COS[8]
    s = _SIN[8]
    for j in range(7, -1, -1):
        c = c * z + _COS[j]
        s = s * z + _SIN[j]
    s = s * r
    e = np.abs(k) * _P_ERR + 2.0**-52 * (np.abs(t2) + np.abs(p3) + np.abs(r)) + _POLY_ERR
    q = k.astype(np.int64) & 3
    swap = (q & 1).astype(bool)
    cc, ss = np.where(swap, s, c), np.where(swap, c, s)
    c, s = np.where((q == 1) | (q == 2), -cc, cc), np.where(q >= 2, -ss, ss)
    d = arg_err
    tail = e + 0.5 * d * d
    pad_c = (tail + (np.abs(s) + e) * d) * (1 + 2.0**-50)
    pad_s = (tail + (np.abs(c) + e) * d) * (1 + 2.0**-50)
    return (np.where(ok, c, 0.0), np.where(ok, s, 0.0),
            np.where(ok, pad_c, 1.0), np.where(ok, pad_s, 1.0))


_ANY_X = st.one_of(
    st.floats(-REDUCTION_RANGE, REDUCTION_RANGE),
    st.floats(REDUCTION_RANGE, 1e300, exclude_min=True).map(lambda v: v * (-1) ** int(v)),
    st.sampled_from([math.inf, -math.inf, math.nan, REDUCTION_RANGE, -REDUCTION_RANGE, -0.0]),
)


@given(st.lists(_ANY_X, min_size=1, max_size=40),
       st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.just("array")),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_cos_sin_is_bit_for_bit_the_two_chain_kernel(xs, arg_err, rnd):
    # same float operations on every element: equal bits, signed zeros
    # included, in range and out of it, for a scalar and an array arg_err
    x = np.array(xs)
    if arg_err == "array":
        arg_err = np.array([rnd.choice([0.0, rnd.uniform(0.0, 1e-3)]) for _ in xs])
    (c, s), (pc, ps) = cos_sin(x, arg_err)
    for got, want in zip((c, s, pc, ps), _cos_sin_reference(x, arg_err)):
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_cos_sin_keeps_the_shape_of_its_argument():
    x = np.linspace(-50.0, 50.0, 12).reshape(3, 4)
    (c, s), (pc, ps) = cos_sin(x, np.full(x.shape, 1e-9))
    for got, want in zip((c, s, pc, ps), _cos_sin_reference(x.ravel(), 1e-9)):
        assert got.shape == (3, 4) and np.array_equal(got.ravel(), want)


class _Interrupt(BaseException):
    """Stands for an exception raised at an arbitrary point, as a timer's
    or a KeyboardInterrupt is."""


def test_endpoint_signs_make_no_conversion(monkeypatch):
    # mpmath compares an interval with a Python number by converting the
    # number inside a bare ``except:``, which would swallow _Interrupt and
    # turn it into a TypeError; the sign tests read raw endpoints instead
    from mpmath import iv
    from mpmath.libmp import fzero

    from phstab import spectral
    from phstab.errors import SingularMatrix

    convert = iv.convert
    # on [0, 7] the enclosure re * re + im * im of |det T_t|^2 dips below 0
    wide, a, one = iv.mpf([0, 7])._mpi_, iv.sqrt(2)._mpi_, iv.mpf(1.0)._mpi_

    def no_zero(x):
        if type(x) is int and x == 0:
            raise _Interrupt
        return convert(x)

    monkeypatch.setattr(iv, "convert", no_zero)
    ev = spectral.HEvaluator()
    d = ev.terms(wide, a, 128)[0]
    assert d[0] == fzero and float_up(d) >= 4
    with pytest.raises(SingularMatrix):
        ev.inv_norm_iv(wide, a, 128)
    norm = ev.inv_norm_iv(one, a, 128)
    assert 0 < float_down(norm) <= float_up(norm) < math.inf


@pytest.mark.parametrize("bits", [128, 1024])
def test_unit_phase_is_iv_cos_and_sin(bits):
    from mpmath import iv

    from phstab.intervals import unit_phase

    with workprec(bits):
        for theta in (0, 0.0, 1.0, -2.5, 1e6, 2.0**60, iv.mpf([0.5, 2.0]),
                      iv.mpf([-3.0, 40.0]), iv.pi / 2, iv.sqrt(2) * 3094):
            c, s = unit_phase(iv.convert(theta)._mpi_, bits)
            assert c == iv.cos(theta)._mpi_ and s == iv.sin(theta)._mpi_


def test_ball_ends():
    from phstab.intervals import RealBall

    for ball in (RealBall(Fraction(141421356, 10**8), Fraction(1, 1 << 24)),
                 RealBall(Fraction(-7, 3), Fraction(1, 10**40)),
                 RealBall(Fraction(3, 1 << 70), Fraction(1, 1 << 80)),
                 RealBall(Fraction(5, 7), Fraction(0))):
        L, H, D = ball.ends()
        assert D > 0 and Fraction(L, D) == ball.lower and Fraction(H, D) == ball.upper


def test_ball_to_mpi_rounds_outward():
    from mpmath import iv
    from mpmath.libmp import to_rational

    from phstab.intervals import RealBall

    for ball in (RealBall(Fraction(141421356, 10**8), Fraction(1, 1 << 24)),
                 RealBall(Fraction(-7, 3), Fraction(1, 10**40)),
                 RealBall(Fraction(3, 1 << 70), Fraction(1, 1 << 80))):
        for prec in (24, 53, 200):
            lo, hi = (Fraction(*map(int, to_rational(x))) for x in ball.to_mpi(prec))
            assert lo <= ball.lower and ball.upper <= hi
            slack = abs(ball.value) * Fraction(1, 1 << (prec - 1))
            assert ball.lower - lo <= slack and hi - ball.upper <= slack
    # dyadic ends with at most prec significant bits come out exactly
    ball = RealBall(Fraction(181, 128), Fraction(1, 256))
    with workprec(16):
        assert ball.to_mpi(16) == iv.mpf([float(ball.lower), float(ball.upper)])._mpi_


def test_directed_conversion_in_the_subnormal_range():
    from mpmath.libmp import from_man_exp

    # mpmath's to_float rounds to nearest once the result is subnormal,
    # whatever rounding it is asked for
    for man, exp in ((1, -1080), (3, -1074), (12345, -1090), (-1, -1080)):
        exact = Fraction(man) / (1 << -exp)
        for x in (from_man_exp(man, exp), (from_man_exp(man, exp),) * 2):
            assert Fraction(float_down(x)) <= exact <= Fraction(float_up(x))

"""Thin certified-interval layer on mpmath's raw ``libmpi`` intervals.

Everything downstream manipulates exact Fractions or interval enclosures.
An interval is a raw pair (lo, hi) of mpf tuples, computed by the
``mpi_*`` primitives at a precision its caller passes, so no code reads
or sets mpmath's global ``iv.prec``. This module is also the one place
where intervals become floats: ``float_down`` and ``float_up`` round an
endpoint outward, and ``cos_sin`` encloses cosines and sines of float
arrays with an error bound proven in advance. On the mpmath side,
``unit_phase`` takes the cosine and the sine of an interval angle from one
pass. ``workprec`` (which sets ``iv.prec`` and restores it) has no caller
in the library.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath
import numpy as np
from mpmath import iv
from mpmath.libmp import (from_int, from_rational, fzero, mpf_add, mpf_pi, mpf_shift, mpf_sub,
                          mpi_cos_sin, round_ceiling, round_floor, round_nearest, to_float,
                          to_rational)


@contextmanager
def workprec(bits: int):
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def enclose(x, prec: int) -> tuple:
    """The libmpi interval of an int, float or Fraction, outward to prec bits."""
    if isinstance(x, int):  # no division, unlike from_rational
        return from_int(x, prec, round_floor), from_int(x, prec, round_ceiling)
    n, d = Fraction(x).as_integer_ratio()
    return from_rational(n, d, prec, round_floor), from_rational(n, d, prec, round_ceiling)


def enclose_pi(prec: int) -> tuple:
    """The libmpi interval of pi, outward to prec bits."""
    return mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling)


@dataclass(frozen=True)
class RealBall:
    """A real number as midpoint ± absolute error bound, both exact rationals.

    Invariant: |stored - exact| <= err.
    """

    value: Fraction
    err: Fraction

    @property
    def lower(self) -> Fraction:
        return self.value - self.err

    @property
    def upper(self) -> Fraction:
        return self.value + self.err

    @classmethod
    def from_bounds(cls, lo: Fraction, hi: Fraction) -> "RealBall":
        mid = (lo + hi) / 2
        return cls(mid, hi - mid)

    @classmethod
    def from_mpi(cls, x) -> "RealBall":
        """The ball of a raw mpmath interval (lo, hi); its dyadic ends are exact."""
        # int() strips gmpy's mpz so downstream stdlib code sees plain ints.
        lo, hi = (Fraction(*map(int, to_rational(e))) for e in x)
        return cls.from_bounds(lo, hi)

    def to_mpi(self, prec: int) -> tuple:
        """The ball as a raw mpmath interval, each end rounded outward to prec bits."""
        lo, hi, den = self.ends()
        return (from_rational(lo, den, prec, round_floor),
                from_rational(hi, den, prec, round_ceiling))

    def scale(self) -> tuple[float, float]:
        """(kf, wid): the float nearest the midpoint and the radius rounded
        up, so |x - kf| <= wid + 2^-53 |kf| for every x in the ball (see
        ``spectral._phases``)."""
        return float(self.value), float_up(self.err)

    def ends(self) -> tuple[int, int, int]:
        """(L, H, D): lower = L/D and upper = H/D over the common
        denominator D > 0 of value and err, without building a Fraction."""
        n, d = self.value.numerator, self.value.denominator
        e, f = self.err.numerator, self.err.denominator
        g = gcd(d, f)
        mid, rad = n * (f // g), e * (d // g)
        return mid - rad, mid + rad, d // g * f


def unit_phase(theta, prec: int) -> tuple:
    """(cos theta, sin theta) of the raw interval theta at prec bits, from
    one ``mpi_cos_sin`` pass, where ``iv.cos`` and ``iv.sin`` each run a
    whole pass and keep half of it."""
    return mpi_cos_sin(theta, prec)


# -- directed conversion to floats ------------------------------------------

_MIN_NORMAL = 2.0**-1022


def _to_float(x, rnd, lower: bool) -> float:
    if isinstance(x, (Fraction, int, float)):
        f = float(x)
        if lower and Fraction(f) > x:
            return math.nextafter(f, -math.inf)
        if not lower and Fraction(f) < x:
            return math.nextafter(f, math.inf)
        return f
    if len(x) == 2:  # a raw interval (lo, hi), not an mpf tuple
        x = x[0 if lower else 1]
    f = to_float(x, rnd=rnd)
    if abs(f) < _MIN_NORMAL and x != fzero:
        # gradual underflow rounds to nearest, whatever ``rnd`` asks
        f = math.nextafter(f, -math.inf if lower else math.inf)
    return f


def float_down(x) -> float:
    """Largest float <= x, an int, float, Fraction or raw mpf tuple. For a
    raw interval (lo, hi), a float <= lo. An mpmath value in the subnormal
    range gets one float more of room.

    ``float()`` of an mpmath value rounds toward zero and of a Fraction to
    nearest, so neither is a bound on its own.
    """
    return _to_float(x, round_floor, True)


def float_up(x) -> float:
    """Smallest float >= x. For a raw interval (lo, hi), a float >= hi."""
    return _to_float(x, round_ceiling, False)


def kernel_scale(x) -> tuple[float, float]:
    """(kf, wid) for a constant K in the raw mpmath interval x = (lo, hi):
    kf is the float nearest its midpoint and wid >= its radius, so
    |K - kf| <= wid + 2^-53 |kf| (see ``spectral._phases``)."""
    lo, hi = x
    mid = to_float(mpf_shift(mpf_add(lo, hi), -1), rnd=round_nearest)
    return mid, float_up(mpf_shift(mpf_sub(hi, lo), -1))


# -- batched certified cos/sin -----------------------------------------------

_U = 2.0**-53  # unit roundoff of binary64, round to nearest
REDUCTION_RANGE = 2.0**22


def _cody_waite_parts() -> tuple[float, float, float, float]:
    """pi/2 = P1 + P2 + P3 + d with P1, P2 of 30 significant bits, P3 the
    double nearest the rest, and |d| <= the fourth value."""
    with mpmath.workprec(320):
        rest = mpmath.pi / 2
        parts = []
        for _ in range(2):
            scale = mpmath.mpf(2) ** (29 - int(mpmath.floor(mpmath.log(rest, 2))))
            part = mpmath.floor(rest * scale) / scale
            parts.append(float(part))  # 30 bits: exact
            rest -= part
        parts.append(float(rest))
        rest -= parts[-1]
        return parts[0], parts[1], parts[2], float_up(abs(rest)._mpf_)


_P1, _P2, _P3, _P_ERR = _cody_waite_parts()
_PARTS = np.array([[_P1], [_P2], [_P3]])
_COS = [float(Fraction((-1) ** j, math.factorial(2 * j))) for j in range(9)]
_SIN = [float(Fraction((-1) ** j, math.factorial(2 * j + 1))) for j in range(9)]
# one (cos_j, sin_j) column per Horner step, from degree 8 in r*r down
_HORNER = np.array([_COS[::-1], _SIN[::-1]]).T[:, :, None]
_QUADRANT = np.array([[0.0], [1.0]])


def _poly_err() -> float:
    """gamma_32 * cosh(0.8) + 0.8^18 / 18!: Horner rounding (coefficients,
    r*r and 2 x 8 steps, Higham's gamma_n) plus the Taylor remainder."""
    with mpmath.workprec(64):
        gamma = 32 * mpmath.mpf(_U) / (1 - 32 * mpmath.mpf(_U))
        r = mpmath.mpf("0.8")
        bound = gamma * mpmath.cosh(r) + r**18 / mpmath.factorial(18)
        return float_up((bound * (1 + mpmath.mpf(2) ** -20))._mpf_)


_POLY_ERR = _poly_err()


def cos_sin(x, arg_err=0.0):
    """Enclose cos and sin of a float array without calling libm.

    Returns ``(cs, pads)``, two arrays of shape (2, *x.shape): rows
    (c, s) and (pad_c, pad_s) with |cos(y) - c| <= pad_c and
    |sin(y) - s| <= pad_s for every real y with |y - x| <= arg_err,
    elementwise. ``arg_err`` is the caller's argument error, a float or an
    array of x's shape, for example |t| * width(alpha) plus the rounding of
    ``alpha * t``.

    Reduction range: |x| <= 2^22. There k = rint(x * 2/pi) has at most 22
    bits, so k * P1 and k * P2 are exact (P1, P2 carry 30 bits of pi/2),
    and x - k * P1 is exact by Sterbenz's lemma; the remainder
    r = x - k (P1 + P2 + P3) lies in |r| <= 0.8. Outside that range (and
    for non-finite x) the result is the trivial enclosure c = s = 0 with
    pads 1; callers evaluate such points another way.

    Pad budget, term by term (Cody-Waite reduction as in Muller,
    *Elementary Functions*; Horner error as in Higham, *Accuracy and
    Stability of Numerical Algorithms*). The error ``e`` of c and s as
    values at x itself is the sum of

    - reduction: |k| * |pi/2 - P1 - P2 - P3| for the split of pi/2, plus
      2^-52 (|x - k P1 - k P2| + |k P3| + |r|) for the three rounded
      operations that form r;
    - polynomial: degree 16 (cos) and 17 (sin) Taylor polynomials in r,
      Horner in r*r, rounding <= gamma_32 cosh(0.8), remainder
      <= 0.8^18 / 18!. The two polynomials run as one chain over the
      stacked rows (cos, sin), one coefficient per row and step, so each
      element still takes the same 2 x 8 rounded operations (a product
      and a sum per step) as a chain of its own, and the bound holds
      unchanged. The quadrant k mod 4 then picks each result from the
      rows (c, s, -c, -s), which is exact.

    The argument error d = ``arg_err`` then enters by Taylor's theorem:
    pad_c = e + (|s| + e) d + d^2 / 2 and pad_s = e + (|c| + e) d + d^2 / 2,
    so near a zero of sin (a resonance) cos pays d only to second order.
    Each pad is inflated by 2^-50 to cover its own rounding.

    Fallback rule of the branch-and-bound in ``spectral``: a point or cell
    goes to the mpmath interval evaluation only when its argument leaves
    the reduction range, or when this kernel's own error (everything but
    the width of alpha's enclosure, which mpmath pays too) is what blocks
    the decision. Every float a bracket reports is rounded outward, through
    ``float_down``/``float_up`` or one ``nextafter`` per float operation.
    """
    x = np.asarray(x, dtype=float)
    shape, x, d = x.shape, x.ravel(), np.ravel(arg_err)
    ok = np.abs(x) <= REDUCTION_RANGE
    every = ok.all()
    if not every:
        x = np.where(ok, x, 0.0)
    k = np.rint(x * (2 / math.pi))
    # rows k P1, k P2, k P3, then t2 = x - k P1 - k P2, r = t2 - k P3, k P3
    kp = k * _PARTS
    t2, r, p3 = kp
    np.subtract(x, t2, out=t2)
    t2 -= r
    np.subtract(t2, p3, out=r)
    z = r * r
    # rows c, s, -c, -s; one Horner chain runs on the first two
    g = np.empty((4, x.size))
    cs = g[:2]
    np.multiply(_HORNER[0], z, out=cs)
    for coef in _HORNER[1:-1]:
        cs += coef
        cs *= z
    cs += _HORNER[-1]
    cs[1] *= r
    np.negative(cs, out=g[2:])
    # quadrant k mod 4: cos is row -k of g, sin row 1 - k (mod 4)
    cs = g[(_QUADRANT - k).astype(np.intp) & 3, np.arange(x.size)]
    a = np.abs(kp)  # |t2|, |r|, |k P3|
    e = np.abs(k) * _P_ERR + 2.0**-52 * (a[0] + a[2] + a[1]) + _POLY_ERR
    tail = e + 0.5 * d * d
    pads = (tail + (np.abs(cs[::-1]) + e) * d) * (1 + 2.0**-50)  # |s| for cos, |c| for sin
    if not every:
        cs, pads = np.where(ok, cs, 0.0), np.where(ok, pads, 1.0)
    return cs.reshape((2, *shape)), pads.reshape((2, *shape))

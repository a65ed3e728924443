"""Construct numbers alpha = [1; a_1, a_2, ...] realizing a decay target.

The recursion a_n = 2*ceil(1 / (sqrt(f(pi q_{n-1})) q_{n-1})) is evaluated
with certified interval arithmetic so each ceiling is provably correct: on
mpmath's outward-rounded ``libmpi`` tuples, by ``DecayTarget.evaluator``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mpmath.libmp import (mpf_add, mpf_e, mpf_neg, mpi_add, mpi_div, mpi_exp, mpi_log,
                          mpi_mul, mpi_pow, mpi_sub, round_ceiling, round_floor,
                          round_nearest, to_float, to_int)

from .contfrac import ConvergentTable, RuleQuotients, expand
from .errors import InsufficientPrecision, ValidationError, VerificationFailed
from .intervals import enclose, enclose_pi


def _json_number(x: Fraction) -> float | str:
    """x as a JSON float when that float reads back as exactly x (the way
    ``target_from_json`` reads it), else as the exact string "n/d"."""
    try:
        f = float(x)
    except OverflowError:
        return str(x)
    return f if Fraction(repr(f)) == x else str(x)


class DecayTarget:
    """A positive, decreasing target function f on (0, infinity)."""

    def evaluator(self, prec: int) -> Callable[[int], tuple]:
        """q -> the libmpi interval of 1 / (sqrt(f(pi*q)) * q), rounded
        outward at prec bits. Built once per target and precision, so pi and the
        target's constants are enclosed here, not per q."""
        pi, g = enclose_pi(prec), self._inv_sqrt_f(prec)

        def x(q: int) -> tuple:
            qi = enclose(q, prec)
            return mpi_div(g(mpi_mul(pi, qi, prec)), qi, prec)

        return x

    def _inv_sqrt_f(self, prec: int) -> Callable[[tuple], tuple]:
        """The interval t -> 1 / sqrt(f(t)) at prec bits: the one formula of f."""
        raise NotImplementedError

    def log_value(self, t: float) -> float:
        """log f(t), the float nearest the midpoint of the interval formula at
        128 bits, so immune to float under/overflow of f itself; inf for
        t <= 0, ValidationError for a t that is not finite."""
        if t <= 0:
            return math.inf
        if not math.isfinite(t):
            raise ValidationError(f"log f needs a finite t, not {t!r}")
        lo, hi = mpi_log(self._inv_sqrt_f(128)(enclose(t, 128)), 128)
        return to_float(mpf_neg(mpf_add(lo, hi)), rnd=round_nearest)  # -2 * midpoint

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ExpDecay(DecayTarget):
    """f(t) = exp(-beta t)."""

    beta: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.beta <= 0:
            raise ValidationError("beta must be positive")

    def _inv_sqrt_f(self, prec: int) -> Callable[[tuple], tuple]:
        half_beta = enclose(self.beta / 2, prec)
        return lambda t: mpi_exp(mpi_mul(half_beta, t, prec), prec)

    def to_json(self) -> dict:
        return {"kind": "exp", "beta": _json_number(self.beta)}


@dataclass(frozen=True)
class PowerLog(DecayTarget):
    """f(t) = t^-p * (log(e + t))^-s."""

    p: Fraction
    s: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "s", Fraction(self.s))
        if self.p <= 0 or self.s < 0:
            raise ValidationError("need p > 0 and s >= 0")

    def _inv_sqrt_f(self, prec: int) -> Callable[[tuple], tuple]:
        e = mpf_e(prec, round_floor), mpf_e(prec, round_ceiling)
        hp, hs = enclose(self.p / 2, prec), enclose(self.s / 2, prec)
        if self.s == 0:
            return lambda t: mpi_pow(t, hp, prec)
        return lambda t: mpi_mul(mpi_pow(t, hp, prec), mpi_pow(
            mpi_log(mpi_add(e, t, prec), prec), hs, prec), prec)

    def to_json(self) -> dict:
        return {"kind": "powerlog", "p": _json_number(self.p), "s": _json_number(self.s)}


@dataclass(frozen=True)
class Tabulated(DecayTarget):
    """Sampled (t, f) points with log-linear interpolation in between and
    log-linear extrapolation of the final segment beyond the last point.
    ValidationError when built from a table that is not positive and
    strictly decreasing at strictly increasing abscissae."""

    pts: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, pts):
        norm = tuple((Fraction(t), Fraction(v)) for t, v in pts)
        object.__setattr__(self, "pts", norm)
        if len(norm) < 2:
            raise ValidationError("need at least two sample points")
        ts, vs = zip(*norm)
        if any(v <= 0 for v in vs):
            raise ValidationError("tabulated f must be positive")
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValidationError("sample abscissae must increase")
        if any(v2 >= v1 for v1, v2 in zip(vs, vs[1:])):
            raise ValidationError("tabulated f must be decreasing")

    def _segment(self, t: float):
        ts = [float(x) for x, _ in self.pts]
        i = max(0, min(len(ts) - 2, sum(1 for x in ts if x <= t) - 1))
        (t0, f0), (t1, f1) = self.pts[i], self.pts[i + 1]
        return float(t0), float(f0), float(t1), float(f1)

    def _inv_sqrt_f(self, prec: int) -> Callable[[tuple], tuple]:
        one, neg_half = enclose(1, prec), enclose(Fraction(-1, 2), prec)

        def g(t) -> tuple:
            # the float knots and float t1 - t0 enter exactly; a t past the
            # float range reads as inf, which selects the last segment
            t0, f0, t1, f1 = self._segment(to_float(t[0]))
            theta = mpi_div(mpi_sub(t, enclose(t0, prec), prec), enclose(t1 - t0, prec), prec)
            log0, log1 = (mpi_log(enclose(f, prec), prec) for f in (f0, f1))
            logf = mpi_add(mpi_mul(mpi_sub(one, theta, prec), log0, prec),
                           mpi_mul(theta, log1, prec), prec)
            return mpi_exp(mpi_mul(logf, neg_half, prec), prec)

        return g

    def to_json(self) -> dict:
        return {
            "kind": "table",
            "pts": [[_json_number(t), _json_number(v)] for t, v in self.pts],
        }


def target_from_json(obj: dict | str) -> DecayTarget:
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj["kind"]
    if kind == "exp":
        return ExpDecay(beta=Fraction(str(obj["beta"])))
    if kind == "powerlog":
        return PowerLog(p=Fraction(str(obj["p"])), s=Fraction(str(obj.get("s", 0))))
    if kind == "table":
        return Tabulated([(Fraction(str(t)), Fraction(str(v))) for t, v in obj["pts"]])
    raise ValidationError(f"unknown decay target kind {kind!r}")


def _certified_ceil(evaluator: Callable, q: int, bit_budget: int, x64) -> int:
    """ceil(1/(sqrt(f(pi q)) q)) with a provably correct ceiling.

    ``x64`` is ``evaluator(64)(q)``, the first attempt. A ceiling needs the
    value's size in bits before the fraction: the next attempt takes the
    size of x64's lower end plus a 64-bit guard, then the precision doubles.
    """
    prec, (lo, hi) = 64, x64
    size = lo[2] + lo[3] if lo[1] and not lo[0] else 0  # lo < 2^size
    while prec <= 4 * bit_budget:
        if prec > 64:
            lo, hi = evaluator(prec)(q)
        # decided when the endpoints share a ceiling and lo is no integer (a
        # nonzero normalized mpf is one exactly when its exponent is >= 0)
        c = to_int(lo, round_ceiling)
        if c == to_int(hi, round_ceiling) and lo[1] and lo[2] < 0:
            return int(c)
        prec = max(2 * prec, size + 64)
    raise InsufficientPrecision(
        f"enclosure of 1/(sqrt(f(pi*{q}))*{q}) straddles an integer at "
        f"{4 * bit_budget} bits"
    )


def _quotients_for(target: DecayTarget, bit_budget: int) -> list[int]:
    evaluator = functools.cache(target.evaluator)  # built once per precision
    quotients = [1]
    q_prev2, q_prev = 0, 1  # q_{-1} = 0, q_0 = 1
    while True:
        # Cheap lower bound on the next quotient: if even that already
        # blows the budget, stop before attempting a certified ceiling.
        x = evaluator(64)(q_prev)
        sign, man, exp, bc = x[0]  # x >= 2^(exp + bc - 1), read without forming an int
        if man and not sign and exp + bc + q_prev.bit_length() > bit_budget:
            break
        a = 2 * _certified_ceil(evaluator, q_prev, bit_budget, x)
        q_new = a * q_prev + q_prev2
        if q_new.bit_length() > bit_budget:
            break
        quotients.append(a)
        q_prev2, q_prev = q_prev, q_new
    if len(quotients) < 2:
        raise ValidationError("bit budget too small for even one quotient")
    return quotients


def _construction_quotients(params: dict) -> tuple[int, ...]:
    """The quotients of a "construction" ``RuleQuotients`` read from JSON."""
    try:
        target = target_from_json(params["target"])
        return tuple(_quotients_for(target, params.get("bit_budget", 4096)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"construction rule parameters {params!r}: {exc!r}") from None


@dataclass(frozen=True)
class ConstructedAlpha:
    spec: RuleQuotients
    table: ConvergentTable
    target: DecayTarget
    bit_budget: int

    @property
    def depth(self) -> int:
        return len(self.table) - 1

    @property
    def q_last(self) -> int:
        return self.table.convergents[-1].q

    def header_json(self) -> str:
        return json.dumps(
            {
                "f": self.target.to_json(),
                "bit_budget": self.bit_budget,
                "depth": self.depth,
            }
        )


def construct(target: DecayTarget, bit_budget: int = 4096) -> ConstructedAlpha:
    """Build alpha = [1; a_1, a_2, ...] with a_n from the exact recursion,
    extending until the next denominator would exceed the bit budget.
    """
    if bit_budget < 64:
        raise ValidationError("bit_budget must be >= 64")
    quotients = _quotients_for(target, bit_budget)
    # a spec rebuilt from its JSON recomputes the same quotients
    spec = RuleQuotients(params={"target": target.to_json(), "bit_budget": bit_budget},
                         _quotients=tuple(quotients))
    table = expand(spec, len(quotients) - 1)
    if not all(a % 2 == 0 and a >= 2 for a in table.quotients[1:]):
        raise VerificationFailed("constructed quotients are not all even and >= 2")
    return ConstructedAlpha(spec=spec, table=table, target=target, bit_budget=bit_budget)

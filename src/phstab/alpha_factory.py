"""Construct numbers alpha = [1; a_1, a_2, ...] realizing a decay target.

The recursion a_n = 2*ceil(1 / (sqrt(f(pi q_{n-1})) q_{n-1})) is evaluated
with certified interval arithmetic so each ceiling is provably correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import iv

from .contfrac import ConvergentTable, RuleQuotients, expand
from .errors import (
    CeilingUndecidable,
    MonotonicityViolation,
    TableExhausted,
    ValidationError,
    VerificationFailed,
)
from .intervals import fraction_bounds, iv_from_fraction, workprec


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

    def inv_sqrt_f_over_q(self, q: int):
        """Interval enclosure of 1 / (sqrt(f(pi*q)) * q) at current iv.prec."""
        raise NotImplementedError

    def log_value(self, t: float) -> float:
        """log f(t); immune to float under/overflow of f itself."""
        raise NotImplementedError

    def validate(self) -> None:
        pass

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ExpDecay(DecayTarget):
    """f(t) = exp(-beta t)."""

    beta: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def inv_sqrt_f_over_q(self, q: int):
        b = iv_from_fraction(self.beta)
        return iv.exp(b * iv.pi * q / 2) / q

    def log_value(self, t: float) -> float:
        if t <= 0:
            return math.inf
        return -float(self.beta) * t

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
            raise ValueError("need p > 0 and s >= 0")

    def inv_sqrt_f_over_q(self, q: int):
        t = iv.pi * q
        x = t ** iv_from_fraction(self.p / 2)
        if self.s != 0:
            x = x * iv.log(iv.e + t) ** iv_from_fraction(self.s / 2)
        return x / q

    def log_value(self, t: float) -> float:
        if t <= 0:
            return math.inf
        return -float(self.p) * math.log(t) - float(self.s) * math.log(
            math.log(math.e + t)
        )

    def to_json(self) -> dict:
        return {"kind": "powerlog", "p": _json_number(self.p), "s": _json_number(self.s)}


@dataclass(frozen=True)
class Tabulated(DecayTarget):
    """Sampled (t, f) points with log-linear interpolation in between and
    log-linear extrapolation of the final segment beyond the last point."""

    pts: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, pts):
        norm = tuple((Fraction(t), Fraction(v)) for t, v in pts)
        object.__setattr__(self, "pts", norm)
        if len(norm) < 2:
            raise ValueError("need at least two sample points")

    def validate(self) -> None:
        ts = [t for t, _ in self.pts]
        vs = [v for _, v in self.pts]
        if any(v <= 0 for v in vs):
            raise MonotonicityViolation("tabulated f must be positive")
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise MonotonicityViolation("sample abscissae must increase")
        if any(v2 >= v1 for v1, v2 in zip(vs, vs[1:])):
            raise MonotonicityViolation("tabulated f must be decreasing")

    def _segment(self, t: float):
        ts = [float(x) for x, _ in self.pts]
        i = max(0, min(len(ts) - 2, sum(1 for x in ts if x <= t) - 1))
        (t0, f0), (t1, f1) = self.pts[i], self.pts[i + 1]
        return float(t0), float(f0), float(t1), float(f1)

    def log_value(self, t: float) -> float:
        if t <= 0:
            return math.inf
        t0, f0, t1, f1 = self._segment(t)
        theta = (t - t0) / (t1 - t0)
        return (1 - theta) * math.log(f0) + theta * math.log(f1)

    def inv_sqrt_f_over_q(self, q: int):
        t = float(iv.pi.mid) * q
        t0, f0, t1, f1 = self._segment(t)
        # interval form of the log-linear interpolant
        ti = iv.pi * q
        theta = (ti - t0) / (t1 - t0)
        logf = (1 - theta) * iv.log(iv.mpf(f0)) + theta * iv.log(iv.mpf(f1))
        return iv.exp(-logf / 2) / q

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
    raise ValueError(f"unknown decay target kind {kind!r}")


def _bits_floor_lower(x_iv) -> int:
    """Lower bound on bit_length(floor(lower endpoint of x_iv)).

    Works straight off the mantissa/exponent pair, so it is safe even when
    the endpoint is astronomically large.
    """
    sign, man, exp, bc = x_iv._mpi_[0]
    if man == 0 or sign:
        return 0
    return max(int(exp) + int(bc), 0)


def _certified_ceil(target: DecayTarget, q: int, bit_budget: int, x64) -> int:
    """ceil(1/(sqrt(f(pi q)) q)) with a provably correct ceiling.

    ``x64`` is target.inv_sqrt_f_over_q(q) evaluated at 64 bits, the
    first attempt; the precision doubles from there.
    """
    prec, x = 64, x64
    while prec <= 4 * bit_budget:
        if prec > 64:
            with workprec(prec):
                x = target.inv_sqrt_f_over_q(q)
        lo, hi = fraction_bounds(x)
        clo, chi = math.ceil(lo), math.ceil(hi)
        if clo == chi and lo != clo:
            return int(clo)
        prec *= 2
    raise CeilingUndecidable(
        f"enclosure of 1/(sqrt(f(pi*{q}))*{q}) straddles an integer at "
        f"{4 * bit_budget} bits"
    )


def _quotients_for(target: DecayTarget, bit_budget: int) -> list[int]:
    quotients = [1]
    q_prev2, q_prev = 0, 1  # q_{-1} = 0, q_0 = 1
    while True:
        # Cheap lower bound on the next quotient: if even that already
        # blows the budget, stop before attempting a certified ceiling.
        with workprec(64):
            x = target.inv_sqrt_f_over_q(q_prev)
        if _bits_floor_lower(x) + q_prev.bit_length() > bit_budget:
            break
        a = 2 * _certified_ceil(target, q_prev, bit_budget, x)
        q_new = a * q_prev + q_prev2
        if q_new.bit_length() > bit_budget:
            break
        quotients.append(int(a))
        q_prev2, q_prev = q_prev, q_new
    if len(quotients) < 2:
        raise ValueError("bit budget too small for even one quotient")
    return quotients


def _table_rule(quotients: list[int], bit_budget: int):
    """Quotient rule serving a computed construction."""

    def gen(n: int) -> int:
        if n >= len(quotients):
            raise TableExhausted(
                f"construction depth {len(quotients) - 1} reached "
                f"(bit budget {bit_budget})"
            )
        return quotients[n]

    return gen


def _construction_rule(params: dict):
    """The generator of a "construction" ``RuleQuotients`` read from JSON."""
    try:
        target = target_from_json(params["target"])
        target.validate()
        budget = params.get("bit_budget", 4096)
        return _table_rule(_quotients_for(target, budget), budget)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"construction rule parameters {params!r}: {exc!r}") from None


@dataclass(frozen=True)
class ConstructedAlpha:
    spec: RuleQuotients
    table: ConvergentTable
    target: DecayTarget
    bit_budget: int
    depth: int = field(default=0)

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
        raise ValueError("bit_budget must be >= 64")
    target.validate()
    params = {"target": target.to_json(), "bit_budget": bit_budget}
    quotients = _quotients_for(target, bit_budget)
    # The spec carries the computed quotients; a spec rebuilt from its JSON
    # recomputes the same ones through _construction_rule.
    spec = RuleQuotients(
        name="construction",
        params=params,
        bit_budget=2 * bit_budget,
        _gen=_table_rule(quotients, bit_budget),
    )
    table = expand(spec, len(quotients) - 1)
    if not all(a % 2 == 0 and a >= 2 for a in table.quotients[1:]):
        raise VerificationFailed("constructed quotients are not all even and >= 2")
    return ConstructedAlpha(
        spec=spec,
        table=table,
        target=target,
        bit_budget=bit_budget,
        depth=len(quotients) - 1,
    )

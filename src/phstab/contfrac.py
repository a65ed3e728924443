"""Arbitrary-precision continued-fraction engine.

Quotient expansion, convergent tables, the classical convergent bounds,
best-approximation brute force, and certified rational enclosures of the
represented number. All quotients and convergents are Python big
integers; all enclosures are exact Fractions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .errors import InsufficientPrecision, TableExhausted
from .intervals import RealBall

_PRECISION_CAP = 1 << 22  # hard stop for adaptive refinement loops
_T = TypeVar("_T")


class IrrationalSpec:
    """Exact, precision-extendable description of a positive real number."""

    def quotient_iter(self) -> Iterator[int]:
        raise NotImplementedError

    def enclosure(self, bits: int) -> RealBall:
        """Rational enclosure with error <= 2**-bits or, for a source whose
        precision is capped (finite rule depth, fixed digit string), the
        narrowest enclosure it has. Error 0 means the source is exact."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class QuadraticSurd(IrrationalSpec):
    """The number (p + sqrt(D)) / q with D a positive non-square integer."""

    D: int
    p: int = 0
    q: int = 1

    def __post_init__(self):
        if self.D <= 0 or isqrt(self.D) ** 2 == self.D:
            raise ValueError("D must be a positive non-square integer")
        if self.q == 0:
            raise ValueError("q must be nonzero")
        if self.enclosure(16).upper <= 0:
            raise ValueError("represented value must be positive")

    def quotient_iter(self) -> Iterator[int]:
        # Exact periodic algorithm on (P + sqrt(D))/Q, maintaining Q | D - P^2.
        P, Q, D = self.p, self.q, self.D
        if (D - P * P) % Q != 0:
            P *= abs(Q)
            D *= Q * Q
            Q *= abs(Q)
        while True:
            s = isqrt(D)
            if Q > 0:
                a = (P + s) // Q
            else:
                a = -((P + s) // (-Q)) - 1
            yield a
            P = a * Q - P
            Q = (D - P * P) // Q

    def enclosure(self, bits: int) -> RealBall:
        # sqrt(D) in [s, s + 1] / 2^k, so the value lies between
        # (p 2^k + s) / (q 2^k) and (p 2^k + s + 1) / (q 2^k)
        k = bits + 4 + max(self.q.bit_length(), abs(self.p).bit_length())
        s = isqrt(self.D << (2 * k))
        return RealBall(Fraction((((self.p << k) + s) << 1) + 1, self.q << (k + 1)),
                        Fraction(1, abs(self.q) << (k + 1)))

    def to_json(self) -> dict:
        return {"kind": "surd", "D": self.D, "p": self.p, "q": self.q}


@dataclass(frozen=True)
class ExplicitQuotients(IrrationalSpec):
    """A finite quotient list; represents the exact rational [a0; a1, ...]."""

    a: tuple[int, ...]

    def __init__(self, a):
        object.__setattr__(self, "a", tuple(int(x) for x in a))
        if not self.a:
            raise ValueError("quotient list must be nonempty")
        if any(x < 1 for x in self.a[1:]):
            raise ValueError("quotients a_n must be >= 1 for n >= 1")
        if self.value() <= 0:
            raise ValueError("represented value must be positive")

    def value(self) -> Fraction:
        v = Fraction(self.a[-1])
        for x in reversed(self.a[:-1]):
            v = x + 1 / v
        return v

    def quotient_iter(self) -> Iterator[int]:
        return iter(self.a)

    def enclosure(self, bits: int) -> RealBall:
        return RealBall(self.value(), Fraction(0))

    def to_json(self) -> dict:
        return {"kind": "quotients", "a": list(self.a)}


@dataclass(frozen=True)
class RuleQuotients(IrrationalSpec):
    """The quotient prefix a named rule computes; the one rule is
    "construction", the recursion of :mod:`phstab.alpha_factory`, cut where
    the next denominator would pass its bit budget. ``construct`` hands the
    prefix in; a spec read from JSON computes it on first use. Past the
    prefix the quotients are unknown, as past a ``DecimalLiteral``'s
    digits: asking for one raises TableExhausted."""

    name: str
    params: dict = field(default_factory=dict)
    _quotients: Optional[tuple[int, ...]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.name != "construction":
            raise ValueError(f"unknown quotient rule {self.name!r}")

    @property
    def quotients(self) -> tuple[int, ...]:
        if self._quotients is None:
            from .alpha_factory import _construction_quotients  # a circular import

            object.__setattr__(self, "_quotients", _construction_quotients(self.params))
        return self._quotients

    def quotient_iter(self) -> Iterator[int]:
        yield from self.quotients
        depth = len(self.quotients) - 1
        raise TableExhausted(
            f"construction depth {depth} reached: a_{depth + 1} is past its bit budget")

    def enclosure(self, bits: int) -> RealBall:
        # alpha lies between consecutive convergents, 1/(q0 q1) apart; the
        # first such pair within 2^-bits, else the last (the widest it has)
        for (p0, q0), (p1, q1) in pairwise(_convergents(self.quotients)):
            if (q0 * q1) >> bits:
                break
        lo, hi = sorted((_coprime(p0, q0), _coprime(p1, q1)))
        return RealBall.from_bounds(lo, hi)

    def to_json(self) -> dict:
        return {"kind": "rule", "name": self.name, "f": self.params}


@dataclass(frozen=True)
class DecimalLiteral(IrrationalSpec):
    """A decimal digit string correct to a guaranteed number of bits."""

    digits: str
    bits: int

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("guaranteed bit count must be >= 1")
        if self._value() <= 0:
            raise ValueError("represented value must be positive")

    def _value(self) -> Fraction:
        return Fraction(self.digits)

    def quotient_iter(self) -> Iterator[int]:
        # Interval continued fraction: emit quotients only while both
        # endpoints of the enclosure agree on the floor.
        ball = self.enclosure(self.bits)
        lo, hi = ball.lower, ball.upper
        while math.floor(lo) == math.floor(hi):
            a = math.floor(lo)
            yield a
            if lo == a:  # the enclosure holds the rational a
                break
            lo, hi = 1 / (hi - a), 1 / (lo - a)
        raise InsufficientPrecision("quotient not determined by the guaranteed digits")

    def enclosure(self, bits: int) -> RealBall:
        return RealBall(self._value(), Fraction(1, 1 << self.bits))

    def to_json(self) -> dict:
        return {"kind": "decimal", "digits": self.digits, "bits": self.bits}


SQRT2 = QuadraticSurd(D=2)
GOLDEN = QuadraticSurd(D=5, p=1, q=2)


def spec_from_json(obj: dict | str) -> IrrationalSpec:
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj["kind"]
    if kind == "surd":
        return QuadraticSurd(D=obj["D"], p=obj.get("p", 0), q=obj.get("q", 1))
    if kind == "quotients":
        return ExplicitQuotients(obj["a"])
    if kind == "rule":  # RuleQuotients rejects a rule name it does not know;
        # a spec-level "bit_budget", which older files carry, is ignored
        return RuleQuotients(name=obj["name"], params=obj.get("f", {}))
    if kind == "decimal":
        return DecimalLiteral(digits=obj["digits"], bits=obj["bits"])
    raise ValueError(f"unknown spec kind {kind!r}")


def _convergents(quotients: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(p_n, q_n) = a_n (p, q)_{n-1} + (p, q)_{n-2}, from (p, q)_{-1} = (1, 0)
    and (p, q)_{-2} = (0, 1)."""
    p1, p2, q1, q2 = 1, 0, 0, 1
    for a in quotients:
        p1, p2, q1, q2 = a * p1 + p2, p1, a * q1 + q2, q1
        yield p1, q1


@dataclass(frozen=True)
class Convergent:
    n: int
    p: int
    q: int

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("q must be positive")

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


@dataclass(frozen=True)
class ConvergentTable:
    """Invariant, checked on construction: the convergents are the
    ``_convergents`` of the quotients. Hence p_n q_{n-1} - p_{n-1} q_n = +-1,
    and every p_n/q_n is in lowest terms."""

    source: IrrationalSpec
    quotients: tuple[int, ...]
    convergents: tuple[Convergent, ...]
    terminated: bool = False

    def __post_init__(self):
        pqs = _convergents(self.quotients)
        if len(self.quotients) != len(self.convergents) or any(
                (c.p, c.q) != pq for c, pq in zip(self.convergents, pqs)):
            raise ValueError("the convergents do not follow the quotients")

    def __len__(self) -> int:
        return len(self.convergents)

    def check_identity(self) -> bool:
        """p_n q_{n+1} - p_{n+1} q_n = (-1)^{n+1}, exactly."""
        for n in range(len(self) - 1):
            c0, c1 = self.convergents[n], self.convergents[n + 1]
            if c0.p * c1.q - c1.p * c0.q != (-1) ** (n + 1):
                return False
        return True

    def to_csv(self) -> str:
        lines = ["n,a_n,p_n,q_n"]
        for n, (a, c) in enumerate(zip(self.quotients, self.convergents)):
            lines.append(f"{n},{a},{c.p},{c.q}")
        return "\n".join(lines) + "\n"


def expand(alpha: IrrationalSpec, n: int) -> ConvergentTable:
    """First n+1 quotients and convergents of alpha.

    Rational input terminates early; the returned table is shorter and
    flagged instead of raising. A source that cannot give a quotient
    raises: a ``DecimalLiteral`` past its digits InsufficientPrecision, a
    ``RuleQuotients`` past its depth TableExhausted.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    quotients: list[int] = []
    it = alpha.quotient_iter()
    terminated = False
    for k in range(n + 1):
        try:
            a = next(it)
        except StopIteration:
            terminated = True
            break
        if k >= 1 and a < 1:
            raise ValueError(f"a_{k} = {a} violates a_n >= 1")
        quotients.append(a)
    return ConvergentTable(
        source=alpha,
        quotients=tuple(quotients),
        convergents=tuple(Convergent(k, p, q) for k, (p, q) in enumerate(_convergents(quotients))),
        terminated=terminated,
    )


@dataclass(frozen=True)
class BoundReport:
    n: int
    lower_margin: Fraction
    upper_margin: Fraction

    @property
    def passed(self) -> bool:
        return self.lower_margin > 0 and self.upper_margin > 0


def check_bounds(table: ConvergentTable, bits: int = 0) -> list[BoundReport]:
    """Verify 1/((a_{n+1}+2) q_n^2) < |alpha - p_n/q_n| < 1/(a_{n+1} q_n^2)
    for every n with a successor, in exact rational arithmetic.

    The enclosure precision starts at ``bits`` (default 4 bits(q_N) + 64)
    and doubles until every n is decided. A precision-capped source (a
    finite rule, a digit string) is judged on its widest enclosure; only
    when even that leaves some n undecided does it raise.
    """
    if len(table) < 2:
        raise ValueError("table needs at least 2 entries")
    need = bits or 4 * table.convergents[-1].q.bit_length() + 64
    return _refine(table.source, need,
                   lambda ball: _bound_reports(table, ball.lower, ball.upper),
                   "convergent bounds")


def _bound_reports(
    table: ConvergentTable, lo: Fraction, hi: Fraction
) -> Optional[list[BoundReport]]:
    """The reports of ``check_bounds`` for alpha in [lo, hi], or None if
    [lo, hi] is too wide to decide some n.

    Each endpoint x = x_num/x_den gives one integer e = x_num q - p x_den,
    so |x - p/q| = |e|/(x_den q); the table's invariant gives it by the
    recurrence e_n = a_n e_{n-1} + e_{n-2} from e_{-1} = -x_den, e_{-2} =
    x_num. Its sign is the side of p/q: p/q < lo when e_lo > 0, hi < p/q
    when e_hi < 0, and then d_lo and d_hi are the distances of the near and
    the far endpoint. Against a bound 1/(k q^2), k = a+2 (lb) or a (ub), the
    distance d of an endpoint differs by

        d - 1/(k q^2) = (k q |e| - x_den) / (x_den k q^2),

    so n is decided on the sign of k q |e| - x_den: it passes when
    d_lo > lb and d_hi < ub (margins d_lo - lb, ub - d_hi) and fails when
    d_hi <= lb or d_lo >= ub (margins d_hi - lb, ub - d_lo). Only the two
    reported margins are reduced, by :func:`_margin`.
    """
    ln, ld = lo.numerator, lo.denominator
    hn, hd = hi.numerator, hi.denominator
    low, high = (ld, *_two_split(ld)), (hd, *_two_split(hd))
    reports: list[BoundReport] = []
    e_lo, e_lo2, e_hi, e_hi2 = -ld, ln, -hd, hn  # e_{-1}, e_{-2} of each endpoint
    for n, (c, a_n, a) in enumerate(zip(table.convergents, table.quotients,
                                        table.quotients[1:])):
        q = c.q
        e_lo, e_lo2 = a_n * e_lo + e_lo2, e_lo
        e_hi, e_hi2 = a_n * e_hi + e_hi2, e_hi
        kl, ku = (a + 2) * q, a * q
        if e_lo > 0:  # p/q < lo
            (en, near), (ef, far) = (e_lo, low), (e_hi, high)
        elif e_hi < 0:  # hi < p/q
            (en, near), (ef, far) = (-e_hi, high), (-e_lo, low)
        else:
            # p/q in [lo, hi]: d_lo = 0, so only a lower-bound failure
            # decides; d_hi is the larger of -e_lo/(ld q) and e_hi/(hd q)
            ef, far = (-e_lo, low) if -e_lo * hd > e_hi * ld else (e_hi, high)
            lower = kl * ef - far[0]  # d_hi - lb
            if lower > 0:
                return None
            reports.append(BoundReport(n, _margin(lower, *far, kl * q),
                                       _coprime(1, ku * q)))
            continue
        lower_end, upper_end = near, far
        lower, upper = kl * en - near[0], far[0] - ku * ef  # d_lo - lb, ub - d_hi
        if lower <= 0 or upper <= 0:  # not a pass
            lower_end, upper_end = far, near
            lower, upper = kl * ef - far[0], near[0] - ku * en  # d_hi - lb, ub - d_lo
            if lower > 0 and upper > 0:
                return None
        reports.append(BoundReport(n, _margin(lower, *lower_end, kl * q),
                                   _margin(upper, *upper_end, ku * q)))
    return reports


# A Fraction from a numerator and a positive denominator already coprime,
# built without a second gcd.
_coprime = getattr(Fraction, "_from_coprime_ints", None) or (  # Python >= 3.12
    lambda n, d: Fraction(n, d, _normalize=False))  # Python 3.10-3.11


def _two_split(d: int) -> tuple[int, int]:
    """(j, r) with d = 2^j r and r odd."""
    j = (d & -d).bit_length() - 1
    return j, d >> j


def _margin(u: int, xd: int, j: int, r: int, kqq: int) -> Fraction:
    """u / (xd kqq) in lowest terms, where u = +-(k q |e| - xd) for an
    endpoint x_num/xd in lowest terms, xd = 2^j r with r odd, and
    kqq = k q^2.

    u/(xd kqq) is +-(x - y) with y = (p k q +- 1)/(k q^2), which is in
    lowest terms since every prime of k q divides p k q. Knuth's gcd-first
    subtraction (TAOCP vol. 2, 4.5.1) then reduces it with g =
    gcd(xd, kqq) and gcd(u/g, g) alone; u = 0 comes out as 0/1, since then
    x = y and xd = kqq = g. g is taken as gcd(r, kqq mod r) 2^min(j,
    v2(kqq)), so both gcds are small whenever r is, as for a surd's q 2^k
    and a decimal's 2^a 5^b denominators.
    """
    g = gcd(r, kqq % r) << min(j, (kqq & -kqq).bit_length() - 1)
    if g == 1:
        return _coprime(u, xd * kqq)
    t = u // g
    d2 = gcd(g, t % g)
    return _coprime(t // d2, xd // g * (kqq // d2))


def best_approx_check(table: ConvergentTable, qmax: int) -> bool:
    """Brute-force the best-approximation property up to denominator qmax.

    For each n with q_{n+1} <= qmax + 1, confirms that no 0 < q < q_{n+1}
    has min_p |q alpha - p| < |q_n alpha - p_n|.
    """
    if qmax > 10**5:
        raise ValueError("qmax too large for exhaustive search")
    if qmax > table.convergents[-1].q:
        raise ValueError("qmax exceeds the table's last denominator")

    def decide(ball: RealBall) -> Optional[bool]:
        dist = _distance_brackets(ball, qmax)
        undecided = False
        for c in table.convergents:
            n, qn = c.n, c.q
            if n + 1 >= len(table):
                break
            qnext = table.convergents[n + 1].q
            if qnext - 1 > qmax:
                break
            dn_lo, dn_hi = dist[qn - 1]
            for q in range(1, qnext):
                if q == qn:
                    continue
                d_lo, d_hi = dist[q - 1]
                if d_hi < dn_lo:
                    return False
                if d_lo < dn_hi:
                    undecided = True
        return None if undecided else True

    return _refine(table.source, 4 * qmax.bit_length() + 96, decide,
                   "best-approximation check")


def _distance_brackets(ball: RealBall, qmax: int) -> list[tuple[int, int]]:
    """Brackets of min_p |q alpha - p| for alpha in ``ball``, q = 1..qmax.

    Every bound is an integer: the distance times the common denominator
    D of the ball's ends (``RealBall.ends``), so brackets compare as
    integers.
    """
    L, H, D = ball.ends()
    dist: list[tuple[int, int]] = []
    for q in range(1, qmax + 1):
        # nearest integer to q*alpha; with tiny enclosure widths both
        # endpoints give the same candidate set {floor, ceil}
        xlo, xhi = q * L, q * H
        cands = {xlo // D, -(-xlo // D), xhi // D, -(-xhi // D)}
        d_lo = min(max(0, xlo - p * D, p * D - xhi) for p in cands)
        d_hi = min(max(abs(xlo - p * D), abs(xhi - p * D)) for p in cands)
        dist.append((d_lo, d_hi))
    return dist


def _refine(alpha: IrrationalSpec, bits: int,
            decide: Callable[[RealBall], Optional[_T]], what: str) -> _T:
    """``decide(alpha.enclosure(bits))``, ``bits`` doubling until the answer
    is not None. Raises InsufficientPrecision, naming ``what``, when a
    precision-capped source leaves the decision open on its widest
    enclosure (one wider than 2^-bits), or before an evaluation past
    ``_PRECISION_CAP`` bits."""
    while bits <= _PRECISION_CAP:
        ball = alpha.enclosure(bits)
        answer = decide(ball)
        if answer is not None:
            return answer
        if ball.err > Fraction(1, 1 << bits):
            raise InsufficientPrecision(
                f"{what} undecided on the widest enclosure the source has "
                f"({bits} bits asked)")
        bits *= 2
    raise InsufficientPrecision(
        f"{what} undecided at the {_PRECISION_CAP}-bit refinement cap "
        f"({bits} bits asked)")

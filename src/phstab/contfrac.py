"""Arbitrary-precision continued-fraction engine.

Quotient expansion, convergent tables, the classical convergent bounds,
best-approximation brute force, and certified rational enclosures of the
represented number. All quotients and convergents are Python big
integers; all enclosures are exact Fractions.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, pairwise, starmap
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TypeVar

from .errors import InsufficientPrecision, TableExhausted, ValidationError
from .intervals import RealBall

_PRECISION_CAP = 1 << 22  # hard stop for adaptive refinement loops
_T = TypeVar("_T")


def _integer(x) -> int:
    """``operator.index(x)``, refusing a bool, which would read as 0 or 1."""
    if isinstance(x, bool):
        raise ValidationError(f"{x!r} is a boolean, not an integer")
    return operator.index(x)


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
        D, _, q = map(_integer, (self.D, self.p, self.q))  # integers only
        if D <= 0 or isqrt(D) ** 2 == D:
            raise ValidationError("D must be a positive non-square integer")
        if q == 0:
            raise ValidationError("q must be nonzero")
        if self.enclosure(16).upper <= 0:
            raise ValidationError("represented value must be positive")

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
        object.__setattr__(self, "a", tuple(map(_integer, a)))
        if not self.a:
            raise ValidationError("quotient list must be nonempty")
        if any(x < 1 for x in self.a[1:]):
            raise ValidationError("quotients a_n must be >= 1 for n >= 1")
        if self.value() <= 0:
            raise ValidationError("represented value must be positive")

    def value(self) -> Fraction:
        *_, (_, p, q) = _convergents(self.a)
        return _coprime(p, q)

    def quotient_iter(self) -> Iterator[int]:
        return iter(self.a)

    def enclosure(self, bits: int) -> RealBall:
        return RealBall(self.value(), Fraction(0))

    def to_json(self) -> dict:
        return {"kind": "quotients", "a": list(self.a)}


@dataclass(frozen=True)
class RuleQuotients(IrrationalSpec):
    """The quotient prefix the "construction" rule computes: the recursion
    of :mod:`phstab.alpha_factory`, cut where the next denominator would
    pass its bit budget. ``construct`` hands the prefix in; a spec read
    from JSON computes it on first use. Past the prefix the quotients are
    unknown, as past a ``DecimalLiteral``'s digits: asking for one raises
    TableExhausted."""

    params: dict = field(default_factory=dict)
    _quotients: Optional[tuple[int, ...]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if _integer(dict(self.params).get("bit_budget", 4096)) < 64:
            raise ValidationError("bit_budget must be >= 64, as construct requires")

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
        for (_, p0, q0), (_, p1, q1) in pairwise(_convergents(self.quotients)):
            if (q0 * q1) >> bits:
                break
        lo, hi = sorted((_coprime(p0, q0), _coprime(p1, q1)))
        return RealBall.from_bounds(lo, hi)

    def to_json(self) -> dict:
        return {"kind": "rule", "name": "construction", "f": self.params}


@dataclass(frozen=True)
class DecimalLiteral(IrrationalSpec):
    """A decimal digit string correct to a guaranteed number of bits."""

    digits: str
    bits: int

    def __post_init__(self):
        if not isinstance(self.digits, str):  # a float would be read as its binary value
            raise ValidationError(f"digits must be a string, not {self.digits!r}")
        if _integer(self.bits) < 1:
            raise ValidationError("guaranteed bit count must be >= 1")
        if self._value() <= 0:
            raise ValidationError("represented value must be positive")

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
    if kind == "rule":  # a spec-level "bit_budget", which older files carry, is ignored
        if obj["name"] != "construction":
            raise ValidationError(f"unknown quotient rule {obj['name']!r}")
        return RuleQuotients(params=obj.get("f", {}))
    if kind == "decimal":
        return DecimalLiteral(digits=obj["digits"], bits=obj["bits"])
    raise ValidationError(f"unknown spec kind {kind!r}")


def _convergents(quotients: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """(n, p_n, q_n) with (p_n, q_n) = a_n (p, q)_{n-1} + (p, q)_{n-2}, from
    (p, q)_{-1} = (1, 0) and (p, q)_{-2} = (0, 1)."""
    p1, p2, q1, q2 = 1, 0, 0, 1
    for n, a in enumerate(quotients):
        p1, p2, q1, q2 = a * p1 + p2, p1, a * q1 + q2, q1
        yield n, p1, q1


class Convergent(NamedTuple):
    n: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


@dataclass(frozen=True)
class ConvergentTable:
    """The quotients a_0..a_N and the convergents the table builds from
    them, judged against ``source``. The quotients are checked on
    construction, a_n >= 1 for n >= 1; hence p_n q_{n-1} - p_{n-1} q_n =
    +-1, every q_n >= 1, and every p_n/q_n is in lowest terms."""

    source: IrrationalSpec
    quotients: tuple[int, ...]
    terminated: bool = False
    convergents: tuple[Convergent, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if min(self.quotients[1:], default=1) < 1:
            n = next(k for k, a in enumerate(self.quotients) if k and a < 1)
            raise ValidationError(f"a_{n} = {self.quotients[n]} violates a_n >= 1")
        object.__setattr__(self, "convergents",
                           tuple(starmap(Convergent, _convergents(self.quotients))))

    def __len__(self) -> int:
        return len(self.convergents)

    def check_identity(self) -> bool:
        """p_n q_{n+1} - p_{n+1} q_n = (-1)^{n+1}, exactly."""
        sign = -1
        for c0, c1 in pairwise(self.convergents):
            if c0.p * c1.q - c1.p * c0.q != sign:
                return False
            sign = -sign
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
        raise ValidationError("n must be >= 0")
    quotients = tuple(islice(alpha.quotient_iter(), n + 1))
    return ConvergentTable(alpha, quotients, terminated=len(quotients) <= n)


class BoundReport(NamedTuple):
    n: int
    lower_margin: Fraction
    upper_margin: Fraction

    @property
    def passed(self) -> bool:
        return self.lower_margin > 0 and self.upper_margin > 0


def check_bounds(table: ConvergentTable) -> list[BoundReport]:
    """Verify 1/((a_{n+1}+2) q_n^2) < |alpha - p_n/q_n| < 1/(a_{n+1} q_n^2)
    for every n with a successor, in exact rational arithmetic.

    The enclosure precision starts at 4 bits(q_N) + 64 and doubles until
    every n is decided. A precision-capped source (a finite rule, a digit
    string) is judged on its widest enclosure; only when even that leaves
    some n undecided does it raise. A table to a construction's depth always
    does, naming n = depth - 1: alpha lies between its last two convergents.
    """
    if len(table) < 2:
        raise ValidationError("table needs at least 2 entries")
    need = 4 * table.convergents[-1].q.bit_length() + 64
    try:
        return _refine(table.source, need,
                       lambda ball: _bound_reports(table, ball.lower, ball.upper),
                       "convergent bounds")
    except InsufficientPrecision:
        src = table.source
        if not (isinstance(src, RuleQuotients) and len(src.quotients) == len(table)):
            raise
        n = len(table) - 2
        raise InsufficientPrecision(
            f"convergent bound n = {n} undecidable: a construction's last bound "
            f"cannot be decided from its widest enclosure (depth {n + 1}); the "
            f"table to a_{n} is the longest that checks") from None


def _offsets(table: ConvergentTable, lo: Fraction,
             hi: Fraction) -> Iterator[tuple[Convergent, int, int, int]]:
    """(c_n, a_{n+1}, P_lo, P_hi) for every n with a successor, where
    P = q_n e_n = q_n (X q_n - p_n Y) for an endpoint x = X/Y in lowest
    terms: P/Y = q_n^2 (x - p_n/q_n), so P > 0 when p_n/q_n < x, P < 0
    when x < p_n/q_n, and |x - p_n/q_n| = |P|/(Y q_n^2).

    q_n and e_n follow the same recurrence (the table builds q_n by it), from
    (q, e)_{-1} = (0, -Y) and (q, e)_{-2} = (1, X), so their product does
    too with T_n = q_n e_{n-1} + q_{n-1} e_n:

        P_n = a_n^2 P_{n-1} + a_n T_{n-1} + P_{n-2},
        T_n = 2 a_n P_{n-1} + T_{n-1},

    from P_{-1} = 0, P_{-2} = X and T_{-1} = -Y. Each step is a few
    additions and short multiples of Y-sized integers; no product of q_n
    with e_n is ever formed.
    """
    pl, vl, tl = 0, lo.numerator, -lo.denominator  # P_{n-1}, P_{n-2}, T_{n-1}
    ph, vh, th = 0, hi.numerator, -hi.denominator
    for c, a_n, a in zip(table.convergents, table.quotients, table.quotients[1:]):
        u, uu = a_n * pl, a_n * ph
        s, ss = u + tl, uu + th
        pl, vl, tl = a_n * s + vl, pl, s + u
        ph, vh, th = a_n * ss + vh, ph, ss + uu
        yield c, a, pl, ph


def _bound_reports(
    table: ConvergentTable, lo: Fraction, hi: Fraction
) -> Optional[list[BoundReport]]:
    """The reports of ``check_bounds`` for alpha in [lo, hi], or None if
    [lo, hi] is too wide to decide some n.

    With P = q_n e_n of each endpoint (:func:`_offsets`), p/q < lo when
    P_lo > 0 and hi < p/q when P_hi < 0, and then d_lo and d_hi are the
    distances of the near and the far endpoint x = X/Y. Against a bound
    1/(k q^2), k = a+2 (lb) or a (ub), such a distance differs by

        d - 1/(k q^2) = (k |P| - Y) / (Y k q^2),

    so n is decided on the sign of k |P| - Y, a short multiple: it passes
    when d_lo > lb and d_hi < ub (margins d_lo - lb, ub - d_hi) and fails
    when d_hi <= lb or d_lo >= ub (margins d_hi - lb, ub - d_lo). The one
    wide product of an index is q^2, shared by its two margins; only the
    reported margins are reduced, by :func:`_margin`.
    """
    ld, hd = lo.denominator, hi.denominator
    low, high = (ld, *_two_split(ld)), (hd, *_two_split(hd))
    reports: list[BoundReport] = []
    for c, a, pl, ph in _offsets(table, lo, hi):
        n, q = c.n, c.q
        qq = q * q
        kl = a + 2
        if pl > 0:  # p/q < lo
            (en, near), (ef, far) = (pl, low), (ph, high)
        elif ph < 0:  # hi < p/q
            (en, near), (ef, far) = (-ph, high), (-pl, low)
        else:
            # p/q in [lo, hi]: d_lo = 0, so only a lower-bound failure
            # decides; d_hi is the larger of -P_lo/(ld q^2) and P_hi/(hd q^2)
            ef, far = (-pl, low) if -pl * hd > ph * ld else (ph, high)
            lower = kl * ef - far[0]  # d_hi - lb
            if lower > 0:
                return None
            reports.append(BoundReport(n, _margin(lower, far, kl, q, qq),
                                       _coprime(1, a * qq)))
            continue
        lower_end, upper_end = near, far
        lower, upper = kl * en - near[0], far[0] - a * ef  # d_lo - lb, ub - d_hi
        if lower <= 0 or upper <= 0:  # not a pass
            lower_end, upper_end = far, near
            lower, upper = kl * ef - far[0], near[0] - a * en  # d_hi - lb, ub - d_lo
            if lower > 0 and upper > 0:
                return None
        reports.append(BoundReport(n, _margin(lower, lower_end, kl, q, qq),
                                   _margin(upper, upper_end, a, q, qq)))
    return reports


def _from_coprime(n: int, d: int) -> Fraction:
    """A Fraction from a numerator and a positive denominator already
    coprime, without a gcd or the constructor's type checks: what
    ``Fraction._from_coprime_ints`` does on Python >= 3.12."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


_coprime = getattr(Fraction, "_from_coprime_ints", _from_coprime)


def _two_split(d: int) -> tuple[int, int]:
    """(j, r) with d = 2^j r and r odd."""
    j = (d & -d).bit_length() - 1
    return j, d >> j


def _margin(u: int, end: tuple[int, int, int], k: int, q: int, qq: int) -> Fraction:
    """u / (xd k qq) in lowest terms, where u = +-(k |P| - xd) = +-(k q |e|
    - xd) for an endpoint X/xd in lowest terms (P and e as in
    :func:`_offsets`), end = (xd, j, r) with xd = 2^j r and r odd, and
    qq = q^2.

    u/(xd k qq) is +-(x - y) with y = (p k q +- 1)/(k q^2), which is in
    lowest terms since every prime of k q divides p k q. Every prime of
    gcd(u, xd k q^2) divides xd: one that divides k q and u divides
    xd = k q |e| -+ u too. So the common factor is a power of 2 times an odd
    divisor of r, and Knuth's gcd-first subtraction (TAOCP vol. 2, 4.5.1)
    finds it from g = gcd(xd, k q^2) and gcd(u/g, g) alone, each the gcd of
    an odd part with r times a power of 2 read off by shifts:
    g = gcd(r, k (q mod r)^2) 2^sh with sh = min(j, v2(k) + 2 v2(q)). The
    denominator (xd/g) (k q^2/d2) is formed as (r/g_odd) (k q^2/d2) << (j -
    sh), so the endpoint's 2^j enters as a shift and r, small for a surd's
    q 2^k and a decimal's 2^a 5^b, as a short multiple. u = 0 (x = y) is
    0/1.
    """
    if not u:
        return _coprime(0, 1)
    _, j, r = end
    sh = (k & -k).bit_length() - 1
    if not q & 1:
        sh += 2 * (q & -q).bit_length() - 2
    if sh > j:
        sh = j
    kqq = k * qq
    t = u >> sh  # u/g, exactly, once the odd part of g is divided out
    g = gcd(r, k * (q % r) ** 2) if r > 1 else 1
    if g > 1:
        t //= g
        d = gcd(g, t % g)
        if d > 1:
            t //= d
            kqq //= d
    if sh:  # the power of 2 of gcd(u/g, g) is 2^min(sh, v2(u/g))
        low = t & ((1 << sh) - 1)
        s = (low & -low).bit_length() - 1 if low else sh
        t >>= s
        kqq >>= s
    return _coprime(t, (r // g * kqq) << (j - sh))


def best_approx_check(table: ConvergentTable, qmax: int) -> bool:
    """Brute-force the best-approximation property up to denominator qmax.

    For each n with q_{n+1} <= qmax + 1, confirms that no 0 < q < q_{n+1}
    has min_p |q alpha - p| < |q_n alpha - p_n|.
    """
    if qmax > 10**5:
        raise ValidationError("qmax too large for exhaustive search")
    if qmax > table.convergents[-1].q:
        raise ValidationError("qmax exceeds the table's last denominator")

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

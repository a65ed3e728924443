"""Odd/odd rational approximation machinery.

Distances to odd integers, odd/odd approximant streams built from the
convergent parity pattern, and badly-approximable prefix diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .contfrac import ConvergentTable, IrrationalSpec, _offsets, _refine
from .errors import TableExhausted, ValidationError, VerificationFailed
from .intervals import RealBall


def nearest_odd(ball: RealBall, vs) -> list[tuple[int, Fraction, Fraction] | None]:
    """Per odd v, the odd u nearest v*alpha and d_lo <= |v*alpha - u| <= d_hi
    for every alpha in ``ball``, or None where the ball leaves u open.

    With lo = L/D and hi = H/D over a common denominator D, every
    quantity is an integer times 1/D: x = v alpha lies in [v L, v H] / D,
    u = 2 floor((v L + v H - 1) / 4D) + 1 is the odd integer nearest the
    midpoint, and u is certified when (u-1) D < v L and v H < (u+1) D. An
    exact ball (L = H) always decides; when v*alpha is an even integer its
    two nearest odd integers tie and the smaller is taken.
    """
    L, H, D = ball.ends()
    out: list[tuple[int, Fraction, Fraction] | None] = []
    for v in vs:
        xlo, xhi = v * L, v * H
        u = 2 * ((xlo + xhi - 1) // (4 * D)) + 1
        e_lo, e_hi = xlo - u * D, xhi - u * D
        if L == H or (-D < e_lo and e_hi < D):
            out.append((u, Fraction(max(0, e_lo, -e_hi), D),
                        Fraction(max(-e_lo, e_hi), D)))
        else:
            out.append(None)
    return out


def min_odd_dist(alpha: IrrationalSpec, v: int) -> tuple[int, RealBall]:
    """The odd integer u minimizing |v*alpha - u| and the certified distance:
    the one-v case of :func:`nearest_odd`, refined until it decides.

    Ties (possible only for rational alpha) break toward the smaller u.
    """
    if v < 1 or v % 2 == 0:
        raise ValidationError("v must be an odd positive integer")

    def decide(ball: RealBall) -> tuple[int, RealBall] | None:
        got = nearest_odd(ball, [v])[0]
        if got is None:
            return None
        u, d_lo, d_hi = got
        return u, RealBall.from_bounds(d_lo, d_hi)

    return _refine(alpha, 128 + v.bit_length() + 8, decide,
                   "the odd integer nearest v*alpha")


@dataclass(frozen=True)
class OddOddApproximant:
    u: int
    v: int
    err: RealBall

    def __post_init__(self):
        if self.u % 2 == 0 or self.v % 2 == 0 or self.v <= 0:
            raise ValidationError("u and v must be odd, v positive")


def odd_odd_stream(table: ConvergentTable, count: int) -> list[OddOddApproximant]:
    """First ``count`` odd/odd approximants of the table's number.

    Odd/odd convergents are taken directly; for a mixed-parity consecutive
    pair the difference (p_{n+1}-p_n)/(q_{n+1}-q_n) is odd/odd and satisfies
    the same quadratic error bound. Results have strictly increasing v and
    certified err < 2/v^2. A v reached twice keeps its first candidate's
    structural bound: for sqrt 7, v = 17 is convergent 5 and also the
    difference of convergents 6 and 7.

    The stream is not every odd/odd record (odd v with |v alpha - u| below
    that of every smaller odd v): for sqrt 5 it gives v = 3, 13, 55, ...
    and misses v = 5, although 11/5 is closer than 7/3.
    """
    convs = table.convergents

    def eps_hi(n: int) -> Fraction:
        """Upper bound on |q_n alpha - p_n| from the table structure:
        1/q_{n+1} when the successor is known, else 1/q_n (valid since the
        continued fraction continues with some a_{n+1} >= 1)."""
        if table.terminated and n == len(convs) - 1:
            return Fraction(0)
        if n + 1 < len(convs):
            return Fraction(1, convs[n + 1].q)
        return Fraction(1, convs[n].q)

    cands: dict[int, tuple[int, Fraction]] = {}
    for n, c in enumerate(convs):
        if c.p % 2 == 1 and c.q % 2 == 1:
            cands.setdefault(c.q, (c.p, eps_hi(n) / c.q))
        elif n + 1 < len(convs):
            c1 = convs[n + 1]
            if c1.p % 2 == 1 and c1.q % 2 == 1:
                continue
            u, v = c1.p - c.p, c1.q - c.q
            if u % 2 == 1 and v % 2 == 1 and v > 0:
                cands.setdefault(v, (u, (eps_hi(n) + eps_hi(n + 1)) / v))
    vs = sorted(cands)
    if len(vs) < count:
        raise TableExhausted(
            f"table yields {len(vs)} odd/odd approximants, {count} requested"
        )
    vs = vs[:count]

    # struct_hi, the table's own bound on err, is below 2/v^2 for every
    # candidate: one enclosure decides, and it only narrows the err brackets
    ball = table.source.enclosure(4 * vs[-1].bit_length() + 96)
    out: list[OddOddApproximant] = []
    for v in vs:
        u, struct_hi = cands[v]
        target = Fraction(u, v)
        d_lo = max(Fraction(0), max(ball.lower - target, target - ball.upper))
        d_hi = min(max(abs(ball.lower - target), abs(ball.upper - target)), struct_hi)
        if d_hi >= Fraction(2, v * v):
            raise VerificationFailed(f"odd/odd approximant {u}/{v} violates err < 2/v^2")
        out.append(OddOddApproximant(u, v, RealBall.from_bounds(d_lo, d_hi)))
    return out


@dataclass(frozen=True)
class ApproxProfile:
    max_a: int
    c_lower: Fraction
    prefix_len: int
    bounded_on_prefix: bool
    verdict: str


def badly_approx_profile(table: ConvergentTable) -> ApproxProfile:
    """Prefix evidence for/against bounded partial quotients.

    c_lower is an exact rational lower bound for q^2 |alpha - p/q| over the
    table's convergents (with successor). Finite data cannot prove
    badly-approximable; the verdict is explicitly prefix evidence.

    With P = q e = q (x_num q - p x_den) for an endpoint x = x_num/x_den
    of alpha's enclosure (``contfrac._offsets``), q^2 d_lo is P_lo / lo_den
    when p/q < lo, -P_hi / hi_den when hi < p/q, and 0 when p/q lies in
    the enclosure. The minimum is taken over these integer pairs by
    cross-multiplication.
    """
    if len(table) < 3:
        raise ValidationError("table needs at least 3 entries")
    qs = table.quotients[1:]
    max_a = max(qs)
    bits = 4 * table.convergents[-1].q.bit_length() + 64
    ball = table.source.enclosure(bits)
    lo, hi = ball.lower, ball.upper
    num, den = None, 1
    for _, _, pl, ph in _offsets(table, lo, hi):
        if pl > 0:  # p/q < lo
            val, val_den = pl, lo.denominator
        elif ph < 0:  # hi < p/q
            val, val_den = -ph, hi.denominator
        else:  # p/q in [lo, hi]: q^2 d_lo = 0, the least value
            num = 0
            break
        if num is None or val * den < num * val_den:
            num, den = val, val_den
    c_lower = Fraction(num, den)
    half = len(qs) // 2
    growing = max(qs[half:]) >= 10 * max(qs[:half]) if half >= 1 else False
    verdict = (
        "not badly approximable on prefix (growing quotients)"
        if growing
        else f"bounded quotients so far (max a_n = {max_a}, prefix evidence)"
    )
    return ApproxProfile(
        max_a=max_a,
        c_lower=c_lower,
        prefix_len=len(table),
        bounded_on_prefix=not growing,
        verdict=verdict,
    )

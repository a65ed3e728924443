"""Continued-fraction engine: expansion, exact identities, error bounds."""

import functools
import json
import math as m
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phstab import alpha_factory as af
from phstab import contfrac as cf
from phstab import diophantine as dio
from phstab.errors import InsufficientPrecision, PhstabError, TableExhausted


def test_sqrt2_expansion():
    table = cf.expand(cf.SQRT2, 5)
    assert table.quotients == (1, 2, 2, 2, 2, 2)
    got = [(c.p, c.q) for c in table.convergents]
    assert got == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70)]


def test_golden_expansion():
    table = cf.expand(cf.GOLDEN, 4)
    assert table.quotients == (1, 1, 1, 1, 1)
    got = [(c.p, c.q) for c in table.convergents]
    assert got == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]


def test_rational_terminates_flagged():
    table = cf.expand(cf.ExplicitQuotients((1, 2, 3)), 10)
    assert table.terminated
    assert table.quotients == (1, 2, 3)
    assert Fraction(table.convergents[-1].p, table.convergents[-1].q) == Fraction(10, 7)


def test_identity_exact_50_terms():
    for spec in (cf.SQRT2, cf.GOLDEN):
        table = cf.expand(spec, 50)
        assert table.check_identity()
        cs = table.convergents
        for n in range(len(cs) - 1):
            assert cs[n].p * cs[n + 1].q - cs[n + 1].p * cs[n].q == (-1) ** (n + 1)


def test_convergents_coprime_and_increasing_q():
    table = cf.expand(cf.SQRT2, 30)
    for n, c in enumerate(table.convergents):
        assert m.gcd(c.p, c.q) == 1
        if n >= 2:
            assert c.q > table.convergents[n - 1].q


def test_table_builds_the_convergents_of_its_quotients():
    for spec in (cf.SQRT2, cf.GOLDEN, cf.QuadraticSurd(D=7, p=1, q=3)):
        table = cf.expand(spec, 30)
        assert cf.ConvergentTable(spec, table.quotients) == table
        assert table.convergents == tuple(
            cf.Convergent(*c) for c in cf._convergents(table.quotients))
    # judging one number's table against another source is still allowed
    table = cf.expand(cf.SQRT2, 6)
    assert cf.ConvergentTable(cf.GOLDEN, table.quotients).convergents == table.convergents


def test_table_refuses_a_quotient_below_one():
    # a quotient a_n < 1 past a_0 is refused
    bad = (1, 2, 0, 2)
    with pytest.raises(ValueError, match="a_2 = 0 violates a_n >= 1"):
        cf.ConvergentTable(cf.SQRT2, bad)

    class Bad(cf.IrrationalSpec):  # a source whose quotient stream breaks the rule
        def quotient_iter(self):
            return iter(bad)

    with pytest.raises(ValueError, match="a_2 = 0 violates a_n >= 1"):
        cf.expand(Bad(), 3)


def test_check_bounds_strict_both_sides():
    for spec in (cf.SQRT2, cf.GOLDEN):
        table = cf.expand(spec, 50)
        reports = cf.check_bounds(table)
        assert len(reports) == 50
        assert all(r.passed for r in reports)
        assert all(r.lower_margin > 0 and r.upper_margin > 0 for r in reports)


def test_decimal_literal_refuses_beyond_guarantee():
    lit = cf.DecimalLiteral(digits="1.41", bits=8)
    with pytest.raises(InsufficientPrecision):
        cf.expand(lit, 30)
    # asked for more than is guaranteed, the literal returns its 8-bit ball
    ball = lit.enclosure(64)
    assert (ball.value, ball.err) == (Fraction(141, 100), Fraction(1, 256))


def test_decimal_literal_short_prefix_ok():
    # 1.414213562373095 to 40 guaranteed bits pins the first few quotients
    lit = cf.DecimalLiteral(digits="1.414213562373095", bits=40)
    table = cf.expand(lit, 4)
    assert table.quotients == (1, 2, 2, 2, 2)


def test_spec_json_round_trip():
    specs = [
        cf.SQRT2,
        cf.ExplicitQuotients((1, 2, 3)),
        cf.DecimalLiteral(digits="1.5", bits=16),
    ]
    for spec in specs:
        again = cf.spec_from_json(json.dumps(spec.to_json()))
        assert again == spec
    rule = cf.spec_from_json(
        {"kind": "rule", "name": "construction",
         "f": {"target": {"kind": "powerlog", "p": 2, "s": 0},
               "bit_budget": 256}}
    )
    assert rule.to_json()["name"] == "construction"


_POWER4_RULE = {"kind": "rule", "name": "construction",
                "f": {"target": {"kind": "powerlog", "p": 4, "s": 0},
                      "bit_budget": 1024},
                "bit_budget": 2048}


def test_construction_rule_expands_without_importing_alpha_factory():
    # a fresh interpreter that never imports alpha_factory itself
    code = (
        "import json, sys\n"
        "from phstab import contfrac\n"
        "assert 'phstab.alpha_factory' not in sys.modules\n"
        f"spec = contfrac.spec_from_json({json.dumps(_POWER4_RULE)!r})\n"
        "print(json.dumps(contfrac.expand(spec, 4).quotients))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [1, 20, 396, 156356, 24446929092]


def test_unknown_rule_name_is_rejected_at_parse_time():
    with pytest.raises(ValueError, match="unknown quotient rule 'nope'"):
        cf.spec_from_json(dict(_POWER4_RULE, name="nope"))


def test_expanding_a_construction_past_its_depth_raises():
    ca = af.construct(af.PowerLog(4, 0), 1024)
    assert ca.depth == 7
    again = cf.spec_from_json(json.dumps(ca.spec.to_json()))
    for spec in (ca.spec, again):
        assert cf.expand(spec, 7).quotients == ca.table.quotients
        # not a table flagged as rational: the cut-off is not alpha
        with pytest.raises(TableExhausted, match="depth 7 reached"):
            cf.expand(spec, 8)


def test_construction_json_drops_the_spec_bit_budget():
    # the spec-level cap never bound; files that carry one still read
    spec = af.construct(af.PowerLog(4, 0), 1024).spec
    assert spec.to_json() == {"kind": "rule", "name": "construction",
                              "f": {"target": {"kind": "powerlog", "p": 4.0, "s": 0.0},
                                    "bit_budget": 1024}}
    old = cf.spec_from_json(_POWER4_RULE)
    assert cf.expand(old, 4).quotients == (1, 20, 396, 156356, 24446929092)


@pytest.mark.parametrize("bits", [1, 8, 64, 300, 2000, 10**5])
def test_rule_enclosure_is_the_first_convergent_bracket_within_bits(bits):
    spec = _constructed_spec((2, 0), 1024)
    xs = [c.value for c in cf.expand(spec, len(spec.quotients) - 1).convergents]
    pairs = [sorted(pair) for pair in zip(xs, xs[1:])]
    lo, hi = next((p for p in pairs if p[1] - p[0] <= Fraction(1, 1 << bits)), pairs[-1])
    assert spec.enclosure(bits) == cf.RealBall.from_bounds(lo, hi)


def test_enclosure_certified():
    ball = cf.SQRT2.enclosure(128)
    assert ball.err <= Fraction(1, 1 << 128)
    lo, hi = ball.lower, ball.upper
    assert lo * lo < 2 < hi * hi



def test_best_approx_prefix():
    table = cf.expand(cf.SQRT2, 12)
    assert cf.best_approx_check(table, qmax=70)


@given(
    a=st.lists(st.integers(min_value=1, max_value=40), min_size=3, max_size=12)
)
@settings(max_examples=60, deadline=None)
def test_identity_holds_for_arbitrary_quotients(a):
    spec = cf.ExplicitQuotients(tuple([1] + a))
    table = cf.expand(spec, len(a))
    assert table.check_identity()
    # recurrence re-derivation
    qs = table.quotients
    p0, q0, p1, q1 = 1, 0, qs[0], 1
    for x in qs[1:]:
        p0, q0, p1, q1 = p1, q1, x * p1 + p0, x * q1 + q0
    assert (table.convergents[-1].p, table.convergents[-1].q) == (p1, q1)


@given(bits=st.integers(min_value=16, max_value=512))
@settings(max_examples=20, deadline=None)
def test_enclosure_width_scales_with_bits(bits):
    ball = cf.SQRT2.enclosure(bits)
    assert ball.err <= Fraction(1, 1 << bits)


# -- integer kernels of check_bounds and best_approx_check ------------------
#
# The oracles below are the plain Fraction formulas the kernels replace:
# every distance is formed from the enclosure endpoints, every bound as a
# Fraction, and every decision is a Fraction comparison.


def _bound_reports_oracle(table, lo, hi):
    """check_bounds' reports for alpha in [lo, hi], or None if undecided."""
    reports = []
    for n in range(len(table) - 1):
        c = table.convergents[n]
        a_next = table.quotients[n + 1]
        pv = c.value
        d_lo = max(Fraction(0), max(lo - pv, pv - hi))
        d_hi = max(abs(lo - pv), abs(hi - pv))
        lb = Fraction(1, (a_next + 2) * c.q**2)
        ub = Fraction(1, a_next * c.q**2)
        if d_lo > lb and d_hi < ub:
            reports.append(cf.BoundReport(n, d_lo - lb, ub - d_hi))
        elif d_hi <= lb or d_lo >= ub:
            reports.append(cf.BoundReport(n, d_hi - lb, ub - d_lo))
        else:
            return None
    return reports


def _check_bounds_from(table, bits=0):
    """check_bounds' reports, its refinement started at ``bits`` (0: its own
    start, 4 bits(q_N) + 64) through the ``_refine`` loop it runs."""
    if not bits:
        return cf.check_bounds(table)
    return cf._refine(table.source, bits,
                      lambda ball: cf._bound_reports(table, ball.lower, ball.upper),
                      "convergent bounds")


def _check_bounds_oracle(table, bits=0):
    qN = table.convergents[-1].q
    need = bits or 4 * qN.bit_length() + 64
    while True:
        # a precision-capped source is judged on its widest enclosure
        ball = table.source.enclosure(need)
        reports = _bound_reports_oracle(table, ball.lower, ball.upper)
        if reports is not None:
            return reports
        if ball.err > Fraction(1, 1 << need):
            raise InsufficientPrecision("undecided on the widest enclosure")
        need *= 2


def _best_approx_oracle(table, qmax):
    bits = 4 * qmax.bit_length() + 96
    while True:
        ball = table.source.enclosure(bits)
        assert ball.err <= Fraction(1, 1 << bits)
        lo, hi = ball.lower, ball.upper
        dist = []
        for q in range(1, qmax + 1):
            xlo, xhi = q * lo, q * hi
            cands = {m.floor(xlo), m.ceil(xlo), m.floor(xhi), m.ceil(xhi)}
            d_lo = min(max(Fraction(0), max(xlo - p, p - xhi)) for p in cands)
            d_hi = min(max(abs(xlo - p), abs(xhi - p)) for p in cands)
            dist.append((d_lo, d_hi))
        undecided = False
        for c in table.convergents:
            if c.n + 1 >= len(table):
                break
            qnext = table.convergents[c.n + 1].q
            if qnext - 1 > qmax:
                break
            dn_lo, dn_hi = dist[c.q - 1]
            for q in range(1, qnext):
                if q == c.q:
                    continue
                d_lo, d_hi = dist[q - 1]
                if d_hi < dn_lo:
                    return False
                if d_lo < dn_hi:
                    undecided = True
        if not undecided:
            return True
        if bits >= cf._PRECISION_CAP:
            raise InsufficientPrecision("best-approximation check undecidable")
        bits *= 2


def _outcome(fn, *args):
    """fn's result, or the type of the PhstabError it raised."""
    try:
        return fn(*args)
    except PhstabError as e:
        return type(e)


@functools.lru_cache(maxsize=None)
def _constructed_spec(key, budget=512):
    target = af.ExpDecay(Fraction(1, 2)) if key == "exp" else af.PowerLog(*key)
    return af.construct(target, budget).spec


def _expand(spec, n):
    """expand(spec, n) with n clamped to a construction's depth, past which
    expand raises: every draw still checks a table."""
    if isinstance(spec, cf.RuleQuotients):
        n = min(n, len(spec.quotients) - 1)
    return cf.expand(spec, n)


@st.composite
def _surd(draw):
    D = draw(st.integers(min_value=2, max_value=999).filter(lambda d: m.isqrt(d) ** 2 != d))
    q = draw(st.integers(min_value=1, max_value=9))
    p = draw(st.integers(min_value=1 - m.isqrt(D), max_value=50 * q))
    try:
        return cf.QuadraticSurd(D=D, p=p, q=q)
    except ValueError:  # (p + sqrt(D))/q not positive
        assume(False)


@st.composite
def _decimal78(draw):
    whole = draw(st.integers(min_value=1, max_value=49))
    frac = draw(st.integers(min_value=0, max_value=10**78 - 1))
    return cf.DecimalLiteral(f"{whole}.{frac:078d}", 256)


_SOURCES = st.one_of(
    _surd(),
    _decimal78(),
    st.sampled_from([(2, 0), (3, 1), "exp"]).map(_constructed_spec),
)


@given(spec=_SOURCES, n=st.integers(min_value=1, max_value=60),
       bits=st.sampled_from([0, 8, 16, 64]))
@settings(max_examples=120, deadline=None)
def test_check_bounds_matches_fraction_oracle(spec, n, bits):
    try:
        table = _expand(spec, n)
    except InsufficientPrecision:  # decimal digits exhausted
        assume(False)
    assume(len(table) >= 2)
    got = _outcome(_check_bounds_from, table, bits)
    assert got == _outcome(_check_bounds_oracle, table, bits)


def _count_enclosures(monkeypatch, cls):
    """The bits of every ``cls.enclosure`` call from now on, in order."""
    asked = []
    real = cls.enclosure
    monkeypatch.setattr(cls, "enclosure",
                        lambda self, bits: asked.append(bits) or real(self, bits))
    return asked


def test_check_bounds_doubles_when_convergent_inside_enclosure(monkeypatch):
    # At 8 bits the enclosure of sqrt(2) holds 17/12, ..., so those n are
    # undecided and the precision must double before all 30 are decided.
    table = cf.expand(cf.SQRT2, 30)
    ball = cf.SQRT2.enclosure(8)
    assert any(ball.lower <= c.value <= ball.upper for c in table.convergents[:-1])
    asked = _count_enclosures(monkeypatch, cf.QuadraticSurd)
    reports = _check_bounds_from(table, 8)
    assert asked[:2] == [8, 16] and len(asked) > 2
    assert reports == _check_bounds_oracle(table, 8)
    assert len(reports) == 30 and all(r.passed for r in reports)


def test_refine_stops_before_passing_the_cap(monkeypatch):
    monkeypatch.setattr(cf, "_PRECISION_CAP", 64)
    asked = _count_enclosures(monkeypatch, cf.QuadraticSurd)
    with pytest.raises(InsufficientPrecision, match="never decided.*64-bit"):
        cf._refine(cf.SQRT2, 8, lambda ball: None, "never decided")
    assert asked == [8, 16, 32, 64]


def test_check_bounds_on_a_constructed_alpha_near_its_depth(monkeypatch):
    # depth 338: the rule encloses alpha only to about 2 bits(q_338), half
    # the default start precision, so n < 337 are decided on the widest
    # enclosure; n = 337 sits at its endpoint and stays undecided. Each
    # refinement step walks the rule once and never asks the same bits twice.
    spec = _constructed_spec((2, 0), 1024)
    table = cf.expand(spec, 300)
    need = 4 * table.convergents[-1].q.bit_length() + 64
    asked = _count_enclosures(monkeypatch, cf.RuleQuotients)
    reports = cf.check_bounds(table)
    assert len(reports) == 300 and all(r.passed for r in reports)
    assert asked == [need]
    table = cf.expand(spec, 338)
    need = 4 * table.convergents[-1].q.bit_length() + 64
    asked.clear()
    with pytest.raises(InsufficientPrecision):
        cf.check_bounds(table)
    assert asked == [need << k for k in range(len(asked))]


def test_check_bounds_failure_margins_match_oracle():
    # Quotients of sqrt(2) against the enclosure of the golden ratio: both
    # bounds fail somewhere, and the failing margins must agree too.
    sq = cf.expand(cf.SQRT2, 12)
    table = cf.ConvergentTable(cf.GOLDEN, sq.quotients)
    reports = cf.check_bounds(table)
    assert not all(r.passed for r in reports)
    assert reports == _check_bounds_oracle(table)


@given(spec=_surd(), other=st.one_of(st.none(), _surd()),
       qmax=st.integers(min_value=1, max_value=400))
@settings(max_examples=60, deadline=None)
def test_best_approx_matches_fraction_oracle(spec, other, qmax):
    # other: judge the convergents of another surd against spec's value,
    # which is how a False verdict arises
    table = cf.expand(spec, 40)
    if other is not None:
        alien = cf.expand(other, 40)
        table = cf.ConvergentTable(spec, alien.quotients)
    qmax = min(qmax, table.convergents[-1].q)
    got = _outcome(cf.best_approx_check, table, qmax)
    assert got == _outcome(_best_approx_oracle, table, qmax)


def test_best_approx_both_verdicts_match_oracle():
    table = cf.expand(cf.SQRT2, 12)
    assert cf.best_approx_check(table, 70) is _best_approx_oracle(table, 70) is True
    alien = cf.ConvergentTable(cf.GOLDEN, table.quotients)
    assert cf.best_approx_check(alien, 70) is _best_approx_oracle(alien, 70) is False


# -- the e-based margin kernel, on one enclosure -----------------------------


def _kernel_matches_oracle(table, lo, hi):
    """Asserts that _bound_reports(table, lo, hi) equals the Fraction
    oracle with every margin in lowest terms; returns the reports."""
    got = cf._bound_reports(table, lo, hi)
    assert got == _bound_reports_oracle(table, lo, hi)
    for r in got or ():
        for x in (r.lower_margin, r.upper_margin):
            assert x.denominator > 0 and m.gcd(x.numerator, x.denominator) == 1
    return got


def _sides(table, lo, hi):
    """The sides s = +-1 on which [lo, hi] lies of the p_n/q_n, n < N."""
    return {1 if c.value < lo else -1 for c in table.convergents[:-1]
            if not lo <= c.value <= hi}


_KERNEL_SOURCES = {  # a source (built on first use) and a table depth
    "surd": (lambda: cf.QuadraticSurd(D=7, p=3, q=5), 40),
    "decimal78": (lambda: cf.DecimalLiteral("1." + "4142135623730950488016887242096980785696"
                                            "71875376948073176679737990732478462107", 256), 12),
    "rule": (lambda: _constructed_spec((2, 0)), 60),
}


@pytest.mark.parametrize("name", list(_KERNEL_SOURCES))
def test_bound_reports_kernel_matches_oracle(name):
    make, n = _KERNEL_SOURCES[name]
    spec = make()
    table = cf.expand(spec, n)
    ball = spec.enclosure(4 * table.convergents[-1].q.bit_length() + 64)
    reports = _kernel_matches_oracle(table, ball.lower, ball.upper)
    assert len(reports) == n and all(r.passed for r in reports)
    assert _sides(table, ball.lower, ball.upper) == {1, -1}


def test_bound_reports_kernel_failing_margins():
    # each number's quotients against the other's enclosure: the golden
    # ratio lies above every convergent of sqrt(2) (s = +1), sqrt(2) below
    # every convergent of the golden ratio past the first (s = -1)
    for spec, other, side in ((cf.GOLDEN, cf.SQRT2, 1), (cf.SQRT2, cf.GOLDEN, -1)):
        alien = cf.expand(other, 12)
        table = cf.ConvergentTable(spec, alien.quotients)
        ball = spec.enclosure(128)
        assert ball.err <= Fraction(1, 1 << 128)
        reports = _kernel_matches_oracle(table, ball.lower, ball.upper)
        assert any(r.upper_margin < 0 for r in reports)  # d_lo >= ub
        assert side in _sides(table, ball.lower, ball.upper)


def test_bound_reports_kernel_with_a_convergent_inside_the_enclosure():
    table = cf.expand(cf.SQRT2, 8)
    c = table.convergents[4]  # 41/29, a_5 = 2
    lb = Fraction(1, 4 * c.q**2)
    # [lo, hi] holds 41/29 and lies within lb of it: n = 4 is decided (it
    # fails the lower bound) with margins d_hi - lb < 0 and ub, both for a
    # wider side below and a wider side above
    for lo, hi in ((c.value - lb / 3, c.value + lb / 7), (c.value - lb / 7, c.value + lb / 3)):
        reports = _kernel_matches_oracle(table, lo, hi)
        assert reports[4].lower_margin == max(c.value - lo, hi - c.value) - lb < 0
        assert reports[4].upper_margin == Fraction(1, 2 * c.q**2)
    # a convergent inside an enclosure wider than its lb leaves n undecided
    assert _kernel_matches_oracle(table, c.value - 2 * lb, c.value + lb / 3) is None
    # a point enclosure exactly on 7/5 (n = 2): d_hi = 0
    seven_fifths = Fraction(7, 5)
    reports = _kernel_matches_oracle(table, seven_fifths, seven_fifths)
    assert reports[2].lower_margin == -Fraction(1, 100)


def test_bound_reports_kernel_lower_bound_failures_beside_a_convergent():
    # point enclosures beside 7/5 (n = 2, a_3 = 2, lb = 1/100), on either
    # side: d - lb < 0 decides n as failed, and 141/100 = 7/5 + lb gives a
    # margin of exactly 0
    table = cf.expand(cf.SQRT2, 8)
    lb = Fraction(1, 100)
    for x, margin in ((Fraction(7, 5) + lb / 2, -lb / 2), (Fraction(7, 5) - lb / 3, -2 * lb / 3),
                      (Fraction(141, 100), Fraction(0))):
        reports = _kernel_matches_oracle(table, x, x)
        assert reports[2].lower_margin == margin and not reports[2].passed


@given(spec=_SOURCES, other=st.one_of(st.none(), _surd()),
       n=st.integers(min_value=1, max_value=60),
       bits=st.sampled_from([8, 16, 40, 100, 300]))
@settings(max_examples=120, deadline=None)
def test_bound_reports_kernel_matches_oracle_on_any_enclosure(spec, other, n, bits):
    try:
        table = _expand(spec, n)
    except InsufficientPrecision:  # decimal digits exhausted
        assume(False)
    assume(len(table) >= 2)
    if other is not None:  # another number's convergents: failing margins
        alien = cf.expand(other, len(table) - 1)
        table = cf.ConvergentTable(spec, alien.quotients)
    ball = spec.enclosure(bits)
    _kernel_matches_oracle(table, ball.lower, ball.upper)


# -- the margin arithmetic: shifts for 2^j, short multiples of r ------------
#
# A margin's denominator is x_den k q^2 with x_den = 2^j r, r odd; the
# kernel reduces it by gcds with r and by shifts capped at j. The sources
# below give r > 1 (a surd with q = 5), r = 5^b (a decimal), a large odd r
# (a construction's convergents) and r = q_m (a rational point); small
# explicit bits and sqrt(2)'s convergents (v2(q_63) = 6) put j below
# v2(k q^2) for some n.


def _fields(reports):
    """Each report as integers: n and both margins' numerator and denominator."""
    return [(r.n, r.lower_margin.numerator, r.lower_margin.denominator,
             r.upper_margin.numerator, r.upper_margin.denominator) for r in reports]


def _v2(x):
    return (x & -x).bit_length() - 1


def _final_ball(table, bits):
    """The enclosure the oracle's refinement loop decides on."""
    need = bits or 4 * table.convergents[-1].q.bit_length() + 64
    while _bound_reports_oracle(table, *_ends(table.source.enclosure(need))) is None:
        need *= 2
    return table.source.enclosure(need)


def _ends(ball):
    return ball.lower, ball.upper


def _capped(table, ball):
    """The n whose margins have a shift capped at j: both endpoint
    denominators hold fewer factors 2 than k q_n^2 for both k."""
    js = [_v2(x.denominator) for x in _ends(ball)]
    return [c.n for c, a in zip(table.convergents, table.quotients[1:])
            if max(js) < min(_v2(k * c.q * c.q) for k in (a, a + 2))]


def _matches_oracle_exactly(table, bits):
    got = _check_bounds_from(table, bits)
    assert _fields(got) == _fields(_check_bounds_oracle(table, bits))
    for r in got:
        for x in (r.lower_margin, r.upper_margin):
            assert x.denominator > 0 and m.gcd(x.numerator, x.denominator) == 1
    return got


_MARGIN_SOURCES = {  # a source (built on first use), its table depth, small bits
    "surd": (lambda: cf.QuadraticSurd(D=7, p=3, q=5), 40, 4),
    "decimal": (lambda: cf.DecimalLiteral("1.6180339887", 8), 3, 8),
    "construction": (lambda: _constructed_spec((2, 0)), 60, 4),
}


@pytest.mark.parametrize("name", list(_MARGIN_SOURCES))
def test_margins_match_oracle_exactly(name):
    make, n, small = _MARGIN_SOURCES[name]
    spec = make()
    own = cf.expand(spec, n)
    sq = cf.expand(cf.SQRT2, 70)
    alien = cf.ConvergentTable(spec, sq.quotients)  # fails
    for bits in (0, small):
        assert all(r.passed for r in _matches_oracle_exactly(own, bits))
        reports = _matches_oracle_exactly(alien, bits)
        assert any(not r.passed for r in reports)
    # at the small precision some n of the alien table has j < v2(k q^2)
    assert _capped(alien, _final_ball(alien, small))
    if name == "construction":  # the rule's endpoints are odd or nearly so
        assert _capped(own, _final_ball(own, 0))


@pytest.mark.parametrize("name", ["surd", "construction"])
def test_margins_match_oracle_with_a_convergent_inside_a_point_enclosure(name):
    # alpha = p_m/q_m exactly, against the longer table of the number it
    # truncates: at n = m the enclosure holds the convergent and the lower
    # bound fails (d_hi = 0); below m the bounds pass, above m they fail
    make, n, _ = _MARGIN_SOURCES[name]
    table = cf.expand(make(), n)
    mm = n // 2
    point = cf.ExplicitQuotients(table.quotients[:mm + 1])
    assert point.value() == table.convergents[mm].value
    alien = cf.ConvergentTable(point, table.quotients)
    reports = _matches_oracle_exactly(alien, 0)
    assert [r.passed for r in reports] == [True] * mm + [False] * (n - mm)
    assert reports[mm].lower_margin < 0 < reports[mm].upper_margin
    c = table.convergents[mm]
    assert reports[mm].upper_margin == Fraction(1, table.quotients[mm + 1] * c.q**2)
    assert _capped(alien, point.enclosure(0))


def _c_lower_oracle(table):
    """min_n q_n^2 d_lo(n) on badly_approx_profile's one enclosure."""
    bits = 4 * table.convergents[-1].q.bit_length() + 64
    ball = table.source.enclosure(bits)
    vals = []
    for c in table.convergents[:-1]:
        pv = c.value
        d_lo = max(Fraction(0), max(ball.lower - pv, pv - ball.upper))
        vals.append(c.q * c.q * d_lo)
    return min(vals)


def _c_lower_matches_oracle(table):
    c_lower = dio.badly_approx_profile(table).c_lower
    assert c_lower == _c_lower_oracle(table)
    assert m.gcd(c_lower.numerator, c_lower.denominator) == 1
    return c_lower


@given(spec=_SOURCES, n=st.integers(min_value=2, max_value=60))
@settings(max_examples=80, deadline=None)
def test_badly_approx_c_lower_matches_fraction_oracle(spec, n):
    try:
        table = _expand(spec, n)
    except InsufficientPrecision:  # decimal digits exhausted
        assume(False)
    assume(len(table) >= 3)
    _c_lower_matches_oracle(table)


def test_badly_approx_c_lower_zero_matches_fraction_oracle():
    # at 512 bits the PowerLog(3, 1) rule stops short of 4 bits(q_9) + 64,
    # and its widest enclosure holds a convergent: c_lower = 0
    assert _c_lower_matches_oracle(cf.expand(_constructed_spec((3, 1)), 9)) == 0
    assert _c_lower_matches_oracle(cf.expand(_constructed_spec((3, 1)), 8)) > 0

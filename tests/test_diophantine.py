"""Odd/odd approximants, minimal odd distances, and gap structure."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phstab import contfrac as cf
from phstab import diophantine as dio
from phstab.errors import InsufficientPrecision, ValidationError


def test_odd_odd_stream_sqrt2_prefix():
    table = cf.expand(cf.SQRT2, 40)
    stream = dio.odd_odd_stream(table, 5)
    got = [(ap.u, ap.v) for ap in stream]
    # direct odd/odd convergents of sqrt(2): 1/1, 7/5, 41/29, 239/169, ...
    assert got[:3] == [(1, 1), (7, 5), (41, 29)]


def test_odd_odd_err_bound_exact_rational():
    for spec in (cf.SQRT2, cf.GOLDEN):
        table = cf.expand(spec, 60)
        stream = dio.odd_odd_stream(table, 15)
        assert len(stream) == 15
        vs = [ap.v for ap in stream]
        assert vs == sorted(vs) and len(set(vs)) == 15
        for ap in stream:
            assert ap.u % 2 == 1 and ap.v % 2 == 1
            assert ap.err.upper < Fraction(2, ap.v**2)


def test_odd_odd_err_is_true_enclosure():
    table = cf.expand(cf.SQRT2, 40)
    alpha = cf.SQRT2.enclosure(256)
    assert alpha.err <= Fraction(1, 1 << 256)
    for ap in dio.odd_odd_stream(table, 8):
        exact_lo = abs(alpha.lower - Fraction(ap.u, ap.v))
        assert ap.err.lower <= exact_lo <= ap.err.upper


def test_min_odd_dist_sqrt2():
    u, ball = dio.min_odd_dist(cf.SQRT2, 5)
    assert u == 7
    true = abs(5 * math.sqrt(2) - 7)
    assert float(ball.lower) - 1e-12 <= true <= float(ball.upper) + 1e-12
    assert abs(float(ball.value) - true) < 1e-12


def test_min_odd_dist_rejects_even_v():
    with pytest.raises(ValueError):
        dio.min_odd_dist(cf.SQRT2, 4)


@pytest.mark.parametrize("call, message", [
    # a float v had no bit_length; a count of 0 indexed an empty list, and
    # -1 silently dropped the last approximant
    (lambda: dio.min_odd_dist(cf.SQRT2, 3.0), "3.0 is not an integer"),
    (lambda: dio.min_odd_dist(cf.SQRT2, True), "True is a boolean"),
    (lambda: dio.odd_odd_stream(cf.expand(cf.SQRT2, 10), 0), "count 0 is below 1"),
    (lambda: dio.odd_odd_stream(cf.expand(cf.SQRT2, 10), -1), "count -1 is below 1"),
    (lambda: dio.odd_odd_stream(cf.expand(cf.SQRT2, 10), 2.0), "2.0 is not an integer"),
    (lambda: dio.odd_odd_stream(cf.expand(cf.SQRT2, 10), "3"), "'3' is not an integer"),
], ids=["v-float", "v-bool", "count-zero", "count-negative", "count-float", "count-str"])
def test_a_v_or_a_count_that_is_no_integer_is_refused(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_min_odd_dist_rational_exact():
    third = cf.ExplicitQuotients((0, 3))  # 1/3
    u, ball = dio.min_odd_dist(third, 3)
    assert u == 1 and ball.value == 0 and ball.err == 0


def test_badly_approx_profile_sqrt2():
    table = cf.expand(cf.SQRT2, 25)
    prof = dio.badly_approx_profile(table)
    assert prof.max_a == 2
    assert prof.bounded_on_prefix
    assert prof.c_lower > 0


@given(n=st.integers(min_value=6, max_value=14))
@settings(max_examples=10, deadline=None)
def test_odd_odd_invariants_random_depth(n):
    table = cf.expand(cf.GOLDEN, 6 * n)
    stream = dio.odd_odd_stream(table, n)
    assert all(ap.v % 2 == 1 and ap.u % 2 == 1 for ap in stream)
    assert all(
        stream[i].v < stream[i + 1].v for i in range(len(stream) - 1)
    )
    assert all(ap.err.upper * ap.v**2 < 2 for ap in stream)


# -- exact decisions on a precision-capped source ---------------------------
#
# The literal holds sqrt(2) to 60 guaranteed bits, fewer than any of these
# decisions starts with. Each is taken on the literal's widest enclosure
# and must give sqrt(2)'s answer.

_DIGITS = "1.4142135623730950488"
_DEC60 = cf.DecimalLiteral(_DIGITS, 60)
_DECISIONS = {
    "check_bounds": lambda a: [r.passed for r in cf.check_bounds(cf.expand(a, 20))],
    "odd_odd_stream": lambda a: [
        (x.u, x.v) for x in dio.odd_odd_stream(cf.expand(a, 20), 8)],
    "min_odd_dist": lambda a: [dio.min_odd_dist(a, v)[0] for v in range(1, 200, 2)],
    "best_approx_check": lambda a: cf.best_approx_check(cf.expand(a, 12), 1000),
}


@pytest.mark.parametrize("name", list(_DECISIONS))
def test_decision_on_a_capped_decimal_matches_sqrt2(name):
    decide = _DECISIONS[name]
    assert decide(_DEC60) == decide(cf.SQRT2)


def test_badly_approx_profile_on_a_capped_decimal_matches_sqrt2():
    got, want = (dio.badly_approx_profile(cf.expand(a, 20)) for a in (_DEC60, cf.SQRT2))
    assert (got.max_a, got.prefix_len, got.verdict) == (want.max_a, want.prefix_len,
                                                       want.verdict)
    assert float(got.c_lower) == pytest.approx(float(want.c_lower), rel=1e-12)


def _sqrt2_table_on(bits):
    """sqrt(2)'s first 21 convergents, judged against the literal cut to
    ``bits`` guaranteed bits: deeper than that enclosure can decide."""
    table = cf.expand(cf.SQRT2, 20)
    return cf.ConvergentTable(cf.DecimalLiteral(_DIGITS, bits), table.quotients)


_TOO_COARSE = {
    "check_bounds": lambda: cf.check_bounds(_sqrt2_table_on(16)),
    "min_odd_dist": lambda: dio.min_odd_dist(cf.DecimalLiteral(_DIGITS, 16), 2**20 + 1),
    "best_approx_check": lambda: cf.best_approx_check(_sqrt2_table_on(16), 1000),
}


@pytest.mark.parametrize("name", list(_TOO_COARSE))
def test_decision_on_a_too_coarse_source_raises(name):
    with pytest.raises(InsufficientPrecision, match="widest enclosure"):
        _TOO_COARSE[name]()


def test_odd_odd_stream_and_profile_on_a_too_coarse_source():
    # err < 2/v^2 already follows from the denominators (err <= 1/(q_n q_{n+1})),
    # so the stream decides; the enclosure only narrows the err brackets
    table = _sqrt2_table_on(16)
    got = [(x.u, x.v) for x in dio.odd_odd_stream(table, 8)]
    assert got == _DECISIONS["odd_odd_stream"](cf.SQRT2)
    # an enclosure that holds some p_n/q_n leaves the bound at 0, still sound
    assert dio.badly_approx_profile(table).c_lower == 0


_SQRT2_STREAM = [(1, 1), (7, 5), (41, 29), (239, 169), (1393, 985), (8119, 5741),
                 (47321, 33461), (275807, 195025)]
_GOLDEN_STREAM = [(1, 1), (5, 3), (21, 13), (89, 55), (377, 233), (1597, 987),
                  (6765, 4181), (28657, 17711)]


@pytest.mark.parametrize("spec, depth, want", [
    (cf.SQRT2, 20, _SQRT2_STREAM),
    (cf.GOLDEN, 30, _GOLDEN_STREAM),
    (_DEC60, 20, _SQRT2_STREAM),
], ids=["sqrt2", "golden", "decimal60"])
def test_odd_odd_stream_takes_one_enclosure(monkeypatch, spec, depth, want):
    table = cf.expand(spec, depth)
    asked = []
    real = type(spec).enclosure
    monkeypatch.setattr(type(spec), "enclosure",
                        lambda self, bits: asked.append(bits) or real(self, bits))
    stream = dio.odd_odd_stream(table, 8)
    assert asked == [4 * want[-1][1].bit_length() + 96]
    assert [(x.u, x.v) for x in stream] == want
    assert all(x.err.upper < Fraction(2, x.v**2) for x in stream)
    if spec is not _DEC60:
        alpha = spec.enclosure(512)
        assert alpha.err <= Fraction(1, 1 << 512)
        for x in stream:
            assert x.err.lower <= abs(alpha.value - Fraction(x.u, x.v)) <= x.err.upper

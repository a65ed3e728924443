"""Construction of alpha realizing a prescribed decay target."""

import hashlib
import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phstab import alpha_factory as af
from phstab import contfrac as cf
from phstab.errors import CeilingUndecidable, MonotonicityViolation
from phstab.intervals import enclose


def _oracle_log_f(target, t):
    """log f(t) in mpmath at the working precision (``log_value`` is float)."""
    def mpf(x):
        return mpmath.mpf(x.numerator) / x.denominator

    if isinstance(target, af.ExpDecay):
        return -mpf(target.beta) * t
    if isinstance(target, af.PowerLog):
        return -mpf(target.p) * mpmath.log(t) - mpf(target.s) * mpmath.log(
            mpmath.log(mpmath.e + t))
    t0, f0, t1, f1 = target._segment(float(t))  # the float knots and t1 - t0
    theta = (t - t0) / (t1 - t0)
    return (1 - theta) * mpmath.log(f0) + theta * mpmath.log(f1)


def _oracle_quotient(target, q_prev: int) -> int:
    """Independent recomputation of a_n = 2*ceil(1/(sqrt(f(pi q)) q))
    at 600 decimal digits."""
    with mpmath.workdps(600):
        t = mpmath.pi * q_prev
        inv = mpmath.exp(-_oracle_log_f(target, t) / 2) / q_prev
        return int(2 * mpmath.ceil(inv))


# depth and SHA-256 of ",".join(quotients), as the mpmath iv-context
# evaluator of the recursion computed them
_PINNED = {
    "ExpDecay(1)": (af.ExpDecay(1), 4096, 2,
                    "2718cc8b6f4de20d77a7a9dbb852f43e4e0c1d3e713637b0a329db9b1d8ece83"),
    "ExpDecay(3/2)": (af.ExpDecay(Fraction(3, 2)), 4096, 2,
                      "f91006799c29780877af81c7ed71ca4cdae91d5c9a1f4d16630651af6dd3ff3f"),
    "PowerLog(4,1/2)": (af.PowerLog(4, Fraction(1, 2)), 4096, 9,
                        "070631009b7303793d996c4e662eb8b362884a27b1b136e081ee01c513eb5103"),
    "PowerLog(5,0)": (af.PowerLog(5, 0), 4096, 7,
                      "cf7f9513a504f3f61162b290506fe18dccc5133851152c57d315bec7450e592f"),
    "PowerLog(3,1/2)": (af.PowerLog(3, Fraction(1, 2)), 4096, 15,
                        "a1cbd562fe686703b0fa8c66753b5d94cce8aee7ba39d10379689d41aa208da2"),
    "PowerLog(7/3,1/3)": (af.PowerLog(Fraction(7, 3), Fraction(1, 3)), 4096, 34,
                          "9c86a3aca2724f154a5bc3b701fbfb910293e89b7fb05e06bab0dcb54e754015"),
    "PowerLog(2,0)": (af.PowerLog(2, 0), 6144, 2033,
                      "5ce68880d5f8a6d387e0340e8dc37d6f273bdfd942bc3181a4cec7750dccc1d0"),
    "Tabulated": (af.Tabulated(((1, 1), (10, Fraction(1, 100)), (100, Fraction(1, 10**4)),
                                (1000, Fraction(1, 10**6)))), 4096, 6,
                  "4bcc459e3195dd766ab2f2aea0ae04f487bdcf087c6aebec6f38568227bb3bdc"),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_construction_is_pinned(name):
    target, bits, depth, digest = _PINNED[name]
    ca = af.construct(target, bits)
    qs = ca.table.quotients
    assert ca.depth == depth
    assert hashlib.sha256(",".join(map(str, qs)).encode()).hexdigest() == digest
    for n in range(1, min(4, len(qs))):
        assert qs[n] == _oracle_quotient(target, ca.table.convergents[n - 1].q)


def test_tabulated_past_the_float_range_takes_the_last_segment():
    # the last segment decays so slowly that q_n passes 2^1024 with a_n = 2;
    # the segment choice used to take float(pi * q) there and raise
    target = af.target_from_json(
        '{"kind": "table", "pts": [[1, 1], [1e300, 0.9999999999999999]]}')
    ca = af.construct(target, 4096)
    qs, convs = ca.table.quotients, ca.table.convergents
    assert ca.depth == 833
    big = [n for n in range(1, len(qs)) if convs[n - 1].q.bit_length() > 1024]
    assert len(big) >= 3
    for n in big[:3]:
        assert qs[n] == _oracle_quotient(target, convs[n - 1].q)


class _Constant(af.DecayTarget):
    """f = 1/4 everywhere: not decreasing, so no target the package builds."""

    def _inv_sqrt_f(self, prec):
        two = enclose(2, prec)
        return lambda t, q: two


def test_an_integer_value_leaves_the_ceiling_undecidable():
    # f = 1/4 makes 1/sqrt(f(pi)) exactly 2, so every enclosure straddles
    # 2, up to 4 * 64 bits
    with pytest.raises(CeilingUndecidable, match="straddles an integer at 256 bits"):
        af._quotients_for(_Constant(), 64)


def test_power4_quotients_vs_oracle():
    target = af.PowerLog(p=4, s=0)
    ca = af.construct(target, bit_budget=4096)
    qs = ca.table.quotients
    assert qs[0] == 1 and qs[1] == 20 and qs[2] == 396
    # recompute each from the recursion independently
    q_prev = 1
    with mpmath.workdps(600):
        for n in range(1, min(7, len(qs))):
            t = mpmath.pi * q_prev
            inv = 1 / (mpmath.sqrt(t**-4) * q_prev)
            assert qs[n] == int(2 * mpmath.ceil(inv))
            q_prev = ca.table.convergents[n].q


def test_exp_quotients_vs_oracle():
    ca = af.construct(af.ExpDecay(beta=1.0), bit_budget=40000)
    qs = ca.table.quotients
    assert qs[0] == 1
    with mpmath.workdps(60):
        a1 = int(2 * mpmath.ceil(mpmath.exp(mpmath.pi / 2)))
        assert qs[1] == a1  # = 10
        q1 = ca.table.convergents[1].q
        a2 = int(2 * mpmath.ceil(mpmath.exp(mpmath.pi * q1 / 2) / q1))
        assert qs[2] == a2  # = 1327126
    assert qs[1] == 10 and qs[2] == 1327126


def test_quotients_all_even_and_depth_capped():
    ca = af.construct(af.PowerLog(p=2, s=0), bit_budget=512)
    assert all(a % 2 == 0 for a in ca.table.quotients[1:])
    assert ca.q_last.bit_length() <= 512
    # even quotients make the convergents alternate odd/odd, odd/even, so
    # every other convergent is an odd/odd witness
    parities = [(c.p % 2, c.q % 2) for c in ca.table.convergents]
    assert parities == [(1, 1) if n % 2 == 0 else (1, 0)
                        for n in range(len(parities))]


def test_constructed_alpha_in_one_two():
    ca = af.construct(af.PowerLog(p=3, s=1), bit_budget=1024)
    ball = ca.spec.enclosure(64)
    assert 1 < float(ball.lower) and float(ball.upper) < 2


@pytest.mark.parametrize("pts, reason", [
    (((1, Fraction(1, 4)), (2, Fraction(1, 4))), "must be decreasing"),
    (((1, 1), (2, 0)), "must be positive"),
    (((2, 1), (1, Fraction(1, 2))), "abscissae must increase"),
])
def test_tabulated_refuses_a_bad_table_when_built(pts, reason):
    with pytest.raises(MonotonicityViolation, match=reason):
        af.Tabulated(pts)
    with pytest.raises(MonotonicityViolation, match=reason):
        af.target_from_json({"kind": "table", "pts": [[str(t), str(v)] for t, v in pts]})


def test_tabulated_validation_and_interpolation():
    with pytest.raises(MonotonicityViolation):
        af.Tabulated(((1.0, 0.5), (2.0, 0.9)))
    good = af.Tabulated(((1.0, 1.0), (10.0, 0.01), (100.0, 1e-6)))
    # log f is interpolated linearly in t between knots
    assert good.log_value(1.0) == pytest.approx(0.0, abs=1e-12)
    assert good.log_value(10.0) == pytest.approx(math.log(0.01))
    assert good.log_value(5.5) == pytest.approx(math.log(0.01) / 2, rel=1e-9)
    assert math.log(0.01) < good.log_value(5.5) < 0.0


def test_target_json_round_trip():
    targets = [
        af.ExpDecay(beta=2.5),
        af.PowerLog(p=4, s=0),
        af.Tabulated(((1.0, 1.0), (2.0, 0.5))),
        # neither is the rational its float's repr spells
        af.ExpDecay(beta=0.1),
        af.PowerLog(p=Fraction(7, 3), s=Fraction(1, 3)),
    ]
    for t in targets:
        again = af.target_from_json(json.dumps(t.to_json()))
        assert again == t


def test_construction_rule_is_reproducible_from_json():
    ca = af.construct(af.PowerLog(p=4, s=0), bit_budget=2048)
    spec2 = cf.spec_from_json(json.dumps(ca.spec.to_json()))
    t1 = cf.expand(ca.spec, 4)
    t2 = cf.expand(spec2, 4)
    assert t1.quotients == t2.quotients


@given(p=st.floats(min_value=1.0, max_value=6.0),
       s=st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=10, deadline=None)
def test_construction_even_quotients_property(p, s):
    ca = af.construct(af.PowerLog(p=p, s=s), bit_budget=700)
    assert all(a % 2 == 0 and a >= 2 for a in ca.table.quotients[1:])
    assert ca.table.check_identity()


def test_to_json_keeps_non_dyadic_targets_exact():
    target = af.PowerLog(p=Fraction(7, 3), s=Fraction(1, 3))
    assert target.to_json() == {"kind": "powerlog", "p": "7/3", "s": "1/3"}
    # values a float carries exactly keep their float form
    assert af.ExpDecay(beta=2.5).to_json() == {"kind": "exp", "beta": 2.5}
    ca = af.construct(target, bit_budget=4096)
    again = cf.spec_from_json(ca.spec.to_json())
    assert cf.expand(again, ca.depth).quotients == ca.table.quotients
    assert list(ca.table.quotients) == af._quotients_for(target, 4096)


class _CountingPowerLog(af.PowerLog):
    """PowerLog that records the precision of every evaluator it builds and
    of every evaluation."""

    builds: list = []
    calls: list = []

    def evaluator(self, prec):
        self.builds.append(prec)
        x = super().evaluator(prec)
        return lambda q: self.calls.append(prec) or x(q)


def test_construct_runs_the_recursion_once(monkeypatch):
    runs = []
    real = af._quotients_for
    monkeypatch.setattr(af, "_quotients_for",
                        lambda target, budget: runs.append(budget) or real(target, budget))
    _CountingPowerLog.builds, _CountingPowerLog.calls = [], []
    ca = af.construct(_CountingPowerLog(p=4, s=0), bit_budget=1024)
    assert runs == [1024]
    builds, calls = _CountingPowerLog.builds, _CountingPowerLog.calls
    # one evaluator per precision used, not one per quotient; some ceilings
    # escalate past 64 bits
    assert builds == sorted(set(calls)) and builds[0] == 64 and len(builds) > 1
    # one 64-bit evaluation per quotient, plus the one that stops the recursion
    assert calls.count(64) == ca.depth + 1
    assert ca.table.quotients == af.construct(af.PowerLog(p=4, s=0), 1024).table.quotients


def test_an_undecided_ceiling_jumps_to_the_value_size():
    # the 64-bit enclosure gives the value's size; doubling from 64 bits
    # took 25 evaluations here (64 bits 10, 128 bits 5, then 4, 3, 2, 1)
    _CountingPowerLog.builds, _CountingPowerLog.calls = [], []
    ca = af.construct(_CountingPowerLog(p=4, s=Fraction(1, 2)), bit_budget=4096)
    calls = _CountingPowerLog.calls
    assert calls.count(64) == ca.depth + 1
    assert len(calls) <= 15
    assert ca.table.quotients == af.construct(af.PowerLog(4, Fraction(1, 2)), 4096).table.quotients

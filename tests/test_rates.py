"""Rate calculus: M_log, generalized inverses, predictions, positive increase."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phstab import rates as R
from phstab import spectral as sp
from phstab.errors import BelowRange, MissingCertificate, ValidationError


def test_m_log_closed_values():
    m = R.power_fn(2)
    assert R.m_log(m)(1.0) == pytest.approx(2 * math.log(2), rel=1e-12)
    one = R.MonotoneFn(lambda x: 1.0, lo=0.0)
    assert R.m_log(one)(0.0) == pytest.approx(math.log(2), rel=1e-12)


def test_invert_square():
    m = R.power_fn(2)
    assert R.invert(m, 100.0) == pytest.approx(10.0, rel=1e-9)


def test_invert_round_trip_powerlog_form():
    fn = R.MonotoneFn(lambda x: x * x * math.log(math.e + x) ** 3, lo=0.0)
    y = fn(7.0)
    assert R.invert(fn, y) == pytest.approx(7.0, rel=1e-9)


def test_invert_below_range():
    fn = R.power_log_fn(2, 3)  # fn(e) = e^2
    with pytest.raises(BelowRange):
        R.invert(fn, 0.1)
    with pytest.raises(BelowRange):
        R.invert(fn, math.e**2 * (1 - 1e-12))
    assert R.invert(fn, math.e**2) == math.e


def test_generalized_inverse_flat_segments():
    # fn constant on [1, 2]: sup convention picks the right endpoint
    def step(x):
        return min(x, 1.0) + max(x - 2.0, 0.0)

    fn = R.MonotoneFn(step, lo=0.0, hi=10.0)
    assert R.invert(fn, 1.0) == pytest.approx(2.0, rel=1e-6)
    assert fn(R.invert(fn, 1.0)) <= 1.0 + 1e-12


def test_rss_upper_inverse_square():
    m = R.power_fn(2)
    cert = R.positive_increase_estimate(m, [2, 10, 100], [1, 10, 100])
    assert isinstance(cert, R.PositiveIncreaseCertificate)
    assert cert.alpha_hat == pytest.approx(2.0, abs=1e-9)
    assert cert.c == pytest.approx(1.0)
    pred = R.predict(m, "RSS-upper", [1e2, 1e4, 1e6], certificate=cert)
    for t, b in pred.points:
        assert abs(b - t**-0.5) <= 1e-9


def test_rss_upper_requires_certificate():
    with pytest.raises(MissingCertificate):
        R.predict(R.power_fn(2), "RSS-upper", [10.0])


def test_batty_duyckaerts_mlog_round_trip():
    eps = 0.1
    gl = R.m_log(R.power_log_fn(2, 2 + eps))
    for y in (1e2, 1e5, 1e9):
        x = R.invert(gl, y)
        assert abs(gl(x) - y) <= 1e-6 * y


def test_lower_bound_formula():
    pred = R.predict(R.power_fn(2), "LowerBound", [100.0, 400.0], c=1.0, C=1.0)
    assert pred.points[0][1] == pytest.approx(0.1, rel=1e-9)
    assert pred.points[1][1] == pytest.approx(0.05, rel=1e-9)


def test_prediction_bounds_decreasing():
    for kind in ("BattyDuyckaerts", "LowerBound"):
        pred = R.predict(R.power_fn(3), kind, [10.0, 100.0, 1000.0])
        bs = [b for _, b in pred.points]
        assert bs == sorted(bs, reverse=True)
        assert all(b > 0 for b in bs)


def test_positive_increase_refutes_log():
    fn = R.MonotoneFn(lambda x: math.log(math.e + x), lo=0.0)
    res = R.positive_increase_estimate(fn, [10, 100, 1000], [1e6, 1e8, 1e10])
    assert isinstance(res, R.PositiveIncreaseRefutation)
    assert res.alpha_hat < 0.05
    lam, t, ratio = res.witnesses[0]
    assert lam >= 10 and ratio < 2



def test_from_growth_curve_interpolation():
    curve = sp.GrowthCurve(
        points=(
            sp.GrowthPoint(1.0, 1.0, 1.1, 0.0),
            sp.GrowthPoint(100.0, 100.0, 110.0, 0.0),
        ),
    )
    fn = R.from_growth_curve(curve, "lower")
    # log-linear between (1,1) and (100,100) is the identity
    assert fn(10.0) == pytest.approx(10.0, rel=1e-9)
    up = R.from_growth_curve(curve, "upper")
    assert up(1.0) == pytest.approx(1.1, rel=1e-9)
    assert up(100.0) == pytest.approx(110.0, rel=1e-9)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_from_growth_curve_refuses_bad_knot(bad):
    curve = sp.GrowthCurve(
        points=(
            sp.GrowthPoint(1.0, 1.0, 1.1, 0.0),
            sp.GrowthPoint(100.0, 100.0, bad, 0.0),
        ),
    )
    with pytest.raises(ValidationError, match="eta=100.0"):
        R.from_growth_curve(curve, "upper")
    assert R.from_growth_curve(curve, "lower")(10.0) == pytest.approx(10.0, rel=1e-9)


@pytest.mark.parametrize("knots, which, message", [
    # etas out of order: the unsorted knots gave 0.1 at t = 8, not 0.125
    ([(1.0, 1.0), (100.0, 100.0), (10.0, 10.0)], "lower",
     "eta=10.0 does not rise above eta=100.0"),
    ([(1.0, 1.0), (1.0, 2.0)], "upper", "eta=1.0 does not rise above eta=1.0"),
    ([(1.0, 5.0), (100.0, 2.0)], "lower", "m_lower at eta=100.0 is 2.0, below 5.0"),
    ([(1.0, 5.0), (10.0, 6.0), (100.0, 5.5)], "upper", "m_upper at eta=100.0 is 5.5"),
    # etas that are not finite and positive: a math domain error for 0 and
    # -1, a last eta of inf accepted, a nan blamed on the knot after it
    ([(0.0, 1.0), (100.0, 100.0)], "lower", "eta=0.0 is not finite and positive"),
    ([(-1.0, 1.0), (100.0, 100.0)], "upper", "eta=-1.0 is not finite and positive"),
    ([(1.0, 1.0), (100.0, 100.0), (math.inf, 200.0)], "lower",
     "eta=inf is not finite and positive"),
    ([(1.0, 1.0), (math.nan, 5.0), (10.0, 10.0)], "upper",
     "eta=nan is not finite and positive"),
], ids=["eta-falls", "eta-repeats", "m-falls", "m-falls-last",
        "eta-zero", "eta-negative", "eta-inf-last", "eta-nan"])
def test_from_growth_curve_refuses_knots_out_of_order(knots, which, message):
    curve = sp.GrowthCurve(tuple(sp.GrowthPoint(e, m, m, 0.0) for e, m in knots))
    with pytest.raises(ValidationError, match=message):
        R.from_growth_curve(curve, which)


def test_prediction_csv():
    pred = R.predict(R.power_fn(2), "LowerBound", [4.0])
    lines = pred.to_csv().strip().splitlines()
    assert lines[0] == "t,bound,kind"
    assert lines[1].endswith("LowerBound")


@given(p=st.floats(min_value=0.5, max_value=5.0),
       y=st.floats(min_value=1e-3, max_value=1e12))
@settings(max_examples=50, deadline=None)
def test_invert_identity_property(p, y):
    fn = R.power_fn(p)
    x = R.invert(fn, y)
    assert fn(x) <= y * (1 + 1e-7) + 1e-12
    assert abs(x - y ** (1 / p)) <= 1e-6 * max(x, 1e-12)



"""Rate calculus: M_log, generalized inverses, predictions, positive increase."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phstab import rates as R
from phstab import spectral as sp
from phstab.errors import OutOfRange, ValidationError


def test_certificate_json_round_trip():
    cert = R.positive_increase_estimate(R.power_fn(2), [2, 10, 100], [1, 10, 100])
    assert isinstance(cert, R.PositiveIncreaseCertificate)
    assert R.PositiveIncreaseCertificate.from_json(cert.to_json()) == cert


@pytest.mark.parametrize("fields", [
    {"alpha_hat": "x", "c": None, "lambda_grid": "ab", "t_grid": "cd"},
    {"alpha_hat": True},
    {"alpha_hat": 0.0},
    {"alpha_hat": math.inf},
    {"c": 0.0},
    {"c": 1.5},
    {"c": "1"},
    {"lambda_grid": (2.0, math.nan)},
    {"t_grid": ("1",)},
    {"lambda_grid": (0.5, 2.0)},  # a lambda below 1 states no increase
])
def test_certificate_refuses_a_malformed_field(fields):
    good = {"alpha_hat": 2.0, "c": 1.0, "lambda_grid": (2.0,), "t_grid": (1.0,)}
    with pytest.raises(ValidationError):
        R.PositiveIncreaseCertificate(**{**good, **fields})


@pytest.mark.parametrize("edit, reason", [
    ({"kind": "positive-increase-refutation"}, "is not positive-increase-certificate"),
    ({"lambda_grid": "2"}, "must be JSON arrays"),
    ({"t_grid": {"1": 1}}, "must be JSON arrays"),
])
def test_certificate_json_refuses_another_kind_and_grids_that_are_no_arrays(edit, reason):
    cert = R.positive_increase_estimate(R.power_fn(2), [2, 10, 100], [1, 10, 100])
    with pytest.raises(ValidationError, match=reason):
        R.PositiveIncreaseCertificate.from_json(json.dumps({**json.loads(cert.to_json()), **edit}))


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
    with pytest.raises(OutOfRange):
        R.invert(fn, 0.1)
    with pytest.raises(OutOfRange):
        R.invert(fn, math.e**2 * (1 - 1e-12))
    assert R.invert(fn, math.e**2) == math.e


def test_invert_refuses_a_nan_target_and_names_an_overflowing_eta():
    m = R.power_fn(2)
    with pytest.raises(ValidationError, match="target y is nan"):
        R.invert(m, math.nan)  # was 0.0
    # x**2 overflows at eta = 2^512 on the way up (an OverflowError before)
    with pytest.raises(ValidationError, match=r"fn\(1\.3407807929942597e\+154\) overflows"):
        R.invert(m, math.inf)
    with pytest.raises(ValidationError, match="overflows"):
        R.predict(m, "LowerBound", [1e308], C=10.0)  # C t = inf
    # on a bounded domain y = inf is above the range and clamps to hi
    assert R.invert(R.MonotoneFn(lambda x: x * x, lo=0.0, hi=10.0), math.inf) == 10.0


def test_invert_evaluates_fn_once_per_point():
    # the bracket [lo, hi] doubles from max(lo, 1): fn(lo) was evaluated
    # again at its first step, and fn(hi) again after the loop
    seen = []

    def square(x):
        seen.append(x)
        return x * x

    for fn, y in [(R.MonotoneFn(square, lo=1.5), 100.0),  # the bracket stops below the cap
                  (R.MonotoneFn(square, lo=1.5, hi=6.0), 100.0),  # clamped at hi
                  (R.MonotoneFn(square, lo=1.5, hi=6.0), 20.0)]:  # clamped, then bisected
        seen.clear()
        x = R.invert(fn, y)
        assert len(seen) == len(set(seen)), sorted(seen)
        assert x * x <= y < (x * (1 + 1e-8)) ** 2 or x == fn.hi


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
    with pytest.raises(ValidationError):
        R.predict(R.power_fn(2), "RSS-upper", [10.0])


def test_rss_upper_checks_that_fn_meets_its_certificate():
    # eta^2 meets the fit to eta^2 (to a few roundings) but not a claim of
    # alpha_hat = 3, and eta^2 on [1, 10] holds no point of that grid
    m = R.power_fn(2)
    fit = R.positive_increase_estimate(m, [2, 10, 100], [1, 10, 100])
    (t, bound), = R.predict(m, "RSS-upper", [1e2], certificate=fit).points
    assert bound == pytest.approx(0.1, rel=1e-9)
    steep = R.PositiveIncreaseCertificate(3.0, 1.0, (1.0, 2.0), (1.0, 10.0))
    with pytest.raises(ValidationError, match=r"fails at \(lambda, t\) = \(2\.0, 1\.0\)"):
        R.predict(m, "RSS-upper", [1e2], certificate=steep)
    short = R.MonotoneFn(lambda x: x**2, lo=1.0, hi=10.0)
    far = R.PositiveIncreaseCertificate(2.0, 1.0, (100.0,), (1.0, 10.0))
    with pytest.raises(ValidationError, match="no grid point"):
        R.predict(short, "RSS-upper", [50.0], certificate=far)
    # lambda = 1 is met by every c <= 1: a grid of no other lambda states nothing
    ones = R.PositiveIncreaseCertificate(2.0, 1.0, (1.0,), (1.0, 10.0))
    with pytest.raises(ValidationError, match="no grid point"):
        R.predict(m, "RSS-upper", [1e2], certificate=ones)


@pytest.mark.parametrize("fn, cert, message", [
    # fn(0) = 0 (a ZeroDivisionError before), and (1e200)^2 past the float
    # range (an OverflowError)
    (R.power_fn(2), R.PositiveIncreaseCertificate(2.0, 1.0, (2.0,), (0.0,)),
     r"at \(lambda, t\) = \(2\.0, 0\.0\) is not a finite number > 0"),
    (R.power_fn(2), R.PositiveIncreaseCertificate(2.0, 1.0, (1e200,), (1.0,)),
     r"at \(lambda, t\) = \(1e\+200, 1\.0\) is not a finite number > 0"),
    # a finite ratio against a c lambda^alpha_hat past the float range
    (R.MonotoneFn(lambda x: x, lo=1.0), R.PositiveIncreaseCertificate(2.0, 1.0, (1e200,), (1.0,)),
     r"certificate fails at \(lambda, t\) = \(1e\+200, 1\.0\).*= inf"),
], ids=["fn-zero", "ratio-overflow", "bound-overflow"])
def test_rss_upper_refuses_a_certificate_check_it_cannot_compute(fn, cert, message):
    with pytest.raises(ValidationError, match=message):
        R.predict(fn, "RSS-upper", [10.0], certificate=cert)


@pytest.mark.parametrize("lams, ts, message", [
    ([2], [0, 1], r"at \(lambda, t\) = \(2\.0, 0\.0\)"),  # fn(0) = 0
    ([1e200], [1.0], r"at \(lambda, t\) = \(1e\+200, 1\.0\)"),  # fn(1e200) overflows
    ([math.nan], [1.0], "grid entry nan"),  # a refutation of alpha_hat nan before
    ([2.0], [math.inf], "grid entry inf"),
    ([2.0], ["1"], "grid entry '1'"),
    ([0.5, 2.0], [1.0], "dilation factor 0.5 is below 1"),
    ([], [1.0], "no grid point"),  # "grids must be non-empty" before
], ids=["fn-zero", "overflow", "lambda-nan", "t-inf", "t-str", "lambda-below-1", "empty"])
def test_positive_increase_estimate_refuses_a_grid_it_cannot_fit(lams, ts, message):
    with pytest.raises(ValidationError, match=message):
        R.positive_increase_estimate(R.power_fn(2), lams, ts)


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



"""Boundary-matrix family, certified infima of h, growth curves, sandwich."""

import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from phstab import alpha_factory as af
from phstab import contfrac as cf
from phstab import diophantine as dio
from phstab import spectral as sp
from phstab.errors import InsufficientPrecision, OutOfRange, SingularMatrix
from phstab.intervals import (REDUCTION_RANGE, RealBall, cos_sin, float_down, float_up,
                              workprec)

THIRD = cf.ExplicitQuotients((0, 3))


def _det_oracle(alpha: float, t: float) -> complex:
    return 1.0 + 0.5 * (np.exp(1j * t) + np.exp(1j * alpha * t))


def _alpha_mpi(alpha, bits):
    """alpha's enclosure at bits as a raw mpmath interval."""
    return alpha.enclosure(bits).to_mpi(bits)


def _at(alpha, t, method, bits=256):
    """HEvaluator.<method> at t (a float or an interval) at bits, each raw
    interval it returns as an mpmath interval."""
    out = getattr(sp.HEvaluator(), method)(iv.mpf(t)._mpi_, _alpha_mpi(alpha, bits), bits)
    return [iv.make_mpf(x) for x in out] if method == "terms" else iv.make_mpf(out)


def _ends(x):
    """An interval's endpoints as (non-interval) mpmath numbers."""
    return [mpmath.mp.make_mpf(e) for e in x._mpi_]


def test_det_t_matches_closed_form():
    # D = |det T_t|^2 and F = ||T_t||_F^2 = 3 + cos t + cos(alpha t)
    a = math.sqrt(2)
    for t in (0.0, 1.0, 3.5, 17.0, 100.0):
        d, _, f, _ = _at(cf.SQRT2, t, "terms")
        assert abs(float(d.mid) - abs(_det_oracle(a, t)) ** 2) < 1e-12
        assert abs(float(f.mid) - (3 + math.cos(t) + math.cos(a * t))) < 1e-12
        assert max(d.delta, f.delta) / 2 < 1e-20


def test_det_t0_is_two():
    d, dd, f, df = _at(cf.SQRT2, 0.0, "terms")
    assert abs(float(d.mid) - 4.0) < 1e-30 and abs(float(f.mid) - 5.0) < 1e-30
    assert _ends(dd) == _ends(df) == [0, 0]


def test_terms_enclose_closed_forms_and_slopes():
    # D, F at 512 bits from the closed forms, D' and F' as their central
    # differences (step 2^-160: truncation and cancellation below 1e-90)
    with mpmath.workprec(512):
        al = mpmath.sqrt(2)

        def closed(t):
            e1, e2 = mpmath.expj(t), mpmath.expj(al * t)
            return abs(1 + (e1 + e2) / 2) ** 2, 3 + e1.real + e2.real

        for t in (0.3, 2.0, 9.0, 31.4, 3094.47):
            terms = _at(cf.SQRT2, t, "terms")
            x, h = mpmath.mpf(t), mpmath.mpf(2) ** -160
            up, down = closed(x + h), closed(x - h)
            for k, value in enumerate(closed(x)):
                lo, hi = _ends(terms[2 * k])
                assert lo <= value <= hi and hi - lo < 1e-60
                lo, hi = _ends(terms[2 * k + 1])
                slope = (up[k] - down[k]) / (2 * h)
                assert lo - 1e-90 <= slope <= hi + 1e-90 and hi - lo < 1e-60


def test_h_is_scaled_g():
    # h(t)^2 = |2 + e^{i pi t} + e^{i pi alpha t}|^2 = 4 g(pi t)^2: the inf
    # objective's mpmath terms against |det T|^2 at pi t and the 256-bit h
    ev = sp.HEvaluator()
    a = _alpha_mpi(cf.SQRT2, 256)
    with workprec(256):
        pi = iv.pi._mpi_
        for t in (0.7, 2.0, 5.3):
            f_lo, f_up, *_ = sp._w_terms_mp(ev, t, a, pi, 256)
            g2 = iv.make_mpf(ev.terms((iv.pi * t)._mpi_, a, 256)[0])
            assert f_lo <= 4 * g2.a and 4 * g2.b <= f_up
            assert f_lo <= _h_256("sqrt2", t) ** 2 <= f_up
            assert f_up - f_lo < 1e-12


def test_inv_norm_against_numpy_oracle():
    a = math.sqrt(2)
    M = np.full((2, 2), 0.5)
    for t in (0.5, 1.0, 9.0, 31.4):
        T = M @ np.diag([np.exp(1j * t), np.exp(1j * a * t)]) + np.eye(2)
        oracle = np.linalg.norm(np.linalg.inv(T), ord=2)
        norm = _at(cf.SQRT2, t, "inv_norm_iv")
        assert float(norm.a) - 1e-9 <= oracle <= float(norm.b) + 1e-9


def test_inv_norm_on_an_interval_where_the_discriminant_straddles_zero():
    # on [14.5, 15] the enclosure of F^2 - 4 D reaches below 0 while
    # |det|^2 stays above it; only its lower end is clamped to 0
    from mpmath.libmp import mpf_sign, mpi_mul, mpi_sub

    a, t = _alpha_mpi(cf.SQRT2, 128), iv.mpf([14.5, 15.0])._mpi_
    d, _, f, _ = sp.HEvaluator().terms(t, a, 128)
    disc = mpi_sub(mpi_mul(f, f, 128), mpi_mul(sp._FOUR, d, 128), 128)
    assert mpf_sign(disc[0]) < 0 < mpf_sign(d[0])
    norm = iv.make_mpf(sp.HEvaluator().inv_norm_iv(t, a, 128))
    M = np.full((2, 2), 0.5)
    for x in np.linspace(14.5, 15.0, 51):
        T = M @ np.diag([np.exp(1j * x), np.exp(1j * math.sqrt(2) * x)]) + np.eye(2)
        oracle = np.linalg.norm(np.linalg.inv(T), ord=2)
        assert float(norm.a) - 1e-9 <= oracle <= float(norm.b) + 1e-9


def test_inv_norm_singular_rational():
    t = 3 * iv.pi
    with pytest.raises(SingularMatrix):
        _at(THIRD, t, "inv_norm_iv")
    assert _at(THIRD, t, "terms")[0].b <= 1e-24


def test_sup_claims_a_singularity_only_for_odd_odd_alpha():
    # alpha = 1/3 and alpha = 1: T_t is singular at t = 3 pi and at t = pi
    with pytest.raises(SingularMatrix, match=r"contains 0 near t=9\.42477"):
        sp.growth_curve(THIRD, [10])
    with pytest.raises(SingularMatrix, match=r"contains 0 near t=3\.14159"):
        sp.growth_curve(cf.ExplicitQuotients((1,)), [10])
    # alpha = 1 + 2^-30 is no odd/odd ratio, so T_t is invertible for every
    # t; near t = pi, |det T_t| ~ 1e-18 lies below what float time resolves
    with pytest.raises(InsufficientPrecision,
                       match=r"\[0\.0, 10\.0\]: float time cannot resolve .* t=3\.14159"):
        sp.growth_curve(cf.ExplicitQuotients((1, 2**30)), [10])


def test_witness_time_and_g_certification():
    # g at the witness near pi*v for the odd/odd approximant 7/5 of sqrt(2)
    ball = sp.g_at_witness(cf.SQRT2, 7, 5)
    assert ball.lower > 0
    assert float(ball.err) < float(ball.lower) / 1e5


@pytest.mark.parametrize("u, v, value, err", [
    (7, 5, Fraction(858348919187238420605483642510140422809248718175529805335, 1 << 197),
     Fraction(897, 1 << 204)),
    (1393, 985, Fraction(1402313628749985380657368560271763461368815194471151667, 1 << 203),
     Fraction(50331649, 1 << 227)),
])
def test_g_at_witness_pinned(u, v, value, err):
    # the exact ball of the one det formula at the default 128 bits
    ball = sp.g_at_witness(cf.SQRT2, u, v)
    assert (ball.value, ball.err) == (value, err)


def test_no_call_reads_or_sets_the_global_iv_precision(monkeypatch):
    # each raw-interval call takes its precision as an argument: the engine's
    # mpmath fallbacks and g_at_witness's doubling loop leave iv.prec alone
    touched, prec = [], type(iv).prec
    monkeypatch.setattr(type(iv), "prec", property(
        lambda ctx: touched.append("read") or prec.fget(ctx),
        lambda ctx, n: touched.append(n) or prec.fset(ctx, n)))
    mp_terms, terms = [], sp.HEvaluator.terms
    monkeypatch.setattr(sp.HEvaluator, "terms",
                        lambda self, *a: mp_terms.append(1) or terms(self, *a))
    ca = af.construct(af.PowerLog(4, 0), 4096)
    u, v = next((c.p, c.q) for c in ca.table.convergents
                if c.p % 2 and c.q % 2 and c.q.bit_length() == 65)
    for call in (lambda: sp.growth_curve(cf.SQRT2, [1e5]),  # points the kernel cannot decide
                 lambda: sp.sandwich_report(cf.SQRT2, [1399999, 1400001]),  # pi t past 2^22
                 lambda: sp.inf_h_interval(cf.SQRT2, 1.4e6 - 1, 1.4e6 + 1),
                 lambda: sp.g_at_witness(ca.spec, u, v)):
        mp_terms.clear()
        call()
        assert mp_terms and touched == []


def test_mpmath_side_reads_two_phases(monkeypatch):
    # every mpmath evaluation of det T_t takes the phases of t and alpha t
    # from one mpi_cos_sin pass each; none forms (1 - alpha) t
    from mpmath.libmp import to_float

    from phstab import intervals

    angles = []
    cos_sin_pass = intervals.mpi_cos_sin
    monkeypatch.setattr(intervals, "mpi_cos_sin",
                        lambda x, prec: angles.append(x) or cos_sin_pass(x, prec))

    def pairs():
        got = [to_float(x[0]) for x in angles]
        angles.clear()
        return list(zip(got[::2], got[1::2])) if len(got) % 2 == 0 else None

    ev = sp.HEvaluator()
    a, t = _alpha_mpi(cf.SQRT2, 128), iv.mpf(2.5)._mpi_
    for evaluate in (lambda: ev.inv_norm_iv(t, a, 128),
                     lambda: sp._w_terms_mp(ev, 2.5, a, sp._ONE, 128),
                     lambda: sp._w_terms_mp(ev, 2.5, a, sp.enclose_pi(128), 128)):
        evaluate()
        (theta, phi), = pairs()
        assert phi == pytest.approx(math.sqrt(2) * theta, rel=1e-12)
    sp.g_at_witness(cf.SQRT2, 7, 5)
    doublings = pairs()
    assert doublings and all(phi == pytest.approx(math.sqrt(2) * theta, rel=1e-12)
                             for theta, phi in doublings)
    src = Path(sp.__file__).parent
    assert not hasattr(intervals, "ComplexIv")
    assert not [p.name for p in src.glob("*.py") if "ComplexIv" in p.read_text()]


def test_inf_h_interval_vs_dense_grid():
    a = math.sqrt(2)

    def h(t):
        return abs(2 + np.exp(1j * np.pi * t) + np.exp(1j * np.pi * a * t))

    for (lo, hi) in ((4.0, 6.0), (28.0, 30.0)):
        ci = sp.inf_h_interval(cf.SQRT2, lo, hi, tol=1e-8)
        grid = np.linspace(lo, hi, 200001)
        dense = h(grid).min()
        assert ci.lower - 1e-12 <= dense
        assert dense <= ci.upper + 1e-6
        assert ci.upper - ci.lower <= 1e-7


def test_growth_curve_monotone_and_bracketed():
    curve = sp.growth_curve(cf.SQRT2, [5.0, 10.0, 50.0, 100.0], tol=1e-3)
    ms = [(p.m_lower, p.m_upper) for p in curve.points]
    for lo, up in ms:
        assert 0 < lo <= up
    for i in range(len(ms) - 1):
        assert ms[i + 1][0] >= ms[i][0]
        assert ms[i + 1][1] >= ms[i][1]
    # sup over |t| <= eta dominates any sampled point, and the recorded
    # witness attains the certified lower bound (the resonance peaks are
    # far too narrow for a uniform grid to find)
    a = math.sqrt(2)
    M = np.full((2, 2), 0.5)

    def oracle(t):
        T = M @ np.diag([np.exp(1j * t), np.exp(1j * a * t)]) + np.eye(2)
        return np.linalg.norm(np.linalg.inv(T), ord=2)

    ts = np.linspace(0, 100.0, 20001)
    assert max(oracle(t) for t in ts) <= ms[-1][1] * (1 + 1e-6)
    w = curve.points[-1].witness
    assert oracle(w) >= ms[-1][0] * (1 - 1e-6)


def test_growth_curve_csv():
    curve = sp.growth_curve(cf.SQRT2, [10.0, 20.0], tol=1e-2)
    lines = curve.to_csv().strip().splitlines()
    assert lines[0] == "eta,m_lower,m_upper"
    assert len(lines) == 3
    # read back bit for bit; the CSV carries no witness
    again = sp.GrowthCurve.from_csv(curve.to_csv())
    assert again.points == tuple(sp.GrowthPoint(p.eta, p.m_lower, p.m_upper, 0.0)
                                 for p in curve.points)


def test_sandwich_constant_value():
    c = sp.sandwich_report(cf.SQRT2, [1])[0].constant
    expect = 36 * math.pi**2 / min((1 + math.sqrt(2)) ** 2, 1.0)
    assert c == pytest.approx(expect, rel=1e-12)


def test_sandwich_report_small_sweep():
    reports = sp.sandwich_report(cf.SQRT2, [1, 3, 5, 7, 9], tol=1e-6)
    assert all(r.upper_ok for r in reports)
    assert all(r.ratio_lo > 0 for r in reports)
    assert all(r.inf_lower <= r.constant * r.dist_upper**2 + 1e-6
               for r in reports)
    csv_lines = sp.sandwich_to_csv(reports).strip().splitlines()
    assert csv_lines[0].startswith("v,u,dist")
    assert len(csv_lines) == 6


def test_sandwich_upper_check_rounds_its_bound_up(monkeypatch):
    # at v = 25 (tol 1e-6) const d_up^2 + tol in round-to-nearest falls more
    # than one ulp below its exact value; an inf h between the two must not
    # refute the upper bound
    (r,) = sp.sandwich_report(cf.SQRT2, [25])
    nearest = r.constant * r.dist_upper * r.dist_upper + 1e-6
    exact = Fraction(r.constant) * Fraction(r.dist_upper) ** 2 + Fraction(1e-6)
    between = math.nextafter(nearest, math.inf)
    assert Fraction(nearest) < Fraction(between) < exact

    def fake(ball, work, windows, tols):
        return [sp.CertifiedInf(a, b, between, between, a) for a, b in windows]

    monkeypatch.setattr(sp, "_inf_windows", fake)
    (faked,) = sp.sandwich_report(cf.SQRT2, [25])
    assert faked.inf_lower == between and faked.upper_ok


class _NearZero(cf.IrrationalSpec):
    """alpha = 2^-300: every enclosure coarser than 2^-300 holds 0."""

    def enclosure(self, bits: int) -> RealBall:
        return RealBall(Fraction(1, 2**300), Fraction(1, 2**bits))


def test_sandwich_refines_each_v_and_widens_the_constant_for_a_ball_below_0():
    # the engine's ball holds 0, so it decides no nearest odd u (each v goes
    # through min_odd_dist) and the constant bounds (1 + alpha)^2 from below
    # over a ball that reaches below 0
    reports = sp.sandwich_report(_NearZero(), [1, 3])
    assert [r.u for r in reports] == [1, 1]
    assert all(r.upper_ok and r.constant >= sp._SANDWICH_CONST for r in reports)


def test_sandwich_rejects_even_v():
    with pytest.raises(OutOfRange):
        sp.sandwich_report(cf.SQRT2, [2])


@given(t=st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=30, deadline=None)
def test_det_enclosure_contains_oracle(t):
    a = math.sqrt(2)
    d, _, f, _ = _at(cf.SQRT2, t, "terms")
    oracle = abs(_det_oracle(a, t)) ** 2
    assert float(d.a) - 1e-9 <= oracle <= float(d.b) + 1e-9
    frob = 3 + math.cos(t) + math.cos(a * t)
    assert float(f.a) - 1e-9 <= frob <= float(f.b) + 1e-9


@given(v=st.integers(min_value=1, max_value=60).map(lambda k: 2 * k + 1))
@settings(max_examples=15, deadline=None)
def test_inv_norm_lower_bound_at_resonance(v):
    # near t = pi v with v odd, |det| is small, so the norm must exceed
    # sigma_max/|det| >= 1/(2|det|); just check the certified bracket is sane
    norm = _at(cf.SQRT2, math.pi * v, "inv_norm_iv")
    assert 0 < norm.a <= norm.b


def _mp(alpha):
    """alpha at the current mpmath precision: a Fraction, or "sqrt2"."""
    if alpha == "sqrt2":
        return mpmath.sqrt(2)
    return mpmath.mpf(alpha.numerator) / alpha.denominator


def _inv_norm_256(alpha, t: float):
    """||T_t^{-1}|| at 256 bits from the explicit inverse (2x2 identity
    sigma_max^2 = (|B|_F^2 + sqrt(|B|_F^4 - 4 |det B|^2)) / 2)."""
    with mpmath.workprec(256):
        a = _mp(alpha)
        e1, e2 = mpmath.expj(mpmath.mpf(t)), mpmath.expj(a * mpmath.mpf(t))
        B = mpmath.matrix([[1 + e1 / 2, e2 / 2], [e1 / 2, 1 + e2 / 2]]) ** -1
        fro = sum(abs(B[i, j]) ** 2 for i in range(2) for j in range(2))
        det = abs(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]) ** 2
        return mpmath.sqrt((fro + mpmath.sqrt(fro**2 - 4 * det)) / 2)


def _h_256(alpha, t: float):
    with mpmath.workprec(256):
        a = _mp(alpha)
        pt = mpmath.pi * mpmath.mpf(t)
        return abs(2 + mpmath.expj(pt) + mpmath.expj(a * pt))


@given(a=st.floats(min_value=1.1, max_value=1.95))
@settings(max_examples=8, deadline=None)
def test_brackets_contain_256bit_value_at_witness(a):
    digits = f"{a:.17f}"
    alpha = cf.DecimalLiteral(digits=digits, bits=256)
    exact = Fraction(digits)
    curve = sp.growth_curve(alpha, [6.0, 20.0], tol=1e-3)
    for p in curve.points:
        assert p.m_upper <= p.m_lower * (1 + 1e-3)
        assert p.m_lower <= _inv_norm_256(exact, p.witness) <= p.m_upper
    ci = sp.inf_h_interval(alpha, 2.0, 4.0, tol=1e-8)
    assert ci.upper - ci.lower <= 1e-8
    assert ci.lower <= _h_256(exact, ci.witness) <= ci.upper


def test_fallback_at_deep_resonance_and_beyond_reduction_range(monkeypatch):
    calls = {"inv_norm_iv": 0, "terms": 0, "phases": 0}

    def counted(name):
        orig = getattr(sp.HEvaluator, name)

        def wrapper(self, *args):
            calls[name] += 1
            return orig(self, *args)

        monkeypatch.setattr(sp.HEvaluator, name, wrapper)

    for name in calls:
        counted(name)
    visits, mp_rows = [0], []
    visit, w_terms_mp = sp._Sup.visit, sp._w_terms_mp

    def visit_counted(self, *args):
        visits[0] += 1
        return visit(self, *args)

    def recorded(ev, c, av, k, prec):
        mp_rows.append((visits[0], c, sys._getframe(1).f_code.co_name))
        return w_terms_mp(ev, c, av, k, prec)

    monkeypatch.setattr(sp._Sup, "visit", visit_counted)
    monkeypatch.setattr(sp, "_w_terms_mp", recorded)
    # alpha = 1 + 2^-20: near t = pi |det| falls to about 1e-12, where the
    # kernel's own pad (at least _SLACK = 2^-46 on w) is about a percent of
    # it, so points and cells go to mpmath; the bracket parks at the floor
    p = sp.growth_curve(cf.ExplicitQuotients((1, 2**20)), [10], tol=1e-3).points[0]
    # every mpmath evaluation is one _w_terms_mp call from _Engine.refill,
    # and no time goes there twice within a visit
    assert 0 < len(mp_rows) <= 24 and calls["inv_norm_iv"] == 0
    assert calls["terms"] == len(mp_rows)
    assert {caller for *_, caller in mp_rows} == {"refill"}
    assert len({(v, c) for v, c, _ in mp_rows}) == len(mp_rows)
    assert abs(p.witness - math.pi) < 1e-5
    assert p.m_lower <= _inv_norm_256(Fraction(2**20 + 1, 2**20), p.witness) <= p.m_upper
    # pi * t > 2^22: every visit goes to mpmath
    calls["phases"] = 0  # the sup fallbacks above read the phases too
    ci = sp.inf_h_interval(cf.SQRT2, 1.4e6 - 1, 1.4e6 + 1, tol=1e-6)
    # a cell whose visit went to mpmath is split one level per round, so
    # no more visits go there than with one-level rounds (64)
    assert 0 < calls["phases"] <= 64
    assert 0 < ci.upper - ci.lower <= 1e-6
    assert ci.lower <= _h_256("sqrt2", ci.witness) <= ci.upper


def test_results_on_the_mpmath_fallback_pinned():
    # pi t past 2^22: every visit goes to mpmath
    for (a, b), want in [
            ((1.4e6 - 1, 1.4e6 + 1), (1.5669477161026808, 1.566948607119939, 1399999.0)),
            ((1e7, 1e7 + 2), (0.0024369189671847825, 0.0024374912076514923,
                              10000000.984279633))]:
        ci = sp.inf_h_interval(cf.SQRT2, a, b)
        assert (ci.lower, ci.upper, ci.witness) == want
    # points whose decision the kernel's own rounding blocks
    p, = sp.growth_curve(cf.SQRT2, [1e5]).points
    assert (p.m_lower, p.m_upper, p.witness) == (
        311417769.2925109, 311729187.0618034, 18035.883344120426)
    # alpha = 1 + 2^-20: a point's lower bound reads the kernel's float
    # formula on the mpmath bounds; with inv_norm_iv, m_lower was `before`
    p, = sp.growth_curve(cf.ExplicitQuotients((1, 2**20)), [10]).points
    assert p.m_upper == 893310169600.0902
    before = 890957637094.0546
    assert before * (1 - 2.0**-47) <= p.m_lower <= before
    assert p.m_lower <= _inv_norm_256(Fraction(2**20 + 1, 2**20), p.witness)


def test_sandwich_distance_bracket_contains_exact_distance():
    alpha = cf.ExplicitQuotients((1,) + (2,) * 12)  # rational: exact distances
    x = alpha.enclosure(1).value
    for r in sp.sandwich_report(alpha, range(1, 40, 2)):
        exact = abs(r.v * x - r.u)
        assert Fraction(r.dist_lower) <= exact <= Fraction(r.dist_upper)


def _count_kernel_calls(monkeypatch):
    sizes = []
    orig = sp.cos_sin

    def counted(x, err):
        sizes.append(x.size)
        return orig(x, err)

    monkeypatch.setattr(sp, "cos_sin", counted)
    return sizes


def test_small_frontiers_split_several_levels_per_round(monkeypatch):
    # one frontier for all windows of a call, split several levels per round
    calls = _count_kernel_calls(monkeypatch)
    sp.sandwich_report(cf.SQRT2, range(1, 200, 2))
    assert len(calls) <= 100  # window by window: 408 calls
    calls.clear()
    sp.sandwich_report(cf.SQRT2, range(1, 1000, 2))
    assert len(calls) <= 150  # window by window: 2,035 calls
    calls.clear()
    sp.growth_curve(cf.SQRT2, [5, 10, 50, 100])
    assert len(calls) <= 10  # segment by segment: 16 calls


def test_multilevel_rounds_agree_with_one_level_rounds(monkeypatch):
    vs, etas = range(1, 200, 2), [5, 10, 50, 100]
    deep = (sp.sandwich_report(cf.SQRT2, vs), sp.growth_curve(cf.SQRT2, etas))
    monkeypatch.setattr(sp, "_ROUND_CELLS", 0)  # every round splits once
    flat = (sp.sandwich_report(cf.SQRT2, vs), sp.growth_curve(cf.SQRT2, etas))
    for x, y in zip(deep[0], flat[0]):
        assert x.inf_lower <= y.inf_upper and y.inf_lower <= x.inf_upper
        tol_v = min(1e-6, x.dist_lower**2 / 16)
        for r in (x, y):
            assert r.inf_upper - r.inf_lower <= tol_v * (1 + 1e-9)
    for p, q in zip(deep[1].points, flat[1].points):
        assert p.m_lower <= q.m_upper and q.m_lower <= p.m_upper
        for r in (p, q):
            assert r.m_upper <= r.m_lower * (1 + 1e-3)
            assert not r.upper_parked


def test_parked_upper_bounds_are_flagged():
    # an 8-digit sqrt 2: near the resonances the alpha enclosure, not the
    # cell width, bounds the slack, so cells park at the floor
    alpha = cf.DecimalLiteral("1.41421356", 24)
    start = time.perf_counter()
    curve = sp.growth_curve(alpha, [500, 5000], tol=1e-3)
    assert time.perf_counter() - start < 1.0
    assert all(p.upper_parked for p in curve.points)
    assert all(p.m_upper > p.m_lower * (1 + 1e-3) for p in curve.points)
    curve = sp.growth_curve(cf.SQRT2, [5, 10, 50, 100])
    assert not any(p.upper_parked for p in curve.points)


def test_frontier_cap_raises_instead_of_exhausting_memory(monkeypatch):
    # v = 33461 is an odd/odd denominator of sqrt 2 (u = 47321): float t
    # cannot resolve its resonance, and the open cells double every round
    monkeypatch.setattr(sp, "_MAX_FRONTIER", 256)
    with pytest.raises(InsufficientPrecision, match=r"\[33460\.0, 33462\.0\]"):
        sp.sandwich_report(cf.SQRT2, [33461])
    with pytest.raises(InsufficientPrecision, match=r"\[33460\.0, 33462\.0\]"):
        sp.sandwich_report(cf.SQRT2, [1, 3, 33461])


def test_frontier_cap_refuses_no_wide_call(monkeypatch):
    # a round of more than the cap is visited in slices, and a window may
    # keep open as many cells as it started with: many windows, or one
    # wide window, cost time, not a refusal
    vs, etas = range(1, 600, 2), [2000.0]
    wide = (sp.sandwich_report(cf.SQRT2, vs), sp.growth_curve(cf.SQRT2, etas))
    monkeypatch.setattr(sp, "_MAX_FRONTIER", 256)
    capped = (sp.sandwich_report(cf.SQRT2, vs), sp.growth_curve(cf.SQRT2, etas))
    for x, y in zip(wide[0], capped[0]):
        assert x.inf_lower <= y.inf_upper and y.inf_lower <= x.inf_upper
        assert y.inf_upper - y.inf_lower <= min(1e-6, y.dist_lower**2 / 16) * (1 + 1e-9)
    (p,), (q,) = wide[1].points, capped[1].points
    assert p.m_lower <= q.m_upper and q.m_lower <= p.m_upper
    assert not q.upper_parked and q.m_upper <= q.m_lower * (1 + 1e-3)


def test_one_run_over_many_windows_matches_one_window_runs():
    etas = [5.0, 10.0, 50.0, 100.0]
    for eta, p in zip(etas, sp.growth_curve(cf.SQRT2, etas).points):
        (q,) = sp.growth_curve(cf.SQRT2, [eta]).points
        assert p.m_lower <= q.m_upper and q.m_lower <= p.m_upper
        assert not p.upper_parked and p.m_upper <= p.m_lower * (1 + 1e-3)
    # resonant windows (odd/odd denominators 5, 29, 169, 985) among others
    vs = [1, 3, 5, 29, 41, 169, 985, 1001]
    for r in sp.sandwich_report(cf.SQRT2, vs):
        (s,) = sp.sandwich_report(cf.SQRT2, [r.v])
        assert (r.u, r.dist_lower, r.dist_upper) == (s.u, s.dist_lower, s.dist_upper)
        assert r.inf_lower <= s.inf_upper and s.inf_lower <= r.inf_upper
        tol_v = min(1e-6, r.dist_lower**2 / 16)
        for x in (r, s):
            assert x.inf_upper - x.inf_lower <= tol_v * (1 + 1e-9)
            assert x.upper_ok


def _covers(c, r, kids_c, kids_r):
    """The children, with the visits' radius inflation 2^-52 (|c'| + r'),
    cover [c - r, c + r] (exact arithmetic)."""
    order = np.argsort(kids_c)
    spans = []
    for x, y in zip(kids_c[order], kids_r[order]):
        x, y = Fraction(x), Fraction(y)
        rb = y + (abs(x) + y) / 2**52
        spans.append((x - rb, x + rb))
    lo, hi = Fraction(c) - Fraction(r), Fraction(c) + Fraction(r)
    if spans[0][0] > lo or spans[-1][1] < hi:
        return False
    return all(a1 <= b0 for (_, b0), (a1, _) in zip(spans, spans[1:]))


def test_split_covers_every_cell_within_the_round_size():
    rng = np.random.default_rng(7)
    n = 24
    r = rng.uniform(1e-9, 1.0, n) * rng.choice([1.0, 1e-6], n)
    c = rng.uniform(-3e4, 3e4, n)
    c[:3] = r[:3]  # cells touching 0
    c[3] = 0.3 * r[3]  # a cell across 0
    depth = rng.choice([1.0, 2.0, 3.0, 6.0, np.inf], n)
    for m in (1, 2, 5, n):
        kc, kr, kw = sp._split(c[:m], r[:m], np.arange(m), depth[:m])
        assert kc.size <= max(sp._ROUND_CELLS, 2 * m)
        for i in range(m):
            mine = kw == i
            levels = np.log2(r[i] / kr[mine])
            assert np.all(levels == levels[0]) and 1 <= levels[0] <= depth[i]
            if abs(c[i]) < 2 * r[i]:
                assert levels[0] == 1
            assert _covers(c[i], r[i], kc[mine], kr[mine])
    # with a floor no radius is halved below it, and a cell already below
    # it comes back whole (the visit then parks it)
    kc, kr, _ = sp._split(np.array([10.0]), np.array([1.0]), np.array([0]),
                          np.array([np.inf]), lambda c: np.full(c.shape, 0.1))
    assert kr.min() >= 0.05 and kc.size == 16
    kc, kr, kw = sp._split(np.array([10.0, 20.0]), np.array([1.0, 1.0]), np.arange(2),
                           np.full(2, np.inf), lambda c: np.where(c > 15, 5.0, 0.1))
    assert list(kc[kw == 1]) == [20.0] and list(kr[kw == 1]) == [1.0]
    assert _covers(10.0, 1.0, kc[kw == 0], kr[kw == 0])


# -- one enclosure per sandwich call ---------------------------------------

_CONSTRUCTED = af.construct(af.PowerLog(p=2, s=0), bit_budget=800).spec
_SHARED_BALL_ALPHAS = {
    "sqrt2": cf.SQRT2,
    "golden": cf.GOLDEN,
    "decimal78": cf.DecimalLiteral(  # sqrt 3 to 78 digits
        "1.73205080756887729352744634150587236694280525381038062805580697945193301690880", 250),
    "constructed": _CONSTRUCTED,
    "rational": cf.ExplicitQuotients((1, 3)),  # 4/3: v = 3, 9, ... tie
}


@pytest.mark.parametrize("name", list(_SHARED_BALL_ALPHAS))
def test_shared_ball_decides_like_min_odd_dist(name):
    # the sandwich's one ball, taken at its engine's precision, gives every
    # v the u and float bracket of min_odd_dist's own refinement
    alpha = _SHARED_BALL_ALPHAS[name]
    vs = list(range(1, 1000, 2))
    work = sp._bits_for(max(vs) + 1.0, 128)
    assert work >= 128 + max(vs).bit_length() + 8
    for v, got in zip(vs, dio.nearest_odd(alpha.enclosure(work), vs)):
        u, d = dio.min_odd_dist(alpha, v)
        assert got is not None
        assert (got[0], float_down(got[1]), float_up(got[2])) == (
            u, float_down(d.lower), float_up(d.upper))
    if name == "rational":  # ties go to the smaller u
        assert dio.min_odd_dist(alpha, 3)[0] == 3
        assert dio.nearest_odd(alpha.enclosure(1), [9])[0][:2] == (11, 1)


@pytest.mark.parametrize("name", ["golden", "constructed"])
def test_sandwich_rows_carry_min_odd_dist(name):
    alpha = _SHARED_BALL_ALPHAS[name]
    for r in sp.sandwich_report(alpha, range(1, 60, 2)):
        u, d = dio.min_odd_dist(alpha, r.v)
        assert (r.u, r.dist_lower, r.dist_upper) == (
            u, float_down(d.lower), float_up(d.upper))


def test_sandwich_on_a_capped_decimal_still_refines_and_raises():
    # 16 guaranteed bits cannot place 2^20 + 1 times alpha between two odd
    # integers: the v that the shared ball leaves open is refined as before
    coarse = cf.DecimalLiteral("1.4142135623730950488", 16)
    with pytest.raises(InsufficientPrecision, match="widest enclosure"):
        sp.sandwich_report(coarse, [3, 2**20 + 1])


@pytest.mark.parametrize("alpha, v, message", [
    # the paper's witness: the construction's capped enclosure ends at u/v
    (lambda: af.construct(af.ExpDecay(1), 4096).spec, 13271261,
     "v=13271261, u/v=14598387/13271261: alpha's enclosure does not separate"),
    # |alpha - 1| = 2^-600: its square is below the float range
    (lambda: cf.ExplicitQuotients((1, 2**600)), 1,
     "v=1, u/v=1/1: the odd distance is below the float range"),
], ids=["witness", "underflow"])
def test_zero_odd_distance_names_its_window(alpha, v, message):
    with pytest.raises(OutOfRange, match=message) as info:
        sp.sandwich_report(alpha(), [v])
    assert "tol must be positive" not in str(info.value)


@pytest.mark.parametrize("call", [
    lambda: sp.growth_curve(cf.SQRT2, [math.nan]),
    lambda: sp.growth_curve(cf.SQRT2, [10.0, math.inf]),
    lambda: sp.inf_h_interval(cf.SQRT2, 0.0, math.inf),
    lambda: sp.sandwich_report(cf.SQRT2, [2**1100 + 1]),
    lambda: sp.sandwich_report(cf.SQRT2, [2**53 + 1]),  # v + 1 > 2^53
])
def test_engine_rejects_times_floats_cannot_hold(call):
    with pytest.raises(OutOfRange, match="within 2\\^53"):
        call()


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda tol: sp.growth_curve(cf.SQRT2, [10.0], tol=tol),
    lambda tol: sp.sandwich_report(cf.SQRT2, [1, 3], tol=tol),
    lambda tol: sp.inf_h_interval(cf.SQRT2, 0.0, 2.0, tol=tol),
], ids=["growth", "sandwich", "inf"])
def test_engine_refuses_a_tol_that_is_not_positive_and_finite(call, tol):
    # an infinite tol gave an m_upper of inf, and a sandwich upper_ok that
    # cannot fail
    with pytest.raises(OutOfRange, match="tol must be positive and finite"):
        call(tol)


@pytest.mark.parametrize("bits", [3, 4, 5, 6])
@pytest.mark.parametrize("digits", ["0.3", "1.5", "2.25", "3.7"])
def test_sup_second_derivative_bounds_hold_over_the_ball(digits, bits):
    # F'' and R'' are bounded by 4 + 4 alpha^2 + 2 (1 - alpha)^2 and
    # 1 + alpha^2 for every alpha of the ball, not only its midpoint; both
    # are convex in alpha, so their largest value is at an end
    ball = cf.DecimalLiteral(digits, bits).enclosure(bits)
    sup = sp._Sup(ball, 128, [(0.0, 10.0)], [1e-3])
    ends = (ball.lower, ball.upper)
    assert sup.l2_det >= max(4 + 4 * a * a + 2 * (1 - a) ** 2 for a in ends)
    assert sup.l2_frob >= max(1 + a * a for a in ends)


def test_engine_start_takes_windows_up_to_2_to_the_53():
    ball, work = sp._engine_start(cf.SQRT2, [2**53], 1e-6)  # v = 2^53 - 1
    assert work == sp._bits_for(2.0**53, 128) and ball == cf.SQRT2.enclosure(work)


# 7 + 1/(1 + 1/999) = 7.999
_BELOW_8 = cf.ExplicitQuotients((7, 1, 999))


def test_alpha_just_below_8_runs():
    assert Fraction(7999, 1000) == _BELOW_8.value()
    (p,) = sp.growth_curve(_BELOW_8, [3.0]).points
    assert 1.0 <= p.m_lower <= p.m_upper < math.inf
    (r,) = sp.sandwich_report(_BELOW_8, [1])
    assert r.u == 7 and r.upper_ok
    ci = sp.inf_h_interval(_BELOW_8, 0.0, 2.0)
    assert 0.0 <= ci.lower <= ci.upper


@pytest.mark.parametrize("alpha", [
    cf.QuadraticSurd(D=1000),
    cf.ExplicitQuotients((8, 1000)),
    cf.DecimalLiteral("7.999", 4),  # digits below 8, ball past it
])
def test_alpha_past_8_is_rejected(alpha):
    for call in (lambda: sp.growth_curve(alpha, [10.0]),
                 lambda: sp.sandwich_report(alpha, [1]),
                 lambda: sp.inf_h_interval(alpha, 0.0, 2.0)):
        with pytest.raises(OutOfRange, match="past \\|alpha\\| = 8"):
            call()


def test_sandwich_takes_one_enclosure(monkeypatch):
    calls = []
    enclosure = cf.QuadraticSurd.enclosure

    def counted(self, bits):
        calls.append(bits)
        return enclosure(self, bits)

    monkeypatch.setattr(cf.QuadraticSurd, "enclosure", counted)
    reports = sp.sandwich_report(cf.SQRT2, range(1, 1000, 2))
    assert len(reports) == 500 and calls == [sp._bits_for(1000.0, 128)]


# -- kernel scales -----------------------------------------------------------


@pytest.mark.parametrize("name", ["sqrt2", "golden", "decimal24", "constructed"])
@pytest.mark.parametrize("work", [80, 204, 400])
def test_kernel_argument_error_covers_every_scale(name, work, monkeypatch):
    # |K t - fl(kf t)| <= err at both ends of each scale's interval, in
    # exact arithmetic, for t up to the kernel's reduction range
    alpha = {"decimal24": cf.DecimalLiteral("1.41421356", 24),
             **_SHARED_BALL_ALPHAS}[name]
    seen = []
    monkeypatch.setattr(sp, "cos_sin", lambda x, err: seen.append((x, err)) or cos_sin(x, err))
    ball = alpha.enclosure(work)
    lo, hi = ball.lower, ball.upper
    sup = sp._Sup(ball, work, [(0.0, 2.0)], [1e-3])
    inf = sp._Inf(ball, work, [(0.0, 2.0)], [1e-6])
    with workprec(work):
        pi = RealBall.from_mpi(iv.pi._mpi_)
    p_lo, p_hi = pi.lower, pi.upper
    ends = {sup: [(1, 1), (lo, hi)],
            inf: [(p_lo, p_hi), (p_lo * lo, p_hi * hi)]}
    rng = np.random.default_rng(work)
    for engine, intervals in ends.items():
        reach = REDUCTION_RANGE / max(abs(k) for k, _ in engine.scales)
        ts = np.concatenate([[reach, -reach, 1e-3, 0.0], rng.uniform(-reach, reach, 60),
                             rng.uniform(-100, 100, 20)])
        seen.clear()
        sp._phases(ts, engine.scales)
        ((x, err),) = seen
        n = len(intervals)
        for (k_lo, k_hi), xs, errs in zip(intervals, x.reshape(n, -1), err.reshape(n, -1)):
            for t, xf, e in zip(ts.tolist(), xs.tolist(), errs.tolist()):
                for k in (k_lo, k_hi):
                    assert abs(k * Fraction(t) - Fraction(xf)) <= Fraction(e)


# -- one float formula for det T_t -----------------------------------------


def test_growth_ladder_to_1e4_stays_in_the_kernel(monkeypatch):
    # |w|^2 from two phases keeps the kernel's own rounding below |det|^2
    # at the peak near t = 3094 (odd/odd approximant 1393/985): no point or
    # cell goes to mpmath. The cosine sum over t, alpha t and (1 - alpha) t
    # sent 46 points and 26 cells there and bounded 102,498 kernel elements.
    sizes = _count_kernel_calls(monkeypatch)
    mp = []
    terms = sp.HEvaluator.terms
    monkeypatch.setattr(sp.HEvaluator, "terms",
                        lambda self, *a: mp.append(1) or terms(self, *a))
    curve = sp.growth_curve(cf.SQRT2, [10, 100, 1000, 10000], tol=1e-3)
    assert mp == [] and sum(sizes) <= 70_000
    for p in curve.points:
        assert not p.upper_parked and p.m_upper <= p.m_lower * (1 + 1e-3)
    assert abs(p.witness - 3094.47) < 0.01
    assert p.m_lower <= _inv_norm_256("sqrt2", p.witness)


def test_eight_digit_sqrt2_closes_at_eta_50():
    # alpha's enclosure width 2^-24 allows the bracket within tol at eta 50
    (p,) = sp.growth_curve(cf.DecimalLiteral("1.41421356", 24), [50], tol=1e-3).points
    assert not p.upper_parked and p.m_upper <= p.m_lower * (1 + 1e-3)
    assert p.m_lower <= _inv_norm_256(Fraction("1.41421356"), p.witness) <= p.m_upper


def test_no_kernel_call_takes_more_than_two_scales(monkeypatch):
    seen = []
    phases = sp._phases
    monkeypatch.setattr(sp, "_phases",
                        lambda ts, scales: seen.append(len(scales)) or phases(ts, scales))
    sp.growth_curve(cf.SQRT2, [10, 100])
    sp.sandwich_report(cf.SQRT2, [1, 3, 5])
    sp.inf_h_interval(cf.SQRT2, 0.0, 2.0)
    assert seen and max(seen) == 2


@pytest.mark.parametrize("name", list(_SHARED_BALL_ALPHAS))
def test_w_terms_enclose_256bit_values(name):
    # F = |w|^2, F', R = 1 + Re w and R' / k for w = 2 + e^{ikt} +
    # e^{ik alpha t} at 256 bits, with k = 1 (the sup's scales) and k = pi
    # (the inf's), at both ends of alpha's ball
    ball = _SHARED_BALL_ALPHAS[name].enclosure(204)
    engines = {1.0: sp._Sup(ball, 204, [(0.0, 2.0)], [1e-3]),
               sp._PI_UP: sp._Inf(ball, 204, [(0.0, 2.0)], [1e-6])}
    rng = np.random.default_rng(len(name))
    ts = np.concatenate([[0.0, 985.0, 3094.47], rng.uniform(-1e3, 1e3, 30)])
    for k, engine in engines.items():
        ph, oor = sp._phases(ts, engine.scales)
        assert not oor.any()
        (f_lo, f_up, speed, r_lo, r_up, r_speed), _, _ = sp._w_terms(ph, engine.sa, k)
        assert np.all(f_up - f_lo <= 1e-9) and np.all(r_up - r_lo <= 1e-9)
        with mpmath.workprec(256):
            kk = mpmath.mpf(1) if k == 1.0 else mpmath.pi
            for end in (ball.lower, ball.upper):
                a = _mp(end)
                for i, t in enumerate(ts.tolist()):
                    x = kk * mpmath.mpf(t)
                    e1, e2 = mpmath.expj(x), mpmath.expj(a * x)
                    w, dw = 2 + e1 + e2, 1j * kk * (e1 + a * e2)
                    assert f_lo[i] <= abs(w) ** 2 <= f_up[i]
                    assert abs(2 * (w.conjugate() * dw).real) <= speed[i]
                    assert r_lo[i] <= 1 + w.real <= r_up[i]
                    assert abs(e1.imag + a * e2.imag) <= r_speed[i]


def test_alpha_width_spanning_det_zero_stays_in_the_kernel():
    # near t = 46235 the width 2^-24 of alpha's enclosure alone lets |det|
    # reach 0: the F bracket's width is then alpha's, to second order, so
    # the point stays in the kernel; mpmath would refuse its |det|^2
    # enclosure as touching zero
    (p,) = sp.growth_curve(cf.DecimalLiteral("1.41421356", 24), [50000]).points
    assert p.upper_parked and p.m_upper == math.inf
    assert p.m_lower <= _inv_norm_256(Fraction("1.41421356"), p.witness)

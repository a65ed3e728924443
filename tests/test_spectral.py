"""Boundary-matrix family, certified infima of h, growth curves, sandwich."""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phstab import contfrac as cf
from phstab import spectral as sp
from phstab.errors import InsufficientPrecision, OutOfRange, SingularMatrix

THIRD = cf.ExplicitQuotients((0, 3))


def _det_oracle(alpha: float, t: float) -> complex:
    return 1.0 + 0.5 * (np.exp(1j * t) + np.exp(1j * alpha * t))


def test_det_t_matches_closed_form():
    a = math.sqrt(2)
    for t in (0.0, 1.0, 3.5, 17.0, 100.0):
        d = sp.det_t(cf.SQRT2, t)
        mid = d.midpoint()
        assert abs(mid - _det_oracle(a, t)) < 1e-12
        assert d.max_err() < 1e-20


def test_det_t0_is_two():
    d = sp.det_t(cf.SQRT2, 0.0)
    assert abs(d.midpoint() - 2.0) < 1e-30


def test_h_is_scaled_g():
    # h(t) = |2 + e^{i pi t} + e^{i pi alpha t}| = 2 g(pi t)
    for t in (0.7, 2.0, 5.3):
        h = sp.h_eval(cf.SQRT2, t)
        g = sp.g_eval(cf.SQRT2, math.pi * t)
        assert abs(float(h.value) - 2.0 * float(g.value)) < 1e-12


def test_inv_norm_against_numpy_oracle():
    a = math.sqrt(2)
    M = np.full((2, 2), 0.5)
    for t in (0.5, 1.0, 9.0, 31.4):
        T = M @ np.diag([np.exp(1j * t), np.exp(1j * a * t)]) + np.eye(2)
        oracle = np.linalg.norm(np.linalg.inv(T), ord=2)
        ball = sp.inv_norm(cf.SQRT2, t)
        assert float(ball.lower) - 1e-9 <= oracle <= float(ball.upper) + 1e-9


def test_inv_norm_singular_rational():
    t = 3 * mpmath.iv.pi
    with pytest.raises(SingularMatrix):
        sp.inv_norm(THIRD, t)
    ball = sp.g_eval(THIRD, t)
    assert float(ball.upper) <= 1e-12


def test_witness_time_and_g_certification():
    # witness near pi*v for the odd/odd approximant 7/5 of sqrt(2)
    t_iv, delta = sp.witness_time(cf.SQRT2, 7, 5)
    t_mid = (float(t_iv.a) + float(t_iv.b)) / 2
    assert abs(t_mid - math.pi * 5) < 0.1
    ball = sp.g_at_witness(cf.SQRT2, 7, 5)
    assert ball.lower > 0
    assert float(ball.err) < float(ball.lower) / 1e5


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


def test_sandwich_constant_value():
    c = sp.sandwich_constant(cf.SQRT2)
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


def test_sandwich_rejects_even_v():
    with pytest.raises(OutOfRange):
        sp.sandwich_report(cf.SQRT2, [2])


@given(t=st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=30, deadline=None)
def test_det_enclosure_contains_oracle(t):
    a = math.sqrt(2)
    d = sp.det_t(cf.SQRT2, t)
    oracle = _det_oracle(a, t)
    assert float(d.re.a) - 1e-9 <= oracle.real <= float(d.re.b) + 1e-9
    assert float(d.im.a) - 1e-9 <= oracle.imag <= float(d.im.b) + 1e-9


@given(v=st.integers(min_value=1, max_value=60).map(lambda k: 2 * k + 1))
@settings(max_examples=15, deadline=None)
def test_inv_norm_lower_bound_at_resonance(v):
    # near t = pi v with v odd, |det| is small, so the norm must exceed
    # sigma_max/|det| >= 1/(2|det|); just check the certified bracket is sane
    ball = sp.inv_norm(cf.SQRT2, math.pi * v)
    assert 0 < float(ball.lower) <= float(ball.upper)


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
    calls = {"inv_norm_iv": 0, "phases": 0}

    def counted(name):
        orig = getattr(sp.HEvaluator, name)

        def wrapper(self, *args):
            calls[name] += 1
            return orig(self, *args)

        monkeypatch.setattr(sp.HEvaluator, name, wrapper)

    counted("inv_norm_iv")
    counted("phases")
    sizes = _count_kernel_calls(monkeypatch)
    mp_cells = []
    sup_terms_mp = sp._sup_terms_mp
    monkeypatch.setattr(sp, "_sup_terms_mp",
                        lambda *a: mp_cells.append(1) or sup_terms_mp(*a))
    # the peak near t = 3094 (odd/odd approximant 1393/985): |det|^2 is
    # below the kernel's own pad there, so its points go to mpmath
    p = sp.growth_curve(cf.SQRT2, [1e4], tol=1e-3).points[0]
    assert calls["inv_norm_iv"] > 0
    # rounds of large frontiers split one level: one-level rounds bound
    # 137,976 kernel elements here, and send 24 cells to mpmath
    assert sum(sizes) <= 1.05 * 137_976
    assert len(mp_cells) <= 24
    assert p.m_upper <= p.m_lower * (1 + 1e-3)
    assert abs(p.witness - 3094.47) < 0.01
    assert p.m_lower <= _inv_norm_256("sqrt2", p.witness)
    # pi * t > 2^22: every visit goes to mpmath
    ci = sp.inf_h_interval(cf.SQRT2, 1.4e6 - 1, 1.4e6 + 1, tol=1e-6)
    # a cell whose visit went to mpmath is split one level per round, so
    # no more visits go there than with one-level rounds (64)
    assert 0 < calls["phases"] <= 64
    assert 0 < ci.upper - ci.lower <= 1e-6
    assert ci.lower <= _h_256("sqrt2", ci.witness) <= ci.upper


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
    curve = sp.growth_curve(alpha, [50, 500], tol=1e-3)
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

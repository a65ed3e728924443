"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Each criterion prints ``PASS criterion N`` / ``FAIL criterion N`` with its
measured runtime, and asserts both the mathematical condition (at the
pinned tolerance) and the runtime budget.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from phstab import alpha_factory as af
from phstab import contfrac as cf
from phstab import diophantine as dio
from phstab import phs as P
from phstab import rates as R
from phstab import spectral as sp

SQRT2F = math.sqrt(2)


def _report(num: int, desc: str, ok: bool, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{verdict} criterion {num}: {desc} "
          f"[{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


# -- shared expensive computations ------------------------------------------


@pytest.fixture(scope="module")
def sandwich_sweep():
    start = time.monotonic()
    reports = sp.sandwich_report(cf.SQRT2, range(1, 1000, 2), tol=1e-6)
    return reports, time.monotonic() - start


@pytest.fixture(scope="module")
def exp_alpha():
    return af.construct(af.ExpDecay(beta=1), bit_budget=4096)


def test_criterion_01_convergent_exactness():
    start = time.monotonic()
    constructed = af.construct(af.PowerLog(p=2, s=0), bit_budget=800).spec
    ok = True
    for spec in (cf.SQRT2, cf.GOLDEN, constructed):
        table = cf.expand(spec, 50)
        ok = ok and len(table) == 51
        cs = table.convergents
        ok = ok and all(
            cs[n].p * cs[n + 1].q - cs[n + 1].p * cs[n].q == (-1) ** (n + 1)
            for n in range(50)
        )
        ok = ok and all(r.passed for r in cf.check_bounds(table))
    _report(1, "50 convergents: exact identity + strict two-sided bounds "
               "(sqrt2, golden, constructed; zero tolerance)",
            ok, time.monotonic() - start, 5.0)


def test_criterion_02_odd_odd_stream():
    start = time.monotonic()
    ok = True
    for spec in (cf.SQRT2, cf.GOLDEN):
        table = cf.expand(spec, 60)
        stream = dio.odd_odd_stream(table, 15)
        ok = ok and len(stream) == 15
        ok = ok and all(
            ap.err.upper < Fraction(2, ap.v**2) for ap in stream
        )
    _report(2, "first 15 odd/odd approximants satisfy |alpha - u/v| < 2/v^2 "
               "(exact rational enclosure)",
            ok, time.monotonic() - start, 5.0)


def test_criterion_03_sandwich_upper(sandwich_sweep):
    reports, elapsed = sandwich_sweep
    const = 36 * math.pi**2 / min((1 + SQRT2F) ** 2, 1.0)
    ok = len(reports) == 500
    for r in reports:
        ok = ok and r.upper_ok
        ok = ok and r.inf_lower <= const * r.dist_upper**2 + 1e-6
    _report(3, "sqrt2, odd v <= 999: certified inf h <= "
               "36pi^2/min{(1+sqrt2)^2,1} * dist^2 (tol 1e-6)",
            ok, elapsed, 120.0)


def test_criterion_04_sandwich_lower(sandwich_sweep):
    reports, elapsed = sandwich_sweep
    ratios = {1: [], 2: [], 3: []}
    for r in reports:
        ratios[len(str(r.v))].append(r.ratio_lo)
    minima = [min(v) for v in ratios.values()]
    ok = min(minima) > 0 and max(minima) < 10 * min(minima)
    print(f"  recorded per-decade minima of inf_h/dist^2: "
          f"{[round(m, 4) for m in minima]}")
    _report(4, "same sweep: min inf_h/dist^2 > 0 and stable (<10x) across "
               "v-decades", ok, elapsed, 120.0)


def test_criterion_05_quadratic_growth():
    start = time.monotonic()
    etas = [10.0, 31.6, 100.0, 316.0, 1000.0, 3162.0, 10000.0]
    curve = sp.growth_curve(cf.SQRT2, etas, tol=1e-3)
    mids = [0.5 * (p.m_lower + p.m_upper) for p in curve.points]
    xs = np.log([p.eta for p in curve.points])
    ys = np.log(mids)
    slope = np.polyfit(xs, ys, 1)[0]
    scaled = [m / e**2 for m, e in zip(mids, etas)]
    ok = abs(slope - 2.0) <= 0.1 and max(scaled) / min(scaled) < 1e3
    print(f"  slope={slope:.3f}, max/min m/eta^2={max(scaled)/min(scaled):.1f}")
    _report(5, "sqrt2: log-log slope of m_alpha = 2.0 +/- 0.1 and "
               "m/eta^2 spread < 1e3", ok, time.monotonic() - start, 300.0)


def test_criterion_06_rational_singularity():
    start = time.monotonic()
    s3 = P.universal_example(1.0 / 3.0)
    grid = sorted(list(np.linspace(0.0, 12.0, 25)) + [3 * math.pi])
    rep = P.stability_scan(s3, grid)
    ok = (rep.verdict == "grid singularity"
          and min(rep.abs_det) <= 1e-12
          and any(abs(t - 3 * math.pi) < 1e-12 for t in rep.singular_points))
    _report(6, "alpha = 1/3: |det T_{3pi}| <= 1e-12 and the stability scan "
               "flags it", ok, time.monotonic() - start, 1.0)


def test_criterion_07_construction_fidelity():
    start = time.monotonic()
    target = af.PowerLog(p=4, s=0)
    ca = af.construct(target, bit_budget=4096)
    qs = ca.table.quotients
    # independent high-precision oracle for the recursion
    ok = True
    with mpmath.workdps(400):
        q_prev = mpmath.mpf(1)
        for n in range(1, 7):
            a_n = int(2 * mpmath.ceil(
                1 / (mpmath.sqrt((mpmath.pi * q_prev) ** -4) * q_prev)))
            ok = ok and qs[n] == a_n
            q_prev = mpmath.mpf(ca.table.convergents[n].q)
    ok = ok and qs[1] == 20 and qs[2] == 396
    # certified g at the first 4 odd/odd witness times; the values underflow
    # doubles, so the fitted constant is accumulated in log space
    oo = [c for c in ca.table.convergents if c.p % 2 == 1 and c.q % 2 == 1]
    c_log = -math.inf
    for conv in oo[:4]:
        if conv.q == 1:
            continue  # witness time - pi < 0 there: bound holds trivially
        ball = sp.g_at_witness(ca.spec, conv.p, conv.q, bits=256)
        g_log = math.log(ball.upper.numerator) - math.log(ball.upper.denominator)
        c_log = max(c_log, g_log - target.log_value(math.pi * (conv.q - 1)))
    c_fit = math.exp(c_log)
    ok = ok and 0 < c_fit < 1e3
    print(f"  quotients {qs[:7]}, fitted C = {c_fit:.4f}")
    _report(7, "f = t^-4: first 6 quotients match the oracle recursion and "
               "g(t_v) <= C f(t_v - pi) at the odd/odd witness times with "
               "one fitted C < 1e3 at >= 256 bits",
            ok, time.monotonic() - start, 180.0)


def test_criterion_08_not_positive_increase(exp_alpha):
    start = time.monotonic()
    curve = sp.growth_curve(
        exp_alpha.spec, [5.0, 10.0, 50.0, 100.0, 500.0, 1000.0], tol=1e-3
    )
    fn = R.from_growth_curve(curve, "upper")
    res = R.positive_increase_estimate(fn, [10.0, 100.0, 200.0],
                                       [5.0, 10.0, 50.0])
    ok = isinstance(res, R.PositiveIncreaseRefutation)
    witness_ok = any(lam >= 10 and ratio < 2
                     for lam, _, ratio in res.witnesses) if ok else False
    if ok:
        print(f"  refutation witness (lambda, t, ratio): {res.witnesses[0]}")
    _report(8, "constructed alpha for f = exp(-t): m_alpha refutes positive "
               "increase across the large odd/odd gap "
               "(m(lambda eta)/m(eta) < 2 at lambda >= 10)",
            ok and witness_ok, time.monotonic() - start, 180.0)


def test_criterion_09_rate_formulas():
    start = time.monotonic()
    m = R.power_fn(2)
    cert = R.positive_increase_estimate(m, [2, 10, 100], [1, 10, 100])
    pred = R.predict(m, "RSS-upper", [1e2, 1e4, 1e6], C=1.0,
                     certificate=cert)
    ok = all(abs(b - t**-0.5) <= 1e-9 for t, b in pred.points)
    gl = R.m_log(R.power_log_fn(2, 2.1))
    ok = ok and all(
        abs(gl(R.invert(gl, y)) - y) <= 1e-6 * y for y in (1e2, 1e5, 1e9)
    )
    _report(9, "M = eta^2: RSS-upper bound(t) = 1/sqrt(t) to 1e-9; "
               "M = eta^2 (log eta)^{2+eps}: M_log round-trip to 1e-6 rel",
            ok, time.monotonic() - start, 1.0)


def test_criterion_10_phs_determinant_crosscheck():
    start = time.monotonic()
    system = P.universal_example(SQRT2F)
    ts = np.linspace(0.0, 100.0, 10000)
    worst = 0.0
    for t, d in zip(ts, np.linalg.det(P.boundary_matrices(system, ts))):
        # recorded convention: the ODE-layer determinant is the complex
        # conjugate of the analytic closed form
        worst = max(worst, abs(d - np.conj(P.det_closed_form(SQRT2F, float(t)))))
    ok = worst <= 1e-12
    print(f"  worst determinant deviation: {worst:.3e}")
    _report(10, "boundary_matrices reproduces det T_t = 1 + (e^{it} + "
                "e^{i alpha t})/2 within 1e-12 over 1e4 points "
                "(conjugate convention)", ok, time.monotonic() - start, 10.0)


def test_criterion_11_resolvent_self_consistency():
    start = time.monotonic()
    system = P.universal_example(SQRT2F)
    f = lambda xs: np.ones((len(xs), 2))
    ok = True
    floor = 1e-10  # roundoff floor of the 8th-order FD stencil
    for t in (1.0, 10.0, 100.0):
        ladder = [P.resolvent_solve(system, t, f, nodes=n,
                                    tol=math.inf).residual
                  for n in (128, 256, 512, 1024, 2048, 4096)]
        ok = ok and ladder[-1] <= 1e-8
        ok = ok and all(
            ladder[i + 1] <= ladder[i] or ladder[i] <= floor
            for i in range(len(ladder) - 1)
        )
    _report(11, "resolvent residuals <= 1e-8 at 2^12 nodes (t = 1, 10, 100) "
                "and monotone under doubling until the roundoff floor",
            ok, time.monotonic() - start, 30.0)


def test_criterion_12_characterisation_inequality():
    start = time.monotonic()
    system = P.universal_example(SQRT2F)
    rows = P.check_characterisation(system, list(range(1, 51)), nodes=1024)
    ok = len(rows) == 50 and all(r["lower_ok"] for r in rows)
    slack = min(r["C_tilde_bound"] / r["R_lower"] for r in rows)
    print(f"  minimal slack C~(|T^-1|+1)/R_lower = {slack:.2f}")
    _report(12, "probe lower bounds satisfy |R| <= C~(|T_t^{-1}| + 1) for "
                "t = 1..50", ok, time.monotonic() - start, 120.0)

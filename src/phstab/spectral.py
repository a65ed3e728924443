"""Boundary matrix of the universal example and certified optimization.

T_{t,alpha} = M diag(e^{it}, e^{i alpha t}) + I with M = (1/2)[[1,1],[1,1]],
det T = 1 + (e^{it} + e^{i alpha t})/2. The auxiliary functions are
h(t) = |2 + e^{i pi t} + e^{i pi alpha t}| and g(t) = h(t/pi)/2 = |det T_t|.
Infima of h and suprema of ||T_t^{-1}|| are bracketed by level-synchronous
branch-and-bound: each round bounds the whole surviving frontier with one
call of the float kernel ``intervals.cos_sin``, and sends to the mpmath
interval evaluation only what that kernel's own rounding pad cannot decide.
Every float a bracket reports is rounded outward, so every reported
lower/upper pair is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import iv

from .contfrac import IrrationalSpec, best_enclosure, required_bits
from .diophantine import min_odd_dist
from .errors import InsufficientPrecision, OutOfRange, SingularMatrix
from .intervals import (
    ComplexIv,
    RealBall,
    REDUCTION_RANGE,
    cos_sin,
    float_down,
    float_up,
    fraction_bounds,
    iv_hull,
    unit_phase,
    workprec,
)


class HEvaluator:
    """Encloses alpha and evaluates T_t, det, h, g, ||T^{-1}||.

    All methods assume they run inside ``workprec(bits)`` matching the
    ``alpha_at(bits)`` they use; the public wrappers below handle that.
    """

    def __init__(self, alpha: IrrationalSpec):
        self.alpha = alpha

    def alpha_at(self, bits: int):
        """Interval enclosure of alpha at >= bits accuracy (current prec);
        for a precision-capped source, its widest enclosure."""
        ball, _ = best_enclosure(self.alpha, bits)
        return iv_hull(ball.lower, ball.upper)

    # -- pointwise evaluations (call inside workprec) -----------------------

    def phases(self, t, a):
        """(e^{it}, e^{i alpha t}) for interval t, alpha enclosure a."""
        return unit_phase(t), unit_phase(a * t)

    def det_iv(self, t, a) -> ComplexIv:
        e1, e2 = self.phases(t, a)
        half = iv.mpf(1) / 2
        return ComplexIv(1 + half * (e1.re + e2.re), half * (e1.im + e2.im))

    def w_iv(self, t, a) -> ComplexIv:
        """w(t) = 2 + e^{i pi t} + e^{i pi alpha t}, so h = |w|."""
        e1, e2 = self.phases(iv.pi * t, a)
        return ComplexIv(2 + e1.re + e2.re, e1.im + e2.im)

    def inv_norm_iv(self, t, a):
        """Interval for ||T_t^{-1}|| = sigma_max / |det| over interval t."""
        ct, ca = iv.cos(t), iv.cos(a * t)
        cd = iv.cos((1 - a) * t)
        frob2 = 3 + ct + ca
        det2 = iv.mpf(3) / 2 + ct + ca + cd / 2
        if det2.a <= 0:
            raise SingularMatrix(f"|det|^2 enclosure {det2} touches zero at t={t}")
        disc = frob2 * frob2 - 4 * det2
        if disc.a < 0:
            disc = iv.mpf([0, max(float_up(disc), 0.0)])
        sigma2 = (frob2 + iv.sqrt(disc)) / 2
        return iv.sqrt(sigma2 / det2)


def _as_iv(t):
    """Accepts floats, Fractions, and ready-made interval values (so exact
    times like 3*iv.pi can be probed)."""
    if isinstance(t, Fraction):
        return iv.mpf(t.numerator) / iv.mpf(t.denominator)
    if hasattr(t, "_mpi_"):
        return t
    return iv.mpf(t)


def _bits_for(t_magnitude: float, bits: int) -> int:
    return required_bits(max(abs(t_magnitude), 1), bits)


def _at_point(alpha: IrrationalSpec, t, bits: int, fn):
    """fn(evaluator, t, alpha enclosure) at the working precision that
    ``bits`` accurate values at time t need."""
    ev = HEvaluator(alpha)
    work = _bits_for(float(t.mid) if hasattr(t, "_mpi_") else float(t), bits)
    with workprec(work):
        return fn(ev, _as_iv(t), ev.alpha_at(work))


def det_t(alpha: IrrationalSpec, t, bits: int = 128) -> ComplexIv:
    return _at_point(alpha, t, bits, lambda ev, ti, a: ev.det_iv(ti, a))


def h_eval(alpha: IrrationalSpec, t, bits: int = 128) -> RealBall:
    """h(t) = |2 + e^{i pi t} + e^{i pi alpha t}|."""
    return _at_point(alpha, t, bits, lambda ev, ti, a: ev.w_iv(ti, a).abs_ball())


def g_eval(alpha: IrrationalSpec, t, bits: int = 128) -> RealBall:
    """g(t) = h(t/pi)/2 = |det T_t|."""
    return _at_point(alpha, t, bits, lambda ev, ti, a: ev.det_iv(ti, a).abs_ball())


def inv_norm(alpha: IrrationalSpec, t, bits: int = 128) -> RealBall:
    return _at_point(alpha, t, bits,
                     lambda ev, ti, a: RealBall.from_iv(ev.inv_norm_iv(ti, a)))


def _witness(a, u: int, v: int):
    """(pi (v + delta), delta) with delta = -(v alpha - u)/(1 + alpha), for
    an alpha enclosure a at the current precision."""
    delta = -(v * a - u) / (1 + a)
    return iv.pi * (v + delta), delta


def witness_time(alpha: IrrationalSpec, u: int, v: int, bits: int = 128):
    """Enclosure of t0 = pi (v + delta), delta = -(v alpha - u)/(1 + alpha).

    This is the shifted time at which g comes within a constant factor of
    the odd distance; returned as (t_enclosure, delta_enclosure) at the
    caller's current precision policy.
    """
    # the precision of a time 4 v > |t0|
    return _at_point(alpha, 4 * v, bits, lambda ev, _, a: _witness(a, u, v))


def g_at_witness(alpha: IrrationalSpec, u: int, v: int, bits: int = 128) -> RealBall:
    """Certified g(pi (v + delta)) at the shifted odd/odd witness time.

    g there can be astronomically small (that is the point of the shifted
    time), so precision is doubled until the enclosure is relatively tight.
    """
    ev = HEvaluator(alpha)
    work = _bits_for(float(v) * 4, bits)
    while True:
        with workprec(work):
            a = ev.alpha_at(work)
            ball = ev.det_iv(_witness(a, u, v)[0], a).abs_ball()
        if ball.lower > 0 and ball.err < ball.lower / (1 << 20):
            return ball
        if work >= (1 << 20):
            raise InsufficientPrecision(
                f"g at the witness time for (u={u}, v={v}) is not separated "
                f"from 0 at {work} bits"
            )
        work *= 2


# -- float bounds shared by the kernel path and the mpmath fallback ---------

# Each O(1) quantity formed below from kernel values (|det|^2, the squared
# Frobenius norm, their slopes, w = 2 + e^{i pi t} + e^{i pi alpha t}) takes
# at most 12 float operations on terms of magnitude at most 8, so its
# rounding error is below 12 * 8 * 2^-53 < 2^-46.
_SLACK = 2.0**-46
# Relative allowance for the rounding of a handful (< 8) of operations on
# nonnegative terms.
_REL = 2.0**-50
_PI_UP = math.nextafter(math.pi, math.inf)


def _up(x):
    return np.nextafter(x, np.inf)


def _down(x):
    return np.nextafter(x, -np.inf)


def _sqrt_up(x):
    return _up(np.sqrt(x))


def _sqrt_down(x):
    return np.maximum(_down(np.sqrt(x)), 0.0)


def _minus_down(x, m):
    """A float <= x - m' for every m' within relative error 4u of the float
    m >= 0 (u = 2^-53), i.e. the subtraction rounded down."""
    return x - m - (np.abs(x) + m) * _REL


def _plus_up(x, m):
    """A float >= x + m' for every m' within relative error 4u of m >= 0."""
    return x + m + (np.abs(x) + m) * _REL


def _scale(k) -> tuple[float, float, float]:
    """(kf, own, width) for an interval constant k: |K - kf| <= own + width
    for every K in k. ``width`` is k's radius, which an interval evaluation
    pays too; ``own`` is the distance from its midpoint to the float kf."""
    lo, hi = fraction_bounds(k)
    mid = (lo + hi) / 2
    kf = float(mid)
    return kf, float_up(abs(mid - kf)), float_up((hi - lo) / 2)


_EXACT = (1.0, 0.0, 0.0)


def _phases(ts, scales):
    """cos/sin of K t for every scale K and time t in one kernel call.

    Returns per scale a tuple (cos, sin, pad_cos, pad_sin, wid_cos,
    wid_sin), and a mask of the times at which some K t leaves the
    kernel's reduction range. The wid_ terms are what K's enclosure width
    alone costs, that is, what an interval evaluation pays too."""
    at = np.abs(ts)
    xs, errs, wides = [], [], []
    for kf, own, wid in scales:
        x = kf * ts
        rnd = 0.0 if kf == 1.0 else 2.0**-52  # rounding of kf * t
        xs.append(x)
        errs.append((at * (own + wid) + np.abs(x) * rnd) * (1 + _REL))
        wides.append(at * wid)
    x = np.concatenate(xs)
    parts = cos_sin(x, np.concatenate(errs))
    n = len(ts)
    out = []
    for i, w in enumerate(wides):
        c, s, pc, ps = (v[i * n:(i + 1) * n] for v in parts)
        half = 0.5 * w * w
        out.append((c, s, pc, ps, np.abs(s) * w + half, np.abs(c) * w + half))
    oor = ~(np.abs(x) <= REDUCTION_RANGE).reshape(len(scales), n).all(axis=0)
    return out, oor


# A round bounds at most this many cells with one kernel call (unless its
# frontier alone is larger). ``cos_sin`` costs a flat ~100 us from 4 to 64
# elements (numpy's call overhead) and ~125 us at 256 (2-core Xeon,
# CPython 3.11, numpy 2.4), so a small frontier is split several levels
# down before it is bounded: the loops pay per round, not per cell. There,
# 128, 256 and 512 gave the same sandwich bench times, and 128 the best
# growth times with the fewest elements.
_ROUND_CELLS = 128


def _depth(own, wid, centred, back):
    """Levels each cell may be split in one round: about as many as keep
    the kernel's own rounding below the rest of its bound's slack (halving
    a cell about halves the slack), and one for a cell whose bound needed
    the mpmath evaluation, so that a round sends no more descendants there
    than a one-level split does."""
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.fmax(np.floor(np.log2(centred / (own - wid))), 1.0)
    # own <= wid: the kernel's own rounding never blocks the decision
    return np.where(back, 1.0, np.where(own > wid, k, np.inf))


def _descend(c, r, depth, floor=None):
    """Descendants of the cells (c, r), k >= 1 levels down, with their
    inherited ``depth``.

    Each level halves by c -/+ r/2, the same rounded operations as a
    one-level split, so the radius inflation ``rb`` of the visits covers
    every level. A level is taken only while the cell count stays at most
    ``_ROUND_CELLS`` (the first always), and halves only the cells whose
    ``depth`` exceeds it. With ``floor``, a cell whose radius is below
    floor(centre) is not halved; no level is taken once no cell can be
    halved."""
    level = 0
    while True:
        halve = depth > level
        if floor is not None:
            halve &= r >= floor(c)
        n = int(np.count_nonzero(halve))
        if not n or (level and c.size + n > _ROUND_CELLS):
            return c, r, depth
        if n == c.size:  # the usual case, without the masking
            r = r / 2
            c, r, depth = (np.concatenate([c - r, c + r]), np.concatenate([r, r]),
                           np.concatenate([depth, depth]))
        else:
            cs, rs, ds = c[halve], r[halve] / 2, depth[halve]
            c = np.concatenate([c[~halve], cs - rs, cs + rs])
            r = np.concatenate([r[~halve], rs, rs])
            depth = np.concatenate([depth[~halve], ds, ds])
        level += 1


# -- certified infimum of h ------------------------------------------------


@dataclass(frozen=True)
class CertifiedInf:
    a: float
    b: float
    lower: float
    upper: float
    witness: float
    grid_step: float
    bits: int


def _h_terms(ph, sa):
    """Float bounds at the times of ``ph`` for F = h^2.

    Returns (F_lo, F_up, |F'|, own, wid): ``wid`` is the width of the F
    bracket that alpha's enclosure width alone causes (an interval
    evaluation pays it too), ``own`` the rest of its width, which is the
    kernel's own rounding."""
    (c1, s1, pc1, ps1, wc1, ws1), (c2, s2, pc2, ps2, wc2, ws2) = ph
    af, a_own, a_wid = sa
    a_err = a_own + a_wid
    ka = abs(af) + a_err
    w_re, w_im = 2.0 + c1 + c2, s1 + s2
    wr, wi = np.abs(w_re), np.abs(w_im)
    er, ei = pc1 + pc2 + _SLACK, ps1 + ps2 + _SLACK
    f_lo = (np.maximum(wr - er, 0.0) ** 2 + np.maximum(wi - ei, 0.0) ** 2) * (1 - _REL)
    f_up = ((wr + er) ** 2 + (wi + ei) ** 2) * (1 + _REL)
    wid = 4 * (wr * (wc1 + wc2) + wi * (ws1 + ws2))
    # F' = 2 Re(conj(w) w') with w' = pi (v_r + i v_i):
    # v_r = -(sin(pi t) + alpha sin(pi alpha t)), v_i = cos(..) + alpha cos(..)
    vr, vi = -(s1 + af * s2), c1 + af * c2
    evr = ps1 + ka * ps2 + a_err * (1 + ps2) + _SLACK
    evi = pc1 + ka * pc2 + a_err * (1 + pc2) + _SLACK
    dot = np.abs(w_re * vr + w_im * vi)
    spread = (wr * evr + np.abs(vr) * er + er * evr
              + wi * evi + np.abs(vi) * ei + ei * evi)
    speed = 2 * _PI_UP * (dot + spread + 2.0**-44) * (1 + _REL)
    return f_lo, f_up, speed, f_up - f_lo - wid, wid


def _h_terms_mp(ev: HEvaluator, c: float, av):
    """The same bounds from the mpmath interval evaluation at c: F = |w|^2
    with w = 2 + e^{i pi t} + e^{i pi alpha t}, and F' = 2 Re(conj(w) w')
    with w' = i pi e^{i pi t} + i pi alpha e^{i pi alpha t}."""
    e1, e2 = ev.phases(iv.pi * iv.mpf(c), av)
    w = ComplexIv(2 + e1.re + e2.re, e1.im + e2.im)
    wp = ComplexIv(-iv.pi * (e1.im + av * e2.im), iv.pi * (e1.re + av * e2.re))
    f, fp = w.abs2(), 2 * (w.conj() * wp).re
    return max(float_down(f), 0.0), float_up(f), float_up(abs(fp))


def inf_h_interval(
    alpha: IrrationalSpec, a: float, b: float, tol: float = 1e-6, bits: int = 128
) -> CertifiedInf:
    """Bracket inf_{t in [a,b]} h(t) to within tol.

    Branch-and-bound on F = h^2 with the second-order midpoint bound
    F(t) >= F(c) - |F'(c)| r - L2 r^2 / 2 on |t - c| <= r, where
    L2 >= sup |F''| = 2 pi^2 ((1+alpha)^2 + 4 (1+alpha^2)).

    Level-synchronous: each round visits the descendants k levels down of
    every open cell (point bound at each descendant's centre plus its cell
    bound) with one ``cos_sin`` call; k >= 1 comes from the frontier size
    (see ``_descend``), and a cell whose last visit went to mpmath, or
    whose slack would fall below the kernel's own rounding, is split fewer
    levels (see ``_depth``). A cell is closed when pruned (bound >= the best
    upper bound) or done (sqrt(best) - sqrt(bound) <= tol, rounded
    outward). A visit goes to the mpmath evaluation when an argument leaves
    the kernel's reduction range, or when its cell stays open and the
    kernel's own rounding is the larger part of the bound's slack, so that
    splitting cannot close it. Alpha's enclosure width counts with the
    slack: the mpmath evaluation pays it too.
    """
    if not b > a:
        raise OutOfRange(f"degenerate interval [{a}, {b}]")
    if tol <= 0:
        raise OutOfRange("tol must be positive")
    ev = HEvaluator(alpha)
    work = _bits_for(max(abs(a), abs(b), 1.0), bits)
    with workprec(work):
        av = ev.alpha_at(work)
        a_hi = float_up(av)
        l2 = 2 * math.pi**2 * ((1 + a_hi) ** 2 + 4 * (1 + a_hi**2)) * 1.0000001
        s_pi, s_pia = _scale(iv.pi), _scale(iv.pi * av)
        sa = _scale(av)

        best_up = math.inf  # least certified upper bound on F at a point
        witness = a

        def is_open(lb, bu):
            return (lb < bu) & (_sqrt_up(bu) - _sqrt_down(np.maximum(lb, 0.0)) > tol)

        def visit(cs, rs):
            """Cell lower bounds and depths, updating best_up from the
            centres."""
            nonlocal best_up, witness
            ph, oor = _phases(cs, (s_pi, s_pia))
            rb = rs + (np.abs(cs) + rs) * 2.0**-52  # covers rounded centres
            f_lo, f_up, speed, own, wid = _h_terms(ph, sa)
            centred = speed * rb + 0.5 * l2 * rb * rb
            lb = _minus_down(f_lo, centred)
            if f_up.size and f_up.min() < best_up:
                i = int(np.argmin(f_up))
                best_up, witness = float(f_up[i]), float(cs[i])
            back = oor | (is_open(lb, best_up) & (own >= wid + centred))
            for i in np.flatnonzero(back):
                f_lo_i, f_up_i, speed_i = _h_terms_mp(ev, float(cs[i]), av)
                lb[i] = _minus_down(f_lo_i, speed_i * rb[i] + 0.5 * l2 * rb[i] ** 2)
                if f_up_i < best_up:
                    best_up, witness = f_up_i, float(cs[i])
            return lb, _depth(own, wid, centred, back)

        c0 = (a + b) / 2
        # A few extra seeds (radius 0) so best_up starts realistic.
        seeds = np.linspace(a, b, 17)
        lb, depth = visit(np.append(c0, seeds), np.append(b - c0, np.zeros(17)))
        c, r, lb, depth = np.array([c0]), np.array([b - c0]), lb[:1], depth[:1]
        finest = (b - a) / 2
        done_lo = math.inf
        while c.size:
            live = lb < best_up
            opened = is_open(lb, best_up)
            done = live & ~opened
            if done.any():
                done_lo = min(done_lo, float(lb[done].min()))
            c, r, depth = _descend(c[opened], r[opened], depth[opened])
            if not c.size:
                break
            finest = min(finest, float(r.min()))
            lb, depth = visit(c, r)
        lower = min(done_lo, best_up)

        return CertifiedInf(
            a=a,
            b=b,
            lower=float(_sqrt_down(max(lower, 0.0))),
            upper=float(_sqrt_up(best_up)),
            witness=witness,
            grid_step=finest,
            bits=work,
        )


# -- growth curve ----------------------------------------------------------


@dataclass(frozen=True)
class GrowthPoint:
    """``upper_parked``: m_upper came from cells parked at the subdivision
    floor, so it is certified but may sit more than tol above m_lower."""

    eta: float
    m_lower: float
    m_upper: float
    witness: float
    upper_parked: bool = False


@dataclass(frozen=True)
class GrowthCurve:
    alpha_json: dict
    tol: float
    bits: int
    points: tuple

    def to_csv(self) -> str:
        lines = ["eta,m_lower,m_upper"]
        for p in self.points:
            lines.append(f"{p.eta!r},{p.m_lower!r},{p.m_upper!r}")
        return "\n".join(lines) + "\n"


_MIN_CELL = 1e-13


def _sup_terms(ph, sa, sb):
    """Float bounds on |det|^2 = D, |D'|, F = ||T||_F^2 and |F'| at the times
    of ``ph`` (phases of t, alpha t, (1 - alpha) t).

    Returns ((D_lo, D_up, |D'|, F_lo, F_up, |F'|), own, wid), where ``wid``
    is the part of D's error that alpha's enclosure width causes (an
    interval evaluation pays it too) and ``own`` the rest, which is the
    kernel's own rounding."""
    (c1, s1, pc1, ps1, wc1, _), (c2, s2, pc2, ps2, wc2, _), (c3, s3, pc3, ps3, wc3, _) = ph
    (af, a_own, a_wid), (bf, b_own, b_wid) = sa, sb
    a_err, b_err = a_own + a_wid, b_own + b_wid
    d = 1.5 + c1 + c2 + 0.5 * c3
    ed = pc1 + pc2 + 0.5 * pc3 + _SLACK
    wid = wc1 + wc2 + 0.5 * wc3
    f = 3.0 + c1 + c2
    ef = pc1 + pc2 + _SLACK
    ka, kb = abs(af) + a_err, abs(bf) + b_err
    # D' = -(sin t + alpha sin(alpha t) + (1 - alpha) sin((1 - alpha) t) / 2)
    dd = (np.abs(s1 + af * s2 + 0.5 * bf * s3) + ps1 + ka * ps2 + 0.5 * kb * ps3
          + a_err * (1 + ps2) + 0.5 * b_err * (1 + ps3) + _SLACK)
    # F' = -(sin t + alpha sin(alpha t))
    df = np.abs(s1 + af * s2) + ps1 + ka * ps2 + a_err * (1 + ps2) + _SLACK
    bounds = (np.maximum(d - ed, 0.0), np.minimum(d + ed, 4.0), dd,
              np.maximum(f - ef, 1.0), np.minimum(f + ef, 5.0), df)
    return bounds, ed - wid, wid


def _norm_up(d_lo, f_up):
    """Upper bound on ||T^{-1}|| = sqrt(sigma_max^2 / D) given D >= d_lo and
    F <= f_up, where sigma_max^2 = (F + sqrt(F^2 - 4 D)) / 2 rises with F
    and falls with D; inf where d_lo <= 0. F <= 5, so F^2 - 4D is off by
    less than 2^-47."""
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.maximum(f_up * f_up - 4 * d_lo, 0.0) + 2.0**-47
        up = np.sqrt((f_up + np.sqrt(disc)) * 0.5 / d_lo) * (1 + 2.0**-49)
    return np.where(d_lo > 0, up, np.inf)


def _norm_lo(d_up, f_lo):
    """Lower bound on ||T^{-1}|| given D <= d_up and F >= f_lo."""
    disc = np.maximum(f_lo * f_lo - 4 * d_up - 2.0**-47, 0.0)
    return np.sqrt((f_lo + np.sqrt(disc)) * 0.5 / d_up) * (1 - 2.0**-49)


def _sup_terms_mp(c: float, av):
    """The bounds of ``_sup_terms`` from the mpmath interval evaluation."""
    ti = iv.mpf(c)
    e1, e2 = unit_phase(ti), unit_phase(av * ti)
    e3 = unit_phase((1 - av) * ti)
    det2 = iv.mpf(3) / 2 + e1.re + e2.re + e3.re / 2
    ddet2 = -(e1.im + av * e2.im + (1 - av) * e3.im / 2)
    frob2 = 3 + e1.re + e2.re
    dfrob2 = -(e1.im + av * e2.im)
    return (max(float_down(det2), 0.0), float_up(det2), float_up(abs(ddet2)),
            float_down(frob2), min(float_up(frob2), 5.0), float_up(abs(dfrob2)))


def _sup_inv_norm(ev, av, a: float, b: float, tol: float, seed: float):
    """Bracket sup_{t in [a,b]} ||T_t^{-1}|| to relative width tol, unless
    parked cells hold the bound: returns (lower, upper, witness, parked).

    Cell bounds use the centered form v(c) +/- (|v'(c)| r + L r^2 / 2) for
    v = |det|^2 = 3/2 + cos t + cos(alpha t) + cos((1-alpha) t)/2 and for
    the squared Frobenius norm F = 3 + cos t + cos(alpha t); then
    ||T^{-1}||^2 = sigma_max^2 / |det|^2 with
    sigma_max^2 = (F + sqrt(F^2 - 4 |det|^2)) / 2.
    The centered form prunes geometrically near resonances, where naive
    interval extension would need O(|det|^-2) many cells.

    Level-synchronous: each round takes every cell whose bound exceeds the
    incumbent times (1 + tol), bounds the norm at all their centres and
    the descendants k levels down of each with one ``cos_sin`` call; k >= 1
    comes from the frontier size and is capped per cell as in
    ``inf_h_interval``. No cell is halved below the parking floor: a live
    cell there is parked, and its bound can become the segment's upper
    bound (reported as ``parked``). A point or cell goes
    to the mpmath evaluation when an argument leaves the kernel's reduction
    range, or when the kernel's own rounding blocks the decision: a point
    that might raise the incumbent, whose float bracket is wider than
    tol/4, and whose |det|^2 error is mostly the kernel's own; a cell whose
    bound exceeds the threshold and whose |det|^2 error is mostly the
    kernel's own, so that splitting cannot prune it. Alpha's enclosure
    width never counts as the kernel's own: the mpmath evaluation pays it
    too.
    """
    sa, sb = _scale(av), _scale(1 - av)
    scales = (_EXACT, sa, sb)
    af, bf = sa[0], sb[0]
    l2_det = (1 + af * af + bf * bf / 2) * 1.01  # >= sup |(|det|^2)''|
    l2_frob = (1 + af * af) * 1.01  # >= sup |F''|
    # Below this cell radius the alpha enclosure, not the cell width,
    # dominates the bound slack; further subdivision cannot help.
    a_err = sa[2]

    def floor(c):
        """Parking floor: a live cell below it is not halved."""
        return np.maximum(1e-13, 4 * a_err * (np.abs(c) + 1))

    best_lo = seed
    witness = a
    stuck_up = 0.0  # certified upper over cells parked at the floor

    def cell_up(terms, rb):
        d_lo, _, dd, _, f_up, df = terms
        d_cell = _minus_down(d_lo, dd * rb + 0.5 * l2_det * rb * rb)
        f_cell = np.minimum(_plus_up(f_up, df * rb + 0.5 * l2_frob * rb * rb), 5.0)
        return _norm_up(d_cell, f_cell)

    def evaluate(pts, cs, rs):
        """Raise the incumbent from the points; return upper bounds on the
        cells (cs, rs) and their depths."""
        nonlocal best_lo, witness
        n = len(pts)
        ts = np.concatenate([pts, cs])
        ph, oor = _phases(ts, scales)
        terms, own, wid = _sup_terms(ph, sa, sb)

        lo = _norm_lo(terms[1][:n], terms[3][:n])
        up = _norm_up(terms[0][:n], terms[4][:n])
        wide = up > lo * (1 + tol / 4)
        back = (up > best_lo) & (oor[:n] | (wide & (own[:n] >= wid[:n])))
        for i in np.flatnonzero(back):
            lo[i] = float_down(ev.inv_norm_iv(iv.mpf(float(pts[i])), av))
        if n and lo.max() > best_lo:
            i = int(np.argmax(lo))
            best_lo, witness = float(lo[i]), float(pts[i])

        # Centres are rounded floats: the radius covers the rounding.
        rb = rs + (np.abs(cs) + rs) * 2.0**-52
        cell = [x[n:] for x in terms]
        ub = cell_up(cell, rb)
        centred = cell[2] * rb + 0.5 * l2_det * rb * rb
        back = (ub > best_lo * (1 + tol)) & (
            oor[n:] | (own[n:] >= wid[n:] + centred)
            | ((rs < _MIN_CELL) & np.isinf(ub)))
        for i in np.flatnonzero(back):
            ub[i] = cell_up(_sup_terms_mp(float(cs[i]), av), rb[i])
            if np.isinf(ub[i]) and rs[i] < _MIN_CELL:
                raise SingularMatrix(
                    f"det enclosure contains 0 near t={cs[i]} (cell radius {rs[i]})"
                )
        return ub, _depth(own[n:], wid[n:], centred, back)

    # Float prescan seeds the incumbent near the true maximizer.
    grid = np.linspace(a, b, max(64, int((b - a) * 64)) + 1)
    ct, ca = np.cos(grid), np.cos(af * grid)
    det2g = np.maximum(1.5 + ct + ca + 0.5 * np.cos(bf * grid), 1e-300)
    frob2g = 3.0 + ct + ca
    nvals = np.sqrt(
        (frob2g + np.sqrt(np.maximum(frob2g**2 - 4 * det2g, 0.0))) / (2 * det2g)
    )
    top = grid[np.argsort(nvals)[-4:]]

    step = min(1.0, b - a)
    cs, rs = [], []
    x = a
    while x < b:
        y = min(x + step, b)
        cs.append((x + y) / 2)
        rs.append((y - x) / 2)
        x = y
    c, r = np.array(cs), np.array(rs)
    ub, depth = evaluate(top, c, r)

    # Cells are dropped only once their upper bound is at most the current
    # incumbent times (1 + tol), and the incumbent never decreases, so on
    # exit best_lo * (1 + tol) is a certified upper bound for the segment.
    while True:
        live = ub > best_lo * (1 + tol)
        c, r, ub, depth = c[live], r[live], ub[live], depth[live]
        if not c.size:
            break
        park = r < floor(c)
        cc, rr, _ = _descend(c[~park], r[~park], depth[~park], floor)
        ub_next, depth = evaluate(c, cc, rr)
        parked = ub[park]
        parked = parked[parked > best_lo * (1 + tol)]
        if parked.size:
            stuck_up = max(stuck_up, float(parked.max()))
        c, r, ub = cc, rr, ub_next

    parked = stuck_up > best_lo * (1 + tol)
    return best_lo, max(best_lo * (1 + tol), stuck_up), witness, parked


def growth_curve(
    alpha: IrrationalSpec, eta_list, tol: float = 1e-3, bits: int = 128
) -> GrowthCurve:
    """Bracket m_alpha(eta) = sup_{|t| <= eta} ||T_t^{-1}|| for each eta.

    Evenness of |det| and of the singular values under t -> -t reduces the
    range to [0, eta]; the sup is accumulated segment by segment so the
    monotone envelope is exact by construction.
    """
    etas = [float(e) for e in eta_list]
    if any(e <= 0 for e in etas) or any(
        e2 <= e1 for e1, e2 in zip(etas, etas[1:])
    ):
        raise OutOfRange("eta list must be positive and strictly increasing")
    if not tol > 0:  # with tol <= 0 no cell is ever dropped
        raise OutOfRange("tol must be positive")
    ev = HEvaluator(alpha)
    work = _bits_for(max(etas), bits)
    points = []
    with workprec(work):
        av = ev.alpha_at(work)
        run_lo, run_up, run_wit = 1.0, 1.0, 0.0  # ||T_0^{-1}|| = 1 exactly
        run_parked = False
        prev = 0.0
        for eta in etas:
            lo, up, wit, parked = _sup_inv_norm(ev, av, prev, eta, tol, seed=run_lo)
            if lo > run_lo:
                run_lo, run_wit = lo, wit
            if up > run_up:
                run_up, run_parked = up, parked
            points.append(
                GrowthPoint(eta=eta, m_lower=run_lo, m_upper=run_up,
                            witness=run_wit, upper_parked=run_parked)
            )
            prev = eta
    return GrowthCurve(
        alpha_json=alpha.to_json(), tol=tol, bits=work, points=tuple(points)
    )


# -- odd/odd sandwich ------------------------------------------------------


@dataclass(frozen=True)
class SandwichReport:
    v: int
    u: int
    dist_lower: float
    dist_upper: float
    inf_lower: float
    inf_upper: float
    ratio_lo: float
    ratio_hi: float
    constant: float
    upper_ok: bool


def sandwich_constant(alpha: IrrationalSpec) -> float:
    """36 pi^2 / min{(1+alpha)^2, 1} rounded up."""
    ev = HEvaluator(alpha)
    with workprec(96):
        a = ev.alpha_at(96)
        one_plus = (1 + a) * (1 + a)
        denom = one_plus.a if one_plus.a < 1 else iv.mpf(1)
        return float_up(36 * iv.pi * iv.pi / denom)


def sandwich_report(
    alpha: IrrationalSpec, odd_v_list, tol: float = 1e-6, bits: int = 128
) -> list[SandwichReport]:
    """Per odd v: min odd dist, certified inf of h on [v-1, v+1], ratios."""
    const = sandwich_constant(alpha)
    out = []
    for v in odd_v_list:
        v = int(v)
        if v <= 0 or v % 2 == 0:
            raise OutOfRange(f"v={v} is not a positive odd integer")
        u, dist = min_odd_dist(alpha, v, bits=bits)
        d_lo, d_up = float_down(dist.lower), float_up(dist.upper)
        # Near resonances inf h ~ dist^2 can sit far below an absolute tol,
        # which would zero out the lower ratio; tighten proportionally.
        tol_v = min(tol, d_lo * d_lo / 16)
        ci = inf_h_interval(alpha, v - 1.0, v + 1.0, tol=tol_v, bits=bits)
        ratio_lo = float(_down(ci.lower / _up(d_up * d_up)))
        ratio_hi = float(_up(ci.upper / _down(d_lo * d_lo)))
        upper_ok = ci.lower <= const * d_up * d_up + tol
        out.append(
            SandwichReport(
                v=v,
                u=u,
                dist_lower=d_lo,
                dist_upper=d_up,
                inf_lower=ci.lower,
                inf_upper=ci.upper,
                ratio_lo=ratio_lo,
                ratio_hi=ratio_hi,
                constant=const,
                upper_ok=upper_ok,
            )
        )
    return out


def sandwich_to_csv(reports: list[SandwichReport]) -> str:
    lines = ["v,u,dist,inf_lower,inf_upper,ratio_lo,ratio_hi"]
    for r in reports:
        d = (r.dist_lower + r.dist_upper) / 2
        lines.append(
            f"{r.v},{r.u},{d!r},{r.inf_lower!r},{r.inf_upper!r},"
            f"{r.ratio_lo!r},{r.ratio_hi!r}"
        )
    return "\n".join(lines) + "\n"

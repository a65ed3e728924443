"""Boundary matrix of the universal example and certified optimization.

T_{t,alpha} = M diag(e^{it}, e^{i alpha t}) + I with M = (1/2)[[1,1],[1,1]],
det T = 1 + (e^{it} + e^{i alpha t})/2. The auxiliary functions are
h(t) = |2 + e^{i pi t} + e^{i pi alpha t}| and g(t) = h(t/pi)/2 = |det T_t|.

Suprema of ||T_t^{-1}|| (``growth_curve``) and infima of h
(``sandwich_report``, ``inf_h_interval``) are bracketed by one
branch-and-bound engine (``_Engine``). It holds the cells of every window
(interval of t) of a call in flat arrays, centre, radius and window
index, so a whole eta ladder or sandwich sweep is one frontier. Each round
splits the open cells, bounds them with one call of the float kernel
``intervals.cos_sin``, and sends to the mpmath interval evaluation only
what that kernel's own rounding pad cannot decide. An objective (``_Sup``,
``_Inf``) supplies the terms, the cell bound, the close rule, the mpmath
fallback and how the windows' incumbents combine. Every float a bracket
reports is rounded outward, so every reported lower/upper pair is
certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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


def _scale(lo: Fraction, hi: Fraction) -> tuple[float, float, float]:
    """(kf, own, width) for a constant K in [lo, hi]: |K - kf| <= own + width.
    ``width`` is the radius of [lo, hi], which an interval evaluation pays
    too; ``own`` is the distance from its midpoint to the float kf."""
    mid = (lo + hi) / 2
    kf = float(mid)
    return kf, float_up(abs(mid - kf)), float_up((hi - lo) / 2)


def _phases(ts, scales):
    """cos/sin of K t for every scale K and time t in one kernel call.

    Returns per scale a tuple (cos, sin, pad_cos, pad_sin, wid_cos,
    wid_sin), and a mask of the times at which some K t leaves the
    kernel's reduction range. The wid_ terms are what K's enclosure width
    alone costs, that is, what an interval evaluation pays too."""
    k, own, wid = (np.array(v)[:, None] for v in zip(*scales))
    at, x = np.abs(ts), k * ts
    rnd = np.where(k == 1.0, 0.0, 2.0**-52)  # rounding of k t
    err = (at * (own + wid) + np.abs(x) * rnd) * (1 + _REL)
    c, s, pc, ps = (v.reshape(x.shape) for v in cos_sin(x.ravel(), err.ravel()))
    w = at * wid
    half = 0.5 * w * w
    oor = ~(np.abs(x) <= REDUCTION_RANGE).all(axis=0)
    return list(zip(c, s, pc, ps, np.abs(s) * w + half, np.abs(c) * w + half)), oor


# -- the terms of the two objectives ---------------------------------------


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


# -- one branch-and-bound engine for every window of a call -----------------

# A round bounds at most this many cells with one kernel call (unless its
# frontier alone is larger): ``cos_sin`` costs a flat ~100 us from 4 to 64
# elements and ~125 us at 256 (2-core Xeon, CPython 3.11, numpy 2.4), so a
# small frontier is split several levels down first. 128, 256 and 512 gave
# the same sandwich bench times, 128 the best growth times.
_ROUND_CELLS = 128
# A round is bounded in slices of this many cells and points (~400 bytes of
# kernel temporaries each), and a window that keeps more open after a round
# (or more than its roots, if those are more) raises InsufficientPrecision:
# at an unresolvable resonance, as in `phstab sandwich --surd 2 --odd-v
# 33461..33461` (peak 186 MB), a window's open cells double every round.
_MAX_FRONTIER = 1 << 18


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


def _split(c, r, w, depth, floor=None):
    """Descendants of the cells (c, r) of windows w, in one step: cell i
    becomes 2^k cells of radius r 2^-k centred at c + ((2j+1) 2^-k - 1) r,
    j < 2^k, with k = min(L, lim_i). L is the most levels whose cells fit
    in ``_ROUND_CELLS`` (at least 1); lim_i is the cell's ``depth``, with
    ``floor`` at most as many as keep each radius it halves at least
    floor(c) (none for a root already below), and 1 if |c| < 2 r. Radii
    and offsets are exact, so a centre is off by at most
    2^-53 (|c'| + |c' - c|), one rounded product and sum; the visits'
    inflation 2^-52 (|c'| + r') covers that when |c' - c| < r <= |c'|, as
    |c| >= 2 r ensures. One level (c -/+ r/2) has only the sum's error."""
    lim = depth if floor is None else np.minimum(
        depth, np.maximum(np.floor(np.log2(r / floor(c))) + 1, 0.0))
    lim = np.where(np.abs(c) >= 2 * r, lim, np.minimum(lim, 1.0))
    uniform = max(1, (_ROUND_CELLS // c.size).bit_length() - 1)
    low = lim.min()
    levels = max(1, int(min(low, uniform)))
    top = lim.max() if low < uniform else levels
    while levels < top and np.exp2(np.minimum(lim, levels + 1)).sum() <= _ROUND_CELLS:
        levels += 1
    if low >= levels:  # the general path's cells, by broadcast: 2 % off the
        # growth and sandwich bench wall_s (6 pairs each, 2-core Xeon)
        m = 1 << levels
        kids = c[:, None] + (np.arange(1 - m, m, 2) / m) * r[:, None]
        return kids.ravel(), np.repeat(r / m, m), np.repeat(w, m)
    m = np.exp2(np.minimum(lim, levels))
    counts = m.astype(np.intp)
    i = np.repeat(np.arange(c.size), counts)
    j = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return c[i] + ((2 * j + 1) / m[i] - 1) * r[i], r[i] / m[i], w[i]


def _improve(best, witness, vals, ts, w, reduce):
    """Move each window's incumbent best[k] and its witness to the ``reduce``
    (np.maximum or np.minimum) of its points' vals where strictly better."""
    new = best.copy()
    reduce.at(new, w, vals)
    hit = (new != best)[w] & (vals == new[w])
    best[w[hit]] = vals[hit]  # tied points write the same value
    witness[w[hit]] = ts[hit]


class _Engine:
    """One branch-and-bound run over the windows [a, b] of one alpha.

    Per window it holds tol, the incumbent (a point value) and its witness;
    the frontier is flat arrays of centres, radii, depths and windows,
    starting from the ``roots``. Each round of ``run`` splits the open
    cells of all windows (a root whose arguments leave the reduction range
    one level, any other as many as its last visit allows), bounds them
    and the points at their centres (and the ``seeds``, in the first
    round) with one ``_phases`` call per ``_MAX_FRONTIER`` of them, and
    keeps what ``close`` leaves open (see ``_MAX_FRONTIER`` for the cap).
    The windows share the rounds and the working precision, so a window's
    bracket (within its tol) depends on the others. A subclass is the
    objective: kernel ``scales``, ``floor``, ``visit`` (terms, cell bounds,
    mpmath fallback) and ``close``."""

    floor = None
    seeds = np.zeros(0), np.zeros(0, dtype=np.intp)

    def __init__(self, alpha: IrrationalSpec, ball: RealBall, windows, tol, init):
        self.ev, self.ball, self.windows = HEvaluator(alpha), ball, windows
        self.sa = _scale(ball.lower, ball.upper)
        self.tol = np.asarray(tol, dtype=float)
        self.best = np.full(len(windows), init)
        self.witness = np.array([a for a, _ in windows], dtype=float)

    @cached_property
    def av(self):
        """alpha's mpmath enclosure, built at the first visit that falls back."""
        return iv_hull(self.ball.lower, self.ball.upper)

    def run(self) -> None:
        c, r, w = self.roots
        reach = max(abs(k) for k, _, _ in self.scales)
        depth = np.where((np.abs(c) + r) * reach > REDUCTION_RANGE, 1.0, np.inf)
        pts, pts_w = self.seeds
        room = np.maximum(np.bincount(w, minlength=len(self.windows)), _MAX_FRONTIER)
        while c.size:
            c, r, w = _split(c, r, w, depth, self.floor)
            ts, rs, ws = (np.concatenate(x) for x in
                          ((c, pts), (r, np.zeros(pts.size)), (w, pts_w)))
            pts, pts_w = pts[:0], pts_w[:0]
            bound, depth = np.empty(c.size), np.empty(c.size)
            rb = rs + (np.abs(ts) + rs) * 2.0**-52  # covers rounded centres
            for i in range(0, ts.size, _MAX_FRONTIER):
                s = slice(i, i + _MAX_FRONTIER)
                n = max(c.size - i, 0)  # the slice's cells come first
                bound[s], depth[s] = self.visit(ts[s], rs[s], rb[s], ws[s], n,
                                                *_phases(ts[s], self.scales))
            keep = self.close(c, r, w, bound)
            c, r, w, depth = c[keep], r[keep], w[keep], depth[keep]
            held = np.bincount(w, minlength=room.size)
            k = np.argmax(held - room)
            if held[k] > room[k]:
                a, b = self.windows[k]
                raise InsufficientPrecision(
                    f"{self.what} on [{a}, {b}]: {held[k]} cells stay open after "
                    f"a round, past the cap of {room[k]}; float time cannot "
                    "resolve this window")


class _Sup(_Engine):
    """sup ||T_t^{-1}|| over consecutive segments of [0, eta_max].

    Cell bounds use the centred form v(c) +/- (|v'(c)| r + L r^2 / 2) for
    v = |det|^2 = 3/2 + cos t + cos(alpha t) + cos((1-alpha) t)/2 and for
    F = ||T||_F^2 = 3 + cos t + cos(alpha t), with ||T^{-1}||^2 =
    (F + sqrt(F^2 - 4 |det|^2)) / (2 |det|^2); near resonances it prunes
    geometrically, where naive interval extension needs O(|det|^-2) cells.
    Window k's incumbent is the best point of windows <= k (m(eta_k) is
    the sup over all of them); a cell closes once its bound is at most that
    times (1 + tol), and is parked, its bound kept, below the floor. The
    mpmath evaluation takes what leaves the reduction range, and what the
    kernel's own rounding (not alpha's width, which mpmath pays too) blocks:
    a point that might raise the incumbent, with a float bracket wider than
    tol/4 and a |det|^2 error mostly the kernel's own; a cell above the
    threshold whose |det|^2 error is mostly the kernel's own."""

    what = "sup of ||T_t^-1||"

    def __init__(self, alpha, ball, windows, tol):
        super().__init__(alpha, ball, windows, tol, 1.0)  # ||T_0^{-1}|| = 1
        self.sb = _scale(1 - ball.upper, 1 - ball.lower)
        self.scales = ((1.0, 0.0, 0.0), self.sa, self.sb)
        af, bf = self.sa[0], self.sb[0]
        self.l2_det = (1 + af * af + bf * bf / 2) * 1.01  # >= sup |(|det|^2)''|
        self.l2_frob = (1 + af * af) * 1.01  # >= sup |F''|
        self.stuck = np.zeros(len(windows))  # certified bound over parked cells
        # root cells of width 2 (the last of a window shorter): the first
        # round bounds cells of width <= 1
        edges = [np.append(np.arange(a, b, 2.0), b) for a, b in windows]
        self.roots = (np.concatenate([(e[1:] + e[:-1]) / 2 for e in edges]),
                      np.concatenate([(e[1:] - e[:-1]) / 2 for e in edges]),
                      np.repeat(np.arange(len(edges)), [e.size - 1 for e in edges]))

    def floor(self, c):
        """Below this radius alpha's enclosure dominates the slack."""
        return np.maximum(_MIN_CELL, 4 * self.sa[2] * (np.abs(c) + 1))

    def incumbent(self, w):
        return np.maximum.accumulate(self.best)[w]

    def _cell_up(self, terms, rb):
        d_lo, _, dd, _, f_up, df = terms
        d_cell = _minus_down(d_lo, dd * rb + 0.5 * self.l2_det * rb * rb)
        f_cell = np.minimum(_plus_up(f_up, df * rb + 0.5 * self.l2_frob * rb * rb), 5.0)
        return _norm_up(d_cell, f_cell)

    def visit(self, ts, rs, rb, w, n, ph, oor):
        """Raise the incumbents; upper bounds and depths of the n cells."""
        terms, own, wid = _sup_terms(ph, self.sa, self.sb)
        tol = self.tol[w]
        lo = _norm_lo(terms[1], terms[3])
        up = _norm_up(terms[0], terms[4])
        back = (up > self.incumbent(w)) & (oor | ((up > lo * (1 + tol / 4)) & (own >= wid)))
        for i in np.flatnonzero(back):
            lo[i] = float_down(self.ev.inv_norm_iv(iv.mpf(float(ts[i])), self.av))
        _improve(self.best, self.witness, lo, ts, w, np.maximum)

        cell, rb, own, wid = [x[:n] for x in terms], rb[:n], own[:n], wid[:n]
        ub = self._cell_up(cell, rb)
        centred = cell[2] * rb + 0.5 * self.l2_det * rb * rb
        back = (ub > self.incumbent(w[:n]) * (1 + tol[:n])) & (
            oor[:n] | (own >= wid + centred) | ((rs[:n] < _MIN_CELL) & np.isinf(ub)))
        for i in np.flatnonzero(back):
            ub[i] = self._cell_up(_sup_terms_mp(float(ts[i]), self.av), rb[i])
            if np.isinf(ub[i]) and rs[i] < _MIN_CELL:
                raise SingularMatrix(
                    f"det enclosure contains 0 near t={ts[i]} (cell radius {rs[i]})")
        return ub, _depth(own, wid, centred, back)

    def close(self, c, r, w, ub):
        """The cells that stay open; parked ones raise their window's bound."""
        live = ub > self.incumbent(w) * (1 + self.tol[w])
        park = live & (r < self.floor(c))
        np.maximum.at(self.stuck, w[park], ub[park])
        return live & ~park


class _Inf(_Engine):
    """inf h over each window to its tol, from its own incumbent (seeded at
    17 points). The cell bound on F = h^2 is the second-order midpoint bound
    F(t) >= F(c) - |F'(c)| r - L2 r^2 / 2 on |t - c| <= r, where
    L2 >= sup |F''| = 2 pi^2 ((1+alpha)^2 + 4 (1+alpha^2)). A cell closes
    when pruned (bound >= the window's least F at a point) or done
    (sqrt(best) - sqrt(bound) <= tol, rounded outward). A visit goes to the
    mpmath evaluation when an argument leaves the reduction range, or when
    its cell stays open and the kernel's own rounding is the larger part of
    the bound's slack (alpha's enclosure width counts with the slack)."""

    what = "inf of h"

    def __init__(self, alpha, ball, windows, tol):
        super().__init__(alpha, ball, windows, tol, math.inf)
        lo, hi = ball.lower, ball.upper
        p_lo, p_hi = fraction_bounds(iv.pi)
        prods = (p_lo * lo, p_lo * hi, p_hi * lo, p_hi * hi)
        self.scales = (_scale(p_lo, p_hi), _scale(min(prods), max(prods)))
        a_abs = float_up(max(abs(lo), abs(hi)))
        self.l2 = 2 * math.pi**2 * ((1 + a_abs) ** 2 + 4 * (1 + a_abs**2)) * 1.0000001
        self.done_lo = np.full(len(windows), math.inf)
        a, b = np.array(windows, dtype=float).T
        c0 = (a + b) / 2
        self.finest, self.roots = b - c0, (c0, b - c0, np.arange(len(windows)))
        self.seeds = (np.linspace(a, b, 17, axis=-1).ravel(),
                      np.repeat(np.arange(len(windows)), 17))

    def _open(self, lb, w):
        bu = self.best[w]
        return (lb < bu) & (_sqrt_up(bu) - _sqrt_down(np.maximum(lb, 0.0)) > self.tol[w])

    def visit(self, ts, rs, rb, w, n, ph, oor):
        """Lower the incumbents; lower bounds and depths of the n cells."""
        f_lo, f_up, speed, own, wid = _h_terms(ph, self.sa)
        centred = speed * rb + 0.5 * self.l2 * rb * rb
        lb = _minus_down(f_lo, centred)
        _improve(self.best, self.witness, f_up, ts, w, np.minimum)
        back = oor | (self._open(lb, w) & (own >= wid + centred))
        for i in np.flatnonzero(back):
            f_lo_i, f_up_i, speed_i = _h_terms_mp(self.ev, float(ts[i]), self.av)
            lb[i] = _minus_down(f_lo_i, speed_i * rb[i] + 0.5 * self.l2 * rb[i] ** 2)
            if f_up_i < self.best[w[i]]:
                self.best[w[i]], self.witness[w[i]] = f_up_i, ts[i]
        np.minimum.at(self.finest, w[:n], rs[:n])
        return lb[:n], _depth(own[:n], wid[:n], centred[:n], back[:n])

    def close(self, c, r, w, lb):
        """The cells that stay open; done ones lower their window's bound."""
        opened = self._open(lb, w)
        done = (lb < self.best[w]) & ~opened
        np.minimum.at(self.done_lo, w[done], lb[done])
        return opened


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


def _inf_windows(alpha: IrrationalSpec, windows, tols, bits: int):
    """Certified infima of h over each window [a, b] to its tol, from one
    engine run, and the alpha enclosure they used."""
    if any(not tol > 0 for tol in tols):
        raise OutOfRange("tol must be positive")
    work = _bits_for(max(max(abs(a), abs(b)) for a, b in windows), bits)
    ball, _ = best_enclosure(alpha, work)
    with workprec(work):
        inf = _Inf(alpha, ball, windows, tols)
        inf.run()
    lower = np.minimum(inf.done_lo, inf.best)
    return [CertifiedInf(a, b, float(_sqrt_down(max(lower[k], 0.0))),
                         float(_sqrt_up(inf.best[k])), float(inf.witness[k]),
                         float(inf.finest[k]), work)
            for k, (a, b) in enumerate(windows)], ball


def inf_h_interval(
    alpha: IrrationalSpec, a: float, b: float, tol: float = 1e-6, bits: int = 128
) -> CertifiedInf:
    """Bracket inf_{t in [a,b]} h(t) to within tol: a one-window run of the
    branch-and-bound engine (see ``_Inf`` and ``_Engine``)."""
    if not b > a:
        raise OutOfRange(f"degenerate interval [{a}, {b}]")
    return _inf_windows(alpha, [(a, b)], [tol], bits)[0][0]


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
        rows = [f"{p.eta!r},{p.m_lower!r},{p.m_upper!r}" for p in self.points]
        return "\n".join(["eta,m_lower,m_upper", *rows]) + "\n"


def growth_curve(
    alpha: IrrationalSpec, eta_list, tol: float = 1e-3, bits: int = 128
) -> GrowthCurve:
    """Bracket m_alpha(eta) = sup_{|t| <= eta} ||T_t^{-1}|| for each eta.

    Evenness of |det| and of the singular values under t -> -t reduces the
    range to [0, eta]. The segments between consecutive etas are the
    windows of one engine run (``_Sup``), and the sup is accumulated over
    them, so the monotone envelope is exact by construction."""
    etas = [float(e) for e in eta_list]
    if any(e <= 0 for e in etas) or any(b <= a for a, b in zip(etas, etas[1:])):
        raise OutOfRange("eta list must be positive and strictly increasing")
    if not tol > 0:  # with tol <= 0 no cell is ever dropped
        raise OutOfRange("tol must be positive")
    work = _bits_for(max(etas), bits)
    ball, _ = best_enclosure(alpha, work)
    windows = list(zip([0.0] + etas[:-1], etas))
    with workprec(work):
        sup = _Sup(alpha, ball, windows, [tol] * len(windows))
        sup.run()
    inc = np.maximum.accumulate(sup.best)
    ups = np.maximum(inc * (1 + tol), sup.stuck)
    points = []
    run_lo, run_up, run_wit, run_parked = 1.0, 1.0, 0.0, False  # ||T_0^{-1}|| = 1
    for k, eta in enumerate(etas):
        if sup.best[k] > run_lo:
            run_lo, run_wit = float(sup.best[k]), float(sup.witness[k])
        if ups[k] > run_up:
            run_up, run_parked = float(ups[k]), bool(sup.stuck[k] > inc[k] * (1 + tol))
        points.append(GrowthPoint(eta, run_lo, run_up, run_wit, run_parked))
    return GrowthCurve(alpha.to_json(), tol, work, tuple(points))


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


def _sandwich_constant(ball: RealBall) -> float:
    """36 pi^2 / min{(1+alpha)^2, 1} rounded up, for every alpha in ball."""
    lo, hi = 1 + ball.lower, 1 + ball.upper
    sq = min(lo * lo, hi * hi) if lo > 0 or hi < 0 else 0
    if not sq:
        return math.inf
    with workprec(96):
        pi_hi = fraction_bounds(iv.pi)[1]
    return float_up(36 * pi_hi * pi_hi / min(sq, 1))


def sandwich_constant(alpha: IrrationalSpec) -> float:
    """36 pi^2 / min{(1+alpha)^2, 1} rounded up."""
    return _sandwich_constant(best_enclosure(alpha, 96)[0])


def sandwich_report(
    alpha: IrrationalSpec, odd_v_list, tol: float = 1e-6, bits: int = 128
) -> list[SandwichReport]:
    """Per odd v: min odd dist, certified inf of h on [v-1, v+1], ratios.
    All v share one engine run: one alpha enclosure (which gives the
    sandwich constant too), its rounds and its working precision, so a
    row's certified bracket, within its tol, depends on the other v."""
    vs = [int(v) for v in odd_v_list]
    for v in vs:
        if v <= 0 or v % 2 == 0:
            raise OutOfRange(f"v={v} is not a positive odd integer")
    if not vs:
        return []
    dists = [(u, float_down(d.lower), float_up(d.upper))
             for u, d in (min_odd_dist(alpha, v, bits=bits) for v in vs)]
    # Near resonances inf h ~ dist^2 can sit far below an absolute tol,
    # which would zero out the lower ratio; tighten proportionally.
    tols = [min(tol, d_lo * d_lo / 16) for _, d_lo, _ in dists]
    infs, ball = _inf_windows(alpha, [(v - 1.0, v + 1.0) for v in vs], tols, bits)
    const = _sandwich_constant(ball)
    return [SandwichReport(v, u, d_lo, d_up, ci.lower, ci.upper,
                           float(_down(ci.lower / _up(d_up * d_up))),
                           float(_up(ci.upper / _down(d_lo * d_lo))),
                           const, ci.lower <= const * d_up * d_up + tol)
            for v, (u, d_lo, d_up), ci in zip(vs, dists, infs)]


def sandwich_to_csv(reports: list[SandwichReport]) -> str:
    rows = [f"{r.v},{r.u},{(r.dist_lower + r.dist_upper) / 2!r},{r.inf_lower!r},"
            f"{r.inf_upper!r},{r.ratio_lo!r},{r.ratio_hi!r}" for r in reports]
    return "\n".join(["v,u,dist,inf_lower,inf_upper,ratio_lo,ratio_hi", *rows]) + "\n"

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
what that kernel's own rounding pad cannot decide: the engine's one
fallback (``_Engine.refill``) overwrites those rows of the six float bounds,
and a visit computes every bound from the six, whoever filled them. An
objective (``_Sup``, ``_Inf``) gives the terms, the cell bound, the rule of
the fallback, the close rule and how the windows' incumbents combine. Every
float a bracket reports is rounded outward, so every reported lower/upper
pair is certified.

Both sides read det T_t from one formula over the two phases of t and
alpha t: the float kernel as w = 2 det T (``_w_terms``), the mpmath side
as det T itself (``HEvaluator.terms``), at time t for the sup and pi t for
the inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath.libmp import (fhalf, fone, from_int, fzero, mpf_sign, mpi_abs, mpi_add, mpi_div,
                          mpi_mul, mpi_neg, mpi_sqrt, mpi_str, mpi_sub)

from .contfrac import IrrationalSpec
from .diophantine import min_odd_dist, nearest_odd
from .errors import InsufficientPrecision, OutOfRange, SingularMatrix, ValidationError
from .intervals import (
    RealBall,
    REDUCTION_RANGE,
    cos_sin,
    enclose,
    enclose_pi,
    float_down,
    float_up,
    kernel_scale,
    unit_phase,
)

# the exact intervals of the constants the formulas take
_HALF, _ONE, _THREE, _FOUR = ((x, x) for x in (fhalf, fone, from_int(3), from_int(4)))


class HEvaluator:
    """Evaluates det T_t = 1 + (e^{it} + e^{i alpha t})/2 and ||T_t^{-1}||
    for a raw interval t and a raw enclosure a of alpha (``libmpi`` pairs)
    at prec bits, by one formula over the two phases (``terms``)."""

    def phases(self, t, a, prec):
        """((cos t, sin t), (cos alpha t, sin alpha t)) as raw intervals."""
        return unit_phase(t, prec), unit_phase(mpi_mul(a, t, prec), prec)

    def terms(self, t, a, prec):
        """Intervals (D, D', F, F'), D's lower end >= 0, for D = |det T_t|^2,
        F = ||T_t||_F^2 = 1 + 2 Re det T_t and their t-derivatives, with
        det' = i (e^{it} + alpha e^{i alpha t})/2."""
        (c1, s1), (c2, s2) = self.phases(t, a, prec)
        cs, sp = mpi_add(c1, c2, prec), mpi_add(s1, mpi_mul(a, s2, prec), prec)
        re = mpi_add(_ONE, mpi_mul(_HALF, cs, prec), prec)
        im = mpi_mul(_HALF, mpi_add(s1, s2, prec), prec)
        d = mpi_add(mpi_mul(re, re, prec), mpi_mul(im, im, prec), prec)
        if mpf_sign(d[0]) < 0:
            d = fzero, d[1]
        dd = mpi_sub(mpi_mul(im, mpi_add(c1, mpi_mul(a, c2, prec), prec), prec),
                     mpi_mul(re, sp, prec), prec)
        return d, dd, mpi_add(_THREE, cs, prec), mpi_neg(sp, prec)

    def inv_norm_iv(self, t, a, prec):
        """Interval for ||T_t^{-1}|| = sigma_max / |det| over interval t,
        with sigma_max^2 = (F + sqrt(F^2 - 4 D)) / 2."""
        det2, _, frob2, _ = self.terms(t, a, prec)
        if mpf_sign(det2[0]) <= 0:
            raise SingularMatrix(f"|det|^2 enclosure {mpi_str(det2, prec)} touches zero "
                                 f"at t={mpi_str(t, prec)}")
        disc = mpi_sub(mpi_mul(frob2, frob2, prec), mpi_mul(_FOUR, det2, prec), prec)
        if mpf_sign(disc[0]) < 0:  # F^2 - 4 D = (s1^2 - s2^2)^2: the upper end is >= 0
            disc = fzero, disc[1]
        sigma2 = mpi_mul(_HALF, mpi_add(frob2, mpi_sqrt(disc, prec), prec), prec)
        return mpi_sqrt(mpi_div(sigma2, det2, prec), prec)


def _bits_for(t_magnitude: float, bits: int) -> int:
    """Working precision for trig evaluation at times up to |t_magnitude|:
    ``bits`` plus the bits that argument reduction loses, plus 64 guard
    bits for cancellation."""
    mag = int(max(abs(t_magnitude), 1)) + 2
    return bits + 64 + mag.bit_length()


# A window ends at most here: floats hold every integer up to 2^53, so a
# sandwich window [v - 1, v + 1] is exact for v + 1 <= 2^53.
_T_MAX = 1 << 53
_ALPHA_MAX = 8  # the bound that ``_SLACK``'s rounding argument assumes


def _engine_start(alpha: IrrationalSpec, ends, tol: float) -> tuple[RealBall, int]:
    """alpha's ball and the working precision of one engine call whose
    windows end at the times ``ends``: 128 bits, plus what its largest |t|
    costs (``_bits_for``). Raises OutOfRange for a tol that is not positive
    and finite, an end that is not finite or lies past 2^53, and a ball
    that reaches past |alpha| = 8."""
    if not 0 < tol < math.inf:  # tol <= 0 drops no cell; an infinite one bounds nothing
        raise OutOfRange("tol must be positive and finite")
    reach = 0
    for t in ends:
        if not abs(t) <= _T_MAX:
            big = isinstance(t, int) and t.bit_length() > 64
            raise OutOfRange(f"window end {f'of {t.bit_length()} bits' if big else t} "
                             "is not a finite time within 2^53; float time "
                             "cannot hold the window")
        reach = max(reach, abs(t))
    work = _bits_for(reach, 128)
    ball = alpha.enclosure(work)
    lo, hi, den = ball.ends()
    if not (-_ALPHA_MAX * den <= lo and hi <= _ALPHA_MAX * den):
        raise OutOfRange(f"alpha's enclosure reaches past |alpha| = {_ALPHA_MAX}, "
                         "the bound of the engine's rounding argument")
    return ball, work


def g_at_witness(alpha: IrrationalSpec, u: int, v: int, bits: int = 128) -> RealBall:
    """Certified g(pi (v + delta)) at the shifted odd/odd witness time,
    delta = -(v alpha - u)/(1 + alpha).

    g there can be astronomically small (that is the point of the shifted
    time), so precision is doubled until the enclosure is relatively tight.
    """
    work = _bits_for(float(v) * 4, bits)
    while True:
        a, vi = alpha.enclosure(work).to_mpi(work), enclose(v, work)
        delta = mpi_div(mpi_sub(enclose(u, work), mpi_mul(vi, a, work), work),
                        mpi_add(_ONE, a, work), work)
        t = mpi_mul(enclose_pi(work), mpi_add(vi, delta, work), work)
        ball = RealBall.from_mpi(mpi_sqrt(HEvaluator().terms(t, a, work)[0], work))
        if ball.lower > 0 and ball.err < ball.lower / (1 << 20):
            return ball
        if work >= (1 << 20):
            raise InsufficientPrecision(
                f"g at the witness time for (u={u}, v={v}) is not separated "
                f"from 0 at {work} bits"
            )
        work *= 2


# -- float bounds shared by the kernel path and the mpmath fallback ---------

# Each O(1) quantity formed below from kernel values (the parts of
# w = 2 + e^{ikx} + e^{ik alpha x}, of its slope w' / k, and 1 + Re w)
# takes at most 12 float operations on terms of magnitude at most 8, so its
# rounding error is below 12 * 8 * 2^-53 = 96 * 2^-53. The slopes also take
# the error of alpha (af, wid) as wid alone, while |alpha - af| <= wid +
# 2^-53 |af| (``RealBall.scale`` rounds the midpoint to nearest): the rest,
# 2^-53 |af| (a sine or cosine times alpha's error is at most that error),
# is at most 8 * 2^-53 for |alpha| <= 8, which ``_engine_start`` enforces.
# Both fit in 2^-46 = 128 * 2^-53.
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


def _phases(ts, scales):
    """cos/sin of K t for every scale K and time t in one kernel call.

    A scale is (kf, wid) from ``RealBall.scale`` or ``kernel_scale``: kf
    the float nearest K's midpoint, wid >= its radius. Returns per scale
    a tuple (cos, sin, pad_cos, pad_sin, wid_cos, wid_sin), and a mask of
    the times at which some K t leaves the kernel's reduction range. The
    wid_ terms are what K's enclosure width alone costs, that is, what an
    interval evaluation pays too.

    The argument error of x = fl(kf t) is |K t - x| <= |t| wid +
    2^-53 |kf t| + 2^-53 |x|: K's width, kf's rounding to nearest and the
    product's. ``rnd`` = 2^-52 takes the last two, as 2^-53 |kf t| <=
    2^-53 |x| (1 + 2^-53); (1 + _REL) takes what is left over and the
    rounding of err itself. kf = 1.0 is exact, and so is its product."""
    k, wid = (np.array(v)[:, None] for v in zip(*scales))
    at, x = np.abs(ts), k * ts
    rnd = np.where(k == 1.0, 0.0, 2.0**-52)
    err = (at * wid + np.abs(x) * rnd) * (1 + _REL)
    c, s, pc, ps = (v.reshape(x.shape) for v in cos_sin(x.ravel(), err.ravel()))
    w = at * wid
    half = 0.5 * w * w
    oor = ~(np.abs(x) <= REDUCTION_RANGE).all(axis=0)
    return list(zip(c, s, pc, ps, np.abs(s) * w + half, np.abs(c) * w + half)), oor


# -- the terms of the two objectives ---------------------------------------


def _w_terms(ph, sa, k):
    """Float bounds at the times x of ``ph`` (phases of k x and k alpha x)
    on F = |w|^2, R = 1 + Re w and their x-slopes, for
    w = 2 + e^{ikx} + e^{ik alpha x} = 2 det T_{kx}.

    Returns ((F_lo, F_up, |F'|, R_lo, R_up, |R'| / k), own, wid): ``wid``
    bounds the width of the F bracket that alpha's enclosure width alone
    causes (an interval evaluation pays it too; its square terms count
    where w is near 0), ``own`` the rest of its width, which is the
    kernel's own rounding. k is a float >= the slopes' factor."""
    (c1, s1, pc1, ps1, wc1, ws1), (c2, s2, pc2, ps2, wc2, ws2) = ph
    af, a_err = sa
    ka = abs(af) + a_err
    w_re, w_im = 2.0 + c1 + c2, s1 + s2
    wr, wi = np.abs(w_re), np.abs(w_im)
    er, ei = pc1 + pc2 + _SLACK, ps1 + ps2 + _SLACK
    f_lo = (np.maximum(wr - er, 0.0) ** 2 + np.maximum(wi - ei, 0.0) ** 2) * (1 - _REL)
    f_up = ((wr + er) ** 2 + (wi + ei) ** 2) * (1 + _REL)
    ewr, ewi = wc1 + wc2, ws1 + ws2
    wid = (4 * wr + ewr) * ewr + (4 * wi + ewi) * ewi
    # F' = 2 Re(conj(w) w') with w' = k (v_r + i v_i):
    # v_r = -(sin(kx) + alpha sin(k alpha x)), v_i = cos(..) + alpha cos(..)
    vr, vi = -(s1 + af * s2), c1 + af * c2
    evr = ps1 + ka * ps2 + a_err * (1 + ps2) + _SLACK
    evi = pc1 + ka * pc2 + a_err * (1 + pc2) + _SLACK
    dot = np.abs(w_re * vr + w_im * vi)
    spread = (wr * evr + np.abs(vr) * er + er * evr
              + wi * evi + np.abs(vi) * ei + ei * evi)
    speed = 2 * k * (dot + spread + 2.0**-44) * (1 + _REL)
    r_speed = np.abs(vr) + evr
    return (f_lo, f_up, speed, 1.0 + w_re - er, 1.0 + w_re + er, r_speed), f_up - f_lo - wid, wid


def _w_terms_mp(ev: HEvaluator, c: float, av, k, prec):
    """The bounds of ``_w_terms`` from the mpmath interval evaluation at c
    and prec bits, for k = [1, 1] or pi's enclosure: w = 2 det T_{kc}, so
    F(c) = 4 D(kc), F'(c) = 4 k D'(kc), and R(c) = ||T_{kc}||_F^2
    (``HEvaluator.terms``)."""
    d, dd, f, df = ev.terms(mpi_mul(k, enclose(c, prec), prec), av, prec)
    d4, dd4 = mpi_mul(_FOUR, d, prec), mpi_mul(mpi_mul(_FOUR, k, prec), dd, prec)
    return (max(float_down(d4), 0.0), float_up(d4), float_up(mpi_abs(dd4, prec)),
            float_down(f), float_up(f), float_up(mpi_abs(df, prec)))


_MIN_CELL = 1e-13


def _norm_up(f_lo, r_up):
    """Upper bound on ||T^{-1}|| given F = |w|^2 >= f_lo and R = ||T||_F^2
    <= r_up (``_w_terms`` at k = 1): ||T^{-1}||^2 = 2 (R + sqrt(R^2 - F)) / F
    rises with R in [1, 5] and falls with F; inf where f_lo <= 0. R <= 5, so
    R^2 - F is off by less than 2^-47."""
    r_up = np.minimum(r_up, 5.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        disc = np.maximum(r_up * r_up - f_lo, 0.0) + 2.0**-47
        up = np.sqrt((r_up + np.sqrt(disc)) * 2 / f_lo) * (1 + 2.0**-49)
    return np.where(f_lo > 0, up, np.inf)


def _norm_lo(f_up, r_lo):
    """Lower bound on ||T^{-1}|| given F <= f_up (> 0) and R >= r_lo."""
    r_lo = np.maximum(r_lo, 1.0)
    disc = np.maximum(r_lo * r_lo - f_up - 2.0**-47, 0.0)
    return np.sqrt((r_lo + np.sqrt(disc)) * 2 / f_up) * (1 - 2.0**-49)


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
    objective: kernel ``scales``, mpmath's ``k_mp``, ``floor``, ``visit``
    (bounds, and which rows ``refill`` takes) and ``close``."""

    floor = None
    seeds = np.zeros(0), np.zeros(0, dtype=np.intp)

    def __init__(self, ball: RealBall, work: int, windows, tol, init):
        self.ev, self.ball, self.work, self.windows = HEvaluator(), ball, work, windows
        self.sa, self.av = ball.scale(), ball.to_mpi(work)
        self.tol = np.asarray(tol, dtype=float)
        self.best = np.full(len(windows), init)
        self.witness = np.array([a for a, _ in windows], dtype=float)

    def refill(self, terms, ts, rows):
        """The mpmath fallback: ``_w_terms_mp`` at ``k_mp`` overwrites the
        ``rows`` (a mask) of ``_w_terms``' six bounds; returns their indices."""
        idx = np.flatnonzero(rows)
        for i in idx:
            for bound, x in zip(terms, _w_terms_mp(self.ev, float(ts[i]), self.av, self.k_mp,
                                                 self.work)):
                bound[i] = x
        return idx

    def run(self) -> None:
        c, r, w = self.roots
        reach = max(abs(k) for k, _ in self.scales)
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
    F = |w|^2 = 4 |det T_t|^2 and R = ||T_t||_F^2 = 1 + Re w, with w = 2 +
    e^{it} + e^{i alpha t} (``_w_terms`` at k = 1; L from the cosine forms
    of F and R), and ||T^{-1}||^2 = 2 (R + sqrt(R^2 - F)) / F
    (``_norm_up``); near resonances it prunes geometrically, where naive
    interval extension needs O(|det|^-2) cells.
    Window k's incumbent is the best point of windows <= k (m(eta_k) is
    the sup over all of them); a cell closes once its bound is at most that
    times (1 + tol), and is parked, its bound kept, below the floor.
    ``refill`` takes what leaves the reduction range, and what the kernel's
    own rounding (not alpha's width, which mpmath pays too) blocks: a point
    that might raise the incumbent, with a float bracket wider than tol/4
    and an F error mostly the kernel's own; a cell above the threshold
    whose F error is mostly the kernel's own, unless its point went. Both
    read ||T_t^{-1}|| from the same six bounds, whoever filled them."""

    what = "sup of ||T_t^-1||"
    k_mp = _ONE

    def __init__(self, ball, work, windows, tol):
        super().__init__(ball, work, windows, tol, 1.0)  # ||T_0^{-1}|| = 1
        self.scales = ((1.0, 0.0), self.sa)
        af, wid = self.sa
        a_abs, b_abs = abs(af) + wid, abs(1 - af) + wid  # >= |alpha|, |1 - alpha| on the ball
        self.l2_det = (4 + 4 * a_abs**2 + 2 * b_abs**2) * 1.01  # >= sup |F''|
        self.l2_frob = (1 + a_abs**2) * 1.01  # >= sup |R''|
        self.stuck = np.zeros(len(windows))  # certified bound over parked cells
        # root cells of width 2 (the last of a window shorter): the first
        # round bounds cells of width <= 1
        edges = [np.append(np.arange(a, b, 2.0), b) for a, b in windows]
        self.roots = (np.concatenate([(e[1:] + e[:-1]) / 2 for e in edges]),
                      np.concatenate([(e[1:] - e[:-1]) / 2 for e in edges]),
                      np.repeat(np.arange(len(edges)), [e.size - 1 for e in edges]))

    def floor(self, c):
        """Below this radius alpha's enclosure dominates the slack."""
        return np.maximum(_MIN_CELL, 4 * self.sa[1] * (np.abs(c) + 1))

    def incumbent(self, w):
        return np.maximum.accumulate(self.best)[w]

    def _cell_up(self, terms, rb):
        f_lo, _, speed, _, r_up, r_speed = terms
        f_cell = _minus_down(f_lo, speed * rb + 0.5 * self.l2_det * rb * rb)
        r_cell = _plus_up(r_up, r_speed * rb + 0.5 * self.l2_frob * rb * rb)
        return _norm_up(f_cell, r_cell)

    def visit(self, ts, rs, rb, w, n, ph, oor):
        """Raise the incumbents; upper bounds and depths of the cells (all rows)."""
        terms, own, wid = _w_terms(ph, self.sa, 1.0)
        tol = self.tol[w]
        lo, up = _norm_lo(terms[1], terms[3]), _norm_up(terms[0], terms[4])
        went = (up > self.incumbent(w)) & (oor | ((up > lo * (1 + tol / 4)) & (own >= wid)))
        pts = self.refill(terms, ts, went)
        if pts.size:
            lo = _norm_lo(terms[1], terms[3])
        _improve(self.best, self.witness, lo, ts, w, np.maximum)

        ub = self._cell_up(terms, rb)
        centred = terms[2] * rb + 0.5 * self.l2_det * rb * rb
        back = (ub > self.incumbent(w) * (1 + tol)) & (
            oor | (own >= wid + centred) | ((rs < _MIN_CELL) & np.isinf(ub)))
        cells = self.refill(terms, ts, back & ~went)  # no row goes twice
        if cells.size:
            ub = self._cell_up(terms, rb)
        for i in sorted((*pts, *cells)):
            if np.isinf(ub[i]) and rs[i] < _MIN_CELL:
                raise self._unresolved(w[i], ts[i], rs[i])
        return ub, _depth(own, wid, centred, back)

    def _unresolved(self, w, t, r):
        """What a |det T_t| enclosure that holds 0 on the cell (t, r) of
        window w raises: SingularMatrix where alpha is exactly p/q with p
        and q odd, so that T_t is singular at t = q pi; elsewhere T_t is
        invertible for every t and the enclosure's 0 is float time's."""
        v = self.ball.value
        if self.ball.err == 0 and v.numerator % 2 and v.denominator % 2:
            return SingularMatrix(f"det enclosure contains 0 near t={t} (cell radius {r})")
        a, b = self.windows[w]
        return InsufficientPrecision(
            f"{self.what} on [{a}, {b}]: float time cannot resolve |det T_t| "
            f"near t={t}, where its enclosure reaches 0; alpha is no odd/odd "
            "ratio, so T_t is invertible")

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
    (sqrt(best) - sqrt(bound) <= tol, rounded outward). A visit's row goes
    to ``refill`` when an argument leaves the reduction range, or when its
    cell stays open and the kernel's own rounding is the larger part of the
    bound's slack (alpha's enclosure width counts with the slack)."""

    what = "inf of h"

    def __init__(self, ball, work, windows, tol):
        super().__init__(ball, work, windows, tol, math.inf)
        # pi and pi alpha from alpha's one mpmath enclosure, at the run's work
        self.k_mp = enclose_pi(work)
        self.scales = kernel_scale(self.k_mp), kernel_scale(mpi_mul(self.k_mp, self.av, work))
        a_abs = float_up(mpi_abs(self.av, work))
        self.l2 = 2 * math.pi**2 * ((1 + a_abs) ** 2 + 4 * (1 + a_abs**2)) * 1.0000001
        self.done_lo = np.full(len(windows), math.inf)
        a, b = np.array(windows, dtype=float).T
        c0 = (a + b) / 2
        self.roots = c0, b - c0, np.arange(len(windows))
        # np.linspace(a, b, 17) per window, at a third of its cost
        seeds = a[:, None] + np.arange(17) * ((b - a) / 16)[:, None]
        seeds[:, -1] = b
        self.seeds = seeds.ravel(), np.repeat(np.arange(len(windows)), 17)

    def _open(self, lb, w):
        bu = self.best[w]
        return (lb < bu) & (_sqrt_up(bu) - _sqrt_down(np.maximum(lb, 0.0)) > self.tol[w])

    def visit(self, ts, rs, rb, w, n, ph, oor):
        """Lower the incumbents; lower bounds and depths of the n cells."""
        terms, own, wid = _w_terms(ph, self.sa, _PI_UP)
        centred = terms[2] * rb + 0.5 * self.l2 * rb * rb
        lb = _minus_down(terms[0], centred)
        _improve(self.best, self.witness, terms[1], ts, w, np.minimum)
        back = oor | (self._open(lb, w) & (own >= wid + centred))
        if self.refill(terms, ts, back).size:
            lb = _minus_down(terms[0], terms[2] * rb + 0.5 * self.l2 * rb * rb)
            _improve(self.best, self.witness, terms[1], ts, w, np.minimum)
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


def _inf_windows(ball: RealBall, work: int, windows, tols):
    """Certified infima of h over each window [a, b] to its tol, from one
    engine run at ``work`` bits on alpha's enclosure ``ball``."""
    inf = _Inf(ball, work, windows, tols)
    inf.run()
    lower = _sqrt_down(np.maximum(np.minimum(inf.done_lo, inf.best), 0.0))
    return [CertifiedInf(a, b, lo, up, wit)
            for (a, b), lo, up, wit in zip(windows, lower.tolist(),
                                           _sqrt_up(inf.best).tolist(),
                                           inf.witness.tolist())]


def inf_h_interval(alpha: IrrationalSpec, a: float, b: float,
                   tol: float = 1e-6) -> CertifiedInf:
    """Bracket inf_{t in [a,b]} h(t) to within tol: a one-window run of the
    branch-and-bound engine (see ``_Inf`` and ``_Engine``)."""
    if not b > a:
        raise OutOfRange(f"degenerate interval [{a}, {b}]")
    ball, work = _engine_start(alpha, (a, b), tol)
    return _inf_windows(ball, work, [(a, b)], [tol])[0]


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
    points: tuple

    def to_csv(self) -> str:
        rows = [f"{p.eta!r},{p.m_lower!r},{p.m_upper!r}" for p in self.points]
        return "\n".join(["eta,m_lower,m_upper", *rows]) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> GrowthCurve:
        """The curve :meth:`to_csv` writes, each witness 0 (the CSV has none)."""
        header, *lines = text.strip().splitlines()
        if header != "eta,m_lower,m_upper":
            raise ValidationError(f"header {header!r} is not eta,m_lower,m_upper")
        rows = [ln.split(",") for ln in lines]
        return cls(tuple(GrowthPoint(float(r[0]), float(r[1]), float(r[2]), 0.0)
                         for r in rows))


def growth_curve(alpha: IrrationalSpec, eta_list, tol: float = 1e-3) -> GrowthCurve:
    """Bracket m_alpha(eta) = sup_{|t| <= eta} ||T_t^{-1}|| for each eta.

    Evenness of |det| and of the singular values under t -> -t reduces the
    range to [0, eta]. The segments between consecutive etas are the
    windows of one engine run (``_Sup``), and the sup is accumulated over
    them, so the monotone envelope is exact by construction."""
    etas = [float(e) for e in eta_list]
    if any(e <= 0 for e in etas) or any(b <= a for a, b in zip(etas, etas[1:])):
        raise OutOfRange("eta list must be positive and strictly increasing")
    ball, work = _engine_start(alpha, etas, tol)
    windows = list(zip([0.0] + etas[:-1], etas))
    sup = _Sup(ball, work, windows, [tol] * len(windows))
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
    return GrowthCurve(tuple(points))


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


def _sandwich_bound(sq) -> float:
    """36 pi^2 / min{sq, 1} rounded up."""
    return float_up(36 * RealBall.from_mpi(enclose_pi(96)).upper ** 2 / min(sq, 1))


_SANDWICH_CONST = _sandwich_bound(1)  # (1+alpha)^2 >= 1 for every alpha >= 0


def _sandwich_constant(ball: RealBall) -> float:
    """36 pi^2 / min{(1+alpha)^2, 1} rounded up, for every alpha in ball."""
    if ball.value >= ball.err:  # the ball's lower end is >= 0
        return _SANDWICH_CONST
    lo, hi = 1 + ball.lower, 1 + ball.upper
    sq = min(lo * lo, hi * hi) if lo > 0 or hi < 0 else 0
    return _sandwich_bound(sq) if sq else math.inf


def sandwich_report(alpha: IrrationalSpec, odd_v_list,
                    tol: float = 1e-6) -> list[SandwichReport]:
    """Per odd v: min odd dist, certified inf of h on [v-1, v+1], ratios.
    All v share one alpha enclosure, taken at the engine's working
    precision: it decides every v's nearest odd u (``nearest_odd``; a v it
    leaves open goes through ``min_odd_dist``'s refinement), and gives the
    engine run and the sandwich constant. The windows share the run's
    rounds, so a row's certified bracket, within its tol, depends on the
    other v. A v whose odd distance has a float lower end of 0 (alpha's
    enclosure does not separate v*alpha from u, or the distance is below
    the float range) gets no positive window tol: OutOfRange names it."""
    vs = [int(v) for v in odd_v_list]
    for v in vs:
        if v <= 0 or v % 2 == 0:
            raise OutOfRange(f"v={v} is not a positive odd integer")
    if not vs:
        return []
    # above min_odd_dist's first precision, 128 + bits(v) + 8
    ball, work = _engine_start(alpha, [max(vs) + 1], tol)
    dists = []
    for v, got in zip(vs, nearest_odd(ball, vs)):
        if got is None:
            u, d = min_odd_dist(alpha, v)
            got = u, d.lower, d.upper
        u, d_lo, d_hi = got
        lo = float_down(d_lo)
        if not lo * lo / 16 > 0:  # the window's tol below
            raise OutOfRange(
                f"v={v}, u/v={u}/{v}: "
                + ("alpha's enclosure does not separate v*alpha from u"
                   if d_lo == 0 else "the odd distance is below the float range")
                + ", so no positive tol can bracket inf h on the window"
            )
        dists.append((u, lo, float_up(d_hi)))
    # Near resonances inf h ~ dist^2 can sit far below an absolute tol,
    # which would zero out the lower ratio; tighten proportionally.
    tols = [min(tol, d_lo * d_lo / 16) for _, d_lo, _ in dists]
    infs = _inf_windows(ball, work, [(v - 1.0, v + 1.0) for v in vs], tols)
    const = _sandwich_constant(ball)
    up, down = math.inf, -math.inf
    reports = []
    for v, (u, d_lo, d_up), ci in zip(vs, dists, infs):
        sq_up, sq_down = math.nextafter(d_up * d_up, up), math.nextafter(d_lo * d_lo, down)
        # const d_up^2 + tol rounded up: a false upper_ok is a refutation
        bound = math.nextafter(math.nextafter(const * sq_up, up) + tol, up)
        reports.append(SandwichReport(v, u, d_lo, d_up, ci.lower, ci.upper,
                                      math.nextafter(ci.lower / sq_up, down),
                                      math.nextafter(ci.upper / sq_down, up),
                                      const, ci.lower <= bound))
    return reports


def sandwich_to_csv(reports: list[SandwichReport]) -> str:
    rows = [f"{r.v},{r.u},{(r.dist_lower + r.dist_upper) / 2!r},{r.inf_lower!r},"
            f"{r.inf_upper!r},{r.ratio_lo!r},{r.ratio_hi!r}" for r in reports]
    return "\n".join(["v,u,dist,inf_lower,inf_upper,ratio_lo,ratio_hi", *rows]) + "\n"

"""Independent checks of phstab results.

Nothing here calls phstab: alpha enclosures are rebuilt from the input
description (integer square roots for surds, the digit string for decimal
literals, an independent convergent recursion for constructed quotient
lists), float reference values come from numpy, and high-precision
reference values from ``mpmath.mp`` (never the interval context that
phstab uses). Each check returns a list of failure reasons; empty means
pass.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from mpmath import mp

EPS = 2.0**-52


# -- alpha, independently of phstab ----------------------------------------


class AlphaRef:
    """Exact description of a generated alpha, kept by the generator."""

    def __init__(self, kind: str, **data):
        self.kind = kind
        self.data = data

    def bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational lo <= alpha <= hi, at most 2**-bits apart where the
        source allows it (decimal literals and finite quotient lists are
        as wide as their data)."""
        d = self.data
        if self.kind == "surd":
            k = bits + 8 + max(abs(d["p"]).bit_length(), d["q"].bit_length())
            s = math.isqrt(d["D"] << (2 * k))
            lo = (d["p"] + Fraction(s, 1 << k)) / d["q"]
            hi = (d["p"] + Fraction(s + 1, 1 << k)) / d["q"]
            return (lo, hi) if lo <= hi else (hi, lo)
        if self.kind == "decimal":
            x = Fraction(d["digits"])
            e = Fraction(1, 1 << d["bits"])
            return x - e, x + e
        # finite quotient list: alpha lies between the last two convergents
        p = convergents(d["quotients"])
        a, b = Fraction(*p[-2]), Fraction(*p[-1])
        return (a, b) if a <= b else (b, a)

    def point(self) -> Fraction:
        """An exact point of the enclosure: the last convergent of a finite
        quotient list, else the midpoint."""
        if self.kind == "quotients":
            return Fraction(*convergents(self.data["quotients"])[-1])
        lo, hi = self.bounds(64)
        return (lo + hi) / 2

    def float(self) -> float:
        lo, hi = self.bounds(64)
        return float((lo + hi) / 2)


def convergents(quotients) -> list[tuple[int, int]]:
    out = []
    p1, p2, q1, q2 = 1, 0, 0, 1
    for a in quotients:
        p1, p2 = a * p1 + p2, p1
        q1, q2 = a * q1 + q2, q1
        out.append((p1, q1))
    return out


# -- growth -----------------------------------------------------------------


def _inv_norms(alpha: float, ts: np.ndarray) -> np.ndarray:
    """numpy ||T_t^{-1}||_2 for T_t = M diag(e^{it}, e^{i alpha t}) + I."""
    out = np.empty(len(ts))
    for s in range(0, len(ts), 16384):
        t = ts[s : s + 16384]
        e1, e2 = np.exp(1j * t), np.exp(1j * alpha * t)
        T = np.empty((len(t), 2, 2), dtype=complex)
        T[:, 0, 0] = 1 + e1 / 2
        T[:, 0, 1] = e2 / 2
        T[:, 1, 0] = e1 / 2
        T[:, 1, 1] = 1 + e2 / 2
        sv = np.linalg.svd(T, compute_uv=False)
        out[s : s + len(t)] = 1.0 / sv[:, -1]
    return out


def _float_pad(alpha: float, t, m) -> float:
    """Relative error bound of the float ||T_t^{-1}||: the rounding of alpha
    and of the phases moves |det| by about eps (1 + alpha) t, which is
    relative error eps (1 + alpha) t m in 1/|det|; SVD adds eps cond(T)."""
    return 1e-12 + 16 * EPS * ((1 + alpha) * (np.abs(t) + 2)) * m


def check_growth(alpha: AlphaRef, curve, per_unit: int = 64) -> list[str]:
    fails = []
    pts = curve.points
    for a, b in zip(pts, pts[1:]):
        if b.m_lower < a.m_lower or b.m_upper < a.m_upper:
            fails.append(f"m bracket not monotone between eta={a.eta} and {b.eta}")
    for p in pts:
        if not 0 < p.m_lower <= p.m_upper:
            fails.append(f"empty m bracket at eta={p.eta}")
    af = alpha.float()
    eta_max = pts[-1].eta
    # offset grid so it does not coincide with the B&B's own prescan
    ts = np.arange(0.37 / per_unit, eta_max, 1.0 / per_unit)
    norms = _inv_norms(af, ts)
    for p in pts:
        sel = ts <= p.eta
        if not sel.any():
            continue
        i = int(np.argmax(np.where(sel, norms, -1.0)))
        est = norms[i]
        if est > p.m_upper * (1 + _float_pad(af, ts[i], est)):
            fails.append(
                f"dense-grid ||T^-1|| {est!r} at t={ts[i]!r} exceeds m_upper "
                f"{p.m_upper!r} (eta={p.eta})"
            )
        w = np.array([p.witness])
        at_w = _inv_norms(af, w)[0]
        if at_w < p.m_lower * (1 - _float_pad(af, p.witness, at_w)):
            fails.append(
                f"||T^-1|| at witness t={p.witness!r} is {at_w!r} < m_lower "
                f"{p.m_lower!r} (eta={p.eta})"
            )
    return fails


def check_prediction(pred) -> list[str]:
    bounds = [b for _, b in pred.points]
    if not all(b > 0 and math.isfinite(b) for b in bounds):
        return [f"{pred.kind}: non-positive or non-finite bound"]
    if any(b2 > b1 for b1, b2 in zip(bounds, bounds[1:])):
        return [f"{pred.kind}: decay bound increases with t"]
    return []


# -- sandwich ---------------------------------------------------------------


def _h(alpha: float, t: np.ndarray) -> np.ndarray:
    return np.abs(2 + np.exp(1j * np.pi * t) + np.exp(1j * np.pi * alpha * t))


DIST_PAD_ULPS = 4


def _widen(lo: float, hi: float, ulps: int) -> tuple[float, float]:
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def check_sandwich(alpha: AlphaRef, rep) -> tuple[list[str], list[str]]:
    """(failures, rounding notes).

    The 512-bit enclosure of |v alpha - u| must lie inside the reported
    distance bracket widened outward by DIST_PAD_ULPS ulps. A miss inside
    that pad is a note, not a failure: ``sandwich_report`` rounds its
    certified rational bracket to the nearest float at both ends, so the
    unpadded float bracket can exclude the exact distance by an ulp.
    """
    fails, notes = [], []
    v, u = rep.v, rep.u
    if u % 2 == 0:
        fails.append(f"u={u} is even")
    lo, hi = alpha.bounds(512)
    d = sorted((abs(v * lo - u), abs(v * hi - u)))
    if v * lo < u < v * hi:
        d[0] = Fraction(0)
    if not (Fraction(rep.dist_lower) <= d[0] and d[1] <= Fraction(rep.dist_upper)):
        pad_lo, pad_hi = _widen(rep.dist_lower, rep.dist_upper, DIST_PAD_ULPS)
        msg = (f"512-bit |v alpha - u| in [{float(d[0])!r}, {float(d[1])!r}] "
               f"not inside reported [{rep.dist_lower!r}, {rep.dist_upper!r}]")
        if Fraction(pad_lo) <= d[0] and d[1] <= Fraction(pad_hi):
            notes.append(msg + f", but inside it widened by {DIST_PAD_ULPS} ulps")
        else:
            fails.append(msg + f", even widened by {DIST_PAD_ULPS} ulps")
    if not 0 <= rep.inf_lower <= rep.inf_upper:
        fails.append(f"empty inf h bracket [{rep.inf_lower}, {rep.inf_upper}]")
    af = alpha.float()
    ts = np.linspace(v - 1.0, v + 1.0, 8001)
    hv = _h(af, ts)
    i = int(np.argmin(hv))
    step = ts[1] - ts[0]
    fine = np.linspace(max(ts[i] - step, v - 1.0), min(ts[i] + step, v + 1.0), 2001)
    h_min = min(float(hv[i]), float(_h(af, fine).min()))
    pad = 16 * EPS * (math.pi * (1 + af) * (v + 2) + 4)
    if h_min < rep.inf_lower - pad:
        fails.append(
            f"dense-grid min h {h_min!r} below inf_lower {rep.inf_lower!r} (pad {pad:.2g})"
        )
    return fails, notes


# -- tables -----------------------------------------------------------------


def check_convergent_table(table, alpha: AlphaRef | None = None) -> list[str]:
    fails = []
    convs = table.convergents
    ref = convergents(table.quotients)
    if [(c.p, c.q) for c in convs] != ref:
        fails.append("convergents differ from an independent recursion")
    for n in range(len(convs) - 1):
        det = convs[n].p * convs[n + 1].q - convs[n + 1].p * convs[n].q
        if det not in (1, -1):
            fails.append(f"p_n q_n+1 - p_n+1 q_n = {det} at n={n}")
            break
    if alpha is not None and len(convs) >= 2:
        lo, hi = alpha.bounds(4 * convs[-1].q.bit_length() + 64)
        for n in (len(convs) - 2, len(convs) - 1):
            # consecutive convergents bracket alpha from alternate sides
            x = Fraction(convs[n].p, convs[n].q)
            side = x < lo if n % 2 == 0 else x > hi
            if not side:
                fails.append(f"convergent {n} on the wrong side of alpha")
    return fails


def check_constructed(ca) -> list[str]:
    qs = ca.table.quotients
    fails = check_convergent_table(ca.table)
    if qs[0] != 1 or any(a % 2 or a < 2 for a in qs[1:]):
        fails.append("constructed quotients are not all even and >= 2")
    if ca.q_last.bit_length() > ca.bit_budget:
        fails.append("last denominator exceeds the bit budget")
    return fails


def check_odd_odd(alpha: AlphaRef, approximants) -> list[str]:
    fails = []
    vs = [a.v for a in approximants]
    if any(v2 <= v1 for v1, v2 in zip(vs, vs[1:])):
        fails.append("odd/odd v not strictly increasing")
    lo, hi = alpha.bounds(4 * max(vs).bit_length() + 96)
    for a in approximants:
        if a.u % 2 == 0 or a.v % 2 == 0:
            fails.append(f"{a.u}/{a.v} is not odd/odd")
        x = Fraction(a.u, a.v)
        d_hi = max(abs(lo - x), abs(hi - x))
        if d_hi >= Fraction(2, a.v * a.v):
            fails.append(f"|alpha - {a.u}/{a.v}| not < 2/v^2")
        d_lo = max(Fraction(0), lo - x, x - hi)
        # both enclose the true distance, so they must overlap
        if a.err.lower > d_hi or d_lo > a.err.upper:
            fails.append(f"err ball of {a.u}/{a.v} misses the distance")
    return fails


def check_profile(alpha: AlphaRef, table, prof) -> list[str]:
    lo, hi = alpha.bounds(4 * table.convergents[-1].q.bit_length() + 64)
    for c in table.convergents[:-1]:
        x = Fraction(c.p, c.q)
        d_hi = max(abs(lo - x), abs(hi - x))
        if c.q * c.q * d_hi < prof.c_lower:
            return [f"c_lower {prof.c_lower} exceeds q^2|alpha - p/q| at q={c.q}"]
    if prof.max_a != max(table.quotients[1:]):
        return ["max_a differs from the table"]
    return []


def mp_g(alpha: Fraction, u: int, v: int, prec: int):
    """|det T_t| at t = pi (v + delta), delta = -(v alpha - u)/(1 + alpha),
    in mpmath's float context at ``prec`` bits."""
    with mp.workprec(prec):
        a = mp.mpf(alpha.numerator) / alpha.denominator
        delta = -(v * a - u) / (1 + a)
        t = mp.pi * (v + delta)
        z = 1 + (mp.expj(t) + mp.expj(a * t)) / 2
        return abs(z)


def check_g_ball(alpha: AlphaRef, u: int, v: int, ball) -> list[str]:
    """g at a point of the alpha enclosure must lie in the ball, which
    encloses g over the whole enclosure. For a finite quotient list the
    last convergent lies in every enclosure phstab can form from it."""
    g_up = ball.upper
    if g_up <= 0:
        return ["g ball upper bound is not positive"]
    g_bits = g_up.denominator.bit_length() - g_up.numerator.bit_length()
    need = 2 * max(8, g_bits) + 4 * v.bit_length() + 256
    g = mp_g(alpha.point(), u, v, need)
    with mp.workprec(need):
        lo_b = mp.mpf(ball.lower.numerator) / ball.lower.denominator
        hi_b = mp.mpf(ball.upper.numerator) / ball.upper.denominator
        slack = g * mp.mpf(2) ** (-need // 2)
        if not (lo_b - slack <= g <= hi_b + slack):
            return [f"mp g = {mp.nstr(g, 12)} outside ball "
                    f"[{mp.nstr(lo_b, 12)}, {mp.nstr(hi_b, 12)}] at v={v}"]
    return []


# -- resolvent --------------------------------------------------------------


def check_solution(sol, tol: float) -> list[str]:
    if not sol.residual <= tol:
        return [f"residual {sol.residual:.3e} > tol {tol:.1e} at t={sol.t}"]
    if not (np.isfinite(sol.v).all() and sol.u_norm_H > 0):
        return ["non-finite or zero solution"]
    return []


def check_char_rows(rows) -> list[str]:
    return [f"lower_ok fails at t={r['t']}: R_lower {r['R_lower']:.4g} > "
            f"bound {r['C_tilde_bound']:.4g}" for r in rows if not r["lower_ok"]]


def check_universal_scan(alpha: float, rep) -> list[str]:
    t = np.asarray(rep.t_grid)
    closed = np.abs(1 + 0.5 * (np.exp(1j * t) + np.exp(1j * alpha * t)))
    err = float(np.max(np.abs(np.asarray(rep.abs_det) - closed)))
    if err > 1e-12:
        return [f"universal example |det T_t| differs from det_closed_form by {err:.3e}"]
    return []

"""Seeded workloads. Each builder turns a seed into a fixed job list.

A job is one public phstab call, or a short chain a user would make, plus
an ``inspect`` step that checks the result against the independent oracles
in :mod:`oracles`. The generators keep the composition of every job list
fixed (how many jobs of each kind and size) and let the seed choose the
concrete inputs, so that runs on different seeds do comparable work.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles as orc
from oracles import AlphaRef
from phstab import alpha_factory, contfrac, diophantine, phs, rates, spectral
from phstab.errors import InsufficientPrecision, TableExhausted


@dataclass
class Inspection:
    failures: list[tuple[str, str]] = field(default_factory=list)  # (code, message)
    notes: list[str] = field(default_factory=list)  # known-defect findings that are not failures
    width: float = 0.0  # worst relative width of a certified bracket
    residual: float = 0.0  # worst resolvent residual


@dataclass
class Job:
    id: str
    kind: str
    deadline_s: float
    call: Callable[[], object]
    inspect: Callable[[object], Inspection]  # oracle checks, first pass
    fingerprint: Callable[[object], object]  # later passes must match
    known_defect: str | None = None  # recorded cause of this job's deadline failure


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    shares: dict
    warmup: Callable[[], object]
    passes: int  # fixed number of passes over the job list

    def __post_init__(self):
        if len({j.id for j in self.jobs}) != len(self.jobs):
            raise ValueError(f"{self.name}: job ids are not unique")


# g_at_witness keeps doubling working precision toward 2^20 bits when the
# alpha enclosure of a finite-depth rule cannot narrow, instead of raising
# InsufficientPrecision. These witnesses (target, convergent index n) ran
# past 3 s on a 2-core machine where every other witness of the target list
# answered within 16 ms; ExpDecay(1)@4096 n=2 is (u, v) =
# (14598387, 13271261). A deadline miss on one of them is a known defect;
# on any other job it makes the run incorrect.
HANG_CAUSE = (
    "g_at_witness keeps doubling working precision when the alpha enclosure "
    "of a finite-depth rule cannot narrow, instead of raising InsufficientPrecision"
)
KNOWN_HANGS = {
    ("ExpDecay(1)@4096", 2),
    ("ExpDecay(1/2)@4096", 2),
    ("ExpDecay(3/4)@4096", 2),
    ("ExpDecay(3/2)@4096", 2),
    ("ExpDecay(2)@4096", 2),
    ("PowerLog(5,0)@4096", 6),
}

# Per-job deadlines, 25x or more the slowest job of the kind on a 2-core
# machine, so that a slow host never trips them. Witnesses that answer do so
# within 16 ms; the known hangs get a short deadline so that each pass
# abandons them quickly.
DEADLINE_S = {
    "growth": 10.0,
    "sandwich": 10.0,
    "construct": 30.0,
    "g_at_witness": 1.0,
    "g_at_witness_hang": 0.02,
    "cf_table": 10.0,
    "best_approx": 10.0,
    "odd_odd": 10.0,
    "scan": 10.0,
    "solve": 10.0,
    "characterisation": 10.0,
}

FULL, TINY = "full", "tiny"


# -- seeded alphas ----------------------------------------------------------


def _surd(rng: random.Random, lo: float = 1.0, hi: float = 2.0):
    """(p + sqrt(D))/q strictly inside (lo, hi)."""
    while True:
        D = rng.randrange(2, 1000)
        s = math.isqrt(D)
        if s * s == D:
            continue
        q = rng.randrange(1, 10)
        root = math.sqrt(D)
        ps = [p for p in range(math.floor(lo * q - root), math.ceil(hi * q - root) + 1)
              if lo < (p + root) / q < hi]
        if not ps:
            continue
        p = rng.choice(ps)
        try:
            spec = contfrac.QuadraticSurd(D=D, p=p, q=q)
        except ValueError:
            continue
        return spec, AlphaRef("surd", D=D, p=p, q=q)


def _decimal(rng: random.Random, lo: float = 1.0, hi: float = 2.0):
    """A 78-digit decimal literal uniform in [lo, hi), certified to 256 bits."""
    x = Fraction(lo) + Fraction(hi - lo) * Fraction(rng.randrange(10**78), 10**78)
    digits = f"{int(x)}." + str(int((x - int(x)) * 10**78)).zfill(78)
    return contfrac.DecimalLiteral(digits, 256), AlphaRef("decimal", digits=digits, bits=256)


_POWERLOG_S = (Fraction(0), Fraction(1, 2), Fraction(1))


# Targets of the constructed alphas in the growth workload: PowerLog and
# ExpDecay rules, whose alphas have large odd/odd gaps. All start with
# a_1 <= 6 (alpha >= 1.16); larger a_1 puts alpha nearer 1, where the v = 1
# resonance makes one job up to 5x dearer. The list is fixed and the seed
# picks the bit budget, so runs on different seeds stay comparable.
GROWTH_TARGETS = ((2, 0), ("exp", Fraction(1, 4)), ("exp", Fraction(1, 2)))


def _constructed(target, budget: int):
    p, s = target
    target = alpha_factory.ExpDecay(s) if p == "exp" else alpha_factory.PowerLog(p, s)
    ca = alpha_factory.construct(target, budget)
    return ca, AlphaRef("quotients", quotients=ca.table.quotients)


# -- growth -----------------------------------------------------------------


def _growth_job(jid, spec, ref, etas):
    def call():
        curve = spectral.growth_curve(spec, etas)
        fn = rates.from_growth_curve(curve, "lower")
        evidence = rates.positive_increase_estimate(fn, [2.0, 4.0], etas[:2])
        m0 = curve.points[0].m_lower
        pred = rates.predict(fn, "LowerBound", [2 * m0, 8 * m0, 32 * m0])
        return curve, evidence, pred

    def inspect(res):
        curve, _, pred = res
        msgs = orc.check_growth(ref, curve) + orc.check_prediction(pred)
        width = max((p.m_upper - p.m_lower) / p.m_upper for p in curve.points)
        return Inspection([("oracle", m) for m in msgs], width=width)

    def fingerprint(res):
        curve, _, pred = res
        return tuple((p.m_lower, p.m_upper, p.witness) for p in curve.points) + pred.points

    return Job(jid, "growth", DEADLINE_S["growth"], call, inspect, fingerprint)


# Seeded surds and decimals lie in (1.1, 1.95), one per sub-interval
# (stratified), so every seed covers the range alike. Closer to 1 the v = 1
# resonance is so sharp that the cost of one job swings tenfold.
_ALPHA_LO, _ALPHA_HI = 1.1, 1.95


def build_growth(seed: int, size: str = FULL) -> Workload:
    """Ladders of graded length over every alpha kind.

    Job i ends at eta_max = E_i / (1 + alpha): the sup B&B sweeps about
    (1 + alpha) eta_max / (2 pi) oscillations, so a fixed E keeps the work of
    a job roughly independent of its seeded alpha. E is geometric from 16
    to 96 over 33 jobs, so job cost rises smoothly along the list and
    job_p50_s and job_tail_s (10 jobs beyond it) sit on the middle and the
    upper third of that slope rather than on an edge between two kinds.
    Every ninth job uses a constructed alpha (fixed target list, seeded
    budget).
    """
    rng = random.Random(seed * 7919 + 1)
    full = size == FULL
    n = 33 if full else 4
    es = [16.0 * 6.0 ** (i / max(n - 1, 1)) for i in range(n)]
    n_seeded = n - (n + 8) // 9
    # stratum k of the seeded alphas goes to job slot (5 k mod n_seeded)
    strata = sorted(range(n_seeded), key=lambda k: (5 * k) % n_seeded)
    width = (_ALPHA_HI - _ALPHA_LO) / n_seeded
    kinds = ("constructed",) + ("surd", "decimal") * 4
    jobs, specs, counts, targets, ends = [], [], dict.fromkeys(kinds, 0), [], []
    for i, e in enumerate(es):
        kind = kinds[i % 9]
        if kind == "constructed":
            ca, ref = _constructed(GROWTH_TARGETS[(i // 9) % len(GROWTH_TARGETS)],
                                   rng.choice((2048, 3072)))
            spec = ca.spec
            targets.append(f"{ca.target.to_json()}@{ca.bit_budget}")
        else:
            k = strata.pop()
            lo = _ALPHA_LO + k * width
            spec, ref = (_surd if kind == "surd" else _decimal)(rng, lo, lo + width)
        counts[kind] += 1
        specs.append(spec)
        eta_max = e / (1 + ref.float())
        etas = [round(eta_max / 4, 4), round(eta_max, 4)]  # ratio 4: rates' dilation grid fits
        ends.append(etas[-1])
        jobs.append(_growth_job(f"growth-{i:02d}-{kind}-E{e:.0f}-eta{etas[-1]:g}", spec, ref, etas))
    return Workload(
        "growth",
        jobs,
        {
            "alpha_kinds": {k: round(v / n, 4) for k, v in counts.items()},
            "eta_max_range": [min(ends), max(ends)],
            "ladder_eta_ge_1e3_share": sum(x >= 1e3 for x in ends) / n,
            "ladder_eta_ge_1e4_share": sum(x >= 1e4 for x in ends) / n,
            "constructed_targets": targets,
        },
        warmup=lambda: spectral.growth_curve(specs[0], [2.0]),
        passes=5,
    )


# -- sandwich ---------------------------------------------------------------

_V_MAX = 20000  # windows beyond ~2e4 leave the float B&B's working range


def _resonant_vs(spec, count: int) -> list[int]:
    table = contfrac.expand(spec, 30)
    for k in range(12, 0, -1):
        try:
            stream = diophantine.odd_odd_stream(table, k)
            break
        except (TableExhausted, InsufficientPrecision):
            continue
    else:
        return []
    return [a.v for a in stream if 3 <= a.v <= _V_MAX][:count]


def _sandwich_job(jid, spec, ref, v):
    def call():
        return spectral.sandwich_report(spec, [v])

    def inspect(res):
        rep = res[0]
        fails, notes = orc.check_sandwich(ref, rep)
        width = (rep.inf_upper - rep.inf_lower) / rep.inf_upper
        return Inspection([("oracle", m) for m in fails], notes=notes, width=width)

    def fingerprint(res):
        rep = res[0]
        return rep.u, rep.dist_lower, rep.dist_upper, rep.inf_lower, rep.inf_upper

    return Job(jid, "sandwich", DEADLINE_S["sandwich"], call, inspect, fingerprint)


def build_sandwich(seed: int, size: str = FULL) -> Workload:
    """One window [v-1, v+1] per job; per alpha a fixed number of resonant
    windows (v an odd/odd approximant denominator) among odd v drawn one
    from each of equal strata of [3, 3999], so that every seed spreads its
    windows alike."""
    rng = random.Random(seed * 7919 + 2)
    n_alpha, per_alpha, n_res = (4, 9, 2) if size == FULL else (2, 4, 1)
    jobs, specs, resonant = [], [], 0
    width = (_ALPHA_HI - _ALPHA_LO) / n_alpha
    for i in range(n_alpha):
        lo = _ALPHA_LO + i * width
        spec, ref = (_surd if i % 2 == 0 else _decimal)(rng, lo, lo + width)
        specs.append(spec)
        res_vs = _resonant_vs(spec, n_res)
        vs = list(res_vs)
        # non-resonant v stratified over the odd numbers in [3, 3999]
        n_non = per_alpha - len(vs)
        for k in range(n_non):
            lo, hi = 1 + k * 1999 // n_non, 1 + (k + 1) * 1999 // n_non
            v = 2 * rng.randrange(lo, hi) + 1
            while v in vs:
                v = 2 * rng.randrange(lo, hi) + 1
            vs.append(v)
        rng.shuffle(vs)
        resonant += len(res_vs)
        for v in vs:
            tag = "res" if v in res_vs else "non"
            jobs.append(_sandwich_job(f"sandwich-a{i}-v{v}-{tag}", spec, ref, v))
    return Workload(
        "sandwich",
        jobs,
        {"resonant_window_share": round(resonant / len(jobs), 4),
         "v_max": max(int(j.id.split("-v")[1].split("-")[0]) for j in jobs)},
        warmup=lambda: spectral.sandwich_report(specs[0], [1]),
        passes=7,
    )


# -- tables -----------------------------------------------------------------


def _construct_job(jid, target, budget):
    def call():
        return alpha_factory.construct(target, budget)

    def inspect(ca):
        msgs = orc.check_constructed(ca)
        return Inspection([("oracle", m) for m in msgs])

    def fingerprint(ca):
        return ca.table.quotients

    return Job(jid, "construct", DEADLINE_S["construct"], call, inspect, fingerprint)


def _witness_job(jid, spec, ref, u, v, known_hang: bool):
    def call():
        return spectral.g_at_witness(spec, u, v, bits=256)

    def inspect(ball):
        msgs = orc.check_g_ball(ref, u, v, ball)
        width = float((ball.upper - ball.lower) / ball.upper)
        return Inspection([("oracle", m) for m in msgs], width=width)

    def fingerprint(ball):
        return ball.value, ball.err

    if known_hang:
        return Job(jid, "g_at_witness", DEADLINE_S["g_at_witness_hang"], call, inspect,
                   fingerprint, known_defect=HANG_CAUSE)
    return Job(jid, "g_at_witness", DEADLINE_S["g_at_witness"], call, inspect, fingerprint)


def _cf_table_job(jid, spec, ref, n):
    def call():
        table = contfrac.expand(spec, n)
        return table, table.check_identity(), contfrac.check_bounds(table)

    def inspect(res):
        table, identity, reports = res
        msgs = orc.check_convergent_table(table, ref)
        if not identity:
            msgs.append("check_identity returned False")
        bad = [r.n for r in reports if not r.passed]
        if bad or len(reports) != len(table) - 1:
            msgs.append(f"BoundReport failed at n={bad[:5]}")
        return Inspection([("oracle", m) for m in msgs])

    def fingerprint(res):
        table, identity, reports = res
        return table.quotients, identity, tuple((r.lower_margin, r.upper_margin) for r in reports)

    return Job(jid, "cf_table", DEADLINE_S["cf_table"], call, inspect, fingerprint)


def _best_approx_job(jid, spec, ref, n, qmax):
    def call():
        table = contfrac.expand(spec, n)
        return table, contfrac.best_approx_check(table, qmax)

    def inspect(res):
        table, ok = res
        msgs = orc.check_convergent_table(table, ref)
        if ok is not True:
            msgs.append(f"best_approx_check(qmax={qmax}) returned {ok!r}")
        return Inspection([("oracle", m) for m in msgs])

    def fingerprint(res):
        table, ok = res
        return table.quotients, ok

    return Job(jid, "best_approx", DEADLINE_S["best_approx"], call, inspect, fingerprint)


def _odd_odd_job(jid, spec, ref, n, count):
    def call():
        table = contfrac.expand(spec, n)
        return (table, diophantine.odd_odd_stream(table, count),
                diophantine.badly_approx_profile(table))

    def inspect(res):
        table, stream, prof = res
        msgs = orc.check_odd_odd(ref, stream) + orc.check_profile(ref, table, prof)
        return Inspection([("oracle", m) for m in msgs])

    def fingerprint(res):
        table, stream, prof = res
        return table.quotients, tuple(stream), prof

    return Job(jid, "odd_odd", DEADLINE_S["odd_odd"], call, inspect, fingerprint)


# n * bits(q_n) of the medium and the large convergent tables
TABLE_WORK = (80_000, 160_000)


def _surd_quotients(D: int, p: int, q: int):
    """Partial quotients of (p + sqrt(D))/q, exactly, without phstab."""
    P, Q, DD = p * q, q * q, D * q * q  # same number, with Q | DD - P^2
    s = math.isqrt(DD)
    while True:
        a = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1
        yield a
        P = a * Q - P
        Q = (DD - P * P) // Q


def _terms_for_work(ref: AlphaRef, work: int) -> int:
    """First n with n * bits(q_n) >= work, for a seeded surd."""
    d = ref.data
    q1, q2 = 0, 1  # q_{-1}, q_{-2}
    for n, a in enumerate(_surd_quotients(d["D"], d["p"], d["q"])):
        q1, q2 = a * q1 + q2, q1
        if n * q1.bit_length() >= work:
            return n


def _witnesses(ca, count: int = 4):
    """Odd/odd convergents as scripts/construct_demo.py picks them."""
    return [c for c in ca.table.convergents
            if c.p % 2 == 1 and c.q % 2 == 1 and 1 < c.q.bit_length() < 900][:count]


def _target_label(target, budget: int) -> str:
    if isinstance(target, alpha_factory.ExpDecay):
        return f"ExpDecay({target.beta})@{budget}"
    return f"PowerLog({target.p},{target.s})@{budget}"


def build_tables(seed: int, size: str = FULL) -> Workload:
    """Exact-arithmetic traffic: constructions, witnesses, convergent tables.

    The count and size of every job kind is fixed; the seed picks targets,
    surds and digits. The targets are ExpDecay(1)@4096, whose witness
    (u, v) = (14598387, 13271261) is the recorded g_at_witness hang, a
    seeded ExpDecay(beta)@4096 and PowerLog(5, 0)@4096 (each with one known
    hang), PowerLog(2, 0)@6144 (the heaviest construction) and a seeded
    PowerLog(p, s)@4096 with p in {3, 4}. Every known-hang witness of these
    targets is a job, plus a fixed number of answering witnesses taken
    round robin over the targets.

    Job sizes put the order statistics on plateaus of equal-size jobs:
    about 20 small jobs (answering witnesses, small constructions, short
    tables), the 3 abandoned hangs (at their 0.02 s deadline), 27 medium
    ones (26 convergent tables of work TABLE_WORK[0]) that hold job_p50_s,
    and 21 large ones (18 tables of work TABLE_WORK[1], best approximation
    checks, the 6144-bit construction) that hold job_tail_s. A table's
    cost grows as n * bits(q_n), so each seeded surd is expanded to the
    first n where that product reaches the group's work: surds with large
    partial quotients get shorter tables, and every seed does alike work.
    """
    rng = random.Random(seed * 7919 + 3)
    full = size == FULL
    targets = [
        (alpha_factory.ExpDecay(1), 4096),
        (alpha_factory.ExpDecay(rng.choice((Fraction(1, 2), Fraction(3, 4), Fraction(3, 2), Fraction(2)))), 4096),
        (alpha_factory.PowerLog(rng.choice((3, 4)), rng.choice(_POWERLOG_S)), 4096),
    ]
    if full:
        targets += [(alpha_factory.PowerLog(2, 0), 6144), (alpha_factory.PowerLog(5, 0), 4096)]
    jobs, hangs, answering = [], [], []
    for i, (target, budget) in enumerate(targets):
        label = _target_label(target, budget)
        jobs.append(_construct_job(f"construct-{i}-{label}", target, budget))
        ca = alpha_factory.construct(target, budget)
        ref = AlphaRef("quotients", quotients=ca.table.quotients)
        last = ca.table.convergents[-1]
        row = []
        for c in _witnesses(ca):
            w = (label, ca, ref, c, c is last)
            (hangs if (label, c.n) in KNOWN_HANGS else row).append(w)
        answering.append(row)
    n_ok = 9 if full else 2
    picked = hangs + [w for row in itertools.zip_longest(*answering) for w in row if w][:n_ok]
    for label, ca, ref, c, _ in picked:
        uv = f"u{c.p}-v{c.q}" if c.q < 10**12 else f"n{c.n}-vbits{c.q.bit_length()}"
        jobs.append(_witness_job(f"g_at_witness-{label}-{uv}", ca.spec, ref, c.p, c.q,
                                 known_hang=(label, c.n) in KNOWN_HANGS))
    works = (TABLE_WORK[0],) * 26 + (TABLE_WORK[1],) * 18 if full else (2000,)
    for work in works:
        spec, ref = _surd(rng, 1.0, 50.0)
        n = _terms_for_work(ref, work)
        jobs.append(_cf_table_job(f"cf_table-w{work}-n{n}-D{ref.data['D']}-{len(jobs)}", spec, ref, n))
    for qmax in (1000, 2000) if full else (100,):
        spec, ref = _surd(rng, 1.0, 50.0)
        jobs.append(_best_approx_job(f"best_approx-q{qmax}-D{ref.data['D']}", spec, ref, 60, qmax))
    for n in (100, 200) if full else (30,):
        spec, ref = _surd(rng, 1.0, 50.0)
        jobs.append(_odd_odd_job(f"odd_odd-surd-n{n}-D{ref.data['D']}", spec, ref, n, 8))
    for i in range(2 if full else 1):
        spec, ref = _decimal(rng)
        # badly_approx_profile needs 4 bits(q_n) + 64 certified bits: stay
        # within the 256 bits the literal guarantees
        n = 8
        while 4 * contfrac.expand(spec, n + 1).convergents[-1].q.bit_length() + 64 <= 256:
            n += 1
        jobs.append(_odd_odd_job(f"odd_odd-decimal-{i}-n{n}", spec, ref, n, 4))
    return Workload(
        "tables",
        jobs,
        {"witness_at_last_convergent_share": round(sum(w[4] for w in picked) / max(len(picked), 1), 4),
         "witnesses": len(picked),
         "known_hang_witnesses": len(hangs),
         "targets": [_target_label(t, b) for t, b in targets]},
        warmup=lambda: contfrac.expand(contfrac.QuadraticSurd(D=2), 10),
        passes=6,
    )


# -- resolvent --------------------------------------------------------------

PIECE_COUNTS = (1, 4, 8, 16)  # one seeded system each, besides the universal example
# (solves, characterisation checks) per system, by piece count; None is the
# universal example (see build_resolvent)
RESOLVENT_JOBS = {None: (9, 2), 1: (9, 2), 4: (9, 2), 8: (9, 9), 16: (5, 2)}


def _random_system(rng: np.random.Generator, k: int) -> phs.PHSystem:
    while True:
        inner = np.sort(rng.uniform(0.0, 1.0, k - 1))
        breaks = np.concatenate([[0.0], inner, [1.0]])
        if np.min(np.diff(breaks)) > 0.2 / k:
            break
    pieces = []
    for _ in range(k):
        A = rng.normal(size=(2, 2))
        pieces.append(A @ A.T + 0.5 * np.eye(2))
    M = np.full((2, 2), 0.5)
    return phs.PHSystem(d=2, P0=np.zeros((2, 2)), P1=np.eye(2),
                        breaks=tuple(float(x) for x in breaks), pieces=tuple(pieces),
                        W=np.hstack([M, np.eye(2)]))


def _scan_job(jid, system, universal_alpha, grid):
    def call():
        return phs.stability_scan(system, grid)

    def inspect(rep):
        msgs = orc.check_universal_scan(universal_alpha, rep) if universal_alpha else []
        return Inspection([("oracle", m) for m in msgs])

    def fingerprint(rep):
        return rep.abs_det, rep.sigma_min, rep.B_estimate

    return Job(jid, "scan", DEADLINE_S["scan"], call, inspect, fingerprint)


def _solve_job(jid, system, t, f, tol=1e-8):
    def call():
        return phs.resolvent_solve(system, t, f, nodes=1024, tol=tol)

    def inspect(sol):
        msgs = orc.check_solution(sol, tol)
        return Inspection([("oracle", m) for m in msgs], residual=sol.residual)

    def fingerprint(sol):
        return sol.nodes, sol.residual, sol.u_norm_H

    return Job(jid, "solve", DEADLINE_S["solve"], call, inspect, fingerprint)


# quadrature nodes of the characterisation checks: the adversarial probe's
# scalar FundamentalMatrix calls grow with them
CHAR_NODES = 256


def _char_job(jid, system, ts):
    def call():
        return phs.check_characterisation(system, ts, nodes=CHAR_NODES)

    def inspect(rows):
        msgs = orc.check_char_rows(rows)
        return Inspection([("oracle", m) for m in msgs])

    def fingerprint(rows):
        return tuple((r["R_lower"], r["T_inv_norm"], r["C_tilde_bound"]) for r in rows)

    return Job(jid, "characterisation", DEADLINE_S["characterisation"], call, inspect, fingerprint)


def build_resolvent(seed: int, size: str = FULL) -> Workload:
    """The universal example plus one system per piece-count stratum.

    Per system: one stability scan, then solves and characterisation
    checks (one integer t each, CHAR_NODES nodes) in the numbers of
    RESOLVENT_JOBS. Job cost rises with the piece count for every kind, so
    the counts put the order statistics inside groups of like jobs: the 63
    jobs sort as 36 solves of 1-8 pieces, 9 solves of 8 pieces (7-9 ms),
    the 16-piece solves and small scans and checks, 9 checks of the 8-piece
    system (about 55 ms), then the two 16-piece checks and the 8- and
    16-piece scans. job_p50_s (index 31) is the middle 8-piece solve and
    job_tail_s (10 jobs beyond it) the seventh of the 8-piece checks.
    """
    rng = np.random.default_rng(seed * 7919 + 4)
    full = size == FULL
    piece_counts = PIECE_COUNTS if full else PIECE_COUNTS[:1]
    grid = np.linspace(0.0, 25.0, 51 if full else 11)
    alpha = float(rng.uniform(1.1, 1.9))
    systems = [("universal", phs.universal_example(alpha), alpha)]
    for k in piece_counts:
        systems.append((f"pieces{k}", _random_system(rng, k), None))
    jobs = []
    for name, system, ua in systems:
        k1, k2 = rng.uniform(0.5, 4.0, 2)
        phase = float(rng.uniform(0, math.pi))

        def f(xs, k1=float(k1), k2=float(k2), phase=phase):
            return np.stack([np.sin(k1 * math.pi * xs + phase), np.cos(k2 * math.pi * xs)], axis=1)

        jobs.append(_scan_job(f"scan-{name}", system, ua, grid))
        n_t, n_char = RESOLVENT_JOBS[None if ua else len(system.pieces)] if full else (1, 1)
        # one t per stratum of (0.5, 24.5): larger t needs more nodes
        for t in 0.5 + (np.arange(n_t) + rng.uniform(0, 1, n_t)) * 24.0 / n_t:
            jobs.append(_solve_job(f"solve-{name}-t{t:.3f}", system, float(t), f))
        for t in sorted(rng.choice(np.arange(1, 21), n_char, replace=False)):
            jobs.append(_char_job(f"characterisation-{name}-t{t}", system, [int(t)]))
    counts = [len(s.pieces) for _, s, _ in systems]
    first = systems[0][1]
    return Workload(
        "resolvent",
        jobs,
        {"piece_counts": counts,
         "piece_count_share": {str(k): round(counts.count(k) / len(counts), 4) for k in sorted(set(counts))},
         "universal_alpha": alpha},
        warmup=lambda: phs.stability_scan(first, [1.0]),
        passes=6,
    )


BUILDERS = {
    "growth": build_growth,
    "sandwich": build_sandwich,
    "tables": build_tables,
    "resolvent": build_resolvent,
}

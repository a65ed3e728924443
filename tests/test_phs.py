"""Port-Hamiltonian systems: validation, fundamental/boundary matrices,
resolvent solves, and the characterisation constants."""

import hashlib
import json
import math
import signal
import warnings
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate as si
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phstab import phs as P
from phstab.errors import (
    InsufficientPrecision,
    OutOfRange,
    SingularMatrix,
    ValidationError,
)

SQRT2 = math.sqrt(2)
DATA = Path(__file__).parent / "data" / "phs"


@pytest.fixture(scope="module")
def sys2():
    return P.universal_example(SQRT2)


def _fields(system, **changes):
    fields = dict(d=system.d, P0=system.P0, P1=system.P1, breaks=system.breaks,
                  pieces=system.pieces, W=system.W)
    return {**fields, **changes}


def test_universal_example_valid(sys2):
    # a built system holds read-only float copies of what it was given
    P0, pieces = np.zeros((2, 2)), [np.eye(2)]
    system = P.PHSystem(**_fields(sys2, P0=P0, pieces=pieces, breaks=[0, 1]))
    P0[0, 1] = 1.0
    pieces[0][0, 0] = -1.0
    assert system.P0[0, 1] == 0.0 and system.pieces[0][0, 0] == 1.0
    assert system.breaks == (0.0, 1.0) and type(system.breaks[1]) is float
    for m in (sys2.P0, sys2.P1, sys2.W, sys2.pieces[0], system.P0, system.pieces[0]):
        assert m.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0
    with pytest.raises(TypeError):  # not silently cast to its real part
        P.PHSystem(**_fields(sys2, P1=np.eye(2) * (1 + 1e-3j)))


_M = np.full((2, 2), 0.5)


def test_validation_failures(sys2):
    # one case per invariant; none of these systems can be built
    for changes, message in [
        (dict(P0=[[0.0, np.nan], [0.0, 0.0]]), "P0: non-finite entry"),
        (dict(P1=[[1.0, 0.0], [0.0, np.inf]]), "P1: non-finite entry"),
        (dict(W=np.hstack([_M, [[1.0, 0.0], [0.0, np.nan]]])), "W: non-finite entry"),
        (dict(breaks=(0.0, np.nan)), "H breakpoints: non-finite entry"),
        (dict(pieces=(np.diag([1.0, -np.inf]),)), "H piece 0: non-finite entry"),
        (dict(P0=np.zeros((2, 3))), "P0: shape (2, 3), expected (2, 2)"),
        (dict(P0=np.eye(2)), "P0: not skew-symmetric"),
        (dict(P1=[[1.0, 1.0], [0.0, 1.0]]), "P1: not symmetric"),
        (dict(P1=np.diag([1.0, 0.0])), "P1: not invertible (eigenvalue near 0)"),
        (dict(breaks=(0.0, 0.5, 1.0)), "H: breakpoint/piece count mismatch"),
        (dict(breaks=(0.0,), pieces=()), "H: no pieces"),
        (dict(breaks=(1.0, 0.0)), "H: breakpoints not strictly increasing"),
        (dict(pieces=(np.eye(3),)), "H piece 0: wrong shape"),
        (dict(pieces=([[1.0, 1.0], [0.0, 1.0]],)), "H piece 0: not symmetric"),
        (dict(pieces=(np.diag([1.0, -1.0]),)), "H piece 0: not positive definite"),
        (dict(W=np.hstack([_M, _M])), "W: rank deficient"),
        (dict(P0=np.eye(2), W=np.hstack([_M, _M])), "P0: not skew-symmetric; W: rank deficient"),
    ]:
        with pytest.raises(ValidationError) as info:
            P.PHSystem(**_fields(sys2, **changes))
        assert str(info.value) == message


# symmetric with eigvalsh > 0, but LU finds an exact zero pivot
_SINGULAR_H = [[0.10287468153155428, 0.3037951306906277],
               [0.3037951306906277, 0.8971253184684458]]


def test_an_h_piece_that_lu_finds_singular_is_refused(sys2):
    # it validated, and every build then raised numpy's LinAlgError
    assert np.linalg.eigvalsh(_SINGULAR_H)[0] > 0
    with pytest.raises(ValidationError, match=r"^H piece 1: singular to working precision$"):
        P.PHSystem(**_fields(sys2, breaks=(0.0, 0.5, 1.0), pieces=(np.eye(2), _SINGULAR_H)))
    # nor one whose inverse overflows: builds raised LinAlgError ("SVD did
    # not converge") with P0 = 0, and OutOfRange otherwise
    with pytest.raises(ValidationError, match=r"^H piece 0: singular to working precision$"):
        P.PHSystem(**_fields(sys2, pieces=(np.diag([1e-310, 1.0]),)))
    # a piece near cond H = 1e16 that inverts is kept: the modal path marks
    # it dense, and builds run
    near = np.array([[0.449411963312885, 0.4974342675611955],
                     [0.4974342675611955, 0.550588036687115]])
    system = P.PHSystem(**_fields(sys2, pieces=(near,)))
    assert system.modes[4][0] == math.inf
    assert np.isfinite(P.stability_scan(system, [1.0, 2.0]).abs_det).all()
    # H_k^{-1} finite, but L^T P1^{-1} L (about P1^{-1} H_k^{-1}) overflows:
    # the modal path marks the piece dense with finite factors, and a
    # build's overflow is OutOfRange, not LAPACK's error on inf input
    system = P.PHSystem(**_fields(sys2, P1=np.diag([0.01, 1.0]), pieces=(np.diag([1e-307, 1.0]),)))
    assert system.modes[4][0] == math.inf
    assert all(np.isfinite(m).all() for m in system.modes[:4])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(OutOfRange, match=r"on piece 0 at t=1\.0$"):
        P.stability_scan(system, [1.0, 2.0])


def test_moore_penrose(sys2):
    # W+ = W^T (W W^T)^{-1}, formed once per system; a W without full rank
    # is refused when the system is built
    W = np.hstack([np.eye(2), np.zeros((2, 2))])
    wp = P.PHSystem(**_fields(sys2, W=W)).W_pinv
    assert np.allclose(wp, np.vstack([np.eye(2), np.zeros((2, 2))]))
    assert np.abs(sys2.W @ sys2.W_pinv - np.eye(2)).max() <= 1e-12
    assert sys2.W_pinv is sys2.W_pinv and not sys2.W_pinv.flags.writeable
    with pytest.raises(ValidationError, match="W: rank deficient"):
        P.PHSystem(**_fields(sys2, W=np.hstack([np.full((2, 2), 0.5)] * 2)))


def test_fundamental_matrix_diagonal_closed_form(sys2):
    t = 3.7
    phi = P.FundamentalMatrix(sys2, [t])
    expect = np.diag([np.exp(-1j * t), np.exp(-1j * SQRT2 * t)])
    assert np.abs(phi.cum[0, -1] - expect).max() < 1e-14
    assert np.allclose(phi([0.0])[0, 0], np.eye(2))
    assert phi.sup_norms[0] == pytest.approx(1.0, abs=1e-12)


def test_fundamental_matrix_inverse_bound(sys2):
    # |Phi_t(x)^{-1}| <= B_t |P1| |P1^{-1}| at sampled x
    phi = P.FundamentalMatrix(sys2, [11.0])
    bound = phi.sup_norms[0] * 1.0 * 1.0
    for x in np.linspace(0, 1, 17):
        inv = np.linalg.inv(phi([x])[0, 0])
        assert np.linalg.norm(inv, 2) <= bound + 1e-10


def _ode_phi_b(system, t):
    """Phi_t(b) by integrating the ODE across the pieces."""
    d = system.d

    def rhs(x, v):
        hk = system.pieces[system.piece_index(min(x, system.b - 1e-14))]
        A = -np.linalg.inv(system.P1) @ (1j * t * np.linalg.inv(hk) + system.P0)
        dv = A @ (v[:d * d].reshape(d, d) + 1j * v[d * d:].reshape(d, d))
        return np.concatenate([dv.real.ravel(), dv.imag.ravel()])

    v0 = np.concatenate([np.eye(d).ravel(), np.zeros(d * d)])
    res = si.solve_ivp(rhs, (system.a, system.b), v0, method="DOP853", rtol=1e-12, atol=1e-13)
    return res.y[:d * d, -1].reshape(d, d) + 1j * res.y[d * d:, -1].reshape(d, d)


def test_two_piece_product_vs_ode_oracle():
    system = P.PHSystem(
        d=2, P0=np.array([[0.0, 1.0], [-1.0, 0.0]]), P1=np.diag([1.0, -2.0]),
        breaks=(0.0, 0.4, 1.0),
        pieces=(np.diag([1.0, 0.5]), np.array([[2.0, 0.3], [0.3, 1.0]])),
        W=np.hstack([np.full((2, 2), 0.5), np.eye(2)]),
    )
    t = 7.3
    phi = P.FundamentalMatrix(system, [t])
    assert np.abs(_ode_phi_b(system, t) - phi.cum[0, -1]).max() < 1e-10


@pytest.mark.parametrize("p0", ["zero", "skew"])
def test_two_piece_product_vs_ode_oracle_at_d3(p0):
    # P0 = 0 builds from PHSystem.modes, a skew P0 from _eigen; neither
    # takes the d = 2 closed form of the sampled norms
    P0 = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 0.8], [0.5, -0.8, 0.0]])
    system = P.PHSystem(
        d=3, P0=P0 if p0 == "skew" else np.zeros((3, 3)), P1=np.diag([1.0, -2.0, 1.5]),
        breaks=(0.0, 0.4, 1.0),
        pieces=(np.diag([1.0, 0.5, 2.0]),
                np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.7]])),
        W=np.hstack([np.full((3, 3), 0.5), np.eye(3)]),
    )
    assert (system.modes is None) == (p0 == "skew")
    t = 7.3
    phi = P.FundamentalMatrix(system, [t])
    assert np.abs(_ode_phi_b(system, t) - phi.cum[0, -1]).max() < 1e-10
    # the sampled B_t is the largest singular value over its sample points
    xs = np.concatenate([b + np.linspace(0.0, span, P._B_SAMPLES)[:-1]
                         for b, span in zip(system.breaks, np.diff(system.breaks))])
    want = np.linalg.svd(phi([*xs, system.b])[0], compute_uv=False)[:, 0].max()
    assert phi.sup_norms[0] == pytest.approx(want, rel=1e-12)


def test_d3_config_solves_and_checks():
    system = P.phsystem_from_json((DATA / "seeded3_d3_skew.json").read_text())
    assert system.d == 3 and system.P0.any() and len(system.pieces) == 3
    sol = P.resolvent_solve(system, 4.2, lambda xs: np.outer(np.cos(xs), [1.0, -1.0, 0.5]),
                            nodes=512, tol=1e-8)
    assert sol.residual <= 1e-8
    assert len(P._probe_values(system, np.zeros(1))) == 6
    rows = P.check_characterisation(system, [1.0, 4.2, 9.0], nodes=512)
    assert len(rows) == 3 and all(r["lower_ok"] for r in rows)


def test_boundary_matrix_t0(sys2):
    (T0,) = P.boundary_matrices(sys2, [0.0])
    assert abs(np.linalg.det(T0) - 2.0) < 1e-14
    assert np.abs(T0 - (np.full((2, 2), 0.5) + np.eye(2))).max() < 1e-14


def test_det_conjugate_convention(sys2):
    ts = (1.0, 10.0, 55.5)
    for t, d1 in zip(ts, np.linalg.det(P.boundary_matrices(sys2, ts))):
        assert abs(d1 - np.conj(P.det_closed_form(SQRT2, t))) < 1e-13


def test_stability_scan_rational_flags_3pi():
    s3 = P.universal_example(1.0 / 3.0)
    grid = sorted(list(np.linspace(0.0, 12.0, 61)) + [3 * math.pi])
    rep = P.stability_scan(s3, grid)
    assert rep.verdict == "grid singularity"
    assert any(abs(t - 3 * math.pi) < 1e-12 for t in rep.singular_points)
    assert min(rep.abs_det) <= 1e-12


def test_stability_scan_sqrt2_invertible(sys2):
    rep = P.stability_scan(sys2, np.linspace(0.0, 100.0, 501))
    assert rep.verdict == "invertible on grid"
    assert rep.min_margin > 0
    assert rep.B_estimate == pytest.approx(1.0, abs=1e-10)
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "t,abs_det,sigma_min,inv_norm"
    assert len(lines) == 502


def test_resolvent_zero_forcing(sys2):
    sol = P.resolvent_solve(sys2, 1.0, lambda xs: np.zeros((len(xs), 2)),
                            nodes=256, tol=math.inf)
    assert np.abs(sol.u).max() == 0.0
    assert sol.residual == 0.0


def test_resolvent_residuals_and_oracle(sys2):
    f = lambda xs: np.ones((len(xs), 2))
    sol = P.resolvent_solve(sys2, 1.0, f, nodes=2048, tol=math.inf)
    assert sol.boundary_residual <= 1e-10
    assert sol.ode_residual <= 1e-9
    # independent check: (it + A)u = f pointwise via the ODE for v = Hu
    # already covered by the FD residual; also check u solves the weak
    # identity at the midpoint against a dense reference solve
    sol_fine = P.resolvent_solve(sys2, 1.0, f, nodes=8192, tol=math.inf)
    mid = len(sol.x) // 2
    fine_mid = np.interp(sol.x[mid], sol_fine.x, sol_fine.v[:, 0].real)
    assert abs(sol.v[mid, 0].real - fine_mid) < 1e-9


def test_resolvent_singular_boundary():
    s3 = P.universal_example(1.0 / 3.0)
    with pytest.raises(SingularMatrix):
        P.resolvent_solve(s3, 3 * math.pi, lambda xs: np.ones((len(xs), 2)),
                          nodes=128)


def test_resolvent_quadrature_cap(sys2, monkeypatch):
    # noisy high-frequency forcing cannot hit an absurd tolerance
    monkeypatch.setattr(P, "_MAX_NODES", 128)
    f = lambda xs: np.stack([np.sin(5000 * xs), np.cos(5000 * xs)], axis=1)
    with pytest.raises(InsufficientPrecision, match="at 128 nodes \\(cap 128\\)"):
        P.resolvent_solve(sys2, 1.0, f, nodes=64, tol=1e-14)


def test_char_constants_hand_formula(sys2):
    ts = [1.0, 10.0, 50.0]
    c = P.char_constants(sys2, ts, P.FundamentalMatrix(sys2, ts).sup_norms)
    # (b-a)=1, P1=I, B=1; |W| = sqrt(2) since W W^T = M + I has top
    # eigenvalue 2; |S| = lambda_min(H)^{-1/2} = 2^{1/4}
    assert c.B == pytest.approx(1.0, abs=1e-10)
    assert c.W_norm == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert c.S_norm == pytest.approx(2.0 ** 0.25, rel=1e-12)
    expect_ct = 1 * 1 * c.S_norm * 1 * 1 * max(c.B * c.W_norm, 1.0)
    assert c.C_tilde == pytest.approx(expect_ct, rel=1e-12)
    expect_c = (1 * 1 * 1 * (1 + c.B) + 1) * c.W_pinv_norm * max(
        c.H_sup_norm * 1, 1.0
    )
    assert c.C == pytest.approx(expect_c, rel=1e-12)
    assert not c.b_flagged


def test_scan_constants_are_those_of_its_grid(sys16):
    # the scan assembles the constants from its own B_t samples, ordered by
    # t whatever the grid's order: B_t grows over this grid, read backwards
    # it would seem to fall
    ts = np.linspace(0.5, 20.0, 2 * P._T_CHUNK)
    rep = P.stability_scan(sys16, ts)
    assert rep.constants.B == pytest.approx(
        max(P.FundamentalMatrix(sys16, [t]).sup_norms[0] for t in ts), rel=1e-13)
    assert rep.constants.b_flagged
    b_ts = np.concatenate([st.sup_norms for st in P._stacks(sys16, ts)])
    assert P.char_constants(sys16, ts, b_ts) == rep.constants
    assert P.char_constants(sys16, ts[::-1], b_ts[::-1]) == rep.constants
    backwards = asdict(P.stability_scan(sys16, ts[::-1]).constants)
    assert backwards == pytest.approx(asdict(rep.constants), rel=1e-13)


def test_bench_tracer_sees_the_phi_builds_and_the_constants(sys2, monkeypatch):
    # the names perfbench/tracer.py wraps are the ones the scan and the
    # check run: each build of Phi_t and each assembly of the constants
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    for call in (P.stability_scan, P.check_characterisation):
        tr = tracer.Tracer()
        with tr.installed():
            call(sys2, np.linspace(1.0, 20.0, P._T_CHUNK + 1))
        stats = tr.end_job()
        assert stats["phs.FundamentalMatrix.init"].calls == 2
        assert stats["phs.char_constants"].calls == 1


def test_empty_grid_is_refused(sys16):
    for call in (P.stability_scan, P.check_characterisation):
        with pytest.raises(ValidationError, match="t grid must be non-empty"):
            call(sys16, [])
    with pytest.raises(ValidationError, match="t grid must be non-empty"):
        P.char_constants(sys16, [], [])


def test_check_characterisation_small_grid(sys2):
    rows = P.check_characterisation(sys2, [1.0, 5.0, 9.0], nodes=512)
    assert all(r["lower_ok"] for r in rows)
    assert all(r["R_lower"] > 0 for r in rows)


def test_json_round_trip(sys2):
    text = P.phsystem_to_json(sys2)
    again = P.phsystem_from_json(text)
    assert np.allclose(again.W, sys2.W)
    assert np.allclose(again.pieces[0], sys2.pieces[0])
    with pytest.raises(ValidationError):
        P.phsystem_from_json("{\"d\": 2}")


@pytest.mark.parametrize("path, bad", [
    (("d",), 2.5),
    (("d",), "2"),
    (("d",), True),
    (("P0", 0, 1), True),
    (("P1", 0, 0), True),
    (("W", 0, 2), True),
    (("H", "breaks", 1), True),
    (("H", "pieces", 0, 0, 0), False),
])
def test_config_refuses_a_non_integer_d_and_boolean_entries(path, bad):
    # at the writer's format, d is a JSON integer and each entry a numeric
    # string; int() read 2.5 as 2 and float() read true as 1.0
    obj = json.loads((DATA / "universal_sqrt2.json").read_text())
    P.phsystem_from_json(json.dumps(obj))
    *outer, last = path
    node = obj
    for key in outer:
        node = node[key]
    node[last] = bad
    with pytest.raises(ValidationError, match="malformed system config: .*"
                                              + ("integer" if last == "d" else "boolean")):
        P.phsystem_from_json(json.dumps(obj))


@pytest.mark.parametrize("interval", [["0.0", "5.0"], ["-1.0", "1.0"], ["0.0"]])
def test_config_refuses_an_interval_that_is_not_the_breaks(interval):
    # the interval was ignored: ["0.0", "5.0"] with breaks [0, 1] scanned [0, 1]
    obj = json.loads((DATA / "universal_sqrt2.json").read_text())
    for ok in ([0, 1.0], None):
        if ok is None:
            del obj["interval"]
        else:
            obj["interval"] = ok
        system = P.phsystem_from_json(json.dumps(obj))
        assert (system.a, system.b) == (0.0, 1.0)
    obj["interval"] = interval
    with pytest.raises(ValidationError, match="malformed system config: interval .* is not "
                                              r"\[0\.0, 1\.0\], the first and the last break"):
        P.phsystem_from_json(json.dumps(obj))


@pytest.mark.parametrize("mutate", [
    lambda c: {**{k: v for k, v in c.items() if k != "interval"},
               "H": {**c["H"], "breaks": "01"}, "P1": ["10", "01"]},
    lambda c: {**{k: v for k, v in c.items() if k != "interval"},
               "H": {**c["H"], "breaks": "01"}},
    lambda c: {**c, "interval": "01"},
])
def test_config_refuses_a_string_where_it_reads_an_array(mutate):
    # a string's characters read as entries: "01" loaded as the breaks
    # (0.0, 1.0), ["10", "01"] as P1 = I, and "01" passed as the interval
    obj = json.loads((DATA / "universal_sqrt2.json").read_text())
    with pytest.raises(ValidationError, match="malformed system config: '.*' is not a JSON array"):
        P.phsystem_from_json(json.dumps(mutate(obj)))


@pytest.mark.parametrize("field, value, message", [
    (("H", "pieces", 0), [[str(v) for v in row] for row in _SINGULAR_H],
     "H piece 0: singular to working precision"),
    (("P1",), [["1.0", "0.0"], ["0.0", "1e-20"]], r"P1: not invertible \(eigenvalue near 0\)"),
])
def test_config_the_validator_refuses_reads_as_the_refusal(field, value, message):
    # the reader's try wrapped these as "malformed system config: ..."
    obj = json.loads((DATA / "universal_sqrt2.json").read_text())
    *outer, last = field
    node = obj
    for key in outer:
        node = node[key]
    node[last] = value
    with pytest.raises(ValidationError, match=f"^{message}$"):
        P.phsystem_from_json(json.dumps(obj))


@pytest.fixture(scope="module")
def sys16():
    """A seeded 16-piece system with skew P0 and indefinite P1."""
    rng = np.random.default_rng(2024)
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 15)), [1.0]])
    pieces = []
    for _ in range(16):
        g = rng.normal(size=(2, 2))
        pieces.append(g @ g.T + 0.5 * np.eye(2))
    return P.PHSystem(
        d=2, P0=np.array([[0.0, 0.3], [-0.3, 0.0]]), P1=np.diag([1.0, -2.0]),
        breaks=tuple(float(x) for x in breaks), pieces=tuple(pieces),
        W=np.hstack([np.full((2, 2), 0.5), np.eye(2)]),
    )


def test_at_many_matches_pointwise(sys16):
    phi = P.FundamentalMatrix(sys16, [6.3])
    rng = np.random.default_rng(7)
    xs = np.concatenate([sys16.breaks, rng.uniform(sys16.a, sys16.b, 200)])
    rng.shuffle(xs)
    (many,) = phi(xs)
    one = np.stack([phi([x])[0, 0] for x in xs])
    scale = np.abs(one).max(axis=(1, 2))[:, None, None]
    assert np.abs(many - one).max(axis=(1, 2)).max() <= 1e-13 * scale.max()
    assert (np.abs(many - one) <= 1e-13 * scale).all()
    # a build over several t gives every t's points at once
    both = P.FundamentalMatrix(sys16, [2.0, 6.3])(xs)
    assert both.shape == (2, len(xs), 2, 2)
    assert (np.abs(both[1] - many) <= 1e-13 * scale).all()
    assert (np.abs(both[0] - P.FundamentalMatrix(sys16, [2.0])(xs)[0]) <= 1e-13 * scale).all()
    # independent reference: products of dense matrix exponentials
    p1inv = np.linalg.inv(sys16.P1)
    gens = [-p1inv @ (1j * 6.3 * np.linalg.inv(h) + sys16.P0) for h in sys16.pieces]
    spans = list(zip(sys16.breaks[:-1], sys16.breaks[1:]))
    full = [sla.expm(A * (x1 - x0)) for A, (x0, x1) in zip(gens, spans)]
    for x, m in zip(xs, many):
        ref = np.eye(2, dtype=complex)
        for A, e, (x0, x1) in zip(gens, full, spans):
            if x <= x1:
                ref = sla.expm(A * (x - x0)) @ ref
                break
            ref = e @ ref
        assert np.abs(m - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1.0)


def test_at_many_outside_interval_raises(sys16):
    phi = P.FundamentalMatrix(sys16, [2.0, 3.0])
    with pytest.raises(ValidationError):
        phi(np.array([0.5, 1.0 + 1e-12]))
    with pytest.raises(ValidationError):
        phi(np.array([-1e-12]))
    with pytest.raises(ValidationError):
        phi([1.5])


def test_expm_fallback_agrees_with_eigen_path(sys16, monkeypatch):
    f = lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs) + 1j], axis=1)
    eig = P.resolvent_solve(sys16, 4.2, f, nodes=512, tol=1e-8)
    monkeypatch.setattr(P, "_EIG_COND_MAX", 0.0)
    phi = P.FundamentalMatrix(sys16, [4.2])
    assert phi.dense.all()
    dense = P.resolvent_solve(sys16, 4.2, f, nodes=512, tol=1e-8)
    assert dense.residual <= 1e-8
    assert dense.nodes == eig.nodes
    assert np.abs(dense.v - eig.v).max() <= 1e-10 * np.abs(eig.v).max()
    assert dense.u_norm_H == pytest.approx(eig.u_norm_H, rel=1e-10)


def _public_probes(system, t):
    """The probe right-hand sides of ``check_characterisation`` at t as
    callables for ``resolvent_solve``: the fixed probes, then the
    adversarial f = P1 Phi_t(x) w / (b - a)."""
    phi = P.FundamentalMatrix(system, [t])
    n = len(P._probe_values(system, np.zeros(1)))
    w = P._adversarial_w(phi, 0)
    fixed = [lambda xs, p=p: P._probe_values(system, xs)[p] for p in range(n)]
    return fixed + [lambda xs: (phi(xs)[0] @ w) @ system.P1.T / (system.b - system.a)]


def _assert_matches_public_probe_solves(system, t=3.0, nodes=256):
    """R_lower of ``check_characterisation`` equals the best |u|_H / |f|_H
    over every probe solved by quadrature through the public solve, the
    adversarial one included."""
    (row,) = P.check_characterisation(system, [t], nodes=nodes)
    fs = _public_probes(system, t)
    assert len(fs) == 6
    best = 0.0
    for f in fs:
        sol = P.resolvent_solve(system, t, f, nodes=nodes, tol=math.inf)
        fv = np.asarray(f(sol.x), dtype=complex)
        # a breakpoint node takes the piece on its left
        ks = np.maximum(np.searchsorted(system.breaks, sol.x, side="left") - 1, 0)
        hf = np.stack([system.pieces[k] @ y for k, y in zip(ks, fv)])
        f_norm = math.sqrt(np.trapezoid(np.einsum("ni,ni->n", fv.conj(), hf).real, sol.x))
        best = max(best, sol.u_norm_H / f_norm)
    assert row["R_lower"] == pytest.approx(best, rel=1e-12)
    assert row["lower_ok"]


def test_check_characterisation_matches_public_probe_solves(sys16):
    _assert_matches_public_probe_solves(sys16)


@pytest.mark.parametrize("case", ["dense", "p0_zero"])
def test_public_probe_solves_match_on_the_dense_path_and_with_p0_zero(sys16, monkeypatch, case):
    system = sys16
    if case == "dense":
        monkeypatch.setattr(P, "_EIG_COND_MAX", 0.0)
        assert P.FundamentalMatrix(system, [3.0]).dense.all()
    else:
        system = P.phsystem_from_json((DATA / "seeded16_p0_zero.json").read_text())
        assert not system.P0.any()
    _assert_matches_public_probe_solves(system)


def test_check_characterisation_cost(sys16, monkeypatch):
    # one Phi_t build per (system, t), shared by the constants, T_t and the
    # probe solves; no scalar Phi_t(x) calls
    counts = {"call": 0, "phi_t": 0}
    call, build = P.FundamentalMatrix.__call__, P.FundamentalMatrix.__init__

    def counted_call(self, xs):
        counts["call"] += 1
        return call(self, xs)

    def counted_build(self, sys, ts, *args, **kw):
        counts["phi_t"] += len(ts)
        build(self, sys, ts, *args, **kw)

    monkeypatch.setattr(P.FundamentalMatrix, "__call__", counted_call)
    monkeypatch.setattr(P.FundamentalMatrix, "__init__", counted_build)
    P.check_characterisation(sys16, [5.0], nodes=256)
    assert counts == {"call": 0, "phi_t": 1}
    counts["phi_t"] = 0
    P.check_characterisation(sys16, [9.0, 1.0, 5.0], nodes=256)
    assert counts == {"call": 0, "phi_t": 3}


def test_probes_are_formed_once_per_grid(sys16, monkeypatch):
    # the t-independent probe values and their H-norms sit on the cached
    # grid: a second check with the same node count forms neither again
    system = P.PHSystem(**_fields(sys16))
    calls = []
    probe_values = P._probe_values
    monkeypatch.setattr(P, "_probe_values", lambda sys, xs: calls.append(len(xs)) or probe_values(sys, xs))
    first = P.check_characterisation(system, [5.0, 2.0], nodes=256)
    assert len(calls) == 1
    again = P.check_characterisation(system, [5.0, 2.0], nodes=256)
    assert len(calls) == 1
    assert json.dumps(again) == json.dumps(first)  # repr: bit for bit
    fv, f_norms = P._grid(system, 256).probes()
    for m in (fv, f_norms):
        with pytest.raises(ValueError, match="read-only"):
            m[0] = 0.0
    P.check_characterisation(system, [5.0], nodes=128)
    assert len(calls) == 2


def test_probe_solves_compute_only_what_they_read(sys16, monkeypatch):
    # the probe solves form no residuals, and the adversarial probe is
    # never evaluated at the Gauss nodes: per piece, exp(A s) y is applied
    # at the panel midpoints and at the grid, once each
    checks, offsets = [], []
    residuals, apply = P._residuals, P.FundamentalMatrix.apply

    def counted_residuals(st, i, g, v, fx):
        checks.append(len(g.x))
        return residuals(st, i, g, v, fx)

    def counted_apply(self, i, k, s, y):
        offsets.append(len(s))
        return apply(self, i, k, s, y)

    monkeypatch.setattr(P, "_residuals", counted_residuals)
    monkeypatch.setattr(P.FundamentalMatrix, "apply", counted_apply)
    P.check_characterisation(sys16, [5.0], nodes=256)
    counts = P._Grid(sys16, 256).counts
    assert checks == []
    assert sorted(offsets) == sorted(counts + [n + 1 for n in counts])
    # the public solve runs the residual helper once per grid it tries
    f = lambda xs: np.stack([np.sin(20 * xs), np.cos(20 * xs)], axis=1)
    sol = P.resolvent_solve(sys16, 5.0, f, nodes=32, tol=1e-10)
    assert sol.nodes == 256
    assert checks == [len(P._Grid(sys16, n).x) for n in (32, 64, 128, 256)]


# resolvent_solve's bits on sys16 at t = 4.2, pinned from the solve in which
# the residuals were still formed inline: neither the residual helper nor
# the shared grid may change them. LAPACK's last bits differ between builds,
# so where Phi_t's own bits differ from _PHI_BITS the floats are checked to
# rtol=1e-12 only, as tests/test_phs_golden.py does
_PHI_BITS = "b653520ab294c757"
_SOLVE_BITS = {
    (512, 1e-8): (512, "d1b23b96c50a5724", "0x1.cd82b446159f3p-54",
                  "0x1.774c6da15b386p-42", "0x1.39327fc3ee51bp-1"),
    (64, 1e-10): (64, "743558a089f4cb47", "0x1.d64d51e0db1c6p-53",
                  "0x1.efcb5fa2b3010p-36", "0x1.390190bc796ccp-1"),
}


def _bits(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("nodes, tol", list(_SOLVE_BITS))
def test_resolvent_solve_bits_are_pinned(sys16, nodes, tol):
    f = lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs) + 1j], axis=1)
    sol = P.resolvent_solve(sys16, 4.2, f, nodes=nodes, tol=tol)
    n, v_bits, *floats = _SOLVE_BITS[nodes, tol]
    got = (sol.boundary_residual, sol.ode_residual, sol.u_norm_H)
    assert sol.nodes == n
    if _bits(P.FundamentalMatrix(sys16, [4.2])(sys16.breaks)[0]) == _PHI_BITS:
        assert _bits(sol.v) == v_bits
        assert [x.hex() for x in got] == floats
    else:
        assert got == pytest.approx([float.fromhex(x) for x in floats], rel=1e-12)


def test_adversarial_direction_is_never_dropped(sys16, monkeypatch):
    # a Phi_t(b) that numpy cannot invert refuses the check, naming t,
    # instead of dropping the strongest probe and lowering R_lower
    inv, at_b = np.linalg.inv, P.FundamentalMatrix(sys16, [5.0]).cum[0, -1]

    def no_phi_b(a):
        if np.shape(a) == (2, 2) and np.allclose(a, at_b, rtol=1e-12, atol=0.0):
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", no_phi_b)
    with pytest.raises(SingularMatrix, match=r"t=5\.0\b"):
        P.check_characterisation(sys16, [1.0, 5.0], nodes=128)


def test_system_norms_are_formed_once(sys16, monkeypatch):
    # |W|, |W+|, |P1|, |P1^{-1}| and H's extreme eigenvalues are formed
    # once per system: later scans and checks read them
    system = P.PHSystem(**_fields(sys16))
    calls = []
    norm, eigvalsh = np.linalg.norm, np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: calls.append("norm") or norm(*a, **kw))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append("eigvalsh") or eigvalsh(a))
    first = P.stability_scan(system, [1.0, 2.0]).constants
    assert calls.count("norm") == 4 and calls.count("eigvalsh") == 1
    calls.clear()
    again = P.stability_scan(system, [1.0, 2.0]).constants
    P.check_characterisation(system, [3.0], nodes=128)
    assert calls == []
    assert again == first


def test_each_boundary_matrix_is_factored_once(sys16, monkeypatch):
    # one batched SVD of the stack's T_t serves the inverse norms, every
    # solve's singular check and the adversarial direction; W+ is taken
    # once per system, for every stack and the constants
    sys16 = P.PHSystem(**_fields(sys16))  # W+ not yet formed
    ts = [9.0, 1.0, 5.0] + [float(t) for t in range(20, 20 + P._T_CHUNK)]
    factored, inverted = [], []
    svd, det, inv = np.linalg.svd, np.linalg.det, np.linalg.inv
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: factored.append(a) or svd(a, *args, **kw))
    monkeypatch.setattr(np.linalg, "det", lambda a: factored.append(a) or det(a))
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
    P.check_characterisation(sys16, ts, nodes=128)
    stacks = list(P._stacks(sys16, ts))
    assert len(stacks) == 2
    per_t = {(j, i): 0 for j, st in enumerate(stacks) for i in range(len(st.ts))}
    for a in factored:  # a stack of T_t counts once for each of its t
        for j, st in enumerate(stacks):
            for i, T in enumerate(st.T):
                if np.array_equal(a, st.T) or np.array_equal(a, T):
                    per_t[j, i] += 1
    assert set(per_t.values()) == {1}
    wwt = sys16.W @ sys16.W.T
    assert sum(np.array_equal(a, wwt) for a in inverted) == 1


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    return q


def _assert_norm2(m, rtol=4e-15):
    ref = np.linalg.norm(m, ord=2, axis=(-2, -1))
    got = P._norm2(m)
    assert got.shape == ref.shape
    assert (np.abs(got - ref) <= rtol * ref).all(), np.max(np.abs(got - ref) / ref)


def test_norm2_closed_form_special_stacks():
    rng = np.random.default_rng(11)
    n = 528
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (n, 2)))
    u = _unitary(rng, n)
    x, y = rng.normal(size=(2, n, 2)) + 1j * rng.normal(size=(2, n, 2))
    for m in (
        rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)),
        phases[:, :, None] * np.eye(2),  # diagonal unitary
        1e5 * u,  # scaled unitary: sigma_1 = sigma_2
        x[:, :, None] * y.conj()[:, None, :],  # rank 1: det = 0
    ):
        _assert_norm2(m)
    assert (np.abs(P._norm2(u) - 1.0) <= 4e-15).all()
    _assert_norm2(rng.normal(size=(3, 4, 2, 2)))  # leading axes kept
    # det M under- and overflows past entries of 1e-154 and 1e154
    _assert_norm2(10.0 ** rng.uniform(-200, 200, (n, 1, 1))
                  * (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))))
    _assert_norm2(np.zeros((2, 2, 2)), rtol=0.0)
    m3 = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    assert np.array_equal(P._norm2(m3), np.linalg.norm(m3, ord=2, axis=(1, 2)))


_ENTRY = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRY, min_size=8, max_size=8), st.integers(-60, 60))
@example([0.0, 0.0, 4.914647646829204e-259, 0.0, 0.0, 1.0, 0.0, 0.0], -25)  # subnormal det
@example([0.0, 0.0, 1.056037963713986e-212, 0.0,
          0.0, 5.248109453501733e-214, 0.0, 0.0], 0)  # det underflows to 0
@example([3e5, -1e6, 2e5, 7e5, 1e5, 0.0, -4e5, 9e5], 160)  # det overflows
def test_norm2_closed_form_matches_svd(vals, e):
    m = (np.array(vals[:4]) + 1j * np.array(vals[4:])).reshape(1, 2, 2) * 10.0**e
    if not np.isfinite(m).all() or np.abs(m).max() < 1e-250:
        return
    _assert_norm2(m)


def test_stacked_build_matches_per_t(sys16):
    # more t than one chunk, unsorted, with repeats
    ts = np.concatenate([np.linspace(0.0, 40.0, P._T_CHUNK + 9), [3.3, 0.7, 3.3]])
    stacks = list(P._stacks(sys16, ts))
    assert [len(s.ts) for s in stacks] == [P._T_CHUNK, 12]
    at_b = np.concatenate([s.cum[:, -1] for s in stacks])
    b_t = np.concatenate([s.sup_norms for s in stacks])
    for t, m, b in zip(ts, at_b, b_t):
        phi = P.FundamentalMatrix(sys16, [t])
        assert np.abs(m - phi.cum[0, -1]).max() <= 1e-13 * np.abs(phi.cum[0, -1]).max()
        assert b == pytest.approx(phi.sup_norms[0], rel=1e-13)
    rep = P.stability_scan(sys16, ts)
    T = np.stack([P.boundary_matrices(sys16, [t])[0] for t in ts])
    assert rep.t_grid == tuple(float(t) for t in ts)
    np.testing.assert_allclose(rep.abs_det, np.abs(np.linalg.det(T)), rtol=1e-13)
    sv = np.linalg.svd(T, compute_uv=False)
    np.testing.assert_allclose(rep.sigma_min, sv[:, -1], rtol=1e-13)
    np.testing.assert_allclose(rep.inv_norm, 1.0 / sv[:, -1], rtol=1e-13)
    assert rep.min_margin == pytest.approx(np.abs(np.linalg.det(T)).min(), rel=1e-13)
    assert rep.B_estimate == pytest.approx(
        max(P.FundamentalMatrix(sys16, [t]).sup_norms[0] for t in ts), rel=1e-13
    )


def test_boundary_matrices(sys2, sys16):
    ts = np.linspace(0.0, 100.0, 150)
    for system in (sys2, sys16):
        many = P.boundary_matrices(system, ts)
        assert many.shape == (len(ts), 2, 2)
        for t, m in zip(ts, many):
            (one,) = P.boundary_matrices(system, [t])
            assert np.abs(m - one).max() <= 1e-14 * np.abs(one).max()
    assert P.boundary_matrices(sys2, []).shape == (0, 2, 2)


def test_expm_fallback_for_some_pairs_in_one_batch(sys16, monkeypatch):
    ts = np.linspace(0.5, 20.0, 9)
    (ref,) = P._stacks(sys16, ts)
    cond = np.linalg.cond(ref.V)
    monkeypatch.setattr(P, "_EIG_COND_MAX", float(np.median(cond)))
    (mixed,) = P._stacks(sys16, ts)
    assert mixed.dense.any() and not mixed.dense.all()
    assert mixed.dense.any(axis=1).sum() >= 2  # several t, in one batch
    assert np.abs(mixed.cum - ref.cum).max() <= 1e-10 * np.abs(ref.cum).max()
    np.testing.assert_allclose(mixed.sup_norms, ref.sup_norms, rtol=1e-10)
    i = int(np.argmax(mixed.dense.sum(axis=1)))
    xs = np.linspace(sys16.a, sys16.b, 101)
    want = ref(xs)
    assert np.abs(mixed(xs) - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exp_overflow_names_t():
    # P1^{-1} P0 has eigenvalues +-1000: Phi_t overflows for |t| < 1000
    # and stays bounded beyond
    system = P.PHSystem(
        d=2, P0=np.array([[0.0, 1000.0], [-1000.0, 0.0]]), P1=np.diag([1.0, -1.0]),
        breaks=(0.0, 1.0), pieces=(np.eye(2),),
        W=np.hstack([np.full((2, 2), 0.5), np.eye(2)]),
    )
    assert np.isfinite(P.boundary_matrices(system, [5000.0, 3000.0])).all()
    ts = [5000.0, 3000.0] + [2000.0 + k for k in range(P._T_CHUNK)] + [0.0, 4000.0]
    with pytest.raises(OutOfRange, match=r"at t=0\.0$"):
        P.boundary_matrices(system, ts)
    with pytest.raises(OutOfRange, match=r"at t=0\.0$"):
        P.stability_scan(system, ts)
    with pytest.raises(OutOfRange, match=r"at t=0\.0$"):
        P.FundamentalMatrix(system, [0.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_stacked_eig_goes_dense(sys16, monkeypatch):
    # the stacked eig raises LinAlgError at finite t: every pair goes dense,
    # and the dense exponentials give the same Phi_t
    want = P.FundamentalMatrix(sys16, [2.0, 3.0]).cum[:, -1]

    def failed(a):
        raise np.linalg.LinAlgError("eig did not converge")

    monkeypatch.setattr(P.la, "eig", failed)
    st = P.FundamentalMatrix(sys16, [2.0, 3.0])
    assert st.dense.all()
    np.testing.assert_allclose(st.cum[:, -1], want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_t_that_is_not_finite_is_refused_as_such(sys16, bad):
    # not reported as an overflow: nothing overflowed, the input was not finite
    name = "nan" if math.isnan(bad) else repr(bad)
    for call in (lambda: P.FundamentalMatrix(sys16, [2.0, bad]),
                 lambda: P.stability_scan(P.universal_example(math.sqrt(2)), [1.0, bad]),
                 lambda: P.resolvent_solve(sys16, bad, lambda xs: np.ones((len(xs), 2)))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"^t={name} is not finite$"):
                call()


def test_multi_rhs_solve_matches_single_solves(sys16):
    fs = [
        lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs) + 1j], axis=1),
        lambda xs: np.ones((len(xs), 2)),
        lambda xs: np.stack([xs**2, -xs], axis=1) * (1 - 2j),
        lambda xs: np.zeros((len(xs), 2)),
    ]
    st, g = P.FundamentalMatrix(sys16, [7.5]), P._Grid(sys16, 512)

    def solve(fs):
        fv = np.concatenate([g.values(f) for f in fs])
        v, _ = P._solve_once(st, 0, g, fv)
        res = np.maximum(*P._residuals(st, 0, g, v, fv[:, -len(g.x):]))
        return v, g.h_norms(v, g.by_piece(sys16.hinv, v)), res

    many = solve(fs)
    assert len(many[0]) == len(fs)
    for p, f in enumerate(fs):
        one = solve([f])
        scale = max(np.abs(one[0]).max(), 1e-300)
        assert np.abs(many[0][p] - one[0][0]).max() <= 1e-13 * scale
        assert many[1][p] == pytest.approx(one[1][0], rel=1e-13)
        # the residuals sit at the rounding floor of the FD stencil
        assert abs(many[2][p] - one[2][0]) <= 1e-12
    assert many[1][3] == 0.0
    with pytest.raises(ValidationError):
        g.values(lambda xs: np.ones(len(xs)))


def _reference_solve(system, t, f, nodes):
    """Brute-force resolvent solve: Phi_t(s)^{-1} at every Gauss node from
    ``FundamentalMatrix``, the composite 8-point Gauss-Legendre rule on the uniform
    panels of each piece, and the boundary solve; (x, (Hu)(x))."""
    phi = P.FundamentalMatrix(system, [t])
    d, a, b = system.d, system.a, system.b
    p1inv = np.linalg.inv(system.P1)
    xi, wi = np.polynomial.legendre.leggauss(8)
    xs, runs, total = [np.array([a])], [np.zeros((1, d), complex)], np.zeros(d, complex)
    for x0, x1 in zip(system.breaks, system.breaks[1:]):
        n = max(16, round(nodes * (x1 - x0) / (b - a)))
        grid = np.linspace(x0, x1, n + 1)
        h = (x1 - x0) / n
        s = (0.5 * (grid[:-1] + grid[1:])[:, None] + 0.5 * h * xi).ravel()
        integrand = np.einsum("nij,nj->ni", np.linalg.inv(phi(s)[0]), f(s) @ p1inv.T)
        run = total + np.cumsum((integrand.reshape(n, 8, d) * (0.5 * h * wi)[:, None]).sum(axis=1),
                                axis=0)
        xs.append(grid[1:])
        runs.append(run)
        total = run[-1]
    x, integral = np.concatenate(xs), np.concatenate(runs)
    (T,) = P.boundary_matrices(system, [t])
    v_a = np.linalg.solve(T, -system.W[:, :d] @ phi.cum[0, -1] @ total)
    return x, np.einsum("nij,nj->ni", phi(x)[0], v_a + integral)


@pytest.mark.parametrize("dense", [False, True])
def test_factored_quadrature_matches_brute_force(sys16, monkeypatch, dense):
    f = lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs) + 1j], axis=1)
    cases = [(t, nodes, _reference_solve(sys16, t, f, nodes))
             for t, nodes in ((0.7, 256), (4.2, 512), (13.0, 1024))]
    if dense:
        # the references above stay on the eigen path
        monkeypatch.setattr(P, "_EIG_COND_MAX", 0.0)
        assert P.FundamentalMatrix(sys16, [4.2]).dense.all()
    for t, nodes, (x, v) in cases:
        sol = P.resolvent_solve(sys16, t, f, nodes=nodes, tol=math.inf)
        assert np.array_equal(sol.x, x)
        assert np.abs(sol.v - v).max() <= 1e-12 * np.abs(v).max()


@pytest.mark.parametrize("dense", [False, True])
def test_adversarial_probe_is_phi_w(sys16, monkeypatch, dense):
    if dense:
        monkeypatch.setattr(P, "_EIG_COND_MAX", 0.0)
    t = 3.0
    phi = P.FundamentalMatrix(sys16, [t])
    assert phi.dense.all() == dense
    # w = Phi_t(b)^{-1} y for the worst singular direction of T_t
    _, _, vh = np.linalg.svd(P.boundary_matrices(sys16, [t])[0])
    z12 = sys16.W_pinv @ vh[-1].conj()
    at_b = phi.cum[0, -1]
    w = np.linalg.solve(at_b, -z12[:2] + at_b @ z12[2:])
    got = P._adversarial_w(phi, 0)
    assert np.abs(got - w).max() <= 1e-13 * np.abs(w).max()
    # the solve's propagation pass gives Phi_t(x) w on the grid, hence the
    # adversarial f = P1 Phi_t(x) w / (b - a), beside one more v
    g = P._Grid(sys16, 256)
    fv = P._probe_values(sys16, g.xs)
    v, phi_w = P._solve_once(phi, 0, g, fv, got)
    assert v.shape == (len(fv) + 1, len(g.x), 2)
    want = phi(g.x)[0] @ w
    assert np.abs(phi_w - want).max() <= 1e-13 * np.abs(want).max()
    alone, none = P._solve_once(phi, 0, g, fv)
    assert none is None
    assert np.abs(v[:-1] - alone).max() <= 1e-13 * np.abs(alone).max()


@pytest.mark.parametrize("shape", [lambda n: (n,), lambda n: (n, 1), lambda n: (n, 3),
                                   lambda n: (2, n), lambda n: (n - 1, 2)])
def test_resolvent_rhs_of_wrong_shape_raises(sys2, shape):
    with pytest.raises(ValidationError, match=r"must return shape \(n, 2\)"):
        P.resolvent_solve(sys2, 4.2, lambda xs: np.ones(shape(len(xs))), nodes=256)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf * 1j])
def test_resolvent_rhs_that_is_not_finite_raises(sys2, value):
    # a value f cannot give is bad input, not a precision problem: no grid
    # doubling, and the message names the first such x
    def f(xs):
        vals = np.ones((len(xs), 2), dtype=complex)
        vals[xs >= 0.5, 1] = value
        return vals

    with pytest.raises(ValidationError, match=r"right-hand side is not finite at x=0\.5$"):
        P.resolvent_solve(sys2, 3.0, f, nodes=256)
    # finite values whose sum overflows are values
    huge = P._Grid(sys2, 64).values(lambda xs: np.full((len(xs), 2), 1e308))
    assert (huge == 1e308).all()


def _refused_within(seconds, call, match):
    """call() raises ValidationError matching ``match``; an alarm ends a
    call that would loop instead."""

    def stop(signum, frame):
        raise TimeoutError(f"no refusal within {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        with pytest.raises(ValidationError, match=match):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("nodes", [0, -5, 2.5, True, 256.0, "256", None])
def test_a_node_count_that_is_not_an_integer_of_at_least_1_is_refused(nodes):
    system = P.universal_example(SQRT2)
    f = lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs)], axis=1)
    P._grid(system, 1)  # a cached grid that True (== 1) must not find
    P._grid(system, 256)  # and one that 256.0 must not find
    match = rf"nodes {nodes!r} is not an integer >= 1"
    _refused_within(10, lambda: P.resolvent_solve(system, 3.0, f, nodes=nodes), match)
    _refused_within(10, lambda: P.check_characterisation(system, [3.0], nodes=nodes), match)
    with pytest.raises(ValidationError, match=match):
        P._Grid(system, nodes)


def test_a_numpy_integer_node_count_is_a_node_count(sys2):
    f = lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs)], axis=1)
    want = P.resolvent_solve(sys2, 3.0, f, nodes=64, tol=math.inf)
    got = P.resolvent_solve(sys2, 3.0, f, nodes=np.int64(64), tol=math.inf)
    assert got.nodes == 64 and np.array_equal(got.v, want.v)
    assert P.check_characterisation(sys2, [3.0], nodes=np.int32(64)) == \
        P.check_characterisation(sys2, [3.0], nodes=64)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, -math.inf])
def test_resolvent_solve_refuses_a_tol_that_is_nan_or_not_positive(sys2, tol):
    f = lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs)], axis=1)
    with pytest.raises(ValidationError, match=rf"tol {tol!r} is not a positive number"):
        P.resolvent_solve(sys2, 3.0, f, nodes=64, tol=tol)


def test_a_nan_point_is_outside_the_interval(sys2):
    with pytest.raises(ValidationError, match=r"x=nan outside \[0\.0, 1\.0\]"):
        sys2.piece_index([0.5, math.nan])
    with pytest.raises(ValidationError, match=r"x=nan outside"):
        P.FundamentalMatrix(sys2, [1.0])([math.nan])


def _formed_norms(stack):
    """_norm2 of the broadcast stack of (d, d) products exp(A s) Phi_t(x_k)
    at the sampled points, shape (len(ts), pieces, _B_SAMPLES)."""
    s = np.linspace(0.0, stack.spans, P._B_SAMPLES, axis=1)
    return P._norm2(stack.exps(s) @ stack.cum[:, :-1, None])


def test_sup_norms_equal_the_broadcast_products(sys16, monkeypatch):
    # one (m d, d) @ (d, d) product per (t, piece) pair gives the bits of
    # the broadcast stack of (d, d) products, dense pairs included
    ts = np.linspace(0.5, 20.0, 16)
    (ref,) = P._stacks(sys16, ts)
    monkeypatch.setattr(P, "_EIG_COND_MAX", float(np.median(np.linalg.cond(ref.V))))
    (mixed,) = P._stacks(sys16, ts)
    assert mixed.dense.any() and not mixed.dense.all()
    for stack in (ref, mixed):
        want = _formed_norms(stack).max(axis=(1, 2))
        assert np.array_equal(stack.sup_norms.view(np.int64), want.view(np.int64))


_EPS = np.finfo(float).eps


def _eig_norms(stack):
    """:func:`P._norms_eig` of a build at its sampled points."""
    s = np.linspace(0.0, stack.spans, P._B_SAMPLES, axis=1)
    return P._norms_eig(stack.lam, stack.V, stack.Vi @ stack.cum[:, :-1], s)


@pytest.mark.parametrize("name", ["universal_sqrt2", "seeded16_p0_zero", "sys16_p0_zero"])
def test_sampled_norms_from_eigen_pairs_match_the_formed_products(name, sys16):
    # every sample, t = 0 ... 50, of modal builds (P0 = 0); sys16 with P0
    # dropped has an indefinite P1
    if name == "sys16_p0_zero":
        system = P.PHSystem(**_fields(sys16, P0=np.zeros((2, 2))))
    else:
        system = P.phsystem_from_json((DATA / f"{name}.json").read_text())
    assert system.modes is not None
    for stack in P._stacks(system, np.linspace(0.0, 50.0, 161)):
        assert not stack.dense.any()
        got, want = _eig_norms(stack), _formed_norms(stack)
        err = np.abs(got - want) / (_EPS * want)
        assert err.max() <= 8, err.max()
        assert np.array_equal(stack.sup_norms, got.max(axis=(1, 2)))


def test_sampled_norms_from_eigen_pairs_scale_exactly():
    # R (hence Phi_t(x_k)) scaled by 2^+-600 scales every norm exactly: the
    # power-of-two scaling of R keeps kappa and the moduli in range.  The
    # last pair has a subnormal det R, hence kappa
    system = P.phsystem_from_json((DATA / "seeded16_p0_zero.json").read_text())
    (stack,) = P._stacks(system, [0.5, 7.3, 31.0])
    s = np.linspace(0.0, stack.spans, P._B_SAMPLES, axis=1)
    R = stack.Vi @ stack.cum[:, :-1]
    R[-1, -1] = [[1.0, 0.5], [1e-310, 0.0]]
    base = P._norms_eig(stack.lam, stack.V, R, s)
    assert np.isfinite(base).all() and (base > 0).all()
    for e in (600, -600):
        got = P._norms_eig(stack.lam, stack.V, R * 2.0**e, s)
        assert np.array_equal(got, base * 2.0**e)
    # the subnormal pair against its formed products
    V, lam = stack.V[-1, -1], stack.lam[-1, -1]
    mats = (V * np.exp(lam * s[-1, :, None])[:, None, :]) @ R[-1, -1]
    want = np.linalg.norm(mats, ord=2, axis=(1, 2))
    assert np.abs(base[-1, -1] - want).max() <= 8 * _EPS * want.max()


def _mp_norms(gen, ss):
    """|expm(gen s)| for each s, from 50-digit mpmath."""
    with mp.workdps(50):
        a = mp.matrix([[mp.mpc(complex(v)) for v in row] for row in gen])
        return np.array([float(max(mp.svd_c(mp.expm(a * mp.mpf(float(s))), compute_uv=False)))
                         for s in ss])


@pytest.mark.parametrize("angle", [0.0, 0.3])
def test_sampled_norms_from_an_ill_conditioned_eigenbasis(angle):
    # H = diag(1, 1e-12) and P1 = [[0, 1e6], [1e6, 0]], both turned by
    # ``angle``: P1^{-1} H^{-1} has eigenvalues +-1 and eigenvectors (1,
    # +-1e-6), so the modal basis has cond V = 1e6.  Against 50-digit expm,
    # the closed form errs no more than twice the formed path
    c, s_ = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s_], [s_, c]])

    def turned(m):
        m = rot @ m @ rot.T
        return (m + m.T) / 2

    system = P.PHSystem(
        d=2, P0=np.zeros((2, 2)), P1=turned(np.array([[0.0, 1e6], [1e6, 0.0]])),
        breaks=(0.0, 1.0), pieces=(turned(np.diag([1.0, 1e-12])),), W=np.hstack([_M, np.eye(2)]),
    )
    stack = P.FundamentalMatrix(system, [0.7, 3.1])
    assert (1e5 < np.linalg.cond(stack.V[0, 0]) < 1e7) and not stack.dense.any()
    s = np.linspace(0.0, stack.spans, P._B_SAMPLES, axis=1)
    closed, formed = _eig_norms(stack), _formed_norms(stack)
    for i in range(len(stack.ts)):
        want = _mp_norms(stack.gens[i, 0], s[0])
        errs = [np.abs(n[i, 0] - want).max() / want.max() for n in (closed, formed)]
        assert errs[0] <= 2 * errs[1], errs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sampled_norm_overflow_names_t_then_piece():
    # every entry of Phi_t(x_k) finite, but its norm beyond range on the
    # second piece of the second t and the first piece of the third: the
    # first t is named
    system = P.PHSystem(
        d=2, P0=np.zeros((2, 2)), P1=np.eye(2), breaks=(0.0, 1.0, 2.0),
        pieces=(np.eye(2), np.eye(2)), W=np.hstack([_M, np.eye(2)]),
    )
    (stack,) = P._stacks(system, [0.5, 0.25, 0.75])
    assert not stack.dense.any()
    stack.cum = stack.cum.copy()
    stack.cum[1, 1] = stack.cum[2, 0] = np.full((2, 2), 1.5e308)
    with pytest.raises(OutOfRange, match=r"on piece 1 at t=0\.25$"):
        stack.sup_norms


def _generic_stacks(system, ts, monkeypatch):
    """The stacked-eig builds of ``system``'s Phi_t over ``ts``: without its
    modal pair, every build runs :func:`_eigen` on its gens."""
    with monkeypatch.context() as m:
        m.setattr(P.PHSystem, "modes", property(lambda self: None))
        return list(P._stacks(system, ts))


def _no_eig(monkeypatch):
    def refused(a):
        raise AssertionError("np.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eig", refused)


@pytest.mark.parametrize("name", ["universal_sqrt2", "seeded16_p0_zero", "indefinite_p1"])
def test_modal_and_generic_phi_agree(name, sys16, monkeypatch):
    if name == "indefinite_p1":
        system = P.PHSystem(**_fields(sys16, P0=np.zeros((2, 2))))
        assert np.array_equal(system.P1, np.diag([1.0, -2.0]))
    else:
        system = P.phsystem_from_json((DATA / f"{name}.json").read_text())
    ts = np.arange(801) * 0.5  # t = 0, 0.5 ... 400
    generic = _generic_stacks(system, ts, monkeypatch)
    _no_eig(monkeypatch)
    modal = list(P._stacks(system, ts))
    assert not any(st.dense.any() for st in modal + generic)
    for field in (lambda st: st.cum[:, -1], lambda st: st.T):
        got, want = (np.concatenate([field(st) for st in sts]) for sts in (modal, generic))
        # per t, relative to the largest entry: single entries cancel
        err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
        assert err.max() <= 1e-12, err.max()
    got, want = (np.concatenate([st.sup_norms for st in sts]) for sts in (modal, generic))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_expm_fallback_for_some_pieces_of_a_p0_zero_system(sys16, monkeypatch):
    # with P0 = 0 a piece's basis serves every t, so the piece is dense at
    # every t; the generic build's unit-column eig basis has the same
    # condition and marks the same pieces
    system = P.PHSystem(**_fields(sys16, P0=np.zeros((2, 2))))
    cond = system.modes[4]
    monkeypatch.setattr(P, "_EIG_COND_MAX", float(np.median(cond)))
    ts = np.linspace(0.5, 20.0, 9)
    (ref,) = _generic_stacks(system, ts, monkeypatch)
    (mixed,) = P._stacks(system, ts)
    assert mixed.dense.any() and not mixed.dense.all()
    assert np.array_equal(mixed.dense, np.broadcast_to(cond >= P._EIG_COND_MAX, (9, 16)))
    assert np.array_equal(mixed.dense, ref.dense)
    assert np.abs(mixed.cum - ref.cum).max() <= 1e-10 * np.abs(ref.cum).max()
    np.testing.assert_allclose(mixed.sup_norms, ref.sup_norms, rtol=1e-10)
    xs = np.linspace(system.a, system.b, 101)
    want = ref(xs)
    assert np.abs(mixed(xs) - want).max() <= 1e-10 * np.abs(want).max()


def test_a_piece_whose_computed_inverse_is_not_definite_is_dense(monkeypatch):
    # near cond H_k = 1e16 the computed H_k^{-1} can have an eigenvalue <= 0:
    # that piece has no modal basis and takes expm at every build, whatever
    # the condition limit, and the other pieces keep theirs
    system = P.phsystem_from_json((DATA / "seeded16_p0_zero.json").read_text())
    hinv = np.array(system.hinv)
    hinv[3] = np.diag([1.0, -1e-3])
    system.__dict__["hinv"] = hinv  # stands in for such a computed inverse
    monkeypatch.setattr(P, "_EIG_COND_MAX", math.inf)
    ts = [0.5, 7.3]
    (ref,) = _generic_stacks(system, ts, monkeypatch)
    _no_eig(monkeypatch)
    (got,) = P._stacks(system, ts)
    assert np.array_equal(np.flatnonzero(got.dense.any(axis=0)), [3]) and got.dense[:, 3].all()
    assert not ref.dense.any()
    assert np.abs(got.cum - ref.cum).max() <= 1e-12 * np.abs(ref.cum).max()
    np.testing.assert_allclose(got.sup_norms, ref.sup_norms, rtol=1e-12)


def test_modal_structure_is_formed_once_per_system(monkeypatch):
    # a scan, three solves and a characterisation check on one P0 = 0
    # system: two eigh for the modal pair (of the H_k, then of
    # L_k^T P1^{-1} L_k), one eigvalsh for the norms, one inv(P1), no eig,
    # and one grid per node count that a caller passes in
    system = P.phsystem_from_json((DATA / "seeded16_p0_zero.json").read_text())
    calls, inverted = [], []
    eigh, eigvalsh, inv, grid = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.inv, P._Grid
    _no_eig(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **kw: calls.append("eigh") or eigh(a, *r, **kw))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append("eigvalsh") or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
    monkeypatch.setattr(P, "_Grid", lambda sys, nodes: calls.append(nodes) or grid(sys, nodes))
    P.stability_scan(system, np.linspace(0.5, 40.0, 64))
    f = lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs) + 1j], axis=1)
    for t in (2.0, 5.5, 9.0):
        P.resolvent_solve(system, t, f, nodes=256, tol=math.inf)
    P.check_characterisation(system, [3.0], nodes=128)
    assert Counter(calls) == {"eigh": 2, "eigvalsh": 1, 256: 1, 128: 1}
    assert sum(np.array_equal(a, system.P1) for a in inverted) == 1


def test_cached_grids_are_read_only_and_bounded(sys16):
    system = P.PHSystem(**_fields(sys16))
    f = lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs) + 1j], axis=1)
    first = P.resolvent_solve(system, 4.2, f, nodes=256, tol=math.inf)
    with pytest.raises(ValueError, match="read-only"):
        first.x[3] = 0.5
    again = P.resolvent_solve(system, 4.2, f, nodes=256, tol=math.inf)
    assert again.x is first.x
    for field in ("v", "u"):
        assert getattr(again, field).tobytes() == getattr(first, field).tobytes()
    assert (again.boundary_residual, again.ode_residual, again.u_norm_H) == (
        first.boundary_residual, first.ode_residual, first.u_norm_H)
    # the doubled grids of a refinement are not kept
    fresh = P.PHSystem(**_fields(sys16))
    f20 = lambda xs: np.stack([np.sin(20 * xs), np.cos(20 * xs)], axis=1)
    assert P.resolvent_solve(fresh, 5.0, f20, nodes=32, tol=1e-10).nodes == 256
    assert list(fresh._grids) == [32]


def _sweep_system(rng):
    """A P0 = 0 system of 1-16 pieces: each H_k a rotated diag(l, l c) with
    l in [0.5, 2] and cond H_k = c up to 1e12, P1 = R diag(e) R^T with
    |e| in [0.5, 2] and signs that make it definite (either sign) or
    indefinite."""
    def rotated(diag):
        c, s = np.cos(th := rng.uniform(0.0, np.pi)), np.sin(th)
        r = np.array([[c, -s], [s, c]])
        return r @ np.diag(diag) @ r.T

    k = int(rng.integers(1, 17))
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, k - 1)), [1.0]])
    pieces = [rotated([lo, lo * 10.0 ** rng.uniform(0.0, 12.0)])
              for lo in rng.uniform(0.5, 2.0, k)]
    signs = [[1, 1], [-1, -1], [1, -1]][int(rng.integers(3))]
    return P.PHSystem(d=2, P0=np.zeros((2, 2)), P1=rotated(signs * rng.uniform(0.5, 2.0, 2)),
                      breaks=tuple(breaks.tolist()), pieces=tuple(pieces),
                      W=np.hstack([np.full((2, 2), 0.5), np.eye(2)]))


@pytest.mark.slow
def test_modal_and_generic_phi_agree_on_a_seeded_sweep(monkeypatch):
    rng = np.random.default_rng(34)
    systems = [_sweep_system(rng) for _ in range(200)]
    ts = np.array([0.0, 0.5, 3.7, 25.0, 100.0])
    kinds, conds = set(), []
    for system in systems:
        (generic,) = _generic_stacks(system, ts, monkeypatch)
        (modal,) = P._stacks(system, ts)
        want = generic.cum[:, -1]
        err = np.abs(modal.cum[:, -1] - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
        assert err.max() <= 1e-10, (len(system.pieces), err.max())
        ev = np.linalg.eigvalsh(system.P1)
        kinds.add("indefinite" if ev[0] < 0 < ev[1] else "definite")
        ev = np.linalg.eigvalsh(np.stack(system.pieces))
        conds.append((ev[:, -1] / ev[:, 0]).max())
    assert kinds == {"definite", "indefinite"}
    assert {len(s.pieces) for s in systems} == set(range(1, 17))
    assert max(conds) > 1e11

"""Port-Hamiltonian systems: validation, fundamental/boundary matrices,
resolvent solves, and the characterisation constants."""

import math
from dataclasses import asdict

import numpy as np
import pytest
import scipy.integrate as si
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phstab import phs as P
from phstab.errors import (
    ExpOverflow,
    QuadratureTooCoarse,
    SingularBoundaryMatrix,
    ValidationError,
)

SQRT2 = math.sqrt(2)


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
    phi = P.FundamentalMatrix(sys2, t)
    expect = np.diag([np.exp(-1j * t), np.exp(-1j * SQRT2 * t)])
    assert np.abs(phi.at_b - expect).max() < 1e-14
    assert np.allclose(phi(0.0), np.eye(2))
    assert phi.B_t == pytest.approx(1.0, abs=1e-12)


def test_fundamental_matrix_inverse_bound(sys2):
    # |Phi_t(x)^{-1}| <= B_t |P1| |P1^{-1}| at sampled x
    phi = P.FundamentalMatrix(sys2, 11.0)
    bound = phi.B_t * 1.0 * 1.0
    for x in np.linspace(0, 1, 17):
        inv = np.linalg.inv(phi(float(x)))
        assert np.linalg.norm(inv, 2) <= bound + 1e-10


def test_two_piece_product_vs_ode_oracle():
    system = P.PHSystem(
        d=2, P0=np.array([[0.0, 1.0], [-1.0, 0.0]]), P1=np.diag([1.0, -2.0]),
        breaks=(0.0, 0.4, 1.0),
        pieces=(np.diag([1.0, 0.5]), np.array([[2.0, 0.3], [0.3, 1.0]])),
        W=np.hstack([np.full((2, 2), 0.5), np.eye(2)]),
    )
    t = 7.3
    phi = P.FundamentalMatrix(system, t)

    def rhs(x, v):
        hk = system.pieces[system.piece_index(min(x, 1.0 - 1e-14))]
        A = -np.linalg.inv(system.P1) @ (1j * t * np.linalg.inv(hk) + system.P0)
        vv = v[:4].reshape(2, 2) + 1j * v[4:].reshape(2, 2)
        dv = A @ vv
        return np.concatenate([dv.real.ravel(), dv.imag.ravel()])

    v0 = np.concatenate([np.eye(2).ravel(), np.zeros(4)])
    res = si.solve_ivp(rhs, (0.0, 1.0), v0, rtol=1e-12, atol=1e-13)
    vb = res.y[:4, -1].reshape(2, 2) + 1j * res.y[4:, -1].reshape(2, 2)
    assert np.abs(vb - phi.at_b).max() < 1e-10


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
    with pytest.raises(SingularBoundaryMatrix):
        P.resolvent_solve(s3, 3 * math.pi, lambda xs: np.ones((len(xs), 2)),
                          nodes=128)


def test_resolvent_quadrature_cap(sys2, monkeypatch):
    # noisy high-frequency forcing cannot hit an absurd tolerance
    monkeypatch.setattr(P, "_MAX_NODES", 128)
    f = lambda xs: np.stack([np.sin(5000 * xs), np.cos(5000 * xs)], axis=1)
    with pytest.raises(QuadratureTooCoarse, match="at 128 nodes \\(cap 128\\)"):
        P.resolvent_solve(sys2, 1.0, f, nodes=64, tol=1e-14)


def test_char_constants_hand_formula(sys2):
    c = P.char_constants(sys2, [1.0, 10.0, 50.0])
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
        max(P.FundamentalMatrix(sys16, float(t)).B_t for t in ts), rel=1e-13)
    assert rep.constants.b_flagged
    assert P.char_constants(sys16, ts) == rep.constants
    backwards = asdict(P.stability_scan(sys16, ts[::-1]).constants)
    assert backwards == pytest.approx(asdict(rep.constants), rel=1e-13)


def test_empty_grid_is_refused(sys16):
    for call in (P.stability_scan, P.char_constants, P.check_characterisation):
        with pytest.raises(ValidationError, match="t grid must be non-empty"):
            call(sys16, [])


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
    phi = P.FundamentalMatrix(sys16, 6.3)
    rng = np.random.default_rng(7)
    xs = np.concatenate([sys16.breaks, rng.uniform(sys16.a, sys16.b, 200)])
    rng.shuffle(xs)
    many = phi.at_many(xs)
    one = np.stack([phi(float(x)) for x in xs])
    scale = np.abs(one).max(axis=(1, 2))[:, None, None]
    assert np.abs(many - one).max(axis=(1, 2)).max() <= 1e-13 * scale.max()
    assert (np.abs(many - one) <= 1e-13 * scale).all()
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
    phi = P.FundamentalMatrix(sys16, 2.0)
    with pytest.raises(ValidationError):
        phi.at_many(np.array([0.5, 1.0 + 1e-12]))
    with pytest.raises(ValidationError):
        phi.at_many(np.array([-1e-12]))
    with pytest.raises(ValidationError):
        phi(1.5)


def test_expm_fallback_agrees_with_eigen_path(sys16, monkeypatch):
    f = lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs) + 1j], axis=1)
    eig = P.resolvent_solve(sys16, 4.2, f, nodes=512, tol=1e-8)
    monkeypatch.setattr(P, "_EIG_COND_MAX", 0.0)
    phi = P.FundamentalMatrix(sys16, 4.2)
    assert phi._stack.dense.all()
    dense = P.resolvent_solve(sys16, 4.2, f, nodes=512, tol=1e-8)
    assert dense.residual <= 1e-8
    assert dense.nodes == eig.nodes
    assert np.abs(dense.v - eig.v).max() <= 1e-10 * np.abs(eig.v).max()
    assert dense.u_norm_H == pytest.approx(eig.u_norm_H, rel=1e-10)


def test_check_characterisation_matches_public_probe_solves(sys16):
    t, nodes = 3.0, 256
    (row,) = P.check_characterisation(sys16, [t], nodes=nodes)
    best = 0.0
    for f in P._probe_set(P._PhiStack(sys16, [t]), 0):
        sol = P.resolvent_solve(sys16, t, f, nodes=nodes, tol=math.inf)
        fv = np.asarray(f(sol.x), dtype=complex)
        # a breakpoint node takes the piece on its left
        ks = np.maximum(np.searchsorted(sys16.breaks, sol.x, side="left") - 1, 0)
        hf = np.stack([sys16.pieces[k] @ y for k, y in zip(ks, fv)])
        f_norm = math.sqrt(np.trapezoid(np.einsum("ni,ni->n", fv.conj(), hf).real, sol.x))
        best = max(best, sol.u_norm_H / f_norm)
    assert row["R_lower"] == pytest.approx(best, rel=1e-12)
    assert row["lower_ok"]


def test_check_characterisation_cost(sys16, monkeypatch):
    # one Phi_t build per (system, t), shared by the constants, T_t and the
    # probe solves; no scalar Phi_t(x) calls
    counts = {"call": 0, "phi_t": 0}
    call, build = P.FundamentalMatrix.__call__, P._PhiStack.__init__

    def counted_call(self, x):
        counts["call"] += 1
        return call(self, x)

    def counted_build(self, sys, ts, *args, **kw):
        counts["phi_t"] += len(ts)
        build(self, sys, ts, *args, **kw)

    monkeypatch.setattr(P.FundamentalMatrix, "__call__", counted_call)
    monkeypatch.setattr(P._PhiStack, "__init__", counted_build)
    P.check_characterisation(sys16, [5.0], nodes=256)
    assert counts == {"call": 0, "phi_t": 1}
    counts["phi_t"] = 0
    P.check_characterisation(sys16, [9.0, 1.0, 5.0], nodes=256)
    assert counts == {"call": 0, "phi_t": 3}


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
        phi = P.FundamentalMatrix(sys16, float(t))
        assert np.abs(m - phi.at_b).max() <= 1e-13 * np.abs(phi.at_b).max()
        assert b == pytest.approx(phi.B_t, rel=1e-13)
    rep = P.stability_scan(sys16, ts)
    T = np.stack([P.boundary_matrices(sys16, [t])[0] for t in ts])
    assert rep.t_grid == tuple(float(t) for t in ts)
    np.testing.assert_allclose(rep.abs_det, np.abs(np.linalg.det(T)), rtol=1e-13)
    sv = np.linalg.svd(T, compute_uv=False)
    np.testing.assert_allclose(rep.sigma_min, sv[:, -1], rtol=1e-13)
    np.testing.assert_allclose(rep.inv_norm, 1.0 / sv[:, -1], rtol=1e-13)
    assert rep.min_margin == pytest.approx(np.abs(np.linalg.det(T)).min(), rel=1e-13)
    assert rep.B_estimate == pytest.approx(
        max(P.FundamentalMatrix(sys16, float(t)).B_t for t in ts), rel=1e-13
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
    want = ref.at_many(i, xs)
    assert np.abs(mixed.at_many(i, xs) - want).max() <= 1e-10 * np.abs(want).max()


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
    with pytest.raises(ExpOverflow, match=r"at t=0\.0$"):
        P.boundary_matrices(system, ts)
    with pytest.raises(ExpOverflow, match=r"at t=0\.0$"):
        P.stability_scan(system, ts)
    with pytest.raises(ExpOverflow, match=r"at t=0\.0$"):
        P.FundamentalMatrix(system, 0.0)


def test_multi_rhs_solve_matches_single_solves(sys16):
    fs = [
        lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs) + 1j], axis=1),
        lambda xs: np.ones((len(xs), 2)),
        lambda xs: np.stack([xs**2, -xs], axis=1) * (1 - 2j),
        lambda xs: np.zeros((len(xs), 2)),
    ]
    st = P._PhiStack(sys16, [7.5])
    many, _ = P._solve_once(st, 0, fs, 512)
    assert len(many) == len(fs)
    for f, sol in zip(fs, many):
        (one,), _ = P._solve_once(st, 0, [f], 512)
        scale = max(np.abs(one.v).max(), 1e-300)
        assert np.abs(sol.v - one.v).max() <= 1e-13 * scale
        assert np.array_equal(sol.x, one.x)
        assert sol.u_norm_H == pytest.approx(one.u_norm_H, rel=1e-13)
        # the residuals sit at the rounding floor of the FD stencil
        assert abs(sol.residual - one.residual) <= 1e-12
    assert many[3].u_norm_H == 0.0
    with pytest.raises(ValidationError):
        P._solve_once(st, 0, [fs[0], lambda xs: np.ones(len(xs))], 128)


def _reference_solve(system, t, f, nodes):
    """Brute-force resolvent solve: Phi_t(s)^{-1} at every Gauss node from
    ``at_many``, the composite 8-point Gauss-Legendre rule on the uniform
    panels of each piece, and the boundary solve; (x, (Hu)(x))."""
    phi = P.FundamentalMatrix(system, t)
    d, a, b = system.d, system.a, system.b
    p1inv = np.linalg.inv(system.P1)
    xi, wi = np.polynomial.legendre.leggauss(8)
    xs, runs, total = [np.array([a])], [np.zeros((1, d), complex)], np.zeros(d, complex)
    for x0, x1 in zip(system.breaks, system.breaks[1:]):
        n = max(16, round(nodes * (x1 - x0) / (b - a)))
        grid = np.linspace(x0, x1, n + 1)
        h = (x1 - x0) / n
        s = (0.5 * (grid[:-1] + grid[1:])[:, None] + 0.5 * h * xi).ravel()
        integrand = np.einsum("nij,nj->ni", np.linalg.inv(phi.at_many(s)), f(s) @ p1inv.T)
        run = total + np.cumsum((integrand.reshape(n, 8, d) * (0.5 * h * wi)[:, None]).sum(axis=1),
                                axis=0)
        xs.append(grid[1:])
        runs.append(run)
        total = run[-1]
    x, integral = np.concatenate(xs), np.concatenate(runs)
    (T,) = P.boundary_matrices(system, [t])
    v_a = np.linalg.solve(T, -system.W[:, :d] @ phi.at_b @ total)
    return x, np.einsum("nij,nj->ni", phi.at_many(x), v_a + integral)


@pytest.mark.parametrize("dense", [False, True])
def test_factored_quadrature_matches_brute_force(sys16, monkeypatch, dense):
    f = lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs) + 1j], axis=1)
    cases = [(t, nodes, _reference_solve(sys16, t, f, nodes))
             for t, nodes in ((0.7, 256), (4.2, 512), (13.0, 1024))]
    if dense:
        # the references above stay on the eigen path
        monkeypatch.setattr(P, "_EIG_COND_MAX", 0.0)
        assert P.FundamentalMatrix(sys16, 4.2)._stack.dense.all()
    for t, nodes, (x, v) in cases:
        sol = P.resolvent_solve(sys16, t, f, nodes=nodes, tol=math.inf)
        assert np.array_equal(sol.x, x)
        assert np.abs(sol.v - v).max() <= 1e-12 * np.abs(v).max()


@pytest.mark.parametrize("dense", [False, True])
def test_adversarial_probe_is_phi_w(sys16, monkeypatch, dense):
    if dense:
        monkeypatch.setattr(P, "_EIG_COND_MAX", 0.0)
    t = 3.0
    phi = P.FundamentalMatrix(sys16, t)
    assert phi._stack.dense.all() == dense
    # w = Phi_t(b)^{-1} y for the worst singular direction of T_t
    _, _, vh = np.linalg.svd(P.boundary_matrices(sys16, [t])[0])
    z12 = sys16.W_pinv @ vh[-1].conj()
    w = np.linalg.solve(phi.at_b, -z12[:2] + phi.at_b @ z12[2:])
    xs = np.concatenate([sys16.breaks, np.random.default_rng(5).uniform(sys16.a, sys16.b, 300)])
    want = (phi.at_many(xs) @ w) @ sys16.P1.T / (sys16.b - sys16.a)
    probes = P._probe_set(phi._stack, 0)
    assert len(probes) == 6
    got = probes[-1](xs)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("shape", [lambda n: (n,), lambda n: (n, 1), lambda n: (n, 3),
                                   lambda n: (2, n), lambda n: (n - 1, 2)])
def test_resolvent_rhs_of_wrong_shape_raises(sys2, shape):
    with pytest.raises(ValidationError, match=r"must return shape \(n, 2\)"):
        P.resolvent_solve(sys2, 4.2, lambda xs: np.ones(shape(len(xs))), nodes=256)


def test_sup_norms_equal_the_broadcast_products(sys16, monkeypatch):
    # one (m d, d) @ (d, d) product per (t, piece) pair gives the bits of
    # the broadcast stack of (d, d) products, dense pairs included
    ts = np.linspace(0.5, 20.0, 16)
    (ref,) = P._stacks(sys16, ts)
    monkeypatch.setattr(P, "_EIG_COND_MAX", float(np.median(np.linalg.cond(ref.V))))
    (mixed,) = P._stacks(sys16, ts)
    assert mixed.dense.any() and not mixed.dense.all()
    for stack in (ref, mixed):
        s = np.linspace(0.0, stack.spans, P._B_SAMPLES, axis=1)
        mats = stack.exps(s) @ stack.cum[:, :-1, None]
        want = P._norm2(mats).max(axis=(1, 2))
        assert np.array_equal(stack.sup_norms.view(np.int64), want.view(np.int64))

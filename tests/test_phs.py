"""Port-Hamiltonian systems: validation, fundamental/boundary matrices,
resolvent solves, and the characterisation constants."""

import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.linalg as sla

from phstab import phs as P
from phstab.errors import (
    QuadratureTooCoarse,
    RankDeficient,
    SingularBoundaryMatrix,
    ValidationError,
)

SQRT2 = math.sqrt(2)


@pytest.fixture(scope="module")
def sys2():
    return P.universal_example(SQRT2)


def test_universal_example_valid(sys2):
    assert P.validate(sys2) == []


def test_validation_failures():
    base = P.universal_example(SQRT2)
    skew = P.PHSystem(d=2, P0=np.eye(2), P1=base.P1, breaks=base.breaks,
                      pieces=base.pieces, W=base.W)
    assert any("P0" in e for e in P.validate(skew))
    M = np.full((2, 2), 0.5)
    lowrank = P.PHSystem(d=2, P0=base.P0, P1=base.P1, breaks=base.breaks,
                         pieces=base.pieces, W=np.hstack([M, M]))
    assert any("W" in e for e in P.validate(lowrank))
    notspd = P.PHSystem(d=2, P0=base.P0, P1=base.P1, breaks=base.breaks,
                        pieces=(np.diag([1.0, -1.0]),), W=base.W)
    assert any("H piece" in e for e in P.validate(notspd))


def test_moore_penrose():
    W = np.hstack([np.eye(2), np.zeros((2, 2))])
    wp = P.moore_penrose(W)
    assert np.allclose(wp, np.vstack([np.eye(2), np.zeros((2, 2))]))
    W2 = P.universal_example(SQRT2).W
    assert np.abs(W2 @ P.moore_penrose(W2) - np.eye(2)).max() <= 1e-12
    with pytest.raises(RankDeficient):
        P.moore_penrose(np.hstack([np.full((2, 2), 0.5)] * 2))


def test_fundamental_matrix_diagonal_closed_form(sys2):
    t = 3.7
    phi = P.fundamental_matrix(sys2, t)
    expect = np.diag([np.exp(-1j * t), np.exp(-1j * SQRT2 * t)])
    assert np.abs(phi.at_b - expect).max() < 1e-14
    assert np.allclose(phi(0.0), np.eye(2))
    assert phi.B_t == pytest.approx(1.0, abs=1e-12)


def test_fundamental_matrix_inverse_bound(sys2):
    # |Phi_t(x)^{-1}| <= B_t |P1| |P1^{-1}| at sampled x
    phi = P.fundamental_matrix(sys2, 11.0)
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
    assert P.validate(system) == []
    t = 7.3
    phi = P.fundamental_matrix(system, t)

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
    T0 = P.boundary_matrix(sys2, 0.0)
    assert abs(np.linalg.det(T0) - 2.0) < 1e-14
    assert np.abs(T0 - (np.full((2, 2), 0.5) + np.eye(2))).max() < 1e-14


def test_det_conjugate_convention(sys2):
    for t in (1.0, 10.0, 55.5):
        d1 = np.linalg.det(P.boundary_matrix(sys2, t))
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
                            nodes=256, auto_refine=False)
    assert np.abs(sol.u).max() == 0.0
    assert sol.residual == 0.0


def test_resolvent_residuals_and_oracle(sys2):
    f = lambda xs: np.ones((len(xs), 2))
    sol = P.resolvent_solve(sys2, 1.0, f, nodes=2048, auto_refine=False)
    assert sol.boundary_residual <= 1e-10
    assert sol.ode_residual <= 1e-9
    # independent check: (it + A)u = f pointwise via the ODE for v = Hu
    # already covered by the FD residual; also check u solves the weak
    # identity at the midpoint against a dense reference solve
    sol_fine = P.resolvent_solve(sys2, 1.0, f, nodes=8192, auto_refine=False)
    mid = len(sol.x) // 2
    fine_mid = np.interp(sol.x[mid], sol_fine.x, sol_fine.v[:, 0].real)
    assert abs(sol.v[mid, 0].real - fine_mid) < 1e-9


def test_resolvent_singular_boundary():
    s3 = P.universal_example(1.0 / 3.0)
    with pytest.raises(SingularBoundaryMatrix):
        P.resolvent_solve(s3, 3 * math.pi, lambda xs: np.ones((len(xs), 2)),
                          nodes=128)


def test_resolvent_quadrature_cap(sys2):
    # noisy high-frequency forcing cannot hit an absurd tolerance
    f = lambda xs: np.stack([np.sin(5000 * xs), np.cos(5000 * xs)], axis=1)
    with pytest.raises(QuadratureTooCoarse):
        P.resolvent_solve(sys2, 1.0, f, nodes=64, tol=1e-14, max_nodes=128)


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


def test_check_characterisation_small_grid(sys2):
    rows = P.check_characterisation(sys2, [1.0, 5.0, 9.0], nodes=512)
    assert all(r["lower_ok"] for r in rows)
    assert all(r["R_lower"] > 0 for r in rows)


def test_json_round_trip(sys2):
    text = P.phsystem_to_json(sys2)
    again = P.phsystem_from_json(text)
    assert P.validate(again) == []
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
    system = P.PHSystem(
        d=2, P0=np.array([[0.0, 0.3], [-0.3, 0.0]]), P1=np.diag([1.0, -2.0]),
        breaks=tuple(float(x) for x in breaks), pieces=tuple(pieces),
        W=np.hstack([np.full((2, 2), 0.5), np.eye(2)]),
    )
    assert P.validate(system) == []
    return system


def test_at_many_matches_pointwise(sys16):
    phi = P.fundamental_matrix(sys16, 6.3)
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
    phi = P.fundamental_matrix(sys16, 2.0)
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
    phi = P.fundamental_matrix(sys16, 4.2)
    assert all(pe._eig is None for pe in phi._exps)
    dense = P.resolvent_solve(sys16, 4.2, f, nodes=512, tol=1e-8)
    assert dense.residual <= 1e-8
    assert dense.nodes == eig.nodes
    assert np.abs(dense.v - eig.v).max() <= 1e-10 * np.abs(eig.v).max()
    assert dense.u_norm_H == pytest.approx(eig.u_norm_H, rel=1e-10)


def test_check_characterisation_matches_public_probe_solves(sys16):
    t, nodes = 3.0, 256
    (row,) = P.check_characterisation(sys16, [t], nodes=nodes)
    phi = P.fundamental_matrix(sys16, t)
    best = 0.0
    for f in P._probe_set(sys16, phi):
        sol = P.resolvent_solve(sys16, t, f, nodes=nodes, auto_refine=False)
        fv = np.asarray(f(sol.x), dtype=complex)
        # a breakpoint node takes the piece on its left
        ks = np.maximum(np.searchsorted(sys16.breaks, sol.x, side="left") - 1, 0)
        hf = np.stack([sys16.pieces[k] @ y for k, y in zip(ks, fv)])
        f_norm = math.sqrt(np.trapezoid(np.einsum("ni,ni->n", fv.conj(), hf).real, sol.x))
        best = max(best, sol.u_norm_H / f_norm)
    assert row["R_lower"] == pytest.approx(best, rel=1e-12)
    assert row["lower_ok"]


def test_check_characterisation_cost(sys16, monkeypatch):
    counts = {"call": 0, "init": 0}
    call, init = P.FundamentalMatrix.__call__, P.FundamentalMatrix.__init__

    def counted_call(self, x):
        counts["call"] += 1
        return call(self, x)

    def counted_init(self, *args, **kw):
        counts["init"] += 1
        init(self, *args, **kw)

    monkeypatch.setattr(P.FundamentalMatrix, "__call__", counted_call)
    monkeypatch.setattr(P.FundamentalMatrix, "__init__", counted_init)
    P.check_characterisation(sys16, [5.0], nodes=256)
    assert counts == {"call": 0, "init": 2}

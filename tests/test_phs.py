"""Port-Hamiltonian systems: validation, fundamental/boundary matrices,
resolvent solves, and the characterisation constants."""

import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from phstab import phs as P
from phstab.errors import (
    ExpOverflow,
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
    _assert_norm2(np.zeros((2, 2, 2)), rtol=0.0)
    m3 = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    assert np.array_equal(P._norm2(m3), np.linalg.norm(m3, ord=2, axis=(1, 2)))


_ENTRY = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRY, min_size=8, max_size=8), st.integers(-60, 60))
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
    b_t = np.concatenate([s.sup_norms() for s in stacks])
    for t, m, b in zip(ts, at_b, b_t):
        phi = P.FundamentalMatrix(sys16, float(t))
        assert np.abs(m - phi.at_b).max() <= 1e-13 * np.abs(phi.at_b).max()
        assert b == pytest.approx(phi.B_t, rel=1e-13)
    rep = P.stability_scan(sys16, ts)
    T = np.stack([P.boundary_matrix(sys16, float(t)) for t in ts])
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
            one = P.boundary_matrix(system, float(t))
            assert np.abs(m - one).max() <= 1e-14 * np.abs(one).max()
    assert P.boundary_matrices(sys2, []).shape == (0, 2, 2)
    bad = P.PHSystem(d=2, P0=np.eye(2), P1=sys2.P1, breaks=sys2.breaks,
                     pieces=sys2.pieces, W=sys2.W)
    with pytest.raises(ValidationError):
        P.boundary_matrices(bad, ts)


def test_expm_fallback_for_some_pairs_in_one_batch(sys16, monkeypatch):
    ts = np.linspace(0.5, 20.0, 9)
    (ref,) = P._stacks(sys16, ts)
    cond = np.linalg.cond(ref.V)
    monkeypatch.setattr(P, "_EIG_COND_MAX", float(np.median(cond)))
    (mixed,) = P._stacks(sys16, ts)
    assert mixed.dense.any() and not mixed.dense.all()
    assert mixed.dense.any(axis=1).sum() >= 2  # several t, in one batch
    assert np.abs(mixed.cum - ref.cum).max() <= 1e-10 * np.abs(ref.cum).max()
    np.testing.assert_allclose(mixed.sup_norms(), ref.sup_norms(), rtol=1e-10)
    i = int(np.argmax(mixed.dense.sum(axis=1)))
    phi, phi_ref = P.FundamentalMatrix._of(mixed, i), P.FundamentalMatrix._of(ref, i)
    assert [pe._eig is None for pe in phi._exps] == list(mixed.dense[i])
    xs = np.linspace(sys16.a, sys16.b, 101)
    want = phi_ref.at_many(xs)
    assert np.abs(phi.at_many(xs) - want).max() <= 1e-10 * np.abs(want).max()


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
        P.fundamental_matrix(system, 0.0)


def test_multi_rhs_solve_matches_single_solves(sys16):
    fs = [
        lambda xs: np.stack([np.sin(3 * xs), np.cos(2 * xs) + 1j], axis=1),
        lambda xs: np.ones((len(xs), 2)),
        lambda xs: np.stack([xs**2, -xs], axis=1) * (1 - 2j),
        lambda xs: np.zeros((len(xs), 2)),
    ]
    phi = P.fundamental_matrix(sys16, 7.5)
    many = P._solve_once(phi, fs, 512)
    assert len(many) == len(fs)
    for f, sol in zip(fs, many):
        (one,) = P._solve_once(phi, [f], 512)
        scale = max(np.abs(one.v).max(), 1e-300)
        assert np.abs(sol.v - one.v).max() <= 1e-13 * scale
        assert np.array_equal(sol.x, one.x)
        assert sol.u_norm_H == pytest.approx(one.u_norm_H, rel=1e-13)
        # the residuals sit at the rounding floor of the FD stencil
        assert abs(sol.residual - one.residual) <= 1e-12
    assert many[3].u_norm_H == 0.0
    with pytest.raises(ValidationError):
        P._solve_once(phi, [fs[0], lambda xs: np.ones(len(xs))], 128)

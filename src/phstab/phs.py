"""General 1-D port-Hamiltonian boundary systems with piecewise-constant
Hamiltonian density: fundamental matrices, boundary matrices, stability
scans, resolvent solves with residual certificates, and the constants
linking boundary-matrix inverses to resolvent norms.

The state space is L^2([a,b]; R^d) with the weighted norm
|u|_H = |H^{1/2} u|_{L^2}.  The generator is -A with
A u = P1 (H u)' + P0 H u and boundary condition W [(Hu)(b); (Hu)(a)] = 0,
where P0 is skew-symmetric, P1 symmetric invertible, each H piece is
symmetric positive definite, and W (d x 2d) has full rank.

The fundamental matrix Phi_t solves v' = -P1^{-1}(i t H(x)^{-1} + P0) v,
v(a) = I.  For piecewise-constant H this is an exact product of matrix
exponentials.  The boundary matrix is T_t = W [Phi_t(b); I]; its
invertibility across t characterises strong stability, and |T_t^{-1}|
bounds the resolvent norm on the imaginary axis two-sidedly via the
constants computed in :func:`char_constants`.

Sign convention: with the ODE above, the diagonal example with
H = diag(1, alpha)^{-1}, P0 = 0, P1 = I has Phi_t(1) = diag(e^{-it},
e^{-i alpha t}), so det T_t here is the complex conjugate of the
closed form 1 + (e^{it} + e^{i alpha t})/2 used by the analytic layer
(:mod:`phstab.spectral`).  Magnitudes agree exactly.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import numpy.linalg as la
import scipy.linalg as sla

from .errors import (
    ExpOverflow,
    QuadratureTooCoarse,
    RankDeficient,
    SingularBoundaryMatrix,
    ValidationError,
)

__all__ = [
    "PHSystem",
    "FundamentalMatrix",
    "StabilityReport",
    "ResolventSolution",
    "CharConstants",
    "validate",
    "moore_penrose",
    "fundamental_matrix",
    "boundary_matrix",
    "stability_scan",
    "resolvent_solve",
    "resolvent_norm_lower",
    "char_constants",
    "check_characterisation",
    "universal_example",
    "phsystem_from_json",
    "phsystem_to_json",
]

_SYM_TOL = 1e-12
_RANK_TOL = 1e-10
_SINGULAR_TOL = 1e-12


# ---------------------------------------------------------------------------
# System definition and validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PHSystem:
    """A 1-D port-Hamiltonian system on [a, b] with piecewise-constant H.

    ``breaks`` is the increasing breakpoint sequence a = x0 < ... < xk = b
    and ``pieces[i]`` is the SPD matrix H on (x_i, x_{i+1}).
    """

    d: int
    P0: np.ndarray
    P1: np.ndarray
    breaks: tuple[float, ...]
    pieces: tuple[np.ndarray, ...]
    W: np.ndarray

    @property
    def a(self) -> float:
        return self.breaks[0]

    @property
    def b(self) -> float:
        return self.breaks[-1]

    def piece_index(self, x):
        """Index of the piece holding ``x``: the right-hand piece at an
        interior breakpoint, the last piece at b.  ``x`` may be an array,
        which gives an array of indices."""
        xs = np.asarray(x, dtype=float)
        outside = (xs < self.a) | (xs > self.b)
        if outside.any():
            bad = float(xs[outside][0])
            raise ValidationError(f"x={bad} outside [{self.a}, {self.b}]")
        k = np.minimum(
            np.searchsorted(self.breaks, xs, side="right") - 1, len(self.pieces) - 1
        )
        return int(k) if k.ndim == 0 else k


def validate(sys: PHSystem) -> list[str]:
    """Check all structural invariants numerically.

    Returns one message per violated invariant, naming the offending
    matrix; an empty list means the system is valid.
    """
    errs: list[str] = []
    d = sys.d
    for name, m, shape in (
        ("P0", sys.P0, (d, d)),
        ("P1", sys.P1, (d, d)),
        ("W", sys.W, (d, 2 * d)),
    ):
        if m.shape != shape:
            errs.append(f"{name}: shape {m.shape}, expected {shape}")
    if errs:
        return errs
    if la.norm(sys.P0 + sys.P0.T) > _SYM_TOL * max(la.norm(sys.P0), 1.0):
        errs.append("P0: not skew-symmetric")
    if la.norm(sys.P1 - sys.P1.T) > _SYM_TOL * max(la.norm(sys.P1), 1.0):
        errs.append("P1: not symmetric")
    else:
        ev = la.eigvalsh(sys.P1)
        if min(abs(e) for e in ev) <= _RANK_TOL * max(abs(e) for e in ev):
            errs.append("P1: not invertible (eigenvalue near 0)")
    if len(sys.breaks) != len(sys.pieces) + 1:
        errs.append("H: breakpoint/piece count mismatch")
        return errs
    if any(
        sys.breaks[i + 1] <= sys.breaks[i] for i in range(len(sys.pieces))
    ):
        errs.append("H: breakpoints not strictly increasing")
    for i, hk in enumerate(sys.pieces):
        if hk.shape != (d, d):
            errs.append(f"H piece {i}: wrong shape")
            continue
        if la.norm(hk - hk.T) > _SYM_TOL * max(la.norm(hk), 1.0):
            errs.append(f"H piece {i}: not symmetric")
        elif la.eigvalsh(hk)[0] <= 0:
            errs.append(f"H piece {i}: not positive definite")
    sv = la.svd(sys.W, compute_uv=False)
    if sv[-1] <= _RANK_TOL * sv[0]:
        errs.append("W: rank deficient")
    return errs


def _require_valid(sys: PHSystem) -> None:
    errs = validate(sys)
    if errs:
        raise ValidationError("; ".join(errs))


def moore_penrose(W: np.ndarray) -> np.ndarray:
    """Right inverse W+ = W^T (W W^T)^{-1} of a full-rank wide matrix."""
    sv = la.svd(W, compute_uv=False)
    if sv[-1] <= _RANK_TOL * sv[0]:
        raise RankDeficient("W is rank deficient; no Moore-Penrose right inverse")
    return W.T @ la.inv(W @ W.T)


# ---------------------------------------------------------------------------
# Fundamental and boundary matrices
# ---------------------------------------------------------------------------


# Pieces whose eigenvector basis has cond(V) at or above this evaluate
# exp(A s) by a dense matrix exponential per point.
_EIG_COND_MAX = 1e8


class _PieceExp:
    """Evaluator for exp(A s) with A constant on one piece.

    With a well-conditioned eigenbasis A = V diag(lam) V^{-1},
    exp(A s) = sum_k e^{lam_k s} V[:, k] V^{-1}[k, :], so n points cost one
    (n, d) @ (d, d^2) product; otherwise (``eig`` None) a dense matrix
    exponential per point.
    """

    def __init__(self, A: np.ndarray, eig=None) -> None:
        self.A = A
        self._eig = eig  # (lam, V, V^{-1}) or None
        if eig is not None:
            _, V, Vi = eig
            d = len(V)
            self._outer = (V.T[:, :, None] * Vi[:, None, :]).reshape(d, d * d)

    def at(self, s: float) -> np.ndarray:
        return self.at_many(np.array([s]))[0]

    def at_many(self, s: np.ndarray) -> np.ndarray:
        """Stack of exp(A s_j), shape (len(s), d, d)."""
        if self._eig is not None:
            d = len(self.A)
            ph = np.exp(np.multiply.outer(s, self._eig[0]))  # (n, d)
            return (ph @ self._outer).reshape(len(s), d, d)
        return np.stack([sla.expm(self.A * sj) for sj in s])

    def apply(self, s: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows exp(A s_j) y_j for s of shape (n,) and y of shape (n, d)."""
        if self._eig is not None:
            lam, V, Vi = self._eig
            return ((y @ Vi.T) * np.exp(np.multiply.outer(s, lam))) @ V.T
        return np.einsum("njk,nk->nj", self.at_many(s), y)


def _piece_exps(gens: np.ndarray) -> list[_PieceExp]:
    """One evaluator per generator in the stack ``gens`` (shape (k, d, d)),
    from one stacked eigendecomposition."""
    try:
        lam, V = la.eig(gens)
        sv = la.svd(V, compute_uv=False)
    except la.LinAlgError:
        return [_PieceExp(A) for A in gens]
    eig = [None] * len(gens)
    good = np.flatnonzero(
        np.isfinite(lam).all(axis=1) & (sv[:, 0] < _EIG_COND_MAX * sv[:, -1])
    )
    for k, Vi in zip(good, la.inv(V[good])):
        eig[k] = (lam[k], V[k], Vi)
    return [_PieceExp(A, e) for A, e in zip(gens, eig)]


class FundamentalMatrix:
    """Phi_t for a validated system (:func:`fundamental_matrix` validates):
    exact matrix-exponential products across the constant-H pieces, with
    Phi_t(a) = I."""

    def __init__(self, sys: PHSystem, t: float, b_samples: int = 33) -> None:
        self.sys = sys
        self.t = float(t)
        self._b_samples = b_samples
        self._b_t: float | None = None
        self._p1inv = la.inv(sys.P1)
        self._hinv = la.inv(np.stack(sys.pieces))
        self._exps = _piece_exps(
            -self._p1inv @ (1j * self.t * self._hinv + sys.P0)
        )
        # cumulative Phi at each breakpoint (left end of each piece)
        self._cum: list[np.ndarray] = [np.eye(sys.d, dtype=complex)]
        for k, pe in enumerate(self._exps):
            nxt = pe.at(sys.breaks[k + 1] - sys.breaks[k]) @ self._cum[-1]
            if not np.isfinite(nxt).all():
                raise ExpOverflow(
                    f"fundamental matrix overflowed on piece {k} at t={t}"
                )
            self._cum.append(nxt)

    @property
    def B_t(self) -> float:
        """Sampled sup_x |Phi_t(x)| (lazy: only stability/constants paths
        need it, not plain boundary-matrix evaluation)."""
        if self._b_t is None:
            self._b_t = self._estimate_sup_norm(self._b_samples)
        return self._b_t

    def __call__(self, x: float) -> np.ndarray:
        return self.at_many(np.array([x], dtype=float))[0]

    def at_many(self, xs) -> np.ndarray:
        """Stack of Phi_t(x_j), shape (len(xs), d, d); ValidationError for
        a point outside [a, b]."""
        xs = np.asarray(xs, dtype=float)
        ks = self.sys.piece_index(xs)
        d = self.sys.d
        out = np.empty((len(xs), d, d), dtype=complex)
        for k in np.unique(ks):
            idx = np.flatnonzero(ks == k)
            e = self._exps[k].at_many(xs[idx] - self.sys.breaks[k])
            out[idx] = (e.reshape(-1, d) @ self._cum[k]).reshape(-1, d, d)
        return out

    @property
    def at_b(self) -> np.ndarray:
        return self._cum[-1]

    def _estimate_sup_norm(self, samples: int) -> float:
        d = self.sys.d
        mats = []
        for k, pe in enumerate(self._exps):
            ss = np.linspace(0.0, self.sys.breaks[k + 1] - self.sys.breaks[k], samples)
            m = pe.at_many(ss).reshape(-1, d) @ self._cum[k]
            if not np.isfinite(m).all():
                raise ExpOverflow(
                    f"fundamental matrix overflowed on piece {k} at t={self.t}"
                )
            mats.append(m)
        stack = np.concatenate(mats).reshape(-1, d, d)
        return float(la.norm(stack, ord=2, axis=(1, 2)).max())


def fundamental_matrix(sys: PHSystem, t: float) -> FundamentalMatrix:
    _require_valid(sys)
    return FundamentalMatrix(sys, t)


def _boundary(phi: FundamentalMatrix) -> np.ndarray:
    d = phi.sys.d
    return phi.sys.W[:, :d] @ phi.at_b + phi.sys.W[:, d:].astype(complex)


def boundary_matrix(sys: PHSystem, t: float) -> np.ndarray:
    """T_t = W [Phi_t(b); I], the d x d strong-stability matrix."""
    return _boundary(fundamental_matrix(sys, t))


@dataclass(frozen=True)
class StabilityReport:
    """Per-t invertibility metrics of T_t over a finite grid.

    The verdict refers to the grid only; resolution is recorded so the
    evidence is reproducible.
    """

    t_grid: tuple[float, ...]
    abs_det: tuple[float, ...]
    sigma_min: tuple[float, ...]
    inv_norm: tuple[float, ...]  # inf where singular at grid tolerance
    B_estimate: float
    invertible_on_grid: bool
    min_margin: float
    singular_points: tuple[float, ...]

    @property
    def verdict(self) -> str:
        return (
            "invertible on grid"
            if self.invertible_on_grid
            else "grid singularity"
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["t", "abs_det", "sigma_min", "inv_norm"])
        for row in zip(self.t_grid, self.abs_det, self.sigma_min, self.inv_norm):
            w.writerow([repr(v) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "verdict": self.verdict,
                "B_estimate": self.B_estimate,
                "min_margin": self.min_margin,
                "grid_points": len(self.t_grid),
                "singular_points": list(self.singular_points),
            }
        )


def stability_scan(
    sys: PHSystem, t_grid: Sequence[float], margin: float = _SINGULAR_TOL
) -> StabilityReport:
    """Scan T_t over the grid, flagging any |det T_t| <= margin."""
    _require_valid(sys)
    dets, sigmas, invs, sing = [], [], [], []
    b_est = 0.0
    for t in t_grid:
        phi = FundamentalMatrix(sys, t)
        b_est = max(b_est, phi.B_t)
        T = _boundary(phi)
        sv = la.svd(T, compute_uv=False)
        det = float(abs(la.det(T)))
        dets.append(det)
        sigmas.append(float(sv[-1]))
        if det <= margin:
            sing.append(float(t))
            invs.append(math.inf)
        else:
            invs.append(1.0 / float(sv[-1]))
    return StabilityReport(
        t_grid=tuple(float(t) for t in t_grid),
        abs_det=tuple(dets),
        sigma_min=tuple(sigmas),
        inv_norm=tuple(invs),
        B_estimate=b_est,
        invertible_on_grid=not sing,
        min_margin=min(dets) if dets else math.inf,
        singular_points=tuple(sing),
    )


# ---------------------------------------------------------------------------
# Resolvent solves
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class ResolventSolution:
    """u = R(it, -A) f sampled on a uniform grid, with the residuals that
    certify it: the boundary condition W[(Hu)(b); (Hu)(a)] = 0 and the
    first-order ODE checked by high-order finite differences."""

    t: float
    x: np.ndarray  # uniform grid, piece-boundary aligned
    v: np.ndarray  # (Hu)(x_j), shape (n, d), complex
    u: np.ndarray  # H^{-1} v
    hu_a: np.ndarray
    boundary_residual: float
    ode_residual: float
    nodes: int
    u_norm_H: float

    @property
    def residual(self) -> float:
        return max(self.boundary_residual, self.ode_residual)


# 9-point central difference, 8th order accurate
_FD9 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])


def _uniform_counts(sys: PHSystem, nodes: int) -> list[int]:
    total = sys.b - sys.a
    counts = []
    for k in range(len(sys.pieces)):
        ln = sys.breaks[k + 1] - sys.breaks[k]
        counts.append(max(16, int(round(nodes * ln / total))))
    return counts


def _node_bounds(counts: Sequence[int]) -> np.ndarray:
    """Piece k owns nodes bounds[k]:bounds[k+1] of the concatenated uniform
    grid; a shared breakpoint node belongs to the piece on its left."""
    return np.concatenate([[0], np.cumsum(counts) + 1])


def _h_weighted(
    mats: Sequence[np.ndarray], bounds: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, float]:
    """Rows M_k y_j with M_k the matrix of the piece owning node j, and the
    weighted norm sqrt(integral y^* M y) by the trapezoid rule on ``x``."""
    my = np.empty_like(y)
    for k, m in enumerate(mats):
        sl = slice(bounds[k], bounds[k + 1])
        my[sl] = y[sl] @ m.T
    quad = np.einsum("ni,ni->n", np.conj(y), my).real
    return my, math.sqrt(max(float(np.trapezoid(quad, x)), 0.0))


def _solve_once(
    phi: FundamentalMatrix,
    f: Callable[[np.ndarray], np.ndarray],
    nodes: int,
) -> ResolventSolution:
    sys = phi.sys
    p1inv = phi._p1inv
    d = sys.d
    counts = _uniform_counts(sys, nodes)

    grids: list[np.ndarray] = []
    runs: list[np.ndarray] = []  # per piece: integral_a^x Phi^{-1} P1^{-1} f at the grid
    cum_integral = np.zeros(d, dtype=complex)
    for k, n in enumerate(counts):
        x0, x1 = sys.breaks[k], sys.breaks[k + 1]
        grid = np.linspace(x0, x1, n + 1)
        h = (x1 - x0) / n
        # 8-point Gauss-Legendre on each subinterval [grid_j, grid_j+1]
        mid = 0.5 * (grid[:-1] + grid[1:])
        s_nodes = (mid[:, None] + 0.5 * h * _GL_NODES[None, :]).ravel()
        w_all = np.tile(0.5 * h * _GL_WEIGHTS, n)
        fv = np.asarray(f(s_nodes), dtype=complex)
        if fv.shape != (len(s_nodes), d):
            raise ValidationError(
                f"probe function must return shape (n, {d}) arrays"
            )
        # Phi(s)^{-1} P1^{-1} f(s) = cum_k^{-1} exp(-A_k (s - x0)) P1^{-1} f(s)
        integrand = phi._exps[k].apply(x0 - s_nodes, fv @ p1inv.T) @ la.inv(
            phi._cum[k]
        ).T
        per_panel = (
            integrand.reshape(n, 8, d) * w_all.reshape(n, 8)[:, :, None]
        ).sum(axis=1)
        run = cum_integral + np.concatenate(
            [np.zeros((1, d), dtype=complex), np.cumsum(per_panel, axis=0)]
        )
        grids.append(grid)
        runs.append(run)
        cum_integral = run[-1]

    # boundary condition: T_t v(a) = -W [Phi(b) * I_total; 0]
    T = _boundary(phi)
    sv = la.svd(T, compute_uv=False)
    if abs(la.det(T)) <= _SINGULAR_TOL or sv[-1] <= _SINGULAR_TOL * sv[0]:
        raise SingularBoundaryMatrix(
            f"T_t singular or near-singular at t={phi.t} (sigma_min={sv[-1]:.3e})"
        )
    rhs = -(sys.W[:, :d] @ (phi.at_b @ cum_integral))
    v_a = la.solve(T, rhs)

    # v(x) = Phi(x) [v(a) + I(x)] = exp(A_k (x - x0)) cum_k [v(a) + I(x)];
    # each breakpoint node is taken from the piece on its left
    vs = [
        phi._exps[k].apply(grid - grid[0], (v_a + run) @ phi._cum[k].T)
        for k, (grid, run) in enumerate(zip(grids, runs))
    ]
    x = np.concatenate([grids[0]] + [g[1:] for g in grids[1:]])
    v = np.concatenate([vs[0]] + [vk[1:] for vk in vs[1:]])

    # residual (i): boundary condition
    bc = sys.W[:, :d] @ v[-1] + sys.W[:, d:] @ v[0]
    boundary_residual = float(la.norm(bc))

    # residual (ii): v' = A_k v + P1^{-1} f on interior 9-point stencils of
    # each piece's grid, its left breakpoint included
    bounds = _node_bounds(counts)
    ode_res = 0.0
    for k in range(len(counts)):
        lo = bounds[k] - 1 if k else 0
        g_x = x[lo : bounds[k + 1]]
        g_v = v[lo : bounds[k + 1]]
        m = len(g_x)
        h = g_x[1] - g_x[0]
        idx = np.arange(4, m - 4)
        dv = sum(
            c * g_v[idx + j - 4] for j, c in enumerate(_FD9) if c != 0.0
        ) / h
        fv = np.asarray(f(g_x[idx]), dtype=complex)
        rhs_v = g_v[idx] @ phi._exps[k].A.T + fv @ p1inv.T
        scale = max(float(np.abs(g_v).max()), 1.0)
        ode_res = max(ode_res, float(np.abs(dv - rhs_v).max()) / scale)

    # u = H^{-1} v and |u|_H^2 = integral of v^* H^{-1} v
    u, u_norm = _h_weighted(phi._hinv, bounds, x, v)

    return ResolventSolution(
        t=phi.t,
        x=x,
        v=v,
        u=u,
        hu_a=v_a,
        boundary_residual=boundary_residual,
        ode_residual=ode_res,
        nodes=nodes,
        u_norm_H=u_norm,
    )


def resolvent_solve(
    sys: PHSystem,
    t: float,
    f: Callable[[np.ndarray], np.ndarray],
    nodes: int = 4096,
    tol: float = 1e-8,
    max_nodes: int = 1 << 16,
    auto_refine: bool = True,
) -> ResolventSolution:
    """Solve (it + A) u = f via the fundamental-matrix representation
    (Hu)(x) = Phi_t(x) [(Hu)(a) + integral_a^x Phi_t(s)^{-1} P1^{-1} f ds],
    with (Hu)(a) from the boundary equation.

    ``f`` maps an array of points (shape (n,)) to values (shape (n, d)).
    ``nodes`` sets the uniform grid resolution; each subinterval carries
    an 8-point Gauss-Legendre panel.  If the residuals exceed ``tol`` the
    grid is doubled up to ``max_nodes`` (QuadratureTooCoarse beyond).
    """
    _require_valid(sys)
    phi = FundamentalMatrix(sys, t)
    n = nodes
    while True:
        sol = _solve_once(phi, f, n)
        if not auto_refine or sol.residual <= tol:
            return sol
        if 2 * n > max_nodes:
            raise QuadratureTooCoarse(
                f"residual {sol.residual:.3e} > {tol} at {n} nodes (cap {max_nodes})"
            )
        n *= 2


# ---------------------------------------------------------------------------
# Characterisation constants and probe bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharConstants:
    """Norm data entering the two-sided boundary/resolvent inequalities
    |R(it,-A)| <= C_tilde (|T_t^{-1}| + 1) and |T_t^{-1}| <= C (|R| + 1).

    ``S_norm`` is the norm of u -> H^{-1} u from L^2 to the H-weighted
    space, computed as sup_x lambda_min(H(x))^{-1/2} (derivation: for
    SPD H, |H^{-1}u|_H = |H^{-1/2}u|_{L^2} <= lambda_min^{-1/2} |u|).
    ``B`` is grid evidence only unless H is constant (then Phi_t has
    t-uniformly bounded norm and the bound is structural).
    """

    B: float
    W_norm: float
    W_pinv_norm: float
    P1_norm: float
    P1_inv_norm: float
    H_sup_norm: float
    S_norm: float
    length: float
    C_tilde: float
    C: float
    b_flagged: bool
    b_note: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "B": self.B,
                "W_norm": self.W_norm,
                "W_pinv_norm": self.W_pinv_norm,
                "P1_norm": self.P1_norm,
                "P1_inv_norm": self.P1_inv_norm,
                "H_sup_norm": self.H_sup_norm,
                "S_norm": self.S_norm,
                "length": self.length,
                "C_tilde": self.C_tilde,
                "C": self.C,
                "b_flagged": self.b_flagged,
                "b_note": self.b_note,
            }
        )


def char_constants(
    sys: PHSystem, t_grid: Sequence[float]
) -> CharConstants:
    """Estimate B over the grid and assemble the two constants

    C_tilde = (b-a) B^2 |S| |P1| |P1^{-1}|^2 max{B |W|, (b-a)^{1/2}}
    C = ((b-a)^{-3/2} |P1|^2 |P1^{-1}|^2 B^3 (1+B) + 1) |W+|
        * max{(b-a)^{1/2} |H|_inf |P1|, 1}.

    ``b_flagged`` is set when B_t grows across the grid (evidence against
    sup_t |Phi_t| < infinity); constants are still reported.
    """
    _require_valid(sys)
    ts = sorted(float(t) for t in t_grid)
    if not ts:
        raise ValidationError("t grid must be non-empty")
    b_ts = [FundamentalMatrix(sys, t).B_t for t in ts]
    B = max(b_ts)
    half = max(len(ts) // 2, 1)
    flagged = len(ts) >= 4 and (
        max(b_ts[half:]) > 1.5 * max(b_ts[:half])
    )
    if len(sys.pieces) == 1:
        note = (
            "H constant (bounded variation): sup_t B_t finite structurally; "
            "grid value reported"
        )
    else:
        note = "grid evidence only; sup over all t not certified"
        if flagged:
            note = "WARNING: B_t grows across grid; " + note
    ln = sys.b - sys.a
    w_norm = float(la.norm(sys.W, ord=2))
    wp_norm = float(la.norm(moore_penrose(sys.W), ord=2))
    p1 = float(la.norm(sys.P1, ord=2))
    p1i = float(la.norm(la.inv(sys.P1), ord=2))
    h_sup = max(float(la.eigvalsh(hk)[-1]) for hk in sys.pieces)
    s_norm = max(1.0 / math.sqrt(float(la.eigvalsh(hk)[0])) for hk in sys.pieces)
    c_tilde = ln * B**2 * s_norm * p1 * p1i**2 * max(B * w_norm, math.sqrt(ln))
    c_big = (ln ** (-1.5) * p1**2 * p1i**2 * B**3 * (1 + B) + 1) * wp_norm * max(
        math.sqrt(ln) * h_sup * p1, 1.0
    )
    return CharConstants(
        B=B,
        W_norm=w_norm,
        W_pinv_norm=wp_norm,
        P1_norm=p1,
        P1_inv_norm=p1i,
        H_sup_norm=h_sup,
        S_norm=s_norm,
        length=ln,
        C_tilde=c_tilde,
        C=c_big,
        b_flagged=flagged,
        b_note=note,
    )


def _probe_set(
    sys: PHSystem, phi: FundamentalMatrix
) -> list[Callable[[np.ndarray], np.ndarray]]:
    """Fixed probe right-hand sides: constants, low sinusoids, and the
    adversarial profile P1 Phi_t(x) Phi_t(b)^{-1} y aligned with the
    worst singular direction of T_t."""
    d = sys.d
    a, b = sys.a, sys.b
    probes: list[Callable[[np.ndarray], np.ndarray]] = []

    def const(vec: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        return lambda xs: np.broadcast_to(vec, (len(xs), d)).copy()

    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        probes.append(const(e))
    probes.append(const(np.ones(d) / math.sqrt(d)))
    for j in range(min(d, 2)):
        e = np.zeros(d)
        e[j] = 1.0

        def sine(xs, e=e):
            return np.sin(math.pi * (xs - a) / (b - a))[:, None] * e[None, :]

        probes.append(sine)

    # adversarial probe from the worst singular direction of T_t
    try:
        _, _, vh = la.svd(_boundary(phi))
        z = vh[-1].conj()  # direction achieving sigma_min, i.e. max |T^{-1}z|
        z12 = moore_penrose(sys.W) @ z
        y = -z12[:d] + phi.at_b @ z12[d:]
        w = la.inv(phi.at_b) @ y

        def adv(xs):
            return (phi.at_many(xs) @ w) @ sys.P1.T / (b - a)

        probes.append(adv)
    except (la.LinAlgError, RankDeficient):
        pass
    return probes


def _norm_lower(phi: FundamentalMatrix, nodes: int) -> float:
    sys = phi.sys
    bounds = _node_bounds(_uniform_counts(sys, nodes))
    best = 0.0
    for f in _probe_set(sys, phi):
        sol = _solve_once(phi, f, nodes)
        # |f|_H via the same uniform grid
        fv = np.asarray(f(sol.x), dtype=complex)
        _, f_norm = _h_weighted(sys.pieces, bounds, sol.x, fv)
        if f_norm > 0:
            best = max(best, sol.u_norm_H / f_norm)
    return best


def resolvent_norm_lower(
    sys: PHSystem, t: float, nodes: int = 2048
) -> float:
    """Certified-direction lower estimate of |R(it, -A)|: the maximum of
    |u|_H / |f|_H over the fixed probe set.  A lower bound only (up to
    quadrature error); never an upper estimate."""
    _require_valid(sys)
    return _norm_lower(FundamentalMatrix(sys, t), nodes)


def check_characterisation(
    sys: PHSystem,
    t_grid: Sequence[float],
    nodes: int = 2048,
) -> list[dict]:
    """For each grid t, verify the checkable half of the two-sided bound:
    the probe lower estimate of |R(it,-A)| must satisfy
    R_lower <= C_tilde (|T_t^{-1}| + 1).

    The reverse inequality needs an upper estimate of |R|, which probing
    cannot provide; it is recorded as skipped.  One Phi_t per grid t serves
    T_t and every probe solve.
    """
    consts = char_constants(sys, t_grid)
    rows = []
    for t in t_grid:
        phi = FundamentalMatrix(sys, t)
        sv = la.svd(_boundary(phi), compute_uv=False)
        inv_norm = 1.0 / float(sv[-1])
        r_lower = _norm_lower(phi, nodes)
        bound = consts.C_tilde * (inv_norm + 1.0)
        rows.append(
            {
                "t": float(t),
                "R_lower": r_lower,
                "T_inv_norm": inv_norm,
                "C_tilde_bound": bound,
                "lower_ok": r_lower <= bound,
                "upper_check": "skipped (no certified upper estimate of |R|)",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# The diagonal 2x2 example and JSON I/O
# ---------------------------------------------------------------------------


def universal_example(alpha: float) -> PHSystem:
    """The 2x2 system on [0,1] with H = diag(1, alpha)^{-1}, P0 = 0,
    P1 = I, W = [M I], M = [[1,1],[1,1]]/2.  Its boundary matrix satisfies
    det T_t = conj(1 + (e^{it} + e^{i alpha t})/2)."""
    if not alpha > 0:
        raise ValidationError("alpha must be positive")
    M = np.full((2, 2), 0.5)
    return PHSystem(
        d=2,
        P0=np.zeros((2, 2)),
        P1=np.eye(2),
        breaks=(0.0, 1.0),
        pieces=(np.diag([1.0, 1.0 / alpha]),),
        W=np.hstack([M, np.eye(2)]),
    )


def det_closed_form(alpha: float, t: float) -> complex:
    """1 + (e^{it} + e^{i alpha t})/2, the analytic-layer determinant;
    the boundary matrix of :func:`universal_example` has the conjugate."""
    return 1.0 + 0.5 * (cmath.exp(1j * t) + cmath.exp(1j * alpha * t))


def _mat_to_json(m: np.ndarray) -> list[list[str]]:
    return [[repr(float(v)) for v in row] for row in np.asarray(m)]


def _mat_from_json(rows: list[list[str]]) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in rows])


def phsystem_to_json(sys: PHSystem) -> str:
    return json.dumps(
        {
            "d": sys.d,
            "P0": _mat_to_json(sys.P0),
            "P1": _mat_to_json(sys.P1),
            "H": {
                "breaks": [repr(float(x)) for x in sys.breaks],
                "pieces": [_mat_to_json(p) for p in sys.pieces],
            },
            "W": _mat_to_json(sys.W),
            "interval": [repr(float(sys.a)), repr(float(sys.b))],
        }
    )


def phsystem_from_json(text: str) -> PHSystem:
    try:
        obj = json.loads(text)
        sys = PHSystem(
            d=int(obj["d"]),
            P0=_mat_from_json(obj["P0"]),
            P1=_mat_from_json(obj["P1"]),
            breaks=tuple(float(x) for x in obj["H"]["breaks"]),
            pieces=tuple(_mat_from_json(p) for p in obj["H"]["pieces"]),
            W=_mat_from_json(obj["W"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed system config: {exc}") from exc
    _require_valid(sys)
    return sys

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
    "boundary_matrices",
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


# Pairs (t, piece) whose eigenvector basis has cond(V) at or above this
# evaluate exp(A s) by a dense matrix exponential per point.
_EIG_COND_MAX = 1e8

# Grid points t per stacked build of Phi_t: the sampled sup-norm stack
# holds _T_CHUNK x pieces x _B_SAMPLES matrices.
_T_CHUNK = 16
_B_SAMPLES = 33


def _norm2(m: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of square matrices, shape (..., d, d).

    For d = 2, M = [[a, b], [c, e]]: with delta = det M / |det M| (1 when
    det M = 0), sigma_1 + sigma_2 = hypot(|a + delta conj(e)|, |b - delta
    conj(c)|) and sigma_1 - sigma_2 = hypot(|a - delta conj(e)|, |b + delta
    conj(c)|), because the squared hypots are |M|_F^2 +/- 2 |det M|.  The
    textbook sigma_max^2 = (F + sqrt(F^2 - 4 |det M|^2)) / 2 cancels when
    sigma_1 ~ sigma_2 (1.5e-8 relative on a unitary M); this form does not.
    Other d use LAPACK's SVD per matrix.
    """
    if m.shape[-1] != 2:
        return la.norm(m, ord=2, axis=(-2, -1))
    a, b, c, e = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = a * e - b * c
    r = np.abs(det)
    delta = np.divide(det, r, out=np.ones_like(det), where=r > 0)
    de, dc = delta * e.conj(), delta * c.conj()
    return 0.5 * (np.hypot(np.abs(a + de), np.abs(b - dc))
                  + np.hypot(np.abs(a - de), np.abs(b + dc)))


def _eigen(gens: np.ndarray):
    """(lam, V, V^{-1}, dense) for a stack of generators (k, d, d).

    ``dense`` marks the generators left to a dense matrix exponential: an
    ill-conditioned or non-finite eigenbasis, or (all of them) a failed
    stacked decomposition.  Their lam, V and V^{-1} are 0, I and I.
    """
    d = gens.shape[-1]
    try:
        lam, V = la.eig(gens)
        sv = la.svd(V, compute_uv=False)
        dense = ~(np.isfinite(lam).all(axis=1) & (sv[:, 0] < _EIG_COND_MAX * sv[:, -1]))
    except la.LinAlgError:
        lam = np.zeros(gens.shape[:-1], dtype=complex)
        V = np.empty(gens.shape, dtype=complex)
        dense = np.ones(len(gens), dtype=bool)
    if dense.any():
        lam[dense] = 0.0
        V[dense] = np.eye(d)
    return lam, V, la.inv(V), dense


class _PieceExp:
    """Evaluator for exp(A s) with A constant on one piece.

    With a well-conditioned eigenbasis A = V diag(lam) V^{-1} (``eig`` =
    (lam, V, V^{-1}, outer)), exp(A s) = sum_k e^{lam_k s} V[:, k]
    V^{-1}[k, :], so n points cost one (n, d) @ (d, d^2) product with
    ``outer`` (d, d^2); otherwise (``eig`` None) a dense matrix exponential
    per point.
    """

    def __init__(self, A: np.ndarray, eig=None) -> None:
        self.A = A
        self._eig = eig

    def at_many(self, s: np.ndarray) -> np.ndarray:
        """Stack of exp(A s_j), shape (len(s), d, d)."""
        if self._eig is not None:
            d = len(self.A)
            ph = np.exp(np.multiply.outer(s, self._eig[0]))  # (n, d)
            return (ph @ self._eig[3]).reshape(len(s), d, d)
        return np.stack([sla.expm(self.A * sj) for sj in s])

    def apply(self, s: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows exp(A s_j) y_j for s of shape (n,) and y of shape (..., n, d)."""
        if self._eig is not None:
            lam, V, Vi, _ = self._eig
            return ((y @ Vi.T) * np.exp(np.multiply.outer(s, lam))) @ V.T
        return np.einsum("njk,...nk->...nj", self.at_many(s), y)


class _PhiStack:
    """Phi_t for a vector of t on one validated system, built together.

    The generators A_{t,k} = -P1^{-1}(i t H_k^{-1} + P0) of every (t, piece)
    pair share one stacked eigendecomposition, so exp(A s) at a set of
    points is one batched product over all pairs; a pair that
    :func:`_eigen` marks dense takes a matrix exponential per point.
    ``cum[i, k]`` is Phi_{t_i} at breakpoint k, from one batched matmul
    over t per piece.
    """

    def __init__(self, sys: PHSystem, ts) -> None:
        self.sys = sys
        self.ts = np.asarray(ts, dtype=float)
        self._b: np.ndarray | None = None
        n, k, d = len(self.ts), len(sys.pieces), sys.d
        self.p1inv = la.inv(sys.P1)
        self.hinv = la.inv(np.stack(sys.pieces))
        self.gens = -self.p1inv @ (
            1j * self.ts[:, None, None, None] * self.hinv + sys.P0
        )
        lam, V, Vi, dense = _eigen(self.gens.reshape(n * k, d, d))
        self.lam = lam.reshape(n, k, d)
        self.V = V.reshape(n, k, d, d)
        self.Vi = Vi.reshape(n, k, d, d)
        self.outer = (
            self.V.swapaxes(-1, -2)[..., None] * self.Vi[..., None, :]
        ).reshape(n, k, d, d * d)
        self.dense = dense.reshape(n, k)
        self.spans = np.diff(sys.breaks)
        steps = self.exps(self.spans[:, None])[:, :, 0]
        cum = np.empty((n, k + 1, d, d), dtype=complex)
        cum[:, 0] = np.eye(d)
        for j in range(k):
            cum[:, j + 1] = steps[:, j] @ cum[:, j]
        self._finite(cum[:, 1:])
        self.cum = cum

    def _finite(self, mats: np.ndarray) -> None:
        """ExpOverflow naming the first t (then piece) of the (t, piece)
        stack ``mats`` that holds a non-finite entry."""
        if np.isfinite(mats).all():
            return
        ok = np.isfinite(mats).reshape(*mats.shape[:2], -1).all(axis=2)
        i, k = np.argwhere(~ok)[0]
        raise ExpOverflow(
            f"fundamental matrix overflowed on piece {k} at t={float(self.ts[i])}"
        )

    def exps(self, s: np.ndarray) -> np.ndarray:
        """exp(A_{t,k} s[k, j]) for offsets ``s`` (pieces, m) into each
        piece, shape (len(ts), pieces, m, d, d)."""
        n, k, d = self.lam.shape
        ph = np.exp(self.lam[:, :, None, :] * s[None, :, :, None])
        out = (ph @ self.outer).reshape(n, k, s.shape[1], d, d)
        for i, j in np.argwhere(self.dense):
            out[i, j] = _PieceExp(self.gens[i, j]).at_many(s[j])
        return out

    def sup_norms(self) -> np.ndarray:
        """Sampled sup_x |Phi_t(x)| per t (_B_SAMPLES points per piece)."""
        if self._b is None:
            s = np.linspace(0.0, self.spans, _B_SAMPLES, axis=1)
            mats = self.exps(s) @ self.cum[:, :-1, None]
            self._finite(mats)
            self._b = _norm2(mats).max(axis=(1, 2))
        return self._b

    def boundaries(self) -> np.ndarray:
        return _boundary(self.sys, self.cum[:, -1])


def _stacks(sys: PHSystem, ts):
    """Stacked builds of Phi_t over ``ts``, _T_CHUNK values of t each."""
    ts = np.asarray(ts, dtype=float)
    for lo in range(0, len(ts), _T_CHUNK):
        yield _PhiStack(sys, ts[lo : lo + _T_CHUNK])


class FundamentalMatrix:
    """Phi_t for a validated system (:func:`fundamental_matrix` validates):
    exact matrix-exponential products across the constant-H pieces, with
    Phi_t(a) = I.  It is the length-1 case of the stacked build; the
    batched entry points view one t of a larger build instead."""

    def __init__(self, sys: PHSystem, t: float) -> None:
        self._bind(_PhiStack(sys, [t]), 0)

    @classmethod
    def _of(cls, stack: _PhiStack, i: int) -> "FundamentalMatrix":
        phi = cls.__new__(cls)
        phi._bind(stack, i)
        return phi

    def _bind(self, stack: _PhiStack, i: int) -> None:
        self.sys = stack.sys
        self.t = float(stack.ts[i])
        self._stack, self._i = stack, i
        self._p1inv = stack.p1inv
        self._hinv = stack.hinv
        self._cum = stack.cum[i]  # Phi_t at each breakpoint
        self._exps = [
            _PieceExp(A, None if dense else eig)
            for A, dense, *eig in zip(
                stack.gens[i], stack.dense[i], stack.lam[i], stack.V[i],
                stack.Vi[i], stack.outer[i],
            )
        ]

    @property
    def B_t(self) -> float:
        """Sampled sup_x |Phi_t(x)| (lazy: only stability/constants paths
        need it, not plain boundary-matrix evaluation)."""
        return float(self._stack.sup_norms()[self._i])

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


def fundamental_matrix(sys: PHSystem, t: float) -> FundamentalMatrix:
    _require_valid(sys)
    return FundamentalMatrix(sys, t)


def _boundary(sys: PHSystem, at_b: np.ndarray) -> np.ndarray:
    """W [Phi_t(b); I] for one Phi_t(b) or a stack of them."""
    d = sys.d
    return sys.W[:, :d] @ at_b + sys.W[:, d:].astype(complex)


def boundary_matrix(sys: PHSystem, t: float) -> np.ndarray:
    """T_t = W [Phi_t(b); I], the d x d strong-stability matrix."""
    _require_valid(sys)
    return _PhiStack(sys, [t]).boundaries()[0]


def boundary_matrices(sys: PHSystem, ts: Sequence[float]) -> np.ndarray:
    """T_t for every t in ``ts``, shape (len(ts), d, d), from one
    validation and one stacked build of Phi_t."""
    _require_valid(sys)
    parts = [st.boundaries() for st in _stacks(sys, ts)]
    return np.concatenate(parts) if parts else np.empty((0, sys.d, sys.d), complex)


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
    ts = np.asarray(t_grid, dtype=float)
    if not len(ts):
        return StabilityReport((), (), (), (), 0.0, True, math.inf, ())
    parts, b_est = [], 0.0
    for st in _stacks(sys, ts):
        parts.append(st.boundaries())
        b_est = max(b_est, float(st.sup_norms().max()))
    T = np.concatenate(parts)
    dets = np.abs(la.det(T))
    sigmas = la.svd(T, compute_uv=False)[:, -1]
    sing = dets <= margin
    invs = np.divide(1.0, sigmas, out=np.full_like(sigmas, math.inf), where=~sing)
    return StabilityReport(
        t_grid=tuple(ts.tolist()),
        abs_det=tuple(dets.tolist()),
        sigma_min=tuple(sigmas.tolist()),
        inv_norm=tuple(invs.tolist()),
        B_estimate=b_est,
        invertible_on_grid=not sing.any(),
        min_margin=float(dets.min()),
        singular_points=tuple(ts[sing].tolist()),
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
) -> tuple[np.ndarray, np.ndarray]:
    """Rows M_k y_j with M_k the matrix of the piece owning node j, for y of
    shape (..., n, d), and the weighted norms sqrt(integral y^* M y) by the
    trapezoid rule on ``x``, shape (...)."""
    my = np.empty_like(y)
    for k, m in enumerate(mats):
        sl = slice(bounds[k], bounds[k + 1])
        my[..., sl, :] = y[..., sl, :] @ m.T
    quad = np.einsum("...ni,...ni->...n", np.conj(y), my).real
    return my, np.sqrt(np.maximum(np.trapezoid(quad, x, axis=-1), 0.0))


def _stacked(fs: Sequence[Callable[[np.ndarray], np.ndarray]], d: int):
    """The right-hand sides ``fs`` as one map from points (n,) to values
    (len(fs), n, d)."""

    def f(xs: np.ndarray) -> np.ndarray:
        out = np.empty((len(fs), len(xs), d), dtype=complex)
        for p, fn in enumerate(fs):
            fv = np.asarray(fn(xs), dtype=complex)
            if fv.shape != (len(xs), d):
                raise ValidationError(
                    f"probe function must return shape (n, {d}) arrays"
                )
            out[p] = fv
        return out

    return f


def _solve_once(
    phi: FundamentalMatrix,
    fs: Sequence[Callable[[np.ndarray], np.ndarray]],
    nodes: int,
) -> list[ResolventSolution]:
    """One solve per right-hand side in ``fs`` on one grid: the
    exponentials, the quadrature nodes and T_t are shared, and each step
    works on the (len(fs), n, d) stack of values."""
    sys = phi.sys
    p1inv = phi._p1inv
    d = sys.d
    f = _stacked(fs, d)

    T = _boundary(sys, phi.at_b)
    sv = la.svd(T, compute_uv=False)
    if abs(la.det(T)) <= _SINGULAR_TOL or sv[-1] <= _SINGULAR_TOL * sv[0]:
        raise SingularBoundaryMatrix(
            f"T_t singular or near-singular at t={phi.t} (sigma_min={sv[-1]:.3e})"
        )

    counts = _uniform_counts(sys, nodes)
    cum_inv_t = la.inv(phi._cum[:-1]).swapaxes(-1, -2)
    grids: list[np.ndarray] = []
    runs: list[np.ndarray] = []  # per piece: integral_a^x Phi^{-1} P1^{-1} f at the grid
    cum_integral = np.zeros((len(fs), 1, d), dtype=complex)
    for k, n in enumerate(counts):
        x0, x1 = sys.breaks[k], sys.breaks[k + 1]
        grid = np.linspace(x0, x1, n + 1)
        h = (x1 - x0) / n
        # 8-point Gauss-Legendre on each subinterval [grid_j, grid_j+1]
        mid = 0.5 * (grid[:-1] + grid[1:])
        s_nodes = (mid[:, None] + 0.5 * h * _GL_NODES[None, :]).ravel()
        # Phi(s)^{-1} P1^{-1} f(s) = cum_k^{-1} exp(-A_k (s - x0)) P1^{-1} f(s)
        integrand = phi._exps[k].apply(x0 - s_nodes, f(s_nodes) @ p1inv.T) @ cum_inv_t[k]
        per_panel = (
            integrand.reshape(-1, n, 8, d) * (0.5 * h * _GL_WEIGHTS)[:, None]
        ).sum(axis=2)
        run = cum_integral + np.concatenate(
            [np.zeros_like(cum_integral), np.cumsum(per_panel, axis=1)], axis=1
        )
        grids.append(grid)
        runs.append(run)
        cum_integral = run[:, -1:]

    # boundary condition: T_t v(a) = -W [Phi(b) * I_total; 0]
    rhs = -(sys.W[:, :d] @ (phi.at_b @ cum_integral[:, 0].T))
    v_a = la.solve(T, rhs).T

    # v(x) = Phi(x) [v(a) + I(x)] = exp(A_k (x - x0)) cum_k [v(a) + I(x)];
    # each breakpoint node is taken from the piece on its left
    vs = [
        phi._exps[k].apply(grid - grid[0], (v_a[:, None] + run) @ phi._cum[k].T)
        for k, (grid, run) in enumerate(zip(grids, runs))
    ]
    x = np.concatenate([grids[0]] + [g[1:] for g in grids[1:]])
    v = np.concatenate([vs[0]] + [vk[:, 1:] for vk in vs[1:]], axis=1)

    # residual (i): boundary condition
    bc = v[:, -1] @ sys.W[:, :d].T + v[:, 0] @ sys.W[:, d:].T
    boundary_residual = la.norm(bc, axis=1)

    # residual (ii): v' = A_k v + P1^{-1} f on interior 9-point stencils of
    # each piece's grid, its left breakpoint included
    bounds = _node_bounds(counts)
    fx = f(x)
    ode_res = np.zeros(len(fs))
    for k in range(len(counts)):
        lo, hi = (bounds[k] - 1 if k else 0), bounds[k + 1]
        g_v = v[:, lo:hi]
        m = hi - lo
        dv = sum(
            c * g_v[:, j : j + m - 8] for j, c in enumerate(_FD9) if c != 0.0
        ) / (x[lo + 1] - x[lo])
        rhs_v = g_v[:, 4 : m - 4] @ phi._exps[k].A.T + fx[:, lo + 4 : hi - 4] @ p1inv.T
        scale = np.maximum(np.abs(g_v).max(axis=(1, 2)), 1.0)
        ode_res = np.maximum(ode_res, np.abs(dv - rhs_v).max(axis=(1, 2)) / scale)

    # u = H^{-1} v and |u|_H^2 = integral of v^* H^{-1} v
    u, u_norm = _h_weighted(phi._hinv, bounds, x, v)

    return [
        ResolventSolution(
            t=phi.t,
            x=x,
            v=v[p],
            u=u[p],
            hu_a=v_a[p],
            boundary_residual=float(boundary_residual[p]),
            ode_residual=float(ode_res[p]),
            nodes=nodes,
            u_norm_H=float(u_norm[p]),
        )
        for p in range(len(fs))
    ]


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
        (sol,) = _solve_once(phi, [f], n)
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
    return _constants(sys, np.concatenate([st.sup_norms() for st in _stacks(sys, ts)]))


def _constants(sys: PHSystem, b_ts: np.ndarray) -> CharConstants:
    """:func:`char_constants` from the sampled B_t of a grid in increasing t."""
    b_ts = b_ts.tolist()
    B = max(b_ts)
    half = max(len(b_ts) // 2, 1)
    flagged = len(b_ts) >= 4 and (
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
    ev = la.eigvalsh(np.stack(sys.pieces))
    h_sup = float(ev[:, -1].max())
    s_norm = float((1.0 / np.sqrt(ev[:, 0])).max())
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
        _, _, vh = la.svd(_boundary(sys, phi.at_b))
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
    probes = _probe_set(sys, phi)
    sols = _solve_once(phi, probes, nodes)
    # |f|_H via the same uniform grid
    bounds = _node_bounds(_uniform_counts(sys, nodes))
    x = sols[0].x
    _, f_norms = _h_weighted(sys.pieces, bounds, x, _stacked(probes, sys.d)(x))
    return max(
        (sol.u_norm_H / fn for sol, fn in zip(sols, f_norms.tolist()) if fn > 0),
        default=0.0,
    )


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
    cannot provide; it is recorded as skipped.  One stacked build of Phi_t
    over the grid serves B (hence C_tilde), T_t and every probe solve, and
    all probes at one t are solved together.
    """
    _require_valid(sys)
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValidationError("t grid must be non-empty")
    b_ts, inv_norms, r_lower = [], [], []
    for st in _stacks(sys, ts):
        b_ts.append(st.sup_norms())
        sv = la.svd(st.boundaries(), compute_uv=False)
        inv_norms.extend((1.0 / sv[:, -1]).tolist())
        r_lower.extend(
            _norm_lower(FundamentalMatrix._of(st, i), nodes) for i in range(len(st.ts))
        )
    consts = _constants(sys, np.concatenate(b_ts)[np.argsort(ts, kind="stable")])
    rows = []
    for t, r, inv_norm in zip(ts, r_lower, inv_norms):
        bound = consts.C_tilde * (inv_norm + 1.0)
        rows.append(
            {
                "t": t,
                "R_lower": r,
                "T_inv_norm": inv_norm,
                "C_tilde_bound": bound,
                "lower_ok": r <= bound,
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

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
constants that :func:`stability_scan` reports with each grid.

Sign convention: with the ODE above, the diagonal example with
H = diag(1, alpha)^{-1}, P0 = 0, P1 = I has Phi_t(1) = diag(e^{-it},
e^{-i alpha t}), so det T_t here is the complex conjugate of the
closed form 1 + (e^{it} + e^{i alpha t})/2 used by the analytic layer
(:mod:`phstab.spectral`).  Magnitudes agree exactly.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import numpy.linalg as la

from .errors import InsufficientPrecision, OutOfRange, SingularMatrix, ValidationError

__all__ = [
    "PHSystem",
    "FundamentalMatrix",
    "StabilityReport",
    "ResolventSolution",
    "CharConstants",
    "boundary_matrices",
    "stability_scan",
    "resolvent_solve",
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
    and ``pieces[i]`` is the SPD matrix H on (x_i, x_{i+1}).  It is
    validated once, when built (ValidationError names each offending
    matrix), and stores read-only float copies, so it stays valid.
    """

    d: int
    P0: np.ndarray
    P1: np.ndarray
    breaks: tuple[float, ...]
    pieces: tuple[np.ndarray, ...]
    W: np.ndarray

    def __post_init__(self) -> None:
        def frozen(m) -> np.ndarray:
            return _frozen(np.asarray(m).astype(float, casting="same_kind"))  # complex raises

        for name in ("P0", "P1", "W"):
            object.__setattr__(self, name, frozen(getattr(self, name)))
        object.__setattr__(self, "pieces", tuple(frozen(p) for p in self.pieces))
        object.__setattr__(self, "breaks", tuple(float(x) for x in self.breaks))
        errs = _violations(self)
        if errs:
            raise ValidationError("; ".join(errs))

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
        outside = ~((xs >= self.a) & (xs <= self.b))  # NaN is outside
        if outside.any():
            bad = float(xs[outside][0])
            raise ValidationError(f"x={bad} outside [{self.a}, {self.b}]")
        k = np.minimum(
            np.searchsorted(self.breaks, xs, side="right") - 1, len(self.pieces) - 1
        )
        return int(k) if k.ndim == 0 else k

    @cached_property
    def W_pinv(self) -> np.ndarray:
        """Right inverse W+ = W^T (W W^T)^{-1}, formed once per system;
        validation has rank-tested W."""
        return _frozen(self.W.T @ la.inv(self.W @ self.W.T))

    @cached_property
    def norms(self) -> tuple[float, float, float, float, float, float]:
        """The t-independent norms of the characterisation constants, formed
        once per system: |W|, |W+|, |P1|, |P1^{-1}| and the largest and
        smallest eigenvalue of H over the pieces."""
        ev = la.eigvalsh(np.stack(self.pieces))
        mats = (self.W, self.W_pinv, self.P1, self.p1inv)
        return (*(float(la.norm(m, ord=2)) for m in mats), float(ev[:, -1].max()),
                float(ev[:, 0].min()))

    @cached_property
    def p1inv(self) -> np.ndarray:
        """P1^{-1}, formed once per system."""
        return _frozen(la.inv(self.P1))

    @cached_property
    def hinv(self) -> np.ndarray:
        """The stack of H_k^{-1} over the pieces, shape (pieces, d, d)."""
        return _frozen(la.inv(np.stack(self.pieces)))

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """(mu, V, V^{-1}, outer, cond V) per piece when P0 = 0, else None
        (and :func:`_eigen` builds Phi_t).

        With P0 = 0, A_{t,k} = -i t M_k with M_k = P1^{-1} H_k^{-1}, and M_k is
        self-adjoint in the H_k^{-1} inner product, so one real basis serves
        every t: M_k V_k = V_k diag(mu_k) with V_k^T H_k^{-1} V_k = I.  One
        stacked ``eigh`` of the H_k^{-1} that the generators use
        (:attr:`hinv`; one of H_k would differ from them by up to
        cond(H_k) eps), H_k^{-1} = U diag(g) U^T, gives L_k = U diag(g^{1/2})
        with H_k^{-1} = L_k L_k^T, and one stacked ``eigh`` of the symmetric
        L_k^T P1^{-1} L_k = Q diag(mu) Q^T gives V_k = U diag(g^{-1/2}) Q and
        V_k^{-1} = Q^T L_k^T, also for an indefinite P1.  The columns of V_k
        are scaled to unit length (the rows of V_k^{-1} inversely), so that
        cond V_k is that of a unit-column basis, as in :func:`_eigen`;
        unscaled it is sqrt(cond H_k).  A computed H_k^{-1} that is not
        numerically positive definite (cond H_k near 1e16), or an
        L_k^T P1^{-1} L_k that overflows, gives no such basis: its piece
        takes unit factors and cond V_k = inf, so it is dense at every
        build, where an overflow surfaces as OutOfRange.  ``outer`` is
        :func:`_outer` of the pair.
        """
        if self.P0.any():
            return None
        g, U = la.eigh(self.hinv)
        with np.errstate(over="ignore", invalid="ignore"):
            Lt = (U * np.sqrt(g)[:, None, :]).swapaxes(-1, -2)
            S = Lt @ self.p1inv @ Lt.swapaxes(-1, -2)
        bad = (g[:, 0] <= 0) | ~np.isfinite(S).all(axis=(-2, -1))
        eye, unit = np.eye(self.d), bad[:, None, None]
        U, Lt, S = np.where(unit, eye, U), np.where(unit, eye, Lt), np.where(unit, self.p1inv, S)
        r = np.sqrt(np.where(bad[:, None], 1.0, g))[:, None, :]
        mu, Q = la.eigh(S)
        V = (U / r) @ Q
        scale = la.norm(V, axis=-2)
        V, Vi = V / scale[:, None, :], scale[..., None] * (Q.swapaxes(-1, -2) @ Lt)
        sv = la.svd(V, compute_uv=False)
        cond = np.where(bad, np.inf, sv[:, 0] / sv[:, -1])
        return tuple(_frozen(m) for m in (mu, V, Vi, _outer(V, Vi), cond))

    @cached_property
    def _grids(self) -> dict[int, _Grid]:
        """The solve grids by the node counts that callers passed in
        (:func:`_grid`)."""
        return {}


def _frozen(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def _violations(sys: PHSystem) -> list[str]:
    """One message per violated invariant, naming the offending matrix;
    non-finite entries are reported alone, before any other check."""
    errs = [
        f"{name}: non-finite entry"
        for name, m in (
            ("P0", sys.P0), ("P1", sys.P1), ("W", sys.W), ("H breakpoints", sys.breaks),
            *((f"H piece {i}", hk) for i, hk in enumerate(sys.pieces)),
        )
        if not np.isfinite(m).all()
    ]
    if errs:
        return errs
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
    if not sys.pieces or len(sys.breaks) != len(sys.pieces) + 1:
        errs.append("H: breakpoint/piece count mismatch" if sys.pieces else "H: no pieces")
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
        else:
            # the LU factorisation that forms PHSystem.hinv may still find
            # an exact zero pivot, or an inverse that overflows
            try:
                invertible = np.isfinite(la.inv(hk)).all()
            except la.LinAlgError:
                invertible = False
            if not invertible:
                errs.append(f"H piece {i}: singular to working precision")
    sv = la.svd(sys.W, compute_uv=False)
    if sv[-1] <= _RANK_TOL * sv[0]:
        errs.append("W: rank deficient")
    return errs


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
    # scale M exactly by a power of two, so that det M neither under- nor overflows
    big = np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=(-2, -1))
    k = np.clip(np.frexp(big)[1], -1000, 1000)
    m = m * np.ldexp(1.0, -k)[..., None, None]
    a, b, c, e = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = a * e - b * c
    # numpy divides by r through 1/r, which overflows for a subnormal r:
    # scale such a det by an exact power of two (delta is its phase only)
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.where(np.abs(det) < 2.0**-900, det * 2.0**600, det)
    r = np.abs(det)
    delta = np.divide(det, r, out=np.ones_like(det), where=r > 0)
    de, dc = delta * e.conj(), delta * c.conj()
    return np.ldexp(0.5 * (np.hypot(np.abs(a + de), np.abs(b - dc))
                           + np.hypot(np.abs(a - de), np.abs(b + dc))), k)


def _eigen(gens: np.ndarray):
    """(lam, V, V^{-1}, dense) for a stack of generators (k, d, d), from
    one stacked complex ``eig``, an ``svd`` of V for its condition and an
    ``inv`` of V: the build of Phi_t for P0 != 0, where no basis serves
    every t (with P0 = 0, :attr:`PHSystem.modes` does).

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


def _outer(V: np.ndarray, Vi: np.ndarray) -> np.ndarray:
    """The products V[:, j] V^{-1}[j, :] of eigenbases (..., d, d), flattened
    for :func:`_exp_eig`: shape (..., d, d^2)."""
    d = V.shape[-1]
    return (V.swapaxes(-1, -2)[..., None] * Vi[..., None, :]).reshape(*V.shape[:-1], d * d)


def _exp_eig(lam: np.ndarray, outer: np.ndarray, s: np.ndarray) -> np.ndarray:
    """exp(A s) = sum_k e^{lam_k s} V[:, k] V^{-1}[k, :] from A's
    eigenvalues ``lam`` (..., d) and the products ``outer`` (..., d, d^2):
    for offsets ``s`` (..., m), the rows (..., m, d^2) of exp(A s_j)."""
    return np.exp(lam[..., None, :] * s[..., None]) @ outer


_MOD_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _norms_eig(lam: np.ndarray, V: np.ndarray, R: np.ndarray, s: np.ndarray) -> np.ndarray:
    """|Phi_t(x_k + s_j)| for d = 2, shape (n, pieces, m), from each modal
    (t, piece) pair's eigenvalues ``lam`` (n, pieces, 2), which are
    imaginary (lam = -i t mu), its unit-column basis ``V`` and R = V^{-1}
    Phi_t(x_k), without forming Phi_t(x); ``s`` (pieces, m).

    Phi_t(x_k + s) = e^{lam_0 s} (A + w B) with w = e^{(lam_1 - lam_0) s},
    |e^{lam_0 s}| = |w| = 1, and A = V[:, 0] R[0, :], B = V[:, 1] R[1, :] of
    rank one.  So det(A + w B) = w kappa with kappa = A00 B11 + A11 B00 -
    A01 B10 - A10 B01, which is det V det R and is formed so (the four-term
    sum cancels to eps cond(V)^2).  The phase delta of :func:`_norm2` is w
    delta0 with delta0 = kappa / |kappa|, and its four moduli |a + delta
    conj(e)|, |b - delta conj(c)|, |a - delta conj(e)| and |b + delta
    conj(c)| are |alpha + w beta| with alpha = x0 + y1 and beta = x1 + y0,
    fixed per pair: for the first, x0 = A00, y1 = delta0 conj(B11), x1 =
    B00 and y0 = delta0 conj(A11).  R is scaled by a power of two, as M is
    in :func:`_norm2`, and a subnormal kappa likewise.
    """
    # |A_ij|, |B_ij| <= max |R| for unit columns V
    k = np.clip(np.frexp(np.abs(R.view(float)).max(axis=(-2, -1)))[1], -1000, 1000)
    R = R * np.ldexp(1.0, -k)[..., None, None]
    (v00, v01), (v10, v11) = np.moveaxis(V, (-2, -1), (0, 1))
    (r00, r01), (r10, r11) = np.moveaxis(R, (-2, -1), (0, 1))
    kappa = (v00 * v11 - v01 * v10) * (r00 * r11 - r01 * r10)
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = np.where(np.abs(kappa) < 2.0**-900, kappa * 2.0**600, kappa)
    r = np.abs(kappa)
    delta0 = np.divide(kappa, r, out=np.ones_like(kappa), where=r > 0)
    # per modulus (last axis; column c = 0, 1, 0, 1 of the a, b row), with
    # j = 0 for A and 1 for B: x_j = V[0, j] R[j, c] and y_j = +-delta0
    # conj(V[1, j] R[j, 1 - c])
    x = V[..., 0, :, None] * R[..., [0, 1, 0, 1]]
    y = (V[..., 1, :, None] * R[..., [1, 0, 1, 0]]).conj() * (_MOD_SIGNS * delta0[..., None, None])
    alpha, beta = x[..., 0, :] + y[..., 1, :], x[..., 1, :] + y[..., 0, :]
    w = np.exp(1j * ((lam[..., 1].imag - lam[..., 0].imag)[..., None] * s))[..., None]
    z = w * beta[..., None, :]
    z += alpha[..., None, :]
    # hypot(m0, m1) = |m0 + i m1| on a complex view of the moduli: numpy's
    # complex abs is vectorised, its hypot is not
    h = np.abs(np.abs(z).view(complex))
    return np.ldexp(0.5 * (h[..., 0] + h[..., 1]), k[..., None])


class FundamentalMatrix:
    """Phi_t for a vector of t on one system, built together: exact
    matrix-exponential products across the constant-H pieces, Phi_t(a) = I.

    Each generator A_{t,k} = -P1^{-1}(i t H_k^{-1} + P0) has an
    eigendecomposition, so exp(A s) at a set of points is one batched
    product over all (t, piece) pairs (:meth:`exps`) or, for one pair
    (i, k), one product (:meth:`exp_at`, :meth:`apply`).  With P0 = 0 the
    real modal basis of each piece (:attr:`PHSystem.modes`, formed once per
    system) serves every t, with lam = -i t mu_k.  Otherwise every pair of
    the build shares one stacked complex eigendecomposition (:func:`_eigen`).
    Either way a pair whose unit-column basis has cond V >= _EIG_COND_MAX
    is marked dense and takes a matrix exponential per point.
    ``cum[i, k]`` is Phi_{t_i} at breakpoint k, from one batched matmul
    over t per piece, so ``cum[:, -1]`` is Phi_t(b); ``sup_norms`` holds
    the sampled B_t.  T_t and its SVD are taken once per build, on first
    use; W+, P1^{-1} and the H_k^{-1} once per system, and read from
    ``sys`` (:attr:`PHSystem.W_pinv`, ``p1inv``, ``hinv``).
    """

    def __init__(self, sys: PHSystem, ts) -> None:
        self.sys = sys
        self.ts = np.asarray(ts, dtype=float)
        finite = np.isfinite(self.ts)
        if not finite.all():
            raise ValidationError(f"t={self.ts[~finite][0]} is not finite")
        n, k, d = len(self.ts), len(sys.pieces), sys.d
        self.gens = -sys.p1inv @ (1j * self.ts[:, None, None, None] * sys.hinv + sys.P0)
        modes = sys.modes
        if modes is None:
            lam, V, Vi, dense = _eigen(self.gens.reshape(n * k, d, d))
            self.lam = lam.reshape(n, k, d)
            self.V = V.reshape(n, k, d, d)
            self.Vi = Vi.reshape(n, k, d, d)
            self.outer = _outer(self.V, self.Vi)
            self.dense = dense.reshape(n, k)
        else:
            # _EIG_COND_MAX is read at each build, not when the modes are formed
            mu, V, Vi, outer, cond = modes
            self.lam = -1j * self.ts[:, None, None] * mu
            self.V, self.Vi, self.outer, self.dense = (
                np.broadcast_to(m, (n, *m.shape))
                for m in (V, Vi, outer, ~(cond < _EIG_COND_MAX))
            )
        self.spans = np.diff(sys.breaks)
        steps = self.exps(self.spans[:, None])[:, :, 0]
        cum = np.empty((n, k + 1, d, d), dtype=complex)
        cum[:, 0] = np.eye(d)
        for j in range(k):
            cum[:, j + 1] = steps[:, j] @ cum[:, j]
        self._finite(cum[:, 1:])
        self.cum = cum

    def __call__(self, xs) -> np.ndarray:
        """Phi_t(x_j) for every t and every point, shape (len(ts), len(xs),
        d, d); ValidationError for a point outside [a, b]."""
        xs = np.asarray(xs, dtype=float)
        ks, d = self.sys.piece_index(xs), self.sys.d
        out = np.empty((len(self.ts), len(xs), d, d), dtype=complex)
        for k in np.unique(ks):
            idx = np.flatnonzero(ks == k)
            for i in range(len(self.ts)):
                e = self.exp_at(i, k, xs[idx] - self.sys.breaks[k])
                out[i, idx] = (e.reshape(-1, d) @ self.cum[i, k]).reshape(-1, d, d)
        return out

    def _finite(self, mats: np.ndarray) -> None:
        """OutOfRange naming the first t (then piece) of the (t, piece)
        stack ``mats`` that holds a non-finite entry."""
        if np.isfinite(mats).all():
            return
        ok = np.isfinite(mats).reshape(*mats.shape[:2], -1).all(axis=2)
        i, k = np.argwhere(~ok)[0]
        raise OutOfRange(
            f"fundamental matrix overflowed on piece {k} at t={float(self.ts[i])}"
        )

    def exps(self, s: np.ndarray, i: int | None = None) -> np.ndarray:
        """exp(A_{t,k} s[k, j]) for offsets ``s`` (pieces, m) into each
        piece, shape (len(ts), pieces, m, d, d); with ``i``, at t_i only,
        shape (pieces, m, d, d)."""
        rows = slice(None) if i is None else slice(i, i + 1)
        lam = self.lam[rows]
        n, k, d = lam.shape
        out = _exp_eig(lam, self.outer[rows], s[None]).reshape(n, k, s.shape[1], d, d)
        for r, j in np.argwhere(self.dense[rows]):
            out[r, j] = self.exp_at(r if i is None else i, j, s[j])
        return out if i is None else out[0]

    def exp_at(self, i: int, k: int, s: np.ndarray) -> np.ndarray:
        """Stack of exp(A_{t_i,k} s_j), shape (len(s), d, d)."""
        if self.dense[i, k]:
            # imported here: scipy.linalg costs ~25 MB and ~0.25 s of a cold
            # start, and only ill-conditioned pairs need it
            from scipy.linalg import expm

            return np.stack([expm(self.gens[i, k] * sj) for sj in s])
        d = self.sys.d
        return _exp_eig(self.lam[i, k], self.outer[i, k], s).reshape(len(s), d, d)

    def apply(self, i: int, k: int, s: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows exp(A_{t_i,k} s_j) y_j for s of shape (m,) and y that
        broadcasts to (..., m, d); with an eigenbasis, without forming the
        matrices."""
        if self.dense[i, k]:
            return (self.exp_at(i, k, s) @ y[..., None])[..., 0]
        ph = np.exp(np.multiply.outer(s, self.lam[i, k]))
        return ((y @ self.Vi[i, k].T) * ph) @ self.V[i, k].T

    @cached_property
    def sup_norms(self) -> np.ndarray:
        """Sampled sup_x |Phi_t(x)| per t (_B_SAMPLES points per piece):
        for a modal build (P0 = 0) with d = 2 and no dense pair, from each
        pair's eigen-pairs in closed form (:func:`_norms_eig`); otherwise
        from the formed Phi_t(x)."""
        s = np.linspace(0.0, self.spans, _B_SAMPLES, axis=1)
        if self.sys.d == 2 and self.sys.modes is not None and not self.dense.any():
            norms = _norms_eig(self.lam, self.V, self.Vi @ self.cum[:, :-1], s)
            self._finite(norms)
            return norms.max(axis=(1, 2))
        e = self.exps(s)
        n, k, m, d, _ = e.shape
        # one (m d, d) @ (d, d) product per (t, piece) pair, not a
        # broadcast stack of m (d, d) products
        mats = (e.reshape(n, k, m * d, d) @ self.cum[:, :-1]).reshape(e.shape)
        self._finite(mats)
        return _norm2(mats).max(axis=(1, 2))

    @cached_property
    def T(self) -> np.ndarray:
        """T_t = W [Phi_t(b); I] for every t, shape (len(ts), d, d)."""
        d = self.sys.d
        return self.sys.W[:, :d] @ self.cum[:, -1] + self.sys.W[:, d:].astype(complex)

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, sigma, V^H) of every T_t, one batched full SVD: it serves the
        scan, the inverse norms, the singular check, the boundary solve of a
        resolvent and the adversarial direction."""
        return la.svd(self.T)


def _stacks(sys: PHSystem, ts):
    """Builds of Phi_t over ``ts``, _T_CHUNK values of t each; a grid that
    is not one-dimensional raises ValidationError."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValidationError(f"t grid must be one-dimensional, not of shape {ts.shape}")
    for lo in range(0, len(ts), _T_CHUNK):
        yield FundamentalMatrix(sys, ts[lo : lo + _T_CHUNK])


def boundary_matrices(sys: PHSystem, ts: Sequence[float]) -> np.ndarray:
    """T_t = W [Phi_t(b); I], the d x d strong-stability matrix, for every
    t in ``ts``: shape (len(ts), d, d), from one stacked build of Phi_t."""
    parts = [st.T for st in _stacks(sys, ts)]
    return np.concatenate(parts) if parts else np.empty((0, sys.d, sys.d), complex)


@dataclass(frozen=True)
class StabilityReport:
    """Per-t invertibility metrics of T_t over a finite grid, and the grid's constants.

    The verdict refers to the grid only; resolution is recorded so the
    evidence is reproducible.
    """

    t_grid: tuple[float, ...]
    abs_det: tuple[float, ...]
    sigma_min: tuple[float, ...]
    inv_norm: tuple[float, ...]  # inf where singular at grid tolerance
    min_margin: float
    singular_points: tuple[float, ...]
    constants: CharConstants

    @property
    def B_estimate(self) -> float:
        """The largest sampled B_t of the grid: the constants' B."""
        return self.constants.B

    @property
    def verdict(self) -> str:
        return "grid singularity" if self.singular_points else "invertible on grid"

    def to_csv(self) -> str:
        rows = zip(self.t_grid, self.abs_det, self.sigma_min, self.inv_norm)
        lines = [",".join(repr(v) for v in row) for row in rows]
        return "\n".join(["t,abs_det,sigma_min,inv_norm", *lines]) + "\n"

    def to_json(self) -> str:
        """The scan summary and the constants, as ``phstab phs`` writes them."""
        scan = {
            "verdict": self.verdict,
            "B_estimate": self.B_estimate,
            "min_margin": self.min_margin,
            "grid_points": len(self.t_grid),
            "singular_points": list(self.singular_points),
        }
        return json.dumps({"scan": scan, "constants": asdict(self.constants)}, indent=2)


def stability_scan(sys: PHSystem, t_grid: Sequence[float]) -> StabilityReport:
    """Scan T_t over a non-empty grid, flagging any |det T_t| <= ``_SINGULAR_TOL``.
    The report carries the constants of the grid, from the B_t samples of
    the same builds of Phi_t."""
    ts = np.asarray(t_grid, dtype=float)
    svs, b_ts = [], []
    for st in _stacks(sys, ts):
        svs.append(st.svd[1])
        b_ts.extend(st.sup_norms.tolist())
    constants = char_constants(sys, ts, b_ts)  # ValidationError for an empty grid
    sv = np.concatenate(svs)
    dets, sigmas = sv.prod(axis=-1), sv[:, -1]  # |det T| = prod sigma
    sing = dets <= _SINGULAR_TOL
    invs = np.divide(1.0, sigmas, out=np.full_like(sigmas, math.inf), where=~sing)
    return StabilityReport(
        t_grid=tuple(ts.tolist()),
        abs_det=tuple(dets.tolist()),
        sigma_min=tuple(sigmas.tolist()),
        inv_norm=tuple(invs.tolist()),
        min_margin=float(dets.min()),
        singular_points=tuple(ts[sing].tolist()),
        constants=constants,
    )


# ---------------------------------------------------------------------------
# Resolvent solves
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# the grid doubling of resolvent_solve stops here
_MAX_NODES = 1 << 16


@dataclass(frozen=True)
class ResolventSolution:
    """u = R(it, -A) f sampled on a uniform grid, with the residuals that
    certify it: the boundary condition W[(Hu)(b); (Hu)(a)] = 0 and the
    first-order ODE checked by high-order finite differences."""

    t: float
    x: np.ndarray  # uniform grid, piece-boundary aligned
    v: np.ndarray  # (Hu)(x_j), shape (n, d), complex
    u: np.ndarray  # H^{-1} v
    boundary_residual: float
    ode_residual: float
    nodes: int
    u_norm_H: float

    @property
    def residual(self) -> float:
        return max(self.boundary_residual, self.ode_residual)


# 9-point central difference, 8th order accurate
_FD9 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])


class _Grid:
    """The uniform grid of a solve with ``nodes`` nodes: per piece k,
    ``counts[k]`` panels of width ``hs[k]`` (at least 16) on ``grids[k]``,
    with midpoints ``mids[k]``; ``x``, the concatenated grid, whose node j
    belongs to the piece ``bounds`` assigns it (a shared breakpoint node to
    the piece on its left); and ``xs``, every panel's 8 Gauss-Legendre
    nodes followed by x, where right-hand sides are evaluated.  Its arrays
    are read-only: a grid is shared by the solves of one system
    (:func:`_grid`), and ``ResolventSolution.x`` is its ``x``."""

    def __init__(self, sys: PHSystem, nodes: int) -> None:
        nodes = _node_count(nodes)
        self.sys, total = sys, sys.b - sys.a
        spans = np.diff(sys.breaks)
        self.counts = [max(16, int(round(nodes * ln / total))) for ln in spans.tolist()]
        self.hs = spans / self.counts
        self.grids = [
            np.linspace(x0, x1, n + 1) for x0, x1, n in zip(sys.breaks, sys.breaks[1:], self.counts)
        ]
        self.x = np.concatenate([self.grids[0]] + [g[1:] for g in self.grids[1:]])
        self.bounds = np.concatenate([[0], np.cumsum(self.counts) + 1])
        self.mids = [0.5 * (g[:-1] + g[1:]) for g in self.grids]
        # 8-point Gauss-Legendre on each panel [grid_j, grid_j+1]
        gauss = [(m[:, None] + 0.5 * h * _GL_NODES).ravel() for m, h in zip(self.mids, self.hs)]
        self.xs = np.concatenate(gauss + [self.x])
        for m in (self.hs, *self.grids, self.x, self.bounds, *self.mids, self.xs):
            m.flags.writeable = False
        self._probes: tuple[np.ndarray, np.ndarray] | None = None

    def by_piece(self, mats: Sequence[np.ndarray], y: np.ndarray) -> np.ndarray:
        """Rows M_k y_j with M_k the matrix of the piece owning node j, for
        y of shape (..., len(x), d)."""
        my = np.empty_like(y)
        for k, m in enumerate(mats):
            sl = slice(self.bounds[k], self.bounds[k + 1])
            my[..., sl, :] = y[..., sl, :] @ m.T
        return my

    def h_norms(self, y: np.ndarray, my: np.ndarray) -> np.ndarray:
        """Weighted norms sqrt(integral y^* M y), shape (...), by the
        trapezoid rule on x from the rows ``my`` = M y of :meth:`by_piece`."""
        quad = np.einsum("...ni,...ni->...n", np.conj(y), my).real
        return np.sqrt(np.maximum(np.trapezoid(quad, self.x, axis=-1), 0.0))

    def probes(self) -> tuple[np.ndarray, np.ndarray]:
        """The values at xs of :func:`_probe_values` and their H-norms, which
        no t changes: formed on first use, read-only."""
        if self._probes is None:
            fv = _probe_values(self.sys, self.xs)
            fx = fv[:, -len(self.x) :]
            f_norms = self.h_norms(fx, self.by_piece(self.sys.pieces, fx))
            self._probes = (_frozen(fv), _frozen(f_norms))
        return self._probes

    def values(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """f(xs), as one right-hand side of shape (1, len(xs), d);
        ValidationError for another shape or a value that is not finite."""
        vals, d = np.asarray(f(self.xs)), self.sys.d
        if vals.shape != (len(self.xs), d):
            raise ValidationError(f"right-hand side must return shape (n, {d}) arrays")
        vals = vals.astype(complex)
        # a finite sum has finite terms, and one reduction costs a tenth of
        # a per-row test on every solve; a sum that overflows on finite
        # values is told apart below
        with np.errstate(over="ignore", invalid="ignore"):
            total = vals.sum()
        if not np.isfinite(total):
            bad = ~np.isfinite(vals).all(axis=1)
            if bad.any():
                x = float(self.xs[bad].min())
                raise ValidationError(f"right-hand side is not finite at x={x!r}")
        return vals[None]


def _node_count(nodes) -> int:
    """``nodes`` as an int; ValidationError unless it is an integer >= 1
    (a bool is not)."""
    if isinstance(nodes, bool) or not isinstance(nodes, numbers.Integral) or nodes < 1:
        raise ValidationError(f"nodes {nodes!r} is not an integer >= 1")
    return int(nodes)


def _grid(sys: PHSystem, nodes: int) -> _Grid:
    """The grid of ``nodes`` nodes on ``sys``, built once per system for
    each node count a caller passes in; the doubled grids of a refinement
    are built by :class:`_Grid` and not kept.  The count is checked before
    the lookup, where True would find the grid of 1."""
    nodes = _node_count(nodes)
    g = sys._grids.get(nodes)
    if g is None:
        g = sys._grids[nodes] = _Grid(sys, nodes)
    return g


def _solve_once(st: FundamentalMatrix, i: int, g: _Grid, fv: np.ndarray,
                w: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """At t = st.ts[i], v = Hu on g.x for each right-hand side, from its
    values ``fv`` at g.xs (:meth:`_Grid.values`); shape (len(fv), n, d).
    Panels are factored through their midpoints, exp(-A_k (s - x_k)) =
    exp(-A_k (mid_j - x_k)) exp(-A_k h xi_i / 2): one weighted (8, d, d)
    stack per piece contracts every panel's nodes in one
    (len(fv), n, 8d) @ (8d, d) matmul, and exp(-A_k (mid_j - x_k)) is
    applied at the n panel midpoints only.

    With ``w``, one more solve comes last: f = P1 Phi_t(x) w / (b - a),
    whose integrand Phi_t(s)^{-1} P1^{-1} f(s) is the constant w / (b - a),
    so its integral (x - a) w / (b - a) is exact and f is never evaluated
    at the Gauss nodes.  Phi_t(x) w on g.x, which gives that f, is returned
    beside v from the same propagation pass (None without ``w``)."""
    sys, d = st.sys, st.sys.d
    t, cum = float(st.ts[i]), st.cum[i]
    U, sv, Vh = (m[i] for m in st.svd)
    # |det T_t| is the product of its singular values
    if np.prod(sv) <= _SINGULAR_TOL or sv[-1] <= _SINGULAR_TOL * sv[0]:
        raise SingularMatrix(
            f"T_t singular or near-singular at t={t} (sigma_min={sv[-1]:.3e})"
        )

    cum_inv_t = la.inv(cum[:-1]).swapaxes(-1, -2)
    # Phi(s)^{-1} P1^{-1} f(s) = cum_k^{-1} exp(-A_k (mid - x_k)) E_i P1^{-1} f(s)
    # with E_i = exp(-A_k h_k xi_i / 2); gauss[k] stacks piece k's weighted
    # E_i P1^{-1}, for every piece at once
    wts = 0.5 * g.hs[:, None] * _GL_WEIGHTS
    gauss = st.exps(-0.5 * g.hs[:, None] * _GL_NODES, i) @ sys.p1inv * wts[..., None, None]
    runs: list[np.ndarray] = []  # per piece: integral_a^x Phi^{-1} P1^{-1} f at the grid
    cum_integral = np.zeros((len(fv), 1, d), dtype=complex)
    parts = np.split(fv[:, : -len(g.x)], 8 * np.cumsum(g.counts)[:-1], axis=1)
    for k, (n, mid, m, part) in enumerate(zip(g.counts, g.mids, gauss, parts)):
        panels = part.reshape(len(fv), n, 8 * d) @ m.swapaxes(-1, -2).reshape(8 * d, d)
        per_panel = st.apply(i, k, sys.breaks[k] - mid, panels) @ cum_inv_t[k]
        run = cum_integral + np.concatenate(
            [np.zeros_like(cum_integral), np.cumsum(per_panel, axis=1)], axis=1
        )
        runs.append(run)
        cum_integral = run[:, -1:]
    if w is not None:
        ramps = [((grid - sys.a) / (sys.b - sys.a))[None, :, None] * w for grid in g.grids]
        runs = [np.concatenate([run, ramp]) for run, ramp in zip(runs, ramps)]
        cum_integral = np.concatenate([cum_integral, w[None, None]])  # I(b) = w

    # boundary condition: T_t v(a) = -W [Phi(b) * I_total; 0], solved
    # through the SVD T_t = U Sigma V^H as v(a) = V Sigma^{-1} U^H rhs
    rhs = -(sys.W[:, :d] @ (cum[-1] @ cum_integral[:, 0].T))
    v_a = (Vh.conj().T @ ((U.conj().T @ rhs) / sv[:, None])).T

    # v(x) = Phi(x) [v(a) + I(x)] = exp(A_k (x - x0)) cum_k [v(a) + I(x)],
    # and Phi(x) w in the same pass; each breakpoint node is taken from the
    # piece on its left
    vs = []
    for k, (grid, run) in enumerate(zip(g.grids, runs)):
        y = (v_a[:, None] + run) @ cum[k].T
        if w is not None:
            y = np.concatenate([y, np.broadcast_to(cum[k] @ w, (1, *y.shape[1:]))])
        vs.append(st.apply(i, k, grid - grid[0], y))
    v = np.concatenate([vs[0]] + [vk[:, 1:] for vk in vs[1:]], axis=1)
    return (v, None) if w is None else (v[:-1], v[-1])


def _residuals(
    st: FundamentalMatrix, i: int, g: _Grid, v: np.ndarray, fx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The residuals that certify solves ``v`` on g.x (:func:`_solve_once`)
    whose right-hand sides take the values ``fx`` on g.x: (i) the boundary
    condition W[v(b); v(a)] = 0 and (ii) v' = A_k v + P1^{-1} f at the
    9-point stencil centres inside one piece's grid (its breakpoints
    included), over max(|v|, 1) on that grid; shapes (len(v),) each."""
    sys, d, x = st.sys, st.sys.d, g.x
    bc = v[:, -1] @ sys.W[:, :d].T + v[:, 0] @ sys.W[:, d:].T
    boundary_residual = la.norm(bc, axis=1)

    # the stencil sums are taken once over all of x
    brk = g.bounds[1:-1] - 1  # interior breakpoint nodes
    first, last = np.concatenate([[0], brk]), np.append(brk, len(x) - 1)
    c = np.arange(4, len(x) - 4)
    own = np.searchsorted(brk, c)  # a centre on a breakpoint: the left piece
    inside = (c - first[own] >= 4) & (last[own] - c >= 4)
    dv = sum(cf * v[:, j : j + len(c)] for j, cf in enumerate(_FD9) if cf != 0.0)
    rhs_v = (g.by_piece(st.gens[i], v) + fx @ sys.p1inv.T)[:, 4:-4]
    err = np.abs(dv / (x[first + 1] - x[first])[own, None] - rhs_v).max(axis=2)
    absv = np.abs(v).max(axis=2)
    scale = np.maximum(np.maximum.reduceat(absv, first, axis=1), absv[:, last])
    ode_res = (err / np.maximum(scale, 1.0)[:, own])[:, inside].max(axis=1)
    return boundary_residual, ode_res


def resolvent_solve(
    sys: PHSystem,
    t: float,
    f: Callable[[np.ndarray], np.ndarray],
    nodes: int = 4096,
    tol: float = 1e-8,
) -> ResolventSolution:
    """Solve (it + A) u = f via the fundamental-matrix representation
    (Hu)(x) = Phi_t(x) [(Hu)(a) + integral_a^x Phi_t(s)^{-1} P1^{-1} f ds],
    with (Hu)(a) from the boundary equation.

    ``f`` maps an array of points (shape (n,)) to values (shape (n, d)).
    ``nodes`` sets the uniform grid resolution; each subinterval carries
    an 8-point Gauss-Legendre panel, factored through its midpoint so that
    the piece's exponentials are taken at the 8 node offsets and the
    midpoints only.  If the residuals exceed ``tol`` the grid is doubled up
    to ``_MAX_NODES`` (InsufficientPrecision beyond); ``tol=math.inf`` takes
    the first grid as it is.  ValidationError for a ``nodes`` that is not an
    integer >= 1 or a ``tol`` that is NaN or not positive.
    """
    if not tol > 0:
        raise ValidationError(f"tol {tol!r} is not a positive number")
    st = FundamentalMatrix(sys, [t])
    n = nodes
    while True:
        g = _grid(sys, n) if n == nodes else _Grid(sys, n)
        fv = g.values(f)
        v, _ = _solve_once(st, 0, g, fv)
        bc, ode = _residuals(st, 0, g, v, fv[:, -len(g.x) :])
        # u = H^{-1} v and |u|_H^2 = integral of v^* H^{-1} v
        u = g.by_piece(sys.hinv, v)
        sol = ResolventSolution(
            t=float(st.ts[0]),
            x=g.x,
            v=v[0],
            u=u[0],
            boundary_residual=float(bc[0]),
            ode_residual=float(ode[0]),
            nodes=n,
            u_norm_H=float(g.h_norms(v, u)[0]),
        )
        if sol.residual <= tol:
            return sol
        if 2 * n > _MAX_NODES:
            raise InsufficientPrecision(
                f"residual {sol.residual:.3e} > {tol} at {n} nodes (cap {_MAX_NODES})"
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
    ``B`` is the largest sampled B_t over the grid a scan ran on; it is grid
    evidence only unless H is constant (then Phi_t has t-uniformly bounded
    norm and the bound is structural).
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


def char_constants(sys: PHSystem, ts: Sequence[float], b_ts: Sequence[float]) -> CharConstants:
    """The constants of a grid, ``b_ts[i]`` the sampled B_t at ``ts[i]``, in
    any order (a grid's constants are ``stability_scan(sys, grid).constants``):
    B, the largest sampled B_t, and

    C_tilde = (b-a) B^2 |S| |P1| |P1^{-1}|^2 max{B |W|, (b-a)^{1/2}}
    C = ((b-a)^{-3/2} |P1|^2 |P1^{-1}|^2 B^3 (1+B) + 1) |W+|
        * max{(b-a)^{1/2} |H|_inf |P1|, 1}.

    ``b_flagged`` is set when B_t grows across the grid in increasing t
    (evidence against sup_t |Phi_t| < infinity); constants are still
    reported.  ValidationError for an empty grid.
    """
    b_ts = np.asarray(b_ts, dtype=float)[np.argsort(ts, kind="stable")].tolist()
    if not b_ts:
        raise ValidationError("t grid must be non-empty")
    B = max(b_ts)
    half = len(b_ts) // 2
    flagged = len(b_ts) >= 4 and max(b_ts[half:]) > 1.5 * max(b_ts[:half])
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
    w_norm, wp_norm, p1, p1i, h_sup, h_min = sys.norms
    s_norm = 1.0 / math.sqrt(h_min)
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


def _probe_values(sys: PHSystem, xs: np.ndarray) -> np.ndarray:
    """The probe right-hand sides that do not depend on t, at the points
    ``xs``: the unit vectors e_j, their normalised sum, and sin(pi (x - a)
    / (b - a)) e_j for j < 2; shape (probes, len(xs), d), real.  The
    adversarial probe (:func:`_adversarial_w`) joins them in each solve."""
    d = sys.d
    fv = np.zeros((d + 1 + min(d, 2), len(xs), d))
    fv[: d + 1] = np.vstack([np.eye(d), np.ones(d) / math.sqrt(d)])[:, None]
    sine = np.sin(math.pi * (xs - sys.a) / (sys.b - sys.a))
    for j in range(min(d, 2)):
        fv[d + 1 + j, :, j] = sine
    return fv


def _adversarial_w(st: FundamentalMatrix, i: int) -> np.ndarray:
    """w = Phi_t(b)^{-1} y at t = st.ts[i], y from the worst singular
    direction of T_t: the adversarial probe is f = P1 Phi_t(x) w / (b - a).
    SingularMatrix naming t where Phi_t(b) cannot be inverted, rather than
    a probe set without its strongest probe."""
    d, phi_b = st.sys.d, st.cum[i, -1]
    z = st.svd[2][i, -1].conj()  # direction achieving sigma_min, i.e. max |T^{-1}z|
    z12 = st.sys.W_pinv @ z
    try:
        return la.inv(phi_b) @ (-z12[:d] + phi_b @ z12[d:])
    except la.LinAlgError:
        raise SingularMatrix(
            f"Phi_t(b) cannot be inverted at t={float(st.ts[i])}: no adversarial probe"
        ) from None


def _norm_lower(st: FundamentalMatrix, i: int, g: _Grid) -> float:
    """Lower estimate of |R(it, -A)| at t = st.ts[i]: the largest
    |u|_H / |f|_H over the probes, those of :func:`_probe_values`
    (:meth:`_Grid.probes`) and the adversarial one, up to quadrature error.
    Since every ratio is at most |R|, R_lower <= |R|: it can refute an
    upper bound on |R|, never confirm one."""
    sys, (fv, f_norms) = st.sys, g.probes()
    v, phi_w = _solve_once(st, i, g, fv, _adversarial_w(st, i))
    f_adv = phi_w @ sys.P1.T / (sys.b - sys.a)
    f_norms = np.append(f_norms, g.h_norms(f_adv, g.by_piece(sys.pieces, f_adv)))
    u_norms = g.h_norms(v, g.by_piece(sys.hinv, v))
    return max(
        (un / fn for un, fn in zip(u_norms.tolist(), f_norms.tolist()) if fn > 0),
        default=0.0,
    )


def check_characterisation(
    sys: PHSystem,
    t_grid: Sequence[float],
    nodes: int = 2048,
) -> list[dict]:
    """For each grid t, check the half of the two-sided bound that a lower
    estimate can refute: the probe estimate R_lower of |R(it,-A)| must
    satisfy R_lower <= C_tilde (|T_t^{-1}| + 1).  Since R_lower <= |R|, a
    row with ``lower_ok`` false refutes |R| <= C_tilde (|T_t^{-1}| + 1);
    one with ``lower_ok`` true confirms nothing.

    The other half, |T_t^{-1}| <= C (|R| + 1), is the one a lower estimate
    could verify: |T_t^{-1}| <= C (R_lower + 1) implies it.  R_lower holds
    only up to quadrature error, so that half is recorded as skipped.

    One build of Phi_t per _T_CHUNK (16) values of t serves their B_t
    (hence C_tilde), T_t and every probe solve; the t-independent probes
    are evaluated once per system and node count, on the cached grid
    (:meth:`_Grid.probes`), and all probes at one t are solved together.
    """
    ts = np.asarray(t_grid, dtype=float)
    g = _grid(sys, nodes)
    b_ts, inv_norms, r_lower = [], [], []
    for st in _stacks(sys, ts):
        b_ts.extend(st.sup_norms.tolist())
        inv_norms.extend((1.0 / st.svd[1][:, -1]).tolist())
        r_lower.extend(_norm_lower(st, i, g) for i in range(len(st.ts)))
    consts = char_constants(sys, ts, b_ts)  # ValidationError for an empty grid
    rows = []
    for t, r, inv_norm in zip(ts.tolist(), r_lower, inv_norms):
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


def _entry(v) -> float:
    """A number, or the numeric string the writer emits; not a bool."""
    if isinstance(v, bool):
        raise ValidationError(f"entry {v!r} is a boolean, not a number")
    return float(v)


def _array(v) -> list:
    """A JSON array; a string, whose characters would read as its entries, is not."""
    if not isinstance(v, list):
        raise ValidationError(f"{v!r} is not a JSON array")
    return v


def _mat_from_json(rows: list[list[str]]) -> np.ndarray:
    return np.array([[_entry(v) for v in _array(row)] for row in _array(rows)])


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
    """The system ``phsystem_to_json`` writes: breaks, pieces, matrices and
    their rows are JSON arrays, entries numbers or numeric strings. An
    "interval" field is optional; if present, it must be the first and the
    last break."""
    try:
        obj = json.loads(text)
        if type(obj["d"]) is not int:
            raise ValidationError(f"d {obj['d']!r} is not an integer")
        fields = dict(
            d=obj["d"],
            P0=_mat_from_json(obj["P0"]),
            P1=_mat_from_json(obj["P1"]),
            breaks=tuple(map(_entry, _array(obj["H"]["breaks"]))),
            pieces=tuple(map(_mat_from_json, _array(obj["H"]["pieces"]))),
            W=_mat_from_json(obj["W"]),
        )
        interval = [*map(_entry, _array(obj["interval"]))] if "interval" in obj else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed system config: {exc}") from exc
    system = PHSystem(**fields)  # its own refusals read as themselves
    if interval not in (None, [system.a, system.b]):
        raise ValidationError(f"malformed system config: interval {obj['interval']!r} is not "
                              f"[{system.a!r}, {system.b!r}], the first and the last break")
    return system

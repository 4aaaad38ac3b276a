"""Cancellation-free LU solves for nonsingular M-matrices.

An M-matrix M is described here by a triplet (N, u, v): N >= 0 holds the
negated off-diagonal part, u > 0, v >= 0, and the diagonal is *implied* by
M u = v, i.e. M_ii = (v_i + sum_j N_ij u_j) / u_i.  Every quantity the
elimination touches is then a sum or product of nonnegative numbers, so no
subtractive cancellation can occur:

- the pivot at step k is (v_k + sum_{j>k} (-U_kj) u_j) / u_k with all
  terms nonnegative (U stays nonpositive off the diagonal);
- the Schur update subtracts products of two nonpositive numbers from
  nonpositive entries, which preserves their sign exactly in floating
  point;
- the running v picks up v_k * (-L_{ik}) >= 0.

As a consequence high relative componentwise accuracy is preserved even
for nearly singular M, and solves with nonnegative right-hand sides return
exactly nonnegative results (every arithmetic step adds nonnegative
terms).  Transposed systems reuse the same factors: M^T = U^T L^T, so the
forward pass runs on U^T and the backward pass on L^T with the identical
sign argument.

None of this depends on the order in which the nonnegative terms are
summed, so the substitutions run through LAPACK triangular solves and the
large dense elimination through BLAS-3 panel updates (``trsm``, ``gemm``);
they change results at rounding level only.  The sign invariants are
checked explicitly and raise :class:`NotMMatrixError` when broken.

For diag(d) - P R^T with skinny P, R >= 0 (the canonical low-rank form of
:mod:`dadda.linalg`) the module provides a Sherman-Morrison-Woodbury path
whose r x r capacitance matrix I - R^T diag(d)^{-1} P is itself
represented by a triplet (derived from M u = v), so the whole O(n r^2)
fast path stays cancellation-free and no low-rank block is ever expanded
to n x n.  A zero capacitance or a capacitance triplet that GTH refuses
proves M singular and raises at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .linalg import _canonical_lowrank, _column_form, matmul, ordered_dot

__all__ = [
    "DiagLowRankSolver",
    "DiagonalSolver",
    "DenseGthSolver",
    "GthFactorization",
    "NotMMatrixError",
    "TripletRepresentation",
    "build_solver",
    "diagonal_from_triplet",
    "gth_factorize",
    "triplet_for_capacitance",
]


class NotMMatrixError(ValueError):
    """Raised when the data cannot describe a nonsingular M-matrix."""


@dataclass(frozen=True, eq=False)
class TripletRepresentation:
    """(N, u, v) with the diagonal of M implied by M u = v."""

    n: int
    N: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.N.shape != (self.n, self.n):
            raise ValueError(f"N must be ({self.n}, {self.n}), got {self.N.shape}")
        if self.u.shape != (self.n,) or self.v.shape != (self.n,):
            raise ValueError("u and v must be vectors of the triplet order")
        if not (np.all(np.isfinite(self.N)) and np.all(np.isfinite(self.u))
                and np.all(np.isfinite(self.v))):
            raise ValueError("triplet data must be finite")
        if np.any(self.N < 0.0):
            raise NotMMatrixError(
                "not a nonsingular M-matrix (negative entry in N)"
            )
        if np.any(np.diagonal(self.N) != 0.0):
            raise ValueError("N must have an exactly zero diagonal")
        if np.any(self.u <= 0.0):
            raise ValueError("u must be strictly positive")
        if np.any(self.v < 0.0):
            raise ValueError("v must be nonnegative")

    @staticmethod
    def from_parts(N, u, v) -> "TripletRepresentation":
        """Validated triplet; float64 arrays are taken over, not copied."""
        N = np.asarray(N, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64).ravel()
        v = np.asarray(v, dtype=np.float64).ravel()
        return TripletRepresentation(n=u.shape[0], N=N, u=u, v=v)

    def matrix(self) -> np.ndarray:
        """Dense M with the implied diagonal."""
        out = -self.N
        np.fill_diagonal(out, diagonal_from_triplet(self))
        return out


def diagonal_from_triplet(t: TripletRepresentation) -> np.ndarray:
    """Implied diagonal (v + N u) / u; errors if any entry is <= 0."""
    nu = matmul(t.N, t.u[:, None])[:, 0]
    diag = (t.v + nu) / t.u
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise NotMMatrixError(
            "not a nonsingular M-matrix (implied diagonal not positive)"
        )
    return diag


@dataclass(frozen=True, eq=False)
class GthFactorization:
    """Unit-lower L and upper U with M = L U, elimination cancellation-free.

    Sign pattern: L is unit lower triangular with off-diagonal entries
    <= 0; U has positive diagonal and off-diagonal entries <= 0.
    """

    n: int
    L: np.ndarray
    U: np.ndarray

    def solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve M x = b (or M.T x = b) by two LAPACK triangular solves.

        L then U for M, U^T then L^T for M^T.  Every off-diagonal factor
        entry is <= 0, so for b >= 0 each update b_i - F_ij x_j adds the
        nonnegative term (-F_ij) x_j, and each division is by a positive
        pivot: x >= 0 exactly, whatever order LAPACK sums in.
        """
        b, squeeze = _column_form(b, self.n)
        if not transpose:
            y = _trsolve(self.L, b, lower=True, unit=True)
            x = _trsolve(self.U, y, lower=False, overwrite=True)
        else:
            y = _trsolve(self.U, b, lower=False, transpose=True)
            x = _trsolve(self.L, y, lower=True, transpose=True, unit=True, overwrite=True)
        return x[:, 0] if squeeze else x


def _trsolve(T, b, lower, transpose=False, unit=False, overwrite=False):
    """LAPACK ``trtrs`` (``trsm`` behind a zero-pivot check) on T x = b.

    Solves T^T x = b with ``transpose``.  LAPACK reads T as the Fortran
    array T^T with the triangle and the transposition flipped, which costs
    no copy when T is C-contiguous.  Calling the routine directly keeps
    small systems at a few microseconds per solve.
    """
    x, info = dtrtrs(
        T.T, b, lower=not lower, trans=not transpose, unitdiag=unit,
        overwrite_b=overwrite,
    )
    if info != 0:
        raise NotMMatrixError(f"triangular solve failed (LAPACK info {info})")
    return x


def _check_sign(ok, what: str) -> None:
    """Raise unless a sign invariant of the elimination holds.

    The invariants follow from N >= 0, which the triplet validated when it
    was built; a failure means the data changed since or was never an
    M-matrix.  Explicit, so that they hold under ``python -O`` too.
    """
    if not ok:
        raise NotMMatrixError(f"not a nonsingular M-matrix ({what} has the wrong sign)")


def gth_factorize(
    t: TripletRepresentation,
    lower_bandwidth: int | None = None,
    upper_bandwidth: int | None = None,
) -> GthFactorization:
    """GTH-like LU of the M-matrix behind ``t``, pivot-free.

    Optional bandwidths restrict the elimination windows; for a banded M
    the factors keep the band, so this drops the cost to
    O(lower * upper * n).  Raises :class:`NotMMatrixError` on a
    non-positive pivot or a broken sign invariant.
    """
    n = t.n
    if lower_bandwidth is None and upper_bandwidth is None and n >= 192:
        # BLAS-3 panels; same sign guarantees, differs from the sequential
        # loop below by rounding only (see its docstring)
        return _factorize_dense_blocked(t)
    U = -t.N
    L = np.eye(n)
    u = t.u
    v = t.v.copy()
    lw = n - 1 if lower_bandwidth is None else int(lower_bandwidth)
    uw = n - 1 if upper_bandwidth is None else int(upper_bandwidth)
    if lw < 0 or uw < 0:
        raise ValueError("bandwidths must be nonnegative")
    for k in range(n):
        hi = min(n, k + 1 + uw)
        lo = min(n, k + 1 + lw)
        row = U[k, k + 1 : hi]
        pivot = (v[k] + ordered_dot(-row, u[k + 1 : hi])) / u[k]
        if not (pivot > 0.0 and np.isfinite(pivot)):
            raise NotMMatrixError(
                f"not a nonsingular M-matrix (pivot {k} non-positive)"
            )
        U[k, k] = pivot
        col = U[k + 1 : lo, k] / pivot
        _check_sign(np.all(col <= 0.0), f"L column {k}")
        L[k + 1 : lo, k] = col
        U[k + 1 : lo, k] = 0.0
        if row.size and col.size:
            sub = U[k + 1 : lo, k + 1 : hi]
            sub -= col[:, None] * row[None, :]
            _check_sign(np.all(sub <= 0.0), "trailing block")
            # the trailing diagonal stays implied by the running (u, v)
            np.fill_diagonal(sub, 0.0)
        v[k + 1 : lo] = v[k + 1 : lo] + v[k] * (-col)
        _check_sign(np.all(v[k + 1 : lo] >= 0.0), "running v")
    return GthFactorization(n=n, L=L, U=U)


_PANEL = 128
# rows of the trailing block per gemm, so the product never needs an
# order^2 temporary
_SLAB = 256


def _factorize_dense_blocked(t: TripletRepresentation) -> GthFactorization:
    """Dense GTH elimination in panels of _PANEL pivots, through BLAS-3.

    Only the panel's diagonal block is eliminated pivot by pivot.  Pivot k
    still comes from the triplet formula; the part of row k beyond the
    panel enters it as the carried row mass s_k = (-U[k, pe:]) u[pe:],
    which eliminating an earlier panel pivot j updates by
    s_k += (-L_kj) s_j rather than by rewriting the row.  At panel end

        L21 = A21 U11^{-1},  U12 = L11^{-1} A12      (two trsm)
        v[pe:] += (-L21) v[panel],  A22 -= L21 U12   (gemv, gemm)

    U11^{-1} and L11^{-1} are entrywise nonnegative (triangular M-matrices)
    and A21, A12 <= 0, so each trsm sums nonpositive terms only; the gemm
    subtracts a nonnegative product from a nonpositive block.  Every
    addition thus combines terms of one sign, in whatever order BLAS
    chooses: the elimination stays cancellation-free, the sign guarantees
    hold exactly, and the factors differ from the sequential loop in
    :func:`gth_factorize` (forced by explicit bandwidths) by rounding only.
    Diagonal entries of the unreduced part are implied by (u, v), so they
    are never read, only overwritten by their pivots.
    """
    n = t.n
    U = -t.N
    L = np.eye(n)
    u = t.u
    v = t.v.copy()
    for p0 in range(0, n, _PANEL):
        pe = min(n, p0 + _PANEL)
        s = -(U[p0:pe, pe:] @ u[pe:])
        _check_sign(np.all(s >= 0.0), "carried row mass")
        D = U[p0:pe, p0:pe]
        for k in range(pe - p0):
            g = p0 + k
            row = D[k, k + 1 :]
            pivot = (v[g] + s[k] - row @ u[g + 1 : pe]) / u[g]
            if not (pivot > 0.0 and np.isfinite(pivot)):
                raise NotMMatrixError(
                    f"not a nonsingular M-matrix (pivot {g} non-positive)"
                )
            D[k, k] = pivot
            col = D[k + 1 :, k] / pivot
            L[g + 1 : pe, g] = col
            D[k + 1 :, k] = 0.0
            D[k + 1 :, k + 1 :] -= col[:, None] * row
            s[k + 1 :] -= col * s[k]
            v[g + 1 : pe] -= col * v[g]
        _check_sign(np.all(np.tril(L[p0:pe, p0:pe], -1) <= 0.0), "L11")
        _check_sign(np.all(np.triu(D, 1) <= 0.0), "U11")
        _check_sign(np.all(v[p0:pe] >= 0.0), "running v")
        if pe == n:
            break
        L21 = _trsolve(D, U[pe:, p0:pe].T, lower=False, transpose=True).T
        _check_sign(np.all(L21 <= 0.0), "L21")
        U12 = _trsolve(L[p0:pe, p0:pe], U[p0:pe, pe:], lower=True, unit=True)
        _check_sign(np.all(U12 <= 0.0), "U12")
        L[pe:, p0:pe] = L21
        U[pe:, p0:pe] = 0.0
        U[p0:pe, pe:] = U12
        v[pe:] -= L21 @ v[p0:pe]
        _check_sign(np.all(v[pe:] >= 0.0), "running v")
        for r0 in range(0, n - pe, _SLAB):
            slab = U[pe + r0 : pe + r0 + _SLAB, pe:]
            slab -= L21[r0 : r0 + _SLAB] @ U12
            _check_sign(np.all(slab <= 0.0), "trailing block")
    return GthFactorization(n=n, L=L, U=U)


def triplet_for_capacitance(d, P, R, u, v) -> TripletRepresentation:
    """Triplet of the r x r capacitance C = I - R^T diag(d)^{-1} P.

    From (diag(d) - P R^T) u = v one gets C (R^T u) = R^T diag(d)^{-1} v,
    so (offdiag(R^T diag(d)^{-1} P), R^T u, R^T diag(d)^{-1} v) represents
    C without ever subtracting.  Requires R^T u > 0 strictly.
    """
    d = np.asarray(d, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(d <= 0.0):
        raise NotMMatrixError("diagonal part must be strictly positive")
    if np.any(P < 0.0) or np.any(R < 0.0):
        raise ValueError("capacitance triplet requires nonnegative factors")
    N = matmul(R.T, P / d[:, None])
    np.fill_diagonal(N, 0.0)
    cap_u = matmul(R.T, u[:, None])[:, 0]
    if np.any(cap_u <= 0.0):
        raise NotMMatrixError("R^T u must be strictly positive")
    cap_v = matmul(R.T, (v / d)[:, None])[:, 0]
    return TripletRepresentation.from_parts(N, cap_u, cap_v)


class DiagonalSolver:
    """Solve with a positive diagonal matrix."""

    def __init__(self, d: np.ndarray):
        d = np.asarray(d, dtype=np.float64)
        if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
            raise NotMMatrixError(
                "not a nonsingular M-matrix (diagonal not positive)"
            )
        self.d = d
        self.n = d.shape[0]

    def solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        b, squeeze = _column_form(b, self.n)
        x = b / self.d[:, None]
        return x[:, 0] if squeeze else x


class DenseGthSolver:
    """GTH LU on an explicit triplet, with optional band windows."""

    def __init__(
        self,
        triplet: TripletRepresentation,
        lower_bandwidth: int | None = None,
        upper_bandwidth: int | None = None,
    ):
        self.n = triplet.n
        self.factorization = gth_factorize(
            triplet, lower_bandwidth=lower_bandwidth, upper_bandwidth=upper_bandwidth
        )

    def solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        return self.factorization.solve(b, transpose=transpose)


def _dense_gth(N, u, v, lower_bandwidth=None, upper_bandwidth=None) -> DenseGthSolver:
    """:class:`DenseGthSolver` on (N, u, v); N's diagonal is overwritten with 0."""
    np.fill_diagonal(N, 0.0)
    if np.any(N < 0.0):
        raise NotMMatrixError(
            "not a nonsingular M-matrix (positive off-diagonal entry)"
        )
    return DenseGthSolver(
        TripletRepresentation.from_parts(N, u, v), lower_bandwidth, upper_bandwidth
    )


class DiagLowRankSolver:
    """Solve (diag(d) - P R^T) x = b through the SMW identity.

    P and R are put in the canonical low-rank form of :mod:`dadda.linalg`
    (mixed signs raise ``ValueError``), so the mode depends on the rank r
    alone: diag(d) for r = 0, a scalar capacitance for r = 1, and a GTH
    factorization of the capacitance triplet for r > 1.  Both reuse the
    (u, v) triplet, so the path is cancellation-free and costs O(n r^2)
    per solve, with no n x n step.  A singular M shows on the small
    system, which raises :class:`NotMMatrixError` at once: a zero rank-one
    capacitance (a sum of nonnegative terms, e.g. v = 0 in the critical
    case) or a capacitance triplet that GTH refuses.
    """

    def __init__(self, d, P, R, u, v):
        d = np.asarray(d, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if np.any(d <= 0.0):
            raise NotMMatrixError(
                "not a nonsingular M-matrix (diagonal part not positive)"
            )
        P, R, sign = _canonical_lowrank(
            np.asarray(P, dtype=np.float64), np.asarray(R, dtype=np.float64), -1
        )
        if sign == 1:
            raise ValueError("P R^T <= 0 has no SMW form; use build_solver")
        self.n = d.shape[0]
        self.d = d
        self.P = P
        self.R = R
        self.r = P.shape[1]
        if self.r == 0:
            self._mode = "diag"
        elif self.r == 1:
            a = P[:, 0]
            bb = R[:, 0]
            # capacitance 1 - bb^T diag(d)^{-1} a equals (bb^T diag(d)^{-1} v)
            # / (bb^T u); the same scalar serves the transposed solve because
            # bb^T diag(d)^{-1} a = a^T diag(d)^{-1} bb.
            num = ordered_dot(bb, u)
            den = ordered_dot(bb, v / d)
            if not (den > 0.0 and np.isfinite(num / den)):
                raise NotMMatrixError(
                    "not a nonsingular M-matrix (rank-one capacitance is zero)"
                )
            self._mode = "rank1"
            self._factor = num / den
            self._dinv_a = a / d
            self._dinv_b = bb / d
        else:
            self._cap = gth_factorize(triplet_for_capacitance(d, P, R, u, v))
            self._mode = "capacitance"
            self._dinv_P = P / d[:, None]
            self._dinv_R = R / d[:, None]

    def solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        b, squeeze = _column_form(b, self.n)
        dinv_b = b / self.d[:, None]
        if self._mode == "diag":
            x = dinv_b
        elif self._mode == "rank1":
            if not transpose:
                w = matmul(self.R.T, dinv_b)
                x = dinv_b + self._factor * self._dinv_a[:, None] * w
            else:
                w = matmul(self.P.T, dinv_b)
                x = dinv_b + self._factor * self._dinv_b[:, None] * w
        else:
            if not transpose:
                z = matmul(self.R.T, dinv_b)
                y = self._cap.solve(z)
                x = dinv_b + matmul(self._dinv_P, y)
            else:
                z = matmul(self.P.T, dinv_b)
                y = self._cap.solve(z, transpose=True)
                x = dinv_b + matmul(self._dinv_R, y)
        return x[:, 0] if squeeze else x


def build_solver(matrix, u, v):
    """Pick the cheapest cancellation-free solver for a structured M-matrix.

    ``matrix`` is a :class:`~dadda.linalg.StructuredSquare`; (u, v) is a
    triplet pair for it (M u = v, u > 0, v >= 0).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if matrix.kind == "banded":
        if matrix.lower == 0 and matrix.upper == 0:
            return DiagonalSolver(matrix.bands[0])
        return _dense_gth(-matrix.to_dense(), u, v, matrix.lower, matrix.upper)
    if matrix.kind == "diag_plus_lowrank":
        if not matrix.offdiag_nonpositive():
            raise NotMMatrixError(
                "not a nonsingular M-matrix (positive low-rank off-diagonal)"
            )
        if matrix.sign == 1:
            # a Z-pattern with sign +1: every pair sits on the diagonal
            return DiagonalSolver(matrix.diagonal())
        return DiagLowRankSolver(matrix.d, matrix.p, matrix.r, u, v)
    return _dense_gth(-matrix.to_dense(), u, v)

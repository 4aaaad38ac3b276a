"""Cancellation-free LU solves for nonsingular M-matrices.

An M-matrix M is described here by a triplet (N, u, v): N >= 0 holds the
negated off-diagonal part, u > 0, v >= 0, and the diagonal is *implied* by
M u = v, i.e. M_ii = (v_i + sum_j N_ij u_j) / u_i.  Every quantity the
elimination touches is then a sum or product of nonnegative numbers, so no
subtractive cancellation can occur:

- the pivot at step k is (v_k + sum_{j>k} (-U_kj) u_j) / u_k with all
  terms nonnegative (U stays nonpositive off the diagonal);
- every entry of U and L is an original nonpositive entry minus a sum of
  products of two nonpositive factors, which preserves its sign exactly
  in floating point, whether the products are subtracted one pivot at a
  time (the textbook Schur update) or summed first (the left-looking
  form of :func:`gth_factorize`);
- the running v_k is v_k plus the nonnegative terms v_j * (-L_kj), j < k.

As a consequence high relative componentwise accuracy is preserved even
for nearly singular M, and solves with nonnegative right-hand sides return
exactly nonnegative results (every arithmetic step adds nonnegative
terms).  Transposed systems reuse the same factors: M^T = U^T L^T, so the
forward pass runs on U^T and the backward pass on L^T with the identical
sign argument.

None of this depends on the order in which the nonnegative terms are
summed (Alfa, Xue and Ye, Math. Comp. 2002), so the substitutions run as
LAPACK triangular solves, a dense elimination as a BLAS-3 panel code
(``trsm``, ``gemm``) whose pivots are eliminated left-looking, two
matrix-vector products each, and the products of the
Sherman-Morrison-Woodbury path below as BLAS products, changing results
at rounding level only.  The sign invariants are explicit checks raising
NotMMatrixError.

There is one elimination entry per storage: :func:`gth_factorize` for a
dense :class:`TripletRepresentation`, and :class:`DenseGthSolver` on a
:class:`BandTriplet` for a band.  GTH without pivoting keeps the band of a
banded M: L has M's lower and U its upper bandwidth.  A banded triplet is
therefore eliminated in band storage, pivot by pivot with each update
clipped to the lw x uw window behind the pivot, in O(n lw uw) work and
O(n (lw + uw)) memory, and solved by LAPACK ``tbtrs``.  That routine adds
the same nonnegative terms (-F_ij) x_j as the dense ``trtrs``, only
skipping the zeros outside the band, so x >= 0 exactly for b >= 0 on this
path too.  The elimination runs in Python floats, with no numpy call per
pivot, and O(lw uw) Python operations per pivot.

For diag(d) - P R^T with skinny P, R >= 0 (the canonical low-rank form of
:mod:`dadda.linalg`) the module provides a Sherman-Morrison-Woodbury path
whose r x r capacitance matrix I - R^T diag(d)^{-1} P is itself
represented by a triplet (derived from M u = v), so the whole O(n r^2)
fast path stays cancellation-free and no low-rank block is ever expanded
to n x n.  A zero capacitance or a capacitance triplet that GTH refuses
proves M singular and raises at once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs, dtrtrs

from .linalg import (
    _band_apply,
    _canonical_lowrank,
    _column_form,
    _negated_offdiag,
    _openblas_function,
    matmul,
)

__all__ = [
    "BandGthFactorization",
    "BandTriplet",
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
        if np.any(np.diagonal(self.N) != 0.0):
            raise ValueError("N must have an exactly zero diagonal")
        _check_triplet_data([self.N], self.u, self.v)

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


def _check_triplet_data(n_parts, u, v) -> None:
    """The checks every triplet takes: finite data, N >= 0, u > 0, v >= 0.

    ``n_parts`` holds N, whole or as its bands.
    """
    if not all(np.all(np.isfinite(x)) for x in [*n_parts, u, v]):
        raise ValueError("triplet data must be finite")
    if any(np.any(x < 0.0) for x in n_parts):
        raise NotMMatrixError("not a nonsingular M-matrix (negative entry in N)")
    if np.any(u <= 0.0):
        raise ValueError("u must be strictly positive")
    if np.any(v < 0.0):
        raise ValueError("v must be nonnegative")


def _implied_diagonal(nu, u, v) -> np.ndarray:
    """(v + N u) / u from N u; errors if any entry is <= 0."""
    diag = (v + nu) / u
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise NotMMatrixError(
            "not a nonsingular M-matrix (implied diagonal not positive)"
        )
    return diag


def diagonal_from_triplet(t: TripletRepresentation) -> np.ndarray:
    """Implied diagonal (v + N u) / u; errors if any entry is <= 0.

    N u is the ascending :func:`~dadda.linalg.matmul`, so the dense
    reference :meth:`TripletRepresentation.matrix` is bitwise reproducible.
    """
    return _implied_diagonal(matmul(t.N, t.u[:, None])[:, 0], t.u, t.v)


@dataclass(frozen=True, eq=False)
class BandTriplet:
    """(N, u, v) of a banded M-matrix, N held as its bands.

    ``bands`` maps each stored offset o in [-lower, upper], o != 0, to the
    entries N_{i,i+o}; absent offsets are zero.  The checks are those of
    :class:`TripletRepresentation`, plus a positive implied diagonal
    (v + N u) / u, which the band product gives in O(n (lower + upper)).
    """

    n: int
    lower: int
    upper: int
    bands: dict[int, np.ndarray]
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.lower < 0 or self.upper < 0:
            raise ValueError("bandwidths must be nonnegative")
        if self.u.shape != (self.n,) or self.v.shape != (self.n,):
            raise ValueError("u and v must be vectors of the triplet order")
        for off, vals in self.bands.items():
            if off == 0 or not -self.lower <= off <= self.upper:
                raise ValueError(f"band offset {off} outside the off-diagonal band")
            if vals.shape != (self.n - abs(off),):
                raise ValueError(f"band {off} must have length {self.n - abs(off)}")
        _check_triplet_data(list(self.bands.values()), self.u, self.v)
        nu = _band_apply(self.bands, self.u[:, None], transpose=False)[:, 0]
        _implied_diagonal(nu, self.u, self.v)

    @staticmethod
    def from_parts(n, lower, upper, bands, u, v) -> "BandTriplet":
        """Validated band triplet of float64 arrays."""
        bands = {int(off): np.asarray(x, dtype=np.float64) for off, x in bands.items()}
        u = np.asarray(u, dtype=np.float64).ravel()
        v = np.asarray(v, dtype=np.float64).ravel()
        return BandTriplet(int(n), int(lower), int(upper), bands, u, v)


@dataclass(frozen=True, eq=False)
class GthFactorization:
    """Unit-lower L and upper U with M = L U, elimination cancellation-free.

    Sign pattern: L is unit lower triangular with off-diagonal entries
    <= 0; U has positive diagonal and off-diagonal entries <= 0.  Both
    live in the one n x n array ``LU``, U on and above the diagonal and
    L's strictly lower part below it (LAPACK's ``getrf`` layout), so a
    held factorization costs one array.
    """

    n: int
    LU: np.ndarray

    @property
    def L(self) -> np.ndarray:
        return np.tril(self.LU, -1) + np.eye(self.n)

    @property
    def U(self) -> np.ndarray:
        return np.triu(self.LU)

    def solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve M x = b (or M.T x = b) by two LAPACK triangular solves.

        L then U for M, U^T then L^T for M^T, each reading its triangle of
        ``LU``.  Every off-diagonal factor entry is <= 0, so for b >= 0
        each update b_i - F_ij x_j adds the nonnegative term (-F_ij) x_j,
        and each division is by a positive pivot: x >= 0 exactly, whatever
        order LAPACK sums in.
        """
        b, squeeze = _column_form(b, self.n)
        x = self._column_solve(transpose)(b)
        return x[:, 0] if squeeze else x

    def _column_solve(self, transpose: bool):
        """The solve b -> x of :meth:`solve` on (n, cols) float arrays; b is not written."""
        LU = self.LU
        if not transpose:
            return lambda b: _trsolve(
                LU, _trsolve(LU, b, lower=True, unit=True), lower=False, overwrite=True
            )
        return lambda b: _trsolve(
            LU, _trsolve(LU, b, lower=False, transpose=True),
            lower=True, transpose=True, unit=True, overwrite=True,
        )


class _OneLapackThread:
    """While any thread is inside, scipy's BLAS runs on one thread.

    scipy's wheel bundles an OpenBLAS of its own beside numpy's, with its
    own thread pool, and threads even the small triangular solves here;
    its workers then spin for a while after each call, taking the CPUs
    from numpy's products and the Python in between.  The first thread in
    sets scipy's thread count to 1 where it is more, and the last one out
    puts it back, so concurrent callers never wait on each other.  Where
    scipy's OpenBLAS is not found, nothing is changed.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inside = 0
        self._saved = 1

    def __enter__(self):
        with self._lock:
            if self._inside == 0:
                get = _openblas_function("scipy", "get_num_threads")
                self._saved = get() if get is not None else 1
                if self._saved != 1:
                    _openblas_function("scipy", "set_num_threads")(1)
            self._inside += 1

    def __exit__(self, *exc):
        with self._lock:
            self._inside -= 1
            if self._inside == 0 and self._saved != 1:
                _openblas_function("scipy", "set_num_threads")(self._saved)


_one_lapack_thread = _OneLapackThread()


def _trsolve(T, b, lower, transpose=False, unit=False, overwrite=False):
    """LAPACK ``trtrs`` (``trsm`` behind a zero-pivot check) on T x = b.

    Solves T^T x = b with ``transpose``.  LAPACK reads T as the Fortran
    array T^T with the triangle and the transposition flipped, which costs
    no copy when T is C-contiguous.  Calling the routine directly keeps
    small systems at a few microseconds per solve.
    """
    with _one_lapack_thread:
        x, info = dtrtrs(
            T.T, b, lower=not lower, trans=not transpose, unitdiag=unit,
            overwrite_b=overwrite,
        )
    if info != 0:
        raise NotMMatrixError(f"triangular solve failed (LAPACK info {info})")
    return x


@dataclass(frozen=True, eq=False)
class BandGthFactorization:
    """GTH factors M = L U of a banded M-matrix, in band storage.

    ``L[k, i]`` is L_{k+i,k} (column k of the unit-lower L, its 1 first)
    and ``U[k, j]`` is U_{k,k+j} (row k of U, its pivot first); entries
    past the last row or column are zero.  The signs are those of
    :class:`GthFactorization`.
    """

    n: int
    L: np.ndarray
    U: np.ndarray

    def solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve M x = b (or M.T x = b) by two LAPACK ``tbtrs`` solves.

        L then U for M, U^T then L^T for M^T, with the sign argument of
        :meth:`GthFactorization.solve`: x >= 0 exactly for b >= 0.
        """
        b, squeeze = _column_form(b, self.n)
        x = self._column_solve(transpose)(b)
        return x[:, 0] if squeeze else x

    def _column_solve(self, transpose: bool):
        """The solve b -> x of :meth:`solve` on (n, cols) float arrays; b is not written."""
        L, U = self.L, self.U
        if not transpose:
            return lambda b: _tbsolve(
                U, _tbsolve(L, b, transpose=False, unit=True), transpose=True, overwrite=True
            )
        return lambda b: _tbsolve(
            L, _tbsolve(U, b, transpose=False), transpose=True, unit=True, overwrite=True
        )


def _tbsolve(F, b, transpose, unit=False, overwrite=False):
    """LAPACK ``tbtrs`` on T x = b (T^T x = b with ``transpose``).

    ``F`` is a band factor of :class:`BandGthFactorization`, whose row k
    runs down column k of the lower band of T: T = L, or T = U^T (so the
    U solves flip ``transpose``).  F^T is then LAPACK's lower band
    storage, a Fortran array that costs no copy.
    """
    with _one_lapack_thread:
        x, info = dtbtrs(
            F.T, b, uplo="L", trans="T" if transpose else "N", diag="U" if unit else "N",
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


_PANEL = 128
# rows of the trailing block per gemm, so the product never needs an
# order^2 temporary
_SLAB = 256


def gth_factorize(t: TripletRepresentation) -> GthFactorization:
    """GTH-like LU of the dense triplet ``t``, pivot-free, in BLAS-3 panels.

    The dense elimination entry; a :class:`BandTriplet` is eliminated by
    :func:`_factorize_band` instead.  Raises :class:`NotMMatrixError` on a
    non-positive pivot or a broken sign invariant.

    Pivots come in panels of _PANEL, and only the panel's diagonal block is
    eliminated pivot by pivot.  Pivot k still comes from the triplet
    formula; the part of row k beyond the panel enters it as the carried
    row mass s_k = (-U[k, pe:]) u[pe:], which an earlier panel pivot j
    updates by s_k += (-L_kj) s_j rather than by rewriting the row.

    The panel is eliminated left-looking (Crout) on one array
    P = [D | -s | -v[panel]], the diagonal block followed by two carried
    columns.  At pivot k, with P's rows above k already rows of U and
    its columns left of k already columns of L,

        P[k, k+1:] -= P[k, :k] @ P[:k, k+1:]          (row k of U)
        pivot = -(P[k, k+1:] @ [u, 1, 1][k+1:]) / u_k
        P[k+1:, k] = (P[k+1:, k] - P[k+1:, :k] @ P[:k, k]) / pivot

    where row k's update brings its carried columns to -s_k and -v_k, the
    values pivot k needs, so the pivot sums the nonnegative terms
    (-U_kj) u_j, s_k and v_k.  Each entry of U and L is its original
    nonpositive entry minus one sum of products of two nonpositive
    factors (a row of L times a column of U), so it keeps its sign
    exactly, in whatever order BLAS sums; a pivot costs two
    matrix-vector products and a dot product, with no order^2 temporary.
    At panel end

        L21 = A21 U11^{-1},  U12 = L11^{-1} A12      (two trsm)
        v[pe:] += (-L21) v[panel],  A22 -= L21 U12   (gemv, gemm)

    U11^{-1} and L11^{-1} are entrywise nonnegative (triangular M-matrices)
    and A21, A12 <= 0, so each trsm sums nonpositive terms only; the gemm
    subtracts a nonnegative product from a nonpositive block.  Every
    addition thus combines terms of one sign, in whatever order BLAS
    chooses: the elimination stays cancellation-free and the sign
    guarantees hold exactly.  Diagonal entries of the unreduced part are
    implied by (u, v), so they are never read, only overwritten by their
    pivots.  L's columns overwrite the eliminated entries below the
    diagonal, so both factors take the one array F.  The panel's sign
    checks read P, so the U11 check covers both carried columns.
    """
    n = t.n
    F = -t.N
    u = t.u
    v = t.v.copy()
    for p0 in range(0, n, _PANEL):
        pe = min(n, p0 + _PANEL)
        b = pe - p0
        P = np.empty((b, b + 2))
        P[:, :b] = F[p0:pe, p0:pe]
        P[:, b] = F[p0:pe, pe:] @ u[pe:]
        P[:, b + 1] = -v[p0:pe]
        _check_sign(np.all(P[:, b] <= 0.0), "carried row mass")
        weights = np.concatenate([u[p0:pe], [1.0, 1.0]])
        for k in range(b):
            row = P[k, k + 1 :]
            row -= P[k, :k] @ P[:k, k + 1 :]
            pivot = -float(row @ weights[k + 1 :]) / weights[k]
            if not 0.0 < pivot < np.inf:
                raise NotMMatrixError(
                    f"not a nonsingular M-matrix (pivot {p0 + k} non-positive)"
                )
            P[k, k] = pivot
            col = P[k + 1 :, k]
            col -= P[k + 1 :, :k] @ P[:k, k]
            col /= pivot
        _check_sign(np.all(np.tril(P, -1) <= 0.0), "L11")
        _check_sign(np.all(np.triu(P, 1) <= 0.0), "U11 or a carried column")
        D = F[p0:pe, p0:pe]
        D[...] = P[:, :b]
        v[p0:pe] = -P[:, b + 1]
        if pe == n:
            break
        L21 = _trsolve(D, F[pe:, p0:pe].T, lower=False, transpose=True).T
        _check_sign(np.all(L21 <= 0.0), "L21")
        F[pe:, p0:pe] = L21
        v[pe:] -= L21 @ v[p0:pe]
        _check_sign(np.all(v[pe:] >= 0.0), "running v")
        U12 = _trsolve(D, F[p0:pe, pe:], lower=True, unit=True)
        _check_sign(np.all(U12 <= 0.0), "U12")
        F[p0:pe, pe:] = U12
        for r0 in range(pe, n, _SLAB):
            slab = F[r0 : r0 + _SLAB, pe:]
            slab -= L21[r0 - pe : r0 - pe + _SLAB] @ U12
            _check_sign(np.all(slab <= 0.0), "trailing block")
    return GthFactorization(n=n, LU=F)


def _factorize_band(t: BandTriplet) -> BandGthFactorization:
    """GTH elimination of a banded triplet in band storage, O(n lw uw).

    The working array W holds row i of the unreduced matrix at columns
    i - lw ... i + uw in W[i].  Pivot k is the triplet formula over the
    band of row k, (v_k + sum_j (-U_kj) u_j) / u_k; the column below it
    divided by the pivot becomes L's column k, and the Schur update and the
    running-v update touch the lw x uw window behind the pivot only, the
    band fill of GTH without pivoting.  Each step is the textbook one, so
    every addition combines terms of one sign as in the module docstring.
    The window's diagonal entries are implied by (u, v), so they are never
    read, only overwritten by their pivots.  Zeros pad W, u and v past the
    end, so every window keeps its shape: they add zero terms only.  The
    pivots are checked as they come, the signs of L, U and the running v
    once at the end (each v_k there is the value its pivot used).

    The step is scalar: the pivot, L's column and the running v are
    Python floats, read and written through flat memoryviews of W, L, u
    and v, so a pivot costs no numpy call, and the Schur update skips the
    window's diagonal, which at (1, 1) leaves no update at all.  A pivot
    sums its products left to right, so with uw <= 1 the factors are
    bitwise the textbook elimination's.  A pivot costs O(lw uw) Python
    operations, so the loop suits narrow bands: at order 2000 on a 2-core
    host (Python 3.11) it takes about 2 ms at (1, 1), 20 ms at (5, 5),
    60 ms at (10, 10) and 0.22 s at (20, 20).
    """
    n, lw, uw = t.n, t.lower, t.upper
    w = lw + uw + 1
    W = np.zeros((n + lw, w))
    for off, vals in t.bands.items():
        W[max(0, -off) : n - max(0, off), lw + off] = -vals
    u = np.zeros(n + uw)
    u[:n] = t.u
    v = np.zeros(n + lw)
    v[:n] = t.v
    L = np.zeros((n, lw + 1))
    L[:, 0] = 1.0
    Wf, Lf, uf, vf = (memoryview(a.reshape(-1)) for a in (W, L, u, v))
    # offsets from W[k, 0]: U_{k,k+j} at lw + j, and for each row k + i
    # below the pivot, U_{k+i,k} at i w + lw - i and U_{k+i,k+j} at
    # i w + lw + j - i, the diagonal j = i left out
    ahead = tuple((lw + j, j) for j in range(1, uw + 1))
    below = tuple(
        (i, i * w + lw - i,
         tuple((i * w + lw + j - i, lw + j) for j in range(1, uw + 1) if j != i))
        for i in range(1, lw + 1)
    )
    for k in range(n):
        base = k * w
        mass = 0.0
        for c, j in ahead:
            mass += Wf[base + c] * uf[k + j]
        pivot = (vf[k] - mass) / uf[k]
        if not 0.0 < pivot < np.inf:
            raise NotMMatrixError(f"not a nonsingular M-matrix (pivot {k} non-positive)")
        Wf[base + lw] = pivot
        vk = vf[k]
        for i, c, pairs in below:
            lk = Wf[base + c] / pivot
            Lf[k * (lw + 1) + i] = lk
            for dst, src in pairs:
                Wf[base + dst] -= lk * Wf[base + src]
            vf[k + i] -= lk * vk
    _check_sign(np.all(L[:, 1:] <= 0.0), "L")
    _check_sign(np.all(W[:n, lw + 1 :] <= 0.0), "U")
    _check_sign(np.all(v[:n] >= 0.0), "running v")
    return BandGthFactorization(n=n, L=L, U=W[:n, lw:].copy())


def _offdiag_triplet(N, u, v) -> TripletRepresentation:
    """Triplet (offdiag(N), u, v), such as I - N's; zeroes N's diagonal in place.

    The one builder of every triplet the solver factors: shifted blocks,
    capacitance systems and the dADDA and ADDA kernels.  A negative
    off-diagonal entry raises :class:`NotMMatrixError` in the triplet.
    """
    np.fill_diagonal(N, 0.0)
    return TripletRepresentation.from_parts(N, u, v)


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
    N = R.T @ (P / d[:, None])
    cap_u = R.T @ u
    if np.any(cap_u <= 0.0):
        raise NotMMatrixError("R^T u must be strictly positive")
    cap_v = R.T @ (v / d)
    return _offdiag_triplet(N, cap_u, cap_v)


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
        x = self._column_solve(transpose)(b)
        return x[:, 0] if squeeze else x

    def _column_solve(self, transpose: bool):
        """The solve b -> x of :meth:`solve` on (n, cols) float arrays."""
        d = self.d[:, None]
        return lambda b: b / d


class DenseGthSolver:
    """GTH LU solver on a triplet: dense factors, or band factors for a band.

    A :class:`TripletRepresentation` is factored by :func:`gth_factorize`,
    a :class:`BandTriplet` by :func:`_factorize_band`, so a banded block
    never forms an n x n array.  The band solves are ``tbtrs`` calls with
    the sign argument of the dense ``trtrs`` ones.
    """

    def __init__(self, triplet: TripletRepresentation | BandTriplet):
        self.n = triplet.n
        if isinstance(triplet, BandTriplet):
            self.factorization = _factorize_band(triplet)
        else:
            self.factorization = gth_factorize(triplet)

    def solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        return self.factorization.solve(b, transpose=transpose)

    def _column_solve(self, transpose: bool):
        return self.factorization._column_solve(transpose)


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
        self._dinv_P = P / d[:, None]
        self._dinv_R = R / d[:, None]
        if self.r == 0:
            self._mode = "diag"
        elif self.r == 1:
            bb = R[:, 0]
            # with a = P[:, 0], capacitance 1 - bb^T diag(d)^{-1} a equals
            # (bb^T diag(d)^{-1} v) / (bb^T u); the same scalar serves the
            # transposed solve because bb^T diag(d)^{-1} a = a^T diag(d)^{-1} bb.
            num = bb @ u
            den = bb @ (v / d)
            if not (den > 0.0 and np.isfinite(num / den)):
                raise NotMMatrixError(
                    "not a nonsingular M-matrix (rank-one capacitance is zero)"
                )
            self._mode = "rank1"
            self._factor = num / den
        else:
            self._cap = gth_factorize(triplet_for_capacitance(d, P, R, u, v))
            self._mode = "capacitance"

    def solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        """x = d^{-1} b + (d^{-1} P) C^{-1} R^T d^{-1} b, with P and R
        swapped for the transposed solve (C^T is the capacitance of M^T)."""
        b, squeeze = _column_form(b, self.n)
        x = self._column_solve(transpose)(b)
        return x[:, 0] if squeeze else x

    def _column_solve(self, transpose: bool):
        """The solve b -> x of :meth:`solve` on (n, cols) float arrays.

        The operand views, the rank-one image scaled by its capacitance
        factor, and the capacitance solve are set up here, once; the dADDA
        step operator keeps the returned function for all of its blocks.
        """
        d = self.d[:, None]
        if self._mode == "diag":
            return lambda b: b / d
        test, image = (self.P, self._dinv_R) if transpose else (self.R, self._dinv_P)
        test_t = test.T
        if self._mode == "rank1":
            # x + factor * image * w evaluates factor * image first
            scaled = self._factor * image

            def rank1(b):
                x = b / d
                return x + scaled * (test_t @ x)

            return rank1
        cap = self._cap._column_solve(transpose)

        def capacitance(b):
            x = b / d
            return x + image @ cap(test_t @ x)

        return capacitance


def build_solver(matrix, u, v):
    """Pick the cheapest cancellation-free solver for a structured M-matrix.

    ``matrix`` is a :class:`~dadda.linalg.StructuredSquare`; (u, v) is a
    triplet pair for it (M u = v, u > 0, v >= 0).  A banded block of
    bandwidth above 0 gets a :class:`DenseGthSolver` on the
    :class:`BandTriplet` of its negated off-diagonal bands: O(n w) memory
    for the factors, O(n lw uw) work, and no n x n array.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if matrix.kind == "banded":
        if matrix.lower == 0 and matrix.upper == 0:
            return DiagonalSolver(matrix.bands[0])
        return DenseGthSolver(BandTriplet.from_parts(
            matrix.n, matrix.lower, matrix.upper, _negated_offdiag(matrix.bands), u, v
        ))
    if matrix.kind == "diag_plus_lowrank":
        if not matrix.offdiag_nonpositive():
            raise NotMMatrixError(
                "not a nonsingular M-matrix (positive low-rank off-diagonal)"
            )
        if matrix.sign == 1:
            # a Z-pattern with sign +1: every pair sits on the diagonal
            return DiagonalSolver(matrix.diagonal())
        return DiagLowRankSolver(matrix.d, matrix.p, matrix.r, u, v)
    return DenseGthSolver(_offdiag_triplet(-matrix.to_dense(), u, v))

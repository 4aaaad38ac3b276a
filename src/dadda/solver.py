"""Decoupled doubling iteration for minimal MARE solutions.

With shifted coefficients A_beta = beta A + I, D_alpha = alpha D + I the
doubling iterates H_k admit the factored form

    H_k = gamma * Ucheck_k (I - Y_k Z_k)^{-1} Qcheck_k^T,   gamma = alpha + beta,

where the four block families obey one-term linear recursions

    U_j = A_neg (A_beta^{-1} U_{j-1}),   V_j = A_neg^T (A_beta^{-T} V_{j-1}),
    W_j = D_neg (D_alpha^{-1} W_{j-1}),  Q_j = D_neg^T (D_alpha^{-T} Q_{j-1}),

(A_neg = I - alpha A, D_neg = I - beta D, both entrywise nonnegative for
admissible shifts), Ucheck_k stacks U_0..U_{2^k - 1}, and the small
coupling matrices double by

    Y_{k+1} = [[0, Y_k], [Y_k, gamma * Qcheck_k^T Wcheck_k]],
    Z_{k+1} = [[0, Z_k], [Z_k, gamma * Vcheck_k^T Ucheck_k]].

Everything on the right-hand side above is entrywise nonnegative, so the
whole iteration is free of subtractive cancellation; the m x n iterate is
only materialized when a stopping criterion or the caller asks for it.

The kernels I - Y_k Z_k are themselves nonsingular M-matrices.  Their GTH
triplet is assembled additively: with u-side B_r^T u1 tiled 2^k times,

    v1k block i = alpha * Q_0^T v1 + Q_i^T u1
                  + gamma * (sum_{j<i} Q_j)^T (D_alpha^{-1} v1),

(v2k symmetrically with beta, the V blocks, u2 and A_beta^{-1} v2), and
the kernel image is v1k + Y_k v2k.  The image is no running state: it is
derived from the stacked factor blocks on demand, by one ordered product
Qcheck^T [u1, D_alpha^{-1} v1] and an ascending cumulative sum over the
blocks.  Every term is nonnegative and nothing is ever differenced, so
the image stays exactly nonnegative even in the critical case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import oracle
from .gth import TripletRepresentation, _check_sign, build_solver, gth_factorize
from .linalg import frobenius_norm, matmul, max_entrywise_ratio
from .problem import MareProblem, ShiftPair, make_shifts, shifted_parts

__all__ = [
    "DaddaState",
    "IterationRecord",
    "SolveReport",
    "StopCriteria",
    "advance",
    "dual_kernel_triplet",
    "erres",
    "ererr",
    "initialize",
    "kernel_triplet",
    "normalized_residual",
    "rank_of_iterate",
    "relative_change",
    "solve",
    "solve_dense",
]

CRITERIA = ("nres", "rchange", "erres", "ererr")


@dataclass(frozen=True)
class StopCriteria:
    """Stopping rule: criterion kind, tolerance, and iteration caps."""

    criterion: str = "erres"
    tolerance: float = 1e-14
    max_iterations: int = 30
    kernel_row_cap: int = 4096

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must lie in (0, 1)")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.kernel_row_cap < 1:
            raise ValueError("kernel_row_cap must be positive")


@dataclass
class IterationRecord:
    k: int
    value: float
    kernel_order: int | None
    seconds: float


@dataclass
class SolveReport:
    termination: str
    iterations: int
    criterion: str
    tolerance: float
    alpha: float
    beta: float
    records: list[IterationRecord]
    H: np.ndarray
    erres_final: float
    frob_h: float
    rank_h: int
    seconds: float
    G: np.ndarray | None = None


@dataclass(eq=False)
class DaddaState:
    """Mutable iteration state; index k counts doubling steps taken."""

    prob: MareProblem
    shifts: ShiftPair
    solver_a: object
    solver_d: object
    a_neg: object
    d_neg: object
    k: int
    u_blocks: list[np.ndarray]
    v_blocks: list[np.ndarray]
    w_blocks: list[np.ndarray]
    q_blocks: list[np.ndarray]
    Y: np.ndarray
    Z: np.ndarray
    dinv_v1: np.ndarray
    ainv_v2: np.ndarray
    bru1: np.ndarray
    cru2: np.ndarray
    X: np.ndarray | None = None
    _H: np.ndarray | None = field(default=None, repr=False)

    @property
    def kernel_order(self) -> int:
        return (2**self.k) * self.prob.p

    @property
    def Ucheck(self) -> np.ndarray:
        return np.concatenate(self.u_blocks, axis=1)

    @property
    def Vcheck(self) -> np.ndarray:
        return np.concatenate(self.v_blocks, axis=1)

    @property
    def Wcheck(self) -> np.ndarray:
        return np.concatenate(self.w_blocks, axis=1)

    @property
    def Qcheck(self) -> np.ndarray:
        return np.concatenate(self.q_blocks, axis=1)

    @property
    def H(self) -> np.ndarray:
        """Dense current iterate, materialized lazily."""
        if self._H is None:
            H = self.shifts.gamma * _gram(self.Ucheck, self.X)
            _check_sign(np.all(H >= 0.0), "iterate H")
            self._H = H
        return self._H

    @property
    def v1k(self) -> np.ndarray:
        """Kernel image from the Q blocks (see the module docstring)."""
        return _kernel_image(
            self.q_blocks, self.prob.u1, self.dinv_v1, self.prob.v1,
            self.shifts.alpha, self.shifts.gamma,
        )

    @property
    def v2k(self) -> np.ndarray:
        """Kernel image from the V blocks, the mirror of :attr:`v1k`."""
        return _kernel_image(
            self.v_blocks, self.prob.u2, self.ainv_v2, self.prob.v2,
            self.shifts.beta, self.shifts.gamma,
        )

    # the iterate interface of _stopping_loop, which _DenseAdda shares

    def step(self) -> None:
        advance(self)

    def rank(self) -> int:
        return rank_of_iterate(self)


_GRAM_DOT_MIN = 192


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two nonnegative kernel-order matrices.

    All three dimensions double with k, so this is the solve's only cubic
    cost.  Once they are large the platform product takes over: with every
    operand entry nonnegative, any summation order adds nonnegative terms,
    so the result stays exactly nonnegative and cancellation-free; it can
    differ from the fixed-order product by rounding only.
    """
    _check_sign(np.all(a >= 0.0) and np.all(b >= 0.0), "kernel-order factor")
    if min(a.shape[0], b.shape[1]) >= _GRAM_DOT_MIN:
        return np.dot(a, b)
    return matmul(a, b)


def _kernel_image(blocks, u, inv_v, v, shift, gamma) -> np.ndarray:
    """Block i: shift * B_0^T v + B_i^T u + gamma * (sum_{j<i} B_j)^T inv_v.

    One ordered product gives every B_i^T u and B_i^T inv_v; the prefix
    sums accumulate the latter in ascending block order (block 0 adds
    gamma * 0.0), so each entry is a sum of nonnegative terms.
    """
    width = blocks[0].shape[1]
    cols = matmul(np.concatenate(blocks, axis=1).T, np.column_stack([u, inv_v]))
    prefix = np.zeros((len(blocks), width))
    np.cumsum(cols[:-width, 1].reshape(-1, width), axis=0, out=prefix[1:])
    head = shift * matmul(blocks[0].T, v[:, None])[:, 0]
    image = np.tile(head, len(blocks)) + cols[:, 0] + gamma * prefix.ravel()
    _check_sign(np.all(image >= 0.0), "kernel image")
    return image


def _refresh_kernel(state: DaddaState) -> None:
    # drop the previous order's solution before the new factors
    state.X = state._H = None
    state.X = gth_factorize(kernel_triplet(state)).solve(state.Qcheck.T)
    _check_sign(np.all(state.X >= 0.0), "kernel solution X")


def _kernel_from(y, z, u_side, image_y, image_z, k) -> TripletRepresentation:
    """Triplet (offdiag(y z), u_side tiled 2^k times, image_y + y image_z) of I - y z."""
    N = _gram(y, z)
    np.fill_diagonal(N, 0.0)
    u = np.tile(u_side, 2**k)
    v = image_y + matmul(y, image_z[:, None])[:, 0]
    return TripletRepresentation.from_parts(N, u, v)


def kernel_triplet(state: DaddaState) -> TripletRepresentation:
    """Triplet of I - Y_k Z_k (assembled additively, never by subtraction)."""
    return _kernel_from(state.Y, state.Z, state.bru1, state.v1k, state.v2k, state.k)


def dual_kernel_triplet(state: DaddaState) -> TripletRepresentation:
    """Triplet of I - Z_k Y_k, for the dual iterate G_k."""
    if np.any(state.cru2 <= 0.0):
        raise ValueError("dual kernel requires Cr^T u2 > 0 strictly")
    return _kernel_from(state.Z, state.Y, state.cru2, state.v2k, state.v1k, state.k)


def initialize(prob: MareProblem, shifts: ShiftPair | None = None) -> DaddaState:
    """Build the k = 0 state (one block per family, kernel factorized)."""
    if shifts is None:
        shifts = make_shifts(prob)
    parts = shifted_parts(prob, shifts)
    solver_a = build_solver(parts.A_beta, prob.u2, parts.image_a_beta)
    solver_d = build_solver(parts.D_alpha, prob.u1, parts.image_d_alpha)

    u0 = solver_a.solve(prob.Bl)
    v0 = solver_a.solve(prob.Cr, transpose=True)
    w0 = solver_d.solve(prob.Cl)
    q0 = solver_d.solve(prob.Br, transpose=True)
    for blk in (u0, v0, w0, q0):
        _check_sign(np.all(blk >= 0.0), "k = 0 factor block")

    bru1 = matmul(prob.Br.T, prob.u1[:, None])[:, 0]
    cru2 = matmul(prob.Cr.T, prob.u2[:, None])[:, 0]
    if np.any(bru1 <= 0.0):
        raise ValueError("Br^T u1 must be strictly positive (kernel u-side)")

    state = DaddaState(
        prob=prob,
        shifts=shifts,
        solver_a=solver_a,
        solver_d=solver_d,
        a_neg=parts.A_neg_alpha,
        d_neg=parts.D_neg_beta,
        k=0,
        u_blocks=[u0],
        v_blocks=[v0],
        w_blocks=[w0],
        q_blocks=[q0],
        Y=shifts.alpha * matmul(q0.T, prob.Cl),
        Z=shifts.beta * matmul(prob.Cr.T, u0),
        dinv_v1=solver_d.solve(prob.v1),
        ainv_v2=solver_a.solve(prob.v2),
        bru1=bru1,
        cru2=cru2,
    )
    _refresh_kernel(state)
    return state


def _doubled(old: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """[[0, old], [old, corner]], the doubling of Y (or Z)."""
    rows, cols = old.shape
    out = np.zeros((2 * rows, 2 * cols))
    out[:rows, cols:] = old
    out[rows:, :cols] = old
    out[rows:, cols:] = corner
    return out


def advance(state: DaddaState) -> DaddaState:
    """One doubling step: k -> k + 1."""
    gamma = state.shifts.gamma
    state.Y = _doubled(state.Y, gamma * _gram(state.Qcheck.T, state.Wcheck))
    state.Z = _doubled(state.Z, gamma * _gram(state.Vcheck.T, state.Ucheck))

    # (blocks, shifted solver, negated part, transposed) of U, V, W and Q
    families = (
        (state.u_blocks, state.solver_a, state.a_neg, False),
        (state.v_blocks, state.solver_a, state.a_neg, True),
        (state.w_blocks, state.solver_d, state.d_neg, False),
        (state.q_blocks, state.solver_d, state.d_neg, True),
    )
    for _ in range(len(state.u_blocks)):
        for blocks, shifted, neg, transpose in families:
            blk = neg.apply(shifted.solve(blocks[-1], transpose=transpose), transpose=transpose)
            _check_sign(np.all(blk >= 0.0), "factor block")
            blocks.append(blk)

    state.k += 1
    _refresh_kernel(state)
    return state


# -- residuals and stopping criteria ----------------------------------------


def erres(prob: MareProblem, H: np.ndarray) -> float:
    """Entrywise relative residual.

    Numerator and denominator are grouped so each is a sum of nonnegative
    terms: |(HCH + N_A H + H N_D + B) - (diag(A) H + H diag(D))| over
    diag(A) H + H diag(D), maximized entrywise with 0/0 -> 0 and
    x/0 -> +inf.
    """
    hcl = matmul(H, prob.Cl)
    crth = matmul(prob.Cr.T, H)
    group1 = matmul(hcl, crth)
    group1 += prob.A.offdiag_abs_apply(H, side="left")
    group1 += prob.D.offdiag_abs_apply(H, side="right")
    group1 += matmul(prob.Bl, prob.Br.T)
    group2 = prob.A.diagonal()[:, None] * H + H * prob.D.diagonal()[None, :]
    return max_entrywise_ratio(np.abs(group1 - group2), group2)


def normalized_residual(prob: MareProblem, H: np.ndarray) -> float:
    """Frobenius residual of H C H - H D - A H + B over the term norms."""
    hch = matmul(matmul(H, prob.Cl), matmul(prob.Cr.T, H))
    hd = prob.D.apply(H.T, transpose=True).T
    ah = prob.A.apply(H)
    b = matmul(prob.Bl, prob.Br.T)
    denom = (
        frobenius_norm(hch)
        + frobenius_norm(hd)
        + frobenius_norm(ah)
        + frobenius_norm(b)
    )
    res = frobenius_norm(hch - hd - ah + b)
    if denom == 0.0:
        return 0.0 if res == 0.0 else float("inf")
    return res / denom


def relative_change(h_new: np.ndarray, h_prev: np.ndarray) -> float:
    """max |H_new - H_prev| / H_new entrywise (0/0 -> 0, x/0 -> +inf)."""
    return max_entrywise_ratio(np.abs(h_new - h_prev), np.abs(h_new))


def ererr(H: np.ndarray, x_true: np.ndarray) -> float:
    """max entrywise relative error against a known solution.

    Entries where x_true = 0 demand |H| <= 1e-300 (anything larger counts
    as +inf); elsewhere the ratio |H - x_true| / x_true applies.
    """
    if H.shape != x_true.shape:
        raise ValueError("shape mismatch against the reference solution")
    zero = x_true == 0.0
    num = np.abs(H - x_true)
    if np.any(zero):
        if np.any(np.abs(H[zero]) > 1e-300):
            return float("inf")
        num = np.where(zero, 0.0, num)
    return max_entrywise_ratio(num, x_true)


def _numerical_rank(a: np.ndarray) -> int:
    """Singular values of ``a`` above 1e-10 times the largest (0 if a = 0)."""
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-10 * sv[0]))


def rank_of_iterate(state: DaddaState) -> int:
    """Numerical rank of H_k from its skinny factors (threshold 1e-10)."""
    ru = scipy.linalg.qr(state.Ucheck, mode="economic")[1]
    core = state.shifts.gamma * matmul(ru, state.X)
    return _numerical_rank(core)


class _DenseAdda:
    """The dense ADDA reference (:mod:`dadda.oracle`) as an iterate.

    It has no kernel (``kernel_order`` is None), so the kernel row cap
    never stops it.
    """

    kernel_order = None

    def __init__(self, prob: MareProblem, shifts: ShiftPair):
        self.quad = oracle.initial_quadruple(prob, shifts)
        self.k = 0

    @property
    def H(self) -> np.ndarray:
        return self.quad[3]

    def step(self) -> None:
        self.quad = oracle.step_quadruple(*self.quad)
        self.k += 1

    def rank(self) -> int:
        return _numerical_rank(self.H)


def _criterion_value(
    prob: MareProblem,
    H: np.ndarray,
    kind: str,
    h_prev: np.ndarray | None,
    x_true: np.ndarray | None,
) -> float:
    if kind == "erres":
        return erres(prob, H)
    if kind == "nres":
        return normalized_residual(prob, H)
    if kind == "rchange":
        if h_prev is None:
            return float("inf")
        return relative_change(H, h_prev)
    return ererr(H, x_true)


def _stopping_loop(
    prob: MareProblem,
    it: DaddaState | _DenseAdda,
    shifts: ShiftPair,
    criteria: StopCriteria,
    x_true: np.ndarray | None,
    t0: float,
) -> SolveReport:
    """Evaluate the criterion on ``it`` and step it until the rule stops.

    ``it`` is a DaddaState or a _DenseAdda.  A ``kernel_order`` of None
    means no kernel, which the kernel row cap then never stops.  The
    report's seconds count from ``t0``.
    """
    records: list[IterationRecord] = []
    h_prev: np.ndarray | None = None
    t_mark = t0
    while True:
        value = _criterion_value(prob, it.H, criteria.criterion, h_prev, x_true)
        now = time.perf_counter()
        records.append(
            IterationRecord(
                k=it.k,
                value=value,
                kernel_order=it.kernel_order,
                seconds=now - t_mark,
            )
        )
        t_mark = now
        if value <= criteria.tolerance:
            termination = "converged"
            break
        if it.k >= criteria.max_iterations:
            termination = "max_iterations"
            break
        next_rows = 2 ** (it.k + 1) * max(prob.p, prob.q)
        if it.kernel_order is not None and next_rows > criteria.kernel_row_cap:
            termination = "kernel_cap_exceeded"
            break
        if criteria.criterion == "rchange":
            h_prev = it.H
        it.step()

    h_final = it.H
    if criteria.criterion == "erres":
        erres_final = records[-1].value
    else:
        erres_final = erres(prob, h_final)
    return SolveReport(
        termination=termination,
        iterations=it.k,
        criterion=criteria.criterion,
        tolerance=criteria.tolerance,
        alpha=shifts.alpha,
        beta=shifts.beta,
        records=records,
        H=h_final,
        erres_final=erres_final,
        frob_h=frobenius_norm(h_final),
        rank_h=it.rank(),
        seconds=time.perf_counter() - t0,
    )


def _defaults(prob, shifts, criteria, x_true) -> tuple[ShiftPair, StopCriteria]:
    if criteria is None:
        criteria = StopCriteria()
    if shifts is None:
        shifts = make_shifts(prob)
    if criteria.criterion == "ererr" and x_true is None:
        raise ValueError("criterion 'ererr' needs the true solution")
    return shifts, criteria


def solve(
    prob: MareProblem,
    shifts: ShiftPair | None = None,
    criteria: StopCriteria | None = None,
    x_true: np.ndarray | None = None,
    compute_dual: bool = False,
) -> SolveReport:
    """Run the doubling iteration under a stopping rule."""
    shifts, criteria = _defaults(prob, shifts, criteria, x_true)
    if criteria.kernel_row_cap < prob.p + prob.q:
        raise ValueError("kernel_row_cap must be at least p + q")
    t0 = time.perf_counter()
    state = initialize(prob, shifts)
    report = _stopping_loop(prob, state, shifts, criteria, x_true, t0)
    if compute_dual:
        xg = gth_factorize(dual_kernel_triplet(state)).solve(state.Vcheck.T)
        report.G = shifts.gamma * matmul(state.Wcheck, xg)
        report.seconds = time.perf_counter() - t0
    return report


def solve_dense(
    prob: MareProblem,
    shifts: ShiftPair | None = None,
    criteria: StopCriteria | None = None,
    x_true: np.ndarray | None = None,
) -> SolveReport:
    """Run the dense ADDA reference under the stopping rule of :func:`solve`.

    Dense and capped at m + n <= 200 (see :mod:`dadda.oracle`); the report
    has no kernel orders and no dual iterate.
    """
    shifts, criteria = _defaults(prob, shifts, criteria, x_true)
    t0 = time.perf_counter()
    return _stopping_loop(prob, _DenseAdda(prob, shifts), shifts, criteria, x_true, t0)

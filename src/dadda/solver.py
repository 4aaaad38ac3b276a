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
whole iteration is free of subtractive cancellation.  The m x n iterate is
formed whole (:attr:`DaddaState.H`) only where a criterion or a diagnostic
reads it whole, or the caller reads ``SolveReport.H``: erres reads the
rows of an iterate with a diagonal A from its factors (see below), and
the report forms H on its first read.
Each step forms the two new corners and the kernel's product
Y_{k+1} Z_{k+1} whole, each by one :func:`_gram`.

One summation rule: every product of the iteration is the platform
product ``@``, from the set-up through the steps, kernels, images, the
hand-off, the ADDA steps and H.  Every operand is nonnegative, so each
entry is a sum of nonnegative terms, and round-to-nearest is monotone:
in any summation order, with or without fused multiply-adds, no computed
partial sum is negative or below any of its rounded terms.  So signs stay
exact and entries keep their componentwise accuracy (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., Sec. 3.1 and 4.2); only the
rounding, and with it a criterion value, depends on the BLAS build and
thread count.  What stays in ascending order is the ``frob_h`` of an
iterate whose factors are not skinny, a running sum of squares; a skinny
one's comes from the r x r grams (:meth:`DaddaState.frob`).

One step operator per family.  The first :func:`advance` builds a
:class:`_BlockStep` for each of U, V, W and Q from the family's shifted
solver and negated part.  It holds the very functions that the public
``solve`` and ``apply`` run (``_column_solve``, ``_column_apply``), with
every per-matrix invariant computed once: operand views, the rank-one
image scaled by its capacitance factor, the low-rank row dots and which
low-rank form applies.  There is no second implementation of any solve
or product, so each block is bitwise ``neg.apply(shifted.solve(x, t), t)``
of the one before.  A family's 2^k new blocks take one operand check and
one sign check, over a running minimum of every shifted solution and
block of the chain.  The split low-rank form, which needs x >= 0, is
taken without testing each x: the chain checks every x, and raises if
one is negative.

The kernels I - Y_k Z_k are themselves nonsingular M-matrices.  Their GTH
triplet is assembled additively: with u-side B_r^T u1 tiled 2^k times,

    v1k block i = alpha * Q_0^T v1 + Q_i^T u1
                  + gamma * (sum_{j<i} Q_j)^T (D_alpha^{-1} v1),

(v2k symmetrically with beta, the V blocks, u2 and A_beta^{-1} v2), and
the kernel image is v1k + Y_k v2k.  The image is no running state: it is
derived from the stacked factor blocks on demand, by one product
Qcheck^T [u1, D_alpha^{-1} v1] and an ascending cumulative sum over the
blocks.  Every term is nonnegative and nothing is ever differenced, so
the image stays exactly nonnegative even in the critical case.

Hand-off to triplet-form ADDA.  The larger side of Y_k, 2^k max(p, q),
doubles each step whatever m and n are.  At the first step where the
next one would exceed m + n, the iteration switches to
:class:`_TripletAdda`, the coupled ADDA iteration on the dense quadruple
of order m + n.  The stopping loop runs every iterate through one
protocol, and the iterate decides its successor: the kernel row cap and
the switch live in :meth:`DaddaState.successor` alone.  The cap is
checked first, so m + n stays below it, and the quadruple holds no more
than the kernel it replaces would have.

The decoupled form gives ADDA's quadruple at any k in closed form, so the
hand-off builds it from the DaddaState at its k and replays no step.
Write N = 2^k, T_D = D_alpha^{-1} D_neg and T_A = A_beta^{-1} A_neg (each
one shifted GTH solve with a nonnegative right-hand side),
S = sum_{j<N} T^j, K = I - Y Z (the state's factored kernel),
X = K^{-1} Qcheck^T, and a, b the kernel images of the V and Q blocks
without their V_i^T u2 and Q_i^T u1 terms, so v2k = a + Vcheck^T u2 and
v1k = b + Qcheck^T u1.  Then

    E_k = T_D^N + gamma (Wcheck Z) X,
    F_k = T_A^N + gamma Ucheck K^{-1} (Y Vcheck^T),
    G_k = gamma (Wcheck Vcheck^T + (Wcheck Z) K^{-1} (Y Vcheck^T)),
    H_k = gamma Ucheck X,
    w1 = gamma (S_D D_alpha^{-1} v1 + Wcheck (a + Z K^{-1} (Y a + b))),
    w2 = gamma (S_A A_beta^{-1} v2 + Ucheck K^{-1} (Y a + b)),

with G_k the dual iterate of :meth:`DaddaState.dual`.  T^N and S x come
from k squarings: x <- x + T^{2^j} x, then T <- T T.

The carried vector w keeps u = [[E, G], [H, F]] u + w, u = [u1; u2].  Its
form above is w1 = u1 - E u1 - G u2 with the subtraction cancelled
exactly, never in floating point.  D_alpha - D_neg = gamma D and
D u1 = v1 + C u2 give u1 - T_D^N u1 = S_D (I - T_D) u1
= gamma S_D D_alpha^{-1} (v1 + C u2), and S_D D_alpha^{-1} C u2 =
Wcheck (1 (x) Cr^T u2), since W_j = T_D^j D_alpha^{-1} Cl.  By push-through,
E u1 + G u2 = T_D^N u1 + gamma Wcheck (I - Z Y)^{-1} (Vcheck^T u2 +
Z Qcheck^T u1).  The dual kernel's triplet identity, the mirror of
:func:`kernel_triplet`'s,

    (I - Z Y)(1 (x) Cr^T u2) = a + Z b + Vcheck^T u2 + Z Qcheck^T u1,

turns the difference of the two into

    w1 = gamma S_D D_alpha^{-1} v1 + gamma Wcheck (I - Z Y)^{-1} (a + Z b),

and (I - Z Y)^{-1} (a + Z b) = a + Z K^{-1} (Y a + b).  w2 is the mirror,
through K (1 (x) Br^T u1) = b + Y a + Qcheck^T u1 + Y Vcheck^T u2.  Every
factor is nonnegative (T and S as products of nonnegative factors, a and
b as sums of nonnegative terms, the K^{-1} columns as GTH solves of
nonnegative right-hand sides), so each entry of the quadruple and of w
is a sum of nonnegative products: no subtraction occurs, and every array
is exactly nonnegative.

Each step factors one kernel.  The identity u = [[E, G], [H, F]] u + w
gives it a triplet without a subtraction; with n <= m it is

    K1 = I - G H:  (offdiag(G H), u1, w1 + E u1 + G (w2 + F u2)).

The other kernel K2 = I - H G enters by push-through, K2^{-1} H = H K1^{-1}
and K2^{-1} = I + H K1^{-1} G.  With [X_E, X_GF, x_w] =
K1^{-1} [E, G F, w1 + G w2], ADDA's step

    E <- E K1^{-1} E,    G <- G + E K1^{-1} G F,
    F <- F K2^{-1} F,    H <- H + F K2^{-1} H E,
    w1 <- w1 + E K1^{-1} (w1 + G w2),   w2 <- w2 + F K2^{-1} (w2 + H w1)

becomes

    E <- E X_E,   G <- G + E X_GF,   w1 <- w1 + E x_w,
    F <- F (F + H X_GF),   H <- H + F (H X_E),   w2 <- w2 + F (w2 + H x_w).

With m < n the mirror image factors K2, of order m.

Every product has nonnegative operands and every solve is a GTH solve
with a nonnegative right-hand side, so each operation adds nonnegative
terms only.  That holds in any summation order, so the products run
through BLAS: the quadruple stays exactly nonnegative and its entries
keep their componentwise accuracy.

The entrywise residual :func:`erres` is one fused kernel over row panels
of H, top to bottom.  Each panel evaluates |P - Q| / G2 with
G2 = diag(A) H + H diag(D) = H o (diag(A) (+) diag(D)).  Every term of the
residual is nonnegative, and each goes to the side it takes: P adds HCH,
B and the pos of :meth:`~dadda.linalg.StructuredSquare.offdiag_parts` for
A and D, Q = H o (a (+) d) the diagonals plus the neg, the row dots that
a sign -1 low-rank block's N = P R^T - diag(rowdots) cancels (a sign +1
block swaps its two parts, as ``offdiag_parts`` does).  So |P - Q| is the
one subtraction, in the grouping of the gate below.  All the
outer-product terms of P are one BLAS product per panel,
[H Cl, Bl, P_A, H P_D]_p @ [Cr^T H; Br^T; R_A^T H; R_D^T], from the two
reductions over a long side of H, H [Cl, P_D] and [Cr, R_A]^T H, formed
once per call.  Each outer sum, Q's a (+) d, G2's diag(A) (+) diag(D)
and a sign +1 block's row dots, is one BLAS product with K = 2,
[a, 1] @ [1; d]: both of its products are exact, so every entry takes
the one rounding of a_i + d_j in any summation order, with or without
fused multiply-adds, bitwise the broadcast sum.  A band term of N_A H is
multiplied into a reused buffer and added to P.  One of H_p N_D is one
contiguous multiply and add over the flattened panel, against a copy of
the band laid over the panel's rows, made once per call, with zeros
where a flat shift wraps into the next row: H is finite and >= 0 there,
so those positions add +0.0 and change nothing, and every other entry
takes the same product and addition in the same band order as over the
columns.  A dense-kind A or D adds one BLAS product of the panel's rows.
H >= 0 is checked where it is formed and the factors are validated >= 0,
so each of those BLAS sums adds nonnegative terms, in any order: a blocked sum
errs far less than an ascending one, whose error grows with the term
count (Higham, Sec. 4.2), and over the 7200 columns of fluid 800 x 7200
ascending sums held erres at 4.2e-14, above its 1e-14 tolerance, where
BLAS reads 3.8e-15.  Every other step inside a panel is formed by the
same operations in the same order as over the whole matrix and slices the
whole-matrix reductions, so each panel does elementwise work in
O(panel * n) memory and the value is bitwise the unpanelled one wherever
BLAS rounds the rows of a panel like those of the whole product (with
OpenBLAS on one and two threads; a one-row product, which it forms as a
matrix-vector product, is why no panel past the first has one row).
``ererr`` and ``relative_change`` stream the same way.  The one product
with a mixed-sign operand is :func:`rank_of_iterate`'s core, a QR factor
times X, where no summation order is sign-exact; it is a diagnostic
outside the iteration, so BLAS forms it too.

One block loop.  :func:`erres` reads H in row blocks, and runs its panels
inside each block from its top row.  An array, or an iterate's formed H,
has its row panels (``linalg._panel_edges``) for blocks, each sliced with
its rows of H [Cl, P_D], one BLAS product over the whole H.  A DaddaState
whose A has no off-diagonal band, and whose H spans more than one row
block (:func:`_row_blocks`), is read from its factors instead, and no
m x n array is formed: row i of the numerator reads row i of H alone, so
each block Ucheck[rows] (gamma X) is formed into a buffer with its rows of
H [Cl, P_D], the next block reuses the buffer, and the early exit forms
no block below its panel.  Such a block starts at a multiple of BLAS's
row tiles and gives each of its two products more than BLAS's
small-matrix size (``linalg._block_edges``), so with BLAS on one thread
its rows of H and of H [Cl, P_D] are bitwise those of the whole products,
the cancelling term H P_D included.  Cr^T H, a sum over all m rows, comes
from the factors as (Cr^T Ucheck) (gamma X); it feeds HCH only, which P
adds and nothing cancels, so the value may round apart from the formed
H's by a few ulps (on the benchmark's fluid instances the two are bitwise
equal at every k).  From ``linalg._HALVES_FLOATS`` entries of H up, where
a second CPU is free (``linalg._cpu_count``: the process may run on two
CPUs and numpy's BLAS runs on one thread), the calling thread takes the
top rows and one helper thread, started and joined inside the call, the
bottom rows, split at the middle edge of one list of row edges
(``linalg._row_halves``): :func:`erres` splits its blocks, each half with
buffers of its own, and forms a formed H's two reductions at once;
:attr:`DaddaState.H` splits its ``linalg._block_edges``, a multiple of
BLAS's row tiles, and forms each half by one BLAS product into the one
allocated H (``linalg._product_halves``).  The halves write disjoint rows
and share only read-only operands besides.  Every entry of erres is
formed by the same operations on the same rows as in one pass, the panel
maxima merge in the fixed top-to-bottom order of
``linalg._panel_ratio_max`` (``linalg._halves_ratio_max``), and each row
of H rounds as in the whole product with BLAS on one thread.  With no
free CPU, erres runs its halves in order on the calling thread, with the
same bits, and H is the whole product (BLAS's own threads split its rows
their own way, so H's rounding may move with their count).  The helper
calls numpy and the kernels' own closures only, never a function of the
public API or scipy.

Gating ``erres`` by a factored lower bound.  Above one slab of entries
(m n > ``linalg._SLAB_FLOATS``) the stopping rule first bounds ``erres``
from below by one skinny product with H, and skips both the m x n iterate
and the full criterion at a step where the bound already exceeds the
tolerance.  Write erres's groups G1 = HCH + N_A H + H N_D + B and
G2 = diag(A) H + H diag(D) >= 0, both over the diagonals, row dots and
negated parts that :func:`erres` itself computes, and take u = u1 > 0.
Then for every row i

    |((G1 - G2) u)_i| <= sum_j |G1 - G2|_ij u_j <= erres (G2 u)_i,

so L_i = |((G1 - G2) u)_i| / (G2 u)_i <= erres (rows with (G2 u)_i = 0
are left out, which only weakens the bound).  The row images need one
product that touches H, Y = H [u1, N_D u1 as two sums, diag(D) u1, Cl]:

    G1 u = (H Cl)(Cr^T (H u)) + N_A (H u) + H (N_D u1) + Bl (Br^T u1),
    G2 u = diag(A) (H u) + H (diag(D) u1),

where :meth:`~dadda.linalg.StructuredSquare.offdiag_parts` splits N_M x
into the two nonnegative sums that its evaluation subtracts (a low-rank N
cancels M's row dots out of P R^T x; the other kinds cancel nothing).
Every operand is nonnegative, so each product adds nonnegative terms.
``apply_h`` forms Y: a DaddaState as gamma Ucheck (X rhs) from its
factors in O((m + n) r (q + 4)), without materializing H, and the ADDA
iterates as H @ rhs.

The raw L_i can exceed the computed erres e (fluid 33 x 1000 at k = 0:
3.1971256833e-6 against 3.1971256774e-6; 7200 x 800 at k = 4: 2.3e-14
against 5.5e-15, with BLAS on one thread), so the gate takes v = max_i (L_i - s_i) with a rounding
slack s_i.  Sort the terms of both computations into five parts (HCH,
N_A H, H N_D, B, G2), and let mu_i be a part's u-weighted row sum of term
magnitudes (a low-rank N counts both sides of its subtraction).  A term of
a part passes through at most K_part roundings, counted on the erres path
plus the bound's path, so by Higham (Accuracy and Stability of Numerical
Algorithms, 2nd ed., Sec. 3.1 and 4.2 with Lemma 3.3) the two computations
together err over row i by at most eps_i = sum_part gamma_{K_part} mu_i,
gamma_K = K u / (1 - K u), barring underflow.  That bound holds in any
summation order, and a fused multiply-add only removes roundings, so the
counts below and the slack hold for erres's BLAS reductions too.  On the
erres path every entry has |G1 - G2|_ij <= e (1 + gamma_3) G2_ij plus its
rounding error (a G2_ij = 0 under a nonzero G1_ij would make e = +inf:
positive diagonals make G2_ij = 0 only where H_ij = 0, where nothing
cancels).  Weighting row
i by u, and adding the bound path's rounding of the numerator, of
(G2 u)_i and of the division,

    L_i <= (e (1 + gamma_3) + eps_i / (G2 u)_i) (1 + u) / (1 - gamma_{K_H + 2}),
    so  e >= L_i (1 - gamma_{K_G}) - eps_i / (G2 u)_i.

The slack doubles that deficit, taken over the computed masses,

    s_i = c (gamma_{K_G} L_i + eps_i / (G2 u)_i),   c = 2:

the factor 2 covers the (1 + O(gamma)) between computed and exact masses
and the roundings of s_i and of L_i - s_i while every gamma <= 1/100.  So
v <= e: a gate that fires (v > tol) implies e > tol, the loop takes the
branch it took before, and the step records v, flagged ``lower_bound``.
With K_H the roundings a term of H rhs takes beyond those of the
materialized H (n + 2r + 2 from the factors of kernel order r: Ucheck
(gamma X) takes r + 1, gamma Ucheck (X rhs) n + r + 1, and Lemma 3.3 adds
them; n for a dense H @ rhs), w_M the terms of one entry of N_M x
and t = q + p + t_A + t_D the roundings that erres's P adds to a term
after its own reductions (the one outer-product sum, then the additions
into P; :func:`_residual_share` gives each block's w_M and t_M with its
sides of the grouping), the counts are

    K_HCH = 2m + n + q + t + 2 K_H + 10,   K_A = 2 w_A + t + K_H + 10,
    K_D = 2 w_D + t + K_H + 10,   K_B = n + p + t + 10,   K_G = K_H + 14,

the 10 bounding the additions that combine the parts on both paths.  A
term of HCH, for one, takes n (H Cl), m (Cr^T H), t and the subtraction
|P - Q| on the erres path, and 2 K_H + m + q on the bound's.  A term of Q
takes at most five roundings on the erres path, |P - Q| included
(a = diag(A) + rowdots, a + d, the product with H and a sign +1 block's
product), within K_G and the 2 w_M of a low-rank block's row dots.  All
three iterates gate; the gate needs Z-pattern A and D with positive
diagonals, u1 > 0 and nonnegative factors.  :func:`_erres_gate` checks
that once per solve, builds what the bound needs of the problem alone and
returns the bound as a function of the iterate.  At
m n <= ``_SLAB_FLOATS`` the whole criterion is one cache-resident panel,
so every step runs it.  A skipped step changes nothing observable but its
record: the iterates, and every full evaluation, are bitwise those of an
ungated loop, and the report's ``erres_final`` is always a full evaluation
on the rows of the returned H.  Nor
does it drop a sign check: gamma Ucheck X >= 0 follows from the checked
blocks and X, so the check on the formed H is redundant there.  The
second kind of ``lower_bound`` record is erres's own: the rule passes it
the tolerance as ``above``, and erres stops at the first row panel whose
maximum exceeds it.  That maximum is at most the full erres and exceeds
the tolerance exactly when erres does (``linalg._panel_ratio_max``);
where H spans more than one panel, it is recorded as a lower bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import oracle
from .gth import (
    GthFactorization,
    TripletRepresentation,
    _check_sign,
    _offdiag_triplet,
    _one_lapack_thread,
    build_solver,
    gth_factorize,
)
from .linalg import (
    _SLAB_FLOATS,
    _block_edges,
    _column_form,
    _halves_ratio_max,
    _negated_offdiag,
    _panel_edges,
    _panel_ratio_max,
    _product_halves,
    _row_halves,
    _row_panels,
    _together,
    frobenius_norm,
)
# matmul is not called here; the benchmark's tracer wraps this binding
from .linalg import matmul
from .problem import MareProblem, ShiftPair, make_shifts, shifted_parts

__all__ = [
    "DaddaState",
    "IterationRecord",
    "SolveReport",
    "StopCriteria",
    "advance",
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
    """One step of the stopping loop.  ``lower_bound``: ``value`` is a lower
    bound on ``erres`` above the tolerance: the factored gate's, or the
    first row panel maximum above it, where erres stopped."""

    k: int
    value: float
    kernel_order: int | None
    seconds: float
    lower_bound: bool = False


@dataclass
class SolveReport:
    """The outcome of one solve.  ``H``, the final iterate, and ``G``, its
    dual iterate, are formed on their first read from the final iterate,
    which the report keeps, and then kept; the solve itself forms H only
    where a criterion or a diagnostic reads it.  ``H`` may be assigned."""

    termination: str
    iterations: int
    criterion: str
    tolerance: float
    alpha: float
    beta: float
    records: list[IterationRecord]
    erres_final: float
    frob_h: float
    rank_h: int
    seconds: float
    switched_at: int | None = None
    _final: object = field(default=None, repr=False, compare=False)
    _H: np.ndarray | None = field(default=None, repr=False, compare=False)
    _G: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def H(self) -> np.ndarray:
        if self._H is None:
            self._H = self._final.H
        return self._H

    @H.setter
    def H(self, value: np.ndarray) -> None:
        self._H = value

    @property
    def G(self) -> np.ndarray:
        if self._G is None:
            self._G = self._final.dual()
        return self._G


@dataclass(eq=False)
class DaddaState:
    """Mutable iteration state; index k counts doubling steps taken.

    ``kernel`` holds the GTH factors of I - Y_k Z_k, factored once per
    step, and ``X`` its solution K^{-1} Qcheck^T.  ``block_steps`` holds
    the four families' step operators, built by the first :func:`advance`.
    """

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
    X: np.ndarray | None = None
    kernel: GthFactorization | None = None
    block_steps: tuple[_BlockStep, ...] | None = field(default=None, repr=False)
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
    def skinny(self) -> bool:
        """Whether kernel order r < min(m, n): the factors are smaller than H."""
        return self.kernel_order < min(self.prob.m, self.prob.n)

    @property
    def H(self) -> np.ndarray:
        """Dense current iterate Ucheck (gamma X), materialized lazily.

        Scaling X by gamma, the product and the sum over the kernel order r
        round a term r + 1 times, as K_H = n + 2r + 2 of :meth:`apply_h`
        counts for the formed H.  No pass over H checks its sign: both factors
        are checked finite and >= 0, so each entry is a sum of finite
        nonnegative terms, >= 0 and no NaN in any order.  A check of the
        formed H gave no more: an overflow to +inf passed it too.

        H is allocated once and formed in two row halves where
        ``linalg._row_halves`` splits its ``linalg._block_edges`` and a
        second CPU is free (``linalg._product_halves``), each by one BLAS
        product Ucheck[rows] (gamma X) into its rows, the bottom half on a
        helper thread; else by the whole product.  The split row depends on
        the shape alone and is a multiple of BLAS's row tiles, so H is
        bitwise the whole product ``Ucheck @ (gamma X)`` with BLAS on one
        thread, on one CPU or two.
        """
        if self._H is None:
            self._H = _product_halves(*self._factors())
        return self._H

    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """H's two factors, Ucheck and gamma X, each checked finite and >= 0."""
        u, gx = self.Ucheck, self.shifts.gamma * self.X
        _check_sign(
            all(np.isfinite(f).all() and np.all(f >= 0.0) for f in (u, gx)),
            "iterate H factor",
        )
        return u, gx

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

    # the iterate protocol of _stopping_loop; no hand-off builds a DaddaState

    switched_at = None

    def step(self) -> None:
        advance(self)

    def successor(self, cap: int) -> DaddaState | _TripletAdda | None:
        """The iterate for the next step, by the larger side of Y_{k+1},
        2^(k+1) max(p, q): None past the kernel row cap ``cap``, else a
        :class:`_TripletAdda` built from this state past m + n, else this state."""
        rows = 2 ** (self.k + 1) * max(self.prob.p, self.prob.q)
        if rows > cap:
            return None
        return _TripletAdda(self) if rows > self.prob.m + self.prob.n else self

    def rank(self) -> int:
        return rank_of_iterate(self)

    def frob(self) -> float:
        """Frobenius norm of H_k; while :attr:`skinny`, from the r x r grams as
        sqrt(sum (Ucheck^T Ucheck) o ((gamma X)(gamma X)^T)) in O((m + n) r^2):
        nonnegative terms only, so accurate in any summation order."""
        if not self.skinny:
            return frobenius_norm(self.H)
        u, gx = self.Ucheck, self.shifts.gamma * self.X
        return float(np.sqrt(np.sum(_gram(u.T, u) * _gram(gx, gx.T))))

    def apply_h(self, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """H_k rhs as gamma Ucheck (X rhs), with the roundings K_H = n + 2r + 2
        a term of it may take beyond those of :attr:`H` (see the module
        docstring).  Nothing m x n is formed."""
        r = self.X.shape[0]
        return self.shifts.gamma * (self.Ucheck @ (self.X @ rhs)), self.prob.n + 2 * r + 2

    def dual(self) -> np.ndarray:
        """The dual iterate G_k = gamma Wcheck (I - Z_k Y_k)^{-1} Vcheck^T.

        Taken from the primal kernel by the push-through identity
        (I - Z Y)^{-1} = I + Z (I - Y Z)^{-1} Y:

            G_k = gamma (Wcheck Vcheck^T + (Wcheck Z) (I - Y Z)^{-1} (Y Vcheck^T)),

        every product of nonnegative factors, so BLAS forms it, and the one
        solve a GTH solve with :attr:`kernel` of a nonnegative right-hand side.
        """
        return self._dual_parts()[0]

    def _dual_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """G_k with the two factors it is formed from, Wcheck Z and K^{-1} (Y Vcheck^T)."""
        vt = self.Vcheck.T
        kyv = self.kernel.solve(self.Y @ vt)
        _check_sign(np.all(kyv >= 0.0), "kernel solution")
        w = self.Wcheck
        wz = w @ self.Z
        return self.shifts.gamma * (w @ vt + wz @ kyv), wz, kyv


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two nonnegative factors: a coupling corner, Y Z or H.

    Both operands are checked >= 0, so any summation order adds
    nonnegative terms and the result is exactly nonnegative and
    cancellation-free.  The couplings and Y Z double in all three
    dimensions with k, the solve's only cubic cost.
    """
    _check_sign(np.all(a >= 0.0) and np.all(b >= 0.0), "kernel-order factor")
    return a @ b


def _kernel_image(blocks, u, inv_v, v, shift, gamma) -> np.ndarray:
    """Block i: shift * B_0^T v + B_i^T u + gamma * (sum_{j<i} B_j)^T inv_v.

    One product gives every B_i^T u and B_i^T inv_v; the prefix sums
    accumulate the latter in ascending block order (block 0 adds
    gamma * 0.0), so each entry is a sum of nonnegative terms.  With ``u``
    None the B_i^T u term is left out (the hand-off's a and b).
    """
    width = blocks[0].shape[1]
    rhs = inv_v[:, None] if u is None else np.column_stack([u, inv_v])
    cols = np.concatenate(blocks, axis=1).T @ rhs
    prefix = np.zeros((len(blocks), width))
    np.cumsum(cols[:-width, -1].reshape(-1, width), axis=0, out=prefix[1:])
    image = np.tile(shift * (blocks[0].T @ v), len(blocks))
    if u is not None:
        image += cols[:, 0]
    image += gamma * prefix.ravel()
    _check_sign(np.all(image >= 0.0), "kernel image")
    return image


def _refresh_kernel(state: DaddaState) -> None:
    """Factor I - Y_k Z_k and solve it for X."""
    # drop the previous order's factors and solution before the new ones
    state.X = state._H = state.kernel = None
    state.kernel = gth_factorize(kernel_triplet(state))
    state.X = state.kernel.solve(state.Qcheck.T)
    _check_sign(np.all(state.X >= 0.0), "kernel solution X")


def kernel_triplet(state: DaddaState) -> TripletRepresentation:
    """Triplet (offdiag(Y Z), Br^T u1 tiled 2^k times, v1k + Y v2k) of I - Y_k Z_k.

    Assembled additively, never by subtraction.
    """
    v = state.v1k + state.Y @ state.v2k
    return _offdiag_triplet(_gram(state.Y, state.Z), np.tile(state.bru1, 2**state.k), v)


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

    bru1 = prob.Br.T @ prob.u1
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
        Y=shifts.alpha * (q0.T @ prob.Cl),
        Z=shifts.beta * (prob.Cr.T @ u0),
        dinv_v1=solver_d.solve(prob.v1),
        ainv_v2=solver_a.solve(prob.v2),
        bru1=bru1,
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


class _BlockStep:
    """The step x -> N (M^{-1} x) of one block family, built once per solve.

    M is the family's shifted matrix, N its negated part, both transposed
    for the V and Q families.  ``solve`` and ``apply`` are the functions
    that the public ``solve`` and ``apply`` of the solver and the
    structured matrix run, with every per-matrix invariant computed once,
    so each block is bitwise ``neg.apply(shifted.solve(x, t), t)``.
    """

    def __init__(self, shifted, neg, transpose: bool):
        self.n = neg.n
        self.solve = shifted._column_solve(transpose)
        # the split low-rank form needs x >= 0; chain() checks every x
        self.apply = neg._column_apply(transpose, nonneg=True)

    def chain(self, x: np.ndarray, count: int) -> list[np.ndarray]:
        """The next ``count`` blocks after ``x``, each the step of the one before.

        One operand check on ``x``, and one sign check over all the shifted
        solutions and blocks together: a negative entry anywhere in the
        chain raises :class:`~dadda.gth.NotMMatrixError` before any block
        is returned.  The check reads a running entrywise minimum, which
        keeps a NaN, so the chain holds no solution beyond the one in use.
        """
        x = _column_form(x, self.n)[0]
        low = np.full(x.shape, np.inf)
        blocks = []
        for _ in range(count):
            s = self.solve(x)
            x = self.apply(s)
            np.minimum(low, s, out=low)
            np.minimum(low, x, out=low)
            blocks.append(x)
        _check_sign(low.min() >= 0.0, "factor block")
        return blocks


def advance(state: DaddaState) -> DaddaState:
    """One doubling step: k -> k + 1."""
    gamma = state.shifts.gamma
    # each corner is freed once it is scaled in
    state.Y = _doubled(state.Y, gamma * _gram(state.Qcheck.T, state.Wcheck))
    state.Z = _doubled(state.Z, gamma * _gram(state.Vcheck.T, state.Ucheck))
    if state.block_steps is None:
        state.block_steps = (
            _BlockStep(state.solver_a, state.a_neg, False),
            _BlockStep(state.solver_a, state.a_neg, True),
            _BlockStep(state.solver_d, state.d_neg, False),
            _BlockStep(state.solver_d, state.d_neg, True),
        )
    count = len(state.u_blocks)
    for blocks, step in zip(
        (state.u_blocks, state.v_blocks, state.w_blocks, state.q_blocks), state.block_steps
    ):
        blocks.extend(step.chain(blocks[-1], count))

    state.k += 1
    _refresh_kernel(state)
    return state


# -- residuals and stopping criteria ----------------------------------------


def erres(prob: MareProblem, H, *, above: float = np.inf) -> float:
    """Entrywise relative residual of the iterate ``H``: an array, or a
    :class:`DaddaState`.

    |(HCH + N_A H + H N_D + B) - (diag(A) H + H diag(D))| over the
    diagonal group G2 = diag(A) H + H diag(D), maximized entrywise with
    0/0 -> 0 and x/0 -> +inf.  It is evaluated as |P - Q| / G2, every
    nonnegative term of the residual on the side it takes (module
    docstring): P holds HCH, B and each pos of
    :meth:`~dadda.linalg.StructuredSquare.offdiag_parts`, and Q = H o (a (+) d)
    the diagonals with each neg's row dots.  So |P - Q| is the one
    subtraction.

    One fused kernel (:func:`_residual_panels`) evaluates it in row panels
    inside row blocks of H, so no m x n temporary is made.  After one shape
    check, the blocks are worked out once per call: the row panels
    (``linalg._panel_edges``) of an array or of an iterate's formed
    :attr:`~DaddaState.H`, or the row blocks (:func:`_row_blocks`) in which
    a DaddaState whose A has no off-diagonal band is read from its factors,
    with no H formed (module docstring, "One block loop").  The per-call
    invariants come first: the BLAS products H [Cl, P_D] (per block where
    streamed) and [Cr, R_A]^T H, the two factors of the outer-product
    terms, the negated bands and the row and column vectors of Q and G2.
    Each panel takes one BLAS product for all its outer-product terms, one
    per dense-kind A or D, one with K = 2 per outer sum, [a, 1] @ [1; d],
    whose two products are exact, so each entry is the one rounding of
    a_i + d_j, and elementwise work through two reused buffers: each band
    term is multiplied into one and added to P, D's as flat passes over
    the panel against a zero-padded copy of the band, whose zeros add +0.0
    where a shift wraps to the next row.  Every entry is formed by the same
    operations in the same order as over the whole matrix, so for a finite
    H the value is bitwise the unpanelled evaluation from the same products
    where BLAS rounds a row panel like the rows of the whole product.  The
    panel ratios combine by ``linalg._panel_ratio_max``, and any x/0
    decides the value (+inf), as over the whole matrix.  With ``above`` it
    stops at the first panel maximum above it.  From
    ``linalg._HALVES_FLOATS`` entries up the blocks run in two row halves
    (``linalg._row_halves``), the bottom half on a helper thread; the
    halves merge as one top-to-bottom pass would, early exit included
    (``linalg._halves_ratio_max``), so the value is bitwise the one-pass
    value on one CPU or two.

    Both halves' buffers are allocated on the calling thread, the two block
    buffers as one array.  glibc gives each helper thread a heap arena of
    its own, which keeps a freed block buffer resident, and a new arena
    whenever a helper starts before the last one has left its arena: with
    the helper allocating its own block, fluid's peak RSS in the benchmark
    read 174 MB alone and up to 189 MB beside a busy process, against
    162 MB before.  And two separate block buffers freed together at the
    top of the main heap exceed its trim threshold (twice the largest
    mapped chunk freed so far), so they went back to the system after each
    call and their pages faulted in again on the next, about 4.5 ms per
    7.4 MB buffer here; one array of both raises that threshold on its
    first free and stays in the heap (175-176 MB beside a busy process).
    """
    m, n = prob.m, prob.n
    shape = (len(H.u_blocks[0]), H.X.shape[1]) if isinstance(H, DaddaState) else np.shape(H)
    if shape != (m, n):
        raise ValueError(f"iterate must have shape {(m, n)}, got {shape}")
    blocks = _row_blocks(prob, H)
    if blocks is None:
        H = np.asarray(H.H if isinstance(H, DaddaState) else H, dtype=np.float64)
        blocks = _panel_edges(m, n)
    halves = _row_halves(m, n, blocks)
    panels = _residual_panels(prob, H, blocks, len(halves) > 1)
    return _halves_ratio_max(panels, halves, above=above)


def _row_blocks(prob: MareProblem, it) -> list[int] | None:
    """The row blocks (``linalg._block_edges``) in which :func:`erres` reads
    the DaddaState ``it`` from its factors, or None where it reads a formed H.

    That is a DaddaState whose A has no off-diagonal band, where the
    blocks of Ucheck (gamma X) and of H [Cl, P_D] give more than one block.
    """
    if not isinstance(it, DaddaState) or prob.A.kind != "banded" or set(prob.A.bands) != {0}:
        return None
    cols = prob.Cl.shape[1] + (prob.D.p.shape[1] if prob.D.kind == "diag_plus_lowrank" else 0)
    edges = _block_edges(prob.m, prob.n, (it.X.shape[0], cols))
    return edges if len(edges) > 2 else None


def _residual_share(block, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, int, int]:
    """One block's share of :func:`erres`'s grouping: (Q's vector, P's row
    dots or None, w, t).

    Q's vector is ``diag`` plus a sign -1 low-rank block's row dots (its neg
    of ``offdiag_parts``); a sign +1 block's row dots are its pos, and go to
    P.  For the gate's counts, w is the most terms one entry of N x sums
    (band count, order, or order plus rank) and t what the block adds to P's
    roundings: its rank in the one outer-product sum, then one addition per
    off-diagonal band, dense product or sign +1 row dots.
    """
    if block.kind == "banded":
        return diag, None, len(block.bands), len(block.bands) - 1
    if block.kind == "dense":
        return diag, None, block.n, 1
    dots, rank = block.lowrank_rowdot().reshape(diag.shape), block.p.shape[1]
    if block.sign == -1:
        return diag + dots, None, block.n + rank, rank
    return diag, dots, block.n + rank, rank + 1


def _residual_panels(prob: MareProblem, H, blocks: list[int], halves: bool):
    """The kernel of :func:`erres`: the per-call invariants, and a function
    ``panels(edges)`` that yields (|P - Q|, G2) panel by panel, top to
    bottom, inside the row blocks at ``edges``, a run of ``blocks``: the
    panels of an array ``H``, or the row blocks of a DaddaState ``H``
    (:func:`_row_blocks`).  One loop serves both: each block's rows of H
    and of H [Cl, P_D] are slices of the array and of its whole product,
    or formed from the factors into a block buffer, and its panels follow
    from its top row.

    With ``halves`` the two reductions over a formed H run at once (one on
    a helper thread, ``linalg._together``), and each half gets a block
    buffer.  Each ``panels`` call allocates its own buffers on the calling
    thread, and the arrays it yields are those buffers, overwritten by its
    next panel.  The outer sums are K = 2 products [a, 1] @ [1; d] into
    the buffer (``_outer_sum_factors``): a_i * 1 and 1 * d_j are exact, so
    each entry is round(a_i + d_j) in either order, with or without a
    fused multiply-add, bitwise ``np.add``'s.  Each band o of H_p N_D is one
    multiply and one add over the flattened panel, entry k against entry
    k - o, with the band laid over the panel's rows in a copy made once per
    call (O(bands * panel) floats).  The copy holds zeros at the columns
    that band o does not reach, where the flat shift wraps to the next
    row: H is finite and >= 0 there, so the product is +0.0 and P keeps
    its value, and every other entry takes the product and the addition
    of the column-shifted form, in the same band order.  A non-finite
    entry of H makes its own ratio NaN already; the zeros can spread that
    NaN to a wrap neighbour in its panel, which turns the value to +inf
    where G2 is zero there, as a band term of that entry can over the
    columns.  Flattening a panel makes a view where H is C-contiguous and
    a copy of that one panel where it is not.
    """
    A, D = prob.A, prob.D
    m, n = A.n, D.n
    q = prob.Cl.shape[1]
    low_a, low_d = A.kind == "diag_plus_lowrank", D.kind == "diag_plus_lowrank"
    # the reductions over a long side of H: BLAS products over all of a
    # formed H (8-row panels of fluid 800 x 7200 round H [Cl, P_D] unlike it)
    right = np.concatenate([prob.Cl, D.p], axis=1) if low_d else prob.Cl
    left = np.concatenate([prob.Cr, A.r], axis=1) if low_a else prob.Cr
    streamed = isinstance(H, DaddaState)
    if streamed:
        u, gx = H._factors()
        rth = (left.T @ u) @ gx
    else:

        def form_hf():
            return H @ right

        def form_rth():
            return left.T @ H

        hf, rth = _together(form_hf, form_rth) if halves else (form_hf(), form_rth())
    # the factors of the outer-product terms [H Cl, Bl, P_A, H P_D] and
    # [Cr^T H; Br^T; R_A^T H; R_D^T]: a low-rank block's go to P for sign -1
    # and to Q for sign +1; a column range stands for those of H [Cl, P_D],
    # copied in by fill(rows, hf_rows)
    sides = {-1: ([(0, q), prob.Bl], [rth[:q], prob.Br.T]), 1: ([], [])}
    if low_a:
        sides[A.sign][0].append(A.p)
        sides[A.sign][1].append(rth[q:])
    if low_d:
        sides[D.sign][0].append((q, right.shape[1]))
        sides[D.sign][1].append(D.r.T)
    fills = []

    def left_factor(parts):
        widths = [p[1] - p[0] if isinstance(p, tuple) else p.shape[1] for p in parts]
        out, at = np.empty((m, sum(widths))), 0
        for part, width in zip(parts, widths):
            if isinstance(part, tuple):
                fills.append((out, slice(at, at + width), slice(*part)))
            else:
                out[:, at : at + width] = part
            at += width
        return out

    def fill(rows, hf_rows):
        for out, cols, src in fills:
            out[rows, cols] = hf_rows[:, src]

    (p_left, p_right), q_outer = (
        (left_factor(lt), np.concatenate(rt, axis=0)) if lt else None
        for lt, rt in (sides[-1], sides[1])
    )
    a_bands = sorted(_negated_offdiag(A.bands).items()) if A.kind == "banded" else []
    d_bands = sorted(_negated_offdiag(D.bands).items()) if D.kind == "banded" else []
    a_nmat = np.diag(np.diagonal(A.a)) - A.a if A.kind == "dense" else None
    d_nmat = np.diag(np.diagonal(D.a)) - D.a if D.kind == "dense" else None
    diag_a, diag_d = A.diagonal()[:, None], D.diagonal()
    a, a_pos = _residual_share(A, diag_a)[:2]
    d, d_pos = _residual_share(D, diag_d)[:2]
    q_sum = _outer_sum_factors(a, d)
    g2_sum = q_sum if a is diag_a and d is diag_d else _outer_sum_factors(diag_a, diag_d)
    # Q is G2 unless it holds row dots or a product
    apart = g2_sum is not q_sum or q_outer is not None
    pos_sum = None
    if a_pos is not None or d_pos is not None:
        pos_sum = _outer_sum_factors(
            np.zeros((m, 1)) if a_pos is None else a_pos, np.zeros(n) if d_pos is None else d_pos
        )

    def tallest(edges):
        return max(e1 - e0 for e0, e1 in zip(edges, edges[1:]))

    # a streamed block's buffer height, and that of every panel's buffers
    tall = tallest(blocks)
    height = max(tallest(_panel_edges(b1 - b0, n)) for b0, b1 in zip(blocks, blocks[1:]))
    # D's bands over a flattened panel: band o at the columns it reaches,
    # zero where a flat shift by o wraps to the neighbouring row
    d_tiles = []
    for off, vals in d_bands:
        tile = np.zeros((height, n))
        tile[:, max(0, off) : n + min(0, off)] = vals
        d_tiles.append((off, tile.reshape(-1)))

    def panel_rows(edges, rows_h, rows_hf):
        # (i0, i1, rows i0 to i1 of H) of each panel inside each block, from
        # its top row, once the block's rows of H and of H [Cl, P_D] are in:
        # slices of a formed H and its hf, or formed into rows_h and rows_hf
        for b0, b1 in zip(edges, edges[1:]):
            if streamed:
                block = np.matmul(u[b0:b1], gx, out=rows_h[: b1 - b0])
                fill(slice(b0, b1), np.matmul(block, right, out=rows_hf[: b1 - b0]))
            else:
                block = H[b0:b1]
                fill(slice(b0, b1), hf[b0:b1])
            inner = _panel_edges(b1 - b0, n)
            for e0, e1 in zip(inner, inner[1:]):
                yield b0 + e0, b0 + e1, block[e0:e1]

    # the halves' block buffers, in one allocation on the calling thread (see erres)
    blocks_h = list(np.empty((2 if halves else 1, tall, n))) if streamed else []

    def panels(edges):
        # allocated here, on the calling thread, so a helper thread that
        # reads the panels allocates nothing large (see erres)
        acc, tmp = np.empty((height, n)), np.empty((height, n))
        spare = None if q_outer is None else np.empty((height, n))
        rows = (blocks_h.pop(), np.empty((tall, right.shape[1]))) if streamed else (None, None)
        return kernel(panel_rows(edges, *rows), acc, tmp, spare)

    def kernel(panel_rows, acc, tmp, spare):
        for i0, i1, panel in panel_rows:
            h = i1 - i0
            p, t = acc[:h], tmp[:h]
            np.matmul(p_left[i0:i1], p_right, out=p)
            # rows of N_A H: band o pairs row i with row i + o of H
            for off, vals in a_bands:
                r0, r1 = max(i0, -off), min(i1, m - off)
                if r0 < r1:
                    lo, rows = min(off, 0), slice(r0 - i0, r1 - i0)
                    p[rows] += np.multiply(
                        vals[r0 + lo : r1 + lo, None], H[r0 + off : r1 + off], out=t[rows]
                    )
            if a_nmat is not None:
                p += np.matmul(a_nmat[i0:i1], H, out=t)
            # H_p N_D: band o pairs flat entry k of the panel with entry k - o
            if d_tiles:
                flat, pf, tf = panel.ravel(), p.reshape(-1), t.reshape(-1)
                for off, tile in d_tiles:
                    k0, k1 = max(0, off), h * n + min(0, off)
                    pf[k0:k1] += np.multiply(flat[k0 - off : k1 - off], tile[k0:k1], out=tf[k0:k1])
            if d_nmat is not None:
                p += np.matmul(panel, d_nmat, out=t)
            if pos_sum is not None:
                np.matmul(pos_sum[0][i0:i1], pos_sum[1], out=t)
                p += np.multiply(t, panel, out=t)
            np.matmul(q_sum[0][i0:i1], q_sum[1], out=t)
            np.multiply(t, panel, out=t)
            if q_outer is not None:
                t += np.matmul(q_outer[0][i0:i1], q_outer[1], out=spare[:h])
            p -= t
            if apart:
                np.matmul(g2_sum[0][i0:i1], g2_sum[1], out=t)
                np.multiply(t, panel, out=t)
            yield np.abs(p, out=p), t

    return panels


def _outer_sum_factors(col: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[col, 1] and [1; row], whose product is the outer sum col (+) row.

    Each entry of the product is col_i * 1 + 1 * row_j: two exact products,
    so it takes the one rounding of col_i + row_j in either summation
    order, with or without a fused multiply-add, bitwise ``np.add``'s.
    """
    left, right = np.ones((len(col), 2)), np.ones((2, len(row)))
    left[:, :1] = col
    right[1] = row
    return left, right


def normalized_residual(prob: MareProblem, H: np.ndarray) -> float:
    """Frobenius residual of H C H - H D - A H + B over the term norms."""
    hch = (H @ prob.Cl) @ (prob.Cr.T @ H)
    hd = prob.D.apply(H.T, transpose=True).T
    ah = prob.A.apply(H)
    b = prob.Bl @ prob.Br.T
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
    """max |H_new - H_prev| / |H_new| entrywise (0/0 -> 0, x/0 -> +inf).

    Streamed in row panels, bitwise equal to the ratio over the whole
    matrices (see ``linalg._panel_ratio_max``).
    """
    if h_new.shape != h_prev.shape:
        raise ValueError("shape mismatch against the previous iterate")
    return _panel_ratio_max(
        (np.abs(hn - hp), np.abs(hn)) for hn, hp in _row_panels(h_new, h_prev)
    )


def ererr(H: np.ndarray, x_true: np.ndarray) -> float:
    """max entrywise relative error against a known solution.

    Entries where x_true = 0 demand |H| <= 1e-300 (anything larger counts
    as +inf); elsewhere the ratio |H - x_true| / x_true applies.  Streamed
    in row panels like :func:`relative_change`: a violated zero entry is
    an x/0 of its panel, which decides the value as over the whole matrix.
    """
    if H.shape != x_true.shape:
        raise ValueError("shape mismatch against the reference solution")

    def panels():
        for h, x in _row_panels(H, x_true):
            num = np.abs(h - x)
            zero = x == 0.0
            if zero.any():
                num[zero] = np.abs(h[zero]) > 1e-300
            yield num, x

    return _panel_ratio_max(panels())


def _numerical_rank(a: np.ndarray) -> int:
    """Singular values of ``a`` above 1e-10 times the largest (0 if a = 0)."""
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-10 * sv[0]))


def rank_of_iterate(state: DaddaState) -> int:
    """Numerical rank of H_k (threshold 1e-10), from its skinny factors while
    they are skinny.

    With kernel order r < min(m, n) it is the rank of the r x n core
    gamma R_U X, R_U the QR factor of Ucheck.  The core multiplies that
    mixed-sign factor, so no summation order keeps it sign-exact; it is a
    diagnostic, not part of the iteration, and the 1e-10 threshold is far
    above its rounding.  So BLAS forms it.  From r >= min(m, n) on the
    factors are no smaller than H itself, and the QR of the m x r Ucheck
    costs more time and memory than H's singular values: the rank is then
    that of H, the one rule of every iterate.  The QR runs with scipy's
    BLAS on one thread (``gth._one_lapack_thread``), like every LAPACK
    call of a solve.
    """
    if not state.skinny:
        return _numerical_rank(state.H)
    with _one_lapack_thread:
        ru = scipy.linalg.qr(state.Ucheck, mode="economic")[1]
    return _numerical_rank(state.shifts.gamma * (ru @ state.X))


class _Quadruple:
    """An ADDA iterate on ``quad`` = (E, F, G, H), less construction and ``step``.

    ADDA has no cap or hand-off of its own, so its successor is itself.
    """

    switched_at: int | None = None

    @property
    def H(self) -> np.ndarray:
        return self.quad[3]

    def successor(self, cap: int) -> _Quadruple:
        return self

    def rank(self) -> int:
        return _numerical_rank(self.H)

    def frob(self) -> float:
        return frobenius_norm(self.H)

    def apply_h(self, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """H_k rhs, and the n roundings a term of it may take."""
        return self.H @ rhs, self.H.shape[1]

    def dual(self) -> np.ndarray:
        return self.quad[2]


class _DenseAdda(_Quadruple):
    """The dense ADDA reference (:mod:`dadda.oracle`) as an iterate, with no kernel."""

    kernel_order = None

    def __init__(self, prob: MareProblem, shifts: ShiftPair):
        self.quad = oracle.initial_quadruple(prob, shifts)
        self.k = 0

    def step(self) -> None:
        self.quad = oracle.step_quadruple(*self.quad)
        self.k += 1


def _power_sum(shifted, neg, x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(T^{2^k}, sum_{j<2^k} T^j x) for T = shifted^{-1} neg, by k squarings.

    T is one shifted GTH solve with the nonnegative right-hand side ``neg``;
    each squaring takes x <- x + T^{2^j} x, then T <- T T, so every product
    has nonnegative operands.
    """
    t = shifted.solve(neg.to_dense())
    _check_sign(np.all(t >= 0.0), "shifted power T")
    for _ in range(k):
        x = x + t @ x
        t = t @ t
    _check_sign(np.all(t >= 0.0) and np.all(x >= 0.0), "power T^(2^k) and its sum")
    return t, x


class _TripletAdda(_Quadruple):
    """ADDA on the quadruple (E, F, G, H) with every solve a GTH solve.

    The iterate that dADDA hands off to, built in closed form from the
    DaddaState at its k, which is its ``switched_at`` (see the module
    docstring).  Each step factors one kernel, of order min(m, n), which
    is its ``kernel_order``.
    """

    def __init__(self, state: DaddaState):
        prob, sh = state.prob, state.shifts
        gamma = sh.gamma
        u, w = state.Ucheck, state.Wcheck
        _check_sign(
            all(np.all(x >= 0.0) for x in (
                u, state.Vcheck, w, state.Qcheck, state.Y, state.Z, state.X)),
            "dADDA factor block",
        )
        t_d, s_d = _power_sum(state.solver_d, state.d_neg, state.dinv_v1, state.k)
        t_a, s_a = _power_sum(state.solver_a, state.a_neg, state.ainv_v2, state.k)
        a = _kernel_image(state.v_blocks, None, state.ainv_v2, prob.v2, sh.beta, gamma)
        b = _kernel_image(state.q_blocks, None, state.dinv_v1, prob.v1, sh.alpha, gamma)
        c = state.kernel.solve(state.Y @ a + b)
        _check_sign(np.all(c >= 0.0), "kernel solution")
        G, wz, kyv = state._dual_parts()
        self.quad = (
            t_d + gamma * (wz @ state.X),
            t_a + gamma * (u @ kyv),
            G,
            state.H,
        )
        self.w1 = gamma * (s_d + w @ (a + state.Z @ c))
        self.w2 = gamma * (s_a + u @ c)
        _check_sign(
            all(np.all(x >= 0.0) for x in (*self.quad, self.w1, self.w2)), "ADDA quadruple"
        )
        self.u1, self.u2 = prob.u1, prob.u2
        self.kernel_order = min(prob.m, prob.n)
        self.k = self.switched_at = state.k

    def step(self) -> None:
        E, F, G, H = self.quad
        w1, w2 = self.w1, self.w2
        _check_sign(
            all(np.all(x >= 0.0) for x in (E, F, G, H, w1, w2)), "ADDA quadruple"
        )
        if E.shape[0] <= F.shape[0]:
            self.quad, self.w1, self.w2 = _adda_step(E, F, G, H, w1, w2, self.u1, self.u2)
        else:
            # the mirror image: swap the sides, factor I - H G of order m
            (F, E, H, G), self.w2, self.w1 = _adda_step(F, E, H, G, w2, w1, self.u2, self.u1)
            self.quad = (E, F, G, H)
        self.k += 1


def _adda_step(E, F, G, H, w1, w2, u1, u2):
    """One ADDA step that factors K1 = I - G H only (module docstring).

    The other kernel K2 = I - H G enters by push-through, K2^{-1} H = H K1^{-1}
    and K2^{-1} = I + H K1^{-1} G, so its three solves are sums of
    nonnegative products of the K1 solution.
    """
    n = E.shape[0]
    r1 = w1 + E @ u1
    r2 = w2 + F @ u2
    k1 = _offdiag_triplet(G @ H, u1, r1 + G @ r2)
    x = gth_factorize(k1).solve(np.column_stack([E, G @ F, w1 + G @ w2]))
    _check_sign(np.all(x >= 0.0), "kernel solution")
    xe, xgf, xw = x[:, :n], x[:, n:-1], x[:, -1]
    quad = (E @ xe, F @ (F + H @ xgf), G + E @ xgf, H + F @ (H @ xe))
    return quad, w1 + E @ xw, w2 + F @ (w2 + H @ xw)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    ku = k * np.finfo(np.float64).eps / 2
    return ku / (1.0 - ku)


def _erres_gate(prob: MareProblem):
    """The gate on :func:`erres` (module docstring), None where it does not apply.

    The problem-only parts are built here, once per solve: rhs = [u1, N_D u1
    as its two sums, diag(D) u1, Cl], Bl (Br^T u1), diag(A), the counts
    K_HCH, K_A and K_D less their K_H terms, and gamma_{K_B}.  The returned
    function gives per row i the raw bound L_i and its slack s_i, with
    ``max(L - s)`` at most the computed ``erres(prob, it.H)`` (L_i = s_i =
    nan where G2 u is 0); only ``it.apply_h`` touches the iterate.
    """
    A, D, u = prob.A, prob.D, prob.u1
    if prob.m * prob.n <= _SLAB_FLOATS or not (
        A.offdiag_nonpositive() and D.offdiag_nonpositive()
        and A.diagonal().min() > 0.0 and D.diagonal().min() > 0.0
        and u.min() > 0.0
        and all(f.min(initial=0.0) >= 0.0 for f in (prob.Bl, prob.Br, prob.Cl, prob.Cr))
    ):
        return None
    rhs = np.column_stack([u, *D.offdiag_parts(u), D.diagonal() * u, prob.Cl])
    bu = prob.coupling_products()[1]
    diag_a = A.diagonal()
    *_, w_a, t_a = _residual_share(A, diag_a)
    *_, w_d, t_d = _residual_share(D, D.diagonal())
    tail = prob.q + prob.p + t_a + t_d
    k_hch = 2 * prob.m + prob.n + prob.q + tail + 10
    k_a = 2 * w_a + tail + 10
    k_d = 2 * w_d + tail + 10
    gamma_b = _gamma(prob.n + prob.p + tail + 10)

    def bound(it) -> tuple[np.ndarray, np.ndarray]:
        y, k_h = it.apply_h(rhs)
        hu, d_pos, d_neg = y[:, 0], y[:, 1], y[:, 2]
        hch = y[:, 4:] @ (prob.Cr.T @ hu)
        a_pos, a_neg = A.offdiag_parts(hu)
        g2u = diag_a * hu + y[:, 3]
        num = np.abs(((hch + a_pos) + (d_pos + bu)) - ((a_neg + d_neg) + g2u))
        err = (
            _gamma(k_hch + 2 * k_h) * hch
            + _gamma(k_a + k_h) * (a_pos + a_neg)
            + _gamma(k_d + k_h) * (d_pos + d_neg)
            + gamma_b * bu
            + _gamma(k_h + 14) * g2u
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            den = np.where(g2u > 0.0, g2u, np.nan)
            raw = num / den
            return raw, 2.0 * (_gamma(k_h + 14) * raw + err / den)

    return bound


def _stopping_rule(prob: MareProblem, criteria: StopCriteria, x_true: np.ndarray | None):
    """One solve's stopping rule, built before any set-up work.

    Returns ``measure(it)``, an iterate's ``(value, lower_bound)``, and
    ``erres_final(it, record)``, the final iterate's full erres (the last
    record's value where it is one).  erres reads the iterate itself where
    it streams the rows from the factors (:func:`_row_blocks`), else the
    formed H, which is formed before erres is called.  The rule owns what the criterion
    carries across steps: the erres gate, erres's early exit at the
    tolerance, ``rchange``'s previous H and ``ererr``'s reference.  Each
    criterion is called by its module name, so a rebinding sees each call.
    """
    kind, tol = criteria.criterion, criteria.tolerance
    if kind == "ererr":
        if x_true is None:
            raise ValueError("criterion 'ererr' needs the true solution")
        if np.shape(x_true) != (prob.m, prob.n):
            raise ValueError(
                f"the true solution must have shape {(prob.m, prob.n)}, got {np.shape(x_true)}"
            )
    gate = _erres_gate(prob) if kind == "erres" else None
    panelled = len(_panel_edges(prob.m, prob.n)) > 2
    h_prev = None

    def measure(it) -> tuple[float, bool]:
        nonlocal h_prev
        if kind == "nres":
            return normalized_residual(prob, it.H), False
        if kind == "ererr":
            return ererr(it.H, x_true), False
        if kind == "rchange":
            # a hand-off's H is the very array of the state it was built from
            value = np.inf if h_prev is None else relative_change(it.H, h_prev)
            h_prev = it.H
            return value, False
        if gate is not None:
            raw, slack = gate(it)
            value = float(np.nanmax(raw - slack, initial=-np.inf))
            if value > tol:
                return value, True
        # no local name holds H: the next step frees it before forming its own
        rows = erres_rows(it)
        value = erres(prob, rows, above=tol)
        return value, value > tol and (panelled or rows is it)

    def erres_final(it, record: IterationRecord) -> float:
        if kind == "erres" and not record.lower_bound:
            return record.value
        return erres(prob, erres_rows(it))

    def erres_rows(it):
        # the iterate itself where erres streams its rows, else its formed H
        return it if _row_blocks(prob, it) is not None else it.H

    return measure, erres_final


def _stopping_loop(
    prob: MareProblem, start, shifts: ShiftPair | None, criteria: StopCriteria,
    x_true: np.ndarray | None,
) -> SolveReport:
    """Build :func:`_stopping_rule`, the shifts (``make_shifts`` by default)
    and the iterate ``start(prob, shifts)``, then step it until the rule stops.

    ``start`` is :func:`initialize` or :class:`_DenseAdda`, and the iterate
    any of one protocol: ``k``, ``kernel_order``, ``H``, ``step()``,
    ``apply_h(rhs)``, ``rank()``, ``dual()``, ``switched_at`` and
    ``successor(cap)``.  The iterate decides its successor: None ends the
    solve at the kernel row cap, and a DaddaState hands off to a
    :class:`_TripletAdda` once its next kernel would outgrow m + n.  The
    loop then drops the DaddaState, so its factor blocks are freed.  The
    report's seconds count from before the rule is built; its
    ``erres_final`` is always a full evaluation on the rows of the returned
    H, and the report keeps the final iterate to form H and G on their
    first read.
    """
    t0 = time.perf_counter()
    measure, erres_final = _stopping_rule(prob, criteria, x_true)
    shifts = make_shifts(prob) if shifts is None else shifts
    it = start(prob, shifts)
    records: list[IterationRecord] = []
    t_mark = t0
    while True:
        value, lower_bound = measure(it)
        now = time.perf_counter()
        records.append(
            IterationRecord(
                k=it.k,
                value=value,
                kernel_order=it.kernel_order,
                seconds=now - t_mark,
                lower_bound=lower_bound,
            )
        )
        t_mark = now
        if value <= criteria.tolerance:
            termination = "converged"
            break
        if it.k >= criteria.max_iterations:
            termination = "max_iterations"
            break
        successor = it.successor(criteria.kernel_row_cap)
        if successor is None:
            termination = "kernel_cap_exceeded"
            break
        it = successor
        it.step()

    return SolveReport(
        termination=termination,
        iterations=it.k,
        criterion=criteria.criterion,
        tolerance=criteria.tolerance,
        alpha=shifts.alpha,
        beta=shifts.beta,
        records=records,
        erres_final=erres_final(it, records[-1]),
        frob_h=it.frob(),
        rank_h=it.rank(),
        switched_at=it.switched_at,
        seconds=time.perf_counter() - t0,
        _final=it,
    )


def solve(
    prob: MareProblem,
    shifts: ShiftPair | None = None,
    criteria: StopCriteria | None = None,
    x_true: np.ndarray | None = None,
) -> SolveReport:
    """Run the doubling iteration under a stopping rule.

    dADDA runs until its next kernel would outgrow m + n; the rest of the
    solve runs on triplet-form ADDA (``report.switched_at`` gives the k).
    """
    criteria = StopCriteria() if criteria is None else criteria
    if criteria.kernel_row_cap < max(prob.p, prob.q):
        raise ValueError("kernel_row_cap must be at least max(p, q)")
    # initialize by its module name, so a rebinding sees the call
    return _stopping_loop(prob, initialize, shifts, criteria, x_true)


def solve_dense(
    prob: MareProblem,
    shifts: ShiftPair | None = None,
    criteria: StopCriteria | None = None,
    x_true: np.ndarray | None = None,
) -> SolveReport:
    """Run the dense ADDA reference under the stopping rule of :func:`solve`.

    Dense and capped at m + n <= 200 (see :mod:`dadda.oracle`); the report
    has no kernel orders.
    """
    criteria = StopCriteria() if criteria is None else criteria
    return _stopping_loop(prob, _DenseAdda, shifts, criteria, x_true)

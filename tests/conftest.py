"""Shared test helpers: generators and exact-arithmetic oracles."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

import dadda
from dadda.linalg import StructuredSquare, _panel_ratio_max, matmul
from dadda.oracle import _dense_blocks
from dadda.problem import MareProblem, ShiftPair


def _run_optimized(code):
    """Run ``code`` in a fresh ``python -O`` with this dadda importable."""
    src = os.path.dirname(os.path.dirname(dadda.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Literal ascending triple loop; the bitwise reference for matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc = acc + a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def dense_erres(prob, H):
    """The entrywise relative residual over the whole m x n matrix at once.

    The unpanelled form of ``solver.erres``: |P - Q| over G2 = H o
    (diag(A) (+) diag(D)).  P adds every nonnegative term of the residual:
    the outer-product terms [H Cl, Bl, P_A, H P_D] @ [Cr^T H; Br^T;
    R_A^T H; R_D^T] as one product (a sign -1 low-rank block's P R^T x),
    then N_A H and H N_D one off-diagonal band at a time in ascending
    offset, or a dense-kind block's product, then a sign +1 block's row
    dots times H.  Q = H o (a (+) d) holds the diagonals plus a sign -1
    block's row dots, and a sign +1 block's product.  The reductions H
    [Cl, P_D] and [Cr, R_A]^T H and the outer-product terms are the very
    BLAS products that ``erres`` forms, whose summation order is the BLAS
    build's; every other term comes from the public ``offdiag_abs_apply``
    of the block or of one band of it.
    """
    A, D = prob.A, prob.D
    q = prob.Cl.shape[1]
    low_a, low_d = A.kind == "diag_plus_lowrank", D.kind == "diag_plus_lowrank"
    hf = H @ (np.concatenate([prob.Cl, D.p], axis=1) if low_d else prob.Cl)
    rth = (np.concatenate([prob.Cr, A.r], axis=1) if low_a else prob.Cr).T @ H
    left, right = [[hf[:, :q], prob.Bl], []], [[rth[:q], prob.Br.T], []]
    diag_a, diag_d = A.diagonal()[:, None], D.diagonal()
    a, d, a_pos, d_pos = diag_a, diag_d, 0.0, 0.0
    if low_a:
        left[A.sign == 1].append(A.p)
        right[A.sign == 1].append(rth[q:])
        dots = A.lowrank_rowdot()[:, None]
        a, a_pos = (diag_a + dots, 0.0) if A.sign == -1 else (diag_a, dots)
    if low_d:
        left[D.sign == 1].append(hf[:, q:])
        right[D.sign == 1].append(D.r.T)
        dots = D.lowrank_rowdot()
        d, d_pos = (diag_d + dots, 0.0) if D.sign == -1 else (diag_d, dots)
    plus_dots = (low_a and A.sign == 1) or (low_d and D.sign == 1)
    pos = np.concatenate(left[0], axis=1) @ np.concatenate(right[0], axis=0)
    for block, side in ((A, "left"), (D, "right")):
        if block.kind == "banded":
            for off in sorted(o for o in block.bands if o != 0):
                lower, upper = max(-off, 0), max(off, 0)
                one = StructuredSquare.banded(
                    block.n, lower, upper, {0: np.zeros(block.n), off: block.bands[off]}
                )
                pos += one.offdiag_abs_apply(H, side=side)
        elif block.kind == "dense":
            pos += block.offdiag_abs_apply(H, side=side)
    if plus_dots:
        pos += (a_pos + d_pos) * H
    neg = (a + d) * H
    if left[1]:
        neg += np.concatenate(left[1], axis=1) @ np.concatenate(right[1], axis=0)
    group2 = (diag_a + diag_d) * H
    return _panel_ratio_max([(np.abs(pos - neg), group2)])


def where_ratio_max(num, den):
    """max of num/den over whole arrays, 0/0 -> 0 and x/0 -> +inf, by two
    ``np.where`` passes: the reference for ``linalg._panel_ratio_max``."""
    if num.size == 0:
        return 0.0
    zero_den = den == 0.0
    if np.any(zero_den & (num != 0.0)):
        return float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(zero_den, 0.0, num / np.where(zero_den, 1.0, den))
    return float(np.max(ratio))


# the closed forms of H0 and G0 and the dense residual, over the oracle's dense blocks


def closed_form_h0(prob: MareProblem, shifts: ShiftPair):
    """H0 = gamma (Ab - alpha beta B Da^{-1} C)^{-1} B Da^{-1}."""
    A, D, B, C = _dense_blocks(prob)
    m, n = prob.m, prob.n
    alpha, beta = shifts.alpha, shifts.beta
    Da = alpha * D + np.eye(n)
    Ab = beta * A + np.eye(m)
    b_da = B @ np.linalg.solve(Da, np.eye(n))
    core = Ab - alpha * beta * b_da @ C
    return shifts.gamma * np.linalg.solve(core, b_da)


def closed_form_g0(prob: MareProblem, shifts: ShiftPair):
    """G0 = gamma (Da - alpha beta C Ab^{-1} B)^{-1} C Ab^{-1}."""
    A, D, B, C = _dense_blocks(prob)
    m, n = prob.m, prob.n
    alpha, beta = shifts.alpha, shifts.beta
    Da = alpha * D + np.eye(n)
    Ab = beta * A + np.eye(m)
    c_ab = C @ np.linalg.solve(Ab, np.eye(m))
    core = Da - alpha * beta * c_ab @ B
    return shifts.gamma * np.linalg.solve(core, c_ab)


def oracle_residual(prob: MareProblem, H: np.ndarray) -> np.ndarray:
    """Dense residual H C H - H D - A H + B."""
    A, D, B, C = _dense_blocks(prob)
    return H @ C @ H - H @ D - A @ H + B


def dense_ererr(H, x_true):
    """``solver.ererr`` over the whole matrix at once (the unpanelled form)."""
    zero = x_true == 0.0
    num = np.abs(H - x_true)
    if np.any(zero):
        if np.any(np.abs(H[zero]) > 1e-300):
            return float("inf")
        num = np.where(zero, 0.0, num)
    return where_ratio_max(num, x_true)


def dense_relative_change(h_new, h_prev):
    """``solver.relative_change`` over the whole matrices at once."""
    return where_ratio_max(np.abs(h_new - h_prev), np.abs(h_new))


def same_float(a, b):
    """Equal bit for bit, the sign of a zero included; any NaN matches any NaN."""
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return a == b and np.signbit(a) == np.signbit(b)


def sequential_gth(N, u, v):
    """Textbook GTH elimination, one pivot at a time: (L, U) with M = L U.

    Pivot k is (v_k + sum_{j>k} (-U_kj) u_j) / u_k, the Schur update
    subtracts a product of two nonpositive numbers, and the running v
    gains v_k (-L_ik); the unreduced diagonal is implied by (u, v) and
    never read.  The reference for the panel code of dadda.gth, whose
    left-looking pivot loop sums the same products per entry before
    subtracting them.
    """
    order = len(u)
    U = -np.array(N, dtype=np.float64)
    L = np.eye(order)
    v = np.array(v, dtype=np.float64)
    for k in range(order):
        row = U[k, k + 1 :]
        U[k, k] = (v[k] - row @ u[k + 1 :]) / u[k]
        col = U[k + 1 :, k] / U[k, k]
        L[k + 1 :, k] = col
        U[k + 1 :, k] = 0.0
        U[k + 1 :, k + 1 :] -= np.outer(col, row)
        v[k + 1 :] -= col * v[k]
    return L, U


def random_triplet(rng, order, v_scale=1.0, density=1.0):
    """Random valid M-matrix triplet (N, u, v) of the given order."""
    N = rng.uniform(size=(order, order))
    if density < 1.0:
        N *= rng.uniform(size=(order, order)) < density
    np.fill_diagonal(N, 0.0)
    u = rng.uniform(0.5, 1.5, size=order)
    v = v_scale * rng.uniform(0.1, 1.0, size=order)
    return N, u, v


def fraction_solve(N, u, v, b):
    """Solve M x = b exactly, M implied by the triplet, via Fractions.

    Every float converts to an exact rational, so this is an
    infinite-precision oracle for the GTH solver.
    """
    order = len(u)
    Nf = [[Fraction(N[i, j]) for j in range(order)] for i in range(order)]
    uf = [Fraction(x) for x in u]
    vf = [Fraction(x) for x in v]
    M = [[None] * order for _ in range(order)]
    for i in range(order):
        row_dot = sum(Nf[i][j] * uf[j] for j in range(order))
        for j in range(order):
            M[i][j] = -Nf[i][j]
        M[i][i] = (vf[i] + row_dot) / uf[i]
    rhs = [Fraction(x) for x in np.asarray(b, dtype=np.float64)]
    # exact Gaussian elimination, no pivoting needed (M-matrix)
    for k in range(order):
        piv = M[k][k]
        assert piv > 0
        for i in range(k + 1, order):
            f = M[i][k] / piv
            if f == 0:
                continue
            for j in range(k, order):
                M[i][j] -= f * M[k][j]
            rhs[i] -= f * rhs[k]
    x = [Fraction(0)] * order
    for k in range(order - 1, -1, -1):
        acc = rhs[k]
        for j in range(k + 1, order):
            acc -= M[k][j] * x[j]
        x[k] = acc / M[k][k]
    return np.array([float(t) for t in x])


def random_mare(
    seed,
    m=None,
    n=None,
    p=None,
    q=None,
    critical=False,
    kind="dense",
):
    """Random valid MARE with u1 = u2 = 1 (diagonally dominant A, D).

    Off-diagonals and factors are drawn nonnegative; the diagonals of A
    and D are then derived from the triplet identity, so W [1; 1] =
    [v1; v2] holds by construction.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    m = m if m is not None else int(rng.integers(2, 31))
    n = n if n is not None else int(rng.integers(2, 31))
    p = p if p is not None else min(int(rng.integers(1, 4)), m, n)
    q = q if q is not None else min(int(rng.integers(1, 4)), m, n)
    Bl = rng.uniform(size=(m, p))
    Br = rng.uniform(size=(n, p))
    Cl = rng.uniform(size=(n, q))
    Cr = rng.uniform(size=(m, q))
    u1 = np.ones(n)
    u2 = np.ones(m)
    v1 = np.zeros(n) if critical else rng.uniform(0.1, 1.0, size=n)
    v2 = np.zeros(m) if critical else rng.uniform(0.1, 1.0, size=m)
    bu1 = matmul(Bl, matmul(Br.T, u1[:, None]))[:, 0]
    cu2 = matmul(Cl, matmul(Cr.T, u2[:, None]))[:, 0]
    if kind == "lowrank":
        Pa = rng.uniform(size=(m, 2))
        Ra = rng.uniform(size=(m, 2))
        Pd = rng.uniform(size=(n, 2))
        Rd = rng.uniform(size=(n, 2))
        da = v2 + bu1 + matmul(Pa, matmul(Ra.T, u2[:, None]))[:, 0]
        dd = v1 + cu2 + matmul(Pd, matmul(Rd.T, u1[:, None]))[:, 0]
        A = StructuredSquare.diag_plus_lowrank(da, Pa, Ra, sign=-1)
        D = StructuredSquare.diag_plus_lowrank(dd, Pd, Rd, sign=-1)
    elif kind == "banded":
        Na = np.triu(np.tril(rng.uniform(size=(m, m)), 1), -2)
        Nd = np.triu(np.tril(rng.uniform(size=(n, n)), 2), -1)
        np.fill_diagonal(Na, 0.0)
        np.fill_diagonal(Nd, 0.0)
        A = _banded_from_dense(
            np.diag(v2 + bu1 + matmul(Na, u2[:, None])[:, 0]) - Na, 2, 1
        )
        D = _banded_from_dense(
            np.diag(v1 + cu2 + matmul(Nd, u1[:, None])[:, 0]) - Nd, 1, 2
        )
    else:
        Na = rng.uniform(size=(m, m))
        Nd = rng.uniform(size=(n, n))
        np.fill_diagonal(Na, 0.0)
        np.fill_diagonal(Nd, 0.0)
        A = StructuredSquare.dense(
            np.diag(v2 + bu1 + matmul(Na, u2[:, None])[:, 0]) - Na
        )
        D = StructuredSquare.dense(
            np.diag(v1 + cu2 + matmul(Nd, u1[:, None])[:, 0]) - Nd
        )
    return MareProblem(
        A=A, D=D, Bl=Bl, Br=Br, Cl=Cl, Cr=Cr, u1=u1, u2=u2, v1=v1, v2=v2
    )


def transport_reference(draw, max_sweeps=100_000):
    """Minimal solution of a ``benchgen.draw_transport`` MARE in Lu's vector
    form (Lu, SIMAX 26, 2005), independent of the doubling iterations.

    With delta = (1/omega) / (beta_t (1 + alpha_t)) and d = (1/omega) /
    (beta_t (1 - alpha_t)), formed as the draw forms them (``A.diagonal()``
    is delta - q, not delta), the solution is T o (u v^T) with T_ij =
    1 / (delta_i + d_j), where u, v are the minimal solution of
    u = u o (P v) + e and v = v o (Pt u) + e, P_ij = q_j / (delta_i + d_j),
    Pt_ij = q_j / (delta_j + d_i).  Iterated from u = v = 0, Gauss-Seidel
    style, until a sweep changes no bit; every term is nonnegative.
    """
    w = 1.0 / draw.omega
    delta = w / (draw.beta_t * (1.0 + draw.alpha_t))
    d = w / (draw.beta_t * (1.0 - draw.alpha_t))
    T = 1.0 / (delta[:, None] + d[None, :])
    P = T * draw.q
    Pt = draw.q / (delta[None, :] + d[:, None])
    u = v = np.zeros(len(w))
    for _ in range(max_sweeps):
        u_next = u * (P @ v) + 1.0
        v_next = v * (Pt @ u_next) + 1.0
        if np.array_equal(u_next, u) and np.array_equal(v_next, v):
            return T * np.outer(u, v)
        u, v = u_next, v_next
    raise RuntimeError(f"transport reference did not settle in {max_sweeps} sweeps")


def _banded_from_dense(a, lower, upper):
    order = a.shape[0]
    bands = {}
    for off in range(-lower, upper + 1):
        idx = np.arange(order - abs(off))
        if off >= 0:
            bands[off] = a[idx, idx + off]
        else:
            bands[off] = a[idx - off, idx]
    return StructuredSquare.banded(order, lower, upper, bands)

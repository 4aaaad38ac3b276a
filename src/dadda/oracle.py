"""Dense reference doubling iteration, used as an independent oracle.

This module intentionally uses ordinary numpy arithmetic (``@``,
``np.linalg.solve``) on fully densified coefficients, with none of the
ordered-reduction or cancellation-free machinery from the rest of the
package.  It exists to cross-check the structured solver on small
instances; anything with m + n > 200 is refused.

The doubling recursions on the dense quadruple (E, F, G, H) are

    E1 = E (I - G H)^{-1} E,          F1 = F (I - H G)^{-1} F,
    G1 = G + E (I - G H)^{-1} G F,    H1 = H + F (I - H G)^{-1} H E,

starting from the block solve

    [[E0, G0], [H0, F0]] = [[Da, -beta C], [-alpha B, Ab]]^{-1}
                           [[Dnb, alpha C], [beta B, Ana]]

with Da = alpha D + I, Ab = beta A + I, Dnb = I - beta D, Ana = I - alpha A.
H converges (up) to the minimal nonnegative solution of
X C X - X D - A X + B = 0; G to the dual equation's solution.
"""

from __future__ import annotations

import numpy as np

from .problem import MareProblem, ShiftPair, make_shifts

__all__ = [
    "closed_form_g0",
    "closed_form_h0",
    "initial_quadruple",
    "iterate_oracle",
    "oracle_residual",
    "step_quadruple",
]

_ORACLE_CAP = 200


def _dense_blocks(prob: MareProblem):
    if prob.m + prob.n > _ORACLE_CAP:
        raise ValueError(
            f"oracle is dense-only and capped at m + n <= {_ORACLE_CAP}"
        )
    A = prob.A.to_dense()
    D = prob.D.to_dense()
    B = prob.Bl @ prob.Br.T
    C = prob.Cl @ prob.Cr.T
    return A, D, B, C


def initial_quadruple(prob: MareProblem, shifts: ShiftPair | None = None):
    """(E0, F0, G0, H0) from the dense block solve."""
    if shifts is None:
        shifts = make_shifts(prob)
    A, D, B, C = _dense_blocks(prob)
    m, n = prob.m, prob.n
    alpha, beta = shifts.alpha, shifts.beta
    left = np.block(
        [
            [alpha * D + np.eye(n), -beta * C],
            [-alpha * B, beta * A + np.eye(m)],
        ]
    )
    right = np.block(
        [
            [np.eye(n) - beta * D, alpha * C],
            [beta * B, np.eye(m) - alpha * A],
        ]
    )
    sol = np.linalg.solve(left, right)
    E0 = sol[:n, :n]
    G0 = sol[:n, n:]
    H0 = sol[n:, :n]
    F0 = sol[n:, n:]
    return E0, F0, G0, H0


def step_quadruple(E, F, G, H):
    """One dense doubling step on (E, F, G, H)."""
    m = H.shape[0]
    n = E.shape[0]
    inv_hg = np.linalg.solve(np.eye(m) - H @ G, np.eye(m))
    inv_gh = np.linalg.solve(np.eye(n) - G @ H, np.eye(n))
    E1 = E @ inv_gh @ E
    F1 = F @ inv_hg @ F
    G1 = G + E @ inv_gh @ G @ F
    H1 = H + F @ inv_hg @ H @ E
    return E1, F1, G1, H1


def iterate_oracle(
    prob: MareProblem, shifts: ShiftPair | None = None, steps: int = 0
):
    """(E, F, G, H) after ``steps`` doubling steps (steps = 0 gives k = 0)."""
    quad = initial_quadruple(prob, shifts)
    for _ in range(steps):
        quad = step_quadruple(*quad)
    return quad


def closed_form_h0(prob: MareProblem, shifts: ShiftPair | None = None):
    """H0 = gamma (Ab - alpha beta B Da^{-1} C)^{-1} B Da^{-1}."""
    if shifts is None:
        shifts = make_shifts(prob)
    A, D, B, C = _dense_blocks(prob)
    m, n = prob.m, prob.n
    alpha, beta = shifts.alpha, shifts.beta
    Da = alpha * D + np.eye(n)
    Ab = beta * A + np.eye(m)
    b_da = B @ np.linalg.solve(Da, np.eye(n))
    core = Ab - alpha * beta * b_da @ C
    return shifts.gamma * np.linalg.solve(core, b_da)


def closed_form_g0(prob: MareProblem, shifts: ShiftPair | None = None):
    """G0 = gamma (Da - alpha beta C Ab^{-1} B)^{-1} C Ab^{-1}."""
    if shifts is None:
        shifts = make_shifts(prob)
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

"""Benchmark problem families: stochastic fluid flow and neutron transport.

Both families have diag-plus-rank-one coefficients, so the per-iteration
cost of the doubling solver stays O(m + n).

Fluid flow: A = n I_m, D = (1e4 n + m) I_n - 1e4 * ones, all four low-rank
factors are all-ones vectors, and W 1 = 0 exactly (singular, critical
case).  The constant matrices x * ones solve the equation when
(m x - 1)(n x - 1) = 0, so the minimal nonnegative solution is
X = ones / max(m, n).

Transport: with nodes 1 > w_1 > ... > w_n > 0, positive weights c summing
to one, and q = c / (2 w),

    A = diag(w^-1) / (bt (1 + at)) - ones q^T,
    D = diag(w^-1) / (bt (1 - at)) - q ones^T,
    B = ones ones^T,  C = q q^T,

so W = [[D, -C], [-B, A]] = diag([dD, dA]) - [q; ones] [ones; q]^T is a
rank-one update of a positive diagonal.  Its SMW capacitance is
1 - sum(q w) bt (1 - at) - sum(q w) bt (1 + at) = 1 - bt > 0 because
sum(q w) = sum(c) / 2 = 1/2; the generator therefore normalizes c so its
ascending-order float sum is exactly 1.0.

Randomness uses the counter-based Philox generator so seeds are portable
and instances are bit-reproducible.  Draw order for a seeded instance:
at (if not fixed), bt (if not fixed), nodes w, weights c, then the
nonnegative images v1, v2; fixing at/bt skips their draws and shifts the
stream, which is part of the documented seed contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import StructuredSquare, ordered_dot, ordered_sum
from .problem import MareProblem

__all__ = [
    "TransportDraw",
    "draw_transport",
    "gen_fluid",
    "gen_transport",
]

_REDRAW_LIMIT = 8


def gen_fluid(m: int, n: int) -> tuple[MareProblem, np.ndarray]:
    """Fluid-flow instance and its exact minimal solution ones/max(m, n).

    The solution is one scalar, returned as a read-only broadcast view of
    shape (m, n), so a caller that drops it pays for no m x n array.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    A = StructuredSquare.banded(m, 0, 0, {0: float(n) * np.ones(m)})
    D = StructuredSquare.diag_plus_lowrank(
        (1e4 * n + m) * np.ones(n),
        1e4 * np.ones((n, 1)),
        np.ones((n, 1)),
        sign=-1,
    )
    prob = MareProblem(
        A=A,
        D=D,
        Bl=np.ones((m, 1)),
        Br=np.ones((n, 1)),
        Cl=np.ones((n, 1)),
        Cr=np.ones((m, 1)),
        u1=np.ones(n),
        u2=np.ones(m),
        v1=np.zeros(n),
        v2=np.zeros(m),
    )
    return prob, np.broadcast_to(1.0 / max(m, n), (m, n))


def _normalize_exact(raw: np.ndarray) -> np.ndarray:
    """Scale a positive vector so its ascending-order sum is exactly 1.0.

    After the initial division the largest entry absorbs the residual
    1 - sum(c); a few corrections suffice since each shrinks the residual
    below an ulp of the running sum.
    """
    total = ordered_sum(raw)
    if not (total > 0.0 and np.isfinite(total)):
        raise ValueError("weights must have a positive finite sum")
    c = raw / total
    # ordered_sum accumulates in index order, so the last entry is the
    # final addend.  Setting it to the float complement of the prefix sum
    # puts the exact total within half an ulp of 1.0, which rounds to 1.0
    # (Sterbenz makes the complement exact whenever the prefix is >= 0.5).
    for _ in range(64):
        if np.all(c > 0.0) and ordered_sum(c) == 1.0:
            return c
        prefix = ordered_sum(c[:-1])
        last = 1.0 - prefix
        if last > 0.0:
            c[-1] = last
        else:
            # prefix rounded past 1; shave the largest entry and retry
            c[int(np.argmax(c))] *= 1.0 - 2.0**-50
    raise ValueError("weight normalization did not reach an exact unit sum")


@dataclass(frozen=True)
class TransportDraw:
    """A transport instance together with the parameters that built it."""

    alpha_t: float
    beta_t: float
    omega: np.ndarray
    weights: np.ndarray
    q: np.ndarray
    problem: MareProblem


def draw_transport(
    n: int,
    seed: int,
    alpha_t: float | None = None,
    beta_t: float | None = None,
) -> TransportDraw:
    """Seeded random transport instance (see the module docstring)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.Generator(np.random.Philox(seed))
    if alpha_t is None:
        alpha_t = float(rng.uniform())
    if beta_t is None:
        beta_t = float(rng.uniform())
    if not (0.0 < alpha_t < 1.0 and 0.0 < beta_t < 1.0):
        raise ValueError("transport parameters must lie strictly in (0, 1)")
    omega = np.sort(rng.uniform(size=n))[::-1].copy()
    if omega[0] >= 1.0 or omega[-1] <= 0.0:
        raise ValueError("nodes must lie strictly in (0, 1)")
    c = _normalize_exact(np.abs(rng.standard_normal(n)))
    q = c / (2.0 * omega)

    d_a = (1.0 / omega) / (beta_t * (1.0 + alpha_t))
    d_d = (1.0 / omega) / (beta_t * (1.0 - alpha_t))
    A = StructuredSquare.diag_plus_lowrank(
        d_a, np.ones((n, 1)), q[:, None].copy(), sign=-1
    )
    D = StructuredSquare.diag_plus_lowrank(
        d_d, q[:, None].copy(), np.ones((n, 1)), sign=-1
    )

    # global rank-one splitting of W = diag([d_d, d_a]) - pg rg^T
    dg = np.concatenate([d_d, d_a])
    pg = np.concatenate([q, np.ones(n)])
    rg = np.concatenate([np.ones(n), q])
    dinv_p = pg / dg
    delta = 1.0 - ordered_dot(rg, dinv_p)
    if delta <= 0.0:
        raise ValueError("transport capacitance 1 - beta_t came out non-positive")
    for attempt in range(_REDRAW_LIMIT):
        v1 = rng.uniform(size=n)
        v2 = rng.uniform(size=n)
        v = np.concatenate([v1, v2])
        dinv_v = v / dg
        u = dinv_v + dinv_p * (ordered_dot(rg, dinv_v) / delta)
        if np.all(u > 0.0):
            break
    else:
        raise ValueError("could not draw v with a strictly positive u")

    prob = MareProblem(
        A=A,
        D=D,
        Bl=np.ones((n, 1)),
        Br=np.ones((n, 1)),
        Cl=q[:, None].copy(),
        Cr=q[:, None].copy(),
        u1=u[:n],
        u2=u[n:],
        v1=v1,
        v2=v2,
    )
    return TransportDraw(
        alpha_t=alpha_t,
        beta_t=beta_t,
        omega=omega,
        weights=c,
        q=q,
        problem=prob,
    )


def gen_transport(
    n: int,
    seed: int,
    alpha_t: float | None = None,
    beta_t: float | None = None,
) -> MareProblem:
    """Seeded random transport MARE (problem only)."""
    return draw_transport(n, seed, alpha_t=alpha_t, beta_t=beta_t).problem


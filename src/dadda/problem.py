"""Problem container for M-matrix algebraic Riccati equations.

The equation is X C X - X D - A X + B = 0 with A (m x m), D (n x n),
B = Bl @ Br.T (m x n) and C = Cl @ Cr.T (n x m) given through skinny
nonnegative factors.  The block matrix W = [[D, -C], [-B, A]] must be a
nonsingular M-matrix or an irreducible singular one; instead of asking
callers to certify that spectrally, the problem carries a triplet pair
(u1, u2, v1, v2) with

    D u1 - C u2 = v1,   A u2 - B u1 = v2,   u > 0, v >= 0,

which is exactly the data the cancellation-free solvers downstream need.
v1 = v2 = 0 flags the (possibly) critical case.

JSON interchange format (see ``problem_to_json``): scalars m, n, p, q;
A and D as tagged structured payloads (kind dense / banded /
diag_plus_lowrank); factors and triplet vectors as row-major nested
lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.linalg

from .gth import _one_lapack_thread

# matmul is not called here; the benchmark's tracer wraps this binding
from .linalg import StructuredSquare, matmul

__all__ = [
    "MareProblem",
    "ShiftPair",
    "ShiftedParts",
    "ValidationReport",
    "load_problem",
    "make_shifts",
    "problem_from_json",
    "problem_to_json",
    "save_problem",
    "shifted_parts",
]

_RANK_TOL = 1e-12
_TRIPLET_TOL = 1e-12
# one-sided slack for user shifts sitting exactly on the admissible bound,
# where fl(1/max_diag) * max_diag can overshoot 1 by a few ulp
_SHIFT_SLACK = 4.0 * np.finfo(np.float64).eps


def _as_factor(x, rows: int, name: str) -> np.ndarray:
    a = np.array(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != rows:
        raise ValueError(f"{name} must be a ({rows}, k) array, got {a.shape}")
    return a


def _as_vec(x, n: int, name: str) -> np.ndarray:
    a = np.array(x, dtype=np.float64).ravel()
    if a.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got {a.shape}")
    return a


def _full_column_rank(a: np.ndarray) -> bool:
    if a.shape[1] == 0:
        return True
    if a.shape[1] > a.shape[0]:
        return False
    with _one_lapack_thread:
        _, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True)
    diag = np.abs(np.diagonal(r))
    col_norms = np.sqrt(np.sum(a * a, axis=0))
    thresh = _RANK_TOL * max(float(np.max(col_norms)), np.finfo(np.float64).tiny)
    return bool(np.min(diag) > thresh)


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(eq=False)
class MareProblem:
    """A MARE instance with its M-matrix triplet certificate."""

    A: StructuredSquare
    D: StructuredSquare
    Bl: np.ndarray
    Br: np.ndarray
    Cl: np.ndarray
    Cr: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        m, n = self.A.n, self.D.n
        self.Bl = _as_factor(self.Bl, m, "Bl")
        self.Br = _as_factor(self.Br, n, "Br")
        self.Cl = _as_factor(self.Cl, n, "Cl")
        self.Cr = _as_factor(self.Cr, m, "Cr")
        if self.Bl.shape[1] != self.Br.shape[1]:
            raise ValueError("Bl and Br must share the column count p")
        if self.Cl.shape[1] != self.Cr.shape[1]:
            raise ValueError("Cl and Cr must share the column count q")
        self.u1 = _as_vec(self.u1, n, "u1")
        self.u2 = _as_vec(self.u2, m, "u2")
        self.v1 = _as_vec(self.v1, n, "v1")
        self.v2 = _as_vec(self.v2, m, "v2")

    @property
    def m(self) -> int:
        return self.A.n

    @property
    def n(self) -> int:
        return self.D.n

    @property
    def p(self) -> int:
        return self.Bl.shape[1]

    @property
    def q(self) -> int:
        return self.Cl.shape[1]

    # -- derived applications ---------------------------------------------

    def coupling_products(self) -> tuple[np.ndarray, np.ndarray]:
        """C u2 and B u1 through the factors, as sums of nonnegative terms."""
        cu2 = self.Cl @ (self.Cr.T @ self.u2)
        bu1 = self.Bl @ (self.Br.T @ self.u1)
        return cu2, bu1

    def validate(self) -> ValidationReport:
        """Collect diagnostics; never raises on bad numerics."""
        rep = ValidationReport()
        err = rep.errors.append
        note = rep.notes.append
        for name, arr in (
            ("Bl", self.Bl), ("Br", self.Br), ("Cl", self.Cl), ("Cr", self.Cr),
            ("u1", self.u1), ("u2", self.u2), ("v1", self.v1), ("v2", self.v2),
        ):
            if not np.all(np.isfinite(arr)):
                err(f"{name} has non-finite entries")
        for name, arr in (
            ("Bl", self.Bl), ("Br", self.Br), ("Cl", self.Cl), ("Cr", self.Cr),
        ):
            if np.any(arr < 0.0):
                err(f"{name} must be entrywise nonnegative")
        if np.any(self.u1 <= 0.0) or np.any(self.u2 <= 0.0):
            err("u1, u2 must be strictly positive")
        if np.any(self.v1 < 0.0) or np.any(self.v2 < 0.0):
            err("v1, v2 must be nonnegative")
        for name, s in (("A", self.A), ("D", self.D)):
            if not s.offdiag_nonpositive():
                err(f"{name} has a positive off-diagonal entry (not a Z-matrix)")
            if np.any(s.diagonal() <= 0.0):
                err(f"{name} must have a strictly positive diagonal")
        for name, a in (("Bl", self.Bl), ("Br", self.Br),
                        ("Cl", self.Cl), ("Cr", self.Cr)):
            if not _full_column_rank(a):
                err(f"{name} does not have full column rank")
        if rep.errors:
            return rep
        # triplet residual: W [u1; u2] = [v1; v2] within relative tolerance
        cu2, bu1 = self.coupling_products()
        du1, au2 = self.D.apply(self.u1), self.A.apply(self.u2)
        res1 = du1 - cu2 - self.v1
        res2 = au2 - bu1 - self.v2
        scale = max(
            float(np.max(np.abs(du1))),
            float(np.max(np.abs(au2))),
            float(np.max(cu2, initial=0.0)),
            float(np.max(bu1, initial=0.0)),
            1.0,
        )
        resid = max(float(np.max(np.abs(res1))), float(np.max(np.abs(res2))))
        if resid > _TRIPLET_TOL * scale:
            err(
                f"triplet residual {resid:.3e} exceeds {_TRIPLET_TOL:.1e} * {scale:.3e}"
            )
        if not (np.any(self.v1 > 0.0) or np.any(self.v2 > 0.0)):
            note("v1 = v2 = 0: possibly critical, expect linear convergence")
        return rep


@dataclass(frozen=True)
class ShiftPair:
    """Shift parameters: 0 <= alpha <= 1/max diag(A), same for beta with D,
    and alpha + beta > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha >= 0.0 and self.beta >= 0.0):
            raise ValueError("shifts must be nonnegative")
        if self.alpha + self.beta <= 0.0:
            raise ValueError("alpha + beta must be positive")

    @property
    def gamma(self) -> float:
        return self.alpha + self.beta


def make_shifts(
    prob: MareProblem, alpha: float | None = None, beta: float | None = None
) -> ShiftPair:
    """Build a ShiftPair, checking the bounds.

    A missing shift defaults to its largest admissible value:
    alpha = 1 / max diag(A), beta = 1 / max diag(D).
    """
    max_a = float(np.max(prob.A.diagonal()))
    max_d = float(np.max(prob.D.diagonal()))
    if alpha is None:
        alpha = 1.0 / max_a
    if beta is None:
        beta = 1.0 / max_d
    if alpha * max_a > 1.0 + _SHIFT_SLACK:
        raise ValueError(f"alpha {alpha} exceeds admissible bound {1.0 / max_a}")
    if beta * max_d > 1.0 + _SHIFT_SLACK:
        raise ValueError(f"beta {beta} exceeds admissible bound {1.0 / max_d}")
    return ShiftPair(alpha=float(alpha), beta=float(beta))


@dataclass(eq=False)
class ShiftedParts:
    """Shifted coefficient matrices and their triplet images.

    A_beta = beta A + I and D_alpha = alpha D + I are M-matrices with
    images computed as sums of nonnegative terms:

        D_alpha u1 = u1 + alpha v1 + alpha C u2,
        A_beta  u2 = u2 + beta  v2 + beta  B u1.

    A_neg_alpha = I - alpha A and D_neg_beta = I - beta D are entrywise
    nonnegative for admissible shifts; their diagonals are clamped at zero
    to strip the one-ulp negative that fl(1 - alpha * a_ii) can produce
    when a shift sits exactly on the admissible bound.
    """

    A_beta: StructuredSquare
    D_alpha: StructuredSquare
    A_neg_alpha: StructuredSquare
    D_neg_beta: StructuredSquare
    image_a_beta: np.ndarray
    image_d_alpha: np.ndarray


def _clamp_diagonal(s: StructuredSquare) -> StructuredSquare:
    if s.kind == "dense":
        a = s.a.copy()
        idx = np.arange(s.n)
        a[idx, idx] = np.maximum(a[idx, idx], 0.0)
        return StructuredSquare.dense(a)
    if s.kind == "banded":
        bands = dict(s.bands)
        bands[0] = np.maximum(bands[0], 0.0)
        return StructuredSquare.banded(s.n, s.lower, s.upper, bands)
    # the matrix diagonal is d + sign * rowdot, so clamping it at zero means
    # flooring the stored d at -sign * rowdot; the stored d itself may be
    # legitimately negative when the low-rank part carries the diagonal
    rowdot = s.lowrank_rowdot()
    return StructuredSquare.diag_plus_lowrank(
        np.maximum(s.d, -s.sign * rowdot), s.p, s.r, s.sign
    )


def shifted_parts(prob: MareProblem, shifts: ShiftPair) -> ShiftedParts:
    alpha, beta = shifts.alpha, shifts.beta
    cu2, bu1 = prob.coupling_products()
    image_d_alpha = prob.u1 + alpha * prob.v1 + alpha * cu2
    image_a_beta = prob.u2 + beta * prob.v2 + beta * bu1
    return ShiftedParts(
        A_beta=prob.A.affine(beta, 1.0),
        D_alpha=prob.D.affine(alpha, 1.0),
        A_neg_alpha=_clamp_diagonal(prob.A.affine(-alpha, 1.0)),
        D_neg_beta=_clamp_diagonal(prob.D.affine(-beta, 1.0)),
        image_a_beta=image_a_beta,
        image_d_alpha=image_d_alpha,
    )


# -- JSON interchange -------------------------------------------------------


def _structured_to_json(s: StructuredSquare) -> dict[str, Any]:
    if s.kind == "dense":
        return {"kind": "dense", "entries": s.a.tolist()}
    if s.kind == "banded":
        return {
            "kind": "banded",
            "lower": s.lower,
            "upper": s.upper,
            "bands": [[off, s.bands[off].tolist()] for off in sorted(s.bands)],
        }
    return {
        "kind": "diag_plus_lowrank",
        "diag": s.d.tolist(),
        "left": s.p.tolist(),
        "right": s.r.tolist(),
        "sign": s.sign,
    }


def _json_int(x: Any, name: str) -> int:
    """An integer field of the JSON format; bools and fractions raise TypeError."""
    integral = isinstance(x, int) or (isinstance(x, float) and x.is_integer())
    if isinstance(x, bool) or not integral:
        raise TypeError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _structured_from_json(obj: dict[str, Any], n: int, name: str) -> StructuredSquare:
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "dense":
        s = StructuredSquare.dense(obj["entries"])
    elif kind == "banded":
        s = StructuredSquare.banded(
            n, _json_int(obj["lower"], f"{name}.lower"),
            _json_int(obj["upper"], f"{name}.upper"),
            {_json_int(off, f"{name} band offset"): vals for off, vals in obj["bands"]},
        )
    elif kind == "diag_plus_lowrank":
        s = StructuredSquare.diag_plus_lowrank(
            obj["diag"], obj["left"], obj["right"], _json_int(obj["sign"], f"{name}.sign")
        )
    else:
        raise ValueError(f"{name}: unknown structured kind {kind!r}")
    if s.n != n:
        raise ValueError(f"{name}: order {s.n} does not match declared {n}")
    return s


def problem_to_json(prob: MareProblem) -> dict[str, Any]:
    return {
        "m": prob.m,
        "n": prob.n,
        "p": prob.p,
        "q": prob.q,
        "A": _structured_to_json(prob.A),
        "D": _structured_to_json(prob.D),
        "Bl": prob.Bl.tolist(),
        "Br": prob.Br.tolist(),
        "Cl": prob.Cl.tolist(),
        "Cr": prob.Cr.tolist(),
        "u1": prob.u1.tolist(),
        "u2": prob.u2.tolist(),
        "v1": prob.v1.tolist(),
        "v2": prob.v2.tolist(),
    }


def problem_from_json(obj: dict[str, Any]) -> MareProblem:
    if not isinstance(obj, dict):
        raise ValueError(f"problem JSON must be an object, got {type(obj).__name__}")
    try:
        m, n, p, q = (_json_int(obj[key], key) for key in ("m", "n", "p", "q"))
        prob = MareProblem(
            A=_structured_from_json(obj["A"], m, "A"),
            D=_structured_from_json(obj["D"], n, "D"),
            Bl=obj["Bl"], Br=obj["Br"], Cl=obj["Cl"], Cr=obj["Cr"],
            u1=obj["u1"], u2=obj["u2"], v1=obj["v1"], v2=obj["v2"],
        )
    except KeyError as exc:
        raise ValueError(f"problem JSON missing field {exc}") from exc
    except TypeError as exc:  # e.g. "m": null, "m": 3.7 or "bands": 5
        raise ValueError(f"problem JSON field of the wrong type ({exc})") from exc
    if prob.p != p or prob.q != q:
        raise ValueError("declared p/q do not match the factor shapes")
    return prob


def save_problem(prob: MareProblem, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_json(prob), fh)


def load_problem(path: str) -> MareProblem:
    with open(path) as fh:
        return problem_from_json(json.load(fh))

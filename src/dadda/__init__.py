"""Doubling solver for M-matrix algebraic Riccati equations with low-rank
coupling terms, built on cancellation-free GTH-like linear algebra."""

from .gth import NotMMatrixError
from .linalg import StructuredSquare, frobenius_norm, matmul
from .problem import (
    MareProblem,
    ShiftPair,
    ValidationReport,
    load_problem,
    make_shifts,
    problem_from_json,
    problem_to_json,
    save_problem,
    shifted_parts,
)
from .solver import (
    IterationRecord,
    SolveReport,
    StopCriteria,
    erres,
    ererr,
    initialize,
    normalized_residual,
    relative_change,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "IterationRecord",
    "MareProblem",
    "NotMMatrixError",
    "ShiftPair",
    "SolveReport",
    "StopCriteria",
    "StructuredSquare",
    "ValidationReport",
    "erres",
    "ererr",
    "frobenius_norm",
    "initialize",
    "load_problem",
    "make_shifts",
    "matmul",
    "normalized_residual",
    "problem_from_json",
    "problem_to_json",
    "relative_change",
    "save_problem",
    "shifted_parts",
    "solve",
]

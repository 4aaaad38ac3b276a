"""Doubling solver for M-matrix algebraic Riccati equations with low-rank
coupling terms, built on cancellation-free GTH-like linear algebra."""

from .gth import (
    DenseGthSolver,
    DiagLowRankSolver,
    DiagonalSolver,
    GthFactorization,
    NotMMatrixError,
    TripletRepresentation,
    build_solver,
    gth_factorize,
    triplet_for_capacitance,
)
from .linalg import StructuredSquare, frobenius_norm, matmul, max_entrywise_ratio
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
    DaddaState,
    IterationRecord,
    SolveReport,
    StopCriteria,
    advance,
    erres,
    ererr,
    initialize,
    kernel_triplet,
    normalized_residual,
    relative_change,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "DaddaState",
    "DenseGthSolver",
    "DiagLowRankSolver",
    "DiagonalSolver",
    "GthFactorization",
    "IterationRecord",
    "MareProblem",
    "NotMMatrixError",
    "ShiftPair",
    "SolveReport",
    "StopCriteria",
    "StructuredSquare",
    "TripletRepresentation",
    "ValidationReport",
    "advance",
    "build_solver",
    "erres",
    "ererr",
    "frobenius_norm",
    "gth_factorize",
    "initialize",
    "kernel_triplet",
    "load_problem",
    "make_shifts",
    "matmul",
    "max_entrywise_ratio",
    "normalized_residual",
    "problem_from_json",
    "problem_to_json",
    "relative_change",
    "save_problem",
    "shifted_parts",
    "solve",
    "triplet_for_capacitance",
]

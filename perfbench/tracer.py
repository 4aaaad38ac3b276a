"""Per-layer spans for the benchmark, recorded without editing the solver.

:class:`Patches` swaps every binding of a traced function for a wrapper:
the defining module's attribute, each ``from ... import`` copy in the other
``dadda`` modules, and class attributes for methods, static methods and the
``DaddaState.H`` property.  Leaving the ``with`` block puts the originals
back.  Spans stay in memory as rows ``[name, parent, start, end, note]``
(parent is a row index, -1 for a root) and are written out at the end of a
run.

Two wrapper kinds exist.  The traced pass records a timed span per call.
The memory pass records, under ``tracemalloc``, the peak a call reached
above the traced memory at its entry.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np

from dadda import gth, linalg, problem, solver

MB = 1e6


def _cols(args, kwargs, out):
    b = args[1] if len(args) > 1 else kwargs["b"]
    return 1 if b.ndim == 1 else b.shape[1]


def _matmul_shape(args, kwargs, out):
    m, k = np.shape(args[0])
    return (m, k, np.shape(args[1])[1])


def _order(args, kwargs, out):
    return out.n


def _kind(args, kwargs, out):
    return type(out).__name__


# (owner, attribute, span name, note taken from (args, kwargs, result))
TRACED = [
    (problem.MareProblem, "validate", "problem.validate", None),
    (problem, "shifted_parts", "problem.shifted_parts", None),
    (gth, "build_solver", "gth.build_solver", _kind),
    (gth.DiagLowRankSolver, "__init__", "gth.lowrank_init", None),
    (gth.DenseGthSolver, "__init__", "gth.dense_init", None),
    (gth.DiagonalSolver, "solve", "gth.shifted_solve", _cols),
    (gth.DiagLowRankSolver, "solve", "gth.shifted_solve", _cols),
    (gth.DenseGthSolver, "solve", "gth.shifted_solve", _cols),
    (gth, "gth_factorize", "gth.factorize", _order),
    (gth.GthFactorization, "solve", "gth.gth_solve", _cols),
    (gth.TripletRepresentation, "from_parts", "gth.triplet_build", None),
    (linalg, "matmul", "linalg.matmul", _matmul_shape),
    (linalg.StructuredSquare, "apply", "linalg.apply", None),
    (linalg.StructuredSquare, "offdiag_abs_apply", "linalg.offdiag_abs_apply", None),
    (linalg, "frobenius_norm", "solver.frob", None),
    (solver, "solve", "solver.solve", None),
    (solver, "initialize", "solver.initialize", None),
    (solver, "advance", "solver.advance", None),
    (solver.DaddaState, "H", "solver.materialize", None),
    (solver, "erres", "solver.criterion", None),
    (solver, "normalized_residual", "solver.criterion", None),
    (solver, "relative_change", "solver.criterion", None),
    (solver, "ererr", "solver.criterion", None),
    (solver, "rank_of_iterate", "solver.rank", None),
]

MEMORY = [
    (gth, "build_solver", "gth.build_solver", None),
    (solver.DaddaState, "H", "solver.materialize", None),
]


def _dadda_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "dadda" or name.startswith("dadda."))
    ]


class Patches:
    """Context manager installing ``make(name, fn, note)`` wrappers on ``targets``."""

    def __init__(self, targets, make):
        self.targets = targets
        self.make = make
        self.saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, original, value):
        self.saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def __enter__(self):
        try:
            for owner, attr, name, note in self.targets:
                if not isinstance(owner, type):
                    fn = getattr(owner, attr)
                    wrapper = self.make(name, fn, note)
                    for mod in _dadda_modules():
                        for key, val in list(vars(mod).items()):
                            if val is fn:
                                self._set(mod, key, fn, wrapper)
                    continue
                raw = owner.__dict__[attr]
                if isinstance(raw, property):
                    self._set(owner, attr, raw, property(self.make(name, raw.fget, note)))
                elif isinstance(raw, staticmethod):
                    self._set(owner, attr, raw, staticmethod(self.make(name, raw.__func__, note)))
                else:
                    self._set(owner, attr, raw, self.make(name, raw, note))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)

    def __exit__(self, *exc):
        self.restore()
        return False


class Spans:
    """In-memory span rows of one traced pass."""

    def __init__(self):
        self.rows: list[list] = []
        self.stack: list[int] = []
        self.last_state = None  # newest DaddaState returned by initialize

    def wrap(self, name, fn, note):
        rows, stack, clock = self.rows, self.stack, time.perf_counter
        capture = name == "solver.initialize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(rows))
            rows.append(row)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[3] = clock()
            if note is not None:
                row[4] = note(args, kwargs, out)
            if capture:
                self.last_state = out
            return out

        return traced

    def patches(self) -> Patches:
        return Patches(TRACED, self.wrap)


class MemoryPeaks:
    """Peak traced bytes reached inside each wrapped call, above its entry.

    A call resets the ``tracemalloc`` peak on entry, so the peak of a whole
    :meth:`measure` is kept here as the maximum over every segment.
    """

    def __init__(self):
        self.span_peak: dict[str, int] = {}
        self._peak = 0

    def _segment_end(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        self._peak = max(self._peak, peak)
        return current

    def wrap(self, name, fn, note):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            entry = self._segment_end()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self._peak = max(self._peak, peak)
                self.span_peak[name] = max(self.span_peak.get(name, 0), peak - entry)

        return measured

    def patches(self) -> Patches:
        return Patches(MEMORY, self.wrap)

    def measure(self, fn, *args, **kwargs) -> int:
        """Peak bytes ``fn(*args, **kwargs)`` allocated, under ``tracemalloc``."""
        self._peak = 0
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            self._segment_end()
            return self._peak
        finally:
            tracemalloc.stop()


def self_times(rows) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    child = [0.0] * len(rows)
    for _, parent, t0, t1, _ in rows:
        if parent >= 0:
            child[parent] += t1 - t0
    return [row[3] - row[2] - c for row, c in zip(rows, child)]


def _inside(rows, names) -> list[bool]:
    """Whether some ancestor of each span has a name in ``names``."""
    flags = [False] * len(rows)
    for i, (_, parent, _, _, _) in enumerate(rows):
        if parent >= 0:
            flags[i] = flags[parent] or rows[parent][0] in names
    return flags


def roots(rows) -> list[int]:
    """Index of each span's root span."""
    out = list(range(len(rows)))
    for i, row in enumerate(rows):
        if row[1] >= 0:
            out[i] = out[row[1]]
    return out


# (metric, unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = [
    ("problem.validate_s", "s", "lower"),
    ("problem.shifted_parts_s", "s", "lower"),
    ("gth.build_solver_s", "s", "lower"),
    ("gth.solver_kind.diagonal", "count", "higher"),
    ("gth.solver_kind.lowrank", "count", "higher"),
    ("gth.solver_kind.dense", "count", "lower"),
    ("gth.solver_kind.dense_fallback", "count", "lower"),
    ("gth.shifted_solve_s", "s", "lower"),
    ("gth.shifted_solve_calls", "count", "lower"),
    ("gth.shifted_solve_cols", "count", "lower"),
    ("gth.factorize_s", "s", "lower"),
    ("gth.factorize_calls", "count", "lower"),
    ("gth.factorize_order_max", "rows", "lower"),
    ("gth.factorize_flops", "flop", "lower"),
    ("gth.kernel_solve_s", "s", "lower"),
    ("gth.kernel_solve_cols", "count", "lower"),
    ("gth.triplet_build_s", "s", "lower"),
    ("linalg.matmul_s", "s", "lower"),
    ("linalg.matmul_calls", "count", "lower"),
    ("linalg.matmul_flops", "flop", "lower"),
    ("linalg.apply_s", "s", "lower"),
    ("linalg.apply_calls", "count", "lower"),
    ("linalg.offdiag_abs_apply_s", "s", "lower"),
    ("solver.initialize_s", "s", "lower"),
    ("solver.advance_s", "s", "lower"),
    ("solver.advance_self_s", "s", "lower"),
    ("solver.materialize_s", "s", "lower"),
    ("solver.materialize_calls", "count", "lower"),
    ("solver.criterion_s", "s", "lower"),
    ("solver.criterion_calls", "count", "lower"),
    ("solver.rank_s", "s", "lower"),
    ("solver.frob_s", "s", "lower"),
    ("solver.steps", "count", "lower"),
    ("solver.kernel_order_max", "rows", "lower"),
    ("solver.stalled_steps", "count", "lower"),
    ("solver.factor_blocks_mb", "MB", "lower"),
    ("peak_mem_mb", "MB", "lower"),
    ("mem.build_solver_peak_mb", "MB", "lower"),
    ("mem.materialize_peak_mb", "MB", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

_KINDS = {"DiagonalSolver": "diagonal", "DiagLowRankSolver": "lowrank", "DenseGthSolver": "dense"}
# spans whose self time each *_s metric sums; "incl." metrics sum durations
_SELF = {
    "problem.validate_s": ("problem.validate",),
    "problem.shifted_parts_s": ("problem.shifted_parts",),
    "gth.build_solver_s": ("gth.build_solver", "gth.lowrank_init", "gth.dense_init"),
    "gth.factorize_s": ("gth.factorize",),
    "gth.triplet_build_s": ("gth.triplet_build",),
    "linalg.matmul_s": ("linalg.matmul",),
    "linalg.apply_s": ("linalg.apply",),
    "linalg.offdiag_abs_apply_s": ("linalg.offdiag_abs_apply",),
    "solver.advance_self_s": ("solver.advance",),
    "solver.materialize_s": ("solver.materialize",),
    "solver.rank_s": ("solver.rank",),
    "solver.frob_s": ("solver.frob",),
}
_INCLUSIVE = {
    "solver.initialize_s": "solver.initialize",
    "solver.advance_s": "solver.advance",
    "solver.criterion_s": "solver.criterion",
}


def span_metrics(rows) -> dict[str, float]:
    """Every per-layer metric, as far as the spans alone give it."""
    selfs = self_times(rows)
    in_shifted = _inside(rows, {"gth.shifted_solve"})
    in_lowrank = _inside(rows, {"gth.lowrank_init"})
    # the names the traced pass fills in from elsewhere stay 0 here
    out = dict.fromkeys((name for name, _, _ in PER_LAYER), 0)
    by_span = {}
    for metric, names in _SELF.items():
        for name in names:
            by_span[name] = metric
    inclusive = {name: metric for metric, name in _INCLUSIVE.items()}
    for i, (name, _, t0, t1, note) in enumerate(rows):
        if name in by_span:
            out[by_span[name]] += selfs[i]
        if name in inclusive:
            out[inclusive[name]] += t1 - t0
        if name == "gth.build_solver":
            out["gth.solver_kind." + _KINDS[note]] += 1
        elif name == "gth.dense_init" and in_lowrank[i]:
            out["gth.solver_kind.dense_fallback"] += 1
        elif name == "gth.shifted_solve" and not in_shifted[i]:
            out["gth.shifted_solve_s"] += t1 - t0
            out["gth.shifted_solve_calls"] += 1
            out["gth.shifted_solve_cols"] += note
        elif name == "gth.factorize":
            out["gth.factorize_calls"] += 1
            out["gth.factorize_order_max"] = max(out["gth.factorize_order_max"], note)
            out["gth.factorize_flops"] += 2.0 * note**3 / 3.0
        elif name == "gth.gth_solve" and not in_shifted[i]:
            out["gth.kernel_solve_s"] += selfs[i]
            out["gth.kernel_solve_cols"] += note
        elif name == "linalg.matmul":
            m, k, n = note
            out["linalg.matmul_calls"] += 1
            out["linalg.matmul_flops"] += 2.0 * m * k * n
        elif name == "linalg.apply":
            out["linalg.apply_calls"] += 1
        elif name == "solver.materialize":
            out["solver.materialize_calls"] += 1
        elif name == "solver.criterion":
            out["solver.criterion_calls"] += 1
    return out


def factor_blocks_bytes(state) -> int:
    """Bytes held in the u, v, w and q block families of a DaddaState."""
    return sum(
        blk.nbytes
        for family in (state.u_blocks, state.v_blocks, state.w_blocks, state.q_blocks)
        for blk in family
    )

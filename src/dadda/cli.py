"""Command-line front end: solve, benchmark, sweep, verify.

Exit codes: 0 converged, 1 input error, 2 iteration cap reached,
3 kernel row cap exceeded, 4 verify found a violation.  Exit 1 covers bad
input, an unreadable input file and an unwritable output path alike; one
handler in ``main`` turns each such ``OSError`` or ``ValueError`` into one
``input error: ...`` line.

Benchmark CSV columns are exactly
``method,m,n,erres,ererr,rank_h,frob_h,iters,seconds`` with ``ererr``
left blank when no reference solution is known; the ``adda_oracle``
method rows appear only when m + n <= 200 (the dense reference refuses
larger problems).  Both rows come from one stopping loop (``solve`` and
``solve_dense``).  The ``seconds`` column is wall clock and is the only
column excluded from golden-file comparisons.

Report JSON schema (solve): termination, iterations, switched_at,
criterion, tolerance, alpha, beta, erres_final, frob_h, rank_h, seconds,
records (list of {k, value, kernel_order, seconds, lower_bound}).
``switched_at`` is the k at which the solve handed off from dADDA to
triplet-form ADDA, or null.  A record with ``lower_bound`` true holds a
lower bound on erres above the tolerance in place of the full criterion:
the certified factored bound, or the first row panel maximum above the
tolerance, where erres stopped (see ``solver._stopping_loop``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import sys

import numpy as np

from . import benchgen
from .gth import NotMMatrixError, TripletRepresentation, gth_factorize
from .oracle import _ORACLE_CAP
from .problem import MareProblem, load_problem, make_shifts
from .solver import (
    CRITERIA,
    SolveReport,
    StopCriteria,
    advance,
    erres,
    ererr,
    initialize,
    kernel_triplet,
    solve,
    solve_dense,
)

_EXIT_BY_TERMINATION = {
    "converged": 0,
    "max_iterations": 2,
    "kernel_cap_exceeded": 3,
}


def _criteria_from_args(args, default_tol, default_max_iter) -> StopCriteria:
    return StopCriteria(
        criterion=args.criterion,
        tolerance=args.tol if args.tol is not None else default_tol,
        max_iterations=(
            args.max_iter if args.max_iter is not None else default_max_iter
        ),
        kernel_row_cap=args.kernel_cap,
    )


def _report_to_json(report: SolveReport) -> dict:
    return {
        "termination": report.termination,
        "iterations": report.iterations,
        "switched_at": report.switched_at,
        "criterion": report.criterion,
        "tolerance": report.tolerance,
        "alpha": report.alpha,
        "beta": report.beta,
        "erres_final": report.erres_final,
        "frob_h": report.frob_h,
        "rank_h": report.rank_h,
        "seconds": report.seconds,
        "records": [dataclasses.asdict(r) for r in report.records],
    }


def _write_json(payload: dict, path: str | None) -> None:
    """``payload`` as indented JSON to ``path``, or to standard output."""
    text = json.dumps(payload, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(header, rows, path: str | None) -> None:
    """A header line and ``rows`` to ``path``, or to standard output."""
    sink = open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)
    with sink as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_solve(args) -> int:
    prob = load_problem(args.input)
    rep = prob.validate()
    if not rep.ok:
        for msg in rep.errors:
            print(f"invalid problem: {msg}", file=sys.stderr)
        return 1
    criteria = _criteria_from_args(args, default_tol=1e-14, default_max_iter=20)
    shifts = make_shifts(prob, alpha=args.alpha, beta=args.beta)
    report = solve(prob, shifts=shifts, criteria=criteria)
    _write_json(_report_to_json(report), args.out)
    if args.csv:
        np.savetxt(args.csv, report.H, delimiter=",")
    return _EXIT_BY_TERMINATION[report.termination]


# -- benchmarks --------------------------------------------------------------

# instance (problem, reference solution or None), default tolerance and
# default iteration cap of each bench-* subcommand
_BENCH = {
    "bench-fluid": (lambda args: benchgen.gen_fluid(args.m, args.n), 1e-14, 20),
    "bench-transport": (
        lambda args: (benchgen.gen_transport(args.n, args.seed), None), 1e-13, 100
    ),
}


_BENCH_HEADER = ("method", "m", "n", "erres", "ererr", "rank_h", "frob_h",
                 "iters", "seconds")


def _csv_row(method: str, prob: MareProblem, report: SolveReport, x_true) -> tuple:
    return (
        method,
        prob.m,
        prob.n,
        f"{report.erres_final:.16e}",
        f"{ererr(report.H, x_true):.16e}" if x_true is not None else "",
        report.rank_h,
        f"{report.frob_h:.16e}",
        report.iterations,
        f"{report.seconds:.6e}",
    )


def cmd_bench(args) -> int:
    """dadda and, when small enough, the dense oracle under one stopping rule."""
    instance, default_tol, default_max_iter = _BENCH[args.command]
    prob, x_true = instance(args)
    criteria = _criteria_from_args(args, default_tol, default_max_iter)
    shifts = make_shifts(prob, alpha=args.alpha, beta=args.beta)
    report = solve(prob, shifts=shifts, criteria=criteria, x_true=x_true)
    rows = [_csv_row("dadda", prob, report, x_true)]
    if prob.m + prob.n <= _ORACLE_CAP:
        dense = solve_dense(prob, shifts=shifts, criteria=criteria, x_true=x_true)
        rows.append(_csv_row("adda_oracle", prob, dense, x_true))
    _write_csv(_BENCH_HEADER, rows, args.csv)
    if args.out:
        _write_json(_report_to_json(report), args.out)
    return _EXIT_BY_TERMINATION[report.termination]


def cmd_sweep(args) -> int:
    """Each shift over [0, its admissible bound], the other at its default."""
    prob = benchgen.gen_transport(args.n, args.seed)
    criteria = _criteria_from_args(args, default_tol=1e-13, default_max_iter=100)
    bounds = make_shifts(prob)
    prefix = args.csv if args.csv else "sweep"
    for name in ("alpha", "beta"):
        rows = []
        for val in np.linspace(0.0, getattr(bounds, name), args.points):
            shifts = make_shifts(prob, **{name: float(val)})
            report = solve(prob, shifts=shifts, criteria=criteria)
            rows.append((f"{val:.16e}", report.iterations,
                         f"{report.erres_final:.16e}"))
        path = f"{prefix}_{name}.csv"
        _write_csv((name, "iters", "erres"), rows, path)
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


# -- verify ------------------------------------------------------------------


@contextlib.contextmanager
def _invariants(label, failures):
    """Record a broken sign invariant of the iteration as a failure of ``label``."""
    try:
        yield
    except NotMMatrixError as exc:
        failures.append(f"{label}: {exc}")


def _verify_fluid(sizes, failures):
    for m, n in sizes:
        prob, x_true = benchgen.gen_fluid(m, n)
        label = f"fluid {m}x{n}"
        cu2, bu1 = prob.coupling_products()
        w_ones = np.concatenate(
            [prob.D.apply(prob.u1) - cu2, prob.A.apply(prob.u2) - bu1]
        )
        if np.max(np.abs(w_ones)) > 1e-12:
            failures.append(f"{label}: W 1 != 0")
        with _invariants(label, failures):
            state = initialize(prob)
            h_prev = state.H
            for _ in range(4):
                advance(state)
                h_new = state.H
                if np.min(h_new - h_prev) < -1e-15:
                    failures.append(f"{label}: monotonicity violated at k={state.k}")
                h_prev = h_new
            res = erres(prob, state.H)
            if res > 1e-14:
                failures.append(f"{label}: erres {res:.3e} > 1e-14 at k=4")
            err = ererr(state.H, x_true)
            if err > 1e-10:
                failures.append(f"{label}: ererr {err:.3e} > 1e-10 at k=4")


def _verify_transport(n, seeds, failures):
    for seed in seeds:
        prob = benchgen.gen_transport(n, seed)
        label = f"transport n={n} seed={seed}"
        with _invariants(label, failures):
            state = initialize(prob)
            for _ in range(4):
                advance(state)
            # a negative kernel image raises inside kernel_triplet
            trip = kernel_triplet(state)
            image = trip.matrix() @ trip.u
            target = trip.v
            scale = max(float(np.max(np.abs(target))), 1e-300)
            if float(np.max(np.abs(image - target))) > 1e-12 * scale:
                failures.append(f"{label}: kernel triplet identity")
            inv = np.linalg.inv(np.eye(trip.n) - state.Y @ state.Z)
            if float(np.min(inv)) < -1e-12:
                failures.append(f"{label}: kernel inverse negative")


def _verify_gth(seed, failures):
    rng = np.random.Generator(np.random.Philox(seed))
    # 20 small orders, each one panel, then two orders that run several
    # panels (one of them with a ragged last panel), then the kernel
    # orders of the transport workload's ADDA steps and its largest
    # one-panel dADDA kernel
    small = (int(rng.integers(2, 9)) for _ in range(20))
    for trial, k in enumerate(itertools.chain(small, (230, 837, 20, 100, 128))):
        N = rng.uniform(size=(k, k))
        np.fill_diagonal(N, 0.0)
        u = rng.uniform(0.5, 1.5, size=k)
        v = rng.uniform(0.1, 1.0, size=k)
        trip = TripletRepresentation.from_parts(N, u, v)
        b = rng.uniform(size=k)
        M = trip.matrix()
        name = f"gth trial {trial}"
        with _invariants(name, failures):
            fact = gth_factorize(trip)
            for transpose in (False, True):
                x = fact.solve(b, transpose=transpose)
                side = "transposed " if transpose else ""
                if np.any(x < 0.0):
                    failures.append(f"{name}: negative {side}solution for b >= 0")
                ref = np.linalg.solve(M.T if transpose else M, b)
                rel = float(np.max(np.abs(x - ref) / np.maximum(np.abs(ref), 1e-300)))
                if rel > 1e-12:
                    failures.append(f"{name}: {side}relative error {rel:.3e}")


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    """``MxN`` pairs separated by commas."""
    sizes = []
    try:
        for chunk in text.split(","):
            m, n = (int(t) for t in chunk.split("x"))
            sizes.append((m, n))
    except ValueError:
        raise ValueError(f"bad --sizes {text!r}") from None
    return sizes


def cmd_verify(args) -> int:
    # a NotMMatrixError of a walk is a failure, recorded by _invariants; any
    # other ValueError is an input error
    failures: list[str] = []
    sizes = _parse_sizes(args.sizes) if args.sizes else [(2, 18), (18, 2), (90, 10)]
    family = args.family
    if family in ("fluid", "all"):
        _verify_fluid(sizes, failures)
    if family in ("transport", "all"):
        _verify_transport(args.n, [args.seed, args.seed + 1], failures)
    if family in ("gth", "all"):
        _verify_gth(args.seed, failures)
    _write_json({"ok": not failures, "failures": failures}, args.out)
    if args.out:
        print(f"verify: {len(failures)} failure(s)")
    return 4 if failures else 0


# -- argument parsing --------------------------------------------------------


def _add_stopping(parser):
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-iter", type=int, default=None)
    parser.add_argument("--criterion", default=StopCriteria.criterion,
                        choices=CRITERIA)
    parser.add_argument("--kernel-cap", type=int,
                        default=StopCriteria.kernel_row_cap)


def _add_common(parser):
    parser.add_argument("--alpha", type=float, default=None,
                        help="shift for A (default: largest admissible)")
    parser.add_argument("--beta", type=float, default=None,
                        help="shift for D (default: largest admissible)")
    _add_stopping(parser)
    parser.add_argument("--out", default=None, help="JSON report path")
    parser.add_argument("--csv", default=None, help="CSV output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dadda",
        description="Doubling solver for M-matrix algebraic Riccati equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem from a JSON file")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench-fluid", help="run the fluid-flow family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bench-transport", help="run the transport family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="sweep both shifts on a transport instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=200)
    _add_stopping(p)
    p.add_argument("--csv", default=None,
                   help="output path prefix (default: sweep)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run invariant checks on generated instances")
    p.add_argument("--family", default="all",
                   choices=["fluid", "transport", "gth", "all"])
    p.add_argument("--sizes", default=None,
                   help="fluid sizes as MxN pairs, e.g. 2x18,90x10")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # ValueError covers NotMMatrixError and json.JSONDecodeError
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

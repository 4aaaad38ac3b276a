"""dadda benchmark: time to solution, set-up time, memory and solved share.

    python3 perfbench/run.py --workload {transport,fluid,banded} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Every solve goes through ``dadda.solver.solve``, one at a time,
in this process, with BLAS pinned to one thread.

``--trace 0`` prints the end-to-end metrics, all from untraced solves:

- ``solve_s``: one ``solve()`` per instance, summed over the workload's
  instances; the median over passes repeated for ``--seconds``;
- ``setup_s``: ``validate()`` plus ``initialize()``, the median over
  rounds of each instance, summed over instances; the rounds follow each
  untraced solve and take a fifth of its time (one at least);
- ``peak_rss_mb``: the process's peak resident set after those passes;
- ``solved_frac``: share of solves that pass the output gate.

``--trace 1`` repeats the untraced passes, then runs one traced pass (spans
around every layer's public functions, see ``tracer.py``) and one memory
pass under ``tracemalloc``, and prints the per-layer metrics.  Spans are
written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
solves that raised or returned a wrong iterate; a solve that stops short of
its tolerance with a truthful termination counts against ``solved_frac``
instead (``failed_frac`` on the human-readable lines counts both).
"""

import os

if __name__ == "__main__":
    # before numpy loads BLAS; importing this module (as the tests do) pins nothing
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "dadda").is_dir():
    sys.exit(f"run from a dadda checkout: {SRC / 'dadda'} is missing")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np
import scipy

from dadda import solver

import instances
import tracer

# set-up rounds after each untraced solve, as a share of that solve's time
SETUP_SHARE = 0.2

END_TO_END = [
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("solved_frac", "ratio"),
]


def blas_line() -> str:
    """Each loaded OpenBLAS with its version and the thread count it reports."""
    builds = {
        "numpy": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    libs = sorted({ln.split()[-1] for ln in open("/proc/self/maps") if "openblas" in ln})
    threads = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads.append(str(getattr(lib, sym)()))
                break
    return (
        ", ".join(f"{pkg} blas {b['name']} {b['version']}" for pkg, b in builds.items())
        + f", blas threads {'/'.join(threads) or '?'}"
    )


def platform_line() -> str:
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, {blas_line()}, nproc {os.cpu_count()}"
    )


def setup_seconds(inst) -> float:
    t0 = time.perf_counter()
    inst.problem.validate()
    solver.initialize(inst.problem)
    return time.perf_counter() - t0


def untraced_pass(insts, verdicts, setup=None):
    """Solve every instance once; returns (seconds, outcomes).

    ``outcomes`` holds (termination, iterations, erres_final) per instance,
    or None where the solve raised.  Each verdict is appended to
    ``verdicts``.  With ``setup`` (one list per instance), each solve is
    followed by set-up rounds of the same instance for SETUP_SHARE of its
    solve time, so set-up samples spread over the whole run.
    """
    total = 0.0
    outcomes = []
    for i, inst in enumerate(insts):
        t0 = time.perf_counter()
        try:
            report = solver.solve(inst.problem, criteria=inst.criteria)
        except Exception:
            report = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        total += elapsed
        if report is None:
            verdicts.append(instances.Verdict(wrong=["solve raised"]))
            outcomes.append(None)
        else:
            verdicts.append(instances.check(inst, report))
            outcomes.append((report.termination, report.iterations, report.erres_final))
            del report
        if setup is not None:
            budget = SETUP_SHARE * elapsed
            spent = 0.0
            while spent < budget or not setup[i]:
                setup[i].append(setup_seconds(inst))
                spent += setup[i][-1]
    return total, outcomes


def traced_pass(insts):
    """Solve every instance with spans on; returns (spans, seconds, outcomes, extras)."""
    spans = tracer.Spans()
    total = 0.0
    outcomes = []
    steps = stalled = order_max = 0
    blocks = 0
    with spans.patches():
        for inst in insts:
            inst.problem.validate()
            t0 = time.perf_counter()
            report = solver.solve(inst.problem, criteria=inst.criteria)
            total += time.perf_counter() - t0
            outcomes.append((report.termination, report.iterations, report.erres_final))
            values = [rec.value for rec in report.records]
            steps += report.iterations
            stalled += sum(b >= a for a, b in zip(values, values[1:]))
            order_max = max(order_max, max(rec.kernel_order for rec in report.records))
            blocks = max(blocks, tracer.factor_blocks_bytes(spans.last_state))
            spans.last_state = None
            del report
    extras = {
        "solver.steps": steps,
        "solver.stalled_steps": stalled,
        "solver.kernel_order_max": order_max,
        "solver.factor_blocks_mb": blocks / tracer.MB,
    }
    return spans, total, outcomes, extras


def memory_pass(insts) -> dict[str, float]:
    """tracemalloc peak of each solve() (maximum over instances) and of its
    build_solver and DaddaState.H calls."""
    peaks = tracer.MemoryPeaks()
    solve_peak = 0
    with peaks.patches():
        for inst in insts:
            peak = peaks.measure(solver.solve, inst.problem, criteria=inst.criteria)
            solve_peak = max(solve_peak, peak)
    return {
        "peak_mem_mb": solve_peak / tracer.MB,
        "mem.build_solver_peak_mb": peaks.span_peak.get("gth.build_solver", 0) / tracer.MB,
        "mem.materialize_peak_mb": peaks.span_peak.get("solver.materialize", 0) / tracer.MB,
    }


def write_spans(path: Path, header: dict, rows) -> None:
    path.parent.mkdir(exist_ok=True)
    names = sorted({row[0] for row in rows})
    index = {name: i for i, name in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({
            **header,
            "names": names,
            "columns": ["name", "parent", "start", "end", "note"],
            "rows": [[index[r[0]], r[1], r[2], r[3], r[4]] for r in rows],
        }, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    plat = platform_line()
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    print(f"# platform: {plat}")
    insts = instances.build(args.workload, args.seed)

    verdicts: list[instances.Verdict] = []
    setup = [[] for _ in insts] if args.trace == 0 else None
    pass_seconds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        seconds, outcomes = untraced_pass(insts, verdicts, setup)
        pass_seconds.append(seconds)
        if time.perf_counter() >= deadline:
            break
    solve_s = statistics.median(pass_seconds)
    for inst, outcome, verdict in zip(insts, outcomes, verdicts[-len(insts):]):
        status = "raised" if outcome is None else (
            f"{outcome[0]} k={outcome[1]} erres {outcome[2]:.3e}")
        reasons = "; ".join(verdict.unmet + verdict.wrong) or "passes"
        print(f"# {inst.label}: {status}: {reasons}")
    attempted = len(verdicts)
    wrong = sum(bool(v.wrong) for v in verdicts)
    gate_failed = sum(not v.passed for v in verdicts)
    correct = wrong == 0
    print(f"# {len(pass_seconds)} untraced passes: "
          + ", ".join(f"{s:.4f}" for s in pass_seconds) + " s")

    if args.trace == 0:
        print("# set-up rounds per instance: " + ", ".join(str(len(r)) for r in setup))
        values = {
            "solve_s": solve_s,
            "setup_s": sum(statistics.median(r) for r in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "solved_frac": (attempted - gate_failed) / attempted,
        }
        table = END_TO_END
    else:
        spans, traced_s, traced_outcomes, extras = traced_pass(insts)
        if traced_outcomes != outcomes:
            correct = False
            print(f"# traced pass differs from untraced: {traced_outcomes} != {outcomes}")
        values = {**tracer.span_metrics(spans.rows), **extras, **memory_pass(insts),
                  "trace.overhead_frac": traced_s / solve_s - 1.0}
        # self times of the spans under each solve() add up to the traced
        # solve time, which differs from solve_s by the tracing overhead
        selfs = tracer.self_times(spans.rows)
        top = tracer.roots(spans.rows)
        solve_self = sum(s for s, r in zip(selfs, top) if spans.rows[r][0] == "solver.solve")
        if min(selfs, default=0.0) < -1e-9 or (
            abs(solve_self - solve_s) > abs(traced_s - solve_s) + 1e-3 * solve_s
        ):
            correct = False
            print(f"# self times inconsistent: min {min(selfs):.3g} s, "
                  f"sum {solve_self:.6g} s vs solve_s {solve_s:.6g} s")
        write_spans(
            HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "platform": plat},
            spans.rows,
        )
        table = [(name, unit) for name, unit, _ in tracer.PER_LAYER]
    for name, unit in table:
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"failed_frac {gate_failed / attempted:.6g} ratio")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": wrong,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

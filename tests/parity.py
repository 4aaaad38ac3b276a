"""Bitwise parity dumps of the solver over a fixed set of solves.

    PYTHONPATH=src python tests/parity.py dump OUT.json
    python tests/parity.py compare BEFORE.json AFTER.json

``dump`` solves the parity set with the ``dadda`` on the import path and
writes, per solve: termination, iterations, ``switched_at``, a sha256 of H
and of the dual iterate G (``report.G``, read for the ``solve`` runs only,
so the dense reference's G is ``null``), ``erres_final``, ``frob_h`` and
``rank_h``, and every record's k, kernel order, ``lower_bound`` flag and
value.  The dump also records how many CPUs the process may run on (its
affinity count): with two or more, H and ``erres`` run their two row
halves at once, with one both in order, and the values must not differ.  The fluid
instances, whose exact solution is known, also get ``ererr`` against it, so
a stopping step that moved shows what it costs in accuracy (``null``
elsewhere).  Floats are written in hex, so two dumps are equal exactly when
the solves are bitwise equal.  Record seconds are left out.

``compare`` prints every field that differs between two dumps, with both
values for the scalar fields that a moved stopping step changes
(termination, iterations, ``switched_at``, ``erres_final``, ``ererr``)
and for ``frob_h``, whose relative change it adds, and exits 1 if any
field differs, 0 if the whole set is bitwise equal.  It prints the CPU
counts of both dumps first.  Its summary lines
count the solves whose termination, iterations or ``switched_at`` moved,
and the solves that differ only in ``frob_h`` and in records that are a
lower bound on either side (their flag and value): a change at rounding
level alters every hash, one to the report's norm or to how far erres
reads past the tolerance alters neither the iterates nor a full
evaluation, and these counts are what separate them from a change that
alters the iteration.  The last three lines say whether every H and G
hash matched, and give the largest relative change of ``erres_final`` and
of a record value that is a full evaluation on both sides: a criterion
that moves at rounding level reads as one number there.

The parity set: every ``perfbench`` instance at seeds 1 and 3, each under
its own stopping rule, and ``random_mare`` (``tests/conftest.py``) of each
kind under ``erres``, ``nres`` and ``rchange``, small enough to run every
step ungated, each solved by ``solve`` and by the dense reference
``solve_dense``, plus one order-200 instance per kind that the ``erres``
gate applies to, and one solve that the kernel row cap stops.  So the
set runs all three iterates (dADDA, triplet ADDA after a hand-off, dense
ADDA) and every termination.  BLAS runs on one thread, as in the
benchmark: every product of the iteration, ``erres``'s two reductions
over a long side of H and its in-panel products use BLAS, whose rounding
depends on the thread count, so every iterate and ``erres`` value, and
with them a stopping step, do too.

Named ``parity.py`` so that pytest does not collect it.
"""

import os

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import hashlib
import json
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

SEEDS = (1, 3)
KINDS = ("dense", "lowrank", "banded")
CRITERIA = ("erres", "nres", "rchange")
RANDOM_SEEDS = (2, 5, 11)


def _cases():
    """(label, solve, exact, dual) of every solve in the parity set.

    ``solve()`` returns its report; ``exact`` is the entry of a fluid
    instance's exact solution ``exact * ones``, None elsewhere; ``dual``
    says whether the dump reads the report's G.
    """
    import instances
    from conftest import random_mare

    from dadda.benchgen import gen_transport
    from dadda.solver import StopCriteria, solve, solve_dense

    def dadda(prob, criteria):
        return partial(solve, prob, criteria=criteria)

    for workload in instances.WORKLOADS:
        for seed in SEEDS:
            for inst in instances.build(workload, seed):
                run = dadda(inst.problem, inst.criteria)
                yield f"{inst.label} seed={seed}", run, inst.exact, True
    for kind in KINDS:
        for seed in RANDOM_SEEDS:
            prob = random_mare(seed, kind=kind)
            for criterion in CRITERIA:
                label = f"random_mare({seed}, kind={kind}) {criterion}"
                criteria = StopCriteria(criterion=criterion, tolerance=1e-13, max_iterations=12)
                yield label, dadda(prob, criteria), None, True
                yield f"{label} dense", partial(solve_dense, prob, criteria=criteria), None, False
        yield (
            f"random_mare(7, m=200, n=190, kind={kind}) erres",
            dadda(random_mare(7, m=200, n=190, kind=kind),
                  StopCriteria(tolerance=1e-13, max_iterations=12)),
            None,
            True,
        )
    yield (
        "gen_transport(100, 1) kernel_row_cap=64",
        dadda(gen_transport(100, 1), StopCriteria(tolerance=1e-12, kernel_row_cap=64)),
        None,
        True,
    )


def _sha(a) -> str | None:
    if a is None:
        return None
    import numpy as np

    a = np.ascontiguousarray(a, dtype=np.float64)
    return hashlib.sha256(str(a.shape).encode() + a.tobytes()).hexdigest()


def dump(path: str) -> None:
    import numpy as np

    from dadda.solver import ererr

    out = {}
    cpus = len(os.sched_getaffinity(0))
    for label, run, exact, dual in _cases():
        rep = run()
        err = None if exact is None else float(ererr(rep.H, np.full(rep.H.shape, exact))).hex()
        out[label] = {
            "termination": rep.termination,
            "iterations": rep.iterations,
            "switched_at": rep.switched_at,
            "H": _sha(rep.H),
            "G": _sha(rep.G) if dual else None,
            "erres_final": float(rep.erres_final).hex(),
            "frob_h": float(rep.frob_h).hex(),
            "rank_h": rep.rank_h,
            "ererr": err,
            "records": [
                [r.k, r.kernel_order, r.lower_bound, float(r.value).hex()]
                for r in rep.records
            ],
        }
        print(f"{label}: {rep.termination} at k = {rep.iterations}", flush=True)
    Path(path).write_text(json.dumps({"cpus": cpus, "solves": out}, indent=1) + "\n")


_SHOWN = ("termination", "iterations", "switched_at", "erres_final", "ererr", "frob_h")
_STEPS = ("termination", "iterations", "switched_at")


def _show(key: str, value) -> str:
    """A dumped scalar for reading, its hex floats in decimal."""
    if key in ("erres_final", "ererr") and value is not None:
        return f"{float.fromhex(value):.3g}"
    if key == "frob_h":
        return f"{float.fromhex(value):.17g}"
    return str(value)


def _bounds_and_norm_only(old: dict, new: dict) -> bool:
    """Whether two dumps of one solve differ, and only in ``frob_h`` and in
    records that are a lower bound on either side."""
    if old == new or any(old.get(k) != new.get(k) for k in old.keys() | new.keys()
                         if k not in ("frob_h", "records")):
        return False
    a, b = old["records"], new["records"]
    return len(a) == len(b) and all(
        r[:2] == s[:2] and (r == s or r[2] or s[2]) for r, s in zip(a, b)
    )


def compare(before: str, after: str) -> int:
    a = json.loads(Path(before).read_text())
    b = json.loads(Path(after).read_text())
    print(f"CPUs: {a['cpus']} in {before}, {b['cpus']} in {after}")
    a, b = a["solves"], b["solves"]
    diffs = [f"only in {before}: {label}" for label in a.keys() - b.keys()]
    diffs += [f"only in {after}: {label}" for label in b.keys() - a.keys()]
    for label in a.keys() & b.keys():
        for key in a[label].keys() | b[label].keys():
            old, new = a[label].get(key), b[label].get(key)
            if old == new:
                continue
            if key in _SHOWN:
                line = f"{label}: {key} {_show(key, old)} -> {_show(key, new)}"
                if key == "frob_h":
                    x, y = float.fromhex(old), float.fromhex(new)
                    line += f" (relative {(y - x) / x:+.2g})" if x else ""
                diffs.append(line)
            else:
                diffs.append(f"{label}: {key} differs")
    moved = sum(
        any(a[label].get(key) != b[label].get(key) for key in _STEPS)
        for label in a.keys() & b.keys()
    )
    benign = sum(_bounds_and_norm_only(a[label], b[label]) for label in a.keys() & b.keys())
    both = [(a[label], b[label]) for label in sorted(a.keys() & b.keys())]
    hashes = all(old[key] == new[key] for old, new in both for key in ("H", "G"))
    finals = [(old["erres_final"], new["erres_final"]) for old, new in both]
    full = [
        (r[3], s[3])
        for old, new in both
        for r, s in zip(old["records"], new["records"])
        if r[:2] == s[:2] and not (r[2] or s[2])
    ]
    for line in sorted(diffs):
        print(line)
    print(f"{len(both)} solves compared, {len(diffs)} differences")
    print(f"{moved} solves moved their termination, iterations or switched_at")
    print(f"{benign} solves differ only in frob_h and in lower-bound records")
    print(f"H and G hashes {'all match' if hashes else 'differ'}")
    print(f"largest relative change of erres_final: {_largest_change(finals)}")
    print(f"largest relative change of a full record value: {_largest_change(full)}")
    return 1 if diffs else 0


def _largest_change(pairs) -> str:
    """The largest |new - old| / |old| over pairs of hex floats, with its pair."""
    worst, shown = -1.0, "none"
    for old, new in pairs:
        x, y = float.fromhex(old), float.fromhex(new)
        if x == y or (x != x and y != y):
            change = 0.0
        else:
            change = abs(y - x) / abs(x) if x else float("inf")
        if change > worst:
            worst, shown = change, f"{change:.2g} ({x:.3g} -> {y:.3g})"
    return "0, all bitwise equal" if worst == 0.0 else shown


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[0], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

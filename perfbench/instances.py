"""Workload instances of the dadda benchmark and the output gate behind its failure counts.

Every instance is built here from the benchmark seed; the solver only ever
receives the resulting ``MareProblem`` and its ``StopCriteria``.

- ``transport``: the coefficient matrices are those of
  ``gen_transport(100, 1)``, ``gen_transport(100, 2)`` and the near-critical
  ``gen_transport(20, 1, alpha_t=1e-8, beta_t=1-1e-6)``.  The seed redraws
  each instance's triplet certificate (v1, v2 and hence u1, u2), which moves
  every GTH pivot and kernel image but not the iterates, so every seed does
  the same amount of work.  Drawing the matrices themselves from the seed
  does not: the random node set moves the step count of the n = 100 family
  between 7 and 13 (0.1 s to 20 s per solve) and the near-critical solve
  time by 2x at the same step count.
- ``fluid``: ``gen_fluid`` has no randomness; the seed is unused.
- ``banded``: tridiagonal A and D of order 2000, every entry drawn from the
  seed (see :func:`gen_banded`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from dadda import oracle
from dadda.benchgen import draw_transport, gen_fluid
from dadda.linalg import StructuredSquare, ordered_dot
from dadda.problem import MareProblem, ShiftPair
from dadda.solver import SolveReport, StopCriteria, ererr

# acceptance criterion 02's bound for agreement with the dense oracle
ORACLE_RTOL = 1e-10
ORACLE_FLOOR = 1e-30
# the bound ``dadda verify`` applies to fluid iterates
FLUID_ERERR_TOL = 1e-10

TRANSPORT_MATRIX_SEEDS = (1, 2)
NEAR_CRITICAL = {"alpha_t": 1e-8, "beta_t": 1.0 - 1e-6}
BANDED_ORDER = 2000


@dataclass(frozen=True, eq=False)
class Instance:
    """One solve of a workload: the problem, its stopping rule and its checks."""

    label: str
    problem: MareProblem
    criteria: StopCriteria
    exact: float | None = None  # fluid: the minimal solution is exact * ones
    oracle_check: bool = False  # transport: compare H with the dense oracle


@dataclass
class Verdict:
    """Output gate result.  ``unmet``: the solve stopped short of its
    tolerance.  ``wrong``: the returned iterate is incorrect, or the solve
    raised."""

    unmet: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (self.unmet or self.wrong)


def _with_certificate(draw, rng: np.random.Generator) -> MareProblem:
    """The transport problem of ``draw`` with (v1, v2) redrawn from ``rng``.

    u solves W u = v through the same global rank-one splitting
    W = diag(dg) - pg rg^T that ``benchgen.draw_transport`` uses.
    """
    prob = draw.problem
    n = prob.n
    q = draw.q
    dg = np.concatenate([prob.D.d, prob.A.d])
    pg = np.concatenate([q, np.ones(n)])
    rg = np.concatenate([np.ones(n), q])
    dinv_p = pg / dg
    delta = 1.0 - ordered_dot(rg, dinv_p)
    v1 = rng.uniform(size=n)
    v2 = rng.uniform(size=n)
    dinv_v = np.concatenate([v1, v2]) / dg
    u = dinv_v + dinv_p * (ordered_dot(rg, dinv_v) / delta)
    return dataclasses.replace(prob, u1=u[:n], u2=u[n:], v1=v1, v2=v2)


def transport(seed: int) -> list[Instance]:
    rng = np.random.Generator(np.random.Philox(seed))
    regular = StopCriteria(tolerance=1e-12, max_iterations=30)
    out = [
        Instance(
            f"transport n=100 matrices-seed={s}",
            _with_certificate(draw_transport(100, s), rng),
            regular,
            oracle_check=True,
        )
        for s in TRANSPORT_MATRIX_SEEDS
    ]
    out.append(
        Instance(
            "transport n=20 near-critical",
            _with_certificate(draw_transport(20, 1, **NEAR_CRITICAL), rng),
            regular,
            oracle_check=True,
        )
    )
    return out


def fluid(seed: int) -> list[Instance]:
    del seed  # gen_fluid is deterministic
    out = []
    for m, n, steps in ((7200, 800, 30), (800, 7200, 6)):
        prob, _ = gen_fluid(m, n)
        out.append(
            Instance(
                f"fluid {m}x{n}",
                prob,
                StopCriteria(tolerance=1e-14, max_iterations=steps),
                exact=1.0 / max(m, n),
            )
        )
    return out


def gen_banded(order: int, seed: int) -> MareProblem:
    """Tridiagonal MARE with p = q = 1 and the certificate u = ones.

    Draw order from Philox(seed): off-diagonals of A (sub, super) and of D
    (sub, super), uniform in [0.5, 1]; v1, v2 uniform in [3.6, 4.4]; Bl, Br,
    Cl, Cr uniform in [0, 1), with Br scaled by 1/n and Cr by 1/m.  Each
    diagonal follows from the triplet identity W ones = v, so it is
    v + B ones (or C ones) + the row's off-diagonal mass.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    m = n = order
    off = [rng.uniform(0.5, 1.0, size=order - 1) for _ in range(4)]
    v1 = rng.uniform(3.6, 4.4, size=n)
    v2 = rng.uniform(3.6, 4.4, size=m)
    Bl = rng.uniform(size=(m, 1))
    Br = rng.uniform(size=(n, 1)) / n
    Cl = rng.uniform(size=(n, 1))
    Cr = rng.uniform(size=(m, 1)) / m

    def tridiagonal(sub, sup, image):
        mass = np.zeros(order)
        mass[1:] += sub
        mass[:-1] += sup
        return StructuredSquare.banded(order, 1, 1, {-1: -sub, 0: image + mass, 1: -sup})

    A = tridiagonal(off[0], off[1], v2 + Bl[:, 0] * float(np.sum(Br)))
    D = tridiagonal(off[2], off[3], v1 + Cl[:, 0] * float(np.sum(Cr)))
    return MareProblem(
        A=A, D=D, Bl=Bl, Br=Br, Cl=Cl, Cr=Cr,
        u1=np.ones(n), u2=np.ones(m), v1=v1, v2=v2,
    )


def banded(seed: int) -> list[Instance]:
    return [
        Instance(
            f"banded tridiagonal {BANDED_ORDER}",
            gen_banded(BANDED_ORDER, seed),
            StopCriteria(tolerance=1e-13),
        )
    ]


WORKLOADS = {"transport": transport, "fluid": fluid, "banded": banded}


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's instances; each must pass ``validate()``."""
    insts = WORKLOADS[workload](seed)
    for inst in insts:
        rep = inst.problem.validate()
        if not rep.ok:
            raise ValueError(f"{inst.label}: invalid instance: {rep.errors}")
    return insts


def check(inst: Instance, report: SolveReport) -> Verdict:
    """Apply the output gate to one solve; runs outside every timed span."""
    verdict = Verdict()
    if report.termination != "converged":
        verdict.unmet.append(f"termination {report.termination}")
    if not report.erres_final <= inst.criteria.tolerance:
        verdict.unmet.append(
            f"erres_final {report.erres_final:.3e} > {inst.criteria.tolerance:.0e}"
        )
    H = report.H
    if not np.all(np.isfinite(H)) or np.any(H < 0.0):
        verdict.wrong.append("H has a negative or non-finite entry")
        return verdict
    if inst.exact is not None:
        err = ererr(H, np.full(H.shape, inst.exact))
        if not err <= FLUID_ERERR_TOL:
            verdict.wrong.append(f"ererr {err:.3e} > {FLUID_ERERR_TOL:.0e}")
    if inst.oracle_check:
        shifts = ShiftPair(alpha=report.alpha, beta=report.beta)
        ref = oracle.iterate_oracle(inst.problem, shifts, report.iterations)[3]
        mask = np.abs(ref) > ORACLE_FLOOR
        rel = float(np.max(np.abs(H - ref)[mask] / np.abs(ref)[mask], initial=0.0))
        if not rel <= ORACLE_RTOL:
            verdict.wrong.append(
                f"differs from oracle at k={report.iterations} by {rel:.3e} relative"
            )
    return verdict

"""Acceptance battery: one test per release criterion, pinned tolerances.

Each test prints a single ``criterion NN <slug>: PASS/FAIL`` verdict line
(shown with ``pytest -s``, or in the captured output otherwise); the
assertion carries the same bound, so the ``-v`` test status mirrors the
verdict.  Numbers quoted in comments are the pinned acceptance bounds.
"""

import csv
import time

import numpy as np

from conftest import fraction_solve, random_mare, random_triplet
from dadda import oracle
from dadda.benchgen import gen_fluid, gen_transport
from dadda.cli import main as cli_main
from dadda.gth import DiagLowRankSolver, TripletRepresentation, gth_factorize
from dadda.linalg import frobenius_norm, matmul
from dadda.problem import make_shifts
from dadda.solver import (
    StopCriteria,
    advance,
    erres,
    ererr,
    initialize,
    kernel_triplet,
    solve,
)


def _verdict(num, slug, ok, detail=""):
    line = f"criterion {num:02d} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_fluid_golden_run():
    # four fixed sizes; exactly 4 doubling steps to erres <= 1e-14, the
    # known solution recovered to 1e-10, rank-one iterate, < 5 s total
    sizes = ((2, 18), (18, 2), (90, 10), (180, 20))
    t0 = time.perf_counter()
    ok = True
    details = []
    for m, n in sizes:
        prob, x_true = gen_fluid(m, n)
        rep = solve(
            prob,
            criteria=StopCriteria(
                criterion="erres", tolerance=1e-14, max_iterations=20
            ),
        )
        err = ererr(rep.H, x_true)
        frob_rel = abs(rep.frob_h - frobenius_norm(x_true)) / frobenius_norm(x_true)
        ok &= rep.termination == "converged"
        ok &= rep.iterations == 4
        ok &= rep.erres_final <= 1e-14
        ok &= err <= 1e-10
        ok &= rep.rank_h == 1
        ok &= frob_rel <= 1e-6
        details.append(
            f"{m}x{n} k={rep.iterations} erres={rep.erres_final:.1e} ererr={err:.1e}"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _verdict(1, "fluid-golden-run", ok, "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    # 50 random instances (m, n <= 30, p, q <= 3): decoupled iterates match
    # the dense doubling reference for k <= 5 to 1e-10 entrywise relative
    # on entries above 1e-30; < 30 s
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        prob = random_mare(seed)
        sh = make_shifts(prob)
        state = initialize(prob, sh)
        for k in range(6):
            if k:
                advance(state)
            ref = oracle.iterate_oracle(prob, sh, k)[3]
            mask = np.abs(ref) > 1e-30
            if mask.any():
                rel = np.abs(state.H - ref)[mask] / np.abs(ref)[mask]
                worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _verdict(2, "oracle-equivalence", ok, f"worst rel {worst:.2e}; {elapsed:.1f}s")


def test_criterion_03_kernel_triplet_identity():
    # transport n in {10, 20, 40}, k <= 6: (I - Y Z) u = v to 1e-12
    # relative to ||v||_inf, with both accumulated v blocks exactly >= 0
    ok = True
    worst = 0.0
    for n in (10, 20, 40):
        for seed in (0, 3):
            state = initialize(gen_transport(n, seed=seed))
            for k in range(7):
                if k:
                    advance(state)
                trip = kernel_triplet(state)
                m_true = np.eye(trip.n) - matmul(state.Y, state.Z)
                resid = np.abs(m_true @ trip.u - trip.v).max()
                scale = np.abs(trip.v).max()
                worst = max(worst, resid / scale)
                ok &= resid <= 1e-12 * scale
                ok &= bool(np.all(state.v1k >= 0.0))
                ok &= bool(np.all(state.v2k >= 0.0))
    _verdict(3, "kernel-triplet-identity", ok, f"worst rel resid {worst:.2e}")


def test_criterion_04_kernel_inverse_nonnegative():
    # the kernels stay nonsingular M-matrices: dense inverses of
    # I - Y_k Z_k at k <= 4 are entrywise >= -1e-12
    cases = [
        gen_transport(10, seed=0),
        gen_transport(20, seed=1),
        gen_fluid(2, 18)[0],
        random_mare(0),
        random_mare(1),
        random_mare(2),
    ]
    low = 0.0
    for prob in cases:
        state = initialize(prob)
        for k in range(5):
            if k:
                advance(state)
            order = (2**state.k) * state.prob.p
            inv = np.linalg.inv(np.eye(order) - matmul(state.Y, state.Z))
            low = min(low, float(inv.min()))
    ok = low >= -1e-12
    _verdict(4, "kernel-inverse-nonnegative", ok, f"min inverse entry {low:.2e}")


def test_criterion_05_gth_extended_precision():
    # 200 random M-matrices of order <= 12, every 4th nearly singular
    # (v ~ 1e-10): entrywise relative error vs the exact rational solve
    # <= 1e-13, and nonnegative right-hand sides never produce a negative
    rng = np.random.Generator(np.random.Philox(505))
    worst = 0.0
    violations = 0
    for trial in range(200):
        order = int(rng.integers(2, 13))
        v_scale = 1e-10 if trial % 4 == 0 else 1.0
        N, u, v = random_triplet(rng, order, v_scale=v_scale)
        b = rng.uniform(0.1, 1.0, size=order)
        x = gth_factorize(TripletRepresentation.from_parts(N, u, v)).solve(b)
        violations += int(np.any(x < 0.0))
        ref = np.asarray(fraction_solve(N, u, v, b))
        worst = max(worst, float(np.max(np.abs(x - ref) / np.abs(ref))))
    ok = worst <= 1e-13 and violations == 0
    _verdict(
        5,
        "gth-extended-precision",
        ok,
        f"worst entrywise rel {worst:.2e}; sign violations {violations}",
    )


def _smw_instance(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    P = rng.uniform(0.1, 1.0, size=(n, 1))
    R = rng.uniform(0.1, 1.0, size=(n, 1))
    u = rng.uniform(0.5, 2.0, size=n)
    v = rng.uniform(0.1, 1.0, size=n)
    # diagonal from the triplet identity, so (u, v) certifies diag(d) - P R^T
    d = (v + P[:, 0] * float(R[:, 0] @ u)) / u
    b = rng.uniform(0.0, 1.0, size=n)
    return d, P, R, u, v, b


def _smw_time(n, reps=9):
    args = _smw_instance(n, seed=n)
    DiagLowRankSolver(*args[:5]).solve(args[5])
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        DiagLowRankSolver(*args[:5]).solve(args[5])
        times.append(time.perf_counter() - t0)
    return min(times)


def test_criterion_06_smw_fast_path():
    # 100 diag-minus-rank-one instances: the rank-one route matches dense
    # GTH on the expanded triplet to 1e-14 entrywise; doubling n from 1e5
    # to 2e5 costs at most 2.6x
    worst = 0.0
    for seed in range(100):
        d, P, R, u, v, b = _smw_instance(int(3 + seed % 28), seed)
        x_smw = DiagLowRankSolver(d, P, R, u, v).solve(b)
        N = np.outer(P[:, 0], R[:, 0])
        np.fill_diagonal(N, 0.0)
        x_dense = gth_factorize(TripletRepresentation.from_parts(N, u, v)).solve(b)
        worst = max(worst, float(np.max(np.abs(x_smw - x_dense) / np.abs(x_dense))))
    ratio = _smw_time(200_000) / _smw_time(100_000)
    ok = worst <= 1e-14 and ratio <= 2.6
    _verdict(
        6, "smw-fast-path", ok, f"worst rel {worst:.2e}; time ratio {ratio:.2f}"
    )


def test_criterion_07_transport_convergence():
    # 20 seeded draws at each n in {10, 20, 40, 100}; over the 80 runs,
    # >= 90% reach erres <= 1e-12 within 30 steps and the median step
    # count is <= 10 (per-size data printed for the record)
    converged = 0
    iters_all = []
    per_n = []
    for n in (10, 20, 40, 100):
        oks = 0
        iters = []
        for seed in range(20):
            rep = solve(
                gen_transport(n, seed=seed),
                criteria=StopCriteria(
                    criterion="erres", tolerance=1e-12, max_iterations=30
                ),
            )
            oks += rep.termination == "converged" and rep.erres_final <= 1e-12
            iters.append(rep.iterations)
        per_n.append((n, oks, float(np.median(iters))))
        converged += oks
        iters_all += iters
    for n, oks, med in per_n:
        print(f"  transport n={n}: {oks}/20 converged, median k {med}", flush=True)
    med = float(np.median(iters_all))
    ok = converged >= 72 and med <= 10.0
    _verdict(
        7,
        "transport-convergence",
        ok,
        f"pooled {converged}/80 ({100 * converged / 80:.1f}%), pooled median k {med}",
    )


def _fixed_four_seconds(m, n):
    prob, _ = gen_fluid(m, n)
    t0 = time.perf_counter()
    state = initialize(prob)
    for _ in range(4):
        advance(state)
    state.H
    return time.perf_counter() - t0


def test_criterion_08_per_iteration_scaling():
    # fixed 4 steps on the fluid family: (7200, 800) costs at most 3x
    # (3600, 400) and stays under 60 s absolute
    _fixed_four_seconds(360, 40)
    t_small = min(_fixed_four_seconds(3600, 400) for _ in range(5))
    t_big = min(_fixed_four_seconds(7200, 800) for _ in range(5))
    ratio = t_big / t_small
    ok = ratio <= 3.0 and t_big < 60.0
    _verdict(
        8,
        "per-iteration-scaling",
        ok,
        f"(3600,400) {t_small * 1e3:.1f} ms; (7200,800) {t_big * 1e3:.1f} ms; "
        f"ratio {ratio:.2f}",
    )


def test_criterion_09_monotone_iterates():
    # every accepted (converged) run has entrywise nondecreasing iterates,
    # within -1e-15 absolute slack
    cases = []
    for m, n in ((2, 18), (18, 2), (90, 10), (180, 20)):
        cases.append((gen_fluid(m, n)[0], 1e-14, 6))
    for n in (10, 20, 40):
        for seed in (0, 1, 2):
            cases.append((gen_transport(n, seed=seed), 1e-12, 12))
    for seed in range(5):
        cases.append((random_mare(seed), 1e-12, 8))
    accepted = 0
    worst_drop = 0.0
    for prob, tol, cap in cases:
        state = initialize(prob)
        h_prev = state.H
        drop = 0.0
        converged = False
        for _ in range(cap):
            advance(state)
            h = state.H
            drop = min(drop, float(np.min(h - h_prev)))
            h_prev = h
            if erres(prob, h) <= tol:
                converged = True
                break
        if converged:
            accepted += 1
            worst_drop = min(worst_drop, drop)
    ok = accepted >= 15 and worst_drop >= -1e-15
    _verdict(
        9,
        "monotone-iterates",
        ok,
        f"{accepted}/{len(cases)} accepted; worst drop {worst_drop:.2e}",
    )


def test_criterion_10_sweep_smoke(tmp_path):
    # both shift sweeps on the n=10 transport instance: 200 rows each,
    # every recorded value finite; jump points are recorded, not asserted
    prefix = str(tmp_path / "sweep")
    t0 = time.perf_counter()
    code = cli_main(["sweep", "--n", "10", "--csv", prefix])
    elapsed = time.perf_counter() - t0
    ok = code == 0
    notes = []
    for name in ("alpha", "beta"):
        with open(f"{prefix}_{name}.csv") as fh:
            rows = list(csv.DictReader(fh))
        ok &= len(rows) == 200
        vals = np.array(
            [[float(r[name]), float(r["iters"]), float(r["erres"])] for r in rows]
        )
        ok &= bool(np.all(np.isfinite(vals)))
        steps = np.abs(np.diff(vals[:, 1].astype(int)))
        jumps = int(np.sum(steps >= 2))
        notes.append(f"{name}: {jumps} jumps, max step {int(steps.max())}")
    _verdict(10, "sweep-smoke", ok, "; ".join(notes) + f"; {elapsed:.0f}s")

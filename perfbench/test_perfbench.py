"""Tests of the benchmark itself: inputs, output gate, span wrapping, records.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dadda  # noqa: E402
from dadda import gth, linalg, problem, solver  # noqa: E402
from dadda.benchgen import draw_transport, gen_fluid  # noqa: E402

import instances  # noqa: E402
import tracer  # noqa: E402


def small_transport(max_iterations=3):
    rng = np.random.Generator(np.random.Philox(5))
    return instances.Instance(
        "transport n=10",
        instances._with_certificate(draw_transport(10, 1), rng),
        solver.StopCriteria(tolerance=1e-12, max_iterations=max_iterations),
        oracle_check=True,
    )


def small_fluid():
    prob, _ = gen_fluid(12, 4)
    return instances.Instance(
        "fluid 12x4", prob, solver.StopCriteria(tolerance=1e-14), exact=1.0 / 12
    )


def test_builds_are_valid_and_seeded():
    for name in instances.WORKLOADS:
        a = instances.build(name, 3)
        b = instances.build(name, 3)
        for x, y in zip(a, b):
            assert x.label == y.label
            for attr in ("Bl", "Br", "Cl", "Cr", "u1", "u2", "v1", "v2"):
                assert np.array_equal(getattr(x.problem, attr), getattr(y.problem, attr))
    other = instances.build("banded", 4)[0].problem
    assert not np.array_equal(instances.build("banded", 3)[0].problem.v1, other.v1)


def test_certificate_redraw_keeps_the_transport_matrices():
    draw = draw_transport(10, 1)
    prob = instances._with_certificate(draw, np.random.Generator(np.random.Philox(9)))
    assert prob.validate().ok
    assert prob.A is draw.problem.A and prob.D is draw.problem.D
    assert not np.array_equal(prob.v1, draw.problem.v1)


def test_gate_passes_a_converged_fluid_solve_and_flags_planted_faults():
    inst = small_fluid()
    report = solver.solve(inst.problem, criteria=inst.criteria)
    assert instances.check(inst, report).passed

    report.H = report.H.copy()
    report.H[0, 0] = -report.H[0, 0]
    assert instances.check(inst, report).wrong

    report.H[0, 0] = 2.0 * inst.exact
    verdict = instances.check(inst, report)
    assert verdict.wrong and not verdict.passed


def test_gate_counts_a_step_cap_as_unmet_and_an_oracle_mismatch_as_wrong():
    inst = small_transport(max_iterations=3)
    report = solver.solve(inst.problem, criteria=inst.criteria)
    verdict = instances.check(inst, report)
    assert report.termination == "max_iterations"
    assert verdict.unmet and not verdict.wrong and not verdict.passed

    report.H = report.H * (1.0 + 1e-8)
    assert instances.check(inst, report).wrong


def _bindings():
    owners = [m for m in tracer._dadda_modules()] + [
        problem.MareProblem, gth.DiagLowRankSolver, gth.DenseGthSolver,
        gth.DiagonalSolver, gth.GthFactorization, gth.TripletRepresentation,
        linalg.StructuredSquare, solver.DaddaState,
    ]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_patches_wrap_every_binding_and_restore_them():
    before = _bindings()
    original_matmul = linalg.matmul
    spans = tracer.Spans()
    with spans.patches():
        for mod in (linalg, gth, problem, solver, dadda):
            assert mod.matmul is not original_matmul
        assert solver.gth_factorize is not before[(id(gth), "gth_factorize")]
        assert dadda.solve is solver.solve
    with tracer.MemoryPeaks().patches():
        assert isinstance(vars(solver.DaddaState)["H"], property)
        assert vars(solver.DaddaState)["H"] is not before[(id(solver.DaddaState), "H")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_are_nonnegative_and_add_up_to_the_solve():
    inst = small_transport(max_iterations=4)
    spans = tracer.Spans()
    with spans.patches():
        t0 = time.perf_counter()
        report = solver.solve(inst.problem, criteria=inst.criteria)
        traced = time.perf_counter() - t0
    untraced = solver.solve(inst.problem, criteria=inst.criteria)
    assert (report.termination, report.iterations, report.erres_final) == (
        untraced.termination, untraced.iterations, untraced.erres_final)

    rows = spans.rows
    selfs = tracer.self_times(rows)
    assert min(selfs) >= -1e-12
    assert [r[0] for r in rows if r[1] < 0] == ["solver.solve"]
    assert sum(selfs) == pytest.approx(rows[0][3] - rows[0][2], rel=1e-9)
    assert rows[0][3] - rows[0][2] <= traced

    metrics = tracer.span_metrics(rows)
    assert metrics["gth.solver_kind.lowrank"] == 2
    assert metrics["gth.factorize_calls"] == report.iterations + 1
    assert metrics["gth.kernel_solve_cols"] == (report.iterations + 1) * inst.problem.n
    assert metrics["solver.criterion_calls"] == len(report.records)
    assert tracer.factor_blocks_bytes(spans.last_state) == 8 * 2**report.iterations * (
        4 * inst.problem.n)


def test_memory_peaks_cover_the_wrapped_calls():
    inst = small_fluid()
    peaks = tracer.MemoryPeaks()
    with peaks.patches():
        total = peaks.measure(solver.solve, inst.problem, criteria=inst.criteria)
    assert total >= peaks.span_peak["solver.materialize"] > 0
    assert peaks.span_peak["gth.build_solver"] > 0


def test_benchmark_json_matches_what_the_benchmark_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(instances.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])

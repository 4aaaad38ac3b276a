"""Decoupled doubling iteration: iterates, kernels, residuals, stopping."""

import dataclasses

import numpy as np
import pytest

from conftest import naive_matmul, random_mare
from dadda import oracle
from dadda.benchgen import gen_fluid, gen_transport
from dadda.linalg import StructuredSquare
from dadda.problem import ShiftPair, make_shifts
from dadda.solver import (
    StopCriteria,
    advance,
    dual_kernel_triplet,
    erres,
    ererr,
    initialize,
    kernel_triplet,
    normalized_residual,
    rank_of_iterate,
    relative_change,
    solve,
)


def _run_state(prob, shifts, steps):
    state = initialize(prob, shifts)
    for _ in range(steps):
        advance(state)
    return state


class TestIterates:
    def test_h0_matches_closed_form(self):
        for seed in (50, 51):
            prob = random_mare(seed)
            sh = make_shifts(prob)
            state = initialize(prob, sh)
            h0 = oracle.closed_form_h0(prob, sh)
            assert np.abs(state.H - h0).max() <= 1e-12 * np.abs(h0).max()

    def test_matches_dense_oracle(self):
        # structured low-rank recursion against the dense quadruple, all
        # three coefficient kinds
        for seed, kind in ((52, "dense"), (53, "banded"), (54, "lowrank")):
            prob = random_mare(seed, kind=kind)
            sh = make_shifts(prob)
            state = initialize(prob, sh)
            for k in range(3):
                state = advance(state)
                H = oracle.iterate_oracle(prob, sh, k + 1)[3]
                assert np.abs(state.H - H).max() <= 1e-10 * H.max()

    def test_zero_alpha_and_zero_beta_edges(self):
        prob = random_mare(55)
        for sh in (
            make_shifts(prob, alpha=0.0),
            make_shifts(prob, beta=0.0),
        ):
            state = initialize(prob, sh)
            if sh.alpha == 0.0:
                assert np.array_equal(state.Y, np.zeros_like(state.Y))
            else:
                assert np.array_equal(state.Z, np.zeros_like(state.Z))
            for k in range(3):
                state = advance(state)
            H = oracle.iterate_oracle(prob, sh, 3)[3]
            assert np.abs(state.H - H).max() <= 1e-10 * H.max()

    def test_iterates_exactly_nonnegative_and_monotone(self):
        prob = gen_transport(8, seed=7)
        state = initialize(prob)
        h_prev = state.H
        assert np.all(h_prev >= 0.0)
        for _ in range(5):
            state = advance(state)
            h = state.H
            assert np.all(h >= 0.0)
            assert np.min(h - h_prev) >= -1e-15 * h.max()
            h_prev = h

    def test_rank_of_fluid_iterate_is_one(self):
        prob, _ = gen_fluid(9, 5)
        state = _run_state(prob, make_shifts(prob), 3)
        assert rank_of_iterate(state) == 1

    def test_dual_iterate(self):
        prob = random_mare(56)
        sh = make_shifts(prob)
        rep = solve(
            prob,
            shifts=sh,
            criteria=StopCriteria(tolerance=1e-13, max_iterations=6),
            compute_dual=True,
        )
        G = oracle.iterate_oracle(prob, sh, rep.iterations)[2]
        assert rep.G is not None
        assert np.abs(rep.G - G).max() <= 1e-10 * G.max()

    def test_dual_not_computed_by_default(self):
        rep = solve(random_mare(57), criteria=StopCriteria(max_iterations=2))
        assert rep.G is None


class TestKernels:
    def test_kernel_triplet_identity(self):
        # (I - Y Z) u = v with u = ones (x) Br^T u1 and v the accumulated
        # nonnegative image; residual small relative to the v scale
        prob = gen_transport(10, seed=3)
        state = initialize(prob)
        for _ in range(5):
            state = advance(state)
            trip = kernel_triplet(state)
            yz = state.Y @ state.Z
            res = trip.u - yz @ trip.u - trip.v
            scale = max(np.abs(trip.v).max(), 1e-300)
            assert np.abs(res).max() <= 1e-12 * scale
            assert np.all(trip.N >= 0.0)
            assert np.all(trip.v >= 0.0)

    def test_dual_kernel_triplet_identity(self):
        prob = gen_transport(9, seed=4)
        state = initialize(prob)
        for _ in range(4):
            state = advance(state)
            trip = dual_kernel_triplet(state)
            zy = state.Z @ state.Y
            res = trip.u - zy @ trip.u - trip.v
            assert np.abs(res).max() <= 1e-12 * np.abs(trip.v).max()

    def test_kernel_image_matches_definition(self):
        # v1k / v2k are bitwise the block sums of the module docstring, every
        # product a literal ascending loop and every sum left to right
        lowrank = random_mare(54, kind="lowrank")
        assert (lowrank.p, lowrank.q) == (3, 2)
        for prob in (gen_transport(10, 0), lowrank):
            state = initialize(prob)
            sh = state.shifts
            for k in range(5):
                if k:
                    advance(state)
                for blocks, u, inv_v, v, shift, image in (
                    (state.q_blocks, prob.u1, state.dinv_v1, prob.v1, sh.alpha, state.v1k),
                    (state.v_blocks, prob.u2, state.ainv_v2, prob.v2, sh.beta, state.v2k),
                ):
                    head = shift * naive_matmul(blocks[0].T, v[:, None])[:, 0]
                    prefix = None
                    expect = []
                    for blk in blocks:
                        term = head + naive_matmul(blk.T, u[:, None])[:, 0]
                        if prefix is not None:
                            term = term + sh.gamma * prefix
                        expect.append(term)
                        part = naive_matmul(blk.T, inv_v[:, None])[:, 0]
                        prefix = part if prefix is None else prefix + part
                    assert np.array_equal(image, np.concatenate(expect))

    def test_kernel_inverse_nonnegative(self):
        prob = random_mare(58)
        state = initialize(prob, make_shifts(prob))
        for _ in range(4):
            state = advance(state)
        order = state.kernel_order
        yz = state.Y @ state.Z
        inv = np.linalg.inv(np.eye(order) - yz)
        assert inv.min() >= -1e-12

    def test_kernel_blocks_grow(self):
        prob = random_mare(59, p=2, q=1)
        state = initialize(prob)
        assert state.kernel_order == 2
        assert state.Y.shape == (2, 1)
        advance(state)
        assert state.kernel_order == 4
        assert state.Y.shape == (4, 2)
        assert state.Z.shape == (2, 4)


class TestResiduals:
    def test_erres_matches_naive_dense(self):
        for seed in (60, 61):
            prob = random_mare(seed)
            H = solve(prob, criteria=StopCriteria(max_iterations=3)).H
            a = prob.A.to_dense()
            d = prob.D.to_dense()
            na = np.diag(np.diagonal(a)) - a
            nd = np.diag(np.diagonal(d)) - d
            g1 = (
                naive_matmul(naive_matmul(H, prob.C_dense()), H)
                + naive_matmul(na, H)
                + naive_matmul(H, nd)
                + prob.B_dense()
            )
            g2 = np.diagonal(a)[:, None] * H + H * np.diagonal(d)[None, :]
            ref = np.max(np.abs(g1 - g2) / g2)
            val = erres(prob, H)
            assert val == pytest.approx(ref, rel=1e-12)

    def test_erres_conventions(self):
        # H = 0 makes the denominator vanish where B > 0
        prob = random_mare(62)
        assert erres(prob, np.zeros((prob.m, prob.n))) == np.inf

    def test_normalized_residual(self):
        prob = random_mare(63)
        rep = solve(
            prob, criteria=StopCriteria(criterion="nres", tolerance=1e-13)
        )
        assert rep.termination == "converged"
        res = oracle.oracle_residual(prob, rep.H)
        assert np.abs(res).max() <= 1e-10

    def test_relative_change(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[1.1, 2.0]])
        assert relative_change(b, a) == pytest.approx(0.1 / 1.1, rel=1e-12)
        assert relative_change(a, a) == 0.0

    def test_ererr_zero_entry_rule(self):
        x_true = np.array([[1.0, 0.0]])
        assert ererr(np.array([[1.0, 0.0]]), x_true) == 0.0
        assert ererr(np.array([[1.0, 1e-200]]), x_true) == np.inf
        assert ererr(np.array([[2.0, 0.0]]), x_true) == 1.0
        with pytest.raises(ValueError):
            ererr(np.zeros((2, 2)), x_true)


class TestSolveLoop:
    def test_fluid_converges_in_four(self):
        prob, x_true = gen_fluid(2, 18)
        rep = solve(
            prob,
            criteria=StopCriteria(criterion="erres", tolerance=1e-14),
            x_true=x_true,
        )
        assert rep.termination == "converged"
        assert rep.iterations == 4
        assert rep.erres_final <= 1e-14
        assert ererr(rep.H, x_true) <= 1e-10

    def test_sign_plus_one_diagonal_block(self):
        # diag(1, 2, 2) + e0 e0^T is fluid 3x2's A = 2 I in low-rank form:
        # a sign +1 Z-pattern, so it validates and solves as a diagonal
        prob, x_true = gen_fluid(3, 2)
        e0 = np.eye(3)[:, :1]
        low = StructuredSquare.diag_plus_lowrank([1.0, 2.0, 2.0], e0, e0, sign=1)
        assert np.array_equal(low.to_dense(), prob.A.to_dense())
        twin = dataclasses.replace(prob, A=low)
        assert twin.validate().ok
        rep = solve(twin, x_true=x_true)
        ref = solve(prob, x_true=x_true)
        assert rep.termination == ref.termination == "converged"
        assert rep.iterations == ref.iterations
        assert np.allclose(rep.H, ref.H, rtol=1e-14, atol=0.0)
        assert ererr(rep.H, x_true) <= 1e-10

    def test_record_stream(self):
        prob = random_mare(64)
        rep = solve(prob, criteria=StopCriteria(tolerance=1e-12))
        assert rep.termination == "converged"
        assert [r.k for r in rep.records] == list(range(rep.iterations + 1))
        assert rep.records[0].kernel_order == prob.p
        assert rep.erres_final == rep.records[-1].value
        assert rep.criterion == "erres"
        assert rep.rank_h >= 1
        assert rep.seconds > 0.0

    def test_rchange_first_value_infinite(self):
        prob = random_mare(65)
        rep = solve(
            prob,
            criteria=StopCriteria(criterion="rchange", tolerance=1e-12),
        )
        assert rep.records[0].value == np.inf
        assert rep.termination == "converged"

    def test_max_iterations_zero(self):
        prob = random_mare(66)
        rep = solve(prob, criteria=StopCriteria(tolerance=1e-15, max_iterations=0))
        assert rep.termination == "max_iterations"
        assert rep.iterations == 0
        assert len(rep.records) == 1

    def test_kernel_cap_termination(self):
        prob = random_mare(67, p=1, q=1)
        rep = solve(
            prob,
            criteria=StopCriteria(tolerance=1e-300 * 1e280, kernel_row_cap=2),
        )
        assert rep.termination == "kernel_cap_exceeded"
        assert rep.iterations == 1

    def test_kernel_cap_too_small_rejected(self):
        prob = random_mare(68, p=2, q=2)
        with pytest.raises(ValueError, match="p \\+ q"):
            solve(prob, criteria=StopCriteria(kernel_row_cap=3))

    def test_ererr_requires_reference(self):
        prob = random_mare(69)
        with pytest.raises(ValueError, match="true solution"):
            solve(prob, criteria=StopCriteria(criterion="ererr", tolerance=1e-10))

    def test_ererr_criterion_with_reference(self):
        prob, x_true = gen_fluid(3, 4)
        rep = solve(
            prob,
            criteria=StopCriteria(criterion="ererr", tolerance=1e-12),
            x_true=x_true,
        )
        assert rep.termination == "converged"
        assert ererr(rep.H, x_true) <= 1e-12

    def test_stop_criteria_validation(self):
        with pytest.raises(ValueError):
            StopCriteria(criterion="energy")
        with pytest.raises(ValueError):
            StopCriteria(tolerance=0.0)
        with pytest.raises(ValueError):
            StopCriteria(tolerance=1.0)
        with pytest.raises(ValueError):
            StopCriteria(max_iterations=-1)
        with pytest.raises(ValueError):
            StopCriteria(kernel_row_cap=0)

    def test_explicit_shifts_respected(self):
        prob = random_mare(70)
        sh = make_shifts(prob, alpha=0.0)
        rep = solve(prob, shifts=sh, criteria=StopCriteria(tolerance=1e-12))
        assert rep.alpha == 0.0
        assert rep.beta == sh.beta
        assert rep.termination == "converged"

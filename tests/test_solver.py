"""Decoupled doubling iteration: iterates, kernels, residuals, stopping."""

import dataclasses
import functools
import importlib.util
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    _banded_from_dense,
    _run_optimized,
    closed_form_h0,
    dense_erres,
    dense_ererr,
    dense_relative_change,
    naive_matmul,
    oracle_residual,
    random_mare,
    same_float,
    transport_reference,
)
from dadda import gth, linalg, oracle, problem, solver
from dadda.benchgen import draw_transport, gen_fluid, gen_transport
from dadda.gth import NotMMatrixError, build_solver, gth_factorize
from dadda.linalg import StructuredSquare, frobenius_norm
from dadda.problem import MareProblem, ShiftPair, make_shifts
from dadda.solver import (
    DaddaState,
    StopCriteria,
    _BlockStep,
    _DenseAdda,
    _erres_gate,
    _gram,
    _numerical_rank,
    _TripletAdda,
    advance,
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
            h0 = closed_form_h0(prob, sh)
            assert np.abs(state.H - h0).max() <= 1e-12 * np.abs(h0).max()

    def test_h_checks_its_factors_not_itself(self):
        # finite nonnegative factors give H >= 0 with no NaN in any order;
        # an inf, a NaN or a negative entry of a factor is refused
        prob = random_mare(50)
        for bad in (np.inf, np.nan, -1.0):
            state = _run_state(prob, make_shifts(prob), 1)
            state.X[0, 0] = bad
            with pytest.raises(NotMMatrixError):
                state.H

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

    def test_rank_matches_ordered_core(self):
        # the BLAS core gamma R_U X gives the rank of the ordered product
        probs = [gen_fluid(m, n)[0] for m, n in ((2, 18), (18, 2), (90, 10), (180, 20))]
        probs += [gen_transport(n, seed=1) for n in (10, 40)]
        probs += [random_mare(seed) for seed in (60, 61, 70)]
        for prob in probs:
            state = initialize(prob)
            for k in range(5):
                if k:
                    advance(state)
                ru = scipy.linalg.qr(state.Ucheck, mode="economic")[1]
                ordered = _numerical_rank(state.shifts.gamma * naive_matmul(ru, state.X))
                assert rank_of_iterate(state) == ordered, (prob.m, prob.n, k)

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
        )
        G = oracle.iterate_oracle(prob, sh, rep.iterations)[2]
        assert rep.G is not None
        assert np.abs(rep.G - G).max() <= 1e-10 * G.max()

    def test_dadda_dual_matches_oracle(self):
        # the dADDA dual iterate, before any hand-off, is exactly
        # nonnegative and meets criterion 02's bound against the oracle
        for prob in (gen_fluid(90, 10)[0], gen_fluid(10, 90)[0], gen_transport(40, 3)):
            sh = make_shifts(prob)
            state = initialize(prob, sh)
            for k in range(5):
                if k:
                    advance(state)
                G = state.dual()
                assert np.all(G >= 0.0)
                ref = oracle.iterate_oracle(prob, sh, k)[2]
                mask = np.abs(ref) > 1e-30
                rel = np.abs(G - ref)[mask] / np.abs(ref)[mask]
                assert rel.max() <= 1e-10, (k, rel.max())

    def test_dual_not_computed_by_default(self, monkeypatch):
        # the solve forms no G; the report forms it on the first read of G
        calls = []
        real = DaddaState.dual

        def dual(state):
            calls.append(state.k)
            return real(state)

        monkeypatch.setattr(DaddaState, "dual", dual)
        rep = solve(random_mare(57), criteria=StopCriteria(max_iterations=2))
        assert calls == []
        G = rep.G
        assert calls == [rep.iterations] and rep.G is G


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

    def test_kernel_image_matches_definition(self):
        # v1k / v2k are bitwise the block sums of the module docstring: the
        # products B_0^T v and Bcheck^T [u, inv_v] written with @, and every
        # sum left to right
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
                    head = shift * (blocks[0].T @ v)
                    cols = np.concatenate(blocks, axis=1).T @ np.column_stack([u, inv_v])
                    width = blocks[0].shape[1]
                    prefix = None
                    expect = []
                    for i in range(len(blocks)):
                        own, part = cols[i * width : (i + 1) * width].T
                        term = head + own
                        if prefix is not None:
                            term = term + sh.gamma * prefix
                        expect.append(term)
                        prefix = part if prefix is None else prefix + part
                    assert np.array_equal(image, np.concatenate(expect))

    @pytest.mark.parametrize(
        "label",
        ["transport 10", "fluid 90x10", "random dense", "random lowrank", "random banded"],
    )
    def test_couplings_and_kernel_are_whole_grams(self, label):
        # each new corner of Y and Z is gamma * _gram of the previous
        # factors, and the kernel is a fresh factorization of
        # kernel_triplet, at every k; Y Z is the product Y @ Z, exactly
        # nonnegative, at every order (fluid 90x10 reaches 128 at k = 7)
        prob = {
            "transport 10": lambda: gen_transport(10, seed=1),
            "fluid 90x10": lambda: gen_fluid(90, 10)[0],
            "random dense": lambda: random_mare(62, p=3, q=2),
            "random lowrank": lambda: random_mare(63, p=1, q=3, kind="lowrank"),
            "random banded": lambda: random_mare(64, p=2, q=2, kind="banded"),
        }[label]()
        state = initialize(prob)
        gamma = state.shifts.gamma
        for k in range(8):
            if k:
                # the previous step's Qcheck, Wcheck, Vcheck and Ucheck
                q, w, v, u = (
                    np.concatenate(blocks[: len(blocks) // 2], axis=1)
                    for blocks in (state.q_blocks, state.w_blocks, state.v_blocks, state.u_blocks)
                )
                qw, vu = _gram(q.T, w), _gram(v.T, u)
                rows, cols = qw.shape
                assert np.array_equal(state.Y[rows:, cols:], gamma * qw)
                assert np.array_equal(state.Z[cols:, rows:], gamma * vu)
            yz = _gram(state.Y, state.Z)
            assert np.array_equal(yz, state.Y @ state.Z)
            assert yz.min() >= 0.0
            expect = gth_factorize(kernel_triplet(state))
            assert np.array_equal(state.kernel.LU, expect.LU)
            assert np.array_equal(state.X, expect.solve(state.Qcheck.T))
            advance(state)

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


def _shifted_solvers(rng, n):
    """One shifted solver of each kind for order n, as ``build_solver`` picks them.

    Each matrix is M = diag((N u + v) / u) - N for a nonnegative N of its
    kind, so (u, M u) is a triplet for it.
    """
    u = rng.uniform(0.5, 1.5, size=n)
    v = rng.uniform(0.1, 1.0, size=n)

    def lowrank(r):
        P, R = rng.uniform(size=(n, r)), rng.uniform(size=(n, r))
        return StructuredSquare.diag_plus_lowrank(P @ (R.T @ u) / u + v / u, P, R, sign=-1)

    N = rng.uniform(size=(n, n))
    np.fill_diagonal(N, 0.0)
    band = np.triu(np.tril(N, 2), -1)
    matrices = {
        "diagonal": StructuredSquare.banded(n, 0, 0, {0: v / u + 1.0}),
        "rank1": lowrank(1),
        "capacitance": lowrank(3),
        "dense": StructuredSquare.dense(np.diag((N @ u + v) / u) - N),
        "band": _banded_from_dense(np.diag((band @ u + v) / u) - band, 1, 2),
    }
    return {kind: build_solver(m, u, m.apply(u)) for kind, m in matrices.items()}


def _negated_parts(rng, n):
    """One nonnegative negated part of each kind and low-rank form, order n."""
    P, R = rng.uniform(size=(n, 2)), rng.uniform(size=(n, 2))
    rowdot = np.sum(P * R, axis=1)
    d_neg = rowdot * np.where(np.arange(n) % 3 == 0, -0.5, 0.25)
    on_diag = np.zeros((n, 2))
    on_diag[[0, 1], [0, 1]] = 1.0
    band = rng.uniform(size=(n, n))
    band = np.triu(np.tril(band, 1), -2)
    return {
        "dense": StructuredSquare.dense(rng.uniform(size=(n, n))),
        "banded": _banded_from_dense(band, 2, 1),
        # sign -1 with every pair on one diagonal entry: nonnegative
        "lowrank -1": StructuredSquare.diag_plus_lowrank(
            rng.uniform(1.0, 2.0, size=n), 0.5 * on_diag, on_diag, sign=-1
        ),
        # sign +1 whose stored diagonal is partly negative: the split form
        "lowrank +1, negative d": StructuredSquare.diag_plus_lowrank(d_neg, P, R, sign=1),
        "lowrank +1": StructuredSquare.diag_plus_lowrank(rng.uniform(size=n), P, R, sign=1),
    }


class TestBlockStep:
    @pytest.mark.parametrize("transpose", [False, True])
    def test_blocks_are_the_public_solve_and_apply(self, transpose):
        # every block of a chain is bitwise neg.apply(shifted.solve(x, t), t)
        # of the block before, for every solver kind and negated form
        rng = np.random.Generator(np.random.Philox(90))
        n = 14
        solvers = _shifted_solvers(rng, n)
        assert [type(s).__name__ for s in solvers.values()] == [
            "DiagonalSolver", "DiagLowRankSolver", "DiagLowRankSolver",
            "DenseGthSolver", "DenseGthSolver",
        ]
        assert [solvers[k]._mode for k in ("rank1", "capacitance")] == ["rank1", "capacitance"]
        negs = _negated_parts(rng, n)
        assert np.any(negs["lowrank +1, negative d"].d < 0.0)
        assert not np.any(negs["lowrank +1"].d < 0.0)
        for shifted in solvers.values():
            for neg in negs.values():
                assert neg.to_dense().min() >= 0.0
                for cols in (1, 3):
                    x = rng.uniform(size=(n, cols))
                    blocks = _BlockStep(shifted, neg, transpose).chain(x, 5)
                    assert len(blocks) == 5
                    for blk in blocks:
                        expect = neg.apply(shifted.solve(x, transpose), transpose)
                        assert blk.shape == expect.shape
                        assert blk.tobytes() == expect.tobytes()
                        x = blk

    def test_vector_operand_and_sign_check(self):
        rng = np.random.Generator(np.random.Philox(91))
        shifted = _shifted_solvers(rng, 8)["rank1"]
        neg = _negated_parts(rng, 8)["lowrank +1, negative d"]
        step = _BlockStep(shifted, neg, False)
        x = rng.uniform(size=8)
        assert step.chain(x, 2)[0].shape == (8, 1)
        with pytest.raises(ValueError):
            step.chain(np.ones(7), 1)
        x[3] = -1.0
        with pytest.raises(NotMMatrixError):
            step.chain(x, 3)


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
                naive_matmul(naive_matmul(H, naive_matmul(prob.Cl, prob.Cr.T)), H)
                + naive_matmul(na, H)
                + naive_matmul(H, nd)
                + naive_matmul(prob.Bl, prob.Br.T)
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
        res = oracle_residual(prob, rep.H)
        assert np.abs(res).max() <= 1e-10

    def test_relative_change(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[1.1, 2.0]])
        assert relative_change(b, a) == pytest.approx(0.1 / 1.1, rel=1e-12)
        assert relative_change(a, a) == 0.0

    def test_relative_change_rejects_a_wrong_shape(self):
        # broadcasting the row would read 0.0
        with pytest.raises(ValueError, match="shape"):
            relative_change(np.ones((3, 2)), np.ones(2))

    def test_ererr_zero_entry_rule(self):
        x_true = np.array([[1.0, 0.0]])
        assert ererr(np.array([[1.0, 0.0]]), x_true) == 0.0
        assert ererr(np.array([[1.0, 1e-200]]), x_true) == np.inf
        assert ererr(np.array([[2.0, 0.0]]), x_true) == 1.0
        with pytest.raises(ValueError):
            ererr(np.zeros((2, 2)), x_true)


def _blocks(rng, order, lower, upper):
    """One coefficient block per kind: banded (lower, upper), low-rank of
    either sign, and dense up to order 1024."""
    diag = rng.uniform(1.0, 2.0, size=order)
    p, r = rng.uniform(size=(order, 2)), rng.uniform(size=(order, 2))
    bands = {o: -rng.uniform(size=order - abs(o)) for o in range(-lower, upper + 1)}
    bands[0] = diag
    out = [
        StructuredSquare.banded(order, lower, upper, bands),
        StructuredSquare.diag_plus_lowrank(diag, p, r, sign=-1),
        StructuredSquare.diag_plus_lowrank(diag, p, r, sign=1),
    ]
    if order <= 1024:
        out.append(StructuredSquare.dense(np.diag(diag) - rng.uniform(size=(order, order))))
    return out


def _edge_banded(order, lower, upper, rows):
    """Banded (lower, upper) block whose off-diagonal entries all couple two
    rows on either side of a panel edge."""
    a = np.diag(np.linspace(1.0, 2.0, order))
    for edge in range(rows, order, rows):
        for i in range(max(0, edge - upper), min(order, edge + lower)):
            for j in range(max(0, i - lower), min(order, i + upper + 1)):
                if (i < edge) != (j < edge):
                    a[i, j] = -1.0 - 0.1 * i
    return _banded_from_dense(a, lower, upper)


def _problem(rng, A, D, q=2, p=1):
    m, n = A.n, D.n
    return MareProblem(
        A=A, D=D,
        Bl=rng.uniform(size=(m, p)), Br=rng.uniform(size=(n, p)),
        Cl=rng.uniform(size=(n, q)), Cr=rng.uniform(size=(m, q)),
        u1=np.ones(n), u2=np.ones(m), v1=np.zeros(n), v2=np.zeros(m),
    )


class TestErresPanels:
    @pytest.mark.parametrize("m, n", [(21, 4096), (300, 256), (33, 1000)])
    def test_bitwise_equal_to_the_whole_matrix(self, m, n):
        # several panels and a short last one, for every kind of A and D;
        # scaling one edge row of H down puts the maximum in that row
        rng = np.random.Generator(np.random.Philox(m))
        rows = max(8, 2**15 // n)
        assert rows < m and m % rows
        a_blocks = _blocks(rng, m, 2, 1) + [_edge_banded(m, 2, 1, rows)]
        H = rng.uniform(0.5, 1.5, size=(m, n))
        edges = sorted({i for i0 in range(0, m, rows) for i in (i0, min(m, i0 + rows) - 1)})
        for A in a_blocks:
            for D in _blocks(rng, n, 1, 2):
                prob = _problem(rng, A, D)
                assert erres(prob, H) == dense_erres(prob, H)
                for i in edges:
                    Hi = H.copy()
                    Hi[i] *= 1e-6
                    assert erres(prob, Hi) == dense_erres(prob, Hi), (A.kind, D.kind, i)
        # diagonal A and D (empty band products), and B of width p = 2 with
        # C of width 1 next to a rank-2 low-rank D (H [Cl, P_D] has 3 columns)
        diag_a = StructuredSquare.banded(m, 0, 0, {0: np.linspace(1.0, 2.0, m)})
        diag_d = StructuredSquare.banded(n, 0, 0, {0: np.linspace(1.0, 2.0, n)})
        for A in (diag_a, a_blocks[0], a_blocks[1]):
            for D in (diag_d, _blocks(rng, n, 1, 2)[1]):
                prob = _problem(rng, A, D, q=1, p=2)
                assert erres(prob, H) == dense_erres(prob, H), (A.kind, D.kind)

    @pytest.mark.parametrize("m, n", [(21, 4096), (300, 256)])
    def test_early_exit_is_the_full_value_or_a_bound_above_the_threshold(self, m, n):
        # scaling the last row of H down puts the maximum in the last panel,
        # so a threshold below an earlier panel's maximum exits there, below
        # the full value
        rng = np.random.Generator(np.random.Philox(m))
        H = rng.uniform(0.5, 1.5, size=(m, n))
        Hl = H.copy()
        Hl[-1] *= 1e-6
        early = 0
        for A in _blocks(rng, m, 2, 1):
            for D in _blocks(rng, n, 1, 2):
                prob = _problem(rng, A, D)
                for X in (H, Hl):
                    e = erres(prob, X)
                    for t in (0.0, e / 2, np.nextafter(e, 0.0), e, 2 * e):
                        v = erres(prob, X, above=t)
                        if e <= t:
                            assert v == e, (A.kind, D.kind, t)
                        else:
                            assert t < v <= e, (A.kind, D.kind, t)
                            early += v < e
        assert early > 0

    def test_dense_kinds_take_no_ordered_product(self, monkeypatch):
        # the in-panel products with a dense-kind A or D are BLAS products;
        # the reference is taken first, because dense_erres calls matmul
        rng = np.random.Generator(np.random.Philox(5))
        A, D = _blocks(rng, 300, 2, 1)[-1], _blocks(rng, 256, 1, 2)[-1]
        assert A.kind == D.kind == "dense"
        prob, H = _problem(rng, A, D), rng.uniform(0.5, 1.5, size=(300, 256))
        expected = dense_erres(prob, H)

        def ordered(a, b):
            raise AssertionError("an ordered product inside erres")

        for mod in (linalg, solver):
            monkeypatch.setattr(mod, "matmul", ordered)
        assert erres(prob, H) == expected

    def test_early_exit_of_one_panel_is_the_full_value(self):
        rng = np.random.Generator(np.random.Philox(3))
        A, D = _blocks(rng, 21, 2, 1)[0], _blocks(rng, 256, 1, 2)[1]
        prob, H = _problem(rng, A, D), rng.uniform(0.5, 1.5, size=(21, 256))
        assert 21 <= linalg._panel_rows(256)
        assert erres(prob, H, above=0.0) == erres(prob, H) > 0.0

    def _middle(self):
        rng = np.random.Generator(np.random.Philox(7))
        A, D = _blocks(rng, 21, 2, 1)[0], _blocks(rng, 4096, 1, 2)[1]
        # no C term, so a NaN stays in the panel of its row
        return _problem(rng, A, D, q=0), rng.uniform(size=(21, 4096)), 10

    def test_zero_denominator_in_a_middle_panel(self):
        prob, H, i = self._middle()
        assert np.isfinite(erres(prob, H))
        H[i, 5] = 0.0
        assert erres(prob, H) == dense_erres(prob, H) == np.inf
        assert erres(prob, H, above=1e300) == np.inf

    def test_nan_in_one_panel(self):
        prob, H, i = self._middle()
        H[i, 5] = np.nan
        assert np.isnan(dense_erres(prob, H))
        assert np.isnan(erres(prob, H))
        # a panel maximum that overflows to +inf is no x/0: the NaN still wins
        H[2, 3] = 5e-324
        with np.errstate(over="ignore"):
            assert np.isnan(dense_erres(prob, H))
            assert np.isnan(erres(prob, H))
            H[i, 5] = 1.0
            assert erres(prob, H) == dense_erres(prob, H) == np.inf

    def test_nan_panel_turns_the_early_exit_off(self):
        # the maximum sits in the last panel, below the NaN's middle one
        prob, _, i = self._middle()
        H = np.random.Generator(np.random.Philox(8)).uniform(0.5, 1.5, size=(21, 4096))
        t = erres(prob, H)
        H[-1] *= 1e-6
        assert erres(prob, H, above=t) == erres(prob, H) > t
        H[i, 5] = np.nan
        assert np.isnan(erres(prob, H, above=t))

    def test_zero_over_zero_is_zero(self):
        prob, H, i = self._middle()
        prob.Bl[:] = 0.0
        assert erres(prob, np.zeros_like(H)) == 0.0
        # a zero row of H and B with no coupling into it: 0/0 there
        prob.A = StructuredSquare.banded(21, 0, 0, {0: prob.A.diagonal()})
        prob.Bl[:] = 1.0
        prob.Bl[i] = 0.0
        H[i] = 0.0
        assert np.isfinite(erres(prob, H))
        assert erres(prob, H) == dense_erres(prob, H)

    def test_memory_stays_within_panels(self):
        prob, _ = gen_fluid(4096, 1024)
        H = _run_state(prob, make_shifts(prob), 2).H
        for call, bound in ((erres, H.nbytes / 4), (frobenius_norm, 1 << 20)):
            args = (prob, H) if call is erres else (H,)
            tracemalloc.start()
            try:
                call(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (call.__name__, peak)

    def test_one_row_and_two_columns(self):
        # a one-row H against banded D (1, 2): one panel, a one-row product
        # and D's flat band passes over a single row; a two-column H against
        # banded A (2, 1), over two panels
        rng = np.random.Generator(np.random.Philox(28))
        for n in (5, 4096):
            D = _blocks(rng, n, 1, 2)[0]
            H = rng.uniform(0.5, 1.5, size=(1, n))
            for A in (
                StructuredSquare.banded(1, 0, 0, {0: np.array([1.5])}),
                StructuredSquare.dense(np.array([[1.5]])),
            ):
                prob = _problem(rng, A, D)
                assert erres(prob, H) == dense_erres(prob, H), (A.kind, n)
        m = linalg._panel_rows(2) + 16
        A = _blocks(rng, m, 2, 1)[0]
        H = rng.uniform(0.5, 1.5, size=(m, 2))
        H[linalg._panel_rows(2)] *= 1e-6
        for D in _blocks(rng, 2, 1, 1):
            prob = _problem(rng, A, D)
            assert erres(prob, H) == dense_erres(prob, H), D.kind

    def test_strided_iterates_make_no_full_copy(self):
        # a Fortran-ordered H and a transposed view read like their C-ordered
        # copy, within the memory bound of test_memory_stays_within_panels
        rng = np.random.Generator(np.random.Philox(29))
        fluid, _ = gen_fluid(4096, 1024)
        banded = _problem(rng, _blocks(rng, 2048, 2, 1)[0], _blocks(rng, 1024, 1, 2)[0])
        for prob, H in (
            (fluid, _run_state(fluid, make_shifts(fluid), 2).H),
            (banded, rng.uniform(0.5, 1.5, size=(2048, 1024))),
        ):
            expected = erres(prob, H)
            for X in (np.asfortranarray(H), np.ascontiguousarray(H.T).T):
                assert not X.flags.c_contiguous
                tracemalloc.start()
                try:
                    got = erres(prob, X)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert got == expected, (prob.D.kind, X.strides)
                assert peak < H.nbytes / 4, (prob.D.kind, X.strides, peak)

    def test_outer_sum_product_is_the_broadcast_sum(self):
        # erres forms each outer sum a (+) d as the K = 2 product
        # [a, 1] @ [1; d]: two exact products and one addition per entry,
        # bitwise np.add's as long as BLAS keeps subnormals and rounds once;
        # panels of 1 and 2 rows take BLAS's matrix-vector path
        rng = np.random.Generator(np.random.Philox(30))
        a, d = 10.0 ** rng.uniform(-310, 300, size=16), 10.0 ** rng.uniform(-310, 300, size=300)
        a[:4], d[:6] = (0.0, 5e-324, 1e-310, 1.7e308), (0.0, 5e-324, 2e-310, 1e-300, 1.0, 1.7e308)
        a = a[:, None]
        with np.errstate(over="ignore"):
            expected = np.add(a, d)
        assert np.isinf(expected).any() and (expected[expected > 0] < 2.2e-308).any()
        left, right = solver._outer_sum_factors(a, d)
        for rows in (1, 2, 16):
            for i0 in range(0, 16, rows):
                with np.errstate(over="ignore"):
                    got = np.matmul(left[i0 : i0 + rows], right, out=np.empty((rows, 300)))
                bad = np.argwhere(got.view(np.int64) != expected[i0 : i0 + rows].view(np.int64))
                assert bad.size == 0, (
                    f"[a, 1] @ [1; d] in {rows}-row panels is not np.add's a + d "
                    f"(BLAS flushed a subnormal or rounded twice), first at row "
                    f"{i0 + bad[0][0]}, column {bad[0][1]}"
                )


def _one_pass_erres(prob, H, above=np.inf):
    """erres in one top-to-bottom pass on the calling thread."""
    edges = linalg._panel_edges(*H.shape)
    panels = solver._residual_panels(prob, H, edges, False)
    return linalg._panel_ratio_max(panels(edges), above=above)


def _run_on_one_blas_thread(code):
    """Run ``code`` in a fresh python with BLAS on one thread, as the
    benchmark and ``tests/parity.py`` run, with dadda and conftest importable."""
    src = Path(solver.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    threads = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path, **threads),
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestRowHalves:
    """H and erres run two row halves at once, bitwise as in one pass."""

    @staticmethod
    def _cases():
        rng = np.random.Generator(np.random.Philox(31))
        fluid, _ = gen_fluid(4096, 1024)
        H = rng.uniform(0.5, 1.5, size=(2048, 1024))
        d = _blocks(rng, 1024, 1, 2)[0]
        return [
            ("fluid 4096x1024", fluid, _run_state(fluid, make_shifts(fluid), 2).H),
            ("banded 2048x1024", _problem(rng, _blocks(rng, 2048, 2, 1)[0], d), H),
            ("dense A 1024x1024", _problem(rng, _blocks(rng, 1024, 2, 1)[3], d), H[:1024]),
            ("sign +1 low-rank A", _problem(rng, _blocks(rng, 2048, 2, 1)[2], d), H),
        ]

    def test_erres_is_the_one_pass_on_one_cpu_and_two(self, monkeypatch):
        for label, prob, H in self._cases():
            assert len(linalg._row_halves(*H.shape, linalg._panel_edges(*H.shape))) == 2, label
            full = _one_pass_erres(prob, H)
            for above in (np.inf, 0.0, full / 2, full):
                want = _one_pass_erres(prob, H, above)
                for cpus in (1, 2):
                    monkeypatch.setattr(linalg, "_cpu_count", lambda c=cpus: c)
                    assert same_float(erres(prob, H, above=above), want), (label, above, cpus)

    def test_planted_specials_on_either_side_of_the_split(self, monkeypatch):
        # NaN, +inf, 0/0, x/0 and a large ratio, alone and in pairs, in the
        # top half, the bottom half and the two rows at the split; A diagonal
        # and no C term, so each stays in its own row
        rng = np.random.Generator(np.random.Philox(32))
        m, n = 2048, 1024
        A = StructuredSquare.banded(m, 0, 0, {0: np.linspace(1.0, 2.0, m)})
        prob = _problem(rng, A, _blocks(rng, n, 1, 2)[0], q=0)
        base = rng.uniform(0.5, 1.5, size=(m, n))
        split = linalg._row_halves(m, n, linalg._panel_edges(m, n))[1][0]
        full = _one_pass_erres(prob, base)

        def plant(H, bl, kind, i):
            if kind == "nan":
                H[i, 7] = np.nan
            elif kind == "inf":
                H[i, 7] = np.inf
            elif kind == "x/0":
                H[i, 7] = 0.0
            elif kind == "0/0":
                H[i], bl[i] = 0.0, 0.0
            else:
                H[i] *= 1e-6

        kinds = ("nan", "inf", "x/0", "0/0", "large")
        singles = [((k, i),) for k in kinds for i in (5, split - 1, split, m - 3)]
        pairs = [
            ((k1, i1), (k2, i2))
            for k1 in kinds for k2 in kinds for i1, i2 in ((5, m - 3), (split - 1, split))
        ]
        with np.errstate(all="ignore"):
            for planted in singles + pairs:
                H, bl = base.copy(), prob.Bl.copy()
                for kind, i in planted:
                    plant(H, bl, kind, i)
                case = dataclasses.replace(prob, Bl=bl)
                for above in (np.inf, 0.0, full):
                    want = _one_pass_erres(case, H, above)
                    for cpus in (1, 2):
                        monkeypatch.setattr(linalg, "_cpu_count", lambda c=cpus: c)
                        got = erres(case, H, above=above)
                        assert same_float(got, want), (planted, above, cpus, got, want)

    def test_h_at_odd_m_is_the_whole_product(self):
        # the halves split at a multiple of BLAS's row tiles, so with BLAS on
        # one thread each row rounds as in the whole product, at any kernel
        # order and with n off every tile width
        code = """
import numpy as np
from conftest import random_mare
from dadda import linalg
from dadda.solver import advance, initialize

rng = np.random.Generator(np.random.Philox(33))
state = advance(advance(initialize(random_mare(34, m=2049, n=1001, kind="lowrank"))))


def check(label):
    whole = state.Ucheck @ (state.shifts.gamma * state.X)
    for cpus in (1, 2):
        linalg._cpu_count = lambda c=cpus: c
        state._H = None
        assert np.array_equal(state.H.view(np.int64), whole.view(np.int64)), (label, cpus)


check("solve state")
splits = 0
for m, n in ((2049, 1001), (4097, 333), (1501, 701), (1027, 1023)):
    for r in (1, 2, 3, 5, 8, 16, 64):
        splits += len(linalg._row_halves(m, n, linalg._block_edges(m, n, (r,)))) > 1
        state.u_blocks, state.X = [rng.uniform(size=(m, r))], rng.uniform(size=(r, n))
        check((m, n, r))
assert splits >= 24, splits
print("ok")
"""
        proc = _run_on_one_blas_thread(code)
        assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr

    def test_helper_error_reraises_after_the_join(self, monkeypatch):
        prob, H = self._cases()[1][1:]
        real = linalg._panel_maxima

        def failing(panels, stop=None):
            if stop is not None:
                raise RuntimeError("bottom half")
            yield from real(panels, stop)

        monkeypatch.setattr(linalg, "_panel_maxima", failing)
        before = threading.active_count()
        for cpus in (1, 2):
            monkeypatch.setattr(linalg, "_cpu_count", lambda c=cpus: c)
            with pytest.raises(RuntimeError, match="bottom half"):
                erres(prob, H)
            assert threading.active_count() == before

    def test_helper_calls_no_traced_binding(self, monkeypatch):
        # the benchmark's spans nest by call order on one thread: every
        # binding it wraps is called from the solving thread alone
        tracer = _load_tracer()
        callers = []

        def make(name, fn, note):
            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                callers.append((name, threading.get_ident()))
                return fn(*args, **kwargs)

            return recorded

        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        prob, _ = gen_fluid(2048, 1024)
        for edges in (linalg._panel_edges(2048, 1024), linalg._block_edges(2048, 1024, (1,))):
            assert len(linalg._row_halves(2048, 1024, edges)) == 2
        with tracer.Patches(tracer.TRACED, make):
            report = solve(prob)
            # the solve streams erres's rows and forms no H; reading the
            # report's forms it, under the wrappers
            report.H
        assert report.termination == "converged"
        assert {"solver.criterion", "solver.materialize"} <= {name for name, _ in callers}
        assert {ident for _, ident in callers} == {threading.get_ident()}


def _factored_state(prob, u, x):
    """A DaddaState of ``prob`` whose H is u @ (gamma x), gamma = 1, with
    no other part: what erres reads of an iterate's factors."""
    return DaddaState(
        prob=prob, shifts=ShiftPair(alpha=0.25, beta=0.75), solver_a=None, solver_d=None,
        a_neg=None, d_neg=None, k=0, u_blocks=[u], v_blocks=[], w_blocks=[], q_blocks=[],
        Y=None, Z=None, dinv_v1=None, ainv_v2=None, bru1=None, X=x,
    )


class TestStreamedErres:
    """erres reads a DaddaState with a diagonal A from its factors, in row
    blocks that keep the bits of the whole products."""

    def test_blocks_are_the_whole_products(self):
        # each block of H = Ucheck (gamma X) and of H [Cl, P_D] is bitwise
        # those rows of the whole products, with BLAS on one thread: at the
        # fluid shapes, where erres streams, and at odd shapes for r = 1..32
        code = """
import numpy as np
from dadda import linalg
from dadda.benchgen import gen_fluid
from dadda.solver import _row_blocks, advance, initialize


def check(label, u, gx, right, edges, H=None):
    H = u @ gx if H is None else H
    hf = H @ right
    assert len(edges) > 2, label
    for b0, b1 in zip(edges, edges[1:]):
        block = u[b0:b1] @ gx
        assert np.array_equal(block.view(np.int64), H[b0:b1].view(np.int64)), (label, b0)
        rows = block @ right
        assert np.array_equal(rows.view(np.int64), hf[b0:b1].view(np.int64)), (label, b0)


for m, n in ((7200, 800), (800, 7200)):
    prob = gen_fluid(m, n)[0]
    state = advance(advance(advance(initialize(prob))))
    right = np.concatenate([prob.Cl, prob.D.p], axis=1)
    for k in (3, 4):
        check((m, n, k), *state._factors(), right, _row_blocks(prob, state), state.H)
        advance(state)
rng = np.random.Generator(np.random.Philox(35))
for m, n in ((2049, 1001), (7001, 333), (3001, 701), (1777, 2345)):
    for r in range(1, 33):
        cols = 1 + r % 3
        u, gx = rng.uniform(size=(m, r)), rng.uniform(size=(r, n))
        right = rng.uniform(size=(n, cols))
        check((m, n, r), u, gx, right, linalg._block_edges(m, n, (r, cols)))
print("ok")
"""
        proc = _run_on_one_blas_thread(code)
        assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr

    def test_fluid_streams_the_formed_value_at_every_k(self):
        # both benchmark fluid instances, BLAS on one thread: streamed erres
        # is bitwise erres of the formed H at every k, and forms no H
        code = """
from dadda import linalg
from dadda.benchgen import gen_fluid
from dadda.solver import _row_blocks, advance, erres, initialize

for m, n in ((7200, 800), (800, 7200)):
    prob = gen_fluid(m, n)[0]
    state = initialize(prob)
    for k in range(7):
        if k:
            advance(state)
        assert _row_blocks(prob, state) is not None, (m, n, k)
        for cpus in (1, 2):
            linalg._cpu_count = lambda c=cpus: c
            streamed = erres(prob, state)
            assert state._H is None
            formed = erres(prob, state.H)
            state._H = None
            assert streamed.hex() == formed.hex(), (m, n, k, cpus, streamed, formed)
print("ok")
"""
        proc = _run_on_one_blas_thread(code)
        assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr

    def test_streamed_solve_forms_no_h_until_it_is_read(self):
        prob = gen_fluid(7200, 800)[0]
        tracemalloc.start()
        try:
            rep = solve(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.termination == "converged"
        assert peak < 7200 * 800 * 8, peak
        state = _run_state(prob, make_shifts(prob), rep.iterations)
        assert np.array_equal(rep.H.view(np.int64), state.H.view(np.int64))
        assert rep.H is rep.H

    @pytest.mark.parametrize("kind", ["banded", "lowrank -1", "lowrank +1", "dense"])
    def test_every_kind_of_d_matches_the_formed_path(self, kind, monkeypatch):
        # only HCH's reduction Cr^T H takes another rounding, from the factors
        rng = np.random.Generator(np.random.Philox(81))
        m, n, r = 1100, 1000, 4
        A = StructuredSquare.banded(m, 0, 0, {0: rng.uniform(1.0, 2.0, size=m)})
        blocks = _blocks(rng, n, 1, 2)
        D = blocks[["banded", "lowrank -1", "lowrank +1", "dense"].index(kind)]
        prob = _problem(rng, A, D)
        state = _factored_state(prob, rng.uniform(size=(m, r)), rng.uniform(size=(r, n)))
        assert len(solver._row_blocks(prob, state)) > 2
        assert len(linalg._row_halves(m, n, solver._row_blocks(prob, state))) == 2
        formed = erres(prob, state.H)
        state._H = None
        values = {}
        for cpus in (1, 2):
            monkeypatch.setattr(linalg, "_cpu_count", lambda c=cpus: c)
            for above in (np.inf, 0.0, formed / 2):
                values.setdefault(above, set()).add(erres(prob, state, above=above).hex())
                assert state._H is None
        # the same bits on one CPU and two
        assert all(len(v) == 1 for v in values.values())
        full = float.fromhex(values[np.inf].pop())
        assert abs(full - formed) <= 1e-14 * formed
        for above in (0.0, formed / 2):
            assert above < float.fromhex(values[above].pop()) <= full

    @pytest.mark.parametrize("m, n", [(400, 100), (100, 400)])
    def test_one_block_takes_the_formed_path(self, m, n):
        prob = gen_fluid(m, n)[0]
        state = _run_state(prob, make_shifts(prob), 2)
        assert solver._row_blocks(prob, state) is None
        value = erres(prob, state)
        assert state._H is not None and value == erres(prob, state.H)

    def test_an_iterate_of_another_shape_gets_one_message(self):
        # one shape check before the row sources split: the streamed path
        # names the shapes as the formed path does
        prob, other = gen_fluid(7200, 800)[0], gen_fluid(3600, 400)[0]
        state = _run_state(other, make_shifts(other), 1)
        for it in (state, state.H):
            with pytest.raises(ValueError, match=r"must have shape \(7200, 800\), got \(3600, 400\)"):
                erres(prob, it)
        one_block, other = gen_fluid(400, 100)[0], gen_fluid(100, 400)[0]
        state = _run_state(other, make_shifts(other), 1)
        for it in (state, state.H):
            with pytest.raises(ValueError, match=r"must have shape \(400, 100\), got \(100, 400\)"):
                erres(one_block, it)

    def test_only_a_diagonal_a_streams(self):
        # an off-diagonal band or a low-rank part of A couples the rows of H
        rng = np.random.Generator(np.random.Philox(82))
        m, n = 1100, 1000
        D = _blocks(rng, n, 1, 2)[0]
        for A in _blocks(rng, m, 1, 0)[:3]:
            prob = _problem(rng, A, D)
            state = _factored_state(prob, rng.uniform(size=(m, 4)), rng.uniform(size=(4, n)))
            assert solver._row_blocks(prob, state) is None, A.kind
        assert solver._row_blocks(prob, state.H) is None


class TestStreamedRatios:
    """ererr and relative_change run in row panels like erres."""

    def test_bitwise_equal_to_the_whole_matrix(self):
        # three panels of 8 rows at n = 4096; each special entry sits in the
        # middle panel, with the other panels on the fast path
        rng = np.random.Generator(np.random.Philox(71))
        x_true = rng.uniform(0.5, 1.5, size=(21, 4096))
        H = x_true * (1.0 + rng.uniform(-1e-12, 1e-12, size=x_true.shape))
        cases = [(H, x_true)]
        for h_val, x_val in ((1e-301, 0.0), (1e-200, 0.0), (np.nan, 1.0), (np.nan, 0.0), (1.0, np.nan)):
            Hc, xc = H.copy(), x_true.copy()
            Hc[10, 7], xc[10, 7] = h_val, x_val
            cases.append((Hc, xc))
        Hz = H.copy()
        Hz[10, 7] = 0.0
        cases.append((Hz, Hz))
        for Hc, xc in cases:
            for got, want in (
                (ererr(Hc, xc), dense_ererr(Hc, xc)),
                (relative_change(Hc, xc), dense_relative_change(Hc, xc)),
                (relative_change(xc, Hc), dense_relative_change(xc, Hc)),
            ):
                assert got == want or (np.isnan(got) and np.isnan(want)), (got, want)
        assert ererr(cases[2][0], cases[2][1]) == np.inf
        assert np.isnan(relative_change(cases[3][0], H))

    def test_memory_stays_within_panels(self):
        prob, x_true = gen_fluid(4096, 1024)
        H = _run_state(prob, make_shifts(prob), 2).H
        h_prev = _run_state(prob, make_shifts(prob), 1).H
        for call, args in ((ererr, (H, x_true)), (relative_change, (H, h_prev))):
            tracemalloc.start()
            try:
                call(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < H.nbytes / 4, (call.__name__, peak)


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

    def test_wide_fluid_converges_in_four(self):
        # the benchmark's 800 x 7200 instance: its iterate is accurate at
        # k = 4, and erres must show it there, so its reductions over the
        # 7200 columns must not be ascending sums (those read 4.2e-14 from
        # k = 4 to 6)
        prob, x_true = gen_fluid(800, 7200)
        rep = solve(prob, criteria=StopCriteria(tolerance=1e-14, max_iterations=6))
        assert (rep.termination, rep.iterations) == ("converged", 4)
        assert rep.erres_final <= 1e-14
        assert ererr(rep.H, x_true) <= 1e-12

    def test_iteration_takes_no_ordered_product(self, monkeypatch):
        # one summation rule: a solve under erres forms every product with
        # @, through the split low-rank form and the hand-off; the problems
        # are built first, because random_mare builds its data with matmul
        probs = [random_mare(5, kind="lowrank"), random_mare(5, kind="banded"), gen_transport(10, 1)]

        def ordered(a, b):
            raise AssertionError("an ordered product inside the iteration")

        for mod in (linalg, gth, problem, solver):
            monkeypatch.setattr(mod, "matmul", ordered)
        for prob in probs:
            rep = solve(prob)
            assert rep.termination == "converged"
            assert rep.switched_at is not None

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
        with pytest.raises(ValueError, match="max\\(p, q\\)"):
            solve(prob, criteria=StopCriteria(kernel_row_cap=1))

    def test_ererr_requires_reference(self, monkeypatch):
        # the input error raises before any set-up work of either loop
        def set_up(*args):
            raise AssertionError("set-up ran before the input check")

        monkeypatch.setattr(solver, "initialize", set_up)
        monkeypatch.setattr(oracle, "initial_quadruple", set_up)
        prob = random_mare(69)
        criteria = StopCriteria(criterion="ererr", tolerance=1e-10)
        for run in (solve, solver.solve_dense):
            with pytest.raises(ValueError, match="true solution"):
                run(prob, criteria=criteria)
            # a reference of the wrong shape raises as early
            with pytest.raises(ValueError, match="true solution must have shape"):
                run(prob, criteria=criteria, x_true=np.ones((prob.m - 1, prob.n)))

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


class TestTransportReference:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_solve_is_componentwise_accurate(self, seed):
        # against Lu's vector form, which no doubling step enters: every
        # entry of H, however small, to a few ulps (1.3e-14 measured at s = 1)
        draw = draw_transport(100, seed)
        rep = solve(draw.problem, criteria=StopCriteria(tolerance=1e-12))
        assert rep.termination == "converged"
        exact = transport_reference(draw)
        assert np.max(np.abs(rep.H - exact) / exact) <= 5e-14

    def test_the_dense_oracle_fails_the_check(self):
        # teeth: run through the same check, the dense LU oracle errs above
        # the bound on both draws where solve stays under it; with BLAS on
        # one thread the oracle read 6.72e-14 and 8.73e-14, solve 1.25e-14
        # and 2.21e-14
        code = """
import numpy as np
from conftest import transport_reference
from dadda.benchgen import draw_transport
from dadda.solver import StopCriteria, solve, solve_dense

for seed in (1, 2):
    draw = draw_transport(100, seed)
    exact = transport_reference(draw)
    errors = []
    for run in (solve, solve_dense):
        rep = run(draw.problem, criteria=StopCriteria(tolerance=1e-12))
        assert rep.termination == "converged", (seed, run.__name__)
        errors.append(np.max(np.abs(rep.H - exact) / exact))
    assert errors[0] <= 5e-14 < errors[1], (seed, errors)
    print(*errors)
print("ok")
"""
        proc = _run_on_one_blas_thread(code)
        assert proc.returncode == 0 and proc.stdout.split()[-1] == "ok", proc.stderr


def _tridiagonal_mare(order, seed):
    """Tridiagonal A and D with p = q = 1 and u = ones; each diagonal
    follows from W ones = v."""
    rng = np.random.Generator(np.random.Philox(seed))
    off = [rng.uniform(0.5, 1.0, size=order - 1) for _ in range(4)]
    v1, v2 = rng.uniform(0.5, 1.0, size=order), rng.uniform(0.5, 1.0, size=order)
    Bl, Br = rng.uniform(size=(order, 1)), rng.uniform(size=(order, 1)) / order
    Cl, Cr = rng.uniform(size=(order, 1)), rng.uniform(size=(order, 1)) / order

    def block(sub, sup, image):
        diag = image.copy()
        diag[1:] += sub
        diag[:-1] += sup
        return StructuredSquare.banded(order, 1, 1, {-1: -sub, 0: diag, 1: -sup})

    return MareProblem(
        A=block(off[0], off[1], v2 + Bl[:, 0] * Br.sum()),
        D=block(off[2], off[3], v1 + Cl[:, 0] * Cr.sum()),
        Bl=Bl, Br=Br, Cl=Cl, Cr=Cr,
        u1=np.ones(order), u2=np.ones(order), v1=v1, v2=v2,
    )


def _fluid_sign_plus_one(m, n):
    """gen_fluid(m, n) with A = n I stored as diag(d) + e0 e0^T, sign +1."""
    prob = gen_fluid(m, n)[0]
    d, e0 = np.full(m, float(n)), np.eye(m)[:, :1]
    d[0] -= 1.0
    low = StructuredSquare.diag_plus_lowrank(d, e0, e0, sign=1)
    return dataclasses.replace(prob, A=low)


# every input but the last has more than one slab (2^15) of entries
GATE_CASES = {
    "fluid 400x100": lambda: (gen_fluid(400, 100)[0], StopCriteria()),
    "fluid 100x400": lambda: (gen_fluid(100, 400)[0], StopCriteria()),
    # the twin of test_sign_plus_one_diagonal_block: its row dots go to P
    "fluid 400x100, sign +1 A": lambda: (_fluid_sign_plus_one(400, 100), StopCriteria()),
    # stops at k = 3 at computed erres 9.1e-16, where ascending reductions
    # over its 1000 columns read 1.55e-14
    "fluid 33x1000": lambda: (gen_fluid(33, 1000)[0], StopCriteria()),
    "tridiagonal 200": lambda: (_tridiagonal_mare(200, 1), StopCriteria(tolerance=1e-13)),
    "lowrank 300x200": lambda: (
        random_mare(2, m=300, n=200, kind="lowrank"), StopCriteria(tolerance=1e-12)),
    "dense 190x175": lambda: (random_mare(3, m=190, n=175), StopCriteria(tolerance=1e-12)),
    # hands off to ADDA at k = 8, so the dense side of apply_h runs
    "transport 200": lambda: (gen_transport(200, 1), StopCriteria(tolerance=1e-12)),
    "transport 10": lambda: (gen_transport(10, 1), StopCriteria(tolerance=1e-12)),
}


def _hand_stepped(prob, criteria):
    """solve's stopping rule with the full erres at every k.

    Returns the final iterate, the termination, every erres and the
    switch step.  The inputs stay far below the kernel row cap.
    """
    it, values = initialize(prob), []
    while True:
        values.append(erres(prob, it.H))
        if values[-1] <= criteria.tolerance:
            return it, "converged", values, it.switched_at
        if it.k >= criteria.max_iterations:
            return it, "max_iterations", values, it.switched_at
        it = it.successor(criteria.kernel_row_cap)
        it.step()


@functools.lru_cache(maxsize=None)
def _gate_run(case):
    prob, criteria = GATE_CASES[case]()
    return prob, criteria, solve(prob, criteria=criteria), _hand_stepped(prob, criteria)


class TestErresGate:
    @pytest.mark.parametrize("case", list(GATE_CASES))
    def test_parity_with_hand_stepped_loop(self, case):
        prob, _, rep, (it, termination, values, switched_at) = _gate_run(case)
        assert (rep.termination, rep.iterations, rep.switched_at) == (
            termination, it.k, switched_at)
        assert np.array_equal(rep.H, it.H)
        assert rep.erres_final == values[-1]
        assert rep.frob_h == it.frob()
        assert rep.rank_h == it.rank()
        assert [r.k for r in rep.records] == list(range(len(values)))
        for r, e in zip(rep.records, values):
            if not r.lower_bound:
                assert r.value == e
        gated = [r.lower_bound for r in rep.records]
        # above one slab the gate fires; at or below it, perfbench's
        # criterion_calls == len(records) relies on it never firing
        assert any(gated) is (prob.m * prob.n > 2**15)

    @pytest.mark.parametrize("case", list(GATE_CASES))
    def test_bound_records_lie_between_tolerance_and_erres(self, case):
        _, criteria, rep, (_, _, values, _) = _gate_run(case)
        for r, e in zip(rep.records, values):
            if r.lower_bound:
                assert criteria.tolerance < r.value <= e

    def test_slack_covers_a_raw_bound_above_erres(self):
        # 33 x 1000 is just above one slab; at k = 2 the raw bound
        # 1.1098e-10 exceeds the computed erres 1.1095e-10 by far more than
        # the rounding of either (at k = 0 the two agree to 1e-9 relative)
        prob = gen_fluid(33, 1000)[0]
        state = _run_state(prob, make_shifts(prob), 2)
        raw, slack = _erres_gate(prob)(state)
        value = erres(prob, state.H)
        assert np.nanmax(raw) > value
        assert 1e-14 < np.nanmax(raw - slack) <= value

    def test_gate_parts_are_built_once_per_solve(self, monkeypatch):
        # the split of N_D u1 is a problem-only part of the gate, taken once
        # per solve; the split of N_A (H u) is taken at every step
        prob = gen_fluid(400, 100)[0]
        calls = []
        split = StructuredSquare.offdiag_parts

        def counted(self, x, *args, **kwargs):
            calls.append(self)
            return split(self, x, *args, **kwargs)

        monkeypatch.setattr(StructuredSquare, "offdiag_parts", counted)
        rep = solve(prob)
        assert len(rep.records) == 6
        assert sum(block is prob.D for block in calls) == 1
        assert sum(block is prob.A for block in calls) == len(rep.records)

    def test_erres_final_is_a_full_evaluation(self):
        prob = gen_fluid(400, 100)[0]
        rep = solve(prob, criteria=StopCriteria(max_iterations=1))
        assert rep.termination == "max_iterations"
        assert rep.records[-1].lower_bound
        assert rep.erres_final == erres(prob, rep.H)
        assert rep.erres_final > rep.tolerance

    def test_gated_steps_never_form_h(self, monkeypatch):
        events = []
        materialize = DaddaState.H.fget

        def counted(state):
            if state._H is None:
                events.append(("H", state.k))
            return materialize(state)

        def counted_erres(prob, H, **kwargs):
            events.append("erres")
            return erres(prob, H, **kwargs)

        monkeypatch.setattr(DaddaState, "H", property(counted))
        monkeypatch.setattr(solver, "erres", counted_erres)
        rep = solve(gen_fluid(400, 100)[0])
        # H is formed exactly at the steps that call erres; k = 0..3 are gate
        # records, k = 4 stops erres at a panel above the tolerance, and
        # k = 5 converges
        called = [event[1] for event in events if event != "erres"]
        assert called == [4, 5]
        assert events == [e for k in called for e in (("H", k), "erres")]
        assert [r.lower_bound for r in rep.records] == [True] * 5 + [False]

    @pytest.mark.parametrize("case", ["fluid 400x100", "fluid 7200x800", "tridiagonal 200"])
    def test_frob_h_is_the_norm_of_the_returned_h(self, case):
        # the reference is H's own norm, not the exact solution's: the
        # iterate may sit further from that than frob_h's rounding
        if case == "fluid 7200x800":
            rep = solve(gen_fluid(7200, 800)[0])
        else:
            rep = _gate_run(case)[2]
        exact = math.sqrt(math.fsum(np.square(rep.H).ravel()))
        assert abs(rep.frob_h - exact) <= 1e-13 * exact


class TestIterateProtocol:
    # p = 1, q = 3 and m + n = 70: the next kernel's larger side, 3 * 2^(k+1)
    # rows, first outgrows m + n at k = 4 (96 rows), while the records give
    # the factored kernel's order 2^k p
    @staticmethod
    def _prob():
        return random_mare(7, m=40, n=30, p=1, q=3)

    def test_adda_iterates_are_their_own_successors(self):
        prob = self._prob()
        sh = make_shifts(prob)
        dense, triplet = _DenseAdda(prob, sh), _TripletAdda(initialize(prob, sh))
        assert (dense.switched_at, triplet.switched_at) == (None, 0)
        for it in (dense, triplet):
            for cap in (1, 96, StopCriteria().kernel_row_cap):
                assert it.successor(cap) is it

    def test_dadda_state_is_its_own_successor_below_m_plus_n(self):
        state = initialize(self._prob())
        for k in range(4):
            assert (state.k, state.switched_at) == (k, None)
            assert state.successor(StopCriteria().kernel_row_cap) is state
            advance(state)

    def test_hand_off_at_m_plus_n(self):
        state = _run_state(self._prob(), None, 4)
        it = state.successor(StopCriteria().kernel_row_cap)
        assert isinstance(it, _TripletAdda)
        assert it.switched_at == it.k == 4
        assert it.H is state.H
        rep = solve(self._prob(), criteria=StopCriteria(tolerance=1e-13))
        assert rep.switched_at == 4
        assert [r.kernel_order for r in rep.records[:6]] == [1, 2, 4, 8, 16, 30]

    def test_loop_drops_the_state_at_the_hand_off(self, monkeypatch):
        # under rchange the loop keeps the previous H, which the hand-off
        # shares; the DaddaState itself must be gone by the first ADDA step
        states, alive = [], []
        build, step = _TripletAdda.__init__, _TripletAdda.step

        def traced_build(it, state):
            states.append(weakref.ref(state))
            build(it, state)

        def traced_step(it):
            alive.append(states[0]() is not None)
            step(it)

        monkeypatch.setattr(_TripletAdda, "__init__", traced_build)
        monkeypatch.setattr(_TripletAdda, "step", traced_step)
        rep = solve(self._prob(), criteria=StopCriteria(criterion="rchange", tolerance=1e-13))
        assert rep.switched_at == 4
        assert alive and not any(alive)

    def test_cap_stops_and_wins_over_the_hand_off(self):
        state = initialize(self._prob())
        assert state.successor(6) is state
        assert state.successor(5) is None
        state = _run_state(self._prob(), None, 4)
        assert isinstance(state.successor(96), _TripletAdda)
        assert state.successor(95) is None

    def test_smallest_cap_is_the_first_kernels_side(self):
        # the k = 0 iterate's larger side is max(p, q) = 3 rows, so cap 3
        # ends the solve at k = 0 exactly as caps 4 and 5 do; cap 2 cannot
        # hold even that iterate and is rejected
        records = []
        for cap in (3, 4, 5):
            rep = solve(self._prob(), criteria=StopCriteria(tolerance=1e-13, kernel_row_cap=cap))
            assert (rep.termination, rep.iterations) == ("kernel_cap_exceeded", 0)
            records.append([dataclasses.replace(r, seconds=0.0) for r in rep.records])
        assert records[0] == records[1] == records[2]
        with pytest.raises(ValueError, match="max\\(p, q\\)"):
            solve(self._prob(), criteria=StopCriteria(kernel_row_cap=2))


NEAR_CRITICAL = dict(alpha_t=1e-8, beta_t=1.0 - 1e-6)


class TestTripletAdda:
    def test_iterates_match_dense_oracle(self):
        # all four blocks, k <= 5, to 1e-10 entrywise relative on entries
        # above 1e-30 (acceptance criterion 02's bound)
        worst = 0.0
        for seed in range(50):
            prob = random_mare(seed)
            sh = make_shifts(prob)
            it = _TripletAdda(initialize(prob, sh))
            ref = oracle.initial_quadruple(prob, sh)
            for k in range(6):
                if k:
                    it.step()
                    ref = oracle.step_quadruple(*ref)
                for got, want in zip(it.quad, ref):
                    mask = np.abs(want) > 1e-30
                    if mask.any():
                        rel = np.abs(got - want)[mask] / np.abs(want)[mask]
                        worst = max(worst, float(rel.max()))
        assert worst <= 1e-10

    def test_closed_form_hand_off(self):
        # the quadruple built from the dADDA factors at every k up to the
        # switch: criterion 02's bound against the oracle on entries above
        # 1e-30, u = [[E, G], [H, F]] u + w to 1e-12 entrywise relative,
        # and every array exactly nonnegative
        probs = [
            random_mare(200 + 9 * i + 3 * p + q, m=m, n=n, p=p, q=q, kind=kind)
            for i, kind in enumerate(("dense", "lowrank", "banded"))
            for p in (1, 2, 3)
            for q in (1, 2, 3)
            for m, n in [((13, 6), (6, 13), (9, 9))[(i + p + q) % 3]]
        ]
        probs += [gen_transport(10, 1), gen_transport(20, 1, **NEAR_CRITICAL)]
        worst = 0.0
        for prob in probs:
            sh = make_shifts(prob)
            state = initialize(prob, sh)
            ref = oracle.initial_quadruple(prob, sh)
            u = np.concatenate([prob.u1, prob.u2])
            while True:
                it = _TripletAdda(state)
                assert it.k == state.k
                for got, want in zip(it.quad, ref):
                    mask = np.abs(want) > 1e-30
                    rel = np.abs(got - want)[mask] / np.abs(want)[mask]
                    worst = max(worst, float(rel.max(initial=0.0)))
                for x in (*it.quad, it.w1, it.w2):
                    assert np.all(x >= 0.0)
                E, F, G, H = it.quad
                image = np.block([[E, G], [H, F]]) @ u + np.concatenate([it.w1, it.w2])
                assert np.all(np.abs(image - u) <= 1e-12 * u), state.k
                if state.successor(StopCriteria().kernel_row_cap) is not state:
                    break
                advance(state)
                ref = oracle.step_quadruple(*ref)
        assert worst <= 1e-10

    @pytest.mark.parametrize("m, n", [(30, 8), (8, 30)])
    def test_one_kernel_per_step(self, monkeypatch, m, n):
        # each step factors the kernel of order min(m, n) once; the other
        # side's solves come from it by push-through
        prob = random_mare(90, m=m, n=n)
        sh = make_shifts(prob)
        it = _TripletAdda(initialize(prob, sh))
        assert it.kernel_order == min(m, n)
        orders = []

        def counted(t):
            orders.append(t.n)
            return gth_factorize(t)

        monkeypatch.setattr("dadda.solver.gth_factorize", counted)
        ref = oracle.initial_quadruple(prob, sh)
        for k in range(1, 6):
            it.step()
            ref = oracle.step_quadruple(*ref)
            assert orders == [min(m, n)] * k
            for got, want in zip(it.quad, ref):
                mask = np.abs(want) > 1e-30
                assert np.all(np.abs(got - want)[mask] <= 1e-10 * np.abs(want)[mask])

    def test_exactly_nonnegative_with_kernel_identities(self):
        # u = [[E, G], [H, F]] u + w carries over, so (I - G H) u1 and
        # (I - H G) u2 equal the kernel images built without subtraction
        for n in (10, 20):
            prob = gen_transport(n, 0)
            it = _TripletAdda(initialize(prob))
            u1, u2 = prob.u1, prob.u2
            for k in range(8):
                if k:
                    it.step()
                E, F, G, H = it.quad
                for x in (E, F, G, H, it.w1, it.w2):
                    assert np.all(x >= 0.0)
                r1 = it.w1 + E @ u1
                r2 = it.w2 + F @ u2
                for K, u, v in (
                    (np.eye(prob.n) - G @ H, u1, r1 + G @ r2),
                    (np.eye(prob.m) - H @ G, u2, r2 + H @ r1),
                ):
                    assert np.abs(K @ u - v).max() <= 1e-12 * np.abs(v).max()

    def test_near_critical_transport_converges(self):
        prob = gen_transport(20, 1, **NEAR_CRITICAL)
        rep = solve(prob, criteria=StopCriteria(tolerance=1e-12, max_iterations=30))
        assert rep.termination == "converged"
        assert rep.erres_final <= 1e-12
        # 2^6 > m + n = 40: the loop hands off after the record of k = 5
        assert rep.switched_at == 5
        orders = [r.kernel_order for r in rep.records]
        assert orders[:6] == [2**k for k in range(6)]
        assert orders[6:] == [20] * (len(orders) - 6)
        assert np.all(rep.H >= 0.0)

    def test_no_switch_below_the_order(self):
        prob, _ = gen_fluid(2, 18)
        rep = solve(prob)
        assert rep.termination == "converged" and rep.switched_at is None

    def test_monotone_across_the_switch(self):
        # dADDA up to the switch, triplet ADDA after it: one nondecreasing
        # sequence within acceptance criterion 09's -1e-15 slack
        for prob, switch in (
            (gen_transport(10, 0), 4),
            (gen_transport(20, 1, **NEAR_CRITICAL), 5),
        ):
            sh = make_shifts(prob)
            state = initialize(prob, sh)
            hs = [state.H]
            for _ in range(switch):
                advance(state)
                hs.append(state.H)
            it = _TripletAdda(state)
            for _ in range(4):
                it.step()
                hs.append(it.H)
            drop = min(float(np.min(b - a)) for a, b in zip(hs, hs[1:]))
            assert drop >= -1e-15

    def test_switched_dual_iterate(self):
        prob = gen_transport(10, 0)
        sh = make_shifts(prob)
        rep = solve(prob, shifts=sh, criteria=StopCriteria(tolerance=1e-12))
        assert rep.switched_at == 4
        G = oracle.iterate_oracle(prob, sh, rep.iterations)[2]
        assert np.abs(rep.G - G).max() <= 1e-10 * G.max()

    def test_sign_violation_raises_under_optimize(self):
        # a negative entry planted in any operand of a step, or in a dADDA
        # factor block before the hand-off, must stop it under python -O
        # as well
        code = """
from dadda.benchgen import gen_transport
from dadda.gth import NotMMatrixError
from dadda.solver import _TripletAdda, advance, initialize
prob = gen_transport(10, 0)
for name in ("E", "F", "G", "H", "w1", "w2"):
    it = _TripletAdda(initialize(prob))
    arrays = dict(zip("EFGH", it.quad), w1=it.w1, w2=it.w2)
    arrays[name].flat[0] = -1.0
    try:
        it.step()
    except NotMMatrixError:
        continue
    raise SystemExit(f"stepped despite a negative entry in {name}")
for name in ("u_blocks", "v_blocks", "w_blocks", "q_blocks", "Y", "Z"):
    state = advance(advance(initialize(prob)))
    target = getattr(state, name)
    (target[-1] if isinstance(target, list) else target).flat[0] = -1.0
    try:
        _TripletAdda(state)
    except NotMMatrixError:
        continue
    raise SystemExit(f"handed off despite a negative entry in {name}")
# a negative entry in a mid-chain block or in a shifted solution of any
# family's step operator (the 2nd of the 4 blocks that k = 2 -> 3 makes),
# small enough that the blocks after it stay nonnegative
for family in range(4):
    for part in ("solve", "apply"):
        state = advance(advance(initialize(prob)))
        step = state.block_steps[family]
        outputs = []

        def planted(x, inner=getattr(step, part), outputs=outputs):
            out = inner(x)
            outputs.append(out)
            if len(outputs) == 2:
                out.flat[0] = -1e-300
            return out

        setattr(step, part, planted)
        try:
            advance(state)
        except NotMMatrixError:
            if len(outputs) == 4:
                continue
        raise SystemExit(f"stepped despite a negative {part} output in family {family}")
"""
        proc = _run_optimized(code)
        assert proc.returncode == 0, proc.stderr


def _load_tracer():
    """perfbench/tracer.py, the benchmark's span table, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBandedSetup:
    def test_banded_steps_never_densify(self, monkeypatch):
        prob = random_mare(40, m=30, n=20, p=1, q=1, kind="banded")

        def refuse(self):
            raise AssertionError(f"{self.kind} block of order {self.n} densified")

        monkeypatch.setattr(StructuredSquare, "to_dense", refuse)
        assert not prob.validate().errors
        state = initialize(prob)
        for _ in range(2):
            state = advance(state)
        assert state.k == 2
        assert np.all(state.H >= 0.0)

    def test_band_solvers_keep_the_benchmark_kind(self):
        # the benchmark's per-layer table looks shifted solvers up by class
        # name; both banded blocks must count as its "dense" kind
        tracer = _load_tracer()
        spans = tracer.Spans()
        with spans.patches():
            report = solve(random_mare(41, m=30, n=20, kind="banded"))
        assert report.termination == "converged"
        assert tracer.span_metrics(spans.rows)["gth.solver_kind.dense"] == 2

"""GTH-like factorization, triplet handling, and the SMW fast path."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dadda
from conftest import fraction_solve, random_triplet
from dadda.gth import (
    _PANEL,
    DenseGthSolver,
    DiagLowRankSolver,
    DiagonalSolver,
    NotMMatrixError,
    TripletRepresentation,
    build_solver,
    diagonal_from_triplet,
    gth_factorize,
    triplet_for_capacitance,
)
from dadda.linalg import StructuredSquare, frobenius_norm, matmul


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _run_optimized(code):
    """Run ``code`` in a fresh ``python -O`` with this dadda importable."""
    src = os.path.dirname(os.path.dirname(dadda.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def _sign_ok(f):
    n = f.n
    assert np.array_equal(np.diagonal(f.L), np.ones(n))
    assert np.all(f.L[np.triu_indices(n, 1)] == 0.0)
    assert np.all(f.U[np.tril_indices(n, -1)] == 0.0)
    assert np.all(np.diagonal(f.U) > 0.0)
    off = ~np.eye(n, dtype=bool)
    assert np.all(f.L[off] <= 0.0)
    assert np.all(f.U[off] <= 0.0)


class TestTriplet:
    def test_implied_diagonal(self):
        t = TripletRepresentation.from_parts([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0], [1.0, 1.0])
        assert np.array_equal(diagonal_from_triplet(t), [2.0, 2.0])
        assert np.array_equal(t.matrix(), [[2.0, -1.0], [-1.0, 2.0]])

    def test_validation(self):
        with pytest.raises(NotMMatrixError):
            TripletRepresentation.from_parts([[0.0, -1.0], [0.0, 0.0]], [1, 1], [1, 1])
        with pytest.raises(ValueError):
            TripletRepresentation.from_parts([[1.0, 0.0], [0.0, 0.0]], [1, 1], [1, 1])
        with pytest.raises(ValueError):
            TripletRepresentation.from_parts(np.zeros((2, 2)), [1.0, 0.0], [1, 1])
        with pytest.raises(ValueError):
            TripletRepresentation.from_parts(np.zeros((2, 2)), [1, 1], [1.0, -1.0])
        with pytest.raises(ValueError):
            TripletRepresentation.from_parts(np.zeros((2, 3)), [1, 1], [1, 1])
        with pytest.raises(ValueError):
            TripletRepresentation.from_parts(np.full((2, 2), np.nan), [1, 1], [1, 1])

    def test_diagonal_must_be_positive(self):
        # v = 0 and a zero row in N implies a zero diagonal entry
        t = TripletRepresentation.from_parts(np.zeros((2, 2)), [1, 1], [0.0, 1.0])
        with pytest.raises(NotMMatrixError):
            diagonal_from_triplet(t)


class TestFactorization:
    def test_two_by_two_exact(self):
        t = TripletRepresentation.from_parts([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0], [1.0, 1.0])
        f = gth_factorize(t)
        assert np.array_equal(f.L, [[1.0, 0.0], [-0.5, 1.0]])
        assert np.array_equal(f.U, [[2.0, -1.0], [0.0, 1.5]])
        assert np.array_equal(f.solve([1.0, 1.0]), [1.0, 1.0])
        x = f.solve([1.0, 0.0])
        assert x == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-15)

    def test_reconstruction_and_signs(self):
        rng = _rng(20)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            N, u, v = random_triplet(rng, n)
            t = TripletRepresentation.from_parts(N, u, v)
            f = gth_factorize(t)
            _sign_ok(f)
            m = t.matrix()
            err = frobenius_norm(matmul(f.L, f.U) - m) / frobenius_norm(m)
            assert err <= 1e-14
            # the triplet identity M u = v survives the factorization
            mu = matmul(f.L, matmul(f.U, u[:, None]))[:, 0]
            assert np.abs(mu - v).max() <= 1e-13 * max(1.0, np.abs(v).max())

    def test_against_exact_rational_oracle(self):
        rng = _rng(21)
        for trial in range(60):
            n = int(rng.integers(2, 13))
            v_scale = 1e-10 if trial % 5 == 0 else 1.0
            N, u, v = random_triplet(rng, n, v_scale=v_scale)
            b = rng.uniform(0.0, 1.0, size=n)
            x = DenseGthSolver(TripletRepresentation.from_parts(N, u, v)).solve(b)
            ref = fraction_solve(N, u, v, b)
            rel = np.abs(x - ref).max() / np.abs(ref).max()
            assert rel <= 1e-13
            assert np.all(x >= 0.0)

    def test_nonnegative_rhs_nonnegative_solution(self):
        rng = _rng(22)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            N, u, v = random_triplet(rng, n, v_scale=1e-8)
            f = gth_factorize(TripletRepresentation.from_parts(N, u, v))
            b = rng.uniform(0.0, 1.0, size=(n, 3))
            assert np.all(f.solve(b) >= 0.0)
            assert np.all(f.solve(b, transpose=True) >= 0.0)

    def test_transpose_solve(self):
        rng = _rng(23)
        N, u, v = random_triplet(rng, 9)
        t = TripletRepresentation.from_parts(N, u, v)
        f = gth_factorize(t)
        b = rng.standard_normal(9)
        x = f.solve(b, transpose=True)
        ref = np.linalg.solve(t.matrix().T, b)
        assert np.allclose(x, ref, rtol=1e-12, atol=1e-14)

    def test_singular_matrix_rejected(self):
        # row sums zero: M [1,1] = 0 with no slack, second pivot vanishes
        t = TripletRepresentation.from_parts(
            [[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0], [0.0, 0.0]
        )
        with pytest.raises(NotMMatrixError):
            gth_factorize(t)

    def test_banded_windows_match_full(self):
        rng = _rng(24)
        n = 14
        N = np.zeros((n, n))
        for off in (-2, -1, 1):
            idx = np.arange(n - abs(off))
            row = idx if off > 0 else idx - off
            col = idx + off if off > 0 else idx
            N[row, col] = rng.uniform(0.1, 1.0, size=n - abs(off))
        u = rng.uniform(0.5, 1.5, size=n)
        v = rng.uniform(0.1, 1.0, size=n)
        t = TripletRepresentation.from_parts(N, u, v)
        full = gth_factorize(t)
        windowed = gth_factorize(t, lower_bandwidth=2, upper_bandwidth=1)
        assert np.array_equal(full.L, windowed.L)
        assert np.array_equal(full.U, windowed.U)
        b = rng.uniform(size=n)
        assert np.array_equal(full.solve(b), windowed.solve(b))

    def test_bandwidth_validation(self):
        t = TripletRepresentation.from_parts(np.zeros((2, 2)), [1, 1], [1, 1])
        with pytest.raises(ValueError):
            gth_factorize(t, lower_bandwidth=-1, upper_bandwidth=0)

    def test_blocked_matches_sequential(self):
        # above order 192 the dense path runs BLAS-3 panels; forcing full
        # bandwidths selects the sequential reference loop.  The second
        # order spans three full panels and a ragged one.
        for n, seed in ((230, 25), (3 * _PANEL + _PANEL // 2 + 5, 30)):
            rng = _rng(seed)
            N, u, v = random_triplet(rng, n, v_scale=1e-6, density=0.3)
            t = TripletRepresentation.from_parts(N, u, v)
            blocked = gth_factorize(t)
            seq = gth_factorize(t, lower_bandwidth=n - 1, upper_bandwidth=n - 1)
            _sign_ok(blocked)
            _sign_ok(seq)
            scale = np.abs(seq.U).max()
            assert np.abs(blocked.U - seq.U).max() <= 1e-13 * scale
            assert np.abs(blocked.L - seq.L).max() <= 1e-13
            b = rng.uniform(size=n)
            xb = blocked.solve(b)
            xs = seq.solve(b)
            assert np.abs(xb - xs).max() <= 1e-13 * np.abs(xs).max()
            assert np.all(xb >= 0.0)
            xbt = blocked.solve(b, transpose=True)
            xst = seq.solve(b, transpose=True)
            assert np.abs(xbt - xst).max() <= 1e-13 * np.abs(xst).max()
            assert np.all(xbt >= 0.0)

    def test_sign_violation_raises_under_optimize(self):
        # N changed after validation: U gains a positive entry below the
        # first pivot, so L would too.  The check must survive python -O,
        # on the sequential (n = 5) and the panelled (n = 300) path.
        for n in (5, 300):
            code = f"""
import numpy as np
from dadda.gth import NotMMatrixError, TripletRepresentation, gth_factorize
rng = np.random.Generator(np.random.Philox(31))
N = rng.uniform(size=({n}, {n}))
np.fill_diagonal(N, 0.0)
t = TripletRepresentation.from_parts(
    N, rng.uniform(0.5, 1.5, size={n}), rng.uniform(0.1, 1.0, size={n})
)
t.N[{n} - 1, 0] = -0.5
try:
    gth_factorize(t)
except NotMMatrixError:
    raise SystemExit(0)
raise SystemExit("factorization returned despite a positive off-diagonal entry")
"""
            proc = _run_optimized(code)
            assert proc.returncode == 0, (n, proc.stderr)

    def test_solver_sign_violation_raises_under_optimize(self):
        # a negative entry planted in the kernel solution X must stop the
        # materialization of H = gamma Ucheck X under python -O as well
        code = """
from dadda.benchgen import gen_fluid
from dadda.gth import NotMMatrixError
from dadda.solver import initialize
state = initialize(gen_fluid(2, 18)[0])
state.X[0, 0] = -1.0
try:
    state.H
except NotMMatrixError:
    raise SystemExit(0)
raise SystemExit("H materialized despite a negative kernel solution")
"""
        proc = _run_optimized(code)
        assert proc.returncode == 0, proc.stderr

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_factorization_properties(self, seed):
        rng = _rng(seed)
        n = int(rng.integers(2, 9))
        N, u, v = random_triplet(rng, n, v_scale=10.0 ** rng.integers(-10, 1))
        t = TripletRepresentation.from_parts(N, u, v)
        f = gth_factorize(t)
        _sign_ok(f)
        b = rng.uniform(size=n)
        x = f.solve(b)
        assert np.all(x >= 0.0)
        # componentwise accuracy against the exact rational solve, even
        # when tiny v makes M nearly singular
        ref = fraction_solve(N, u, v, b)
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()


class TestDiagLowRank:
    def test_rank_one_example(self):
        d = np.array([2.0, 2.0])
        P = np.array([[0.5], [0.5]])
        R = np.array([[0.5], [0.5]])
        u = np.array([1.0, 1.0])
        v = np.array([1.5, 1.5])  # (diag(d) - P R^T) u
        x = DiagLowRankSolver(d, P, R, u, v).solve(np.array([1.0, 1.0]))
        assert x == pytest.approx([2.0 / 3.0, 2.0 / 3.0], rel=1e-15)

    def test_zero_lowrank_reduces_to_diagonal(self):
        d = np.array([2.0, 4.0])
        P = np.zeros((2, 1))
        R = np.zeros((2, 1))
        x = DiagLowRankSolver(d, P, R, [1, 1], d).solve(np.array([1.0, 2.0]))
        assert np.array_equal(x, [0.5, 0.5])

    def _random_instance(self, rng, n, r):
        P = rng.uniform(0.1, 1.0, size=(n, r))
        R = rng.uniform(0.1, 1.0, size=(n, r))
        u = rng.uniform(0.5, 1.5, size=n)
        vv = rng.uniform(0.1, 1.0, size=n)
        # choose d so that (diag(d) - P R^T) u = vv exactly in the triplet sense
        d = (vv + matmul(P, matmul(R.T, u[:, None]))[:, 0]) / u
        v = (d * u) - matmul(P, matmul(R.T, u[:, None]))[:, 0]
        return d, P, R, u, np.maximum(v, 0.0)

    def test_rank_one_matches_dense(self):
        rng = _rng(26)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            d, P, R, u, v = self._random_instance(rng, n, 1)
            solver = DiagLowRankSolver(d, P, R, u, v)
            assert solver._mode == "rank1"
            dense = np.diag(d) - matmul(P, R.T)
            b = rng.uniform(size=(n, 2))
            x = solver.solve(b)
            ref = np.linalg.solve(dense, b)
            assert np.allclose(x, ref, rtol=1e-13, atol=1e-15)
            xt = solver.solve(b, transpose=True)
            reft = np.linalg.solve(dense.T, b)
            assert np.allclose(xt, reft, rtol=1e-13, atol=1e-15)
            assert np.all(x >= 0.0)

    def test_higher_rank_capacitance(self):
        rng = _rng(27)
        for r in (2, 3):
            for _ in range(15):
                n = int(rng.integers(3, 20))
                d, P, R, u, v = self._random_instance(rng, n, r)
                solver = DiagLowRankSolver(d, P, R, u, v)
                assert solver._mode == "capacitance"
                dense = np.diag(d) - matmul(P, R.T)
                b = rng.uniform(size=n)
                x = solver.solve(b)
                ref = np.linalg.solve(dense, b)
                assert np.allclose(x, ref, rtol=1e-12, atol=1e-14)
                assert np.all(x >= 0.0)
                xt = solver.solve(b, transpose=True)
                assert np.allclose(xt, np.linalg.solve(dense.T, b), rtol=1e-12, atol=1e-14)

    def test_capacitance_triplet_identity(self):
        rng = _rng(28)
        n, r = 12, 3
        d, P, R, u, v = self._random_instance(rng, n, r)
        cap = triplet_for_capacitance(d, P, R, u, v)
        core = matmul(R.T, P / d[:, None])
        dense_cap = np.eye(r) - core
        # off-diagonal entries agree exactly, the diagonal is implied
        off = ~np.eye(r, dtype=bool)
        assert np.array_equal(-cap.N[off], dense_cap[off])
        implied = diagonal_from_triplet(cap)
        assert np.allclose(implied, np.diagonal(dense_cap), rtol=1e-13, atol=0)

    def test_negative_factors_take_rank_one_path(self):
        # P = R = -1 has the same nonnegative product as P = R = 1; the
        # canonical form negates both exactly and keeps the SMW path
        d = np.array([3.0, 3.0])
        P = np.array([[-1.0], [-1.0]])
        R = np.array([[-1.0], [-1.0]])
        u = np.array([1.0, 1.0])
        v = np.array([1.0, 1.0])  # (diag(d) - P R^T) u with P R^T = ones
        solver = DiagLowRankSolver(d, P, R, u, v)
        assert solver._mode == "rank1"
        x = solver.solve(np.array([1.0, 1.0]))
        dense = np.diag(d) - matmul(P, R.T)
        assert np.allclose(x, np.linalg.solve(dense, np.array([1.0, 1.0])), rtol=1e-13)
        # P R^T <= 0 would flip the sign: diag(d) + |P| |R|^T has no SMW form
        with pytest.raises(ValueError, match="SMW"):
            DiagLowRankSolver(d, P, -R, u, v)

    def test_mixed_sign_pairs_rejected_without_expansion(self):
        # a pair with entries of both signs, and two pairs whose products
        # have opposite signs (diag(n + 1) - [1 1] [2 -1]^T, which is
        # diag(n + 1) - 1 1^T): no nonnegative capacitance triplet exists,
        # so both constructors refuse them, in O(n r) memory
        n = 5000
        d, u, v = np.full(n, n + 1.0), np.ones(n), np.ones(n)
        one = np.ones(n)
        mixed = one.copy()
        mixed[0] = -1.0
        cases = [
            (one[:, None], mixed[:, None]),
            (np.column_stack([one, one]), np.column_stack([2.0 * one, -one])),
        ]
        tracemalloc.start()
        try:
            for P, R in cases:
                with pytest.raises(ValueError, match="mixes signs.*dense"):
                    StructuredSquare.diag_plus_lowrank(d, P, R, sign=-1)
                with pytest.raises(ValueError, match="mixes signs.*dense"):
                    DiagLowRankSolver(d, P, R, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_singular_critical_instance_raises(self):
        # row sums exactly zero: truly singular, the capacitance GTH refuses
        d = np.array([1.0, 1.0])
        P = np.array([[1.0, 0.0], [0.0, 1.0]])
        R = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = np.array([1.0, 1.0])
        v = np.zeros(2)
        with pytest.raises(NotMMatrixError):
            DiagLowRankSolver(d, P, R, u, v).solve(np.array([1.0, 1.0]))

    def test_singular_rank_one_rejected_without_expansion(self):
        # diag(n) - 1 1^T with u = 1, v = 0: the rank-one capacitance is
        # exactly 0, which proves M singular; no n x n expansion is built
        n = 3000
        d, P, R = np.full(n, float(n)), np.ones((n, 1)), np.ones((n, 1))
        tracemalloc.start()
        try:
            with pytest.raises(NotMMatrixError):
                DiagLowRankSolver(d, P, R, np.ones(n), np.zeros(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(NotMMatrixError):
            DiagLowRankSolver([1.0, 0.0], np.zeros((2, 1)), np.zeros((2, 1)), [1, 1], [1, 1])


class TestSolverDispatch:
    def test_diagonal(self):
        s = DiagonalSolver(np.array([2.0, 4.0]))
        assert np.array_equal(s.solve([1.0, 1.0]), [0.5, 0.25])
        with pytest.raises(NotMMatrixError):
            DiagonalSolver(np.array([1.0, -1.0]))

    def test_build_solver_diagonal_band(self):
        m = StructuredSquare.banded(3, 0, 0, {0: np.array([1.0, 2.0, 4.0])})
        s = build_solver(m, np.ones(3), np.array([1.0, 2.0, 4.0]))
        assert isinstance(s, DiagonalSolver)

    def test_build_solver_banded(self):
        bands = {0: np.array([2.0, 2.0, 2.0]), 1: np.array([-1.0, -1.0])}
        m = StructuredSquare.banded(3, 0, 1, bands)
        u = np.ones(3)
        v = matmul(m.to_dense(), u[:, None])[:, 0]
        s = build_solver(m, u, v)
        assert isinstance(s, DenseGthSolver)
        x = s.solve(v)
        assert np.allclose(x, u, rtol=1e-14)

    def test_build_solver_lowrank(self):
        d = np.array([3.0, 3.0])
        p = np.ones((2, 1))
        r = np.ones((2, 1))
        m = StructuredSquare.diag_plus_lowrank(d, p, r, sign=-1)
        u = np.ones(2)
        v = matmul(m.to_dense(), u[:, None])[:, 0]
        s = build_solver(m, u, v)
        assert isinstance(s, DiagLowRankSolver)

    def test_build_solver_rejects_positive_offdiagonal(self):
        m = StructuredSquare.dense([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(NotMMatrixError):
            build_solver(m, np.ones(2), np.ones(2))
        mp = StructuredSquare.diag_plus_lowrank(
            np.array([2.0, 2.0]), np.ones((2, 1)), np.ones((2, 1)), sign=1
        )
        with pytest.raises(NotMMatrixError):
            build_solver(mp, np.ones(2), np.ones(2))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_z_pattern_rule_matches_dense_check(self, data):
        # small integer blocks, so every dense entry is exact: zero pairs,
        # nonpositive pairs and pairs on one diagonal index, all of one
        # product sign, under either stored sign
        n = data.draw(st.integers(2, 4))
        sign = data.draw(st.sampled_from((-1, 1)))
        product = data.draw(st.sampled_from((-1, 1)))
        cols_p, cols_r = [], []
        for _ in range(data.draw(st.integers(0, min(n, 3)))):
            sp = data.draw(st.sampled_from((-1, 1)))
            kind = data.draw(st.sampled_from(("zero", "single", "full")))
            if kind == "single":
                p = np.zeros(n)
                r = np.zeros(n)
                i = data.draw(st.integers(0, n - 1))
                p[i], r[i] = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
            else:
                col = st.lists(st.integers(0, 3), min_size=n, max_size=n)
                p = np.array(data.draw(col), dtype=float)
                r = np.zeros(n) if kind == "zero" else np.array(data.draw(col), dtype=float)
            cols_p.append(sp * p)
            cols_r.append(sp * product * r)
        P = np.array(cols_p).T.reshape(n, -1)
        R = np.array(cols_r).T.reshape(n, -1)
        lr = np.abs(matmul(P, R.T))
        d = 1.0 + 2.0 * lr.sum(axis=1)
        block = StructuredSquare.diag_plus_lowrank(d, P, R, sign)
        assert np.all(block.p >= 0.0) and np.all(block.r >= 0.0)
        dense = block.to_dense()
        assert np.array_equal(dense, np.diag(d) + sign * matmul(P, R.T))
        zpat = bool(np.all(dense[~np.eye(n, dtype=bool)] <= 0.0))
        assert block.offdiag_nonpositive() is zpat
        u = np.ones(n)
        v = matmul(dense, u[:, None])[:, 0]
        if zpat:
            x = build_solver(block, u, v).solve(v)
            assert np.allclose(x, u, rtol=1e-13)
        else:
            with pytest.raises(NotMMatrixError):
                build_solver(block, u, v)

    def test_rhs_shape_validation(self):
        s = DiagonalSolver(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            s.solve(np.ones(3))

"""GTH-like factorization, triplet handling, and the SMW fast path."""

import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from conftest import (
    _run_optimized,
    fraction_solve,
    naive_matmul,
    random_triplet,
    sequential_gth,
)
from dadda import gth
from dadda.gth import (
    _PANEL,
    BandGthFactorization,
    BandTriplet,
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
from dadda.linalg import StructuredSquare, _openblas_function, frobenius_norm, matmul


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _sign_ok(f):
    n = f.n
    assert np.array_equal(np.diagonal(f.L), np.ones(n))
    assert np.all(f.L[np.triu_indices(n, 1)] == 0.0)
    assert np.all(f.U[np.tril_indices(n, -1)] == 0.0)
    assert np.all(np.diagonal(f.U) > 0.0)
    off = ~np.eye(n, dtype=bool)
    assert np.all(f.L[off] <= 0.0)
    assert np.all(f.U[off] <= 0.0)


def _dense_factors(f):
    """The dense L and U of a BandGthFactorization."""
    n = f.n
    L, U = np.eye(n), np.zeros((n, n))
    for k in range(n):
        for i in range(1, min(f.L.shape[1], n - k)):
            L[k + i, k] = f.L[k, i]
        for j in range(min(f.U.shape[1], n - k)):
            U[k, k + j] = f.U[k, j]
    return SimpleNamespace(n=n, L=L, U=U)


def _band_triplet(t, lw, uw):
    """The bands of ``t.N`` within widths (lw, uw), each clipped to n - 1."""
    lw, uw = min(lw, max(t.n - 1, 0)), min(uw, max(t.n - 1, 0))
    bands = {off: np.diagonal(t.N, off) for off in range(-lw, uw + 1) if off}
    return BandTriplet.from_parts(t.n, lw, uw, bands, t.u, t.v)


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

    def test_bandwidth_validation(self):
        for lw, uw in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="bandwidths must be nonnegative"):
                BandTriplet.from_parts(2, lw, uw, {}, [1, 1], [1, 1])

    def test_blocked_matches_sequential(self):
        # the BLAS-3 panels against the textbook pivot loop of conftest,
        # whose solves are plain triangular substitutions.  Order 1 is a
        # lone pivot, 20 and 100 are the orders of ADDA kernels, and the
        # largest order spans three full panels and a ragged one.  The band
        # elimination and its tbtrs solves take every bandwidth pair at
        # orders 1, 2 (where a band is clipped to the order), 130 and
        # 3 * 128 + 5, on a full band; the last four pairs are wide bands,
        # where pivots sum up to ten products.
        orders = ((1, 26), (20, 27), (100, 28), (230, 25), (3 * _PANEL + _PANEL // 2 + 5, 30))
        cases = [(n, seed, None) for n, seed in orders]
        widths = (
            (0, 1), (1, 0), (1, 1), (2, 1), (1, 3), (3, 3),
            (5, 5), (6, 5), (0, 10), (11, 0),
        )
        cases += [
            (n, 40 + i, w) for i, w in enumerate(widths) for n in (1, 2, 130, 3 * 128 + 5)
        ]
        for n, seed, w in cases:
            rng = _rng(seed)
            N, u, v = random_triplet(rng, n, v_scale=1e-6, density=0.3 if w is None else 1.0)
            if w is not None:
                N = np.triu(np.tril(N, w[1]), -w[0])
            t = TripletRepresentation.from_parts(N, u, v)
            if w is None:
                f = gth_factorize(t)
            else:
                f = DenseGthSolver(_band_triplet(t, *w)).factorization
            assert isinstance(f, BandGthFactorization) == (w is not None)
            blocked = f if w is None else _dense_factors(f)
            L, U = sequential_gth(N, u, v)
            _sign_ok(blocked)
            _sign_ok(SimpleNamespace(n=n, L=L, U=U))
            scale = np.abs(U).max()
            assert np.abs(blocked.U - U).max() <= 1e-13 * scale
            assert np.abs(blocked.L - L).max() <= 1e-13
            b = rng.uniform(size=n)
            xb = f.solve(b)
            xs = solve_triangular(U, solve_triangular(L, b, lower=True, unit_diagonal=True))
            assert np.abs(xb - xs).max() <= 1e-13 * np.abs(xs).max()
            assert np.all(xb >= 0.0)
            xbt = f.solve(b, transpose=True)
            xst = solve_triangular(
                L, solve_triangular(U, b, trans="T"), trans="T", lower=True, unit_diagonal=True
            )
            assert np.abs(xbt - xst).max() <= 1e-13 * np.abs(xst).max()
            assert np.all(xbt >= 0.0)

    def test_panel_seams_match_sequential(self):
        # just below, at and past a panel boundary, and past the second,
        # with tiny v, so the last pivots are about 1e-10 of the largest;
        # then, on one panel, the solve entry by entry against the exact
        # rational one
        for n, seed in ((_PANEL - 1, 72), (_PANEL, 73), (_PANEL + 1, 74), (2 * _PANEL + 1, 75)):
            N, u, v = random_triplet(_rng(seed), n, v_scale=1e-12)
            f = gth_factorize(TripletRepresentation.from_parts(N, u, v))
            L, U = sequential_gth(N, u, v)
            _sign_ok(f)
            assert np.array_equal(np.sign(f.U), np.sign(U)), n
            assert np.array_equal(np.sign(f.L), np.sign(L)), n
            assert np.abs(f.U - U).max() <= 1e-13 * np.abs(U).max(), n
            assert np.abs(f.L - L).max() <= 1e-13, n
        for n, seed in ((24, 70), (32, 71)):
            rng = _rng(seed)
            N, u, v = random_triplet(rng, n, v_scale=1e-10)
            b = rng.uniform(size=n)
            x = gth_factorize(TripletRepresentation.from_parts(N, u, v)).solve(b)
            ref = fraction_solve(N, u, v, b)
            assert np.all(np.abs(x - ref) <= 1e-13 * ref), n

    def test_narrow_band_is_sequential_bitwise(self):
        # with uw <= 1 every pivot sums at most one product, so the band
        # elimination adds the very terms of the textbook pivot loop of
        # conftest: its factors are bitwise those, for the benchmark's
        # tridiagonal blocks among others
        for i, (lw, uw) in enumerate(((0, 1), (1, 0), (1, 1), (2, 1), (3, 1))):
            for n in (1, 2, 130, 3 * 128 + 5):
                N, u, v = random_triplet(_rng(60 + i), n, v_scale=1e-6)
                N = np.triu(np.tril(N, uw), -lw)
                t = TripletRepresentation.from_parts(N, u, v)
                f = _dense_factors(DenseGthSolver(_band_triplet(t, lw, uw)).factorization)
                L, U = sequential_gth(N, u, v)
                assert np.array_equal(f.L, L) and np.array_equal(f.U, U), (lw, uw, n)

    def test_sign_violation_raises_under_optimize(self):
        # N changed after validation: U gains a positive entry below a
        # pivot, so L would too.  The check must survive python -O, on one
        # panel (n = 5), several panels (n = 300) and a tridiagonal band
        # whose planted entry lies across the first panel boundary.  The
        # band triplet is read from the validated N before the entry is
        # planted, so the elimination, not the constructor, must catch it.
        for n, width, (i, j) in ((5, None, (4, 0)), (300, None, (299, 0)), (300, 1, (128, 127))):
            code = f"""
import numpy as np
from dadda.gth import (
    BandTriplet, DenseGthSolver, NotMMatrixError, TripletRepresentation, gth_factorize
)
rng = np.random.Generator(np.random.Philox(31))
N = rng.uniform(size=({n}, {n}))
if {width} is not None:
    N = np.triu(np.tril(N, {width}), -{width})
np.fill_diagonal(N, 0.0)
t = TripletRepresentation.from_parts(
    N, rng.uniform(0.5, 1.5, size={n}), rng.uniform(0.1, 1.0, size={n})
)
try:
    if {width} is None:
        t.N[{i}, {j}] = -0.5
        gth_factorize(t)
    else:
        w = {width}
        bands = {{o: np.diagonal(t.N, o).copy() for o in range(-w, w + 1) if o}}
        b = BandTriplet.from_parts({n}, w, w, bands, t.u, t.v)
        b.bands[{j - i}][{min(i, j)}] = -0.5
        DenseGthSolver(b)
except NotMMatrixError:
    raise SystemExit(0)
raise SystemExit("factorization returned despite a positive off-diagonal entry")
"""
            proc = _run_optimized(code)
            assert proc.returncode == 0, (n, width, proc.stderr)

    def test_nan_raises_under_optimize(self):
        # a NaN planted in N after validation must stop the elimination
        # under python -O: on one panel below and above the diagonal, and
        # on three panels where it reaches L21, the carried row mass and
        # the trailing block before any pivot of its own row
        code = """
import numpy as np
from dadda.gth import NotMMatrixError, TripletRepresentation, gth_factorize
rng = np.random.Generator(np.random.Philox(33))
for n, spots in ((5, ((4, 0), (0, 4))), (300, ((299, 0), (0, 299), (200, 250)))):
    N = rng.uniform(size=(n, n))
    np.fill_diagonal(N, 0.0)
    u, v = rng.uniform(0.5, 1.5, size=n), rng.uniform(0.1, 1.0, size=n)
    for i, j in spots:
        t = TripletRepresentation.from_parts(N.copy(), u, v)
        t.N[i, j] = np.nan
        try:
            gth_factorize(t)
        except NotMMatrixError:
            continue
        raise SystemExit(f"factorization returned despite a NaN at ({i}, {j}), n = {n}")
"""
        proc = _run_optimized(code)
        assert proc.returncode == 0, proc.stderr

    def test_band_sign_violation_raises_under_optimize(self):
        # a band triplet changed after validation: a positive entry of M
        # below the diagonal (so L gains one) or above it (so U does), too
        # small to make a pivot non-positive, must stop the band
        # elimination under python -O as well, on a tridiagonal band and
        # on a wider one.  The entry sits on the outermost band, which no
        # update reaches.
        code = """
import numpy as np
from dadda.gth import BandTriplet, DenseGthSolver, NotMMatrixError
rng = np.random.Generator(np.random.Philox(32))
for w, off in ((1, -1), (1, 1), (6, -6), (6, 6)):
    bands = {o: rng.uniform(size=300 - abs(o)) for o in range(-w, w + 1) if o}
    t = BandTriplet.from_parts(300, w, w, bands, np.ones(300), rng.uniform(0.1, 1.0, size=300))
    t.bands[off][127] = -1e-3
    try:
        DenseGthSolver(t)
    except NotMMatrixError:
        continue
    raise SystemExit(f"band factorization returned despite a positive entry at offset {off}")
"""
        proc = _run_optimized(code)
        assert proc.returncode == 0, proc.stderr

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

    def test_smw_solve_is_its_formula_bitwise(self):
        # x = x0 + (factor * image) (R^T x0) for rank one and
        # x = x0 + image C^-1 (R^T x0) for rank r, x0 = b / d, every
        # product written with @; P and R swap when transposed
        rng = np.random.Generator(np.random.Philox(77))
        n = 9
        for r in (1, 3):
            P, R = rng.uniform(size=(n, r)), rng.uniform(size=(n, r))
            u, v = np.ones(n), rng.uniform(0.1, 1.0, size=n)
            d = naive_matmul(P, naive_matmul(R.T, u[:, None]))[:, 0] + v
            solver = DiagLowRankSolver(d, P, R, u, v)
            b = rng.uniform(size=(n, 2))
            for transpose in (False, True):
                test, image = (P, solver._dinv_R) if transpose else (R, solver._dinv_P)
                x0 = b / d[:, None]
                w = test.T @ x0
                if r == 1:
                    expect = x0 + solver._factor * image * w
                else:
                    expect = x0 + image @ solver._cap.solve(w, transpose=transpose)
                got = solver.solve(b, transpose=transpose)
                assert got.tobytes() == expect.tobytes()

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
        core = R.T @ (P / d[:, None])
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

    def test_build_solver_band_wider_than_its_bands(self):
        # declared (3, 2), stored offsets -2 ... 1 only, every off-diagonal
        # entry coupling two rows across an edge every 128 rows: the band
        # path against the textbook elimination of the dense block
        n, rows = 2 * 128 + 7, 128
        rng = _rng(33)
        N = np.zeros((n, n))
        for edge in range(rows, n, rows):
            for i in range(edge - 1, edge + 2):
                for j in range(max(0, i - 2), min(n, i + 2)):
                    if (i < edge) != (j < edge):
                        N[i, j] = 1.0 + 0.1 * i
        u, v = rng.uniform(0.5, 1.5, size=n), 1e-6 * rng.uniform(0.1, 1.0, size=n)
        a = np.diag((v + matmul(N, u[:, None])[:, 0]) / u) - N
        stored = {off: np.diagonal(a, off).copy() for off in range(-2, 2)}
        s = build_solver(StructuredSquare.banded(n, 3, 2, stored), u, v)
        assert isinstance(s, DenseGthSolver)
        assert s.factorization.L.shape == (n, 4) and s.factorization.U.shape == (n, 3)
        L, U = sequential_gth(N, u, v)
        b = rng.uniform(size=(n, 2))
        for transpose in (False, True):
            x = s.solve(b, transpose=transpose)
            if transpose:
                ref = solve_triangular(L, solve_triangular(U, b, trans="T"), trans="T",
                                       lower=True, unit_diagonal=True)
            else:
                ref = solve_triangular(U, solve_triangular(L, b, lower=True, unit_diagonal=True))
            assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.all(x >= 0.0)

    def test_build_solver_band_memory(self):
        # a tridiagonal block of order 20 000 in band storage: the factors
        # take about 1 MB, where an n x n array would take 3.2 GB
        n = 20000
        rng = _rng(34)
        sub, sup = rng.uniform(0.1, 1.0, size=n - 1), rng.uniform(0.1, 1.0, size=n - 1)
        v = rng.uniform(0.1, 1.0, size=n)
        diag = v.copy()
        diag[1:] += sub
        diag[:-1] += sup
        m = StructuredSquare.banded(n, 1, 1, {-1: -sub, 0: diag, 1: -sup})
        u = np.ones(n)
        tracemalloc.start()
        try:
            s = build_solver(m, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert np.abs(s.solve(v) - 1.0).max() <= 1e-12

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


class TestLapackThreads:
    """scipy's BLAS runs every LAPACK solve here on one thread."""

    @pytest.fixture
    def scipy_threads(self):
        get = _openblas_function("scipy", "get_num_threads")
        put = _openblas_function("scipy", "set_num_threads")
        if get is None or put is None:
            pytest.skip("scipy's BLAS is not a bundled OpenBLAS")
        before = get()
        put(2)
        try:
            yield get
        finally:
            put(before)

    def test_solves_run_on_one_thread(self, scipy_threads, monkeypatch):
        seen = []

        def recording(routine):
            def call(*args, **kwargs):
                seen.append(scipy_threads())
                return routine(*args, **kwargs)

            return call

        monkeypatch.setattr(gth, "dtrtrs", recording(gth.dtrtrs))
        monkeypatch.setattr(gth, "dtbtrs", recording(gth.dtbtrs))
        t = TripletRepresentation.from_parts(*random_triplet(_rng(41), 300))
        b = _rng(42).uniform(size=(300, 3))
        gth_factorize(t).solve(b)
        DenseGthSolver(_band_triplet(t, 2, 1)).factorization.solve(b, transpose=True)
        assert len(seen) >= 6 and set(seen) == {1}
        assert scipy_threads() == 2

    def test_the_last_one_out_restores_the_count(self, scipy_threads):
        inside, leave = threading.Event(), threading.Event()

        def other():
            with gth._one_lapack_thread:
                inside.set()
                leave.wait(timeout=60.0)

        helper = threading.Thread(target=other)
        helper.start()
        try:
            assert inside.wait(timeout=60.0)
            with gth._one_lapack_thread:
                assert scipy_threads() == 1
            assert scipy_threads() == 1
        finally:
            leave.set()
            helper.join(timeout=60.0)
        assert not helper.is_alive()
        assert scipy_threads() == 2

"""Deterministic reductions, matmul, and structured-matrix behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_matmul
from dadda.linalg import (
    StructuredSquare,
    _reduce_ascending,
    frobenius_norm,
    matmul,
    max_entrywise_ratio,
    ordered_dot,
    ordered_sum,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestReduceAscending:
    def test_matches_sequential_loop(self):
        rng = _rng(0)
        for _ in range(40):
            k = int(rng.integers(1, 9))
            w = int(rng.integers(1, 7))
            stack = rng.standard_normal((k, w)) * 10.0 ** rng.integers(-4, 5)
            acc = stack[0].copy()
            for t in range(1, k):
                acc = acc + stack[t]
            assert np.array_equal(_reduce_ascending(stack), acc)

    @given(
        st.lists(
            st.floats(-1e12, 1e12, allow_nan=False, width=64),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_ordered_sum_is_sequential(self, xs):
        acc = 0.0
        for x in xs:
            acc = acc + x
        assert ordered_sum(np.array(xs)) == acc

    def test_nonneg_sum_dominates_terms(self):
        # partial sums of nonnegative floats never fall below any term
        rng = _rng(1)
        for _ in range(200):
            xs = rng.uniform(size=int(rng.integers(1, 20))) * 10.0 ** rng.integers(
                -30, 30
            )
            assert ordered_sum(xs) >= xs.max()

    def test_ordered_dot(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([4.0, 5.0, 6.0])
        assert ordered_dot(x, y) == ((4.0 + 10.0) + 18.0)
        with pytest.raises(ValueError):
            ordered_dot(x, y[:2])


class TestMatmul:
    def test_small_path_bitwise(self):
        rng = _rng(2)
        for m, k, n in [(4, 5, 3), (1, 1, 1), (7, 3, 2), (2, 9, 2), (5, 1, 4)]:
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            assert np.array_equal(matmul(a, b), naive_matmul(a, b))

    def test_large_path_bitwise(self):
        # m*n above the small-result cutoff exercises the slab loop
        rng = _rng(3)
        a = rng.standard_normal((80, 7))
        b = rng.standard_normal((7, 65))
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))

    def test_matches_numpy_loosely(self):
        rng = _rng(4)
        a = rng.standard_normal((40, 30))
        b = rng.standard_normal((30, 20))
        assert np.allclose(matmul(a, b), a @ b, rtol=1e-12, atol=1e-12)

    def test_nonnegative_inputs_nonnegative_output(self):
        rng = _rng(5)
        a = rng.uniform(size=(30, 40))
        b = rng.uniform(size=(40, 35))
        out = matmul(a, b)
        assert np.all(out >= 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_small_path_bitwise_property(self, seed):
        rng = _rng(seed)
        m, k, n = (int(rng.integers(1, 7)) for _ in range(3))
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))


class TestScalarHelpers:
    def test_frobenius_fixed_order(self):
        a = np.array([[3.0, 4.0]])
        assert frobenius_norm(a) == 5.0
        # ascending accumulation of the squares, then sqrt
        b = np.full((2, 18), 1.0 / 18.0)
        flat = b.ravel()
        acc = 0.0
        for x in flat:
            acc = acc + x * x
        assert frobenius_norm(b) == np.sqrt(acc)
        assert abs(frobenius_norm(b) - 1.0 / 3.0) < 1e-15

    def test_max_entrywise_ratio_conventions(self):
        num = np.array([[0.0, 3.0], [1.0, 0.5]])
        den = np.array([[0.0, 6.0], [2.0, 1.0]])
        assert max_entrywise_ratio(num, den) == 0.5
        den0 = np.array([[0.0, 6.0], [0.0, 1.0]])
        assert max_entrywise_ratio(num, den0) == np.inf
        with pytest.raises(ValueError):
            max_entrywise_ratio(num, den[:1])


class TestStructuredSquare:
    def _cases(self, rng):
        n = 6
        dense = StructuredSquare.dense(rng.standard_normal((n, n)))
        bands = {
            0: rng.uniform(1.0, 2.0, size=n),
            1: -rng.uniform(size=n - 1),
            -2: -rng.uniform(size=n - 2),
        }
        banded = StructuredSquare.banded(n, 2, 1, bands)
        low = StructuredSquare.diag_plus_lowrank(
            rng.uniform(1.0, 2.0, size=n),
            rng.uniform(size=(n, 2)),
            rng.uniform(size=(n, 2)),
            sign=-1,
        )
        return [dense, banded, low]

    def test_apply_matches_dense(self):
        rng = _rng(7)
        for s in self._cases(rng):
            for x in (rng.standard_normal((6, 4)), rng.standard_normal(6)):
                ref = s.to_dense() @ x
                assert np.allclose(s.apply(x), ref, rtol=1e-13, atol=1e-13)
                ref_t = s.to_dense().T @ x
                assert np.allclose(
                    s.apply(x, transpose=True), ref_t, rtol=1e-13, atol=1e-13
                )
            with pytest.raises(ValueError):
                s.apply(np.ones((6, 2, 2)))

    def test_dense_apply_bitwise(self):
        rng = _rng(8)
        a = rng.standard_normal((5, 5))
        s = StructuredSquare.dense(a)
        x = rng.standard_normal((5, 3))
        assert np.array_equal(s.apply(x), matmul(a, x))

    def test_affine(self):
        rng = _rng(9)
        for s in self._cases(rng):
            t = s.affine(scale=-0.25, shift=1.0)
            ref = 1.0 * np.eye(6) - 0.25 * s.to_dense()
            assert np.allclose(t.to_dense(), ref, rtol=1e-14, atol=1e-14)
            assert t.kind == s.kind

    def test_diagonal(self):
        rng = _rng(10)
        for s in self._cases(rng):
            assert np.array_equal(s.diagonal(), np.diagonal(s.to_dense()))

    def test_lowrank_rowdot(self):
        rng = _rng(11)
        p = rng.uniform(size=(5, 3))
        r = rng.uniform(size=(5, 3))
        s = StructuredSquare.diag_plus_lowrank(np.ones(5), p, r, sign=1)
        expect = np.array([ordered_dot(p[i], r[i]) for i in range(5)])
        assert np.array_equal(s.lowrank_rowdot(), expect)
        with pytest.raises(ValueError):
            StructuredSquare.dense(np.eye(2)).lowrank_rowdot()

    def test_offdiag_nonpositive(self):
        ok = StructuredSquare.dense([[2.0, -1.0], [0.0, 2.0]])
        bad = StructuredSquare.dense([[2.0, 1.0], [0.0, 2.0]])
        assert ok.offdiag_nonpositive()
        assert not bad.offdiag_nonpositive()

    def test_offdiag_abs_apply(self):
        # N = diag(M) - M, the negated off-diagonal part
        rng = _rng(12)
        for s in self._cases(rng):
            dense = s.to_dense()
            noff = np.diag(np.diagonal(dense)) - dense
            for h in (rng.uniform(size=(6, 4)), rng.uniform(size=6)):
                left = s.offdiag_abs_apply(h, side="left")
                assert np.allclose(left, noff @ h, rtol=1e-13, atol=1e-14)
            for hr in (rng.uniform(size=(4, 6)), rng.uniform(size=6)):
                right = s.offdiag_abs_apply(hr, side="right")
                assert np.allclose(right, hr @ noff, rtol=1e-13, atol=1e-14)
            for side in ("left", "right"):
                with pytest.raises(ValueError):
                    s.offdiag_abs_apply(np.ones((6, 6, 6)), side=side)

    def test_sign_safe_apply_exact_nonneg(self):
        # stored diagonal negative, true diagonal nonnegative: the apply
        # must not let rounding produce negative outputs
        rng = _rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            p = rng.uniform(size=(n, 2))
            r = rng.uniform(size=(n, 2))
            rowdot = np.array([ordered_dot(p[i], r[i]) for i in range(n)])
            d = -rowdot + rng.uniform(size=n) * 1e-18
            s = StructuredSquare.diag_plus_lowrank(d, p, r, sign=1)
            assert np.all(s.diagonal() >= 0.0)
            x = rng.uniform(size=(n, 3))
            y = s.apply(x)
            assert np.all(y >= 0.0)
            yt = s.apply(x, transpose=True)
            assert np.all(yt >= 0.0)
            ref = s.to_dense() @ x
            assert np.allclose(y, ref, rtol=1e-12, atol=1e-12)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StructuredSquare.dense(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            StructuredSquare.banded(4, 1, 1, {1: np.zeros(3)})  # no diagonal
        with pytest.raises(ValueError):
            StructuredSquare.banded(4, 1, 1, {0: np.zeros(2)})  # bad length
        with pytest.raises(ValueError):
            StructuredSquare.diag_plus_lowrank(
                np.ones(3), np.ones((3, 1)), np.ones((3, 2)), sign=-1
            )
        with pytest.raises(ValueError):
            StructuredSquare.diag_plus_lowrank(
                np.ones(3), np.ones((3, 1)), np.ones((3, 1)), sign=0
            )

"""Deterministic reductions, matmul, and structured-matrix behavior."""

import os
import subprocess
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_matmul, same_float, where_ratio_max
from dadda import linalg
from dadda.linalg import (
    _SUM_CHUNK,
    StructuredSquare,
    _halves_ratio_max,
    _panel_ratio_max,
    _together,
    frobenius_norm,
    matmul,
    ordered_dot,
    ordered_sum,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


# zeros of both signs, NaN, infinities, subnormals and values whose
# quotients overflow, next to ordinary floats
_SPECIAL_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, 1e-300, 1e308, 1.0, 0.5, -2.0]


@st.composite
def _ratio_operands(draw):
    size = draw(st.integers(1, 24))
    entry = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(width=64))
    num = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
    den = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
    return num, den, draw(st.integers(1, size))


class TestReduceAscending:
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

    def test_chunked_sums_are_the_sequential_loop(self):
        # a 1e16 staircase: every later term is rounded into the running
        # total, so any other order, or a chunk summed apart from the
        # total, gives a different float
        c = _SUM_CHUNK
        for size in (0, 1, c - 1, c, c + 1, 3 * c + 5):
            x = np.linspace(1.0, 3.0, size)
            x[:1] = 1e16
            acc = sq = 0.0
            for v in x.tolist():
                acc = acc + v
                sq = sq + v * v
            assert ordered_sum(x) == acc
            assert ordered_dot(x, x) == sq
            assert frobenius_norm(x.reshape(1, -1)) == np.sqrt(sq)

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
        # more result rows than one slab holds
        rng = _rng(3)
        a = rng.standard_normal((5000, 3))
        b = rng.standard_normal((3, 8))
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))
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

    def test_all_negative_zero_terms_give_positive_zero(self):
        # the loop sums from 0.0, so a sum of -0.0 terms is +0.0
        a = np.array([[-0.0, 1.0, 5e-324]])
        b = np.array([[1.0], [-0.0], [-1e-300]])
        out = matmul(a, b)
        assert out[0, 0] == 0.0 and not np.signbit(out[0, 0])


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
        assert _panel_ratio_max([(num, den)]) == 0.5
        den0 = np.array([[0.0, 6.0], [0.0, 1.0]])
        assert _panel_ratio_max([(num, den0)]) == np.inf

    @given(_ratio_operands())
    @settings(max_examples=300, deadline=None)
    def test_max_entrywise_ratio_matches_where_formula(self, operands):
        # bitwise against the two-np.where formula; split into row panels,
        # equal to it up to the sign of a zero
        num, den, rows = operands
        with np.errstate(over="ignore"):
            want = where_ratio_max(num, den)
            assert same_float(_panel_ratio_max([(num, den)]), want)
            panels = [(num[i : i + rows], den[i : i + rows]) for i in range(0, len(num), rows)]
            got = _panel_ratio_max(panels)
        assert got == want or (np.isnan(got) and np.isnan(want))

    def test_max_entrywise_ratio_overflow_and_nan(self):
        with np.errstate(over="ignore"):
            # an overflow to +inf is no x/0: a NaN elsewhere still wins
            num, den = np.array([1e308, 1.0]), np.array([1e-10, 2.0])
            assert _panel_ratio_max([(num, den)]) == np.inf
            num[1] = np.nan
            assert np.isnan(_panel_ratio_max([(num, den)]))
            assert np.isnan(_panel_ratio_max([(num[:1], den[:1]), (num[1:], den[1:])]))
            # an x/0 decides over both, in any panel
            num, den = np.append(num, 1.0), np.append(den, 0.0)
            assert _panel_ratio_max([(num, den)]) == np.inf
            assert _panel_ratio_max([(num[:2], den[:2]), (num[2:], den[2:])]) == np.inf



def _panels_of(num, den):
    """``panels(edges)`` of :func:`~dadda.linalg._halves_ratio_max` over two arrays."""

    def panels(edges):
        for i0, i1 in zip(edges, edges[1:]):
            yield num[i0:i1], den[i0:i1]

    return panels


class TestRowHalves:
    @given(
        _ratio_operands(),
        st.one_of(st.sampled_from([np.inf, 0.0, 0.5, 1.0]), st.floats(0.0, 1e308)),
    )
    @settings(max_examples=400, deadline=None)
    def test_two_halves_merge_like_one_pass(self, operands, above):
        # every panel split into a top and a bottom half, on one CPU and two,
        # gives the one-pass value bitwise, exit values included
        num, den, rows = operands
        edges = list(range(0, len(num), rows)) + [len(num)]
        with np.errstate(over="ignore"):
            want = _panel_ratio_max(_panels_of(num, den)(edges), above=above)
            for mid in range(1, len(edges) - 1):
                halves = [edges[: mid + 1], edges[mid:]]
                for cpus in (1, 2):
                    with mock.patch.object(linalg, "_cpu_count", lambda c=cpus: c):
                        got = _halves_ratio_max(_panels_of(num, den), halves, above=above)
                    assert same_float(got, want), (mid, cpus, got, want)

    def test_nan_above_turns_off_the_bottom_halfs_exit(self):
        # the bottom half stops at its first maximum above the threshold, but
        # a NaN in the top half turns that exit off: the rest is read after
        # the join, where an x/0 still decides
        halves = [[0, 1, 2, 3], [3, 4, 5, 6]]
        for cpus in (1, 2):
            num, den = np.array([np.nan, 1.0, 3.0, 5.0, 0.5, 1.0]), np.ones(6)
            with mock.patch.object(linalg, "_cpu_count", lambda c=cpus: c):
                assert np.isnan(_halves_ratio_max(_panels_of(num, den), halves, above=4.0))
                den[5] = 0.0
                assert _halves_ratio_max(_panels_of(num, den), halves, above=4.0) == np.inf
                num[0] = 0.5
                assert _halves_ratio_max(_panels_of(num, den), halves, above=4.0) == 5.0

    def test_top_half_exit_stops_the_helper_between_panels(self):
        # the top half exits at its first panel, once the helper has begun;
        # the helper's 20 panels are below the threshold and take 50 ms each,
        # so it stops by the flag, after about one panel (at most 10 leaves
        # room for a slow host); on one CPU it reads none
        for cpus, most in ((2, 10), (1, 0)):
            read = []
            started = threading.Event()

            def panels(edges):
                for i0 in edges[:-1]:
                    if i0 == 0 and cpus == 2:
                        started.wait(5.0)
                    elif i0 > 0:
                        started.set()
                        time.sleep(0.05)
                    read.append(i0)
                    yield np.full(1, 2.0 if i0 == 0 else 0.5), np.ones(1)

            edges = list(range(41))
            with mock.patch.object(linalg, "_cpu_count", lambda c=cpus: c):
                assert _halves_ratio_max(panels, [edges[:21], edges[20:]], above=1.0) == 2.0
            assert len([i for i in read if i >= 20]) <= most, (cpus, read)

    def test_helper_error_reraises_and_no_thread_outlives_the_call(self):
        before = threading.active_count()

        def boom():
            raise KeyError("helper")

        def panels(edges):
            for i0, i1 in zip(edges, edges[1:]):
                if i0 >= 2:
                    raise ZeroDivisionError("bottom half")
                yield np.ones(1), np.ones(1)

        for cpus in (1, 2):
            with mock.patch.object(linalg, "_cpu_count", lambda c=cpus: c):
                with pytest.raises(KeyError, match="helper"):
                    _together(lambda: 1, boom)
                with pytest.raises(ZeroDivisionError, match="bottom half"):
                    _halves_ratio_max(panels, [[0, 1, 2], [2, 3, 4]])
                assert _together(lambda: 1, lambda: 2) == (1, 2)
            assert threading.active_count() == before

    def test_concurrent_callers_share_no_state(self):
        # four callers at once, each with its own helper, eight threads on
        # the host's cores, with the interpreter switching threads every
        # microsecond: every value is still its one-pass value
        rng = _rng(40)
        edges = list(range(0, 201, 10))
        halves = [edges[:11], edges[10:]]
        cases = []
        for _ in range(8):
            num, den = rng.uniform(size=200), rng.uniform(size=200)
            num[rng.integers(200)] = rng.choice([np.nan, np.inf, 1.0])
            den[rng.integers(200)] = rng.choice([0.0, 1e-300, 1.0])
            above = float(rng.choice([np.inf, 2.0, 50.0]))
            with np.errstate(all="ignore"):
                want = _panel_ratio_max(_panels_of(num, den)(edges), above=above)
            cases.append((num, den, above, want))
        bad = []

        def caller():
            with np.errstate(all="ignore"):
                for _ in range(25):
                    for num, den, above, want in cases:
                        got = _halves_ratio_max(_panels_of(num, den), halves, above=above)
                        if not same_float(got, want):
                            bad.append((got, want))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(linalg, "_cpu_count", lambda: 2):
                callers = [threading.Thread(target=caller) for _ in range(4)]
                for t in callers:
                    t.start()
                for t in callers:
                    t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert not bad, bad[:3]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_helper_only_beside_blas_on_one_thread(self, threads):
        # numpy's BLAS on more threads already has the other CPUs, and the
        # halves then run in order; its count is read from the loaded BLAS
        code = (
            "import os; from dadda import linalg; "
            "print(linalg._cpu_count(), len(os.sched_getaffinity(0)))"
        )
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        cpus, affinity = map(int, proc.stdout.split())
        assert cpus == (affinity if threads == "1" else 1)

    def test_splits_depend_on_the_shape_alone(self):
        # below _HALVES_FLOATS one pass; above, two halves split at a middle
        # edge, the panel edges where the parent split them
        edges = linalg._panel_edges(1023, 1024)
        assert linalg._row_halves(1023, 1024, edges) == [edges]
        expected = {(1024, 1024): 512, (4097, 1024): 2048, (800, 7200): 400,
                    (7200, 800): 3600, (2001, 2000): 1008}
        for (m, n), mid in expected.items():
            top, bottom = linalg._row_halves(m, n, linalg._panel_edges(m, n))
            assert top[-1] == bottom[0] == mid and top + bottom[1:] == linalg._panel_edges(m, n)
            assert min(len(top), len(bottom)) >= 3


    def test_block_edges_start_aligned_and_the_tail_joins_the_block_above(self):
        rows, small = linalg._SPLIT_ROWS, linalg._SMALL_PRODUCT
        # the fluid shapes: 672-row blocks at n = 800, 96-row blocks at n = 7200
        assert linalg._block_edges(7200, 800, (8, 2)) == [*range(0, 6049, 672), 7200]
        assert linalg._block_edges(800, 7200, (16, 2)) == [*range(0, 673, 96), 800]
        assert linalg._block_edges(400, 100, (16, 2)) == [0, 400]
        assert linalg._block_edges(95, 7200, (8, 2)) == [0, 95]
        assert linalg._block_edges(192, 7200, (8, 2)) == [0, 96, 192]
        assert linalg._block_edges(191, 7200, (8, 2)) == [0, 191]
        for m, n in ((7200, 800), (800, 7200), (3001, 999), (5000, 333)):
            for inners in ((1, 1), (2, 32), (5, 3), (64, 2)):
                edges = linalg._block_edges(m, n, inners)
                spans = [b - a for a, b in zip(edges, edges[1:])]
                assert edges[0] == 0 and edges[-1] == m
                assert all(e % rows == 0 for e in edges[:-1])
                # every block but the last is the fewest aligned rows above
                # the small-product size, and the tail is in the last
                least = min(spans[:-1] or [m])
                assert all(s == least for s in spans[:-1])
                if len(spans) > 1:
                    assert least * n * min(inners) > small >= (least - rows) * n * min(inners)
                    assert least <= spans[-1] < 2 * least
                # halves split at a block edge
                halves = linalg._row_halves(m, n, edges)
                assert halves[0] + sum((h[1:] for h in halves[1:]), []) == edges


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
        assert np.array_equal(s.apply(x), a @ x)

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
        assert np.array_equal(s.lowrank_rowdot(), np.einsum("it,it->i", p, r))
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

    def test_offdiag_parts(self):
        # N x = pos - neg (N^T x with transpose), both parts >= 0 exactly on
        # a Z-matrix; dense and banded blocks cancel nothing.  The extra
        # cases are a dense Z-matrix and a sign +1 low-rank Z-matrix, whose
        # pairs each sit on one diagonal index (so N = 0 = rowdots - P R^T).
        rng = _rng(14)
        n = 6
        p, r = np.zeros((n, 2)), np.zeros((n, 2))
        p[[1, 4], [0, 1]] = rng.uniform(0.5, 1.0, size=2)
        r[[1, 4], [0, 1]] = rng.uniform(0.5, 1.0, size=2)
        cases = self._cases(rng) + [
            StructuredSquare.dense(np.diag(rng.uniform(2.0, 3.0, size=n))
                                   - rng.uniform(size=(n, n))),
            StructuredSquare.diag_plus_lowrank(rng.uniform(1.0, 2.0, size=n), p, r, sign=1),
        ]
        assert cases[-1].sign == 1
        for s in cases:
            dense = s.to_dense()
            noff = np.diag(np.diagonal(dense)) - dense
            for x in (rng.uniform(size=(n, 3)), rng.uniform(size=n)):
                for transpose in (False, True):
                    pos, neg = s.offdiag_parts(x, transpose=transpose)
                    assert pos.shape == neg.shape == x.shape
                    if s.offdiag_nonpositive():
                        assert np.all(pos >= 0.0) and np.all(neg >= 0.0)
                    if s.kind != "diag_plus_lowrank":
                        assert not neg.any()
                    ref = (noff.T if transpose else noff) @ x
                    assert np.allclose(pos - neg, ref, rtol=1e-13, atol=1e-13)

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

    def test_lowrank_apply_is_its_formula_bitwise(self):
        # the two low-rank forms as their formulas: the plain
        # d x + sign P (R^T x), and the split tdiag x + sum_t P (R^T x - R x)
        # with the sum over t an einsum; a split matrix takes the plain form
        # for an operand with a negative entry
        rng = _rng(17)
        n, r = 7, 2
        p, q = rng.uniform(size=(n, r)), rng.uniform(size=(n, r))
        rowdot = np.array([ordered_dot(p[i], q[i]) for i in range(n)])
        cases = [
            (StructuredSquare.diag_plus_lowrank(-0.5 * rowdot, p, q, sign=1), True),
            (StructuredSquare.diag_plus_lowrank(rng.uniform(size=n), p, q, sign=1), False),
            (StructuredSquare.diag_plus_lowrank(rng.uniform(2, 3, size=n), p, q, sign=-1), False),
        ]
        for s, split in cases:
            tdiag = s.d + np.einsum("it,it->i", s.p, s.r)
            for transpose in (False, True):
                left, right = (s.r, s.p) if transpose else (s.p, s.r)
                for x in (rng.uniform(size=(n, 2)), rng.standard_normal((n, 2))):
                    core = right.T @ x
                    if split and np.all(x >= 0.0):
                        resid = core[None, :, :] - right[:, :, None] * x[:, None, :]
                        expect = tdiag[:, None] * x + np.einsum("it,itj->ij", left, resid)
                    else:
                        expect = s.d[:, None] * x + s.sign * (left @ core)
                    assert s.apply(x, transpose=transpose).tobytes() == expect.tobytes()

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

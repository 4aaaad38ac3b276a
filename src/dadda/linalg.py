"""Dense and structured linear algebra primitives.

One summation rule: every product of the iteration is the platform product
``@``.  Its operands are nonnegative, and a sum of nonnegative terms keeps
its sign exactly and its componentwise accuracy in any summation order,
with or without fused multiply-adds (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., Sec. 3.1 and 4.2): round-to-nearest is
monotone, so no computed partial sum of nonnegative terms is negative, or
smaller than any of its rounded terms.  BLAS may round a result
differently by build and thread count, never by sign.

What stays in a fixed ascending order does so to be bitwise reproducible,
not accurate: an ascending sum's error bound grows with the term count, a
blocked sum's far less (Higham, Sec. 4.2).  The scalar sums
``ordered_sum``, ``ordered_dot`` and ``frobenius_norm`` stream fixed-size
chunks through ``np.add.accumulate``, a running sum and so sequential by
definition, without copying their operands; the instance generators build
their data with the first two, and a dense iterate's ``frob_h`` is the third.
:func:`matmul` is bitwise the ascending triple loop for any row
blocking, which the dense reference ``TripletRepresentation.matrix()``
needs.  The criteria stream the iterate in row panels (``_panel_edges``),
and every product inside a panel is BLAS: the outer-product terms of
``erres`` in one product of small inner dimension, and a dense-kind
block's product of the panel's rows.  ``_panel_ratio_max`` combines the
panels' ratios bitwise as over the whole arrays, and ``_halves_ratio_max``
reads them in two row halves at once, the bottom half on one helper thread
(``_together``), with the same result, split at a middle edge by
``_row_halves``.  ``_block_edges`` gives the row blocks in which ``erres``
forms a factored iterate's rows, and at whose middle edge H splits, each
block rounding like those rows of the whole products.

Square coefficient matrices come in three structured kinds:

- ``dense``: explicit (n, n) array;
- ``banded``: diagonals stored by offset in [-lower, upper], offset 0
  always present;
- ``diag_plus_lowrank``: diag(d) + sign * P @ R.T with skinny P, R >= 0
  (``_canonical_lowrank`` puts every payload in that form or rejects it).

The structured kinds keep application, diagonal extraction, affine
shifts and the Z-pattern check at O(n * bandwidth) or O(n * r), so large
instances never densify.
Every product, and every shifted solve in :mod:`dadda.gth`, checks its
operand through ``_column_form``; all band products run one loop,
``_band_apply``.  Behind each check is one function of the checked
operand (``_column_apply``, ``_column_solve``) with the matrix's
invariants computed once; the dADDA step operator keeps these for a
whole chain of blocks and checks the chain's first operand.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import importlib
import itertools
import os
import threading
from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = [
    "StructuredSquare",
    "frobenius_norm",
    "matmul",
    "ordered_dot",
    "ordered_sum",
]


# Scalar sums stream their terms through one buffer of this many floats.
_SUM_CHUNK = 1 << 16


def _running_total(x: np.ndarray, y: np.ndarray | None = None) -> float:
    """sum_i x_i (or sum_i x_i * y_i) of flat arrays, accumulated ascending.

    The terms are formed chunk by chunk in one buffer, each chunk behind
    the running total, and summed by ``np.add.accumulate``: a running sum,
    strictly sequential by definition.  So the result is bitwise the
    left-to-right loop (the first term starts it, as in ``np.add.reduce``)
    and no copy of the operands is made.
    """
    size = x.size
    if size == 0:
        return 0.0
    buf = np.empty(min(size, _SUM_CHUNK) + 1)
    total = None
    for c0 in range(0, size, _SUM_CHUNK):
        c1 = min(size, c0 + _SUM_CHUNK)
        terms = buf[1 : c1 - c0 + 1]
        if y is None:
            terms[...] = x[c0:c1]
        else:
            np.multiply(x[c0:c1], y[c0:c1], out=terms)
        run = terms
        if total is not None:
            buf[0] = total
            run = buf[: c1 - c0 + 1]
        total = np.add.accumulate(run, out=run)[-1]
    return float(total)


def ordered_sum(x: np.ndarray) -> float:
    """Sum of all entries in C order, accumulated ascending."""
    return _running_total(np.ravel(np.asarray(x, dtype=np.float64)))


def ordered_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product with ascending-index accumulation."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch {x.shape} vs {y.shape}")
    return _running_total(x, y)


# matmul and the row panels of the criterion keep their active output slab
# of at most this many floats (256 KB) cache resident.
_SLAB_FLOATS = 1 << 15


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with reductions in ascending inner-index order.

    Bitwise equal to the naive triple loop ``acc += a[i, k] * b[k, j]``
    with k ascending from 0.0: a rank-1 update loop over row slabs of the
    result, so the active output slab stays cache resident.  Every slab is
    the loop over its own rows, so a row panel of ``a`` gives the same
    rows as the whole product.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    rows = _panel_rows(n)
    tmp = np.empty((min(rows, m), n))
    for i0 in range(0, m, rows):
        i1 = min(m, i0 + rows)
        oslab = out[i0:i1]
        tslab = tmp[: i1 - i0]
        for j in range(k):
            np.multiply(a[i0:i1, j, None], b[j], out=tslab)
            np.add(oslab, tslab, out=oslab)
    return out


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm, squares summed ascending in C order.

    The squares are formed chunk by chunk (see ``_running_total``), so a
    C-contiguous operand is never copied.
    """
    flat = np.ravel(np.asarray(a, dtype=np.float64))
    return float(np.sqrt(_running_total(flat, flat)))


def _panel_ratio_max(panels, *, above: float = np.inf) -> float:
    """max over entries of num/den, with 0/0 -> 0 and x/0 -> +inf (x != 0), of
    the arrays that the (num, den) panels stack to.

    The value is bitwise the one over the whole arrays.  Each panel is
    divided into one reused buffer, and its maximum and minimum read from
    there: both finite prove that no den is zero where num is not (x/0 is
    +inf or, with a signed zero, -inf, and 0/0 is NaN), so that maximum is
    the panel's value.  Otherwise 0/0 entries count 0 through ``np.where``.
    An x/0 in any panel decides the value (+inf) at once, as over the whole
    arrays, while a quotient that overflowed to +inf does not: the panel
    maxima combine by ``np.max``, which keeps a NaN.

    With ``above``, the first panel maximum greater than it is returned
    and the panels below go unread.  Each entry read is bitwise the full
    evaluation's, so a value at most ``above`` is the full value, and an
    exit value lies in (above, full value] unless a later panel holds a
    NaN.  A NaN maximum turns the exit off for the panels below it.
    """
    return _fold_maxima(_panel_maxima(panels), above, [])[0]


def _panel_maxima(panels, stop: threading.Event | None = None):
    """Each (num, den) panel's ratio maximum (0/0 -> 0), top to bottom, and
    None for a panel with an x/0.  A set ``stop`` ends it between panels."""
    panels = iter(panels)
    scratch = np.empty(0)
    while stop is None or not stop.is_set():
        pair = next(panels, None)
        if pair is None:
            return
        num, den = pair
        both = np.broadcast(num, den)
        if both.size == 0:
            continue
        if scratch.size < both.size:
            scratch = np.empty(both.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(num, den, out=scratch[: both.size].reshape(both.shape))
            top = ratio.max()
            if not (np.isfinite(top) and ratio.min() > -np.inf):
                zero_den = den == 0.0
                if np.any(zero_den & (num != 0.0)):
                    top = None
                else:
                    top = np.max(np.where(zero_den, 0.0, num / np.where(zero_den, 1.0, den)))
        yield top


def _fold_maxima(maxima, above: float, seen: list) -> tuple[float, bool]:
    """The value of :func:`_panel_ratio_max` from the panel maxima, top to
    bottom, and whether one panel decided it.

    An x/0 (None) decides +inf, and the first maximum above ``above`` with
    no NaN before it decides itself; the maxima below go unread.  Else the
    value is the largest maximum (NaN if one is), 0.0 for none.  Each
    maximum read is appended to ``seen``.
    """
    for top in maxima:
        seen.append(top)
        if top is None:
            return float("inf"), True
        if top > above:
            return float(top), True
        if np.isnan(top):
            above = np.inf
    return (float(np.max(seen)) if seen else 0.0), False


@functools.cache
def _openblas_function(package: str, name: str):
    """The OpenBLAS function ``name`` (as ``get_num_threads``) of the
    OpenBLAS bundled with the wheel of ``package`` ("numpy" or "scipy"),
    or None where none is found.

    Only a library already loaded into the process is opened
    (``RTLD_NOLOAD``), so the lookup never loads a second BLAS.
    """
    here = os.path.dirname(importlib.import_module(package).__file__)
    libs = glob.glob(os.path.join(here, os.pardir, f"{package}.libs", "*openblas*"))
    libs += glob.glob(os.path.join(here, ".dylibs", "*openblas*"))
    symbols = [f"{prefix}_{name}{suffix}" for prefix in ("scipy_openblas", "openblas")
               for suffix in ("64_", "")]
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib, mode=getattr(os, "RTLD_NOLOAD", 0) | ctypes.RTLD_LOCAL)
        except OSError:
            continue
        for symbol in symbols:
            function = getattr(handle, symbol, None)
            if function is not None:
                return function
    return None


def _cpu_count() -> int:
    """The CPUs the two row halves may use: those this process may run on
    where numpy's BLAS runs on one thread, else 1.

    BLAS on more threads already has the other CPUs, and its workers spin
    between calls, so a helper thread would contend with them; the same
    holds where BLAS's thread count cannot be read.  It is read on every
    call, as it may be changed at run time.
    """
    threads = _openblas_function("numpy", "get_num_threads")
    if threads is None or threads() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _together(first, second) -> tuple:
    """(first(), second()), with second() on one helper thread while first()
    runs on the calling thread, or both here in order on one CPU.

    The helper is started and joined inside the call, so no thread outlives
    it, and an exception raised in the helper re-raises here after the join.
    It runs in a copy of the caller's context, so numpy's ``errstate``
    holds on both threads.
    """
    if _cpu_count() < 2:
        return first(), second()
    out: list = [None, None]

    def run():
        try:
            out[0] = second()
        except BaseException as exc:
            out[1] = exc

    helper = threading.Thread(target=contextvars.copy_context().run, args=(run,))
    helper.start()
    try:
        top = first()
    finally:
        helper.join()
    if out[1] is not None:
        raise out[1]
    return top, out[0]


# Two row halves of an m x n array run at once from this many entries up: the
# measured break-even of erres and of H with the helper thread, BLAS on one
# thread (CHANGES.md)
_HALVES_FLOATS = 1 << 20

# Row blocks formed apart (_block_edges) start at a multiple of this many rows,
# and each of their products takes more multiply-adds than _SMALL_PRODUCT
_SPLIT_ROWS = 48
_SMALL_PRODUCT = 100**3


def _row_halves(height: int, width: int, blocks: list[int]) -> list[list[int]]:
    """The row ``blocks`` of a ``height`` x ``width`` array (its
    ``_panel_edges`` or :func:`_block_edges`), as one list, or as two lists
    that split it at a middle edge into a top and a bottom row half.

    Split from ``_HALVES_FLOATS`` entries up, where each half holds one
    block or more.  The split depends on the shape alone, never on the CPU
    count.
    """
    if height * width < _HALVES_FLOATS or len(blocks) < 3:
        return [blocks]
    mid = len(blocks) // 2
    return [blocks[: mid + 1], blocks[mid:]]


def _block_edges(height: int, width: int, inners: tuple[int, ...]) -> list[int]:
    """Row edges 0 = e_0 < ... < e_k = height of the blocks in which rows of
    a ``height`` x ``width`` product are formed apart, each block by BLAS
    products of ``width`` columns and the inner dimensions ``inners``.

    Each block starts at a multiple of ``_SPLIT_ROWS`` rows and is the
    fewest such rows that give each of its products more than
    ``_SMALL_PRODUCT`` multiply-adds; the tail joins the block above.  BLAS
    tiles the rows of a row-major product from the top; where a block
    starts at a multiple of the tile height, every row of it lies in the
    same tile position as in the whole product and takes the same kernel,
    so with BLAS on one thread it rounds the same.  With OpenBLAS 0.3.31 on
    one thread (an AVX-512 host), splits at multiples of 12 rows kept the
    whole product's bits in 232 of 232 random shapes from 2^20 entries up,
    at multiples of 8 or 16 in about half of them; 48 is a multiple of all
    three.  Products of at most 100^3 multiply-adds go to its small-matrix
    kernels, which round unlike the blocked one, so no block may be that
    small.
    """
    least = _SMALL_PRODUCT // (width * max(min(inners), 1)) + 1
    rows = _SPLIT_ROWS * -(-least // _SPLIT_ROWS)
    return list(range(0, max(height - rows, 0) + 1, rows)) + [height]


def _product_halves(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b into one allocated array, in two row halves at once where
    :func:`_row_halves` splits its :func:`_block_edges` and a second CPU is
    free (:func:`_cpu_count`), the bottom half on a helper thread; else by
    the whole product.

    With BLAS on one thread either way gives the whole product's bits; with
    BLAS on more threads there is no free CPU, and the whole product is
    formed as one call.
    """
    out = np.empty((a.shape[0], b.shape[1]))
    halves = _row_halves(*out.shape, _block_edges(*out.shape, (a.shape[1],)))
    if len(halves) > 1 and _cpu_count() > 1:
        split = halves[1][0]
        _together(
            lambda: np.matmul(a[:split], b, out=out[:split]),
            lambda: np.matmul(a[split:], b, out=out[split:]),
        )
    else:
        np.matmul(a, b, out=out)
    return out


def _halves_ratio_max(panels, halves: list[list[int]], *, above: float = np.inf) -> float:
    """:func:`_panel_ratio_max` over the row panels at ``halves``
    (:func:`_row_halves`), where ``panels(edges)`` yields the (num, den)
    panels at ``edges`` into buffers of its own.

    With two halves, the top half is read here and the bottom half on a
    helper thread (:func:`_together`), each panel by the same operations
    as in one pass.  The merge replays the one-pass rule over the maxima
    in top-to-bottom order, so the value is bitwise the one-pass value,
    early exits included: a top half that decides sets a stop flag, which
    the helper reads between panels, and its value stands; else every
    maximum read is folded again in order, and where a NaN in the top half
    turns off the exit at which the bottom half stopped, the bottom half's
    remaining panels are read here.
    """
    if len(halves) == 1:
        return _panel_ratio_max(panels(halves[0]), above=above)
    stop = threading.Event()
    top_seen: list = []
    bottom_seen: list = []
    bottom = _panel_maxima(panels(halves[1]), stop)

    def top_half():
        value, decided = _fold_maxima(_panel_maxima(panels(halves[0])), above, top_seen)
        if decided:
            stop.set()
        return value, decided

    (value, decided), _ = _together(top_half, lambda: _fold_maxima(bottom, above, bottom_seen))
    if decided:
        return value
    return _fold_maxima(itertools.chain(top_seen, bottom_seen, bottom), above, [])[0]


def _panel_rows(width: int) -> int:
    """Height of the row panels that stream an array with rows of ``width`` floats.

    As high as ``matmul``'s output slabs, so panel-sized temporaries stay
    cache resident.
    """
    return max(8, _SLAB_FLOATS // max(width, 1))


def _panel_edges(height: int, width: int) -> list[int]:
    """Row edges 0 = e_0 < ... < e_k = height of the row panels that stream
    an array of ``height`` rows of ``width`` floats, top to bottom.

    Each panel is ``_panel_rows`` high but the last: a one-row remainder
    joins the panel above it, so no panel past the first has one row.  A
    BLAS product of one row is a matrix-vector product, which may round
    unlike the rows of the whole product.
    """
    edges = list(range(0, height, _panel_rows(width))) + [height]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return edges


def _row_panels(*arrays):
    """Aligned row panels of arrays of one shape, at ``_panel_edges``, top to bottom."""
    edges = _panel_edges(len(arrays[0]), arrays[0][:1].size)
    for i0, i1 in zip(edges, edges[1:]):
        yield tuple(a[i0:i1] for a in arrays)


def _column_form(x, n: int) -> tuple[np.ndarray, bool]:
    """``x`` as an (n, cols) float array, and whether it was a vector.

    The one operand check of the structured products and the shifted
    solves: a vector becomes one column, anything but n rows or more than
    two dimensions raises ``ValueError``.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"operand must have {n} rows, got shape {x.shape}")
    return x, squeeze


def _band_apply(bands: Dict[int, np.ndarray], x: np.ndarray, transpose: bool) -> np.ndarray:
    """Banded matrix (diagonals by offset) times an (n, cols) array.

    Offsets are added in ascending order; ``transpose`` applies the
    transposed matrix, whose offset o diagonal is the stored offset -o.
    """
    n = x.shape[0]
    out = np.zeros_like(x)
    for off in sorted(bands):
        vals = bands[off]
        o = -off if transpose else off
        if o >= 0:
            out[: n - o] += vals[:, None] * x[o:]
        else:
            out[-o:] += vals[:, None] * x[: n + o]
    return out


def _negated_offdiag(bands: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
    """The bands of N = diag(M) - M for a banded M (none when M is diagonal)."""
    return {off: -vals for off, vals in bands.items() if off != 0}


def _canonical_lowrank(p: np.ndarray, r: np.ndarray, sign: int):
    """(P, R, sign) of sign * P R^T in canonical form: P, R >= 0, no zero pair.

    Pairs with a zero column are dropped.  Nonpositive columns are negated
    exactly (0.0 - x keeps zeros +0.0), and the sign flips when every
    product P_t R_t^T is <= 0.  A low-rank part with entries of both signs
    has no nonnegative capacitance triplet and raises ``ValueError``.  O(n r).
    """
    keep = p.any(axis=0) & r.any(axis=0)
    if not keep.all():
        p, r = p[:, keep], r[:, keep]
    if p.min(initial=0.0) >= 0.0 and r.min(initial=0.0) >= 0.0:
        return p, r, sign
    p_neg, r_neg = (p < 0.0).any(axis=0), (r < 0.0).any(axis=0)
    flips = p_neg != r_neg
    ok = ~(p_neg & (p > 0.0).any(axis=0)) & ~(r_neg & (r > 0.0).any(axis=0))
    ok &= flips == flips[0]
    if not ok.all():
        t = np.flatnonzero(keep)[np.argmin(ok)]
        raise ValueError(f"low-rank part mixes signs at pair {t}; store the block as `dense`")
    p = np.where(p_neg, 0.0 - p, p)
    r = np.where(r_neg, 0.0 - r, r)
    return p, r, -sign if flips[0] else sign


@dataclass(frozen=True, eq=False)
class StructuredSquare:
    """Square matrix in one of three structured representations.

    Use the ``dense``, ``banded``, and ``diag_plus_lowrank`` constructors;
    the raw dataclass fields are an implementation detail.
    """

    kind: str
    n: int
    a: np.ndarray | None = None
    lower: int = 0
    upper: int = 0
    bands: Dict[int, np.ndarray] | None = None
    d: np.ndarray | None = None
    p: np.ndarray | None = None
    r: np.ndarray | None = None
    sign: int = -1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def dense(a) -> "StructuredSquare":
        a = np.array(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"dense payload must be square, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("dense payload has non-finite entries")
        return StructuredSquare(kind="dense", n=a.shape[0], a=a)

    @staticmethod
    def banded(n: int, lower: int, upper: int, bands) -> "StructuredSquare":
        if lower < 0 or upper < 0 or lower >= n or upper >= n:
            raise ValueError(f"bad bandwidths ({lower}, {upper}) for order {n}")
        store: Dict[int, np.ndarray] = {}
        for off, vals in dict(bands).items():
            off = int(off)
            if off < -lower or off > upper:
                raise ValueError(f"band offset {off} outside [-{lower}, {upper}]")
            v = np.array(vals, dtype=np.float64)
            if v.shape != (n - abs(off),):
                raise ValueError(
                    f"band {off} must have length {n - abs(off)}, got {v.shape}"
                )
            if not np.all(np.isfinite(v)):
                raise ValueError(f"band {off} has non-finite entries")
            store[off] = v
        if 0 not in store:
            raise ValueError("main diagonal (offset 0) must be stored")
        return StructuredSquare(
            kind="banded", n=n, lower=lower, upper=upper, bands=store
        )

    @staticmethod
    def diag_plus_lowrank(d, p, r, sign: int) -> "StructuredSquare":
        d = np.array(d, dtype=np.float64)
        p = np.array(p, dtype=np.float64)
        r = np.array(r, dtype=np.float64)
        if d.ndim != 1:
            raise ValueError("d must be a vector")
        n = d.shape[0]
        if p.ndim != 2 or r.ndim != 2 or p.shape[0] != n or r.shape[0] != n:
            raise ValueError(f"factors must be ({n}, r) arrays")
        if p.shape[1] != r.shape[1]:
            raise ValueError("P and R must have the same number of columns")
        if p.shape[1] > n:
            raise ValueError("low-rank width exceeds the order")
        if sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        for name, arr in (("d", d), ("P", p), ("R", r)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
        p, r, sign = _canonical_lowrank(p, r, sign)
        return StructuredSquare(
            kind="diag_plus_lowrank", n=n, d=d, p=p, r=r, sign=int(sign)
        )

    # -- queries -----------------------------------------------------------

    def lowrank_rowdot(self) -> np.ndarray:
        """Row dots sum_t P_it R_it (diag_plus_lowrank only)."""
        if self.kind != "diag_plus_lowrank":
            raise ValueError("rowdot applies to diag_plus_lowrank only")
        return np.einsum("it,it->i", self.p, self.r)

    def diagonal(self) -> np.ndarray:
        """True matrix diagonal (low-rank contribution included)."""
        if self.kind == "dense":
            return np.diagonal(self.a).copy()
        if self.kind == "banded":
            return self.bands[0].copy()
        return self.d + self.sign * self.lowrank_rowdot()

    def to_dense(self) -> np.ndarray:
        if self.kind == "dense":
            return self.a.copy()
        if self.kind == "banded":
            out = np.zeros((self.n, self.n))
            for off in sorted(self.bands):
                vals = self.bands[off]
                idx = np.arange(self.n - abs(off))
                if off >= 0:
                    out[idx, idx + off] = vals
                else:
                    out[idx - off, idx] = vals
            return out
        out = np.diag(self.d) + self.sign * (self.p @ self.r.T)
        # the diagonal is :meth:`diagonal`'s: the product's own may round
        # apart from the row dots
        np.fill_diagonal(out, self.diagonal())
        return out

    def apply(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """M @ x (or M.T @ x), exploiting the structure.

        ``x`` may be a vector or an (n, cols) matrix.
        """
        x, squeeze = _column_form(x, self.n)
        out = self._column_apply(transpose)(x)
        return out[:, 0] if squeeze else out

    def _column_apply(self, transpose: bool, nonneg: bool = False):
        """The product x -> M x (M^T x with ``transpose``) on (n, cols) float arrays.

        Everything that depends on M alone (the operand views, the low-rank
        row dots and which low-rank form applies) is computed here, once;
        the returned function does the per-operand arithmetic only.
        :meth:`apply` builds one per call, and the dADDA step operator one
        per block family, so both run the same arithmetic.  ``nonneg`` is
        the caller's promise that every x is >= 0 (the step operator checks
        its operands' signs itself); it skips the per-operand sign test
        that picks the low-rank form.
        """
        if self.kind == "dense":
            a = self.a.T if transpose else self.a
            return lambda x: a @ x
        if self.kind == "banded":
            bands = self.bands
            return lambda x: _band_apply(bands, x, transpose)
        left, right = (self.r, self.p) if transpose else (self.p, self.r)
        right_t, d, sign = right.T, self.d[:, None], self.sign

        def plain(x):
            return d * x + sign * (left @ (right_t @ x))

        if sign == -1 or not np.any(self.d < 0.0):
            return plain
        tdiag = self.d + self.lowrank_rowdot()
        if not np.all(tdiag >= 0.0):
            return plain
        # Nonnegative matrix whose stored diagonal is negative because the
        # low-rank part carries it (the I - beta*D case).  d*x + P (R^T x)
        # would cancel through the negative d, so for x >= 0 split off the
        # true diagonal instead.  Each entry of core = R^T x is a computed
        # sum of nonnegative terms, and round-to-nearest is monotone, so in
        # any summation order, with or without fused multiply-adds, it is
        # >= each of its rounded terms R_it x_ij: core - R*x is exactly
        # nonnegative and the whole result a sum of nonnegatives.
        tdiag, right3 = tdiag[:, None], right[:, :, None]

        def split(x):
            resid = (right_t @ x)[None, :, :] - right3 * x[:, None, :]
            return tdiag * x + np.einsum("it,itj->ij", left, resid)

        if nonneg:
            return split
        return lambda x: split(x) if np.all(x >= 0.0) else plain(x)

    def affine(self, scale: float, shift: float) -> "StructuredSquare":
        """Return scale * M + shift * I in the same structured kind."""
        scale = float(scale)
        shift = float(shift)
        if self.kind == "dense":
            out = scale * self.a
            idx = np.arange(self.n)
            out[idx, idx] += shift
            return StructuredSquare.dense(out)
        if self.kind == "banded":
            bands = {off: scale * vals for off, vals in self.bands.items()}
            bands[0] = bands[0] + shift
            return StructuredSquare.banded(self.n, self.lower, self.upper, bands)
        # scale 0 zeroes R, so the canonical form drops every pair
        return StructuredSquare.diag_plus_lowrank(
            scale * self.d + shift, self.p, abs(scale) * self.r,
            -self.sign if scale < 0.0 else self.sign,
        )

    def offdiag_nonpositive(self) -> bool:
        """Whether all off-diagonal entries are <= 0 (Z-pattern), exactly.

        A canonical low-rank block has P, R >= 0, so sign -1 always is one;
        sign +1 is one only if each pair is supported on one common index,
        where P_t R_t^T touches the diagonal alone.
        """
        if self.kind == "dense":
            off = self.a - np.diag(np.diagonal(self.a))
            return bool(np.all(off <= 0.0))
        if self.kind == "banded":
            return all(
                bool(np.all(v <= 0.0)) for o, v in self.bands.items() if o != 0
            )
        if self.sign == -1:
            return True
        support = self.p != 0.0
        return bool(
            np.array_equal(support, self.r != 0.0) and np.all(support.sum(axis=0) == 1)
        )

    def offdiag_parts(
        self, x: np.ndarray, transpose: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """(pos, neg) with N x = pos - neg for N = diag(M) - M (N^T x with
        ``transpose``); both are >= 0 for x >= 0 and a Z-matrix M.

        The one definition of the split.  A low-rank N = -sign (P R^T -
        diag(rowdots)) cancels the row dots out of P (R^T x), and ``sign``
        orders the two sums (P and R swap under ``transpose``); the dense
        and banded kinds cancel nothing, so their neg is zero.  ``x`` may
        be a vector or an (n, cols) matrix.
        """
        cols, squeeze = _column_form(x, self.n)
        neg = np.zeros_like(cols)
        if self.kind == "banded":
            pos = _band_apply(_negated_offdiag(self.bands), cols, transpose)
        elif self.kind == "dense":
            nmat = np.diag(np.diagonal(self.a)) - self.a
            pos = (nmat.T if transpose else nmat) @ cols
        else:
            left, right = (self.r, self.p) if transpose else (self.p, self.r)
            pos = left @ (right.T @ cols)
            neg = self.lowrank_rowdot()[:, None] * cols
            if self.sign == 1:
                pos, neg = neg, pos
        return (pos[:, 0], neg[:, 0]) if squeeze else (pos, neg)

    def offdiag_abs_apply(
        self, x: np.ndarray, side: str = "left"
    ) -> np.ndarray:
        """Apply N = diag(M) - M (entrywise |off-diagonal| for a Z-matrix).

        ``side="left"`` computes N @ x, ``side="right"`` computes x @ N as
        (N^T @ x.T).T, both as pos - neg of :meth:`offdiag_parts`.
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        left = side == "left"
        x = np.asarray(x, dtype=np.float64)
        pos, neg = self.offdiag_parts(x if left else x.T, transpose=not left)
        out = pos - neg
        return out if left else out.T

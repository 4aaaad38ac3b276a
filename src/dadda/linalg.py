"""Deterministic dense and structured linear algebra primitives.

Every reduction in this module runs in ascending index order, independent
of BLAS backend or thread count, so repeated runs give bit-identical
results and nonnegative inputs cannot pick up sign noise from reordered
partial sums.  numpy applies pairwise summation only when reducing along a
contiguous innermost axis; a reduction over axis 0 of a C-contiguous array
whose trailing width is at least 2 is a plain sequential strided loop.
``_reduce_ascending`` funnels every sum through that code path (width-1
stacks are zero-padded to width 2) and the behaviour is probed once at
import time, dropping to an explicit python loop if a numpy build ever
changes it.

Square coefficient matrices come in three structured kinds:

- ``dense``: explicit (n, n) array;
- ``banded``: diagonals stored by offset in [-lower, upper], offset 0
  always present;
- ``diag_plus_lowrank``: diag(d) + sign * P @ R.T with skinny P, R.

The structured kinds keep application, diagonal extraction, and affine
shifts at O(n * bandwidth) or O(n * r) so large instances never densify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

__all__ = [
    "StructuredSquare",
    "frobenius_norm",
    "matmul",
    "max_entrywise_ratio",
    "ordered_dot",
    "ordered_sum",
]


def _probe_ascending_reduce() -> bool:
    """Check that axis-0 reduction with width >= 2 is sequential ascending.

    The staircase below evaluates differently under pairwise summation
    (1e16 absorbs the trailing ones in a different pattern), so bitwise
    agreement with the explicit loop pins the accumulation order.
    """
    k = 1537
    stack = np.ones((k, 2))
    stack[0, 0] = 1e16
    stack[:, 1] = np.linspace(1.0, 3.0, k) * 1e-3
    acc = np.zeros(2)
    for i in range(k):
        acc = acc + stack[i]
    return bool(np.array_equal(np.add.reduce(stack, axis=0), acc))


_FAST_REDUCE = _probe_ascending_reduce()


def _reduce_ascending(stack: np.ndarray) -> np.ndarray:
    """Sum ``stack`` over axis 0 in strictly ascending index order.

    ``stack`` may have any trailing shape; it is flattened to (k, w) for
    the reduction.  Returns an array with the trailing shape.
    """
    k = stack.shape[0]
    tail = stack.shape[1:]
    w = int(np.prod(tail)) if tail else 1
    if k == 0:
        return np.zeros(tail)
    flat = np.ascontiguousarray(stack.reshape(k, w))
    if w == 1:
        flat = np.concatenate([flat, np.zeros((k, 1))], axis=1)
    if _FAST_REDUCE:
        out = np.add.reduce(flat, axis=0)
    else:  # pragma: no cover - exercised only on numpy builds that reorder
        out = np.zeros(flat.shape[1])
        for i in range(k):
            out = out + flat[i]
    if w == 1:
        out = out[:1]
    return out.reshape(tail)


def ordered_sum(x: np.ndarray) -> float:
    """Sum of all entries in C order, accumulated ascending."""
    flat = np.ascontiguousarray(x, dtype=np.float64).reshape(-1, 1)
    return float(_reduce_ascending(flat)[0])


def ordered_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product with ascending-index accumulation."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch {x.shape} vs {y.shape}")
    return ordered_sum(x * y)


# Slab sizing: small results go through chunked stacked reductions, large
# results through a rank-1 update loop blocked on rows so the active output
# slab stays cache resident.
_SMALL_RESULT = 4096
_CHUNK_FLOATS = 1 << 21
_SLAB_FLOATS = 1 << 15


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with reductions in ascending inner-index order.

    Bitwise equal to the naive triple loop ``acc += a[i, k] * b[k, j]``
    with k ascending, for any blocking the implementation chooses.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    out = np.zeros((m, n))
    if k == 0 or m == 0 or n == 0:
        return out
    if m * n <= _SMALL_RESULT:
        step = max(1, _CHUNK_FLOATS // (m * n))
        for k0 in range(0, k, step):
            k1 = min(k, k0 + step)
            slab = a[:, k0:k1].T[:, :, None] * b[k0:k1, None, :]
            stack = np.concatenate([out[None, :, :], slab], axis=0)
            out = _reduce_ascending(stack)
        return out
    rows = max(8, _SLAB_FLOATS // n)
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
    """Frobenius norm, squares summed ascending in C order."""
    a = np.asarray(a, dtype=np.float64)
    flat = a.ravel()
    return float(np.sqrt(ordered_sum(flat * flat)))


def max_entrywise_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """max over entries of num/den with 0/0 -> 0 and x/0 -> +inf (x > 0)."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    if num.shape != den.shape:
        raise ValueError("shape mismatch")
    if num.size == 0:
        return 0.0
    zero_den = den == 0.0
    if np.any(zero_den & (num != 0.0)):
        return float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(zero_den, 0.0, num / np.where(zero_den, 1.0, den))
    return float(np.max(ratio))


def _as_vector(x, n: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
    return v


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
        return StructuredSquare(
            kind="diag_plus_lowrank", n=n, d=d, p=p, r=r, sign=int(sign)
        )

    # -- queries -----------------------------------------------------------

    def lowrank_rowdot(self) -> np.ndarray:
        """Row dots sum_t P_it R_it (diag_plus_lowrank only)."""
        if self.kind != "diag_plus_lowrank":
            raise ValueError("rowdot applies to diag_plus_lowrank only")
        if self.p.shape[1] == 0:
            return np.zeros(self.n)
        return _reduce_ascending((self.p * self.r).T)

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
        lr = matmul(self.p, self.r.T)
        return np.diag(self.d) + self.sign * lr

    def apply(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """M @ x (or M.T @ x), exploiting the structure.

        ``x`` may be a vector or an (n, cols) matrix.
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        if x.shape[0] != self.n:
            raise ValueError(f"operand rows {x.shape[0]} != order {self.n}")
        if self.kind == "dense":
            out = matmul(self.a.T if transpose else self.a, x)
        elif self.kind == "banded":
            out = np.zeros_like(x)
            for off in sorted(self.bands):
                vals = self.bands[off]
                o = -off if transpose else off
                if o >= 0:
                    out[: self.n - o] += vals[:, None] * x[o:]
                else:
                    out[-o:] += vals[:, None] * x[: self.n + o]
        else:
            out = self._apply_lowrank(x, transpose)
        return out[:, 0] if squeeze else out

    def _apply_lowrank(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        if (
            self.sign == 1
            and np.any(self.d < 0.0)
            and np.all(self.p >= 0.0)
            and np.all(self.r >= 0.0)
            and np.all(x >= 0.0)
        ):
            tdiag = self.d + self.lowrank_rowdot()
            if np.all(tdiag >= 0.0):
                # Nonnegative matrix whose stored diagonal is negative
                # because the low-rank part carries it (the I - beta*D
                # case).  d*x + P (R^T x) would cancel through the negative
                # d, so split off the true diagonal instead: each entry of
                # core dominates every product it accumulated, making
                # core - R*x exactly nonnegative and the whole result a sum
                # of nonnegatives.
                left = self.r if transpose else self.p
                right = self.p if transpose else self.r
                core = matmul(right.T, x)
                resid = core[None, :, :] - right[:, :, None] * x[:, None, :]
                return tdiag[:, None] * x + _reduce_ascending(
                    (left[:, :, None] * resid).transpose(1, 0, 2)
                )
        core = matmul(self.p.T if transpose else self.r.T, x)
        lr = matmul(self.r if transpose else self.p, core)
        return self.d[:, None] * x + self.sign * lr

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
        d = scale * self.d + shift
        if scale == 0.0:
            return StructuredSquare.diag_plus_lowrank(
                d, self.p, np.zeros_like(self.r), self.sign
            )
        new_sign = self.sign if scale > 0 else -self.sign
        return StructuredSquare.diag_plus_lowrank(
            d, self.p, abs(scale) * self.r, new_sign
        )

    def offdiag_nonpositive(self, dense_limit: int = 4096) -> bool | None:
        """Whether all off-diagonal entries are <= 0 (Z-pattern).

        Returns None when the representation cannot be checked without an
        O(n^2) densification and the order exceeds ``dense_limit``.
        """
        if self.kind == "dense":
            off = self.a - np.diag(np.diagonal(self.a))
            return bool(np.all(off <= 0.0))
        if self.kind == "banded":
            return all(
                bool(np.all(v <= 0.0)) for o, v in self.bands.items() if o != 0
            )
        if self.sign == -1 and np.all(self.p >= 0.0) and np.all(self.r >= 0.0):
            return True
        if self.n <= dense_limit:
            dense = self.to_dense()
            off = dense - np.diag(np.diagonal(dense))
            return bool(np.all(off <= 0.0))
        return None

    def offdiag_abs_apply(
        self, x: np.ndarray, side: str = "left"
    ) -> np.ndarray:
        """Apply N = diag(M) - M (entrywise |off-diagonal| for a Z-matrix).

        ``side="left"`` computes N @ x, ``side="right"`` computes x @ N.
        Used by the entrywise residual, where the off-diagonal mass enters
        the nonnegative group.
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        x = np.asarray(x, dtype=np.float64)
        if side == "left":
            squeeze = x.ndim == 1
            if squeeze:
                x = x[:, None]
            if x.shape[0] != self.n:
                raise ValueError("operand rows must match the order")
            if self.kind == "dense":
                nmat = np.diag(np.diagonal(self.a)) - self.a
                out = matmul(nmat, x)
            elif self.kind == "banded":
                out = np.zeros_like(x)
                for off in sorted(self.bands):
                    if off == 0:
                        continue
                    vals = -self.bands[off]
                    if off > 0:
                        out[: self.n - off] += vals[:, None] * x[off:]
                    else:
                        out[-off:] += vals[:, None] * x[: self.n + off]
            else:
                # N = diag(M) - M = -sign * (P R^T - diag(rowdots))
                lr = matmul(self.p, matmul(self.r.T, x))
                rowdot = _reduce_ascending((self.p * self.r).T)
                out = -self.sign * (lr - rowdot[:, None] * x)
            return out[:, 0] if squeeze else out
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.n:
            raise ValueError("operand columns must match the order")
        if self.kind == "dense":
            nmat = np.diag(np.diagonal(self.a)) - self.a
            out = matmul(x, nmat)
        elif self.kind == "banded":
            out = np.zeros_like(x)
            for off in sorted(self.bands):
                if off == 0:
                    continue
                vals = -self.bands[off]
                if off > 0:
                    out[:, off:] += x[:, : self.n - off] * vals[None, :]
                else:
                    out[:, : self.n + off] += x[:, -off:] * vals[None, :]
        else:
            lr = matmul(matmul(x, self.p), self.r.T)
            rowdot = _reduce_ascending((self.p * self.r).T)
            out = -self.sign * (lr - x * rowdot[None, :])
        return out[0] if squeeze else out

"""Exact arithmetic over F_p: dense matrices and their elimination.

Everything in this module is exact integer-residue arithmetic; no floating
point. A matrix is one read-only int64 array with entries in [0, p), and
each ring operation one numpy expression reduced mod p. p must be an odd
prime (validated by Miller-Rabin, p <= 10**6).
Ranks, null spaces, solutions and inverses all come from one row reduction
that runs on a stack of matrices at once, in unsigned words that hold p^2;
results are returned as int64 arrays or Python ints.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, Singular


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for the full 64-bit range."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache
def is_odd_prime(p: int) -> bool:
    return p % 2 == 1 and is_prime(p)


def validate_odd_prime(p: int) -> int:
    if not isinstance(p, int) or p > 10**6 or not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime <= 10**6, got {p!r}")
    return p


class FpMatrix:
    """Dense matrix over F_p: one read-only int64 array, shape (rows, cols), entries in [0, p)."""

    __slots__ = ("array", "p")

    def __init__(self, rows: int, cols: int, entries: Sequence[int], p: int):
        validate_odd_prime(p)
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"need {rows * cols} entries, got {len(entries)}")
        # each entry reduced as a Python int: JSON entries may lie past int64
        self.array = np.array([int(x) % p for x in entries], dtype=np.int64).reshape(rows, cols)
        self.array.setflags(write=False)
        self.p = p

    def _of(self, array: np.ndarray) -> "FpMatrix":
        """The matrix over this one's F_p holding the int64 array reduced mod p."""
        out = object.__new__(FpMatrix)
        out.array, out.p = array % self.p, self.p
        out.array.setflags(write=False)
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], p: int) -> "FpMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged rows")
        return cls(r, c, [x for row in rows for x in row], p)

    @classmethod
    def zero(cls, rows: int, cols: int, p: int) -> "FpMatrix":
        return cls(rows, cols, [0] * (rows * cols), p)

    @classmethod
    def identity(cls, n: int, p: int) -> "FpMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)], p)

    # -- access -------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(self.array.ravel().tolist())

    def __getitem__(self, rc: tuple[int, int]) -> int:
        return int(self.array[rc])

    def to_lists(self) -> list[list[int]]:
        return self.array.tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, FpMatrix) and self.p == other.p and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.array.shape, self.array.tobytes(), self.p))

    def __repr__(self):
        return f"FpMatrix({self.to_lists()}, p={self.p})"

    # -- ring operations ----------------------------------------------

    def _check_same_shape(self, other: "FpMatrix"):
        if self.p != other.p or self.array.shape != other.array.shape:
            raise DimensionMismatch("shape or modulus mismatch")

    def add(self, other: "FpMatrix") -> "FpMatrix":
        self._check_same_shape(other)
        return self._of(self.array + other.array)

    def sub(self, other: "FpMatrix") -> "FpMatrix":
        self._check_same_shape(other)
        return self._of(self.array - other.array)

    def neg(self) -> "FpMatrix":
        return self._of(-self.array)

    def scale_by(self, c: int) -> "FpMatrix":
        return self._of(c % self.p * self.array)

    def mul(self, other: "FpMatrix") -> "FpMatrix":
        """The product in int64: each entry sums cols products below p^2 <= 10^12."""
        if self.p != other.p or self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        return self._of(self.array @ other.array)

    def transpose(self) -> "FpMatrix":
        return self._of(self.array.T)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_skew(self) -> bool:
        return self.neg() == self.transpose()


# -- elimination ------------------------------------------------------


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, by floor division: numpy divides by a scalar through libdivide, but not for %."""
    x -= x // p * p
    return x


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^-1 mod p of nonzero residues in words that hold p^2: x^(p-2) by repeated
    squaring. x holds one pivot per matrix, few enough for % to cost little."""
    inv = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            inv = inv * x % p
        x = x * x % p
        e >>= 1
    return inv


def _rref_stack(M: np.ndarray, p: int, pivot_cols: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form over F_p of each matrix of a stack of shape
    (r, c, B), stack axis last, in unsigned words of np.min_scalar_type(p * p)
    with entries in [0, p), nonzero rows first, and the rank of each matrix.
    M is reduced in place, column j < pivot_cols in the whole stack at once,
    with one row counter per matrix. Row i becomes i + p(p - 1) - M[i, j]
    pivot, in [0, p^2). No row is swapped: the first live row is added to the
    target row, which keeps the row space and so the unique RREF. Where the
    target row is live, it is the first live row itself, and normalizing the
    doubled row gives the same pivot row."""
    r, c, B = M.shape
    rank, row, bias = np.zeros(B, dtype=np.int64), np.arange(r)[:, None], M.dtype.type(p * (p - 1))
    for j in range(c if pivot_cols is None else pivot_cols):
        # rows at or past the row counter are zero in every earlier column
        live = (M[:, j] != 0) & (row >= rank)
        b = live.any(axis=0).nonzero()[0]
        if not len(b):
            continue
        rk, first = rank[b], live[:, b].argmax(axis=0)
        pivot_rows = _reduce(M[first, j:, b] + M[rk, j:, b], p)
        pivot_rows = _reduce(pivot_rows * _inverse_mod(pivot_rows[:, 0], p)[:, None], p)
        pivots = np.zeros((c - j, B), dtype=M.dtype)  # matrices with no pivot here subtract 0
        pivots[:, b] = pivot_rows.T
        # row rk is cleared here too, then overwritten by the pivot row
        M[:, j:] += bias - M[:, j, None] * pivots
        _reduce(M[:, j:], p)
        M[rk, j:, b] = pivot_rows
        rank[b] += 1
        if rank.min() == r:
            break
    return M, rank


def _as_stack(A: np.ndarray, p: int) -> np.ndarray:
    """An integer array of shape (..., r, c) as the kernel's stack: shape (r, c, B) over the
    flattened leading axes, in words of np.min_scalar_type(p * p) reduced into [0, p)."""
    if A.dtype == object:
        A = A % p
    A = _reduce(A.astype(np.int64), p).reshape((math.prod(A.shape[:-2]),) + A.shape[-2:])
    return np.ascontiguousarray(A.transpose(1, 2, 0), dtype=np.min_scalar_type(p * p))


def _exact_rows(rows) -> np.ndarray:
    """rows as an array, kept as Python ints where numpy would hold them past
    int64: as uint64 (ints in [2^63, 2^64)) or rounded to float64 (such ints
    among others in one list)."""
    A = np.asarray(rows)
    return np.array(rows, dtype=object) if A.dtype.kind == "f" or A.dtype == np.uint64 else A


def rref(rows, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form over F_p of a matrix given by its rows (a
    list of lists or a 2-d integer array). Returns (nonzero rows, pivot
    columns): an int64 array of shape (rank, cols) and one of length rank."""
    M, rank = _rref_stack(_as_stack(np.atleast_2d(_exact_rows(rows)), p), p)  # [] as one row of no columns
    red = M[: rank[0], :, 0].astype(np.int64)
    # entries are non-negative, so a row's cumulative sum is 0 exactly on its leading zeros
    return red, (red.cumsum(axis=1) == 0).sum(axis=1)


def rank_stack(A, p: int) -> np.ndarray:
    """Ranks over F_p of a stack of integer matrices, shape (..., r, c); an
    int64 array of the stack's shape."""
    validate_odd_prime(p)
    A = _exact_rows(A)
    if A.ndim < 2:
        raise DimensionMismatch("rank_stack needs a stack of matrices")
    return _rref_stack(_as_stack(A, p), p)[1].reshape(A.shape[:-2])


def row_space_rank(rows, p: int) -> int:
    return len(rref(rows, p)[0])


def nullspace(rows, p: int, ncols: int | None = None) -> np.ndarray:
    """Basis of {x : M x = 0} for the matrix with the given rows (a list of
    lists or a 2-d integer array), as an int64 array of shape (ncols - rank,
    ncols): free column f gives e_f minus the pivot rows' entries in column f."""
    if ncols is None:
        if not len(rows):
            raise ValueError("ncols required for an empty constraint system")
        ncols = len(rows[0])
    red, pivots = rref(np.reshape(_exact_rows(rows), (len(rows), ncols)), p)
    free = np.delete(np.arange(ncols), pivots)
    basis = np.eye(ncols, dtype=np.int64)[free]
    basis[:, pivots] = -red[:, free].T % p
    return basis


# -- spec operations --------------------------------------------------


def mat_inverse(A: FpMatrix) -> FpMatrix:
    """Inverse of a square matrix; raises Singular if none exists."""
    if A.rows != A.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n, p = A.rows, A.p
    red, pivots = rref(np.hstack([A.array, np.eye(n, dtype=np.int64)]), p)
    if not np.array_equal(pivots[:n], np.arange(n)):
        raise Singular("matrix is not invertible")
    return A._of(red[:n, n:])


def is_invertible(A: FpMatrix) -> bool:
    return A.rows == A.cols and row_space_rank(A.array, A.p) == A.rows


def inverse_stack(A, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of a stack of square integer matrices, shape (..., n, n),
    are invertible over F_p (a bool array of the stack's shape), and their
    int64 inverses (unspecified where singular), from one elimination of
    [A | I] that seeks pivots in the A half only: A is invertible exactly
    when it has n pivots, and then the I half is A^-1."""
    validate_odd_prime(p)
    A = _exact_rows(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch("inverse_stack needs a stack of square matrices")
    n = A.shape[-1]
    M = _as_stack(np.concatenate([A, np.broadcast_to(np.eye(n, dtype=A.dtype), A.shape)], axis=-1), p)
    R, rank = _rref_stack(M, p, pivot_cols=n)
    return (rank == n).reshape(A.shape[:-2]), np.moveaxis(R[:, n:], -1, 0).astype(np.int64).reshape(A.shape)

"""Exact arithmetic over F_p: dense matrices and their elimination.

Everything in this module is exact integer-residue arithmetic; no floating
point. Matrices are immutable, entries stored row-major as plain ints in
[0, p). p must be an odd prime (validated by Miller-Rabin, p <= 10**6).
Ranks, null spaces, solutions and inverses all come from one row reduction
that runs on a stack of int64 matrices at once.
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
    """Dense matrix over F_p; immutable, entries row-major in [0, p)."""

    __slots__ = ("rows", "cols", "entries", "p")

    def __init__(self, rows: int, cols: int, entries: Sequence[int], p: int):
        validate_odd_prime(p)
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(x % p for x in entries)
        self.p = p

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

    def __getitem__(self, rc: tuple[int, int]) -> int:
        i, j = rc
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries, self.p))

    def __repr__(self):
        return f"FpMatrix({self.to_lists()}, p={self.p})"

    # -- ring operations ----------------------------------------------

    def _check_same_shape(self, other: "FpMatrix"):
        if self.p != other.p or self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape or modulus mismatch")

    def add(self, other: "FpMatrix") -> "FpMatrix":
        self._check_same_shape(other)
        return FpMatrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)], self.p)

    def sub(self, other: "FpMatrix") -> "FpMatrix":
        self._check_same_shape(other)
        return FpMatrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)], self.p)

    def neg(self) -> "FpMatrix":
        return FpMatrix(self.rows, self.cols, [-a for a in self.entries], self.p)

    def scale_by(self, c: int) -> "FpMatrix":
        return FpMatrix(self.rows, self.cols, [c * a for a in self.entries], self.p)

    def mul(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        p = self.p
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a:
                    okbase = k * other.cols
                    obase = i * other.cols
                    for j in range(other.cols):
                        out[obase + j] += a * other.entries[okbase + j]
        return FpMatrix(self.rows, other.cols, out, p)

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.cols, self.rows, [self[i, j] for j in range(self.cols) for i in range(self.rows)], self.p)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_skew(self) -> bool:
        return self.neg() == self.transpose()

    def flatten(self) -> tuple[int, ...]:
        return self.entries


# -- elimination ------------------------------------------------------


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^-1 mod p of nonzero int64 residues: x^(p-2) by repeated squaring
    (products stay below p^2 < 2^63)."""
    inv = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            inv = inv * x % p
        x = x * x % p
        e >>= 1
    return inv


def _rref_stack(M: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form over F_p of each matrix of an int64 stack of
    shape (B, r, c) with entries in [0, p), nonzero rows first, and the rank
    of each matrix. M is reduced in place; column j is eliminated in the
    whole stack at once, with one row counter per matrix."""
    B, r, c = M.shape
    rank = np.zeros(B, dtype=np.int64)
    row = np.arange(r)
    for j in range(c):
        # rows at or past the row counter are zero in every earlier column
        live = (M[:, :, j] != 0) & (row >= rank[:, None])
        has = live.any(axis=1)
        b = np.nonzero(has)[0]
        if not len(b):
            continue
        sel = slice(None) if len(b) == B else b
        rk, piv = rank[b], live[b].argmax(axis=1)
        pivot_rows = M[b, piv, j:]
        M[b, piv, j:] = M[b, rk, j:]
        pivot_rows = pivot_rows * _inverse_mod(pivot_rows[:, :1], p) % p
        # row rk is cleared here too, then overwritten by the pivot row
        M[sel, :, j:] = (M[sel, :, j:] - M[sel, :, j, None] * pivot_rows[:, None, :]) % p
        M[b, rk, j:] = pivot_rows
        rank[b] += 1
        if rank.min() == r:
            break
    return M, rank


def _as_stack(A, p: int) -> np.ndarray:
    """Integer array of shape (..., r, c) reduced into [0, p) as int64."""
    A = np.asarray(A)
    if A.dtype == object:
        A = A % p
    return A.astype(np.int64) % p


def rref(rows, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p of a matrix given by its rows (a
    list of lists or a 2-d integer array). Returns (nonzero rows, pivot
    columns)."""
    if not len(rows):
        return [], []
    M, rank = _rref_stack(_as_stack(rows, p)[None], p)
    red = M[0, : rank[0]]
    return red.tolist(), (red != 0).argmax(axis=1).tolist() if len(red) else []


def rank_stack(A, p: int) -> np.ndarray:
    """Ranks over F_p of a stack of integer matrices, shape (..., r, c); an
    int64 array of the stack's shape."""
    validate_odd_prime(p)
    M = _as_stack(A, p)
    if M.ndim < 2:
        raise DimensionMismatch("rank_stack needs a stack of matrices")
    batch = M.shape[:-2]
    return _rref_stack(M.reshape((math.prod(batch),) + M.shape[-2:]), p)[1].reshape(batch)


def row_space_rank(rows, p: int) -> int:
    return len(rref(rows, p)[0])


def nullspace(rows, p: int, ncols: int | None = None) -> list[list[int]]:
    """Basis of {x : M x = 0} for the matrix with the given rows (a list of
    lists or a 2-d integer array)."""
    if ncols is None:
        if not len(rows):
            raise ValueError("ncols required for an empty constraint system")
        ncols = len(rows[0])
    red, pivots = rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-red[r][fc]) % p
        basis.append(vec)
    return basis


# -- spec operations --------------------------------------------------


def mat_inverse(A: FpMatrix) -> FpMatrix:
    """Inverse of a square matrix; raises Singular if none exists."""
    if A.rows != A.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n, p = A.rows, A.p
    aug = [list(A.row(i)) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    red, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise Singular("matrix is not invertible")
    return FpMatrix.from_rows([row[n:] for row in red[:n]], p)


def is_invertible(A: FpMatrix) -> bool:
    if A.rows != A.cols:
        return False
    return mat_rank(A) == A.rows


def inverse_stack(A, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of a stack of square integer matrices, shape (..., n, n),
    are invertible over F_p (a bool array of the stack's shape), and their
    inverses (unspecified where singular), from one elimination of [A | I]."""
    validate_odd_prime(p)
    M = _as_stack(A, p)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch("inverse_stack needs a stack of square matrices")
    n = M.shape[-1]
    M = np.concatenate([M, np.broadcast_to(np.eye(n, dtype=np.int64), M.shape)], axis=-1)
    R = _rref_stack(M.reshape((math.prod(M.shape[:-2]), n, 2 * n)), p)[0].reshape(M.shape)
    # the A half of the reduced [A | I] is I if A is invertible, else it ends in a zero row
    return R[..., :n].diagonal(axis1=-2, axis2=-1).all(axis=-1), R[..., n:]


def mat_rank(A: FpMatrix) -> int:
    return row_space_rank(A.to_lists(), A.p)

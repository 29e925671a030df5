"""Exact arithmetic over F_p: polynomials and dense matrices.

Everything in this module is exact integer-residue arithmetic; no floating
point. Matrices are immutable, entries stored row-major as plain ints in
[0, p). p must be an odd prime (validated by trial division, p <= 10**6).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import BothZero, DimensionMismatch, Singular

_PRIME_CACHE: dict[int, bool] = {}


def is_odd_prime(p: int) -> bool:
    if p in _PRIME_CACHE:
        return _PRIME_CACHE[p]
    ok = p >= 3 and p % 2 == 1
    if ok:
        f = 3
        while f * f <= p:
            if p % f == 0:
                ok = False
                break
            f += 2
    _PRIME_CACHE[p] = ok
    return ok


def validate_odd_prime(p: int) -> int:
    if not isinstance(p, int) or p > 10**6 or not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime <= 10**6, got {p!r}")
    return p


class FpPoly:
    """Polynomial over F_p, coefficients lowest degree first, trimmed."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs: Iterable[int], p: int):
        validate_odd_prime(p)
        c = [x % p for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)
        self.p = p

    @classmethod
    def zero(cls, p: int) -> "FpPoly":
        return cls([], p)

    @classmethod
    def one(cls, p: int) -> "FpPoly":
        return cls([1], p)

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is reported as -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, FpPoly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def __add__(self, other: "FpPoly") -> "FpPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return FpPoly([x + y for x, y in zip(a, b)], self.p)

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        if self.is_zero() or other.is_zero():
            return FpPoly.zero(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FpPoly(out, self.p)

    def scale(self, c: int) -> "FpPoly":
        return FpPoly([c * a for a in self.coeffs], self.p)

    def monic(self) -> "FpPoly":
        if self.is_zero():
            return self
        inv = pow(self.coeffs[-1], -1, self.p)
        return self.scale(inv)

    def divmod(self, other: "FpPoly") -> tuple["FpPoly", "FpPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = pow(other.coeffs[-1], -1, p)
        for i in range(len(rem) - len(other.coeffs), -1, -1):
            c = rem[i + len(other.coeffs) - 1] * inv_lead % p
            if c:
                q[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = (rem[i + j] - c * b) % p
        return FpPoly(q, p), FpPoly(rem, p)

    def eval_matrix(self, A: "FpMatrix") -> "FpMatrix":
        acc = FpMatrix.zero(A.rows, A.cols, A.p)
        for a in reversed(self.coeffs):
            acc = acc.mul(A).add(FpMatrix.scalar(A.rows, a, A.p))
        return acc

    def __repr__(self):
        return f"FpPoly({list(self.coeffs)}, p={self.p})"


def poly_gcd(f: FpPoly, g: FpPoly) -> FpPoly:
    """Monic gcd over F_p[t] via the Euclidean algorithm."""
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


def negate_argument(f: FpPoly) -> FpPoly:
    """f(t) -> f(-t): coefficient c_i -> (-1)^i c_i."""
    return FpPoly([(-c if i % 2 else c) for i, c in enumerate(f.coeffs)], f.p)


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

    @classmethod
    def scalar(cls, n: int, c: int, p: int) -> "FpMatrix":
        return cls(n, n, [c if i == j else 0 for i in range(n) for j in range(n)], p)

    @classmethod
    def from_json_obj(cls, obj: Sequence[Sequence[int]], p: int) -> "FpMatrix":
        return cls.from_rows(obj, p)

    def to_json_obj(self) -> list[list[int]]:
        return self.to_lists()

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


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p. Returns (nonzero rows, pivot columns)."""
    mat = [[int(x) % p for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [inv * x % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def row_space_rank(rows: list[list[int]], p: int) -> int:
    return len(rref(rows, p)[0])


def nullspace(rows: list[list[int]], p: int, ncols: int | None = None) -> list[list[int]]:
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    if ncols is None:
        if not rows:
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


def solve_linear(rows: list[list[int]], rhs: list[int], p: int) -> list[int] | None:
    """One solution of M x = rhs over F_p, or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug, p)
    ncols = len(rows[0]) if rows else 0
    for row in red:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[r][ncols]
    return x


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


def invertible_stack(A, p: int) -> np.ndarray:
    """Which matrices of a stack of square integer matrices, shape (..., n, n),
    are invertible over F_p; a bool array of the stack's shape.

    Exact: forward elimination mod p run on the whole stack at once, one
    column at a time, with pivots scaled through the table of inverses mod p.
    """
    validate_odd_prime(p)
    M = np.array(A, dtype=np.int64) % p
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch("invertible_stack needs a stack of square matrices")
    batch, n = M.shape[:-2], M.shape[-1]
    M = M.reshape(math.prod(batch), n, n)
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    stack = np.arange(len(M))
    ok = np.ones(len(M), dtype=bool)
    for j in range(n):
        nonzero = M[:, j:, j] != 0
        ok &= nonzero.any(axis=1)
        # first nonzero entry at or below the diagonal; a singular member keeps
        # row j, whose zero pivot then zeroes the row and leaves the rest alone
        piv = j + nonzero.argmax(axis=1)
        pivot_rows = M[stack, piv]
        M[stack, piv] = M[:, j]
        M[:, j] = pivot_rows * inv[pivot_rows[:, j]][:, None] % p
        M[:, j + 1 :] = (M[:, j + 1 :] - M[:, j + 1 :, j, None] * M[:, None, j]) % p
    return ok.reshape(batch)


def mat_rank(A: FpMatrix) -> int:
    return row_space_rank(A.to_lists(), A.p)


def min_poly(A: FpMatrix) -> FpPoly:
    """Monic polynomial of least degree annihilating A (Krylov dependence search)."""
    if A.rows != A.cols:
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    p = A.p
    power = FpMatrix.identity(A.rows, p)
    basis_rows: list[list[int]] = []
    powers: list[FpMatrix] = []
    while True:
        vec = list(power.flatten())
        coeffs = _express_in_span(basis_rows, vec, p)
        if coeffs is not None:
            # power = sum coeffs[i] * A^i, so t^d - sum coeffs[i] t^i kills A
            d = len(powers)
            poly = [(-c) % p for c in coeffs] + [1]
            return FpPoly(poly, p)
        basis_rows.append(vec)
        powers.append(power)
        power = power.mul(A)


def _express_in_span(span_rows: list[list[int]], vec: list[int], p: int) -> list[int] | None:
    if not span_rows:
        return None if any(vec) else []
    cols = [list(col) for col in zip(*span_rows)]
    return solve_linear(cols, vec, p)


def char_poly(A: FpMatrix) -> FpPoly:
    """Characteristic polynomial det(tI - A) by Leibniz expansion (k <= ~6)."""
    if A.rows != A.cols:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n, p = A.rows, A.p
    acc = FpPoly.zero(p)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = FpPoly([sign % p], p)
        for i in range(n):
            j = perm[i]
            if i == j:
                term = term * FpPoly([(-A[i, j]) % p, 1], p)
            else:
                term = term * FpPoly([(-A[i, j]) % p], p)
        acc = acc + term
    return acc


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign

"""Functions on (F_p^n)^k, symmetrized quadratic factors, and their atoms.

Grid points are k x n matrices over F_p; the dense index encoding is
row-major base p with entry (0, 0) least significant (see _grid). Grid
functions store one value per index, in exact-rational, float, or
complex-float form; conversions between value kinds are always explicit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import DEFAULT_GUARD
from ._grid import decode_index, digit_table, encode_index
from .errors import (
    BadMagic,
    CorruptLength,
    DimensionMismatch,
    NotSymmetric,
    VersionMismatch,
    check_guard,
    ensure,
    float_range_error,
    int_field,
    too_large,
)
from .ffalg import FpMatrix, rank_stack, row_space_rank, rref, validate_odd_prime
from .patterns import SubspaceBasis, coord_index

RATIONAL = "rational"
FLOAT = "float"
COMPLEX = "complex"
_KINDS = (RATIONAL, FLOAT, COMPLEX)


# ---------------------------------------------------------------------------
# Grid points


def grid_size(p: int, k: int, n: int) -> int:
    """p^(kn), the number of k x n points; a negative k or n is a ValueError."""
    if k < 0 or n < 0:
        raise ValueError(f"k and n must be non-negative, got k = {k}, n = {n}")
    return p ** (k * n)


def grid_encode(X: FpMatrix) -> int:
    """Index of a k x n point: digit (i*n + j) is entry (i, j), (0,0) least
    significant. Every file format and report depends on this encoding."""
    return encode_index(X.p, X.entries)


def grid_decode(p: int, k: int, n: int, index: int) -> FpMatrix:
    return FpMatrix(k, n, decode_index(p, k * n, index), p)


@dataclass(frozen=True)
class GridPoint:
    X: FpMatrix
    n: int

    def __post_init__(self):
        if self.X.cols != self.n:
            raise DimensionMismatch("point has wrong number of columns")

    @property
    def index(self) -> int:
        return grid_encode(self.X)


# ---------------------------------------------------------------------------
# Grid functions


class GridFunction:
    """Dense function (F_p^n)^k -> values, indexed by grid_encode."""

    __slots__ = ("p", "k", "n", "values", "kind")

    def __init__(self, p: int, k: int, n: int, values, kind: str, guard: int = DEFAULT_GUARD):
        validate_odd_prime(p)
        if kind not in _KINDS:
            raise ValueError(f"unknown value kind {kind!r}")
        size = grid_size(p, k, n)
        check_guard("p^(kn)", size, guard)
        if kind == RATIONAL:
            arr = np.empty(size, dtype=object)
            # numpy integers as Python ints: Fraction arithmetic on np.int64 wraps
            arr[:] = [Fraction(int(v)) if isinstance(v, np.integer) else Fraction(v) for v in values]
        elif kind == FLOAT:
            arr = np.asarray(values, dtype=np.float64).copy()
        else:
            arr = np.asarray(values, dtype=np.complex128).copy()
        if arr.shape != (size,):
            raise DimensionMismatch(f"need {size} values, got shape {arr.shape}")
        arr.setflags(write=False)
        self.p, self.k, self.n = p, k, n
        self.values = arr
        self.kind = kind

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, p: int, k: int, n: int, value, kind: str = FLOAT, guard: int = DEFAULT_GUARD) -> "GridFunction":
        size = grid_size(p, k, n)
        check_guard("p^(kn)", size, guard)
        return cls(p, k, n, [value] * size, kind, guard=guard)

    @classmethod
    def indicator(cls, p: int, k: int, n: int, indices, kind: str = RATIONAL) -> "GridFunction":
        vals = np.zeros(grid_size(p, k, n), dtype=np.int64)
        vals[np.asarray(list(indices), dtype=np.int64)] = 1
        return cls(p, k, n, vals, kind)

    def with_values(self, values, kind: str | None = None) -> "GridFunction":
        return GridFunction(self.p, self.k, self.n, values, kind or self.kind)

    # -- basics ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def integer_form(self) -> tuple[np.ndarray, int]:
        """Numerators a (an object array of Python ints) and the common
        denominator L = lcm of the denominators, with f = a / L. Rational
        kind only; exact sums over f become integer sums over a."""
        if self.kind != RATIONAL:
            raise ValueError("only rational grid functions have an integer form")
        L = math.lcm(*(v.denominator for v in self.values))
        a = np.empty(self.size, dtype=object)
        a[:] = [v.numerator * (L // v.denominator) for v in self.values]
        return a, L

    def mean(self):
        if self.kind == RATIONAL:
            a, L = self.integer_form()
            return Fraction(a.sum(), L * self.size)
        try:
            if self.kind == FLOAT:
                return math.fsum(self.values) / self.size
            return complex(math.fsum(self.values.real), math.fsum(self.values.imag)) / self.size
        except OverflowError:  # a partial sum passed the float range, so P max|f| did too
            top = float(np.max(np.abs(self.values.view(np.float64))))  # complex values as (Re, Im) pairs
            formula = "p^(kn) max|f|" if self.kind == FLOAT else "p^(kn) max|Re f, Im f|"
            raise float_range_error(formula, math.log10(self.size) + math.log10(top)) from None

    def l2_norm_sq(self):
        if self.kind == RATIONAL:
            a, L = self.integer_form()
            return Fraction((a * a).sum(), L * L * self.size)
        return math.fsum(np.abs(self.values) ** 2) / self.size

    def is_one_bounded(self, tol: float = 1e-12) -> bool:
        if self.kind == RATIONAL:
            return all(abs(v) <= 1 for v in self.values)
        return bool(np.all(np.abs(self.values) <= 1 + tol))

    # -- explicit conversions --------------------------------------------

    def to_float(self) -> "GridFunction":
        return GridFunction(self.p, self.k, self.n, np.array([float(v) for v in self.values]) if self.kind == RATIONAL else self.values.real, FLOAT)

    def to_complex(self) -> "GridFunction":
        return GridFunction(self.p, self.k, self.n, self.values.astype(np.complex128) if self.kind != RATIONAL else np.array([complex(v) for v in self.values]), COMPLEX)


# ---------------------------------------------------------------------------
# Quadratic factors


@dataclass(frozen=True)
class QuadraticFactor:
    """Lists (r_i), (M_i symmetric), (N_j skew) of length-n data defining the
    maps X -> X r_i, X M_i X^T, X N_j X^T on k x n grid points."""

    p: int
    n: int
    b1: tuple[tuple[int, ...], ...]
    b2: tuple[FpMatrix, ...]
    b3: tuple[FpMatrix, ...]

    def __post_init__(self):
        validate_odd_prime(self.p)
        object.__setattr__(self, "b1", tuple(tuple(x % self.p for x in r) for r in self.b1))
        for r in self.b1:
            if len(r) != self.n:
                raise DimensionMismatch("linear part has wrong length")
        for M in self.b2:
            if M.rows != self.n or M.p != self.p or not M.is_symmetric():
                raise NotSymmetric("b2 entries must be symmetric n x n over F_p")
        for N in self.b3:
            if N.rows != self.n or N.p != self.p or not N.is_skew():
                raise NotSymmetric("b3 entries must be skew-symmetric n x n over F_p")

    @property
    def complexity(self) -> tuple[int, int, int]:
        return (len(self.b1), len(self.b2), len(self.b3))

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "b1": [list(r) for r in self.b1],
            "b2": [M.to_lists() for M in self.b2],
            "b3": [N.to_lists() for N in self.b3],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QuadraticFactor":
        p = int_field(obj, "p")
        return cls(
            p,
            int_field(obj, "n"),
            tuple(tuple(r) for r in int_field(obj, "b1", 2)),
            tuple(FpMatrix.from_rows(M, p) for M in int_field(obj, "b2", 3)),
            tuple(FpMatrix.from_rows(N, p) for N in int_field(obj, "b3", 3)),
        )


@dataclass(frozen=True)
class FactorImage:
    b1: tuple[tuple[int, ...], ...]
    b2: tuple[FpMatrix, ...]
    b3: tuple[FpMatrix, ...]


def factor_eval(factor: QuadraticFactor, X: FpMatrix) -> FactorImage:
    """Componentwise image (X r_i, X M_i X^T, X N_j X^T)."""
    if X.cols != factor.n or X.p != factor.p:
        raise DimensionMismatch("point shape does not match the factor")
    Xt = X.transpose()
    b1 = tuple(tuple((X.array @ np.array(r, dtype=np.int64) % factor.p).tolist()) for r in factor.b1)
    b2 = tuple(X.mul(M).mul(Xt) for M in factor.b2)
    b3 = tuple(X.mul(N).mul(Xt) for N in factor.b3)
    ensure(all(M.is_symmetric() for M in b2), "factor_eval: X M X^T is not symmetric")
    ensure(all(N.is_skew() for N in b3), "factor_eval: X N X^T is not skew-symmetric")
    return FactorImage(b1, b2, b3)


def factor_image_coords(factor: QuadraticFactor, k: int) -> np.ndarray:
    """Canonical image coordinates for every grid index; shape (P, ncoords).

    Coordinates: all k entries of each X r_i, then the entries of each
    X M_i X^T and each X N_j X^T in patterns.coord_index order.
    """
    p, n = factor.p, factor.n
    P = grid_size(p, k, n)
    X = digit_table(p, k * n).reshape(P, k, n)
    cols = [np.zeros((P, 0), dtype=np.int64)] + [(X @ np.asarray(r, dtype=np.int64)) % p for r in factor.b1]
    for kind, mats in (("symmetric", factor.b2), ("skew", factor.b3)):
        i, j = np.array(coord_index(k, kind), dtype=np.int64).reshape(-1, 2).T
        for M in mats:
            cols.append(np.einsum("xan,nm,xbm->xab", X, M.array, X)[:, i, j] % p)
    return np.concatenate(cols, axis=1)


def atom_images(factor: QuadraticFactor, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Atom id per grid index, and the image coordinates of each atom, shape
    (atoms, ncoords): the distinct rows of factor_image_coords in
    lexicographic order, so that atom ids rank the images."""
    atoms, ids = np.unique(factor_image_coords(factor, k), axis=0, return_inverse=True)
    return ids, atoms


def factor_rank(factor: QuadraticFactor, guard: int = 10**7) -> int:
    """Largest r with the linear parts independent and every nontrivial
    combination of the quadratic parts of rank >= r; 0 if the linear part is
    dependent, n if there are no quadratic parts."""
    p, n = factor.p, factor.n
    d1, d2, d3 = factor.complexity
    if d1 and row_space_rank(factor.b1, p) < d1:
        return 0
    if d2 + d3 == 0:
        return n
    check_guard("p^(d2+d3)", p ** (d2 + d3), guard)
    mats = np.array([M.array for M in (*factor.b2, *factor.b3)])
    coeffs = digit_table(p, d2 + d3)[1:]  # every nontrivial combination
    chunk = max(1, 2**18 // max(n, 1) ** 2)  # matrices ranked per stacked elimination
    best = n
    for start in range(0, len(coeffs), chunk):
        combos = np.einsum("cd,dij->cij", coeffs[start:start + chunk], mats) % p
        best = min(best, int(rank_stack(combos, p).min()))
        if best == 0:
            break
    return best


def conditional_expectation(f: GridFunction, factor: QuadraticFactor) -> GridFunction:
    """Projection of f onto the atoms of the factor: constant on each fiber
    of the image map, mean preserved exactly (rational kind) or to float
    accuracy."""
    if f.kind == COMPLEX:
        raise ValueError("conditional expectation is defined for rational or float values")
    atom, atoms = atom_images(factor, f.k)
    sizes = np.bincount(atom, minlength=len(atoms))
    if f.kind == RATIONAL:
        a, L = f.integer_form()
        sums = np.zeros(len(atoms), dtype=object)
        np.add.at(sums, atom, a)
        means = [Fraction(s, L * int(c)) for s, c in zip(sums, sizes)]
        return f.with_values([means[i] for i in atom])
    sums = np.bincount(atom, weights=f.values, minlength=len(atoms))
    return f.with_values(sums[atom] / sizes[atom])


# ---------------------------------------------------------------------------
# The linear-kernel subspace H


def linear_kernel_H(factor: QuadraticFactor, k: int) -> dict:
    """H = {D in (F_p^n)^k : D r_i = 0 for all i}, as an exact indicator,
    together with the annihilator characters spanning H-perp."""
    p, n = factor.p, factor.n
    red, _ = rref(factor.b1, p)
    rank = len(red)
    P = grid_size(p, k, n)
    member = np.all(h_coset_labels(factor, k) == 0, axis=1)
    indicator = GridFunction(p, k, n, member.astype(np.int64), RATIONAL)
    # H-perp inside F_p^{kn}: basis vector (i, a) is e_a tensored with r_i, [i, a, b, j] = delta_ab r_i[j]
    basis = np.einsum("ab,ij->iabj", np.eye(k, dtype=np.int64), red.reshape(rank, n)).reshape(rank * k, k * n)
    h_perp = SubspaceBasis(p, k * n, basis, "grid-characters")
    density = Fraction(int(member.sum()), P)
    ensure(density == Fraction(1, p ** (k * rank)), f"linear_kernel_H: density {density} != p^-(k rank)")
    return {"H": indicator, "H_perp": h_perp, "density": density, "rank": rank}


def h_coset_labels(factor: QuadraticFactor, k: int) -> np.ndarray:
    """Coset label of each grid index for the subgroup H (values of D r_i)."""
    p, n = factor.p, factor.n
    P = grid_size(p, k, n)
    if not factor.b1:
        return np.zeros((P, 1), dtype=np.int64)
    X = digit_table(p, k * n).reshape(P, k, n)
    R = np.array([list(r) for r in factor.b1], dtype=np.int64).T
    return (np.einsum("xan,nd->xad", X, R) % p).reshape(P, -1)


# ---------------------------------------------------------------------------
# Phase functions


def _check_phase(r: Sequence[int], M: FpMatrix, p: int, k: int, n: int) -> None:
    """The data of a phase e_p(r^T x + x^T M x) on (F_p^n)^k: M symmetric kn x kn over F_p, r of length kn."""
    if M.array.shape != (k * n, k * n) or M.p != p:
        raise DimensionMismatch("M must be kn x kn over F_p")
    if not M.is_symmetric():
        raise NotSymmetric("phase matrix must be symmetric")
    if len(r) != k * n:
        raise DimensionMismatch("r must have length kn")


def phase_function(r: Sequence[int], M: FpMatrix, p: int, k: int, n: int) -> GridFunction:
    """g(x) = e_p(r^T x + x^T M x) on the kn-flattening of the grid."""
    _check_phase(r, M, p, k, n)
    digits = digit_table(p, k * n)
    rv = np.asarray([x % p for x in r], dtype=np.int64)
    t = (digits @ rv + np.einsum("xi,ij,xj->x", digits, M.array, digits)) % p
    vals = np.exp(2j * np.pi * t / p)
    return GridFunction(p, k, n, vals, COMPLEX)


def block_factor_from_phase(r: Sequence[int], M: FpMatrix, k: int, n: int) -> QuadraticFactor:
    """The factor on whose atoms the phase function is constant: the n-blocks
    of r, the diagonal blocks and symmetrized off-diagonal blocks of M, and
    the skew parts of the off-diagonal blocks."""
    p = M.p
    _check_phase(r, M, p, k, n)
    inv2 = pow(2, -1, p)
    b1 = tuple(tuple(r[i * n + j] % p for j in range(n)) for i in range(k))
    blocks = M.array.reshape(k, n, k, n)  # block (i, j) is blocks[i, :, j]
    b2 = [FpMatrix.from_rows(blocks[i, :, i], p) for i in range(k)]
    b3 = []
    for i in range(k):
        for j in range(i + 1, k):
            Mij = FpMatrix.from_rows(blocks[i, :, j], p)
            b2.append(Mij.add(Mij.transpose()).scale_by(inv2))
            b3.append(Mij.sub(Mij.transpose()).scale_by(inv2))
    b3 = [N for N in b3 if N.array.any()]
    b2 = [S for S in b2 if S.array.any()]
    return QuadraticFactor(p, n, b1, tuple(b2), tuple(b3))


# ---------------------------------------------------------------------------
# PLGF grid-function files

_MAGIC = b"PLGF"
_VERSION = 1
_KIND_CODE = {RATIONAL: 0, FLOAT: 1, COMPLEX: 2}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


def write_grid_function(f: GridFunction, path) -> None:
    """Binary format: magic 'PLGF', version byte, p/k/n uint32 LE, kind byte,
    then the dense payload (rationals as int64 numerator/denominator pairs,
    floats as float64, complex as float64 pairs)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", _VERSION))
        fh.write(struct.pack("<III", f.p, f.k, f.n))
        fh.write(struct.pack("<B", _KIND_CODE[f.kind]))
        if f.kind == RATIONAL:
            out = np.empty(2 * f.size, dtype="<i8")
            for i, v in enumerate(f.values):
                if not (-(2**63) <= v.numerator < 2**63 and v.denominator < 2**63):
                    raise OverflowError("rational value does not fit int64 pairs")
                out[2 * i] = v.numerator
                out[2 * i + 1] = v.denominator
            fh.write(out.tobytes())
        elif f.kind == FLOAT:
            fh.write(f.values.astype("<f8").tobytes())
        else:
            inter = np.empty(2 * f.size, dtype="<f8")
            inter[0::2] = f.values.real
            inter[1::2] = f.values.imag
            fh.write(inter.tobytes())


def read_grid_function(path) -> GridFunction:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise BadMagic(f"expected PLGF magic, got {blob[:4]!r}")
    if len(blob) < 18:
        raise CorruptLength("truncated header")
    version = blob[4]
    if version != _VERSION:
        raise VersionMismatch(f"unsupported version {version}")
    p, k, n = struct.unpack("<III", blob[5:17])
    kind_code = blob[17]
    if kind_code not in _CODE_KIND:
        raise VersionMismatch(f"unknown value kind byte {kind_code}")
    kind = _CODE_KIND[kind_code]
    validate_odd_prime(p)
    # bound the exponent before computing p^(kn), which could take unbounded time
    if k * n * math.log(p) > math.log(DEFAULT_GUARD) + 1e-9:
        raise too_large("p^(kn)", f"{p}^{k * n}", DEFAULT_GUARD)
    size = p ** (k * n)
    payload = blob[18:]
    unit = {RATIONAL: 16, FLOAT: 8, COMPLEX: 16}[kind]
    if len(payload) != unit * size:
        raise CorruptLength(f"payload is {len(payload)} bytes, expected {unit * size}")
    if kind == RATIONAL:
        raw = np.frombuffer(payload, dtype="<i8")
        zero = np.flatnonzero(raw[1::2] == 0)
        if len(zero):
            raise CorruptLength(f"rational value {zero[0]} has denominator 0")
        vals = [Fraction(a, b) for a, b in zip(raw[0::2].tolist(), raw[1::2].tolist())]
    else:
        raw = np.frombuffer(payload, dtype="<f8")
        bad = np.flatnonzero(~np.isfinite(raw))
        if len(bad):  # a complex value is two floats
            raise CorruptLength(f"{kind} value {bad[0] // (unit // 8)} is {raw[bad[0]]}, not finite")
        vals = raw if kind == FLOAT else raw[0::2] + 1j * raw[1::2]
    return GridFunction(p, k, n, vals, kind)

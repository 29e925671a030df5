"""Functions on (F_p^n)^k and their PLGF files.

Grid points are k x n matrices over F_p; the dense index encoding is
row-major base p with entry (0, 0) least significant (see _grid). Grid
functions store one value per index, in exact-rational, float, or
complex-float form; conversions between value kinds are always explicit.
Quadratic factors and their atoms live in equidist.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np

from . import DEFAULT_GUARD
from ._grid import decode_index, encode_index
from .errors import (
    BadMagic,
    CorruptLength,
    DimensionMismatch,
    VersionMismatch,
    check_guard,
    float_range_error,
    too_large,
)
from .ffalg import FpMatrix, validate_odd_prime

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

"""Gowers norms, pattern counting and popular-difference search for
four-point matrix patterns, and the report types of the counts and of the
equidistribution histograms (which equidist measures).

Counting has two backends: exact rationals (verification) and float64
(sweeps); reports name the backend used. Equidistribution deviations are
multiplicative: max over observed cells of |observed/predicted - 1|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import DEFAULT_GUARD
from ._grid import Translates, add_table, decode_digits, dft, encode_digits, encode_index, linear_digits, pack_rows, shift_blocks
from ._grid import linear_perm  # not called here: perfbench/test_perfbench.py reads analysis.linear_perm
from .errors import FLOAT_MAX, DimensionMismatch, check_guard, finite, float_range_error
from .ffalg import FpMatrix
from .gridfn import COMPLEX, FLOAT, RATIONAL, GridFunction
from .patterns import PatternSpec

FLOAT_SLACK = 1e-9  # documented slack for float-mode threshold comparisons
CHUNK_BYTES = 2**18  # bytes of translates (packed words or values) per block of differences; on packed Z_10007 rows 2^16 ran 1.6x and 2^14 5x slower


# ---------------------------------------------------------------------------
# Reports


@dataclass
class PatternCountReport:
    alpha: object
    counts: dict[int, object]
    max_d: object
    argmax_d: int
    threshold: object
    threshold_hits: int
    points: int
    epsilon: float
    backend: str

    def to_json_obj(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta_max": self.max_d,
            "max_d": self.max_d,
            "argmax": self.argmax_d,
            "threshold": self.threshold,
            "hits": self.threshold_hits,
            "points": self.points,
            "eps": self.epsilon,
            "backend": self.backend,
        }


@dataclass
class EquidistributionReport:
    support_ok: bool
    predicted_cell_probability: Fraction
    max_multiplicative_deviation: float
    cells_observed: int
    predicted_support_size: int
    support_equal: bool
    prediction_reliable: bool = True
    extras: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "support_ok": self.support_ok,
            "support_equal": self.support_equal,
            "predicted_cell_probability": self.predicted_cell_probability,
            "max_multiplicative_deviation": self.max_multiplicative_deviation,
            "cells_observed": self.cells_observed,
            "predicted_support_size": self.predicted_support_size,
            "prediction_reliable": self.prediction_reliable,
            **self.extras,
        }

    @classmethod
    def from_counts(cls, counts: np.ndarray, total: int, p: int, dim: int, support_ok: bool = True,
                    **fields) -> "EquidistributionReport":
        """The report of a histogram (one count per observed cell, out of total)
        whose predicted support is p^dim equally likely cells."""
        predicted = Fraction(1, p**dim)
        deviation = float(np.max(np.abs(counts / total / float(predicted) - 1.0))) if len(counts) else 0.0
        return cls(
            support_ok=support_ok,
            predicted_cell_probability=predicted,
            max_multiplicative_deviation=deviation,
            cells_observed=len(counts),
            predicted_support_size=p**dim,
            support_equal=support_ok and len(counts) == p**dim,
            **fields,
        )


# ---------------------------------------------------------------------------
# Shift helpers


def translate(f: GridFunction, shift: FpMatrix) -> np.ndarray:
    """Array of f(X + shift) indexed by X; the k x n shift's row-major entries are its digits."""
    return Translates(f.values, f.p, f.k * f.n).block([encode_index(f.p, shift.entries)])[0]


# ---------------------------------------------------------------------------
# Counting


def _pattern_mats(f: GridFunction, spec: PatternSpec, points: int) -> list:
    """Validate f against the pattern; return the shift matrices M1, M2
    [, M1 + M2] as int64 arrays."""
    if points not in (3, 4):
        raise ValueError("points must be 3 or 4")
    if f.p != spec.p:
        raise DimensionMismatch("function and pattern moduli differ")
    if f.k != spec.k:
        raise DimensionMismatch(f"function has k = {f.k}, pattern has k = {spec.k}")
    if f.kind == COMPLEX:
        raise ValueError("pattern counts need a rational or float function")
    top = float(np.max(np.abs(f.values))) if f.kind == FLOAT else 0.0
    log_sum = math.log10(f.size) + points * math.log10(top) if 0 < top < math.inf else -math.inf
    if log_sum > math.log10(FLOAT_MAX):  # a finite sum could overflow (or fsum raise); inf and nan keep their bits
        raise float_range_error(f"p^(kn) max|f|^{points}", log_sum)
    mats = [spec.M1, spec.M2] + ([spec.M1.add(spec.M2)] if points == 4 else [])
    return [M.array for M in mats]


def pattern_sums(v: np.ndarray, p: int, m: int, shifts: list, guard: int = DEFAULT_GUARD) -> list:
    """Raw sums S(d) = sum_x v(x) prod_i v(x + s_i(d)) over (Z/pZ)^m for each
    of the D shift indices s_i(d), one array in shifts per later point.

    For an object array v of Python ints S(d) is exact: summed in int64 while
    max|v|^points P < 2^62, in Python ints otherwise. For a float v S(d) is
    the correctly rounded sum of the float64 products: their int64 sum when
    all values are finite integers with max|v|^points < 2^53 (exact products)
    and max|v|^points P < 2^62, math.fsum of each row otherwise. A block of
    0/1 translates is read as bits, 64 points to a uint64 word
    (Translates.packed): v's packed words, whose bits past P are zero, are
    ANDed with each translate's and popcounted, and the counts summed in int64.
    Other blocks are multiplied left to right, integers in int64. Each
    translate is one window of the row table of a Translates, whose
    (2p - 1) p^(2m - 2) entries are built only within both guard and the
    points D P reads; past that a block of translates is one gather."""
    points, exact, P, D = len(shifts) + 1, v.dtype == object, len(v), len(shifts[0])
    if exact:
        bound = max(abs(x) for x in v) ** points
    else:
        bound = 2**62
        if np.all(np.isfinite(v)) and np.all(v == np.round(v)) and int(np.max(np.abs(v))) ** points < 2**53:
            bound = int(np.max(np.abs(v))) ** points
    fits = bound * P < 2**62
    if fits:
        v = v.astype(bool if bound <= 1 and v.min() >= 0 else np.int64)
    tr = Translates(v, p, m, min(guard, points * D * P))
    if v.dtype == bool:
        base, rows, combine = pack_rows(v[None]), tr.packed, np.bitwise_and
        total = lambda prod: np.bitwise_count(prod).sum(axis=1, dtype=np.int64)
    else:
        base, rows, combine = tr.base, tr.rows, np.multiply
        if exact or fits:
            total = lambda prod: prod.sum(axis=1, dtype=np.int64 if fits else object)
        else:
            total = lambda prod: np.array([math.fsum(row) for row in prod.tolist()])
    step = max(1, CHUNK_BYTES // base.nbytes)
    sums = []
    with np.errstate(invalid="ignore"):  # inf * 0 is nan; finite overflow still warns
        for start in range(0, D, step):
            prod = combine(base, rows(shifts[0][start:start + step]))
            for S in shifts[1:]:
                combine(prod, rows(S[start:start + step]), out=prod)
            sums.append(total(prod))
    return np.concatenate(sums).astype(object if exact else np.float64).tolist()


def _pattern_sums(f: GridFunction, mats: list, d_indices, guard: int = DEFAULT_GUARD) -> tuple[list, int]:
    """pattern_sums of f at the difference indices, shifted by T_i D for the
    k x k int64 arrays T_i in mats, and the denominator den of the averages
    S(d) / (den P): L^points for the integer form a / L of a rational f, else 1."""
    p, k, n = f.p, f.k, f.n
    D = decode_digits(p, k * n, d_indices)
    shifts = [encode_digits(linear_digits(p, k, n, M, D), p) for M in mats]
    if f.kind == RATIONAL:
        v, L = f.integer_form()
        return pattern_sums(v, p, k * n, shifts, guard), L ** (len(mats) + 1)
    return pattern_sums(f.values, p, k * n, shifts, guard), 1


def pattern_count(f: GridFunction, spec: PatternSpec, d: int, points: int = 4):
    """Average over X of f(X) f(X+M1 D) f(X+M2 D) [f(X+(M1+M2) D)] for the
    difference D of index d."""
    mats = _pattern_mats(f, spec, points)
    if not 0 <= int(d) < f.size:
        raise DimensionMismatch(f"difference index {d} outside [0, {f.size})")
    (s,), den = _pattern_sums(f, mats, [int(d)])
    return Fraction(s, den * f.size) if f.kind == RATIONAL else s / f.size


def popular_search(
    f: GridFunction,
    spec: PatternSpec,
    epsilon: float,
    points: int = 4,
    guard: int = DEFAULT_GUARD,
) -> PatternCountReport:
    """Exhaustive popular-difference report over every difference D.

    Threshold alpha^points - epsilon; the argmax over nonzero D breaks ties
    toward the smallest encoded index. Exact backend compares with strict >=;
    float backend allows the documented 1e-9 slack.
    """
    mats = _pattern_mats(f, spec, points)
    P = f.size
    check_guard("p^(2kn)", P * P, guard)
    finite("epsilon", epsilon)
    alpha = f.mean()
    exact = f.kind == RATIONAL
    threshold = alpha**points - (Fraction(epsilon).limit_denominator(10**9) if exact else epsilon)
    sums, den = _pattern_sums(f, mats, range(P), guard)
    betas = [Fraction(s, den * P) for s in sums] if exact else [s / P for s in sums]
    return popular_report(betas, alpha, threshold, points, epsilon, exact)


def popular_report(betas: list, alpha, threshold, points: int, epsilon: float, exact: bool) -> PatternCountReport:
    """The popular-difference report of the densities betas[d] at every
    difference index d. Hits count the nonzero d with beta >= threshold
    (exact) or beta >= threshold - FLOAT_SLACK (float); the argmax over
    nonzero d breaks ties toward the smallest index."""
    floor = threshold if exact else threshold - FLOAT_SLACK
    hits, best_val, best_idx = 0, None, -1
    for d in range(1, len(betas)):
        beta = betas[d]
        if beta >= floor:
            hits += 1
        if best_val is None or beta > best_val:
            best_val, best_idx = beta, d
    return PatternCountReport(
        alpha=alpha,
        counts=dict(enumerate(betas)),
        max_d=best_val,
        argmax_d=best_idx,
        threshold=threshold,
        threshold_hits=hits,
        points=points,
        epsilon=float(epsilon),
        backend="exact" if exact else "float",
    )


# ---------------------------------------------------------------------------
# Gowers norms


def gowers_norm(f: GridFunction, s: int, mode: str = "recursive", guard: int = DEFAULT_GUARD) -> float:
    """Gowers U^s norm of f on the full group F_p^{kn}; U^1 is |mean|.

    mode='recursive' averages the 2^{s-1}-th power of the U^{s-1} norm of
    the multiplicative derivatives f(x) conj(f(x + h)) over h, down to U^2,
    whose fourth power is sum_xi |f^(xi)|^4 with f^(xi) = E_x f(x) e(-x.xi/p).
    Each level reads its derivatives in blocks of about 2^14 / p^{kn} shifts,
    one window gather each (Translates.block), and sums them shift by shift in
    order: the U^3 level runs one FFT per block, a higher level recurses on
    each row (p^{(s-1)kn} (shift tuple, point) entries, guarded).
    mode='direct' evaluates the expanded 2^s-fold correlation (p^{(s+1)kn}
    work, guarded) and is the reference for the recursion.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    p, m = f.p, f.k * f.n
    vals = f.values.astype(np.complex128) if f.kind != COMPLEX else f.values
    if mode == "recursive":
        check_guard("p^((s-1)kn)", f.size ** (s - 1), guard)
        power = _gowers_power_recursive(vals, p, m, s, guard)
    elif mode == "direct":
        check_guard("p^((s+1)kn)", f.size ** (s + 1), guard)
        power = _gowers_power_direct(vals, p, m, s, guard)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    power = max(power.real if isinstance(power, complex) else power, 0.0)
    return power ** (1.0 / 2**s)


def _gowers_power_recursive(vals: np.ndarray, p: int, m: int, s: int, guard: int) -> float:
    if s == 1:
        return abs(vals.mean()) ** 2
    if s == 2:
        return float(np.sum(np.abs(dft(vals, p, m) / len(vals)) ** 4))
    P, tr, total = len(vals), Translates(vals, p, m, guard), 0.0
    for shifts in shift_blocks(P, P):
        # vals as a (1, P) row: at P = 1 a (1,) operand takes numpy's scalar loop, a bit off the per-shift product
        block = vals[None, :] * np.conj(tr.block(np.arange(shifts.start, shifts.stop)))
        if s > 3:
            powers = [_gowers_power_recursive(deriv, p, m, s - 1, guard) for deriv in block]
        else:  # the U^2 level: each shift's sum of |F/P|^4 runs along one contiguous row, as a 1-d sum does
            powers = np.sum(np.abs(dft(block.T, p, m).T / P) ** 4, axis=1).tolist()
        for power in powers:
            total += power
    return total / P


def _gowers_power_direct(vals: np.ndarray, p: int, m: int, s: int, guard: int) -> float:
    P = p**m
    shifted = Translates(vals, p, m, guard).rows(np.arange(P))
    add = add_table(p, m)
    total = 0.0
    for h_tuple in itertools.product(range(P), repeat=s):
        prod = np.ones(P, dtype=np.complex128)
        for omega in itertools.product((0, 1), repeat=s):
            shift = 0
            for w, h in zip(omega, h_tuple):
                if w:
                    shift = add[shift, h]
            term = shifted[shift]
            if sum(omega) % 2:
                term = np.conj(term)
            prod = prod * term
        total += prod.mean().real
    return total / P**s

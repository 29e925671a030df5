"""Gowers norms, pattern counting, popular-difference search, and exhaustive
equidistribution measurements for four-point matrix patterns.

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
from ._grid import Translates, add_table, decode_digits, dft, digit_table, encode_digits, encode_index, linear_digits, linear_perm, pack_rows
from .errors import FLOAT_MAX, DimensionMismatch, NotAutomorphism, NotMeasurable, TooLarge, check_guard, finite, float_range_error
from .ffalg import FpMatrix, is_invertible, row_space_rank
from .gridfn import (
    COMPLEX,
    FLOAT,
    RATIONAL,
    GridFunction,
    GridPoint,
    QuadraticFactor,
    atom_images,
    conditional_expectation,
    grid_size,
    h_coset_labels,
)
from .patterns import (
    PatternSpec,
    check_spectral,
    constraint_spaces,
    coord_index,
    matrix_basis,
    matrix_tuple_ambient,
    orth_complement,
    vector_tuple_ambient,
)

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
    return Translates(f.values, f.p, f.k * f.n).at(encode_index(f.p, shift.entries))


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


def pattern_count(f: GridFunction, spec: PatternSpec, d, points: int = 4):
    """Average over X of f(X) f(X+M1 D) f(X+M2 D) [f(X+(M1+M2) D)]."""
    mats = _pattern_mats(f, spec, points)
    if isinstance(d, (FpMatrix, GridPoint)):
        D = d.X if isinstance(d, GridPoint) else d
        if D.rows != spec.k or D.cols != f.n:
            raise DimensionMismatch("difference has wrong shape")
        d = encode_index(f.p, D.entries)
    elif not 0 <= int(d) < f.size:
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
    whose fourth power is sum_xi |f^(xi)|^4 with f^(xi) = E_x f(x) e(-x.xi/p)
    (one FFT per block of about 2^14 / p^{kn} derivatives, summed shift by
    shift in order; p^{(s-1)kn} (shift tuple, point) entries, guarded).
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
    if s > 3:
        for h in range(P):
            total += _gowers_power_recursive(vals * np.conj(tr.at(h)), p, m, s - 1, guard)
        return total / P
    # the U^2 level per block of shifts: each shift's sum of |F/P|^4 runs along one contiguous row, as a 1-d sum does
    step = max(1, 2**14 // P)
    for start in range(0, P, step):
        # vals as a (1, P) row: at P = 1 a (1,) operand takes numpy's scalar loop, a bit off the per-shift product
        block = vals[None, :] * np.conj(tr.block(np.arange(start, min(start + step, P))))
        for power in np.sum(np.abs(dft(block.T, p, m).T / P) ** 4, axis=1).tolist():
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


# ---------------------------------------------------------------------------
# Generalized von Neumann


def von_neumann_check(fs: list[GridFunction], autos: list[FpMatrix], slack: float = FLOAT_SLACK) -> dict:
    """lhs = |E_{X,D} prod f_i(X + A_i D)| against min_i ||f_i||_{U^{s-1}}."""
    s = len(fs)
    if s < 2 or len(autos) != s:
        raise ValueError("need s >= 2 functions with one automorphism each")
    base = fs[0]
    for f in fs:
        if (f.p, f.k, f.n) != (base.p, base.k, base.n):
            raise DimensionMismatch("functions live on different grids")
        if not f.is_one_bounded():
            raise ValueError("functions must be 1-bounded")
    for A in autos:
        if not is_invertible(A):
            raise NotAutomorphism("each A_i must be invertible")
    for A, B in itertools.combinations(autos, 2):
        if not is_invertible(A.sub(B)):
            raise NotAutomorphism("each A_i - A_j must be invertible")
    p, k, n = base.p, base.k, base.n
    P = grid_size(p, k, n)
    trs = [Translates(f.values.astype(np.complex128), p, k * n) for f in fs]
    shifts = [linear_perm(p, k, n, A.array) for A in autos]
    acc = 0.0 + 0.0j
    for d_idx in range(P):
        prod = np.ones(P, dtype=np.complex128)
        for tr, S in zip(trs, shifts):
            prod = prod * tr.at(S[d_idx])
        acc += prod.mean()
    lhs = abs(acc / P)
    rhs = min(gowers_norm(f, s - 1) for f in fs)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + slack, "slack": slack}


# ---------------------------------------------------------------------------
# Equidistribution reports


def linear_quadratic_distribution(
    Gamma: list, Phi: list[FpMatrix], n: int, p: int, guard: int = DEFAULT_GUARD
) -> EquidistributionReport:
    """Exact joint histogram of (r_i^T x)_i and (x^T M_i x)_i over F_p^n: the
    atoms of the k = 1 factor with linear part Gamma and quadratic part Phi."""
    check_guard("p^n", p**n, guard)
    if not all(M.is_symmetric() for M in Phi):
        raise DimensionMismatch("Phi entries must be symmetric")
    return factor_image_distribution(QuadraticFactor(p, n, tuple(tuple(r) for r in Gamma), tuple(Phi), ()), 1, guard)


def factor_image_distribution(factor: QuadraticFactor, k: int, guard: int = DEFAULT_GUARD) -> EquidistributionReport:
    """Histogram of the factor image map over all grid points (atom sizes)."""
    p, n = factor.p, factor.n
    check_guard("p^(kn)", p ** (k * n), guard)
    ids, atoms = atom_images(factor, k)
    # every linear image X b1^T lies in a space of dimension k rank(b1), so support_ok holds
    d1 = row_space_rank(factor.b1, p)
    dim = sum(width * d for width, d in zip(_widths(k).values(), (d1, *factor.complexity[1:])))
    return EquidistributionReport.from_counts(np.bincount(ids, minlength=len(atoms)), len(ids), p, dim)


def _widths(k: int) -> dict[str, int]:
    """Coordinates of factor_image_coords per entry of factor.b1, b2 and b3, by kind."""
    return {"linear": k, "symmetric": len(coord_index(k, "symmetric")), "skew": len(coord_index(k, "skew"))}


def _family_slices(factor: QuadraticFactor, k: int) -> list[tuple[str, slice]]:
    """Coordinate slices of factor_image_coords by family entry, with the entry's kind."""
    width = _widths(k)
    kinds = [kind for kind, d in zip(width, factor.complexity) for _ in range(d)]
    ends = itertools.accumulate(width[kind] for kind in kinds)
    return [(kind, slice(end - width[kind], end)) for kind, end in zip(kinds, ends)]


def _expand_matrix_coords(cols: np.ndarray, k: int, p: int, kind: str) -> np.ndarray:
    """Expand the packed matrix coordinates of the 4 slots, shape (cells, 4,
    packed), into full k x k flattenings, shape (cells, 4 k^2): coordinates
    are coefficients on patterns.matrix_basis."""
    return (cols @ matrix_basis(k, p, kind).reshape(-1, k * k) % p).reshape(len(cols), 4 * k * k)


def pattern_tuple_distribution(
    factor: QuadraticFactor,
    J: FpMatrix,
    restrict_to_H: bool = False,
    guard: int = DEFAULT_GUARD,
) -> EquidistributionReport:
    """Exact joint histogram of the factor images along the pattern
    (X, X+D, X+JD, X+(I+J)D) over all (X, D), with D restricted to the
    linear-kernel subspace H when requested.

    The observed support is checked exactly against Psi^{d1} x (Lambda-perp)^{d2}
    x (LambdaPrime-perp)^{d3} (diagonal b1 blocks under the H restriction).
    When J fails the spectral gate the report is still produced with
    prediction_reliable=False and the observed support dimension recorded.
    """
    cells, counts, total = pattern_tuple_histogram(factor, J, restrict_to_H, guard)
    return pattern_tuple_report(factor, J, restrict_to_H, cells, counts, total)


def pattern_tuple_histogram(
    factor: QuadraticFactor, J: FpMatrix, restrict_to_H: bool = False, guard: int = DEFAULT_GUARD
) -> tuple[np.ndarray, np.ndarray, int]:
    """The cells of the pattern-tuple histogram in lexicographic order, as a
    (cells, 4, ncoords) array of slot images; their counts; and the number of
    (X, D) pairs counted.

    A cell is its four slot atom ids folded into one int64, first slot most
    significant. Atom ids rank the images, so code order is cell order. One
    1-d unique per difference, then one merge over all of them."""
    p, n = factor.p, factor.n
    k = J.rows
    P = grid_size(p, k, n)
    check_guard("p^(2kn)", P * P, guard)
    ids, atoms = atom_images(factor, k)
    A = len(atoms)
    if A**4 >= 2**63:
        raise TooLarge(f"atoms^4 = {A**4} exceeds the int64 code limit 2^63 = {2**63}")
    if restrict_to_H:
        d_indices = np.nonzero(np.all(h_coset_labels(factor, k) == 0, axis=1))[0]
    else:
        d_indices = np.arange(P)
    tr = Translates(ids, p, k * n, guard)
    jperm = linear_perm(p, k, n, J.array)
    ijperm = linear_perm(p, k, n, np.eye(k, dtype=np.int64) + J.array)
    per_d = []
    for d in d_indices:
        code = tr.base
        for e in (d, jperm[d], ijperm[d]):
            code = code * A + tr.at(e)
        per_d.append(np.unique(code, return_counts=True))
    codes, inverse = np.unique(np.concatenate([c for c, _ in per_d]), return_inverse=True)
    # float64 weights sum exactly: no count exceeds P^2, far below 2^53
    counts = np.bincount(inverse, weights=np.concatenate([m for _, m in per_d])).astype(np.int64)
    return atoms[codes[:, None] // A ** np.arange(3, -1, -1) % A], counts, P * len(d_indices)


def pattern_tuple_report(
    factor: QuadraticFactor, J: FpMatrix, restrict_to_H: bool, cells: np.ndarray, counts: np.ndarray, total: int
) -> EquidistributionReport:
    """The pattern_tuple_distribution report of a pattern_tuple_histogram."""
    p, k = factor.p, J.rows
    _, d2, d3 = factor.complexity
    d1 = row_space_rank(factor.b1, p)  # dependent rows of b1 add no dimension
    I = FpMatrix.identity(k, p)
    spaces = constraint_spaces(J)
    sym_amb = matrix_tuple_ambient(p, k, 4, "symmetric")
    skew_amb = matrix_tuple_ambient(p, k, 4, "skew")
    lam_perp = orth_complement(spaces["Lambda"], sym_amb)
    lamp_perp = orth_complement(spaces["LambdaPrime"], skew_amb)
    psi = spaces["Psi"]
    psi_perp = orth_complement(psi, vector_tuple_ambient(p, k, 4))

    spectral_ok = is_invertible(J) and check_spectral(PatternSpec(p, k, I, J))
    reliable = spectral_ok and is_invertible(I.add(J)) and is_invertible(I.sub(J))

    # membership vectorized: a tuple of images lies in the predicted space iff
    # it pairs to zero with every generator of the dual space
    support_ok = True
    quad_mats = []
    for kind, sl in _family_slices(factor, k):
        cols = cells[:, :, sl]
        if kind == "linear":
            if restrict_to_H:
                support_ok &= bool(np.all(cols == cols[:, :1]))
            elif psi_perp.dim:
                support_ok &= bool(np.all(cols.reshape(len(cols), -1) @ psi_perp.array.T % p == 0))
        else:
            full = _expand_matrix_coords(cols, k, p, kind)
            space = spaces["Lambda"] if kind == "symmetric" else spaces["LambdaPrime"]
            if kind == "symmetric":
                quad_mats.append(full)
            if space.dim:
                support_ok &= bool(np.all(full @ space.array.T % p == 0))

    if restrict_to_H:
        support_dim = k * d1 + lam_perp.dim * d2 + lamp_perp.dim * d3
    else:
        support_dim = psi.dim * d1 + lam_perp.dim * d2 + lamp_perp.dim * d3
    observed_quad_dim = row_space_rank(np.concatenate(quad_mats, axis=0), p) if quad_mats else 0
    return EquidistributionReport.from_counts(
        counts, total, p, support_dim, support_ok,
        prediction_reliable=reliable,
        extras={
            "spectral_ok": spectral_ok,
            "restricted_to_H": restrict_to_H,
            "observed_quad_support_dim": observed_quad_dim,
            "lambda_perp_dim": lam_perp.dim,
            "lambda_prime_perp_dim": lamp_perp.dim,
            "psi_dim": psi.dim,
        },
    )


def abstract_atom_distribution(
    factor: QuadraticFactor, k: int, guard: int = DEFAULT_GUARD
) -> EquidistributionReport:
    """Exact joint histogram of (B(X), B(D), (X M_i D^T)_i, (X N_j D^T)_j)."""
    return abstract_atom_report(factor, k, abstract_atom_histogram(factor, k, guard))


def abstract_atom_histogram(factor: QuadraticFactor, k: int, guard: int = DEFAULT_GUARD) -> np.ndarray:
    """Counts of the cells (B(X), B(D), (X M_i D^T)_i, (X N_j D^T)_j) over all
    (X, D), in lexicographic cell order.

    A cell is coded over the whole (X, D) array as atom(X) A + atom(D), then
    each entry of each X M D^T folded in with radix p. Before a fold could
    reach 2^63, the partial code is replaced by its rank among the distinct
    partial codes; ranks keep the order."""
    p, n = factor.p, factor.n
    P = grid_size(p, k, n)
    check_guard("p^(2kn)", P * P, guard)
    ids, atoms = atom_images(factor, k)
    A = len(atoms)
    code, span = (ids[:, None] * A + ids[None, :]).reshape(-1), A * A
    X = digit_table(p, k * n).reshape(P, k, n)
    for M in list(factor.b2) + list(factor.b3):
        cross = np.einsum("xan,nm,ybm->xyab", X, M.array, X) % p  # X M D^T
        for entry in cross.reshape(P * P, k * k).T:
            if span * p > 2**63:
                _, code = np.unique(code, return_inverse=True)
                span = int(code.max()) + 1
            code, span = code * p + entry, span * p
    return np.unique(code, return_counts=True)[1]


def abstract_atom_report(factor: QuadraticFactor, k: int, counts: np.ndarray) -> EquidistributionReport:
    """The abstract_atom_distribution report of an abstract_atom_histogram."""
    p, (_, d2, d3), (w1, w2, w3) = factor.p, factor.complexity, _widths(k).values()
    # X and D each carry the factor's coordinates, the linear ones in k rank(b1)
    # dimensions; each quadratic part adds the k^2 entries of X M D^T
    dim = 2 * w1 * row_space_rank(factor.b1, p) + (2 * w2 + k * k) * d2 + (2 * w3 + k * k) * d3
    return EquidistributionReport.from_counts(counts, grid_size(p, k, factor.n) ** 2, p, dim)


# ---------------------------------------------------------------------------
# Structured pattern average (the positivity chain, instantiated)


def structured_pattern_average(
    f: GridFunction, factor: QuadraticFactor, J: FpMatrix, guard: int = DEFAULT_GUARD
) -> dict:
    """lhs = E_{X,D} f(X) f(X+D) f(X+JD) f(X+(I+J)D) 1_H(D), exactly, against
    the bound p^{-k d1} (E f)^4 (1 - tol) with d1 = rank(b1); tol is derived
    from the measured multiplicative deviation of the restricted pattern-tuple
    distribution."""
    p, n, k = f.p, f.n, f.k
    if factor.p != p or factor.n != n or J.rows != k:
        raise DimensionMismatch("factor / pattern shape mismatch")
    if f.kind not in (RATIONAL, FLOAT):
        raise ValueError("f must be [0,1]-valued rational or float")
    proj = conditional_expectation(f, factor)
    if f.kind == RATIONAL:
        if any(a != b for a, b in zip(proj.values, f.values)):
            raise NotMeasurable("f is not constant on the atoms of the factor")
    else:
        if not np.allclose(proj.values.astype(float), f.values.astype(float), atol=1e-10):
            raise NotMeasurable("f is not constant on the atoms of the factor")
    P = f.size
    check_guard("p^(2kn)", P * P, guard)
    labels = h_coset_labels(factor, k)
    d_indices = np.nonzero(np.all(labels == 0, axis=1))[0]
    I = np.eye(k, dtype=np.int64)
    sums, den = _pattern_sums(f, [I, J.array, I + J.array], d_indices, guard)
    exact = f.kind == RATIONAL
    acc = 0
    for s in sums:
        acc += s
    lhs = Fraction(acc, den * P * P) if exact else acc / (P * P)
    d1 = row_space_rank(factor.b1, p)  # 1_H(D) has mean p^(-k rank(b1))
    dev = pattern_tuple_distribution(factor, J, restrict_to_H=True, guard=guard).max_multiplicative_deviation
    tol = min(0.9, 4.0 * dev)
    mean = f.mean()
    if exact:
        bound = Fraction(1, p ** (k * d1)) * mean**4 * (1 - Fraction(tol).limit_denominator(10**9))
    else:
        bound = (1.0 / p ** (k * d1)) * mean**4 * (1.0 - tol)
    return {"lhs": lhs, "bound": bound, "tol": tol, "deviation": dev, "holds": lhs >= bound}

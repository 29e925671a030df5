"""Quadratic factors on (F_p^n)^k, their atoms and the linear-kernel
subspace H, and the exhaustive measurements over them: the generalized von
Neumann check, the equidistribution reports of the factor images, and the
structured pattern average behind the positive result over F_p^n.

Only the `equidist` subcommand runs this layer; cli loads it lazily.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import DEFAULT_GUARD
from ._grid import Translates, digit_table, linear_perm, shift_blocks
from .analysis import FLOAT_SLACK, EquidistributionReport, _pattern_sums, gowers_norm
from .errors import DimensionMismatch, NotAutomorphism, NotMeasurable, NotSymmetric, TooLarge, check_guard, ensure, int_field
from .ffalg import FpMatrix, is_invertible, rank_stack, row_space_rank, rref, validate_odd_prime
from .gridfn import COMPLEX, FLOAT, RATIONAL, GridFunction, grid_size
from .patterns import (
    PatternSpec,
    SubspaceBasis,
    check_spectral,
    constraint_spaces,
    coord_index,
    matrix_basis,
    matrix_tuple_ambient,
    orth_complement,
    vector_tuple_ambient,
)


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
    dependent, n if there are no quadratic parts. Paper-level API: the rank
    hypothesis of the positive result over F_p^n; no subcommand calls it."""
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
    for block in shift_blocks(P, P):
        prod = np.ones((block.stop - block.start, P), dtype=np.complex128)
        for tr, S in zip(trs, shifts):
            prod = prod * tr.block(S[block])
        for mean in prod.mean(axis=1):  # each row's mean is the 1-d mean of one difference
            acc += mean
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
    When J fails the spectral gate, or the predicted support has more cells
    than there are (X, D) pairs, the report is still produced with
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
    1-d unique per block of differences (shift_blocks), then one merge over
    all of them."""
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
    per_block = []
    for block in shift_blocks(len(d_indices), P):
        d = d_indices[block]
        code = tr.base
        for e in (d, jperm[d], ijperm[d]):
            code = code * A + tr.block(e)
        per_block.append(np.unique(code, return_counts=True))
    codes, inverse = np.unique(np.concatenate([c for c, _ in per_block]), return_inverse=True)
    # float64 weights sum exactly: no count exceeds P^2, far below 2^53
    counts = np.bincount(inverse, weights=np.concatenate([m for _, m in per_block])).astype(np.int64)
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
        # past total pairs, equal support cannot occur
        prediction_reliable=reliable and p**support_dim <= total,
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
    distribution. Paper-level API: the positivity chain of the paper's result
    over F_p^n, instantiated; no subcommand calls it."""
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

"""Pattern-level algebra: admissibility, the spectral gate, and the
constraint subspaces attached to a four-point matrix pattern.

A pattern is {x, x + M1 d, x + M2 d, x + (M1+M2) d} acting on (F_p^n)^k.
After reducing to (I, J) form, the distribution of factor images along the
pattern is governed by linear subspaces of tuple spaces; this module
computes their bases exactly and provides the brute-force annihilator that
certifies them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import DEFAULT_GUARD
from ._grid import digit_table
from .errors import DimensionMismatch, NotContained, Singular, check_guard, int_field
from .ffalg import (
    FpMatrix,
    is_invertible,
    mat_inverse,
    nullspace,
    row_space_rank,
    rref,
    validate_odd_prime,
)

# ---------------------------------------------------------------------------
# PatternSpec


@dataclass(frozen=True)
class PatternSpec:
    """The data (p, k, M1, M2) of a four-point matrix pattern."""

    p: int
    k: int
    M1: FpMatrix
    M2: FpMatrix

    def __post_init__(self):
        validate_odd_prime(self.p)
        for M in (self.M1, self.M2):
            if M.rows != self.k or M.cols != self.k or M.p != self.p:
                raise DimensionMismatch("M1, M2 must be k x k over F_p")

    def J(self) -> FpMatrix:
        """The reduced second matrix M2 * M1^{-1}."""
        return self.M2.mul(mat_inverse(self.M1))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PatternSpec":
        p, k = int_field(obj, "p"), int_field(obj, "k")
        return cls(p, k, FpMatrix.from_rows(int_field(obj, "M1", 2), p), FpMatrix.from_rows(int_field(obj, "M2", 2), p))

    def to_json_obj(self) -> dict:
        return {"p": self.p, "k": self.k, "M1": self.M1.to_lists(), "M2": self.M2.to_lists()}


def check_admissible(spec: PatternSpec) -> bool:
    """True iff M1, M2, M1 - M2, M1 + M2 are all invertible."""
    mats = [spec.M1, spec.M2, spec.M1.sub(spec.M2), spec.M1.add(spec.M2)]
    return all(is_invertible(M) for M in mats)


def check_spectral(spec: PatternSpec) -> bool:
    """True iff no two eigenvalues of A = M1 M2^{-1} (over the algebraic
    closure) are negatives of each other. The map X -> AX + XA on k x k
    matrices has the eigenvalues lambda_i + lambda_j (Sylvester), so the
    condition holds exactly when its matrix I (x) A + A^T (x) I has full rank
    k^2 over F_p. An eigenvalue 0 pairs with itself, so a singular M1 fails."""
    if not is_invertible(spec.M2):
        raise Singular("M2 must be invertible for the spectral test")
    A = np.array(spec.M1.mul(mat_inverse(spec.M2)).to_lists(), dtype=np.int64)
    I = np.eye(spec.k, dtype=np.int64)
    return row_space_rank(np.kron(I, A) + np.kron(A.T, I), spec.p) == spec.k * spec.k


def reduce_to_identity_form(spec: PatternSpec) -> PatternSpec:
    """Reduce (M1, M2) to (I, J) with J = M2 M1^{-1}."""
    if not is_invertible(spec.M1):
        raise Singular("M1 must be invertible to reduce")
    return PatternSpec(spec.p, spec.k, FpMatrix.identity(spec.k, spec.p), spec.J())


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True)
class SubspaceBasis:
    """Basis of a subspace of F_p^m, vectors reduced and independent."""

    p: int
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]
    ambient_kind: str = "generic"

    def __post_init__(self):
        validate_odd_prime(self.p)
        red = []
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise DimensionMismatch("basis vector has wrong length")
            red.append(tuple(x % self.p for x in v))
        object.__setattr__(self, "basis", tuple(red))
        if self.basis and row_space_rank(self.basis, self.p) != len(self.basis):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        v = [x % self.p for x in vec]
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector has wrong length")
        if not any(v):
            return True
        if not self.basis:
            return False
        rows = [list(b) for b in self.basis]
        return row_space_rank(rows + [v], self.p) == len(self.basis)

    def is_subspace_of(self, other: "SubspaceBasis") -> bool:
        return all(other.contains(v) for v in self.basis)

    def equals(self, other: "SubspaceBasis") -> bool:
        """Exact subspace equality by double containment."""
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            return False
        return self.dim == other.dim and self.is_subspace_of(other)

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "ambient_dim": self.ambient_dim,
            "ambient_kind": self.ambient_kind,
            "dim": self.dim,
            "basis": [list(v) for v in self.basis],
        }


def coord_index(k: int, kind: str) -> list[tuple[int, int]]:
    """The coordinate order of a symmetric (i <= j) or skew (i < j) k x k
    matrix: its upper-triangle entries, row by row. Every packed matrix
    coordinate in the package follows this order."""
    if kind not in ("symmetric", "skew"):
        raise ValueError(f"unknown kind {kind!r}")
    return [(i, j) for i in range(k) for j in range(i + (kind == "skew"), k)]


def matrix_basis(k: int, p: int, kind: str) -> list[FpMatrix]:
    """E_ij + E_ji (symmetric) or E_ij - E_ji (skew) at each (i, j) of
    coord_index(k, kind): packed coordinates are coefficients on this basis."""
    out = []
    for i, j in coord_index(k, kind):
        rows = [[0] * k for _ in range(k)]
        rows[j][i] = 1 if kind == "symmetric" else -1
        rows[i][j] = 1
        out.append(FpMatrix.from_rows(rows, p))
    return out


def _embed_tuple(mats: list[FpMatrix]) -> tuple[int, ...]:
    out: list[int] = []
    for M in mats:
        out.extend(M.flatten())
    return tuple(out)


def matrix_tuple_ambient(p: int, k: int, arity: int, kind: str) -> SubspaceBasis:
    """Ambient (S_k)^arity or (S'_k)^arity inside F_p^{arity*k^2} coordinates."""
    blocks = matrix_basis(k, p, kind)
    zero = FpMatrix.zero(k, k, p)
    basis = []
    for slot in range(arity):
        for B in blocks:
            mats = [zero] * arity
            mats[slot] = B
            basis.append(_embed_tuple(mats))
    return SubspaceBasis(p, arity * k * k, tuple(basis), f"{kind}-matrix-{arity}-tuples")


def vector_tuple_ambient(p: int, k: int, arity: int = 4) -> SubspaceBasis:
    m = arity * k
    basis = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
    return SubspaceBasis(p, m, basis, "vectors-of-F_p^k-tuples")


def _combine(coeffs: list[list[int]], vectors: np.ndarray, p: int) -> np.ndarray:
    """The combinations sum_j c_j v_j mod p, one row per coefficient list c,
    of the rows v_j of the (g, m) array vectors."""
    return np.array(coeffs, dtype=np.int64).reshape(len(coeffs), len(vectors)) @ vectors % p


def orth_complement(space: SubspaceBasis, ambient: SubspaceBasis) -> SubspaceBasis:
    """{v in ambient : <v, w> = 0 for all w in space} under the entrywise
    (Hilbert-Schmidt) inner product in flattened coordinates."""
    if space.p != ambient.p or space.ambient_dim != ambient.ambient_dim:
        raise DimensionMismatch("space and ambient live in different coordinate spaces")
    if not space.is_subspace_of(ambient):
        raise NotContained("space is not contained in the ambient")
    p = space.p
    if not ambient.basis:
        return SubspaceBasis(p, ambient.ambient_dim, (), ambient.ambient_kind)
    # constraints on coefficients x of v = sum x_j e_j
    rows = [[sum(a * b for a, b in zip(e, w)) % p for e in ambient.basis] for w in space.basis]
    vecs = _combine(nullspace(rows, p, ncols=len(ambient.basis)), np.array(ambient.basis, dtype=np.int64), p)
    return SubspaceBasis(p, ambient.ambient_dim, tuple(map(tuple, vecs.tolist())), ambient.ambient_kind)


# ---------------------------------------------------------------------------
# Constraint spaces for a reduced pattern (I, J)


def _solve_matrix_condition(p: int, k: int, generators: list[FpMatrix], condition) -> list[FpMatrix]:
    """Kernel of a linear matrix map within span(generators)."""
    rows = [list(condition(E).flatten()) for E in generators]
    coeffs = nullspace([list(c) for c in zip(*rows)], p, ncols=len(generators))
    gens = np.array([E.flatten() for E in generators], dtype=np.int64).reshape(len(generators), k * k)
    return [FpMatrix(k, k, A, p) for A in _combine(coeffs, gens, p).tolist()]


def _tuple_map(A: FpMatrix, B: FpMatrix) -> tuple[int, ...]:
    AB = A.mul(B)
    return _embed_tuple([A.neg(), AB.neg(), AB, A])


def _pair_map(A: FpMatrix, B: FpMatrix) -> tuple[int, ...]:
    return _embed_tuple([A.neg(), A.mul(B).neg()])


def constraint_spaces(J: FpMatrix, p: int | None = None) -> dict[str, SubspaceBasis]:
    """Bases of Xi, Lambda, LambdaPrime, Psi, Omega, OmegaPrime for pattern
    matrices (I, J).

    Requires I - J invertible; I + J may be singular (the tuple formulas
    only invert I - J, and the degenerate I + J = 0 case is meaningful).
    """
    p = J.p if p is None else p
    k = J.rows
    if J.cols != k:
        raise DimensionMismatch("J must be square")
    I = FpMatrix.identity(k, p)
    if not is_invertible(I.sub(J)):
        raise Singular("I - J must be invertible")
    B = I.add(J).mul(mat_inverse(I.sub(J)))
    Jt = J.transpose()

    full_basis = [FpMatrix(k, k, E, p) for E in np.eye(k * k, dtype=np.int64).tolist()]

    # Xi_J = {A : (JA)^T = JA}
    xi_mats = _solve_matrix_condition(p, k, full_basis, lambda A: J.mul(A).sub(J.mul(A).transpose()))
    xi = SubspaceBasis(p, k * k, tuple(tuple(A.flatten()) for A in xi_mats), "matrices")

    # Generators of Lambda / LambdaPrime: A J = J^T A within S_k resp. S'_k.
    # (This is the condition the pattern trace identity actually forces; it
    # makes every slot of the 4-tuple land back in the right symmetry class.)
    twist = lambda A: A.mul(J).sub(Jt.mul(A))
    gen_sym = _solve_matrix_condition(p, k, matrix_basis(k, p, "symmetric"), twist)
    gen_skew = _solve_matrix_condition(p, k, matrix_basis(k, p, "skew"), twist)

    lam = SubspaceBasis(p, 4 * k * k, tuple(_tuple_map(A, B) for A in gen_sym), "symmetric-matrix-4-tuples")
    lamp = SubspaceBasis(p, 4 * k * k, tuple(_tuple_map(A, B) for A in gen_skew), "skew-matrix-4-tuples")
    omega = SubspaceBasis(p, 2 * k * k, tuple(_pair_map(A, B) for A in gen_sym), "pair-tuples")
    omegap = SubspaceBasis(p, 2 * k * k, tuple(_pair_map(A, B) for A in gen_skew), "pair-tuples")

    # Psi_J: x1 - x2 - x3 + x4 = 0 and x4 - x2 = J(x2 - x1), solved in F_p^{4k}
    Ik, Jm = np.eye(k, dtype=np.int64), np.array(J.entries, dtype=np.int64).reshape(k, k)
    rows = np.block([[Ik, -Ik, -Ik, Ik], [Jm, -Jm - Ik, np.zeros_like(Ik), Ik]]) % p
    psi_vecs = nullspace(rows, p, ncols=4 * k)
    psi = SubspaceBasis(p, 4 * k, tuple(tuple(v) for v in psi_vecs), "vectors-of-F_p^k-tuples")

    return {
        "Xi": xi,
        "Lambda": lam,
        "LambdaPrime": lamp,
        "Psi": psi,
        "Omega": omega,
        "OmegaPrime": omegap,
    }


def lambda_perp(J: FpMatrix, kind: str) -> SubspaceBasis:
    """Orthogonal complement of Lambda (kind='symmetric') or LambdaPrime
    (kind='skew') inside the matching matrix-4-tuple ambient."""
    spaces = constraint_spaces(J)
    space = spaces["Lambda"] if kind == "symmetric" else spaces["LambdaPrime"]
    return orth_complement(space, matrix_tuple_ambient(J.p, J.rows, 4, kind))


def in_algebra_of_square(A: FpMatrix) -> bool:
    """True iff A is an F_p-linear combination of I, A^2, A^4, ..., A^{2(k-1)},
    that is, iff adding A to their span leaves its rank unchanged."""
    if A.rows != A.cols:
        raise DimensionMismatch("square matrix required")
    k, p = A.rows, A.p
    A2 = A.mul(A)
    span_rows = []
    power = FpMatrix.identity(k, p)
    for _ in range(k):
        span_rows.append(list(power.flatten()))
        power = power.mul(A2)
    return row_space_rank(span_rows + [list(A.flatten())], p) == row_space_rank(span_rows, p)


# ---------------------------------------------------------------------------
# Brute-force annihilator (the oracle for the constraint spaces)


def annihilator_bruteforce(
    J: FpMatrix, n: int, kind: str, guard: int = DEFAULT_GUARD
) -> SubspaceBasis:
    """The space of 4-tuples (A1..A4) of symmetric (resp. skew) k x k matrices
    with tr(A1^T X M X^T + A2^T (X+D) M (X+D)^T + A3^T (X+JD) M (X+JD)^T
    + A4^T (X+(I+J)D) M (X+(I+J)D)^T) = 0 for all X, D in F_p^{k x n} and
    all n x n M of the given symmetry kind.

    Computed as the nullspace of the stacked constraint system over every
    (X, D) pair; for kind='skew' and n = 1 there are no nonzero M, so the
    constraint set is vacuous and the full ambient is returned.
    """
    p, k = J.p, J.rows
    check_guard("p^(2kn)", p ** (2 * k * n), guard)
    m_basis = matrix_basis(n, p, kind)
    tuple_blocks = matrix_basis(k, p, kind)

    tdim = 4 * len(tuple_blocks)
    if not m_basis or tdim == 0:
        # no nonzero M of this kind exists (skew with n = 1), or the tuple
        # ambient itself is the zero space (skew with k = 1)
        return matrix_tuple_ambient(p, k, 4, kind)

    P = p ** (k * n)
    X = digit_table(p, k * n).reshape(P, k, n)
    I = np.eye(k, dtype=np.int64)
    Jm = np.array(J.to_lists(), dtype=np.int64)
    slot_coeffs = [np.zeros((k, k), dtype=np.int64), I, Jm % p, (I + Jm) % p]
    E_arrs = [np.array(E.to_lists(), dtype=np.int64) for E in tuple_blocks]

    reduced = []
    for M in m_basis:
        Mm = np.array(M.to_lists(), dtype=np.int64)
        G1 = np.einsum("xan,nm,xbm->xab", X, Mm, X) % p        # X M X^T (also D M D^T)
        XMD = np.einsum("xan,nm,ybm->xyab", X, Mm, X) % p      # X M D^T, D indexed by y
        DMX = np.einsum("yan,nm,xbm->xyab", X, Mm, X) % p      # D M X^T (not its transpose: M may be skew)
        cols = []
        for C in slot_coeffs:
            # Q = (X + C D) M (X + C D)^T over all pairs (x, y = D)
            term2 = np.einsum("xyab,cb->xyac", XMD, C)         # X M D^T C^T
            term3 = np.einsum("ca,xyab->xycb", C, DMX)         # C D M X^T
            term4 = np.einsum("ca,yab,db->ycd", C, G1, C)      # C D M D^T C^T
            Q = (G1[:, None, :, :] + term2 + term3 + term4[None, :, :, :]) % p
            for E in E_arrs:
                cols.append(np.einsum("ab,xyab->xy", E, Q) % p)
        # each block reduced to its (at most tdim) echelon rows before the next
        reduced += rref(np.stack([c.reshape(-1) for c in cols], axis=1), p)[0]
    # coefficient s * len(tuple_blocks) + j weighs block j in slot s
    slots = np.kron(np.eye(4, dtype=np.int64), np.array(E_arrs).reshape(len(E_arrs), k * k))
    vecs = _combine(nullspace(reduced, p, ncols=tdim), slots, p)
    return SubspaceBasis(p, 4 * k * k, tuple(map(tuple, vecs.tolist())), f"{kind}-matrix-4-tuples")


def enumerate_admissible_spectral_J(p: int, k: int) -> Iterator[FpMatrix]:
    """Deterministic scan of all k x k J with J, I-J, I+J invertible and the
    spectral condition satisfied, in base-p entry order."""
    I = FpMatrix.identity(k, p)
    for entries in itertools.product(range(p), repeat=k * k):
        J = FpMatrix(k, k, entries, p)
        if not (is_invertible(J) and is_invertible(I.sub(J)) and is_invertible(I.add(J))):
            continue
        if check_spectral(PatternSpec(p, k, I, J)):
            yield J

"""Pattern-level algebra: admissibility, the spectral gate, and the
constraint subspaces attached to a four-point matrix pattern.

A pattern is {x, x + M1 d, x + M2 d, x + (M1+M2) d} acting on (F_p^n)^k.
After reducing to (I, J) form, the distribution of factor images along the
pattern is governed by linear subspaces of tuple spaces; this module
computes their bases exactly and provides the brute-force annihilator that
certifies them. Matrices are int64 arrays flattened row-major, so each
constraint space is the nullspace of one Kronecker operator on a stacked
basis (matrix_basis), each tuple ambient one np.kron, and each containment
test one rank.
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
    inverse_stack,
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
    A = spec.M1.mul(mat_inverse(spec.M2)).array
    I = np.eye(spec.k, dtype=np.int64)
    return row_space_rank(np.kron(I, A) + np.kron(A.T, I), spec.p) == spec.k * spec.k


def reduce_to_identity_form(spec: PatternSpec) -> PatternSpec:
    """Reduce (M1, M2) to (I, J) with J = M2 M1^{-1}."""
    if not is_invertible(spec.M1):
        raise Singular("M1 must be invertible to reduce")
    return PatternSpec(spec.p, spec.k, FpMatrix.identity(spec.k, spec.p), spec.J())


# ---------------------------------------------------------------------------
# Subspaces


@dataclass(frozen=True, eq=False)  # equals() is subspace equality; == would compare bases
class SubspaceBasis:
    """Basis of a subspace of F_p^m, vectors reduced and independent: a
    read-only int64 array of shape (dim, ambient_dim)."""

    p: int
    ambient_dim: int
    array: np.ndarray
    ambient_kind: str = "generic"

    def __post_init__(self):
        validate_odd_prime(self.p)
        B = np.asarray(self.array, dtype=np.int64)
        if B.size and B.shape[1:] != (self.ambient_dim,):
            raise DimensionMismatch("basis vector has wrong length")
        B = B.reshape(len(B), self.ambient_dim) % self.p
        B.setflags(write=False)
        object.__setattr__(self, "array", B)
        if len(B) and row_space_rank(B, self.p) != len(B):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.array)

    def _spans(self, vecs: np.ndarray) -> bool:
        """True iff every row of vecs lies in this space: adding them leaves the rank at dim."""
        if vecs.shape[-1] != self.ambient_dim:
            raise DimensionMismatch("vector has wrong length")
        return row_space_rank(np.vstack([self.array, vecs]), self.p) == self.dim

    def contains(self, vec) -> bool:
        return self._spans(np.asarray(vec, dtype=np.int64).reshape(1, -1))

    def is_subspace_of(self, other: "SubspaceBasis") -> bool:
        return other._spans(self.array)

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
            "basis": self.array.tolist(),
        }


def coord_index(k: int, kind: str) -> list[tuple[int, int]]:
    """The coordinate order of a symmetric (i <= j) or skew (i < j) k x k
    matrix: its upper-triangle entries, row by row. Every packed matrix
    coordinate in the package follows this order."""
    if kind not in ("symmetric", "skew"):
        raise ValueError(f"unknown kind {kind!r}")
    return [(i, j) for i in range(k) for j in range(i + (kind == "skew"), k)]


def matrix_basis(k: int, p: int, kind: str) -> np.ndarray:
    """E_ij + E_ji (symmetric) or E_ij - E_ji (skew) at each (i, j) of
    coord_index(k, kind), entries in [0, p), as an int64 array of shape
    (len, k, k): packed coordinates are coefficients on this basis."""
    idx = coord_index(k, kind)
    i, j = np.array(idx, dtype=np.int64).reshape(-1, 2).T
    c = np.arange(len(idx))
    out = np.zeros((len(idx), k, k), dtype=np.int64)
    out[c, j, i] = 1 if kind == "symmetric" else p - 1
    out[c, i, j] = 1
    return out


def matrix_tuple_ambient(p: int, k: int, arity: int, kind: str) -> SubspaceBasis:
    """Ambient (S_k)^arity or (S'_k)^arity inside F_p^{arity*k^2} coordinates:
    slot by slot, each matrix_basis element in row-major flattening."""
    blocks = matrix_basis(k, p, kind).reshape(-1, k * k)
    return SubspaceBasis(p, arity * k * k, np.kron(np.eye(arity, dtype=np.int64), blocks),
                         f"{kind}-matrix-{arity}-tuples")


def vector_tuple_ambient(p: int, k: int, arity: int = 4) -> SubspaceBasis:
    return SubspaceBasis(p, arity * k, np.eye(arity * k, dtype=np.int64), "vectors-of-F_p^k-tuples")


def _kernel(operator: np.ndarray, vectors: np.ndarray, p: int) -> np.ndarray:
    """The combinations x of the rows of vectors, shape (g, m), with operator x = 0
    mod p, as rows v = sum_j x_j vectors[j]: one nullspace of the (r, g) operator."""
    return nullspace(operator, p, ncols=len(vectors)) @ vectors % p


def orth_complement(space: SubspaceBasis, ambient: SubspaceBasis) -> SubspaceBasis:
    """{v in ambient : <v, w> = 0 for all w in space} under the entrywise
    (Hilbert-Schmidt) inner product in flattened coordinates."""
    if space.p != ambient.p or space.ambient_dim != ambient.ambient_dim:
        raise DimensionMismatch("space and ambient live in different coordinate spaces")
    if not space.is_subspace_of(ambient):
        raise NotContained("space is not contained in the ambient")
    E = ambient.array
    return SubspaceBasis(space.p, ambient.ambient_dim, _kernel(space.array @ E.T, E, space.p), ambient.ambient_kind)


# ---------------------------------------------------------------------------
# Constraint spaces for a reduced pattern (I, J)
#
# A k x k matrix X is the row-major vector vec(X), X[a, b] at a k + b. A map
# A -> XA is then the matrix X (x) I, A -> AX is I (x) X^T, and A -> A^T is
# the permutation T of the k^2 coordinates; each space below is the kernel
# of one such operator.


def constraint_spaces(J: FpMatrix) -> dict[str, SubspaceBasis]:
    """Bases of Xi, Lambda, LambdaPrime, Psi, Omega, OmegaPrime for pattern
    matrices (I, J).

    Requires I - J invertible; I + J may be singular (the tuple formulas
    only invert I - J, and the degenerate I + J = 0 case is meaningful).
    """
    p, k = J.p, J.rows
    if J.cols != k:
        raise DimensionMismatch("J must be square")
    Jm, Ik, kk = J.array, np.eye(k, dtype=np.int64), k * k
    invertible, inv = inverse_stack(Ik - Jm, p)
    if not invertible:
        raise Singular("I - J must be invertible")
    B = (Ik + Jm) @ inv % p
    T = np.eye(kk, dtype=np.int64).reshape(k, k, kk).transpose(1, 0, 2).reshape(kk, kk)

    # Xi_J = {A : (JA)^T = JA}, the kernel of (I - T)(J (x) I)
    E = np.eye(kk, dtype=np.int64)
    xi = SubspaceBasis(p, kk, _kernel((E - T) @ np.kron(Jm, Ik), E, p), "matrices")

    def tuples(kind: str) -> np.ndarray:
        """The 4-tuples (-A, -AB, AB, A) of the generators A of Lambda (S_k) or
        LambdaPrime (S'_k): the solutions of A J = J^T A, the kernel of
        I (x) J^T - J^T (x) I on the basis. (This is the condition the pattern
        trace identity actually forces; it makes every slot of the 4-tuple
        land back in the right symmetry class.)"""
        basis = matrix_basis(k, p, kind).reshape(-1, kk)
        A = _kernel((np.kron(Ik, Jm.T) - np.kron(Jm.T, Ik)) @ basis.T, basis, p).reshape(-1, k, k)
        AB = A @ B % p
        return np.concatenate([-A, -AB, AB, A], axis=1).reshape(len(A), 4 * kk) % p

    sym, skew = tuples("symmetric"), tuples("skew")
    # Psi_J: x1 - x2 - x3 + x4 = 0 and x4 - x2 = J(x2 - x1), solved in F_p^{4k}
    rows = np.block([[Ik, -Ik, -Ik, Ik], [Jm, -Jm - Ik, np.zeros_like(Ik), Ik]]) % p
    # Omega and OmegaPrime hold the pairs (-A, -AB), the first half of each tuple
    return {
        "Xi": xi,
        "Lambda": SubspaceBasis(p, 4 * kk, sym, "symmetric-matrix-4-tuples"),
        "LambdaPrime": SubspaceBasis(p, 4 * kk, skew, "skew-matrix-4-tuples"),
        "Psi": SubspaceBasis(p, 4 * k, nullspace(rows, p, ncols=4 * k), "vectors-of-F_p^k-tuples"),
        "Omega": SubspaceBasis(p, 2 * kk, sym[:, : 2 * kk], "pair-tuples"),
        "OmegaPrime": SubspaceBasis(p, 2 * kk, skew[:, : 2 * kk], "pair-tuples"),
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
    A2, power, span = A.mul(A), FpMatrix.identity(k, p), []
    for _ in range(k):
        span.append(power.array.ravel())
        power = power.mul(A2)
    span = np.reshape(span, (k, k * k))
    return row_space_rank(np.vstack([span, A.array.reshape(1, -1)]), p) == row_space_rank(span, p)


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
    ambient = matrix_tuple_ambient(p, k, 4, kind)
    if not len(m_basis) or not ambient.dim:
        # no nonzero M of this kind exists (skew with n = 1), or the tuple
        # ambient itself is the zero space (skew with k = 1)
        return ambient

    P = p ** (k * n)
    X = digit_table(p, k * n).reshape(P, k, n)
    I = np.eye(k, dtype=np.int64)
    Jm = J.array
    slot_coeffs = [np.zeros((k, k), dtype=np.int64), I, Jm % p, (I + Jm) % p]
    E = matrix_basis(k, p, kind)

    reduced = []
    for M in m_basis:
        G1 = np.einsum("xan,nm,xbm->xab", X, M, X) % p         # X M X^T (also D M D^T)
        XMD = np.einsum("xan,nm,ybm->xyab", X, M, X) % p       # X M D^T, D indexed by y
        DMX = np.einsum("yan,nm,xbm->xyab", X, M, X) % p       # D M X^T (not its transpose: M may be skew)
        cols = []
        for C in slot_coeffs:
            # Q = (X + C D) M (X + C D)^T over all pairs (x, y = D)
            term2 = np.einsum("xyab,cb->xyac", XMD, C)         # X M D^T C^T
            term3 = np.einsum("ca,xyab->xycb", C, DMX)         # C D M X^T
            term4 = np.einsum("ca,yab,db->ycd", C, G1, C)      # C D M D^T C^T
            Q = (G1[:, None, :, :] + term2 + term3 + term4[None, :, :, :]) % p
            cols.append(np.einsum("eab,xyab->xye", E, Q) % p)
        # each block reduced to its (at most 4 len(E)) echelon rows before the next
        reduced.append(rref(np.concatenate(cols, axis=-1).reshape(P * P, ambient.dim), p)[0])
    # coefficient s * len(E) + j weighs block j in slot s, as in the ambient's basis
    constraints = np.concatenate(reduced)
    return SubspaceBasis(p, 4 * k * k, _kernel(constraints, ambient.array, p), ambient.ambient_kind)


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

"""Independent oracles used by the test suite.

The spectral oracle shares no code with the library's rank test: it expands
the characteristic polynomial by Leibniz over plain coefficient lists,
factors it into irreducibles by trial division and pairs root sets through
sign-flipped factors. The translate
oracle rolls the (p,)*m value tensor instead of gathering through an index
table. The pattern-count oracle sums Fraction (or float) products of rolled
translates, the way pattern_count did before exact sums became integer sums.
The Gowers oracle recurses through multiplicative derivatives all the way to
U^1, the way gowers_norm did before its recursion stopped at the Fourier-side
U^2; the per-shift Fourier oracle stops at U^2 with one fftn per shift, the
way gowers_norm did before its U^2 level ran in blocks of shifts; and the
stacked-shift U^3 oracle builds each block as np.stack of one translate per
shift, the way gowers_norm did before a block became one window gather. The
counterexample oracles build one affine map at a time: the membership masks
pull every point back through A^{-1}, and the dressing reads each table
through its own alpha*x + beta*y index array, with its uniform tables drawn
by numpy.random itself. The f1 oracle takes x.x and x.y mod 5 from int64
dot products of whole digit vectors, the way f1 was built before it was
built digit by digit in uint8; build_f1 and f1_pattern_count_exact, the
grid-function and pattern-count views of f1 that only tests read, sit beside
it, as does diagonalize_rotated_square, the exact identity checks of the
change of variables that turns rotated squares into the diagonal pattern. The
equidistribution oracles count cells as rows of image coordinates, sorted
per difference with np.unique(axis=0) and merged by one more row sort, the
way the histograms were counted before their cells became folded atom ids.
The elimination oracle is the row-at-a-time list loop that ffalg.rref ran
before every mod-p elimination moved onto one stacked numpy kernel; the
matrix ring oracles add, negate, scale, multiply and transpose row-major
tuples of Python ints entry by entry, the way FpMatrix did before it held
one int64 array; and the factor-rank oracle ranks one FpMatrix combination
at a time. The
support-pair oracle finds the counterexample's last two pattern points by
digit arithmetic and tests their membership with np.isin against the sorted
support, the way sparse_pattern_max did before it read the addition table.
The matrix pattern-count oracle multiplies np.roll translates of the whole
dense matrix, the way the dressing was measured before it summed over the
support. The primality oracle is the trial division that validated every
modulus before ffalg.is_odd_prime ran Miller-Rabin. The hypergraphon
oracles are the per-edge scan of the unique-triangle check and the four
einsums of the four-cell table, as they ran before both were read off the
cell tensor: the check as matrix products of its edge sets, the table as the
class b = a of the per-class predictions. The support-pair histogram oracle
forms a and -b for every pair of support points and reaches both later
pattern points through the addition table, the way sparse_pattern_max counted
before it tested the third point first. The maximum 3-AP-free set oracle is
the branch and bound that re-checked the whole chosen list at every node.
The constraint-space oracle solves each condition on one FpMatrix generator
at a time and builds each tuple ambient slot by slot from zero matrices, the
way the pattern layer did before each space became one Kronecker kernel.
The lift oracle is the per-point loop that threept.lift_to_interval ran
before each Bohr difference was audited in one numpy pass: it finds the
embedding prime by floor, takes the Bohr set from its definition with exact
rational distances, and audits each hit as the integer triple
(x, x + M1 d, x + M2 d), d the least-magnitude lift of the difference.
The PCG64 jump-table oracle steps M^(t+2) and M^(t+1) + ... + 1 one position
at a time in Python ints, the way the table was built before it was built by
doubling. The pointwise factor image (factor_eval) and the phase functions
with the factor read off their blocks (phase_function,
block_factor_from_phase) had no caller in the library; the gridfn tests
check factor_image_coords and atom_images against them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from popdiff._grid import add_index, add_table, digit_table, encode_digits, linear_perm
from popdiff import DEFAULT_GUARD
from popdiff._pcg64 import _PCG_MULT
from popdiff.counterexample import F2_COMBOS, F3_COMBOS, SHIFT_COEFFS, f1_matrix, is_3ap_free, support_pattern_counts
from popdiff.equidist import QuadraticFactor, factor_image_coords, h_coset_labels
from popdiff.errors import DimensionMismatch, NotSymmetric, Singular, ensure
from popdiff.ffalg import FpMatrix, is_invertible, mat_inverse
from popdiff.gridfn import COMPLEX, FLOAT, RATIONAL, GridFunction, grid_decode
from popdiff.patterns import PatternSpec, SubspaceBasis


# Polynomials over F_p are coefficient lists, lowest degree first, trimmed of
# trailing zeros; the zero polynomial is [].


def poly_trim(f, p: int) -> list[int]:
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(f, g, p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out, p)


def poly_divmod(f, g, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by a nonzero g."""
    rem = list(f)
    quo = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = pow(g[-1], -1, p)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(g) - 1] * inv_lead % p
        quo[i] = c
        for j, b in enumerate(g):
            rem[i + j] = (rem[i + j] - c * b) % p
    return poly_trim(quo, p), poly_trim(rem, p)


def poly_monic(f, p: int) -> list[int]:
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def poly_negate_argument(f, p: int) -> list[int]:
    """f(t) -> f(-t): coefficient c_i -> (-1)^i c_i."""
    return poly_trim([-c if i % 2 else c for i, c in enumerate(f)], p)


def char_poly(A: FpMatrix) -> list[int]:
    """det(tI - A) by Leibniz expansion (k <= ~6)."""
    n, p = A.rows, A.p
    acc = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = [(-1) ** inversions]
        for i, j in enumerate(perm):
            term = poly_mul(term, [-A[i, j], 1] if i == j else [-A[i, j]], p)
        for d, c in enumerate(term):
            acc[d] += c
    return poly_trim(acc, p)


def all_monic_polys(p: int, degree: int):
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


def irreducible_factors(q, p: int) -> list[tuple[int, ...]]:
    """Distinct monic irreducible factors of a nonzero q, by trial division
    with monic candidates of rising degree; each factor found is divided out
    to its full power."""
    q = poly_monic(q, p)
    factors: list[tuple[int, ...]] = []
    d = 1
    while len(q) > 1:
        if d > (len(q) - 1) // 2:
            factors.append(tuple(q))  # irreducible remainder
            break
        for cand in all_monic_polys(p, d):
            quo, rem = poly_divmod(q, cand, p)
            if not rem:
                break
        else:
            d += 1
            continue
        factors.append(tuple(cand))
        while not rem:
            q = quo
            quo, rem = poly_divmod(q, cand, p)
    return factors


def spectral_oracle(A: FpMatrix) -> bool:
    """True iff no two eigenvalues of A over the algebraic closure are
    negatives of each other: no irreducible factor q of the characteristic
    polynomial has monic q(-t) also dividing it (a self-paired factor has a
    negation-closed root set: a +-pair, or the root 0, which pairs with
    itself)."""
    p = A.p
    factors = irreducible_factors(char_poly(A), p)
    return all(tuple(poly_monic(poly_negate_argument(q, p), p)) not in factors for q in factors)


def is_odd_prime_by_trial_division(p: int) -> bool:
    ok = p >= 3 and p % 2 == 1
    if ok:
        f = 3
        while f * f <= p:
            if p % f == 0:
                ok = False
                break
            f += 2
    return ok


def rref_by_lists(rows, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p, one Python row list at a time.
    Returns (nonzero rows, pivot columns)."""
    mat = [[int(x) % p for x in row] for row in rows]
    if not mat:
        return [], []
    pivots: list[int] = []
    r = 0
    for c in range(len(mat[0])):
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


def nullspace_by_lists(rows, p: int, ncols: int) -> list[list[int]]:
    """Basis of {x : M x = 0} from rref_by_lists, one free column at a time:
    e_f, with each pivot coordinate set to minus its row's entry in column f."""
    red, pivots = rref_by_lists(rows, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-red[r][fc]) % p
        basis.append(vec)
    return basis


# The ring operations of FpMatrix on a matrix's row-major tuple of Python ints,
# one entry at a time, as FpMatrix ran them before it held an int64 array. Each
# returns (rows, cols, entries) with entries reduced into [0, p).


def add_by_loops(A: FpMatrix, B: FpMatrix) -> tuple:
    return A.rows, A.cols, tuple((a + b) % A.p for a, b in zip(A.entries, B.entries))


def sub_by_loops(A: FpMatrix, B: FpMatrix) -> tuple:
    return A.rows, A.cols, tuple((a - b) % A.p for a, b in zip(A.entries, B.entries))


def neg_by_loops(A: FpMatrix) -> tuple:
    return A.rows, A.cols, tuple(-a % A.p for a in A.entries)


def scale_by_loops(A: FpMatrix, c: int) -> tuple:
    return A.rows, A.cols, tuple(c * a % A.p for a in A.entries)


def mul_by_loops(A: FpMatrix, B: FpMatrix) -> tuple:
    out = [0] * (A.rows * B.cols)
    for i in range(A.rows):
        for k in range(A.cols):
            a = A.entries[i * A.cols + k]
            if a:
                for j in range(B.cols):
                    out[i * B.cols + j] += a * B.entries[k * B.cols + j]
    return A.rows, B.cols, tuple(x % A.p for x in out)


def transpose_by_loops(A: FpMatrix) -> tuple:
    return A.cols, A.rows, tuple(A.entries[i * A.cols + j] for j in range(A.cols) for i in range(A.rows))


def roll_translate(values: np.ndarray, p: int, m: int, shift_digits) -> np.ndarray:
    """Array of values[x + shift] indexed by x, by np.roll on the (p,)*m
    tensor whose axis j is digit j."""
    if m == 0:  # the one-point group; np.roll refuses a 0-d tensor
        return np.array(values)
    T = np.asarray(values).reshape((p,) * m, order="F")
    rolled = np.roll(T, shift=tuple(-int(d) for d in shift_digits), axis=tuple(range(m)))
    return rolled.reshape(-1, order="F")


def fraction_pattern_count(f, spec, d: int, points: int = 4):
    """Average over X of f(X) f(X + M1 D) f(X + M2 D) [f(X + (M1 + M2) D)]:
    a sum of Fraction products for rational f, math.fsum of the float64
    products (multiplied left to right) otherwise."""
    D = grid_decode(spec.p, spec.k, f.n, d)
    shifts = [spec.M1.mul(D), spec.M2.mul(D)]
    if points == 4:
        shifts.append(spec.M1.add(spec.M2).mul(D))
    prod = f.values.copy()
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, as the kernel's is
        for S in shifts:
            prod = prod * roll_translate(f.values, f.p, f.k * f.n, S.entries)
    if f.kind == RATIONAL:
        return sum(prod, Fraction(0)) / f.size
    return math.fsum(prod) / f.size


def gowers_power_by_derivatives(values: np.ndarray, p: int, m: int, s: int) -> float:
    """||f||_{U^s}^{2^s} on (Z/pZ)^m through derivatives down to U^1:
    |E_x f|^2 at s = 1, else E_h of the power at s - 1 of f(x) conj(f(x + h))."""
    values = np.asarray(values, dtype=np.complex128)
    if s == 1:
        return abs(values.mean()) ** 2
    total = 0.0
    for h in itertools.product(range(p), repeat=m):
        deriv = values * np.conj(roll_translate(values, p, m, h))
        total += gowers_power_by_derivatives(deriv, p, m, s - 1)
    return total / p**m


def gowers_power_per_shift(values: np.ndarray, p: int, m: int, s: int) -> float:
    """||f||_{U^s}^{2^s} on (Z/pZ)^m down to U^2 = sum_xi |f^(xi)|^4, with one
    fftn per derivative f(x) conj(f(x + h)) and the shifts h in index order."""
    values = np.asarray(values, dtype=np.complex128)
    P = len(values)
    if s == 2:
        F = np.fft.fftn(values.reshape((p,) * m, order="F")).reshape(-1, order="F")
        return float(np.sum(np.abs(F / P) ** 4))
    total = 0.0
    for h in digit_table(p, m):
        total += gowers_power_per_shift(values * np.conj(roll_translate(values, p, m, h)), p, m, s - 1)
    return total / P


def gowers_u3_power_by_stacked_shifts(values: np.ndarray, p: int, m: int) -> float:
    """||f||_{U^3}^8 on (Z/pZ)^m with the U^2 level in blocks of 2^14 / p^m
    shifts h in index order: each block np.stack of the rolled derivatives
    f(x) conj(f(x + h)), one fftn per block over the digit axes (digit m - 1
    first, as fftn of the digit tensor runs), and each row's sum of |F/P|^4
    added in turn."""
    values = np.asarray(values, dtype=np.complex128)
    P, total = len(values), 0.0
    step = max(1, 2**14 // P)
    for start in range(0, P, step):
        shifts = digit_table(p, m)[start:start + step]
        block = values[None, :] * np.conj(np.stack([roll_translate(values, p, m, h) for h in shifts]))
        F = np.fft.fftn(block.reshape((len(shifts),) + (p,) * m), axes=tuple(range(m, 0, -1))) if m else block
        for power in np.sum(np.abs(F.reshape(len(shifts), P) / P) ** 4, axis=1).tolist():
            total += power
    return total / P


def _random_affine_inverse(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A uniform invertible affine map x -> A x + c of F_5^n by rejection on
    A; returns (A^{-1}, c)."""
    while True:
        A = rng.integers(0, 5, size=(n, n))
        try:
            Ainv = mat_inverse(FpMatrix.from_rows(A.tolist(), 5))
        except Singular:
            continue
        c = rng.integers(0, 5, size=n)
        return np.array(Ainv.to_lists(), dtype=np.int64), c


def pcg64_jumps_by_steps(steps: int) -> tuple[np.ndarray, ...]:
    """The high and low uint64 words of M^(t+2) and of M^(t+1) + ... + 1 mod
    2^128 for t < steps, M the PCG64 multiplier, one Python-int step per t."""
    mult, cum, words = _PCG_MULT * _PCG_MULT % (1 << 128), _PCG_MULT + 1, []
    for _ in range(steps):
        words.append((*divmod(mult, 1 << 64), *divmod(cum, 1 << 64)))
        mult, cum = mult * _PCG_MULT % (1 << 128), (cum * _PCG_MULT + 1) % (1 << 128)
    return tuple(np.array(words, dtype=np.uint64).reshape(-1, 4).T)


def membership_masks_by_inverse(n: int, gamma: int, master_seed: int, seed_index: int):
    """(mask1, mask2) of the counterexample assembly: x is in phi_g(T) iff
    the first gamma coordinates of A^{-1} (x - c) are all below 3."""
    P = 5**n
    digs = digit_table(5, n)
    masks = []
    for table_id in (101, 102):
        mask = np.zeros((P, P), dtype=np.uint8)
        for g in range(P):
            rng = np.random.default_rng([int(master_seed), int(seed_index), table_id, g])
            Ainv, c = _random_affine_inverse(rng, n)
            w = (Ainv @ (digs.T - c[:, None])) % 5
            mask[:, g] = np.all(w[:gamma, :] < 3, axis=0)
        masks.append(mask)
    return masks[0], masks[1].T


def diagonalize_rotated_square() -> dict:
    """The change of variables (x,y) -> (x-2y, x+2y) turning rotated squares
    into the diagonal pattern with matrices (I, diag(2,-2)); returns the
    diagonalized PatternSpec plus the exact identity checks."""
    p = 5
    gamma = FpMatrix.from_rows([[1, -2], [1, 2]], p)
    # matrix reproducing the third point (x+b, y-a) of the rotated square
    m2_pattern = FpMatrix.from_rows([[0, 1], [-1, 0]], p)
    diag = FpMatrix.from_rows([[2, 0], [0, -2]], p)
    conj = gamma.mul(m2_pattern).mul(mat_inverse(gamma))
    # second coordinates of the diagonal pattern are y, y+b, y-2b, y-b
    mults = [cy % p for _, cy in SHIFT_COEFFS]
    spec = PatternSpec(p, 2, FpMatrix.identity(2, p), diag)
    return {
        "spec": spec,
        "gamma": gamma,
        "gamma_invertible": is_invertible(gamma),
        "conjugation_identity": conj == diag,
        "second_coordinate_multipliers": tuple(mults),
        "second_coordinates_ok": tuple(mults) == (0, 1, (-2) % p, (-1) % p),
        "negated_matrix_conjugate": gamma.mul(m2_pattern.neg()).mul(mat_inverse(gamma)).to_lists(),
    }


def f1_matrix_by_einsum(core, n: int) -> np.ndarray:
    """f1[x, y] = g1[x.x mod 5, x.y mod 5] from int64 dot products of whole
    digit vectors."""
    digs = digit_table(5, n)
    xx = np.einsum("xi,xi->x", digs, digs) % 5
    xy = (digs @ digs.T) % 5
    return core.g1[xx[:, None], xy].astype(np.uint8)


def build_f1(core, n: int, guard: int = DEFAULT_GUARD) -> GridFunction:
    """f1(x, y) = g1(x.x, x.y) as a grid function on (F_5^n)^2."""
    F = f1_matrix(core, n, guard)
    # grid index for k=2 is ix + 5^n * iy
    values = F.T.reshape(-1).astype(np.float64)
    return GridFunction(5, 2, n, values, FLOAT, guard=guard)


def f1_pattern_count_exact(core, n: int, a, b, guard: int = DEFAULT_GUARD) -> Fraction:
    """beta_1(a, b): exact four-point density of f1 at the difference (a, b)."""
    F = f1_matrix(core, n, guard)
    return Fraction(support_pattern_counts(F, n, [(a, b)])[0], F.size)


def dressed_h_by_combo_index(core, h, n: int, master_seed: int, seed_index: int, blocks: int = 2) -> np.ndarray:
    """h = f1 * F2 * F3 (f1 * F2 for blocks = 1) with each table drawn by
    np.random.default_rng([master_seed, seed_index, table]).random and read
    through its own (P, P) array of the indices of alpha*x + beta*y."""
    P = 5**n
    out = f1_matrix(core, n).copy()
    for block, combos in enumerate((F2_COMBOS, F3_COMBOS)[:blocks]):
        vals = []
        for tid, (alpha, beta) in enumerate(combos):
            cells = h.cells(np.random.default_rng([master_seed, seed_index, 3 * block + tid]).random(P))
            combo = add_index(5, n, linear_perm(5, 1, n, [[alpha]])[:, None], linear_perm(5, 1, n, [[beta]])[None, :])
            vals.append(cells[combo])
        out = out * h.tensor[vals[0], vals[1], vals[2]].astype(np.uint8)
    return out


def pattern_count_by_roll(F: np.ndarray, n: int, a, b) -> int:
    """sum over (x, y) of prod_c F(x + cx a, y + cy b) over SHIFT_COEFFS for
    the (x, y)-indexed (5^n, 5^n) matrix F, by np.roll of the (5,)*n x (5,)*n
    tensor whose axis j is digit j of x and axis n + j digit j of y."""
    T = np.asarray(F, dtype=np.int64).reshape((5,) * (2 * n), order="F")
    prod = T
    for cx, cy in SHIFT_COEFFS[1:]:
        shift = [-cx * int(d) for d in a] + [-cy * int(d) for d in b]
        prod = prod * np.roll(T, shift=tuple(shift), axis=tuple(range(2 * n)))
    return int(prod.sum())


def unique_triangles_by_edge_scan(h) -> bool:
    """Every edge of each bipartite part of h has exactly one completing
    vertex, by scanning the edges (s, s + t), (s, s + t) and (s, s + 2t) for
    t in h.lam and testing every vertex against lam and 2 lam."""
    L, lam = h.L, set(h.lam)
    lam2 = set((2 * t) % L for t in h.lam)
    for s in range(L):
        for t in h.lam:
            u, v = s, (s + t) % L
            # UV edge: w with w - v in lam and w - u in 2 lam
            if len([w for w in range(L) if (w - v) % L in lam and (w - u) % L in lam2]) != 1:
                return False
            v2, w2 = s, (s + t) % L
            # VW edge: u with v2 - u in lam and w2 - u in 2 lam
            if len([uu for uu in range(L) if (v2 - uu) % L in lam and (w2 - uu) % L in lam2]) != 1:
                return False
            u3, w3 = s, (s + 2 * t) % L
            # UW edge: v with v - u3 in lam and w3 - v in lam
            if len([vv for vv in range(L) if (vv - u3) % L in lam and (w3 - vv) % L in lam]) != 1:
                return False
    return True


# the four-cell patterns of the dependent-direction collisions, one einsum each
PATTERN_SUBSCRIPTS = {
    "A": "avc,bvd,aef,bec->",
    "B": "avc,bef,bgc,hvf->",
    "C": "avc,aef,bvf,beh->",
    "D": "avc,bec,def,ahf->",
}


def pattern_table_by_einsum(h) -> dict:
    """The four-cell pattern table of h: each pattern's count over L^(its letters)."""
    G = h.tensor
    table = {}
    for name, sub in PATTERN_SUBSCRIPTS.items():
        nvars = len(set(sub.replace(",", "").replace("->", "")))
        table[name] = Fraction(int(np.einsum(sub, G, G, G, G, optimize=True)), h.L**nvars)
    return table


def sparse_pattern_max_by_isin(fm: np.ndarray, n: int, chunk_pairs: int = 2_000_000) -> dict:
    """sparse_pattern_max over support-point pairs, with the differences and
    the last two pattern points as digit vectors and membership by np.isin."""
    P = 5**n
    xs, ys = np.nonzero(fm)
    K = len(xs)
    if K == 0:
        return {"max_beta": 0.0, "argmax": None, "support": 0}
    digs = digit_table(5, n)
    packed = np.sort(xs.astype(np.int64) * P + ys.astype(np.int64))
    hits = np.zeros(P * P, dtype=np.int64)
    rows_per_chunk = max(1, chunk_pairs // K)
    for start in range(0, K, rows_per_chunk):
        sel = np.arange(start, min(start + rows_per_chunk, K))
        idx1 = np.repeat(sel, K)
        idx2 = np.tile(np.arange(K), len(sel))
        x1, y1 = xs[idx1], ys[idx1]
        x2, y2 = xs[idx2], ys[idx2]
        da = (digs[x2] - digs[x1]) % 5
        db = (digs[y2] - digs[y1]) % 5
        nonzero = (da.any(axis=1)) | (db.any(axis=1))
        x1, y1, da, db = x1[nonzero], y1[nonzero], da[nonzero], db[nonzero]
        if len(x1) == 0:
            continue
        p3 = encode_digits(digs[x1] + 2 * da, 5) * P + encode_digits(digs[y1] - 2 * db, 5)
        p4 = encode_digits(digs[x1] + 3 * da, 5) * P + encode_digits(digs[y1] - db, 5)
        ok = np.isin(p3, packed) & np.isin(p4, packed)
        hits += np.bincount(encode_digits(da[ok], 5) * P + encode_digits(db[ok], 5), minlength=P * P)
    best_code = int(np.argmax(hits))
    if hits[best_code] == 0:
        return {"max_beta": 0.0, "argmax": None, "support": K}
    a_idx, b_idx = best_code // P, best_code % P
    return {
        "max_beta": float(hits[best_code] / (P * P)),
        "argmax": [list(map(int, digs[a_idx])), list(map(int, digs[b_idx]))],
        "support": K,
    }


def support_pair_hits_by_pair_differences(fm: np.ndarray, n: int, chunk_pairs: int = 2_000_000) -> np.ndarray:
    """support_pair_hits with a = x2 - x1 and -b = y1 - y2 formed for every
    pair, and the third point (x1 + 2a, y1 - 2b) and fourth (x1 + 3a, y1 - b)
    read through the addition table."""
    P = 5**n
    xs, ys = np.nonzero(fm)
    K = len(xs)
    hits = np.zeros(P * P, dtype=np.int64)
    add = add_table(5, n)
    neg, two, three = (linear_perm(5, 1, n, [[c]]) for c in (-1, 2, 3))
    inside = fm.astype(bool)
    rows_per_chunk = max(1, chunk_pairs // max(1, K))
    for start in range(0, K, rows_per_chunk):
        x1 = xs[start:start + rows_per_chunk, None]
        y1 = ys[start:start + rows_per_chunk, None]
        a = add[xs, neg[x1]]
        nb = add[y1, neg[ys]]
        x1, y1 = np.broadcast_to(x1, a.shape), np.broadcast_to(y1, a.shape)
        ok = inside[add[x1, two[a]], add[y1, two[nb]]]
        x1, y1, a, nb = x1[ok], y1[ok], a[ok], nb[ok]
        ok = inside[add[x1, three[a]], add[y1, nb]]
        hits += np.bincount(a[ok].astype(np.int64) * P + neg[nb[ok]], minlength=P * P)
    return hits


def max_ap3_free_by_whole_set_check(L: int) -> list[int]:
    """A maximum 3-AP-free subset of Z/LZ by branch and bound over elements
    in increasing order, testing the whole chosen list at every node."""
    best: list[int] = []

    def extend(start: int, chosen: list[int]):
        nonlocal best
        if len(chosen) + (L - start) <= len(best):
            return
        if start == L:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        chosen.append(start)
        if is_3ap_free(chosen, L):
            extend(start + 1, chosen)
        chosen.pop()
        extend(start + 1, chosen)

    extend(0, [])
    return best


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


def factor_rank_by_combinations(factor) -> int:
    """factor_rank with each nontrivial combination of the quadratic parts
    built as an FpMatrix and ranked on its own by the list loop."""
    p, n = factor.p, factor.n
    if factor.b1 and len(rref_by_lists([list(r) for r in factor.b1], p)[0]) < len(factor.b1):
        return 0
    mats = list(factor.b2) + list(factor.b3)
    best = n
    for coeffs in itertools.product(range(p), repeat=len(mats)):
        if any(coeffs):
            comb = FpMatrix.zero(n, n, p)
            for c, M in zip(coeffs, mats):
                comb = comb.add(M.scale_by(c))
            best = min(best, len(rref_by_lists(comb.to_lists(), p)[0]))
    return best


def _merge_row_histograms(cells: list, counts: list) -> tuple[np.ndarray, np.ndarray]:
    """One histogram from per-difference (rows, counts) pairs, rows sorted."""
    rows, inverse = np.unique(np.concatenate(cells), axis=0, return_inverse=True)
    merged = np.zeros(len(rows), dtype=np.int64)
    np.add.at(merged, inverse.reshape(-1), np.concatenate(counts))
    return rows, merged


def pattern_tuple_histogram_by_rows(factor, J: FpMatrix, restrict_to_H: bool = False):
    """Cells of the pattern-tuple histogram as rows of the four slots' image
    coordinates (X, X+D, X+JD, X+(I+J)D), in lexicographic order; their
    counts; and the number of (X, D) pairs. Translates are rolled indices."""
    p, n, k = factor.p, factor.n, J.rows
    P = p ** (k * n)
    coords = factor_image_coords(factor, k)
    IJ = FpMatrix.identity(k, p).add(J)
    if restrict_to_H:
        d_indices = np.nonzero(np.all(h_coset_labels(factor, k) == 0, axis=1))[0]
    else:
        d_indices = range(P)
    cells, counts = [], []
    for d in d_indices:
        D = grid_decode(p, k, n, int(d))
        shifted = [coords[roll_translate(np.arange(P), p, k * n, S.entries)] for S in (D, J.mul(D), IJ.mul(D))]
        rows, cnt = np.unique(np.concatenate([coords] + shifted, axis=1), axis=0, return_counts=True)
        cells.append(rows)
        counts.append(cnt)
    return (*_merge_row_histograms(cells, counts), P * len(d_indices))


def abstract_atom_histogram_by_rows(factor, k: int):
    """Cells (B(X), B(D), (X M_i D^T)_i, (X N_j D^T)_j) over all (X, D) as
    rows in lexicographic order, and their counts."""
    p, n = factor.p, factor.n
    P = p ** (k * n)
    coords = factor_image_coords(factor, k)
    X = digit_table(p, k * n).reshape(P, k, n)
    cross = [np.einsum("xan,nm,ybm->xyab", X, np.array(M.to_lists(), dtype=np.int64), X) % p
             for M in list(factor.b2) + list(factor.b3)]
    cells, counts = [], []
    for d in range(P):
        parts = [coords, np.broadcast_to(coords[d], coords.shape)] + [arr[:, d].reshape(P, k * k) for arr in cross]
        rows, cnt = np.unique(np.concatenate(parts, axis=1), axis=0, return_counts=True)
        cells.append(rows)
        counts.append(cnt)
    return _merge_row_histograms(cells, counts)


def _symmetry_basis_by_rows(k: int, p: int, kind: str) -> list[FpMatrix]:
    """E_ij + E_ji (symmetric, i <= j) or E_ij - E_ji (skew, i < j), row by
    row, one FpMatrix each."""
    out = []
    for i in range(k):
        for j in range(i + (kind == "skew"), k):
            rows = [[0] * k for _ in range(k)]
            rows[j][i] = 1 if kind == "symmetric" else -1
            rows[i][j] = 1
            out.append(FpMatrix.from_rows(rows, p))
    return out


def _solve_by_generators(generators: list[FpMatrix], condition, p: int) -> list[FpMatrix]:
    """Kernel of a linear matrix map within span(generators): the map's
    matrix has one column per generator image."""
    images = [condition(E).entries for E in generators]
    coeffs = nullspace_by_lists([list(c) for c in zip(*images)], p, ncols=len(generators))
    return [functools.reduce(FpMatrix.add, (E.scale_by(c) for c, E in zip(cvec, generators))) for cvec in coeffs]


def _flat(mats: list[FpMatrix]) -> tuple[int, ...]:
    return tuple(x for M in mats for x in M.entries)


def _orth_complement_by_inner_products(space: SubspaceBasis, ambient: SubspaceBasis) -> SubspaceBasis:
    """Solve <sum_j x_j e_j, w> = 0 for every w in space, one inner product
    per (w, ambient basis vector e_j)."""
    p, m = space.p, ambient.ambient_dim
    es = ambient.array.tolist()
    rows = [[sum(a * b for a, b in zip(e, w)) % p for e in es] for w in space.array.tolist()]
    coeffs = nullspace_by_lists(rows, p, ncols=len(es))
    vecs = [tuple(sum(c * e[i] for c, e in zip(cvec, es)) % p for i in range(m)) for cvec in coeffs]
    return SubspaceBasis(p, m, tuple(vecs), ambient.ambient_kind)


def constraint_spaces_by_generators(J: FpMatrix) -> dict:
    """Xi, Lambda, LambdaPrime, Psi, Omega and OmegaPrime of the pattern (I, J),
    and the complements LambdaPerp and LambdaPrimePerp, each condition applied
    to one FpMatrix generator at a time, each ambient built slot by slot from
    zero matrices, the way patterns.constraint_spaces ran before every space
    became the kernel of one Kronecker operator."""
    p, k = J.p, J.rows
    I = FpMatrix.identity(k, p)
    B = I.add(J).mul(mat_inverse(I.sub(J)))
    Jt = J.transpose()
    full = [FpMatrix(k, k, E, p) for E in np.eye(k * k, dtype=np.int64).tolist()]
    xi = _solve_by_generators(full, lambda A: J.mul(A).sub(J.mul(A).transpose()), p)
    out = {"Xi": SubspaceBasis(p, k * k, tuple(A.entries for A in xi), "matrices")}
    zero = FpMatrix.zero(k, k, p)
    for kind, lam, om in (("symmetric", "Lambda", "Omega"), ("skew", "LambdaPrime", "OmegaPrime")):
        blocks = _symmetry_basis_by_rows(k, p, kind)
        gens = _solve_by_generators(blocks, lambda A: A.mul(J).sub(Jt.mul(A)), p)
        kind4 = f"{kind}-matrix-4-tuples"
        out[lam] = SubspaceBasis(p, 4 * k * k, tuple(_flat([A.neg(), A.mul(B).neg(), A.mul(B), A]) for A in gens), kind4)
        out[om] = SubspaceBasis(p, 2 * k * k, tuple(_flat([A.neg(), A.mul(B).neg()]) for A in gens), "pair-tuples")
        ambient = tuple(_flat([E if s == slot else zero for s in range(4)]) for slot in range(4) for E in blocks)
        out[lam + "Perp"] = _orth_complement_by_inner_products(out[lam], SubspaceBasis(p, 4 * k * k, ambient, kind4))
    # Psi_J: x1 - x2 - x3 + x4 = 0 and x4 - x2 = J(x2 - x1), in F_p^{4k}
    Ir, Jr = I.to_lists(), J.to_lists()
    rows = [[*Ir[a], *(-x for x in Ir[a]), *(-x for x in Ir[a]), *Ir[a]] for a in range(k)]
    rows += [[*Jr[a], *(-x - y for x, y in zip(Jr[a], Ir[a])), *[0] * k, *Ir[a]] for a in range(k)]
    out["Psi"] = SubspaceBasis(p, 4 * k, tuple(map(tuple, nullspace_by_lists(rows, p, ncols=4 * k))), "vectors-of-F_p^k-tuples")
    return out


def lift_window_by_floor(N: int, k: int, epsilon: float) -> tuple[int, float, bool]:
    """(p, eps, widened): the least odd prime p in (N, floor((1 + eps/k) N)],
    eps doubled until the window holds one or eps/k reaches 1, and then the
    least odd prime above N."""
    eps, widened = float(epsilon), False
    while True:
        hi = math.floor((1 + eps / k) * N)
        p = next((q for q in range(N + 1, hi + 1) if is_odd_prime_by_trial_division(q)), None)
        if p is not None:
            return p, eps, widened
        widened, eps = True, eps * 2
        if eps / k >= 1:
            return next(q for q in range(N + 1, 2 * N + 2) if is_odd_prime_by_trial_division(q)), eps, widened


def lift_by_points(A, N: int, M1, M2, epsilon: float) -> dict:
    """threept.lift_to_interval's report, one Bohr difference and one point of
    A at a time. A holds ints (k = 1, with scalar M1, M2) or k-lists."""
    pts = sorted({(a,) if isinstance(a, int) else tuple(a) for a in A})
    k = len(pts[0])
    rows = [M if isinstance(M, list) else [[M]] for M in (M1, M2)]
    p, eps, widened = lift_window_by_floor(N, k, epsilon)
    delta = min(Fraction(eps).limit_denominator(10**6) / (2 * k), Fraction(1, 2))

    def mul(M, v):
        return [sum(a * b for a, b in zip(row, v)) for row in M]

    def add(x, s):
        return tuple(a + b for a, b in zip(x, s))

    def index(v):  # digit 0 least significant
        return sum(c * p**j for j, c in enumerate(v))

    elements = sorted(itertools.product(range(p), repeat=k), key=index)
    bohr = [d for d in elements if all(Fraction(min(v % p, -v % p), p) < delta for v in mul(rows[0] + rows[1], d))]
    lo, hi = math.ceil(eps / k * p), math.floor((1 - eps / k) * p)
    A_set = set(pts)
    band = sorted((x for x in pts if all(lo <= c <= hi for c in x)), key=index)
    best_d, best_count, best_triples = None, -1, []
    audit_total = audit_pass = 0
    for d in bohr[1:]:
        d_int = [c - p if c > p // 2 else c for c in d]
        triples = []
        for x in band:
            if not all(tuple(c % p for c in add(x, mul(M, d))) in A_set for M in rows):
                continue
            audit_total += 1
            t1, t2 = add(x, mul(rows[0], d_int)), add(x, mul(rows[1], d_int))
            if all(1 <= c <= N for c in x + t1 + t2) and {x, t1, t2} <= A_set:
                audit_pass += 1
                triples.append([list(x), list(t1), list(t2)])
        if len(triples) > best_count:
            best_d, best_count, best_triples = d_int, len(triples), triples[:10]
    return {"p": p, "k": k, "epsilon_effective": eps, "widened": widened, "bohr_size": len(bohr),
            "best_d": best_d, "best_count": max(best_count, 0), "audit_total": audit_total,
            "audit_pass": audit_pass, "audit_ok": audit_total == audit_pass, "sample_triples": best_triples}

"""The rotated-squares counterexample pipeline over F_5.

Stages: exact verification of the generic-direction core (the 73/5^5 table),
the unique-triangle hypergraphon dressing that kills linearly dependent
directions, and the random-affine assembly that kills axis directions.
Exact rational arithmetic for everything certifiable; seeded Monte Carlo
(with standard errors reported) for the asymptotic-only content.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import DEFAULT_GUARD
from ._grid import add_table, decode_index, digit_table, encode_index, linear_perm
from ._pcg64 import _LOW32, _pcg64_at, _pcg64_streams, _uniform_tables
from .errors import DependentDirections, TooLarge, check_guard, ensure
from .ffalg import inverse_stack, nullspace, row_space_rank
from .patterns import SubspaceBasis
from .analysis import EquidistributionReport, FLOAT_SLACK

P5 = 5

# the 10-point core set in F_5^2 and the vectors cutting out its 5-dim support
S_POINTS = ((0, 2), (0, 3), (0, 4), (1, 0), (1, 3), (1, 4), (2, 1), (2, 2), (3, 0), (3, 1))
LAMBDA2_ORTHO = (
    (1, 0, -1, 0, -1, 0, 1, 0),
    (0, 1, 0, -1, 0, -1, 0, 1),
    (1, 0, -3, 0, 3, 0, -1, 0),
)
REMARK_VECTOR = (0, 0, 0, 1, 0, -4, 0, -3)

# diagonalized pattern: (x,y), (x+a,y+b), (x+2a,y-2b), (x+3a,y-b)
SHIFT_COEFFS = ((0, 0), (1, 1), (2, -2), (3, -1))

# F2 and F3 table-index maps: coefficients (alpha, beta) of alpha*x + beta*y
F2_COMBOS = ((-1, -1), (-2, 2), (2, 1))
F3_COMBOS = ((-1, -2), (-2, -1), (2, 2))


@dataclass(frozen=True, eq=False)  # immutable and hashed by identity, so _f1_cached can cache per core
class CexCore:
    S: tuple[tuple[int, int], ...]
    g1: np.ndarray  # 5x5 0/1 table, g1[u, v]
    Lambda2: SubspaceBasis

    def __post_init__(self):
        ensure(len(self.S) == 10, "CexCore: S must have 10 points")


def build_core() -> CexCore:
    g1 = np.zeros((5, 5), dtype=np.int64)
    for u, v in S_POINTS:
        g1[u, v] = 1
    g1.setflags(write=False)
    lam2 = SubspaceBasis(P5, 8, nullspace(LAMBDA2_ORTHO, P5, ncols=8), "eight-tuples")
    ensure(lam2.dim == 5, f"build_core: Lambda2 has dimension {lam2.dim}, not 5")
    ensure(lam2.contains(REMARK_VECTOR), "build_core: Lambda2 misses the remark vector")
    return CexCore(S_POINTS, g1, lam2)


def lambda2_points(core: CexCore) -> np.ndarray:
    """All 5^5 points of the support subspace, shape (3125, 8)."""
    coeffs = digit_table(P5, 5)
    basis = core.Lambda2.array
    return (coeffs @ basis) % P5


def core_expectation_table(core: CexCore) -> dict:
    """Exact per-shift averages of the four-fold g1 product over the support
    subspace; the sup over shifts is the generic-direction pattern density."""
    pts = lambda2_points(core)
    g1 = core.g1
    table: dict[int, Fraction] = {}
    for aa in range(5):
        # point c = (x + cx a, y + cy b) has x.x shifted by cx^2 a.a
        vals = np.prod([g1[(pts[:, 2 * c] + cx * cx * aa) % 5, pts[:, 2 * c + 1]]
                        for c, (cx, _) in enumerate(SHIFT_COEFFS)], axis=0)
        table[aa] = Fraction(int(vals.sum()), len(pts))
    sup = max(table.values())
    argmax = max(table, key=lambda a: (table[a], -a))
    mean_g1 = Fraction(int(core.g1.sum()), 25)
    return {
        "table": table,
        "sup": sup,
        "argmax": argmax,
        "mean_g1": mean_g1,
        "strict": sup < mean_g1**4,
    }


# ---------------------------------------------------------------------------
# f1 and the eight-tuple distribution


def f1_matrix(core: CexCore, n: int, guard: int = DEFAULT_GUARD) -> np.ndarray:
    """f1 as a read-only (5^n, 5^n) 0/1 matrix indexed by (x index, y index)."""
    check_guard("5^(2n)", 5 ** (2 * n), guard)
    return _f1_cached(core, n)


@functools.lru_cache(maxsize=1)
def _f1_cached(core: CexCore, n: int) -> np.ndarray:
    """The matrix of f1_matrix, kept for the last (core, n); the guard is checked outside the cache.
    x.x and x.y are built digit by digit in uint8: with x = 5^m a + x' and y = 5^m b + y', x.x is
    a^2 + x'.x' and x.y is a b + x'.y'. Bit u of rows[c, v] is g1[v, (u + c) mod 5], so the block
    of top digits (a, b) of f1 is rows[a b, x.x] shifted right by x'.y'."""
    d = np.arange(P5, dtype=np.uint8)
    sq, ab = d * d % P5, np.multiply.outer(d, d) % P5
    xx, xy = np.zeros(1, dtype=np.uint8), np.zeros((1, 1), dtype=np.uint8)  # of the low digits x', y'
    for _ in range(n - 1):
        xy = (ab[:, None, :, None] + xy[None, :, None, :]).reshape(5 * len(xx), -1) % P5
        xx = (sq[:, None] + xx).reshape(-1) % P5
    rows = (core.g1[:, (d[:, None] + d) % P5] << d).sum(axis=-1).T.astype(np.uint8)
    F = rows[ab[:, None, :], ((sq[:, None] + xx) % P5)[..., None], None] >> xy[None, :, None, :] & 1
    F = F.reshape(5**n, 5**n)
    F.setflags(write=False)
    return F


def f1_exact_mean(core: CexCore, n: int, guard: int = DEFAULT_GUARD) -> Fraction:
    F = f1_matrix(core, n, guard)
    return Fraction(int(F.sum()), F.size)


def support_pattern_counts(F: np.ndarray, n: int, differences) -> list[int]:
    """sum over (x, y) of prod_c F(x + cx a, y + cy b) over SHIFT_COEFFS, for
    each (a, b) in differences, of the (x, y)-indexed (5^n, 5^n) matrix F.

    Only the support of F contributes, so each block of rows is scanned once
    for its nonzero points, whose int64 values are multiplied by F read at the
    shifted points through rows of the addition table."""
    P = 5**n
    add = add_table(P5, n)
    reads = [[(add[encode_index(P5, cx * np.asarray(a))], add[encode_index(P5, cy * np.asarray(b))])
              for cx, cy in SHIFT_COEFFS[1:]] for a, b in differences]
    counts = [0] * len(differences)
    step = max(1, 2**16 // P)
    for start in range(0, P, step):
        xs, ys = np.nonzero(F[start:start + step])
        xs += start
        weights = F[xs, ys].astype(np.int64)
        for i, shifted in enumerate(reads):
            prod = weights
            for row_x, row_y in shifted:
                prod = prod * F[row_x[xs], row_y[ys]]
            counts[i] += int(prod.sum())
    return counts


def eight_tuple_distribution(a, b, n: int, guard: int = DEFAULT_GUARD) -> EquidistributionReport:
    """Exact histogram of the eight quadratic/bilinear values along the
    diagonal pattern, for fixed independent directions a, b.

    The support is checked exactly against the predicted coset of the
    five-dimensional subspace; the report also records whether every coset
    point is attained and whether the observed points affinely span it.
    """
    a = np.asarray(a, dtype=np.int64) % 5
    b = np.asarray(b, dtype=np.int64) % 5
    if len(a) != n or len(b) != n:
        raise DependentDirections("direction vectors must have length n")
    if not a.any() or not b.any() or row_space_rank([a, b], 5) < 2:
        raise DependentDirections("a, b must be nonzero and not multiples of each other")
    check_guard("5^(2n)", 5 ** (2 * n), guard)
    digs = digit_table(P5, n)
    P = 5**n
    la = (digs @ a) % 5
    lb = (digs @ b) % 5
    q = np.einsum("xi,xi->x", digs, digs) % 5
    # joint histogram of the five primitive forms (x.a, x.b, x.x, x.y, a.y); a.y is la at y
    hist = np.zeros(5**5, dtype=np.int64)
    base3 = (la * 5 + lb) * 5 + q
    for xi in range(P):
        u = (digs[xi] @ digs.T) % 5  # x.y over all y
        codes = base3[xi] * 25 + u * 5 + la
        hist += np.bincount(codes, minlength=5**5)
    cells5 = np.nonzero(hist)[0]
    counts = hist[cells5]

    aa = int(a @ a % 5)
    ab = int(a @ b % 5)
    # map observed 5-tuples (s, t, q, u, v) to the 8-tuple: point c = (x + cx a, y + cy b) has
    # x.x = q + 2 cx s + cx^2 a.a and x.y = u + cy t + cx v + cx cy a.b; base8 is the tuple at x = y = 0
    v_, u_, q_, t_, s_ = digit_table(P5, 5)[cells5].T
    base8 = np.array([m for cx, cy in SHIFT_COEFFS for m in (cx * cx * aa, cx * cy * ab)]) % 5
    T = (np.stack([m for cx, cy in SHIFT_COEFFS for m in (q_ + 2 * cx * s_, u_ + cy * t_ + cx * v_)], axis=1)
         + base8) % 5
    ortho = np.array([[x % 5 for x in w] for w in LAMBDA2_ORTHO], dtype=np.int64)
    support_ok = bool(np.all((T - base8) @ ortho.T % 5 == 0))
    # affine hull of the observed tuples
    diffs = (T - T[0]) % 5
    hull_dim = row_space_rank(diffs, 5)
    return EquidistributionReport.from_counts(
        counts, 5 ** (2 * n), P5, 5, support_ok,
        extras={
            "hull_dim": hull_dim,
            "hull_equal": support_ok and hull_dim == 5,
            "missing_cells": 5**5 - len(cells5),
        },
    )


# ---------------------------------------------------------------------------
# Progression-free sets and the hypergraphon


def is_3ap_free(s, L: int) -> bool:
    """No x, t with t != 0 and x, x+t, x+2t all in s (progressions mod L)."""
    ss = set(v % L for v in s)
    for x in ss:
        for t in range(1, L):
            if (x + t) % L in ss and (x + 2 * t) % L in ss:
                return False
    return True


def ap3_free_set(L: int, method: str = "greedy") -> tuple[int, ...]:
    """A 3-AP-free subset of Z/LZ; 'exhaustive-max' is a maximum one (L <= 30),
    'behrend' uses the digit-sphere construction inside [0, L/2)."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if method == "greedy":
        out: list[int] = []
        for v in range(L):
            if is_3ap_free(out + [v], L):
                out.append(v)
        result = tuple(out)
    elif method == "exhaustive-max":
        if L > 30:
            raise TooLarge("exhaustive-max supports L <= 30")
        result = tuple(_max_ap3_free(L))
    elif method == "behrend":
        result = tuple(_behrend_set(L))
    else:
        raise ValueError(f"unknown method {method!r}")
    ensure(is_3ap_free(result, L), f"ap3_free_set: {method} output is not 3-AP-free")
    return result


def _max_ap3_free(L: int) -> list[int]:
    """Branch and bound over elements in increasing order. blocked[r] counts the 3-APs that r
    would complete with the chosen elements: with each chosen y, v makes one with 2v - y, 2y - v
    and each m of mids[v + y], 2m = v + y; y = v blocks v + L/2 (t = L/2) at even L."""
    best: list[int] = []
    blocked = [0] * L
    mids = [[s * (L + 1) // 2 % L] if L % 2 else [] if s % 2 else [s // 2 % L, (s // 2 + L // 2) % L] for s in range(2 * L)]

    def completions(v: int, chosen: list[int]) -> list[int]:
        out = []
        for y in chosen + [v]:
            out += [(2 * v - y) % L, (2 * y - v) % L] + mids[v + y]
        return out

    def extend(start: int, chosen: list[int]):
        nonlocal best
        if len(chosen) + (L - start) <= len(best):
            return
        if start == L:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        if not blocked[start]:
            marks = completions(start, chosen)
            for r in marks:
                blocked[r] += 1
            chosen.append(start)
            extend(start + 1, chosen)
            chosen.pop()
            for r in marks:
                blocked[r] -= 1
        extend(start + 1, chosen)

    extend(0, [])
    return best


def _behrend_set(L: int) -> list[int]:
    """Digit-sphere set inside [0, ceil(L/2)): no mod-L 3-AP since sums stay
    below L."""
    half = (L + 1) // 2
    best: list[int] = [0] if half else []
    for d in range(2, 8):
        base = 2 * d - 1
        m = 1
        while base ** (m + 1) <= half:
            m += 1
        if base**m > half:
            continue
        from collections import defaultdict

        spheres = defaultdict(list)
        for val in range(base**m):
            digits = []
            t = val
            ok = True
            for _ in range(m):
                digits.append(t % base)
                if t % base >= d:
                    ok = False
                    break
                t //= base
            if not ok:
                continue
            spheres[sum(x * x for x in digits)].append(val)
        for sphere in spheres.values():
            cand = [v for v in sphere if v < half]
            if len(cand) > len(best):
                best = cand
    return sorted(best)


@dataclass(frozen=True)
class Hypergraphon:
    """Tripartite cell indicator built from a 3-AP-free set: the cells
    (s, s+t, s+2t) mod L for t in the set; every edge lies in a unique
    triangle."""

    L: int
    lam: tuple[int, ...]

    def __post_init__(self):
        if not is_3ap_free(self.lam, self.L):
            raise ValueError("the difference set must be 3-AP-free mod L")

    @functools.cached_property
    def tensor(self) -> np.ndarray:
        """The read-only 0/1 (L, L, L) cell indicator, built once."""
        G = np.zeros((self.L, self.L, self.L), dtype=np.int64)
        s, t = np.arange(self.L)[:, None], np.array(self.lam, dtype=np.int64)
        G[s, (s + t) % self.L, (s + 2 * t) % self.L] = 1
        G.setflags(write=False)
        return G

    def cells(self, u: np.ndarray) -> np.ndarray:
        return np.floor(self.L * u).astype(np.int64) % self.L


def unique_triangle_check(h: Hypergraphon) -> bool:
    """Every edge of each bipartite part has exactly one completing vertex.

    The parts are the projections of the cell indicator; an edge's
    completions are counted by one integer product of the other two parts."""
    uv, vw, uw = (h.tensor.any(axis=axis).astype(np.int64) for axis in (2, 0, 1))
    return all((counts[edges > 0] == 1).all() for edges, counts in ((uv, uw @ vw.T), (vw, uv.T @ uw), (uw, uv @ vw)))


def hypergraph_expectations(h: Hypergraphon) -> dict:
    """Exact mean and four-cell pattern expectations of the hypergraphon.

    mean = |lam| / L^2; the unique-triangle-forced pattern equals
    |lam| / L^6 exactly; the loose pattern is at most L^{-4}. The four-cell
    table is the class b = a of class_pattern_expectations: A = C is its F2
    product and B = D its F3 product.
    """
    if h.L > 30:
        raise TooLarge("exact pattern enumeration supports L <= 30")
    L = h.L
    mean = Fraction(int(h.tensor.sum()), L**3)
    patternA, patternB = class_pattern_expectations(h, 1)
    expected = Fraction(len(h.lam), L**6)
    return {
        "L": L,
        "lam": list(h.lam),
        "mean_g2": mean,
        "patternA": patternA,
        "patternA_expected": expected,
        "patternA_matches": patternA == expected,
        "patternB": patternB,
        "patternB_bound_holds": patternB <= Fraction(1, L**4),
        "unique_triangles_ok": unique_triangle_check(h),
        "pattern_table": {"A": patternA, "B": patternB, "C": patternA, "D": patternB},
    }


# ---------------------------------------------------------------------------
# Dressing


@dataclass(frozen=True)
class DressingParams:
    seed: int
    n: int
    gamma: int

    def __post_init__(self):
        if not (1 <= self.gamma <= self.n):
            raise ValueError("gamma must satisfy 1 <= gamma <= n")

    @property
    def beta(self) -> Fraction:
        return Fraction(3, 5) ** self.gamma


def _dressed_h_support(core: CexCore, h: Hypergraphon, n: int, master_seed: int, seed_index: int,
                       guard: int = DEFAULT_GUARD) -> tuple[np.ndarray, np.ndarray]:
    """The support (xs, ys) of one sample of h = f1 * F2 * F3, ordered by y, then x.

    A table read at alpha*x + beta*y = alpha*(r*y + x), r = beta/alpha, is
    cells(alpha *)[add][lin_r] in (y, x) order, since add is symmetric: whole
    rows of add, gathered. The three cells of F2 fold into one small-int code
    (cu L + cv) L + cw, looked up once in the flattened hypergraphon; f1 F2 is
    formed in (y, x) order. Where f1 F2 is 0, h is 0 whatever F3 reads, so F3
    is read only at the support of f1 F2, and h's support is what F3 keeps of it.
    """
    P = 5**n
    f1 = f1_matrix(core, n, guard)
    add = add_table(P5, n)
    L, g2 = h.L, h.tensor.reshape(-1).astype(np.uint8)
    code_type = np.min_scalar_type(L**3 - 1)
    cells = [h.cells(u) for u in _uniform_tables([[master_seed, seed_index]], 6, P)]
    lin = {c: linear_perm(P5, 1, n, [[c]]) for c in range(1, P5)}
    code = np.zeros((P, P), dtype=code_type)
    step = max(1, 2**16 // P)  # np.take copies its int32 indices to intp: a block of rows at a time
    for cell, (alpha, beta) in zip(cells, F2_COMBOS):
        table, rows = cell.astype(code_type)[lin[alpha % P5]], lin[beta * pow(alpha, -1, P5) % P5]
        code *= L
        for start in range(0, P, step):
            code[start:start + step] += np.take(table, add[rows[start:start + step]])
    ys, xs = np.nonzero(f1.T * g2[code])
    code = np.zeros(len(xs), dtype=np.int64)
    for cell, (alpha, beta) in zip(cells[3:], F3_COMBOS):
        code = code * L + cell[add[lin[alpha % P5][xs], lin[beta % P5][ys]]]
    keep = g2[code].astype(bool)
    return xs[keep], ys[keep]


def dressed_h_matrix(core: CexCore, h: Hypergraphon, n: int, master_seed: int, seed_index: int,
                     guard: int = DEFAULT_GUARD) -> np.ndarray:
    """One sample of h = f1 * F2 * F3 as a (5^n, 5^n) 0/1 uint8 matrix: the view of _dressed_h_support."""
    xs, ys = _dressed_h_support(core, h, n, master_seed, seed_index, guard)
    out = np.zeros((5**n, 5**n), dtype=np.uint8)
    out[xs, ys] = 1
    return out


def _difference_class(a, b):
    """Dependency class of a difference (a, b) over F_5: 'generic' when a, b
    are independent, else lambda with b = lambda * a, 'a0' when b = 0, or
    '0b' when a = 0. The zero difference has no class."""
    a, b = np.asarray(a, dtype=np.int64) % 5, np.asarray(b, dtype=np.int64) % 5
    if not a.any() and not b.any():
        raise DependentDirections("the difference (a, b) = (0, 0) has no dependency class")
    if not b.any():
        return "a0"
    if not a.any():
        return "0b"
    if row_space_rank([a, b], 5) == 2:
        return "generic"
    i = int(np.flatnonzero(a)[0])
    return int(b[i]) * pow(int(a[i]), -1, 5) % 5


def class_pattern_expectations(h: Hypergraphon, lam_class) -> tuple[Fraction, Fraction]:
    """Exact expectations of the two four-fold g2 products for difference
    class b = lam_class * a (lam_class in F_5, or the symbols 'a0'/'0b'),
    derived from the table-index collisions: point (cx, cy) of SHIFT_COEFFS reads
    table (alpha, beta) at alpha cx a + beta cy b, and reads of one table at
    one scalar offset share an einsum letter."""

    def scalar_offset(ca, cb):
        if lam_class == "a0":
            return ca % 5  # b = 0: offsets are multiples of a
        if lam_class == "0b":
            return cb % 5  # a = 0
        return (ca + cb * lam_class) % 5

    G = h.tensor
    out = []
    for combos in (F2_COMBOS, F3_COMBOS):
        letters = {}
        subs = []
        for cx, cy in SHIFT_COEFFS:
            keys = [(tid, scalar_offset(alpha * cx, beta * cy)) for tid, (alpha, beta) in enumerate(combos)]
            for key in keys:
                letters.setdefault(key, "abcdefghijklmnopqrstuvwx"[len(letters)])
            subs.append("".join(letters[key] for key in keys))
        nvars = len(letters)
        cnt = int(np.einsum(",".join(subs) + "->", G, G, G, G, optimize=True))
        out.append(Fraction(cnt, h.L**nvars))
    return out[0], out[1]


def dress_and_measure(
    core: CexCore,
    h: Hypergraphon,
    n: int,
    seeds: int,
    master_seed: int,
    differences: list | None = None,
    guard: int = DEFAULT_GUARD,
) -> dict:
    """Monte Carlo means (with standard errors) of alpha_h and beta_h over
    seeded dressings, against the exact product-formula predictions.

    Differences are (label, a, b) triples; the default list has one generic
    pair (when n > 1, so that one exists) plus one representative of each
    dependency class b = lambda * a, b = 0, and a = 0. Each prediction
    follows the class of (a, b), whatever the label says. A mean is within
    when it lies 3 max(SE, 1/(5^(2n) sqrt(seeds))) + 1e-9 or less from its
    prediction: seeds that all measure one value have an SE of 0, which is no
    evidence, so the window never falls below the per-seed resolution over
    sqrt(seeds).
    """
    if n < 1 or seeds < 2:  # an SE needs two samples
        raise ValueError(f"n must be at least 1 and seeds at least 2, got n = {n}, seeds = {seeds}")
    P = 5**n
    exps = hypergraph_expectations(h)
    mean_g2 = exps["mean_g2"]
    if differences is None:
        a = np.zeros(n, dtype=np.int64)
        a[0] = 1
        b = np.zeros(n, dtype=np.int64)
        b[1 % n] = 1
        differences = [("generic", a, b)] if n > 1 else []
        for lam in (1, 2, 3, 4):
            differences.append((f"b={lam}a", a, (lam * a) % 5))
        differences.append(("b=0", a, np.zeros(n, dtype=np.int64)))
        differences.append(("a=0", np.zeros(n, dtype=np.int64), b))

    classes = [_difference_class(a, b) for _, a, b in differences]
    pairs = [(a, b) for _, a, b in differences]
    alphas = []
    betas = [[] for _ in differences]
    for sidx in range(seeds):
        hm = dressed_h_matrix(core, h, n, master_seed, sidx, guard)
        alphas.append(hm.sum() / hm.size)
        for series, count in zip(betas, support_pattern_counts(hm, n, pairs)):
            series.append(count / hm.size)

    def within(measured, se, predicted):
        return abs(measured - predicted) <= 3 * max(se, 1 / (P * P * math.sqrt(seeds))) + FLOAT_SLACK

    def mc(vals):
        arr = np.asarray(vals, dtype=np.float64)
        return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))

    alpha_mean, alpha_se = mc(alphas)
    alpha_pred = f1_exact_mean(core, n, guard) * mean_g2**2
    report = {
        "n": n,
        "L": h.L,
        "seeds": seeds,
        "master_seed": master_seed,
        "alpha": {
            "measured": alpha_mean,
            "se": alpha_se,
            "predicted": float(alpha_pred),
            "within": within(alpha_mean, alpha_se, float(alpha_pred)),
            "series": [float(a) for a in alphas],
        },
        "differences": [],
    }
    f1_counts = support_pattern_counts(f1_matrix(core, n, guard), n, pairs)
    for (label, a, b), lam_class, series, count in zip(differences, classes, betas, f1_counts):
        beta1 = Fraction(count, P * P)
        if lam_class == "generic":
            factor = mean_g2**8
        else:
            e1, e2 = class_pattern_expectations(h, lam_class)
            factor = e1 * e2
        pred = beta1 * factor
        m, se = mc(series)
        report["differences"].append(
            {
                "label": label,
                "a": [int(x) for x in np.asarray(a) % 5],
                "b": [int(x) for x in np.asarray(b) % 5],
                "measured": m,
                "se": se,
                "predicted": float(pred),
                "beta1_exact": beta1,
                "within": within(m, se, float(pred)),
                "series": [float(x) for x in series],
            }
        )
    return report


# ---------------------------------------------------------------------------
# Final assembly


def has_nontrivial_4ap(digits: tuple[int, ...], p: int = 5) -> bool:
    dset = set(digits)
    for x in range(p):
        for t in range(1, p):
            if all((x + i * t) % p in dset for i in range(4)):
                return True
    return False


def _integers5(base: np.ndarray, inc: np.ndarray, drawn: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """integers(0, 5, count) of each PCG64 generator after its drawn earlier draws, shape
    (rows, count), and the rows that met a zero half. Like numpy, draw j takes 32-bit half j of
    the stream, low half first, and Lemire's method maps it to (5 half) >> 32; it rejects only a
    zero half ((2^32 - 5) mod 5 = 1), so a flagged row's draws are not numpy's. Each output read
    serves two draws."""
    odd = drawn % 2
    t = (drawn // 2)[:, None] + np.arange((count + 1 + int(odd.any())) // 2)
    halves = _pcg64_at(base, inc, t)[:, :, None] >> np.array([0, 32], dtype=np.uint64) & _LOW32
    halves = np.take_along_axis(halves.reshape(len(t), 2 * t.shape[1]), odd[:, None] + np.arange(count), axis=1)
    halves = halves.astype(np.int64)
    return (halves * 5) >> 32, (halves == 0).any(axis=1)


def _affine_membership(n: int, gamma: int, master_seed: int, supports) -> list[tuple[np.ndarray, np.ndarray]]:
    """[x in phi_y(T)] and [y in phi'_x(T)] at each point (xs[i], ys[i]) of
    each (seed_index, xs, ys) of supports. phi_g(t) = A t + c is drawn from
    generator g of the seed's table 101 (phi) or 102 (phi'): A by rejection
    until invertible over F_5, then c. Only the generators the points read are
    drawn, each by position past its own draw count; one whose halves held a
    zero is redrawn whole through numpy. z is in phi_g(T), T = {t : t_i < 3 for
    i < gamma}, when the first gamma coordinates of A^-1 (z - c) are all below 3."""
    P = 5**n
    keys = [[int(master_seed), int(sidx), tid] for sidx, _, _ in supports for tid in (101, 102)]
    # table j of seed i reads its generator row (2 i + j) P + y (phi) or + x (phi') at the point's x or y
    gens = np.concatenate([(2 * i + j) * P + g for i, (_, xs, ys) in enumerate(supports) for j, g in enumerate((ys, xs))])
    points = np.concatenate([z for _, xs, ys in supports for z in (xs, ys)])
    need = np.flatnonzero(np.bincount(gens, minlength=len(keys) * P))
    base, inc = (w[need] for w in _pcg64_streams(keys, P))
    drawn, redraw = np.zeros(len(need), dtype=np.int64), np.zeros(len(need), dtype=bool)  # by position in need
    inverse, todo = np.empty((len(need), gamma, n), dtype=np.int64), np.arange(len(need))
    while len(todo):
        A, zero = _integers5(base[todo], inc[todo], drawn[todo], n * n)
        drawn[todo] += n * n
        redraw[todo] = zero
        invertible, inv = inverse_stack(A.reshape(-1, n, n), P5)
        inverse[todo], todo = inv[:, :gamma], todo[~invertible & ~zero]
    c, zero = _integers5(base, inc, drawn, n)
    for i in np.flatnonzero(redraw | zero).tolist():
        rng, invertible = np.random.default_rng(keys[need[i] // P] + [int(need[i] % P)]), [False]
        while not invertible[0]:
            invertible, inv = inverse_stack(rng.integers(0, 5, (1, n, n)), P5)
        inverse[i], c[i] = inv[0, :gamma], rng.integers(0, 5, n)
    at = np.searchsorted(need, gens)
    t = np.einsum("kij,kj->ki", inverse[at], digit_table(P5, n)[points] - c[at]) % P5
    found = np.split((t < 3).all(axis=1), np.cumsum([len(xs) for _, xs, _ in supports for _ in (101, 102)])[:-1])
    return list(zip(found[0::2], found[1::2]))


def assembly_subchecks() -> dict:
    """The exact subchecks of the assembly: the digit set {0,1,2} has no
    nontrivial 4-AP mod 5, log(25/3) / log(5/3) >= 4.15, and
    (3/25)^g <= ((3/5)^g)^4.15 for g = 1..12."""
    exponent = math.log(25 / 3) / math.log(5 / 3)
    return {
        "digit_set_4ap_free": not has_nontrivial_4ap((0, 1, 2)),
        "exponent_value": exponent,
        "exponent_ok": exponent >= 4.15,
        "gamma_bound_ok": all((3 / 25) ** g <= ((3 / 5) ** g) ** 4.15 for g in range(1, 13)),
    }


_STACK_ROWS = 2**14  # generator rows of one _affine_membership call, which bounds its arrays at n = 5


def final_assembly(core: CexCore, h: Hypergraphon, params: DressingParams, seed_index: int = 0,
                   guard: int = DEFAULT_GUARD) -> dict:
    """One seeded end-to-end sample: f = h * [x in phi(y)T] * [y in phi'(x)T],
    with the exact assembly_subchecks; the one-seed case of assemble_seeds."""
    return assemble_seeds(core, h, params, [seed_index], guard)[0]


def assemble_seeds(core: CexCore, h: Hypergraphon, params: DressingParams, seed_indices,
                   guard: int = DEFAULT_GUARD) -> list[dict]:
    """final_assembly at each seed index. Each seed is dressed in turn and
    keeps only the support of h; the affine memberships are tested there,
    with up to _STACK_ROWS // (2 5^n) seeds' maps drawn from one stack."""
    n, gamma, P = params.n, params.gamma, 5**params.n
    supports = [(sidx, *_dressed_h_support(core, h, n, params.seed, sidx, guard)) for sidx in seed_indices]
    per_stack, subchecks, reps = max(1, _STACK_ROWS // (2 * P)), assembly_subchecks(), []
    for start in range(0, len(supports), per_stack):
        batch = supports[start:start + per_stack]
        for (sidx, xs, ys), found in zip(batch, _affine_membership(n, gamma, params.seed, batch)):
            keep = np.logical_and(*found)
            sparse = sparse_pattern_max(xs[keep], ys[keep], n)
            alpha_f = sparse["support"] / (P * P)
            reps.append({"n": n, "gamma": gamma, "L": h.L, "seed": params.seed, "seed_index": sidx,
                         "alpha_f": alpha_f, "alpha_h": len(xs) / (P * P), "beta_T": float(params.beta),
                         "support_size": sparse["support"], "subchecks": subchecks,
                         "max_nonzero_beta": sparse["max_beta"], "argmax_ab": sparse["argmax"],
                         "max_ratio_to_alpha4": (sparse["max_beta"] / alpha_f**4) if alpha_f > 0 else None})  # undefined on an empty support
    return reps


def support_pair_hits(xs: np.ndarray, ys: np.ndarray, n: int, chunk_pairs: int = 2_000_000) -> np.ndarray:
    """Histogram over codes a P + b of the pairs of support points, the
    distinct points (xs[i], ys[i]) of a 0/1 matrix on F_5^n x F_5^n, that open
    a pattern (as its first two points) whose last two points lie in the
    support; the zero difference counts each support point once. Per block
    of about chunk_pairs pairs, the int32 code x3 P + y3 (P^2 < 2^31 to n = 6) of
    the third point (2 x2 - x1, 3 y1 - 2 y2) is read off rows of the addition
    table, and a, b and the fourth point are formed for its survivors only."""
    P, K = 5**n, len(xs)
    add, inside = add_table(P5, n), np.zeros((P, P), dtype=bool)
    inside[xs, ys] = True
    neg, two, three = (linear_perm(P5, 1, n, [[c]]) for c in (-1, 2, 3))
    two_x2, neg_two_y2 = two[xs], neg[two[ys]]
    rows_per_chunk, codes = max(1, chunk_pairs // max(1, K)), [np.zeros(0, dtype=np.int64)]
    for start in range(0, K, rows_per_chunk):
        x1, y1 = xs[start:start + rows_per_chunk], ys[start:start + rows_per_chunk]
        third = np.take(add[neg[x1]] * np.int32(P), two_x2, axis=1)
        third += np.take(add[three[y1]], neg_two_y2, axis=1)
        i, j = np.divmod(np.flatnonzero(np.take(inside.reshape(-1), third, mode="clip")), K)
        x1, y1 = x1[i], y1[i]
        a, nb = add[xs[j], neg[x1]], add[y1, neg[ys[j]]]  # x2 - x1 and -(y2 - y1)
        ok = inside[add[x1, three[a]], add[y1, nb]]  # the fourth point (x1 + 3a, y1 - b)
        codes.append(a[ok].astype(np.int64) * P + neg[nb[ok]])
    return np.bincount(np.concatenate(codes), minlength=P * P)


def sparse_pattern_max(xs: np.ndarray, ys: np.ndarray, n: int, chunk_pairs: int = 2_000_000) -> dict:
    """Exhaustive max over nonzero differences (a, b) of the pattern count of
    the 0/1 matrix whose support is the distinct points (xs[i], ys[i]), from
    the support_pair_hits histogram, whose first argmax is the smallest code
    a P + b among the maxima."""
    P = 5**n
    hits = support_pair_hits(xs, ys, n, chunk_pairs)
    K, hits[0] = int(hits[0]), 0  # the zero difference: every support point paired with itself
    best_code = int(np.argmax(hits))
    if hits[best_code] == 0:
        return {"max_beta": 0.0, "argmax": None, "support": K}
    return {
        "max_beta": float(hits[best_code] / (P * P)),
        "argmax": [decode_index(P5, n, best_code // P), decode_index(P5, n, best_code % P)],
        "support": K,
    }


def _median(values: list[float]) -> float:
    """np.median of floats without its numpy.ma import: the middle value, or the mean of the two middle ones."""
    v, mid = sorted(values), len(values) // 2
    return float(v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2)


def cex_report(core: CexCore, h: Hypergraphon, params: DressingParams, seeds: int = 50,
               guard: int = DEFAULT_GUARD) -> dict:
    """End-to-end report on the hypergraphon h: exact certified inequalities
    (core table, hypergraph identities, digit-set subchecks) plus the per-seed exhaustive max of
    beta(a, b) / alpha^4 for the assembled function.

    The absolute constant of the no-popular-difference statement is labelled
    not certified: it needs L and gamma beyond desk scale."""
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    table = core_expectation_table(core)
    exps = hypergraph_expectations(h)
    reps = assemble_seeds(core, h, params, range(seeds), guard)
    subchecks = reps[0]["subchecks"]
    ratios = [math.inf if rep["max_ratio_to_alpha4"] is None else rep["max_ratio_to_alpha4"] for rep in reps]
    alphas = [rep["alpha_f"] for rep in reps]
    quantiles = (float(np.min(ratios)), _median(ratios), float(np.max(ratios)))
    core_ratio = table["sup"] / table["mean_g1"] ** 4
    return {
        "params": {"n": params.n, "L": h.L, "gamma": params.gamma, "seed": params.seed},
        "seeds": seeds,
        "certified": {
            "core_sup": table["sup"],
            "core_mean": table["mean_g1"],
            "core_ratio_num_den": [core_ratio.numerator, core_ratio.denominator],
            "core_strict": table["strict"],
            "hypergraph_patternA_matches": exps["patternA_matches"],
            "hypergraph_patternB_bound": exps["patternB_bound_holds"],
            "unique_triangles": exps["unique_triangles_ok"],
            "digit_set_4ap_free": subchecks["digit_set_4ap_free"],
            "exponent_ok": subchecks["exponent_ok"],
        },
        "monte_carlo": {
            "seeds_with_max_ratio_below_1": sum(1 for r in ratios if r < 1.0),
            "mean_alpha_f": float(np.mean(alphas)),
            "max_ratio_quantiles": [q if q < math.inf else None for q in quantiles],
        },
        "scope": {
            "constant_c_certified": False,
            "note": "the assembled no-popular-difference constant requires L and gamma beyond desk scale; only the component inequalities above are certified exactly",
        },
    }

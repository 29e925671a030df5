"""Slow, independent re-computations of the vectorized paths.

Each test recomputes a quantity with explicit loops (or an alternative
formulation) and compares exactly against the library's fast path.
"""

from fractions import Fraction

import numpy as np

from popdiff.ffalg import FpMatrix
from popdiff.gridfn import GridFunction, QuadraticFactor
from popdiff.analysis import pattern_tuple_distribution, von_neumann_check
from popdiff.counterexample import (
    F2_COMBOS,
    F3_COMBOS,
    SHIFT_COEFFS,
    Hypergraphon,
    build_core,
    dressed_h_matrix,
    eight_tuple_distribution,
    f1_matrix,
)
from popdiff.threept import FiniteGroupSpec, bohr_set, smoothed_3pt_count

from oracles import f1_pattern_count_exact


def test_smoothed_count_matrix_automorphisms():
    # dual backends must agree for genuine k=2 matrix automorphisms, which
    # exercises the adjoint (transpose) action on characters
    g = FiniteGroupSpec("vector", p=3, k=2, n=1, M1=[[1, 0], [0, 1]], M2=[[0, 1], [2, 0]])
    rng = np.random.default_rng(77)
    for _ in range(3):
        f = rng.random(9)
        B = bohr_set(g, [int(rng.integers(1, 9))], Fraction(1, 3))
        rep = smoothed_3pt_count(f, g, B)
        assert rep["agree"], abs(rep["direct"] - rep["fourier"])


def test_von_neumann_matrix_automorphisms():
    p = 5
    autos = [
        FpMatrix.identity(2, p),
        FpMatrix.from_rows([[0, -1], [1, 0]], p),
        FpMatrix.from_rows([[2, 1], [0, 2]], p),
    ]
    rng = np.random.default_rng(13)
    for _ in range(5):
        fs = []
        for _ in range(3):
            v = rng.random(25) * np.exp(2j * np.pi * rng.random(25))
            fs.append(GridFunction(5, 2, 1, v, "complex"))
        r = von_neumann_check(fs, autos)
        assert r["holds"]


def test_eight_tuple_against_pointwise_bruteforce():
    # the second pair has a.a = 2 and a.b = 3, so every cx^2 a.a and
    # cx cy a.b term of the coset base is nonzero
    from popdiff.counterexample import LAMBDA2_ORTHO

    n = 2
    for a, b in ((np.array([1, 0]), np.array([0, 1])), (np.array([1, 1]), np.array([1, 2]))):
        rep = eight_tuple_distribution(a, b, n)
        # brute force: walk all (x, y), build the 8-tuple from raw dot products
        seen = {}
        for xi in range(25):
            x = np.array([xi % 5, xi // 5])
            for yi in range(25):
                y = np.array([yi % 5, yi // 5])
                tup = []
                for cx, cy in SHIFT_COEFFS:
                    xs = (x + cx * a) % 5
                    ys = (y + cy * b) % 5
                    tup.append(int(xs @ xs % 5))
                    tup.append(int(xs @ ys % 5))
                key = tuple(tup)
                seen[key] = seen.get(key, 0) + 1
        assert rep.cells_observed == len(seen)
        dev = max(abs(c / 625 * 5**5 - 1) for c in seen.values())
        assert abs(rep.max_multiplicative_deviation - dev) < 1e-12
        # every brute-force tuple satisfies the three orthogonality constraints
        aa, ab = int(a @ a % 5), int(a @ b % 5)
        base = np.array([0, 0, aa, ab, 4 * aa, -4 * ab, 9 * aa, -3 * ab]) % 5
        for key in seen:
            for w in LAMBDA2_ORTHO:
                assert sum((t - s) * c for t, s, c in zip(key, base, w)) % 5 == 0
        assert rep.support_ok and rep.extras["hull_equal"]


def test_dressed_h_against_pointwise_lookup():
    core = build_core()
    h = Hypergraphon(5, (1, 2))
    n, master, sidx = 2, 31, 4
    hm = dressed_h_matrix(core, h, n, master, sidx)
    F = f1_matrix(core, n)
    tables = [np.random.default_rng([master, sidx, tid]).random(25) for tid in range(6)]
    cells = [h.cells(t) for t in tables]
    G = h.tensor
    pows = np.array([1, 5])
    rng = np.random.default_rng(0)
    for _ in range(60):
        xi, yi = int(rng.integers(0, 25)), int(rng.integers(0, 25))
        x = np.array([xi % 5, xi // 5])
        y = np.array([yi % 5, yi // 5])
        val = int(F[xi, yi])
        for block, combos in ((0, F2_COMBOS), (1, F3_COMBOS)):
            triple = []
            for tid, (al, be) in enumerate(combos):
                idx = int(((al * x + be * y) % 5) @ pows)
                triple.append(int(cells[3 * block + tid][idx]))
            val *= int(G[triple[0], triple[1], triple[2]])
        assert val == int(hm[xi, yi])


def test_f1_pattern_count_against_loops():
    core = build_core()
    n = 1
    F = f1_matrix(core, n)
    a = np.array([2])
    b = np.array([3])
    got = f1_pattern_count_exact(core, n, a, b)
    cnt = 0
    for x in range(5):
        for y in range(5):
            ok = 1
            for cx, cy in SHIFT_COEFFS:
                ok &= int(F[(x + cx * 2) % 5, (y + cy * 3) % 5])
            cnt += ok
    assert got == Fraction(cnt, 25)


def test_tuple_distribution_against_pointwise_bruteforce():
    # tiny case rebuilt with explicit loops: histogram and support agree
    p, n = 3, 2
    J = FpMatrix.from_rows([[2]], p)
    M = FpMatrix.identity(n, p)
    fac = QuadraticFactor(p, n, ((1, 0),), (M,), ())
    rep = pattern_tuple_distribution(fac, J)
    seen = {}
    for xi in range(9):
        x = np.array([xi % 3, xi // 3])
        for di in range(9):
            d = np.array([di % 3, di // 3])
            tup = []
            for pt in (x, (x + d) % 3, (x + 2 * d) % 3, (x + 3 * d) % 3):
                tup.append(int(pt @ np.array([1, 0]) % 3))
                tup.append(int(pt @ pt % 3))
            key = tuple(tup)
            seen[key] = seen.get(key, 0) + 1
    assert rep.cells_observed == len(seen)
    dev = max(abs(c / 81 / float(rep.predicted_cell_probability) - 1) for c in seen.values())
    assert abs(rep.max_multiplicative_deviation - dev) < 1e-12

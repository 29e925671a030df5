import itertools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from popdiff.errors import DimensionMismatch, NonConvergent, NotAutomorphism
from popdiff.ffalg import is_prime
from popdiff.threept import (
    FiniteGroupSpec,
    bohr_set,
    convolved_measure,
    derived_bohr,
    lift_to_interval,
    popular_3pt_search,
    regularity_decompose,
    smoothed_3pt_count,
)

from oracles import lift_by_points, lift_window_by_floor, roll_translate


def test_is_prime():
    assert [n for n in range(2, 40) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert is_prime(10**9 + 7)
    assert not is_prime(10**9 + 8)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_group_validation():
    with pytest.raises(NotAutomorphism):
        FiniteGroupSpec("Z_N", N=10, M1=2, M2=3)
    with pytest.raises(NotAutomorphism):
        FiniteGroupSpec("Z_N", N=7, M1=2, M2=2)  # M1 - M2 = 0
    g = FiniteGroupSpec("vector", p=5, k=1, n=2, M1=[[1]], M2=[[2]])
    assert g.size == 25
    # a vector group names the matrix that is singular mod p
    I, S = [[1, 0], [0, 1]], [[1, 1], [1, 1]]
    for M1, M2, name in ((S, I, "M1"), (I, S, "M2"), (I, [[1, 1], [0, 1]], "M1-M2")):
        with pytest.raises(NotAutomorphism, match=f"^{name} is singular mod 5$"):
            FiniteGroupSpec("vector", p=5, k=2, n=1, M1=M1, M2=M2)
    # Z_0 used to end in a raw ZeroDivisionError
    for N in (-3, 0, 1):
        with pytest.raises(ValueError, match="N >= 2"):
            FiniteGroupSpec("Z_N", N=N, M1=1, M2=2)


def test_bohr_characters_range_checked():
    # a character past the group order used to wrap mod the order
    for g in (FiniteGroupSpec("vector", p=5, k=1, n=2, M1=[[1]], M2=[[2]]), FiniteGroupSpec("Z_N", N=25, M1=1, M2=2)):
        for S in ([99], [25], [-1], [3, 25]):
            with pytest.raises(DimensionMismatch):
                bohr_set(g, S, Fraction(1, 4))
        assert bohr_set(g, [0, 24], Fraction(1, 4)).S == (0, 24)


@given(st.sampled_from([(101, 2, 3), (45, 1, 2)]), st.data())
@settings(max_examples=30, deadline=None)
def test_cyclic_group_matches_closed_forms(group, data):
    # Z_N runs on the one-digit radix-N kernel; every method must equal
    # the plain modular formula bit for bit, for a prime and a composite N
    N, M1, M2 = group
    g = FiniteGroupSpec("Z_N", N=N, M1=M1, M2=M2)
    x = np.arange(N)
    s = data.draw(st.integers(0, N - 1))
    idx = np.array(data.draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=20)))
    assert np.array_equal(g.translates(x).at(s), (x + s) % N)
    for which, M in ((1, M1), (2, M2)):
        assert np.array_equal(g.apply(which, idx), (idx * M) % N)
        assert np.array_equal(g.char_compose_perm(which), (x * M) % N)
    assert np.array_equal(g.neg(idx), (-idx) % N)
    xi = data.draw(st.integers(-3 * N, 3 * N))
    assert np.array_equal(g.char_numerators(xi), (xi * x) % N)
    assert np.array_equal(g.char_sum_index(idx, s), (idx + s) % N)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    v = rng.random(N) + 1j * rng.random(N)
    assert np.array_equal(g.fft(v), np.fft.fft(v) / N)
    assert np.array_equal(g.ifft(v), np.fft.ifft(v) * N)


def test_bohr_examples():
    g = FiniteGroupSpec("Z_N", N=5, M1=1, M2=2)
    B = bohr_set(g, [1], Fraction(3, 10))
    assert B.members == (0, 1, 4)
    assert B.measure == Fraction(3, 5)
    B0 = bohr_set(g, [], Fraction(1, 2))
    assert len(B0.members) == 5


def test_bohr_measure_lower_bound():
    # pigeonhole bound: measure >= ceil(1/delta)^{-|S|}, exactly
    rng = np.random.default_rng(6)
    for _ in range(100):
        N = 2 * int(rng.integers(1, 100)) + 1
        g = FiniteGroupSpec("Z_N", N=N, M1=1, M2=2)
        size = int(rng.integers(1, 4))
        S = [int(x) for x in rng.integers(0, N, size)]
        delta = Fraction(int(rng.integers(5, 50)), 100)
        B = bohr_set(g, S, delta)
        m = math.ceil(1 / delta)
        assert B.measure >= Fraction(1, m ** len(set(S)))


def test_bohr_symmetry_and_zero():
    g = FiniteGroupSpec("Z_N", N=37, M1=2, M2=5)
    B = bohr_set(g, [3, 11], Fraction(1, 5))
    assert 0 in B.members
    assert set((-m) % 37 for m in B.members) == set(B.members)


def test_derived_bohr():
    g = FiniteGroupSpec("Z_N", N=7, M1=2, M2=3)
    B = bohr_set(g, [1], Fraction(1, 5))
    Bp = derived_bohr(B)
    assert len(Bp.S) <= 2 * len(B.S)
    # identity maps give back the same Bohr set
    gid = FiniteGroupSpec("Z_N", N=7, M1=1, M2=2)
    B2 = bohr_set(gid, [1], Fraction(1, 5))
    # M1 = identity keeps the defining characters
    Bp2 = derived_bohr(B2)
    assert set(B2.members) >= set(Bp2.members)


def test_derived_bohr_fixing_maps():
    # maps acting by +-1 on the characters leave the Bohr set unchanged
    # (the group type requires M1 - M2 invertible, so the literal identity
    # pair is not constructible; negation carries the same content)
    g = FiniteGroupSpec("Z_N", N=11, M1=1, M2=10)
    B = bohr_set(g, [2, 3], Fraction(1, 4))
    assert derived_bohr(B).members == B.members


def test_smoothed_count_constant_and_full_bohr():
    g = FiniteGroupSpec("Z_N", N=31, M1=1, M2=2)
    B = bohr_set(g, [4], Fraction(1, 4))
    rep = smoothed_3pt_count(np.full(31, 0.4), g, B)
    assert abs(rep["value"] - 0.4**3) < 1e-12 and rep["agree"]
    # B = G: nu is uniform and the count is the plain average over all d
    Ball = bohr_set(g, [], Fraction(1, 2))
    rng = np.random.default_rng(8)
    f = rng.random(31)
    rep2 = smoothed_3pt_count(f, g, Ball)
    plain = np.mean(
        [np.mean(f * f[(np.arange(31) + d) % 31] * f[(np.arange(31) + 2 * d) % 31]) for d in range(31)]
    )
    assert abs(rep2["value"] - plain) < 1e-9


def test_smoothed_count_dual_backends_random():
    rng = np.random.default_rng(10)
    g = FiniteGroupSpec("Z_N", N=31, M1=1, M2=2)
    for _ in range(5):
        f = rng.random(31)
        B = bohr_set(g, [int(rng.integers(1, 31))], Fraction(1, 4))
        rep = smoothed_3pt_count(f, g, B)
        assert rep["agree"] and abs(rep["direct"] - rep["fourier"]) < 1e-9
    gv = FiniteGroupSpec("vector", p=3, k=1, n=3, M1=[[1]], M2=[[2]])
    f = rng.random(27)
    B = bohr_set(gv, [1, 4], Fraction(1, 3))
    rep = smoothed_3pt_count(f, gv, B)
    assert rep["agree"]


def test_convolved_measure_young_bound():
    g = FiniteGroupSpec("Z_N", N=101, M1=1, M2=2)
    B = bohr_set(g, [7], Fraction(1, 6))
    nu = convolved_measure(B)
    assert abs(nu.sum() - 1) < 1e-12
    assert nu.max() <= 1.0 / len(B.members) + 1e-12
    # supported on B + B
    members = set(B.members)
    sums = {(a + b) % 101 for a in members for b in members}
    assert set(np.nonzero(nu)[0].tolist()) <= sums


def test_decomposition_contracts_random():
    g = FiniteGroupSpec("Z_N", N=101, M1=1, M2=2)
    rng = np.random.default_rng(14)
    for trial in range(5):
        f = rng.random(101)
        dec = regularity_decompose(f, g, epsilon=0.2)
        assert dec.contracts["mean_preserved"]
        assert dec.contracts["one_bounded"]
        assert dec.contracts["l2_ok"]
        assert dec.contracts["fourier_ok"]
        assert dec.contracts["lipschitz_ok"]
        assert np.allclose(dec.f1 + dec.f2 + dec.f3, f, atol=1e-9)


def test_decomposition_constant():
    g = FiniteGroupSpec("Z_N", N=101, M1=1, M2=2)
    dec = regularity_decompose(np.full(101, 0.3), g, epsilon=0.2)
    assert np.allclose(dec.f1, 0.3) and np.allclose(dec.f2, 0) and np.allclose(dec.f3, 0)


def test_decomposition_bohr_structured():
    # a function measurable with respect to a coarse Bohr set: the tail is
    # small already at the first stage
    g = FiniteGroupSpec("Z_N", N=101, M1=1, M2=2)
    x = np.arange(101)
    f = 0.5 + 0.4 * np.cos(2 * np.pi * 3 * x / 101)
    dec = regularity_decompose(f, g, epsilon=0.25, S0=[3])
    assert 3 in dec.T
    assert dec.contracts["l2_ok"] and dec.contracts["lipschitz_ok"]


def test_derived_bohr_lipschitz_through_decomposition():
    # f1 moves by O(eps) along M1 r and M2 r for r in the derived Bohr set
    g = FiniteGroupSpec("Z_N", N=101, M1=2, M2=3)
    x = np.arange(101)
    f = 0.5 + 0.3 * np.cos(2 * np.pi * 3 * x / 101) + 0.2 * np.cos(2 * np.pi * 7 * x / 101)
    eps = 0.25
    dec = regularity_decompose(f, g, epsilon=eps, S0=[3, 7])
    B = bohr_set(g, dec.T, dec.gamma1)
    Bp = derived_bohr(B)
    C = max(dec.lipschitz_C, 2.0)
    sup = 0.0
    tr = g.translates(dec.f1)
    for r in Bp.members:
        for which in (1, 2):
            mr = int(g.apply(which, np.array([r]))[0])
            sup = max(sup, float(np.max(np.abs(tr.at(mr) - tr.base))))
    assert sup <= C * eps + 1e-9


def test_decomposition_s0_included():
    g = FiniteGroupSpec("Z_N", N=61, M1=1, M2=2)
    rng = np.random.default_rng(15)
    dec = regularity_decompose(rng.random(61), g, epsilon=0.3, S0=[5, 9])
    assert {5, 9} <= set(dec.T)


def test_decomposition_nonconvergent_pathological():
    g = FiniteGroupSpec("Z_N", N=31, M1=1, M2=2)
    rng = np.random.default_rng(16)
    with pytest.raises(NonConvergent):
        regularity_decompose(rng.random(31), g, epsilon=0.25, lipschitz_target=-1.0)


def test_popular_3pt_full_set():
    g = FiniteGroupSpec("Z_N", N=31, M1=1, M2=2)
    rep = popular_3pt_search(np.ones(31), g, 0.1)
    assert rep.threshold_hits == 30


def test_popular_3pt_subgroup_coset():
    # indicator of a subgroup: every difference inside it is maximally popular
    g = FiniteGroupSpec("vector", p=5, k=1, n=2, M1=[[1]], M2=[[2]])
    ind = np.zeros(25)
    sub = [i for i in range(25) if i % 5 == 0]  # x with first digit 0... indices 0,5,10,15,20
    sub = [5 * t for t in range(5)]
    ind[sub] = 1.0
    rep = popular_3pt_search(ind, g, 0.05)
    dens = 5 / 25.0
    for d in sub:
        if d:
            assert rep.counts[d] == pytest.approx(dens)
    assert rep.threshold_hits >= 4


THREE_POINT_GROUPS = [
    FiniteGroupSpec("Z_N", N=45, M1=1, M2=2),
    FiniteGroupSpec("Z_N", N=101, M1=2, M2=3),
    FiniteGroupSpec("vector", p=3, k=1, n=3, M1=[[1]], M2=[[2]]),
]


def _three_point_products(f, g, d):
    """f(x) f(x + M1 d) f(x + M2 d) over x, multiplied left to right, with
    M1, M2 scalars and the sums taken digit by digit in base g.modulus."""
    q, m = g.modulus, g.m
    M1, M2 = (g.M1, g.M2) if g.kind == "Z_N" else (g.M1.to_lists()[0][0], g.M2.to_lists()[0][0])
    digits = lambda i: [i // q**j % q for j in range(m)]
    shift = lambda c: np.array([c * t % q for t in digits(d)])
    return f * roll_translate(f, q, m, shift(M1)) * roll_translate(f, q, m, shift(M2))


@pytest.mark.parametrize("g", THREE_POINT_GROUPS, ids=["Z_45", "Z_101", "F_3^3"])
def test_three_point_counts_follow_summation_rule(g):
    # non-integer values: each count is the fsum of the float64 products,
    # bit for bit; 0/1 values: the plain np.mean of the products
    N = g.size
    rng = np.random.default_rng(N)
    B = bohr_set(g, [1], Fraction(1, 4))
    nu = convolved_measure(B)
    support = np.nonzero(nu)[0]
    for f, average in ((rng.random(N), lambda prod: math.fsum(prod) / N),
                       ((rng.random(N) < 0.5).astype(float), lambda prod: float(np.mean(prod)))):
        want = [average(_three_point_products(f, g, d)) for d in range(N)]
        rep = popular_3pt_search(f, g, 0.05)
        assert [struct.pack("<d", rep.counts[d]) for d in range(N)] == [struct.pack("<d", w) for w in want]
        direct = 0.0
        for d in support:
            direct += float(nu[d]) * want[d]
        assert struct.pack("<d", smoothed_3pt_count(f, g, B)["direct"]) == struct.pack("<d", direct)


# threept lift --N 40 --density 0.55 --seed 1
SEED1_DENSITY55 = [1, 3, 5, 6, 8, 9, 10, 12, 13, 15, 16, 17, 18, 19, 20, 22, 23, 27, 28, 29, 31, 32, 37, 38, 39, 40]


def test_lift_examples():
    # full box: the best difference keeps nearly everything
    A = list(range(1, 31))
    rep = lift_to_interval(A, 30, 1, 2, 0.2)
    assert rep["audit_ok"]
    assert rep["best_count"] > 0
    # even numbers: verify each emitted triple by hand
    A = [x for x in range(1, 41) if x % 2 == 0]
    rep = lift_to_interval(A, 40, 1, 2, 0.2)
    assert rep["audit_ok"] and rep["audit_total"] == rep["audit_pass"]
    Aset = set(A)
    for tri in rep["sample_triples"]:
        (x,), (y,), (z,) = tri
        assert x in Aset and y in Aset and z in Aset
        assert y - x == (rep["best_d"][0]) and z - x == 2 * rep["best_d"][0]
    # M2 = 21 at p = 41: the Bohr set bounds 21 d mod 41 only, and each
    # integer triple x, x - 4, x - 84 of the best difference d = -4 leaves the box
    rep = lift_to_interval(SEED1_DENSITY55, 40, 1, 21, 0.2)
    assert (rep["audit_total"], rep["audit_pass"], rep["audit_ok"]) == (23, 0, False)


@st.composite
def lift_cases(draw):
    """(A, N, M1, M2, epsilon): k = 1 with scalar matrices or k = 2, N <= 30,
    A about half of [1, N]^k, matrix entries in [-25, 25] and mostly small, so
    that Bohr sets hold nonzero differences, and epsilon in (0, 0.9]."""
    k, N = draw(st.sampled_from([1, 2])), draw(st.integers(1, 30))
    box = list(itertools.product(range(1, N + 1), repeat=k))
    keep = draw(st.lists(st.booleans(), min_size=len(box), max_size=len(box)))
    A = [list(x) if k == 2 else x[0] for x, kept in zip(box, keep) if kept]
    assume(A)
    entry = st.one_of(st.integers(-3, 3), st.integers(-25, 25))
    if k == 1:
        M1, M2 = draw(entry), draw(entry)
    else:
        M1, M2 = ([[draw(entry) for _ in range(2)] for _ in range(2)] for _ in range(2))
    return A, N, M1, M2, draw(st.floats(0, 0.9, exclude_min=True))


def _det(M):
    return M if isinstance(M, int) else M[0][0] * M[1][1] - M[0][1] * M[1][0]


def _mul(M, d):
    return [M * d[0]] if isinstance(M, int) else [row[0] * d[0] + row[1] * d[1] for row in M]


@given(case=lift_cases())
@example(case=(SEED1_DENSITY55, 40, 1, 21, 0.2))
@example(case=([1], 1, 1, 2, 1.5))  # eps/k >= 1 already, and the window (1, 2] still widens
@example(case=([1, 2, 3, 4], 4, 1, 2, 0.25))  # the window ends on the prime, (1 + eps) N = 5
@example(case=(list(range(1, 11)), 10, 1, -1, 3 / 11))  # the band starts on a digit, eps p = 3
@example(case=(list(range(1, 31)), 30, 31 * 10**29 + 1, 2, 0.2))  # M1 past int64, 1 mod 31: every triple leaves the box
@settings(max_examples=100, deadline=None)
def test_lift_matches_per_point_oracle(case):
    A, N, M1, M2, eps = case
    k = 1 if isinstance(M1, int) else 2
    p = lift_window_by_floor(N, k, eps)[0]
    diff = M1 - M2 if k == 1 else [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(M1, M2)]
    assume(all(_det(M) % p for M in (M1, M2, diff)))
    rep = lift_to_interval(A, N, M1, M2, eps)
    assert rep == lift_by_points(A, N, M1, M2, eps)
    for x, t1, t2 in rep["sample_triples"]:
        assert t1 == [a + s for a, s in zip(x, _mul(M1, rep["best_d"]))]
        assert t2 == [a + s for a, s in zip(x, _mul(M2, rep["best_d"]))]


def test_lift_embeds_into_an_odd_prime():
    # the window (1, 1.1] is empty and widening reaches (1, 3]: 2 is prime but
    # not a modulus any group accepts, so the embedding is mod 3
    rep = lift_to_interval([1], 1, 1, 2, 0.1)
    assert rep["p"] == 3 and rep["widened"] and rep["audit_ok"]
    # a huge finite eps: (1 + eps) N is inf, the window holds 11 at once, and the band is empty
    rep = lift_to_interval([1], 10, 1, 2, 1e308)
    assert (rep["p"], rep["widened"], rep["audit_total"], rep["epsilon_effective"]) == (11, False, 0, 1e308)


def test_lift_two_dimensional_points():
    # 2-d points take 2 x 2 matrices (test_cli pins the scalar and ragged cases)
    with pytest.raises(DimensionMismatch, match="M2"):
        lift_to_interval([[1, 2]], 30, [[1, 0], [0, 1]], [[2, 0]], 0.2)
    rep = lift_to_interval([[x, y] for x in range(1, 31) for y in range(1, 31)], 30, [[1, 0], [0, 1]], [[2, 0], [0, 2]], 0.6)
    assert rep["k"] == 2 and rep["audit_ok"] and rep["best_count"] > 0


def test_lift_singular_matrix_rejected():
    # singular over Q, so singular mod the prime 11 the lift embeds into
    with pytest.raises(NotAutomorphism, match="^M1-M2 is singular mod 11$"):
        lift_to_interval([1, 2, 3], 10, 1, 1, 0.3)

import math
import struct
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from popdiff.errors import DimensionMismatch, NotAutomorphism, NotMeasurable, TooLarge
from popdiff.ffalg import FpMatrix, is_invertible, rank_stack, row_space_rank
from popdiff.gridfn import (
    COMPLEX,
    FLOAT,
    RATIONAL,
    GridFunction,
    QuadraticFactor,
    atom_images,
    conditional_expectation,
    grid_encode,
    grid_size,
)
from popdiff.patterns import PatternSpec
from popdiff.threept import FiniteGroupSpec, popular_3pt_search
from popdiff import DEFAULT_GUARD, analysis
from popdiff.analysis import (
    abstract_atom_distribution,
    abstract_atom_histogram,
    abstract_atom_report,
    factor_image_distribution,
    gowers_norm,
    linear_quadratic_distribution,
    pattern_count,
    pattern_tuple_distribution,
    pattern_tuple_histogram,
    pattern_tuple_report,
    popular_search,
    structured_pattern_average,
    von_neumann_check,
)

from oracles import (
    abstract_atom_histogram_by_rows,
    fraction_pattern_count,
    gowers_power_by_derivatives,
    gowers_power_per_shift,
    gowers_u3_power_by_stacked_shifts,
    pattern_tuple_histogram_by_rows,
)


def scalar_spec(p, m1, m2):
    return PatternSpec(p, 1, FpMatrix.from_rows([[m1]], p), FpMatrix.from_rows([[m2]], p))


def random_indicator(p, k, n, density, seed, kind=FLOAT):
    rng = np.random.default_rng(seed)
    vals = (rng.random(grid_size(p, k, n)) < density).astype(np.int64)
    return GridFunction(p, k, n, vals if kind == RATIONAL else vals.astype(float), kind)


# -- pattern counting --------------------------------------------------------


def test_pattern_count_constants():
    spec = scalar_spec(5, 1, 2)
    f = GridFunction.constant(5, 1, 2, Fraction(3, 10), RATIONAL)
    for d in (0, 3, 17):
        assert pattern_count(f, spec, d) == Fraction(3, 10) ** 4
    ones = GridFunction.constant(5, 1, 2, 1, RATIONAL)
    assert pattern_count(ones, spec, 9) == 1


def test_pattern_count_beta_zero_is_fourth_moment():
    f = random_indicator(5, 1, 2, 0.4, 3, RATIONAL)
    spec = scalar_spec(5, 1, 2)
    assert pattern_count(f, spec, 0) == f.with_values([v**4 for v in f.values]).mean()


def test_pattern_count_coset_indicator():
    # V = {(x, 0)} inside F_5^2 is closed under the scalar pattern maps, so
    # beta(d) = density(V) for every d in V
    p, n = 5, 2
    spec = scalar_spec(p, 1, 2)
    V = [grid_encode(FpMatrix.from_rows([[x, 0]], p)) for x in range(p)]
    f = GridFunction.indicator(p, 1, n, V)
    dens = Fraction(len(V), grid_size(p, 1, n))
    for d in V:
        assert pattern_count(f, spec, d) == dens
    # a difference outside V gives zero
    outside = grid_encode(FpMatrix.from_rows([[0, 1]], p))
    assert pattern_count(f, spec, outside) == 0


def test_three_point_variant():
    spec = scalar_spec(5, 1, 2)
    f = GridFunction.constant(5, 1, 1, 0.5, FLOAT)
    assert abs(pattern_count(f, spec, 2, points=3) - 0.125) < 1e-12


def test_popular_search_constant_all_hits():
    spec = scalar_spec(5, 1, 2)
    f = GridFunction.constant(5, 1, 2, Fraction(2, 5), RATIONAL)
    rep = popular_search(f, spec, 0.01)
    assert rep.threshold_hits == f.size - 1
    assert rep.backend == "exact"
    assert rep.argmax_d == 1  # ties break to the smallest index


def test_popular_search_counts_in_unit_interval():
    spec = scalar_spec(5, 1, 2)
    f = random_indicator(5, 1, 2, 0.5, 33, RATIONAL)
    rep = popular_search(f, spec, 0.05)
    assert all(0 <= v <= 1 for v in rep.counts.values())


def test_popular_search_reduction_invariance():
    # the multiset of counts is preserved by reducing (M1, M2) to (I, J)
    p, n = 3, 2
    spec = PatternSpec(p, 1, FpMatrix.from_rows([[2]], p), FpMatrix.from_rows([[2]], p).mul(FpMatrix.from_rows([[2]], p)))
    f = random_indicator(p, 1, n, 0.5, 9, RATIONAL)
    from popdiff.patterns import reduce_to_identity_form

    red = reduce_to_identity_form(spec)
    r1 = popular_search(f, spec, 0.05)
    r2 = popular_search(f, red, 0.05)
    assert sorted(r1.counts.values()) == sorted(r2.counts.values())
    assert r1.alpha == r2.alpha


def test_mean_over_all_d_for_constant():
    spec = scalar_spec(5, 1, 2)
    f = GridFunction.constant(5, 1, 2, Fraction(1, 3), RATIONAL)
    rep = popular_search(f, spec, 0.5)
    total = sum(rep.counts.values(), Fraction(0)) / len(rep.counts)
    assert total == Fraction(1, 3) ** 4


def test_popular_search_guard():
    f = GridFunction.constant(5, 1, 4, 0.5, FLOAT)
    with pytest.raises(TooLarge):
        popular_search(f, scalar_spec(5, 1, 2), 0.05, guard=10**4)


def _random_rational(rng, P, num_bound, den_bound):
    nums = rng.integers(-num_bound, num_bound + 1, P)
    dens = rng.integers(1, den_bound + 1, P)
    return [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]


@given(
    st.sampled_from([(3, 1, 2), (3, 2, 1), (3, 1, 3), (3, 3, 1), (3, 1, 4), (3, 1, 5), (5, 1, 1), (5, 1, 2), (5, 2, 1), (5, 1, 3)]),
    st.data(),
)
@settings(max_examples=20, deadline=None)
def test_pattern_sums_match_fraction_oracle(shape, data):
    # the integer kernel behind popular_search equals the Fraction product
    # sum at every difference, and its float path equals the fsum of the
    # same products bit for bit
    p, k, n = shape
    P = grid_size(p, k, n)
    mats = [[[data.draw(st.integers(0, p - 1)) for _ in range(k)] for _ in range(k)] for _ in range(2)]
    spec = PatternSpec(p, k, FpMatrix.from_rows(mats[0], p), FpMatrix.from_rows(mats[1], p))
    points = data.draw(st.sampled_from((3, 4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    num_bound = data.draw(st.sampled_from((1, 9, 10**6)))
    f = GridFunction(p, k, n, _random_rational(rng, P, num_bound, data.draw(st.sampled_from((1, 12)))), RATIONAL)
    rep = popular_search(f, spec, 0.05, points=points)
    for d in range(P):
        want = fraction_pattern_count(f, spec, d, points)
        assert type(rep.counts[d]) is Fraction and rep.counts[d] == want
    g = f.to_float()
    rep = popular_search(g, spec, 0.05, points=points)
    for d in range(P):
        assert rep.counts[d] == fraction_pattern_count(g, spec, d, points)
        assert pattern_count(g, spec, d, points) == rep.counts[d]


def test_pattern_sums_python_int_fallback():
    # max|a|^4 P >= 2^62 forces the object-array sum; it must still be exact
    p, k, n = 3, 1, 4
    P = grid_size(p, k, n)
    f = GridFunction(p, k, n, _random_rational(np.random.default_rng(4), P, 10**5, 30), RATIONAL)
    a, L = f.integer_form()
    assert max(abs(x) for x in a) ** 4 * P >= 2**62
    spec = scalar_spec(p, 1, 2)
    for d in range(P):
        got = pattern_count(f, spec, d)
        assert type(got) is Fraction and got == fraction_pattern_count(f, spec, d)


def _float_edge_values(case, points, P, rng):
    """Float values for one edge of the int64 shortcut of float counts."""
    if case == "indicator":
        return (rng.random(P) < 0.5).astype(float)
    if case == "negative":
        return rng.integers(-9, 10, P).astype(float)
    if case in ("below", "above"):
        # the largest integer t with t^points < 2^53, then t + 2: an odd t + 2
        # makes inexact float64 products, where only fsum gives today's sums
        t = next(t for t in range(int(2 ** (53 / points)) + 2, 0, -1) if t**points < 2**53)
        top = t if case == "below" else t + 2
        return rng.choice([-top, top, top - 2, 0.0, 1.0], P).astype(float)
    if case in ("half", "tenth"):
        return rng.integers(0, 4, P) * (0.5 if case == "half" else 0.1)
    special = {"inf": np.inf, "nan": np.nan}[case]
    return np.where(np.arange(P) == 3, special, (rng.random(P) < 0.5).astype(float))


@pytest.mark.parametrize("points", (3, 4))
@pytest.mark.parametrize("case", ("indicator", "negative", "below", "above", "half", "tenth", "inf", "nan"))
def test_float_counts_integer_shortcut_edges(case, points, monkeypatch):
    # float counts take the int64 sum only when every value is a finite
    # integer and max|v|^points < 2^53; either way each count is the fsum of
    # the float64 products bit for bit (same bits for nan). 2^53 itself is no
    # cube or fourth power, so "above" is the first integer past the bound.
    p, k, n = 5, 1, 2
    P = grid_size(p, k, n)
    f = GridFunction(p, k, n, _float_edge_values(case, points, P, np.random.default_rng(11)), FLOAT)
    spec = scalar_spec(p, 1, 2)
    want = [struct.pack("<d", fraction_pattern_count(f, spec, d, points)) for d in range(P)]
    rep = popular_search(f, spec, 0.05, points=points)
    assert [struct.pack("<d", rep.counts[d]) for d in range(P)] == want
    fsum_calls = []
    real_fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: fsum_calls.append(1) or real_fsum(xs))
    assert [struct.pack("<d", pattern_count(f, spec, d, points)) for d in range(P)] == want
    assert bool(fsum_calls) == (case in ("above", "half", "tenth", "inf", "nan"))


def test_single_count_builds_no_periodic_extension():
    # a count at one difference reads 4 translates, far fewer than the 5^8
    # points of the periodic extension on (F_3^4)^2, so it gathers instead;
    # the value is the same fsum of the float64 products
    p, k, n = 3, 2, 4
    P = grid_size(p, k, n)
    f = GridFunction(p, k, n, np.random.default_rng(12).random(P), FLOAT)
    spec = PatternSpec(p, k, FpMatrix.identity(k, p), FpMatrix.from_rows([[0, 2], [1, 0]], p))
    want = fraction_pattern_count(f, spec, 1234)
    pattern_count(f, spec, 1234)  # fills the digit-table caches outside the measurement
    tracemalloc.start()
    try:
        got = pattern_count(f, spec, 1234)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 1_000_000


# value cases of the batched kernel: (kinds, product dtype it must choose)
_TIERS = {
    "indicator": ((RATIONAL, FLOAT), bool),
    "0..3": ((RATIONAL, FLOAT), np.int64),
    "-3..3": ((RATIONAL, FLOAT), np.int64),
    "-9..9": ((RATIONAL, FLOAT), np.int64),
    "-99..99": ((RATIONAL, FLOAT), np.int64),
    "near 2^53": ((RATIONAL, FLOAT), np.int64),
    "past 2^53": ((FLOAT,), np.float64),
    "tenths": ((FLOAT,), np.float64),
    "python ints": ((RATIONAL,), object),
}


def _tier_values(case, points, P, rng):
    if case == "python ints":
        return _random_rational(rng, P, 10**6, 12)
    if case in ("near 2^53", "past 2^53"):
        t = next(t for t in range(int(2 ** (53 / points)) + 2, 0, -1) if t**points < 2**53)
        top = t if case == "near 2^53" else t + 2
        vals = rng.choice([-top, top, top - 2, 0, 1], P)
        vals[:2] = -top, top
    elif case == "tenths":
        return rng.integers(-5, 6, P) * 0.1
    else:
        lo, hi = {"indicator": (0, 1), "0..3": (0, 3), "-3..3": (-3, 3), "-9..9": (-9, 9), "-99..99": (-99, 99)}[case]
        vals = rng.integers(lo, hi + 1, P)
        vals[:2] = lo, hi
    return [int(x) for x in vals]


@given(
    st.sampled_from([(7, 1, 1), (13, 1, 1), (101, 1, 1), (3, 1, 2), (3, 2, 2), (5, 1, 2), (3, 1, 4), (5, 2, 1)]),
    st.sampled_from(sorted(_TIERS)),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_batched_pattern_sums_match_fraction_oracle(shape, case, data):
    # every dtype tier of the batched kernel, on Z_N (the one-digit grids)
    # and F_p^m, for 3 and 4 points, against the Fraction/fsum oracle: over
    # all differences or an unordered subset of them (as the smoothed count's
    # support and the structured average's H are), with blocks that do not
    # divide the differences, and with the extension or the gather path
    p, k, n = shape
    P = grid_size(p, k, n)
    kinds, want_dtype = _TIERS[case]
    kind = data.draw(st.sampled_from(kinds))
    points = data.draw(st.sampled_from((3, 4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = _tier_values(case, points, P, rng)
    f = GridFunction(p, k, n, [Fraction(v) for v in values] if kind == RATIONAL else np.array(values, dtype=float), kind)
    mats = [[[data.draw(st.integers(0, p - 1)) for _ in range(k)] for _ in range(k)] for _ in range(2)]
    spec = PatternSpec(p, k, FpMatrix.from_rows(mats[0], p), FpMatrix.from_rows(mats[1], p))
    d_indices = np.arange(P) if data.draw(st.booleans()) else rng.permutation(P)[:data.draw(st.integers(1, P))]
    guard = data.draw(st.sampled_from((1, 10**8)))  # 1 forces the gather past the guard
    chunk = data.draw(st.sampled_from((1, 3 * P, 7 * P * 8, analysis.CHUNK_BYTES)))
    seen = []

    class SpyTranslates(analysis.Translates):
        def __init__(self, values, *args):
            seen.append(np.asarray(values).dtype)
            super().__init__(values, *args)

    with mock.patch.object(analysis, "Translates", SpyTranslates), mock.patch.object(analysis, "CHUNK_BYTES", chunk):
        sums, den = analysis._pattern_sums(f, analysis._pattern_mats(f, spec, points), d_indices, guard)
    assert seen == [np.dtype(want_dtype)]
    assert len(sums) == len(d_indices)
    for d, s in zip(d_indices, sums):
        want = fraction_pattern_count(f, spec, int(d), points)
        if kind == RATIONAL:
            assert type(s) is int and Fraction(s, den * P) == want
        else:
            assert type(s) is float and struct.pack("<d", s / P) == struct.pack("<d", want)


@pytest.mark.parametrize("N", (65521, 65535, 65536, 65537))
def test_zero_one_counts_reach_p_exactly(N):
    # 0/1 rows are popcounts of packed words, summed in int64, on both sides
    # of 2^16; all ones make every count P, the largest a count can be
    shifts = [np.array([0, 1, N - 1, 12345])] * 2
    assert analysis.pattern_sums(np.ones(N), N, 1, shifts) == [float(N)] * 4
    sums = analysis.pattern_sums(np.array([1] * N, dtype=object), N, 1, shifts)
    assert sums == [N] * 4 and all(type(s) is int for s in sums)


@pytest.mark.parametrize("p, m", [(3, 0), (63, 1), (65, 1), (127, 1), (129, 1), (3, 4)])
@pytest.mark.parametrize("guard", (DEFAULT_GUARD, 1))
def test_all_ones_counts_fill_the_last_word(p, m, guard):
    # 0/1 rows of P = 1, 63, 65, 127, 129 and 81 points end short of or just
    # past a 64-bit word; all ones make every count P, so a lost or stray bit
    # in the last word shows. Guard 1 packs the gathered rows
    P = p**m
    shifts = [np.arange(P) * j % P for j in (1, 2, 3)]
    for points in (3, 4):
        assert analysis.pattern_sums(np.ones(P), p, m, shifts[:points - 1], guard) == [float(P)] * P
        assert analysis.pattern_sums(np.array([1] * P, dtype=object), p, m, shifts[:points - 1], guard) == [P] * P


def test_vector_search_table_memory():
    # a three-point search on F_3^7 reads its translates from 8 bit-shifted
    # copies of the packed 5 * 3^12 entry table (2.5 MiB in all), made after
    # the bool table is dropped, with no index array of the table's size
    group = FiniteGroupSpec("vector", p=3, k=1, n=7, M1=[[1]], M2=[[2]])
    indicator = (np.random.default_rng(6).random(group.size) < 0.4).astype(float)
    popular_3pt_search(indicator[:243], FiniteGroupSpec("vector", p=3, k=1, n=5, M1=[[1]], M2=[[2]]), 0.1)
    tracemalloc.start()
    try:
        rep = popular_3pt_search(indicator, group, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    for d in (1, 2, 1000, group.size - 1):
        t1, t2 = (indicator[group.add_perm(int(group.apply(which, d)))] for which in (1, 2))
        want = sum(indicator * t1 * t2)
        assert rep.counts[d] == want / group.size


def test_batched_cyclic_search_memory_stays_chunked():
    # a three-point search on Z_10007 reads 10^8 (x, d) pairs; gathered in
    # blocks it peaks far below the 100 MB of one (P, P) bool gather
    group = FiniteGroupSpec("Z_N", N=10007, M1=2, M2=3)
    indicator = (np.random.default_rng(5).random(group.size) < 0.45).astype(float)
    popular_3pt_search(indicator[:101], FiniteGroupSpec("Z_N", N=101, M1=2, M2=3), 0.1)  # warm the code paths
    tracemalloc.start()
    try:
        rep = popular_3pt_search(indicator, group, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    for d in (1, 2, 5000, 10006):
        want = sum(indicator * np.roll(indicator, -2 * d) * np.roll(indicator, -3 * d))
        assert rep.counts[d] == want / group.size


def test_difference_index_range_checked():
    # an index past p^(kn) used to wrap silently to index mod p^(kn)
    f = random_indicator(5, 1, 4, 0.5, 8, RATIONAL)
    spec = scalar_spec(5, 1, 2)
    for d in (-1, 625, 700):
        with pytest.raises(DimensionMismatch):
            pattern_count(f, spec, d)
    assert pattern_count(f, spec, 624) == fraction_pattern_count(f, spec, 624)


def test_pattern_k_must_match_function():
    f = random_indicator(5, 1, 2, 0.5, 8, RATIONAL)
    spec = PatternSpec(5, 2, FpMatrix.identity(2, 5), FpMatrix.from_rows([[0, 4], [1, 0]], 5))
    with pytest.raises(DimensionMismatch):
        popular_search(f, spec, 0.05)
    with pytest.raises(DimensionMismatch):
        pattern_count(f, spec, 3)


def test_complex_function_refused():
    # math.fsum used to drop the imaginary parts without a word
    f = GridFunction(5, 1, 2, np.exp(2j * np.pi * np.arange(25) / 5), "complex")
    with pytest.raises(ValueError, match="rational or float"):
        pattern_count(f, scalar_spec(5, 1, 2), 3)
    with pytest.raises(ValueError, match="rational or float"):
        popular_search(f, scalar_spec(5, 1, 2), 0.05)


# -- Gowers norms -------------------------------------------------------------


def test_gowers_constants_and_u1():
    c = GridFunction.constant(3, 1, 2, 0.6, FLOAT)
    for s in (1, 2, 3):
        assert abs(gowers_norm(c, s) - 0.6) < 1e-10
    import cmath

    ch = GridFunction(5, 1, 1, [cmath.exp(2j * cmath.pi * x / 5) for x in range(5)], "complex")
    assert gowers_norm(ch, 1) < 1e-12
    f = random_indicator(5, 1, 2, 0.5, 21)
    assert abs(gowers_norm(f, 1) - abs(f.mean())) < 1e-12


def test_gowers_u2_point_mass():
    delta = GridFunction.indicator(3, 1, 1, [0]).to_float()
    assert abs(gowers_norm(delta, 2) - 3 ** (-0.75)) < 1e-12
    assert abs(gowers_norm(delta, 2, mode="direct") - 3 ** (-0.75)) < 1e-12


def test_gowers_direct_vs_recursive():
    rng = np.random.default_rng(12)
    for p, n in [(3, 2), (5, 2), (7, 1)]:
        f = GridFunction(p, 1, n, rng.random(p**n), FLOAT)
        assert abs(gowers_norm(f, 2, "direct") - gowers_norm(f, 2, "recursive")) < 1e-12
    g = GridFunction(3, 1, 2, rng.random(9) * np.exp(2j * np.pi * rng.random(9)), "complex")
    assert abs(gowers_norm(g, 3, "direct") - gowers_norm(g, 3, "recursive")) < 1e-11


@given(
    st.sampled_from([(3, 0, 1), (3, 1, 1), (5, 1, 1), (7, 1, 1), (3, 1, 2), (3, 2, 1), (5, 1, 2), (3, 1, 3)]),
    st.sampled_from([FLOAT, RATIONAL, COMPLEX]),
    st.data(),
)
@settings(max_examples=15, deadline=None)
def test_fourier_gowers_matches_direct_and_derivative_oracle(shape, kind, data):
    # the recursion stops at U^2 = sum |f^|^4; check it against the expanded
    # correlation, the derivative recursion down to U^1, and monotonicity in s
    p, k, n = shape
    P = grid_size(p, k, n)
    unit = st.floats(-1, 1)
    if kind == RATIONAL:
        vals = data.draw(st.lists(st.fractions(-1, 1, max_denominator=7), min_size=P, max_size=P))
    else:
        vals = np.array(data.draw(st.lists(unit, min_size=P, max_size=P)))
        if kind == COMPLEX:
            vals = vals + 1j * np.array(data.draw(st.lists(unit, min_size=P, max_size=P)))
    f = GridFunction(p, k, n, vals, kind)
    norms = {s: gowers_norm(f, s) for s in (1, 2, 3, 4)}
    for s in (2, 3):
        if P ** (s + 1) <= 10**6:
            assert abs(norms[s] - gowers_norm(f, s, "direct")) < 1e-12
    for s in (2, 3, 4):
        oracle = gowers_power_by_derivatives(f.values, p, k * n, s) ** (1.0 / 2**s)
        assert abs(norms[s] - oracle) < 1e-12
    for s in (1, 2, 3):
        assert norms[s] <= norms[s + 1] + 1e-12


@given(
    st.sampled_from([(3, 0, 5), (11, 0, 3), (3, 1, 3), (11, 1, 5), (5, 2, 2), (3, 2, 5), (7, 2, 4), (11, 2, 3),
                     (5, 3, 3), (3, 4, 3), (3, 5, 3), (5, 4, 2), (5, 4, 3)]),
    st.sampled_from(["0/1", "float", "complex"]),
    st.integers(0, 2**32 - 1),
)
@example((5, 4, 3), "complex", 0)
@example((3, 0, 5), "float", 1)
@settings(max_examples=25, deadline=None)
def test_batched_gowers_recursion_matches_per_shift_bits(shape, kind, seed):
    # the U^2 level in blocks of shifts gives the same float64 bits as one fftn
    # per shift; F_5^4 (P = 625) leaves a last block of one shift
    p, m, s = shape
    rng = np.random.default_rng(seed)
    vals = {"0/1": lambda: (rng.random(p**m) < 0.4).astype(float), "float": lambda: rng.standard_normal(p**m),
            "complex": lambda: rng.standard_normal(p**m) + 1j * rng.standard_normal(p**m)}[kind]()
    f = GridFunction(p, 1, m, vals, COMPLEX if kind == "complex" else FLOAT)
    want = gowers_power_per_shift(vals, p, m, s) ** (1.0 / 2**s)
    assert gowers_norm(f, s).hex() == max(want, 0.0).hex()


@given(
    st.sampled_from([(3, 0), (3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (13, 1)]),
    st.sampled_from(["0/1", "float", "complex"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_u3_window_gather_matches_stacked_shift_bits(shape, kind, seed):
    # each block of shifts read as one window gather of the periodic extension
    # gives the float64 bits of np.stack of one translate per shift
    p, m = shape
    rng = np.random.default_rng(seed)
    vals = {"0/1": lambda: (rng.random(p**m) < 0.4).astype(float), "float": lambda: rng.standard_normal(p**m),
            "complex": lambda: rng.standard_normal(p**m) + 1j * rng.standard_normal(p**m)}[kind]()
    f = GridFunction(p, 1, m, vals, COMPLEX if kind == "complex" else FLOAT)
    want = max(gowers_u3_power_by_stacked_shifts(vals, p, m), 0.0) ** (1.0 / 8)
    assert gowers_norm(f, 3).hex() == want.hex()


def test_recursive_u3_reads_translates_without_a_row_table():
    # U^3 on F_3^7 reads each block of translates from the periodic extension
    # (5^7 points), never the (2p - 1) p^(2m - 2) row table of 42.5 MB
    f = GridFunction(3, 1, 7, np.random.default_rng(5).random(3**7), FLOAT)
    tracemalloc.start()
    try:
        gowers_norm(f, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# -- generalized von Neumann ---------------------------------------------------


def test_von_neumann_base_case_identity():
    # s = 2: the count equals the product of the means exactly
    rng = np.random.default_rng(31)
    p, n = 5, 1
    f1 = GridFunction(p, 1, n, rng.random(5) * np.exp(2j * np.pi * rng.random(5)), "complex")
    f2 = GridFunction(p, 1, n, rng.random(5) * np.exp(2j * np.pi * rng.random(5)), "complex")
    autos = [FpMatrix.from_rows([[1]], p), FpMatrix.from_rows([[2]], p)]
    r = von_neumann_check([f1, f2], autos)
    assert abs(r["lhs"] - abs(f1.mean()) * abs(f2.mean())) < 1e-12
    assert r["holds"]


def test_von_neumann_all_ones():
    p, n = 5, 1
    fs = [GridFunction.constant(p, 1, n, 1.0, FLOAT).to_complex() for _ in range(3)]
    autos = [FpMatrix.from_rows([[j]], p) for j in (1, 2, 3)]
    r = von_neumann_check(fs, autos)
    assert abs(r["lhs"] - 1) < 1e-12 and abs(r["rhs"] - 1) < 1e-12 and r["holds"]


def test_von_neumann_requires_automorphisms():
    p, n = 5, 1
    fs = [GridFunction.constant(p, 1, n, 1.0, FLOAT).to_complex() for _ in range(3)]
    with pytest.raises(NotAutomorphism):
        von_neumann_check(fs, [FpMatrix.from_rows([[1]], p)] * 3)


def test_von_neumann_random_instances():
    rng = np.random.default_rng(47)
    for trial in range(20):
        s = 3 if trial % 2 == 0 else 4
        fs = []
        for _ in range(s):
            v = rng.random(25) * np.exp(2j * np.pi * rng.random(25))
            fs.append(GridFunction(5, 1, 2, v, "complex"))
        autos = [FpMatrix.from_rows([[j]], 5) for j in range(1, s + 1)]
        assert von_neumann_check(fs, autos)["holds"]


# -- equidistribution ----------------------------------------------------------


def test_linquad_independent_linear():
    rep = linear_quadratic_distribution([(1, 0, 0), (0, 1, 0)], [], 3, 5)
    assert rep.max_multiplicative_deviation == 0.0 and rep.support_equal and rep.support_ok


def test_linquad_full_rank_quadratic_shrinks():
    devs = {}
    for n in (3, 4, 5):
        rep = linear_quadratic_distribution([], [FpMatrix.identity(n, 5)], n, 5)
        devs[n] = rep.max_multiplicative_deviation
    assert devs[5] < devs[4] < devs[3]


def test_linquad_dependent_support():
    rep = linear_quadratic_distribution([(1, 0, 0), (2, 0, 0)], [], 3, 5)
    assert rep.support_ok and rep.cells_observed == 5 and rep.predicted_support_size == 5


def test_factor_image_support_counts_the_rank_of_b1():
    # two dependent linear rows span one coordinate: 5 linear cells times 5 values of x^T x
    p, n = 5, 3
    fac = QuadraticFactor(p, n, ((1, 0, 0), (2, 0, 0)), (FpMatrix.identity(n, p),), ())
    rep = factor_image_distribution(fac, 1)
    assert rep.predicted_support_size == 25 and rep.cells_observed == 25 and rep.support_equal
    assert rep == linear_quadratic_distribution(list(fac.b1), list(fac.b2), n, p)


@given(st.sampled_from([3, 5]), st.integers(2, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_linquad_gamma_parts_lie_in_the_image_of_gamma(p, n, data):
    # linear_quadratic_distribution reports support_ok without ranking each
    # cell's [Gamma | a]: every observed a is Gamma x, so the rank never grows
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, p, size=(data.draw(st.integers(1, 2)), n))
    d1 = len(base) + data.draw(st.integers(1, 2))  # more rows than base: dependent
    Gamma = rng.integers(0, p, size=(d1, len(base))) @ base % p
    Phi = []
    for _ in range(data.draw(st.integers(0, 1))):
        A = rng.integers(0, p, size=(n, n))
        Phi.append(FpMatrix.from_rows((A + A.T).tolist(), p))
    _, cells = atom_images(QuadraticFactor(p, n, tuple(map(tuple, Gamma.tolist())), tuple(Phi), ()), 1)
    aug = np.concatenate([np.broadcast_to(Gamma, (len(cells), d1, n)), cells[:, :d1, None]], axis=2)
    assert np.all(rank_stack(aug, p) == row_space_rank(Gamma, p))
    assert linear_quadratic_distribution(Gamma.tolist(), Phi, n, p).support_ok


def test_linquad_refuses_non_symmetric_phi():
    N = FpMatrix.from_rows([[0, 1, 0], [2, 0, 0], [0, 0, 0]], 3)
    with pytest.raises(DimensionMismatch):
        linear_quadratic_distribution([(1, 0, 0)], [N], 3, 3)


def test_tuple_distribution_trivial_factor():
    fac = QuadraticFactor(3, 2, (), (), ())
    rep = pattern_tuple_distribution(fac, FpMatrix.from_rows([[2]], 3))
    assert rep.cells_observed == 1 and rep.max_multiplicative_deviation == 0.0


def test_tuple_distribution_support_and_restriction():
    p, n = 3, 4
    J = FpMatrix.from_rows([[2]], p)
    fac = QuadraticFactor(p, n, ((1, 0, 0, 0),), (FpMatrix.identity(n, p),), ())
    rep = pattern_tuple_distribution(fac, J)
    assert rep.support_ok and rep.support_equal
    # restricting D to H makes the four linear images equal (the support
    # check under the restriction asserts exactly that, per observed cell)
    rep_h = pattern_tuple_distribution(fac, J, restrict_to_H=True)
    assert rep_h.support_ok
    assert rep_h.extras["restricted_to_H"]
    # same property over F_5 at n in {3, 4}
    for n5 in (3, 4):
        fac5 = QuadraticFactor(5, n5, ((1,) + (0,) * (n5 - 1),), (), ())
        rep5 = pattern_tuple_distribution(fac5, FpMatrix.from_rows([[2]], 5), restrict_to_H=True)
        assert rep5.support_ok


def test_tuple_distribution_deviation_monotone():
    p = 3
    J = FpMatrix.from_rows([[2]], p)
    devs = {}
    for n in (3, 5):
        fac = QuadraticFactor(p, n, ((1,) + (0,) * (n - 1),), (FpMatrix.identity(n, p),), ())
        devs[n] = pattern_tuple_distribution(fac, J).max_multiplicative_deviation
    assert devs[5] < devs[3]


def test_dimension_jump_for_non_spectral_J():
    # when the spectral gate fails, the observed quadratic-tuple support has
    # one dimension fewer than the formula complement (one extra constraint)
    p, k, n = 5, 2, 2
    for rows in ([[0, -1], [1, 0]], [[2, 0], [0, 3]]):
        J = FpMatrix.from_rows(rows, p)
        fac = QuadraticFactor(p, n, (), (FpMatrix.identity(n, p),), ())
        rep = pattern_tuple_distribution(fac, J)
        assert not rep.extras["spectral_ok"]
        assert not rep.prediction_reliable
        assert rep.extras["observed_quad_support_dim"] == rep.extras["lambda_perp_dim"] - 1
        assert not rep.support_ok or rep.cells_observed < rep.predicted_support_size
    # a spectral J of the same shape fills the predicted support dimension
    J = FpMatrix.from_rows([[2, 1], [0, 2]], p)
    fac = QuadraticFactor(p, n, (), (FpMatrix.identity(n, p),), ())
    rep = pattern_tuple_distribution(fac, J)
    assert rep.support_ok
    assert rep.extras["observed_quad_support_dim"] == rep.extras["lambda_perp_dim"]


def test_abstract_atom_distribution():
    p, k = 3, 1
    fac0 = QuadraticFactor(p, 2, (), (), ())
    rep0 = abstract_atom_distribution(fac0, k)
    assert rep0.cells_observed == 1
    fac = QuadraticFactor(p, 4, ((1, 0, 0, 0),), (FpMatrix.identity(4, p),), ())
    rep = abstract_atom_distribution(fac, k)
    assert rep.support_equal
    fac5 = QuadraticFactor(p, 5, ((1, 0, 0, 0, 0),), (FpMatrix.identity(5, p),), ())
    rep5 = abstract_atom_distribution(fac5, k)
    assert rep5.support_equal
    assert rep5.max_multiplicative_deviation < rep.max_multiplicative_deviation
    # dependent linear parts add no dimension: B(X), B(D) take 3 x 3 values
    dep = QuadraticFactor(p, 3, ((1, 0, 0), (2, 0, 0)), (), ())
    repd = abstract_atom_distribution(dep, k)
    assert repd.support_equal and repd.predicted_support_size == 9


def test_pattern_tuple_dependent_linear_parts_add_no_dimension():
    # b1 = (x1, 2 x1): the four slot images are those of x1 alone, Psi-many
    dep = QuadraticFactor(3, 3, ((1, 0, 0), (2, 0, 0)), (), ())
    J = FpMatrix.from_rows([[2]], 3)
    for restrict_to_H, size in ((False, 9), (True, 3)):
        rep = pattern_tuple_distribution(dep, J, restrict_to_H)
        assert rep.support_equal and rep.predicted_support_size == size


def random_factor(p, n, seed):
    """A factor with up to two linear, two symmetric and one skew part."""
    rng = np.random.default_rng(seed)
    b1 = tuple(tuple(int(x) for x in rng.integers(0, p, n)) for _ in range(rng.integers(0, 3)))
    sym, skew = [], []
    for _ in range(rng.integers(0, 3)):
        a = rng.integers(0, p, (n, n))
        sym.append(FpMatrix.from_rows(((a + a.T) % p).tolist(), p))
    for _ in range(rng.integers(0, 2)):
        a = rng.integers(0, p, (n, n))
        skew.append(FpMatrix.from_rows(((a - a.T) % p).tolist(), p))
    return QuadraticFactor(p, n, b1, tuple(sym), tuple(skew))


def assert_tuple_histogram_matches_oracle(fac, J, restrict_to_H):
    cells, counts, total = pattern_tuple_histogram(fac, J, restrict_to_H)
    want_cells, want_counts, want_total = pattern_tuple_histogram_by_rows(fac, J, restrict_to_H)
    ncoords = cells.shape[2]
    assert np.array_equal(cells.reshape(len(cells), 4 * ncoords), want_cells)
    assert np.array_equal(counts, want_counts) and total == want_total
    want = pattern_tuple_report(fac, J, restrict_to_H, want_cells.reshape(len(want_cells), 4, ncoords), want_counts, want_total)
    assert pattern_tuple_distribution(fac, J, restrict_to_H).to_json_obj() == want.to_json_obj()


def assert_abstract_histogram_matches_oracle(fac, k):
    want_cells, want_counts = abstract_atom_histogram_by_rows(fac, k)
    assert np.array_equal(abstract_atom_histogram(fac, k), want_counts)
    assert abstract_atom_distribution(fac, k).to_json_obj() == abstract_atom_report(fac, k, want_counts).to_json_obj()


# (p, k, n) with P^2 <= 10^5
SMALL_SHAPES = [(3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 2, 1), (3, 2, 2), (5, 1, 1), (5, 1, 2), (5, 1, 3), (5, 2, 1)]


@given(st.sampled_from(SMALL_SHAPES), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=20, deadline=None)
def test_tuple_histogram_matches_row_sort_oracle(shape, seed, restrict_to_H):
    # cells, counts and the report match the per-difference row sort, cell
    # order included: code order is lexicographic row order
    p, k, n = shape
    rng = np.random.default_rng(seed)
    J = FpMatrix.from_rows(rng.integers(0, p, (k, k)).tolist(), p)
    while not is_invertible(FpMatrix.identity(k, p).sub(J)):  # the report needs I - J invertible
        J = FpMatrix.from_rows(rng.integers(0, p, (k, k)).tolist(), p)
    assert_tuple_histogram_matches_oracle(random_factor(p, n, seed), J, restrict_to_H)


@given(st.sampled_from(SMALL_SHAPES), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_abstract_histogram_matches_row_sort_oracle(shape, seed):
    p, k, n = shape
    assert_abstract_histogram_matches_oracle(random_factor(p, n, seed), k)


def test_histograms_of_zero_coordinate_factor():
    # no family parts: one atom with no coordinates, one cell
    fac = QuadraticFactor(3, 2, (), (), ())
    for k, J in ((1, [[2]]), (2, [[2, 1], [0, 2]])):
        Jm = FpMatrix.from_rows(J, 3)
        cells, counts, total = pattern_tuple_histogram(fac, Jm)
        assert cells.shape == (1, 4, 0) and counts.tolist() == [total]
        for restrict_to_H in (False, True):
            assert_tuple_histogram_matches_oracle(fac, Jm, restrict_to_H)
        assert abstract_atom_histogram(fac, k).tolist() == [3 ** (4 * k)]
        assert_abstract_histogram_matches_oracle(fac, k)


def test_tuple_histogram_restricted_to_H_matches_oracle():
    p, n = 3, 4
    fac = QuadraticFactor(p, n, ((1, 0, 0, 0), (0, 1, 1, 0)), (FpMatrix.identity(n, p),), ())
    assert_tuple_histogram_matches_oracle(fac, FpMatrix.from_rows([[2]], p), True)
    fac2 = QuadraticFactor(p, 2, ((1, 2),), (FpMatrix.identity(2, p),), (FpMatrix.from_rows([[0, 1], [2, 0]], p),))
    assert_tuple_histogram_matches_oracle(fac2, FpMatrix.from_rows([[2, 1], [0, 2]], p), True)


def test_abstract_histogram_past_rank_compression():
    # ten symmetric parts at p = 3, k = 2, n = 2: the folded code would need
    # A^2 3^40 >= 2^63 values, so the partial code is rank-compressed
    p, k, n = 3, 2, 2
    rng = np.random.default_rng(7)
    mats = []
    for _ in range(10):
        a = rng.integers(0, p, (n, n))
        mats.append(FpMatrix.from_rows(((a + a.T) % p).tolist(), p))
    fac = QuadraticFactor(p, n, (), tuple(mats), ())
    A = len(atom_images(fac, k)[1])
    assert A**2 * p ** (k * k * len(mats)) >= 2**63
    assert_abstract_histogram_matches_oracle(fac, k)


def test_tuple_histogram_refuses_codes_past_int64(monkeypatch):
    # ten independent linear parts: A = 3^10 atoms, A^4 >= 2^63; the refusal
    # comes before any translate is built
    p, n = 3, 10
    fac = QuadraticFactor(p, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), (), ())

    def no_translates(*args, **kwargs):
        raise AssertionError("the per-difference loop was reached")

    monkeypatch.setattr(analysis, "Translates", no_translates)
    with pytest.raises(TooLarge, match=f"atoms\\^4 = {3 ** 40} exceeds the int64 code limit 2\\^63 = {2**63}"):
        pattern_tuple_distribution(fac, FpMatrix.from_rows([[2]], p), guard=4 * 10**9)


# -- structured pattern average -----------------------------------------------


def test_structured_average_trivial_factor():
    p, n = 3, 2
    f = GridFunction.constant(p, 1, n, Fraction(2, 5), RATIONAL)
    fac = QuadraticFactor(p, n, (), (), ())
    r = structured_pattern_average(f, fac, FpMatrix.from_rows([[2]], p))
    assert r["lhs"] == Fraction(2, 5) ** 4 and r["holds"]


def test_structured_average_random_projection():
    p, n = 3, 4
    J = FpMatrix.from_rows([[2]], p)
    fac = QuadraticFactor(p, n, ((1, 0, 0, 0),), (FpMatrix.identity(n, p),), ())
    raw = random_indicator(p, 1, n, 0.5, 13, RATIONAL)
    f = conditional_expectation(raw, fac)
    r = structured_pattern_average(f, fac, J)
    assert r["holds"]
    # a single atom's indicator has positive self-pattern density
    atom, _ = atom_images(fac, 1)
    ind = GridFunction(p, 1, n, (atom == atom[0]).astype(np.int64), RATIONAL)
    r2 = structured_pattern_average(ind, fac, J)
    assert r2["lhs"] > 0


def test_structured_average_bound_uses_rank_of_b1():
    # a dependent row of b1 cuts H no further, so the bound keeps p^(-k rank(b1)):
    # the constant 2/5 meets it with equality
    p, n = 3, 3
    f = GridFunction.constant(p, 1, n, Fraction(2, 5), RATIONAL)
    fac = QuadraticFactor(p, n, ((1, 0, 0), (2, 0, 0)), (), ())
    r = structured_pattern_average(f, fac, FpMatrix.from_rows([[2]], p))
    assert r["lhs"] == r["bound"] == Fraction(16, 1875) and r["holds"]


def test_structured_average_guard_states_estimate():
    p, n = 3, 2
    f = GridFunction.constant(p, 1, n, Fraction(2, 5), RATIONAL)
    fac = QuadraticFactor(p, n, (), (), ())
    with pytest.raises(TooLarge, match="= 81 exceeds guard 80"):
        structured_pattern_average(f, fac, FpMatrix.from_rows([[2]], p), guard=80)


def test_structured_average_not_measurable():
    p, n = 3, 3
    fac = QuadraticFactor(p, n, ((1, 0, 0),), (), ())
    f = random_indicator(p, 1, n, 0.5, 19, RATIONAL)
    with pytest.raises(NotMeasurable):
        structured_pattern_average(f, fac, FpMatrix.from_rows([[2]], p))

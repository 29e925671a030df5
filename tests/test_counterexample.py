import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from popdiff.errors import DependentDirections, TooLarge
from popdiff._grid import digit_table
from popdiff.ffalg import FpMatrix, nullspace
from popdiff.patterns import SubspaceBasis
from popdiff.counterexample import (
    LAMBDA2_ORTHO,
    REMARK_VECTOR,
    SHIFT_COEFFS,
    DressingParams,
    Hypergraphon,
    ap3_free_set,
    assemble_seeds,
    build_core,
    cex_report,
    class_pattern_expectations,
    core_expectation_table,
    dress_and_measure,
    dressed_h_matrix,
    eight_tuple_distribution,
    f1_exact_mean,
    f1_matrix,
    final_assembly,
    has_nontrivial_4ap,
    hypergraph_expectations,
    is_3ap_free,
    sparse_pattern_max,
    support_pair_hits,
    support_pattern_counts,
    unique_triangle_check,
)
import popdiff.counterexample as cex
from popdiff import _pcg64
from popdiff.counterexample import _affine_membership, _integers5, _pcg64_streams, _uniform_tables

from oracles import (
    build_f1,
    diagonalize_rotated_square,
    dressed_h_by_combo_index,
    f1_matrix_by_einsum,
    f1_pattern_count_exact,
    max_ap3_free_by_whole_set_check,
    membership_masks_by_inverse,
    pattern_count_by_roll,
    pattern_table_by_einsum,
    sparse_pattern_max_by_isin,
    support_pair_hits_by_pair_differences,
    unique_triangles_by_edge_scan,
)


def test_core_invariants():
    core = build_core()
    assert len(core.S) == 10
    assert core.Lambda2.dim == 5
    assert core.Lambda2.contains(REMARK_VECTOR)
    assert int(core.g1.sum()) == 10


def test_core_expectation_values():
    t = core_expectation_table(build_core())
    assert t["sup"] == Fraction(73, 3125)
    assert t["mean_g1"] == Fraction(2, 5)
    assert t["strict"] and Fraction(73, 3125) < Fraction(2, 5) ** 4


def test_core_table_basis_invariance():
    core = build_core()
    t1 = core_expectation_table(core)
    # a different basis of the same subspace: shuffle through row operations
    rows = [[x % 5 for x in v] for v in LAMBDA2_ORTHO]
    basis = nullspace(rows, 5, ncols=8)
    alt = []
    for i, v in enumerate(basis):
        w = list(v)
        if i + 1 < len(basis):
            w = [(a + 2 * b) % 5 for a, b in zip(w, basis[i + 1])]
        alt.append(tuple(w))
    core2 = type(core)(core.S, core.g1, SubspaceBasis(5, 8, tuple(alt), "eight-tuples"))
    t2 = core_expectation_table(core2)
    assert t1["table"] == t2["table"]


def test_diagonalization():
    d = diagonalize_rotated_square()
    assert d["conjugation_identity"]
    assert d["second_coordinates_ok"]
    assert d["spec"].M2.to_lists() == [[2, 0], [0, 3]]
    # the sign-flipped rotation conjugates to the negated diagonal form
    assert d["negated_matrix_conjugate"] == [[3, 0], [0, 2]]


def test_conjugation_preserves_count_multisets():
    # counting the rotated pattern on f equals counting the diagonal pattern
    # on the Gamma-pushforward of f, difference by difference
    from popdiff.analysis import popular_search
    from popdiff.gridfn import GridFunction, grid_size
    from popdiff.patterns import PatternSpec
    from popdiff._grid import linear_perm

    p, k, n = 5, 2, 2
    d = diagonalize_rotated_square()
    rng = np.random.default_rng(2)
    vals = (rng.random(grid_size(p, k, n)) < 0.5).astype(float)
    f = GridFunction(p, k, n, vals, "float")
    rot_spec = PatternSpec(p, 2, FpMatrix.identity(2, p), FpMatrix.from_rows([[0, 1], [-1, 0]], p))
    diag_spec = d["spec"]
    gperm = linear_perm(p, k, n, d["gamma"].to_lists())
    pushed = np.empty_like(vals)
    pushed[gperm] = vals  # (f o Gamma^{-1})(y) = f(x) when y = Gamma x
    g = GridFunction(p, k, n, pushed, "float")
    r1 = popular_search(f, rot_spec, 0.05)
    r2 = popular_search(g, diag_spec, 0.05)
    assert sorted(r1.counts.values()) == pytest.approx(sorted(r2.counts.values()))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_f1_matches_einsum_oracle(n):
    cex._f1_cached.cache_clear()
    got = f1_matrix(build_core(), n)
    want = f1_matrix_by_einsum(build_core(), n)
    assert got.dtype == want.dtype and np.array_equal(got, want) and not got.flags.writeable


def test_f1_small_cases():
    core = build_core()
    F = f1_matrix(core, 1)
    for x in range(5):
        for y in range(5):
            assert F[x, y] == core.g1[(x * x) % 5, (x * y) % 5]
    assert abs(float(f1_exact_mean(core, 4)) - 0.4) <= 0.02
    # grid index of the function is ix + 5^n iy
    f = build_f1(core, 2)
    F2 = f1_matrix(core, 2)
    assert f.values[3 + 25 * 7] == F2[3, 7]


def test_f1_beta_matches_core_prediction():
    core = build_core()
    table = core_expectation_table(core)["table"]
    n = 4
    a = np.array([1, 0, 0, 0])
    b = np.array([0, 1, 0, 0])
    beta = f1_pattern_count_exact(core, n, a, b)
    assert abs(float(beta) - float(table[int(a @ a % 5)])) < 0.02
    # tighter agreement at n = 5 for a fixed generic pair
    n = 5
    a5 = np.array([1, 0, 0, 0, 0])
    b5 = np.array([0, 1, 0, 0, 0])
    beta5 = f1_pattern_count_exact(core, n, a5, b5)
    assert abs(float(beta5) - float(table[int(a5 @ a5 % 5)])) < 0.01


def test_eight_tuple_reports():
    devs = {}
    for n in (3, 4, 5):
        a = np.zeros(n, dtype=int)
        a[0] = 1
        b = np.zeros(n, dtype=int)
        b[1] = 1
        rep = eight_tuple_distribution(a, b, n)
        assert rep.support_ok
        assert rep.extras["hull_equal"]
        if n >= 4:
            assert rep.support_equal
        devs[n] = rep.max_multiplicative_deviation
    assert devs[5] < devs[4] < devs[3]
    with pytest.raises(DependentDirections):
        eight_tuple_distribution([1, 0, 0], [2, 0, 0], 3)


def test_ap3_free_sets():
    assert is_3ap_free({1, 2}, 5)
    assert not is_3ap_free({0, 1, 2}, 7)
    assert ap3_free_set(20, "greedy")
    assert is_3ap_free(ap3_free_set(20, "greedy"), 20)
    assert is_3ap_free(ap3_free_set(50, "behrend"), 50)
    # exhaustive-max against brute force over all subsets for small L
    for L in (5, 7, 9):
        best = 0
        for mask in range(1 << L):
            s = {i for i in range(L) if mask >> i & 1}
            if is_3ap_free(s, L):
                best = max(best, len(s))
        assert len(ap3_free_set(L, "exhaustive-max")) == best


@pytest.mark.parametrize("L", range(1, 31))
def test_exhaustive_max_matches_whole_set_check_oracle(L):
    # the per-residue counts pick the set that re-checking the whole chosen
    # list picks, at odd and even L (where t = L/2 pairs z with z + L/2)
    assert ap3_free_set(L, "exhaustive-max") == tuple(max_ap3_free_by_whole_set_check(L))


def test_hypergraph_expectations_examples():
    # the L=5 set {1,2} gives mean 2/25 and the forced pattern 2/5^6
    h = Hypergraphon(5, (1, 2))
    e = hypergraph_expectations(h)
    assert e["mean_g2"] == Fraction(2, 25)
    assert e["patternA"] == Fraction(2, 5**6)
    assert e["patternA_matches"]
    for L in (5, 7, 11):
        h = Hypergraphon(L, ap3_free_set(L, "exhaustive-max"))
        e = hypergraph_expectations(h)
        assert e["patternA_matches"]
        assert e["patternB_bound_holds"]
        assert e["unique_triangles_ok"]
        assert unique_triangle_check(h)


def _unvalidated_hypergraphon(L, lam):
    """The Hypergraphon of lam without the constructor's 3-AP refusal."""
    h = object.__new__(Hypergraphon)
    object.__setattr__(h, "L", L)
    object.__setattr__(h, "lam", lam)
    return h


@pytest.mark.parametrize("L", range(1, 31))
def test_hypergraph_checks_match_edge_scan_and_einsum_oracles(L):
    # every set ap3_free_set returns, and every set of size <= 3 up to
    # x -> u x + c (u a unit mod L): the hypergraphon of u lam + c is that of
    # lam with its parts relabelled (s -> u s, v -> u v + c, w -> u w + 2c),
    # which moves neither check, so one set per orbit stands for the orbit.
    # Sets holding a 3-AP, built past the refusal, have edges with two
    # completions, so the check must also say False where the scan does
    units = [u for u in range(1, L) if math.gcd(u, L) == 1] or [0]
    sets = {ap3_free_set(L, method) for method in ("greedy", "exhaustive-max", "behrend")}
    seen = set()
    for lam in itertools.chain.from_iterable(itertools.combinations(range(L), r) for r in range(4)):
        if lam not in seen:
            seen.update(tuple(sorted((u * t + c) % L for t in lam)) for u in units for c in range(L))
            sets.add(lam)
    for lam in sets:
        h = _unvalidated_hypergraphon(L, lam)
        assert unique_triangle_check(h) == unique_triangles_by_edge_scan(h), lam
        assert hypergraph_expectations(h)["pattern_table"] == pattern_table_by_einsum(h), lam
    if L >= 3:
        assert not unique_triangle_check(_unvalidated_hypergraphon(L, (0, 1, 2)))


def test_hypergraphon_rejects_ap():
    with pytest.raises(ValueError):
        Hypergraphon(7, (0, 1, 2))


def test_patternA_forced_for_all_small_hypergraphons():
    # the unique-triangle argument forces patternA = |lam|/L^6 for every
    # validated difference set, not just the maximum ones
    for L in range(3, 12):
        for method in ("greedy", "exhaustive-max"):
            lam = ap3_free_set(L, method)
            if not lam:
                continue
            e = hypergraph_expectations(Hypergraphon(L, lam))
            assert e["patternA_matches"], (L, method, lam)
            assert e["unique_triangles_ok"]


def test_class_offsets_match_table_index_collisions():
    # the prediction machinery's collision structure equals the structure of
    # the actual table indices used by the dressing, for every class
    from popdiff.counterexample import F2_COMBOS, F3_COMBOS

    fam_combos = dict(zip(("X", "Y", "Z"), F2_COMBOS))
    fam_combos.update(zip(("Xp", "Yp", "Zp"), F3_COMBOS))
    a = np.array([1, 0])
    for lam in (1, 2, 3, 4):
        b = (lam * a) % 5
        for fam, (al, be) in fam_combos.items():
            # index offset of pattern point t relative to point 0
            idxs = []
            for cx, cy in SHIFT_COEFFS:
                vec = (al * cx * a + be * cy * b) % 5
                idxs.append(tuple(vec))
            # two points collide iff the offset coefficients agree
            coeffs = [(al * cx + be * cy * lam) % 5 for cx, cy in SHIFT_COEFFS]
            for t1 in range(4):
                for t2 in range(4):
                    assert (idxs[t1] == idxs[t2]) == (coeffs[t1] == coeffs[t2])


def test_class_pattern_expectations_match_display_products():
    h = Hypergraphon(5, ap3_free_set(5, "exhaustive-max"))
    tab = hypergraph_expectations(h)["pattern_table"]
    mg = hypergraph_expectations(h)["mean_g2"]
    products = {
        1: tab["A"] * tab["B"],
        4: tab["C"] * tab["D"],
        2: tab["B"] * tab["C"],
        3: tab["D"] * tab["A"],
    }
    for lam, want in products.items():
        e1, e2 = class_pattern_expectations(h, lam)
        assert e1 * e2 == want
    for cls in ("a0", "0b"):
        e1, e2 = class_pattern_expectations(h, cls)
        assert e1 * e2 == mg**8


def test_dressed_h_deterministic():
    core = build_core()
    h = Hypergraphon(5, (1, 2))
    m1 = dressed_h_matrix(core, h, 2, 99, 0)
    m2 = dressed_h_matrix(core, h, 2, 99, 0)
    m3 = dressed_h_matrix(core, h, 2, 99, 1)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, m3)


@given(st.sampled_from([5, 7, 11]), st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_dressed_h_matches_combo_index_oracle(L, n, master_seed, seed_index):
    core = build_core()
    h = Hypergraphon(L, ap3_free_set(L, "exhaustive-max"))
    got = dressed_h_matrix(core, h, n, master_seed, seed_index)
    want = dressed_h_by_combo_index(core, h, n, master_seed, seed_index)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_dressed_h_guard_states_estimate():
    h = Hypergraphon(5, (1, 2))
    with pytest.raises(TooLarge, match="= 625 exceeds guard 624"):
        dressed_h_matrix(build_core(), h, 2, 0, 0, guard=624)


def test_f1_built_once_per_dress_under_any_guard():
    # the f1 cache keys on (core, n) alone, and every f1 read of a dressing
    # checks the caller's guard, so a non-default guard builds f1 once
    cex._f1_cached.cache_clear()
    dress_and_measure(build_core(), Hypergraphon(7, (1, 2)), 3, 3, 0, guard=10**9)
    assert cex._f1_cached.cache_info().misses == 1


def _membership_masks(n, gamma, master_seed, seed_index, order=None):
    """The point query at every (x, y), in the given order of the P^2 points,
    as the two (P, P) uint8 masks of membership_masks_by_inverse."""
    P = 5**n
    order = np.arange(P * P) if order is None else np.asarray(order)
    xs, ys = np.divmod(order, P)
    masks = []
    for found in _affine_membership(n, gamma, master_seed, [(seed_index, xs, ys)])[0]:
        mask = np.zeros(P * P, dtype=np.uint8)
        mask[order] = found
        masks.append(mask.reshape(P, P))
    return masks


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.integers(0, 2**32 - 1), st.integers(0, 50), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_membership_masks_match_inverse_oracle(shape, master_seed, seed_index, shuffle_seed):
    n, gamma = shape
    # the query reads each point's own generator, in any order; a shuffle of
    # 25^n points drawn from Hypothesis itself would overrun its data at n = 4
    order = np.random.default_rng(shuffle_seed).permutation(25**n)
    got = _membership_masks(n, gamma, master_seed, seed_index, order)
    want = membership_masks_by_inverse(n, gamma, master_seed, seed_index)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


# keys of one, two and three 32-bit words
STREAM_KEYS = [0, 7, 2**32 - 1, 2**32 + 3, 2**64 + 5, 2**96 - 1]


@given(st.lists(st.lists(st.sampled_from(STREAM_KEYS), min_size=1, max_size=3), min_size=1, max_size=3),
       st.integers(1, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_integers5_matches_numpy_streams(prefixes, count, data):
    # several prefixes share each call; odd and even sizes in turn leave some
    # rows at odd offsets and some at even ones, so one call reads both
    odd, even = 2 * data.draw(st.integers(0, 4)) + 1, 2 * data.draw(st.integers(1, 4))
    sizes = data.draw(st.permutations([odd, even] + data.draw(st.lists(st.integers(0, 9), max_size=3))))
    base, inc = _pcg64_streams(prefixes, count)
    rngs = [np.random.default_rng(prefix + [g]) for prefix in prefixes for g in range(count)]
    drawn = np.zeros(len(rngs), dtype=np.int64)
    for size in sizes:
        rows = np.array(sorted(data.draw(st.sets(st.integers(0, len(rngs) - 1), min_size=1))))
        got, zero = _integers5(base[rows], inc[rows], drawn[rows], size)
        drawn[rows] += size
        want = np.stack([rngs[r].integers(0, 5, size=size) for r in rows])
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert zero.dtype == bool and not zero.any()


@given(st.sampled_from([0, 7, 2**32 - 1, 2**32 + 3, 2**64 + 5]),
       st.lists(st.tuples(st.sampled_from([0, 1, 4, 2**32 - 1, 2**32]), st.sampled_from([101, 102])),
                min_size=1, max_size=5, unique=True),
       st.integers(1, 9), st.data())
@settings(max_examples=30, deadline=None)
def test_multi_prefix_stack_matches_numpy_row_by_row(master_seed, tables, count, data):
    # seed indices of one and two 32-bit words share a stack of generator rows
    # with both tables; row i count + g is seeded as default_rng(prefixes[i] + [g]),
    # whose state is M base + inc, and draws as it
    prefixes = [[master_seed, sidx, tid] for sidx, tid in tables]
    base, inc = _pcg64_streams(prefixes, count)
    rngs = [np.random.default_rng(prefix + [g]) for prefix in prefixes for g in range(count)]
    for row, rng in enumerate(rngs):
        want = rng.bit_generator.state["state"]
        b, i = (int(w[row, 0]) << 64 | int(w[row, 1]) for w in (base, inc))
        assert [(_pcg64._PCG_MULT * b + i) % 2**128, i] == [want["state"], want["inc"]]
    drawn = np.zeros(len(rngs), dtype=np.int64)
    for size in data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)):  # odd sizes leave odd offsets
        rows = np.array(sorted(data.draw(st.sets(st.integers(0, len(rngs) - 1), min_size=1))))
        got, zero = _integers5(base[rows], inc[rows], drawn[rows], size)
        drawn[rows] += size
        want = np.stack([rngs[r].integers(0, 5, size=size) for r in rows])
        assert np.array_equal(got, want) and not zero.any()


def _zero_half(monkeypatch, base_row, position):
    """Make every output that _pcg64_at reads of the generator with base words
    base_row hold a zero at 32-bit half position of its stream."""
    real = cex._pcg64_at

    def forced(base, inc, t):
        out = real(base, inc, t)
        hit = (base == base_row).all(axis=1)[:, None] & (np.broadcast_to(t, out.shape) == position // 2)
        out[hit] &= ~np.uint64(_pcg64._MASK32 << 32 * (position % 2))
        return out

    monkeypatch.setattr(cex, "_pcg64_at", forced)


@pytest.mark.parametrize("position", [0, 1, 2, 3, 4, 8])
def test_integers5_flags_a_zero_half(monkeypatch, position):
    # row 7, the first row of the first draw, is generator 2 of the second
    # prefix, whose calls draw halves 0-2, 3-6, 7 and 8-9: position 3 is the
    # half that the first call leaves unread. Only the call whose halves hold
    # the zero flags the row, and every other row draws what numpy draws
    prefixes, count = [[2**32 + 3, 1, 101], [2**32 + 3, 1, 102]], 5
    base, inc = _pcg64_streams(prefixes, count)
    _zero_half(monkeypatch, base[7], position)
    rngs = [np.random.default_rng(prefix + [g]) for prefix in prefixes for g in range(count)]
    drawn, flagged = np.zeros(len(rngs), dtype=np.int64), []
    for size, rows in ((3, [7, 0, 1, 2, 3, 4]), (4, [7, 2]), (1, [0, 1, 7, 3, 4]), (2, [1, 7])):
        rows = np.array(rows)
        got, zero = _integers5(base[rows], inc[rows], drawn[rows], size)
        met = drawn[7] <= position < drawn[7] + size
        drawn[rows] += size
        want = np.stack([rngs[r].integers(0, 5, size=size) for r in rows])
        assert zero.tolist() == [r == 7 and met for r in rows.tolist()]
        assert np.array_equal(got[~zero], want[~zero])
        flagged.append(bool(zero.any()))
    assert sum(flagged) == 1


def test_membership_masks_after_a_zero_half():
    # a zero half in the first A round, in the second and in the c draw: the
    # generator that met it is redrawn whole through numpy, and the masks are
    # the oracle's
    want, real_rng = membership_masks_by_inverse(3, 1, 9, 2), np.random.default_rng
    with pytest.MonkeyPatch.context() as m:
        calls, real = [], cex._pcg64_at
        m.setattr(cex, "_pcg64_at", lambda base, inc, t: calls.append(len(base)) or real(base, inc, t))
        _membership_masks(3, 1, 9, 2)
    assert len(calls) >= 3  # A rounds, then c
    for call in (1, 2, len(calls)):
        with pytest.MonkeyPatch.context() as m:
            made, seen = [], []

            def forced(base, inc, t):
                out = real(base, inc, t)
                seen.append(len(base))
                if len(seen) == call:
                    out[0, 0] = 0  # output drawn // 2 of the first row holds its first draw of this call
                return out

            m.setattr(cex, "_pcg64_at", forced)
            m.setattr(np.random, "default_rng", lambda *args: made.append(args) or real_rng(*args))
            got = _membership_masks(3, 1, 9, 2)
        assert len(made) == 1
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_membership_masks_past_one_seed_word(gamma):
    # a master seed of two 32-bit words, at odd n, where c opens on a carried half
    got = _membership_masks(3, gamma, 2**32 + 3, 1)
    want = membership_masks_by_inverse(3, gamma, 2**32 + 3, 1)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_membership_masks_construct_no_generator(monkeypatch):
    calls = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    _membership_masks(4, 1, 0, 0)
    assert calls == []


def test_membership_draws_only_the_generators_it_reads(monkeypatch):
    # the point (x, y) reads generator y of table 101 and generator x of table
    # 102; a query at a few points equals the full masks there
    base, _ = _pcg64_streams([[5, 1, 101], [5, 1, 102]], 125)
    which, drawn, real = {tuple(w): (101 + r // 125, r % 125) for r, w in enumerate(base.tolist())}, set(), _integers5

    def spy(base, inc, done, count):
        drawn.update(which[tuple(w)] for w in base.tolist())
        return real(base, inc, done, count)

    monkeypatch.setattr(cex, "_integers5", spy)
    xs, ys = np.array([0, 7, 7, 124, 60]), np.array([3, 3, 99, 0, 60])
    got = _affine_membership(3, 2, 5, [(1, xs, ys)])[0]
    assert drawn == {(101, y) for y in ys.tolist()} | {(102, x) for x in xs.tolist()}
    for g, w in zip(got, membership_masks_by_inverse(3, 2, 5, 1)):
        assert g.dtype == bool and g.tolist() == w[xs, ys].astype(bool).tolist()
    assert [len(g) for g in _affine_membership(3, 2, 5, [(1, xs[:0], ys[:0])])[0]] == [0, 0]


# keys of one, two and three 32-bit words
UNIFORM_KEYS = [0, 5, 2**32 - 1, 2**32, 2**32 + 3, 2**64 - 1, 2**64 + 5, 2**96 - 1]


@given(st.lists(st.lists(st.sampled_from(UNIFORM_KEYS), min_size=1, max_size=3), min_size=1, max_size=3),
       st.integers(1, 4), st.integers(1, 3125))
@example([[0, 0]], 6, 625)
@example([[2**64 + 5, 2**32 - 1], [7, 2**96 - 1, 0]], 2, 1)
@settings(max_examples=25, deadline=None)
def test_uniform_tables_match_numpy_bit_for_bit(prefixes, count, size):
    # prefixes of mixed word widths share one call; row i count + g is default_rng(prefixes[i] + [g])
    got = _uniform_tables(prefixes, count, size)
    want = np.stack([np.random.default_rng(prefix + [g]).random(size) for prefix in prefixes for g in range(count)])
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("prefix", [[-1], [0, -1], [2**64, -(2**40)]])
def test_uniform_tables_refuse_a_negative_key_as_numpy_does(prefix):
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(prefix + [0])
    with pytest.raises(ValueError) as ours:
        _uniform_tables([prefix], 2, 3)
    assert str(ours.value) == str(numpy_error.value) == "expected non-negative integer"


def test_cex_report_does_not_import_numpy_random():
    code = ("import sys\n"
            "from popdiff import counterexample as cex\n"
            "h = cex.Hypergraphon(7, cex.ap3_free_set(7, 'exhaustive-max'))\n"
            "cex.cex_report(cex.build_core(), h, cex.DressingParams(seed=3, n=2, gamma=1), seeds=4)\n"
            "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"


@pytest.mark.parametrize("master_seed, seed_index", [(-1, 0), (0, -1)])
def test_membership_masks_refuse_a_negative_key(master_seed, seed_index):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _membership_masks(2, 1, master_seed, seed_index)


def test_dressed_h_code_past_uint16():
    # L = 41 folds three cells into codes up to 41^3 - 1, past uint16
    core = build_core()
    h = Hypergraphon(41, ap3_free_set(41, "greedy"))
    for n, master_seed, seed_index in ((2, 6, 1), (1, 0, 0), (3, 2**32 + 3, 4), (4, 9, 2)):
        got = dressed_h_matrix(core, h, n, master_seed, seed_index)
        want = dressed_h_by_combo_index(core, h, n, master_seed, seed_index)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_dressed_h_where_the_f2_product_is_empty():
    # F3 is read only at the support of f1 F2: an empty hypergraphon leaves no
    # support at all, and at n = 1 some seeds find none by chance
    core = build_core()
    h = Hypergraphon(7, ap3_free_set(7, "exhaustive-max"))
    empty = 0
    for seed_index in range(12):
        got = dressed_h_matrix(core, h, 1, 3, seed_index)
        assert np.array_equal(got, dressed_h_by_combo_index(core, h, 1, 3, seed_index))
        empty += not dressed_h_by_combo_index(core, h, 1, 3, seed_index, blocks=1).any()
    assert empty >= 3
    for n in (1, 2, 3):
        got = dressed_h_matrix(core, Hypergraphon(5, ()), n, 4, 0)
        assert got.dtype == np.uint8 and got.shape == (5**n, 5**n) and not got.any()


def test_dress_and_measure_alpha():
    core = build_core()
    h = Hypergraphon(5, (1, 2))
    rep = dress_and_measure(core, h, 2, 16, master_seed=3)
    assert rep["alpha"]["within"]
    assert all(d["within"] for d in rep["differences"])


def test_dress_and_measure_predicts_from_vectors():
    core = build_core()
    h = Hypergraphon(5, (1, 2))
    base = dress_and_measure(core, h, 2, 3, master_seed=3)
    renamed = [(f"mine-{i}", d["a"], d["b"]) for i, d in enumerate(base["differences"])]
    rep = dress_and_measure(core, h, 2, 3, master_seed=3, differences=renamed)
    assert [d.pop("label") for d in rep["differences"]] == [label for label, _, _ in renamed]
    # the default labels name their classes: generic, b = lambda a, b = 0, a = 0
    classes = ["generic", 1, 2, 3, 4, "a0", "0b"]
    for d, lam_class in zip(base["differences"], classes):
        if lam_class == "generic":
            factor = hypergraph_expectations(h)["mean_g2"] ** 8
        else:
            e1, e2 = class_pattern_expectations(h, lam_class)
            factor = e1 * e2
        assert d["predicted"] == float(Fraction(d["beta1_exact"]) * factor)
        del d["label"]
    assert rep == base
    # a label that contradicts its vectors: b = 2a is predicted as b = 2a
    b2a = base["differences"][2]
    assert (b2a["a"], b2a["b"]) == ([1, 0], [2, 0])
    wrong = dress_and_measure(core, h, 2, 3, master_seed=3, differences=[("b=0", [1, 0], [2, 0])])
    assert wrong["differences"][0]["predicted"] == b2a["predicted"]
    assert wrong["differences"][0]["predicted"] != base["differences"][5]["predicted"]
    with pytest.raises(DependentDirections):
        dress_and_measure(core, h, 2, 2, master_seed=3, differences=[("zero", [0, 0], [5, 0])])


def test_dress_default_differences_at_n1_have_no_generic_pair():
    # F_5^1 has no independent pair (a, b), so the default list has no
    # "generic" entry there; from n = 2 on it leads the list
    core, h = build_core(), Hypergraphon(5, (1, 2))
    labels = [d["label"] for d in dress_and_measure(core, h, 1, 2, master_seed=3)["differences"]]
    assert labels == ["b=1a", "b=2a", "b=3a", "b=4a", "b=0", "a=0"]
    assert dress_and_measure(core, h, 2, 2, master_seed=3)["differences"][0]["label"] == "generic"


@given(st.integers(1, 3), st.sampled_from(["0/1", "small"]), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_support_pattern_counts_match_roll_oracle(n, values, seed):
    # random 0/1 and small signed integer matrices; the differences include
    # zero, b = lambda a, b = 0, a = 0 and a random pair
    P = 5**n
    rng = np.random.default_rng(seed)
    F = rng.random((P, P)) < rng.uniform(0.05, 0.7)
    F = F.astype(np.uint8) if values == "0/1" else F * rng.integers(-3, 4, (P, P))
    a, b, zero = rng.integers(0, 5, n), rng.integers(0, 5, n), np.zeros(n, dtype=np.int64)
    differences = [(zero, zero), (a, int(rng.integers(1, 5)) * a), (a, zero), (zero, b), (a, b)]
    want = [pattern_count_by_roll(F, n, a, b) for a, b in differences]
    assert support_pattern_counts(F, n, differences) == want
    assert support_pattern_counts(np.asfortranarray(F), n, differences[::-1]) == want[::-1]


def test_dress_and_measure_memory_stays_below_a_matrix_extension():
    # the dressing is counted over its support: at n = 4 the whole
    # measurement peaks below the 9^n x 5^n bytes of one periodic extension
    # of the (5^n, 5^n) uint8 matrix over its rows
    core, h, n = build_core(), Hypergraphon(7, ap3_free_set(7, "exhaustive-max")), 4
    want = dress_and_measure(core, h, n, 2, master_seed=1)  # fills the table caches outside the measurement
    tracemalloc.start()
    try:
        got = dress_and_measure(core, h, n, 2, master_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 9**n * 5**n


def test_final_assembly_and_sparse_max():
    core = build_core()
    h = Hypergraphon(5, (1, 2))
    params = DressingParams(seed=8, n=2, gamma=1)
    rep = final_assembly(core, h, params, 0)
    assert rep["subchecks"]["digit_set_4ap_free"]
    assert rep["subchecks"]["exponent_ok"]
    assert rep["subchecks"]["gamma_bound_ok"]
    # sparse max equals the direct exhaustive max on a small random matrix
    rng = np.random.default_rng(0)
    fm = (rng.random((5, 5)) < 0.4).astype(np.uint8)
    got = sparse_pattern_max(*np.nonzero(fm), 1)
    best = 0.0
    digs = np.arange(5)
    for ia in range(5):
        for ib in range(5):
            if ia == 0 and ib == 0:
                continue
            cnt = 0
            for x in range(5):
                for y in range(5):
                    pts = [(x, y)]
                    for cx, cy in SHIFT_COEFFS[1:]:
                        pts.append(((x + cx * ia) % 5, (y + cy * ib) % 5))
                    if all(fm[a, b] for a, b in pts):
                        cnt += 1
            best = max(best, cnt / 25.0)
    assert got["max_beta"] == pytest.approx(best)


def brute_pattern_max(fm, n):
    """sparse_pattern_max by counting, for every nonzero (a, b) in code order
    a P + b, the points (x, y) whose four pattern points all lie in fm."""
    P = 5**n
    digs = digit_table(5, n)
    enc = 5 ** np.arange(n)
    best, best_ab = 0, None
    for a in range(P):
        for b in range(P):
            if a == b == 0:
                continue
            inside = np.ones((P, P), dtype=bool)
            for cx, cy in SHIFT_COEFFS:
                xs = (digs + cx * digs[a]) % 5 @ enc
                ys = (digs + cy * digs[b]) % 5 @ enc
                inside &= fm[np.ix_(xs, ys)].astype(bool)
            if inside.sum() > best:
                best, best_ab = int(inside.sum()), (a, b)
    argmax = None if best_ab is None else [digs[best_ab[0]].tolist(), digs[best_ab[1]].tolist()]
    return {"max_beta": best / (P * P), "argmax": argmax, "support": int(fm.sum())}


@given(st.integers(1, 2), st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sparse_pattern_max_matches_brute_force(n, density, seed):
    # density 1 ties every difference (the smallest code wins); sparse
    # supports often have no hit at all (argmax None)
    P = 5**n
    fm = (np.random.default_rng(seed).random((P, P)) < density).astype(np.uint8)
    assert sparse_pattern_max(*np.nonzero(fm), n, chunk_pairs=97) == brute_pattern_max(fm, n)


@given(st.sampled_from(["empty", "sparse", "dense rows"]), st.sampled_from([97, 5000, 2_000_000]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_sparse_pattern_max_matches_isin_oracle_at_n3(case, chunk_pairs, seed):
    # "dense rows" fills the rows of a line {t v} with sparse noise elsewhere:
    # every (a, b) with a on the line hits all 5 * 125 rows' points, so
    # hundreds of codes tie and the smallest must win; chunk_pairs = 97
    # gives each chunk one support point's pairs
    n, P = 3, 125
    rng = np.random.default_rng(seed)
    density = {"empty": 0.0, "sparse": rng.uniform(0.005, 0.04), "dense rows": rng.uniform(0.0, 0.01)}[case]
    fm = (rng.random((P, P)) < density).astype(np.uint8)
    if case == "dense rows":
        v = digit_table(5, n)[rng.integers(1, P)]
        fm[[int((t * v % 5) @ 5 ** np.arange(n)) for t in range(5)], :] = 1
    got = sparse_pattern_max(*np.nonzero(fm), n, chunk_pairs=chunk_pairs)
    assert got == sparse_pattern_max_by_isin(fm, n, chunk_pairs=chunk_pairs)
    if case == "dense rows":
        assert got["max_beta"] >= 5 * P / P**2  # a = 0 alone keeps the five full rows


@given(st.integers(1, 3), st.integers(0, 700), st.booleans(), st.sampled_from([1, 97, 5000, 2_000_000]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_support_pair_hits_match_pair_difference_oracle(n, size, lines, chunk_pairs, seed):
    # random supports, and with lines on, the product of a line in x and a
    # line in y (with noise), whose patterns hit along both lines; the whole
    # histogram must agree, not only its max, whatever the order of the points
    P = 5**n
    rng = np.random.default_rng(seed)
    fm = np.zeros(P * P, dtype=np.uint8)
    fm[rng.choice(P * P, size=min(size, P * P), replace=False)] = 1
    fm = fm.reshape(P, P)
    if lines:
        digs = digit_table(5, n)
        line = lambda: (np.arange(5)[:, None] * digs[rng.integers(1, P)] + digs[rng.integers(P)]) % 5 @ 5 ** np.arange(n)
        fm[np.ix_(line(), line())] = 1
    order = rng.permutation(int(fm.sum()))
    got = support_pair_hits(*(axis[order] for axis in np.nonzero(fm)), n, chunk_pairs)
    want = support_pair_hits_by_pair_differences(fm, n, chunk_pairs)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got[0] == fm.sum()


def test_sparse_pattern_max_without_hits():
    fm = np.zeros((25, 25), dtype=np.uint8)
    assert sparse_pattern_max(*np.nonzero(fm), 2) == {"max_beta": 0.0, "argmax": None, "support": 0}
    fm[3, 7] = fm[4, 9] = 1  # two points, no full pattern through them
    assert sparse_pattern_max(*np.nonzero(fm), 2) == {"max_beta": 0.0, "argmax": None, "support": 2}


def test_assembly_mean_matches_prediction():
    # E over maps of mean(f) = beta^2 E[h]; Monte Carlo across 50 seeds
    core = build_core()
    h = Hypergraphon(5, (1, 2))
    means = []
    preds = []
    for sidx in range(50):
        params = DressingParams(seed=40, n=3, gamma=1)
        rep = final_assembly(core, h, params, sidx)
        means.append(rep["alpha_f"])
        preds.append(rep["beta_T"] ** 2 * rep["alpha_h"])
    m = float(np.mean(means))
    pred = float(np.mean(preds))
    se = float(np.std(means, ddof=1) / np.sqrt(len(means)))
    assert abs(m - pred) <= 3 * se + 1e-9


def test_cex_report_example_scale():
    # the assembled set at n=4, L=7, gamma=1: nearly every seed has its
    # exhaustive max over nonzero differences below the random-set bound
    h = Hypergraphon(7, ap3_free_set(7, "exhaustive-max"))
    rep = cex_report(build_core(), h, DressingParams(seed=20260809, n=4, gamma=1), seeds=12)
    assert rep["monte_carlo"]["seeds_with_max_ratio_below_1"] >= 11
    assert all(bool(v) for v in rep["certified"].values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cex_report_across_stacks_matches_per_seed_assembly(monkeypatch, n):
    # with room for 1, 2 or 3 seeds in a stack, 1..7 seeds span up to 7
    # stacks; each seed's assembly equals final_assembly at that seed alone,
    # and the report's Monte Carlo block is built from those results
    core, h = build_core(), Hypergraphon(7, ap3_free_set(7, "exhaustive-max"))
    params = DressingParams(seed=2**32 + 3, n=n, gamma=1)
    singles = [final_assembly(core, h, params, sidx) for sidx in range(7)]
    stacks, real = [], _affine_membership
    monkeypatch.setattr(cex, "_affine_membership",
                        lambda n, gamma, seed, supports: stacks.append(len(supports)) or real(n, gamma, seed, supports))
    for per_stack in (1, 2, 3):
        monkeypatch.setattr(cex, "_STACK_ROWS", per_stack * 2 * 5**n + 1)
        for seeds in range(1, 8):
            stacks.clear()
            assert assemble_seeds(core, h, params, range(seeds)) == singles[:seeds]
            full, rest = divmod(seeds, per_stack)
            assert stacks == [per_stack] * full + [rest] * (rest > 0)
            ratios = [math.inf if s["max_ratio_to_alpha4"] is None else s["max_ratio_to_alpha4"] for s in singles[:seeds]]
            quantiles = [min(ratios), float(np.median(ratios)), max(ratios)]
            assert cex_report(core, h, params, seeds)["monte_carlo"] == {
                "seeds_with_max_ratio_below_1": sum(r < 1 for r in ratios),
                "mean_alpha_f": float(np.mean([s["alpha_f"] for s in singles[:seeds]])),
                "max_ratio_quantiles": [q if q < math.inf else None for q in quantiles],
            }
    assert any(s["support_size"] for s in singles) or n < 3  # at n = 3 some seed keeps a support


def test_4ap_check():
    assert not has_nontrivial_4ap((0, 1, 2))
    assert has_nontrivial_4ap((0, 1, 2, 3))


def test_cex_report_small():
    h = Hypergraphon(5, ap3_free_set(5, "exhaustive-max"))
    rep = cex_report(build_core(), h, DressingParams(seed=5, n=2, gamma=1), seeds=6)
    assert rep["certified"]["core_strict"]
    assert rep["certified"]["hypergraph_patternA_matches"]
    assert not rep["scope"]["constant_c_certified"]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=9)
       | st.lists(st.sampled_from([0.0, 0.5, 3.25, math.inf]), min_size=1, max_size=6))
@example([3.0, 1.0, 2.0])
@example([4.0, 1.0, 2.0, 3.0])
@example([1e308, 1.7e308])
@example([math.inf, 0.5])
@settings(max_examples=80, deadline=None)
def test_report_median_matches_numpy(values):
    # the report's median ratio, for odd and even counts, overflow to inf and
    # infinite ratios (seeds with an empty support) included
    with np.errstate(over="ignore"):
        want = float(np.median(values))
    assert cex._median(values) == want and type(cex._median(values)) is float
    assert cex._median(list(reversed(values))) == want

import math
import os
import struct
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from popdiff.errors import BadMagic, CorruptLength, DimensionMismatch, NotSymmetric, PopdiffError, TooLarge, VersionMismatch
from popdiff.ffalg import FpMatrix
from popdiff.gridfn import (
    COMPLEX,
    FLOAT,
    RATIONAL,
    GridFunction,
    GridPoint,
    grid_decode,
    grid_encode,
    grid_size,
    read_grid_function,
    write_grid_function,
)
from popdiff.equidist import (
    QuadraticFactor,
    atom_images,
    conditional_expectation,
    factor_image_coords,
    factor_rank,
    h_coset_labels,
    linear_kernel_H,
)
from popdiff import DEFAULT_GUARD
from popdiff._grid import (
    Translates,
    add_index,
    add_perm,
    add_table,
    decode_index,
    dft,
    digit_table,
    encode_digits,
    encode_index,
    pack_rows,
)
from popdiff.analysis import translate
from popdiff.patterns import coord_index

from oracles import block_factor_from_phase, factor_eval, factor_rank_by_combinations, phase_function, roll_translate


@given(st.sampled_from([(3, 1, 2), (5, 2, 1), (3, 2, 2), (7, 1, 1)]), st.data())
@settings(max_examples=40, deadline=None)
def test_encode_decode_bijection(shape, data):
    p, k, n = shape
    idx = data.draw(st.integers(0, grid_size(p, k, n) - 1))
    X = grid_decode(p, k, n, idx)
    assert grid_encode(X) == idx
    assert GridPoint(X, n).index == idx


@st.composite
def grid_shapes(draw):
    """(p, k, n) with p in {3, 5, 7} and p^(kn) <= 3000."""
    p = draw(st.sampled_from([3, 5, 7]))
    m_max = int(math.log(3000) / math.log(p) + 1e-9)
    k = draw(st.integers(1, m_max))
    n = draw(st.integers(1, m_max // k))
    return p, k, n


@given(grid_shapes(), st.data())
@settings(max_examples=60, deadline=None)
def test_add_perm_gather_matches_roll_oracle(shape, data):
    p, k, n = shape
    m = k * n
    shift = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=m, max_size=m))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = rng.random(grid_size(p, k, n))
    expected = roll_translate(vals, p, m, [s % p for s in shift])
    assert np.array_equal(vals[add_perm(p, m, shift)], expected)
    f = GridFunction(p, k, n, vals, FLOAT)
    assert np.array_equal(translate(f, FpMatrix(k, n, shift, p)), expected)


@st.composite
def translate_cases(draw):
    """(p, m, shift digits): Z_N as p = N in 2..60 with m = 1, or F_p^m with
    p in {2, 3, 5, 7} and m in 0..4; the shift is 0, all p - 1, or random."""
    if draw(st.booleans()):
        p, m = draw(st.integers(2, 60)), 1
    else:
        p, m = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(0, 4))
    shift = draw(st.sampled_from([[0] * m, [p - 1] * m, None]))
    if shift is None:
        shift = draw(st.lists(st.integers(-2 * p, 2 * p), min_size=m, max_size=m))
    return p, m, shift


@given(translate_cases(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_translate_view_matches_roll_oracle(case, seed):
    # a slice of the periodic extension, and the gather forced by guard 0,
    # both equal np.roll; so do products with base
    p, m, shift = case
    rng = np.random.default_rng(seed)
    vals = rng.random(p**m)
    expected = roll_translate(vals, p, m, [s % p for s in shift])
    for guard in (DEFAULT_GUARD, 0):
        tr = Translates(vals, p, m, guard)
        got = tr.at(encode_index(p, shift))
        assert (tr.ext is None) == (guard == 0)
        assert got.shape == (p**m,) and np.array_equal(got, expected)
        assert np.array_equal(tr.base * got, vals * expected)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_row_table_matches_add_perm_oracle(data):
    # one translate (at) and every row of a block of shifts (rows) is v
    # gathered through add_perm, with the guard at the row table's size, at
    # the periodic extension's, and one below each: a slice of the extension,
    # a window of the table or the add_index gather. at alone never builds
    # the table, and the table replaces the extension. On F_p^m for p in
    # {3, 5, 7} and m in 0..4, and on Z_N, for every value dtype
    if data.draw(st.booleans()):
        p, m = data.draw(st.integers(2, 300)), 1
    else:
        p, m = data.draw(st.sampled_from([3, 5, 7])), data.draw(st.integers(0, 4))
    P, ext_size, table_size = p**m, (2 * p - 1) ** m, (2 * p - 1) * p ** (2 * m - 2) if m else 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dtype = data.draw(st.sampled_from([bool, np.int64, np.float64, np.complex128, object]))
    vals = rng.integers(-50, 50, P).astype(dtype)
    if dtype is object:
        vals = np.array([int(x) * 10**20 for x in vals], dtype=object)
    shifts = data.draw(st.lists(st.lists(st.integers(-2 * p, 2 * p), min_size=m, max_size=m), min_size=1, max_size=12))
    indices = encode_digits(np.array(shifts, dtype=np.int64).reshape(len(shifts), m), p)
    guard = data.draw(st.sampled_from((table_size, table_size - 1, ext_size, ext_size - 1)))
    tr = Translates(vals, p, m, guard)
    for s in indices:
        assert np.array_equal(tr.at(s), vals[add_perm(p, m, decode_index(p, m, int(s)))])
    assert tr.table is None and (tr.ext is not None) == (guard >= ext_size)
    rows = tr.rows(indices)
    assert (tr.table is None) == (guard < table_size)
    if tr.table is not None:
        assert tr.table.shape == (table_size,) and tr.table.dtype == vals.dtype and tr.ext is None
    assert rows.shape == (len(shifts), P) and rows.dtype == vals.dtype
    for s, row in zip(shifts, rows):
        assert np.array_equal(row, vals[add_perm(p, m, s)])
        assert np.array_equal(tr.at(encode_index(p, s)), row)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
def test_block_gather_matches_stacked_translates(p, m):
    # a block of shifts is one fancy index into the windows of the periodic
    # extension, equal to np.stack of at() over random, repeating, unordered
    # index blocks; with the guard one below the extension's (2p - 1)^m points
    # both take the add_index gather. No row table is built
    P, ext_size = p**m, (2 * p - 1) ** m
    rng = np.random.default_rng(100 * p + m)
    vals = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    for guard in (DEFAULT_GUARD, ext_size - 1):
        tr = Translates(vals, p, m, guard)
        for size in (1, 2, 17, 70):
            idx = rng.integers(0, P, size)
            block = tr.block(idx)
            assert block.shape == (size, P) and block.dtype == vals.dtype
            assert np.array_equal(block, np.stack([tr.at(h) for h in idx]))
        assert tr.table is None


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_packed_rows_unpack_to_add_perm_oracle(data):
    # every packed row of a block of shifts unpacks to the bool v gathered
    # through add_perm, with the guard at the row table's size (byte windows of
    # the bit-shifted copies) and one below (the gather, packed by pack_rows);
    # the gathered rows, like pack_rows(v), have zero bits past p^m. On Z_N
    # and on F_p^m for p in {3, 5, 7} and m in 0..4
    if data.draw(st.booleans()):
        p, m = data.draw(st.integers(2, 300)), 1
    else:
        p, m = data.draw(st.sampled_from([3, 5, 7])), data.draw(st.integers(0, 4))
    P, table_size = p**m, (2 * p - 1) * p ** (2 * m - 2) if m else 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = rng.random(P) < data.draw(st.sampled_from([0.1, 0.5, 0.9]))
    shifts = data.draw(st.lists(st.lists(st.integers(-2 * p, 2 * p), min_size=m, max_size=m), min_size=1, max_size=12))
    indices = encode_digits(np.array(shifts, dtype=np.int64).reshape(len(shifts), m), p)
    guard = data.draw(st.sampled_from((table_size, table_size - 1)))
    words = Translates(vals, p, m, guard).packed(indices)
    assert words.shape == (len(shifts), -(-P // 64)) and words.dtype == np.dtype("<u8")
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little").astype(bool)
    for s, row in zip(shifts, bits):
        assert np.array_equal(row[:P], vals[add_perm(p, m, s)])
    assert guard == table_size or not bits[:, P:].any()
    base = np.unpackbits(pack_rows(vals[None]).view(np.uint8), bitorder="little").astype(bool)
    assert np.array_equal(base[:P], vals) and not base[P:].any()


def _numpy_dft(values, m, inverse):
    """The transform as np.fft computes it: fftn or ifftn over the first m
    axes of the (3,)*m tensor whose axis j is digit j, batch axes riding along."""
    V = np.asarray(values, dtype=np.complex128)
    T = V.reshape((3,) * m + V.shape[1:], order="F")
    return (np.fft.ifftn if inverse else np.fft.fftn)(T, axes=tuple(range(m))).reshape(V.shape, order="F")


def _words(a):
    return np.ascontiguousarray(a).view(np.uint64)


@given(st.integers(0, 8), st.sampled_from([None, 1, 7, 67]), st.booleans(),
       st.sampled_from(["signed-zeros", "dyadic", "gaussian", "real"]), st.integers(0, 2**32 - 1))
@example(0, 67, False, "gaussian", 0)  # m = 0: no digit to transform
@example(5, 67, False, "gaussian", 1)  # a block of 67 shifts on F_3^5, as the recursive U^3 level forms it
@example(5, 67, False, "signed-zeros", 0)  # flips a zero if cb were t2 * (1j * tw)
@example(5, 67, True, "dyadic", 2)
@settings(max_examples=80, deadline=None)
def test_dft_at_p3_has_the_words_of_numpy_fftn(m, width, inverse, values, seed):
    # the radix-3 butterfly against np.fft.fftn / ifftn, every uint64 word,
    # on a 1-d array and on a (B, P) block passed transposed, as
    # _gowers_power_recursive passes it; signed zeros sit among the values,
    # because a complex multiply by a real twiddle could flip them
    rng = np.random.default_rng(seed)
    shape = (3**m,) if width is None else (width, 3**m)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 0.25, -0.75])
    if values == "signed-zeros":
        z = rng.choice(pool[:2], shape) + 0j
        z.imag = rng.choice(pool[:2], shape)
    elif values == "dyadic":
        z = rng.choice(pool, shape) + 0j
        z.imag = rng.choice(pool, shape)
    else:
        z = np.where(rng.random(shape) < 0.2, rng.choice(pool[:2], shape), rng.standard_normal(shape))
        if values == "gaussian":
            z = z + 1j * rng.standard_normal(shape)
    v = z if width is None else z.T
    got, want = dft(v, 3, m, inverse), _numpy_dft(v, m, inverse)
    assert got.shape == want.shape == v.shape
    assert np.array_equal(_words(got), _words(want))


def test_dft_at_p3_never_calls_numpy_fft(monkeypatch):
    # the butterfly is the whole p = 3 path: with np.fft's n-d transforms
    # made to raise, every size, layout and direction still transforms
    def refuse(*args, **kwargs):
        raise AssertionError("np.fft reached at p = 3")

    rng = np.random.default_rng(4)
    cases = [(m, inverse, rng.standard_normal((width, 3**m))) for m in range(6) for inverse in (False, True) for width in (1, 7)]
    want = [_numpy_dft(block.T, m, inverse) for m, inverse, block in cases]
    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    for (m, inverse, block), expected in zip(cases, want):
        assert np.array_equal(_words(dft(block.T, 3, m, inverse)), _words(expected))
        assert dft(block[0], 3, m, inverse).shape == (3**m,)
    with pytest.raises(AssertionError, match="np.fft reached"):
        dft(np.ones(5), 5, 1)


def test_rational_values_hold_python_ints():
    # a Fraction keeps an np.int64 numerator, and its arithmetic then wraps:
    # an exact popular search on a random 0/1 function on (F_3^4)^2 compared
    # its densities with a wrapped threshold and missed 4308 of 6560 hits
    f = GridFunction(3, 2, 4, (np.random.default_rng(5).random(3**8) < 0.3).astype(np.int64), RATIONAL)
    assert all(type(v.numerator) is int for v in f.values)
    floor = f.mean() ** 4 - Fraction(1, 20)
    assert floor < 0 and Fraction(1, 6561**4) >= floor


@given(grid_shapes(), st.data())
@settings(max_examples=60, deadline=None)
def test_add_index_matches_digit_sum(shape, data):
    p, k, n = shape
    m = k * n
    P = grid_size(p, k, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, P, size=(data.draw(st.integers(1, 9)), 1))
    b = rng.integers(0, P, size=data.draw(st.integers(1, 9)))
    digs = digit_table(p, m)
    assert np.array_equal(add_index(p, m, a, b), encode_digits(digs[a] + digs[b], p))


@pytest.mark.parametrize("p, m", [(3, 1), (5, 2), (3, 4), (7, 2)])
def test_add_table_is_read_only_int32_add_index(p, m):
    idx = np.arange(p**m)
    add = add_table(p, m)
    assert add.dtype == np.int32 and add.shape == (p**m, p**m) and not add.flags.writeable
    assert np.array_equal(add, add_index(p, m, idx[:, None], idx[None, :]))
    assert add_table(p, m) is add  # the last table built is kept
    with pytest.raises(ValueError):
        add[0, 0] = 1


def test_encoding_is_row_major_lsd_first():
    # digit (row i, col j) sits at position i*n + j, (0,0) least significant
    X = FpMatrix.from_rows([[1, 2], [3, 4]], 5)
    assert grid_encode(X) == 1 + 2 * 5 + 3 * 25 + 4 * 125


def test_gridfunction_guard():
    with pytest.raises(TooLarge):
        GridFunction.constant(5, 2, 7, 0.0, FLOAT)


def random_rational(p, k, n, seed):
    rng = np.random.default_rng(seed)
    vals = [Fraction(int(x), 7) for x in rng.integers(0, 8, grid_size(p, k, n))]
    return GridFunction(p, k, n, vals, RATIONAL)


def test_factor_eval_examples():
    p, n = 5, 3
    M = FpMatrix.identity(n, p)
    fac = QuadraticFactor(p, n, ((1, 2, 0),), (M,), ())
    zero = FpMatrix.zero(2, n, p)
    img0 = factor_eval(fac, zero)
    assert all(v == (0, 0) for v in img0.b1) and img0.b2[0] == FpMatrix.zero(2, 2, p)
    # k = 1: the quadratic image is the scalar form x^T M x
    x = FpMatrix.from_rows([[1, 2, 3]], p)
    img = factor_eval(fac, x)
    assert img.b2[0].to_lists() == [[(1 + 4 + 9) % 5]]
    # parity: quadratic part even, linear part odd
    imgneg = factor_eval(fac, x.neg())
    assert imgneg.b2 == img.b2
    assert imgneg.b1[0] == tuple((-v) % p for v in img.b1[0])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_factor_image_coords_follow_the_coordinate_order(k):
    # columns: the k entries of each X r_i, then each X M X^T and each
    # X N X^T at patterns.coord_index, one family entry after another
    p, n = 3, 2
    S1, S2 = FpMatrix.from_rows([[1, 2], [2, 0]], p), FpMatrix.identity(n, p)
    N = FpMatrix.from_rows([[0, 1], [2, 0]], p)
    fac = QuadraticFactor(p, n, ((1, 2),), (S1, S2), (N,))
    coords = factor_image_coords(fac, k)
    sym, skew = coord_index(k, "symmetric"), coord_index(k, "skew")
    assert coords.shape == (grid_size(p, k, n), k + 2 * len(sym) + len(skew))
    for index in range(0, grid_size(p, k, n), 7):
        img = factor_eval(fac, grid_decode(p, k, n, index))
        want = list(img.b1[0])
        want += [M[i, j] for M in img.b2 for i, j in sym] + [M[i, j] for M in img.b3 for i, j in skew]
        assert coords[index].tolist() == want


def test_grid_size_refuses_negative_exponents():
    assert grid_size(5, 0, 3) == grid_size(5, 2, 0) == 1
    for k, n in ((-1, 2), (1, -1)):
        with pytest.raises(ValueError, match=f"k = {k}, n = {n}"):
            grid_size(5, k, n)


def test_factor_symmetry_validation():
    p = 5
    with pytest.raises(NotSymmetric):
        QuadraticFactor(p, 2, (), (FpMatrix.from_rows([[0, 1], [0, 0]], p),), ())
    with pytest.raises(NotSymmetric):
        QuadraticFactor(p, 2, (), (), (FpMatrix.from_rows([[0, 1], [1, 0]], p),))


def test_factor_rank_examples():
    p = 5
    assert factor_rank(QuadraticFactor(p, 4, (), (FpMatrix.identity(4, p),), ())) == 4
    assert factor_rank(QuadraticFactor(p, 2, ((1, 0), (2, 0)), (), ())) == 0
    d1 = FpMatrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], p)
    d2 = FpMatrix.from_rows([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], p)
    assert factor_rank(QuadraticFactor(p, 4, (), (d1, d2), ())) == 1


@given(st.sampled_from([3, 5, 7]), st.integers(1, 4), st.integers(0, 2), st.integers(0, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_factor_rank_matches_combination_oracle(p, n, d2, d3, data):
    # low-rank parts and repeated parts make the minimum fall below n
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if p ** (d2 + d3) > 400:
        d3 = 0

    def part(sign):
        A = rng.integers(0, p, size=(n, n))
        A[:, : data.draw(st.integers(0, n))] = 0
        return FpMatrix.from_rows(((A + sign * A.T) % p).tolist(), p)

    b1 = tuple(tuple(int(v) for v in rng.integers(0, p, n)) for _ in range(data.draw(st.integers(0, 2))))
    fac = QuadraticFactor(p, n, b1, tuple(part(1) for _ in range(d2)), tuple(part(-1) for _ in range(d3)))
    assert factor_rank(fac) == factor_rank_by_combinations(fac)


def test_conditional_expectation_contracts():
    p, k, n = 3, 1, 3
    fac = QuadraticFactor(p, n, ((1, 0, 0),), (FpMatrix.identity(n, p),), ())
    f = random_rational(p, k, n, 0)
    g = conditional_expectation(f, fac)
    assert g.mean() == f.mean()
    # constant on atoms
    atom, _ = atom_images(fac, k)
    by = {}
    for a, v in zip(atom, g.values):
        by.setdefault(a, set()).add(v)
    assert all(len(s) == 1 for s in by.values())
    # exact Pythagoras
    diff = f.with_values([a - b for a, b in zip(f.values, g.values)])
    assert f.l2_norm_sq() == g.l2_norm_sq() + diff.l2_norm_sq()
    # idempotent
    g2 = conditional_expectation(g, fac)
    assert all(a == b for a, b in zip(g.values, g2.values))
    # trivial factor projects to the constant mean
    c = conditional_expectation(f, QuadraticFactor(p, n, (), (), ()))
    assert all(v == f.mean() for v in c.values)
    # already measurable functions are unchanged
    g3 = conditional_expectation(g, fac)
    assert all(a == b for a, b in zip(g.values, g3.values))


@given(st.sampled_from([(3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 2)]), st.integers(0, 2**32 - 1), st.sampled_from((1, 10**6)))
@settings(max_examples=20, deadline=None)
def test_integer_form_sums_equal_fraction_sums(shape, seed, num_bound):
    # mean, l2_norm_sq and conditional_expectation sum integers over one
    # common denominator; each must equal its Fraction sum exactly
    p, k, n = shape
    P = grid_size(p, k, n)
    rng = np.random.default_rng(seed)
    vals = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(-num_bound, num_bound + 1, P), rng.integers(1, 13, P))]
    f = GridFunction(p, k, n, vals, RATIONAL)
    a, L = f.integer_form()
    assert L == math.lcm(*(v.denominator for v in f.values))
    assert all(Fraction(x, L) == v for x, v in zip(a, f.values))
    assert f.mean() == sum(f.values, Fraction(0)) / P
    assert f.l2_norm_sq() == sum((v * v for v in f.values), Fraction(0)) / P
    fac = QuadraticFactor(p, n, ((1,) + (0,) * (n - 1),), (FpMatrix.identity(n, p),), ())
    atom, atoms = atom_images(fac, k)
    count = len(atoms)
    sums = [Fraction(0)] * count
    sizes = [0] * count
    for i, v in zip(atom, f.values):
        sums[i] += v
        sizes[i] += 1
    g = conditional_expectation(f, fac)
    assert all(type(v) is Fraction and v == sums[i] / sizes[i] for i, v in zip(atom, g.values))


def test_plgf_zero_denominator_is_corrupt(tmp_path):
    path = tmp_path / "zero.plgf"
    pairs = np.array([[1, 1], [1, 0], [2, 3]], dtype="<i8")
    path.write_bytes(b"PLGF" + struct.pack("<BIIIB", 1, 3, 1, 1, 0) + pairs.tobytes())
    with pytest.raises(CorruptLength, match="value 1 has denominator 0"):
        read_grid_function(path)


def test_plgf_huge_header_refused_fast(tmp_path):
    # an 18-byte header with k = n = 65536 used to hang computing p^(kn)
    path = tmp_path / "huge.plgf"
    path.write_bytes(b"PLGF" + struct.pack("<BIIIB", 1, 3, 65536, 65536, 0))
    # a child process first, so that a hang fails the test instead of stalling it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-m", "popdiff.cli", "fnio", "info", "--fn", str(path)],
                           env=env, capture_output=True, text=True, timeout=30)
    assert child.returncode == 1 and "TooLarge" in child.stderr
    t0 = time.perf_counter()
    with pytest.raises(TooLarge):
        read_grid_function(path)
    assert time.perf_counter() - t0 < 2.0
    path.write_bytes(b"PLGF" + struct.pack("<BIIIB", 1, 4, 1, 1, 1) + bytes(32))
    with pytest.raises(ValueError, match="odd prime"):
        read_grid_function(path)


def _read_typed(path):
    """read_grid_function, with its refusal checked to be typed and fast:
    the GridFunction, or None after a PopdiffError or a bad-modulus ValueError."""
    t0 = time.perf_counter()
    try:
        return read_grid_function(path)
    except PopdiffError:
        return None
    except ValueError as exc:
        assert type(exc) is ValueError and "modulus must be an odd prime" in str(exc)
        return None
    finally:
        assert time.perf_counter() - t0 < 1.0


U32 = st.integers(0, 2**32 - 1)


@given(
    st.one_of(st.just(b"PLGF"), st.binary(max_size=4)),
    st.one_of(st.just(1), st.integers(0, 255)),
    st.one_of(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 9, 999983, 10**6 + 3]), U32),
    st.one_of(st.integers(0, 3), U32),
    st.one_of(st.integers(0, 3), U32),
    st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 255)),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_plgf_fuzz_headers_load_or_raise_typed(tmp_path_factory, magic, version, p, k, n, kind, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-header.plgf"
    path.write_bytes(magic + struct.pack("<BIIIB", version, p, k, n, kind) + data.draw(st.binary(max_size=200)))
    f = _read_typed(path)
    if f is not None:
        assert (magic, version, f.p, f.k, f.n) == (b"PLGF", 1, p, k, n)


@given(st.sampled_from([(3, 0, 1), (3, 1, 1), (3, 1, 2), (5, 2, 1), (7, 1, 1)]), st.sampled_from([0, 1, 2]), st.data())
@settings(max_examples=100, deadline=None)
def test_plgf_fuzz_payloads_load_or_raise_typed(tmp_path_factory, shape, kind, data):
    # a well-formed header over a payload of random words, of the right length or not
    p, k, n = shape
    extra = data.draw(st.sampled_from([0, 0, 0, -1, 1]))
    words = {0: 2, 1: 1, 2: 2}[kind] * grid_size(p, k, n) + extra
    if kind == 0:  # int64 numerator/denominator pairs; small integers, so zero denominators show up
        payload = np.array(data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=words, max_size=words)), dtype="<i8").tobytes()
    else:
        payload = data.draw(st.binary(min_size=8 * words, max_size=8 * words))
    path = tmp_path_factory.getbasetemp() / "fuzz-payload.plgf"
    path.write_bytes(b"PLGF" + struct.pack("<BIIIB", 1, p, k, n, kind) + payload)
    f = _read_typed(path)
    if f is not None:
        assert extra == 0 and f.size == grid_size(p, k, n)


@given(st.sampled_from([(3, 0, 1), (3, 1, 2), (5, 1, 1), (7, 1, 1)]), st.sampled_from([RATIONAL, FLOAT, COMPLEX]), st.data())
@settings(max_examples=60, deadline=None)
def test_plgf_truncations_raise_typed(tmp_path_factory, shape, kind, data):
    p, k, n = shape
    P = grid_size(p, k, n)
    vals = data.draw(st.lists(st.fractions(-3, 3, max_denominator=9), min_size=P, max_size=P))
    f = GridFunction(p, k, n, vals if kind == RATIONAL else [float(v) for v in vals], kind)
    path = tmp_path_factory.getbasetemp() / "truncated.plgf"
    write_grid_function(f, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
    t0 = time.perf_counter()
    with pytest.raises(PopdiffError):
        read_grid_function(path)
    assert time.perf_counter() - t0 < 1.0


def test_refinement_energy_monotone():
    p, k, n = 3, 1, 3
    coarse = QuadraticFactor(p, n, ((1, 0, 0),), (), ())
    fine = QuadraticFactor(p, n, ((1, 0, 0), (0, 1, 0)), (FpMatrix.identity(n, p),), ())
    for seed in range(5):
        f = random_rational(p, k, n, seed)
        e_coarse = conditional_expectation(f, coarse).l2_norm_sq()
        e_fine = conditional_expectation(f, fine).l2_norm_sq()
        assert e_fine >= e_coarse


def test_linear_kernel_H():
    p, k, n = 5, 1, 2
    fac = QuadraticFactor(p, n, ((1, 0),), (), ())
    H = linear_kernel_H(fac, k)
    assert H["density"] == Fraction(1, 5)
    members = [i for i, v in enumerate(H["H"].values) if v == 1]
    assert members == [grid_encode(FpMatrix.from_rows([[0, t]], p)) for t in range(5)]
    assert H["H_perp"].dim == 1
    # trivial factor: everything
    H0 = linear_kernel_H(QuadraticFactor(p, n, (), (), ()), k)
    assert H0["density"] == 1


def test_h_coset_identity_exhaustive():
    # 1_H(D) equals the sum over cosets of 1_C(X+D) 1_C(X), for all X, D
    for p, n in [(3, 3), (5, 2)]:
        fac = QuadraticFactor(p, n, ((1,) + (0,) * (n - 1),), (), ())
        lab = h_coset_labels(fac, 1)
        ind = linear_kernel_H(fac, 1)["H"].values
        P = grid_size(p, 1, n)
        digs = digit_table(p, n)
        for d in range(P):
            perm = add_perm(p, n, digs[d])
            same = np.all(lab[perm] == lab, axis=1)
            assert all(bool(s) == (ind[d] == 1) for s in same)


def test_phase_function_examples():
    p, k, n = 3, 2, 2
    m = k * n
    # r = 0, M = 0: the constant 1
    g0 = phase_function([0] * m, FpMatrix.zero(m, m, p), p, k, n)
    assert np.allclose(g0.values, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        r = [int(x) for x in rng.integers(0, p, m)]
        raw = rng.integers(0, p, (m, m))
        M = FpMatrix.from_rows(((raw + raw.T) % p).tolist(), p)
        g = phase_function(r, M, p, k, n)
        assert abs(g.l2_norm_sq() - 1) < 1e-12
        # constant on the atoms of the block factor
        fac = block_factor_from_phase(r, M, k, n)
        atom, _ = atom_images(fac, k)
        by = {}
        for a, v in zip(atom, np.round(g.values, 9)):
            by.setdefault(a, set()).add(v)
        assert all(len(s) == 1 for s in by.values())
    with pytest.raises(NotSymmetric):
        phase_function([0] * m, FpMatrix.from_rows(np.triu(np.ones((m, m), dtype=int), 1).tolist(), p), p, k, n)


@pytest.mark.parametrize("r, M, error", [
    ([0] * 4, FpMatrix.identity(5, 3), DimensionMismatch),  # 5 x 5 M at kn = 4
    ([0] * 3, FpMatrix.identity(4, 3), DimensionMismatch),  # r of length 3
    # symmetric diagonal blocks, but M[0, 2] = 1 and M[2, 0] = 0
    ([0] * 4, FpMatrix.from_rows([[0, 0, 1, 0], [0] * 4, [0] * 4, [0] * 4], 3), NotSymmetric),
])
def test_block_factor_from_phase_refuses_what_phase_function_refuses(r, M, error):
    p, k, n = 3, 2, 2
    for build in (lambda: phase_function(r, M, p, k, n), lambda: block_factor_from_phase(r, M, k, n)):
        with pytest.raises(error):
            build()


def test_plgf_roundtrip_and_errors():
    p, k, n = 3, 1, 2
    fns = [
        random_rational(p, k, n, 1),
        GridFunction(p, k, n, np.linspace(0, 1, 9), FLOAT),
        GridFunction(p, k, n, np.exp(2j * np.pi * np.arange(9) / 9), COMPLEX),
    ]
    for f in fns:
        with tempfile.NamedTemporaryFile(suffix=".plgf", delete=False) as t:
            path = t.name
        try:
            write_grid_function(f, path)
            g = read_grid_function(path)
            assert g.kind == f.kind and (g.p, g.k, g.n) == (p, k, n)
            if f.kind == RATIONAL:
                assert all(a == b for a, b in zip(f.values, g.values))
            else:
                assert np.array_equal(f.values, g.values)
            # truncation
            blob = open(path, "rb").read()
            open(path, "wb").write(blob[:-3])
            with pytest.raises(CorruptLength):
                read_grid_function(path)
            # bad magic
            open(path, "wb").write(b"XXXX" + blob[4:])
            with pytest.raises(BadMagic):
                read_grid_function(path)
            # bad version
            open(path, "wb").write(blob[:4] + bytes([99]) + blob[5:])
            with pytest.raises(VersionMismatch):
                read_grid_function(path)
        finally:
            os.unlink(path)


def test_atom_sizes_near_uniform_prop42():
    # exhaustive factor-image histogram stays within the predicted band
    from popdiff.equidist import factor_image_distribution

    p, k, n = 3, 1, 4
    fac = QuadraticFactor(p, n, ((1, 0, 0, 0),), (FpMatrix.identity(n, p),), ())
    rep = factor_image_distribution(fac, k)
    assert rep.support_equal
    assert rep.max_multiplicative_deviation < 1.0
    # deviation shrinks when n grows
    fac5 = QuadraticFactor(p, 5, ((1, 0, 0, 0, 0),), (FpMatrix.identity(5, p),), ())
    rep5 = factor_image_distribution(fac5, k)
    assert rep5.max_multiplicative_deviation < rep.max_multiplicative_deviation


def test_factor_image_guard_states_estimate():
    from popdiff.equidist import factor_image_distribution

    p, k, n = 3, 1, 4
    fac = QuadraticFactor(p, n, ((1, 0, 0, 0),), (FpMatrix.identity(n, p),), ())
    with pytest.raises(TooLarge, match="= 81 exceeds guard 80"):
        factor_image_distribution(fac, k, guard=80)

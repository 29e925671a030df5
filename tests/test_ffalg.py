import json

import pytest
from hypothesis import example, given, settings, strategies as st

from popdiff.errors import Singular
from popdiff.ffalg import (
    FpMatrix,
    inverse_stack,
    is_invertible,
    is_odd_prime,
    mat_inverse,
    nullspace,
    rank_stack,
    row_space_rank,
    rref,
    validate_odd_prime,
)
from popdiff.patterns import SubspaceBasis

import numpy as np
from oracles import (
    add_by_loops,
    is_odd_prime_by_trial_division,
    mul_by_loops,
    neg_by_loops,
    nullspace_by_lists,
    rref_by_lists,
    scale_by_loops,
    sub_by_loops,
    transpose_by_loops,
)


def test_prime_validation():
    validate_odd_prime(5)
    for bad in (2, 4, 9, 1, -3):
        with pytest.raises(ValueError):
            validate_odd_prime(bad)


def test_is_odd_prime_matches_trial_division():
    assert all(is_odd_prime(n) == is_odd_prime_by_trial_division(n) for n in range(-10, 10**5))


def test_inverse_examples():
    rot = FpMatrix.from_rows([[0, 4], [1, 0]], 5)
    assert mat_inverse(rot).to_lists() == [[0, 1], [4, 0]]
    assert rot.mul(mat_inverse(rot)) == FpMatrix.identity(2, 5)
    eye = FpMatrix.identity(2, 5)
    assert mat_inverse(eye) == eye
    with pytest.raises(Singular):
        mat_inverse(FpMatrix.from_rows([[1, 1], [2, 2]], 5))


def test_rank_examples():
    assert row_space_rank(FpMatrix.zero(3, 3, 5).array, 5) == 0
    assert row_space_rank(FpMatrix.from_rows([[1, 1], [2, 2]], 5).array, 5) == 1
    assert row_space_rank(FpMatrix.identity(4, 3).array, 3) == 4


def test_rank_transpose_invariant():
    rng = np.random.default_rng(2024)
    for p in (3, 5, 7):
        for k in (1, 2, 3, 4):
            for _ in range(200):
                A = FpMatrix(k, k, [int(x) for x in rng.integers(0, p, k * k)], p)
                assert row_space_rank(A.array, p) == row_space_rank(A.transpose().array, p)


def test_inverse_roundtrip_random():
    rng = np.random.default_rng(11)
    done = 0
    while done < 60:
        p = int(rng.choice([3, 5, 7]))
        k = int(rng.integers(1, 5))
        A = FpMatrix(k, k, [int(x) for x in rng.integers(0, p, k * k)], p)
        if not is_invertible(A):
            continue
        B = mat_inverse(A)
        eye = FpMatrix.identity(k, p)
        assert A.mul(B) == eye and B.mul(A) == eye
        done += 1


def _lists(result):
    """rref's (rows, pivots) arrays as the list oracle's lists."""
    red, pivots = result
    return red.tolist(), pivots.tolist()


def _assert_inverses(A, ok, inv, p):
    """A A^-1 = A^-1 A = I mod p for each invertible member of a stack."""
    n = A.shape[-1]
    A, ok, inv = A.reshape(-1, n, n), ok.reshape(-1), inv.reshape(-1, n, n)
    assert inv.dtype == np.int64 and np.all((0 <= inv[ok]) & (inv[ok] < p))
    for a, b in ((A[ok], inv[ok]), (inv[ok], A[ok])):
        assert np.all(np.einsum("bij,bjk->bik", a, b) % p == np.eye(n, dtype=np.int64))


# the kernel's words are np.min_scalar_type(p^2): uint8 to p = 13, uint16 at
# 251, uint32 at 65521 and uint64 at 999983
WORD_PRIMES = [251, 65521, 999983]


@given(st.sampled_from([3, 5, 7] + WORD_PRIMES), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(251, 3, 1)
@example(65521, 4, 2)
@example(999983, 5, 3)
@settings(max_examples=40, deadline=None)
def test_inverse_stack_matches_is_invertible(p, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(-2 * p, 2 * p, size=(40, n, n))
    # forced singular members: a repeated row and a zero column
    if n > 1:
        i, j = rng.choice(n, size=2, replace=False)
        A[0, i] = A[0, j]
    A[1, :, int(rng.integers(n))] = 0
    # an invertible member whose first pivot sits below the diagonal
    A[2] = np.roll(np.eye(n, dtype=np.int64), 1, axis=0)
    got, inv = inverse_stack(A, p)
    want = [is_invertible(FpMatrix.from_rows(a.tolist(), p)) for a in A]
    assert got.dtype == bool and got.tolist() == want
    assert not got[1] and got[2] and (n == 1 or not got[0])
    _assert_inverses(A, got, inv, p)
    for a, ok, b in zip(A, got, inv):
        if ok:
            assert b.tolist() == mat_inverse(FpMatrix.from_rows(a.tolist(), p)).to_lists()
    got4, inv4 = inverse_stack(A.reshape(5, 8, n, n), p)
    assert got4.tolist() == np.reshape(want, (5, 8)).tolist() and inv4.shape == (5, 8, n, n)
    _assert_inverses(A, got4, inv4, p)


@given(st.sampled_from([3, 5, 7] + WORD_PRIMES), st.integers(1, 3), st.booleans(), st.integers(1, 20),
       st.integers(0, 2**32 - 1))
@example(251, 2, False, 9, 1)
@example(65521, 2, True, 5, 2)
@example(999983, 3, False, 12, 3)
@settings(max_examples=60, deadline=None)
def test_elimination_matches_list_oracle(p, batch, tall, c, seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1000, 1100)) if tall else int(rng.integers(1, 9))
    c = min(c, 6) if tall else c
    stack = []
    for _ in range(batch):
        # a random rank cap, so that rank deficiency shows up at large p too
        inner = int(rng.integers(0, min(r, c) + 1))
        A = rng.integers(0, p, (r, inner)) @ rng.integers(0, p, (inner, c)) % p
        A[rng.random(r) < 0.2] = 0
        A[:, rng.random(c) < 0.2] = 0
        A[rng.integers(r)] = A[rng.integers(r)]
        A += p * rng.integers(-2, 3, (r, c))  # negative entries, same residues
        stack.append(A)
    ranks = []
    for A in stack:
        want = rref_by_lists(A.tolist(), p)
        ranks.append(len(want[0]))
        assert _lists(rref(A, p)) == want and _lists(rref(A.tolist(), p)) == want
        assert row_space_rank(A, p) == ranks[-1]
        null = nullspace(A, p, ncols=c)
        assert len(null) == c - ranks[-1]
        if len(null):
            assert not np.any(A @ null.T % p)
            assert len(rref_by_lists(null, p)[0]) == len(null)
    assert rank_stack(np.stack(stack), p).tolist() == ranks
    n = min(r, c)
    square = np.stack([A[:n, :n] for A in stack])
    want = [len(rref_by_lists(S.tolist(), p)[0]) == n for S in square]
    ok, inv = inverse_stack(square, p)
    assert ok.tolist() == want
    _assert_inverses(square % p, ok, inv, p)


def test_elimination_edge_inputs():
    assert _lists(rref([], 5)) == ([], []) and _lists(rref(np.zeros((0, 3), dtype=np.int64), 5)) == ([], [])
    assert _lists(rref([[]], 5)) == ([], [])
    assert _lists(rref([[10**30 + 2, 1], [0, 0]], 5)) == rref_by_lists([[10**30 + 2, 1]], 5) == ([[1, 3]], [0])
    assert rank_stack(np.zeros((2, 3, 4, 5), dtype=np.int64), 7).shape == (2, 3)


_ENTRY = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))


@given(st.sampled_from([3, 5, 7, 999983]),
       st.integers(0, 6).flatmap(lambda c: st.tuples(st.just(c), st.lists(st.lists(_ENTRY, min_size=c, max_size=c), max_size=6))))
@example(3, (0, []))  # no rows and no columns
@example(5, (3, []))  # an empty system on F_5^3
@example(7, (0, [[], []]))  # an operator on zero generators
@example(999983, (3, [[2**64 + 1, -3, 10**30], [2 * (2**64 + 1), -6, 2 * 10**30]]))  # entries past int64
@example(3, (5, [[0, 0, 0, 0, 0], [0, 0, 0, 0, 2**63 + 1]]))  # an entry that numpy holds as uint64
@settings(max_examples=150, deadline=None)
def test_rref_and_nullspace_match_list_oracles(p, system):
    ncols, rows = system
    want = rref_by_lists(rows, p)
    for given_rows in (rows, np.array(rows, dtype=object).reshape(len(rows), ncols)):
        red, pivots = rref(given_rows, p)
        assert red.dtype == pivots.dtype == np.int64 and (red.tolist(), pivots.tolist()) == want
        assert red.shape == (len(want[0]), ncols) or (red.shape == (0, 0) and not rows)  # [] has no columns
        null = nullspace(given_rows, p, ncols=ncols)
        assert null.dtype == np.int64 and null.shape == (ncols - len(want[0]), ncols)
        assert null.tolist() == nullspace_by_lists(rows, p, ncols)
    # a basis given as tuples of Python ints and as the equal int64 array is one basis
    from_tuples = SubspaceBasis(p, ncols, tuple(map(tuple, nullspace_by_lists(rows, p, ncols))), "null")
    from_array = SubspaceBasis(p, ncols, null, "null")
    assert np.array_equal(from_tuples.array, from_array.array) and from_array.array.dtype == np.int64
    assert json.dumps(from_tuples.to_json_obj()) == json.dumps(from_array.to_json_obj())
    assert from_tuples.equals(from_array) and not from_array.array.flags.writeable


def test_nullspace_orthogonality():
    rows = [[1, 2, 3, 4], [0, 1, 0, 1]]
    for v in nullspace(rows, 5):
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) % 5 == 0


def test_json_matrix_negative_entries():
    A = FpMatrix.from_rows([[-1, 6], [2, -7]], 5)
    assert A.to_lists() == [[4, 1], [2, 3]]


def test_json_matrix_entries_past_int64():
    # JSON integers are unbounded; each entry is reduced as a Python int
    A = FpMatrix.from_rows([[10**30 + 1, -4], [2**64 + 1, 0]], 5)
    assert A == FpMatrix.from_rows([[1, 1], [2, 0]], 5)
    assert A.array.dtype == np.int64


def _as_tuple(M):
    return M.rows, M.cols, M.entries


@st.composite
def _matrix(draw, p, rows, cols):
    entry = st.one_of(st.integers(0, p - 1), st.integers(-(2**70), 2**70))
    return FpMatrix(rows, cols, draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)), p)


@given(st.sampled_from([3, 5, 7, 999983]), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_loop_oracle(p, r, c, s, data):
    A, B, C = data.draw(_matrix(p, r, c)), data.draw(_matrix(p, r, c)), data.draw(_matrix(p, c, s))
    scalar = data.draw(st.integers(-(2**70), 2**70))
    assert _as_tuple(A.add(B)) == add_by_loops(A, B)
    assert _as_tuple(A.sub(B)) == sub_by_loops(A, B)
    assert _as_tuple(A.neg()) == neg_by_loops(A)
    assert _as_tuple(A.scale_by(scalar)) == scale_by_loops(A, scalar)
    assert _as_tuple(A.mul(C)) == mul_by_loops(A, C)
    assert _as_tuple(A.transpose()) == transpose_by_loops(A)
    for M in (A, A.add(A.transpose()) if r == c else A, A.sub(A.transpose()) if r == c else A):
        assert M.is_symmetric() == (transpose_by_loops(M) == _as_tuple(M))
        assert M.is_skew() == (transpose_by_loops(M) == neg_by_loops(M))
    if is_invertible(A):
        assert A.mul(mat_inverse(A)) == FpMatrix.identity(r, p)
    # A.transpose()'s array is in Fortran order: a hash must not depend on memory layout
    for M, same in ((A, FpMatrix(r, c, A.entries, p)), (A, A.add(FpMatrix.zero(r, c, p))),
                    (A.transpose(), FpMatrix(c, r, transpose_by_loops(A)[2], p))):
        assert same == M and hash(same) == hash(M)
    for M in (A, A.mul(C), A.transpose()):
        with pytest.raises(ValueError):
            M.array[...] = 0

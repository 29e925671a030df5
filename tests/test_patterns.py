import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from popdiff.errors import NotContained, Singular
from popdiff.ffalg import FpMatrix, is_invertible, mat_inverse
from popdiff.patterns import (
    PatternSpec,
    SubspaceBasis,
    annihilator_bruteforce,
    check_admissible,
    check_spectral,
    constraint_spaces,
    coord_index,
    enumerate_admissible_spectral_J,
    in_algebra_of_square,
    lambda_perp,
    matrix_basis,
    matrix_tuple_ambient,
    orth_complement,
    reduce_to_identity_form,
    vector_tuple_ambient,
)

from oracles import constraint_spaces_by_generators, spectral_oracle

ROT = FpMatrix.from_rows([[0, -1], [1, 0]], 5)
I2 = FpMatrix.identity(2, 5)


def scalar_spec(p, m1, m2):
    return PatternSpec(p, 1, FpMatrix.from_rows([[m1]], p), FpMatrix.from_rows([[m2]], p))


def test_admissible_examples():
    assert check_admissible(PatternSpec(5, 2, I2, ROT))
    assert check_admissible(scalar_spec(5, 1, 2))
    assert not check_admissible(scalar_spec(5, 1, 1))


def test_spectral_examples():
    assert not check_spectral(PatternSpec(5, 2, I2, ROT))
    assert check_spectral(scalar_spec(5, 1, 2))


def test_spectral_swap_invariance():
    # the condition on M1 M2^{-1} is equivalent to the one on M2 M1^{-1}
    rng = np.random.default_rng(3)
    done = 0
    while done < 40:
        p = int(rng.choice([3, 5]))
        k = int(rng.integers(1, 4))
        M1 = FpMatrix(k, k, [int(x) for x in rng.integers(0, p, k * k)], p)
        M2 = FpMatrix(k, k, [int(x) for x in rng.integers(0, p, k * k)], p)
        if not (is_invertible(M1) and is_invertible(M2)):
            continue
        assert check_spectral(PatternSpec(p, k, M1, M2)) == check_spectral(PatternSpec(p, k, M2, M1))
        done += 1


def test_reduce_to_identity_form():
    s = scalar_spec(5, 2, 4)
    r = reduce_to_identity_form(s)
    assert r.M1 == FpMatrix.identity(1, 5) and r.M2 == FpMatrix.from_rows([[2]], 5)
    assert reduce_to_identity_form(scalar_spec(5, 1, 3)).M2.to_lists() == [[3]]
    with pytest.raises(Singular):
        reduce_to_identity_form(PatternSpec(5, 1, FpMatrix.zero(1, 1, 5), FpMatrix.from_rows([[1]], 5)))


def test_reduce_preserves_admissibility_and_spectral():
    rng = np.random.default_rng(5)
    done = 0
    while done < 100:
        p = int(rng.choice([3, 5, 7]))
        k = int(rng.integers(1, 3))
        M1 = FpMatrix(k, k, [int(x) for x in rng.integers(0, p, k * k)], p)
        M2 = FpMatrix(k, k, [int(x) for x in rng.integers(0, p, k * k)], p)
        spec = PatternSpec(p, k, M1, M2)
        if not (is_invertible(M1) and check_admissible(spec)):
            continue
        red = reduce_to_identity_form(spec)
        assert check_admissible(red)
        assert check_spectral(red) == check_spectral(spec)
        done += 1


def test_constraint_spaces_k1():
    cs = constraint_spaces(FpMatrix.from_rows([[2]], 5))
    assert cs["Lambda"].array.tolist() == [[4, 3, 2, 1]]  # (-1,-2,2,1)
    assert cs["LambdaPrime"].dim == 0
    assert cs["Psi"].dim == 2


def test_psi_equals_pattern_span():
    # Psi equals the exact span of (x, x+d, x+Jd, x+(I+J)d)
    for p, k, J_rows in [(5, 1, [[2]]), (3, 2, [[0, 1], [1, 1]]), (5, 2, [[2, 1], [0, 2]])]:
        J = FpMatrix.from_rows(J_rows, p)
        I = FpMatrix.identity(k, p)
        cs = constraint_spaces(J)
        vecs = []
        for xd in itertools.product(range(p), repeat=2 * k):
            x = FpMatrix(k, 1, list(xd[:k]), p)
            d = FpMatrix(k, 1, list(xd[k:]), p)
            pts = [x, x.add(d), x.add(J.mul(d)), x.add(I.add(J).mul(d))]
            vecs.append(tuple(v for pt in pts for v in pt.entries))
        span = SubspaceBasis(p, 4 * k, (), "vectors-of-F_p^k-tuples")
        # build span via rref of all vectors
        from popdiff.ffalg import rref

        red, _ = rref([list(v) for v in vecs], p)
        span = SubspaceBasis(p, 4 * k, tuple(tuple(r) for r in red), "vectors-of-F_p^k-tuples")
        assert span.equals(cs["Psi"])


def test_xi_literal_definition_exhaustive():
    # Xi for the rotation: solve vs exhaustive scan of all 5^4 matrices
    cs = constraint_spaces(ROT)
    xi = cs["Xi"]
    count = 0
    for entries in itertools.product(range(5), repeat=4):
        A = FpMatrix(2, 2, list(entries), 5)
        JA = ROT.mul(A)
        if JA == JA.transpose():
            count += 1
            assert xi.contains(A.entries)
    assert count == 5**xi.dim


def test_orth_complement_edges():
    amb = matrix_tuple_ambient(5, 1, 4, "symmetric")
    zero = SubspaceBasis(5, 4, (), amb.ambient_kind)
    assert orth_complement(zero, amb).equals(amb)
    assert orth_complement(amb, amb).dim == 0
    cs = constraint_spaces(FpMatrix.from_rows([[2]], 5))
    perp = orth_complement(cs["Lambda"], amb)
    assert perp.dim == 3
    with pytest.raises(NotContained):
        orth_complement(vector_tuple_ambient(5, 1, 4), matrix_tuple_ambient(5, 2, 1, "symmetric"))


@pytest.mark.parametrize("kind, sign", [("symmetric", 1), ("skew", -1)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_matrix_basis_follows_the_one_coordinate_order(k, kind, sign):
    # coordinate c is the upper-triangle entry (i, j), row by row (i <= j
    # symmetric, i < j skew), and basis matrix c is E_ij + sign E_ji
    p = 5
    want = [(i, j) for i in range(k) for j in range(k) if (i <= j if kind == "symmetric" else i < j)]
    assert coord_index(k, kind) == want
    basis = matrix_basis(k, p, kind)
    assert basis.dtype == np.int64 and basis.shape == (len(want), k, k)
    for B, (i, j) in zip(basis, want):
        E = np.zeros((k, k), dtype=np.int64)
        E[i, j] += 1
        E[j, i] += sign if i != j else 0
        assert B.tolist() == (E % p).tolist()
    # the ambient tuple space is spanned slot by slot by this basis
    amb = matrix_tuple_ambient(p, k, 2, kind)
    assert amb.ambient_kind == f"{kind}-matrix-2-tuples"
    assert tuple(map(tuple, amb.array[:len(basis)].tolist())) == tuple(tuple(B.flatten()) + (0,) * (k * k) for B in basis)


def test_unknown_matrix_kind_is_refused():
    J = FpMatrix.from_rows([[2]], 5)
    for call in (lambda: coord_index(2, "hermitian"), lambda: matrix_basis(2, 5, "hermitian"),
                 lambda: matrix_tuple_ambient(5, 2, 4, "hermitian"), lambda: annihilator_bruteforce(J, 1, "hermitian")):
        with pytest.raises(ValueError, match="unknown kind 'hermitian'"):
            call()


def test_dimension_sums():
    for p, k in [(3, 2), (5, 2)]:
        J = next(iter(enumerate_admissible_spectral_J(p, k)))
        cs = constraint_spaces(J)
        sk = k * (k + 1) // 2
        skp = k * (k - 1) // 2
        assert cs["Lambda"].dim + lambda_perp(J, "symmetric").dim == 4 * sk
        assert cs["LambdaPrime"].dim + lambda_perp(J, "skew").dim == 4 * skp


@st.composite
def reduced_J(draw):
    p = draw(st.sampled_from([3, 5, 7, 11]))
    k = draw(st.integers(1, 4))
    return FpMatrix(k, k, draw(st.lists(st.integers(0, p - 1), min_size=k * k, max_size=k * k)), p)


@given(reduced_J())
@example(FpMatrix.from_rows([[2]], 5))  # k = 1: the skew ambient is the zero space
@example(FpMatrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]], 5))
@example(FpMatrix.from_rows((2 * np.eye(4, dtype=np.int64)).tolist(), 7))  # every symmetric A generates Lambda
@settings(max_examples=60, deadline=None)
def test_constraint_spaces_match_generator_oracle(J):
    assume(is_invertible(FpMatrix.identity(J.rows, J.p).sub(J)))
    got = dict(constraint_spaces(J), LambdaPerp=lambda_perp(J, "symmetric"), LambdaPrimePerp=lambda_perp(J, "skew"))
    want = constraint_spaces_by_generators(J)
    assert {name: sp.to_json_obj() for name, sp in got.items()} == {name: sp.to_json_obj() for name, sp in want.items()}


def test_in_algebra_of_square_examples():
    assert not in_algebra_of_square(ROT)
    assert in_algebra_of_square(I2)


def test_in_algebra_of_square_spectral_random():
    rng = np.random.default_rng(17)
    done = 0
    while done < 60:
        p = int(rng.choice([3, 5, 7]))
        k = int(rng.integers(1, 5))
        A = FpMatrix(k, k, [int(x) for x in rng.integers(0, p, k * k)], p)
        if not is_invertible(A):
            continue
        if check_spectral(PatternSpec(p, k, A, FpMatrix.identity(k, p))):
            assert in_algebra_of_square(A)
            done += 1


def test_spectral_oracle_agreement_sample():
    rng = np.random.default_rng(23)
    done = 0
    while done < 60:
        p = int(rng.choice([3, 5, 7]))
        k = int(rng.integers(1, 5))
        M1 = FpMatrix(k, k, [int(x) for x in rng.integers(0, p, k * k)], p)
        M2 = FpMatrix(k, k, [int(x) for x in rng.integers(0, p, k * k)], p)
        if not (is_invertible(M1) and is_invertible(M2)):
            continue
        A = M1.mul(mat_inverse(M2))
        assert check_spectral(PatternSpec(p, k, M1, M2)) == spectral_oracle(A)
        done += 1


def test_spectral_matches_oracle_exhaustive_small():
    # every A with k <= 2 over F_3, F_5, F_7, singular ones included: an
    # eigenvalue 0 pairs with itself, so a singular M1 fails the gate
    count = 0
    for p in (3, 5, 7):
        for k in (1, 2):
            I = FpMatrix.identity(k, p)
            for entries in itertools.product(range(p), repeat=k * k):
                A = FpMatrix(k, k, list(entries), p)
                assert check_spectral(PatternSpec(p, k, A, I)) == spectral_oracle(A), A
                count += 1
    assert count == 3122


@given(st.sampled_from([3, 5, 7]), st.sampled_from([3, 4]), st.data())
@settings(max_examples=80, deadline=None)
def test_spectral_matches_oracle_random(p, k, data):
    def matrix():
        return FpMatrix(k, k, data.draw(st.lists(st.integers(0, p - 1), min_size=k * k, max_size=k * k)), p)

    M1, M2 = matrix(), matrix()
    assume(is_invertible(M2))
    assert check_spectral(PatternSpec(p, k, M1, M2)) == spectral_oracle(M1.mul(mat_inverse(M2)))


def test_annihilator_matches_constraint_spaces_sample():
    for p, k in [(3, 2), (5, 2)]:
        for J in itertools.islice(enumerate_admissible_spectral_J(p, k), 2):
            cs = constraint_spaces(J)
            assert annihilator_bruteforce(J, 1, "symmetric").equals(cs["Lambda"])
            assert annihilator_bruteforce(J, 2, "skew").equals(cs["LambdaPrime"])


def test_annihilator_k1_examples():
    J = FpMatrix.from_rows([[2]], 5)
    sym = annihilator_bruteforce(J, 1, "symmetric")
    assert sym.array.tolist() == [[4, 3, 2, 1]]
    skew = annihilator_bruteforce(J, 1, "skew")
    assert skew.dim == 0 and skew.ambient_dim == 4


def test_skew_annihilator_vacuous_at_n1():
    # skew 1x1 matrices are zero, so the n=1 constraint set is empty and the
    # full skew tuple ambient comes back
    J = FpMatrix.from_rows([[2, 1], [0, 2]], 5)
    full = annihilator_bruteforce(J, 1, "skew")
    assert full.equals(matrix_tuple_ambient(5, 2, 4, "skew"))
    assert not full.equals(constraint_spaces(J)["LambdaPrime"])


def test_coset_equality_claim():
    # (M1,M2,M3,M4) in Lambda-perp iff the pair (M1-M4, M2-M3) is orthogonal
    # to Omega, checked as exact subspace equality inside the tuple ambient
    from popdiff.ffalg import nullspace, rref

    for p, k in [(3, 1), (5, 1), (3, 2), (5, 2)]:
        J = next(iter(enumerate_admissible_spectral_J(p, k)), None)
        if J is None:
            continue
        cs = constraint_spaces(J)
        for kind, lam_name, om_name in (("symmetric", "Lambda", "Omega"), ("skew", "LambdaPrime", "OmegaPrime")):
            amb4 = matrix_tuple_ambient(p, k, 4, kind)
            lam_p = orth_complement(cs[lam_name], amb4)
            kk = k * k

            def pair_of(v):
                return [(v[i] - v[3 * kk + i]) % p for i in range(kk)] + [
                    (v[kk + i] - v[2 * kk + i]) % p for i in range(kk)
                ]

            basis4 = amb4.array.tolist()
            pairs = [pair_of(v) for v in basis4]
            rows = []
            for w in cs[om_name].array.tolist():
                rows.append([sum(a * b for a, b in zip(pr, w)) % p for pr in pairs])
            if rows:
                coeffs = nullspace(rows, p, ncols=len(basis4))
            else:
                coeffs = [[1 if i == j else 0 for j in range(len(basis4))] for i in range(len(basis4))]
            vecs = []
            for cvec in coeffs:
                v = [0] * amb4.ambient_dim
                for c, bv in zip(cvec, basis4):
                    if c:
                        for idx, val in enumerate(bv):
                            v[idx] = (v[idx] + c * val) % p
                vecs.append(v)
            red, _ = rref(vecs, p) if vecs else ([], [])
            got = SubspaceBasis(p, amb4.ambient_dim, tuple(tuple(r) for r in red), amb4.ambient_kind)
            assert got.equals(lam_p)


def test_coset_equality_exhaustive_k1():
    # literal exhaustive scan at k=1: 125 tuples of Lambda-perp
    p = 5
    J = FpMatrix.from_rows([[2]], p)
    cs = constraint_spaces(J)
    amb = matrix_tuple_ambient(p, 1, 4, "symmetric")
    lam_p = orth_complement(cs["Lambda"], amb)
    om = cs["Omega"]
    amb2 = matrix_tuple_ambient(p, 1, 2, "symmetric")
    om_p = orth_complement(om, amb2)
    for tup in itertools.product(range(p), repeat=4):
        in_lam_p = lam_p.contains(tup)
        pair = ((tup[0] - tup[3]) % p, (tup[1] - tup[2]) % p)
        assert in_lam_p == om_p.contains(pair)


def test_enumerate_admissible_spectral():
    assert list(enumerate_admissible_spectral_J(3, 1)) == []
    js = [J.to_lists() for J in enumerate_admissible_spectral_J(5, 1)]
    assert js == [[[2]], [[3]]]


def test_annihilator_guard():
    from popdiff.errors import TooLarge

    with pytest.raises(TooLarge):
        annihilator_bruteforce(FpMatrix.from_rows([[2]], 5), 8, "symmetric", guard=10**6)

"""Three-point patterns over finite abelian groups: Bohr sets, smoothed
counting, the regularity-decomposition contract, popular-difference search,
and lifting popular differences from Z/pZ back to integer boxes.

Groups are either cyclic Z_N or vector groups (F_p^n)^k; characters are
indexed by the same element space and all R/Z distances are exact rationals
(multiples of 1/N or 1/p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import DEFAULT_GUARD
from ._grid import Translates, add_index, add_perm as shift_perm, dft, digit_table, encode_digits, linear_perm, shift_blocks
from .analysis import FLOAT_SLACK, PatternCountReport, pattern_sums, popular_report
from .errors import DimensionMismatch, NonConvergent, NotAutomorphism, check_guard, ensure, finite, int_field
from .ffalg import FpMatrix, is_invertible, is_odd_prime
from .gridfn import grid_size


# ---------------------------------------------------------------------------
# Groups


class FiniteGroupSpec:
    """A finite abelian group with a pair of automorphisms.

    kind 'Z_N': elements and characters are Z/NZ, automorphisms are unit
    multipliers. kind 'vector': elements are (F_p^n)^k grid indices,
    automorphisms are k x k matrices over F_p. Both share one index
    arithmetic: Z_N is the radix-N, one-digit case (modulus N, k = n = 1).
    The gather tables of M1, M2, their transposes and -I are built once.
    """

    def __init__(self, kind: str, *, N: int | None = None, M1=None, M2=None,
                 p: int | None = None, k: int = 1, n: int = 1, guard: int = DEFAULT_GUARD):
        self.kind = kind
        if kind == "Z_N":
            self.N = self.modulus = int(N)
            if self.N < 2:
                raise ValueError(f"Z_N needs order N >= 2, got {self.N}")
            self.k = self.n = 1
        elif kind == "vector":
            self.p = self.modulus = int(p)
            self.k, self.n = int(k), int(n)
        else:
            raise ValueError(f"unknown group kind {kind!r}")
        self.m = self.k * self.n
        self.size = grid_size(self.modulus, self.k, self.n)
        self.guard = guard
        check_guard("group order", self.size, guard)
        if kind == "Z_N":
            self.M1 = int(M1) % self.N
            self.M2 = int(M2) % self.N
            for M in (self.M1, self.M2, (self.M1 - self.M2) % self.N):
                if math.gcd(M, self.N) != 1:
                    raise NotAutomorphism(f"{M} is not a unit mod {self.N}")
            rows1, rows2 = np.array([[self.M1]]), np.array([[self.M2]])
        else:
            self.M1 = M1 if isinstance(M1, FpMatrix) else FpMatrix.from_rows(M1, self.p)
            self.M2 = M2 if isinstance(M2, FpMatrix) else FpMatrix.from_rows(M2, self.p)
            for name, M in (("M1", self.M1), ("M2", self.M2)):
                if M.rows != self.k or M.cols != self.k:
                    raise DimensionMismatch(f"{name} must be k x k = {self.k} x {self.k}, got {M.rows} x {M.cols}")
            for name, M in (("M1", self.M1), ("M2", self.M2), ("M1-M2", self.M1.sub(self.M2))):
                if not is_invertible(M):
                    raise NotAutomorphism(f"{name} is singular mod {self.p}")
            rows1, rows2 = self.M1.array, self.M2.array
        self._digits = digit_table(self.modulus, self.m)
        self._perms = {}
        for key, rows in (("M1", rows1), ("M2", rows2), ("M1T", rows1.T), ("M2T", rows2.T),
                          ("neg", -np.eye(self.k, dtype=np.int64))):
            perm = linear_perm(self.modulus, self.k, self.n, rows)
            perm.setflags(write=False)
            self._perms[key] = perm

    # -- index arithmetic ------------------------------------------------

    def apply(self, which: int, idx: np.ndarray) -> np.ndarray:
        """Indices of M_which applied to the given elements."""
        return self._perms["M1" if which == 1 else "M2"][np.asarray(idx)]

    def add_perm(self, shift_idx: int) -> np.ndarray:
        """Permutation q with q[x] = x + shift."""
        return shift_perm(self.modulus, self.m, self._digits[shift_idx])

    def translates(self, values: np.ndarray) -> Translates:
        """values(x + s) for each element s, by index, read in blocks of shifts:
        translates(values).block(shifts); one shift is block([s])[0]."""
        return Translates(values, self.modulus, self.m, self.guard)

    def neg(self, idx: np.ndarray) -> np.ndarray:
        return self._perms["neg"][np.asarray(idx)]

    def char_numerators(self, xi_idx: int) -> np.ndarray:
        """Pairing numerators <xi, x> over all x; the character value is
        e(num / modulus). For Z_N any integer representative of xi works."""
        return (self._digits @ self._digits[xi_idx % self.size]) % self.modulus

    def char_compose_perm(self, which: int) -> np.ndarray:
        """Permutation c with c[xi] = index of the character x -> xi(M_which x)."""
        return self._perms["M1T" if which == 1 else "M2T"]

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Fourier coefficients f_hat(xi) = E_x f(x) e(-<xi, x>/modulus)."""
        return dft(values, self.modulus, self.m) / self.size

    def ifft(self, coeffs: np.ndarray) -> np.ndarray:
        return dft(coeffs, self.modulus, self.m, inverse=True) * self.size

    def char_sum_index(self, xi1: np.ndarray, xi2: np.ndarray) -> np.ndarray:
        return add_index(self.modulus, self.m, xi1, xi2)

    @classmethod
    def from_json_obj(cls, obj: dict, guard: int = DEFAULT_GUARD) -> "FiniteGroupSpec":
        if obj["kind"] == "Z_N":
            return cls("Z_N", N=int_field(obj, "N"), M1=int_field(obj, "M1"), M2=int_field(obj, "M2"), guard=guard)
        if obj["kind"] != "vector":
            raise ValueError(f"unknown group kind {obj['kind']!r}")
        obj = {"k": 1, "n": 1, **obj}
        return cls("vector", p=int_field(obj, "p"), k=int_field(obj, "k"), n=int_field(obj, "n"),
                   M1=int_field(obj, "M1", 2), M2=int_field(obj, "M2", 2), guard=guard)


# ---------------------------------------------------------------------------
# Bohr sets


@dataclass(frozen=True)
class BohrSet:
    """B(S, delta) = {x : max_{xi in S} ||<xi, x>/modulus||_{R/Z} < delta}."""

    group: FiniteGroupSpec
    S: tuple[int, ...]
    delta: Fraction
    members: tuple[int, ...]

    @property
    def measure(self) -> Fraction:
        return Fraction(len(self.members), self.group.size)


def bohr_set(group: FiniteGroupSpec, S, delta) -> BohrSet:
    delta = Fraction(delta).limit_denominator(10**12) if not isinstance(delta, Fraction) else delta
    if not (0 < delta <= Fraction(1, 2)):
        raise ValueError("delta must lie in (0, 1/2]")
    den = group.modulus
    member = np.ones(group.size, dtype=bool)
    S = tuple(sorted(set(int(x) for x in S)))
    if S and not (0 <= S[0] and S[-1] < group.size):
        raise DimensionMismatch(f"characters must lie in [0, {group.size}), got {list(S)}")
    # dist/den < delta, as an integer bound (delta may have a huge denominator)
    bound = (delta.numerator * den - 1) // delta.denominator
    for xi in S:
        num = group.char_numerators(xi)
        dist = np.minimum(num, den - num)
        member &= dist <= bound
    members = tuple(int(i) for i in np.nonzero(member)[0])
    B = BohrSet(group, S, delta, members)
    ensure(0 in B.members, "bohr_set: 0 is not a member")
    neg = set(int(x) for x in group.neg(np.array(members, dtype=np.int64)))
    ensure(neg == set(members), "bohr_set: the set is not symmetric")
    return B


def convolved_measure(B: BohrSet) -> np.ndarray:
    """nu = mu_B * mu_B as an exact-mass float array (mass 1/|B|^2 per pair)."""
    members = np.array(B.members, dtype=np.int64)
    g = B.group
    sums = add_index(g.modulus, g.m, members[:, None], members[None, :])
    counts = np.bincount(sums.reshape(-1), minlength=g.size)
    return counts / (len(members) ** 2)


def derived_bohr(B: BohrSet, group: FiniteGroupSpec | None = None) -> BohrSet:
    """B' = {r : M1 r and M2 r in B} realized as the Bohr set on the composed
    characters; the set equality with the direct definition is checked
    exhaustively."""
    g = group or B.group
    T_prime = {int(g.char_compose_perm(which)[xi]) for xi in B.S for which in (1, 2)}
    Bp = bohr_set(g, sorted(T_prime), B.delta)
    in_B = np.zeros(g.size, dtype=bool)
    in_B[list(B.members)] = True
    r = np.arange(g.size)
    direct = in_B[g.apply(1, r)] & in_B[g.apply(2, r)]
    ensure(set(np.nonzero(direct)[0].tolist()) == set(Bp.members), "derived_bohr: B' differs from its direct definition")
    ensure(len(Bp.S) <= 2 * len(B.S), "derived_bohr: more than 2|S| composed characters")
    return Bp


# ---------------------------------------------------------------------------
# Smoothed three-point counting


def smoothed_3pt_count(f: np.ndarray, group: FiniteGroupSpec, B: BohrSet, tol: float = FLOAT_SLACK) -> dict:
    """integral of f(x) f(x+M1 d) f(x+M2 d) against nu(d) = mu_B * mu_B,
    computed by direct convolution and by character sums; the two must agree
    to the stated tolerance."""
    f = np.asarray(f, dtype=np.float64)
    N = group.size
    nu = convolved_measure(B)
    support = np.nonzero(nu)[0]
    shifts = [group.apply(which, support) for which in (1, 2)]
    direct = 0.0
    for d, s in zip(support, pattern_sums(f, group.modulus, group.m, shifts, group.guard)):
        direct += float(nu[d]) * (s / N)
    F = group.fft(f)
    nu_t = group.fft(nu) * N  # sum_d nu(d) e(-<eta, d>); real for symmetric nu
    xi = np.arange(N)
    comp1 = group.char_compose_perm(1)
    comp2 = group.char_compose_perm(2)
    fourier = 0.0
    for xi2 in range(N):
        neg_idx = group.neg(group.char_sum_index(np.full(N, xi2), xi))
        eta = group.char_sum_index(np.full(N, comp1[xi2]), comp2[xi])
        fourier += float(np.real(np.sum(F[neg_idx] * F[xi2] * F[xi] * np.conj(nu_t[eta]))))
    agree = abs(direct - fourier) <= tol
    return {"value": direct, "direct": direct, "fourier": fourier, "agree": agree}


# ---------------------------------------------------------------------------
# Regularity decomposition (Bohr-smoothing construction; only the measured
# contracts are promised)


@dataclass
class RegularityDecomposition:
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    T: tuple[int, ...]
    gamma1: Fraction
    gamma2: float
    lipschitz_C: float
    stages: int
    contracts: dict = field(default_factory=dict)


def regularity_decompose(
    f: np.ndarray,
    group: FiniteGroupSpec,
    epsilon: float,
    S0=(),
    lipschitz_target: float = 2.0,
) -> RegularityDecomposition:
    """Split f = f1 + f2 + f3 with f1 = f * mu_B * mu_B for a Bohr set B on
    the large spectrum, f3 the small-coefficient Fourier tail, f2 the rest.

    Only the measured contracts are promised: mean(f1) = mean(f), all parts
    1-bounded, ||f2||_2 <= epsilon, ||f3^||_inf <= gamma2, and the Bohr
    Lipschitz bound |f1(x+r) - f1(x)| <= C epsilon on B(T, gamma1). The
    radius gamma1 starts at 1 / ceil(2 (|S0| + 2 + 1/epsilon)), gamma2 is
    gamma1^2, and gamma1 halves until they hold, at most 4 / epsilon^2 times;
    with these polynomial growth functions it terminates at desk scale.
    """
    if not epsilon > 0:  # NaN too
        raise ValueError(f"epsilon must be positive, got epsilon = {epsilon}")
    finite("epsilon", epsilon)
    try:
        cap = math.ceil(epsilon**-2 * 4.0)
    except OverflowError:  # 4 / epsilon^2 past the float range
        raise ValueError(f"epsilon = {epsilon} is too small: the stage cap 4 / epsilon^2 passes the float range") from None
    f = np.asarray(f, dtype=np.float64)
    if f.min() < 0 or f.max() > 1:
        raise ValueError("f must be [0,1]-valued")
    N = group.size
    S0 = tuple(sorted(set(int(x) for x in S0)))
    mean = float(f.mean())
    F = group.fft(f)
    gamma1 = Fraction(1, max(2, math.ceil(2.0 * (len(S0) + 2.0 + 1.0 / epsilon))))
    for stage in range(1, cap + 1):
        inv = float(1 / gamma1)
        gamma2 = 1.0 / (inv * inv)
        large = np.nonzero(np.abs(F) > gamma2)[0]
        T = tuple(sorted(set(S0) | set(int(x) for x in large)))
        B = bohr_set(group, T, gamma1)
        nu = convolved_measure(B)
        nu_hat = np.real(group.fft(nu)) * N
        F1 = F * nu_hat
        f1 = np.real(group.ifft(F1))
        rest = F - F1
        mask_large = np.zeros(N, dtype=bool)
        mask_large[list(T)] = True
        f2 = np.real(group.ifft(np.where(mask_large, rest, 0)))
        f3 = np.real(group.ifft(np.where(mask_large, 0, rest)))
        # measured contracts
        l2_f2 = math.sqrt(float(np.mean(f2**2)))
        fhat3_inf = float(np.max(np.abs(group.fft(f3)))) if N else 0.0
        sup_lip, tr = 0.0, group.translates(f1)
        nonzero = np.array(B.members[1:], dtype=np.int64)  # members ascend from 0
        for block in shift_blocks(len(nonzero), N):
            sup_lip = max(sup_lip, float(np.max(np.abs(tr.block(nonzero[block]) - tr.base))))
        bounds_ok = (
            f1.min() >= -1e-9
            and f1.max() <= 1 + 1e-9
            and np.max(np.abs(f2)) <= 1 + 1e-9
            and np.max(np.abs(f3)) <= 1 + 1e-9
        )
        contracts = {
            "mean_preserved": abs(float(f1.mean()) - mean) <= 1e-12,
            "one_bounded": bool(bounds_ok),
            "l2_f2": l2_f2,
            "l2_ok": l2_f2 <= epsilon,
            "fhat3_inf": fhat3_inf,
            "fourier_ok": fhat3_inf <= gamma2 + 1e-12,
            "lipschitz_sup": sup_lip,
            "lipschitz_ok": sup_lip <= lipschitz_target * epsilon,
        }
        if all(v for k, v in contracts.items() if k.endswith("ok") or k == "mean_preserved"):
            return RegularityDecomposition(
                f1=f1, f2=f2, f3=f3, T=T, gamma1=gamma1, gamma2=gamma2,
                lipschitz_C=sup_lip / epsilon, stages=stage,
                contracts=contracts,
            )
        gamma1 = gamma1 / 2
    raise NonConvergent(f"no compliant decomposition within {cap} stages")


# ---------------------------------------------------------------------------
# Popular three-point search


def popular_3pt_search(indicator: np.ndarray, group: FiniteGroupSpec, epsilon: float) -> PatternCountReport:
    """Exhaustive report of 3-point densities over every nonzero difference."""
    finite("epsilon", epsilon)
    f = np.asarray(indicator, dtype=np.float64)
    N = group.size
    alpha = float(f.mean())
    shifts = [group.apply(which, np.arange(N)) for which in (1, 2)]
    betas = [s / N for s in pattern_sums(f, group.modulus, group.m, shifts, group.guard)]
    return popular_report(betas, alpha, alpha**3 - epsilon, 3, epsilon, exact=False)


# ---------------------------------------------------------------------------
# Lifting to integer boxes


def _square_rows(M, k: int, name: str) -> list[list[int]]:
    """M as k x k integer rows; a scalar M is the 1 x 1 matrix [[M]]."""
    rows = M if isinstance(M, (list, tuple)) else [[M]]
    if len(rows) != k or any(not isinstance(r, (list, tuple)) or len(r) != k for r in rows):
        raise DimensionMismatch(f"{name} = {M} must be a {k} x {k} matrix for points with k = {k} coordinates")
    return [[int(x) for x in r] for r in rows]


def lift_to_interval(A, N: int, M1, M2, epsilon: float, guard: int = DEFAULT_GUARD) -> dict:
    """Popular-difference search for A inside the integer box [N]^k, via the
    embedding into (Z/pZ)^k for the least odd prime p in (N, (1 + eps/k) N],
    eps doubling while that window holds none and eps/k < 1.

    Differences are restricted to the Bohr set on the 2k coordinate
    functionals of M1, M2 with radius eps/(2k), and points too close to the
    box boundary are discarded. Each difference d is lifted to its
    least-magnitude integer digits, and every hit mod p is audited as the
    integer triple (x, x + M1 d, x + M2 d): all three points must lie in
    [1, N]^k and in A.
    """
    if not epsilon > 0:  # NaN too; the window search doubles epsilon until it holds an odd prime
        raise ValueError(f"epsilon must be positive, got epsilon = {epsilon}")
    eps_eff = finite("epsilon", float(epsilon))
    A = list(A)
    if not A:
        raise ValueError("A must be nonempty")
    if N < 1:  # (N, 2N + 1] holds an odd prime only from N = 1 on
        raise ValueError(f"N must be at least 1, got N = {N}")
    pts = [(a,) if isinstance(a, int) else tuple(a) for a in A]
    k = len(pts[0])
    for a, pt in zip(A, pts):
        if len(pt) != k:
            raise DimensionMismatch(f"point {a} does not have the k = {k} coordinates of the first point")
        if not all(1 <= v <= N for v in pt):
            raise ValueError(f"point {a} lies outside [1, N]^k for N = {N}, k = {k}")
    M1r, M2r = _square_rows(M1, k, "M1"), _square_rows(M2, k, "M2")

    # p is the least odd prime above N; eps doubles until the window
    # (N, (1 + eps/k) N] holds p or eps/k reaches 1. The comparisons are in
    # floats: an integer c is at most floor(y) exactly when c <= y.
    p = next(q for q in range(N + 1, 2 * N + 2) if is_odd_prime(q))
    while p > (1 + eps_eff / k) * N:
        eps_eff *= 2
        if eps_eff / k >= 1:
            break
    check_guard("p^k", p**k, guard)
    # FiniteGroupSpec rejects M1, M2 or M1 - M2 singular mod p (so also over Q)
    group = FiniteGroupSpec("vector", p=p, k=k, n=1, M1=M1r, M2=M2r, guard=guard)
    in_A = np.zeros(group.size, dtype=bool)
    in_A[encode_digits(np.array(pts, dtype=np.int64), p)] = True

    S0 = sorted(set(int(x) for x in encode_digits(np.concatenate([group.M1.array, group.M2.array]), p)))
    delta0 = Fraction(1, 1) * Fraction(eps_eff).limit_denominator(10**6) / (2 * k)
    delta0 = min(delta0, Fraction(1, 2))
    B = bohr_set(group, S0, delta0)

    digs = digit_table(p, k)
    band = np.all((digs >= eps_eff / k * p) & (digs <= (1 - eps_eff / k) * p), axis=1)
    lifts = np.where(digs > p // 2, digs - p, digs)  # the least-magnitude integer of each digit
    M_int = np.array([M1r, M2r], dtype=object)  # exact, whatever the size of the entries
    tr = group.translates(in_A)
    nonzero = np.array(B.members[1:], dtype=np.int64)  # members ascend from 0
    best_d, best_count, samples = None, -1, np.zeros((0, 3, k), dtype=np.int64)
    audit_total = audit_pass = 0
    for d, m1d, m2d in zip(lifts[nonzero].tolist(), group.apply(1, nonzero), group.apply(2, nonzero)):
        # a shift of N or more takes every point of the box out of it, so
        # clipping there keeps the triples in int64
        shifts = np.clip(M_int @ d, -N, N).astype(np.int64)
        at_m1d, at_m2d = tr.block([m1d, m2d])
        hits = np.nonzero(tr.base & at_m1d & at_m2d & band)[0]
        triples = digs[hits, None, :] + np.concatenate([np.zeros((1, k), dtype=np.int64), shifts])
        good = np.all((triples >= 1) & (triples <= N), axis=(1, 2)) & in_A[encode_digits(triples, p)].all(axis=1)
        count = int(good.sum())
        audit_total += len(hits)
        audit_pass += count
        if count > best_count:
            best_d, best_count, samples = d, count, triples[good][:10]
    return {
        "p": p,
        "k": k,
        "epsilon_effective": eps_eff,
        "widened": eps_eff != epsilon,
        "bohr_size": len(B.members),
        "best_d": best_d,
        "best_count": max(best_count, 0),
        "audit_total": audit_total,
        "audit_pass": audit_pass,
        "audit_ok": audit_total == audit_pass,
        "sample_triples": samples.tolist(),
    }

"""Seeded inputs, CLI call lists and independent output oracles.

Inputs follow the formats the README documents: pattern and group specs as
JSON, grid functions as PLGF bytes written here (magic ``PLGF``, version
byte, p/k/n as little-endian u32, kind byte, dense payload) rather than by
popdiff's own writer. The oracles recompute every checked field with numpy
and never import popdiff, so a bug shared by the program and its checker
cannot hide.

A group is described by its cyclic factor orders (its "radix"): F_p^m is
``(p,) * m`` with element index sum d_t p^t, digit 0 least significant, and
Z_N is ``(N,)``. The same index arithmetic serves every oracle.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

FLOAT_SLACK = 1e-9  # the slack popdiff documents for float comparisons
EPS = 0.05
ROTATED_M1 = [[1, 0], [0, 1]]
ROTATED_M2 = [[0, -1], [1, 0]]
THREEPT_DENSITY = 0.45
CEX_CONFIG = {"n": 4, "L": 7, "gamma": 1, "seeds": 5}
CEX_REFERENCE_SEEDS = 8  # cex CLI seeds with a report recorded at the seed commit
REFERENCE_FILE = Path(__file__).with_name("cex_reference.json")

# Sizes per workload; "smoke" is a tiny configuration for the benchmark's tests.
SIZES = {
    "full": {
        "popular_exact": (5, 2, 2),  # (p, k, n): P = 625
        "popular_float": (7, 2, 2),  # P = 2401
        "threept_vector": (3, 1, 7),  # P = 2187
        "threept_cyclic": 10007,
        "gowers": (3, 1, 5),  # P = 243
        "cex": CEX_CONFIG,
    },
    "smoke": {
        "popular_exact": (3, 2, 1),
        "popular_float": (3, 2, 1),
        "threept_vector": (3, 1, 3),
        "threept_cyclic": 101,
        "gowers": (3, 1, 2),
        "cex": {"n": 2, "L": 5, "gamma": 1, "seeds": 1},
    },
}

NAMES = ("popular-exact", "float-sweep", "gowers-u3", "cex-report")


@dataclass
class Call:
    """One CLI invocation: arguments after ``python -m popdiff.cli``, the exit
    code the oracle expects, and a check returning the problems it finds in
    the parsed report line (an empty list means the output is correct)."""

    label: str
    argv: list[str]
    expect_exit: int
    check: Callable[[dict], list[str]]


# -- index arithmetic on groups given by their radix ---------------------


def radix_digits(idx, radix) -> list[np.ndarray]:
    out = []
    for r in radix:
        out.append(idx % r)
        idx = idx // r
    return out


def radix_encode(digits, radix):
    total, weight = 0, 1
    for d, r in zip(digits, radix):
        total = total + (d % r) * weight
        weight *= r
    return total


def radix_add(a, b, radix):
    """Index of a + b (broadcasting)."""
    return radix_encode([x + y for x, y in zip(radix_digits(a, radix), radix_digits(b, radix))], radix)


def matrix_image(M, p: int, k: int, n: int) -> np.ndarray:
    """Index of M D for every k x n point D (digit i*n + j is entry (i, j))."""
    P = p ** (k * n)
    D = np.stack(radix_digits(np.arange(P), (p,) * (k * n)), axis=1).reshape(P, k, n)
    MD = np.einsum("ab,dbn->dan", np.asarray(M, dtype=np.int64), D).reshape(P, k * n)
    return radix_encode(list(MD.T), (p,) * (k * n))


def translates(v: np.ndarray, radix) -> Callable[[np.ndarray], np.ndarray]:
    """Map an index array s to the rows v(x + s_i), each over every x."""
    P = v.size
    if len(radix) == 1:
        window = np.lib.stride_tricks.sliding_window_view(np.concatenate([v, v]), P)
        return lambda s: window[s]
    x = np.arange(P, dtype=np.int32)
    table = radix_add(x[:, None], x[None, :], radix)  # table[s, x] = index of x + s
    return lambda s: v[table[s]]


def pattern_counts(v: np.ndarray, radix, shifts, chunk: int = 256) -> np.ndarray:
    """counts[d] = #{x : v(x) = 1 and v(x + s[d]) = 1 for every s in shifts},
    for a 0/1 array v on the group; each shift is an index array over d."""
    v = np.asarray(v).astype(bool)
    P = v.size
    rows = translates(v, radix)
    counts = np.empty(P, dtype=np.int64)
    for lo in range(0, P, chunk):
        prod = np.broadcast_to(v, (min(chunk, P - lo), P)).copy()
        for s in shifts:
            prod &= rows(s[lo:lo + chunk])
        counts[lo:lo + chunk] = prod.sum(axis=1)
    return counts


def gowers_u3(v: np.ndarray, p: int, m: int) -> float:
    """||f||_{U^3} from ||f||_{U^3}^8 = E_h sum_xi |E_x f(x) f(x+h) e_p(-xi.x)|^4."""
    P = p**m
    deriv = v[None, :] * translates(v, (p,) * m)(np.arange(P))
    hat = np.fft.fftn(deriv.reshape((P,) + (p,) * m), axes=tuple(range(1, m + 1))) / P
    power = float(np.mean(np.sum(np.abs(hat.reshape(P, -1)) ** 4, axis=1)))
    return max(power, 0.0) ** (1 / 8)


# -- comparisons ---------------------------------------------------------


def _frac(text) -> Fraction | None:
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and not isinstance(got, bool) and abs(got - want) <= FLOAT_SLACK


def match(got, want, path: str = "report") -> list[str]:
    """Problems where got differs from want: floats within FLOAT_SLACK,
    everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [p for k in want for p in match(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in match(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(want, bool):
        return [] if _close(got, want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def _summary(counts: np.ndarray, P: int, threshold, exact: bool):
    """(hits, argmax, beta_max) over nonzero differences, ties to the smallest index."""
    betas = [Fraction(int(c), P) for c in counts] if exact else counts / P
    nonzero = betas[1:]
    hits = sum(1 for b in nonzero if (b >= threshold if exact else b >= threshold - FLOAT_SLACK))
    argmax = 1 + int(np.argmax(counts[1:]))
    return hits, argmax, betas[argmax]


# -- oracles ---------------------------------------------------------------


def popular_oracle(v: np.ndarray, p: int, k: int, n: int, exact: bool, eps: float = EPS):
    """Expected exit code and check for ``popular --full`` on the 0/1 function v."""
    P = p ** (k * n)
    M3 = np.add(ROTATED_M1, ROTATED_M2)
    shifts = [matrix_image(M, p, k, n) for M in (ROTATED_M1, ROTATED_M2, M3)]
    counts = pattern_counts(v, (p,) * (k * n), shifts)
    if exact:
        alpha = Fraction(int(v.sum()), P)
        threshold = alpha**4 - Fraction(eps).limit_denominator(10**9)
    else:
        alpha = int(v.sum()) / P
        threshold = alpha**4 - eps
    hits, argmax, beta_max = _summary(counts, P, threshold, exact)

    def check(line: dict) -> list[str]:
        rep = line.get("report", {})
        got = rep.get("counts", {})
        if set(got) != {str(d) for d in range(P)}:
            return ["popular: counts do not cover every difference"]
        problems = []
        if exact:
            wrong = [d for d in range(P) if _frac(got[str(d)]) != Fraction(int(counts[d]), P)]
            for key, want in (("alpha", alpha), ("beta_max", beta_max), ("threshold", threshold)):
                if _frac(rep.get(key)) != want:
                    problems.append(f"popular: {key} {rep.get(key)!r} != {want}")
        else:
            wrong = [d for d in range(P) if not _close(got[str(d)], counts[d] / P)]
            for key, want in (("alpha", alpha), ("beta_max", beta_max), ("threshold", threshold)):
                if not _close(rep.get(key), float(want)):
                    problems.append(f"popular: {key} {rep.get(key)!r} != {want}")
        if wrong:
            problems.append(f"popular: {len(wrong)} counts wrong, first at d={wrong[0]}")
        if rep.get("argmax") != argmax or rep.get("hits") != hits:
            problems.append(f"popular: argmax/hits {rep.get('argmax')}/{rep.get('hits')} != {argmax}/{hits}")
        return problems

    return (0 if hits else 2), check


def threept_oracle(group: dict, seed: int, density: float = THREEPT_DENSITY, eps: float = EPS):
    """Expected exit code and check for ``threept search``: the indicator is
    rebuilt with the CLI's documented rule, default_rng(seed).random(size) < density."""
    if group["kind"] == "Z_N":
        N = group["N"]
        radix = (N,)
        d = np.arange(N)
        shifts = [(group["M1"] * d) % N, (group["M2"] * d) % N]
    else:
        p, k, n = group["p"], group["k"], group["n"]
        radix = (p,) * (k * n)
        shifts = [matrix_image(group["M1"], p, k, n), matrix_image(group["M2"], p, k, n)]
    P = int(np.prod(radix))
    f = np.random.default_rng(seed).random(P) < density
    counts = pattern_counts(f, radix, shifts)
    alpha = int(f.sum()) / P
    hits, argmax, beta_max = _summary(counts, P, alpha**3 - eps, exact=False)

    def check(line: dict) -> list[str]:
        rep = line.get("report", {})
        problems = []
        if not _close(rep.get("beta_max"), float(beta_max)):
            problems.append(f"threept: beta_max {rep.get('beta_max')!r} != {beta_max}")
        if rep.get("argmax") != argmax or rep.get("hits") != hits:
            problems.append(f"threept: argmax/hits {rep.get('argmax')}/{rep.get('hits')} != {argmax}/{hits}")
        return problems

    return (0 if hits else 2), check


def gowers_oracle(v: np.ndarray, p: int, m: int):
    want = gowers_u3(v.astype(np.float64), p, m)

    def check(line: dict) -> list[str]:
        got = line.get("report", {}).get("norm")
        return [] if _close(got, want) else [f"gowers: norm {got!r} != {want!r}"]

    return 0, check


CERTIFIED = {
    "core_sup": "73/3125",
    "core_mean": "2/5",
    "core_strict": True,
    "hypergraph_patternA_matches": True,
    "hypergraph_patternB_bound": True,
    "unique_triangles": True,
    "digit_set_4ap_free": True,
    "exponent_ok": True,
}


def cex_oracle(reference: dict | None):
    """The certified block must hold; when a report for this configuration
    and seed was recorded at the seed commit, the whole report must match it."""

    def check(line: dict) -> list[str]:
        rep = line.get("report", {})
        cert = rep.get("certified", {})
        problems = [f"cex: certified {k} = {cert.get(k)!r}" for k, want in CERTIFIED.items() if cert.get(k) != want]
        if reference is not None:
            problems += match(rep, reference)
        return problems

    return 0, check


# -- inputs --------------------------------------------------------------


def write_plgf(path: Path, p: int, k: int, n: int, values: np.ndarray, exact: bool) -> None:
    """PLGF version 1: rationals as int64 numerator/denominator pairs, floats as float64."""
    if exact:
        payload = np.stack([values, np.ones_like(values)], axis=1).astype("<i8")
    else:
        payload = values.astype("<f8")
    path.write_bytes(b"PLGF" + struct.pack("<BIIIB", 1, p, k, n, 0 if exact else 1) + payload.tobytes())


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def load_cex_reference() -> dict:
    """Reports recorded at the seed commit, keyed by CLI seed."""
    return json.loads(REFERENCE_FILE.read_text())["reports"]


def cex_argv(seed: int, cfg: dict = CEX_CONFIG) -> list[str]:
    return ["cex", "report", "--n", str(cfg["n"]), "--L", str(cfg["L"]), "--gamma", str(cfg["gamma"]),
            "--seeds", str(cfg["seeds"]), "--seed", str(seed)]


def build(name: str, seed: int, workdir: Path, size: str = "full") -> list[Call]:
    """Write the inputs of one workload under workdir and return its calls.

    Every input is a function of (name, seed) alone; the oracles' expected
    values are computed here, before any timing starts."""
    sizes = SIZES[size]
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed % 2**32, NAMES.index(name)])

    def half_density(p, k, n):
        return (rng.random(p ** (k * n)) < 0.5).astype(np.int64)

    def popular_call(label, p, k, n, exact):
        v = half_density(p, k, n)
        fn = workdir / f"{label}.plgf"
        write_plgf(fn, p, k, n, v, exact)
        spec = _write_json(workdir / f"{label}-spec.json", {"p": p, "k": k, "M1": ROTATED_M1, "M2": ROTATED_M2})
        argv = ["popular", "--spec", spec, "--fn", str(fn), "--full", "--eps", str(EPS)]
        if not exact:
            argv += ["--backend", "float"]
        return Call(label, argv, *popular_oracle(v, p, k, n, exact))

    def threept_call(label, group):
        cli_seed = int(rng.integers(2**31))
        path = _write_json(workdir / f"{label}-group.json", group)
        argv = ["threept", "search", "--group", path, "--eps", str(EPS),
                "--density", str(THREEPT_DENSITY), "--seed", str(cli_seed)]
        return Call(label, argv, *threept_oracle(group, cli_seed))

    if name == "popular-exact":
        return [popular_call("popular-exact", *sizes["popular_exact"], exact=True)]
    if name == "float-sweep":
        p, k, n = sizes["threept_vector"]
        return [
            popular_call("popular-float", *sizes["popular_float"], exact=False),
            threept_call("threept-vector", {"kind": "vector", "p": p, "k": k, "n": n, "M1": [[1]], "M2": [[2]]}),
            threept_call("threept-cyclic", {"kind": "Z_N", "N": sizes["threept_cyclic"], "M1": 1, "M2": 2}),
        ]
    if name == "gowers-u3":
        p, k, n = sizes["gowers"]
        v = half_density(p, k, n)
        fn = workdir / "gowers.plgf"
        write_plgf(fn, p, k, n, v, exact=False)
        return [Call("gowers-u3", ["gowers", "--fn", str(fn), "--s", "3"], *gowers_oracle(v, p, k * n))]
    if name == "cex-report":
        cfg = sizes["cex"]
        cli_seed = seed % CEX_REFERENCE_SEEDS
        reference = load_cex_reference().get(str(cli_seed)) if cfg == CEX_CONFIG else None
        return [Call("cex-report", cex_argv(cli_seed, cfg), *cex_oracle(reference))]
    raise ValueError(f"unknown workload {name!r}")

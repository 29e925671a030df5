#!/usr/bin/env python3
"""Run a fixed list of popdiff CLI invocations on two source trees and print
every difference.

    python3 scripts/compare_reports.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts. Each
invocation runs as a child process (`python3 -m popdiff.cli ...`) with that
tree's `src` on PYTHONPATH, from one shared scratch directory that holds the
input files. Stdout (with `wall_time_s` removed from every report line),
stderr and the exit code must agree. Each difference is printed; the script
exits 1 if there is any and 0 otherwise.

The children run without OPENBLAS_NUM_THREADS, whatever this process holds,
so each tree starts numpy with the thread count it chooses itself: a tree
whose CLI sets the variable runs OpenBLAS on one thread, an older tree on its
default pool, and an identical report shows that the pool size moves no bit.

The list: `check`/`subspaces` on five specs; `check` on the spectral gate's
edge cases (the rotation over F_3, whose eigenvalues +-i lie in F_9; a
singular M1, which fails through the eigenvalue 0; a singular M2, which must
end in one JSON error line; a 4 x 4 spec; and a k = 2 spec with 1 x 1
matrices, a deliberate output change against trees whose typed builder
errors name neither the flag nor the file); JSON entries past int64
(10^30 + 1, -4 and 2^64 + 1), in `check` and `popular --p 5 --k 2 --n 1` on
one spec, in `threept search` on a vector group over F_3 at k = n = 2, and in
the --J of an `equidist --mode tuple --k 2`; `subspaces` at k >= 3, on
that 4 x 4 spec and on a non-symmetric 3 x 3 J over F_7 whose LambdaPrime
is nonzero; `equidist` on three factors (abstract at k = 1, 2, linquad, and
tuple with and without --restrict-h at k = 1, 2, with --k 2 for the 2 x 2
--J), `equidist --mode tuple --k 3` on a factor over F_3^2 with one
entry of each kind, and `equidist --mode tuple` with and without
--restrict-h on a factor over F_3^5, whose 243 and 81 differences run in
several blocks of translates; the counterexample stages (core, dress at n = 1-5, eight-tuple,
hypergraph at L = 5, 7, 11, 13, 17, 25, report at n = 1-5, and at L = 17 and
with --method greedy, `cex report --n 4 --L 17 --seeds 2` with and without
--method greedy, `cex report --n 3 --L 7 --seeds 12 --seed 4294967299` (a
master seed of two 32-bit words), `cex report --n 4 --L 7 --gamma 3 --seeds
6`, `cex report --n 4 --L 7 --seeds 14` (13 seeds fit in one affine-map
batch at n = 4, so 14 take two), assemble at n = 1, 3, 4, `cex assemble --n 3 --L 7 --seed-index
4294967296`, the negative keys `cex report --n 2 --L 5 --seeds 2 --seed -1`,
`cex assemble --n 2 --L 5 --seed-index -1` and `cex dress --n 2 --L 5
--seeds 3 --seed -2`, each of which ends in numpy's error line, and `cex
report --n 3 --L 7 --seeds 2 --seed 18446744073709551617` (a master seed of
three 32-bit words)); exact and float
`popular`; `popular` (4 and 3 points) and `count --d` on PLGF files this
script writes, one per branch
of the pattern-sum kernel (0/1 floats, small signed integers, rationals with
denominators, rationals past the int64 sums, non-integer floats); `popular
--full` on (F_7^2)^2 and (F_3^4)^2 in both backends, and on small integers
over (F_3^4)^2; 0/1 `count`s on F_3^11, past 2^16 points; every argv
of tests/equidist_reference.json and tests/subspaces_reference.json; the
recorded `cex report` seeds of perfbench/cex_reference.json; recursive
`gowers` at s = 3, 4, 5 (F_3^5, F_7^2, F_5^4, F_3^7, F_3^1, (F_3^2)^2;
F_3^3, F_3^5, F_5^2, F_7^2, F_3^1 and the one-point grid --n 0; F_3^2,
F_3^3), whose every level reads its shifts in blocks, each block one window
gather of the periodic extension,
at s = 2 on F_3^4 (one 1-d transform), and `--mode direct` at s = 3 (F_3^2,
F_5^2), which reads row blocks; `threept search` on Z_61, Z_63 and Z_65 (0/1 rows
that end 1 short of and 1 past a 64-bit word), Z_1009 (also at --guard 1500,
where the group fits the guard but its 2N-entry table does not, so the
translates are gathered and packed), Z_10007, F_3^6 and F_3^7, `threept lift` at N = 30 and 60, and at N = 1 (on the
one-point set [1]) and N = 2, whose windows hold no odd prime until they
widen, and at N = 40 on A = [61, 21, 22], whose point 61 lies outside
[1, 40] (a deliberate output change: older trees report audit_ok false and
exit 2, newer ones end in one JSON error line), `threept lift --N 40 --eps
0.2 --M1 1 --M2 21 --density 0.55 --seed 1` (a deliberate output change:
21 d wraps mod 41, so trees that audit the integer triples x + M_i d report
audit_ok false and exit 2 where older ones exit 0) and `threept lift --N 2000
--eps 0.2 --density 0.55`, `threept decompose` on Z_61
and F_3^6 (the inverse transform), and `threept count` on F_3^6; input errors
that must end in one JSON error line, PLGF files holding inf or nan, two
groups of unknown kind, one with no other field, and an `equidist --mode
tuple` whose default --k 1 differs from the size of its 2 x 2 --J among them;
two malformed vector groups in `threept bohr`/`search` (n = -2) and
`count`/`decompose` (k = 2 with 1 x 1 matrices), a deliberate output change
against trees that predate their typed errors: the first ended in a raw
TypeError traceback, the second in numpy's reshape error; the second's
message also changes against trees whose typed builder errors do not name
the flag and the file; non-finite flags, each a deliberate output change
from a raw OverflowError traceback to one JSON error line naming the
parameter (`popular --eps inf` and `--eps 1e400` in the exact backend,
`threept bohr`/`count --delta inf`, `threept lift --eps inf`), and `threept
lift --eps 1e308 --N 10`, whose traceback became a report; a `threept lift
--A` document [1, 2.5], a deliberate output change from a raw TypeError
traceback to one JSON error line naming --A; the refusals of a non-finite
--eps or --density before any work, each a deliberate output change to one
JSON error line naming the flag (`threept decompose --eps inf`, once a
NonConvergent after 0 stages; `threept search --eps inf`, `--eps nan` and
`--density nan`, `threept count --density inf`, `threept lift --density inf`,
float-backend `popular --eps inf` and `popular --density nan`, each once
refused only when its report was written, and `fnio random --density inf`,
which also wrote its --out file first), and `threept decompose --eps 1e-300`,
whose stage cap 4 / eps^2 overflows, a deliberate output change from a raw
OverflowError traceback to one JSON error line naming epsilon; a non-finite
float flag that the run does not read (`gowers --s 2 --fn F --density inf`,
`threept lift --N 10 --A A --density nan`, `threept search --delta inf`,
`threept bohr --eps inf`), each a deliberate output change from a late
emission error to one JSON error line naming the parameter; seeded draws
across the PCG64 reader's block edge (`fnio random --p 3 --n 9` in both
backends, `gowers --p 3 --n 9 --s 2` in both backends), on seeds 0, 2^32 and
2^64 + 5 (`threept search` on F_3^7, `threept decompose` on F_3^7 and Z_61,
`threept lift`, `popular`), and `--seed -1` (`fnio random`, `threept
decompose` and `search`), which ends in numpy's error line;
one guard refusal per check the CLI reaches, at a `--guard` one below
its estimate: `popular`, recursive and direct `gowers`, `equidist` linquad,
tuple and abstract, `cex eight-tuple`, `dress`, `assemble` and `report`, and
`threept lift`; and the parser's own output, which the CLI builds with only
the subparser argv[0] names: `-h`, no argument and the unknown subcommand
`bogus` (the full build), `<sub> -h` for each of the nine subcommands, and
for each subcommand one argv that parses but for a trailing unknown argument
(`popular --spec S extra`, `cex report --bogus 1`, ...), whose error prints
the top-level usage naming every subcommand.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import subprocess
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]

SPECS = {
    "scalar-p5": {"p": 5, "k": 1, "M1": [[1]], "M2": [[2]]},
    "rotated-squares-p5": {"p": 5, "k": 2, "M1": [[1, 0], [0, 1]], "M2": [[0, -1], [1, 0]]},
    "spectral-2x2-p3": {"p": 3, "k": 2, "M1": [[1, 0], [0, 1]], "M2": [[0, 1], [1, 2]]},
    "rotated-squares-p7": {"p": 7, "k": 2, "M1": [[1, 0], [0, 1]], "M2": [[0, -1], [1, 0]]},
    "scalar-p3": {"p": 3, "k": 1, "M1": [[1]], "M2": [[2]]},
}

# JSON integers past int64, each reduced as a Python int: M1 = [[1, 1], [2, 0]] and
# M2 = [[0, 1], [1, 2]] mod 5, and over F_3 M1 = [[2, 2], [2, 0]] and M2 = I
BIG = [[10**30 + 1, -4], [2**64 + 1, 0]]
BIG_J = "[[0,18446744073709551619],[1,1000000000000000000000000000000]]"  # [[0, -1], [1, 0]] mod 5

# specs for `check` alone: the spectral gate's edge cases, and entries past int64
CHECK_SPECS = {
    "big-entries-p5": {"p": 5, "k": 2, "M1": BIG, "M2": [[0, 1], [1, 2**64 + 1]]},
    "rotation-p3": {"p": 3, "k": 2, "M1": [[0, -1], [1, 0]], "M2": [[1, 0], [0, 1]]},
    "singular-m1-p5": {"p": 5, "k": 2, "M1": [[1, 2], [2, 4]], "M2": [[1, 0], [0, 1]]},
    "singular-m2-p5": {"p": 5, "k": 2, "M1": [[1, 0], [0, 1]], "M2": [[1, 2], [2, 4]]},
    "k2-1x1-p5": {"p": 5, "k": 2, "M1": [[1]], "M2": [[2]]},
    "k4-p5": {"p": 5, "k": 4, "M1": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
              "M2": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]]},
}

# `subspaces` at k = 3: a non-symmetric J over F_7 whose LambdaPrime and OmegaPrime are nonzero
SUBSPACE_SPECS = {
    "skew-3x3-p7": {"p": 7, "k": 3, "M1": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "M2": [[6, 1, 1], [5, 3, 5], [0, 0, 5]]},
}

# `equidist --mode tuple` at k = 3: a factor on F_3^2 with one entry of each kind
FACTOR_K3 = {"p": 3, "n": 2, "b1": [[1, 1]], "b2": [[[1, 0], [0, 2]]], "b3": [[[0, 1], [2, 0]]]}

# `equidist --mode tuple` on F_3^5 (P = 243): the differences span several blocks of translates
FACTOR_F3_5 = {"p": 3, "n": 5, "b1": [[1, 0, 2, 0, 0]],
               "b2": [[[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 2, 0], [0, 0, 0, 0, 1]]],
               "b3": [[[0, 1, 0, 0, 0], [2, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 2, 0, 0], [0, 0, 0, 0, 0]]]}

# each factor with a 2 x 2 J that keeps I - J invertible
FACTORS = {
    "sym-p3": ({"p": 3, "n": 3, "b1": [[1, 0, 0]], "b2": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], "b3": []},
               "[[0,1],[1,2]]"),
    "skew-p3": ({"p": 3, "n": 2, "b1": [], "b2": [[[1, 0], [0, 2]]], "b3": [[[0, 1], [2, 0]]]}, "[[0,1],[1,2]]"),
    "mixed-p5": ({"p": 5, "n": 2, "b1": [[1, 2]], "b2": [[[0, 1], [1, 0]]], "b3": [[[0, 1], [4, 0]]]},
                 "[[0,-1],[1,0]]"),
}

GROUPS = {
    "group": {"kind": "Z_N", "N": 61, "M1": 2, "M2": 3},
    "group-z63": {"kind": "Z_N", "N": 63, "M1": 1, "M2": 2},
    "group-z65": {"kind": "Z_N", "N": 65, "M1": 1, "M2": 2},
    "group-z1009": {"kind": "Z_N", "N": 1009, "M1": 2, "M2": 3},
    "group-f3-6": {"kind": "vector", "p": 3, "k": 1, "n": 6, "M1": [[1]], "M2": [[2]]},
    "group-f3-7": {"kind": "vector", "p": 3, "k": 1, "n": 7, "M1": [[1]], "M2": [[2]]},
    "group-z10007": {"kind": "Z_N", "N": 10007, "M1": 1, "M2": 2},
    "group-bad-kind": {"kind": "foo", "p": 3, "n": 2, "M1": [[1]], "M2": [[2]]},
    "group-kind-foo": {"kind": "foo"},
    "group-big-entries-f3": {"kind": "vector", "p": 3, "k": 2, "n": 2, "M1": BIG, "M2": [[2**64 + 3, 0], [0, 1]]},
    "group-negative-n": {"kind": "vector", "p": 3, "k": 1, "n": -2, "M1": [[1]], "M2": [[2]]},
    "group-k2-1x1": {"kind": "vector", "p": 3, "k": 2, "n": 2, "M1": [[1]], "M2": [[2]]},
}

POINTS = {"one-point": [1], "outside-40": [61, 21, 22], "float-point": [1, 2.5], "one-to-three": [1, 2, 3]}

# grid functions on (F_5^2)^2, the rotated squares' grid, and the PLGF kind byte of each value kind
FN_SHAPE = (5, 2, 2)
FN_KINDS = {"rational": 0, "float": 1}


def grid_functions() -> dict:
    """One function per branch of the pattern-sum kernel, plus the
    non-finite floats a PLGF reader must refuse."""
    P = FN_SHAPE[0] ** (FN_SHAPE[1] * FN_SHAPE[2])
    rng = np.random.default_rng(20)
    ones = (rng.random(P) < 0.4).astype(float)
    fractions = np.stack([rng.integers(-9, 10, P), rng.integers(1, 7, P)], axis=1)
    big = np.stack([rng.integers(-10**6, 10**6 + 1, P), rng.integers(1, 13, P)], axis=1)
    return {
        "fn-indicator": ("float", ones),
        "fn-signed": ("float", rng.integers(-3, 4, P).astype(float)),
        "fn-rational": ("rational", fractions),
        "fn-big-rational": ("rational", big),
        "fn-tenths": ("float", rng.integers(0, 11, P) * 0.1),
        "fn-inf": ("float", np.where(np.arange(P) == 5, np.inf, ones)),
        "fn-nan": ("float", np.where(np.arange(P) == 0, np.nan, ones)),
    }


def small_integers() -> np.ndarray:
    """Integer values 0-3 on (F_3^4)^2 as rational pairs: the int64 tier of the kernel."""
    P = 3**8
    return np.stack([np.random.default_rng(21).integers(0, 4, P), np.ones(P, dtype=np.int64)], axis=1)


def plgf_bytes(kind: str, payload: np.ndarray, shape: tuple = FN_SHAPE) -> bytes:
    """PLGF version 1: magic, version byte, p, k, n as little-endian u32, the
    kind byte, then int64 numerator/denominator pairs or float64 values."""
    head = b"PLGF" + struct.pack("<BIIIB", 1, *shape, FN_KINDS[kind])
    return head + np.asarray(payload, dtype="<i8" if kind == "rational" else "<f8").tobytes()


def invocations(refs: dict) -> list[list[str]]:
    """The argvs, with @name standing for the path of the input file name."""
    argvs = []
    for name in SPECS:
        argvs += [["check", "--spec", f"@{name}"], ["subspaces", "--spec", f"@{name}"]]
    argvs += [["check", "--spec", f"@{name}"] for name in CHECK_SPECS]
    argvs += [["popular", "--spec", "@big-entries-p5", "--p", "5", "--k", "2", "--n", "1"],
              ["threept", "search", "--group", "@group-big-entries-f3", "--eps", "0.05", "--density", "0.4", "--seed", "2"],
              ["equidist", "--factor", "@mixed-p5", "--mode", "tuple", "--k", "2", "--J", BIG_J]]
    argvs += [["subspaces", "--spec", "@k4-p5"], ["subspaces", "--spec", "@skew-3x3-p7"],
              ["equidist", "--factor", "@factor-k3-p3", "--mode", "tuple", "--k", "3", "--J", "[[0,1,0],[0,0,1],[1,1,0]]"],
              ["equidist", "--factor", "@factor-f3-5", "--mode", "tuple", "--J", "[[2]]"],
              ["equidist", "--factor", "@factor-f3-5", "--mode", "tuple", "--J", "[[2]]", "--restrict-h"]]
    for name, (_, J2) in FACTORS.items():
        factor = ["equidist", "--factor", f"@{name}"]
        argvs += [factor + ["--mode", "abstract", "--k", "1"], factor + ["--mode", "abstract", "--k", "2"],
                  factor + ["--mode", "linquad"]]
        for J, k in (("[[2]]", []), (J2, ["--k", "2"])):
            argvs += [factor + ["--mode", "tuple", "--J", J] + k, factor + ["--mode", "tuple", "--J", J, "--restrict-h"] + k]
    argvs += [
        ["cex", "core"],
        ["cex", "dress", "--n", "1", "--L", "5", "--seeds", "3"],
        ["cex", "dress", "--n", "1", "--L", "7", "--seeds", "20"],
        ["cex", "dress", "--n", "2", "--L", "5", "--seeds", "8", "--seed", "9"],
        ["cex", "dress", "--n", "3", "--L", "5", "--seeds", "3"],
        ["cex", "dress", "--n", "3", "--L", "7", "--seeds", "5", "--seed", "4"],
        ["cex", "dress", "--n", "4", "--L", "5", "--seeds", "2"],
        ["cex", "dress", "--n", "4", "--L", "7", "--seeds", "3", "--seed", "1"],
        ["cex", "dress", "--n", "5", "--L", "7", "--seeds", "2"],
        ["cex", "eight-tuple", "--n", "2", "--a", "[1,0]", "--b", "[0,1]"],
        ["cex", "eight-tuple", "--n", "2", "--a", "[1,1]", "--b", "[1,2]"],
        ["cex", "eight-tuple", "--n", "3"],
        ["cex", "eight-tuple", "--n", "4", "--a", "[1,2,0,3]", "--b", "[0,1,1,4]"],
    ]
    argvs += [["cex", "hypergraph", "--L", L] for L in ("5", "7", "11", "13", "17", "25")]
    argvs += [
        ["cex", "report", "--n", "2", "--L", "5", "--seeds", "3", "--seed", "2"],
        ["cex", "report", "--n", "3", "--L", "7", "--seeds", "3"],
        ["cex", "report", "--n", "3", "--L", "5", "--gamma", "3", "--seeds", "2", "--seed", "6"],
        ["cex", "report", "--n", "4", "--L", "7", "--gamma", "2", "--seeds", "2", "--seed", "3"],
        ["cex", "assemble", "--n", "3", "--L", "7", "--gamma", "2", "--seed", "5", "--seed-index", "1"],
        # the support path: n = 5, gamma = n, and n = 1, where no seed has any support
        ["cex", "report", "--n", "5", "--L", "7", "--seeds", "1"],
        ["cex", "report", "--n", "1", "--L", "7", "--seeds", "4"],
        ["cex", "assemble", "--n", "1", "--L", "5", "--seed", "3"],
        ["cex", "assemble", "--n", "4", "--L", "7", "--gamma", "4", "--seed", "2"],
        # report's difference set: L past 13 and an explicit --method
        ["cex", "report", "--n", "2", "--L", "17", "--seeds", "2"],
        ["cex", "report", "--n", "2", "--L", "7", "--seeds", "2", "--method", "greedy"],
        # at n = 4 the greedy and maximum sets at L = 17 give different reports
        ["cex", "report", "--n", "4", "--L", "17", "--seeds", "2"],
        ["cex", "report", "--n", "4", "--L", "17", "--seeds", "2", "--method", "greedy"],
        # seeds sharing one generator stack: a two-word master seed, a two-word
        # seed index, and gamma = 3 over six seeds
        ["cex", "report", "--n", "3", "--L", "7", "--seeds", "12", "--seed", "4294967299"],
        ["cex", "assemble", "--n", "3", "--L", "7", "--seed-index", "4294967296"],
        ["cex", "report", "--n", "4", "--L", "7", "--gamma", "3", "--seeds", "6"],
        # 13 seeds fit in one _affine_membership call at n = 4; 14 take two
        ["cex", "report", "--n", "4", "--L", "7", "--seeds", "14"],
        # seeding edges checked without numpy.random: negative keys end in
        # numpy's error line, and a master seed of three 32-bit words
        ["cex", "report", "--n", "2", "--L", "5", "--seeds", "2", "--seed", "-1"],
        ["cex", "assemble", "--n", "2", "--L", "5", "--seed-index", "-1"],
        ["cex", "dress", "--n", "2", "--L", "5", "--seeds", "3", "--seed", "-2"],
        ["cex", "report", "--n", "3", "--L", "7", "--seeds", "2", "--seed", "18446744073709551617"],
        ["popular", "--spec", "@scalar-p5", "--p", "5", "--n", "2", "--seed", "3", "--full"],
        ["popular", "--spec", "@rotated-squares-p5", "--p", "5", "--k", "2", "--n", "2", "--backend", "float",
         "--density", "0.4", "--seed", "1"],
        ["popular", "--spec", "@scalar-p5", "--p", "5", "--n", "2", "--seed", "3", "--full", "--points", "3"],
        ["popular", "--spec", "@spectral-2x2-p3", "--fn", "@fn-small-int-f3", "--full"],
    ]
    for backend in ("exact", "float"):
        argvs += [
            ["popular", "--spec", "@rotated-squares-p7", "--p", "7", "--k", "2", "--n", "2", "--density", "0.4",
             "--seed", "4", "--full", "--backend", backend],
            ["popular", "--spec", "@spectral-2x2-p3", "--p", "3", "--k", "2", "--n", "4", "--density", "0.3",
             "--seed", "5", "--full", "--backend", backend],
            ["count", "--spec", "@scalar-p3", "--p", "3", "--n", "11", "--density", "0.6", "--seed", "6",
             "--d", "100000", "--points", "3", "--backend", backend],
        ]
    for name in grid_functions():
        fn = ["--spec", "@rotated-squares-p5", "--fn", f"@{name}"]
        argvs += [["popular", *fn, "--full"], ["popular", *fn, "--full", "--points", "3"],
                  ["count", *fn, "--d", "17"], ["gowers", "--fn", f"@{name}", "--s", "2"]]
    for i, case in enumerate(refs["equidist_reference"]["invocations"]):
        argvs.append(["equidist", "--factor", f"@equidist-{i}"] + case["args"])
    for i, case in enumerate(refs["subspaces_reference"]["invocations"]):
        argvs.append(case["args"] + ["--spec", f"@subspaces-{i}"])
    for seed in refs["cex_reference"]["reports"]:
        argvs.append(["cex", "report", "--n", "4", "--L", "7", "--gamma", "1", "--seeds", "5", "--seed", seed])
    argvs += [
        ["threept", "lift", "--N", "20", "--eps", "0"],
        ["threept", "lift", "--eps", "-1"],
        ["threept", "lift", "--eps", "-0.5"],
        ["threept", "decompose", "--group", "@group", "--eps", "0"],
        ["threept", "decompose", "--group", "@group", "--eps", "-1"],
        ["count", "--spec", "@scalar-p5", "--d", "1", "--k", "-1"],
        ["count", "--spec", "@scalar-p5", "--d", "1", "--n", "-1"],
        ["popular", "--spec", "@scalar-p5", "--k", "-1"],
        ["popular", "--spec", "@scalar-p5", "--n", "-1"],
        ["gowers", "--s", "2", "--k", "-1"],
        ["gowers", "--s", "2", "--n", "-1"],
        ["fnio", "random", "--out", "@out", "--k", "-1"],
        ["fnio", "random", "--out", "@out", "--n", "-1"],
        ["equidist", "--mode", "abstract", "--factor", "@sym-p3", "--k", "-1"],
        ["equidist", "--mode", "tuple", "--factor", "@sym-p3", "--J", "[[0,1],[1,2]]"],
        ["threept", "search", "--group", "@group", "--eps", "0.1"],
        ["threept", "search", "--group", "@group-z63", "--eps", "0.05", "--density", "0.5", "--seed", "3"],
        ["threept", "search", "--group", "@group-z65", "--eps", "0.05", "--density", "0.5", "--seed", "4"],
        ["threept", "search", "--group", "@group-z1009", "--eps", "0.05"],
        ["threept", "search", "--group", "@group-z1009", "--eps", "0.05", "--guard", "1500"],
        ["threept", "search", "--group", "@group-f3-6", "--eps", "0.05", "--density", "0.3", "--seed", "2"],
        ["threept", "search", "--group", "@group-f3-7", "--eps", "0.05", "--density", "0.4", "--seed", "7"],
        ["threept", "search", "--group", "@group-z10007", "--eps", "0.05", "--density", "0.45", "--seed", "8"],
        ["threept", "lift", "--N", "30", "--eps", "0.2", "--seed", "3"],
        ["threept", "lift", "--N", "60", "--eps", "0.3"],
        ["threept", "lift", "--N", "1", "--A", "@one-point"],
        ["threept", "lift", "--N", "2", "--eps", "0.1"],
        ["threept", "lift", "--N", "40", "--eps", "0.3", "--A", "@outside-40"],
        # M2 = 21 at p = 41 wraps: the integer triples leave the box (a deliberate output change)
        ["threept", "lift", "--N", "40", "--eps", "0.2", "--M1", "1", "--M2", "21", "--density", "0.55", "--seed", "1"],
        ["threept", "lift", "--N", "2000", "--eps", "0.2", "--density", "0.55"],
        # non-finite flags and a malformed --A: once tracebacks, now one JSON error line,
        # and a huge finite eps, once a traceback, now a report
        ["popular", "--spec", "@scalar-p5", "--eps", "inf"],
        ["popular", "--spec", "@scalar-p5", "--eps", "1e400"],
        ["threept", "bohr", "--group", "@group", "--delta", "inf"],
        ["threept", "count", "--group", "@group", "--delta", "inf"],
        ["threept", "lift", "--eps", "inf"],
        ["threept", "lift", "--eps", "1e308", "--N", "10"],
        ["threept", "lift", "--N", "10", "--A", "@float-point"],
        # a non-finite --eps or --density, once a late emission error, a NonConvergent or a
        # written file, and an --eps whose stage cap 4 / eps^2 overflows, once a traceback:
        # now one JSON error line naming the flag, before any work
        ["threept", "decompose", "--group", "@group", "--eps", "1e-300"],
        ["threept", "decompose", "--group", "@group", "--eps", "inf"],
        ["threept", "search", "--group", "@group", "--eps", "inf"],
        ["threept", "search", "--group", "@group", "--eps", "nan"],
        ["threept", "search", "--group", "@group", "--density", "nan"],
        ["threept", "count", "--group", "@group", "--density", "inf"],
        ["threept", "lift", "--density", "inf"],
        ["popular", "--spec", "@scalar-p5", "--backend", "float", "--eps", "inf"],
        ["popular", "--spec", "@scalar-p5", "--density", "nan"],
        ["fnio", "random", "--out", "@out", "--density", "inf"],
        ["threept", "decompose", "--group", "@group"],
        ["gowers", "--p", "3", "--n", "5", "--s", "3", "--seed", "1"],
        ["gowers", "--p", "7", "--n", "2", "--s", "3", "--seed", "2"],
        ["gowers", "--p", "3", "--n", "3", "--s", "4", "--seed", "3"],
        ["gowers", "--p", "3", "--n", "5", "--s", "4"],
        ["gowers", "--p", "3", "--n", "2", "--s", "5", "--seed", "4"],
        ["gowers", "--p", "5", "--n", "4", "--s", "3", "--seed", "7"],
        ["gowers", "--p", "3", "--n", "7", "--s", "3", "--seed", "8"],
        ["gowers", "--p", "5", "--n", "2", "--s", "4", "--seed", "9"],
        ["gowers", "--p", "7", "--n", "2", "--s", "4", "--seed", "10"],
        ["gowers", "--p", "3", "--n", "3", "--s", "5", "--seed", "11"],
        ["gowers", "--p", "3", "--n", "1", "--s", "4"],
        ["gowers", "--p", "3", "--n", "0", "--s", "4", "--seed", "2"],
        ["threept", "bohr", "--group", "@group-bad-kind"],
        ["threept", "bohr", "--group", "@group-kind-foo"],
        ["threept", "bohr", "--group", "@group-negative-n"],
        ["threept", "search", "--group", "@group-negative-n"],
        ["threept", "count", "--group", "@group-k2-1x1"],
        ["threept", "decompose", "--group", "@group-k2-1x1"],
        ["threept", "decompose", "--group", "@group-f3-6", "--seed", "3"],
        ["threept", "count", "--group", "@group-f3-6", "--S", "[1,5]", "--delta", "0.3", "--seed", "3"],
        ["gowers", "--p", "3", "--k", "2", "--n", "2", "--s", "3"],
        ["gowers", "--p", "3", "--n", "4", "--s", "2"],
        ["gowers", "--p", "3", "--n", "1", "--s", "3"],
        ["gowers", "--p", "3", "--n", "2", "--s", "3", "--mode", "direct", "--seed", "5"],
        ["gowers", "--p", "5", "--n", "2", "--s", "3", "--mode", "direct", "--seed", "6"],
        # seeded draws past one block of the PCG64 reader (3^9 > 2^14 doubles), seeds of one,
        # two and three 32-bit words, and a negative seed, which ends in numpy's error line
        ["fnio", "random", "--out", "@out", "--p", "3", "--n", "9"],
        ["fnio", "random", "--out", "@out", "--p", "3", "--n", "9", "--backend", "float", "--seed", "4294967296"],
        ["gowers", "--p", "3", "--n", "9", "--s", "2"],
        ["gowers", "--p", "3", "--n", "9", "--s", "2", "--backend", "float", "--seed", "18446744073709551621"],
        ["threept", "search", "--group", "@group-f3-7", "--eps", "0.05", "--seed", "0"],
        ["threept", "decompose", "--group", "@group-f3-7", "--seed", "4294967296"],
        ["threept", "decompose", "--group", "@group", "--seed", "18446744073709551621"],
        ["threept", "lift", "--N", "30", "--eps", "0.2", "--seed", "4294967296"],
        ["popular", "--spec", "@scalar-p5", "--seed", "18446744073709551621"],
        ["fnio", "random", "--out", "@out", "--seed", "-1"],
        ["threept", "decompose", "--group", "@group", "--seed", "-1"],
        ["threept", "search", "--group", "@group", "--seed", "-1"],
        # a non-finite float flag that the run does not read, once a late emission error:
        # now one JSON error line naming the parameter, before any work
        ["gowers", "--s", "2", "--fn", "@fn-indicator", "--density", "inf"],
        ["threept", "lift", "--N", "10", "--A", "@one-to-three", "--density", "nan"],
        ["threept", "search", "--group", "@group", "--delta", "inf"],
        ["threept", "bohr", "--group", "@group", "--eps", "inf"],
    ]
    # every guard refusal the CLI reaches, each at a guard one below its estimate
    argvs += [
        ["popular", "--spec", "@scalar-p5", "--p", "5", "--n", "2", "--guard", "624"],
        ["gowers", "--p", "3", "--n", "2", "--s", "3", "--guard", "80"],
        ["gowers", "--p", "3", "--n", "2", "--s", "3", "--mode", "direct", "--guard", "6560"],
        ["equidist", "--factor", "@sym-p3", "--mode", "linquad", "--guard", "26"],
        ["equidist", "--factor", "@sym-p3", "--mode", "tuple", "--J", "[[2]]", "--guard", "728"],
        ["equidist", "--factor", "@sym-p3", "--mode", "abstract", "--k", "1", "--guard", "728"],
        ["cex", "eight-tuple", "--n", "2", "--a", "[1,0]", "--b", "[0,1]", "--guard", "624"],
        ["cex", "dress", "--n", "2", "--L", "5", "--seeds", "2", "--guard", "624"],
        ["cex", "assemble", "--n", "2", "--L", "5", "--guard", "624"],
        ["cex", "report", "--n", "2", "--L", "5", "--seeds", "2", "--guard", "624"],
        ["threept", "lift", "--N", "30", "--eps", "0.2", "--guard", "30"],
    ]
    # the parser alone: full-build help and errors, each subparser's help, and the
    # top-level usage that an unrecognized argument after a subcommand prints
    argvs += [["-h"], [], ["bogus"]]
    parses = {"check": ["--spec", "@scalar-p5"], "subspaces": ["--spec", "@scalar-p5"],
              "count": ["--spec", "@scalar-p5", "--d", "1"], "popular": ["--spec", "@scalar-p5"],
              "gowers": ["--s", "2"], "equidist": ["--factor", "@sym-p3"], "cex": ["report"],
              "threept": ["search"], "fnio": ["info"]}
    argvs += [[sub, "-h"] for sub in parses]
    argvs += [[sub, *flags, *(["--bogus", "1"] if i % 2 else ["extra"])] for i, (sub, flags) in enumerate(parses.items())]
    return argvs


def write_inputs(tmp: pathlib.Path) -> tuple[dict, dict]:
    """Write every input document under tmp; return name -> path, plus the references."""
    refs = {name: json.loads((ROOT / rel).read_text()) for name, rel in (
        ("equidist_reference", "tests/equidist_reference.json"),
        ("subspaces_reference", "tests/subspaces_reference.json"),
        ("cex_reference", "perfbench/cex_reference.json"))}
    docs = dict(SPECS, **CHECK_SPECS, **SUBSPACE_SPECS, **GROUPS, **POINTS, **{"factor-k3-p3": FACTOR_K3, "factor-f3-5": FACTOR_F3_5},
                **{name: factor for name, (factor, _) in FACTORS.items()})
    docs.update({f"equidist-{i}": c["factor"] for i, c in enumerate(refs["equidist_reference"]["invocations"])})
    docs.update({f"subspaces-{i}": c["spec"] for i, c in enumerate(refs["subspaces_reference"]["invocations"])})
    paths = {"out": str(tmp / "out.plgf")}
    for name, doc in docs.items():
        paths[name] = str(tmp / f"{name}.json")
        (tmp / f"{name}.json").write_text(json.dumps(doc))
    for name, (kind, payload) in grid_functions().items():
        paths[name] = str(tmp / f"{name}.plgf")
        (tmp / f"{name}.plgf").write_bytes(plgf_bytes(kind, payload))
    paths["fn-small-int-f3"] = str(tmp / "fn-small-int-f3.plgf")
    (tmp / "fn-small-int-f3.plgf").write_bytes(plgf_bytes("rational", small_integers(), (3, 2, 4)))
    return paths, refs


def normalized_stdout(text: str) -> str:
    lines = []
    for line in text.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict):
            obj.pop("wall_time_s", None)
            line = json.dumps(obj, sort_keys=True)
        lines.append(line)
    return "\n".join(lines)


def run(src: str, argv: list[str], cwd: str) -> tuple:
    """(exit code, stdout without wall_time_s, stderr); a run past 60 s is a hang."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.abspath(src)
    try:
        child = subprocess.run([sys.executable, "-m", "popdiff.cli", *argv], env=env, cwd=cwd,
                               capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return None, "", "killed after 60 s"
    return child.returncode, normalized_stdout(child.stdout), child.stderr


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = sys.argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        paths, refs = write_inputs(pathlib.Path(tmp))
        argvs = [[paths[a[1:]] if a.startswith("@") else a for a in argv] for argv in invocations(refs)]
        differ = 0
        for argv in argvs:
            want, got = run(parent, argv, tmp), run(change, argv, tmp)
            if want == got:
                continue
            differ += 1
            print(f"DIFFERS: popdiff {' '.join(argv)}")
            for label, w, g in zip(("exit", "stdout", "stderr"), want, got):
                if w != g:
                    print(f"  {label} parent: {w}\n  {label} change: {g}")
        print(f"{len(argvs) - differ} of {len(argvs)} invocations identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

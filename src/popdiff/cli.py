"""Command-line entry point: JSON-lines reports over the library operations.

Exit codes: 0 success, 1 usage or IO error, 2 a mathematical assertion
checked by the subcommand is violated. Every report line echoes the tool
version, the parsed configuration, the seed, the backend, and wall time;
exact rationals are serialized as "num/den" strings.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import sys
import time
from fractions import Fraction

# no BLAS call in popdiff (tests/test_source.py::test_library_calls_no_blas); read as numpy loads OpenBLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import DEFAULT_GUARD, __version__
from .errors import CheckFailed, PopdiffError, TooLarge, check_guard, finite, is_int_tree
from .ffalg import FpMatrix
from .gridfn import FLOAT, RATIONAL, GridFunction, grid_size, read_grid_function, write_grid_function
from .patterns import PatternSpec, check_admissible, check_spectral, constraint_spaces, lambda_perp
from .analysis import gowers_norm, pattern_count, popular_search


def _lazy_layer(name: str):
    """popdiff.<name>, registered in sys.modules and on the package without
    running its code: the first attribute read runs it, so a subcommand that
    never reads the layer never compiles it. A layer already imported is
    returned as it is. Keyed on popdiff.<name>, as `-m popdiff.cli` runs this
    module as __main__."""
    full = f"popdiff.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(sys.modules["popdiff"], name, module)
        spec.loader.exec_module(module)
    return module


cex = _lazy_layer("counterexample")
tp = _lazy_layer("threept")
eq = _lazy_layer("equidist")
pcg = _lazy_layer("_pcg64")  # run by the first random draw, inside the handler
_LAYERS = {"cex": cex, "threept": tp, "equidist": eq}  # the lazy layer each subcommand runs


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.generic):  # numpy bool, integer and float scalars
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _emit(args: argparse.Namespace, payload: dict, t0: float) -> None:
    """Print (or append to --json) one report line echoing the parsed flags."""
    line = {
        "tool": "popdiff",
        "version": __version__,
        "subcommand": args.subcommand,
        "config": {k: _jsonable(v) for k, v in vars(args).items() if k not in ("func", "json_out")},
        "seed": args.seed,
        "backend": args.backend,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "report": _jsonable(payload),
    }
    # a report that holds inf or nan is not JSON; dispatch prints one error line instead
    text = json.dumps(line, sort_keys=True, allow_nan=False)
    if args.json_out:
        with open(args.json_out, "a") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- inputs: every flag a handler reads goes through one of these ------------


def _required(args, flag: str) -> str:
    value = getattr(args, flag)
    if value is None:
        raise ValueError(f"--{flag} is required")
    return value


def _load_json(args, flag: str, cls=None, **kwargs):
    """The JSON document at the path given by --flag, built by
    cls.from_json_obj(obj, **kwargs) when cls is given. A document the builder
    cannot read is a usage error, and a typed error other than a guard refusal
    keeps its type; each names the flag, the file and, for a missing key, the key."""
    path = _required(args, flag)
    with open(path) as fh:
        obj = json.load(fh)
    if cls is None:
        return obj
    try:
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, not {type(obj).__name__}")
        return cls.from_json_obj(obj, **kwargs)
    except KeyError as exc:
        raise ValueError(f"--{flag} {path}: missing key {exc}") from None
    except (TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"--{flag} {path}: {exc}") from None
    except TooLarge:  # a guard refusal keeps its one form
        raise
    except PopdiffError as exc:  # a typed builder error keeps its type
        raise type(exc)(f"--{flag} {path}: {exc}") from None


def _int_lists(args, flag: str, depth: int = 1) -> list:
    """The inline JSON of --flag: a list of integers, or at depth 2 a list of such lists."""
    text = getattr(args, flag)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = None
    if not is_int_tree(value, depth):
        raise ValueError(f"--{flag} {text}: expected a JSON list of {'lists of ' * (depth - 1)}integers")
    return value


def _coin_flips(args, size: int) -> np.ndarray:
    """The seeded 0/1 draw shared by every random input: True with probability --density."""
    return pcg.uniforms(args.seed, size) < args.density


def _random_fn(args) -> GridFunction:
    """The seeded random 0/1 function on the --p/--k/--n grid, in the --backend's kind."""
    size = grid_size(args.p, args.k, args.n)
    check_guard("p^(kn)", size, args.guard)  # before the draw, so that a huge grid allocates nothing
    vals = _coin_flips(args, size).astype(np.int64)
    if args.backend == "exact":
        return GridFunction(args.p, args.k, args.n, vals, RATIONAL, guard=args.guard)
    return GridFunction(args.p, args.k, args.n, vals.astype(np.float64), FLOAT, guard=args.guard)


def _load_fn(args) -> GridFunction:
    """The function in the --fn file, or else the seeded random one; either is refused past --guard."""
    f = read_grid_function(args.fn) if args.fn else _random_fn(args)
    check_guard("p^(kn)", f.size, args.guard)
    return f


# -- subcommand handlers; each returns (payload, math_ok) --------------------


def _cmd_check(args):
    spec = _load_json(args, "spec", PatternSpec)
    return {"admissible": check_admissible(spec), "spectral": check_spectral(spec)}, True


def _cmd_subspaces(args):
    spec = _load_json(args, "spec", PatternSpec)
    J = spec.J()
    spaces = constraint_spaces(J)
    payload = {name: sp.to_json_obj() for name, sp in spaces.items()}
    payload["LambdaPerp"] = lambda_perp(J, "symmetric").to_json_obj()
    payload["LambdaPrimePerp"] = lambda_perp(J, "skew").to_json_obj()
    return payload, True


def _cmd_count(args):
    spec = _load_json(args, "spec", PatternSpec)
    f = _load_fn(args)
    beta = pattern_count(f, spec, args.d, points=args.points)
    return {"d": args.d, "beta": beta, "points": args.points}, True


def _cmd_popular(args):
    spec = _load_json(args, "spec", PatternSpec)
    f = _load_fn(args)
    rep = popular_search(f, spec, args.eps, points=args.points, guard=args.guard)
    payload = rep.to_json_obj()
    if args.full:
        payload["counts"] = rep.counts
    return payload, rep.threshold_hits >= 1


def _cmd_gowers(args):
    f = _load_fn(args)
    val = gowers_norm(f, args.s, mode=args.mode, guard=args.guard)
    return {"s": args.s, "norm": val, "mode": args.mode}, True


def _cmd_equidist(args):
    factor = _load_json(args, "factor", eq.QuadraticFactor)
    if args.mode == "tuple":
        J = FpMatrix.from_rows(_int_lists(args, "J", depth=2), factor.p)
        if J.rows != args.k:
            raise ValueError(f"--k {args.k} differs from the size of --J {args.J}, a {J.rows} x {J.cols} matrix")
        rep = eq.pattern_tuple_distribution(factor, J, restrict_to_H=args.restrict_h, guard=args.guard)
    elif args.mode == "abstract":
        rep = eq.abstract_atom_distribution(factor, args.k, guard=args.guard)
    else:
        rep = eq.linear_quadratic_distribution([list(r) for r in factor.b1], list(factor.b2), factor.n, factor.p, guard=args.guard)
    return rep.to_json_obj(), rep.support_ok


def _cmd_cex(args):
    core = cex.build_core()
    if args.cex_op == "core":
        t = cex.core_expectation_table(core)
        payload = {
            "sup": t["sup"],
            "mean": t["mean_g1"],
            "strict": t["strict"],
            "table": {str(k): v for k, v in t["table"].items()},
        }
        return payload, t["strict"]
    if args.cex_op == "eight-tuple":
        rep = cex.eight_tuple_distribution(_int_lists(args, "a"), _int_lists(args, "b"), args.n, guard=args.guard)
        return rep.to_json_obj(), rep.support_ok
    h = cex.Hypergraphon(args.L, cex.ap3_free_set(args.L, args.method))
    if args.cex_op == "hypergraph":
        exps = cex.hypergraph_expectations(h)
        ok = exps["patternA_matches"] and exps["patternB_bound_holds"] and exps["unique_triangles_ok"]
        return exps, ok
    if args.cex_op == "dress":
        rep = cex.dress_and_measure(core, h, args.n, args.seeds, args.seed, guard=args.guard)
        ok = rep["alpha"]["within"] and all(d["within"] for d in rep["differences"])
        return rep, ok
    params = cex.DressingParams(seed=args.seed, n=args.n, gamma=args.gamma)
    if args.cex_op == "assemble":
        rep = cex.final_assembly(core, h, params, args.seed_index, guard=args.guard)
        return rep, all(rep["subchecks"][k] for k in ("digit_set_4ap_free", "exponent_ok", "gamma_bound_ok"))
    if args.cex_op == "report":
        rep = cex.cex_report(core, h, params, seeds=args.seeds, guard=args.guard)
        return rep, all(bool(v) for v in rep["certified"].values())
    raise ValueError(f"unknown cex operation {args.cex_op!r}")


def _cmd_threept(args):
    if args.tp_op != "lift":
        g = _load_json(args, "group", tp.FiniteGroupSpec, guard=args.guard)
    if args.tp_op in ("bohr", "count"):
        B = tp.bohr_set(g, _int_lists(args, "S"), Fraction(args.delta).limit_denominator(10**9))
    if args.tp_op == "bohr":
        return {"members": list(B.members), "measure": B.measure, "S": list(B.S)}, True
    if args.tp_op == "count":
        f = _coin_flips(args, g.size).astype(np.float64)
        rep = tp.smoothed_3pt_count(f, g, B)
        return rep, rep["agree"]
    if args.tp_op == "decompose":
        f = pcg.uniforms(args.seed, g.size)
        dec = tp.regularity_decompose(f, g, epsilon=args.eps)
        payload = {
            "T_size": len(dec.T),
            "gamma1": dec.gamma1,
            "gamma2": dec.gamma2,
            "lipschitz_C": dec.lipschitz_C,
            "stages": dec.stages,
            "contracts": dec.contracts,
        }
        ok = all(v for k, v in dec.contracts.items() if k.endswith("ok") or k == "mean_preserved")
        return payload, ok
    if args.tp_op == "search":
        f = _coin_flips(args, g.size).astype(np.float64)
        rep = tp.popular_3pt_search(f, g, args.eps)
        return rep.to_json_obj(), rep.threshold_hits >= 1
    if args.tp_op == "lift":
        if args.A:
            A = _load_json(args, "A")
            if not (is_int_tree(A, 1) or is_int_tree(A, 2)):
                raise ValueError(f"--A {args.A}: expected a JSON list of integers or of lists of integers")
        else:
            A = [int(x) + 1 for x in np.nonzero(_coin_flips(args, args.N))[0]]
        rep = tp.lift_to_interval(A, args.N, args.M1, args.M2, args.eps, guard=args.guard)
        return rep, rep["audit_ok"]
    raise ValueError(f"unknown threept operation {args.tp_op!r}")


def _cmd_fnio(args):
    if args.io_op != "info":
        _required(args, "out")
    if args.io_op == "random":
        f = _random_fn(args)
        write_grid_function(f, args.out)
        return {"out": args.out, "mean": f.mean()}, True
    _required(args, "fn")
    f = _load_fn(args)
    if args.io_op == "info":
        return {"p": f.p, "k": f.k, "n": f.n, "kind": f.kind, "size": f.size, "mean": f.mean()}, True
    if args.io_op == "roundtrip":
        write_grid_function(f, args.out)
        g = read_grid_function(args.out)
        same = all(a == b for a, b in zip(f.values, g.values)) if f.kind == RATIONAL else bool(np.array_equal(f.values, g.values))
        return {"roundtrip_identical": same, "out": args.out}, same
    raise ValueError(f"unknown fnio operation {args.io_op!r}")


# ---------------------------------------------------------------------------


_SPEC = ("--spec", {"required": True})
_POINTS = ("--points", {"type": int, "choices": (3, 4), "default": 4})
_GRID_FN = (  # --fn, or the seeded random function on the --p/--k/--n grid at --density
    ("--fn", {"default": None}),
    ("--p", {"type": int, "default": 5}),
    ("--k", {"type": int, "default": 1}),
    ("--n", {"type": int, "default": 2}),
    ("--density", {"type": float, "default": 0.5}),
)
_COMMON = (  # the flags every subcommand takes, first
    ("--guard", {"type": int, "default": DEFAULT_GUARD}),
    ("--backend", {"choices": ("exact", "float"), "default": "exact"}),
    ("--json", {"dest": "json_out", "default": None}),
    ("--seed", {"type": int, "default": 0}),
)
# name -> (help, handler, its own flags in help order)
_SUBCOMMANDS = {
    "check": ("admissibility and spectral gate of a pattern", _cmd_check, (_SPEC,)),
    "subspaces": ("constraint subspace bases for a pattern", _cmd_subspaces, (_SPEC,)),
    "count": ("pattern count at one difference", _cmd_count,
              (_SPEC, ("--d", {"type": int, "required": True}), _POINTS, *_GRID_FN)),
    "popular": ("exhaustive popular-difference search", _cmd_popular,
                (_SPEC, ("--eps", {"type": float, "default": 0.05}), _POINTS, ("--full", {"action": "store_true"}),
                 *_GRID_FN)),
    "gowers": ("Gowers U^s norm", _cmd_gowers,
               (("--s", {"type": int, "required": True}),
                ("--mode", {"choices": ("recursive", "direct"), "default": "recursive"}), *_GRID_FN)),
    "equidist": ("exhaustive equidistribution reports", _cmd_equidist, (
        ("--mode", {"choices": ("linquad", "tuple", "abstract"), "default": "tuple"}),
        ("--factor", {"required": True}),
        ("--J", {"default": "[[2]]"}),
        ("--k", {"type": int, "default": 1}),
        ("--restrict-h", {"action": "store_true"}),
    )),
    "cex": ("counterexample pipeline", _cmd_cex, (
        ("cex_op", {"choices": ("core", "eight-tuple", "hypergraph", "dress", "assemble", "report")}),
        ("--a", {"default": "[1,0,0]"}),
        ("--b", {"default": "[0,1,0]"}),
        ("--n", {"type": int, "default": 3}),
        ("--L", {"type": int, "default": 5}),
        ("--gamma", {"type": int, "default": 1}),
        ("--seeds", {"type": int, "default": 10}),
        ("--seed-index", {"type": int, "default": 0}),
        ("--method", {"default": "exhaustive-max"}),
    )),
    "threept": ("three-point machinery over finite groups", _cmd_threept, (
        ("tp_op", {"choices": ("bohr", "count", "decompose", "search", "lift")}),
        ("--group", {"default": None}),
        ("--S", {"default": "[1]"}),
        ("--delta", {"type": float, "default": 0.25}),
        ("--eps", {"type": float, "default": 0.1}),
        ("--density", {"type": float, "default": 0.45}),
        ("--N", {"type": int, "default": 40}),
        ("--M1", {"type": int, "default": 1}),
        ("--M2", {"type": int, "default": 2}),
        ("--A", {"default": None}),
    )),
    "fnio": ("grid-function file utilities", _cmd_fnio,
             (("io_op", {"choices": ("info", "roundtrip", "random")}), ("--out", {"default": None}), *_GRID_FN)),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The CLI parser. When argv[0] names a subcommand, only that subparser is
    built; otherwise (-h, no argument, an unknown name) all of them are."""
    ap = argparse.ArgumentParser(prog="popdiff", description=__doc__)
    if argv and argv[0] in _SUBCOMMANDS:
        # the full build's {check,...,fnio} in the top-level usage that an unrecognized argument prints; the
        # full build keeps argparse's own metavar, which its errors name as "argument subcommand"
        sub = ap.add_subparsers(dest="subcommand", required=True, metavar="{" + ",".join(_SUBCOMMANDS) + "}")
        names = [argv[0]]
    else:
        sub = ap.add_subparsers(dest="subcommand", required=True)
        names = list(_SUBCOMMANDS)
    for name in names:
        help_text, func, flags = _SUBCOMMANDS[name]
        s = sub.add_parser(name, help=help_text)
        s.set_defaults(func=func)
        for flag, kwargs in (*_COMMON, *flags):
            s.add_argument(flag, **kwargs)
    return ap


def dispatch(argv) -> int:
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        for flag, value in vars(args).items():  # read by the handler or not, a float flag's value is echoed in config
            if isinstance(value, float):
                finite("epsilon" if flag == "eps" else flag, value)
        if args.subcommand in _LAYERS:
            getattr(_LAYERS[args.subcommand], "__name__")  # runs the layer's code now, so wall_time_s times the handler alone
        t0 = time.perf_counter()
        payload, math_ok = args.func(args)
        _emit(args, payload, t0)
    except (PopdiffError, OSError, ValueError) as exc:  # JSONDecodeError and a non-finite report are ValueErrors
        print(json.dumps({"tool": "popdiff", "error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, CheckFailed) else 1
    return 0 if math_ok else 2


def main(argv=None) -> int:
    if argv is None:  # the CLI process itself, whose import-time objects live until it exits
        gc.freeze()
        argv = sys.argv[1:]
    return dispatch(argv)


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line entry point: JSON-lines reports over the library operations.

Exit codes: 0 success, 1 usage or IO error, 2 a mathematical assertion
checked by the subcommand is violated. Every report line echoes the tool
version, the parsed configuration, the seed, the backend, and wall time;
exact rationals are serialized as "num/den" strings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import DEFAULT_GUARD, __version__
from .errors import CheckFailed, PopdiffError, TooLarge
from .ffalg import FpMatrix
from .gridfn import (
    FLOAT,
    RATIONAL,
    GridFunction,
    QuadraticFactor,
    read_grid_function,
    write_grid_function,
)
from .patterns import PatternSpec, check_admissible, check_spectral, constraint_spaces, lambda_perp
from .analysis import (
    gowers_norm,
    linear_quadratic_distribution,
    pattern_count,
    pattern_tuple_distribution,
    abstract_atom_distribution,
    popular_search,
)
from . import counterexample as cex
from . import threept as tp


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration, echoed verbatim into every report line."""

    subcommand: str
    seed: int | None
    backend: str
    output: str | None
    flags: dict = field(default_factory=dict)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        flags = {k: v for k, v in vars(args).items() if k not in ("func", "json_out")}
        return cls(
            subcommand=args.subcommand,
            seed=getattr(args, "seed", None),
            backend=getattr(args, "backend", "exact"),
            output=args.json_out,
            flags=flags,
        )


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _emit(cfg: RunConfig, payload: dict, t0: float) -> None:
    line = {
        "tool": "popdiff",
        "version": __version__,
        "subcommand": cfg.subcommand,
        "config": {k: _jsonable(v) for k, v in cfg.flags.items()},
        "seed": cfg.seed,
        "backend": cfg.backend,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "report": _jsonable(payload),
    }
    text = json.dumps(line, sort_keys=True)
    if cfg.output:
        with open(cfg.output, "a") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_spec(args) -> PatternSpec:
    with open(args.spec) as fh:
        return PatternSpec.from_json_obj(json.load(fh))


def _random_fn(args) -> GridFunction:
    """The seeded random 0/1 function on the --p/--k/--n grid, in the --backend's kind."""
    size = args.p ** (args.k * args.n)
    if size > args.guard:  # before the draw, so that a huge grid allocates nothing
        raise TooLarge(f"p^(kn) = {size} exceeds guard {args.guard}")
    rng = np.random.default_rng(args.seed)
    vals = (rng.random(size) < args.density).astype(np.int64)
    if args.backend == "exact":
        return GridFunction(args.p, args.k, args.n, vals, RATIONAL, guard=args.guard)
    return GridFunction(args.p, args.k, args.n, vals.astype(np.float64), FLOAT, guard=args.guard)


def _load_fn(args) -> GridFunction:
    return read_grid_function(args.fn) if getattr(args, "fn", None) else _random_fn(args)


def _matrix_arg(text: str, p: int) -> FpMatrix:
    return FpMatrix.from_rows(json.loads(text), p)


# -- subcommand handlers; each returns (payload, math_ok) --------------------


def _cmd_check(args):
    spec = _load_spec(args)
    return {"admissible": check_admissible(spec), "spectral": check_spectral(spec)}, True


def _cmd_subspaces(args):
    spec = _load_spec(args)
    J = spec.J()
    spaces = constraint_spaces(J)
    payload = {name: sp.to_json_obj() for name, sp in spaces.items()}
    payload["LambdaPerp"] = lambda_perp(J, "symmetric").to_json_obj()
    payload["LambdaPrimePerp"] = lambda_perp(J, "skew").to_json_obj()
    return payload, True


def _cmd_count(args):
    spec = _load_spec(args)
    f = _load_fn(args)
    beta = pattern_count(f, spec, args.d, points=args.points)
    return {"d": args.d, "beta": beta, "points": args.points}, True


def _cmd_popular(args):
    spec = _load_spec(args)
    f = _load_fn(args)
    rep = popular_search(f, spec, args.eps, points=args.points, guard=args.guard)
    payload = rep.to_json_obj()
    if args.full:
        payload["counts"] = {str(k): _jsonable(v) for k, v in rep.counts.items()}
    return payload, rep.threshold_hits >= 1


def _cmd_gowers(args):
    f = _load_fn(args)
    val = gowers_norm(f, args.s, mode=args.mode, guard=args.guard)
    return {"s": args.s, "norm": val, "mode": args.mode}, True


def _cmd_equidist(args):
    with open(args.factor) as fh:
        factor = QuadraticFactor.from_json_obj(json.load(fh))
    if args.mode == "tuple":
        J = _matrix_arg(args.J, factor.p)
        rep = pattern_tuple_distribution(factor, J, restrict_to_H=args.restrict_h, guard=args.guard)
    elif args.mode == "abstract":
        rep = abstract_atom_distribution(factor, args.k, guard=args.guard)
    else:
        rep = linear_quadratic_distribution([list(r) for r in factor.b1], list(factor.b2), factor.n, factor.p, guard=args.guard)
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
        rep = cex.eight_tuple_distribution(json.loads(args.a), json.loads(args.b), args.n, guard=args.guard)
        return rep.to_json_obj(), rep.support_ok
    if args.cex_op in ("hypergraph", "dress", "assemble"):
        h = cex.Hypergraphon(args.L, cex.ap3_free_set(args.L, args.method))
    if args.cex_op == "hypergraph":
        exps = cex.hypergraph_expectations(h)
        ok = exps["patternA_matches"] and exps["patternB_bound_holds"] and exps["unique_triangles_ok"]
        return exps, ok
    if args.cex_op == "dress":
        rep = cex.dress_and_measure(core, h, args.n, args.seeds, args.seed, guard=args.guard)
        ok = rep["alpha"]["within"] and all(d["within"] for d in rep["differences"])
        return rep, ok
    if args.cex_op == "assemble":
        params = cex.DressingParams(seed=args.seed, n=args.n, L=args.L, gamma=args.gamma)
        rep = cex.final_assembly(core, h, params, args.seed_index, guard=args.guard)
        return rep, all(rep["subchecks"][k] for k in ("digit_set_4ap_free", "exponent_ok", "gamma_bound_ok"))
    if args.cex_op == "report":
        params = cex.DressingParams(seed=args.seed, n=args.n, L=args.L, gamma=args.gamma)
        rep = cex.cex_report(params, seeds=args.seeds, guard=args.guard)
        return rep, all(bool(v) for v in rep["certified"].values())
    raise ValueError(f"unknown cex operation {args.cex_op!r}")


def _group_from_args(args) -> tp.FiniteGroupSpec:
    with open(args.group) as fh:
        return tp.FiniteGroupSpec.from_json_obj(json.load(fh))


def _cmd_threept(args):
    g = _group_from_args(args) if args.tp_op != "lift" else None
    if args.tp_op == "bohr":
        B = tp.bohr_set(g, json.loads(args.S), Fraction(args.delta).limit_denominator(10**9))
        return {"members": list(B.members), "measure": B.measure, "S": list(B.S)}, True
    if args.tp_op == "count":
        B = tp.bohr_set(g, json.loads(args.S), Fraction(args.delta).limit_denominator(10**9))
        rng = np.random.default_rng(args.seed)
        f = (rng.random(g.size) < args.density).astype(np.float64)
        rep = tp.smoothed_3pt_count(f, g, B)
        return rep, rep["agree"]
    if args.tp_op == "decompose":
        rng = np.random.default_rng(args.seed)
        f = rng.random(g.size)
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
        rng = np.random.default_rng(args.seed)
        f = (rng.random(g.size) < args.density).astype(np.float64)
        rep = tp.popular_3pt_search(f, g, args.eps)
        return rep.to_json_obj(), rep.threshold_hits >= 1
    if args.tp_op == "lift":
        if args.A:
            with open(args.A) as fh:
                A = json.load(fh)
        else:
            rng = np.random.default_rng(args.seed)
            A = [int(x) + 1 for x in np.nonzero(rng.random(args.N) < args.density)[0]]
        rep = tp.lift_to_interval(A, args.N, args.M1, args.M2, args.eps, guard=args.guard)
        return rep, rep["audit_ok"]
    raise ValueError(f"unknown threept operation {args.tp_op!r}")


def _cmd_fnio(args):
    if args.io_op == "info":
        f = read_grid_function(args.fn)
        return {"p": f.p, "k": f.k, "n": f.n, "kind": f.kind, "size": f.size, "mean": f.mean()}, True
    if args.io_op == "roundtrip":
        f = read_grid_function(args.fn)
        write_grid_function(f, args.out)
        g = read_grid_function(args.out)
        same = all(a == b for a, b in zip(f.values, g.values)) if f.kind == RATIONAL else bool(np.array_equal(f.values, g.values))
        return {"roundtrip_identical": same, "out": args.out}, same
    if args.io_op == "random":
        f = _random_fn(args)
        write_grid_function(f, args.out)
        return {"out": args.out, "mean": f.mean()}, True
    raise ValueError(f"unknown fnio operation {args.io_op!r}")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="popdiff", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(s, seed=True):
        s.add_argument("--guard", type=int, default=DEFAULT_GUARD)
        s.add_argument("--backend", choices=("exact", "float"), default="exact")
        s.add_argument("--json", dest="json_out", default=None)
        if seed:
            s.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("check", help="admissibility and spectral gate of a pattern")
    s.add_argument("--spec", required=True)
    common(s)
    s.set_defaults(func=_cmd_check)

    s = sub.add_parser("subspaces", help="constraint subspace bases for a pattern")
    s.add_argument("--spec", required=True)
    common(s)
    s.set_defaults(func=_cmd_subspaces)

    s = sub.add_parser("count", help="pattern count at one difference")
    s.add_argument("--spec", required=True)
    s.add_argument("--fn", default=None)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--points", type=int, choices=(3, 4), default=4)
    s.add_argument("--p", type=int, default=5)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--density", type=float, default=0.5)
    common(s)
    s.set_defaults(func=_cmd_count)

    s = sub.add_parser("popular", help="exhaustive popular-difference search")
    s.add_argument("--spec", required=True)
    s.add_argument("--fn", default=None)
    s.add_argument("--eps", type=float, default=0.05)
    s.add_argument("--points", type=int, choices=(3, 4), default=4)
    s.add_argument("--p", type=int, default=5)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--density", type=float, default=0.5)
    s.add_argument("--full", action="store_true")
    common(s)
    s.set_defaults(func=_cmd_popular)

    s = sub.add_parser("gowers", help="Gowers U^s norm")
    s.add_argument("--fn", default=None)
    s.add_argument("--s", type=int, required=True)
    s.add_argument("--mode", choices=("recursive", "direct"), default="recursive")
    s.add_argument("--p", type=int, default=5)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--density", type=float, default=0.5)
    common(s)
    s.set_defaults(func=_cmd_gowers)

    s = sub.add_parser("equidist", help="exhaustive equidistribution reports")
    s.add_argument("--mode", choices=("linquad", "tuple", "abstract"), default="tuple")
    s.add_argument("--factor", required=True)
    s.add_argument("--J", default="[[2]]")
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--restrict-h", dest="restrict_h", action="store_true")
    common(s)
    s.set_defaults(func=_cmd_equidist)

    s = sub.add_parser("cex", help="counterexample pipeline")
    s.add_argument("cex_op", choices=("core", "eight-tuple", "hypergraph", "dress", "assemble", "report"))
    s.add_argument("--a", default="[1,0,0]")
    s.add_argument("--b", default="[0,1,0]")
    s.add_argument("--n", type=int, default=3)
    s.add_argument("--L", type=int, default=5)
    s.add_argument("--gamma", type=int, default=1)
    s.add_argument("--seeds", type=int, default=10)
    s.add_argument("--seed-index", type=int, default=0)
    s.add_argument("--method", default="exhaustive-max")
    common(s)
    s.set_defaults(func=_cmd_cex)

    s = sub.add_parser("threept", help="three-point machinery over finite groups")
    s.add_argument("tp_op", choices=("bohr", "count", "decompose", "search", "lift"))
    s.add_argument("--group", default=None)
    s.add_argument("--S", default="[1]")
    s.add_argument("--delta", type=float, default=0.25)
    s.add_argument("--eps", type=float, default=0.1)
    s.add_argument("--density", type=float, default=0.45)
    s.add_argument("--N", type=int, default=40)
    s.add_argument("--M1", type=int, default=1)
    s.add_argument("--M2", type=int, default=2)
    s.add_argument("--A", default=None)
    common(s)
    s.set_defaults(func=_cmd_threept)

    s = sub.add_parser("fnio", help="grid-function file utilities")
    s.add_argument("io_op", choices=("info", "roundtrip", "random"))
    s.add_argument("--fn", default=None)
    s.add_argument("--out", default=None)
    s.add_argument("--p", type=int, default=5)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--density", type=float, default=0.5)
    common(s)
    s.set_defaults(func=_cmd_fnio)

    return ap


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    cfg = RunConfig.from_args(args)
    t0 = time.perf_counter()
    try:
        payload, math_ok = args.func(args)
    except CheckFailed as exc:
        print(json.dumps({"tool": "popdiff", "error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except PopdiffError as exc:
        print(json.dumps({"tool": "popdiff", "error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(json.dumps({"tool": "popdiff", "error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    _emit(cfg, payload, t0)
    return 0 if math_ok else 2


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())

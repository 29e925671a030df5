import contextlib
import gc
import io
import json
import os
import pathlib
import signal
import struct
import subprocess
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from popdiff.analysis import gowers_norm
from popdiff import cli, counterexample as cex, threept as tp
from popdiff.cli import dispatch
from popdiff.errors import TooLarge
from popdiff.gridfn import FLOAT, GridFunction, write_grid_function


def run_lines(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out.strip()
    return code, [json.loads(line) for line in out.splitlines() if line]


def _child_env():
    """The environment of a child interpreter that imports popdiff as this one does."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "rotated-square.json"
    path.write_text(json.dumps({"p": 5, "k": 2, "M1": [[1, 0], [0, 1]], "M2": [[0, -1], [1, 0]]}))
    return str(path)


@pytest.fixture()
def scalar_spec_file(tmp_path):
    path = tmp_path / "one-two.json"
    path.write_text(json.dumps({"p": 5, "k": 1, "M1": [[1]], "M2": [[2]]}))
    return str(path)


def test_check_rotated_square(capsys, spec_file):
    code, lines = run_lines(capsys, ["check", "--spec", spec_file])
    assert code == 0
    assert lines[0]["report"] == {"admissible": True, "spectral": False}
    assert lines[0]["tool"] == "popdiff"
    assert "wall_time_s" in lines[0]


def test_check_spec_entries_past_int64(capsys, tmp_path):
    # JSON integers are unbounded: M1 = [[1, 1], [2, 0]] and M2 = [[0, 1], [1, 2]] mod 5
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 5, "k": 2, "M1": [[10**30 + 1, -4], [2**64 + 1, 0]], "M2": [[0, 1], [1, 2**64 + 1]]}))
    code, lines = run_lines(capsys, ["check", "--spec", str(path)])
    assert code == 0
    assert lines[0]["report"] == {"admissible": True, "spectral": True}


def test_cex_core_values(capsys):
    code, lines = run_lines(capsys, ["cex", "core"])
    assert code == 0
    rep = lines[0]["report"]
    assert rep["sup"] == "73/3125" and rep["mean"] == "2/5" and rep["strict"] is True


CEX_REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "cex_reference.json")


def _report_mismatches(got, want, path="report"):
    """Where got differs from want: floats within 1e-9, everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in want for m in _report_mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _report_mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        close = isinstance(got, (int, float)) and not isinstance(got, bool) and abs(got - want) <= 1e-9
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("seed", ["0", "5"])
def test_cex_report_matches_recorded_reference(capsys, seed):
    with open(CEX_REFERENCE) as fh:
        reference = json.load(fh)["reports"][seed]
    code = cli.main(["cex", "report", "--n", "4", "--L", "7", "--gamma", "1", "--seeds", "5", "--seed", seed])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
    assert code == 0 and len(lines) == 1
    assert _report_mismatches(lines[0]["report"], reference) == []


def test_cex_report_builds_h_from_method(capsys):
    # report takes its difference set from --method, as hypergraph, dress and
    # assemble do; at L = 17 the greedy and maximum sets differ, and at n = 4
    # their assembled supports are not empty
    argv = ["cex", "report", "--n", "4", "--L", "17", "--seeds", "2"]
    code, greedy = run_lines(capsys, argv + ["--method", "greedy"])
    h = cex.Hypergraphon(17, cex.ap3_free_set(17, "greedy"))
    want = cex.cex_report(cex.build_core(), h, cex.DressingParams(seed=0, n=4, gamma=1), seeds=2)
    assert code == 0 and greedy[0]["report"] == json.loads(json.dumps(cli._jsonable(want)))
    code, maximum = run_lines(capsys, argv + ["--method", "exhaustive-max"])
    assert code == 0 and maximum[0]["report"] != greedy[0]["report"]


EQUIDIST_REFERENCE = os.path.join(os.path.dirname(__file__), "equidist_reference.json")
with open(EQUIDIST_REFERENCE) as _fh:
    EQUIDIST_INVOCATIONS = json.load(_fh)["invocations"]


@pytest.mark.parametrize("case", EQUIDIST_INVOCATIONS, ids=lambda c: " ".join(c["args"]))
def test_equidist_matches_recorded_reference(capsys, tmp_path, case):
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(case["factor"]))
    code = cli.main(["equidist", "--factor", str(path)] + case["args"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
    assert code == case["exit"] and len(lines) == 1
    assert lines[0]["report"] == case["report"]  # exact, floats included


SUBSPACES_REFERENCE = os.path.join(os.path.dirname(__file__), "subspaces_reference.json")
with open(SUBSPACES_REFERENCE) as _fh:
    SUBSPACES_INVOCATIONS = json.load(_fh)["invocations"]


@pytest.mark.parametrize("case", SUBSPACES_INVOCATIONS, ids=lambda c: f"{c['args'][0]} {c['name']}")
def test_subspaces_and_check_match_recorded_reference(capsys, tmp_path, case):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(case["spec"]))
    code = cli.main(case["args"] + ["--spec", str(path)])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
    assert code == case["exit"] and len(lines) == 1
    assert lines[0]["report"] == case["report"]  # every basis vector, in order


def test_unknown_subcommand_exit_1(capsys):
    assert dispatch(["definitely-not-a-subcommand"]) == 1
    capsys.readouterr()


def test_missing_file_is_io_error(capsys):
    assert dispatch(["check", "--spec", "/nonexistent/x.json"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_guard_sentinel(capsys, scalar_spec_file):
    # an oversize request is refused by the guard, exit 1 with the error named
    code = dispatch(["popular", "--spec", scalar_spec_file, "--p", "5", "--n", "4",
                     "--backend", "float", "--guard", "1000"])
    assert code == 1
    assert "TooLarge" in capsys.readouterr().err


def test_fnio_random_guard_before_the_draw(capsys, tmp_path):
    # p^(kn) = 5^99 is refused with the estimate, before any value is drawn
    out = tmp_path / "big.plgf"
    assert dispatch(["fnio", "random", "--p", "5", "--n", "99", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err) == {"tool": "popdiff", "error": "TooLarge",
                                        "message": f"p^(kn) = {5**99} exceeds guard {10**8}"}


@pytest.mark.parametrize("argv, message", [
    (["count", "--spec", "@spec", "--d", "1", "--fn", "@fn", "--guard", "10"], "p^(kn) = 625 exceeds guard 10"),
    (["fnio", "info", "--fn", "@fn", "--guard", "10"], "p^(kn) = 625 exceeds guard 10"),
    (["threept", "bohr", "--group", "@z1009", "--guard", "10"], "group order = 1009 exceeds guard 10"),
    (["threept", "search", "--group", "@z1009", "--guard", "100"], "group order = 1009 exceeds guard 100"),
])
def test_guard_checks_every_grid_and_group_read(capsys, tmp_path, argv, message):
    # a grid read from a PLGF file and a group read from a document are held
    # to --guard, as a drawn grid is
    paths = {"spec": tmp_path / "spec.json", "fn": tmp_path / "f625.plgf", "z1009": tmp_path / "z1009.json"}
    paths["spec"].write_text(json.dumps({"p": 5, "k": 1, "M1": [[1]], "M2": [[2]]}))
    write_grid_function(GridFunction(5, 1, 4, np.linspace(0, 1, 625), FLOAT), paths["fn"])
    paths["z1009"].write_text(json.dumps({"kind": "Z_N", "N": 1009, "M1": 2, "M2": 3}))
    assert dispatch([str(paths[a[1:]]) if a.startswith("@") else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"tool": "popdiff", "error": "TooLarge", "message": message}) + "\n"


def test_threept_group_is_built_with_the_cli_guard(capsys, tmp_path):
    # the guard also sizes the group's translate tables: at --guard 3000 every
    # translate on F_3^7 (2187 points) is a gather, and the report is the same
    path = tmp_path / "f3-7.json"
    path.write_text(json.dumps({"kind": "vector", "p": 3, "n": 7, "M1": [[1]], "M2": [[2]]}))
    argv = ["threept", "search", "--group", str(path), "--eps", "0.05", "--density", "0.4", "--seed", "7", "--guard"]
    reports = []
    for guard in (3000, 10**8):
        with mock.patch.object(tp, "popular_3pt_search", wraps=tp.popular_3pt_search) as search:
            code, lines = run_lines(capsys, argv + [str(guard)])
        assert code == 0 and search.call_args.args[1].guard == guard
        reports.append(lines[0]["report"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [["cex", "report", "--n", "4", "--L", "7", "--seed", "-1"],
                                  ["cex", "assemble", "--n", "3", "--L", "7", "--seed-index", "-1"]])
def test_negative_cex_seed_is_a_usage_error(capsys, argv):
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == '{"tool": "popdiff", "error": "ValueError", "message": "expected non-negative integer"}\n'


def test_math_failure_exit_2(capsys, scalar_spec_file, tmp_path):
    # a single-point set has no popular difference at a tight threshold
    from popdiff.gridfn import GridFunction, write_grid_function

    f = GridFunction.indicator(5, 1, 2, [0])
    path = tmp_path / "point.plgf"
    write_grid_function(f, str(path))
    code, lines = run_lines(capsys, ["popular", "--spec", scalar_spec_file, "--fn", str(path), "--eps", "0"])
    assert code == 2
    assert lines[0]["report"]["hits"] == 0


def test_determinism_byte_identical(capsys, scalar_spec_file):
    argv = ["popular", "--spec", scalar_spec_file, "--p", "5", "--n", "2", "--seed", "7",
            "--backend", "float", "--density", "0.4"]
    _, lines1 = run_lines(capsys, argv)
    _, lines2 = run_lines(capsys, argv)
    for a, b in zip(lines1, lines2):
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_fnio_roundtrip(capsys, tmp_path):
    src = tmp_path / "a.plgf"
    dst = tmp_path / "b.plgf"
    code, _ = run_lines(capsys, ["fnio", "random", "--out", str(src), "--p", "3", "--n", "2", "--seed", "1"])
    assert code == 0
    code, lines = run_lines(capsys, ["fnio", "roundtrip", "--fn", str(src), "--out", str(dst)])
    assert code == 0 and lines[0]["report"]["roundtrip_identical"] is True


def test_threept_lift_cli(capsys):
    code, lines = run_lines(capsys, ["threept", "lift", "--N", "30", "--eps", "0.2", "--density", "0.5", "--seed", "3"])
    assert code == 0
    assert lines[0]["report"]["audit_ok"] is True


def test_equidist_tuple_cli(capsys, tmp_path):
    factor = {"p": 3, "n": 4, "b1": [[1, 0, 0, 0]], "b2": [[[1 if i == j else 0 for j in range(4)] for i in range(4)]], "b3": []}
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(factor))
    code, lines = run_lines(capsys, ["equidist", "--mode", "tuple", "--factor", str(path), "--J", "[[2]]"])
    assert code == 0
    assert lines[0]["report"]["support_ok"] is True


def test_all_subcommand_paths_emit_valid_json(tmp_path, capsys, scalar_spec_file):
    factor = {"p": 3, "n": 3, "b1": [[1, 0, 0]], "b2": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], "b3": []}
    fpath = tmp_path / "factor.json"
    fpath.write_text(json.dumps(factor))
    gpath = tmp_path / "group.json"
    gpath.write_text(json.dumps({"kind": "Z_N", "N": 61, "M1": 2, "M2": 3}))
    plgf = tmp_path / "f.plgf"
    assert dispatch(["fnio", "random", "--out", str(plgf), "--p", "3", "--n", "2", "--seed", "5"]) == 0
    capsys.readouterr()
    argvs = [
        ["check", "--spec", scalar_spec_file],
        ["subspaces", "--spec", scalar_spec_file],
        ["count", "--spec", scalar_spec_file, "--d", "3", "--p", "5", "--n", "2", "--seed", "1"],
        ["popular", "--spec", scalar_spec_file, "--p", "5", "--n", "2", "--seed", "1", "--backend", "float"],
        ["gowers", "--fn", str(plgf), "--s", "2"],
        ["equidist", "--mode", "linquad", "--factor", str(fpath)],
        ["equidist", "--mode", "tuple", "--factor", str(fpath), "--J", "[[2]]"],
        ["equidist", "--mode", "abstract", "--factor", str(fpath), "--k", "1"],
        ["cex", "core"],
        ["cex", "eight-tuple", "--a", "[1,0,0]", "--b", "[0,1,0]", "--n", "3"],
        ["cex", "hypergraph", "--L", "5"],
        ["cex", "dress", "--n", "2", "--L", "5", "--seeds", "8", "--seed", "9"],
        ["cex", "assemble", "--n", "2", "--L", "5", "--gamma", "1", "--seed", "2"],
        ["cex", "report", "--n", "2", "--L", "5", "--gamma", "1", "--seed", "2", "--seeds", "3"],
        ["threept", "bohr", "--group", str(gpath), "--S", "[1,5]", "--delta", "0.2"],
        ["threept", "count", "--group", str(gpath), "--S", "[3]", "--delta", "0.25", "--seed", "2"],
        ["threept", "decompose", "--group", str(gpath), "--eps", "0.25", "--seed", "4"],
        ["threept", "search", "--group", str(gpath), "--density", "0.4", "--eps", "0.1", "--seed", "3"],
        ["threept", "lift", "--N", "30", "--eps", "0.2", "--seed", "3"],
        ["fnio", "info", "--fn", str(plgf)],
    ]
    def refuse(constant):
        raise AssertionError(f"bare {constant} is not JSON")

    for argv in argvs:
        code = dispatch(argv)
        lines = [json.loads(line, parse_constant=refuse) for line in capsys.readouterr().out.splitlines() if line]
        assert code == 0, argv
        assert lines and lines[0]["tool"] == "popdiff", argv


def test_json_out_file(tmp_path, capsys, scalar_spec_file):
    out = tmp_path / "report.jsonl"
    code = dispatch(["check", "--spec", scalar_spec_file, "--json", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    line = json.loads(out.read_text().splitlines()[0])
    assert line["report"]["admissible"] is True and line["report"]["spectral"] is True


def test_input_faults_are_json_error_lines(capsys, tmp_path, scalar_spec_file):
    # each of these used to end in a traceback or a silently wrong answer
    zero = tmp_path / "zero.plgf"
    pairs = np.array([[1, 1]] * 4 + [[1, 0]], dtype="<i8")
    zero.write_bytes(b"PLGF" + struct.pack("<BIIIB", 1, 5, 1, 1, 0) + pairs.tobytes())
    z0 = tmp_path / "z0.json"
    z0.write_text(json.dumps({"kind": "Z_N", "N": 0, "M1": 1, "M2": 2}))
    v25 = tmp_path / "v25.json"
    v25.write_text(json.dumps({"kind": "vector", "p": 5, "k": 1, "n": 2, "M1": [[1]], "M2": [[2]]}))
    cases = [
        (["gowers", "--fn", str(zero), "--s", "2"], "CorruptLength"),
        (["count", "--spec", scalar_spec_file, "--p", "5", "--n", "4", "--d", "700"], "DimensionMismatch"),
        (["threept", "bohr", "--group", str(v25), "--S", "[99]"], "DimensionMismatch"),
        (["threept", "bohr", "--group", str(z0)], "ValueError"),
        (["check", "--spec", scalar_spec_file, "--json", str(tmp_path / "missing" / "out.jsonl")], "FileNotFoundError"),
    ]
    for argv, error in cases:
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == error


@pytest.mark.parametrize("sub", ["bohr", "search", "count", "decompose"])
def test_malformed_vector_group_is_one_error_line(capsys, tmp_path, sub):
    # a negative n used to end in a raw TypeError traceback (the group order
    # 3^-2 as a float), and 1 x 1 matrices at k = 2 in numpy's reshape error
    cases = [
        ({"kind": "vector", "p": 3, "k": 1, "n": -2, "M1": [[1]], "M2": [[2]]}, "ValueError", "n = -2"),
        ({"kind": "vector", "p": 3, "k": 2, "n": 2, "M1": [[1]], "M2": [[2]]}, "DimensionMismatch", "M1 must be k x k"),
    ]
    for i, (doc, error, text) in enumerate(cases):
        path = tmp_path / f"group-{i}.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["threept", sub, "--group", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        line = json.loads(captured.err)
        assert line["error"] == error and text in line["message"]


def _raw_plgf(path, kind_code, payload):
    """A PLGF file on F_5^2 (p = 5, k = 1, n = 2) with the given float64 payload."""
    path.write_bytes(b"PLGF" + struct.pack("<BIIIB", 1, 5, 1, 2, kind_code) + np.asarray(payload, dtype="<f8").tobytes())
    return str(path)


def test_non_finite_plgf_is_refused(capsys, tmp_path, scalar_spec_file):
    # a float payload with inf used to run popular to a RuntimeWarning and a
    # report line holding bare Infinity, which is not JSON
    ones = np.ones(25)
    cases = [
        (_raw_plgf(tmp_path / "inf.plgf", 1, np.where(np.arange(25) == 7, np.inf, ones)), "float value 7 is inf"),
        (_raw_plgf(tmp_path / "nan.plgf", 1, np.where(np.arange(25) == 0, np.nan, ones)), "float value 0 is nan"),
        (_raw_plgf(tmp_path / "cplx.plgf", 2, np.where(np.arange(50) == 9, -np.inf, 0.5)), "complex value 4 is -inf"),
    ]
    inf_path = cases[0][0]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-m", "popdiff.cli", "popular", "--spec", scalar_spec_file, "--fn", inf_path,
                            "--full"], env=env, capture_output=True, text=True, timeout=30)
    assert (child.returncode, child.stdout) == (1, "")
    assert len(child.stderr.splitlines()) == 1 and json.loads(child.stderr)["error"] == "CorruptLength"
    for path, message in cases:
        for argv in (["popular", "--spec", scalar_spec_file, "--fn", path], ["gowers", "--fn", path, "--s", "2"]):
            assert dispatch(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.splitlines()) == 1
            err = json.loads(captured.err)
            assert err["error"] == "CorruptLength" and message in err["message"]


def _plgf_with(path, value, fill=1.0):
    """A float PLGF file on (F_5^2)^2 (p = 5, k = 2, n = 2): fill, and value at index 5."""
    f = GridFunction(5, 2, 2, np.where(np.arange(625) == 5, value, fill), FLOAT)
    write_grid_function(f, str(path))
    return str(path)


def test_overflowing_float_results_are_refused(capsys, tmp_path, spec_file):
    # finite values whose pattern sums overflow: 1e78 used to print bare
    # Infinity, 1e200 to end in an OverflowError traceback
    for value, estimate in ((1e78, "6.25e+314"), (1e200, "6.25e+802")):
        path = _plgf_with(tmp_path / f"{value:.0e}.plgf", value)
        for argv in (["popular", "--spec", spec_file, "--fn", path, "--full"],
                     ["count", "--spec", spec_file, "--fn", path, "--d", "0", "--backend", "float"]):
            assert dispatch(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.splitlines()) == 1
            assert json.loads(captured.err) == {
                "tool": "popdiff", "error": "TooLarge",
                "message": f"p^(kn) max|f|^4 = {estimate} exceeds guard 1.79769e+308"}
    # no pattern sum overflows at 1e77 with 3 points: P max|f|^3 = 6.25e+233
    path = _plgf_with(tmp_path / "1e77.plgf", 1e77)
    assert dispatch(["popular", "--spec", spec_file, "--fn", path, "--points", "3"]) in (0, 2)
    assert json.loads(capsys.readouterr().out)["report"]["alpha"] > 1e74
    # a report that still holds a non-finite float (the U^3 norm of a 1e78
    # value is inf) ends in one error line, never in bare Infinity
    path = _plgf_with(tmp_path / "big.plgf", 1e78)
    refusal = {"tool": "popdiff", "error": "ValueError", "message": "Out of range float values are not JSON compliant"}
    out = tmp_path / "report.jsonl"
    with np.errstate(over="ignore"):
        for argv in (["gowers", "--fn", path, "--s", "3"], ["gowers", "--fn", path, "--s", "3", "--json", str(out)]):
            assert dispatch(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and [json.loads(line) for line in captured.err.splitlines()] == [refusal]
    assert not out.exists()
    # as a program, after numpy's overflow warning
    child = subprocess.run([sys.executable, "-m", "popdiff.cli", "gowers", "--fn", path, "--s", "3"],
                           env=_child_env(), capture_output=True, text=True, timeout=30)
    assert (child.returncode, child.stdout) == (1, "")
    assert "RuntimeWarning: overflow" in child.stderr and json.loads(child.stderr.splitlines()[-1]) == refusal


LAZY_LAYERS_SCRIPT = """
import json, sys, types
import popdiff.cli as cli
layers = ("popdiff.counterexample", "popdiff.threept")
# LazyLoader swaps a layer's class to the plain module type when its code starts running
state = lambda: [n in sys.modules and type(sys.modules[n]) is types.ModuleType for n in layers]
seen = {"import": [n in sys.modules for n in layers] + state()}
for argv in sys.argv[1:]:
    cli.dispatch(json.loads(argv))
    seen[argv] = state()
print(json.dumps(seen))
"""


def test_cli_runs_only_the_layers_its_subcommand_reads(tmp_path, scalar_spec_file):
    # counterexample and threept are registered at import but run only when a
    # subcommand reads them; each step runs in the same fresh interpreter
    runs = [["popular", "--spec", scalar_spec_file], ["gowers", "--s", "2"], ["cex", "core"]]
    child = subprocess.run([sys.executable, "-c", LAZY_LAYERS_SCRIPT, *map(json.dumps, runs)],
                           env=_child_env(), capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    seen = json.loads(child.stdout.splitlines()[-1])
    assert seen == {"import": [True, True, False, False], json.dumps(runs[0]): [False, False],
                    json.dumps(runs[1]): [False, False], json.dumps(runs[2]): [True, False]}


DRAWS_SCRIPT = """
import json, sys
from popdiff.cli import dispatch
codes = [dispatch(json.loads(argv)) for argv in sys.argv[1:]]
print(json.dumps({"codes": codes, "numpy.random": "numpy.random" in sys.modules}))
"""


def test_random_inputs_do_not_import_numpy_random(tmp_path, scalar_spec_file):
    # every seeded draw reads numpy's PCG64 stream through popdiff._pcg64; all
    # six runs share one fresh interpreter
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"kind": "Z_N", "N": 61, "M1": 2, "M2": 3}))
    runs = [["threept", "search", "--group", str(group)], ["threept", "decompose", "--group", str(group)],
            ["threept", "lift", "--N", "30", "--eps", "0.2"], ["popular", "--spec", scalar_spec_file],
            ["gowers", "--s", "2", "--p", "3", "--n", "3"], ["fnio", "random", "--out", str(tmp_path / "f.plgf")]]
    child = subprocess.run([sys.executable, "-c", DRAWS_SCRIPT, *map(json.dumps, runs)],
                           env=_child_env(), capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    seen = json.loads(child.stdout.splitlines()[-1])
    assert len(seen["codes"]) == len(runs) and set(seen["codes"]) <= {0, 2}
    assert seen["numpy.random"] is False


STARTUP_SCRIPT = """
import json, os, sys
__import__(sys.argv[1])
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task"))]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in Linux's /proc/self/task")
@pytest.mark.parametrize("module, preset, want", [("popdiff.cli", None, "1"), ("popdiff.cli", "2", "2"),
                                                  ("popdiff.analysis", None, None)])
def test_cli_import_starts_openblas_on_one_thread_unless_set(module, preset, want):
    # popdiff calls no BLAS, so importing the CLI sets OPENBLAS_NUM_THREADS=1
    # before numpy loads and the process holds no idle BLAS worker; a value the
    # user set is kept, and importing a library layer sets nothing
    env = {k: v for k, v in _child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    child = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, module],
                           env=env, capture_output=True, text=True, timeout=30)
    assert child.returncode == 0, child.stderr
    value, threads = json.loads(child.stdout)
    assert value == want
    if want == "1":
        assert threads == 1


def test_main_with_argv_leaves_the_gc_unfrozen(capsys, scalar_spec_file):
    # tests and perfbench/tracer.py call main(argv) in process; their objects stay collectable
    before = gc.get_freeze_count()
    assert cli.main(["check", "--spec", scalar_spec_file]) == 0
    assert gc.get_freeze_count() == before


FREEZE_SCRIPT = """
import gc, json, sys
import popdiff.cli as cli
sys.argv = ["popdiff", *sys.argv[1:]]
before = gc.get_freeze_count()
code = cli.main()
print(json.dumps([before, gc.get_freeze_count(), code]))
"""


def test_main_reading_sys_argv_freezes_import_time_objects(tmp_path, scalar_spec_file):
    # the CLI process itself (-m popdiff.cli, the console script) moves its
    # import-time objects out of the collector's generations before dispatch
    child = subprocess.run([sys.executable, "-c", FREEZE_SCRIPT, "check", "--spec", scalar_spec_file],
                           env=_child_env(), capture_output=True, text=True, timeout=30, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    before, after, code = json.loads(child.stdout.splitlines()[-1])
    assert (before, code) == (0, 0) and after > 0


@pytest.mark.parametrize("argv, span", [(["popular", "--spec", "@scalar"], None),
                                         (["cex", "core"], "popdiff.counterexample.core_expectation_table")])
def test_tracer_wraps_lazy_layers(tmp_path, scalar_spec_file, argv, span):
    # perfbench/tracer.py reads every layer from sys.modules right after
    # importing popdiff.cli; reading a lazy layer there runs it
    tracer = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spans_path = tmp_path / "spans.json"
    argv = [scalar_spec_file if a == "@scalar" else a for a in argv]
    child = subprocess.run([sys.executable, str(tracer), str(spans_path), "0", *argv],
                           env=_child_env(), capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    names = {s[0] for s in json.loads(spans_path.read_text())["spans"]}
    assert "popdiff.cli.main" in names and (span is None or span in names)


def test_fnio_info_refuses_an_overflowing_mean(capsys, tmp_path):
    # every value 1e307 on (F_5^2)^2: the mean is finite, but the float sum
    # of the values is not, so fsum used to end in an OverflowError traceback
    path = _plgf_with(tmp_path / "1e307.plgf", 1e307, fill=1e307)
    refusal = {"tool": "popdiff", "error": "TooLarge",
               "message": "p^(kn) max|f| = 6.25e+309 exceeds guard 1.79769e+308"}
    assert dispatch(["fnio", "info", "--fn", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and [json.loads(line) for line in captured.err.splitlines()] == [refusal]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-m", "popdiff.cli", "fnio", "info", "--fn", path],
                           env=env, capture_output=True, text=True, timeout=30)
    assert (child.returncode, child.stdout) == (1, "")
    assert [json.loads(line) for line in child.stderr.splitlines()] == [refusal]
    # a sum that stays in range still reports its mean
    path = _plgf_with(tmp_path / "1e305.plgf", 1e305, fill=1e305)
    assert dispatch(["fnio", "info", "--fn", path]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["mean"] == pytest.approx(1e305)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_one_point_grid_reports(capsys, spec_file, backend):
    # n = 0 is the one-point grid: the only difference is 0, so popular finds
    # no nonzero one (exit 2, argmax -1) and count reads f(0)^points
    one = {"exact": "1/1", "float": 1.0}[backend]
    for density, value in ((1.0, one), (0.0, {"exact": "0/1", "float": 0.0}[backend])):
        grid = ["--spec", spec_file, "--k", "2", "--n", "0", "--density", str(density), "--backend", backend]
        code, (line,) = run_lines(capsys, ["popular", *grid, "--full"])
        assert code == 2
        rep = line["report"]
        assert (rep["alpha"], rep["counts"], rep["hits"], rep["argmax"], rep["max_d"]) == (value, {"0": value}, 0, -1, None)
        for points in ("3", "4"):
            code, (line,) = run_lines(capsys, ["count", *grid, "--d", "0", "--points", points])
            assert code == 0 and line["report"] == {"beta": value, "d": 0, "points": int(points)}
        assert dispatch(["count", *grid, "--d", "1"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "DimensionMismatch"


def test_recursive_gowers_guard(capsys, tmp_path):
    # the recursion visits p^((s-1)kn) (shift tuple, point) entries
    f = GridFunction(3, 1, 2, np.linspace(-1, 1, 9), FLOAT)
    assert gowers_norm(f, 3, guard=81) > 0
    with pytest.raises(TooLarge, match="= 81 exceeds guard 80"):
        gowers_norm(f, 3, guard=80)
    # U^5 at P = 625 would run for hours; it is refused before any work
    path = tmp_path / "f625.plgf"
    write_grid_function(GridFunction(5, 1, 4, np.linspace(-1, 1, 625), FLOAT), path)
    argv = ["gowers", "--fn", str(path), "--s", "5"]
    # a child process first, so that a hang fails the test instead of stalling it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-m", "popdiff.cli", *argv], env=env, capture_output=True, text=True, timeout=30)
    assert child.returncode == 1 and child.stdout == ""
    assert json.loads(child.stderr)["error"] == "TooLarge"
    t0 = time.perf_counter()
    assert dispatch(argv) == 1
    assert time.perf_counter() - t0 < 2.0
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert captured.out == "" and err["error"] == "TooLarge"
    assert f"= {625**4} exceeds guard {10**8}" in err["message"]


def test_check_failed_exits_2(capsys, monkeypatch):
    # a violated run-time check is a mathematical failure (exit 2), not a crash
    import popdiff.counterexample as cex

    monkeypatch.setattr(cex, "_behrend_set", lambda L: [0, 1, 2])
    assert dispatch(["cex", "hypergraph", "--L", "5", "--method", "behrend"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CheckFailed" and "3-AP-free" in err["message"]


MISSING_OR_MALFORMED = [
    # @name stands for the path of the input file written under that name
    (["threept", "search"], ["--group"]),
    (["threept", "bohr"], ["--group"]),
    (["fnio", "info"], ["--fn"]),
    (["fnio", "random"], ["--out"]),
    (["fnio", "roundtrip", "--fn", "@plgf"], ["--out"]),
    (["check", "--spec", "@p5"], ["--spec", "@p5", "'k'"]),
    (["subspaces", "--spec", "@p5"], ["--spec", "@p5", "'k'"]),
    (["popular", "--spec", "@p5"], ["--spec", "@p5", "'k'"]),
    (["check", "--spec", "@pair"], ["--spec", "@pair"]),
    (["subspaces", "--spec", "@pair"], ["--spec", "@pair"]),
    (["popular", "--spec", "@pair"], ["--spec", "@pair"]),
    (["equidist", "--factor", "@p5"], ["--factor", "@p5", "'n'"]),
    (["threept", "count", "--group", "@pair"], ["--group", "@pair"]),
    (["threept", "bohr", "--group", "@kind-foo"], ["--group", "@kind-foo", "unknown group kind 'foo'"]),
    (["check", "--spec", "@float-k"], ["--spec", "@float-k", "'k' must be an integer"]),
    (["threept", "count", "--group", "@zn", "--S", "[[1]]"], ["--S"]),
    (["equidist", "--factor", "@factor", "--J", "[1]"], ["--J"]),
    (["cex", "eight-tuple", "--a", "{}"], ["--a"]),
    (["cex", "dress", "--n", "0"], ["n = 0"]),
    (["cex", "report", "--n", "2", "--L", "7", "--seeds", "0"], ["seeds"]),
    (["threept", "bohr", "--group", "@zn", "--S", "{}"], ["--S"]),
    (["threept", "lift", "--N", "30", "--A", "@points2d"], ["M1 = 1", "2 x 2"]),
    (["threept", "lift", "--N", "30", "--A", "@ragged"], ["point [3, 4]"]),
    (["threept", "lift", "--N", "0", "--A", "@ragged"], ["N = 0"]),
    (["threept", "lift", "--N", "40", "--eps", "0.3", "--A", "@outside"], ["point 61", "N = 40"]),
    (["check", "--spec", "@k2-1x1"], ["--spec", "@k2-1x1", "k x k"]),
    (["threept", "count", "--group", "@group-k2-1x1"], ["--group", "@group-k2-1x1", "2 x 2"]),
    (["threept", "lift", "--N", "20", "--eps", "0"], ["epsilon = 0.0"]),
    (["threept", "lift", "--eps", "-1"], ["epsilon = -1.0"]),
    (["threept", "lift", "--eps", "-0.5"], ["epsilon = -0.5"]),
    (["threept", "lift", "--eps", "nan"], ["epsilon = nan"]),
    (["threept", "lift", "--eps", "inf"], ["epsilon = inf"]),
    (["popular", "--spec", "@scalar", "--eps", "inf"], ["epsilon = inf"]),
    (["popular", "--spec", "@scalar", "--eps", "1e400"], ["epsilon = inf"]),
    (["threept", "bohr", "--group", "@zn", "--delta", "inf"], ["delta = inf"]),
    (["threept", "count", "--group", "@zn", "--delta", "inf"], ["delta = inf"]),
    (["threept", "lift", "--N", "10", "--A", "@A-float"], ["--A", "@A-float"]),
    (["threept", "lift", "--N", "10", "--A", "@A-str"], ["--A", "@A-str"]),
    (["threept", "lift", "--N", "10", "--A", "@A-object"], ["--A", "@A-object"]),
    (["threept", "lift", "--N", "10", "--A", "@A-scalar"], ["--A", "@A-scalar"]),
    (["threept", "lift", "--N", "10", "--A", "@A-bool"], ["--A", "@A-bool"]),
    (["threept", "decompose", "--group", "@zn", "--eps", "0"], ["epsilon = 0.0"]),
    (["threept", "decompose", "--group", "@zn", "--eps", "-1"], ["epsilon = -1.0"]),
    (["threept", "decompose", "--group", "@zn", "--eps", "1e-300"], ["epsilon = 1e-300"]),
    (["threept", "decompose", "--group", "@zn", "--eps", "1e-154"], ["epsilon = 1e-154"]),
    (["threept", "decompose", "--group", "@zn", "--eps", "inf"], ["epsilon = inf"]),
    (["threept", "search", "--group", "@zn", "--eps", "inf"], ["epsilon = inf"]),
    (["threept", "search", "--group", "@zn", "--eps", "nan"], ["epsilon = nan"]),
    (["popular", "--spec", "@scalar", "--backend", "float", "--eps", "inf"], ["epsilon = inf"]),
    (["popular", "--spec", "@scalar", "--density", "nan"], ["density = nan"]),
    (["threept", "search", "--group", "@zn", "--density", "nan"], ["density = nan"]),
    (["threept", "search", "--group", "@zn", "--density", "inf"], ["density = inf"]),
    (["threept", "count", "--group", "@zn", "--density", "inf"], ["density = inf"]),
    (["threept", "lift", "--density", "inf"], ["density = inf"]),
    (["fnio", "random", "--out", "@out", "--density", "inf"], ["density = inf"]),
    # a non-finite float flag that the run does not read is refused too: config echoes it
    (["gowers", "--s", "2", "--fn", "@plgf", "--density", "inf"], ["density = inf"]),
    (["threept", "lift", "--N", "10", "--A", "@A-ints", "--density", "nan"], ["density = nan"]),
    (["threept", "search", "--group", "@zn", "--delta", "inf"], ["delta = inf"]),
    (["threept", "bohr", "--group", "@zn", "--eps", "inf"], ["epsilon = inf"]),
    (["count", "--spec", "@scalar", "--d", "1", "--k", "-1"], ["k = -1"]),
    (["count", "--spec", "@scalar", "--d", "1", "--n", "-1"], ["n = -1"]),
    (["popular", "--spec", "@scalar", "--k", "-1"], ["k = -1"]),
    (["popular", "--spec", "@scalar", "--n", "-1"], ["n = -1"]),
    (["gowers", "--s", "2", "--k", "-1"], ["k = -1"]),
    (["gowers", "--s", "2", "--n", "-1"], ["n = -1"]),
    (["fnio", "random", "--out", "@out", "--k", "-1"], ["k = -1"]),
    (["fnio", "random", "--out", "@out", "--n", "-1"], ["n = -1"]),
    (["equidist", "--mode", "abstract", "--factor", "@factor", "--k", "-1"], ["k = -1"]),
    (["equidist", "--mode", "tuple", "--factor", "@factor", "--k", "2"], ["--k 2", "--J [[2]]", "1 x 1"]),
]


@pytest.mark.parametrize("argv, names", [pytest.param(a, n, id=" ".join(a)) for a, n in MISSING_OR_MALFORMED])
def test_missing_or_malformed_input_is_one_error_line(capsys, tmp_path, argv, names):
    files = {"p5": {"p": 5}, "pair": [1, 2], "zn": {"kind": "Z_N", "N": 61, "M1": 2, "M2": 3}, "kind-foo": {"kind": "foo"},
             "scalar": {"p": 5, "k": 1, "M1": [[1]], "M2": [[2]]}, "float-k": {"p": 5, "k": 1.0, "M1": [[1]], "M2": [[2]]},
             "points2d": [[1, 2], [3, 4], [5, 6]], "ragged": [[1], [3, 4]], "outside": [61, 21, 22],
             "A-float": [1, 2.5], "A-str": ["a", 3], "A-object": {"x": 1}, "A-scalar": 5, "A-bool": [True, 3],
             "A-ints": [1, 2, 3],
             "k2-1x1": {"p": 5, "k": 2, "M1": [[1]], "M2": [[2]]},
             "group-k2-1x1": {"kind": "vector", "p": 3, "k": 2, "n": 2, "M1": [[1]], "M2": [[2]]},
             "factor": {"p": 3, "n": 3, "b1": [[1, 0, 0]], "b2": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], "b3": []}}
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    paths["plgf"], paths["out"] = str(tmp_path / "f.plgf"), str(tmp_path / "out.plgf")
    write_grid_function(GridFunction(3, 1, 1, np.array([0.0, 1.0, 0.5]), FLOAT), paths["plgf"])
    resolve = lambda a: paths[a[1:]] if a.startswith("@") else a
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning before the error line fails the test
        code = dispatch([resolve(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["tool"] == "popdiff"
    for name in names:
        assert resolve(name) in err["message"]
    assert not os.path.exists(paths["out"])  # a refused fnio random writes nothing


@pytest.mark.parametrize("n", ["1", "4"])
def test_cex_dress_refuses_a_single_seed(capsys, n):
    # one seed has no standard error (at n = 4 it used to read 0 and fail the
    # window); the refusal is one JSON error line
    assert dispatch(["cex", "dress", "--n", n, "--L", "5", "--seeds", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err) == {
        "tool": "popdiff", "error": "ValueError",
        "message": f"n must be at least 1 and seeds at least 2, got n = {n}, seeds = 1"}


@pytest.mark.parametrize("n", ["1", "3"])
def test_cex_dress_window_has_a_resolution_floor(capsys, n):
    # every seed measures the same alpha (0 at n = 1, 0.002496 at n = 3), so
    # its SE is 0; the window stays 3 / (5^(2n) sqrt(seeds)) wide
    code, lines = run_lines(capsys, ["cex", "dress", "--n", n, "--L", "5", "--seeds", "3"])
    alpha = lines[0]["report"]["alpha"]
    assert code == 0 and alpha["se"] == 0.0 and alpha["within"] is True
    assert all(d["within"] for d in lines[0]["report"]["differences"])


# The argv grammar: each base argv, with the common flags, and either every
# numeric flag's value replaced in turn by one of SWEEP, one flag dropped with
# its value, or one unknown flag added. @name is an input file.
GRAMMAR = [
    "check --spec @spec",
    "subspaces --spec @spec",
    "count --spec @spec --d 3 --points 4 --p 5 --k 1 --n 2 --density 0.5",
    "popular --spec @spec --eps 0.05 --points 3 --p 5 --k 1 --n 2 --density 0.5 --backend float",
    "gowers --s 2 --p 3 --k 1 --n 2 --density 0.5",
    "equidist --mode abstract --factor @factor --k 1",
    "equidist --mode tuple --factor @factor --J [[2]]",
    "cex core",
    "cex eight-tuple --n 3",
    "cex hypergraph --L 5",
    "cex dress --n 2 --L 5 --seeds 2",
    "cex assemble --n 2 --L 5 --gamma 1 --seed-index 0",
    "cex report --n 2 --L 5 --gamma 1 --seeds 2",
    "threept bohr --group @group --delta 0.25",
    "threept count --group @group --delta 0.25 --density 0.45",
    "threept decompose --group @group --eps 0.25",
    "threept search --group @group --eps 0.1 --density 0.45",
    "threept lift --N 20 --eps 0.2 --M1 1 --M2 2 --density 0.45",
    "fnio random --out @out --p 3 --k 1 --n 2 --density 0.5",
]
SWEEP = ["-1", "-0.5", "0", "1", "2", "nan"]


def _numeric_flag_positions(argv):
    """Indices of the values of argv's numeric flags."""
    positions = []
    for i in range(1, len(argv)):
        try:
            float(argv[i])
        except ValueError:
            continue
        if argv[i - 1].startswith("--"):
            positions.append(i)
    return positions


@st.composite
def grammar_argvs(draw):
    argv = draw(st.sampled_from(GRAMMAR)).split() + ["--guard", "100000000", "--seed", "0"]
    flags = [i for i, a in enumerate(argv) if a.startswith("--")]
    edit = draw(st.sampled_from(["sweep", "drop", "unknown"]))
    if edit == "sweep":
        argv[draw(st.sampled_from(_numeric_flag_positions(argv)))] = draw(st.sampled_from(SWEEP))
    elif edit == "drop":
        i = draw(st.sampled_from(flags))
        del argv[i:i + 2]  # every flag of GRAMMAR takes a value
    else:
        i = draw(st.sampled_from(flags + [len(argv)]))
        argv[i:i] = ["--no-such-flag"] + draw(st.sampled_from([[], ["1"]]))
    return argv


@pytest.fixture(scope="module")
def grammar_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grammar")
    docs = {"spec": {"p": 5, "k": 1, "M1": [[1]], "M2": [[2]]}, "group": {"kind": "Z_N", "N": 61, "M1": 2, "M2": 3},
            "factor": {"p": 3, "n": 2, "b1": [[1, 0]], "b2": [[[1, 0], [0, 1]]], "b3": [[[0, 1], [2, 0]]]},
            "rotated": {"p": 5, "k": 2, "M1": [[1, 0], [0, 1]], "M2": [[0, -1], [1, 0]]},
            # documents that must be refused: a float where an integer belongs, a list for an object,
            # an unknown group kind, and a singular M2, which has no spectral test
            "bad-spec": {"p": 5, "k": 1, "M1": [[1.5]], "M2": [[2]]},
            "bad-group": {"kind": "Z_N", "N": 61.9, "M1": 1.7, "M2": 2},
            "bad-factor": {"p": 3, "n": 2, "b1": [[1.5, 0]], "b2": [[[1, 0], [0, 1]]], "b3": []},
            "bad-list": [[1, 0], [0, 1]], "bad-kind": {"kind": "foo", "p": 3, "n": 2, "M1": [[1]], "M2": [[2]]},
            "bad-kind-bare": {"kind": "foo"},
            "bad-singular-m2": {"p": 5, "k": 2, "M1": [[1, 0], [0, 1]], "M2": [[1, 2], [2, 4]]}}
    # finite PLGF values on (F_5^2)^2 whose pattern sums, or whose plain sum, overflow
    paths = {"out": str(tmp / "out.plgf"), "fn-1e78": _plgf_with(tmp / "fn-1e78.plgf", 1e78),
             "fn-1e200": _plgf_with(tmp / "fn-1e200.plgf", 1e200),
             "fn-1e307": _plgf_with(tmp / "fn-1e307.plgf", 1e307, fill=1e307)}
    for name, doc in docs.items():
        paths[name] = str(tmp / f"{name}.json")
        (tmp / f"{name}.json").write_text(json.dumps(doc))
    paths["bad-truncated"] = str(tmp / "bad-truncated.json")
    (tmp / "bad-truncated.json").write_text(json.dumps(docs["spec"])[:-5])
    return paths


class _RanTooLong(BaseException):
    """Raised by SIGALRM in a CLI run; a BaseException, so no handler swallows it."""


def _run_with_alarm(argv, seconds=10):
    """(exit code, stdout, stderr) of dispatch(argv) in-process, or _RanTooLong."""
    def ring(signum, frame):
        raise _RanTooLong()

    previous = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            code = dispatch(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@given(grammar_argvs())
@example(["threept", "lift", "--N", "20", "--eps", "0"])
@example(["threept", "lift", "--eps", "-1"])
@example(["threept", "lift", "--eps", "-0.5"])
@example(["threept", "decompose", "--group", "@group", "--eps", "0"])
@example(["count", "--spec", "@spec", "--d", "1", "--k", "-1"])
@example(["popular", "--spec", "@spec", "--n", "-1"])
@example(["gowers", "--s", "2", "--k", "-1"])
@example(["fnio", "random", "--out", "@out", "--n", "-1"])
@example(["equidist", "--mode", "abstract", "--factor", "@factor", "--k", "-1"])
@example(["popular", "--spec", "@rotated", "--fn", "@fn-1e78", "--full"])
@example(["popular", "--spec", "@rotated", "--fn", "@fn-1e200"])
@example(["popular", "--spec", "@rotated", "--k", "2", "--n", "0"])
@example(["fnio", "info", "--fn", "@fn-1e307"])
@example(["check", "--spec", "@bad-spec"])
@example(["popular", "--spec", "@bad-spec"])
@example(["threept", "bohr", "--group", "@bad-group"])
@example(["equidist", "--factor", "@bad-factor"])
@example(["check", "--spec", "@bad-truncated"])
@example(["threept", "search", "--group", "@bad-list"])
@example(["threept", "bohr", "--group", "@bad-kind"])
@example(["threept", "bohr", "--group", "@bad-kind-bare"])
@example(["check", "--spec", "@bad-singular-m2"])
@example(["equidist", "--mode", "tuple", "--J", "[[2]]", "--guard", "100000000", "--seed", "0"])
@example(["cex", "report", "--n", "2", "--L", "5", "--no-such-flag", "1", "--gamma", "1", "--seeds", "2"])
@settings(max_examples=180, deadline=None)
def test_cli_argv_grammar_never_hangs_or_raises(grammar_files, argv):
    # one numeric flag of one subcommand set to a sweep value, one flag
    # dropped, or one unknown flag added: the run ends in a report (exit 0
    # or 2), one JSON error line (exit 1), or argparse's usage text (exit 1),
    # within 10 s and with no exception escaping; a
    # refused @bad- document always ends in one JSON error line
    refused = any(a.startswith("@bad-") for a in argv)
    argv = [grammar_files[a[1:]] if a.startswith("@") else a for a in argv]
    try:
        code, out, err = _run_with_alarm(argv)
    except _RanTooLong:
        pytest.fail(f"popdiff {' '.join(argv)} ran past 10 s")
    assert not refused or (code == 1 and out == "" and not err.startswith("usage:")), argv
    if code in (0, 2) and out:
        assert len(out.splitlines()) == 1 and json.loads(out)["tool"] == "popdiff" and err == "", argv
    elif code == 1 and err.startswith("usage:"):
        assert out == "" and "error:" in err, argv
    else:
        assert code in (1, 2) and out == "", argv
        (line,) = err.splitlines()
        assert json.loads(line)["tool"] == "popdiff", argv
        assert code == 1 or json.loads(line)["error"] == "CheckFailed", argv

"""Tests of the benchmark itself: self-time arithmetic, the tracer, each
oracle against a perturbed report, and a tiny smoke run of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def cli_line(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "popdiff.cli", *argv], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def perturbed(line: dict, edit) -> dict:
    out = copy.deepcopy(line)
    edit(out["report"])
    return out


# -- self time ---------------------------------------------------------------

MAIN, SEARCH, COUNT, INV = (f"popdiff.{m}" for m in (
    "cli.main", "analysis.popular_search", "analysis.pattern_count", "ffalg.mat_inverse"))
NEST = [
    Span(MAIN, 0.0, 10.0, -1, 0, None),
    Span(SEARCH, 1.0, 4.0, 0, 0, None),
    Span(COUNT, 2.0, 3.0, 1, 0, None),
    Span(COUNT, 3.0, 3.5, 1, 0, None),
    Span(INV, 5.0, 9.0, 0, 0, "Singular"),
]


def test_self_time_subtracts_direct_children():
    got = tracer.self_times(NEST)
    assert got == {MAIN: (1, 3.0), SEARCH: (1, 1.5), COUNT: (2, 1.5), INV: (1, 4.0)}
    assert sum(t for _, t in got.values()) == 10.0


def test_layer_metrics_module_self_times_sum_to_main_span():
    dump = {"spans": [list(s) for s in NEST], "counters": {"popdiff.analysis.translate.elements": 7}}
    metrics, main_s = tracer.layer_metrics([dump, dump])
    assert main_s == 20.0
    assert sum(metrics[f"popdiff.{m}.self_s"] for m in tracer.MODULES) == pytest.approx(main_s)
    assert sum(metrics[f"popdiff.{m}.share"] for m in tracer.MODULES) == pytest.approx(1.0)
    assert metrics["popdiff.analysis.self_s"] == 6.0
    assert metrics[f"{COUNT}.calls"] == 4
    assert metrics["popdiff.ffalg.mat_inverse.raised"] == 2
    assert metrics["popdiff.counterexample.affine_accept_ratio"] == 0.0
    assert metrics["popdiff.analysis.translate.elements"] == 14
    assert set(metrics) | {"trace_overhead_ratio"} == set(tracer.LAYER_METRICS)


# -- tracer --------------------------------------------------------------------


def test_tracer_wraps_every_namespace_records_errors_and_restores():
    from popdiff import _grid, analysis, errors, ffalg, threept

    original = _grid.linear_perm
    t = tracer.Tracer(iteration=3)
    with t:
        assert analysis.linear_perm is threept.linear_perm is _grid.linear_perm is not original
        singular = ffalg.FpMatrix.from_rows([[1, 2], [2, 4]], 5)
        with pytest.raises(errors.Singular):
            ffalg.mat_inverse(singular)
        _grid.linear_perm(3, 1, 2, [[2]])
        _grid.linear_perm(3, 1, 2, [[2]])
    assert analysis.linear_perm is threept.linear_perm is _grid.linear_perm is original
    spans = [Span(*s) for s in t.dump()["spans"]]
    inv = [s for s in spans if s.name == INV]
    assert inv and inv[0].error == "Singular" and inv[0].iteration == 3
    assert any(s.name == "popdiff.ffalg.rref" and s.parent == spans.index(inv[0]) for s in spans)
    assert t.dump()["counters"]["popdiff._grid.linear_perm.distinct"] == 1


# -- oracles ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_calls(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("smoke")
    return {name: workloads.build(name, 5, workdir / name, size="smoke") for name in workloads.NAMES}


def _checked(call) -> dict:
    line = cli_line(call.argv)
    assert call.check(line) == []
    return line


def test_popular_oracles_reject_perturbed_reports(smoke_calls):
    exact = _checked(smoke_calls["popular-exact"][0])
    edits = [
        lambda r: r["counts"].update({"3": "1/2"}),
        lambda r: r.update(alpha="1/3"),
        lambda r: r.update(argmax=r["argmax"] + 1),
        lambda r: r.update(hits=r["hits"] - 1),
        lambda r: r.update(threshold="0/1"),
    ]
    for edit in edits:
        assert smoke_calls["popular-exact"][0].check(perturbed(exact, edit))
    floaty = _checked(smoke_calls["float-sweep"][0])
    assert smoke_calls["float-sweep"][0].check(perturbed(floaty, lambda r: r["counts"].update({"2": r["counts"]["2"] + 1e-6})))
    assert smoke_calls["float-sweep"][0].check(perturbed(floaty, lambda r: r.update(alpha=r["alpha"] + 1e-6)))


def test_threept_oracles_reject_perturbed_reports(smoke_calls):
    for call in smoke_calls["float-sweep"][1:]:
        line = _checked(call)
        assert call.check(perturbed(line, lambda r: r.update(beta_max=r["beta_max"] + 1e-6)))
        assert call.check(perturbed(line, lambda r: r.update(hits=r["hits"] + 1)))
        assert call.check(perturbed(line, lambda r: r.update(argmax=r["argmax"] + 1)))


def test_gowers_oracle_rejects_perturbed_norm(smoke_calls):
    call = smoke_calls["gowers-u3"][0]
    line = _checked(call)
    assert call.check(perturbed(line, lambda r: r.update(norm=r["norm"] * (1 + 1e-6))))


def test_gowers_oracle_matches_direct_definition():
    import numpy as np

    v = np.random.default_rng(1).random(9)
    p, m = 3, 2
    idx = lambda a, b: workloads.radix_add(a, b, (p, p))  # noqa: E731
    total = 0.0
    for h1 in range(9):
        for h2 in range(9):
            for h3 in range(9):
                x = np.arange(9)
                terms = [v[x], v[idx(x, h1)], v[idx(x, h2)], v[idx(x, h3)], v[idx(idx(x, h1), h2)],
                         v[idx(idx(x, h1), h3)], v[idx(idx(x, h2), h3)], v[idx(idx(idx(x, h1), h2), h3)]]
                total += np.prod(terms, axis=0).mean()
    assert workloads.gowers_u3(v, p, m) == pytest.approx((total / 729) ** (1 / 8), abs=1e-12)


def test_cex_oracle_rejects_perturbed_reports():
    reference = workloads.load_cex_reference()
    assert len(reference) == workloads.CEX_REFERENCE_SEEDS
    line = {"report": reference["0"]}
    _, check = workloads.cex_oracle(reference["0"])
    assert check(line) == []
    assert check(perturbed(line, lambda r: r["certified"].update(core_sup="74/3125")))
    assert check(perturbed(line, lambda r: r["monte_carlo"].update(mean_alpha_f=r["monte_carlo"]["mean_alpha_f"] + 1e-6)))
    assert check(perturbed(line, lambda r: r.update(seeds=4)))
    _, certified_only = workloads.cex_oracle(None)
    assert certified_only(perturbed(line, lambda r: r["certified"].update(unique_triangles=False)))


def test_cex_reference_call_matches_recorded_seed_commit_report(tmp_path):
    call = workloads.build("cex-report", 0, tmp_path)[0]
    assert call.argv == workloads.cex_argv(0)
    _checked(call)


# -- smoke runs ------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run(name):
    plain = run.measure(name, seed=2, seconds=0, trace=False, size="smoke")
    assert plain.failed == 0 and set(plain.metrics) == set(run.E2E_METRICS)
    assert all(v > 0 for v in plain.metrics.values())
    assert plain.metrics["setup_s"] == pytest.approx(plain.metrics["wall_s"] - plain.metrics["report_s"])
    speed = plain.metrics["wall_s"] / plain.raw["wall_s"]
    assert plain.metrics["cpu_s"] == pytest.approx(plain.raw["cpu_s"] * speed)
    assert plain.metrics["peak_rss_mb"] == plain.raw["peak_rss_mb"]
    traced = run.measure(name, seed=2, seconds=0, trace=True, size="smoke")
    assert traced.failed == 0 and set(traced.metrics) == set(tracer.LAYER_METRICS)
    assert sum(traced.metrics[f"popdiff.{m}.share"] for m in tracer.MODULES) == pytest.approx(1.0)
    assert traced.metrics["popdiff.cli.main.calls"] == (3 if name == "float-sweep" else 1)


def test_child_peak_rss_is_its_own_not_the_benchmark_process_peak():
    import numpy as np

    ballast = np.ones(40_000_000)  # 320 MB high-water mark in this process
    ballast[::4096] = 2.0
    plain = run.measure("gowers-u3", seed=2, seconds=0, trace=False, size="smoke")
    del ballast
    assert plain.failed == 0 and plain.metrics["peak_rss_mb"] < 200


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.LAYER_METRICS

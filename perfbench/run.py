"""popdiff benchmark: fixed CLI workloads timed end to end, every output
checked by an independent oracle, and a separate traced run for per-layer
numbers.

    python3 perfbench/run.py                 # every workload, untraced and traced
    python3 perfbench/run.py --workload cex-report --seed 3 --seconds 10 --trace 0

Run from the repository root or anywhere else; popdiff is imported from the
``src`` directory next to ``perfbench``. Each iteration runs the workload's
CLI calls once, one child process at a time, closed loop; iterations run
while another fits in --seconds (at least one runs). End-to-end metrics are
medians over iterations of per-iteration values:

- wall_s: process start to exit, summed over the calls
- report_s: the CLI's own wall_time_s (handler time), summed
- setup_s: wall_s - report_s (interpreter start, import, argparse, emission)
- cpu_s: children's user + system time from wait4, summed
- peak_rss_mb: the largest child max RSS (children are forked by launcher.py,
  so this process's own memory does not leak into it)

The four times are normalised to a reference speed: each iteration's are
multiplied by PROBE_REF_S over the median time of a fixed pure-Python probe
run just before and after each of its calls. On a shared 2-vCPU VM (Xeon, Python 3.11) a core runs
up to 1.6x slower for seconds to minutes at a time under other tenants'
load; the probe does not touch popdiff, so the factor follows the machine
and not the code. Raw medians are printed alongside.

With --trace 1 each iteration runs the calls untraced and then traced (see
tracer.py), and the per-layer metrics are medians over traced iterations.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit code 1 when any call fails (wrong exit
code, crash, timeout or an output its oracle rejects), 2 when popdiff's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

E2E_METRICS = {"wall_s": "s", "report_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
TIMES = ("wall_s", "report_s", "setup_s", "cpu_s")
# The probe's time on an idle core of the reference box (2-core Xeon VM, Python 3.11).
PROBE_REF_S = 0.015
CALL_TIMEOUT_S = 40  # a normal call takes under 6 s
RUN_LIMIT_S = 150  # no call outlives this, counted from the start of a measurement


@dataclass
class CallResult:
    wall_s: float
    report_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]
    spans: dict | None = None  # tracer dump of a traced call
    probes: tuple[float, ...] = ()  # probe times taken just before and after the call


class Launcher:
    """A launcher.py process that forks the CLI children; use as a context
    manager. Leaving on an exception kills it together with a running child."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, start_new_session=True)
        return self

    def run(self, argv: list[str], env: dict, stdout: Path, stderr: Path, timeout: float) -> dict:
        request = {"argv": argv, "env": env, "cwd": str(ROOT), "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(reply)

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)  # the launcher's session holds the running child too
            except ProcessLookupError:
                pass
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_call(call: workloads.Call, workdir: Path, launcher: Launcher, trace_iteration: int | None = None,
             timeout: float = CALL_TIMEOUT_S) -> CallResult:
    """Run one CLI call as a child process, killed after `timeout` seconds,
    and check its output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    spans_path = workdir / "spans.json"
    if trace_iteration is None:
        cmd = [sys.executable, "-m", "popdiff.cli", *call.argv]
    else:
        spans_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), str(trace_iteration), *call.argv]
    out_path = workdir / "stdout.txt"
    used = launcher.run(cmd, env, out_path, workdir / "stderr.txt", timeout)
    code, wall, cpu = used["exit"], used["wall_s"], used["cpu_s"]
    rss_mb = used["maxrss_kib"] / 1024
    lines = out_path.read_text().splitlines()
    try:
        line = json.loads(lines[-1])
        report_s = float(line["wall_time_s"])
    except (IndexError, ValueError, KeyError, TypeError):
        err = (workdir / "stderr.txt").read_text().strip().splitlines()
        return CallResult(wall, 0.0, cpu, rss_mb, [f"{call.label}: exit {code}, no report line; {err[-1:]}"])
    problems = [] if code == call.expect_exit else [f"{call.label}: exit {code}, expected {call.expect_exit}"]
    problems += call.check(line)
    spans = json.loads(spans_path.read_text()) if trace_iteration is not None else None
    return CallResult(wall, report_s, cpu, rss_mb, problems, spans)


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch popdiff."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def iteration_metrics(results: list[CallResult]) -> dict[str, float]:
    """Raw end-to-end values of one iteration."""
    wall = sum(r.wall_s for r in results)
    report = sum(r.report_s for r in results)
    return {
        "wall_s": wall,
        "report_s": report,
        "setup_s": wall - report,
        "cpu_s": sum(r.cpu_s for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }


def speed(results: list[CallResult]) -> float:
    """PROBE_REF_S over the median probe time around an iteration's calls."""
    return PROBE_REF_S / statistics.median(p for r in results for p in r.probes)


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it, if any
    lies above the median."""
    n = len(values)
    q = 100 * (n - 10) // n
    if q <= 50:
        return None
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


@dataclass
class Measurement:
    name: str
    attempted: int
    problems: list[str]
    samples: dict[str, list[float]]  # metric -> per-iteration values
    metrics: dict[str, float]
    units: dict[str, str]
    raw: dict[str, float] | None = None  # medians of the end-to-end values before normalisation

    @property
    def failed(self) -> int:
        return len(self.problems)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> Measurement:
    """Run one workload for `seconds`, untraced, or with trace also traced."""
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    start = time.perf_counter()

    def timeout() -> float:
        return max(1.0, min(CALL_TIMEOUT_S, start + RUN_LIMIT_S - time.perf_counter()))

    def probed(call: workloads.Call, trace_iteration: int | None = None) -> CallResult:
        before = probe()
        result = run_call(call, workdir, launcher, trace_iteration, timeout())
        result.probes = (before, probe())
        return result

    try:
        calls = workloads.build(name, seed, workdir, size)
        plain: list[list[CallResult]] = []
        traced: list[list[CallResult]] = []
        deadline = time.perf_counter() + seconds
        last = 0.0  # duration of the latest iteration; none starts that would end past the deadline
        with Launcher() as launcher:
            while not plain or time.perf_counter() + last < deadline:
                began = time.perf_counter()
                plain.append([probed(c) for c in calls])
                if trace:
                    traced.append([probed(c, len(traced)) for c in calls])
                if any(r.problems for r in plain[-1] + (traced[-1] if trace else [])):
                    break  # the run is already incorrect; do not spend the rest of it
                last = time.perf_counter() - began
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    problems = []
    attempted = 0
    for results in plain + traced:
        attempted += len(results)
        # a call that failed its oracle counts once, whatever its number of problems
        problems += [r.problems[0] for r in results if r.problems]
    if not trace:
        ok = [rs for rs in plain if not any(r.problems for r in rs)]
        raw = [iteration_metrics(rs) for rs in ok]
        rows = [{k: v * speed(rs) if k in TIMES else v for k, v in row.items()} for row, rs in zip(raw, ok)]
        samples = {k: [row[k] for row in rows] for k in E2E_METRICS}
        return Measurement(name, attempted, problems, samples, medians(rows), dict(E2E_METRICS), medians(raw))

    layer_rows = []
    overheads = []
    for untraced, rs in zip(plain, traced):
        if not any(r.problems for r in untraced + rs):
            row, root_s = tracer.layer_metrics([r.spans for r in rs])
            layer_rows.append(row)
            # the traced calls directly follow their untraced twins, so machine drift mostly cancels
            overheads.append(root_s / sum(r.report_s for r in untraced) - 1)
    metrics = medians(layer_rows)
    if overheads:
        metrics["trace_overhead_ratio"] = statistics.median(overheads)
    samples = {k: [row[k] for row in layer_rows] for k in metrics if k != "trace_overhead_ratio"}
    units = {k: unit for k, (unit, _) in tracer.LAYER_METRICS.items()}
    return Measurement(name, attempted, problems, samples, metrics, units)


def stamp() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {"commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}


def describe(m: Measurement) -> list[str]:
    """Human-readable lines: each metric with its unit and sample count."""
    lines = [f"{m.name}: {m.attempted} calls, {m.failed} failed, fail_ratio {m.failed / m.attempted:.4f}"]
    lines += [f"  problem: {p}" for p in m.problems[:10]]
    for key, value in m.metrics.items():
        values = m.samples.get(key, [])
        notes = [f"median of {len(values)}"] if values else []
        t = tail(values) if values else None
        if t:
            notes.append(f"p{t[0]} {t[1]:.6g}")
        if m.raw and key in TIMES:
            notes.append(f"raw median {m.raw[key]:.6g}")
        lines.append(f"  {key} = {value:.6g} {m.units[key]} {'(' + '; '.join(notes) + ')' if notes else ''}".rstrip())
    return lines


def result_line(ms: list[Measurement], prefix: bool) -> str:
    metrics = {}
    for m in ms:
        for key, value in m.metrics.items():
            metrics[f"{m.name}.{key}" if prefix else key] = {"value": value, "unit": m.units[key]}
    return json.dumps({
        "correct": all(m.failed == 0 for m in ms),
        "attempted": sum(m.attempted for m in ms),
        "failed": sum(m.failed for m in ms),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("all",) + workloads.NAMES, default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics (ignored with --workload all, which does both)")
    args = ap.parse_args(argv)
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "popdiff" / "cli.py").is_file():
        print(f"popdiff sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"stamp": stamp()}))
    if args.workload == "all":
        ms = [measure(name, args.seed, args.seconds, trace) for name in workloads.NAMES for trace in (False, True)]
    else:
        ms = [measure(args.workload, args.seed, args.seconds, bool(args.trace))]
    for m in ms:
        print("\n".join(describe(m)))
    print(result_line(ms, prefix=args.workload == "all"))
    return 0 if all(m.failed == 0 for m in ms) else 1


if __name__ == "__main__":
    raise SystemExit(main())

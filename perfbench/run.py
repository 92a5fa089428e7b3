"""Benchmark of the ``spectral-limits`` command line.

    python3 perfbench/run.py [--workload cantor-deep|ci-wide|ci-report|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  The program runs from ``src`` on
PYTHONPATH, so nothing is installed or built.  Scratch files go to
``.perfbench_work/`` in the checkout.

With ``--trace 0`` the benchmark times the command line, untraced.  It
builds the workload's system file a few times (set-up), then repeats a pass
of commands, one subprocess at a time (a closed loop with one client), for
``--seconds`` seconds and for at least two passes.  It reports medians over
the passes: ``setup_s`` (one ``build``), ``total_s`` (one pass), ``cpu_s``
(user+sys of a pass), ``peak_rss_mb`` (largest command of a pass) and the
wall time of each command kind per call.

With ``--trace 1`` it runs the same commands in-process, with wrappers
around each module's public functions (``tracing.py``), once with the
default BLAS threads and once with one BLAS thread, and reports the
per-layer metrics, the tracing overhead and the single-thread baseline.

Every output is checked (``workloads.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when no command failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import KNOWN_DEFECTS, WORKLOADS, Op, op_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
MIN_PASSES = 2
STARTUP_REPEATS = 5
# Each workload must end within 180 s; commands still running then are killed.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "SPECTRAL_LIMITS_THREADS",
)
SINGLE_THREAD = {name: "1" for name in THREAD_VARS[:5]}
CLI = [sys.executable, "-m", "spectral_limits.cli"]
IMPORT_CLI = [sys.executable, "-c", "import spectral_limits.cli"]

UNITS = {"_s": "s", "_mb": "MB", "_calls": "count", "_entries": "count", "_ratio": "ratio"}


class DeadlineExceeded(Exception):
    pass


@dataclass
class Sample:
    kind: str
    wall: float
    cpu: float
    rss_mb: float
    problems: list[str]


class Runner:
    """Runs commands one at a time and measures each with wait4."""

    def __init__(self, work: Path, env: dict):
        self.work = work
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, argv: list[str], env: dict | None = None) -> tuple[int, str, str, float, float, float]:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise DeadlineExceeded(f"no time left for {argv[2:]}")
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env or self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0 and time.monotonic() >= self.deadline:
            raise DeadlineExceeded(f"killed after {DEADLINE_S:.0f} s: {argv[2:]}")
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        # ru_maxrss is in KiB on Linux.
        return proc.returncode, stdout, stderr, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def run_op(self, op: Op) -> Sample:
        for path in op.outputs:
            path.unlink(missing_ok=True)
        code, stdout, stderr, wall, cpu, rss = self.spawn(CLI + op.args)
        return Sample(op.kind, wall, cpu, rss, op_problems(op, code, stdout, stderr))

    def startup(self) -> Sample:
        code, _, stderr, wall, cpu, rss = self.spawn(IMPORT_CLI)
        problems = [] if code == 0 else [f"import spectral_limits.cli: exit {code}: {stderr[-300:]}"]
        return Sample("startup", wall, cpu, rss, problems)


def child_env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SPECTRAL_LIMITS_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        # SPECTRAL_LIMITS_THREADS is removed from the environment of every command.
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "")


def summarize(values: list[float]) -> dict:
    return {"value": statistics.median(values), "n": len(values), "min": min(values), "max": max(values)}


def print_table(title: str, rows: dict[str, dict]) -> None:
    print(f"  {title}")
    print(f"    {'metric':38s} {'median':>14s} {'unit':6s} {'n':>4s} {'min':>12s} {'max':>12s}")
    for name, r in rows.items():
        n = r.get("n", 1)
        lo = f"{r['min']:12.6g}" if "min" in r else f"{'':12s}"
        hi = f"{r['max']:12.6g}" if "max" in r else f"{'':12s}"
        print(f"    {name:38s} {r['value']:14.6g} {unit_of(name):6s} {n:4d} {lo} {hi}")


def run_untraced(name: str, seed: int, seconds: float, runner: Runner) -> tuple[dict, list[Sample]]:
    workload = WORKLOADS[name]
    work = runner.work
    workload.write_inputs(work)
    samples = [runner.startup()]  # fills the page cache and writes bytecode
    setup = [runner.run_op(workload.setup_op(work)) for _ in range(SETUP_REPEATS)]
    samples += setup
    if any(s.problems for s in samples):
        return {}, samples
    ops = workload.make_pass(seed, work)
    passes: list[list[Sample]] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append([runner.run_op(op) for op in ops])
    samples += [s for p in passes for s in p]

    rows = {
        "setup_s": summarize([s.wall for s in setup]),
        "total_s": summarize([sum(s.wall for s in p) for p in passes]),
        "cpu_s": summarize([sum(s.cpu for s in p) for p in passes]),
        "peak_rss_mb": summarize([max(s.rss_mb for s in p) for p in passes]),
    }
    for kind in ("validate", "st1", "st2", "distance", "report"):
        walls = [s.wall for p in passes for s in p if s.kind == kind]
        if walls:
            rows[f"{kind}_s"] = summarize(walls)
    return rows, samples


def run_traced(name: str, seed: int, runner: Runner) -> tuple[dict, list[Sample]]:
    work = runner.work
    samples = [runner.startup() for _ in range(STARTUP_REPEATS)]
    rows = {"cli.startup_s": summarize([s.wall for s in samples])}
    results = {}
    for config, extra, flags in (("default", {}, ["--untraced-first"]), ("blas1", SINGLE_THREAD, [])):
        out = work / f"trace_{config}.json"
        argv = [sys.executable, str(HERE / "tracing.py"), "--workload", name, "--seed", str(seed)]
        argv += ["--work", str(work), "--out", str(out)] + flags
        code, _, stderr, wall, cpu, rss = runner.spawn(argv, child_env(extra))
        if code != 0:
            samples.append(Sample(f"trace-{config}", wall, cpu, rss, [f"traced pass exit {code}: {stderr[-500:]}"]))
            return {}, samples
        result = json.loads(out.read_text(encoding="utf-8"))
        # One sample per command of the pass; the failed ones carry the problems.
        samples += [Sample(f"trace-{config}", 0.0, 0.0, 0.0, problems) for problems in result["problems"]]
        results[config] = result
    default, blas1 = results["default"], results["blas1"]
    rows.update({k: {"value": v} for k, v in default["layers"].items()})
    rows["serialization.file_mb"] = {"value": (work / "system.json").stat().st_size / 2**20}
    rows["trace.total_s"] = {"value": default["traced_s"]}
    rows["trace.cpu_s"] = {"value": default["traced_cpu_s"]}
    rows["trace.overhead_s"] = {"value": default["traced_s"] - default["untraced_s"]}
    rows["trace.blas1_total_s"] = {"value": blas1["traced_s"]}
    rows["trace.blas1_cpu_s"] = {"value": blas1["traced_cpu_s"]}
    return rows, samples


def run_workload(name: str, why: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Runs one workload and prints its table; returns (rows, attempted, failed)."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, child_env())
    mode = "traced in-process" if trace else f"{seconds:g} s, closed loop, 1 client"
    print(f"workload {name} (seed {seed}, {mode}): {why}")
    try:
        rows, samples = run_traced(name, seed, runner) if trace else run_untraced(name, seed, seconds, runner)
    except DeadlineExceeded as exc:
        print(f"  FAILED: {exc}")
        return {}, 1, 1
    failed = [s for s in samples if s.problems]
    for s in failed:
        for problem in s.problems[:3]:
            print(f"  FAILED {problem}")
        if len(s.problems) > 3:
            print(f"  FAILED ... and {len(s.problems) - 3} more problems in this {s.kind}")
    print_table("per-layer metrics (traced pass)" if trace else "end-to-end metrics (medians)", rows)
    attempted = len(samples)
    ratio = len(failed) / attempted
    print(f"    {'fail_ratio':38s} {ratio:14.6g} {'ratio':6s} {attempted:4d}   ({len(failed)} of {attempted} ops failed)")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "known_defects_untimed": KNOWN_DEFECTS,
        "attempted": attempted, "failed": len(failed), "metrics": rows,
        "samples": [s.__dict__ for s in samples],
    }
    out = WORK / f"results_{name}_seed{seed}_trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return rows, attempted, len(failed)


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the spectral-limits command line.")
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "spectral_limits" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a spectral-limits checkout with BENCHMARK.json", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print("environment: " + json.dumps(environment()))
    for defect in KNOWN_DEFECTS:
        print(f"known defect, not timed (binary CI, J=8, alpha_j = (-1)^j): {defect['command']}: {defect['outcome']}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    whys = {w["name"]: w["why"] for w in declared["workloads"]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        rows, n, bad = run_workload(name, whys[name], args.seed, args.seconds, bool(args.trace))
        attempted += n
        failed += bad
        if bad == 0 and any(m not in rows for m in wanted):
            print(f"  FAILED: {name} did not measure {[m for m in wanted if m not in rows]}")
            failed += 1
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + m: {"value": rows[m]["value"], "unit": unit_of(m)} for m in wanted if m in rows})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""In-process traced pass over one workload, for the per-layer metrics.

Run by ``run.py`` as a child process, with ``src`` on ``PYTHONPATH`` and the
BLAS thread variables of the configuration being measured:

    python3 perfbench/tracing.py --workload ci-wide --seed 1 --work DIR --out FILE [--untraced-first]

The pass runs the workload's set-up and pass commands through
``spectral_limits.cli.main`` in this process, so that the benchmark can
time calls into each module's public functions.  Wrappers replace those
names in the modules that call them, only for the traced pass, and are
removed afterwards; nothing in the program changes.  Spans are kept in
memory and written as JSON lines when the pass ends.  With
``--untraced-first`` the same pass first runs without wrappers, and the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
import tracemalloc
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import spectral_limits.cli as cli
from spectral_limits import algebra, diagnostics, distance, inductive, serialization, triple
from workloads import WORKLOADS, Op, op_problems


class Tracer:
    """Spans with parents and self times, plus call counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.request = 0
        self._stack: list[list] = []  # [span id, child time]
        self._restore: list[tuple] = []
        self._next_id = 0

    def timed(self, name: str, fn, record: bool = True, on_call=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.time[name] += duration
                tracer.self_time[name] += duration - frame[1]
                tracer.calls[name] += 1
                if record:
                    tracer.spans.append(
                        {"request": tracer.request, "id": frame[0], "parent": parent, "name": name, "start": start, "end": end}
                    )

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, record: bool = True, on_call=None) -> None:
        self.patch(owner, attr, self.timed(name, getattr(owner, attr), record, on_call))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> dict:
    """Wrap the public calls of every layer; returns measured side values."""
    side = {"entries": 0, "alloc_peak": 0}

    for name in ("middle_thirds", "cantor_system", "binary_branching", "commutative_af_chain", "ci_system"):
        tracer.span(serialization, name, "generators.system")
    tracer.span(cli, "save_system", "serialization.save")
    tracer.span(cli, "load_system", "serialization.load")
    tracer.span(cli, "dumps", "serialization.dumps")
    tracer.span(cli, "system_validate", "inductive.validate")
    tracer.span(inductive, "validate_triple", "triple.validate_triple")
    tracer.span(inductive, "validate_morphism", "triple.validate_morphism")
    tracer.span(triple, "hom_validate", "algebra.hom_validate")
    tracer.span(cli, "gap_series", "diagnostics.gap_series")
    tracer.span(cli, "resolvent_gap_eigen", "diagnostics.eigen_route")
    tracer.span(diagnostics, "function_gap", "diagnostics.function_gap")
    tracer.span(cli, "default_st2_probe", "diagnostics.st2_probe")
    tracer.span(cli, "st1_verdict", "diagnostics.verdict")
    tracer.span(cli, "st2_verdict", "diagnostics.verdict")
    tracer.span(cli, "connes_distance_with_path", "distance.connes")

    timed_realize = tracer.timed("inductive.realize", cli.realize)

    def realize(*args, **kwargs):
        tracemalloc.start()
        try:
            return timed_realize(*args, **kwargs)
        finally:
            side["alloc_peak"] = max(side["alloc_peak"], tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    tracer.patch(cli, "realize", realize)

    # Counters, wrapped in the modules that import the linalg names.
    def count_miss(*args):
        tracer.calls["inductive.decomp_miss"] += 1

    tracer.span(inductive, "eigh", "linalg.eigh", record=False, on_call=count_miss)
    tracer.span(distance, "eigh", "linalg.eigh", record=False)

    def count_entries(m, *rest):
        side["entries"] += int(np.prod(np.shape(m)))

    for module in (diagnostics, inductive, triple, algebra, distance):
        tracer.span(module, "operator_norm", "linalg.operator_norm", record=False, on_call=count_entries)
    for module in (algebra, triple):
        tracer.patch(module, "as_matrix", tracer.counted("linalg.as_matrix", module.as_matrix))
    tracer.patch(diagnostics, "commutator_norm", tracer.counted("diagnostics.commutator_norm", diagnostics.commutator_norm))
    level_decomposition = inductive.Realization.level_decomposition
    tracer.patch(inductive.Realization, "level_decomposition", tracer.counted("inductive.decomp", level_decomposition))
    return side


def run_op(op: Op) -> list[str]:
    """Run one command in this process; returns the problems its checks found."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    return op_problems(op, code, out.getvalue(), err.getvalue())


def run_pass(ops: list[Op], tracer: Tracer | None) -> tuple[float, float, list[list[str]]]:
    """Wall and CPU seconds of one pass, and the problems of each op."""
    found = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.request = index
        found.append(run_op(op))
    return time.perf_counter() - wall0, time.process_time() - cpu0, found


def layer_metrics(tracer: Tracer, side: dict) -> dict:
    t, calls = tracer.time, tracer.calls
    decomp = calls["inductive.decomp"]
    return {
        "generators.system_s": t["generators.system"],
        "serialization.save_s": t["serialization.save"],
        "serialization.load_s": t["serialization.load"],
        "serialization.dumps_s": t["serialization.dumps"],
        "inductive.validate_s": t["inductive.validate"],
        "inductive.realize_s": t["inductive.realize"],
        "inductive.realize_alloc_mb": side["alloc_peak"] / 2**20,
        "inductive.decomp_cache_hit_ratio": 1.0 - calls["inductive.decomp_miss"] / decomp if decomp else 0.0,
        "triple.validate_triple_s": t["triple.validate_triple"],
        "triple.validate_morphism_s": t["triple.validate_morphism"],
        "triple.validate_morphism_self_s": tracer.self_time["triple.validate_morphism"],
        "algebra.hom_validate_s": t["algebra.hom_validate"],
        "linalg.as_matrix_calls": calls["linalg.as_matrix"],
        "linalg.eigh_calls": calls["linalg.eigh"],
        "linalg.eigh_s": t["linalg.eigh"],
        "linalg.operator_norm_calls": calls["linalg.operator_norm"],
        "linalg.operator_norm_s": t["linalg.operator_norm"],
        "linalg.operator_norm_entries": side["entries"],
        "diagnostics.gap_series_s": t["diagnostics.gap_series"],
        "diagnostics.eigen_route_s": t["diagnostics.eigen_route"],
        "diagnostics.function_gap_s": t["diagnostics.function_gap"],
        "diagnostics.st2_probe_s": t["diagnostics.st2_probe"],
        "diagnostics.commutator_norm_calls": calls["diagnostics.commutator_norm"],
        "diagnostics.verdict_s": t["diagnostics.verdict"],
        "distance.connes_s": t["distance.connes"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--untraced-first", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    workload.write_inputs(args.work)
    setup = workload.setup_op(args.work)
    found = [run_op(setup)]
    ops = [setup] + workload.make_pass(args.seed, args.work)
    result = {}
    if args.untraced_first:
        result["untraced_s"], _, untraced = run_pass(ops, None)
        found += untraced
    tracer = Tracer()
    side = install(tracer)
    try:
        result["traced_s"], result["traced_cpu_s"], traced = run_pass(ops, tracer)
    finally:
        tracer.restore()
    found += traced
    result["layers"] = layer_metrics(tracer, side)
    result["problems"] = found
    with open(args.work / f"spans_{args.out.stem}.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

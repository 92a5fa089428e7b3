"""Command-line front end.

Subcommands: build, validate, st1, st2, distance, report.  Exit codes
follow a strict contract: 0 on success, 1 when a mathematical check fails
(validation residuals above tolerance, an inconsistent verdict, or a
numeric failure), 2 on input errors (malformed configs or files, bad
probes, unsupported inputs).

Complex probes are written like ``i``, ``2i``, ``1+i``, ``-0.5-2i`` on the
command line and as {re, im} objects in JSON.  CSV floats carry 17
significant digits; JSON reports are deterministic for a fixed config and
version.
"""

from __future__ import annotations

import gc

# The imports below allocate tens of thousands of long-lived objects, none of
# them garbage: the collector would pass over them dozens of times while they
# load and once more at exit.  So it is off while they load, and they are then
# frozen, out of its reach; it stays on (unless the caller turned it off) for
# the objects a command makes.
_collecting = gc.isenabled()
gc.disable()

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

# An idle OpenBLAS worker spins for about 2^28 cycles before it sleeps; 4 (the
# minimum) makes it sleep at once.  OpenBLAS reads this when numpy loads, so it
# is set before the first import below that loads numpy.  A user's value wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from . import __version__, _deferred
from .algebra import AlgebraElement
from .errors import (
    NumericError,
    UnsupportedError,
    ValidationError,
)
from .inductive import InductiveSystem, realize, system_validate
from .serialization import (
    _open_output,
    _write_json,
    complex_to_json,
    finite_numbers,
    load_system,
    matrix_from_json,
    read_json,
    save_system,
    system_from_generator_config,
)
from .serialization import dumps  # noqa: F401  (wrapped by name in perfbench/tracing.py)

gc.freeze()
if _collecting:
    gc.enable()

if TYPE_CHECKING:
    from .diagnostics import CommutatorSeries, GapSeries, Verdict

# The diagnostics and distance functions the commands call, through these
# names so that a command imports only the modules it runs
# (perfbench/tracing.py wraps them by these names).
gap_series = _deferred("gap_series")
resolvent_gap_eigen = _deferred("resolvent_gap_eigen")
default_st2_probe = _deferred("default_st2_probe")
st1_verdict = _deferred("st1_verdict")
st2_verdict = _deferred("st2_verdict")
connes_distance_with_path = _deferred("connes_distance_with_path")

# diagnostics.FUNCTION_PROBES names (sorted), VERDICT_THRESHOLD and
# VERDICT_WINDOW, spelled out so that the parser does not import diagnostics;
# tests/test_cli.py pins them to the originals.
FUNCTION_NAMES = ["gaussian", "one_over_one_plus_x2", "x_over_one_plus_x2"]
VERDICT_THRESHOLD = 1e-3
VERDICT_WINDOW = 5

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2

# Below this Hilbert dimension a command's dense work is too small to pay for
# handing it to OpenBLAS's threads: binary CI st1 on 2 vCPUs took 0.34 s on one
# thread against 0.77 s on two at dim 512 and 0.90 s against 0.88 s at dim
# 1024, but 4.33 s against 3.46 s at dim 2048.
PARALLEL_DIM = 2048
# A thread count set in any of these turns that rule off.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' command-line complex numbers ('i', '2i', '1+i', ...)."""
    t = text.strip().replace(" ", "").replace("I", "i").replace("j", "i")
    t = t.replace("i", "j")
    t = re.sub(r"(?<![\d.])j", "1j", t)
    try:
        return complex(t)
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex number {text!r}") from exc


def parse_lambdas(texts) -> list[complex]:
    """Parse a list of non-real resolvent probes written as in ``parse_complex``."""
    from .diagnostics import _check_nonreal

    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValidationError(f"resolvent probes must be a list of strings, got {texts!r}")
    return [_check_nonreal(parse_complex(t)) for t in texts]


def parse_levels(text: str, top: int) -> list[int]:
    """Parse 'a..b' (inclusive) or a single level."""
    t = text.strip()
    try:
        if ".." in t:
            a_str, b_str = t.split("..", 1)
            a, b = int(a_str), int(b_str)
        else:
            a = b = int(t)
    except ValueError as exc:
        raise ValidationError(f"cannot parse level range {text!r}") from exc
    if not (0 <= a <= b <= top):
        raise ValidationError(f"level range {text!r} outside [0, {top}]")
    return list(range(a, b + 1))


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.17g}"


@functools.cache
def _openblas():
    """OpenBLAS's get and set thread-count functions in numpy's LAPACK and the
    count it started with, or None when numpy's BLAS is not OpenBLAS."""
    import ctypes

    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        if hasattr(lib, name.format("set")):
            get, set_threads = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.argtypes, get.restype = (), ctypes.c_int
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            return get, set_threads, get()
    return None


def _size_blas_threads(system: InductiveSystem) -> None:
    """Run OpenBLAS on one thread for a system below ``PARALLEL_DIM`` and on the
    threads it started with otherwise, unless the environment sets a count."""
    blas = None if any(v in os.environ for v in BLAS_THREAD_VARS) else _openblas()
    if blas is not None:
        _, set_threads, start = blas
        set_threads(1 if max(t.hilbert_dim for t in system.triples) < PARALLEL_DIM else start)


def _load_system_arg(args) -> InductiveSystem:
    if getattr(args, "system", None):
        system = load_system(args.system)
    elif getattr(args, "config", None):
        system = system_from_generator_config(read_json(args.config))
    else:
        raise ValidationError("give --system FILE or --config FILE")
    _size_blas_threads(system)
    return system


def _emit_csv_and_json(lines, doc: dict, prefix: str | None) -> None:
    """Write ``prefix``.csv and ``prefix``.json, or both to stdout without a
    prefix, each as it is produced: the CSV one line of ``lines`` at a time."""
    with _open_output(prefix and prefix + ".csv") as fh:
        for line in lines:
            fh.write(line + "\n")
    _write_json(doc, prefix and prefix + ".json")
    if prefix:
        print(f"wrote {prefix}.csv and {prefix}.json")


def _check_functions(names) -> list[str]:
    """Check a list of probe-function names against ``FUNCTION_NAMES``."""
    if not isinstance(names, list):
        raise ValidationError(f"probe functions must be a list of names, got {names!r}")
    for name in names:
        if not isinstance(name, str) or name not in FUNCTION_NAMES:
            raise ValidationError(f"unknown probe function {name!r}; known: {FUNCTION_NAMES}")
    return names


def _system_summary(system: InductiveSystem) -> dict:
    return {
        "levels": system.top_level,
        "hilbert_dims": [t.hilbert_dim for t in system.triples],
        "generator": system.provenance.get("kind", "unknown"),
    }


def _gap_lines(series: GapSeries, cross: dict | None):
    """The CSV lines of one gap series; ``cross`` holds the eigen-route deltas."""
    for idx, (j, gap) in enumerate(series.entries):
        bound = None
        if series.analytic_bounds is not None:
            bound = series.analytic_bounds[idx]
        delta = None if cross is None else cross.get(j)
        yield ",".join(
            [
                series.kind,
                str(j),
                _fmt(series.lam.real) if series.lam is not None else "",
                _fmt(series.lam.imag) if series.lam is not None else "",
                series.f_name or "",
                _fmt(gap),
                _fmt(bound),
                _fmt(delta),
            ]
        )


GAP_CSV_HEADER = "kind,j,lambda_re,lambda_im,f_name,gap,analytic_bound,eigen_gap_delta"


def _st1_lines(resolvent, function):
    yield GAP_CSV_HEADER
    for series, cross, _ in resolvent:
        yield from _gap_lines(series, cross)
    for series in function:
        yield from _gap_lines(series, None)


def cmd_build(args) -> int:
    system = system_from_generator_config(read_json(args.config))
    save_system(system, args.out)
    summary = _system_summary(system)
    print(f"wrote {args.out}: {summary['generator']} system, levels 0..{summary['levels']}, dims {summary['hilbert_dims']}")
    return EXIT_OK


def cmd_validate(args) -> int:
    system = _load_system_arg(args)
    report = system_validate(system)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_MATH


def _st1_probes(r, lambdas, functions, levels, threshold, window):
    """The ST1 series of every probe at ``levels``.

    Returns ``(resolvent, function)``: for each resolvent probe its gap
    series, the per-level |direct - eigen| deltas of the cross-check and
    its verdict, then one gap series per named function probe.
    """
    resolvent = []
    for lam in lambdas:
        # The eigen route first: the QR temporaries of its increment spectra
        # then come before any rotation is cached, under the memory peak
        # (binary CI dim 1024, 3 probes and gaussian: 147 MB peak RSS,
        # against 173 MB with the direct route first).
        eigen = [resolvent_gap_eigen(r, j, lam) for j in levels]
        series = gap_series(r, lam=lam, j_range=levels)
        cross = {j: abs(gap - e) for (j, gap), e in zip(series.entries, eigen)}
        resolvent.append((series, cross, st1_verdict(series, threshold=threshold, window=window)))
    return resolvent, [gap_series(r, f_name=name, j_range=levels) for name in functions]


def _warn_route_deltas(resolvent) -> None:
    """One ``warning:`` line on stderr per resolvent probe whose routes differ
    by more than ``GAP_DELTA_TOL`` at some level."""
    from .diagnostics import GAP_DELTA_TOL

    for series, cross, _ in resolvent:
        j = max(cross, key=cross.get)
        if cross[j] > GAP_DELTA_TOL:
            print(
                f"warning: direct and eigenprojection gaps differ by {cross[j]:.3g} at "
                f"lambda={series.lam:g}, j={j} (cross-check tolerance {GAP_DELTA_TOL:g})",
                file=sys.stderr,
            )


def cmd_st1(args) -> int:
    from .diagnostics import DEFAULT_LAMBDAS, _check_positive, _check_window

    _check_window("--window", args.window)
    _check_positive("--threshold", args.threshold)
    lambdas = parse_lambdas(args.lam) if args.lam else list(DEFAULT_LAMBDAS)
    system = _load_system_arg(args)
    r = realize(system)
    levels = list(range(r.level + 1)) if args.levels is None else parse_levels(args.levels, r.level)
    functions = _check_functions(args.function or [])
    resolvent, function = _st1_probes(r, lambdas, functions, levels, args.threshold, args.window)

    probes = []
    for (_, cross, verdict), lam in zip(resolvent, lambdas):
        probes.append(
            {
                "lambda": complex_to_json(lam),
                **_verdict_doc(verdict),
                "max_eigen_gap_delta": max(cross.values(), default=0.0),
            }
        )
    verdict_doc = {
        "kind": "st1",
        "system": _system_summary(system),
        "probes": probes,
        "version": __version__,
    }
    _emit_csv_and_json(_st1_lines(resolvent, function), verdict_doc, args.out)
    _warn_route_deltas(resolvent)
    if any(p["classification"] == "inconsistent" for p in probes):
        return EXIT_MATH
    return EXIT_OK


ST2_CSV_HEADER = "kind,base_level,element,k,norm"


def _st2_lines(named):
    yield ST2_CSV_HEADER
    for name, series in named:
        for k, v in series.entries:
            yield f"commutator,{series.base_level},{name},{k},{_fmt(v)}"


def _element_from_doc(doc, system: InductiveSystem) -> tuple[str, int, AlgebraElement]:
    """Check an ``st2 --element`` document; return its name, level and element."""
    if not isinstance(doc, dict):
        raise ValidationError(f"--element must be a JSON object, got {doc!r}")
    j = doc.get("level")
    if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j <= system.top_level:
        raise ValidationError(f"element level must be an integer in [0, {system.top_level}], got {j!r}")
    name = doc.get("name", f"element@{j}")
    if not isinstance(name, str):
        raise ValidationError(f"element name must be a string, got {name!r}")
    algebra = system.triples[j].algebra
    if "values" in doc:
        return name, j, algebra.from_point_values(finite_numbers(doc["values"], "element 'values'"))
    blocks = doc.get("blocks")
    if not isinstance(blocks, list):
        raise ValidationError(f"element needs 'values' or a 'blocks' list, got {blocks!r}")
    return name, j, algebra.element([matrix_from_json(b) for b in blocks])


def _st2_series(args, system: InductiveSystem) -> list[tuple[str, CommutatorSeries]]:
    if args.element:
        from .diagnostics import commutator_series

        out = []
        for spec_item in args.element:
            if os.path.exists(spec_item):
                doc = read_json(spec_item)
            else:
                try:
                    doc = json.loads(spec_item)
                except (RecursionError, ValueError) as exc:
                    raise ValidationError(f"--element must be a file or inline JSON: {exc}")
            name, j, elem = _element_from_doc(doc, system)
            try:
                out.append((name, commutator_series(system, j, elem)))
            except ValidationError as exc:
                raise ValidationError(f"element {name!r}: {exc}") from None
        return out
    levels = None if args.levels is None else parse_levels(args.levels, system.top_level)
    probe = default_st2_probe(system, levels=levels)
    return [(f"basis{i}@{s.base_level}", s) for i, s in enumerate(probe)]


def cmd_st2(args) -> int:
    if args.bound is not None:
        from .diagnostics import _check_positive

        _check_positive("--bound", args.bound, allow_zero=True)
    system = _load_system_arg(args)
    named = _st2_series(args, system)
    verdict = st2_verdict([s for _, s in named], bound=args.bound)
    verdict_doc = {
        "kind": "st2",
        "system": _system_summary(system),
        **_verdict_doc(verdict),
        "series_names": [name for name, _ in named],
        "version": __version__,
    }
    _emit_csv_and_json(_st2_lines(named), verdict_doc, args.out)
    return EXIT_MATH if verdict.classification == "inconsistent" else EXIT_OK


def _resolve_point(triple, text: str) -> int:
    # Meta points, when present, are one finite number per point: the system
    # decoder checks this and the generators write them so.
    points = triple.meta.get("points")
    try:
        if points is not None:
            x = float(text)
            if not math.isfinite(x):
                raise ValidationError(f"point {text!r} is not finite")
            best = min(range(len(points)), key=lambda i: abs(points[i] - x))
            if abs(points[best] - x) > 1e-9 * max(1.0, abs(x)):
                raise ValidationError(f"{text!r} is not a point of this level (points: {points})")
            return best
        return int(text)
    except ValueError as exc:
        raise ValidationError(f"cannot parse point {text!r}") from exc


def cmd_distance(args) -> int:
    system = _load_system_arg(args)
    j = system.check_level(args.level)
    triple = system.triples[j]
    x = _resolve_point(triple, args.x)
    y = _resolve_point(triple, args.y)
    value, path = connes_distance_with_path(triple, x, y)
    points = triple.meta.get("points")

    def label(p):
        return _fmt(points[p]) if points is not None else str(p)

    if math.isinf(value):
        print(f"d({label(x)}, {label(y)}) = infinite (points lie in disconnected components)")
    else:
        print(f"d({label(x)}, {label(y)}) = {_fmt(value)}")
        if path is not None:
            print("path: " + " -> ".join(label(p) for p in path))
    return EXIT_OK


def _report_levels(levels, top: int) -> list[int]:
    """Level range of a report config: absent for all levels, else [a, b]."""
    if levels is None:
        return list(range(top + 1))
    if (
        not isinstance(levels, list)
        or len(levels) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in levels)
        or not 0 <= levels[0] <= levels[1] <= top
    ):
        raise ValidationError(f"report 'levels' must be [a, b] with 0 <= a <= b <= {top}, got {levels!r}")
    return list(range(levels[0], levels[1] + 1))


def _verdict_doc(verdict: Verdict) -> dict:
    return {"classification": verdict.classification, "evidence": verdict.evidence, "caveat": verdict.caveat}


def _series_doc(s: CommutatorSeries) -> dict:
    return {"base_level": s.base_level, "entries": [{"k": k, "norm": v} for k, v in s.entries]}


def cmd_report(args) -> int:
    from .diagnostics import DEFAULT_LAMBDAS

    cfg = read_json(args.config)
    if not isinstance(cfg, dict) or "system" not in cfg:
        raise ValidationError("report config must contain a 'system' entry")
    lambdas = parse_lambdas(cfg["lambdas"]) if "lambdas" in cfg else list(DEFAULT_LAMBDAS)
    functions = _check_functions(cfg.get("functions", []))
    sys_cfg = cfg["system"]
    if isinstance(sys_cfg, dict) and "path" in sys_cfg:
        if not isinstance(sys_cfg["path"], str):
            raise ValidationError(f"report 'system.path' must be a string, got {sys_cfg['path']!r}")
        system = load_system(sys_cfg["path"])
    else:
        system = system_from_generator_config(sys_cfg)
    _size_blas_threads(system)
    j_range = _report_levels(cfg.get("levels"), system.top_level)
    r = realize(system)

    validation = system_validate(system)
    resolvent, function = _st1_probes(r, lambdas, functions, j_range, VERDICT_THRESHOLD, VERDICT_WINDOW)
    gap_docs = []
    for (series, _, verdict), lam in zip(resolvent, lambdas):
        gap_docs.append(
            {
                "lambda": complex_to_json(lam),
                "entries": [{"j": j, "gap": v} for j, v in series.entries],
                "analytic_bounds": list(series.analytic_bounds),
                **_verdict_doc(verdict),
            }
        )
    for series in function:
        gap_docs.append(
            {
                "function": series.f_name,
                "entries": [{"j": j, "gap": v} for j, v in series.entries],
            }
        )
    # The realization's decompositions, rotations and increment spectra are
    # not needed by the ST2 probe.
    del r
    st2_probe = default_st2_probe(system)
    st2 = st2_verdict(st2_probe)
    doc = {
        "system": _system_summary(system),
        "validation": {
            "passed": validation.passed,
            "worst_residual": validation.worst,
            "failing_triple": validation.failing_triple,
            "failing_link": validation.failing_link,
        },
        "gap_series": gap_docs,
        # Encoded one series at a time by _series_doc.
        "commutator_series": st2_probe,
        "st2": _verdict_doc(st2),
        "version": __version__,
        "config": cfg,
    }
    _write_json(doc, args.out, default=_series_doc)
    _warn_route_deltas(resolvent)
    failed = (
        not validation.passed
        or st2.classification == "inconsistent"
        or any(g.get("classification") == "inconsistent" for g in gap_docs)
    )
    return EXIT_MATH if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-limits",
        description="Inductive systems of finite spectral triples: builders, validation and ST1/ST2 diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a system from a generator config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("validate", help="validate triples and links of a system")
    p.add_argument("--system")
    p.add_argument("--config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("st1", help="resolvent gap series, eigen cross-check and verdicts")
    p.add_argument("--system")
    p.add_argument("--config")
    p.add_argument("--lambda", dest="lam", action="append", help="non-real probe, e.g. 'i' or '1+2i' (repeatable)")
    p.add_argument("--function", action="append", help=f"named probe function (repeatable); known: {FUNCTION_NAMES}")
    p.add_argument("--levels", help="level range a..b")
    p.add_argument("--out", help="output prefix (.csv and .json are appended)")
    p.add_argument("--threshold", type=float, default=VERDICT_THRESHOLD)
    p.add_argument("--window", type=int, default=VERDICT_WINDOW)
    p.set_defaults(func=cmd_st1)

    p = sub.add_parser("st2", help="commutator-norm series and verdicts")
    p.add_argument("--system")
    p.add_argument("--config")
    p.add_argument("--element", action="append", help="JSON file or inline JSON {'level': j, 'values': [...]} (repeatable)")
    p.add_argument("--levels", help="base-level range a..b for the default probe")
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--out", help="output prefix (.csv and .json are appended)")
    p.set_defaults(func=cmd_st2)

    p = sub.add_parser("distance", help="spectral distance between two points of a level")
    p.add_argument("--system")
    p.add_argument("--config")
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("report", help="aggregate validation + ST1 + ST2 report")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: bad input: {exc!r}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's trace pass wraps module attributes by name.

``perfbench/tracing.py`` looks up names such as ``algebra.operator_norm``,
``triple.as_matrix`` and ``inductive.eigh`` with ``getattr``; a refactor
that drops one of them would break ``perfbench/run.py --trace 1``, and a
command that stops calling through one would leave its metric at 0.
"""

import ast
import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spectral_limits"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing

    yield tracing
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def test_install_and_restore(tracing):
    from spectral_limits import inductive, triple

    originals = (triple.hom_validate, inductive.eigh, inductive.Realization.level_decomposition)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert triple.hom_validate is not originals[0]
    finally:
        tracer.restore()
    assert (triple.hom_validate, inductive.eigh, inductive.Realization.level_decomposition) == originals


def test_commands_call_through_wrapped_names(tracing, tmp_path):
    from spectral_limits import cli

    cantor = tmp_path / "cantor.json"
    cantor.write_text(json.dumps({"type": "cantor", "gaps": "middle-thirds", "levels": 4}))
    # Alternating alphas couple level 2, so the distance takes the barrier solve.
    ci = tmp_path / "ci.json"
    ci.write_text(
        json.dumps({"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": [-1.0, 1.0], "levels": 2})
    )
    system = str(tmp_path / "system.json")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["build", "--config", str(cantor), "--out", system]) == 0
            assert cli.main(["st1", "--system", system, "--function", "gaussian", "--out", str(tmp_path / "st1")]) == 0
            assert cli.main(["st2", "--system", system, "--out", str(tmp_path / "st2")]) == 0
            assert cli.main(["distance", "--config", str(ci), "--level", "2", "--x", "0", "--y", "1"]) == 0
    finally:
        tracer.restore()
    names = [
        "generators.system",
        "serialization.load",
        "diagnostics.gap_series",
        "diagnostics.eigen_route",
        "diagnostics.function_gap",
        "diagnostics.st2_probe",
        "diagnostics.verdict",
        "distance.connes",
    ]
    assert [name for name in names if tracer.calls[name] == 0] == []


def _unused_imports():
    """(module, name) of every import in the package marked ``# noqa: F401``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom):
                found += [(path.stem, a.asname or a.name) for a in node.names if "noqa: F401" in lines[a.lineno - 1]]
    return found


def test_unused_imports_are_trace_hooks(tracing):
    # A name imported but unused is kept only for the trace to wrap; this
    # is the one list of them.
    found = _unused_imports()
    assert found == [("algebra", "operator_norm"), ("cli", "dumps"), ("diagnostics", "operator_norm"), ("inductive", "operator_norm")]
    modules = {m: importlib.import_module(f"spectral_limits.{m}") for m, _ in found}
    originals = [getattr(modules[m], name) for m, name in found]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        wrapped = [getattr(modules[m], name) is not original for (m, name), original in zip(found, originals)]
    finally:
        tracer.restore()
    assert all(wrapped)

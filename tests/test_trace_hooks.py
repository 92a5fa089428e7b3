"""The benchmark's trace pass wraps module attributes by name.

``perfbench/tracing.py`` looks up names such as ``algebra.operator_norm``,
``triple.as_matrix`` and ``inductive.eigh`` with ``getattr``; a refactor
that drops one of them would break ``perfbench/run.py --trace 1``.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing

    from spectral_limits import inductive, triple

    originals = (triple.hom_validate, inductive.eigh, inductive.Realization.level_decomposition)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert triple.hom_validate is not originals[0]
    finally:
        tracer.restore()
    assert (triple.hom_validate, inductive.eigh, inductive.Realization.level_decomposition) == originals
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)

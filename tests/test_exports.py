"""The package's public names: every ``__all__`` entry resolves, once, and
lazily: each is looked up in its module on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_limits

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = [
    "errors",
    "linalg",
    "algebra",
    "triple",
    "inductive",
    "distance",
    "diagnostics",
    "generators",
    "serialization",
    "cli",
]


def run_python(code: str, **env_vars: str | None) -> str:
    """Run ``code`` in a fresh interpreter with the package's source on the
    path and ``env_vars`` in its environment (None unsets one); return the
    last line it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_every_export_resolves():
    missing = [name for name in spectral_limits.__all__ if not hasattr(spectral_limits, name)]
    assert missing == []


def test_no_duplicate_exports():
    names = spectral_limits.__all__
    assert len(names) == len(set(names))


def test_star_import():
    namespace = {}
    exec("from spectral_limits import *", namespace)
    assert set(spectral_limits.__all__) <= set(namespace)


def test_dir_lists_every_export():
    assert set(spectral_limits.__all__) <= set(dir(spectral_limits))


def test_export_is_its_defining_module_attribute():
    for name in spectral_limits.__all__:
        if name == "__version__":
            continue
        value = getattr(spectral_limits, name)
        assert value.__module__.startswith("spectral_limits."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spectral_limits.no_such_name


def test_package_import_loads_no_module():
    code = "import sys, spectral_limits; print(sorted(m for m in sys.modules if m.startswith('spectral_limits.')))"
    assert run_python(code) == "[]"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # Deferred imports must not hide an import cycle between the modules.
    assert run_python(f"import spectral_limits.{module}; print('ok')") == "ok"

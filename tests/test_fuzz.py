"""Fuzzed inputs: every command exits 0, 1 or 2 and never raises.

Each system-file example mutates one node of a small v2 document: it drops a
key (or a list entry), substitutes a random JSON value, or truncates or
flips a character of a base64 matrix string.  The numeric examples give
``st2 --element`` values and ``st1 --lambda`` probes from 1e-300 to 1e300
in magnitude; a RuntimeWarning fails them, since tier-1 turns it into an
error.  The argv examples give ``st1`` random flags and values.
"""

import argparse
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from spectral_limits import cantor_system, middle_thirds, system_to_json
from spectral_limits.cli import build_parser, main

BASE_DOC = json.dumps(system_to_json(cantor_system(middle_thirds(2), 2)))
B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """The key path of every node below ``node``, its own included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(doc, data):
    paths = [p for p in _paths(doc) if p]
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    actions = ["drop", "replace"] + (["truncate", "flip"] if key == "data" else [])
    action = data.draw(st.sampled_from(actions))
    if action == "drop":
        del parent[key]
    elif action == "replace":
        parent[key] = data.draw(json_values)
    elif action == "truncate":
        parent[key] = value[: data.draw(st.integers(0, len(value) - 1))]
    else:
        i = data.draw(st.integers(0, len(value) - 1))
        parent[key] = value[:i] + data.draw(st.sampled_from(B64 + "*.\n")) + value[i + 1 :]


# Derandomized so that tier-1 is repeatable; about 3 s for 100 examples.
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_system_file_exit_code(tmp_path, data):
    doc = json.loads(BASE_DOC)
    _mutate(doc, data)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--system", str(path)]) in (0, 1, 2)


# Binary Christensen-Ivan system with two levels; D_0 = 0.
CI2 = {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": [1.0, 2.0], "levels": 2}

# Numbers of magnitude 1e-300 to 1e300, either sign, or zero.
extreme = st.just(0.0) | st.builds(
    lambda exponent, sign: sign * 10.0**exponent, st.floats(-300, 300), st.sampled_from([1.0, -1.0])
)


@pytest.fixture(scope="module")
def ci2_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ci2.json"
    path.write_text(json.dumps(CI2))
    return str(path)


def _assert_clean_exit(code, capsys):
    assert code in (0, 1, 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err


FUZZ_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ_SETTINGS
@given(data=st.data())
def test_st2_element_values_exit_code(ci2_config, tmp_path, capsys, data):
    # Level 1 has 2 points and level 2 has 4; the element takes 1 to 3 distinct values.
    level = data.draw(st.sampled_from([1, 2]))
    n = 2 * level
    distinct = data.draw(st.lists(extreme, min_size=1, max_size=min(3, n), unique=True))
    fill = data.draw(st.lists(st.sampled_from(distinct), min_size=n - len(distinct), max_size=n - len(distinct)))
    values = data.draw(st.permutations(distinct + fill))
    element = json.dumps({"level": level, "values": values})
    code = main(["st2", "--config", ci2_config, "--element", element, "--out", str(tmp_path / "st2")])
    _assert_clean_exit(code, capsys)


@FUZZ_SETTINGS
@given(
    exponent=st.floats(-300, 0),
    sign=st.sampled_from([1.0, -1.0]),
    real=st.sampled_from([0.0, 1.0]) | st.floats(-3, 3),
)
def test_st1_small_imaginary_probe_exit_code(ci2_config, tmp_path, capsys, exponent, sign, real):
    lam = repr(complex(real, sign * 10.0**exponent))
    code = main(["st1", "--config", ci2_config, f"--lambda={lam}", "--out", str(tmp_path / "st1")])
    _assert_clean_exit(code, capsys)


def _st1_flags() -> list[str]:
    """Option strings of the ``st1`` subparser, read from the parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(o for action in sub.choices["st1"]._actions for o in action.option_strings)


# The parser's flags plus two it no longer accepts.
ST1_FLAGS = _st1_flags() + ["--tol-group", "--tol-contain"]
# argv strings carry neither NUL nor lone surrogates.
argv_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8)
argv_values = (
    st.sampled_from(["i", "2i", "1+i", "-0.5-2i", "0", "0..2", "1..1", "2..0", "gaussian", "nan", "-inf", ""])
    | st.floats().map(repr)
    | st.integers(-3, 10).map(str)
    | argv_text
)


@pytest.fixture(scope="module")
def cantor2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "cantor2.json"
    path.write_text(BASE_DOC)
    return str(path)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(pairs=st.lists(st.tuples(st.sampled_from(ST1_FLAGS), argv_values), max_size=4))
def test_st1_argv_exit_code(cantor2_file, tmp_path, capsys, pairs):
    out = str(tmp_path / "st1")
    argv = ["st1", "--system", cantor2_file, "--out", out]
    for flag, value in pairs:
        if flag in ("-h", "--help"):
            argv.append(flag)
        else:
            argv += [flag, out if flag == "--out" else value]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    _assert_clean_exit(code, capsys)

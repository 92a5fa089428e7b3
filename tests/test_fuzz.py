"""Fuzzed system files: ``validate`` exits 0, 1 or 2 and never raises.

Each example mutates one node of a small v2 document: it drops a key (or a
list entry), substitutes a random JSON value, or truncates or flips a
character of a base64 matrix string.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from spectral_limits import cantor_system, middle_thirds, system_to_json
from spectral_limits.cli import main

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

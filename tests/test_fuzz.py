"""Fuzzed inputs: every command exits 0, 1 or 2 and never raises.

Each system-file example mutates one node of a small v3 document, whose
matrices are float64 except one complex128 Dirac operator: it drops a key
(or a list entry), substitutes a random JSON value, or truncates or flips a
character of a base64 matrix string.  The raw-byte examples truncate a
system file or a config, or write invalid UTF-8 into it.  The numeric examples give
``st2 --element`` values and ``st1 --lambda`` probes from 1e-300 to 1e300
in magnitude; a RuntimeWarning fails them, since tier-1 turns it into an
error.  The argv examples give ``st1`` random flags and values, and the
generator examples run ``build``, ``validate``, ``st2`` and ``report`` on
small, partly malformed generator configs with random flags of each
command.  The representation examples give explicit maps into M_N, some
of them not faithful or moved off a *-homomorphism, and compare the
verdict with an all-pairs oracle.  The intertwining examples perturb the
isometry (and sometimes the explicit phi) of a link and check that the
algebra-intertwining residual bounds the defect of random elements.  The
public API sweep passes one bad scalar at a time (NaN, infinities, extreme,
negative, non-integer and bool values, non-finite or huge probes, small
integers) to one argument of each public entry point, and checks that the
argument's rule refuses it with a ``ValidationError`` wherever it should.
"""

import argparse
import cmath
import functools
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from spectral_limits import (
    FiniteCStarAlgebra,
    FiniteSpectralTriple,
    GapSequence,
    InductiveSystem,
    SpectralLimitsError,
    StarHomomorphism,
    State,
    TripleMorphism,
    ValidationError,
    analytic_gap_bound,
    binary_branching,
    cantor_system,
    ci_system,
    commutative_af_chain,
    commutator_series,
    connes_distance,
    connes_distance_with_path,
    default_st2_probe,
    dense_representation,
    function_gap,
    gap_series,
    hom_validate,
    middle_thirds,
    random_af_chain,
    random_commutative_system,
    random_gap_sequence,
    realize,
    resolvent,
    resolvent_gap,
    resolvent_gap_eigen,
    save_system,
    st1_verdict,
    st2_verdict,
    system_to_json,
    theta,
    theta_index,
    validate_morphism,
)
from spectral_limits.algebra import VALIDATION_TOL
from spectral_limits.cli import build_parser, main
from spectral_limits.diagnostics import FUNCTION_PROBES
from spectral_limits.serialization import dumps, matrix_from_json, matrix_to_json
from test_generators import doubled_chain, tensor_chain


def _base_doc() -> dict:
    """Cantor J=2, with a -0.0 imaginary part that keeps triple 1's Dirac complex128."""
    doc = system_to_json(cantor_system(middle_thirds(2), 2))
    dirac = matrix_from_json(doc["triples"][1]["dirac"]).astype(complex)
    dirac[0, 1] = complex(dirac[0, 1].real, -0.0)
    doc["triples"][1]["dirac"] = matrix_to_json(dirac)
    return doc


BASE_DOC = json.dumps(_base_doc())
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


# Invalid UTF-8: a lone continuation byte, a truncated sequence, an
# overlong encoding, a surrogate and a byte that never occurs.
BAD_UTF8 = [b"\x80", b"\xc3", b"\xe2\x82", b"\xc0\xaf", b"\xed\xa0\x80", b"\xff"]


def _raw_mutation(raw: bytes, data) -> bytes:
    """Truncate ``raw``, or write an invalid UTF-8 sequence over or into it."""
    action = data.draw(st.sampled_from(["truncate", "overwrite", "insert"]))
    i = data.draw(st.integers(0, len(raw) - 1))
    if action == "truncate":
        return raw[:i]
    bad = data.draw(st.sampled_from(BAD_UTF8))
    return raw[:i] + bad + raw[i + (len(bad) if action == "overwrite" else 0) :]


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
    assert "Traceback" not in err and "RuntimeWarning" not in err and "ComplexWarning" not in err


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


def _flags(command: str) -> list[str]:
    """Option strings of one subparser, read from the parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(o for action in sub.choices[command]._actions for o in action.option_strings)


# The parser's flags plus two it no longer accepts.
ST1_FLAGS = _flags("st1") + ["--tol-group", "--tol-contain"]
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


@FUZZ_SETTINGS
@given(data=st.data())
def test_raw_byte_mutation_exit_code(tmp_path, capsys, data):
    kind = data.draw(st.sampled_from(["system", "build", "report", "element"]))
    report = {"system": CI2, "lambdas": ["i"], "functions": ["gaussian"], "levels": [0, 2]}
    text = {
        "system": BASE_DOC,
        "build": json.dumps(CI2),
        "report": dumps(report),
        "element": json.dumps({"level": 1, "name": "\u00e9l\u00e9ment", "values": [0.0, 1.0]}, ensure_ascii=False),
    }[kind]
    path = tmp_path / "input.json"
    path.write_bytes(_raw_mutation(text.encode("utf-8"), data))
    ci2 = _write_json(tmp_path / "ci2.json", CI2)
    out = str(tmp_path / "out")
    argv = {
        "system": ["validate", "--system", str(path)],
        "build": ["build", "--config", str(path), "--out", out],
        "report": ["report", "--config", str(path), "--out", out],
        "element": ["st2", "--config", ci2, "--element", str(path), "--out", out],
    }[kind]
    _assert_clean_exit(main(argv), capsys)


def _write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def ci2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ci2_system.json"
    assert main(["build", "--config", _write_json(path.with_name("ci2_build.json"), CI2), "--out", str(path)]) == 0
    return str(path)


# Level and point arguments: indices, Cantor coordinates, and malformed text.
point_values = (
    st.sampled_from(["0", "1", "2", "3", "-1", "0.0", "1.0", "0.2222222222222222", "0.6666666666666666", "1e400", "nan"])
    | st.integers(-3, 6).map(str)
    | st.floats().map(repr)
    | argv_text
)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    which=st.sampled_from(["cantor", "ci"]),
    pairs=st.lists(st.tuples(st.sampled_from(["--level", "--x", "--y"]), point_values), max_size=4),
)
def test_distance_argv_exit_code(cantor2_file, ci2_file, capsys, which, pairs):
    argv = ["distance", "--system", cantor2_file if which == "cantor" else ci2_file]
    for flag, value in pairs:
        argv += [flag, value]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    _assert_clean_exit(code, capsys)


# Small values for report config fields: no generator config drawn here
# builds more than a few levels.
small_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=2),
    max_leaves=4,
)
REPORT_FIELDS = {
    "lambdas": st.lists(st.sampled_from(["i", "2i", "1+i", "0", "1", "nan", "1e-320j", "1e308+1e308i", "inf"]) | argv_text, max_size=3),
    "functions": st.lists(st.sampled_from(["gaussian", "exp", ""]) | argv_text, max_size=2),
    "levels": st.lists(st.integers(-1, 3), max_size=3),
}


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_report_config_exit_code(tmp_path, capsys, data):
    system = dict(data.draw(st.sampled_from([CI2, {"type": "cantor", "gaps": "middle-thirds", "levels": 2}])))
    cfg = {"system": system, "lambdas": ["i"], "functions": ["gaussian"], "levels": [0, 2]}
    for key in data.draw(st.lists(st.sampled_from(sorted(REPORT_FIELDS) + ["system"]), min_size=1, max_size=2)):
        action = data.draw(st.sampled_from(["drop", "field", "any"]))
        if key == "system" and action == "field":
            system[data.draw(st.sampled_from(sorted(system)))] = data.draw(small_values)
        elif action == "drop":
            cfg.pop(key, None)
        else:
            cfg[key] = data.draw(small_values if action == "any" or key == "system" else REPORT_FIELDS[key])
    config = _write_json(tmp_path / "report.json", cfg)
    code = main(["report", "--config", config, "--out", str(tmp_path / "out.json")])
    _assert_clean_exit(code, capsys)


# Generator config fields: well-formed small values and malformed ones.  The
# largest well-formed system is binary CI at J=4 (dimension 16).
GENERATOR_FIELDS = {
    "cantor": {
        "gaps": st.sampled_from(
            [
                "middle-thirds",
                [[0.0, 1.0], [0.4, 0.6]],
                [[0.0, 1.0], [0.2, 0.5], [0.6, 0.7]],
                [[0.0, 1.0], [0.6, 0.4]],
                [[1.0, 0.0]],
                [],
                "thirds",
            ]
        ),
        "levels": st.integers(-1, 4),
        "grading": st.booleans(),
    },
    "christensen-ivan": {
        "chain": st.sampled_from(["binary", {"branching": [[0, 0], [0, 0, 1]]}, {"branching": [[0], [0, 1]]}])
        | st.lists(st.lists(st.integers(-1, 3), max_size=4), max_size=3).map(lambda maps: {"branching": maps}),
        "weights": st.sampled_from(["uniform", "random"]) | st.lists(st.floats(-1.0, 2.0), max_size=4),
        "alphas": st.lists(extreme | st.floats(), max_size=5),
        "levels": st.integers(-1, 4),
    },
}
COMMANDS = ("build", "validate", "st2", "report")
COMMAND_FLAGS = {command: _flags(command) for command in COMMANDS}
# Flag values: the documented forms, element blocks, numbers and random text.
command_values = (
    st.sampled_from(["0..1", "1..0", "0..9", "2", "1e308", "-1", '{"level": 1, "values": [0, 1]}', '{"level": 0}'])
    | argv_values
)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_generator_config_and_argv_exit_code(tmp_path, capsys, data):
    kind = data.draw(st.sampled_from(sorted(GENERATOR_FIELDS)))
    cfg = {"type": kind, **{k: data.draw(v) for k, v in GENERATOR_FIELDS[kind].items()}}
    for key in data.draw(st.lists(st.sampled_from(sorted(cfg)), max_size=1)):
        if data.draw(st.booleans()):
            del cfg[key]
        else:
            cfg[key] = data.draw(small_values)
    config = _write_json(tmp_path / "generator.json", cfg)
    report = _write_json(tmp_path / "report.json", {"system": cfg, "lambdas": ["i"], "functions": ["gaussian"]})
    system = tmp_path / "system.json"
    out = str(tmp_path / "out")
    for command in COMMANDS:
        if command == "build":
            argv = ["build", "--config", config, "--out", str(system)]
        elif command == "report":
            argv = ["report", "--config", report, "--out", out]
        else:
            argv = [command] + (["--system", str(system)] if system.exists() else ["--config", config])
            argv += ["--out", out] if command == "st2" else []
        for flag, value in data.draw(st.lists(st.tuples(st.sampled_from(COMMAND_FLAGS[command]), command_values), max_size=2)):
            if flag in ("-h", "--help"):
                argv.append(flag)
            elif flag == "--out":
                # Outputs stay in the example's directory.
                argv += [flag, str(system) if command == "build" else out]
            else:
                argv += [flag, value]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        _assert_clean_exit(code, capsys)


def _representation_images(blocks, u) -> np.ndarray:
    """Images U (e_kl (x) 1_m) U* in M_N of the matrix units of +_b M_{n_b},
    one (N, N) matrix per unit, for (n_b, m_b) in ``blocks``."""
    size = u.shape[0]
    images, offset = [], 0
    for n, m in blocks:
        for unit in np.eye(n * n).reshape(n * n, n, n):
            x = np.zeros((size, size), dtype=complex)
            x[offset : offset + n * m, offset : offset + n * m] = np.kron(unit, np.eye(m))
            images.append(u @ x @ u.conj().T)
        offset += n * m
    return np.array(images)


def _all_pairs_oracle_passes(dims, images) -> bool:
    """The homomorphism verdict from every product of two matrix units and
    the smallest singular value of the coordinate matrix, taken as 0 when it
    has fewer rows than columns."""
    units = [(b, k, l) for b, n in enumerate(dims) for k in range(n) for l in range(n)]
    index = {unit: i for i, unit in enumerate(units)}
    size = images.shape[-1]
    expected = np.zeros((len(units), len(units), size, size), dtype=complex)
    for a, (b, k, l) in enumerate(units):
        for c, (b2, l2, q) in enumerate(units):
            if (b, l) == (b2, l2):
                expected[a, c] = images[index[b, k, q]]
    norm = lambda x: np.linalg.norm(x, ord=2, axis=(-2, -1))  # noqa: E731
    unit = sum(images[index[b, k, k]] for b, k, l in units if k == l) - np.eye(size)
    star = np.array([images[index[b, l, k]] - images[index[b, k, l]].conj().T for b, k, l in units])
    residuals = [norm(unit), norm(images[:, None] @ images[None, :] - expected).max(), norm(star).max()]
    matrix = images.reshape(len(units), -1).T
    margin = np.linalg.svd(matrix, compute_uv=False)[-1] if matrix.shape[0] >= matrix.shape[1] else 0.0
    return max(residuals) <= VALIDATION_TOL and margin > VALIDATION_TOL


# Representations a -> U (+_b a_b (x) 1_{m_b}) U* into M_N with at most three
# blocks of size at most 3 and a random unitary U: m_b = 0 drops a block (not
# faithful), and moving one image coordinate breaks unitality or the star.
@FUZZ_SETTINGS
@given(
    blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)), min_size=1, max_size=3).filter(
        lambda blocks: any(m for _, m in blocks)
    ),
    seed=st.integers(0, 2**32 - 1),
    move=st.none() | st.tuples(st.integers(0, 10**6), st.floats(1e-6, 1.0), st.sampled_from([1, -1, 1j, -1j])),
)
def test_explicit_representation_matches_all_pairs_oracle(tmp_path, capsys, blocks, seed, move):
    dims = tuple(n for n, _ in blocks)
    size = sum(n * m for n, m in blocks)
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))[0]
    images = _representation_images(blocks, u)
    if move is not None:
        where, amount, phase = move
        images.reshape(-1)[where % images.size] += amount * phase
    rep = dense_representation(FiniteCStarAlgebra(dims), images)
    passed = _all_pairs_oracle_passes(dims, images)
    assert hom_validate(rep).passed == passed
    path = tmp_path / "representation.json"
    save_system(InductiveSystem((FiniteSpectralTriple(rep, np.zeros((size, size))),), ()), str(path))
    code = main(["validate", "--system", str(path)])
    _assert_clean_exit(code, capsys)
    assert code == (0 if passed else 1)


@functools.cache
def _gns_links():
    return (
        ci_system(tensor_chain(3, np.random.default_rng(11)), 3).links
        + ci_system(doubled_chain(np.random.default_rng(6))[0], 2).links
    )


def _rotated(t: FiniteSpectralTriple, u) -> FiniteSpectralTriple:
    """The diagonal triple t carried by the unitary u into a dense representation."""
    fibres = [u @ np.diag((t.rep.spectrum_map == i).astype(complex)) @ u.conj().T for i in range(t.algebra.n_points)]
    return FiniteSpectralTriple(dense_representation(t.algebra, fibres), u @ t.dirac @ u.conj().T)


# Links of random commutative systems (phi as a spectrum map or an explicit
# matrix, target diagonal or rotated to a dense representation) and of the
# M_8 tensor chain and the doubled chain, with a perturbed isometry and
# sometimes one moved entry of an explicit phi.  Whenever phi and both
# representations pass ``hom_validate``, ||I pi1(a) - pi2(phi(a)) I|| <=
# 2 ||a|| ||I - E(I)|| for random elements a.
@FUZZ_SETTINGS
@given(
    system=st.none() | st.integers(0, 2**32 - 1),
    pick=st.integers(0, 10**6),
    explicit=st.booleans(),
    dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-9, 1.0),
    move=st.none() | st.tuples(st.integers(0, 10**6), st.floats(1e-9, 1.0)),
)
def test_intertwining_residual_bounds_every_element(system, pick, explicit, dense, seed, scale, move):
    rng = np.random.default_rng(seed)
    if system is None:
        links = _gns_links()
    else:
        links = random_commutative_system(np.random.default_rng(system), max_dim=12).links
    link = links[pick % len(links)]
    source, target, phi, iso = link.source, link.target, link.phi, link.iso.astype(complex)
    if system is not None and dense:
        size = target.hilbert_dim
        u = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))[0]
        target, iso = _rotated(target, u), u @ iso
    if explicit or phi.spectrum_map is None:
        matrix = phi.as_matrix().copy()
        if move is not None:
            matrix.reshape(-1)[move[0] % matrix.size] += move[1]
        phi = StarHomomorphism(phi.source, phi.target, matrix=matrix)
    mask = rng.random(iso.shape) < 0.3
    iso = iso + scale * mask * (rng.normal(size=iso.shape) + 1j * rng.normal(size=iso.shape))
    if not all(hom_validate(h).passed for h in (phi, source.rep, target.rep)):
        return
    residual = validate_morphism(TripleMorphism(source, target, phi, iso)).entries["algebra_intertwining"]
    algebra = source.algebra
    for coords in rng.normal(size=(4, algebra.element_dim)) + 1j * rng.normal(size=(4, algebra.element_dim)):
        a = algebra.from_coordinates(coords)
        defect = np.linalg.norm(iso @ source.represent(a) - target.represent(phi.apply(a)) @ iso, ord=2)
        assert defect <= 2 * a.norm() * residual * (1 + 1e-9) + 1e-12


# The scalars of the public API sweep below: numbers that some rule of the
# library refuses, complex probes, and small integers (the library
# generators have no size guard, the config path has one, so an integer that
# sizes an allocation stays small).
BAD_NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320, -3, 2.5, True]
BAD_PROBES = [complex(math.nan, 1.0), complex(0.0, math.inf), complex(1e308, 1e308)]


# The values each argument's rule refuses.
def anything(v):
    return False


def not_positive(v):
    return not (math.isfinite(v) and v > 0)


def not_nonnegative(v):
    return not (math.isfinite(v) and v >= 0)


def not_finite(v):
    return not cmath.isfinite(v)


def not_probe(v):
    return not (cmath.isfinite(v) and complex(v).imag != 0.0)


def outside(low, high=math.inf):
    """Refuses all but the integers (not bools) in [low, high]."""
    return lambda v: isinstance(v, bool) or not isinstance(v, int) or not low <= v <= high


def _sweep_cases():
    """(label, refused, call) for one argument of each public entry point,
    first those that take real scalars, then the resolvent probes, which
    also take complex ones; ``call`` passes its argument there and valid
    values everywhere else."""
    seq = middle_thirds(3)
    cantor = cantor_system(seq, 3)
    r = realize(cantor)
    ci = ci_system(commutative_af_chain(binary_branching(2), [0.25] * 4, [1.0, 2.0]), 2)
    series, probe = gap_series(r, lam=1j), default_st2_probe(cantor)
    element = cantor.triples[1].algebra.basis_element(0)
    level = outside(0, 3)

    def ci_chain(weight=0.25, alpha=2.0):
        return commutative_af_chain(binary_branching(2), [weight, 0.25, 0.25, 0.25], [1.0, alpha])

    scalars = [
        ("resolvent_gap j", level, lambda v: resolvent_gap(r, v, 1j)),
        ("resolvent_gap_eigen j", level, lambda v: resolvent_gap_eigen(r, v, 1j)),
        ("function_gap j", level, lambda v: function_gap(r, v, FUNCTION_PROBES["gaussian"])),
        ("gap_series j_range", level, lambda v: gap_series(r, lam=1j, j_range=[0, v])),
        ("gap_series function j_range", level, lambda v: gap_series(r, f_name="gaussian", j_range=[v])),
        ("analytic_gap_bound cantor j", level, lambda v: analytic_gap_bound(cantor, v, 1j)),
        ("analytic_gap_bound ci j", outside(0, 2), lambda v: analytic_gap_bound(ci, v, 1j)),
        ("commutator_series j", level, lambda v: commutator_series(cantor, v, element)),
        ("default_st2_probe levels", level, lambda v: default_st2_probe(cantor, levels=[v])),
        ("st1_verdict threshold", not_positive, lambda v: st1_verdict(series, threshold=v)),
        ("st1_verdict window", outside(2), lambda v: st1_verdict(series, window=v)),
        ("st2_verdict bound", not_nonnegative, lambda v: st2_verdict(probe, bound=v)),
        ("Realization.level_decomposition j", level, r.level_decomposition),
        ("Realization.rotation j", level, r.rotation),
        ("Realization.increment_spectrum k", outside(1, 3), r.increment_spectrum),
        ("middle_thirds levels", outside(0), middle_thirds),
        ("cantor_system levels", level, lambda v: cantor_system(seq, v)),
        ("binary_branching levels", outside(0), binary_branching),
        ("ci_system levels", outside(0, 2), lambda v: ci_system(ci_chain(), v)),
        ("theta j", level, lambda v: theta(seq, v, 0.5)),
        ("theta x", anything, lambda v: theta(seq, 2, v)),
        ("theta_index j", level, lambda v: theta_index(seq, v, 0.5)),
        ("GapSequence x0_plus", not_finite, lambda v: cantor_system(GapSequence(v, 1.0, ()), 0)),
        # With x0_plus = 0 the outer length is x0_minus, and D_0 has weight 1/length.
        ("GapSequence x0_minus", not_positive, lambda v: cantor_system(GapSequence(0.0, v, ()), 0)),
        ("GapSequence gap end", not_finite, lambda v: cantor_system(GapSequence(0.0, 1.0, ((1 / 3, v),)), 1)),
        ("commutative_af_chain weight", not_positive, lambda v: ci_chain(weight=v)),
        ("commutative_af_chain alpha", not_finite, lambda v: ci_chain(alpha=v)),
        ("random_gap_sequence levels", outside(0), lambda v: random_gap_sequence(np.random.default_rng(0), v)),
        ("random_af_chain levels", outside(0), lambda v: random_af_chain(np.random.default_rng(0), v)),
        ("State.from_weights weight", not_positive, lambda v: State.from_weights(FiniteCStarAlgebra((1, 1)), [v, 1.0])),
        ("FiniteCStarAlgebra block dim", outside(1), lambda v: FiniteCStarAlgebra((1, v))),
        ("connes_distance x", outside(0, 2), lambda v: connes_distance(cantor.triples[2], v, 0)),
        ("connes_distance_with_path y", outside(0, 2), lambda v: connes_distance_with_path(cantor.triples[2], 0, v)),
    ]
    probes = [
        ("resolvent_gap lam", not_probe, lambda v: resolvent_gap(r, 1, v)),
        ("resolvent_gap_eigen lam", not_probe, lambda v: resolvent_gap_eigen(r, 1, v)),
        ("gap_series lam", not_probe, lambda v: gap_series(r, lam=v)),
        ("analytic_gap_bound cantor lam", not_probe, lambda v: analytic_gap_bound(cantor, 1, v)),
        ("analytic_gap_bound ci lam", not_probe, lambda v: analytic_gap_bound(ci, 0, v)),
        ("resolvent lam", not_finite, lambda v: resolvent(np.diag([1.0, 2.0]), v)),
    ]
    return scalars + probes, probes


SWEEP, PROBE_SWEEP = _sweep_cases()


# Each example passes one drawn scalar to every entry point that takes its
# kind.  A call may only return or raise a SpectralLimitsError, and a value
# that the argument's rule refuses must raise a ValidationError.  A
# RuntimeWarning fails too, since tier-1 turns it into an error.
@settings(derandomize=True, deadline=None)
@given(value=st.sampled_from(BAD_NUMBERS + BAD_PROBES) | st.integers(-3, 8))
def test_public_api_rules(value):
    for label, refused, call in PROBE_SWEEP if isinstance(value, complex) else SWEEP:
        try:
            call(value)
        except SpectralLimitsError as exc:
            assert isinstance(exc, ValidationError) or not refused(value), f"{label}: {exc!r}"
        else:
            assert not refused(value), f"{label} accepted {value!r}"

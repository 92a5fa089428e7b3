"""CLI integration: subcommands, exit codes, determinism."""

import base64
import copy
import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spectral_limits import (
    FiniteCStarAlgebra,
    FiniteSpectralTriple,
    InductiveSystem,
    StarHomomorphism,
    TripleMorphism,
    cantor_system,
    default_st2_probe,
    dense_representation,
    diagonal_representation,
    gap_series,
    load_system,
    middle_thirds,
    realize,
    resolvent_gap_eigen,
    save_system,
    st1_verdict,
)
from spectral_limits import cli, distance
from spectral_limits.cli import build_parser, main, parse_complex, parse_lambdas, parse_levels
from spectral_limits.diagnostics import FUNCTION_PROBES, VERDICT_THRESHOLD, VERDICT_WINDOW
from spectral_limits.errors import ValidationError
from spectral_limits.linalg import lanczos_start
from spectral_limits.serialization import dumps, matrix_from_json, matrix_to_json

from test_diagnostics import growing_commutator_system
from test_exports import run_python

# Binary Christensen-Ivan system with two levels; D_0 = 0.
CI2 = {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": [1.0, 2.0], "levels": 2}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def cantor_file(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"type": "cantor", "gaps": "middle-thirds", "levels": 6})
    out = tmp_path / "cantor.json"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    return str(out)


class TestParsers:
    def test_complex_forms(self):
        assert parse_complex("i") == 1j
        assert parse_complex("2i") == 2j
        assert parse_complex("1+i") == 1 + 1j
        assert parse_complex("-0.5-2i") == -0.5 - 2j
        assert parse_complex("3") == 3 + 0j
        with pytest.raises(ValidationError):
            parse_complex("one")

    @pytest.mark.parametrize("text", ["nan+1i", "nan", "1e999i", "-1e999+2i"])
    def test_complex_non_finite_rejected(self, text):
        with pytest.raises(ValidationError, match="resolvent probe must be finite"):
            parse_lambdas([text])

    def test_levels(self):
        assert parse_levels("0..3", 6) == [0, 1, 2, 3]
        assert parse_levels("4", 6) == [4]
        with pytest.raises(ValidationError):
            parse_levels("5..2", 6)
        with pytest.raises(ValidationError):
            parse_levels("0..9", 6)

    @pytest.mark.parametrize(
        "command, levels", [("st1", "abc"), ("st1", "1..x"), ("st2", "q"), ("st1", ""), ("st2", "")]
    )
    def test_unparsable_levels_exit2(self, cantor_file, tmp_path, capsys, command, levels):
        rc = main([command, "--system", cantor_file, "--levels", levels, "--out", str(tmp_path / "l")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "l.csv").exists()


BAD_LEVELS = ["abc", 2.5, True, -1, None, [3]]


class TestGeneratorLevels:
    @pytest.mark.parametrize("levels", BAD_LEVELS)
    @pytest.mark.parametrize(
        "command",
        [
            ["build", "--out", "x.json"],
            ["validate"],
            ["st1"],
            ["st2"],
            ["distance", "--level", "0", "--x", "0", "--y", "0"],
            ["report"],
        ],
        ids=lambda c: c[0],
    )
    def test_bad_levels_exit2(self, tmp_path, capsys, command, levels):
        system = {"type": "cantor", "gaps": "middle-thirds", "levels": levels}
        if command[0] == "report":
            cfg = write_json(tmp_path / "run.json", {"system": system, "lambdas": ["i"]})
        else:
            cfg = write_json(tmp_path / "cfg.json", system)
        args = [command[0], "--config", cfg] + [str(tmp_path / a) if a.endswith(".json") else a for a in command[1:]]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "levels" in err and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

    def test_levels_zero_builds(self, tmp_path):
        cfg = write_json(tmp_path / "c0.json", {"type": "cantor", "gaps": "middle-thirds", "levels": 0})
        out = tmp_path / "c0sys.json"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        assert load_system(str(out)).top_level == 0


CI2 = {"type": "christensen-ivan", "chain": "binary", "alphas": [1, 2], "levels": 2}
MALFORMED_GENERATORS = {
    "alphas-str": dict(CI2, alphas="ab"),
    "alpha-str": dict(CI2, alphas=[1, "2"]),
    "no-alphas": {k: v for k, v in CI2.items() if k != "alphas"},
    "weights-str": dict(CI2, weights="ab"),
    "branching-str": dict(CI2, chain={"branching": "ab"}),
    "branching-float": dict(CI2, chain={"branching": [[0, 0.5]]}),
    "branching-huge": dict(CI2, chain={"branching": [[0, 10**30]]}),
    "gap-short": {"type": "cantor", "gaps": [[0, 1], [0.2]], "levels": 1},
    "gap-str": {"type": "cantor", "gaps": [[0, 1], "ab"], "levels": 1},
    "gap-null": {"type": "cantor", "gaps": [[0, 1], [0.4, None]], "levels": 1},
    "grading-str": {"type": "cantor", "levels": 2, "grading": "false"},
    "grading-list": {"type": "cantor", "levels": 2, "grading": []},
}

_CI_REPORT_SIZES = [1, 2, 3, 6, 12, 24, 48, 96]
# SHA-256 of the ``build`` output of six configs: Cantor J=18, binary CI
# J=8 (alpha_j = j), CI J=7 on the point chain 1, 2, 3, 6, ..., 96
# (alpha_j = (-1)^j, point k of level i+1 over point k size_i // size_{i+1}),
# ungraded Cantor J=80, the README's explicit-gaps Cantor config and a CI
# chain with fibres of sizes 1 and 3 under non-uniform weights.
GOLDEN_BUILDS = {
    "cantor-18": (
        {"type": "cantor", "gaps": "middle-thirds", "levels": 18},
        "a6cb72adc472b81a5d1ddb6d29c2c6e2026b8960b6cf9a2b2b2cd6f945ef4c7f",
    ),
    "ci-binary-8": (
        {"type": "christensen-ivan", "chain": "binary", "weights": "uniform",
         "alphas": [float(j) for j in range(1, 9)], "levels": 8},
        "fbd534f3a1a959e821366a0b7a47c0e9aa5dbd2923782ea18c1f6ca014b18a03",
    ),
    "ci-chain-7": (
        {"type": "christensen-ivan",
         "chain": {"branching": [[k * a // b for k in range(b)] for a, b in zip(_CI_REPORT_SIZES, _CI_REPORT_SIZES[1:])]},
         "weights": "uniform", "alphas": [float((-1) ** j) for j in range(1, 8)], "levels": 7},
        "61df00a946df78a4f71b3cd277537054fd33472cfd8038f2a251ed0cb9c560be",
    ),
    "cantor-80-ungraded": (
        {"type": "cantor", "gaps": "middle-thirds", "levels": 80, "grading": False},
        "2b5092cbce1bc8e775d8db169faba7e7cdbbd80f177fbf0a16732fe8b69026a7",
    ),
    "cantor-explicit-gaps": (
        {"type": "cantor", "gaps": [[0.0, 1.0], [0.4, 0.7], [0.1, 0.3]], "levels": 2},
        "b54c02e5e653592878ea0ad52034ecd1b1d5f468342e212b523e10a134a4d5c7",
    ),
    "ci-fibres-1-3": (
        {"type": "christensen-ivan", "chain": {"branching": [[0, 0], [0, 1, 1, 1]]},
         "weights": [0.1, 0.2, 0.3, 0.4], "alphas": [1.5, -2.0], "levels": 2},
        "6b17917824ea6b64f1e987466dd09b9a16791f0fe90cc8f118d6a6eaa75f7185",
    ),
}


class TestBuild:
    def test_cantor_dims(self, cantor_file):
        system = load_system(cantor_file)
        assert [t.hilbert_dim for t in system.triples] == [2, 4, 6, 8, 10, 12, 14]

    def test_ci_dims(self, tmp_path):
        cfg = write_json(
            tmp_path / "ci.json",
            {
                "type": "christensen-ivan",
                "chain": "binary",
                "weights": "uniform",
                "alphas": [1, 2, 3, 4],
                "levels": 4,
            },
        )
        out = tmp_path / "ci_sys.json"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        assert [t.hilbert_dim for t in load_system(str(out)).triples] == [1, 2, 4, 8, 16]

    def test_malformed_config_exit2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["build", "--config", str(bad), "--out", str(tmp_path / "x.json")]) == 2
        missing = write_json(tmp_path / "m.json", {"type": "cantor"})
        assert main(["build", "--config", missing, "--out", str(tmp_path / "y.json")]) == 2

    def test_two_builds_byte_identical_v3(self, tmp_path, cantor_file):
        again = tmp_path / "again.json"
        assert main(["build", "--config", str(tmp_path / "cfg.json"), "--out", str(again)]) == 0
        assert again.read_bytes() == open(cantor_file, "rb").read()
        assert json.loads(again.read_text())["format"] == "spectral-limits/system-v3"

    @pytest.mark.parametrize("name", GOLDEN_BUILDS.keys())
    def test_build_bytes_pinned(self, tmp_path, name):
        # Pins the generators and the writer bit for bit: two builds agreeing
        # with each other would not catch a change of either.
        cfg, digest = GOLDEN_BUILDS[name]
        out = tmp_path / "system.json"
        assert main(["build", "--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_ci_wide_file_is_float64(self, tmp_path):
        # The binary CI J=8 system (dim 256) is real: every matrix object
        # holds 8 bytes per entry, and the file stays under 1.5 MB (it was
        # 2.8 MB with complex128 data).
        cfg = {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": list(range(1, 9)), "levels": 8}
        out = tmp_path / "ci8.json"
        assert main(["build", "--config", write_json(tmp_path / "ci8_cfg.json", cfg), "--out", str(out)]) == 0
        assert out.stat().st_size <= 1_500_000
        doc = json.loads(out.read_text())
        matrices = [t["dirac"] for t in doc["triples"]] + [link["iso"] for link in doc["links"]]
        assert len(matrices) == 17
        for m in matrices:
            rows, cols = m["shape"]
            assert len(base64.b64decode(m["data"])) == 8 * rows * cols

    @pytest.mark.parametrize("cfg", MALFORMED_GENERATORS.values(), ids=MALFORMED_GENERATORS.keys())
    def test_malformed_generator_fields_exit2(self, tmp_path, capsys, cfg):
        out = tmp_path / "x.json"
        assert main(["build", "--config", write_json(tmp_path / "bad.json", cfg), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"type": "christensen-ivan", "chain": "binary", "alphas": [1.0] * 40, "levels": 40},
            {"type": "cantor", "gaps": "middle-thirds", "levels": 100000},
        ],
        ids=["binary-ci-40", "cantor-100000"],
    )
    def test_oversized_config_exit2_before_allocating(self, tmp_path, capsys, cfg):
        out = tmp_path / "big.json"
        start = time.perf_counter()
        assert main(["build", "--config", write_json(tmp_path / "big_cfg.json", cfg), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, cfg, rc",
        [
            ("build", {**CI2, "weights": [1e308, 1e308], "alphas": [1.0], "levels": 1}, 0),
            ("build", {"type": "cantor", "gaps": [[0.0, 1e-320]], "levels": 0}, 2),
            ("validate", {**CI2, "weights": "uniform", "alphas": [1e200, 1.0]}, 1),
        ],
        ids=["weight-sum-overflow", "gap-reciprocal-overflow", "frobenius-overflow"],
    )
    def test_extreme_numbers_without_warning(self, tmp_path, capsys, command, cfg, rc):
        # Each printed a numpy RuntimeWarning; the weights also failed as not faithful.
        argv = [command, "--config", write_json(tmp_path / "extreme.json", cfg)]
        assert main(argv + (["--out", str(tmp_path / "s.json")] if command == "build" else [])) == rc
        assert "Warning" not in capsys.readouterr().err

    def test_generator_rejection_exit2(self, tmp_path, capsys):
        # A config the generator rejects (a zero alpha, fewer alphas than
        # chain steps) is an input error for every command.
        for alphas in ([0.0, 1.0], [1.0]):
            cfg = write_json(tmp_path / "rejected.json", dict(CI2, alphas=alphas))
            out = tmp_path / "z.json"
            assert main(["build", "--config", cfg, "--out", str(out)]) == 2
            assert main(["validate", "--config", cfg]) == 2
            assert "Traceback" not in capsys.readouterr().err
            assert not out.exists()


class TestValidate:
    def test_generated_passes(self, cantor_file):
        assert main(["validate", "--system", cantor_file]) == 0

    def test_corrupted_isometry_exit1_names_link(self, tmp_path, cantor_file, capsys):
        doc = json.loads(open(cantor_file).read())
        iso = matrix_from_json(doc["links"][3]["iso"])
        iso[0, 0] = 0.25
        doc["links"][3]["iso"] = matrix_to_json(iso)
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--system", str(bad)]) == 1
        assert "link 3" in capsys.readouterr().out

    def test_non_involutive_grading_exit1_names_triple(self, tmp_path, cantor_file, capsys):
        doc = json.loads(open(cantor_file).read())
        grading = matrix_from_json(doc["triples"][2]["grading"])
        grading[0, 1] = grading[1, 0] = 0.5
        doc["triples"][2]["grading"] = matrix_to_json(grading)
        bad = tmp_path / "grading.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--system", str(bad)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL triple 2: FAIL(grading_involution)")

    def test_wide_dense_representation_exit1(self, tmp_path, capsys):
        # C^3 on C by evaluation at point 0 (D = 0): not faithful, since
        # the other two points act as 0.
        rep = dense_representation(FiniteCStarAlgebra((1, 1, 1)), [[[1]], [[0]], [[0]]])
        path = tmp_path / "wide.json"
        save_system(InductiveSystem((FiniteSpectralTriple(rep, np.zeros((1, 1))),), ()), str(path))
        assert main(["validate", "--system", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL triple 0: FAIL(faithfulness_defect)")
        assert "Traceback" not in captured.err

    def test_explicit_top_phi_matches_spectrum_map(self, tmp_path, capsys):
        # Binary CI J=8 with the top link's phi written as explicit_linear:
        # the same line as the spectrum-map file, and no stack of per-element
        # residuals (the basis-stacked route peaked at 27 MiB).  An iso entry
        # between points of different labels, or a moved row of the explicit
        # phi (still a surjective pullback), fails the algebra intertwining.
        cfg = write_json(tmp_path / "cfg.json", dict(CI2, alphas=[float(j) for j in range(1, 9)], levels=8))
        path = tmp_path / "ci8.json"
        assert main(["build", "--config", cfg, "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["validate", "--system", str(path)]) == 0
        want = capsys.readouterr().out
        assert want.startswith("pass: 9 triples, 8 links")
        link = load_system(str(path)).links[-1]
        doc = json.loads(path.read_text())
        phi = link.phi.as_matrix().real
        doc["links"][-1]["phi"]["encoding"] = {"kind": "explicit_linear", "matrix": matrix_to_json(phi)}
        explicit = write_json(tmp_path / "explicit.json", doc)
        tracemalloc.start()
        try:
            assert main(["validate", "--system", explicit]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == want
        assert peak <= 8 * 2**20
        labels = link.phi.spectrum_map[link.target.rep.spectrum_map]
        col = int(np.flatnonzero(link.source.rep.spectrum_map != labels[0])[0])
        iso = link.iso.copy()
        iso[0, col] = 0.25
        doc["links"][-1]["iso"] = matrix_to_json(iso)
        assert main(["validate", "--system", write_json(tmp_path / "iso.json", doc)]) == 1
        captured = capsys.readouterr()
        failures = captured.out.split("FAIL(", 1)[1].split(")", 1)[0].split(",")
        assert captured.out.startswith("FAIL link 7: FAIL(") and "algebra_intertwining" in failures
        assert "Traceback" not in captured.err
        doc["links"][-1]["iso"] = matrix_to_json(link.iso)
        moved = phi.copy()
        moved[2] = np.eye(phi.shape[1])[link.phi.spectrum_map[2] + 1]
        doc["links"][-1]["phi"]["encoding"]["matrix"] = matrix_to_json(moved)
        assert main(["validate", "--system", write_json(tmp_path / "moved.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL link 7: FAIL(algebra_intertwining): ")
        assert "algebra_intertwining=7.07e-01" in captured.out
        assert "Traceback" not in captured.err

    def test_truncated_exit2(self, tmp_path, cantor_file):
        text = open(cantor_file).read()
        trunc = tmp_path / "trunc.json"
        trunc.write_text(text[: len(text) // 3])
        assert main(["validate", "--system", str(trunc)]) == 2


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def _extra_link(doc):
    doc["links"].append(copy.deepcopy(doc["links"][0]))


ZERO = {"re": 0.0, "im": 0.0}
FOUR_BY_FOUR = matrix_to_json(np.zeros((4, 4)))

MALFORMED_SYSTEMS = {
    "no-triples": _set(["triples"], []),
    "triples-int": _set(["triples"], 5),
    "extra-link": _extra_link,
    "block-dims-str": _set(["triples", 0, "algebra", "block_dims"], "ab"),
    "coord-points-str": _set(["triples", 0, "representation", "coord_points"], "x"),
    # Integer fields take JSON integers only: no strings, bools or floats.
    "block-dims-digit-str": _set(["triples", 0, "algebra", "block_dims"], "1"),
    "block-dims-bool": _set(["triples", 0, "algebra", "block_dims"], [True]),
    "block-dims-float": _set(["triples", 0, "algebra", "block_dims"], [1.9]),
    "coord-points-float": _set(["triples", 1, "representation", "coord_points"], [0.2, 0.9, 1.7, 1.1]),
    "map-float": _set(["links", 0, "phi", "encoding", "map"], [0.4, 0.0]),
    "map-bool": _set(["links", 0, "phi", "encoding", "map"], [False, False]),
    "ragged-dirac": _set(["triples", 0, "dirac"], [[ZERO, ZERO], [ZERO]]),
    "re-str": _set(["triples", 0, "dirac"], [[{"re": "x", "im": 0.0}, ZERO], [ZERO, ZERO]]),
    "provenance-list": _set(["provenance"], []),
    "meta-str": _set(["triples", 0, "meta"], "x"),
    # Matrix objects: shape, data type, base64 and byte length (8 or 16 per entry).
    "shape-one-int": _set(["triples", 1, "dirac", "shape"], [16]),
    "shape-zero": _set(["triples", 1, "dirac", "shape"], [4, 0]),
    "shape-negative": _set(["triples", 1, "dirac", "shape"], [-4, -4]),
    "shape-float": _set(["triples", 1, "dirac", "shape"], [4, 4.0]),
    "shape-bool": _set(["triples", 1, "dirac", "shape"], [4, True]),
    "shape-str": _set(["triples", 1, "dirac", "shape"], "4x4"),
    "data-int": _set(["triples", 1, "dirac", "data"], 5),
    "data-null": _set(["triples", 1, "dirac", "data"], None),
    "data-bad-char": _set(["triples", 1, "dirac", "data"], "*" + FOUR_BY_FOUR["data"][1:]),
    "data-bad-padding": _set(["triples", 1, "dirac", "data"], FOUR_BY_FOUR["data"][:-1]),
    "data-newline": _set(["triples", 1, "dirac", "data"], FOUR_BY_FOUR["data"][:8] + "\n" + FOUR_BY_FOUR["data"][8:]),
    "data-short": _set(["triples", 1, "dirac", "data"], FOUR_BY_FOUR["data"][:-4]),
    "data-wrong-shape": _set(["triples", 1, "dirac", "shape"], [4, 3]),
    "data-12-bytes-per-entry": _set(["triples", 1, "dirac", "data"], base64.b64encode(bytes(12 * 16)).decode()),
    "matrix-extra-key": _set(["triples", 1, "dirac", "dtype"], "complex64"),
    # The analytic gap bounds read the generator's lengths or alphas.
    "lengths-str": _set(["provenance", "lengths"], ["x", 1 / 3, 1 / 9]),
    "lengths-zero": _set(["provenance", "lengths"], [0, 1 / 3, 1 / 9]),
    "lengths-negative": _set(["provenance", "lengths"], [1.0, -1 / 3, 1 / 9]),
    "lengths-int": _set(["provenance", "lengths"], 5),
    "lengths-missing": _set(["provenance"], {"kind": "cantor"}),
    "alphas-str": _set(["provenance"], {"kind": "christensen-ivan", "alphas": ["a", 2.0]}),
    "alphas-null": _set(["provenance"], {"kind": "christensen-ivan", "alphas": None}),
}
# Every other command that reads a system file, with FILE in place of its path
# (REPORT: a report config whose system.path is FILE).
SYSTEM_READERS = {
    "st1": ["st1", "--system", "FILE", "--lambda", "i", "--lambda", "1+i"],
    "st2": ["st2", "--system", "FILE"],
    "distance": ["distance", "--system", "FILE", "--level", "1", "--x", "0", "--y", "1"],
    "report": ["report", "--config", "REPORT"],
}


class TestMalformedSystemFiles:
    @pytest.fixture()
    def cantor2_doc(self, tmp_path):
        cfg = write_json(tmp_path / "c2.json", {"type": "cantor", "gaps": "middle-thirds", "levels": 2})
        out = tmp_path / "c2sys.json"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    @pytest.mark.parametrize("mutate", MALFORMED_SYSTEMS.values(), ids=MALFORMED_SYSTEMS.keys())
    def test_validate_exit2_without_traceback(self, tmp_path, capsys, cantor2_doc, mutate):
        mutate(cantor2_doc)
        path = write_json(tmp_path / "bad_sys.json", cantor2_doc)
        capsys.readouterr()
        assert main(["validate", "--system", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("mutate", MALFORMED_SYSTEMS.values(), ids=MALFORMED_SYSTEMS.keys())
    @pytest.mark.parametrize("argv", SYSTEM_READERS.values(), ids=SYSTEM_READERS.keys())
    def test_every_reader_exit2_without_traceback(self, tmp_path, capsys, cantor2_doc, argv, mutate):
        mutate(cantor2_doc)
        path = write_json(tmp_path / "bad_sys.json", cantor2_doc)
        report = write_json(tmp_path / "report.json", {"system": {"path": path}, "lambdas": ["i", "1+i"]})
        capsys.readouterr()
        assert main([{"FILE": path, "REPORT": report}.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("name", [n for n in MALFORMED_SYSTEMS if n.startswith(("lengths", "alphas"))])
    def test_provenance_errors_name_the_field(self, tmp_path, capsys, cantor2_doc, name):
        MALFORMED_SYSTEMS[name](cantor2_doc)
        path = write_json(tmp_path / "bad_sys.json", cantor2_doc)
        capsys.readouterr()
        assert main(["st1", "--system", path, "--lambda", "i"]) == 2
        assert f"provenance '{name.split('-')[0]}'" in capsys.readouterr().err


# Argv of each command that reads a JSON file, with FILE in place of its path.
JSON_FILE_INPUTS = {
    "system": ["validate", "--system", "FILE"],
    "system-config": ["validate", "--config", "FILE"],
    "build-config": ["build", "--config", "FILE", "--out", "OUT"],
    "report-config": ["report", "--config", "FILE"],
    "st2-element": ["st2", "--config", "CI2", "--element", "FILE"],
}
UNREADABLE_JSON = {
    "invalid-utf8": b'{"format": "\xff"}',
    "truncated-utf8": '{"level": 1, "name": "\u00e9'.encode()[:-1],
    "not-json": b"{not json",
    "too-deep": b"[" * 100000,
    "huge-integer": b"1" * 5000,
}


class TestUnreadableJsonInputs:
    @pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
    @pytest.mark.parametrize("argv", JSON_FILE_INPUTS.values(), ids=JSON_FILE_INPUTS.keys())
    def test_exit2_naming_the_file(self, tmp_path, capsys, argv, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        paths = {"FILE": str(path), "OUT": str(tmp_path / "out.json"), "CI2": write_json(tmp_path / "ci2.json", CI2)}
        assert main([paths.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "out.json").exists()
        assert captured.err.startswith(f"error: cannot read JSON from {path}: ") and "Traceback" not in captured.err

    def test_missing_file_exit2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["validate", "--system", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read JSON from {path}: ")

    def test_report_system_path(self, tmp_path, capsys):
        system = tmp_path / "system.json"
        system.write_bytes(b'{"format": "\xff"}')
        cfg = write_json(tmp_path / "report.json", {"system": {"path": str(system)}})
        assert main(["report", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read JSON from {system}: ")


class TestUnwritableOutputs:
    @pytest.mark.parametrize(
        "argv, suffix",
        [
            (["build", "--config", "CFG", "--out", "OUT"], ""),
            (["st1", "--system", "SYS", "--lambda", "i", "--out", "OUT"], ".csv"),
            (["st2", "--system", "SYS", "--out", "OUT"], ".csv"),
            (["report", "--config", "RUN", "--out", "OUT"], ""),
        ],
        ids=["build", "st1", "st2", "report"],
    )
    def test_exit2_naming_the_file(self, tmp_path, capsys, cantor_file, argv, suffix):
        # An output in a missing directory is named as an unreadable input is.
        out = tmp_path / "missing_dir" / "x"
        paths = {
            "CFG": str(tmp_path / "cfg.json"),
            "SYS": cantor_file,
            "RUN": write_json(tmp_path / "run.json", {"system": {"path": cantor_file}}),
            "OUT": str(out),
        }
        capsys.readouterr()
        assert main([paths.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}{suffix}: ")
        assert "No such file or directory" in captured.err and "Traceback" not in captured.err


def _fmt(x):
    return "" if x is None else f"{float(x):.17g}"


class TestStreamedOutputs:
    """Outputs are written as they are encoded; their bytes are the joined
    CSV rows and ``dumps(doc) + "\\n"``, to a file or to stdout alike."""

    @staticmethod
    def run_both(argv, out, capsys):
        """(exit code, stdout) without ``--out``, then the code with it."""
        capsys.readouterr()
        code = main(argv)
        stdout = capsys.readouterr().out
        assert main(argv + ["--out", str(out)]) == code
        return code, stdout

    @staticmethod
    def assert_canonical(text):
        assert text == dumps(json.loads(text)) + "\n"

    def test_st1(self, cantor_file, tmp_path, capsys):
        argv = ["st1", "--system", cantor_file, "--lambda", "i", "--lambda", "1+i", "--function", "gaussian"]
        code, stdout = self.run_both(argv, tmp_path / "s", capsys)
        assert code == 0
        r = realize(load_system(cantor_file))
        rows = ["kind,j,lambda_re,lambda_im,f_name,gap,analytic_bound,eigen_gap_delta"]
        for lam in (1j, 1 + 1j):
            series = gap_series(r, lam=lam)
            for (j, gap), bound in zip(series.entries, series.analytic_bounds):
                delta = abs(gap - resolvent_gap_eigen(r, j, lam))
                rows.append(f"resolvent,{j},{_fmt(lam.real)},{_fmt(lam.imag)},,{_fmt(gap)},{_fmt(bound)},{_fmt(delta)}")
        rows += [f"function,{j},,,gaussian,{_fmt(gap)},," for j, gap in gap_series(r, f_name="gaussian").entries]
        csv_text, json_text = (tmp_path / "s.csv").read_text(), (tmp_path / "s.json").read_text()
        assert csv_text == "\n".join(rows) + "\n"
        self.assert_canonical(json_text)
        assert stdout == csv_text + json_text

    def test_st2(self, cantor_file, tmp_path, capsys):
        code, stdout = self.run_both(["st2", "--system", cantor_file], tmp_path / "s", capsys)
        assert code == 0
        probe = default_st2_probe(load_system(cantor_file))
        rows = ["kind,base_level,element,k,norm"] + [
            f"commutator,{s.base_level},basis{i}@{s.base_level},{k},{_fmt(v)}"
            for i, s in enumerate(probe)
            for k, v in s.entries
        ]
        csv_text, json_text = (tmp_path / "s.csv").read_text(), (tmp_path / "s.json").read_text()
        assert csv_text == "\n".join(rows) + "\n"
        self.assert_canonical(json_text)
        assert json.loads(json_text)["series_names"] == [f"basis{i}@{s.base_level}" for i, s in enumerate(probe)]
        assert stdout == csv_text + json_text

    def test_report(self, cantor_file, tmp_path, capsys):
        run = write_json(tmp_path / "run.json", {"system": {"path": cantor_file}, "lambdas": ["i"]})
        code, stdout = self.run_both(["report", "--config", run], tmp_path / "r.json", capsys)
        assert code == 0
        text = (tmp_path / "r.json").read_text()
        self.assert_canonical(text)
        assert stdout == text
        probe = default_st2_probe(load_system(cantor_file))
        assert json.loads(text)["commutator_series"] == [
            {"base_level": s.base_level, "entries": [{"k": k, "norm": v} for k, v in s.entries]} for s in probe
        ]

    @pytest.mark.parametrize("command", ["st1", "st2"])
    def test_unwritable_json_after_csv_exit2(self, cantor_file, tmp_path, capsys, command):
        out = tmp_path / "x"
        Path(f"{out}.json").mkdir()
        capsys.readouterr()
        assert main([command, "--system", cantor_file, "--levels", "0..2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: cannot write {out}.json: ")

    def test_report_memory_ceiling(self, tmp_path, capsys):
        # Middle-thirds Cantor J=40, lambda = i: 820 commutator series.  Holding
        # every entry as a dict and the whole encoded report peaks at 13 MiB.
        run = write_json(
            tmp_path / "run.json",
            {"system": {"type": "cantor", "gaps": "middle-thirds", "levels": 40}, "lambdas": ["i"]},
        )
        tracemalloc.start()
        try:
            assert main(["report", "--config", run, "--out", str(tmp_path / "r.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(json.loads((tmp_path / "r.json").read_text())["commutator_series"]) == 820
        assert peak <= 8 * 2**20


class TestSt1:
    def test_cantor_consistent_with_crosscheck(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c8.json", {"type": "cantor", "gaps": "middle-thirds", "levels": 8})
        sysf = tmp_path / "c8sys.json"
        assert main(["build", "--config", cfg, "--out", str(sysf)]) == 0
        capsys.readouterr()
        out = tmp_path / "st1"
        rc = main(["st1", "--system", str(sysf), "--lambda", "i", "--out", str(out)])
        assert rc == 0
        rows = open(str(out) + ".csv").read().strip().splitlines()
        header = rows[0].split(",")
        gap_col = header.index("gap")
        delta_col = header.index("eigen_gap_delta")
        bound_col = header.index("analytic_bound")
        for row in rows[1:]:
            cells = row.split(",")
            assert float(cells[delta_col]) <= 1e-9
            assert float(cells[gap_col]) <= float(cells[bound_col]) + 1e-12
        verdicts = json.loads(open(str(out) + ".json").read())
        assert verdicts["probes"][0]["classification"] == "consistent"

    def test_ci_alternating_inconsistent_exit1(self, tmp_path):
        cfg = write_json(
            tmp_path / "ci_alt.json",
            {
                "type": "christensen-ivan",
                "chain": "binary",
                "weights": "uniform",
                "alphas": [(-1.0) ** j for j in range(1, 9)],
                "levels": 8,
            },
        )
        sysf = tmp_path / "ci_alt_sys.json"
        assert main(["build", "--config", cfg, "--out", str(sysf)]) == 0
        out = tmp_path / "st1_alt"
        rc = main(["st1", "--system", str(sysf), "--lambda", "i", "--out", str(out)])
        assert rc == 1
        verdicts = json.loads(open(str(out) + ".json").read())
        assert verdicts["probes"][0]["classification"] == "inconsistent"

    @pytest.mark.parametrize(
        "levels, classification",
        [(12, "inconclusive"), (15, "inconclusive"), (20, "inconclusive"), (31, "inconclusive"),
         (36, "inconclusive"), (63, "inconclusive"), (10, "consistent"), (16, "consistent"),
         (18, "consistent"), (64, "consistent")],
    )
    def test_cantor_plateau_not_inconsistent_exit0(self, tmp_path, levels, classification):
        # Gaps of one subdivision depth have equal lengths, so the tail is
        # flat above the threshold at some depths; the series fell before
        # the plateau and tends to 0, so it is no stall.
        cfg = write_json(tmp_path / "cantor.json", {"type": "cantor", "gaps": "middle-thirds", "levels": levels})
        out = tmp_path / "st1"
        assert main(["st1", "--config", cfg, "--lambda", "i", "--out", str(out)]) == 0
        probe = json.loads(open(str(out) + ".json").read())["probes"][0]
        assert probe["classification"] == classification
        if classification == "inconclusive":
            assert probe["evidence"]["tail_nondecreasing"]
            assert probe["evidence"]["reason"] == "tail stalled or growing above threshold after an earlier decrease"

    @pytest.mark.parametrize("alphas, classification", [([1.0] * 7, "inconsistent"), (list(range(1, 8)), "consistent")])
    def test_ci_stall_inconsistent_growth_consistent(self, tmp_path, alphas, classification):
        cfg = write_json(
            tmp_path / "ci.json",
            {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": alphas, "levels": 7},
        )
        out = tmp_path / "st1"
        argv = ["st1", "--config", cfg, "--lambda", "i", "--lambda", "2i", "--lambda", "1+i", "--out", str(out)]
        assert main(argv) == (1 if classification == "inconsistent" else 0)
        probes = json.loads(open(str(out) + ".json").read())["probes"]
        assert [p["classification"] for p in probes] == [classification] * 3

    def test_ci_growing_alphas_consistent(self, tmp_path):
        cfg = write_json(
            tmp_path / "ci_grow.json",
            {
                "type": "christensen-ivan",
                "chain": "binary",
                "weights": "uniform",
                "alphas": list(range(1, 9)),
                "levels": 8,
            },
        )
        sysf = tmp_path / "ci_grow_sys.json"
        assert main(["build", "--config", cfg, "--out", str(sysf)]) == 0
        out = tmp_path / "st1_grow"
        assert main(["st1", "--system", str(sysf), "--lambda", "i", "--out", str(out)]) == 0

    def test_real_lambda_exit2(self, cantor_file, tmp_path):
        rc = main(["st1", "--system", cantor_file, "--lambda", "2", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--lambda", "nan+1i"],
            ["--lambda", "1e999i"],
            ["--lambda", "i", "--lambda", "2"],
            ["--threshold", "0"],
            ["--threshold", "-1"],
            ["--threshold", "nan"],
            ["--threshold", "inf"],
        ],
        ids=lambda e: " ".join(e),
    )
    def test_bad_numbers_exit2_before_output(self, cantor_file, tmp_path, capsys, extra):
        rc = main(["st1", "--system", cantor_file, "--out", str(tmp_path / "n")] + extra)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err and "Warning" not in captured.err
        assert not (tmp_path / "n.csv").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--tol-group", "1e-8"],
            ["--tol-contain", "1e-8"],
            ["--tol-group", "nan"],
            ["--tol-group", "0"],
            ["--tol-group=-1e-8"],
            ["--tol-group", "inf"],
            ["--tol-contain", "-1"],
            ["--tol-contain", "nan"],
            ["--tol-contain", "0"],
        ],
        ids=lambda e: " ".join(e),
    )
    def test_removed_tolerance_flags_exit2(self, cantor_file, tmp_path, capsys, extra):
        # The eigenprojection route has no clustering or containment
        # tolerance, so argparse refuses both flags as unknown.
        with pytest.raises(SystemExit) as exc:
            main(["st1", "--system", cantor_file, "--out", str(tmp_path / "n")] + extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ") and extra[0].split("=")[0] in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "n.csv").exists() and not (tmp_path / "n.json").exists()

    @pytest.mark.parametrize("window", ["0", "1", "-2"])
    def test_window_below_two_exit2(self, cantor_file, tmp_path, capsys, window):
        rc = main(["st1", "--system", cantor_file, "--window", window, "--out", str(tmp_path / "w")])
        assert rc == 2
        assert "--window" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    def test_function_probe_rows(self, cantor_file, tmp_path):
        out = tmp_path / "st1f"
        rc = main(
            [
                "st1",
                "--system",
                cantor_file,
                "--lambda",
                "i",
                "--function",
                "one_over_one_plus_x2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        body = open(str(out) + ".csv").read()
        assert "function" in body and "one_over_one_plus_x2" in body


def _planted_miss_system(n: int = 8):
    """Two levels: C on C^1 with D_0 = 0, and C by scalars on C^n with isometry u.

    D_1 is 0 on u, 0.1 on a unit vector e orthogonal to u and to the Lanczos
    start vector, and 5 elsewhere, so the top singular value of the level-0
    gap at i, 1/|0.1 - i|, lies on e, which the Krylov space reaches only
    through rounding.
    """
    u = np.zeros(n, dtype=complex)
    u[0] = 1.0
    q = lanczos_start(n)
    q = q - np.vdot(u, q) * u
    q /= np.linalg.norm(q)
    e = np.zeros(n, dtype=complex)
    e[1] = 1.0
    for b in (u, q):
        e -= np.vdot(b, e) * b
    e /= np.linalg.norm(e)
    dirac = 5.0 * (np.eye(n) - np.outer(u, u.conj())) - 4.9 * np.outer(e, e.conj())
    algebra = FiniteCStarAlgebra((1,))
    t0 = FiniteSpectralTriple(diagonal_representation(algebra, np.zeros(1, dtype=int)), np.zeros((1, 1)))
    t1 = FiniteSpectralTriple(diagonal_representation(algebra, np.zeros(n, dtype=int)), dirac)
    link = TripleMorphism(t0, t1, StarHomomorphism.identity(algebra), u[:, np.newaxis])
    return InductiveSystem((t0, t1), (link,))


def _planted_link_file(tmp_path) -> str:
    """Cantor J=5 with link 2 left-multiplied by a random unitary, so that it
    no longer intertwines the Dirac operators: the direct route applies the
    planted link, the eigen route reads the increment spectra, and the
    routes part (by 0.134 at lambda=i)."""
    system = cantor_system(middle_thirds(6), 5)
    link = system.links[2]
    n = link.target.hilbert_dim
    rng = np.random.default_rng(0)
    unitary = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    links = list(system.links)
    links[2] = TripleMorphism(link.source, link.target, link.phi, unitary @ link.iso)
    sysf = tmp_path / "planted_link.json"
    save_system(InductiveSystem(system.triples, tuple(links), system.provenance), str(sysf))
    return str(sysf)


# Resolvent probes that exit 2: each probe, the reason in its message and the
# probe as the message prints it.
UNUSABLE_PROBES = [("1e-320j", "non-finite", "1e-320j"), ("1e308+1e308i", "too large", "(1e+308+1e+308j)")]


def _assert_one_warning_per_lambda(err: str, lambdas) -> None:
    warnings = err.splitlines()
    assert len(warnings) == len(lambdas)
    for line, lam in zip(warnings, lambdas):
        assert line.startswith("warning: ") and f"lambda={lam:g}, j=" in line


class TestSt1CrossCheck:
    def test_no_warning_at_defaults(self, cantor_file, capsys):
        capsys.readouterr()
        assert main(["st1", "--system", cantor_file]) == 0
        assert capsys.readouterr().err == ""

    def test_disagreeing_routes_warn_without_changing_output(self, tmp_path, capsys):
        # st1 does not validate first, so the planted link reaches both routes.
        sysf = _planted_link_file(tmp_path)
        out = tmp_path / "wide"
        capsys.readouterr()
        lambdas = (1j, 2j)
        argv = ["st1", "--system", str(sysf), "--lambda", "i", "--lambda", "2i", "--out", str(out)]
        r = realize(load_system(str(sysf)))
        verdicts = [st1_verdict(gap_series(r, lam=lam)).classification for lam in lambdas]
        assert main(argv) == (1 if "inconsistent" in verdicts else 0)
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out}.csv and {out}.json\n"
        _assert_one_warning_per_lambda(captured.err, lambdas)
        probes = json.loads(Path(f"{out}.json").read_text())["probes"]
        assert [p["classification"] for p in probes] == verdicts
        assert all(p["max_eigen_gap_delta"] > 1e-9 for p in probes)

    def test_planted_top_singular_value_found_or_caught(self, tmp_path, capsys):
        sysf = tmp_path / "planted_system.json"
        save_system(_planted_miss_system(), str(sysf))
        out = tmp_path / "planted"
        capsys.readouterr()
        assert main(["st1", "--system", str(sysf), "--lambda", "i", "--out", str(out)]) in (0, 1)
        err = capsys.readouterr().err
        delta = json.loads((tmp_path / "planted.json").read_text())["probes"][0]["max_eigen_gap_delta"]
        found = delta <= 1e-9 and "warning" not in err
        caught = delta > 1e-9 and err.startswith("warning: ") and "j=0" in err
        assert found or caught, (delta, err)

    # D_0 = 0, so the level-0 resolvent at 1e-320i overflows; at 1e308+1e308i
    # numpy's complex division overflows and would give gap 0 at every level.
    @pytest.mark.parametrize("lam, reason, shown", UNUSABLE_PROBES, ids=["underflowing", "huge"])
    def test_unusable_probe_exit2(self, tmp_path, capsys, lam, reason, shown):
        cfg = write_json(
            tmp_path / "ci2.json",
            {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": [1.0, 2.0], "levels": 2},
        )
        assert main(["st1", "--config", cfg, "--lambda", lam, "--out", str(tmp_path / "u")]) == 2
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err
        assert "RuntimeWarning" not in err and f"lambda={shown}" in err

    @pytest.mark.parametrize("lam", ["1e308i", "1e308+1i"])
    def test_large_probe_kept(self, tmp_path, capsys, lam):
        cfg = write_json(tmp_path / "ci2.json", CI2)
        assert main(["st1", "--config", cfg, "--lambda", lam, "--out", str(tmp_path / "u")]) == 0
        assert capsys.readouterr().err == ""
        gaps = [line.split(",")[5] for line in (tmp_path / "u.csv").read_text().splitlines()[1:]]
        assert gaps == ["9.9999999999999991e-309", "9.9999999999999991e-309", "0"]

    def test_probe_within_eigenvalue_rounding_exit2(self, tmp_path, capsys):
        # eigh returns D_2's zero eigenvalue as about -3e-16, so at 1e-300i the
        # level-1 gap would read 1.3e15 where the true one is 1/2.
        cfg = write_json(tmp_path / "ci2.json", CI2)
        assert main(["st1", "--config", cfg, "--lambda", "1e-300j", "--out", str(tmp_path / "h")]) == 2
        err = capsys.readouterr().err
        assert "lambda=1e-300j" in err and "rounding margin" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not (tmp_path / "h.csv").exists()

    def test_st1_leaves_numpy_random_unloaded(self, cantor_file):
        # numpy.random costs about 6 MB of resident memory at import.
        code = (
            "import sys; from spectral_limits.cli import main; "
            f"rc = main(['st1', '--system', {cantor_file!r}, '--out', {cantor_file + '.st1'!r}]); "
            "print(rc, 'numpy.random' in sys.modules)"
        )
        assert run_python(code) == "0 False"


class TestSt1Ceilings:
    def test_cantor18_work(self, tmp_path, monkeypatch):
        # st1 on the Cantor J=18 system with the three default probes and
        # gaussian: one eigh per level, one QR per link (the increments of
        # the eigen route), one Lanczos run per probe and level below the
        # top, and no dense norm.
        from spectral_limits import diagnostics, inductive

        calls = {}

        def count(owner, name):
            fn = getattr(owner, name)
            calls[name] = 0

            def counting(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        count(inductive, "eigh")
        count(np.linalg, "qr")
        count(diagnostics, "lanczos_operator_norm")
        count(diagnostics, "operator_norm")
        cfg = write_json(tmp_path / "cantor.json", {"type": "cantor", "gaps": "middle-thirds", "levels": 18})
        assert main(["st1", "--config", cfg, "--function", "gaussian", "--out", str(tmp_path / "st1")]) == 0
        assert calls == {"eigh": 19, "qr": 18, "lanczos_operator_norm": 72, "operator_norm": 0}

    def test_blas_workers_idle(self, tmp_path):
        # Below PARALLEL_DIM st1 runs OpenBLAS on one thread, so its workers
        # get no work and must not spin: no clock tick of CPU over all
        # non-main threads (on 2 vCPUs an OpenBLAS worker left to spin used 6,
        # and threaded BLAS calls on the dim-256 system about 3).
        cantor = write_json(tmp_path / "cantor.json", {"type": "cantor", "gaps": "middle-thirds", "levels": 5})
        configs = {"c": cantor}
        for name, levels in (("b", 4), ("w", 8)):
            # "w" is the benchmark's ci-wide system (dim 256).
            ci = {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "levels": levels}
            configs[name] = write_json(tmp_path / f"ci{levels}.json", {**ci, "alphas": list(range(1, levels + 1))})
        runs = [["st1", "--config", cfg, "--out", str(tmp_path / name)] for name, cfg in configs.items()]
        code = f"""
import os
os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
from spectral_limits.cli import main
for argv in {runs!r}:
    assert main(argv) == 0
task = "/proc/self/task"
ticks = []
for tid in os.listdir(task) if os.path.isdir(task) else []:
    if int(tid) != os.getpid():
        with open(os.path.join(task, tid, "stat")) as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks.append(int(fields[11]) + int(fields[12]))  # utime + stime
print(ticks)
"""
        unset = dict.fromkeys(cli.BLAS_THREAD_VARS)
        ticks = json.loads(run_python(code, **unset))
        if not ticks:
            pytest.skip("no /proc/self/task, or no thread besides the main one")
        assert sum(ticks) == 0, ticks


# The modules every command loads: cli, errors and those that read and
# validate a system.
VALIDATE_MODULES = {"cli", "errors", "linalg", "algebra", "triple", "inductive", "serialization"}
# Each command, its exit code on the binary CI J=2 input below and the modules
# it loads besides VALIDATE_MODULES.
COMMAND_MODULES = [
    (["validate", "--system", "system"], 0, set()),
    # Alternating alphas stall the ST1 tail: st1 and report exit 1.
    (["st1", "--system", "system", "--out", "out"], 1, {"diagnostics"}),
    (["st2", "--system", "system", "--out", "out"], 0, {"diagnostics"}),
    (["distance", "--system", "system", "--level", "2", "--x", "0", "--y", "1"], 0, {"distance"}),
    (["build", "--config", "config", "--out", "out"], 0, {"generators"}),
    (["report", "--config", "run", "--out", "out"], 1, {"diagnostics", "generators"}),
    (["validate", "--config", "config"], 0, {"generators"}),
    (["st2", "--config", "config", "--out", "out"], 0, {"diagnostics", "generators"}),
    (["distance", "--config", "config", "--level", "2", "--x", "0", "--y", "1"], 0, {"distance", "generators"}),
]


class TestModuleSets:
    """Each command imports only the modules it runs (in a fresh interpreter)."""

    @pytest.fixture()
    def inputs(self, tmp_path):
        # Binary CI J=2 with alternating alphas: level 2 is coupled, so its
        # distances take the barrier solve.
        ci = {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": [-1.0, 1.0], "levels": 2}
        config = write_json(tmp_path / "ci2.json", ci)
        system = str(tmp_path / "ci2sys.json")
        assert main(["build", "--config", config, "--out", system]) == 0
        run = write_json(tmp_path / "run.json", {"system": ci, "lambdas": ["i"]})
        return {"config": config, "system": system, "run": run, "out": str(tmp_path / "out")}

    @pytest.mark.parametrize(
        "args, rc, extra", COMMAND_MODULES, ids=[f"{a[0]}-{a[1][2:]}" for a, _, _ in COMMAND_MODULES]
    )
    def test_command_loads_only_its_modules(self, inputs, args, rc, extra):
        argv = [inputs.get(a, a) for a in args]
        code = (
            "import sys; from spectral_limits.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, 'dataclasses' in sys.modules, "
            "sorted(m.split('.')[1] for m in sys.modules if m.startswith('spectral_limits.')))"
        )
        assert run_python(code) == f"{rc} False {sorted(VALIDATE_MODULES | extra)}"

    def test_coupled_distance_leaves_numpy_ma_unloaded(self, inputs):
        # numpy.ma (imported by np.unique in numpy 2.4) costs about 1.3 MB of
        # resident memory and 30 ms at import.
        code = (
            "import sys; from spectral_limits.cli import main; "
            f"rc = main(['distance', '--system', {inputs['system']!r}, '--level', '2', '--x', '0', '--y', '1']); "
            "print(rc, 'numpy.ma' in sys.modules)"
        )
        assert run_python(code) == "0 False"


# Run in a fresh interpreter: records OPENBLAS_THREAD_TIMEOUT at the moment
# numpy is first imported, after setting the variable to PRESET (None: unset).
TIMEOUT_AT_NUMPY_IMPORT = """
import os, sys

class Hook:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
if PRESET is not None:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = PRESET
sys.meta_path.insert(0, Hook())
import MODULE
print(Hook.seen, os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
"""


class TestBlasThreadTimeout:
    """The CLI makes idle OpenBLAS workers sleep at once, before numpy loads."""

    @pytest.mark.parametrize(
        "module, preset, expected",
        [
            ("spectral_limits.cli", None, "['4'] 4"),
            ("spectral_limits.cli", "20", "['20'] 20"),
            ("spectral_limits.algebra", None, "[None] None"),
        ],
        ids=["cli-default", "cli-preset-kept", "library-untouched"],
    )
    def test_set_before_numpy_loads(self, module, preset, expected):
        code = TIMEOUT_AT_NUMPY_IMPORT.replace("PRESET", repr(preset)).replace("MODULE", module)
        assert run_python(code) == expected


# Run in a fresh interpreter: the OpenBLAS thread count, read through the
# CLI's own lookup, at the start and after validating CONFIG once per entry of
# PARALLEL_DIMS with cli.PARALLEL_DIM set to it.  With HIDE the lookup is then
# pointed at a library without OpenBLAS, as if numpy's BLAS were another.
THREADS_AROUND_VALIDATE = """
import json
from numpy.fft import _pocketfft_umath
from numpy.linalg import _umath_linalg
from spectral_limits import cli

get = cli._openblas()[0]
counts = [get()]
if HIDE:
    cli._openblas.cache_clear()
    _umath_linalg.__file__ = _pocketfft_umath.__file__
for dim in PARALLEL_DIMS:
    cli.PARALLEL_DIM = dim
    assert cli.main(["validate", "--config", CONFIG]) == 0
    counts.append(get())
print(json.dumps([counts, cli._openblas() is not None]))
"""


class TestBlasThreads:
    """Below PARALLEL_DIM a command runs OpenBLAS on one thread; at or above it
    on the threads OpenBLAS started with.  A thread count set in the
    environment, or a BLAS other than OpenBLAS, leaves the count alone."""

    @pytest.fixture()
    def run(self, tmp_path):
        if cli._openblas() is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        # Binary CI J=4: dim 16.
        config = write_json(tmp_path / "ci4.json", {**CI2, "alphas": [1.0, 2.0, 3.0, 4.0], "levels": 4})

        def run(parallel_dims, hide=False, **env):
            code = (
                THREADS_AROUND_VALIDATE.replace("HIDE", repr(hide))
                .replace("PARALLEL_DIMS", repr(parallel_dims))
                .replace("CONFIG", repr(config))
            )
            counts, found = json.loads(run_python(code, **{**dict.fromkeys(cli.BLAS_THREAD_VARS), **env}))
            assert found != hide
            return counts

        return run

    def test_one_thread_below_parallel_dim_start_count_at_it(self, run):
        start, small, large = run([cli.PARALLEL_DIM, 16])
        assert (small, large) == (1, start)

    @pytest.mark.parametrize("var", cli.BLAS_THREAD_VARS)
    def test_environment_count_kept(self, run, var):
        start, after = run([cli.PARALLEL_DIM], **{var: "2"})
        assert after == start

    def test_no_openblas_symbol(self, run):
        start, after = run([cli.PARALLEL_DIM], hide=True)
        assert after == start


# Run in a fresh interpreter, after gc.disable() when DISABLE: the passes of
# each generation during the import of MODULE, whether it froze anything, and
# whether the collector is on afterwards.
GC_AROUND_IMPORT = """
import gc
if DISABLE:
    gc.disable()
before = [s["collections"] for s in gc.get_stats()]
import MODULE
after = [s["collections"] for s in gc.get_stats()]
print([a - b for a, b in zip(after, before)], gc.get_freeze_count() > 0, gc.isenabled())
"""


class TestStartupCollector:
    """The CLI's import runs no collection and freezes what it loaded, with
    the caller's collector state kept; a library import leaves gc alone."""

    @pytest.fixture()
    def bytecode(self, tmp_path):
        # Bytecode cached under tmp_path by a first import.  Without it,
        # compiling cli.py makes one pass before the module's first line runs.
        env = {"PYTHONDONTWRITEBYTECODE": None, "PYTHONPYCACHEPREFIX": str(tmp_path)}
        run_python("import spectral_limits.cli; print()", **env)
        return env

    @pytest.mark.parametrize("disable", [False, True], ids=["enabled", "caller-disabled"])
    def test_cli_import(self, bytecode, disable):
        code = GC_AROUND_IMPORT.replace("DISABLE", repr(disable)).replace("MODULE", "spectral_limits.cli")
        assert run_python(code, **bytecode) == f"[0, 0, 0] True {not disable}"

    def test_library_import_freezes_nothing(self):
        code = GC_AROUND_IMPORT.replace("DISABLE", "False").replace("MODULE", "spectral_limits.algebra")
        assert run_python(code).endswith("] False True")


class TestParserDefaults:
    """The parser spells out diagnostics' probe names and verdict defaults."""

    def test_pinned_to_diagnostics(self):
        assert cli.FUNCTION_NAMES == sorted(FUNCTION_PROBES)
        args = build_parser().parse_args(["st1"])
        assert (args.threshold, args.window) == (VERDICT_THRESHOLD, VERDICT_WINDOW)

    def test_st1_help_lists_probe_functions(self, capsys):
        with pytest.raises(SystemExit):
            main(["st1", "--help"])
        assert f"known: {sorted(FUNCTION_PROBES)}" in " ".join(capsys.readouterr().out.split())

    def test_st1_defaults_match_explicit_values(self, cantor_file, tmp_path, capsys):
        assert main(["st1", "--system", cantor_file, "--out", str(tmp_path / "d")]) == 0
        explicit = ["--threshold", repr(VERDICT_THRESHOLD), "--window", str(VERDICT_WINDOW)]
        assert main(["st1", "--system", cantor_file, "--out", str(tmp_path / "e")] + explicit) == 0
        assert (tmp_path / "d.json").read_bytes() == (tmp_path / "e.json").read_bytes()


class TestSt2:
    def test_cantor_consistent_constant_series(self, cantor_file, tmp_path):
        out = tmp_path / "st2"
        rc = main(["st2", "--system", cantor_file, "--levels", "0..3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(open(str(out) + ".json").read())
        assert doc["classification"] == "consistent"
        rows = open(str(out) + ".csv").read().strip().splitlines()[1:]
        by_series = {}
        for row in rows:
            kind, base, name, k, norm = row.split(",")
            by_series.setdefault(name, []).append(float(norm))
        for values in by_series.values():
            assert max(values) - min(values) <= 1e-9 * max(1.0, max(values))

    def test_growing_system_inconsistent_exit1(self, tmp_path):
        system = growing_commutator_system(6)
        sysf = tmp_path / "grow.json"
        save_system(system, str(sysf))
        rc = main(["st2", "--system", str(sysf), "--out", str(tmp_path / "g")])
        assert rc == 1

    def test_explicit_element(self, cantor_file, tmp_path):
        rc = main(
            [
                "st2",
                "--system",
                cantor_file,
                "--element",
                '{"level": 1, "values": [1.0, 0.0]}',
                "--out",
                str(tmp_path / "e"),
            ]
        )
        assert rc == 0
        rows = open(str(tmp_path / "e") + ".csv").read().strip().splitlines()[1:]
        assert all(abs(float(r.split(",")[4]) - 3.0) <= 1e-9 for r in rows)

    def test_element_blocks_match_values(self, cantor_file, tmp_path):
        blocks = '{"level": 1, "blocks": [[[{"re": 1, "im": 0}]], [[{"re": 0, "im": 0}]]]}'
        values = '{"level": 1, "values": [1.0, 0.0]}'
        for name, element in (("b", blocks), ("v", values)):
            assert main(["st2", "--system", cantor_file, "--element", element, "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "b.csv").read_text() == (tmp_path / "v.csv").read_text()

    @pytest.mark.parametrize("bound", ["-1", "-1e-300", "nan", "inf", "-inf"])
    def test_bad_bound_exit2(self, cantor_file, tmp_path, capsys, bound):
        rc = main(["st2", "--system", cantor_file, f"--bound={bound}", "--out", str(tmp_path / "b")])
        assert rc == 2
        assert "--bound" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize(
        "extra, classification",
        [([], "inconclusive"), (["--bound", "0.1"], "inconclusive"), (["--bound", "1e6"], "consistent")],
        ids=["no-bound", "bound-below-norms", "bound-above-norms"],
    )
    def test_one_entry_series_with_bound(self, cantor_file, tmp_path, extra, classification):
        # Top-level series have one entry each (norms 3^k up to 729): no trend,
        # so a bound they exceed leaves them inconclusive rather than growing.
        out = tmp_path / "top"
        assert main(["st2", "--system", cantor_file, "--levels", "6..6", "--out", str(out)] + extra) == 0
        doc = json.loads(Path(f"{out}.json").read_text())
        assert doc["classification"] == classification
        assert len(doc["series_names"]) == 7 and "growing_series" not in doc["evidence"]

    def test_zero_bound_accepted(self, cantor_file, tmp_path):
        rc = main(["st2", "--system", cantor_file, "--levels", "0..1", "--bound", "0", "--out", str(tmp_path / "z")])
        assert rc == 0

    @pytest.mark.parametrize(
        "element",
        [
            "[1]",
            '{"level": 1, "blocks": 5}',
            '{"level": "x", "values": [1, 0]}',
            '{"level": 1, "values": "ab"}',
            '{"level": 1.0, "values": [1, 0]}',
            '{"level": 1, "values": [1, NaN]}',
            '{"level": 1}',
            '{"level": 1, "blocks": ["x", "y"]}',
            '{"level": 1, "name": 5, "values": [1, 0]}',
        ],
    )
    def test_malformed_element_exit2(self, cantor_file, tmp_path, capsys, element):
        rc = main(["st2", "--system", cantor_file, "--element", element, "--out", str(tmp_path / "bad")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "bad.csv").exists()

    def test_huge_two_valued_element(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "ci2.json", CI2)
        element = '{"level": 1, "values": [0, 1e300]}'
        assert main(["st2", "--config", cfg, "--element", element, "--out", str(tmp_path / "h")]) == 0
        norms = [float(row.split(",")[4]) for row in (tmp_path / "h.csv").read_text().splitlines()[1:]]
        assert norms == pytest.approx([5e299, 5e299], rel=1e-14)

    @pytest.mark.parametrize("level, values", [(1, "[-1.7e308, 1.7e308]"), (2, "[-1.7e308, 1.7e308, 0, 1]")])
    def test_norm_beyond_float_range_exit2(self, tmp_path, capsys, level, values):
        cfg = write_json(tmp_path / "ci2.json", CI2)
        element = f'{{"level": {level}, "name": "huge", "values": {values}}}'
        assert main(["st2", "--config", cfg, "--element", element, "--out", str(tmp_path / "h")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: element 'huge': ") and "float range" in err
        assert not (tmp_path / "h.csv").exists()

    def test_element_level_mismatch_exit2(self, cantor_file, tmp_path):
        rc = main(
            [
                "st2",
                "--system",
                cantor_file,
                "--element",
                '{"level": 1, "values": [1.0, 0.0, 0.0]}',
                "--out",
                str(tmp_path / "bad"),
            ]
        )
        assert rc == 2


class TestDistance:
    @pytest.mark.parametrize(
        "points",
        [["a", "b"], [0.0], [0.0, None], [0.0, float("nan")], "ab", [0.0, 0.5, 1.0]],
        ids=["non-numeric", "short", "null", "nan", "string", "long"],
    )
    def test_bad_meta_points_exit2(self, cantor_file, tmp_path, capsys, points):
        doc = json.loads(open(cantor_file).read())
        doc["triples"][1]["meta"]["points"] = points
        path = write_json(tmp_path / "bad_points.json", doc)
        capsys.readouterr()
        assert main(["distance", "--system", path, "--level", "1", "--x", "0", "--y", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "meta 'points'" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("x", ["nan", "inf", "-1e999"])
    def test_non_finite_point_exit2(self, cantor_file, capsys, x):
        # A NaN or infinite coordinate used to match the first point.
        rc = main(["distance", "--system", cantor_file, "--level", "1", f"--x={x}", "--y", str(2 / 3)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not finite" in captured.err

    def test_middle_thirds_value_and_path(self, cantor_file, capsys):
        rc = main(
            ["distance", "--system", cantor_file, "--level", "1", "--x", "0", "--y", str(2 / 3)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"{1/3:.17g}" in out
        assert "path:" in out

    def test_same_point_zero(self, cantor_file, capsys):
        rc = main(["distance", "--system", cantor_file, "--level", "2", "--x", "0", "--y", "0"])
        assert rc == 0
        assert "= 0" in capsys.readouterr().out

    def test_disconnected_prints_infinite(self, tmp_path, capsys):
        import numpy as np

        from spectral_limits import FiniteCStarAlgebra, FiniteSpectralTriple, InductiveSystem

        t = FiniteSpectralTriple(
            diagonal_representation(FiniteCStarAlgebra((1, 1)), np.array([0, 1])),
            np.zeros((2, 2)),
        )
        sysf = tmp_path / "disc.json"
        save_system(InductiveSystem((t,), ()), str(sysf))
        rc = main(["distance", "--system", str(sysf), "--level", "0", "--x", "0", "--y", "1"])
        assert rc == 0
        assert "infinite" in capsys.readouterr().out

    def test_noncommutative_exit2(self, tmp_path):
        from spectral_limits import (
            AfChain,
            FiniteCStarAlgebra,
            StarHomomorphism,
            State,
            ci_system,
        )

        c1, m2 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((2,))
        inc = StarHomomorphism(c1, m2, matrix=np.array([[1], [0], [0], [1]], dtype=complex))
        chain = AfChain((c1, m2), (inc,), State(m2, m2.element([np.eye(2) / 2])), (5.0,))
        sysf = tmp_path / "noncomm.json"
        save_system(ci_system(chain, 1), str(sysf))
        rc = main(["distance", "--system", str(sysf), "--level", "1", "--x", "0", "--y", "1"])
        assert rc == 2


class TestCoupledDistance:
    @pytest.mark.parametrize("level", [4, 5])
    def test_alternating_binary_ci_converges(self, tmp_path, capsys, level):
        # Binary CI at J=8 with alpha_j = (-1)^j.  The former cutting plane
        # exited 1 on both levels; at level 4 its last certified interval for
        # d(0, 1) was [1.2075, 1.2975].
        alphas = [(-1.0) ** j for j in range(1, 9)]
        cfg = write_json(
            tmp_path / "ci8.json",
            {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": alphas, "levels": 8},
        )
        start = time.perf_counter()
        rc = main(["distance", "--config", cfg, "--level", str(level), "--x", "0", "--y", "1"])
        assert time.perf_counter() - start < 30.0
        assert rc == 0
        value = float(capsys.readouterr().out.splitlines()[0].rsplit("=", 1)[1])
        if level == 4:
            assert 1.2075 <= value <= 1.2975


class TestNumericFailure:
    def test_unconverged_barrier_exit1(self, tmp_path, capsys, monkeypatch):
        # Alternating binary CI J=3 couples level 3; one Newton step cannot
        # certify the distance.
        monkeypatch.setattr(distance, "SDP_MAX_STEPS", 1)
        cfg = write_json(tmp_path / "ci3.json", dict(CI2, alphas=[-1.0, 1.0, -1.0], levels=3))
        assert main(["distance", "--config", cfg, "--level", "3", "--x", "0", "--y", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: numeric failure: barrier distance did not converge in 1 Newton steps\n"


class TestDistanceSizeLimit:
    CI8 = {
        "type": "christensen-ivan",
        "chain": "binary",
        "weights": "uniform",
        "alphas": [(-1.0) ** j for j in range(1, 9)],
        "levels": 8,
    }

    def test_large_coupled_instance_solved(self, tmp_path, capsys):
        # Binary CI at J=8 with alternating alphas couples all 256 top-level
        # points; a Newton step holds a few 256 x 256 matrices.
        cfg = write_json(tmp_path / "ci8.json", self.CI8)
        rc = main(["distance", "--config", cfg, "--level", "8", "--x", "0", "--y", "1"])
        assert rc == 0
        value = float(capsys.readouterr().out.splitlines()[0].rsplit("=", 1)[1])
        assert value == pytest.approx(1.22534332970791, abs=1e-9)

    def test_large_coupled_instance_exit2(self, tmp_path, capsys, monkeypatch):
        # A cap below level 8's need refuses the solve before it allocates.
        monkeypatch.setattr(distance, "SDP_MAX_BYTES", 2**20)
        cfg = write_json(tmp_path / "ci8.json", self.CI8)
        rc = main(["distance", "--config", cfg, "--level", "8", "--x", "0", "--y", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err and "Traceback" not in captured.err


class TestReport:
    def test_deterministic_bytes(self, tmp_path):
        cfg = write_json(
            tmp_path / "run.json",
            {
                "system": {"type": "cantor", "gaps": "middle-thirds", "levels": 5},
                "lambdas": ["i", "2i"],
                "functions": ["one_over_one_plus_x2"],
            },
        )
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["report", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["report", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["validation"]["passed"] is True
        assert doc["st2"]["classification"] == "consistent"
        assert doc["version"]
        assert doc["config"]["lambdas"] == ["i", "2i"]

    def test_real_probe_rejected(self, tmp_path):
        cfg = write_json(
            tmp_path / "bad_run.json",
            {
                "system": {"type": "cantor", "gaps": "middle-thirds", "levels": 3},
                "lambdas": ["1.5"],
            },
        )
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("lambdas", [["nan+1i"], ["i", "1e999i"], "i", [1], [{"re": 0, "im": 1}]])
    def test_malformed_probes_exit2(self, tmp_path, capsys, lambdas):
        cfg = write_json(
            tmp_path / "bad_probes.json",
            {"system": {"type": "cantor", "gaps": "middle-thirds", "levels": 3}, "lambdas": lambdas},
        )
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "entry",
        [{"functions": 5}, {"functions": None}, {"functions": [["gaussian"]]}, {"functions": ["nope"]}],
        ids=["int", "null", "nested", "unknown"],
    )
    def test_malformed_functions_exit2(self, tmp_path, capsys, entry):
        doc = {"system": {"type": "cantor", "gaps": "middle-thirds", "levels": 3}, "lambdas": ["i"]}
        cfg = write_json(tmp_path / "run_functions.json", {**doc, **entry})
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "probe function" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("path", [None, ["a"]], ids=["null", "list"])
    def test_malformed_system_path_exit2(self, tmp_path, capsys, path):
        cfg = write_json(tmp_path / "run_path.json", {"system": {"path": path}, "lambdas": ["i"]})
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "system.path" in err and "Traceback" not in err

    @pytest.mark.parametrize("lam, reason, shown", UNUSABLE_PROBES, ids=["underflowing", "huge"])
    def test_unusable_probe_exit2(self, tmp_path, capsys, lam, reason, shown):
        system = {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": [1.0, 2.0], "levels": 2}
        cfg = write_json(tmp_path / "run_tiny.json", {"system": system, "lambdas": [lam]})
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err
        assert "RuntimeWarning" not in err and f"lambda={shown}" in err
        assert not (tmp_path / "r.json").exists()

    def test_system_by_path(self, tmp_path, cantor_file, capsys):
        cfg = write_json(
            tmp_path / "run2.json",
            {"system": {"path": cantor_file}, "lambdas": ["i"]},
        )
        capsys.readouterr()
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r3.json")]) == 0
        assert capsys.readouterr().err == ""

    def test_disagreeing_routes_warn_as_in_st1(self, tmp_path, capsys):
        # The planted link fails validation (exit 1); the report still holds
        # every section, and each probe warns on stderr as st1 does.
        cfg = write_json(
            tmp_path / "run_planted.json",
            {"system": {"path": _planted_link_file(tmp_path)}, "lambdas": ["i", "2i"]},
        )
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main(["report", "--config", cfg, "--out", str(out)]) == 1
        _assert_one_warning_per_lambda(capsys.readouterr().err, (1j, 2j))
        doc = json.loads(out.read_text())
        assert set(doc) == {"system", "validation", "gap_series", "commutator_series", "st2", "version", "config"}
        assert doc["validation"]["passed"] is False and doc["validation"]["failing_link"] == 2

    @pytest.mark.parametrize("levels", [[0], [0, 1, 2], [2, 1], [0, 9], [-1, 2], [0, "3"], [0.0, 2], "0..2", []])
    def test_malformed_levels_exit2(self, tmp_path, capsys, levels):
        cfg = write_json(
            tmp_path / "run_levels.json",
            {"system": {"type": "cantor", "gaps": "middle-thirds", "levels": 3}, "lambdas": ["i"], "levels": levels},
        )
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "levels" in err and "Traceback" not in err

    def test_level_range(self, tmp_path):
        cfg = write_json(
            tmp_path / "run_range.json",
            {"system": {"type": "cantor", "gaps": "middle-thirds", "levels": 3}, "lambdas": ["i"], "levels": [1, 3]},
        )
        out = tmp_path / "r.json"
        # A two-level tail may be classified inconsistent (exit 1); only the range is pinned here.
        assert main(["report", "--config", cfg, "--out", str(out)]) in (0, 1)
        doc = json.loads(out.read_text())
        assert [e["j"] for e in doc["gap_series"][0]["entries"]] == [1, 2, 3]

"""CLI integration: subcommands, exit codes, determinism."""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spectral_limits import (
    DiagonalRepresentation,
    FiniteCStarAlgebra,
    FiniteSpectralTriple,
    InductiveSystem,
    StarHomomorphism,
    TripleMorphism,
    cantor_system,
    gap_series,
    load_system,
    middle_thirds,
    realize,
    save_system,
    st1_verdict,
)
from spectral_limits.cli import main, parse_complex, parse_levels
from spectral_limits.errors import ValidationError
from spectral_limits.linalg import lanczos_start
from spectral_limits.serialization import matrix_from_json, matrix_to_json

from test_diagnostics import growing_commutator_system

ROOT = Path(__file__).resolve().parents[1]


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
        with pytest.raises(ValidationError, match="non-finite"):
            parse_complex(text)

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

    def test_two_builds_byte_identical_v2(self, tmp_path, cantor_file):
        again = tmp_path / "again.json"
        assert main(["build", "--config", str(tmp_path / "cfg.json"), "--out", str(again)]) == 0
        assert again.read_bytes() == open(cantor_file, "rb").read()
        assert json.loads(again.read_text())["format"] == "spectral-limits/system-v2"

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

    def test_generator_failure_exit1(self, tmp_path):
        cfg = write_json(
            tmp_path / "zero_alpha.json",
            {
                "type": "christensen-ivan",
                "chain": "binary",
                "weights": "uniform",
                "alphas": [0.0, 1.0],
                "levels": 2,
            },
        )
        assert main(["build", "--config", cfg, "--out", str(tmp_path / "z.json")]) == 1


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
    "ragged-dirac": _set(["triples", 0, "dirac"], [[ZERO, ZERO], [ZERO]]),
    "re-str": _set(["triples", 0, "dirac"], [[{"re": "x", "im": 0.0}, ZERO], [ZERO, ZERO]]),
    "provenance-list": _set(["provenance"], []),
    "meta-str": _set(["triples", 0, "meta"], "x"),
    # v2 matrix objects: shape, data type, base64 and byte length.
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
    "matrix-extra-key": _set(["triples", 1, "dirac", "dtype"], "complex64"),
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
    t0 = FiniteSpectralTriple(algebra, DiagonalRepresentation(np.zeros(1, dtype=int), 1), np.zeros((1, 1)))
    t1 = FiniteSpectralTriple(algebra, DiagonalRepresentation(np.zeros(n, dtype=int), 1), dirac)
    link = TripleMorphism(t0, t1, StarHomomorphism.identity(algebra), u[:, np.newaxis])
    return InductiveSystem((t0, t1), (link,))


class TestSt1CrossCheck:
    def test_no_warning_at_defaults(self, cantor_file, capsys):
        capsys.readouterr()
        assert main(["st1", "--system", cantor_file]) == 0
        assert capsys.readouterr().err == ""

    def test_disagreeing_routes_warn_without_changing_output(self, tmp_path, capsys):
        # Link 2 of Cantor J=5, left-multiplied by a random unitary, no longer
        # intertwines the Dirac operators.  st1 does not validate first: the
        # direct route reads the planted embeddings, the eigen route reads
        # the increment spectra, and the routes part (by 0.134 at lambda=i).
        system = cantor_system(middle_thirds(6), 5)
        link = system.links[2]
        n = link.target.hilbert_dim
        rng = np.random.default_rng(0)
        unitary = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        links = list(system.links)
        links[2] = TripleMorphism(link.source, link.target, link.phi, unitary @ link.iso)
        planted = InductiveSystem(system.triples, tuple(links), system.provenance)
        sysf = tmp_path / "planted_link.json"
        save_system(planted, str(sysf))
        out = tmp_path / "wide"
        capsys.readouterr()
        lambdas = (1j, 2j)
        argv = ["st1", "--system", str(sysf), "--lambda", "i", "--lambda", "2i", "--out", str(out)]
        r = realize(load_system(str(sysf)))
        verdicts = [st1_verdict(gap_series(r, lam=lam)).classification for lam in lambdas]
        assert main(argv) == (1 if "inconsistent" in verdicts else 0)
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out}.csv and {out}.json\n"
        warnings = captured.err.splitlines()
        assert len(warnings) == len(lambdas)
        for line, lam in zip(warnings, lambdas):
            assert line.startswith("warning: ") and f"lambda={lam:g}, j=" in line
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

    def test_underflowing_probe_exit2(self, tmp_path, capsys):
        # D_0 = 0, so the level-0 resolvent at 1e-320i overflows.
        cfg = write_json(
            tmp_path / "ci2.json",
            {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": [1.0, 2.0], "levels": 2},
        )
        assert main(["st1", "--config", cfg, "--lambda", "1e-320j", "--out", str(tmp_path / "u")]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err
        assert "RuntimeWarning" not in err and "lambda=1e-320j" in err

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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


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

        from spectral_limits import (
            DiagonalRepresentation,
            FiniteCStarAlgebra,
            FiniteSpectralTriple,
            InductiveSystem,
        )

        t = FiniteSpectralTriple(
            FiniteCStarAlgebra((1, 1)),
            DiagonalRepresentation(np.array([0, 1]), 2),
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
        chain = AfChain((c1, m2), (inc,), State(m2, (np.eye(2, dtype=complex) / 2,)), (5.0,))
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


class TestDistanceSizeLimit:
    def test_large_coupled_instance_exit2(self, tmp_path, capsys):
        # Binary CI at J=8 with alternating alphas couples all 256 top-level
        # points; the barrier's constraint matrices would need 267 MB.
        cfg = write_json(
            tmp_path / "ci8.json",
            {
                "type": "christensen-ivan",
                "chain": "binary",
                "weights": "uniform",
                "alphas": [(-1.0) ** j for j in range(1, 9)],
                "levels": 8,
            },
        )
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

    def test_underflowing_probe_exit2(self, tmp_path, capsys):
        system = {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": [1.0, 2.0], "levels": 2}
        cfg = write_json(tmp_path / "run_tiny.json", {"system": system, "lambdas": ["1e-320j"]})
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err
        assert "RuntimeWarning" not in err and "lambda=1e-320j" in err
        assert not (tmp_path / "r.json").exists()

    def test_system_by_path(self, tmp_path, cantor_file):
        cfg = write_json(
            tmp_path / "run2.json",
            {"system": {"path": cantor_file}, "lambdas": ["i"]},
        )
        assert main(["report", "--config", cfg, "--out", str(tmp_path / "r3.json")]) == 0

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

"""CLI integration: subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from spectral_limits import load_system, save_system
from spectral_limits.cli import main, parse_complex, parse_levels
from spectral_limits.errors import ValidationError

from test_diagnostics import growing_commutator_system


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

    def test_levels(self):
        assert parse_levels("0..3", 6) == [0, 1, 2, 3]
        assert parse_levels("4", 6) == [4]
        with pytest.raises(ValidationError):
            parse_levels("5..2", 6)
        with pytest.raises(ValidationError):
            parse_levels("0..9", 6)


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
        doc["links"][3]["iso"][0][0]["re"] = 0.25
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--system", str(bad)]) == 1
        assert "link 3" in capsys.readouterr().out

    def test_truncated_exit2(self, tmp_path, cantor_file):
        text = open(cantor_file).read()
        trunc = tmp_path / "trunc.json"
        trunc.write_text(text[: len(text) // 3])
        assert main(["validate", "--system", str(trunc)]) == 2


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

"""JSON round trips and generator configs."""

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from spectral_limits import (
    AfChain,
    FiniteCStarAlgebra,
    StarHomomorphism,
    State,
    ValidationError,
    binary_branching,
    cantor_system,
    ci_system,
    commutative_af_chain,
    load_system,
    middle_thirds,
    save_system,
    system_from_generator_config,
    system_from_json,
    system_to_json,
)
from spectral_limits import serialization
from spectral_limits.serialization import (
    algebra_from_json,
    algebra_to_json,
    complex_from_json,
    complex_to_json,
    dumps,
    hom_from_json,
    hom_to_json,
    matrix_from_json,
    matrix_to_json,
)

DATA = Path(__file__).resolve().parent / "data"


def matrix_objects(node):
    """Every {shape, data} matrix object in a JSON document."""
    if isinstance(node, dict):
        if set(node) == {"shape", "data"}:
            yield node
            return
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from matrix_objects(child)


def bytes_per_entry(obj) -> float:
    rows, cols = obj["shape"]
    return len(base64.b64decode(obj["data"])) / (rows * cols)


def stored_arrays(system):
    """Every matrix a system holds, in a fixed order."""
    for t in system.triples:
        yield t.dirac
        if t.grading is not None:
            yield t.grading
        if t.rep.matrix is not None:
            yield t.rep.matrix
    for link in system.links:
        yield link.iso
        if link.phi.spectrum_map is None:
            yield link.phi.matrix


def fixture(name):
    """A system read from tests/data.  The ci_dense files hold the GNS system
    of C < M_2 (trace state, alpha 5) as an earlier generator presented it,
    so they are checked against each other rather than a fresh build."""
    return lambda: load_system(str(DATA / name))


class TestScalarsAndMatrices:
    def test_complex_round_trip(self):
        for z in (0j, 1 + 2j, -0.5j, 3.25):
            assert complex_from_json(complex_to_json(z)) == complex(z)

    def test_matrix_round_trip_lossless(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        out = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
        assert np.array_equal(out, m)  # bitwise, repr round-trip
        signed = np.array(
            [
                [complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -5e-324)],
                [complex(-0.0, -0.0), complex(-5e-324, 1.0), complex(1.0, 0.0)],
            ]
        )
        for a in (signed, np.array([[complex(-0.0, 5e-324)]]), m):
            back = matrix_from_json(json.loads(json.dumps(matrix_to_json(a))))
            assert back.shape == a.shape
            assert np.array_equal(back.view(np.uint64), a.view(np.uint64))

    def test_reader_narrows_only_positive_zero_imaginary_parts(self):
        real = np.array([[1.0, -2.0], [0.0, -0.0]])
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(real))))
        assert back.dtype == np.float64 and np.array_equal(back.view(np.uint64), real.view(np.uint64))
        signed = real.astype(complex)
        signed[0, 1] = complex(-2.0, -0.0)
        obj = matrix_to_json(signed)
        back = matrix_from_json(json.loads(json.dumps(obj)))
        assert back.dtype == np.complex128 and np.array_equal(back.view(np.uint64), signed.view(np.uint64))
        assert matrix_to_json(back) == obj

    def test_negative_zero_imaginary_part_survives_a_system_round_trip(self, tmp_path):
        doc = system_to_json(cantor_system(middle_thirds(2), 2))
        dirac = matrix_from_json(doc["triples"][1]["dirac"]).astype(complex)
        dirac[0, 1] = complex(dirac[0, 1].real, -0.0)
        doc["triples"][1]["dirac"] = matrix_to_json(dirac)
        path = tmp_path / "signed.json"
        path.write_text(dumps(doc) + "\n")
        system = load_system(str(path))
        assert system.triples[1].dirac.dtype == np.complex128
        assert system.triples[0].dirac.dtype == np.float64
        save_system(system, str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_float64_data_round_trips_signed_zeros_and_subnormals(self):
        real = np.array([[-0.0, 0.0, 5e-324], [-5e-324, 2.0**-1030, -1.0]])
        obj = matrix_to_json(real)
        assert bytes_per_entry(obj) == 8
        back = matrix_from_json(json.loads(json.dumps(obj)))
        assert back.dtype == np.float64 and back.tobytes() == real.tobytes()
        assert back.flags.writeable
        # Complex with every imaginary part +0.0 is written the same way.
        assert matrix_to_json(real.astype(complex)) == obj

    def test_negative_zero_imaginary_part_keeps_16_bytes_per_entry(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        m[1, 0] = complex(3.0, -0.0)
        obj = matrix_to_json(m)
        assert bytes_per_entry(obj) == 16
        back = matrix_from_json(obj)
        assert back.dtype == np.complex128 and back.tobytes() == m.tobytes()

    @pytest.mark.parametrize("n_bytes", [0, 8, 47, 49, 72, 95, 97, 192])
    def test_byte_length_neither_8_nor_16_per_entry_rejected(self, n_bytes):
        obj = {"shape": [2, 3], "data": base64.b64encode(bytes(n_bytes)).decode()}
        with pytest.raises(ValidationError, match="needs 48 or 96"):
            matrix_from_json(obj)

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            complex_from_json({"re": 1.0})
        with pytest.raises(ValidationError):
            matrix_from_json([1, 2, 3])


class TestObjects:
    def test_algebra(self):
        a = FiniteCStarAlgebra((2, 1, 3))
        assert algebra_from_json(algebra_to_json(a)) == a

    def test_homs(self):
        a0, a1 = FiniteCStarAlgebra((1, 1)), FiniteCStarAlgebra((1, 1, 1))
        spec = StarHomomorphism(a0, a1, spectrum_map=np.array([0, 1, 1]))
        back = hom_from_json(hom_to_json(spec))
        assert np.array_equal(back.spectrum_map, spec.spectrum_map)
        lin = StarHomomorphism(
            FiniteCStarAlgebra((1,)),
            FiniteCStarAlgebra((2,)),
            matrix=np.array([[1], [0], [0], [1]], dtype=complex),
        )
        back2 = hom_from_json(hom_to_json(lin))
        assert np.array_equal(back2.matrix, lin.matrix)


class TestSystemRoundTrip:
    def test_cantor_lossless(self):
        system = cantor_system(middle_thirds(4), 4)
        doc = system_to_json(system)
        again = system_to_json(system_from_json(doc))
        assert dumps(doc) == dumps(again)

    def test_ci_commutative_lossless(self):
        chain = commutative_af_chain(binary_branching(3), np.full(8, 1 / 8), [1, 2, 3])
        system = ci_system(chain, 3)
        doc = system_to_json(system)
        assert dumps(system_to_json(system_from_json(doc))) == dumps(doc)

    def test_ci_dense_lossless(self):
        c1, m2 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((2,))
        inc = StarHomomorphism(c1, m2, matrix=np.array([[1], [0], [0], [1]], dtype=complex))
        chain = AfChain((c1, m2), (inc,), State(m2, m2.element([np.eye(2) / 2])), (5.0,))
        system = ci_system(chain, 1)
        doc = system_to_json(system)
        assert dumps(system_to_json(system_from_json(doc))) == dumps(doc)

    def test_file_round_trip(self, tmp_path):
        system = cantor_system(middle_thirds(3), 3)
        path = tmp_path / "system.json"
        save_system(system, str(path))
        loaded = load_system(str(path))
        assert dumps(system_to_json(loaded)) == dumps(system_to_json(system))

    @pytest.mark.parametrize(
        "name, fresh",
        [("cantor3_v1.json", lambda: cantor_system(middle_thirds(3), 3)), ("ci_dense_v1.json", fixture("ci_dense_v2.json"))],
    )
    def test_v1_file_loads_as_fresh_system(self, name, fresh):
        path = DATA / name
        assert json.loads(path.read_text())["format"] == "spectral-limits/system-v1"
        assert dumps(system_to_json(load_system(str(path)))) == dumps(system_to_json(fresh()))

    @pytest.mark.parametrize(
        "name, fresh",
        [
            ("cantor3_v2.json", lambda: cantor_system(middle_thirds(3), 3)),
            ("ci3_v2.json", lambda: ci_system(commutative_af_chain(binary_branching(3), np.full(8, 1 / 8), [1.0, 2.0, 3.0]), 3)),
            ("ci_dense_v2.json", fixture("ci_dense_v1.json")),
        ],
    )
    def test_v2_file_reads_and_resaves_as_fresh_v3(self, tmp_path, name, fresh):
        # The v2 files were written by the v2 writer: complex128 data only.
        v2_path = DATA / name
        v2_doc = json.loads(v2_path.read_text())
        assert v2_doc["format"] == "spectral-limits/system-v2"
        assert {bytes_per_entry(m) for m in matrix_objects(v2_doc)} == {16}
        v3_path = tmp_path / "fresh.json"
        save_system(fresh(), str(v3_path))
        v3_doc = json.loads(v3_path.read_text())
        assert v3_doc["format"] == "spectral-limits/system-v3"
        assert {bytes_per_entry(m) for m in matrix_objects(v3_doc)} == {8}
        from_v2, from_v3 = load_system(str(v2_path)), load_system(str(v3_path))
        for a, b in zip(stored_arrays(from_v2), stored_arrays(from_v3), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for system, path in ((from_v2, "again_v2.json"), (from_v3, "again_v3.json")):
            save_system(system, str(tmp_path / path))
            assert (tmp_path / path).read_bytes() == v3_path.read_bytes()

    def test_reject_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValidationError):
            load_system(str(path))

    def test_reject_truncated(self, tmp_path):
        system = cantor_system(middle_thirds(3), 3)
        path = tmp_path / "trunc.json"
        save_system(system, str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValidationError):
            load_system(str(path))


class TestGeneratorConfigs:
    def test_cantor_middle_thirds(self):
        system = system_from_generator_config(
            {"type": "cantor", "gaps": "middle-thirds", "levels": 4}
        )
        assert [t.hilbert_dim for t in system.triples] == [2, 4, 6, 8, 10]

    def test_cantor_explicit_gaps(self):
        cfg = {
            "type": "cantor",
            "gaps": [[0.0, 1.0], [0.4, 0.7], [0.1, 0.3]],
            "levels": 2,
            "grading": False,
        }
        system = system_from_generator_config(cfg)
        assert system.triples[2].grading is None
        assert system.provenance["lengths"] == pytest.approx([1.0, 0.3, 0.2])

    def test_ci_binary(self):
        cfg = {
            "type": "christensen-ivan",
            "chain": "binary",
            "weights": "uniform",
            "alphas": [1, 2, 3, 4],
            "levels": 4,
        }
        system = system_from_generator_config(cfg)
        assert [t.hilbert_dim for t in system.triples] == [1, 2, 4, 8, 16]

    def test_ci_custom_branching(self):
        cfg = {
            "type": "christensen-ivan",
            "chain": {"branching": [[0, 0, 0]]},
            "weights": [0.2, 0.3, 0.5],
            "alphas": [2.5],
            "levels": 1,
        }
        system = system_from_generator_config(cfg)
        assert system.triples[1].hilbert_dim == 3

    @pytest.mark.parametrize("maps", [[[]], [[0, 0], []]])
    def test_empty_branching_level_rejected(self, maps):
        # A level without points used to divide by zero in the uniform weights.
        cfg = {"type": "christensen-ivan", "chain": {"branching": maps}, "alphas": [1.0, 2.0], "levels": 0}
        with pytest.raises(ValidationError, match="non-empty integer lists"):
            system_from_generator_config(cfg)

    def test_size_limit_between_binary_ci_12_and_13(self):
        # The guard alone, on the binary dims: nothing is built.
        serialization._check_generator_size([2**j for j in range(13)], 1)  # about 268 MB: accepted
        with pytest.raises(ValidationError, match=f"more than {2**29} bytes"):
            serialization._check_generator_size([2**j for j in range(14)], 1)  # about 1.07 GB
        cfg = {"type": "christensen-ivan", "chain": "binary", "alphas": [1.0] * 13, "levels": 13}
        with pytest.raises(ValidationError, match=f"more than {2**29} bytes"):
            system_from_generator_config(cfg)  # refused before any generator runs

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            system_from_generator_config({"type": "torus", "levels": 2})

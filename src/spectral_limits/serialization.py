"""JSON encoding of algebras, homomorphisms, triples, morphisms and
inductive systems.

A matrix is written as {"shape": [rows, cols], "data": base64}, where data
holds the row-major little-endian entries at the matrix's own width:
float64 when it is real, or complex with every imaginary part +0.0 bit for
bit (``linalg.exactly_real``), else complex128.  The reader tells the width
from the byte length, so every bit round-trips and a saved
``spectral-limits/system-v3`` file re-saves to its own bytes.  It returns
float64 for float64 data and for complex128 data whose imaginary parts are
all +0.0, else complex128; ``spectral-limits/system-v2`` files hold
complex128 data only.  The decoder also reads the row-major nested lists of
{"re": float, "im": float} objects of ``spectral-limits/system-v1`` files
and of hand-written ``st2 --element`` blocks.  A representation is written
as its coordinate-to-point map when it is a spectrum map ("diagonal"), else
as one matrix per algebra basis element ("dense").  Dumps are
deterministic (sorted keys, fixed separators), so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TextIO

import numpy as np

from . import _deferred
from .algebra import FiniteCStarAlgebra, StarHomomorphism
from .errors import ValidationError
from .inductive import InductiveSystem
from .linalg import exactly_real
from .triple import (
    FiniteSpectralTriple,
    TripleMorphism,
    dense_representation,
    diagonal_representation,
)

SYSTEM_FORMAT = "spectral-limits/system-v3"
# Formats system_from_json reads: v2 writes every matrix as complex128, v1 as
# nested lists.
READ_FORMATS = (SYSTEM_FORMAT, "spectral-limits/system-v2", "spectral-limits/system-v1")
REAL_DTYPE = np.dtype("<f8")
COMPLEX_DTYPE = np.dtype("<c16")
# Layout of every JSON document written: sorted keys, one-space indent.
JSON_STYLE = {"sort_keys": True, "indent": 1, "separators": (",", ": ")}
# Largest dense float64 matrix data a generator config may ask for, in bytes.
# Binary CI at J=12 (dim 4096, the largest workload the roadmap targets) needs
# about 268 MB and passes; J=13 needs about 1.07 GB and is rejected.
MAX_GENERATOR_BYTES = 2**29

# The generators that system_from_generator_config runs, called through these
# names so that reading a system file does not import the generators module
# (perfbench/tracing.py wraps them by these names).
middle_thirds = _deferred("middle_thirds")
cantor_system = _deferred("cantor_system")
binary_branching = _deferred("binary_branching")
commutative_af_chain = _deferred("commutative_af_chain")
ci_system = _deferred("ci_system")


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"im": z.imag, "re": z.real}


def complex_from_json(obj) -> complex:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValidationError(f"expected a {{re, im}} object, got {obj!r}")
    try:
        return complex(float(obj["re"]), float(obj["im"]))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"expected numbers in {obj!r}") from exc


def matrix_to_json(m) -> dict:
    """Encode a matrix as float64 when it is exactly real, else as complex128."""
    a = exactly_real(np.asarray(m))
    a = np.ascontiguousarray(a, dtype=COMPLEX_DTYPE if np.iscomplexobj(a) else REAL_DTYPE)
    rows, cols = a.shape
    return {"shape": [rows, cols], "data": base64.b64encode(a).decode("ascii")}


def matrix_from_json(obj) -> np.ndarray:
    """Decode a {shape, data} matrix object or a nested list of {re, im} objects.

    A {shape, data} matrix holds 8 (float64) or 16 (complex128) bytes per
    entry; it comes back as float64 when its data is float64 or all its
    imaginary parts are +0.0 bit for bit, else as complex128.
    """
    if isinstance(obj, dict) and set(obj) == {"shape", "data"}:
        shape, data = obj["shape"], obj["data"]
        if (
            not isinstance(shape, list)
            or len(shape) != 2
            or not all(isinstance(n, int) and not isinstance(n, bool) and n > 0 for n in shape)
        ):
            raise ValidationError(f"matrix shape must be two positive integers, got {shape!r}")
        if not isinstance(data, str):
            raise ValidationError("matrix data must be a base64 string")
        try:
            raw = base64.b64decode(data, validate=True)
        except binascii.Error as exc:
            raise ValidationError(f"matrix data is not valid base64: {exc}") from exc
        rows, cols = shape
        widths = {rows * cols * d.itemsize: d for d in (REAL_DTYPE, COMPLEX_DTYPE)}
        if len(raw) not in widths:
            raise ValidationError(
                f"matrix data has {len(raw)} bytes, shape {shape} needs {' or '.join(map(str, widths))}"
            )
        # Every result is a native copy: frombuffer views immutable bytes, in
        # the file's byte order.
        view = np.frombuffer(raw, dtype=widths[len(raw)]).reshape(rows, cols)
        narrowed = exactly_real(view)
        return view.astype(view.dtype.type) if narrowed is view else narrowed
    if (
        not isinstance(obj, list)
        or not obj
        or not all(isinstance(r, list) and len(r) == len(obj[0]) for r in obj)
    ):
        raise ValidationError("expected a {shape, data} object or a nested list matrix with equal rows")
    return np.array([[complex_from_json(z) for z in row] for row in obj], dtype=complex)


def algebra_to_json(a: FiniteCStarAlgebra) -> dict:
    return {"block_dims": list(a.block_dims)}


def algebra_from_json(obj) -> FiniteCStarAlgebra:
    return FiniteCStarAlgebra(tuple(integers(obj["block_dims"], "algebra 'block_dims'")))


def hom_to_json(phi: StarHomomorphism) -> dict:
    out: dict[str, Any] = {
        "source": algebra_to_json(phi.source),
        "target": algebra_to_json(phi.target),
    }
    if phi.spectrum_map is not None:
        out["encoding"] = {"kind": "spectrum_map", "map": [int(v) for v in phi.spectrum_map]}
    else:
        out["encoding"] = {"kind": "explicit_linear", "matrix": matrix_to_json(phi.matrix)}
    return out


def hom_from_json(obj) -> StarHomomorphism:
    source = algebra_from_json(obj["source"])
    target = algebra_from_json(obj["target"])
    enc = obj["encoding"]
    if enc["kind"] == "spectrum_map":
        return StarHomomorphism(source, target, spectrum_map=integers(enc["map"], "spectrum 'map'"))
    if enc["kind"] == "explicit_linear":
        return StarHomomorphism(source, target, matrix=matrix_from_json(enc["matrix"]))
    raise ValidationError(f"unknown homomorphism encoding {enc.get('kind')!r}")


def _rep_to_json(rep: StarHomomorphism) -> dict:
    if rep.spectrum_map is not None:
        return {"kind": "diagonal", "coord_points": [int(v) for v in rep.spectrum_map]}
    n = rep.target.block_dims[0]
    return {"kind": "dense", "matrices": [matrix_to_json(m) for m in rep.matrix.T.reshape(-1, n, n)]}


def _rep_from_json(obj, algebra: FiniteCStarAlgebra) -> StarHomomorphism:
    if obj["kind"] == "diagonal":
        return diagonal_representation(algebra, integers(obj["coord_points"], "representation 'coord_points'"))
    if obj["kind"] == "dense":
        return dense_representation(algebra, np.array([matrix_from_json(m) for m in obj["matrices"]]))
    raise ValidationError(f"unknown representation encoding {obj.get('kind')!r}")


def triple_to_json(t: FiniteSpectralTriple) -> dict:
    out = {
        "algebra": algebra_to_json(t.algebra),
        "representation": _rep_to_json(t.rep),
        "dirac": matrix_to_json(t.dirac),
        "meta": t.meta,
    }
    if t.grading is not None:
        out["grading"] = matrix_to_json(t.grading)
    return out


def triple_from_json(obj) -> FiniteSpectralTriple:
    rep = _rep_from_json(obj["representation"], algebra_from_json(obj["algebra"]))
    grading = matrix_from_json(obj["grading"]) if "grading" in obj else None
    return FiniteSpectralTriple(rep, matrix_from_json(obj["dirac"]), grading=grading, meta=obj.get("meta", {}))


def morphism_to_json(m: TripleMorphism) -> dict:
    return {"phi": hom_to_json(m.phi), "iso": matrix_to_json(m.iso)}


def system_to_json(s: InductiveSystem) -> dict:
    return {
        "format": SYSTEM_FORMAT,
        "provenance": s.provenance,
        "triples": [triple_to_json(t) for t in s.triples],
        "links": [morphism_to_json(m) for m in s.links],
    }


def system_from_json(obj) -> InductiveSystem:
    """Decode a v1, v2 or v3 system document; any malformed part raises ValidationError."""
    if not isinstance(obj, dict) or obj.get("format") not in READ_FORMATS:
        raise ValidationError(f"not a {' or '.join(READ_FORMATS)} document")
    triples_doc, links_doc = obj.get("triples"), obj.get("links")
    if not isinstance(triples_doc, list) or not triples_doc:
        raise ValidationError("'triples' must be a non-empty list")
    if not isinstance(links_doc, list) or len(links_doc) != len(triples_doc) - 1:
        raise ValidationError(
            f"'links' must be a list of {len(triples_doc) - 1} links, one per adjacent pair of triples"
        )
    provenance = obj.get("provenance", {})
    if not isinstance(provenance, dict) or not all(
        isinstance(t, dict) and isinstance(t.get("meta", {}), dict) for t in triples_doc
    ):
        raise ValidationError("'provenance' and every triple's 'meta' must be objects")
    # The analytic gap bounds of st1 and report read these fields.
    kind = provenance.get("kind")
    if kind == "cantor":
        lengths = finite_numbers(provenance.get("lengths"), "provenance 'lengths'")
        if not all(v > 0.0 for v in lengths):
            raise ValidationError(f"provenance 'lengths' must be positive, got {lengths!r}")
    elif kind == "christensen-ivan":
        finite_numbers(provenance.get("alphas"), "provenance 'alphas'")
    try:
        triples = tuple(triple_from_json(t) for t in triples_doc)
        links = tuple(
            TripleMorphism(
                triples[j], triples[j + 1], hom_from_json(m["phi"]), matrix_from_json(m["iso"])
            )
            for j, m in enumerate(links_doc)
        )
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed system document: {exc!r}") from exc
    for j, t in enumerate(triples):
        points = t.meta.get("points")
        if points is None:
            continue
        if len(finite_numbers(points, f"triple {j} meta 'points'")) != t.algebra.n_points:
            raise ValidationError(
                f"triple {j} meta 'points' has {len(points)} entries for {t.algebra.n_points} points"
            )
    return InductiveSystem(triples, links, provenance)


def dumps(obj: dict) -> str:
    return json.dumps(obj, **JSON_STYLE)


@contextmanager
def _open_output(path: str | None) -> Iterator[TextIO]:
    """The UTF-8 text file ``path`` opened for writing, or stdout when it is
    empty or None.  A file that cannot be written raises ValidationError
    naming the path."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write_json(obj, path: str | None, default: Callable | None = None) -> None:
    """Write the bytes of ``dumps(obj) + "\\n"`` to ``_open_output(path)`` as
    they are encoded; ``default`` turns the objects JSON cannot encode into
    ones it can, one at a time."""
    with _open_output(path) as fh:
        json.dump(obj, fh, default=default, **JSON_STYLE)
        fh.write("\n")


def save_system(s: InductiveSystem, path: str) -> None:
    """Write ``system_to_json(s)`` to the file ``path`` with ``_write_json``;
    a file that cannot be written raises ValidationError naming the path."""
    _write_json(system_to_json(s), path)


def read_json(path: str):
    """The JSON document in the UTF-8 file ``path``.

    A file that cannot be read, is not UTF-8 or is not JSON (including
    nesting too deep or an integer too long to parse) raises
    ValidationError naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from exc


def load_system(path: str) -> InductiveSystem:
    return system_from_json(read_json(path))


def finite_numbers(values, what: str) -> list[float]:
    """A JSON list of finite numbers, as floats; ``what`` names it in the error."""
    if isinstance(values, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        try:
            floats = [float(v) for v in values]
        except OverflowError:  # an integer beyond the float range
            floats = [math.inf]
        if all(math.isfinite(v) for v in floats):
            return floats
    raise ValidationError(f"{what} must be a list of finite numbers, got {values!r}")


def integers(values, what: str) -> list[int]:
    """A JSON list of integers; ``what`` names it in the error."""
    if isinstance(values, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        return values
    raise ValidationError(f"{what} must be a list of integers, got {values!r}")


def _check_generator_size(dims, matrices_per_level: int) -> None:
    """Reject a system whose dense matrices would exceed MAX_GENERATOR_BYTES.

    ``dims`` yields the Hilbert dimension n_j of each level; a level holds
    ``matrices_per_level`` n_j x n_j matrices (Dirac operator, grading) and a
    link one n_{j+1} x n_j isometry.  Entries are counted at 8 bytes, the
    float64 width the generators allocate.  Stops at the first level over the
    cap.
    """
    total, previous = 0, 0
    for n in dims:
        total += REAL_DTYPE.itemsize * (matrices_per_level * n * n + previous * n)
        if total > MAX_GENERATOR_BYTES:
            raise ValidationError(
                f"generator config needs more than {MAX_GENERATOR_BYTES} bytes of dense matrices"
            )
        previous = n


def system_from_generator_config(cfg) -> InductiveSystem:
    """Build a system from a generator config.

    Cantor: {"type": "cantor", "gaps": "middle-thirds" | [[x0+, x0-], [l, r], ...],
    "levels": J, "grading": bool}.  The first explicit interval is the outer
    interval [min, max]; the remaining ones are the removed gaps in
    nonincreasing-length order.

    Christensen-Ivan: {"type": "christensen-ivan", "chain": "binary" |
    {"branching": [[...], ...]}, "weights": "uniform" | [w...],
    "alphas": [a...], "levels": J}.

    Malformed fields, and a system whose dense matrices would exceed
    MAX_GENERATOR_BYTES, raise ValidationError before any generator runs;
    the generators raise it for the data they reject.
    """
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ValidationError("generator config must be an object with a 'type' field")
    levels = cfg.get("levels")
    if not isinstance(levels, int) or isinstance(levels, bool) or levels < 0:
        raise ValidationError(f"generator config 'levels' must be an integer >= 0, got {levels!r}")
    kind = cfg["type"]
    if kind == "cantor":
        gaps = cfg.get("gaps", "middle-thirds")
        if gaps != "middle-thirds":
            if not isinstance(gaps, list) or not gaps or not all(
                isinstance(g, list) and len(g) == 2 for g in gaps
            ):
                raise ValidationError("explicit gaps need [[x0+, x0-], [left, right], ...]")
            gaps = [tuple(finite_numbers(g, "generator config 'gaps'")) for g in gaps]
        with_grading = cfg.get("grading", True)
        if not isinstance(with_grading, bool):
            raise ValidationError(f"generator config 'grading' must be true or false, got {with_grading!r}")
        _check_generator_size((2 * (j + 1) for j in range(levels + 1)), 1 + with_grading)
        if gaps == "middle-thirds":
            seq = middle_thirds(levels)
        else:
            from .generators import GapSequence

            seq = GapSequence(*gaps[0], tuple(gaps[1:]))
        return cantor_system(seq, levels, with_grading=with_grading)
    if kind == "christensen-ivan":
        chain_cfg = cfg.get("chain", "binary")
        if chain_cfg == "binary":
            branching = None
            dims = (2**j for j in range(levels + 1))
        elif isinstance(chain_cfg, dict) and "branching" in chain_cfg:
            maps = chain_cfg["branching"]
            if not isinstance(maps, list) or not all(
                isinstance(m, list) and m and all(isinstance(v, int) and not isinstance(v, bool) for v in m)
                for m in maps
            ):
                raise ValidationError("chain 'branching' must be a list of non-empty integer lists")
            try:
                branching = [np.array(m, dtype=int) for m in maps]
            except OverflowError as exc:
                raise ValidationError("chain 'branching' has an integer out of range") from exc
            dims = ([1] + [len(m) for m in maps])[: levels + 1]
        else:
            raise ValidationError("chain must be 'binary' or {'branching': [...]}")
        weights_cfg = cfg.get("weights", "uniform")
        weights = None if weights_cfg == "uniform" else np.array(finite_numbers(weights_cfg, "generator config 'weights'"))
        alphas = finite_numbers(cfg.get("alphas"), "generator config 'alphas'")
        _check_generator_size(dims, 1)
        maps = binary_branching(levels) if branching is None else branching
        n_top = len(maps[-1]) if maps else 1
        w = np.full(n_top, 1.0 / n_top) if weights is None else weights
        return ci_system(commutative_af_chain(maps, w, alphas), levels)
    raise ValidationError(f"unknown generator type {kind!r}")

"""JSON encoding of algebras, elements, homomorphisms, states, triples,
morphisms and inductive systems.

Complex numbers are written as {"re": float, "im": float}; matrices as
row-major nested lists of those objects.  Diagonal representations are
written compactly as their coordinate-to-point map.  Dumps are
deterministic (sorted keys, fixed separators), so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .algebra import AlgebraElement, FiniteCStarAlgebra, StarHomomorphism, State
from .errors import ValidationError
from .generators import (
    GapSequence,
    binary_branching,
    cantor_system,
    ci_system,
    commutative_af_chain,
    middle_thirds,
)
from .inductive import InductiveSystem
from .triple import (
    DenseRepresentation,
    DiagonalRepresentation,
    FiniteSpectralTriple,
    TripleMorphism,
)

SYSTEM_FORMAT = "spectral-limits/system-v1"


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"im": z.imag, "re": z.real}


def complex_from_json(obj) -> complex:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValidationError(f"expected a {{re, im}} object, got {obj!r}")
    return complex(float(obj["re"]), float(obj["im"]))


def matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in a]


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValidationError("expected a nested list matrix")
    return np.array([[complex_from_json(z) for z in row] for row in obj], dtype=complex)


def algebra_to_json(a: FiniteCStarAlgebra) -> dict:
    return {"block_dims": list(a.block_dims)}


def algebra_from_json(obj) -> FiniteCStarAlgebra:
    return FiniteCStarAlgebra(tuple(int(n) for n in obj["block_dims"]))


def element_to_json(a: AlgebraElement) -> dict:
    return {
        "algebra": algebra_to_json(a.algebra),
        "blocks": [matrix_to_json(b) for b in a.blocks],
    }


def element_from_json(obj) -> AlgebraElement:
    algebra = algebra_from_json(obj["algebra"])
    return algebra.element([matrix_from_json(b) for b in obj["blocks"]])


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
        return StarHomomorphism(source, target, spectrum_map=np.asarray(enc["map"], dtype=int))
    if enc["kind"] == "explicit_linear":
        return StarHomomorphism(source, target, matrix=matrix_from_json(enc["matrix"]))
    raise ValidationError(f"unknown homomorphism encoding {enc.get('kind')!r}")


def state_to_json(s: State) -> dict:
    return {
        "algebra": algebra_to_json(s.algebra),
        "block_densities": [matrix_to_json(b) for b in s.block_densities],
    }


def state_from_json(obj) -> State:
    algebra = algebra_from_json(obj["algebra"])
    return State(algebra, tuple(matrix_from_json(b) for b in obj["block_densities"]))


def _rep_to_json(rep) -> dict:
    if isinstance(rep, DiagonalRepresentation):
        return {"kind": "diagonal", "coord_points": [int(v) for v in rep.coord_points]}
    return {"kind": "dense", "matrices": [matrix_to_json(m) for m in rep.tensor]}


def _rep_from_json(obj, algebra: FiniteCStarAlgebra):
    if obj["kind"] == "diagonal":
        return DiagonalRepresentation(np.asarray(obj["coord_points"], dtype=int), algebra.n_points)
    if obj["kind"] == "dense":
        return DenseRepresentation(np.array([matrix_from_json(m) for m in obj["matrices"]]))
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
    algebra = algebra_from_json(obj["algebra"])
    rep = _rep_from_json(obj["representation"], algebra)
    grading = matrix_from_json(obj["grading"]) if "grading" in obj else None
    return FiniteSpectralTriple(
        algebra, rep, matrix_from_json(obj["dirac"]), grading=grading, meta=obj.get("meta", {})
    )


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
    if not isinstance(obj, dict) or obj.get("format") != SYSTEM_FORMAT:
        raise ValidationError(f"not a {SYSTEM_FORMAT} document")
    triples = tuple(triple_from_json(t) for t in obj["triples"])
    links = []
    for j, m in enumerate(obj["links"]):
        links.append(
            TripleMorphism(
                triples[j], triples[j + 1], hom_from_json(m["phi"]), matrix_from_json(m["iso"])
            )
        )
    return InductiveSystem(triples, tuple(links), obj.get("provenance", {}))


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": "))


def save_system(s: InductiveSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(system_to_json(s)))
        fh.write("\n")


def load_system(path: str) -> InductiveSystem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    return system_from_json(obj)


def check_generator_config(cfg) -> int:
    """Check the fields every generator config needs; returns its ``levels``."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ValidationError("generator config must be an object with a 'type' field")
    levels = cfg.get("levels")
    if not isinstance(levels, int) or isinstance(levels, bool) or levels < 0:
        raise ValidationError(f"generator config 'levels' must be an integer >= 0, got {levels!r}")
    return levels


def system_from_generator_config(cfg: dict) -> InductiveSystem:
    """Build a system from a generator config.

    Cantor: {"type": "cantor", "gaps": "middle-thirds" | [[x0+, x0-], [l, r], ...],
    "levels": J, "grading": bool}.  The first explicit interval is the outer
    interval [min, max]; the remaining ones are the removed gaps in
    nonincreasing-length order.

    Christensen-Ivan: {"type": "christensen-ivan", "chain": "binary" |
    {"branching": [[...], ...]}, "weights": "uniform" | [w...],
    "alphas": [a...], "levels": J}.
    """
    levels = check_generator_config(cfg)
    kind = cfg["type"]
    if kind == "cantor":
        gaps = cfg.get("gaps", "middle-thirds")
        if gaps == "middle-thirds":
            seq = middle_thirds(levels)
        else:
            if not isinstance(gaps, list) or len(gaps) < 1:
                raise ValidationError("explicit gaps need [[x0+, x0-], [left, right], ...]")
            outer = gaps[0]
            seq = GapSequence(
                float(outer[0]),
                float(outer[1]),
                tuple((float(l), float(r)) for l, r in gaps[1:]),
            )
        return cantor_system(seq, levels, with_grading=bool(cfg.get("grading", True)))
    if kind == "christensen-ivan":
        chain_cfg = cfg.get("chain", "binary")
        if chain_cfg == "binary":
            branching = binary_branching(levels)
        elif isinstance(chain_cfg, dict) and "branching" in chain_cfg:
            branching = [np.asarray(b, dtype=int) for b in chain_cfg["branching"]]
        else:
            raise ValidationError("chain must be 'binary' or {'branching': [...]}")
        n_top = len(branching[-1]) if branching else 1
        weights_cfg = cfg.get("weights", "uniform")
        if weights_cfg == "uniform":
            weights = np.full(n_top, 1.0 / n_top)
        else:
            weights = np.asarray(weights_cfg, dtype=float)
        alphas = [float(a) for a in cfg["alphas"]]
        chain = commutative_af_chain(branching, weights, alphas)
        return ci_system(chain, levels)
    raise ValidationError(f"unknown generator type {kind!r}")

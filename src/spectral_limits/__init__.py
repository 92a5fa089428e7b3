"""spectral_limits: inductive systems of finite spectral triples.

Builders for Cantor-set and Christensen-Ivan style systems, validation of
triples and isometric morphisms, truncated inductive realizations, and
numerical diagnostics for the compact-resolvent (ST1) and
bounded-commutator (ST2) conditions, including the Connes spectral distance
on commutative triples.

The public names below are resolved on first access (PEP 562), so
``import spectral_limits`` loads none of the modules until a name is used.
"""

__version__ = "0.1.0"

import importlib

# The module that defines each public name, grouped by module.
_EXPORTS = {
    "errors": (
        "SpectralLimitsError", "ValidationError", "NumericError", "SingularityError",
        "UnsupportedError",
    ),
    "linalg": ("SpectralDecomposition", "eigh", "operator_norm", "resolvent", "commutator"),
    "algebra": (
        "FiniteCStarAlgebra", "AlgebraElement", "StarHomomorphism", "State", "GnsSpace",
        "ResidualReport", "gns", "hom_compose", "hom_validate",
    ),
    "triple": (
        "FiniteSpectralTriple", "TripleMorphism", "dense_representation", "diagonal_representation",
        "validate_triple", "validate_morphism", "commutator_norm",
    ),
    "distance": ("connes_distance", "connes_distance_with_path"),
    "inductive": ("InductiveSystem", "Realization", "realize", "system_validate"),
    "diagnostics": (
        "GapSeries", "CommutatorSeries", "Verdict", "resolvent_gap", "resolvent_gap_eigen",
        "function_gap", "gap_series", "commutator_series", "st1_verdict", "st2_verdict",
        "default_st2_probe", "analytic_gap_bound",
    ),
    "generators": (
        "GapSequence", "middle_thirds", "theta", "theta_index", "cantor_system", "AfChain",
        "commutative_af_chain", "binary_branching", "ci_system", "random_gap_sequence",
        "random_af_chain", "random_commutative_system",
    ),
    "serialization": (
        "save_system", "load_system", "system_to_json", "system_from_json",
        "system_from_generator_config",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _deferred(name: str):
    """Stand-in for the public function ``name``: each call looks it up in its
    module, which the first call imports.  A module binds the stand-in to
    ``name``, so a wrapper set on that attribute still sees every call."""

    def call(*args, **kwargs):
        return __getattr__(name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call

"""spectral_limits: inductive systems of finite spectral triples.

Builders for Cantor-set and Christensen-Ivan style systems, validation of
triples and isometric morphisms, truncated inductive realizations, and
numerical diagnostics for the compact-resolvent (ST1) and
bounded-commutator (ST2) conditions, including the Connes spectral distance
on commutative triples.
"""

__version__ = "0.1.0"

from .errors import (
    NumericError,
    SingularityError,
    SpectralLimitsError,
    UnsupportedError,
    ValidationError,
)
from .linalg import (
    SpectralDecomposition,
    commutator,
    eigh,
    operator_norm,
    resolvent,
)
from .algebra import (
    AlgebraElement,
    FiniteCStarAlgebra,
    GnsSpace,
    ResidualReport,
    StarHomomorphism,
    State,
    gns,
    hom_compose,
    hom_validate,
)
from .triple import (
    FiniteSpectralTriple,
    TripleMorphism,
    commutator_norm,
    dense_representation,
    diagonal_representation,
    validate_morphism,
    validate_triple,
)
from .distance import connes_distance, connes_distance_with_path
from .inductive import (
    InductiveSystem,
    Realization,
    realize,
    system_validate,
)
from .diagnostics import (
    CommutatorSeries,
    GapSeries,
    Verdict,
    analytic_gap_bound,
    commutator_series,
    default_st2_probe,
    function_gap,
    gap_series,
    resolvent_gap,
    resolvent_gap_eigen,
    st1_verdict,
    st2_verdict,
)
from .generators import (
    AfChain,
    GapSequence,
    binary_branching,
    cantor_system,
    ci_system,
    commutative_af_chain,
    middle_thirds,
    random_af_chain,
    random_commutative_system,
    random_gap_sequence,
    theta,
    theta_index,
)
from .serialization import (
    load_system,
    save_system,
    system_from_generator_config,
    system_from_json,
    system_to_json,
)

__all__ = [
    "__version__",
    "SpectralLimitsError",
    "ValidationError",
    "NumericError",
    "SingularityError",
    "UnsupportedError",
    "SpectralDecomposition",
    "eigh",
    "operator_norm",
    "resolvent",
    "commutator",
    "FiniteCStarAlgebra",
    "AlgebraElement",
    "StarHomomorphism",
    "State",
    "GnsSpace",
    "ResidualReport",
    "gns",
    "hom_compose",
    "hom_validate",
    "FiniteSpectralTriple",
    "TripleMorphism",
    "dense_representation",
    "diagonal_representation",
    "validate_triple",
    "validate_morphism",
    "commutator_norm",
    "connes_distance",
    "connes_distance_with_path",
    "InductiveSystem",
    "Realization",
    "realize",
    "system_validate",
    "GapSeries",
    "CommutatorSeries",
    "Verdict",
    "resolvent_gap",
    "resolvent_gap_eigen",
    "function_gap",
    "gap_series",
    "commutator_series",
    "st1_verdict",
    "st2_verdict",
    "default_st2_probe",
    "analytic_gap_bound",
    "GapSequence",
    "middle_thirds",
    "theta",
    "theta_index",
    "cantor_system",
    "AfChain",
    "commutative_af_chain",
    "binary_branching",
    "ci_system",
    "random_gap_sequence",
    "random_af_chain",
    "random_commutative_system",
    "save_system",
    "load_system",
    "system_to_json",
    "system_from_json",
    "system_from_generator_config",
]

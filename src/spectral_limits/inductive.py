"""Inductive systems of spectral triples and their truncated realizations.

Only adjacent links are stored; every composed morphism is derived by
chaining, which makes the cocycle identities structural instead of
something to verify.  The infinite inductive limit is represented solely by
its level-J truncations: the ambient triple of a realization is the top
triple of the chain, carrying the composed embeddings I_{j,J}; the
orthogonal projections P_j = I_{j,J} I_{j,J}* are formed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .algebra import VALIDATION_TOL, ResidualReport
from .errors import ValidationError
from .linalg import (
    SpectralDecomposition,
    dagger,
    eigh,
    operator_norm,
)
from .triple import (
    FiniteSpectralTriple,
    TripleMorphism,
    compose_morphisms,
    identity_morphism,
    validate_morphism,
    validate_triple,
)


@dataclass(frozen=True)
class InductiveSystem:
    """Finite chain T_0 -> T_1 -> ... -> T_J with adjacent morphisms."""

    triples: tuple[FiniteSpectralTriple, ...]
    links: tuple[TripleMorphism, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.triples) < 1:
            raise ValidationError("inductive system needs at least one triple")
        if len(self.links) != len(self.triples) - 1:
            raise ValidationError(
                f"expected {len(self.triples) - 1} links for {len(self.triples)} triples, "
                f"got {len(self.links)}"
            )
        for j, link in enumerate(self.links):
            if link.source is not self.triples[j] or link.target is not self.triples[j + 1]:
                if (
                    link.source.hilbert_dim != self.triples[j].hilbert_dim
                    or link.target.hilbert_dim != self.triples[j + 1].hilbert_dim
                ):
                    raise ValidationError(f"link {j} does not connect triples {j} -> {j + 1}")

    @property
    def top_level(self) -> int:
        return len(self.triples) - 1


def embed(system: InductiveSystem, j: int, k: int) -> TripleMorphism:
    """Composed morphism T_j -> T_k obtained by chaining adjacent links."""
    if not (0 <= j <= k <= system.top_level):
        raise ValidationError(f"need 0 <= j <= k <= {system.top_level}, got j={j}, k={k}")
    if j == k:
        return identity_morphism(system.triples[j])
    morphism = system.links[j]
    for step in range(j + 1, k):
        morphism = compose_morphisms(morphism, system.links[step])
    return morphism


def system_validate(
    system: InductiveSystem, tol: float = VALIDATION_TOL
) -> "SystemReport":
    """Validate every triple and every link; aggregate names the first failure."""
    triple_reports = tuple(validate_triple(t, tol=tol) for t in system.triples)
    link_reports = tuple(validate_morphism(m, tol=tol) for m in system.links)
    failing_triple = next((j for j, r in enumerate(triple_reports) if not r.passed), None)
    failing_link = next((j for j, r in enumerate(link_reports) if not r.passed), None)
    return SystemReport(triple_reports, link_reports, tol, failing_triple, failing_link)


@dataclass(frozen=True)
class SystemReport:
    triple_reports: tuple[ResidualReport, ...]
    link_reports: tuple[ResidualReport, ...]
    tol: float
    failing_triple: int | None
    failing_link: int | None

    @property
    def passed(self) -> bool:
        return self.failing_triple is None and self.failing_link is None

    @property
    def worst(self) -> float:
        worst = 0.0
        for r in self.triple_reports + self.link_reports:
            worst = max(worst, r.worst)
        return worst

    def summary(self) -> str:
        if self.passed:
            return f"pass: {len(self.triple_reports)} triples, {len(self.link_reports)} links, worst residual {self.worst:.2e}"
        parts = []
        if self.failing_triple is not None:
            parts.append(
                f"triple {self.failing_triple}: "
                + self.triple_reports[self.failing_triple].summary()
            )
        if self.failing_link is not None:
            parts.append(
                f"link {self.failing_link}: " + self.link_reports[self.failing_link].summary()
            )
        return "FAIL " + "; ".join(parts)


class Realization:
    """Level-J truncation of the inductive limit.

    Carries the ambient triple T_J and the embeddings I_{j,J} for j <= J.
    Diagnostics read, for every probe, one cached eigendecomposition per
    level, one rotation W_j = U* I_{j,J} V_j per level into the ambient and
    level-j eigenbases U and V_j, and one containment defect per (level,
    ambient cluster).
    """

    def __init__(self, system: InductiveSystem, level: int):
        if not (0 <= level <= system.top_level):
            raise ValidationError(f"level must lie in [0, {system.top_level}], got {level}")
        self.system = system
        self.level = level
        self.ambient = system.triples[level]
        embeddings = [None] * (level + 1)
        embeddings[level] = np.eye(self.ambient.hilbert_dim, dtype=complex)
        for j in range(level - 1, -1, -1):
            embeddings[j] = embeddings[j + 1] @ system.links[j].iso
        self.embeddings = tuple(embeddings)
        self._decompositions: dict[int, SpectralDecomposition] = {}
        self._rotations: dict[int, np.ndarray] = {}
        self._defects: dict[tuple[int, tuple[int, ...]], float] = {}

    def embedding(self, j: int) -> np.ndarray:
        return self.embeddings[j]

    def projection(self, j: int) -> np.ndarray:
        """P_j = I_{j,J} I_{j,J}*, formed on each call."""
        return self.embeddings[j] @ dagger(self.embeddings[j])

    def level_decomposition(self, j: int) -> SpectralDecomposition:
        if j not in self._decompositions:
            self._decompositions[j] = eigh(self.system.triples[j].dirac)
        return self._decompositions[j]

    def ambient_decomposition(self) -> SpectralDecomposition:
        return self.level_decomposition(self.level)

    def rotation(self, j: int) -> np.ndarray:
        """W_j = U* I_{j,J} V_j, the embedding in the ambient and level-j eigenbases.

        I_{j,J} g(D_j) I_{j,J}* = U W_j g(Lambda_j) W_j* U* for every function
        g.  W_J is the identity exactly.
        """
        if j not in self._rotations:
            if j == self.level:
                w = np.eye(self.ambient.hilbert_dim, dtype=complex)
            else:
                u = self.ambient_decomposition().vectors
                w = dagger(u) @ (self.embeddings[j] @ self.level_decomposition(j).vectors)
            self._rotations[j] = w
        return self._rotations[j]

    def containment_defect(self, j: int, cluster: tuple[int, ...]) -> float:
        """||Q - P_j Q|| for the eigenprojection Q of the ambient eigenvectors indexed by ``cluster``.

        In the ambient eigenbasis this is ||W_j W_j[cluster]* - E||, with E
        the identity columns of ``cluster``.
        """
        key = (j, cluster)
        if key not in self._defects:
            w = self.rotation(j)
            rows = list(cluster)
            # Formed explicitly: the Gram shortcut 1 - W[c]W[c]* cancels to half precision.
            defect = w @ dagger(w[rows])
            defect[rows, range(len(rows))] -= 1.0
            self._defects[key] = operator_norm(defect)
        return self._defects[key]


def realize(system: InductiveSystem, level: int | None = None) -> Realization:
    """Truncated inductive realization at the given level (default: top)."""
    if level is None:
        level = system.top_level
    return Realization(system, level)

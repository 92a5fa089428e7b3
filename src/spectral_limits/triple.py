"""Finite spectral triples and their isometric morphisms.

A triple bundles a faithful unital representation of a finite C*-algebra on
a finite-dimensional Hilbert space, a Hermitian Dirac operator and an
optional grading.  The representation is a *-homomorphism
(``StarHomomorphism``) whose source is the triple's algebra, in either of
its encodings: a spectrum map into C^N (``diagonal_representation``: a
commutative algebra acting by multiplication operators, coordinate r
carrying one point) or an explicit map into M_N (``dense_representation``:
one matrix per algebra basis element).  The spectrum map is what keeps deep
inductive systems tractable: an explicit map for a 1024-point algebra on a
1024-dimensional space would need order 10^9 entries per level.

In finite dimension the compact-resolvent and bounded-commutator conditions
hold automatically; validation therefore checks the representation through
``hom_validate`` (exact residuals on the matrix-unit relations for an
explicit map, fibre counts for a spectrum map), Hermiticity, the grading
when there is one, and morphism identities, and records that the two
analytic conditions are trivial at this level.  A morphism's algebra
intertwining is ||I - E(I)|| for every encoding, E the average over the
source unitaries; it bounds the defect of every element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraElement,
    FiniteCStarAlgebra,
    ResidualReport,
    StarHomomorphism,
    VALIDATION_TOL,
    chunks,
    hom_compose,
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


def diagonal_representation(algebra: FiniteCStarAlgebra, coord_points) -> StarHomomorphism:
    """Commutative ``algebra`` acting diagonally, coordinate r carrying point
    ``coord_points[r]``: the spectrum map ``coord_points`` into C^N, whose
    integer dtype ``StarHomomorphism`` checks."""
    cp = np.asarray(coord_points).ravel()
    if cp.size < 1:
        raise ValidationError("diagonal representation needs at least one coordinate")
    return StarHomomorphism(algebra, FiniteCStarAlgebra((1,) * cp.size), spectrum_map=cp)


def dense_representation(algebra: FiniteCStarAlgebra, matrices) -> StarHomomorphism:
    """The explicit map into M_N sending basis element i to ``matrices[i]``."""
    tensor = np.asarray(matrices, dtype=complex)
    if tensor.ndim != 3 or tensor.shape[1] != tensor.shape[2]:
        raise ValidationError("dense representation needs a (basis, N, N) tensor")
    b, n, _ = tensor.shape
    return StarHomomorphism(algebra, FiniteCStarAlgebra((n,)), matrix=tensor.reshape(b, n * n).T)


def operators(rep: StarHomomorphism, coords) -> np.ndarray:
    """Matrices of the images under ``rep`` of the elements with the given
    coordinates (last axis): diagonal for a target C^N, the image blocks
    for a target M_N."""
    c = np.asarray(coords, dtype=complex)
    values = c[..., rep.spectrum_map] if rep.spectrum_map is not None else c @ rep.matrix.T
    if not rep.target.is_commutative:
        n = rep.target.block_dims[0]
        return values.reshape(c.shape[:-1] + (n, n))
    out = np.zeros(values.shape + (values.shape[-1],), dtype=complex)
    diag = np.arange(values.shape[-1])
    out[..., diag, diag] = values
    return out


@dataclass(frozen=True)
class FiniteSpectralTriple:
    """Representation, Dirac operator and optional grading.

    ``rep`` is a spectrum map into C^N or an explicit map into one block
    M_N; its source is the triple's algebra.  ``dirac`` and ``grading`` are
    stored as float64 when their imaginary parts are exactly +0.0, else as
    complex128 (``linalg.exactly_real``).
    """

    rep: StarHomomorphism
    dirac: np.ndarray
    grading: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rep.spectrum_map is None and len(self.rep.target.block_dims) != 1:
            raise ValidationError("an explicit representation must map into one block M_N")
        d = exactly_real(as_matrix(self.dirac, "dirac"))
        n = self.hilbert_dim
        if d.shape != (n, n):
            raise ValidationError(f"dirac shape {d.shape} does not match Hilbert dimension {n}")
        object.__setattr__(self, "dirac", d)
        if self.grading is not None:
            g = exactly_real(as_matrix(self.grading, "grading"))
            if g.shape != (n, n):
                raise ValidationError("grading shape does not match Hilbert dimension")
            object.__setattr__(self, "grading", g)

    @property
    def algebra(self) -> FiniteCStarAlgebra:
        return self.rep.source

    @property
    def hilbert_dim(self) -> int:
        if self.rep.spectrum_map is not None:
            return len(self.rep.spectrum_map)
        return self.rep.target.block_dims[0]

    @cached_property
    def dirac_is_hermitian(self) -> bool:
        """Whether D equals D* exactly, as the cut-block route of ``commutator_norm`` needs."""
        return bool(np.array_equal(self.dirac, dagger(self.dirac)))

    def represent(self, a: AlgebraElement) -> np.ndarray:
        if a.algebra.block_dims != self.algebra.block_dims:
            raise ValidationError("element does not belong to the triple's algebra")
        return operators(self.rep, a.coordinates)


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
    only the fibre counts of a spectrum map, the matrix-unit relations of an
    explicit map.  The Dirac and grading residuals are Frobenius norms, which
    bound the operator norms.  The report notes that the compact-resolvent
    and bounded-commutator conditions are automatic in finite dimension.
    """
    rep = hom_validate(t.rep).entries
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


def _trimmed_norm(block: np.ndarray) -> float:
    """Operator norm of ``block`` on its nonzero rows and columns, 0.0 when it has none."""
    block = block[np.ix_(block.any(axis=1), block.any(axis=0))]
    return operator_norm(block) if block.size else 0.0


def _intertwining_residual(m: TripleMorphism) -> float:
    """||I - E(I)||, E(I) = sum_b (1/n_b) sum_kl rho(e^b_kl) I pi(e^b_lk) the
    average of rho(u) I pi(u)* over the source unitaries; pi = pi1, rho = pi2 o phi.

    For unital *-homomorphisms pi and rho (``validate_triple``, ``phi_axioms``),
    e_pq e_kl = delta_qk e_pl gives rho(e_pq) E(I) = (1/n_b) sum_l rho(e_pl) I
    pi(e_lq) = E(I) pi(e_pq), and units of other blocks give 0, so E(I)
    intertwines; if I does, E(I) = sum_b (1/n_b) sum_kl rho(e_kk) I = rho(1) I = I.
    So I - E(I) = 0 exactly when I intertwines, and with Y = I - E(I),
    ||I pi(a) - rho(a) I|| = ||Y pi(a) - rho(a) Y|| <= 2 ||a|| ||Y|| for all a.

    Diagonal pi and rho make I - E(I) the Hadamard product of I and
    1 - rho(e_{sigma1[c]})[r, r] (I off the matching labels for a spectrum
    map); otherwise the products are summed over chunks of the basis.
    """
    src, iso = m.source, m.iso
    pulled = hom_compose(m.target.rep, m.phi)
    sigma = src.rep.spectrum_map
    if sigma is not None and pulled.spectrum_map is not None:
        return _trimmed_norm(np.where(pulled.spectrum_map[:, None] == sigma[None, :], 0.0, iso))
    if sigma is not None and pulled.target.is_commutative:
        return _trimmed_norm(iso * (1.0 - pulled.matrix[:, sigma]))
    a = src.algebra
    basis = np.eye(a.element_dim)
    weights = np.repeat(1.0 / np.array(a.block_dims), np.square(a.block_dims))
    average = np.zeros(iso.shape, dtype=complex)
    # pi1(e), rho(e) and two N2 x N1 products per element: (N1 + N2)^2 entries.
    for rows in chunks(a.element_dim, sum(iso.shape) ** 2):
        left = operators(pulled, basis[rows] * weights[rows, None]) @ iso
        right = operators(src.rep, basis[a.star_permutation()[rows]])
        average += np.tensordot(left, right, axes=([0, 2], [0, 1]))
    return _trimmed_norm(iso - average)


def validate_morphism(m: TripleMorphism) -> ResidualReport:
    """Residuals for isometry, intertwining identities and injectivity;
    ``algebra_intertwining`` is ||I - E(I)|| (``_intertwining_residual``)."""
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
    norm = _trimmed_norm(dirac[np.ix_(cut, ~cut)])
    if not norm:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        d = float(abs(other[0] - f[0]))
    return d * norm


def commutator_norm(t: FiniteSpectralTriple, a: AlgebraElement) -> float:
    """Operator norm of [D, pi(a)]; a diagonal pi(a) = diag(f) is never formed.

    A diagonal pi(a) with at most two values takes the cut block of
    ``_cut_norm`` when D is exactly Hermitian; everything else takes the
    dense commutator.  Raises ``ValidationError`` when the norm exceeds the
    float range.
    """
    if a.algebra.block_dims != t.algebra.block_dims:
        raise ValidationError("element does not belong to the triple's algebra")
    diagonal = t.rep.spectrum_map is not None
    if diagonal:
        f = np.asarray(a.coordinates, dtype=complex)[t.rep.spectrum_map]
        norm = _cut_norm(t.dirac, f) if t.dirac_is_hermitian else None
    if not diagonal or norm is None:
        with np.errstate(over="ignore", invalid="ignore"):
            if diagonal:
                c = t.dirac * f[None, :] - f[:, None] * t.dirac
            else:
                c = commutator(t.dirac, operators(t.rep, a.coordinates))
        norm = operator_norm(c) if np.isfinite(c).all() else math.inf
    if not math.isfinite(norm):
        raise ValidationError("||[D, pi(a)]|| exceeds the float range")
    return norm

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
    scale_exponent,
    times_pow2,
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
    bound the operator norms.  The compact-resolvent (ST1) and
    bounded-commutator (ST2) conditions hold automatically in finite
    dimension, so they are not checked.
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
    return ResidualReport(entries, informational=("faithfulness_margin",))


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
    ``algebra_intertwining`` is ||I - E(I)|| (``_intertwining_residual``).
    phi(A1^inf) lies in A2^inf automatically in finite dimension, so it is
    not checked."""
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
    return ResidualReport(entries, informational=("injectivity_margin",))


def _side_grams(d: np.ndarray, side: np.ndarray, m: int) -> np.ndarray:
    """Gram matrices X X*, one per row of the (fibres, N) mask ``side`` with m
    entries set, X = D[T, :] with its columns in T zeroed, T the set entries.

    X is freed on return, so it is never held with the copy of the Grams
    that ``eigvalsh`` makes: 16 MiB and 8 MiB for a half-size fibre at
    dimension 2048.
    """
    x = d[np.nonzero(side)[1].reshape(-1, m)]
    np.copyto(x, 0.0, where=side[:, None, :])
    xh = np.swapaxes(x, 1, 2)
    return x @ (xh.conj() if np.iscomplexobj(x) else xh)


def _cut_norms(dirac: np.ndarray, partitions) -> list[np.ndarray]:
    """||D[S, S^c]|| for every fibre S of each partition, for an exactly Hermitian D.

    A partition is a pair (labels, count): coordinate r lies in fibre
    labels[r], and fibres 0..count-1 are measured (a coordinate labelled
    count or more lies in none of them).  By the identity of ``_cut_norm``
    this is ||[D, diag 1_S]||.  D is scaled once by 2^-e, e its
    ``scale_exponent``, which is exact.

    Each fibre is read on its short side T, the smaller of S and S^c: D[T, :]
    with its columns in T zeroed has the Gram matrix of the block
    D[S, S^c] on its short side, since D[S^c, S] = D[S, S^c]*.  A fibre that
    is empty or covers every coordinate gives 0.0 exactly, and a one-row
    side's 1 x 1 Gram matrix is its squared row norm.  Larger sides are
    grouped by size (``bincount``) and stacked in chunks of at most
    CHUNK_ENTRIES row and Gram entries, one batched ``eigvalsh`` per chunk,
    which reads one triangle of each Gram matrix.  Raises ``ValidationError``
    when a norm exceeds the float range.
    """
    n = dirac.shape[0]
    # A real D's largest modulus without an N x N temporary.
    largest = np.abs(dirac).max() if np.iscomplexobj(dirac) else max(dirac.max(), -dirac.min())
    e = scale_exponent(float(largest))
    d = times_pow2(dirac, -e)
    out = []
    for labels, count in partitions:
        sizes = np.bincount(labels, minlength=count)[:count]
        short = np.minimum(sizes, n - sizes)
        squares = np.zeros(count)
        groups = np.bincount(short)
        groups[0] = 0
        for m in np.flatnonzero(groups):
            fibres = np.flatnonzero(short == m)
            for part in chunks(fibres.size, m * (n + m)):
                ids = fibres[part]
                # T is the fibre itself, or its complement when that is smaller.
                grams = _side_grams(d, (labels == ids[:, None]) != (sizes[ids] > m)[:, None], m)
                squares[ids] = grams[:, 0, 0].real if m == 1 else np.linalg.eigvalsh(grams)[:, -1]
        with np.errstate(over="ignore"):
            norms = np.ldexp(np.sqrt(np.where(squares > 0.0, squares, 0.0)), e)
        if not np.isfinite(norms).all():
            raise ValidationError("||[D, pi(a)]|| exceeds the float range")
        out.append(norms)
    return out


def _cut_norm(dirac: np.ndarray, f: np.ndarray) -> float | None:
    """||[D, diag f]|| for a Hermitian D when f takes at most two values, else None.

    A constant f commutes with D.  For f = c + d 1_S the commutator is
    d [[0, -B], [B*, 0]] with B = D[S, S^c], so its norm is |d| ||B||: the
    one-fibre case of ``_cut_norms``.
    """
    cut = f != f[0]
    if not cut.any():
        return 0.0
    other = f[cut]
    if not (other == other[0]).all():
        return None
    # Fibre 0 is S; the other coordinates are labelled 1 and lie in no measured fibre.
    norm = float(_cut_norms(dirac, [((~cut).astype(np.intp), 1)])[0][0])
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

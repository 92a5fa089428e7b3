"""Finite-dimensional C*-algebras and the GNS construction.

An algebra is a direct sum of full matrix blocks, elements are flat
coordinate vectors (the point values in the commutative case),
*-homomorphisms come either as spectrum maps (pullbacks between finite point
sets, commutative case) or as explicit linear maps on coordinates, checked
on the matrix-unit relations of each block, and a state holds its density
as one algebra element, so tau(a) is the inner product of two coordinate
vectors.  The GNS space of a faithful state is presented in the element
basis with a Gram matrix and a Cholesky factor for orthonormal coordinates.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix, dagger, scale_exponent, times_pow2
from .linalg import operator_norm  # noqa: F401  (wrapped by name in perfbench/tracing.py)

# Default residual tolerance of every validation: homomorphisms here, triples,
# morphisms and whole systems in ``triple`` and ``inductive``.
VALIDATION_TOL = 1e-10
# Smallest eigenvalue (relative to trace) below which a density is not faithful.
FAITHFUL_TOL = 1e-12
# Complex entries per chunk of a stacked residual, which bounds its memory.
CHUNK_ENTRIES = 2**20


class FiniteCStarAlgebra:
    """Direct sum of full matrix blocks M_{n_1} + ... + M_{n_s}.

    Elements are coordinate vectors: the row-major entries of each block in
    turn.  The coordinate methods below act on the last axis of an array, so
    they apply to one element or to a whole stack of elements at once.
    Two algebras are equal when their block dimensions are.
    """

    def __init__(self, block_dims: tuple[int, ...]):
        if len(block_dims) < 1:
            raise ValidationError("algebra needs at least one block")
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in block_dims):
            raise ValidationError(f"block dimensions must be integers, got {block_dims!r}")
        if any(n < 1 for n in block_dims):
            raise ValidationError("block dimensions must be positive")
        dims = tuple(int(n) for n in block_dims)
        offsets = [0]
        for n in dims:
            offsets.append(offsets[-1] + n * n)
        self.block_dims = dims
        # Number of coordinates, sum of n^2 over the blocks, and the other
        # shape facts below: every element construction and homomorphism
        # reads them, so they are computed once here.
        self.element_dim = offsets[-1]
        self.is_commutative = all(n == 1 for n in dims)
        self._offsets = tuple(offsets)

    def __eq__(self, other):
        if not isinstance(other, FiniteCStarAlgebra):
            return NotImplemented
        return self.block_dims == other.block_dims

    def __hash__(self):
        return hash(self.block_dims)

    def __repr__(self):
        return f"FiniteCStarAlgebra(block_dims={self.block_dims!r})"

    @property
    def n_points(self) -> int:
        if not self.is_commutative:
            raise ValidationError("point set is defined only for commutative algebras")
        return len(self.block_dims)

    def block_offsets(self) -> tuple[int, ...]:
        return self._offsets

    @cached_property
    def _block_index(self) -> tuple[np.ndarray, ...]:
        """Coordinate indices of the blocks, one (count, n, n) array per block size n."""
        dims = np.array(self.block_dims)
        starts = np.array(self.block_offsets()[:-1])
        return tuple(
            starts[dims == n, None, None] + np.arange(n * n).reshape(n, n)
            for n in sorted(set(self.block_dims))
        )

    def unit(self) -> "AlgebraElement":
        coords = np.zeros(self.element_dim, dtype=complex)
        for idx in self._block_index:
            diag = np.arange(idx.shape[1])
            coords[idx[:, diag, diag]] = 1.0
        return AlgebraElement(self, coords)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.element_dim, dtype=complex))

    def element(self, blocks: Sequence) -> "AlgebraElement":
        mats = [as_matrix(b, "block") for b in blocks]
        shapes = [m.shape for m in mats]
        if shapes != [(n, n) for n in self.block_dims]:
            raise ValidationError(f"block shapes {shapes} do not match block dimensions {self.block_dims}")
        return AlgebraElement(self, np.concatenate([m.ravel() for m in mats]))

    def from_point_values(self, values) -> "AlgebraElement":
        """Commutative shorthand: an element from its tuple of point values."""
        vals = np.asarray(values, dtype=complex).ravel()
        if not self.is_commutative or vals.shape[0] != self.n_points:
            raise ValidationError("from_point_values needs a commutative algebra and one value per point")
        return AlgebraElement(self, vals)

    def from_coordinates(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def basis_element(self, index: int) -> "AlgebraElement":
        coords = np.zeros(self.element_dim, dtype=complex)
        coords[index] = 1.0
        return AlgebraElement(self, coords)

    def basis(self) -> Iterable["AlgebraElement"]:
        for i in range(self.element_dim):
            yield self.basis_element(i)

    def star_permutation(self) -> np.ndarray:
        """Coordinate permutation realizing the adjoint on the matrix-unit basis."""
        perm = np.arange(self.element_dim)
        for idx in self._block_index:
            perm[idx] = idx.transpose(0, 2, 1)
        return perm

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        if self.is_commutative:
            return x.conj()
        return x.conj()[..., self.star_permutation()]

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.is_commutative:
            return x * y
        x, y = np.broadcast_arrays(x, y)
        out = np.empty(x.shape, dtype=complex)
        for idx in self._block_index:
            out[..., idx] = x[..., idx] @ y[..., idx]
        return out

    def norms(self, x: np.ndarray) -> np.ndarray:
        """C*-norm of each element: the largest operator norm of its blocks."""
        if self.is_commutative:
            return np.abs(x).max(axis=-1)
        return np.max(
            [np.linalg.norm(x[..., idx], ord=2, axis=(-2, -1)).max(axis=-1) for idx in self._block_index],
            axis=0,
        )


class AlgebraElement:
    """Element of a finite C*-algebra, stored as its flat coordinate vector."""

    def __init__(self, algebra: FiniteCStarAlgebra, coordinates):
        vec = np.asarray(coordinates, dtype=complex).ravel()
        if vec.shape[0] != algebra.element_dim:
            raise ValidationError("coordinate vector has wrong length")
        if not np.all(np.isfinite(vec)):
            raise ValidationError("element has non-finite coordinates")
        self.algebra = algebra
        self.coordinates = vec

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        offsets = self.algebra.block_offsets()
        return tuple(
            self.coordinates[o : o + n * n].reshape(n, n)
            for o, n in zip(offsets, self.algebra.block_dims)
        )

    @property
    def point_values(self) -> np.ndarray:
        if not self.algebra.is_commutative:
            raise ValidationError("point values are defined only for commutative algebras")
        return self.coordinates

    def star(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.algebra.adjoint(self.coordinates))

    def norm(self) -> float:
        return float(self.algebra.norms(self.coordinates))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.algebra, self.coordinates + other.coordinates)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.algebra, self.coordinates - other.coordinates)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            return AlgebraElement(self.algebra, self.algebra.multiply(self.coordinates, other.coordinates))
        return AlgebraElement(self.algebra, complex(other) * self.coordinates)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _check_same(self, other: "AlgebraElement"):
        if self.algebra.block_dims != other.algebra.block_dims:
            raise ValidationError("elements belong to different algebras")


class StarHomomorphism:
    """Unital *-homomorphism, encoded as a spectrum map or an explicit linear map.

    A spectrum map sends target points to source points (the homomorphism is
    the pullback); the explicit form is a matrix acting on element
    coordinates whose axioms are checked numerically by ``hom_validate``.
    """

    def __init__(
        self,
        source: FiniteCStarAlgebra,
        target: FiniteCStarAlgebra,
        spectrum_map: np.ndarray | None = None,
        matrix: np.ndarray | None = None,
    ):
        if (spectrum_map is None) == (matrix is None):
            raise ValidationError("exactly one of spectrum_map / matrix must be given")
        if spectrum_map is not None:
            if not (source.is_commutative and target.is_commutative):
                raise ValidationError("spectrum maps require commutative source and target")
            m = np.asarray(spectrum_map)
            if m.dtype.kind not in "iu":
                raise ValidationError(f"spectrum map must have an integer dtype, got {m.dtype}")
            m = m.astype(int, copy=False).ravel()
            if m.shape[0] != target.n_points:
                raise ValidationError("spectrum map must assign a source point to every target point")
            if m.size and (m.min() < 0 or m.max() >= source.n_points):
                raise ValidationError("spectrum map values out of range")
            spectrum_map = m
        else:
            m = as_matrix(matrix, "homomorphism matrix")
            if m.shape != (target.element_dim, source.element_dim):
                raise ValidationError(
                    f"homomorphism matrix shape {m.shape} does not match "
                    f"({target.element_dim}, {source.element_dim})"
                )
            matrix = m
        self.source = source
        self.target = target
        self.spectrum_map = spectrum_map
        self.matrix = matrix

    @classmethod
    def identity(cls, algebra: FiniteCStarAlgebra) -> "StarHomomorphism":
        if algebra.is_commutative:
            return cls(algebra, algebra, spectrum_map=np.arange(algebra.n_points))
        return cls(algebra, algebra, matrix=np.eye(algebra.element_dim, dtype=complex))

    def as_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        out = np.zeros((self.target.n_points, self.source.n_points), dtype=complex)
        out[np.arange(self.target.n_points), self.spectrum_map] = 1.0
        return out

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        if a.algebra.block_dims != self.source.block_dims:
            raise ValidationError("element does not belong to the source algebra")
        if self.spectrum_map is not None:
            return AlgebraElement(self.target, a.coordinates[self.spectrum_map])
        return AlgebraElement(self.target, self.matrix @ a.coordinates)


def hom_compose(second: StarHomomorphism, first: StarHomomorphism) -> StarHomomorphism:
    """Composite second o first (first: A->B, second: B->C).

    A spectrum map after an explicit map gathers the rows of the explicit
    matrix, which is the product with the 0/1 matrix of the spectrum map.
    """
    if first.target.block_dims != second.source.block_dims:
        raise ValidationError("homomorphisms do not compose: endpoint mismatch")
    if second.spectrum_map is not None:
        if first.spectrum_map is not None:
            return StarHomomorphism(
                first.source, second.target, spectrum_map=first.spectrum_map[second.spectrum_map]
            )
        return StarHomomorphism(first.source, second.target, matrix=first.matrix[second.spectrum_map])
    return StarHomomorphism(
        first.source, second.target, matrix=second.matrix @ first.as_matrix()
    )


class ResidualReport:
    """Named residuals and an aggregate verdict: each residual passes up to ``VALIDATION_TOL``."""

    def __init__(self, entries: dict[str, float], informational: tuple[str, ...] = ()):
        self.entries = entries
        # Residual names excluded from the pass/fail aggregation (reported only).
        self.informational = informational

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(
            k for k, v in self.entries.items() if k not in self.informational and v > VALIDATION_TOL
        )

    @property
    def worst(self) -> float:
        checked = [v for k, v in self.entries.items() if k not in self.informational]
        return max(checked) if checked else 0.0

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL(" + ",".join(self.failures) + ")"
        body = ", ".join(f"{k}={v:.2e}" for k, v in self.entries.items())
        return f"{status}: {body}"


def map_residuals(
    source: FiniteCStarAlgebra, target: FiniteCStarAlgebra, images: np.ndarray
) -> dict[str, float]:
    """Unitality, multiplicativity and *-preservation of a linear map.

    ``images[a]`` holds the target coordinates of the image of the a-th
    matrix unit of ``source``.  Multiplicativity is checked on the relations
    pi(e_k1) pi(e_1l) = pi(e_kl) and pi(e_1k) pi(e_k1) = pi(e_11) in each
    block: with unitality and *-preservation they make the pi(e_kk)
    projections summing to 1, hence orthogonal, so every product of matrix
    units follows.  Each residual is an exact maximum of the target norm.
    """
    unit = target.norms(source.unit().coordinates @ images - target.unit().coordinates)
    star = target.norms(images[source.star_permutation()] - target.adjoint(images)).max()
    relations = []
    for idx in source._block_index:
        n = idx.shape[1]
        # e_rm e_mc = e_rc for (r, m, c) = (k, 1, l), all k, l, and (1, k, 1), k >= 2; 0-based below.
        r, m, c = np.array([(k, 0, l) for k in range(n) for l in range(n)] + [(0, k, 0) for k in range(1, n)]).T
        relations.append(np.stack([idx[:, r, m], idx[:, m, c], idx[:, r, c]]).reshape(3, -1))
    left, right, prod = np.concatenate(relations, axis=1)
    mult = 0.0
    for rows in chunks(prod.size, images.shape[1]):
        rhs = target.multiply(images[left[rows]], images[right[rows]])
        mult = max(mult, target.norms(images[prod[rows]] - rhs).max())
    return {
        "unitality": float(unit),
        "multiplicativity": float(mult),
        "star_preservation": float(star),
    }


def chunks(count: int, entries_per_item: int) -> Iterable[slice]:
    """Slices of range(count) holding at most CHUNK_ENTRIES entries each."""
    step = max(1, CHUNK_ENTRIES // max(1, entries_per_item))
    return (slice(i, i + step) for i in range(0, count, step))


def hom_validate(phi: StarHomomorphism) -> ResidualReport:
    """Residuals for unitality, multiplicativity, *-preservation and injectivity.

    A spectrum map is a unital *-homomorphism by construction (its range is
    checked when it is made), so its three axiom residuals are exactly 0.0
    and no matrix is built; an explicit map is checked by ``map_residuals``.
    The injectivity margin is the smallest coordinate norm of an image
    pi(e^b_11): a *-homomorphism's kernel is a sum of blocks, so this is its
    smallest singular value (the root of the smallest fibre count for a
    spectrum map).  It is reported (not thresholded), and a zero margin
    fails the report since Definition-style morphisms require injective maps.
    """
    if phi.spectrum_map is not None:
        entries = dict.fromkeys(("unitality", "multiplicativity", "star_preservation"), 0.0)
        counts = np.bincount(phi.spectrum_map, minlength=phi.source.n_points)
        margin = float(np.sqrt(counts.min()))
    else:
        entries = map_residuals(phi.source, phi.target, phi.matrix.T)
        margin = float(np.linalg.norm(phi.matrix[:, list(phi.source.block_offsets()[:-1])], axis=0).min())
    entries["injectivity_margin"] = margin
    entries["injectivity_defect"] = 0.0 if margin > VALIDATION_TOL else 1.0
    return ResidualReport(entries, informational=("injectivity_margin",))


class State:
    """Faithful state tau(a) = tr(rho a) given by a density element rho.

    ``density`` is Hermitian and positive definite in every block with
    total trace one; it is stored symmetrized.  On coordinates, tau(a) is
    the inner product <rho, a>.
    """

    def __init__(self, algebra: FiniteCStarAlgebra, density: AlgebraElement):
        if density.algebra.block_dims != algebra.block_dims:
            raise ValidationError("density does not belong to the state's algebra")
        x = density.coordinates
        herm = np.empty_like(x)
        total = 0.0
        for idx in algebra._block_index:
            m = x[idx]
            mh = m.conj().transpose(0, 2, 1)
            scale = np.maximum(1.0, np.linalg.norm(m, axis=(1, 2)))
            if np.any(np.linalg.norm(m - mh, axis=(1, 2)) > 1e-12 * scale):
                raise ValidationError("density block is not Hermitian")
            h = 0.5 * (m + mh)
            if np.linalg.eigvalsh(h)[:, 0].min() <= FAITHFUL_TOL:
                raise ValidationError("state is not faithful: density block not positive definite")
            total += float(np.trace(h, axis1=1, axis2=2).real.sum())
            herm[idx] = h
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"state traces sum to {total:g}, expected 1")
        self.algebra = algebra
        self.density = AlgebraElement(algebra, herm)

    @classmethod
    def from_weights(cls, algebra: FiniteCStarAlgebra, weights) -> "State":
        w = np.asarray(weights, dtype=float).ravel()
        if not algebra.is_commutative or w.shape[0] != algebra.n_points:
            raise ValidationError("from_weights needs a commutative algebra and one weight per point")
        if not np.all(np.isfinite(w)):
            raise ValidationError("state weights must be finite")
        if np.any(w <= 0):
            raise ValidationError("state is not faithful: weights must be strictly positive")
        # Dividing by a power of two is exact, and keeps the sum finite.
        w = times_pow2(w, -scale_exponent(float(w.max())))
        return cls(algebra, AlgebraElement(algebra, w / w.sum()))

    @classmethod
    def uniform(cls, algebra: FiniteCStarAlgebra) -> "State":
        # Normalized trace on each block, blocks weighted by dimension share.
        return cls(algebra, AlgebraElement(algebra, algebra.unit().coordinates / sum(algebra.block_dims)))

    def value(self, a: AlgebraElement) -> complex:
        if a.algebra.block_dims != self.algebra.block_dims:
            raise ValidationError("element does not belong to the state's algebra")
        return complex(np.vdot(self.density.coordinates, a.coordinates))

    @property
    def weights(self) -> np.ndarray:
        if not self.algebra.is_commutative:
            raise ValidationError("point weights are defined only for commutative algebras")
        return self.density.coordinates.real


class GnsSpace:
    """GNS Hilbert space of (A, tau) in the element basis.

    ``gram[a, b] = tau(a* b)`` on the canonical matrix-unit basis; the
    cyclic vector is the unit.  ``chol`` ( lower-triangular, gram = L L* )
    converts element coordinates to orthonormal ones via x -> L* x.  Per
    block, gram is 1 (x) rho^T and L is 1 (x) c, so left multiplication,
    a (x) 1, has the same matrix in both coordinates.
    """

    def __init__(self, algebra: FiniteCStarAlgebra, state: State, gram: np.ndarray):
        self.algebra = algebra
        self.state = state
        self.gram = gram

    @property
    def dimension(self) -> int:
        return self.algebra.element_dim

    @cached_property
    def chol(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.gram)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by State
            raise ValidationError("gram matrix not positive definite (state not faithful)") from exc

    def left_mult_matrix(self, a: AlgebraElement) -> np.ndarray:
        """Matrix of left multiplication by ``a`` on element coordinates."""
        if a.algebra.block_dims != self.algebra.block_dims:
            raise ValidationError("element does not belong to the GNS algebra")
        # Column j holds the coordinates of a e_j.
        return self.algebra.multiply(a.coordinates, np.eye(self.dimension, dtype=complex)).T


def gns(algebra: FiniteCStarAlgebra, state: State) -> GnsSpace:
    """GNS construction: gram[a, b] = tau(a* b) on the matrix-unit basis."""
    if state.algebra.block_dims != algebra.block_dims:
        raise ValidationError("state is not a state of the given algebra")
    dim = algebra.element_dim
    gram = np.zeros((dim, dim), dtype=complex)
    for o, n, rho in zip(algebra.block_offsets(), algebra.block_dims, state.density.blocks):
        # tau(e_kl* e_mn) = delta_km rho[n, l]  =>  block = I_n (x) rho^T.
        gram[o : o + n * n, o : o + n * n] = np.kron(np.eye(n, dtype=complex), rho.T)
    gram = 0.5 * (gram + dagger(gram))
    space = GnsSpace(algebra, state, gram)
    space.chol  # force the faithfulness check now
    return space

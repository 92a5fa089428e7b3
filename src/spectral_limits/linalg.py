"""Dense complex-matrix kernel.

Hermitian eigendecomposition (LAPACK), operator norms,
resolvents, functional calculus and commutators.  Operators are plain
``numpy.ndarray`` values; every function validates its inputs and never
mutates them.  All operations are pure, so callers may evaluate independent
ones concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, SingularityError, ValidationError

# Relative Hermiticity tolerance (Frobenius norm, against max(1, ||H||_F)).
HERMITIAN_TOL = 1e-10
# Relative eigenvalue-clustering tolerance (against max(1, max |eigenvalue|)).
GROUP_TOL = 1e-8
# Minimal allowed distance from a real resolvent point to the spectrum.
REAL_RESOLVENT_MARGIN = 1e-8


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-d complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} has non-finite entries")
    return a


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, "fro"))


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def check_hermitian(h, tol: float = HERMITIAN_TOL, name: str = "operator") -> np.ndarray:
    """Validate Hermiticity up to ``tol`` and return the symmetrized matrix."""
    a = as_matrix(h, name)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    drift = frobenius(a - dagger(a))
    if drift > tol * max(1.0, frobenius(a)):
        raise ValidationError(
            f"{name} is not Hermitian: ||H - H*||_F = {drift:.3e} exceeds tolerance"
        )
    return 0.5 * (a + dagger(a))


def check_isometry(i, tol: float = 1e-10, name: str = "isometry") -> np.ndarray:
    """Validate I*I = id on the source space (tall or square matrices)."""
    a = as_matrix(i, name)
    if a.shape[0] < a.shape[1]:
        raise ValidationError(f"{name} must be tall or square, got shape {a.shape}")
    residual = frobenius(dagger(a) @ a - np.eye(a.shape[1]))
    if residual > tol * max(1.0, np.sqrt(a.shape[1])):
        raise ValidationError(f"{name}: ||I*I - id||_F = {residual:.3e} exceeds tolerance")
    return a


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` are ascending, ``vectors`` holds the corresponding
    orthonormal eigenvectors as columns, and ``groups`` partitions the index
    range into clusters of equal-within-tolerance eigenvalues.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.eigenvalues) @ dagger(self.vectors)

    def group_value(self, g: int) -> float:
        idx = list(self.groups[g])
        return float(np.mean(self.eigenvalues[idx]))

    def eigenprojection(self, g: int) -> np.ndarray:
        cols = self.vectors[:, list(self.groups[g])]
        return cols @ dagger(cols)

    def group_vectors(self, g: int) -> np.ndarray:
        return self.vectors[:, list(self.groups[g])]


def _group_indices(eigenvalues: np.ndarray, group_tol: float) -> tuple[tuple[int, ...], ...]:
    scale = max(1.0, float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 1.0)
    tol = group_tol * scale
    groups: list[tuple[int, ...]] = []
    current = [0]
    for i in range(1, eigenvalues.shape[0]):
        if eigenvalues[i] - eigenvalues[i - 1] > tol:
            groups.append(tuple(current))
            current = []
        current.append(i)
    groups.append(tuple(current))
    return tuple(groups)


def eigh(
    h,
    *,
    hermitian_tol: float = HERMITIAN_TOL,
    group_tol: float = GROUP_TOL,
) -> SpectralDecomposition:
    """Eigendecomposition (LAPACK) of a Hermitian operator with eigenvalue clustering."""
    a = check_hermitian(h, tol=hermitian_tol)
    vals, vecs = np.linalg.eigh(a)
    vals = np.asarray(vals, dtype=float)
    vecs = np.asarray(vecs, dtype=complex)
    return SpectralDecomposition(vals, vecs, _group_indices(vals, group_tol))


def operator_norm(m) -> float:
    """Largest singular value, computed from the Gram matrix of the short side."""
    a = as_matrix(m)
    if a.shape[1] <= a.shape[0]:
        gram = dagger(a) @ a
    else:
        gram = a @ dagger(a)
    gram = 0.5 * (gram + dagger(gram))
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))


def resolvent_from_decomposition(dec: SpectralDecomposition, lam: complex) -> np.ndarray:
    lam = complex(lam)
    denom = dec.eigenvalues - lam
    if lam.imag == 0.0:
        margin = REAL_RESOLVENT_MARGIN * max(1.0, float(np.max(np.abs(dec.eigenvalues))))
        if float(np.min(np.abs(denom))) <= margin:
            raise SingularityError(
                f"real resolvent point {lam.real:g} is within {margin:.1e} of the spectrum"
            )
    return (dec.vectors / denom) @ dagger(dec.vectors)


def resolvent(h, lam: complex, **eigh_kwargs) -> np.ndarray:
    """Resolvent (H - lam)^(-1), computed by eigendecomposition.

    ``lam`` must be non-real, or real with distance to the spectrum larger
    than the rejection margin (near-spectrum real points raise
    ``SingularityError`` rather than being regularized).
    """
    return resolvent_from_decomposition(eigh(h, **eigh_kwargs), lam)


def function_from_decomposition(
    dec: SpectralDecomposition, f: Callable[[float], float]
) -> np.ndarray:
    vals = np.empty(dec.dim, dtype=float)
    for i, x in enumerate(dec.eigenvalues):
        y = f(float(x))
        if isinstance(y, complex) and y.imag != 0.0:
            raise ValidationError(
                f"functional calculus requires a real-valued function; got {y} at "
                f"eigenvalue {x:g} (for resolvent-type functions use resolvent())"
            )
        y = float(np.real(y))
        if not np.isfinite(y):
            raise NumericError(f"function returned non-finite value at eigenvalue {x:g}")
        vals[i] = y
    out = (dec.vectors * vals) @ dagger(dec.vectors)
    return 0.5 * (out + dagger(out))


def apply_function(h, f: Callable[[float], float], **eigh_kwargs) -> np.ndarray:
    """Functional calculus f(H) for a real-valued f on the spectrum of H.

    Complex-valued functions are rejected; resolvent-type functions
    x -> 1/(x - lam) with non-real lam belong to ``resolvent`` instead.
    """
    return function_from_decomposition(eigh(h, **eigh_kwargs), f)


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA for square matrices of equal size."""
    ma = as_matrix(a, "A")
    mb = as_matrix(b, "B")
    if ma.shape != mb.shape or ma.shape[0] != ma.shape[1]:
        raise ValidationError(f"commutator needs equal square shapes, got {ma.shape} and {mb.shape}")
    return ma @ mb - mb @ ma


def anticommutator(a, b) -> np.ndarray:
    ma = as_matrix(a, "A")
    mb = as_matrix(b, "B")
    if ma.shape != mb.shape or ma.shape[0] != ma.shape[1]:
        raise ValidationError(f"anticommutator needs equal square shapes, got {ma.shape} and {mb.shape}")
    return ma @ mb + mb @ ma

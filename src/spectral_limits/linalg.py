"""Dense complex-matrix kernel.

Hermitian eigendecomposition (LAPACK), dense operator norms, a Lanczos
top-singular-value estimate, resolvents, functional calculus and
commutators.  Operators are plain ``numpy.ndarray`` values; every function
validates its inputs and never mutates them.  All operations are pure, so
callers may evaluate independent ones concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, SingularityError, ValidationError

# Relative Hermiticity tolerance (Frobenius norm, against max(1, ||H||_F)).
HERMITIAN_TOL = 1e-10
# Minimal allowed distance from a real resolvent point to the spectrum.
REAL_RESOLVENT_MARGIN = 1e-8
# Relative Ritz-residual stop of ``lanczos_norm``.
LANCZOS_TOL = 1e-14


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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` are ascending and ``vectors`` holds the corresponding
    orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def eigh(h) -> SpectralDecomposition:
    """Eigendecomposition (LAPACK) of a Hermitian operator."""
    a = check_hermitian(h)
    vals, vecs = np.linalg.eigh(a)
    vals = np.asarray(vals, dtype=float)
    vecs = np.asarray(vecs, dtype=complex)
    return SpectralDecomposition(vals, vecs)


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


def lanczos_start(n: int) -> np.ndarray:
    """Start vector of ``lanczos_norm``: (1 + cos(sqrt(2) k)/2) exp(i k^2/2), normalized.

    Fixed rather than random, so results are deterministic and no random
    number module is loaded; without symmetry, so structured operators do
    not leave it orthogonal to their eigenvectors by construction.
    """
    k = np.arange(n, dtype=float)
    q = (1.0 + 0.5 * np.cos(np.sqrt(2.0) * k)) * np.exp(0.5j * k * k)
    return q / np.linalg.norm(q)


def lanczos_norm(m) -> float | None:
    """Largest singular value by Lanczos on the Gram operator of the short side.

    The Krylov basis starts from ``lanczos_start`` and grows one vector per
    step; each step costs two matrix-vector products and a full
    reorthogonalization against the basis.  Stops when the Ritz residual
    beta |s_k| is at most ``LANCZOS_TOL`` times the top Ritz value theta, or
    when beta vanishes, and returns sqrt(theta); returns None when neither
    happens within as many steps as the short side is long.

    The residual certifies that some singular value lies near sqrt(theta),
    not that it is the largest: a start vector (nearly) orthogonal to the top
    singular space can stop early on a smaller one.  Callers that need the
    top value certain compare against an independent route or use
    ``operator_norm``.
    """
    a = as_matrix(m)
    if a.shape[1] > a.shape[0]:
        a = dagger(a)
    a_h = dagger(a)
    n = a.shape[1]
    q = lanczos_start(n)
    basis = q[np.newaxis, :]
    alphas: list[float] = []
    betas: list[float] = []
    for _ in range(n):
        w = a_h @ (a @ q)
        alphas.append(float(np.vdot(q, w).real))
        # Classical Gram-Schmidt, twice, against the whole basis replaces the
        # three-term recurrence and keeps the basis orthonormal.
        w -= (basis @ w.conj()).conj() @ basis
        w -= (basis @ w.conj()).conj() @ basis
        beta = float(np.linalg.norm(w))
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        # Complex, so LAPACK runs the Hermitian solver that every other
        # decomposition here already paged in; the real one adds about
        # 0.5 MB of resident code to each command.
        ritz, vecs = np.linalg.eigh(tri.astype(complex))
        theta = float(ritz[-1])
        if beta == 0.0 or beta * abs(vecs[-1, -1]) <= LANCZOS_TOL * theta:
            return float(np.sqrt(max(theta, 0.0)))
        betas.append(beta)
        q = w / beta
        basis = np.vstack((basis, q))
    return None


def resolvent_from_decomposition(dec: SpectralDecomposition, lam: complex) -> np.ndarray:
    lam = complex(lam)
    denom = dec.eigenvalues - lam
    closest = float(np.min(np.abs(denom)))
    if lam.imag == 0.0:
        margin = REAL_RESOLVENT_MARGIN * max(1.0, float(np.max(np.abs(dec.eigenvalues))))
        if closest <= margin:
            raise SingularityError(
                f"real resolvent point {lam.real:g} is within {margin:.1e} of the spectrum"
            )
    if closest < 1.0 / np.finfo(float).max:
        raise ValidationError(
            f"probe lambda={lam} gives a non-finite resolvent: it lies {closest!r} from the "
            "spectrum and 1/|lambda_n - lambda| overflows"
        )
    return (dec.vectors / denom) @ dagger(dec.vectors)


def resolvent(h, lam: complex) -> np.ndarray:
    """Resolvent (H - lam)^(-1), computed by eigendecomposition.

    ``lam`` must be non-real, or real with distance to the spectrum larger
    than the rejection margin (near-spectrum real points raise
    ``SingularityError`` rather than being regularized).  A probe so close
    to the spectrum that 1/|lambda_n - lam| overflows raises
    ``ValidationError``.
    """
    return resolvent_from_decomposition(eigh(h), lam)


def function_from_decomposition(
    dec: SpectralDecomposition, f: Callable[[float], float]
) -> np.ndarray:
    """f(H) for a real-valued f; resolvent-type functions belong to ``resolvent``."""
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

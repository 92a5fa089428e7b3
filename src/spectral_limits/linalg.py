"""Dense complex-matrix kernel.

Hermitian eigendecomposition (LAPACK), dense operator norms, a Lanczos
top-singular-value estimate on a matrix or on an operator given by its
action, resolvents, functional calculus and commutators.  Both norms divide
a huge or tiny input by a power of two before forming a Gram product, so it
can neither overflow nor underflow.  The values a resolvent or function
probe takes on a spectrum are checked in one place (``resolvent_values``,
``function_values``), which the matrix forms also use.  Operators are plain
``numpy.ndarray`` values; every function validates its inputs and never
mutates them.  All operations are pure, so callers may evaluate independent
ones concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, SingularityError, ValidationError

# Relative Hermiticity tolerance (Frobenius norm, against max(1, ||H||_F)).
HERMITIAN_TOL = 1e-10
# Minimal allowed distance from a real resolvent point to the spectrum,
# relative to max(1, max |lambda_n|).
REAL_RESOLVENT_MARGIN = 1e-8
# Minimal allowed distance from any resolvent point to the spectrum,
# relative to max(1, max |lambda_n|).  LAPACK's eigenvalues of an n x n
# Hermitian H are off by up to about n eps ||H||, which is 9.1e-13 ||H|| at
# dimension 4096, the largest a generator config admits.  A probe closer
# than that to the computed spectrum gives a resolvent ruled by rounding.
EIGENVALUE_ROUNDING = 1e-12
# Relative Ritz-residual stop of ``lanczos_norm``.
LANCZOS_TOL = 1e-14
# The norms rescale a matrix whose largest nonzero entry modulus lies
# outside [2^-GRAM_SCALE_EXP, 2^GRAM_SCALE_EXP] before forming its Gram.
# Inside it, nothing overflows: the squared norm of a Lanczos vector is at
# most s^4 (nm)^2 <= 2^800 (nm)^2 for entries s and an n x m matrix; and
# nothing that decides the estimate underflows, since a Lanczos residual of
# size s^2 stays far above the smallest normal number 2^-1022.
GRAM_SCALE_EXP = 200


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


def scale_exponent(s: float) -> int:
    """0 when s is 0 or lies in [2^-GRAM_SCALE_EXP, 2^GRAM_SCALE_EXP], else
    the exponent e with min(s, float max) 2^-e in [1/2, 1)."""
    if s == 0.0 or 2.0**-GRAM_SCALE_EXP <= s <= 2.0**GRAM_SCALE_EXP:
        return 0
    return math.frexp(min(s, np.finfo(float).max))[1]


def times_pow2(a: np.ndarray, e: int) -> np.ndarray:
    """a 2^e, entry by entry; exact wherever the result is a normal number."""
    if not e:
        return a
    if not np.iscomplexobj(a):
        return np.ldexp(a, e)
    out = np.empty_like(a)
    out.real = np.ldexp(a.real, e)
    out.imag = np.ldexp(a.imag, e)
    return out


def _gram_scaled(m) -> tuple[np.ndarray, int]:
    """(A 2^-e, e) for A = as_matrix(m), with e = scale_exponent of the
    largest entry modulus.

    Scaling by a power of two is exact, so ordinary inputs keep their bytes
    and huge or tiny ones keep their relative accuracy through a Gram
    product.
    """
    a = as_matrix(m)
    # A modulus above the float range reads inf; its parts are still finite.
    e = scale_exponent(float(abs(a).max()))
    return times_pow2(a, -e), e


def unscaled(x: float, e: int) -> float:
    """x 2^e; inf when that exceeds the float range."""
    if not e:
        return x
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


def operator_norm(m) -> float:
    """Largest singular value, computed from the Gram matrix of the short side.

    Returns inf only when the norm itself exceeds the float range.
    """
    a, e = _gram_scaled(m)
    if a.shape[1] <= a.shape[0]:
        gram = dagger(a) @ a
    else:
        gram = a @ dagger(a)
    gram = 0.5 * (gram + dagger(gram))
    top = float(np.linalg.eigvalsh(gram)[-1])
    return unscaled(float(np.sqrt(max(top, 0.0))), e)


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

    ``lanczos_operator_norm`` on x -> A*(A x), from ``lanczos_start``, with
    A = as_matrix(m) (or its adjoint, whichever has fewer columns) rescaled
    as in ``operator_norm``.  The result is inf only when the norm exceeds
    the float range, and None when Lanczos does not stop.
    """
    a, e = _gram_scaled(m)
    if a.shape[1] > a.shape[0]:
        a = dagger(a)
    a_h = dagger(a)
    top = lanczos_operator_norm(lambda q: a_h @ (a @ q), lanczos_start(a.shape[1]))
    return None if top is None else unscaled(top, e)


def lanczos_operator_norm(gram: Callable[[np.ndarray], np.ndarray], start: np.ndarray) -> float | None:
    """Largest singular value of A, given x -> A*(A x), by Lanczos on that Gram operator.

    The Krylov basis starts from the unit vector ``start`` and grows one
    vector per step; each step applies ``gram`` once and reorthogonalizes
    against the whole basis.  Stops when the Ritz residual beta |s_k| is at
    most ``LANCZOS_TOL`` times the top Ritz value theta, or when beta
    vanishes, and returns sqrt(theta); returns None when neither happens
    within as many steps as ``start`` is long.

    The residual certifies that some singular value lies near sqrt(theta),
    not that it is the largest: a start vector (nearly) orthogonal to the top
    singular space can stop early on a smaller one.  Callers that need the
    top value certain compare against an independent route or use
    ``operator_norm``.  The caller scales A so that its Gram can neither
    overflow nor underflow, as ``lanczos_norm`` does.
    """
    n = start.shape[0]
    q = start
    basis = q[np.newaxis, :]
    # The tridiagonal Ritz matrix, grown in place.  Complex, so LAPACK runs
    # the Hermitian solver that every other decomposition here already paged
    # in; the real one adds about 0.5 MB of resident code to each command.
    tri = np.zeros((min(n, 16),) * 2, dtype=complex)
    beta = 0.0
    for k in range(n):
        if k == tri.shape[0]:
            grown = np.zeros((min(2 * k, n),) * 2, dtype=complex)
            grown[:k, :k] = tri
            tri = grown
        if k:
            tri[k - 1, k] = tri[k, k - 1] = beta
        w = gram(q)
        tri[k, k] = np.vdot(q, w).real
        # Classical Gram-Schmidt, twice, against the whole basis replaces the
        # three-term recurrence and keeps the basis orthonormal.
        w -= (basis @ w.conj()).conj() @ basis
        w -= (basis @ w.conj()).conj() @ basis
        beta = math.sqrt(np.vdot(w, w).real)
        ritz, vecs = np.linalg.eigh(tri[: k + 1, : k + 1])
        theta = float(ritz[-1])
        if beta == 0.0 or beta * abs(vecs[-1, -1]) <= LANCZOS_TOL * theta:
            return math.sqrt(max(theta, 0.0))
        q = w / beta
        basis = np.vstack((basis, q))
    return None


def resolvent_values(eigenvalues: np.ndarray, lam: complex) -> np.ndarray:
    """1/(lambda_n - lam) for each eigenvalue lambda_n: the resolvent in its eigenbasis.

    With s = max(1, max |lambda_n|), a real ``lam`` within
    ``REAL_RESOLVENT_MARGIN`` s of the spectrum raises ``SingularityError``
    (near-spectrum real points are rejected rather than regularized).  A
    ``lam`` so close that 1/|lambda_n - lam| overflows, or within
    ``EIGENVALUE_ROUNDING`` s, raises ``ValidationError`` naming the probe.
    """
    lam = complex(lam)
    denom = eigenvalues - lam
    closest = float(np.min(np.abs(denom)))
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    if lam.imag == 0.0 and closest <= REAL_RESOLVENT_MARGIN * scale:
        raise SingularityError(
            f"real resolvent point {lam.real:g} is within {REAL_RESOLVENT_MARGIN * scale:.1e} of the spectrum"
        )
    if closest < 1.0 / np.finfo(float).max:
        raise ValidationError(
            f"probe lambda={lam} gives a non-finite resolvent: it lies {closest!r} from the "
            "spectrum and 1/|lambda_n - lambda| overflows"
        )
    if closest <= EIGENVALUE_ROUNDING * scale:
        raise ValidationError(
            f"probe lambda={lam} lies {closest!r} from the spectrum, within its rounding "
            f"margin {EIGENVALUE_ROUNDING * scale:.1e}, so its resolvent is meaningless"
        )
    return 1.0 / denom


def function_values(eigenvalues: np.ndarray, f: Callable[[float], float]) -> np.ndarray:
    """f(lambda_n) for each eigenvalue; f must be real-valued and finite there.

    Resolvent-type functions belong to ``resolvent_values``.
    """
    vals = np.empty(eigenvalues.shape[0], dtype=float)
    for i, x in enumerate(eigenvalues):
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
    return vals


def resolvent_from_decomposition(dec: SpectralDecomposition, lam: complex) -> np.ndarray:
    return (dec.vectors * resolvent_values(dec.eigenvalues, lam)) @ dagger(dec.vectors)


def resolvent(h, lam: complex) -> np.ndarray:
    """Resolvent (H - lam)^(-1), computed by eigendecomposition.

    ``lam`` is checked as in ``resolvent_values``.
    """
    return resolvent_from_decomposition(eigh(h), lam)


def function_from_decomposition(
    dec: SpectralDecomposition, f: Callable[[float], float]
) -> np.ndarray:
    """f(H) for a real-valued f, checked as in ``function_values``."""
    out = (dec.vectors * function_values(dec.eigenvalues, f)) @ dagger(dec.vectors)
    return 0.5 * (out + dagger(out))


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA for square matrices of equal size."""
    ma = as_matrix(a, "A")
    mb = as_matrix(b, "B")
    if ma.shape != mb.shape or ma.shape[0] != ma.shape[1]:
        raise ValidationError(f"commutator needs equal square shapes, got {ma.shape} and {mb.shape}")
    return ma @ mb - mb @ ma

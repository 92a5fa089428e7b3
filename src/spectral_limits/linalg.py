"""Dense matrix kernel, in float64 or complex128 as the data is.

A system whose matrices have imaginary parts that are exactly zero is
stored in float64 (``exactly_real``), and every kernel here keeps the dtype
it is given: a real Hermitian matrix takes the real LAPACK solvers and
real eigenvectors, a complex one the complex solvers.  Probe values and
vectors stay complex; ``matvec`` and ``adjoint_matvec`` apply a real
matrix to a complex vector as one real product, never widening the matrix.

Hermitian eigendecomposition (LAPACK), dense operator norms, a Lanczos
top-singular-value estimate on an operator given by its action,
resolvents, functional calculus and commutators.  A huge or tiny input is
divided by a power of two before its Gram product is formed, so that
product can neither overflow nor underflow.  The values a resolvent or
function probe takes on a spectrum are checked in one place
(``resolvent_values``, ``function_values``), which the matrix forms also
use.  Operators are plain ``numpy.ndarray`` values; every function
validates its inputs and never mutates them.  All operations are pure, so
callers may evaluate independent ones concurrently.
"""

from __future__ import annotations

import math
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
# Relative Ritz-residual stop of ``lanczos_operator_norm``.
LANCZOS_TOL = 1e-14
# The norms rescale a matrix whose largest nonzero entry modulus lies
# outside [2^-GRAM_SCALE_EXP, 2^GRAM_SCALE_EXP] before forming its Gram.
# Inside it, nothing overflows: the squared norm of a Lanczos vector is at
# most s^4 (nm)^2 <= 2^800 (nm)^2 for entries s and an n x m matrix; and
# nothing that decides the estimate underflows, since a Lanczos residual of
# size s^2 stays far above the smallest normal number 2^-1022.
GRAM_SCALE_EXP = 200


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-d array with finite entries: float64 input stays
    float64, anything else becomes complex128."""
    a = np.asarray(m)
    if a.dtype != np.float64:
        a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} has non-finite entries")
    return a


def exactly_real(a: np.ndarray) -> np.ndarray:
    """``a`` as float64 when it is complex and every imaginary part is +0.0
    bit for bit, else ``a`` itself.

    A -0.0 imaginary part keeps the matrix complex, so writing it back
    reproduces its bytes.
    """
    if np.iscomplexobj(a) and not a.imag.view(np.uint64).any():
        return a.real.astype(float)
    return a


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm; inf only when the norm itself exceeds the float range.

    An ordinary matrix takes one pass.  When its sum of squares overflows,
    the matrix is scaled by a power of two as in ``operator_norm``.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m, "fro"))
    if math.isfinite(norm):
        return norm
    e = scale_exponent(float(np.max(np.abs(m))))
    return unscaled(float(np.linalg.norm(times_pow2(m, -e), "fro")), e)


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def check_hermitian(h) -> np.ndarray:
    """Validate Hermiticity up to ``HERMITIAN_TOL`` and return the symmetrized matrix.

    An exactly Hermitian input is returned as it is, without the two
    temporaries that measuring and removing a drift take.
    """
    a = as_matrix(h, "operator")
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"operator must be square, got shape {a.shape}")
    if np.array_equal(a, dagger(a)):
        return a
    drift = frobenius(a - dagger(a))
    if drift > HERMITIAN_TOL * max(1.0, frobenius(a)):
        raise ValidationError(
            f"operator is not Hermitian: ||H - H*||_F = {drift:.3e} exceeds tolerance"
        )
    return 0.5 * (a + dagger(a))


class SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` are ascending and ``vectors`` holds the corresponding
    orthonormal eigenvectors as columns.
    """

    def __init__(self, eigenvalues: np.ndarray, vectors: np.ndarray):
        self.eigenvalues = eigenvalues
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def eigh(h) -> SpectralDecomposition:
    """Eigendecomposition (LAPACK) of a Hermitian operator; the eigenvectors
    are real when the operator is."""
    vals, vecs = np.linalg.eigh(check_hermitian(h))
    return SpectralDecomposition(np.asarray(vals, dtype=float), vecs)


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


def unscaled(x: float, e: int) -> float:
    """x 2^e; inf when that exceeds the float range."""
    if not e:
        return x
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


def operator_norm(m) -> float:
    """Largest singular value, computed from the Gram matrix of the short side.

    A = as_matrix(m) is first scaled by 2^-e, e the ``scale_exponent`` of its
    largest entry modulus.  Scaling by a power of two is exact, so ordinary
    inputs keep their bytes and huge or tiny ones keep their relative
    accuracy through the Gram product.  Returns inf only when the norm
    itself exceeds the float range.
    """
    a = as_matrix(m)
    # A modulus above the float range reads inf; its parts are still finite.
    e = scale_exponent(float(abs(a).max()))
    a = times_pow2(a, -e)
    if a.shape[1] <= a.shape[0]:
        gram = dagger(a) @ a
    else:
        gram = a @ dagger(a)
    gram = 0.5 * (gram + dagger(gram))
    top = float(np.linalg.eigvalsh(gram)[-1])
    return unscaled(float(np.sqrt(max(top, 0.0))), e)


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for a contiguous complex128 vector x.

    A real M multiplies the (n, 2) view of x's real and imaginary parts, one
    real product; ``m @ x`` would copy M to complex first.
    """
    if np.iscomplexobj(m):
        return m @ x
    return (m @ x.view(float).reshape(-1, 2)).view(complex).ravel()


def adjoint_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M* x for a contiguous complex128 vector x, reading M without copying it.

    Complex M: conj(x* M).  Real M: the (2, n) product [Re x; Im x] M, whose
    rows are the parts of M^T x; BLAS runs this row form several times
    faster than M^T times the (n, 2) view.
    """
    if np.iscomplexobj(m):
        return (x.conj() @ m).conj()
    parts = x.view(float).reshape(-1, 2).T @ m
    out = np.empty(parts.shape[1], dtype=complex)
    out.real, out.imag = parts
    return out


def lanczos_start(n: int) -> np.ndarray:
    """Lanczos start vector (1 + cos(sqrt(2) k)/2) exp(i k^2/2), normalized.

    Fixed rather than random, so results are deterministic and no random
    number module is loaded; without symmetry, so structured operators do
    not leave it orthogonal to their eigenvectors by construction.
    """
    k = np.arange(n, dtype=float)
    q = (1.0 + 0.5 * np.cos(np.sqrt(2.0) * k)) * np.exp(0.5j * k * k)
    return q / np.linalg.norm(q)


def lanczos_operator_norm(gram: Callable[[np.ndarray], np.ndarray], start: np.ndarray) -> float:
    """Largest singular value of A, given x -> A*(A x), by Lanczos on that Gram operator.

    The Krylov basis starts from the unit vector ``start`` and grows one
    vector per step; each step applies ``gram`` once and reorthogonalizes
    against the whole basis.  Stops when the Ritz residual beta |s_k| is at
    most ``LANCZOS_TOL`` times the top Ritz value theta, when beta vanishes,
    or after as many steps as ``start`` is long, when the basis spans the
    whole space and theta is the top eigenvalue of the Gram operator; returns
    sqrt(theta).

    The residual certifies that some singular value lies near sqrt(theta),
    not that it is the largest: a start vector (nearly) orthogonal to the top
    singular space can stop early on a smaller one.  Callers that need the
    top value certain compare against an independent route or use
    ``operator_norm``.  The caller scales A so that its Gram can neither
    overflow nor underflow (``scale_exponent``, ``times_pow2``).
    """
    n = start.shape[0]
    q = start
    basis = q[np.newaxis, :]
    # The real symmetric tridiagonal Ritz matrix, grown in place.
    tri = np.zeros((min(n, 16),) * 2)
    beta = 0.0
    for k in range(n):
        if k == tri.shape[0]:
            grown = np.zeros((min(2 * k, n),) * 2)
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
        if k == n - 1 or beta == 0.0 or beta * abs(vecs[-1, -1]) <= LANCZOS_TOL * theta:
            return math.sqrt(max(theta, 0.0))
        q = w / beta
        basis = np.vstack((basis, q))


def resolvent_values(eigenvalues: np.ndarray, lam: complex) -> np.ndarray:
    """1/(lambda_n - lam) for each eigenvalue lambda_n: the resolvent in its eigenbasis.

    A ``lam`` with a non-finite part raises ``ValidationError`` naming it.
    With s = max(1, max |lambda_n|), a real ``lam`` within
    ``REAL_RESOLVENT_MARGIN`` s of the spectrum raises ``SingularityError``
    (near-spectrum real points are rejected rather than regularized).  A
    ``lam`` so close that 1/|lambda_n - lam| overflows, or within
    ``EIGENVALUE_ROUNDING`` s, raises ``ValidationError`` naming the probe, and
    so does a ``lam`` so large that the complex division overflows (as at
    1e308+1e308i, where it would return 0).
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValidationError(f"probe lambda={lam} is not finite")
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
    try:
        with np.errstate(over="raise"):
            return 1.0 / denom
    except FloatingPointError:
        raise ValidationError(
            f"probe lambda={lam} is too large: 1/(lambda_n - lambda) overflows in complex division"
        ) from None


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

"""Spectral distance on commutative finite spectral triples.

d(x, y) = sup{ |f(x) - f(y)| : f real, ||[D, pi(f)]|| <= 1 }.

When every Hilbert-space coordinate of x's component is coupled by the Dirac
operator to at most one coordinate carrying a different point (gapwise
triples), the norm constraint decouples into pairwise difference bounds and
the supremum is the shortest-path distance in the weighted constraint graph.
Genuinely coupled components are solved as the semidefinite program
max f(x) - f(y) subject to -I <= i[D, diag(f)] <= I, by log-barrier Newton
steps with a certified optimality gap.

One Dijkstra search from x over the interaction graph answers every graph
question: a point it does not reach lies in another component, at infinite
distance (returned as ``math.inf``); a decoupled component reads its value
and geodesic from the search; a coupled one is solved on the points reached.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import NumericError, UnsupportedError, ValidationError
from .linalg import dagger, eigh, operator_norm
from .triple import FiniteSpectralTriple, operators

# Entries of D below cutoff * ||D|| are treated as structural zeros.
COUPLING_CUTOFF = 1e-12
# Relative certified gap at which the coupled (barrier) solve stops.  Each
# factor 50 costs about five Newton steps; at 1e-15 rounding pushes the
# eigenvalues of M(f) past +-1 (NumericError).
SDP_GAP_TOL = 1e-10
# Newton steps allowed in one solve; coupled CI levels take 35-45.
SDP_MAX_STEPS = 200
# Cap on the bytes of the n x n matrices one Newton step holds, checked before
# the solve allocates any: binary CI level 9 (n = 512, 40 MiB) passes, level
# 10 (160 MiB) does not.
SDP_MAX_BYTES = 2**27


def _diagonal_form(t: FiniteSpectralTriple) -> tuple[np.ndarray, np.ndarray]:
    """Return (coord_points, D) with the representation diagonalized.

    Commutative representations consist of commuting projections summing to
    the identity, hence are simultaneously diagonalizable; the Dirac
    operator is conjugated into the same basis.  The algebra must be
    commutative, which ``_check_points`` checks.
    """
    if t.rep.spectrum_map is not None:
        return t.rep.spectrum_map, t.dirac
    m = t.algebra.n_points
    probe = operators(t.rep, np.arange(1, m + 1, dtype=complex))
    dec = eigh(probe)
    labels = np.rint(dec.eigenvalues).astype(int) - 1
    if np.any(np.abs(dec.eigenvalues - (labels + 1)) > 1e-6) or labels.min() < 0 or labels.max() >= m:
        raise ValidationError("representation is not a commuting family of point projections")
    d_diag = dagger(dec.vectors) @ t.dirac @ dec.vectors
    return labels, d_diag


def _interaction(coord_points: np.ndarray, dirac: np.ndarray):
    """Cross-point couplings as arrays ((u, v, w), coupled).

    One entry per coordinate pair r < s with |D_rs| above the cutoff and
    points u < v, of weight w = 1 / |D_rs|, so a point pair recurs once per
    coordinate pair joining it.  The mask marks each coordinate coupled to
    two or more others across point fibers.  A component with no marked
    coordinate is decoupled.
    """
    cutoff = COUPLING_CUTOFF * max(1.0, float(np.max(np.abs(dirac))))
    rows, cols = np.nonzero(np.abs(dirac) > cutoff)
    u, v = coord_points[rows], coord_points[cols]
    cross = (rows < cols) & (u != v)
    rows, cols, u, v = rows[cross], cols[cross], u[cross], v[cross]
    n = dirac.shape[0]
    degree = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    return (np.minimum(u, v), np.maximum(u, v), 1.0 / np.abs(dirac[rows, cols])), degree > 1


def _shortest_paths(n_points: int, edges, x: int) -> tuple[np.ndarray, dict[int, int]]:
    """Dijkstra from x to the end of x's component: (dist, prev), dist inf off it.

    A point pair's edge weight is the least w among its couplings.  Weights
    are positive, so a settled point's distance and predecessor chain never
    change afterwards, and the search need not stop at any target.
    """
    u, v, w = edges
    weight = np.full((n_points, n_points), np.inf)
    np.minimum.at(weight, (u, v), w)
    np.minimum.at(weight, (v, u), w)
    dist = np.full(n_points, np.inf)
    dist[x] = 0.0
    prev: dict[int, int] = {}
    heap = [(0.0, x)]
    while heap:
        d, p = heapq.heappop(heap)
        if d > dist[p]:  # a stale entry: p was settled at dist[p]
            continue
        near = d + weight[p]
        for q in np.flatnonzero(near < dist - 1e-15).tolist():
            dist[q] = near[q]
            prev[q] = p
            heapq.heappush(heap, (near[q], q))
    return dist, prev


def _check_points(t: FiniteSpectralTriple, x: int, y: int) -> tuple[int, int]:
    if not t.algebra.is_commutative:
        raise UnsupportedError("spectral distance is implemented for commutative algebras only")
    m = t.algebra.n_points
    for p in (x, y):
        if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or not 0 <= p < m:
            raise ValidationError(f"point indices must be integers in [0, {m}), got {p!r}")
    return int(x), int(y)


def connes_distance_with_path(t: FiniteSpectralTriple, x: int, y: int):
    """Distance together with a certifying geodesic (decoupled components).

    Returns (value, path): value is a Python float on every route, and path
    is a point-index list or None when the distance is infinite or x's
    component is coupled.  A coupled value comes from the barrier solve on
    the points that the search from x reached, a feasible lower bound within
    SDP_GAP_TOL relative of the distance.
    """
    x, y = _check_points(t, x, y)
    if x == y:
        return 0.0, [x]
    coord_points, dirac = _diagonal_form(t)
    edges, coupled = _interaction(coord_points, dirac)
    dist, prev = _shortest_paths(t.algebra.n_points, edges, x)
    if math.isinf(dist[y]):
        return math.inf, None
    reached = np.isfinite(dist)
    # [D, diag f] is block diagonal over the components, so only the
    # coordinates of x's component decide its route.
    if not coupled[reached[coord_points]].any():
        path = [y]
        while path[-1] != x:
            path.append(prev[path[-1]])
        return float(dist[y]), path[::-1]
    return _barrier_distance(coord_points, dirac, reached, x, y)[0], None


def connes_distance(t: FiniteSpectralTriple, x: int, y: int) -> float:
    """sup{ |f(x) - f(y)| : ||[D, pi(f)]|| <= 1 }, or inf when disconnected."""
    return connes_distance_with_path(t, x, y)[0]


def _barrier_distance(coord_points, dirac, reached, x: int, y: int) -> tuple[float, np.ndarray, float]:
    """Log-barrier solve of max f_x over ||[D, diag(f)]|| <= 1 with f_y = 0.

    M(f) = i[D, diag(f)] = sum_k f_k B_k with B_k = i[D, P_k], P_k the
    projection onto point k's coordinates, is Hermitian, so the constraint is
    -I <= M(f) <= I, with barrier -log det(1 - M^2) (parameter nu = 2n on n
    coordinates).  Over S = (1 - M)^-1 and S = -(1 + M)^-1, both from one
    eigendecomposition of M per Newton step, its gradient sums tr(S B_k) =
    -2 Im tr(P_k SD) and its Hessian tr(S B_k S B_l), which is -2 Re of
    (SD)o(SD)^T - S o conj(DSD) summed over the coordinates of k and l:
    O(n^3) time and O(n^2) memory per step.  From the feasible f = 0, Newton
    steps on -t f_x + barrier are damped by 1 / (1 + lam) while the
    decrement lam exceeds 1/2.  At such an approximate centre the optimum
    exceeds f_x by at most (nu + (lam + sqrt(nu)) lam / (1 - lam)) / t
    (Nesterov, Introductory Lectures on Convex Optimization, section 4.2);
    t grows 50-fold until that gap is at most SDP_GAP_TOL * f_x.  The solve
    runs on the coordinates of the points marked in the boolean mask
    ``reached``, x's component.
    Returns (value, f, gap): f is feasible on all points, value = f_x and the
    distance lies in [value, value + gap].
    """
    coords = np.flatnonzero(reached[coord_points])
    owners = coord_points[coords]
    var_points = np.unique(owners[owners != y])
    n, nvar = coords.size, var_points.size
    # A Newton step holds about ten n x n complex matrices at once: D, M,
    # eigh's vectors and workspace, S, SD, DSD and their Hadamard products.
    need = 10 * 16 * n * n
    if need > SDP_MAX_BYTES:
        raise ValidationError(
            f"coupled distance instance too large: a Newton step on {n} coordinates "
            f"needs {need} bytes of n x n matrices (limit {SDP_MAX_BYTES})"
        )
    member = (owners[None, :] == var_points[:, None]).astype(float)
    d_c = dirac[np.ix_(coords, coords)]
    c = (var_points == x).astype(float)
    f = np.zeros(nvar)
    t, nu = 1.0, 2.0 * n
    for _ in range(SDP_MAX_STEPS):
        fd = f @ member
        try:
            w, v = np.linalg.eigh(1j * d_c * (fd[None, :] - fd[:, None]))
            if np.max(np.abs(w)) >= 1.0:
                raise NumericError("barrier iterate left the feasible set")
            grad, x_sum = -t * c, 0.0
            for d in (1.0 / (1.0 - w), -1.0 / (1.0 + w)):
                s = (v * d) @ v.conj().T
                a = s @ d_c
                grad = grad - 2.0 * (member @ a.diagonal().imag)
                x_sum = x_sum + (a * a.T - s * (d_c @ a).conj())
            # -Hessian^-1 grad.  The real part is taken after the products: a
            # real matrix product maps BLAS code that no other command path
            # touches, about 0.2 MB more peak RSS per `distance` process.
            step = np.linalg.solve(2.0 * (member @ x_sum @ member.T).real, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"barrier Newton step failed: {exc}") from exc
        lam = math.sqrt(max(-float(grad @ step), 0.0))
        if lam > 0.5:
            f += step / (1.0 + lam)
            continue
        value = float(f @ c)
        gap = (nu + (lam + math.sqrt(nu)) * lam / (1.0 - lam)) / t
        if gap <= SDP_GAP_TOL * value:
            break
        t *= 50.0
    else:
        raise NumericError(f"barrier distance did not converge in {SDP_MAX_STEPS} Newton steps")
    f_points = np.zeros(len(reached))
    f_points[var_points] = f
    fd = f_points[coord_points]
    # Rescale into the feasible set should rounding leave ||[D, diag(f)]|| above 1.
    scale = max(1.0, operator_norm(dirac * (fd[None, :] - fd[:, None])))
    return value / scale, f_points / scale, gap + value - value / scale

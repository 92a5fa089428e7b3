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
# Cap on the bytes of the nvar x n x n complex stack B_k, checked before it is
# built: binary CI level 7 (n = 128, 33 MB, 5 s, 170 MB peak) passes, level 8
# (267 MB) does not.
SDP_MAX_STACK_BYTES = 2**27


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


def _interaction(
    coord_points: np.ndarray, dirac: np.ndarray
) -> tuple[dict[tuple[int, int], float], np.ndarray]:
    """Cross-point couplings as {(u, v): weight} plus the coupled coordinates.

    The weight of a point pair is min over coordinate pairs of 1 / |D_rs|;
    the mask marks each coordinate that is coupled to two or more others
    across point fibers.  A component with no marked coordinate is decoupled.
    """
    n = dirac.shape[0]
    cutoff = COUPLING_CUTOFF * max(1.0, float(np.max(np.abs(dirac))))
    edges: dict[tuple[int, int], float] = {}
    degree = np.zeros(n, dtype=int)
    rows, cols = np.nonzero(np.abs(dirac) > cutoff)
    for r, s in zip(rows, cols):
        if r >= s:
            continue
        u, v = int(coord_points[r]), int(coord_points[s])
        if u == v:
            continue
        degree[r] += 1
        degree[s] += 1
        key = (min(u, v), max(u, v))
        w = 1.0 / abs(dirac[r, s])
        if key not in edges or w < edges[key]:
            edges[key] = w
    return edges, degree > 1


def _shortest_paths(n_points: int, edges: dict, x: int) -> tuple[dict[int, float], dict[int, int]]:
    """Dijkstra from x to the end of x's component: (dist, prev) over the reached points.

    Weights are positive, so a settled point's distance and predecessor chain
    never change afterwards, and the search need not stop at any target.
    """
    adj: dict[int, list[tuple[int, float]]] = {p: [] for p in range(n_points)}
    for (u, v), w in edges.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = {x: 0.0}
    prev: dict[int, int] = {}
    heap = [(0.0, x)]
    while heap:
        d, p = heapq.heappop(heap)
        if d > dist[p]:  # a stale entry: p was settled at dist[p]
            continue
        for q, w in adj[p]:
            nd = d + w
            if q not in dist or nd < dist[q] - 1e-15:
                dist[q] = nd
                prev[q] = p
                heapq.heappush(heap, (nd, q))
    return dist, prev


def _check_points(t: FiniteSpectralTriple, x: int, y: int) -> tuple[int, int]:
    if not t.algebra.is_commutative:
        raise UnsupportedError("spectral distance is implemented for commutative algebras only")
    m = t.algebra.n_points
    x, y = int(x), int(y)
    if not (0 <= x < m and 0 <= y < m):
        raise ValidationError(f"point indices must lie in [0, {m})")
    return x, y


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
    if y not in dist:
        return math.inf, None
    reached = np.zeros(t.algebra.n_points, dtype=bool)
    reached[list(dist)] = True
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

    M(f) = i[D, diag(f)] = sum_k f_k B_k is Hermitian, so the constraint is
    -I <= M(f) <= I, with barrier -sum_a log(1 - w_a^2) over the eigenvalues
    w of M(f) (parameter nu = 2n on n coordinates); one eigendecomposition
    M = V diag(w) V* per Newton step gives gradient and Hessian through
    V* B_k V.  From the feasible f = 0, Newton steps on -t f_x + barrier are
    damped by 1 / (1 + lam) while the decrement lam exceeds 1/2.  At such an
    approximate centre the optimum exceeds f_x by at most
    (nu + (lam + sqrt(nu)) lam / (1 - lam)) / t (Nesterov, Introductory
    Lectures on Convex Optimization, section 4.2); t grows 50-fold until that
    gap is at most SDP_GAP_TOL * f_x.  The solve runs on the coordinates of
    the points marked in the boolean mask ``reached``, x's component.
    Returns (value, f, gap): f is feasible on all points, value = f_x and the
    distance lies in [value, value + gap].
    """
    coords = np.flatnonzero(reached[coord_points])
    owners = coord_points[coords]
    var_points = np.unique(owners[owners != y])
    n, nvar = coords.size, var_points.size
    if 16 * nvar * n * n > SDP_MAX_STACK_BYTES:
        raise ValidationError(
            f"coupled distance instance too large: {nvar} free points on {n} coordinates "
            f"need {16 * nvar * n * n} bytes of constraint matrices (limit {SDP_MAX_STACK_BYTES})"
        )
    member = (owners[None, :] == var_points[:, None]).astype(float)
    # B_k[r, s] = i D_rs (1_k(s) - 1_k(r)) on the component's coordinates.
    basis = 1j * dirac[np.ix_(coords, coords)] * (member[:, None, :] - member[:, :, None])
    c = (var_points == x).astype(float)
    f = np.zeros(nvar)
    t, nu = 1.0, 2.0 * n
    for _ in range(SDP_MAX_STEPS):
        try:
            w, v = np.linalg.eigh(np.tensordot(f, basis, 1))
            if np.max(np.abs(w)) >= 1.0:
                raise NumericError("barrier iterate left the feasible set")
            rotated = (v.conj().T @ basis @ v).reshape(nvar, n * n)
            d1, d2 = 1.0 / (1.0 - w), 1.0 / (1.0 + w)
            grad = rotated[:, :: n + 1].real @ (d1 - d2) - t * c
            weight = (np.outer(d1, d1) + np.outer(d2, d2)).ravel()
            step = -np.linalg.solve(((rotated * weight) @ rotated.conj().T).real, grad)
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

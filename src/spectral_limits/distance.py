"""Spectral distance on commutative finite spectral triples.

d(x, y) = sup{ |f(x) - f(y)| : f real, ||[D, pi(f)]|| <= 1 }.

When every Hilbert-space coordinate is coupled by the Dirac operator to at
most one coordinate carrying a different point (gapwise triples), the norm
constraint decouples into pairwise difference bounds and the supremum is the
shortest-path distance in the weighted constraint graph.  An exhaustive
vertex-enumeration LP over the same polytope serves as an independent
oracle.  Genuinely coupled instances fall back to a cutting-plane loop whose
relaxations are solved by a simplex that works on the k x k block of the
k structural columns in each basis.

Points in different components of the interaction graph are at infinite
distance, returned as ``math.inf``.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .errors import NumericError, UnsupportedError, ValidationError
from .linalg import dagger, eigh, operator_norm
from .triple import DiagonalRepresentation, FiniteSpectralTriple

# Entries of D below cutoff * ||D|| are treated as structural zeros.
COUPLING_CUTOFF = 1e-12
# Work cap for the vertex-enumeration oracle.
ORACLE_MAX_TREES = 200_000
# Cutting-plane loop control.
KELLEY_MAX_ITER = 200
KELLEY_TOL = 1e-9
# Size cap on a cutting-plane instance, checked before any constraint row is
# built: with nvar free variables and ncon the worst-case constraint count,
# 8 * ncon * (2 * nvar + ncon) may not exceed it.  That is the byte size of a
# dense [A, -A, I] tableau, but none is allocated (each pivot solves on a
# k x k block, k <= 2 * nvar), so the cap bounds the number of constraints
# and variables and with them the work of each pivot.  Instances that
# converge in practice (under 10 points, a few hundred constraints) are far
# below it; fully coupled instances reach it near 60 points.
KELLEY_MAX_TABLEAU_BYTES = 2**27


def _diagonal_form(t: FiniteSpectralTriple) -> tuple[np.ndarray, np.ndarray]:
    """Return (coord_points, D) with the representation diagonalized.

    Commutative representations consist of commuting projections summing to
    the identity, hence are simultaneously diagonalizable; the Dirac
    operator is conjugated into the same basis.
    """
    if not t.algebra.is_commutative:
        raise UnsupportedError("spectral distance is implemented for commutative algebras only")
    if isinstance(t.rep, DiagonalRepresentation):
        return t.rep.coord_points, t.dirac
    m = t.algebra.n_points
    probe = t.rep.apply_coordinates(np.arange(1, m + 1, dtype=complex))
    dec = eigh(probe)
    labels = np.rint(dec.eigenvalues).astype(int) - 1
    if np.any(np.abs(dec.eigenvalues - (labels + 1)) > 1e-6) or labels.min() < 0 or labels.max() >= m:
        raise ValidationError("representation is not a commuting family of point projections")
    d_diag = dagger(dec.vectors) @ t.dirac @ dec.vectors
    return labels, d_diag


def _interaction(
    coord_points: np.ndarray, dirac: np.ndarray
) -> tuple[dict[tuple[int, int], float], bool]:
    """Cross-point couplings as {(u, v): weight} plus a decoupling flag.

    The weight of a point pair is min over coordinate pairs of 1 / |D_rs|;
    the instance is decoupled when no coordinate is coupled to two others
    across point fibers.
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
    decoupled = bool(np.all(degree <= 1))
    return edges, decoupled


def _components(n_points: int, edges) -> np.ndarray:
    parent = list(range(n_points))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return np.array([find(p) for p in range(n_points)])


def _dijkstra(n_points: int, edges: dict, x: int, y: int):
    adj: dict[int, list[tuple[int, float]]] = {p: [] for p in range(n_points)}
    for (u, v), w in edges.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = {x: 0.0}
    prev: dict[int, int] = {}
    heap = [(0.0, x)]
    done = set()
    while heap:
        d, p = heapq.heappop(heap)
        if p in done:
            continue
        done.add(p)
        if p == y:
            break
        for q, w in adj[p]:
            nd = d + w
            if q not in dist or nd < dist[q] - 1e-15:
                dist[q] = nd
                prev[q] = p
                heapq.heappush(heap, (nd, q))
    if y not in done:
        return math.inf, None
    path = [y]
    while path[-1] != x:
        path.append(prev[path[-1]])
    return dist[y], path[::-1]


def _check_points(t: FiniteSpectralTriple, x: int, y: int) -> tuple[int, int]:
    if not t.algebra.is_commutative:
        raise UnsupportedError("spectral distance is implemented for commutative algebras only")
    m = t.algebra.n_points
    x, y = int(x), int(y)
    if not (0 <= x < m and 0 <= y < m):
        raise ValidationError(f"point indices must lie in [0, {m})")
    return x, y


def connes_distance_with_path(t: FiniteSpectralTriple, x: int, y: int):
    """Distance together with a certifying geodesic (decoupled instances).

    Returns (value, path) where path is a point-index list or None when the
    distance is infinite or the instance required the cutting-plane route.
    """
    x, y = _check_points(t, x, y)
    if x == y:
        return 0.0, [x]
    coord_points, dirac = _diagonal_form(t)
    edges, decoupled = _interaction(coord_points, dirac)
    comp = _components(t.algebra.n_points, edges)
    if comp[x] != comp[y]:
        return math.inf, None
    if decoupled:
        return _dijkstra(t.algebra.n_points, edges, x, y)
    value = _kelley_distance(coord_points, dirac, edges, comp, x, y)
    return value, None


def connes_distance(t: FiniteSpectralTriple, x: int, y: int) -> float:
    """sup{ |f(x) - f(y)| : ||[D, pi(f)]|| <= 1 }, or inf when disconnected."""
    return connes_distance_with_path(t, x, y)[0]


def connes_distance_lp(t: FiniteSpectralTriple, x: int, y: int) -> float:
    """Vertex-enumeration LP oracle over the difference-bound polytope.

    Only valid for decoupled instances, where the polytope equals the true
    feasible set; every polytope vertex arises from a spanning tree of tight
    constraints with a sign per edge, so the maximum of f(x) - f(y) is found
    by exhausting trees and sign patterns.
    """
    x, y = _check_points(t, x, y)
    if x == y:
        return 0.0
    coord_points, dirac = _diagonal_form(t)
    edges, decoupled = _interaction(coord_points, dirac)
    if not decoupled:
        raise ValidationError("LP oracle requires decoupled (pairwise) constraints")
    comp = _components(t.algebra.n_points, edges)
    if comp[x] != comp[y]:
        return math.inf

    points = sorted(np.nonzero(comp == comp[x])[0].tolist())
    index = {p: i for i, p in enumerate(points)}
    elist = [(index[u], index[v], w) for (u, v), w in sorted(edges.items()) if comp[u] == comp[x]]
    m = len(points)
    xi, yi = index[x], index[y]
    if m < 2:
        return 0.0

    n_trees = math.comb(len(elist), m - 1)
    if n_trees * (2 ** (m - 1)) > ORACLE_MAX_TREES * 16:
        raise ValidationError("LP oracle instance too large for exhaustive enumeration")

    weights_all = np.array([w for (_, _, w) in elist])
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m - 1)))
    best = -math.inf
    for subset in itertools.combinations(range(len(elist)), m - 1):
        # Acyclicity + spanning check via union-find.
        parent = list(range(m))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for ei in subset:
            u, v, _ = elist[ei]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if not ok:
            continue
        # Orient the tree from the root y; T[p, e] = +-1 if edge e lies on the
        # path y -> p, signed by traversal direction (f_v - f_u = value of e).
        adj: dict[int, list[tuple[int, int, int]]] = {p: [] for p in range(m)}
        for k, ei in enumerate(subset):
            u, v, _ = elist[ei]
            adj[u].append((v, k, +1))
            adj[v].append((u, k, -1))
        tmat = np.zeros((m, m - 1))
        stack = [yi]
        seen = {yi}
        while stack:
            p = stack.pop()
            for q, k, sgn in adj[p]:
                if q in seen:
                    continue
                seen.add(q)
                tmat[q] = tmat[p]
                tmat[q, k] = sgn
                stack.append(q)
        w_tree = np.array([elist[ei][2] for ei in subset])
        fvals = (signs * w_tree) @ tmat.T  # (2^(m-1), m); f(y) = 0 always
        feas = np.ones(fvals.shape[0], dtype=bool)
        for u, v, w in elist:
            feas &= np.abs(fvals[:, u] - fvals[:, v]) <= w + 1e-12 * max(1.0, w)
        if feas.any():
            best = max(best, float(np.max(fvals[feas, xi] - fvals[feas, yi])))
    if best == -math.inf:
        raise NumericError("vertex enumeration found no feasible vertex")
    return best


def _simplex_max(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> np.ndarray:
    """max c.z over {A z <= b} with free z and strictly positive b.

    Free variables are split as z = u - w and every row gets a slack, so the
    standard-form columns are [A, -A, I]; since b > 0 the slack basis is
    feasible and a single phase with Bland's rule suffices.  No tableau is
    formed.  Every basic slack is an identity column, so a basis is its k
    structural columns S together with the rows R whose slack is nonbasic
    (|R| = k): B x = r reduces to S[R] x_S = r[R] with the basic slacks
    r - S x_S on the other rows, and B^T lam = c_B to S[R]^T lam[R] = c_S
    with lam zero off R.  Each pivot therefore solves k x k systems only.
    """
    n = c.shape[0]
    ncon = a_ub.shape[0]
    signed = np.hstack([a_ub, -a_ub])
    cost = np.concatenate([c, -c, np.zeros(ncon)])
    basic = np.zeros(2 * n + ncon, dtype=bool)
    basic[2 * n :] = True
    for _ in range(20000):
        struct = np.flatnonzero(basic[: 2 * n])
        rows = np.flatnonzero(~basic[2 * n :])
        s_cols = signed[:, struct]
        block = s_cols[rows]
        lam = np.zeros(ncon)
        lam[rows] = np.linalg.solve(block.T, cost[struct])
        reduced = cost - np.concatenate([lam @ signed, lam])
        reduced[struct] = 0.0
        improving = np.flatnonzero(reduced > 1e-11)
        x_struct = np.linalg.solve(block, b_ub[rows])
        if improving.size == 0:
            sol = np.zeros(2 * n)
            sol[struct] = x_struct
            return sol[:n] - sol[n:]
        enter = improving[0]  # Bland: the smallest improving index enters
        if enter < 2 * n:
            column = signed[:, enter]
        else:
            column = np.zeros(ncon)
            column[enter - 2 * n] = 1.0
        d_struct = np.linalg.solve(block, column[rows])
        slack = np.flatnonzero(basic[2 * n :])
        basis = np.concatenate([struct, 2 * n + slack])
        xb = np.concatenate([x_struct, (b_ub - s_cols @ x_struct)[slack]])
        direction = np.concatenate([d_struct, (column - s_cols @ d_struct)[slack]])
        cand = np.flatnonzero(direction > 1e-11)
        if cand.size == 0:
            raise NumericError("cutting-plane LP relaxation is unbounded")
        ratio = xb[cand] / direction[cand]
        # Bland: the smallest ratio leaves, ties to the smallest column index.
        leave = basis[cand[np.lexsort((basis[cand], ratio))[0]]]
        basic[enter] = True
        basic[leave] = False
    raise NumericError("simplex did not terminate")


def _kelley_distance(coord_points, dirac, edges, comp, x: int, y: int) -> float:
    """Cutting-plane solve of max f_x - f_y over ||[D, diag(f)]|| <= 1.

    Starts from the entrywise difference-bound outer relaxation and adds
    norm subgradient cuts until the relaxed optimum is feasible within
    KELLEY_TOL.  Result accuracy is therefore KELLEY_TOL relative.
    """
    points = sorted(np.nonzero(comp == comp[x])[0].tolist())
    m = len(points)
    # Variables: f at component points except y (gauge f_y = 0).
    var_points = np.array([p for p in points if p != y])
    var_of = {int(p): j for j, p in enumerate(var_points)}
    nvar = len(var_of)
    # Constraints: two per edge, two box rows per variable and one cut per
    # iteration.
    n_edges = sum(1 for u, _ in edges if comp[u] == comp[x])
    ncon = 2 * n_edges + 2 * nvar + KELLEY_MAX_ITER
    if 8 * ncon * (2 * nvar + ncon) > KELLEY_MAX_TABLEAU_BYTES:
        raise ValidationError(
            f"cutting-plane instance too large: {m} points give {nvar} variables and up to "
            f"{ncon} constraints (limit: 8 * constraints * (2 * variables + constraints) "
            f"<= {KELLEY_MAX_TABLEAU_BYTES})"
        )

    def row_for_difference(u, v):
        row = np.zeros(nvar)
        if u != y:
            row[var_of[u]] += 1.0
        if v != y:
            row[var_of[v]] -= 1.0
        return row

    rows = []
    rhs = []
    total_w = 0.0
    for (u, v), w in sorted(edges.items()):
        if comp[u] != comp[x]:
            continue
        r = row_for_difference(u, v)
        rows.extend([r, -r])
        rhs.extend([w, w])
        total_w += w
    box = total_w + 1.0
    for r in np.eye(nvar):
        rows.extend([r, -r])
        rhs.extend([box, box])

    c = np.zeros(nvar)
    c[var_of[x]] = 1.0
    n_points = len(comp)

    value = math.inf
    for _ in range(KELLEY_MAX_ITER):
        f_sol = _simplex_max(c, np.array(rows), np.array(rhs))
        value = float(c @ f_sol)
        f_points = np.zeros(n_points)
        f_points[var_points] = f_sol
        fdiag = f_points[coord_points]
        cmat = dirac * (fdiag[None, :] - fdiag[:, None])
        nu = operator_norm(cmat)
        if nu <= 1.0 + KELLEY_TOL:
            return value / max(nu, 1.0)
        # Norm subgradient at f_sol: g_p = Re(u* [D, diag(1_p)] v).
        usv = np.linalg.svd(cmat)
        uvec = usv[0][:, 0]
        vvec = usv[2][0, :].conj()
        du = np.conj(uvec) @ dirac
        dv = dirac @ vvec
        g_coords = np.real(du * vvec - np.conj(uvec) * dv)
        grad = np.bincount(coord_points, weights=g_coords, minlength=n_points)[var_points]
        rows.append(grad)
        rhs.append(1.0)
    raise NumericError(f"cutting-plane distance did not converge in {KELLEY_MAX_ITER} iterations")

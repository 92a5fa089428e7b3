"""Spectral distance: shortest path, LP oracle, coupled fallback.

``connes_distance_lp`` is the vertex-enumeration oracle that the shortest-path
route is checked against here and in ``test_acceptance.py``.
"""

import itertools
import math
import time

import numpy as np
import pytest

from spectral_limits import (
    AfChain,
    NumericError,
    FiniteCStarAlgebra,
    FiniteSpectralTriple,
    StarHomomorphism,
    State,
    UnsupportedError,
    ValidationError,
    cantor_system,
    ci_system,
    connes_distance,
    connes_distance_with_path,
    dense_representation,
    diagonal_representation,
    middle_thirds,
    random_gap_sequence,
    system_from_generator_config,
)
from spectral_limits import distance

SEQ = middle_thirds(6)
CANTOR = cantor_system(SEQ, 4)
# Work cap for the vertex-enumeration oracle.
ORACLE_MAX_TREES = 200_000


def decoupled_instances():
    """Cantor levels 1-4 and six random gap sequences: 51 point pairs."""
    rng = np.random.default_rng(21)
    instances = [CANTOR.triples[j] for j in range(1, 5)]
    for _ in range(6):
        levels = int(rng.integers(1, 5))
        instances.append(cantor_system(random_gap_sequence(rng, levels), levels).triples[levels])
    return instances


def row_coupled(a, b):
    """One coordinate of point 0 coupled to two coordinates of point 1."""
    d = np.array([[0, a, b], [a, 0, 0], [b, 0, 0]], dtype=complex)
    return FiniteSpectralTriple(diagonal_representation(FiniteCStarAlgebra((1, 1)), np.array([0, 1, 1])), d)


def two_components():
    """row_coupled(2, 3) on points 0, 1 beside a pair 2 - 3 joined with
    weight 1/4: coupled on one component, decoupled on the other."""
    d = np.zeros((5, 5))
    d[0, 1] = d[1, 0] = 2.0
    d[0, 2] = d[2, 0] = 3.0
    d[3, 4] = d[4, 3] = 4.0
    return FiniteSpectralTriple(
        diagonal_representation(FiniteCStarAlgebra((1, 1, 1, 1)), np.array([0, 1, 1, 2, 3])), d
    )


def interaction_edges(coord_points, dirac) -> dict[tuple[int, int], float]:
    """{(u, v): weight} from ``distance._interaction``, taking the least
    weight of each point pair here rather than in the shortest-path search."""
    edges: dict[tuple[int, int], float] = {}
    for u, v, w in zip(*distance._interaction(coord_points, dirac)[0]):
        key = (int(u), int(v))
        edges[key] = min(edges.get(key, math.inf), float(w))
    return edges


def component(n_points: int, edges, x: int) -> set[int]:
    """Points joined to x by edges, found by a stack walk."""
    adj = {p: set() for p in range(n_points)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {x}, [x]
    while stack:
        for q in adj[stack.pop()] - seen:
            seen.add(q)
            stack.append(q)
    return seen


def connes_distance_lp(t: FiniteSpectralTriple, x: int, y: int) -> float:
    """Vertex-enumeration LP oracle over the difference-bound polytope.

    Only valid for decoupled instances, where the polytope equals the true
    feasible set; every polytope vertex arises from a spanning tree of tight
    constraints with a sign per edge, so the maximum of f(x) - f(y) is found
    by exhausting trees and sign patterns.
    """
    x, y = distance._check_points(t, x, y)
    if x == y:
        return 0.0
    coord_points, dirac = distance._diagonal_form(t)
    if distance._interaction(coord_points, dirac)[1].any():
        raise ValidationError("LP oracle requires decoupled (pairwise) constraints")
    edges = interaction_edges(coord_points, dirac)
    reached = component(t.algebra.n_points, edges, x)
    if y not in reached:
        return math.inf

    points = sorted(reached)
    index = {p: i for i, p in enumerate(points)}
    elist = [(index[u], index[v], w) for (u, v), w in sorted(edges.items()) if u in reached]
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


class TestBasics:
    def test_same_point(self):
        assert connes_distance(CANTOR.triples[3], 2, 2) == 0.0

    def test_middle_thirds_level1(self):
        # Two-variable feasible polytope |f0 - f1| <= 1 (outer pair) and
        # |f0 - f1| <= 1/3 (first gap): the maximum of |f0 - f1| is 1/3.
        t = CANTOR.triples[1]
        value, path = connes_distance_with_path(t, 0, 1)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert path == [0, 1]
        assert connes_distance_lp(t, 0, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetry_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            levels = int(rng.integers(1, 5))
            system = cantor_system(random_gap_sequence(rng, levels), levels)
            t = system.triples[levels]
            pts = t.algebra.n_points
            x, y = rng.integers(0, pts, size=2)
            assert connes_distance(t, int(x), int(y)) == pytest.approx(
                connes_distance(t, int(y), int(x)), abs=1e-12
            )

    def test_triangle_inequality_levels_up_to_4(self):
        for j in range(1, 5):
            t = CANTOR.triples[j]
            pts = range(t.algebra.n_points)
            d = {
                (x, y): connes_distance(t, x, y)
                for x, y in itertools.product(pts, repeat=2)
            }
            for x, y, z in itertools.permutations(pts, 3):
                assert d[x, y] <= d[x, z] + d[z, y] + 1e-9

    def test_shortest_path_equals_lp_oracle(self):
        for t in decoupled_instances():
            pts = t.algebra.n_points
            assert pts <= 16
            for x, y in itertools.combinations(range(pts), 2):
                direct = connes_distance(t, x, y)
                oracle = connes_distance_lp(t, x, y)
                assert abs(direct - oracle) <= 1e-9, (x, y, direct, oracle)


class TestEdgeCases:
    def test_disconnected_components_infinite(self):
        t = FiniteSpectralTriple(
            diagonal_representation(FiniteCStarAlgebra((1, 1)), np.array([0, 1])),
            np.zeros((2, 2)),
        )
        value, path = connes_distance_with_path(t, 0, 1)
        assert math.isinf(value)
        assert path is None
        assert math.isinf(connes_distance_lp(t, 0, 1))

    def test_point_out_of_range(self):
        with pytest.raises(ValidationError):
            connes_distance(CANTOR.triples[1], 0, 7)

    @pytest.mark.parametrize("x, y", [(1.7, 0), (0, 1.0), (True, 0), (0, np.float64(1.0)), ("1", 0)])
    def test_non_integral_point_rejected(self, x, y):
        # 1.7 used to be truncated to 1, answering d(1, 0).
        with pytest.raises(ValidationError, match="must be integers"):
            connes_distance(CANTOR.triples[2], x, y)

    def test_numpy_integer_points_accepted(self):
        t = CANTOR.triples[2]
        value, path = connes_distance_with_path(t, np.int64(2), np.int32(0))
        assert (value, path) == connes_distance_with_path(t, 2, 0) == (0.1111111111111111, [2, 0])
        assert all(type(p) is int for p in path)

    def test_noncommutative_unsupported(self):
        units = np.zeros((4, 2, 2), dtype=complex)
        units[0, 0, 0] = units[1, 0, 1] = units[2, 1, 0] = units[3, 1, 1] = 1.0
        t = FiniteSpectralTriple(
            dense_representation(FiniteCStarAlgebra((2,)), units), np.zeros((2, 2))
        )
        with pytest.raises(UnsupportedError):
            connes_distance(t, 0, 1)

    def test_lp_oracle_requires_decoupled(self):
        d = np.array([[0, 2.0, 3.0], [2.0, 0, 0], [3.0, 0, 0]], dtype=complex)
        t = FiniteSpectralTriple(
            diagonal_representation(FiniteCStarAlgebra((1, 1)), np.array([0, 1, 1])),
            d,
        )
        with pytest.raises(ValidationError):
            connes_distance_lp(t, 0, 1)


class TestExplicitRepresentation:
    def test_gns_level_is_diagonalized(self):
        # The GNS chain C < C^2 < M_2 with density diag(0.3, 0.7): level 1
        # holds C^2 as dense left multiplication in its GNS coordinates, so
        # the distance first diagonalizes it.  D_1 weighs the unit's
        # orthocomplement with alpha_1 = 2, which gives
        # 1 / (alpha_1 sqrt(w_0 w_1)).
        c1, c2, m2 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((1, 1)), FiniteCStarAlgebra((2,))
        i1 = StarHomomorphism(c1, c2, matrix=np.array([[1], [1]], dtype=complex))
        i2 = StarHomomorphism(c2, m2, matrix=np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex))
        state = State(m2, m2.element([np.diag([0.3, 0.7])]))
        t = ci_system(AfChain((c1, c2, m2), (i1, i2), state, (2.0, 3.0)), 2).triples[1]
        assert t.rep.spectrum_map is None
        assert connes_distance_with_path(t, 0, 1) == (1.0910894511799618, [0, 1])
        assert connes_distance_with_path(t, 1, 0) == (1.0910894511799618, [1, 0])
        assert 1.0910894511799618 == 1.0 / (2.0 * math.sqrt(0.21))
        assert connes_distance(t, 0, 1) == pytest.approx(1.0 / (2.0 * math.sqrt(0.3 * 0.7)), rel=1e-14)


class TestCoupledFallback:
    def test_row_coupled_instance(self):
        # One coordinate of point 0 coupled to two coordinates of point 1:
        # [D, diag(f)] = (f1 - f0) K with ||K|| = sqrt(a^2 + b^2), so the
        # distance is 1/sqrt(a^2 + b^2); the entrywise relaxation alone
        # would give the larger 1/max(a, b).
        a, b = 2.0, 3.0
        value = connes_distance(row_coupled(a, b), 0, 1)
        assert value == pytest.approx(1.0 / math.sqrt(a * a + b * b), abs=1e-10)

    def test_coupled_instance_with_two_components(self):
        # The search from 0 reaches only points 0 and 1, so the solve runs
        # on that component alone.  The pair's component is decoupled: the
        # search gives its exact value and geodesic.
        t = two_components()
        assert distance._interaction(t.rep.spectrum_map, t.dirac)[1].any()
        assert connes_distance(t, 0, 1) == pytest.approx(connes_distance(row_coupled(2.0, 3.0), 0, 1), rel=1e-12)
        assert connes_distance_with_path(t, 2, 3) == (0.25, [2, 3])
        assert connes_distance_with_path(t, 3, 2) == (0.25, [3, 2])
        for x, y in [(0, 2), (1, 3), (3, 0)]:
            value, path = connes_distance_with_path(t, x, y)
            assert math.isinf(value) and path is None

    @pytest.mark.parametrize("x, y", [(1, 1), (2, 3), (0, 1), (0, 2)], ids=["same", "decoupled", "coupled", "infinite"])
    def test_value_is_python_float_on_every_route(self, x, y):
        assert type(connes_distance_with_path(two_components(), x, y)[0]) is float

    def test_coupled_three_points(self):
        # Chain 0 - 1 - 2 with an extra coupled coordinate on the middle
        # point; value checked against a dense grid search lower bound and
        # feasibility of the returned certificate scale.
        d = np.zeros((4, 4), dtype=complex)
        d[0, 1] = d[1, 0] = 1.0  # point 0 - point 1
        d[1, 2] = d[2, 1] = 0.0
        d[0, 2] = d[2, 0] = 2.0  # point 0 - point 1 again (coupled via coord 0)
        d[2, 3] = d[3, 2] = 1.5  # point 1 - point 2
        cp = np.array([0, 1, 1, 2])
        t = FiniteSpectralTriple(diagonal_representation(FiniteCStarAlgebra((1, 1, 1)), cp), d)
        value = connes_distance(t, 0, 2)

        # Grid-search oracle over f = (0, s, u) with the commutator norm
        # computed exactly; maximizes u subject to norm <= 1.
        def cnorm(f):
            fd = f[cp]
            return np.linalg.norm(d * (fd[None, :] - fd[:, None]), 2)

        best = 0.0
        for s in np.linspace(-1.5, 1.5, 301):
            lo, hi = 0.0, 5.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if cnorm(np.array([0.0, s, mid])) <= 1.0:
                    lo = mid
                else:
                    hi = mid
            best = max(best, lo)
        assert value == pytest.approx(best, abs=1e-4)


def ci_level(alphas, level, sizes=None):
    chain = "binary"
    if sizes is not None:
        chain = {"branching": [[k * a // b for k in range(b)] for a, b in zip(sizes, sizes[1:])]}
    cfg = {"type": "christensen-ivan", "chain": chain, "weights": "uniform", "alphas": alphas, "levels": len(alphas)}
    return system_from_generator_config(cfg).triples[level]


class TestKelleyRegression:
    def test_binary_ci_level3_alternating_alphas(self):
        # 8 coupled points; the dense-tableau simplex took about 18 s here.
        t = ci_level([-1.0, 1.0, -1.0], 3)
        assert t.algebra.n_points == 8
        start = time.perf_counter()
        value = connes_distance(t, 0, 1)
        assert time.perf_counter() - start < 10.0
        assert value == pytest.approx(1.333333332781743, abs=1e-9)


class TestPinnedCoupledValues:
    """Coupled values pinned to the solve that formed every constraint matrix
    B_k = i[D, P_k]; the n x n form must agree within 1e-12 relative."""

    @pytest.mark.parametrize(
        "level, expected", [(3, 1.3333333333301585), (5, 1.2493900951056724), (7, 1.2307692307691667)]
    )
    def test_binary_ci_alternating_alphas(self, level, expected):
        t = ci_level([(-1.0) ** j for j in range(1, level + 1)], level)
        start = time.perf_counter()
        value = connes_distance(t, 0, 1)
        elapsed = time.perf_counter() - start
        assert value == pytest.approx(expected, rel=1e-12)
        if level == 7:
            # n = 128: the constraint-matrix stack took 8.3 s single-threaded.
            assert elapsed < 4.0

    def test_random_complex_hermitian_dirac(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        t = FiniteSpectralTriple(
            diagonal_representation(FiniteCStarAlgebra((1, 1, 1)), np.array([0, 1, 2, 0, 1, 2])), (h + h.conj().T) / 2
        )
        for (x, y), expected in {
            (0, 1): 0.4064783423054577,
            (0, 2): 0.5249183720720655,
            (1, 2): 0.4221447688618622,
            (2, 0): 0.5249183720720656,
        }.items():
            value, path = connes_distance_with_path(t, x, y)
            assert path is None
            assert value == pytest.approx(expected, rel=1e-12)


def barrier_solve(t, x, y):
    """The coupled-route solve called directly, also on decoupled instances."""
    coord_points, dirac = distance._diagonal_form(t)
    reached = np.zeros(t.algebra.n_points, dtype=bool)
    reached[list(component(t.algebra.n_points, interaction_edges(coord_points, dirac), x))] = True
    return distance._barrier_distance(coord_points, dirac, reached, x, y)


class TestBarrierSolve:
    def test_matches_shortest_path_on_decoupled_instances(self):
        pairs = 0
        for t in decoupled_instances():
            for x, y in itertools.combinations(range(t.algebra.n_points), 2):
                value, _, _ = barrier_solve(t, x, y)
                assert abs(value - connes_distance(t, x, y)) <= 1e-10, (x, y, value)
                pairs += 1
        assert pairs == 51

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_row_coupled_relative_accuracy(self, scale):
        # The stop is relative, so tiny and huge distances keep their digits.
        a, b = 2.0 * scale, 3.0 * scale
        value, _, _ = barrier_solve(row_coupled(a, b), 0, 1)
        assert value == pytest.approx(1.0 / math.sqrt(a * a + b * b), rel=1e-10)

    @pytest.mark.parametrize(
        "alphas, level, sizes",
        [
            ([-1.0, 1.0, -1.0], 3, None),
            ([-1.0, 1.0, -1.0], 3, [1, 2, 3, 6]),
            ([(-1.0) ** j for j in range(1, 6)], 4, None),
            ([(-1.0) ** j for j in range(1, 6)], 5, None),
            ([(-1.0) ** j for j in range(1, 8)], 7, None),
        ],
        ids=["binary-3", "ci-report-3", "binary-4", "binary-5", "binary-7"],
    )
    def test_certificate(self, alphas, level, sizes):
        t = ci_level(alphas, level, sizes)
        value, f, gap = barrier_solve(t, 0, 1)
        assert f[1] == 0.0 and f[0] == value
        fd = f[t.rep.spectrum_map]
        assert np.linalg.norm(t.dirac * (fd[None, :] - fd[:, None]), 2) <= 1.0
        assert 0.0 <= gap <= 1e-10 * max(1.0, value)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(distance, "SDP_MAX_STEPS", 5)
        with pytest.raises(NumericError, match="did not converge in 5 Newton steps"):
            connes_distance(row_coupled(2.0, 3.0), 0, 1)

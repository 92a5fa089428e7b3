"""Spectral distance: shortest path, LP oracle, coupled fallback."""

import itertools
import math
import time

import numpy as np
import pytest

from spectral_limits import (
    DiagonalRepresentation,
    NumericError,
    FiniteCStarAlgebra,
    FiniteSpectralTriple,
    UnsupportedError,
    ValidationError,
    cantor_system,
    connes_distance,
    connes_distance_lp,
    connes_distance_with_path,
    middle_thirds,
    random_gap_sequence,
    system_from_generator_config,
)
from spectral_limits import distance

SEQ = middle_thirds(6)
CANTOR = cantor_system(SEQ, 4)


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
    return FiniteSpectralTriple(FiniteCStarAlgebra((1, 1)), DiagonalRepresentation(np.array([0, 1, 1]), 2), d)


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
            FiniteCStarAlgebra((1, 1)),
            DiagonalRepresentation(np.array([0, 1]), 2),
            np.zeros((2, 2)),
        )
        value, path = connes_distance_with_path(t, 0, 1)
        assert math.isinf(value)
        assert path is None
        assert math.isinf(connes_distance_lp(t, 0, 1))

    def test_point_out_of_range(self):
        with pytest.raises(ValidationError):
            connes_distance(CANTOR.triples[1], 0, 7)

    def test_noncommutative_unsupported(self):
        units = np.zeros((4, 2, 2), dtype=complex)
        units[0, 0, 0] = units[1, 0, 1] = units[2, 1, 0] = units[3, 1, 1] = 1.0
        from spectral_limits import DenseRepresentation

        t = FiniteSpectralTriple(
            FiniteCStarAlgebra((2,)), DenseRepresentation(units), np.zeros((2, 2))
        )
        with pytest.raises(UnsupportedError):
            connes_distance(t, 0, 1)

    def test_lp_oracle_requires_decoupled(self):
        d = np.array([[0, 2.0, 3.0], [2.0, 0, 0], [3.0, 0, 0]], dtype=complex)
        t = FiniteSpectralTriple(
            FiniteCStarAlgebra((1, 1)),
            DiagonalRepresentation(np.array([0, 1, 1]), 2),
            d,
        )
        with pytest.raises(ValidationError):
            connes_distance_lp(t, 0, 1)


class TestCoupledFallback:
    def test_row_coupled_instance(self):
        # One coordinate of point 0 coupled to two coordinates of point 1:
        # [D, diag(f)] = (f1 - f0) K with ||K|| = sqrt(a^2 + b^2), so the
        # distance is 1/sqrt(a^2 + b^2); the entrywise relaxation alone
        # would give the larger 1/max(a, b).
        a, b = 2.0, 3.0
        value = connes_distance(row_coupled(a, b), 0, 1)
        assert value == pytest.approx(1.0 / math.sqrt(a * a + b * b), abs=1e-10)

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
        t = FiniteSpectralTriple(FiniteCStarAlgebra((1, 1, 1)), DiagonalRepresentation(cp, 3), d)
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


def barrier_solve(t, x, y):
    """The coupled-route solve called directly, also on decoupled instances."""
    coord_points, dirac = distance._diagonal_form(t)
    edges, _ = distance._interaction(coord_points, dirac)
    comp = distance._components(t.algebra.n_points, edges)
    return distance._barrier_distance(coord_points, dirac, comp, x, y)


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
        ],
        ids=["binary-3", "ci-report-3", "binary-4", "binary-5"],
    )
    def test_certificate(self, alphas, level, sizes):
        t = ci_level(alphas, level, sizes)
        value, f, gap = barrier_solve(t, 0, 1)
        assert f[1] == 0.0 and f[0] == value
        fd = f[t.rep.coord_points]
        assert np.linalg.norm(t.dirac * (fd[None, :] - fd[:, None]), 2) <= 1.0
        assert 0.0 <= gap <= 1e-10 * max(1.0, value)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(distance, "SDP_MAX_STEPS", 5)
        with pytest.raises(NumericError, match="did not converge in 5 Newton steps"):
            connes_distance(row_coupled(2.0, 3.0), 0, 1)

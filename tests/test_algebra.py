"""Algebras, homomorphisms, states and the GNS construction."""

import numpy as np
import pytest

from spectral_limits import (
    FiniteCStarAlgebra,
    StarHomomorphism,
    State,
    ValidationError,
    gns,
    hom_compose,
    hom_validate,
    operator_norm,
    subspace_projection,
)
from spectral_limits.algebra import map_residuals
from spectral_limits.linalg import dagger


def pairwise_oracle(source, target, images):
    """map_residuals by brute force: element arithmetic on every basis pair."""

    def apply(a):
        return target.from_coordinates(a.coordinates @ images)

    def norm(x):
        return max(operator_norm(b) for b in x.blocks)

    basis = list(source.basis())
    return {
        "unitality": norm(apply(source.unit()) - target.unit()),
        "multiplicativity": max(norm(apply(a * c) - apply(a) * apply(c)) for a in basis for c in basis),
        "star_preservation": max(norm(apply(a.star()) - apply(a).star()) for a in basis),
    }


class TestAlgebraAndElements:
    def test_block_validation(self):
        with pytest.raises(ValidationError):
            FiniteCStarAlgebra(())
        with pytest.raises(ValidationError):
            FiniteCStarAlgebra((2, 0))

    def test_dimensions(self):
        a = FiniteCStarAlgebra((2, 1, 3))
        assert a.element_dim == 4 + 1 + 9
        assert not a.is_commutative
        assert FiniteCStarAlgebra((1, 1)).is_commutative

    def test_coordinates_round_trip(self):
        a = FiniteCStarAlgebra((2, 1))
        rng = np.random.default_rng(0)
        coords = rng.normal(size=5) + 1j * rng.normal(size=5)
        elem = a.from_coordinates(coords)
        assert np.allclose(elem.coordinates, coords)

    def test_product_and_star(self):
        a = FiniteCStarAlgebra((2,))
        x = a.element([np.array([[0, 1], [0, 0]])])
        y = a.element([np.array([[0, 0], [1, 0]])])
        assert np.allclose((x * y).blocks[0], np.array([[1, 0], [0, 0]]))
        assert np.allclose(x.star().blocks[0], np.array([[0, 0], [1, 0]]))

    def test_flat_coordinates_and_block_views(self):
        a = FiniteCStarAlgebra((2, 1, 3))
        rng = np.random.default_rng(5)
        coords = [rng.normal(size=14) + 1j * rng.normal(size=14) for _ in range(2)]
        x, y = (a.from_coordinates(c) for c in coords)
        assert [b.shape for b in x.blocks] == [(2, 2), (1, 1), (3, 3)]
        assert np.array_equal(np.concatenate([b.ravel() for b in x.blocks]), x.coordinates)
        for got, bx, by in zip((x * y).blocks, x.blocks, y.blocks):
            assert np.allclose(got, bx @ by)
        for got, bx in zip(x.star().blocks, x.blocks):
            assert np.array_equal(got, dagger(bx))
        assert x.norm() == pytest.approx(max(operator_norm(b) for b in x.blocks), rel=1e-12)
        assert np.array_equal(a.element(x.blocks).coordinates, x.coordinates)
        assert np.array_equal(a.unit().coordinates, np.concatenate([np.eye(n).ravel() for n in (2, 1, 3)]))
        with pytest.raises(ValidationError):
            a.from_coordinates(np.full(14, np.nan))

    def test_product_table_matches_element_products(self):
        a = FiniteCStarAlgebra((2, 1, 2))
        table = a.product_table()
        for i, ei in enumerate(a.basis()):
            for j, ej in enumerate(a.basis()):
                expected = a.zero() if table[i, j] < 0 else a.basis_element(table[i, j])
                assert np.array_equal((ei * ej).coordinates, expected.coordinates)

    def test_point_values(self):
        a = FiniteCStarAlgebra((1, 1, 1))
        f = a.from_point_values([1.0, 2.0, 3.0])
        assert np.allclose(f.point_values, [1, 2, 3])
        with pytest.raises(ValidationError):
            FiniteCStarAlgebra((2,)).from_point_values([1.0])


class TestHomomorphisms:
    def test_identity_residuals_zero(self):
        for algebra in (FiniteCStarAlgebra((1, 1, 1)), FiniteCStarAlgebra((2, 1))):
            report = hom_validate(StarHomomorphism.identity(algebra))
            assert report.passed
            assert report.worst == 0.0
            assert report.entries["injectivity_margin"] >= 1.0

    def test_pullback_of_surjection(self):
        # sigma: 3 target points onto 2 source points; the pullback is an
        # injective unital *-homomorphism, checked by brute force on all
        # indicator functions.
        src, tgt = FiniteCStarAlgebra((1, 1)), FiniteCStarAlgebra((1, 1, 1))
        phi = StarHomomorphism(src, tgt, spectrum_map=np.array([0, 0, 1]))
        for i in range(2):
            e = src.basis_element(i)
            img = phi.apply(e)
            assert np.allclose(img.point_values, (np.array([0, 0, 1]) == i).astype(float))
            for j in range(2):
                other = src.basis_element(j)
                lhs = phi.apply(e * other).point_values
                rhs = (phi.apply(e) * phi.apply(other)).point_values
                assert np.allclose(lhs, rhs)
        report = hom_validate(phi)
        assert report.passed
        assert report.worst <= 1e-12
        assert report.entries["injectivity_margin"] >= 1.0

    def test_non_surjective_flagged(self):
        src, tgt = FiniteCStarAlgebra((1, 1)), FiniteCStarAlgebra((1, 1))
        phi = StarHomomorphism(src, tgt, spectrum_map=np.array([0, 0]))
        report = hom_validate(phi)
        assert not report.passed
        assert report.entries["injectivity_margin"] == 0.0
        assert "injectivity_defect" in report.failures

    def test_hom_apply_zero_and_mismatch(self):
        src, tgt = FiniteCStarAlgebra((1, 1)), FiniteCStarAlgebra((1, 1, 1))
        phi = StarHomomorphism(src, tgt, spectrum_map=np.array([0, 1, 1]))
        assert np.allclose(phi.apply(src.zero()).point_values, 0)
        assert np.allclose(phi.apply(src.unit()).point_values, 1)
        with pytest.raises(ValidationError):
            phi.apply(tgt.unit())

    def test_explicit_linear_unital_embedding(self):
        # z -> z * I_2 as an explicit linear map C -> M_2.
        c1, m2 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((2,))
        phi = StarHomomorphism(c1, m2, matrix=np.array([[1], [0], [0], [1]], dtype=complex))
        report = hom_validate(phi)
        assert report.passed
        img = phi.apply(c1.unit())
        assert np.allclose(img.blocks[0], np.eye(2))

    def test_transpose_is_not_multiplicative(self):
        # a -> a^T on M_2 is unital and *-preserving but reverses products:
        # (e_12 e_21)^T = e_11 while e_12^T e_21^T = e_22.
        m2 = FiniteCStarAlgebra((2,))
        phi = StarHomomorphism(m2, m2, matrix=np.eye(4)[[0, 2, 1, 3]])
        report = hom_validate(phi)
        assert report.entries["unitality"] == 0.0
        assert report.entries["star_preservation"] == 0.0
        assert report.entries["multiplicativity"] == pytest.approx(1.0, abs=1e-14)
        assert report.failures == ("multiplicativity",)

    @pytest.mark.parametrize(
        "source_dims, target_dims",
        [((1, 1, 1), (1, 1, 1, 1)), ((1, 1), (2, 1)), ((2, 1), (1, 1, 1)), ((2, 1), (2, 2, 1))],
    )
    def test_residuals_match_pairwise_oracle(self, source_dims, target_dims):
        # Exact whole-array residuals equal the brute-force maximum over all
        # basis pairs, for arbitrary (non-homomorphic) linear maps.
        source, target = FiniteCStarAlgebra(source_dims), FiniteCStarAlgebra(target_dims)
        rng = np.random.default_rng(sum(source_dims) * 10 + sum(target_dims))
        for _ in range(3):
            shape = (source.element_dim, target.element_dim)
            images = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            images[rng.random(shape) < 0.5] = 0.0
            got = map_residuals(source, target, images)
            want = pairwise_oracle(source, target, images)
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key

    def test_pullback_indicator_residuals_exact(self):
        # A coordinate matrix whose rows are not indicators: e_0 and e_1 both
        # map to 1 at the first point, so e_0 e_1 = 0 maps to 0 but the
        # product of the images is 1 there.
        src, tgt = FiniteCStarAlgebra((1, 1)), FiniteCStarAlgebra((1, 1))
        phi = StarHomomorphism(src, tgt, matrix=np.array([[1, 1], [0, 0]], dtype=complex))
        report = hom_validate(phi)
        assert report.entries["multiplicativity"] == 1.0
        assert report.entries["star_preservation"] == 0.0

    def test_compose_spectrum_maps(self):
        a0 = FiniteCStarAlgebra((1,))
        a1 = FiniteCStarAlgebra((1, 1))
        a2 = FiniteCStarAlgebra((1, 1, 1, 1))
        phi1 = StarHomomorphism(a0, a1, spectrum_map=np.array([0, 0]))
        phi2 = StarHomomorphism(a1, a2, spectrum_map=np.array([0, 0, 1, 1]))
        comp = hom_compose(phi2, phi1)
        assert comp.spectrum_map is not None
        assert np.array_equal(comp.spectrum_map, [0, 0, 0, 0])
        with pytest.raises(ValidationError):
            hom_compose(phi1, phi2)

    def test_exactly_one_encoding(self):
        a = FiniteCStarAlgebra((1,))
        with pytest.raises(ValidationError):
            StarHomomorphism(a, a, spectrum_map=np.array([0]), matrix=np.eye(1))
        with pytest.raises(ValidationError):
            StarHomomorphism(a, a)


class TestStates:
    def test_faithful_validation(self):
        a = FiniteCStarAlgebra((1, 1))
        with pytest.raises(ValidationError):
            State.from_weights(a, [1.0, 0.0])
        with pytest.raises(ValidationError):
            State(a, (np.array([[0.5]]), np.array([[0.6]])))

    def test_uniform_trace_state(self):
        m2 = FiniteCStarAlgebra((2,))
        tau = State.uniform(m2)
        assert np.allclose(tau.block_densities[0], np.eye(2) / 2)
        assert tau.value(m2.unit()) == pytest.approx(1.0)


class TestGns:
    def test_scalars(self):
        a = FiniteCStarAlgebra((1,))
        space = gns(a, State.from_weights(a, [1.0]))
        assert space.dimension == 1
        assert np.allclose(space.gram, [[1.0]])

    def test_two_points_uniform(self):
        # tau(a* b) on the indicator basis is diag(1/2, 1/2).
        a = FiniteCStarAlgebra((1, 1))
        space = gns(a, State.from_weights(a, [0.5, 0.5]))
        assert np.allclose(space.gram, np.diag([0.5, 0.5]))

    def test_m2_trace_state(self):
        # tr(e_ij* e_kl)/2 = delta_ik delta_jl / 2 on matrix units.
        m2 = FiniteCStarAlgebra((2,))
        tau = State(m2, (np.eye(2, dtype=complex) / 2,))
        space = gns(m2, tau)
        oracle = np.zeros((4, 4), dtype=complex)
        units = [m2.basis_element(i) for i in range(4)]
        for i, a in enumerate(units):
            for j, b in enumerate(units):
                oracle[i, j] = tau.value(a.star() * b)
        assert np.allclose(oracle, np.eye(4) / 2)
        assert np.allclose(space.gram, oracle, atol=1e-14)

    def test_gram_identity_exact_on_basis(self):
        rng = np.random.default_rng(1)
        a = FiniteCStarAlgebra((2, 1))
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho0 = raw @ raw.conj().T + 0.1 * np.eye(2)
        rho1 = np.array([[0.3]], dtype=complex)
        rho0 = rho0 / np.trace(rho0).real * 0.7
        tau = State(a, (rho0, rho1))
        space = gns(a, tau)
        for i in range(a.element_dim):
            for j in range(a.element_dim):
                ei, ej = a.basis_element(i), a.basis_element(j)
                expected = tau.value(ei.star() * ej)
                assert abs(space.gram[i, j] - expected) <= 1e-14

    def test_left_multiplication_is_star_representation(self):
        rng = np.random.default_rng(2)
        a = FiniteCStarAlgebra((2,))
        tau = State.uniform(a)
        space = gns(a, tau)
        for i in range(4):
            x = a.basis_element(i)
            lx = space.left_mult_matrix(x)
            lxs = space.left_mult_matrix(x.star())
            for j in range(4):
                for k in range(4):
                    u = np.eye(4)[j]
                    v = np.eye(4)[k]
                    lhs = np.conj(lx @ u) @ space.gram @ v
                    rhs = np.conj(u) @ space.gram @ (lxs @ v)
                    assert abs(lhs - rhs) <= 1e-10

    def test_left_multiplication_identity(self):
        a = FiniteCStarAlgebra((1, 1))
        space = gns(a, State.from_weights(a, [0.25, 0.75]))
        x = a.from_point_values([2.0, 3.0])
        y = a.from_point_values([1.0, -1.0])
        assert np.allclose(space.left_mult_matrix(x) @ y.coordinates, (x * y).coordinates)


class TestSubspaceProjection:
    def test_full_algebra_gives_identity(self):
        a = FiniteCStarAlgebra((1, 1))
        space = gns(a, State.from_weights(a, [0.5, 0.5]))
        p = subspace_projection(space, StarHomomorphism.identity(a))
        assert np.allclose(p, np.eye(2), atol=1e-12)

    def test_constants_in_two_points_uniform(self):
        # Explicit Gram-Schmidt: eta(1) has orthonormal coordinates
        # (1/sqrt2, 1/sqrt2), so the projection is the constant matrix 1/2.
        a0, a1 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((1, 1))
        space = gns(a1, State.from_weights(a1, [0.5, 0.5]))
        inc = StarHomomorphism(a0, a1, spectrum_map=np.array([0, 0]))
        p = subspace_projection(space, inc)
        assert np.allclose(p, np.full((2, 2), 0.5), atol=1e-12)

    def test_constants_weighted(self):
        # Weights (1/4, 3/4): unit vector (1/2, sqrt(3)/2) in orthonormal
        # coordinates, projection [[1/4, sqrt3/4], [sqrt3/4, 3/4]].
        a0, a1 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((1, 1))
        space = gns(a1, State.from_weights(a1, [0.25, 0.75]))
        inc = StarHomomorphism(a0, a1, spectrum_map=np.array([0, 0]))
        p = subspace_projection(space, inc)
        s3 = np.sqrt(3)
        assert np.allclose(p, np.array([[0.25, s3 / 4], [s3 / 4, 0.75]]), atol=1e-12)

    def test_identity_span_in_m2(self):
        # HS-orthogonality: the traceless part is orthogonal to 1, so the
        # projection is onto the normalized identity's coordinate line.
        m2 = FiniteCStarAlgebra((2,))
        space = gns(m2, State(m2, (np.eye(2, dtype=complex) / 2,)))
        c1 = FiniteCStarAlgebra((1,))
        inc = StarHomomorphism(c1, m2, matrix=np.array([[1], [0], [0], [1]], dtype=complex))
        p = subspace_projection(space, inc)
        w = space._chol_h @ m2.unit().coordinates
        w = w / np.linalg.norm(w)
        assert np.allclose(p, np.outer(w, w.conj()), atol=1e-12)

    def test_nested_projections_commute(self):
        a0 = FiniteCStarAlgebra((1,))
        a1 = FiniteCStarAlgebra((1, 1))
        a2 = FiniteCStarAlgebra((1, 1, 1, 1))
        space = gns(a2, State.from_weights(a2, [0.1, 0.2, 0.3, 0.4]))
        inc01 = StarHomomorphism(a0, a1, spectrum_map=np.array([0, 0]))
        inc12 = StarHomomorphism(a1, a2, spectrum_map=np.array([0, 0, 1, 1]))
        p1 = subspace_projection(space, hom_compose(inc12, inc01))
        p2 = subspace_projection(space, inc12)
        assert operator_norm(p1 @ p2 - p1) <= 1e-10
        assert operator_norm(p2 @ p1 - p1) <= 1e-10
        for p in (p1, p2):
            assert operator_norm(p @ p - p) <= 1e-10
            assert operator_norm(p - dagger(p)) <= 1e-10

    def test_rank_deficient_inclusion_rejected(self):
        a1 = FiniteCStarAlgebra((1, 1))
        space = gns(a1, State.from_weights(a1, [0.5, 0.5]))
        bad = StarHomomorphism(
            FiniteCStarAlgebra((1, 1)), a1, matrix=np.array([[1, 1], [1, 1]], dtype=complex)
        )
        with pytest.raises(ValidationError):
            subspace_projection(space, bad)

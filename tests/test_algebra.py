"""Algebras, homomorphisms, states and the GNS construction."""

import time
import tracemalloc

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
)
from spectral_limits.algebra import map_residuals
from spectral_limits.linalg import dagger


def pairwise_oracle(source, target, images, pairs=None):
    """map_residuals by brute force: element arithmetic on the given pairs of
    basis indices, every basis pair by default."""

    def apply(a):
        return target.from_coordinates(a.coordinates @ images)

    def norm(x):
        return max(operator_norm(b) for b in x.blocks)

    basis = list(source.basis())
    if pairs is None:
        pairs = [(a, c) for a in range(len(basis)) for c in range(len(basis))]
    return {
        "unitality": norm(apply(source.unit()) - target.unit()),
        "multiplicativity": max(norm(apply(basis[a] * basis[c]) - apply(basis[a]) * apply(basis[c])) for a, c in pairs),
        "star_preservation": max(norm(apply(a.star()) - apply(a).star()) for a in basis),
    }


def relation_pairs(algebra):
    """Basis index pairs of the matrix-unit relations: (e_k1, e_1l) for all
    k, l and (e_1k, e_k1) for k >= 2 in every block."""
    pairs = []
    for o, n in zip(algebra.block_offsets(), algebra.block_dims):
        pairs += [(o + k * n, o + l) for k in range(n) for l in range(n)]
        pairs += [(o + k, o + k * n) for k in range(1, n)]
    return pairs


class TestAlgebraAndElements:
    def test_block_validation(self):
        with pytest.raises(ValidationError):
            FiniteCStarAlgebra(())
        with pytest.raises(ValidationError):
            FiniteCStarAlgebra((2, 0))

    @pytest.mark.parametrize("dims", [(2.5,), (True,), ("3",), (1, np.float64(2.0))])
    def test_non_integral_block_dims_rejected(self, dims):
        # These used to be truncated to (2,), (1,), (3,) and (1, 2).
        with pytest.raises(ValidationError, match="block dimensions must be integers"):
            FiniteCStarAlgebra(dims)

    def test_numpy_integer_block_dims_accepted(self):
        a = FiniteCStarAlgebra((np.int64(2), np.uint8(1)))
        assert a.block_dims == (2, 1) and all(type(n) is int for n in a.block_dims)

    def test_dimensions(self):
        a = FiniteCStarAlgebra((2, 1, 3))
        assert a.element_dim == 4 + 1 + 9
        assert not a.is_commutative
        assert FiniteCStarAlgebra((1, 1)).is_commutative
        assert a.block_offsets() == (0, 4, 5, 14)
        assert FiniteCStarAlgebra((1, 1)).n_points == 2
        with pytest.raises(ValidationError):
            a.n_points

    def test_cached_shape_facts_stay_out_of_equality(self):
        a, b = FiniteCStarAlgebra((2, 1)), FiniteCStarAlgebra((np.int64(2), 1))
        assert a == b and hash(a) == hash(b) and repr(a) == "FiniteCStarAlgebra(block_dims=(2, 1))"

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
        # Exact whole-array residuals equal the brute-force maximum over the
        # matrix-unit relations, for arbitrary (non-homomorphic) linear maps.
        # The relations are a subset of all basis pairs, so multiplicativity
        # never exceeds the all-pairs maximum (up to rounding).
        source, target = FiniteCStarAlgebra(source_dims), FiniteCStarAlgebra(target_dims)
        rng = np.random.default_rng(sum(source_dims) * 10 + sum(target_dims))
        for _ in range(3):
            shape = (source.element_dim, target.element_dim)
            images = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            images[rng.random(shape) < 0.5] = 0.0
            got = map_residuals(source, target, images)
            want = pairwise_oracle(source, target, images, relation_pairs(source))
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
            all_pairs = pairwise_oracle(source, target, images)["multiplicativity"]
            assert got["multiplicativity"] <= all_pairs * (1 + 1e-12)

    def test_pullback_indicator_residuals_exact(self):
        # A coordinate matrix whose rows are not indicators: e_0 and e_1 both
        # map to 1 at the first point.  Each image is idempotent, so the
        # relations e_k e_k = e_k hold, but the images of the units sum to
        # (2, 0) instead of 1, and unitality fails.
        src, tgt = FiniteCStarAlgebra((1, 1)), FiniteCStarAlgebra((1, 1))
        phi = StarHomomorphism(src, tgt, matrix=np.array([[1, 1], [0, 0]], dtype=complex))
        report = hom_validate(phi)
        assert report.entries["multiplicativity"] == 0.0
        assert report.entries["star_preservation"] == 0.0
        assert report.entries["unitality"] == 1.0
        assert report.failures == ("unitality",)

    @pytest.mark.parametrize(
        "source_dims, target_dims, matrix",
        [((1, 1, 1), (1, 1), [[1, 0, 0], [0, 1, 0]]), ((1, 1, 1), (1,), [[1, 0, 0]])],
    )
    def test_wide_explicit_map_fails_injectivity(self, source_dims, target_dims, matrix):
        # Fewer target than source coordinates: a unital *-homomorphism that
        # kills the last point.  min(rows, cols) singular values alone never
        # see that kernel; the image of e_11 of the killed block is zero.
        phi = StarHomomorphism(FiniteCStarAlgebra(source_dims), FiniteCStarAlgebra(target_dims), matrix=matrix)
        report = hom_validate(phi)
        assert report.entries["injectivity_margin"] == 0.0
        assert report.failures == ("injectivity_defect",)

    def test_explicit_form_of_spectrum_map_matches_bit_for_bit(self):
        # Same entries for both encodings: exact zeros for the axioms, and the
        # square root of the smallest fibre count as the margin.
        rng = np.random.default_rng(24)
        for _ in range(200):
            src = FiniteCStarAlgebra((1,) * int(rng.integers(1, 7)))
            tgt = FiniteCStarAlgebra((1,) * int(rng.integers(1, 13)))
            phi = StarHomomorphism(src, tgt, spectrum_map=rng.integers(0, src.n_points, size=tgt.n_points))
            explicit = hom_validate(StarHomomorphism(src, tgt, matrix=phi.as_matrix())).entries
            want = hom_validate(phi).entries
            assert {k: v.hex() for k, v in explicit.items()} == {k: v.hex() for k, v in want.items()}

    def test_explicit_pullback_validation_is_linear(self):
        # 512 -> 1024 points as an explicit map: the relations are 512
        # products of 1024 coordinates, where all pairs were 512^2.
        src, tgt = FiniteCStarAlgebra((1,) * 512), FiniteCStarAlgebra((1,) * 1024)
        pullback = StarHomomorphism(src, tgt, spectrum_map=np.arange(1024) // 2)
        phi = StarHomomorphism(src, tgt, matrix=pullback.as_matrix())
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = hom_validate(phi)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak <= 40 * 2**20
        assert report.passed and report.worst == 0.0
        assert report.entries["injectivity_margin"] == np.sqrt(2.0)

    def test_spectrum_map_validation_builds_no_matrix(self):
        # 1024 -> 2048 points: the dense complex image matrix would take 32 MB.
        src, tgt = FiniteCStarAlgebra((1,) * 1024), FiniteCStarAlgebra((1,) * 2048)
        phi = StarHomomorphism(src, tgt, spectrum_map=np.arange(2048) // 2)
        tracemalloc.start()
        try:
            report = hom_validate(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert report.passed and report.worst == 0.0
        assert report.entries["injectivity_margin"] == np.sqrt(2.0)

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

    def test_compose_spectrum_map_after_explicit_gathers_rows(self):
        # 256 -> 512 points explicitly, then a pullback to 1024 points: the
        # composite's rows are gathered, bit for bit the product with the
        # 0/1 matrix of the pullback, which is never built.
        rng = np.random.default_rng(6)
        a0, a1, a2 = (FiniteCStarAlgebra((1,) * n) for n in (256, 512, 1024))
        first = StarHomomorphism(a0, a1, matrix=rng.normal(size=(512, 256)) + 1j * rng.normal(size=(512, 256)))
        second = StarHomomorphism(a1, a2, spectrum_map=rng.integers(0, 512, size=1024))
        tracemalloc.start()
        try:
            comp = hom_compose(second, first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = second.as_matrix()
        assert peak < dense.nbytes
        assert np.array_equal(comp.matrix, dense @ first.matrix)
        assert (comp.source, comp.target) == (a0, a2)

    def test_exactly_one_encoding(self):
        a = FiniteCStarAlgebra((1,))
        with pytest.raises(ValidationError):
            StarHomomorphism(a, a, spectrum_map=np.array([0]), matrix=np.eye(1))
        with pytest.raises(ValidationError):
            StarHomomorphism(a, a)

    @pytest.mark.parametrize("values", [[0.7, 1.9], [True, False], ["1", "0"]])
    def test_non_integral_spectrum_map_rejected(self, values):
        # These used to be truncated to [0, 1], [1, 0] and [1, 0].
        a = FiniteCStarAlgebra((1, 1))
        with pytest.raises(ValidationError, match="integer dtype"):
            StarHomomorphism(a, a, spectrum_map=values)

    def test_unsigned_spectrum_map_accepted(self):
        a = FiniteCStarAlgebra((1, 1))
        phi = StarHomomorphism(a, a, spectrum_map=np.array([1, 0], dtype=np.uint8))
        assert phi.spectrum_map.tolist() == [1, 0]


class TestStates:
    def test_faithful_validation(self):
        a = FiniteCStarAlgebra((1, 1))
        with pytest.raises(ValidationError):
            State.from_weights(a, [1.0, 0.0])
        with pytest.raises(ValidationError):
            State(a, a.from_point_values([0.5, 0.6]))

    def test_uniform_trace_state(self):
        m2 = FiniteCStarAlgebra((2,))
        tau = State.uniform(m2)
        assert np.allclose(tau.density.blocks[0], np.eye(2) / 2)
        assert tau.value(m2.unit()) == pytest.approx(1.0)

    def test_from_weights_density_is_normalized_weights(self):
        w = np.random.default_rng(3).uniform(0.1, 2.0, size=17)
        tau = State.from_weights(FiniteCStarAlgebra((1,) * 17), w)
        assert np.array_equal(tau.density.coordinates, w / w.sum())
        assert np.array_equal(tau.weights, w / w.sum())

    def test_weights_with_overflowing_sum(self):
        # Divided by a power of two first, the sum 2^1024 stays finite; it used
        # to overflow with a RuntimeWarning and fail as not faithful.
        tau = State.from_weights(FiniteCStarAlgebra((1, 1)), [2.0**1022, 3 * 2.0**1022])
        assert tau.weights.tolist() == [0.25, 0.75]

    def test_value_is_blockwise_trace(self):
        rng = np.random.default_rng(4)
        a = FiniteCStarAlgebra((2, 1, 3))
        blocks = []
        for n, share in zip(a.block_dims, (0.3, 0.2, 0.5)):
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rho = raw @ raw.conj().T + 0.1 * np.eye(n)
            blocks.append(rho / np.trace(rho).real * share)
        tau = State(a, a.element(blocks))
        for _ in range(5):
            x = a.from_coordinates(rng.normal(size=a.element_dim) + 1j * rng.normal(size=a.element_dim))
            want = sum(np.trace(r @ b) for r, b in zip(blocks, x.blocks))
            assert abs(tau.value(x) - want) <= 1e-14

    def test_invalid_densities_rejected(self):
        a = FiniteCStarAlgebra((2, 1))
        good = [np.array([[0.3, 0.1j], [-0.1j, 0.3]]), np.array([[0.4]])]
        State(a, a.element(good))
        non_hermitian = [np.array([[0.3, 0.1], [0.0, 0.3]]), np.array([[0.4]])]
        singular = [np.array([[0.3, 0.3], [0.3, 0.3]]), np.array([[0.4]])]
        bad_trace = [np.array([[0.3, 0.0], [0.0, 0.3]]), np.array([[0.5]])]
        for blocks, message in ((non_hermitian, "Hermitian"), (singular, "faithful"), (bad_trace, "traces")):
            with pytest.raises(ValidationError, match=message):
                State(a, a.element(blocks))
        other = FiniteCStarAlgebra((1, 2))
        with pytest.raises(ValidationError, match="algebra"):
            State(a, other.element([good[1], good[0]]))


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
        tau = State(m2, m2.element([np.eye(2) / 2]))
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
        tau = State(a, a.element([rho0, rho1]))
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


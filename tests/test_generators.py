"""Cantor and Christensen-Ivan generators, gap sequences, chains."""

import math
import re

import numpy as np
import pytest

from spectral_limits import (
    AfChain,
    FiniteCStarAlgebra,
    GapSequence,
    StarHomomorphism,
    State,
    ValidationError,
    analytic_gap_bound,
    binary_branching,
    cantor_system,
    ci_system,
    commutative_af_chain,
    eigh,
    gap_series,
    gns,
    hom_validate,
    middle_thirds,
    operator_norm,
    random_af_chain,
    random_gap_sequence,
    realize,
    system_validate,
    theta,
    theta_index,
)
from spectral_limits.generators import DENSE_GNS_CAP, _restrict_state
from spectral_limits.linalg import dagger
from test_inductive import chain


def tensor_chain(levels, rng):
    """C < M_2 < M_4 < ... < M_{2^levels} by a -> a (x) 1_2, with a random
    faithful complex density on top and alpha_j = j."""
    algebras = [FiniteCStarAlgebra((2**k,)) for k in range(levels + 1)]
    incs = []
    for small, big in zip(algebras, algebras[1:]):
        n = small.block_dims[0]
        units = np.eye(n * n).reshape(n * n, n, n)
        cols = [np.kron(e, np.eye(2)).ravel() for e in units]
        incs.append(StarHomomorphism(small, big, matrix=np.array(cols, dtype=complex).T))
    top = algebras[-1].block_dims[0]
    raw = rng.normal(size=(top, top)) + 1j * rng.normal(size=(top, top))
    rho = raw @ raw.conj().T + 0.1 * np.eye(top)
    state = State(algebras[-1], algebras[-1].element([rho / np.trace(rho).real]))
    return AfChain(tuple(algebras), tuple(incs), state, tuple(float(j) for j in range(1, levels + 1)))


def doubled_chain(rng):
    """C -> M_2 -> M_2 + M_2 (a -> (a, a)) with a complex, non-uniform state."""
    c1, m2, m22 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((2,)), FiniteCStarAlgebra((2, 2))
    scalars = StarHomomorphism(c1, m2, matrix=np.array([[1], [0], [0], [1]], dtype=complex))
    diagonal = StarHomomorphism(m2, m22, matrix=np.vstack([np.eye(4), np.eye(4)]))
    blocks = []
    for share in (0.35, 0.65):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = raw @ raw.conj().T + 0.1 * np.eye(2)
        blocks.append(rho / np.trace(rho).real * share)
    return AfChain((c1, m2, m22), (scalars, diagonal), State(m22, m22.element(blocks)), (1.0, 2.0)), blocks


class TestMiddleThirds:
    def test_first_gap(self):
        seq = middle_thirds(7)
        assert seq.gaps[0] == pytest.approx((1 / 3, 2 / 3))
        assert seq.lengths[1] == pytest.approx(1 / 3)

    def test_tie_break_by_left_endpoint(self):
        seq = middle_thirds(7)
        assert seq.lengths[2] == pytest.approx(1 / 9)
        assert seq.lengths[3] == pytest.approx(1 / 9)
        assert seq.gaps[1] == pytest.approx((1 / 9, 2 / 9))
        assert seq.gaps[2] == pytest.approx((7 / 9, 8 / 9))

    def test_length_formula(self):
        # l_n = 3^(-floor(log2 n) - 1): 2^(k-1) gaps of length 3^(-k).
        seq = middle_thirds(15)
        for n in range(1, 16):
            expected = 3.0 ** (-(int(np.floor(np.log2(n))) + 1))
            assert seq.lengths[n] == pytest.approx(expected, rel=1e-12)
        assert seq.lengths[7] == pytest.approx(1 / 27)

    def test_validates(self):
        middle_thirds(0)
        middle_thirds(31)
        assert middle_thirds(np.int64(2)).gaps == middle_thirds(2).gaps
        with pytest.raises(ValidationError):
            middle_thirds(-1)


# Every generator that takes a number of levels, called with ``levels``.
LEVELS_CALLS = {
    "middle_thirds": middle_thirds,
    "cantor_system": lambda levels: cantor_system(middle_thirds(3), levels),
    "binary_branching": binary_branching,
    "ci_system": lambda levels: ci_system(commutative_af_chain(binary_branching(3), np.full(8, 1 / 8), [1, 2, 3]), levels),
    "theta": lambda levels: theta(middle_thirds(3), levels, 0.5),
    "theta_index": lambda levels: theta_index(middle_thirds(3), levels, 0.5),
    "random_gap_sequence": lambda levels: random_gap_sequence(np.random.default_rng(0), levels),
    "random_af_chain": lambda levels: random_af_chain(np.random.default_rng(0), levels),
}


@pytest.mark.parametrize("call", LEVELS_CALLS.values(), ids=LEVELS_CALLS)
@pytest.mark.parametrize("levels", [True, 2.5, "2", -1], ids=["bool", "float", "str", "negative"])
def test_levels_must_be_a_nonnegative_integer(call, levels):
    # True used to run as level 1, and 2.5 raised a raw TypeError.
    with pytest.raises(ValidationError, match=re.escape(f"levels must be an integer >= 0, got {levels!r}")):
        call(levels)


class TestGapSequenceInvariants:
    @pytest.mark.parametrize("outer", [(0.0, math.inf), (0.0, 1e-320), (-1e308, 1e308)], ids=["inf", "tiny", "overflow"])
    def test_length_and_reciprocal_finite(self, outer):
        # D_0 = 0 used to pass for the first, and 1/1e-320 overflowed in cantor_system.
        with pytest.raises(ValidationError, match=re.escape(f"gap {outer!r} has length")):
            GapSequence(*outer, ())

    def test_increasing_lengths_rejected(self):
        with pytest.raises(ValidationError):
            GapSequence(0.0, 1.0, ((0.4, 0.45), (0.6, 0.8)))

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            GapSequence(0.0, 1.0, ((0.2, 0.5), (0.4, 0.7)))

    def test_shared_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            GapSequence(0.0, 1.0, ((0.2, 0.5), (0.5, 0.7)))

    def test_gap_outside_rejected(self):
        with pytest.raises(ValidationError):
            GapSequence(0.0, 1.0, ((0.9, 1.1),))


class TestTheta:
    SEQ = middle_thirds(6)

    def test_fixes_minimum(self):
        for j in range(4):
            assert theta(self.SEQ, j, 0.0) == 0.0

    def test_level1_values(self):
        # Lambda_1 = {0, 2/3}: theta_1(1/3) = 0 and theta_1(1) = 2/3.
        assert theta(self.SEQ, 1, 1 / 3) == 0.0
        assert theta(self.SEQ, 1, 1.0) == pytest.approx(2 / 3)

    def test_below_minimum_rejected(self):
        with pytest.raises(ValidationError):
            theta(self.SEQ, 2, -0.25)

    def test_composition_identity(self):
        # theta_{j,k} o theta_k = theta_j on every basis point of E.
        seq = self.SEQ
        for j, k in [(0, 2), (1, 3), (2, 5)]:
            for n in range(6):
                for x in (seq.plus_point(n), seq.minus_point(n)):
                    assert theta(seq, j, theta(seq, k, x)) == theta(seq, j, x)


class TestCantorSystem:
    def test_dirac_norm_is_inverse_length(self):
        seq = middle_thirds(4)
        system = cantor_system(seq, 2)
        assert operator_norm(system.triples[2].dirac) == pytest.approx(9.0, abs=1e-12)
        for j in range(3):
            assert operator_norm(system.triples[j].dirac) == pytest.approx(
                1.0 / seq.lengths[j], abs=1e-10
            )

    def test_spectrum_is_pair_values(self):
        seq = middle_thirds(4)
        system = cantor_system(seq, 3)
        dec = eigh(system.triples[3].dirac)
        oracle = sorted(
            [1.0 / seq.lengths[n] for n in range(4)] + [-1.0 / seq.lengths[n] for n in range(4)]
        )
        assert np.allclose(dec.eigenvalues, oracle, atol=1e-10)

    def test_dimensions(self):
        system = cantor_system(middle_thirds(5), 5)
        assert [t.hilbert_dim for t in system.triples] == [2 * (j + 1) for j in range(6)]

    def test_system_validates(self):
        report = system_validate(cantor_system(middle_thirds(5), 5))
        assert report.passed
        assert report.worst <= 1e-12

    def test_insufficient_gaps(self):
        with pytest.raises(ValidationError):
            cantor_system(middle_thirds(2), 5)


class TestCiSystem:
    def test_binary_chain_spectrum(self):
        # rank(P_i - P_{i-1}) = 2^i - 2^(i-1), eigenvalue alpha_i on each
        # increment and 0 on the one-dimensional base.
        chain = commutative_af_chain(binary_branching(3), np.full(8, 1 / 8), [1, 2, 3])
        system = ci_system(chain, 3)
        dec = eigh(system.triples[3].dirac)
        oracle = sorted([0.0] + [1.0] * 1 + [2.0] * 2 + [3.0] * 4)
        assert np.allclose(dec.eigenvalues, oracle, atol=1e-12)

    def test_base_level_zero_dirac(self):
        chain = commutative_af_chain(binary_branching(2), np.full(4, 1 / 4), [1, 2])
        system = ci_system(chain, 2)
        assert system.triples[0].hilbert_dim == 1
        assert operator_norm(system.triples[0].dirac) == 0.0

    def test_noncommutative_m2(self):
        c1, m2 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((2,))
        inc = StarHomomorphism(c1, m2, matrix=np.array([[1], [0], [0], [1]], dtype=complex))
        chain = AfChain((c1, m2), (inc,), State(m2, m2.element([np.eye(2) / 2])), (5.0,))
        system = ci_system(chain, 1)
        dec = eigh(system.triples[1].dirac)
        assert np.allclose(dec.eigenvalues, [0.0, 5.0, 5.0, 5.0], atol=1e-10)
        assert system_validate(system).passed
        # A real state gives a real link, stored as float64.
        assert system.links[0].iso.dtype == np.float64

    def test_dirac_restriction_consistency(self):
        # D_k restricted to the level-j subspace equals D_j.
        af = commutative_af_chain(
            binary_branching(4), np.full(16, 1 / 16), [1.0, -2.0, 3.5, 0.5]
        )
        system = ci_system(af, 4)
        for j in range(4):
            m = chain(system, j, 4)
            restricted = dagger(m.iso) @ system.triples[4].dirac @ m.iso
            assert np.allclose(restricted, system.triples[j].dirac, atol=1e-12)

    def test_nonuniform_weights_projection(self):
        # Weights (1/4, 3/4): the base projection in orthonormal point
        # coordinates is [[1/4, sqrt3/4], [sqrt3/4, 3/4]].
        chain = commutative_af_chain([np.array([0, 0])], [0.25, 0.75], [2.0])
        system = ci_system(chain, 1)
        r_proj = system.links[0].iso @ dagger(system.links[0].iso)
        s3 = np.sqrt(3)
        assert np.allclose(r_proj, [[0.25, s3 / 4], [s3 / 4, 0.75]], atol=1e-12)

    @pytest.mark.parametrize("levels", [4, 2])
    def test_gathered_dirac_matches_dense_products(self, levels):
        # The generator gathers L D L* and L L* from the one nonzero of each
        # link row; the dense products L D_j L^T + alpha (1 - L L^T) give the
        # same bits, signed zeros included, with uneven fibres, random
        # weights and alphas of both signs.
        sizes = [1, 2, 3, 6, 12]
        branching = [[k * a // b for k in range(b)] for a, b in zip(sizes, sizes[1:])]
        weights = np.random.default_rng(4).uniform(0.1, 3.0, 12)
        alphas = [-2.5, 1.0, -0.3, 7.0]
        system = ci_system(commutative_af_chain(branching, weights / weights.sum(), alphas), levels)
        for j, link in enumerate(system.links):
            l = link.iso
            assert np.count_nonzero(l, axis=1).tolist() == [1] * l.shape[0]
            d = l @ system.triples[j].dirac @ l.T + alphas[j] * (np.eye(l.shape[0]) - l @ l.T)
            assert (0.5 * (d + d.T)).tobytes() == system.triples[j + 1].dirac.tobytes()

    def test_fibre_update_keeps_signed_zeros_of_dense_form(self):
        # alpha_0 = 1e-323 makes D_1's off-diagonal -5e-324, and light points
        # (a_q = 0.14) scale it to -0.0 across fibres of level 2.  The dense
        # elementwise form adds alpha_1 * 0.0 there, giving +0.0, and the
        # fibre update must give the same bits.
        alphas = [1e-323, 1.0]
        system = ci_system(commutative_af_chain(binary_branching(2), [0.01, 0.49, 0.01, 0.49], alphas), 2)
        for j, link in enumerate(system.links):
            sigma = np.argmax(link.iso, axis=1)
            a = link.iso.max(axis=1)
            n = a.size
            proj = np.outer(a, a) * (sigma[:, None] == sigma[None, :])
            d = (a[:, None] * system.triples[j].dirac[np.ix_(sigma, sigma)]) * a[None, :] + alphas[j] * (np.eye(n) - proj)
            assert (0.5 * (d + d.T)).tobytes() == system.triples[j + 1].dirac.tobytes()
        assert not np.signbit(system.triples[2].dirac[0, 2])

    def test_restricted_noncommutative_state_matches_pullback(self):
        # C -> M_2 -> M_2 + M_2 (a -> (a, a)) with a non-uniform top state,
        # restricted below the top: the density rho_j of the restriction
        # satisfies rho_j[l, k] = tau(phi(e_kl)) block by block.
        chain, blocks = doubled_chain(np.random.default_rng(6))

        def oracle(level):
            algebra = chain.algebras[level]
            inc = chain.composed_inclusion(level, chain.top_level)
            densities, offsets = [], algebra.block_offsets()
            for b, n in enumerate(algebra.block_dims):
                rho = np.zeros((n, n), dtype=complex)
                for k in range(n):
                    for l in range(n):
                        e = algebra.basis_element(offsets[b] + k * n + l)
                        rho[l, k] = chain.state.value(inc.apply(e))
                densities.append(rho)
            return densities

        for level in (0, 1):
            got = _restrict_state(chain, level).density.blocks
            for g, want in zip(got, oracle(level)):
                assert np.allclose(g, want, rtol=0, atol=1e-15)
        assert np.allclose(_restrict_state(chain, 1).density.blocks[0], blocks[0] + blocks[1], atol=1e-15)
        assert system_validate(ci_system(chain, 1)).passed

    def test_level_out_of_range(self):
        chain = commutative_af_chain(binary_branching(2), np.full(4, 1 / 4), [1, 2])
        with pytest.raises(ValidationError):
            ci_system(chain, 3)


class TestGnsLevels:
    """Chains with explicit inclusions: level j in the orthonormal
    coordinates C_j* x of its own GNS space (gram = C_j C_j*)."""

    CHAINS = {
        "tensor-M8": lambda: tensor_chain(3, np.random.default_rng(11)),
        "doubled": lambda: doubled_chain(np.random.default_rng(6))[0],
    }

    @pytest.fixture(params=sorted(CHAINS), scope="class")
    def built(self, request):
        chain = self.CHAINS[request.param]()
        return chain, ci_system(chain, chain.top_level)

    def test_representation_is_left_multiplication(self, built):
        chain, system = built
        for j, t in enumerate(system.triples):
            space = gns(t.algebra, _restrict_state(chain, j))
            for e in t.algebra.basis():
                assert t.represent(e).tobytes() == space.left_mult_matrix(e).tobytes()

    def test_links_are_isometries_between_gns_coordinates(self, built):
        chain, system = built
        rng = np.random.default_rng(3)
        for j, link in enumerate(system.links):
            lower = gns(chain.algebras[j], _restrict_state(chain, j)).chol
            upper = gns(chain.algebras[j + 1], _restrict_state(chain, j + 1)).chol
            l = link.iso
            assert np.abs(dagger(l) @ l - np.eye(l.shape[1])).max() <= 1e-12
            x = rng.normal(size=(l.shape[1], 3)) + 1j * rng.normal(size=(l.shape[1], 3))
            got = l @ (dagger(lower) @ x)
            want = dagger(upper) @ (chain.inclusions[j].matrix @ x)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_spectrum_is_alphas_on_increments(self, built):
        chain, system = built
        dims = [a.element_dim for a in chain.algebras]
        oracle = [0.0] + [a for i, a in enumerate(chain.alphas, 1) for _ in range(dims[i] - dims[i - 1])]
        eigenvalues = eigh(system.triples[-1].dirac).eigenvalues
        assert np.abs(eigenvalues - np.sort(oracle)).max() <= 1e-12

    def test_resolvent_gaps_equal_analytic_bound(self, built):
        _, system = built
        series = gap_series(realize(system), lam=1j)
        for j, value in series.entries[:-1]:
            assert abs(value - analytic_gap_bound(system, j, 1j)) <= 1e-12

    def test_small_chain_validates(self):
        assert system_validate(ci_system(doubled_chain(np.random.default_rng(6))[0], 2)).passed

    def test_tensor_chain_validates_in_relation_time(self, monkeypatch):
        # Multiplicativity on the matrix-unit relations, sum_b (n_b^2 + n_b
        # - 1) products per explicit map: 96 for the representations of C,
        # M_2, M_4 and M_8 and 25 for the inclusions, where all basis pairs
        # took 4,642.  Counted, not timed: a stack of products slows down
        # many times under CPU contention.
        system = ci_system(tensor_chain(3, np.random.default_rng(11)), 3)
        products = []
        multiply = FiniteCStarAlgebra.multiply

        def counted(algebra, x, y):
            products.append(math.prod(np.broadcast_shapes(np.shape(x), np.shape(y))[:-1]))
            return multiply(algebra, x, y)

        monkeypatch.setattr(FiniteCStarAlgebra, "multiply", counted)
        report = system_validate(system)
        assert sum(products) == 121
        assert report.summary() == "pass: 4 triples, 3 links, worst residual 1.00e-15"

    def test_planted_inclusion_defect_found(self):
        chain = tensor_chain(3, np.random.default_rng(11))
        top = chain.inclusions[-1]
        matrix = top.matrix.copy()
        matrix[5, 3] += 1e-3
        report = hom_validate(StarHomomorphism(top.source, top.target, matrix=matrix))
        assert not report.passed
        for key in ("multiplicativity", "star_preservation"):
            assert 0.9e-3 <= report.entries[key] <= 1.1e-3, key

    def test_dense_cap_refuses_m16(self):
        chain = tensor_chain(4, np.random.default_rng(0))
        assert chain.algebras[-1].element_dim > DENSE_GNS_CAP
        with pytest.raises(ValidationError, match="capped"):
            ci_system(chain, 4)
        assert ci_system(chain, 3).triples[-1].hilbert_dim == 64

    def test_non_injective_inclusion_rejected(self):
        # C -> C^2 -> C, a -> a_0: the state pulled back to C^2 has density
        # (1, 0), which is not faithful.
        c1, c2 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((1, 1))
        up = StarHomomorphism(c1, c2, matrix=np.array([[1], [1]], dtype=complex))
        first = StarHomomorphism(c2, c1, matrix=np.array([[1, 0]], dtype=complex))
        chain = AfChain((c1, c2, c1), (up, first), State.from_weights(c1, [1.0]), (1.0, 2.0))
        with pytest.raises(ValidationError, match="not faithful"):
            ci_system(chain, 2)


class TestChainValidation:
    def test_missing_fiber_rejected(self):
        with pytest.raises(ValidationError):
            commutative_af_chain([np.array([0, 0]), np.array([0, 0, 0])], np.full(3, 1 / 3), [1, 2])

    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError):
            commutative_af_chain([np.array([0, 0])], [1.0, 0.0], [1.0])

    @pytest.mark.parametrize("alpha", [0.0, math.nan, -math.inf])
    def test_bad_alpha_rejected(self, alpha):
        # The message names the chain step.
        with pytest.raises(ValidationError, match=re.escape(f"alpha 1 must be finite and nonzero, got {alpha!r}")):
            commutative_af_chain(binary_branching(2), [0.25] * 4, [1.0, alpha])

    def test_chain_must_start_at_scalars(self):
        a = FiniteCStarAlgebra((1, 1))
        with pytest.raises(ValidationError):
            AfChain((a,), (), State.from_weights(a, [0.5, 0.5]), ())

    def test_nonfaithful_state_rejected(self):
        m2 = FiniteCStarAlgebra((2,))
        singular = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValidationError):
            State(m2, m2.element([singular]))


class TestRandomGenerators:
    def test_random_gap_sequences_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            seq = random_gap_sequence(rng, int(rng.integers(1, 8)))
            assert seq.n_gaps >= 1
            diffs = np.diff(seq.lengths)
            assert np.all(diffs <= 1e-12)

    def test_random_chains_valid(self):
        rng = np.random.default_rng(6)
        for kind in ("random", "increasing", "bounded"):
            chain = random_af_chain(rng, 4, max_points=32, alpha_kind=kind)
            system = ci_system(chain, 4)
            assert system_validate(system).passed
            assert system.triples[4].hilbert_dim <= 32

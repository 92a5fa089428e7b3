"""Spectral triples, morphisms, commutator seminorms and gradings."""

import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_limits import algebra as algebra_module
from spectral_limits import triple as triple_module
from spectral_limits import (
    AfChain,
    TripleMorphism,
    binary_branching,
    commutative_af_chain,
    FiniteCStarAlgebra,
    FiniteSpectralTriple,
    StarHomomorphism,
    State,
    ValidationError,
    cantor_system,
    ci_system,
    commutator,
    commutator_norm,
    dense_representation,
    diagonal_representation,
    middle_thirds,
    operator_norm,
    random_commutative_system,
    system_from_generator_config,
    theta,
    validate_morphism,
    validate_triple,
)
from test_generators import doubled_chain, tensor_chain
from test_inductive import chain

SEQ = middle_thirds(6)
CANTOR = cantor_system(SEQ, 4)


def intertwining_oracle(m):
    """max over the source basis of ||I pi1(e) - pi2(phi(e)) I||, one element at a time."""
    return max(
        operator_norm(m.iso @ m.source.represent(e) - m.target.represent(m.phi.apply(e)) @ m.iso)
        for e in m.source.algebra.basis()
    )


def reference_operators(rep, coords):
    """pi of each coordinate row, formed apart from ``triple.operators``: the
    diagonal of the point values, or the sum of the basis images."""
    coords = np.asarray(coords, dtype=complex)
    if rep.spectrum_map is not None:
        return np.stack([np.diag(c[rep.spectrum_map]) for c in coords])
    n = rep.target.block_dims[0]
    return np.einsum("ri,ijk->rjk", coords, rep.matrix.T.reshape(-1, n, n))


def reference_intertwining(m):
    """max over the source basis of ||I pi1(e) - pi2(phi(e)) I||, with phi
    applied as a matrix and pi by ``reference_operators``."""
    basis = np.eye(m.source.algebra.element_dim)
    lhs = m.iso @ reference_operators(m.source.rep, basis)
    rhs = reference_operators(m.target.rep, m.phi.as_matrix().T) @ m.iso
    return float(np.linalg.norm(lhs - rhs, ord=2, axis=(-2, -1)).max())


def reference_twirl(m):
    """||I - E(I)|| with E(I) = sum over the matrix units e^b_kl of
    pi2(phi(e_kl)) I pi1(e_lk) / n_b, one unit at a time, the images formed
    by ``reference_operators`` and phi applied as a matrix."""
    algebra = m.source.algebra
    pi = reference_operators(m.source.rep, np.eye(algebra.element_dim))
    rho = reference_operators(m.target.rep, m.phi.as_matrix().T)
    average = sum(
        rho[o + k * n + l] @ m.iso @ pi[o + l * n + k] / n
        for o, n in zip(algebra.block_offsets(), algebra.block_dims)
        for k in range(n)
        for l in range(n)
    )
    return float(np.linalg.norm(m.iso - average, ord=2))


def m2_system():
    c1, m2 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((2,))
    inc = StarHomomorphism(c1, m2, matrix=np.array([[1], [0], [0], [1]], dtype=complex))
    return ci_system(AfChain((c1, m2), (inc,), State(m2, m2.element([np.eye(2) / 2])), (5.0,)), 1)


class TestValidateTriple:
    def test_cantor_level0_passes(self):
        report = validate_triple(CANTOR.triples[0])
        assert report.passed
        assert report.worst <= 1e-14

    def test_trivial_triple(self):
        t = FiniteSpectralTriple(
            diagonal_representation(FiniteCStarAlgebra((1,)), np.array([0])),
            np.zeros((1, 1)),
        )
        assert validate_triple(t).passed

    def test_non_hermitian_dirac_fails_named(self):
        t = FiniteSpectralTriple(
            diagonal_representation(FiniteCStarAlgebra((1, 1)), np.array([0, 1])),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
        )
        report = validate_triple(t)
        assert not report.passed
        assert "dirac_hermiticity" in report.failures

    def test_unfaithful_diagonal_rep_fails(self):
        t = FiniteSpectralTriple(
            diagonal_representation(FiniteCStarAlgebra((1, 1)), np.array([0, 0])),
            np.zeros((2, 2)),
        )
        report = validate_triple(t)
        assert not report.passed
        assert "faithfulness_defect" in report.failures

    def test_wide_dense_rep_fails_faithfulness(self):
        # C^3 on C by evaluation at point 0: a unital *-homomorphism whose
        # kernel is the other two points, so the image of their units is 0.
        rep = dense_representation(FiniteCStarAlgebra((1, 1, 1)), [[[1]], [[0]], [[0]]])
        t = FiniteSpectralTriple(rep, np.zeros((1, 1)))
        report = validate_triple(t)
        assert report.entries["faithfulness_margin"] == 0.0
        assert report.failures == ("faithfulness_defect",)

    def test_dense_rep_residuals_exact(self):
        # Corrupting one basis matrix of the M_2 representation breaks
        # multiplicativity; the residual equals the brute-force maximum over
        # all basis pairs.
        t = m2_system().triples[1]
        tensor = triple_module.operators(t.rep, np.eye(t.algebra.element_dim))
        tensor[1, 0, 3] += 0.25
        bad = FiniteSpectralTriple(dense_representation(t.algebra, tensor), t.dirac)
        report = validate_triple(bad)
        basis = list(t.algebra.basis())
        oracle = max(
            operator_norm(bad.represent(a * c) - bad.represent(a) @ bad.represent(c))
            for a in basis
            for c in basis
        )
        assert oracle > 0.1
        assert report.entries["multiplicativity"] == pytest.approx(oracle, rel=1e-12)
        assert "multiplicativity" in report.failures
        assert validate_triple(t).worst <= 1e-12

    def test_diagonal_validation_allocates_only_dirac_temporaries(self):
        # A diagonal representation is a spectrum map: no image matrix of
        # the 1024 coordinates is built, only the n x n Dirac residual.
        n = 1024
        t = FiniteSpectralTriple(
            diagonal_representation(FiniteCStarAlgebra((1,) * n), np.arange(n)[::-1]), np.zeros((n, n))
        )
        tracemalloc.start()
        try:
            report = validate_triple(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.dirac.nbytes + 2**20
        assert list(report.entries) == [
            "unitality",
            "multiplicativity",
            "star_preservation",
            "dirac_hermiticity",
            "faithfulness_margin",
            "faithfulness_defect",
        ]
        assert report.passed and report.worst == 0.0

    @pytest.mark.parametrize("blocks", [(1, 1), (2, 1)])
    def test_explicit_representation_needs_one_block(self, blocks):
        target = FiniteCStarAlgebra(blocks)
        n = sum(blocks)
        rep = StarHomomorphism(FiniteCStarAlgebra((1,)), target, matrix=target.unit().coordinates[:, None])
        with pytest.raises(ValidationError, match="one block M_N"):
            FiniteSpectralTriple(rep, np.zeros((n, n)))

    def test_operators_match_reference(self):
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        diagonal = diagonal_representation(FiniteCStarAlgebra((1,) * 4), [2, 0, 3, 3, 1])
        want = np.zeros((3, 5, 5), dtype=complex)
        want[:, np.arange(5), np.arange(5)] = coords[:, [2, 0, 3, 3, 1]]
        assert np.array_equal(triple_module.operators(diagonal, coords), want)
        tensor = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        dense = dense_representation(FiniteCStarAlgebra((2,)), tensor)
        got = triple_module.operators(dense, coords)
        assert np.array_equal(got, (coords @ tensor.reshape(4, 9)).reshape(3, 3, 3))
        one = triple_module.operators(dense, coords[0])
        assert np.array_equal(one, (coords[0] @ tensor.reshape(4, 9)).reshape(3, 3))

    @pytest.mark.parametrize("coord_points", [[0.7, 1.9], [True, False], ["1", "0"]])
    def test_non_integral_coord_points_rejected(self, coord_points):
        # These used to be truncated to [0, 1], [1, 0] and [1, 0].
        with pytest.raises(ValidationError, match="integer dtype"):
            diagonal_representation(FiniteCStarAlgebra((1, 1)), coord_points)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValidationError):
            FiniteSpectralTriple(
                diagonal_representation(FiniteCStarAlgebra((1,)), np.array([0, 0])),
                np.zeros((3, 3)),
            )


class TestValidateMorphism:
    def test_identity_residuals_zero(self):
        report = validate_morphism(chain(CANTOR, 2, 2))
        assert report.passed
        assert report.worst == 0.0

    def test_cantor_links(self):
        for link in CANTOR.links:
            report = validate_morphism(link)
            assert report.passed
            assert report.worst <= 1e-12

    def test_ci_links(self):
        chain = AfChain(
            (FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((2,))),
            (
                StarHomomorphism(
                    FiniteCStarAlgebra((1,)),
                    FiniteCStarAlgebra((2,)),
                    matrix=np.array([[1], [0], [0], [1]], dtype=complex),
                ),
            ),
            State.uniform(FiniteCStarAlgebra((2,))),
            (5.0,),
        )
        system = ci_system(chain, 1)
        report = validate_morphism(system.links[0])
        assert report.passed
        assert report.worst <= 1e-12

    def test_moved_spectrum_point_caught(self):
        # Binary CI system, J=8, alpha_j = j.  Link 7 sends target point 2
        # to source point 1; moving it over source point 2 leaves phi a
        # valid surjective pullback, so only the intertwining identity
        # catches it, with exact residual |I[2, 1]| = 1/sqrt(2) at points 1
        # and 2.  A sampled check over the 128 source points can miss both.
        alphas = [float(j) for j in range(1, 9)]
        system = ci_system(commutative_af_chain(binary_branching(8), np.full(256, 1 / 256), alphas), 8)
        link = system.links[7]
        assert link.phi.spectrum_map[2] == 1
        moved = link.phi.spectrum_map.copy()
        moved[2] = 2
        phi = StarHomomorphism(link.phi.source, link.phi.target, spectrum_map=moved)
        report = validate_morphism(TripleMorphism(link.source, link.target, phi, link.iso))
        assert not report.passed
        assert report.failures == ("algebra_intertwining",)
        assert report.entries["algebra_intertwining"] >= 0.7071 - 1e-12
        assert report.entries["algebra_intertwining"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert validate_morphism(link).passed

    def test_explicit_phi_between_diagonal_reps_is_hadamard(self):
        # Binary CI J=9, top link (256 -> 512 points) with phi as an
        # explicit 512 x 256 matrix: I - E(I) is a Hadamard product, so no
        # per-element operator is formed.  The basis-stacked route took
        # about 8 s and a 24 MiB peak here.
        alphas = [float(j) for j in range(1, 10)]
        system = ci_system(commutative_af_chain(binary_branching(9), np.full(512, 1 / 512), alphas), 9)
        link = system.links[-1]
        phi = StarHomomorphism(link.phi.source, link.phi.target, matrix=link.phi.as_matrix())
        explicit = TripleMorphism(link.source, link.target, phi, link.iso)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = validate_morphism(explicit)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak <= 16 * 2**20
        assert report.entries == validate_morphism(link).entries
        assert report.entries["algebra_intertwining"] == 0.0
        iso = link.iso.copy()
        iso[0, 200] = 0.25
        planted = [validate_morphism(TripleMorphism(link.source, link.target, f, iso)) for f in (link.phi, phi)]
        assert "algebra_intertwining" in planted[1].failures
        assert planted[1].failures == planted[0].failures
        assert planted[1].entries["algebra_intertwining"] == pytest.approx(0.25, rel=1e-15)
        assert planted[1].entries == pytest.approx(planted[0].entries, rel=1e-15)

    @pytest.mark.parametrize("corrupt", ["diagonal", "dense"])
    def test_intertwining_matches_oracle(self, corrupt):
        rng = np.random.default_rng(17)
        if corrupt == "diagonal":
            link = random_commutative_system(np.random.default_rng(3), max_dim=16).links[-1]
        else:
            link = m2_system().links[0]
        assert intertwining_oracle(link) <= 1e-12
        for _ in range(5):
            iso = link.iso.astype(complex)
            r, c = rng.integers(0, iso.shape[0]), rng.integers(0, iso.shape[1])
            iso[r, c] += 0.3 + 0.1j
            bad = TripleMorphism(link.source, link.target, link.phi, iso)
            got = validate_morphism(bad).entries["algebra_intertwining"]
            assert got == pytest.approx(intertwining_oracle(bad), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("target", ["diagonal", "dense", "gns"])
    def test_mixed_encodings_match_reference(self, target):
        # An explicit phi between diagonal representations, a diagonal
        # source linked to a dense target, and the links of GNS chains
        # (sources up to M_4, targets up to M_8 and M_2 + M_2).  The residual
        # is the reference twirl; it is at least half the maximum over the
        # basis and, for a commutative source of d points, at most sqrt(d)
        # times it.
        rng = np.random.default_rng(5)
        if target == "gns":
            links = (
                ci_system(tensor_chain(3, np.random.default_rng(11)), 3).links
                + ci_system(doubled_chain(np.random.default_rng(6))[0], 2).links
                + m2_system().links
            )
        else:
            systems = [random_commutative_system(np.random.default_rng(seed), max_dim=16) for seed in (8, 11, 13)]
            links = [link for system in systems for link in system.links]
        for link in links:
            tgt, phi = link.target, link.phi
            if target == "dense":
                fibres = [np.diag((tgt.rep.spectrum_map == i).astype(complex)) for i in range(tgt.algebra.n_points)]
                tgt = FiniteSpectralTriple(dense_representation(tgt.algebra, fibres), tgt.dirac)
            elif target == "diagonal":
                phi = StarHomomorphism(link.phi.source, link.phi.target, matrix=link.phi.as_matrix())
            iso = link.iso + 0.2 * rng.normal(size=link.iso.shape) * (rng.random(link.iso.shape) < 0.3)
            m = TripleMorphism(link.source, tgt, phi, iso)
            got = validate_morphism(m).entries["algebra_intertwining"]
            assert got == pytest.approx(reference_twirl(m), rel=1e-12, abs=1e-14)
            reference = reference_intertwining(m)
            assert reference <= 2 * got * (1 + 1e-12) + 1e-14
            if link.source.algebra.is_commutative:
                assert got <= np.sqrt(link.source.algebra.element_dim) * reference * (1 + 1e-12) + 1e-14
            exact = TripleMorphism(link.source, tgt, phi, link.iso)
            assert validate_morphism(exact).entries["algebra_intertwining"] <= 1e-12

    def test_corrupted_isometry_fails(self):
        link = CANTOR.links[1]
        bad_iso = link.iso.copy()
        bad_iso[0, 0] = 0.5
        from spectral_limits import TripleMorphism

        bad = TripleMorphism(link.source, link.target, link.phi, bad_iso)
        report = validate_morphism(bad)
        assert not report.passed
        assert "isometry" in report.failures


class TestComposeMorphisms:
    def test_chain_matches_direct(self):
        # Composing levels 0 -> 1 -> 2 must equal the direct composition
        # computed independently from the theta maps.
        composed = chain(CANTOR, 0, 2)
        direct_map = np.array(
            [
                SEQ.plus_points(0).index(theta(SEQ, 0, x))
                for x in SEQ.plus_points(2)
            ]
        )
        assert np.array_equal(composed.phi.spectrum_map, direct_map)
        oracle_iso = np.zeros((6, 2))
        oracle_iso[:2, :] = np.eye(2)
        assert np.allclose(composed.iso, oracle_iso, atol=1e-14)
        assert validate_morphism(composed).passed

    def test_composition_of_valid_morphisms_validates(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            system = random_commutative_system(rng, max_dim=32)
            if system.top_level < 2:
                continue
            composed = chain(system, 0, 2)
            report = validate_morphism(composed)
            assert report.passed, report.summary()


class TestCommutatorNorm:
    def test_unit_commutes(self):
        t = CANTOR.triples[3]
        assert commutator_norm(t, t.algebra.unit()) == pytest.approx(0.0, abs=1e-14)

    def test_cantor_indicator_closed_form(self):
        # Closed form: max_n |f(theta_j(x_{n,+})) - f(theta_j(x_{n,-}))| / l_n.
        t = CANTOR.triples[1]
        f = t.algebra.from_point_values([1.0, 0.0])  # indicator of the left piece
        lengths = SEQ.lengths
        oracle = 0.0
        for n in range(2):
            fp = f.point_values[SEQ.plus_points(1).index(theta(SEQ, 1, SEQ.plus_point(n)))].real
            fm = f.point_values[SEQ.plus_points(1).index(theta(SEQ, 1, SEQ.minus_point(n)))].real
            oracle = max(oracle, abs(fp - fm) / lengths[n])
        assert oracle == pytest.approx(3.0)
        assert commutator_norm(t, f) == pytest.approx(oracle, abs=1e-12)

    def test_diagonal_matches_dense_copy_without_materializing(self, monkeypatch):
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(8):
            for t in random_commutative_system(rng, max_dim=32).triples:
                assert t.rep.spectrum_map is not None
                basis = np.eye(t.algebra.element_dim)
                dense = FiniteSpectralTriple(
                    dense_representation(t.algebra, triple_module.operators(t.rep, basis)), t.dirac
                )
                n = t.algebra.n_points
                a = t.algebra.from_point_values(rng.normal(size=n) + 1j * rng.normal(size=n))
                cases.append((t, dense, a, commutator_norm(dense, a)))

        def materialized(rep, coords):
            raise AssertionError("commutator_norm materialized a diagonal pi(a)")

        monkeypatch.setattr(triple_module, "operators", materialized)
        for t, dense, a, want in cases:
            assert abs(commutator_norm(t, a) - want) <= 1e-12 * max(1.0, want)

    def test_ci_commutator_stable_across_levels(self):
        from spectral_limits import binary_branching, commutative_af_chain

        chain = commutative_af_chain(binary_branching(4), np.full(16, 1 / 16), [1.0, 2.0, 3.0, 4.0])
        system = ci_system(chain, 4)
        a = system.triples[2].algebra.basis_element(1)
        base = commutator_norm(system.triples[2], a)
        img = a
        for k in range(2, 4):
            img = system.links[k].phi.apply(img)
            assert commutator_norm(system.triples[k + 1], img) == pytest.approx(base, abs=1e-10)

    def test_pullback_contracts(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            system = random_commutative_system(rng, max_dim=32)
            j = 0
            m = chain(system, j, system.top_level)
            for i in range(system.triples[j].algebra.element_dim):
                a = system.triples[j].algebra.basis_element(i)
                low = commutator_norm(system.triples[j], a)
                high = commutator_norm(system.triples[system.top_level], m.phi.apply(a))
                assert low <= high + 1e-9


def ci_config(alphas, sizes=None):
    """Christensen-Ivan config; a point chain of the given sizes, else binary."""
    chain = "binary"
    if sizes is not None:
        # Point k of level i+1 lies over point k * size_i // size_{i+1} of level i.
        chain = {"branching": [[k * a // b for k in range(b)] for a, b in zip(sizes, sizes[1:])]}
    return {"type": "christensen-ivan", "chain": chain, "weights": "uniform", "alphas": alphas, "levels": len(alphas)}


def probe_entries(system, levels):
    """(triple, element) behind every entry of the default ST2 probe over ``levels``."""
    for j in levels:
        algebra = system.triples[j].algebra
        for i in range(algebra.element_dim):
            a = algebra.basis_element(i)
            for k in range(j, system.top_level + 1):
                yield system.triples[k], a
                if k < system.top_level:
                    a = system.links[k].phi.apply(a)


def dense_oracle(t, a):
    """||[D, pi(a)]|| from the materialized commutator."""
    return operator_norm(commutator(t.dirac, t.represent(a)))


def diagonal_triple(dirac, coord_points):
    n_points = max(coord_points) + 1
    return FiniteSpectralTriple(
        diagonal_representation(FiniteCStarAlgebra((1,) * n_points), coord_points), dirac
    )


def random_hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return x + x.conj().T


@pytest.fixture
def norm_shapes(monkeypatch):
    """Shapes of the matrices ``commutator_norm`` hands to ``operator_norm``."""
    shapes = []

    def recording(m):
        shapes.append(np.shape(m))
        return operator_norm(m)

    monkeypatch.setattr(triple_module, "operator_norm", recording)
    return shapes


@pytest.fixture
def gram_shapes(monkeypatch):
    """Shapes of the Gram stacks the cut route hands to ``eigvalsh``."""
    shapes = []
    side_grams = triple_module._side_grams

    def recording(*args):
        grams = side_grams(*args)
        shapes.append(grams.shape)
        return grams

    monkeypatch.setattr(triple_module, "_side_grams", recording)
    return shapes


class TestCutBlockNorm:
    """Two-valued diagonal elements take the cut block D[S, S^c]; the dense commutator is the oracle."""

    @pytest.mark.parametrize(
        "config, levels",
        [
            ({"type": "cantor", "gaps": "middle-thirds", "levels": 18}, range(18)),
            # The benchmark probes this system with --levels 0..1.
            (ci_config([float(j) for j in range(1, 9)]), range(2)),
            (ci_config([float((-1) ** j) for j in range(1, 8)], [1, 2, 3, 6, 12, 24, 48, 96]), range(7)),
            (ci_config([float(j) for j in range(1, 7)]), range(6)),
        ],
        ids=["cantor-18", "binary-ci-8", "point-chain-ci-7", "binary-ci-6"],
    )
    def test_default_probe_matches_dense(self, config, levels):
        system = system_from_generator_config(config)
        for t, a in probe_entries(system, levels):
            want = dense_oracle(t, a)
            assert abs(commutator_norm(t, a) - want) <= 1e-13 * want

    def test_constant_is_exactly_zero(self, norm_shapes):
        t = diagonal_triple(random_hermitian(np.random.default_rng(1), 5), [0, 1, 2, 1, 0])
        value = commutator_norm(t, t.algebra.from_point_values([2.0 - 1.5j] * 3))
        assert value == 0.0 and type(value) is float
        assert norm_shapes == []

    def test_complex_two_values(self, norm_shapes, gram_shapes):
        rng = np.random.default_rng(2)
        d = random_hermitian(rng, 7)
        t = diagonal_triple(d, [0, 1, 1, 0, 2, 1, 2])
        c, delta = 1.0 + 2.0j, -1.5 + 1.0j
        a = t.algebra.from_point_values([c, c + delta, c])
        cut = np.array([False, True, True, False, False, True, False])
        closed_form = abs(delta) * operator_norm(d[np.ix_(cut, ~cut)])
        want = dense_oracle(t, a)
        assert abs(closed_form - want) <= 1e-13 * want
        assert abs(commutator_norm(t, a) - want) <= 1e-13 * want
        # The 3 x 4 cut block, on its short side: no dense commutator.
        assert norm_shapes == [] and gram_shapes == [(1, 3, 3)]

    def test_zero_rows_and_columns_of_the_cut_block(self, norm_shapes, gram_shapes):
        # Point 0 on coordinates 0..2, point 1 (the cut S) on 3..6; only 4 and 6
        # couple to 1 and 2, so B = D[S, S^c] is 4 x 3 with two zero rows and
        # one zero column, which leave its norm unchanged.
        d = np.diag(np.arange(7.0)).astype(complex)
        for i, j, v in ((1, 4, 2.0 - 1.0j), (2, 4, 0.5j), (2, 6, -3.0), (0, 2, 1.0), (4, 5, 7.0)):
            d[i, j], d[j, i] = v, np.conj(v)
        t = diagonal_triple(d, [0, 0, 0, 1, 1, 1, 1])
        a = t.algebra.from_point_values([0.25, -2.0])
        want = dense_oracle(t, a)
        assert abs(commutator_norm(t, a) - want) <= 1e-13 * want
        assert norm_shapes == [] and gram_shapes == [(1, 3, 3)]

    def test_cut_with_no_coupling_is_zero(self, norm_shapes):
        t = diagonal_triple(np.diag([1.0, 2.0, 3.0]).astype(complex), [0, 1, 1])
        assert commutator_norm(t, t.algebra.from_point_values([1.0, 5.0])) == 0.0
        assert norm_shapes == []

    def test_three_values_take_the_dense_kernel(self, norm_shapes):
        t = diagonal_triple(random_hermitian(np.random.default_rng(3), 6), [0, 1, 2, 0, 1, 2])
        a = t.algebra.from_point_values([0.0, 1.0, 2.0 + 1.0j])
        want = dense_oracle(t, a)
        assert abs(commutator_norm(t, a) - want) <= 1e-13 * want
        assert norm_shapes[-1] == (6, 6)

    def test_inexactly_hermitian_dirac_takes_the_dense_kernel(self, norm_shapes):
        d = random_hermitian(np.random.default_rng(4), 5)
        d[0, 3] += 1e-3
        t = diagonal_triple(d, [0, 1, 1, 0, 1])
        assert not t.dirac_is_hermitian
        a = t.algebra.from_point_values([0.0, 1.0])
        want = dense_oracle(t, a)
        assert abs(commutator_norm(t, a) - want) <= 1e-13 * want
        assert norm_shapes[-1] == (5, 5)

    @pytest.mark.parametrize("values", [[0.0, 1.7e308], [-1.7e308, 1.7e308], [1.7e308, 0.0, -1.7e308]])
    def test_norm_beyond_float_range_raises(self, values):
        d = np.full((3, 3), 4.0, dtype=complex)
        t = diagonal_triple(d, list(range(len(values))) + [0] * (3 - len(values)))
        with pytest.raises(ValidationError, match="float range"):
            commutator_norm(t, t.algebra.from_point_values(values))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        values=st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
        data=st.data(),
    )
    def test_random_hermitian_two_values(self, n, seed, values, data):
        d = random_hermitian(np.random.default_rng(seed), n)
        t = diagonal_triple(d, data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        a = t.algebra.from_point_values(values[: t.algebra.n_points])
        want = dense_oracle(t, a)
        # The oracle's entries D_ij f_j - f_i D_ij cancel when f_i ~ f_j.
        slack = 4 * np.finfo(float).eps * max(map(abs, values)) * np.linalg.norm(d)
        assert abs(commutator_norm(t, a) - want) <= 1e-13 * want + slack


    @pytest.mark.parametrize("complex_dirac", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("seed", range(6))
    def test_every_fibre_of_a_partition(self, monkeypatch, complex_dirac, seed):
        # Chunks of 64 row and Gram entries split the size groups across chunks.
        monkeypatch.setattr(algebra_module, "CHUNK_ENTRIES", 64)
        rng = np.random.default_rng(seed)
        n, count = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        d = random_hermitian(rng, n)
        d = d if complex_dirac else d.real
        # Labels of count or more lie outside every measured fibre.
        labels = rng.integers(0, count + 2, size=n)
        labels[: n // 2] = rng.integers(0, 2)  # often one fibre larger than half
        partitions = [(labels, count), (np.zeros(n, dtype=np.intp), 1), (np.arange(n), n)]
        for (lab, c), norms in zip(partitions, triple_module._cut_norms(d, partitions)):
            assert norms.shape == (c,)
            for i in range(c):
                s = lab == i
                if s.all() or not s.any():
                    assert norms[i] == 0.0
                else:
                    want = operator_norm(d[np.ix_(s, ~s)])
                    assert abs(norms[i] - want) <= 1e-13 * want

    def test_float_range_raises_in_every_fibre_pass(self):
        d = np.full((4, 4), 1e308)
        with pytest.raises(ValidationError, match=re.escape("||[D, pi(a)]|| exceeds the float range")):
            triple_module._cut_norms(d, [(np.array([0, 0, 1, 1]), 2)])
        # A lone coordinate's row norm, 2e308, overflows too.
        with pytest.raises(ValidationError, match="float range"):
            triple_module._cut_norms(np.full((5, 5), 1e308), [(np.array([0, 1, 1, 1, 1]), 1)])


class TestGrading:
    def test_identity_grading_zero_dirac(self):
        t = FiniteSpectralTriple(
            diagonal_representation(FiniteCStarAlgebra((1,)), np.array([0])),
            np.zeros((1, 1)),
            grading=np.eye(1),
        )
        report = validate_triple(t)
        assert report.passed
        assert report.entries["grading_selfadjoint"] == 0.0
        assert report.entries["grading_involution"] == 0.0

    def test_cantor_swap_grading_level1(self):
        report = validate_triple(cantor_system(SEQ, 1).triples[1])
        assert report.passed
        assert report.entries["grading_selfadjoint"] == 0.0
        assert report.entries["grading_involution"] == 0.0

    def test_generated_cantor_gradings_exact(self):
        system = cantor_system(middle_thirds(18), 18)
        for t in system.triples:
            report = validate_triple(t)
            assert report.entries["grading_selfadjoint"] == 0.0
            assert report.entries["grading_involution"] == 0.0

    def test_missing_grading(self):
        report = validate_triple(cantor_system(SEQ, 1, with_grading=False).triples[1])
        assert report.passed
        assert not any(name.startswith("grading") for name in report.entries)

    @pytest.mark.parametrize(
        "grading, failing",
        [
            (np.array([[0.0, 2.0], [0.5, 0.0]]), ("grading_selfadjoint",)),
            (np.diag([1.0, 0.5]), ("grading_involution",)),
            (np.diag([1.0, -1.0 - 1e-9]), ("grading_involution",)),
        ],
        ids=["not-selfadjoint", "not-involution", "near-involution"],
    )
    def test_bad_grading_fails(self, grading, failing):
        t = FiniteSpectralTriple(
            diagonal_representation(FiniteCStarAlgebra((1,)), np.array([0, 0])),
            np.array([[0.0, 3.0], [3.0, 0.0]]),
            grading=grading,
        )
        report = validate_triple(t)
        assert report.failures == failing
        assert "FAIL(" + ",".join(failing) + ")" in report.summary()

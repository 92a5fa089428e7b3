"""Inductive systems, embeddings, realizations and resolvent identities."""

import numpy as np
import pytest

from spectral_limits import (
    DiagonalRepresentation,
    FiniteCStarAlgebra,
    FiniteSpectralTriple,
    InductiveSystem,
    StarHomomorphism,
    TripleMorphism,
    ValidationError,
    binary_branching,
    cantor_system,
    ci_system,
    commutative_af_chain,
    commutator,
    embed,
    middle_thirds,
    operator_norm,
    random_commutative_system,
    realize,
    resolvent,
    system_validate,
)
from spectral_limits.linalg import dagger

SEQ = middle_thirds(6)
CANTOR5 = cantor_system(SEQ, 5)
CI3 = ci_system(
    commutative_af_chain(binary_branching(3), np.full(8, 1 / 8), [1.0, 2.0, 3.0]), 3
)

LAMBDAS = (1j, 2j, 1 + 1j)


class TestSystemValidate:
    def test_cantor_passes(self):
        report = system_validate(CANTOR5)
        assert report.passed
        assert report.worst <= 1e-12

    def test_ci_passes(self):
        report = system_validate(CI3)
        assert report.passed
        assert report.worst <= 1e-12

    def test_corrupted_link_names_index(self):
        bad_iso = CANTOR5.links[2].iso.copy()
        bad_iso[0, 0] = 0.0
        links = list(CANTOR5.links)
        links[2] = TripleMorphism(
            links[2].source, links[2].target, links[2].phi, bad_iso
        )
        bad = InductiveSystem(CANTOR5.triples, tuple(links), CANTOR5.provenance)
        report = system_validate(bad)
        assert not report.passed
        assert report.failing_link == 2
        assert "link 2" in report.summary()

    def test_link_count_mismatch(self):
        with pytest.raises(ValidationError):
            InductiveSystem(CANTOR5.triples, CANTOR5.links[:-2])


class TestEmbed:
    def test_identity_at_equal_levels(self):
        m = embed(CANTOR5, 2, 2)
        assert np.allclose(m.iso, np.eye(6))
        assert np.array_equal(m.phi.spectrum_map, np.arange(3))

    def test_chaining_definition(self):
        direct = embed(CANTOR5, 0, 2)
        split = embed(CANTOR5, 1, 2)
        first = embed(CANTOR5, 0, 1)
        assert np.allclose(direct.iso, split.iso @ first.iso)
        assert np.array_equal(
            direct.phi.spectrum_map, first.phi.spectrum_map[split.phi.spectrum_map]
        )

    def test_cantor_embedding_is_coordinate_inclusion(self):
        m = embed(CANTOR5, 0, 3)
        oracle = np.zeros((8, 2))
        oracle[:2, :] = np.eye(2)
        assert np.allclose(m.iso, oracle)

    def test_invalid_range(self):
        with pytest.raises(ValidationError):
            embed(CANTOR5, 3, 1)
        with pytest.raises(ValidationError):
            embed(CANTOR5, 0, 9)


class TestRealize:
    def test_level_zero(self):
        r = realize(CANTOR5, 0)
        assert r.ambient is CANTOR5.triples[0]
        assert np.allclose(r.projection(0), np.eye(2))

    def test_cantor_projection_ranks(self):
        r = realize(cantor_system(SEQ, 3), 3)
        assert r.ambient.hilbert_dim == 8
        assert np.trace(r.projection(1)).real == pytest.approx(4.0, abs=1e-12)

    def test_ci_projection_ranks(self):
        r = realize(CI3)
        ranks = [np.trace(r.projection(j)).real for j in range(4)]
        assert np.allclose(ranks, [1, 2, 4, 8], atol=1e-12)

    def test_invalid_level(self):
        with pytest.raises(ValidationError):
            realize(CANTOR5, 9)


def _complex_pair_system() -> InductiveSystem:
    """C on C^1 in C on C^4 along a complex unit vector u, D_0 = 0 and D_1 =
    Q B Q for a complex Hermitian B and the projection Q onto {u, v}^perp.

    D_1's kernel is span{u, v}, in which eigh picks its own basis, so the
    rotation W_0 = U* u has complex entries.
    """
    u = np.array([[1.0], [1j], [-1.0], [0.0]]) / np.sqrt(3.0)
    v = np.array([[1.0], [0.0], [1.0], [1j]]) / np.sqrt(3.0)
    b = np.array(
        [[2.0, 1 - 1j, 0.5j, 0.0], [1 + 1j, -1.0, 2.0, 1j], [-0.5j, 2.0, 3.0, 1.0], [0.0, -1j, 1.0, 1.0]]
    )
    q = np.eye(4) - u @ dagger(u) - v @ dagger(v)
    algebra = FiniteCStarAlgebra((1,))
    t0 = FiniteSpectralTriple(algebra, DiagonalRepresentation(np.zeros(1, dtype=int), 1), np.zeros((1, 1)))
    t1 = FiniteSpectralTriple(algebra, DiagonalRepresentation(np.zeros(4, dtype=int), 1), q @ b @ q)
    return InductiveSystem((t0, t1), (TripleMorphism(t0, t1, StarHomomorphism.identity(algebra), u),))


class TestRotation:
    @pytest.mark.parametrize("system", [CANTOR5, CI3, _complex_pair_system()], ids=["cantor", "ci", "complex"])
    def test_rotation_rebuilds_embedding(self, system):
        r = realize(system)
        u = r.ambient_decomposition().vectors
        for j in range(r.level + 1):
            w = r.rotation(j)
            v = r.level_decomposition(j).vectors
            assert operator_norm(u @ w @ dagger(v) - r.embedding(j)) <= 1e-13
            assert operator_norm(dagger(w) @ w - np.eye(w.shape[1])) <= 1e-13
        assert np.array_equal(r.rotation(r.level), np.eye(r.ambient.hilbert_dim))

    @pytest.mark.parametrize("system", [CANTOR5, CI3, _complex_pair_system()], ids=["cantor", "ci", "complex"])
    def test_containment_defect_matches_ambient_formula(self, system):
        # ||(1 - P_j) U_c|| in the ambient basis, over singleton clusters and the whole spectrum.
        r = realize(system)
        u = r.ambient_decomposition().vectors
        n = u.shape[0]
        for j in range(r.level + 1):
            p = r.projection(j)
            for cluster in [(i,) for i in range(n)] + [tuple(range(n))]:
                vecs = u[:, list(cluster)]
                want = operator_norm(vecs - p @ vecs)
                assert abs(r.containment_defect(j, cluster) - want) <= 1e-13


class TestResolventIdentities:
    @pytest.mark.parametrize("system", [CANTOR5, CI3], ids=["cantor", "ci"])
    def test_strong_resolvent_identity(self, system):
        # I_{j,J} R_lam(D_j) I_{j,J}* = P_j R_lam(D_J) P_j at every level.
        r = realize(system)
        d_top = r.ambient.dirac
        for lam in LAMBDAS:
            r_top = resolvent(d_top, lam)
            for j in range(r.level + 1):
                iso = r.embedding(j)
                p = r.projection(j)
                inner = resolvent(system.triples[j].dirac, lam)
                lhs = iso @ inner @ dagger(iso)
                rhs = p @ r_top @ p
                assert operator_norm(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("system", [CANTOR5, CI3], ids=["cantor", "ci"])
    def test_padded_resolvent_corrected_sign(self, system):
        # R_lam(I D_j I*) = I R_lam(D_j) I* - lam^(-1) P_j^perp; the padded
        # operator vanishes on the orthocomplement, where the resolvent is
        # (0 - lam)^(-1) = -1/lam.
        r = realize(system)
        n = r.ambient.hilbert_dim
        for lam in LAMBDAS:
            for j in range(r.level + 1):
                iso = r.embedding(j)
                padded = np.linalg.inv(
                    iso @ system.triples[j].dirac @ dagger(iso) - lam * np.eye(n)
                )
                inner = iso @ resolvent(system.triples[j].dirac, lam) @ dagger(iso)
                perp = np.eye(n) - r.projection(j)
                assert operator_norm(padded - inner + perp / lam) <= 1e-10

    def test_padded_resolvent_plus_lambda_form_is_wrong(self):
        # The additive form with +lam P^perp fails whenever P_j != 1 and
        # lam^2 != -1 (at lam = +-i it coincides with the corrected form
        # because -1/lam = lam there, which is how the sign typo hides).
        r = realize(CANTOR5)
        lam = 2j
        j = 1
        n = r.ambient.hilbert_dim
        iso = r.embedding(j)
        padded = np.linalg.inv(
            iso @ CANTOR5.triples[j].dirac @ dagger(iso) - lam * np.eye(n)
        )
        inner = iso @ resolvent(CANTOR5.triples[j].dirac, lam) @ dagger(iso)
        perp = np.eye(n) - r.projection(j)
        assert operator_norm(padded - inner - lam * perp) > 0.5

    @pytest.mark.parametrize("system", [CANTOR5, CI3], ids=["cantor", "ci"])
    def test_projection_commutes_with_commutator(self, system):
        # For selfadjoint a in A_j and k >= j, P_k commutes with the ambient
        # commutator [D_J, pi_J(phi_{j,J}(a))].
        r = realize(system)
        top = system.triples[r.level]
        for j in range(r.level):
            algebra = system.triples[j].algebra
            m = embed(system, j, r.level)
            for i in range(algebra.element_dim):
                a = algebra.basis_element(i)
                a = 0.5 * (a + a.star())  # selfadjoint part
                comm = commutator(top.dirac, top.represent(m.phi.apply(a)))
                for k in range(j, r.level + 1):
                    assert operator_norm(commutator(r.projection(k), comm)) <= 1e-9


def test_random_systems_validate():
    rng = np.random.default_rng(77)
    for _ in range(10):
        system = random_commutative_system(rng, max_dim=48)
        report = system_validate(system)
        assert report.passed, report.summary()
        assert report.worst <= 1e-11

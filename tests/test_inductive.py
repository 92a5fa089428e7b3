"""Inductive systems, embeddings, realizations and resolvent identities."""

import re
import tracemalloc

import numpy as np
import pytest

from spectral_limits import (
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
    diagonal_representation,
    hom_compose,
    load_system,
    middle_thirds,
    operator_norm,
    random_commutative_system,
    realize,
    resolvent,
    resolvent_gap_eigen,
    save_system,
    system_from_generator_config,
    system_validate,
)
from spectral_limits.linalg import dagger

SEQ = middle_thirds(6)
CANTOR5 = cantor_system(SEQ, 5)
CI3 = ci_system(
    commutative_af_chain(binary_branching(3), np.full(8, 1 / 8), [1.0, 2.0, 3.0]), 3
)

LAMBDAS = (1j, 2j, 1 + 1j)


def chain(system, j, k):
    """The composed morphism T_j -> T_k: (phi_{j,k}, I_{j,k}) from links j..k-1."""
    t = system.triples[j]
    phi, iso = StarHomomorphism.identity(t.algebra), np.eye(t.hilbert_dim, dtype=complex)
    for link in system.links[j:k]:
        phi, iso = hom_compose(link.phi, phi), link.iso @ iso
    return TripleMorphism(t, system.triples[k], phi, iso)


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

    def test_links_must_touch_the_chain_triples(self):
        # Triple 1 replaced by a copy with Dirac operator 5 D_1: the old links
        # still end at the old triple 1, whose Dirac operator they
        # intertwine, so a check of each link against its own endpoints
        # passes although the chain's Dirac operators are not intertwined.
        system = cantor_system(middle_thirds(3), 3)
        t1 = system.triples[1]
        scaled = FiniteSpectralTriple(t1.rep, 5.0 * t1.dirac, grading=t1.grading, meta=t1.meta)
        triples = (system.triples[0], scaled) + system.triples[2:]
        with pytest.raises(ValidationError, match="link 0 does not connect triples 0 -> 1"):
            InductiveSystem(triples, system.links)
        links = (
            TripleMorphism(triples[0], scaled, system.links[0].phi, system.links[0].iso),
            TripleMorphism(scaled, triples[2], system.links[1].phi, system.links[1].iso),
            system.links[2],
        )
        report = system_validate(InductiveSystem(triples, links))
        assert report.failing_link == 0
        assert "dirac_intertwining" in report.link_reports[0].failures
        assert "dirac_intertwining" in report.link_reports[1].failures


class TestEmbed:
    def test_identity_at_equal_levels(self):
        m = chain(CANTOR5, 2, 2)
        assert np.allclose(m.iso, np.eye(6))
        assert np.array_equal(m.phi.spectrum_map, np.arange(3))

    def test_chaining_definition(self):
        direct = chain(CANTOR5, 0, 2)
        split = chain(CANTOR5, 1, 2)
        first = chain(CANTOR5, 0, 1)
        assert np.allclose(direct.iso, split.iso @ first.iso)
        assert np.array_equal(
            direct.phi.spectrum_map, first.phi.spectrum_map[split.phi.spectrum_map]
        )

    def test_cantor_embedding_is_coordinate_inclusion(self):
        m = chain(CANTOR5, 0, 3)
        oracle = np.zeros((8, 2))
        oracle[:2, :] = np.eye(2)
        assert np.allclose(m.iso, oracle)


class TestRealize:
    def test_level_zero(self):
        system = cantor_system(SEQ, 0)
        r = realize(system)
        assert r.ambient is system.triples[0]
        assert np.array_equal(r.rotation(0), np.eye(2))

    def test_cantor_projection_ranks(self):
        system = cantor_system(SEQ, 3)
        assert realize(system).ambient.hilbert_dim == 8
        iso = chain(system, 1, 3).iso
        assert np.trace(iso @ dagger(iso)).real == pytest.approx(4.0, abs=1e-12)

    def test_ci_projection_ranks(self):
        ranks = [np.linalg.norm(chain(CI3, j, 3).iso) ** 2 for j in range(4)]
        assert np.allclose(ranks, [1, 2, 4, 8], atol=1e-12)

    def test_level_outside_realization(self):
        top = realize(CANTOR5)
        with pytest.raises(ValidationError, match=r"level j must be an integer in \[0, 5\], got -1"):
            top.rotation(-1)
        mid = realize(cantor_system(middle_thirds(4), 2))
        with pytest.raises(ValidationError, match=r"level j must be an integer in \[0, 2\], got -1"):
            mid.rotation(-1)
        with pytest.raises(ValidationError, match=r"level j must be an integer in \[0, 2\], got 4"):
            mid.level_decomposition(4)

    def test_realize_keeps_no_embeddings(self):
        # Binary CI J=8 (dim 256): realizing forms no embedding I_{j,J}; the
        # identity I_{J,J} alone would take 1 MiB.
        system = ci_system(commutative_af_chain(binary_branching(8), np.full(256, 1 / 256), [1.0] * 8), 8)
        tracemalloc.start()
        try:
            realize(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


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
    t0 = FiniteSpectralTriple(diagonal_representation(algebra, np.zeros(1, dtype=int)), np.zeros((1, 1)))
    t1 = FiniteSpectralTriple(diagonal_representation(algebra, np.zeros(4, dtype=int)), q @ b @ q)
    return InductiveSystem((t0, t1), (TripleMorphism(t0, t1, StarHomomorphism.identity(algebra), u),))


def _random_complex_system(seed: int = 11, dims=(2, 3, 5, 6)) -> InductiveSystem:
    """C on C^{n_0} in C^{n_1} in ... along seeded random complex isometries L_j.

    D_0 is a random complex Hermitian matrix and D_{j+1} = L_j D_j L_j* +
    Q B Q, with B random complex Hermitian and Q = 1 - L_j L_j*, so every
    link intertwines the Dirac operators up to rounding.
    """
    rng = np.random.default_rng(seed)
    algebra = FiniteCStarAlgebra((1,))

    def hermitian(n):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return a + dagger(a)

    def triple(dirac):
        rep = diagonal_representation(algebra, np.zeros(dirac.shape[0], dtype=int))
        return FiniteSpectralTriple(rep, 0.5 * (dirac + dagger(dirac)))

    triples, links = [triple(hermitian(dims[0]))], []
    for n in dims[1:]:
        source = triples[-1]
        m = source.hilbert_dim
        iso = np.linalg.qr(rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))[0]
        q = np.eye(n) - iso @ dagger(iso)
        triples.append(triple(iso @ source.dirac @ dagger(iso) + q @ hermitian(n) @ q))
        links.append(TripleMorphism(source, triples[-1], StarHomomorphism.identity(algebra), iso))
    return InductiveSystem(tuple(triples), tuple(links))


SYSTEMS = [CANTOR5, CI3, _complex_pair_system(), _random_complex_system()]
SYSTEM_IDS = ["cantor", "ci", "complex", "random-complex"]


class TestRotation:
    @pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
    def test_rotation_rebuilds_embedding(self, system):
        r = realize(system)
        u = r.ambient_decomposition().vectors
        for j in range(r.level + 1):
            w = r.rotation(j)
            v = r.level_decomposition(j).vectors
            assert operator_norm(u @ w @ dagger(v) - chain(system, j, r.level).iso) <= 1e-13
            assert operator_norm(dagger(w) @ w - np.eye(w.shape[1])) <= 1e-13
        assert np.array_equal(r.rotation(r.level), np.eye(r.ambient.hilbert_dim))

    @pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
    def test_any_order_matches_chain(self, system):
        # The walk down the links goes on from the level it holds or starts
        # again from the top, so ascending, descending and shuffled requests
        # all give the same bytes, and each W_j matches U* I_{j,J} V_j.
        top = system.top_level
        orders = [range(top), range(top - 1, -1, -1), np.random.default_rng(7).permutation(top)]
        rotations = []
        for order in orders:
            r = realize(system)
            rotations.append({int(j): r.rotation(j) for j in order})
        u = r.ambient_decomposition().vectors
        for j in range(top):
            want = dagger(u) @ chain(system, j, top).iso @ r.level_decomposition(j).vectors
            for got in rotations:
                assert np.array_equal(got[j], rotations[0][j])
                assert operator_norm(got[j] - want) <= 1e-15 * operator_norm(want)


class TestIncrementSpectra:
    @pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
    def test_eigen_route_matches_dense_oracle(self, system):
        # ||R_lam(D_J)(1 - P_j)||, formed densely in ambient coordinates.
        r = realize(system)
        n = r.ambient.hilbert_dim
        for lam in LAMBDAS:
            outer = resolvent(r.ambient.dirac, lam)
            for j in range(r.level + 1):
                iso = chain(system, j, r.level).iso
                want = operator_norm(outer @ (np.eye(n) - iso @ dagger(iso)))
                assert abs(resolvent_gap_eigen(r, j, lam) - want) <= 1e-13

    @pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
    def test_increments_complete_the_ambient_spectrum(self, system):
        r = realize(system)
        parts = [r.level_decomposition(0).eigenvalues] + [r.increment_spectrum(k) for k in range(1, r.level + 1)]
        assert np.allclose(np.sort(np.concatenate(parts)), r.ambient_decomposition().eigenvalues, atol=1e-12)
        for k in (0, r.level + 1):
            with pytest.raises(ValidationError, match="increment level"):
                r.increment_spectrum(k)

    @pytest.mark.parametrize(
        "k, message",
        [
            (1.5, "increment level must lie in [1, 5], got 1.5"),
            ("1", "increment level must lie in [1, 5], got '1'"),
            (1.0, "level j must be an integer in [0, 5], got 1.0"),
            (True, "level j must be an integer in [0, 5], got True"),
        ],
        ids=["float", "str", "integral-float", "bool"],
    )
    def test_non_integer_increment_level_rejected(self, k, message):
        # 1.5 and "1" raised a raw TypeError, and True (1.0 once level 1 was
        # cached) ran as level 1.
        r = realize(CANTOR5)
        r.increment_spectrum(1)
        with pytest.raises(ValidationError, match=re.escape(message)):
            r.increment_spectrum(k)


class TestDtypeRule:
    """Exactly real systems are stored and decomposed in float64, complex ones in complex128."""

    @staticmethod
    def assert_dtype(system, dtype):
        assert system.triples[-1].dirac.dtype == dtype and system.links[-1].iso.dtype == dtype
        r = realize(system)
        for j in range(r.level + 1):
            # The complex pair system's D_0 = 0 is real; its rotation W_0 is not.
            assert r.level_decomposition(j).vectors.dtype == system.triples[j].dirac.dtype
            assert r.rotation(j).dtype == dtype

    def test_generated_systems_are_real(self):
        for system in (CANTOR5, CI3):
            for t in system.triples:
                assert t.dirac.dtype == np.float64
                assert t.grading is None or t.grading.dtype == np.float64
            assert all(link.iso.dtype == np.float64 for link in system.links)
            self.assert_dtype(system, np.float64)
        assert CANTOR5.triples[-1].grading.dtype == np.float64

    def test_ci_wide_file_reads_back_real(self, tmp_path):
        # The binary CI system at J=8 (dimension 256), through a system file.
        cfg = {"type": "christensen-ivan", "chain": "binary", "weights": "uniform", "alphas": list(range(1, 9)), "levels": 8}
        path = tmp_path / "ci_wide.json"
        save_system(system_from_generator_config(cfg), str(path))
        system = load_system(str(path))
        assert all(t.dirac.dtype == np.float64 for t in system.triples)
        assert all(link.iso.dtype == np.float64 for link in system.links)
        self.assert_dtype(system, np.float64)

    @pytest.mark.parametrize("system", SYSTEMS[2:], ids=SYSTEM_IDS[2:])
    def test_complex_systems_stay_complex(self, system):
        self.assert_dtype(system, np.complex128)


class TestResolventIdentities:
    @pytest.mark.parametrize("system", [CANTOR5, CI3], ids=["cantor", "ci"])
    def test_strong_resolvent_identity(self, system):
        # I_{j,J} R_lam(D_j) I_{j,J}* = P_j R_lam(D_J) P_j at every level.
        r = realize(system)
        d_top = r.ambient.dirac
        for lam in LAMBDAS:
            r_top = resolvent(d_top, lam)
            for j in range(r.level + 1):
                iso = chain(system, j, r.level).iso
                p = iso @ dagger(iso)
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
                iso = chain(system, j, r.level).iso
                padded = np.linalg.inv(
                    iso @ system.triples[j].dirac @ dagger(iso) - lam * np.eye(n)
                )
                inner = iso @ resolvent(system.triples[j].dirac, lam) @ dagger(iso)
                perp = np.eye(n) - iso @ dagger(iso)
                assert operator_norm(padded - inner + perp / lam) <= 1e-10

    def test_padded_resolvent_plus_lambda_form_is_wrong(self):
        # The additive form with +lam P^perp fails whenever P_j != 1 and
        # lam^2 != -1 (at lam = +-i it coincides with the corrected form
        # because -1/lam = lam there, which is how the sign typo hides).
        r = realize(CANTOR5)
        lam = 2j
        j = 1
        n = r.ambient.hilbert_dim
        iso = chain(CANTOR5, j, r.level).iso
        padded = np.linalg.inv(
            iso @ CANTOR5.triples[j].dirac @ dagger(iso) - lam * np.eye(n)
        )
        inner = iso @ resolvent(CANTOR5.triples[j].dirac, lam) @ dagger(iso)
        perp = np.eye(n) - iso @ dagger(iso)
        assert operator_norm(padded - inner - lam * perp) > 0.5

    @pytest.mark.parametrize("system", [CANTOR5, CI3], ids=["cantor", "ci"])
    def test_projection_commutes_with_commutator(self, system):
        # For selfadjoint a in A_j and k >= j, P_k commutes with the ambient
        # commutator [D_J, pi_J(phi_{j,J}(a))].
        r = realize(system)
        top = system.triples[r.level]
        for j in range(r.level):
            algebra = system.triples[j].algebra
            m = chain(system, j, r.level)
            for i in range(algebra.element_dim):
                a = algebra.basis_element(i)
                a = 0.5 * (a + a.star())  # selfadjoint part
                comm = commutator(top.dirac, top.represent(m.phi.apply(a)))
                for k in range(j, r.level + 1):
                    iso = chain(system, k, r.level).iso
                    assert operator_norm(commutator(iso @ dagger(iso), comm)) <= 1e-9


def test_random_systems_validate():
    rng = np.random.default_rng(77)
    for _ in range(10):
        system = random_commutative_system(rng, max_dim=48)
        report = system_validate(system)
        assert report.passed, report.summary()
        assert report.worst <= 1e-11

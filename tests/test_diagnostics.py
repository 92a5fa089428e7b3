"""Gap series, eigenprojection oracle, commutator series, verdicts."""

import numpy as np
import pytest

from spectral_limits import (
    CommutatorSeries,
    DiagonalRepresentation,
    FiniteCStarAlgebra,
    FiniteSpectralTriple,
    GapSeries,
    InductiveSystem,
    StarHomomorphism,
    TripleMorphism,
    ValidationError,
    analytic_gap_bound,
    binary_branching,
    cantor_system,
    ci_system,
    commutative_af_chain,
    commutator_series,
    default_st2_probe,
    function_gap,
    gap_series,
    middle_thirds,
    operator_norm,
    random_commutative_system,
    realize,
    resolvent_gap,
    resolvent_gap_eigen,
    st1_verdict,
    st2_verdict,
    system_validate,
)
from spectral_limits import diagnostics
from spectral_limits.diagnostics import DEFAULT_LAMBDAS, FUNCTION_PROBES
from spectral_limits.serialization import system_from_generator_config

SEQ = middle_thirds(6)
CANTOR6 = cantor_system(SEQ, 6)
R6 = realize(CANTOR6)


def growing_commutator_system(levels: int, base: float = 2.0) -> InductiveSystem:
    """Valid system whose commutator norms grow geometrically.

    Every level keeps the two-point algebra; each new level appends a pair
    of coordinates carrying points (0, 1) coupled by base**k, so the
    commutator of the point-0 indicator grows like base**k while all the
    morphism axioms hold exactly.
    """
    triples = []
    algebra = FiniteCStarAlgebra((1, 1))
    for k in range(levels + 1):
        dim = 2 * (k + 1)
        cp = np.tile([0, 1], k + 1)
        dirac = np.zeros((dim, dim), dtype=complex)
        for n in range(k + 1):
            w = base**n
            dirac[2 * n, 2 * n + 1] = w
            dirac[2 * n + 1, 2 * n] = w
        triples.append(
            FiniteSpectralTriple(algebra, DiagonalRepresentation(cp, 2), dirac)
        )
    links = []
    for k in range(levels):
        iso = np.zeros((2 * (k + 2), 2 * (k + 1)), dtype=complex)
        iso[: 2 * (k + 1), :] = np.eye(2 * (k + 1))
        links.append(
            TripleMorphism(
                triples[k], triples[k + 1], StarHomomorphism.identity(algebra), iso
            )
        )
    return InductiveSystem(tuple(triples), tuple(links))


class TestResolventGap:
    def test_zero_at_ambient_level(self):
        assert resolvent_gap(R6, 6, 1j) == pytest.approx(0.0, abs=1e-14)
        assert resolvent_gap_eigen(R6, 6, 1j) == 0.0

    def test_cantor_value(self):
        # Eigenvalues beyond level 1 start at 1/l_2 = 9, so the gap at i is
        # (1 + 81)^(-1/2) = 1/sqrt(82).
        oracle = max((1.0 + (1.0 / l) ** 2) ** -0.5 for l in SEQ.lengths[2:7])
        assert oracle == pytest.approx(1 / np.sqrt(82))
        assert resolvent_gap(R6, 1, 1j) == pytest.approx(oracle, abs=1e-10)

    def test_ci_formula(self):
        alphas = [1.0, 2.0, 3.0, 4.0]
        chain = commutative_af_chain(binary_branching(4), np.full(16, 1 / 16), alphas)
        r = realize(ci_system(chain, 4))
        for j in range(4):
            for lam in (1j, 2j, 1 + 1j):
                oracle = max(1.0 / abs(a - lam) for a in alphas[j:])
                assert resolvent_gap(r, j, lam) == pytest.approx(oracle, abs=1e-10)

    def test_real_probe_rejected(self):
        with pytest.raises(ValidationError):
            resolvent_gap(R6, 1, 2.0)
        with pytest.raises(ValidationError):
            resolvent_gap_eigen(R6, 1, 2.0)

    def test_level_out_of_range(self):
        with pytest.raises(ValidationError):
            resolvent_gap(R6, 9, 1j)

    def test_huge_gap_is_finite(self):
        # D_0 = 0 on the binary CI system, so the level-0 resolvent at 1e-300i has norm 1e300.
        chain = commutative_af_chain(binary_branching(2), np.full(4, 1 / 4), [1.0, 2.0])
        r = realize(ci_system(chain, 2))
        assert resolvent_gap(r, 0, 1e-300j) == pytest.approx(1e300, rel=1e-12)

    @pytest.mark.parametrize("entry", [1.5e308, 0.8e308], ids=["entries-overflow", "norm-overflows"])
    def test_gap_beyond_float_range_names_probe(self, entry):
        # At the top level I = 1, so the difference has entries 2 * entry: beyond
        # the float range, or finite with a norm 38 times larger.
        n = R6.ambient_decomposition().dim
        g = lambda dec: np.full((dec.dim, dec.dim), entry)
        outer = np.full((n, n), -entry)
        with pytest.raises(ValidationError, match="probe X gives a gap norm beyond the float range at level 6"):
            diagnostics._embedded_gap(R6, 6, g, outer, "probe X")


class TestEigenOracle:
    def test_matches_direct_on_cantor(self):
        for j in range(7):
            for lam in (1j, 2j, 1 + 1j):
                assert abs(
                    resolvent_gap(R6, j, lam) - resolvent_gap_eigen(R6, j, lam)
                ) <= 1e-10

    def test_degenerate_alphas_clusters_merge(self):
        # Repeated alpha values merge eigenvalue clusters; the eigen route
        # must still match the direct norm.
        chain = commutative_af_chain(
            binary_branching(4), np.full(16, 1 / 16), [2.0, 2.0, 3.0, 2.0]
        )
        r = realize(ci_system(chain, 4))
        for j in range(5):
            for lam in (1j, 1 + 1j):
                direct = resolvent_gap(r, j, lam)
                eigen = resolvent_gap_eigen(r, j, lam)
                assert abs(direct - eigen) <= 1e-9, (j, lam, direct, eigen)

    def test_one_decomposition_per_level_and_one_defect_per_cluster(self, monkeypatch):
        # A non-default group_tol reclusters the cached ambient eigenvalues
        # instead of decomposing D_J again, and each containment defect is
        # taken once per (level, cluster) whatever the number of probes.
        from spectral_limits import diagnostics, inductive
        from spectral_limits.diagnostics import _group_indices

        counts = {"eigh": 0, "norm": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(inductive, "eigh", counting("eigh", inductive.eigh))
        r = realize(CANTOR6)
        lambdas = (1j, 2j, 1 + 1j)
        for lam in lambdas:
            gap_series(r, lam=lam)
        for module in (inductive, diagnostics):
            monkeypatch.setattr(module, "operator_norm", counting("norm", module.operator_norm))
        for lam in lambdas:
            for j in range(r.level + 1):
                resolvent_gap_eigen(r, j, lam, group_tol=1e-7)
        clusters = _group_indices(r.ambient_decomposition().eigenvalues, 1e-7)
        assert counts["eigh"] == r.level + 1 == 7
        assert counts["norm"] == (r.level + 1) * len(clusters) == 56


class TestFunctionGap:
    def test_zero_function(self):
        assert function_gap(R6, 2, lambda x: 0.0) == 0.0

    def test_lorentzian_value(self):
        # f = 1/(1+x^2): the gap at j = 1 is f(1/l_2) = 1/82; note 0 is not
        # in the spectrum of any Cantor level Dirac.
        f = FUNCTION_PROBES["one_over_one_plus_x2"]
        oracle = max(1.0 / (1.0 + (1.0 / l) ** 2) for l in SEQ.lengths[2:7])
        assert oracle == pytest.approx(1 / 82)
        assert function_gap(R6, 1, f) == pytest.approx(oracle, abs=1e-10)

    def test_gaussian_on_ci(self):
        alphas = [1.0, 2.0, 3.0]
        chain = commutative_af_chain(binary_branching(3), np.full(8, 1 / 8), alphas)
        r = realize(ci_system(chain, 3))
        f = FUNCTION_PROBES["gaussian"]
        for j in range(3):
            oracle = max(np.exp(-a * a) for a in alphas[j:])
            assert function_gap(r, j, f) == pytest.approx(oracle, abs=1e-10)


class TestGapSeries:
    def test_cantor_bounded_by_lengths(self):
        series = gap_series(R6, lam=1j)
        for (j, gap), bound in zip(series.entries, series.analytic_bounds):
            assert gap <= bound + 1e-12

    def test_final_entry_zero(self):
        series = gap_series(R6, lam=2j)
        assert series.entries[-1] == (6, pytest.approx(0.0, abs=1e-14))

    def test_bound_for_real_part_probe_uses_truncated_sup(self):
        lam = 1 + 1j
        series = gap_series(R6, lam=lam)
        for (j, gap), bound in zip(series.entries[:-1], series.analytic_bounds[:-1]):
            assert gap <= bound + 1e-12
        # and the l_j bound itself fails for this probe at some level
        lengths = SEQ.lengths
        assert any(
            gap > lengths[j] + 1e-12 for j, gap in series.entries[:-1]
        )

    def test_ci_bounded_alphas_stall(self):
        alphas = [(-1.0) ** k for k in range(1, 7)]
        chain = commutative_af_chain(binary_branching(6), np.full(64, 1 / 64), alphas)
        r = realize(ci_system(chain, 6))
        series = gap_series(r, lam=1j)
        stall = 1 / np.sqrt(2)
        for j, gap in series.entries[:-1]:
            assert gap == pytest.approx(stall, abs=1e-9)

    def test_function_series(self):
        series = gap_series(R6, f_name="one_over_one_plus_x2")
        assert series.kind == "function"
        values = series.values
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_unknown_function_rejected(self):
        with pytest.raises(ValidationError):
            gap_series(R6, f_name="sine")

    def test_nonzero_ambient_entry_rejected(self):
        with pytest.raises(ValidationError):
            GapSeries("resolvent", 3, ((3, 0.5),), lam=1j)


def _point_chain_config(sizes, alphas):
    # Point k of level i+1 lies over point k * size_i // size_{i+1} of level i.
    branching = [[k * a // b for k in range(b)] for a, b in zip(sizes, sizes[1:])]
    return {
        "type": "christensen-ivan",
        "chain": {"branching": branching},
        "weights": "uniform",
        "alphas": alphas,
        "levels": len(alphas),
    }


class TestDirectRouteOracle:
    """Every gap of the Krylov direct route against the dense ``operator_norm``."""

    @pytest.mark.parametrize(
        "system",
        [
            lambda: ci_system(commutative_af_chain(binary_branching(6), np.full(64, 1 / 64), list(range(1, 7))), 6),
            lambda: cantor_system(middle_thirds(10), 10),
            lambda: system_from_generator_config(
                _point_chain_config([1, 2, 3, 6, 12, 24], [(-1.0) ** j for j in range(1, 6)])
            ),
        ],
        ids=["binary-ci-6", "cantor-10", "point-chain-ci-5"],
    )
    def test_gap_series_matches_dense(self, system, monkeypatch):
        r = realize(system())
        probes = [{"lam": lam} for lam in DEFAULT_LAMBDAS] + [{"f_name": name} for name in FUNCTION_PROBES]
        dense_calls = []
        monkeypatch.setattr(diagnostics, "operator_norm", lambda m: dense_calls.append(m) or operator_norm(m))
        krylov = [gap_series(r, **probe).values for probe in probes]
        assert not dense_calls, "the Krylov route fell back to the dense norm"
        monkeypatch.setattr(diagnostics, "lanczos_norm", lambda m: None)
        dense = [gap_series(r, **probe).values for probe in probes]
        assert len(dense_calls) == sum(map(len, dense))
        for got, want in zip(krylov, dense):
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-13 * max(a, b)


class TestCommutatorSeries:
    def test_unit_is_zero(self):
        unit = CANTOR6.triples[1].algebra.unit()
        series = commutator_series(CANTOR6, 1, unit)
        assert all(v == pytest.approx(0.0, abs=1e-13) for v in series.values)

    def test_cantor_indicator_constant_three(self):
        f = CANTOR6.triples[1].algebra.from_point_values([1.0, 0.0])
        series = commutator_series(CANTOR6, 1, f)
        assert series.levels == tuple(range(1, 7))
        for v in series.values:
            assert v == pytest.approx(3.0, abs=1e-10)

    def test_ci_constant(self):
        chain = commutative_af_chain(binary_branching(4), np.full(16, 1 / 16), [1, 2, 3, 4])
        system = ci_system(chain, 4)
        a = system.triples[2].algebra.basis_element(2)
        series = commutator_series(system, 2, a)
        for v in series.values:
            assert v == pytest.approx(series.values[0], abs=1e-10)

    def test_monotone_on_random_systems(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            system = random_commutative_system(rng, max_dim=32)
            j = int(rng.integers(0, system.top_level + 1))
            algebra = system.triples[j].algebra
            a = algebra.basis_element(int(rng.integers(0, algebra.element_dim)))
            series = commutator_series(system, j, a)
            values = series.values
            scale = max(1.0, max(values, default=0.0))
            assert all(b >= a_ - 1e-9 * scale for a_, b in zip(values, values[1:]))

    def test_element_level_mismatch(self):
        wrong = CANTOR6.triples[3].algebra.unit()
        with pytest.raises(ValidationError):
            commutator_series(CANTOR6, 1, wrong)

    def test_decreasing_series_rejected(self):
        a = CANTOR6.triples[0].algebra.unit()
        with pytest.raises(ValidationError):
            CommutatorSeries(0, a, ((0, 2.0), (1, 1.0)))


class TestVerdicts:
    def test_cantor_consistent(self):
        seq10 = middle_thirds(10)
        r = realize(cantor_system(seq10, 10))
        verdict = st1_verdict(gap_series(r, lam=1j))
        assert verdict.classification == "consistent"
        assert "finite truncation" in verdict.caveat

    def test_ci_alternating_inconsistent(self):
        alphas = [(-1.0) ** k for k in range(1, 9)]
        chain = commutative_af_chain(binary_branching(8), np.full(256, 1 / 256), alphas)
        r = realize(ci_system(chain, 8))
        verdict = st1_verdict(gap_series(r, lam=1j))
        assert verdict.classification == "inconsistent"

    def test_single_entry_inconclusive(self):
        series = GapSeries("resolvent", 6, ((1, 0.5),), lam=1j)
        assert st1_verdict(series).classification == "inconclusive"

    def test_st2_cantor_consistent(self):
        verdict = st2_verdict(default_st2_probe(CANTOR6))
        assert verdict.classification == "consistent"

    def test_st2_ci_consistent(self):
        chain = commutative_af_chain(binary_branching(4), np.full(16, 1 / 16), [1, 2, 3, 4])
        verdict = st2_verdict(default_st2_probe(ci_system(chain, 4)))
        assert verdict.classification == "consistent"

    def test_st2_growing_inconsistent(self):
        system = growing_commutator_system(6)
        assert system_validate(system).passed
        verdict = st2_verdict(default_st2_probe(system))
        assert verdict.classification == "inconsistent"
        assert verdict.evidence["growing_series"]

    def test_st2_growing_below_bound_consistent(self):
        system = growing_commutator_system(4)
        probe = default_st2_probe(system)
        sup = max(s.sup for s in probe)
        verdict = st2_verdict(probe, bound=sup + 1.0)
        assert verdict.classification == "consistent"

    def test_every_verdict_carries_caveat(self):
        for verdict in (
            st1_verdict(gap_series(R6, lam=1j)),
            st2_verdict(default_st2_probe(CANTOR6)),
        ):
            assert "finite truncation" in verdict.caveat


class TestMonotoneGapDomination:
    def test_cantor_gaps_nonincreasing_in_j(self):
        for lam in (1j, 2j):
            values = gap_series(R6, lam=lam).values
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_ci_gaps_nonincreasing_in_j(self):
        chain = commutative_af_chain(
            binary_branching(6), np.full(64, 1 / 64), [float(k) for k in range(1, 7)]
        )
        r = realize(ci_system(chain, 6))
        for lam in (1j, 1 + 1j):
            values = gap_series(r, lam=lam).values
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestAnalyticBounds:
    def test_unrecognized_system_has_no_bound(self):
        system = growing_commutator_system(3)
        assert analytic_gap_bound(system, 1, 1j) is None

    def test_ci_bound_formula(self):
        alphas = [1.0, 5.0, 9.0]
        chain = commutative_af_chain(binary_branching(3), np.full(8, 1 / 8), alphas)
        system = ci_system(chain, 3)
        assert analytic_gap_bound(system, 0, 1j) == pytest.approx(1 / abs(1 - 1j))
        assert analytic_gap_bound(system, 2, 1j) == pytest.approx(1 / abs(9 - 1j))

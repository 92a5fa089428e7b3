"""Gap series, eigenprojection oracle, commutator series, verdicts."""

import math
import re
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_limits import (
    CommutatorSeries,
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
    diagonal_representation,
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
from spectral_limits import diagnostics, linalg
from spectral_limits.diagnostics import DEFAULT_LAMBDAS, FUNCTION_PROBES
from spectral_limits.linalg import (
    dagger,
    function_from_decomposition,
    function_values,
    resolvent_from_decomposition,
    resolvent_values,
)
from spectral_limits.serialization import load_system, system_from_generator_config
from test_inductive import CANTOR5, CI3, chain
from test_triple import ci_config, dense_oracle, probe_entries

DATA = Path(__file__).resolve().parent / "data"

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
            FiniteSpectralTriple(diagonal_representation(algebra, cp), dirac)
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


def _spread_system(n: int) -> InductiveSystem:
    """C on C^1 embedded in C^n along (1, ..., 1)/sqrt(n), with D_0 = 0 and
    D_1 = diag(1, ..., n).

    The link does not intertwine the Dirac operators; it only makes the
    rotation W_0 = U* I V_0 a vector with every entry of modulus n^(-1/2).
    """
    algebra = FiniteCStarAlgebra((1,))
    t0 = FiniteSpectralTriple(diagonal_representation(algebra, np.zeros(1, dtype=int)), np.zeros((1, 1)))
    t1 = FiniteSpectralTriple(
        diagonal_representation(algebra, np.zeros(n, dtype=int)), np.diag(np.arange(1.0, n + 1))
    )
    iso = np.full((n, 1), n**-0.5, dtype=complex)
    return InductiveSystem((t0, t1), (TripleMorphism(t0, t1, StarHomomorphism.identity(algebra), iso),))


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

    @pytest.mark.parametrize(
        "lam",
        [complex(math.nan, 1.0), complex(0.0, math.inf), complex(math.inf, 1.0), complex(1.0, -math.inf)],
        ids=["nan-real", "inf-imag", "inf-real", "minus-inf-imag"],
    )
    def test_non_finite_probe_rejected(self, lam):
        # nan+1j used to warn and raise LinAlgError by the direct route and
        # give nan by the eigen route; inf*1j gave a gap of 0.
        for call in (resolvent_gap, resolvent_gap_eigen, analytic_gap_bound):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match="resolvent probe must be finite"):
                    call(R6 if call is not analytic_gap_bound else CANTOR6, 1, lam)

    def test_level_out_of_range(self):
        with pytest.raises(ValidationError):
            resolvent_gap(R6, 9, 1j)

    @pytest.mark.parametrize("j", [1.9, 1.0, True, "1"])
    def test_non_integral_level_rejected(self, j):
        # 1.9 used to be truncated to level 1.
        for gap in (resolvent_gap, resolvent_gap_eigen):
            with pytest.raises(ValidationError, match="must be an integer"):
                gap(R6, j, 1j)

    def test_numpy_integer_level_accepted(self):
        assert resolvent_gap(R6, np.int64(2), 1j) == resolvent_gap(R6, 2, 1j)

    def test_huge_gap_is_finite(self):
        # D_0 = 0 on the binary CI system and D_2 has eigenvalues 0, 1 and 2,
        # so the level-0 gap of f = 1e300 (1 + x^2)^(-1) is f(1) = 5e299.
        chain = commutative_af_chain(binary_branching(2), np.full(4, 1 / 4), [1.0, 2.0])
        r = realize(ci_system(chain, 2))
        assert function_gap(r, 0, lambda x: 1e300 / (1.0 + x * x)) == pytest.approx(5e299, rel=1e-13)

    @pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e-30, 1e60, 1e300])
    def test_scaled_probe_scales_the_gap(self, scale):
        # The direct route divides the probe values by a power of two before
        # Lanczos, so tiny and huge values keep their relative accuracy.
        f = FUNCTION_PROBES["one_over_one_plus_x2"]
        for j in range(R6.level):
            want = scale * function_gap(R6, j, f)
            assert function_gap(R6, j, lambda x: scale * f(x)) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("lam", [1e-300j, 1e-13j, 1 + 1e-13j])
    def test_probe_within_eigenvalue_rounding_refused(self, lam):
        # D_2 of the binary CI system has eigenvalues 0, 1 and 2, which eigh
        # returns with rounding errors of order 1e-16.
        chain = commutative_af_chain(binary_branching(2), np.full(4, 1 / 4), [1.0, 2.0])
        r = realize(ci_system(chain, 2))
        with pytest.raises(ValidationError, match=re.escape(f"probe lambda={lam} lies ") + ".* within its rounding margin"):
            gap_series(r, lam=lam)

    @pytest.mark.parametrize("case", ["entries-overflow", "norm-overflows"])
    def test_gap_beyond_float_range_names_probe(self, case):
        if case == "entries-overflow":
            # At the top level W = 1, so the operator is diag(3e308): every
            # diagonal entry is beyond the float range.
            r, j, value = R6, 6, 1.5e308
        else:
            # W_0 is a unit vector w with entries +-1/2, so the operator
            # c (w w* + 1) has entries 1.25 c at most and norm 2c.
            r, j, value = realize(_spread_system(4)), 0, 0.95e308
        n = r.ambient_decomposition().dim
        inner = np.full(r.level_decomposition(j).dim, value)
        with pytest.raises(ValidationError, match=f"probe X gives a gap norm beyond the float range at level {j}"):
            diagnostics._embedded_gap(r, j, inner, np.full(n, -value), "probe X")


class TestEigenOracle:
    def test_matches_direct_on_cantor(self):
        for j in range(7):
            for lam in (1j, 2j, 1 + 1j):
                assert abs(
                    resolvent_gap(R6, j, lam) - resolvent_gap_eigen(R6, j, lam)
                ) <= 1e-10

    def test_degenerate_alphas_clusters_merge(self):
        # Repeated alpha values put one eigenvalue into several increment
        # spectra; the eigen route must still match the direct norm.
        chain = commutative_af_chain(
            binary_branching(4), np.full(16, 1 / 16), [2.0, 2.0, 3.0, 2.0]
        )
        r = realize(ci_system(chain, 4))
        for j in range(5):
            for lam in (1j, 1 + 1j):
                direct = resolvent_gap(r, j, lam)
                eigen = resolvent_gap_eigen(r, j, lam)
                assert abs(direct - eigen) <= 1e-9, (j, lam, direct, eigen)

    def test_one_decomposition_and_one_increment_spectrum_per_level(self, monkeypatch):
        # Over every probe and level, the eigen route takes one eigvalsh per
        # level above 0 and no other, and inductive.eigh decomposes each
        # level once for both routes together.
        from spectral_limits import inductive

        counts = {"eigh": 0, "eigvalsh": 0}

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
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        for lam in lambdas:
            for j in range(r.level + 1):
                resolvent_gap_eigen(r, j, lam)
        assert counts["eigvalsh"] == r.level == 6
        assert counts["eigh"] == r.level + 1 == 7

    def test_one_resolvent_evaluation_per_level_and_probe(self, monkeypatch):
        # The gaps of one probe at every j read each increment's peak once:
        # 18 levels and 3 probes on Cantor J=18, where evaluating every
        # increment above j for each j makes 513 evaluations.
        r = realize(CANTOR18)
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return resolvent_values(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "resolvent_values", counting)
        lambdas = (1j, 2j, 1 + 1j)
        gaps = {(j, lam): resolvent_gap_eigen(r, j, lam) for lam in lambdas for j in range(r.level + 1)}
        assert calls[0] == 54
        for (j, lam), gap in gaps.items():
            peaks = [np.max(np.abs(resolvent_values(r.increment_spectrum(k), lam))) for k in range(j + 1, r.level + 1)]
            assert gap == max(peaks, default=0.0)


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

    def test_no_rotation_formed_at_the_top_level(self):
        # The gap at j = J is 0 without W_J, the n x n identity.
        r = realize(CANTOR6)
        resolvent = gap_series(r, lam=1j)
        function = gap_series(r, f_name="gaussian")
        assert resolvent.entries[-1] == (6, 0.0) and function.entries[-1] == (6, 0.0)
        assert sorted(r._rotations) == list(range(6))

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

    def test_non_integral_j_range_rejected(self):
        # [0.5, 1.5] used to run levels (0, 1).
        with pytest.raises(ValidationError, match="must be an integer"):
            gap_series(R6, lam=1j, j_range=[0.5, 1.5])
        with pytest.raises(ValidationError, match="must be an integer"):
            gap_series(R6, lam=1j, j_range=[0, False])

    def test_j_range_sorted_and_deduplicated(self):
        series = gap_series(R6, lam=1j, j_range=[np.int64(3), 1, 3])
        assert [j for j, _ in series.entries] == [1, 3]
        assert all(type(j) is int for j, _ in series.entries)

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


def _dense_gaps(r, probe):
    """(gaps, sup |g|) of one probe by the dense formula ||I g(D_j) I* - g(D_J)||, every level."""
    if "lam" in probe:
        values = partial(resolvent_values, lam=probe["lam"])
        matrix = partial(resolvent_from_decomposition, lam=probe["lam"])
    else:
        values = partial(function_values, f=FUNCTION_PROBES[probe["f_name"]])
        matrix = partial(function_from_decomposition, f=FUNCTION_PROBES[probe["f_name"]])
    outer = matrix(r.ambient_decomposition())
    gaps = []
    sup = 0.0
    for j in range(r.level + 1):
        iso, dec = chain(r.system, j, r.level).iso, r.level_decomposition(j)
        gaps.append(operator_norm(iso @ matrix(dec) @ dagger(iso) - outer))
        sup = max(sup, float(np.max(np.abs(values(dec.eigenvalues)))))
    return gaps, sup


def _assert_gaps_match_dense(r):
    # Two algorithms cannot agree below rounding: the absolute term covers
    # gaps at the rounding level of the probe's values.
    probes = [{"lam": lam} for lam in DEFAULT_LAMBDAS] + [{"f_name": name} for name in FUNCTION_PROBES]
    krylov = [gap_series(r, **probe).values for probe in probes]
    for probe, got in zip(probes, krylov):
        want, sup = _dense_gaps(r, probe)
        for j, (a, b) in enumerate(zip(got, want)):
            assert abs(a - b) <= 1e-13 * max(a, b) + 1e-14 * sup, (probe, j, a, b)


class TestDirectRouteOracle:
    """Every gap of the rotated Krylov route against the dense formula ``operator_norm(I g(D_j) I* - g(D_J))``."""

    @pytest.mark.parametrize(
        "system",
        [
            lambda: ci_system(commutative_af_chain(binary_branching(6), np.full(64, 1 / 64), list(range(1, 7))), 6),
            lambda: cantor_system(middle_thirds(10), 10),
            lambda: system_from_generator_config(
                _point_chain_config([1, 2, 3, 6, 12, 24], [(-1.0) ** j for j in range(1, 6)])
            ),
            lambda: ci_system(
                commutative_af_chain(binary_branching(8), np.full(256, 1 / 256), [float(j) for j in range(1, 9)]), 8
            ),
        ],
        ids=["binary-ci-6", "cantor-10", "point-chain-ci-5", "binary-ci-8"],
    )
    def test_gap_series_matches_dense(self, system):
        _assert_gaps_match_dense(realize(system()))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_systems_match_dense(self, seed):
        system = random_commutative_system(np.random.default_rng(seed), max_dim=24)
        _assert_gaps_match_dense(realize(system))

    @pytest.mark.parametrize("system", [CANTOR5, CI3], ids=["cantor", "ci"])
    def test_full_space_lanczos_matches_dense(self, system, monkeypatch):
        # With no early stop, Lanczos runs until its basis spans the whole
        # space, and its top Ritz value is the norm.  The levels are
        # decomposed first, so every later eigh is of a Ritz matrix.
        r = realize(system)
        for j in range(r.level + 1):
            r.level_decomposition(j)
        ritz_sizes = []
        monkeypatch.setattr(linalg, "LANCZOS_TOL", 0.0)
        monkeypatch.setattr(np.linalg, "eigh", lambda a, eigh=np.linalg.eigh: ritz_sizes.append(len(a)) or eigh(a))
        _assert_gaps_match_dense(r)
        assert max(ritz_sizes) == r.ambient.hilbert_dim

    @pytest.mark.parametrize("system", [CANTOR5, CI3], ids=["cantor", "ci"])
    def test_real_rotation_closure_matches_dense(self, system):
        # A real W is applied to the complex Lanczos vectors part by part.
        r = realize(system)
        probes = [partial(resolvent_values, lam=lam) for lam in DEFAULT_LAMBDAS]
        probes.append(partial(function_values, f=FUNCTION_PROBES["one_over_one_plus_x2"]))
        for j in range(r.level):
            w = r.rotation(j)
            assert w.dtype == np.float64
            for g in probes:
                inner, outer = g(r.level_decomposition(j).eigenvalues), g(r.ambient_decomposition().eigenvalues)
                want = operator_norm((w * inner) @ w.T - np.diag(outer))
                got = diagnostics._embedded_gap(r, j, inner, outer, "probe")
                assert abs(got - want) <= 1e-13 * want, (j, got, want)


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
        with pytest.raises(ValidationError):
            CommutatorSeries(0, ((0, 2.0), (1, 1.0)))


def series_loop(system, levels=None):
    """The default probe as one ``commutator_series`` per basis element: the oracle."""
    if levels is None:
        levels = range(system.top_level) if system.top_level > 0 else [0]
    return [
        commutator_series(system, j, system.triples[j].algebra.basis_element(i))
        for j in levels
        for i in range(system.triples[j].algebra.element_dim)
    ]


@pytest.fixture
def norm_calls(monkeypatch):
    """Number of ``diagnostics.commutator_norm`` calls, one counter per test."""
    calls = [0]
    norm = diagnostics.commutator_norm

    def counting(*args):
        calls[0] += 1
        return norm(*args)

    monkeypatch.setattr(diagnostics, "commutator_norm", counting)
    return calls


def one_ulp_from_hermitian(system):
    """``system`` with one ulp added to D_k[0, 1] on every level k >= 1."""
    diracs = [t.dirac.copy() for t in system.triples]
    for d in diracs[1:]:
        d[0, 1] = np.nextafter(d[0, 1], np.inf)
    triples = tuple(FiniteSpectralTriple(t.rep, d, t.grading, t.meta) for t, d in zip(system.triples, diracs))
    links = tuple(TripleMorphism(triples[k], triples[k + 1], m.phi, m.iso) for k, m in enumerate(system.links))
    return InductiveSystem(triples, links, system.provenance)


CANTOR18 = system_from_generator_config({"type": "cantor", "gaps": "middle-thirds", "levels": 18})
POINT_CHAIN_CI = system_from_generator_config(
    ci_config([float((-1) ** j) for j in range(1, 8)], [1, 2, 3, 6, 12, 24, 48, 96])
)
BINARY_CI6 = system_from_generator_config(ci_config([float(j) for j in range(1, 7)]))


class TestFibreProbe:
    """The default probe takes one cut pass per level pair on spectrum-map
    systems; the per-element ``commutator_series`` loop is its oracle."""

    @staticmethod
    def assert_matches(probe, oracle, rel):
        assert [s.base_level for s in probe] == [s.base_level for s in oracle]
        for got, want in zip(probe, oracle):
            assert got.levels == want.levels
            for g, w in zip(got.values, want.values):
                assert type(g) is float
                if rel == 0.0:
                    assert g == w
                else:
                    assert abs(g - w) <= rel * w

    @pytest.mark.parametrize("system", [CANTOR6, CANTOR18], ids=["cantor-6", "cantor-18"])
    @pytest.mark.parametrize("top_only", [None, False, True], ids=["default", "level-0", "top-level"])
    def test_cantor_bit_equal(self, system, top_only, norm_calls):
        levels = None if top_only is None else [system.top_level if top_only else 0]
        probe = default_st2_probe(system, levels)
        assert norm_calls[0] == 0
        self.assert_matches(probe, series_loop(system, levels), 0.0)

    @pytest.mark.parametrize(
        "system", [BINARY_CI6, POINT_CHAIN_CI, CI3], ids=["binary-ci-6", "point-chain-ci-7", "ci-3"]
    )
    @pytest.mark.parametrize("top_only", [None, False, True], ids=["default", "level-0", "top-level"])
    def test_ci_within_rounding(self, system, top_only, norm_calls):
        levels = None if top_only is None else [system.top_level if top_only else 0]
        probe = default_st2_probe(system, levels)
        assert norm_calls[0] == 0
        self.assert_matches(probe, series_loop(system, levels), 1e-14)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_systems_within_rounding(self, seed):
        system = random_commutative_system(np.random.default_rng(seed), max_dim=48)
        for levels in (None, [0], [system.top_level], range(system.top_level + 1)):
            self.assert_matches(default_st2_probe(system, levels), series_loop(system, levels), 1e-14)

    def test_empty_and_out_of_range_levels(self):
        assert default_st2_probe(CANTOR6, []) == []
        with pytest.raises(ValidationError, match=r"level j must be an integer in \[0, 6\], got 7"):
            default_st2_probe(CANTOR6, [7])

    def test_dense_representation_falls_back(self, norm_calls):
        system = load_system(str(DATA / "ci_dense_v2.json"))
        assert system.triples[-1].rep.spectrum_map is None
        probe = default_st2_probe(system)
        assert norm_calls[0] > 0
        self.assert_matches(probe, series_loop(system), 0.0)

    def test_norm_beyond_float_range_raises(self):
        # Entries 1e8 scaled by 1e300: each point's 2 x 2 cut block has norm 2e308.
        d = np.full((4, 4), 1e8) * 1e300
        t = FiniteSpectralTriple(diagonal_representation(FiniteCStarAlgebra((1, 1)), [0, 0, 1, 1]), d)
        system = InductiveSystem((t,), ())
        for probe in (default_st2_probe, series_loop):
            with pytest.raises(ValidationError, match=re.escape("||[D, pi(a)]|| exceeds the float range")):
                probe(system)

    def test_growing_system_stays_inconsistent(self, norm_calls):
        system = growing_commutator_system(6)
        probe = default_st2_probe(system)
        assert norm_calls[0] == 0
        self.assert_matches(probe, series_loop(system), 0.0)
        assert st2_verdict(probe).classification == "inconsistent"


class TestFibreProbeCeilings:
    def test_cantor18_work(self, norm_calls, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert len(default_st2_probe(CANTOR18)) == 171
        # The per-element loop makes 1,311 norm calls and 1,292 eigvalsh calls.
        assert norm_calls[0] == 0
        assert calls[0] <= 400

    def test_one_ulp_from_hermitian_work(self, norm_calls):
        # Hermitian only to rounding: the probe still takes one cut pass per
        # level, reading both cut blocks, not one dense commutator per
        # element and level.
        system = one_ulp_from_hermitian(BINARY_CI6)
        assert not any(np.array_equal(t.dirac, dagger(t.dirac)) for t in system.triples[1:])
        assert system_validate(system).passed
        probe = default_st2_probe(system)
        assert norm_calls[0] == 0
        got = [v for s in probe for v in s.values]
        want = [dense_oracle(t, a) for t, a in probe_entries(system, range(system.top_level))]
        assert len(got) == len(want) == 183
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * w

    def test_binary_ci10_memory(self):
        system = system_from_generator_config(ci_config([float(j) for j in range(1, 11)]))
        tracemalloc.start()
        try:
            probe = default_st2_probe(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(probe) == 1023
        # Chunks of at most CHUNK_ENTRIES row and Gram entries; an unchunked
        # stack of every fibre's rows peaks at 33 MiB here.
        assert peak <= 12 * 2**20


# Every function that takes a level index, called at level j of a
# realization of CANTOR6.
LEVEL_CALLS = {
    "level_decomposition": lambda r, j: r.level_decomposition(j),
    "rotation": lambda r, j: r.rotation(j),
    "resolvent_gap": lambda r, j: resolvent_gap(r, j, 1j),
    "resolvent_gap_eigen": lambda r, j: resolvent_gap_eigen(r, j, 1j),
    "function_gap": lambda r, j: function_gap(r, j, FUNCTION_PROBES["gaussian"]),
    "gap_series": lambda r, j: gap_series(r, lam=1j, j_range=[j]),
    "commutator_series": lambda r, j: commutator_series(r.system, j, r.system.triples[1].algebra.basis_element(0)),
    "default_st2_probe": lambda r, j: default_st2_probe(r.system, [j]),
    "analytic_gap_bound": lambda r, j: analytic_gap_bound(r.system, j, 1j),
}


def _attributes(value):
    """A series as its attributes, a list of series as theirs, else ``value``."""
    if isinstance(value, list):
        return [vars(s) for s in value]
    return vars(value) if isinstance(value, (GapSeries, CommutatorSeries)) else value


class TestLevelRule:
    """One rule for level indices, ``InductiveSystem.check_level``: an
    integer, not a bool, in [0, J]."""

    @pytest.mark.parametrize("call", LEVEL_CALLS.values(), ids=LEVEL_CALLS)
    @pytest.mark.parametrize("j", [1.5, True, "1", -1, 7], ids=["float", "bool", "str", "negative", "above-top"])
    def test_rejected(self, call, j):
        r = realize(CANTOR6)
        # Level 1 is cached first, so that True (== 1) cannot hit the cache.
        call(r, 1)
        with pytest.raises(ValidationError, match=re.escape(f"level j must be an integer in [0, 6], got {j!r}")):
            call(r, j)

    @pytest.mark.parametrize("call", LEVEL_CALLS.values(), ids=LEVEL_CALLS)
    def test_numpy_integer_accepted(self, call):
        r = realize(CANTOR6)
        got, want = call(r, np.int64(1)), call(r, 1)
        assert got is want or _attributes(got) == _attributes(want)

    def test_check_level_returns_int(self):
        assert type(CANTOR6.check_level(np.int64(6))) is int


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

    def test_flat_tail_inconsistent_only_without_earlier_decrease(self):
        flat = GapSeries("resolvent", 7, tuple((j, 0.5) for j in range(7)) + ((7, 0.0),), lam=1j)
        assert st1_verdict(flat).classification == "inconsistent"
        fell = GapSeries("resolvent", 7, ((0, 0.9),) + flat.entries[1:], lam=1j)
        verdict = st1_verdict(fell)
        assert verdict.classification == "inconclusive"
        assert verdict.evidence["tail_nondecreasing"] and verdict.evidence["last_value"] == 0.5

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"threshold": math.nan}, "threshold must be finite and > 0, got nan"),
            ({"threshold": math.inf}, "threshold must be finite and > 0, got inf"),
            ({"threshold": 0.0}, "threshold must be finite and > 0, got 0.0"),
            ({"window": 1}, "window must be at least 2, got 1"),
            ({"window": -3}, "window must be at least 2, got -3"),
            ({"window": 2.5}, "window must be an integer, got 2.5"),
            ({"window": True}, "window must be an integer, got True"),
        ],
        ids=["threshold-nan", "threshold-inf", "threshold-zero", "window-1", "window-negative", "window-float", "window-bool"],
    )
    def test_st1_parameters_checked(self, kwargs, message):
        # Each used to give a verdict (consistent for nan and -3 on Cantor J=8).
        with pytest.raises(ValidationError, match=re.escape(message)):
            st1_verdict(gap_series(R6, lam=1j), **kwargs)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_st2_bound_checked(self, bound):
        probe = default_st2_probe(CANTOR6)
        with pytest.raises(ValidationError, match=re.escape(f"bound must be finite and >= 0, got {bound!r}")):
            st2_verdict(probe, bound=bound)
        assert st2_verdict(probe, bound=0.0).classification == "consistent"

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

    def test_overflowing_probe_rejected(self):
        # |a - lambda| overflows: this used to raise a raw OverflowError.
        chain = commutative_af_chain(binary_branching(3), np.full(8, 1 / 8), [1.0, 5.0, 9.0])
        for system in (CANTOR6, ci_system(chain, 3)):
            with pytest.raises(ValidationError, match="too large"):
                analytic_gap_bound(system, 0, 1.5e308 + 1.5e308j)

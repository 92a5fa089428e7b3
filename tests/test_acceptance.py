"""Acceptance suite.

One test per criterion, each printing a PASS line with the quantity it
pinned.  Tolerances are fixed here, not configurable: 1e-9 for value
agreements and oracle equivalence, 1e-10 for the resolvent identities and
exact-constancy statements, 1e-11 for generated-system validation
residuals.
"""

import itertools
import math

import numpy as np
import pytest

from spectral_limits import (
    AfChain,
    FiniteCStarAlgebra,
    InductiveSystem,
    StarHomomorphism,
    State,
    TripleMorphism,
    ValidationError,
    binary_branching,
    cantor_system,
    ci_system,
    commutative_af_chain,
    commutator_series,
    connes_distance,
    eigh,
    function_gap,
    gap_series,
    gns,
    hom_validate,
    middle_thirds,
    operator_norm,
    random_commutative_system,
    realize,
    resolvent,
    resolvent_gap,
    resolvent_gap_eigen,
    st1_verdict,
    system_validate,
)
from spectral_limits.diagnostics import FUNCTION_PROBES
from spectral_limits.linalg import dagger, resolvent_from_decomposition
from test_distance import connes_distance_lp
from test_inductive import chain

LAMBDAS = (1j, 2j, 1 + 1j)


@pytest.fixture(scope="module")
def cantor10():
    seq = middle_thirds(10)
    system = cantor_system(seq, 10)
    return seq, system, realize(system)


@pytest.fixture(scope="module")
def ci64():
    alphas = [float(k) for k in range(1, 7)]
    chain = commutative_af_chain(binary_branching(6), np.full(64, 1 / 64), alphas)
    system = ci_system(chain, 6)
    return alphas, system, realize(system)


@pytest.fixture(scope="module")
def m2_chain_system():
    c1, m2 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((2,))
    inc = StarHomomorphism(c1, m2, matrix=np.array([[1], [0], [0], [1]], dtype=complex))
    chain = AfChain((c1, m2), (inc,), State(m2, m2.element([np.eye(2) / 2])), (5.0,))
    return chain, ci_system(chain, 1)


@pytest.fixture(scope="module")
def random_systems():
    rng = np.random.default_rng(20240817)
    return [random_commutative_system(rng, max_dim=64) for _ in range(100)]


@pytest.fixture(scope="module")
def ci1024_increasing():
    alphas = [float(k) for k in range(1, 11)]
    chain = commutative_af_chain(binary_branching(10), np.full(1024, 1 / 1024), alphas)
    system = ci_system(chain, 10)
    return alphas, system, realize(system)


@pytest.fixture(scope="module")
def ci1024_alternating():
    alphas = [(-1.0) ** k for k in range(1, 11)]
    chain = commutative_af_chain(binary_branching(10), np.full(1024, 1 / 1024), alphas)
    system = ci_system(chain, 10)
    return alphas, system, realize(system)


def test_criterion_01_cantor_st1_bound(cantor10):
    """Cantor J=10: gaps bounded by l_j and gap(1, i) = 1/sqrt(82)."""
    seq, system, r = cantor10
    assert r.ambient.hilbert_dim == 22
    lengths = seq.lengths
    for j in range(10):
        assert resolvent_gap(r, j, 1j) <= lengths[j] + 1e-12
    value = resolvent_gap(r, 1, 1j)
    assert abs(value - 1 / math.sqrt(82)) <= 1e-9
    print(
        f"\nACCEPTANCE 1 PASS: Cantor J=10 gaps <= l_j for all j < 10; "
        f"gap(1, i) = {value:.12f} = 1/sqrt(82) within 1e-9"
    )


def test_criterion_02_oracle_equivalence(cantor10, ci64, random_systems):
    """|direct - eigenprojection| <= 1e-9 on families and 100 random systems."""
    _, _, r_cantor = cantor10
    _, _, r_ci = ci64
    realizations = [r_cantor, r_ci] + [realize(s) for s in random_systems]
    checked = 0
    worst = 0.0
    for r in realizations:
        for j in range(r.level + 1):
            for lam in LAMBDAS:
                delta = abs(resolvent_gap(r, j, lam) - resolvent_gap_eigen(r, j, lam))
                worst = max(worst, delta)
                checked += 1
                assert delta <= 1e-9
    assert len(random_systems) >= 100
    assert all(s.triples[-1].hilbert_dim <= 64 for s in random_systems)
    print(
        f"\nACCEPTANCE 2 PASS: |direct - eigen| <= 1e-9 on {checked} (system, j, lambda) "
        f"probes over 2 example families + {len(random_systems)} random systems; worst {worst:.2e}"
    )


def _eq6_residual(system, r, j, lam, outer):
    """||I R_lam(D_j) I* - P_j R_lam(D_J) P_j||, with outer = R_lam(D_J)."""
    iso = chain(system, j, r.level).iso
    p = iso @ dagger(iso)
    inner = outer if j == r.level else resolvent(system.triples[j].dirac, lam)
    return operator_norm(iso @ inner @ dagger(iso) - p @ outer @ p)


def test_criterion_03_strong_resolvent_identity(
    cantor10, ci64, m2_chain_system, random_systems, ci1024_increasing
):
    """I R_lam(D_j) I* = P_j R_lam(D_J) P_j within 1e-10 on all probed systems."""
    worst = 0.0
    checked = 0
    small = [cantor10[1], ci64[1], m2_chain_system[1]] + random_systems[:10]
    _, big, r_big = ci1024_increasing
    probed = [(system, realize(system), range(system.top_level + 1)) for system in small]
    for system, r, levels in probed + [(big, r_big, (0, 5, 10))]:
        # One ambient eigh per system, the one ``resolvent`` would make for each
        # (level, lam): at dim 1024 each costs about a second.
        top = eigh(r.ambient.dirac)
        for lam in LAMBDAS:
            outer = resolvent_from_decomposition(top, lam)
            for j in levels:
                worst = max(worst, _eq6_residual(system, r, j, lam, outer))
                checked += 1
    assert worst <= 1e-10
    print(
        f"\nACCEPTANCE 3 PASS: strong-resolvent identity residual <= 1e-10 on "
        f"{checked} probes (worst {worst:.2e}), incl. ambient dim 1024"
    )


def test_criterion_04_padded_resolvent_correction(cantor10, ci64, random_systems, ci1024_increasing):
    """R_lam(I D_j I*) = I R_lam(D_j) I* - lam^(-1) P_j^perp within 1e-10."""
    worst = 0.0
    checked = 0

    def padded_residual(system, r, j, lam):
        n = r.ambient.hilbert_dim
        iso = chain(system, j, r.level).iso
        padded = np.linalg.inv(iso @ system.triples[j].dirac @ dagger(iso) - lam * np.eye(n))
        inner = iso @ resolvent(system.triples[j].dirac, lam) @ dagger(iso)
        perp = np.eye(n) - iso @ dagger(iso)
        return operator_norm(padded - inner + perp / lam)

    for system in [cantor10[1], ci64[1]] + random_systems[:10]:
        r = realize(system)
        for j in range(r.level + 1):
            for lam in LAMBDAS:
                worst = max(worst, padded_residual(system, r, j, lam))
                checked += 1
    _, big, r_big = ci1024_increasing
    for lam in LAMBDAS:
        worst = max(worst, padded_residual(big, r_big, 5, lam))
        checked += 1
    assert worst <= 1e-10
    print(
        f"\nACCEPTANCE 4 PASS: corrected padded-resolvent identity residual <= 1e-10 "
        f"on {checked} probes (worst {worst:.2e}); sign correction of the +lam form verified"
    )


def test_criterion_05_ci_st1_dichotomy(ci1024_increasing, ci1024_alternating):
    """Binary CI at J=10, dim 1024: growing alphas consistent with exact gap
    formula; alternating alphas inconsistent, stalled at 1/sqrt(2)."""
    alphas, system, r = ci1024_increasing
    assert r.ambient.hilbert_dim == 1024
    for j in range(10):
        expected = (1.0 + alphas[j] ** 2) ** -0.5  # alphas[j] is alpha_{j+1}
        assert abs(resolvent_gap(r, j, 1j) - expected) <= 1e-9
    series = gap_series(r, lam=1j)
    verdict = st1_verdict(series)
    assert verdict.classification == "consistent"

    _, system_alt, r_alt = ci1024_alternating
    stall = 1 / math.sqrt(2)
    series_alt = gap_series(r_alt, lam=1j)
    for j, gap in series_alt.entries[:-1]:
        assert abs(gap - stall) <= 1e-9
    verdict_alt = st1_verdict(series_alt)
    assert verdict_alt.classification == "inconsistent"
    print(
        "\nACCEPTANCE 5 PASS: CI J=10 (dim 1024) alpha_j=j -> consistent with "
        "gap(j,i) = (1+alpha_{j+1}^2)^(-1/2); alpha_j=(-1)^j -> inconsistent, "
        f"stalled at {stall:.6f}"
    )


def test_criterion_06_commutator_monotonicity(cantor10, ci64, random_systems):
    """Series nondecreasing within 1e-9 everywhere; exactly constant on the
    two example families within 1e-10."""
    rng = np.random.default_rng(5)
    checked = 0
    for system in random_systems:
        j = int(rng.integers(0, system.top_level + 1))
        algebra = system.triples[j].algebra
        a = algebra.basis_element(int(rng.integers(0, algebra.element_dim)))
        values = commutator_series(system, j, a).values
        scale = max(1.0, max(values, default=0.0))
        assert all(b >= a_ - 1e-9 * scale for a_, b in zip(values, values[1:]))
        checked += 1

    _, cantor, _ = cantor10
    for j in (1, 2):
        algebra = cantor.triples[j].algebra
        for i in range(algebra.element_dim):
            values = commutator_series(cantor, j, algebra.basis_element(i)).values
            assert max(values) - min(values) <= 1e-10 * max(1.0, max(values))
    _, ci, _ = ci64
    for j in (1, 2):
        algebra = ci.triples[j].algebra
        for i in range(algebra.element_dim):
            values = commutator_series(ci, j, algebra.basis_element(i)).values
            assert max(values) - min(values) <= 1e-10 * max(1.0, max(values))
    print(
        f"\nACCEPTANCE 6 PASS: commutator series nondecreasing (1e-9) on {checked} random "
        "systems; Cantor and CI series constant from the base level within 1e-10"
    )


def test_criterion_07_function_gap_probe(cantor10):
    """f(x) = 1/(1+x^2) on middle-thirds J=10 matches (1+l_{j+1}^(-2))^(-1)."""
    seq, _, r = cantor10
    f = FUNCTION_PROBES["one_over_one_plus_x2"]
    lengths = seq.lengths
    values = []
    for j in range(11):
        gap = function_gap(r, j, f)
        values.append(gap)
        if j < 10:
            expected = 1.0 / (1.0 + (1.0 / lengths[j + 1]) ** 2)
            assert abs(gap - expected) <= 1e-9
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] <= 1e-12
    assert values[-2] > 1e-6
    print(
        "\nACCEPTANCE 7 PASS: function gaps equal (1+l_{j+1}^(-2))^(-1) within 1e-9 "
        f"for j < 10 and decrease to 0 (first {values[0]:.3e}, last {values[-1]:.1e})"
    )


def test_criterion_08_gns_correctness(m2_chain_system):
    """C in M_2 with trace state: spec(D_1) = {0, 5, 5, 5}; gram = tau(a* b)."""
    chain, system = m2_chain_system
    dec = eigh(system.triples[1].dirac)
    assert np.allclose(dec.eigenvalues, [0.0, 5.0, 5.0, 5.0], atol=1e-10)

    m2 = chain.algebras[1]
    tau = chain.state
    space = gns(m2, tau)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            a, b = m2.basis_element(i), m2.basis_element(j)
            worst = max(worst, abs(space.gram[i, j] - tau.value(a.star() * b)))
    assert worst <= 1e-14
    print(
        "\nACCEPTANCE 8 PASS: spec(D_1) = {0, 5, 5, 5} within 1e-10; "
        f"gram identity <eta(a), eta(b)> = tau(a*b) exact on basis pairs (worst {worst:.1e})"
    )


def test_criterion_09_validation_and_negative_controls(
    cantor10, ci64, m2_chain_system, random_systems
):
    """Generated systems pass at 1e-11; corrupted or malformed inputs are
    rejected with the documented error classes."""
    worst = 0.0
    count = 0
    for system in [cantor10[1], ci64[1], m2_chain_system[1]] + random_systems:
        report = system_validate(system)
        assert report.passed, report.summary()
        worst = max(worst, report.worst)
        count += 1
    assert worst <= 1e-11

    # Corrupted isometry: validation fails and names the link.
    cantor = cantor10[1]
    bad_iso = cantor.links[2].iso.copy()
    bad_iso[0, 0] = 0.0
    links = list(cantor.links)
    links[2] = TripleMorphism(links[2].source, links[2].target, links[2].phi, bad_iso)
    bad_system = InductiveSystem(cantor.triples, tuple(links), cantor.provenance)
    bad_report = system_validate(bad_system)
    assert not bad_report.passed and bad_report.failing_link == 2

    # Non-faithful state: rejected at construction.
    with pytest.raises(ValidationError):
        State.from_weights(FiniteCStarAlgebra((1, 1)), [1.0, 0.0])
    m2 = FiniteCStarAlgebra((2,))
    with pytest.raises(ValidationError):
        State(m2, m2.element([np.array([[0.5, 0.0], [0.0, 0.0]])]))

    # Non-surjective spectrum map: zero injectivity margin, flagged.
    a2 = FiniteCStarAlgebra((1, 1))
    phi = StarHomomorphism(a2, a2, spectrum_map=np.array([0, 0]))
    report = hom_validate(phi)
    assert not report.passed and report.entries["injectivity_margin"] == 0.0
    with pytest.raises(ValidationError):
        commutative_af_chain([np.array([0, 0]), np.array([0, 0, 0])], np.full(3, 1 / 3), [1, 2])

    print(
        f"\nACCEPTANCE 9 PASS: {count} generated systems validate with residuals <= 1e-11 "
        f"(worst {worst:.2e}); corrupted isometry, non-faithful state and non-surjective "
        "spectrum map all rejected"
    )


def test_criterion_10_distance(cantor10):
    """d(0, 2/3) = 1/3 at level 1; shortest path agrees with the LP oracle
    at levels 1..4; triangle inequality on all point triples of levels <= 4.

    The value 1/3 is anchored to the level-1 two-variable polytope
    (constraints |f0 - f1| <= 1 and |f0 - f1| <= 1/3).  At deeper
    middle-thirds levels the level-j distance between the same two points
    grows (4/9 at level 2, 13/27 at level 4) because theta_j reroutes gap
    constraints through new points; those values are pinned as regressions
    below.
    """
    _, system, _ = cantor10
    t1 = system.triples[1]
    value = connes_distance(t1, 0, 1)
    assert abs(value - 1 / 3) <= 1e-9
    assert abs(connes_distance_lp(t1, 0, 1) - 1 / 3) <= 1e-9

    worst_pair = 0.0
    for j in range(1, 5):
        t = system.triples[j]
        pts = range(t.algebra.n_points)
        d = {}
        for x, y in itertools.combinations(pts, 2):
            direct = connes_distance(t, x, y)
            oracle = connes_distance_lp(t, x, y)
            worst_pair = max(worst_pair, abs(direct - oracle))
            d[x, y] = d[y, x] = direct
        for x in pts:
            d[x, x] = 0.0
        for x, y, z in itertools.permutations(pts, 3):
            assert d[x, y] <= d[x, z] + d[z, y] + 1e-9
    assert worst_pair <= 1e-9

    # Level-j regression for the same endpoint pair (see docstring).
    assert abs(connes_distance(system.triples[2], 0, 1) - 4 / 9) <= 1e-9
    assert abs(connes_distance(system.triples[4], 0, 1) - 13 / 27) <= 1e-9
    print(
        "\nACCEPTANCE 10 PASS: d(0, 2/3) = 1/3 at level 1 (path = LP oracle, "
        f"worst pair delta {worst_pair:.2e}); triangle inequality holds on all "
        "point triples of levels 1..4"
    )

"""Generators for the two worked inductive systems.

Cantor systems: a gap sequence (removed open intervals with nonincreasing
lengths) induces level algebras C(Lambda_j), pair Hilbert spaces over the
gap endpoints, gapwise-swap Dirac operators 1/l_n and pullback connecting
maps.  Christensen-Ivan systems: an increasing chain of finite-dimensional
C*-algebras with a faithful state; level j is the GNS space of the state
restricted to A_j, in its own orthonormal coordinates, and one recursion
D_{j+1} = L_j D_j L_j* + alpha_j (1 - L_j L_j*) over the links builds the
Dirac operators.

A Cantor level is built by array indexing: one sort of all plus points,
filtered to the level's, and one ``searchsorted`` give theta_j of its
endpoints and of the next level's plus points, and one fancy-index
assignment writes each swap matrix.
Chains of spectrum maps are built in point coordinates (diagonal
multiplication representations, one-nonzero-per-row links, fibre pairs from
one mask), which keeps deep binary chains cheap; other chains take Cholesky
coordinates of each Gram matrix, dense left multiplication and dense links,
and are capped at small dimensions.  Cantor and point-coordinate matrices
are allocated in float64, since all of them are real.
``theta`` and ``theta_index`` evaluate theta_j point by point, as the paper
defines it.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    AlgebraElement,
    FiniteCStarAlgebra,
    StarHomomorphism,
    State,
    gns,
    hom_compose,
)
from .errors import ValidationError
from .linalg import dagger
from .triple import (
    FiniteSpectralTriple,
    TripleMorphism,
    dense_representation,
    diagonal_representation,
)
from .inductive import InductiveSystem

# Slack for the nonincreasing-length check (adjacent lengths may differ by
# rounding when generated at equal nominal depth).
LENGTH_ORDER_SLACK = 1e-12
# Cap on the element dimension N of the top algebra of a chain with explicit
# inclusions: its dense representation holds one N x N matrix per basis
# element, N^3 entries.
DENSE_GNS_CAP = 128


def _check_levels(levels) -> int:
    """``levels`` as an ``int``, when it is an integer (not a bool) >= 0."""
    if not isinstance(levels, (int, np.integer)) or isinstance(levels, bool) or levels < 0:
        raise ValidationError(f"levels must be an integer >= 0, got {levels!r}")
    return int(levels)


class GapSequence:
    """A Cantor-set presentation: outer interval plus removed open gaps.

    ``x0_plus``/``x0_minus`` are the minimum and maximum of the set; entry n
    of ``gaps`` (1-based in formulas, 0-based here) is the open interval
    (x_{n,-}, x_{n,+}).  Lengths must be nonincreasing: the strictly
    decreasing requirement would exclude standard examples with repeated
    lengths, and every formula used downstream holds verbatim for ties.
    Each length l and its reciprocal, the Dirac weight 1/l, must be finite.
    """

    def __init__(self, x0_plus: float, x0_minus: float, gaps: tuple[tuple[float, float], ...]):
        if not (x0_plus < x0_minus):
            raise ValidationError("outer interval must have positive length")
        lengths = [x0_minus - x0_plus]
        endpoints = [x0_plus, x0_minus]
        for left, right in gaps:
            if not (x0_plus < left < right < x0_minus):
                raise ValidationError("gap must lie strictly inside the outer interval")
            lengths.append(right - left)
            endpoints.extend([left, right])
        for (left, right), length in zip(((x0_plus, x0_minus), *gaps), lengths):
            if not (math.isfinite(length) and math.isfinite(1.0 / length)):
                raise ValidationError(
                    f"gap ({left!r}, {right!r}) has length {length!r}; a gap length and its reciprocal must be finite"
                )
        for a, b in zip(lengths, lengths[1:]):
            if b > a * (1.0 + LENGTH_ORDER_SLACK) + LENGTH_ORDER_SLACK:
                raise ValidationError("gap lengths must be nonincreasing")
        ordered = sorted(gaps)
        for (l1, r1), (l2, r2) in zip(ordered, ordered[1:]):
            if l2 < r1:
                raise ValidationError("gaps must be pairwise disjoint")
        if len(set(endpoints)) != len(endpoints):
            raise ValidationError("gap endpoints must be pairwise distinct (no isolated points)")
        self.x0_plus = x0_plus
        self.x0_minus = x0_minus
        self.gaps = gaps

    @property
    def n_gaps(self) -> int:
        return len(self.gaps)

    @property
    def lengths(self) -> np.ndarray:
        out = [self.x0_minus - self.x0_plus]
        out.extend(right - left for left, right in self.gaps)
        return np.array(out)

    def plus_point(self, n: int) -> float:
        return self.x0_plus if n == 0 else self.gaps[n - 1][1]

    def minus_point(self, n: int) -> float:
        return self.x0_minus if n == 0 else self.gaps[n - 1][0]

    def plus_points(self, j: int) -> list[float]:
        return [self.plus_point(n) for n in range(j + 1)]


def middle_thirds(levels: int) -> GapSequence:
    """Middle-thirds gaps of [0, 1], enumerated by nonincreasing length.

    Ties (all gaps of one subdivision depth) are broken by ascending left
    endpoint; endpoints are computed from exact triadic integers so that
    repeated evaluations agree bitwise.
    """
    levels = _check_levels(levels)
    gaps: list[tuple[float, float]] = []
    kept = [0]  # numerators p of kept intervals [p, p+1] / 3^depth
    depth = 0
    while len(gaps) < levels:
        depth += 1
        scale = 3**depth
        new_kept = []
        for p in sorted(kept):
            new_kept.extend([3 * p, 3 * p + 2])
            gaps.append(((3 * p + 1) / scale, (3 * p + 2) / scale))
        kept = new_kept
    return GapSequence(0.0, 1.0, tuple(gaps[:levels]))


def theta(seq: GapSequence, j: int, x: float) -> float:
    """Largest x_{n,+} <= x among levels n = 0..j."""
    return seq.plus_point(theta_index(seq, j, x))


def theta_index(seq: GapSequence, j: int, x: float) -> int:
    j = _check_levels(j)
    if j > seq.n_gaps:
        raise ValidationError(f"level {j} exceeds available gaps ({seq.n_gaps})")
    best = None
    best_val = None
    for n in range(j + 1):
        v = seq.plus_point(n)
        if v <= x and (best_val is None or v > best_val):
            best, best_val = n, v
    if best is None:
        raise ValidationError(f"x = {x:g} lies below the set minimum {seq.x0_plus:g}")
    return best


def cantor_system(seq: GapSequence, levels: int, with_grading: bool = True) -> InductiveSystem:
    """Inductive system of Cantor triples at levels 0..levels.

    Level j acts on the 2(j+1) gap endpoints; the Dirac operator swaps each
    endpoint pair with weight 1/l_n, so ||D_j|| = 1/l_j, and the optional
    grading is the unweighted swap.
    """
    levels = _check_levels(levels)
    if seq.n_gaps < levels:
        raise ValidationError(f"gap sequence has {seq.n_gaps} gaps, need {levels}")
    lengths = seq.lengths
    # Row n holds the pair (x_{n,+}, x_{n,-}) of level n; the plus points are
    # pairwise distinct and every endpoint is >= x_{0,+} = min, so theta_j of
    # a point is the last plus point of levels 0..j, in sorted order, <= it.
    ends = np.array([(seq.x0_plus, seq.x0_minus)] + [(r, l) for l, r in seq.gaps[:levels]], dtype=float)
    plus = ends[:, 0]
    # Python's sort: np.argsort on floats maps numpy's SIMD sort code, about
    # 0.45 MB more peak RSS for a whole `build` or `report` process.
    by_value = np.array(sorted(range(levels + 1), key=plus.__getitem__))
    triples, maps = [], []
    for j in range(levels + 1):
        dim = 2 * (j + 1)
        coords = ends[: j + 1].ravel()
        order = by_value[by_value <= j]
        # theta_j of the level's endpoints, then of level j+1's plus points.
        thetas = order[np.searchsorted(plus[order], np.concatenate([coords, plus[: j + 2]]), side="right") - 1]
        maps.append(thetas[dim:])
        swap = np.arange(dim), np.arange(dim) ^ 1
        dirac = np.zeros((dim, dim))
        dirac[swap] = np.repeat(1.0 / lengths[: j + 1], 2)
        grading = np.zeros((dim, dim))
        grading[swap] = 1.0
        meta = {"kind": "cantor", "level": j, "points": plus[: j + 1].tolist(), "coords": coords.tolist()}
        rep = diagonal_representation(FiniteCStarAlgebra((1,) * (j + 1)), thetas[:dim])
        triples.append(FiniteSpectralTriple(rep, dirac, grading=grading if with_grading else None, meta=meta))
    links = []
    for j in range(levels):
        source, target = triples[j], triples[j + 1]
        phi = StarHomomorphism(source.algebra, target.algebra, spectrum_map=maps[j])
        links.append(TripleMorphism(source, target, phi, np.eye(target.hilbert_dim, source.hilbert_dim)))
    provenance = {
        "kind": "cantor",
        "lengths": [float(v) for v in lengths[: levels + 1]],
    }
    return InductiveSystem(tuple(triples), tuple(links), provenance)


class AfChain:
    """Increasing chain A_0 = C <= A_1 <= ... with a faithful state on top.

    The state lives on the last algebra and is restricted downward along the
    inclusions when a shorter system is built; faithfulness at the top
    implies it on every subalgebra.
    """

    def __init__(
        self,
        algebras: tuple[FiniteCStarAlgebra, ...],
        inclusions: tuple[StarHomomorphism, ...],
        state: State,
        alphas: tuple[float, ...],
    ):
        if len(algebras) < 1:
            raise ValidationError("chain needs at least one algebra")
        if algebras[0].block_dims != (1,):
            raise ValidationError("chain must start at the scalars A_0 = C")
        if len(inclusions) != len(algebras) - 1:
            raise ValidationError("chain needs one inclusion per adjacent pair")
        for j, inc in enumerate(inclusions):
            if inc.source.block_dims != algebras[j].block_dims:
                raise ValidationError(f"inclusion {j} source mismatch")
            if inc.target.block_dims != algebras[j + 1].block_dims:
                raise ValidationError(f"inclusion {j} target mismatch")
        if state.algebra.block_dims != algebras[-1].block_dims:
            raise ValidationError("state must live on the top algebra of the chain")
        alphas = tuple(float(a) for a in alphas)
        if len(alphas) < len(algebras) - 1:
            raise ValidationError("need one alpha per chain step")
        for j, a in enumerate(alphas):
            if not math.isfinite(a) or a == 0.0:
                raise ValidationError(f"alpha {j} must be finite and nonzero, got {a!r}")
        self.algebras = algebras
        self.inclusions = inclusions
        self.state = state
        self.alphas = alphas

    @property
    def top_level(self) -> int:
        return len(self.algebras) - 1

    @property
    def is_commutative(self) -> bool:
        return all(a.is_commutative for a in self.algebras) and all(
            inc.spectrum_map is not None for inc in self.inclusions
        )

    def composed_inclusion(self, j: int, k: int) -> StarHomomorphism:
        if j == k:
            return StarHomomorphism.identity(self.algebras[j])
        out = self.inclusions[j]
        for step in range(j + 1, k):
            out = hom_compose(self.inclusions[step], out)
        return out


def commutative_af_chain(branching, weights, alphas) -> AfChain:
    """Chain of diagonal algebras from finite-set surjections.

    ``branching[i]`` maps the points of level i+1 onto the points of level
    i; ``weights`` is a faithful probability vector on the top point set.
    """
    maps = [np.asarray(b, dtype=int).ravel() for b in branching]
    sizes = [1] + [m.shape[0] for m in maps]
    algebras = [FiniteCStarAlgebra((1,) * s) for s in sizes]
    inclusions = []
    for i, m in enumerate(maps):
        if m.size and (m.min() < 0 or m.max() >= sizes[i]):
            raise ValidationError(f"branching map {i} has values outside the parent point set")
        hit = np.zeros(sizes[i], dtype=bool)
        hit[m] = True
        if not hit.all():
            raise ValidationError(
                f"branching map {i} misses a parent point (pullback would not be injective)"
            )
        inclusions.append(
            StarHomomorphism(algebras[i], algebras[i + 1], spectrum_map=m)
        )
    state = State.from_weights(algebras[-1], weights)
    return AfChain(tuple(algebras), tuple(inclusions), state, tuple(alphas))


def binary_branching(levels: int) -> list[np.ndarray]:
    levels = _check_levels(levels)
    return [np.arange(2 ** (i + 1)) // 2 for i in range(levels)]


def _pull_back(inc: StarHomomorphism, rho: np.ndarray) -> np.ndarray:
    """Density of tau o inc from the density ``rho`` of tau."""
    if inc.spectrum_map is not None:
        out = np.zeros(inc.source.n_points, dtype=rho.dtype)
        np.add.at(out, inc.spectrum_map, rho)
        return out
    # tau(phi(a)) = <rho, M a> = <M* rho, a> for the coordinate matrix M of phi.
    return dagger(inc.matrix) @ rho


def _restrict_state(chain: AfChain, level: int) -> State:
    """Pull the top state back to the level algebra along the inclusions."""
    if level == chain.top_level:
        return chain.state
    algebra = chain.algebras[level]
    inc = chain.composed_inclusion(level, chain.top_level)
    if inc.spectrum_map is not None:
        return State.from_weights(algebra, _pull_back(inc, chain.state.weights))
    return State(algebra, AlgebraElement(algebra, _pull_back(inc, chain.state.density.coordinates)))


def ci_system(chain: AfChain, levels: int) -> InductiveSystem:
    """Christensen-Ivan system truncated at the given level.

    Level j is the GNS space of (A_j, tau_j), tau_j the restricted state, in
    orthonormal coordinates C_j* x (gram = C_j C_j*), with A_j acting by left
    multiplication.  The link L_j maps eta_j(x) to eta_{j+1}(iota(x)), and
    D_{j+1} = L_j D_j L_j* + alpha_j (1 - L_j L_j*), so D_k agrees with D_j
    on the range of the composed links for k >= j.
    """
    levels = _check_levels(levels)
    if levels > chain.top_level:
        raise ValidationError(f"chain has top level {chain.top_level}, requested {levels}")
    points = chain.is_commutative
    algebras, incs = chain.algebras[: levels + 1], chain.inclusions[:levels]
    if not points and algebras[-1].element_dim > DENSE_GNS_CAP:
        raise ValidationError(
            f"dense GNS construction capped at element dimension {DENSE_GNS_CAP}; "
            "use a commutative chain (spectrum maps) for larger systems"
        )
    top = _restrict_state(chain, levels)
    rhos = [None] * levels + [top.weights if points else top.density.coordinates]
    for j in range(levels, 0, -1):
        rhos[j - 1] = _pull_back(incs[j - 1], rhos[j])
    if not points:
        # A non-injective inclusion leaves a density that is not faithful.
        spaces = [gns(a, State(a, AlgebraElement(a, rho))) for a, rho in zip(algebras, rhos)]

    isometries, diracs = [], [np.zeros((1, 1))]
    for j, inc in enumerate(incs):
        alpha = chain.alphas[j]
        if points:
            # Point coordinates are the GNS coordinates of a commutative level.
            # Each link has one nonzero per row: point q of level j+1 maps to
            # sigma(q) with weight a_q = sqrt(w_{j+1}(q) / w_j(sigma(q))).  So
            # L D L* is a gather of D scaled by a on both sides, and L L* is
            # a_q a_q' on pairs of points in the same fibre, 0 elsewhere: the
            # update alpha (1 - L L*) touches the fibre blocks only.  Every
            # entry gets the bits of the dense form L D L* + alpha (1 - L L*).
            sigma = inc.spectrum_map
            a = np.sqrt(rhos[j + 1] / rhos[j][sigma])
            iso = np.zeros((sigma.size, rhos[j].size))
            iso[np.arange(sigma.size), sigma] = a
            d = diracs[j][np.ix_(sigma, sigma)]
            d *= a[:, None]
            d *= a[None, :]
            rows, cols = np.nonzero(sigma[:, None] == sigma[None, :])
            fibres = d[rows, cols] + alpha * ((rows == cols) - a[rows] * a[cols])
            # Off the fibres the dense form adds alpha * 0.0, which turns a
            # -0.0 into +0.0 when alpha > 0.
            d += alpha * 0.0
            d[rows, cols] = fibres
        else:
            # L = C_{j+1}* M C_j^{-*}, whose adjoint C_j^{-1} M* C_{j+1} is one
            # solve.  Adding 0.0 turns the -0.0 imaginary parts that the
            # adjoint leaves into +0.0, so a real link is stored as float64.
            iso = dagger(np.linalg.solve(spaces[j].chol, dagger(inc.as_matrix()) @ spaces[j + 1].chol)) + 0.0
            d = iso @ diracs[j] @ dagger(iso) + alpha * (np.eye(len(iso)) - iso @ dagger(iso))
        isometries.append(iso)
        d = d + dagger(d)
        d *= 0.5
        diracs.append(d)

    triples = []
    for j, algebra in enumerate(algebras):
        if points:
            rep = diagonal_representation(algebra, np.arange(algebra.n_points))
        else:
            # Left multiplication is a (x) 1 on each block, which commutes with
            # C_j = 1 (x) c: it is the same matrix in orthonormal coordinates.
            rep = dense_representation(algebra, [spaces[j].left_mult_matrix(e) for e in algebra.basis()])
        meta = {"kind": "christensen-ivan", "level": j}
        triples.append(FiniteSpectralTriple(rep, diracs[j], meta=meta))
    links = [
        TripleMorphism(triples[j], triples[j + 1], incs[j], isometries[j])
        for j in range(levels)
    ]
    provenance = {
        "kind": "christensen-ivan",
        "alphas": [float(a) for a in chain.alphas[:levels]],
    }
    return InductiveSystem(tuple(triples), tuple(links), provenance)


def random_gap_sequence(rng: np.random.Generator, levels: int) -> GapSequence:
    """Random Cantor-style gap data with distinct, well-separated lengths."""
    levels = _check_levels(levels)
    intervals = [(0.0, 1.0)]
    gaps: list[tuple[float, float]] = []
    while len(gaps) < max(levels, 1):
        nxt = []
        for a, b in intervals:
            width = b - a
            frac = rng.uniform(0.25, 0.45)
            off = rng.uniform(0.15, 0.9 - frac)
            left = a + off * width
            right = left + frac * width
            gaps.append((left, right))
            nxt.extend([(a, left), (right, b)])
        intervals = nxt
    gaps.sort(key=lambda g: (-(g[1] - g[0]), g[0]))
    return GapSequence(0.0, 1.0, tuple(gaps[:levels]))


def random_af_chain(
    rng: np.random.Generator,
    levels: int,
    max_points: int = 64,
    alpha_kind: str = "random",
) -> AfChain:
    """Random commutative chain with separated alpha magnitudes."""
    levels = _check_levels(levels)
    sizes = [1]
    branching = []
    for _ in range(levels):
        fibers = []
        parents = sizes[-1]
        for p in range(parents):
            k = int(rng.integers(1, 3))
            remaining_parents = parents - p - 1
            k = max(1, min(k, max_points - len(fibers) - remaining_parents))
            fibers.extend([p] * k)
        branching.append(np.array(fibers))
        sizes.append(len(fibers))
    weights = rng.uniform(0.2, 1.0, size=sizes[-1])
    weights = weights / weights.sum()
    base = 0.6 + 0.4 * rng.random(levels)
    if alpha_kind == "increasing":
        mags = np.cumsum(base) + 0.5
    elif alpha_kind == "bounded":
        mags = 1.0 + 0.03 * np.arange(levels)
    else:
        mags = 0.5 + 0.45 * np.arange(levels) + 0.1 * rng.random(levels)
        rng.shuffle(mags)
    signs = rng.choice([-1.0, 1.0], size=levels)
    return commutative_af_chain(branching, weights, signs * mags)


def random_commutative_system(rng: np.random.Generator, max_dim: int = 64) -> InductiveSystem:
    """Random valid commutative system (Cantor-style or Christensen-Ivan)."""
    if rng.random() < 0.5:
        levels = int(rng.integers(1, 6))
        return cantor_system(random_gap_sequence(rng, levels), levels)
    levels = int(rng.integers(1, 6))
    chain = random_af_chain(rng, levels, max_points=max_dim)
    return ci_system(chain, levels)

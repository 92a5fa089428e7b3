"""Convergence diagnostics for the compact-resolvent and bounded-commutator
conditions.

The resolvent gap ||I_{j,J} R_lam(D_j) I_{j,J}* - R_lam(D_J)|| is computed
by two independent routes, whose agreement is the module's central
cross-check; it is what catches a Lanczos run that stopped on a singular
value below the top one, or a link that does not intertwine the Dirac
operators.  The direct route is a Lanczos estimate of the norm in the
ambient eigenbasis U: it reads the realization's cached rotation
W_j = U* I_{j,J} V_j, and the direct gap of a probe g is the norm of
W_j g(Lambda_j) W_j* - g(Lambda_J), which equals the norm above because U
is unitary, and is applied to vectors without being formed.  The
eigenprojection route reads only the links and the level Dirac operators:
when every link intertwines them, D_J commutes with P_j, the gap is
||R_lam(D_J)(1 - P_j)||, and that is the largest |R_lam| over the
increment spectra of the levels above j.
Commutator series track ||[D_k, pi_k(phi_{j,k}(a))]|| over k >= j, which
is nondecreasing for valid systems.  The default ST2 probe tracks every
basis element of the probed levels.  When every representation and link is
a spectrum map, the pullback of a level-j basis element to level k is the
indicator of a fibre S of the level-k coordinate labels composed down to
level j, and its norm is the larger of those of the cut blocks D_k[S, S^c]
and D_k[S^c, S], so one pass per level pair gives every fibre
(``triple._cut_norms``).  Dense representations keep one
``commutator_series`` per element, which is the oracle of the fibre route
in the tests.

Verdicts are explicitly heuristic: a finite truncation can only report
trends, never prove a limit statement, and every verdict carries that
caveat.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .algebra import AlgebraElement
from .errors import ValidationError
from .inductive import InductiveSystem, Realization
from .linalg import (
    adjoint_matvec,
    function_values,
    lanczos_operator_norm,
    lanczos_start,
    matvec,
    operator_norm,  # noqa: F401 (unused here, but the benchmark's trace pass wraps this name)
    resolvent_values,
    scale_exponent,
    times_pow2,
    unscaled,
)
from .triple import commutator_norm, _cut_norms

# Verdict heuristics: absolute smallness threshold and tail window length
# (``st1 --threshold`` and ``--window`` set them), the decay factor a
# falling tail must achieve, and the largest relative rise over the window
# that still counts a commutator series as stalled.
VERDICT_THRESHOLD = 1e-3
VERDICT_WINDOW = 5
VERDICT_DECAY = 0.9
STALL_TOL = 1e-9
# Tolerance for monotonicity statements about diagnostic series.
MONOTONE_TOL = 1e-9
# Largest |direct - eigenprojection| gap difference the ST1 cross-check of
# `st1` and `report` accepts without a warning.
GAP_DELTA_TOL = 1e-9

CAVEAT = (
    "heuristic verdict from a finite truncation: trends at probed levels "
    "cannot prove or refute a statement about the inductive limit"
)

# Continuous probe functions vanishing at infinity, by CLI-stable name.
FUNCTION_PROBES: dict[str, Callable[[float], float]] = {
    "one_over_one_plus_x2": lambda x: 1.0 / (1.0 + x * x),
    "gaussian": lambda x: math.exp(-x * x),
    "x_over_one_plus_x2": lambda x: x / (1.0 + x * x),
}

# Default non-real resolvent probes.
DEFAULT_LAMBDAS = (1j, 2j, 1 + 1j)


def _check_nonreal(lam: complex) -> complex:
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValidationError(f"resolvent probe must be finite, got {lam:g}")
    if lam.imag == 0.0:
        raise ValidationError(f"resolvent probe {lam:g} is real; probes must be non-real")
    return lam


def _check_positive(name: str, value: float, allow_zero: bool = False) -> None:
    """Reject a non-finite or negative number, and zero unless ``allow_zero``."""
    if not math.isfinite(value) or value < 0.0 or (value == 0.0 and not allow_zero):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValidationError(f"{name} must be finite and {bound}, got {value!r}")


def _check_window(name: str, window) -> None:
    """Reject a verdict window that is not an integer (a bool is not) or is below 2."""
    if not isinstance(window, (int, np.integer)) or isinstance(window, bool):
        raise ValidationError(f"{name} must be an integer, got {window!r}")
    if window < 2:
        raise ValidationError(f"{name} must be at least 2, got {window!r}")


def _embedded_gap(r: Realization, j: int, inner: np.ndarray, outer: np.ndarray, probe: str) -> float:
    """||W_j diag(inner) W_j* - diag(outer)||, the direct gap of a probe g
    with inner = g(Lambda_j) and outer = g(Lambda_J).

    The operator is never formed: Lanczos applies it as
    x -> W_j (inner o (W_j* x)) - outer o x, from the ambient-eigenbasis
    image U* q of the start vector q that the matrix form I g(D_j) I* - g(D_J)
    would use, so the Krylov spaces correspond.  The values are first
    scaled by one power of two, so that no Gram product can overflow or
    underflow.  A norm beyond the float range raises ``ValidationError``
    naming ``probe``.  A real W_j is applied to the complex Lanczos vectors
    by ``matvec`` and ``adjoint_matvec``, one real product each.
    """
    w = r.rotation(j)
    u = r.ambient_decomposition().vectors
    e = scale_exponent(max(float(np.max(np.abs(inner))), float(np.max(np.abs(outer)))))
    inner, outer = times_pow2(inner, -e), times_pow2(outer, -e)
    inner_c, outer_c = inner.conj(), outer.conj()

    def gram(x):
        y = matvec(w, inner * adjoint_matvec(w, x)) - outer * x
        return matvec(w, inner_c * adjoint_matvec(w, y)) - outer_c * y

    norm = unscaled(lanczos_operator_norm(gram, adjoint_matvec(u, lanczos_start(u.shape[0]))), e)
    if not math.isfinite(norm):
        raise ValidationError(f"{probe} gives a gap norm beyond the float range at level {j}")
    return norm


def _probe_gap(r: Realization, j: int, g: Callable[[np.ndarray], np.ndarray], probe: str) -> float:
    # The level's values first: a probe whose resolvent overflows there is
    # named for that before the ambient spectrum's rounding check refuses it.
    # At j = J that check has run on the ambient spectrum itself, and the gap
    # is 0 (I_{J,J} = 1), so W_J is never formed.
    inner = g(r.level_decomposition(j).eigenvalues)
    if j == r.level:
        return 0.0
    return _embedded_gap(r, j, inner, g(r.ambient_decomposition().eigenvalues), probe)


def resolvent_gap(r: Realization, j: int, lam: complex) -> float:
    """Direct norm of I_{j,J} R_lam(D_j) I_{j,J}* - R_lam(D_J)."""
    j, lam = r.system.check_level(j), _check_nonreal(lam)
    return _probe_gap(r, j, partial(resolvent_values, lam=lam), f"probe lambda={lam}")


def resolvent_gap_eigen(r: Realization, j: int, lam: complex) -> float:
    """Eigenprojection route: the largest |R_lam| over the increment spectra
    of levels j+1..J (see ``Realization.increment_spectrum``), 0 at j = J.

    Each level's peak is kept in ``r.increment_peaks``, so the gaps of one
    probe at every j read each increment spectrum once.  The levels are
    walked upwards, so a probe that fails on a spectrum fails at the lowest
    level it is read at.
    """
    j, lam = r.system.check_level(j), _check_nonreal(lam)
    peaks, above = r.increment_peaks, range(j + 1, r.level + 1)
    for k in above:
        if (k, lam) not in peaks:
            s = r.increment_spectrum(k)
            peaks[k, lam] = float(np.max(np.abs(resolvent_values(s, lam)))) if s.size else 0.0
    return max((peaks[k, lam] for k in above), default=0.0)


def function_gap(r: Realization, j: int, f: Callable[[float], float]) -> float:
    """Norm of I_{j,J} f(D_j) I_{j,J}* - f(D_J) for a vanishing-at-infinity f."""
    j = r.system.check_level(j)
    return _probe_gap(r, j, partial(function_values, f=f), f"function probe {f!r}")


class GapSeries:
    """Gap values over levels j, for one resolvent or function probe."""

    def __init__(
        self,
        kind: str,
        ambient_level: int,
        entries: tuple[tuple[int, float], ...],
        lam: complex | None = None,
        f_name: str | None = None,
        analytic_bounds: tuple[float | None, ...] | None = None,
    ):
        for _, v in entries:
            if not (np.isfinite(v) and v >= 0.0):
                raise ValidationError("gap values must be finite and nonnegative")
        for j, v in entries:
            if j == ambient_level and v > 1e-12:
                raise ValidationError("gap at the ambient level must vanish (P_J = 1)")
        self.kind = kind  # "resolvent" | "function"
        self.ambient_level = ambient_level
        self.entries = entries
        self.lam = lam
        self.f_name = f_name
        self.analytic_bounds = analytic_bounds

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)


def _cantor_bound(lengths: Sequence[float], j: int, lam: complex) -> float | None:
    # The closed-form bound <= l_j holds for purely imaginary probes; for
    # probes with a real part it can fail, so the truncated supremum formula
    # is reported instead.
    if lam.real == 0.0:
        return float(lengths[j]) if j < len(lengths) else None
    tail = [1.0 / abs(1.0 / l - lam) for l in lengths[j + 1 :]]
    return max(tail) if tail else None


def _ci_bound(alphas: Sequence[float], j: int, lam: complex) -> float | None:
    tail = [1.0 / abs(a - lam) for a in alphas[j:]]
    return max(tail) if tail else None


def analytic_gap_bound(system: InductiveSystem, j: int, lam: complex) -> float | None:
    """Closed-form gap bound for recognized generated systems, else None.

    A probe so large that its distance to a spectral point overflows raises
    ``ValidationError``.
    """
    j, lam = system.check_level(j), _check_nonreal(lam)
    kind = system.provenance.get("kind")
    try:
        if kind == "cantor":
            return _cantor_bound(system.provenance["lengths"], j, lam)
        if kind == "christensen-ivan":
            return _ci_bound(system.provenance["alphas"], j, lam)
    except OverflowError:
        raise ValidationError(f"probe lambda={lam} is too large: its distance to the spectrum overflows") from None
    return None


def gap_series(
    r: Realization,
    lam: complex | None = None,
    f_name: str | None = None,
    j_range: Sequence[int] | None = None,
) -> GapSeries:
    """Series of gaps over j for one probe (resolvent lam or named function):
    ``resolvent_gap`` or ``function_gap`` at each level."""
    if (lam is None) == (f_name is None):
        raise ValidationError("give exactly one of lam / f_name")
    levels = list(range(r.level + 1)) if j_range is None else sorted({r.system.check_level(j) for j in j_range})
    if lam is None:
        if f_name not in FUNCTION_PROBES:
            raise ValidationError(f"unknown probe function {f_name!r}; known: {sorted(FUNCTION_PROBES)}")
        entries = tuple((j, function_gap(r, j, FUNCTION_PROBES[f_name])) for j in levels)
        return GapSeries("function", r.level, entries, f_name=f_name)
    lam = _check_nonreal(lam)
    entries = tuple((j, resolvent_gap(r, j, lam)) for j in levels)
    bounds = tuple(
        analytic_gap_bound(r.system, j, lam) if j < r.level else 0.0 for j in levels
    )
    return GapSeries("resolvent", r.level, entries, lam=lam, analytic_bounds=bounds)


class CommutatorSeries:
    """||[D_k, pi_k(phi_{j,k}(a))]|| for k = j..J, nondecreasing."""

    def __init__(self, base_level: int, entries: tuple[tuple[int, float], ...]):
        values = [v for _, v in entries]
        scale = max(1.0, max(values, default=0.0))
        for a, b in zip(values, values[1:]):
            if b < a - MONOTONE_TOL * scale:
                raise ValidationError(
                    "commutator series decreased along k; pullbacks by isometries "
                    "can only contract norms, so the system data is inconsistent"
                )
        self.base_level = base_level
        self.entries = entries

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)

    @property
    def sup(self) -> float:
        return max((v for _, v in self.entries), default=0.0)


def commutator_series(system: InductiveSystem, j: int, a: AlgebraElement) -> CommutatorSeries:
    """Track the commutator norm of one level-j element up to the top level."""
    j, top = system.check_level(j), system.top_level
    if a.algebra.block_dims != system.triples[j].algebra.block_dims:
        raise ValidationError(f"element does not belong to the level-{j} algebra")
    entries = []
    current = a
    for k in range(j, top + 1):
        entries.append((k, commutator_norm(system.triples[k], current)))
        if k < top:
            current = system.links[k].phi.apply(current)
    return CommutatorSeries(j, tuple(entries))


class Verdict:
    """Heuristic classification with trend evidence; always carries the caveat."""

    def __init__(self, classification: str, evidence: dict, caveat: str = CAVEAT):
        self.classification = classification  # "consistent" | "inconsistent" | "inconclusive"
        self.evidence = evidence
        self.caveat = caveat


def _nondecreasing(values: list[float]) -> bool:
    """Whether no step falls by more than MONOTONE_TOL, relative to max(1, max value)."""
    scale = max(1.0, max(values))
    return all(b >= a - MONOTONE_TOL * scale for a, b in zip(values, values[1:]))


def st1_verdict(
    series: GapSeries, threshold: float = VERDICT_THRESHOLD, window: int = VERDICT_WINDOW
) -> Verdict:
    """Trend classification of a gap series.

    The tail (last ``window`` entries, excluding the structurally-zero
    ambient level) is called consistent when it is nonincreasing and either
    already below ``threshold`` or still decaying by at least the
    ``VERDICT_DECAY`` factor across the window.  A nondecreasing tail above
    ``threshold`` is inconsistent when the whole interior series is
    nondecreasing too; after an earlier decrease it may be a plateau (the
    Cantor gaps of one subdivision depth have equal lengths), so it is
    inconclusive.  Anything else is inconclusive.  ``threshold`` must be
    finite and positive, and ``window`` an integer of at least 2.
    """
    _check_positive("threshold", threshold)
    _check_window("window", window)
    if not series.entries:
        raise ValidationError("empty gap series")
    interior = [(j, v) for j, v in series.entries if j != series.ambient_level]
    tail = interior[-window:]
    values = [v for _, v in tail]
    evidence = {
        "kind": series.kind,
        "last_value": float(values[-1]) if values else 0.0,
        "max_value": float(max((v for _, v in series.entries), default=0.0)),
        "tail_levels": [int(j) for j, _ in tail],
        "threshold": threshold,
        "window": window,
    }
    if len(values) < 2:
        evidence["reason"] = "fewer than two informative entries"
        return Verdict("inconclusive", evidence)
    scale = max(1.0, max(values))
    nonincreasing = all(b <= a + MONOTONE_TOL * scale for a, b in zip(values, values[1:]))
    nondecreasing = _nondecreasing(values)
    tail_ratio = values[-1] / values[0] if values[0] > 0 else 0.0
    evidence["tail_nonincreasing"] = bool(nonincreasing)
    evidence["tail_nondecreasing"] = bool(nondecreasing)
    evidence["tail_ratio"] = float(tail_ratio)
    if nonincreasing and values[-1] <= threshold:
        evidence["reason"] = "tail nonincreasing and below threshold"
        return Verdict("consistent", evidence)
    if nondecreasing and values[-1] > threshold:
        if _nondecreasing([v for _, v in interior]):
            evidence["reason"] = "tail stalled or growing above threshold"
            return Verdict("inconsistent", evidence)
        evidence["reason"] = "tail stalled or growing above threshold after an earlier decrease"
        return Verdict("inconclusive", evidence)
    if nonincreasing and tail_ratio <= VERDICT_DECAY:
        evidence["reason"] = f"tail decayed by factor {tail_ratio:.3g} <= {VERDICT_DECAY}"
        return Verdict("consistent", evidence)
    evidence["reason"] = "no clear trend across the window"
    return Verdict("inconclusive", evidence)


def st2_verdict(series_set: Sequence[CommutatorSeries], bound: float | None = None) -> Verdict:
    """Uniform-boundedness classification for a family of commutator series.

    Consistent when every series stabilizes over its last ``VERDICT_WINDOW``
    entries (or stays below a caller-set bound); a series still strictly
    growing at the end of the probed range (and above the bound, if any) is
    inconsistent.  A series with fewer than two entries that is not below the
    bound carries no trend, so it makes the verdict inconclusive.  A
    ``bound`` must be finite and nonnegative.
    """
    if bound is not None:
        _check_positive("bound", bound, allow_zero=True)
    if not series_set:
        raise ValidationError("empty commutator series collection")
    sups = [float(s.sup) for s in series_set]
    evidence = {
        "n_series": len(series_set),
        "per_series_sup": sups,
        "bound": bound,
        "window": VERDICT_WINDOW,
    }
    growing = []
    for idx, s in enumerate(series_set):
        values = list(s.values)[-VERDICT_WINDOW:]
        scale = max(1.0, max(values, default=0.0))
        stabilized = len(values) >= 2 and (values[-1] - values[0]) <= STALL_TOL * scale
        below_bound = bound is not None and s.sup <= bound
        if len(values) < 2 and not below_bound:
            evidence["reason"] = f"series {idx} has fewer than two entries"
            return Verdict("inconclusive", evidence)
        if not (stabilized or below_bound):
            growing.append(idx)
    if not growing:
        evidence["reason"] = "every series stabilized or stayed below the bound"
        return Verdict("consistent", evidence)
    evidence["growing_series"] = growing
    evidence["reason"] = "series still growing at the end of the probed range"
    return Verdict("inconsistent", evidence)


def _fibre_norms(system: InductiveSystem, levels: Sequence[int]) -> dict[tuple[int, int], list[float]]:
    """||[D_k, pi_k(phi_{j,k}(e_i))]|| over the points i of each level j in
    ``levels``, keyed by (j, k) for every k >= j, when every representation
    and link is a spectrum map.

    pi_k(phi_{j,k}(e_i)) is the indicator of the fibre over point i of the
    level-k coordinate labels composed down to level j, one gather per link,
    so one ``_cut_norms`` pass per level k gives every fibre of every pair,
    from both cut blocks of each fibre, or one when D_k is exactly Hermitian.
    """
    triples, links = system.triples, system.links
    probed, low = set(levels), min(levels)
    out = {}
    for k in range(low, system.top_level + 1):
        labels = triples[k].rep.spectrum_map
        partitions = {}
        for j in range(k, low - 1, -1):
            if j < k:
                labels = links[j].phi.spectrum_map[labels]
            if j in probed:
                partitions[j] = (labels, triples[j].algebra.element_dim)
        norms = _cut_norms(triples[k].dirac, list(partitions.values()))
        out.update({(j, k): v.tolist() for j, v in zip(partitions, norms)})
    return out


def default_st2_probe(system: InductiveSystem, levels: Sequence[int] | None = None) -> list[CommutatorSeries]:
    """One commutator series per basis generator of each probed level.

    By default the levels below the top are probed, so every series has at
    least two entries and carries trend information.  The series come in
    order of ``levels``, then of basis index.  When every representation and
    link is a spectrum map, the norms come from ``_fibre_norms``, whether or
    not each D_k is exactly Hermitian; otherwise each series is a
    ``commutator_series``.
    """
    top = system.top_level
    levels = list(range(top) if top > 0 else [0]) if levels is None else [system.check_level(j) for j in levels]
    maps = [t.rep.spectrum_map for t in system.triples] + [m.phi.spectrum_map for m in system.links]
    if levels and all(s is not None for s in maps):
        norms = _fibre_norms(system, levels)

        def series(j, i):
            return CommutatorSeries(j, tuple((k, norms[j, k][i]) for k in range(j, top + 1)))
    else:

        def series(j, i):
            return commutator_series(system, j, system.triples[j].algebra.basis_element(i))

    return [series(j, i) for j in levels for i in range(system.triples[j].algebra.element_dim)]

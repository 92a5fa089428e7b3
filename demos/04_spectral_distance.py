"""Spectral distance on commutative triples
===========================================

d(x, y) = sup{ |f(x) - f(y)| : ||[D, pi(f)]|| <= 1 }.  On gapwise Cantor
triples the constraint decouples into per-gap difference bounds and the
distance is a shortest path; the exhaustive vertex-enumeration LP verifies
it independently.  A coupled example exercises the barrier (SDP) solve.

To run:
    python demos/04_spectral_distance.py
"""

import numpy as np

from spectral_limits import (
    DiagonalRepresentation,
    FiniteCStarAlgebra,
    FiniteSpectralTriple,
    cantor_system,
    connes_distance,
    connes_distance_lp,
    connes_distance_with_path,
    middle_thirds,
)


def main():
    system = cantor_system(middle_thirds(4), 4)

    t1 = system.triples[1]
    value, path = connes_distance_with_path(t1, 0, 1)
    labels = t1.meta["points"]
    print(f"level 1: d(0, 2/3) = {value:.6f}")
    print("geodesic:", " -> ".join(f"{labels[p]:.4f}" for p in path))
    print("LP oracle:", f"{connes_distance_lp(t1, 0, 1):.6f}")

    # Deeper levels reroute old gap constraints through new points, so the
    # level distance between the same endpoints grows toward its limit.
    for j in (2, 3, 4):
        t = system.triples[j]
        print(f"level {j}: d(0, 2/3) = {connes_distance(t, 0, 1):.6f}")

    # All pairwise distances at level 2.
    t2 = system.triples[2]
    pts = t2.meta["points"]
    print("\nlevel-2 distance matrix (points", np.round(pts, 4), "):")
    m = len(pts)
    for x in range(m):
        row = [connes_distance(t2, x, y) for y in range(m)]
        print("  ", np.round(row, 5))

    # Coupled instance: one coordinate of point 0 interacts with two
    # coordinates of point 1; exact value 1/sqrt(a^2 + b^2).
    a, b = 2.0, 3.0
    dirac = np.array([[0, a, b], [a, 0, 0], [b, 0, 0]], dtype=complex)
    coupled = FiniteSpectralTriple(
        FiniteCStarAlgebra((1, 1)), DiagonalRepresentation(np.array([0, 1, 1]), 2), dirac
    )
    print(
        f"\ncoupled instance: d = {connes_distance(coupled, 0, 1):.8f}"
        f"  (exact 1/sqrt({a:g}^2+{b:g}^2) = {1 / np.sqrt(a * a + b * b):.8f})"
    )


if __name__ == "__main__":
    main()

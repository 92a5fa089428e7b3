"""Cantor-set inductive system
==============================

Builds the middle-thirds gap sequence, assembles the level triples with
their gapwise-swap Dirac operators, validates every link, and checks the
finite-level strong-resolvent identity.

To run:
    python demos/01_cantor_system.py
"""

import numpy as np

from spectral_limits import (
    cantor_system,
    middle_thirds,
    operator_norm,
    realize,
    resolvent,
    system_validate,
    theta,
)
from spectral_limits.linalg import dagger


def main():
    levels = 6
    seq = middle_thirds(levels)
    print("gap lengths l_0..l_6:", np.round(seq.lengths, 6))
    print("first gaps:", [tuple(np.round(g, 4)) for g in seq.gaps[:3]])

    # theta_j collapses each point onto the closest level-j plus-endpoint
    # from below; it is what the level algebras pull functions back along.
    print("theta_1(1/3) =", theta(seq, 1, 1 / 3), " theta_1(1) =", round(theta(seq, 1, 1.0), 4))

    system = cantor_system(seq, levels)
    print("\nHilbert dimensions by level:", [t.hilbert_dim for t in system.triples])
    for j in (0, 2, 4):
        d = system.triples[j].dirac
        print(f"||D_{j}|| = {operator_norm(d):.4f} = 1/l_{j} = {1 / seq.lengths[j]:.4f}")

    report = system_validate(system)
    print("\nsystem validation:", report.summary())

    # Truncated realization: the embeddings I_{j,J} = I_{j+1,J} L_j, chained
    # down from I_{J,J} = 1, and the projections P_j = I I* inside the top
    # level; I R_lam(D_j) I* equals P_j R_lam(D_J) P_j exactly.
    r = realize(system)
    lam = 1j
    worst = 0.0
    r_top = resolvent(r.ambient.dirac, lam)
    iso = np.eye(r.ambient.hilbert_dim, dtype=complex)
    for j in range(levels, -1, -1):
        if j < levels:
            iso = iso @ system.links[j].iso
        p = iso @ dagger(iso)
        lhs = iso @ resolvent(system.triples[j].dirac, lam) @ dagger(iso)
        worst = max(worst, operator_norm(lhs - p @ r_top @ p))
    print(f"strong-resolvent identity residual over all levels: {worst:.2e}")


if __name__ == "__main__":
    main()

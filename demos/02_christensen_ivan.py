"""Christensen-Ivan systems over AF chains
==========================================

One recursion builds both chains: a commutative binary chain (in point
coordinates) and the noncommutative chain C in M_2 (each level in the
orthonormal coordinates of its own GNS space, with dense links).  Both
produce Dirac operators assembled from conditional-projection increments.

To run:
    python demos/02_christensen_ivan.py
"""

import numpy as np

from spectral_limits import (
    AfChain,
    FiniteCStarAlgebra,
    StarHomomorphism,
    State,
    binary_branching,
    ci_system,
    commutative_af_chain,
    eigh,
    gns,
    system_validate,
)


def main():
    # Binary chain C -> C^2 -> ... -> C^16 with uniform state.
    alphas = [1.0, 2.0, 3.0, 4.0]
    chain = commutative_af_chain(binary_branching(4), np.full(16, 1 / 16), alphas)
    system = ci_system(chain, 4)
    print("binary chain dims:", [t.hilbert_dim for t in system.triples])
    dec = eigh(system.triples[4].dirac)
    print("spec(D_4):", np.round(dec.eigenvalues, 6))
    print("  (alpha_i on each projection increment, 0 on the base line)")
    print("validation:", system_validate(system).summary())

    # P_j = I_{j,4} I_{j,4}*, with I_{j,4} = I_{j+1,4} L_j chained down from I_{4,4} = 1.
    isos = [np.eye(system.triples[4].hilbert_dim, dtype=complex)]
    for link in reversed(system.links):
        isos.insert(0, isos[0] @ link.iso)
    print("projection ranks:", [int(round(np.trace(iso @ iso.conj().T).real)) for iso in isos])

    # Noncommutative chain: scalars inside M_2 with the normalized trace.
    c1, m2 = FiniteCStarAlgebra((1,)), FiniteCStarAlgebra((2,))
    inc = StarHomomorphism(c1, m2, matrix=np.array([[1], [0], [0], [1]], dtype=complex))
    tau = State(m2, m2.element([np.eye(2) / 2]))
    nc_chain = AfChain((c1, m2), (inc,), tau, (5.0,))
    nc_system = ci_system(nc_chain, 1)
    print("\nC in M_2, alpha = 5:")
    # Adding 0.0 turns a rounded -0.0 into 0.0.
    print("spec(D_1):", np.round(eigh(nc_system.triples[1].dirac).eigenvalues, 9) + 0.0)

    # The GNS inner product on matrix units under the trace state.
    space = gns(m2, tau)
    print("GNS gram on matrix units (= I/2):")
    print(np.round(space.gram.real, 3))


if __name__ == "__main__":
    main()

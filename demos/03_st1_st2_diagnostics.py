"""Compact-resolvent and bounded-commutator diagnostics
=======================================================

Runs the resolvent-gap machinery on three systems: the middle-thirds Cantor
system (gaps shrink like the removed lengths), a Christensen-Ivan chain
with growing weights (gaps vanish), and one with bounded alternating
weights (gaps stall, so the limit operator cannot have compact resolvent).
Also tracks commutator-norm series, which stay constant on both families.

To run:
    python demos/03_st1_st2_diagnostics.py
"""

import numpy as np

from spectral_limits import (
    binary_branching,
    cantor_system,
    ci_system,
    commutative_af_chain,
    commutator_series,
    default_st2_probe,
    gap_series,
    middle_thirds,
    realize,
    resolvent_gap_eigen,
    st1_verdict,
    st2_verdict,
)


def show_series(name, series):
    vals = ", ".join(f"{v:.5f}" for v in series.values)
    print(f"{name}: [{vals}]")


def main():
    lam = 1j

    cantor = cantor_system(middle_thirds(8), 8)
    r = realize(cantor)
    series = gap_series(r, lam=lam)
    show_series("cantor gaps  ", series)
    print("analytic bounds (l_j):", np.round([b for b in series.analytic_bounds], 5))
    verdict = st1_verdict(series)
    print("cantor verdict:", verdict.classification, "--", verdict.evidence["reason"])
    # Eigenprojection cross-check of the direct norm: the largest |R_lam|
    # over the increment spectra of the levels above j.
    deltas = [abs(g - resolvent_gap_eigen(r, j, lam)) for j, g in series.entries]
    print(f"max |direct - eigenprojection formula| = {max(deltas):.2e}")

    grow = commutative_af_chain(binary_branching(8), np.full(256, 1 / 256), list(range(1, 9)))
    r2 = realize(ci_system(grow, 8))
    s2 = gap_series(r2, lam=lam)
    show_series("\nci alpha_j=j ", s2)
    print("verdict:", st1_verdict(s2).classification)

    alt = commutative_af_chain(
        binary_branching(8), np.full(256, 1 / 256), [(-1.0) ** j for j in range(1, 9)]
    )
    r3 = realize(ci_system(alt, 8))
    s3 = gap_series(r3, lam=lam)
    show_series("ci alpha=+-1 ", s3)
    print("verdict:", st1_verdict(s3).classification, "(stalls at 1/sqrt2 = 0.70711)")

    # Bounded-commutator side: series over k of ||[D_k, pi_k(phi_{j,k}(a))]||.
    f = cantor.triples[1].algebra.from_point_values([1.0, 0.0])
    show_series("\ncantor indicator commutators", commutator_series(cantor, 1, f))
    st2 = st2_verdict(default_st2_probe(cantor))
    print("cantor st2 verdict:", st2.classification)
    print("caveat:", st2.caveat)


if __name__ == "__main__":
    main()

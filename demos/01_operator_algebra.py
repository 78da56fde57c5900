"""Walkthrough: the exact operator kernel and the quantum symmetry algebra.

Builds the generic superintegrable system on a pseudo-sphere, verifies
that every generator commutes with the Hamiltonian, closes the quadratic
algebra with exactly zero residual, and rediscovers the linear relation
tying the second-order symmetries to H -- all in rational arithmetic
with a formal hbar.  Exits 1 when a certificate it prints is false.
"""

import itertools
import sys
from fractions import Fraction as F

from pseudosphere import (
    Metric,
    ModelParams,
    RELATION_FAMILIES,
    build_H,
    build_Q,
    verify_relation,
    discover_linear_relation,
)
from pseudosphere.model import default_indices

MINIMAL_DIMS = {"symmetry": 3, "qq_c": 3, "qc_adjacent": 3, "qc_disjoint": 4,
                "cc_share2": 4, "cc_share1": 5, "cc_disjoint": 6}


def main():
    failed = []     # every printed certificate that is false
    print("=" * 70)
    print("1. The generic system on the two-sheeted hyperboloid")
    print("=" * 70)
    metric = Metric((1, 1, -1))
    params = ModelParams.from_a((F(1, 3), F(2, 5), F(3, 7)))
    H = build_H(metric, params)
    print(f"signature {metric.signature}, a = {params.a}")
    print(f"H has {len(H.terms)} normal-ordered terms; sample:")
    for (smon, dmon), hp in H.sorted_terms()[:4]:
        print(f"  s^{smon} D^{dmon} with hbar-poly {dict(hp)}")

    print()
    print("=" * 70)
    print("2. Every relation family, exactly zero residual")
    print("=" * 70)
    for family in RELATION_FAMILIES:
        d = MINIMAL_DIMS[family]
        m = Metric((1,) * (d - 1) + (-1,))
        p = ModelParams.from_a(tuple(F(k + 1, 2 * k + 3) for k in range(d)))
        rep = verify_relation(family, default_indices(family, d), m, p)
        tag = "mod constraint" if rep.reduced else "ambient identity"
        print(f"  {family:12s} d={d}  passed={rep.passed}  ({tag}, "
              f"{rep.elapsed_ms:.0f} ms)")
        if not rep.passed:
            failed.append(f"relation {family}")

    print()
    print("=" * 70)
    print("3. The discovered linear relation, identical for every metric")
    print("=" * 70)
    coeffs = set()
    for diag in itertools.product((1, -1), repeat=3):
        rel = discover_linear_relation(Metric(diag), params)
        coeffs.add(rel.coefficients())
        print(f"  diag{diag}: alpha_ij = "
              f"{sorted(set(rel.alpha.values()))}, alpha_0 = {rel.alpha_0}, "
              f"alpha_00 = {rel.alpha_00}")
    print(f"distinct coefficient sets across 8 signatures: {len(coeffs)}")
    print("i.e.  sum Q_ij + H + sum a_i = 0  on every pseudo-sphere")
    if len(coeffs) != 1:
        failed.append("one linear relation for every metric")
    for name in failed:
        print(f"false certificate: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

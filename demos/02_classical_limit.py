"""Walkthrough: the classical twin and the hbar -> 0 correspondence.

The same symmetry algebra lives on phase space with Poisson brackets in
place of commutators.  The demo verifies the classical relations and
measures the sign with which the quantum bracket degenerates into the
classical one -- a single global constant."""

import itertools
from fractions import Fraction as F

from pseudosphere import Metric, ModelParams
from pseudosphere.phase import (
    PhasePoly,
    poisson_bracket,
    build_classical_model,
    verify_classical_relation,
    correspondence_check,
)
from pseudosphere.model import MIN_DIMENSION, default_indices


def main():
    print("=" * 70)
    print("1. Canonical brackets")
    print("=" * 70)
    s1 = PhasePoly.coord(3, 0)
    p1 = PhasePoly.momentum(3, 0)
    print(f"  {{s1, p1}} = {poisson_bracket(s1, p1)}")

    metric = Metric((1, 1, -1))
    params = ModelParams.from_a((F(1, 3), F(2, 5), F(3, 7)))
    model = build_classical_model(metric, params)
    C = model[("C", 0, 1, 2)]
    print(f"  classical C_123 = {{Q_12, Q_13}}: cubic in momenta "
          f"(top degree {max(sum(B) for (_, B) in C.terms)})")

    print()
    print("=" * 70)
    print("2. The classical relation table")
    print("=" * 70)
    for family, need in MIN_DIMENSION.items():
        d = max(3, need)
        m = Metric((1,) * (d - 1) + (-1,))
        p = ModelParams.from_a(tuple(F(k + 2, 2 * k + 3) for k in range(d)))
        r = verify_classical_relation(family, default_indices(family, d), m, p)
        print(f"  {family:12s} d={d}  passed={r['passed']}")

    print()
    print("=" * 70)
    print("3. Quantum -> classical: one global sign")
    print("=" * 70)
    for diag in itertools.product((1, -1), repeat=3):
        rep = correspondence_check(Metric(diag), params)
        print(f"  diag{diag}: consistent={rep['passed']} "
              f"sign={rep['global_sign']}")
    print("sigma((1/hbar)[X, Y]) = -{sigma X, sigma Y} for every generator "
          "pair, every signature")


if __name__ == "__main__":
    main()

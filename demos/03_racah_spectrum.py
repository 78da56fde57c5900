"""Walkthrough: the Daskaloyannis route from algebra to spectrum (d = 3).

The d=3 quadratic algebra is put in (A, B, C) form, its Casimir is
expanded and certified central, and the factorized structure function
turns finite-dimensional unitary representations into a discrete energy
spectrum -- all exact.  Exits 1 when a certificate it prints is false."""

import sys
from fractions import Fraction as F

from pseudosphere import Metric, ModelParams
from pseudosphere.racah3 import (
    structure_constants,
    verify_daskaloyannis_form,
    casimir,
    verify_casimir,
    structure_function_roots,
    find_spectrum,
    match_spectrum_to_signature,
)


def main():
    failed = []     # every printed certificate that is false
    params = ModelParams.from_l((F(1, 2), F(1, 2), F(13, 2)))

    print("=" * 70)
    print("1. Structure constants (measured against the realization)")
    print("=" * 70)
    k = structure_constants(params)
    print(f"  alpha={k.alpha} gamma={k.gamma} epsilon={k.epsilon} "
          f"a={k.a_const}")
    print(f"  delta = {k.delta[0]} + ({k.delta[1]}) h")
    print(f"  d = {k.d_const[0]},  zeta_h = {k.zeta[1]},  z_h = {k.z_const[1]}")
    for diag in [(1, 1, 1), (1, 1, -1)]:
        rep = verify_daskaloyannis_form(Metric(diag), params)
        print(f"  diag{diag}: [A,C] ok={rep['AC']}  [B,C] ok={rep['BC']}  "
              f"Q23 reconstruction ok={rep['q23_reconstruction']}")
        if not rep["passed"]:
            failed.append(f"structure-constant form, diag{diag}")

    print()
    print("=" * 70)
    print("2. Casimir: operator identity and centrality")
    print("=" * 70)
    ce = casimir(params)
    print(f"  realized K(h) coefficients: {ce.realized_form}")
    rep = verify_casimir(Metric((1, 1, -1)), params)
    print(f"  equals realized form: {rep['equals_realized']}, "
          f"central: {rep['central_A'] and rep['central_B']}")
    if not rep["passed"]:
        failed.append("Casimir")

    print()
    print("=" * 70)
    print("3. Structure function roots and the discrete spectrum")
    print("=" * 70)
    roots = structure_function_roots(params, F(7))
    print(f"  N_1..N_8 at Etilde=7: {[str(r) for r in roots]}")
    sols = find_spectrum(params, 8, sign_mode="h2")
    print(f"  l = {params.l} on H^2:")
    for s in sols:
        print(f"    p={s.p}: E = {s.E} (degeneracy {s.degeneracy}, "
              f"certified={s.certified})")
        if not s.certified:
            failed.append(f"representation p={s.p}")

    print()
    print("=" * 70)
    print("4. Which sign pattern is the surface?")
    print("=" * 70)
    rep = match_spectrum_to_signature(Metric((1, 1, -1)), params)
    print(f"  H^2: matches = {rep['matches']}")
    sphere = match_spectrum_to_signature(
        Metric((1, 1, 1)), ModelParams.from_l((F(1, 2),) * 3))
    print(f"  S^2: matches = {sphere['matches']} (global flip = overall "
          "Hamiltonian sign)")
    failed += [f"{name} match" for name, report in (("H^2", rep), ("S^2", sphere))
               if not report["passed"]]
    for name in failed:
        print(f"false certificate: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

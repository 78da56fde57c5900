"""Acceptance suite: the nine go/no-go criteria, one pass/fail line each.

Run with -s to see the per-criterion verdict lines."""

import itertools
import math
import random
import time
from fractions import Fraction as F

from pseudosphere.weylops import Metric
from pseudosphere.model import (
    ModelParams,
    RELATION_FAMILIES,
    default_indices,
    verify_relation,
    discover_linear_relation,
)
from pseudosphere.phase import verify_classical_relation, correspondence_check
from pseudosphere.racah3 import (
    LEADING_COEFF,
    analytic_spectrum_h2,
    analytic_spectrum_s2,
    verify_daskaloyannis_form,
    verify_casimir,
    m_values,
    rep_parameter_u,
    structure_function_roots,
    structure_function_eval,
    find_spectrum,
)

MINIMAL_DIMS = {"symmetry": 3, "qq_c": 3, "qc_adjacent": 3, "qc_disjoint": 4,
                "cc_share2": 4, "cc_share1": 5, "cc_disjoint": 6}


def _report(n, ok, detail):
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _random_params(rng, dim):
    return ModelParams.from_a(tuple(F(rng.randint(-4, 8), rng.randint(1, 5))
                                    for _ in range(dim)))


def test_criterion_1_exact_symmetry():
    # [H, Q_ij] = 0 for d = 3, all 8 signatures, >= 3 random parameter
    # sets each, under a minute.
    rng = random.Random(101)
    t0 = time.perf_counter()
    checked = 0
    for diag in itertools.product((1, -1), repeat=3):
        for _ in range(3):
            p = _random_params(rng, 3)
            for idx in [(0, 1), (0, 2), (1, 2)]:
                rep = verify_relation("symmetry", idx, Metric(diag), p)
                assert rep.passed, (diag, p.a, idx)
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 60,
            f"[H,Q_ij]=0 for {checked} cases over all 8 signatures "
            f"in {elapsed:.1f}s")


def test_criterion_2_algebra_closure():
    # every relation family of (sa), formal hbar, zero residual at the
    # minimal admitting dimension, under 10 minutes.
    rng = random.Random(103)
    t0 = time.perf_counter()
    for fam in RELATION_FAMILIES:
        d = MINIMAL_DIMS[fam]
        rep = verify_relation(fam, default_indices(fam, d), Metric((1,) * d),
                              _random_params(rng, d))
        assert rep.passed, fam
    elapsed = time.perf_counter() - t0
    _report(2, elapsed < 600,
            f"all {len(RELATION_FAMILIES)} families exact at minimal "
            f"dimensions (d=3..6) in {elapsed:.1f}s")


def test_criterion_3_metric_independence():
    p3 = ModelParams.from_a((F(1, 2), F(1, 3), F(1, 5)))
    rels = []
    ok = True
    for diag in itertools.product((1, -1), repeat=3):
        m = Metric(diag)
        rels.append(discover_linear_relation(m, p3).coefficients())
        for fam in ("symmetry", "qq_c", "qc_adjacent"):
            ok &= verify_relation(fam, default_indices(fam, 3), m, p3).passed
    ok &= len(set(rels)) == 1
    p4 = ModelParams.from_a((F(1, 2), F(1, 3), F(1, 5), F(1, 7)))
    four = [Metric((1, 1, 1, 1)), Metric((1, 1, -1, -1))]
    rel4 = {discover_linear_relation(m, p4).coefficients() for m in four}
    ok &= len(rel4) == 1
    for m in four:
        for fam in ("qc_adjacent", "qc_disjoint", "cc_share2"):
            ok &= verify_relation(fam, default_indices(fam, 4), m, p4).passed
    _report(3, ok, "identical (qh) coefficients and (sa) residuals across "
            "all 8 signatures at d=3 and (4,0)/(2,2) at d=4")


def test_criterion_4_classical_limit():
    rng = random.Random(107)
    ok = True
    for fam in RELATION_FAMILIES:
        d = MINIMAL_DIMS[fam]
        r = verify_classical_relation(fam, default_indices(fam, d),
                                      Metric((1,) * d), _random_params(rng, d))
        ok &= r["passed"]
    signs = set()
    for diag in itertools.product((1, -1), repeat=3):
        rep = correspondence_check(Metric(diag),
                                   ModelParams.from_a((F(1), F(2), F(3))))
        ok &= rep["passed"]
        signs.add(rep["global_sign"])
    ok &= signs == {-1}
    _report(4, ok, "all (cs) relations exact; correspondence sign is the "
            "single global constant -1")


def test_criterion_5_daskaloyannis():
    rng = random.Random(109)
    ok = True
    for diag in [(1, 1, 1), (1, 1, -1)]:
        m = Metric(diag)
        for _ in range(3):
            p = _random_params(rng, 3)
            ok &= verify_daskaloyannis_form(m, p)["passed"]
            ok &= verify_casimir(m, p)["passed"]
    _report(5, ok, "[A,C], [B,C] match the structure-constant form; the "
            "(alpha*gamma - delta) Casimir equals realized K(H) and is central")


def test_criterion_6_structure_function():
    ok = LEADING_COEFF == 824633720832 == 256 * 3221225472
    p = ModelParams.from_l((F(3, 2), F(5, 2), F(7, 2)))
    m1, m2, m3 = m_values(p)
    for e1, e2 in itertools.product((1, -1), repeat=2):
        u = rep_parameter_u((e1, e2), p)
        ok &= structure_function_eval(u, F(9), p) == 0
    # Phi(p+1) = 0 reproduces the Etilde closure symbolically: p+1+u is
    # an (Etilde, m3)-root exactly when Etilde = 4(p+1) - sum eps_i m_i
    for e1, e2, e3 in itertools.product((1, -1), repeat=3):
        for pp in range(4):
            Etilde = 4 * (pp + 1) - e3 * m3 - e2 * m2 - e1 * m1
            u = rep_parameter_u((-e1, -e2), p)
            roots = structure_function_roots(p, Etilde)
            ok &= (pp + 1 + u) in roots[4:]
            ok &= structure_function_eval(pp + 1 + u, Etilde, p) == 0
    _report(6, ok, "leading coefficient 824633720832 = 256*3221225472; "
            "Phi(u) = 0 for all four sign pairs; Phi(p+1) = 0 gives the "
            "Etilde closure")


def test_criterion_7_spectrum_reproduction():
    rng = random.Random(113)
    ok = True
    for _ in range(20):
        l1 = F(rng.randint(1, 6), 2)
        l2 = F(rng.randint(1, 6), 2)
        l3 = l1 + l2 + 2 + F(rng.randint(1, 16), 2)
        sols = find_spectrum(ModelParams.from_l((l1, l2, l3)), 12,
                             sign_mode="h2")
        want = [(lv.E, lv.degeneracy) for lv in analytic_spectrum_h2((l1, l2, l3))]
        ok &= [(s.E, s.degeneracy) for s in sols] == want
    for _ in range(20):
        l = tuple(F(rng.randint(1, 9), 2) for _ in range(3))
        sols = find_spectrum(ModelParams.from_l(l), 5, sign_mode="s2")
        want = [(lv.E, lv.degeneracy)
                for lv in analytic_spectrum_s2(l, max_levels=6)]
        ok &= [(-s.E, s.degeneracy) for s in sols] == want
    worked = find_spectrum(ModelParams.from_l((F(1, 2), F(1, 2), F(13, 2))),
                           8, sign_mode="h2")
    ok &= [(s.E, s.degeneracy) for s in worked] == [(F(-12), 1), (F(-2), 2)]
    sphere = find_spectrum(ModelParams.from_l((F(1, 2),) * 3), 0,
                           sign_mode="s2")
    ok &= [(-s.E, s.p) for s in sphere] == [(F(12), 0)]
    _report(7, ok, "40 random l triples: exact rational equality of algebraic "
            "and analytic spectra (H2 direct, S2 with global flip); worked "
            "examples E in {-12,-2} and E = 12 reproduced")


def test_criterion_8_numerical_oracle():
    # the only criterion that needs numpy and scipy: the other eight run
    # without them
    from pseudosphere.specsolver import GridSpec, SLProblem, _eigs_on_grid, group_numeric, \
        pde_spectrum
    grid = GridSpec(nodes=2048)
    cases = {
        "h2": [(F(1, 2), F(1, 2), F(13, 2)),
               (F(3, 2), F(1, 2), F(21, 2)),
               (F(1, 2), F(3, 2), F(19, 2))],
        "s2": [(F(1, 2), F(1, 2), F(1, 2)),
               (F(3, 2), F(1, 2), F(5, 2)),
               (F(1), F(2), F(3))],
    }
    ok = True
    detail = []
    for surface, lsets in cases.items():
        t0 = time.perf_counter()
        for l in lsets:
            if surface == "h2":
                analytic = analytic_spectrum_h2(l)
                counts = (len(analytic) + 1,) * 2 if analytic else (2, 2)
                numeric = pde_spectrum("h2", l, counts=counts, grid=grid)
            else:
                analytic = analytic_spectrum_s2(l, max_levels=3)
                numeric = [x for x in pde_spectrum("s2", l, counts=(3, 3),
                                                   grid=grid) if x.P <= 2]
            groups = group_numeric(numeric)
            ok &= len(groups) == len(analytic)
            for (Enum, mult), lv in zip(groups, analytic):
                ok &= abs(Enum - float(lv.E)) <= 1e-3 * max(1.0, abs(float(lv.E)))
                ok &= mult == lv.degeneracy
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 120
        detail.append(f"{surface} in {elapsed:.1f}s")
    # observed convergence order >= 2 on a model problem
    prob = SLProblem(potential=lambda x: 0.0, x0=0.0, x1=math.pi)
    errs = [abs(_eigs_on_grid(prob, n, 1)[0] - 1.0)
            for n in (256, 512, 1024)]
    order = math.log2(errs[0] / errs[1])
    ok &= order >= 1.9
    _report(8, ok, "numeric levels within 1e-3 of analytic with correct "
            f"multiplicities ({', '.join(detail)}); observed order "
            f"{order:.2f}")


def test_criterion_9_general_N_property_checks():
    # the general-N claim is checked property-style: criteria 1-3 behavior
    # at dimensions up to 6.
    rng = random.Random(127)
    ok = True
    for d in (4, 5, 6):
        m = Metric((1,) * (d - 1) + (-1,))
        p = _random_params(rng, d)
        ok &= verify_relation("symmetry", (0, 1), m, p).passed
        ok &= verify_relation("qq_c", (0, 1, 2), m, p).passed
    for fam in ("qc_disjoint", "cc_share2", "cc_share1", "cc_disjoint"):
        d = MINIMAL_DIMS[fam]
        ok &= verify_relation(fam, default_indices(fam, d), Metric((1,) * d),
                              _random_params(rng, d)).passed
    p5 = ModelParams.from_a(tuple(F(k + 1, k + 2) for k in range(5)))
    rel = discover_linear_relation(Metric((1, 1, 1, -1, -1)), p5)
    ok &= rel.alpha_0 == 1 and all(c == -1 for c in rel.alpha.values())
    ok &= rel.alpha_00 == sum(p5.a)
    _report(9, ok, "[H,Q]=0 and closure families exact for d=4..6; linear "
            "relation keeps the same coefficients at d=5")

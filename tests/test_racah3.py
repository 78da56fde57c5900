"""Daskaloyannis machinery: constants, Casimir, structure function, spectra."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pseudosphere import model, racah3
from pseudosphere.weylops import Metric, commutator, vanishes_mod_constraint
from pseudosphere.model import ModelParams
from pseudosphere.racah3 import (
    LEADING_COEFF,
    H2_SIGNS,
    S2_SIGNS,
    ALL_SIGN_PATTERNS,
    structure_constants,
    abc_realization,
    verify_daskaloyannis_form,
    casimir,
    casimir_operator,
    verify_casimir,
    m_values,
    structure_function_roots,
    structure_function_eval,
    rep_parameter_u,
    find_spectrum,
    match_spectrum_to_signature,
    RepSolution,
    SURFACES,
    analytic_spectrum_h2,
    analytic_spectrum_s2,
)


def random_params(rng):
    return ModelParams.from_a(tuple(F(rng.randint(-1, 8), rng.randint(1, 5))
                                    for _ in range(3)))


class TestStructureConstants:
    def test_fixed_constants(self):
        k = structure_constants(ModelParams.from_a((F(1, 4),) * 3))
        assert (k.alpha, k.gamma, k.a_const) == (8, 8, 0)

    def test_zero_potentials(self):
        k = structure_constants(ModelParams.from_a((0, 0, 0)))
        assert k.delta == (F(-8), F(8))       # 4(-2+...) + 8h, measured
        assert k.d_const == (F(16), F(0))
        assert k.epsilon == -16               # 16(-1 + a1 + a2)

    def test_published_variant(self):
        k = structure_constants(ModelParams.from_a((0, 0, 0)), "published")
        assert k.delta == (F(-8), F(-8))      # the printed -8h
        assert k.epsilon == 16

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            structure_constants(ModelParams.from_a((0, 0, 0)), "nope")


class TestRealization:
    def test_AB_closes_on_C(self):
        m = Metric((1, 1, 1))
        r = abc_realization(m, ModelParams.from_a((F(1), F(2), F(3))))
        assert commutator(r.A, r.B) == r.C

    def test_q23_reconstruction(self):
        for diag in [(1, 1, 1), (1, 1, -1)]:
            r = abc_realization(Metric(diag),
                                ModelParams.from_a((F(1, 3), F(2, 5), F(3, 7))))
            assert r.q23_residual_vanishes

    def test_daskaloyannis_form_measured(self):
        for diag in [(1, 1, 1), (1, 1, -1)]:
            for a in [(F(1, 4),) * 3, (F(0),) * 3, (F(1, 3), F(2, 5), F(3, 7))]:
                rep = verify_daskaloyannis_form(Metric(diag),
                                                ModelParams.from_a(a))
                assert rep["passed"], (diag, a)

    def test_published_constants_fail(self):
        # the printed constant list is not satisfied by the realization;
        # recording the failure documents the H -> -H correction
        rep = verify_daskaloyannis_form(Metric((1, 1, 1)),
                                        ModelParams.from_a((F(1, 4),) * 3),
                                        convention="published")
        assert not rep["passed"]

    def test_requires_d3(self):
        with pytest.raises(ValueError):
            abc_realization(Metric((1, 1, 1, 1)),
                            ModelParams.from_a((0, 0, 0, 0)))


class TestCasimir:
    def test_realized_at_zero_potentials(self):
        ce = casimir(ModelParams.from_a((0, 0, 0)))
        assert ce.realized_form == {2: F(-12), 1: F(48), 0: F(0)}
        assert ce.published_realized_form == {2: F(-12), 1: F(-48), 0: F(0)}
        assert ce.realized_eval(1) == 36

    def test_leading_coefficient(self):
        ce = casimir(ModelParams.from_a((F(1, 3), F(1), F(2))))
        assert ce.realized_form[2] == 4 * (-3 + 4 * F(1, 3))

    def test_operator_equality_and_centrality(self):
        rng = random.Random(61)
        checked = 0
        for diag in [(1, 1, 1), (1, 1, -1)]:
            for _ in range(3):
                rep = verify_casimir(Metric(diag), random_params(rng))
                assert rep["passed"], (diag, rep)
                checked += 1
        assert checked >= 5

    def test_each_certificate_builds_each_generator_once(self, monkeypatch):
        # one lookup per certificate: H, Q_01, Q_02, Q_12 and C_012, each
        # once, and no linear solve (the spy on the nullspace catches a
        # discover_linear_relation reached through any import)
        m = Metric((1, -1, 1))
        p = ModelParams.from_a((F(2, 7), F(-1, 9), F(5, 3)))
        built, solves = [], []
        build, nullspace = model._build, model._nullspace
        monkeypatch.setattr(model, "_build", lambda ring, metric, params, gen, *tag:
                            built.append(tag) or build(ring, metric, params, gen, *tag))
        monkeypatch.setattr(model, "_nullspace",
                            lambda *args: solves.append(args) or nullspace(*args))
        for certify in (verify_daskaloyannis_form, verify_casimir):
            built.clear()
            assert certify(m, p)["passed"]
            assert sorted(built) == [("C", 0, 1, 2), ("H",), ("Q", 0, 1),
                                     ("Q", 0, 2), ("Q", 1, 2)], certify
        assert not solves

    @pytest.mark.parametrize("diag", [(1, -1, 1), (-1, -1, -1)])
    def test_wrong_hamiltonian_is_data(self, diag, monkeypatch):
        # H + s_1^2 on every ring: the closed-form Q_23 no longer matches
        # the built one, and both certificates fail without raising
        build = model._build

        def bumped(ring, metric, params, gen, letter, *ix):
            op = build(ring, metric, params, gen, letter, *ix)
            return op + ring.op.coord(metric.dim, 0, 2) if letter == "H" else op

        monkeypatch.setattr(model, "_build", bumped)
        m, p = Metric(diag), ModelParams.from_a((F(2, 7), F(-1, 9), F(5, 3)))
        form = verify_daskaloyannis_form(m, p)
        assert (form["q23_reconstruction"], form["passed"]) == (False, False)
        assert verify_casimir(m, p)["passed"] is False

    def test_centrality_operator_level(self):
        m = Metric((1, 1, -1))
        p = ModelParams.from_a((F(1, 2), F(1, 3), F(1, 5)))
        K = casimir_operator(m, p)
        r = abc_realization(m, p)
        for X in (r.A, r.B):
            res = commutator(K, X)
            assert res.is_zero() or vanishes_mod_constraint(res, m)


class TestStructureFunction:
    def test_leading_coefficient_identity(self):
        assert LEADING_COEFF == 824633720832
        assert LEADING_COEFF == 256 * 3221225472
        assert LEADING_COEFF == 3 * 2**38

    def test_m_values(self):
        p = ModelParams.from_l((F(1, 2), F(1, 2), F(13, 2)))
        assert m_values(p) == (1, 1, 13)
        p2 = ModelParams.from_a((F(0), F(2), F(6)))
        assert m_values(p2) == (1, 3, 5)

    def test_complex_m_rejected(self):
        with pytest.raises(ValueError):
            m_values(ModelParams.from_a((F(-1, 2), F(0), F(0))))

    def test_equal_m_collapses_roots(self):
        p = ModelParams.from_l((F(3, 4), F(3, 4), F(2)))
        roots = structure_function_roots(p, F(7))
        assert roots[0] == roots[1] == F(1, 2)

    def test_root_by_construction(self):
        p = ModelParams.from_l((F(1, 2), F(3, 2), F(5, 2)))
        roots = structure_function_roots(p, F(11, 3))
        for r in roots:
            assert structure_function_eval(r, F(11, 3), p) == 0

    def test_leading_growth(self):
        p = ModelParams.from_l((F(1, 2), F(1, 2), F(1, 2)))
        x = F(10**6)
        ratio = structure_function_eval(x, F(3), p) / x**8
        assert abs(ratio - LEADING_COEFF) < LEADING_COEFF * F(1, 10**4)

    def test_u_parameter(self):
        p = ModelParams.from_l((F(1, 2), F(1, 2), F(1)))   # m = (1, 1, 2)
        assert rep_parameter_u((1, 1), p) == 1
        assert rep_parameter_u((-1, -1), p) == 0
        rng = random.Random(67)
        for _ in range(10):
            q = ModelParams.from_l(tuple(F(rng.randint(1, 9), 2)
                                         for _ in range(3)))
            for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
                u = rep_parameter_u(signs, q)
                assert u in structure_function_roots(q, F(5))[:4]
                assert structure_function_eval(u, F(5), q) == 0


class TestSpectrum:
    def test_h2_worked_example(self):
        p = ModelParams.from_l((F(1, 2), F(1, 2), F(13, 2)))
        sols = find_spectrum(p, 8, sign_mode="h2")
        assert [(s.E, s.p, s.degeneracy) for s in sols] == \
            [(F(-12), 0, 1), (F(-2), 1, 2)]
        for s in sols:
            assert s.signs == H2_SIGNS
            assert s.Etilde == 4 * (s.p + 1) - 13 + 1 + 1
            assert s.E == (1 - s.Etilde**2) / 4
            assert s.certified

    def test_h2_empty(self):
        p = ModelParams.from_l((F(1, 2), F(1, 2), F(2)))
        assert find_spectrum(p, 8, sign_mode="h2") == []

    def test_s2_worked_example(self):
        p = ModelParams.from_l((F(1, 2), F(1, 2), F(1, 2)))
        sols = find_spectrum(p, 2, sign_mode="s2")
        assert [(-s.E, s.degeneracy) for s in sols] == \
            [(F(12), 1), (F(30), 2), (F(56), 3)]
        assert all(s.signs == S2_SIGNS for s in sols)

    def test_energy_identity_all_patterns(self):
        p = ModelParams.from_l((F(3, 2), F(5, 2), F(17, 2)))
        for s in find_spectrum(p, 4, sign_mode="all"):
            assert s.E == (1 - s.Etilde**2) / 4
            assert s.degeneracy == s.p + 1

    def test_sign_pattern_count(self):
        assert len(ALL_SIGN_PATTERNS) == 8

    def test_random_l_match_analytic_h2(self):
        from pseudosphere.racah3 import analytic_spectrum_h2
        rng = random.Random(71)
        tested = 0
        while tested < 20:
            l1 = F(rng.randint(1, 6), 2)
            l2 = F(rng.randint(1, 6), 2)
            l3 = l1 + l2 + 2 + F(rng.randint(1, 16), 2)
            l = (l1, l2, l3)
            sols = find_spectrum(ModelParams.from_l(l), 12, sign_mode="h2")
            analytic = analytic_spectrum_h2(l)
            assert [(s.E, s.degeneracy) for s in sols] == \
                [(lv.E, lv.degeneracy) for lv in analytic], l
            tested += 1

    def test_random_l_match_analytic_s2(self):
        from pseudosphere.racah3 import analytic_spectrum_s2
        rng = random.Random(73)
        for _ in range(20):
            l = tuple(F(rng.randint(1, 9), 2) for _ in range(3))
            sols = find_spectrum(ModelParams.from_l(l), 5, sign_mode="s2")
            analytic = analytic_spectrum_s2(l, max_levels=6)
            assert [(-s.E, s.degeneracy) for s in sols] == \
                [(lv.E, lv.degeneracy) for lv in analytic], l

    @pytest.mark.parametrize("surface", sorted(SURFACES))
    def test_closed_forms_read_abs_l(self, surface):
        # H depends on l_i^2 only, so flipping the sign of any l_i leaves
        # the closed-form levels alone
        closed_form = SURFACES[surface][2]
        l = (F(1, 2), F(3, 2), F(25, 2))
        want = closed_form(l, max_levels=4)
        assert want
        for flipped in ((-l[0], l[1], l[2]), (l[0], -l[1], l[2]),
                        (l[0], l[1], -l[2]), tuple(-x for x in l)):
            assert closed_form(flipped, max_levels=4) == want, flipped

    def test_closed_forms_honour_max_levels(self):
        l = (F(1, 2), F(1, 2), F(25, 2))
        assert len(analytic_spectrum_h2(l)) == 5
        assert analytic_spectrum_h2(l, max_levels=0) == []
        assert analytic_spectrum_s2(l, max_levels=0) == []
        assert analytic_spectrum_h2(l, max_levels=2) == analytic_spectrum_h2(l)[:2]

    def test_negative_sizes_raise(self):
        l = (F(1, 2), F(1, 2), F(25, 2))
        with pytest.raises(ValueError, match="max_p must be at least 0, got -1"):
            find_spectrum(ModelParams.from_l(l), -1)
        for closed_form in (analytic_spectrum_h2, analytic_spectrum_s2):
            with pytest.raises(ValueError, match="max_levels must be at least 0, got -2"):
                closed_form(l, max_levels=-2)
        # None means every level; the S^2 spectrum has infinitely many
        with pytest.raises(ValueError, match="max_levels is required"):
            analytic_spectrum_s2(l, None)

    def test_sign_mode_list_is_a_triple(self):
        p = ModelParams.from_l((F(1, 2), F(1, 2), F(13, 2)))
        assert find_spectrum(p, 4, sign_mode=[-1, -1, 1]) == \
            find_spectrum(p, 4, sign_mode=(-1, -1, 1))

    @pytest.mark.parametrize("sign_mode", [(1, 1, 2), (1, 0, -1), (1, -1),
                                           (1, 1, 1, 1), "H2", "+-+", "",
                                           None, 1, {1, -1}])
    def test_bad_sign_mode_raises(self, sign_mode):
        p = ModelParams.from_l((F(1, 2), F(1, 2), F(13, 2)))
        with pytest.raises(ValueError, match="'all', one of \\['h2', 's2'\\]"):
            find_spectrum(p, 4, sign_mode=sign_mode)


def reference_candidates(params, signs, max_p, flip):
    """The certificate evaluated point by point: Phi(nu + u) for every
    nu = 1..p at every p."""
    m1, m2, m3 = m_values(params)
    e1, e2, e3 = signs
    u = rep_parameter_u((-e1, -e2), params)
    out = []
    for p in range(max_p + 1):
        Etilde = 4 * (p + 1) - e3 * m3 - e2 * m2 - e1 * m1
        if flip is not None and not (flip * Etilde < 0):
            continue
        if all(structure_function_eval(nu + u, Etilde, params) > 0
               for nu in range(1, p + 1)):
            out.append(RepSolution(signs=signs, u=u, p=p,
                                   E=F(1 - Etilde * Etilde, 4),
                                   Etilde=Etilde, degeneracy=p + 1,
                                   certified=True))
    return out


def oracle_params(rng, kind):
    if kind == "half_integer_l":
        return ModelParams.from_l(tuple(F(rng.randint(-2, 15), 2)
                                        for _ in range(3)))
    if kind == "equal_m":
        x = F(rng.randint(0, 10), 2)
        return ModelParams.from_l((x, x, F(rng.randint(0, 15), 2)))
    # a = (m^2 - 1)/4 from rational m: m not a half-integer, l not given
    ms = [F(rng.randint(0, 30), rng.randint(1, 6)) for _ in range(3)]
    return ModelParams.from_a(tuple((m * m - 1) / 4 for m in ms))


class TestCertificateOracle:
    KINDS = ("half_integer_l", "equal_m", "rational_m")

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_pointwise_certificate(self, kind):
        rng = random.Random(101 + self.KINDS.index(kind))
        tally = {"accepted": 0, "negative": 0, "zero_only": 0}
        for _ in range(10):
            params = oracle_params(rng, kind)
            max_p = rng.randint(0, 12)
            for signs in ALL_SIGN_PATTERNS:
                for flip in (None, 1, -1):
                    assert find_spectrum(params, max_p, sign_mode=signs,
                                         flip=flip) == \
                        reference_candidates(params, signs, max_p, flip), \
                        (params, signs, max_p, flip)
                e1, e2, e3 = signs
                m1, m2, m3 = m_values(params)
                u = rep_parameter_u((-e1, -e2), params)
                for p in range(max_p + 1):
                    Et = 4 * (p + 1) - e3 * m3 - e2 * m2 - e1 * m1
                    vals = [structure_function_eval(nu + u, Et, params)
                            for nu in range(1, p + 1)]
                    if all(v > 0 for v in vals):
                        tally["accepted"] += 1
                    elif any(v < 0 for v in vals):
                        tally["negative"] += 1
                    else:   # nu + u lands on a root, Phi >= 0 elsewhere
                        tally["zero_only"] += 1
            for mode, patterns, flip in (("all", ALL_SIGN_PATTERNS, None),
                                         ("h2", (H2_SIGNS,), 1),
                                         ("s2", (S2_SIGNS,), -1)):
                assert find_spectrum(params, max_p, sign_mode=mode) == [
                    s for signs in patterns
                    for s in reference_candidates(params, signs, max_p, flip)]
        # both verdicts occur, and so does a rejection with Phi = 0 but
        # never Phi < 0: the on-root case a sign count alone misses
        assert all(tally.values()), tally

    def test_certificate_by_evaluation(self):
        # Phi(u) = 0 and Phi(p + 1 + u) = 0 by construction;
        # Phi(nu + u) > 0 for nu = 1..p is the checked part
        rng = random.Random(107)
        checked = 0
        for _ in range(4):
            params = ModelParams.from_l(tuple(F(rng.randint(1, 13), 2)
                                              for _ in range(3)))
            for s in find_spectrum(params, 40):
                assert structure_function_eval(s.u, s.Etilde, params) == 0
                assert structure_function_eval(s.p + 1 + s.u, s.Etilde,
                                               params) == 0
                assert all(structure_function_eval(nu + s.u, s.Etilde,
                                                   params) > 0
                           for nu in range(1, s.p + 1))
                checked += 1
        assert checked >= 20


class TestMatching:
    def test_h2_unique_pattern(self):
        rep = match_spectrum_to_signature(
            Metric((1, 1, -1)), ModelParams.from_l((F(1, 2), F(1, 2), F(13, 2))))
        assert rep["passed"] and not rep["vacuous"]
        assert {"signs": H2_SIGNS, "global_flip": 1} in rep["matches"]
        assert len(rep["matches"]) == 1

    def test_s2_needs_global_flip(self):
        rep = match_spectrum_to_signature(
            Metric((1, 1, 1)), ModelParams.from_l((F(1, 2), F(1, 2), F(1, 2))))
        assert rep["passed"]
        assert all(m["global_flip"] == -1 for m in rep["matches"])
        assert {"signs": S2_SIGNS, "global_flip": -1} in rep["matches"]

    def test_vacuous_empty_spectrum(self):
        rep = match_spectrum_to_signature(
            Metric((1, 1, -1)), ModelParams.from_l((F(1, 2), F(1, 2), F(2))))
        assert rep["vacuous"]
        # every pattern with no solution matches the empty target: vacuous
        assert not rep["passed"]


# ---------------------------------------------------------------------------
# the Casimir certificate on the normal form of K

def reference_casimir_expansion(r, k):
    """The expansion term by term as the generator form reads, each
    product built where it appears: the oracle for _casimir_expansion."""
    from pseudosphere.weylops import WeylOp, compose, anticommutator
    A, B, C, H = r.A, r.B, r.C, r.H
    lin = lambda c: WeylOp.const(3, c[0]) + H.scale(c[1])
    delta, dd, zeta, z = lin(k.delta), lin(k.d_const), lin(k.zeta), lin(k.z_const)
    one = lambda c: WeylOp.const(3, c)
    K = compose(C, C)
    K -= anticommutator(compose(A, A), B).scale(k.alpha)
    K -= anticommutator(A, compose(B, B)).scale(k.gamma)
    K += compose(one(k.alpha * k.gamma) - delta, anticommutator(A, B))
    K += compose(B, B).scale(k.gamma * k.gamma - k.epsilon)
    K += compose(delta.scale(k.gamma) - zeta.scale(2), B)
    K += compose(A, compose(A, A)).scale(2 * k.a_const / 3)
    K += compose(dd + one(k.a_const * k.gamma / 3 + k.alpha * k.alpha),
                 compose(A, A))
    K += compose(one(k.a_const * k.epsilon / 3) + delta.scale(k.alpha)
                 + z.scale(2), A)
    return K


def reference_verify_casimir(metric, params, K):
    """The direct route: K itself, not its normal form, against K(H) and
    bracketed with A and B."""
    from pseudosphere.model import _closes
    from pseudosphere.weylops import WeylOp, compose
    r = abc_realization(metric, params)
    ce = racah3.casimir(params)     # read at call time, so a patched K(H) shows
    H = r.H
    K_real = (compose(H, H).scale(ce.realized_form[2]) + H.scale(ce.realized_form[1])
              + WeylOp.const(3, ce.realized_form[0]))
    eq = _closes(K - K_real, metric)[0]
    cA = _closes(commutator(K, r.A), metric)[0]
    cB = _closes(commutator(K, r.B), metric)[0]
    return {"signature": metric.signature, "equals_realized": eq,
            "central_A": cA, "central_B": cB, "passed": eq and cA and cB}


# each structure constant, as (field, component or None), with the sides
# of the form check whose right-hand side reads it
CONSTANT_SIDES = [("alpha", None, {"AC", "BC"}), ("gamma", None, {"AC", "BC"}),
                  ("epsilon", None, {"AC"}), ("a_const", None, {"BC"}),
                  ("delta", 0, {"AC", "BC"}), ("delta", 1, {"AC", "BC"}),
                  ("d_const", 0, {"BC"}), ("d_const", 1, {"BC"}),
                  ("zeta", 0, {"AC"}), ("zeta", 1, {"AC"}),
                  ("z_const", 0, {"BC"}), ("z_const", 1, {"BC"})]


def _bumped(k, name, comp):
    from dataclasses import replace
    v = getattr(k, name)
    if comp is None:
        return replace(k, **{name: v + 1})
    return replace(k, **{name: tuple(x + (i == comp) for i, x in enumerate(v))})


def verdicts(rep):
    """A verify_casimir report without the route that decided centrality."""
    return {key: v for key, v in rep.items() if key != "centrality_route"}


ALL_DIAGS = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
             (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)]


class TestCasimirNormalForm:
    def test_expansion_matches_reference(self):
        rng = random.Random(1103)
        for diag in ALL_DIAGS[::3]:
            m, p = Metric(diag), random_params(rng)
            r = abc_realization(m, p)
            for conv in ("measured", "published"):
                k = structure_constants(p, conv)
                assert racah3._casimir_expansion(r, k).terms == \
                    reference_casimir_expansion(r, k).terms

    def test_matches_direct_route_on_every_signature(self):
        rng = random.Random(1104)
        for diag in ALL_DIAGS:
            m, p = Metric(diag), random_params(rng)
            K = casimir_operator(m, p)
            got = verify_casimir(m, p)
            assert verdicts(got) == reference_verify_casimir(m, p, K)
            assert got["passed"], (diag, p.a)
            assert got["centrality_route"] == "derived"

    @pytest.mark.parametrize("diag", [(1, -1, 1), (-1, -1, -1)])
    def test_mutated_casimir_fails(self, diag, monkeypatch):
        # K + B/3 is not central in A ([B, A] = -C), K + s_1^2 in neither;
        # both differ from K(H): the verdicts equal the direct route's
        from pseudosphere.weylops import WeylOp
        m = Metric(diag)
        p = ModelParams.from_a((F(2, 7), F(-1, 9), F(5, 3)))
        expand = racah3._casimir_expansion
        for extra, want_B in ((lambda r: r.B.scale(F(1, 3)), True),
                              (lambda r: WeylOp.coord(3, 0, 2), False)):
            monkeypatch.setattr(racah3, "_casimir_expansion",
                                lambda r, k: expand(r, k) + extra(r))
            got = verify_casimir(m, p)
            assert verdicts(got) == reference_verify_casimir(m, p, casimir_operator(m, p))
            assert (got["equals_realized"], got["central_A"], got["central_B"],
                    got["passed"], got["centrality_route"]) == \
                (False, False, want_B, False, "bracket")

    def test_non_tangent_operator_fails_the_gate(self):
        # K = q + 1 reduces to 0, so [Kn, Y] = 0 for every Y; but
        # Y = s_1 D_2 is not tangent, and [K, Y] = -2 g_2 s_1 s_2 is not in
        # (q+1)·W: the tangency gate keeps the shortcut from passing it
        from pseudosphere.model import _closes
        from pseudosphere.weylops import WeylOp, compose, reduce_mod_constraint
        for diag in ALL_DIAGS:
            m = Metric(diag)
            K = WeylOp.const(3, 1)
            for i, g in enumerate(diag):
                K += WeylOp.coord(3, i, 2).scale(g)
            Kn = reduce_mod_constraint(K, m)
            Y = compose(WeylOp.coord(3, 0), WeylOp.deriv(3, 1))
            assert Kn.is_zero() and not racah3._tangent(Y, m)
            assert not _closes(commutator(K, Y), m)[0]
            assert not racah3._central_mod_constraint(Kn, Y, m)

    @settings(max_examples=15, deadline=None)
    @given(a=st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=9)] * 3))
    def test_generators_are_tangent(self, a):
        # H, A and B are tangent on every signature, [q, Y] = 0 exactly:
        # the premise of the derived centrality route and of the bracket
        # route's shortcut
        for diag in ALL_DIAGS:
            m = Metric(diag)
            r = abc_realization(m, ModelParams.from_a(a))
            assert all(racah3._tangent(Y, m) for Y in (r.H, r.A, r.B)), diag

    @pytest.mark.parametrize("diag", ALL_DIAGS)
    def test_derived_route_equals_bracket_route(self, diag):
        # two seeded a per signature, one with a zero entry, one with a
        # negative one: the derived verdicts equal the direct brackets'
        m = Metric(diag)
        for p in realization_params(diag)[:2]:
            got = verify_casimir(m, p)
            assert got["centrality_route"] == "derived", p.a
            assert verdicts(got) == reference_verify_casimir(m, p, casimir_operator(m, p)), p.a

    @pytest.mark.parametrize("name,comp", [(name, comp) for name, comp, _ in CONSTANT_SIDES]
                             + [("K", power) for power in (2, 1, 0)])
    def test_bumped_constant_takes_bracket_route(self, name, comp, monkeypatch):
        # a +1 bump of a structure constant, or of the K(H) coefficient of
        # H^comp, breaks equals_realized; centrality is then bracketed, and
        # the verdicts equal the direct route's
        from dataclasses import replace
        if name == "K":
            realized = racah3.casimir

            def bumped(params):
                ce = realized(params)
                return replace(ce, realized_form={n: c + (n == comp)
                                                  for n, c in ce.realized_form.items()})

            monkeypatch.setattr(racah3, "casimir", bumped)
        else:
            measured = racah3.structure_constants
            monkeypatch.setattr(racah3, "structure_constants",
                                lambda params, convention="measured":
                                _bumped(measured(params, convention), name, comp))
        m, p = Metric((1, -1, 1)), ModelParams.from_a((F(2, 7), F(-1, 9), F(5, 3)))
        got = verify_casimir(m, p)
        assert (got["equals_realized"], got["centrality_route"]) == (False, "bracket")
        assert verdicts(got) == reference_verify_casimir(m, p, casimir_operator(m, p))

    def test_derived_route_needs_h_to_close(self, monkeypatch):
        # A replaced by the rotation L = g_1 s_1 D_2 - g_2 s_2 D_1, which is
        # tangent but does not commute with H modulo the quadric: with
        # K = K(H) exactly, centrality is derived, and fails for L alone
        from pseudosphere.weylops import WeylOp, compose
        m = Metric((1, -1, 1))
        L = (compose(WeylOp.coord(3, 0), WeylOp.deriv(3, 1)).scale(m.diag[0])
             - compose(WeylOp.coord(3, 1), WeylOp.deriv(3, 0)).scale(m.diag[1]))
        got, bracket = patched_certificate(monkeypatch, m, A=L)
        assert racah3._tangent(L, m)
        assert (got["equals_realized"], got["centrality_route"]) == (True, "derived")
        assert (got["central_A"], got["central_B"]) == (False, True) == bracket

    @pytest.mark.parametrize("which", ["H", "A", "B"])
    def test_non_tangent_generator_takes_bracket_route(self, which, monkeypatch):
        # Y + s_1 D_2 is not tangent: with K = K(H) exactly, the derived
        # route's premise fails, and the brackets decide centrality
        from pseudosphere.weylops import WeylOp, compose
        m = Metric((-1, 1, 1))
        r = abc_realization(m, ModelParams.from_a((F(2, 7), F(-1, 9), F(5, 3))))
        Y = getattr(r, which) + compose(WeylOp.coord(3, 0), WeylOp.deriv(3, 1))
        got, bracket = patched_certificate(monkeypatch, m, **{which: Y})
        assert (got["equals_realized"], got["centrality_route"]) == (True, "bracket")
        assert (got["central_A"], got["central_B"]) == bracket


def patched_certificate(monkeypatch, m, **ops):
    """verify_casimir on a realization with some of H, A and B replaced by
    ops and with K = K(H) exactly, so that equals_realized holds; and the
    bracket route's (central_A, central_B) on the same operators."""
    from dataclasses import replace
    from pseudosphere.weylops import WeylOp, compose, reduce_mod_constraint
    p = ModelParams.from_a((F(2, 7), F(-1, 9), F(5, 3)))
    r = replace(abc_realization(m, p), **ops)
    k = casimir(p).realized_form
    K = compose(r.H, r.H).scale(k[2]) + r.H.scale(k[1]) + WeylOp.const(3, k[0])
    monkeypatch.setattr(racah3, "abc_realization", lambda *args: r)
    monkeypatch.setattr(racah3, "_casimir_expansion", lambda *args: K)
    Kn = reduce_mod_constraint(K, m)
    return verify_casimir(m, p), tuple(racah3._central_mod_constraint(Kn, Y, m)
                                       for Y in (r.A, r.B))


def reference_realization(metric, params):
    """The realization by the formal-hbar route: the QUANTUM lookup's
    Q_01, Q_02, H and Q_12 specialized at hbar = 1, C = [A, B], and Q_23
    solved from the coefficients discover_linear_relation measures."""
    from pseudosphere.weylops import WeylOp, specialize_hbar
    gen = model._generators(model.QUANTUM, metric, params)
    A, B, H, Q12 = (specialize_hbar(gen(*tag), 1)
                    for tag in (("Q", 0, 1), ("Q", 0, 2), ("H",), ("Q", 1, 2)))
    rel = model.discover_linear_relation(metric, params)
    # sum alpha_ij Q_ij - alpha_0 H - alpha_00 = 0, solved for Q_23
    Q23 = (H.scale(rel.alpha_0) + WeylOp.const(3, rel.alpha_00)
           - A.scale(rel.alpha[(0, 1)]) - B.scale(rel.alpha[(0, 2)])
           ).scale(1 / rel.alpha[(1, 2)])
    return racah3.ABCRealization(A=A, B=B, C=commutator(A, B), H=H, Q23=Q23,
                                 q23_residual_vanishes=model._closes(Q23 - Q12, metric)[0])


def realization_params(diag):
    """Four seeded a per signature: a zero entry in the first, a negative
    one in the second."""
    rng = random.Random(1600 + ALL_DIAGS.index(diag))
    a = [list(random_params(rng).a) for _ in range(4)]
    a[0][0] = F(0)
    a[1][1] = -abs(a[1][1]) or F(-1, 3)
    return [ModelParams.from_a(x) for x in a]


def certificates(m, p):
    return [verify_daskaloyannis_form(m, p), verify_daskaloyannis_form(m, p, "published"),
            verify_casimir(m, p)]


class TestRealizationReference:
    @pytest.mark.parametrize("diag", ALL_DIAGS)
    def test_lookup_equals_formal_hbar_route(self, diag, monkeypatch):
        m = Metric(diag)
        for p in realization_params(diag):
            got, want = abc_realization(m, p), reference_realization(m, p)
            assert got == want, p.a
            assert got.q23_residual_vanishes
            reports = certificates(m, p)
            with monkeypatch.context() as mp:
                mp.setattr(racah3, "abc_realization", reference_realization)
                assert certificates(m, p) == reports, p.a


class TestFusedResidualsLoadBearing:
    @pytest.mark.parametrize("name,comp,sides", CONSTANT_SIDES)
    def test_bumped_constant_fails_its_side(self, name, comp, sides, monkeypatch):
        measured = racah3.structure_constants
        monkeypatch.setattr(racah3, "structure_constants",
                            lambda params, convention="measured":
                            _bumped(measured(params, convention), name, comp))
        for diag in ((1, -1, 1), (-1, -1, 1)):
            rep = verify_daskaloyannis_form(Metric(diag),
                                            ModelParams.from_a((F(2, 7), F(-1, 9), F(5, 3))))
            assert {side for side in ("AC", "BC") if not rep[side]} == sides, diag
            assert not rep["passed"]

    @pytest.mark.parametrize("power", (2, 1, 0))
    def test_bumped_casimir_coefficient_fails(self, power, monkeypatch):
        from dataclasses import replace
        realized = racah3.casimir

        def bumped(params):
            ce = realized(params)
            form = dict(ce.realized_form)
            form[power] += 1
            return replace(ce, realized_form=form)

        monkeypatch.setattr(racah3, "casimir", bumped)
        rep = verify_casimir(Metric((1, 1, -1)),
                             ModelParams.from_a((F(3), F(7, 2), F(4, 3))))
        assert (rep["equals_realized"], rep["central_A"], rep["central_B"],
                rep["passed"]) == (False, True, True, False)

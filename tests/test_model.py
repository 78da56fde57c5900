"""Generic model builders and the quantum relation table."""

import itertools
import math
import operator
import random
from fractions import Fraction as F
from functools import reduce

import pytest

from pseudosphere.weylops import (
    Metric,
    WeylOp,
    compose,
    commutator,
    divide_by_hbar,
    specialize_hbar,
    vanishes_mod_constraint,
)
from pseudosphere import model, phase
from pseudosphere.phase import verify_classical_relation
from pseudosphere.model import (
    MIN_DIMENSION,
    RELATIONS,
    ModelParams,
    RELATION_FAMILIES,
    NoLinearRelation,
    build_J,
    build_H,
    build_Q,
    build_C,
    verify_relation,
    default_indices,
    admissible_tuples,
    discover_linear_relation,
    verify_metric_independence,
)


def random_params(rng, dim):
    return ModelParams.from_a(tuple(F(rng.randint(-4, 8), rng.randint(1, 5))
                                    for _ in range(dim)))


class TestBuilders:
    def test_J_hyperbolic_pair(self):
        # diag(1,1,-1), (i,j) = (2,3) one-based: -s_2 d_3 - s_3 d_2, the
        # -J_1 of Eq. (j3)
        got = build_J(Metric((1, 1, -1)), 1, 2)
        want = WeylOp.term(3, -1, smon=(0, 1, 0), dmon=(0, 0, 1), hpow=1) \
            + WeylOp.term(3, -1, smon=(0, 0, 1), dmon=(0, 1, 0), hpow=1)
        assert got == want

    def test_J_antisymmetric(self):
        m = Metric((1, -1, 1))
        assert build_J(m, 0, 1) == build_J(m, 1, 0).scale(-1)
        assert build_J(m, 1, 1).is_zero()

    def test_J_euclidean(self):
        got = build_J(Metric((1, 1, 1)), 0, 1)
        want = WeylOp.term(3, 1, smon=(1, 0, 0), dmon=(0, 1, 0), hpow=1) \
            + WeylOp.term(3, -1, smon=(0, 1, 0), dmon=(1, 0, 0), hpow=1)
        assert got == want

    def test_H_d2(self):
        m = Metric((1, 1))
        H = build_H(m, ModelParams.from_a((F(1), F(2))))
        J = build_J(m, 0, 1)
        want = compose(J, J) \
            + WeylOp.term(2, 1, smon=(-2, 0)) + WeylOp.term(2, 2, smon=(0, -2))
        assert H == want

    def test_Q_free_euclidean(self):
        m = Metric((1, 1, 1))
        p = ModelParams.from_a((0, 0, 0))
        J = build_J(m, 0, 1)
        assert build_Q(m, p, 0, 1) == compose(J, J).scale(-1)

    def test_Q_symmetric(self):
        m = Metric((1, 1, -1))
        p = ModelParams.from_a((F(1), F(0), F(2)))
        assert build_Q(m, p, 0, 2) == build_Q(m, p, 2, 0)

    def test_Q_hyperbolic_potentials(self):
        # diag(1,1,-1), a=(1,0,2): Q_13 = J_13^2 - (s3^2/s1^2 + 2 s1^2/s3^2)
        m = Metric((1, 1, -1))
        p = ModelParams.from_a((F(1), F(0), F(2)))
        J = build_J(m, 0, 2)
        want = compose(J, J) \
            + WeylOp.term(3, -1, smon=(-2, 0, 2)) \
            + WeylOp.term(3, -2, smon=(2, 0, -2))
        assert build_Q(m, p, 0, 2) == want

    def test_Q_requires_distinct_indices(self):
        with pytest.raises(ValueError):
            build_Q(Metric((1, 1, 1)), ModelParams.from_a((0, 0, 0)), 1, 1)

    def test_C_cyclic_and_antisymmetric(self):
        rng = random.Random(3)
        m = Metric((1, -1, 1))
        p = random_params(rng, 3)
        C = build_C(m, p, 0, 1, 2)
        assert C == build_C(m, p, 2, 0, 1)
        assert C == build_C(m, p, 1, 2, 0)
        assert (C + build_C(m, p, 1, 0, 2)).is_zero()

    def test_C_principal_part_cubic(self):
        from pseudosphere.phase import principal_symbol
        m = Metric((1, 1, 1))
        p = ModelParams.from_a((F(1), F(2), F(3)))
        sym = principal_symbol(build_C(m, p, 1, 0, 2))
        degs = {sum(B) for (_, B) in sym.terms}
        assert max(degs) == 3

    @pytest.mark.parametrize("d", range(2, 6))
    def test_J_matches_composed_oracle(self, d):
        # J_ij = h (g_jj s_i o d_j - g_ii s_j o d_i) from compose, for every
        # (i, j), i = j included, on two signatures
        for diag in (tuple((1, -1)[k % 2] for k in range(d)), (-1,) + (1,) * (d - 1)):
            m = Metric(diag)
            for i, j in itertools.product(range(d), repeat=2):
                want = (compose(WeylOp.coord(d, i), WeylOp.deriv(d, j)).scale(diag[j])
                        - compose(WeylOp.coord(d, j), WeylOp.deriv(d, i)).scale(diag[i]))
                assert build_J(m, i, j).terms == want.scale_h(1).terms, (diag, i, j)

    @pytest.mark.parametrize("d", (3, 4))
    def test_lookup_C_matches_bracket_of_built_Q(self, d):
        # the lookup's C_ijk, built from its own Q_ij and Q_ik, against the
        # bracket of separately built ones, for every ordered triple
        rng = random.Random(f"C/{d}")
        for diag in ((1,) * d, tuple((-1, 1)[k % 2] for k in range(d))):
            m = Metric(diag)
            p = random_params(rng, d)
            gen = model._generators(model.QUANTUM, m, p)
            gen_cl = model._generators(phase.CLASSICAL, m, p)
            for i, j, k in itertools.permutations(range(d), 3):
                want = divide_by_hbar(commutator(build_Q(m, p, i, j), build_Q(m, p, i, k)))
                assert gen("C", i, j, k).terms == want.terms, (diag, i, j, k)
                assert build_C(m, p, i, j, k).terms == want.terms
                want_cl = phase.poisson_bracket(phase.build_Q_cl(m, p, i, j),
                                                phase.build_Q_cl(m, p, i, k))
                assert gen_cl("C", i, j, k).terms == want_cl.terms, (diag, i, j, k)
                assert phase.build_C_cl(m, p, i, j, k).terms == want_cl.terms
            for ring_gen in (gen, gen_cl):
                with pytest.raises(ValueError):
                    ring_gen("C", 0, 1, 0)

    def test_params_from_l(self):
        p = ModelParams.from_l((F(1, 2), F(1, 2), F(13, 2)))
        assert p.a == (F(0), F(0), F(42))


class TestRelations:
    def test_symmetry_sphere(self):
        rep = verify_relation("symmetry", (0, 1), Metric((1, 1, 1)),
                              ModelParams.from_a((F(3, 4), F(3, 4), F(2))))
        assert rep.passed

    def test_all_families_minimal_dimension(self):
        rng = random.Random(41)
        dims = {"symmetry": 3, "qq_c": 3, "qc_adjacent": 3, "qc_disjoint": 4,
                "cc_share2": 4, "cc_share1": 5, "cc_disjoint": 6}
        for fam in RELATION_FAMILIES:
            d = dims[fam]
            m = Metric((1,) * d)
            rep = verify_relation(fam, default_indices(fam, d), m,
                                  random_params(rng, d))
            assert rep.passed, fam

    @pytest.mark.parametrize("fam", RELATION_FAMILIES)
    def test_default_indices_at_minimum_dimension(self, fam):
        need = MIN_DIMENSION[fam]
        assert default_indices(fam, need) == tuple(range(need))
        assert default_indices(fam, need) in admissible_tuples(fam, need)
        assert admissible_tuples(fam, need - 1) == []
        with pytest.raises(ValueError,
                           match=f"family {fam} needs dimension >= {need}$"):
            default_indices(fam, need - 1)

    def test_qc_adjacent_d4_mixed_signature(self):
        rng = random.Random(43)
        m = Metric((1, 1, 1, -1))
        rep = verify_relation("qc_adjacent", (0, 1, 2), m,
                              random_params(rng, 4))
        assert rep.passed

    def test_cc_disjoint_d6(self):
        rep = verify_relation("cc_disjoint", (0, 1, 2, 3, 4, 5),
                              Metric((1,) * 6),
                              ModelParams.from_a((F(1, 2), F(1, 3), F(1, 5),
                                                  F(0), F(2), F(-1, 4))))
        assert rep.passed

    def test_all_index_tuples_d3(self):
        rng = random.Random(47)
        m = Metric((1, -1, -1))
        p = random_params(rng, 3)
        for idx in admissible_tuples("qc_adjacent", 3):
            assert verify_relation("qc_adjacent", idx, m, p).passed, idx

    def test_failure_is_data(self):
        # a deliberately wrong residual must report failure, not raise
        m = Metric((1, 1, 1))
        p = ModelParams.from_a((F(1), F(1), F(1)))
        rep = verify_relation("symmetry", (0, 1), m,
                              ModelParams.from_a((F(1), F(1), F(2))))
        assert rep.passed  # [H,Q] holds for any a; now break it by hand
        H = build_H(m, p)
        Q = build_Q(m, ModelParams.from_a((F(3), F(1), F(1))), 0, 1)
        res = commutator(H, Q)
        assert not (res.is_zero() or vanishes_mod_constraint(res, m))


class TestLinearRelation:
    def test_discovered_coefficients(self):
        # measured relation: sum Q_ij + H + sum a_i = 0, i.e. with the
        # normalization alpha_0 = 1: alpha_ij = -1, alpha_00 = +sum a_i.
        # (The published (qh) coefficients differ; the discovery is exact.)
        a = (F(1), F(2), F(3))
        rel = discover_linear_relation(Metric((1, 1, 1)), ModelParams.from_a(a))
        assert rel.alpha_0 == 1
        assert all(c == -1 for c in rel.alpha.values())
        assert rel.alpha_00 == sum(a)

    def test_signature_independent(self):
        a = ModelParams.from_a((F(1), F(2), F(3)))
        r1 = discover_linear_relation(Metric((1, 1, 1)), a)
        r2 = discover_linear_relation(Metric((1, 1, -1)), a)
        assert r1.coefficients() == r2.coefficients()

    def test_zero_potentials(self):
        rel = discover_linear_relation(Metric((1, 1, 1)),
                                       ModelParams.from_a((0, 0, 0)))
        assert rel.alpha_00 == 0

    def test_d4(self):
        a = (F(1, 2), F(1, 3), F(1, 5), F(1, 7))
        rel = discover_linear_relation(Metric((1, 1, 1, 1)),
                                       ModelParams.from_a(a))
        assert rel.alpha_0 == 1
        assert all(c == -1 for c in rel.alpha.values())
        assert rel.alpha_00 == sum(a)

    def test_reconstruction_is_exact(self):
        m = Metric((1, 1, -1))
        p = ModelParams.from_a((F(1, 3), F(2, 5), F(3, 7)))
        rel = discover_linear_relation(m, p)
        acc = WeylOp.const(3, -rel.alpha_00) \
            + build_H(m, p).scale(-rel.alpha_0)
        for (i, j), c in rel.alpha.items():
            acc += build_Q(m, p, i, j).scale(c)
        assert acc.is_zero() or vanishes_mod_constraint(acc, m)


class TestMetricIndependence:
    def test_d3_all_signatures(self):
        sigs = [Metric(d) for d in itertools.product((1, -1), repeat=3)]
        rep = verify_metric_independence(
            3, ModelParams.from_a((F(1, 2), F(1, 3), F(1, 5))), sigs,
            families=("symmetry", "qq_c", "qc_adjacent"))
        assert rep["passed"]

    def test_d4_two_signatures(self):
        sigs = [Metric((1, 1, 1, 1)), Metric((1, 1, -1, -1))]
        rep = verify_metric_independence(
            4, ModelParams.from_a((F(1, 2), F(1, 3), F(1, 5), F(1, 7))), sigs,
            families=("qc_adjacent", "qc_disjoint", "cc_share2"))
        assert rep["passed"]

    def test_single_signature_trivial(self):
        rep = verify_metric_independence(
            3, ModelParams.from_a((1, 1, 1)), [Metric((1, 1, 1))],
            families=("symmetry",))
        assert rep["passed"]

    def test_dim_must_match_every_signature(self):
        with pytest.raises(ValueError, match="dim is 5"):
            verify_metric_independence(
                5, ModelParams.from_a((1, 2, 3)), [Metric((1, 1, 1)), Metric((1, -1, 1))],
                families=("qc_adjacent", "symmetry"))


def record_builds(monkeypatch):
    """Wrap the generator lookup's builder: the returned list collects
    (ring, tag) for every generator built."""
    built = []
    build = model._build

    def record(ring, metric, params, gen, *tag):
        built.append((ring, tag))
        return build(ring, metric, params, gen, *tag)

    monkeypatch.setattr(model, "_build", record)
    return built


TABLE_TERMS = [(fam, n) for fam, (_, _, rhs) in RELATIONS.items()
               for n in range(len(rhs))]


class TestRelationTable:
    @pytest.mark.parametrize("fam", RELATION_FAMILIES)
    def test_non_identity_tuples(self, fam):
        # a position/index mix-up in the table evaluator shows only away
        # from the default tuple (0, 1, ...)
        rng = random.Random(61)
        d = max(MIN_DIMENSION[fam], 3)
        m = Metric(tuple(rng.choice((1, -1)) for _ in range(d)))
        p = ModelParams.from_a(tuple(F(rng.randint(1, 7), rng.randint(1, 5))
                                     for _ in range(d)))
        tuples = admissible_tuples(fam, d)
        # the last tuple is the reversed one for every permutation family
        for idx in (tuples[-1], rng.choice(tuples[1:])):
            assert idx != default_indices(fam, d)
            assert verify_relation(fam, idx, m, p).passed, idx
            assert verify_classical_relation(fam, idx, m, p)["passed"], idx

    @pytest.mark.parametrize("fam", RELATION_FAMILIES)
    def test_generators_built_at_the_tuple(self, fam, monkeypatch):
        # relations are covariant under relabelling, so a relation built at
        # the wrong tuple can still pass: record what the generator lookup
        # builds, on both rings.  Each generator of the relation at the
        # tuple, and each Q_ij and Q_ik that a C_ijk reads, is built exactly
        # once, and nothing else is built
        built = record_builds(monkeypatch)
        arity, (x, y), rhs = RELATIONS[fam]
        d = max(arity, 3)
        idx = admissible_tuples(fam, d)[-1]
        want = set()
        for g in {x, y} | {g for *_, word in rhs for g in word}:
            ix = tuple(idx[int(pos)] for pos in g[1:])
            if g[0] == "C":
                want |= {("Q", *sorted(ix[:2])), ("Q", *sorted(ix[::2]))}
            want.add(("Q", *sorted(ix)) if g[0] == "Q" else (g[0], *ix))
        m = Metric((1,) * d)
        p = ModelParams.from_a(tuple(F(k + 1, 3) for k in range(d)))
        for verify, ring in ((verify_relation, model.QUANTUM),
                             (verify_classical_relation, phase.CLASSICAL)):
            built.clear()
            verify(fam, idx, m, p)
            assert {r for r, _ in built} == {ring}
            assert sorted(tag for _, tag in built) == sorted(want)

    @pytest.mark.parametrize("fam", RELATION_FAMILIES)
    @pytest.mark.parametrize("verify", (verify_relation, verify_classical_relation),
                             ids=("quantum", "classical"))
    def test_bad_generator_input_raises(self, fam, verify):
        # a params vector of the wrong length raises ValueError, a negative
        # or out-of-range index IndexError, at every position of the tuple
        arity = MIN_DIMENSION[fam]
        d = max(arity, 3)
        m = Metric(tuple((1, -1)[k % 2] for k in range(d)))
        a = tuple(F(k + 1, 2) for k in range(d + 1))
        idx = default_indices(fam, d)
        for n in (d - 1, d + 1):
            with pytest.raises(ValueError, match="parameter vector length"):
                verify(fam, idx, m, ModelParams.from_a(a[:n]))
        p = ModelParams.from_a(a[:d])
        for pos in range(arity):
            for bad in (-1, d):
                with pytest.raises(IndexError):
                    verify(fam, idx[:pos] + (bad,) + idx[pos + 1:], m, p)

    def test_bad_generator_input_raises_outside_residuals(self):
        m = Metric((1, -1, 1))
        for a in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match="parameter vector length"):
                phase.correspondence_check(m, ModelParams.from_a(a))
            for build in (build_H, phase.build_H_cl):
                with pytest.raises(ValueError, match="parameter vector length"):
                    build(m, ModelParams.from_a(a))
        for build in (build_J, phase.build_J_cl):
            for i, j in ((-1, 0), (0, -1), (3, 0), (0, 3)):
                with pytest.raises(IndexError):
                    build(m, i, j)

    @pytest.mark.parametrize("fam,n", TABLE_TERMS)
    def test_every_term_is_load_bearing(self, fam, n, monkeypatch):
        arity, lhs, rhs = RELATIONS[fam]
        c, pos, e, word = rhs[n]
        bumped = rhs[:n] + ((c + 1, pos, e, word),) + rhs[n + 1:]
        monkeypatch.setitem(model.RELATIONS, fam, (arity, lhs, bumped))
        m = Metric((1,) * (arity - 1) + (-1,))
        p = ModelParams.from_a(tuple(F(k + 2, 2 * k + 3) for k in range(arity)))
        idx = default_indices(fam, arity)
        assert not verify_relation(fam, idx, m, p).passed
        if e == 0:
            assert not verify_classical_relation(fam, idx, m, p)["passed"]

    @pytest.mark.parametrize("fam", RELATION_FAMILIES)
    def test_admissible_tuple_counts(self, fam):
        k = MIN_DIMENSION[fam]
        for d in range(1, 7):
            tuples = admissible_tuples(fam, d)
            want = math.comb(d, 2) if fam == "symmetry" else math.perm(d, k)
            assert len(tuples) == len(set(tuples)) == want
            assert all(len(t) == k and len(set(t)) == k and max(t) < d
                       for t in tuples)

    def test_unknown_family_and_wrong_arity_raise(self):
        m = Metric((1, 1, 1))
        p = ModelParams.from_a((1, 2, 3))
        for fam, idx in (("bogus", (0, 1)), ("qc_adjacent", (0, 1)),
                         ("symmetry", (0, 1, 2))):
            with pytest.raises(ValueError):
                verify_relation(fam, idx, m, p)
            with pytest.raises(ValueError):
                verify_classical_relation(fam, idx, m, p)
        with pytest.raises(ValueError):
            admissible_tuples("bogus", 3)


# qc_adjacent with its first RHS coefficient bumped by +1 fails on both
# rings at this signature and params vector, with these residual sizes
BUMP_DIAG, BUMP_A, BUMP_TERMS = (1, -1, 1), (F(1, 3), 2, F(-1, 2)), (55, 24)


def bump_first_qc_adjacent(monkeypatch):
    arity, lhs, ((c, *rest), *others) = RELATIONS["qc_adjacent"]
    monkeypatch.setitem(model.RELATIONS, "qc_adjacent", (arity, lhs, ((c + 1, *rest), *others)))


def add_h0_term_to_quantum_Q01(monkeypatch):
    """Add s_0 D_0 at h^0 to the quantum Q_01: its bracket with Q_02's
    h^0 part has an h^0 term, so C_012 has no overall factor of h.
    (s_0 D_1 would not do: it commutes with that part of Q_02.)"""
    build = model._build

    def mutated(ring, metric, params, gen, *tag):
        op = build(ring, metric, params, gen, *tag)
        if ring is model.QUANTUM and tag == ("Q", 0, 1):
            e0 = (1,) + (0,) * (metric.dim - 1)
            op += WeylOp.term(metric.dim, 1, smon=e0, dmon=e0)
        return op

    monkeypatch.setattr(model, "_build", mutated)


class TestVerdictFailures:
    """The two failure shapes of the one relation verdict, model._verdict:
    a residual that survives the quadric, counted, and a bracket with no
    overall factor of h, residual_terms -1; failure is data on both."""

    def test_bumped_term_counts_the_surviving_residual(self, monkeypatch):
        bump_first_qc_adjacent(monkeypatch)
        m, p, idx = Metric(BUMP_DIAG), ModelParams.from_a(BUMP_A), (0, 1, 2)
        rep = verify_relation("qc_adjacent", idx, m, p)
        cl = verify_classical_relation("qc_adjacent", idx, m, p)
        assert (rep.passed, rep.reduced, rep.residual_terms) == (False, False, BUMP_TERMS[0])
        assert cl == {"family": "qc_adjacent", "indices": idx, "passed": False,
                      "reduced": False, "residual_terms": BUMP_TERMS[1]}
        for ring, terms in zip((model.QUANTUM, phase.CLASSICAL), BUMP_TERMS):
            assert len(model._table_residual("qc_adjacent", idx, m, p, ring).terms) == terms

    def test_h0_term_fails_without_raising(self, monkeypatch):
        add_h0_term_to_quantum_Q01(monkeypatch)
        m, p = Metric(BUMP_DIAG), ModelParams.from_a(BUMP_A)
        for fam in ("qq_c", "qc_adjacent"):
            rep = verify_relation(fam, (0, 1, 2), m, p)
            assert (rep.passed, rep.reduced, rep.residual_terms) == (False, False, -1), fam
            assert rep.elapsed_ms > 0
            # the classical ring is untouched
            assert verify_classical_relation(fam, (0, 1, 2), m, p)["passed"], fam


def materialised_residual(family, idx, metric, params, quantum):
    """The residual as the table reads, each operator formed: the bracket
    minus the sum of the scaled RHS words (for the classical ring, the
    h-free terms with commuting products).  The oracle for the one-call
    residual of model._table_residual."""
    if quantum:
        builders = {"H": build_H, "Q": build_Q, "C": build_C}
        ring, bracket, product = WeylOp, commutator, compose
    else:
        builders = {"H": phase.build_H_cl, "Q": phase.build_Q_cl, "C": phase.build_C_cl}
        ring, bracket, product = phase.PhasePoly, phase.poisson_bracket, operator.mul
    _, (x, y), rhs = RELATIONS[family]

    def gen(name):
        return builders[name[0]](metric, params, *(idx[int(q)] for q in name[1:]))

    total = ring.zero(metric.dim)
    for c, pos, e, word in rhs:
        if e and not quantum:
            continue
        term = reduce(product, map(gen, word)) if word else ring.term(metric.dim, 1)
        term = term.scale(c if pos is None else c * params.a[idx[pos]])
        total += term.scale_h(e + 1) if quantum else term
    return bracket(gen(x), gen(y)) - total


FUSED_CASES = [(fam, d) for fam, arity in MIN_DIMENSION.items() for d in (arity, arity + 1)]


class TestFusedResidual:
    @pytest.mark.parametrize("fam,d", FUSED_CASES)
    def test_equals_materialised_route(self, fam, d, monkeypatch):
        # the true table (zero or reduced residuals) and the table with every
        # RHS coefficient bumped by +1 (nonzero residuals), on both rings
        rng = random.Random(f"fused/{fam}/{d}")
        arity, lhs, rhs = RELATIONS[fam]
        bumped = tuple((c + 1, pos, e, word) for c, pos, e, word in rhs)
        tuples = admissible_tuples(fam, d)
        diag = tuple(rng.choice((1, -1)) for _ in range(d))
        for table in (rhs, bumped):
            monkeypatch.setitem(model.RELATIONS, fam, (arity, lhs, table))
            for m in (Metric(diag), Metric(tuple(-g for g in diag))):
                p = random_params(rng, d)
                idx = rng.choice(tuples)
                for quantum, ring in ((True, model.QUANTUM), (False, phase.CLASSICAL)):
                    got = model._table_residual(fam, idx, m, p, ring)
                    want = materialised_residual(fam, idx, m, p, quantum)
                    assert type(got) is type(want)
                    assert got.terms == want.terms, (fam, idx, m.diag, p.a, quantum)
                    if table is bumped and rhs and quantum:
                        assert not got.is_zero()

    @pytest.mark.parametrize("fam,n", TABLE_TERMS)
    def test_every_term_is_load_bearing_one_dimension_up(self, fam, n, monkeypatch):
        # the +1 bump of test_every_term_is_load_bearing at d = arity + 1,
        # away from the default tuple, on a second signature
        arity, lhs, rhs = RELATIONS[fam]
        c, pos, e, word = rhs[n]
        bumped = rhs[:n] + ((c + 1, pos, e, word),) + rhs[n + 1:]
        monkeypatch.setitem(model.RELATIONS, fam, (arity, lhs, bumped))
        d = arity + 1
        m = Metric(tuple((-1, 1)[k % 2] for k in range(d)))
        p = ModelParams.from_a(tuple(F(2 * k - 3, k + 4) for k in range(d)))
        idx = admissible_tuples(fam, d)[-1]
        assert not verify_relation(fam, idx, m, p).passed
        if e == 0:
            assert not verify_classical_relation(fam, idx, m, p)["passed"]

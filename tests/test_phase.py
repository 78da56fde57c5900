"""Classical phase-space algebra and the quantum -> classical limit."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pseudosphere.weylops import (Metric, NotDivisible, WeylOp, commutator, compose,
                                  divide_by_hbar)
from pseudosphere.model import ModelParams, RELATION_FAMILIES, default_indices
from pseudosphere import model, phase
from pseudosphere.phase import (
    PhasePoly,
    poisson_bracket,
    build_J_cl,
    build_H_cl,
    build_Q_cl,
    build_C_cl,
    build_classical_model,
    classical_relation_residual,
    verify_classical_relation,
    principal_symbol,
    correspondence_check,
    reduce_mod_constraint_cl,
    vanishes_mod_constraint_cl,
)


def sc(i, power=1, dim=3):
    return PhasePoly.coord(dim, i, power)


def pm(i, power=1, dim=3):
    return PhasePoly.momentum(dim, i, power)


def random_poly(rng, dim=2, max_terms=3):
    f = PhasePoly.zero(dim)
    for _ in range(rng.randint(1, max_terms)):
        smon = tuple(rng.randint(-2, 2) for _ in range(dim))
        pmon = tuple(rng.randint(0, 2) for _ in range(dim))
        f += PhasePoly.term(dim, F(rng.randint(-6, 6), rng.randint(1, 4)),
                            smon=smon, pmon=pmon)
    return f


def reference_reduce_cl(f, metric):
    """Branch-by-branch worklist rewrite of s_d^2 with rational
    coefficients, merged only at the end: the oracle for the shared
    level-wise normal form."""
    d = f.dim
    last = d - 1
    gdd = metric.diag[last]
    repl = [((0,) * d, F(-gdd))]
    for i in range(last):
        repl.append((tuple(2 if k == i else 0 for k in range(d)),
                     F(-gdd * metric.diag[i])))
    out = {}
    work = list(f.terms.items())
    while work:
        (A, B), c = work.pop()
        if A[last] >= 2:
            Ared = tuple(a - 2 if i == last else a for i, a in enumerate(A))
            for mono, r in repl:
                key = (tuple(Ared[i] + mono[i] for i in range(d)), B)
                work.append((key, c * r))
            continue
        w = out.get((A, B), F(0)) + c
        if w:
            out[(A, B)] = w
        else:
            out.pop((A, B), None)
    return PhasePoly(d, out)


NONZERO = [n for n in range(-6, 7) if n]


@st.composite
def pivot_heavy_polys(draw, dim):
    """Phase-space polynomials whose s_d exponents reach 12 and go down to -4."""
    f = PhasePoly.zero(dim)
    for _ in range(draw(st.integers(1, 6))):
        smon = tuple(draw(st.integers(-2, 3)) for _ in range(dim - 1)) \
            + (draw(st.integers(-4, 12)),)
        pmon = tuple(draw(st.integers(0, 2)) for _ in range(dim))
        coeff = F(draw(st.sampled_from(NONZERO)), draw(st.integers(1, 4)))
        f += PhasePoly.term(dim, coeff, smon=smon, pmon=pmon)
    return f


@pytest.mark.parametrize("metric", [
    Metric(diag) for diag in itertools.product((1, -1), repeat=3)
] + [Metric((1, -1, 1, -1))], ids=lambda m: str(m.diag))
class TestLevelwiseNormalFormCl:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_reference_reduced_idempotent(self, metric, data):
        f = data.draw(pivot_heavy_polys(metric.dim))
        once = reduce_mod_constraint_cl(f, metric)
        assert once == reference_reduce_cl(f, metric)
        assert all(A[-1] < 2 for A, _ in once.terms)
        assert reduce_mod_constraint_cl(once, metric) == once


@pytest.mark.parametrize("metric", [
    Metric(diag) for diag in itertools.product((1, -1), repeat=3)
] + [Metric((1, -1, 1, -1))], ids=lambda m: str(m.diag))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_integer_kernel_matches_reference_worklist_cl(metric, data):
    # the shared integer rewrite on phase-space polynomials, with and
    # without the pivot shift, against the rational worklist key for key
    from pseudosphere.weylops import _normal_forms, _pivot_shift, vanishes_mod_constraint
    # s_d exponents up to 8, so that the shifted ones stay at most 12
    f = PhasePoly(metric.dim, {key: c for key, c in data.draw(pivot_heavy_polys(metric.dim)).terms.items()
                               if key[0][-1] <= 8})
    got = reduce_mod_constraint_cl(f, metric)
    assert got.terms == reference_reduce_cl(f, metric).terms
    assert all(type(c) is F and c for c in got.terms.values())
    shift = _pivot_shift([f])
    shifted = PhasePoly(f.dim, {(A[:-1] + (A[-1] + shift,), B): c
                                for (A, B), c in f.terms.items()})
    want = reference_reduce_cl(shifted, metric)
    assert _normal_forms([f], metric)[0].terms == want.terms
    assert vanishes_mod_constraint(f, metric) == want.is_zero()


class TestBracketExamples:
    def test_canonical_pair(self):
        assert poisson_bracket(sc(0), pm(0)) == PhasePoly.term(3, 1)

    def test_rotation_generators(self):
        # Euclidean J_ij = s_i p_j - s_j p_i: realized sign is {J_12, J_13}
        # = +J_23 under the convention {s_i, p_j} = delta_ij
        J12 = sc(0) * pm(1) - sc(1) * pm(0)
        J13 = sc(0) * pm(2) - sc(2) * pm(0)
        J23 = sc(1) * pm(2) - sc(2) * pm(1)
        assert poisson_bracket(J12, J13) == J23

    def test_hamiltonian_symmetry_sphere(self):
        m = Metric((1, 1, 1))
        p = ModelParams.from_a((F(1), F(2), F(3)))
        res = poisson_bracket(build_H_cl(m, p), build_Q_cl(m, p, 0, 1))
        assert res.is_zero() or vanishes_mod_constraint_cl(res, m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poisson_bracket(PhasePoly.coord(2, 0), PhasePoly.coord(3, 0))


class TestBracketProperties:
    def test_antisymmetry_and_bilinearity(self):
        rng = random.Random(31)
        for _ in range(50):
            f, g, h = (random_poly(rng) for _ in range(3))
            assert poisson_bracket(f, g) == poisson_bracket(g, f).scale(-1)
            lhs = poisson_bracket(f + g.scale(F(2, 3)), h)
            rhs = poisson_bracket(f, h) + poisson_bracket(g, h).scale(F(2, 3))
            assert lhs == rhs

    def test_leibniz(self):
        rng = random.Random(37)
        for _ in range(50):
            f, g, h = (random_poly(rng) for _ in range(3))
            assert poisson_bracket(f, g * h) == \
                poisson_bracket(f, g) * h + g * poisson_bracket(f, h)

    def test_jacobi(self):
        rng = random.Random(39)
        for _ in range(50):
            f, g, h = (random_poly(rng, max_terms=2) for _ in range(3))
            acc = poisson_bracket(f, poisson_bracket(g, h)) \
                + poisson_bracket(g, poisson_bracket(h, f)) \
                + poisson_bracket(h, poisson_bracket(f, g))
            assert acc.is_zero()


def reference_product(f, g):
    """The commuting product f g, term pair by term pair in Fractions: the
    oracle for PhasePoly.__mul__, the classical kernel's product pair."""
    f._check(g)
    out = {}
    for (A, B), u in f.terms.items():
        for (C, D), v in g.terms.items():
            key = (tuple(a + c for a, c in zip(A, C)),
                   tuple(b + d for b, d in zip(B, D)))
            w = out.get(key, F(0)) + u * v
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return PhasePoly(f.dim, out)


def reference_poisson(f, g):
    """sum_i df/ds_i dg/dp_i - df/dp_i dg/ds_i from 2d derivative
    polynomials and their products: the oracle for the one-pass bracket."""
    f._check(g)
    out = PhasePoly(f.dim)
    for i in range(f.dim):
        out += reference_product(f.diff_s(i), g.diff_p(i))
        out -= reference_product(f.diff_p(i), g.diff_s(i))
    return out


@st.composite
def dense_polys(draw, dim, max_terms=5):
    """Canonical phase-space polynomials: denominators 1..6, s exponents
    -4..4, p exponents 0..3, zero polynomials included."""
    return PhasePoly(dim, {
        (tuple(draw(st.integers(-4, 4)) for _ in range(dim)),
         tuple(draw(st.integers(0, 3)) for _ in range(dim))):
        F(draw(st.sampled_from(NONZERO)), draw(st.integers(1, 6)))
        for _ in range(draw(st.integers(0, max_terms)))})


class TestBracketOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5))
    def test_matches_reference_antisymmetric(self, data, dim):
        f = data.draw(dense_polys(dim))
        g = data.draw(dense_polys(dim))
        got = poisson_bracket(f, g)
        assert got.terms == reference_poisson(f, g).terms
        assert all(type(c) is F and c for c in got.terms.values())
        assert poisson_bracket(g, f) == got.scale(-1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5))
    def test_product_matches_reference(self, data, dim):
        f = data.draw(dense_polys(dim))
        g = data.draw(dense_polys(dim))
        got = f * g
        assert got.terms == reference_product(f, g).terms
        assert all(type(c) is F and c for c in got.terms.values())
        assert g * f == got

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_jacobi(self, data, dim):
        f, g, h = (data.draw(dense_polys(dim, max_terms=3)) for _ in range(3))
        acc = poisson_bracket(f, poisson_bracket(g, h)) \
            + poisson_bracket(g, poisson_bracket(h, f)) \
            + poisson_bracket(h, poisson_bracket(f, g))
        assert acc.is_zero()


@st.composite
def weighted_pairs_cl(draw, dim):
    """(lhs, rhs, sign, c, e) pairs of finite h -> 0 limit: brackets at
    e = 0..2, products at e = 1..2; c = 0 included, and denominators of c
    (1, 2, 4, 6, 12) that share factors with the operands' (1..6)."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from((-1, 0, 1)))
        out.append((draw(dense_polys(dim, max_terms=4)), draw(dense_polys(dim, max_terms=4)),
                    sign, F(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 4, 6, 12)))),
                    draw(st.integers(0 if sign == -1 else 1, 2))))
    return out


def reference_weighted_cl(pairs):
    """The h -> 0 limit of (1/h) sum c h^e (lhs o rhs + sign rhs o lhs),
    pair by pair: c {lhs, rhs} for a bracket at e = 0, (1 + sign) c lhs rhs
    for a product at e = 1, each formed, scaled and added with +."""
    total = PhasePoly(pairs[0][0].dim)
    for f, g, sign, c, e in pairs:
        if sign == -1 and e == 0:
            total += reference_poisson(f, g).scale(c)
        elif sign != -1 and e == 1:
            total += reference_product(f, g).scale(c * (1 + sign))
    return total


class TestWeightedProductsCl:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4))
    def test_matches_sum_of_scaled_products(self, data, dim):
        pairs = data.draw(weighted_pairs_cl(dim))
        got = phase._products(*pairs)
        assert got.terms == reference_weighted_cl(pairs).terms
        assert all(type(c) is F and c for c in got.terms.values())

    def test_orders_in_h(self):
        f = sc(0, 2).scale(F(1, 6)) + pm(1).scale(F(3, 4))
        g = sc(1, -1).scale(F(2, 9)) * pm(0, 2)
        assert phase._products((f, g, -1)) == poisson_bracket(f, g)
        assert phase._products((f, g, 0, F(5, 12), 1)) == reference_product(f, g).scale(F(5, 12))
        # higher order in h vanishes in the limit, c = 0 contributes nothing
        assert phase._products((f, g, -1, 3, 1), (f, g, 0, 7, 2),
                               (f, g, -1, 0, 0)).is_zero()
        # a product at h^0 has no classical limit
        with pytest.raises(ValueError):
            phase._products((f, g, 0, 1, 0))


class TestClassicalModel:
    def test_Q_free_euclidean(self):
        m = Metric((1, 1, 1))
        p = ModelParams.from_a((0, 0, 0))
        J = sc(0) * pm(1) - sc(1) * pm(0)
        assert build_Q_cl(m, p, 0, 1) == (J * J).scale(-1)

    @pytest.mark.parametrize("d", range(2, 6))
    def test_J_matches_product_oracle(self, d):
        # J_ij = g_jj s_i p_j - g_ii s_j p_i from reference products, for
        # every (i, j), i = j included, on two signatures
        for diag in (tuple((1, -1)[k % 2] for k in range(d)), (-1,) + (1,) * (d - 1)):
            m = Metric(diag)
            for i, j in itertools.product(range(d), repeat=2):
                want = (reference_product(PhasePoly.coord(d, i), PhasePoly.momentum(d, j))
                        .scale(diag[j])
                        - reference_product(PhasePoly.coord(d, j), PhasePoly.momentum(d, i))
                        .scale(diag[i]))
                assert build_J_cl(m, i, j).terms == want.terms, (diag, i, j)

    def test_C_cubic_in_momenta(self):
        m = Metric((1, 1, -1))
        p = ModelParams.from_a((F(1), F(2), F(3)))
        C = build_C_cl(m, p, 1, 0, 2)
        assert max(sum(B) for (_, B) in C.terms) == 3

    def test_model_dict(self):
        m = Metric((1, 1, 1))
        model = build_classical_model(m, ModelParams.from_a((F(1), F(2), F(3))))
        assert "H" in model and ("Q", 0, 1) in model and ("C", 0, 1, 2) in model
        assert model[("C", 0, 1, 2)] == poisson_bracket(model[("Q", 0, 1)],
                                                        model[("Q", 0, 2)])

    def test_all_families_all_signatures(self):
        rng = random.Random(51)
        dims = {"symmetry": 3, "qq_c": 3, "qc_adjacent": 3, "qc_disjoint": 4,
                "cc_share2": 4, "cc_share1": 5, "cc_disjoint": 6}
        for fam in RELATION_FAMILIES:
            d = dims[fam]
            diags = [(1,) * d, (1,) * (d - 1) + (-1,), (-1,) * d]
            for diag in diags:
                p = ModelParams.from_a(tuple(
                    F(rng.randint(-3, 6), rng.randint(1, 5)) for _ in range(d)))
                r = verify_classical_relation(fam, default_indices(fam, d),
                                              Metric(diag), p)
                assert r["passed"], (fam, diag)


class TestCorrespondence:
    def test_symbol_drops_lower_order(self):
        from pseudosphere.model import build_Q
        m = Metric((1, 1, 1))
        p = ModelParams.from_a((F(1), F(1), F(1)))
        assert principal_symbol(build_Q(m, p, 0, 1)) == build_Q_cl(m, p, 0, 1)

    def test_global_sign_minus_one(self):
        p = ModelParams.from_a((F(1), F(1), F(1)))
        for diag in [(1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1)]:
            rep = correspondence_check(Metric(diag), p)
            assert rep["passed"]
            assert rep["global_sign"] == -1

    def test_pair_with_itself_is_zero(self):
        p = ModelParams.from_a((F(1), F(2), F(3)))
        rep = correspondence_check(Metric((1, 1, 1)), p,
                                   pairs=[(("Q", 0, 1), ("Q", 0, 1))])
        assert rep["passed"]
        assert rep["records"][0]["sign"] == 0

    def test_no_pair_is_vacuous_and_fails(self):
        # d = 2 has no index triple, so the default pair list is empty
        p = ModelParams.from_a((F(1, 4), F(-2, 3)))
        for diag in itertools.product((1, -1), repeat=2):
            rep = correspondence_check(Metric(diag), p)
            assert rep["records"] == []
            assert rep["vacuous"] and not rep["passed"]
        rep = correspondence_check(Metric((1, 1, -1)), ModelParams.from_a((1, 2, 3)))
        assert rep["passed"] and not rep["vacuous"]

    def test_quantum_limit_reproduces_classical_family(self):
        # the hbar^0 shadow of the corrected quantum qc_adjacent relation is
        # the classical one: residual of the classical family vanishes
        m = Metric((1, 1, -1))
        p = ModelParams.from_a((F(1, 3), F(2, 5), F(3, 7)))
        res = classical_relation_residual("qc_adjacent", (0, 1, 2), m, p)
        assert res.is_zero() or vanishes_mod_constraint_cl(res, m)


def reference_correspondence(metric, params, pairs=None):
    """The quantum-bracket oracle: for every pair, sigma((1/h)[X, Y]) of
    the quantum builds against +-{sigma X, sigma Y}.  It reads no
    classical build, and it raises NotDivisible where [X, Y] is not
    divisible by h."""
    if pairs is None:
        pairs = [pair for i, j, k in itertools.combinations(range(metric.dim), 3)
                 for pair in ((("Q", i, j), ("Q", i, k)), (("Q", j, k), ("C", i, j, k)))]
    q_op = model._generators(model.QUANTUM, metric, params)
    records = []
    signs = set()
    for (x, y) in pairs:
        Xq, Yq = q_op(*x), q_op(*y)
        lhs = principal_symbol(model.QUANTUM.bracket(Xq, Yq))
        rhs = poisson_bracket(principal_symbol(Xq), principal_symbol(Yq))
        if lhs.is_zero() and rhs.is_zero():
            sign = 0
        elif lhs == rhs:
            sign = 1
        elif lhs == rhs.scale(-1):
            sign = -1
        else:
            sign = None
        records.append({"pair": (x, y), "sign": sign})
        if sign:
            signs.add(sign)
    return {
        "passed": bool(records) and None not in {r["sign"] for r in records}
        and len(signs) <= 1,
        "global_sign": signs.pop() if len(signs) == 1 else None,
        "vacuous": not records,
        "records": records,
    }


def mutate_quantum(monkeypatch, tag, change):
    """Make model._build return change(op) for the quantum generator tag."""
    build = model._build

    def mutated(ring, metric, params, gen, *t):
        op = build(ring, metric, params, gen, *t)
        return change(op) if ring is model.QUANTUM and t == tag else op

    monkeypatch.setattr(model, "_build", mutated)


class TestCorrespondenceOracle:
    """correspondence_check (Rees membership and sigma(gen) = +-gen_cl per
    tag, one classical bracket per pair) against the quantum-bracket
    oracle, record for record."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_every_signature(self, d):
        rng = random.Random(250 + d)
        for diag in itertools.product((1, -1), repeat=d):
            p = ModelParams.from_a(tuple(F(rng.randint(-6, 6), rng.randint(1, 5))
                                         for _ in range(d)))
            m = Metric(diag)
            rep = correspondence_check(m, p)
            assert rep == reference_correspondence(m, p), (diag, p.a)
            assert rep["passed"] and rep["global_sign"] == -1

    def test_custom_pairs(self):
        pairs = [(("Q", 0, 1), ("Q", 0, 1)), (("H",), ("Q", 1, 0)), (("H",), ("H",)),
                 (("Q", 1, 0), ("Q", 1, 2)), (("Q", 2, 3), ("Q", 0, 1)),
                 (("Q", 1, 2), ("Q", 0, 2)), (("C", 0, 1, 2), ("H",)),
                 (("C", 0, 1, 2), ("C", 2, 1, 0)), (("C", 1, 3, 0), ("Q", 0, 3))]
        p = ModelParams.from_a((F(-1, 2), 3, F(2, 7), -1))
        for diag in ((1, -1, 1, -1), (-1, -1, -1, 1)):
            m = Metric(diag)
            rep = correspondence_check(m, p, pairs)
            assert rep == reference_correspondence(m, p, pairs), diag
            assert rep["records"][0]["sign"] == 0 and rep["records"][2]["sign"] == 0
            assert rep["records"][1]["sign"] == -1 and rep["passed"]

    def test_bumped_symbol_fails(self, monkeypatch):
        # +1 on the h^2 coefficient of a second-order term of the quantum
        # Q_01: still a Rees element, but sigma(Q_01) != Q_01_cl, and each
        # C_01k built from it fails too; the oracle compares the quantum
        # builds only with each other, so it cannot see this
        def bump(op):
            key = min(k for k in op.terms if sum(k[1]) == 2)
            return WeylOp(op.dim, {**op.terms, key: {**op.terms[key], 2: op.terms[key][2] + 1}})

        m, p = Metric((1, 1, -1, 1)), ModelParams.from_a((1, F(-2, 3), 3, F(1, 5)))
        mutate_quantum(monkeypatch, ("Q", 0, 1), bump)
        rep = correspondence_check(m, p)
        assert not rep["passed"] and rep["global_sign"] == -1
        for r in rep["records"]:
            x, y = r["pair"]
            assert (r["sign"] is None) == (("Q", 0, 1) in (x, y) or y[:3] == ("C", 0, 1)), r
        assert reference_correspondence(m, p)["passed"]

    def test_non_rees_generator_fails(self, monkeypatch):
        # an h^0 D_1 term on the quantum C_012 leaves its principal symbol
        # as it was; only Rees membership catches it
        m, p = Metric((1, -1, -1)), ModelParams.from_a((F(1, 4), 2, F(-3, 2)))
        clean = model.build_C(m, p, 0, 1, 2)
        mutate_quantum(monkeypatch, ("C", 0, 1, 2), lambda op: op + WeylOp.deriv(op.dim, 1))
        assert principal_symbol(model.build_C(m, p, 0, 1, 2)) == principal_symbol(clean)
        rep = correspondence_check(m, p)
        assert [r["sign"] for r in rep["records"]] == [-1, None]
        assert not rep["passed"]
        with pytest.raises(NotDivisible):
            reference_correspondence(m, p)


@st.composite
def rees_ops(draw, dim):
    """Rees elements: every term c h^e s^A D^B has e >= |B| (e = |B|,
    |B| + 1 or |B| + 2, one or two h powers per key), denominators 1..6."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        A = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
        B = tuple(draw(st.integers(0, 2)) for _ in range(dim))
        terms[(A, B)] = {sum(B) + k: F(draw(st.sampled_from(NONZERO)), draw(st.integers(1, 6)))
                         for k in draw(st.sets(st.integers(0, 2), min_size=1, max_size=2))}
    return WeylOp(dim, terms)


# sigma(R / h) = EPSILON[family] * R_cl for the quantum residual R and the
# classical residual R_cl of a family at d = arity; cc_disjoint has no RHS
# term and both residuals are zero there, so its epsilon is not measured
EPSILON = {"symmetry": -1, "qq_c": -1, "qc_adjacent": 1, "qc_disjoint": 1,
           "cc_share2": -1, "cc_share1": -1, "cc_disjoint": None}


class TestLeadingOrder:
    """The Weyl kernel and the classical kernel, which stay two loops,
    agree at leading order in h under sigma = principal_symbol."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4))
    def test_bracket_and_product_of_rees_elements(self, data, dim):
        X, Y = data.draw(rees_ops(dim)), data.draw(rees_ops(dim))
        sX, sY = principal_symbol(X), principal_symbol(Y)
        assert principal_symbol(divide_by_hbar(commutator(X, Y))) == \
            poisson_bracket(sX, sY).scale(-1)
        assert principal_symbol(compose(X, Y)) == sX * sY

    @pytest.mark.parametrize("family", RELATION_FAMILIES)
    def test_residual_symbol_is_classical_residual(self, family, monkeypatch):
        # the table's residuals, and those of each +1 bump of an RHS term
        # at h^0 (nonzero on both sides), on two signatures: one sign
        # epsilon per family, key for key
        arity, lhs, rhs = model.RELATIONS[family]
        idx = tuple(range(arity))
        p = ModelParams.from_a(tuple(F(k + 2, 2 * k + 3) for k in range(arity)))
        tables = [rhs] + [rhs[:i] + ((c + 1, *t),) + rhs[i + 1:]
                          for i, (c, *t) in enumerate(rhs) if t[1] == 0]
        signs = set()
        for diag in ((1,) * (arity - 1) + (-1,), (-1,) + (1,) * (arity - 1)):
            m = Metric(diag)
            for table in tables:
                monkeypatch.setitem(model.RELATIONS, family, (arity, lhs, table))
                R = principal_symbol(divide_by_hbar(model._relation_residual(family, idx, m, p)))
                R_cl = classical_relation_residual(family, idx, m, p)
                eps = [e for e in (1, -1) if R.terms == R_cl.scale(e).terms]
                assert eps, (diag, table)
                if not R_cl.is_zero():
                    signs.update(eps)
        assert signs == ({EPSILON[family]} if EPSILON[family] else set())

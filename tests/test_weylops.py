"""Exact Weyl-algebra kernel: frozen examples plus randomized oracles."""

import itertools
import random
from fractions import Fraction as F
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from pseudosphere.weylops import (
    Metric,
    WeylOp,
    DimensionMismatch,
    NotDivisible,
    compose,
    commutator,
    anticommutator,
    divide_by_hbar,
    specialize_hbar,
    apply_op,
    lp_eval,
    reduce_mod_constraint,
    vanishes_mod_constraint,
    _falling,
    _from_parts,
    _hp_add,
    _integer_terms,
    _hp_scale,
    _normal_forms,
    _pivot_shift,
    _BOUND,
    _products,
)


def s(i, power=1, dim=3):
    return WeylOp.coord(dim, i, power)


def D(i, power=1, dim=3):
    return WeylOp.deriv(dim, i, power)


def random_op(rng, dim=2, max_terms=4):
    op = WeylOp.zero(dim)
    for _ in range(rng.randint(1, max_terms)):
        smon = tuple(rng.randint(-2, 2) for _ in range(dim))
        dmon = tuple(rng.randint(0, 2) for _ in range(dim))
        coeff = F(rng.randint(-6, 6), rng.randint(1, 4))
        op += WeylOp.term(dim, coeff, smon=smon, dmon=dmon,
                          hpow=rng.randint(0, 2))
    return op


class TestComposeExamples:
    def test_d_s_single_leibniz(self):
        got = compose(D(0), s(0))
        want = WeylOp.term(3, 1, smon=(1, 0, 0), dmon=(1, 0, 0)) \
            + WeylOp.const(3, 1)
        assert got == want

    def test_monomial_cancellation(self):
        assert compose(s(0, -2), s(0, 2)) == WeylOp.const(3, 1)

    def test_second_derivative_of_inverse_power(self):
        got = compose(D(0, 2), s(0, -1))
        want = WeylOp.term(3, 1, smon=(-1, 0, 0), dmon=(2, 0, 0)) \
            + WeylOp.term(3, -2, smon=(-2, 0, 0), dmon=(1, 0, 0)) \
            + WeylOp.term(3, 2, smon=(-3, 0, 0))
        assert got == want
        # apply-oracle cross-check on s_1^k, k = 0..4
        for k in range(5):
            f = {(k, 0, 0): F(1)}
            assert apply_op(got, f, hbar=1) == \
                apply_op(D(0, 2), apply_op(s(0, -1), f, hbar=1), hbar=1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            compose(WeylOp.coord(2, 0), WeylOp.coord(3, 0))


class TestCommutatorExamples:
    def test_canonical_pair(self):
        assert commutator(D(0), s(0)) == WeylOp.const(3, 1)

    def test_self_commutator_zero(self):
        rng = random.Random(7)
        for _ in range(10):
            X = random_op(rng)
            assert commutator(X, X).is_zero()

    def test_rotation_generators(self):
        X = compose(s(0), D(1))
        Y = compose(s(1), D(0))
        want = compose(s(0), D(0)) - compose(s(1), D(1))
        assert commutator(X, Y) == want


class TestApplyExamples:
    def test_power_rule(self):
        assert apply_op(D(0), {(3, 0, 0): F(1)}, hbar=1) == {(2, 0, 0): F(3)}

    def test_rotation_action(self):
        op = compose(s(0), D(1)) - compose(s(1), D(0))
        got = apply_op(op, {(1, 1, 0): F(1)}, hbar=1)
        assert got == {(2, 0, 0): F(1), (0, 2, 0): F(-1)}

    def test_sphere_hamiltonian_on_degree_one_harmonic(self):
        # literal Eq. (hg) H equals minus the section-3.1 physical
        # Hamiltonian on the sphere: H s_3 = -2 s_3 (the global sign is
        # measured, not assumed; see match_spectrum_to_signature)
        from pseudosphere.model import ModelParams, build_H
        H = build_H(Metric((1, 1, 1)), ModelParams.from_a((0, 0, 0)))
        assert apply_op(H, {(0, 0, 1): F(1)}, hbar=1) == {(0, 0, 1): F(-2)}

    def test_formal_hbar_rejected(self):
        op = WeylOp.term(3, 1, dmon=(1, 0, 0), hpow=1)
        with pytest.raises(ValueError):
            apply_op(op, {(1, 0, 0): F(1)})


class TestDivideByHbar:
    def test_single_term(self):
        op = WeylOp.term(3, 1, smon=(1, 0, 0), dmon=(1, 0, 0), hpow=1)
        want = WeylOp.term(3, 1, smon=(1, 0, 0), dmon=(1, 0, 0))
        assert divide_by_hbar(op) == want

    def test_mixed_degrees(self):
        op = WeylOp.const(3, 1, hpow=3) + WeylOp.term(3, 1, dmon=(0, 1, 0),
                                                      hpow=1)
        want = WeylOp.const(3, 1, hpow=2) + WeylOp.term(3, 1, dmon=(0, 1, 0))
        assert divide_by_hbar(op) == want

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            divide_by_hbar(WeylOp.const(3, 1))


class TestReduceModConstraint:
    def test_sphere_quadric_literal_orientation(self):
        # literal Eq. (orbit2) g_ij s^i s^j = -1: under diag(1,1,1) the sum
        # of squares reduces to -1 (the real sphere is diag(-1,-1,-1))
        quad = s(0, 2) + s(1, 2) + s(2, 2)
        assert reduce_mod_constraint(quad, Metric((1, 1, 1))) == \
            WeylOp.const(3, -1)
        assert reduce_mod_constraint(quad.scale(-1), Metric((-1, -1, -1))) == \
            WeylOp.const(3, -1)

    def test_hyperboloid_rearrangement(self):
        got = reduce_mod_constraint(s(2, 2), Metric((1, 1, -1)))
        assert got == WeylOp.const(3, 1) + s(0, 2) + s(1, 2)

    def test_no_reducible_power_is_identity(self):
        op = compose(s(0), D(1))
        for diag in [(1, 1, 1), (1, 1, -1), (1, -1, -1)]:
            assert reduce_mod_constraint(op, Metric(diag)) == op

    def test_idempotent(self):
        rng = random.Random(11)
        m = Metric((1, 1, -1))
        for _ in range(10):
            op = random_op(rng, dim=3)
            once = reduce_mod_constraint(op, m)
            assert reduce_mod_constraint(once, m) == once

    def test_ideal_membership_with_negative_pivot_powers(self):
        m = Metric((1, 1, -1))
        quad = s(0, 2) + s(1, 2) - s(2, 2) + WeylOp.const(3, 1)
        elt = compose(quad, s(2, -2))  # in the ideal, negative pivot power
        assert vanishes_mod_constraint(elt, m)
        assert not vanishes_mod_constraint(elt + WeylOp.const(3, 1), m)


def reference_reduce(op, metric):
    """Branch-by-branch worklist rewrite of s_d^2, merged only at the end:
    exponential in the s_d exponent, kept as the oracle for the level-wise
    normal form."""
    d = op.dim
    last = d - 1
    gdd = metric.diag[last]
    repl = [((0,) * d, F(-gdd))]
    for i in range(last):
        mono = tuple(2 if k == i else 0 for k in range(d))
        repl.append((mono, F(-gdd * metric.diag[i])))
    out = {}
    work = list(op.terms.items())
    while work:
        (A, B), hp = work.pop()
        if A[last] >= 2:
            Ared = tuple(a - 2 if i == last else a for i, a in enumerate(A))
            for mono, c in repl:
                key = (tuple(Ared[i] + mono[i] for i in range(d)), B)
                work.append((key, _hp_scale(hp, c)))
            continue
        merged = _hp_add(out.get((A, B), {}), hp)
        if merged:
            out[(A, B)] = merged
        else:
            out.pop((A, B), None)
    return WeylOp(d, out)


# every d = 3 signature and one d = 4 metric
PROPERTY_METRICS = [Metric(diag) for diag in itertools.product((1, -1), repeat=3)] \
    + [Metric((1, -1, 1, -1))]
NONZERO = [n for n in range(-6, 7) if n]


@st.composite
def pivot_heavy_ops(draw, dim):
    """Operators whose s_d exponents reach 12 and go down to -4."""
    op = WeylOp.zero(dim)
    for _ in range(draw(st.integers(1, 6))):
        smon = tuple(draw(st.integers(-2, 3)) for _ in range(dim - 1)) \
            + (draw(st.integers(-4, 12)),)
        dmon = tuple(draw(st.integers(0, 2)) for _ in range(dim))
        coeff = F(draw(st.sampled_from(NONZERO)), draw(st.integers(1, 4)))
        op += WeylOp.term(dim, coeff, smon=smon, dmon=dmon,
                          hpow=draw(st.integers(0, 2)))
    return op


def _quadric_plus_one(metric):
    d = metric.dim
    return sum((s(i, 2, dim=d).scale(g) for i, g in enumerate(metric.diag)),
               WeylOp.const(d, 1))


@pytest.mark.parametrize("metric", PROPERTY_METRICS, ids=lambda m: str(m.diag))
class TestLevelwiseNormalForm:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_reference_reduced_idempotent(self, metric, data):
        op = data.draw(pivot_heavy_ops(metric.dim))
        once = reduce_mod_constraint(op, metric)
        assert once == reference_reduce(op, metric)
        assert all(A[-1] < 2 for A, _ in once.terms)
        assert reduce_mod_constraint(once, metric) == once

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_multiples_of_quadric_vanish(self, metric, data):
        # (q+1) X is in (q+1)·W whatever the pivot powers of X; adding 1
        # takes it out
        elt = compose(_quadric_plus_one(metric), data.draw(pivot_heavy_ops(metric.dim)))
        assert vanishes_mod_constraint(elt, metric)
        assert not vanishes_mod_constraint(elt + WeylOp.const(metric.dim, 1), metric)


def _shifted(op, power):
    """s_d^power · op, exponents moved by hand (the pivot shift)."""
    return type(op)(op.dim, {(A[:-1] + (A[-1] + power,), B): c
                             for (A, B), c in op.terms.items()})


@pytest.mark.parametrize("metric", PROPERTY_METRICS, ids=lambda m: str(m.diag))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_integer_kernel_matches_reference_worklist(metric, data):
    # the common pivot shift of _normal_forms, then the integer rewrite,
    # against the Fraction worklist on the shifted operators, key for key
    # s_d exponents up to 8, so that the shifted ones stay at most 12
    ops = [WeylOp(metric.dim, {key: c for key, c in data.draw(pivot_heavy_ops(metric.dim)).terms.items()
                               if key[0][-1] <= 8})
           for _ in range(data.draw(st.integers(1, 3)))]
    low = min((A[-1] for op in ops for A, _ in op.terms), default=0)
    shift = 2 * ((-low + 1) // 2) if low < 0 else 0
    for op, got in zip(ops, _normal_forms(ops, metric)):
        want = reference_reduce(_shifted(op, shift), metric)
        assert got.terms == want.terms
        assert_canonical(got)
        alone = reference_reduce(_shifted(op, _pivot_shift([op])), metric)
        assert vanishes_mod_constraint(op, metric) == alone.is_zero()
    assert reduce_mod_constraint(ops[0], metric).terms == reference_reduce(ops[0], metric).terms


def _hp_mul(a, b):
    out = {}
    for i, u in a.items():
        for j, v in b.items():
            k = i + j
            w = out.get(k, F(0)) + u * v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
    return out


def _leibniz_axis(b, c):
    """Nonzero contributions of D^b composed with s^c along one axis.

    Yields (j, coefficient) with D^b s^c = sum_j C(b,j) c^(falling j)
    s^(c-j) D^(b-j); for c >= 0 the falling factorial truncates the sum.
    """
    for j in range(b + 1):
        f = _falling(c, j)
        if f:
            yield j, comb(b, j) * f


def reference_compose(lhs, rhs):
    """Fraction arithmetic throughout, Leibniz expansion rebuilt axis by
    axis for every term pair: kept as the oracle for the integer-numerator
    compose."""
    lhs._check(rhs)
    d = lhs.dim
    out = {}
    for (A, B), ca in lhs.terms.items():
        for (C, D), cb in rhs.terms.items():
            base = _hp_mul(ca, cb)
            if not base:
                continue
            # distribute D^B across s^C axis by axis
            parts = [(tuple(), 1)]
            for ax in range(d):
                if B[ax] == 0 or C[ax] == 0:
                    parts = [(j + (0,), c) for j, c in parts]
                    continue
                new = []
                for j, c in parts:
                    for jx, cx in _leibniz_axis(B[ax], C[ax]):
                        new.append((j + (jx,), c * cx))
                parts = new
            for jvec, cf in parts:
                smon = tuple(A[i] + C[i] - jvec[i] for i in range(d))
                dmon = tuple(B[i] - jvec[i] + D[i] for i in range(d))
                key = (smon, dmon)
                hp = _hp_scale(base, F(cf)) if cf != 1 else base
                merged = _hp_add(out.get(key, {}), hp)
                if merged:
                    out[key] = merged
                else:
                    out.pop(key, None)
    return WeylOp(d, out)


@st.composite
def dense_ops(draw, dim):
    """Canonical operators with multi-term h-polynomials (h powers 0..5),
    denominators 1..6, s exponents -12..12 and D exponents 0..3."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        key = (tuple(draw(st.integers(-12, 12)) for _ in range(dim)),
               tuple(draw(st.integers(0, 3)) for _ in range(dim)))
        terms[key] = {k: F(draw(st.sampled_from(NONZERO)), draw(st.integers(1, 6)))
                      for k in draw(st.sets(st.integers(0, 5), min_size=1, max_size=3))}
    return WeylOp(dim, terms)


def assert_canonical(op):
    for hp in op.terms.values():
        assert hp
        assert all(type(c) is F and c for c in hp.values())


class TestComposeOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6))
    def test_matches_reference_compose(self, data, dim):
        X = data.draw(dense_ops(dim))
        Y = data.draw(dense_ops(dim))
        got = compose(X, Y)
        assert got == reference_compose(X, Y)
        assert_canonical(got)

    def test_cancelling_products(self):
        # (s1 D1 + 1) s1^-1 = D1: the s1^-1 terms cancel
        X = compose(s(0), D(0)) + WeylOp.const(3, 1)
        assert compose(X, s(0, -1)) == D(0) == reference_compose(X, s(0, -1))
        # a zero operand, or an explicit zero scalar, composes to zero
        zero_scalar = WeylOp(3, {((1, 0, 0), (0, 1, 0)): {0: F(0)}})
        for Y in (WeylOp.zero(3), zero_scalar):
            assert compose(X, Y).terms == {} == compose(Y, X).terms
            assert reference_compose(X, Y).terms == {}


class TestPackedBound:
    def test_exponents_at_the_bound_match_the_oracle(self):
        # the extreme slots: s exponents down to -3 * _BOUND, D exponents
        # up to 2 * _BOUND, h powers up to 3 * _BOUND
        X = WeylOp.term(2, F(3, 7), smon=(-_BOUND, _BOUND), dmon=(_BOUND, 1), hpow=_BOUND)
        Y = WeylOp.term(2, F(-5, 2), smon=(-_BOUND, 2), dmon=(_BOUND, 0), hpow=_BOUND) \
            + WeylOp.term(2, 1, smon=(_BOUND, -_BOUND), hpow=-_BOUND)
        assert compose(X, Y).terms == reference_compose(X, Y).terms
        assert _products((X, Y, -1, 1, _BOUND)).terms == \
            (reference_compose(X, Y) - reference_compose(Y, X)).scale_h(_BOUND).terms

    @pytest.mark.parametrize("smon,dmon,hpow", [
        ((_BOUND + 1, 0), (0, 0), 0), ((0, -_BOUND - 1), (0, 0), 0),
        ((0, 0), (0, _BOUND + 1), 0), ((0, 0), (0, 0), _BOUND + 1), ((0, 0), (0, 0), -_BOUND - 1)])
    def test_exponent_beyond_the_bound_raises(self, smon, dmon, hpow):
        big = WeylOp.term(2, 1, smon=smon, dmon=dmon, hpow=hpow)
        for lhs, rhs in ((big, D(0, dim=2)), (s(1, dim=2), big)):
            with pytest.raises(ValueError, match="packed bound"):
                compose(lhs, rhs)
            with pytest.raises(ValueError, match="packed bound"):
                commutator(lhs, rhs)

    def test_h_weight_beyond_the_bound_raises(self):
        with pytest.raises(ValueError, match="packed bound"):
            _products((s(0), D(0), 0, 1, _BOUND + 1))
        # a c = 0 pair is skipped before its weight is read
        assert _products((s(0), D(0), 0, 0, _BOUND + 1)).is_zero()


class TestPackedView:
    def test_built_once_per_operator(self, monkeypatch):
        from pseudosphere import weylops
        X, Y = compose(s(0), D(1)), s(1, 2) + D(0)
        built = []
        packed = weylops._packed
        monkeypatch.setattr(weylops, "_packed", lambda op: built.append(op) or packed(op))
        compose(X, Y)
        commutator(Y, X)
        _products((X, X, 1, F(1, 2), 1), (Y, X, 0))
        assert len(built) == 2 and built[0] is X and built[1] is Y

    def test_derived_operators_compose_like_fresh_ones(self):
        # an operator used in a product carries its packed view; nothing
        # derived from it may reuse that view
        rng = random.Random(31)
        m = Metric((1, 1, -1))
        for _ in range(8):
            X = random_op(rng, dim=3).scale_h(1)
            Y = random_op(rng, dim=3)
            compose(X, Y)
            commutator(Y, X)
            derived = [X.scale(F(-3, 2)), X + Y, X - Y, Y - X, X.scale_h(2),
                       divide_by_hbar(X), specialize_hbar(X, F(1, 3)),
                       reduce_mod_constraint(X, m)]
            for Z in derived:
                fresh = WeylOp(3, {key: dict(hp) for key, hp in Z.terms.items()})
                for W in (X, Y, fresh):
                    want = reference_compose(fresh, W).terms
                    assert compose(Z, W).terms == compose(fresh, W).terms == want
                    assert commutator(W, Z).terms == commutator(W, fresh).terms == \
                        (reference_compose(W, fresh) - reference_compose(fresh, W)).terms


class TestIntegerView:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5))
    def test_rebuilds_the_operator_on_both_rings(self, data, dim):
        # WeylOp scalars with several h powers, and the PhasePoly of each
        # key's lowest-power coefficient: one entry per scalar component,
        # integer numerators over the least common denominator, and
        # _from_parts rebuilds the operator exactly
        from pseudosphere.phase import PhasePoly
        X = data.draw(dense_ops(dim))
        f = PhasePoly(dim, {key: hp[min(hp)] for key, hp in X.terms.items()})
        for op, components in (
                (X, {(A, B, k): c for (A, B), hp in X.terms.items() for k, c in hp.items()}),
                (f, {(A, B, 0): c for (A, B), c in f.terms.items()})):
            den, terms = _integer_terms(op)
            assert den == lcm(*(c.denominator for c in components.values()))
            assert all(type(n) is int for *_, n in terms)
            assert len(terms) == len(components)
            assert {(A, B, part): F(n, den) for A, B, part, n in terms} == components
            rebuilt = _from_parts(type(op), dim, den, terms)
            assert type(rebuilt) is type(op) and rebuilt.terms == op.terms


def _reordered(op):
    """An equal operator whose term dict (and WeylOp scalar dicts) were
    filled in the reverse order."""
    return type(op)(op.dim, {key: dict(reversed(c.items())) if isinstance(c, dict) else c
                             for key, c in reversed(op.terms.items())})


class TestTermDict:
    """The constructor, hash, repr and sorted_terms that WeylOp and
    phase.PhasePoly share through TermDict."""

    def test_repr_is_pinned(self):
        from pseudosphere.phase import PhasePoly
        X = WeylOp.term(2, F(-3, 4), smon=(-2, 1), dmon=(0, 2)) \
            + WeylOp.term(2, 5, smon=(-2, 1), dmon=(0, 2), hpow=2) \
            + WeylOp.term(2, F(1, 3), smon=(1, -1), dmon=(1, 0), hpow=1)
        f = PhasePoly.term(2, F(-3, 4), smon=(-2, 1), pmon=(0, 2)) \
            + PhasePoly.term(2, F(7, 2), smon=(1, -1), pmon=(1, 0)) + PhasePoly.term(2, 2)
        assert repr(X) == "WeylOp[(-3/4 + 5*h^2)*s1^-2*s2^1*D2^2 + (1/3*h^1)*s1^1*s2^-1*D1^1]"
        assert repr(f) == "PhasePoly[(-3/4)*s1^-2*s2^1*p2^2 + (2) + (7/2)*s1^1*s2^-1*p1^1]"
        assert repr(WeylOp.zero(3)) == "WeylOp(0)"
        assert repr(PhasePoly.zero(3)) == "PhasePoly(0)"

    def test_term_checks_exponents_on_both_rings(self):
        from pseudosphere.phase import PhasePoly
        for term in (lambda A, B: WeylOp.term(2, 3, smon=A, dmon=B, hpow=1),
                     lambda A, B: PhasePoly.term(2, 3, smon=A, pmon=B)):
            for A, B in (((1,), None), (None, (0, 1, 0)), ((1, 0), (0, -1))):
                with pytest.raises(ValueError, match="bad exponent vectors"):
                    term(A, B)
        assert WeylOp.term(2, 3, smon=(-1, 2), hpow=1).terms == {((-1, 2), (0, 0)): {1: F(3)}}
        assert PhasePoly.term(2, 3, pmon=(0, 2)).terms == {((0, 0), (0, 2)): F(3)}
        assert WeylOp.term(2, 0, smon=(1, 1)).is_zero() and PhasePoly.term(2, 0).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4))
    def test_equal_operators_hash_equal_and_sort_alike(self, data, dim):
        # the PhasePoly of each key's lowest-power coefficient has X's keys,
        # and its sorted_terms list them in the same order
        from pseudosphere.phase import PhasePoly
        X = data.draw(dense_ops(dim))
        f = PhasePoly(dim, {key: hp[min(hp)] for key, hp in X.terms.items()})
        for op in (X, f):
            Y = _reordered(op)
            assert Y == op and hash(Y) == hash(op) and len({op, Y}) == 1
            assert Y.sorted_terms() == op.sorted_terms()
        assert [key for key, _ in X.sorted_terms()] == sorted(X.terms)
        assert f.sorted_terms() == tuple((key, ((0, f.terms[key]),))
                                         for key, _ in X.sorted_terms())


def reference_commutator(lhs, rhs):
    """The two products formed and subtracted: the oracle for the
    one-pass commutator."""
    return compose(lhs, rhs) - compose(rhs, lhs)


def reference_anticommutator(lhs, rhs):
    """The two products formed and added: the oracle for the one-pass
    anticommutator."""
    return compose(lhs, rhs) + compose(rhs, lhs)


class TestBracketOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6))
    def test_matches_reference_brackets(self, data, dim):
        X = data.draw(dense_ops(dim))
        Y = data.draw(dense_ops(dim))
        for got, want in ((commutator(X, Y), reference_commutator(X, Y)),
                          (anticommutator(X, Y), reference_anticommutator(X, Y))):
            assert got.terms == want.terms
            assert_canonical(got)
        assert commutator(X, X).terms == {}

    def test_dimension_mismatch(self):
        for bracket in (commutator, anticommutator):
            with pytest.raises(DimensionMismatch):
                bracket(WeylOp.coord(2, 0), WeylOp.coord(3, 0))


@st.composite
def weighted_pairs(draw, dim):
    """(lhs, rhs, sign, c, e) pairs: c = 0 and e > 0 included, and
    denominators of c (1, 2, 4, 6, 12) that share factors with each
    other and with the operands' (1..6)."""
    return [(draw(dense_ops(dim)), draw(dense_ops(dim)), draw(st.sampled_from((-1, 0, 1))),
             F(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 4, 6, 12)))),
             draw(st.integers(0, 2)))
            for _ in range(draw(st.integers(1, 4)))]


def reference_weighted(pairs):
    """The sum of c h^e (lhs o rhs + sign rhs o lhs), each product formed,
    scaled and added with +: the oracle for _products with factors."""
    total = WeylOp.zero(pairs[0][0].dim)
    for X, Y, sign, c, e in pairs:
        total += (compose(X, Y) + compose(Y, X).scale(sign)).scale(c).scale_h(e)
    return total


class TestWeightedProducts:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6))
    def test_matches_sum_of_scaled_products(self, data, dim):
        pairs = data.draw(weighted_pairs(dim))
        got = _products(*pairs)
        assert got.terms == reference_weighted(pairs).terms
        assert_canonical(got)

    def test_factor_defaults_zero_and_shared_denominators(self):
        X = compose(s(0, -1), D(1)).scale(F(1, 6)) + WeylOp.const(3, F(3, 4), hpow=1)
        Y = s(1, 2).scale(F(2, 9)) + D(0, 2).scale(F(5, 4))
        # a 3-tuple is c = 1, e = 0
        assert _products((X, Y, -1)) == _products((X, Y, -1, 1, 0)) == commutator(X, Y)
        # a c = 0 pair contributes nothing, even beside others
        assert _products((X, Y, 0, 0, 3)).is_zero()
        assert _products((X, Y, 1, 0, 0), (Y, X, 0, F(5, 6), 2)) == \
            compose(Y, X).scale(F(5, 6)).scale_h(2)
        # c's denominator 12 shares factors with the operands' 6, 4, 9, 4
        pairs = [(X, Y, 0, F(7, 12), 1), (Y, X, -1, F(-3, 8), 0), (X, X, 1, F(1, 18), 2)]
        assert _products(*pairs) == reference_weighted(pairs)
        # a pair and its negation cancel to zero in the one accumulator
        assert _products((X, Y, 0, F(2, 3), 1), (X, Y, 0, F(-2, 3), 1)).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            _products((s(0), D(0), 0, 0, 0), (WeylOp.coord(2, 0), WeylOp.coord(2, 1), 0, 1, 0))


def _constraint_points():
    """Rational points on s1^2 + s2^2 - s3^2 = -1 with all coords nonzero."""
    pts = []
    for t in [F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(5, 2)]:
        for u in [F(1, 2), F(2), F(3), F(5, 3)]:
            c = 1 + t * t
            s1 = (u - c / u) / 2
            s3 = (u + c / u) / 2
            if s1 != 0:
                pts.append((s1, t, s3))
    return pts


class TestConstraintSurface:
    def test_reduction_preserves_values_on_surface(self):
        # reduce_mod_constraint only changes the representative, never the
        # function on the constraint surface
        m = Metric((1, 1, -1))
        rng = random.Random(13)
        pts = _constraint_points()
        assert len(pts) >= 20
        for _ in range(8):
            op = random_op(rng, dim=3)
            red = reduce_mod_constraint(op, m)
            f = {(1, 1, 1): F(1), (2, 0, 0): F(1, 2)}
            before = apply_op(specialize_hbar(op, 1), f, hbar=1)
            after = apply_op(specialize_hbar(red, 1), f, hbar=1)
            for p in pts:
                assert lp_eval(before, p) == lp_eval(after, p)


class TestAlgebraProperties:
    def test_apply_oracle_compose(self):
        rng = random.Random(2024)
        monos = [(i, j) for i in range(-2, 3) for j in range(-2, 3)
                 if abs(i) + abs(j) <= 4]
        for trial in range(100):
            X = random_op(rng, dim=2, max_terms=3)
            Y = random_op(rng, dim=2, max_terms=3)
            XY = compose(X, Y)
            for h in (F(1), F(1, 3)):
                Xh, Yh, XYh = (specialize_hbar(o, h) for o in (X, Y, XY))
                for mono in monos if trial < 10 else monos[::5]:
                    f = {mono: F(1)}
                    assert apply_op(XYh, f, hbar=h) == \
                        apply_op(Xh, apply_op(Yh, f, hbar=h), hbar=h)

    def test_antisymmetry(self):
        rng = random.Random(5)
        for _ in range(20):
            X, Y = random_op(rng), random_op(rng)
            assert commutator(X, Y) == commutator(Y, X).scale(-1)

    def test_jacobi_identity(self):
        rng = random.Random(17)
        for _ in range(50):
            X = random_op(rng, dim=2, max_terms=2)
            Y = random_op(rng, dim=2, max_terms=2)
            Z = random_op(rng, dim=2, max_terms=2)
            acc = commutator(X, commutator(Y, Z)) \
                + commutator(Y, commutator(Z, X)) \
                + commutator(Z, commutator(X, Y))
            assert acc.is_zero()

    def test_associativity_canonical_form(self):
        rng = random.Random(23)
        for _ in range(15):
            X, Y, Z = (random_op(rng) for _ in range(3))
            assert compose(X, compose(Y, Z)) == compose(compose(X, Y), Z)

    def test_anticommutator_symmetry(self):
        rng = random.Random(29)
        X, Y = random_op(rng), random_op(rng)
        assert anticommutator(X, Y) == anticommutator(Y, X)


class TestMetric:
    def test_signature(self):
        assert Metric((1, 1, -1)).signature == (2, 1)
        assert Metric((1, 1, 1)).dim == 3

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            Metric((1, 2, 1))


@st.composite
def small_ops(draw, dim):
    """Operators of up to three terms: s exponents -2..2, D exponents
    0..2, h powers 0..1, denominators 1..4."""
    op = WeylOp.zero(dim)
    for _ in range(draw(st.integers(1, 3))):
        op += WeylOp.term(dim, F(draw(st.sampled_from(NONZERO)), draw(st.integers(1, 4))),
                          smon=tuple(draw(st.integers(-2, 2)) for _ in range(dim)),
                          dmon=tuple(draw(st.integers(0, 2)) for _ in range(dim)),
                          hpow=draw(st.integers(0, 1)))
    return op


@st.composite
def laurent_polys(draw, dim):
    return {tuple(draw(st.integers(-3, 3)) for _ in range(dim)):
            F(draw(st.sampled_from(NONZERO)), draw(st.integers(1, 4)))
            for _ in range(draw(st.integers(1, 4)))}


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_compose_associative(self, data, dim):
        X, Y, Z = (data.draw(small_ops(dim)) for _ in range(3))
        assert compose(X, compose(Y, Z)) == compose(compose(X, Y), Z)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_commutator_jacobi(self, data, dim):
        X, Y, Z = (data.draw(small_ops(dim)) for _ in range(3))
        acc = commutator(X, commutator(Y, Z)) + commutator(Y, commutator(Z, X)) \
            + commutator(Z, commutator(X, Y))
        assert acc.is_zero()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3),
           h=st.sampled_from([F(1), F(-2), F(1, 3)]))
    def test_apply_of_compose_is_composed_action(self, data, dim, h):
        # the Leibniz rule of compose against the action on Laurent
        # polynomials, with h evaluated
        X, Y = data.draw(small_ops(dim)), data.draw(small_ops(dim))
        f = data.draw(laurent_polys(dim))
        assert apply_op(compose(X, Y), f, hbar=h) == \
            apply_op(X, apply_op(Y, f, hbar=h), hbar=h)


def reference_vanishes_cl(f, metric):
    """The classical check's former pivot shift, a product with the
    polynomial s_d^(2k), followed by the reduction: the oracle for the
    shared vanishes_mod_constraint on phase-space polynomials."""
    from pseudosphere.phase import PhasePoly, reduce_mod_constraint_cl
    last = f.dim - 1
    low = min((A[last] for A, _ in f.terms), default=0)
    shift = 2 * ((-low + 1) // 2) if low < 0 else 0
    return reduce_mod_constraint_cl(f * PhasePoly.coord(f.dim, last, shift), metric).is_zero()


@pytest.mark.parametrize("metric", PROPERTY_METRICS, ids=lambda m: str(m.diag))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_vanishes_on_phase_polys_matches_product_shift(metric, data):
    from pseudosphere.phase import PhasePoly
    d = metric.dim
    # a phase-space polynomial with the same (s, p) exponents as an operator
    f = PhasePoly(d, {key: F(hp[0] if 0 in hp else 1) for key, hp
                      in data.draw(pivot_heavy_ops(d)).terms.items()})
    q1 = sum((PhasePoly.coord(d, i, 2).scale(g) for i, g in enumerate(metric.diag)),
             PhasePoly.term(d, 1))
    for g in (f, q1 * f, q1 * f + PhasePoly.term(d, 1)):
        assert vanishes_mod_constraint(g, metric) == reference_vanishes_cl(g, metric)
    assert vanishes_mod_constraint(q1 * f, metric)
    assert not vanishes_mod_constraint(q1 * f + PhasePoly.term(d, 1), metric)


def test_correspondence_builds_each_generator_once(monkeypatch):
    # one lookup per ring per correspondence_check: each distinct Q_ij and
    # C_ijk of the pair list is built exactly once over the quantum ring and
    # once over the classical ring, and C_ijk reads its lookup's own Q_ij
    # and Q_ik (at d = 4 all in the pair list)
    from pseudosphere import model, phase
    from pseudosphere.phase import correspondence_check
    built = []
    build = model._build

    def record(ring, metric, params, gen, *tag):
        built.append((ring, gen, tag))
        return build(ring, metric, params, gen, *tag)

    monkeypatch.setattr(model, "_build", record)
    rep = correspondence_check(Metric((1, -1, 1, -1)),
                               model.ModelParams.from_a((1, F(2, 3), -3, F(1, 5))))
    assert rep["passed"]
    tags = {tag for r in rep["records"] for tag in r["pair"]}
    reads = {("Q", t[1], u) for t in tags if t[0] == "C" for u in t[2:]}
    for ring in (model.QUANTUM, phase.CLASSICAL):
        assert len({gen for r, gen, _ in built if r is ring}) == 1
        assert sorted(tag for r, _, tag in built if r is ring) == sorted(tags)
    assert len(built) == 2 * len(tags)
    assert reads <= tags
    assert sum(tag[0] == "C" for tag in tags) == 4 and len(tags) == 10

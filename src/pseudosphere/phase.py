"""Classical phase-space mirror of the operator algebra.

Polynomials in momenta p_i with Laurent coefficients in the coordinates
s_i, exact Poisson brackets with {s_i, p_j} = delta_ij, the classical
generic system, and the quantum -> classical correspondence check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from operator import add, mul

from .weylops import (Metric, TermDict, WeylOp, _integer_terms, reduce_mod_constraint,
                      vanishes_mod_constraint)
from .model import QUANTUM, ModelParams, Ring, _generators, _rotation, _table_residual, _verdict

Mono = tuple[int, ...]

_ZERO = Fraction(0)


class PhasePoly(TermDict):
    """terms: (s exponents, p exponents) -> rational coefficient.

    s exponents may be negative (Laurent), p exponents are >= 0.
    """

    __slots__ = ()
    _add = staticmethod(add)
    _scale = staticmethod(mul)
    _parts = staticmethod(lambda c: ((0, c),))
    _whole = staticmethod(lambda parts: parts[0])
    _LETTER = "p"

    @classmethod
    def term(cls, dim, coeff, smon: Mono = None, pmon: Mono = None) -> "PhasePoly":
        return cls._term(dim, coeff, smon, pmon, 0)

    @classmethod
    def momentum(cls, dim, i, power=1):
        return cls.term(dim, 1, pmon=tuple(power if k == i else 0 for k in range(dim)))

    def __mul__(self, other):
        if isinstance(other, PhasePoly):
            return _products((self, other, 0, 1, 1))
        return self.scale(other)

    def diff_s(self, i) -> "PhasePoly":
        out = {}
        for (A, B), c in self.terms.items():
            if A[i] == 0:
                continue
            A2 = tuple(a - 1 if k == i else a for k, a in enumerate(A))
            out[(A2, B)] = c * A[i]
        return PhasePoly(self.dim, out)

    def diff_p(self, i) -> "PhasePoly":
        out = {}
        for (A, B), c in self.terms.items():
            if B[i] == 0:
                continue
            B2 = tuple(b - 1 if k == i else b for k, b in enumerate(B))
            out[(A, B2)] = c * B[i]
        return PhasePoly(self.dim, out)


def _products(*pairs: tuple) -> PhasePoly:
    """The classical limit of ``weylops._products`` over the same
    (lhs, rhs, sign[, c, e]) pairs of phase-space functions (c = 1 and
    e = 0 when omitted): the h -> 0 limit of
    (1/h) sum c h^e (lhs o rhs + sign * rhs o lhs).  A commutator is
    h {lhs, rhs} + O(h^2) and a product lhs rhs + O(h), so a sign -1 pair
    gives c {lhs, rhs} at e = 0, a sign 0 pair c lhs rhs at e = 1 (sign
    +1: 2 c lhs rhs), and a pair of higher order in h nothing; a pair of
    lower order diverges and raises ValueError.

    A term pair u s^A p^B, v s^C p^D gives (A_i D_i - B_i C_i) u v at
    s^(A+C-e_i) p^(B+D-e_i) for each axis i of a bracket, and u v at
    s^(A+C) p^(B+D) for a product.  Everything accumulates as integers
    over one common denominator; each output coefficient is divided once,
    as a Fraction."""
    first = pairs[0][0]
    factors = []
    for lhs, rhs, sign, *ce in pairs:
        first._check(lhs)
        lhs._check(rhs)
        c, e = (Fraction(ce[0]), ce[1]) if ce else (Fraction(1), 0)
        bracket = sign == -1
        lead = e if bracket else e - 1
        if lead < 0:
            raise ValueError(f"a sign {sign} pair at h^{e} diverges as h -> 0")
        if lead or not c:
            continue
        if not bracket:
            c *= 1 + sign
        dl, left = _integer_terms(lhs)  # (A, B, part 0, numerator) rows
        dr, right = _integer_terms(rhs)
        factors.append((dl * dr * c.denominator, c.numerator, bracket, left, right))
    den = lcm(*(d for d, *_ in factors))
    axes = range(first.dim)
    acc: dict[tuple[Mono, Mono], int] = {}
    for d, n, bracket, left, right in factors:
        f = den // d * n
        for A, B, _, u in left:
            u *= f
            for C, D, _, v in right:
                if not bracket:
                    key = (tuple(map(add, A, C)), tuple(map(add, B, D)))
                    acc[key] = acc.get(key, 0) + u * v
                    continue
                axes_w = [(i, w) for i in axes if (w := A[i] * D[i] - B[i] * C[i])]
                if not axes_w:
                    continue
                AC = tuple(map(add, A, C))
                BD = tuple(map(add, B, D))
                uv = u * v
                for i, w in axes_w:
                    key = (AC[:i] + (AC[i] - 1,) + AC[i + 1:], BD[:i] + (BD[i] - 1,) + BD[i + 1:])
                    acc[key] = acc.get(key, 0) + w * uv
    return PhasePoly(first.dim, {key: Fraction(n, den) for key, n in acc.items() if n})


def poisson_bracket(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """{f, g} with the convention {s_i, p_j} = delta_ij, in one pass over
    the term pairs, on integer numerators (``_products``)."""
    return _products((f, g, -1))


def reduce_mod_constraint_cl(f: PhasePoly, metric: Metric) -> PhasePoly:
    """weylops.reduce_mod_constraint, which takes either ring."""
    return reduce_mod_constraint(f, metric)


def vanishes_mod_constraint_cl(f: PhasePoly, metric: Metric) -> bool:
    """weylops.vanishes_mod_constraint, which takes either ring."""
    return vanishes_mod_constraint(f, metric)


# ---------------------------------------------------------------------------
# the classical generic system

CLASSICAL = Ring(PhasePoly, Fraction, poisson_bracket, _products)


def build_J_cl(metric: Metric, i, j) -> PhasePoly:
    return _rotation(CLASSICAL, metric, i, j)


def build_H_cl(metric: Metric, params: ModelParams) -> PhasePoly:
    return _generators(CLASSICAL, metric, params)("H")


def build_Q_cl(metric: Metric, params: ModelParams, i, j) -> PhasePoly:
    return _generators(CLASSICAL, metric, params)("Q", i, j)


def build_C_cl(metric: Metric, params: ModelParams, i, j, k) -> PhasePoly:
    """Classical C_ijk, defined directly as {Q_ij, Q_ik}."""
    return _generators(CLASSICAL, metric, params)("C", i, j, k)


def build_classical_model(metric: Metric, params: ModelParams) -> dict:
    """All classical generators: H, every Q_ij (i < j), every C_ijk."""
    gen = _generators(CLASSICAL, metric, params)
    tags = [("Q",) + t for t in combinations(range(metric.dim), 2)] \
        + [("C",) + t for t in permutations(range(metric.dim), 3)]
    return {"H": gen("H"), **{tag: gen(*tag) for tag in tags}}


def classical_relation_residual(family: str, idx, metric: Metric,
                                params: ModelParams) -> PhasePoly:
    """LHS - RHS of the classical bracket relation: the RELATIONS entry
    at h = 0, with commuting products."""
    return _table_residual(family, tuple(idx), metric, params, CLASSICAL)


def verify_classical_relation(family: str, idx, metric: Metric,
                              params: ModelParams) -> dict:
    """The fields of ``model.verify_relation``'s report, less the
    signature, params and timing, over the classical ring."""
    r = _verdict(family, idx, metric, params, CLASSICAL)
    return {"family": r.family, "indices": r.indices, "passed": r.passed,
            "reduced": r.reduced, "residual_terms": r.residual_terms}


# ---------------------------------------------------------------------------
# quantum -> classical correspondence

def principal_symbol(op: WeylOp) -> PhasePoly:
    """Map h d_k -> p_k term by term and then set h = 0.

    A normal-ordered term c(h) s^A D^B contributes the coefficient of
    h^|B| in c times s^A p^B; higher powers of h vanish in the limit.
    """
    return PhasePoly(op.dim, {(A, B): c for (A, B), hp in op.terms.items()
                              if (c := hp.get(sum(B), _ZERO))})


def correspondence_check(metric: Metric, params: ModelParams,
                         pairs=None) -> dict:
    """Certify sigma((1/h)[X, Y]) = -{sigma X, sigma Y} for every generator
    pair, with sigma X = +-X_cl, without forming [X, Y].

    Each distinct tag is checked once: its quantum build is a Rees element
    (every term c h^e s^A D^B has e >= |B|; for such X and Y the kernel
    gives the first identity) and its principal symbol is its classical
    build, negated for C_ijk.  A pair records sign 0 when {X_cl, Y_cl}
    vanishes (for (Q_ij, Q_ik) that is the classical C_ijk), -1 otherwise,
    and None if a tag failed.  With no pair to check (d < 3 by default) it
    is vacuous and fails.
    """
    if pairs is None:
        pairs = [pair for i, j, k in combinations(range(metric.dim), 3)
                 for pair in ((("Q", i, j), ("Q", i, k)), (("Q", j, k), ("C", i, j, k)))]

    q_op, cl_op = (_generators(ring, metric, params) for ring in (QUANTUM, CLASSICAL))
    certified = {}
    for tag in dict.fromkeys(tag for pair in pairs for tag in pair):
        X = q_op(*tag)
        certified[tag] = all(min(hp) >= sum(B) for (_, B), hp in X.terms.items()) \
            and principal_symbol(X) == cl_op(*tag).scale(-1 if tag[0] == "C" else 1)
    records = []
    for (x, y) in pairs:
        qq = x[0] == y[0] == "Q" and x[1] == y[1] and x[2] != y[2]
        bracket = cl_op("C", *x[1:], y[2]) if qq else CLASSICAL.bracket(cl_op(*x), cl_op(*y))
        sign = (0 if bracket.is_zero() else -1) if certified[x] and certified[y] else None
        records.append({"pair": (x, y), "sign": sign})
    signs = [r["sign"] for r in records]
    return {"passed": bool(records) and None not in signs,
            "global_sign": -1 if -1 in signs else None,
            "vacuous": not records,
            "records": records}

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

from .weylops import Metric, TermDict, WeylOp, reduce_mod_constraint, vanishes_mod_constraint
from .model import QUANTUM, ModelParams, Ring, _closes, _generators, _rotation, _table_residual

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

    @classmethod
    def term(cls, dim, coeff, smon: Mono = None, pmon: Mono = None) -> "PhasePoly":
        c = Fraction(coeff)
        if not c:
            return cls(dim)
        A = tuple(smon) if smon is not None else (0,) * dim
        B = tuple(pmon) if pmon is not None else (0,) * dim
        if len(A) != dim or len(B) != dim or any(b < 0 for b in B):
            raise ValueError("bad exponent vectors")
        return cls(dim, {(A, B): c})

    @classmethod
    def momentum(cls, dim, i, power=1):
        return cls.term(dim, 1, pmon=tuple(power if k == i else 0 for k in range(dim)))

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if self.is_zero():
            return "PhasePoly(0)"
        bits = []
        for (A, B), c in sorted(self.terms.items()):
            sm = "".join(f"*s{i + 1}^{e}" for i, e in enumerate(A) if e)
            pm = "".join(f"*p{i + 1}^{e}" for i, e in enumerate(B) if e)
            bits.append(f"({c}){sm}{pm}")
        return "PhasePoly[" + " + ".join(bits) + "]"

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


def _integer_terms(f: PhasePoly):
    """(den, [(A, B, integer numerator over den)]), den the lcm of f's
    denominators."""
    den = lcm(*(c.denominator for c in f.terms.values()))
    return den, [(A, B, c.numerator * (den // c.denominator)) for (A, B), c in f.terms.items()]


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
        dl, left = _integer_terms(lhs)
        dr, right = _integer_terms(rhs)
        factors.append((dl * dr * c.denominator, c.numerator, bracket, left, right))
    den = lcm(*(d for d, *_ in factors))
    axes = range(first.dim)
    acc: dict[tuple[Mono, Mono], int] = {}
    for d, n, bracket, left, right in factors:
        f = den // d * n
        for A, B, u in left:
            u *= f
            for C, D, v in right:
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
    residual = classical_relation_residual(family, tuple(idx), metric, params)
    passed, reduced = _closes(residual, metric)
    return {"family": family, "indices": tuple(idx), "passed": passed,
            "reduced": reduced,
            "residual_terms": 0 if passed else len(residual.terms)}


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
    """Compare sigma((1/h)[X, Y]) at h = 0 with +-{sigma X, sigma Y}.

    Records the sign that matches for every generator pair and asserts
    it is one global constant (0-sign entries mean both sides vanished).
    With no pair to check (d < 3 by default) it is vacuous and fails.
    """
    if pairs is None:
        pairs = [pair for i, j, k in combinations(range(metric.dim), 3)
                 for pair in ((("Q", i, j), ("Q", i, k)), (("Q", j, k), ("C", i, j, k)))]

    q_op = _generators(QUANTUM, metric, params)
    records = []
    signs = set()
    for (x, y) in pairs:
        Xq, Yq = q_op(*x), q_op(*y)
        lhs = principal_symbol(QUANTUM.bracket(Xq, Yq))
        rhs = CLASSICAL.bracket(principal_symbol(Xq), principal_symbol(Yq))
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

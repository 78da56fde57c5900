"""Exact arithmetic for normal-ordered differential operators.

Operators live in d ambient variables s_1..s_d with Laurent-polynomial
coefficients over Q, extended by a formal parameter ``h`` (the quantum
constant).  A term is ``c(h) * s^A * D^B`` with A an integer exponent
vector (negative entries allowed) and B a nonnegative one over the
partial derivatives.  Every operator is kept in canonical normal order:
all coordinate factors to the left of all derivative factors, equal
(A, B) keys merged, zero scalars pruned.  Equality of canonical forms is
therefore plain structural equality.

Negative coordinate powers compose through falling factorials, which is
valid on the open set where the relevant coordinates do not vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from operator import add, sub

Mono = tuple[int, ...]
HPoly = dict[int, Fraction]
LaurentPoly = dict[Mono, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Raised when operands over different ambient dimensions are mixed."""


class NotDivisible(ValueError):
    """Raised when an operator has no overall factor of h."""


# ---------------------------------------------------------------------------
# scalar polynomials in h

def _hp_add(a: HPoly, b: HPoly) -> HPoly:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, _ZERO) + v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out

def _hp_scale(a: HPoly, c: Fraction) -> HPoly:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}

def _hp_eval(a: HPoly, h: Fraction) -> Fraction:
    return sum((v * h**k for k, v in a.items()), _ZERO)


def _falling(k: int, j: int) -> int:
    """k (k-1) ... (k-j+1), valid for negative k as well."""
    out = 1
    for t in range(j):
        out *= k - t
    return out


@dataclass(frozen=True)
class Metric:
    """Diagonal pseudo-Riemannian metric with entries +-1.

    The pseudo-sphere it defines is the quadric ``sum_i g_ii s_i^2 = -1``;
    an all-positive metric has no real points on that quadric but the
    algebra (and the constraint rewrite) remain well defined over Q.
    """

    diag: tuple[int, ...]

    def __post_init__(self):
        if not self.diag or any(type(e) is not int or e not in (1, -1) for e in self.diag):
            raise ValueError(f"metric entries must be the integers +1 and -1, got {self.diag!r}")

    @property
    def dim(self) -> int:
        return len(self.diag)

    @property
    def signature(self) -> tuple[int, int]:
        return (self.diag.count(1), self.diag.count(-1))


class TermDict:
    """Sparse map (coordinate exponents, second exponents) -> scalar.

    The base of ``WeylOp`` and ``phase.PhasePoly``: the linear arithmetic
    over a scalar ring given by ``_add(c, c2)`` and ``_scale(c, rational)``,
    with zero scalars falsy and pruned.  A scalar is a vector of rational
    components over Q: ``_parts(c)`` lists its nonzero (part, rational)
    pairs and ``_whole({part: rational})`` rebuilds it; the constraint
    rewrite reads and writes scalars only through these.  Instances are
    treated as immutable values; all arithmetic returns new objects.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms = {} if terms is None else terms

    @classmethod
    def zero(cls, dim: int):
        return cls(dim)

    @classmethod
    def coord(cls, dim: int, i: int, power: int = 1):
        return cls.term(dim, 1, smon=tuple(power if k == i else 0 for k in range(dim)))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def _check(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimension {self.dim} != {other.dim}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            old = out.get(key)
            new = c if old is None else self._add(old, c)
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return type(self)(self.dim, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return type(self)(self.dim)
        return type(self)(self.dim, {k: self._scale(v, c) for k, v in self.terms.items()})

    def __rmul__(self, other):
        return self.scale(other)


class WeylOp(TermDict):
    """A normal-ordered differential operator with exact coefficients.

    ``terms`` maps (coordinate exponents, derivative exponents) to the
    scalar polynomial in h.
    """

    __slots__ = ()
    _add = staticmethod(_hp_add)
    _scale = staticmethod(_hp_scale)
    _parts = staticmethod(dict.items)  # (h power, coefficient)
    _whole = staticmethod(dict)

    # -- constructors -------------------------------------------------------

    @classmethod
    def term(cls, dim: int, coeff, smon: Mono = None, dmon: Mono = None,
             hpow: int = 0) -> "WeylOp":
        c = Fraction(coeff)
        if not c:
            return cls(dim)
        A = tuple(smon) if smon is not None else (0,) * dim
        B = tuple(dmon) if dmon is not None else (0,) * dim
        if len(A) != dim or len(B) != dim or any(b < 0 for b in B):
            raise ValueError("bad exponent vectors")
        return cls(dim, {(A, B): {hpow: c}})

    @classmethod
    def const(cls, dim: int, coeff, hpow: int = 0) -> "WeylOp":
        return cls.term(dim, coeff, hpow=hpow)

    @classmethod
    def deriv(cls, dim: int, i: int, power: int = 1) -> "WeylOp":
        dmon = tuple(power if k == i else 0 for k in range(dim))
        return cls.term(dim, 1, dmon=dmon)

    # -- basic structure ----------------------------------------------------

    def __hash__(self):
        return hash((self.dim, self.sorted_terms()))

    def sorted_terms(self) -> tuple:
        """Deterministic (lexicographic) presentation of the term list."""
        return tuple(
            (key, tuple(sorted(self.terms[key].items())))
            for key in sorted(self.terms)
        )

    def __repr__(self) -> str:
        if self.is_zero():
            return "WeylOp(0)"
        bits = []
        for (A, B), hp in self.sorted_terms():
            sc = " + ".join(
                f"{c}" + (f"*h^{k}" if k else "") for k, c in hp
            )
            mono = "".join(f"*s{i + 1}^{e}" for i, e in enumerate(A) if e)
            dmon = "".join(f"*D{i + 1}^{e}" for i, e in enumerate(B) if e)
            bits.append(f"({sc}){mono}{dmon}")
        return "WeylOp[" + " + ".join(bits) + "]"

    # -- arithmetic ---------------------------------------------------------

    def scale_h(self, hpow: int = 1) -> "WeylOp":
        """Multiply by h**hpow."""
        return WeylOp(self.dim, {
            k: {e + hpow: c for e, c in hp.items()} for k, hp in self.terms.items()
        })

    def __mul__(self, other):
        if isinstance(other, WeylOp):
            return compose(self, other)
        return self.scale(other)


# ---------------------------------------------------------------------------
# core operations

@lru_cache(maxsize=8192)
def _leibniz(B: Mono, C: Mono) -> tuple[tuple[Mono, int], ...]:
    """Nonzero terms (j, coefficient) of D^B s^C = sum_j coeff s^(C-j) D^(B-j).

    Per axis D^b s^c = sum_j C(b,j) c^(falling j) s^(c-j) D^(b-j); for
    c >= 0 the falling factorial truncates the sum.  The first term is
    always j = 0 with coefficient 1.
    """
    parts = [((), 1)]
    for b, c in zip(B, C):
        parts = [(j + (jx,), cf * comb(b, jx) * f) for j, cf in parts
                 for jx in range(b + 1) if (f := _falling(c, jx))]
    return tuple(parts)


@lru_cache(maxsize=8192)
def _leibniz_both(B: Mono, C: Mono, D: Mono, A: Mono, sign: int) -> tuple[tuple[Mono, int], ...]:
    """The Leibniz terms of D^B s^C plus sign times those of D^D s^A,
    merged by j, zeros dropped: for sign -1 the two j = 0 terms, both 1,
    cancel."""
    merged = dict(_leibniz(B, C))
    for j, cf in _leibniz(D, A):
        merged[j] = merged.get(j, 0) + sign * cf
    return tuple((j, cf) for j, cf in merged.items() if cf)


def _integer_terms(op: TermDict):
    """(den, [(A, B, part, n)]): the one integer view of a term
    dictionary, an entry per scalar component (part, v) of ``op._parts``
    (for a WeylOp, part is the power of h) with n = v * den, den the lcm
    of the component denominators."""
    terms = [(A, B, part, v) for (A, B), c in op.terms.items() for part, v in op._parts(c)]
    den = lcm(*(v.denominator for *_, v in terms))
    return den, [(A, B, part, v.numerator * (den // v.denominator)) for A, B, part, v in terms]


def _from_parts(cls, dim: int, den: int, entries) -> TermDict:
    """The inverse of ``_integer_terms``: the canonical cls operator of
    (A, B, part, n) entries, each (A, B, part) once, n an integer
    numerator over den; each nonzero component is divided once and each
    scalar rebuilt once, through ``cls._whole``."""
    terms: dict = {}
    for A, B, part, n in entries:
        if n:
            terms.setdefault((A, B), {})[part] = Fraction(n, den)
    return cls(dim, {key: cls._whole(ps) for key, ps in terms.items()})


def _products(*pairs: tuple) -> WeylOp:
    """The sum over (lhs, rhs, sign[, c, e]) of
    c h^e (lhs o rhs + sign * rhs o lhs) in canonical normal order (sign
    0: lhs o rhs alone; c = 1 and e = 0 when omitted): the kernel of
    compose and of both brackets, and of any exact residual built from
    such products, which it sums in one accumulator.

    A term pair of the operands' integer views (``_integer_terms``),
    u h^i s^A D^B and v h^k s^C D^D, gives s^(A+C-j) D^(B+D-j) h^(i+k+e)
    in both orders, so its Leibniz terms D^B s^C and sign * D^D s^A merge
    by j.  One flat integer accumulator, keyed (s exponents, D exponents,
    h power), sums them over the lcm of dl * dr * den(c) over the pairs
    (dl, dr the operands' denominators), skipping pairs with c = 0; the
    scalars are rebuilt once (``_from_parts``)."""
    first = pairs[0][0]
    factors = []
    for lhs, rhs, sign, *ce in pairs:
        first._check(lhs)
        lhs._check(rhs)
        c, e = (Fraction(ce[0]), ce[1]) if ce else (_ONE, 0)
        if not c:
            continue
        dl, left = _integer_terms(lhs)
        dr, right = _integer_terms(rhs)
        factors.append((dl * dr * c.denominator, c.numerator, e, left, right, sign))
    den = lcm(*(d for d, *_ in factors))
    acc: dict[tuple[Mono, Mono, int], int] = {}
    for d, f, e, left, right, sign in factors:
        f *= den // d
        for A, B, i, u in left:
            u *= f
            i += e
            for C, D, k, v in right:
                shifts = _leibniz_both(B, C, D, A, sign) if sign else _leibniz(B, C)
                if not shifts:
                    continue
                AC = tuple(map(add, A, C))
                BD = tuple(map(add, B, D))
                power, uv = i + k, u * v
                for jvec, cf in shifts:
                    key = (tuple(map(sub, AC, jvec)), tuple(map(sub, BD, jvec)), power)
                    acc[key] = acc.get(key, 0) + cf * uv
    return _from_parts(WeylOp, first.dim, den, ((*key, n) for key, n in acc.items()))


def compose(lhs: WeylOp, rhs: WeylOp) -> WeylOp:
    """Operator product lhs o rhs in canonical normal order."""
    return _products((lhs, rhs, 0))


def commutator(lhs: WeylOp, rhs: WeylOp) -> WeylOp:
    """[lhs, rhs] = lhs o rhs - rhs o lhs in one pass, without forming
    either product.

    The j = 0 Leibniz term of a term pair, c_x c_y s^(A+C) D^(B+D), is the
    same in both orders, because the h-polynomial scalars are central and
    commute with every s and D: it cancels exactly and is never formed."""
    return _products((lhs, rhs, -1))


def anticommutator(lhs: WeylOp, rhs: WeylOp) -> WeylOp:
    """{lhs, rhs} = lhs o rhs + rhs o lhs in one pass, without forming
    either product; the j = 0 Leibniz terms of the two orders are equal
    (central scalars), so they add to twice that term."""
    return _products((lhs, rhs, 1))


def divide_by_hbar(op: WeylOp) -> WeylOp:
    """Strip one overall factor of h; error if any term has an h^0 part."""
    out = {}
    for key, hp in op.terms.items():
        if 0 in hp:
            raise NotDivisible(f"term {key} has h-constant part {hp[0]}")
        out[key] = {e - 1: c for e, c in hp.items()}
    return WeylOp(op.dim, out)


def specialize_hbar(op: WeylOp, h) -> WeylOp:
    """Evaluate the formal h at a rational value."""
    h = Fraction(h)
    out = {}
    for key, hp in op.terms.items():
        v = _hp_eval(hp, h)
        if v:
            out[key] = {0: v}
    return WeylOp(op.dim, out)


def apply_op(op: WeylOp, f: LaurentPoly, hbar=None) -> LaurentPoly:
    """Act with op on a Laurent polynomial, term by term.

    ``hbar`` must be supplied (as a rational) unless every scalar of op
    is h-free; the formal h is rejected here because the result is a
    plain Laurent polynomial.
    """
    if hbar is None:
        if any(set(hp) - {0} for hp in op.terms.values()):
            raise ValueError("operator contains formal h; pass hbar=")
        h = _ONE
    else:
        h = Fraction(hbar)
    d = op.dim
    out: LaurentPoly = {}
    for (A, B), hp in op.terms.items():
        scal = _hp_eval(hp, h)
        if not scal:
            continue
        for K, c in f.items():
            cf = scal * c * prod(_falling(k, b) for k, b in zip(K, B))
            if not cf:
                continue
            mono = tuple(K[i] - B[i] + A[i] for i in range(d))
            w = out.get(mono, _ZERO) + cf
            if w:
                out[mono] = w
            else:
                out.pop(mono, None)
    return out


def lp_eval(f: LaurentPoly, point) -> Fraction:
    """Evaluate a Laurent polynomial at a rational point (no zero coords
    where a negative exponent occurs)."""
    total = _ZERO
    pt = [Fraction(x) for x in point]
    for mono, c in f.items():
        v = c
        for x, e in zip(pt, mono):
            v *= x**e
        total += v
    return total


@lru_cache(maxsize=8192)
def _rewrite_steps(head: Mono, diag: Mono) -> tuple[tuple[Mono, int], ...]:
    """s_d^2 -> g_dd (-1 - sum_{i<d} g_ii s_i^2) acting on s^head (the
    coordinates before s_d): the (image head, +-1 coefficient) pairs."""
    gdd = diag[-1]
    return ((head, -gdd),) + tuple(
        (head[:i] + (head[i] + 2,) + head[i + 1:], -gdd * g) for i, g in enumerate(diag[:-1]))


def _reduced_numerators(op: TermDict, metric: Metric, shift: int = 0):
    """(den, levels) of the normal form modulo the quadric of
    s_d^shift · op, read from ``_integer_terms(op)``: levels[e] maps each
    (B, part) to {A without its s_d exponent e: integer numerator over
    den}, e < 2 throughout, zero numerators possible.

    Level by level in e, from the top: s_d^2 is replaced once
    (``_rewrite_steps``), whose coefficients are +-1, so each image is an
    integer add into level e - 2 and work is linear in e.  The shift is
    applied to the exponents as they are read."""
    if metric.dim != op.dim:
        raise DimensionMismatch(f"metric dim {metric.dim} != {op.dim}")
    last = op.dim - 1
    den, terms = _integer_terms(op)
    levels: dict[int, dict] = {}
    for A, B, part, n in terms:
        levels.setdefault(A[last] + shift, {}).setdefault((B, part), {})[A[:last]] = n
    diag = metric.diag
    for e in range(max(levels, default=0), 1, -1):
        src = levels.pop(e, None)
        if not src:
            continue
        below = levels.setdefault(e - 2, {})
        for bp, row in src.items():
            out = below.setdefault(bp, {})
            for head, n in row.items():
                if n:
                    for target, sg in _rewrite_steps(head, diag):
                        out[target] = out.get(target, 0) + sg * n
    return den, levels


def _from_numerators(cls, dim: int, den: int, levels: dict) -> TermDict:
    """The canonical cls operator of ``_reduced_numerators``' output."""
    return _from_parts(cls, dim, den, ((head + (e,), B, part, n) for e, level in levels.items()
                                       for (B, part), row in level.items()
                                       for head, n in row.items()))


def _pivot_shift(ops: list) -> int:
    """The least even power of s_d (a unit commuting with q+1) that clears
    every negative pivot power of ops."""
    last = ops[0].dim - 1
    low = min((A[last] for op in ops for A, _ in op.terms), default=0)
    return 2 * ((-low + 1) // 2) if low < 0 else 0


def _normal_forms(ops: list, metric: Metric) -> list:
    """Normal forms modulo the quadric of ops, after one common pivot
    shift (``_pivot_shift``)."""
    shift = _pivot_shift(ops)
    return [_from_numerators(type(op), op.dim, *_reduced_numerators(op, metric, shift))
            for op in ops]


def vanishes_mod_constraint(op: TermDict, metric: Metric) -> bool:
    """Membership of op in (q+1)·W, q = sum_i g_ii s_i^2: the operators
    (q+1) X, whose output vanishes on the quadric (the right ideal of q+1
    when W·x is the left ideal of x); for a phase.PhasePoly, the ideal of
    q+1.  A unit s_d^(2k), commuting with q+1, clears negative pivot
    powers; q+1 is then monic of degree 2 in s_d up to the sign g_dd, so
    the remainder per derivative (or momentum) monomial, the normal form,
    is unique, and zero exactly on members.  Decided on integer
    numerators over one common denominator (no Fraction is built); a
    common positive denominator does not change which remainders vanish."""
    levels = _reduced_numerators(op, metric, _pivot_shift([op]))[1]
    return not any(n for level in levels.values() for row in level.values()
                   for n in row.values())


def reduce_mod_constraint(op: TermDict, metric: Metric) -> TermDict:
    """Normal form modulo the quadric g_ii s_i^2 summed = -1, over the
    scalar ring of op (a WeylOp or a phase.PhasePoly).

    Coordinate monomials with exponent >= 2 in the last coordinate are
    rewritten via s_d^2 -> g_dd (-1 - sum_{i<d} g_ii s_i^2) until none
    remain; coefficients stay exact and the result is idempotent.  With no
    negative s_d exponent it is the unique remainder modulo (q+1)·W.
    The rewrite runs on integer numerators over one common denominator
    (``_reduced_numerators``); each output scalar is divided once.
    """
    return _from_numerators(type(op), op.dim, *_reduced_numerators(op, metric))

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

The product kernel (``_products``) runs on packed integer keys.  Each
operator, an immutable value, computes its packed view once, on first
use: s_i, D_i and the h power of a term sit in one byte each (slots i,
d + i and 2d), holding exponent + 128.  Every exponent is at most 42 in
size, so no slot of a product or bracket leaves 1..255; a larger
exponent raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod

Mono = tuple[int, ...]
HPoly = dict[int, Fraction]
LaurentPoly = dict[Mono, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)

_W, _MID = 8, 128  # the packed keys of the module docstring
_BOUND = (_MID - 1) // 3
_TABLE_CAP = 1 << 15
_SHIFTS: dict[int, tuple] = {}


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
    pairs and ``_whole({part: rational})`` rebuilds it from a fresh dict
    (every caller, ``_term`` and ``_from_parts``, passes one it has just
    built); the constructor, the presentation and the constraint rewrite
    read and write scalars only through these, and ``_LETTER`` names the
    second variables (D or p) in ``repr``.  Instances are treated as
    immutable values; all arithmetic returns new objects.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms = {} if terms is None else terms

    @classmethod
    def _term(cls, dim: int, coeff, A: Mono, B: Mono, part: int):
        """coeff s^A B in scalar component part (A, B all 0 when None)."""
        c = Fraction(coeff)
        if not c:
            return cls(dim)
        A = tuple(A) if A is not None else (0,) * dim
        B = tuple(B) if B is not None else (0,) * dim
        if len(A) != dim or len(B) != dim or any(b < 0 for b in B):
            raise ValueError("bad exponent vectors")
        return cls(dim, {(A, B): cls._whole({part: c})})

    @classmethod
    def zero(cls, dim: int):
        return cls(dim)

    @classmethod
    def coord(cls, dim: int, i: int, power: int = 1):
        return cls.term(dim, 1, smon=tuple(power if k == i else 0 for k in range(dim)))

    def is_zero(self) -> bool:
        return not self.terms

    def __hash__(self):
        return hash((self.dim, self.sorted_terms()))

    def sorted_terms(self) -> tuple:
        """Deterministic (lexicographic) presentation of the term list:
        (key, sorted (part, rational) components) per key."""
        return tuple((key, tuple(sorted(self._parts(self.terms[key]))))
                     for key in sorted(self.terms))

    def __repr__(self) -> str:
        name = type(self).__name__
        if self.is_zero():
            return f"{name}(0)"
        bits = []
        for (A, B), parts in self.sorted_terms():
            sc = " + ".join(f"{c}" + (f"*h^{k}" if k else "") for k, c in parts)
            smon = "".join(f"*s{i + 1}^{e}" for i, e in enumerate(A) if e)
            bmon = "".join(f"*{self._LETTER}{i + 1}^{e}" for i, e in enumerate(B) if e)
            bits.append(f"({sc}){smon}{bmon}")
        return f"{name}[" + " + ".join(bits) + "]"

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

    __slots__ = ("_view",)  # the packed view, set once by _packed
    _add = staticmethod(_hp_add)
    _scale = staticmethod(_hp_scale)
    _parts = staticmethod(dict.items)  # (h power, coefficient)
    _whole = staticmethod(lambda parts: parts)
    _LETTER = "D"

    # -- constructors -------------------------------------------------------

    @classmethod
    def term(cls, dim: int, coeff, smon: Mono = None, dmon: Mono = None,
             hpow: int = 0) -> "WeylOp":
        return cls._term(dim, coeff, smon, dmon, hpow)

    @classmethod
    def const(cls, dim: int, coeff, hpow: int = 0) -> "WeylOp":
        return cls.term(dim, coeff, hpow=hpow)

    @classmethod
    def deriv(cls, dim: int, i: int, power: int = 1) -> "WeylOp":
        return cls.term(dim, 1, dmon=tuple(power if k == i else 0 for k in range(dim)))

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


def _packed(op: WeylOp):
    """(den, [(key, n, s and D slots of key)]): op's packed view, built
    from ``_integer_terms`` and kept on op."""
    den, rows = _integer_terms(op)
    for i, (A, B, part, n) in enumerate(rows):
        if max(map(abs, (*A, *B, part))) > _BOUND:
            raise ValueError(f"exponent beyond the packed bound {_BOUND}: {A}, {B}, h^{part}")
        key = int.from_bytes(bytes(_MID + x for x in (*A, *B, part)), "little")
        rows[i] = (key, n, key & ~(-1 << 2 * op.dim * _W))
    op._view = den, rows
    return op._view


@lru_cache(maxsize=None)
def _axis_shifts(b: int, c: int) -> tuple[tuple[int, int], ...]:
    """(j, C(b, j) c^(falling j)), nonzero, of the one-axis Leibniz rule
    D^b s^c = sum_j C(b, j) c^(falling j) s^(c-j) D^(b-j)."""
    return tuple((j, comb(b, j) * f) for j in range(b + 1) if (f := _falling(c, j)))


def _shift_terms(bs: int, cs: int, d: int) -> dict[int, int]:
    """{J: coefficient} of D^B s^C, B and C packed in d slots, J lowering
    s_i and D_i by j_i: built axis by axis over the axes with b_i > 0."""
    parts = {0: 1}
    for i, (b, c) in enumerate(zip(bs.to_bytes(d, "little"), cs.to_bytes(d, "little"))):
        if b > _MID:
            parts = {J + j * (1 << i * _W | 1 << (d + i) * _W): cf * x for J, cf in parts.items()
                     for j, x in _axis_shifts(b - _MID, c - _MID)}
    return parts


def _shifts(key: int, d: int) -> tuple[tuple[int, int], ...]:
    """The (J, coefficient) shift-table entry of key, filled on a miss.
    Tag 0 packs the left D slots B over the right s slots C: D^B s^C.
    Tag 1 or 3, a bracket of sign tag - 2, packs the left's s and D slots
    A, B over the right's C, D: D^B s^C and sign * D^D s^A merged by J,
    zeros dropped.  The top slot, a D slot, fixes d by the bit length."""
    if (entry := _SHIFTS.get(key)) is not None:
        return entry
    if len(_SHIFTS) >= _TABLE_CAP:
        _SHIFTS.clear()
    dw = d * _W
    C, D, A, B = (key >> 2 + k * dw & ~(-1 << dw) for k in range(4))
    if key & 3:
        merged = dict(_shifts(B << dw + 2 | C << 2, d))
        for J, cf in _shifts(D << dw + 2 | A << 2, d):
            merged[J] = merged.get(J, 0) + ((key & 3) - 2) * cf
    else:  # a product's B sits where a bracket's D does
        merged = _shift_terms(D, C, d)
    entry = _SHIFTS[key] = tuple((J, cf) for J, cf in merged.items() if cf)
    return entry


@lru_cache(maxsize=_TABLE_CAP)
def _unpacked(key: int, d: int) -> tuple[Mono, Mono, int]:
    """(A, B, h power) of an output key."""
    slots = [x - _MID for x in key.to_bytes(2 * d + 1, "little")]
    return tuple(slots[:d]), tuple(slots[d:-1]), slots[-1]


def _products(*pairs: tuple) -> WeylOp:
    """The sum over (lhs, rhs, sign[, c, e]) of
    c h^e (lhs o rhs + sign * rhs o lhs) in canonical normal order (sign
    0: lhs o rhs alone; c = 1 and e = 0 when omitted): the kernel of
    compose and of both brackets, and of any exact residual built from
    such products, which it sums in one accumulator.

    The packed keys K, L (``_packed``) of u h^i s^A D^B and v h^k s^C D^D
    give s^(A+C-j) D^(B+D-j) h^(i+k+e) in both orders at key
    K + L - bias - J (+ e in the h slot), J the packed j: the Leibniz
    terms D^B s^C and sign * D^D s^A merge by J in one shift-table entry
    (``_shifts``).  Every exponent is at most _BOUND in size, so no slot
    borrows from its neighbour.  One integer accumulator sums over the
    lcm of dl * dr * den(c) (dl, dr the operands' denominators), skipping
    c = 0; keys are unpacked and scalars rebuilt once (``_from_parts``)."""
    first = pairs[0][0]
    d = first.dim
    factors = []
    for lhs, rhs, sign, *ce in pairs:
        first._check(lhs)
        lhs._check(rhs)
        c, e = (Fraction(ce[0]), ce[1]) if ce else (_ONE, 0)
        if not c:
            continue
        if abs(e) > _BOUND:
            raise ValueError(f"h power {e} beyond the packed bound {_BOUND}")
        dl, left = getattr(lhs, "_view", None) or _packed(lhs)
        dr, right = getattr(rhs, "_view", None) or _packed(rhs)
        factors.append((dl * dr * c.denominator, c.numerator, e, left, right, sign))
    den = lcm(*(dd for dd, *_ in factors))
    dw, bias = d * _W, int.from_bytes(bytes([_MID] * (2 * d + 1)), "little")
    shifts_of = _SHIFTS.get
    acc: dict[int, int] = {}
    for dd, f, e, left, right, sign in factors:
        f *= den // dd
        lefts = [(K + (e << 2 * dw) - bias, u * f, sd << 2 * dw + 2 | sign + 2 if sign
                  else sd >> dw << dw + 2) for K, u, sd in left]
        rights = [(L, v, (sd if sign else sd & ~(-1 << dw)) << 2) for L, v, sd in right]
        for K, u, lk in lefts:
            for L, v, rk in rights:
                if (shifts := shifts_of(lk | rk)) is None:
                    shifts = _shifts(lk | rk, d)
                if shifts:
                    base, uv = K + L, u * v
                    for J, cf in shifts:
                        acc[base - J] = acc.get(base - J, 0) + cf * uv
    return _from_parts(WeylOp, d, den, ((*_unpacked(key, d), n) for key, n in acc.items()))


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

"""The generic superintegrable system on a pseudo-sphere, exactly.

Builds the Hamiltonian H, the second-order symmetries Q_ij and the
third-order operators C_ijk for any dimension and diagonal signature,
and verifies every algebraic relation among them as an exact operator
statement.  Residuals are computed in the ambient Weyl algebra first;
only a nonzero residual is reduced modulo the quadric constraint, and
the result records which route closed the relation.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .weylops import (
    Metric,
    NotDivisible,
    WeylOp,
    _normal_forms,
    _products,
    commutator,
    divide_by_hbar,
    vanishes_mod_constraint,
)

__all__ = [
    "Metric",
    "ModelParams",
    "LinearRelation",
    "RelationReport",
    "RELATIONS",
    "RELATION_FAMILIES",
    "MIN_DIMENSION",
    "build_J",
    "build_H",
    "build_Q",
    "build_C",
    "verify_relation",
    "discover_linear_relation",
    "verify_metric_independence",
]


@dataclass(frozen=True)
class ModelParams:
    """Potential strengths a_i, optionally derived from l_i via a = l^2 - 1/4."""

    a: tuple[Fraction, ...]
    l: tuple[Fraction, ...] | None = None

    @classmethod
    def from_a(cls, a) -> "ModelParams":
        return cls(a=tuple(Fraction(x) for x in a))

    @classmethod
    def from_l(cls, l) -> "ModelParams":
        lv = tuple(Fraction(x) for x in l)
        return cls(a=tuple(x * x - Fraction(1, 4) for x in lv), l=lv)

    @property
    def dim(self) -> int:
        return len(self.a)


# One side of the generic system: the operator class, the scalar of a J term
# (h c for the quantum ring; c for the classical ring, whose momentum p_k is
# the symbol of h d_k), the bracket that defines C_ijk from Q_ij and Q_ik,
# and the residual kernel of ``_table_residual``.
Ring = namedtuple("Ring", "op hbar bracket products")


QUANTUM = Ring(WeylOp, lambda c: {1: Fraction(c)},
               lambda x, y: divide_by_hbar(commutator(x, y)), _products)


def _rotation(ring: Ring, metric: Metric, i: int, j: int):
    """J_ij = h (g_jj s_i d_j - g_ii s_j d_i) over ring, as its two terms."""
    d = metric.dim
    if not (0 <= i < d and 0 <= j < d):
        raise IndexError(f"indices ({i},{j}) out of range for dim {d}")
    if i == j:
        return ring.op.zero(d)
    ei, ej = (tuple(int(k == m) for k in range(d)) for m in (i, j))
    g = metric.diag
    return ring.op(d, {(ei, ej): ring.hbar(g[j]), (ej, ei): ring.hbar(-g[i])})


def _build(ring: Ring, metric: Metric, params: ModelParams, gen, letter: str, *ix):
    """The generator letter at ix over ring; C_ijk = bracket(Q_ij, Q_ik)
    reads Q_ij and Q_ik from the lookup gen."""
    d, g, a = metric.dim, metric.diag, params.a
    if letter == "H":
        H = sum((ring.op.coord(d, i, -2).scale(g[i] * a[i]) for i in range(d)), ring.op.zero(d))
        for k, l in itertools.combinations(range(d), 2):
            J = _rotation(ring, metric, k, l)
            H += (J * J).scale(g[k] * g[l])
        return H
    if letter == "Q":
        i, j = ix
        if i == j:
            raise ValueError("Q requires two distinct indices")
        gg = g[i] * g[j]
        J = _rotation(ring, metric, i, j)
        Q = (J * J).scale(-gg)
        for u, v in ((i, j), (j, i)):
            Q += ring.op.term(d, a[u] * gg, smon=tuple(2 * (k == v) - 2 * (k == u) for k in range(d)))
        return Q
    i, j, k = ix
    if len({i, j, k}) != 3:
        raise ValueError("C requires three distinct indices")
    return ring.bracket(gen("Q", i, j), gen("Q", i, k))


def _generators(ring: Ring, metric: Metric, params: ModelParams):
    """gen(letter, *indices): H, Q_ij or C_ijk over ring, each built once
    per lookup; Q_ij and Q_ji are one build, and C_ijk is built from the
    lookup's own Q_ij and Q_ik."""
    if params.dim != metric.dim:
        raise ValueError("parameter vector length does not match metric")
    built = {}

    def gen(letter, *ix):
        tag = (letter, *sorted(ix)) if letter == "Q" else (letter, *ix)
        if tag not in built:
            built[tag] = _build(ring, metric, params, gen, *tag)
        return built[tag]

    return gen


def build_J(metric: Metric, i: int, j: int) -> WeylOp:
    """Rotation / pseudo-rotation generator, antisymmetric in (i, j).

    For a diagonal metric: J_ij = h (g_jj s_i d_j - g_ii s_j d_i).
    Indices are 0-based.
    """
    return _rotation(QUANTUM, metric, i, j)


def build_H(metric: Metric, params: ModelParams) -> WeylOp:
    """H = 1/2 sum_{k,l} g_kk g_ll J_kl^2 + sum_i g_ii a_i / s_i^2."""
    return _generators(QUANTUM, metric, params)("H")


def build_Q(metric: Metric, params: ModelParams, i: int, j: int) -> WeylOp:
    """Second-order symmetry Q_ij, symmetric in (i, j).

    Q_ij = -g_ii g_jj J_ij^2 + g_ii g_jj (a_i s_j^2/s_i^2 + a_j s_i^2/s_j^2).
    """
    return _generators(QUANTUM, metric, params)("Q", i, j)


def build_C(metric: Metric, params: ModelParams, i: int, j: int, k: int) -> WeylOp:
    """Third-order operator defined by [Q_ij, Q_ik] = h C_ijk."""
    return _generators(QUANTUM, metric, params)("C", i, j, k)


# ---------------------------------------------------------------------------
# relation families

# family: (arity, (x, y), RHS) for the relation [x, y] = h RHS of the
# operator algebra; the classical relation is {x, y} = RHS with the terms
# carrying h dropped.  A generator is "H", "Q" or "C" followed by the
# positions in the index tuple of its indices ("C013" is C at idx[0],
# idx[1], idx[3]); an RHS term (c, p, e, word) is c a_idx[p] h^e times the
# product of the word's generators (at most two), left to right, with no a
# factor when p is None and 1 for the empty word.
#
# The right-hand sides are stated by hand and certified by exact
# residuals (``verify_relation``), not solved for; only the linear
# relation among H and the Q_ij is measured, by an exact linear solve
# (``discover_linear_relation``).  They are the same for every signature
# and parameter set, and the classical Poisson algebra has the same
# orientation.  Relative to the published table, qc_adjacent,
# qc_disjoint, cc_share2 and cc_share1 carry a global sign -1, except that
# the leading product term of each C-C relation keeps its published sign;
# cc_disjoint agrees with it.
RELATIONS = {
    "symmetry": (2, ("H", "Q01"), ()),
    # C is defined by the divisibility [Q_ij, Q_ik] = h C_ijk
    "qq_c": (3, ("Q01", "Q02"), ((1, None, 0, ("C012",)),)),
    "qc_adjacent": (3, ("Q12", "C012"), (
        (-8, None, 0, ("Q02", "Q12")), (8, None, 0, ("Q12", "Q01")),
        (-16, 1, 0, ("Q02",)), (8, None, 2, ("Q02",)),
        (16, 2, 0, ("Q01",)), (-8, None, 2, ("Q01",)),
        (-8, 1, 2, ()), (8, 2, 2, ()))),
    "qc_disjoint": (4, ("Q23", "C012"), (
        (-8, None, 0, ("Q02", "Q13")), (8, None, 0, ("Q03", "Q12")),
        (-4, None, 2, ("Q02",)), (-4, None, 2, ("Q13",)),
        (4, None, 2, ("Q03",)), (4, None, 2, ("Q12",)))),
    "cc_share2": (4, ("C012", "C123"), (
        (-8, None, 0, ("C123", "Q01")), (8, None, 0, ("C023", "Q12")),
        (8, None, 0, ("C012", "Q13")),
        (-4, None, 2, ("C123",)), (4, None, 2, ("C012",)),
        (-8, None, 2, ("C023",)), (16, 1, 0, ("C023",)))),
    "cc_share1": (5, ("C012", "C234"), (
        (-8, None, 0, ("C034", "Q12")), (8, None, 0, ("Q02", "C134")),
        (-4, None, 2, ("C034",)), (4, None, 2, ("C134",)))),
    "cc_disjoint": (6, ("C012", "C345"), ()),
}

RELATION_FAMILIES = tuple(RELATIONS)

MIN_DIMENSION = {family: arity for family, (arity, _, _) in RELATIONS.items()}


@dataclass
class RelationReport:
    family: str
    indices: tuple[int, ...]
    signature: tuple[int, ...]
    params: tuple[Fraction, ...]
    passed: bool
    reduced: bool               # True if the residual vanished only mod the constraint
    residual_terms: int         # term count of the surviving residual (0 on pass)
    elapsed_ms: float = 0.0


def _table_residual(family: str, idx: tuple[int, ...], metric: Metric,
                    params: ModelParams, ring: Ring):
    """The residual of the RELATIONS entry of family over ring, by its
    kernel: [x, y] - h RHS with h formal for ``QUANTUM``
    (``weylops._products``), {x, y} - RHS at h = 0 for
    ``phase.CLASSICAL`` (``phase._products``).

    One residual, one accumulator: the bracket is the pair (x, y, -1), and
    each RHS term c a h^e w0 w1 the pair (w0, w1, 0, -c a, e + 1), a
    one-generator word paired with the identity and the empty word as
    identity o identity, so no scaled copy or partial sum of an operator
    is built."""
    if family not in RELATIONS:
        raise ValueError(f"unknown relation family {family!r}")
    arity, (x, y), rhs = RELATIONS[family]
    if len(idx) != arity:
        raise ValueError(f"family {family} takes {arity} indices, got {len(idx)}")
    lookup = _generators(ring, metric, params)

    def gen(name):
        return lookup(name[0], *(idx[int(p)] for p in name[1:]))

    one = ring.op.term(metric.dim, 1)
    pairs = [(gen(x), gen(y), -1)]
    for c, p, e, word in rhs:
        factors = [gen(name) for name in word] + [one] * (2 - len(word))
        pairs.append((*factors, 0, -c if p is None else -c * params.a[idx[p]], e + 1))
    return ring.products(*pairs)


def _relation_residual(family: str, idx: tuple[int, ...], metric: Metric,
                       params: ModelParams) -> WeylOp:
    """LHS - RHS of the cited relation, with h kept formal."""
    return _table_residual(family, idx, metric, params, QUANTUM)


def _closes(residual, metric: Metric) -> tuple[bool, bool]:
    """(passed, reduced) of a residual in either ring: zero in the ambient
    ring, else zero modulo the quadric."""
    if residual.is_zero():
        return True, False
    passed = vanishes_mod_constraint(residual, metric)
    return passed, passed


def verify_relation(family: str, indices, metric: Metric,
                    params: ModelParams) -> RelationReport:
    """Check one relation; failure is data, not an exception."""
    t0 = time.perf_counter()
    idx = tuple(indices)
    try:
        residual = _relation_residual(family, idx, metric, params)
    except NotDivisible:
        return RelationReport(family, idx, metric.diag, params.a, False, False, -1,
                              (time.perf_counter() - t0) * 1e3)
    passed, reduced = _closes(residual, metric)
    return RelationReport(
        family, idx, metric.diag, params.a, passed, reduced,
        0 if passed else len(residual.terms), (time.perf_counter() - t0) * 1e3,
    )


def default_indices(family: str, dim: int) -> tuple[int, ...]:
    """Smallest index tuple admitting the family (0-based)."""
    need = MIN_DIMENSION[family]
    if dim < need:
        raise ValueError(f"family {family} needs dimension >= {need}")
    return tuple(range(need))


def admissible_tuples(family: str, dim: int):
    """All index tuples the family accepts at this dimension (Q_ij is
    symmetric, so symmetry takes i < j)."""
    if family not in RELATIONS:
        raise ValueError(f"unknown relation family {family!r}")
    pick = itertools.combinations if family == "symmetry" else itertools.permutations
    return list(pick(range(dim), MIN_DIMENSION[family]))


# ---------------------------------------------------------------------------
# the linear relation among H and the Q_ij

@dataclass(frozen=True)
class LinearRelation:
    """sum_{i<j} alpha_ij Q_ij - alpha_0 H - alpha_00 = 0 (mod the constraint)."""

    alpha: dict = field(hash=False)          # (i, j) -> Fraction
    alpha_0: Fraction = Fraction(0)
    alpha_00: Fraction = Fraction(0)

    def coefficients(self) -> tuple:
        return (tuple(sorted(self.alpha.items())), self.alpha_0, self.alpha_00)


class NoLinearRelation(ValueError):
    pass


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Exact nullspace basis of a rational matrix via Gaussian elimination."""
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


def discover_linear_relation(metric: Metric, params: ModelParams) -> LinearRelation:
    """Solve exactly for the coefficients tying the Q_ij to H.

    The generators are reduced modulo the quadric first (the relation
    holds only on the constraint surface); the solution is asserted to
    be unique up to scale and normalized to alpha_0 = 1.
    """
    d = metric.dim
    if d < 3:
        raise ValueError("the linear relation needs dimension >= 3")
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    raw = [build_Q(metric, params, i, j) for (i, j) in pairs]
    raw.append(build_H(metric, params).scale(-1))
    raw.append(WeylOp.const(d, -1))
    # one consistent normal form: a common pivot shift, then the quadric
    gens = _normal_forms(raw, metric)
    ncols = len(gens)

    keys = sorted({(key, e) for g in gens for key, hp in g.terms.items() for e in hp})
    rows = []
    for (key, e) in keys:
        rows.append([g.terms.get(key, {}).get(e, Fraction(0)) for g in gens])
    basis = _nullspace(rows, ncols)
    if not basis:
        raise NoLinearRelation("only the zero solution exists")
    if len(basis) > 1:
        raise NoLinearRelation(f"relation space has dimension {len(basis)}")
    vec = basis[0]
    a0 = vec[-2]
    if a0:
        vec = [v / a0 for v in vec]
    return LinearRelation(
        alpha={p: vec[i] for i, p in enumerate(pairs)},
        alpha_0=vec[-2],
        alpha_00=vec[-1],
    )


def verify_metric_independence(dim: int, params: ModelParams,
                               signatures: list[Metric],
                               families=("qc_adjacent",)) -> dict:
    """Same relations, same discovered coefficients, for every signature."""
    if len(signatures) < 1:
        raise ValueError("need at least one signature")
    for metric in signatures:
        if metric.dim != dim:
            raise ValueError(f"signature {metric.diag} has {metric.dim} entries, "
                             f"dim is {dim}")
    per_sig = []
    for metric in signatures:
        reports = []
        for fam in families:
            if dim >= MIN_DIMENSION[fam]:
                reports.append(verify_relation(fam, default_indices(fam, dim),
                                               metric, params))
        rel = discover_linear_relation(metric, params)
        per_sig.append({"metric": metric, "reports": reports,
                        "coefficients": rel.coefficients()})
    coeff_sets = {entry["coefficients"] for entry in per_sig}
    all_pass = all(r.passed for entry in per_sig for r in entry["reports"])
    return {
        "passed": all_pass and len(coeff_sets) == 1,
        "distinct_coefficient_sets": len(coeff_sets),
        "per_signature": per_sig,
    }

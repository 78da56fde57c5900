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
from dataclasses import dataclass, field
from fractions import Fraction

from .weylops import (
    Metric,
    NotDivisible,
    WeylOp,
    _pivot_shift,
    anticommutator,
    commutator,
    compose,
    divide_by_hbar,
    reduce_mod_constraint,
    shift_coord,
    vanishes_mod_constraint,
)

__all__ = [
    "Metric",
    "ModelParams",
    "LinearRelation",
    "RelationReport",
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


def build_J(metric: Metric, i: int, j: int) -> WeylOp:
    """Rotation / pseudo-rotation generator, antisymmetric in (i, j).

    For a diagonal metric: J_ij = h (g_jj s_i d_j - g_ii s_j d_i).
    Indices are 0-based.
    """
    d = metric.dim
    if not (0 <= i < d and 0 <= j < d):
        raise IndexError(f"indices ({i},{j}) out of range for dim {d}")
    if i == j:
        return WeylOp.zero(d)
    g = metric.diag
    out = WeylOp.zero(d)
    out += compose(WeylOp.coord(d, i), WeylOp.deriv(d, j)).scale(g[j])
    out -= compose(WeylOp.coord(d, j), WeylOp.deriv(d, i)).scale(g[i])
    return out.scale_h(1)


def build_H(metric: Metric, params: ModelParams) -> WeylOp:
    """H = 1/2 sum_{k,l} g_kk g_ll J_kl^2 + sum_i g_ii a_i / s_i^2."""
    d = metric.dim
    if params.dim != d:
        raise ValueError("parameter vector length does not match metric")
    g = metric.diag
    H = WeylOp.zero(d)
    for k in range(d):
        for l in range(k + 1, d):
            J = build_J(metric, k, l)
            H += compose(J, J).scale(g[k] * g[l])
    for i in range(d):
        if params.a[i]:
            H += WeylOp.coord(d, i, -2).scale(Fraction(g[i]) * params.a[i])
    return H


def build_Q(metric: Metric, params: ModelParams, i: int, j: int) -> WeylOp:
    """Second-order symmetry Q_ij, symmetric in (i, j).

    Q_ij = -g_ii g_jj J_ij^2 + g_ii g_jj (a_i s_j^2/s_i^2 + a_j s_i^2/s_j^2).
    """
    if i == j:
        raise ValueError("Q requires two distinct indices")
    d = metric.dim
    g = metric.diag
    J = build_J(metric, i, j)
    gg = g[i] * g[j]
    Q = compose(J, J).scale(-gg)
    for (u, v) in ((i, j), (j, i)):
        if params.a[u]:
            mono = [0] * d
            mono[u] = -2
            mono[v] = 2
            Q += WeylOp.term(d, params.a[u] * gg, smon=tuple(mono))
    return Q


def build_C(metric: Metric, params: ModelParams, i: int, j: int, k: int) -> WeylOp:
    """Third-order operator defined by [Q_ij, Q_ik] = h C_ijk."""
    if len({i, j, k}) != 3:
        raise ValueError("C requires three distinct indices")
    Qij = build_Q(metric, params, i, j)
    Qik = build_Q(metric, params, i, k)
    return divide_by_hbar(commutator(Qij, Qik))


# ---------------------------------------------------------------------------
# relation families

RELATION_FAMILIES = (
    "symmetry",      # [H, Q_ij] = 0
    "qq_c",          # [Q_ij, Q_ik] = h C_ijk (divisibility check)
    "qc_adjacent",   # [Q_jk, C_ijk], 3 indices
    "qc_disjoint",   # [Q_kl, C_ijk], 4 indices
    "cc_share2",     # [C_ijk, C_jkl], 4 indices
    "cc_share1",     # [C_ijk, C_klm], 5 indices
    "cc_disjoint",   # [C_ijk, C_lmn] = 0, 6 indices
)

# Measured orientation of each relation family relative to the published
# structure-constant table: -1 means the whole right-hand side is negated;
# for the two C-C families the leading product term keeps its published
# sign (only the remaining terms flip).  These were determined by exact
# linear solves, are identical across signatures and parameter sets, and
# the classical Poisson-bracket algebra reproduces the same orientation.
CONVENTION_TABLE = {
    "qc_adjacent": {"global_sign": -1, "leading_term_flipped": False},
    "qc_disjoint": {"global_sign": -1, "leading_term_flipped": False},
    "cc_share2": {"global_sign": -1, "leading_term_flipped": True},
    "cc_share1": {"global_sign": -1, "leading_term_flipped": True},
    "cc_disjoint": {"global_sign": 1, "leading_term_flipped": False},
}

MIN_DIMENSION = {
    "symmetry": 2,
    "qq_c": 3,
    "qc_adjacent": 3,
    "qc_disjoint": 4,
    "cc_share2": 4,
    "cc_share1": 5,
    "cc_disjoint": 6,
}


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


def _relation_residual(family: str, idx: tuple[int, ...], metric: Metric,
                       params: ModelParams) -> WeylOp:
    """LHS - RHS of the cited relation, with h kept formal."""
    d = metric.dim
    a = params.a
    Q = lambda i, j: build_Q(metric, params, i, j)
    C = lambda i, j, k: build_C(metric, params, i, j, k)
    h2 = lambda X: X.scale_h(2)

    if family == "symmetry":
        (i, j) = idx
        return commutator(build_H(metric, params), Q(i, j))

    if family == "qq_c":
        (i, j, k) = idx
        # C is defined through the divisibility; residual is zero when
        # divide_by_hbar succeeds and the product reassembles.
        return commutator(Q(i, j), Q(i, k)) - C(i, j, k).scale_h(1)

    # The right-hand sides below are the measured structure constants,
    # obtained by an exact linear solve over the operator term basis (see
    # CONVENTION_TABLE): relative to the published table the quadratic
    # algebra carries a global -1, and the leading term of each C-C
    # relation keeps the published sign.

    if family == "qc_adjacent":
        (i, j, k) = idx
        lhs = commutator(Q(j, k), C(i, j, k))
        rhs = (
            compose(Q(i, k), Q(j, k)).scale(-8)
            + compose(Q(j, k), Q(i, j)).scale(8)
            - Q(i, k).scale(16 * a[j]) + h2(Q(i, k)).scale(8)
            + Q(i, j).scale(16 * a[k]) - h2(Q(i, j)).scale(8)
            - WeylOp.const(d, (a[j] - a[k]) * 8, hpow=2)
        ).scale_h(1)
        return lhs - rhs

    if family == "qc_disjoint":
        (i, j, k, l) = idx
        lhs = commutator(Q(k, l), C(i, j, k))
        rhs = (
            compose(Q(i, k), Q(j, l)).scale(-8)
            + compose(Q(i, l), Q(j, k)).scale(8)
            - h2(Q(i, k)).scale(4) - h2(Q(j, l)).scale(4)
            + h2(Q(i, l)).scale(4) + h2(Q(j, k)).scale(4)
        ).scale_h(1)
        return lhs - rhs

    if family == "cc_share2":
        (i, j, k, l) = idx
        lhs = commutator(C(i, j, k), C(j, k, l))
        rhs = (
            compose(C(j, k, l), Q(i, j)).scale(-8)
            + compose(C(i, k, l), Q(j, k)).scale(8)
            + compose(C(i, j, k), Q(j, l)).scale(8)
            - h2(C(j, k, l)).scale(4) + h2(C(i, j, k)).scale(4)
            - h2(C(i, k, l)).scale(8) + C(i, k, l).scale(16 * a[j])
        ).scale_h(1)
        return lhs - rhs

    if family == "cc_share1":
        (i, j, k, l, m) = idx
        lhs = commutator(C(i, j, k), C(k, l, m))
        rhs = (
            compose(C(i, l, m), Q(j, k)).scale(-8)
            + compose(Q(i, k), C(j, l, m)).scale(8)
            - h2(C(i, l, m)).scale(4) + h2(C(j, l, m)).scale(4)
        ).scale_h(1)
        return lhs - rhs

    if family == "cc_disjoint":
        (i, j, k, l, m, n) = idx
        return commutator(C(i, j, k), C(l, m, n))

    raise ValueError(f"unknown relation family {family!r}")


def verify_relation(family: str, indices, metric: Metric,
                    params: ModelParams) -> RelationReport:
    """Check one relation; failure is data, not an exception."""
    t0 = time.perf_counter()
    idx = tuple(indices)
    reduced = False
    try:
        residual = _relation_residual(family, idx, metric, params)
    except NotDivisible:
        return RelationReport(family, idx, metric.diag, params.a, False, False, -1,
                              (time.perf_counter() - t0) * 1e3)
    passed = residual.is_zero()
    if not passed:
        reduced = True
        passed = vanishes_mod_constraint(residual, metric)
    return RelationReport(
        family, idx, metric.diag, params.a,
        passed, reduced and passed,
        0 if passed else len(residual.terms), (time.perf_counter() - t0) * 1e3,
    )


def default_indices(family: str, dim: int) -> tuple[int, ...]:
    """Smallest index tuple admitting the family (0-based)."""
    need = MIN_DIMENSION[family]
    if dim < need:
        raise ValueError(f"family {family} needs dimension >= {need}")
    return tuple(range(need))


def admissible_tuples(family: str, dim: int):
    """All index tuples the family accepts at this dimension."""
    if family == "symmetry":
        return [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    if family in ("qq_c", "qc_adjacent"):
        return [t for t in itertools.permutations(range(dim), 3)]
    if family in ("qc_disjoint", "cc_share2"):
        return [t for t in itertools.permutations(range(dim), 4)]
    if family == "cc_share1":
        return [t for t in itertools.permutations(range(dim), 5)]
    if family == "cc_disjoint":
        return [t for t in itertools.permutations(range(dim), 6)]
    raise ValueError(f"unknown relation family {family!r}")


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
    # one consistent normal form: clear pivot denominators by a common even
    # power of s_d (linear in the operator), then rewrite mod the quadric
    last = d - 1
    shift = _pivot_shift((key for g in raw for key in g.terms), last)
    gens = [reduce_mod_constraint(shift_coord(g, last, shift), metric) for g in raw]
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

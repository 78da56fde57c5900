"""Daskaloyannis machinery for the d = 3 system.

Structure constants of the (A, B, C) quadratic algebra, the Casimir,
the factorized structure function Phi, finite-dimensional unitary
representations and the algebraic discrete spectrum, all in exact
rational arithmetic, cross-checked against the operator realization.

Conventions (measured against the realization, not assumed):
the published structure-constant list holds after the substitutions
H -> -H in delta, zeta, z and epsilon -> 16(-1 + a_1 + a_2); the
published realized Casimir K(H) holds after H -> -H.  The engine's
default constants are the measured ones; the published variant is kept
for comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .weylops import (
    Metric,
    WeylOp,
    compose,
    commutator,
    anticommutator,
    reduce_mod_constraint,
    _products,
)
from .model import ModelParams, Ring, _closes, _generators

LEADING_COEFF = 824633720832  # = 256 * 3221225472 = 3 * 2**38

HLin = tuple[Fraction, Fraction]  # c0 + c1 * H, H the Hamiltonian, from the left


def _hlin(c0, c1=0) -> HLin:
    return (Fraction(c0), Fraction(c1))


@dataclass(frozen=True)
class QuadraticAlgebraConstants:
    """Constants of [A,C] = alpha A^2 + gamma {A,B} + delta A + epsilon B + zeta,
    [B,C] = a A^2 - gamma B^2 - alpha {A,B} + d A - delta B + z."""

    alpha: Fraction
    gamma: Fraction
    epsilon: Fraction
    a_const: Fraction
    delta: HLin
    d_const: HLin
    zeta: HLin
    z_const: HLin
    convention: str = "measured"


def structure_constants(params: ModelParams,
                        convention: str = "measured") -> QuadraticAlgebraConstants:
    """Structure constants of the realization A = Q_12, B = Q_13, C = [A, B].

    convention "measured" is the set verified as exact operator
    identities; "published" is the commonly quoted list (differing by
    H -> -H in delta, zeta, z and by the epsilon factor).
    """
    if convention not in ("measured", "published"):
        raise ValueError(f"unknown convention {convention!r}")
    a1, a2, a3 = params.a
    k = QuadraticAlgebraConstants(
        alpha=Fraction(8), gamma=Fraction(8),
        epsilon=Fraction(16) * (-1 + a1 + a2), a_const=Fraction(0),
        delta=_hlin(4 * (-2 + 6 * a1 + 2 * a2 + 2 * a3), 8),
        d_const=_hlin(Fraction(-16) * (-1 + a1 + a3)),
        zeta=_hlin(4 * (-4 * a1 + 4 * a1 * a1 + 4 * a1 * a2 - 2 * a3 + 4 * a1 * a3),
                   8 * (-1 + 2 * a1)),
        z_const=_hlin(-4 * (-4 * a1 + 4 * a1 * a1 - 2 * a2 + 4 * a1 * a2 + 4 * a1 * a3),
                      -8 * (-1 + 2 * a1)),
    )
    if convention == "measured":
        return k
    flip = lambda c: (c[0], -c[1])  # H -> -H
    return replace(k, epsilon=Fraction(16), delta=flip(k.delta), zeta=flip(k.zeta),
                   z_const=flip(k.z_const), convention="published")


@dataclass(frozen=True)
class ABCRealization:
    A: WeylOp
    B: WeylOp
    C: WeylOp
    H: WeylOp
    Q23: WeylOp
    q23_residual_vanishes: bool


# The generator lookup at hbar = 1: a J term's scalar sits at h^0, and
# C_ijk is the plain commutator [Q_ij, Q_ik].
HBAR_ONE = Ring(WeylOp, lambda c: {0: Fraction(c)}, commutator, _products)


def abc_realization(metric: Metric, params: ModelParams) -> ABCRealization:
    """A = Q_12, B = Q_13, C = [A, B] and H at hbar = 1, each built once by
    one lookup over ``HBAR_ONE``, nothing cached; Q_23 = -(H + A + B +
    sum_i a_i), the linear relation that holds modulo the quadric in every
    signature, checked (not assumed) against the directly built Q_23."""
    if metric.dim != 3:
        raise ValueError("the Daskaloyannis treatment is for d = 3")
    gen = _generators(HBAR_ONE, metric, params)
    A, B, H = gen("Q", 0, 1), gen("Q", 0, 2), gen("H")
    I = WeylOp.const(3, 1)
    Q23 = _products((H, I, 0, -1, 0), (A, I, 0, -1, 0), (B, I, 0, -1, 0),
                    (I, I, 0, -sum(params.a), 0))
    return ABCRealization(A=A, B=B, C=gen("C", 0, 1, 2), H=H, Q23=Q23,
                          q23_residual_vanishes=_closes(Q23 - gen("Q", 1, 2), metric)[0])


def verify_daskaloyannis_form(metric: Metric, params: ModelParams,
                              convention: str = "measured") -> dict:
    """Check [A,C] and [B,C] against the structure-constant form as exact
    operator identities (modulo the constraint).  Failure is data.

    Each residual, [A,C] - rhs_ac and [B,C] - rhs_bc, is summed in one
    integer accumulator (``weylops._products``): the bracket is the pair
    (A, C, -1), and each term of the right-hand side a product pair with
    its coefficient negated, a lone operator paired with the identity I;
    an H-linear constant c0 + c1 H gives (I, I) with c0 and (H, I) with
    c1, and the product delta o A gives (A, I) with delta0 and (H, A)
    with delta1."""
    k = structure_constants(params, convention)
    r = abc_realization(metric, params)
    A, B, C, H = r.A, r.B, r.C, r.H
    I = WeylOp.const(3, 1)
    (de0, de1), (d0, d1), (ze0, ze1), (z0, z1) = k.delta, k.d_const, k.zeta, k.z_const
    res_ac = _products((A, C, -1), (A, A, 0, -k.alpha, 0), (A, B, 1, -k.gamma, 0),
                       (A, I, 0, -de0, 0), (H, A, 0, -de1, 0), (B, I, 0, -k.epsilon, 0),
                       (I, I, 0, -ze0, 0), (H, I, 0, -ze1, 0))
    ok_ac = _closes(res_ac, metric)[0]
    res_bc = _products((B, C, -1), (A, A, 0, -k.a_const, 0), (B, B, 0, k.gamma, 0),
                       (A, B, 1, k.alpha, 0), (A, I, 0, -d0, 0), (H, A, 0, -d1, 0),
                       (B, I, 0, de0, 0), (H, B, 0, de1, 0),
                       (I, I, 0, -z0, 0), (H, I, 0, -z1, 0))
    ok_bc = _closes(res_bc, metric)[0]
    return {
        "convention": convention,
        "signature": metric.signature,
        "AC": ok_ac,
        "BC": ok_bc,
        "q23_reconstruction": r.q23_residual_vanishes,
        "passed": ok_ac and ok_bc and r.q23_residual_vanishes,
    }


@dataclass(frozen=True)
class CasimirExpr:
    """realized_form / published_realized_form: {power of h: coefficient}."""
    params: ModelParams
    constants: QuadraticAlgebraConstants
    realized_form: dict
    published_realized_form: dict

    def realized_eval(self, h) -> Fraction:
        h = Fraction(h)
        return sum((c * h ** n for n, c in self.realized_form.items()),
                   Fraction(0))


def casimir(params: ModelParams) -> CasimirExpr:
    """The Casimir with the printed "( alpha, gamma - delta)" token resolved
    to (alpha*gamma - delta); realized form measured as K(H) = K_pub(-H)."""
    a1, a2, a3 = params.a
    k2 = 4 * (-3 + 4 * a1)
    k1 = -8 * (6 - 21 * a1 + 4 * a1 * a1 - 3 * a2 + 4 * a1 * a2
               - 3 * a3 + 4 * a1 * a3)
    k0 = 4 * (20 * a1 - 39 * a1 * a1 + 4 * a1 ** 3 + 4 * a2 - 30 * a1 * a2
              + 8 * a1 * a1 * a2 - 3 * a2 * a2 + 4 * a1 * a2 * a2
              + 4 * a3 - 30 * a1 * a3 + 8 * a1 * a1 * a3 + 6 * a2 * a3
              - 8 * a1 * a2 * a3 - 3 * a3 * a3 + 4 * a1 * a3 * a3)
    published = {2: Fraction(k2), 1: Fraction(k1), 0: Fraction(k0)}
    realized = {2: Fraction(k2), 1: Fraction(-k1), 0: Fraction(k0)}
    return CasimirExpr(params=params,
                       constants=structure_constants(params),
                       realized_form=realized,
                       published_realized_form=published)


def casimir_operator(metric: Metric, params: ModelParams) -> WeylOp:
    """Generator-form Casimir expanded in the operator realization."""
    return _casimir_expansion(abc_realization(metric, params),
                              structure_constants(params))


def _casimir_expansion(r: ABCRealization, k: QuadraticAlgebraConstants, *extra) -> WeylOp:
    """K = C^2 - alpha {A^2, B} - gamma {A, B^2} + (alpha gamma - delta) {A, B}
    + (gamma^2 - epsilon) B^2 + (gamma delta - 2 zeta) B + (2a/3) A^3
    + (d + a gamma/3 + alpha^2) A^2 + (a epsilon/3 + alpha delta + 2z) A,
    with delta, d, zeta, z linear in H.

    A^2, B^2 and {A, B} are built once.  The H-linear parts of the
    coefficients are collected, so that H multiplies from the left once,
    and the large products are summed in one integer accumulator
    (``weylops._products``), each coefficient applied to the smaller
    operand.  Any extra ``_products`` pairs join the same accumulator:
    ``verify_casimir`` passes -K(H) there and gets K - K(H) in one sum."""
    A, B, C, H = r.A, r.B, r.C, r.H
    AA, BB, AB = compose(A, A), compose(B, B), anticommutator(A, B)
    al, ga, a = k.alpha, k.gamma, k.a_const
    (de0, de1), (d0, d1), (ze0, ze1), (z0, z1) = k.delta, k.d_const, k.zeta, k.z_const
    # the parts of the coefficients of {A, B}, B^2, B, A^2 and A free of H
    free = (AB.scale(al * ga - de0) + BB.scale(ga * ga - k.epsilon)
            + B.scale(ga * de0 - 2 * ze0) + AA.scale(d0 + a * ga / 3 + al * al)
            + A.scale(a * k.epsilon / 3 + al * de0 + 2 * z0))
    # and the parts linear in H: -delta {A, B} + (gamma delta - 2 zeta) B
    # + d A^2 + (alpha delta + 2 z) A
    linear = (AB.scale(-de1) + B.scale(ga * de1 - 2 * ze1) + AA.scale(d1)
              + A.scale(al * de1 + 2 * z1))
    pairs = [(C, C, 0), (AA.scale(-al), B, 1), (A, BB.scale(-ga), 1),
             (H, linear, 0), (free, WeylOp.const(3, 1), 0)]
    if a:
        pairs.append((A.scale(2 * a / 3), AA, 0))
    return _products(*pairs, *extra)


def _tangent(Y: WeylOp, metric: Metric) -> bool:
    """[q, Y] = 0 exactly, q = sum_i g_ii s_i^2: Y maps (q+1)·W into
    itself, so [(q+1) X, Y] = (q+1)[X, Y]."""
    q = WeylOp.zero(metric.dim)
    for i, g in enumerate(metric.diag):
        q += WeylOp.coord(metric.dim, i, 2).scale(g)
    return commutator(q, Y).is_zero()


def _central_mod_constraint(Kn: WeylOp, Y: WeylOp, metric: Metric) -> bool:
    """[K, Y] in (q+1)·W, decided on Kn, the normal form of K modulo the
    quadric.  Each rewrite step of the reduction removes a term
    (q+1)·(g_dd s^A' D^B), so K = Kn + (q+1) X; for Y tangent to the
    quadric ([q, Y] = 0 exactly), [K, Y] = [Kn, Y] + (q+1)[X, Y], and
    [K, Y] is in (q+1)·W exactly when [Kn, Y] is.  A Y that is not
    tangent fails: there the shortcut proves nothing."""
    return _tangent(Y, metric) and _closes(commutator(Kn, Y), metric)[0]


def verify_casimir(metric: Metric, params: ModelParams) -> dict:
    """Exact checks certifying the (alpha*gamma - delta) resolution:
    operator equality with the realized K(H) modulo the quadric, and
    centrality with respect to A and B modulo the quadric.

    equals_realized tests K - K(H) in (q+1)·W, K the expanded
    generator-form Casimir, summed in the expansion's own accumulator
    (``_casimir_expansion`` with the three K(H) pairs).

    central_A and central_B certify [K, A] and [K, B] in (q+1)·W, by one
    of two routes, named by centrality_route:

    - "derived", when equals_realized holds and H, A and B are tangent
      to the quadric ([q, Y] = 0 exactly, ``_tangent``): central_Y is
      whether [H, Y] is in (q+1)·W.  It is a corollary, not an
      independent check: with K = K(H) + (q+1)X and Y tangent,
      [K, Y] = [K(H), Y] + (q+1)[X, Y], and
      [K(H), Y] = k2(H[H, Y] + [H, Y]H) + k1[H, Y]; H tangent commutes
      with q+1, so [H, Y] = (q+1)Z puts [K, Y] in (q+1)·W.  A false
      verdict here says only that [H, Y] does not close.
    - "bracket", when that premise fails: K is expanded once more and
      reduced to its normal form Kn modulo the quadric (K - Kn is in
      (q+1)·W), and central_Y tests [Kn, Y], exact for Y tangent; a Y
      that is not tangent fails (``_central_mod_constraint``).  A wrong
      K thus still gets centrality verdicts of its own."""
    r = abc_realization(metric, params)
    ce = casimir(params)
    H, I = r.H, WeylOp.const(3, 1)
    k2, k1, k0 = (ce.realized_form[n] for n in (2, 1, 0))
    # K - K(H) in one accumulator, K(H) = k2 H^2 + k1 H + k0
    eq = _closes(_casimir_expansion(r, ce.constants, (H, H, 0, -k2, 0), (H, I, 0, -k1, 0),
                                    (I, I, 0, -k0, 0)), metric)[0]
    if eq and all(_tangent(Y, metric) for Y in (H, r.A, r.B)):
        route, central = "derived", lambda Y: _closes(commutator(H, Y), metric)[0]
    else:
        Kn = reduce_mod_constraint(_casimir_expansion(r, ce.constants), metric)
        route, central = "bracket", lambda Y: _central_mod_constraint(Kn, Y, metric)
    central_A, central_B = central(r.A), central(r.B)
    return {"signature": metric.signature,
            "equals_realized": eq,
            "central_A": central_A,
            "central_B": central_B,
            "centrality_route": route,
            "passed": eq and central_A and central_B}


# ---------------------------------------------------------------------------
# structure function and spectrum

def _rational_sqrt(x: Fraction) -> Fraction:
    from math import isqrt
    if x < 0:
        raise ValueError("negative radicand")
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn != x.numerator or pd * pd != x.denominator:
        raise ValueError(f"{x} has no rational square root")
    return Fraction(pn, pd)


def m_values(params: ModelParams) -> tuple[Fraction, Fraction, Fraction]:
    """m_i = nonnegative root of m_i^2 = 1 + 4 a_i (m_i = 2 l_i)."""
    if params.l is not None:
        return tuple(2 * abs(Fraction(li)) for li in params.l)
    ms = []
    for ai in params.a:
        rad = 1 + 4 * Fraction(ai)
        if rad < 0:
            raise ValueError("a_i < -1/4 (complex m_i) is out of scope")
        ms.append(_rational_sqrt(rad))
    return tuple(ms)


def structure_function_roots(params: ModelParams, Etilde) -> tuple:
    """The eight roots N_1..N_8, fully symmetric pattern
    (2 +- (m1 +- m2))/4 and (2 +- (Etilde +- m3))/4."""
    m1, m2, m3 = m_values(params)
    Et = Fraction(Etilde)
    return (
        Fraction(2 - (m1 - m2), 4), Fraction(2 + (m1 - m2), 4),
        Fraction(2 - (m1 + m2), 4), Fraction(2 + (m1 + m2), 4),
        Fraction(2 - (Et - m3), 4), Fraction(2 + (Et - m3), 4),
        Fraction(2 - (Et + m3), 4), Fraction(2 + (Et + m3), 4),
    )


def structure_function_eval(x, Etilde, params: ModelParams) -> Fraction:
    """Phi(x) = 824633720832 * prod_r (x - N_r), exact."""
    x = Fraction(x)
    val = Fraction(LEADING_COEFF)
    for root in structure_function_roots(params, Etilde):
        val *= x - root
    return val


def rep_parameter_u(signs, params: ModelParams) -> Fraction:
    """u = (2 + m1 eps1 + m2 eps2)/4; always one of the roots N_1..N_4."""
    e1, e2 = signs
    m1, m2, m3 = m_values(params)
    return Fraction(2 + m1 * e1 + m2 * e2, 4)


@dataclass(frozen=True)
class RepSolution:
    signs: tuple            # (eps1, eps2, eps3)
    u: Fraction             # shift with Phi(u) = 0 for this solution
    p: int
    E: Fraction             # algebraic energy, E = (1 - Etilde^2)/4
    Etilde: Fraction        # 4(p+1) - eps3 m3 - eps2 m2 - eps1 m1
    degeneracy: int
    certified: bool


ALL_SIGN_PATTERNS = tuple(itertools.product((1, -1), repeat=3))


def _candidates(params, signs, max_p, flip):
    """The certified representations of one sign pattern, p = 0..max_p.

    Phi = LEADING_COEFF * prod_r (x - N_r) has a positive leading
    coefficient, so with the roots sorted, Phi(x) <= 0 exactly on the
    closed gaps [r1, r2], [r3, r4], [r5, r6], [r7, r8]: at a root Phi
    is 0, and inside such a gap an odd number of roots lie above x.
    Phi(nu + u) > 0 for nu = 1..p thus holds when no gap, shifted by
    -u, holds an integer in [1, p].  Scaled by 4D, D the lcm of the
    m_i denominators, the shifted roots are integers and the test is
    two integer floor divisions per gap.
    """
    e1, e2, e3 = signs
    ms = m_values(params)
    D = lcm(*(m.denominator for m in ms))
    M1, M2, M3 = (m.numerator * (D // m.denominator) for m in ms)
    scale = 4 * D
    # Phi(0 + u) = 0 demands u be an (m1, m2)-root; with the Etilde
    # convention below, the consistent choice is eps -> -eps in u.
    u = rep_parameter_u((-e1, -e2), params)
    c = e1 * M1 + e2 * M2                  # scale * (1/2 - u)
    fixed = [c - (M1 - M2), c + (M1 - M2), c - (M1 + M2), c + (M1 + M2)]
    out = []
    for p in range(max_p + 1):
        T = scale * (p + 1) - e3 * M3 - e2 * M2 - e1 * M1      # D * Etilde
        if flip is not None and not (flip * T < 0):
            # bound-state direction: flip * (eps.l - 2(p+1)) > 0
            continue
        roots = sorted(fixed + [c - (T - M3), c + (T - M3),
                                c - (T + M3), c + (T + M3)])
        if any(max(1, -(-lo // scale)) <= min(p, hi // scale)
               for lo, hi in zip(roots[::2], roots[1::2])):
            continue
        Etilde = Fraction(T, D)
        out.append(RepSolution(signs=signs, u=u, p=p,
                               E=Fraction(1 - Etilde * Etilde, 4),
                               Etilde=Etilde, degeneracy=p + 1,
                               certified=True))
    return out


# ---------------------------------------------------------------------------
# separation-of-variables spectra and the surface dictionary

@dataclass(frozen=True)
class SpectrumLevel:
    E: object               # Fraction (analytic) or float (numeric)
    n: int
    m: int
    P: int
    degeneracy: int
    method: str = "analytic"


def _check_count(name, n):
    if n is not None and n < 0:
        raise ValueError(f"{name} must be at least 0, got {n}")


def analytic_spectrum_h2(l, max_levels=None) -> list[SpectrumLevel]:
    """Discrete H^2 spectrum: E = 1/4 - (l3 - l1 - l2 - 2(P+1))^2 over all
    P = n + m with l3 - l1 - l2 - 2(P+1) > 0, l_i read as |l_i| (H
    depends on l_i^2 only); one level per P with degeneracy P + 1, at
    most max_levels (>= 0, else ValueError) of them; possibly none."""
    _check_count("max_levels", max_levels)
    l1, l2, l3 = (abs(Fraction(x)) for x in l)
    out = []
    for P in itertools.count() if max_levels is None else range(max_levels):
        k = l3 - l1 - l2 - 2 * (P + 1)
        if k <= 0:
            break
        out.append(SpectrumLevel(E=Fraction(1, 4) - k * k, n=0, m=P, P=P,
                                 degeneracy=P + 1))
    return out


def analytic_spectrum_s2(l, max_levels) -> list[SpectrumLevel]:
    """S^2 spectrum: E = (l1 + l2 + l3 + 2(P+1))^2 - 1/4, l_i read as
    |l_i|, one level per P = 0..max_levels-1 (max_levels >= 0, else
    ValueError) with degeneracy P + 1.  The spectrum is infinite, so
    max_levels=None raises ValueError."""
    if max_levels is None:
        raise ValueError("max_levels is required: the S^2 spectrum is infinite")
    _check_count("max_levels", max_levels)
    s = sum(abs(Fraction(x)) for x in l)
    return [SpectrumLevel(E=(s + 2 * (P + 1)) ** 2 - Fraction(1, 4), n=0, m=P,
                          P=P, degeneracy=P + 1)
            for P in range(max_levels)]


H2_SIGNS = (-1, -1, 1)
S2_SIGNS = (-1, -1, -1)

# surface -> (sign pattern, global sign of H, closed-form spectrum): the
# pattern's certified levels E with flip * Etilde < 0, times the global
# sign, are the surface's separation-of-variables levels
SURFACES = {"h2": (H2_SIGNS, 1, analytic_spectrum_h2),
            "s2": (S2_SIGNS, -1, analytic_spectrum_s2)}


def find_spectrum(params: ModelParams, max_p: int,
                  sign_mode="all", flip=None) -> list[RepSolution]:
    """Enumerate finite-dimensional unitary representations.

    sign_mode: "all" (all 8 patterns), a ``SURFACES`` key ("h2" or "s2":
    that surface's pattern, with its global sign as flip), or an
    explicit (eps1, eps2, eps3) triple of +-1; anything else raises
    ValueError.  Each emitted solution carries the exact
    certificate of a (p+1)-dimensional representation: Phi(u) = 0 and
    Phi(p + 1 + u) = 0 hold by construction (u is an (m1, m2)-root and
    Etilde puts p + 1 + u on an (Etilde, m3)-root), and
    Phi(nu + u) > 0 for nu = 1..p is checked exactly.  flip = +1 keeps
    Etilde < 0, flip = -1 keeps Etilde > 0.  An empty list is a valid
    result; a negative max_p raises ValueError.
    """
    _check_count("max_p", max_p)
    if sign_mode == "all":
        patterns = ALL_SIGN_PATTERNS
    elif isinstance(sign_mode, str) and sign_mode in SURFACES:
        signs, flip, _ = SURFACES[sign_mode]
        patterns = [signs]
    else:
        signs = tuple(sign_mode) if isinstance(sign_mode, (tuple, list)) else ()
        if len(signs) != 3 or any(e not in (1, -1) for e in signs):
            raise ValueError(f"sign_mode must be 'all', one of {sorted(SURFACES)} "
                             f"or a triple of +1/-1, got {sign_mode!r}")
        patterns = [signs]
    out = []
    for signs in patterns:
        out.extend(_candidates(params, signs, max_p, flip))
    return out


def match_spectrum_to_signature(metric: Metric, params: ModelParams,
                                max_p: int = 6) -> dict:
    """Search the 8 sign patterns and the global Hamiltonian sign for the
    pattern whose algebraic spectrum equals the analytic
    separation-of-variables spectrum of the surface named by the metric.

    With no analytic level up to max_p every pattern with no solution
    would match, so an empty target is vacuous and fails."""
    if metric.dim != 3:
        raise ValueError("d = 3 only")
    n_minus = metric.diag.count(-1)
    if params.l is None:
        raise ValueError("l parameters required")
    surface = "s2" if n_minus in (0, 3) else "h2"
    target = {(lv.E, lv.degeneracy)
              for lv in SURFACES[surface][2](params.l, max_levels=max_p + 1)}

    matches = []
    for signs in ALL_SIGN_PATTERNS:
        # one certificate pass per pattern; flip = +1 keeps Etilde < 0
        # and flip = -1 keeps Etilde > 0, as find_spectrum's flip does
        sols = find_spectrum(params, max_p, sign_mode=signs)
        for flip in (1, -1):
            got = {(flip * s.E, s.degeneracy) for s in sols
                   if flip * s.Etilde < 0}
            if got == target:
                matches.append({"signs": signs, "global_flip": flip})
    return {
        "surface": surface,
        "signature": metric.signature,
        "analytic_levels": sorted(target),
        "matches": matches,
        "vacuous": not target,
        "passed": bool(target) and bool(matches),
    }

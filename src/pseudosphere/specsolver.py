"""Numeric separation-of-variables spectra for S^2 and H^2.

A generic one-dimensional Sturm-Liouville finite-difference eigensolver
(Liouville-transformed Poschl-Teller problems, Richardson extrapolation,
endpoint-truncation extrapolation) as the physics-side numerical oracle
for the algebraic spectrum.  The closed-form levels live in ``racah3``
and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .racah3 import SpectrumLevel, analytic_spectrum_h2, analytic_spectrum_s2  # noqa: F401


class ConvergenceError(RuntimeError):
    """Eigenvalue drift across refinements exceeded the tolerance."""


# ---------------------------------------------------------------------------
# generic Sturm-Liouville solver

@dataclass(frozen=True)
class SLProblem:
    """-v'' + q(x) v = E v on (x0, x1), Dirichlet after truncation.

    The problem is assumed already in Liouville (self-adjoint) form; the
    singular_left/right flags mark endpoints that need truncation.  The
    potential is called once per grid on the numpy array of interior nodes
    and returns an array of the same shape or a scalar (a constant
    potential); a callable that accepts only a Python float fails with a
    TypeError."""
    potential: object       # callable q(x) on an array of interior nodes
    x0: float
    x1: float
    singular_left: bool = True
    singular_right: bool = True


@dataclass(frozen=True)
class GridSpec:
    """Finite-difference grids of solve_sturm_liouville.

    `nodes` is the number of intervals of the finest grid.  Refinement
    level k = 0..levels-1 has coarsest * 2^k intervals, coarsest =
    nodes // 2^(levels-1) >= 64, so the spacing halves exactly between
    levels, as the Richardson extrapolation assumes.  `offsets` are two
    distinct endpoint-truncation offsets, fractions of the interval length
    in [0, 1/2), from which the levels are extrapolated to zero offset."""
    nodes: int = 1024
    offsets: tuple = (1e-5, 2e-5)
    levels: int = 3                 # Richardson refinement levels

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("need >= 2 refinement levels")
        if self.coarsest < 64:
            raise ValueError(
                f"the coarsest grid nodes // 2^(levels-1) = {self.coarsest} "
                "must have >= 64 intervals")
        if (len(self.offsets) != 2 or self.offsets[0] == self.offsets[1]
                or not all(0 <= e < 0.5 for e in self.offsets)):
            raise ValueError(f"offsets must be two distinct values in "
                             f"[0, 1/2), got {self.offsets!r}")

    @property
    def coarsest(self) -> int:
        """Number of intervals of the coarsest refinement level."""
        return self.nodes // 2**(self.levels - 1)


def _eigs_on_grid(prob: SLProblem, a, b, n, count):
    h = (b - a) / (n + 1)
    x = a + h * np.arange(1, n + 1)
    q = np.broadcast_to(np.asarray(prob.potential(x), dtype=float), x.shape)
    diag = 2.0 / h**2 + q
    off = np.full(n - 1, -1.0 / h**2)
    return eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, count - 1), lapack_driver="stebz",
                            eigvals_only=True)


def _richardson(table):
    """The last two entries of the last row of the Romberg table: the
    estimates that eliminate all, and all but the highest, of the h^2,
    h^4, ... error terms.  Rows are ordered coarse -> fine, each on half
    the spacing of the one before."""
    row = [np.asarray(t, dtype=float) for t in table]
    for j in range(1, len(row)):
        prev = row[-1]
        fac = 4.0**j
        row = [(fac * row[i + 1] - row[i]) / (fac - 1.0)
               for i in range(len(row) - 1)]
    return row[0], prev


def solve_sturm_liouville(prob: SLProblem, grid: GridSpec, count: int,
                          tol: float = 1e-6, below: float = math.inf) -> list[float]:
    """Of the lowest `count` eigenvalues, those below `below`,
    Richardson-extrapolated across the refinement levels and linearly
    extrapolated in the truncation offset.  Raises ConvergenceError if
    the relative drift between the two highest-order Richardson
    estimates of a returned level exceeds tol; levels at or above
    `below` (say, in a box continuum) are dropped unchecked."""
    if count < 1:
        raise ValueError("count must be >= 1")
    length = prob.x1 - prob.x0
    per_offset = []
    drift = np.zeros(count)
    for eps_frac in grid.offsets:
        a = prob.x0 + (eps_frac * length if prob.singular_left else 0.0)
        b = prob.x1 - (eps_frac * length if prob.singular_right else 0.0)
        table = [_eigs_on_grid(prob, a, b, grid.coarsest * 2**k - 1, count)
                 for k in range(grid.levels)]
        fine, prev = _richardson(table)
        scale = np.maximum(np.abs(fine), 1.0)
        drift = np.maximum(drift, np.abs(fine - prev) / scale)
        per_offset.append(fine)
    e1, e2 = grid.offsets[0], grid.offsets[1]
    v1, v2 = per_offset[0], per_offset[1]
    vals = v1 + (v1 - v2) * (e1 / (e2 - e1))  # linear extrapolation eps -> 0
    order = np.argsort(vals)
    vals, drift = vals[order], drift[order]
    kept = vals < below
    worst = float(np.max(drift[kept], initial=0.0))
    if worst > tol:
        raise ConvergenceError(
            f"relative drift {worst:.2e} exceeds tolerance {tol:.2e}")
    return [float(v) for v in vals[kept]]


# ---------------------------------------------------------------------------
# the separated problems

def _pt_trig(A2: float, B2: float, shift: float):
    """q(x) = (A2 - 1/4)/sin^2 x + (B2 - 1/4)/cos^2 x + shift on (0, pi/2)."""
    cA = A2 - 0.25
    cB = B2 - 0.25
    return lambda x: cA / np.sin(x)**2 + cB / np.cos(x)**2 + shift


def angular_problem(l1, l2) -> SLProblem:
    """theta in (0, pi/2); eigenvalues lambda_m = (l1 + l2 + 2m + 1)^2."""
    return SLProblem(potential=_pt_trig(float(l1)**2, float(l2)**2, 0.0),
                     x0=0.0, x1=math.pi / 2)


def radial_problem_h2(lam: float, l3, L: float) -> SLProblem:
    """xi in (0, L): q = (lam - 1/4)/sinh^2 - (l3^2 - 1/4)/cosh^2 + 1/4."""
    cA = lam - 0.25
    cB = float(l3)**2 - 0.25
    pot = lambda x: cA / np.sinh(x)**2 - cB / np.cosh(x)**2 + 0.25
    return SLProblem(potential=pot, x0=0.0, x1=L, singular_right=False)


def radial_problem_s2(lam: float, l3) -> SLProblem:
    """chi in (0, pi/2): q = (lam - 1/4)/sin^2 + (l3^2 - 1/4)/cos^2 - 1/4."""
    return SLProblem(potential=_pt_trig(lam, float(l3)**2, -0.25),
                     x0=0.0, x1=math.pi / 2)


def _adaptive_L(lam, l3, grid, count=1, start=10.0, cap=60.0):
    """Choose the xi-domain length from the slowest bound-state decay rate.

    A bound state at energy E decays like exp(-sqrt(1/4 - E) xi); the
    probe solve at a moderate domain supplies the rates, and the final
    length keeps the truncation error below the discretization error.
    The probe uses two levels and a quarter of grid's nodes, at least 256,
    so its coarsest level has >= 128 intervals for every valid grid."""
    probe = GridSpec(nodes=max(256, grid.nodes // 4), offsets=grid.offsets,
                     levels=2)
    vals = np.array(solve_sturm_liouville(
        radial_problem_h2(lam, l3, start), probe, count, tol=float("inf")))
    bound = vals[vals < H2_THRESHOLD - 1e-6]
    if len(bound) == 0:
        return start
    k_min = math.sqrt(max(H2_THRESHOLD - float(bound.max()), 1e-4))
    return min(cap, max(start, 16.0 / k_min))


H2_THRESHOLD = 0.25  # continuum threshold: E = 1/4 - (positive)^2
# Drift tolerance of the bound H^2 levels.  The radial domain is about 20
# times longer than the angular one, so on the same node count the
# Richardson drift of a bound level (an overestimate of its error) reaches
# 6.5e-6 at 2048 nodes and exceeds 1e-4 at 1024 nodes for half-integer l
# with up to three bound levels, while the levels stay within 1e-5 of the
# closed form.  1e-3 is the relative tolerance at which pde-check matches
# a numeric level to an analytic one.
H2_DRIFT_TOL = 1e-3


def pde_spectrum(surface: str, l, counts=(3, 3),
                 grid: GridSpec = None) -> list[SpectrumLevel]:
    """Numeric spectrum by two-step separation: diagonalize the angular
    problem for lambda_m, then the radial problem per channel, and compose
    E(n, m).  For H^2 only levels below the continuum threshold are
    returned."""
    if grid is None:
        grid = GridSpec()
    if surface not in ("h2", "s2"):
        raise ValueError("surface must be 'h2' or 's2'")
    l1, l2, l3 = l
    m_count, n_count = counts
    lams = solve_sturm_liouville(angular_problem(l1, l2), grid, m_count)
    out = []
    for m, lam in enumerate(lams):
        if surface == "s2":
            prob = radial_problem_s2(lam, l3)
            Es = solve_sturm_liouville(prob, grid, n_count)
        else:
            L = _adaptive_L(lam, l3, grid, count=n_count)
            # levels above the threshold lie in the box continuum: they
            # are dropped, and their drift is not checked
            Es = solve_sturm_liouville(radial_problem_h2(lam, l3, L), grid, n_count,
                                       tol=H2_DRIFT_TOL, below=H2_THRESHOLD - 1e-6)
        for n, E in enumerate(Es):
            out.append(SpectrumLevel(E=E, n=n, m=m, P=n + m,
                                     degeneracy=n + m + 1, method="numeric"))
    out.sort(key=lambda lv: (lv.P, lv.E))
    return out


def group_numeric(levels, rtol=1e-3):
    """Cluster numeric levels into (E, multiplicity) pairs."""
    groups = []
    for lv in sorted(levels, key=lambda t: float(t.E)):
        E = float(lv.E)
        if groups and abs(E - groups[-1][0]) <= rtol * max(1.0, abs(E)):
            e0, c = groups[-1]
            groups[-1] = ((e0 * c + E) / (c + 1), c + 1)
        else:
            groups.append((E, 1))
    return groups

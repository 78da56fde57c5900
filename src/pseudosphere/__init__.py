"""Exact symmetry-algebra verification and spectra for generic
superintegrable systems on pseudo-spheres."""

from .weylops import (
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
    reduce_mod_constraint,
)
from .model import (
    ModelParams,
    LinearRelation,
    RELATION_FAMILIES,
    build_J,
    build_H,
    build_Q,
    build_C,
    verify_relation,
    discover_linear_relation,
    verify_metric_independence,
)
from .phase import (
    PhasePoly,
    poisson_bracket,
    build_classical_model,
    verify_classical_relation,
    correspondence_check,
    principal_symbol,
)
from .racah3 import (
    QuadraticAlgebraConstants,
    RepSolution,
    structure_constants,
    abc_realization,
    verify_daskaloyannis_form,
    casimir,
    casimir_operator,
    verify_casimir,
    structure_function_eval,
    rep_parameter_u,
    find_spectrum,
    match_spectrum_to_signature,
    SpectrumLevel,
    analytic_spectrum_h2,
    analytic_spectrum_s2,
)

_SPECSOLVER_NAMES = ("SLProblem", "GridSpec", "ConvergenceError",
                     "solve_sturm_liouville", "pde_spectrum")


def __getattr__(name):
    # numpy and scipy load only when a specsolver name is first asked for
    if name in _SPECSOLVER_NAMES:
        from . import specsolver
        return getattr(specsolver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

"""Seeded job lists for the four benchmark workloads.

A job is one call into the public API (for ``casimir``, one pair of
calls) together with the outcome it must produce.  Every input is drawn
from the ``random.Random`` passed in, so one seed fixes every input; the
program only ever sees the generated ``Metric``, ``ModelParams`` and
``l`` values.  Layer functions are looked up through their modules at
call time, so the tracer's wrappers are the ones called.

Each workload also has a warm-up job, drawn from its own sub-seed and
kept disjoint from the timed inputs, and negative controls: checks that
must come out false, showing that the gates can fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

from pseudosphere import model, phase, racah3, specsolver, weylops

# relation family -> length of its index tuple (its least dimension)
FAMILIES = {"symmetry": 2, "qq_c": 3, "qc_adjacent": 3, "qc_disjoint": 4,
            "cc_share2": 4, "cc_share1": 5, "cc_disjoint": 6}
DIMS = (3, 4, 5, 6)
SIGS3 = tuple(itertools.product((1, -1), repeat=3))
H2_SIGNS = (-1, -1, 1)
S2_SIGNS = (-1, -1, -1)

RELATION_SIGNATURES = 4     # signatures per dimension in ``relations``
CASIMIR_JOBS = 5            # signatures (one fresh ``a`` each) in ``casimir``
CLASSICAL_SIGNATURES = 2    # signatures per dimension in ``classical``
PDE_GRID = specsolver.GridSpec(nodes=2048)  # the pde-check default grid
PDE_RTOL = 1e-3             # the pde-check agreement tolerance
FIND_MAX_P = 40             # well above the racah-spectrum default of 8


@dataclass(frozen=True)
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    inputs: frozenset           # parameter tuples the job reads


def _a(rng, d):
    """Nonzero potential strengths, so every job keeps all s_i^-2 terms."""
    return tuple(F(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 5))
                 for _ in range(d))


def _signatures(rng, d, n):
    return rng.sample(list(itertools.product((1, -1), repeat=d)), n)


L12 = tuple(F(n, 2) for n in (1, 3, 5, 7))


def _l_triple(rng, l1=None, l2=None):
    """Half-integer l with 1 to 3 bound H^2 levels: l3 = l1 + l2 + 2 + delta."""
    l1 = rng.choice(L12) if l1 is None else l1
    l2 = rng.choice(L12) if l2 is None else l2
    return (l1, l2, l1 + l2 + 2 + F(rng.choice((1, 3, 5, 7, 9)), 2))


# ---------------------------------------------------------------------------
# independent closed forms and comparisons used by the gates

def h2_levels(l):
    """[(E, degeneracy)] with E = 1/4 - k^2, k = l3 - l1 - l2 - 2(P+1) > 0."""
    l1, l2, l3 = l
    out, P = [], 0
    while l3 - l1 - l2 - 2 * (P + 1) > 0:
        k = l3 - l1 - l2 - 2 * (P + 1)
        out.append((F(1, 4) - k * k, P + 1))
        P += 1
    return out


def s2_levels(l, count):
    """[(E, degeneracy)] with E = (l1 + l2 + l3 + 2(P+1))^2 - 1/4."""
    s = sum(l)
    return [((s + 2 * (P + 1)) ** 2 - F(1, 4), P + 1) for P in range(count)]


def numeric_matches(levels, expected) -> bool:
    """Numeric levels, clustered within PDE_RTOL, equal the expected
    (E, degeneracy) list in count, value and multiplicity."""
    groups = []
    for E in sorted(float(lv.E) for lv in levels):
        if groups and abs(E - groups[-1][0]) <= PDE_RTOL * max(1.0, abs(E)):
            groups[-1][1] += 1
        else:
            groups.append([E, 1])
    return len(groups) == len(expected) and all(
        abs(g[0] - float(E)) <= PDE_RTOL * max(1.0, abs(float(E))) and g[1] == deg
        for g, (E, deg) in zip(groups, expected))


def _spectrum_subsets_match(sols, l) -> bool:
    """The (-,-,+) bound states (Etilde < 0) are the H^2 levels and the
    (-,-,-) states with Etilde > 0, sign flipped, are the S^2 levels."""
    h2 = [(s.E, s.degeneracy) for s in sols if s.signs == H2_SIGNS and s.Etilde < 0]
    s2 = [(-s.E, s.degeneracy) for s in sols if s.signs == S2_SIGNS and s.Etilde > 0]
    return h2 == h2_levels(l) and s2 == s2_levels(l, FIND_MAX_P + 1)


# ---------------------------------------------------------------------------
# jobs

def _relation_job(fam, metric, params):
    idx = tuple(range(FAMILIES[fam]))
    return Job(f"relation:{fam}",
               lambda: model.verify_relation(fam, idx, metric, params),
               lambda r: r.passed and r.reduced == (fam == "symmetry"),
               frozenset([params.a]))


def _casimir_job(metric, params):
    return Job("casimir",
               lambda: (racah3.verify_daskaloyannis_form(metric, params),
                        racah3.verify_casimir(metric, params)),
               lambda out: out[0]["passed"] is True and out[1]["passed"] is True,
               frozenset([params.a]))


def _classical_job(fam, metric, params):
    idx = tuple(range(FAMILIES[fam]))
    return Job(f"classical:{fam}",
               lambda: phase.verify_classical_relation(fam, idx, metric, params),
               lambda r: r["passed"] and r["reduced"] == (fam == "symmetry"),
               frozenset([params.a]))


def _correspondence_job(metric, params):
    return Job("correspondence",
               lambda: phase.correspondence_check(metric, params),
               lambda r: r["passed"] and r["global_sign"] == -1,
               frozenset([params.a]))


def _pde_h2_job(l):
    want = h2_levels(l)
    counts = (len(want) + 1,) * 2
    return Job("pde:h2",
               lambda: specsolver.pde_spectrum("h2", l, counts=counts, grid=PDE_GRID),
               lambda levels: numeric_matches(levels, want),
               frozenset([l]))


def _spectra_jobs(rng, l):
    params = model.ModelParams.from_l(l)
    h2_metric = weylops.Metric(rng.choice([s for s in SIGS3 if 0 < s.count(-1) < 3]))
    return [
        _pde_h2_job(l),
        Job("pde:s2",
            lambda: specsolver.pde_spectrum("s2", l, counts=(3, 3), grid=PDE_GRID),
            lambda levels: numeric_matches([lv for lv in levels if lv.P <= 2],
                                           s2_levels(l, 3)),
            frozenset([l])),
        Job("match",
            lambda: racah3.match_spectrum_to_signature(h2_metric, params),
            lambda r: r["matches"] == [{"signs": H2_SIGNS, "global_flip": 1}],
            frozenset([l])),
        Job("find:h2",
            lambda: racah3.find_spectrum(params, 8, sign_mode="h2"),
            lambda sols: [(s.E, s.degeneracy) for s in sols] == h2_levels(l),
            frozenset([l])),
        Job("find:all",
            lambda: racah3.find_spectrum(params, FIND_MAX_P),
            lambda sols: _spectrum_subsets_match(sols, l),
            frozenset([l])),
    ]


# ---------------------------------------------------------------------------
# workloads

def relations(rng):
    """A verify-algebra manifest for d = 3..6: every family on several
    signatures, one params vector per (dimension, signature) shared by
    all its families."""
    jobs = []
    for d in DIMS:
        for diag in _signatures(rng, d, RELATION_SIGNATURES):
            metric = weylops.Metric(diag)
            params = model.ModelParams.from_a(_a(rng, d))
            jobs += [_relation_job(fam, metric, params)
                     for fam, k in FAMILIES.items() if k <= d]
    return jobs


def relations_warmup(rng):
    return _relation_job("qc_adjacent", weylops.Metric(rng.choice(SIGS3)),
                         model.ModelParams.from_a(_a(rng, 3)))


def _mismatched(rng):
    """A d = 3 metric and two different params vectors."""
    metric = weylops.Metric(rng.choice(SIGS3))
    p, q = (model.ModelParams.from_a(_a(rng, 3)) for _ in range(2))
    while q == p:
        q = model.ModelParams.from_a(_a(rng, 3))
    return metric, p, q


def relations_controls(rng):
    """[H, Q_01] built from two different params vectors does not vanish."""
    metric, p, q = _mismatched(rng)
    return {"symmetry_with_mismatched_params": lambda: weylops.vanishes_mod_constraint(
        weylops.commutator(model.build_H(metric, p), model.build_Q(metric, q, 0, 1)),
        metric)}


def casimir(rng):
    """The d = 3 Daskaloyannis certification on distinct signatures."""
    return [_casimir_job(weylops.Metric(diag), model.ModelParams.from_a(_a(rng, 3)))
            for diag in rng.sample(SIGS3, CASIMIR_JOBS)]


def casimir_warmup(rng):
    return _casimir_job(weylops.Metric(rng.choice(SIGS3)),
                        model.ModelParams.from_a(_a(rng, 3)))


def casimir_controls(rng):
    """The published structure constants fail the operator identities."""
    metric = weylops.Metric(rng.choice(SIGS3))
    params = model.ModelParams.from_a(_a(rng, 3))
    return {"published_convention": lambda: racah3.verify_daskaloyannis_form(
        metric, params, convention="published")["passed"]}


def classical(rng):
    """A classical-check manifest for d = 3..6: every classical relation
    plus one correspondence check per (signature, params), one params
    vector per (dimension, signature)."""
    jobs = []
    for d in DIMS:
        for diag in _signatures(rng, d, CLASSICAL_SIGNATURES):
            metric = weylops.Metric(diag)
            params = model.ModelParams.from_a(_a(rng, d))
            jobs += [_classical_job(fam, metric, params)
                     for fam, k in FAMILIES.items() if k <= d]
            jobs.append(_correspondence_job(metric, params))
    return jobs


def classical_warmup(rng):
    return _correspondence_job(weylops.Metric(rng.choice(SIGS3)),
                               model.ModelParams.from_a(_a(rng, 3)))


def classical_controls(rng):
    """{H, Q_01} built from two different params vectors does not vanish."""
    metric, p, q = _mismatched(rng)
    return {"classical_symmetry_with_mismatched_params":
            lambda: phase.vanishes_mod_constraint_cl(phase.poisson_bracket(
                phase.build_H_cl(metric, p), phase.build_Q_cl(metric, q, 0, 1)),
                metric)}


def spectra(rng):
    """Numeric and algebraic spectra for distinct half-integer l triples.

    l1 and l2 each run through every value of L12 once, in seeded order:
    find_spectrum costs two to three times as much when l1 or l2 is 1/2,
    and drawing them freely would let that, not the program, set the
    spread between seeds."""
    l1s, l2s = rng.sample(L12, len(L12)), rng.sample(L12, len(L12))
    return [job for l1, l2 in zip(l1s, l2s)
            for job in _spectra_jobs(rng, _l_triple(rng, l1, l2))]


def spectra_warmup(rng):
    return _pde_h2_job(_l_triple(rng))


def spectra_controls(rng):
    """The sphere does not pick the hyperboloid's pattern, and the H^2
    levels of l do not pass as those of l with l3 raised by 1."""
    l = _l_triple(rng)
    params = model.ModelParams.from_l(l)
    shifted = h2_levels((l[0], l[1], l[2] + 1))
    return {
        "sphere_picks_h2_pattern": lambda: {"signs": H2_SIGNS, "global_flip": 1}
        in racah3.match_spectrum_to_signature(weylops.Metric(S2_SIGNS), params)["matches"],
        "h2_levels_match_shifted_l3": lambda: numeric_matches(
            specsolver.pde_spectrum("h2", l, counts=(len(shifted) + 1,) * 2,
                                    grid=PDE_GRID), shifted),
    }


WORKLOADS = {
    "relations": (relations, relations_warmup, relations_controls),
    "casimir": (casimir, casimir_warmup, casimir_controls),
    "classical": (classical, classical_warmup, classical_controls),
    "spectra": (spectra, spectra_warmup, spectra_controls),
}


def warmup_job(name, rng, timed):
    """A warm-up job whose inputs no timed job reads."""
    used = frozenset().union(*(job.inputs for job in timed))
    for _ in range(1000):
        job = WORKLOADS[name][1](rng)
        if not job.inputs & used:
            return job
    raise RuntimeError(f"no warm-up input disjoint from the {name} jobs")

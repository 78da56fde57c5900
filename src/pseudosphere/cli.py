"""Command-line front end: verification manifests, spectrum tables,
and algebra/PDE cross-check reports.

Exit codes: 0 all jobs passed, 1 at least one failed, 2 usage error.
Rationals are serialized exactly as "num/den" strings.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from multiprocessing import get_context

from . import __version__
from .weylops import Metric
from .model import (
    MIN_DIMENSION,
    ModelParams,
    RELATION_FAMILIES,
    default_indices,
    verify_metric_independence,
    verify_relation,
)
from .phase import verify_classical_relation, correspondence_check
from .racah3 import SURFACES, find_spectrum, match_spectrum_to_signature


def _rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _parse_rats(text):
    try:
        return tuple(Fraction(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational list {text!r}: {exc}")


def _parse_signature(text):
    mapping = {"+": 1, "-": -1, "+1": 1, "-1": -1, "1": 1}
    try:
        return tuple(mapping[tok] for tok in text.split(","))
    except KeyError:
        raise argparse.ArgumentTypeError(f"bad signature {text!r}")


DEFAULT_MANIFEST = {
    "dim": 3,
    "signatures": "all",
    "params": [
        {"a": ["1/4", "1/4", "1/4"]},
        {"l": ["1/2", "1/2", "13/2"]},
    ],
    "relations": list(RELATION_FAMILIES),
}


def _shape(value, kind, what, entries=()):
    """value if it is a kind (list or dict) whose items, when entries is
    given, are all of a type in it exactly (no bool passes as int), else
    ValueError: what, got value."""
    if not isinstance(value, kind) or entries and any(type(x) not in entries for x in value):
        raise ValueError(f"{what}, got {value!r}")
    return value


def _of_dim(kind, vec, dim):
    """vec if it has dim entries, else ValueError naming it kind."""
    if len(vec) != dim:
        raise ValueError(f"{kind} ({', '.join(map(str, vec))}) has {len(vec)} "
                         f"entries, the manifest's dim is {dim}")
    return vec


def _manifest_metrics(manifest, dim):
    sigs = manifest.get("signatures", "all")
    if sigs == "all":
        return [Metric(d) for d in itertools.product((1, -1), repeat=dim)]
    return [Metric(_of_dim("signature", tuple(_shape(s, list, "a signature must be a list")), dim))
            for s in _shape(sigs, list, 'signatures must be "all" or a list')]


def _manifest_params(manifest, dim):
    out = []
    for entry in _shape(manifest.get("params", []), list, "params must be a list of objects"):
        keys = [k for k in ("l", "a") if k in entry] if isinstance(entry, dict) else []
        if len(keys) != 1:
            raise ValueError(f"params entry {entry} has " + ("both 'a' and 'l'" if keys
                                                             else "neither 'a' nor 'l'"))
        key, = keys
        what = f"params entry {key} must be a list of rationals"
        try:
            vec = tuple(Fraction(x) for x in _shape(entry[key], list, what, (int, str)))
        except (TypeError, ZeroDivisionError):
            raise ValueError(f"{what}, got {entry[key]!r}") from None
        out.append(ModelParams.from_l(vec) if key == "l" else ModelParams.from_a(vec))
        _of_dim("params a =", out[-1].a, dim)
    return out


def _relation_jobs(manifest, job):
    """(dim, metrics, params, jobs) of a manifest: one (job, family,
    indices, signature, a) task per family the dimension admits, signature
    and params vector.  Raises ValueError on an invalid manifest (checking
    each vector's length before "all" signatures expand), and on one that
    admits no relation job."""
    _shape(manifest, dict, "the manifest must be a JSON object")
    if unknown := sorted(set(manifest) - set(DEFAULT_MANIFEST)):
        raise ValueError(f"unknown manifest key {unknown[0]!r}")
    dim = manifest.get("dim", 3)
    if type(dim) is not int:
        raise ValueError(f"dim must be an integer, got {dim!r}")
    params = _manifest_params(manifest, dim)
    metrics = params and _manifest_metrics(manifest, dim)
    if not metrics:
        raise ValueError("the manifest lists no signature or no params vector")
    families = _shape(manifest.get("relations", list(RELATION_FAMILIES)), list,
                      "relations must be a list of family names")
    for fam in families:
        if not isinstance(fam, str) or fam not in MIN_DIMENSION:
            raise ValueError(f"unknown relation family {fam!r}")
    jobs = [(job, fam, default_indices(fam, dim), metric.diag, p.a)
            for fam in families if MIN_DIMENSION[fam] <= dim
            for metric in metrics for p in params]
    if not jobs:
        raise ValueError(f"no relation family of the manifest applies at dim {dim}")
    return dim, metrics, params, jobs


def _load_manifest(path):
    if path is None:
        return DEFAULT_MANIFEST
    with open(path) as fh:
        return json.load(fh)


def _write_report(args, fields, ok):
    """Write {tool, version, command, **fields} as JSON to --out, else to
    stdout; the exit code, 0 when ok, else 1."""
    report = {"tool": "pseudosphere", "version": __version__,
              "command": args.command, **fields}
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(report, indent=2, default=str) + "\n")
    return 0 if ok else 1


def _summarize(records):
    failed = sum(1 for r in records if not r["passed"])
    return {"jobs": len(records), "passed": len(records) - failed,
            "failed": failed}


def _map_jobs(tasks, workers):
    """Results of (function, *args) tasks in order, on ``workers`` processes."""
    if workers <= 1:
        return [fn(*args) for fn, *args in tasks]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=get_context("spawn")) as pool:
        return [f.result() for f in [pool.submit(fn, *args) for fn, *args in tasks]]


def _write_records(args, tasks):
    """The report of the tasks' records, in task order, and their summary."""
    records = _map_jobs(tasks, args.jobs)
    summary = _summarize(records)
    return _write_report(args, {"records": records, "summary": summary},
                         summary["failed"] == 0)


def _quantum_job(family, idx, diag, a):
    rep = verify_relation(family, idx, Metric(diag), ModelParams.from_a(a))
    return {"kind": "quantum", "family": family, "indices": list(idx),
            "signature": list(diag), "a": [_rat(x) for x in a],
            "passed": rep.passed, "reduced": rep.reduced,
            "elapsed_ms": rep.elapsed_ms}


def _linear_relation_job(dim, params, metrics):
    """The discovered linear relation, per signature, on one params vector."""
    mi = verify_metric_independence(dim, params, metrics, families=())
    rels = []
    for entry in mi["per_signature"]:
        alpha, alpha_0, alpha_00 = entry["coefficients"]
        rels.append({"signature": list(entry["metric"].diag),
                     "alpha": {f"{i}{j}": _rat(c) for (i, j), c in alpha},
                     "alpha_0": _rat(alpha_0), "alpha_00": _rat(alpha_00)})
    return {"kind": "linear_relation_metric_independence",
            "passed": mi["passed"], "relations": rels}


def cmd_verify_algebra(args):
    dim, metrics, params, jobs = _relation_jobs(_load_manifest(args.manifest),
                                                _quantum_job)
    if dim >= 3:  # the linear relation needs three coordinates
        jobs.append((_linear_relation_job, dim, params[0], metrics))
    return _write_records(args, jobs)


def _classical_job(family, idx, diag, a):
    r = verify_classical_relation(family, idx, Metric(diag), ModelParams.from_a(a))
    r.update({"kind": "classical", "signature": list(diag),
              "a": [_rat(x) for x in a], "indices": list(r["indices"])})
    return r


def _correspondence_job(diag, a):
    cc = correspondence_check(Metric(diag), ModelParams.from_a(a))
    return {"kind": "correspondence", "signature": list(diag),
            "a": [_rat(x) for x in a], "passed": cc["passed"],
            "global_sign": cc["global_sign"]}


def cmd_classical_check(args):
    dim, metrics, params, jobs = _relation_jobs(_load_manifest(args.manifest),
                                                _classical_job)
    if dim >= 3:  # below three coordinates there is no generator pair to check
        jobs += [(_correspondence_job, m.diag, p.a) for m in metrics for p in params]
    return _write_records(args, jobs)


def cmd_racah_spectrum(args):
    flip = SURFACES[args.signs][1] if args.signs in SURFACES else 1
    rows = [{"epsilon1": s.signs[0], "epsilon2": s.signs[1], "epsilon3": s.signs[2],
             "p": s.p, "E": _rat(flip * s.E), "degeneracy": s.degeneracy,
             "certified": s.certified}
            for s in find_spectrum(ModelParams.from_l(args.l), args.max_p,
                                   sign_mode=args.signs)]
    if args.out and args.out.endswith(".json"):
        return _write_report(args, {"rows": rows}, True)
    with open(args.out, "w", newline="") if args.out \
            else contextlib.nullcontext(sys.stdout) as fh:
        w = csv.DictWriter(fh, fieldnames=["epsilon1", "epsilon2", "epsilon3",
                                           "p", "E", "degeneracy", "certified"])
        w.writeheader()
        w.writerows(rows)
    return 0


def cmd_pde_check(args):
    from .specsolver import GridSpec, pde_spectrum, group_numeric, ConvergenceError
    grid = GridSpec(nodes=args.grid, levels=args.levels)
    counts = (args.counts, args.counts)
    try:
        numeric = pde_spectrum(args.surface, args.l, counts=counts, grid=grid)
    except ConvergenceError as exc:
        print(f"pde-check: {exc}", file=sys.stderr)
        return 1
    analytic = SURFACES[args.surface][2](args.l, max_levels=args.counts)
    # every numeric group must match an analytic level with its
    # degeneracy; the shells P >= counts are incomplete and lie beyond
    # the analytic list, and each shell P < counts has all P + 1 levels
    groups = group_numeric([lv for lv in numeric if lv.P < args.counts])
    records = []
    matched = set()
    for lv in analytic:
        target = float(lv.E)
        i = next((i for i, g in enumerate(groups)
                  if abs(g[0] - target) <= 1e-3 * max(1.0, abs(target))), None)
        hit = None if i is None else groups[i]
        matched.add(i)
        ok = hit is not None and hit[1] == lv.degeneracy
        records.append({"P": lv.P, "E_analytic": _rat(lv.E),
                        "E_numeric": None if hit is None else hit[0],
                        "multiplicity": None if hit is None else hit[1],
                        "degeneracy": lv.degeneracy, "passed": ok})
    records += [{"P": None, "E_analytic": None, "E_numeric": E,
                 "multiplicity": mult, "degeneracy": None, "passed": False}
                for i, (E, mult) in enumerate(groups) if i not in matched]
    summary = _summarize(records)
    return _write_report(args, {
        "surface": args.surface, "l": [_rat(x) for x in args.l], "records": records,
        "numeric_levels": [{"E": float(lv.E), "n": lv.n, "m": lv.m} for lv in numeric],
        "vacuous": not analytic, "summary": summary},
        analytic and summary["failed"] == 0)


def cmd_cross_check(args):
    rep = match_spectrum_to_signature(Metric(args.signature), ModelParams.from_l(args.l),
                                      max_p=args.max_p)
    return _write_report(args, {
        "l": [_rat(x) for x in args.l], "signature": list(args.signature),
        "surface": rep["surface"],
        "analytic_levels": [[_rat(E), d] for E, d in rep["analytic_levels"]],
        "matches": rep["matches"], "vacuous": rep["vacuous"],
        "passed": rep["passed"]}, rep["passed"])


def build_parser():
    ap = argparse.ArgumentParser(prog="pseudosphere",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, func, text in (
            ("verify-algebra", cmd_verify_algebra, "verify the quantum relations"),
            ("classical-check", cmd_classical_check, "verify the classical algebra")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--manifest")
        p.add_argument("--out")
        p.add_argument("--jobs", type=int, default=1)
        p.set_defaults(func=func)

    p = sub.add_parser("racah-spectrum", help="algebraic spectrum table")
    p.add_argument("--l", type=_parse_rats, required=True)
    p.add_argument("--signs", default="all", choices=["all", *SURFACES])
    p.add_argument("--max-p", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_racah_spectrum)

    p = sub.add_parser("pde-check", help="numeric vs analytic PDE spectrum")
    p.add_argument("--surface", required=True, choices=list(SURFACES))
    p.add_argument("--l", type=_parse_rats, required=True)
    p.add_argument("--grid", type=int, default=2048)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--counts", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pde_check)

    p = sub.add_parser("cross-check", help="match algebra to signature")
    p.add_argument("--l", type=_parse_rats, required=True)
    p.add_argument("--signature", type=_parse_signature, required=True)
    p.add_argument("--max-p", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cross_check)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value starting with "-" for an option: attach it to
    # --signature or to an abbreviation of it
    for i in reversed(range(len(argv) - 1)):
        if len(argv[i]) > 2 and "--signature".startswith(argv[i]):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    try:
        if args.command in ("racah-spectrum", "pde-check", "cross-check"):
            if len(args.l) != 3:
                print("expected exactly three l values", file=sys.stderr)
                return 2
        if args.command == "cross-check" and len(args.signature) != 3:
            print("expected a three-entry signature", file=sys.stderr)
            return 2
        if getattr(args, "max_p", 0) < 0:
            print(f"--max-p must be at least 0, got {args.max_p}", file=sys.stderr)
            return 2
        if getattr(args, "jobs", 1) < 1:
            print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
            return 2
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"pseudosphere: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

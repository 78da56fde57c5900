"""Benchmark of the pseudosphere verification engine.

    python3 bench/run.py --workload relations --seed 1 --seconds 30 --trace 0

Runs one workload (relations, casimir, classical or spectra; see
README.md) as one closed-loop client: each run of the job list happens in
a fresh child interpreter, one child at a time, so the import and cold
caches every CLI user pays are counted.  Children are started until the
next one would overrun ``--seconds`` (at least MIN_CHILDREN of them).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced children on one input set and prints the per-layer
metrics, the tracing overhead and whether the traced counts repeat
exactly.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it name
every metric with its unit, and a full record (provenance, per-child
data, negative controls) goes to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("relations", "casimir", "classical", "spectra")
MIN_CHILDREN = 3
LAST_START_S = 100.0    # never start a child later than this into the run
DEADLINE_S = 170.0      # a child still running then is killed

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_ms_p50": "ms",
              "job_ms_tail": "ms", "peak_rss_mb": "MB"}
COUNTED = ("weylops.compose", "weylops.commutator", "weylops.reduce_mod_constraint",
           "weylops.vanishes_mod_constraint", "model.verify_relation",
           "model.build_H", "model.build_Q", "model.build_C",
           "model.discover_linear_relation", "phase.poisson_bracket",
           "phase.reduce_mod_constraint_cl", "phase.correspondence_check",
           "racah3.abc_realization", "racah3.structure_function_eval",
           "specsolver.solve_sturm_liouville")
TIMED = ("weylops.compose", "weylops.commutator", "weylops.reduce_mod_constraint",
         "weylops.vanishes_mod_constraint", "model.verify_relation",
         "model.discover_linear_relation", "phase.poisson_bracket",
         "phase.reduce_mod_constraint_cl", "phase.correspondence_check",
         "racah3.casimir_operator", "racah3.structure_function_eval",
         "racah3.find_spectrum", "specsolver.solve_sturm_liouville",
         "specsolver.pde_spectrum")


class BenchError(RuntimeError):
    pass


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n jobs above it,
    never below the median."""
    return max(50, min(99, math.floor(100 * (1 - 10 / n))))


def percentile(values, q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def provenance(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pseudosphere")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "git_sha": git_sha(),
            "source_sha256": digest.hexdigest()}


def git_sha():
    """HEAD of the checkout, read from .git without running git (None when
    the tree is not a git checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def run_child(workload, seed, child, trace, span_file, started) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), workload, str(seed),
           str(child), str(trace), repr(time.monotonic()), span_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child {child} still running after the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} child {child} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} child {child} printed no result")
    return json.loads(lines[-1])


def run_children(args, plan):
    """Run children from ``plan(i) -> (child seed index, traced)`` until
    the next one would overrun the time budget."""
    started = time.monotonic()
    results = []
    while True:
        child, traced = plan(len(results))
        span_file = os.path.join(
            OUT, "spans", f"{args.workload}-seed{args.seed}-run{len(results)}.json")
        if traced:
            os.makedirs(os.path.dirname(span_file), exist_ok=True)
        t = time.monotonic()
        res = run_child(args.workload, args.seed, child, int(traced), span_file, started)
        res["duration_s"] = time.monotonic() - t
        res["traced"] = traced
        results.append(res)
        elapsed = time.monotonic() - started
        mean = statistics.fmean(r["duration_s"] for r in results)
        if len(results) >= MIN_CHILDREN and (elapsed + mean > args.seconds
                                             or elapsed > LAST_START_S):
            return results
        if elapsed > LAST_START_S:
            raise BenchError(f"fewer than {MIN_CHILDREN} children fit the deadline")


def end_to_end(results) -> tuple[dict, dict]:
    jobs_ms = [s * 1e3 for r in results for s in r["job_s"]]
    q = tail_percentile(MIN_CHILDREN * len(results[0]["job_s"]))
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "job_ms_p50": statistics.median(jobs_ms),
        "job_ms_tail": percentile(jobs_ms, q),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    info = {"job_ms_tail_percentile": q, "jobs": len(jobs_ms),
            "children": len(results)}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, info


def layer_counts(layers) -> dict:
    """The exact counts of one traced child."""
    calls, counts = layers["calls"], layers["counts"]

    def share(num, den):
        return num / den if den else 0.0

    out = {f"{name}.calls": calls.get(name, 0) for name in COUNTED}
    for key in ("weylops.compose.terms_out", "weylops.compose.coeff_bits_max",
                "weylops.reduce_mod_constraint.terms_in",
                "weylops.reduce_mod_constraint.terms_out",
                "phase.poisson_bracket.terms_out",
                "specsolver.solve_sturm_liouville.retries"):
        out[key] = counts.get(key, 0)
    builds = ("model.build_H", "model.build_Q", "model.build_C")
    out["model.build.repeat_share"] = share(
        sum(counts.get(f"{b}.repeats", 0) for b in builds),
        sum(counts.get(f"{b}.tracked", 0) for b in builds))
    out["racah3.abc_realization.repeat_share"] = share(
        counts.get("racah3.abc_realization.repeats", 0),
        counts.get("racah3.abc_realization.tracked", 0))
    out["model.verify_relation.reduced_share"] = share(
        counts.get("model.verify_relation.reduced", 0),
        calls.get("model.verify_relation", 0))
    return out


def layer_times(layers) -> dict:
    self_s = layers["self_s"]
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in TIMED}
    out["model.build.self_s"] = sum(
        v for k, v in self_s.items() if k.startswith("model.build_"))
    out["phase.build.self_s"] = sum(
        v for k, v in self_s.items() if k.startswith("phase.build_"))
    return out


def per_layer(results) -> tuple[dict, dict]:
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    counts = [layer_counts(r["layers"]) for r in traced]
    times = [layer_times(r["layers"]) for r in traced]
    values = dict(counts[0])
    for key in times[0]:
        values[key] = statistics.median(t[key] for t in times)
    values["cli.import_s"] = statistics.median(r["import_s"] for r in results)
    values["cli.scipy_loaded"] = int(results[0]["scipy_loaded"])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead_s"] = traced_wall - plain_wall
    repeat = all(c == counts[0] for c in counts[1:])
    info = {"counts_repeat_exactly": repeat, "traced_children": len(traced),
            "untraced_children": len(plain), "traced_wall_s": traced_wall,
            "untraced_wall_s": plain_wall,
            "trace_overhead_share": values["trace.overhead_s"] / plain_wall,
            "spans": [r["layers"]["spans"] for r in traced]}
    units = {}
    for key in values:
        if key.endswith("_s"):
            units[key] = "s"
        elif key.endswith("_share"):
            units[key] = "ratio"
        elif key.endswith("_bits_max"):
            units[key] = "bits"
        else:
            units[key] = "count"
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pseudosphere", "__init__.py")):
        print("bench: no pseudosphere sources under src/", file=sys.stderr)
        return 2
    # the bytecode an installed package ships with, so no child pays for
    # compiling it (children may run with PYTHONDONTWRITEBYTECODE set)
    if not all(compileall.compile_dir(d, quiet=1) for d in (SRC, BENCH)):
        print("bench: the sources do not compile", file=sys.stderr)
        return 2

    try:
        if args.trace:
            # one input set; traced and untraced children alternate
            results = run_children(args, lambda i: (0, i % 2 == 0))
            metrics, info = per_layer(results)
        else:
            results = run_children(args, lambda i: (i, False))
            metrics, info = end_to_end(results)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failures = [dict(f, child=i) for i, r in enumerate(results) for f in r["failures"]]
    info["failed_frac"] = len(failures) / attempted
    info["controls"] = [r["controls"] for r in results]
    correct = not failures and info.get("counts_repeat_exactly", True)

    os.makedirs(OUT, exist_ok=True)
    record = {"provenance": provenance(args), "info": info, "failures": failures,
              "metrics": metrics, "children": [
                  {k: v for k, v in r.items() if k != "layers"} for r in results],
              "layers": [r["layers"] for r in results if r["layers"]]}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:10s} {'failed_frac':45s} {info['failed_frac']:.6g} ratio")
    print(json.dumps({"provenance": record["provenance"], "info": info}))
    for f in failures:
        print(f"bench: failure {f}", file=sys.stderr)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

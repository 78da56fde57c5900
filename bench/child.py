"""One cold run of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Imports
``pseudosphere.cli`` as a CLI user would, builds the seeded job list,
runs one warm-up job (set-up ends there), then runs the timed jobs one
at a time, checks every outcome, runs the negative controls and prints
one JSON line with the measurements.

    python3 bench/child.py WORKLOAD SEED CHILD TRACE SPAWN_TIME SPAN_FILE

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before the
spawn; on Linux that clock is system-wide, so set-up time includes the
interpreter start.  ``SPAN_FILE`` is where a traced run writes its spans.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
import traceback


def _call(job):
    try:
        return job.run(), None
    except Exception as exc:  # a raising job is a failed job, not a crash
        traceback.print_exc()
        return None, exc


def _outcome(job, out, err):
    if err is not None:
        return f"raised {err!r}"
    try:
        return None if job.check(out) else "unexpected outcome"
    except Exception as exc:  # a malformed result is a failed job
        return f"check raised {exc!r}"


def main(argv):
    workload, seed, child, trace, spawn_time, span_file = argv
    seed, child, trace, spawn_time = int(seed), int(child), int(trace), float(spawn_time)

    t0 = time.perf_counter()
    import pseudosphere.cli  # noqa: F401  (what every CLI start pays)
    import_s = time.perf_counter() - t0
    scipy_loaded = "scipy" in sys.modules

    import workloads
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    make, _, make_controls = workloads.WORKLOADS[workload]
    jobs = make(random.Random(f"{seed}/jobs/{child}"))
    warm = workloads.warmup_job(workload, random.Random(f"{seed}/warmup/{child}"), jobs)
    failures = []
    problem = _outcome(warm, *_call(warm))
    if problem:
        failures.append({"job": "warmup", "kind": warm.kind, "problem": problem})
    setup_s = time.monotonic() - spawn_time

    if tracer:
        tracer.reset()
    outputs, times = [], []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        t = time.perf_counter()
        outputs.append(_call(job))
        times.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.snapshot() if tracer else None

    for i, (job, (out, err)) in enumerate(zip(jobs, outputs)):
        problem = _outcome(job, out, err)
        if problem:
            failures.append({"job": i, "kind": job.kind, "problem": problem})
    controls = {}
    for name, control in make_controls(random.Random(f"{seed}/controls/{child}")).items():
        try:
            controls[name] = control()
        except Exception as exc:
            controls[name] = f"raised {exc!r}"
        if controls[name] is not False:
            failures.append({"job": "control", "kind": name,
                             "problem": f"came out {controls[name]!r}"})
    if tracer:
        tracer.write_spans(span_file)

    print(json.dumps({
        "setup_s": setup_s, "import_s": import_s, "scipy_loaded": scipy_loaded,
        "wall_s": wall_s, "job_s": times, "kinds": [job.kind for job in jobs],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs) + 1 + len(controls), "failures": failures,
        "controls": controls, "layers": layers,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])

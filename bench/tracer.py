"""Span tracing around the public functions of each pseudosphere layer.

The layers import kernel functions by name (``from .weylops import
compose``), so patching ``weylops`` alone would miss their direct calls.
``Tracer.install`` therefore wraps every public function defined in a
layer module and rebinds each module attribute, in every loaded module,
that still refers to an original; it then checks that none is left.

A span is (name, start, end, parent span, job id).  Spans stay in memory
and are written once, by ``write_spans``, after the timed jobs.  Self
time is a span's duration minus the time its child spans cover,
including the tracer's own bookkeeping for those children, so the
tracer's cost does not land in the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("weylops", "model", "phase", "racah3", "specsolver", "cli")

# calls whose repeated (metric, params, indices) give the repeat_share metrics
REPEAT_TRACKED = ("model.build_H", "model.build_Q", "model.build_C",
                  "racah3.abc_realization")


def _coeff_bits(op) -> int:
    """Largest numerator or denominator bit length among op's scalars."""
    bits = 0
    for hp in op.terms.values():
        for c in hp.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.job = -1
        self.reset()

    def reset(self):
        """Drop every span and counter recorded so far."""
        self.spans: list = []
        self.stack: list = []
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts: dict[str, int] = {}
        self.seen: set = set()

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every public layer function and rebind every reference."""
        wrappers = {}  # id(original) -> (original, wrapper); keeps the ids valid
        for layer in LAYERS:
            mod = importlib.import_module(f"pseudosphere.{layer}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in list(sys.modules.values()):
            for attr, obj in list(getattr(mod, "__dict__", {}).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)][1])
        leftover = [
            f"{mod.__name__}.{attr}"
            for mod in list(sys.modules.values())
            for attr, obj in list(getattr(mod, "__dict__", {}).items())
            if isinstance(obj, types.FunctionType) and id(obj) in wrappers
        ]
        if leftover:
            raise RuntimeError(f"unwrapped originals remain: {leftover}")
        self.reset()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        post = self._post_hook(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf()
            stack = self.stack
            parent = stack[-1] if stack else None
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf()
                self._close(nid, frame, parent, start, end)
                if type(exc).__name__ == "ConvergenceError":
                    self._add(f"{name}.retries", 1)
                if parent is not None:
                    parent[1] += perf() - t_in
                raise
            end = perf()
            self._close(nid, frame, parent, start, end)
            if post is not None:
                post(args, out)
            if parent is not None:
                parent[1] += perf() - t_in
            return out

        return traced

    def _close(self, nid, frame, parent, start, end):
        self.stack.pop()
        self.spans[frame[0]] = (nid, start, end,
                                -1 if parent is None else parent[0], self.job)
        self.calls[nid] += 1
        self.self_s[nid] += (end - start) - frame[1]

    def _add(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + n

    def _max(self, key: str, n: int):
        self.counts[key] = max(self.counts.get(key, 0), n)

    def _repeat(self, name: str, key):
        self._add(f"{name}.tracked", 1)
        if key in self.seen:
            self._add(f"{name}.repeats", 1)
        else:
            self.seen.add(key)

    def _post_hook(self, name: str):
        """Counters recorded at the call boundary for selected functions."""
        if name == "weylops.compose":
            def post(args, out):
                self._add("weylops.compose.terms_out", len(out.terms))
                self._max("weylops.compose.coeff_bits_max", _coeff_bits(out))
            return post
        if name == "weylops.reduce_mod_constraint":
            def post(args, out):
                self._add("weylops.reduce_mod_constraint.terms_in", len(args[0].terms))
                self._add("weylops.reduce_mod_constraint.terms_out", len(out.terms))
            return post
        if name == "phase.poisson_bracket":
            def post(args, out):
                self._add("phase.poisson_bracket.terms_out", len(out.terms))
            return post
        if name == "model.verify_relation":
            def post(args, out):
                self._add("model.verify_relation.reduced", int(out.reduced))
            return post
        if name in REPEAT_TRACKED:
            def post(args, out):
                metric, params = args[0], args[1]
                self._repeat(name, (name, metric.diag, params.a) + tuple(args[2:]))
            return post
        return None

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-function calls and self time, plus the boundary counters."""
        return {
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "self_s": {n: s for n, c, s in zip(self.names, self.calls, self.self_s) if c},
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end",
                                                      "parent", "job"],
                       "spans": self.spans}, fh)

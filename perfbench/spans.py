"""In-memory spans around calls into the package's public functions.

The program itself is not instrumented: while installed, the tracer
replaces each traced function, wherever a diffusionwave module binds it,
with a wrapper that records a span, and restores the originals on exit.
Hot methods are counted rather than spanned.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span in Tracer.spans
    op: int              # operation id; spans of one operation share it


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []         # one Counter per operation
        self._stack = []
        self._op = -1

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), float("nan"), parent, self._op)
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self):
        """Root span of one workload operation."""
        self._op += 1
        self.counts.append(Counter())
        with self.span("op"):
            yield

    def count(self, name, n=1):
        self.counts[self._op][name] += n

    # -- installation --------------------------------------------------------

    def _spanned(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name(args) if callable(name) else name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, args, out)
            return out
        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the traced functions in every loaded diffusionwave module."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "diffusionwave" or k.startswith("diffusionwave.")]
        patches = []
        for modname, attr, name, after in SPANNED:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._spanned(original, name, after)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
        for modname, cls, attr, name in COUNTED:
            klass = getattr(sys.modules[modname], cls)
            original = klass.__dict__[attr]
            patches.append((klass, attr, original))
            setattr(klass, attr, self._counted(original, name))
        try:
            yield self
        finally:
            for obj, key, original in reversed(patches):
                setattr(obj, key, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _after_run(tracer, args, result):
    tracer.count("dynamics.steps", len(result.meta["dt"]))
    tracer.count("dynamics.cells", len(args[0].x))


def _after_write(tracer, args, out):
    tracer.count("lab.write_csv_bytes", os.path.getsize(args[0]))


def _cli_name(args):
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


# (module, attribute, span name, hook run after the call)
SPANNED = [
    ("diffusionwave.lab", "run_experiment", "lab.run_experiment", None),
    ("diffusionwave.cli", "main", _cli_name, None),
    ("diffusionwave.dynamics", "run", "dynamics.run", _after_run),
    ("diffusionwave.profile", "solve_profile", "profile.solve_profile", None),
    ("diffusionwave.scaling", "to_scaled", "scaling.to_scaled", None),
    ("diffusionwave.entropy", "total_relative_entropy", "entropy.total_relative_entropy", None),
    ("diffusionwave.entropy", "error_terms", "entropy.error_terms", None),
    ("diffusionwave.lab", "write_csv", "lab.write_csv", _after_write),
    ("diffusionwave.lab", "read_csv", "lab.read_csv", None),
]
# (module, class, method, counter name): too hot for a span per call
COUNTED = [
    ("diffusionwave.thermo", "PressureLaw", "pressure", "thermo.pressure_calls"),
    ("diffusionwave.entropy", "ReferencePair", "eval", "entropy.ref_eval_calls"),
]

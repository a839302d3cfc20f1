"""Span tracing for the benchmark's traced pass, from outside the program.

``Tracer.install`` replaces each traced function at every module attribute
(and class attribute) of the package that binds it with a wrapper that
records a span: name, start, end, parent.  ``uninstall`` puts the originals
back.  The program's own files are never edited.

A wrapper's own bookkeeping (hashing an operand, appending the span) is
timed and charged to the enclosing span as overhead, so that self time,
the span's duration less its children and that overhead, stays close to the
untraced cost of the layer.  A root span's bookkeeping has no enclosing span
and is summed on the tracer; ``bookkeeping_s`` gives the whole cost.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) pairs, grouped by layer; the span name is module.attribute.
TRACED = {
    "cli": ("main",),
    "serialize": ("parse_scenario", "parse_scenario_dict", "scenario_to_dict", "scenario_digest", "table_to_wire"),
    "inference": (
        "solve", "predict_open", "postdict_open", "postdict_channel", "open_reversal_check",
        "no_signalling_check", "is_inference_symmetric",
    ),
    "channels": ("classify", "check_cptp", "apply"),
    "purify": ("stinespring", "verify_purification"),
    "sampler": ("trial_uniforms", "run_ensemble", "empirical_conditionals", "compare"),
    "linalg": ("is_unitary", "partial_trace", "tensor", "complete_to_unitary", "haar_random_unitary"),
}

# Private sampler stages reported together as one span name.
ALIASES = {("sampler", "_prepare_alternatives"): "sampler.cdf_build",
           ("sampler", "_transformation_stages"): "sampler.cdf_build"}

# Table construction is traced through the class, which every module shares.
CLASS_METHODS = {("tables", "ProbabilityTable", "__init__"): "tables.ProbabilityTable"}

# Validating calls whose repeats inside one invocation are counted.
VALIDATING = {"linalg.is_unitary", "channels.classify", "purify.stinespring"}

PACKAGE = "retrodict"
ROOT = "cli.main"


def operand_key(arg) -> bytes:
    """A digest of a matrix's bytes, or of every Kraus operator of a map."""
    h = hashlib.blake2b(digest_size=16)
    arrays = [k for k in arg.kraus] if hasattr(arg, "kraus") else [np.asarray(arg)]
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    overhead: float = 0.0  # children's bookkeeping inside this span
    child_time: float = 0.0
    repeat: bool = False


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    root_overhead: float = 0.0
    _stack: list[int] = field(default_factory=list)
    _seen: set = field(default_factory=set)
    _patches: list = field(default_factory=list)

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        targets = {(mod, attr): f"{mod}.{attr}" for mod, attrs in TRACED.items() for attr in attrs}
        targets.update(ALIASES)
        for (mod, attr), span_name in targets.items():
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapper)
        for (mod, cls_name, method), span_name in CLASS_METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{mod}"], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(original, span_name))

    def uninstall(self):
        for owner, binding, original in reversed(self._patches):
            setattr(owner, binding, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name):
        clock = time.perf_counter
        validating = name in VALIDATING

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            if name == ROOT and not self._stack:
                self._seen.clear()
            repeat = False
            if validating and args:
                key = (name, operand_key(args[0]))
                repeat = key in self._seen
                self._seen.add(key)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, parent=parent, repeat=repeat)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
                if parent >= 0:
                    outer = self.spans[parent]
                    outer.child_time += span.end - span.start
                    outer.overhead += (span.start - entered) + (clock() - span.end)
                else:
                    self.root_overhead += (span.start - entered) + (clock() - span.end)

        return wrapper

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and the share of repeated operands."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            entry = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "repeats": 0})
            entry["calls"] += 1
            entry["self_s"] += (s.end - s.start) - s.child_time - s.overhead
            entry["repeats"] += s.repeat
        for entry in out.values():
            entry["repeat_ratio"] = entry["repeats"] / entry["calls"]
        return out

    def bookkeeping_s(self) -> float:
        """The tracer's own time: every wrapper's bookkeeping, root spans' too."""
        return sum(s.overhead for s in self.spans) + self.root_overhead

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")

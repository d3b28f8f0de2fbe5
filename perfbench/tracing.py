"""Spans around calls into optionlab's public functions, recorded from outside.

``Tracer.install`` replaces every public (not underscored) function of the
traced modules except four per-row scalar helpers, and ``Model.forward``,
``Model.predict`` and ``Tape.backward``, with a wrapper that appends one span
per call: name, parent span, start and end.  The wrapper is
installed under every name the function is reached through: the defining
module, every optionlab module that imported it by name, and module-level
dicts such as ``layers.ACTIVATIONS``.  ``uninstall`` puts the originals back,
so untraced and traced runs of a unit can share one process.

Spans stay in memory until ``write_spans``; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import time

MODULES = ("bs", "vol", "market_data", "autodiff", "layers", "training", "evaluation", "cli")
METHODS = (("layers", "Model", "forward"), ("layers", "Model", "predict"),
           ("autodiff", "Tape", "backward"))
# the public autodiff functions that build tensors; the rest are plumbing
NOT_PRIMITIVES = {"backward", "set_finite_checks", "grad_check"}
# called once per quote or row with microseconds of work each: a span per call
# would cost more than the call, so their time stays in their caller's self time
SCALAR_HELPERS = {"market_data.mid_price", "market_data.normalize_strike",
                  "market_data.classify_moneyness", "evaluation.pricing_class"}


def _modules():
    return {name: importlib.import_module(f"optionlab.{name}") for name in MODULES}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self._stack = []
        self._undo = []
        self.primitives = set()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        mods = _modules()
        wrappers = {}  # id(original) -> wrapper
        for mod_name, mod in mods.items():
            for attr, fn in vars(mod).items():
                name = f"{mod_name}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SCALAR_HELPERS):
                    wrappers[id(fn)] = self._wrap(name, fn)
                    if mod_name == "autodiff" and attr not in NOT_PRIMITIVES:
                        self.primitives.add(name)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            fn = cls.__dict__[meth]
            self._set(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}", fn))
        # every name a wrapped function is reached through
        for mod in [importlib.import_module("optionlab"), *mods.values()]:
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._set(value, k, wrappers[id(v)])

    @contextlib.contextmanager
    def recording(self):
        """Trace the block; yields the index of its first span."""
        start = len(self.spans)
        self.install()
        try:
            yield start
        finally:
            self.uninstall()

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    # -- reductions ---------------------------------------------------------

    def self_times(self, start=0):
        """{name: [self seconds, calls]} over spans[start:]."""
        spans = self.spans
        child = [0.0] * (len(spans) - start)
        for s in spans[start:]:
            if s[1] >= start:
                child[s[1] - start] += s[3] - s[2]
        out = {}
        for i, s in enumerate(spans[start:]):
            acc = out.setdefault(s[0], [0.0, 0])
            acc[0] += (s[3] - s[2]) - child[i]
            acc[1] += 1
        return out

    def primitive_calls_per_step(self, start, end):
        """Public autodiff primitive calls inside training steps, per step.

        A training step is everything under ``training.train`` that is not an
        epoch-metric ``Model.predict``; steps are counted by ``adam_step``.
        """
        spans, prims = self.spans, self.primitives
        inside = {}  # span index -> under train and outside predict
        calls = steps = 0
        for i in range(start, end):
            name, parent = spans[i][0], spans[i][1]
            if name == "training.train":
                inside[i] = True
            elif name == "layers.Model.predict":
                inside[i] = False
            else:
                inside[i] = inside.get(parent, False)
            if inside[i]:
                if name in prims:
                    calls += 1
                elif name == "training.adam_step":
                    steps += 1
        return calls / steps if steps else 0.0

    def write_spans(self, path):
        """One CSV line per span: index, parent index (-1: none), name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,name,start,end\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0!r},{t1!r}\n")

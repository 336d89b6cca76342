"""Spans around calls into the library's layers, recorded from outside.

``Tracer.install`` replaces every public function of the seven layer
modules, and the method ``SftGraph.admissible_words``, with a wrapper that
records a span: name, start, end, parent span, the operation it belongs to
and the exception type if one left the call.  Every module of the package
that holds the same function object under some name (``cli`` importing
``build_pi_x``, the package re-exporting everything) gets the wrapper too,
so calls between modules are seen.  ``restore`` puts every original back.

Spans stay in memory; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("config", "dynamics", "extension", "algebra", "representations", "envelope", "cli")

# Called once per table entry inside other library calls (over a million
# times in one full-2 ``verify``); a span each would cost more than the work.
UNTRACED = {"dynamics.as_word"}


def _rows_cols(M) -> int:
    shape = np.shape(M)
    return int(np.prod(shape)) if shape else 0


def _table_entries(F) -> int:
    return sum(len(f.values) for f in F.coeffs.values())


# name -> function(args, result) -> {counter suffix: amount}
COUNTERS = {
    "representations.operator_norm": lambda a, r: {"cells": _rows_cols(a[0])},
    "representations.build_pi_x": lambda a, r: {"cells": r.size},
    "representations.build_Pi_x": lambda a, r: {"cells": r.size},
    "representations.constant_B": lambda a, r: {"cycles": r.cycles},
    "representations.constant_A": lambda a, r: {"words_scored": r.scored if r is not None else 0},
    "representations.semicrossed_norm": lambda a, r: {"levels": len(r.history), "converged": int(r.converged)},
    "representations.crossed_norm": lambda a, r: {"levels": len(r.history), "converged": int(r.converged)},
    "extension.make_two_sided": lambda a, r: {"table_entries": len(r.values)},
    "dynamics.admissible_words": lambda a, r: {"words": len(r)},
    "dynamics.enumerate_cycles": lambda a, r: {"cycles": len(r)},
    "algebra.multiply": lambda a, r: {"table_entries": _table_entries(r)},
}


class Tracer:
    def __init__(self, modules: dict, owners: list):
        self.modules = modules  # layer -> module
        self.owners = owners  # every module that may hold a rebound name
        self.spans = []  # [name, op, start, end, parent, error type or None]
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self._saved = []  # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, self.op, start, clock(), parent, type(exc).__name__)
                raise
            finally:
                stack.pop()
            spans[idx] = (name, self.op, start, clock(), parent, None)
            counts[name + ".calls"] += 1
            if counter is not None:
                for key, amount in counter(args, result).items():
                    counts[f"{name}.{key}"] += amount
            return result

        return wrapper

    def targets(self) -> dict:
        """Original function object -> span name, for every public function
        defined in a layer module."""
        out = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name not in UNTRACED:
                    out[obj] = name
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(name, fn) for fn, name in self.targets().items()}
        for owner in self.owners:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[obj])
        graph = self.modules["dynamics"].SftGraph
        method = graph.__dict__["admissible_words"]
        self._saved.append((graph, "admissible_words", method))
        graph.admissible_words = self._wrap("dynamics.admissible_words", method)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ------------------------------------------------------------

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], *s[1:]] for s in self.spans]
        path.write_text(
            json.dumps({"names": names, "fields": ["name", "op", "start", "end", "parent", "error"], "spans": rows})
        )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover.
    Calls are synchronous and single-threaded, so children never overlap."""
    child = [0.0] * len(spans)
    for name, op, start, end, parent, err in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, op, start, end, parent, err) in enumerate(spans)]


def summarize(spans: list, counts: Counter) -> dict:
    """Per-layer self time, per-span-name self time, counters, and
    exceptions that left each layer, by type."""
    own = self_times(spans)
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    errors = {layer: Counter() for layer in LAYERS}
    for i, (name, op, start, end, parent, err) in enumerate(spans):
        layer = layer_of(name)
        layer_self[layer] += own[i]
        name_self[name] += own[i]
        if err is not None and (parent < 0 or layer_of(spans[parent][0]) != layer):
            errors[layer][err] += 1
    return {
        "layer_self_s": {layer: layer_self[layer] for layer in LAYERS},
        "name_self_s": dict(name_self),
        "counts": dict(counts),
        "errors": {layer: dict(c) for layer, c in errors.items()},
        "spans": len(spans),
    }

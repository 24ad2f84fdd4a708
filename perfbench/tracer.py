"""Spans and counters measured from outside the library.

Two kinds of instrumentation, never installed together:

* ``SpanRecorder`` wraps every public function and method of the traced
  homleib modules.  A wrapped call opens a span (name, start, end, parent,
  job) when it crosses into another layer, or when its name is one the
  benchmark reports on its own; a call that stays inside its caller's layer
  runs unwrapped, so its time is self time of the enclosing span, which
  belongs to the same layer anyway.  Layers are the modules.
* ``CountRecorder`` counts calls of named entry points, scalar operations
  of ``Field`` and ``Fraction.__eq__``.  Counts repeat exactly for one job
  list; they are operation counts computed on the CPU, not timings.

Each wrapper is bound in every ``homleib.*`` namespace that holds the
original object, because functions such as ``build_tensor`` are imported by
name into other modules.  ``restore`` undoes every binding.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

TRACED_MODULES = ("linalg", "algebras", "actions", "tensorprod", "homology",
                  "extensions", "homassoc", "documents", "cli", "report")
# Scalar arithmetic (fields) is never wrapped in the traced pass; its time is
# self time of the caller.  "bench" is the job wrapper around cli.main.
LAYERS = TRACED_MODULES + ("bench",)

# Spans kept even inside their own layer: the benchmark reports them by name.
NAMED_SPANS = ("algebras.HomLeibnizAlgebra.validate", "tensorprod.relation_vectors")

ROOT = "bench.job"


def _homleib_namespaces():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "homleib" or name.startswith("homleib."))]


def entry_points():
    """(layer, qualified name, owner, attribute, raw object) for every public
    function and method defined in the traced homleib modules."""
    for short in TRACED_MODULES:
        mod = sys.modules[f"homleib.{short}"]
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield short, f"{short}.{attr}", mod, attr, obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mattr, raw in sorted(vars(obj).items()):
                    if mattr.startswith("_"):
                        continue
                    if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                        yield short, f"{short}.{attr}.{mattr}", obj, mattr, raw


class Patcher:
    """Replaces functions and methods and remembers how to put them back."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr, raw, factory):
        """Replace ``owner.attr`` by ``factory(function)``; module-level
        functions are rebound in every homleib namespace that holds them."""
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(factory(raw.__func__))
        else:
            new = factory(raw)
        if inspect.isclass(owner):
            self.replace(owner, attr, new)
            return
        for ns in _homleib_namespaces():
            for name, value in list(vars(ns).items()):
                if value is raw:
                    self.replace(ns, name, new)

    def replace(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class SpanRecorder:
    """In-memory spans: [name, start_ns, end_ns, parent index, job index]."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self.layer_of = {ROOT: "bench"}
        self._stack = [(-1, None)]  # (span index, layer)
        self._patcher = Patcher()

    def install(self):
        for layer, name, owner, attr, raw in entry_points():
            self.layer_of[name] = layer
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            make = self._generator_wrapper if inspect.isgeneratorfunction(fn) else self._wrapper
            self._patcher.wrap(owner, attr, raw,
                               lambda f, n=name, l=layer: make(f, n, l, n in NAMED_SPANS))

    def restore(self):
        self._patcher.restore()

    def _wrapper(self, fn, name, layer, always):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not always and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0, stack[-1][0], self.job]
            stack.append((len(spans), layer))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, fn, name, layer, always):
        """One span per resumption, so the time spent producing the items is
        charged to the generator and the consumer keeps its own."""
        step = self._wrapper(lambda it: next(it, _DONE), name, layer, always)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while (item := step(it)) is not _DONE:
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def run_job(self, index, call):
        """Run ``call`` under a root span for job ``index``."""
        self.job = index
        clock = time.perf_counter_ns
        rec = [ROOT, clock(), 0, -1, index]
        self._stack.append((len(self.spans), "bench"))
        self.spans.append(rec)
        try:
            return call()
        finally:
            self._stack.pop()
            rec[2] = clock()
            self.job = -1

    def self_times(self):
        """Self nanoseconds by layer and by span name, plus the summed
        duration of the root spans; the layer totals add up to the latter."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_layer, by_name, inclusive = Counter(), Counter(), Counter()
        roots = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child[i]
            by_layer[self.layer_of[name]] += own
            by_name[name] += own
            inclusive[name] += end - start
            if parent < 0:
                roots += end - start
        return by_layer, by_name, inclusive, roots

    def dump(self):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "layers": [self.layer_of[n] for n in names],
                "fields": ["name", "start_ns", "end_ns", "parent", "job"],
                "spans": [[index[s[0]]] + s[1:] for s in self.spans]}


_DONE = object()


# -- counters -----------------------------------------------------------------

FIELD_OPS = ("add", "sub", "mul", "neg", "div", "inv")


def _cells(counts, args, result):
    counts["linalg.rref.cells"] += args[0].rows * args[0].cols


def _kept(counts, args, result):
    counts["linalg.acc.kept"] += bool(result)


def _built(counts, args, result):
    counts["tensorprod.relations.rank"] += result.presentation.relations.dim
    counts["tensorprod.ambient_dim.max"] = max(counts["tensorprod.ambient_dim.max"],
                                               result.ambient_dim)


def _column(counts, args, result):
    L, M, n = args[:3]
    counts["homology.chain_dim.max"] = max(counts["homology.chain_dim.max"],
                                           M.space_dim * L.dim ** n)


# entry point -> (counter bumped once per call, extra hook or None)
COUNTED = {
    "linalg.rref": ("linalg.rref.calls", _cells),
    "linalg.solve": ("linalg.solve.calls", None),
    "linalg.LinearMap.preimage": ("linalg.solve.calls", None),
    "linalg.LinearMap.section": ("linalg.solve.calls", None),
    "linalg.Subspace.contains": ("linalg.contains.calls", None),
    "linalg.RrefAccumulator.contains": ("linalg.contains.calls", None),
    "linalg.Matrix.apply": ("linalg.apply.calls", None),
    "linalg.LinearMap.apply": ("linalg.apply.calls", None),
    "linalg.RrefAccumulator.add": ("linalg.acc.attempts", _kept),
    "algebras.HomLeibnizAlgebra.bracket": ("algebras.bracket.calls", None),
    "actions.HomAction.act_left": ("actions.act.calls", None),
    "actions.HomAction.act_right": ("actions.act.calls", None),
    "tensorprod.build_tensor": ("tensorprod.build.calls", _built),
    "homology.boundary_column": ("homology.boundary_columns", _column),
    "homology.boundary_matrix": ("homology.boundary_matrix.calls", None),
    "extensions.six_term_check": ("extensions.six_term.calls", None),
    "homassoc.hochschild_module": ("homassoc.hochschild_module.calls", None),
}


class CountRecorder:
    """Exact operation counts for one pass; no clock is read."""

    def __init__(self):
        self.counts = Counter()
        self._patcher = Patcher()

    def install(self):
        patcher = self._patcher
        for layer, name, owner, attr, raw in entry_points():
            if name == "tensorprod.relation_vectors":
                patcher.wrap(owner, attr, raw, self._relations)
            elif name in COUNTED:
                key, hook = COUNTED[name]
                patcher.wrap(owner, attr, raw, lambda f, k=key, h=hook: self._counting(f, k, h))
        field_cls = sys.modules["homleib.fields"].Field
        for op in FIELD_OPS:
            keys = ("fields.ops", "fields.inv") if op in ("div", "inv") else ("fields.ops",)
            patcher.wrap(field_cls, op, vars(field_cls)[op],
                         lambda f, ks=keys: self._counting(f, ks, None))
        patcher.replace(Fraction, "__eq__", self._counting(Fraction.__eq__, ("fields.frac_eq",), None))

    def restore(self):
        self._patcher.restore()

    def _counting(self, fn, keys, hook):
        counts = self.counts
        keys = (keys,) if isinstance(keys, str) else keys

        def wrapper(*args, **kwargs):
            for k in keys:
                counts[k] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _relations(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for v in fn(*args, **kwargs):
                counts["tensorprod.relations.generated"] += 1
                counts["tensorprod.relations.zero"] += not any(v)
                yield v

        wrapper.__wrapped__ = fn
        return wrapper


def layer_table(by_layer, roots_ns):
    """Rows (layer, seconds, share of the root spans) in LAYERS order."""
    rows = []
    for layer in LAYERS:
        ns = by_layer.get(layer, 0)
        rows.append((layer, ns / 1e9, ns / roots_ns if roots_ns else 0.0))
    return rows

"""Spans around the public functions of each mtdist layer, recorded from outside.

Wrappers are installed by replacing module attributes: every attribute of a
loaded ``mtdist`` module that is one of the wrapped functions is swapped,
including private aliases such as ``mapping._assignment``. Calls from one
module into another therefore pass through the wrappers, exactly like the
benchmark's own calls. A refactor that stops calling a wrapped function
changes the span counts, which :func:`check_counts` turns into a failure.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` numbers the top-level call
the span belongs to, and ``info`` holds per-call counts taken at the same
boundary. Functions in ``AGGREGATED`` run hundreds of thousands of times
per round; they get no span of their own but add their calls and seconds
to the enclosing span, so self times still exclude them.
"""

from __future__ import annotations

import importlib
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

LAYERS = {
    "fields": ("read_scalar_field", "compute_merge_tree", "simplify"),
    "trees": ("read_merge_tree",),
    "branches": ("elder_rule_decomposition",),
    "mapping": ("branch_mapping_distance", "validate_branch_mapping", "induced_node_mapping"),
    "matching": ("min_cost_matching",),
    "baselines": ("elder_labeled_inputs", "constrained_edit_distance", "one_degree_distance"),
    "matrix": ("compute_matrix", "pairwise_distance", "single_linkage_order", "format_csv"),
    "tracking": ("build_tracks", "step_leaf_pairs"),
}
NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
AGGREGATED = frozenset({"matching.min_cost_matching"})
MAPPING = "mapping.branch_mapping_distance"


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _info(name, args, kwargs, result):
    """Counts recorded at the boundary of one call, or None."""
    if name == MAPPING:
        stats = result[1].stats
        free = _arg(args, kwargs, 4, "fixed") is None
        return {"keys": stats.keys, "bound": stats.bound, "free": free}
    if name == "matrix.compute_matrix":
        opts = _arg(args, kwargs, 2, "opts")
        return {"distance": opts.distance, "jobs": _arg(args, kwargs, 3, "jobs")}
    if name == "fields.compute_merge_tree":
        return {"vertices": args[0].rows * args[0].cols}
    if name == "fields.simplify":
        return {"nodes_in": len(args[0])}
    if name == "branches.elder_rule_decomposition":
        return {"tree": id(args[0])}
    return None


def original(name):
    layer, fn = name.split(".")
    return getattr(importlib.import_module(f"mtdist.{layer}"), fn)


@contextmanager
def patched(replacements):
    """Swap every ``mtdist`` module attribute that is a key of ``replacements``."""
    by_id = {id(fn): (fn, new) for fn, new in replacements.items()}
    saved = []
    for modname, mod in list(sys.modules.items()):
        if modname != "mtdist" and not modname.startswith("mtdist."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = by_id.get(id(val))
            if hit is not None and hit[0] is val:
                saved.append((mod, attr, val))
                setattr(mod, attr, hit[1])
    try:
        yield
    finally:
        for mod, attr, val in saved:
            setattr(mod, attr, val)


class Tracer:
    """In-memory span recorder; see the module docstring for the span layout."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.agg = {}  # span index (-1: no open span) -> {name: [calls, seconds]}
        self.op = 0

    def _wrap(self, name, fn):
        spans, stack, agg = self.spans, self.stack, self.agg

        if name in AGGREGATED:
            def aggregated(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    slot = agg.setdefault(stack[-1] if stack else -1, {}).setdefault(name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += dt
            return aggregated

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent == -1:
                self.op += 1
            span = [name, 0.0, 0.0, parent, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = _info(name, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        with patched({original(n): self._wrap(n, original(n)) for n in NAMES}):
            yield

    def mark(self):
        """Position to pass to :meth:`summary` later."""
        return len(self.spans)

    def summary(self, start, end):
        """Spans ``start:end`` summed per name, and the self time of each span.

        Returns ``({name: [calls, inclusive_s, self_s]}, [self_s per span])``;
        aggregated calls count in both the caller's inner time and their own row.
        """
        spans = self.spans
        inner = [0.0] * (end - start)
        for idx in range(start, end):
            _, t0, t1, parent, _, _ = spans[idx]
            if parent >= start:
                inner[parent - start] += t1 - t0
        rows, own = {}, []
        for idx in range(start, end):
            name, t0, t1, _, _, _ = spans[idx]
            for sub, (calls, secs) in self.agg.get(idx, {}).items():
                inner[idx - start] += secs
                row = rows.setdefault(sub, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += secs
                row[2] += secs
            own.append(t1 - t0 - inner[idx - start])
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += own[-1]
        return rows, own

    def dump(self):
        return {
            "layout": ["name", "start", "end", "parent", "op", "info"],
            "spans": self.spans,
            "aggregated": {str(k): v for k, v in self.agg.items()},
        }


def check_counts(got, expected):
    """Mismatches between recorded and expected span counts per name.

    ``got`` is the first result of :meth:`Tracer.summary`. ``expected`` maps
    a name to an exact count, or to None for "at least one"; every wrapped
    name missing from it must not occur at all.
    """
    bad = []
    for name in NAMES:
        want = expected.get(name, 0)
        have = got.get(name, [0])[0]
        if want is None:
            if have < 1:
                bad.append(f"{name}: expected calls, recorded none")
        elif have != want:
            bad.append(f"{name}: expected {want} spans, recorded {have}")
    return bad


@contextmanager
def timed_calls(name, sink):
    """Append the wall time of every call of ``name`` to ``sink``."""
    fn = original(name)

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(perf_counter() - t0)

    with patched({fn: timed}):
        yield


def alloc_peak(fn, *args):
    """The tracemalloc peak (bytes) of the single call ``fn(*args)``.

    tracemalloc runs only inside that call, so it counts exactly the memory
    the call allocates.
    """
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

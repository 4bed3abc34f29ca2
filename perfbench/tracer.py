"""Per-layer spans recorded from outside the library.

`Tracer.installed()` replaces, for the duration of a `with` block, the layer
functions that `strongedge.reduction` and `strongedge.coloring` look up by
name at call time, the `Graph` copy methods, and the solver's step methods,
with wrappers that time each call.  Nothing in the library changes; leaving
the block puts the originals back.

Spans are folded into per-layer totals as they close, so memory does not
grow with the number of calls.  A layer's self time is its span's duration
minus the durations of the wrapped calls nested directly inside it.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from strongedge import coloring, graph, reduction


def _count_misses(tracer, result):
    if result is None:
        tracer.counts["graph.find_configuration.miss"] += 1


def _count_nodes(tracer, result):
    tracer.counts["coloring.exact_strong_index.nodes"] += result.nodes


#: (owner, attribute, layer name, result hook).  The library looks each of
#: these attributes up when it calls it, so replacing it reaches every caller.
TARGETS = [
    (reduction, "solve21", "reduction.dispatch", None),
    (reduction._Solver, "solve", "reduction.dispatch", None),
    (reduction._Solver, "_collaborative", "reduction.collaborative", None),
    (reduction._Solver, "_complete_targets", "reduction.complete_targets", None),
    (reduction, "build_precolor_and_sequence", "reduction.build_precolor_and_sequence", None),
    (reduction, "extend_sequence", "reduction.extend_sequence", None),
    (reduction, "build_partition", "reduction.build_partition", None),
    (reduction, "find_edge_cut_at_most", "graph.find_edge_cut_at_most", None),
    (reduction, "find_configuration", "graph.find_configuration", _count_misses),
    (reduction, "girth", "graph.girth", None),
    (graph.Graph, "copy", "graph.copy", None),
    (graph.Graph, "induced_subgraph", "graph.copy", None),
    (reduction, "edge_neighborhood", "coloring.edge_neighborhood", None),
    (coloring, "edge_neighborhood", "coloring.edge_neighborhood", None),
    (reduction, "available_colors", "coloring.available_colors", None),
    (coloring, "available_colors", "coloring.available_colors", None),
    (reduction, "verify_strong_coloring", "coloring.verify_strong_coloring", None),
    (coloring, "verify_strong_coloring", "coloring.verify_strong_coloring", None),
    (reduction, "exact_strong_index", "coloring.exact_strong_index", _count_nodes),
    (coloring, "exact_strong_index", "coloring.exact_strong_index", _count_nodes),
]

LAYERS = sorted({name for _, _, name, _ in TARGETS})
COUNTS = ["graph.find_configuration.miss", "coloring.exact_strong_index.nodes"]


class Tracer:
    """Calls and self time per layer, plus counts taken from call results."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []

    def _wrap(self, name, fn, hook):
        clock = time.perf_counter
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += took - nested[0]
                if stack:
                    stack[-1][0] += took
            if hook is not None:
                hook(self, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        originals = []
        try:
            for owner, attr, name, hook in TARGETS:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

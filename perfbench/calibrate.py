"""The machine's speed, measured next to every timed span.

The speed of one thread on a shared host drifts by up to 2x for seconds to
minutes at a time, because of load outside the process.  A time divided by
the speed measured next to it does not drift with it.  A calibration rep is
a fixed piece of work written here, in the benchmark, so that no change to
the library can speed it up or slow it down.  It has two halves, because
slowdowns do not hit all code alike:

- unit-capacity max flows by BFS augmenting paths on a fixed 4-regular graph
  about the size of the `pocket` and `large` inputs, through a small graph
  class: the kind of work that dominates those solves;
- a connectivity BFS and a degree and multiplicity count over the plain edge
  list of a smaller graph, like the many small graphs of `sweep` and `exact`.

In a trial of three runs per workload, either half alone left 5-11 %
run-to-run spread on some workload; the two together stayed under 4 % on
all four.
"""
from __future__ import annotations

import random
import time
from collections import deque

#: Vertices of the flow half's graph and of the plain half's, and the seed.
CAL_N = 600
PLAIN_N = 300
PLAIN_ROUNDS = 12
CAL_SEED = 20180619

#: Seconds one rep takes at the reference speed.  Times divided by the speed
#: factor read as seconds at that speed; the value is this machine's rep time
#: in a quiet stretch, so reported times stay near what a quiet run measures.
REF_REP_S = 0.006


class _Graph:
    """Edge-id multigraph: the accessors the reps call, nothing else."""

    def __init__(self, n, pairs):
        self._edges = dict(enumerate(pairs))
        self._adj = {v: set() for v in range(n)}
        for e, (a, b) in self._edges.items():
            self._adj[a].add(e)
            self._adj[b].add(e)

    def edges(self):
        return list(self._edges)

    def endpoints(self, e):
        try:
            return self._edges[e]
        except KeyError:
            raise ValueError(f"no edge {e}") from None

    def incident(self, v):
        return sorted(self._adj[v])

    def other_end(self, e, v):
        a, b = self.endpoints(e)
        return b if v == a else a


def _pairs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a loopless pairing-model 4-regular multigraph on n vertices."""
    while True:
        stubs = [v for v in range(n) for _ in range(4)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(a != b for a, b in pairs):
            return pairs


def _push(g, flow, s, t) -> bool:
    """Send one unit from s to t along a shortest residual path, if any.  The
    search always scans everything it can reach, so every rep costs the same."""
    back = {s: None}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for e in g.incident(u):
            w = g.other_end(e, u)
            if w in back:
                continue
            sign = 1 if g.endpoints(e)[0] == u else -1
            if sign * flow[e] < 1:
                back[w] = (u, e, sign)
                queue.append(w)
    if t not in back:
        return False
    while back[t] is not None:
        u, e, sign = back[t]
        flow[e] += sign
        t = u
    return True


def _plain(n, pairs) -> int:
    """Vertices reached from 0 plus the largest edge multiplicity."""
    adj = {v: [] for v in range(n)}
    mult = {}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
        key = (a, b) if a < b else (b, a)
        mult[key] = mult.get(key, 0) + 1
    seen = {0}
    queue = deque(seen)
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) + max(mult.values())


class Calibration:
    """Speed samples: each is a rep's time now over its reference time."""

    def __init__(self):
        rng = random.Random(CAL_SEED)
        self._g = _Graph(CAL_N, _pairs(CAL_N, rng))
        self._plain = _pairs(PLAIN_N, rng)
        self.samples: list[float] = []

    def _rep(self):
        flow = dict.fromkeys(self._g.edges(), 0)
        while _push(self._g, flow, 0, CAL_N - 1):
            pass
        for _ in range(PLAIN_ROUNDS):
            _plain(PLAIN_N, self._plain)

    def sample(self, min_s: float) -> float:
        """Run reps for at least `min_s` seconds; return the speed factor,
        the mean rep time over REF_REP_S (above 1 when the machine is slow)."""
        clock = time.perf_counter
        start = clock()
        reps = 0
        while True:
            self._rep()
            reps += 1
            took = clock() - start
            if took >= min_s:
                break
        factor = took / reps / REF_REP_S
        self.samples.append(factor)
        return factor

"""Loopless multigraph with stable ids, structural queries, and instance generators."""
from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

MULTI_EDGE = "multi-edge"
TRIANGLE = "triangle"
K33 = "k33"
K24 = "k24"
K23 = "k23"
C4 = "c4"
C5 = "c5"

#: Search order used by the reduction solver; earlier kinds are assumed absent
#: by the completion recipes of later ones.  The solver looks for the first
#: kind before the 2-edge-cut detector and for the rest after it.
CONFIGURATION_KINDS = (MULTI_EDGE, TRIANGLE, K33, K24, K23, C4, C5)

#: Largest vertex count a graph file may declare or a generator may build, and
#: half the edge count a generator may build; both are checked before allocating.
MAX_VERTICES = 1_000_000

#: Pairings gen_random_regular draws before it gives up.
PAIRING_TRIES = 2000

#: Largest degree gen_random_regular accepts.  For large n a pairing is
#: simple with probability about e^{-(d^2-1)/4}, so a simple graph takes
#: about 403 pairings at d = 5 but 6,300 at d = 6, more than PAIRING_TRIES
#: allow.  Small n needs more: K6 takes about 2,070 pairings, since a pairing
#: of its 30 stubs is simple with probability (5!)^6 / 29!! ~ 4.8e-4, so some
#: d = 5 seeds on few vertices still exhaust the tries.
MAX_PAIRING_DEGREE = 5


class Graph:
    """Undirected loopless multigraph.

    Vertex and edge ids are non-negative integers that stay stable under
    deletion: removing a vertex or edge never renumbers the survivors.
    Parallel edges are allowed and get distinct ids; self-loops are rejected.
    All iteration helpers return ascending ids so callers are deterministic.
    A new edge takes the next unused id and removals keep the order of what
    is left, so each vertex's incidence list stays in ascending edge-id order.
    """

    __slots__ = ("_adj", "_edges", "_next_vertex", "_next_edge")

    def __init__(self, n: int = 0):
        self._adj: dict[int, list[int]] = {v: [] for v in range(n)}
        self._edges: dict[int, tuple[int, int]] = {}
        self._next_vertex = n
        self._next_edge = 0

    # -- construction -----------------------------------------------------

    def add_vertex(self) -> int:
        v = self._next_vertex
        self._adj[v] = []
        self._next_vertex += 1
        return v

    def add_edge(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if u not in self._adj or v not in self._adj:
            raise ValueError(f"unknown endpoint in ({u}, {v})")
        e = self._next_edge
        self._next_edge += 1
        self._edges[e] = (u, v)
        self._adj[u].append(e)
        self._adj[v].append(e)
        return e

    def remove_edge(self, e: int) -> None:
        u, v = self.endpoints(e)
        self._adj[u].remove(e)
        self._adj[v].remove(e)
        del self._edges[e]

    def remove_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise ValueError(f"unknown vertex {v}")
        for e in list(self._adj[v]):
            self.remove_edge(e)
        del self._adj[v]

    def copy(self) -> "Graph":
        g = Graph(0)
        g._adj = {v: list(es) for v, es in self._adj.items()}
        g._edges = dict(self._edges)
        g._next_vertex = self._next_vertex
        g._next_edge = self._next_edge
        return g

    def induced_subgraph(self, vertices) -> "Graph":
        """Subgraph on `vertices` keeping vertex and edge ids.

        Id counters carry over, so ids of later additions never collide with
        ids of the parent graph.  Only the kept vertices' incidence lists are
        read: O(k log k) for k kept vertices and their incident edges, not a
        pass over every edge of the parent.
        """
        keep = set(vertices)
        adj, ends = self._adj, self._edges
        g = Graph(0)
        g._adj = {v: [] for v in sorted(keep)}
        for e in sorted({e for v in keep for e in adj[v]}):
            u, v = ends[e]
            if u in keep and v in keep:
                g._edges[e] = (u, v)
                g._adj[u].append(e)
                g._adj[v].append(e)
        g._next_vertex = self._next_vertex
        g._next_edge = self._next_edge
        return g

    # -- queries ----------------------------------------------------------

    def num_vertices(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def edges(self) -> list[int]:
        return sorted(self._edges)

    def has_edge_id(self, e: int) -> bool:
        return e in self._edges

    def endpoints(self, e: int) -> tuple[int, int]:
        try:
            return self._edges[e]
        except KeyError:
            raise ValueError(f"unknown edge id {e}") from None

    def other_end(self, e: int, v: int) -> int:
        a, b = self.endpoints(e)
        if v == a:
            return b
        if v == b:
            return a
        raise ValueError(f"vertex {v} is not an endpoint of edge {e}")

    def incident(self, v: int) -> list[int]:
        return list(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(es) for es in self._adj.values()), default=0)

    def neighbors(self, v: int) -> list[int]:
        return sorted({self.other_end(e, v) for e in self._adj[v]})

    def adjacent(self, u: int, v: int) -> bool:
        if len(self._adj[u]) > len(self._adj[v]):
            u, v = v, u
        return any(self.other_end(e, u) == v for e in self._adj[u])

    def edges_between(self, u: int, v: int) -> list[int]:
        return sorted(e for e in self._adj[u] if self.other_end(e, u) == v)

    def measure(self) -> int:
        """Recursion measure |V| + |E|."""
        return len(self._adj) + len(self._edges)

    def components(self) -> list[list[int]]:
        """Vertex sets of the connected components, each ascending, ordered
        by their lowest vertex.  One breadth-first pass over the adjacency,
        O(n log n + m)."""
        adj, ends = self._adj, self._edges
        seen: set[int] = set()
        comps = []
        for root in sorted(adj):
            if root in seen:
                continue
            seen.add(root)
            comp = [root]
            for u in comp:
                for e in adj[u]:
                    a, b = ends[e]
                    w = b if a == u else a
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
            comps.append(sorted(comp))
        return comps

    def __repr__(self):
        return f"Graph(n={self.num_vertices()}, m={self.num_edges()})"


@dataclass
class Configuration:
    """A forbidden pattern found in a graph: the kind tag plus one embedding.

    The embedding lists vertex ids realizing the pattern, in the conventional
    order for the kind (e.g. for k23 the three-side first, then the two-side).
    """

    kind: str
    vertices: list[int]


@dataclass
class EdgeCut:
    """A two-sided edge cut: removing `cut_edges` disconnects the sides."""

    side1: list[int]
    side2: list[int]
    cut_edges: list[int]


# -- girth ------------------------------------------------------------------


def girth(g: Graph):
    """Length of the shortest cycle; a parallel pair counts as a 2-cycle.

    One breadth-first search per root.  An edge met from u that joins it to
    a visited w, other than the tree edge into u, closes a walk of length
    depth(u) + depth(w) + 1 through the root, which holds a cycle no longer;
    the search rooted on a shortest cycle meets that cycle's length.  A
    search stops at the first vertex u with 2 * depth(u) + 1 >= best, since
    every closing edge it could still meet is at least that long.

    One deletion rule: a root goes after its search, then, with a stack, every
    vertex left with at most one live edge (those with at most one edge go
    first, unsearched); later searches skip deleted vertices.  The answer
    stays: a shortest cycle through the root was met by its search, else the
    graph without the root keeps one, and a vertex with at most one live
    edge lies on no cycle.  So a long cycle, alone or with trees on it, is
    searched once and deleted whole.  The search's depth-0 step, which reads
    every live edge of the root, also lowers the live counts of the root's
    neighbours, so deleting the root reads its edges no second time.
    Returns math.inf for forests.
    """
    adj, ends = g._adj, g._edges
    best = math.inf
    live = {v: len(es) for v, es in adj.items()}  # edges to undeleted ends
    stack = [v for v, k in live.items() if k <= 1]
    done: set[int] = set()
    for root in sorted(adj):
        while stack:
            v = stack.pop()
            done.add(v)
            for e in adj[v]:
                a, b = ends[e]
                w = b if a == v else a
                if w not in done:
                    live[w] -= 1
                    if live[w] == 1:
                        stack.append(w)
        if root in done:
            continue
        seen = {root: (0, None)}  # vertex -> (depth, tree edge into it)
        queue = [root]
        for u in queue:
            d, via = seen[u]
            if 2 * d + 1 >= best:
                break
            for e in adj[u]:
                if e == via:
                    continue
                a, b = ends[e]
                w = b if a == u else a
                if w in done:
                    continue
                if not d:
                    # a root edge: best >= 2 never stops depth 0, so every
                    # live edge of the root passes here once
                    live[w] -= 1
                    if live[w] == 1:
                        stack.append(w)
                if w in seen:
                    if d + seen[w][0] + 1 < best:
                        best = d + seen[w][0] + 1
                else:
                    seen[w] = (d + 1, e)
                    queue.append(w)
        done.add(root)
    return best


# -- minimum edge cut ---------------------------------------------------------


def find_edge_cut_at_most(g: Graph):
    """Lexicographically first 2-edge cut of a connected graph whose degrees
    are all even, or None when it has none.

    The cut_edges of the returned EdgeCut are the first such pair in
    lexicographic order of ascending edge ids; side1 holds the lowest vertex
    id and side2 the rest, each ascending.  The answer depends on g alone.
    Raises ValueError on disconnected input (callers must split components
    first) and when some degree is odd.  Every cut of an even-degree graph is
    even (the degrees on one side sum to twice the edges inside it plus the
    cut), so a 2-edge cut is a minimum one; the solver asks only on 4-regular
    graphs.  The name stays because perfbench's tracer patches
    reduction.find_edge_cut_at_most by name and keys a layer by it.

    Labels (cycle-space sampling; Pritchard and Thurimella, "Fast computation
    of small cuts via cycle space sampling", ACM TALG 2011), O(n + m): a
    breadth-first spanning tree is grown from the lowest vertex, which also
    checks that g is connected.  Each non-tree edge gets a random 64-bit
    label, and each tree edge the XOR of the labels of the non-tree edges
    whose fundamental cycle runs through it.  Taken exactly, as sets of
    non-tree edges, the labels obey the cut-space lemma: an edge set is a cut
    (the edges across some bipartition of the vertices) iff its labels XOR to
    the empty set.  The random labels are the exact ones under a linear map,
    so the two edges of a 2-edge cut have equal labels.

    Search: when every label is distinct there is no candidate, and None is
    returned before the label classes are built.  Otherwise the pairs with
    equal labels are tried in lexicographic order, and the first one whose
    removal disconnects g is returned.  A collision can only add candidates
    with no cut behind them, which the check rejects: Graph.components on a
    copy without the candidate's edges.  An even-degree graph has no bridge,
    so a cut leaves exactly two parts, and the first holds the lowest vertex.
    This costs O(n + m) unless labels collide.
    """
    adj, ends = g._adj, g._edges
    if len(adj) <= 1:
        return None
    if any(len(es) % 2 for es in adj.values()):
        raise ValueError("graph has a vertex of odd degree")

    root = min(adj)
    up = {root: None}   # vertex -> the tree edge that reached it
    order = [root]
    for u in order:
        for e in adj[u]:
            a, b = ends[e]
            w = b if a == u else a
            if w not in up:
                up[w] = e
                order.append(w)
    if len(up) < len(adj):
        raise ValueError("graph is disconnected; handle components separately")
    eids = g.edges()
    tree = set(up.values())
    rng = random.Random(0)
    label = {e: rng.getrandbits(64) for e in eids if e not in tree}
    fold = dict.fromkeys(adj, 0)    # vertex -> XOR of the labels of the non-tree
    for e, x in label.items():      # edges at it, then, leaves first, of those
        a, b = ends[e]              # leaving its subtree
        fold[a] ^= x
        fold[b] ^= x
    for v in reversed(order[1:]):
        e = up[v]
        label[e] = fold[v]
        a, b = ends[e]
        fold[b if a == v else a] ^= fold[v]
    if len(set(label.values())) == len(eids):
        return None     # no pair candidate
    holding: dict[int, list[int]] = {}  # label -> its edges, ascending
    for e in eids:
        holding.setdefault(label[e], []).append(e)

    for e in eids:
        for f in holding[label[e]]:
            if f > e:
                h = g.copy()
                h.remove_edge(e)
                h.remove_edge(f)
                parts = h.components()
                if len(parts) > 1:
                    return EdgeCut(*parts, [e, f])
    return None


# -- forbidden configurations -------------------------------------------------


#: The 2-path pass stops at the first pair with this many common neighbours,
#: the most any kind needs (K2,4).
_COMMON_TOP = 4


class _Census:
    """State one find_configuration call shares between its scans.

    `lists` holds each vertex's neighbours, one entry per edge, from one pass
    over the edge table: the certificate reads them, and the neighbour sets
    and sorted lists are made from them.  Each is built on first use, and the
    2-path pass runs at most once.
    """

    def __init__(self, g: Graph):
        self.g = g
        self._first = None  # count -> (a, b, common) from the 2-path pass

    @cached_property
    def lists(self):
        lists: dict[int, list[int]] = {v: [] for v in self.g._adj}
        for a, b in self.g._edges.values():
            lists[a].append(b)
            lists[b].append(a)
        return lists

    @cached_property
    def nb(self):
        return {v: set(xs) for v, xs in self.lists.items()}

    @cached_property
    def srt(self):
        return {v: sorted(s) for v, s in self.nb.items()}

    def girth_at_least_six(self) -> bool:
        """True iff g has no cycle of length at most five, a parallel pair
        counting as a 2-cycle: one pass that builds each vertex's closed
        2-ball S2(v), the vertices at distance at most two, and returns False
        at the first failed test.

        Vertex test: the non-backtracking walks of length 0-2 from v number
        1 + the sum of d(x) over the edges vx, and S2(v) holds their ends.
        Two walks that end at one vertex close a cycle of length at most
        four, and such a cycle through v (a parallel pair, a triangle or a
        4-cycle) ends two walks at one vertex.  So the walks outnumber the
        vertices of S2(v) only if g has such a cycle, and they do at every
        vertex on one.

        Edge test, for an edge yz whose ends passed the vertex test: S2(y)
        and S2(z) share y, z and the other neighbours of each, which are
        d(y) + d(z) distinct vertices.  Any further shared vertex w lies at
        distance two from both, on paths y-a-w and z-b-w with a != b (else a
        triangle), so y-a-w-b-z is a 5-cycle; and a 5-cycle through yz puts
        its far vertex in both balls.  So the count is exact iff no 5-cycle
        runs through yz.  Each edge is tested when its later end has its
        ball.
        """
        lists = self.lists
        ball: dict[int, set[int]] = {}
        for v, xs in lists.items():
            s = {v, *xs}
            walks = 1
            for x in xs:
                s.update(lists[x])
                walks += len(lists[x])
            if len(s) < walks:
                return False
            for x in xs:
                if x in ball and len(s & ball[x]) != len(xs) + len(lists[x]):
                    return False
            ball[v] = s
        return True

    def multi_edge(self):
        ends = self.g._edges
        seen = set()
        for e in sorted(ends):
            u, v = ends[e]
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return Configuration(MULTI_EDGE, [key[0], key[1]])
            seen.add(key)
        return None

    def triangle(self):
        nb = self.nb
        for e in self.g.edges():
            u, v = self.g._edges[e]
            common = nb[u] & nb[v]
            if common:
                return Configuration(TRIANGLE, sorted([u, v, min(common)]))
        return None

    def common_pair(self, need: int):
        """First pair a < b, in ascending order, with at least `need` common
        neighbours, as (a, b, the common neighbours ascending), or None.

        One pass over the 2-paths a-x-b with b > a records the first pair with
        2, 3 and 4 common neighbours, and stops at the first pair with 4.
        """
        if self._first is None:
            srt = self.srt
            self._first = first = {}
            for a in self.g.vertices():
                common: dict[int, list[int]] = {}
                for x in srt[a]:
                    for b in srt[x]:
                        if b > a:
                            common.setdefault(b, []).append(x)
                for b in sorted(b for b, xs in common.items() if len(xs) > 1):
                    xs = common[b]
                    for count in range(2, min(len(xs), _COMMON_TOP) + 1):
                        first.setdefault(count, (a, b, xs))
                    if len(xs) >= _COMMON_TOP:
                        return first.get(need)
        return self._first.get(need)

    def k33(self):
        # two vertices of one side of a K3,3 have three common neighbours
        if self.common_pair(3) is None:
            return None
        nb = self.nb
        for v1 in self.g.vertices():
            for triple in combinations(self.srt[v1], 3):
                common = nb[triple[0]] & nb[triple[1]] & nb[triple[2]]
                common.discard(v1)
                if len(common) >= 2:
                    others = sorted(common)[:2]
                    return Configuration(K33, list(triple) + sorted([v1] + others))
        return None

    def k24(self):
        hit = self.common_pair(4)
        return hit and Configuration(K24, hit[2][:4] + [hit[0], hit[1]])

    def k23(self):
        hit = self.common_pair(3)
        return hit and Configuration(K23, hit[2][:3] + [hit[0], hit[1]])

    def c4(self):
        hit = self.common_pair(2)
        return hit and Configuration(C4, [hit[0], hit[2][0], hit[1], hit[2][1]])

    def c5(self):
        nb, srt = self.nb, self.srt
        for a in self.g.vertices():
            na = nb[a]
            for b in srt[a]:
                if b <= a:
                    continue
                for c in srt[b]:
                    if c <= a:
                        continue
                    for d in srt[c]:
                        if d <= a or d == b:
                            continue
                        ends = [e for e in na & nb[d] if e > b and e != c]
                        if ends:
                            return Configuration(C5, [a, b, c, d, min(ends)])
        return None


_SCANS = {
    MULTI_EDGE: _Census.multi_edge,
    TRIANGLE: _Census.triangle,
    K33: _Census.k33,
    K24: _Census.k24,
    K23: _Census.k23,
    C4: _Census.c4,
    C5: _Census.c5,
}


def find_configuration(g: Graph, *kinds: str):
    """First embedding of the first kind in `kinds` that g contains, or None.

    Patterns are matched as subgraphs (not induced).  The kinds are scanned
    lazily in the order given, and the call returns at the first hit, so a
    later kind costs nothing once an earlier one is found.  Each kind's
    embedding is the first one its scan meets:

    - multi-edge: the first edge id whose endpoint pair repeats an earlier
      edge's, as [low, high];
    - triangle: the first edge id uv with a common neighbour w, the lowest
      such w, as sorted [u, v, w];
    - k24, k23, c4: the first pair a < b, in ascending order, with at least
      4, 3 or 2 common neighbours x1 < x2 < ...; k24 is [x1..x4, a, b], k23
      is [x1, x2, x3, a, b] and c4 is [a, x1, b, x2].  One pass over the
      2-paths serves all three;
    - k33: run only when some pair has 3 common neighbours.  The first
      vertex v1, ascending, with three neighbours t1 < t2 < t3 (in
      lexicographic order of the triple) that have two more common
      neighbours besides v1; the two lowest, o1 and o2, give
      [t1, t2, t3] + sorted [v1, o1, o2];
    - c5: the first 5-cycle a-b-c-d-e-a of distinct vertices that a
      depth-first search over ascending neighbour lists meets, with b, c
      and d above a and e above b, as [a, b, c, d, e].

    Unless only multi-edge is asked, None is returned before any scan when
    _Census.girth_at_least_six certifies that g has no cycle of length at
    most five: every kind holds one, a parallel pair counting as a 2-cycle.

    Raises ValueError when no kind is given or a kind is unknown.
    """
    if not kinds:
        raise ValueError("no configuration kind given")
    for kind in kinds:
        if kind not in _SCANS:
            raise ValueError(f"unknown configuration kind {kind!r}")
    census = _Census(g)
    if any(kind != MULTI_EDGE for kind in kinds) and census.girth_at_least_six():
        return None
    for kind in kinds:
        conf = _SCANS[kind](census)
        if conf is not None:
            return conf
    return None


# -- generators ----------------------------------------------------------------


def _check_generated_size(n: int, m: int) -> None:
    if n > MAX_VERTICES or m > 2 * MAX_VERTICES:
        raise ValueError(f"{n} vertices and {m} edges exceed the generator bound of "
                         f"{MAX_VERTICES} vertices and {2 * MAX_VERTICES} edges")


def gen_blowup_c5(t: int) -> Graph:
    """Blow-up of the 5-cycle: five independent t-sets, consecutive sets
    completely joined.  2t-regular with 5*t*t edges and no pair of edges at
    distance two or more.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    _check_generated_size(5 * t, 5 * t * t)
    g = Graph(5 * t)
    group = [list(range(i * t, (i + 1) * t)) for i in range(5)]
    for i in range(5):
        for u in group[i]:
            for v in group[(i + 1) % 5]:
                g.add_edge(u, v)
    return g


def gen_incidence_pg(q: int) -> Graph:
    """Point-line incidence graph of the projective plane of order q.

    Supported orders: 2 (Heawood graph) and 3.  The result is bipartite,
    (q+1)-regular on 2*(q*q+q+1) vertices, with girth 6.
    """
    if q not in (2, 3):
        raise ValueError(f"unsupported projective plane order {q}")

    # the nonzero triples whose first nonzero coordinate is 1 name both the
    # points and the lines
    triples = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)
               if (a or b or c) == 1]
    n = len(triples)
    g = Graph(2 * n)
    for i, p in enumerate(triples):
        for j, line in enumerate(triples):
            if sum(x * y for x, y in zip(p, line)) % q == 0:
                g.add_edge(i, n + j)
    return g


def _simple_pairing(stubs: list[int], runs: list[tuple[int, int, int]],
                    getrandbits: Callable[[int], int]) -> set[tuple[int, int]] | None:
    """Shuffle stubs in place with the draws of `random.Random.shuffle` and
    return the pairs (0, 1), (2, 3), ... as an edge set, or None at the first
    loop or repeated pair.

    runs lists the shuffle's positions i, from the last down to 1, as
    (k, first, last) runs whose i + 1 share the bit length k.  The step at
    position i makes positions i and up final, so the pair at an even i >= 2
    is checked right after its step and the pair at 0-1 after the loop.  A
    rejected try still makes the rest of its draws, without swapping, so the
    next try starts where `Random.shuffle` leaves the stream.
    """
    edges = set()
    rest = iter(runs)
    for k, first, last in rest:
        for i in range(first, last - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            stubs[i], stubs[j] = stubs[j], stubs[i]
            if i & 1:
                continue
            u = stubs[i]
            v = stubs[i + 1]
            key = (u, v) if u < v else (v, u)
            if u == v or key in edges:
                break
            edges.add(key)
        else:
            continue
        # rejected at i: draw for the positions below it, without swapping
        for i in range(i - 1, last - 1, -1):
            while getrandbits(k) > i:
                pass
        for k, first, last in rest:
            for i in range(first, last - 1, -1):
                while getrandbits(k) > i:
                    pass
        return None
    if stubs:
        u, v = stubs[0], stubs[1]
        key = (u, v) if u < v else (v, u)
        if u == v or key in edges:
            return None
        edges.add(key)
    return edges


def gen_random_regular(d: int, n: int, seed: int) -> Graph:
    """Random simple d-regular graph via the pairing model with rejection.

    Deterministic for a fixed seed.  Raises after PAIRING_TRIES rejected
    pairings, and up front for d above MAX_PAIRING_DEGREE.

    Each try shuffles the stub list with an inline Fisher-Yates loop that
    makes exactly the draws `random.Random(seed).shuffle` would make: for i
    from the last position down to 1, j is `getrandbits(k)` with k the bit
    length of i + 1, redrawn while j > i, as CPython's
    `Random._randbelow_with_getrandbits` does (the same in 3.10 through
    3.13).  A try stops swapping at its first loop or repeated pair but
    still makes the rest of its draws.  So every seed gives the graph, or
    the exhaustion, that the stdlib shuffle gives, without a Python-level
    `_randbelow` frame per draw.
    """
    if (d * n) % 2 != 0:
        raise ValueError("d * n must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    if d > MAX_PAIRING_DEGREE:
        raise ValueError(f"the pairing model needs d at most {MAX_PAIRING_DEGREE}, "
                         f"got d={d}")
    _check_generated_size(n, n * d // 2)
    getrandbits = random.Random(seed).getrandbits
    base = [v for v in range(n) for _ in range(d)]
    runs = []
    first = len(base) - 1
    while first >= 1:
        k = (first + 1).bit_length()
        last = (1 << (k - 1)) - 1
        runs.append((k, first, last))
        first = last - 1
    for _ in range(PAIRING_TRIES):
        edges = _simple_pairing(base[:], runs, getrandbits)
        if edges is not None:
            g = Graph(n)
            for u, v in sorted(edges):
                g.add_edge(u, v)
            return g
    raise RuntimeError(f"pairing model failed after {PAIRING_TRIES} tries "
                       f"(d={d}, n={n}, seed={seed})")


# -- text / JSON formats -------------------------------------------------------


def _declared_vertices(n: int) -> int:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"declared vertex count {n} outside 0..{MAX_VERTICES}")
    return n


def _is_canonical_decimal(token: str) -> bool:
    """True for "0" and "17"; False for "00", "+1", "-1", "1_0" and non-ASCII
    digits such as "١٠", all of which int() would accept."""
    return token.isdecimal() and str(int(token)) == token


def _edge_list_int(token: str) -> int:
    if not _is_canonical_decimal(token):
        raise ValueError(f"{token!r} is not a canonical decimal integer")
    return int(token)


def _json_int(value, what: str) -> int:
    """A JSON field that must be an integer: ValueError on anything else,
    floats, booleans and numeric strings included."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_field(data: dict, key: str, what: str):
    """data[key], or ValueError naming the missing field."""
    if key not in data:
        raise ValueError(f"{what} is missing the field {key!r}")
    return data[key]


def _unique_keys(what: str):
    """json.loads object hook for `what` ("graph JSON"): the object as a
    dict, ValueError naming `what` on a repeated key."""
    def hook(pairs: list) -> dict:
        data = dict(pairs)
        if len(data) < len(pairs):
            raise ValueError(f"{what} repeats a key in one object")
        return data
    return hook


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: "p <n> <m>" then m lines "e <u> <v>".

    Edge ids are assigned in line order.  Repeated lines give parallel edges.
    Every number must be a canonical decimal ("12", not "012", "+12" or
    "1_2").  Any error on a line, the graph's own checks on its vertex count
    and edges included, raises ValueError naming that line.
    """
    g = None
    m_declared = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p":
                if g is not None:
                    raise ValueError("duplicate p line")
                if len(parts) != 3:
                    raise ValueError("expected 'p <n> <m>'")
                n, m_declared = map(_edge_list_int, parts[1:])
                g = Graph(_declared_vertices(n))
            elif parts[0] == "e":
                if g is None:
                    raise ValueError("edge before p line")
                if len(parts) != 3:
                    raise ValueError("expected 'e <u> <v>'")
                g.add_edge(*map(_edge_list_int, parts[1:]))
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    if g is None:
        raise ValueError("missing p line")
    if g.num_edges() != m_declared:
        raise ValueError(f"p line declared {m_declared} edges, found {g.num_edges()}")
    return g


def format_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format, remapping vertices to 0..n-1."""
    verts = g.vertices()
    remap = {v: i for i, v in enumerate(verts)}
    lines = [f"p {len(verts)} {g.num_edges()}"]
    for e in g.edges():
        u, v = g.endpoints(e)
        lines.append(f"e {remap[u]} {remap[v]}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> str:
    verts = g.vertices()
    remap = {v: i for i, v in enumerate(verts)}
    edges = [[remap[u], remap[v]] for u, v in
             (g.endpoints(e) for e in g.edges())]
    return json.dumps({"n": len(verts), "edges": edges}, sort_keys=True)


def graph_from_json(text: str) -> Graph:
    """Parse {"n": <int>, "edges": [[u, v], ...]}; no key may repeat."""
    data = json.loads(text, object_pairs_hook=_unique_keys("graph JSON"))
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    edges = _json_field(data, "edges", "graph JSON")
    if not isinstance(edges, list):
        raise ValueError("graph JSON 'edges' must be a list")
    n = _json_int(_json_field(data, "n", "graph JSON"), "'n'")
    g = Graph(_declared_vertices(n))
    for pair in edges:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"graph JSON edge {pair!r} is not a pair")
        u, v = (_json_int(x, "a vertex id") for x in pair)
        g.add_edge(u, v)
    return g

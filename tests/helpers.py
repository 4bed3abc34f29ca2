"""Independent brute-force oracles and instance builders for the test suite.

Everything here deliberately avoids the library's own algorithms: girth via
per-root BFS, cuts via bipartition enumeration, networkx's Stoer-Wagner
minimum cut or a scan of every edge pair split by components_oracle,
patterns via itertools over vertex tuples, chromatic numbers via plain
backtracking in id order, and distinct-representative checks via
exhaustive assignment search.  The sequence-plan audit, the 2K2 test and the
trace's case list were library exports used only by tests; they live here
now, beside `complete_with_palette`, which drives the solver's short-cycle
completion under a small palette.  The exceptions, at the end, are the
library's replaced implementations of the configuration finders, of the
verifier, of the edge-scan subgraph and components split, of the exact
solver's greedy clique, greedy seed and set-and-score search (the last on
a set-up of its own, from the first two), of the sequence closure and
extension, of the collaborative layer's child orders and of the pairing
model's stdlib shuffle, kept verbatim as differential oracles for their
successors.  `LookupLimit` and `count_graph_lookups` count lookups into a
graph's dicts, a deterministic measure of work.
"""
import math
import random
from collections import deque
from itertools import combinations, permutations

from strongedge.coloring import ExactResult, PartialColoring
from strongedge.graph import (
    C4,
    C5,
    K23,
    K24,
    K33,
    MULTI_EDGE,
    PAIRING_TRIES,
    TRIANGLE,
    Configuration,
    Graph,
    _check_generated_size,
)


def circulant(n, dists):
    g = Graph(n)
    seen = set()
    for i in range(n):
        for d in dists:
            j = (i + d) % n
            key = (min(i, j), max(i, j))
            if key not in seen:
                seen.add(key)
                g.add_edge(*key)
    return g


def bip_circulant(n, dists):
    """Bipartite circulant: a_i ~ b_{(i+d) mod n} for d in dists."""
    g = Graph(2 * n)
    for i in range(n):
        for d in dists:
            g.add_edge(i, n + (i + d) % n)
    return g


def cycle(n):
    g = Graph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def doubled(g: Graph) -> Graph:
    """Copy of g on vertices 0..n-1 with every edge doubled."""
    h = Graph(g.num_vertices())
    for e in g.edges():
        h.add_edge(*g.endpoints(e))
        h.add_edge(*g.endpoints(e))
    return h


def path(n_edges):
    g = Graph(n_edges + 1)
    for i in range(n_edges):
        g.add_edge(i, i + 1)
    return g


def star(leaves):
    g = Graph(leaves + 1)
    for i in range(1, leaves + 1):
        g.add_edge(0, i)
    return g


def complete(n):
    g = Graph(n)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def complete_bipartite(a, b):
    g = Graph(a + b)
    for i in range(a):
        for j in range(b):
            g.add_edge(i, a + j)
    return g


def petersen():
    g = Graph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
        g.add_edge(i, i + 5)
        g.add_edge(i + 5, 5 + (i + 2) % 5)
    return g


def random_graph_max_deg(n, m, dmax, seed):
    """Random simple graph with at most m edges and max degree <= dmax."""
    rng = random.Random(seed)
    g = Graph(n)
    tries = 0
    while g.num_edges() < m and tries < 20 * m:
        tries += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or g.adjacent(u, v):
            continue
        if g.degree(u) >= dmax or g.degree(v) >= dmax:
            continue
        g.add_edge(u, v)
    return g


def pg_lift(k: int, rng: random.Random) -> Graph:
    """Random k-lift of the PG(2,3) incidence graph: vertex (v, i) is v*k + i,
    and each base edge uv becomes the matching (u, i)-(v, pi(i)) for a random
    permutation pi.  4-regular, and its girth is at least the base's six."""
    from strongedge.graph import gen_incidence_pg
    base = gen_incidence_pg(3)
    g = Graph(base.num_vertices() * k)
    for e in base.edges():
        u, v = base.endpoints(e)
        perm = list(range(k))
        rng.shuffle(perm)
        for i in range(k):
            g.add_edge(u * k + i, v * k + perm[i])
    return g


def random_graph(n, m, seed):
    rng = random.Random(seed)
    g = Graph(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs[:m]:
        g.add_edge(u, v)
    return g


def shuffled(g: Graph, rng: random.Random) -> Graph:
    """Copy of g under a random vertex relabelling and edge order."""
    label = g.vertices()
    rng.shuffle(label)
    pairs = [g.endpoints(e) for e in g.edges()]
    rng.shuffle(pairs)
    h = Graph(len(label))
    for u, v in pairs:
        h.add_edge(label[u], label[v])
    return h


def even_closure(g: Graph) -> Graph:
    """Copy of g with its odd-degree vertices, in id order, joined in
    consecutive pairs by one new edge each (parallel when the pair is
    already adjacent): every degree is even, so every cut is too."""
    h = g.copy()
    odd = [v for v in h.vertices() if h.degree(v) % 2]
    for u, v in zip(odd[::2], odd[1::2]):
        h.add_edge(u, v)
    return h


def k5e_ring(blobs: int, rng: random.Random) -> Graph:
    """Ring of K5-minus-an-edge blobs, each blob's two degree-3 vertices tied
    to the neighbouring blobs: 4-regular with edge connectivity 2."""
    g = Graph(5 * blobs)
    for b in range(blobs):
        for i, j in combinations(range(5), 2):
            if (i, j) != (0, 4):
                g.add_edge(5 * b + i, 5 * b + j)
        g.add_edge(5 * b + 4, 5 * ((b + 1) % blobs))
    return shuffled(g, rng)


# -- work counts ----------------------------------------------------------------


class LookupLimit(dict):
    """A dict that counts its lookups by key in `tally`, a one-item list that
    other LookupLimit dicts may share, and fails the test once the count
    passes `limit`: a deterministic bound on a search's work."""

    def __init__(self, items: dict, limit=math.inf, tally=None):
        super().__init__(items)
        self.limit = limit
        self.tally = [0] if tally is None else tally

    def __getitem__(self, key):
        self.tally[0] += 1
        assert self.tally[0] <= self.limit, "lookup limit exceeded"
        return super().__getitem__(key)


def count_graph_lookups(monkeypatch) -> list:
    """Count, in the returned one-item list, the lookups by key into `_adj`
    and `_edges` of every Graph that `Graph.__init__`, `copy` or
    `induced_subgraph` makes while monkeypatch's patches hold."""
    tally = [0]

    def counted(g: Graph) -> Graph:
        g._adj = LookupLimit(g._adj, tally=tally)
        g._edges = LookupLimit(g._edges, tally=tally)
        return g

    init, copy, induced = Graph.__init__, Graph.copy, Graph.induced_subgraph

    def __init__(self, n=0):
        init(self, n)
        counted(self)

    monkeypatch.setattr(Graph, "__init__", __init__)
    monkeypatch.setattr(Graph, "copy", lambda self: counted(copy(self)))
    monkeypatch.setattr(Graph, "induced_subgraph",
                        lambda self, vertices: counted(induced(self, vertices)))
    return tally


# -- oracles ------------------------------------------------------------------


def girth_oracle(g: Graph):
    """Shortest cycle by per-root BFS plus explicit parallel-pair check."""
    best = float("inf")
    pairs = {}
    for e in g.edges():
        u, v = g.endpoints(e)
        key = (min(u, v), max(u, v))
        pairs[key] = pairs.get(key, 0) + 1
    if any(c >= 2 for c in pairs.values()):
        return 2
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    for root in g.vertices():
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w:
                        best = min(best, dist[u] + dist[w] + 1)
            queue = nxt
    return best


def brute_min_cuts(g: Graph):
    """Every minimum edge cut of a connected g, by enumerating bipartitions.

    Returns (side of the lowest vertex, other side, cut edges) triples, each
    list ascending, sorted by cut edges, so the first is the lexicographically
    first minimum cut; [] when g has fewer than two vertices or is
    disconnected.
    """
    verts = g.vertices()
    n = len(verts)
    if n < 2 or len(g.components()) > 1:
        return []
    ends = {e: g.endpoints(e) for e in g.edges()}
    best, cuts = None, []
    anchor, rest = verts[0], verts[1:]
    for mask in range(2 ** (n - 1) - 1):
        side = {anchor} | {rest[i] for i in range(n - 1) if mask >> i & 1}
        cut = [e for e, (u, v) in ends.items() if (u in side) != (v in side)]
        if best is None or len(cut) < best:
            best, cuts = len(cut), []
        if len(cut) == best:
            cuts.append((sorted(side), [v for v in verts if v not in side], cut))
    return sorted(cuts, key=lambda c: c[2])


def brute_min_cut(g: Graph):
    """Minimum edge cut size by enumerating all bipartitions; None if disconnected."""
    cuts = brute_min_cuts(g)
    return len(cuts[0][2]) if cuts else None


def first_two_edge_cut_oracle(g: Graph):
    """The first pair of edges, in lexicographic order of ascending ids,
    whose removal disconnects g, as (side of the lowest vertex, the rest,
    the pair), or None: every pair is removed from a copy in turn and split
    by components_oracle."""
    for pair in combinations(g.edges(), 2):
        h = g.copy()
        for e in pair:
            h.remove_edge(e)
        parts = components_oracle(h)
        if len(parts) > 1:
            return parts[0], sorted(v for part in parts[1:] for v in part), list(pair)
    return None


def min_cut_size_oracle(g: Graph) -> int:
    """Edge connectivity of a connected multigraph with at least two vertices,
    by networkx's Stoer-Wagner minimum cut with edge multiplicities as weights."""
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    for e in g.edges():
        u, v = g.endpoints(e)
        weight = h[u][v]["weight"] + 1 if h.has_edge(u, v) else 1
        h.add_edge(u, v, weight=weight)
    return nx.stoer_wagner(h)[0]


def brute_has_configuration(g: Graph, kind: str) -> bool:
    verts = g.vertices()
    adj = {v: set(g.neighbors(v)) for v in verts}

    if kind == "multi-edge":
        seen = set()
        for e in g.edges():
            u, v = g.endpoints(e)
            key = (min(u, v), max(u, v))
            if key in seen:
                return True
            seen.add(key)
        return False
    if kind == "triangle":
        return any(b in adj[a] and c in adj[a] and c in adj[b]
                   for a, b, c in combinations(verts, 3))
    if kind == "c4":
        for quad in permutations(verts, 4):
            if quad[0] != min(quad):
                continue
            a, b, c, d = quad
            if b in adj[a] and c in adj[b] and d in adj[c] and a in adj[d]:
                return True
        return False
    if kind == "c5":
        for tup in permutations(verts, 5):
            if tup[0] != min(tup):
                continue
            if all(tup[(i + 1) % 5] in adj[tup[i]] for i in range(5)):
                return True
        return False
    if kind in ("k23", "k24", "k33"):
        a_size, b_size = {"k23": (3, 2), "k24": (4, 2), "k33": (3, 3)}[kind]
        for aset in combinations(verts, a_size):
            for bset in combinations(verts, b_size):
                if set(aset) & set(bset):
                    continue
                if all(b in adj[a] for a in aset for b in bset):
                    return True
        return False
    raise ValueError(kind)


def brute_chromatic(adj: list) -> int:
    """Chromatic number by plain backtracking over vertices in id order."""
    n = len(adj)
    if n == 0:
        return 0

    def colorable(k):
        colors = [0] * n

        def rec(i):
            if i == n:
                return True
            used = {colors[j] for j in adj[i] if j < i}
            for c in range(1, k + 1):
                if c not in used:
                    colors[i] = c
                    if rec(i + 1):
                        return True
            colors[i] = 0
            return False

        return rec(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def brute_chromatic_check(adj: list, k: int) -> bool:
    """Whether the graph given by adjacency lists is k-colorable."""
    n = len(adj)
    colors = [0] * n

    def rec(i):
        if i == n:
            return True
        used = {colors[j] for j in adj[i] if j < i}
        for c in range(1, k + 1):
            if c not in used:
                colors[i] = c
                if rec(i + 1):
                    return True
        colors[i] = 0
        return False

    return rec(0)


def brute_distinct_assignment(avail: dict):
    """Exhaustive search for a distinct-representative assignment.

    Returns a dict or None; independent of the matching-based implementation.
    """
    targets = sorted(avail)

    def rec(i, used, acc):
        if i == len(targets):
            return dict(acc)
        t = targets[i]
        for c in sorted(avail[t]):
            if c in used:
                continue
            acc[t] = c
            result = rec(i + 1, used | {c}, acc)
            if result is not None:
                return result
            del acc[t]
        return None

    return rec(0, frozenset(), {})


def complete_with_palette(g: Graph, col: dict, targets, k: int):
    """The colors the solver's short-cycle completion gives the targets under
    a k-color palette, or None when it falls back (col is left unchanged)."""
    from unittest import mock
    from strongedge import reduction
    work = dict(col)
    with mock.patch.object(reduction, "PALETTE", k):
        try:
            reduction._Solver()._complete_targets(g, work, targets, 0)
        except reduction.FallbackTriggered:
            assert work == col
            return None
    return {t: work[t] for t in targets}


def strong_adjacency(g: Graph):
    """Adjacency lists of the seeing-relation graph over 0..m-1 edge indices,
    from seen_edges rather than the library's neighbourhood code."""
    eids = g.edges()
    index = {e: i for i, e in enumerate(eids)}
    adj = [set() for _ in eids]
    for i, e in enumerate(eids):
        for f in seen_edges(g, e):
            adj[i].add(index[f])
    return [sorted(s) for s in adj]


def seen_edges(g: Graph, e: int) -> set:
    """Edges that e sees: every other edge with an end in the closed
    neighbourhood of e's ends."""
    ends = set(g.endpoints(e))
    near = ends.union(*(g.neighbors(a) for a in ends))
    return {f for w in near for f in g.incident(w)} - {e}


def is_2k2_free(g: Graph) -> bool:
    """True iff every pair of edges shares an endpoint or is joined by an edge."""
    eids = g.edges()
    nbr = {v: set(g.neighbors(v)) for v in g.vertices()}
    for i, e in enumerate(eids):
        u1, v1 = g.endpoints(e)
        for f in eids[i + 1:]:
            u2, v2 = g.endpoints(f)
            if u2 in (u1, v1) or v2 in (u1, v1):
                continue
            if u2 in nbr[u1] or u2 in nbr[v1] or v2 in nbr[u1] or v2 in nbr[v1]:
                continue
            return False
    return True


def audit_sequence(g: Graph, plan) -> dict:
    """Rule checks for a plan from build_precolor_and_sequence: the seed size
    and validity, the tail as suffix, at least four later sequence edges seen
    by each body edge, and the most sequence edges any outside edge sees."""
    psi = plan.precolor
    seq = set(plan.order)
    position = {e: i for i, e in enumerate(plan.order)}
    body_ok = True
    for e in plan.order[:-len(plan.tail)]:
        behind = sum(1 for f in seen_edges(g, e)
                     if f in position and position[f] > position[e])
        if behind < 4:
            body_ok = False
    outside_max = 0
    for e in g.edges():
        if e in seq or psi.color(e) is not None:
            continue
        outside_max = max(outside_max, len(seen_edges(g, e) & seq))
    good, _ = verify_oracle(g, psi)
    return {
        "precolored_edges": len(psi.colored()),
        "precolor_valid": good,
        "tail_is_suffix": plan.order[-len(plan.tail):] == plan.tail,
        "rule_behind_ok": body_ok,
        "outside_max_seen": outside_max,
    }


def collaborative_cases(trace) -> list[str]:
    """The case of each collaborative step in a solve21 trace, in order."""
    return [s.params.split("case=", 1)[1].split()[0]
            for s in trace.steps if s.tag == "collaborative"]


def peel_order_oracle(g: Graph, base_edges: int) -> list[int]:
    """Vertices in the order one low-degree peel removes them: the lowest id
    of degree at most three, again and again, while more than `base_edges`
    edges remain.  Degrees are counted here from the edge list; a removal
    lowers a neighbour's count once per shared edge, so a double edge drops
    it by two."""
    ends = [g.endpoints(e) for e in g.edges()]
    deg = dict.fromkeys(g.vertices(), 0)
    for a, b in ends:
        deg[a] += 1
        deg[b] += 1
    order = []
    while len(ends) > base_edges:
        v = min((u for u, d in deg.items() if d <= 3), default=None)
        if v is None:
            break
        order.append(v)
        for a, b in ends:
            if v in (a, b):
                deg[a + b - v] -= 1
        ends = [p for p in ends if v not in p]
        del deg[v]
    return order


# -- replaced implementations, kept as differential oracles ---------------------


def _find_multi_edge(g: Graph):
    seen: dict[tuple[int, int], int] = {}
    for e in g.edges():
        u, v = g.endpoints(e)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return Configuration(MULTI_EDGE, [key[0], key[1]])
        seen[key] = e
    return None


def _find_triangle(g: Graph):
    for e in g.edges():
        u, v = g.endpoints(e)
        common = sorted(set(g.neighbors(u)) & set(g.neighbors(v)))
        if common:
            a, b = (u, v) if u < v else (v, u)
            return Configuration(TRIANGLE, sorted([a, b, common[0]]))
    return None


def _pairs_with_common(g: Graph, need: int):
    """Vertex pairs (a < b) with at least `need` common neighbors."""
    for a in g.vertices():
        na = set(g.neighbors(a))
        candidates = sorted({w for n in na for w in g.neighbors(n)})
        for b in candidates:
            if b <= a:
                continue
            common = sorted(na & set(g.neighbors(b)) - {a, b})
            if len(common) >= need:
                yield a, b, common


def _find_k23(g: Graph):
    for a, b, common in _pairs_with_common(g, 3):
        return Configuration(K23, common[:3] + [a, b])
    return None


def _find_k24(g: Graph):
    for a, b, common in _pairs_with_common(g, 4):
        return Configuration(K24, common[:4] + [a, b])
    return None


def _find_k33(g: Graph):
    for v1 in g.vertices():
        for triple in combinations(g.neighbors(v1), 3):
            common = set(g.neighbors(triple[0]))
            common &= set(g.neighbors(triple[1]))
            common &= set(g.neighbors(triple[2]))
            common.discard(v1)
            common -= set(triple)
            if len(common) >= 2:
                others = sorted(common)[:2]
                return Configuration(K33, list(triple) + sorted([v1] + others))
    return None


def _find_c4(g: Graph):
    for a, b, common in _pairs_with_common(g, 2):
        p, q = common[0], common[1]
        return Configuration(C4, [a, p, b, q])
    return None


def _find_c5(g: Graph):
    for a in g.vertices():
        for b in g.neighbors(a):
            if b <= a:
                continue
            for c in g.neighbors(b):
                if c == a or c <= a:
                    continue
                for d in g.neighbors(c):
                    if d in (a, b) or d <= a:
                        continue
                    for e in g.neighbors(d):
                        if e in (a, b, c) or e <= b:
                            continue
                        if g.adjacent(e, a):
                            return Configuration(C5, [a, b, c, d, e])
    return None


_FINDERS = {
    MULTI_EDGE: _find_multi_edge,
    TRIANGLE: _find_triangle,
    K33: _find_k33,
    K24: _find_k24,
    K23: _find_k23,
    C4: _find_c4,
    C5: _find_c5,
}


def first_configuration_oracle(g: Graph, *kinds: str):
    """The first embedding of the first kind in `kinds` that g contains, by
    the one-scan-per-kind finders that find_configuration replaced; None when
    all are absent."""
    for kind in kinds:
        conf = _FINDERS[kind](g)
        if conf is not None:
            return conf
    return None


def verify_oracle(g: Graph, coloring):
    """Check that no two same-colored edges see each other, by the sorted
    per-edge neighbourhood scan that verify_strong_coloring replaced.  The
    neighbourhoods come from seen_edges, so no library neighbourhood code is
    involved in the check.

    Returns (True, None) or (False, (e, f)) with the first offending pair in
    ascending id order.  Edges colored outside 1..k are impossible by
    construction of PartialColoring.
    """
    assign = coloring._assign
    for e in sorted(assign):
        ce = assign[e]
        for f in sorted(seen_edges(g, e)):
            if f > e and assign.get(f) == ce:
                return False, (e, f)
    return True, None


def induced_subgraph_oracle(g: Graph, vertices) -> Graph:
    """Graph.induced_subgraph as it was: one pass over every edge of g."""
    keep = set(vertices)
    h = Graph(0)
    h._adj = {v: [] for v in sorted(keep)}
    for e in g.edges():
        u, v = g._edges[e]
        if u in keep and v in keep:
            h._edges[e] = (u, v)
            h._adj[u].append(e)
            h._adj[v].append(e)
    h._next_vertex = g._next_vertex
    h._next_edge = g._next_edge
    return h


def components_oracle(g: Graph) -> list[list[int]]:
    """Graph.components as it was: a deque BFS through other_end."""
    seen: set[int] = set()
    comps = []
    for root in g.vertices():
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for e in g._adj[u]:
                w = g.other_end(e, u)
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def greedy_clique_oracle(adj: list) -> list[int]:
    """coloring._greedy_clique as it was: set intersections over the whole
    adjacency, from each of the eight vertices of largest degree."""
    best: list[int] = []
    order = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    for start in order[:8]:
        clique = [start]
        candidates = set(adj[start])
        while candidates:
            v = min(candidates, key=lambda w: (-len(adj[w] & candidates), w))
            clique.append(v)
            candidates &= adj[v]
        if len(clique) > len(best):
            best = sorted(clique)
    return best


def greedy_seed_oracle(adj: list) -> list[int]:
    """coloring._greedy_seed as it was, over the squared line graph: the
    smallest free color for each vertex of adj, largest degree first, ties to
    the lower index.  It was the exact solver's incumbent and solve21's base
    case.  Its palette was len(adj), which a vertex of at most len(adj) - 1
    neighbours never exhausts, so the None of its smallest-free-color step
    is left out."""
    colors = [0] * len(adj)
    for v in sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v)):
        shown = {colors[w] for w in adj[v]}
        c = 1
        while c in shown:
            c += 1
        colors[v] = c
    return colors


def sequence_plan_oracle(g: Graph, x: int) -> tuple[dict, list, list, int]:
    """The seed, tail and order of build_precolor_and_sequence at anchor x as
    it grew them from a per-edge neighbourhood map, here seen_edges: each
    queued edge's neighbourhood walked in ascending order, and an edge queued
    the moment four sequence edges are in it.  Returns the seed's edge->color
    dict, the tail, the order and the most edges one queued edge brought in."""
    def kids(v, parent):
        return sorted(set(g.neighbors(v)) - {parent})

    def eid(a, b):
        (e,) = g.edges_between(a, b)
        return e

    u, v, w, y = sorted(g.neighbors(x))
    precolor = {}
    for i, c in enumerate(kids(u, x)):
        precolor[eid(u, c)] = i + 1
    for i, c in enumerate(kids(v, x)):
        precolor[eid(v, c)] = i + 1
    w1, w2, w3 = kids(w, x)
    precolor[eid(w, w1)] = 1
    tail = [eid(w2, kids(w2, w)[0]), eid(w3, kids(w3, w)[0]), eid(w, w2), eid(w, w3),
            eid(x, u), eid(x, v), eid(x, y), eid(x, w)]

    count = dict.fromkeys(g.edges(), 0)
    in_seq = set(tail)
    queue = list(tail)
    most = 0
    for f in queue:
        before = len(queue)
        for e in sorted(seen_edges(g, f)):
            if e in in_seq or e in precolor:
                continue
            count[e] += 1
            if count[e] == 4:
                in_seq.add(e)
                queue.append(e)
        most = max(most, len(queue) - before)
    return precolor, tail, queue[len(tail):][::-1] + tail, most


def extend_sequence_oracle(g: Graph, plan) -> dict:
    """extend_sequence as it colored from the per-edge neighbourhood map, here
    seen_edges: the smallest free color of 1..21 edge by edge, with the donor
    move at a stall of the tail's first two edges.  Returns the edge->color
    dict, or raises FallbackTriggered with the same reason."""
    from strongedge.reduction import FallbackTriggered
    col = plan.precolor.as_dict()
    labels = plan.labels
    w = labels.w
    (e_ww1,) = g.edges_between(w, labels.children[w][0])
    allowed_stalls = {plan.tail[0], plan.tail[1]}
    flush_after = plan.tail[1]
    pending_recolor = None

    def first_free(e):
        shown = {col[f] for f in seen_edges(g, e) if f in col}
        c = 1
        while c in shown:
            c += 1
        return c if c <= 21 else None

    for e in plan.order:
        c = first_free(e)
        if c is not None:
            col[e] = c
        else:
            if e not in allowed_stalls:
                raise FallbackTriggered(f"sequence stalled at edge {e}")
            moved = col.get(e_ww1)
            if moved is None:
                raise FallbackTriggered("sequence stalled twice; donor edge already moved")
            del col[e_ww1]
            if any(col.get(f) == moved for f in seen_edges(g, e)):
                raise FallbackTriggered("donor color still blocked after removal")
            col[e] = moved
            pending_recolor = e_ww1
        if pending_recolor is not None and e in (flush_after, plan.order[-1]):
            c = first_free(pending_recolor)
            if c is None:
                raise FallbackTriggered(f"no color available for edge {pending_recolor}"
                                        " during recolor of moved seed edge")
            col[pending_recolor] = c
            pending_recolor = None
    return col


def exact_search_oracle(g: Graph, budget=None, stop_at=None) -> ExactResult:
    """coloring.exact_strong_index as it was, with a set-up of its own: the
    squared line graph from strong_adjacency, the clique from
    greedy_clique_oracle and the incumbent from greedy_seed_oracle, then a
    search that keeps, per vertex of the squared line graph, a set of seen
    colors as an int and a score, saturation * (m + 1) + degree, and branches
    on the first maximum score; each frame lists the neighbours its color
    saturated.  Returns the same ExactResult, node for node."""
    if budget is not None and budget < 0:
        raise ValueError("budget must be non-negative")
    eids = g.edges()
    m = len(eids)
    if m == 0:
        return ExactResult(0, 0, PartialColoring(0), True, 0)
    adj = [set(s) for s in strong_adjacency(g)]
    clique = greedy_clique_oracle(adj)
    lower = max(len(clique), 1)
    best = greedy_seed_oracle(adj)
    upper = max(best)

    if lower == upper or (stop_at is not None and upper <= stop_at):
        return ExactResult(lower, upper, PartialColoring(upper, dict(zip(eids, best))),
                           lower == upper, 0)

    # seen[v]: bit c set when a colored neighbour of v has color c.  score[v]:
    # saturation * (m + 1) + degree while v is uncolored, -1 once colored, so
    # the first maximum is the branching edge of largest (saturation, degree)
    # and lowest index.
    colors = [0] * m
    seen = [0] * m
    for pos, v in enumerate(clique):
        colors[v] = pos + 1
        for w in adj[v]:
            seen[w] |= 1 << (pos + 1)
    step = m + 1
    score = [-1 if colors[v] else seen[v].bit_count() * step + len(adj[v])
             for v in range(m)]

    # The search tree is walked with an explicit stack, one frame per edge
    # being branched on: [edge, its score, colors in use above it, the color
    # it has now, the neighbours that color saturated].  A frame's cap is read
    # from the current upper on every retry, so once a better coloring is
    # found no frame tries a color that cannot beat it.
    nodes = 0
    complete = True
    stack = []
    used = len(clique)
    while True:
        if budget is not None and nodes >= budget:
            complete = False
            break
        nodes += 1
        top = max(score)
        if top >= 0:
            v = score.index(top)
            score[v] = -1
            stack.append([v, top, used, 0, ()])
        else:
            # every color on the path is below upper, so each leaf beats it
            upper = used
            best = list(colors)
            if upper == lower:
                break
            if stop_at is not None and upper <= stop_at:
                complete = False
                break
        # Undo the color of the deepest frame and try its next one below the
        # cap; a frame with no color left, or whose colors above already reach
        # upper, is popped, and an empty stack ends the search.
        while stack:
            frame = stack[-1]
            v, _, used, c, touched = frame
            if c:
                colors[v] = 0
                bit = 1 << c
                for w in touched:
                    seen[w] ^= bit
                    score[w] -= step
            cap = min(used + 1, upper - 1) if used < upper else 0
            # the lowest color above c that no colored neighbour has
            free = ~seen[v] >> (c + 1)
            c += (free & -free).bit_length()
            if c > cap:
                score[v] = frame[1]
                stack.pop()
                continue
            colors[v] = c
            bit = 1 << c
            touched = [w for w in adj[v] if not colors[w] and not seen[w] & bit]
            for w in touched:
                seen[w] |= bit
                score[w] += step
            frame[3], frame[4] = c, touched
            used = max(used, c)
            break
        else:
            break

    exact = complete or lower == upper
    witness = PartialColoring(upper, {eids[i]: best[i] for i in range(m)})
    return ExactResult(lower if not exact else upper, upper, witness, exact, nodes)


def _kids(g: Graph, v: int, parent: int) -> list[int]:
    return sorted(set(g.neighbors(v)) - {parent})


def mark_children_oracle(solver, g: Graph, part, labels, zi: int) -> list[int]:
    """_Solver._mark_children as it was before it took an outward child:
    zi's children, crossing child first, outward child last, returned rather
    than set.  `solver` is a _Solver, for its _branch_of."""
    parent = solver._branch_of(labels, zi)
    ks = _kids(g, zi, parent)
    lk = sorted(c for c in ks if c in part.left)
    rk = sorted(c for c in ks if c in part.right)
    if len(lk) == 2:
        return [lk[0], lk[1], rk[0]]
    full = [c for c in rk if part.right_degree(g, c) == 3]
    k3 = full[0] if full else rk[0]
    k2 = [c for c in rk if c != k3][0]
    return [lk[0], k2, k3]


def relabel_partner_oracle(g: Graph, part, labels, partner: int, hub: int,
                           branch_vertex: int) -> None:
    """_Solver._relabel_partner as it was, with the branch passed in: partner
    first among branch_vertex's children, and partner's kids ordered with
    the lowest crossing child first and hub last."""
    ks = labels.children[branch_vertex]
    labels.children[branch_vertex] = [partner] + [c for c in ks if c != partner]
    kids = _kids(g, partner, branch_vertex)
    lk = min(c for c in kids if c in part.left)
    middle = sorted(set(kids) - {hub, lk})
    labels.children[partner] = [lk, middle[0], hub]


def pairing_model_oracle(d: int, n: int, seed: int) -> Graph:
    """gen_random_regular as it was: a fresh stub list and `rng.shuffle` on
    every try, and no degree bound beyond what PAIRING_TRIES gives up on."""
    if (d * n) % 2 != 0:
        raise ValueError("d * n must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    _check_generated_size(n, n * d // 2)
    rng = random.Random(seed)
    for _ in range(PAIRING_TRIES):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edges:
                ok = False
                break
            edges.add(key)
        if ok:
            g = Graph(n)
            for u, v in sorted(edges):
                g.add_edge(u, v)
            return g
    raise RuntimeError(f"pairing model failed after {PAIRING_TRIES} tries "
                       f"(d={d}, n={n}, seed={seed})")

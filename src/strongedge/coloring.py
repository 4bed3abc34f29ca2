"""Partial strong colorings, availability bookkeeping, and solvers.

Colors are integers 1..k.  Two edges "see" each other when they share an
endpoint or an edge joins their endpoint sets; a strong edge-coloring gives
distinct colors to every seeing pair, so each color class is an induced
matching.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph import Graph, _json_int


class PartialColoring:
    """Edge-id -> color assignment over a palette 1..k.

    Validity (no seeing pair shares a color) is not enforced on assignment;
    use verify_strong_coloring to check it.
    """

    __slots__ = ("k", "_assign")

    def __init__(self, k: int, assignment=None):
        if k < 0:
            raise ValueError("palette size must be non-negative")
        self.k = k
        self._assign: dict[int, int] = {}
        if assignment:
            for e, c in assignment.items():
                self.assign(e, c)

    def assign(self, e: int, color: int) -> None:
        if not 1 <= color <= self.k:
            raise ValueError(f"color {color} outside palette 1..{self.k}")
        self._assign[e] = color

    def unassign(self, e: int) -> None:
        del self._assign[e]

    def color(self, e: int):
        return self._assign.get(e)

    def colored(self) -> list[int]:
        return sorted(self._assign)

    def as_dict(self) -> dict[int, int]:
        return dict(self._assign)

    def copy(self) -> "PartialColoring":
        c = PartialColoring(self.k)
        c._assign = dict(self._assign)
        return c

    def num_colored(self) -> int:
        return len(self._assign)

    def colors_used(self) -> set[int]:
        return set(self._assign.values())

    def __eq__(self, other):
        return (isinstance(other, PartialColoring)
                and self.k == other.k and self._assign == other._assign)

    def __repr__(self):
        return f"PartialColoring(k={self.k}, colored={len(self._assign)})"


def edge_neighborhood(g: Graph, e: int) -> frozenset:
    """Edges seen by e: those sharing an endpoint with e and those at a vertex
    adjacent to one of its endpoints.

    With maximum degree four there are at most 24.
    """
    u, v = g.endpoints(e)
    seen = set(g.incident(u) + g.incident(v))
    near = set()
    for f in seen:
        near.update(g.endpoints(f))
    near -= {u, v}
    for w in near:
        seen.update(g.incident(w))
    seen.discard(e)
    return frozenset(seen)


def sees(g: Graph, e: int, f: int) -> bool:
    """True iff edges e and f see each other (share or are joined by an edge)."""
    if e == f:
        return False
    u1, v1 = g.endpoints(e)
    u2, v2 = g.endpoints(f)
    if u2 in (u1, v1) or v2 in (u1, v1):
        return True
    return (g.adjacent(u1, u2) or g.adjacent(u1, v2)
            or g.adjacent(v1, u2) or g.adjacent(v1, v2))


def colors_seen(g: Graph, assignment: dict[int, int], e: int) -> set[int]:
    """Colors appearing on the neighborhood of e under a raw edge->color dict."""
    return {assignment[f] for f in edge_neighborhood(g, e) if f in assignment}


def available_colors(g: Graph, assignment: dict[int, int], e: int, k: int) -> set[int]:
    return set(range(1, k + 1)) - colors_seen(g, assignment, e)


def verify_strong_coloring(g: Graph, coloring: PartialColoring):
    """Check that every color class is an induced matching.

    One map from each vertex and color to the two lowest edge ids of that
    color at that vertex marks the class endpoints.  Two same-colored edges
    conflict when some edge of g, colored or not, joins an endpoint of one to
    an endpoint of the other, so one pass over g's edges, pairing the class
    edges marked at its two ends, finds every conflict.  Two class edges that
    share an endpoint are paired by the pass over either of them.  The
    smallest conflicting pair across one edge uses only the two lowest class
    edges at each end, so each edge costs O(colors at its sparser end),
    however many edges share a color at a vertex.  Nothing here uses
    edge_neighborhood.

    Returns (True, None) or (False, (e, f)) where e < f is the smallest
    conflicting pair.  Edges colored outside 1..k are impossible by
    construction of PartialColoring.
    """
    assign = coloring._assign
    marks: dict[int, dict[int, list[int]]] = {}
    for e in sorted(assign):
        for v in g.endpoints(e):
            low = marks.setdefault(v, {}).setdefault(assign[e], [])
            if len(low) < 2:
                low.append(e)
    best = None
    for e in g.edges():
        u, v = g.endpoints(e)
        at_u, at_v = marks.get(u), marks.get(v)
        if not at_u or not at_v:
            continue
        if len(at_v) < len(at_u):
            at_u, at_v = at_v, at_u
        for c, xs in at_u.items():
            for y in at_v.get(c, ()):
                for x in xs:
                    if x != y:
                        pair = (x, y) if x < y else (y, x)
                        if best is None or pair < best:
                            best = pair
    return (True, None) if best is None else (False, best)


def greedy_color(g: Graph, k: int, order=None):
    """Color edges in order with the smallest available color.

    Returns (coloring, failed_edge); failed_edge is None on full success and
    otherwise the first edge whose availability was empty (coloring then holds
    the partial result up to that point).  With k >= 2*D*D - 2*D + 1 for max
    degree D the greedy pass always completes.
    """
    eids = g.edges()
    if order is None:
        order = eids
    elif sorted(order) != eids:
        raise ValueError("order must be a permutation of the edge ids")
    coloring = PartialColoring(k)
    for e in order:
        avail = available_colors(g, coloring._assign, e, k)
        if not avail:
            return coloring, e
        coloring._assign[e] = min(avail)
    return coloring, None


# -- SDR extension -------------------------------------------------------------


@dataclass
class SdrResult:
    """Outcome of a distinct-representatives extension attempt."""

    coloring: object = None          # PartialColoring on success, else None
    assigned: dict = field(default_factory=dict)
    deficient: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.coloring is not None


def _match_distinct(targets: list[int], avail: dict[int, set[int]]):
    """Kuhn's augmenting-path matching of targets to distinct colors.

    Returns (assignment, None) when every target is matched, otherwise
    (None, deficient_targets) where the deficient set violates Hall's
    condition.
    """
    color_owner: dict[int, int] = {}
    assigned: dict[int, int] = {}

    def try_assign(t, visited):
        for c in sorted(avail[t]):
            if c in visited:
                continue
            visited.add(c)
            if c not in color_owner or try_assign(color_owner[c], visited):
                color_owner[c] = t
                assigned[t] = c
                return True
        return False

    exposed = None
    for t in targets:
        if not try_assign(t, set()):
            exposed = t
            break
    if exposed is None:
        return assigned, None
    # Alternating reachability from the exposed target gives a Hall violator.
    reach = {exposed}
    frontier = [exposed]
    while frontier:
        nxt = []
        for t in frontier:
            for c in avail[t]:
                owner = color_owner.get(c)
                if owner is not None and owner not in reach:
                    reach.add(owner)
                    nxt.append(owner)
        frontier = nxt
    return None, sorted(reach)


def match_targets(g: Graph, assignment: dict[int, int], targets, k: int):
    """Match the target edges to pairwise-distinct colors available in 1..k.

    Returns (assignment, None) when every target is matched, otherwise
    (None, deficient_targets), the targets that violate Hall's condition.
    Distinctness makes the matched targets mutually safe, so adding the
    assignment to a good partial coloring keeps it good.
    """
    targets = sorted(targets)
    avail = {t: available_colors(g, assignment, t, k) for t in targets}
    return _match_distinct(targets, avail)


def sdr_extend(g: Graph, coloring: PartialColoring, targets) -> SdrResult:
    """Give the target edges pairwise-distinct colors from their availability.

    Succeeds exactly when a system of distinct representatives exists; on
    failure the deficient target subset witnesses the Hall violation.
    """
    targets = sorted(targets)
    for t in targets:
        if coloring.color(t) is not None:
            raise ValueError(f"target edge {t} is already colored")
    assigned, deficient = match_targets(g, coloring._assign, targets, coloring.k)
    if assigned is None:
        return SdrResult(None, {}, deficient)
    out = coloring.copy()
    out._assign.update(assigned)
    return SdrResult(out, assigned, [])


def line_graph_square(g: Graph) -> list[set[int]]:
    """Neighbour sets of the graph on the edges of g, adjacent iff they see
    each other.

    Index i stands for the i-th edge of g in ascending edge-id order.
    """
    eids = g.edges()
    index = {e: i for i, e in enumerate(eids)}
    return [{index[f] for f in edge_neighborhood(g, e)} for e in eids]


# -- exact solver ---------------------------------------------------------------


@dataclass
class ExactResult:
    """Exact strong chromatic index, or bounds when the node budget ran out."""

    lower: int
    upper: int
    coloring: PartialColoring
    exact: bool
    nodes: int

    @property
    def value(self):
        return self.upper if self.exact else None


def _greedy_clique(adj: list[set[int]]) -> list[int]:
    n = len(adj)
    if n == 0:
        return []
    best: list[int] = []
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
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


class _Budget(Exception):
    pass


class _StopEarly(Exception):
    pass


def exact_strong_index(g: Graph, budget=None, stop_at=None) -> ExactResult:
    """Exact strong chromatic index via branch and bound on the edge graph.

    Branches DSATUR-style on the uncolored edge with the fewest choices,
    breaking color symmetry by capping new colors at one past the maximum in
    use, with a greedy clique as lower bound.  When `budget` search nodes are
    exhausted the result carries bounds and exact=False; the coloring witness
    always verifies.  With stop_at set, the search halts as soon as the
    incumbent uses at most stop_at colors (useful when any small coloring
    will do).
    """
    eids = g.edges()
    m = len(eids)
    if m == 0:
        return ExactResult(0, 0, PartialColoring(0), True, 0)
    adj = line_graph_square(g)

    clique = _greedy_clique(adj)
    lower = max(len(clique), 1)

    # greedy seed for the incumbent
    colors = [0] * m
    order = sorted(range(m), key=lambda v: (-len(adj[v]), v))
    for v in order:
        used = {colors[w] for w in adj[v]}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    upper = max(colors)
    best = list(colors)

    if lower == upper or (stop_at is not None and upper <= stop_at):
        exact = lower == upper
        witness = PartialColoring(upper, {eids[i]: best[i] for i in range(m)})
        return ExactResult(lower if not exact else upper, upper, witness, exact, 0)

    colors = [0] * m
    neighbor_colors = [set() for _ in range(m)]
    for pos, v in enumerate(clique):
        colors[v] = pos + 1
        for w in adj[v]:
            neighbor_colors[w].add(pos + 1)

    nodes = 0
    complete = True

    def choose():
        pick, key = None, None
        for v in range(m):
            if colors[v]:
                continue
            kv = (len(neighbor_colors[v]), len(adj[v]))
            if pick is None or kv > key:
                pick, key = v, kv
        return pick

    def backtrack(used_count):
        nonlocal upper, best, nodes
        if budget is not None and nodes >= budget:
            raise _Budget()
        nodes += 1
        v = choose()
        if v is None:
            if used_count < upper:
                upper = used_count
                best = list(colors)
            if stop_at is not None and upper <= stop_at:
                raise _StopEarly()
            return
        cap = min(upper - 1, used_count + 1)
        for c in range(1, cap + 1):
            if c in neighbor_colors[v]:
                continue
            colors[v] = c
            touched = []
            for w in adj[v]:
                if not colors[w] and c not in neighbor_colors[w]:
                    neighbor_colors[w].add(c)
                    touched.append(w)
            backtrack(max(used_count, c))
            colors[v] = 0
            for w in touched:
                neighbor_colors[w].remove(c)
            if upper == lower:
                return

    try:
        backtrack(len(clique))
    except (_Budget, _StopEarly):
        complete = False

    exact = complete or lower == upper
    witness = PartialColoring(upper, {eids[i]: best[i] for i in range(m)})
    return ExactResult(lower if not exact else upper, upper, witness, exact, nodes)


def bounds(delta: int) -> tuple[int, int]:
    """Greedy and conjectured palette sizes for maximum degree delta.

    Greedy: 2*D*D - 2*D + 1.  Conjectured: 5*D*D/4 for even D and
    (5*D*D - 2*D + 1)/4 for odd D, both exact integers.
    """
    if delta < 1:
        raise ValueError("delta must be at least 1")
    greedy = 2 * delta * delta - 2 * delta + 1
    if delta % 2 == 0:
        conjectured = 5 * delta * delta // 4
    else:
        conjectured = (5 * delta * delta - 2 * delta + 1) // 4
    return greedy, conjectured


# -- coloring JSON ---------------------------------------------------------------


def coloring_to_json(coloring: PartialColoring) -> str:
    colors = {str(e): coloring.color(e) for e in coloring.colored()}
    return json.dumps({"k": coloring.k, "colors": colors}, sort_keys=True)


def coloring_from_json(text: str) -> PartialColoring:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("coloring JSON must be an object")
    colors = data["colors"]
    if not isinstance(colors, dict):
        raise ValueError("coloring JSON 'colors' must be an object")
    c = PartialColoring(_json_int(data["k"], "'k'"))
    for e, col in colors.items():
        c.assign(int(e), _json_int(col, f"the color of edge {e}"))
    return c

"""Partial strong colorings, the verifier, and the greedy and exact solvers.

Colors are integers 1..k.  Two edges "see" each other when they share an
endpoint or an edge joins their endpoint sets; a strong edge-coloring gives
distinct colors to every seeing pair, so each color class is an induced
matching.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .graph import Graph, _is_canonical_decimal, _json_field, _json_int, _unique_keys


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

    def color(self, e: int):
        return self._assign.get(e)

    def colored(self) -> list[int]:
        return sorted(self._assign)

    def as_dict(self) -> dict[int, int]:
        return dict(self._assign)

    def colors_used(self) -> set[int]:
        return set(self._assign.values())

    def __eq__(self, other):
        return (isinstance(other, PartialColoring)
                and self.k == other.k and self._assign == other._assign)

    def __repr__(self):
        return f"PartialColoring(k={self.k}, colored={len(self._assign)})"


def _ball(g: Graph, at: list) -> frozenset:
    """The edges at an end of an edge in `at`, read straight from the
    adjacency.  With `at` the edges at x this is B(x), the edges at x or at a
    neighbour of x; with the edges at u and at v, B(u) | B(v)."""
    adj, ends = g._adj, g._edges
    near = set(chain.from_iterable(map(ends.__getitem__, at)))
    return frozenset(chain.from_iterable(map(adj.__getitem__, near)))


def edge_neighborhood(g: Graph, e: int) -> frozenset:
    """Edges seen by e = uv: B(u) | B(v) without e.

    With maximum degree four there are at most 24.  An unknown edge id raises
    ValueError.  Callers that need many neighbourhoods of one graph build
    one _ball per vertex, or color through _first_fit's per-vertex masks;
    verify_strong_coloring uses none of these.
    """
    adj, ends = g._adj, g._edges
    if e not in ends:
        raise ValueError(f"unknown edge id {e}")
    u, v = ends[e]
    return _ball(g, adj[u] + adj[v]) - {e}


def _first_fit(g: Graph, assign: dict[int, int], order, k: int):
    """Give each edge of `order`, in turn, the smallest color of 1..k on none
    of the edges it sees, on top of the raw edge->color dict `assign`.

    Returns the first edge left with no free color, the edges before it
    colored, or None.  One pass builds, for each vertex x, its closed
    neighbourhood N[x] and a bit mask of the colors on x's colored edges,
    with bit 0 always set.  The edges e = uv sees are the other edges with an
    end in N[u] | N[v], so the OR of those masks holds exactly the colors e
    sees while e is uncolored, and its lowest clear bit is e's color.
    Coloring e sets that bit at u and at v.
    """
    adj, ends = g._adj, g._edges
    near = {}
    for x, es in adj.items():
        near[x] = closed = {x}
        for f in es:
            closed.update(ends[f])
    mask = dict.fromkeys(adj, 1)
    for f, c in assign.items():
        if f in ends:
            u, v = ends[f]
            mask[u] |= 1 << c
            mask[v] |= 1 << c
    for e in order:
        u, v = ends[e]
        seen = 0
        for x in near[u]:
            seen |= mask[x]
        for x in near[v]:
            seen |= mask[x]
        bit = ~seen & (seen + 1)
        c = bit.bit_length() - 1
        if c > k:
            return e
        assign[e] = c
        mask[u] |= bit
        mask[v] |= bit
    return None


@lru_cache(maxsize=4)
def _palette(k: int) -> frozenset:
    return frozenset(range(1, k + 1))


def available_colors(g: Graph, assignment: dict[int, int], e: int, k: int) -> frozenset:
    """Colors of 1..k on no edge that e sees, under a raw edge->color dict:
    the solver's one query for a single edge, as _first_fit is for orders."""
    return _palette(k) - {assignment[f] for f in edge_neighborhood(g, e)
                          if f in assignment}


def verify_strong_coloring(g: Graph, coloring: PartialColoring):
    """Check that every color class is an induced matching.

    The decision reads one set per vertex, S(x): the colors of the colored
    edges at x.  Two same-colored edges conflict when they share an endpoint
    or some edge of g, colored or not, joins an endpoint of one to an
    endpoint of the other.  So the coloring is valid exactly when no vertex
    repeats a color, that is the sizes of the S(x) sum to twice the number of
    colored edges, and S(u) & S(v) holds, for each edge uv, only the colors
    of the colored u-v edges.  In a simple graph that is uv's own color, or
    nothing when uv is uncolored; the parallel u-v edges are counted only
    when a set intersection is larger than that.  The decision costs
    O(sum of degrees + sum over edges uv of min(|S(u)|, |S(v)|)), and
    O(deg u) more for each edge uv whose intersection is larger.

    Only a coloring that fails is handed to _smallest_conflict for its
    witness, so a valid coloring never pays for that search.  Nothing here
    uses edge_neighborhood or the helpers built on it.

    Returns (True, None) or (False, (e, f)) where e < f is the smallest
    conflicting pair.  A colored edge id that is not in g raises ValueError.
    Edges colored outside 1..k are impossible by construction of
    PartialColoring.
    """
    assign = coloring._assign
    adj, ends = g._adj, g._edges
    at = {x: set(map(assign.get, es)) for x, es in adj.items()}
    for colors in at.values():
        colors.discard(None)
    # each S(x) has at most as many colors as x has colored edges, so the sum
    # falls short exactly when a vertex repeats a color or a colored id is not
    # in g, for which the witness search raises ValueError from g.endpoints
    ok = sum(map(len, at.values())) == 2 * len(assign)
    if ok:
        for e, (u, v) in ends.items():
            shared = len(at[u] & at[v])
            if (shared > (e in assign)
                    and shared > sum(f in assign and v in ends[f] for f in adj[u])):
                ok = False
                break
    return (True, None) if ok else (False, _smallest_conflict(g, assign))


def _smallest_conflict(g: Graph, assign: dict[int, int]):
    """The smallest conflicting pair (e, f), e < f, of a raw edge->color dict,
    or None when there is none.

    One map from each vertex and color to the two lowest edge ids of that
    color at that vertex marks the class endpoints.  One pass over g's edges,
    pairing the class edges marked at its two ends, finds every conflict; two
    class edges that share an endpoint are paired by the pass over either of
    them.  The smallest conflicting pair across one edge uses only the two
    lowest class edges at each end, so each edge costs O(colors at its
    sparser end), however many edges share a color at a vertex.  The pass
    reads g's edge table directly, in any order, since the witness is the
    minimum pair.
    """
    marks: dict[int, dict[int, list[int]]] = {}
    for e in sorted(assign):
        for v in g.endpoints(e):
            low = marks.setdefault(v, {}).setdefault(assign[e], [])
            if len(low) < 2:
                low.append(e)
    best = None
    for u, v in g._edges.values():
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
    return best


def greedy_color(g: Graph, k: int, order=None):
    """Color edges in order with the smallest available color.

    Returns (coloring, failed_edge); failed_edge is None on full success and
    otherwise the first edge whose availability was empty (coloring then holds
    the partial result up to that point).  With k >= 2*D*D - 2*D + 1 for max
    degree D the greedy pass always completes.  The pass is one _first_fit
    call, which reads per-vertex color masks.
    """
    eids = g.edges()
    if order is None:
        order = eids
    elif sorted(order) != eids:
        raise ValueError("order must be a permutation of the edge ids")
    coloring = PartialColoring(k)
    return coloring, _first_fit(g, coloring._assign, order, k)


# -- distinct-representatives matching -----------------------------------------


def _match_distinct(targets: list[int], avail: dict[int, set[int]]):
    """Kuhn's augmenting-path matching of targets, in the given order, to
    distinct colors, each tried in ascending order.  Returns the assignment,
    or None when some target stays unmatched.
    """
    color_owner: dict[int, int] = {}

    def try_assign(t, visited):
        for c in sorted(avail[t]):
            if c in visited:
                continue
            visited.add(c)
            if c not in color_owner or try_assign(color_owner[c], visited):
                color_owner[c] = t
                return True
        return False

    if all(try_assign(t, set()) for t in targets):
        return {t: c for c, t in color_owner.items()}
    return None


def line_graph_square(g: Graph) -> list[set[int]]:
    """Neighbour sets of the graph on the edges of g, adjacent iff they see
    each other.

    Index i stands for the i-th edge of g in ascending edge-id order.  Each
    vertex's ball is mapped to indices once; edge i = uv sees the indices in
    the balls of u and v, but not i.
    """
    eids = g.edges()
    index = {e: i for i, e in enumerate(eids)}
    balls = {x: set(map(index.__getitem__, _ball(g, at))) for x, at in g._adj.items()}
    ends = g._edges
    adj = []
    for i, e in enumerate(eids):
        u, v = ends[e]
        seen = balls[u] | balls[v]
        seen.discard(i)
        adj.append(seen)
    return adj


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
    """A large clique of adj, found greedily, as a sorted list.

    From each of the eight vertices of largest degree (ties to the lower
    index) the clique grows by the candidate that keeps the most candidates,
    ties to the lower index, until none is left; the largest clique wins, the
    earlier start on ties.  Candidates are counted with bit masks indexed
    over the sorted union of the starts' neighbourhoods, the only vertices
    that can ever be candidates, so a mask has no more bits than the starts
    have neighbours, however many vertices adj has.
    """
    starts = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))[:8]
    near = sorted(set().union(*(adj[s] for s in starts)))
    pos = {v: i for i, v in enumerate(near)}
    bits = [sum(1 << pos[w] for w in adj[v] if w in pos) for v in near]
    best: list[int] = []
    for start in starts:
        clique = [start]
        cand = sum(1 << pos[v] for v in adj[start])
        while cand:
            # the set bits of cand in ascending order; a strict > keeps the
            # lowest index among equal counts
            top, rest = -1, cand
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                kept = (bits[i] & cand).bit_count()
                if kept > top:
                    top, pick = kept, i
                rest ^= low
            clique.append(near[pick])
            cand &= bits[pick]
        if len(clique) > len(best):
            best = sorted(clique)
    return best


def exact_strong_index(g: Graph, budget=None, stop_at=None) -> ExactResult:
    """Exact strong chromatic index via branch and bound on the edge graph.

    Branches DSATUR-style on the uncolored edge with the fewest choices,
    breaking color symmetry by capping new colors at one past the maximum in
    use, with a greedy clique as lower bound.  Only colorings that beat the
    incumbent are searched: an edge's cap is also below the best color count
    found so far, read afresh each time the edge takes its next color, and a
    branch whose colors above already reach that count is dropped.  The search
    ends once the incumbent meets the lower bound.  When `budget` search nodes
    are exhausted the result carries bounds and exact=False; the coloring
    witness always verifies.  With stop_at set, the search halts as soon as the
    incumbent uses at most stop_at colors (useful when any small coloring
    will do).  The search keeps its own stack, so its depth, one level per
    colored edge, has no limit from Python's recursion limit.  A negative
    budget raises ValueError.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be non-negative")
    eids = g.edges()
    m = len(eids)
    if m == 0:
        return ExactResult(0, 0, PartialColoring(0), True, 0)
    adj = line_graph_square(g)
    clique = _greedy_clique(adj)
    lower = max(len(clique), 1)
    # the incumbent: one _first_fit pass, most seen edges first, ties to the
    # lower id; an edge sees at most m - 1 others, so m colors always suffice
    seed: dict[int, int] = {}
    order = sorted(range(m), key=lambda i: (-len(adj[i]), i))
    _first_fit(g, seed, [eids[i] for i in order], m)
    best = [seed[e] for e in eids]
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
    """Parse {"k": <int>, "colors": {"<edge id>": <color>, ...}}.  Edge keys
    must be canonical decimal ids ("0", "17"; not "00", " 1" or "1_0") and no
    key may repeat, so no two keys name the same edge."""
    data = json.loads(text, object_pairs_hook=_unique_keys("coloring JSON"))
    if not isinstance(data, dict):
        raise ValueError("coloring JSON must be an object")
    colors = _json_field(data, "colors", "coloring JSON")
    if not isinstance(colors, dict):
        raise ValueError("coloring JSON 'colors' must be an object")
    c = PartialColoring(_json_int(_json_field(data, "k", "coloring JSON"), "'k'"))
    for e, col in colors.items():
        if not _is_canonical_decimal(e):
            raise ValueError(f"coloring JSON edge key {e!r} is not a canonical decimal id")
        c.assign(int(e), _json_int(col, f"the color of edge {e}"))
    return c

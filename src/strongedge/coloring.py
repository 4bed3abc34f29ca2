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
        self._assign: dict[int, int] = dict(assignment) if assignment else {}
        for c in self._assign.values():
            if not 1 <= c <= k:
                raise ValueError(f"color {c} outside palette 1..{k}")

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
    ValueError.  Only the base case's edge order reads it; available_colors
    reads _ball directly, callers that need many neighbourhoods of one graph
    build one _ball per vertex or color through _first_fit's per-vertex
    masks, and verify_strong_coloring uses none of these.
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
    colored, or None.  One pass builds, for each vertex x, a bit mask of the
    colors on x's colored edges, with bit 0 always set; colored ids that are
    not edges of g are skipped.  The edges e = uv sees are the other edges
    with an end in N[u] | N[v], the ends of the edges at u and at v, so the
    OR of both ends' masks over those edges holds exactly the colors e sees
    while e is uncolored, and its lowest clear bit is e's color.  Coloring e
    sets that bit at u and at v, so the pass builds no neighbourhood.

    While g's ids are dense, at most four per vertex, the masks sit in a
    list indexed by vertex id, one slot per id below g._next_vertex, so a
    lookup is a list index.  A component or block cut out of a larger graph
    keeps its parent's id range; there a dict keyed by g's own vertices
    keeps the set-up linear in g.
    """
    adj, ends = g._adj, g._edges
    ids = g._next_vertex
    mask = [1] * ids if ids <= 4 * len(adj) else dict.fromkeys(adj, 1)
    for f, c in assign.items():
        if f in ends:
            u, v = ends[f]
            mask[u] |= 1 << c
            mask[v] |= 1 << c
    for e in order:
        u, v = ends[e]
        seen = 0
        for f in adj[u]:
            a, b = ends[f]
            seen |= mask[a] | mask[b]
        for f in adj[v]:
            a, b = ends[f]
            seen |= mask[a] | mask[b]
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
    the solver's one query for a single edge, as _first_fit is for orders.

    It reads e = uv's ball B(u) | B(v) once, skipping e itself, and builds
    no edge_neighborhood set; an uncolored edge adds None, which is no
    color.  An unknown edge id raises ValueError.
    """
    adj, ends = g._adj, g._edges
    if e not in ends:
        raise ValueError(f"unknown edge id {e}")
    u, v = ends[e]
    get = assignment.get
    return _palette(k) - {get(f) for f in _ball(g, adj[u] + adj[v]) if f != e}


def verify_strong_coloring(g: Graph, coloring: PartialColoring):
    """Check that every color class is an induced matching.

    The decision reads one color set per vertex, S(x): the colors of the
    colored edges at x, held as an int bit mask (bit c for color c).  Two
    same-colored edges conflict when they share an endpoint or some edge of
    g, colored or not, joins an endpoint of one to an endpoint of the other.
    So the coloring is valid exactly when no vertex repeats a color, that is
    the popcounts of the S(x) sum to twice the number of colored edges, and
    S(u) & S(v) holds, for each edge uv, only the colors of the colored u-v
    edges.  In a simple graph that is uv's own color, or nothing when uv is
    uncolored; the parallel u-v edges are counted only when an intersection
    is larger than that.  One pass over the colored edges sets their bits at
    both ends, and one pass over g's edges ANDs two masks per edge: the
    decision costs O(n + m) mask operations on ints of k + 1 bits, and
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
    # a colored id not in g fails here, and the witness search raises
    # ValueError for it from g.endpoints
    ok = assign.keys() <= ends.keys()
    if ok:
        at = dict.fromkeys(adj, 0)
        for e, c in assign.items():
            u, v = ends[e]
            bit = 1 << c
            at[u] |= bit
            at[v] |= bit
        # each S(x) has at most as many colors as x has colored edges, so the
        # sum falls short exactly when a vertex repeats a color
        ok = sum(map(int.bit_count, at.values())) == 2 * len(assign)
    if ok:
        for e, (u, v) in ends.items():
            shared = (at[u] & at[v]).bit_count()
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


def _greedy_clique(nb, order: list[int], cap: int) -> list[int]:
    """A large clique, found greedily, as a sorted list of indices.

    The vertices are ranks, in (-degree, index) order: order[r] is the index
    of rank r and nb(r) the mask of the ranks it is adjacent to.  From each of
    the eight ranks of largest degree, 0..7, the clique grows by the candidate
    that keeps the most candidates, ties to the lower index, until none is
    left; the largest clique wins, the earlier start on ties.  Two cuts leave
    that clique as it is: a start is dropped once its clique and its
    candidates together cannot beat the best, and no start is tried once the
    best has cap vertices, where cap is at least the clique number (the
    colors of any coloring will do).  So nb is called for the starts and
    their candidates only.
    """
    best: list[int] = []
    for start in range(min(8, len(order))):
        clique = [start]
        cand = nb(start)
        while cand and len(clique) + cand.bit_count() > len(best):
            # the set bits of cand in ascending rank order; equal counts go
            # to the lower index
            top, rest = -1, cand
            while rest:
                low = rest & -rest
                r = low.bit_length() - 1
                kept = (nb(r) & cand).bit_count()
                if kept > top or kept == top and order[r] < order[pick]:
                    top, pick = kept, r
                rest ^= low
            clique.append(pick)
            cand &= nb(pick)
        if len(clique) > len(best):
            best = clique
            if len(best) >= cap:
                break
    return sorted(map(order.__getitem__, best))


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

    The squared line graph is never built.  One _ball per vertex gives each
    edge uv its degree, |B(u) | B(v)| - 1, and the edges get ranks in
    (-degree, id) order, the order of the _first_fit incumbent.  A vertex's
    ball becomes a mask of ranks the first time an edge at it is needed, and
    rank r's neighbour mask is R(u) | R(v) without r, also built on first
    use, since masks for all m ranks would take O(m^2) bits.  So a large
    input with a small budget holds only the balls and the masks it touched.
    The greedy clique runs on the same masks after the incumbent, whose
    color count bounds it.

    No search node loops over an edge's neighbours: the state is int bit
    masks over ranks.  The saturation of each uncolored rank, the number of
    distinct colors it sees, is held in (m + 1).bit_length() bit-sliced
    counters (slice j holds bit j of every rank's count), raised and lowered
    by ripple carry with one mask.  The branching edge, most saturated, then
    of highest degree, then of lowest id, is the lowest set bit of the
    uncolored ranks at the highest saturation.  by[c] is the mask of ranks
    that see color c, kept current for the uncolored ones, so an edge's next
    color is the smallest c above its current one whose by[c] has its bit
    clear.  Coloring a rank with c adds to by[c], and raises the counters of,
    `touched`: its uncolored neighbours not yet in by[c], which its stack
    frame keeps as one int.  Undoing the color clears `touched` from by[c]
    and lowers those counters, and popping the frame puts the rank back
    among the uncolored.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be non-negative")
    adj, ends = g._adj, g._edges
    eids = g.edges()
    m = len(eids)
    if m == 0:
        return ExactResult(0, 0, PartialColoring(0), True, 0)
    balls = {x: _ball(g, at) for x, at in adj.items()}
    degree = {e: len(balls[u] | balls[v]) - 1 for e, (u, v) in ends.items()}
    order = sorted(eids, key=lambda e: (-degree[e], e))
    rank = {e: r for r, e in enumerate(order)}
    # the incumbent: one _first_fit pass in rank order; an edge sees at most
    # m - 1 others, so m colors always suffice
    best: dict[int, int] = {}
    _first_fit(g, best, order, m)
    upper = max(best.values())

    ball_bits: dict[int, int] = {}
    nbits = [None] * m

    def neighbours(r):
        nb = nbits[r]
        if nb is None:
            u, v = ends[order[r]]
            for x in (u, v):
                if x not in ball_bits:
                    ball_bits[x] = sum(1 << rank[f] for f in balls[x])
            nb = nbits[r] = (ball_bits[u] | ball_bits[v]) ^ (1 << r)
        return nb

    clique = _greedy_clique(neighbours, order, upper)
    lower = max(len(clique), 1)
    if lower == upper or (stop_at is not None and upper <= stop_at):
        return ExactResult(lower, upper, PartialColoring(upper, {e: best[e] for e in eids}),
                           lower == upper, 0)

    # all masks below are over ranks.  fixed: the clique's colors,
    # 1..len(clique), in id order.
    by = [0] * (m + 1)
    sat = [0] * (m + 1).bit_length()
    uncolored = (1 << m) - 1
    fixed = {}
    for c, e in enumerate(clique, 1):
        fixed[e] = c
        uncolored ^= 1 << rank[e]
    for c, e in enumerate(clique, 1):
        carry = by[c] = neighbours(rank[e]) & uncolored
        j = 0
        while carry:
            s = sat[j]
            sat[j] = s ^ carry
            carry &= s
            j += 1

    # The search tree is walked with an explicit stack, one frame per edge
    # being branched on: [its rank's bit, its neighbour mask, colors in use
    # above it, the color it has now, the ranks that color saturated].  A
    # frame's cap is read from the current upper on every retry, so once a
    # better coloring is found no frame tries a color that cannot beat it.
    nodes = 0
    complete = True
    stack = []
    used = len(clique)
    while True:
        if budget is not None and nodes >= budget:
            complete = False
            break
        nodes += 1
        if uncolored:
            # keep, slice by slice from the top, the ranks whose saturation
            # is highest; the lowest of them is the branching edge
            cand = uncolored
            for s in reversed(sat):
                s &= cand
                if s:
                    cand = s
            low = cand & -cand
            uncolored ^= low
            r = low.bit_length() - 1
            nb = nbits[r]
            if nb is None:
                nb = neighbours(r)
            stack.append([low, nb, used, 0, 0])
        else:
            # every color on the path is below upper, so each leaf beats it
            upper = used
            best = dict(fixed)
            for bit, _, _, c, _ in stack:
                best[order[bit.bit_length() - 1]] = c
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
            bit, nb, used, c, touched = frame
            if c:
                by[c] ^= touched
                j = 0
                while touched:
                    s = sat[j]
                    sat[j] = s ^ touched
                    touched &= ~s
                    j += 1
            # one past the colors in use above, below upper; nothing once
            # those colors reach upper
            cap = used + 1
            if cap >= upper:
                cap = upper - 1 if used < upper else 0
            c += 1
            while c <= cap and by[c] & bit:
                c += 1
            if c > cap:
                uncolored |= bit
                stack.pop()
                continue
            touched = nb & uncolored & ~by[c]
            by[c] |= touched
            frame[3], frame[4] = c, touched
            j = 0
            while touched:
                s = sat[j]
                sat[j] = s ^ touched
                touched &= s
                j += 1
            if c > used:
                used = c
            break
        else:
            break

    exact = complete or lower == upper
    witness = PartialColoring(upper, {e: best[e] for e in eids})
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

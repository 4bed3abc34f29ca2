"""Recursive 21-color strong edge-coloring for multigraphs of max degree four.

The solver peels a graph down by a fixed ladder of reductions: tiny instances
are colored greedily, then low-degree vertices, parallel edges, small edge
cuts, and short-cycle patterns are removed and recolored from availability
counts.  What survives is 4-regular with girth at least six and no 2-edge
cut (every cut of a 4-regular graph is even); those graphs are handled by an
anchored decomposition: a three-color seed around an anchor vertex, a
reverse-greedy edge sequence, and, when the sequence stalls, a left/mid/right
vertex split whose two sides are colored independently and stitched together
by color renaming.

Every proof-backed step checks availability before assigning.  If a step is
ever blocked (which indicates a bug or a gap in the underlying argument) the
solver logs a fallback event and finishes that subinstance with the exact
solver, so correctness never depends on the constructive path.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush

from .graph import (
    C4,
    C5,
    CONFIGURATION_KINDS,
    Configuration,
    EdgeCut,
    Graph,
    K23,
    K24,
    K33,
    MULTI_EDGE,
    TRIANGLE,
    find_configuration,
    find_edge_cut_at_most,
    girth,
)
from .coloring import (
    PartialColoring,
    _ball,
    _first_fit,
    _match_distinct,
    available_colors,
    edge_neighborhood,
    exact_strong_index,
    verify_strong_coloring,
)

PALETTE = 21

#: Maximum instance size colored by one greedy pass, at most one color per edge.
BASE_CASE_EDGES = 20

#: Search nodes the exact solver may spend finishing a subinstance after a
#: fallback; past it the solve stops with an error instead of searching on.
EXACT_FINISH_BUDGET = 1_000_000


class ExactFinishBudgetError(RuntimeError):
    """The exact finish after a fallback ran out of EXACT_FINISH_BUDGET."""


class FallbackTriggered(Exception):
    """A proof-backed step found no valid move; the exact solver takes over."""


def _require(cond: bool, why: str, *args) -> None:
    """Fall back with why.format(*args) unless cond holds: the form of each
    guard that its docstring argues cannot fail (a forced guard raises)."""
    if not cond:
        raise FallbackTriggered(why.format(*args))


@dataclass
class TraceStep:
    depth: int
    tag: str
    params: str
    n: int
    m: int

    def format(self) -> str:
        body = f"{self.depth} {self.tag}"
        if self.params:
            body += f" {self.params}"
        return f"{body} |V|={self.n} |E|={self.m}"


class ReductionTrace:
    """Ordered log of reduction steps, one line per event."""

    def __init__(self):
        self.steps: list[TraceStep] = []

    @property
    def fallback_count(self) -> int:
        return sum(s.tag == "fallback" for s in self.steps)

    def record(self, depth: int, tag: str, params: str, g: Graph) -> None:
        self.steps.append(TraceStep(depth, tag, params,
                                    g.num_vertices(), g.num_edges()))

    def tags(self) -> list[str]:
        return [s.tag for s in self.steps]

    def format_text(self) -> str:
        return "\n".join(s.format() for s in self.steps) + "\n" if self.steps else ""

    def to_json_obj(self):
        return [{"depth": s.depth, "tag": s.tag, "params": s.params,
                 "n": s.n, "m": s.m} for s in self.steps]


# -- shared assignment helpers -------------------------------------------------


def _free_colors(g: Graph, col: dict, e: int, why: str) -> frozenset:
    """Colors on none of the edges e sees; e itself must be uncolored."""
    if e in col:
        raise FallbackTriggered(f"edge {e} already colored during {why}")
    return available_colors(g, col, e, PALETTE)


def _greedy_assign(g: Graph, col: dict, e: int, why: str) -> None:
    """Give e the smallest color on none of the edges it sees."""
    free = _free_colors(g, col, e, why)
    if not free:
        raise FallbackTriggered(f"no color available for edge {e} during {why}")
    col[e] = min(free)


def _checked_assign(g: Graph, col: dict, e: int, c: int, why: str) -> None:
    if c not in _free_colors(g, col, e, why):
        raise FallbackTriggered(f"color {c} blocked on edge {e} during {why}")
    col[e] = c


def _colors_at(g: Graph, col: dict, v: int) -> set[int]:
    return {col[e] for e in g.incident(v) if e in col}


def _verify_dict(g: Graph, col: dict):
    return verify_strong_coloring(g, PartialColoring(PALETTE, col))


# -- color permutations ----------------------------------------------------------


def rename_colors(col: dict, fixed_edges: dict, forbid_edges=None):
    """Permute the colors 1..PALETTE of a raw coloring to meet edge constraints.

    fixed_edges maps edge id -> required color; forbid_edges maps edge id ->
    colors that edge must avoid.  The permutation is a Kuhn matching of the
    source colors, in ascending order, to their allowed images.  Returns the
    renamed dict, or None when no permutation meets the constraints.
    Permuting colors never invalidates a good partial coloring.
    """
    fixed: dict[int, int] = {}
    for e, t in fixed_edges.items():
        s = col[e]
        if s in fixed and fixed[s] != t:
            return None
        fixed[s] = t
    forbid: dict[int, set] = {}
    for e, bad in (forbid_edges or {}).items():
        forbid.setdefault(col[e], set()).update(bad)
    if any(t in forbid.get(s, ()) for s, t in fixed.items()):
        return None
    palette = range(1, PALETTE + 1)
    allowed = {s: {fixed[s]} if s in fixed else set(palette) - forbid.get(s, set())
               for s in palette}
    perm = _match_distinct(sorted(allowed), allowed)
    if perm is None:
        return None
    return {e: perm[c] for e, c in col.items()}


# -- anchored decomposition: labels, seed coloring, edge sequence ------------------


def _kids(g: Graph, v: int, parent: int) -> list[int]:
    return sorted(set(g.neighbors(v)) - {parent})


def _eid(g: Graph, a: int, b: int) -> int:
    """The one edge between a and b: callers name adjacent pairs in graphs
    that the multi-edge step has made simple."""
    es = g.edges_between(a, b)
    _require(len(es) == 1, "expected one edge between {} and {}, found {}", a, b, len(es))
    return es[0]


@dataclass
class BranchLabels:
    """Anchor vertex, its four branches, and per-vertex child orderings.

    branch lists the anchor's neighbors in role order; the first three carry
    the seed colors, the last is the free branch.  children maps a labeled
    vertex to its ordered children (neighbors away from the anchor side).
    Orders may be permuted by the collaborative recipes; the underlying sets
    never change.
    """

    x: int
    branch: list[int]
    children: dict[int, list[int]] = field(default_factory=dict)

    u = property(lambda self: self.branch[0])
    v = property(lambda self: self.branch[1])
    w = property(lambda self: self.branch[2])
    y = property(lambda self: self.branch[3])

    def swap_uv(self):
        self.branch[0], self.branch[1] = self.branch[1], self.branch[0]

    def copy(self) -> "BranchLabels":
        return BranchLabels(self.x, list(self.branch),
                            {k: list(v) for k, v in self.children.items()})


@dataclass
class SequencePlan:
    """Seed coloring plus the reverse-greedy edge sequence ending in the tail.

    Every edge of the sequence before the fixed eight-edge tail sees at least
    four later sequence edges, so a forward greedy pass with 21 colors always
    has room; the tail itself is saved by color repetition in the seed and by
    one sanctioned recolor move.
    """

    labels: BranchLabels
    precolor: PartialColoring
    tail: list[int]
    order: list[int]

    def covers_all(self, g: Graph) -> bool:
        uncolored = set(g.edges()) - set(self.precolor.colored())
        return set(self.order) == uncolored


def build_precolor_and_sequence(g: Graph, x: int, *, girth_known: bool = False
                                ) -> SequencePlan:
    """Seed three colors around anchor x and grow the edge sequence to a fixpoint.

    Requires a 4-regular simple graph of girth at least six, which makes the
    anchor's two-ball a tree of distinct vertices.  The sequence starts from
    the fixed tail (two grandchild edges on the third branch, that branch's
    two child edges, then the four anchor edges) and repeatedly prepends any
    uncolored edge already seeing four sequence edges; the result is maximal,
    so no outside edge sees four sequence edges.

    With girth_known the caller vouches for girth at least six and the girth
    check is skipped; the degree and two-ball checks always run.
    """
    if x not in g._adj:
        raise ValueError(f"unknown vertex {x}")
    if any(g.degree(v) != 4 for v in g.vertices()):
        raise ValueError("anchored decomposition needs a 4-regular graph")
    if not girth_known and girth(g) < 6:
        raise ValueError("anchored decomposition needs girth at least six")
    nx = sorted(g.neighbors(x))
    labels = BranchLabels(x, nx)
    for z in nx:
        labels.children[z] = _kids(g, z, x)
    u, v, w, y = labels.branch
    two_ball = [x] + nx + [c for z in nx for c in labels.children[z]]
    if len(set(two_ball)) != 17:
        raise ValueError("two-ball around anchor is not a tree; girth check failed")

    psi = PartialColoring(PALETTE)
    for i in range(3):
        psi.assign(_eid(g, u, labels.children[u][i]), i + 1)
        psi.assign(_eid(g, v, labels.children[v][i]), i + 1)
    psi.assign(_eid(g, w, labels.children[w][0]), 1)

    w1, w2, w3 = labels.children[w]
    w21 = _kids(g, w2, w)[0]
    w31 = _kids(g, w3, w)[0]
    tail = [
        _eid(g, w2, w21), _eid(g, w3, w31),
        _eid(g, w, w2), _eid(g, w, w3),
        _eid(g, x, u), _eid(g, x, v), _eid(g, x, y), _eid(g, x, w),
    ]

    # Grow to the closure: an edge joins once four of its neighborhood are in.
    # Queued f = ab sees the edges of B(a) | B(b) but f, which is already in.
    # Each edge counts once per f, so the edges f brings to four do not
    # depend on the walk order; they join in ascending order.
    ends = g._edges
    balls = {z: _ball(g, at) for z, at in g._adj.items()}
    count = dict.fromkeys(ends, 0)
    done = set(psi.colored()) | set(tail)
    queue = list(tail)
    for f in queue:
        a, b = ends[f]
        joined = []
        for e in (balls[a] | balls[b]) - done:
            count[e] += 1
            if count[e] == 4:
                joined.append(e)
        joined.sort()
        done.update(joined)
        queue += joined
    order = queue[len(tail):][::-1] + tail
    return SequencePlan(labels, psi, tail, order)


def extend_sequence(g: Graph, plan: SequencePlan) -> PartialColoring:
    """Greedy-color the sequence in order on top of the seed coloring.

    The order is cut just after the second grandchild edge, and _first_fit
    colors each part in turn.  The only edges allowed to stall are the two
    grandchild edges at the head of the tail; a stall there means their whole
    colored neighborhood shows all 21 colors, so the seed color 1 on the
    third branch's first child edge is moved onto the stalled edge, and the
    pass resumes after it.  That child edge is recolored, once its slack
    returns, at the end of the part that moved it.  A stall anywhere else
    raises FallbackTriggered.

    On a plan from build_precolor_and_sequence two of the guards are implied:
    the six tail edges at w and at the anchor are uncolored until the donor
    is back, so with the donor out the other grandchild edge sees at most 20
    colored edges and cannot stall too ("stalled twice"), and the donor sees
    at most 18 when it is recolored.  A seeded plan can force both.
    """
    col = plan.precolor.as_dict()
    order, tail = plan.order, plan.tail
    w = plan.labels.w
    e_ww1 = _eid(g, w, plan.labels.children[w][0])
    cut = order.index(tail[1]) + 1 if tail[1] in order else len(order)
    for segment in (order[:cut], order[cut:]):
        moved = None
        while (e := _first_fit(g, col, segment, PALETTE)) is not None:
            if e not in tail[:2]:
                raise FallbackTriggered(f"sequence stalled at edge {e}")
            moved = col.pop(e_ww1, None)
            if moved is None:
                raise FallbackTriggered("sequence stalled twice; donor edge already moved")
            if moved not in available_colors(g, col, e, PALETTE):
                raise FallbackTriggered("donor color still blocked after removal")
            col[e] = moved
            segment = segment[segment.index(e) + 1:]
        if moved is not None:
            _greedy_assign(g, col, e_ww1, "recolor of moved seed edge")
    return PartialColoring(PALETTE, col)


# -- the left/mid/right partition -------------------------------------------------


@dataclass
class VertexPartition:
    """Vertex split derived from a stalled sequence.

    left spans the leftover uncolored edges, right is everything at distance
    two or more from left, and mid is the small separator near the anchor.
    crossing lists the edges between left and mid; designated holds the seven
    second-shell vertices that crossing edges must touch.
    """

    labels: BranchLabels
    left: set
    mid: set
    right: set
    left_edges: set
    crossing: list
    designated: set

    def right_degree(self, g: Graph, v: int) -> int:
        return len(_edges_in(g, self.right, v))


def build_partition(g: Graph, plan: SequencePlan) -> VertexPartition:
    """Derive and validate the left/mid/right split from a non-covering plan.

    Its checks and _check_partition_structure's are the paper's structure
    of a stalled maximal sequence; a plan built by hand can fail them.  An
    edge leaving left ends in mid, never right: at a designated vertex or,
    if its left end is one, at that end's parent, as its kids are left.
    """
    labels = plan.labels
    x, (u, v, w, y) = labels.x, labels.branch
    psi_edges = set(plan.precolor.colored())
    seq = set(plan.order)
    h = {e for e in g.edges() if e not in psi_edges and e not in seq}
    _require(bool(h), "no leftover uncolored edges")

    left = {p for e in h for p in g.endpoints(e)}
    w1, w2, w3 = labels.children[w]
    protected = {x, u, v, w, y, w2, w3}
    _require(not (left & protected), "left block touches the anchor's protected vertices")

    inner = {e for e in g.edges()
             if g.endpoints(e)[0] in left and g.endpoints(e)[1] in left}
    _require(inner == h, "left block spans more than the leftover edges")

    crossing = sorted(e for e in g.edges()
                      if (g.endpoints(e)[0] in left) != (g.endpoints(e)[1] in left))
    designated = set(labels.children[u] + labels.children[v] + [w1])
    for e in crossing:
        ends = set(g.endpoints(e))
        _require(len(ends & designated) == 1, "crossing edge {} misses the designated ring", e)
    meets = Counter(p for e in crossing for p in g.endpoints(e))
    for a in sorted(designated):
        _require(meets[a] <= 2, "designated vertex {} meets 3+ crossing edges", a)
    for l in sorted(left):
        _require(meets[l] <= 1, "left vertex {} meets two crossing edges", l)

    mid = {x, u, v, w} | (set(meets) - left)
    right = set(g.vertices()) - left - mid
    _require({y, w2, w3} <= right, "free branch not in the right block")
    _require(len(crossing) >= 4, "fewer than four crossing edges")

    part = VertexPartition(labels, left, mid, right, h, crossing, designated)
    _check_partition_structure(g, part)
    return part


def _check_partition_structure(g: Graph, part: VertexPartition) -> None:
    """Per-branch structural facts used by the collaborative recipes.

    Girth six keeps a kid c of a child zi, at distance three, off mid,
    which lies within distance two of x: so a left or right zi has its kids
    on its side, and a crossing kid edge has c left and zi mid.  A child of
    y is right: mid would close a 4-cycle, and left would put y in mid.
    """
    labels = part.labels
    left, mid, right = part.left, part.mid, part.right
    crossing = set(part.crossing)
    w1 = labels.children[labels.w][0]
    for z in (labels.u, labels.v, labels.w):
        for zi in labels.children[z]:
            kids = _kids(g, zi, z)
            kid_edges = [(_eid(g, zi, c), c) for c in kids]
            if zi in mid:
                has_f = any(e in crossing for e, _ in kid_edges)
                has_mr = any(c in right for _, c in kid_edges)
                _require(has_f and has_mr, "mid vertex {} lacks a crossing or outward edge", zi)
            else:
                side = left if zi in left else right
                _require(all(c in side for _, c in kid_edges),
                         "vertex {} has a child outside its block", zi)
            for e, c in kid_edges:
                if e in crossing:
                    _require(len(_edges_in(g, left, c)) == 3,
                             "crossing target {} lacks three left edges", c)
                elif zi in mid and c in right:
                    _require(part.right_degree(g, c) >= 1, "outward target {} has no right edge", c)
            if zi in mid and zi != w1:
                rkids = [c for _, c in kid_edges if c in right]
                if len(rkids) == 2:
                    total = sum(part.right_degree(g, c) for c in rkids)
                    _require(total >= 3, "double outward vertex {} has thin right side", zi)
    for c in _kids(g, labels.y, labels.x):
        _require(c in right, "free-branch child outside right block")


# -- the reduction solver -----------------------------------------------------------


class _Solver:
    def __init__(self):
        self.trace = ReductionTrace()

    # .. top level ..

    def solve(self, g: Graph, depth: int, parent_measure=None) -> dict:
        if parent_measure is not None and g.measure() >= parent_measure:
            raise RuntimeError("recursion measure did not decrease")
        try:
            return self._dispatch(g, depth)
        except FallbackTriggered as exc:
            self.trace.record(depth, "fallback", f"reason={exc}", g)
            return self._exact_finish(g, depth)

    def _dispatch(self, g: Graph, depth: int) -> dict:
        if g.num_edges() <= BASE_CASE_EDGES:
            self.trace.record(depth, "base-case", "", g)
            # most seen edges first, ties to the lower id; each of at most 20
            # edges sees at most 19 others, so the pass cannot stall
            order = sorted(g.edges(), key=lambda e: (-len(edge_neighborhood(g, e)), e))
            col: dict = {}
            _first_fit(g, col, order, PALETTE)
            return col

        comps = g.components()
        if len(comps) > 1:
            self.trace.record(depth, "components", f"count={len(comps)}", g)
            col: dict = {}
            for comp in comps:
                col.update(self.solve(g.induced_subgraph(comp), depth + 1, g.measure()))
            return col

        low = [v for v in g.vertices() if g.degree(v) <= 3]
        if low:
            return self._low_degree_batch(g, low, depth)

        conf = find_configuration(g, *CONFIGURATION_KINDS[:1])
        if conf is not None:
            return self._short_cycle(g, conf, depth)

        # no vertex has degree <= 3 and no edge is doubled, so g is simple and
        # 4-regular here: its cuts are all even, and a small one has two edges
        cut = find_edge_cut_at_most(g)
        if cut is not None:
            return self._small_cut(g, cut, depth)

        # a miss here rules out every cycle of length <= 5
        conf = find_configuration(g, *CONFIGURATION_KINDS[1:])
        if conf is not None:
            return self._short_cycle(g, conf, depth)

        return self._anchored(g, depth)

    def _exact_finish(self, g: Graph, depth: int) -> dict:
        res = exact_strong_index(g, budget=EXACT_FINISH_BUDGET, stop_at=PALETTE)
        if res.upper > PALETTE and not res.exact:
            raise ExactFinishBudgetError(
                f"exact fallback on a subinstance with {g.num_vertices()} vertices "
                f"and {g.num_edges()} edges ran out of its {EXACT_FINISH_BUDGET}-node "
                f"budget above {PALETTE} colors")
        if res.upper > PALETTE:
            raise RuntimeError(f"exact fallback needed {res.upper} colors")
        return res.coloring.as_dict()

    # .. simple reductions ..

    def _low_degree_batch(self, g: Graph, low: list, depth: int) -> dict:
        """Peel low-degree vertices, lowest id first, recurse once, extend back.

        `low` holds every vertex of degree at most three, ascending (so
        already a heap).  The peel records each peeled vertex's edge ids;
        after the recursion one _first_fit pass over the unmutated input g
        colors them in reverse peel order, each with the smallest color its
        neighbourhood in g leaves free.  Let v be peeled from g_t, the graph
        just before its removal, and e = va.  When e is colored back every
        colored edge lies in g_t, and an edge of g joining an end of e to an
        end of a colored f has both ends in g_t, so it is in g_t too: e sees
        the same colored edges in g as in g_t.  In g_t, v has degree at most
        three, so e sees at most 20 other edges there, and one of the 21
        colors is free.

        Removal only lowers degrees, so a vertex stays peelable once its
        degree reaches three: a heap of those ids, fed by the neighbours of
        each removed vertex, pops the lowest peelable id, as a rescan of the
        vertex list would.  A neighbour is pushed once (a double edge lowers
        its degree by two).  The peel costs O(n + m log n), not O(n^2).
        """
        g2, first, peeled = g.copy(), low[0], []
        queued = set(low)
        while low:
            v = heappop(low)
            incident = g2.incident(v)
            peeled.append(incident)
            near = {g2.other_end(e, v) for e in incident}
            g2.remove_vertex(v)
            if g2.num_edges() <= BASE_CASE_EDGES:
                break
            for w in near:
                if w not in queued and g2.degree(w) <= 3:
                    queued.add(w)
                    heappush(low, w)
        self.trace.record(depth, "low-degree",
                          f"v={first} count={len(peeled)}", g)
        col = self.solve(g2, depth + 1, g.measure())
        failed = _first_fit(g, col, [e for es in reversed(peeled) for e in es], PALETTE)
        if failed is not None:
            raise FallbackTriggered(
                f"no color available for edge {failed} during low-degree extension")
        return col

    def _small_cut(self, g: Graph, cut: EdgeCut, depth: int) -> dict:
        """Color the two sides of a 2-edge cut apart and stitch them:

        1. build each side as a block with an apex and one stub per cut edge;
        2. solve each side and normalize its stubs, in cut order, to 1 and 2;
        3. separate the boundaries: rename side two so that its edges at the
           cut avoid side one's colors there (neither is 1 or 2: each sees
           both stubs through the apex);
        4. splice, giving each cut edge its stubs' color, and verify.

        Step 3 cannot fail: side two's at most six boundary colors need
        distinct images in 3..21 off side one's at most six (Hall).
        """
        self.trace.record(depth, "small-cut", f"edges={cut.cut_edges}", g)
        sides = []
        for side in (set(cut.side1), set(cut.side2)):
            ends = [next(p for p in g.endpoints(e) if p in side) for e in cut.cut_edges]
            sub, ids = self._block(g, side, [(_APEX, p, None) for p in ends])
            apex = ids[_APEX]
            stubs = sub.incident(apex)
            col = self._solve_block(g, sub, depth, "cut",
                                    lambda raw: dict(zip(stubs, (1, 2))))
            boundary = [e for s in stubs for e in sub.incident(sub.other_end(s, apex))
                        if e not in stubs]
            sides.append((sub, col, stubs, boundary))
        (g1, col1, _, boundary1), (g2, col2, stubs2, boundary2) = sides
        col2 = rename_colors(col2, {s: col2[s] for s in stubs2},
                             dict.fromkeys(boundary2, {col1[e] for e in boundary1}))
        _require(col2 is not None, "cut boundary separation infeasible")

        working = {e: col1[e] for e in g1.edges() if g.has_edge_id(e)}
        working.update({e: col2[e] for e in g2.edges() if g.has_edge_id(e)})
        working.update(zip(cut.cut_edges, (1, 2)))
        ok, witness = _verify_dict(g, working)
        if not ok:
            raise FallbackTriggered(f"cut splice produced conflict {witness}")
        return working

    # .. short-cycle reductions ..

    def _short_cycle(self, g: Graph, conf: Configuration, depth: int) -> dict:
        self.trace.record(depth, "short-cycle",
                          f"kind={conf.kind} embed={conf.vertices}", g)
        if conf.kind == MULTI_EDGE:
            a, b = conf.vertices
            e = g.edges_between(a, b)[-1]
            g2 = g.copy()
            g2.remove_edge(e)
            col = self.solve(g2, depth + 1, g.measure())
            _greedy_assign(g, col, e, "parallel edge reinsertion")
            return col

        if conf.kind == K23:
            return self._k23(g, conf, depth)
        if conf.kind == K24:
            return self._delete_and_complete(g, conf.vertices[4:], depth)
        if conf.kind in (TRIANGLE, K33, C4, C5):
            return self._delete_and_complete(g, conf.vertices, depth)
        raise ValueError(f"unhandled configuration {conf.kind}")

    def _delete_and_complete(self, g: Graph, delete, depth: int) -> dict:
        """Solve g without the vertices `delete`, then color their edges."""
        g2 = g.copy()
        for d in delete:
            g2.remove_vertex(d)
        col = self.solve(g2, depth + 1, g.measure())
        self._complete_targets(g, col, {e for d in delete for e in g.incident(d)}, depth)
        return col

    def _k23(self, g: Graph, conf: Configuration, depth: int) -> dict:
        """Reduce a K2,3 via its two-side v1, v2: g is simple and 4-regular, so
        each has one more neighbor, and a shared one would be a K2,4."""
        u_side = conf.vertices[:3]
        v1, v2 = conf.vertices[3:]
        z1 = [p for p in g.neighbors(v1) if p not in u_side]
        z2 = [p for p in g.neighbors(v2) if p not in u_side]
        _require(len(z1) == 1 and len(z2) == 1 and z1[0] != z2[0],
                 "unexpected fourth neighbors at the two-side")
        z1, z2 = z1[0], z2[0]
        if g.adjacent(z1, z2):
            return self._delete_and_complete(g, [v1, v2], depth)
        targets = sorted(set(g.incident(v1)) | set(g.incident(v2)))
        e_v1z1 = _eid(g, v1, z1)
        e_v2z2 = _eid(g, v2, z2)
        g2, ids = self._block(g, set(g.vertices()) - {v1, v2}, [(z1, z2, None)])
        col = self.solve(g2, depth + 1, g.measure())
        shared = col.pop(ids[frozenset((z1, z2))])
        # The transfer can collide with an edge at a three-side vertex: that
        # edge sees both spokes here but not the bridge in the reduced graph,
        # so nothing steered it off the shared color.  The spokes do not see
        # each other (z1z2 took the branch above, v1v2 would close a triangle
        # and v1z2 or v2z1 would make z1 = z2), so each is checked alone, and
        # when either is blocked the matching colors all eight targets.
        if all(shared in available_colors(g, col, e, PALETTE) for e in (e_v1z1, e_v2z2)):
            col[e_v1z1] = col[e_v2z2] = shared
        self._complete_targets(g, col, targets, depth)
        return col

    # .. short-cycle completion ..

    def _complete_targets(self, g: Graph, col: dict, targets, depth: int) -> None:
        """Color the uncolored targets with distinct available colors.

        Each target gets a color of 1..PALETTE on no colored edge it sees,
        and no two targets share one (a Kuhn matching, _match_distinct), so
        the matched targets are mutually safe.  When Hall's condition fails
        and no such matching exists, the call falls back.
        """
        targets = sorted(t for t in targets if t not in col)
        avail = {t: available_colors(g, col, t, PALETTE) for t in targets}
        assigned = _match_distinct(targets, avail)
        if assigned is None:
            raise FallbackTriggered(f"completion exhausted for {len(targets)} target edges")
        col.update(assigned)
        self.trace.record(depth, "sdr", f"targets={len(targets)} outcome=direct", g)

    # .. the anchored decomposition ..

    def _anchored(self, g: Graph, depth: int) -> dict:
        # _dispatch gets here only after find_configuration ruled out every
        # cycle of length <= 5, so the girth is at least six.
        x = g.vertices()[0]
        plan = build_precolor_and_sequence(g, x, girth_known=True)
        if plan.covers_all(g):
            self.trace.record(depth, "sequence-complete",
                              f"anchor={x} len={len(plan.order)}", g)
            return extend_sequence(g, plan).as_dict()
        self.trace.record(depth, "partition", f"anchor={x}", g)
        part = build_partition(g, plan)
        return self._collaborative(g, part, depth)

    # .. collaborative coloring of the two blocks ..

    def _collaborative(self, g: Graph, part: VertexPartition, depth: int) -> dict:
        """Order the labels for the partition's case and run its recipe.

        Some designated vertex is mid: else each crossing edge joins a left
        child to its parent, mixed-branch takes a branch with children on
        both sides (w's included), and four crossing edges make x-u, x-v a
        2-edge cut, which _dispatch has ruled out.
        """
        labels = part.labels.copy()
        # structure with one child in each block fires the simplest recipe
        for z in sorted((labels.u, labels.v, labels.w)):
            ks = labels.children[z]
            lk = [c for c in ks if c in part.left]
            rk = [c for c in ks if c in part.right]
            mk = [c for c in ks if c in part.mid]
            if lk and rk and not mk:
                z2 = [c for c in ks if c != lk[0] and c != rk[0]]
                labels.children[z] = [lk[0], z2[0], rk[0]]
                return self._run_recipe(g, part, labels, depth, "mixed-branch", z)

        m_a = sorted(part.mid & part.designated)
        _require(bool(m_a), "mid block misses the designated ring entirely")
        for zi in m_a:
            labels.children[zi] = self._mark_children(g, part, labels, zi)

        def rich(zi):
            k2, k3 = labels.children[zi][1], labels.children[zi][2]
            total = part.right_degree(g, k3)
            if k2 in part.right:
                total += part.right_degree(g, k2)
            return total >= 3

        candidates = [zi for zi in m_a if rich(zi)]
        for zi in candidates:
            z = self._branch_of(labels, zi)
            siblings = [c for c in labels.children[z] if c != zi]
            r_sib = sorted(c for c in siblings if c in part.right)
            if r_sib:
                other = [c for c in siblings if c != r_sib[0]]
                labels.children[z] = [zi, other[0], r_sib[0]]
                return self._run_recipe(g, part, labels, depth, "r-sibling", z)
        if candidates:
            return self._rich_anchor_cases(g, part, labels, candidates[0], depth)

        w1 = labels.children[labels.w][0]
        if w1 in m_a:
            r = part.right_degree(g, labels.children[w1][2])
            return self._run_recipe(g, part, labels, depth, f"hub-deg{r}")
        return self._run_recipe(g, part, labels, depth, "twin-anchors", m_a)

    # .. label utilities ..

    def _branch_of(self, labels: BranchLabels, zi: int) -> int:
        """The branch above zi, a designated vertex and so a branch's child."""
        return next(z for z in labels.branch if zi in labels.children[z])

    def _mark_children(self, g: Graph, part: VertexPartition,
                       labels: BranchLabels, zi: int) -> list[int]:
        """Order zi's children: crossing child first, outward child last.

        When two children sit in the right block, the one with three right
        edges (if any) becomes the outward child so the recipes can route the
        right-side helper through it.  Callers pass a mid vertex of the
        designated ring, which _check_partition_structure gives a left and a
        right child; girth six keeps every child out of mid.
        """
        parent = self._branch_of(labels, zi)
        ks = _kids(g, zi, parent)
        lk = sorted(c for c in ks if c in part.left)
        rk = sorted(c for c in ks if c in part.right)
        if len(lk) == 2:
            return [lk[0], lk[1], rk[0]]
        full = [c for c in rk if part.right_degree(g, c) == 3]
        k3 = full[0] if full else rk[0]
        k2 = [c for c in rk if c != k3][0]
        return [lk[0], k2, k3]

    def _rich_anchor_cases(self, g: Graph, part: VertexPartition,
                       labels: BranchLabels, chosen: int, depth: int) -> dict:
        """Dispatch an outward-rich mid vertex by its siblings.  _collaborative
        has already run r-sibling for any candidate with a right sibling, as
        a rich w1 has in w2 and w3, so the chosen vertex is under u or v."""
        if self._branch_of(labels, chosen) == labels.v:
            labels.swap_uv()
        _require(chosen in labels.children[labels.u],
                 "chosen outward-rich vertex on the third branch")
        siblings = [c for c in labels.children[labels.u] if c != chosen]
        l_sib = sorted(c for c in siblings if c in part.left)
        if l_sib:
            u3 = [c for c in siblings if c != l_sib[0]][0]
            labels.children[labels.u] = [chosen, l_sib[0], u3]
            return self._run_recipe(g, part, labels, depth, "l-sibling")
        # neither right nor left, so both are mid; as children of u they are
        # designated, so _collaborative has marked their children already
        m_sib = sorted(siblings)
        trio = [chosen] + m_sib
        crossing = [zi for zi in trio if labels.children[zi][1] in part.left]
        outward = [zi for zi in trio if zi not in crossing]
        if crossing and outward:
            first, second = min(crossing), min(outward)
            labels.children[labels.u] = [first, second] + [
                zi for zi in trio if zi not in (first, second)]
            return self._run_recipe(g, part, labels, depth, "mixed-middles")
        labels.children[labels.u] = trio
        case = "middles-right" if outward else "middles-left"
        return self._run_recipe(g, part, labels, depth, case)

    def _relabel_partner(self, g: Graph, part: VertexPartition,
                         labels: BranchLabels, partner: int, hub: int,
                         branch_vertex: int) -> None:
        """Put `partner` first among its branch's children and mark its kids
        with the hub forced into the outward slot.  Callers have checked that
        `partner` is a mid child of `branch_vertex` with `hub` among its kids;
        _check_partition_structure gives it a crossing child in left."""
        ks = labels.children[branch_vertex]
        labels.children[branch_vertex] = [partner] + [c for c in ks if c != partner]
        kids = _kids(g, partner, branch_vertex)
        lk = min(c for c in kids if c in part.left)
        middle = sorted(set(kids) - {hub, lk})
        labels.children[partner] = [lk, middle[0], hub]

    def _hub_partners(self, g: Graph, part: VertexPartition, labels: BranchLabels,
                      hub: int, exclude: int, count: int) -> list[int]:
        """The hub's mid neighbors but `exclude`, ascending.  The hub is right,
        so count is 3 - its right degree; girth six keeps x, u, v and w off
        it, and two children of one branch from sharing it."""
        partners = sorted(p for p in g.neighbors(hub) if p in part.mid and p != exclude)
        branches = {z for z in labels.branch[:3] for p in partners + [exclude]
                    if p in labels.children[z]}
        _require(len(partners) == count and len(branches) == count + 1,
                 "hub {} has partners {}, expected {} on distinct branches",
                 hub, partners, count)
        return partners

    # .. the shared recipe skeleton ..

    def _run_recipe(self, g: Graph, part: VertexPartition, labels: BranchLabels,
                    depth: int, case: str, *args) -> dict:
        """Record the case, build its _Recipe, and run the seven shared steps:

        1. build the left and right blocks with their helper edges or apex;
        2. solve each block;
        3. rename each block: the first three left-block edges at `norm` take
           1, 2, 3, which fixes the shared color d, and the right triple takes
           1, 2, 3 and the right d edge takes d;
        4. transfer both block colorings onto the graph;
        5. make the checked seed assignments and
        6. run the greedy shell passes, interleaved as the recipe's steps list;
        7. greedy-color the ordered tail and verify the result.

        d is none of 1, 2, 3: each recipe's d_from edge has an end at norm or
        at a left-block neighbor of norm, so it sees the three edges at norm.

        Colorings and traces depend on three orders that recipes must keep:
        the order of each block's helpers (their ids feed the block solve's
        sorted iteration), the solve order (left, rename, right, rename), and
        the order of the steps.
        """
        self.trace.record(depth, "collaborative", f"case={case}", g)
        r = self._RECIPES[case](self, g, part, labels, *args)
        gl, left = self._block(g, part.left, r.left)
        gr, right = self._block(g, part.right, r.right)
        norm = gl.incident(left.get(r.norm, r.norm))[:3]  # left.get maps _APEX to the apex
        col_l = self._solve_block(g, gl, depth, "left",
                                  lambda raw: dict(zip(norm, (1, 2, 3))))
        d = col_l[_edge(g, r.d_from, left)]
        _require(d not in (1, 2, 3), "shared seed color collided with the base colors")
        col_r = self._solve_block(g, gr, depth, "right", lambda raw: dict(
            zip([_edge(g, ref, right) for ref in r.fix(raw)], (1, 2, 3, d))))

        col = {e: col_l[e] for e in gl.edges() if g.has_edge_id(e)}
        col.update((e, col_r[e]) for e in gr.edges() if g.has_edge_id(e))
        steps, order = r.arm(col) if r.arm else (r.steps, r.order)
        order = list(order)
        for kind, ref, *rest in steps:
            e = _edge(g, ref)
            if kind == "seed":
                c, why = rest
                if isinstance(c, tuple):
                    c = col_r[_edge(g, c, right)]
                _checked_assign(g, col, e, d if c == _D else c, why)
            elif kind == "try":
                at, why = rest
                if d not in _colors_at(g, col, at):
                    _checked_assign(g, col, e, d, why)
                    order.remove(ref)
            elif e not in col:
                _greedy_assign(g, col, e, f"{kind} pass")
        for e in [_edge(g, ref) for ref in order]:
            _greedy_assign(g, col, e, "final order")
        missing = [e for e in g.edges() if e not in col]
        if missing:
            raise FallbackTriggered(f"recipe left {len(missing)} edges uncolored")
        ok, witness = _verify_dict(g, col)
        if not ok:
            raise FallbackTriggered(f"recipe produced conflict {witness}")
        return col

    def _block(self, g: Graph, side: set, helpers) -> tuple[Graph, dict]:
        """Induced block on `side` plus helpers (a, b, why) in order; a helper
        with a reason must be a new adjacency, as girth six makes it (a path
        of at most four edges joins its ends).  Returns the block and the ids
        of its helpers by vertex pair (and of its apex by _APEX)."""
        sub = g.induced_subgraph(side)
        ids: dict = {}
        for a, b, why in helpers:
            if _APEX in (a, b) and _APEX not in ids:
                ids[_APEX] = sub.add_vertex()
            ends = (ids.get(a, a), ids.get(b, b))
            _require(not (why and sub.adjacent(*ends)),
                     "unexpected adjacency {}-{} while {}", a, b, why)
            ids[frozenset((a, b))] = sub.add_edge(*ends)
        return sub, ids

    def _solve_block(self, g: Graph, sub: Graph, depth: int, side: str, fixed) -> dict:
        """Solve a block, then rename its colors so that fixed(raw coloring) holds.

        Each helper or stub end stands for an edge the block drops there, and
        an apex takes at most four, so degrees stay at most four; the fixed
        edges pairwise meet or are joined, so their raw colors differ.
        """
        _require(sub.max_degree() <= 4, "block exceeded degree four")
        col = self.solve(sub, depth + 1, g.measure())
        renamed = rename_colors(col, fixed(col))
        _require(renamed is not None, "renaming infeasible while normalizing the {} block", side)
        return renamed

    def _right_triple(self, g: Graph, part: VertexPartition,
                      primary: int, secondary=None) -> list[int]:
        """Three right edges at primary, then secondary: a rich vertex's
        outward children, which have three between them."""
        edges = _edges_in(g, part.right, primary)[:3]
        if len(edges) < 3 and secondary is not None:
            edges += _edges_in(g, part.right, secondary)[:3 - len(edges)]
        _require(len(edges) == 3, "fewer than three right edges for the helper triple")
        return edges

    def _crossing_partner(self, g: Graph, part: VertexPartition,
                          excluded_edge: int) -> int:
        """Left endpoint of the first crossing edge other than the excluded one;
        build_partition's "fewer than four crossing edges" check leaves one."""
        e = next(e for e in part.crossing if e != excluded_edge)
        return next(p for p in g.endpoints(e) if p in part.left)

    # .. the recipes: one _Recipe per case ..

    def _mixed_branch(self, g, part, labels, z) -> _Recipe:
        x, y = labels.x, labels.y
        z1, z2, z3 = labels.children[z]
        y1 = _kids(g, y, x)[0]
        a_prime = self._crossing_partner(g, part, _eid(g, z, z1))
        o1, o2 = sorted(set(labels.branch[:3]) - {z})
        return _Recipe(
            left=[(z1, a_prime, None)],  # parallel copy is fine
            right=[(z3, y, "joining outward child to free branch")],
            norm=z1, d_from=(z1, a_prime),
            fix=lambda raw: _edges_in(g, part.right, z3) + [(y, y1)],
            steps=_shell(g, labels, [o1]) + _shell(g, labels, [o2])
            + [("try", (z, z1), z2, "seeding the left child edge")],
            order=[(x, o1), (x, o2), (x, y), (z, z1), (z, z3), (z, z2), (x, z)])

    def _r_sibling(self, g, part, labels, z) -> _Recipe:
        x = labels.x
        z1, z2, z3 = labels.children[z]
        z11, z12, z13 = labels.children[z1]
        a_prime = self._crossing_partner(g, part, _eid(g, z1, z11))
        pair = _outward_pair(g, part, z13, z12)
        o1, o2 = sorted(set(labels.branch[:3]) - {z})

        def fix(raw):
            # z3's edges see z13's, one of which is in the triple
            triple = self._right_triple(g, part, z13, z12)
            sources = {raw[e] for e in triple}
            pick = next((e for e in _edges_in(g, part.right, z3)
                         if raw[e] not in sources), None)
            _require(pick is not None, "right sibling edges all collide with the triple")
            return triple + [pick]

        return _Recipe(
            left=[(z11, a_prime, None)],
            right=pair + [(z13, z3, "joining outward child to right sibling")],
            norm=z11, d_from=(z11, a_prime), fix=fix,
            steps=_shell(g, labels, [o1]) + _shell(g, labels, [o2]) + _down(g, z2, z)
            + [("try", (z1, z11), z12, "seeding the crossing child edge")],
            order=[(x, o1), (x, o2), (x, labels.y), (x, z), (z, z2), (z, z3),
                   (z1, z11), (z1, z12), (z1, z13), (z, z1)])

    def _l_sibling(self, g, part, labels) -> _Recipe:
        x, (u, v, w, y) = labels.x, labels.branch
        u1, u2, u3 = labels.children[u]
        u11, u12, u13 = labels.children[u1]
        pair = _outward_pair(g, part, u13, u12)
        return _Recipe(
            left=[(u11, u2, "joining crossing target to left sibling")],
            right=pair + [(u13, y, "joining outward child to free branch")],
            norm=u11, d_from=(u2, _kids(g, u2, u)[0]),
            fix=lambda raw: self._right_triple(g, part, u13, u12) + [(u13, y)],
            steps=_shell(g, labels, [v, w], _down(g, u3, u))
            + [("try", (u1, u13), u12, "seeding the outward child edge")],
            order=[(x, v), (x, w), (x, y), (x, u), (u, u2), (u, u3),
                   (u1, u11), (u1, u12), (u1, u13), (u, u1)])

    def _mixed_middles(self, g, part, labels) -> _Recipe:
        x, (u, v, w, y) = labels.x, labels.branch
        u1, u2, u3 = labels.children[u]
        (u11, u12, u13), (u21, u22, u23), (u31, u32, u33) = (
            labels.children[c] for c in (u1, u2, u3))

        seeds = [((u1, u11), 1), ((u2, u23), 1), ((u1, u12), 2),
                 ((u2, u22), 2), ((u1, u13), 3), ((u2, u21), 3)]
        return _Recipe(
            left=[(_APEX, c, None) for c in (u11, u12, u21, u31)],
            right=[(_APEX, c, None) for c in (u13, u22, u23, u33)],
            norm=_APEX, d_from=min(_edges_in(g, part.left, u31)),
            fix=lambda raw: [(_APEX, u23), (_APEX, u22), (_APEX, u13),
                             min(_edges_in(g, part.right, u33))],
            steps=[("seed", e, c, "seeding the paired child edges") for e, c in seeds]
            + _shell(g, labels, [v, w]),
            order=[(x, v), (x, w), (x, y), (x, u), (u3, u31), (u3, u32),
                   (u3, u33), (u, u1), (u, u2), (u, u3)])

    def _same_middles(self, g, part, labels, crossing_mid: bool) -> _Recipe:
        x, (u, v, w, y) = labels.x, labels.branch
        u1, u2, u3 = labels.children[u]
        (u11, u12, u13), (u21, u22, u23), (u31, u32, u33) = (
            labels.children[c] for c in (u1, u2, u3))
        if crossing_mid:
            left = [(_APEX, c, None) for c in (u11, u12, u21, u22)]
            right = [(u13, u23, "pairing the outward children")]
            d_from, d_to, secondary = (_APEX, u11), (u13, u23), None
        else:
            left = [(u11, u21, "pairing the crossing targets")]
            right = [(_APEX, c, None) for c in (u12, u13, u22, u23)]
            if part.right_degree(g, u13) < 3:
                right.append((u12, u13, "pairing the outward children"))
            d_from, d_to, secondary = (u11, u21), (_APEX, u23), u12
        return _Recipe(
            left=left, right=right, norm=u11, d_from=d_from,
            fix=lambda raw: self._right_triple(g, part, u13, secondary) + [d_to],
            steps=[("seed", e, _D, "seeding the paired child edges")
                   for e in ((u1, u11), (u2, u23))] + _shell(g, labels, [v, w]),
            order=[(x, v), (x, w), (x, y), (u2, u21), (u2, u22), (u3, u31), (u3, u32),
                   (u3, u33), (x, u), (u, u2), (u, u3), (u1, u12), (u1, u13), (u, u1)])

    def _hub_deg1(self, g, part, labels) -> _Recipe:
        """As the hub joins w1 and u1, u11-w11 or u11-w12 closes a 5-cycle."""
        x, (u, v, w, y) = labels.x, labels.branch
        w1, w2, w3 = labels.children[w]
        w11, w12, hub = labels.children[w1]
        for p in self._hub_partners(g, part, labels, hub, w1, 2):
            self._relabel_partner(g, part, labels, p, hub, self._branch_of(labels, p))
        u1, u2, u3 = labels.children[u]
        v1, v2, v3 = labels.children[v]
        u11, u12 = labels.children[u1][:2]
        v11, v12 = labels.children[v1][:2]
        u_prime_edges = _edges_in(g, part.left, u11)
        _require(not any(set(g.endpoints(e)) & {w11, w12} for e in u_prime_edges),
                 "crossing target adjacent to the third branch pair")
        return _Recipe(
            left=[(w11, u11, "joining the two crossing targets")],
            right=[(hub, c, "spreading the hub") for c in (w2, w3, y)],
            norm=w11, d_from=u_prime_edges[0],
            fix=lambda raw: _edges_in(g, part.right, hub) + [(hub, c) for c in (w2, w3, y)],
            steps=[("seed", (x, y), _D, "seeding the free branch edge"),
                   ("seed", (w, w2), 2, "seeding the third branch edges"),
                   ("seed", (w, w3), 3, "seeding the third branch edges"),
                   ("try", (w1, hub), w12, "seeding the hub edge")]
            + _down(g, u2, u) + _down(g, u3, u) + _down(g, v2, v) + _down(g, v3, v),
            order=[(u1, u11), (u1, u12), (u, u1), (u, u2), (u, u3), (x, u), (v1, v11),
                   (v1, v12), (v, v2), (v, v3), (x, v), (v, v1), (v1, hub), (u1, hub),
                   (x, w), (w1, w11), (w1, w12), (w1, hub), (w, w1)])

    def _hub_deg2(self, g, part, labels) -> _Recipe:
        """w1 is not rich, or r-sibling would have run on its right siblings,
        so beside the hub's two right edges w12 is not right, nor mid: left."""
        x, w, y = labels.x, labels.w, labels.y
        w1, w2, w3 = labels.children[w]
        w11, w12, hub = labels.children[w1]
        _require(w12 in part.left, "second child of the third-branch anchor not in left")
        partner, = self._hub_partners(g, part, labels, hub, w1, 1)
        if partner in labels.children[labels.v]:
            labels.swap_uv()
        u, v = labels.u, labels.v
        self._relabel_partner(g, part, labels, partner, hub, u)
        u1 = labels.children[u][0]
        w31 = _kids(g, w3, w)[0]
        return _Recipe(
            left=[(w11, w12, "joining the two crossing targets")],
            right=[(hub, c, "spreading the hub") for c in (w2, w3)],
            norm=w11, d_from=min(_edges_in(g, part.left, w12)),
            fix=lambda raw: _edges_in(g, part.right, hub) + [(hub, w2), (w3, w31)],
            # the hub edge of u1 waits for the ordered tail
            steps=[("seed", (w, w2), 3, "seeding the third branch edge")]
            + [s for s in _shell(g, labels, [u, v]) if s[1] != (u1, hub)],
            order=[(x, v), (x, y), (x, u), (u1, hub), (x, w), (w, w3),
                   (w1, w11), (w1, w12), (w1, hub), (w, w1)])

    def _twin_anchors(self, g, part, labels, m_a) -> _Recipe:
        """w1 is right, as a left one fires mixed-branch on w.  No vertex of
        m_a is rich, so each has two left kids and one right (the double-
        outward check), u1's hub has under three right edges, and girth six
        leaves it one more mid neighbor, v1 under v, mirroring u1."""
        x, y, w = labels.x, labels.y, labels.w
        w1, w2, w3 = labels.children[w]
        _require(w1 in part.right, "third-branch anchor neither mid nor right")
        u1 = m_a[0]
        if u1 in labels.children[labels.v]:
            labels.swap_uv()
        u, v = labels.u, labels.v
        kids = _kids(g, u1, u)
        lk = sorted(c for c in kids if c in part.left)
        rk = [c for c in kids if c in part.right]
        _require(len(lk) == 2 and len(rk) == 1, "twin anchor does not carry two crossing children")
        hub = rk[0]
        self._relabel_partner(g, part, labels, u1, hub, u)
        _require(part.right_degree(g, hub) == 2, "twin hub lacks exactly two right edges")
        v1, = self._hub_partners(g, part, labels, hub, u1, 1)
        vkids = _kids(g, v1, v)
        vlk = sorted(c for c in vkids if c in part.left)
        _require(len(vlk) == 2 and hub in vkids, "twin partner does not mirror the anchor")
        self._relabel_partner(g, part, labels, v1, hub, v)
        (u11, u12), (v11, v12) = lk, vlk
        u2, u3 = labels.children[u][1:]
        v2, v3 = labels.children[v][1:]
        # the right apex stands in for w: w's edges take the colors of its edges
        tail = ([("seed", (w, c), (c, _APEX), "seeding the third branch edges")
                 for c in (w1, w2, w3)]
                + _down(g, u2, u) + _down(g, u3, u) + _down(g, v2, v) + _down(g, v3, v))

        def arm(col):
            shown = _colors_at(g, col, v11) | _colors_at(g, col, v12)
            if {1, 2, 3} <= shown:
                return ([("seed", (x, y), 3, "seeding the free branch edge"),
                         ("seed", (x, w), _D, "seeding the anchor edge"),
                         ("seed", (u1, hub), _D, "seeding the hub edge")] + tail,
                        [(u, u2), (u, u3), (u1, u11), (u1, u12), (x, u), (x, v), (v, v2),
                         (v, v3), (v1, v11), (v1, v12), (v1, hub), (v, v1), (u, u1)])
            missing = sorted({1, 2, 3} - shown)
            if 3 not in missing:
                swap_with = missing[0]
                for e in sorted(part.left_edges):
                    if col.get(e) == 3:
                        col[e] = swap_with
                    elif col.get(e) == swap_with:
                        col[e] = 3
            return ([("seed", (v1, hub), 3, "seeding the partner hub edge"),
                     ("seed", (x, y), 3, "seeding the free branch edge")] + tail,
                    [(v1, v11), (v1, v12), (v, v1), (v, v2), (v, v3), (x, v), (x, w),
                     (x, u), (u, u2), (u, u3), (u1, u11), (u1, u12), (u1, hub), (u, u1)])

        return _Recipe(
            left=[(u11, u12, "joining the two crossing targets")],
            right=[(c, _APEX, None) for c in (w1, w2, w3, hub)]
            + [(hub, y, "joining the hub to the free branch")],
            norm=u11, d_from=(u11, u12),
            fix=lambda raw: _edges_in(g, part.right, hub) + [(hub, y), (hub, _APEX)],
            arm=arm)

    _RECIPES = {
        "mixed-branch": _mixed_branch,
        "r-sibling": _r_sibling,
        "l-sibling": _l_sibling,
        "mixed-middles": _mixed_middles,
        "middles-left": partial(_same_middles, crossing_mid=True),
        "middles-right": partial(_same_middles, crossing_mid=False),
        "hub-deg1": _hub_deg1,
        "hub-deg2": _hub_deg2,
        "twin-anchors": _twin_anchors,
    }


#: Stand-in, in helper pairs and refs, for a block's apex vertex.
_APEX = "apex"
#: Stand-in, as a seed color, for the shared color d.
_D = "d"


@dataclass
class _Recipe:
    """One collaborative case's geometry, run by _Solver._run_recipe.

    An edge ref is an edge id or a vertex pair; a pair names the helper
    between those vertices in the block at hand, otherwise the graph edge.
    Steps run in order and come in three kinds:
      ("seed", ref, color, why)  checked assignment; color may be _D or a
                                 right-block ref whose color is copied;
      ("try", ref, at, why)      seed d unless d already shows at vertex
                                 `at`; a seeded edge leaves the order;
      ("shell" | "branch", ref)  greedy-color the edge if still uncolored.
    """

    left: list    # left-block helpers (a, b, why); why None adds without checking
    right: list   # right-block helpers, the same way
    norm: object  # vertex (or _APEX) whose first three left-block edges take 1, 2, 3
    d_from: object             # left-block ref whose color becomes the shared color d
    fix: Callable              # raw right coloring -> refs for colors 1, 2, 3 and d
    steps: list = field(default_factory=list)  # seeds and shell passes
    order: list = field(default_factory=list)  # the ordered tail
    arm: Callable | None = None  # transferred coloring -> (steps, order) for branching arms


def _edge(g: Graph, ref, helpers=None) -> int:
    if isinstance(ref, int):
        return ref
    key = frozenset(ref)
    return helpers[key] if helpers and key in helpers else _eid(g, *ref)


def _edges_in(g: Graph, side: set, v: int) -> list[int]:
    """Edges of v with both ends in `side`, in id order."""
    return [e for e in g.incident(v) if v in side and g.other_end(e, v) in side]


def _outward_pair(g: Graph, part: VertexPartition, outer: int, twin: int) -> list:
    """The helper pairing outer with twin when outer has < 3 right edges.
    They are a rich vertex's outward children, so a thin outer's twin is right."""
    if part.right_degree(g, outer) == 3:
        return []
    _require(twin in part.right, "thin outward child without a right twin")
    return [(outer, twin, "pairing the outward children")]


def _down(g: Graph, v: int, parent: int) -> list:
    """Shell pass: greedy-color v's uncolored edges away from parent."""
    return [("shell", (v, c)) for c in _kids(g, v, parent)]


def _shell(g: Graph, labels: BranchLabels, branches, middle=()) -> list:
    """Shell passes under each branch vertex, `middle`, then its child edges."""
    return ([s for b in branches for zi in labels.children[b] for s in _down(g, zi, b)]
            + list(middle)
            + [("branch", (b, zi)) for b in branches for zi in labels.children[b]])


# -- public operations ----------------------------------------------------------


def solve21(g: Graph):
    """Strong edge-coloring with at most 21 colors for max degree four.

    Returns (coloring, trace).  The coloring always verifies; if any
    proof-backed step failed along the way the trace shows fallback events
    and the affected subinstances were finished by the exact solver.
    """
    if g.max_degree() > 4:
        raise ValueError("solver requires maximum degree at most four")
    solver = _Solver()
    col = solver.solve(g, 0)
    coloring = PartialColoring(PALETTE, col)
    missing = set(g.edges()) - set(col)
    if missing:
        raise RuntimeError(f"solver left {len(missing)} edges uncolored")
    ok, witness = verify_strong_coloring(g, coloring)
    if not ok:
        raise RuntimeError(f"solver produced an invalid coloring: {witness}")
    return coloring, solver.trace

"""Strong-coloring and graph-property checks that share no code with the solver.

Everything here works on a raw edge list ``[(u, v), ...]`` indexed by position,
so it never calls ``edge_neighborhood``, ``verify_strong_coloring``, ``girth``
or any other query of the library under test.
"""
from __future__ import annotations

from collections import deque


def edge_list(g) -> tuple[list[int], list[tuple[int, int]]]:
    """The graph's edge ids and endpoint pairs, in ascending id order."""
    eids = g.edges()
    return eids, [g.endpoints(e) for e in eids]


def check_strong_coloring(eids, ends, colors: dict, max_colors=None):
    """None if `colors` is a complete strong edge-coloring, else a reason.

    Each color class is checked as an induced matching: its edges' endpoints
    are marked with the class edge they belong to (an endpoint marked twice
    means two class edges share a vertex), then one pass over the raw edge
    list rejects every edge whose endpoints are marked by two different class
    edges, since that edge joins them.  An edge whose two endpoints both
    belong to one class edge is that edge or a parallel copy, which is fine.
    """
    if set(colors) != set(eids):
        missing = len(set(eids) - set(colors))
        extra = len(set(colors) - set(eids))
        return f"coloring covers the wrong edges ({missing} missing, {extra} unknown)"
    classes: dict[int, list[int]] = {}
    position = {e: i for i, e in enumerate(eids)}
    for e, c in colors.items():
        if not isinstance(c, int) or c < 1:
            return f"edge {e} has color {c!r}, not a positive integer"
        classes.setdefault(c, []).append(position[e])
    if max_colors is not None and len(classes) > max_colors:
        return f"{len(classes)} colors used, more than {max_colors}"
    for c, members in classes.items():
        owner: dict[int, int] = {}
        for i in members:
            for x in ends[i]:
                if x in owner:
                    return (f"color {c}: edges {eids[owner[x]]} and {eids[i]} "
                            f"share vertex {x}")
                owner[x] = i
        for a, b in ends:
            oa, ob = owner.get(a), owner.get(b)
            if oa is not None and ob is not None and oa != ob:
                return (f"color {c}: edges {eids[oa]} and {eids[ob]} are joined "
                        f"by an edge {a}-{b}")
    return None


def adjacency(vertices, ends) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in ends:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


def degrees(ends) -> dict[int, int]:
    deg: dict[int, int] = {}
    for a, b in ends:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    return deg


def bfs_girth(vertices, ends) -> float:
    """Shortest cycle length by BFS from every vertex; parallel pairs give 2.

    Returns inf for forests.  Tracks the edge used to reach each vertex so
    that a parallel copy of that edge is seen as a 2-cycle.
    """
    inc: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for i, (a, b) in enumerate(ends):
        if a == b:
            return 1
        inc[a].append((i, b))
        inc[b].append((i, a))
    best = float("inf")
    for root in vertices:
        dist = {root: 0}
        via = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] + 1 >= best:
                break
            for i, w in inc[u]:
                if i == via[u]:
                    continue
                if w not in dist:
                    dist[w] = dist[u] + 1
                    via[w] = i
                    queue.append(w)
                else:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def is_connected(vertices, ends) -> bool:
    vertices = list(vertices)
    if not vertices:
        return True
    adj = adjacency(vertices, ends)
    seen = {vertices[0]}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(vertices)


def degree_lower_bound(ends) -> int:
    """max over edges uv of deg(u) + deg(v) - mult(uv): the edges at u or v
    pairwise see each other, so they need distinct colors."""
    deg = degrees(ends)
    mult: dict[tuple[int, int], int] = {}
    for a, b in ends:
        key = (a, b) if a < b else (b, a)
        mult[key] = mult.get(key, 0) + 1
    return max((deg[a] + deg[b] - mult[(a, b) if a < b else (b, a)]
                for a, b in ends), default=0)


def is_2k2_free(ends) -> bool:
    """True iff every two edges share a vertex or are joined by an edge."""
    adj = {v: set(ws) for v, ws in adjacency((), ends).items()}
    for i, (a, b) in enumerate(ends):
        for c, d in ends[i + 1:]:
            if c in (a, b) or d in (a, b):
                continue
            if c in adj[a] or c in adj[b] or d in adj[a] or d in adj[b]:
                continue
            return False
    return True

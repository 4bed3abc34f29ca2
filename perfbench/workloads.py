"""Seeded inputs for the four benchmark workloads.

Every builder takes the run's seed and returns the same edge lists for the
same seed.  The generators that are not in the library (the PG(2,3) lift, the
pairing-model multigraph and the K5-minus-an-edge ring) live here and are
checked by `validate` with the benchmark's own graph routines.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from strongedge.graph import Graph, gen_blowup_c5, gen_incidence_pg, gen_random_regular

import checker

#: Node budget for exact_strong_index.  The largest count seen on the exact
#: workload's inputs, relabelled under 3000 seeds, was about 60 thousand.
EXACT_BUDGET = 2_000_000

#: Cubic graphs on the exact workload: generator seeds 0..EXACT_CUBIC_COUNT-1.
EXACT_CUBIC_N = 14
EXACT_CUBIC_COUNT = 300

LIFT_K = 20


@dataclass
class Instance:
    """One operation: a graph, what to run on it, and the properties it has."""

    name: str
    graph: Graph
    op: str                     # "solve21" or "exact"
    claims: tuple = ()          # properties the generator promises
    expect_value: int = None    # exact value the theory fixes, if any
    relabelled: Graph = None    # exact only: a seeded relabelling of graph


# -- generators ------------------------------------------------------------------


def pg_lift(k: int, rng: random.Random) -> Graph:
    """Random k-lift of the PG(2,3) incidence graph: vertex (v, i) is v*k + i,
    and each base edge uv becomes the matching (u, i)-(v, pi(i)) for a random
    permutation pi.  4-regular, and its girth is at least the base's six."""
    base = gen_incidence_pg(3)
    g = Graph(base.num_vertices() * k)
    for e in base.edges():
        u, v = base.endpoints(e)
        perm = list(range(k))
        rng.shuffle(perm)
        for i in range(k):
            g.add_edge(u * k + i, v * k + perm[i])
    return g


def pairing_multigraph(n: int, rng: random.Random, d: int = 4) -> Graph:
    """Pairing model without rejection: shuffle d stubs per vertex, pair them
    up, and drop the loops.  Keeps parallel edges; maximum degree d."""
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    g = Graph(n)
    for i in range(0, len(stubs), 2):
        if stubs[i] != stubs[i + 1]:
            g.add_edge(stubs[i], stubs[i + 1])
    return g


def k5e_ring(blobs: int, rng: random.Random) -> Graph:
    """Ring of K5-minus-an-edge blobs, each blob's two degree-3 vertices
    joined to the neighbouring blobs, under a random vertex relabelling and
    edge order.  4-regular, and the two ring edges at a blob form a cut."""
    n = 5 * blobs
    label = list(range(n))
    rng.shuffle(label)
    pairs = []
    for b in range(blobs):
        vs = [label[5 * b + i] for i in range(5)]
        # vs[0]-vs[4] is the missing edge; vs[4] links to the next blob's vs[0]
        pairs += [(vs[i], vs[j]) for i in range(5) for j in range(i + 1, 5)
                  if (i, j) != (0, 4)]
        pairs.append((vs[4], label[5 * ((b + 1) % blobs)]))
    rng.shuffle(pairs)
    g = Graph(n)
    for a, b in pairs:
        g.add_edge(a, b)
    return g


def cycle(n: int) -> Graph:
    g = Graph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def relabel(g: Graph, rng: random.Random) -> Graph:
    """Same graph under a random vertex permutation and edge-id order."""
    verts = g.vertices()
    image = verts[:]
    rng.shuffle(image)
    perm = dict(zip(verts, image))
    pairs = [(perm[a], perm[b]) for a, b in (g.endpoints(e) for e in g.edges())]
    rng.shuffle(pairs)
    h = Graph(max(verts) + 1 if verts else 0)
    for a, b in pairs:
        h.add_edge(a, b)
    return h


# -- workloads ---------------------------------------------------------------------


#: The pocket fixtures timed: the two cheapest, which take the hub recipe and
#: the l-sibling recipe with its thin-child helper.  One round of all eleven
#: takes 27-38 s on a 2-core machine, so a run could time each only once.
POCKET_FIXTURES = ("hub-deg2", "l-sibling-thin")


def pocket(seed: int) -> list[Instance]:
    """Fixtures from tests/pocket.py, the same for every seed: they route
    through the partition only from their own anchor vertex, so relabelling
    them would send them down other paths."""
    from pocket import SHAPES, THIN_SHAPES, build_pocket

    shapes = dict(SHAPES)
    shapes.update({name: shape for name, (shape, _) in THIN_SHAPES.items()})
    return [Instance(f"pocket:{name}", build_pocket(shapes[name])[0], "solve21",
                     ("4-regular", "connected"))
            for name in POCKET_FIXTURES]


def large(seed: int) -> list[Instance]:
    """One 20-lift of PG(2,3) and one random 4-regular graph on 320 vertices,
    from fixed generator seeds: the solve time of a random 4-regular graph on
    320 vertices ranges over 0.42-0.72 s between generator seeds, more than
    two instances can average out."""
    return [
        Instance(f"lift{LIFT_K}:0", pg_lift(LIFT_K, random.Random(0)), "solve21",
                 ("4-regular", "girth>=6", "connected")),
        Instance("regular4-320:0", gen_random_regular(4, 320, 0), "solve21",
                 ("4-regular", "connected")),
    ]


def sweep(seed: int) -> list[Instance]:
    base = seed * 1000
    out = []
    for i in range(200):
        n, s = 12 + 2 * (i % 25), base + i
        out.append(Instance(f"regular4-{n}:{s}", gen_random_regular(4, n, s),
                            "solve21", ("4-regular",)))
    for i in range(100):
        n, s = 12 + 2 * (i % 25), base + i
        out.append(Instance(f"pairing-{n}:{s}", pairing_multigraph(n, random.Random(s)),
                            "solve21", ("loopless", "max-degree<=4")))
    for i in range(6):
        blobs, s = 3 + i % 4, base + i
        out.append(Instance(f"k5e-ring-{blobs}:{s}", k5e_ring(blobs, random.Random(s)), "solve21",
                            ("4-regular", "2-edge-cut")))
    return out


def exact(seed: int) -> list[Instance]:
    """Fixed inputs, seeded relabellings: the node count of random cubic
    graphs is heavy-tailed, so a seed-dependent set would not time steadily."""
    rng = random.Random(seed)
    out = []
    for s in range(EXACT_CUBIC_COUNT):
        g = gen_random_regular(3, EXACT_CUBIC_N, s)
        out.append(Instance(f"cubic-{EXACT_CUBIC_N}:{s}", g, "exact", ("cubic",)))
    for t in (1, 2):
        out.append(Instance(f"blowup-c5:{t}", gen_blowup_c5(t), "exact",
                            expect_value=5 * t * t))
    out.append(Instance("c5", cycle(5), "exact", expect_value=5))
    for inst in out:
        inst.relabelled = relabel(inst.graph, rng)
    return out


WORKLOADS = {"pocket": pocket, "large": large, "sweep": sweep, "exact": exact}


# -- generator properties -----------------------------------------------------------


def validate(inst: Instance) -> None:
    """Raise ValueError unless the instance has every property it claims."""
    g = inst.graph
    verts = g.vertices()
    _, ends = checker.edge_list(g)
    deg = checker.degrees(ends)
    degs = {deg.get(v, 0) for v in verts}
    failed = []
    for claim in inst.claims:
        if claim == "4-regular":
            ok = degs == {4}
        elif claim == "cubic":
            ok = degs == {3}
        elif claim == "max-degree<=4":
            ok = max(degs) <= 4
        elif claim == "loopless":
            ok = all(a != b for a, b in ends)
        elif claim == "connected":
            ok = checker.is_connected(verts, ends)
        elif claim == "girth>=6":
            ok = checker.bfs_girth(verts, ends) >= 6
        elif claim == "2-edge-cut":
            ok = has_two_edge_cut(verts, ends)
        else:
            raise ValueError(f"unknown claim {claim!r}")
        if not ok:
            failed.append(claim)
    if failed:
        raise ValueError(f"{inst.name} does not have {', '.join(failed)}")


def has_two_edge_cut(vertices, ends) -> bool:
    """Some two edges disconnect the graph (which is connected with them)."""
    if not checker.is_connected(vertices, ends):
        return False
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            rest = [p for k, p in enumerate(ends) if k != i and k != j]
            if not checker.is_connected(vertices, rest):
                return True
    return False

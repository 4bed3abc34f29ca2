"""Tests of the benchmark's own checker and input generators.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import random

import pytest

import checker
import workloads
from strongedge.graph import Graph, gen_blowup_c5, gen_incidence_pg
from strongedge.reduction import solve21


def sees(ends, i, j):
    """Edges i and j share a vertex or are joined by an edge (brute force)."""
    a, b = ends[i]
    c, d = ends[j]
    if {a, b} & {c, d}:
        return True
    return any({x, y} in ({a, c}, {a, d}, {b, c}, {b, d}) for x, y in ends)


@pytest.mark.parametrize("make", [
    lambda: gen_incidence_pg(3),
    lambda: workloads.pairing_multigraph(24, random.Random(5)),
    lambda: workloads.k5e_ring(3, random.Random(2)),
])
def test_checker_accepts_solver_output_and_rejects_copied_colors(make):
    g = make()
    eids, ends = checker.edge_list(g)
    colors = solve21(g)[0].as_dict()
    assert checker.check_strong_coloring(eids, ends, colors, 21) is None
    corrupted = 0
    for i in range(len(eids)):
        for j in range(len(eids)):
            if i != j and colors[eids[i]] != colors[eids[j]] and sees(ends, i, j):
                bad = dict(colors)
                bad[eids[j]] = colors[eids[i]]
                assert checker.check_strong_coloring(eids, ends, bad) is not None
                corrupted += 1
    assert corrupted > 0


def test_checker_accepts_far_edges_and_parallel_copies():
    g = workloads.cycle(8)
    eids, ends = checker.edge_list(g)
    colors = {e: 1 + i % 4 for i, e in enumerate(eids)}     # edges 4 apart share
    assert checker.check_strong_coloring(eids, ends, colors) is None
    g.add_edge(0, 1)                                         # parallel to edge 0
    eids, ends = checker.edge_list(g)
    colors[eids[-1]] = 5
    assert checker.check_strong_coloring(eids, ends, colors) is None
    colors[eids[-1]] = 1                                     # same class as its twin
    assert checker.check_strong_coloring(eids, ends, colors) is not None


def test_checker_rejects_missing_edges_and_too_many_colors():
    g = gen_blowup_c5(1)
    eids, ends = checker.edge_list(g)
    colors = {e: i + 1 for i, e in enumerate(eids)}
    assert checker.check_strong_coloring(eids, ends, colors, 5) is None
    assert checker.check_strong_coloring(eids, ends, colors, 4) is not None
    del colors[eids[0]]
    assert checker.check_strong_coloring(eids, ends, colors) is not None


def test_bfs_girth_and_bounds():
    def girth(g):
        return checker.bfs_girth(g.vertices(), checker.edge_list(g)[1])

    assert girth(workloads.cycle(5)) == 5
    assert girth(gen_incidence_pg(3)) == 6
    assert girth(gen_blowup_c5(2)) == 4
    pair = Graph(3)
    pair.add_edge(0, 1)
    pair.add_edge(1, 2)
    assert girth(pair) == float("inf")
    pair.add_edge(1, 0)
    assert girth(pair) == 2
    assert checker.degree_lower_bound(checker.edge_list(pair)[1]) == 3
    ends = checker.edge_list(gen_blowup_c5(2))[1]
    assert checker.is_2k2_free(ends)
    assert checker.degree_lower_bound(ends) == 7
    assert not checker.is_2k2_free(checker.edge_list(workloads.cycle(6))[1])


def edges_of(g):
    return [g.endpoints(e) for e in g.edges()]


def test_generators_have_their_properties_and_repeat():
    lift = workloads.Instance("lift", workloads.pg_lift(4, random.Random(3)), "solve21",
                              ("4-regular", "girth>=6"))
    multi = workloads.Instance("pairing", workloads.pairing_multigraph(30, random.Random(3)),
                               "solve21", ("loopless", "max-degree<=4"))
    ring = workloads.Instance("ring", workloads.k5e_ring(4, random.Random(3)), "solve21",
                              ("4-regular", "2-edge-cut", "connected"))
    for inst in (lift, multi, ring):
        workloads.validate(inst)
    assert edges_of(lift.graph) == edges_of(workloads.pg_lift(4, random.Random(3)))
    assert edges_of(multi.graph) == edges_of(workloads.pairing_multigraph(30, random.Random(3)))
    assert edges_of(ring.graph) == edges_of(workloads.k5e_ring(4, random.Random(3)))
    assert edges_of(lift.graph) != edges_of(workloads.pg_lift(4, random.Random(4)))


def test_validate_rejects_a_false_claim():
    inst = workloads.Instance("c6", workloads.cycle(6), "solve21", ("girth>=6", "4-regular"))
    with pytest.raises(ValueError, match="4-regular"):
        workloads.validate(inst)


def test_relabel_keeps_the_degree_sequence():
    g = workloads.pairing_multigraph(20, random.Random(1))
    h = workloads.relabel(g, random.Random(2))
    deg = checker.degrees(checker.edge_list(g)[1])
    deg_h = checker.degrees(checker.edge_list(h)[1])
    assert sorted(deg.values()) == sorted(deg_h.values())
    assert edges_of(g) != edges_of(h)


def test_calibration_rep_computes_max_flows_and_samples_speed():
    from calibrate import Calibration, _Graph, _pairs, _push

    ring = _Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    flow = dict.fromkeys(ring.edges(), 0)
    pushed = 0
    while _push(ring, flow, 0, 2):
        pushed += 1
    assert pushed == 3
    pairs = _pairs(50, random.Random(1))
    assert all(a != b for a, b in pairs)
    assert sorted(checker.degrees(pairs).values()) == [4] * 50
    cal = Calibration()
    factor = cal.sample(0.0)
    assert factor > 0 and cal.samples == [factor]

import contextlib
import dataclasses
import hashlib
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, reject, settings, strategies as st

from strongedge.graph import (
    CONFIGURATION_KINDS,
    MULTI_EDGE,
    Graph,
    _Census,
    find_configuration,
    find_edge_cut_at_most,
    gen_incidence_pg,
    gen_random_regular,
    girth,
    K23,
    TRIANGLE,
)
from strongedge.coloring import (
    PartialColoring,
    available_colors,
    coloring_to_json,
    edge_neighborhood,
    exact_strong_index,
    greedy_color,
    verify_strong_coloring,
)
from strongedge.reduction import (
    BASE_CASE_EDGES,
    PALETTE,
    FallbackTriggered,
    SequencePlan,
    _Solver,
    _checked_assign,
    _greedy_assign,
    build_partition,
    build_precolor_and_sequence,
    extend_sequence,
    rename_colors,
    solve21,
)

from helpers import (
    audit_sequence,
    bip_circulant,
    brute_distinct_assignment,
    circulant,
    collaborative_cases,
    complete,
    components_oracle,
    count_graph_lookups,
    cycle,
    extend_sequence_oracle,
    induced_subgraph_oracle,
    k5e_ring,
    mark_children_oracle,
    path,
    peel_order_oracle,
    pg_lift,
    random_graph_max_deg,
    relabel_partner_oracle,
    seen_edges,
    sequence_plan_oracle,
    shuffled,
    verify_oracle,
)
import pocket
from pocket import M, SHAPES, SWAP_SHAPES, THIN_SHAPES, build_pocket
from test_coloring import gapped_multigraph

# a 4-regular graph of girth exactly five on 19 vertices, found by local
# search and frozen; it exercises the five-cycle reduction
GIRTH5_EDGES = [
    (0, 7), (0, 9), (0, 16), (0, 17), (1, 2), (1, 9), (1, 11), (1, 18),
    (2, 6), (2, 8), (2, 17), (3, 6), (3, 7), (3, 13), (3, 18), (4, 8),
    (4, 9), (4, 10), (4, 13), (5, 12), (5, 15), (5, 17), (5, 18), (6, 12),
    (6, 16), (7, 8), (7, 14), (8, 15), (9, 12), (10, 14), (10, 16),
    (10, 18), (11, 13), (11, 14), (11, 15), (12, 14), (13, 17), (15, 16),
]


def girth5_graph():
    g = Graph(19)
    for u, v in GIRTH5_EDGES:
        g.add_edge(u, v)
    return g


def two_block_cut_fixture():
    """Two octahedra each missing one edge, joined by two edges: 4-regular
    with a minimum cut of exactly two edges (even-regular graphs have no odd
    cuts)."""
    g = Graph(12)
    for base in (0, 6):
        skip = {(base, base + 1), (base + 2, base + 3), (base + 4, base + 5),
                (base, base + 2)}
        for i in range(6):
            for j in range(i + 1, 6):
                if (base + i, base + j) not in skip:
                    g.add_edge(base + i, base + j)
    g.add_edge(0, 6)
    g.add_edge(2, 8)
    return g


def k33_fixture():
    g = Graph(12)
    for base in (0, 6):
        for i in range(3):
            for j in range(3):
                g.add_edge(base + i, base + 3 + j)
    for i in range(6):
        g.add_edge(i, 6 + i)
    return g


def k24_fixture():
    g = Graph(12)
    for base, va, vb in ((0, 4, 5), (6, 10, 11)):
        for i in range(4):
            g.add_edge(base + i, va)
            g.add_edge(base + i, vb)
    for i in range(4):
        g.add_edge(i, 6 + i)
        g.add_edge(i, 6 + (i + 1) % 4)
    return g


def multi_edge_fixture():
    g = Graph(12)
    for i in range(6):
        for d in (0, 1, 3):
            g.add_edge(i, 6 + (i + d) % 6)
    for i in range(6):
        g.add_edge(i, 6 + i)
    return g


def assert_solved(g, coloring, trace, max_colors=21):
    ok, witness = verify_strong_coloring(g, coloring)
    assert ok, witness
    assert set(coloring.colored()) == set(g.edges())
    assert len(coloring.colors_used()) <= max_colors
    assert trace.fallback_count == 0, trace.format_text()


class TestRenameColors:
    def base(self):
        g = cycle(5)
        c, _ = greedy_color(g, 21)
        return g, c.as_dict()

    def test_identity_when_satisfied(self):
        g, c = self.base()
        out = rename_colors(c, {0: c[0]})
        assert out is not None and out[0] == c[0]

    def test_point_swap_preserves_validity(self):
        g, c = self.base()
        out = rename_colors(c, {0: c[1], 1: c[0]})
        assert out is not None
        assert out[0] == c[1] and out[1] == c[0]
        ok, _ = verify_strong_coloring(g, PartialColoring(21, out))
        assert ok

    def test_forbidden_colors_respected(self):
        g, c = self.base()
        banned = {c[0], c[1]}
        out = rename_colors(c, {}, {0: banned, 1: banned})
        assert out is not None
        assert out[0] not in banned and out[1] not in banned

    def test_conflicting_points_infeasible(self):
        g, c = self.base()
        # edges 0 and 1 hold different colors; a permutation cannot merge them
        out = rename_colors(c, {0: 5, 1: 5})
        assert out is None

    def test_one_color_fixed_to_two_targets_infeasible(self):
        # edges 0 and 2 share color 1; a permutation cannot split them
        assert rename_colors({0: 1, 1: 2, 2: 1}, {0: 3, 2: 4}) is None

    def test_fixed_target_forbidden_infeasible(self):
        g, c = self.base()
        assert rename_colors(c, {0: 5}, {0: {5}}) is None
        # the ban reaches color 1 through edge 2, which shares edge 0's color
        assert rename_colors({0: 1, 1: 2, 2: 1}, {0: 5}, {2: {5}}) is None

    def test_large_separation(self):
        # mirror of the cut splice: force nine colors away from nine others
        c = {e: e + 1 for e in range(18)}
        avoid = set(range(1, 10))
        out = rename_colors(c, {}, {e: avoid for e in range(9)})
        assert out is not None
        for e in range(9):
            assert out[e] not in avoid


class TestSolveSmall:
    def test_c5_uses_five_colors(self):
        g = cycle(5)
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert len(coloring.colors_used()) == 5
        assert trace.tags() == ["base-case"]

    def test_k4(self):
        g = complete(4)
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert len(coloring.colors_used()) == 6

    def test_empty_and_tiny(self):
        for g in (Graph(0), Graph(3), path(1)):
            coloring, trace = solve21(g)
            assert set(coloring.colored()) == set(g.edges())

    def test_disconnected(self):
        g = Graph(0)
        parts = [cycle(5), cycle(7), complete(4)]
        remap = {}
        for p in parts:
            for v in p.vertices():
                remap[(id(p), v)] = g.add_vertex()
            for e in p.edges():
                u, v = p.endpoints(e)
                g.add_edge(remap[(id(p), u)], remap[(id(p), v)])
        # pad with extra edges so the component split stage actually runs
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)

    def test_rejects_degree_five(self):
        g = Graph(6)
        for i in range(1, 6):
            g.add_edge(0, i)
        with pytest.raises(ValueError):
            solve21(g)

    def test_recursion_measure_must_decrease(self):
        g = cycle(5)
        with pytest.raises(RuntimeError, match="recursion measure did not decrease"):
            _Solver().solve(g, 0, g.measure())

    @pytest.mark.parametrize("colors, why", [
        ({}, "solver left 5 edges uncolored"),
        ({e: 1 for e in range(5)}, "solver produced an invalid coloring"),
    ], ids=["incomplete", "conflicting"])
    def test_final_checks_catch_a_bad_solve(self, colors, why):
        # solve21 checks what the solver returns before handing it out
        with mock.patch.object(_Solver, "solve", return_value=colors):
            with pytest.raises(RuntimeError, match=why):
                solve21(cycle(5))


class TestBaseCase:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_keeps_the_exact_incumbent(self, data):
        # a multigraph of maximum degree four with 1..BASE_CASE_EDGES edges is
        # colored like the exact solver's greedy incumbent, one color per edge
        # at most
        n = data.draw(st.integers(2, 14))
        ends = st.integers(0, n - 1)
        pairs = st.tuples(ends, ends).filter(lambda p: p[0] != p[1])
        g = Graph(n)
        for u, v in data.draw(st.lists(pairs, min_size=1, max_size=30)):
            if (g.num_edges() < BASE_CASE_EDGES
                    and g.degree(u) < 4 and g.degree(v) < 4):
                g.add_edge(u, v)
        coloring, trace = solve21(g)
        assert trace.tags() == ["base-case"]
        assert_solved(g, coloring, trace, max_colors=g.num_edges())
        expected = exact_strong_index(g, stop_at=PALETTE).coloring.as_dict()
        assert coloring.as_dict() == expected

    def test_builds_no_clique_and_runs_no_search(self, monkeypatch):
        import strongedge.coloring as col
        import strongedge.reduction as red

        def no_exact(*args, **kwargs):
            raise AssertionError("exact solver called in the base case")

        monkeypatch.setattr(red, "exact_strong_index", no_exact)
        monkeypatch.setattr(col, "_greedy_clique", no_exact)
        for g in (cycle(5), complete(5), circulant(10, (1, 2))):
            coloring, trace = solve21(g)
            assert trace.tags() == ["base-case"]
            assert_solved(g, coloring, trace, max_colors=g.num_edges())


# `pocket_digest` of each dispatch-path fixture below: the first step names
# the path, the digest pins its coloring and trace.  Short-cycle fixtures are
# keyed by (kind, vertex count).
DISPATCH_DIGESTS = {
    "sequence-complete": "4546972d4c87ce5e",
    "low-degree": "13b64db6ed6e089c",
    "multi-edge": "9f7d75afa9e9adc8",
    "small-cut": "974d87da51e7ac1d",
    "shared-endpoint-cut": "dbf2968c1820506f",
    "components": "9f1db9bf734189d5",
    ("triangle", 11): "766b45f8af3bd7dc",
    ("k33", 12): "fa6a32b957af0e0a",
    ("k24", 12): "a3870db841cc1268",
    ("k23", 11): "a234cc060236a1e9",
    ("k23", 13): "a1a4e4f76b178f4f",
    ("c4", 22): "fbc9fb11a69d3130",
    ("c5", 19): "1879fa2f44de4cac",
}


class TestDispatchPaths:
    def test_incidence_graph_by_sequence(self):
        g = gen_incidence_pg(3)
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert trace.tags() == ["sequence-complete"]
        assert pocket_digest(coloring, trace) == DISPATCH_DIGESTS["sequence-complete"]

    def test_components_are_solved_apart(self):
        pg = gen_incidence_pg(3)
        n = pg.num_vertices()
        g = Graph(2 * n)
        for shift in (0, n):
            for e in pg.edges():
                a, b = pg.endpoints(e)
                g.add_edge(a + shift, b + shift)
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert trace.tags() == ["components", "sequence-complete", "sequence-complete"]
        assert trace.steps[0].params == "count=2"
        assert pocket_digest(coloring, trace) == DISPATCH_DIGESTS["components"]

    def test_cubic_graphs_peel_away(self):
        g = gen_incidence_pg(2)
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert trace.tags()[0] == "low-degree"
        assert pocket_digest(coloring, trace) == DISPATCH_DIGESTS["low-degree"]

    def test_multi_edge_reduction(self):
        g = multi_edge_fixture()
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert "kind=multi-edge" in trace.steps[0].params
        assert pocket_digest(coloring, trace) == DISPATCH_DIGESTS["multi-edge"]

    def test_small_cut_reduction(self):
        g = two_block_cut_fixture()
        assert all(g.degree(v) == 4 for v in g.vertices())
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert trace.tags()[0] == "small-cut"
        assert pocket_digest(coloring, trace) == DISPATCH_DIGESTS["small-cut"]

    @pytest.mark.parametrize("kind,builder", [
        ("triangle", lambda: circulant(11, (1, 2))),
        ("k33", k33_fixture),
        ("k24", k24_fixture),
        ("k23", lambda: circulant(11, (1, 3))),   # spare neighbors adjacent
        ("k23", lambda: circulant(13, (1, 3))),   # spare neighbors apart
        ("c4", lambda: bip_circulant(11, (0, 1, 3, 4))),
        ("c5", girth5_graph),
    ])
    def test_short_cycle_paths(self, kind, builder):
        g = builder()
        assert all(g.degree(v) == 4 for v in g.vertices())
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        first = next(s for s in trace.steps if s.tag == "short-cycle")
        assert f"kind={kind}" in first.params
        key = (kind, g.num_vertices())
        assert pocket_digest(coloring, trace) == DISPATCH_DIGESTS[key]

    def test_girth5_fixture_is_what_it_claims(self):
        g = girth5_graph()
        assert girth(g) == 5

    @staticmethod
    def scans_of(g):
        """solve21(g) with reduction.find_configuration wrapped: the coloring,
        the trace and the kinds of each scan, in call order."""
        import strongedge.reduction as red
        with mock.patch.object(red, "find_configuration",
                               wraps=red.find_configuration) as scan:
            coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        return trace, [c.args[1:] for c in scan.call_args_list]

    @pytest.mark.parametrize("builder", [
        lambda: gen_incidence_pg(3),
        lambda: pg_lift(20, random.Random(1)),
    ], ids=["pg3", "pg3-lift20"])
    def test_girth_six_skips_the_short_cycle_scan(self, builder):
        # find_configuration's certificate answers for the negative kinds,
        # so none of the scans that look for a short cycle runs
        scans = ("triangle", "common_pair", "k33", "c5")
        g = builder()
        with contextlib.ExitStack() as stack:
            wrapped = [stack.enter_context(mock.patch.object(
                _Census, name, autospec=True, side_effect=getattr(_Census, name)))
                for name in scans]
            coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert [w.call_count for w in wrapped] == [0] * len(scans)
        assert trace.tags() == ["sequence-complete"]

    def test_girth_five_is_still_scanned(self):
        trace, scans = self.scans_of(girth5_graph())
        assert scans[:2] == [(MULTI_EDGE,), CONFIGURATION_KINDS[1:]]
        assert trace.steps[0].tag == "short-cycle"
        assert trace.steps[0].params.startswith("kind=c5 ")

    def test_bridged_k23_transfer_collision_regression(self):
        # On this instance the bridged completion's forced same-color
        # transfer collides with an edge at a three-side vertex (such an
        # edge sees both spokes but not the bridge in the reduced graph).
        # The solver must hand all eight targets to the completion, which
        # closes them by direct matching, not fall back.
        g = gen_random_regular(4, 59, 194)
        conf = find_configuration(g, K23)
        assert conf is not None
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        # the steps at the top level: the K2,3 reduction, then its completion
        (tag, params), sdr = [(s.tag, s.params) for s in trace.steps if s.depth == 0]
        assert tag == "short-cycle" and params.startswith("kind=k23 ")
        assert sdr == ("sdr", "targets=8 outcome=direct")

    def test_peel_order_matches_oracle_on_a_chain_multigraph(self):
        # a path of 60 vertices in shuffled id order whose links are single
        # or double edges: a vertex with two double links has degree four and
        # drops to two when a neighbour goes, so it joins the peel late
        rng = random.Random(5)
        ids = list(range(60))
        rng.shuffle(ids)
        g = Graph(60)
        for a, b in zip(ids, ids[1:]):
            for _ in range(rng.choice((1, 2))):
                g.add_edge(a, b)
        removed = []
        remove_vertex = Graph.remove_vertex

        def logged(graph, v):
            removed.append(v)
            remove_vertex(graph, v)

        with mock.patch.object(Graph, "remove_vertex", logged):
            coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        order = peel_order_oracle(g, BASE_CASE_EDGES)
        assert removed == order
        assert trace.tags() == ["low-degree", "base-case"]
        assert trace.steps[0].params == f"v={order[0]} count={len(order)}"
        assert order != sorted(order)
        assert any(g.degree(v) == 4 and len(g.neighbors(v)) == 2 for v in order)

    def test_random_regular_sweep(self):
        for seed in range(20):
            n = 12 + (seed % 7) * 2
            g = gen_random_regular(4, n, seed)
            coloring, trace = solve21(g)
            assert_solved(g, coloring, trace)


    def test_cut_detector_sees_only_four_regular_graphs(self, monkeypatch):
        # the peel and the multi-edge check run first, so every cut request
        # is on a simple 4-regular graph, whose cuts are all even: the
        # detector answers None or a 2-edge cut
        import strongedge.reduction as red
        calls = []

        def spy(g):
            cut = find_edge_cut_at_most(g)
            calls.append(({g.degree(v) for v in g.vertices()},
                          None if cut is None else len(cut.cut_edges)))
            return cut

        monkeypatch.setattr(red, "find_edge_cut_at_most", spy)
        graphs = [k5e_ring(3 + i % 8, random.Random(i)) for i in range(16)]
        graphs += [random_graph_max_deg(n, 2 * n, 4, n) for n in range(8, 48)]
        for g in graphs:
            solve21(g)
        assert {frozenset(degrees) for degrees, _ in calls} == {frozenset({4})}
        assert {size for _, size in calls} == {None, 2}


def max4_multigraph(draw) -> Graph:
    """A multigraph of maximum degree four with shuffled ids: a random forest
    (most draws connected), extra edges that may double a link, and a few
    vertices removed so the ids have gaps."""
    n = draw(st.integers(8, 40))
    ids = draw(st.permutations(range(n)))
    g = Graph(n)

    def link(u, v):
        if u != v and g.degree(u) < 4 and g.degree(v) < 4:
            g.add_edge(u, v)

    for i in range(1, n):
        if draw(st.integers(0, 19)):
            link(ids[i], ids[draw(st.integers(0, i - 1))])
    ends = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(ends, ends), max_size=2 * n)):
        link(u, v)
    for v in draw(st.sets(ends, max_size=2)):
        g.remove_vertex(v)
    return g


class TestLinearDispatch:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_matches_the_replaced_implementations(self, data):
        g = max4_multigraph(data.draw)
        comps = g.components()
        assert comps == components_oracle(g)
        keep = data.draw(st.sets(st.sampled_from(g.vertices())))
        new, old = g.induced_subgraph(keep), induced_subgraph_oracle(g, keep)
        assert list(new._adj.items()) == list(old._adj.items())
        assert list(new._edges.items()) == list(old._edges.items())
        assert (new._next_vertex, new._next_edge) == (old._next_vertex, old._next_edge)

        # the largest component is solved alone, so the peel, when there is
        # one, is the top-level step and its removals come first
        h = g.induced_subgraph(max(comps, key=len))
        removed = []
        remove_vertex = Graph.remove_vertex

        def logged(graph, v):
            removed.append(v)
            remove_vertex(graph, v)

        with mock.patch.object(Graph, "remove_vertex", logged):
            coloring, trace = solve21(h)
        assert_solved(h, coloring, trace)
        if trace.steps[0].tag == "low-degree":
            order = peel_order_oracle(h, BASE_CASE_EDGES)
            assert removed[:len(order)] == order
            assert trace.steps[0].params == f"v={order[0]} count={len(order)}"

    def test_large_solve_lists_the_vertices_a_few_times(self):
        # the peel pops a heap instead of rescanning the sorted vertex list
        # after each removal, which took thousands of scans here
        g = gen_random_regular(4, 2560, 1)
        calls = []
        vertices = Graph.vertices

        def counted(graph):
            calls.append(graph.num_vertices())
            return vertices(graph)

        with mock.patch.object(Graph, "vertices", counted):
            coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert len(calls) <= 10, calls

    def test_split_does_not_rescan_the_parent(self):
        # 400 disjoint copies: each component is cut out of the parent's
        # adjacency, so the only pass over the parent's edge list is
        # solve21's own check that every edge got a color
        one = gen_random_regular(4, 30, 1)
        g = Graph(0)
        for _ in range(400):
            shift = g.num_vertices()
            for _ in range(one.num_vertices()):
                g.add_vertex()
            for e in one.edges():
                a, b = one.endpoints(e)
                g.add_edge(a + shift, b + shift)
        callers = []
        edges = Graph.edges

        def logged(graph):
            if graph is g:
                callers.append(sys._getframe(1).f_code.co_name)
            return edges(graph)

        with mock.patch.object(Graph, "edges", logged):
            coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert trace.steps[0].params == "count=400"
        assert callers == ["solve21"]

    # each family at scale 1 (about 1,000 edges) and 4; the pocket grows
    # with its cores' slot spacing, SLOT_STEP = 15 * scale
    WORK_FAMILIES = {
        "random-regular": lambda s: gen_random_regular(4, 500 * s, 1),
        "pg-lift": lambda s: pg_lift(20 * s, random.Random(1)),
        "k5e-ring": lambda s: k5e_ring(100 * s, random.Random(1)),
        "circulant-1-2": lambda s: circulant(500 * s, (1, 2)),
        "cycle": lambda s: cycle(1000 * s),
        "mixed-branch-pocket": lambda s: build_pocket(SHAPES["mixed-branch"])[0],
    }

    @pytest.mark.parametrize("family", sorted(WORK_FAMILIES))
    def test_lookups_per_edge_stay_flat(self, family, monkeypatch):
        """A doubling gate on a deterministic count: solve21's lookups by
        key into the adjacency and edge dicts, per edge, may grow by at most
        a tenth when the edges grow fourfold.

        A peel that rescans the vertex list after each removal, instead of
        popping its heap, fails here on every family but the lift, which it
        does not peel: its figure per edge grows 2 to 4 times.  The count
        misses work in sets and int masks (_first_fit, the census, the exact
        search), so it adds to wall time and does not replace it.
        """
        tally = count_graph_lookups(monkeypatch)
        per_edge = []
        for scale in (1, 4):
            monkeypatch.setattr(pocket, "SLOT_STEP", 15 * scale)
            g = self.WORK_FAMILIES[family](scale)
            tally[0] = 0
            coloring, trace = solve21(g)
            per_edge.append(tally[0] / g.num_edges())
            assert_solved(g, coloring, trace)
        assert per_edge[1] <= 1.1 * per_edge[0], per_edge


class TestPublicReductions:
    """Each reduction step on a graph that reaches it: through solve21, or
    called on its own on a fresh _Solver."""

    def test_reduce_low_degree(self):
        g = gen_incidence_pg(2)
        coloring, trace = solve21(g)
        ok, _ = verify_strong_coloring(g, coloring)
        assert ok and set(coloring.colored()) == set(g.edges())
        assert trace.tags()[0] == "low-degree"

    def test_reduce_small_cut(self):
        g = two_block_cut_fixture()
        cut = find_edge_cut_at_most(g)
        assert cut is not None and len(cut.cut_edges) == 2
        solver = _Solver()
        coloring = PartialColoring(21, solver._small_cut(g, cut, 0))
        ok, _ = verify_strong_coloring(g, coloring)
        assert ok and set(coloring.colored()) == set(g.edges())
        assert solver.trace.tags()[0] == "small-cut"

    def test_reduce_short_cycle(self):
        g = circulant(11, (1, 2))
        conf = find_configuration(g, TRIANGLE)
        solver = _Solver()
        coloring = PartialColoring(21, solver._short_cycle(g, conf, 0))
        ok, _ = verify_strong_coloring(g, coloring)
        assert ok and set(coloring.colored()) == set(g.edges())
        assert solver.trace.tags()[0] == "short-cycle"

    def test_reduce_short_cycle_rejects_unknown(self):
        g = circulant(11, (1, 2))
        conf = find_configuration(g, TRIANGLE)
        conf.kind = "bogus"
        with pytest.raises(ValueError, match="unhandled configuration bogus"):
            _Solver()._short_cycle(g, conf, 0)


class TestSequencePlan:
    def test_plan_on_incidence_graph(self):
        g = gen_incidence_pg(3)
        plan = build_precolor_and_sequence(g, 0)
        audit = audit_sequence(g, plan)
        assert audit["precolored_edges"] == 7
        assert audit["precolor_valid"]
        assert audit["tail_is_suffix"]
        assert audit["rule_behind_ok"]
        assert audit["outside_max_seen"] <= 3

    def test_plan_covers_protected_vertices(self):
        # every edge at the anchor core is either seeded or in the sequence
        g = gen_incidence_pg(3)
        plan = build_precolor_and_sequence(g, 0)
        labels = plan.labels
        w = labels.w
        w2, w3 = labels.children[w][1], labels.children[w][2]
        covered = set(plan.order) | set(plan.precolor.colored())
        for v in (labels.x, labels.u, labels.v, w, labels.y, w2, w3):
            for e in g.incident(v):
                assert e in covered

    def test_plan_requires_regularity(self):
        with pytest.raises(ValueError):
            build_precolor_and_sequence(gen_incidence_pg(2), 0)

    def test_plan_rejects_an_unknown_anchor(self):
        with pytest.raises(ValueError, match="^unknown vertex 999$"):
            build_precolor_and_sequence(gen_incidence_pg(3), 999)

    def test_plan_requires_girth_six(self):
        with pytest.raises(ValueError):
            build_precolor_and_sequence(girth5_graph(), 0)
        # a caller that vouches for girth six wrongly is caught by the
        # two-ball check
        with pytest.raises(ValueError, match="two-ball around anchor is not a tree"):
            build_precolor_and_sequence(complete(5), 0, girth_known=True)

    @pytest.mark.parametrize("name", ["pg3", *sorted(SHAPES), *sorted(THIN_SHAPES),
                                      "lift2-0", "lift3-1", "lift5-2"])
    def test_matches_the_neighborhood_map_oracle(self, name):
        # seed, tail, order and extension against the per-edge neighbourhood
        # map they were built from before: PG(2,3) from every anchor, the
        # eleven pocket fixtures and seeded lifts of PG(2,3) from vertex 0.
        # In each, one queued edge brings two or more edges in at once, so the
        # order that edges join in within a step is checked too.
        if name == "pg3":
            g = gen_incidence_pg(3)
            anchors = g.vertices()
        elif name.startswith("lift"):
            k, seed = map(int, name[len("lift"):].split("-"))
            g, anchors = pg_lift(k, random.Random(seed)), [0]
        else:
            g, _ = build_pocket(SHAPES[name] if name in SHAPES else THIN_SHAPES[name][0])
            anchors = [0]
        for x in anchors:
            plan = build_precolor_and_sequence(g, x)
            precolor, tail, order, most = sequence_plan_oracle(g, x)
            assert plan.precolor.as_dict() == precolor, x
            assert (plan.tail, plan.order) == (tail, order), x
            assert most >= 2
            new, old = extension_outcomes(g, plan)
            assert new == old, x

    def test_extend_sequence_completes(self):
        g = gen_incidence_pg(3)
        plan = build_precolor_and_sequence(g, 0)
        assert plan.covers_all(g)
        coloring = extend_sequence(g, plan)
        ok, _ = verify_strong_coloring(g, coloring)
        assert ok and set(coloring.colored()) == set(g.edges())


def extension_outcomes(g: Graph, plan: SequencePlan) -> list:
    """What extend_sequence and its oracle make of a plan: each an edge->color
    dict or the reason it fell back."""
    outcomes = []
    for extend in (lambda: extend_sequence(g, plan).as_dict(),
                   lambda: extend_sequence_oracle(g, plan)):
        try:
            outcomes.append(extend())
        except FallbackTriggered as exc:
            outcomes.append(str(exc))
    return outcomes


class TestBlockedTailManeuver:
    """Seed colorings that make the tail's grandchild edges stall, on the
    mixed-branch pocket, whose anchor two-ball is far from the rest of the
    seed.  Plans from build_precolor_and_sequence cannot stall twice or leave
    the donor without a color (extend_sequence's docstring); the plans here
    that do seed some of the tail edges at w and at the anchor."""

    def blocked_state(self):
        """A seed coloring arranged so the first tail edge sees all 21
        colors, forcing the sanctioned recolor move.  Needs a host whose
        anchor two-ball is far from the blocked edge's neighborhood, which
        the pocket fixtures provide."""
        g, _ = build_pocket(SHAPES["mixed-branch"])
        plan = build_precolor_and_sequence(g, 0)
        blocked = plan.tail[0]
        later_tail = set(plan.tail[2:]) | {plan.tail[1]}
        psi = plan.precolor
        nb = edge_neighborhood(g, blocked)
        targets = sorted(nb - later_tail - set(psi.colored()))
        assert len(targets) == 20
        avail = {t: available_colors(g, psi.as_dict(), t, 21) - {1} for t in targets}
        assignment = brute_distinct_assignment(avail)
        assert assignment is not None
        seeded = PartialColoring(psi.k, psi.as_dict())
        for t, c in assignment.items():
            seeded.assign(t, c)
        ok, _ = verify_strong_coloring(g, seeded)
        assert ok
        return g, plan, seeded, blocked

    def show(self, g: Graph, col: dict, e: int, colors, apart=()) -> None:
        """Color edges e sees, uncolored and outside `apart`, each new color
        on its own edge where it is free, until the colored edges e sees
        outside `apart` show every color in `colors`."""
        seen = edge_neighborhood(g, e) - set(apart)
        free = sorted(f for f in seen if f not in col)
        missing = set(colors) - {col[f] for f in seen if f in col}
        avail = {c: {f for f in free if c in available_colors(g, col, f, 21)}
                 for c in missing}
        placed = brute_distinct_assignment(avail)
        assert placed is not None
        col.update({f: c for c, f in placed.items()})

    def forced(self):
        """The fixture, its plan, a copy of the seed coloring and the donor
        edge w-w1."""
        g, _ = build_pocket(SHAPES["mixed-branch"])
        plan = build_precolor_and_sequence(g, 0)
        w = plan.labels.w
        (ww1,) = g.edges_between(w, plan.labels.children[w][0])
        return g, plan, plan.precolor.as_dict(), ww1

    def extend_tail(self, g: Graph, plan: SequencePlan, col: dict) -> list:
        """Both extensions of the tail edges col leaves uncolored, in tail
        order, on top of col, once col is checked to be a strong coloring."""
        seeded = PartialColoring(PALETTE, col)
        ok, _ = verify_strong_coloring(g, seeded)
        assert ok
        order = [e for e in plan.tail if e not in col]
        return extension_outcomes(g, SequencePlan(plan.labels, seeded, plan.tail, order))

    def test_recolor_move_saves_the_tail(self):
        g, plan, seeded, blocked = self.blocked_state()
        labels = plan.labels
        w = labels.w
        e_ww1 = g.edges_between(w, labels.children[w][0])[0]
        assert not available_colors(g, seeded.as_dict(), blocked, 21)
        tail_plan = SequencePlan(labels, seeded, plan.tail, list(plan.tail))
        out = extend_sequence(g, tail_plan)
        ok, _ = verify_strong_coloring(g, out)
        assert ok
        assert out.color(blocked) == 1            # took the moved seed color
        assert out.color(e_ww1) is not None       # and the donor got recolored
        for e in plan.tail:
            assert out.color(e) is not None
        assert out.as_dict() == extend_sequence_oracle(g, tail_plan)

    @pytest.mark.parametrize("head", [[1, 0], [0]],
                             ids=["second-before-first", "second-left-out"])
    def test_tail_orders_off_the_plan(self, head):
        # the order is cut just after the second grandchild edge wherever it
        # stands, and not at all without it; the first one stalls after the
        # cut, so the donor is recolored at the end of the order
        g, plan, seeded, blocked = self.blocked_state()
        order = [plan.tail[i] for i in head] + plan.tail[2:]
        new, old = extension_outcomes(g, SequencePlan(plan.labels, seeded, plan.tail, order))
        assert isinstance(new, dict) and new == old
        assert new[blocked] == 1

    def test_stall_off_the_tail_falls_back(self):
        g, plan, seeded, blocked = self.blocked_state()
        # ask the walk to color the blocked edge last, where it is not allowed
        bogus = SequencePlan(plan.labels, seeded, plan.tail[2:],
                             plan.tail[2:] + [blocked])
        with pytest.raises(FallbackTriggered, match=f"sequence stalled at edge {blocked}$"):
            extend_sequence(g, bogus)

    def test_only_the_second_grandchild_edge_stalls(self):
        # the second grandchild edge sees colors 2..21 off the donor, so it
        # takes the donor's 1, and the donor is recolored right after it
        g, plan, col, ww1 = self.forced()
        self.show(g, col, plan.tail[1], range(2, 22), apart={ww1, *plan.tail})
        new, old = self.extend_tail(g, plan, col)
        assert new == old
        assert new[plan.tail[1]] == 1 and new[plan.tail[0]] != 1
        assert new[ww1] not in (None, 1)
        ok, _ = verify_strong_coloring(g, PartialColoring(PALETTE, new))
        assert ok

    def test_stalled_twice(self):
        # the first grandchild edge stalls as in blocked_state; with x-w
        # seeded, the second sees all 21 colors without the donor, so it
        # stalls while the donor is out
        g, plan, col, ww1 = self.forced()
        self.show(g, col, plan.tail[0], range(2, 22), apart={ww1, *plan.tail[1:]})
        self.show(g, col, plan.tail[1], range(1, 22), apart={ww1, *plan.tail[:4]})
        assert plan.tail[7] in col
        reason = "sequence stalled twice; donor edge already moved"
        assert self.extend_tail(g, plan, col) == [reason, reason]

    def test_donor_color_still_blocked(self):
        # the first grandchild edge sees all 21 colors without the donor,
        # color 1 among them, so the donor's 1 does not free it
        g, plan, col, ww1 = self.forced()
        self.show(g, col, plan.tail[0], range(1, 22), apart={ww1, *plan.tail[1:4]})
        reason = "donor color still blocked after removal"
        assert self.extend_tail(g, plan, col) == [reason, reason]

    def test_recolor_of_moved_seed_edge(self):
        # the donor's other edges in view show colors 2..21, and the first
        # grandchild edge, which takes its 1, shows 2..21 too
        g, plan, col, ww1 = self.forced()
        self.show(g, col, ww1, range(2, 22), apart={plan.tail[0]})
        self.show(g, col, plan.tail[0], range(2, 22), apart={ww1})
        reason = f"no color available for edge {ww1} during recolor of moved seed edge"
        assert self.extend_tail(g, plan, col) == [reason, reason]


# First 16 hex digits of sha256(coloring JSON + trace text) for each pocket
# fixture: any change to a collaborative recipe's coloring or trace shows here.
POCKET_DIGESTS = {
    "hub-deg1": "942459163a7fec8e",
    "hub-deg2": "2a8140c4a207c27a",
    "hub-deg2-swapped": "e530c5a0a1f4a901",
    "l-sibling": "9e7bf097ff2e99a6",
    "l-sibling-swapped": "c0f565c2d31bf63e",
    "l-sibling-thin": "d60665595bae8cc6",
    "middles-left": "19bc0ea853b35768",
    "middles-right": "2003ad61011c146c",
    "middles-right-thin": "e4ee126691dd2e87",
    "mixed-branch": "d9e869ff70d080d5",
    "mixed-middles": "21b9e363c3969e92",
    "r-sibling": "c77cc79b12ce45ff",
    "r-sibling-thin": "c7850bc3727190bc",
    "twin-anchors": "fac93e0f5e5e0b9e",
    "twin-anchors-swapped": "b30a9331f88f1f58",
}

VARIANT_SHAPES = {**THIN_SHAPES, **SWAP_SHAPES}

# middles-right with a thin outward child: the anchor's first mid child has a
# hub below it in each right slot, each hub shared with a mid child of another
# branch, so its outward child has two right edges.  Kept out of pocket.py's
# tables, which the benchmark's pocket workload imports.
MIDDLES_RIGHT_THIN = {
    "u": [M("L", "hub:p", "hub:q"), M("L", "R", "R"), M("L", "R", "R")],
    "v": [M("L", "L", "hub:p"), "L", "R"],
    "w": [M("L", "L", "hub:q"), "R", "R"],
}

# The same digests for `_collaborative` run straight on a fixture's partition
# while `_colors_at` reports every color ("all") or only color 3 ("three").
# That forces arms no fixture reaches on its own: the unseeded orders of
# mixed-branch, r-sibling and l-sibling, hub-deg1's order with d at w12,
# and twin-anchors' claim arm and its color-3 swap.
FORCED_DIGESTS = {
    ("hub-deg1", "all"): "cd9c78158474cf0c",
    ("l-sibling-thin", "all"): "93e0f44b2c373729",
    ("mixed-branch", "all"): "80f5e0f69229c0f9",
    ("r-sibling", "all"): "3b87d38ee0e4f97b",
    ("twin-anchors", "all"): "ebe645946b868c05",
    ("twin-anchors", "three"): "dadfea6d15e5734b",
}


def pocket_digest(coloring, trace) -> str:
    text = coloring_to_json(coloring) + trace.format_text()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPartitionFixtures:
    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_case_is_reached_and_solved(self, case):
        g, info = build_pocket(SHAPES[case])
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert collaborative_cases(trace) == [case]
        assert pocket_digest(coloring, trace) == POCKET_DIGESTS[case]

    @pytest.mark.parametrize("name", sorted(VARIANT_SHAPES))
    def test_thin_outward_variants(self, name):
        # fewer than three right edges at the outward child drives the
        # recipes' extra pairing helper between the two outward children;
        # the swapped variants make the recipes swap the first two branches
        shape, expected = VARIANT_SHAPES[name]
        g, info = build_pocket(shape)
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert collaborative_cases(trace) == [expected]
        assert pocket_digest(coloring, trace) == POCKET_DIGESTS[name]

    def test_middles_right_thin_outward_child(self, monkeypatch):
        # the outward child's two right edges make the recipe pair the two
        # outward children in the right block
        import strongedge.reduction as red
        build, whys = red._Solver._RECIPES["middles-right"], []

        def spy(solver, g, part, labels):
            recipe = build(solver, g, part, labels)
            whys.extend(why for _, _, why in recipe.right)
            return recipe

        monkeypatch.setitem(red._Solver._RECIPES, "middles-right", spy)
        g, info = build_pocket(MIDDLES_RIGHT_THIN)
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert collaborative_cases(trace) == ["middles-right"]
        assert "pairing the outward children" in whys
        assert pocket_digest(coloring, trace) == POCKET_DIGESTS["middles-right-thin"]

    def test_twin_anchors_swapped_branches(self):
        # the twin-anchors pocket with the ids of the first and second
        # branches' children swapped pairwise: the chosen anchor child now
        # sits under the second branch, so the recipe swaps the two branches
        import strongedge.reduction as red
        g0, info = build_pocket(SHAPES["twin-anchors"])
        u, v = info["branch"][:2]
        perm = {z: z for z in g0.vertices()}
        for a, b in zip(info["children"][u], info["children"][v]):
            perm[a], perm[b] = b, a
        g = Graph(g0.num_vertices())
        for e in g0.edges():
            g.add_edge(*(perm[z] for z in g0.endpoints(e)))
        swap = red.BranchLabels.swap_uv
        with mock.patch.object(red.BranchLabels, "swap_uv", autospec=True,
                               side_effect=swap) as spy:
            coloring, trace = solve21(g)
        assert spy.call_count == 1
        assert_solved(g, coloring, trace)
        assert collaborative_cases(trace) == ["twin-anchors"]
        assert pocket_digest(coloring, trace) == POCKET_DIGESTS["twin-anchors-swapped"]

    def test_dispatch_skips_girth(self, monkeypatch):
        # the finders rule out cycles shorter than six before the anchored
        # step, so the dispatcher never asks for the girth
        import strongedge.reduction as red

        def no_girth(g):
            raise AssertionError("girth() called during dispatch")

        monkeypatch.setattr(red, "girth", no_girth)
        g, info = build_pocket(SHAPES["hub-deg2"])
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert pocket_digest(coloring, trace) == POCKET_DIGESTS["hub-deg2"]

    @pytest.mark.parametrize("name, shown", sorted(FORCED_DIGESTS))
    def test_forced_arms(self, name, shown, monkeypatch):
        import strongedge.reduction as red
        shape = SHAPES[name] if name in SHAPES else VARIANT_SHAPES[name][0]
        g, info = build_pocket(shape)
        part = build_partition(g, build_precolor_and_sequence(g, 0))
        colors = set(range(1, 22)) if shown == "all" else {3}
        monkeypatch.setattr(red, "_colors_at", lambda g, col, v: set(colors))
        solver = red._Solver()
        coloring = PartialColoring(21, solver._collaborative(g, part, 0))
        assert_solved(g, coloring, solver.trace)
        assert pocket_digest(coloring, solver.trace) == FORCED_DIGESTS[(name, shown)]

    def test_final_verify_catches_a_bad_block(self, monkeypatch):
        # the transferred blocks are checked once, by the recipe's final
        # verify: a left block that repeats a color at a left-core vertex
        # must fall back there and be finished by the exact solver
        import strongedge.reduction as red
        g, info = build_pocket(SHAPES["hub-deg2"])
        core = max(info["left"])  # a left-core vertex, away from every helper
        solve_block, planted = red._Solver._solve_block, []

        def bad_left(solver, g_, sub, depth, side, fixed):
            col = solve_block(solver, g_, sub, depth, side, fixed)
            if side == "left":
                e1, e2 = sub.incident(core)[:2]
                col[e2] = col[e1]
                planted.append((e1, e2))
            return col

        verify, checked = red.verify_strong_coloring, []

        def spy(g_, coloring):
            ok, witness = verify(g_, coloring)
            checked.append((g_, coloring.as_dict(), ok))
            return ok, witness

        monkeypatch.setattr(red._Solver, "_solve_block", bad_left)
        monkeypatch.setattr(red, "verify_strong_coloring", spy)
        coloring, trace = solve21(g)
        fallbacks = [s.params for s in trace.steps if s.tag == "fallback"]
        assert len(planted) == 1 and len(fallbacks) == 1
        assert fallbacks[0].startswith("reason=recipe produced conflict")
        ok, witness = verify_strong_coloring(g, coloring)
        assert ok, witness
        assert set(coloring.colored()) == set(g.edges())
        assert len(coloring.colors_used()) <= 21
        # the verifier rejected the recipe's coloring with the planted pair,
        # and the coloring solve21 returned passed it
        (e1, e2), = planted
        assert [ok for _, _, ok in checked] == [False, True]
        (_, bad, _), (last_g, last, _) = checked
        assert bad[e1] == bad[e2]
        assert last_g is g and last == coloring.as_dict()

    @pytest.mark.parametrize("name", sorted(SHAPES) + sorted(THIN_SHAPES))
    def test_partition_invariants(self, name):
        # build_partition checks no edge for joining left to right: an edge
        # leaving left is crossing, so its far end is mid.  This test is
        # what checks that property, on every fixture.  Each fixture reaches
        # the partition in solve21, past the short-cycle scans, so its girth
        # is at least six
        shape = SHAPES[name] if name in SHAPES else THIN_SHAPES[name][0]
        g, info = build_pocket(shape)
        plan = build_precolor_and_sequence(g, 0, girth_known=True)
        assert not plan.covers_all(g)
        audit = audit_sequence(g, plan)
        assert audit["rule_behind_ok"] and audit["outside_max_seen"] <= 3
        part = build_partition(g, plan)
        # left block matches the construction and the split is clean
        assert part.left == info["left"]
        assert part.mid == info["mid"]
        for e in g.edges():
            a, b = g.endpoints(e)
            assert not ((a in part.left and b in part.right)
                        or (a in part.right and b in part.left))
        # an independent full scan of g: build_partition reads only the
        # left vertices' own edges
        inner = {e for e in g.edges()
                 if g.endpoints(e)[0] in part.left and g.endpoints(e)[1] in part.left}
        assert inner == part.left_edges
        assert part.crossing == [e for e in g.edges()
                                 if len(set(g.endpoints(e)) & part.left) == 1]
        for e in part.crossing:
            assert len(set(g.endpoints(e)) & part.designated) == 1
        for a in part.designated:
            assert sum(1 for e in part.crossing if a in g.endpoints(e)) <= 2
        for v in part.left:
            assert sum(1 for e in part.crossing if v in g.endpoints(e)) <= 1
        assert len(part.crossing) >= 4

    def test_hand_built_plans_fail_the_checks(self):
        # build_partition is public, so a plan that no stalled sequence gives
        # reaches its checks: one covering every edge, one leaving an anchor
        # edge over, one leaving two core edges over around a sequence edge
        # between them, and one leaving a single core edge far from left
        g, _ = build_pocket(SHAPES["hub-deg2"])
        plan = build_precolor_and_sequence(g, 0, girth_known=True)
        order = set(plan.order)

        def without(*drop):
            return SequencePlan(plan.labels, plan.precolor, plan.tail,
                                [e for e in plan.order if e not in drop])

        a = max(g.vertices())  # a right-core vertex, built last
        ab = g.incident(a)[0]
        b = g.other_end(ab, a)
        bc = next(f for f in g.incident(b) if f != ab)
        c = g.other_end(bc, b)
        cd = next(f for f in g.incident(c) if f != bc)
        assert {ab, bc, cd} <= order
        pg = gen_incidence_pg(3)
        for g_, plan_, reason in [
                (pg, build_precolor_and_sequence(pg, 0), "no leftover uncolored edges"),
                (g, without(plan.tail[4]), "left block touches the anchor's protected vertices"),
                (g, without(ab, cd), "left block spans more than the leftover edges"),
                (g, without(ab), r"crossing edge \d+ misses the designated ring")]:
            with pytest.raises(FallbackTriggered, match=f"^{reason}$"):
                build_partition(g_, plan_)

    def test_collaborative_color_public_op(self):
        g, info = build_pocket(SHAPES["mixed-branch"])
        plan = build_precolor_and_sequence(g, 0)
        part = build_partition(g, plan)
        solver = _Solver()
        coloring = PartialColoring(21, solver._collaborative(g, part, 0))
        ok, _ = verify_strong_coloring(g, coloring)
        assert ok and set(coloring.colored()) == set(g.edges())

    def test_fixture_geometry(self):
        g, info = build_pocket(SHAPES["twin-anchors"])
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert girth(g) == 6
        assert find_edge_cut_at_most(g) is None


POCKET_BASES = {**SHAPES, **{name: shape for name, (shape, _) in VARIANT_SHAPES.items()}}
GRANDCHILD_SPECS = ["L", "R", "hub:h", "hub:p", "hub:q"]
CHILD_SPECS = st.one_of(
    st.sampled_from(["L", "R"]),
    st.lists(st.sampled_from(GRANDCHILD_SPECS), min_size=3, max_size=3)
    .map(lambda kids: M(*kids)))


@st.composite
def pocket_shapes(draw):
    """A fixture shape with each branch's child specs and each mid child's
    grandchild specs permuted, u and v swapped half the time, and one child
    spec in four draws replaced."""
    base = POCKET_BASES[draw(st.sampled_from(sorted(POCKET_BASES)))]
    shape = {key: [M(*draw(st.permutations(spec[1]))) if isinstance(spec, tuple) else spec
                   for spec in draw(st.permutations(base[key]))]
             for key in "uvw"}
    if draw(st.booleans()):
        shape["u"], shape["v"] = shape["v"], shape["u"]
    if draw(st.integers(0, 3)) == 0:
        shape[draw(st.sampled_from("uvw"))][draw(st.integers(0, 2))] = draw(CHILD_SPECS)
    return shape


def relabeled(g0, rng):
    """g0 with every vertex but the anchor 0 renamed and its edges inserted
    in shuffled order; the solver anchors at the lowest id."""
    ids = list(range(1, g0.num_vertices()))
    rng.shuffle(ids)
    perm = [0] + ids
    edges = [[perm[p] for p in g0.endpoints(e)] for e in g0.edges()]
    rng.shuffle(edges)
    g = Graph(g0.num_vertices())
    for a, b in edges:
        g.add_edge(a, b)
    return g


class TestPocketDraws:
    @settings(max_examples=70, derandomize=True, database=None, deadline=None)
    @given(shape=pocket_shapes(), seed=st.integers(0, 2**32 - 1))
    def test_mutated_pockets_solve_without_fallback(self, shape, seed):
        try:
            g0, _ = build_pocket(shape)
        except (ValueError, RuntimeError):
            reject()
        # Hypothesis repeats a few small seeds; keying the shuffle on the
        # shape too keeps one seed from giving every shape the same roles
        g = relabeled(g0, random.Random(f"{seed} {shape}"))
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)


class TestLiftDraws:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(k=st.integers(1, 12), s=st.integers(0, 2**32 - 1))
    def test_relabelled_lifts_solve_without_fallback(self, k, s):
        """Seeded k-lifts of PG(2,3) under a random relabelling: 4-regular
        with girth at least six, so no vertex peels and no short cycle
        reduces.

        Run with max_examples=200, all 200 draws (0.8 s on two cores)
        finished by one `sequence-complete` step.  So these draws widen the
        zero-fallback claim but do not reach the partition; only the pocket
        fixtures do.
        """
        g = shuffled(pg_lift(k, random.Random(s)), random.Random(s + 1))
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)


class TestChildOrders:
    """The one ordering rule of _mark_children against the orders it
    replaced, helpers' oracles, at every mid designated vertex: with the
    default outward child, and through _relabel_partner with each right
    child forced into the outward slot."""

    @staticmethod
    def partition(g):
        return build_partition(g, build_precolor_and_sequence(g, 0))

    @staticmethod
    def compare(g, part) -> int:
        """Check every mid designated vertex; count the forced outward
        children that differ from the default one."""
        solver, differ = _Solver(), 0
        for zi in sorted(part.mid & part.designated):
            labels = part.labels.copy()
            marked = labels.copy()
            solver._mark_children(g, part, marked, zi)
            order = mark_children_oracle(solver, g, part, labels, zi)
            assert marked.children == {**labels.children, zi: order}, zi
            for hub in [c for c in order if c in part.right]:
                new, old = labels.copy(), labels.copy()
                solver._relabel_partner(g, part, new, zi, hub)
                relabel_partner_oracle(g, part, old, zi, hub, solver._branch_of(labels, zi))
                assert new.children == old.children, (zi, hub)
                differ += hub != order[2]
        return differ

    def test_fixtures(self):
        # a mid vertex with one left and two right kids, as l-sibling's u3
        # has, forces its non-default right kid, which no fixture's own
        # _relabel_partner call does
        differ = 0
        for name in sorted(POCKET_BASES):
            g, _ = build_pocket(POCKET_BASES[name])
            differ += self.compare(g, self.partition(g))
        assert differ > 0

    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(shape=pocket_shapes())
    def test_pocket_draws(self, shape):
        # not relabeled as in TestPocketDraws: a relabeled pocket's sequence
        # mostly covers every edge, leaving no partition to check
        try:
            g, _ = build_pocket(shape)
            part = self.partition(g)
        except (ValueError, RuntimeError, FallbackTriggered):
            reject()
        self.compare(g, part)


class TestAssignmentHelpers:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_match_the_colors_on_seen_edges(self, data):
        # on a drawn partial coloring, valid or not, _greedy_assign takes the
        # smallest color on no seen edge and _checked_assign refuses exactly
        # the colors on a seen edge.  Half the graphs are simple 4-regular,
        # where an edge sees up to 24 others; half the draws with 21 or more
        # seen edges color 21 of them 1..21, so that no color is left
        if data.draw(st.booleans()):
            g = gapped_multigraph(data.draw)
            if not g.edges():
                reject()
        else:
            g = gen_random_regular(4, data.draw(st.integers(7, 30)), data.draw(st.integers(0, 99)))
        e = data.draw(st.sampled_from(g.edges()))
        seen = sorted(seen_edges(g, e))
        others = [f for f in g.edges() if f != e]
        col = data.draw(st.dictionaries(st.sampled_from(others), st.integers(1, PALETTE))
                        if others else st.just({}))
        if len(seen) >= PALETTE and data.draw(st.booleans()):
            col.update(zip(data.draw(st.permutations(seen)), range(1, PALETTE + 1)))
        shown = {col[f] for f in seen if f in col}
        free = [c for c in range(1, PALETTE + 1) if c not in shown]
        work = dict(col)
        if free:
            _greedy_assign(g, work, e, "a draw")
            assert work == {**col, e: free[0]}
        else:
            with pytest.raises(FallbackTriggered,
                               match=f"^no color available for edge {e} during a draw$"):
                _greedy_assign(g, work, e, "a draw")
            assert work == col
        for c in range(1, PALETTE + 1):
            work = dict(col)
            if c in shown:
                with pytest.raises(FallbackTriggered,
                                   match=f"^color {c} blocked on edge {e} during a draw$"):
                    _checked_assign(g, work, e, c, "a draw")
                assert work == col
            else:
                _checked_assign(g, work, e, c, "a draw")
                assert work == {**col, e: c}
        work = {**col, e: 1}
        with pytest.raises(FallbackTriggered, match=f"^edge {e} already colored during a draw$"):
            _checked_assign(g, work, e, 2, "a draw")
        with pytest.raises(FallbackTriggered, match=f"^edge {e} already colored during a draw$"):
            _greedy_assign(g, work, e, "a draw")
        assert work == {**col, e: 1}


def plant_in_first_cut_side(solve_block):
    """_solve_block that repeats a color at the first cut side's first
    vertex away from the stubs, once."""
    planted = []

    def bad(solver, g, sub, depth, side, fixed):
        col = solve_block(solver, g, sub, depth, side, fixed)
        if side == "cut" and not planted:
            v = next(v for v in sub.vertices() if all(map(g.has_edge_id, sub.incident(v))))
            e1, e2 = sub.incident(v)[:2]
            col[e2] = col[e1]
            planted.append(v)
        return col
    return bad


class TestForcedFallbacks:
    """One forced failure for each group of guards that tests reach, through
    solve21: the trace names the guard's reason, and the exact finish
    returns a verified coloring with at most 21 colors."""

    @pytest.mark.parametrize("case, reason", [pytest.param(*p, id=p[0]) for p in [
        ("assignment", r"no color available for edge \d+ during parallel edge reinsertion"),
        ("low-degree", r"no color available for edge 0 during low-degree extension"),
        ("stall", r"sequence stalled at edge \d+"),
        ("splice", r"cut splice produced conflict .+"),
        ("partition", r"left block touches the anchor's protected vertices"),
        ("uncolored", r"recipe left 1 edges uncolored"),
    ]])
    def test_exact_finish_recovers(self, case, reason, monkeypatch):
        import strongedge.reduction as red
        if case == "assignment":
            g = multi_edge_fixture()
            monkeypatch.setattr(red, "available_colors", lambda *args: frozenset())
        elif case == "low-degree":
            g = cycle(25)
            monkeypatch.setattr(red, "_first_fit", lambda *args: 0)
        elif case == "stall":
            g = gen_incidence_pg(3)
            monkeypatch.setattr(red, "_first_fit", lambda g, col, order, k: order[0])
        elif case == "splice":
            g = two_block_cut_fixture()
            monkeypatch.setattr(red._Solver, "_solve_block",
                                plant_in_first_cut_side(red._Solver._solve_block))
        elif case == "partition":
            g, _ = build_pocket(SHAPES["hub-deg2"])

            def tampered(g, x, **kw):
                plan = build_precolor_and_sequence(g, x, **kw)
                return SequencePlan(plan.labels, plan.precolor, plan.tail,
                                    [e for e in plan.order if e != plan.tail[4]])
            monkeypatch.setattr(red, "build_precolor_and_sequence", tampered)
        else:
            g, _ = build_pocket(SHAPES["hub-deg2"])
            build = red._Solver._RECIPES["hub-deg2"]

            def short(*args):
                recipe = build(*args)
                return dataclasses.replace(recipe, order=recipe.order[:-1])
            monkeypatch.setitem(red._Solver._RECIPES, "hub-deg2", short)
        coloring, trace = solve21(g)
        reasons = [s.params for s in trace.steps if s.tag == "fallback"]
        assert reasons and all(re.fullmatch("reason=" + reason, r) for r in reasons), reasons
        ok, witness = verify_strong_coloring(g, coloring)
        assert ok, witness
        assert set(coloring.colored()) == set(g.edges())
        assert len(coloring.colors_used()) <= 21


class TestCompletionStrategies:
    """_complete_targets on synthetic availability states, and the exact
    finish that takes over when it falls back.

    Natural instances close by distinct representatives, so the fallback is
    exercised with a shrunk palette and hand-built partial colorings.
    """

    def test_equal_singletons_fall_back(self, monkeypatch):
        import strongedge.reduction as red
        monkeypatch.setattr(red, "PALETTE", 3)
        g = cycle(6)
        col = {1: 1, 2: 2, 4: 1, 5: 2}
        solver = red._Solver()
        # both targets can only take color 3, so distinctness is hopeless
        with pytest.raises(FallbackTriggered,
                           match="completion exhausted for 2 target edges"):
            solver._complete_targets(g, col, [0, 3], 0)
        assert col == {1: 1, 2: 2, 4: 1, 5: 2}
        assert not solver.trace.steps

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_search_matches_brute_force(self, data):
        # a small multigraph of maximum degree four, a strong partial
        # coloring of its other edges, and up to five uncolored targets:
        # the completion colors them iff an exhaustive search finds
        # distinct representatives, and otherwise falls back
        import strongedge.reduction as red
        n = data.draw(st.integers(2, 14))
        g = Graph(n)
        ends = st.integers(0, n - 1)
        for u, v in data.draw(st.lists(st.tuples(ends, ends), max_size=30)):
            if u != v and g.degree(u) < 4 and g.degree(v) < 4:
                g.add_edge(u, v)
        if not g.num_edges():
            return
        k = data.draw(st.integers(2, 8))
        targets = sorted(data.draw(st.sets(st.sampled_from(g.edges()),
                                           min_size=1, max_size=5)))
        col = {}
        for e in g.edges():
            c = data.draw(st.integers(0, k))
            if (e not in targets and c
                    and all(col.get(f) != c for f in seen_edges(g, e))):
                col[e] = c
        expected = brute_distinct_assignment(
            {t: set(range(1, k + 1)) - {col.get(f) for f in seen_edges(g, t)}
             for t in targets})
        solver = red._Solver()
        work = dict(col)
        with mock.patch.object(red, "PALETTE", k):
            try:
                solver._complete_targets(g, work, targets, 0)
            except FallbackTriggered:
                assert expected is None
                assert work == col
                return
        assert expected is not None
        assert set(targets) <= set(work)
        assert verify_oracle(g, PartialColoring(k, work)) == (True, None)
        assert {e: c for e, c in work.items() if e not in targets} == col
        assert solver.trace.steps[-1].params == f"targets={len(targets)} outcome=direct"

    def test_forced_fallback_recovers_via_exact(self, monkeypatch):
        # with every availability set empty, the completion of the triangle
        # finds no match and the exact finish colors the whole graph
        import strongedge.reduction as red
        monkeypatch.setattr(red, "available_colors", lambda *args: frozenset())
        g = circulant(11, (1, 2))
        coloring, trace = solve21(g)
        ok, _ = verify_strong_coloring(g, coloring)
        assert ok and set(coloring.colored()) == set(g.edges())
        assert len(coloring.colors_used()) <= 21
        assert [s.format() for s in trace.steps if s.tag == "fallback"] == [
            "0 fallback reason=completion exhausted for 9 target edges |V|=11 |E|=22"]

    def test_exact_finish_budget_is_bounded(self, monkeypatch):
        # C7 needs 4 colors; with a palette of 3 and a one-node budget the
        # exact finish must stop and say so instead of searching on
        import strongedge.reduction as red
        monkeypatch.setattr(red, "PALETTE", 3)
        monkeypatch.setattr(red, "EXACT_FINISH_BUDGET", 1)
        with pytest.raises(RuntimeError,
                           match="7 vertices and 7 edges .* 1-node budget"):
            red._Solver()._exact_finish(cycle(7))
        monkeypatch.setattr(red, "EXACT_FINISH_BUDGET", 1000)
        with pytest.raises(RuntimeError, match="needed 4 colors"):
            red._Solver()._exact_finish(cycle(7))


class TestSharedEndpointCut:
    def fixture(self):
        """Two-edge cut whose side-one endpoints coincide, so the split adds
        a parallel pair at the apex vertex."""
        g = Graph(14)
        for base in (0, 7):
            seen = set()
            for i in range(7):
                for d in (1, 3):
                    j = (i + d) % 7
                    key = (base + min(i, j), base + max(i, j))
                    if key not in seen:
                        seen.add(key)
                        g.add_edge(*key)
        for u, v in ((0, 1), (0, 3)):
            g.remove_edge(g.edges_between(u, v)[0])
        g.add_edge(1, 3)
        g.remove_edge(g.edges_between(7, 10)[0])
        g.add_edge(0, 7)
        g.add_edge(0, 10)
        return g

    def test_cut_with_repeated_endpoint(self):
        from helpers import brute_min_cut
        g = self.fixture()
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert brute_min_cut(g) == 2
        coloring, trace = solve21(g)
        assert_solved(g, coloring, trace)
        assert trace.tags()[0] == "small-cut"
        first = trace.steps[0]
        cut_edges = eval(first.params.split("edges=")[1])
        assert len(cut_edges) == 2
        a1 = set(g.endpoints(cut_edges[0]))
        a2 = set(g.endpoints(cut_edges[1]))
        assert a1 & a2  # the sides share a vertex
        assert pocket_digest(coloring, trace) == DISPATCH_DIGESTS["shared-endpoint-cut"]


class TestTraceInvariants:
    def test_measure_decreases_along_recursion(self):
        g, _ = build_pocket(SHAPES["hub-deg1"])
        _, trace = solve21(g)
        by_depth = {}
        for s in trace.steps:
            prev = by_depth.get(s.depth - 1)
            if s.depth > 0 and prev is not None:
                assert s.n + s.m < prev
            by_depth[s.depth] = s.n + s.m

    def test_trace_text_format(self):
        g = cycle(5)
        _, trace = solve21(g)
        line = trace.format_text().strip()
        assert line.startswith("0 base-case") and line.endswith("|V|=5 |E|=5")

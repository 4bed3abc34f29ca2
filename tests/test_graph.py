import math
import random
from collections import Counter
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import strongedge.graph as graph_module
from strongedge.graph import (
    C4,
    C5,
    CONFIGURATION_KINDS,
    Graph,
    K23,
    K24,
    K33,
    MULTI_EDGE,
    TRIANGLE,
    _Census,
    find_configuration,
    find_edge_cut_at_most,
    format_edge_list,
    gen_blowup_c5,
    gen_incidence_pg,
    gen_random_regular,
    girth,
    graph_from_json,
    graph_to_json,
    parse_edge_list,
)

from helpers import (
    brute_has_configuration,
    brute_min_cut,
    brute_min_cuts,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    doubled,
    even_closure,
    first_configuration_oracle,
    first_two_edge_cut_oracle,
    girth_oracle,
    is_2k2_free,
    k5e_ring,
    LookupLimit,
    min_cut_size_oracle,
    pairing_model_oracle,
    path,
    petersen,
    pg_lift,
    random_graph,
    random_graph_max_deg,
    shuffled,
)
from test_coloring import pairing_model_multigraph


class TestGraphBasics:
    def test_ids_stable_under_deletion(self):
        g = Graph(5)
        eids = [g.add_edge(i, (i + 1) % 5) for i in range(5)]
        before = {e: g.endpoints(e) for e in eids if e != eids[2]}
        g.remove_edge(eids[2])
        assert {e: g.endpoints(e) for e in g.edges()} == before
        g.remove_vertex(0)
        assert g.vertices() == [1, 2, 3, 4]
        # survivors keep their ids and endpoints
        assert g.endpoints(eids[1]) == (1, 2)

    def test_parallel_edges_get_distinct_ids(self):
        g = Graph(2)
        e1 = g.add_edge(0, 1)
        e2 = g.add_edge(0, 1)
        assert e1 != e2
        assert g.edges_between(0, 1) == [e1, e2]
        assert g.degree(0) == 2

    def test_no_self_loops(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_new_ids_never_collide_after_subgraph(self):
        g = Graph(4)
        for i in range(3):
            g.add_edge(i, i + 1)
        sub = g.induced_subgraph([0, 1, 2])
        fresh = sub.add_edge(0, 2)
        assert fresh not in g.edges()

    def test_incident_stays_sorted_through_removals(self):
        g = random_graph(9, 20, 3)
        for v in (4, 0, 7):
            g.remove_vertex(v)
        for e in g.edges()[::3]:
            g.remove_edge(e)
        g.add_edge(1, 2)
        for v in g.vertices():
            assert g.incident(v) == sorted(g.incident(v)), f"vertex {v}"
        # a new list each call: changing it leaves the graph alone
        g.incident(1).clear()
        assert g.degree(1) == len(g.incident(1)) > 0


class TestGirth:
    def test_c5(self):
        assert girth(cycle(5)) == 5

    def test_k4(self):
        assert girth(complete(4)) == 3

    def test_incidence_graph(self):
        g = gen_incidence_pg(3)
        assert girth(g) == 6
        assert girth_oracle(g) == 6

    def test_parallel_pair_is_a_two_cycle(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert girth(g) == 2

    def test_forest(self):
        assert girth(path(4)) == math.inf

    def test_matches_oracle_on_random_graphs(self):
        for seed in range(30):
            g = random_graph(8, 10, seed)
            assert girth(g) == girth_oracle(g), f"seed {seed}"

    @pytest.mark.parametrize("edges, expected", [
        # a path 0-1 into a triangle: the search from 0 meets a closing edge
        # (length 5) only at its last vertex, and 1 must still be a root
        ([(0, 1), (1, 2), (2, 3), (3, 1)], 3),
        # a hexagon on the low ids, then a pentagon, whose closing edge joins
        # its two vertices at depth two: 2 * 2 + 1 < 6 keeps them searched
        # (a pendant edge on each keeps them from being answered by size)
        ([(i, (i + 1) % 6) for i in range(6)]
         + [(6 + i, 6 + (i + 1) % 5) for i in range(5)] + [(0, 11), (6, 12)], 5),
    ], ids=["lollipop", "hexagon-then-pentagon"])
    def test_depth_stop_and_tree_skip_are_exact(self, edges, expected):
        g = Graph(1 + max(map(max, edges)))
        for u, v in edges:
            g.add_edge(u, v)
        assert girth(g) == expected

    def test_long_cycles_delete_their_roots(self):
        # the long cycles of a 2-regular graph on 8,000 vertices, each with
        # a pendant edge so that the per-root searches run: each root's
        # search would run half a cycle deep if earlier roots were kept
        g = gen_random_regular(2, 8000, 1)
        for comp in g.components():
            g.add_edge(comp[0], g.add_vertex())
        g._adj = LookupLimit(g._adj, 10 * g.num_vertices())
        assert girth(g) == 886

    def test_a_cycle_is_answered_by_its_length(self):
        # a 2-regular component is one cycle; a per-root search over it
        # would read the adjacency about n * n / 4 times
        g = cycle(20000)
        g._adj = LookupLimit(g._adj, 4 * g.num_vertices())
        assert girth(g) == 20000
        assert girth(doubled(path(1))) == 2

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_simple_graphs_match_networkx(self, data):
        # networkx.girth shares no code with the library; up to 2n edges on
        # n vertices give trees, cycles with trees hanging off them and
        # denser graphs, and a removed vertex leaves a gap in the ids
        nx = pytest.importorskip("networkx")
        n = data.draw(st.integers(1, 12))
        pairs = list(combinations(range(n), 2))
        g = Graph(n)
        for u, v in sorted(data.draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
                           if pairs else []):
            g.add_edge(u, v)
        if data.draw(st.booleans()):
            g.remove_vertex(data.draw(st.integers(0, n - 1)))
        h = nx.Graph()
        h.add_nodes_from(g.vertices())
        h.add_edges_from(g.endpoints(e) for e in g.edges())
        assert girth(g) == nx.girth(h)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_multigraphs_unions_and_lifts_match_the_oracle(self, data):
        # girth_oracle finds parallel pairs by counting them; a union of
        # trees and cycles has the girth of its shortest cycle by construction
        kind = data.draw(st.sampled_from(["multigraph", "trees-and-cycles", "lift"]))
        expected = None
        if kind == "multigraph":
            n = data.draw(st.integers(2, 10))
            g = Graph(n)
            for u, v in data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2,
                                                    max_size=2, unique=True),
                                           max_size=2 * n)):
                g.add_edge(u, v)
        elif kind == "trees-and-cycles":
            # each part a cycle of 3-8 vertices, or none, with up to six more
            # vertices hung off it as trees, the ids spread at random
            parts = data.draw(st.lists(st.tuples(st.sampled_from([0, 3, 4, 5, 6, 7, 8]),
                                                 st.integers(0, 6)).filter(any),
                                       min_size=1, max_size=4))
            label = data.draw(st.permutations(range(sum(map(sum, parts)))))
            g = Graph(len(label))
            start = 0
            for ring, hung in parts:
                ids = label[start:start + ring + hung]
                start += ring + hung
                for i in range(1, len(ids)):
                    g.add_edge(ids[i - 1 if i < ring else data.draw(st.integers(0, i - 1))],
                               ids[i])
                if ring:
                    g.add_edge(ids[ring - 1], ids[0])
            expected = min((ring for ring, _ in parts if ring), default=math.inf)
        else:
            g = pg_lift(data.draw(st.integers(1, 2)), random.Random(data.draw(st.integers())))
        assert girth(g) == (girth_oracle(g) if expected is None else expected)


class TestGirthCertificate:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_matches_the_oracle(self, data):
        # simple graphs of maximum degree four, from sparse (m about n, where
        # girth six with uneven degrees is common) to dense; pairing
        # multigraphs, where a doubled edge is a 2-cycle; PG(2,3) lifts
        kind = data.draw(st.sampled_from(["max-degree-four", "pairing", "lift"]))
        if kind == "max-degree-four":
            n = data.draw(st.integers(2, 30))
            g = random_graph_max_deg(n, data.draw(st.integers(n // 2, 2 * n)), 4,
                                     data.draw(st.integers(0, 2 ** 32)))
        elif kind == "pairing":
            g = pairing_model_multigraph(data.draw)
        else:
            g = pg_lift(data.draw(st.integers(1, 4)), random.Random(data.draw(st.integers())))
        certified = _Census(g).girth_at_least_six()
        assert certified == (girth_oracle(g) >= 6)
        if kind == "pairing" and find_configuration(g, MULTI_EDGE):
            assert not certified
        if kind == "lift":
            assert certified

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_simple_four_regular_graphs_match_the_scan(self, data):
        # on the graphs the solver asks about, the certificate holds exactly
        # when the replaced finders miss, and the six-kind call that runs it
        # returns their first hit
        if data.draw(st.booleans()):
            g = gen_random_regular(4, data.draw(st.integers(5, 80)),
                                   data.draw(st.integers(0, 10 ** 6)))
        else:
            g = pg_lift(data.draw(st.integers(1, 4)), random.Random(data.draw(st.integers())))
        first = first_configuration_oracle(g, *CONFIGURATION_KINDS[1:])
        assert _Census(g).girth_at_least_six() == (first is None)
        assert find_configuration(g, *CONFIGURATION_KINDS[1:]) == first

    @pytest.mark.parametrize("ring, certified", [(4, False), (5, False), (6, True)])
    def test_a_ring_on_the_highest_ids(self, ring, certified):
        # PG(2,3), of girth six, and a ring on the next ids joined to vertex
        # 0 by one edge: every edge test counts a 4-cycle right, so only the
        # vertex test sees it, and every vertex test passes on a 5-cycle, so
        # only the edge test sees it
        g = gen_incidence_pg(3)
        ids = [g.add_vertex() for _ in range(ring)]
        for i in range(ring):
            g.add_edge(ids[i - 1], ids[i])
        g.add_edge(0, ids[0])
        assert girth(g) == min(ring, 6)
        assert _Census(g).girth_at_least_six() is certified

    def test_a_multi_edge_only_call_skips_it(self):
        # that call stays one pass over the edge table
        with mock.patch.object(_Census, "girth_at_least_six", side_effect=AssertionError):
            assert find_configuration(gen_incidence_pg(3), MULTI_EDGE) is None

    @pytest.mark.parametrize("kinds", [("heptagon",), (TRIANGLE, "heptagon")])
    def test_unknown_kinds_are_refused_before_it(self, kinds):
        with mock.patch.object(_Census, "girth_at_least_six", side_effect=AssertionError):
            with pytest.raises(ValueError, match="unknown configuration kind"):
                find_configuration(gen_incidence_pg(3), *kinds)


class TestEdgeCut:
    def bridge_fixture(self):
        # two K5-minus-an-edge blocks joined by one bridge at the low-degree ends
        g = Graph(10)
        for base in (0, 5):
            for i in range(5):
                for j in range(i + 1, 5):
                    if (i, j) != (0, 1):
                        g.add_edge(base + i, base + j)
        g.add_edge(0, 5)
        return g

    def test_bridge(self):
        # a bridge leaves odd degrees behind (here at 1 and 6), and the
        # detector takes only even-degree graphs, which have no bridge
        with pytest.raises(ValueError, match="odd degree"):
            find_edge_cut_at_most(self.bridge_fixture())

    def test_four_edge_connected_incidence_graph(self):
        g = gen_incidence_pg(3)
        assert find_edge_cut_at_most(g) is None
        nx = pytest.importorskip("networkx")
        h = nx.Graph()
        for e in g.edges():
            h.add_edge(*g.endpoints(e))
        assert nx.edge_connectivity(h) == 4

    def test_c5_cut(self):
        cut = find_edge_cut_at_most(cycle(5))
        assert cut is not None and len(cut.cut_edges) == 2

    def test_disconnected_raises(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError, match="disconnected"):
            find_edge_cut_at_most(doubled(g))

    def test_minimum_against_bipartition_oracle(self):
        for seed in range(40):
            g = even_closure(random_graph(7, 9 + seed % 4, seed))
            if len(g.components()) > 1:
                continue
            expected = brute_min_cut(g)
            cut = find_edge_cut_at_most(g)
            if expected > 2:
                assert cut is None, f"seed {seed}"
                continue
            assert cut is not None and len(cut.cut_edges) == expected, f"seed {seed}"
            # returned edge set really disconnects the sides
            h = g.copy()
            for e in cut.cut_edges:
                h.remove_edge(e)
            assert len(h.components()) > 1

    # Two multigraphs of minimum degree 4 whose minimum cut is the two edges
    # into a triple edge, so a high minimum degree rules out no small cut;
    # the label search finds the two edges as a pair with equal labels.  Both
    # graphs also defeat a gate that flows only to a greedy dominating set,
    # whose lemma needs a simple graph.  The second has degree-5 vertices in
    # its core, which even_closure pairs up inside the core.
    @pytest.mark.parametrize("core, missing, ties, far", [
        (5, [(0, 1)], [(0, 5), (1, 6)], [5, 6]),
        (6, [(0, 4), (0, 5)], [(0, 6), (5, 7)], [6, 7]),
    ])
    def test_gate_finds_cut_pairs_in_multigraphs(self, core, missing, ties, far):
        g = Graph(core + 2)
        for i, j in combinations(range(core), 2):
            if (i, j) not in missing:
                g.add_edge(i, j)
        for _ in range(3):
            g.add_edge(*far)
        for u, v in ties:
            g.add_edge(u, v)
        g = even_closure(g)
        assert min(g.degree(v) for v in g.vertices()) == 4
        cut = find_edge_cut_at_most(g)
        assert cut is not None
        assert cut.side1 == list(range(core)) and cut.side2 == far
        assert [g.endpoints(e) for e in cut.cut_edges] == ties

    def test_odd_degrees_keep_three_edge_cuts(self):
        # two K5s joined by three disjoint edges: degree 5 at the joined ends,
        # edge connectivity 3 and no cut pair.  An odd minimum cut is no pair,
        # so a finder of 2-edge cuts refuses odd degrees
        g = Graph(10)
        for base in (0, 5):
            for i, j in combinations(range(5), 2):
                g.add_edge(base + i, base + j)
        for i in range(3):
            g.add_edge(i, 5 + i)
        with pytest.raises(ValueError, match="odd degree"):
            find_edge_cut_at_most(g)

    @pytest.mark.parametrize("g", [
        circulant(9, (1, 2)),
        circulant(13, (1, 5)),
        doubled(cycle(6)),
        gen_random_regular(4, 12, 3),
    ], ids=["c9-12", "c13-15", "doubled-c6", "random-12"])
    def test_four_regular_four_edge_connected(self, g):
        assert brute_min_cut(g) == 4
        assert find_edge_cut_at_most(g) is None

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_gate_against_bipartition_oracle(self, data):
        g = even_closure(planted_cut_multigraph(data.draw))
        expected = brute_min_cut(g)
        cut = find_edge_cut_at_most(g)
        if expected > 2:
            assert cut is None
            return
        assert cut is not None and len(cut.cut_edges) == expected
        inside = set(cut.side1)
        assert sorted(cut.side1 + cut.side2) == g.vertices()
        assert cut.cut_edges == [e for e in g.edges()
                                 if (g.endpoints(e)[0] in inside)
                                 != (g.endpoints(e)[1] in inside)]

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_label_collisions_are_caught(self, data):
        # two-bit labels collide on every graph with five or more non-tree
        # edges, so repeated labels show up with no cut behind them; the
        # disconnection check rejects those candidates and the answer is
        # still the first minimum cut
        class TwoBits(random.Random):
            def getrandbits(self, k):
                return super().getrandbits(2)

        g = even_closure(planted_cut_multigraph(data.draw))
        first = brute_min_cuts(g)[0]
        with mock.patch.object(graph_module, "random", SimpleNamespace(Random=TwoBits)):
            cut = find_edge_cut_at_most(g)
        got = None if cut is None else (cut.side1, cut.side2, cut.cut_edges)
        assert got == (first if len(first[2]) == 2 else None)

    def test_cut_against_independent_oracles(self):
        pytest.importorskip("networkx")
        rng = random.Random(11)
        graphs = [random_multigraph(rng) for _ in range(40)]
        graphs += [regular_pair(rng, joins=1 + i % 3) for i in range(12)]
        graphs += [regular_pair(rng, joins=0) for _ in range(4)]
        graphs += [k5e_ring(blobs, rng) for blobs in (3, 4, 5)]
        graphs += [shuffled(gen_random_regular(4, 12 + 2 * i, i), rng) for i in range(6)]
        graphs += [pendant_k5e(rng, joins) for joins in (1, 2, 3)]
        # graphs of at most ten vertices get every minimum cut by bipartition
        # enumeration, and the answer must be the first; larger ones get the
        # minimum cut size from networkx, and the sides must match the cut
        branches = Counter()
        for g in map(even_closure, graphs):
            cuts = brute_min_cuts(g) if g.num_vertices() <= 10 else None
            size = len(cuts[0][2]) if cuts else min_cut_size_oracle(g)
            cut = find_edge_cut_at_most(g)
            branches["none" if size > 2 else "cut"] += 1
            if size > 2:
                assert cut is None, g
                continue
            got = (cut.side1, cut.side2, cut.cut_edges)
            if cuts:
                assert got == cuts[0], g
                continue
            inside = set(cut.side1)
            assert len(cut.cut_edges) == size, g
            assert cut.side1[0] == g.vertices()[0]
            assert sorted(cut.side1 + cut.side2) == g.vertices()
            assert cut.cut_edges == [e for e in g.edges()
                                     if (g.endpoints(e)[0] in inside)
                                     != (g.endpoints(e)[1] in inside)]
        assert branches["none"] >= 10 and branches["cut"] >= 10, branches

    def test_k5e_ring_returns_the_first_pair(self):
        # any two of the ring's joins, the only edges in no triangle, form a
        # minimum cut; the answer is the two with the lowest ids, wherever
        # vertex 0 sits
        g = k5e_ring(6, random.Random(3))
        joins = [e for e in g.edges()
                 if not set(g.neighbors(g.endpoints(e)[0]))
                 & set(g.neighbors(g.endpoints(e)[1]))]
        assert len(joins) == 6
        h = g.copy()
        for e in joins[:2]:
            h.remove_edge(e)
        side1, side2 = sorted(h.components())
        cut = find_edge_cut_at_most(g)
        assert cut is not None
        assert (cut.side1, cut.side2, cut.cut_edges) == (side1, side2, joins[:2])

    def test_first_cut_on_larger_graphs(self):
        # graphs of 11-40 vertices, beyond bipartition enumeration, against
        # a scan of every edge pair: every ring edge of a K5-e ring shares
        # one label, so the pair order inside a label class decides the
        # answer; a pairing-model multigraph with its loops dropped has
        # degree-2 vertices and parallel edges, so cuts of every shape
        rng = random.Random(29)
        graphs = [k5e_ring(blobs, rng) for blobs in range(3, 9)]
        while len(graphs) < 30:
            n = rng.randint(11, 16)
            stubs = [v for v in range(n) for _ in range(4)]
            rng.shuffle(stubs)
            g = Graph(n)
            for u, v in zip(stubs[::2], stubs[1::2]):
                if u != v:
                    g.add_edge(u, v)
            g = even_closure(g)
            if len(g.components()) == 1:
                graphs.append(g)
        found = 0
        for g in graphs:
            cut = find_edge_cut_at_most(g)
            got = None if cut is None else (cut.side1, cut.side2, cut.cut_edges)
            assert got == first_two_edge_cut_oracle(g), g
            found += cut is not None
        assert 20 <= found < len(graphs), found

    def test_two_joined_expanders(self):
        # two random 4-regular graphs of 1,280 vertices joined by two edges,
        # whose ends even_closure pairs up on each side: the cut comes off
        # the labels in linear time
        g = Graph(2560)
        for base, seed in ((0, 1), (1280, 2)):
            half = gen_random_regular(4, 1280, seed)
            for e in half.edges():
                u, v = half.endpoints(e)
                g.add_edge(base + u, base + v)
        joins = [g.add_edge(5, 1980), g.add_edge(900, 1283)]
        cut = find_edge_cut_at_most(even_closure(g))
        assert cut is not None
        assert (cut.side1, cut.side2, cut.cut_edges) == (
            list(range(1280)), list(range(1280, 2560)), joins)


def planted_cut_multigraph(draw) -> Graph:
    """Connected multigraph on 2-12 vertices, relabelled at random: a path
    or ring of 1-3 random multigraph blobs, neighbouring blobs joined by 1-3
    edges.  On a path one join plants a bridge and two a cut pair, parallel
    when both ends repeat; in a ring two single joins make a cut pair."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                 .filter(lambda sizes: sum(sizes) > 1))
    n = sum(sizes)
    blobs, start = [], 0
    for size in sizes:
        blobs.append(range(start, start + size))
        start += size
    pairs = []
    for blob in blobs:
        for i in range(1, len(blob)):
            pairs.append((blob[draw(st.integers(0, i - 1))], blob[i]))
        if len(blob) > 1:
            for _ in range(draw(st.integers(len(blob), 3 * len(blob)))):
                u, v = draw(st.lists(st.sampled_from(blob), min_size=2, max_size=2,
                                     unique=True))
                pairs.append((u, v))
    ring = len(blobs) > 2 and draw(st.booleans())
    for b in range(len(blobs) - 1 + ring):
        left, right = blobs[b], blobs[(b + 1) % len(blobs)]
        for _ in range(draw(st.integers(1, 3))):
            pairs.append((draw(st.sampled_from(left)), draw(st.sampled_from(right))))
    label = draw(st.permutations(range(n)))
    g = Graph(n)
    for u, v in draw(st.permutations(pairs)):
        g.add_edge(label[u], label[v])
    return g


def random_multigraph(rng: random.Random) -> Graph:
    """Connected multigraph on 3-9 vertices whose ids skip two values."""
    n = rng.randint(3, 9)
    g = Graph(n + 2)
    g.remove_vertex(0)
    g.remove_vertex(n // 2 + 1)
    vs = g.vertices()
    for i in range(1, len(vs)):
        g.add_edge(vs[rng.randrange(i)], vs[i])
    for _ in range(rng.randint(0, 2 * n)):
        g.add_edge(*rng.sample(vs, 2))
    return g


def regular_pair(rng: random.Random, joins: int) -> Graph:
    """Two random 4-regular graphs on 10-16 vertices each, relabelled at random.

    With joins 1-3, that many new edges join them (a planted cut, minimum
    degree 4); with joins 0, one edge a-b of the first and c-d of the second
    are swapped for a-c and b-d (4-regular, a planted 2-edge cut).
    """
    n1, n2 = rng.choice((10, 12, 14, 16)), rng.choice((10, 12, 14, 16))
    left = gen_random_regular(4, n1, rng.randrange(10 ** 6))
    right = gen_random_regular(4, n2, rng.randrange(10 ** 6))
    pairs = [left.endpoints(e) for e in left.edges()]
    pairs += [(n1 + u, n1 + v) for u, v in (right.endpoints(e) for e in right.edges())]
    if joins:
        for u, v in zip(rng.sample(range(n1), joins), rng.sample(range(n2), joins)):
            pairs.append((u, n1 + v))
    else:
        (a, b), (c, d) = pairs.pop(0), pairs.pop()
        pairs += [(a, c), (b, d)]
    g = Graph(n1 + n2)
    for u, v in pairs:
        g.add_edge(u, v)
    return shuffled(g, rng)


def pendant_k5e(rng: random.Random, joins: int) -> Graph:
    """A random 4-regular graph on 200 vertices with a K5-minus-an-edge hung
    off it by `joins` new edges, the first two at the blob's degree-3 ends.

    The blob takes the highest ids, so the lowest vertex lies outside it and
    side2 of the minimum cut is the small side.
    """
    g = gen_random_regular(4, 200, rng.randrange(10 ** 6))
    blob = [g.add_vertex() for _ in range(5)]
    pairs = [g.endpoints(e) for e in g.edges()]
    pairs += [(blob[i], blob[j]) for i, j in combinations(range(5), 2) if (i, j) != (0, 4)]
    pairs += [(u, blob[i]) for u, i in zip(rng.sample(range(200), joins), (0, 4, 2))]
    rng.shuffle(pairs)
    h = Graph(205)
    for u, v in pairs:
        h.add_edge(u, v)
    return h


class TestConfigurations:
    def test_k23_identity(self):
        g = complete_bipartite(2, 3)
        conf = find_configuration(g, K23)
        assert conf is not None
        three, two = conf.vertices[:3], conf.vertices[3:]
        assert sorted(three) == [2, 3, 4] and sorted(two) == [0, 1]

    def test_c5_has_no_triangle(self):
        assert find_configuration(cycle(5), TRIANGLE) is None

    def test_petersen_five_cycle(self):
        conf = find_configuration(petersen(), C5)
        assert conf is not None
        g = petersen()
        vs = conf.vertices
        assert len(set(vs)) == 5
        assert all(g.adjacent(vs[i], vs[(i + 1) % 5]) for i in range(5))

    def test_multi_edge(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert find_configuration(g, MULTI_EDGE) is None
        g.add_edge(1, 2)
        conf = find_configuration(g, MULTI_EDGE)
        assert conf is not None and conf.vertices == [1, 2]

    def test_embeddings_are_genuine(self):
        g = circulant(11, (1, 3))
        for kind in (TRIANGLE, K33, K24, K23, C4, C5):
            conf = find_configuration(g, kind)
            if conf is None:
                continue
            vs = conf.vertices
            assert len(set(vs)) == len(vs)
            if kind == K23:
                assert all(g.adjacent(a, b) for a in vs[:3] for b in vs[3:])
            if kind == C4:
                assert all(g.adjacent(vs[i], vs[(i + 1) % 4]) for i in range(4))

    def test_presence_matches_oracle_on_random_graphs(self):
        for seed in range(40):
            g = random_graph_max_deg(8, 12, 4, seed)
            for kind in CONFIGURATION_KINDS:
                found = find_configuration(g, kind) is not None
                assert found == brute_has_configuration(g, kind), (seed, kind)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            find_configuration(cycle(5), "heptagon")
        with pytest.raises(ValueError):
            find_configuration(cycle(5))
        # checked before any scan, so an earlier hit does not hide it
        with pytest.raises(ValueError):
            find_configuration(complete(4), TRIANGLE, "heptagon")

    SIX = (TRIANGLE, K33, K24, K23, C4, C5)

    def test_first_hit_follows_kind_order(self):
        # a C4 on the low ids and a triangle on the high ids: the C4 comes
        # first in vertex order, the triangle first in kind order
        g = cycle(4)
        for _ in range(3):
            g.add_vertex()
        g.add_edge(4, 5)
        g.add_edge(5, 6)
        g.add_edge(4, 6)
        assert find_configuration(g, C4).vertices == [0, 1, 2, 3]
        assert find_configuration(g, *self.SIX).vertices == [4, 5, 6]
        assert find_configuration(g, C4, TRIANGLE).kind == C4

    def census_corpus(self):
        """Dense simple graphs, multigraphs, max-degree-4 graphs, random
        bipartite graphs (no triangle) and relabelled Petersen graphs with
        random extra edges (girth 5 until an edge closes something shorter)."""
        rng = random.Random(2024)
        for seed in range(50):
            yield random_graph(rng.randint(4, 11), rng.randint(4, 30), seed)
            yield random_multigraph(rng)
            yield random_graph_max_deg(rng.randint(6, 16), rng.randint(6, 32), 4, seed)
            a, b = rng.randint(2, 6), rng.randint(2, 6)
            bip = complete_bipartite(a, b)
            for e in rng.sample(bip.edges(), rng.randint(0, a * b // 2)):
                bip.remove_edge(e)
            yield shuffled(bip, rng)
            pete = shuffled(petersen(), rng)
            for _ in range(rng.randint(0, 2)):
                pete.add_edge(*rng.sample(range(10), 2))
            yield pete

    def test_census_matches_replaced_finders(self):
        firsts = Counter()
        both = 0
        for g in self.census_corpus():
            for kind in CONFIGURATION_KINDS:
                assert find_configuration(g, kind) == first_configuration_oracle(g, kind)
            conf = find_configuration(g, *self.SIX)
            assert conf == first_configuration_oracle(g, *self.SIX)
            firsts[conf and conf.kind] += 1
            both += (first_configuration_oracle(g, TRIANGLE) is not None
                     and first_configuration_oracle(g, C4) is not None)
        # every kind wins the six-kind call somewhere, and the priority order
        # is exercised on graphs holding both a triangle and a C4
        assert set(firsts) == set(self.SIX) | {None}, firsts
        assert both >= 20


class TestGenerators:
    def test_blowup_t1_is_c5(self):
        g = gen_blowup_c5(1)
        assert g.num_vertices() == 5 and g.num_edges() == 5
        assert girth(g) == 5

    def test_blowup_t2(self):
        g = gen_blowup_c5(2)
        assert g.num_vertices() == 10 and g.num_edges() == 20
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert is_2k2_free(g)

    def test_blowup_t3_edge_count(self):
        g = gen_blowup_c5(3)
        assert g.num_vertices() == 15 and g.num_edges() == 45
        assert all(g.degree(v) == 6 for v in g.vertices())

    def test_blowup_girth_drops_to_four(self):
        # two vertices in one part and two in the next span a 4-cycle
        assert girth(gen_blowup_c5(2)) == 4
        assert girth(gen_blowup_c5(3)) == 4

    def test_incidence_pg2_is_heawood(self):
        g = gen_incidence_pg(2)
        assert g.num_vertices() == 14 and g.num_edges() == 21
        assert all(g.degree(v) == 3 for v in g.vertices())
        assert girth(g) == 6

    def test_incidence_pg3(self):
        g = gen_incidence_pg(3)
        assert g.num_vertices() == 26 and g.num_edges() == 52
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert girth(g) == 6

    def test_incidence_unsupported_order(self):
        with pytest.raises(ValueError):
            gen_incidence_pg(5)

    def test_random_regular_basic(self):
        g = gen_random_regular(4, 10, 7)
        assert g.num_edges() == 20
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert find_configuration(g, MULTI_EDGE) is None

    def test_random_regular_k4(self):
        g = gen_random_regular(3, 4, 1)
        assert g.num_edges() == 6
        assert all(g.adjacent(i, j) for i in range(4) for j in range(i + 1, 4))

    def test_random_regular_degree_sequence(self):
        g = gen_random_regular(4, 9, 0)
        assert g.num_edges() == 18
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_random_regular_deterministic(self):
        a = gen_random_regular(4, 12, 5)
        b = gen_random_regular(4, 12, 5)
        assert [a.endpoints(e) for e in a.edges()] == [b.endpoints(e) for e in b.edges()]

    def test_random_regular_parity_error(self):
        with pytest.raises(ValueError):
            gen_random_regular(3, 5, 0)

    def test_random_regular_retry_exhaustion(self, monkeypatch):
        monkeypatch.setattr(graph_module, "PAIRING_TRIES", 0)
        with pytest.raises(RuntimeError, match="after 0 tries"):
            gen_random_regular(4, 10, 0)

    def test_random_regular_refuses_degree_six(self):
        # a simple pairing would take about 6,300 tries at d = 6
        for d, n in [(6, 10), (20, 1000), (40, 50_000)]:
            with pytest.raises(ValueError, match="d at most 5"):
                gen_random_regular(d, n, 0)
        assert gen_random_regular(5, 12, 0).num_edges() == 30

    def test_random_regular_matches_stdlib_shuffle(self):
        # the inline shuffle makes exactly the draws of rng.shuffle, so every
        # seed gives the same pairing, graph and exhaustion as the old body
        def edge_list(g):
            return [g.endpoints(e) for e in g.edges()]

        cases = [(d, n, seed) for d in range(5) for n in range(d + 1, 30)
                 for seed in range(3) if d * n % 2 == 0]
        assert len(cases) == 324
        for d, n, seed in cases + [(4, 2560, 1)]:
            assert (edge_list(gen_random_regular(d, n, seed))
                    == edge_list(pairing_model_oracle(d, n, seed))), (d, n, seed)
        messages = []
        for build in (gen_random_regular, pairing_model_oracle):
            with pytest.raises(RuntimeError, match="after 2000 tries") as info:
                build(5, 6, 0)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

        # at d = 5 most tries stop at an early bad pair and draw the rest of
        # their shuffle without swapping; a slip in those draws shifts every
        # later try, so both graphs and exhaustions must still match
        def outcome(build, d, n, seed):
            try:
                return edge_list(build(d, n, seed))
            except RuntimeError as error:
                return str(error)

        exhausted = []
        for n in range(6, 13, 2):
            for seed in range(6):
                got = outcome(gen_random_regular, 5, n, seed)
                assert got == outcome(pairing_model_oracle, 5, n, seed), (n, seed)
                if isinstance(got, str):
                    exhausted.append((n, seed))
        assert exhausted == [(6, 0), (6, 4), (8, 0), (8, 1), (8, 3), (8, 5),
                             (10, 0), (10, 1)]

    def test_regularity_property_sweep(self):
        for seed, (d, n) in enumerate([(3, 8), (4, 10), (4, 13), (2, 9)]):
            g = gen_random_regular(d, n, seed)
            assert all(g.degree(v) == d for v in g.vertices())


class TestTwoKTwoFree:
    def test_c5(self):
        assert is_2k2_free(cycle(5))

    def test_blowup(self):
        assert is_2k2_free(gen_blowup_c5(2))

    def test_long_path(self):
        assert not is_2k2_free(path(5))


class TestFormats:
    def test_edge_list_roundtrip(self):
        g = gen_blowup_c5(2)
        text = format_edge_list(g)
        h = parse_edge_list(text)
        assert h.num_vertices() == g.num_vertices()
        assert sorted(h.endpoints(e) for e in h.edges()) == \
            sorted(g.endpoints(e) for e in g.edges())

    def test_edge_list_parallel_edges(self):
        text = "p 2 2\ne 0 1\ne 0 1\n"
        g = parse_edge_list(text)
        assert g.num_edges() == 2
        assert len(g.edges_between(0, 1)) == 2

    def test_edge_list_errors(self):
        with pytest.raises(ValueError):
            parse_edge_list("e 0 1\n")
        with pytest.raises(ValueError):
            parse_edge_list("p 2 2\ne 0 1\n")
        with pytest.raises(ValueError):
            parse_edge_list("p 2 1\nq 0 1\n")
        # int() would read each of these numbers; the format takes only
        # canonical ASCII decimals
        for text, line in [("p 1_2 1\ne 0 1_0\n", 1), ("p 12 1\ne 0 1_0\n", 2),
                           ("p 12 1\ne +0 \u0661\u0660\n", 2),
                           ("p 12 1\ne 0 \u0661\u0660\n", 2), ("p 012 1\ne 0 1\n", 1),
                           ("p 12 1\ne 0 01\n", 2), ("p 12 -1\n", 1),
                           ("c x\np 12 1\ne 0 \uff11\n", 3)]:
            with pytest.raises(ValueError, match=f"^line {line}: .* is not a canonical"):
                parse_edge_list(text)
        # the graph's own checks name the line too; only a file with no p
        # line at all has no line to name
        for text, message in [("p 2 1\ne 0 5\n", "line 2: unknown endpoint"),
                              ("p 2 1\n\n# x\ne 1 1\n", "line 4: self-loop"),
                              ("p 1000001 0\n", "line 1: declared vertex count"),
                              ("p 2 2\ne 0 1\ne 2 1\n", "line 3: unknown endpoint"),
                              ("p 2 0\np 2 0\n", "line 2: duplicate p line"),
                              ("p 2\n", "line 1: expected 'p <n> <m>'"),
                              ("p 2 1\ne 0 1 1\n", "line 2: expected 'e <u> <v>'"),
                              ("# x\nc y\n", "missing p line")]:
            with pytest.raises(ValueError, match=f"^{message}"):
                parse_edge_list(text)

    def test_json_roundtrip(self):
        g = gen_incidence_pg(2)
        h = graph_from_json(graph_to_json(g))
        assert h.num_vertices() == g.num_vertices()
        assert sorted(h.endpoints(e) for e in h.edges()) == \
            sorted(g.endpoints(e) for e in g.edges())

import hashlib
import random
import time
import tracemalloc
import types
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from strongedge.graph import Graph, gen_blowup_c5, gen_incidence_pg, gen_random_regular
from strongedge.coloring import (
    PartialColoring,
    _ball,
    _first_fit,
    _greedy_clique,
    _smallest_conflict,
    available_colors,
    bounds,
    coloring_from_json,
    coloring_to_json,
    edge_neighborhood,
    exact_strong_index,
    greedy_color,
    verify_strong_coloring,
)
from strongedge.reduction import BASE_CASE_EDGES, _colors_at, solve21

from helpers import (
    brute_chromatic,
    brute_chromatic_check,
    brute_distinct_assignment,
    complete,
    complete_bipartite,
    complete_with_palette,
    cycle,
    exact_search_oracle,
    greedy_clique_oracle,
    greedy_seed_oracle,
    path,
    peel_order_oracle,
    petersen,
    random_graph_max_deg,
    seen_edges,
    star,
    strong_adjacency,
    verify_oracle,
)
from pocket import SHAPES, build_pocket


class TestNeighborhood:
    def test_star(self):
        g = star(4)
        e = g.edges()[0]
        assert edge_neighborhood(g, e) == frozenset(set(g.edges()) - {e})

    def test_path(self):
        g = path(4)  # a-b-c-d-e
        assert edge_neighborhood(g, 1) == frozenset({0, 2, 3})  # bc

    def test_degree_four_cap(self):
        g = gen_incidence_pg(3)
        for e in g.edges():
            assert len(edge_neighborhood(g, e)) <= 24

    def test_unknown_edge(self):
        with pytest.raises(ValueError):
            edge_neighborhood(cycle(3), 99)

    def test_sees_is_symmetric(self):
        g = random_graph_max_deg(9, 12, 4, 3)
        for e in g.edges():
            for f in g.edges():
                assert (f in edge_neighborhood(g, e)) == (e in edge_neighborhood(g, f))

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_matches_oracle_through_a_peel(self, data):
        # vertex removals, in any order, must keep every survivor's
        # neighbourhood right, from edge_neighborhood and per-vertex _ball alike
        g = max_degree_four_multigraph(data.draw)
        assert_neighborhoods_match_oracle(g)
        order = data.draw(st.permutations(g.vertices()))
        for v in order[:data.draw(st.integers(0, len(order)))]:
            g.remove_vertex(v)
            assert_neighborhoods_match_oracle(g)

    def test_parallel_edges_and_an_isolated_vertex(self):
        g = Graph(5)
        for u, v in [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)]:
            g.add_edge(u, v)
        assert g.degree(4) == 0
        assert_neighborhoods_match_oracle(g)
        assert edge_neighborhood(g, 0) == {1, 2, 3, 4}

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_peeled_edges_see_the_same_colored_edges_in_the_input(self, data):
        # the low-degree peel colors an edge e at a peeled vertex back against
        # its neighbourhood in the input g, not in g_t, the graph the vertex
        # left: every edge colored by then lies in g_t, so the two must agree
        # on E(g_t).  The oracle's peel runs down to no edges, past the
        # solver's base case, so that every removal is checked.
        if data.draw(st.booleans()):
            g = max_degree_four_multigraph(data.draw)
        else:
            g = pairing_model_multigraph(data.draw)
        g_t = g.copy()
        for v in peel_order_oracle(g, 0):
            kept = set(g_t.edges())
            for e in g_t.incident(v):
                assert seen_edges(g, e) & kept == seen_edges(g_t, e), (v, e)
            g_t.remove_vertex(v)


def max_degree_four_multigraph(draw) -> Graph:
    """Multigraph on 2-10 vertices with maximum degree four: each drawn
    vertex pair becomes one more edge, parallel or not, while both of its
    ends have room."""
    n = draw(st.integers(2, 10))
    g = Graph(n)
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=30)):
        if u != v and g.degree(u) < 4 and g.degree(v) < 4:
            g.add_edge(u, v)
    return g


def pairing_model_multigraph(draw) -> Graph:
    """The pairing model on 2-24 vertices: four stubs per vertex in a drawn
    order, paired off in turn, loops dropped.  Parallel edges stay, so the
    graph is a multigraph of maximum degree four, mostly 4-regular."""
    n = draw(st.integers(2, 24))
    stubs = draw(st.permutations([v for v in range(n) for _ in range(4)]))
    g = Graph(n)
    for u, v in zip(stubs[::2], stubs[1::2]):
        if u != v:
            g.add_edge(u, v)
    return g


def gapped_multigraph(draw) -> Graph:
    """A graph from either strategy above, with up to two isolated vertices
    added and up to two vertices removed, so ids have gaps."""
    if draw(st.booleans()):
        g = max_degree_four_multigraph(draw)
    else:
        g = pairing_model_multigraph(draw)
    for _ in range(draw(st.integers(0, 2))):
        g.add_vertex()
    for v in draw(st.lists(st.sampled_from(g.vertices()), max_size=2, unique=True)):
        g.remove_vertex(v)
    return g


def assert_neighborhoods_match_oracle(g: Graph) -> None:
    """B(x) from _ball is every edge at x or at a neighbour of x, and
    edge_neighborhood is seen_edges."""
    for x in g.vertices():
        near = {x, *g.neighbors(x)}
        assert _ball(g, g.incident(x)) == {f for z in near for f in g.incident(z)}, x
    for e in g.edges():
        assert edge_neighborhood(g, e) == seen_edges(g, e), e


@lru_cache(maxsize=None)
def solved_regular(n, seed):
    g = gen_random_regular(4, n, seed)
    coloring, _ = solve21(g)
    return g, coloring


def code_names(code: types.CodeType) -> set[str]:
    """Global and attribute names read by code and the code nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= code_names(const)
    return names


class TestVerify:
    def test_shares_no_code_with_the_neighborhood_path(self):
        # the verifier checks the solver's output, so it must not reuse the
        # neighbourhood code the solver colors with
        path_names = {"edge_neighborhood", "_ball", "_first_fit", "available_colors"}
        assert "_smallest_conflict" in code_names(verify_strong_coloring.__code__)
        for stage in (verify_strong_coloring, _smallest_conflict):
            assert not code_names(stage.__code__) & path_names, stage.__name__
        assert "_first_fit" in code_names(greedy_color.__code__)
        assert "_first_fit" in code_names(exact_strong_index.__code__)

    @pytest.mark.parametrize("make", [lambda: build_pocket(SHAPES["hub-deg2"])[0],
                                      lambda: gen_random_regular(4, 320, 0)],
                             ids=["pocket-hub-deg2", "regular4-320"])
    def test_valid_coloring_skips_the_witness_search(self, monkeypatch, make):
        # the witness is searched for only when the decision fails, so neither
        # the solver's own checks nor a final verify of its output reach it
        import strongedge.coloring as col

        def search(g, assign):
            raise AssertionError("witness search on a valid coloring")

        monkeypatch.setattr(col, "_smallest_conflict", search)
        g = make()
        coloring, trace = solve21(g)
        assert trace.fallback_count == 0
        assert verify_strong_coloring(g, coloring) == (True, None)

    def test_unknown_colored_edge_raises(self):
        g = cycle(5)
        with pytest.raises(ValueError, match="unknown edge id 99"):
            verify_strong_coloring(g, PartialColoring(5, {0: 1, 99: 2}))
        # also when the known edges conflict, and the lowest unknown id is named
        with pytest.raises(ValueError, match="unknown edge id 7"):
            verify_strong_coloring(g, PartialColoring(5, {0: 1, 1: 1, 9: 2, 7: 3}))

    def test_parallel_edges_share_their_own_colors(self):
        # three 0-1 edges, two colored: S(0) & S(1) = {1, 2} is no conflict
        # across any of them, but a color of theirs one edge away is
        g = Graph(4)
        for u, v in [(0, 1), (0, 1), (0, 1), (1, 2), (2, 3)]:
            g.add_edge(u, v)
        c = PartialColoring(3, {0: 1, 1: 2, 3: 3})
        assert verify_strong_coloring(g, c) == verify_oracle(g, c) == (True, None)
        c.assign(4, 2)
        assert verify_strong_coloring(g, c) == verify_oracle(g, c) == (False, (1, 4))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_matches_sorted_scan_on_multigraphs_gaps_and_recolorings(self, data):
        if data.draw(st.booleans()):
            # a solved coloring with one or two edges recolored
            g, solved = solved_regular(*data.draw(st.sampled_from([(12, 0), (16, 1), (24, 2)])))
            g, assign = g.copy(), solved.as_dict()
            for e in data.draw(st.lists(st.sampled_from(g.edges()), min_size=1, max_size=2)):
                assign[e] = data.draw(st.integers(1, 21))
        else:
            # a pairing-model multigraph, loops dropped and parallel edges kept,
            # partly colored; n = 0 is the empty graph
            n = data.draw(st.integers(0, 12))
            stubs = data.draw(st.permutations([v for v in range(n) for _ in range(4)]))
            g = Graph(n)
            for a, b in zip(stubs[::2], stubs[1::2]):
                if a != b:
                    g.add_edge(a, b)
            k = data.draw(st.integers(1, 12))
            colors = data.draw(st.lists(st.integers(0, k), min_size=g.num_edges(),
                                        max_size=g.num_edges()))
            assign = {e: x for e, x in zip(g.edges(), colors) if x}
        # removed vertices and edges leave gaps in both id ranges
        for v in data.draw(st.sets(st.sampled_from(g.vertices()), max_size=2)
                           if g.vertices() else st.just(set())):
            g.remove_vertex(v)
        for e in data.draw(st.sets(st.sampled_from(g.edges()), max_size=3)
                           if g.edges() else st.just(set())):
            g.remove_edge(e)
        c = PartialColoring(21, {e: x for e, x in assign.items() if e in g._edges})
        assert verify_strong_coloring(g, c) == verify_oracle(g, c)

    def test_all_distinct_on_c5(self):
        g = cycle(5)
        c = PartialColoring(5, {e: e + 1 for e in g.edges()})
        ok, witness = verify_strong_coloring(g, c)
        assert ok and witness is None

    def test_repeat_on_c5_fails_with_witness(self):
        g = cycle(5)
        c = PartialColoring(5, {0: 1, 2: 1})
        ok, witness = verify_strong_coloring(g, c)
        assert not ok and witness == (0, 2)

    def test_blowup_all_distinct(self):
        g = gen_blowup_c5(2)
        c = PartialColoring(20, {e: i + 1 for i, e in enumerate(g.edges())})
        ok, _ = verify_strong_coloring(g, c)
        assert ok

    def test_same_colored_parallel_edges(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(1, 2)
        c = PartialColoring(2, {0: 1, 1: 2, 2: 2})
        assert verify_strong_coloring(g, c) == verify_oracle(g, c) == (False, (1, 2))

    def test_uncolored_edge_joins_same_colored_edges(self):
        g = path(3)
        c = PartialColoring(1, {0: 1, 2: 1})
        assert verify_strong_coloring(g, c) == verify_oracle(g, c) == (False, (0, 2))

    @pytest.mark.parametrize("g", [complete(120), star(300)], ids=["K120", "star300"])
    def test_one_color_at_a_high_degree_vertex(self, g):
        # one class holds 119 edges at each K120 vertex and 300 at the star's
        # hub; pairing whole classes across each edge would take about 1e8
        # steps on K120
        c = PartialColoring(1, {e: 1 for e in g.edges()})
        assert verify_strong_coloring(g, c) == verify_oracle(g, c) == (False, (0, 1))

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_matches_sorted_scan_on_dense_colorings(self, data):
        # no degree cap and few colors: classes of many edges at one vertex,
        # with a witness that need not be the first two edges
        n = data.draw(st.integers(2, 20))
        g = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if data.draw(st.booleans()):
                    g.add_edge(u, v)
        k = data.draw(st.integers(2, 8))
        colors = data.draw(st.lists(st.integers(0, k), min_size=g.num_edges(),
                                    max_size=g.num_edges()))
        c = PartialColoring(k, {e: x for e, x in zip(g.edges(), colors) if x})
        assert verify_strong_coloring(g, c) == verify_oracle(g, c)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_matches_sorted_scan_on_random_colorings(self, data):
        n = data.draw(st.integers(2, 12))
        g = Graph(n)
        ends = st.integers(0, n - 1)
        for u, v in data.draw(st.lists(st.tuples(ends, ends), max_size=30)):
            if u != v and g.degree(u) < 4 and g.degree(v) < 4:
                g.add_edge(u, v)
        k = data.draw(st.integers(1, 6))
        colors = data.draw(st.lists(st.integers(0, k), min_size=g.num_edges(),
                                    max_size=g.num_edges()))
        c = PartialColoring(k, {e: x for e, x in zip(g.edges(), colors) if x})
        assert verify_strong_coloring(g, c) == verify_oracle(g, c)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_matches_sorted_scan_with_a_hundred_colors(self, data):
        # colors up to 100 put S(x) bits above bit 62: a greedy coloring,
        # its colors renamed by a drawn permutation of 1..100 and some edges
        # left uncolored, is valid; then a planted conflict, the color of an
        # edge copied onto one it sees, across a parallel pair when the draw
        # has one
        g = pairing_model_multigraph(data.draw)
        eids = g.edges()
        greedy, failed = greedy_color(g, 100)
        assert failed is None
        rename = data.draw(st.permutations(range(1, 101)))
        keep = data.draw(st.lists(st.booleans(), min_size=len(eids), max_size=len(eids)))
        c = PartialColoring(100, {e: rename[greedy.color(e) - 1]
                                  for e, kept in zip(eids, keep) if kept})
        assert verify_strong_coloring(g, c) == verify_oracle(g, c) == (True, None)
        pairs = sorted((e, f) for e in c.colored() for f in seen_edges(g, e))
        if pairs:
            parallel = [(e, f) for e, f in pairs if set(g.endpoints(e)) == set(g.endpoints(f))]
            e, f = data.draw(st.sampled_from(parallel or pairs))
            c.assign(f, c.color(e))
            result = verify_strong_coloring(g, c)
            assert result == verify_oracle(g, c)
            assert not result[0]

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.sampled_from([(12, 0), (16, 1), (24, 2), (40, 3)]),
           st.integers(0, 10 ** 6), st.integers(1, 21))
    def test_matches_sorted_scan_on_corrupted_solutions(self, instance, pick, color):
        g, solved = solved_regular(*instance)
        c = PartialColoring(solved.k, solved.as_dict())
        eids = g.edges()
        c.assign(eids[pick % len(eids)], color)
        assert verify_strong_coloring(g, c) == verify_oracle(g, c)

    def test_color_range_enforced(self):
        with pytest.raises(ValueError, match="palette size must be non-negative"):
            PartialColoring(-1)
        c = PartialColoring(3)
        with pytest.raises(ValueError):
            c.assign(0, 4)
        with pytest.raises(ValueError):
            c.assign(0, 0)
        # the constructor checks every value and names the first bad color
        with pytest.raises(ValueError, match=r"color 4 outside palette 1\.\.3"):
            PartialColoring(3, {0: 1, 1: 4, 2: 0})
        # it keeps its own copy of the passed dict
        given_colors = {0: 1, 1: 2}
        c = PartialColoring(3, given_colors)
        given_colors[0] = 3
        given_colors[2] = 1
        assert c.as_dict() == {0: 1, 1: 2}


class TestAvailability:
    def test_complement_identity(self):
        g = random_graph_max_deg(10, 14, 4, 11)
        c, _ = greedy_color(g, 25)
        for e in g.edges():
            seen = {c.color(f) for f in edge_neighborhood(g, e)
                    if c.color(f) is not None}
            assert available_colors(g, c.as_dict(), e, 25) == set(range(1, 26)) - seen

    def test_used_at_except_disjointness(self):
        # for a colored edge uv the two one-sided color sets never meet
        for seed in range(10):
            g = random_graph_max_deg(10, 16, 4, seed)
            c, failed = greedy_color(g, 25)
            assert failed is None
            for e in g.edges():
                u, v = g.endpoints(e)
                at_u = {c.color(f) for f in g.incident(u) if g.other_end(f, u) != v}
                at_v = {c.color(f) for f in g.incident(v) if g.other_end(f, v) != u}
                assert not (at_u & at_v)

    def test_used_at(self):
        g = star(3)
        c = PartialColoring(5, {0: 1, 1: 4})
        assert _colors_at(g, c.as_dict(), 0) == {1, 4}
        assert _colors_at(g, c.as_dict(), 1) == {1}


class TestFirstFit:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_matches_a_first_fit_over_seen_edges(self, data):
        # each edge of the order takes the smallest color of 1..k that none
        # of the edges it sees has, on top of a drawn partial assignment (not
        # necessarily valid); the first edge with no free color is returned
        # and the edges after it stay uncolored
        g = gapped_multigraph(data.draw)
        k = data.draw(st.integers(1, 25))
        pre = data.draw(st.dictionaries(st.sampled_from(g.edges()), st.integers(1, k))
                        if g.edges() else st.just({}))
        order = data.draw(st.permutations([e for e in g.edges() if e not in pre]))
        expected, failed = dict(pre), None
        for e in order:
            shown = {expected[f] for f in seen_edges(g, e) if f in expected}
            free = [c for c in range(1, k + 1) if c not in shown]
            if not free:
                failed = e
                break
            expected[e] = free[0]
        col = dict(pre)
        assert _first_fit(g, col, order, k) == failed
        assert col == expected

    def test_parallel_edges_and_an_isolated_vertex(self):
        # the three parallel 0-1 edges see each other and the 1-2 edge; the
        # isolated vertex 3 carries no color
        g = Graph(4)
        for u, v in [(0, 1), (0, 1), (1, 2), (0, 1)]:
            g.add_edge(u, v)
        col = {2: 1}
        assert _first_fit(g, col, [0, 1, 3], 5) is None
        assert col == {2: 1, 0: 2, 1: 3, 3: 4}
        col = {2: 1}
        assert _first_fit(g, col, [0, 1, 3], 3) == 3
        assert col == {2: 1, 0: 2, 1: 3}

    def test_a_small_graph_keeps_a_large_id_range(self):
        # a component cut out of a graph on a million ids keeps that id
        # range; its masks are keyed by its own four vertices, so the set-up
        # stays small (a list over the range would take 8 MB), and it colors
        # as the same graph on ids 0..3 does
        links = [(0, 1), (1, 2), (2, 0), (2, 3), (2, 3)]
        small, big = Graph(4), Graph(10 ** 6)
        for u, v in links:
            small.add_edge(u, v)
            big.add_edge(10 ** 6 - 4 + u, 10 ** 6 - 4 + v)
        part = big.induced_subgraph(range(10 ** 6 - 4, 10 ** 6))
        expected = {}
        assert _first_fit(small, expected, [4, 0, 3, 1, 2], 7) is None
        col = {}
        tracemalloc.start()
        try:
            assert _first_fit(part, col, [4, 0, 3, 1, 2], 7) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert col == expected
        assert peak < 10 ** 5, peak

    def test_skips_colored_ids_that_are_not_edges_of_g(self):
        # the input's coloring may carry colors of edges a subgraph lacks: a
        # removed edge at the path's end and an id g never had block nothing
        g = path(3)
        g.remove_edge(2)
        col = {2: 1, 99: 2}
        assert _first_fit(g, col, [1, 0], 5) is None
        assert col == {2: 1, 99: 2, 1: 1, 0: 2}

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_base_case_and_exact_incumbent_match_the_greedy_seed(self, data):
        # both color through _first_fit, most seen edges first and ties to
        # the lower id, as the replaced greedy seed did over the squared line
        # graph; budget=0 returns the incumbent unsearched
        g = gapped_multigraph(data.draw)
        expected = dict(zip(g.edges(), greedy_seed_oracle(strong_adjacency(g))))
        assert exact_strong_index(g, budget=0).coloring.as_dict() == expected
        if g.num_edges() <= BASE_CASE_EDGES:
            assert solve21(g)[0].as_dict() == expected


class TestGreedy:
    def test_c5_five_colors(self):
        c, failed = greedy_color(cycle(5), 5)
        assert failed is None
        ok, _ = verify_strong_coloring(cycle(5), c)
        assert ok

    def test_huge_palette_matches_small(self):
        # only the colors an edge sees are scanned, so k costs no time or memory
        g = gen_incidence_pg(2)
        small, _ = greedy_color(g, 25)
        start = time.perf_counter()
        huge, failed = greedy_color(g, 10 ** 9)
        assert time.perf_counter() - start < 0.5
        assert failed is None and huge.as_dict() == small.as_dict()

    def test_k4_five_colors_fails(self):
        c, failed = greedy_color(complete(4), 5)
        assert failed is not None

    def test_bound_never_fails_for_max_degree_four(self):
        rng = random.Random(99)
        for seed in range(40):
            g = random_graph_max_deg(12, 20, 4, seed)
            order = g.edges()
            rng.shuffle(order)
            c, failed = greedy_color(g, 25, order)
            assert failed is None, f"seed {seed}"
            ok, _ = verify_strong_coloring(g, c)
            assert ok

    def test_order_must_be_permutation(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            greedy_color(g, 10, [0, 1, 2])


class TestSdr:
    """The short-cycle completion's distinct-representatives step."""

    def test_forced_singletons(self):
        assigned = complete_with_palette(path(3), {}, [0, 1, 2], 3)
        assert assigned is not None
        assert sorted(assigned.values()) == [1, 2, 3]

    def test_hall_violation_returns_none(self):
        # two adjacent edges under k=1 both have availability {1}
        assert complete_with_palette(path(2), {}, [0, 1], 1) is None

    def test_triangle_deletion_scenario(self):
        # delete a triangle from a 4-regular graph, color the rest exactly,
        # then the nine former edges always extend by distinct representatives
        for seed in range(6):
            g = gen_random_regular(4, 10, seed + 50)
            tri = None
            for a in g.vertices():
                for b in g.neighbors(a):
                    common = set(g.neighbors(a)) & set(g.neighbors(b))
                    if common:
                        tri = (a, b, min(common))
                        break
                if tri:
                    break
            if tri is None:
                continue
            targets = sorted({e for v in tri for e in g.incident(v)})
            h = g.copy()
            for v in tri:
                h.remove_vertex(v)
            col = exact_strong_index(h).coloring.as_dict()
            assigned = complete_with_palette(g, col, targets, 21)
            avail = {t: available_colors(g, col, t, 21) for t in targets}
            brute = brute_distinct_assignment(avail)
            assert (assigned is not None) == (brute is not None)
            if assigned is not None:
                assert sorted(assigned) == targets
                ok, _ = verify_strong_coloring(g, PartialColoring(21, {**col, **assigned}))
                assert ok

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(7)
        for seed in range(60):
            g = random_graph_max_deg(9, 13, 4, seed)
            if g.num_edges() < 6:
                continue
            k = rng.randint(6, 12)
            c, _ = greedy_color(g, 25)
            trimmed = PartialColoring(k)
            for e in c.colored():
                col = c.color(e)
                if col <= k and rng.random() < 0.6:
                    trimmed.assign(e, col)
            targets = [e for e in g.edges() if trimmed.color(e) is None][:6]
            if not targets:
                continue
            col = trimmed.as_dict()
            assigned = complete_with_palette(g, col, targets, k)
            avail = {t: available_colors(g, col, t, k) for t in targets}
            assert (assigned is not None) == (brute_distinct_assignment(avail) is not None), seed
            if assigned is not None:
                assert sorted(assigned) == targets
                ok, _ = verify_strong_coloring(g, PartialColoring(k, {**col, **assigned}))
                assert ok


class TestStrongAdjacency:
    """The squared line graph that exact_search_oracle and the brute-force
    chromatic checks start from."""

    def test_c5_gives_k5(self):
        assert strong_adjacency(cycle(5)) == [sorted(set(range(5)) - {i}) for i in range(5)]

    def test_star_gives_k4(self):
        assert strong_adjacency(star(4)) == [sorted(set(range(4)) - {i}) for i in range(4)]

    def test_path_ends_non_adjacent(self):
        adj = strong_adjacency(path(4))
        assert sum(len(nb) for nb in adj) == 2 * 5
        assert 3 not in adj[0] and 0 not in adj[3]


def clique_input(adj: list[set[int]]):
    """_greedy_clique's input for the graph with neighbour sets adj: the
    vertices in (-degree, index) order, and a cached neighbour mask over those
    ranks, as exact_strong_index builds them for the edges of g."""
    order = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    rank = {v: r for r, v in enumerate(order)}

    @lru_cache(maxsize=None)
    def nb(r):
        return sum(1 << rank[w] for w in adj[order[r]])

    return nb, order


def check_greedy_clique(adj: list[set[int]]):
    # capped by a greedy coloring's color count, or uncapped: the cuts leave
    # the clique as it is
    nb, order = clique_input(adj)
    expected = greedy_clique_oracle(adj)
    assert _greedy_clique(nb, order, max(greedy_seed_oracle(adj), default=0)) == expected
    assert _greedy_clique(nb, order, len(adj)) == expected


class TestGreedyClique:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_matches_the_set_based_clique_on_edge_graphs(self, data):
        check_greedy_clique([set(s) for s in strong_adjacency(gapped_multigraph(data.draw))])

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.integers(0, 40), st.floats(0.05, 0.9), st.integers(0, 10 ** 6))
    def test_matches_the_set_based_clique_on_random_graphs(self, n, p, seed):
        # any graph, many ties: more than eight starts compete, and candidates
        # often keep equally many others
        rng = random.Random(seed)
        adj = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u].add(v)
                    adj[v].add(u)
        check_greedy_clique(adj)

    def test_memory_does_not_grow_with_the_graph(self):
        # masks are built for the starts and their candidates only, about 100
        # of 2.2 KB each here (0.3 MB peak); masks for all 20,000 edges would
        # take about 53 MB.  Uncapped, so all eight starts run.
        adj = [set(s) for s in strong_adjacency(gen_random_regular(4, 10000, 1))]
        nb, order = clique_input(adj)
        tracemalloc.start()
        try:
            clique = _greedy_clique(nb, order, len(adj))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clique == greedy_clique_oracle(adj)
        assert peak < 8 * 10 ** 6, peak


# First 16 hex digits of sha256 of the witness coloring JSON plus the bounds,
# and the search nodes: the witness pins which colorings the search finds, the
# node count how much of the tree it walks to prove the last one optimal.
EXACT_DIGESTS = {
    "blowup-c5-2": (lambda: gen_blowup_c5(2), "caa0fe9339ef4278", 0),
    "pg2": (lambda: gen_incidence_pg(2), "5b84140aa24f11ed", 548),
    "c5": (lambda: cycle(5), "b0c37195c3c73bf8", 0),
    "cubic-14": (lambda: gen_random_regular(3, 14, 0), "70830e5118435217", 55),
    # value 7; the most nodes of any input of perfbench's exact workload
    "cubic-14-55": (lambda: gen_random_regular(3, 14, 55), "33b6494a5ef3e3bf", 7172),
}


class TestExact:
    @pytest.mark.parametrize("name", sorted(EXACT_DIGESTS))
    def test_witness_digest(self, name):
        build, digest, _ = EXACT_DIGESTS[name]
        res = exact_strong_index(build())
        text = coloring_to_json(res.coloring) + f" lower={res.lower} upper={res.upper}"
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("name", sorted(EXACT_DIGESTS))
    def test_node_count(self, name):
        build, _, nodes = EXACT_DIGESTS[name]
        assert exact_strong_index(build()).nodes == nodes

    @pytest.mark.parametrize("seed", [31, 134])
    def test_prunes_branches_that_cannot_beat_the_incumbent(self, seed):
        # value 8 below a greedy seed of 9.  Trying colors that reach the
        # incumbent costs 594,250 nodes on seed 31; searching below a branch
        # whose colors already reach it costs 975,007 on seed 134.
        res = exact_strong_index(gen_random_regular(3, 18, seed), budget=100_000)
        assert res.exact and res.value == 8
        assert res.nodes == {31: 40_298, 134: 21}[seed]

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_matches_the_set_and_score_search(self, data):
        # the bit-mask search branches on the same edge and tries the same
        # colors at every node; stop_at one above the clique bound halts
        # mid-search wherever a coloring that small exists
        g = gapped_multigraph(data.draw)
        clique_bound = exact_search_oracle(g, budget=0).lower
        for budget in (None, 0, 1, 7, 50):
            for stop_at in (None, clique_bound + 1):
                # ExactResult equality: lower, upper, witness, exact and nodes
                assert (exact_strong_index(g, budget, stop_at)
                        == exact_search_oracle(g, budget, stop_at)), (budget, stop_at)

    def test_memory_stays_linear_in_the_edges(self):
        # 8,000 edges: the per-vertex balls, degrees, ranks and the
        # incumbent dominate (about 5.5 MB); the squared line graph's
        # neighbour sets peaked at 14.4 MB, and a neighbour mask per edge
        # built up front would take about 20.5 MB more, so the masks are
        # built for the edges the clique and the search touch only
        g = gen_random_regular(4, 4000, 1)
        tracemalloc.start()
        try:
            res = exact_strong_index(g, budget=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.nodes == 50
        assert peak < 8 * 10 ** 6, peak

    def test_c5(self):
        assert exact_strong_index(cycle(5)).value == 5

    def test_k4(self):
        assert exact_strong_index(complete(4)).value == 6

    def test_blowup_attains_twenty(self):
        res = exact_strong_index(gen_blowup_c5(2))
        assert res.value == 20

    def test_two_k2_free_equality(self):
        for g in (cycle(5), gen_blowup_c5(1), gen_blowup_c5(2)):
            assert exact_strong_index(g).value == g.num_edges()

    def test_petersen_matches_brute_force(self):
        g = petersen()
        adj = strong_adjacency(g)
        res = exact_strong_index(g)
        assert not brute_chromatic_check(adj, res.value - 1)
        assert brute_chromatic_check(adj, res.value)
        assert res.value == 5

    def test_small_graphs_match_brute_force(self):
        for seed in range(25):
            g = random_graph_max_deg(7, 8, 4, seed)
            res = exact_strong_index(g)
            assert res.exact
            assert res.value == brute_chromatic(strong_adjacency(g)), seed
            ok, _ = verify_strong_coloring(g, res.coloring)
            assert ok

    def test_bounds_sandwich_value(self):
        # clique lower bound <= exact value <= colors used by a greedy pass
        for seed in range(10):
            g = random_graph_max_deg(10, 15, 4, seed + 5)
            res = exact_strong_index(g)
            greedy_k, _ = bounds(4)
            c, failed = greedy_color(g, greedy_k)
            assert failed is None
            assert res.lower <= res.value <= len(c.colors_used())

    def test_budget_exhaustion_returns_bounds(self):
        # on C7 the clique bound (3) stays below the true value (4), so a
        # one-node budget cannot close the search
        g = cycle(7)
        res = exact_strong_index(g, budget=1)
        assert not res.exact
        assert res.value is None
        assert res.lower <= 4 <= res.upper
        ok, _ = verify_strong_coloring(g, res.coloring)
        assert ok
        full = exact_strong_index(g)
        assert full.value == 4

    def test_stop_at_halts_mid_search(self):
        # the greedy seed uses 8 colors and the clique bound is 6, so the
        # search runs until it meets a 7-coloring and stops there, short of
        # proving 7 optimal (17 nodes without stop_at)
        g = gen_random_regular(3, 10, 47)
        res = exact_strong_index(g, stop_at=7)
        assert (res.upper, res.exact, res.nodes) == (7, False, 10)
        ok, _ = verify_strong_coloring(g, res.coloring)
        assert ok and len(res.coloring.colored()) == g.num_edges()

    def test_negative_budget_raises(self):
        # checked before any search, even on a graph with no edges
        for g in (cycle(7), Graph(3)):
            with pytest.raises(ValueError, match="budget"):
                exact_strong_index(g, budget=-1)

    def test_deep_search_returns_bounds(self):
        # 1,178 edges: the search runs deeper than Python's recursion limit
        g, _ = build_pocket(SHAPES["hub-deg2"])
        res = exact_strong_index(g, budget=1500)
        assert (res.lower, res.upper, res.exact, res.nodes) == (7, 12, False, 1500)
        ok, _ = verify_strong_coloring(g, res.coloring)
        assert ok

    def test_empty_graph(self):
        res = exact_strong_index(Graph(3))
        assert res.value == 0

    def test_k23(self):
        res = exact_strong_index(complete_bipartite(2, 3))
        assert res.value == brute_chromatic(strong_adjacency(complete_bipartite(2, 3)))


class TestBounds:
    @pytest.mark.parametrize("delta,expected", [
        (1, (1, 1)),
        (2, (5, 5)),
        (3, (13, 10)),
        (4, (25, 20)),
        (5, (41, 29)),
        (6, (61, 45)),
    ])
    def test_values(self, delta, expected):
        assert bounds(delta) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bounds(0)


class TestColoringJson:
    def test_roundtrip(self):
        g = cycle(5)
        c, _ = greedy_color(g, 7)
        again = coloring_from_json(coloring_to_json(c))
        assert again == c

    # int() reads "00", " 0" and "1_0" as 0, 0 and 10, so such keys would
    # silently overwrite the color of another key's edge
    @pytest.mark.parametrize("colors", [
        '{"0": 1, "00": 2}', '{" 0": 1}', '{"1_0": 3}', '{"+1": 1}', '{"-1": 1}',
        '{"0": 1, "0": 2}'])
    def test_noncanonical_or_repeated_edge_keys_raise(self, colors):
        with pytest.raises(ValueError):
            coloring_from_json(f'{{"k": 21, "colors": {colors}}}')

    def test_sorted_output_is_deterministic(self):
        g = gen_blowup_c5(2)
        c, _ = greedy_color(g, 21)
        shuffled = PartialColoring(c.k, dict(reversed(c.as_dict().items())))
        assert coloring_to_json(c) == coloring_to_json(shuffled)

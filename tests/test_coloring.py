import hashlib
import random
import time
import types
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from strongedge.graph import Graph, gen_blowup_c5, gen_incidence_pg, gen_random_regular
from strongedge.coloring import (
    PartialColoring,
    available_colors,
    bounds,
    coloring_from_json,
    coloring_to_json,
    edge_neighborhood,
    exact_strong_index,
    greedy_color,
    line_graph_square,
    match_targets,
    verify_strong_coloring,
)
from strongedge.reduction import _colors_at, solve21

from helpers import (
    brute_chromatic,
    brute_chromatic_check,
    brute_distinct_assignment,
    complete,
    complete_bipartite,
    cycle,
    path,
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
        # the peel's pattern: record the neighbourhood of each edge at a
        # vertex, then remove the vertex; each recorded set must be what the
        # edge sees in the graph the vertex left, and removals must keep the
        # survivors' neighbourhoods right
        g = max_degree_four_multigraph(data.draw)
        assert_neighborhoods_match_oracle(g)
        order = data.draw(st.permutations(g.vertices()))
        recorded = []
        for v in order[:data.draw(st.integers(0, len(order)))]:
            recorded.append((g.copy(), [(e, edge_neighborhood(g, e)) for e in g.incident(v)]))
            g.remove_vertex(v)
            assert_neighborhoods_match_oracle(g)
        for left, pendant in reversed(recorded):
            for e, seen in pendant:
                assert seen == seen_edges(left, e), e


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


def assert_neighborhoods_match_oracle(g: Graph) -> None:
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
        path_names = {"edge_neighborhood", "_neighborhoods", "_first_free",
                      "available_colors"}
        assert not code_names(verify_strong_coloring.__code__) & path_names
        assert "edge_neighborhood" in code_names(greedy_color.__code__)

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
    @given(st.sampled_from([(12, 0), (16, 1), (24, 2), (40, 3)]),
           st.integers(0, 10 ** 6), st.integers(1, 21))
    def test_matches_sorted_scan_on_corrupted_solutions(self, instance, pick, color):
        g, solved = solved_regular(*instance)
        c = PartialColoring(solved.k, solved.as_dict())
        eids = g.edges()
        c.assign(eids[pick % len(eids)], color)
        assert verify_strong_coloring(g, c) == verify_oracle(g, c)

    def test_color_range_enforced(self):
        c = PartialColoring(3)
        with pytest.raises(ValueError):
            c.assign(0, 4)
        with pytest.raises(ValueError):
            c.assign(0, 0)


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
    def test_forced_singletons(self):
        assigned = match_targets(path(3), {}, [0, 1, 2], 3)
        assert assigned is not None
        assert sorted(assigned.values()) == [1, 2, 3]

    def test_hall_violation_returns_none(self):
        # two adjacent edges under k=1 both have availability {1}
        assert match_targets(path(2), {}, [0, 1], 1) is None

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
            assigned = match_targets(g, col, targets, 21)
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
            assigned = match_targets(g, col, targets, k)
            avail = {t: available_colors(g, col, t, k) for t in targets}
            assert (assigned is not None) == (brute_distinct_assignment(avail) is not None), seed
            if assigned is not None:
                assert sorted(assigned) == targets
                ok, _ = verify_strong_coloring(g, PartialColoring(k, {**col, **assigned}))
                assert ok


class TestLineGraphSquare:
    def test_c5_gives_k5(self):
        adj = line_graph_square(cycle(5))
        assert adj == [set(range(5)) - {i} for i in range(5)]

    def test_star_gives_k4(self):
        adj = line_graph_square(star(4))
        assert adj == [set(range(4)) - {i} for i in range(4)]

    def test_path_ends_non_adjacent(self):
        adj = line_graph_square(path(4))
        assert sum(len(nb) for nb in adj) == 2 * 5
        assert 3 not in adj[0] and 0 not in adj[3]


# First 16 hex digits of sha256 of the witness coloring JSON plus the bounds,
# and the search nodes: the witness pins which colorings the search finds, the
# node count how much of the tree it walks to prove the last one optimal.
EXACT_DIGESTS = {
    "blowup-c5-2": (lambda: gen_blowup_c5(2), "caa0fe9339ef4278", 0),
    "pg2": (lambda: gen_incidence_pg(2), "5b84140aa24f11ed", 548),
    "c5": (lambda: cycle(5), "b0c37195c3c73bf8", 0),
    "cubic-14": (lambda: gen_random_regular(3, 14, 0), "70830e5118435217", 55),
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

    def test_sorted_output_is_deterministic(self):
        g = gen_blowup_c5(2)
        c, _ = greedy_color(g, 21)
        shuffled = PartialColoring(c.k, dict(reversed(c.as_dict().items())))
        assert coloring_to_json(c) == coloring_to_json(shuffled)

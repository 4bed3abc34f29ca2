"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import random
import time
from functools import lru_cache

from strongedge.graph import (
    CONFIGURATION_KINDS,
    find_configuration,
    find_edge_cut_at_most,
    gen_blowup_c5,
    gen_incidence_pg,
    gen_random_regular,
)
from strongedge.coloring import (
    PartialColoring,
    available_colors,
    edge_neighborhood,
    exact_strong_index,
    greedy_color,
    match_targets,
    verify_strong_coloring,
)
from strongedge.reduction import build_partition, build_precolor_and_sequence, solve21

from helpers import (
    brute_chromatic,
    brute_distinct_assignment,
    brute_has_configuration,
    brute_min_cut,
    complete,
    complete_bipartite,
    cycle,
    is_2k2_free,
    path,
    random_graph,
    random_graph_max_deg,
    star,
    strong_adjacency,
)
from pocket import SHAPES, build_pocket


def report(number, name, started):
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({time.time() - started:.1f}s)")


def test_criterion_01_extremal_value():
    t0 = time.time()
    res = exact_strong_index(gen_blowup_c5(2))
    assert res.value == 20
    assert time.time() - t0 < 5.0
    report(1, "extremal blow-up needs exactly 20 colors", t0)


def test_criterion_02_2k2_free_equality():
    t0 = time.time()
    for g in (cycle(5), gen_blowup_c5(1), gen_blowup_c5(2)):
        start = time.time()
        assert is_2k2_free(g)
        assert exact_strong_index(g).value == g.num_edges()
        assert time.time() - start < 5.0
    report(2, "edge-dense instances need one color per edge", t0)


@lru_cache(maxsize=1)
def solver_sweep():
    """The criterion-3 corpus: colorings, traces, and per-instance stats."""
    instances = []
    for i in range(100):
        n = 12 + i % 19
        instances.append((f"regular-4-{n}-seed{i}", gen_random_regular(4, n, i)))
    instances.append(("incidence-pg3", gen_incidence_pg(3)))
    results = []
    for name, g in instances:
        coloring, trace = solve21(g)
        ok, witness = verify_strong_coloring(g, coloring)
        results.append({
            "name": name,
            "graph": g,
            "ok": ok and set(coloring.colored()) == set(g.edges()),
            "colors": len(coloring.colors_used()),
            "fallbacks": trace.fallback_count,
            "partition_runs": sum(1 for s in trace.steps if s.tag == "partition"),
            "partition_faults": sum(
                1 for s in trace.steps
                if s.tag == "fallback" and "partition invariant" in s.params),
        })
    return results


def test_criterion_03_solver_sweep():
    t0 = time.time()
    results = solver_sweep()
    assert all(r["ok"] for r in results)
    assert max(r["colors"] for r in results) <= 21
    fallbacks = sum(r["fallbacks"] for r in results)
    # a nonzero count is a logged finding, not a failure; the target is zero
    print(f"  [criterion 3] instances={len(results)} "
          f"max_colors={max(r['colors'] for r in results)} fallbacks={fallbacks}")
    assert time.time() - t0 < 600.0
    report(3, "21-color solver sweep verifies on the corpus", t0)


def test_criterion_04_cubic_regime():
    t0 = time.time()
    for i in range(50):
        n = (8, 10, 12, 14)[i % 4]
        g = gen_random_regular(3, n, 1000 + i)
        res = exact_strong_index(g)
        assert res.exact and res.value <= 10, (i, res.value)
    assert time.time() - t0 < 600.0
    report(4, "cubic graphs stay within ten colors exactly", t0)


def test_criterion_05_greedy_bound():
    t0 = time.time()
    rng = random.Random(12345)
    failures = 0
    for i in range(1000):
        n = 5 + i % 12
        g = random_graph_max_deg(n, 2 * n, 4, i)
        order = None
        if i < 100:
            order = g.edges()
            rng.shuffle(order)
        coloring, failed = greedy_color(g, 25, order)
        if failed is not None:
            failures += 1
        else:
            ok, _ = verify_strong_coloring(g, coloring)
            assert ok
    assert failures == 0
    assert time.time() - t0 < 60.0
    report(5, "greedy with 25 colors never fails at degree four", t0)


def corpus_max_degree_four():
    graphs = [gen_blowup_c5(1), gen_blowup_c5(2), gen_incidence_pg(2),
              gen_incidence_pg(3)]
    for seed in range(30):
        graphs.append(gen_random_regular(4, 12 + seed % 10, seed))
    for seed in range(50):
        graphs.append(random_graph_max_deg(10, 18, 4, seed))
    return graphs


def test_criterion_06_neighborhood_cap():
    t0 = time.time()
    violations = 0
    for g in corpus_max_degree_four():
        for e in g.edges():
            if len(edge_neighborhood(g, e)) > 24:
                violations += 1
    assert violations == 0
    report(6, "every edge sees at most 24 edges at degree four", t0)


def test_criterion_07_sdr_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(777)
    checked = 0
    discrepancies = 0
    i = 0
    while checked < 1000:
        i += 1
        g = random_graph_max_deg(6 + i % 7, 14, 4, i)
        if g.num_edges() < 4:
            continue
        k = rng.randint(5, 21)
        base, _ = greedy_color(g, 25)
        coloring = PartialColoring(k)
        for e in base.colored():
            c = base.color(e)
            if c <= k and rng.random() < 0.55:
                coloring.assign(e, c)
        uncolored = [e for e in g.edges() if coloring.color(e) is None]
        if not uncolored:
            continue
        rng.shuffle(uncolored)
        targets = sorted(uncolored[:rng.randint(1, 8)])
        col = coloring.as_dict()
        assigned = match_targets(g, col, targets, k)
        brute = brute_distinct_assignment(
            {t: available_colors(g, col, t, k) for t in targets})
        if (assigned is not None) != (brute is not None):
            discrepancies += 1
        elif assigned is not None:
            assert sorted(assigned) == targets
            ok, _ = verify_strong_coloring(g, PartialColoring(k, {**col, **assigned}))
            assert ok
        checked += 1
    assert discrepancies == 0
    assert time.time() - t0 < 120.0
    report(7, "distinct-representative extension matches brute force", t0)


def test_criterion_08_exact_solver_oracle():
    t0 = time.time()
    family = [path(k) for k in range(1, 10)]
    family += [cycle(k) for k in range(3, 10)]
    family += [star(k) for k in range(1, 10)]
    family += [complete(4), complete_bipartite(2, 3)]
    for seed in range(100):
        family.append(random_graph(7, min(9, 3 + seed % 7), seed))
    discrepancies = 0
    for g in family:
        assert g.num_edges() <= 9
        res = exact_strong_index(g)
        if not res.exact or res.value != brute_chromatic(strong_adjacency(g)):
            discrepancies += 1
        ok, _ = verify_strong_coloring(g, res.coloring)
        assert ok
    assert discrepancies == 0
    assert time.time() - t0 < 300.0
    report(8, "exact solver matches exhaustive search on small graphs", t0)


def test_criterion_09_structure_detector_oracles():
    t0 = time.time()
    discrepancies = 0
    for seed in range(200):
        g = random_graph(5 + seed % 6, 4 + seed % 12, seed)
        for kind in CONFIGURATION_KINDS:
            found = find_configuration(g, kind) is not None
            if found != brute_has_configuration(g, kind):
                discrepancies += 1
        if g.num_vertices() >= 2 and len(g.components()) == 1:
            cut = find_edge_cut_at_most(g, 3)
            expected = brute_min_cut(g)
            if expected > 3 and cut is not None:
                discrepancies += 1
            if expected <= 3 and (cut is None or len(cut.cut_edges) != expected):
                discrepancies += 1
    assert discrepancies == 0
    assert time.time() - t0 < 120.0
    report(9, "pattern and cut detectors match brute enumeration", t0)


def test_criterion_10_partition_soundness():
    t0 = time.time()
    # every partition event in the criterion-3 sweep must be violation-free
    results = solver_sweep()
    assert sum(r["partition_faults"] for r in results) == 0
    triggered = sum(r["partition_runs"] for r in results)
    # the split path is rare on random corpora; exercise it directly on the
    # engineered fixtures and re-check its invariants by hand
    for case in ("r-sibling", "twin-anchors", "hub-deg2"):
        g, info = build_pocket(SHAPES[case])
        plan = build_precolor_and_sequence(g, 0)
        assert not plan.covers_all(g)
        part = build_partition(g, plan)
        for e in g.edges():
            a, b = g.endpoints(e)
            assert not ((a in part.left and b in part.right)
                        or (a in part.right and b in part.left))
        inner = {e for e in g.edges()
                 if g.endpoints(e)[0] in part.left
                 and g.endpoints(e)[1] in part.left}
        assert inner == part.left_edges
        for e in part.crossing:
            assert len(set(g.endpoints(e)) & part.designated) == 1
        for a in sorted(part.designated):
            assert sum(1 for e in part.crossing if a in g.endpoints(e)) <= 2
        for v in sorted(part.left):
            assert sum(1 for e in part.crossing if v in g.endpoints(e)) <= 1
        triggered += 1
    print(f"  [criterion 10] partition instances checked: {triggered}")
    report(10, "left/mid/right split invariants hold wherever it runs", t0)

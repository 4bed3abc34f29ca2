"""Command line surface: coloring, exact values, verification, generation, sweeps.

Exit codes: 0 success, 1 coloring failure or invalid coloring, 2 usage or
malformed input, 3 internal error (an artifact failed re-verification or
the solver raised), 4 exact-solver budget exhausted (by `exact`, by `hunt
--alg exact|both`, or by the exact finish of a reduce21 solve).
"""
from __future__ import annotations

import argparse
import json
import sys

from .graph import (
    Graph,
    format_edge_list,
    gen_blowup_c5,
    gen_incidence_pg,
    gen_random_regular,
    girth,
    graph_from_json,
    parse_edge_list,
)
from .coloring import (
    coloring_from_json,
    coloring_to_json,
    exact_strong_index,
    greedy_color,
    verify_strong_coloring,
)
from .reduction import ExactFinishBudgetError, solve21

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4

#: Search nodes `exact` (unless given --budget) and `hunt --alg exact|both`
#: allow each exact search.
EXACT_NODES = 2_000_000


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return graph_from_json(text)
    return parse_edge_list(text)


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _girth_str(g: Graph) -> str:
    gg = girth(g)
    return "inf" if gg == float("inf") else str(int(gg))


def _regularity_str(g: Graph) -> str:
    degs = {g.degree(v) for v in g.vertices()}
    return f"{next(iter(degs))}-regular" if len(degs) == 1 else "irregular"


def _solve_error(exc: RuntimeError) -> int:
    """Report a solve21 failure in one line: exit 4 when the exact finish ran
    out of its node budget, 3 otherwise."""
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_BUDGET if isinstance(exc, ExactFinishBudgetError) else EXIT_INTERNAL


def cmd_color(args) -> int:
    try:
        g = _read_graph(args.input)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.alg == "reduce21":
        if g.max_degree() > 4:
            print("error: reduce21 requires maximum degree at most 4", file=sys.stderr)
            return EXIT_USAGE
        try:
            coloring, trace = solve21(g)
        except RuntimeError as exc:
            return _solve_error(exc)
        if trace.fallback_count:
            print(f"warning: {trace.fallback_count} fallback event(s); "
                  "coloring is still valid", file=sys.stderr)
        if args.trace:
            if args.trace.endswith(".json"):
                _write_text(args.trace,
                            json.dumps(trace.to_json_obj(), sort_keys=True) + "\n")
            else:
                _write_text(args.trace, trace.format_text())
    else:
        if args.k < 0:
            print("error: --k must be non-negative", file=sys.stderr)
            return EXIT_USAGE
        order = None
        if args.seed is not None:
            import random
            order = g.edges()
            random.Random(args.seed).shuffle(order)
        coloring, failed = greedy_color(g, args.k, order)
        if failed is not None:
            print(f"greedy failed at edge {failed}", file=sys.stderr)
            return EXIT_FAILURE

    ok, witness = verify_strong_coloring(g, coloring)
    if not ok or set(coloring.colored()) != set(g.edges()):
        print(f"internal error: produced coloring is invalid ({witness})",
              file=sys.stderr)
        return EXIT_INTERNAL
    _write_text(args.out, coloring_to_json(coloring) + "\n")
    print(f"colored {g.num_edges()} edges with "
          f"{len(coloring.colors_used())} colors (k={coloring.k})")
    return EXIT_OK


def cmd_exact(args) -> int:
    if args.budget < 0:
        print("error: --budget must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    try:
        g = _read_graph(args.input)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    res = exact_strong_index(g, budget=args.budget)
    if args.out:
        _write_text(args.out, coloring_to_json(res.coloring) + "\n")
    if not res.exact:
        print(f"bounds: {res.lower} <= strong chromatic index <= {res.upper} "
              f"(budget exhausted after {res.nodes} nodes)")
        return EXIT_BUDGET
    print(res.value)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        g = _read_graph(args.graph)
        with open(args.coloring, "r", encoding="utf-8") as fh:
            coloring = coloring_from_json(fh.read())
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    unknown = [e for e in coloring.colored() if not g.has_edge_id(e)]
    if unknown:
        print(f"error: coloring references unknown edge ids {unknown[:5]}",
              file=sys.stderr)
        return EXIT_USAGE
    ok, witness = verify_strong_coloring(g, coloring)
    if not ok:
        print(f"invalid: edges {witness[0]} and {witness[1]} share a color "
              "and see each other", file=sys.stderr)
        return EXIT_FAILURE
    uncolored = [e for e in g.edges() if coloring.color(e) is None]
    if uncolored:
        print(f"incomplete: {len(uncolored)} edge(s) uncolored, lowest {uncolored[0]}",
              file=sys.stderr)
        return EXIT_FAILURE
    print("valid")
    return EXIT_OK


def _build_generated(args) -> Graph:
    if args.family == "blowup":
        return gen_blowup_c5(args.t)
    if args.family == "pg":
        return gen_incidence_pg(args.q)
    return gen_random_regular(args.d, args.n, args.seed)


def cmd_gen(args) -> int:
    try:
        g = _build_generated(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_text(args.out, format_edge_list(g))
    print(f"n={g.num_vertices()} m={g.num_edges()} "
          f"{_regularity_str(g)} girth={_girth_str(g)}", file=sys.stderr)
    return EXIT_OK


def _hunt_one(mode: str, g: Graph, seed: int):
    """The seed's report record, or None when its exact search ran out of
    EXACT_NODES."""
    record = {"seed": seed, "n": g.num_vertices(), "m": g.num_edges()}
    if mode in ("reduce21", "both"):
        coloring, trace = solve21(g)
        ok, _ = verify_strong_coloring(g, coloring)
        record["colors"] = len(coloring.colors_used())
        record["fallbacks"] = trace.fallback_count
        record["verified"] = ok and set(coloring.colored()) == set(g.edges())
    if mode in ("exact", "both"):
        res = exact_strong_index(g, budget=EXACT_NODES)
        if not res.exact:
            return None
        record["exact"] = res.value
        okx, _ = verify_strong_coloring(g, res.coloring)
        record["verified"] = record.get("verified", True) and okx
    return record


def cmd_hunt(args) -> int:
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.alg != "exact" and args.d > 4:
        print("error: reduce21 requires --d at most 4", file=sys.stderr)
        return EXIT_USAGE
    records = []
    for seed in range(args.seed, args.seed + args.count):
        try:
            g = gen_random_regular(args.d, args.n, seed)
        except (ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            record = _hunt_one(args.alg, g, seed)
        except RuntimeError as exc:
            return _solve_error(exc)
        if record is None:
            print(f"error: exact search at seed {seed} ran out of its "
                  f"{EXACT_NODES}-node budget", file=sys.stderr)
            return EXIT_BUDGET
        records.append(record)

    bad = [r for r in records if not r.get("verified", False)]
    if bad:
        print(f"verification failed at seed {bad[0]['seed']}", file=sys.stderr)
        return EXIT_INTERNAL
    key = "colors" if args.alg in ("reduce21", "both") else "exact"
    values = [r[key] for r in records]
    hist: dict[int, int] = {}
    for v in values:
        hist[v] = hist.get(v, 0) + 1
    lines = [f"instances={len(records)} d={args.d} n={args.n} "
             f"seeds={args.seed}..{args.seed + args.count - 1}",
             f"max {key} = {max(values)}",
             f"fallbacks = {sum(r.get('fallbacks', 0) for r in records)}"]
    for v in sorted(hist):
        lines.append(f"  {key}={v}: {'#' * hist[v]} ({hist[v]})")
    report = "\n".join(lines) + "\n"
    _write_text(args.out, report)
    if args.out not in (None, "-"):
        sys.stdout.write(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongedge",
        description="strong edge-coloring toolkit for max degree four")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="color a graph file")
    p.add_argument("input", help="graph file (edge list or JSON)")
    p.add_argument("--alg", choices=("reduce21", "greedy"), default="reduce21")
    p.add_argument("--k", type=int, default=21, help="palette size for greedy")
    p.add_argument("--seed", type=int, default=None,
                   help="shuffle the greedy edge order with this seed")
    p.add_argument("--out", default="-", help="coloring JSON output path")
    p.add_argument("--trace", default=None, help="write the reduction trace here")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("exact", help="compute the exact strong chromatic index")
    p.add_argument("input")
    p.add_argument("--budget", type=int, default=EXACT_NODES,
                   help="search node limit (default %(default)s)")
    p.add_argument("--out", default=None, help="witness coloring output path")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="verify a coloring against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate an instance")
    gsub = p.add_subparsers(dest="family", required=True)
    b = gsub.add_parser("blowup", help="cycle blow-up, the extremal instance")
    b.add_argument("--t", type=int, required=True)
    b.add_argument("--out", default="-")
    b.set_defaults(func=cmd_gen)
    q = gsub.add_parser("pg", help="projective plane incidence graph")
    q.add_argument("--q", type=int, required=True, choices=(2, 3))
    q.add_argument("--out", default="-")
    q.set_defaults(func=cmd_gen)
    r = gsub.add_parser("regular", help="random regular graph")
    r.add_argument("--d", type=int, required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default="-")
    r.set_defaults(func=cmd_gen)

    p = sub.add_parser("hunt", help="sweep random instances and report")
    p.add_argument("--alg", choices=("reduce21", "exact", "both"),
                   default="reduce21")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--count", type=int, default=10, help="number of seeds")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_hunt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command line surface: coloring, exact values, verification, generation, sweeps.

Exit codes: 0 success, 1 coloring failure or invalid coloring, 2 usage,
malformed or unreadable input, or an unwritable --out/--trace path, 3
internal error (an artifact failed re-verification or the solver raised), 4
exact-solver budget exhausted (by `exact`, by `hunt --alg exact|both`, or by
the exact finish of a reduce21 solve). A command reports a failure by raising
`_Exit`; `main` alone prints its one stderr line and returns its code.
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
from .reduction import PALETTE, ExactFinishBudgetError, solve21

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4

#: Search nodes `exact` (unless given --budget) and `hunt --alg exact|both`
#: allow each exact search.
EXACT_NODES = 2_000_000


class _Exit(Exception):
    """A failed command: `main` prints its one line to stderr and returns `code`."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code


def _read(path: str, parse):
    """`parse` of the text of the file at `path`; exits 2 if that fails."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_USAGE, f"error: {exc}")


def _read_graph(path: str) -> Graph:
    def parse(text: str) -> Graph:
        if path.endswith(".json") or text.lstrip().startswith("{"):
            return graph_from_json(text)
        return parse_edge_list(text)
    return _read(path, parse)


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"error: {exc}")


def _generate(build, *params) -> Graph:
    """build(*params); bad generator parameters exit 2."""
    try:
        return build(*params)
    except (ValueError, RuntimeError) as exc:
        raise _Exit(EXIT_USAGE, f"error: {exc}")


def _girth_str(g: Graph) -> str:
    gg = girth(g)
    return "inf" if gg == float("inf") else str(int(gg))


def _regularity_str(g: Graph) -> str:
    degs = {g.degree(v) for v in g.vertices()}
    return f"{next(iter(degs))}-regular" if len(degs) == 1 else "irregular"


def cmd_color(args) -> int:
    # an option the chosen algorithm would ignore is an error, not a no-op
    reduce21 = args.alg == "reduce21"
    for name in ("k", "seed") if reduce21 else ("trace",):
        if getattr(args, name) is not None:
            raise _Exit(EXIT_USAGE, f"error: --{name} does not apply to --alg {args.alg}")
    g = _read_graph(args.input)
    if reduce21:
        if g.max_degree() > 4:
            raise _Exit(EXIT_USAGE, "error: reduce21 requires maximum degree at most 4")
        coloring, trace = solve21(g)
        if args.trace:
            if args.trace.endswith(".json"):
                _write_text(args.trace,
                            json.dumps(trace.to_json_obj(), sort_keys=True) + "\n")
            else:
                _write_text(args.trace, trace.format_text())
    else:
        k = PALETTE if args.k is None else args.k
        if k < 0:
            raise _Exit(EXIT_USAGE, "error: --k must be non-negative")
        order = None
        if args.seed is not None:
            import random
            order = g.edges()
            random.Random(args.seed).shuffle(order)
        coloring, failed = greedy_color(g, k, order)
        if failed is not None:
            raise _Exit(EXIT_FAILURE, f"greedy failed at edge {failed}")

    ok, witness = verify_strong_coloring(g, coloring)
    if not ok or set(coloring.colored()) != set(g.edges()):
        raise _Exit(EXIT_INTERNAL,
                    f"internal error: produced coloring is invalid ({witness})")
    _write_text(args.out, coloring_to_json(coloring) + "\n")
    if reduce21 and trace.fallback_count:
        # only on success, so that a failure prints no line but its own
        print(f"warning: {trace.fallback_count} fallback event(s); "
              "coloring is still valid", file=sys.stderr)
    print(f"colored {g.num_edges()} edges with "
          f"{len(coloring.colors_used())} colors (k={coloring.k})")
    return EXIT_OK


def cmd_exact(args) -> int:
    if args.budget < 0:
        raise _Exit(EXIT_USAGE, "error: --budget must be non-negative")
    g = _read_graph(args.input)
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
    g = _read_graph(args.graph)
    coloring = _read(args.coloring, coloring_from_json)
    unknown = [e for e in coloring.colored() if not g.has_edge_id(e)]
    if unknown:
        raise _Exit(EXIT_USAGE,
                    f"error: coloring references unknown edge ids {unknown[:5]}")
    ok, witness = verify_strong_coloring(g, coloring)
    if not ok:
        raise _Exit(EXIT_FAILURE, f"invalid: edges {witness[0]} and {witness[1]} "
                    "share a color and see each other")
    uncolored = [e for e in g.edges() if coloring.color(e) is None]
    if uncolored:
        raise _Exit(EXIT_FAILURE, f"incomplete: {len(uncolored)} edge(s) uncolored, "
                    f"lowest {uncolored[0]}")
    print("valid")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.family == "blowup":
        g = _generate(gen_blowup_c5, args.t)
    elif args.family == "pg":
        g = _generate(gen_incidence_pg, args.q)
    else:
        g = _generate(gen_random_regular, args.d, args.n, args.seed)
    _write_text(args.out, format_edge_list(g))
    print(f"n={g.num_vertices()} m={g.num_edges()} "
          f"{_regularity_str(g)} girth={_girth_str(g)}", file=sys.stderr)
    return EXIT_OK


def _hunt_one(args, seed: int):
    """The report record of the seed's graph; exits 4 when its exact search
    runs out of EXACT_NODES."""
    g = _generate(gen_random_regular, args.d, args.n, seed)
    record = {"seed": seed, "n": g.num_vertices(), "m": g.num_edges()}
    if args.alg in ("reduce21", "both"):
        coloring, trace = solve21(g)
        ok, _ = verify_strong_coloring(g, coloring)
        record["colors"] = len(coloring.colors_used())
        record["fallbacks"] = trace.fallback_count
        record["verified"] = ok and set(coloring.colored()) == set(g.edges())
    if args.alg in ("exact", "both"):
        res = exact_strong_index(g, budget=EXACT_NODES)
        if not res.exact:
            raise _Exit(EXIT_BUDGET, f"error: exact search at seed {seed} ran out "
                        f"of its {EXACT_NODES}-node budget")
        record["exact"] = res.value
        okx, _ = verify_strong_coloring(g, res.coloring)
        record["verified"] = record.get("verified", True) and okx
    return record


def cmd_hunt(args) -> int:
    if args.count < 1:
        raise _Exit(EXIT_USAGE, "error: --count must be at least 1")
    if args.alg != "exact" and args.d > 4:
        raise _Exit(EXIT_USAGE, "error: reduce21 requires --d at most 4")
    seeds = range(args.seed, args.seed + args.count)
    records = [_hunt_one(args, seed) for seed in seeds]
    bad = [r for r in records if not r.get("verified", False)]
    if bad:
        raise _Exit(EXIT_INTERNAL, f"verification failed at seed {bad[0]['seed']}")
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
    p.add_argument("--k", type=int, default=None,
                   help=f"palette size for greedy (default {PALETTE})")
    p.add_argument("--seed", type=int, default=None,
                   help="shuffle the greedy edge order with this seed")
    p.add_argument("--out", default="-", help="coloring JSON output path")
    p.add_argument("--trace", default=None,
                   help="write the reduce21 reduction trace here")
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
    try:
        return args.func(args)
    except _Exit as exc:
        line, code = str(exc), exc.code
    except RuntimeError as exc:
        # a solve21 failure: its exact finish ran out of nodes (4) or it broke (3)
        line = f"error: {exc}"
        code = EXIT_BUDGET if isinstance(exc, ExactFinishBudgetError) else EXIT_INTERNAL
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

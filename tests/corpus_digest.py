"""One sha256 over the colorings and traces of a fixed 2,133-run `solve21`
corpus, so that a refactor can show it changed no output.

    python3 tests/corpus_digest.py           # print the step counts and digest
    python3 tests/corpus_digest.py --check   # exit 1 unless they equal STEPS, DIGEST

Run it from anywhere: it imports the library from this checkout's `src/`, the
generators from `perfbench/` and the fixtures from `tests/`.  The corpus, in
run order:

- perfbench's `sweep` workload at seeds 7, 11 and 13 (3 x 306 graphs);
- perfbench's `large` workload (2 graphs);
- the 13 pocket fixtures of `pocket.py` (SHAPES, THIN_SHAPES, SWAP_SHAPES);
- 600 pairing-model multigraphs, `pairing_multigraph(8 + i % 40, Random(i))`;
- 200 K5-minus-an-edge rings, `k5e_ring(3 + i % 8, Random(i))`;
- 400 random simple graphs of maximum degree four,
  `random_graph_max_deg(n, 2n, 4, i)` with n = 8 + i % 33.

Each run adds its name, its coloring JSON and its trace text to the hash.
A change meant to keep every coloring and trace leaves DIGEST as it is; one
that changes them on purpose updates DIGEST and says why.  STEPS, the count
of each trace step over the corpus, pins the dispatch paths alone: a change
that recolors without rerouting updates DIGEST and leaves STEPS as it is.
STEPS has no `fallback` entry: the corpus runs fallback-free.
"""
import argparse
import hashlib
import os
import random
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]

from strongedge import coloring_to_json, solve21  # noqa: E402

from helpers import random_graph_max_deg  # noqa: E402
from pocket import SHAPES, SWAP_SHAPES, THIN_SHAPES, build_pocket  # noqa: E402
from workloads import k5e_ring, large, pairing_multigraph, sweep  # noqa: E402

DIGEST = "f579207f166f921fa14d424a68d33cb88ba2761d6c1a4a95a6b2911c82f85a14"
STEPS = ("base-case=2369 collaborative=13 components=7 low-degree=1978 partition=13 "
         "sdr=784 sequence-complete=2 short-cycle=951 small-cut=218")


def corpus():
    """(name, graph) for every run, in hash order."""
    for seed in (7, 11, 13):
        for inst in sweep(seed):
            yield f"sweep{seed}:{inst.name}", inst.graph
    for inst in large(0):
        yield f"large:{inst.name}", inst.graph
    shapes = dict(SHAPES)
    shapes.update({name: shape for name, (shape, _) in THIN_SHAPES.items()})
    shapes.update({name: shape for name, (shape, _) in SWAP_SHAPES.items()})
    for name, shape in shapes.items():
        yield f"pocket:{name}", build_pocket(shape)[0]
    for i in range(600):
        yield f"pairing:{i}", pairing_multigraph(8 + i % 40, random.Random(i))
    for i in range(200):
        yield f"k5e-ring:{i}", k5e_ring(3 + i % 8, random.Random(i))
    for i in range(400):
        n = 8 + i % 33
        yield f"max-deg-4:{i}", random_graph_max_deg(n, 2 * n, 4, i)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless the step counts equal STEPS and the "
                         "digest equals DIGEST")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    digest = hashlib.sha256()
    runs, steps = 0, Counter()
    for name, g in corpus():
        coloring, trace = solve21(g)
        digest.update(f"{name}\n{coloring_to_json(coloring)}\n{trace.format_text()}"
                      .encode())
        runs += 1
        steps.update(trace.tags())
    value = digest.hexdigest()
    counts = " ".join(f"{tag}={count}" for tag, count in sorted(steps.items()))
    print(f"runs={runs} seconds={time.perf_counter() - start:.1f}")
    print(counts)
    print(value)
    if not args.check:
        return 0
    pinned = (("step counts", counts, STEPS), ("digest", value, DIGEST))
    moved = [(what, want) for what, got, want in pinned if got != want]
    for what, want in moved:
        print(f"corpus {what} changed: expected {want}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of `solve21` and `exact_strong_index`, run in-process.

    python3 perfbench/run.py --workload pocket --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, runs whole passes over them until
`--seconds` have passed (always at least one pass), checks every output with
`checker.py`, and prints the metrics, one `name value unit` line each.  The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` the passes alternate untraced and under `tracer.Tracer`, and
the metrics are the per-layer ones.  Times are divided by the machine's speed
measured next to them (`calibrate.py`).  Run it from the
repository root: the library is imported from `src/` and the pocket fixtures
from `tests/pocket.py`.  Exits with 2 when the library cannot be imported.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_library():
    """Import strongedge from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
    import strongedge
    if os.path.dirname(os.path.abspath(strongedge.__file__)) != os.path.join(SRC, "strongedge"):
        raise ImportError(f"strongedge was imported from {strongedge.__file__}, not {SRC}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["pocket", "large", "sweep", "exact"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        import_library()
        import measure
    except ImportError as exc:
        print(f"run.py: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    run = measure.Run(args.workload, args.seed, args.seconds, args.trace)
    run.measure()
    metrics = run.per_layer() if args.trace else run.end_to_end()

    print(f"# workload={args.workload} seed={args.seed} instances={len(run.insts)} "
          f"passes={len(run.walls) + len(run.traced_walls)} trace={args.trace} "
          f"import_s={import_s:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

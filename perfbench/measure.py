"""Timed passes, output checks and metrics for one benchmark run."""
from __future__ import annotations

import contextlib
import gc
import importlib
import resource
import signal
import statistics
import sys
import time

from strongedge import coloring, reduction

import checker
import workloads
from calibrate import Calibration
from tracer import COUNTS, LAYERS, Tracer

#: Set-ups timed per run, one after each of the first passes (the rest after
#: the last pass, if there are fewer), so that they sample the whole run;
#: setup_s is their median.
SETUP_REPEATS = 5
#: Top-level modules a set-up imports afresh: the library and the fixtures.
FRESH_MODULES = ("strongedge", "pocket")
PALETTE = 21
#: Seconds between speed samples (one calibration rep each) during a pass.
SAMPLE_EVERY_S = 0.06
STEP_TAGS = ["base-case", "components", "low-degree", "short-cycle", "small-cut",
             "sequence-complete", "partition", "collaborative", "sdr", "fallback"]
SDR_OUTCOMES = ["direct", "paired", "recolored", "search"]
UNITS = {"setup_s": "s", "wall_s": "s", "instance_s_p50": "s", "instance_s_p95": "s",
         "edges_per_s": "edges/s", "colors_mean": "colors", "peak_rss_mb": "MB"}


def generate(workload, seed):
    """The workload's inputs and their edge lists."""
    insts = workloads.WORKLOADS[workload](seed)
    graphs = [(inst.graph, inst.relabelled) for inst in insts]
    edges = tuple(tuple(g.endpoints(e) for e in g.edges())
                  for pair in graphs for g in pair if g is not None)
    return insts, edges


@contextlib.contextmanager
def fresh_imports():
    """Let FRESH_MODULES be imported again, as a new process would import
    them from their compiled files; the modules in use come back after."""
    def ours():
        return [name for name in sys.modules if name.split(".")[0] in FRESH_MODULES]

    kept = {name: sys.modules.pop(name) for name in ours()}
    try:
        yield
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(kept)


def set_up(workload, seed):
    """One set-up: import the library afresh and build the inputs.  Returns
    its seconds and the edge lists it built."""
    with fresh_imports():
        start = time.perf_counter()
        importlib.import_module("strongedge")
        _, edges = generate(workload, seed)
        return time.perf_counter() - start, edges


def run_op(inst):
    # Looked up on the module at call time so that the tracer's wrappers apply.
    if inst.op == "solve21":
        return reduction.solve21(inst.graph)
    return coloring.exact_strong_index(inst.graph, budget=workloads.EXACT_BUDGET)


@contextlib.contextmanager
def every(seconds, action):
    """Call `action` every `seconds` of wall time from a timer signal, which
    Python runs between two bytecodes of whatever is running, a solve too."""
    old = signal.signal(signal.SIGALRM, lambda *_: action())
    signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def calibrated(spans, log):
    """Each span's seconds, less the samples inside it, over the mean speed
    factor of those samples and of the nearest sample on either side."""
    times, j = [], 0
    for t0, t1 in spans:
        while j + 1 < len(log) and log[j + 1][0] < t0:
            j += 1
        k = j + 1
        while log[k][0] < t1:
            k += 1
        inside = log[j + 1:k]
        took = t1 - t0 - sum(seconds for _, seconds, _ in inside)
        times.append(took / statistics.fmean(factor for _, _, factor in log[j:k + 1]))
    return times


def one_pass(insts, cal, sampled):
    """Run every instance once: (calibrated seconds per instance, outputs).

    A speed sample runs before the first instance and after the last and,
    when `sampled`, every SAMPLE_EVERY_S in between, in the middle of a solve
    if one is running.  Traced runs are not sampled, so that no sample lands
    inside a traced span and traced and untraced passes compare alike."""
    gc.collect()
    clock = time.perf_counter
    log = []                                # (start, seconds, factor)
    busy = [False]

    def take():
        if busy[0]:                         # a timer signal during a sample
            return
        busy[0] = True
        start = clock()
        factor = cal.sample(0.0)
        log.append((start, clock() - start, factor))
        busy[0] = False

    spans, outputs = [], []
    take()
    with every(SAMPLE_EVERY_S, take) if sampled else contextlib.nullcontext():
        for inst in insts:
            t = clock()
            try:
                out = run_op(inst)
            except Exception as exc:  # a raising operation is counted as failed
                out = exc
            spans.append((t, clock()))
            outputs.append(out)
    take()
    return calibrated(spans, log), outputs


class Facts:
    """What the checks need to know about one input, computed before the passes."""

    def __init__(self, inst):
        self.eids, self.ends = checker.edge_list(inst.graph)
        if inst.op == "exact":
            self.lower = checker.degree_lower_bound(self.ends)
            self.two_k2_free = checker.is_2k2_free(self.ends)
            self.relabelled = self._solve_relabelled(inst.relabelled)

    @staticmethod
    def _solve_relabelled(g):
        """Exact value of the relabelled copy, or a (reason, wrong) failure."""
        res = coloring.exact_strong_index(g, budget=workloads.EXACT_BUDGET)
        if not res.exact:
            return "node budget exhausted on the relabelled copy", False
        eids, ends = checker.edge_list(g)
        reason = checker.check_strong_coloring(eids, ends, res.coloring.as_dict(), res.value)
        return (f"relabelled copy: {reason}", True) if reason else res.value


def check(inst, facts, out):
    """(reason, wrong): why the operation failed, or None; wrong is True when
    the output is incorrect rather than missing (a raise, a fallback or an
    exhausted budget)."""
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}", False
    if inst.op == "solve21":
        col, trace = out
        reason = checker.check_strong_coloring(facts.eids, facts.ends, col.as_dict(), PALETTE)
        if reason:
            return reason, True
        if "fallback" in trace.tags():
            return "trace records a fallback", False
        return None, False
    if not out.exact:
        return "node budget exhausted", False
    value, colors = out.value, out.coloring.as_dict()
    reason = checker.check_strong_coloring(facts.eids, facts.ends, colors)
    if reason is None and max(colors.values(), default=0) > value:
        reason = f"witness uses color {max(colors.values())} above the value {value}"
    if reason is None and value < facts.lower:
        reason = f"value {value} below the degree bound {facts.lower}"
    if reason is None and facts.two_k2_free and value != len(facts.eids):
        reason = f"2K2-free input with {len(facts.eids)} edges has value {value}"
    if reason is None and inst.expect_value is not None and value != inst.expect_value:
        reason = f"value {value}, expected {inst.expect_value}"
    if reason is None and "cubic" in inst.claims and value > 10:
        reason = f"cubic input has value {value} > 10"
    if reason is None and isinstance(facts.relabelled, tuple):
        return facts.relabelled
    if reason is None and facts.relabelled != value:
        reason = f"value {value}, but {facts.relabelled} after relabelling"
    return reason, reason is not None


def colors_used(inst, out):
    return len(out[0].colors_used()) if inst.op == "solve21" else out.value


class Run:
    """One run: set-up, whole passes until the deadline, checks, metrics."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.insts, self.inputs = generate(workload, seed)
        self.setup_s = []                               # calibrated seconds
        for inst in self.insts:
            workloads.validate(inst)
        self.facts = [Facts(inst) for inst in self.insts]
        self.cal = Calibration()
        self.tracers = []                               # one per traced pass
        self.tracer_speed = []                          # its mean speed factor
        self.walls, self.traced_walls = [], []
        self.per_instance = [[] for _ in self.insts]   # untraced times per pass
        self.attempted = self.failed = 0
        self.wrong = False
        self.reasons = set()
        self.outputs = []

    def measure(self):
        """Run whole passes until `seconds` have passed.  With tracing, the
        passes alternate untraced and traced, starting untraced."""
        deadline = time.perf_counter() + self.seconds
        while True:
            traced = bool(self.trace) and len(self.walls) > len(self.traced_walls)
            if traced:
                self.tracers.append(Tracer())
            with self.tracers[-1].installed() if traced else contextlib.nullcontext():
                times, self.outputs = one_pass(self.insts, self.cal, not self.trace)
            wall = sum(times)
            if traced:
                self.traced_walls.append(wall)
                self.tracer_speed.append(statistics.fmean(self.cal.samples[-2:]))
            else:
                self.walls.append(wall)
                for samples, t in zip(self.per_instance, times):
                    samples.append(t)
            self._check(self.outputs)
            if not self.trace and len(self.setup_s) < SETUP_REPEATS:
                self._set_up()
            print(f"# pass {len(self.walls) + len(self.traced_walls)}: {wall:.3f} s",
                  file=sys.stderr)
            if time.perf_counter() >= deadline and (self.traced_walls or not self.trace):
                break
        while not self.trace and len(self.setup_s) < SETUP_REPEATS:
            self._set_up()
        for line in sorted(self.reasons):
            print(f"FAILED {line}", file=sys.stderr)

    def _check(self, outputs):
        # Checked pass by pass so that outputs do not pile up on the heap.
        for inst, facts, out in zip(self.insts, self.facts, outputs):
            reason, wrong = check(inst, facts, out)
            if reason is not None:
                self.failed += 1
                self.wrong = self.wrong or wrong
                self.reasons.add(f"{inst.name}: {reason}")
        self.attempted += len(outputs)

    def _set_up(self):
        """Time one set-up, divided by the mean speed factor of a sample
        before it and one after, and check that it built the same inputs."""
        before = self.cal.sample(0.0)
        took, inputs = set_up(self.workload, self.seed)
        self.setup_s.append(took / statistics.fmean([before, self.cal.sample(0.0)]))
        gc.collect()                    # the fresh modules' reference cycles
        if inputs != self.inputs:
            raise RuntimeError(f"seed {self.seed} gave different inputs on regeneration")

    def end_to_end(self):
        """Each instance's median time over the passes, every time divided by
        the speed measured next to it (`calibrate.py`), so that the figures
        are seconds at the reference speed and do not follow the machine's
        drift."""
        typical = [statistics.median(samples) for samples in self.per_instance]
        wall_s = sum(typical)
        ok = [(inst, out) for inst, facts, out in zip(self.insts, self.facts, self.outputs)
              if check(inst, facts, out)[0] is None]
        values = {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": wall_s,
            "instance_s_p50": statistics.median(typical),
            "instance_s_p95": statistics.quantiles(typical, n=20, method="inclusive")[18],
            "edges_per_s": sum(len(f.eids) for f in self.facts) / wall_s,
            "colors_mean": statistics.fmean(colors_used(i, o) for i, o in ok) if ok else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {name: (value, UNITS[name]) for name, value in values.items()}

    def per_layer(self):
        """Calls, counts and self time of the median traced pass (the lower
        middle one by wall time), trace step counts of one pass, and that
        pass's wall time with its excess over the median untraced pass.
        Times are divided by the speed
        factor, self times by the mean factor of the samples before and after
        their pass."""
        by_wall = sorted(range(len(self.tracers)), key=self.traced_walls.__getitem__)
        mid = by_wall[(len(by_wall) - 1) // 2]
        tracer = self.tracers[mid]
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
            metrics[f"{layer}.self_s"] = (tracer.self_s[layer] / self.tracer_speed[mid], "s")
        for name in COUNTS:
            metrics[name] = (tracer.counts[name], "count")
        steps = dict.fromkeys(STEP_TAGS, 0)
        sdr = dict.fromkeys(SDR_OUTCOMES, 0)
        for inst, out in zip(self.insts, self.outputs):
            if inst.op != "solve21" or isinstance(out, Exception):
                continue
            for step in out[1].steps:
                if step.tag in steps:
                    steps[step.tag] += 1
                if step.tag == "sdr":
                    outcome = step.params.split("outcome=", 1)[1].split()[0]
                    if outcome in sdr:
                        sdr[outcome] += 1
        metrics.update({f"reduction.step.{tag}": (n, "count") for tag, n in steps.items()})
        metrics.update({f"reduction.sdr.{o}": (n, "count") for o, n in sdr.items()})
        metrics["trace.wall_s"] = (self.traced_walls[mid], "s")
        metrics["trace.overhead_s"] = (self.traced_walls[mid] - statistics.median(self.walls), "s")
        return metrics

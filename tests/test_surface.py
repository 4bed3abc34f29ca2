"""The package's public names, the README's library sketch and command
lines, the layer names that perfbench's tracer patches, the tests that force
reduction's fallback guards, and unused imports."""
import ast
import importlib
import importlib.util
import inspect
import re
import shlex
import types
from pathlib import Path
from unittest import mock

import strongedge
from strongedge import coloring, reduction
from strongedge.cli import main
from strongedge.graph import gen_random_regular

from helpers import cycle
from pocket import SHAPES, build_pocket
from test_reduction import POCKET_DIGESTS, assert_solved, pocket_digest

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "BranchLabels", "C4", "C5", "CONFIGURATION_KINDS", "Configuration", "EdgeCut",
    "ExactFinishBudgetError", "ExactResult", "FallbackTriggered", "Graph", "K23",
    "K24", "K33", "MULTI_EDGE", "PartialColoring", "ReductionTrace", "SequencePlan",
    "TRIANGLE", "VertexPartition", "bounds", "build_partition",
    "build_precolor_and_sequence", "coloring_from_json", "coloring_to_json",
    "edge_neighborhood", "exact_strong_index", "extend_sequence", "find_configuration",
    "find_edge_cut_at_most", "format_edge_list", "gen_blowup_c5", "gen_incidence_pg",
    "gen_random_regular", "girth", "graph_from_json", "graph_to_json", "greedy_color",
    "parse_edge_list", "rename_colors", "solve21",
    "verify_strong_coloring",
]


def test_public_names():
    names = sorted(n for n, v in vars(strongedge).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    exec(compile(sketch.split("\n```", 1)[0], "README.md", "exec"), {})


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("strongedge ")]
    monkeypatch.chdir(tmp_path)
    out = {}
    for line in lines:
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        out[" ".join(argv)] = capsys.readouterr().out
    assert out["exact blowup.txt"] == "20\n"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_trace_a_solve():
    # perfbench/run.py --trace 1 patches these attributes by name; a rename
    # in the library would otherwise surface only as a KeyError there
    tracer = load_tracer()
    for owner, attr, _, _ in tracer.TARGETS:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracer.TARGETS]
    g, _ = build_pocket(SHAPES["mixed-branch"])
    with tracer.Tracer().installed() as t:
        col, trace = reduction.solve21(g)
        assert t.calls["coloring.exact_strong_index"] == 0
        # every single-edge assignment reads one availability set through
        # reduction's binding of available_colors: the mixed-branch recipe
        # passes read 16
        assert t.calls["coloring.available_colors"] == 16
        _, sdr_trace = reduction.solve21(gen_random_regular(4, 59, 194))
        sdr = [s.params for s in sdr_trace.steps if s.tag == "sdr"]
        assert sdr == ["targets=8 outcome=direct"]
        assert t.calls["reduction.complete_targets"] == 1
        # the K2,3 solve reads 9 more: 1 for its spoke transfer, whose first
        # checked color collides, and 8 for the completion's 8 targets, so
        # 16 + 1 + 8 = 25
        assert t.calls["coloring.available_colors"] == 25
        # the exact solver through each of its two bindings: a direct call,
        # then the exact finish of a solve whose low-degree extension fails:
        # the color-back reports peeled edge 0 (of 0-1) uncolorable, and the
        # peel's own guard falls back
        coloring.exact_strong_index(cycle(5))
        assert t.calls["coloring.exact_strong_index"] == 1
        with mock.patch.object(reduction, "_first_fit", return_value=0):
            _, forced_trace = reduction.solve21(cycle(25))
        assert forced_trace.fallback_count == 1
        assert [s.params for s in forced_trace.steps if s.tag == "fallback"] == [
            "reason=no color available for edge 0 during low-degree extension"]
        assert t.calls["coloring.exact_strong_index"] == 2
    assert_solved(g, col, trace)
    assert pocket_digest(col, trace) == POCKET_DIGESTS["mixed-branch"]
    # the benchmark's per-layer rows read edge_neighborhood through these
    # bindings: only the base case calls it, to order its edges
    for layer in ("reduction.dispatch", "reduction.collaborative",
                  "graph.find_edge_cut_at_most", "graph.find_configuration",
                  "reduction.build_partition", "coloring.edge_neighborhood"):
        assert t.calls[layer] > 0, layer
    assert set(t.calls) <= set(tracer.LAYERS)
    assert [vars(owner)[attr] for owner, attr, _, _ in tracer.TARGETS] == originals


# Every `raise FallbackTriggered` in reduction.py outside `_require`, by its
# reason with each formatted field as {}, and the test that forces it.  Any
# other guard is a `_require` call whose docstring argues it cannot fail.
ASSIGNMENT = "tests/test_reduction.py::TestAssignmentHelpers::test_match_the_colors_on_seen_edges"
TAIL = "tests/test_reduction.py::TestBlockedTailManeuver::"
FORCED = "tests/test_reduction.py::TestForcedFallbacks::test_exact_finish_recovers"
FORCED_GUARDS = {
    "edge {} already colored during {}": ASSIGNMENT,
    "no color available for edge {} during {}": ASSIGNMENT,
    "color {} blocked on edge {} during {}": ASSIGNMENT,
    "sequence stalled at edge {}": TAIL + "test_stall_off_the_tail_falls_back",
    "sequence stalled twice; donor edge already moved": TAIL + "test_stalled_twice",
    "donor color still blocked after removal": TAIL + "test_donor_color_still_blocked",
    "no color available for edge {} during low-degree extension": FORCED,
    "completion exhausted for {} target edges":
        "tests/test_reduction.py::TestCompletionStrategies::test_forced_fallback_recovers_via_exact",
    # _spliced, the last step of the cut splice and of each recipe
    "{} left {} edges uncolored": FORCED,
    "{} produced conflict {}":
        "tests/test_reduction.py::TestPartitionFixtures::test_final_verify_catches_a_bad_block",
}


def fallback_guards(source: str) -> tuple[list, list]:
    """The reasons of the `raise FallbackTriggered` statements outside
    `_require`, each formatted field as {}, and of the `_require` calls; a
    reason that is not a string literal reads None."""
    def reason(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr):
            return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                           for v in node.values)
        return None

    tree = ast.parse(source)
    inside = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name == "_require" for n in ast.walk(f)}
    raised, required = [], []
    for node in sorted((n for n in ast.walk(tree) if hasattr(n, "lineno")),
                       key=lambda n: (n.lineno, n.col_offset)):
        if (isinstance(node, ast.Raise) and node.exc is not None and id(node) not in inside
                and "FallbackTriggered" in {n.id for n in ast.walk(node.exc)
                                            if isinstance(n, ast.Name)}):
            call = node.exc
            raised.append(reason(call.args[0]) if isinstance(call, ast.Call)
                          and len(call.args) == 1 else None)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_require"):
            required.append(reason(node.args[1]) if len(node.args) > 1 else None)
    return raised, required


def test_every_fallback_guard_is_forced_or_required():
    raised, required = fallback_guards(
        (ROOT / "src" / "strongedge" / "reduction.py").read_text(encoding="utf-8"))
    assert None not in raised and None not in required
    assert sorted(raised) == sorted(FORCED_GUARDS)
    for why, node_id in FORCED_GUARDS.items():
        path, *names = node_id.split("::")
        test = importlib.import_module(Path(path).stem)
        for name in names:
            test = getattr(test, name)
        # the forcing test spells out the reason's longest literal part
        assert max(re.split(r"\{\}", why), key=len).strip() in inspect.getsource(test), why


NUMBER_WORDS = ("zero one two three four five six seven eight nine ten eleven twelve "
                "thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty").split()


def test_readme_states_the_guard_counts():
    # the README counts both forms of guard, so a new guard fails here until
    # the README says so
    raised, required = fallback_guards(
        (ROOT / "src" / "strongedge" / "reduction.py").read_text(encoding="utf-8"))
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    stated = [re.search(pattern, text)[1] for pattern in (
        r"(\w+) raise `FallbackTriggered` themselves", r"The other (\w+) are `_require")]
    counts = [int(w) if w.isdigit() else NUMBER_WORDS.index(w.lower()) for w in stated]
    assert counts == [len(raised), len(required)]


def test_guard_scan_flags_an_unlisted_raise():
    source = (
        "def _require(cond, why, *args):\n"
        "    if not cond:\n"
        "        raise FallbackTriggered(why.format(*args))\n"
        "def f(e, r):\n"
        "    _require(e, 'argued')\n"
        "    if e:\n"
        "        raise FallbackTriggered(f'edge {e} stuck')\n"
        "    raise FallbackTriggered(r)\n")
    assert fallback_guards(source) == (["edge {} stuck", None], ["argued"])


def fallback_catchers(source: str) -> list[str]:
    """The qualified name of the function around each except clause in
    `source` that would catch FallbackTriggered: one naming it, alone or in a
    tuple, or Exception or BaseException, or a bare except."""
    catching = {"FallbackTriggered", "Exception", "BaseException"}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.ExceptHandler) and (
                    child.type is None or catching & {n.id for n in ast.walk(child.type)
                                                      if isinstance(n, ast.Name)}):
                found.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(source), [])
    return found


def test_only_the_solver_catches_a_fallback():
    # a step that catches a fallback itself hides it from the trace and from
    # the exact finish, so every guard's failure goes through _Solver.solve
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        names = fallback_catchers(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = names
    assert found == {"reduction.py": ["_Solver.solve"]}


def test_catcher_scan_flags_each_catching_clause():
    source = (
        "class S:\n"
        "    def f(self):\n"
        "        try:\n"
        "            g()\n"
        "        except (KeyError, FallbackTriggered):\n"
        "            pass\n"
        "def h():\n"
        "    try:\n"
        "        g()\n"
        "    except ValueError:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n")
    assert fallback_catchers(source) == ["S.f", "h"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_no_unused_imports():
    # the package __init__ imports its public surface, which PUBLIC_NAMES pins
    exempt = ROOT / "src" / "strongedge" / "__init__.py"
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        if path != exempt:
            names = unused_imports(path.read_text(encoding="utf-8"))
            if names:
                found[str(path.relative_to(ROOT))] = names
    assert not found


def test_unused_import_check_flags_an_unread_name():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == [
        "e (line 2)", "os (line 1)"]

import json

import pytest

from strongedge.cli import main
from strongedge.graph import format_edge_list, gen_blowup_c5, gen_incidence_pg

from helpers import circulant
from pocket import SHAPES, build_pocket


def write_graph(tmp_path, g, name="graph.txt"):
    p = tmp_path / name
    p.write_text(format_edge_list(g))
    return str(p)


def c5_file(tmp_path):
    return write_graph(tmp_path, gen_blowup_c5(1), "c5.txt")


def c7_file(tmp_path):
    p = tmp_path / "c7.txt"
    p.write_text("p 7 7\n" + "".join(f"e {i} {(i + 1) % 7}\n" for i in range(7)))
    return str(p)


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


# Graph JSON of the wrong shape: not an object, edges not a list, an entry
# that is not a pair, a null vertex count, a fractional vertex count, a
# boolean vertex id, no vertex count, a repeated key.
BAD_GRAPH_JSON = ["[1, 2]", '{"n": 3, "edges": 5}', '{"n": 3, "edges": [[0, 1, 2]]}',
                  '{"n": null, "edges": []}', '{"n": 3.5, "edges": []}',
                  '{"n": 3, "edges": [[true, 2]]}', '{"edges": []}',
                  '{"n": 2, "edges": [[0, 1]], "edges": [[0, 1], [0, 1]]}']

# Coloring JSON of the wrong shape: not an object, colors not an object,
# a color that is a list, a palette size that is a string, a fractional color,
# no palette size.
BAD_COLORING_JSON = ["[1, 2]", '{"k": 5, "colors": 5}', '{"k": 5, "colors": {"0": [1]}}',
                     '{"k": "5", "colors": {"0": 1}}', '{"k": 3, "colors": {"0": 1.5}}',
                     '{"colors": {}}', '{"k": 21, "colors": {"0": 1, "00": 2}}']

# Each command that writes a file, pointed at a path in a missing directory.
UNWRITABLE = {
    "color-out": ["color", "{graph}", "--out", "{bad}"],
    "color-trace": ["color", "{graph}", "--out", "{tmp}/c.json", "--trace", "{bad}"],
    "exact-out": ["exact", "{graph}", "--out", "{bad}"],
    "gen-out": ["gen", "pg", "--q", "2", "--out", "{bad}"],
    "hunt-out": ["hunt", "--n", "10", "--count", "1", "--out", "{bad}"],
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE))
def test_unwritable_path_exits_two(tmp_path, capsys, name):
    fill = {"graph": c5_file(tmp_path), "bad": str(tmp_path / "missing" / "out"),
            "tmp": str(tmp_path)}
    assert main([a.format(**fill) for a in UNWRITABLE[name]]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1, err


class TestColor:
    def test_reduce21_on_incidence_graph(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, gen_incidence_pg(3))
        out = tmp_path / "col.json"
        trace = tmp_path / "trace.txt"
        code = main(["color", gpath, "--alg", "reduce21",
                     "--out", str(out), "--trace", str(trace)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["k"] == 21 and len(data["colors"]) == 52
        assert trace.read_text().strip()
        assert main(["verify", gpath, str(out)]) == 0

    def test_json_trace_matches_text_trace(self, tmp_path):
        # the triangle reduction gives a trace of several depths and tags
        gpath = write_graph(tmp_path, circulant(11, (1, 2)))
        paths = {}
        for suffix in ("json", "txt"):
            paths[suffix] = tmp_path / f"trace.{suffix}"
            assert main(["color", gpath, "--alg", "reduce21", "--out",
                         str(tmp_path / "col.json"), "--trace", str(paths[suffix])]) == 0
        steps = json.loads(paths["json"].read_text())
        lines = paths["txt"].read_text().splitlines()
        assert len(steps) == len(lines) > 1
        for step, line in zip(steps, lines):
            assert sorted(step) == ["depth", "m", "n", "params", "tag"]
            head = " ".join(str(x) for x in (step["depth"], step["tag"], step["params"]) if x != "")
            assert line == f"{head} |V|={step['n']} |E|={step['m']}"

    def test_greedy_bound_succeeds(self, tmp_path):
        gpath = write_graph(tmp_path, gen_incidence_pg(3))
        out = tmp_path / "col.json"
        assert main(["color", gpath, "--alg", "greedy", "--k", "25",
                     "--out", str(out)]) == 0
        assert main(["verify", gpath, str(out)]) == 0

    def test_greedy_too_few_colors_exits_one(self, tmp_path, capsys):
        code = main(["color", c5_file(tmp_path), "--alg", "greedy", "--k", "4",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "failed at edge" in capsys.readouterr().err

    def test_greedy_huge_palette(self, tmp_path, capsys):
        # the palette is never enumerated, so k far beyond memory still runs
        gpath = write_graph(tmp_path, gen_incidence_pg(3))
        small, huge = tmp_path / "small.json", tmp_path / "huge.json"
        assert main(["color", gpath, "--alg", "greedy", "--k", "25",
                     "--out", str(small)]) == 0
        assert main(["color", gpath, "--alg", "greedy", "--k", "100000000",
                     "--out", str(huge)]) == 0
        assert "(k=100000000)" in capsys.readouterr().out
        colors = json.loads(huge.read_text())["colors"]
        assert colors == json.loads(small.read_text())["colors"]

    def test_greedy_seed_is_deterministic(self, tmp_path):
        gpath = write_graph(tmp_path, gen_incidence_pg(3))
        outs = [tmp_path / f"{name}.json" for name in ("a", "b", "plain")]
        for out, seed in zip(outs, (["--seed", "5"], ["--seed", "5"], [])):
            assert main(["color", gpath, "--alg", "greedy", "--k", "25",
                         *seed, "--out", str(out)]) == 0
            assert main(["verify", gpath, str(out)]) == 0
        a, b, plain = (out.read_bytes() for out in outs)
        # the seed shuffles the order, and the same seed the same way
        assert a == b != plain

    def test_reduce21_rejects_degree_five(self, tmp_path):
        gpath = write_graph(tmp_path, gen_blowup_c5(3))  # 6-regular
        assert main(["color", gpath, "--alg", "reduce21",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_greedy_rejects_trace(self, tmp_path, capsys):
        # greedy makes no reduction trace, so --trace would write nothing
        trace = tmp_path / "t.txt"
        assert main(["color", c5_file(tmp_path), "--alg", "greedy", "--trace", str(trace),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == "error: --trace does not apply to --alg greedy\n"
        assert not trace.exists()

    @pytest.mark.parametrize("option", ["--k", "--seed"])
    def test_reduce21_rejects_greedy_options(self, tmp_path, capsys, option):
        # reduce21 always uses 21 colors in a fixed order
        out = tmp_path / "x.json"
        assert main(["color", c5_file(tmp_path), option, "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {option} does not apply to --alg reduce21\n")
        assert not out.exists()

    def test_greedy_negative_palette_exits_two(self, tmp_path, capsys):
        code = main(["color", c5_file(tmp_path), "--alg", "greedy", "--k", "-1",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_graph_exits_two(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("e 0 1\n")
        assert main(["color", str(p)]) == 2

    @pytest.mark.parametrize("text", BAD_GRAPH_JSON)
    def test_graph_json_shape_exits_two(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["color", str(p)]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("text", ["p 1_2 1\ne 0 1_0\n", "p 12 1\ne +0 \u0661\u0660\n"],
                             ids=["underscores", "sign-and-arabic-digits"])
    def test_noncanonical_edge_list_integer_exits_two(self, tmp_path, capsys, text):
        p = tmp_path / "bad.txt"
        p.write_text(text, encoding="utf-8")
        assert main(["color", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("text, message", [
        ("p 3 2\ne 0 1\n# gap\ne 0 5\n", "line 4: unknown endpoint in (0, 5)"),
        ("p 2 1\ne 1 1\n", "line 2: self-loop at vertex 1"),
        ("c big\np 400000000 0\n", "line 2: declared vertex count 400000000")],
        ids=["unknown-endpoint", "self-loop", "oversized-count"])
    def test_graph_error_names_its_line(self, tmp_path, capsys, text, message):
        # the graph's own checks fail on a parsed line, which the message names
        p = tmp_path / "bad.txt"
        p.write_text(text)
        assert main(["color", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err

    def test_oversized_vertex_count_exits_two(self, tmp_path, capsys):
        # rejected before the graph is allocated
        p = tmp_path / "huge.txt"
        p.write_text("p 400000000 0\n")
        assert main(["color", str(p)]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("budget, code", [(1, 4), (100_000, 3)])
    def test_exact_finish_error_is_one_line(self, tmp_path, capsys, monkeypatch,
                                            budget, code):
        # a 3-color palette forces a fallback on this 4-regular graph; a
        # one-node finish budget runs out (4), a larger one proves that more
        # than 3 colors are needed (3)
        import strongedge.reduction as red
        monkeypatch.setattr(red, "PALETTE", 3)
        monkeypatch.setattr(red, "EXACT_FINISH_BUDGET", budget)
        gpath = write_graph(tmp_path, circulant(11, (1, 2)))
        assert main(["color", gpath, "--out", str(tmp_path / "x.json")]) == code
        assert_one_line_error(capsys)

    def test_fallback_warns_and_exits_zero(self, tmp_path, capsys, monkeypatch):
        import strongedge.reduction as red

        def boom(self, g, col, targets, depth):
            raise red.FallbackTriggered("forced by test")

        monkeypatch.setattr(red._Solver, "_complete_targets", boom)
        gpath = write_graph(tmp_path, circulant(11, (1, 2)))
        out = tmp_path / "col.json"
        assert main(["color", gpath, "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: 1 fallback event(s); coloring is still valid\n")
        assert main(["verify", gpath, str(out)]) == 0
        # the warning comes only with success: a failure prints its one line
        assert main(["color", gpath, "--out", str(out),
                     "--trace", str(tmp_path / "missing" / "t.txt")]) == 2
        assert_one_line_error(capsys)

    def test_invalid_result_exits_three(self, tmp_path, capsys, monkeypatch):
        import strongedge.cli as cli
        monkeypatch.setattr(cli, "verify_strong_coloring", lambda g, c: (False, (0, 1)))
        assert main(["color", c5_file(tmp_path), "--out", str(tmp_path / "x.json")]) == 3
        assert capsys.readouterr().err == (
            "internal error: produced coloring is invalid ((0, 1))\n")

    def test_deterministic_output(self, tmp_path):
        gpath = write_graph(tmp_path, gen_incidence_pg(3))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["color", gpath, "--out", str(a)])
        main(["color", gpath, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestExact:
    def test_blowup_prints_twenty(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, gen_blowup_c5(2))
        assert main(["exact", gpath]) == 0
        assert capsys.readouterr().out.strip() == "20"

    def test_c5_prints_five(self, tmp_path, capsys):
        assert main(["exact", c5_file(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_k4_prints_six(self, tmp_path, capsys):
        p = tmp_path / "k4.txt"
        p.write_text("p 4 6\n" + "".join(
            f"e {i} {j}\n" for i in range(4) for j in range(i + 1, 4)))
        assert main(["exact", str(p)]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_budget_exhaustion_exits_four(self, tmp_path, capsys):
        assert main(["exact", c7_file(tmp_path), "--budget", "1"]) == 4
        assert "bounds" in capsys.readouterr().out

    def test_default_budget_exhaustion_exits_four(self, tmp_path, capsys, monkeypatch):
        # without --budget the search stops after cli.EXACT_NODES nodes
        import strongedge.cli as cli
        monkeypatch.setattr(cli, "EXACT_NODES", 1)
        assert main(["exact", c7_file(tmp_path)]) == 4
        assert capsys.readouterr().out == ("bounds: 3 <= strong chromatic index <= 4 "
                                           "(budget exhausted after 1 nodes)\n")

    def test_deep_search_prints_bounds(self, tmp_path, capsys):
        # 1,178 edges: the search runs deeper than Python's recursion limit
        gpath = write_graph(tmp_path, build_pocket(SHAPES["hub-deg2"])[0])
        assert main(["exact", gpath, "--budget", "1500"]) == 4
        assert capsys.readouterr().out == ("bounds: 7 <= strong chromatic index <= 12 "
                                           "(budget exhausted after 1500 nodes)\n")

    def test_negative_budget_exits_two(self, tmp_path, capsys):
        assert main(["exact", c5_file(tmp_path), "--budget", "-1"]) == 2
        assert_one_line_error(capsys)

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        assert main(["exact", str(tmp_path / "missing.txt")]) == 2
        assert_one_line_error(capsys)

    def test_witness_verifies(self, tmp_path):
        gpath = write_graph(tmp_path, gen_blowup_c5(2))
        out = tmp_path / "w.json"
        main(["exact", gpath, "--out", str(out)])
        assert main(["verify", gpath, str(out)]) == 0


class TestVerify:
    def test_tampered_color_exits_one(self, tmp_path, capsys):
        gpath = c5_file(tmp_path)
        out = tmp_path / "col.json"
        main(["color", gpath, "--alg", "greedy", "--k", "5", "--out", str(out)])
        data = json.loads(out.read_text())
        first = sorted(data["colors"])[0]
        other = sorted(data["colors"])[1]
        data["colors"][first] = data["colors"][other]
        out.write_text(json.dumps(data))
        assert main(["verify", gpath, str(out)]) == 1
        assert "see each other" in capsys.readouterr().err

    @pytest.mark.parametrize("colors, message", [
        ({}, "5 edge(s) uncolored, lowest 0"),
        ({"0": 1, "1": 2, "3": 3, "4": 4}, "1 edge(s) uncolored, lowest 2"),
    ], ids=["empty", "one-missing"])
    def test_incomplete_coloring_exits_one(self, tmp_path, capsys, colors, message):
        out = tmp_path / "col.json"
        out.write_text(json.dumps({"k": 21, "colors": colors}))
        assert main(["verify", c5_file(tmp_path), str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"incomplete: {message}\n"
        assert "valid" not in captured.out

    def test_unknown_edge_id_exits_two(self, tmp_path):
        gpath = c5_file(tmp_path)
        out = tmp_path / "col.json"
        out.write_text(json.dumps({"k": 5, "colors": {"99": 1}}))
        assert main(["verify", gpath, str(out)]) == 2

    def test_malformed_json_exits_two(self, tmp_path):
        gpath = c5_file(tmp_path)
        out = tmp_path / "col.json"
        out.write_text("{")
        assert main(["verify", gpath, str(out)]) == 2

    @pytest.mark.parametrize("text", BAD_GRAPH_JSON)
    def test_graph_json_shape_exits_two(self, tmp_path, capsys, text):
        gpath = tmp_path / "bad.json"
        gpath.write_text(text)
        out = tmp_path / "col.json"
        out.write_text(json.dumps({"k": 5, "colors": {"0": 1}}))
        assert main(["verify", str(gpath), str(out)]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("text", BAD_COLORING_JSON)
    def test_coloring_json_shape_exits_two(self, tmp_path, capsys, text):
        out = tmp_path / "col.json"
        out.write_text(text)
        assert main(["verify", c5_file(tmp_path), str(out)]) == 2
        assert_one_line_error(capsys)


    def test_missing_field_is_named(self, tmp_path, capsys):
        gpath, out = tmp_path / "g.json", tmp_path / "col.json"
        gpath.write_text('{"edges": []}')
        out.write_text('{"colors": {}}')
        assert main(["verify", c5_file(tmp_path), str(out)]) == 2
        assert capsys.readouterr().err == "error: coloring JSON is missing the field 'k'\n"
        assert main(["verify", str(gpath), str(out)]) == 2
        assert capsys.readouterr().err == "error: graph JSON is missing the field 'n'\n"

    def test_repeated_key_is_named(self, tmp_path, capsys):
        gpath, out = tmp_path / "g.json", tmp_path / "col.json"
        gpath.write_text('{"n": 2, "edges": [[0, 1]], "edges": [[0, 1], [0, 1]]}')
        out.write_text('{"k": 5, "colors": {"0": 1, "0": 2}}')
        assert main(["verify", c5_file(tmp_path), str(out)]) == 2
        assert capsys.readouterr().err == "error: coloring JSON repeats a key in one object\n"
        assert main(["verify", str(gpath), str(out)]) == 2
        assert capsys.readouterr().err == "error: graph JSON repeats a key in one object\n"


class TestGen:
    def test_blowup(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen", "blowup", "--t", "2", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "n=10 m=20" in err and "4-regular" in err
        lines = out.read_text().splitlines()
        assert lines[0] == "p 10 20" and len(lines) == 21

    def test_pg(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen", "pg", "--q", "3", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "n=26 m=52" in err and "girth=6" in err

    def test_regular(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen", "regular", "--d", "4", "--n", "20", "--seed", "1",
                     "--out", str(out)]) == 0
        assert "m=40" in capsys.readouterr().err

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen", "regular", "--d", "4", "--n", "16", "--seed", "9", "--out", str(a)])
        main(["gen", "regular", "--d", "4", "--n", "16", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_generator_params_exit_two(self, tmp_path, capsys):
        assert main(["gen", "regular", "--d", "3", "--n", "5",
                     "--out", str(tmp_path / "g.txt")]) == 2
        capsys.readouterr()
        assert main(["gen", "blowup", "--t", "0", "--out", str(tmp_path / "g.txt")]) == 2
        assert capsys.readouterr().err == "error: t must be at least 1\n"

    # one past MAX_VERTICES vertices, and 5*633*633 edges past 2*MAX_VERTICES
    @pytest.mark.parametrize("params", [["regular", "--d", "4", "--n", "1000001"],
                                        ["blowup", "--t", "633"]])
    def test_oversized_generator_exits_two(self, tmp_path, capsys, params):
        assert main(["gen", *params, "--out", str(tmp_path / "g.txt")]) == 2
        assert_one_line_error(capsys)


    def test_regular_degree_six_exits_two(self, tmp_path, capsys):
        # refused before any pairing is drawn, whatever n is
        assert main(["gen", "regular", "--d", "6", "--n", "50000",
                     "--out", str(tmp_path / "g.txt")]) == 2
        assert_one_line_error(capsys)


class TestHunt:
    def test_small_sweep_report(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(["hunt", "--alg", "reduce21", "--d", "4", "--n", "12",
                     "--seed", "0", "--count", "3", "--out", str(out)])
        assert code == 0
        report = out.read_text()
        assert "instances=3" in report
        assert "max colors" in report
        assert "fallbacks = 0" in report

    def test_hunt_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["hunt", "--d", "4", "--n", "12", "--seed", "3", "--count", "2"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_hunt_exact_mode(self, tmp_path):
        out = tmp_path / "r.txt"
        assert main(["hunt", "--alg", "exact", "--d", "3", "--n", "8",
                     "--seed", "0", "--count", "2", "--out", str(out)]) == 0
        assert "max exact" in out.read_text()

    @pytest.mark.parametrize("alg", ["exact", "both"])
    def test_exact_budget_exits_four(self, tmp_path, capsys, monkeypatch, alg):
        import strongedge.cli as cli
        monkeypatch.setattr(cli, "EXACT_NODES", 1)
        assert main(["hunt", "--alg", alg, "--d", "3", "--n", "10", "--seed", "0",
                     "--count", "2", "--out", str(tmp_path / "r.txt")]) == 4
        assert capsys.readouterr().err == (
            "error: exact search at seed 0 ran out of its 1-node budget\n")

    def test_exact_finish_budget_exits_four(self, tmp_path, capsys, monkeypatch):
        import strongedge.reduction as red
        monkeypatch.setattr(red, "PALETTE", 3)
        monkeypatch.setattr(red, "EXACT_FINISH_BUDGET", 1)
        assert main(["hunt", "--n", "11", "--seed", "0", "--count", "1",
                     "--out", str(tmp_path / "r.txt")]) == 4
        assert_one_line_error(capsys)

    def test_failed_verification_exits_three(self, tmp_path, capsys, monkeypatch):
        import strongedge.cli as cli
        monkeypatch.setattr(cli, "verify_strong_coloring", lambda g, c: (False, None))
        assert main(["hunt", "--n", "10", "--count", "2",
                     "--out", str(tmp_path / "r.txt")]) == 3
        assert capsys.readouterr().err == "verification failed at seed 0\n"

    def test_zero_count_exits_two(self, tmp_path, capsys):
        assert main(["hunt", "--count", "0", "--out", str(tmp_path / "r.txt")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_degree_five_exits_two(self, tmp_path, capsys):
        assert main(["hunt", "--d", "5", "--n", "12", "--count", "1",
                     "--out", str(tmp_path / "r.txt")]) == 2
        assert_one_line_error(capsys)

    def test_exact_degree_six_exits_two(self, tmp_path, capsys):
        assert main(["hunt", "--alg", "exact", "--d", "6", "--n", "50000",
                     "--count", "1", "--out", str(tmp_path / "r.txt")]) == 2
        assert_one_line_error(capsys)

    def test_negative_n_exits_two(self, tmp_path, capsys):
        assert main(["hunt", "--n", "-4", "--count", "1",
                     "--out", str(tmp_path / "r.txt")]) == 2
        assert_one_line_error(capsys)

    def test_oversized_n_exits_two(self, tmp_path, capsys):
        assert main(["hunt", "--n", "1000002", "--count", "1",
                     "--out", str(tmp_path / "r.txt")]) == 2
        assert_one_line_error(capsys)


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

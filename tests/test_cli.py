import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gkcover import (
    CycleError,
    Dag,
    ParseError,
    build_dag,
    certify_antichain,
    cli,
    gen_gc,
    greedy,
    networks,
    oracle,
    run_verification_sweep,
)
from gkcover.cli import GREEDY_KINDS, SOLVE_PROBLEMS, format_dag, main, parse_dag

import dag_reference
from conftest import FIG_EDGES, dropping_last_vertex

FIG_TEXT = "9\n" + "\n".join(f"{u} {v}" for u, v in FIG_EDGES) + "\n"


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.txt"
    path.write_text(FIG_TEXT)
    return str(path)


class TestParseDag:
    def test_numeric_tokens(self):
        dag, names = parse_dag("3\n0 1\n1 2\n")
        assert dag.n == 3 and dag.edges == ((0, 1), (1, 2))
        assert names == ["0", "1", "2"]

    def test_arbitrary_names_get_dense_ids(self):
        dag, names = parse_dag("3\nalice bob\nbob carol\n")
        assert dag.edges == ((0, 1), (1, 2))
        assert names == ["alice", "bob", "carol"]

    def test_comments_and_blank_lines(self):
        dag, _ = parse_dag("# header\n\n2\n# edge next\n0 1  # inline\n")
        assert dag.n == 2 and dag.edges == ((0, 1),)

    def test_isolated_vertices_survive(self):
        dag, names = parse_dag("5\n0 1\n")
        assert dag.n == 5
        assert names[4] == "4"

    def test_default_name_collision_is_rejected(self, tmp_path, capsys):
        # Token "2" takes id 0, so isolated id 2 would also be named "2"
        # and the antichain {x, 2} would be printed over the edge 2 -> x.
        with pytest.raises(ParseError) as exc:
            parse_dag("3\n2 x\n")
        assert exc.value.line == 2
        path = tmp_path / "collide.txt"
        path.write_text("3\n2 x\n")
        assert main(["solve", "ma-k", "--k", "1", str(path)]) == 1
        assert "isolated vertex 2" in capsys.readouterr().err

    def test_id_named_file_keeps_isolated_ids(self):
        # every token is an id, so the isolated vertex is the unused id 0
        dag, names = parse_dag("3\n2 1\n")
        assert dag.edges == ((0, 1),) and names == ["2", "1", "0"]

    def test_missing_count(self):
        with pytest.raises(ParseError):
            parse_dag("# nothing\n")

    def test_bad_count_line(self):
        with pytest.raises(ParseError) as exc:
            parse_dag("x\n")
        assert exc.value.line == 1

    def test_bad_edge_line(self):
        with pytest.raises(ParseError) as exc:
            parse_dag("2\n0 1 2\n")
        assert exc.value.line == 2

    def test_too_many_names(self):
        # the second file names exactly one vertex too many
        for text in ("2\na b\nb c\nc d\n", "2\na b\nc a\n"):
            with pytest.raises(ParseError, match="more than 2 distinct vertex names") as exc:
                parse_dag(text)
            assert exc.value.line == 3

    def test_negative_count(self):
        with pytest.raises(ParseError):
            parse_dag("-1\n")

    def test_roundtrip(self, fig):
        # ids are assigned by first appearance, so the roundtrip preserves
        # the labeled graph, not the internal numbering
        dag, names = parse_dag(format_dag(fig))
        relabeled = {(int(names[u]), int(names[v])) for u, v in dag.edges}
        assert dag.n == fig.n and relabeled == set(fig.edges)


# Every line boundary of str.splitlines(), including those that
# str.split("\n") does not honour.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
# \x1f and \xa0 are whitespace to str.split() but no line boundary.
GAPS = [" ", "\t", "  ", " \t ", "\x1f", "\xa0"]
NAMES = ["0", "1", "2", "3", "4", "5", "7", "11", "03", "\u0663", "a", "b", "x", "x1", "a#b"]
COUNTS = ["0", "1", "2", "3", "4", "5", "6", "8", "12", "-1", "x", "2.5", "+3", "\u0663", "1_0"]


def outcome(parse, text):
    """(n, edges, names) of a parse, or the type, message and line of its error."""
    try:
        dag, names = parse(text)
    except (ParseError, CycleError, IndexError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return dag.n, dag.edges, names


@st.composite
def dag_texts(draw):
    """Dag files with comments, blank and whitespace-only lines, every
    line boundary, and lines of the wrong length, on few enough names
    that ids, isolated-name collisions and too many names all occur."""
    def line(toks):
        out = draw(st.sampled_from(["", " ", "\t"]))
        for i, tok in enumerate(toks):
            out += (draw(st.sampled_from(GAPS)) if i else "") + tok
        if draw(st.integers(0, 4)) == 0:
            out += draw(st.sampled_from(["#", " # note", "#a b c", "\t#1 2"]))
        return out + draw(st.sampled_from(["", " ", "\t"]))

    names = st.sampled_from(NAMES)
    lines = [draw(st.sampled_from(["", "  ", "\t", "# header", " # 3"]))
             for _ in range(draw(st.integers(0, 2)))]
    if draw(st.integers(0, 9)):
        count = [draw(st.sampled_from(COUNTS))]
        if draw(st.integers(0, 9)) == 0:
            count.append(draw(names))
        lines.append(line(count))
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind < 7:
            toks = [draw(names), draw(names)]
        elif kind < 9:
            toks = draw(st.lists(names, max_size=4))
        else:
            toks = []
        lines.append(line(toks))
    text = "".join(ln + draw(st.sampled_from(LINE_BREAKS)) for ln in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("".join(LINE_BREAKS))
    return text


class TestParseDagMatchesReference:
    """The bulk parse gives the line-by-line parse's result or error."""

    @settings(max_examples=400, deadline=None)
    @given(dag_texts())
    def test_structured_texts(self, text):
        assert outcome(parse_dag, text) == outcome(dag_reference.parse_dag, text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123ab #-\t\n\r\x0b\x1e\x85\u2028", max_size=40))
    def test_arbitrary_texts(self, text):
        assert outcome(parse_dag, text) == outcome(dag_reference.parse_dag, text)

    @pytest.mark.parametrize("br", LINE_BREAKS)
    def test_every_line_boundary_splits_lines(self, br):
        text = f"# c{br}3{br}a b  # x{br}{br}b\tc{br}"
        assert outcome(parse_dag, text) == outcome(dag_reference.parse_dag, text)
        dag, names = parse_dag(text)
        assert dag.edges == ((0, 1), (1, 2)) and names == ["a", "b", "c"]

    @pytest.mark.parametrize("text, line", [
        ("3\n2 x\n", 2),               # isolated vertex 2 collides with token 2
        ("7\na 5\n\nb 4\n", 4),         # isolated 4 is the first to collide, on line 4
        ("2\na b\nb c\n", 3),          # too many names
        ("2\na b c\n", 2),             # three tokens
        ("2\n0 1\n1\n", 3),            # one token
        ("x\n0 1\n", 1),               # non-integer count
        ("-2\n", 1),                   # negative count
        ("1 2\n", 1),                  # two tokens on the count line
        ("# only a comment\n \t\n", 1),  # no count at all
    ])
    def test_errors_name_the_reference_line(self, text, line):
        got = outcome(parse_dag, text)
        assert got == outcome(dag_reference.parse_dag, text)
        assert got[0] is ParseError and got[2] == line

    def test_graph_errors_pass_through(self):
        for text in ("2\n0 0\n", "2\n0 1\n1 0\n"):
            got = outcome(parse_dag, text)
            assert got[0] is CycleError and got == outcome(dag_reference.parse_dag, text)


class TestSolveCommand:
    def test_value_and_exit_code(self, fig_file, capsys):
        assert main(["solve", "ma-k", "--k", "2", fig_file]) == 0
        out = capsys.readouterr().out
        assert "value: 8" in out and "certificate: verified" in out

    def test_json_output_is_stable_and_timing_free(self, fig_file, capsys):
        assert main(["solve", "ma-k", "--k", "2", "--json", fig_file]) == 0
        first = capsys.readouterr().out
        assert main(["solve", "ma-k", "--k", "2", "--json", fig_file]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["value"] == 8
        assert "timings_ms" not in doc
        assert doc["certificate"] == "verified"

    @pytest.mark.parametrize("problem,value", [
        ("ma-k", 8), ("mps-k", 8), ("mcp-k", 8),
        ("mc-k", 5), ("mp-k", 5), ("mas-k", 5), ("map-k", 5),
    ])
    def test_all_problems(self, fig_file, capsys, problem, value):
        assert main(["solve", problem, "--k", "2", "--json", fig_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == value and doc["problem"].lower() == problem

    def test_named_vertices_in_output(self, tmp_path, capsys):
        path = tmp_path / "named.txt"
        path.write_text("3\nroot mid\nmid leaf\n")
        assert main(["solve", "mc-k", "--k", "1", "--json", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["families"]["MC-k"] == [["root", "mid", "leaf"]]

    def test_missing_file_is_input_error(self, capsys):
        assert main(["solve", "ma-k", "--k", "2", "/nonexistent/x.txt"]) == 1

    def test_bad_problem_rejected_by_argparse(self, fig_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "nope", "--k", "2", fig_file])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv,message", [
        (["solve", "ma-k", "--k", "x"], "argument --k: invalid int value: 'x'"),
        (["solve", "ma-k"], "the following arguments are required: --k"),
        (["--bogus"], "the following arguments are required: command"),
        (["solve", "ma-k", "--k", "1", "--warm"], "unrecognized arguments: --warm"),
        (["verify", "--workers", "2"], "unrecognized arguments: --workers 2"),
    ])
    def test_usage_error_is_input_error(self, fig_file, capsys, argv, message):
        if argv[0] == "solve":
            argv = argv + [fig_file]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: gkcover")
        assert captured.err.endswith(f": error: {message}\n")

    def test_cyclic_input_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "cyc.txt"
        path.write_text("2\n0 1\n1 0\n")
        assert main(["solve", "ma-k", "--k", "1", str(path)]) == 1

    def test_cycle_is_named_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "cyc.txt"
        path.write_text("3\na b\nb c\nc a\n")
        assert main(["solve", "ma-k", "--k", "1", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: edge list contains a cycle: [0, 1, 2, 0]\n"

    def test_invalid_k_is_input_error(self, fig_file, capsys):
        assert main(["solve", "ma-k", "--k", "0", fig_file]) == 1

    def test_internal_certification_error_exits_2(self, fig_file, capsys, monkeypatch):
        # A solve whose antichain holds the edge 0 -> 4 (dense ids 0 and 1)
        # fails the library's certification with NotAntichainError, which
        # is no input error.
        def comparable_pair(dag, k):
            certify_antichain(dag, [0, 1])

        monkeypatch.setattr(networks, "solve_alpha", comparable_pair)
        assert main(["solve", "ma-k", "--k", "2", fig_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "mismatch: vertices 0 and 1 are comparable\n"


class TestParserReuse:
    def test_one_parser_per_process_keeps_every_byte(self, fig_file, capsys, monkeypatch):
        real = cli.build_parser
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        cases = [["solve", "nope", "--k", "2", fig_file], ["solve", "--help"], ["--help"],
                 ["greedy", "chains", fig_file], []]

        def outcome(parse, argv):
            try:
                code = parse(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        try:
            want = [outcome(real().parse_args, argv) for argv in cases]
            assert [code for code, *_ in want] == [("exit", 1), ("exit", 0), ("exit", 0),
                                                   ("exit", 1), ("exit", 1)]
            for _ in range(2):
                assert [outcome(main, argv) for argv in cases] == want
                assert main(["solve", "ma-k", "--k", "2", fig_file]) == 0
                capsys.readouterr()
            assert built == [1]
        finally:
            cli._parser.cache_clear()


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Whether the cyclic collector is on when main is called; the test
    leaves it as it found it."""
    was = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was else gc.disable()


class TestCollectorPause:
    """main runs the command with the cyclic collector paused and leaves
    the collector as it found it, on every way out."""

    @pytest.mark.parametrize("argv,code", [
        (["solve", "ma-k", "--k", "2", "FIG"], 0),
        (["solve", "ma-k", "--k", "2", "/nonexistent/x.txt"], 1),
        (["solve", "ma-k", "--k", "0", "FIG"], 1),
        (["gen", "antichain-ratio", "--k", "2", "--check"], 2),
    ], ids=["exit-0", "missing-file", "k-0", "mismatch"])
    def test_exit_codes(self, collector, fig_file, capsys, argv, code):
        assert main([fig_file if a == "FIG" else a for a in argv]) == code
        assert gc.isenabled() is collector

    def test_usage_error(self, collector, fig_file, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "nope", "--k", "2", fig_file])
        assert gc.isenabled() is collector

    def test_uncaught_exception(self, collector, fig_file, monkeypatch):
        def broken(dag, k):
            raise RuntimeError("not a gkcover error")

        monkeypatch.setattr(greedy, "greedy_k_chains", broken)
        with pytest.raises(RuntimeError, match="not a gkcover error"):
            main(["greedy", "chains", "--k", "2", fig_file])
        assert gc.isenabled() is collector

    def test_the_command_runs_with_the_collector_off(self, collector, fig_file, capsys,
                                                     monkeypatch):
        real = greedy.greedy_k_chains
        seen = []
        monkeypatch.setattr(greedy, "greedy_k_chains",
                            lambda dag, k: seen.append(gc.isenabled()) or real(dag, k))
        assert main(["greedy", "chains", "--k", "2", fig_file]) == 0
        assert seen == [False] and gc.isenabled() is collector


def _dense_dag(n: int):
    """Edges from each vertex to the next three ids, but those whose ends sum
    to a multiple of 3."""
    return build_dag(n, [(u, v) for u in range(n) for v in range(u + 1, min(n, u + 4))
                         if (u + v) % 3])


class TestCommandsLeaveNoGrowingCycles:
    """With the collector held off, a small and a large run of each
    command leave the same number of objects in reference cycles: none,
    but for the constant closures of json.dumps's indenting encoder."""

    @pytest.mark.parametrize("family", ["greedy-antichains", "greedy-chains", "gen-check",
                                        "solve-alpha", "solve-beta", "oracle-alpha",
                                        "oracle-beta", "oracle-chain-partition",
                                        "oracle-antichain-partition", "verify"])
    def test_small_and_large_runs(self, tmp_path, capsys, family):
        def file(name, dag):
            path = tmp_path / name
            path.write_text(format_dag(dag))
            return str(path)

        command, _, kind = family.partition("-")
        if command == "greedy":
            small, large = (["greedy", kind, "--k", "2", file(f"gc{i}", gen_gc(i).dag)]
                            for i in (6, 9))
        elif command == "gen":
            small, large = (["gen", "gc", "--i", i, "--check"] for i in ("4", "7"))
        elif command == "solve":
            problem = "ma-k" if kind == "alpha" else "mc-k"
            small, large = (["solve", problem, "--k", "2", file(f"d{n}", _dense_dag(n))]
                            for n in (8, 40))
        elif command == "oracle":
            small, large = (["oracle", kind, "--k", "2", file(f"d{n}", _dense_dag(n))]
                            for n in (6, 9))
        else:
            small, large = (["verify", "--trials", t] for t in ("5", "40"))
        for argv in (small, large):
            assert main(argv) == 0
        capsys.readouterr()
        gc.collect()
        was = gc.isenabled()
        gc.disable()
        try:
            for as_json in ([], ["--json"]):
                counts = []
                for argv in (small, large):
                    assert main(argv + as_json) == 0
                    counts.append(gc.collect())
                capsys.readouterr()
                assert counts[0] == counts[1], (as_json, counts)
                if not as_json:
                    assert counts == [0, 0]
        finally:
            if was:
                gc.enable()


class TestGreedyCommand:
    def test_chains(self, fig_file, capsys):
        assert main(["greedy", "chains", "--k", "2", "--json", fig_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 5 and doc["gains"] == [3, 2]

    def test_antichains(self, fig_file, capsys):
        assert main(["greedy", "antichains", "--k", "2", "--json", fig_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 7 and doc["gains"] == [5, 2]
        assert doc["iterations"]["rounds"] == 2

    def test_chain_cover(self, fig_file, capsys):
        assert main(["greedy", "chain-cover", "--k", "2", "--json", fig_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 8  # collection 2-norm of the chosen paths
        assert set(doc["families"]) == {"paths", "partition"}

    def test_antichain_cover(self, fig_file, capsys):
        assert main(["greedy", "antichain-cover", "--k", "1", "--json", fig_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 3  # emitted partition members

    def test_chains_past_u_empty_keep_their_bytes(self, tmp_path, capsys):
        # six rounds cover gc 6; the other 44 each record the empty round
        path = tmp_path / "gc6.txt"
        path.write_text(format_dag(gen_gc(6).dag))
        assert main(["greedy", "chains", "--k", "50", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["gains"] == [63, 31, 15, 7, 3, 1] + [0] * 44
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "350eb9f8d8c75534b6e867c81e94f81e950859a9c0bffa7f60c3cc32b474110d")

    @pytest.mark.parametrize("argv", [
        *(["greedy", kind, "--k", "3"] for kind in GREEDY_KINDS),
        *(["solve", problem, "--k", "2"] for problem in SOLVE_PROBLEMS),
        ["gen", "gc", "--i", "8", "--check"]])
    def test_requests_on_gc_build_no_closure(self, tmp_path, monkeypatch, capsys, argv):
        # certification sweeps the graph and never reads the closure
        if argv[0] != "gen":
            path = tmp_path / "gc8.txt"
            path.write_text(format_dag(gen_gc(8).dag))
            argv = argv + [str(path)]
        built = []
        closure = Dag.closure
        monkeypatch.setattr(Dag, "closure", lambda dag: built.append(dag) or closure(dag))
        assert main(argv) == 0
        assert built == []

    @pytest.mark.parametrize("kind", ["chains", "antichains", "chain-cover", "antichain-cover"])
    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_non_positive_k_is_input_error(self, fig_file, capsys, kind, k):
        assert main(["solve", "mc-k", "--k", k, fig_file]) == 1
        solve_err = capsys.readouterr().err
        assert main(["greedy", kind, "--k", k, fig_file]) == 1
        captured = capsys.readouterr()
        assert captured.err == solve_err == f"error: k must be positive, got {k}\n"
        assert captured.out == ""


class TestModuleEntryPoint:
    """``python -m gkcover`` runs cli.main, with its exit codes."""

    @staticmethod
    def run(*argv):
        env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
        return subprocess.run([sys.executable, "-m", "gkcover", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_solve_prints_the_bytes_of_main(self, fig_file, capsys):
        argv = ["solve", "ma-k", "--k", "2", "--json", fig_file]
        proc = self.run(*argv)
        assert main(argv) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")

    def test_unknown_subcommand_is_input_error(self):
        proc = self.run("nope")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "invalid choice: 'nope'" in proc.stderr

    def test_non_positive_k_is_input_error(self, fig_file):
        proc = self.run("solve", "ma-k", "--k", "0", fig_file)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: k must be positive, got 0\n"


class TestGenCommand:
    def test_writes_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert main(["gen", "gc", "--i", "3", "-o", str(out)]) == 0
        dag, _ = parse_dag(out.read_text())
        assert dag.n == 11

    def test_stdout_form_is_the_graph(self, capsys):
        assert main(["gen", "chain-ratio", "--k", "2"]) == 0
        text = capsys.readouterr().out
        dag, _ = parse_dag(text)
        assert dag.n == 16

    def test_check_passes_on_chain_family(self, capsys):
        assert main(["gen", "chain-ratio", "--k", "4", "--check", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"] == "verified"
        assert doc["actual"]["greedy"] == 24

    def test_check_passes_on_gc(self, capsys):
        assert main(["gen", "gc", "--i", "4", "--check", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["actual"] == {"optimal": 2, "greedy": 4, "greedy_members": 4}

    def test_readme_self_check_example(self, capsys):
        assert main(["gen", "gc", "--i", "6", "--check", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["actual"] == {"optimal": 2, "greedy": 6, "greedy_members": 6}
        assert doc["certificate"] == "verified"

    def test_check_fails_honestly_on_antichain_family(self, capsys):
        # the recorded worst-case greedy trace is not what the solver
        # produces on these instances; --check reports the mismatch
        assert main(["gen", "antichain-ratio", "--k", "2", "--check"]) == 2
        assert main(["gen", "ga", "--i", "2", "--check"]) == 2

    def test_missing_parameter(self, capsys):
        assert main(["gen", "gc"]) == 1
        assert main(["gen", "chain-ratio"]) == 1

    def test_bad_parameter(self, capsys):
        assert main(["gen", "gc", "--i", "0"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["chain-ratio", "--k", "2", "--i", "9"], "gen chain-ratio takes --k, not --i"),
        (["antichain-ratio", "--k", "2", "--i", "9"], "gen antichain-ratio takes --k, not --i"),
        (["gc", "--i", "3", "--k", "5", "--json"], "gen gc takes --i, not --k"),
        (["ga", "--i", "2", "--k", "5"], "gen ga takes --i, not --k"),
    ], ids=["chain-ratio", "antichain-ratio", "gc", "ga"])
    def test_parameter_of_the_other_families(self, capsys, argv, message):
        assert main(["gen", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestOracleCommand:
    def test_alpha_matches_solver(self, fig_file, capsys):
        assert main(["oracle", "alpha", "--k", "2", "--json", fig_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 8

    def test_partition_problems(self, fig_file, capsys):
        assert main(["oracle", "chain-partition", "--k", "2", "--json", fig_file]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 8
        assert main(["oracle", "antichain-partition", "--k", "1", "--json", fig_file]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 3

    def test_budget_env_override(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "big.txt"
        path.write_text(format_dag(build_dag(11, [(0, 1)])))
        assert main(["oracle", "beta", "--k", "1", str(path)]) == 1
        monkeypatch.setenv("GKCOVER_BUDGET_N", "11")
        assert main(["oracle", "beta", "--k", "1", str(path)]) == 0

    @pytest.mark.parametrize("raw", ["abc", "-1"])
    @pytest.mark.parametrize("command", ["oracle", "verify"])
    def test_invalid_budget_env_is_input_error(self, fig_file, capsys, monkeypatch,
                                               raw, command):
        monkeypatch.setenv("GKCOVER_BUDGET_N", raw)
        argv = (["oracle", "beta", "--k", "1", fig_file] if command == "oracle"
                else ["verify", "--n", "4", "--trials", "2"])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: GKCOVER_BUDGET_N must be a non-negative integer, "
                                f"got {raw!r}\n")

    @pytest.mark.parametrize("problem", ["alpha", "beta", "chain-partition",
                                         "antichain-partition"])
    def test_family_short_of_its_value_exits_2(self, fig_file, capsys, monkeypatch, problem):
        monkeypatch.setattr(oracle, "certify_antichain",
                            dropping_last_vertex(oracle.certify_antichain))
        monkeypatch.setattr(oracle, "certify_chain", dropping_last_vertex(oracle.certify_chain))
        assert main(["oracle", problem, "--k", "2", "--json", fig_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mismatch: the ")

    @pytest.mark.parametrize("problem", ["alpha", "beta", "chain-partition",
                                         "antichain-partition"])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_non_positive_k_is_input_error(self, fig_file, capsys, problem, k):
        assert main(["oracle", problem, "--k", k, fig_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: k must be positive, got {k}\n"


class TestVerifyCommand:
    def test_small_sweep(self, capsys):
        assert main(["verify", "--n", "6", "--trials", "10", "--seed", "2",
                     "--kmax", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"] == 20 and doc["mismatches"] == []

    @pytest.mark.parametrize("n,trials,kmax,message", [
        (8, 50, 0, "k_max must be at least 1, got 0"),
        (8, 0, 3, "trials must be at least 1, got 0"),
        (-1, -2, 3, "n_max must be at least 1, got -1"),
    ])
    def test_sweep_that_checks_nothing_is_input_error(self, capsys, n, trials, kmax, message):
        with pytest.raises(ValueError, match=message):
            run_verification_sweep(n, trials, 0, kmax)
        assert main(["verify", "--n", str(n), "--trials", str(trials),
                     "--kmax", str(kmax), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

"""The command-line surface: JSON to stdout, summaries to stderr,
exit codes 0 (positive) / 1 (negative) / 2 (budget) / 64 (usage) /
70 (internal fault)."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import wordrep.cli
import wordrep.coloring
import wordrep.solver
import wordrep.subiso
from wordrep.cli import run
from wordrep.debruijn import build_simplified
from wordrep.graphs import (
    LabeledGraph,
    build_graph,
    build_wheel,
    graph_from_json,
    graph_to_json,
)
from wordrep.orientations import Orientation, is_semitransitive


def cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_json(capsys, *argv):
    code, out, err = cli(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture
def w5_file(tmp_path):
    path = tmp_path / "w5.json"
    path.write_text(json.dumps(graph_to_json(build_wheel(5))))
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(graph_to_json(g)))
    return str(path)


@pytest.fixture
def s23_file(tmp_path):
    path = tmp_path / "s23.json"
    path.write_text(json.dumps(graph_to_json(build_simplified(2, 3).graph)))
    return str(path)


@pytest.fixture
def w5_path_file(tmp_path):
    # W5 with a 10-edge path hanging off its hub (id 5): 16 vertices, 20 edges
    w5 = build_wheel(5)
    labels = [*w5.labels, *(f"p{i}" for i in range(1, 11))]
    g = LabeledGraph(labels, [*w5.edges, *((i, i + 1) for i in range(5, 15))])
    path = tmp_path / "w5_path.json"
    path.write_text(json.dumps(graph_to_json(g)))
    return str(path)


# ---------------------------------------------------------------------------
# graph builders


def test_debruijn_simplified_json_round_trips(capsys):
    code, obj, err = cli_json(
        capsys, "debruijn", "--n", "2", "--k", "3", "--simplified"
    )
    assert code == 0
    assert graph_from_json(obj) == build_simplified(2, 3).graph
    assert "9 vertices, 21 edges" in err


def test_debruijn_digraph_json(capsys):
    code, obj, _ = cli_json(capsys, "debruijn", "--n", "2", "--k", "2")
    assert code == 0
    assert obj["n"] == 2 and obj["k"] == 2
    assert len(obj["vertices"]) == 4
    assert len(obj["arcs"]) == 8
    assert ["00", "00"] in obj["arcs"]


def test_debruijn_dot_outputs(capsys):
    code, out, _ = cli(
        capsys, "debruijn", "--n", "2", "--k", "2", "--format", "dot"
    )
    assert code == 0 and out.startswith("digraph") and "->" in out
    code, out, _ = cli(
        capsys, "debruijn", "--n", "2", "--k", "2", "--simplified",
        "--format", "dot",
    )
    assert code == 0 and out.startswith("graph") and "label=" in out


def test_debruijn_size_limit_is_a_usage_error(capsys):
    code, _, err = cli(
        capsys, "debruijn", "--n", "9", "--k", "3", "--size-limit", "100"
    )
    assert code == 64 and "error:" in err


def test_color3_verifies_the_coloring(capsys):
    code, obj, err = cli_json(capsys, "color3", "--n", "4")
    assert code == 0
    assert obj["proper"] is True
    assert obj["vertices"] == 16
    assert set(obj["coloring"].values()) <= {"Red", "Blue", "Green"}
    assert "proper" in err


def test_color3_exits_1_on_an_improper_coloring(capsys, monkeypatch):
    # color_s_n_2 returns its coloring unchecked: color3 checks it
    monkeypatch.setattr(wordrep.coloring, "classify_binary_vertex", lambda label: 0)
    code, obj, err = cli_json(capsys, "color3", "--n", "4")
    assert code == 1 and obj["proper"] is False
    assert "IMPROPER" in err


def test_chromatic_number_of_w5(capsys, w5_file):
    code, obj, _ = cli_json(capsys, "chromatic", "--graph", w5_file, "--max", "4")
    assert code == 0 and obj["chromatic_number"] == 4
    code, obj, _ = cli_json(capsys, "chromatic", "--graph", w5_file, "--max", "3")
    assert code == 1 and obj["chromatic_number"] is None


# ---------------------------------------------------------------------------
# the solver pipeline


def test_check_positive_emits_a_valid_orientation(capsys, p4_file):
    code, obj, _ = cli_json(capsys, "check", "--graph", p4_file)
    assert code == 0 and obj["verdict"] == "semi-transitive"
    g = graph_from_json(json.loads(open(p4_file).read()))
    arcs = tuple((g.index[t], g.index[h]) for t, h in obj["orientation"])
    assert is_semitransitive(Orientation(g, arcs))


def test_check_negative_writes_a_verifiable_trace(capsys, tmp_path, w5_file):
    trace_file = str(tmp_path / "w5_trace.txt")
    code, obj, _ = cli_json(
        capsys, "check", "--graph", w5_file, "--trace", trace_file
    )
    assert code == 1
    assert obj["verdict"] == "not-semi-transitive"
    assert obj["trace_file"] == trace_file

    code, verdict, _ = cli_json(
        capsys, "verify-trace", "--graph", w5_file, "--trace", trace_file,
        "--wlog", obj["wlog"], "--source", obj["source"],
    )
    assert code == 0 and verdict["accepted"] is True

    # without the preamble the same text must be rejected, with reasons
    code, verdict, _ = cli_json(
        capsys, "verify-trace", "--graph", w5_file, "--trace", trace_file
    )
    assert code == 1 and verdict["accepted"] is False
    assert verdict["failures"] and "line" in verdict["failures"][0]


def test_extract_graph_recovers_the_input(capsys, tmp_path, w5_file):
    trace_file = str(tmp_path / "t.txt")
    cli(capsys, "check", "--graph", w5_file, "--trace", trace_file)
    out_file = str(tmp_path / "ex.json")
    code, _, err = cli(
        capsys, "extract-graph", "--trace", trace_file, "-o", out_file
    )
    assert code == 0 and "6 vertices, 10 edges" in err
    assert graph_from_json(json.loads(open(out_file).read())) == build_wheel(5)


def test_check_with_explicit_source(capsys, w5_file):
    code, obj, _ = cli_json(
        capsys, "check", "--graph", w5_file, "--source", "c2"
    )
    assert code == 1 and obj["source"] == "c2"


def test_check_calls_the_solve_bound_on_the_cli_module(capsys, w5_file, monkeypatch):
    # the benchmark's probe times a command by replacing the library names
    # the command calls on ``cli``; the command must call the replacement
    graphs = []
    real = wordrep.cli.solve

    def wrapped(g, cfg):
        graphs.append(g.n)
        return real(g, cfg)

    monkeypatch.setattr(wordrep.cli, "solve", wrapped)
    code, _, _ = cli(capsys, "check", "--graph", w5_file)
    assert code == 1 and graphs == [6]
    assert not hasattr(wordrep.cli, "no_such_name")


def test_oracle_verdicts_and_exit_codes(
    capsys, w5_file, p4_file, s23_file, w5_path_file
):
    code, obj, _ = cli_json(capsys, "oracle", "--graph", w5_file)
    assert code == 1 and obj["verdict"] == "notexists"
    assert obj["certificate"] is None
    assert obj["examined"] == 2**10

    # the pendant path multiplies the orientations by 2^10, and the oracle
    # decides every one of them
    code, obj, _ = cli_json(capsys, "oracle", "--graph", w5_path_file)
    assert code == 1 and obj["verdict"] == "notexists"
    assert obj["examined"] == 2**20

    code, obj, _ = cli_json(capsys, "oracle", "--graph", p4_file)
    assert code == 0 and obj["verdict"] == "exists"
    g = graph_from_json(json.loads(open(p4_file).read()))
    arcs = tuple((g.index[t], g.index[h]) for t, h in obj["certificate"])
    assert is_semitransitive(Orientation(g, arcs))

    code, obj, _ = cli_json(
        capsys, "oracle", "--graph", s23_file, "--budget", "1000"
    )
    assert code == 2 and obj["verdict"] == "budget"


def test_budget_env_var_and_flag_precedence(capsys, w5_file, monkeypatch):
    monkeypatch.setenv("WORDREP_BUDGET", "1")
    code, obj, _ = cli_json(capsys, "check", "--graph", w5_file)
    assert code == 2 and obj["verdict"] == "budget-exceeded"
    code, obj, _ = cli_json(
        capsys, "check", "--graph", w5_file, "--budget", "1e6"
    )
    assert code == 1 and obj["verdict"] == "not-semi-transitive"
    monkeypatch.setenv("WORDREP_BUDGET", "zero")
    code, _, err = cli(capsys, "check", "--graph", w5_file)
    assert code == 64 and "not a number" in err


# ---------------------------------------------------------------------------
# embeddings and words


def test_findsub_found_and_not_found(capsys, w5_file, s23_file, p4_file):
    code, obj, _ = cli_json(
        capsys, "findsub", "--pattern", w5_file, "--host", s23_file,
        "--anchor", "h=01",
    )
    assert code == 0 and obj["found"] is True
    assert obj["mapping"]["h"] == "01"
    assert len(set(obj["mapping"].values())) == 6

    code, obj, _ = cli_json(
        capsys, "findsub", "--pattern", w5_file, "--host", p4_file
    )
    assert code == 1 and obj == {"found": False}


def test_findsub_exits_70_on_an_embedding_that_is_not_induced(
    capsys, w5_file, s23_file, monkeypatch
):
    # a found embedding is re-checked under -O too: it has no other proof
    monkeypatch.setattr(wordrep.subiso.Embedding, "is_induced", lambda self: False)
    code, out, err = cli(capsys, "findsub", "--pattern", w5_file, "--host", s23_file)
    assert code == 70 and out == ""
    assert err.startswith("error: internal: RuntimeError(") and err.count("\n") == 1


def test_findsub_anchor_errors(capsys, w5_file, s23_file):
    code, _, err = cli(
        capsys, "findsub", "--pattern", w5_file, "--host", s23_file,
        "--anchor", "h01",
    )
    assert code == 64 and "PATTERN=HOST" in err
    code, _, err = cli(
        capsys, "findsub", "--pattern", w5_file, "--host", s23_file,
        "--anchor", "zz=01",
    )
    assert code == 64 and "not a pattern vertex" in err


def test_represent_check(capsys, p4_file):
    code, obj, _ = cli_json(
        capsys, "represent-check", "--graph", p4_file,
        "--word", "a b a c b d c d",
    )
    assert code == 0 and obj["represents"] is True
    code, obj, _ = cli_json(
        capsys, "represent-check", "--graph", p4_file, "--word", "b a c b d c"
    )
    assert code == 1 and obj["represents"] is False
    code, _, err = cli(
        capsys, "represent-check", "--graph", p4_file, "--word", "a q"
    )
    assert code == 64 and "not a vertex" in err


def test_word_search(capsys, p4_file, w5_file):
    code, obj, _ = cli_json(capsys, "word-search", "--graph", p4_file)
    assert code == 0
    assert obj["found"] is True and obj["k"] == 2
    assert sorted(set(obj["word"])) == ["a", "b", "c", "d"]

    code, obj, _ = cli_json(capsys, "word-search", "--graph", w5_file)
    assert code == 1 and obj["found"] is False


# ---------------------------------------------------------------------------
# usage errors and help


W5 = graph_to_json(build_wheel(5))
W5_PROOF = Path(__file__).parent / "data" / "golden" / "w5.txt"
S23 = graph_to_json(build_simplified(2, 3).graph)
# W5 with labels outside the trace label grammar: a proof naming them
# could not be parsed back
W5_DASHED = {
    "labels": [f"c-{i}" for i in range(5)] + ["h"],
    "edges": [[f"c-{i}", f"c-{(i + 1) % 5}"] for i in range(5)]
    + [["h", f"c-{i}"] for i in range(5)],
}


class TraceText(str):
    """Trace text that a test writes to a file, passing the file's path."""


# a file that starts with a byte no UTF-8 text holds
NOT_UTF8 = b"\xff{}"


@pytest.mark.parametrize(
    "argv",
    [
        ("nonsense",),
        ("check",),
        ("oracle", "--graph", "/nonexistent/g.json"),
        ("check", "--graph", "/nonexistent/g.json"),
        ("verify-trace", "--graph", "/nonexistent/g.json", "--trace", "t"),
        # bad graph files (a dict is written to a file, its path passed)
        ("check", "--graph", {"labels": ["a", "a"], "edges": []}),
        ("check", "--graph", {"labels": ["a"], "edges": [["a", "a"]]}),
        ("check", "--graph", {"labels": ["a"], "edges": [["a", "b"]]}),
        ("check", "--graph", {"labels": [0, 1], "edges": [[0, 1]]}),
        # budgets that overflow an int (a tuple sets an environment variable)
        ("check", "--graph", S23, "--budget", "1e400"),
        ("check", "--graph", S23, "--budget", "inf"),
        (("WORDREP_BUDGET", "1e999"), "oracle", "--graph", S23),
        # inputs beyond a command's size limits or domain
        ("color3", "--n", "13"),
        ("chromatic", "--graph", graph_to_json(build_simplified(7, 2).graph)),
        ("word-search", "--graph", W5, "--kmax", "0"),
        ("represent-check", "--graph", S23, "--word", "00 01"),
        ("check", "--graph", W5_DASHED),
        # a sampled stage must sample something
        ("repro", "--samples", "0"),
        ("repro", "--samples", "-1"),
        # and runs in at least one process
        ("repro", "--jobs", "0"),
        ("repro", "--jobs", "-3"),
        # graph files with strings and objects where arrays belong
        ("check", "--graph", {"labels": ["a", "b", "c"], "edges": ["ab", "bc"]}),
        ("check", "--graph", {"labels": "ab", "edges": [["a", "b"]]}),
        ("check", "--graph", {"labels": {"a": 1, "b": 2}, "edges": [["a", "b"]]}),
        # output paths that cannot be written
        ("check", "--graph", S23, "--trace", "/nonexistent/dir/p.txt"),
        ("extract-graph", "--trace", str(W5_PROOF), "-o", "/nonexistent/g.json"),
        # traces that name a self-loop: in a terminal, an arc, a resumed arc
        ("extract-graph", "--trace", TraceText("1. S:a-a\n")),
        ("extract-graph", "--trace", TraceText("1. Oa->a (Ca-b-c) S:a-b-c\n")),
        ("extract-graph", "--trace",
         TraceText("1. Ba->b (Copy 2) S:a-b-c\n2. MC2 b->b S:a-b-c\n")),
        # graph and trace files that are not UTF-8 (bytes are written as
        # they are, to graph.json unless they follow --trace)
        ("check", "--graph", NOT_UTF8),
        ("verify-trace", "--graph", NOT_UTF8, "--trace", str(W5_PROOF)),
        ("verify-trace", "--graph", W5, "--trace", NOT_UTF8),
        ("extract-graph", "--trace", NOT_UTF8),
    ],
)
def test_usage_errors_exit_64(capsys, tmp_path, monkeypatch, argv):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / "graph.json"
            path.write_text(json.dumps(arg))
            argv[i] = str(path)
        elif isinstance(arg, tuple):
            monkeypatch.setenv(*arg)
        elif isinstance(arg, TraceText):
            path = tmp_path / "trace.txt"
            path.write_text(arg)
            argv[i] = str(path)
        elif isinstance(arg, bytes):
            name = "trace.txt" if argv[i - 1] == "--trace" else "graph.json"
            path = tmp_path / name
            path.write_bytes(arg)
            argv[i] = str(path)
    argv = [arg for arg in argv if not isinstance(arg, tuple)]
    code, _, err = cli(capsys, *argv)
    assert code == 64 and "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check", "--graph", {"labels": ["a", "a"], "edges": []}),
         " is not a graph: duplicate label 'a'"),
        (("check", "--graph", {"labels": ["a"], "edges": [["a", "a"]]}),
         " is not a graph: self-loop at 'a'"),
        (("check", "--graph", {"labels": ["a"], "edges": [["a", "b"]]}),
         " is not a graph: edge 'a'-'b': no vertex 'b'"),
        (("extract-graph", "--trace", TraceText("1. S:a-a\n")), ": self-loop at 'a'"),
    ],
    ids=["duplicate_label", "self_loop", "unknown_endpoint", "trace_self_loop"],
)
def test_graph_errors_name_their_defect(capsys, tmp_path, argv, message):
    command, flag, arg = argv
    path = tmp_path / "input"
    path.write_text(arg if isinstance(arg, TraceText) else json.dumps(arg))
    code, _, err = cli(capsys, command, flag, str(path))
    assert code == 64 and err == f"error: {path}{message}\n"


def test_internal_faults_exit_70(capsys, w5_file, monkeypatch):
    # a failed self-check is a fault of the program, not a negative verdict;
    # the proof is replayed under -O too
    monkeypatch.setattr(
        wordrep.solver, "verify_trace", lambda g, trace: SimpleNamespace(accepted=False)
    )
    code, out, err = cli(capsys, "check", "--graph", w5_file)
    assert code == 70 and out == ""
    assert err.startswith("error: internal: ") and err.count("\n") == 1


def test_failed_positive_self_check_exits_70(capsys, p4_file, monkeypatch):
    # a positive verdict is checked under -O too: it has no proof to replay
    monkeypatch.setattr(wordrep.solver, "is_semitransitive", lambda o: False)
    code, out, err = cli(capsys, "check", "--graph", p4_file)
    assert code == 70 and out == ""
    assert err.startswith("error: internal: ") and err.count("\n") == 1


def test_a_value_error_inside_the_search_exits_70(capsys, s23_file, monkeypatch):
    # only bad input exits 64; a ValueError the search raises is a fault
    def broken(po):
        raise ValueError("edge 02-10 already oriented the other way")

    monkeypatch.setattr(wordrep.solver, "_next_force", broken)
    code, out, err = cli(capsys, "check", "--graph", s23_file)
    assert code == 70 and out == ""
    assert err.startswith("error: internal: ValueError(")


def test_a_force_that_closes_a_cycle_exits_70(capsys, s23_file, monkeypatch):
    # no arc the search sets closes a directed cycle: a force reversed
    # against the path that decides its edge is a fault, under -O too
    next_force = wordrep.solver._next_force

    def reversed_force(po):
        hit = next_force(po)
        if hit is not None and len(hit[0]) == 1:
            ((t, h),) = hit[0]
            if po.reach[t] >> h & 1:  # t ~> h decides the edge
                return ((h, t),), *hit[1:]
        return hit

    monkeypatch.setattr(wordrep.solver, "_next_force", reversed_force)
    code, out, err = cli(capsys, "check", "--graph", s23_file)
    assert code == 70 and out == ""
    assert err.startswith("error: internal: RuntimeError(") and err.count("\n") == 1
    assert "closes a directed cycle" in err


def test_bad_source_and_bad_wlog_are_usage_errors(capsys, w5_file, tmp_path):
    code, _, err = cli(capsys, "check", "--graph", w5_file, "--source", "zz")
    assert code == 64 and "source label" in err
    trace = tmp_path / "t.txt"
    trace.write_text("1. O a->b (C a-b-c) S:a-b-c\n")
    code, _, err = cli(
        capsys, "verify-trace", "--graph", w5_file, "--trace", str(trace),
        "--wlog", "h",
    )
    assert code == 64 and "TAIL->HEAD" in err
    # rim vertices c0 and c2 are not adjacent in W5
    for wlog, reason in (
        ("c0->zz", "not a vertex"), ("c0->c2", "not an edge"), ("h->h", "self-loop"),
    ):
        code, out, err = cli(
            capsys, "verify-trace", "--graph", w5_file, "--trace", str(trace),
            "--wlog", wlog,
        )
        assert (code, out) == (64, "") and reason in err, (wlog, err)


def test_malformed_trace_is_a_usage_error(capsys, w5_file, tmp_path):
    trace = tmp_path / "bad.txt"
    trace.write_text("1. utter nonsense\n")
    code, _, err = cli(
        capsys, "verify-trace", "--graph", w5_file, "--trace", str(trace)
    )
    assert code == 64 and "error:" in err


def test_help_exits_zero(capsys):
    code, out, _ = cli(capsys, "--help")
    assert code == 0 and "usage: wordrep" in out


# ---------------------------------------------------------------------------
# repro


def test_repro_passes_and_is_deterministic(capsys):
    code, out, err = cli(capsys, "repro", "--seed", "11", "--samples", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert [s["stage"] for s in obj["stages"]] == [
        "3-coloring S(n,2) for n=1..10",
        "W5 and S(2,3) verdicts",
        "bundled 17-vertex proof",
        "sampled solver/oracle agreement",
    ]
    assert err.count("PASS") == 4

    code2, out2, _ = cli(capsys, "repro", "--seed", "11", "--samples", "3")
    assert code2 == 0 and out2 == out


def test_repro_parallel_jobs_agree(capsys):
    code, out, _ = cli(
        capsys, "repro", "--seed", "3", "--samples", "1", "--jobs", "2"
    )
    assert code == 0
    stage = json.loads(out)["stages"][0]
    assert stage["ok"] is True
    assert [row["n"] for row in stage["detail"]["instances"]] == list(range(1, 11))

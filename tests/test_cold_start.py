"""The command line in fresh interpreters.

``cli`` imports the modules that only some subcommands use when those
subcommands first need them, so that each subcommand loads only the
``wordrep`` modules it runs.  In-process tests run after other tests have
imported every module, so they cannot show what a fresh process loads,
nor that each subcommand still runs in one; these tests start a new
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wordrep.graphs import build_graph, build_wheel, graph_to_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"

# none of these is needed by check, verify-trace or oracle
LAZY_MODULES = (
    "concurrent.futures",
    "multiprocessing",
    "traceback",
    "wordrep.coloring",
    "wordrep.debruijn",
    "wordrep.repro",
    "wordrep.subiso",
    "wordrep.words",
)

# no wordrep module needs these: its records are NamedTuples or small
# __slots__ classes, so no process pays for dataclasses and what it imports
NEVER_LOADED = ("dataclasses", "inspect")


def _python(*args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("WORDREP_BUDGET", None)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def _loaded_by(statement, cwd):
    """The modules a fresh interpreter loads to run ``statement``; modules
    the interpreter loaded at start-up do not count."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = _python("-c", script, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _wordrep(loaded):
    return sorted(m for m in loaded if m.split(".")[0] == "wordrep")


def test_importing_the_cli_loads_no_subcommand_only_module(tmp_path):
    loaded = _loaded_by("import wordrep.cli", tmp_path)
    assert _wordrep(loaded) == ["wordrep", "wordrep.cli", "wordrep.graphs"]
    assert [
        m for m in loaded
        if any(m == lazy or m.startswith(lazy + ".") for lazy in LAZY_MODULES)
    ] == []
    assert [m for m in NEVER_LOADED if m in loaded] == []


def test_importing_the_verifier_loads_no_orientations(tmp_path):
    loaded = _loaded_by("import wordrep.traces", tmp_path)
    assert _wordrep(loaded) == ["wordrep", "wordrep.graphs", "wordrep.traces"]


def test_importing_debruijn_and_subiso_loads_no_dataclasses(tmp_path):
    loaded = _loaded_by("import wordrep.debruijn, wordrep.subiso", tmp_path)
    assert "wordrep.debruijn" in loaded and "wordrep.subiso" in loaded
    assert [m for m in NEVER_LOADED if m in loaded] == []


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold")
    p3 = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    (path / "w5.json").write_text(json.dumps(graph_to_json(build_wheel(5))))
    (path / "p3.json").write_text(json.dumps(graph_to_json(p3)))
    (path / "golden_w5.txt").write_text((GOLDEN / "w5.txt").read_text())
    return path


# each subcommand, its exit code on W5, and the wordrep modules it loads
# besides the package and cli
SUBCOMMAND_MODULES = [
    (["check", "--graph", "w5.json"], 1,
     ["graphs", "orientations", "solver", "traces"]),
    (["verify-trace", "--graph", "w5.json", "--trace", "golden_w5.txt",
      "--source", "h", "--wlog", "c0->c1"], 0, ["graphs", "traces"]),
    (["extract-graph", "--trace", "golden_w5.txt"], 0, ["graphs", "traces"]),
    (["oracle", "--graph", "w5.json"], 1, ["graphs", "orientations"]),
    (["debruijn", "--n", "2", "--k", "2"], 0, ["debruijn", "graphs"]),
]


@pytest.mark.parametrize(
    "argv, code, modules",
    SUBCOMMAND_MODULES,
    ids=[argv[0] for argv, _, _ in SUBCOMMAND_MODULES],
)
def test_each_subcommand_loads_only_the_modules_it_runs(workdir, argv, code, modules):
    statement = (
        "import contextlib, io\n"
        "from wordrep.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run({argv!r})\n"
    )
    loaded = _loaded_by(statement + f"assert code == {code}, code", workdir)
    assert _wordrep(loaded) == ["wordrep", "wordrep.cli"] + [
        f"wordrep.{m}" for m in modules
    ]


def test_every_subcommand_runs_in_a_fresh_process(workdir):
    def run(expected, *argv):
        proc = _python("-m", "wordrep.cli", *argv, cwd=workdir)
        assert proc.returncode == expected, (argv, proc.stderr)
        return proc

    run(0, "debruijn", "--n", "2", "--k", "2")
    run(0, "color3", "--n", "3")
    run(0, "chromatic", "--graph", "w5.json", "--max", "4")
    verdict = json.loads(
        run(1, "check", "--graph", "w5.json", "--trace", "w5.txt").stdout
    )
    preamble = ["--source", verdict["source"]]
    if verdict["wlog"] is not None:
        preamble += ["--wlog", verdict["wlog"]]
    run(0, "verify-trace", "--graph", "w5.json", "--trace", "w5.txt", *preamble)
    run(1, "oracle", "--graph", "w5.json")
    run(0, "extract-graph", "--trace", "w5.txt", "-o", "recovered.json")
    run(0, "findsub", "--pattern", "p3.json", "--host", "w5.json")
    run(1, "represent-check", "--graph", "p3.json", "--word", "a b c")
    run(0, "word-search", "--graph", "p3.json", "--kmax", "2")
    # two jobs: the coloring stage runs in worker processes
    repro = run(0, "repro", "--samples", "1", "--jobs", "2")
    assert json.loads(repro.stdout)["ok"] is True


def test_an_internal_fault_exits_70_in_a_fresh_process(workdir):
    # the fault branch of run() imports what it needs to name the frame
    script = (
        "import sys\n"
        "import wordrep.solver\n"
        "from wordrep.cli import run\n"
        "def fail(g, trace):\n"
        "    raise RuntimeError('replay failed')\n"
        "wordrep.solver.verify_trace = fail\n"
        "sys.exit(run(['check', '--graph', 'w5.json']))\n"
    )
    proc = _python("-c", script, cwd=workdir)
    assert proc.returncode == 70 and proc.stdout == ""
    assert proc.stderr.startswith("error: internal: RuntimeError('replay failed')")
    assert proc.stderr.count("\n") == 1

"""The benchmark's probe finds every library function it hooks.

``perfbench/probe.py`` wraps functions of ``wordrep.cli``,
``wordrep.solver`` and ``wordrep.orientations`` by name, and reports a
name it cannot find as a ``null`` span, which drops metrics from the
benchmark's result.  Running it on W5 here makes a rename fail the tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wordrep.graphs import build_wheel, graph_to_json

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "probe.py"


def _probe(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(PROBE), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def w5_file(tmp_path):
    path = tmp_path / "w5.json"
    path.write_text(json.dumps(graph_to_json(build_wheel(5))))
    return str(path)


def test_probe_layers_find_every_hooked_function(w5_file, tmp_path):
    out = _probe(
        "layers", "--graph", w5_file, "--proof", str(tmp_path / "w5.txt"),
        "--phase", "check", "--phase", "verify", "--phase", "oracle",
    )
    phases = out["phases"]
    assert sorted(phases) == ["check", "oracle", "verify"]
    # W5 is not semi-transitive: check and oracle exit 1, the proof verifies
    assert [phases[p]["exit"] for p in ("check", "verify", "oracle")] == [1, 0, 1]
    nulls = [
        (p, name) for p, phase in phases.items()
        for name, span in phase["spans"].items() if span is None
    ]
    assert nulls == []
    assert phases["check"]["spans"]["propagate"]["calls"] > 0
    # the commands call the functions the probe wrapped on ``cli``: a
    # span found but never called would time nothing
    calls = {
        (p, name): phases[p]["spans"][name]["calls"]
        for p, name in (
            ("check", "solve"), ("check", "emit"), ("verify", "parse"),
            ("verify", "verify"), ("oracle", "oracle"),
        )
    }
    assert [key for key, n in calls.items() if n < 1] == []


def test_probe_pure_oracle_examines_every_leaf(w5_file):
    out = _probe("pure", "--graph", w5_file)
    assert out == {"verdict": "notexists", "examined": 2**10}

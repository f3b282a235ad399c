"""Child process of the benchmark: make inputs, run the pure oracle, or
trace one instance through the wordrep command line in-process.

The tracing wraps public functions of ``wordrep.cli``, ``wordrep.solver``
and ``wordrep.orientations`` from the outside; no program file knows about
it.  A function that a refactor renamed or removed is reported as absent
(``null``) instead of failing the run.

    python3 perfbench/probe.py inputs --out DIR --wheel 5 --wheel 9
    python3 perfbench/probe.py pure --graph G.json
    python3 [-O] perfbench/probe.py untraced --graph G.json [--proof P]
    python3 [-O] perfbench/probe.py layers --graph G.json --phase check ...

``src`` must be on ``PYTHONPATH``; ``run.py`` sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from importlib import resources


class Span:
    """Calls and seconds of the outermost calls into a set of functions."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0
        self.present = True

    def wrap(self, owner, name: str) -> None:
        fn = getattr(owner, name, None)
        if not callable(fn):
            self.present = False
            return

        def timed(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth = 1
            self.calls += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.depth = 0

        setattr(owner, name, timed)

    def reset(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def report(self) -> dict | None:
        if not self.present:
            return None
        return {"calls": self.calls, "seconds": self.seconds}


def _install_spans() -> dict[str, Span]:
    from wordrep import cli, orientations, solver

    po_class = getattr(orientations, "PartialOrientation", None)
    hooks = {
        # check: the verdict, then the proof text
        "solve": [(cli, "solve")],
        "emit": [(cli, "emit_trace")],
        # inside solve: one propagate call per root, branch or resume
        "propagate": [(solver, "propagate")],
        # defect scans, as the solver module calls them
        "acyclic": [(solver, "is_acyclic")],
        "shortcut": [(solver, "find_shortcut")],
        # the solver's self-check of its own verdict (plain mode only)
        "selfcheck": [(solver, "verify_trace"), (solver, "is_semitransitive")],
        "copy": [(po_class, "copy")],
        # verify-trace
        "parse": [(cli, "parse_trace")],
        "verify": [(cli, "verify_trace")],
        # oracle: the whole exhaustion, and its per-leaf check
        "oracle": [(cli, "brute_force_semitransitive"),
                   (orientations, "brute_force_semitransitive")],
        "leaf": [(orientations, "is_semitransitive"),
                 (orientations, "find_shortcut")],
    }
    spans = {}
    for name, targets in hooks.items():
        span = spans[name] = Span()
        for owner, attr in targets:
            span.wrap(owner, attr)
    return spans


def _run_cli(argv: list[str]) -> tuple[int, float, str]:
    from wordrep import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, time.perf_counter() - start, out.getvalue()


def _load_graph(path: str):
    from wordrep.graphs import graph_from_json

    with open(path, encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


def _layers(ns) -> dict:
    spans = _install_spans()
    phases = {}

    def phase(name: str, run) -> dict:
        for span in spans.values():
            span.reset()
        code, seconds, out = run()
        phases[name] = {
            "exit": code,
            "run_s": seconds,
            "stdout": out,
            "spans": {k: span.report() for k, span in spans.items()},
        }
        return phases[name]

    source, wlog = ns.source, None
    if "check" in ns.phase:
        argv = ["check", "--graph", ns.graph]
        if ns.proof:
            argv += ["--trace", ns.proof]
        done = phase("check", lambda: _run_cli(argv))
        try:
            verdict = json.loads(done["stdout"])
            source, wlog = verdict.get("source"), verdict.get("wlog")
        except ValueError:
            pass
    if "verify" in ns.phase and ns.proof and source is not None:
        argv = ["verify-trace", "--graph", ns.graph, "--trace", ns.proof,
                "--source", source]
        if wlog:
            argv += ["--wlog", wlog]
        phase("verify", lambda: _run_cli(argv))
    if "oracle" in ns.phase:
        phase("oracle", lambda: _run_cli(["oracle", "--graph", ns.graph]))
    if "pure" in ns.phase:
        graph = _load_graph(ns.graph)
        phase("pure", lambda: _pure(graph))
    return {"optimized": not __debug__, "phases": phases}


def _pure(graph) -> tuple[int, float, str]:
    from wordrep import orientations

    start = time.perf_counter()
    result = orientations.brute_force_semitransitive(graph, pure=True)
    seconds = time.perf_counter() - start
    out = json.dumps({"verdict": result.verdict, "examined": result.examined})
    return 0, seconds, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="probe.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("inputs", help="write wheel graphs and the bundled proof")
    p.add_argument("--out", required=True)
    p.add_argument("--wheel", type=int, action="append", default=[])
    p = sub.add_parser("pure", help="brute_force_semitransitive(pure=True)")
    p.add_argument("--graph", required=True)
    p = sub.add_parser("untraced", help="time check in-process, no hooks installed")
    p.add_argument("--graph", required=True)
    p.add_argument("--proof", help="where check writes its proof")
    p = sub.add_parser("layers", help="trace the CLI phases of one instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--phase", action="append", default=[],
                   choices=("check", "verify", "oracle", "pure"))
    p.add_argument("--proof", help="proof file written by check or verified")
    p.add_argument("--source", help="preamble source when check is not run")
    ns = parser.parse_args(argv)

    if ns.mode == "inputs":
        from wordrep.graphs import build_wheel, graph_to_json

        for m in ns.wheel:
            with open(f"{ns.out}/w{m}.json", "w", encoding="utf-8") as fh:
                json.dump(graph_to_json(build_wheel(m)), fh)
        text = resources.files("wordrep.data").joinpath(
            "s33_witness_trace.txt").read_text(encoding="utf-8")
        with open(f"{ns.out}/bundled.txt", "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0
    if ns.mode == "pure":
        code, _, out = _pure(_load_graph(ns.graph))
        print(out)
        return code
    if ns.mode == "untraced":
        argv = ["check", "--graph", ns.graph]
        if ns.proof:
            argv += ["--trace", ns.proof]
        print(json.dumps({"check_s": _run_cli(argv)[1]}))
        return 0
    print(json.dumps(_layers(ns)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

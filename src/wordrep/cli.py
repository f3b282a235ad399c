"""Command-line entry point binding the whole library.

Machine-readable results go to standard output as JSON; short human
summaries go to standard error.  Exit codes: 0 for a positive result
(semi-transitive, accepted, found, all stages passed), 1 for a
negative one, 2 for an exhausted search budget, 64 for usage errors
(bad arguments or input files), and 70 for an internal fault: an
exception that escaped a subcommand, such as a failed self-check.

The ``WORDREP_BUDGET`` environment variable overrides the default
search budget of every budgeted subcommand; an explicit ``--budget``
flag overrides both.  Budgets accept scientific notation (``2e7``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import sys
from collections.abc import Sequence

# Modules that only some subcommands use are imported inside those
# subcommands, so a process loads only the code its command runs.
from .graphs import (
    LABEL_PATTERN,
    GraphError,
    LabeledGraph,
    graph_from_json,
    graph_to_json,
    is_proper_coloring,
)

__all__ = ["run", "main"]

# The names of the solver, the verifier and the oracle that subcommands
# call, by module.  ``__getattr__`` (PEP 562) imports a module when one of
# its names is first read and binds the name here, and the subcommands
# read these names as attributes of ``_lib``, this module, not with
# imports of their own, so a name replaced on this module is the one a
# command calls.
_DEFERRED = {
    **dict.fromkeys(
        ("DEFAULT_CYCLE_LEN", "NonSemiTransitive", "SemiTransitive",
         "SolverConfig", "solve"),
        "solver",
    ),
    **dict.fromkeys(
        ("Preamble", "ProofTrace", "TraceSyntaxError", "emit_trace",
         "extract_graph", "parse_trace", "verify_trace"),
        "traces",
    ),
    **dict.fromkeys(
        ("DEFAULT_ORACLE_BUDGET", "brute_force_semitransitive"), "orientations"
    ),
}


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


# this module, also when it runs as ``__main__`` under ``python -m``
_lib = sys.modules[__name__]


BUDGET_ENV = "WORDREP_BUDGET"

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise _UsageError(message)


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_budget(text: str) -> int:
    try:
        value = int(float(text))
    except (ValueError, OverflowError):
        raise _UsageError(f"budget {text!r} is not a number") from None
    if value <= 0:
        raise _UsageError("budget must be positive")
    return value


def _resolve_budget(flag: str | None, fallback: int) -> int:
    if flag is None:
        flag = os.environ.get(BUDGET_ENV)
    return fallback if flag is None else _parse_budget(flag)


def _load_graph(path: str) -> LabeledGraph:
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from None
    try:
        g = graph_from_json(obj)
    except (GraphError, KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"{path} is not a graph: {exc}") from None
    for label in g.labels:
        if not re.fullmatch(LABEL_PATTERN, label):
            raise _UsageError(
                f"{path}: label {label!r} does not match the trace label "
                f"grammar {LABEL_PATTERN}"
            )
    return g


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path} is not UTF-8 text: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from None


def _parse_arc(text: str) -> tuple[str, str]:
    cleaned = text.replace("→", "->")
    tail, sep, head = cleaned.partition("->")
    if not sep or not tail.strip() or not head.strip():
        raise _UsageError(f"arc {text!r} must look like TAIL->HEAD")
    return tail.strip(), head.strip()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_debruijn(ns) -> int:
    from .debruijn import (
        DEFAULT_SIZE_LIMIT,
        SizeLimitExceeded,
        build_debruijn,
        build_simplified,
        digraph_to_dot,
        simplified_to_dot,
    )

    limit = DEFAULT_SIZE_LIMIT if ns.size_limit is None else ns.size_limit
    try:
        if ns.simplified:
            s = build_simplified(ns.n, ns.k, limit)
            graph = s.graph
            _say(
                f"S({ns.n},{ns.k}): {graph.n} vertices, {len(graph.edges)} edges"
            )
            if ns.format == "dot":
                print(simplified_to_dot(s), end="")
            else:
                _emit(graph_to_json(graph))
        else:
            b = build_debruijn(ns.n, ns.k, limit)
            _say(f"B({ns.n},{ns.k}): {len(b.vertices)} vertices, {len(b.arcs)} arcs")
            if ns.format == "dot":
                print(digraph_to_dot(b), end="")
            else:
                _emit(
                    {
                        "n": b.n,
                        "k": b.k,
                        "vertices": list(b.vertices),
                        "arcs": [
                            [b.vertices[t], b.vertices[h]] for t, h in b.arcs
                        ],
                    }
                )
    except (ValueError, SizeLimitExceeded) as exc:
        raise _UsageError(str(exc)) from None
    return EXIT_POSITIVE


def _cmd_color3(ns) -> int:
    from .coloring import COLOR_NAMES, color_s_n_2
    from .debruijn import SizeLimitExceeded

    try:
        s, colors = color_s_n_2(ns.n)
    except (ValueError, SizeLimitExceeded) as exc:
        raise _UsageError(str(exc)) from None
    graph = s.graph
    proper = is_proper_coloring(graph, colors)
    _emit(
        {
            "n": ns.n,
            "vertices": graph.n,
            "edges": len(graph.edges),
            "proper": proper,
            "coloring": {
                graph.labels[v]: COLOR_NAMES[colors[v]] for v in range(graph.n)
            },
        }
    )
    _say(
        f"S({ns.n},2): {graph.n} vertices, 3-coloring "
        + ("proper" if proper else "IMPROPER")
    )
    return EXIT_POSITIVE if proper else EXIT_NEGATIVE


def _cmd_chromatic(ns) -> int:
    from .coloring import exact_chromatic_number
    from .debruijn import SizeLimitExceeded

    g = _load_graph(ns.graph)
    try:
        number = exact_chromatic_number(g, ns.max)
    except (ValueError, SizeLimitExceeded) as exc:
        raise _UsageError(str(exc)) from None
    _emit({"max_colors": ns.max, "chromatic_number": number})
    if number is None:
        _say(f"chromatic number exceeds {ns.max}")
        return EXIT_NEGATIVE
    _say(f"chromatic number {number}")
    return EXIT_POSITIVE


def _cmd_check(ns) -> int:
    g = _load_graph(ns.graph)
    source = None if ns.source == "maxdeg" else ns.source
    if source is not None and source not in g.index:
        raise _UsageError(f"source label {source!r} is not a vertex")
    try:
        cfg = _lib.SolverConfig(
            source=source,
            budget=_resolve_budget(ns.budget, _lib.SolverConfig().budget),
            cycle_len=_lib.DEFAULT_CYCLE_LEN if ns.cycle_len is None else ns.cycle_len,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    # a ValueError from the search is a fault of the program: exit 70
    verdict = _lib.solve(g, cfg)

    if isinstance(verdict, _lib.SemiTransitive):
        arcs = verdict.orientation.arcs
        labels = verdict.orientation.graph.labels
        _emit(
            {
                "verdict": "semi-transitive",
                "orientation": [[labels[t], labels[h]] for t, h in arcs],
            }
        )
        _say("semi-transitive")
        return EXIT_POSITIVE
    if isinstance(verdict, _lib.NonSemiTransitive):
        trace = verdict.trace
        wlog = trace.preamble.wlog_arc
        payload = {
            "verdict": "not-semi-transitive",
            "lines": len(trace.lines),
            "source": trace.preamble.source_vertex,
            "wlog": None if wlog is None else f"{wlog[0]}->{wlog[1]}",
        }
        if ns.trace:
            _write_text(ns.trace, _lib.emit_trace(trace))
            payload["trace_file"] = ns.trace
        _emit(payload)
        _say(f"not semi-transitive ({len(trace.lines)} proof lines)")
        return EXIT_NEGATIVE
    # the only verdict left is BudgetExceeded
    _emit({"verdict": "budget-exceeded", "nodes": verdict.nodes})
    _say(f"budget exceeded after {verdict.nodes} nodes")
    return EXIT_BUDGET


def _cmd_oracle(ns) -> int:
    g = _load_graph(ns.graph)
    budget = _resolve_budget(ns.budget, _lib.DEFAULT_ORACLE_BUDGET)
    result = _lib.brute_force_semitransitive(g, budget)
    certificate = None
    if result.certificate is not None:
        labels = result.certificate.graph.labels
        certificate = [[labels[t], labels[h]] for t, h in result.certificate.arcs]
    _emit(
        {
            "verdict": result.verdict,
            "examined": result.examined,
            "certificate": certificate,
        }
    )
    _say(f"{result.verdict} after {result.examined} orientations")
    if result.verdict == "exists":
        return EXIT_POSITIVE
    if result.verdict == "notexists":
        return EXIT_NEGATIVE
    return EXIT_BUDGET


def _cmd_verify_trace(ns) -> int:
    g = _load_graph(ns.graph)
    wlog = _parse_arc(ns.wlog) if ns.wlog else None
    if wlog is not None:
        for label in wlog:
            if label not in g.index:
                raise _UsageError(f"wlog endpoint {label!r} is not a vertex")
        tail, head = (g.index[label] for label in wlog)
        if tail == head:
            raise _UsageError(f"wlog arc {ns.wlog!r} is a self-loop")
        if not g.has_edge(tail, head):
            raise _UsageError(f"wlog arc {ns.wlog!r} is not an edge of the graph")
    if ns.source is not None and ns.source not in g.index:
        raise _UsageError(f"source {ns.source!r} is not a vertex")
    try:
        parsed = _lib.parse_trace(_read_text(ns.trace))
    except _lib.TraceSyntaxError as exc:
        raise _UsageError(f"{ns.trace}: {exc}") from None
    trace = _lib.ProofTrace(_lib.Preamble(wlog, ns.source), parsed.lines)
    report = _lib.verify_trace(g, trace)
    _emit(
        {
            "accepted": report.accepted,
            "lines": len(report.line_statuses),
            "failures": [
                {"line": s.line_number, "reason": s.reason}
                for s in report.failures()
            ],
        }
    )
    _say("accepted" if report.accepted else "REJECTED")
    return EXIT_POSITIVE if report.accepted else EXIT_NEGATIVE


def _cmd_extract_graph(ns) -> int:
    try:
        trace = _lib.parse_trace(_read_text(ns.trace))
    except _lib.TraceSyntaxError as exc:
        raise _UsageError(f"{ns.trace}: {exc}") from None
    try:
        g = _lib.extract_graph(trace)
    except GraphError as exc:  # the trace names a self-loop
        raise _UsageError(f"{ns.trace}: {exc}") from None
    payload = graph_to_json(g)
    if ns.out:
        _write_text(ns.out, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(payload)
    _say(f"{g.n} vertices, {len(g.edges)} edges")
    return EXIT_POSITIVE


def _cmd_findsub(ns) -> int:
    from .subiso import find_induced_embedding

    pattern = _load_graph(ns.pattern)
    host = _load_graph(ns.host)
    anchors: dict[str, str] = {}
    for text in ns.anchor or []:
        key, sep, value = text.partition("=")
        if not sep or not key or not value:
            raise _UsageError(f"anchor {text!r} must look like PATTERN=HOST")
        anchors[key] = value
    try:
        embedding = find_induced_embedding(pattern, host, anchors)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if embedding is None:
        _emit({"found": False})
        _say("no induced embedding")
        return EXIT_NEGATIVE
    _emit({"found": True, "mapping": embedding.as_label_map()})
    _say("found")
    return EXIT_POSITIVE


def _cmd_represent_check(ns) -> int:
    from .words import MissingLetter, represents

    g = _load_graph(ns.graph)
    word: list[int] = []
    for token in ns.word.split():
        if token not in g.index:
            raise _UsageError(f"word letter {token!r} is not a vertex")
        word.append(g.index[token])
    try:
        ok = represents(word, g)
    except MissingLetter as exc:
        label = g.labels[exc.vertex]
        raise _UsageError(f"vertex {label!r} never occurs in the word") from None
    _emit({"represents": ok, "length": len(word)})
    _say("represents" if ok else "does not represent")
    return EXIT_POSITIVE if ok else EXIT_NEGATIVE


def _cmd_word_search(ns) -> int:
    from .words import BudgetExceeded as WordBudgetExceeded
    from .words import DEFAULT_SEARCH_BUDGET, find_uniform_representant

    g = _load_graph(ns.graph)
    budget = _resolve_budget(ns.budget, DEFAULT_SEARCH_BUDGET)
    try:
        word = find_uniform_representant(g, ns.kmax, budget)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    except WordBudgetExceeded:
        _emit({"found": None, "budget_exceeded": True})
        _say("budget exceeded")
        return EXIT_BUDGET
    if word is None:
        _emit({"found": False, "k_max": ns.kmax})
        _say(f"no uniform representant with k <= {ns.kmax}")
        return EXIT_NEGATIVE
    k = len(word) // g.n if g.n else 0
    _emit({"found": True, "k": k, "word": [g.labels[v] for v in word]})
    _say(f"{k}-uniform representant of length {len(word)}")
    return EXIT_POSITIVE


def _cmd_repro(ns) -> int:
    if ns.samples < 1:
        # zero samples would pass the sampled stage having checked nothing
        raise _UsageError("--samples must be at least 1")
    if ns.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    from .repro import stages

    rows = []
    for name, ok, detail in stages(ns.seed, ns.samples, ns.jobs):
        rows.append({"stage": name, "ok": ok, "detail": detail})
        _say(f"{'PASS' if ok else 'FAIL'}  {name}")
    all_ok = all(row["ok"] for row in rows)
    _emit({"ok": all_ok, "seed": ns.seed, "stages": rows})
    _say("all stages passed" if all_ok else "SOME STAGES FAILED")
    return EXIT_POSITIVE if all_ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wordrep",
        description="Decide word-representability via semi-transitive "
        "orientation search; build simplified de Bruijn graphs; verify "
        "elimination-proof traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("debruijn", help="build B(n,k) or its simplified graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--simplified", action="store_true")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    # None means debruijn.DEFAULT_SIZE_LIMIT, read when the command runs
    p.add_argument("--size-limit", type=int)
    p.set_defaults(func=_cmd_debruijn)

    p = sub.add_parser("color3", help="3-color S(n,2) and verify properness")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_color3)

    p = sub.add_parser("chromatic", help="exact chromatic number (bounded)")
    p.add_argument("--graph", required=True)
    p.add_argument("--max", type=int, default=4)
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser("check", help="search for a semi-transitive orientation")
    p.add_argument("--graph", required=True)
    p.add_argument("--source", default="maxdeg")
    p.add_argument("--trace", help="write the refutation trace here")
    p.add_argument("--budget")
    # None means solver.DEFAULT_CYCLE_LEN, read when the command runs
    p.add_argument("--cycle-len", type=int)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="exhaust all orientations")
    p.add_argument("--graph", required=True)
    p.add_argument("--budget")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify-trace", help="check a refutation trace")
    p.add_argument("--graph", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--wlog", help='first-branch arc, e.g. "15->17"')
    p.add_argument("--source", help="vertex all of whose edges point outward")
    p.set_defaults(func=_cmd_verify_trace)

    p = sub.add_parser("extract-graph", help="recover the graph a trace mentions")
    p.add_argument("--trace", required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_extract_graph)

    p = sub.add_parser("findsub", help="anchored induced-subgraph search")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--anchor", action="append", metavar="PATTERN=HOST")
    p.set_defaults(func=_cmd_findsub)

    p = sub.add_parser("represent-check", help="does this word represent the graph?")
    p.add_argument("--graph", required=True)
    p.add_argument("--word", required=True, help='space-separated labels, e.g. "0 1 0 1"')
    p.set_defaults(func=_cmd_represent_check)

    p = sub.add_parser("word-search", help="search for a uniform representant")
    p.add_argument("--graph", required=True)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--budget")
    p.set_defaults(func=_cmd_word_search)

    p = sub.add_parser("repro", help="run the full reproduction pipeline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_repro)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE
    except SystemExit as exc:  # --help prints and exits 0
        return EXIT_POSITIVE if exc.code in (0, None) else EXIT_USAGE
    try:
        return ns.func(ns)
    except _UsageError as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE
    except Exception as exc:  # a fault, not a verdict: never exit 1
        import traceback

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        _say(f"error: internal: {exc!r} at {where}")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

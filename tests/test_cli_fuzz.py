"""Fuzzing the command line's exit contract.

Whatever the arguments and whatever the graph file holds, ``cli.run``
exits 0, 1, 2 or 64: a fault (70) or an escaped exception is a bug. On
0, 1 or 2 the standard output is one JSON document. Inputs stay small (at
most six vertices, small sizes and budgets, no ``repro``) so that each
example runs in milliseconds.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from wordrep.cli import run
from wordrep.graphs import build_graph, graph_to_json

GOOD_LABELS = ["0", "1", "2", "a", "b", "x_2"]
# outside the trace label grammar
BAD_LABELS = ["c-0", "", " "]
LABELS = GOOD_LABELS + BAD_LABELS

MALFORMED_GRAPHS = [
    "",
    "{",
    "null",
    "3",
    '"abc"',
    "[]",
    "{}",
    '{"edges": []}',
    '{"labels": "ab", "edges": []}',
    '{"labels": [1, 2], "edges": []}',
    '{"labels": ["a", "b"], "edges": [["a"]]}',
    '{"labels": ["a", "b"], "edges": "ab"}',
    b"\xff{}",  # no UTF-8 text: written as raw bytes
]

# W5 with hub "h", and a proof that it is not semi-transitive under
# "--source h"
RING = ["a", "b", "c", "d", "e"]
W5_JSON = json.dumps(
    graph_to_json(
        build_graph(
            RING + ["h"],
            [("h", v) for v in RING] + list(zip(RING, RING[1:] + RING[:1])),
        )
    )
)
W5_PROOF = (
    "1. Ba->b (Copy 2) Bb->c (Copy 3) S:h-a-b-c\n"
    "2. MC3 c->b Be->a (Copy 4) S:h-e-a-b\n"
    "3. MC4 a->e Bd->e (Copy 5) Bc->d (Copy 6) S:h-c-d-e\n"
    "4. MC6 d->c S:h-d-c-b\n"
    "5. MC5 e->d S:h-a-e-d\n"
    "6. MC2 b->a Ba->e (Copy 7) S:h-b-a-e\n"
    "7. MC7 e->a Bd->e (Copy 8) S:h-d-e-a\n"
    "8. MC8 e->d Bc->d (Copy 9) Bb->c (Copy 10) S:h-b-c-d\n"
    "9. MC10 c->b S:h-c-b-a\n"
    "10. MC9 d->c S:h-e-d-c\n"
)
TRACES = [
    "",
    "garbage\n",
    "1. S:a-b\n",
    "1. S:a-a\n",
    "1. Ba->b (Copy 2) S:h-a-b\n",
    "1. Oa->b (Ca-b-c) S:h-a-b-c\n2. MC9 a->b S:h-a\n",
    "1. Ba->b (Copy 2) Bb->c (Copy 3) S:h-a-b-c\n2. MC3 c->b S:h-c-b\n",
    W5_PROOF,
]

BUDGETS = ["1", "7", "500", "1e3", "0", "-2", "x", "1e400", "nan", "inf"]

labels = st.sampled_from(LABELS)
small_int = st.sampled_from(["-1", "0", "1", "2", "2", "3", "3", "4"])


@st.composite
def graph_documents(draw):
    kind = draw(st.sampled_from(["simple"] * 4 + ["w5", "odd", "malformed"]))
    if kind == "w5":
        return W5_JSON
    if kind == "malformed":
        return draw(st.sampled_from(MALFORMED_GRAPHS))
    if kind == "simple":
        vertices = draw(st.lists(st.sampled_from(GOOD_LABELS), max_size=6, unique=True))
        pool = vertices
    else:  # bad or repeated labels, loops, an endpoint that is no vertex
        vertices = draw(st.lists(st.sampled_from(LABELS), max_size=6))
        pool = vertices + ["zz"]
    edges = []
    if pool:
        edges = draw(
            st.lists(
                st.lists(st.sampled_from(pool), min_size=2, max_size=2),
                max_size=12,
            )
        )
    if kind == "simple":
        edges = [e for e in edges if e[0] != e[1]]
    return json.dumps({"labels": vertices, "edges": edges})


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def invocations(draw):
    """An argv and the files it names, as {name: text}."""
    files = {}

    def graph_file(name):
        files[name] = draw(graph_documents())
        return name

    def trace_file(name):
        files[name] = draw(st.sampled_from(TRACES))
        return name

    command = draw(
        st.sampled_from(
            [
                "debruijn", "color3", "chromatic", "check", "oracle",
                "verify-trace", "extract-graph", "findsub",
                "represent-check", "word-search", "bogus",
            ]
        )
    )
    argv = [command]
    if command == "debruijn":
        argv += ["--n", draw(small_int), "--k", draw(small_int)]
        argv += draw(st.sampled_from([[], ["--simplified"]]))
        argv += draw(optional("--size-limit", st.sampled_from(["-1", "0", "5", "300"])))
    elif command == "color3":
        argv += ["--n", draw(st.integers(-1, 6).map(str))]
    elif command == "chromatic":
        argv += ["--graph", graph_file("g.json")]
        argv += draw(optional("--max", small_int))
    elif command == "check":
        argv += ["--graph", graph_file("g.json")]
        argv += draw(optional("--source", st.sampled_from(GOOD_LABELS + ["h", "maxdeg"])))
        argv += draw(optional("--trace", st.sampled_from(["out.txt", "no/such/dir/out.txt"])))
        argv += draw(optional("--budget", st.sampled_from(BUDGETS)))
        argv += draw(optional("--cycle-len", st.integers(2, 8).map(str)))
    elif command == "oracle":
        argv += ["--graph", graph_file("g.json")]
        argv += draw(optional("--budget", st.sampled_from(BUDGETS)))
    elif command == "verify-trace":
        wlog = st.one_of(
            st.tuples(labels, labels).map(lambda ab: f"{ab[0]}->{ab[1]}"),
            st.sampled_from(["a", "->", "a→b"]),
        )
        if draw(st.booleans()):  # W5 and its proof, which verify-trace accepts
            files["g.json"], files["t.txt"] = W5_JSON, W5_PROOF
            argv += ["--graph", "g.json", "--trace", "t.txt", "--source", "h"]
        else:
            argv += ["--graph", graph_file("g.json"), "--trace", trace_file("t.txt")]
            argv += draw(optional("--source", st.sampled_from(LABELS + ["h"])))
        argv += draw(optional("--wlog", wlog))
    elif command == "extract-graph":
        argv += ["--trace", trace_file("t.txt")]
    elif command == "findsub":
        argv += ["--pattern", graph_file("p.json"), "--host", graph_file("h.json")]
        anchor = st.sampled_from(["0=0", "a=1", "zz=0", "0=zz", "=", "a", "a=", "0=1"])
        for text in draw(st.lists(anchor, max_size=2)):
            argv += ["--anchor", text]
    elif command == "represent-check":
        argv += ["--graph", graph_file("g.json")]
        try:
            doc = json.loads(files["g.json"])
            letters = [x for x in doc["labels"] if isinstance(x, str)]
        except (ValueError, KeyError, TypeError):
            letters = []
        # each vertex twice, in any order; sometimes cut short or with a
        # letter that is no vertex
        word = draw(st.permutations(letters * 2))
        word = word[: draw(st.sampled_from([len(word)] * 3 + [len(word) // 2]))]
        word += draw(st.lists(st.sampled_from(LABELS + ["zz"]), max_size=1))
        argv += ["--word", " ".join(word)]
    elif command == "word-search":
        argv += ["--graph", graph_file("g.json")]
        argv += draw(optional("--kmax", small_int))
        argv += ["--budget", draw(st.sampled_from(BUDGETS))]
    # a stray flag, a missing input file, or a dropped last argument
    tail = draw(st.sampled_from(["none"] * 7 + ["flag", "missing", "drop"]))
    if tail == "flag":
        argv.append("--bogus")
    elif tail == "missing" and "--graph" in argv:
        argv[argv.index("--graph") + 1] = "missing.json"
    elif tail == "drop" and len(argv) > 1:
        argv.pop()
    return argv, files


@settings(max_examples=150, deadline=None)
@given(invocations())
def test_exit_code_is_in_the_contract_and_stdout_is_json(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            if isinstance(text, bytes):
                (root / name).write_bytes(text)
            else:
                (root / name).write_text(text, encoding="utf-8")
        argv = [str(root / a) if a.endswith((".json", ".txt")) else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2, 64), (argv, files, err.getvalue())
    if code != 64:
        json.loads(out.getvalue())

"""Proof-trace parsing, emission, graph extraction, and verification.

The bundled 100-line witness trace is the golden corpus: it must
round-trip byte-for-byte, extract the expected 17-vertex graph, and
verify with a balanced branch ledger.  Hand-built eliminations of the
5-wheel cross-check the verifier against the brute-force oracle.
"""

import json
import random
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordrep.debruijn import build_simplified
from wordrep.graphs import (
    build_graph,
    build_wheel,
    induced_subgraph,
    max_degree_vertex,
)
from wordrep.orientations import brute_force_semitransitive
from wordrep.traces import (
    WITNESS_PREAMBLE,
    Branch,
    MoveCopy,
    Orient,
    Preamble,
    ProofTrace,
    Root,
    Shortcut,
    TraceLine,
    TraceSyntaxError,
    UnknownCopyReference,
    emit_trace,
    extract_graph,
    load_witness_trace,
    parse_trace,
    verify_trace,
)

from helpers import normalize_latex, reference_verify_trace

# ---------------------------------------------------------------------------
# fixtures

GOLDEN = Path(__file__).parent / "data" / "golden"
# the proofs the search emitted before it branched by lookahead, on the
# witness, S(2,4), S(2,5) and S(3,3): 87, 13, 36 and 543 lines against the
# golden 42, 5, 6 and 46.  They are still refutations, with the golden
# preambles, and the verifier's mutation tests draw on them
LONG = Path(__file__).parent / "data" / "long"


def corpus_text(name: str) -> str:
    """A graph's long proof when it has one, else its golden proof."""
    path = LONG / f"{name}.txt"
    if not path.exists():
        path = GOLDEN / f"{name}.txt"
    return path.read_text(encoding="utf-8")


def wheel5():
    """W5 with ring a-b-c-d-e and hub h (labels chosen for readable traces)."""
    ring = ["a", "b", "c", "d", "e"]
    edges = [("h", v) for v in ring] + list(zip(ring, ring[1:] + ring[:1]))
    return build_graph(ring + ["h"], edges)


# A complete branch elimination of W5 assuming only "h is a source":
# every acyclic completion of the ring contains two consecutive arcs
# u->v->w, and h-u-v-w is then a shortcut because (u, w) is a non-edge.
W5_TRACE_TEXT = """\
1. Ba->b (Copy 2) Bb->c (Copy 3) S:h-a-b-c
2. MC3 c->b Be->a (Copy 4) S:h-e-a-b
3. MC4 a->e Bd->e (Copy 5) Bc->d (Copy 6) S:h-c-d-e
4. MC6 d->c S:h-d-c-b
5. MC5 e->d S:h-a-e-d
6. MC2 b->a Ba->e (Copy 7) S:h-b-a-e
7. MC7 e->a Bd->e (Copy 8) S:h-d-e-a
8. MC8 e->d Bc->d (Copy 9) Bb->c (Copy 10) S:h-b-c-d
9. MC10 c->b S:h-c-b-a
10. MC9 d->c S:h-e-d-c
"""

# The same elimination with the root branch replaced by a preamble arc.
W5_WLOG_TRACE_TEXT = """\
1. Bb->c (Copy 2) S:h-a-b-c
2. MC2 c->b Be->a (Copy 3) S:h-e-a-b
3. MC3 a->e Bd->e (Copy 4) Bc->d (Copy 5) S:h-c-d-e
4. MC5 d->c S:h-d-c-b
5. MC4 e->d S:h-a-e-d
"""


def w5_trace():
    return ProofTrace(Preamble(source_vertex="h"), parse_trace(W5_TRACE_TEXT).lines)


# ---------------------------------------------------------------------------
# surface normalization


def test_normalize_latex_pinned_sample():
    sample = (
        "\\begin{tiny}\n"
        "\\noindent\n"
        "{\\bf 1.} B14$\\rightarrow$16 (Copy 2)   "
        "O14$\\rightarrow$12 (C12-14-16-13) S:13-14-16\\\\\n"
        "{\\bf 2.} MC2 16$\\rightarrow$14 S:13-16-14\\\\\n"
        "\\end{tiny}\n"
    )
    assert normalize_latex(sample) == (
        "1. B14->16 (Copy 2) O14->12 (C12-14-16-13) S:13-14-16\n"
        "2. MC2 16->14 S:13-16-14"
    )


def test_normalize_latex_drops_blank_lines():
    assert normalize_latex("\n\n1. Ba->b (Copy 2) S:a-b-c\n\n") == (
        "1. Ba->b (Copy 2) S:a-b-c"
    )


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_line_structure():
    trace = parse_trace("1. B14->16 (Copy 2) O14->12 (C12-14-16-13) S:13-14-16\n")
    assert len(trace.lines) == 1
    line = trace.lines[0]
    assert line.line_number == 1
    assert isinstance(line.opener, Root)
    assert line.steps == (
        Branch(arc=("14", "16"), copy_id=2),
        Orient(arcs=(("14", "12"),), cycle=("12", "14", "16", "13")),
    )
    assert line.terminal == Shortcut(path=("13", "14", "16"))


def test_parse_two_orient_steps_sharing_a_cycle():
    trace = parse_trace("1. O2->17 O17->15 (C2-17-15-12-4) S:4-2-17\n")
    assert trace.lines[0].steps == (
        Orient(arcs=(("2", "17"), ("17", "15")), cycle=("2", "17", "15", "12", "4")),
    )


def test_parse_move_copy_opener():
    trace = parse_trace(
        "1. Ba->b (Copy 2) S:h-a-b\n2. MC2 b->a O b->c (Cb-c-a) S:h-b-a\n"
    )
    line = trace.lines[1]
    assert line.opener == MoveCopy(copy_id=2, arc=("b", "a"))
    assert line.steps == (Orient(arcs=(("b", "c"),), cycle=("b", "c", "a")),)


def test_parse_accepts_arrow_glyph():
    ascii_form = parse_trace("1. Ba->b (Copy 2) S:h-a-b\n")
    glyph_form = parse_trace("1. Ba\u2192b (Copy 2) S:h-a-b\n")
    assert ascii_form.lines == glyph_form.lines


def test_parse_line_numbers_are_optional():
    numbered = parse_trace("1. Ba->b (Copy 2) S:h-a-b\n2. MC2 b->a S:h-b-a\n")
    bare = parse_trace("Ba->b (Copy 2) S:h-a-b\nMC2 b->a S:h-b-a\n")
    assert numbered.lines == bare.lines


def test_parse_returns_empty_preamble():
    trace = parse_trace("1. Ba->b (Copy 2) S:h-a-b\n2. MC2 b->a S:h-b-a\n")
    assert trace.preamble == Preamble()


# text -> (message part, line, column of the error)
MALFORMED = {
    "": ("empty trace", 1, 1),
    "1. MC2 a->b S:a-b-c\n": ("line 1 cannot resume a copy", 1, 4),
    "2. Ba->b (Copy 2) S:a-b-c\n": ("numbered 2 in position 1", 1, 4),
    "1. Ba->b (Copy 2)\n": ("missing S: terminal", 1, 18),
    "1. Ba->b (Copy 2) S:a-b-c junk\n": ("trailing text", 1, 27),
    "1. Ba->b (Copy 2) Bc->d (Copy 2) S:a-b-c\n": ("copy 2 created twice", 1, 31),
    "1. Ba->b S:a-b-c\n": ("expected", 1, 4),
    "1. Oa->b S:a-b-c\n": ("expected", 1, 10),
    "1. S:a\n": ("expected", 1, 4),
    "1. Oa-b (Ca-b-c) S:a-b-c\n": ("expected an orient step 'O x->y'", 1, 4),
    "1. Oa->b Oc- (Ca-b-c-d) S:a-b-c\n": ("expected a second orient arc", 1, 10),
    "1. Ba->b (Copy 2) Xa->b S:a-b-c\n": (
        "expected a B, O, MC, or S: instruction",
        1,
        19,
    ),
    # a tab and a no-break space are whitespace between steps, and each
    # counts as one column
    "1. Ba->b (Copy 2)\tX S:a-b-c\n": (
        "expected a B, O, MC, or S: instruction",
        1,
        19,
    ),
    "1. Ba->b (Copy 2)\u00a0\tOa->c S:a-b-c\n": (
        "expected a cycle annotation",
        1,
        26,
    ),
    "1. Ba->b (Copy 2) S:a-b-c\n2.\u00a0MC2 b->a\tQ S:a-b-c\n": (
        "expected a B, O, MC, or S: instruction",
        2,
        13,
    ),
}


@pytest.mark.parametrize(
    "text, message_part", [(text, part) for text, (part, _, _) in MALFORMED.items()]
)
def test_parse_rejects_malformed_text(text, message_part):
    with pytest.raises(TraceSyntaxError, match=message_part) as info:
        parse_trace(text)
    _, line, column = MALFORMED[text]
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize("indent", ["  ", "\t", "\u00a0 "])
def test_parse_indented_numbered_lines_as_unindented(indent):
    text = corpus_text("s33")
    indented = "".join(indent + raw for raw in text.splitlines(keepends=True))
    assert parse_trace(indented) == parse_trace(text)


def test_parse_rejects_unknown_copy_reference():
    with pytest.raises(UnknownCopyReference, match="copy 9 was never created"):
        parse_trace("1. Ba->b (Copy 2) S:a-b-c\n2. MC9 b->a S:a-b-c\n")


def test_parse_rejects_reusing_a_consumed_copy():
    text = (
        "1. Ba->b (Copy 2) S:a-b-c\n"
        "2. MC2 b->a S:a-b-c\n"
        "3. MC2 b->a S:a-b-c\n"
    )
    with pytest.raises(UnknownCopyReference, match="already consumed on line 2"):
        parse_trace(text)


def test_parse_allows_unconsumed_copies():
    # Ledger balance is the verifier's concern, not the parser's: a
    # truncated trace still parses, then fails verification.
    trace = parse_trace("1. Ba->b (Copy 2) S:h-a-b\n")
    assert len(trace.lines) == 1


# ---------------------------------------------------------------------------
# emission


def test_emit_formats_all_instruction_kinds():
    trace = parse_trace(
        "1. Ba->b (Copy 2) Oa->c (Ca-c-b) S:h-a-b\n"
        "2. MC2 b->a Ob->c Oc->d (Cb-c-d-a) S:h-b-a\n"
    )
    assert emit_trace(trace) == (
        "1. Ba->b (Copy 2) Oa->c (Ca-c-b) S:h-a-b\n"
        "2. MC2 b->a Ob->c Oc->d (Cb-c-d-a) S:h-b-a\n"
    )


def test_emit_parse_round_trip_on_w5_trace():
    # the hand-built W5 text and every golden and long proof; S(3,3)'s and
    # the witness's proofs hold two-arc O steps
    texts = {"hand-built": W5_TRACE_TEXT}
    for name in ("w5", "s23", "s24", "s25", "s33", "witness"):
        texts[name] = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    for path in LONG.glob("*.txt"):
        texts[f"long {path.stem}"] = path.read_text(encoding="utf-8")
    for name, text in texts.items():
        trace = parse_trace(text)
        assert emit_trace(trace) == text, name
        assert parse_trace(emit_trace(trace)).lines == trace.lines, name


@given(
    labels=st.lists(
        st.text(alphabet="abcxyz019", min_size=1, max_size=3),
        min_size=4,
        max_size=7,
        unique=True,
    ),
    data=st.data(),
)
def test_emit_parse_round_trip_on_generated_lines(labels, data):
    arcs = st.tuples(st.sampled_from(labels), st.sampled_from(labels)).filter(
        lambda ab: ab[0] != ab[1]
    )
    rings = st.lists(st.sampled_from(labels), min_size=3, max_size=5, unique=True)
    steps: list[Branch | Orient] = []
    copy_id = 2
    for kind in data.draw(st.lists(st.sampled_from("BOP"), max_size=4)):
        if kind == "B":
            steps.append(Branch(arc=data.draw(arcs), copy_id=copy_id))
            copy_id += 1
        elif kind == "O":
            steps.append(Orient((data.draw(arcs),), tuple(data.draw(rings))))
        else:  # a two-arc orient step
            steps.append(
                Orient((data.draw(arcs), data.draw(arcs)), tuple(data.draw(rings)))
            )
    terminal = Shortcut(path=tuple(data.draw(rings)))
    line = TraceLine(1, Root(), tuple(steps), terminal)
    trace = ProofTrace(Preamble(), (line,))
    assert parse_trace(emit_trace(trace)).lines == trace.lines


# ---------------------------------------------------------------------------
# graph extraction


def test_extract_graph_unions_arcs_cycles_and_terminals():
    trace = parse_trace("1. Ba->b (Copy 2) Oa->c (Ca-c-d) S:h-a-b\n")
    g = extract_graph(trace)
    assert g.labels == ("a", "b", "c", "d", "h")
    edges = {
        tuple(sorted((g.labels[u], g.labels[v]))) for u, v in g.edge_list()
    }
    # arc a->b and a->c; ring pairs a-c, c-d, d-a; terminal h-a, a-b, h-b
    assert edges == {
        ("a", "b"),
        ("a", "c"),
        ("c", "d"),
        ("a", "d"),
        ("a", "h"),
        ("b", "h"),
    }


def test_extract_graph_recovers_w5():
    assert extract_graph(w5_trace()) == wheel5()


# ---------------------------------------------------------------------------
# verification on hand-built traces


def test_w5_elimination_verifies():
    report = verify_trace(wheel5(), w5_trace())
    assert report.accepted
    assert all(s.accepted for s in report.line_statuses)
    assert sorted(report.copy_ledger) == list(range(2, 11))
    assert all(used is not None for _, used in report.copy_ledger.values())


def test_w5_elimination_agrees_with_the_oracle():
    result = brute_force_semitransitive(wheel5())
    assert result.verdict == "notexists"
    assert verify_trace(wheel5(), w5_trace()).accepted


def test_w5_elimination_with_preamble_arc_verifies():
    trace = ProofTrace(
        Preamble(wlog_arc=("a", "b"), source_vertex="h"),
        parse_trace(W5_WLOG_TRACE_TEXT).lines,
    )
    assert verify_trace(wheel5(), trace).accepted


def test_branching_on_a_preamble_arc_is_rejected():
    # the full trace re-branches on (a, b), which the preamble already set
    trace = ProofTrace(
        Preamble(wlog_arc=("a", "b"), source_vertex="h"),
        parse_trace(W5_TRACE_TEXT).lines,
    )
    report = verify_trace(wheel5(), trace)
    assert not report.accepted
    assert not report.line_statuses[0].accepted


def test_orienting_into_the_source_is_rejected():
    trace = ProofTrace(
        Preamble(source_vertex="h"),
        parse_trace("1. Ba->h (Copy 2) S:h-a-b\n").lines,
    )
    report = verify_trace(wheel5(), trace)
    assert not report.accepted
    assert "already-oriented" in report.line_statuses[0].reason


def test_unknown_vertex_label_is_rejected():
    trace = ProofTrace(
        Preamble(source_vertex="h"),
        parse_trace("1. Bzz->b (Copy 2) S:h-a-b\n").lines,
    )
    report = verify_trace(wheel5(), trace)
    assert not report.accepted
    assert "not a vertex" in report.line_statuses[0].reason


def test_arc_over_a_non_edge_is_rejected():
    trace = ProofTrace(
        Preamble(source_vertex="h"),
        parse_trace("1. Ba->c (Copy 2) S:h-a-b\n").lines,
    )
    report = verify_trace(wheel5(), trace)
    assert not report.accepted
    assert "not an edge" in report.line_statuses[0].reason


def test_unconsumed_copy_fails_the_ledger():
    truncated = ProofTrace(
        Preamble(source_vertex="h"),
        parse_trace(W5_TRACE_TEXT).lines[:-1],
    )
    report = verify_trace(wheel5(), truncated)
    assert all(s.accepted for s in report.line_statuses)
    assert not report.accepted
    created, consumed = report.copy_ledger[9]
    assert created == 8 and consumed is None


def _s33_duplicate_copy_mutant() -> ProofTrace:
    """S(3,3)'s golden proof with line 1's second branch renamed from copy
    3 to copy 2, copy 2's 28-line subtree (lines 19-46) dropped, and the
    line that resumed copy 3 reopened as MC2: an 18-line case analysis
    that never takes the other case of line 1's first branch."""
    pre = json.loads((GOLDEN / "preambles.json").read_text(encoding="utf-8"))["s33"]
    lines = parse_trace((GOLDEN / "s33.txt").read_text(encoding="utf-8")).lines
    assert len(lines) == 46 and lines[18].opener.copy_id == 2
    first, *rest = lines[:18]
    first = first._replace(steps=tuple(
        step._replace(copy_id=2) if isinstance(step, Branch) and step.copy_id == 3
        else step
        for step in first.steps
    ))
    rest = [
        line._replace(opener=line.opener._replace(copy_id=2))
        if isinstance(line.opener, MoveCopy) and line.opener.copy_id == 3 else line
        for line in rest
    ]
    return ProofTrace(Preamble(tuple(pre["wlog"]), pre["source"]), (first, *rest))


@pytest.mark.parametrize("verify", [verify_trace, reference_verify_trace])
def test_a_copy_created_twice_is_rejected_in_memory(verify):
    # the parser refuses the text of this mutant, but the solver's
    # self-check replays an in-memory trace that is never parsed
    trace = _s33_duplicate_copy_mutant()
    with pytest.raises(TraceSyntaxError, match="copy 2 created twice"):
        parse_trace(emit_trace(trace))
    report = verify(build_simplified(3, 3).graph, trace)
    assert not report.accepted
    assert report.line_statuses[0].reason == "copy 2 created twice"


def test_zero_line_trace_proves_nothing():
    trace = ProofTrace(Preamble(source_vertex="h"), ())
    assert not verify_trace(wheel5(), trace).accepted


def test_terminal_accepts_a_directed_cycle():
    # a directed ring a->b->c->d->a is fatal on its own; the terminal
    # lists the path with the closing edge oriented backward
    c4 = build_graph(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    )
    text = (
        "1. Ba->b (Copy 2) Bb->c (Copy 3) Bc->d (Copy 4) Bd->a (Copy 5) S:a-b-c-d\n"
    )
    trace = ProofTrace(Preamble(), parse_trace(text).lines)
    report = verify_trace(c4, trace)
    assert report.line_statuses[0].accepted


def test_terminal_directed_cycle_requires_the_full_ring():
    # with the closing edge unset the same walk proves nothing
    c4 = build_graph(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    )
    text = "1. Ba->b (Copy 2) Bb->c (Copy 3) Bc->d (Copy 4) S:a-b-c-d\n"
    trace = ProofTrace(Preamble(), parse_trace(text).lines)
    report = verify_trace(c4, trace)
    assert not report.line_statuses[0].accepted
    assert "closing arc" in report.line_statuses[0].reason


def test_terminal_needs_a_genuine_defect():
    # h->a->b with closing arc h->b is a directed triangle listing, not a
    # shortcut: every pair on the path is a forward edge.
    trace = ProofTrace(
        Preamble(source_vertex="h"),
        parse_trace("1. Ba->b (Copy 2) S:h-a-b\n").lines,
    )
    report = verify_trace(wheel5(), trace)
    assert not report.accepted
    assert not report.line_statuses[0].accepted


def test_one_orient_step_needs_its_cycle_to_force_the_arc():
    # after a->b alone, cycle a-b-h does not force b->h (h->b is set, and
    # the triangle path rule would force a->h instead)
    trace = ProofTrace(
        Preamble(source_vertex="h"),
        parse_trace("1. Ba->b (Copy 2) Ob->h (Ca-b-h) S:h-a-b\n").lines,
    )
    report = verify_trace(wheel5(), trace)
    assert not report.line_statuses[0].accepted


def k4():
    return build_graph(
        ["a", "b", "c", "d"],
        [(x, y) for i, x in enumerate("abcd") for y in "abcd"[i + 1 :]],
    )


@pytest.mark.parametrize(
    "graph, text, reason",
    [
        # a pair justified by a triangle
        (
            wheel5,
            "1. Oa->b Ob->c (Ca-b-h) S:h-a-b",
            "two orientations need a cycle of length >= 4, got Ca-b-h",
        ),
        # a forced edge that is not on the cycle, single and paired
        (wheel5, "1. Oc->d (Ca-b-h) S:h-a-b", "forced edge c-d is not on cycle Ca-b-h"),
        (
            wheel5,
            "1. Oa->b Oc->d (Ca-b-c-h) S:h-a-b",
            "forced edges must lie on cycle Ca-b-c-h",
        ),
        # a pair that names one edge twice
        (
            wheel5,
            "1. Oa->b Ob->a (Ca-b-c-h) S:h-a-b",
            "the two forced arcs name the same edge",
        ),
        # an edge the source already oriented the other way, single and paired
        (
            wheel5,
            "1. Oa->h (Ca-b-h) S:h-a-b",
            "edge a-h is already oriented the other way",
        ),
        (
            wheel5,
            "1. Ob->c Oa->h (Ca-b-c-h) S:h-a-b",
            "edge a-h is already oriented the other way",
        ),
        # a triangle without the directed path across it, or with only its
        # first arc
        (
            wheel5,
            "1. Oa->b (Ca-b-h) S:h-a-b",
            "triangle Ca-b-h lacks the directed path a->h->b",
        ),
        (
            wheel5,
            "1. Oh->b (Ca-b-h) S:h-a-b",
            "triangle Ca-b-h lacks the directed path h->a->b",
        ),
        # another ring edge left unset, single and paired
        (
            wheel5,
            "1. Oa->b (Ca-b-c-h) S:h-a-b",
            "cycle Ca-b-c-h edge b-c is not oriented",
        ),
        (
            wheel5,
            "1. Oa->b Ob->c (Ca-b-c-d-h) S:h-a-b",
            "cycle Ca-b-c-d-h edge c-d is not oriented",
        ),
        # a cycle that forces the other direction, single and paired
        (
            wheel5,
            "1. Ba->b (Copy 2) Ob->c (Ca-b-c-h) S:h-a-b",
            "cycle Ca-b-c-h does not force b->c",
        ),
        (
            wheel5,
            "1. Bc->d (Copy 2) Ob->a Oc->b (Ca-b-c-d-h) S:h-a-b",
            "cycle Ca-b-c-d-h does not force both b->a and c->b",
        ),
        # a clique ring, single and paired
        (
            k4,
            "1. Ba->b (Copy 2) Bb->c (Copy 3) Bc->d (Copy 4) Oa->d (Ca-b-c-d) S:a-b-c",
            "cycle vertices a-b-c-d induce a clique, so the two-edges-opposite "
            "rule does not apply",
        ),
        (
            k4,
            "1. Ba->b (Copy 2) Bb->c (Copy 3) Od->c Oa->d (Ca-b-c-d) S:a-b-c",
            "cycle vertices a-b-c-d induce a clique, so the two-edges-opposite "
            "rule does not apply",
        ),
    ],
)
def test_force_check_rejection_reasons(graph, text, reason):
    # W5 replays with its hub h as the source, K4 from no preamble
    g = graph()
    source = "h" if "h" in g.index else None
    trace = ProofTrace(Preamble(source_vertex=source), parse_trace(text).lines)
    (status,) = verify_trace(g, trace).line_statuses
    assert (status.accepted, status.reason) == (False, reason)


GOLDEN_GRAPHS = {
    "w5": lambda: build_wheel(5),
    "s23": lambda: build_simplified(2, 3).graph,
    "s24": lambda: build_simplified(2, 4).graph,
    "witness": lambda: extract_graph(load_witness_trace()),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
def test_force_check_rejects_every_reversed_o_step_of_the_golden_proofs(name):
    # each line is replayed after only the lines that made the copies it
    # resumes, which give it the same state as the whole trace does
    g = GOLDEN_GRAPHS[name]()
    pre = json.loads((GOLDEN / "preambles.json").read_text(encoding="utf-8"))[name]
    preamble = Preamble(tuple(pre["wlog"]), pre["source"])
    lines = parse_trace(corpus_text(name)).lines
    assert verify_trace(g, ProofTrace(preamble, lines)).accepted
    creator = {
        step.copy_id: line
        for line in lines
        for step in line.steps
        if isinstance(step, Branch)
    }
    reversed_steps = 0
    for line in lines:
        chain = [line]
        while isinstance(chain[-1].opener, MoveCopy):
            chain.append(creator[chain[-1].opener.copy_id])
        before = tuple(reversed(chain[1:]))
        for j, step in enumerate(line.steps):
            if not isinstance(step, Orient):
                continue
            for k, (x, y) in enumerate(step.arcs):
                steps = list(line.steps)
                arcs = step.arcs[:k] + ((y, x),) + step.arcs[k + 1 :]
                steps[j] = step._replace(arcs=arcs)
                mutated = line._replace(steps=tuple(steps))
                report = verify_trace(g, ProofTrace(preamble, before + (mutated,)))
                assert not report.line_statuses[-1].accepted, (line.line_number, j, k)
                reversed_steps += 1
    assert reversed_steps > 0


ARITIES = pytest.mark.parametrize(
    "ring, count", [(3, 0), (3, 3), (4, 0), (4, 3)]
)


def _golden_with_arity(ring: int, count: int) -> ProofTrace:
    """Line 1 of the S(2,3) proof, its first O step on a cycle of ``ring``
    vertices given the first ``count`` steps round that cycle as arcs."""
    pre = json.loads((GOLDEN / "preambles.json").read_text(encoding="utf-8"))["s23"]
    first = parse_trace((GOLDEN / "s23.txt").read_text(encoding="utf-8")).lines[0]
    steps = list(first.steps)
    j = next(
        j for j, step in enumerate(steps)
        if isinstance(step, Orient) and len(step.cycle) == ring
    )
    cyc = steps[j].cycle
    steps[j] = steps[j]._replace(arcs=tuple(zip(cyc, cyc[1:] + cyc[:1]))[:count])
    return ProofTrace(
        Preamble(tuple(pre["wlog"]), pre["source"]),
        (first._replace(steps=tuple(steps)),),
    )


@ARITIES
def test_force_check_rejects_an_orient_step_of_0_or_3_arcs(ring, count):
    g = GOLDEN_GRAPHS["s23"]()
    trace = _golden_with_arity(ring, count)
    report = verify_trace(g, trace)
    assert report.line_statuses[0] == (
        1,
        False,
        f"an orient step forces one or two arcs, not {count}",
    )
    assert report == reference_verify_trace(g, trace)


@ARITIES
def test_force_check_emit_refuses_an_orient_step_of_0_or_3_arcs(ring, count):
    # the text has no way to say it: an O step prints one or two arcs
    with pytest.raises(ValueError) as info:
        emit_trace(_golden_with_arity(ring, count))
    assert str(info.value) == (
        f"line 1: an orient step forces one or two arcs, not {count}"
    )


def test_mc_statement_must_match_the_deferred_arc():
    text = "1. Ba->b (Copy 2) Bb->c (Copy 3) S:h-a-b-c\n2. MC3 a->b S:h-a-b\n"
    trace = ProofTrace(Preamble(source_vertex="h"), parse_trace(text).lines)
    report = verify_trace(wheel5(), trace)
    assert not report.line_statuses[1].accepted
    assert "resumes with c->b" in report.line_statuses[1].reason


def test_verdict_is_per_line_and_later_lines_still_run():
    # break line 1's terminal; lines 2..10 must still replay cleanly
    lines = parse_trace(W5_TRACE_TEXT).lines
    bad_first = TraceLine(1, lines[0].opener, lines[0].steps, Shortcut(("h", "a", "b")))
    trace = ProofTrace(Preamble(source_vertex="h"), (bad_first,) + lines[1:])
    report = verify_trace(wheel5(), trace)
    assert not report.accepted
    assert [s.line_number for s in report.failures()] == [1]


# ---------------------------------------------------------------------------
# the bundled corpus


@pytest.fixture(scope="module")
def witness():
    trace = load_witness_trace()
    return trace, extract_graph(trace)


def test_witness_trace_has_100_lines(witness):
    trace, _ = witness
    assert len(trace.lines) == 100
    assert trace.preamble == WITNESS_PREAMBLE
    assert [line.line_number for line in trace.lines] == list(range(1, 101))


def test_witness_graph_shape(witness):
    _, g = witness
    assert g.n == 17
    assert len(g.edge_list()) == 38
    v = max_degree_vertex(g)
    assert g.labels[v] == "13"
    assert g.degree(v) == 6


def test_witness_trace_verifies_with_balanced_ledger(witness):
    trace, g = witness
    start = time.perf_counter()
    report = verify_trace(g, trace)
    elapsed = time.perf_counter() - start
    assert report.accepted
    assert all(s.accepted for s in report.line_statuses)
    assert sorted(report.copy_ledger) == list(range(2, 101))
    assert all(used is not None for _, used in report.copy_ledger.values())
    assert elapsed < 5.0


def test_witness_trace_round_trips_byte_for_byte(witness):
    trace, _ = witness
    from importlib import resources

    raw = (
        resources.files("wordrep.data")
        .joinpath("s33_witness_trace.txt")
        .read_text(encoding="utf-8")
    )
    assert emit_trace(trace) == raw
    assert parse_trace(emit_trace(trace)).lines == trace.lines


def test_witness_trace_derives_both_directions_of_15_17(witness):
    # the case analysis explores BOTH orientations of edge (15, 17): it
    # derives each direction on 17 lines and branches on the edge twice,
    # so it assumes nothing about that edge
    trace, _ = witness
    forwards, backwards, branch_lines = 0, 0, []
    for line in trace.lines:
        for step in line.steps:
            if isinstance(step, Orient):
                forwards += step.arcs.count(("15", "17"))
                backwards += step.arcs.count(("17", "15"))
            elif step.arc in (("15", "17"), ("17", "15")):
                branch_lines.append(line.line_number)
    assert forwards > 0 and backwards > 0
    assert branch_lines == [35, 51]


def test_witness_trace_rejects_under_an_edge_assumption(witness):
    # pinning the previous fact operationally: presetting 15->17 makes
    # the replay of every line that handles the other direction fail
    trace, g = witness
    assumed = ProofTrace(Preamble(("15", "17"), "13"), trace.lines)
    report = verify_trace(g, assumed)
    assert not report.accepted
    failures = report.failures()
    assert failures[0].line_number == 1
    assert len(failures) == 59


def test_witness_trace_rejects_against_a_smaller_graph(witness):
    trace, g = witness
    keep = [v for v in range(g.n) if g.labels[v] != "7"]
    smaller = induced_subgraph(g, keep)
    assert not verify_trace(smaller, trace).accepted


def test_witness_trace_mutation_is_caught(witness):
    trace, g = witness
    lines = trace.lines
    first = lines[0]
    tampered = TraceLine(1, first.opener, first.steps, Shortcut(("13", "3", "1", "15")))
    report = verify_trace(g, ProofTrace(trace.preamble, (tampered,) + lines[1:]))
    assert not report.accepted
    assert not report.line_statuses[0].accepted


def test_witness_trace_truncation_unbalances_the_ledger(witness):
    trace, g = witness
    report = verify_trace(g, ProofTrace(trace.preamble, trace.lines[:-1]))
    assert all(s.accepted for s in report.line_statuses)
    assert not report.accepted
    created, consumed = report.copy_ledger[100]
    assert consumed is None


# ---------------------------------------------------------------------------
# the compiled force checks against the plain per-step replay


def _proof(name: str):
    """A corpus proof with its graph and preamble, or the bundled one."""
    if name == "bundled":
        trace = load_witness_trace()
        return extract_graph(trace), trace
    pre = json.loads((GOLDEN / "preambles.json").read_text(encoding="utf-8"))[name]
    lines = parse_trace(corpus_text(name)).lines
    graph = build_simplified(3, 3).graph if name == "s33" else GOLDEN_GRAPHS[name]()
    return graph, ProofTrace(Preamble(tuple(pre["wlog"]), pre["source"]), lines)


def _heads(trace):
    """(line index, step index, step) of each O step."""
    return [
        (li, j, step)
        for li, line in enumerate(trace.lines)
        for j, step in enumerate(line.steps)
        if isinstance(step, Orient)
    ]


def _first_arc(step, arc):
    """``step``'s arcs with the first one replaced by ``arc``."""
    return (arc,) + step.arcs[1:]


def _replaced(trace, li, j, **fields):
    """The trace with step j of line li changed."""
    line = trace.lines[li]
    steps = list(line.steps)
    steps[j] = steps[j]._replace(**fields)
    lines = list(trace.lines)
    lines[li] = line._replace(steps=tuple(steps))
    return trace._replace(lines=tuple(lines))


def _off_cycle_arc(g, cycle, rng):
    ring = {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])}
    off = [
        (g.labels[a], g.labels[b])
        for a, b in g.edge_list()
        if frozenset((g.labels[a], g.labels[b])) not in ring
    ]
    return rng.choice(off)


def _mutations(g, trace, rng):
    """Seeded (graph, trace) mutations of a proof, one of each kind."""
    heads = _heads(trace)
    out = []
    # an arc reversed
    li, j, step = rng.choice(heads)
    arcs = _first_arc(step, step.arcs[0][::-1])
    out.append((g, _replaced(trace, li, j, arcs=arcs)))
    # a cycle rotated
    li, j, step = rng.choice(heads)
    k = rng.randrange(1, len(step.cycle))
    out.append((g, _replaced(trace, li, j, cycle=step.cycle[k:] + step.cycle[:k])))
    # a cycle label swapped for a non-neighbour of the label before it
    li, j, step = rng.choice(heads)
    cyc = step.cycle
    i = rng.randrange(len(cyc))
    before = g.index[cyc[i - 1]]
    strangers = [
        g.labels[v]
        for v in range(g.n)
        if v != before and not g.has_edge(before, v) and g.labels[v] not in cyc
    ]
    swapped = cyc[:i] + (rng.choice(strangers),) + cyc[i + 1 :]
    out.append((g, _replaced(trace, li, j, cycle=swapped)))
    # a label swapped for an unknown one, in the cycle and in the arc
    li, j, step = rng.choice(heads)
    i = rng.randrange(len(step.cycle))
    unknown = step.cycle[:i] + ("zz",) + step.cycle[i + 1 :]
    out.append((g, _replaced(trace, li, j, cycle=unknown)))
    arcs = _first_arc(step, (step.arcs[0][0], "zz"))
    out.append((g, _replaced(trace, li, j, arcs=arcs)))
    # a forced edge moved off its cycle
    li, j, step = rng.choice(heads)
    arcs = _first_arc(step, _off_cycle_arc(g, step.cycle, rng))
    out.append((g, _replaced(trace, li, j, arcs=arcs)))
    # a clique ring: the chords of a longer cycle added to the graph
    _, _, step = rng.choice([head for head in heads if len(head[2].cycle) > 3])
    labeled = [(g.labels[a], g.labels[b]) for a, b in g.edge_list()]
    chords = list(combinations(step.cycle, 2))
    out.append((build_graph(g.labels, labeled + chords), trace))
    # the same bad force on two lines: a single step's (cycle, arc) that
    # two lines use, taken off its cycle and reversed wherever it occurs
    where = {}
    for li, j, step in heads:
        if len(step.arcs) == 1:
            where.setdefault((step.cycle, step.arcs[0]), []).append((li, j))
    repeated = sorted(
        key for key, at in where.items() if len({li for li, _ in at}) > 1
    )
    if repeated:
        cyc, arc = rng.choice(repeated)
        for new_arc in (_off_cycle_arc(g, cyc, rng), arc[::-1]):
            mutated = trace
            for li, j in where[(cyc, arc)]:
                mutated = _replaced(mutated, li, j, arcs=(new_arc,))
            out.append((g, mutated))
    return out


@pytest.mark.parametrize(
    "name, seed",
    [
        (name, seed)
        for name in ("w5", "s23", "s24", "witness", "bundled")
        for seed in (0, 1, 2)
    ]
    + [("s33", 0)],
)
def test_verify_trace_matches_the_reference_replay(name, seed):
    # every report, ledger and reason included, equals the plain replay's
    g, trace = _proof(name)
    cases = [(g, trace)] + _mutations(g, trace, random.Random(seed))
    reports = [verify_trace(graph, mutated) for graph, mutated in cases]
    assert reports == [reference_verify_trace(graph, t) for graph, t in cases]
    assert reports[0].accepted
    assert sum(not r.accepted for r in reports) >= 5


def test_reference_replay_agrees_on_a_second_graph(witness):
    # the compiled forces are facts about one graph: a trace verified
    # against the witness and then against a graph without vertex 7 (whose
    # ids all shift) must be judged on the second graph alone
    trace, g = witness
    smaller = induced_subgraph(g, [v for v in range(g.n) if g.labels[v] != "7"])
    assert verify_trace(g, trace).accepted
    second = verify_trace(smaller, trace)
    assert not second.accepted
    assert second == reference_verify_trace(smaller, trace)
    assert verify_trace(g, trace) == reference_verify_trace(g, trace)


def _with_steps(trace, li, at, new_steps, terminal=None):
    """The trace with ``new_steps`` inserted at step index ``at`` of line
    li, and its terminal path replaced when one is given."""
    line = trace.lines[li]
    steps = line.steps[:at] + tuple(new_steps) + line.steps[at:]
    line = line._replace(steps=steps)
    if terminal is not None:
        line = line._replace(terminal=Shortcut(terminal))
    lines = list(trace.lines)
    lines[li] = line
    return trace._replace(lines=tuple(lines))


def _arc_row_mutations(g, trace, rng):
    """Seeded mutations that reach each test the replay makes on its arc
    rows: (graph, trace, line index, a part of that line's reason, or
    None when the line must be accepted)."""
    source = trace.preamble.source_vertex
    fresh = 1 + max(
        (step.copy_id for line in trace.lines for step in line.steps
         if isinstance(step, Branch)),
        default=1,
    )
    heads = [
        (li, j, step) for li, j, step in _heads(trace) if source not in step.arcs[0]
    ]
    li, j, step = rng.choice(heads)
    after = j + 1
    x, y = step.arcs[0]
    out = [
        # a forced arc against one the line has set
        (g, _with_steps(trace, li, after, [Orient(((y, x),), step.cycle)]), li,
         "already oriented the other way"),
    ]
    # a branch on an edge the line has oriented, either way round
    for arc in ((x, y), (y, x)):
        out.append((g, _with_steps(trace, li, after, [Branch(arc, fresh)]), li,
                    "branch on already-oriented edge"))
    # a preamble arc into the source, against the source's own arcs
    s = g.index[source]
    u = g.labels[rng.choice(g.neighbors(s))]
    into = trace._replace(preamble=trace.preamble._replace(wlog_arc=(u, source)))
    out.append((g, into, 0, "conflicts with the existing orientation"))
    # an MC line that resumes with its copy's branch arc, not the deferred
    # one (W5's proof has a single line)
    if len(trace.lines) > 1:
        li = rng.randrange(1, len(trace.lines))
        line = trace.lines[li]
        opener = line.opener._replace(arc=line.opener.arc[::-1])
        lines = list(trace.lines)
        lines[li] = line._replace(opener=opener)
        out.append((g, trace._replace(lines=tuple(lines)), li, "resumes with"))
    # new vertices zz, joined to both ends of the arc x->y, and zq, joined
    # to x, y and zz; at the end of the line, terminal paths:
    li, j, step = rng.choice(heads)
    after = j + 1
    x, y = step.arcs[0]
    labeled = [(g.labels[a], g.labels[b]) for a, b in g.edge_list()]
    wider = build_graph(
        [*g.labels, "zz", "zq"],
        labeled + [(x, "zz"), (y, "zz"), (x, "zq"), (y, "zq"), ("zz", "zq")],
    )

    def line_end(new_steps, path):
        return _with_steps(trace, li, after, new_steps, path)

    def branches(*arcs):
        return [Branch(arc, fresh + i) for i, arc in enumerate(arcs)]

    out += [
        # over the unset arc x->zz
        (wider, line_end([], (x, "zz", y)), li, "is not oriented that way"),
        # over the reversed arc y->x
        (wider, line_end([], (y, x, "zz")), li, "is not oriented that way"),
        # x->y->zz with the closing arc zz->x pointing back: a directed cycle
        (wider, line_end(branches((y, "zz"), ("zz", x)), (x, y, "zz")), li,
         None),
        # x->y->zz->zq with the closing arc x->zq, whose only violating
        # pair is the backward arc zz->x
        (wider, line_end(
            branches((y, "zz"), ("zz", "zq"), (x, "zq"), ("zz", x), (y, "zq")),
            (x, y, "zz", "zq"),
        ), li, None),
    ]
    return out


@pytest.mark.parametrize(
    "name, seed",
    [
        (name, seed)
        for name in ("w5", "s23", "s24", "witness", "bundled")
        for seed in (0, 1, 2)
    ]
    + [("s33", 0)],
)
def test_arc_row_mutations_match_the_reference(name, seed):
    # the replay's own arc rows give the reports of the reference replay on
    # a PartialOrientation, and each mutation reaches the test it aims at
    g, trace = _proof(name)
    for graph, mutated, li, reason in _arc_row_mutations(
        g, trace, random.Random(seed)
    ):
        report = verify_trace(graph, mutated)
        assert report == reference_verify_trace(graph, mutated)
        status = report.line_statuses[li]
        if reason is None:
            assert status.accepted
        else:
            assert not status.accepted and reason in status.reason

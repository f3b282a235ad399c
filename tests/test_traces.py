"""Proof-trace parsing, emission, graph extraction, and verification.

The bundled 100-line witness trace is the golden corpus: it must
round-trip byte-for-byte, extract the expected 17-vertex graph, and
verify with a balanced branch ledger.  Hand-built eliminations of the
5-wheel cross-check the verifier against the brute-force oracle.
"""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordrep.graphs import build_graph, build_wheel, max_degree_vertex
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

from helpers import normalize_latex

# ---------------------------------------------------------------------------
# fixtures


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
        Orient(arc=("14", "12"), cycle=("12", "14", "16", "13")),
    )
    assert line.terminal == Shortcut(path=("13", "14", "16"))


def test_parse_two_orient_steps_sharing_a_cycle():
    trace = parse_trace("1. O2->17 O17->15 (C2-17-15-12-4) S:4-2-17\n")
    first, second = trace.lines[0].steps
    assert first == Orient(
        arc=("2", "17"), cycle=("2", "17", "15", "12", "4"), paired_with_next=True
    )
    assert second == Orient(arc=("17", "15"), cycle=("2", "17", "15", "12", "4"))


def test_parse_move_copy_opener():
    trace = parse_trace(
        "1. Ba->b (Copy 2) S:h-a-b\n2. MC2 b->a O b->c (Cb-c-a) S:h-b-a\n"
    )
    line = trace.lines[1]
    assert line.opener == MoveCopy(copy_id=2, arc=("b", "a"))
    assert line.steps == (Orient(arc=("b", "c"), cycle=("b", "c", "a")),)


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


@pytest.mark.parametrize(
    "text, message_part",
    [
        ("", "empty trace"),
        ("1. MC2 a->b S:a-b-c\n", "line 1 cannot resume a copy"),
        ("2. Ba->b (Copy 2) S:a-b-c\n", "numbered 2 in position 1"),
        ("1. Ba->b (Copy 2)\n", "missing S: terminal"),
        ("1. Ba->b (Copy 2) S:a-b-c junk\n", "trailing text"),
        ("1. Ba->b (Copy 2) Bc->d (Copy 2) S:a-b-c\n", "copy 2 created twice"),
        ("1. Ba->b S:a-b-c\n", "expected"),
        ("1. Oa->b S:a-b-c\n", "expected"),
        ("1. S:a\n", "expected"),
    ],
)
def test_parse_rejects_malformed_text(text, message_part):
    with pytest.raises(TraceSyntaxError, match=message_part):
        parse_trace(text)


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
    trace = parse_trace(W5_TRACE_TEXT)
    assert emit_trace(trace) == W5_TRACE_TEXT
    assert parse_trace(emit_trace(trace)).lines == trace.lines


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
            steps.append(Orient(arc=data.draw(arcs), cycle=tuple(data.draw(rings))))
        else:  # a paired two-orientation step
            ring = tuple(data.draw(rings))
            steps.append(Orient(data.draw(arcs), ring, paired_with_next=True))
            steps.append(Orient(data.draw(arcs), ring))
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
                if step.arc == ("15", "17"):
                    forwards += 1
                elif step.arc == ("17", "15"):
                    backwards += 1
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
    from wordrep.graphs import induced_subgraph

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

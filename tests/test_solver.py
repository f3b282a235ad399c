"""The branch-and-propagate solver: propagation rules, verdicts, traces.

Every negative verdict's trace must verify; verdicts must agree with the
exhaustive orientation oracle and be invariant under source choice and
trace emission, and the first-branch arc must meet the precondition of
the symmetry that fixes it.
"""

import hashlib
import itertools
import json
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordrep import solver
from wordrep.debruijn import build_simplified
from wordrep.graphs import LabeledGraph, build_graph, build_wheel, induced_subgraph
from wordrep.orientations import (
    UNSET,
    Orientation,
    PartialOrientation,
    brute_force_semitransitive,
    find_shortcut,
    is_acyclic,
    is_semitransitive,
    shortcut_under,
    shortest_path,
)
from wordrep.solver import (
    BudgetExceeded,
    NonSemiTransitive,
    SemiTransitive,
    SolverConfig,
    _almost_forced_counts,
    _canonical_ring_print,
    _cycle_inventory,
    _next_force,
    _scan_defect,
    _WatchedOrientation,
    propagate,
    solve,
)
from wordrep.traces import (
    Branch,
    MoveCopy,
    Orient,
    Preamble,
    ProofTrace,
    emit_trace,
    extract_graph,
    load_witness_trace,
    parse_trace,
    verify_trace,
)
from wordrep.words import BudgetExceeded as WordSearchBudgetExceeded
from wordrep.words import find_uniform_representant

from helpers import (
    fix_source,
    reference_is_semitransitive,
    reference_rings,
    reference_rows,
    unset_edges,
    witness_fault,
)

GOLDEN = Path(__file__).parent / "data" / "golden"

# ---------------------------------------------------------------------------
# fixtures


def triangle():
    return build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def c4():
    return build_graph(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    )


def path4():
    return build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])


def complete(n):
    labels = [f"v{i}" for i in range(n)]
    return LabeledGraph(labels, itertools.combinations(range(n), 2))


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield LabeledGraph([str(v) for v in range(n)], edges)


def random_graph(rng, n, p):
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
    ]
    return LabeledGraph([str(v) for v in range(n)], edges)


# ---------------------------------------------------------------------------
# types


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SolverConfig(budget=0)
    with pytest.raises(ValueError):
        SolverConfig(cycle_len=2)


# ---------------------------------------------------------------------------
# fix_source


def test_fix_source_star_orients_all_arcs_outward():
    star = build_graph(["c", "x", "y", "z"], [("c", "x"), ("c", "y"), ("c", "z")])
    po = fix_source(PartialOrientation(star), 0)
    assert sorted(po.arcs()) == [(0, 1), (0, 2), (0, 3)]
    assert po.fully_oriented()
    assert is_semitransitive(Orientation(star, tuple(po.arcs())))


def test_fix_source_wheel_hub_leaves_rim_unset():
    w5 = build_wheel(5)
    hub = w5.index["h"]
    po = fix_source(PartialOrientation(w5), hub)
    assert len(list(po.arcs())) == 5
    assert all(t == hub for t, _ in po.arcs())
    assert len(unset_edges(po)) == 5


def test_fix_source_is_pure_and_rejects_oriented_edges():
    g = triangle()
    po = PartialOrientation(g)
    po.set_arc(1, 0)
    with pytest.raises(ValueError):
        fix_source(po, 0)
    fresh = PartialOrientation(g)
    fix_source(fresh, 0)
    assert list(fresh.arcs()) == []


def test_fix_source_on_the_witness_graph_source_13():
    g = extract_graph(load_witness_trace())
    v13 = g.index["13"]
    po = fix_source(PartialOrientation(g), v13)
    arcs = sorted(po.arcs())
    assert len(arcs) == g.degree(v13) == 6
    assert all(t == v13 for t, _ in arcs)


# ---------------------------------------------------------------------------
# propagate


def watched(po, cycle_len=solver.DEFAULT_CYCLE_LEN):
    """``po`` as the search holds it, with the cycles up to ``cycle_len``."""
    out = _WatchedOrientation(po.graph, _cycle_inventory(po.graph, cycle_len))
    for t, h in po.arcs():
        out.set_arc(t, h)
    return out


def test_propagate_triangle_forces_the_transitive_arc():
    po = watched(PartialOrientation(triangle()))
    po.set_arc(0, 1)
    po.set_arc(1, 2)
    assert propagate(po) == ([Orient((("a", "c"),), ("a", "c", "b"))], None)
    assert po.has_arc(0, 2)


def test_propagate_c4_forces_both_remaining_edges_opposite():
    po = watched(PartialOrientation(c4()))
    po.set_arc(0, 1)
    po.set_arc(1, 2)
    steps, witness = propagate(po)
    assert witness is None
    # one two-arc force, recorded as one step
    (step,) = steps
    assert set(step.arcs) == {("d", "c"), ("a", "d")}
    assert step.cycle == ("a", "d", "c", "b")
    assert po.has_arc(3, 2) and po.has_arc(0, 3)
    assert po.fully_oriented()


def test_propagate_replays_the_first_two_forced_arcs_of_the_witness_line_1():
    g = extract_graph(load_witness_trace())
    po = watched(fix_source(PartialOrientation(g), g.index["13"]))
    po.set_arc(g.index["14"], g.index["16"])
    steps, _ = propagate(po)
    assert steps[:2] == [
        Orient((("14", "12"),), ("12", "14", "16", "13")),
        Orient((("4", "12"),), ("4", "13", "14", "12")),
    ]


def test_propagate_reports_fixpoint_when_nothing_applies():
    po = watched(PartialOrientation(c4()))
    po.set_arc(0, 1)
    assert propagate(po) == ([], None)


def test_propagate_reports_contradiction_with_a_terminal_path():
    # a->b->c with closing arc a->c set and (a,c)... use P3 inside a path
    # graph: a->b->c plus the non-adjacent pair (a, c) is healable, so
    # build a genuine shortcut instead: directed C4 path with chord
    g = build_graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")],
    )
    po = watched(PartialOrientation(g))
    po.set_arc(0, 1)
    po.set_arc(1, 2)
    po.set_arc(2, 3)
    po.set_arc(0, 3)  # a->d closes the shortcut a-b-c-d: (b, d) non-edge
    _, witness = propagate(po)
    assert witness == ("a", "b", "c", "d")


def test_propagate_path_rule_decides_edges_on_existing_paths():
    # chordless C5 with a->b->c->d->e set and the cycle inventory capped
    # below the ring length: only a directed-path argument can decide the
    # last edge (e->a would close a directed cycle), and the forced a->e
    # then completes a shortcut over the non-edge (a, c)
    ring = ["a", "b", "c", "d", "e"]
    g = build_graph(ring, list(zip(ring, ring[1:] + ring[:1])))
    po = watched(PartialOrientation(g), cycle_len=3)
    for i in range(4):
        po.set_arc(i, i + 1)  # a->b->c->d->e
    assert propagate(po) == (
        [Orient((("a", "e"),), ("a", "e", "d", "c", "b"))],
        ("a", "b", "c", "d", "e"),
    )


def _flip_is_defective(g, arcs, cycle, arc):
    """With ``arc`` reversed, the sub-orientation that ``arcs`` induce on
    the vertices of ``cycle`` (labels) has a directed cycle or a shortcut."""
    kept = sorted(g.index[label] for label in cycle)
    remap = {v: i for i, v in enumerate(kept)}
    mini = PartialOrientation(induced_subgraph(g, kept))
    for t, h in arcs:
        if t in remap and h in remap:
            if (t, h) == arc:
                t, h = h, t
            mini.set_arc(remap[t], remap[h])
    return not is_acyclic(mini) or find_shortcut(mini) is not None


def test_forced_arcs_survive_their_own_flip_check(monkeypatch):
    # each force is justified by its cycle: once the force's arcs are set,
    # reversing any one of them leaves the cycle's induced sub-orientation
    # defective.  The solver does not check this itself (the verifier
    # re-checks every Orient step of a proof), so every force of two
    # whole searches is checked here.
    calls = []

    def recorded(po):
        arcs = list(po.arcs())
        steps, witness = propagate(po)
        calls.append((po.graph, arcs, steps))
        return steps, witness

    monkeypatch.setattr(solver, "propagate", recorded)
    for g in (build_wheel(5), extract_graph(load_witness_trace())):
        assert isinstance(solve(g), NonSemiTransitive)
    checked = set()
    for g, arcs, steps in calls:
        for step in steps:
            force = [(g.index[t], g.index[h]) for t, h in step.arcs]
            arcs.extend(force)
            for arc in force:
                assert _flip_is_defective(g, arcs, step.cycle, arc)
            checked.add((len(force), len(step.cycle)))
    # one-arc and two-arc forces, over triangles and longer cycles
    assert {1, 2} <= {n for n, _ in checked} and {3, 4} <= {m for _, m in checked}


# ---------------------------------------------------------------------------
# solve: verdicts and certificates


def test_p4_is_semitransitive():
    verdict = solve(path4())
    assert isinstance(verdict, SemiTransitive)
    assert is_semitransitive(verdict.orientation)


def test_w5_is_not_semitransitive_and_the_trace_verifies():
    w5 = build_wheel(5)
    verdict = solve(w5)
    assert isinstance(verdict, NonSemiTransitive)
    report = verify_trace(w5, verdict.trace)
    assert report.accepted
    assert brute_force_semitransitive(w5).verdict == "notexists"


def test_the_witness_graph_is_not_semitransitive():
    g = extract_graph(load_witness_trace())
    verdict = solve(g)
    assert isinstance(verdict, NonSemiTransitive)
    report = verify_trace(g, verdict.trace)
    assert report.accepted
    assert verdict.trace.preamble.source_vertex == "13"


def test_complete_graphs_orient_transitively():
    for n in (2, 3, 4, 6):
        verdict = solve(complete(n))
        assert isinstance(verdict, SemiTransitive)


def test_odd_wheels_are_rejected():
    for m in (5, 7, 9):
        verdict = solve(build_wheel(m))
        assert isinstance(verdict, NonSemiTransitive)
        g = build_wheel(m)
        assert verify_trace(g, verdict.trace).accepted


def test_even_wheels_are_accepted():
    for m in (4, 6, 8):
        assert isinstance(solve(build_wheel(m)), SemiTransitive)


def test_empty_and_tiny_graphs():
    assert isinstance(solve(LabeledGraph([], [])), SemiTransitive)
    assert isinstance(solve(LabeledGraph(["a"], [])), SemiTransitive)
    assert isinstance(solve(LabeledGraph(["a", "b"], [(0, 1)])), SemiTransitive)


def test_disconnected_graphs_solve_componentwise():
    # W5 plus a separate triangle: the W5 component decides the verdict,
    # and its trace must verify against the whole graph
    w5 = build_wheel(5)
    labels = list(w5.labels) + ["x", "y", "z"]
    shift = w5.n
    edges = list(w5.edge_list()) + [
        (shift, shift + 1),
        (shift + 1, shift + 2),
        (shift, shift + 2),
    ]
    g = LabeledGraph(labels, edges)
    verdict = solve(g)
    assert isinstance(verdict, NonSemiTransitive)
    assert verify_trace(g, verdict.trace).accepted

    # two positive components merge into one orientation: a 4-cycle on the
    # even ids and a triangle on the odd ones, so each component's ids map
    # back to interleaved ids of the whole graph; the source "c" (5) lies
    # in the second component, so the first starts at its own max degree
    two = LabeledGraph(
        ["p", "a", "q", "b", "r", "c", "s"],
        [(0, 2), (2, 4), (4, 6), (0, 6), (1, 3), (3, 5), (1, 5)],
    )
    for source, arcs in [
        (None, ((0, 2), (0, 6), (2, 4), (6, 4), (1, 3), (1, 5), (3, 5))),
        ("c", ((0, 2), (0, 6), (2, 4), (6, 4), (1, 3), (5, 1), (5, 3))),
    ]:
        verdict = solve(two, SolverConfig(source=source))
        assert isinstance(verdict, SemiTransitive)
        assert verdict.orientation.arcs == arcs
        assert is_semitransitive(verdict.orientation)


def test_budget_exhaustion_is_reported():
    verdict = solve(build_wheel(5), SolverConfig(budget=1))
    assert isinstance(verdict, BudgetExceeded)
    assert verdict.nodes == 2


def test_unknown_source_label_is_an_error():
    with pytest.raises(ValueError, match="source label"):
        solve(path4(), SolverConfig(source="zz"))


# ---------------------------------------------------------------------------
# solve: invariances (exhaustive on small graphs)


def test_verdict_matches_oracle_on_all_4_and_5_vertex_graphs():
    for g in itertools.chain(all_graphs(4), all_graphs(5)):
        expected = brute_force_semitransitive(g).verdict == "exists"
        verdict = solve(g)
        assert isinstance(verdict, SemiTransitive) == expected, g.edge_list()
        if isinstance(verdict, NonSemiTransitive):
            assert verify_trace(g, verdict.trace).accepted, g.edge_list()


def test_verdict_is_invariant_under_source_choice_on_4_vertices():
    for g in all_graphs(4):
        answers = {
            isinstance(solve(g, SolverConfig(source=str(s))), SemiTransitive)
            for s in range(g.n)
        }
        assert len(answers) == 1, g.edge_list()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verdict_matches_oracle_on_random_5_and_6_vertex_graphs(data):
    n = data.draw(st.integers(5, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p in pairs if data.draw(st.booleans())]
    g = LabeledGraph([str(v) for v in range(n)], edges)
    expected = brute_force_semitransitive(g).verdict == "exists"
    verdict = solve(g)
    assert isinstance(verdict, SemiTransitive) == expected
    if isinstance(verdict, NonSemiTransitive):
        assert verify_trace(g, verdict.trace).accepted


def test_emitted_traces_have_balanced_copy_ledgers():
    g = extract_graph(load_witness_trace())
    verdict = solve(g)
    report = verify_trace(g, verdict.trace)
    assert report.accepted
    ids = sorted(report.copy_ledger)
    assert ids == list(range(2, len(ids) + 2))
    assert all(used is not None for _, used in report.copy_ledger.values())


def test_luby_gives_the_restart_sequence():
    assert [solver.luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]


def _copy_events(trace):
    """("bank", copy id) per B step and ("resume", copy id) per MC line, in
    the order of the proof."""
    events = []
    for line in trace.lines:
        if isinstance(line.opener, MoveCopy):
            events.append(("resume", line.opener.copy_id))
        events += [("bank", s.copy_id) for s in line.steps if isinstance(s, Branch)]
    return events


@pytest.mark.parametrize("unit", [solver.UNIT, 1, 3])
def test_copy_store_ids_start_at_two_and_resume_on_the_luby_schedule(
    unit, monkeypatch
):
    # copies are created as 2, 3, ...; a resume takes the highest pending
    # id, the newest copy, except that after unit * luby(j) such resumes
    # the j-th jump takes the lowest, the oldest.  The order is read off
    # the snapshots the search banks and restores.  The witness resumes 41
    # copies, fewer than a jump needs at the default unit, so that case
    # runs S(4,4)'s search, which resumes 98 and jumps once; the small
    # units jump 20 and 9 times on the witness.
    default = unit == solver.UNIT
    monkeypatch.setattr(solver, "UNIT", unit)
    snapshot, restore = _WatchedOrientation.snapshot, _WatchedOrientation.restore
    banked, events = {}, []

    def banking(po):
        bank = snapshot(po)
        cid = len(banked) + 2
        banked[id(bank)] = cid, bank  # kept alive, so no id is reused
        events.append(("bank", cid))
        return bank

    def resuming(po, bank):
        events.append(("resume", banked[id(bank)][0]))
        restore(po, bank)

    monkeypatch.setattr(_WatchedOrientation, "snapshot", banking)
    monkeypatch.setattr(_WatchedOrientation, "restore", resuming)
    if default:
        verdict = solve(build_simplified(4, 4).graph, SolverConfig(budget=3000))
        assert isinstance(verdict, SemiTransitive)
    else:
        verdict = solve(extract_graph(load_witness_trace()))
        # the proof names the copies in the order they were banked and resumed
        assert _copy_events(verdict.trace) == events
    pending = set()
    j = dives = lowest_differs = resumes = 0
    for kind, cid in events:
        if kind == "bank":
            pending.add(cid)
            continue
        resumes += 1
        if dives < unit * solver.luby(j + 1):
            dives += 1
            expected = max(pending)
        else:
            j, dives = j + 1, 0
            expected = min(pending)
            lowest_differs += expected != max(pending)
        assert cid == expected
        pending.remove(expected)
    assert resumes > unit and lowest_differs > 0
    assert not pending or isinstance(verdict, SemiTransitive)


GOLDEN_GRAPHS = {
    "w5": lambda: build_wheel(5),
    "s23": lambda: build_simplified(2, 3).graph,
    "witness": lambda: extract_graph(load_witness_trace()),
    "s24": lambda: build_simplified(2, 4).graph,
    "s25": lambda: build_simplified(2, 5).graph,
    "s33": lambda: build_simplified(3, 3).graph,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
def test_emitted_proofs_match_the_golden_files(name):
    # any change to the search, the rules or the traversals that alters a
    # proof must show up here as a deliberate update of tests/data/golden
    verdict = solve(GOLDEN_GRAPHS[name]())
    assert isinstance(verdict, NonSemiTransitive)
    preamble = json.loads((GOLDEN / "preambles.json").read_text(encoding="utf-8"))[name]
    assert verdict.trace.preamble.source_vertex == preamble["source"]
    assert list(verdict.trace.preamble.wlog_arc) == preamble["wlog"]
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert emit_trace(verdict.trace).encode("utf-8") == expected


def _w5_labellings():
    """W5 on the labels 0..5 in each of its distinct ways."""
    w5 = build_wheel(5)
    edge_sets = {
        frozenset(tuple(sorted((perm[a], perm[b]))) for a, b in w5.edge_list())
        for perm in itertools.permutations(range(6))
    }
    labels = [str(v) for v in range(6)]
    return [LabeledGraph(labels, sorted(edges)) for edges in sorted(edge_sets, key=sorted)]


def test_the_wlog_arc_is_an_edge_off_the_source():
    # the module docstring's reversal argument fixes the first branch's
    # arc only on an edge of g that is not incident to the source.  W5 is
    # the only graph on at most six vertices that is not semi-transitive,
    # so its labellings are every negative verdict on six vertices (and
    # there is none on four or five); then each golden graph, and W5 as
    # the second component of a graph
    labellings = _w5_labellings()
    assert len(labellings) == 72  # 6! over W5's 10 automorphisms
    w5 = build_wheel(5)
    two = LabeledGraph(
        ["a", "b", "c", *w5.labels],
        [(0, 1), (1, 2), (0, 2), *((a + 3, b + 3) for a, b in w5.edge_list())],
    )
    for g in [*labellings, *(make() for make in GOLDEN_GRAPHS.values()), two]:
        verdict = solve(g)
        assert isinstance(verdict, NonSemiTransitive), g.edge_list()
        source = verdict.trace.preamble.source_vertex
        tail, head = verdict.trace.preamble.wlog_arc
        assert g.has_edge(g.index[tail], g.index[head]), g.edge_list()
        assert source not in (tail, head), g.edge_list()


def _line_digest(text):
    """sha256, first 16 hex digits, of a proof's lines sorted, with the
    line numbers and the copy ids blanked: the same digest for the same
    tree searched in another order."""
    lines = sorted(
        re.sub(r"(?<=^MC)\d+|(?<=\(Copy )\d+", "", line.split(". ", 1)[1])
        for line in text.splitlines()
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


# the digests of the golden proofs, with their line counts.  The witness
# and S(3,3) are left out: the lookahead gate counts the lines ended so
# far, so the resume order moves where the search probes, and at UNIT 1
# they take 60 and 144 lines against 42 and 46
GOLDEN_LINE_DIGESTS = {
    "w5": ("b70a23dfddad1c26", 1),
    "s23": ("0b26ad5a482522a0", 4),
    "s24": ("e8f7a6fdcc7b452b", 5),
    "s25": ("2b02f3c2bc54e526", 6),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LINE_DIGESTS))
def test_golden_proofs_keep_their_lines_in_any_resume_order(name, monkeypatch):
    # the digest pins a proof's lines whatever their order and copy
    # numbers: with jumps to the oldest copy after luby(j) dives, not
    # 64 * luby(j), the search must still give the golden proof's lines
    monkeypatch.setattr(solver, "UNIT", 1)
    verdict = solve(GOLDEN_GRAPHS[name]())
    assert isinstance(verdict, NonSemiTransitive)
    text = emit_trace(verdict.trace)
    assert (_line_digest(text), len(text.splitlines())) == GOLDEN_LINE_DIGESTS[name]


@pytest.mark.parametrize("name,kept", [("w5", 15), ("witness", 35)])
def test_a_golden_proof_fails_on_each_positive_graph_one_pair_away(name, kept):
    # the negative verdicts rest on the replay, so it must not accept a
    # proof of G against a G' that has a semi-transitive orientation: G
    # with one vertex pair toggled, kept when solve orients it and the
    # reference checker accepts the orientation.  W5 toggles every pair;
    # the witness deletes each of its 38 edges (8 of its 98 added edges
    # also give a positive G', but the 90 negative solves take seconds).
    # S(2,3) and S(2,4) have no positive toggle.
    g = GOLDEN_GRAPHS[name]()
    pre = json.loads((GOLDEN / "preambles.json").read_text(encoding="utf-8"))[name]
    lines = parse_trace((GOLDEN / f"{name}.txt").read_text(encoding="utf-8")).lines
    trace = ProofTrace(Preamble(tuple(pre["wlog"]), pre["source"]), lines)
    assert verify_trace(g, trace).accepted
    pairs = itertools.combinations(range(g.n), 2) if name == "w5" else sorted(g.edges)
    positive = 0
    for pair in pairs:
        toggled = LabeledGraph(g.labels, set(g.edges) ^ {pair})
        verdict = solve(toggled)
        if isinstance(verdict, SemiTransitive) and reference_is_semitransitive(
            toggled, verdict.orientation.arcs
        ):
            positive += 1
            assert not verify_trace(toggled, trace).accepted, pair
    assert positive == kept


# sha256 of repr(arcs), first 16 hex digits, of the orientation solve finds
GOLDEN_ORIENTATIONS = {
    (6, 2): "70961b6013234bab",
    (7, 2): "b2d91f553268da44",
    (4, 3): "9e74b945ba123151",
    (8, 2): "013fd5ee9cb7c9bf",
    (5, 3): "de21a4a24ccf09fd",
    (4, 4): "13d63d546471dc91",
    (6, 3): "d80fda65041099c1",
    (5, 4): "0bacdb4a1700d1b6",
}


@pytest.mark.parametrize("n,k", sorted(GOLDEN_ORIENTATIONS))
def test_found_orientations_match_the_golden_hashes(n, k, monkeypatch):
    # the positive counterpart of the golden proofs: a change to the
    # search that picks another orientation must show up here.  The node
    # budget keeps the reach of the dives: resuming the oldest copy first
    # took 4,199 nodes on S(4,4) and ran out of memory on S(6,3), and the
    # dives take 454 and 1,120.  A budget is deterministic, so this cannot
    # flake on timing.  Lookahead waits for a line to end and runs only
    # while one node in solver.REFUTING or more has ended one: S(4,4)
    # ends the most lines of these searches, 98 in 454 nodes, but never
    # more than 28% of the nodes so far, so they make no probe and find
    # the orientations they found before lookahead.
    probes = []
    monkeypatch.setattr(solver, "_lookahead", lambda po, edges: probes.append(edges))
    g = build_simplified(n, k).graph
    verdict = solve(g, SolverConfig(budget=3000))
    assert isinstance(verdict, SemiTransitive) and probes == []
    digest = hashlib.sha256(repr(verdict.orientation.arcs).encode("utf-8"))
    assert digest.hexdigest()[:16] == GOLDEN_ORIENTATIONS[(n, k)]
    assert reference_is_semitransitive(g, verdict.orientation.arcs)


@pytest.mark.parametrize("name", ["witness", "s24", "s33"])
def test_every_probe_rewinds_to_its_save_point(name, monkeypatch):
    # a probe sets an arc and propagates from a save point; its undo must
    # give back the save point's edge states, arcs and planes, rows that a
    # plain BFS rebuilds, and no decided edge and no arc owed a scan
    save, rewind = _WatchedOrientation.save, _WatchedOrientation.rewind
    points, rewinds = [], []

    def state(po):
        return list(po.state), list(po.out_adj), po.along, po.against, po.unset

    def saving(po):
        _check_rows(po)
        assert po.decided == [] and po.unscanned == []
        points.append(state(po))
        return save(po)

    def rewinding(po, point):
        assert state(po) != points[-1]  # the probe set an arc
        rewind(po, point)
        assert state(po) == points[-1]
        _check_rows(po)
        assert po.decided == [] and po.unscanned == []
        rewinds.append(point)

    monkeypatch.setattr(_WatchedOrientation, "save", saving)
    monkeypatch.setattr(_WatchedOrientation, "rewind", rewinding)
    verdict = solve(GOLDEN_GRAPHS[name]())
    assert isinstance(verdict, NonSemiTransitive)
    assert points and len(rewinds) > len(points)


def test_reference_is_semitransitive_agrees_with_is_semitransitive():
    rng = random.Random(28)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        arcs = tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in g.edges)
        expected = is_semitransitive(Orientation(g, arcs))
        assert reference_is_semitransitive(g, arcs) == expected, (g.edge_list(), arcs)
    # a missing or a doubled edge is no orientation
    g = c4()
    assert not reference_is_semitransitive(g, [(0, 1), (1, 2), (2, 3)])
    assert not reference_is_semitransitive(g, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 0)])


# ---------------------------------------------------------------------------
# the cycle inventory against the reference enumerator


def _inventory_graphs():
    k4_pendant = LabeledGraph(
        [str(v) for v in range(5)], [*itertools.combinations(range(4), 2), (3, 4)]
    )
    k33 = LabeledGraph([str(v) for v in range(6)], itertools.product(range(3), range(3, 6)))
    for n in (4, 5, 6):
        yield f"k{n}", complete(n), range(3, 9)
    yield "k4+pendant", k4_pendant, range(3, 9)
    yield "k3,3", k33, range(3, 9)
    # S(2,4) has 47,422 rings of length <= 8 and S(2,5) 114,844 of length
    # <= 7: too many for the plain DFS to list in a unit test
    longest = {"s24": 7, "s25": 6}
    for name in sorted(GOLDEN_GRAPHS):
        yield name, GOLDEN_GRAPHS[name](), range(3, longest.get(name, 8) + 1)
    rng = random.Random(21)
    for i in range(24):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        yield f"random{i}", g, range(3, 9)


def test_cycle_inventory_matches_the_reference_enumerator():
    # the bitmask DFS must find the rings the plain recursive DFS finds, in
    # the same order, and list every ring step exactly once, under its
    # directed step
    for name, g, lens in _inventory_graphs():
        for cycle_len in lens:
            inventory = _cycle_inventory(g, cycle_len)
            rings = reference_rings(g, cycle_len)
            assert list(inventory.rings) == rings, (name, cycle_len)
            assert inventory.triangles == sum(len(ids) == 3 for ids in rings)
            assert _decode(inventory.size_planes, len(rings)) == list(map(len, rings))
            expected = {step: [] for a, b in g.edges for step in ((a, b), (b, a))}
            for c, ids in enumerate(rings):
                for step in zip(ids, ids[1:] + ids[:1]):
                    expected[step].append(c)
            watch = {step: _bits(mask) for step, mask in inventory.watch.items()}
            assert watch == expected, (name, cycle_len)


def test_cycle_inventory_lists_a_ring_longer_than_the_recursion_limit():
    # the DFS keeps its own stack, so C_1200 at cycle_len 1200 has its one
    # ring, the whole cycle from its least vertex
    n = 1200
    g = LabeledGraph([str(v) for v in range(n)], [(v, (v + 1) % n) for v in range(n)])
    inventory = _cycle_inventory(g, n)
    assert inventory.rings == (tuple(range(n)),) and inventory.triangles == 0


def test_each_cycle_inventory_is_built_afresh():
    # nothing outlives a solve: a second inventory of the same graph is a
    # new object, with its own print memo, and equal to the first
    g = GOLDEN_GRAPHS["s24"]()
    first, second = _cycle_inventory(g, 6), _cycle_inventory(g, 6)
    assert first is not second and first.prints is not second.prints
    assert first.rings == second.rings and first.triangles == second.triangles
    assert first.size_planes == second.size_planes and first.watch == second.watch


@pytest.mark.parametrize("name", ["w5", "witness"])
def test_cycle_inventory_clamps_a_huge_cycle_len(name):
    # no ring is longer than the graph, so the BFS layers stop at g.n
    g = GOLDEN_GRAPHS[name]()
    huge = _cycle_inventory(g, 10**7)
    assert huge.rings == _cycle_inventory(g, g.n).rings


def test_solve_with_a_huge_cycle_len_returns_the_default_proof():
    w5 = build_wheel(5)
    start = time.perf_counter()
    verdict = solve(w5, SolverConfig(cycle_len=10**7))
    assert time.perf_counter() - start < 1.0
    assert emit_trace(verdict.trace) == emit_trace(solve(w5).trace)


# ---------------------------------------------------------------------------
# watched cycle counters against full rescans


def _bits(mask):
    """The positions of the set bits of a non-negative mask, ascending."""
    assert mask >= 0
    return [hit.start() for hit in re.finditer("1", bin(mask)[:1:-1])]


def _decode(planes, rings):
    """Each ring's count, read off bit planes: bit c of plane i is bit i of
    ring c's count.  Plane i is spread to one byte per ring, 0 or 1 << i,
    and the planes' bytes are ored."""
    lanes = 0
    for i, plane in enumerate(planes):
        assert 0 <= plane < 1 << rings
        bits = bin(plane)[2:].zfill(rings)[::-1].encode()  # bit c is bits[c]
        spread = bits.translate(bytes.maketrans(b"01", bytes([0, 1 << i])))
        lanes |= int.from_bytes(spread, "little")
    return list(lanes.to_bytes(rings, "little"))


def _tallies(po, rings):
    """Per ring, its edges pointing along, against, and its unset ring
    steps, read off a table of each arc's two steps."""
    way = {}
    for t, h in po.arcs():
        way[t, h], way[h, t] = 1, -1
    tallies = []
    for ids in rings:
        steps = list(zip(ids, ids[1:] + ids[:1]))
        signs = [way.get(step, 0) for step in steps]
        unset = [step for step, sign in zip(steps, signs) if not sign]
        tallies.append((signs.count(1), signs.count(-1), unset))
    return tallies


def _rule_force(po, ids, tally):
    """The arcs the TriangleRule (three ids) or the CycleRule (more) forces
    on one ring by a full rescan, else None; ``tally`` is the ring's."""
    if len(ids) == 3:
        # directed path across a triangle forces the third edge
        for i in range(3):
            mid, a, b = ids[i], ids[(i + 1) % 3], ids[(i + 2) % 3]
            for t, h in ((a, b), (b, a)):
                if (
                    po.has_arc(t, mid)
                    and po.has_arc(mid, h)
                    and po.direction(t, h) is None
                ):
                    return ((t, h),)
        return None
    m = len(ids)
    along, against, unset = tally
    # evaluate the ring direction, then its mirror; "against" an unset step
    # (t, h) means arc (h, t) for the ring direction and (t, h) for the mirror
    for fwd, bwd, mirrored in ((along, against, False), (against, along, True)):
        if len(unset) == 1 and fwd >= m - 2:
            t, h = unset[0]
            return (((t, h) if mirrored else (h, t)),)
        if len(unset) == 2 and fwd == m - 2 and bwd == 0:
            return tuple((t, h) if mirrored else (h, t) for t, h in unset)
    return None


def _find_application(po, inventory, tallies=None):
    """Reference for ``_next_force``: the first force found by scanning
    every triangle, then every unset edge by BFS, then every longer ring;
    its arcs, the ids of the justifying cycle and its printed ring.
    ``tallies``, if given, are the rings' ``_tallies``."""
    g = po.graph
    rings, triangles = inventory.rings, inventory.triangles
    for ids in rings[:triangles]:
        arcs = _rule_force(po, ids, None)
        if arcs is not None:
            return arcs, ids, _canonical_ring_print(g, ids)
    for a, b in unset_edges(po):
        for t, h in ((a, b), (b, a)):
            path = shortest_path(po.out_adj, t, h)
            if path is not None:
                ids = tuple(path)
                return ((t, h),), ids, _canonical_ring_print(g, ids)
    tallies = tallies or _tallies(po, rings)
    for ids, tally in zip(rings[triangles:], tallies[triangles:]):
        arcs = _rule_force(po, ids, tally)
        if arcs is not None:
            return arcs, ids, _canonical_ring_print(g, ids)
    return None


def _full_scan(po):
    """Reference for ``_scan_defect``: the terminal path of a scan of every
    set arc, else None.  The arcs are acyclic."""
    assert reference_rows(po.out_adj) is not None
    witness = find_shortcut(po)
    return None if witness is None else tuple(po.graph.labels[v] for v in witness.path)


def _check_rows(po):
    assert (po.reach, po.coreach) == reference_rows(po.out_adj)


def _counters(po):
    """What the watched counters hold, and the edge states and arcs."""
    return list(po.state), list(po.out_adj), po.along, po.against, po.unset, po.fire()


def _check_counters(po, clean, scan=True):
    """Check the counters, read off their bit planes, the fire mask, the
    near-firing counts, the next force and the rows against full rescans,
    and that a snapshot of a propagation fixpoint restored twice, with
    arcs set in between, gives back the same state both times.  While
    every scan since the last restore of a clean state was clean
    (``clean``), also check the restricted scan against a full one, if
    ``scan``.  Returns whether the state is still on such a clean-scan
    prefix."""
    _check_rows(po)
    if clean and scan:
        expected = _full_scan(po)
        assert _scan_defect(po) == expected
        clean = expected is None
    inventory = po.inventory
    rings = len(inventory.rings)
    tallies = _tallies(po, inventory.rings)
    assert _decode(po.along, rings) == [al for al, _, _ in tallies]
    assert _decode(po.against, rings) == [ag for _, ag, _ in tallies]
    assert _decode(po.unset, rings) == [len(unset) for _, _, unset in tallies]
    assert _bits(po.fire()) == [
        c
        for c, (ids, tally) in enumerate(zip(inventory.rings, tallies))
        if _rule_force(po, ids, tally)
    ]
    # each unset edge of a ring with three unset steps and none of the
    # rest along, or none against, counts once per such ring
    near = {}
    for along, against, unset in tallies:
        if len(unset) == 3 and (along == 0 or against == 0):
            for t, h in unset:
                edge = (t, h) if t < h else (h, t)
                near[edge] = near.get(edge, 0) + 1
    assert _almost_forced_counts(po) == near
    force = _scanned_force(po)
    assert force == _find_application(po, inventory, tallies)
    if force is None:
        before = _counters(po)
        pending_arcs = list(po.unscanned)
        snapshot = _bank(po)
        for _ in range(2):
            po.restore(snapshot)
            assert _counters(po) == before and po.unscanned == []
            _check_rows(po)
            # up to two arcs, none closing a directed cycle, before the
            # snapshot is restored again
            for a, b in unset_edges(po)[:2]:
                if shortest_path(po.out_adj, b, a) is not None:
                    a, b = b, a
                po.set_arc(a, b)
        po.restore(snapshot)
        po.unscanned = pending_arcs
    return clean


def _scanned_force(po):
    """``_next_force`` where the search calls it: after a scan, which brings
    the heap of decided edges up to date.  The arcs the scan covered stay
    owed, so that a walk's checked scans still cover several new arcs at
    once."""
    pending_arcs = list(po.unscanned)
    _scan_defect(po)
    po.unscanned = pending_arcs
    return _next_force(po)


def _bank(po):
    """``po.snapshot()`` of a propagation fixpoint that may still owe a
    scan.  The search banks only states scanned clean; the walks here
    bank any fixpoint and keep the arcs a scan still owes themselves."""
    pending_arcs, po.unscanned = po.unscanned, []
    snapshot = po.snapshot()
    po.unscanned = pending_arcs
    return snapshot


@pytest.mark.parametrize(
    "name,cycle_len",
    [(name, n) for name in ("w5", "s23", "s24", "witness") for n in (3, 6)]
    # every ring of the witness, up to 17 steps: five bit planes
    + [pytest.param("witness", None, id="witness-n")],
)
def test_counters_match_a_fresh_recount(name, cycle_len):
    # seeded random walks mixing rule forces, random arcs (shortcut states
    # included), branches and resumes; every arc goes through the watched
    # set_arc and is checked against full rescans.  Like the search, a
    # walk never closes a directed cycle: a random arc on an edge that a
    # path decides points along the path, and it banks the reverse of a
    # random arc only at a propagation fixpoint, where no edge is decided,
    # so a resume has no decided edges to refill.  A walk ends at a full
    # state with nothing left to resume.  It goes on past dead states,
    # which the search never does, so the restricted scan is compared only
    # along clean-scan prefixes; a banked state remembers whether it was
    # scanned clean.  Some scans are skipped, so that a scan also covers
    # several new arcs at once.  The witness's 59,904 rings up to 17 steps
    # are too many to recount at every arc: that walk sets one arc per
    # edge and is checked at every tenth arc and at its last.
    g = GOLDEN_GRAPHS[name]()
    inventory = _cycle_inventory(g, cycle_len or g.n)
    arcs_left, every = (3 * len(g.edges), 1) if cycle_len else (len(g.edges), 10)
    for seed in itertools.count():
        if arcs_left <= 0:
            break
        rng = random.Random(seed)
        scan_rng = random.Random(~seed)
        po = _WatchedOrientation(g, inventory)
        pending = []
        clean = True
        while arcs_left > 0:
            unset = unset_edges(po)
            force = _scanned_force(po)
            if force is not None and rng.random() < 0.8:
                arcs = force[0]
            elif not unset or (pending and rng.random() < 0.2):
                if not pending:
                    break
                snapshot, arc, clean = pending.pop(rng.randrange(len(pending)))
                po.restore(snapshot)
                arcs = (arc,)
            else:
                a, b = rng.choice(unset)
                if rng.random() < 0.5:
                    a, b = b, a
                if shortest_path(po.out_adj, b, a) is not None:
                    a, b = b, a  # decided: along the path b ~> a
                elif force is None and rng.random() < 0.5:
                    pending.append((_bank(po), (b, a), clean and not po.unscanned))
                arcs = ((a, b),)
            for t, h in arcs:
                po.set_arc(t, h)
                arcs_left -= 1
                scan = scan_rng.random() < 0.7
                if arcs_left % every == 0 or arcs_left <= 0:
                    clean = _check_counters(po, clean, scan)


def test_set_arc_refuses_an_arc_that_closes_a_cycle():
    # no arc the search sets closes a directed cycle, so one that does is
    # a fault of the program, raised under -O too
    g = triangle()
    po = _WatchedOrientation(g, _cycle_inventory(g, 3))
    po.set_arc(0, 1)
    po.set_arc(1, 2)
    with pytest.raises(RuntimeError, match="arc c->a closes a directed cycle"):
        po.set_arc(2, 0)


def test_snapshot_refuses_a_state_that_owes_a_scan():
    # restore keeps no arcs for the next scan, so a banked state must have
    # been scanned clean or the restricted scan would miss its defects;
    # the search never banks one, so one is a fault, raised under -O too
    g = build_wheel(5)
    po = _WatchedOrientation(g, _cycle_inventory(g, 3))
    po.set_arc(*min(g.edges))
    assert not po.fire() and po.unscanned
    with pytest.raises(RuntimeError, match="owes a scan"):
        po.snapshot()
    assert _scan_defect(po) is None
    po.restore(po.snapshot())


def test_snapshot_refuses_a_state_that_is_no_propagation_fixpoint():
    # a banked state has no firing ring and no unset edge a path decides,
    # or a resume would miss a force; W5 is c0..c4 round the hub h (5)
    g = build_wheel(5)
    inventory = _cycle_inventory(g, 3)
    po = _WatchedOrientation(g, inventory)
    po.set_arc(0, 5)
    po.set_arc(5, 1)  # the triangle c0 h c1 forces c0->c1
    assert _scan_defect(po) is None
    with pytest.raises(RuntimeError, match="still propagates"):
        po.snapshot()
    po = _WatchedOrientation(g, inventory)
    for t in range(4):
        po.set_arc(t, t + 1)  # the rim path c0 ~> c4 decides c0-c4
    assert _scan_defect(po) is None  # the scan finds the decided edge
    assert not po.fire()
    with pytest.raises(RuntimeError, match="decided edge"):
        po.snapshot()


@pytest.mark.parametrize("name", ["w5", "s23", "s24", "witness", "s62"])
def test_restricted_scan_matches_a_full_scan_in_every_solve(name, monkeypatch):
    # the search abandons every dead state, so each scan it makes may skip
    # the closing arcs no arc set since the last clean scan can change
    graph = {**GOLDEN_GRAPHS, "s62": lambda: build_simplified(6, 2).graph}[name]()
    scans = []

    def checked_scan(po):
        expected = _full_scan(po)
        assert _scan_defect(po) == expected
        scans.append(expected)
        return expected

    monkeypatch.setattr(solver, "_scan_defect", checked_scan)
    verdict = solve(graph)
    assert None in scans
    dead = sum(path is not None for path in scans)
    if name == "s62":
        assert isinstance(verdict, SemiTransitive)
    else:
        assert dead == len(verdict.trace.lines)


@pytest.mark.parametrize("name", ["w5", "s23", "s24", "witness"])
def test_every_witness_a_solve_finds_is_a_shortcut(name, monkeypatch):
    # the search's witnesses become the proof's terminal paths, which the
    # verifier checks on replay; here each is held to the definition, in
    # the partial state it was found in
    witnesses = []

    def checked_shortcut_under(po, reach, coreach, u, v):
        witness = shortcut_under(po, reach, coreach, u, v)
        if witness is not None:
            assert witness_fault(po, witness) is None, witness
            witnesses.append(witness)
        return witness

    monkeypatch.setattr(solver, "shortcut_under", checked_shortcut_under)
    verdict = solve(GOLDEN_GRAPHS[name]())
    assert len(witnesses) == len(verdict.trace.lines)


@pytest.mark.parametrize("name", ["w5", "s23", "witness", "s62", "s72"])
def test_decided_edges_match_a_full_scan_in_every_solve(name, monkeypatch):
    # the PathRule reads a heap of the edges the growing reach rows decide:
    # every force must be the one a full scan finds, and every resume
    # starts with an empty heap, so its rebuilt rows must decide no unset
    # edge, as the search banks only propagation fixpoints
    graph = {
        **GOLDEN_GRAPHS,
        "s62": lambda: build_simplified(6, 2).graph,
        "s72": lambda: build_simplified(7, 2).graph,
    }[name]()
    next_force, restore = solver._next_force, _WatchedOrientation.restore
    forces, resumes = [], []

    def checked_next_force(po):
        hit = next_force(po)
        assert hit == _find_application(po, po.inventory)
        forces.append(hit)
        return hit

    def checked_restore(po, snapshot):
        restore(po, snapshot)
        reach, _ = reference_rows(po.out_adj)
        assert sorted(po.decided) == [
            i
            for i, (a, b) in enumerate(po.edge_order)
            if po.state[i] == UNSET and (reach[a] >> b & 1 or reach[b] >> a & 1)
        ]
        resumes.append(len(po.decided))

    monkeypatch.setattr(solver, "_next_force", checked_next_force)
    monkeypatch.setattr(_WatchedOrientation, "restore", checked_restore)
    verdict = solve(graph)
    assert None in forces
    if isinstance(verdict, NonSemiTransitive):
        moves = sum(isinstance(line.opener, MoveCopy) for line in verdict.trace.lines)
        assert len(resumes) == moves


# ---------------------------------------------------------------------------
# cross-procedure consistency


def check_theorem1_consistency(g, cfg=None):
    """Solver verdict == exhaustive oracle, and a 2-uniform representant
    (when one exists) implies the positive verdict.

    Raises the word-search BudgetExceeded if either exhaustive check runs
    out of budget; a word-search budget overrun only downgrades the word
    evidence to "not found".
    """
    verdict = solve(g, cfg)
    if isinstance(verdict, BudgetExceeded):
        raise WordSearchBudgetExceeded(
            f"solver budget exhausted after {verdict.nodes} nodes"
        )
    oracle = brute_force_semitransitive(g)
    if oracle.verdict == "budget":
        raise WordSearchBudgetExceeded("orientation oracle budget exhausted")
    positive = isinstance(verdict, SemiTransitive)
    if positive != (oracle.verdict == "exists"):
        return False
    try:
        word = find_uniform_representant(g, k_max=2)
    except WordSearchBudgetExceeded:
        word = None
    if word is not None and not positive:
        return False
    return True


def test_check_theorem1_consistency_on_pinned_graphs():
    assert check_theorem1_consistency(build_wheel(5))
    assert check_theorem1_consistency(complete(6))
    assert check_theorem1_consistency(path4())
    assert check_theorem1_consistency(c4())


def test_check_theorem1_consistency_on_all_4_vertex_graphs():
    for g in all_graphs(4):
        assert check_theorem1_consistency(g), g.edge_list()

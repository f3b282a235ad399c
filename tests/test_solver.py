"""The branch-and-propagate solver: propagation rules, verdicts, traces.

Every negative verdict's trace must verify; verdicts must agree with the
exhaustive orientation oracle and be invariant under source choice, the
first-branch symmetry rule, and trace emission.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordrep import solver
from wordrep.debruijn import build_simplified
from wordrep.graphs import LabeledGraph, build_graph, build_wheel, induced_subgraph
from wordrep.orientations import (
    CyclicInput,
    Orientation,
    PartialOrientation,
    brute_force_semitransitive,
    directed_cycle,
    find_shortcut,
    is_acyclic,
    is_semitransitive,
    reach_closure,
    shortest_path,
)
from wordrep.solver import (
    BudgetExceeded,
    NonSemiTransitive,
    SemiTransitive,
    SolverConfig,
    _canonical_ring_print,
    _cycle_inventory,
    _label_key,
    _next_force,
    _scan_defect,
    _WatchedOrientation,
    fix_source,
    propagate,
    solve,
)
from wordrep.traces import (
    Branch,
    MoveCopy,
    Orient,
    emit_trace,
    extract_graph,
    load_witness_trace,
    verify_trace,
)
from wordrep.words import BudgetExceeded as WordSearchBudgetExceeded
from wordrep.words import find_uniform_representant

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
    assert len(po.unset_edges()) == 5


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
    return _WatchedOrientation(po, _cycle_inventory(po.graph, cycle_len))


def test_propagate_triangle_forces_the_transitive_arc():
    po = watched(PartialOrientation(triangle()))
    po.set_arc(0, 1)
    po.set_arc(1, 2)
    assert propagate(po) == ([Orient(("a", "c"), ("a", "c", "b"))], None)
    assert po.has_arc(0, 2)


def test_propagate_c4_forces_both_remaining_edges_opposite():
    po = watched(PartialOrientation(c4()))
    po.set_arc(0, 1)
    po.set_arc(1, 2)
    steps, witness = propagate(po)
    assert witness is None
    ring = ("a", "d", "c", "b")
    assert {(s.arc, s.cycle) for s in steps} == {(("d", "c"), ring), (("a", "d"), ring)}
    # one two-arc force: the first step is paired with the second
    assert [s.paired_with_next for s in steps] == [True, False]
    assert po.has_arc(3, 2) and po.has_arc(0, 3)
    assert po.fully_oriented()


def test_propagate_replays_the_first_two_forced_arcs_of_the_witness_line_1():
    g = extract_graph(load_witness_trace())
    po = watched(fix_source(PartialOrientation(g), g.index["13"]))
    po.set_arc(g.index["14"], g.index["16"])
    steps, _ = propagate(po)
    assert steps[:2] == [
        Orient(("14", "12"), ("12", "14", "16", "13")),
        Orient(("4", "12"), ("4", "13", "14", "12")),
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
        [Orient(("a", "e"), ("a", "e", "d", "c", "b"))],
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
        force = []
        for step in steps:
            arcs.append((g.index[step.arc[0]], g.index[step.arc[1]]))
            force.append(arcs[-1])
            if step.paired_with_next:
                continue
            for arc in force:
                assert _flip_is_defective(g, arcs, step.cycle, arc)
            checked.add((len(force), len(step.cycle)))
            force = []
    # one-arc and paired forces, over triangles and longer cycles
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

    # two positive components merge into one orientation
    two = LabeledGraph(
        ["a", "b", "c", "p", "q"], [(0, 1), (1, 2), (0, 2), (3, 4)]
    )
    verdict = solve(two)
    assert isinstance(verdict, SemiTransitive)
    assert is_semitransitive(verdict.orientation)
    assert len(verdict.orientation.arcs) == 4


def test_budget_exhaustion_is_reported():
    verdict = solve(build_wheel(5), SolverConfig(budget=1, wlog_rule=False))
    assert isinstance(verdict, BudgetExceeded)
    assert verdict.nodes == 2


def test_unknown_source_label_is_an_error():
    with pytest.raises(ValueError, match="source label"):
        solve(path4(), SolverConfig(source="zz"))


# ---------------------------------------------------------------------------
# solve: invariances (exhaustive on small graphs)


def test_verdict_matches_oracle_on_all_4_vertex_graphs():
    for g in all_graphs(4):
        expected = brute_force_semitransitive(g).verdict == "exists"
        verdict = solve(g)
        assert isinstance(verdict, SemiTransitive) == expected, g.edge_list()
        if isinstance(verdict, NonSemiTransitive):
            assert verify_trace(g, verdict.trace).accepted, g.edge_list()


def test_verdict_is_invariant_under_the_first_branch_rule_on_4_vertices():
    for g in all_graphs(4):
        on = solve(g, SolverConfig(wlog_rule=True))
        off = solve(g, SolverConfig(wlog_rule=False))
        assert isinstance(on, SemiTransitive) == isinstance(off, SemiTransitive)


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


def test_copy_store_ids_start_at_two_and_resume_lowest():
    # copies are created as 2, 3, ... and resumed lowest pending id first,
    # which with increasing ids is creation order
    verdict = solve(extract_graph(load_witness_trace()))
    created = [
        step.copy_id
        for line in verdict.trace.lines
        for step in line.steps
        if isinstance(step, Branch)
    ]
    resumed = [
        line.opener.copy_id
        for line in verdict.trace.lines
        if isinstance(line.opener, MoveCopy)
    ]
    assert created == list(range(2, len(created) + 2))
    assert resumed == created


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


# sha256 of repr(arcs), first 16 hex digits, of the orientation solve finds
GOLDEN_ORIENTATIONS = {
    (6, 2): "70961b6013234bab",
    (7, 2): "b2d91f553268da44",
    (4, 3): "9e74b945ba123151",
}


@pytest.mark.parametrize("n,k", sorted(GOLDEN_ORIENTATIONS))
def test_found_orientations_match_the_golden_hashes(n, k):
    # the positive counterpart of the golden proofs: a change to the
    # search that picks another orientation must show up here
    verdict = solve(build_simplified(n, k).graph)
    assert isinstance(verdict, SemiTransitive)
    digest = hashlib.sha256(repr(verdict.orientation.arcs).encode("utf-8"))
    assert digest.hexdigest()[:16] == GOLDEN_ORIENTATIONS[(n, k)]

# ---------------------------------------------------------------------------
# watched cycle counters against full rescans


def _tally(po, ids):
    """Ring edges pointing along, against, and the unset ring steps."""
    along = against = 0
    unset = []
    for t, h in zip(ids, ids[1:] + ids[:1]):
        d = po.direction(t, h)
        if d is None:
            unset.append((t, h))
        elif d == t:
            along += 1
        else:
            against += 1
    return along, against, unset


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


def _find_application(po, inventory):
    """Reference for ``_next_force``: the first force found by scanning
    every triangle, then every unset edge by BFS, then every longer ring;
    its arcs, the ids of the justifying cycle and its printed ring."""
    g = po.graph
    rings, triangles = inventory.rings, inventory.triangles
    for ids in rings[:triangles]:
        arcs = _rule_force(po, ids, None)
        if arcs is not None:
            return arcs, ids, _canonical_ring_print(g, ids)
    for a, b in po.unset_edges():
        for t, h in ((a, b), (b, a)):
            path = shortest_path(po.out_adj, t, h)
            if path is not None:
                ids = tuple(path)
                return ((t, h),), ids, _canonical_ring_print(g, ids)
    for ids in rings[triangles:]:
        arcs = _rule_force(po, ids, _tally(po, ids))
        if arcs is not None:
            return arcs, ids, _canonical_ring_print(g, ids)
    return None


def _full_scan(po):
    """Reference for ``_scan_defect``: the terminal path of a scan of every
    set arc, a directed cycle from the least label, else None."""
    g = po.graph
    try:
        witness = find_shortcut(po)
    except CyclicInput:
        cyc = directed_cycle(po.out_adj)
        start = min(range(len(cyc)), key=lambda i: _label_key(g.labels[cyc[i]]))
        return tuple(g.labels[v] for v in cyc[start:] + cyc[:start])
    return None if witness is None else tuple(g.labels[v] for v in witness.path)


def _check_rows(po):
    reach = reach_closure(po.out_adj)
    assert po.cyclic == (reach is None)
    if reach is not None:
        in_adj = [0] * po.graph.n
        for t, h in po.arcs():
            in_adj[h] |= 1 << t
        assert po.reach == reach
        assert po.coreach == reach_closure(in_adj)


def _check_counters(po, clean, scan=True):
    """Check the counters, the fire set, the next force and the rows
    against full rescans, and a snapshot/restore round trip.  While every
    scan since the last restore of a clean state was clean (``clean``),
    also check the restricted scan against a full one, if ``scan``.
    Returns whether the state is still on such a clean-scan prefix."""
    _check_rows(po)
    if clean and scan:
        expected = _full_scan(po)
        assert _scan_defect(po) == expected
        clean = expected is None
    inventory = po.inventory
    tallies = [_tally(po, ids) for ids in inventory.rings]
    assert list(po.along) == [al for al, _, _ in tallies]
    assert list(po.against) == [ag for _, ag, _ in tallies]
    assert po.fire == {
        c
        for c, (ids, tally) in enumerate(zip(inventory.rings, tallies))
        if _rule_force(po, ids, tally)
    }
    if reach_closure(po.out_adj) is not None:
        assert _next_force(po) == _find_application(po, inventory)
    if not po.fire:
        before = (list(po.state), list(po.out_adj), bytes(po.along), bytes(po.against))
        pending_arcs = list(po.unscanned)
        po.restore(_bank(po))
        after = (list(po.state), list(po.out_adj), bytes(po.along), bytes(po.against))
        assert after == before and po.fire == set() and po.unscanned == []
        _check_rows(po)
        po.unscanned = pending_arcs
    return clean


def _bank(po):
    """``po.snapshot()`` of a state that may still owe a scan.  The search
    banks only states scanned clean; the walks here bank any fixpoint and
    keep the arcs a scan still owes themselves."""
    pending_arcs, po.unscanned = po.unscanned, []
    snapshot = po.snapshot()
    po.unscanned = pending_arcs
    return snapshot


@pytest.mark.parametrize("cycle_len", [3, 6])
@pytest.mark.parametrize("name", ["w5", "s23", "s24", "witness"])
def test_counters_match_a_fresh_recount(name, cycle_len):
    # seeded random walks mixing rule forces, arbitrary arcs (cyclic and
    # shortcut states included), branches and resumes; every arc goes
    # through the watched set_arc and is checked against full rescans.
    # A walk ends at a dead or full state with nothing left to resume.
    # The walk goes on past dead states, which the search never does, so
    # the restricted scan is compared only along clean-scan prefixes; a
    # banked state remembers whether it was scanned clean.  Some scans are
    # skipped, so that a scan also covers several new arcs at once.
    g = GOLDEN_GRAPHS[name]()
    inventory = _cycle_inventory(g, cycle_len)
    arcs_left = 3 * len(g.edges)
    for seed in itertools.count():
        if arcs_left <= 0:
            break
        rng = random.Random(seed)
        scan_rng = random.Random(~seed)
        po = _WatchedOrientation(PartialOrientation(g), inventory)
        pending = []
        clean = True
        while arcs_left > 0:
            unset = po.unset_edges()
            acyclic = reach_closure(po.out_adj) is not None
            force = _next_force(po) if acyclic else None
            if force is not None and rng.random() < 0.8:
                arcs = force[0]
            elif not (acyclic and unset) or (pending and rng.random() < 0.2):
                if not pending:
                    break
                snapshot, arc, clean = pending.pop(rng.randrange(len(pending)))
                po.restore(snapshot)
                arcs = (arc,)
            else:
                a, b = rng.choice(unset)
                if rng.random() < 0.5:
                    a, b = b, a
                if not po.fire and rng.random() < 0.5:
                    pending.append((_bank(po), (b, a), clean and not po.unscanned))
                arcs = ((a, b),)
            for t, h in arcs:
                po.set_arc(t, h)
                clean = _check_counters(po, clean, scan_rng.random() < 0.7)
                arcs_left -= 1


@pytest.mark.skipif(not __debug__, reason="asserts are stripped under -O")
def test_snapshot_refuses_a_state_that_owes_a_scan():
    # restore keeps no arcs for the next scan, so a banked state must have
    # been scanned clean or the restricted scan would miss its defects
    g = build_wheel(5)
    po = _WatchedOrientation(PartialOrientation(g), _cycle_inventory(g, 3))
    po.set_arc(*min(g.edges))
    assert not po.fire and po.unscanned
    with pytest.raises(AssertionError, match="owes a scan"):
        po.snapshot()
    assert _scan_defect(po) is None
    po.restore(po.snapshot())


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

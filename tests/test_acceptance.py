"""Acceptance gate: one test per criterion, time bounds pinned.

Each test prints a single summary line (visible with ``pytest -s``);
under ``pytest -v`` the test name itself is the per-criterion
pass/fail line.
"""

import random
import time

from wordrep.coloring import color_s_n_2, exact_chromatic_number
from wordrep.debruijn import build_simplified
from wordrep.graphs import (
    LabeledGraph,
    build_wheel,
    induced_subgraph,
    is_proper_coloring,
    max_degree_vertex,
)
from wordrep.orientations import (
    Orientation,
    brute_force_semitransitive,
    is_semitransitive,
)
from wordrep.solver import (
    NonSemiTransitive,
    SemiTransitive,
    SolverConfig,
    solve,
)
from wordrep.subiso import find_induced_embedding
from wordrep.traces import (
    Preamble,
    ProofTrace,
    extract_graph,
    load_witness_trace,
    verify_trace,
)
from wordrep.words import BudgetExceeded, find_uniform_representant

from helpers import all_graphs, contains_induced, reverse_orientation


def _line(criterion: int, detail: str, elapsed: float, bound: float | None):
    budget = f", bound {bound:g}s" if bound is not None else ""
    print(f"[criterion {criterion}] PASS {detail} ({elapsed:.2f}s{budget})")


def test_criterion_1_proper_3_coloring_of_s_n_2_for_n_1_to_10():
    t0 = time.perf_counter()
    for n in range(1, 11):
        s, colors = color_s_n_2(n)
        assert is_proper_coloring(s.graph, colors), f"improper coloring at n={n}"
        assert set(colors) <= {0, 1, 2}, f"more than 3 colors at n={n}"
        assert len(colors) == s.graph.n == 2**n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(1, "S(n,2) 3-colored and verified for n=1..10", elapsed, 1.0)


def test_criterion_2_solver_certifies_s_n_2_semitransitive_for_n_1_to_5():
    n5_elapsed = 0.0
    t0 = time.perf_counter()
    for n in range(1, 6):
        g = build_simplified(n, 2).graph
        t = time.perf_counter()
        verdict = solve(g)
        if n == 5:
            n5_elapsed = time.perf_counter() - t
        assert isinstance(verdict, SemiTransitive), f"S({n},2) not certified"
        assert is_semitransitive(verdict.orientation)
    assert n5_elapsed < 30.0
    _line(
        2,
        "S(n,2) certified semi-transitive for n=1..5",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_3_w5_refuted_by_oracle_solver_and_chromatic_number():
    t0 = time.perf_counter()
    w5 = build_wheel(5)
    oracle = brute_force_semitransitive(w5, pure=True)
    assert oracle.verdict == "notexists"
    assert oracle.examined == 2**10
    verdict = solve(w5)
    assert isinstance(verdict, NonSemiTransitive)
    assert verify_trace(w5, verdict.trace).accepted
    assert exact_chromatic_number(w5, 4) == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(3, "W5: 2^10 exhausted, solver refutation verified, chi=4", elapsed, 1.0)


def test_criterion_4_s23_refuted_within_bounds_and_contains_w5():
    s23 = build_simplified(2, 3).graph
    assert s23.n == 9 and len(s23.edges) == 21

    t = time.perf_counter()
    oracle = brute_force_semitransitive(s23, pure=True)
    oracle_elapsed = time.perf_counter() - t
    assert oracle.verdict == "notexists"
    assert oracle.examined == 2**21
    assert oracle_elapsed < 120.0

    t = time.perf_counter()
    verdict = solve(s23)
    solver_elapsed = time.perf_counter() - t
    assert isinstance(verdict, NonSemiTransitive)
    assert solver_elapsed < 5.0

    assert find_induced_embedding(build_wheel(5), s23) is not None
    _line(
        4,
        f"S(2,3): 2^21 exhausted in {oracle_elapsed:.0f}s, solver agrees, W5 found",
        oracle_elapsed + solver_elapsed,
        120.0,
    )


def test_criterion_5_bundled_trace_parses_balances_and_verifies():
    t0 = time.perf_counter()
    trace = load_witness_trace()
    assert len(trace.lines) == 100

    g = extract_graph(trace)
    assert g.n == 17
    top = max_degree_vertex(g)
    assert g.labels[top] == "13"
    assert g.degree(top) == max(g.degree(v) for v in range(g.n)) == 6

    report = verify_trace(g, trace)
    assert report.accepted, report.failures()[:3]
    assert sorted(report.copy_ledger) == list(range(2, 101))
    assert all(used is not None for _, used in report.copy_ledger.values())

    # The bundled table derives BOTH directions of edge 15-17 (17 lines
    # each) and branches on that edge at lines 35 and 51, so a root
    # assumption fixing 15->17 contradicts it; a sound checker must
    # reject that combination, and the acceptance preamble is therefore
    # the source constraint alone.  The rejection is pinned so the
    # incompatibility stays visible.
    assumed = ProofTrace(Preamble(("15", "17"), "13"), trace.lines)
    rejected = verify_trace(g, assumed)
    assert not rejected.accepted
    assert len(rejected.failures()) == 59
    assert rejected.failures()[0].line_number == 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _line(
        5,
        "100 lines verified under source-13; arc-assumption variant rejected",
        elapsed,
        5.0,
    )


def test_criterion_6_witness_embeds_in_s33_and_is_independently_refuted():
    t0 = time.perf_counter()
    trace = load_witness_trace()
    witness = extract_graph(trace)
    s33 = build_simplified(3, 3).graph

    embedding = find_induced_embedding(witness, s33, {"1": "102", "2": "210"})
    assert embedding is not None
    assert embedding.is_induced()

    image = induced_subgraph(s33, set(embedding.mapping))
    back = {host: pat for pat, host in embedding.as_label_map().items()}
    relabeled = LabeledGraph(
        [back[label] for label in image.labels], image.edge_list()
    )
    assert verify_trace(relabeled, trace).accepted

    verdict = solve(witness)
    assert isinstance(verdict, NonSemiTransitive)
    assert verify_trace(witness, verdict.trace).accepted

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _line(
        6,
        "17-vertex witness anchored into S(3,3), re-verified, and re-refuted",
        elapsed,
        300.0,
    )


def test_criterion_7_solver_oracle_and_word_search_agree():
    t0 = time.perf_counter()

    def check(g: LabeledGraph):
        positive = isinstance(solve(g), SemiTransitive)
        assert positive == (
            brute_force_semitransitive(g).verdict == "exists"
        ), f"solver/oracle mismatch on {g.edge_list()}"
        try:
            word = find_uniform_representant(g, 2)
        except BudgetExceeded:
            return
        if word is not None:
            assert positive, f"representable graph refuted: {g.edge_list()}"

    count5 = 0
    for g in all_graphs(5):
        check(g)
        count5 += 1
    assert count5 == 1024

    rng = random.Random(20260819)
    for _ in range(200):
        n = rng.choice((6, 7))
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.5
        ]
        check(LabeledGraph([str(v) for v in range(n)], edges))

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _line(7, "1024 + 200 graphs: solver = oracle, words never conflict", elapsed, 600.0)


def test_criterion_8_reversal_source_and_hereditary_invariances():
    t0 = time.perf_counter()

    # reversal symmetry, exhaustively where enumerable: every orientation
    # of every graph on <= 4 vertices, and all 1024 of W5
    def reversal_closed(g: LabeledGraph):
        edges = g.edge_list()
        for bits in range(1 << len(edges)):
            arcs = tuple(
                (b, a) if bits >> i & 1 else (a, b)
                for i, (a, b) in enumerate(edges)
            )
            o = Orientation(g, arcs)
            assert is_semitransitive(o) == is_semitransitive(
                reverse_orientation(o)
            )

    for n in range(1, 5):
        for g in all_graphs(n):
            reversal_closed(g)
    reversal_closed(build_wheel(5))

    # source-choice invariance: every graph on <= 5 vertices, every vertex
    for n in range(1, 6):
        for g in all_graphs(n):
            verdicts = {
                isinstance(solve(g, SolverConfig(source=str(s))), SemiTransitive)
                for s in range(n)
            }
            assert len(verdicts) == 1, g.edge_list()

    # hereditary transfer: hosts known to contain W5 induced
    w5 = build_wheel(5)
    for host in (build_simplified(2, 3).graph, build_simplified(2, 4).graph):
        assert contains_induced(w5, host)
        assert isinstance(solve(host), NonSemiTransitive)

    elapsed = time.perf_counter() - t0
    _line(8, "reversal, source-choice, and hereditary invariances hold", elapsed, None)

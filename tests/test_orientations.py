import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wordrep.graphs import LabeledGraph, build_graph, build_wheel, induced_subgraph
from wordrep.debruijn import build_simplified
from wordrep.orientations import (
    _BATCH_BITS,
    _doomed,
    _leaf_verdicts,
    _violating_pair,
    CyclicInput,
    Orientation,
    PartialOrientation,
    add_arc_rows,
    brute_force_semitransitive,
    find_shortcut,
    is_acyclic,
    is_semitransitive,
    reach_rows,
    shortest_path,
)
from wordrep.solver import SemiTransitive, solve

from helpers import (
    all_graphs,
    closing_arc,
    reference_rows,
    reverse_orientation,
    triangle,
    unset_edges,
    witness_fault,
)


def _orient(g, arcs):
    return Orientation(g, tuple(arcs))


def test_directed_3_cycle_not_acyclic():
    o = _orient(triangle(), [(0, 1), (1, 2), (2, 0)])
    assert not is_acyclic(o)
    assert not is_semitransitive(o)


def test_transitive_tournament_acyclic_and_st():
    g = build_graph(list("abcd"), [(x, y) for x in "abcd" for y in "abcd" if x < y])
    o = _orient(g, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert is_acyclic(o)
    assert find_shortcut(o) is None
    assert is_semitransitive(o)


def test_tree_orientations_all_acyclic():
    g = build_graph(list("abcd"), [("a", "b"), ("b", "c"), ("b", "d")])
    edges = sorted(g.edges)
    for bits in range(8):
        arcs = [
            (lo, hi) if not bits >> i & 1 else (hi, lo)
            for i, (lo, hi) in enumerate(edges)
        ]
        assert is_acyclic(_orient(g, arcs))


def test_add_arc_rows_matches_reach_rows_on_random_arc_sequences():
    # each arc grows the rows to those of the arcs so far, or is refused,
    # with the rows untouched, exactly when it would close a directed
    # cycle; reach_rows, its fold over the arcs in another order, and a
    # plain BFS agree
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randint(1, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        rng.shuffle(edges)
        out_adj = [0] * n
        reach, coreach = reach_rows(out_adj)
        for a, b in edges:
            tail, head = (a, b) if rng.random() < 0.5 else (b, a)
            before = (list(reach), list(coreach))
            closes = shortest_path(out_adj, head, tail) is not None
            assert add_arc_rows(reach, coreach, tail, head) == (not closes)
            if closes:
                assert (reach, coreach) == before
                cyclic = list(out_adj)
                cyclic[tail] |= 1 << head
                assert reach_rows(cyclic) is None is reference_rows(cyclic)
                continue
            out_adj[tail] |= 1 << head
            assert (reach, coreach) == reach_rows(out_adj) == reference_rows(out_adj)
        for u, v in itertools.product(range(n), repeat=2):
            path = shortest_path(out_adj, u, v) is not None
            assert bool(reach[u] >> v & 1) == path == bool(coreach[v] >> u & 1)


def test_find_shortcut_square_with_chord():
    # a->b->c->d plus the chord a->d; the witness pair is (b, d)
    g = build_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    o = _orient(g, [(0, 1), (1, 2), (2, 3), (0, 3)])
    w = find_shortcut(o)
    assert w is not None
    assert w.path == (0, 1, 2, 3)
    assert w.violation == (1, 3)
    assert closing_arc(w) == (0, 3)
    assert not is_semitransitive(o)


def test_find_shortcut_none_without_closing_arcs():
    # directed path: no arc closes a longer path
    g = build_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
    o = _orient(g, [(0, 1), (1, 2), (2, 3)])
    assert find_shortcut(o) is None
    assert is_semitransitive(o)


def test_find_shortcut_rejects_cyclic_input():
    o = _orient(triangle(), [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CyclicInput):
        find_shortcut(o)


def test_find_shortcut_backward_chord():
    # a->b->c->d, a->d, chord (b,d) present but oriented d->b: still a defect
    g = build_graph(
        list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d")]
    )
    o = _orient(g, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 1)])
    assert not is_acyclic(o)  # d->b closes b->c->d
    # orient the chord forward instead: transitive-ish but (a,c) missing
    o2 = _orient(g, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    w = find_shortcut(o2)
    assert w is not None
    i, j = w.violation
    assert (w.path[i], w.path[j]) == (0, 2)  # chord (a, c) is a non-edge


def test_violating_pair_is_the_first_in_its_documented_order():
    # y from the highest id down, then x from the lowest: the pair fixes
    # the witness, and so a proof's terminal path.  The reference scans
    # the pairs of ``between`` plainly, on rows a BFS builds.
    rng = random.Random(34)
    for _ in range(300):
        n = rng.randint(2, 9)
        g = LabeledGraph(
            [str(v) for v in range(n)],
            [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6],
        )
        rank = rng.sample(range(n), n)  # arcs point up the ranks: acyclic
        po = PartialOrientation(g)
        for a, b in g.edges:
            if rng.random() < 0.8:
                po.set_arc(*((a, b) if rank[a] < rank[b] else (b, a)))
        reach, coreach = reference_rows(po.out_adj)
        for u, v in po.arcs():
            between = reach[u] & coreach[v]
            inside = [x for x in range(n) if between >> x & 1]
            expected = next(
                (
                    (x, y)
                    for y in reversed(inside)
                    for x in inside
                    if x != y and reach[x] >> y & 1 and not g.has_edge(x, y)
                ),
                None,
            )
            assert _violating_pair(g.adj, coreach, between) == expected


def test_orientation_validates_edge_cover():
    with pytest.raises(ValueError):
        Orientation(triangle(), ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Orientation(triangle(), ((0, 1), (1, 2), (0, 1)))


def test_partial_orientation_round_trip():
    po = PartialOrientation(triangle())
    assert set(po.arcs()) == set() and not po.fully_oriented()
    assert unset_edges(po) == sorted(triangle().edges)
    po.set_arc(2, 0)
    assert set(po.arcs()) == {(2, 0)}
    assert po.has_arc(2, 0) and not po.has_arc(0, 2)
    assert unset_edges(po) == [(0, 1), (1, 2)]
    # a copy is set apart from its source
    full = po.copy()
    full.set_arc(0, 1)
    full.set_arc(1, 2)
    assert full.fully_oriented() and set(full.arcs()) == {(2, 0), (0, 1), (1, 2)}
    assert set(po.arcs()) == {(2, 0)} and not po.fully_oriented()


def test_partial_orientation_conflict():
    po = PartialOrientation(triangle())
    po.set_arc(0, 1)
    po.set_arc(0, 1)  # idempotent
    with pytest.raises(ValueError):
        po.set_arc(1, 0)


def test_brute_force_single_edge():
    g = build_graph(["a", "b"], [("a", "b")])
    r = brute_force_semitransitive(g)
    assert r.verdict == "exists"
    assert r.certificate.arcs == ((0, 1),)


def test_brute_force_budget():
    w5 = build_wheel(5)
    assert brute_force_semitransitive(w5, budget=1000).verdict == "budget"


def test_brute_force_first_certificate_is_canonical():
    g = triangle()
    r = brute_force_semitransitive(g)
    # counter 0: every edge lo->hi; transitive triangle is semi-transitive
    assert r.certificate.arcs == ((0, 1), (0, 2), (1, 2))


# the first certificate is counter 160, inside the first batch
UNSET_CHORD_GRAPH = LabeledGraph(
    [str(i) for i in range(6)],
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (2, 5),
     (3, 4), (4, 5)],
)


def _decode(g, edges, counter):
    po = PartialOrientation(g)
    for i, (lo, hi) in enumerate(edges):
        po.set_arc(*((hi, lo) if counter >> i & 1 else (lo, hi)))
    return po


def _pure_reference(g):
    """The oracle decoded in full: every leaf is a fresh orientation."""
    edges = sorted(g.edges)
    m = len(edges)
    for counter in range(2**m):
        po = _decode(g, edges, counter)
        if is_semitransitive(po):
            return ("exists", Orientation(g, tuple(po.arcs())), counter + 1)
    return ("notexists", None, 2**m)


# a path 0-...-9 with the chords (0,2), (1,3), (2,4), and a square on
# 10..13: 16 edges, and the first certificate is counter 4096, the first
# leaf of the second batch
SECOND_BATCH_GRAPH = LabeledGraph(
    [str(i) for i in range(14)],
    [(i, i + 1) for i in range(9)] + [(0, 2), (1, 3), (2, 4)]
    + [(10, 11), (11, 12), (12, 13), (10, 13)],
)


def test_pure_batches_equal_full_decode_reference():
    # every graph on 1..4 vertices, the edgeless ones (m = 0, one leaf)
    # included; a first certificate at counter 160; W7, whose 14 edges make
    # four batches and no certificate; and a first certificate on the first
    # leaf of a later batch
    graphs = [g for n in range(1, 5) for g in all_graphs(n)]
    for g in [*graphs, UNSET_CHORD_GRAPH, build_wheel(7), SECOND_BATCH_GRAPH]:
        r = brute_force_semitransitive(g)
        assert (r.verdict, r.certificate, r.examined) == _pure_reference(g), g.edge_list()
    r = brute_force_semitransitive(UNSET_CHORD_GRAPH)
    assert (r.verdict, r.examined) == ("exists", 161)
    assert 2 ** len(build_wheel(7).edges) == 4 << _BATCH_BITS
    r = brute_force_semitransitive(SECOND_BATCH_GRAPH)
    assert (r.verdict, r.examined) == ("exists", (1 << _BATCH_BITS) + 1)
    for g in (LabeledGraph(list("abc"), []), LabeledGraph(["a"], [])):
        assert brute_force_semitransitive(g).examined == 1


def test_brute_force_pure_keyword_is_inert():
    # the keyword is accepted and changes nothing: the same verdict, first
    # certificate and count with no certificate (W5), with one inside the
    # first batch, and with one on the first leaf of the second batch
    for g in (build_wheel(5), UNSET_CHORD_GRAPH, SECOND_BATCH_GRAPH):
        assert brute_force_semitransitive(g) == brute_force_semitransitive(g, pure=True)
    assert brute_force_semitransitive(build_wheel(5)).examined == 1024


def test_pure_raises_when_is_semitransitive_refuses_its_certificate(monkeypatch):
    from wordrep import orientations

    monkeypatch.setattr(orientations, "_leaf_verdicts", lambda edges, high, k: 1)
    with pytest.raises(RuntimeError, match="counter 0"):
        brute_force_semitransitive(build_wheel(5))


def test_pure_leaf_verdicts_match_is_semitransitive():
    # bit j of batch `high` is the exact leaf check of counter high | j, on
    # every orientation of every graph on 1..5 vertices, of W5, and of W6
    # with the tail 0-7-8, whose 14 edges make four batches
    w6 = build_wheel(6)
    tailed_w6 = LabeledGraph([*w6.labels, "t1", "t2"], [*w6.edges, (0, 7), (7, 8)])
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    for g in [*graphs, build_wheel(5), tailed_w6]:
        edges = sorted(g.edges)
        m = len(edges)
        k = min(_BATCH_BITS, m)
        for high in range(0, 2**m, 2**k):
            good = _leaf_verdicts(edges, high, k)
            assert good >> 2**k == 0
            for j in range(2**k):
                po = _decode(g, edges, high | j)
                assert bool(good >> j & 1) == is_semitransitive(po), (g.edge_list(), high | j)


def test_leaf_verdicts_are_exact_at_every_split():
    # every batch of every split k = 0..m: the edges i >= k are fixed by
    # `high`, so batches whose fixed arcs doom every leaf take the early
    # exit; on every graph on 1..4 vertices and a seeded sample of 5-vertex
    # graphs, the batch's mask equals the per-leaf verdicts
    sample = random.Random(32).sample(list(all_graphs(5)), 200)
    for g in [*(g for n in range(1, 5) for g in all_graphs(n)), *sample]:
        edges = sorted(g.edges)
        m = len(edges)
        truth = sum(
            1 << c for c in range(2**m) if is_semitransitive(_decode(g, edges, c))
        )
        for k in range(m + 1):
            for high in range(0, 2**m, 2**k):
                want = truth >> high & (1 << 2**k) - 1
                assert _leaf_verdicts(edges, high, k) == want, (g.edge_list(), k, high)


def _walk(monkeypatch, g):
    """The oracle's result on g, the batches it hands to `_leaf_verdicts`
    in order, its number of prefix tests, and the lowest counter of each
    prefix it prunes."""
    from wordrep import orientations

    edges = sorted(g.edges)
    batches, pruned = [], []
    tests = 0

    def counting_leaf_verdicts(edges, high, k):
        batches.append(high)
        return _leaf_verdicts(edges, high, k)

    def counting_doomed(adj, out, reach):
        nonlocal tests
        tests += 1
        doomed = _doomed(adj, out, reach)
        if doomed:  # bit i is set where edge i is fixed hi->lo
            pruned.append(sum(1 << i for i, (lo, hi) in enumerate(edges) if out[hi] >> lo & 1))
        return doomed

    monkeypatch.setattr(orientations, "_leaf_verdicts", counting_leaf_verdicts)
    monkeypatch.setattr(orientations, "_doomed", counting_doomed)
    return brute_force_semitransitive(g), batches, tests, pruned


def test_small_batches_walk_past_refuted_batches_to_the_reference(monkeypatch):
    # with 4 leaves per batch most prefixes are pruned by their fixed arcs
    # alone, and the certificates of UNSET_CHORD_GRAPH (counter 160) and
    # SECOND_BATCH_GRAPH (counter 4096) lie behind such prefixes
    from wordrep import orientations

    monkeypatch.setattr(orientations, "_BATCH_BITS", 2)
    graphs = [g for n in range(1, 5) for g in all_graphs(n)]
    for g in [*graphs, UNSET_CHORD_GRAPH, build_wheel(7), SECOND_BATCH_GRAPH]:
        r = brute_force_semitransitive(g)
        assert (r.verdict, r.certificate, r.examined) == _pure_reference(g), g.edge_list()
    for g, examined in ((UNSET_CHORD_GRAPH, 161), (SECOND_BATCH_GRAPH, 4097)):
        r, _, _, pruned = _walk(monkeypatch, g)
        assert r.examined == examined
        assert min(pruned) < examined - 1


def test_the_walk_prunes_most_batches_of_w9_and_s23(monkeypatch):
    # the batches that reach the matrices, in counter order, and the
    # prefix tests the walk makes on the way
    s23 = build_simplified(2, 3).graph
    for g, batches, tests in ((build_wheel(9), 20, 62), (s23, 26, 174)):  # of 64, 512
        r, seen, made, _ = _walk(monkeypatch, g)
        monkeypatch.undo()
        assert r.verdict == "notexists"
        assert seen == sorted(seen)
        assert (len(seen), made) == (batches, tests)


def test_doomed_prefixes_have_no_semitransitive_leaf():
    # every prefix (the edges i >= k fixed by `high`) of every graph on
    # 1..4 vertices and of a seeded sample of 5-vertex graphs: a doomed
    # prefix has no semi-transitive leaf, and with every edge fixed the
    # test is exact; the walk refuses a cyclic prefix before testing it
    sample = random.Random(33).sample(list(all_graphs(5)), 200)
    for g in [*(g for n in range(1, 5) for g in all_graphs(n)), *sample]:
        edges = sorted(g.edges)
        m = len(edges)
        truth = sum(
            1 << c for c in range(2**m) if is_semitransitive(_decode(g, edges, c))
        )
        for k in range(m + 1):
            for high in range(0, 2**m, 2**k):
                out = [0] * g.n
                for i in range(k, m):
                    lo, hi = edges[i]
                    t, h = (hi, lo) if high >> i & 1 else (lo, hi)
                    out[t] |= 1 << h
                rows = reference_rows(out)
                if rows is None:
                    continue
                doomed = _doomed(g.adj, out, rows[0])
                live = truth >> high & (1 << 2**k) - 1
                assert not (doomed and live), (g.edge_list(), k, high)
                assert k > 0 or doomed == (not live), (g.edge_list(), high)


def _semitransitive_sources(g):
    """The vertices that are the source (no in-arc) of some semi-transitive
    orientation of g, read off the batched leaf verdicts."""
    edges = sorted(g.edges)
    m = len(edges)
    k = min(_BATCH_BITS, m)
    sources = set()
    for high in range(0, 2**m, 2**k):
        good = _leaf_verdicts(edges, high, k)
        for v in range(g.n):
            # v is a source when each edge at v points away from it: bit i
            # set exactly for the edges (lo, hi) with v == hi
            care = sum(1 << i for i, e in enumerate(edges) if v in e)
            need = sum(1 << i for i, (_, hi) in enumerate(edges) if v == hi)
            at_source = sum(1 << j for j in range(2**k) if (high | j) & care == need)
            if good & at_source:
                sources.add(v)
    return sources


def test_any_vertex_is_a_source_on_graphs_up_to_5_vertices():
    # Halldorsson, Kitaev & Pyatkin (2016): a semi-transitive orientation,
    # if any exists, can be chosen with any given vertex as a source
    for n in range(1, 6):
        for g in all_graphs(n):
            sources = _semitransitive_sources(g)
            assert sources in (set(), set(range(n))), g.edge_list()
    assert _semitransitive_sources(build_wheel(5)) == set()


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(list(itertools.combinations(range(6), 2)))))
def test_any_vertex_is_a_source_on_random_6_vertex_graphs(edges):
    g = LabeledGraph([str(i) for i in range(6)], edges)
    sources = _semitransitive_sources(g)
    assert sources in (set(), set(range(6)))
    # the solver's verdict, not the oracle's: the sources are read off the
    # oracle's own leaf verdicts
    assert (sources != set()) == isinstance(solve(g), SemiTransitive)


def test_reversal_symmetry_exhaustive_small():
    # every orientation of every <= 4-vertex graph (5-vertex case runs in
    # the acceptance suite)
    for g in all_graphs(4):
        edges = sorted(g.edges)
        for bits in range(2 ** len(edges)):
            arcs = tuple(
                (lo, hi) if not bits >> i & 1 else (hi, lo)
                for i, (lo, hi) in enumerate(edges)
            )
            o = Orientation(g, arcs)
            st = is_semitransitive(o)
            assert st == is_semitransitive(reverse_orientation(o))
            # the solver's first-branch WLOG: reversing every arc not at a
            # source s keeps s a source and keeps semi-transitivity
            for s in range(g.n):
                if any(h == s for _, h in arcs):
                    continue
                flipped = tuple(a if s in a else (a[1], a[0]) for a in arcs)
                assert is_semitransitive(Orientation(g, flipped)) == st


def test_shortcut_none_on_transitive_closures_of_random_dags():
    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(3, 7)
        perm = list(range(n))
        rng.shuffle(perm)
        base = {
            (perm[i], perm[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        }
        # transitive closure
        closed = set(base)
        changed = True
        while changed:
            changed = False
            for a, b in list(closed):
                for c, d in list(closed):
                    if b == c and (a, d) not in closed and a != d:
                        closed.add((a, d))
                        changed = True
        g = LabeledGraph([str(i) for i in range(n)], [tuple(sorted(e)) for e in closed])
        if not closed:
            continue
        o = Orientation(g, tuple(closed))
        assert find_shortcut(o) is None


def test_hereditary_notexists_small_samples():
    # if an induced subgraph refutes, the host refutes
    s23 = build_simplified(2, 3).graph
    host = induced_subgraph(s23, range(6))
    sub = induced_subgraph(host, range(5))
    r_sub = brute_force_semitransitive(sub)
    r_host = brute_force_semitransitive(host)
    if r_sub.verdict == "notexists":
        assert r_host.verdict == "notexists"
    # W5 inside W5-plus-isolated-rim-chord style host
    w5 = build_wheel(5)
    labels = list(w5.labels) + ["x"]
    host2 = LabeledGraph(labels, list(w5.edges) + [(0, 6)])
    assert brute_force_semitransitive(w5).verdict == "notexists"
    assert brute_force_semitransitive(host2).verdict == "notexists"


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.sampled_from(
                    [(i, j) for i in range(5) for j in range(i + 1, 5) if j < 5]
                ).filter(lambda e: e[1] < n)
            ),
        )
    )
)
def test_witness_replays(case):
    n, edges = case
    g = LabeledGraph([str(i) for i in range(n)], edges)
    sorted_edges = sorted(g.edges)
    for bits in range(2 ** len(sorted_edges)):
        arcs = tuple(
            (lo, hi) if not bits >> i & 1 else (hi, lo)
            for i, (lo, hi) in enumerate(sorted_edges)
        )
        o = Orientation(g, arcs)
        if not is_acyclic(o):
            continue
        w = find_shortcut(o)
        if w is not None:
            assert witness_fault(g, set(o.arcs), w) is None, arcs


def _naive_has_shortcut(o):
    """Some arc u->v closes a directed u->v path of at least two arcs on
    which some pair other than (u, v) is not joined by a forward arc."""
    g = o.graph
    arcs = set(o.arcs)
    out = {v: [h for t, h in o.arcs if t == v] for v in range(g.n)}

    def paths(path, dst):
        for w in out[path[-1]]:
            if w == dst:
                yield path + [w]
            elif w not in path:
                yield from paths(path + [w], dst)

    for u, v in o.arcs:
        for path in paths([u], v):
            if len(path) < 3:
                continue  # the closing arc itself
            for i, j in itertools.combinations(range(len(path)), 2):
                if (i, j) != (0, len(path) - 1) and (path[i], path[j]) not in arcs:
                    return True
    return False


def test_find_shortcut_is_complete_on_graphs_up_to_5_vertices():
    # every acyclic orientation of every graph on at most 5 vertices:
    # find_shortcut misses no shortcut and reports none that is not there,
    # and each witness it reports is a shortcut by the definition
    for n in range(1, 6):
        for g in all_graphs(n):
            edges = sorted(g.edges)
            for bits in range(2 ** len(edges)):
                o = Orientation(g, tuple(
                    (lo, hi) if not bits >> i & 1 else (hi, lo)
                    for i, (lo, hi) in enumerate(edges)
                ))
                if not is_acyclic(o):
                    continue
                witness = find_shortcut(o)
                assert (witness is None) == (not _naive_has_shortcut(o)), o.arcs
                if witness is not None:
                    assert witness_fault(g, set(o.arcs), witness) is None, o.arcs

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wordrep.graphs import LabeledGraph, build_graph, build_wheel, induced_subgraph
from wordrep.debruijn import build_simplified
from wordrep.orientations import (
    CyclicInput,
    Orientation,
    PartialOrientation,
    brute_force_semitransitive,
    find_shortcut,
    is_acyclic,
    is_semitransitive,
)

from helpers import orientation_to_dot, reverse_orientation


def _orient(g, arcs):
    return Orientation(g, tuple(arcs))


def triangle():
    return build_graph(list("abc"), [("a", "b"), ("b", "c"), ("a", "c")])


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


def test_find_shortcut_square_with_chord():
    # a->b->c->d plus the chord a->d; the witness pair is (b, d)
    g = build_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    o = _orient(g, [(0, 1), (1, 2), (2, 3), (0, 3)])
    w = find_shortcut(o)
    assert w is not None
    assert w.path == (0, 1, 2, 3)
    assert w.violation == (1, 3)
    assert w.closing_arc == (0, 3)
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


def test_orientation_validates_edge_cover():
    with pytest.raises(ValueError):
        Orientation(triangle(), ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Orientation(triangle(), ((0, 1), (1, 2), (0, 1)))


def test_partial_orientation_round_trip():
    po = PartialOrientation(triangle())
    po.set_arc(2, 0)
    assert po.direction(0, 2) == 2
    assert po.has_arc(2, 0) and not po.has_arc(0, 2)
    po.unset_arc(0, 2)
    assert po.direction(0, 2) is None
    assert po.unset_edges() == sorted(triangle().edges)


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


def test_brute_force_w5_notexists_pure_and_pruned():
    w5 = build_wheel(5)
    pure = brute_force_semitransitive(w5, pure=True)
    assert pure.verdict == "notexists"
    assert pure.examined == 1024
    pruned = brute_force_semitransitive(w5)
    assert pruned.verdict == "notexists"
    assert pruned.examined < 1024


def test_brute_force_budget():
    w5 = build_wheel(5)
    assert brute_force_semitransitive(w5, budget=1000).verdict == "budget"


def test_brute_force_first_certificate_is_canonical():
    g = triangle()
    r = brute_force_semitransitive(g)
    rp = brute_force_semitransitive(g, pure=True)
    assert r.certificate == rp.certificate
    # counter 0: every edge lo->hi; transitive triangle is semi-transitive
    assert r.certificate.arcs == ((0, 1), (0, 2), (1, 2))


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(2 ** len(pairs)):
        yield LabeledGraph(
            [str(i) for i in range(n)],
            [e for i, e in enumerate(pairs) if bits >> i & 1],
        )


# a closed path whose chord is still unset is no persistent defect: every
# acyclic completion orients the chord forward.  Here the subtree under
# such a path holds the first certificate (counter 160).
UNSET_CHORD_GRAPH = LabeledGraph(
    [str(i) for i in range(6)],
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (2, 5),
     (3, 4), (4, 5)],
)


def test_pruned_equals_pure_on_all_4_vertex_graphs():
    for g in [*_all_graphs(4), UNSET_CHORD_GRAPH]:
        a = brute_force_semitransitive(g)
        b = brute_force_semitransitive(g, pure=True)
        assert (a.verdict, a.certificate) == (b.verdict, b.certificate), g.edge_list()


def test_reversal_symmetry_exhaustive_small():
    # every orientation of every <= 4-vertex graph (5-vertex case runs in
    # the acceptance suite)
    for g in _all_graphs(4):
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
        if w is None:
            continue
        po = o.as_partial()
        k = len(w.path) - 1
        assert all(po.has_arc(w.path[t], w.path[t + 1]) for t in range(k))
        assert po.has_arc(*w.closing_arc)
        i, j = w.violation
        assert (i, j) != (0, k) and i < j
        assert not po.has_arc(w.path[i], w.path[j])


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
    # find_shortcut misses no shortcut and reports none that is not there
    for n in range(1, 6):
        for g in _all_graphs(n):
            edges = sorted(g.edges)
            for bits in range(2 ** len(edges)):
                o = Orientation(g, tuple(
                    (lo, hi) if not bits >> i & 1 else (hi, lo)
                    for i, (lo, hi) in enumerate(edges)
                ))
                if not is_acyclic(o):
                    continue
                assert (find_shortcut(o) is None) == (not _naive_has_shortcut(o)), o.arcs


def test_dot_export_directed():
    g = triangle()
    o = _orient(g, [(0, 1), (0, 2), (1, 2)])
    dot = orientation_to_dot(o)
    assert dot.startswith("digraph")
    assert dot.count("->") == 3

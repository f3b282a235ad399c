import pytest
from hypothesis import given, strategies as st

from wordrep.graphs import (
    DuplicateLabel,
    LabeledGraph,
    SelfLoop,
    UnknownEndpoint,
    build_graph,
    build_wheel,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    is_proper_coloring,
    max_degree_vertex,
)

from helpers import graph_to_dot


def test_build_graph_smallest():
    g = build_graph(["a", "b"], [("a", "b")])
    assert g.n == 2
    assert g.edges == {(0, 1)}


def test_build_graph_dedups_swapped_pairs():
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "a")])
    assert g.n == 3
    assert len(g.edges) == 1


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(["a"], [("a", "a")])


def test_build_graph_rejects_duplicate_label():
    with pytest.raises(DuplicateLabel):
        build_graph(["a", "a"], [])


def test_both_constructors_name_a_duplicate_label_alike():
    # build_graph leaves the label check to LabeledGraph, so the two entry
    # points raise one message, edges or not
    for make in (
        lambda: LabeledGraph(["a", "b", "a"], [(0, 1)]),
        lambda: build_graph(["a", "b", "a"], [("a", "b")]),
        lambda: build_graph(["a", "b", "a"], [("a", "z")]),
    ):
        with pytest.raises(DuplicateLabel) as caught:
            make()
        assert str(caught.value) == "duplicate label 'a'"


def test_build_graph_rejects_unknown_endpoint():
    with pytest.raises(UnknownEndpoint):
        build_graph(["a", "b"], [("a", "z")])


def test_wheel_w5():
    g = build_wheel(5)
    assert g.n == 6
    assert len(g.edges) == 10
    hub = g.index["h"]
    assert g.degree(hub) == 5
    assert all(g.degree(v) == 3 for v in range(5))


def test_wheel_m3_is_k4():
    g = build_wheel(3)
    assert g.n == 4
    assert len(g.edges) == 6


def test_wheel_m4_counts():
    g = build_wheel(4)
    assert g.n == 5
    assert len(g.edges) == 8


def test_wheel_rejects_small_rim():
    with pytest.raises(ValueError):
        build_wheel(2)


def test_induced_subgraph_of_c4_is_path():
    c4 = build_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    sub = induced_subgraph(c4, {0, 1, 2})
    assert sub.labels == ("a", "b", "c")
    assert sub.edges == {(0, 1), (1, 2)}


def test_induced_subgraph_identity():
    g = build_wheel(4)
    assert induced_subgraph(g, range(g.n)) == g


def test_induced_subgraph_w5_rim_is_c5():
    w5 = build_wheel(5)
    rim = induced_subgraph(w5, range(5))
    assert len(rim.edges) == 5
    assert all(rim.degree(v) == 2 for v in range(5))


def test_induced_subgraph_rejects_bad_id():
    with pytest.raises(UnknownEndpoint):
        induced_subgraph(build_wheel(3), {0, 99})


def test_max_degree_vertex_hub():
    w5 = build_wheel(5)
    assert max_degree_vertex(w5) == w5.index["h"]


def test_max_degree_vertex_tie_breaks_low():
    g = build_graph(["a", "b", "c"], [])
    assert max_degree_vertex(g) == 0


def test_max_degree_vertex_empty_graph():
    with pytest.raises(ValueError):
        max_degree_vertex(build_graph([], []))


def test_proper_coloring_single_edge():
    g = build_graph(["a", "b"], [("a", "b")])
    assert is_proper_coloring(g, [0, 1])
    assert not is_proper_coloring(g, [0, 0])


def test_proper_coloring_requires_total_assignment():
    g = build_graph(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError):
        is_proper_coloring(g, [0])


def test_json_round_trip_is_relabeling():
    g = build_wheel(5)
    g2 = graph_from_json(graph_to_json(g))
    assert sorted(g2.labels) == sorted(g.labels)
    # edge sets agree as label pairs
    as_labels = lambda gr: {frozenset((gr.labels[a], gr.labels[b])) for a, b in gr.edges}
    assert as_labels(g2) == as_labels(g)


def test_json_canonical_sorting():
    g = build_graph(["b", "a"], [("b", "a")])
    obj = graph_to_json(g)
    assert obj["labels"] == ["a", "b"]
    assert obj["edges"] == [["a", "b"]]


def test_dot_export_mentions_all_edges():
    g = build_wheel(3)
    dot = graph_to_dot(g)
    assert dot.startswith("graph")
    assert dot.count("--") == 6


# edge set closure under endpoint swap + no loops is structural: edges are
# stored (lo, hi), so check the constructor normalizes arbitrary input order
@given(
    st.integers(3, 8).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=12,
        ).map(lambda es: (n, es))
    )
)
def test_constructor_normalizes(case):
    n, es = case
    g = LabeledGraph([str(i) for i in range(n)], es)
    for a, b in g.edges:
        assert a < b
        assert g.has_edge(a, b) and g.has_edge(b, a)
    assert {(a, b) for a, b in g.edges} == {tuple(sorted(e)) for e in es}


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] < e[1]
                )
            ),
            st.sets(st.integers(0, n - 1)),
        )
    )
)
def test_induced_subgraph_edge_monotone(case):
    n, es, keep = case
    g = LabeledGraph([str(i) for i in range(n)], es)
    sub = induced_subgraph(g, keep)
    kept = sorted(keep)
    back = {i: v for i, v in enumerate(kept)}
    sub_edges_in_g = {tuple(sorted((back[a], back[b]))) for a, b in sub.edges}
    expected = {e for e in g.edges if e[0] in keep and e[1] in keep}
    assert sub_edges_in_g == expected

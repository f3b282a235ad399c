import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wordrep.graphs import build_graph, build_wheel, LabeledGraph
from wordrep.orientations import brute_force_semitransitive
from wordrep.words import (
    BudgetExceeded,
    MissingLetter,
    find_uniform_representant,
    represents,
)

from helpers import alternate, graph_of_word

A, B, C = 0, 1, 2


def _edge_sets(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return st.sets(st.sampled_from(pairs)) if pairs else st.just(set())


def test_alternate_abab():
    assert alternate([A, B, A, B], A, B)


def test_alternate_aab():
    assert not alternate([A, A, B], A, B)


def test_alternate_abacbc():
    w = [A, B, A, C, B, C]
    assert not alternate(w, A, C)  # restriction a,a,c,c
    assert alternate(w, B, C)


def test_alternate_rejects_equal_letters():
    with pytest.raises(ValueError):
        alternate([A], A, A)


def test_alternate_short_restrictions_alternate():
    assert alternate([A], A, B)
    assert alternate([], A, B)


def test_graph_of_word_single_edge():
    g = graph_of_word([A, B, A, B], 2)
    assert g.edges == {(0, 1)}


def test_graph_of_word_k3():
    g = graph_of_word([A, B, C, A, B, C], 3)
    assert g.edges == {(0, 1), (0, 2), (1, 2)}


def test_graph_of_word_path():
    g = graph_of_word([A, B, A, C, B, C], 3)
    assert g.edges == {(0, 1), (1, 2)}


def test_graph_of_word_missing_letter():
    with pytest.raises(MissingLetter):
        graph_of_word([A, B], 3)


def test_represents_examples():
    single = build_graph(["a", "b"], [("a", "b")])
    assert represents([A, B, A, B], single)
    edgeless = build_graph(["a", "b"], [])
    assert not represents([A, B], edgeless)
    p3 = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert represents([A, B, A, C, B, C], p3)


def test_represents_rejects_a_letter_that_is_not_a_vertex():
    single = build_graph(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError):
        represents([A, B, 2], single)


def _graphs_and_words(n):
    return st.tuples(
        st.just(n), _edge_sets(n), st.lists(st.integers(0, n - 1), max_size=18)
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(_graphs_and_words))
def test_represents_is_the_per_pair_definition(case):
    # one pass over the word gives the verdict of the per-pair definition,
    # and a missing letter is reported as the same vertex
    n, edges, w = case
    g = LabeledGraph([str(i) for i in range(n)], edges)
    try:
        expected = graph_of_word(w, n) == g
    except MissingLetter as exc:
        with pytest.raises(MissingLetter) as raised:
            represents(w, g)
        assert raised.value.vertex == exc.vertex
    else:
        assert represents(w, g) == expected


def _cycle(n):
    return build_graph(
        [str(i) for i in range(n)], [(str(i), str((i + 1) % n)) for i in range(n)]
    )


@pytest.mark.parametrize(
    "g, k_max, word, nodes",
    [
        pytest.param(_cycle(5), 2, [0, 1, 4, 0, 3, 4, 2, 3, 1, 2], 26, id="C5-k2"),
        pytest.param(
            build_graph(list("0123"), [("0", "1"), ("1", "2"), ("2", "3")]),
            2,
            [0, 1, 0, 2, 1, 3, 2, 3],
            9,
            id="P4-k2",
        ),
        pytest.param(_cycle(4), 2, [0, 1, 3, 0, 2, 3, 1, 2], 11, id="C4-k2"),
        pytest.param(build_wheel(5), 2, None, 406, id="W5-k2"),
        pytest.param(build_wheel(5), 3, None, 5_104, id="W5-k3"),
    ],
)
def test_word_search_keeps_its_words_and_node_counts(g, k_max, word, nodes):
    # a budget of exactly the node count suffices, one node less does not
    assert find_uniform_representant(g, k_max, budget=nodes) == word
    with pytest.raises(BudgetExceeded):
        find_uniform_representant(g, k_max, budget=nodes - 1)


def test_uniform_representant_clique():
    k4 = build_graph(list("abcd"), [(x, y) for x in "abcd" for y in "abcd" if x < y])
    w = find_uniform_representant(k4, k_max=1)
    assert w == [0, 1, 2, 3]
    assert represents(w, k4)


def test_word_search_is_not_bounded_by_the_recursion_limit():
    # the search keeps its own stack: a 1,100-letter word, past Python's
    # default recursion limit of 1,000
    n = 1100
    clique = LabeledGraph([str(i) for i in range(n)], list(itertools.combinations(range(n), 2)))
    assert find_uniform_representant(clique, k_max=1) == list(range(n))


def test_uniform_representant_edgeless_pair():
    g = build_graph(["a", "b"], [])
    w = find_uniform_representant(g, k_max=2)
    assert w == [0, 0, 1, 1]
    assert represents(w, g)


def test_uniform_representant_w5_fails_at_k2():
    assert find_uniform_representant(build_wheel(5), k_max=2) is None


def test_uniform_representant_budget():
    with pytest.raises(BudgetExceeded):
        find_uniform_representant(build_wheel(5), k_max=2, budget=10)


def test_uniform_word_is_uniform_and_represents():
    c5 = build_graph(
        [str(i) for i in range(5)], [(str(i), str((i + 1) % 5)) for i in range(5)]
    )
    w = find_uniform_representant(c5, k_max=2)
    assert w is not None
    assert represents(w, c5)
    assert all(w.count(v) == w.count(0) for v in range(5))


def test_uniform_representant_first_hit_is_deterministic():
    # hand-checked restrictions: every edge pair alternates, every
    # non-edge pair repeats
    c4 = build_graph(list("0123"), [(str(i), str((i + 1) % 4)) for i in range(4)])
    assert find_uniform_representant(c4, k_max=2) == [0, 1, 3, 0, 2, 3, 1, 2]
    p4 = build_graph(list("0123"), [("0", "1"), ("1", "2"), ("2", "3")])
    assert find_uniform_representant(p4, k_max=2) == [0, 1, 0, 2, 1, 3, 2, 3]


@given(st.lists(st.integers(0, 3), max_size=14), st.data())
def test_alternate_symmetric(w, data):
    x = data.draw(st.integers(0, 3))
    y = data.draw(st.integers(0, 3).filter(lambda v: v != x))
    assert alternate(w, x, y) == alternate(w, y, x)


@given(st.lists(st.integers(0, 4), max_size=14))
def test_alternate_ignores_other_letters(w):
    filtered = [v for v in w if v != 2]
    assert alternate(w, 0, 1) == alternate(filtered, 0, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), _edge_sets(n))))
def test_word_search_agrees_with_oracle_forward(case):
    # a found representant implies a semi-transitive orientation exists
    n, edges = case
    g = LabeledGraph([str(i) for i in range(n)], edges)
    w = find_uniform_representant(g, k_max=2)
    if w is not None:
        assert represents(w, g)
        assert brute_force_semitransitive(g).verdict == "exists"


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), _edge_sets(n))), st.data())
def test_word_search_relabeling_invariance(case, data):
    # fixing w[0] = vertex 0 loses no graphs: uniform representants are
    # closed under cyclic shifts, so the verdict is relabeling-invariant
    n, edges = case
    g = LabeledGraph([str(i) for i in range(n)], edges)
    perm = data.draw(st.permutations(range(n)))
    relabeled = LabeledGraph(
        [str(i) for i in range(n)],
        [(perm[a], perm[b]) for a, b in edges],
    )
    found = find_uniform_representant(g, k_max=2) is not None
    found_rel = find_uniform_representant(relabeled, k_max=2) is not None
    assert found == found_rel

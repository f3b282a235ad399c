import pytest

from wordrep.debruijn import (
    SizeLimitExceeded,
    build_debruijn,
    build_simplified,
    simplified_to_dot,
    simplify,
)


def test_b12_arcs():
    b = build_debruijn(1, 2)
    assert b.vertices == ("0", "1")
    assert sorted(b.arcs) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_b22_counts_and_loops():
    b = build_debruijn(2, 2)
    assert len(b.vertices) == 4
    assert len(b.arcs) == 8
    loops = {b.vertices[u] for u, v in b.arcs if u == v}
    assert loops == {"00", "11"}


def test_b23_counts_and_loops():
    b = build_debruijn(2, 3)
    assert len(b.vertices) == 9
    assert len(b.arcs) == 27
    assert sum(1 for u, v in b.arcs if u == v) == 3


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (4, 2)])
def test_counts_formulae(n, k):
    b = build_debruijn(n, k)
    assert len(b.vertices) == k**n
    assert len(b.arcs) == k ** (n + 1)
    assert sum(1 for u, v in b.arcs if u == v) == k
    # arcs are pairwise distinct ordered pairs: an (n+1)-word is determined
    # by its prefix plus last letter
    assert len(set(b.arcs)) == len(b.arcs)


def test_s12_single_edge_with_both_labels():
    s = build_simplified(1, 2)
    assert s.graph.n == 2
    assert s.graph.edges == {(0, 1)}
    assert s.edge_labels[(0, 1)] == ("01", "10")


def test_s22_edges():
    s = build_simplified(2, 2)
    g = s.graph
    names = {frozenset((g.labels[a], g.labels[b])) for a, b in g.edges}
    assert names == {
        frozenset({"00", "01"}),
        frozenset({"00", "10"}),
        frozenset({"01", "11"}),
        frozenset({"10", "11"}),
        frozenset({"01", "10"}),
    }
    e = tuple(sorted((g.index["01"], g.index["10"])))
    assert s.edge_labels[e] == ("010", "101")


@pytest.mark.parametrize(
    "n,k,vcount,ecount",
    [(2, 2, 4, 5), (2, 3, 9, 21), (3, 3, 27, 75), (2, 4, 16, 54), (5, 2, 32, 61), (4, 2, 16, 29)],
)
def test_simplified_counts(n, k, vcount, ecount):
    s = build_simplified(n, k)
    assert s.graph.n == vcount
    assert len(s.graph.edges) == ecount


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_merged_pairs_are_alternating_words(n, k):
    b = build_debruijn(n, k)
    s = simplify(b)
    arcset = set(b.arcs)
    for (lo, hi), words in s.edge_labels.items():
        mutual = (lo, hi) in arcset and (hi, lo) in arcset
        assert mutual == (len(words) == 2)
        if mutual:
            u, v = s.graph.labels[lo], s.graph.labels[hi]
            # u and v shift into each other both ways: u = abab.., v = baba..
            assert u[1:] == v[:-1] and v[1:] == u[:-1]
            assert u == (u[0] + u[1]) * (len(u) // 2) + (u[0] if len(u) % 2 else "")


def test_edge_labels_have_endpoint_prefix_suffix():
    s = build_simplified(2, 3)
    g = s.graph
    for (lo, hi), words in s.edge_labels.items():
        for w in words:
            ends = {w[:-1], w[1:]}
            assert ends == {g.labels[lo], g.labels[hi]}


def test_size_limit():
    with pytest.raises(SizeLimitExceeded):
        build_debruijn(13, 2)
    build_debruijn(13, 2, size_limit=10000)


def test_bad_parameters():
    with pytest.raises(ValueError):
        build_debruijn(0, 2)
    with pytest.raises(ValueError):
        build_debruijn(2, 1)


@pytest.mark.parametrize("n,k", [(1, 11), (2, 12)])
def test_more_letters_than_digits_is_a_bad_parameter(n, k):
    # a label spells each letter as one decimal digit, so k <= 10; past
    # that, labels would collide or fail to split into letters
    with pytest.raises(ValueError, match="2 <= k <= 10"):
        build_debruijn(n, k)
    assert len(build_debruijn(1, 10).vertices) == 10


def test_dot_labels_each_edge_by_its_least_word():
    s = build_simplified(1, 2)
    dot = simplified_to_dot(s)
    assert 'label="01"' in dot

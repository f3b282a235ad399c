"""Anchored induced-subgraph search and the hereditary transfer it enables."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordrep.debruijn import build_simplified
from wordrep.graphs import LabeledGraph, build_graph, build_wheel, induced_subgraph
from wordrep.solver import NonSemiTransitive, solve
from wordrep.subiso import Embedding, find_induced_embedding
from wordrep.traces import extract_graph, load_witness_trace, verify_trace

from helpers import contains_induced, image_of


def k(n):
    labels = [chr(ord("a") + i) for i in range(n)]
    return LabeledGraph(
        labels, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def c4():
    return build_graph(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    )


# ---------------------------------------------------------------------------
# the Embedding type


def test_embedding_validates_shape():
    with pytest.raises(ValueError, match="cover every"):
        Embedding(k(3), k(4), (0, 1))
    with pytest.raises(ValueError, match="injective"):
        Embedding(k(3), k(4), (0, 1, 1))
    with pytest.raises(ValueError, match="out of host range"):
        Embedding(k(3), k(4), (0, 1, 9))


def test_embedding_label_views():
    e = Embedding(k(2), k(3), (2, 0))
    assert image_of(e, "a") == "c"
    assert e.as_label_map() == {"a": "c", "b": "a"}


def test_is_induced_detects_both_failure_directions():
    # an edge mapped onto a non-edge
    assert not Embedding(k(2), c4(), (0, 2)).is_induced()
    # a non-edge mapped onto an edge
    p2 = LabeledGraph(["x", "y"], [])
    assert not Embedding(p2, k(2), (0, 1)).is_induced()
    assert Embedding(k(2), c4(), (0, 1)).is_induced()


# ---------------------------------------------------------------------------
# basic search behavior


def test_triangle_embeds_in_k4_but_c4_does_not():
    assert contains_induced(k(3), k(4))
    assert not contains_induced(c4(), k(4))


def test_pattern_larger_than_host_finds_nothing():
    assert find_induced_embedding(k(4), k(3)) is None
    assert find_induced_embedding(build_wheel(5), build_simplified(2, 2).graph) is None


def test_empty_pattern_embeds_anywhere():
    empty = LabeledGraph([], [])
    assert contains_induced(empty, k(3))
    assert contains_induced(empty, empty)
    assert not contains_induced(k(1), empty)


def test_anchor_errors():
    with pytest.raises(ValueError, match="not a pattern vertex"):
        find_induced_embedding(k(2), k(3), {"z": "a"})
    with pytest.raises(ValueError, match="not a host vertex"):
        find_induced_embedding(k(2), k(3), {"a": "zz"})
    with pytest.raises(ValueError, match="distinct"):
        find_induced_embedding(k(3), k(4), {"a": "d", "b": "d"})


def test_inconsistent_anchors_find_nothing():
    # adjacent pattern vertices anchored to non-adjacent host vertices
    assert find_induced_embedding(k(3), c4(), {"a": "a", "b": "c"}) is None
    # a pattern vertex anchored where its degree cannot be met
    path3 = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    leaf_anchor = find_induced_embedding(path3, path3, {"b": "a"})
    assert leaf_anchor is None


def test_anchored_results_extend_the_anchors():
    e = find_induced_embedding(k(3), k(4), {"a": "d", "c": "b"})
    assert e is not None
    assert image_of(e, "a") == "d" and image_of(e, "c") == "b"
    assert e.is_induced()


def test_a_pattern_deeper_than_the_recursion_limit_embeds():
    # the backtracking keeps its own stack, so a pattern with more vertices
    # than Python allows frames is searched; a path into itself maps each
    # vertex to itself, the first candidate in index order
    n = 1100
    path = LabeledGraph([str(v) for v in range(n)], [(v, v + 1) for v in range(n - 1)])
    e = find_induced_embedding(path, path)
    assert e is not None and e.mapping == tuple(range(n))


# ---------------------------------------------------------------------------
# the de Bruijn witnesses


def test_w5_embeds_in_s23_deterministically():
    s23 = build_simplified(2, 3).graph
    e = find_induced_embedding(build_wheel(5), s23)
    assert e is not None and e.is_induced()
    assert e.as_label_map() == {
        "h": "01",
        "c0": "00",
        "c1": "10",
        "c2": "11",
        "c3": "12",
        "c4": "20",
    }
    assert e == find_induced_embedding(build_wheel(5), s23)


def test_the_hand_checkable_w5_image_is_valid():
    # hub 01 with rim cycle 11-10-00-20-12 is an independent witness
    s23 = build_simplified(2, 3).graph
    w5 = build_wheel(5)
    rim = ["11", "10", "00", "20", "12"]
    by_label = {"h": "01"} | {f"c{i}": rim[i] for i in range(5)}
    mapping = tuple(s23.index[by_label[label]] for label in w5.labels)
    assert Embedding(w5, s23, mapping).is_induced()


def test_s23_is_an_induced_subgraph_of_s24_digit_preservingly():
    s23 = build_simplified(2, 3).graph
    s24 = build_simplified(2, 4).graph
    inclusion = tuple(s24.index[label] for label in s23.labels)
    assert Embedding(s23, s24, inclusion).is_induced()
    assert contains_induced(s23, s24)


def test_witness_graph_embeds_in_s33_with_both_anchors_pinned():
    witness = extract_graph(load_witness_trace())
    s33 = build_simplified(3, 3).graph
    e = find_induced_embedding(witness, s33, {"1": "102", "2": "210"})
    assert e is not None and e.is_induced()
    assert image_of(e, "1") == "102" and image_of(e, "2") == "210"
    assert e.as_label_map() == {
        "1": "102",
        "2": "210",
        "3": "021",
        "4": "121",
        "5": "212",
        "6": "221",
        "7": "022",
        "8": "202",
        "9": "220",
        "10": "222",
        "11": "122",
        "12": "112",
        "13": "211",
        "14": "111",
        "15": "011",
        "16": "110",
        "17": "101",
    }


def test_the_trace_verifies_against_the_induced_image_in_s33():
    # extraction alone cannot prove non-edges; the embedding does, and
    # the proof must still verify against the relabeled induced image
    trace = load_witness_trace()
    witness = extract_graph(trace)
    s33 = build_simplified(3, 3).graph
    e = find_induced_embedding(witness, s33, {"1": "102", "2": "210"})
    image = induced_subgraph(s33, set(e.mapping))
    back = {host: pat for pat, host in e.as_label_map().items()}
    relabeled = LabeledGraph(
        [back[label] for label in image.labels], image.edge_list()
    )
    assert verify_trace(relabeled, trace).accepted


def test_hereditary_transfer_to_the_host():
    w5 = build_wheel(5)
    for host in (build_simplified(2, 3).graph, build_simplified(2, 4).graph):
        assert contains_induced(w5, host)
        assert isinstance(solve(host), NonSemiTransitive)


# ---------------------------------------------------------------------------
# completeness and soundness on random instances


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_planted_patterns_are_always_found(data):
    n = data.draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if data.draw(st.booleans())]
    host = LabeledGraph([f"v{i}" for i in range(n)], edges)
    size = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    keep = sorted(rng.sample(range(n), size))
    planted = induced_subgraph(host, keep)
    shuffled = list(range(planted.n))
    rng.shuffle(shuffled)
    pattern = LabeledGraph(
        [planted.labels[shuffled[i]] for i in range(planted.n)],
        [
            (shuffled.index(a), shuffled.index(b))
            for a, b in planted.edge_list()
        ],
    )
    e = find_induced_embedding(pattern, host)
    assert e is not None
    assert e.is_induced()

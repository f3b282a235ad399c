import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordrep.coloring import (
    BLUE,
    GREEN,
    RED,
    classify_binary_vertex,
    color_s_n_2,
    exact_chromatic_number,
)
from wordrep.debruijn import SizeLimitExceeded, build_simplified
from wordrep.graphs import LabeledGraph, build_graph, build_wheel, is_proper_coloring
from wordrep.orientations import Orientation, is_semitransitive

from helpers import cycle, reference_is_semitransitive

COLORINGS = Path(__file__).parent / "data" / "colorings"


@pytest.mark.parametrize(
    "label,color",
    [
        ("100", RED),
        ("110", BLUE),
        ("000", BLUE),
        ("111", GREEN),
        ("001", GREEN),
        ("0", BLUE),
        ("1", GREEN),
        ("00", RED),
        ("11", RED),
        ("01", GREEN),
        ("10", BLUE),
        ("0100", RED),
        ("1011", RED),
    ],
)
def test_classify_pinned(label, color):
    assert classify_binary_vertex(label) == color


@pytest.mark.parametrize("label", ["", "102", "ab", "2"])
def test_classify_rejects_bad_labels(label):
    with pytest.raises(ValueError):
        classify_binary_vertex(label)


@pytest.mark.parametrize("n", range(1, 13))
def test_classify_partitions_all_binary_words(n):
    counts = {RED: 0, BLUE: 0, GREEN: 0}
    for bits in itertools.product("01", repeat=n):
        counts[classify_binary_vertex("".join(bits))] += 1
    assert sum(counts.values()) == 2**n
    if n >= 2:
        assert all(c > 0 for c in counts.values())


def test_color_s_1_2():
    s, coloring = color_s_n_2(1)
    assert s.graph.labels == ("0", "1")
    assert coloring == [BLUE, GREEN]


def test_color_s_2_2():
    s, coloring = color_s_n_2(2)
    by_label = {s.graph.labels[v]: coloring[v] for v in range(4)}
    assert by_label == {"00": RED, "11": RED, "01": GREEN, "10": BLUE}
    assert is_proper_coloring(s.graph, coloring)


@pytest.mark.parametrize("n", range(1, 11))
def test_color_s_n_2_proper_up_to_10(n):
    s, coloring = color_s_n_2(n)
    assert len(coloring) == 2**n
    assert is_proper_coloring(s.graph, coloring)


def test_color_s_5_2_is_proper_on_32_vertices():
    s, coloring = color_s_n_2(5)
    assert s.graph.n == 32
    assert set(coloring) == {RED, BLUE, GREEN}
    assert is_proper_coloring(s.graph, coloring)


def test_chromatic_pinned_values():
    k4 = build_graph(
        list("abcd"), [(x, y) for x in "abcd" for y in "abcd" if x < y]
    )
    assert exact_chromatic_number(k4, 4) == 4
    assert exact_chromatic_number(k4, 3) is None
    assert exact_chromatic_number(cycle(5), 4) == 3
    assert exact_chromatic_number(build_wheel(5), 4) == 4


def test_chromatic_easy_cases():
    assert exact_chromatic_number(LabeledGraph([], []), 3) == 0
    assert exact_chromatic_number(LabeledGraph(["a"], []), 3) == 1
    edgeless = LabeledGraph(list("abc"), [])
    assert exact_chromatic_number(edgeless, 3) == 1
    even_cycle = cycle(6)
    assert exact_chromatic_number(even_cycle, 4) == 2


def test_chromatic_vertex_limit():
    # 64 vertices are searched, 65 refused
    assert exact_chromatic_number(LabeledGraph([str(i) for i in range(64)], []), 3) == 1
    g = LabeledGraph([str(i) for i in range(65)], [])
    with pytest.raises(SizeLimitExceeded, match="65 vertices exceeds .* limit 64"):
        exact_chromatic_number(g, 3)


def _brute_chromatic(g: LabeledGraph, max_colors: int) -> int | None:
    for c in range(0 if g.n == 0 else 1, max_colors + 1):
        for assignment in itertools.product(range(c), repeat=g.n):
            if all(assignment[a] != assignment[b] for a, b in g.edges):
                return c
    return 0 if g.n == 0 else None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.sets(
    st.sampled_from([(i, j) for i in range(5) for j in range(i + 1, 5)])
))))
def test_chromatic_matches_bruteforce(case):
    n, raw_edges = case
    edges = {(a, b) for a, b in raw_edges if b < n}
    g = LabeledGraph([str(i) for i in range(n)], edges)
    assert exact_chromatic_number(g, 4) == _brute_chromatic(g, 4)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_pinned_3_colourings_of_s_n_3_orient_semitransitively(n):
    # S(n,3) for n >= 4 is conjectured not word-representable, but under
    # this library's convention (vertices as length-n words over 3
    # letters) S(4,3) to S(7,3) are 3-colourable.  The colourings were
    # found by a DSATUR search on edges rebuilt from the definition, and
    # orienting each edge from the lower colour to the higher is then
    # semi-transitive: every directed path has at most three vertices.
    g = build_simplified(n, 3).graph
    by_label = json.loads((COLORINGS / f"s{n}-3.json").read_text(encoding="utf-8"))
    assert sorted(by_label) == sorted(g.labels)
    colors = [by_label[label] for label in g.labels]
    assert set(colors) <= {0, 1, 2} and is_proper_coloring(g, colors)
    arcs = tuple((a, b) if colors[a] < colors[b] else (b, a) for a, b in sorted(g.edges))
    assert is_semitransitive(Orientation(g, arcs))
    assert reference_is_semitransitive(g, arcs)

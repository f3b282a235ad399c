"""De Bruijn digraphs B(n,k) and their simplified undirected graphs S(n,k).

B(n,k) has the k^n length-n digit strings as vertices and one arc
u -> v per (n+1)-word w, where u is w's length-n prefix and v its suffix
(k^{n+1} arcs in total, loops included). S(n,k) drops loops and
orientations and merges each mutually-reversed arc pair into one edge;
every surviving edge remembers the (n+1)-words that induced it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .graphs import LabeledGraph

__all__ = [
    "SizeLimitExceeded",
    "DeBruijnDigraph",
    "SimplifiedDeBruijnGraph",
    "build_debruijn",
    "simplify",
    "build_simplified",
    "digraph_to_dot",
    "simplified_to_dot",
]

DEFAULT_SIZE_LIMIT = 4096


class SizeLimitExceeded(Exception):
    pass


class DeBruijnDigraph(NamedTuple):
    n: int
    k: int
    vertices: tuple[str, ...]
    arcs: tuple[tuple[int, int], ...]  # one per (n+1)-word; loops included


class SimplifiedDeBruijnGraph(NamedTuple):
    graph: LabeledGraph
    # unordered edge (lo, hi) -> sorted tuple of the (n+1)-words that induced it
    edge_labels: dict[tuple[int, int], tuple[str, ...]]


def build_debruijn(n: int, k: int, size_limit: int = DEFAULT_SIZE_LIMIT) -> DeBruijnDigraph:
    # a label spells each letter as one decimal digit
    if n < 1 or not 2 <= k <= 10:
        raise ValueError(f"need n >= 1 and 2 <= k <= 10, got ({n}, {k})")
    if k**n > size_limit:
        raise SizeLimitExceeded(f"k^n = {k**n} exceeds limit {size_limit}")
    vertices = ["".join(map(str, t)) for t in itertools.product(range(k), repeat=n)]
    index = {v: i for i, v in enumerate(vertices)}
    arcs = []
    for t in itertools.product(range(k), repeat=n + 1):
        w = "".join(map(str, t))
        arcs.append((index[w[:-1]], index[w[1:]]))
    return DeBruijnDigraph(n, k, tuple(vertices), tuple(arcs))


def simplify(b: DeBruijnDigraph) -> SimplifiedDeBruijnGraph:
    by_edge: dict[tuple[int, int], list[str]] = {}
    for u, v in b.arcs:
        if u != v:
            word = b.vertices[u] + b.vertices[v][-1]
            by_edge.setdefault((u, v) if u < v else (v, u), []).append(word)
    graph = LabeledGraph(b.vertices, by_edge.keys())
    labels = {e: tuple(sorted(ws)) for e, ws in by_edge.items()}
    return SimplifiedDeBruijnGraph(graph, labels)


def build_simplified(n: int, k: int, size_limit: int = DEFAULT_SIZE_LIMIT) -> SimplifiedDeBruijnGraph:
    return simplify(build_debruijn(n, k, size_limit))


def digraph_to_dot(b: DeBruijnDigraph) -> str:
    lines = ["digraph b {"]
    for label in b.vertices:
        lines.append(f'  "{label}";')
    for t, h in b.arcs:
        lines.append(f'  "{b.vertices[t]}" -> "{b.vertices[h]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def simplified_to_dot(s: SimplifiedDeBruijnGraph) -> str:
    g = s.graph
    lines = ["graph s {"]
    for i, lab in enumerate(g.labels):
        lines.append(f'  v{i} [label="{lab}"];')
    for a, b in g.edge_list():
        lines.append(f'  v{a} -- v{b} [label="{s.edge_labels[a, b][0]}"];')
    lines.append("}")
    return "\n".join(lines)

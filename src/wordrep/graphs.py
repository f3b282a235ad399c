"""Undirected labeled graphs with dense integer vertex ids.

Vertices are dense indices ``0..n-1`` with a side table of distinct string
labels; every algorithm in this package works on indices and uses labels only
at the I/O boundary. Adjacency is kept both as a frozen set of ``(lo, hi)``
pairs and as per-vertex neighbor bitmasks so membership tests are O(1).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = [
    "LABEL_PATTERN",
    "GraphError",
    "DuplicateLabel",
    "UnknownEndpoint",
    "SelfLoop",
    "LabeledGraph",
    "build_graph",
    "build_wheel",
    "induced_subgraph",
    "max_degree_vertex",
    "is_proper_coloring",
    "graph_to_json",
    "graph_from_json",
]

# the vertex label grammar of the trace language; a graph whose labels do
# not fully match it cannot be named in a trace
LABEL_PATTERN = r"[A-Za-z0-9_]+"


class GraphError(Exception):
    """Base class for graph construction errors."""


class DuplicateLabel(GraphError):
    pass


class UnknownEndpoint(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class FrozenRecord:
    """Base of the immutable records that check their fields when made.

    A subclass names its fields in ``__slots__`` and its ``__init__``
    validates them, then stores them with ``_store`` in slot order.  The
    record compares, hashes, prints and pickles by those fields, and
    assigning to it raises ``AttributeError``.  The records that only hold
    fields are ``typing.NamedTuple``s instead.
    """

    __slots__ = ()

    def _store(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class LabeledGraph:
    """Simple undirected graph; immutable after construction.

    ``edges`` holds each edge once as ``(lo, hi)`` with ``lo < hi``.
    ``adj[v]`` is a bitmask of the neighbors of ``v``.
    """

    __slots__ = ("labels", "edges", "index", "adj")

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]]):
        labels = tuple(labels)
        index: dict[str, int] = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise DuplicateLabel(f"duplicate label {lab!r}")
            index[lab] = i
        n = len(labels)
        norm = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise UnknownEndpoint(f"vertex id out of range: {(a, b)}")
            if a == b:
                raise SelfLoop(f"self-loop at {labels[a]!r}")
            norm.add((a, b) if a < b else (b, a))
        adj = [0] * n
        for a, b in norm:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        self.labels = labels
        self.edges = frozenset(norm)
        self.index = index
        self.adj = tuple(adj)

    @property
    def n(self) -> int:
        return len(self.labels)

    def has_edge(self, a: int, b: int) -> bool:
        return a != b and bool(self.adj[a] >> b & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        mask, out = self.adj[v], []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.labels == other.labels and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, m={len(self.edges)})"


def build_graph(labels: Sequence[str], edges: Iterable[tuple[str, str]]) -> LabeledGraph:
    """Build a graph from labels and label-pair edges; duplicates collapse."""
    idx = LabeledGraph(labels, ()).index  # checks the labels
    pairs = []
    for a, b in edges:
        for end in (a, b):
            if end not in idx:
                raise UnknownEndpoint(f"edge {a!r}-{b!r}: no vertex {end!r}")
        pairs.append((idx[a], idx[b]))
    return LabeledGraph(labels, pairs)


def build_wheel(m: int) -> LabeledGraph:
    """Cycle c0..c{m-1} plus hub h adjacent to every rim vertex; 2m edges."""
    if m < 3:
        raise ValueError(f"wheel needs rim length >= 3, got {m}")
    labels = [f"c{i}" for i in range(m)] + ["h"]
    edges = [(i, (i + 1) % m) for i in range(m)] + [(i, m) for i in range(m)]
    return LabeledGraph(labels, edges)


def induced_subgraph(g: LabeledGraph, keep: Iterable[int]) -> LabeledGraph:
    """Subgraph on ``keep``, reindexed in ascending id order, labels kept."""
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise UnknownEndpoint(f"vertex id out of range: {v}")
    remap = {v: i for i, v in enumerate(kept)}
    labels = [g.labels[v] for v in kept]
    edges = [(remap[a], remap[b]) for a, b in g.edges if a in remap and b in remap]
    return LabeledGraph(labels, edges)


def max_degree_vertex(g: LabeledGraph) -> int:
    if g.n == 0:
        raise ValueError("empty graph has no max-degree vertex")
    # ties break to the smallest index
    return max(range(g.n), key=lambda v: (g.degree(v), -v))


def is_proper_coloring(g: LabeledGraph, colors: Sequence[int]) -> bool:
    if len(colors) != g.n:
        raise ValueError(f"coloring covers {len(colors)} of {g.n} vertices")
    return all(colors[a] != colors[b] for a, b in g.edges)


def graph_to_json(g: LabeledGraph) -> dict:
    """Canonical JSON object: labels sorted, edges as sorted label pairs."""
    labels = sorted(g.labels)
    edges = sorted(sorted((g.labels[a], g.labels[b])) for a, b in g.edges)
    return {"labels": labels, "edges": edges}


def graph_from_json(obj: Mapping) -> LabeledGraph:
    """The graph of ``{"labels": [str, ...], "edges": [[str, str], ...]}``.

    Anything else raises GraphError: a string or an object where an array
    belongs would otherwise be read as its characters or its keys."""
    labels, edges = obj["labels"], obj["edges"]
    if not isinstance(labels, list) or not isinstance(edges, list):
        raise GraphError("labels and edges must be arrays")
    for lab in labels:
        if not isinstance(lab, str):
            raise GraphError(f"label {lab!r} is not a string")
    for e in edges:
        if not (
            isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
        ):
            raise GraphError(f"edge {e!r} is not an array of two labels")
    return build_graph(labels, [tuple(e) for e in edges])

"""Orientations, shortcut detection, and the exhaustive brute-force oracle.

An orientation is semi-transitive when it is acyclic and no arc u->v
shortcuts a directed u->v path (a path with a missing or backward chord).
``find_shortcut`` is exact: in an acyclic orientation a shortcut exists iff
some arc (u,v) admits vertices x != y with u ->* x -> y ->* v over set arcs
where x->y is not itself a set arc and (x,y) != (u,v); the witness path is
assembled from shortest segments, which compose to a simple path in a DAG.

Every traversal of the directed bitmask adjacency (``out_adj[v]`` = heads
of the arcs leaving v) goes through one of three routines:
``reach_closure`` (reach rows, or None on a directed cycle),
``shortest_path`` (BFS taking heads lowest id first) and ``directed_cycle``.
The per-arc witness step, ``shortcut_under``, is shared with the solver:
``find_shortcut`` runs it under every set arc, in sorted order, while the
solver keeps its own reach and co-reach rows, grown arc by arc, and runs it
only under the closing arcs that a new arc can have changed.  The proof
verifier in ``traces`` keeps its own checks on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import LabeledGraph

__all__ = [
    "CyclicInput",
    "Orientation",
    "PartialOrientation",
    "ShortcutWitness",
    "BruteForceResult",
    "reach_closure",
    "shortest_path",
    "directed_cycle",
    "is_acyclic",
    "find_shortcut",
    "shortcut_under",
    "is_semitransitive",
    "brute_force_semitransitive",
]


class CyclicInput(Exception):
    pass


UNSET, FORWARD, BACKWARD = 0, 1, 2  # per-edge states; FORWARD = lo -> hi


class PartialOrientation:
    """Mutable per-edge three-state orientation over a fixed graph.

    The edge order (sorted (lo, hi) pairs) is the canonical order used by
    the brute-force counter and the solver.
    """

    __slots__ = ("graph", "edge_order", "edge_index", "state", "out_adj")

    def __init__(self, graph: LabeledGraph):
        self.graph = graph
        self.edge_order: list[tuple[int, int]] = sorted(graph.edges)
        self.edge_index = {e: i for i, e in enumerate(self.edge_order)}
        self.state = [UNSET] * len(self.edge_order)
        self.out_adj = [0] * graph.n  # bitmask of arc heads per tail

    def copy(self) -> "PartialOrientation":
        other = object.__new__(PartialOrientation)
        other.graph = self.graph
        other.edge_order = self.edge_order
        other.edge_index = self.edge_index
        other.state = list(self.state)
        other.out_adj = list(self.out_adj)
        return other

    def direction(self, a: int, b: int) -> int | None:
        """None if edge (a,b) unset; else the tail of its arc."""
        lo, hi = (a, b) if a < b else (b, a)
        s = self.state[self.edge_index[(lo, hi)]]
        if s == UNSET:
            return None
        return lo if s == FORWARD else hi

    def has_arc(self, tail: int, head: int) -> bool:
        return bool(self.out_adj[tail] >> head & 1)

    def set_arc(self, tail: int, head: int) -> None:
        lo, hi = (tail, head) if tail < head else (head, tail)
        i = self.edge_index[(lo, hi)]
        new = FORWARD if tail == lo else BACKWARD
        if self.state[i] == new:
            return
        if self.state[i] != UNSET:
            raise ValueError(
                f"edge {self.graph.labels[lo]}-{self.graph.labels[hi]} already "
                "oriented the other way"
            )
        self.state[i] = new
        self.out_adj[tail] |= 1 << head

    def unset_arc(self, a: int, b: int) -> None:
        lo, hi = (a, b) if a < b else (b, a)
        i = self.edge_index[(lo, hi)]
        s = self.state[i]
        if s == UNSET:
            return
        tail, head = (lo, hi) if s == FORWARD else (hi, lo)
        self.state[i] = UNSET
        self.out_adj[tail] &= ~(1 << head)

    def arcs(self) -> Iterator[tuple[int, int]]:
        for (lo, hi), s in zip(self.edge_order, self.state):
            if s == FORWARD:
                yield (lo, hi)
            elif s == BACKWARD:
                yield (hi, lo)

    def unset_edges(self) -> list[tuple[int, int]]:
        return [e for e, s in zip(self.edge_order, self.state) if s == UNSET]

    def fully_oriented(self) -> bool:
        return UNSET not in self.state


@dataclass(frozen=True)
class Orientation:
    """Total orientation: one arc per edge of the underlying graph."""

    graph: LabeledGraph
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = {(min(t, h), max(t, h)) for t, h in self.arcs}
        if edges != self.graph.edges or len(self.arcs) != len(self.graph.edges):
            raise ValueError("arcs must orient every edge exactly once")

    def as_partial(self) -> PartialOrientation:
        po = PartialOrientation(self.graph)
        for t, h in self.arcs:
            po.set_arc(t, h)
        return po


@dataclass(frozen=True)
class ShortcutWitness:
    path: tuple[int, ...]  # directed path v0 -> ... -> vk, closing arc v0 -> vk
    violation: tuple[int, int]  # indices (i, j) into path, i < j, (i,j) != (0,k)

    @property
    def closing_arc(self) -> tuple[int, int]:
        return (self.path[0], self.path[-1])


def reach_closure(out_adj: list[int]) -> list[int] | None:
    """reach[v] = bitmask of vertices reachable from v (v included);
    None when the arcs contain a directed cycle."""
    n = len(out_adj)
    indeg = [0] * n
    for targets in out_adj:
        while targets:
            low = targets & -targets
            indeg[low.bit_length() - 1] += 1
            targets ^= low
    stack = [v for v in range(n) if indeg[v] == 0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        targets = out_adj[v]
        while targets:
            low = targets & -targets
            w = low.bit_length() - 1
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
            targets ^= low
    if len(order) < n:
        return None
    reach = [0] * n
    for v in reversed(order):
        mask = 1 << v
        targets = out_adj[v]
        while targets:
            low = targets & -targets
            mask |= reach[low.bit_length() - 1]
            targets ^= low
        reach[v] = mask
    return reach


def shortest_path(out_adj: list[int], src: int, dst: int) -> list[int] | None:
    """Shortest directed src -> dst path by BFS, heads taken lowest id
    first; [src] when src == dst, None when dst is unreachable."""
    if src == dst:
        return [src]
    prev = {src: src}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            targets = out_adj[v]
            while targets:
                low = targets & -targets
                w = low.bit_length() - 1
                targets ^= low
                if w not in prev:
                    prev[w] = v
                    if w == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(w)
        frontier = nxt
    return None


def directed_cycle(out_adj: list[int]) -> list[int] | None:
    """Some simple directed cycle, found by DFS from the lowest ids, or None."""
    state = [0] * len(out_adj)  # 0 unseen, 1 on stack, 2 done
    stack: list[int] = []

    def visit(v: int) -> list[int] | None:
        state[v] = 1
        stack.append(v)
        mask = out_adj[v]
        while mask:
            w = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if state[w] == 1:
                return stack[stack.index(w):]
            if state[w] == 0:
                cyc = visit(w)
                if cyc is not None:
                    return cyc
        state[v] = 2
        stack.pop()
        return None

    for v in range(len(out_adj)):
        if state[v] == 0:
            cyc = visit(v)
            if cyc is not None:
                return cyc
    return None


def is_acyclic(o: Orientation | PartialOrientation) -> bool:
    po = o.as_partial() if isinstance(o, Orientation) else o
    return reach_closure(po.out_adj) is not None


def find_shortcut(o: Orientation | PartialOrientation) -> ShortcutWitness | None:
    """Exact shortcut detection over set arcs; raises CyclicInput on cycles.

    On a PartialOrientation this reports defects among fully oriented arcs,
    exactly the defects that persist in every completion.
    """
    po = o.as_partial() if isinstance(o, Orientation) else o
    reach = reach_closure(po.out_adj)
    if reach is None:
        raise CyclicInput("orientation has a directed cycle")
    arcs = sorted(po.arcs())
    in_adj = [0] * len(reach)
    for u, v in arcs:
        in_adj[v] |= 1 << u
    coreach = reach_closure(in_adj)  # coreach[v]: the vertices reaching v
    for u, v in arcs:
        witness = shortcut_under(po, reach, coreach, u, v)
        if witness is not None:
            return witness
    return None


def shortcut_under(
    po: PartialOrientation, reach: list[int], coreach: list[int], u: int, v: int
) -> ShortcutWitness | None:
    """The shortcut closed by the set arc u->v, else None.

    ``reach`` and ``coreach`` are the reach rows of the acyclic set arcs
    and of their transpose (``coreach[v]``: the vertices reaching v).
    The violating pair is ``_violating_pair``'s, and the path is made of
    shortest segments u ~> x ~> y ~> v.
    """
    pair = _violating_pair(po, reach, reach[u] & coreach[v], u, v)
    if pair is None:
        return None
    x, y = pair
    seg1 = shortest_path(po.out_adj, u, x)
    seg2 = shortest_path(po.out_adj, x, y)
    seg3 = shortest_path(po.out_adj, y, v)
    # segments cannot share interior vertices: a repeat would close a
    # directed cycle in the DAG of set arcs
    path = seg1 + seg2[1:] + seg3[1:]
    assert len(set(path)) == len(path)
    witness = ShortcutWitness(tuple(path), (path.index(x), path.index(y)))
    _assert_witness(po, witness)
    return witness


def _violating_pair(
    po: PartialOrientation, reach: list[int], between: int, u: int, v: int
) -> tuple[int, int] | None:
    """Smallest (j desc, i asc) pair x,y with u ->* x -> y ->* v over set
    arcs and x->y not a set arc, (x,y) != (u,v); None if no such pair.
    ``between`` is the mask of the vertices x with u ->* x ->* v.

    The scan enumerates y from the far end first, so for a square
    a->b->c->d with closing arc a->d the reported violation is (b, d),
    the pair nearest the closing arc's head.
    """
    g = po.graph
    if between.bit_count() <= 2:
        return None
    xs = []
    while between:
        low = between & -between
        xs.append(low.bit_length() - 1)
        between ^= low
    for y in reversed(xs):
        for x in xs:
            if x == y or (x, y) == (u, v):
                continue
            if not (reach[x] >> y & 1):
                continue
            if g.has_edge(x, y) and not po.has_arc(y, x):
                # forward arc is fine; an unset edge is healable (every
                # acyclic completion must orient it x -> y)
                continue
            return (x, y)
    return None


def _assert_witness(po: PartialOrientation, w: ShortcutWitness) -> None:
    path = w.path
    k = len(path) - 1
    assert k >= 2
    assert all(po.has_arc(path[t], path[t + 1]) for t in range(k))
    assert po.has_arc(path[0], path[k])
    i, j = w.violation
    assert 0 <= i < j <= k and (i, j) != (0, k)
    x, y = path[i], path[j]
    assert not po.graph.has_edge(x, y) or po.has_arc(y, x)


def is_semitransitive(o: Orientation | PartialOrientation) -> bool:
    try:
        return find_shortcut(o) is None
    except CyclicInput:
        return False


@dataclass(frozen=True)
class BruteForceResult:
    verdict: str  # "exists" | "notexists" | "budget"
    certificate: Orientation | None = None
    examined: int = 0


def brute_force_semitransitive(
    g: LabeledGraph, budget: int = 20_000_000, pure: bool = False
) -> BruteForceResult:
    """Decide existence of a semi-transitive orientation by exhaustion.

    Canonical enumeration: edges sorted (lo, hi); bit i of the counter
    orients edge i (0 = lo->hi). ``pure`` walks every counter value; the
    default runs a DFS visiting leaves in the same counter order but prunes
    subtrees whose partial state already holds a defect that persists in
    every completion (a directed cycle, or a closed shortcut whose chord is
    a non-edge). Both modes return the same verdict and the same first
    certificate.
    """
    m = len(g.edges)
    if 2**m > budget:
        return BruteForceResult("budget", examined=0)
    edges = sorted(g.edges)
    if pure:
        return _brute_force_pure(g, edges)
    return _brute_force_pruned(g, edges)


def _brute_force_pure(g: LabeledGraph, edges: list[tuple[int, int]]) -> BruteForceResult:
    m = len(edges)
    po = PartialOrientation(g)
    for counter in range(2**m):
        for i, (lo, hi) in enumerate(edges):
            po.unset_arc(lo, hi)
            if counter >> i & 1:
                po.set_arc(hi, lo)
            else:
                po.set_arc(lo, hi)
        if is_semitransitive(po):
            return BruteForceResult("exists", Orientation(g, tuple(po.arcs())), counter + 1)
    return BruteForceResult("notexists", examined=2**m)


def _brute_force_pruned(g: LabeledGraph, edges: list[tuple[int, int]]) -> BruteForceResult:
    """DFS over edge indices m-1 .. 0 (high counter bit first), lo->hi
    before hi->lo, so leaves are visited in increasing counter order.

    Each node carries the reach rows of its (acyclic) arcs. A new arc
    tail->head closes a cycle iff head reaches tail; otherwise every row
    that reaches tail gains reach[head]. The prune then asks only whether
    the new arc closes a shortcut; a shortcut under an older closing arc
    is caught at the leaf by the exact check, so the verdict is unaffected.
    """
    m = len(edges)
    po = PartialOrientation(g)
    examined = 0

    def dfs(i: int, reach: list[int]) -> Orientation | None:
        nonlocal examined
        if i < 0:
            examined += 1
            if find_shortcut(po) is None:
                return Orientation(g, tuple(po.arcs()))
            return None
        lo, hi = edges[i]
        for tail, head in ((lo, hi), (hi, lo)):
            if reach[head] >> tail & 1:
                continue
            po.set_arc(tail, head)
            grown = [r | reach[head] if r >> tail & 1 else r for r in reach]
            between = 0
            for x, row in enumerate(grown):
                if row >> head & 1:
                    between |= 1 << x
            between &= grown[tail]
            if _violating_pair(po, grown, between, tail, head) is None:
                found = dfs(i - 1, grown)
                if found is not None:
                    return found
            po.unset_arc(tail, head)
        return None

    cert = dfs(m - 1, [1 << v for v in range(g.n)])
    if cert is not None:
        return BruteForceResult("exists", cert, examined=examined)
    return BruteForceResult("notexists", examined=examined)

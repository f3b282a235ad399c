"""Orientations, shortcut detection, and the exhaustive brute-force oracle.

An orientation is semi-transitive when it is acyclic and no arc u->v
shortcuts a directed u->v path (a path with a missing or backward chord).
``find_shortcut`` is exact: in an acyclic orientation a shortcut exists iff
some arc (u,v) admits vertices x != y with u ->* x ->* y ->* v over set arcs
where x->y is not itself a set arc and (x,y) != (u,v) (an unset edge x-y is
no defect: every acyclic completion orients it x->y); the witness path is
assembled from shortest segments, which compose to a simple path in a DAG.

Every traversal of the directed bitmask adjacency (``out_adj[v]`` = heads
of the arcs leaving v) goes through one of three routines:
``reach_closure`` (reach rows, or None on a directed cycle),
``shortest_path`` (BFS taking heads lowest id first) and ``directed_cycle``.
Reach and co-reach rows are built only by ``reach_rows`` and grown only by
``add_arc_rows``, one arc at a time; ``find_shortcut`` and the solver keep
their rows through these two.  The per-arc witness step,
``shortcut_under``, is shared with the solver: ``find_shortcut`` runs it
under every set arc, in sorted order, while the solver runs it only under
the closing arcs that a new arc can have changed.  The proof verifier in
``traces`` keeps its own checks on purpose, and so does the exhaustive
oracle: ``_leaf_verdicts`` decides whole batches of orientations with
boolean matrices, so the tests that hold the solver and ``find_shortcut``
to the oracle compare two independent exact tests.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graphs import FrozenRecord, LabeledGraph

__all__ = [
    "CyclicInput",
    "Orientation",
    "PartialOrientation",
    "ShortcutWitness",
    "BruteForceResult",
    "reach_closure",
    "reach_rows",
    "add_arc_rows",
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
        # No library code calls this: the search banks byte snapshots and
        # the verifier keeps its own arc rows.  It is kept only because the
        # benchmark's probe (``perfbench/probe.py``) times it as its copy
        # span.
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

    def arcs(self) -> Iterator[tuple[int, int]]:
        for (lo, hi), s in zip(self.edge_order, self.state):
            if s == FORWARD:
                yield (lo, hi)
            elif s == BACKWARD:
                yield (hi, lo)

    def fully_oriented(self) -> bool:
        return UNSET not in self.state


class Orientation(FrozenRecord):
    """Total orientation: one arc per edge of the underlying graph."""

    __slots__ = ("graph", "arcs")

    def __init__(self, graph: LabeledGraph, arcs: tuple[tuple[int, int], ...]):
        edges = {(min(t, h), max(t, h)) for t, h in arcs}
        if edges != graph.edges or len(arcs) != len(graph.edges):
            raise ValueError("arcs must orient every edge exactly once")
        self._store(graph, arcs)

    def as_partial(self) -> PartialOrientation:
        po = PartialOrientation(self.graph)
        for t, h in self.arcs:
            po.set_arc(t, h)
        return po


class ShortcutWitness(NamedTuple):
    path: tuple[int, ...]  # directed path v0 -> ... -> vk, closing arc v0 -> vk
    violation: tuple[int, int]  # indices (i, j) into path, i < j, (i,j) != (0,k)


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


def reach_rows(out_adj: list[int]) -> tuple[list[int], list[int]] | None:
    """The reach rows of the arcs and the co-reach rows, their transpose
    (``coreach[v]``: the vertices reaching v, v included); None when the
    arcs contain a directed cycle."""
    reach = reach_closure(out_adj)
    if reach is None:
        return None
    coreach = [0] * len(reach)
    for u, row in enumerate(reach):
        while row:
            low = row & -row
            coreach[low.bit_length() - 1] |= 1 << u
            row ^= low
    return reach, coreach


def add_arc_rows(reach: list[int], coreach: list[int], tail: int, head: int) -> bool:
    """Grow acyclic reach and co-reach rows in place by the arc tail->head,
    as in Italiano's incremental transitive closure (TCS 48, 1986): every
    vertex reaching tail now reaches what head reaches, and every vertex
    head reaches is reached from what reaches tail.  False, with the rows
    untouched, when head reaches tail: the arc closes a directed cycle."""
    below = reach[head]
    if below >> tail & 1:
        return False
    above = coreach[tail]
    rows = above
    while rows:
        low = rows & -rows
        reach[low.bit_length() - 1] |= below
        rows ^= low
    rows = below
    while rows:
        low = rows & -rows
        coreach[low.bit_length() - 1] |= above
        rows ^= low
    return True


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
    rows = reach_rows(po.out_adj)
    if rows is None:
        raise CyclicInput("orientation has a directed cycle")
    reach, coreach = rows
    for u, v in sorted(po.arcs()):
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


class BruteForceResult(NamedTuple):
    verdict: str  # "exists" | "notexists" | "budget"
    certificate: Orientation | None = None
    examined: int = 0


_BATCH_BITS = 12  # the oracle decides 2^12 leaves per pass


def brute_force_semitransitive(
    g: LabeledGraph, budget: int = 20_000_000, pure: bool = False
) -> BruteForceResult:
    """Decide existence of a semi-transitive orientation by exhaustion.

    Canonical enumeration: edges sorted (lo, hi); bit i of the counter
    orients edge i (0 = lo->hi).  Every counter value 0 .. 2^m - 1 is
    decided, 2^k consecutive values per pass of bit-sliced boolean matrix
    algebra (``_leaf_verdicts``, k = min(_BATCH_BITS, m)), and the walk
    stops at the first batch that holds a semi-transitive leaf.  The first
    such leaf in counter order is the certificate, and
    ``is_semitransitive`` must accept it before it is returned; otherwise
    ``RuntimeError`` is raised.  ``examined`` is one more than the
    certificate's counter, or all 2^m leaves when there is none.

    ``pure`` does nothing.  It is kept only because the benchmark's probe
    (``perfbench/probe.py``) passes ``pure=True``.
    """
    m = len(g.edges)
    if 2**m > budget:
        return BruteForceResult("budget", examined=0)
    edges = sorted(g.edges)
    k = min(_BATCH_BITS, m)
    for high in range(0, 2**m, 2**k):
        good = _leaf_verdicts(edges, high, k)
        if good:
            counter = high | (good & -good).bit_length() - 1
            cert = Orientation(g, tuple(
                (hi, lo) if counter >> i & 1 else (lo, hi)
                for i, (lo, hi) in enumerate(edges)
            ))
            if not is_semitransitive(cert):
                raise RuntimeError(f"batched leaf check accepted counter {counter}")
            return BruteForceResult("exists", cert, counter + 1)
    return BruteForceResult("notexists", examined=2**m)


def _leaf_verdicts(edges: list[tuple[int, int]], high: int, k: int) -> int:
    """Bit j set exactly when leaf ``high | j`` (j < 2^k) is semi-transitive.

    Leaf c orients edge i hi->lo when bit i of c is set.  Each entry of
    the boolean matrices below, over the vertices that the edges touch, is
    a 2^k-bit mask, bit j for leaf ``high | j`` (bit slicing, Biham, FSE
    1997), so one pass of boolean matrix algebra decides the whole batch:

    - ``arc[u][v]``: the leaf has the arc u->v.  Each of the low k edges
      has a fixed bit pattern; a higher edge is all ones or all zeros.
    - ``reach``: Warshall's closure of ``arc`` (JACM 9, 1962); a leaf is
      cyclic when some diagonal entry holds its bit.  The shortcut test
      below would also reject it (an arc u->v on a cycle has v ->* u and
      no arc v->u), but marking it first spares the test its arcs.
    - On an acyclic leaf, with ``reach`` made reflexive, the arc u->v is
      a shortcut when u ->* x ->* y ->* v for some x != y with no arc
      x->y, i.e. ``(reach . P . reach)[u][v]`` with ``P = reach & ~arc``
      off the diagonal.  At a leaf with the arc u->v, P[u][v] is clear, so
      (x, y) != (u, v) holds by itself.

    The test shares no code with ``find_shortcut``.
    """
    full = (1 << (1 << k)) - 1
    live = sorted({v for e in edges for v in e})
    at = {v: i for i, v in enumerate(live)}
    size = len(live)
    arc = [[0] * size for _ in range(size)]
    for i, (lo, hi) in enumerate(edges):
        if i < k:  # bit i of j: runs of 2^i zeros, then 2^i ones
            period = (1 << (2 << i)) - 1
            back = full // period * (period ^ period >> (1 << i))
        else:
            back = full if high >> i & 1 else 0
        arc[at[hi]][at[lo]] = back
        arc[at[lo]][at[hi]] = full ^ back
    reach = [list(row) for row in arc]
    for w in range(size):
        row_w = reach[w]
        for i, row in enumerate(reach):
            via = row[w]
            if via:
                reach[i] = [r | via & s for r, s in zip(row, row_w)]
    bad = 0
    for v in range(size):
        bad |= reach[v][v]
        reach[v][v] = full
    if bad == full:  # the high edges alone close a cycle
        return 0
    # later = P . reach: some y != x with no arc x->y has x ->* y ->* v
    later = []
    for x in range(size):
        row = [0] * size
        for y in range(size):
            p = reach[x][y] & ~arc[x][y] if y != x else 0
            if p:
                row = [r | p & s for r, s in zip(row, reach[y])]
        later.append(row)
    for u in range(size):
        for v in range(size):
            closing = arc[u][v] & ~bad
            if closing:
                for x in range(size):
                    bad |= closing & reach[u][x] & later[x][v]
    return full & ~bad

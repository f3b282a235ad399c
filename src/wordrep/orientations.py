"""Orientations, shortcut detection, and the exhaustive brute-force oracle.

An orientation is semi-transitive when it is acyclic and no arc u->v
shortcuts a directed u->v path (a path with a missing or backward chord).
``find_shortcut`` is exact: in an acyclic orientation a shortcut exists iff
some arc (u,v) admits vertices x != y with u ->* x ->* y ->* v over set arcs
where x->y is not itself a set arc and (x,y) != (u,v) (an unset edge x-y is
no defect: every acyclic completion orients it x->y); the witness path is
assembled from shortest segments, which compose to a simple path in a DAG.

Outside the oracle, every traversal of the directed bitmask adjacency
(``out_adj[v]`` = heads of the arcs leaving v) goes through one of three
routines.  Reach and co-reach rows are grown only by ``add_arc_rows``, one
arc at a time (Italiano's incremental transitive closure), which refuses
an arc that closes a directed cycle; ``reach_rows`` builds them by folding
it over the arcs; ``shortest_path`` is a BFS taking heads lowest id first.
The per-arc witness step, ``shortcut_under``, is shared with the solver:
``find_shortcut`` runs it under every set arc, in sorted order, while the
solver runs it only under the closing arcs that a new arc can have
changed.  The proof verifier in ``traces`` keeps its own checks on
purpose, and so does the exhaustive oracle: its walk over the high edges
keeps its own rows, and ``_leaf_verdicts`` decides whole batches of
orientations with boolean matrices.  It calls ``is_semitransitive`` only
to re-check its certificate, so the tests that hold the solver and
``find_shortcut`` to the oracle compare two independent exact tests.
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
    "reach_rows",
    "add_arc_rows",
    "shortest_path",
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
        # No library code calls this: the search banks its own snapshots and
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


def reach_rows(out_adj: list[int]) -> tuple[list[int], list[int]] | None:
    """The reach rows of the arcs (``reach[v]``: the vertices v reaches,
    v included) and the co-reach rows, their transpose (``coreach[v]``:
    the vertices reaching v), grown from identity rows by ``add_arc_rows``
    one arc at a time; None when the arcs contain a directed cycle."""
    reach = [1 << v for v in range(len(out_adj))]
    coreach = list(reach)
    for tail, heads in enumerate(out_adj):
        while heads:
            low = heads & -heads
            heads ^= low
            if not add_arc_rows(reach, coreach, tail, low.bit_length() - 1):
                return None
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


def is_acyclic(o: Orientation | PartialOrientation) -> bool:
    po = o.as_partial() if isinstance(o, Orientation) else o
    return reach_rows(po.out_adj) is not None


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
    shortest segments u ~> x ~> y ~> v.  A witness the solver finds becomes
    a proof's terminal path, which the verifier checks on replay.
    """
    pair = _violating_pair(po.graph.adj, coreach, reach[u] & coreach[v])
    if pair is None:
        return None
    x, y = pair
    seg1 = shortest_path(po.out_adj, u, x)
    seg2 = shortest_path(po.out_adj, x, y)
    seg3 = shortest_path(po.out_adj, y, v)
    # segments cannot share interior vertices: a repeat would close a
    # directed cycle in the DAG of set arcs
    path = seg1 + seg2[1:] + seg3[1:]
    return ShortcutWitness(tuple(path), (path.index(x), path.index(y)))


def _violating_pair(
    adj: tuple[int, ...], coreach: list[int], between: int
) -> tuple[int, int] | None:
    """Smallest (y desc, x asc) pair x,y with x ->+ y among the vertices
    of ``between``, the mask of the x with u ->* x ->* v, and x-y no edge
    of g; None if no such pair.  An edge x-y is no violation: an arc
    y->x under x ->+ y would close a cycle, so it is a set arc x->y or an
    unset edge every acyclic completion orients x->y.  So (u, v) is never
    reported either.

    y runs from the far end first, so for a square a->b->c->d with
    closing arc a->d the reported violation is (b, d), the pair nearest
    the closing arc's head.
    """
    ys = between
    while ys:
        y = ys.bit_length() - 1
        ys ^= 1 << y
        xs = coreach[y] & between & ~adj[y] & ~(1 << y)
        if xs:
            return (xs & -xs).bit_length() - 1, y
    return None


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
DEFAULT_ORACLE_BUDGET = 20_000_000  # orientations


def brute_force_semitransitive(
    g: LabeledGraph, budget: int = DEFAULT_ORACLE_BUDGET, pure: bool = False
) -> BruteForceResult:
    """Decide existence of a semi-transitive orientation by exhaustion.

    Canonical enumeration: edges sorted (lo, hi); bit i of the counter
    orients edge i (0 = lo->hi).  Every counter value 0 .. 2^m - 1 is
    decided, 2^k consecutive values per pass of bit-sliced boolean matrix
    algebra (``_leaf_verdicts``, k = min(_BATCH_BITS, m)).

    A walk fixes the high edges i >= k one at a time, from edge m - 1
    down, bit 0 before bit 1, so it reaches the batches in counter order.
    It grows bitmask rows of the fixed arcs, and of what each vertex
    reaches over them, by one arc per step.  It refuses an arc that closes
    a directed cycle, and prunes a prefix with a fixed arc u->v and
    u ->* x ->+ y ->* v over fixed arcs, x and y not adjacent in g
    (``_doomed``): every completion keeps that path and has no arc x->y,
    so each holds the shortcut u->v.  Adjacent x and y need no test: x-y
    is then a fixed arc x->y, no defect; a fixed arc y->x, which closes a
    cycle the walk refused; or an edge not yet fixed, which every acyclic
    completion orients x->y.

    The walk stops at the first batch that holds a semi-transitive leaf.
    The first such leaf in counter order is the certificate, and
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
    # the prefixes left to walk, the next in counter order on top: the
    # counter's bits >= i as ``high``, the heads of each vertex's fixed
    # arcs, and what each vertex reaches over them, itself included
    stack = [(0, m, [0] * g.n, [1 << v for v in range(g.n)])]
    while stack:
        high, i, out, reach = stack.pop()
        if i > k:
            i -= 1
            lo, hi = edges[i]
            for bit, t, h in ((1, hi, lo), (0, lo, hi)):  # bit 0 on top
                if reach[h] >> t & 1:
                    continue  # t->h would close a directed cycle
                grown = [row | reach[h] if row >> t & 1 else row for row in reach]
                fixed = list(out)
                fixed[t] |= 1 << h
                if not _doomed(g.adj, fixed, grown):
                    stack.append((high | bit << i, i, fixed, grown))
            continue
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


def _doomed(adj: tuple[int, ...], out: list[int], reach: list[int]) -> bool:
    """Whether some fixed arc u->v has u ->* x ->+ y ->* v over the fixed
    arcs with x and y not adjacent in g; exact once every edge is fixed.

    ``adj[v]`` holds v's neighbours, ``out[v]`` the heads of v's fixed
    arcs and ``reach[v]`` what v reaches over them, v included.
    """

    def union(rows: list[int], mask: int) -> int:
        acc = 0
        while mask:
            low = mask & -mask
            mask ^= low
            acc |= rows[low.bit_length() - 1]
        return acc

    # later[x]: what the vertices y != x that x reaches, not adjacent to
    # x, reach
    later = [union(reach, row & ~adj[x] & ~(1 << x)) for x, row in enumerate(reach)]
    return any(heads & union(later, reach[u]) for u, heads in enumerate(out) if heads)


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
    live = sorted({v for e in edges for v in e})
    at = {v: i for i, v in enumerate(live)}
    size = len(live)
    full = (1 << (1 << k)) - 1
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

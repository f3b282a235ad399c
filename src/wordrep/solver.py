"""Branch-and-propagate search for semi-transitive orientations.

The procedure fixes a source vertex (losing no generality: a graph with a
semi-transitive orientation has one with any chosen vertex as source),
then alternates constraint propagation with case splits on unset edges:

- TriangleRule: arcs x->y->z in a triangle force x->z, else the triangle
  would close a directed cycle;
- PathRule: a directed path u ~> v forces an unset edge (u, v) to u->v,
  justified by the cycle the path would otherwise close;
- CycleRule: on a cycle of length m >= 4 whose vertices do not induce a
  clique, if m-2 edges point the same way around then the remaining two
  must point the other way — so with one of the two already against, the
  last is forced against, and with both unset, both are forced against.

A branch ("B") orients an edge one way and snapshots the other way as a
numbered copy for later; a dead end (a shortcut) ends the current line,
and the search resumes an unconsumed copy ("MC").  It dives: it resumes
the highest-numbered copy, the newest, so it searches depth first and
its queue of copies grows with the depth of the branch tree, not its
width.  A dive can sink into a large dead subtree, and backtracking run
times are heavy-tailed (Gomes, Selman & Kautz, AAAI 1998), so after
UNIT * luby(j) dives the j-th jump resumes the lowest-numbered copy, the
oldest, instead: restarts on the schedule of Luby, Sinclair & Zuckerman
(IPL 1993), except that no work is thrown away.  Every copy is resumed
once whatever the order.  When every copy has been consumed and every
line ended in a defect, no semi-transitive orientation exists, and the
accumulated lines form a machine-checkable proof trace.

A branch takes the unset edge on the most nearly firing rings, except
that once the search is refuting it looks ahead, as SAT solvers do (Li &
Anbulagan's satz, IJCAI 1997; Heule & van Maaren, Handbook of
Satisfiability, 2009): it probes the LOOKAHEAD top edges of that ranking
each way (set the arc, propagate, undo) and branches on the first edge
with a dead direction, a failed literal, else on the edge with the most
(forces one way + 1) * (forces the other way + 1).  A probe is undone
from a save point, list copies of the edge states, arcs and rows and the
three plane tuples, which spares the rebuild of the rows a resume makes.
A dead probe is committed, not redone: its branch, forced steps and
witness end the line, the other direction is banked as at any branch,
and the dead state is never propagated or scanned again, so every
shortcut the search finds ends exactly one line.  The search is refuting
once a line has ended and while at least one node in REFUTING has ended
one.  A refutation ends a line at about every other node.  The positive
searches measured, S(6..8,2), S(4..7,3), S(4,4), S(5,4) and S(4,5), end
fewer and never probe: S(4,4) ends the most, 98 lines in 454 nodes, and
never more than 28% of the nodes so far.  So they pay nothing for
lookahead, which costs a node up to 2 * LOOKAHEAD propagations.  The gate
counts lines, so the resume order can now change where the search
probes, and with it the tree.

The very first branch is oriented one way only (recorded as the preamble
arc of the emitted trace instead of a copy).  The branch edge is
not incident to the source s, and reversing every arc *not* incident to s
maps a semi-transitive orientation with source s to another one with
source s: a directed cycle avoids s and reverses to a cycle; a shortcut
avoiding s reverses to a shortcut; and a shortcut s -> v1 -> ... -> vk
closed by s -> vk corresponds to the path s -> vk -> ... -> v1 closed by
s -> v1, with the same violating pairs.  (Reversing *every* arc would turn
s into a sink.)  Arcs forced before the split hold in every semi-transitive
orientation with source s, so up to that symmetry the first split explores
both cases at once.

Propagation reads counters instead of rescanning cycles.  Each cycle of
the inventory is numbered in scan order (triangles first, then longer
rings by length and ids).  As with Chaff's watched literals (Moskewicz et
al., DAC 2001), each edge watches its rings: two masks, one bit per ring
stepping along it one way or the other.  The rings' along, against and
unset counts are bit-sliced, as in bitslice DES (Biham, FSE 1997): bit c
of plane i is bit i of ring c's count.  An arc adds its masks to the
along and against planes and takes them from the unset planes in a few
big-int operations, and a few more give the mask of the rings that let
the TriangleRule or the CycleRule fire.  The rules fire its lowest ring,
the cycle the in-order scans would find first, so every proof is
unchanged; a ring is walked only to find the unset steps of the cycle
that fires.  Branch choice reads its nearly firing rings off the same
planes, and a banked copy holds the edge states and the planes.

The orientation also keeps one reach row and one co-reach row per
vertex, grown on each inserted arc by ``add_arc_rows`` (Italiano's
incremental transitive closure) and rebuilt once per resume by
``reach_rows``.  One scan reads what the arcs set since the last clean
scan changed; the search abandons every dead state, so that state was
clean, as is every banked state.  A violation under a closing arc u->v
that is new since then runs through a new arc t->h (the closing arc
itself, or one on the path), and so does a path that newly decides an
unset edge u-y: u reaches t, and h reaches v or y.  So for each new arc
the scan walks the vertices u reaching t.  It puts the unset edges u-y
with y reached from h on a heap of edge indices, and tests the closing
arcs u->v with v reached from h, in sorted order, with
``find_shortcut``'s own per-arc step.  Every other closing arc has no
violation, so the first witness is the one ``find_shortcut`` would
report.  After a scan the heap holds every unset decided edge: a resume
starts it empty, as a banked state is a propagation fixpoint.  The
PathRule pops set edges off it and forces the lowest unset one, which
is the first decided edge in edge order, with a BFS only for that edge.

No arc the search sets closes a directed cycle, so every dead end is a
shortcut, and ``set_arc`` raises RuntimeError on an arc that
``add_arc_rows`` refuses.  The root's arcs leave the source; a
TriangleRule or PathRule force follows an existing path; the PathRule
runs before the CycleRule, so a CycleRule force sets undecided edges
(neither end reaches the other); branches and resumes orient edges that
are undecided at a fixpoint.  A two-arc force b1->a1, b2->a2 has
b1 ~> a2 and b2 ~> a1 around its ring, so a path a2 ~> b1 -> a1 ~> b2
opened by its first arc means a cycle a2 ~> b1 ~> a2 or a1 ~> b2 ~> a1
before it (a2 = b1 and a1 = b2 cannot both hold).
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import reduce
from heapq import heappop, heappush, nsmallest
from operator import and_, or_
from typing import NamedTuple

from .graphs import FrozenRecord, LabeledGraph, induced_subgraph, max_degree_vertex
from .orientations import (
    BACKWARD,
    FORWARD,
    UNSET,
    Orientation,
    PartialOrientation,
    add_arc_rows,
    find_shortcut,
    is_acyclic,
    is_semitransitive,
    reach_rows,
    shortcut_under,
    shortest_path,
)
from .traces import (
    Branch,
    MoveCopy,
    Orient,
    Preamble,
    ProofTrace,
    Root,
    Shortcut,
    TraceLine,
    verify_trace,
)

# No code here calls ``find_shortcut`` or ``is_acyclic``.  The benchmark's
# perfbench/probe.py counts defect scans by wrapping these two names on
# this module, so they stay imported until the probe counts scans another
# way (ROADMAP item 5).

__all__ = [
    "SolverConfig",
    "SemiTransitive",
    "NonSemiTransitive",
    "BudgetExceeded",
    "solve",
    "DEFAULT_CYCLE_LEN",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_CYCLE_LEN = 6
DEFAULT_NODE_BUDGET = 1_000_000


class SolverConfig(FrozenRecord):
    """Search knobs.

    source: vertex label to fix as source; None picks the maximum-degree
    vertex (smallest id on ties) per component.  budget: search nodes
    (root, branches, resumes) before giving up.  cycle_len: longest cycle
    the CycleRule propagates over.
    """

    __slots__ = ("source", "budget", "cycle_len")

    def __init__(
        self,
        source: str | None = None,
        budget: int = DEFAULT_NODE_BUDGET,
        cycle_len: int = DEFAULT_CYCLE_LEN,
    ):
        if budget <= 0:
            raise ValueError("budget must be positive")
        if cycle_len < 3:
            raise ValueError("cycle_len must be at least 3")
        self._store(source, budget, cycle_len)


# --------------------------------------------------------------------------
# solve verdicts


class SemiTransitive(NamedTuple):
    orientation: Orientation


class NonSemiTransitive(NamedTuple):
    trace: ProofTrace


class BudgetExceeded(NamedTuple):
    nodes: int


Verdict = SemiTransitive | NonSemiTransitive | BudgetExceeded


# --------------------------------------------------------------------------
# cycle inventory


def _label_key(label: str) -> tuple[int, int, str]:
    """Numeric labels order numerically, everything else lexically after."""
    if label.isdigit():
        return (0, int(label), label)
    return (1, 0, label)


def _canonical_ring_print(g: LabeledGraph, ids: tuple[int, ...]) -> tuple[str, ...]:
    """Rotate/reflect the ring: start at the least label, then towards the
    greater of its two ring neighbours (label order is numeric-first)."""
    m = len(ids)
    start = min(range(m), key=lambda i: _label_key(g.labels[ids[i]]))
    before, after = ids[start - 1], ids[(start + 1) % m]
    if _label_key(g.labels[after]) >= _label_key(g.labels[before]):
        ring = [ids[(start + k) % m] for k in range(m)]
    else:
        ring = [ids[(start - k) % m] for k in range(m)]
    return tuple(g.labels[v] for v in ring)


class _Inventory(NamedTuple):
    """The cycles the rules reason over, numbered in scan order, and the
    cycles each edge lies on, one bit per cycle."""

    rings: tuple[tuple[int, ...], ...]  # ring order, ascending by (length, ids)
    triangles: int  # rings[:triangles] are the triangles
    size_planes: tuple[int, ...]  # bit c of plane i: bit i of ring c's length
    # watch[t, h] for each edge, both ways: the rings that step t -> h
    watch: dict[tuple[int, int], int]
    # printed rings, made when a ring first fires and shared by every
    # proof step it justifies; the dict lives and dies with its solve
    prints: dict[int, tuple[str, ...]]


def _cycle_inventory(g: LabeledGraph, max_len: int) -> _Inventory:
    """Every triangle, and every non-clique simple cycle of length
    4..max_len, once per vertex set ring: a bitmask DFS grows each path
    from the ring's least vertex s through vertices near enough to s for
    the ring to close within max_len.  It takes vertices in ascending order,
    so each length's rings come out in scan order, with no sort."""
    n, adj, cap = g.n, g.adj, min(max_len, g.n)  # no ring is longer than g.n
    closed = [a | 1 << v for v, a in enumerate(adj)]
    by_len: list[list[tuple[int, ...]]] = [[] for _ in range(max(cap, 3) + 1)]
    for s in range(n):
        # near[r]: the vertices above s within r steps of s through such
        # vertices.  A vertex that extends a path of d vertices towards a
        # ring of length at most cap is within min(cap - d, cap // 2) steps.
        near, seen, frontier, above = [0], 1 << s, 1 << s, -2 << s
        while frontier and len(near) <= cap // 2:
            step = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                step |= adj[low.bit_length() - 1]
            frontier = step & above & ~seen
            seen |= frontier
            near.append(seen & above)
        allowed = [near[-1]] * (cap + 1 - len(near)) + near[::-1]
        # ws: the vertices left to extend the path by; the DFS stacks those of
        # shorter paths itself, as a ring may outgrow Python's recursion limit
        path, used, stack = [s], 1 << s, []
        ws = adj[s] & allowed[1] & ~used
        while True:
            if ws:
                low = ws & -ws
                ws ^= low
                tail = low.bit_length() - 1
                path.append(tail)
                used |= low
                depth = len(path)
                more = adj[tail] & allowed[depth] & ~used
                # the rings the path closes: one orientation of each (last
                # vertex after path[1]), no clique ring (it never fires)
                ends = more & adj[s] & -2 << path[1]
                if ends and depth > 2:
                    common = reduce(and_, map(closed.__getitem__, path))
                    if common & used == used:
                        ends &= ~common
                while ends:
                    by_len[depth + 1].append((*path, (ends & -ends).bit_length() - 1))
                    ends &= ends - 1
                if more and depth < cap - 1:  # cap - 1 vertices: only rings to close
                    stack.append(ws)
                    ws = more
                else:
                    path.pop()
                    used ^= low
            elif stack:
                ws = stack.pop()
                used ^= 1 << path.pop()
            else:
                break
    # the rings of length m are the bits of bounds[m + 1] - bounds[m]; 2 planes or more
    found = [ids for rings in by_len for ids in rings]
    bounds = [1 << c for c in itertools.accumulate(map(len, by_len), initial=0)]
    longest = max((m for m, rings in enumerate(by_len) if rings), default=3)
    size_planes = tuple(
        sum(hi - lo for m, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if m >> i & 1)
        for i in range(longest.bit_length())
    )
    # ring steps t -> h keyed t * n + h, each ring walked once
    steps = {t * n + h: bytearray(len(found) // 8 + 1) for e in g.edges for t, h in (e, e[::-1])}
    for c, ids in enumerate(found):
        byte, bit, t = c >> 3, 1 << (c & 7), ids[-1]
        for h in ids:
            steps[t * n + h][byte] |= bit
            t = h
    watch = {divmod(k, n): int.from_bytes(steps.pop(k), "little") for k in list(steps)}
    return _Inventory(tuple(found), len(by_len[3]), size_planes, watch, {})


def _bump(planes: tuple[int, ...], mask: int, down: bool = False) -> tuple[int, ...]:
    """Add 1 to the count of each ring in ``mask``, or take 1 if ``down``,
    rippling the carry or the borrow up the planes."""
    out = []
    for plane in planes:
        out.append(plane ^ mask)
        mask &= ~plane if down else plane
    return tuple(out)


# edge states and the along, against and unset bit planes
_Snapshot = tuple[bytes, tuple[int, ...], tuple[int, ...], tuple[int, ...]]
# edge states, out_adj, reach and co-reach rows, and the three planes
_SavePoint = tuple[
    list[int], list[int], list[int], list[int],
    tuple[int, ...], tuple[int, ...], tuple[int, ...],
]


class _WatchedOrientation(PartialOrientation):
    """A partial orientation that keeps each inventory cycle's counts of
    ring steps along, against and unset as bit planes, and finds the
    cycles whose counts let the TriangleRule or the CycleRule fire.

    It also keeps the reach rows of its arcs (``reach[v]``: the vertices
    v reaches, v included) and of their transpose (``coreach[v]``: the
    vertices reaching v), the arcs set since the last scan that found no
    defect, and ``decided``: a heap of edge indices that, after a scan,
    holds every unset edge one of whose ends reaches the other, and may
    still hold edges set since they were pushed; ``_scan_defect`` brings
    it up to date.

    Arcs are only ever added; the search goes back by ``restore``, and a
    probe by ``rewind``."""

    __slots__ = (
        "inventory", "along", "against", "unset",
        "reach", "coreach", "unscanned", "decided",
    )

    def __init__(self, graph: LabeledGraph, inventory: _Inventory):
        super().__init__(graph)
        self.inventory = inventory
        self.along = self.against = (0,) * len(inventory.size_planes)
        self.unset = inventory.size_planes
        self.reach, self.coreach = reach_rows([0] * graph.n)
        self.unscanned: list[tuple[int, int]] = []
        self.decided: list[int] = []

    def set_arc(self, tail: int, head: int) -> None:
        """Orient one edge and update the reach rows and the counts of every
        cycle on it; the next scan finds the edges it decides.  An arc that
        closes a directed cycle raises RuntimeError: the search never sets
        one."""
        if self.has_arc(tail, head):
            return
        super().set_arc(tail, head)
        if not add_arc_rows(self.reach, self.coreach, tail, head):
            t, h = self.graph.labels[tail], self.graph.labels[head]
            raise RuntimeError(f"arc {t}->{h} closes a directed cycle")
        self.unscanned.append((tail, head))
        # rings stepping tail -> head count it along, head -> tail against
        watch = self.inventory.watch
        forth, back = watch[tail, head], watch[head, tail]
        if forth | back:
            if forth:
                self.along = _bump(self.along, forth)
            if back:
                self.against = _bump(self.against, back)
            self.unset = _bump(self.unset, forth | back, down=True)

    def fire(self) -> int:
        """The mask of the cycles whose counts let a rule fire: a triangle
        with one edge unset and two arcs one way; a longer ring with one
        unset and at most one arc against the rest, or two unset and none."""
        (a0, *ah), (b0, *bh), (u0, u1, *uh) = self.along, self.against, self.unset
        # the planes above bit 0 (above bit 1 for unset), ored
        a, b, u = reduce(or_, ah), reduce(or_, bh), reduce(or_, uh, 0)
        zero = ~(a0 | a) | ~(b0 | b)  # along 0 or against 0
        longer = -1 << self.inventory.triangles
        one, two = u0 & ~(u1 | u), u1 & ~(u0 | u)  # unset 1, unset 2
        return one & (zero | longer & ~(a & b)) | two & longer & zero

    def unset_steps(self, c: int) -> list[tuple[int, int]]:
        """The ring steps of cycle ``c`` whose edges are unset."""
        ring = self.inventory.rings[c]
        return [
            (t, h)
            for t, h in zip(ring, ring[1:] + ring[:1])
            if self.direction(t, h) is None
        ]

    def forced_by(
        self, c: int
    ) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[str, ...]]:
        """The force of a firing cycle: its unset ring steps, pointed
        against the way most of its arcs point, its ring and its print."""
        # a firing ring has at most one arc one way, two or more the other
        back = not reduce(or_, self.along[1:]) >> c & 1  # so: along <= 1
        arcs = tuple((t, h) if back else (h, t) for t, h in self.unset_steps(c))
        ring, prints = self.inventory.rings[c], self.inventory.prints
        if c not in prints:
            prints[c] = _canonical_ring_print(self.graph, ring)
        return arcs, ring, prints[c]

    def snapshot(self) -> _Snapshot:
        """Edge states and cycle counts.  Snapshots are taken at a
        propagation fixpoint, where no cycle fires and no unset edge is
        decided, scanned clean: ``restore`` keeps no arcs for the next
        scan to cover.  A state that is none of these raises RuntimeError:
        the search never banks one."""
        if self.fire():
            raise RuntimeError("snapshot of a state that still propagates")
        if self.unscanned:
            raise RuntimeError("snapshot of a state that owes a scan")
        if self.decided:
            raise RuntimeError("snapshot of a state with a decided edge")
        return bytes(self.state), self.along, self.against, self.unset

    def restore(self, snapshot: _Snapshot) -> None:
        """Go back to a snapshot's state, which the search has scanned
        and found free of defects and of firing cycles.  No unset edge is
        decided there, or the PathRule would have forced it before the
        branch, so the heap of decided edges starts empty, and the next
        scan adds the edges that the arcs set after the restore decide."""
        state, self.along, self.against, self.unset = snapshot
        self.state = list(state)
        out_adj = [0] * self.graph.n
        for (lo, hi), s in zip(self.edge_order, self.state):
            if s == FORWARD:
                out_adj[lo] |= 1 << hi
            elif s == BACKWARD:
                out_adj[hi] |= 1 << lo
        self.out_adj = out_adj
        # a banked state's arcs each went through set_arc, so they are acyclic
        self.reach, self.coreach = reach_rows(out_adj)
        self.decided = []
        self.unscanned = []

    def save(self) -> _SavePoint:
        """List copies of a clean fixpoint's state, rows included, for
        ``rewind``: a probe's undo, with no rows to rebuild."""
        return (
            self.state[:], self.out_adj[:], self.reach[:], self.coreach[:],
            self.along, self.against, self.unset,
        )

    def rewind(self, save: _SavePoint) -> None:
        """Go back to a save point from a probe that ended at a clean
        fixpoint, so it owes no scan and holds no decided edge.  The save
        point is copied again, so it can be rewound to as often as needed."""
        state, out_adj, reach, coreach, self.along, self.against, self.unset = save
        self.state, self.out_adj = state[:], out_adj[:]
        self.reach, self.coreach = reach[:], coreach[:]


# --------------------------------------------------------------------------
# operations


def _scan_defect(po: _WatchedOrientation) -> tuple[str, ...] | None:
    """Printable terminal path if the state is dead, else None: the
    shortcut ``find_shortcut`` would report.  The arcs are acyclic.

    Only what the arcs set since the last clean scan can have changed is
    looked at: for each such arc t->h and each u reaching t, the closing
    arcs u->v with h reaching v, which are tested, and the unset edges
    u-y with h reaching y, which go on the heap of decided edges whatever
    the scan finds."""
    g = po.graph
    adj, edge_index, decided = g.adj, po.edge_index, po.decided
    reach, coreach, out_adj = po.reach, po.coreach, po.out_adj
    heads: dict[int, int] = {}  # tail u -> the candidate closing arcs' heads
    for t, h in po.unscanned:
        below = reach[h]
        tails = coreach[t]
        while tails:
            low = tails & -tails
            tails ^= low
            u = low.bit_length() - 1
            out = out_adj[u]
            hit = out & below
            if hit:
                heads[u] = heads.get(u, 0) | hit
            # an arc y->u would close a cycle, so these edges are unset
            ys = below & adj[u] & ~out
            while ys:
                bit = ys & -ys
                ys ^= bit
                y = bit.bit_length() - 1
                heappush(decided, edge_index[(u, y) if u < y else (y, u)])
    for u in sorted(heads):
        vs = heads[u]
        while vs:
            low = vs & -vs
            vs ^= low
            witness = shortcut_under(po, reach, coreach, u, low.bit_length() - 1)
            if witness is not None:
                return tuple(g.labels[v] for v in witness.path)
    po.unscanned = []
    return None


def _next_force(
    po: _WatchedOrientation,
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[str, ...]] | None:
    """The first force a rule allows in an acyclic state: its arcs (one,
    or the two remaining edges of a CycleRule cycle), the ids of the
    justifying cycle and its printed ring.

    The rules are tried in order, TriangleRule, PathRule, CycleRule, each
    scanning its cycles or edges in a fixed order."""
    fire = po.fire()
    first = (fire & -fire).bit_length() - 1  # -1 when no cycle fires
    if 0 <= first < po.inventory.triangles:
        return po.forced_by(first)

    # PathRule: an existing directed path decides an unset edge; the
    # lowest unset decided edge is the first one an edge-order scan finds
    decided, state = po.decided, po.state
    while decided and state[decided[0]] != UNSET:
        heappop(decided)
    if decided:
        a, b = po.edge_order[decided[0]]
        t, h = (a, b) if po.reach[a] >> b & 1 else (b, a)
        ids = tuple(shortest_path(po.out_adj, t, h))
        return ((t, h),), ids, _canonical_ring_print(po.graph, ids)

    return po.forced_by(first) if fire else None


def propagate(
    po: _WatchedOrientation,
) -> tuple[list[Orient], tuple[str, ...] | None]:
    """Apply the three rules over ``po``'s cycle inventory to fixpoint,
    mutating ``po``.

    Returns one Orient step per force applied, in order, with the force's
    one or two arcs, and the printable terminal path of a shortcut as soon
    as the state is dead, else None.  No force is
    checked here: the verifier re-checks every Orient step when
    ``_solve_component`` replays the proof.
    """
    labels = po.graph.labels
    steps: list[Orient] = []
    while True:
        witness = _scan_defect(po)
        if witness is not None:
            return steps, witness
        hit = _next_force(po)
        if hit is None:
            return steps, None
        arcs, _, printed = hit
        for t, h in arcs:
            po.set_arc(t, h)
        steps.append(Orient(tuple([(labels[t], labels[h]) for t, h in arcs]), printed))


# --------------------------------------------------------------------------
# branching


def _almost_forced_counts(po: _WatchedOrientation) -> dict[tuple[int, int], int]:
    """How many rule-usable cycles each unset edge could nearly fire: the
    cycles with three unset steps and none of the rest along, or none
    against, found in one pass over the counters' bit planes."""
    un0, un1, *un = po.unset
    zero = ~reduce(or_, po.along) | ~reduce(or_, po.against)
    hits = un0 & un1 & ~reduce(or_, un, 0) & zero
    bits = bin(hits)[:1:-1]  # bit c of hits is bits[c]
    counts: dict[tuple[int, int], int] = {}
    c = bits.find("1")
    while c >= 0:
        for t, h in po.unset_steps(c):
            edge = (t, h) if t < h else (h, t)
            counts[edge] = counts.get(edge, 0) + 1
        c = bits.find("1", c + 1)
    return counts


# a dead probe's forced steps and the terminal path of its shortcut
_DeadProbe = tuple[list[Orient], tuple[str, ...]]


def _pick_branch_edge(
    po: _WatchedOrientation, probing: bool
) -> tuple[tuple[int, int], _DeadProbe | None]:
    """The unset edge on the most nearly-firing cycles, the lowest edge on
    ties; with none, the first unset edge in edge order.  ``probing``, the
    best of the LOOKAHEAD top such edges by ``_lookahead``, with a dead
    direction's forced steps and witness if a probe finds one."""
    counts = _almost_forced_counts(po)
    if counts:
        k = LOOKAHEAD if probing else 1
        edges = nsmallest(k, counts, key=lambda edge: (-counts[edge], edge))
    else:
        edges = [po.edge_order[po.state.index(UNSET)]]
    return _lookahead(po, edges) if probing else (edges[0], None)


def _lookahead(
    po: _WatchedOrientation, edges: list[tuple[int, int]]
) -> tuple[tuple[int, int], _DeadProbe | None]:
    """Probe each edge both ways from a save point: set the arc, propagate,
    rewind.  The first dead direction comes back with its forced steps and
    witness, ``po`` left in its dead state; else the edge with the largest
    (forces one way + 1) * (forces the other way + 1), the lowest edge on
    ties, with ``po`` back at the save point."""
    save = po.save()
    best, best_score = edges[0], 0
    for lo, hi in edges:
        score = 1
        for t, h in ((lo, hi), (hi, lo)):
            po.set_arc(t, h)
            forced, witness = propagate(po)
            if witness is not None:
                return (t, h), (forced, witness)
            score *= len(forced) + 1
            po.rewind(save)
        if score > best_score or score == best_score and (lo, hi) < best:
            best, best_score = (lo, hi), score
    return best, None


# --------------------------------------------------------------------------
# the search


# dives, resumes of the newest copy, per term of the Luby schedule before
# a jump resumes the oldest copy
UNIT = 64
# once a line has ended, and while at least one node in REFUTING has ended
# one, a branch probes its LOOKAHEAD top edges (the module docstring)
REFUTING = 3
LOOKAHEAD = 16


def luby(i: int) -> int:
    """The i-th term, from 1, of Luby, Sinclair & Zuckerman's restart
    sequence 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...: 2^(k-1) at
    i = 2^k - 1, and for 2^(k-1) <= i < 2^k - 1 the term at
    i - 2^(k-1) + 1."""
    k = i.bit_length()
    while i != (1 << k) - 1:
        i -= (1 << k - 1) - 1
        k = i.bit_length()
    return 1 << k - 1


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        """Consume one node; False when the budget is exhausted."""
        self.used += 1
        return self.used <= self.limit


def _components(g: LabeledGraph) -> list[list[int]]:
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp, frontier = [s], [s]
        seen[s] = True
        while frontier:
            v = frontier.pop()
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    frontier.append(w)
        comps.append(sorted(comp))
    return comps


def _solve_component(
    g: LabeledGraph, cfg: SolverConfig, budget: _Budget
) -> Verdict:
    if not g.edges:
        return SemiTransitive(Orientation(g, ()))
    source = g.index.get(cfg.source)
    if source is None:
        source = max_degree_vertex(g)
    po = _WatchedOrientation(g, _cycle_inventory(g, cfg.cycle_len))
    for u in g.neighbors(source):
        po.set_arc(source, u)
    before = budget.used  # the nodes of earlier components
    if not budget.spend():  # the root node
        return BudgetExceeded(budget.used)

    preamble = Preamble(None, g.labels[source])
    # deferred branches as (copy id, snapshot, arc to apply on resume);
    # ids grow from 2, so the back of the queue is the highest pending id
    # and the front the lowest
    copies: deque[tuple[int, _Snapshot, tuple[int, int]]] = deque()
    copy_ids = itertools.count(2)
    j, dives = 1, 0  # the next jump is the j-th, after UNIT * luby(j) dives
    lines: list[TraceLine] = []
    opener: Root | MoveCopy = Root()
    steps: list[Orient | Branch] = []
    wlog_pending = True
    probed: _DeadProbe | None = None

    while True:
        forced, witness = probed or propagate(po)
        probed = None
        steps.extend(forced)
        if witness is not None:
            lines.append(
                TraceLine(len(lines) + 1, opener, tuple(steps), Shortcut(witness))
            )
            if not copies:
                trace = ProofTrace(preamble, tuple(lines))
                # the verdict rests on this proof: replay it, under -O too
                if not verify_trace(g, trace).accepted:
                    raise RuntimeError("emitted trace failed its self-check")
                return NonSemiTransitive(trace)
            if not budget.spend():
                return BudgetExceeded(budget.used)
            if dives < UNIT * luby(j):
                dives += 1
                cid, snapshot, (t, h) = copies.pop()
            else:
                j, dives = j + 1, 0
                cid, snapshot, (t, h) = copies.popleft()
            opener = MoveCopy(cid, (g.labels[t], g.labels[h]))
            steps = []
            po.restore(snapshot)
            po.set_arc(t, h)
            continue

        if po.fully_oriented():
            orientation = Orientation(g, tuple(po.arcs()))
            # checked under -O too: a positive verdict has no other proof
            if not is_semitransitive(orientation):
                raise RuntimeError("found orientation failed its self-check")
            return SemiTransitive(orientation)

        # a line ends before any branch only at a dead root, so the first
        # branch, the preamble's wlog arc, never probes
        snapshot = None if wlog_pending else po.snapshot()
        refuting = bool(lines) and REFUTING * len(lines) >= budget.used - before
        (lo, hi), probed = _pick_branch_edge(po, refuting)
        if not budget.spend():
            return BudgetExceeded(budget.used)
        if wlog_pending:
            wlog_pending = False
            preamble = Preamble(
                (g.labels[lo], g.labels[hi]), preamble.source_vertex
            )
        else:
            cid = next(copy_ids)
            copies.append((cid, snapshot, (hi, lo)))
            steps.append(Branch((g.labels[lo], g.labels[hi]), cid))
        if probed is None:
            po.set_arc(lo, hi)


def solve(g: LabeledGraph, cfg: SolverConfig | None = None) -> Verdict:
    """Decide semi-transitive orientability.

    SemiTransitive carries a checked orientation; NonSemiTransitive
    carries a proof trace that verify_trace accepts
    against ``g`` with the same preamble; BudgetExceeded reports the
    nodes consumed.  Disconnected graphs are solved per component.
    """
    cfg = cfg or SolverConfig()
    if cfg.source is not None and cfg.source not in g.index:
        raise ValueError(f"source label {cfg.source!r} is not a vertex")
    budget = _Budget(cfg.budget)

    comps = _components(g)
    if len(comps) <= 1:
        return _solve_component(g, cfg, budget)

    arcs: list[tuple[int, int]] = []
    for comp in comps:
        # induced_subgraph keeps ids ascending, as comp is: sub's id i is comp[i]
        verdict = _solve_component(induced_subgraph(g, comp), cfg, budget)
        if not isinstance(verdict, SemiTransitive):
            # NonSemiTransitive in any component settles the graph (its
            # trace replays against g unchanged); budget exhaustion stops
            # the scan
            return verdict
        arcs.extend((comp[t], comp[h]) for t, h in verdict.orientation.arcs)
    return SemiTransitive(Orientation(g, tuple(arcs)))


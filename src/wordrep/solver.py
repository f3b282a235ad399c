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
and the search resumes the lowest-numbered unconsumed copy ("MC").  When
every copy has been consumed and every line ended in a defect, no
semi-transitive orientation exists, and the accumulated lines form a
machine-checkable proof trace.

Optionally the very first branch is oriented one way only (recorded as the
preamble arc of the emitted trace instead of a copy).  The branch edge is
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
rings by length and ids).  In the manner of Chaff's watched literals
(Moskewicz et al., DAC 2001), each edge keeps two watch lists, split by
the direction the ring steps along it: setting an arc t->h bumps the
along count of each cycle stepping t->h and the against count of each
stepping h->t (unset = ring length - along - against), and keeps the set
of cycles whose counts let the TriangleRule or the CycleRule fire.  The
rules fire the lowest-numbered cycle of that set, which is exactly the
cycle the in-order scans would find first, so every proof is unchanged;
a ring is walked only to find the unset steps of the cycle that fires.
A banked copy holds the edge states and the counts as bytes; its fire
set is empty, because the search branches only at a propagation
fixpoint, and its arcs are rebuilt on resume.  Branch choice finds the
nearly firing cycles in one big-int pass, one byte lane per cycle.

The orientation also keeps one reach row and one co-reach row per
vertex, grown on each inserted arc by ``add_arc_rows`` (Italiano's
incremental transitive closure) and rebuilt once per resume by
``reach_rows``.  Reach only grows between resumes, so the edges a
directed path decides are collected as they appear: before an arc t->h
grows the rows, every vertex x reaching t comes to reach the neighbours
y that h reaches and x did not, and each such unset edge x-y goes on a
heap of edge indices.  A resume refills the heap in one pass over the
edges.  The PathRule pops set edges off the heap and forces the lowest
unset one, which is the first decided edge in edge order, with a BFS
only for that edge.

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

The defect scan reads both rows.  The search abandons every dead state,
so the state at the last scan that found no defect was clean, as is
every banked state.  A violation under a closing arc u->v that is new
since then runs through an arc t->h set since then (the closing arc
itself, or one on the path), so u reaches t and h reaches v.  The scan
tests only those closing arcs, in sorted order, with ``find_shortcut``'s
own per-arc step.  Every other closing arc has no violation, so the
first witness is the one ``find_shortcut`` would report.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque
from functools import lru_cache
from heapq import heappop, heappush
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
# way (ROADMAP item 6).

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
    vertex (smallest id on ties) per component.  wlog_rule: orient the
    first branch edge one way only, recording it as the trace preamble
    arc.  budget: search nodes (root, branches, resumes) before giving
    up.  cycle_len: longest cycle the CycleRule propagates over.
    """

    __slots__ = ("source", "wlog_rule", "budget", "cycle_len")

    def __init__(
        self,
        source: str | None = None,
        wlog_rule: bool = True,
        budget: int = DEFAULT_NODE_BUDGET,
        cycle_len: int = DEFAULT_CYCLE_LEN,
    ):
        if budget <= 0:
            raise ValueError("budget must be positive")
        if cycle_len < 3:
            raise ValueError("cycle_len must be at least 3")
        self._store(source, wlog_rule, budget, cycle_len)


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
    cycles each edge lies on."""

    rings: tuple[tuple[int, ...], ...]  # ring order, sorted by (length, ids)
    triangles: int  # rings[:triangles] are the triangles
    sizes: bytes  # ring lengths
    # watch[t, h] for each edge, both ways: the rings that step t -> h
    watch: dict[tuple[int, int], array]
    # printed rings, made when a ring first fires and shared by every
    # proof step it justifies; each inventory is given its own dict
    prints: dict[int, tuple[str, ...]]


@lru_cache(maxsize=32)
def _cycle_inventory(g: LabeledGraph, max_len: int) -> _Inventory:
    """Every triangle, and every non-clique simple cycle of length
    4..max_len, once per vertex set ring: a bitmask DFS grows each path
    from the ring's least vertex s through vertices near enough to s for
    the ring to close within max_len."""
    adj, cap = g.adj, min(max_len, g.n)  # no ring is longer than g.n
    found: list[tuple[int, ...]] = []

    def extend(tail: int, used: int) -> None:
        depth = len(path)
        # one orientation of each ring; clique rings never fire the CycleRule
        if depth > 2 and adj[tail] >> s & 1 and path[1] < tail:
            if depth == 3 or any((adj[v] | 1 << v) & used != used for v in path):
                found.append(tuple(path))
        ws = adj[tail] & allowed[depth] & ~used
        while ws:
            low = ws & -ws
            ws ^= low
            path.append(low.bit_length() - 1)
            extend(path[-1], used | low)
            path.pop()

    for s in range(g.n):
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
        allowed = [near[min(cap - d, cap // 2, len(near) - 1)] for d in range(cap + 1)]
        path = [s]
        extend(s, 1 << s)
    found.sort(key=lambda ids: (len(ids), ids))
    watch = {step: array("i") for a, b in g.edges for step in ((a, b), (b, a))}
    for c, ids in enumerate(found):
        for step in zip(ids, ids[1:] + ids[:1]):
            watch[step].append(c)
    sizes = bytes(map(len, found))
    return _Inventory(tuple(found), sizes.count(3), sizes, watch, {})


class _WatchedOrientation(PartialOrientation):
    """A partial orientation that counts, per inventory cycle, the ring
    steps its arcs point along and against, and keeps the set of cycles
    whose counts let the TriangleRule or the CycleRule fire.

    It also keeps the reach rows of its arcs (``reach[v]``: the vertices
    v reaches, v included) and of their transpose (``coreach[v]``: the
    vertices reaching v), the arcs set since the last scan that found no
    defect, and ``decided``: a heap of edge indices that holds every unset
    edge one of whose ends reaches the other, and may still hold edges set
    since they were pushed.

    Arcs are only ever added; the search goes back by ``restore``."""

    __slots__ = (
        "inventory", "along", "against", "fire",
        "reach", "coreach", "unscanned", "decided",
    )

    def __init__(self, graph: LabeledGraph, inventory: _Inventory):
        super().__init__(graph)
        self.inventory = inventory
        self.along = bytearray(len(inventory.rings))
        self.against = bytearray(len(inventory.rings))
        self.fire: set[int] = set()
        self.reach, self.coreach = reach_rows([0] * graph.n)
        self.unscanned: list[tuple[int, int]] = []
        self.decided: list[int] = []

    def set_arc(self, tail: int, head: int) -> None:
        """Orient one edge and update the reach rows, the decided edges and
        the counts of every cycle on it.  An arc that closes a directed
        cycle raises RuntimeError: the search never sets one."""
        i = self.edge_index[(tail, head) if tail < head else (head, tail)]
        fresh = self.state[i] == UNSET
        super().set_arc(tail, head)
        if not fresh:
            return
        self.unscanned.append((tail, head))
        # the rows before they grow: each x reaching tail comes to reach
        # its neighbours that head reaches and it did not
        reach, adj, state = self.reach, self.graph.adj, self.state
        edge_index, decided = self.edge_index, self.decided
        below = reach[head]
        above = self.coreach[tail]
        while above:
            low = above & -above
            above ^= low
            x = low.bit_length() - 1
            ys = below & adj[x] & ~reach[x]
            while ys:
                bit = ys & -ys
                ys ^= bit
                y = bit.bit_length() - 1
                j = edge_index[(x, y) if x < y else (y, x)]
                if state[j] == UNSET:
                    heappush(decided, j)
        if not add_arc_rows(reach, self.coreach, tail, head):
            t, h = self.graph.labels[tail], self.graph.labels[head]
            raise RuntimeError(f"arc {t}->{h} closes a directed cycle")
        along, against, fire = self.along, self.against, self.fire
        inventory = self.inventory
        sizes, triangles, watch = inventory.sizes, inventory.triangles, inventory.watch
        # rings stepping tail -> head count it along, head -> tail against
        for rings, counts, others in (
            (watch[tail, head], along, against),
            (watch[head, tail], against, along),
        ):
            for c in rings:
                count = counts[c] + 1
                counts[c] = count
                other = others[c]
                unset = sizes[c] - count - other
                if unset > 2:
                    continue
                # a triangle fires with one edge unset and the other two
                # pointing the same way; a longer ring fires with one unset
                # and at most one against the rest, or two unset and none
                slack = (1 if c < triangles else 2) - unset
                if unset and (count if count < other else other) <= slack:
                    fire.add(c)
                else:
                    fire.discard(c)

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
        unset = self.unset_steps(c)
        if self.against[c] > self.along[c]:
            arcs = tuple(unset)
        else:
            arcs = tuple((h, t) for t, h in unset)
        ring, prints = self.inventory.rings[c], self.inventory.prints
        if c not in prints:
            prints[c] = _canonical_ring_print(self.graph, ring)
        return arcs, ring, prints[c]

    def snapshot(self) -> tuple[bytes, bytes, bytes]:
        """Edge states and cycle counts.  Snapshots are taken at a
        propagation fixpoint, where no cycle fires, scanned clean:
        ``restore`` keeps no arcs for the next scan to cover."""
        assert not self.fire, "snapshot of a state that still propagates"
        assert not self.unscanned, "snapshot of a state that owes a scan"
        return bytes(self.state), bytes(self.along), bytes(self.against)

    def restore(self, snapshot: tuple[bytes, bytes, bytes]) -> None:
        """Go back to a snapshot's state, which the search has scanned
        and found free of defects."""
        state, along, against = snapshot
        self.state = list(state)
        self.along = bytearray(along)
        self.against = bytearray(against)
        self.fire = set()
        out_adj = [0] * self.graph.n
        for (lo, hi), s in zip(self.edge_order, self.state):
            if s == FORWARD:
                out_adj[lo] |= 1 << hi
            elif s == BACKWARD:
                out_adj[hi] |= 1 << lo
        self.out_adj = out_adj
        # a banked state's arcs each went through set_arc, so they are acyclic
        self.reach, self.coreach = reach_rows(out_adj)
        reach = self.reach
        # in index order, so already a heap
        self.decided = [
            i
            for i, ((lo, hi), s) in enumerate(zip(self.edge_order, self.state))
            if s == UNSET and (reach[lo] >> hi & 1 or reach[hi] >> lo & 1)
        ]
        self.unscanned = []


# --------------------------------------------------------------------------
# operations


def _scan_defect(po: _WatchedOrientation) -> tuple[str, ...] | None:
    """Printable terminal path if the state is dead, else None: the
    shortcut ``find_shortcut`` would report.  The arcs are acyclic.

    Only the closing arcs u->v that an arc t->h set since the last clean
    scan can have changed are tested: u reaches t and h reaches v."""
    g = po.graph
    reach, coreach, out_adj = po.reach, po.coreach, po.out_adj
    heads: dict[int, int] = {}  # tail u -> the candidate closing arcs' heads
    for t, h in po.unscanned:
        below = reach[h]
        tails = coreach[t]
        while tails:
            low = tails & -tails
            tails ^= low
            u = low.bit_length() - 1
            hit = out_adj[u] & below
            if hit:
                heads[u] = heads.get(u, 0) | hit
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
    inventory = po.inventory
    first = min(po.fire, default=None)
    if first is not None and first < inventory.triangles:
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

    if first is not None:
        return po.forced_by(first)
    return None


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
    against.  One byte lane per cycle, so one pass of big-int arithmetic
    finds them all; along + against <= size, so no lane borrows."""
    sizes = po.inventory.sizes
    ones = int.from_bytes(b"\x01" * len(sizes), "little")
    low7, high = ones * 0x7F, ones << 7

    def zero(x: int) -> int:  # 0x80 in each lane of x that is 0
        return ~(((x & low7) + low7) | x | low7) & high

    al = int.from_bytes(po.along, "little")
    ag = int.from_bytes(po.against, "little")
    unset = int.from_bytes(sizes, "little") - al - ag
    hits = zero(unset ^ ones * 3) & (zero(al) | zero(ag))
    lanes = hits.to_bytes(len(sizes), "little")  # 0x80 at each such cycle
    counts: dict[tuple[int, int], int] = {}
    c = lanes.find(0x80)
    while c >= 0:
        for t, h in po.unset_steps(c):
            edge = (t, h) if t < h else (h, t)
            counts[edge] = counts.get(edge, 0) + 1
        c = lanes.find(0x80, c + 1)
    return counts


def _pick_branch_edge(po: _WatchedOrientation) -> tuple[int, int]:
    """The unset edge on the most nearly-firing cycles, the lowest edge on
    ties; with none, the first unset edge in edge order."""
    counts = _almost_forced_counts(po)
    if counts:
        return min(counts.items(), key=lambda item: (-item[1], item[0]))[0]
    return po.edge_order[po.state.index(UNSET)]


# --------------------------------------------------------------------------
# the search


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


def _choose_source(g: LabeledGraph, cfg: SolverConfig) -> int:
    if cfg.source is not None and cfg.source in g.index:
        return g.index[cfg.source]
    return max_degree_vertex(g)


def _solve_component(
    g: LabeledGraph, cfg: SolverConfig, budget: _Budget
) -> Verdict:
    if not g.edges:
        return SemiTransitive(Orientation(g, ()))
    source = _choose_source(g, cfg)
    po = _WatchedOrientation(g, _cycle_inventory(g, cfg.cycle_len))
    for u in g.neighbors(source):
        po.set_arc(source, u)
    if not budget.spend():  # the root node
        return BudgetExceeded(budget.used)

    preamble = Preamble(None, g.labels[source])
    # deferred branches as (copy id, snapshot, arc to apply on resume);
    # ids grow from 2, so the front of the queue is the lowest pending id
    copies: deque[tuple[int, tuple[bytes, bytes, bytes], tuple[int, int]]] = deque()
    copy_ids = itertools.count(2)
    lines: list[TraceLine] = []
    opener: Root | MoveCopy = Root()
    steps: list[Orient | Branch] = []
    wlog_pending = cfg.wlog_rule

    while True:
        forced, witness = propagate(po)
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

        lo, hi = _pick_branch_edge(po)
        if not budget.spend():
            return BudgetExceeded(budget.used)
        if wlog_pending:
            wlog_pending = False
            preamble = Preamble(
                (g.labels[lo], g.labels[hi]), preamble.source_vertex
            )
        else:
            cid = next(copy_ids)
            copies.append((cid, po.snapshot(), (hi, lo)))
            steps.append(Branch((g.labels[lo], g.labels[hi]), cid))
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

    arcs_by_label: list[tuple[str, str]] = []
    for comp in comps:
        sub = induced_subgraph(g, comp)
        verdict = _solve_component(sub, cfg, budget)
        if isinstance(verdict, SemiTransitive):
            labels = sub.labels
            arcs_by_label.extend(
                (labels[t], labels[h]) for t, h in verdict.orientation.arcs
            )
        else:
            # NonSemiTransitive in any component settles the graph (its
            # trace replays against g unchanged); budget exhaustion stops
            # the scan
            return verdict
    arcs = tuple((g.index[a], g.index[b]) for a, b in arcs_by_label)
    return SemiTransitive(Orientation(g, arcs))

